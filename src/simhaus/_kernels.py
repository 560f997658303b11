"""The relabeling engine: every vertex bijection at once, as numpy arrays.

A face over {0..n-1} is a bitmask. A relabeling is stored as the row of
its vertex bits, ``bits[v] = 1 << image(v)``, so the image of a face is
the dot product of that row with the face's 0/1 membership vector; a
matrix product maps every face under every relabeling in one call.
Images stay below ``2**n <= 256``, so uint8 holds bits and images alike
(the product sums distinct powers of two and never wraps).

Distances enter as small integer codes, indices into a sorted table of
exact rationals. The engine only gathers, compares and selects those
codes; exactness is preserved because the code order mirrors the value
order. Canonical forms, ``class_distance`` and ``class_distance_matrix``
all scan relabelings through this module.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, permutations
from math import factorial

import numpy as np


@lru_cache(maxsize=None)
def perm_bits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex bits of every relabeling of {0..n-1} and of its inverse.

    Row ``p`` of both ``(n!, n)`` uint8 arrays belongs to the ``p``-th
    permutation in ``itertools.permutations(range(n))`` order. The arrays
    are cached per ``n`` and read-only.
    """
    if n > 8:
        raise ValueError(f"uint8 bitmasks hold at most 8 vertices, got {n}")
    count = factorial(n)
    perms = np.fromiter(chain.from_iterable(permutations(range(n))), dtype=np.uint8,
                        count=count * n).reshape(count, n)
    one = np.uint8(1)
    fwd = one << perms
    inv = one << np.argsort(perms, axis=1).astype(np.uint8)
    fwd.flags.writeable = False
    inv.flags.writeable = False
    return fwd, inv


def images(bits: np.ndarray, masks) -> np.ndarray:
    """``(len(masks), n!)`` bitmask images of the faces ``masks`` under each relabeling.

    Faces run along the first axis, so a max over faces combines whole
    contiguous rows of relabelings.
    """
    n = bits.shape[1]
    member = (np.asarray(masks, dtype=np.uint8)[:, None] >> np.arange(n, dtype=np.uint8)) & 1
    return member @ bits.T


def relabel_scores(table2: np.ndarray, images1: np.ndarray,
                   table1: np.ndarray, images2: np.ndarray) -> np.ndarray:
    """Per relabeling, the larger of the two directed max face-distance codes.

    ``table1`` / ``table2`` give the code of every vertex subset's
    distance to side 1 / side 2; ``images1`` holds the faces of side 1
    mapped forward and ``images2`` those of side 2 mapped back, as
    ``images`` returns them. Leading axes broadcast, so a stack of tables
    or of images scores several pairs at once.
    """
    forward = table2[..., images1].max(axis=-2)
    backward = table1[..., images2].max(axis=-2)
    return np.maximum(forward, backward)


def pairwise_min_codes(tables: np.ndarray, masks: np.ndarray,
                       fwd: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """All-pairs min-over-relabelings of the max face-distance code.

    Args:
        tables: (C, 2**n) per-class distance code of every vertex subset;
            entry 0 must hold the smallest code.
        masks: (C, M) maximal-face bitmasks per class, padded with 0 (the
            empty mask maps to itself and scores the smallest code).
        fwd / inv: ``perm_bits(n)``, one row per relabeling.

    Returns:
        (C, C) int64 symmetric matrix of codes; the diagonal is zero.
    """
    count = tables.shape[0]
    out = np.zeros((count, count), dtype=np.int64)
    back = np.stack([images(inv, m) for m in masks])
    for a in range(count - 1):
        scores = relabel_scores(tables[a + 1:], images(fwd, masks[a]), tables[a], back[a + 1:])
        out[a, a + 1:] = scores.min(axis=-1)
    return out + out.T
