"""The relabeling engine: every vertex bijection at once, as numpy arrays.

A face over {0..n-1} is a bitmask. A relabeling is stored as the row of
its vertex bits, ``bits[v] = 1 << image(v)``, so the image of a face is
the dot product of that row with the face's 0/1 membership vector; a
matrix product maps every face under every relabeling in one call.
Images stay below ``2**n``, so uint8 holds bits, images and lexicographic
face ranks alike (the product sums distinct powers of two and never
wraps). That choice is the engine's cap, ``MAX_VERTICES`` = 8, and
``perm_bits`` is the one place that refuses more, with TooLargeError.
Every entry point calls it before any work that grows with ``n``.

Distances enter as small integer codes, indices into a sorted table of
exact rationals (``coded``). The engine only gathers, compares and
selects those codes; exactness is preserved because the code order
mirrors the value order. Canonical forms, ``class_distance`` and
``class_distance_matrix`` all scan relabelings through this module, the
only one that holds numpy arrays.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations
from math import factorial
from typing import Sequence

import numpy as np

from .errors import TooLargeError

MAX_VERTICES = 8


@lru_cache(maxsize=None)
def perm_bits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex bits of every relabeling of {0..n-1} and of its inverse.

    Row ``p`` of both ``(n!, n)`` uint8 arrays belongs to the ``p``-th
    permutation in ``itertools.permutations(range(n))`` order. The arrays
    are cached per ``n`` and read-only. Raises TooLargeError above
    ``MAX_VERTICES``.
    """
    if n > MAX_VERTICES:
        raise TooLargeError(f"class operations capped at {MAX_VERTICES} vertices, got {n}")
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


@lru_cache(maxsize=None)
def _lex_table(n: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Nonempty faces of {0..n-1} in lexicographic order, and each bitmask's rank among them."""
    faces = sorted((tuple(v for v in range(n) if m >> v & 1), m) for m in range(1, 1 << n))
    rank = np.zeros(1 << n, dtype=np.uint8)
    rank[[m for _, m in faces]] = np.arange(len(faces))
    return tuple(f for f, _ in faces), rank


def canonical_faces(masks: Sequence[int], n: int) -> tuple[tuple[int, ...], ...]:
    """Least relabeled face list of ``masks``, each list sorted lexicographically.

    Relabelings are compared through their sorted lexicographic face ranks.
    """
    fwd, _ = perm_bits(n)
    faces, rank = _lex_table(n)
    keys = np.sort(rank[images(fwd, masks)], axis=0)
    least = keys[:, np.lexsort(keys[::-1])[0]]
    return tuple(faces[r] for r in least.tolist())


def coded(tables: Sequence[Sequence[Fraction]]) -> tuple[list[Fraction], np.ndarray]:
    """Sorted distinct values and the tables as an array of indices into them.

    Values are keyed by ``(numerator, denominator)``: ``Fraction.__hash__``
    is not cached and costs a modular inverse per call.
    """
    distinct = {v.as_integer_ratio(): v for t in tables for v in t}
    values = sorted(distinct.values())
    code = {v.as_integer_ratio(): i for i, v in enumerate(values)}
    return values, np.array([[code[v.as_integer_ratio()] for v in t] for t in tables],
                            dtype=np.min_scalar_type(len(values)))


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


def pairwise_min_codes(tables: np.ndarray, masks: Sequence[tuple[int, ...]],
                       fwd: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """All-pairs min-over-relabelings of the max face-distance code.

    Args:
        tables: (C, 2**n) per-class distance code of every vertex subset,
            as ``coded`` returns them.
        masks: C tuples of maximal-face bitmasks, padded here to one width
            by repeating each tuple's first mask (a repeated face changes
            no max).
        fwd / inv: ``perm_bits(n)``, one row per relabeling.

    Returns:
        (C, C) int64 symmetric matrix of codes; the diagonal is zero.
    """
    width = max(map(len, masks))
    padded = np.array([m + m[:1] * (width - len(m)) for m in masks], dtype=np.uint8)
    count = tables.shape[0]
    out = np.zeros((count, count), dtype=np.int64)
    back = np.stack([images(inv, m) for m in padded])
    for a in range(count - 1):
        scores = relabel_scores(tables[a + 1:], images(fwd, padded[a]), tables[a], back[a + 1:])
        out[a, a + 1:] = scores.min(axis=-1)
    return out + out.T
