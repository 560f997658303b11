"""Isomorphism classes of simplicial complexes and the distances between them.

Two complexes are isomorphic when an injective vertex relabeling maps
one face family onto the other. A class is represented by its least
relabeled face list, and the class distance is the minimum of the
labeled distance over all vertex bijections (1 outright when the vertex
counts differ). Both scan relabelings at once in the ``_kernels``
engine, which owns the array representation and its vertex cap
(``_kernels.MAX_VERTICES``): canonical forms and ``class_distance`` over
all n! bijections, the class matrix over one bijection per automorphism
coset of a class, bound first: a pair whose score at the identity
equals its f-vector lower bound (``_kernels.fvector_bound``) scans no
other bijection. Each operation here asks the engine for
``perm_bits(n)`` before any other work, so a too-large input is refused
at once with TooLargeError.

``enumerate_classes`` walks levels of antichains in the engine, which
keys each level's children by one 64-bit orbit word, the orbit's
canonical encoding (``_kernels.antichain_levels``); that word caps
enumeration at ``MAX_ENUMERATION_VERTICES`` = 6 (16143 classes). The
class matrix refuses a list of more than ``MAX_MATRIX_CLASSES`` classes,
of any vertex counts, since a mixed list is scanned as one list at its
widest count: the 6-vertex table has 130,290,153 class pairs.

Distances reach the engine through exact face tables: the distance from
each needed vertex subset (as a bitmask over the sorted vertices) to a
complex, which the engine interns as order-preserving integer codes.
``_face_tables`` fills the subsets at the face sizes of its call. An
entry depends only on its restricted LP, so the engine keys all
(class, subset) pairs of a call by that LP, one Python int per key that
reads the same at every vertex count, and asks ``_face_values`` once
for all distinct keys. A value is a function of its key alone, so one
memo of ``MAX_FACE_VALUES`` int keys serves every call and width; the keys it
misses go to ``_kernels.key_distances`` in one batch, which solves their
LPs together in one exact int64 simplex. ``class_distance`` and
``class_distance_matrix`` both take this one route.
``class_distance`` scores one pair and reports its first minimizing bijection;
``class_distance_matrix`` fills all pairs of a class list by index, so
the output is deterministic, with one face-table and one kernel call
at the widest vertex count: the engine's zero key puts classes of other
counts at 1, and a mixed list scans every pair at that count. The
matrix stays in codes: a ``DistanceMatrix`` holds ``distinct``, the
sorted values that occur, and ``codes[i][j]``, indices into it, which
the engine renumbers from the kernel's codes (``_kernels.compact_codes``);
``values`` decodes them on demand and ``to_tsv`` formats each distinct
value once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import islice
from operator import or_
from typing import Sequence

from .complex_core import Complex, Face, complex_from_faces
from .errors import TooLargeError
from .exact_minimax import ONE, Rat, format_rational
# bound here only so the benchmark tracer (perfbench/tracing.py HOOKS) can
# keep counting calls through this name; the face tables no longer use it
from .hausdorff_metric import face_distance  # noqa: F401
from ._kernels import (MAX_KEY_VERTICES, antichain_levels, canonical_faces, compact_codes,
                       face_codes, face_counts, images, key_distances, key_faces,
                       pairwise_min_codes, perm_bits, relabel_scores)

MAX_ENUMERATION_VERTICES = MAX_KEY_VERTICES
MAX_MATRIX_CLASSES = 1000


@dataclass(frozen=True)
class CanonicalComplex:
    """A complex over {0..n-1} whose face list is minimal over relabelings."""

    complex: Complex
    encoding: tuple[Face, ...]

    @property
    def encoding_string(self) -> str:
        return json.dumps([list(f) for f in self.encoding], separators=(",", ":"))


@dataclass(frozen=True)
class ClassDistanceResult:
    """Distance value plus a vertex bijection attaining it.

    ``witness_bijection`` is None when the vertex counts differ (every
    relabeling then scores 1, so no bijection exists to report).
    """

    value: Rat
    witness_bijection: dict[int, int] | None


def canonical_form(k: Complex) -> CanonicalComplex:
    """Relabel to {0..n-1} and minimize the face list over all n! relabelings.

    Isomorphic inputs yield identical encodings. Brute force; raises
    TooLargeError above the engine's vertex cap.
    """
    faces = canonical_faces(k._masks, len(k.vertices))
    return CanonicalComplex(complex=complex_from_faces(faces), encoding=faces)


def enumerate_classes(n: int) -> list[CanonicalComplex]:
    """All isomorphism classes of complexes with vertex set exactly {0..n-1}.

    The engine walks levels of antichains, one representative per orbit
    (``_kernels.antichain_levels``, canonical augmentation after McKay
    1998); each representative covering all n vertices is a class, and
    its orbit key decodes to the canonical face list that encodes it.
    Ordered by (total face count, encoding), the count taken in the engine
    (``face_counts``). Counts are 1, 2, 5, 20, 180, 16143 for n = 1..6;
    the engine refuses larger n with TooLargeError.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    covering = [(rep, key) for level in antichain_levels(n)
                for rep, key in level if reduce(or_, rep) == (1 << n) - 1]
    counts = face_counts([rep for rep, _ in covering], n).tolist()
    encodings = sorted(zip(counts, (key_faces(key, n) for _, key in covering)))
    # a decoded key is already a sorted antichain of sorted faces
    return [CanonicalComplex(Complex._of_maximal(frozenset(faces)), faces) for _, faces in encodings]


MAX_FACE_VALUES = 65536
# face-table key (an int, ``_kernels.face_codes``) -> distance, oldest first; bounded at
# MAX_FACE_VALUES keys
_face_memo: dict[int, Rat] = {}


def _face_values(keys: list[int]) -> list[Rat]:
    """The ``face_codes`` values of ``keys``: memo hits, and one ``key_distances`` batch for the rest.

    Only the misses are stored, and the oldest keys leave first once the
    memo holds more than ``MAX_FACE_VALUES``.
    """
    found = list(map(_face_memo.get, keys))
    misses = [key for key, value in zip(keys, found) if value is None]
    if not misses:
        return found
    solved = dict(zip(misses, key_distances(misses)))
    _face_memo.update(solved)
    for stale in list(islice(_face_memo, max(0, len(_face_memo) - MAX_FACE_VALUES))):
        del _face_memo[stale]
    return [solved[key] if value is None else value for key, value in zip(keys, found)]


def _face_tables(mask_lists: Sequence[tuple[int, ...]], n: int):
    """Distance codes from vertex subsets to each complex on ``mask_lists``.

    Returns the sorted distinct distances and a ``(len(mask_lists), 2**n)``
    array of indices into them, one row per complex. Exactly the subsets
    whose size is the size of some mask in the call are computed, through
    ``_face_values``; the other entries hold code 0. Every complex's own
    maximal faces are among them at distance 0, so code 0 is distance 0,
    and only the engine's f-vector bound reads the unfilled entries, as
    a term of 0.
    """
    sizes = {m.bit_count() for masks in mask_lists for m in masks}
    subsets = [f for f in range(1 << n) if f.bit_count() in sizes]
    return face_codes(mask_lists, n, subsets, _face_values)


def class_distance(k1: Complex, k2: Complex) -> ClassDistanceResult:
    """Minimum labeled distance over all vertex bijections between k1 and k2.

    The witness is the first minimizing bijection in
    ``itertools.permutations(k2.vertices)`` order. Raises TooLargeError
    above the engine's vertex cap, also when the vertex counts differ.
    """
    v1, v2 = k1.vertices, k2.vertices
    fwd, inv = perm_bits(max(len(v1), len(v2)))
    if len(v1) != len(v2):
        return ClassDistanceResult(ONE, None)

    values, (codes1, codes2) = _face_tables([k1._masks, k2._masks], len(v1))
    scores = relabel_scores(codes2, images(fwd, k1._masks), codes1, images(inv, k2._masks))
    best = scores.argmin()
    mapping = {v1[i]: v2[b.bit_length() - 1] for i, b in enumerate(fwd[best].tolist())}
    return ClassDistanceResult(values[scores[best]], mapping)


# ---------------------------------------------------------------------------
# all-pairs matrix


@dataclass
class DistanceMatrix:
    """Symmetric matrix of exact class distances, indexed like ``classes``.

    ``codes[i][j]`` indexes ``distinct``, the sorted values that occur.
    """

    classes: list[CanonicalComplex]
    distinct: list[Rat]
    codes: list[list[int]]

    @cached_property
    def values(self) -> list[list[Rat]]:
        """The exact distance of every pair, decoded from ``codes``."""
        return [list(map(self.distinct.__getitem__, row)) for row in self.codes]

    def to_tsv(self) -> str:
        text = [format_rational(v) for v in self.distinct]
        lines = ["\t".join(c.encoding_string for c in self.classes)]
        lines += ["\t".join(map(text.__getitem__, row)) for row in self.codes]
        return "\n".join(lines) + "\n"


def class_distance_matrix(classes: Sequence[CanonicalComplex]) -> DistanceMatrix:
    """All pairwise class distances; zero diagonal, deterministic layout.

    One face-table call and one kernel call at the widest vertex count n
    of the list: the engine minimizes each pair over one relabeling of
    {0..n-1} per automorphism coset of its more symmetric class, and
    only where the pair's score at the identity is above its f-vector
    lower bound (``_kernels.pairwise_min_codes``). A subset
    with a vertex outside its class has the zero key, at distance 1, so
    classes of different vertex counts come out at 1 from the kernel, and
    a mixed list scans every pair at the widest count.
    Raises TooLargeError, before any work, when a class has more vertices
    than the engine's cap or the list has more than ``MAX_MATRIX_CLASSES``
    classes, whatever their vertex counts.
    """
    if len(classes) > MAX_MATRIX_CLASSES:
        raise TooLargeError(f"class matrix capped at {MAX_MATRIX_CLASSES} classes")
    if not classes:
        return DistanceMatrix([], [], [])
    n = max(len(c.complex.vertices) for c in classes)
    fwd, inv = perm_bits(n)  # refuses too wide a class before any face table

    masks = [c.complex._masks for c in classes]
    values, tables = _face_tables(masks, n)
    occurring, codes = compact_codes(pairwise_min_codes(tables, masks, fwd, inv))
    return DistanceMatrix(list(classes), [values[k] for k in occurring], codes)
