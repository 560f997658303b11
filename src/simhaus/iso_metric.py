"""Isomorphism classes of simplicial complexes and the distances between them.

Two complexes are isomorphic when an injective vertex relabeling maps
one face family onto the other. A class is represented by its least
relabeled face list, and the class distance is the minimum of the
labeled distance over all vertex bijections (1 outright when the vertex
counts differ). Both scan every relabeling at once in the ``_kernels``
engine, which is brute force over n! bijections: the supported scale is
at most ``MAX_CLASS_VERTICES`` vertices.

``enumerate_classes`` stops at ``MAX_ENUMERATION_VERTICES`` = 5 because
the CLI ``matrix`` shares that cap: the 6-vertex table of 16143 classes
would take about 100 minutes.

Distances reach the engine through exact face tables: the distance from
each needed vertex subset (as a bitmask over the sorted vertices) to a
complex, with the rational values interned as order-preserving integer
codes. Each entry is one ``hausdorff_metric._mask_distance`` call on the
maximal-face bitmasks, so no face is decoded. ``class_distance`` scores
one pair and reports its first minimizing bijection;
``class_distance_matrix`` fills all pairs of a class list by index, so
the output is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_
from typing import Iterable, Sequence

import numpy as np

from .complex_core import Complex, Face, complex_from_faces
from .errors import TooLargeError
from .exact_minimax import ONE, Rat, ZERO, format_rational
from .hausdorff_metric import _mask_distance
# bound here only so the benchmark tracer (perfbench/tracing.py HOOKS) can
# keep counting calls through this name; the face tables no longer use it
from .hausdorff_metric import face_distance  # noqa: F401
from ._kernels import images, pairwise_min_codes, perm_bits, relabel_scores

MAX_CLASS_VERTICES = 8
MAX_ENUMERATION_VERTICES = 5


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


@lru_cache(maxsize=None)
def _mask_decode(n: int) -> tuple[Face, ...]:
    return tuple(tuple(v for v in range(n) if mask >> v & 1) for mask in range(1 << n))


@lru_cache(maxsize=None)
def _lex_order(n: int) -> tuple[list[int], np.ndarray]:
    """Nonempty bitmasks in lexicographic order of the decoded face, and each mask's rank."""
    decode = _mask_decode(n)
    order = sorted(range(1, 1 << n), key=lambda m: decode[m])
    rank = np.zeros(1 << n, dtype=np.uint8)
    rank[order] = np.arange(len(order))
    return order, rank


def _sizes(masks: Iterable[int]) -> set[int]:
    return {m.bit_count() for m in masks}


def _canonical_faces(masks: Sequence[int], n: int) -> tuple[Face, ...]:
    """Least relabeled face list, compared through sorted lexicographic face ranks."""
    order, rank = _lex_order(n)
    fwd, _ = perm_bits(n)
    keys = np.sort(rank[images(fwd, masks)], axis=0)
    least = keys[:, np.lexsort(keys[::-1])[0]]
    decode = _mask_decode(n)
    return tuple(decode[order[r]] for r in least.tolist())


def canonical_form(k: Complex) -> CanonicalComplex:
    """Relabel to {0..n-1} and minimize the face list over all n! relabelings.

    Isomorphic inputs yield identical encodings. Brute force; raises
    TooLargeError above ``MAX_CLASS_VERTICES`` vertices.
    """
    n = len(k.vertices)
    if n > MAX_CLASS_VERTICES:
        raise TooLargeError(f"canonical form capped at {MAX_CLASS_VERTICES} vertices, got {n}")
    faces = _canonical_faces(k._masks, n)
    return CanonicalComplex(complex=complex_from_faces(faces), encoding=faces)


def enumerate_classes(n: int) -> list[CanonicalComplex]:
    """All isomorphism classes of complexes with vertex set exactly {0..n-1}.

    Level L holds one representative per orbit of L-face antichains. A
    child is a representative plus one mask incomparable to all of its
    masks, kept under its canonical face list (canonical augmentation,
    McKay 1998); a child covering all n vertices is a class. Ordered by
    (total face count, encoding). Counts are 1, 2, 5, 20, 180 for
    n = 1..5; larger n raises TooLargeError.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > MAX_ENUMERATION_VERTICES:
        raise TooLargeError(f"class enumeration capped at {MAX_ENUMERATION_VERTICES} vertices")
    full = (1 << n) - 1
    level: list[tuple[int, ...]] = [()]
    classes = []
    while level:
        children: dict[tuple[Face, ...], tuple[int, ...]] = {}
        for rep in level:
            for m in range(1, 1 << n):
                if all(m & c not in (c, m) for c in rep):
                    children.setdefault(_canonical_faces(rep + (m,), n), rep + (m,))
        level = list(children.values())
        classes += [CanonicalComplex(complex=complex_from_faces(faces), encoding=faces)
                    for faces, rep in children.items() if reduce(or_, rep) == full]
    classes.sort(key=lambda c: (len(c.complex.faces), c.encoding))
    return classes


def _face_table(masks: Sequence[int], n: int, sizes: set[int]) -> list[Rat]:
    """Distance from each vertex subset (as a bitmask) to the complex on ``masks``.

    Only subsets with a size in ``sizes`` are computed; the others, the
    empty mask included, hold 0.
    """
    return [_mask_distance(f, masks) if f.bit_count() in sizes else ZERO for f in range(1 << n)]


def _coded(tables: Sequence[Sequence[Rat]]) -> tuple[list[Rat], np.ndarray]:
    """Sorted distinct values and the tables as indices into them; 0 codes ZERO.

    Values are keyed by ``(numerator, denominator)``: ``Fraction.__hash__``
    is not cached and costs a modular inverse per call.
    """
    distinct = {v.as_integer_ratio(): v for t in tables for v in t}
    distinct[0, 1] = ZERO
    values = sorted(distinct.values())
    code = {v.as_integer_ratio(): i for i, v in enumerate(values)}
    return values, np.array([[code[v.as_integer_ratio()] for v in t] for t in tables],
                            dtype=np.min_scalar_type(len(values)))


def class_distance(k1: Complex, k2: Complex) -> ClassDistanceResult:
    """Minimum labeled distance over all vertex bijections between k1 and k2.

    The witness is the first minimizing bijection in
    ``itertools.permutations(k2.vertices)`` order. Raises TooLargeError
    above ``MAX_CLASS_VERTICES`` vertices.
    """
    v1, v2 = k1.vertices, k2.vertices
    if max(len(v1), len(v2)) > MAX_CLASS_VERTICES:
        raise TooLargeError(f"class distance capped at {MAX_CLASS_VERTICES} vertices")
    if len(v1) != len(v2):
        return ClassDistanceResult(ONE, None)

    n = len(v1)
    masks1, masks2 = k1._masks, k2._masks
    values, (codes1, codes2) = _coded([_face_table(masks1, n, _sizes(masks2)),
                                       _face_table(masks2, n, _sizes(masks1))])
    fwd, inv = perm_bits(n)
    scores = relabel_scores(codes2, images(fwd, masks1), codes1, images(inv, masks2))
    best = int(np.argmin(scores))
    mapping = {v1[i]: v2[int(b).bit_length() - 1] for i, b in enumerate(fwd[best])}
    return ClassDistanceResult(values[scores[best]], mapping)


# ---------------------------------------------------------------------------
# all-pairs matrix


@dataclass
class DistanceMatrix:
    """Symmetric matrix of exact class distances, indexed like ``classes``."""

    classes: list[CanonicalComplex]
    values: list[list[Rat]]

    def to_tsv(self) -> str:
        header = "\t".join(c.encoding_string for c in self.classes)
        lines = [header]
        for row in self.values:
            lines.append("\t".join(format_rational(v) for v in row))
        return "\n".join(lines) + "\n"


def class_distance_matrix(classes: Sequence[CanonicalComplex]) -> DistanceMatrix:
    """All pairwise class distances; zero diagonal, deterministic layout.

    Classes with different vertex counts are at distance 1. Within a
    vertex count, every class gets one face table over the face sizes of
    the whole group, and the engine minimizes over relabelings per pair.
    Raises TooLargeError when a class has more than
    ``MAX_CLASS_VERTICES`` vertices.
    """
    count = len(classes)
    widest = max((len(c.complex.vertices) for c in classes), default=0)
    if widest > MAX_CLASS_VERTICES:
        raise TooLargeError(f"class distance matrix capped at {MAX_CLASS_VERTICES} vertices, "
                            f"got {widest}")
    values: list[list[Rat]] = [[ONE] * count for _ in range(count)]
    for i in range(count):
        values[i][i] = ZERO

    by_size: dict[int, list[int]] = {}
    for i, c in enumerate(classes):
        by_size.setdefault(len(c.complex.vertices), []).append(i)

    for n in sorted(by_size):
        group = by_size[n]
        if len(group) < 2:
            continue
        masks = [classes[i].complex._masks for i in group]
        sizes = set().union(*map(_sizes, masks))
        distinct, tables = _coded([_face_table(m, n, sizes) for m in masks])
        width = max(map(len, masks))
        padded = np.array([m + (0,) * (width - len(m)) for m in masks], dtype=np.uint8)
        fwd, inv = perm_bits(n)
        codes = pairwise_min_codes(tables, padded, fwd, inv)
        for a, b in combinations(range(len(group)), 2):
            v = distinct[codes[a, b]]
            values[group[a]][group[b]] = v
            values[group[b]][group[a]] = v
    return DistanceMatrix(list(classes), values)
