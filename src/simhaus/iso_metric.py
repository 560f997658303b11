"""Distances between isomorphism classes of simplicial complexes.

Two complexes are isomorphic when an injective vertex relabeling maps
one face family onto the other. A class is represented by its least
relabeled face list, and the class distance is the minimum of the
labeled distance over all vertex bijections (1 outright when the vertex
counts differ). Both scan every relabeling at once in the ``_kernels``
engine, which is brute force over n! bijections: the supported scale is
at most ``MAX_CLASS_VERTICES`` vertices.

Distances reach the engine through exact face tables: the distance from
each needed vertex subset (as a bitmask over the sorted vertices) to a
complex, with the rational values interned as order-preserving integer
codes. ``class_distance`` scores one pair and reports its first
minimizing bijection; ``class_distance_matrix`` scores all pairs of a
class list within each vertex count. Cells are filled by index, so the
output is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .complex_core import Complex, Face, complex_from_faces
from .errors import ParseError, TooLargeError
from .exact_minimax import ONE, Rat, ZERO, format_rational, parse_rational
from .hausdorff_metric import face_distance
from ._kernels import images, pairwise_min_codes, perm_bits, relabel_scores

MAX_CLASS_VERTICES = 8
MAX_ENUMERATION_VERTICES = 6


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


def _masks(k: Complex) -> tuple[int, ...]:
    """Maximal faces of ``k`` as bitmasks over the positions of its sorted vertices."""
    index = {v: i for i, v in enumerate(k.vertices)}
    return tuple(sorted(sum(1 << index[v] for v in f) for f in k.maximal_faces))


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


def canonical_form(k: Complex, max_vertices: int = MAX_CLASS_VERTICES) -> CanonicalComplex:
    """Relabel to {0..n-1} and minimize the face list over all n! relabelings.

    Isomorphic inputs yield identical encodings. Brute force; raises
    TooLargeError above ``max_vertices`` vertices.
    """
    n = len(k.vertices)
    if n > max_vertices:
        raise TooLargeError(f"canonical form capped at {max_vertices} vertices, got {n}")
    faces = _canonical_faces(_masks(k), n)
    return CanonicalComplex(complex=complex_from_faces(faces), encoding=faces)


def _antichains_covering(n: int):
    """All antichains of nonempty subsets of {0..n-1} whose union is everything."""
    full = (1 << n) - 1
    masks = list(range(1, 1 << n))
    chosen: list[int] = []

    def rec(start: int, union: int):
        if union == full and chosen:
            yield tuple(chosen)
        for i in range(start, len(masks)):
            m = masks[i]
            if any(m & c == m or m & c == c for c in chosen):
                continue
            chosen.append(m)
            yield from rec(i + 1, union | m)
            chosen.pop()

    yield from rec(0, 0)


def _closure_size(masks: Iterable[int]) -> int:
    faces: set[int] = set()
    for m in masks:
        sub = m
        while sub:
            faces.add(sub)
            sub = (sub - 1) & m
    return len(faces)


def enumerate_classes(n: int) -> list[CanonicalComplex]:
    """All isomorphism classes of complexes with vertex set exactly {0..n-1}.

    Deterministically ordered by (total face count, encoding). Counts
    grow fast (1, 2, 5, 20, 180 for n = 1..5); n = 6 works but is slow,
    larger n raises TooLargeError.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > MAX_ENUMERATION_VERTICES:
        raise TooLargeError(f"class enumeration capped at {MAX_ENUMERATION_VERTICES} vertices")
    seen: dict[tuple[Face, ...], int] = {}
    for antichain in _antichains_covering(n):
        faces = _canonical_faces(antichain, n)
        if faces not in seen:
            seen[faces] = _closure_size(antichain)
    ordered = sorted(seen, key=lambda faces: (seen[faces], faces))
    return [CanonicalComplex(complex=complex_from_faces(faces), encoding=faces) for faces in ordered]


def _face_table(masks: Sequence[int], n: int, sizes: set[int]) -> list[Rat]:
    """Distance from each vertex subset (as a bitmask) to the complex on ``masks``.

    Only subsets with a size in ``sizes`` are computed; the others, the
    empty mask included, hold 0.
    """
    decode = _mask_decode(n)
    k = complex_from_faces(decode[m] for m in masks)
    return [face_distance(f, k) if len(f) in sizes else ZERO for f in decode]


def _coded(tables: Sequence[Sequence[Rat]]) -> tuple[list[Rat], np.ndarray]:
    """Sorted distinct values and the tables as indices into them; 0 codes ZERO."""
    values = sorted({v for t in tables for v in t} | {ZERO})
    code = {v: i for i, v in enumerate(values)}
    return values, np.array([[code[v] for v in t] for t in tables],
                            dtype=np.min_scalar_type(len(values)))


def class_distance(k1: Complex, k2: Complex,
                   max_vertices: int = MAX_CLASS_VERTICES) -> ClassDistanceResult:
    """Minimum labeled distance over all vertex bijections between k1 and k2.

    The witness is the first minimizing bijection in
    ``itertools.permutations(k2.vertices)`` order.
    """
    v1, v2 = k1.vertices, k2.vertices
    if max(len(v1), len(v2)) > max_vertices:
        raise TooLargeError(f"class distance capped at {max_vertices} vertices")
    if len(v1) != len(v2):
        return ClassDistanceResult(ONE, None)

    n = len(v1)
    masks1, masks2 = _masks(k1), _masks(k2)
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

    @classmethod
    def from_tsv(cls, text: str) -> "DistanceMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty matrix")
        classes = []
        for cell in lines[0].split("\t"):
            try:
                faces = json.loads(cell)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad encoding cell {cell!r}: {exc.msg}") from exc
            faces = tuple(sorted(tuple(f) for f in faces))
            classes.append(CanonicalComplex(complex=complex_from_faces(faces), encoding=faces))
        values = []
        for ln in lines[1:]:
            values.append([parse_rational(cell) for cell in ln.split("\t")])
        if len(values) != len(classes) or any(len(r) != len(classes) for r in values):
            raise ParseError("matrix is not square")
        return cls(classes, values)


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
        masks = [_masks(classes[i].complex) for i in group]
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
