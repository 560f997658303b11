"""Hausdorff-style distances between finite simplicial complexes.

The distance from a face F to a complex K is ``1 - D`` where D is the
exact minimax value of the weight-sum forms of the faces of K contained
in F (``exact_minimax``); it is 1 outright when F has a vertex outside
K. The directed distance scans the maximal faces of the source complex,
and the symmetric distance is the larger of the two directions. All
values are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .complex_core import Complex, normalize_face, skeleton
# bound here only so the benchmark tracer (perfbench/tracing.py HOOKS) can
# keep counting calls through this name
from .complex_core import connected_components  # noqa: F401
from .errors import InvalidLawError
from .exact_minimax import (
    MinimaxProblem,
    Rat,
    ONE,
    ZERO,
    solve_minimax,
)


@dataclass(frozen=True)
class Law:
    """A probability distribution on vertices with exact rational weights."""

    weights: tuple[tuple[int, Rat], ...]

    @classmethod
    def of(cls, weights: Mapping[int, Rat]) -> "Law":
        items = tuple(sorted((v, Fraction(w)) for v, w in weights.items()))
        if any(w < 0 for _, w in items):
            raise InvalidLawError("weights must be nonnegative")
        total = sum((w for _, w in items), ZERO)
        if total != 1:
            raise InvalidLawError(f"weights sum to {total}, expected 1")
        if not any(w > 0 for _, w in items):
            raise InvalidLawError("support must be nonempty")
        return cls(items)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(v for v, w in self.weights if w > 0)

    def weight(self, vertex: int) -> Rat:
        for v, w in self.weights:
            if v == vertex:
                return w
        return ZERO


def _restricted_forms(face: frozenset[int], k: Complex) -> tuple[tuple[int, ...], ...]:
    """Maximal faces of k lying inside ``face``: the antichain of M ∩ face."""
    pieces = {frozenset(m) & face for m in k.maximal_faces}
    pieces.discard(frozenset())
    maximal = [p for p in pieces if not any(p < q for q in pieces)]
    return tuple(sorted(tuple(sorted(p)) for p in maximal))


@lru_cache(maxsize=65536)
def _face_distance_cached(face: tuple[int, ...], k: Complex) -> Rat:
    fs = frozenset(face)
    if not fs <= k.vertex_set:
        return ONE
    if k.contains_face(face):
        return ZERO
    forms = _restricted_forms(fs, k)
    problem = MinimaxProblem(ground_set=face, face_forms=forms)
    return ONE - solve_minimax(problem).value


def face_distance(face: Iterable[int], k: Complex) -> Rat:
    """Distance from the simplex on ``face`` to the realization of ``k``.

    1 when ``face`` is not contained in the vertex set of ``k``; 0 when
    ``face`` is itself a face of ``k``. The underlying optimization runs
    over the closed weight simplex; laws supported on proper subsets of
    ``face`` are honest candidates, not limits.
    """
    return _face_distance_cached(normalize_face(face), k)


def directed_distance(k1: Complex, k2: Complex) -> Rat:
    """sup over faces of ``k1`` of their distance to ``k2``.

    Scanning only maximal faces suffices: face distance is monotone
    under face inclusion because the forms of a subface are exactly the
    restrictions of the forms of the face.
    """
    best = ZERO
    for face in sorted(k1.maximal_faces, key=len, reverse=True):
        d = _face_distance_cached(face, k2)
        if d > best:
            best = d
            if best == ONE:
                break
    return best


def distance(k1: Complex, k2: Complex) -> Rat:
    """Symmetric Hausdorff distance: max of the two directed distances.

    Returns 1 whenever the vertex sets differ, 0 exactly for equal face
    families.
    """
    if k1.maximal_faces == k2.maximal_faces:
        return ZERO
    if k1.vertex_set != k2.vertex_set:
        return ONE
    return max(directed_distance(k1, k2), directed_distance(k2, k1))


def law_distance(law: Law, k: Complex) -> Rat:
    """Distance from a probability law to the realization of ``k``.

    The best approximation concentrates the law on a face of ``k``
    inside its support, losing the weight left outside; the result is 1
    when no face of ``k`` fits in the support.
    """
    supp = law.support
    pieces = {frozenset(m) & supp for m in k.maximal_faces}
    pieces.discard(frozenset())
    if not pieces:
        return ONE
    maximal = [p for p in pieces if not any(p < q for q in pieces)]
    covered = max(sum((law.weight(v) for v in p), ZERO) for p in maximal)
    return ONE - covered


def skeleton_disagreement_bound(k1: Complex, k2: Complex) -> Rat | None:
    """Lower bound ``1/(N+2)`` from the largest N with equal N-skeleta.

    None for equal complexes; 1 when already the vertex sets disagree.
    The bound never exceeds ``distance(k1, k2)``.
    """
    if k1 == k2:
        return None
    if k1.vertex_set != k2.vertex_set:
        return ONE
    n = 0
    while skeleton(k1, n + 1) == skeleton(k2, n + 1):
        n += 1
    # skeleta agree through n, differ at n + 1
    return Fraction(1, n + 2)
