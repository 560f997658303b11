"""Hausdorff-style distances between finite simplicial complexes.

The distance from a face F to a complex K is ``1 - D`` where D is the
exact minimax value of the weight-sum forms of K restricted to F: the
inclusion-maximal members of ``{m ∩ F : m maximal in K}``
(``exact_minimax``). It is 1 outright when F has a vertex outside K, and
0 when F lies in a maximal face, because F is then the only form. The
directed distance scans the maximal faces of the source complex, and the
symmetric distance is the larger of the two directions. All values are
exact rationals.

The forms are computed in bitmask space, in one place: ``_mask_distance``
takes F as a bitmask and K as the bitmasks of its maximal faces over the
positions of its sorted vertices (``Complex._masks``). The pieces are
``m & F``; the maximal ones are kept by bit tests and compressed onto the
bits of F, which gives the LP on ground ``0..|F|-1`` that the positional
memo of ``solve_minimax`` is keyed on. The class face tables of
``iso_metric`` and the labeled ``face_distance`` both call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

from .complex_core import Complex, Face, normalize_face, skeleton
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

    @cached_property
    def _by_vertex(self) -> dict[int, Rat]:
        return dict(self.weights)

    def weight(self, vertex: int) -> Rat:
        return self._by_vertex.get(vertex, ZERO)


def _mask_distance(f: int, masks: Iterable[int]) -> Rat:
    """Distance from the face with bitmask ``f`` to the complex with maximal faces ``masks``.

    The forms are the maximal pieces ``m & f`` with each bit of ``f``
    replaced by its position among the bits of ``f``, in sorted order:
    the LP of the labeled restriction, relabeled by ground position. A
    bit of ``f`` in no mask lies in no form, so the LP value is 0 and
    the distance 1.
    """
    pieces = {m & f for m in masks}
    # f ⊆ m exactly when m & f == f, which then is the only form
    if f in pieces:
        return ZERO
    pieces.discard(0)
    # largest first, so a piece is maximal unless a kept one contains it;
    # pieces are distinct, so only a strictly larger one can
    kept: list[int] = []
    for p in sorted(pieces, key=int.bit_count, reverse=True):
        for q in kept:
            if p & q == p:
                break
        else:
            kept.append(p)
    bits = [1 << i for i in range(f.bit_length()) if f >> i & 1]
    forms = sorted([tuple([j for j, b in enumerate(bits) if p & b]) for p in kept])
    return ONE - solve_minimax(MinimaxProblem(tuple(range(len(bits))), tuple(forms))).value


@lru_cache(maxsize=65536)
def _face_distance_cached(face: Face, k: Complex) -> Rat:
    position = dict(zip(k.vertices, range(len(k.vertices))))
    f = 0
    for v in face:
        i = position.get(v)
        if i is None:
            return ONE
        f |= 1 << i
    return _mask_distance(f, k._masks)


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
    inside its support, losing the weight left outside, so the distance
    is ``1 - max law(m ∩ supp)`` over the maximal pieces ``m ∩ supp``.
    That equals ``1 - max law(m)`` over the maximal faces m of ``k``:

    * ``law(m ∩ supp) == law(m)``, because weights outside the support
      are 0;
    * a non-maximal piece never wins a max of nonnegative sums;
    * if no face meets the support, every sum is 0 and the result is 1.
    """
    return ONE - max(sum((law.weight(v) for v in m), ZERO) for m in k.maximal_faces)


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
