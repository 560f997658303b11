"""Hausdorff-style distances between finite simplicial complexes.

The distance from a face F to a complex K is ``1 - D`` where D is the
exact minimax value of the weight-sum forms of K restricted to F: the
inclusion-maximal members of ``{m ∩ F : m maximal in K}``
(``exact_minimax``). It is 1 outright when F has a vertex outside K, and
0 when F lies in a maximal face, because F is then the only form.
Otherwise D ≥ 1/|F|, so only a vertex outside K gives distance 1.

The labeled path: ``distance`` is 0 for equal complexes and 1 for
unequal vertex sets, and otherwise the larger of the two directed
distances. ``directed_distance`` is 1 when the source has a vertex
outside the target, and otherwise the max of the face distances of the
source's maximal faces, as bitmasks over the target's ``Complex._bits``.
That max is a branch and bound (``_max_face_distance``), one over both
directions for ``distance``. Every face F is first reduced to its
maximal pieces P, which cover F. So F has a cover by at most
c = min(|P|, |F|) forms, whose sums add up to at least 1 under any law:
D ≥ 1/c, and the face's distance is at most ``1 - 1/c``. Faces are
visited in decreasing order of that bound, and the scan stops at the
first face whose bound is not above the largest distance found so far;
only the faces before it solve their LP. The per-face
``face_distance`` is memoized in ``_face_distance_cached``. All values
are exact rationals.

The forms are computed in bitmask space, in two steps. ``_maximal_pieces``
takes F as a bitmask and K as the bitmasks of its maximal faces
(``Complex._masks``) and keeps the maximal pieces ``m & F`` by bit tests.
``_pieces_distance`` compresses them onto the bits of F, which gives the
LP on ground ``0..|F|-1`` that the positional memo of ``solve_minimax``
is keyed on; a bit of F in no piece gives distance 1. The labeled
``face_distance`` takes both steps (``_mask_distance``). The class face
tables of ``iso_metric`` take neither: they solve the positional LPs
their keys name in one batch (``_kernels.key_distances``). The reduction stops with TooLargeError as
soon as the kept pieces exceed the LP cap (``MAX_LP_SIZE`` forms × |F|),
which the LP would refuse anyway. On a shared 2-core VM, ``simhaus dist``
of the 300-simplex against its 44850 edges exits 4 in about 0.5 s (72 s
when every edge was reduced first).

A ``Law``'s vertex labels follow a complex's rule (``normalize_face``):
nonnegative integers that are not bools.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterable, Mapping

from .complex_core import Complex, Face, normalize_face, skeleton
# bound here only so the benchmark tracer (perfbench/tracing.py HOOKS) can
# keep counting calls through this name
from .complex_core import connected_components  # noqa: F401
from .errors import InvalidLawError, TooLargeError
from .exact_minimax import (
    MAX_LP_SIZE,
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
        for v in weights:
            normalize_face((v,))  # a vertex label follows a complex's rule
        items = tuple(sorted((v, Fraction(w)) for v, w in weights.items()))
        if any(w < 0 for _, w in items):
            raise InvalidLawError("weights must be nonnegative")
        total = sum((w for _, w in items), ZERO)
        if total != 1:
            raise InvalidLawError(f"weights sum to {total}, expected 1")
        return cls(items)

    @cached_property
    def _by_vertex(self) -> dict[int, Rat]:
        return dict(self.weights)

    def weight(self, vertex: int) -> Rat:
        return self._by_vertex.get(vertex, ZERO)


def _maximal_pieces(f: int, masks: Iterable[int]) -> list[int]:
    """The maximal pieces ``m & f`` of the masks on the nonempty face ``f``, largest first.

    When ``f`` lies in a mask, ``[f]``. The reduction raises the
    TooLargeError of ``solve_minimax`` as soon as its kept pieces pass
    the cap of ``MAX_LP_SIZE`` forms × bits of ``f``, which bounds its
    scan by the cap times the number of pieces.
    """
    pieces = {m & f for m in masks}
    # f ⊆ m exactly when m & f == f, which then is the only maximal piece
    if f in pieces:
        return [f]
    most = MAX_LP_SIZE // f.bit_count()
    # largest first, so a piece is maximal unless a kept one contains it;
    # pieces are distinct, so only a strictly larger one can. The empty
    # piece, if any, lies in the first kept one.
    kept: list[int] = []
    for p in sorted(pieces, key=int.bit_count, reverse=True):
        for q in kept:
            if p & q == p:
                break
        else:
            kept.append(p)
            if len(kept) > most:
                raise TooLargeError(f"exact LP capped at {MAX_LP_SIZE} forms × ground positions, "
                                    f"got at least {len(kept)} × {f.bit_count()}")
    return kept


def _pieces_distance(f: int, pieces: list[int]) -> Rat:
    """Distance from the nonempty face ``f`` to a complex whose maximal pieces on it are ``pieces``.

    ``pieces`` are the distinct maximal ``m & f``, with ``f`` first when
    it is one of them: the face then lies in a mask, and the distance is
    0 with no LP. Otherwise the forms are the pieces with each bit of
    ``f`` replaced by its position among the bits of ``f``, in sorted
    order: the LP of the labeled restriction, relabeled by ground
    position. A bit of ``f`` in no piece lies in no form, so the LP's
    value is 0 and the distance is 1, the face rule of the module
    docstring. Only labeled distances call this; the class face tables
    solve their positional LPs in one batch (``_kernels.key_distances``).
    """
    if pieces and pieces[0] == f:
        return ZERO
    bits = [1 << i for i in range(f.bit_length()) if f >> i & 1]
    forms = sorted([tuple([j for j, b in enumerate(bits) if p & b]) for p in pieces])
    return ONE - solve_minimax(MinimaxProblem(tuple(range(len(bits))), tuple(forms))).value


def _mask_distance(f: int, masks: Iterable[int]) -> Rat:
    """Distance from the nonempty face ``f`` to the complex on ``masks``, all as bitmasks."""
    return _pieces_distance(f, _maximal_pieces(f, masks))


@lru_cache(maxsize=65536)
def _face_distance_cached(face: Face, k: Complex) -> Rat:
    try:
        f = sum(map(k._bits.__getitem__, face))
    except KeyError:  # a vertex outside k
        return ONE
    return _mask_distance(f, k._masks)


def face_distance(face: Iterable[int], k: Complex) -> Rat:
    """Distance from the simplex on ``face`` to the realization of ``k``.

    1 when ``face`` is not contained in the vertex set of ``k``; 0 when
    ``face`` is itself a face of ``k``. The underlying optimization runs
    over the closed weight simplex; laws supported on proper subsets of
    ``face`` are honest candidates, not limits.
    """
    return _face_distance_cached(normalize_face(face), k)


def _max_face_distance(sides: Iterable[tuple[Iterable[int], tuple[int, ...]]]) -> Rat:
    """The largest distance from a face to its target over ``(faces, masks)`` sides.

    Every face is a nonempty bitmask whose bits all lie in the target
    masks. Each face is reduced to its maximal pieces P first, side by
    side in the given order, so a TooLargeError is raised before any LP;
    a face inside a mask is at 0 and dropped. The others are visited in
    decreasing order of the bound ``1 - 1/min(|P|, |F|)`` of
    ``directed_distance``, and the first bound that is not above the best
    distance so far ends the scan: no later face can raise it.
    """
    bounded = []
    for faces, masks in sides:
        for f in faces:
            pieces = _maximal_pieces(f, masks)
            if pieces[0] != f:
                bounded.append((min(len(pieces), f.bit_count()), f, pieces))
    bounded.sort(key=itemgetter(0), reverse=True)
    best = ZERO
    for size, f, pieces in bounded:
        if ONE - Fraction(1, size) <= best:
            break
        best = max(best, _pieces_distance(f, pieces))
    return best


def _face_masks(k1: Complex, k2: Complex) -> list[int]:
    """The maximal faces of ``k1`` as bitmasks over ``k2._bits``; every vertex of ``k1`` is one of ``k2``."""
    bits = k2._bits
    return [sum(map(bits.__getitem__, face)) for face in k1.maximal_faces]


def directed_distance(k1: Complex, k2: Complex) -> Rat:
    """sup over faces of ``k1`` of their distance to ``k2``.

    Scanning only maximal faces suffices: face distance is monotone
    under face inclusion because the forms of a subface are exactly the
    restrictions of the forms of the face.

    The sup is 1 exactly when a vertex of ``k1`` is not a vertex of
    ``k2``. Such a vertex is a face at distance 1. Otherwise let F be a
    face of ``k1`` and P its maximal pieces ``m ∩ F``, which cover F. So
    some c ≤ min(|P|, |F|) forms cover F: all of P, or one form per
    vertex. Under any law x on F those c form sums add up to at least
    ``sum(x) = 1``, so the largest is at least 1/c. Hence D(F) ≥
    1/min(|P|, |F|) > 0, and every face distance is below 1 and at most
    ``1 - 1/min(|P|, |F|)``. The max is taken by branch and bound on
    that bound (``_max_face_distance``): a face's LP is solved only while
    its bound is above the largest distance found so far. The value is
    the same exact max, and every LP that runs is certified as before.
    """
    if not k1.vertex_set <= k2.vertex_set:
        return ONE
    return _max_face_distance([(_face_masks(k1, k2), k2._masks)])


def distance(k1: Complex, k2: Complex) -> Rat:
    """Symmetric Hausdorff distance: max of the two directed distances.

    Returns 1 whenever the vertex sets differ, 0 exactly for equal face
    families. Both directions share one branch-and-bound max
    (``directed_distance``), so a face of either side is skipped once its
    bound is not above the larger distance found so far.
    """
    if k1.maximal_faces == k2.maximal_faces:
        return ZERO
    if k1.vertex_set != k2.vertex_set:
        return ONE
    return _max_face_distance([(_face_masks(k1, k2), k2._masks), (_face_masks(k2, k1), k1._masks)])


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
    The bound never exceeds ``distance(k1, k2)``. It expands the skeleta
    of orders 1, 2, ... until they differ, so it raises TooLargeError
    where ``skeleton`` refuses one: the 25-simplex against its boundary
    is refused at order 6, while ``distance`` returns 1/25 at once.
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
