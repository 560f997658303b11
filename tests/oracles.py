"""Brute-force reference implementations the tests compare the package against.

Each oracle computes its value a second, independent way, at desk scale:
the minimax value by enumerating basic points, face distances by
restricting the labeled vertex sets of the maximal faces and splitting
over connected components, class distances by relabeling one
complex and calling the labeled ``distance`` for every bijection,
canonical forms by a Python scan over explicit relabeling tables, and
the complexes to enumerate by testing every family of vertex subsets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from operator import or_
from typing import Iterable, Sequence

from simhaus import (
    Complex,
    EmptyInputError,
    MinimaxProblem,
    Rat,
    TooLargeError,
    apply_vertex_map,
    connected_components,
    distance,
)
from simhaus.complex_core import Face, _maximal, normalize_face
from simhaus.exact_minimax import solve_minimax

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# minimax value: basic-point enumeration


def _solve_square(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination; None when the system has no unique solution."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * p for v, p in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


ORACLE_MAX_GROUND = 7


def oracle_minimax(problem: MinimaxProblem) -> Rat:
    """Same value as ``solve_minimax`` by brute-force basic-point enumeration.

    Candidate points are cut out by fixing a support T, equalizing |T|
    form values on it, and normalizing the total weight to one; every
    optimum of the epigraph program arises this way. Feasible candidates
    are scored by the full form maximum and the smallest score wins.
    Desk scale only: ground sets above ORACLE_MAX_GROUND raise.
    """
    ground = problem.ground_set
    n = len(ground)
    if n > ORACLE_MAX_GROUND:
        raise TooLargeError(f"oracle handles at most {ORACLE_MAX_GROUND} ground vertices, got {n}")
    forms = problem.face_forms
    if not forms:
        return ZERO

    index = {v: i for i, v in enumerate(ground)}
    form_sets = [frozenset(index[v] for v in g) for g in forms]
    best: Fraction | None = None
    for size in range(1, min(n, len(form_sets)) + 1):
        for support in combinations(range(n), size):
            for active in combinations(form_sets, size):
                matrix = [[ONE] * size]
                rhs = [ONE]
                lead = active[0]
                for other in active[1:]:
                    matrix.append([
                        (ONE if i in lead else ZERO) - (ONE if i in other else ZERO)
                        for i in support
                    ])
                    rhs.append(ZERO)
                point = _solve_square(matrix, rhs)
                if point is None or any(v < 0 for v in point):
                    continue
                weight = dict(zip(support, point))
                score = max(sum((weight.get(i, ZERO) for i in g), ZERO) for g in form_sets)
                if best is None or score < best:
                    best = score
    assert best is not None  # the simplex vertices are always candidates
    return best


# ---------------------------------------------------------------------------
# face distance: the component route


def _restricted_forms(face: frozenset[int], k: Complex) -> tuple[Face, ...]:
    """K restricted to ``face`` as labeled vertex sets: the maximal members of ``{m ∩ face}``."""
    return _maximal(face.intersection(m) for m in k.maximal_faces)


def harmonic_combine(values: Iterable[Rat]) -> Rat:
    """``1 / sum(1/v)``, with any zero member collapsing the result to zero."""
    vals = list(values)
    if not vals:
        raise EmptyInputError("harmonic_combine needs at least one value")
    if any(v == 0 for v in vals):
        return ZERO
    return ONE / sum((ONE / v for v in vals), ZERO)


def face_distance_by_components(face: Iterable[int], k: Complex) -> Rat:
    """Same value as ``face_distance``, via the component decomposition.

    The face is split over the connected components of ``k`` it meets;
    the per-component minimax values merge as a harmonic sum, since the
    fractional cover number is additive over components.
    """
    f = normalize_face(face)
    fs = frozenset(f)
    if not fs <= k.vertex_set:
        return ONE
    parts = []
    for comp in connected_components(k):
        fi = fs & comp.vertex_set
        if not fi:
            continue
        forms = _restricted_forms(fi, comp)
        problem = MinimaxProblem(ground_set=tuple(sorted(fi)), face_forms=forms)
        parts.append(solve_minimax(problem).value)
    return ONE - harmonic_combine(parts)


# ---------------------------------------------------------------------------
# isomorphism classes: one relabeling at a time


def brute_class_distance(a: Complex, b: Complex) -> Rat:
    """Minimum of ``distance`` over every relabeling of ``a`` onto ``b``'s vertices."""
    if len(a.vertices) != len(b.vertices):
        return ONE
    return min(distance(apply_vertex_map(a, dict(zip(a.vertices, target))), b)
               for target in permutations(b.vertices))


def _perm_mask_table(n: int, perm: Sequence[int]) -> list[int]:
    table = [0] * (1 << n)
    for mask in range(1 << n):
        img = 0
        for v in range(n):
            if mask >> v & 1:
                img |= 1 << perm[v]
        table[mask] = img
    return table


def _canonical_masks(masks: Sequence[int], perm_tables: Sequence[Sequence[int]],
                     rank: Sequence[int]) -> tuple[int, ...]:
    """Minimal relabeled face list, compared through lexicographic face ranks."""
    best_key: tuple[int, ...] | None = None
    best: tuple[int, ...] | None = None
    for table in perm_tables:
        imgs = sorted(table[m] for m in masks)
        key = tuple(sorted(rank[m] for m in imgs))
        if best_key is None or key < best_key:
            best_key = key
            best = tuple(sorted(imgs, key=lambda m: rank[m]))
    assert best is not None
    return best


def brute_canonical_form(k: Complex) -> tuple[Face, ...]:
    """Encoding of the least relabeled face list, scanning all n! relabelings in Python."""
    n = len(k.vertices)
    compress = {v: i for i, v in enumerate(k.vertices)}
    masks = [sum(1 << compress[v] for v in m) for m in k.maximal_faces]
    decode = [tuple(v for v in range(n) if mask >> v & 1) for mask in range(1 << n)]
    rank = [0] * (1 << n)
    for i, m in enumerate(sorted(range(1, 1 << n), key=lambda m: decode[m])):
        rank[m] = i
    perm_tables = [_perm_mask_table(n, p) for p in permutations(range(n))]
    best = _canonical_masks(masks, perm_tables, rank)
    return tuple(sorted(decode[m] for m in best))


def covering_antichains(n: int) -> list[tuple[int, ...]]:
    """Every antichain of nonempty subsets of {0..n-1} (as bitmasks) whose union is everything.

    Tries all ``2**(2**n - 1)`` families of masks; desk scale, n <= 4.
    """
    masks = range(1, 1 << n)
    full = (1 << n) - 1
    return [family
            for r in range(1, len(masks) + 1)
            for family in combinations(masks, r)
            if reduce(or_, family) == full
            and all(a & b not in (a, b) for a, b in combinations(family, 2))]
