"""Exact minimization of the maximum of face-sum forms over the probability simplex.

Given a finite ground set F and a family of candidate faces G ⊆ F, the
minimax value is

    D = min { max_G sum(x_s for s in G) : x >= 0, sum(x) = 1 }

computed exactly over the rationals. By LP duality D = 1/ν*, where ν* is
the optimum of the packing program

    max sum(z)  subject to  sum(z_s, s in G) <= 1 for every form G, z >= 0,

and ν* equals the fractional cover number ρ* = min { sum(w) : w >= 0,
sum(w_G, G ∋ s) >= 1 for every s } (Lovász 1975). An optimal packing
scaled to total weight one is an optimal minimax point. A vertex in no
form makes the packing program unbounded, and then D = 0.

``solve_minimax`` runs a one-phase simplex on the packing program: the
slack basis is feasible from the start, the tableau has one row per
form, and Bland's rule chooses the pivots. Pivoting is fraction-free
(Bareiss 1968): the tableau holds integers over one common denominator,
the previous pivot, and every division in an update is exact. The final
tableau gives both an optimal packing and, in the reduced costs of the
slacks, an optimal cover; ``verify_certificate`` checks the pair in
integer arithmetic, and every solve runs that check.

``oracle_minimax`` enumerates all basic points cut out by active
equalities chosen among {x_s = 0}, {form == form} and {sum(x) = 1}, kept
as a desk-scale cross-check. Both return identical exact values;
``tests`` assert this on random instances with no tolerance. Rational
values use ``fractions.Fraction`` (arbitrary precision, always in lowest
terms) and serialize as ``"p/q"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

from .complex_core import Face, normalize_face
from .errors import EmptyInputError, TooLargeError

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def format_rational(q: Rat) -> str:
    """Serialize with an explicit denominator: ``0/1``, ``1/1``, ``2/3``."""
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Rat:
    """Parse ``p/q`` or a bare integer."""
    return Fraction(text.strip())


@dataclass(frozen=True)
class MinimaxProblem:
    """Ground set plus the antichain of faces whose weight sums are maximized."""

    ground_set: tuple[int, ...]
    face_forms: tuple[Face, ...]

    @classmethod
    def of(cls, ground_set: Iterable[int], face_forms: Iterable[Iterable[int]]) -> "MinimaxProblem":
        ground = normalize_face(ground_set)
        gset = set(ground)
        forms = {normalize_face(f) for f in face_forms}
        for f in forms:
            if not set(f) <= gset:
                raise EmptyInputError(f"form {f} is not a subset of the ground set")
        # drop non-maximal forms; they never change the value
        maximal = tuple(sorted(f for f in forms if not any(set(f) < set(g) for g in forms)))
        return cls(ground, maximal)


@dataclass(frozen=True)
class MinimaxSolution:
    """Minimax value and optimal point, with a packing/cover certificate.

    The certificate is integral over ``denominator``: the packing gives
    ``z_s = packing[i] / denominator`` for ``s = ground_set[i]`` and the
    cover gives ``w_G = cover[j] / denominator`` for ``G = face_forms[j]``
    of the solved problem. For a positive value both are optimal and
    ``value == 1/sum(z) == 1/sum(w)``. For value 0 the packing program is
    unbounded; ``packing`` is then a ray (every form sum is 0) and
    ``cover`` is all zeros. ``witness`` is the packing scaled to total
    weight one.
    """

    value: Rat
    witness: Mapping[int, Rat]
    packing: tuple[int, ...]
    cover: tuple[int, ...]
    denominator: int


# ---------------------------------------------------------------------------
# one-phase fraction-free simplex on the packing program, Bland's rule


def _solve_packing(ground: tuple[int, ...], forms: tuple[Face, ...]) -> MinimaxSolution:
    """Optimal packing when every ground vertex lies in some form."""
    k, m = len(ground), len(forms)
    width = k + m  # z per vertex, slack per form; column ``width`` is the rhs
    index = {v: i for i, v in enumerate(ground)}
    rows = []
    for j, g in enumerate(forms):
        row = [0] * (width + 1)
        for v in g:
            row[index[v]] = 1
        row[k + j] = 1
        row[width] = 1
        rows.append(row)
    objective = [-1] * k + [0] * (m + 1)
    rows.append(objective)  # eliminated like the others, never a pivot row
    basis = list(range(k, width))
    # the true tableau is rows / d; d is the last pivot, so it stays positive
    d = 1
    while True:
        c = next((j for j in range(width) if objective[j] < 0), None)
        if c is None:
            break
        # ratio test by cross-multiplication; ties leave on the lowest basic
        # index. Every vertex lies in a form, so the feasible region is
        # bounded and the entering column has a positive entry.
        r = -1
        for i in range(m):
            row = rows[i]
            a = row[c]
            if a > 0:
                if r < 0:
                    r = i
                    continue
                lhs = row[width] * rows[r][c]
                rhs = rows[r][width] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r = i
        prow = rows[r]
        p = prow[c]
        # row <- (row * p - row[c] * prow) // d, exact by Bareiss; the pivot
        # row stays
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                row[:] = [(a * p - f * b) // d for a, b in zip(row, prow)]
        basis[r] = c
        d = p

    total = objective[width]
    packing = [0] * k
    for i, b in enumerate(basis):
        if b < k:
            packing[b] = rows[i][width]
    witness = {v: Fraction(z, total) for v, z in zip(ground, packing)}
    return MinimaxSolution(Fraction(d, total), witness, tuple(packing),
                           tuple(objective[k:width]), d)


def verify_certificate(problem: MinimaxProblem, solution: MinimaxSolution) -> bool:
    """Check the packing/cover certificate of ``solution`` in integer arithmetic.

    For a positive value: z >= 0 with every form sum at most 1, w >= 0
    with every vertex covered at least once, and sum(z) == sum(w) ==
    1/value. For value 0: z >= 0 is a nonzero ray with every form sum 0
    and the cover is zero. In both cases the witness must be z scaled to
    total weight one.
    """
    ground, forms = problem.ground_set, problem.face_forms
    z, w, d = solution.packing, solution.cover, solution.denominator
    if len(z) != len(ground) or len(w) != len(forms) or d <= 0:
        return False
    if any(x < 0 for x in z) or any(x < 0 for x in w):
        return False
    total = sum(z)
    witness = solution.witness
    if total <= 0 or len(witness) != len(ground):
        return False
    for v, x in zip(ground, z):
        q = witness.get(v)
        if q is None or q.numerator * total != x * q.denominator:
            return False
    index = {v: i for i, v in enumerate(ground)}
    form_sums = [sum(z[index[v]] for v in g) for g in forms]
    value = solution.value
    if value == 0:
        return not any(form_sums) and not any(w)
    covered = [0] * len(ground)
    for g, x in zip(forms, w):
        for v in g:
            covered[index[v]] += x
    return (all(s <= d for s in form_sums) and all(c >= d for c in covered)
            and sum(w) == total and value.numerator * total == value.denominator * d)


def solve_minimax(problem: MinimaxProblem) -> MinimaxSolution:
    """Exact minimax value with an optimal witness point and its certificate.

    The value is 0 when some ground vertex lies in no form, an empty form
    family included: all weight on that vertex meets no form. Raises
    ``ArithmeticError`` if the certificate fails ``verify_certificate``.
    """
    ground, forms = problem.ground_set, problem.face_forms
    covered = set().union(*forms)
    uncovered = next((v for v in ground if v not in covered), None)
    if uncovered is None:
        solution = _solve_packing(ground, forms)
    else:
        packing = tuple(int(v == uncovered) for v in ground)
        witness = {v: Fraction(z) for v, z in zip(ground, packing)}
        solution = MinimaxSolution(ZERO, witness, packing, (0,) * len(forms), 1)
    if not verify_certificate(problem, solution):
        raise ArithmeticError(f"minimax certificate failed to verify for {problem}")
    return solution


# ---------------------------------------------------------------------------
# independent oracle: basic-point enumeration


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


def harmonic_combine(values: Iterable[Rat]) -> Rat:
    """``1 / sum(1/v)``, with any zero member collapsing the result to zero."""
    vals = list(values)
    if not vals:
        raise EmptyInputError("harmonic_combine needs at least one value")
    if any(v == 0 for v in vals):
        return ZERO
    return ONE / sum((ONE / v for v in vals), ZERO)
