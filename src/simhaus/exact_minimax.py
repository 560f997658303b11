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

The tests compare the values, with no tolerance, against an independent
brute-force enumeration of basic points. Rational values use
``fractions.Fraction`` (arbitrary precision, always in lowest terms) and
serialize as ``"p/q"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .complex_core import Face, normalize_face
from .errors import EmptyInputError

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
