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

The value depends only on how the forms fall on the positions of the
ground set, not on the vertex labels, so ``solve_minimax`` memoizes the
LP on the problem relabeled by ground position: ``(len(ground), forms
with each vertex replaced by its index)``, in a bounded ``lru_cache``.
The memo is exact, not approximate: relabeling by position gives the
caller's own tableau (the same columns, rows and Bland pivots), so the
cached packing, cover, denominator and value are the ones a fresh solve
would return. The answer is that certificate with the caller's ground
set attached, and the witness point is derived from it on demand.
Every returned solution, cached or not, is checked by
``verify_certificate`` against the caller's problem. The key is not a
canonical form under all permutations, so a copy relabeled out of
vertex order is usually a different key.

The tests compare the values, with no tolerance, against an independent
brute-force enumeration of basic points. Rational values use
``fractions.Fraction`` (arbitrary precision, always in lowest terms) and
serialize as ``"p/q"``.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .complex_core import Face, _maximal, normalize_face
from .errors import EmptyInputError, ParseError

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def format_rational(q: Rat) -> str:
    """Serialize with an explicit denominator: ``0/1``, ``1/1``, ``2/3``."""
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Rat:
    """Parse ``p/q``, an integer or a decimal; raises ParseError otherwise.

    Exponent notation is refused: ``Fraction("1e999999999")`` would build
    an integer with a billion digits.
    """
    if "e" in text.lower():
        raise ParseError(f"exponent notation is not accepted, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


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
        return cls(ground, _maximal(forms))


@dataclass(frozen=True)
class MinimaxSolution:
    """Minimax value with its packing/cover certificate.

    The certificate is integral over ``denominator``: the packing gives
    ``z_s = packing[i] / denominator`` for ``s = ground_set[i]`` and the
    cover gives ``w_G = cover[j] / denominator`` for ``G = face_forms[j]``
    of the solved problem. For a positive value both are optimal and
    ``value == 1/sum(z) == 1/sum(w)``. For value 0 the packing program is
    unbounded; ``packing`` is then a ray (every form sum is 0) and
    ``cover`` is all zeros. Every field is a number or a tuple, so a
    solution is hashable and shares nothing mutable.
    """

    value: Rat
    ground_set: tuple[int, ...]
    packing: tuple[int, ...]
    cover: tuple[int, ...]
    denominator: int

    @property
    def witness(self) -> dict[int, Rat]:
        """An optimal minimax point: the packing scaled to total weight one, a fresh dict."""
        total = sum(self.packing)
        return {v: Fraction(z, total) for v, z in zip(self.ground_set, self.packing)}


# ---------------------------------------------------------------------------
# one-phase fraction-free simplex on the packing program, Bland's rule


def _solve_packing(k: int, forms: tuple[Face, ...]) -> MinimaxSolution:
    """Optimal packing on ground ``0..k-1`` when every position lies in some form."""
    m = len(forms)
    width = k + m  # z per vertex, slack per form; column ``width`` is the rhs
    rows = []
    for j, g in enumerate(forms):
        row = [0] * (width + 1)
        for i in g:
            row[i] = 1
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

    packing = [0] * k
    for i, b in enumerate(basis):
        if b < k:
            packing[b] = rows[i][width]
    return MinimaxSolution(Fraction(d, objective[width]), tuple(range(k)), tuple(packing),
                           tuple(objective[k:width]), d)


def verify_certificate(problem: MinimaxProblem, solution: MinimaxSolution) -> bool:
    """Check the packing/cover certificate of ``solution`` in integer arithmetic.

    For a positive value: z >= 0 with every form sum at most 1, w >= 0
    with every vertex covered at least once, and sum(z) == sum(w) ==
    1/value. For value 0: z >= 0 is a nonzero ray with every form sum 0
    and the cover is zero. In both cases the solution must carry the
    problem's own ground set, so ``z_s`` is read at the right vertex.

    One pass over the forms sums the packing and accumulates the cover
    together, and stops at the first form sum over its bound (``d``, or
    0 for a ray). Malformed input, such as an empty ground set, a
    repeated ground vertex or a form vertex outside the ground set, gives
    False; the check never raises.
    """
    ground, forms = problem.ground_set, problem.face_forms
    z, w, d = solution.packing, solution.cover, solution.denominator
    if (solution.ground_set != ground or not z or len(z) != len(ground)
            or len(w) != len(forms) or d <= 0 or min(z) < 0 or (w and min(w) < 0)):
        return False
    total = sum(z)
    value = solution.value
    if total <= 0 or (value == 0 and any(w)):
        return False
    limit = d if value else 0
    index = dict(zip(ground, range(len(ground))))
    if len(index) != len(ground):
        return False
    covered = [0] * len(ground)
    try:
        for g, x in zip(forms, w):
            s = 0
            for v in g:
                i = index[v]
                s += z[i]
                covered[i] += x
            if s > limit:
                return False
    except KeyError:
        return False
    return value == 0 or (min(covered) >= d and sum(w) == total
                          and value.numerator * total == value.denominator * d)


@lru_cache(maxsize=65536)
def _solve_positional(k: int, forms: tuple[Face, ...]) -> MinimaxSolution:
    """Solution of the problem on ground ``0..k-1``: the memo behind ``solve_minimax``."""
    covered = set().union(*forms)
    uncovered = next((i for i in range(k) if i not in covered), None)
    if uncovered is None:
        return _solve_packing(k, forms)
    packing = tuple(int(i == uncovered) for i in range(k))
    return MinimaxSolution(ZERO, tuple(range(k)), packing, (0,) * len(forms), 1)


def solve_minimax(problem: MinimaxProblem) -> MinimaxSolution:
    """Exact minimax value with its certificate, on the problem's own ground set.

    The value is 0 when some ground vertex lies in no form, an empty form
    family included: all weight on that vertex meets no form. Raises
    EmptyInputError, as ``MinimaxProblem.of`` does, when the ground set is
    empty or repeats a vertex or a form vertex lies outside it, and
    ``ArithmeticError`` if the certificate fails ``verify_certificate``,
    also when the solution comes from the memo.
    """
    ground, forms = problem.ground_set, problem.face_forms
    index = dict(zip(ground, range(len(ground))))
    if not index or len(index) != len(ground):
        raise EmptyInputError(f"ground set must be nonempty and repeat no vertex, "
                              f"got {reprlib.repr(ground)}")
    position = index.__getitem__
    try:
        key = tuple(tuple(map(position, g)) for g in forms)
    except KeyError as exc:
        raise EmptyInputError(f"form vertex {reprlib.repr(exc.args[0])} is not in the "
                              f"ground set") from None
    cached = _solve_positional(len(ground), key)
    solution = MinimaxSolution(cached.value, ground, cached.packing, cached.cover,
                               cached.denominator)
    if not verify_certificate(problem, solution):
        raise ArithmeticError(f"minimax certificate failed to verify for {problem}")
    return solution
