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
slack basis is feasible from the start, and Bland's rule chooses the
pivots (Bland 1977). Pivoting is fraction-free (Bareiss 1968): the
tableau holds integers over one common denominator, the previous pivot,
and every division in an update is exact. The final tableau gives both
an optimal packing and, in the reduced costs of the slacks, an optimal
cover; ``verify_certificate`` checks the pair in integer arithmetic,
and every solve runs that check.

The tableau is condensed (Tucker): one row per form plus the objective
row, and one column per *nonbasic* variable plus the rhs, each row and
column labeled with its variable (``s`` for ``z_s``, ``k + j`` for the
slack of form j, on a ground of k positions). A pivot swaps the labels
of its row and column. In the full tableau, with one column per
variable, a basic column is d times a unit vector and has reduced cost
0, so dropping those columns loses nothing: the condensed entries are
the full tableau's entries in the nonbasic columns, pivot for pivot.
The leaving variable's column updates from ``d * e_r`` to ``-f`` off the
pivot row (f the row's entry in the pivot column) and to d on it, and
every other entry updates by the full tableau's Bareiss rule. Bland's
rule reads labels, not positions: the entering variable is the lowest
label with a negative reduced cost, and ties in the ratio test leave on
the lowest basic label. So the pivots, and with them the packing, the
cover (a basic slack's reduced cost is 0), the denominator and the
value, are the full tableau's, bit for bit, on a row of ground + 1
entries instead of ground + forms + 1.

The update is sparse when the pivot p equals the previous pivot d,
as it does in most pivots of these LPs. Bareiss makes ``a * d - f * b``
divisible by d (a an entry, b the pivot row's entry in its column), so
``f * b`` is too, and the new entry ``(a * d - f * b) / d`` is
``a - f * b / d``, exactly. A row with f = 0 is then left as it is, and
a row with f ≠ 0 changes only at the pivot row's nonzero columns. For
p ≠ d every row is rewritten and rescaled. Either way the tableau after
each pivot is the one the dense update gives, entry for entry, and so
are Bland's pivots and the certificate. ``solve_minimax`` refuses, with
TooLargeError, a simplex on more than ``MAX_LP_SIZE`` forms × ground
positions.

The value depends only on how the forms fall on the positions of the
ground set, not on the vertex labels, so ``solve_minimax`` memoizes the
LP on the problem relabeled by ground position: ``(len(ground), forms
with each vertex replaced by its index)``, in a bounded ``lru_cache``.
The memo is exact, not approximate: relabeling by position gives the
caller's own problem, so the cached packing, cover, denominator and
value are the ones a fresh solve would return. The answer is that
certificate with the caller's ground set attached, and the witness
point is derived from it on demand. Every returned solution, cached or
not, is checked by ``verify_certificate`` against the caller's problem.
The key is not a canonical form under all permutations, so a copy
relabeled out of vertex order is usually a different key.

A fresh solve runs the simplex in degree order. Bland's rule
terminates for any order of the variables that stays fixed during the
run (Bland 1977): were it to cycle, the last variable in that order to
enter and leave within the cycle gives a contradiction, and the proof
uses nothing else about the order. So the order is free, and it
decides how many pivots the run takes, most of them degenerate. The
positions go in ascending order of degree, the number of forms that
hold them, ties in ground order. The forms, and with them their
slacks, go in ascending order of degree sum, ties by their relabeled
position tuples (and a repeated form by the caller's order). The
packing and the cover are read back in the caller's order before they
are cached, so the memo key is the caller's positional problem, as
above. Least-covered positions first cuts the pivots: the 156 LPs of
26-36 forms in the labeled benchmark's seeds 0-5 take 2237 instead of
3294, and 245 random 4-sets on 32 positions, at the size cap, 749-1069
instead of 3364-6855. The value does not depend on the order; which
optimal packing and cover come out can, on an LP with several optima.
``_solve_packing`` itself pivots in the order of the forms it is
given, so it stays equal, bit for bit, to the full tableau and to
``_kernels.packings``.

The class face tables run ``_solve_packing``'s pivots on all their LPs
at once, in int64 (``_kernels.packings``), and check each certificate
there; ``solve_minimax`` serves labeled distances. The batch keeps
label order: it pivots until its slowest LP is done, and the degree
order cuts the total pivots but not the slowest LP's. Over the 272 LPs
of the 5-vertex tables it takes 899 pivots instead of 1186, with 7 for
the slowest either way; over the 20,492 LPs of all 16143 six-vertex
classes 98,359 instead of 136,691, but 16 for the slowest instead of 12.

The tests compare the values, with no tolerance, against an independent
brute-force enumeration of basic points. Rational values use
``fractions.Fraction`` (arbitrary precision, always in lowest terms) and
serialize as ``"p/q"``.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .complex_core import Face, _maximal, normalize_face
from .errors import EmptyInputError, ParseError, TooLargeError

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# Largest forms × ground positions the simplex runs on. On a shared 2-core
# VM, 30 seeded random covering families of 2- to 8-sets on 12-40 vertices,
# each with as many forms as the cap allows, took 0.02-3.3 s each (the
# slowest: 235 forms of 5 vertices on 34), and the first 500 3-subsets of
# 16 vertices took 0.06 s. Above the cap the cost grows quickly: 600 random
# 4-subsets of 18 vertices (10800) took 0.6 s (41 s on a full tableau),
# 1000 of 20 vertices (20000) 2.6 s. The largest LP of the tests is 220
# forms on 12 vertices, of the labeled benchmark 36 on 12, and of the class
# face tables 70 on 8.
MAX_LP_SIZE = 8000


def format_rational(q: Rat) -> str:
    """Serialize with an explicit denominator: ``0/1``, ``1/1``, ``2/3``."""
    return f"{q.numerator}/{q.denominator}"


_RATIONAL = re.compile(r"-?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)")


def parse_rational(text: str) -> Rat:
    """Parse ``p/q``, an integer or a decimal; raises ParseError otherwise.

    The text is an optional ``-`` and then ASCII digits with an optional
    ``/`` and digits or ``.`` and digits, or ``.`` and digits: ``1``,
    ``1/4``, ``0.25``, ``1.``, ``.5``. That is the integer rule of every
    input (``complex_core.integer``) plus a denominator or a fraction
    part. Fraction alone would also take a leading ``+``, surrounding
    blanks, ``_`` separators, non-ASCII digits and exponents, and
    ``Fraction("1e999999999")`` would build an integer with a billion
    digits.
    """
    if not _RATIONAL.fullmatch(text):
        raise ParseError(f"expected p/q, an integer or a decimal in ASCII digits, with no '+', "
                         f"blanks, separators or exponent, got {reprlib.repr(text)}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
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
    # condensed tableau (module docstring): row i holds basic variable
    # basis[i], column j nonbasic variable nonbasic[j], and column k the
    # rhs. Variable s < k is z_s, variable k + j the slack of form j.
    m = len(forms)
    rows = []
    for g in forms:
        row = [0] * (k + 1)
        for i in g:
            row[i] = 1
        row[k] = 1
        rows.append(row)
    objective = [-1] * k + [0]
    rows.append(objective)  # eliminated like the others, never a pivot row
    basis = list(range(k, k + m))
    nonbasic = list(range(k))
    # the true tableau is rows / d; d is the last pivot, so it stays positive
    d = 1
    while True:
        # Bland: the entering variable is the lowest label with a negative
        # reduced cost, as in the full tableau, where basic columns hold 0
        c = -1
        for j in range(k):
            if objective[j] < 0 and (c < 0 or nonbasic[j] < nonbasic[c]):
                c = j
        if c < 0:
            break
        # ratio test by cross-multiplication; ties leave on the lowest basic
        # label. Every vertex lies in a form, so the feasible region is
        # bounded and the entering column has a positive entry.
        r = -1
        for i in range(m):
            row = rows[i]
            a = row[c]
            if a > 0:
                if r < 0:
                    r = i
                    continue
                lhs = row[k] * rows[r][c]
                rhs = rows[r][k] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r = i
        prow = rows[r]
        p = prow[c]
        # row <- (row * p - row[c] * prow) // d, exact by Bareiss; the pivot
        # row stays. Column c now holds the leaving variable, whose full
        # column d * e_r updates to -row[c] off the pivot row and to d on it.
        if p == d:
            # a * d - f * b is divisible by d, so f * b is too, and the update
            # is a - f * b // d: a row with f == 0 stays as it is, and a row
            # with f != 0 changes only where the pivot row is nonzero
            pivot = [(j, b) for j, b in enumerate(prow) if b and j != c]
            for i, row in enumerate(rows):
                f = row[c]
                if f and i != r:
                    for j, b in pivot:
                        row[j] -= f * b // d
                    row[c] = -f
        else:
            for i, row in enumerate(rows):
                if i != r:
                    f = row[c]
                    if f:
                        row[:] = [(a * p - f * b) // d for a, b in zip(row, prow)]
                        row[c] = -f
                    else:
                        row[:] = [a * p // d for a in row]
        prow[c] = d
        basis[r], nonbasic[c] = nonbasic[c], basis[r]
        d = p

    packing = [0] * k
    for i, b in enumerate(basis):
        if b < k:
            packing[b] = rows[i][k]
    # a basic slack has reduced cost 0
    cover = [0] * m
    for j, b in enumerate(nonbasic):
        if b >= k:
            cover[b - k] = objective[j]
    return MinimaxSolution(Fraction(d, objective[k]), tuple(range(k)), tuple(packing),
                           tuple(cover), d)


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
    """Solution of the problem on ground ``0..k-1``: the memo behind ``solve_minimax``.

    A simplex runs on the problem in degree order (module docstring):
    the caller's position ``order[i]`` becomes position i, and its form
    ``rows[j]`` becomes form j. The packing and the cover are read back
    in the caller's order, so the solution, cached with the caller's
    key, is one of the caller's own problem. An uncovered position gives
    value 0 with no simplex, and an LP over ``MAX_LP_SIZE`` is refused
    before it is reordered.
    """
    degree = [0] * k
    for g in forms:
        for i in g:
            degree[i] += 1
    uncovered = next((i for i in range(k) if not degree[i]), None)
    if uncovered is None:
        if len(forms) * k > MAX_LP_SIZE:
            raise TooLargeError(f"exact LP capped at {MAX_LP_SIZE} forms × ground positions, "
                                f"got {len(forms)} × {k}")
        deg = degree.__getitem__
        order = sorted(range(k), key=deg)
        rank = [0] * k
        for i, s in enumerate(order):
            rank[s] = i
        at = rank.__getitem__
        # (degree sum, relabeled form, caller's row); the row orders only
        # repeated forms, which a problem built without ``of`` may have
        keyed = sorted([(sum(map(deg, g)), tuple(sorted(map(at, g))), j)
                        for j, g in enumerate(forms)])
        rows = [j for _, _, j in keyed]
        sol = _solve_packing(k, tuple(g for _, g, _ in keyed))
        packing = [0] * k
        for i, z in zip(order, sol.packing):
            packing[i] = z
        cover = [0] * len(forms)
        for j, w in zip(rows, sol.cover):
            cover[j] = w
        return MinimaxSolution(sol.value, tuple(range(k)), tuple(packing), tuple(cover),
                               sol.denominator)
    packing = tuple(int(i == uncovered) for i in range(k))
    return MinimaxSolution(ZERO, tuple(range(k)), packing, (0,) * len(forms), 1)


def solve_minimax(problem: MinimaxProblem) -> MinimaxSolution:
    """Exact minimax value with its certificate, on the problem's own ground set.

    The value is 0 when some ground vertex lies in no form, an empty form
    family included: all weight on that vertex meets no form. Raises
    EmptyInputError, as ``MinimaxProblem.of`` does, when the ground set is
    empty or repeats a vertex or a form vertex lies outside it,
    TooLargeError, before the tableau is built, when the simplex would
    run on more than ``MAX_LP_SIZE`` forms × ground vertices, and
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
