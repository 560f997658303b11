"""The one-pass certificate check: each condition rejects a certificate the others accept."""

import dataclasses
from fractions import Fraction

import pytest

from simhaus import (EmptyInputError, MinimaxProblem, MinimaxSolution, solve_minimax,
                     verify_certificate)


def P(ground, forms):
    return MinimaxProblem.of(ground, forms)


def test_ray_checks():
    # value 0: each change breaks exactly one condition of the ray
    p = P((1, 2, 3), [(1, 2)])
    sol = solve_minimax(p)
    assert (sol.value, sol.packing, sol.cover) == (0, (0, 0, 1), (0,))
    assert verify_certificate(p, sol)
    for bad in (dataclasses.replace(sol, packing=(1, 0, 1)),  # a form sum is not 0
                dataclasses.replace(sol, cover=(1,)),  # the cover is not 0
                dataclasses.replace(sol, packing=(0, 0, 0)),  # no ray at all
                dataclasses.replace(sol, packing=(-1, 1, 1)),  # a negative entry
                dataclasses.replace(sol, denominator=0)):
        assert not verify_certificate(p, bad), bad


def test_negative_cover_entry_fails():
    # the cover (2, 2, -1, -1) covers every vertex once and sums to 2, like
    # the true cover (1, 1, 0, 0); only its sign is wrong
    p = MinimaxProblem((1, 2, 3, 4), ((1, 2), (3, 4), (1, 3), (2, 4)))
    good = MinimaxSolution(Fraction(1, 2), p.ground_set, (1, 0, 0, 1), (1, 1, 0, 0), 1)
    assert verify_certificate(p, good)
    assert not verify_certificate(p, dataclasses.replace(good, cover=(2, 2, -1, -1)))


def test_wrong_lengths_fail():
    # a trailing zero changes no sum, so only the length check sees it
    p = P((1, 2, 3), [(1, 2), (1, 3), (2, 3)])
    sol = solve_minimax(p)
    assert verify_certificate(p, sol)
    assert not verify_certificate(p, dataclasses.replace(sol, packing=sol.packing + (0,)))
    assert not verify_certificate(p, dataclasses.replace(sol, cover=sol.cover + (0,)))


@pytest.mark.parametrize("problem,solution", [
    (MinimaxProblem((), ()), MinimaxSolution(Fraction(0), (), (), (), 1)),
    (MinimaxProblem((), ()), MinimaxSolution(Fraction(1), (), (), (), 1)),
    (MinimaxProblem((1, 2), ((1, 3),)), MinimaxSolution(Fraction(1), (1, 2), (1, 0), (1,), 1)),
    (MinimaxProblem((1, 2), ((1, 3),)), MinimaxSolution(Fraction(0), (1, 2), (0, 1), (0,), 1)),
    # the form sum is read at the second copy of vertex 1, so this looks like a ray
    (MinimaxProblem((1, 1), ((1,),)), MinimaxSolution(Fraction(0), (1, 1), (1, 0), (0,), 1)),
])
def test_malformed_input_is_false(problem, solution):
    # an empty ground set, a form vertex outside the ground set, or a
    # repeated ground vertex
    assert verify_certificate(problem, solution) is False


@pytest.mark.parametrize("problem", [
    MinimaxProblem((), ()),  # an empty ground set
    MinimaxProblem((1, 2), ((1, 3),)),  # a form vertex outside the ground set
    MinimaxProblem((1, 1), ((1,),)),  # a repeated ground vertex; the true value is 1
])
def test_malformed_raw_problem_raises(problem):
    with pytest.raises(EmptyInputError):
        solve_minimax(problem)
