"""Exact minimax solver vs the independent basic-point oracle."""

import dataclasses
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings

from simhaus import (
    MinimaxProblem,
    TooLargeError,
    format_rational,
    parse_rational,
    solve_minimax,
    verify_certificate,
)
import simhaus.exact_minimax as exact_minimax
from conftest import minimax_strategy, random_minimax_problem
from oracles import harmonic_combine, oracle_minimax


def P(ground, forms):
    return MinimaxProblem.of(ground, forms)


class TestSolve:
    def test_hollow_triangle_forms(self):
        sol = solve_minimax(P((1, 2, 3), [(1, 2), (1, 3), (2, 3)]))
        assert sol.value == Fraction(2, 3)
        assert sol.witness == {1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)}

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 7) for r in range(1, n + 1)]
                             + [(16, 2), (12, 3), (9, 4)])
    def test_all_r_subsets(self, n, r):
        forms = list(combinations(range(n), r))
        sol = solve_minimax(P(range(n), forms))
        assert sol.value == Fraction(r, n)

    def test_split_forms(self):
        assert solve_minimax(P((1, 2, 3), [(1, 2), (3,)])).value == Fraction(1, 2)

    def test_empty_forms(self):
        sol = solve_minimax(MinimaxProblem((1, 2), ()))
        assert sol.value == 0
        assert sum(sol.witness.values()) == 1

    def test_uncovered_vertex(self):
        p = P((1, 2, 3), [(1, 2)])
        sol = solve_minimax(p)
        assert sol.value == 0
        assert sol.witness == {1: 0, 2: 0, 3: 1}
        assert verify_certificate(p, sol)

    def test_whole_ground_form(self):
        assert solve_minimax(P((4, 7, 9), [(4, 7, 9)])).value == 1

    @given(minimax_strategy())
    @settings(max_examples=80, deadline=None)
    def test_witness_is_feasible_and_attains_value(self, problem):
        sol = solve_minimax(problem)
        assert verify_certificate(problem, sol)
        assert all(w >= 0 for w in sol.witness.values())
        assert sum(sol.witness.values()) == 1
        if problem.face_forms:
            attained = max(sum(sol.witness[v] for v in g) for g in problem.face_forms)
            assert attained == sol.value
        assert 0 <= sol.value <= 1


class TestCertificate:
    @pytest.mark.parametrize("ground,forms", [
        ((1, 2, 3), [(1, 2), (1, 3), (2, 3)]),
        ((0, 1, 2, 3, 4), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        ((1, 2, 3), [(1, 2), (3,)]),
    ])
    def test_changed_entry_fails(self, ground, forms):
        p = P(ground, forms)
        sol = solve_minimax(p)
        assert verify_certificate(p, sol)
        for field in ("packing", "cover"):
            entries = getattr(sol, field)
            for i in range(len(entries)):
                for delta in (-1, 1):
                    changed = entries[:i] + (entries[i] + delta,) + entries[i + 1:]
                    bad = dataclasses.replace(sol, **{field: changed})
                    if field == "packing" and sum(changed) > 0:
                        # keep the witness consistent so only the LP checks can reject
                        witness = {v: Fraction(z, sum(changed)) for v, z in zip(p.ground_set, changed)}
                        bad = dataclasses.replace(bad, witness=witness)
                    assert not verify_certificate(p, bad), (field, i, delta)

    def test_scaled_certificate_fails(self):
        # each change keeps the witness, sum(z) == sum(w) and value == d/sum(z)
        # consistent, so exactly one LP condition rejects it
        p = P((0, 1, 2, 3, 4), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        sol = solve_minimax(p)
        total = sum(sol.packing)
        d = sol.denominator
        overpacked = dataclasses.replace(
            sol, packing=tuple(2 * z for z in sol.packing), cover=tuple(2 * w for w in sol.cover),
            value=Fraction(d, 2 * total))
        assert not verify_certificate(p, overpacked)  # a form sum exceeds d
        undercovered = dataclasses.replace(sol, denominator=2 * d, value=Fraction(2 * d, total))
        assert not verify_certificate(p, undercovered)  # a vertex is covered below d
        assert not verify_certificate(p, dataclasses.replace(sol, value=2 * sol.value))

    def test_solve_raises_on_failed_certificate(self, monkeypatch):
        monkeypatch.setattr(exact_minimax, "verify_certificate", lambda problem, solution: False)
        with pytest.raises(ArithmeticError):
            solve_minimax(P((1, 2, 3), [(1, 2), (1, 3), (2, 3)]))


class TestOracleAgreement:
    def test_named_instances(self):
        for ground, forms in [
            ((1, 2, 3), [(1, 2), (1, 3), (2, 3)]),
            ((1, 2, 3, 4), [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
            ((1, 2, 3), [(1, 2), (3,)]),
        ]:
            p = P(ground, forms)
            assert solve_minimax(p).value == oracle_minimax(p)

    def test_oracle_conventions(self):
        assert oracle_minimax(MinimaxProblem((1, 2), ())) == 0
        assert oracle_minimax(P((1, 2), [(1, 2)])) == 1

    def test_oracle_rejects_large_ground(self):
        with pytest.raises(TooLargeError):
            oracle_minimax(MinimaxProblem(tuple(range(8)), ((0, 1),)))

    @given(minimax_strategy())
    @settings(max_examples=120, deadline=None)
    def test_random_agreement(self, problem):
        sol = solve_minimax(problem)
        assert verify_certificate(problem, sol)
        assert sol.value == oracle_minimax(problem)

    def test_seeded_agreement(self):
        rng = random.Random(2024)
        for _ in range(60):
            p = random_minimax_problem(rng)
            sol = solve_minimax(p)
            assert verify_certificate(p, sol)
            assert sol.value == oracle_minimax(p)


class TestStructuralProperties:
    def test_adding_form_never_decreases(self):
        rng = random.Random(5)
        for _ in range(40):
            p = random_minimax_problem(rng, max_ground=5, max_forms=4)
            base = solve_minimax(p).value
            extra = tuple(sorted(rng.sample(p.ground_set, rng.randint(1, len(p.ground_set)))))
            grown = MinimaxProblem.of(p.ground_set, p.face_forms + (extra,))
            assert solve_minimax(grown).value >= base

    def test_nonmaximal_forms_do_not_matter(self):
        rng = random.Random(6)
        for _ in range(40):
            p = random_minimax_problem(rng, max_ground=5, max_forms=4)
            doubled = list(p.face_forms)
            for f in p.face_forms:
                if len(f) > 1:
                    doubled.append(f[:-1])
            q = MinimaxProblem.of(p.ground_set, doubled)
            assert q.face_forms == p.face_forms
            assert solve_minimax(q).value == solve_minimax(p).value

    def test_value_one_iff_ground_form(self):
        rng = random.Random(7)
        for _ in range(60):
            p = random_minimax_problem(rng, max_ground=5, max_forms=4)
            value = solve_minimax(p).value
            has_full = any(set(f) == set(p.ground_set) for f in p.face_forms)
            if has_full:
                assert value == 1
            else:
                assert value == oracle_minimax(p) < 1

    def test_relabeling_invariance(self):
        rng = random.Random(8)
        for _ in range(30):
            p = random_minimax_problem(rng, max_ground=5, max_forms=4)
            perm = list(p.ground_set)
            rng.shuffle(perm)
            relabel = dict(zip(p.ground_set, perm))
            q = MinimaxProblem.of(
                [relabel[v] for v in p.ground_set],
                [tuple(relabel[v] for v in f) for f in p.face_forms],
            )
            assert solve_minimax(q).value == solve_minimax(p).value


class TestHarmonic:
    def test_two_full_components(self):
        assert harmonic_combine([Fraction(1), Fraction(1)]) == Fraction(1, 2)

    def test_single_value(self):
        assert harmonic_combine([Fraction(2, 3)]) == Fraction(2, 3)

    def test_zero_dominates(self):
        assert harmonic_combine([Fraction(2, 3), Fraction(1, 2), Fraction(0)]) == 0

    def test_symmetric_and_halving(self):
        vals = [Fraction(1, 3), Fraction(2, 5), Fraction(1)]
        for perm in permutations(vals):
            assert harmonic_combine(perm) == harmonic_combine(vals)
        v = Fraction(3, 7)
        assert harmonic_combine([v, v]) == v / 2


class TestSerialization:
    def test_formatting(self):
        assert format_rational(Fraction(0)) == "0/1"
        assert format_rational(Fraction(1)) == "1/1"
        assert format_rational(Fraction(2, 4)) == "1/2"

    def test_parsing(self):
        assert parse_rational("3/6") == Fraction(1, 2)
        assert parse_rational("7") == 7
        assert parse_rational(format_rational(Fraction(22, 7))) == Fraction(22, 7)
