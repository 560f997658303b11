"""Exact minimax solver vs the independent basic-point oracle."""

import dataclasses
import random
from fractions import Fraction
from itertools import combinations, islice, permutations

import pytest
from hypothesis import given, settings

from simhaus import (
    EmptyInputError,
    MinimaxProblem,
    ParseError,
    TooLargeError,
    format_rational,
    parse_rational,
    solve_minimax,
    verify_certificate,
)
import simhaus.exact_minimax as exact_minimax
from conftest import (covering_antichain, covering_antichain_strategy, minimax_strategy,
                      random_minimax_problem)
from oracles import (degree_ordered_packing, full_tableau_packing, harmonic_combine,
                     oracle_minimax)


def P(ground, forms):
    return MinimaxProblem.of(ground, forms)


class TestSolve:
    def test_form_outside_the_ground_set(self):
        with pytest.raises(EmptyInputError, match="not a subset"):
            P((1, 2), [(1, 3)])

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

    @pytest.mark.parametrize("ground,forms", [
        ((1, 2, 3), [(1, 2), (3,)]),
        ((0, 1, 2, 3, 4), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        ((1, 2, 3), [(1, 2)]),
    ])
    def test_foreign_ground_set_fails(self, ground, forms):
        # the certificate entries stay right; only the labels they sit on change
        p = P(ground, forms)
        sol = solve_minimax(p)
        for other in (ground[1:] + ground[:1], ground[::-1], tuple(v + 10 for v in ground),
                      tuple(range(len(ground)))):
            if other != ground:
                assert not verify_certificate(p, dataclasses.replace(sol, ground_set=other)), other

    def test_solution_is_hashable(self):
        p = P((1, 2, 3), [(1, 2), (1, 3), (2, 3)])
        sol = solve_minimax(p)
        assert hash(sol) == hash(solve_minimax(p))
        assert {sol, solve_minimax(p)} == {sol}

    def test_solve_raises_on_failed_certificate(self, monkeypatch):
        monkeypatch.setattr(exact_minimax, "verify_certificate", lambda problem, solution: False)
        with pytest.raises(ArithmeticError):
            solve_minimax(P((1, 2, 3), [(1, 2), (1, 3), (2, 3)]))


def solve_uncached(k, forms):
    """``_solve_positional`` run afresh, past its memo."""
    return exact_minimax._solve_positional.__wrapped__(k, tuple(forms))


def relabeled(p, rng):
    """``p`` under a random order-preserving relabeling to fresh labels."""
    labels = sorted(rng.sample(range(100), len(p.ground_set)))
    relabel = dict(zip(p.ground_set, labels))
    return MinimaxProblem.of(labels, [[relabel[v] for v in f] for f in p.face_forms])


class TestMemo:
    def test_relabeled_hit_matches_fresh_solve(self):
        rng = random.Random(11)
        for _ in range(80):
            p = random_minimax_problem(rng, max_ground=6, max_forms=6)
            solve_minimax(p)
            q = relabeled(p, rng)
            hits = exact_minimax._solve_positional.cache_info().hits
            sol = solve_minimax(q)
            assert exact_minimax._solve_positional.cache_info().hits == hits + 1
            assert verify_certificate(q, sol)
            assert set(sol.witness) == set(q.ground_set)
            index = {v: i for i, v in enumerate(q.ground_set)}
            positional = tuple(tuple(index[v] for v in g) for g in q.face_forms)
            fresh = solve_uncached(len(q.ground_set), positional)
            # value and certificate, on q's labels
            assert sol == dataclasses.replace(fresh, ground_set=q.ground_set)

    def test_check_runs_on_a_hit(self, monkeypatch):
        p = P((1, 2, 3, 4), [(1, 2), (2, 3), (3, 4), (1, 4)])
        solve_minimax(p)
        monkeypatch.setattr(exact_minimax, "verify_certificate", lambda problem, solution: False)
        hits = exact_minimax._solve_positional.cache_info().hits
        with pytest.raises(ArithmeticError):
            solve_minimax(relabeled(p, random.Random(12)))
        assert exact_minimax._solve_positional.cache_info().hits == hits + 1

    @pytest.mark.parametrize("ground", [(0, 1, 2), (5, 6, 7)])
    def test_mutated_witness_does_not_leak(self, ground):
        a, b, c = ground
        p = P(ground, [(a, b), (a, c), (b, c)])
        sol = solve_minimax(p)
        expected = dict(sol.witness)
        sol.witness[a] = Fraction(7)
        sol.witness.clear()
        again = solve_minimax(p)
        assert again.witness == expected
        assert verify_certificate(p, again)

    def test_memo_is_bounded(self):
        maxsize = exact_minimax._solve_positional.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0


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


def condensed_packing(k, forms):
    sol = exact_minimax._solve_packing(k, tuple(forms))
    return sol.value, sol.packing, sol.cover, sol.denominator


class TestCondensedTableau:
    """The condensed tableau pivots as the full one does, so the certificate is bit-identical."""

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(2, 10) for r in range(1, n + 1)]
                             + [(12, 3), (14, 2)])
    def test_every_r_subset(self, n, r):
        # the n-simplex against its r-subsets (every pair of 6 vertices
        # among them): ratio tests tie, and Bland's rule breaks the ties
        forms = list(combinations(range(n), r))
        assert condensed_packing(n, forms) == full_tableau_packing(n, forms)

    @pytest.mark.parametrize("n,forms", [
        (6, ((0, 1, 2, 4), (0, 2, 3), (0, 3, 4), (1, 2, 3), (1, 3, 4, 5), (2, 3, 5))),
        (7, ((0, 1, 2, 5), (0, 1, 3, 4, 5), (0, 2, 3), (1, 2, 3, 6), (2, 4))),
    ])
    def test_entering_variable_is_chosen_by_label(self, n, forms):
        # here a slack with a negative reduced cost comes to sit left of a
        # lower-labeled variable with one too (slack 8, or z_0); Bland takes
        # the lower label, and the leftmost column would change the pivots
        assert condensed_packing(n, forms) == full_tableau_packing(n, forms)

    def test_seeded_covering_families(self):
        rng = random.Random(16)
        for _ in range(300):
            n = rng.randint(2, 14)
            sets = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 30))]
            forms = covering_antichain(n, sets)
            assert condensed_packing(n, forms) == full_tableau_packing(n, forms)

    @staticmethod
    def seeded_families(n, sizes, count):
        # four families of count distinct sets of the given sizes on 0..n-1
        rng = random.Random(29)
        pool = [s for r in sizes for s in combinations(range(n), r)]
        return [covering_antichain(n, rng.sample(pool, count)) for _ in range(4)]

    @pytest.mark.parametrize("n,sizes,count", [(10, (3,), 26), (11, (3,), 36), (12, (4,), 36)])
    def test_labeled_benchmark_shapes(self, n, sizes, count):
        # the heavy LPs of the labeled benchmark. Most pivots equal the last
        # one (p == d), so they take the sparse update: over the four
        # families, 65 of 85 pivots for triangles on 10 positions, 73 of 98
        # on 11, and 48 of 72 for 4-sets on 12; the rest take the dense one
        for forms in self.seeded_families(n, sizes, count):
            assert condensed_packing(n, forms) == full_tableau_packing(n, forms)

    @pytest.mark.parametrize("n,count", [(14, 30), (15, 36), (16, 40)])
    def test_growing_denominator(self, n, count):
        # 4- and 5-sets: the denominator grows to 83, 360 and 495, and most
        # pivots differ from the last one (p != d), so they take the dense
        # update and rescale: 71 of 117, 91 of 127 and 118 of 167 pivots
        for forms in self.seeded_families(n, (4, 5), count):
            assert condensed_packing(n, forms) == full_tableau_packing(n, forms)

    @given(covering_antichain_strategy())
    @settings(max_examples=150, deadline=None)
    def test_random_covering_antichains(self, case):
        n, forms = case
        assert condensed_packing(n, forms) == full_tableau_packing(n, forms)


def ordered_packing(k, forms):
    sol = solve_uncached(k, forms)
    return sol.value, sol.packing, sol.cover, sol.denominator


class TestDegreeOrder:
    """A simplex that misses the memo runs in degree order, and its certificate is read back."""

    def test_hand_worked_order(self):
        # the path 2-0-1-3: the leaves 2 and 3 have degree 1 and become
        # positions 0 and 1, and the forms {0, 2} and {1, 3}, of degree sum
        # 3, come before {0, 1}, of 4. The simplex packs the leaves; in
        # label order it packs 1 and 2. The cover is read back to the
        # caller's form order
        forms = ((0, 1), (0, 2), (1, 3))
        assert ordered_packing(4, forms) == (Fraction(1, 2), (0, 0, 1, 1), (0, 1, 1), 1)
        assert ordered_packing(4, forms) == degree_ordered_packing(4, forms)
        assert condensed_packing(4, forms) == (Fraction(1, 2), (0, 1, 1, 0), (0, 1, 1), 1)

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(2, 10) for r in range(1, n + 1)]
                             + [(12, 3), (14, 2)])
    def test_every_r_subset(self, n, r):
        # every position has the same degree and every form the same
        # degree sum, so the order is decided by its tie rules alone
        forms = list(combinations(range(n), r))
        assert ordered_packing(n, forms) == degree_ordered_packing(n, forms)

    @pytest.mark.parametrize("n,sizes,count", [(10, (3,), 26), (11, (3,), 36), (12, (4,), 36),
                                               (14, (4, 5), 30), (16, (4, 5), 40)])
    def test_labeled_benchmark_shapes(self, n, sizes, count):
        for forms in TestCondensedTableau.seeded_families(n, sizes, count):
            assert ordered_packing(n, forms) == degree_ordered_packing(n, forms)

    def test_seeded_covering_families(self):
        rng = random.Random(36)
        differs = 0
        for _ in range(300):
            n = rng.randint(2, 14)
            sets = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 30))]
            forms = covering_antichain(n, sets)
            ordered, label = ordered_packing(n, forms), condensed_packing(n, forms)
            assert ordered == degree_ordered_packing(n, forms)
            assert ordered[0] == label[0]
            differs += ordered != label
        # the order changes the certificate of 17 of them, so the comparison
        # above is not the label-order one in disguise
        assert differs == 17

    @given(covering_antichain_strategy(max_ground=6, max_forms=10))
    @settings(max_examples=150, deadline=None)
    def test_value_is_the_label_order_value(self, case):
        n, forms = case
        problem = MinimaxProblem(tuple(range(n)), forms)
        sol = solve_uncached(n, forms)
        assert verify_certificate(problem, sol)
        assert sol.value == oracle_minimax(problem) == exact_minimax._solve_packing(n, forms).value


class TestSizeCap:
    # the first 500 3-subsets of 16 vertices cover them all: 500 × 16 = 8000
    FORMS = tuple(islice(combinations(range(16), 3), 501))

    def test_at_the_cap(self):
        assert 500 * 16 == exact_minimax.MAX_LP_SIZE
        p = MinimaxProblem(tuple(range(16)), self.FORMS[:500])
        sol = solve_minimax(p)
        assert sol.value == Fraction(3, 16)
        assert verify_certificate(p, sol)

    def test_over_the_cap_refused_before_the_tableau(self, monkeypatch):
        monkeypatch.setattr(exact_minimax, "_solve_packing", None)
        with pytest.raises(TooLargeError, match="501 × 16"):
            solve_minimax(MinimaxProblem(tuple(range(16)), self.FORMS))

    def test_no_simplex_no_cap(self):
        # an uncovered vertex makes the value 0 without a tableau
        p = MinimaxProblem(tuple(range(17)), self.FORMS)
        assert solve_minimax(p).value == 0


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
        assert parse_rational("0.25") == Fraction(1, 4)
        assert parse_rational(".5") == parse_rational("1/2") == Fraction(1, 2)
        assert parse_rational("1.") == 1
        assert parse_rational("-3/4") == Fraction(-3, 4)

    @pytest.mark.parametrize("text", ["1e3", "2E-1", "1e999999999", "x", "1/0", "",
                                      "1_0/2_0", "\u0661/\u0662", "0.2_5", "1/\uff14",
                                      "+1/2", "+1", "\xa01/2", "1/2 ", " 1", " 0.25 ", ".",
                                      "1/", "/2", "1.5/2", "1/-2", "--1"])
    def test_parsing_rejects(self, text):
        with pytest.raises(ParseError):
            parse_rational(text)
