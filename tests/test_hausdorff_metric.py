"""Distance functions: face-to-complex, directed, symmetric, laws, bounds."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from simhaus import (
    Law,
    InvalidLawError,
    apply_vertex_map,
    barycentric_subdivision,
    complex_from_faces,
    directed_distance,
    distance,
    face_distance,
    intersect,
    law_distance,
    skeleton,
    skeleton_disagreement_bound,
    subdivision_encoding,
    MinimaxProblem,
    EmptyIntersectionError,
)
from conftest import complex_strategy, random_complex
from oracles import face_distance_by_components, oracle_minimax


def C(*faces):
    return complex_from_faces(faces)


def full_simplex(n):
    return complex_from_faces([tuple(range(1, n + 1))])


def at_most(n, k):
    return complex_from_faces(combinations(range(1, n + 1), k))


class TestFaceDistance:
    def test_triangle_to_hollow(self):
        assert face_distance((1, 2, 3), C((1, 2), (1, 3), (2, 3))) == Fraction(1, 3)

    def test_member_face(self):
        k = C((1, 2), (2, 3, 4))
        for f in k.faces:
            assert face_distance(f, k) == 0

    def test_uncovered_vertex(self):
        assert face_distance((1, 2), C((3,))) == 1

    def test_lower_bound_from_largest_subface(self):
        # the bound holds for the largest face of k inside f (uniform law
        # argument); smaller maximal subfaces give no bound
        rng = random.Random(11)
        for _ in range(100):
            k = random_complex(rng)
            f = tuple(sorted(rng.sample(range(7), rng.randint(1, 5))))
            if k.contains_face(f) or not set(f) <= k.vertex_set:
                continue
            d = face_distance(f, k)
            largest = max(len(g) for g in k.faces if set(g) < set(f))
            assert d >= 1 - Fraction(largest, len(f))
            assert d >= Fraction(1, len(f))

    def test_upper_bound_from_complete_rank(self):
        rng = random.Random(12)
        for _ in range(100):
            n = rng.randint(2, 5)
            r = rng.randint(1, n - 1)
            f = tuple(range(n))
            extra = [rng.sample(range(n), rng.randint(1, n)) for _ in range(2)]
            k = complex_from_faces(list(combinations(range(n), r)) + extra)
            if k.contains_face(f):
                continue
            assert face_distance(f, k) <= 1 - Fraction(r, n)


class TestComponentRoute:
    def test_two_components(self):
        assert face_distance_by_components((1, 2, 3, 4), C((1, 2), (3, 4))) == Fraction(1, 2)

    def test_single_component_matches(self):
        k = C((1, 2), (2, 3))
        f = (1, 2, 3)
        assert face_distance_by_components(f, k) == face_distance(f, k)

    def test_uncovered_face(self):
        assert face_distance_by_components((1, 5), C((1, 2), (3, 4))) == 1

    def test_equivalence_on_random_inputs(self):
        rng = random.Random(13)
        checked = 0
        while checked < 120:
            k = random_complex(rng, max_vertex=6)
            f = tuple(sorted(rng.sample(range(7), rng.randint(1, 5))))
            assert face_distance_by_components(f, k) == face_distance(f, k)
            checked += 1

    def test_joint_value_against_oracle(self):
        k = C((1, 2), (3, 4))
        p = MinimaxProblem.of((1, 2, 3, 4), [(1, 2), (3, 4)])
        assert 1 - oracle_minimax(p) == face_distance_by_components((1, 2, 3, 4), k)


class TestDirectedDistance:
    def test_vertices_into_simplex(self):
        for n in range(1, 7):
            vertices = complex_from_faces([(i,) for i in range(1, n + 1)])
            assert directed_distance(vertices, full_simplex(n)) == 0
            assert directed_distance(full_simplex(n), vertices) == Fraction(n - 1, n)

    def test_equal_complexes(self):
        k = C((1, 2), (2, 3))
        assert directed_distance(k, k) == 0

    def test_maximal_face_reduction_matches_full_scan(self):
        rng = random.Random(14)
        for _ in range(100):
            k1 = random_complex(rng)
            k2 = random_complex(rng)
            full = max(face_distance(f, k2) for f in k1.faces)
            assert directed_distance(k1, k2) == full


class TestDistance:
    def test_simplex_vs_skeleton_family(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                expected = 1 - Fraction(k, n)
                assert distance(full_simplex(n), at_most(n, k)) == expected

    def test_tetrahedra(self):
        solid = full_simplex(4)
        hollow = at_most(4, 3)
        points = at_most(4, 1)
        assert distance(solid, hollow) == Fraction(1, 4)
        assert distance(solid, points) == Fraction(3, 4)

    def test_identity(self):
        k = C((1, 2, 5), (2, 7))
        assert distance(k, k) == 0

    def test_different_vertex_sets(self):
        assert distance(C((1, 2)), C((1, 2), (3,))) == 1

    @given(complex_strategy(), complex_strategy())
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_separating(self, a, b):
        d = distance(a, b)
        assert d == distance(b, a)
        assert (d == 0) == (a == b)
        assert 0 <= d <= 1

    def test_triangle_inequality_random(self):
        rng = random.Random(15)
        for _ in range(100):
            a, b, c = (random_complex(rng, max_vertex=4) for _ in range(3))
            assert distance(a, c) <= distance(a, b) + distance(b, c)

    def test_metric_axioms_on_four_vertex_representatives(self):
        from itertools import combinations as combos

        from simhaus import enumerate_classes

        reps = [c.complex for c in enumerate_classes(4)]
        d = {(i, j): distance(reps[i], reps[j])
             for i in range(len(reps)) for j in range(len(reps))}
        for i in range(len(reps)):
            assert d[i, i] == 0
            for j in range(len(reps)):
                assert d[i, j] == d[j, i]
                if i != j:
                    assert d[i, j] > 0
        for i, j, k in combos(range(len(reps)), 3):
            assert d[i, k] <= d[i, j] + d[j, k]
            assert d[i, j] <= d[i, k] + d[j, k]
            assert d[j, k] <= d[j, i] + d[i, k]

    def test_label_invariance(self):
        rng = random.Random(16)
        for _ in range(100):
            a = random_complex(rng)
            b = random_complex(rng)
            verts = sorted(set(a.vertices) | set(b.vertices))
            shift = rng.randint(1, 50)
            mapping = {v: v * 2 + shift for v in verts}
            a2 = apply_vertex_map(a, {v: mapping[v] for v in a.vertices})
            b2 = apply_vertex_map(b, {v: mapping[v] for v in b.vertices})
            assert distance(a2, b2) == distance(a, b)


class TestContractionAndSkeleta:
    def test_intersection_contracts(self):
        rng = random.Random(17)
        checked = 0
        while checked < 100:
            a = random_complex(rng)
            b = random_complex(rng)
            k = random_complex(rng)
            try:
                ak = intersect(a, k)
                bk = intersect(b, k)
            except EmptyIntersectionError:
                continue
            assert distance(ak, bk) <= distance(a, b)
            checked += 1

    def test_skeleta_are_1_lipschitz(self):
        rng = random.Random(18)
        for _ in range(100):
            a = random_complex(rng)
            b = random_complex(rng)
            d = distance(a, b)
            for n in range(4):
                assert distance(skeleton(a, n), skeleton(b, n)) <= d

    def test_distance_is_max_of_skeletal_distances(self):
        rng = random.Random(19)
        for _ in range(100):
            a = random_complex(rng)
            b = random_complex(rng)
            top = max(a.dimension, b.dimension)
            skeletal = max(distance(skeleton(a, n), skeleton(b, n))
                           for n in range(top + 1))
            assert distance(a, b) == skeletal


class TestSkeletonBound:
    def test_triangles(self):
        hollow = C((1, 2), (1, 3), (2, 3))
        solid = C((1, 2, 3))
        assert skeleton_disagreement_bound(hollow, solid) == Fraction(1, 3)
        assert distance(hollow, solid) == Fraction(1, 3)

    def test_equal_complexes(self):
        k = C((1, 2))
        assert skeleton_disagreement_bound(k, k) is None

    def test_vertex_disagreement(self):
        a, b = C((1,)), C((2,))
        assert skeleton_disagreement_bound(a, b) == 1
        assert distance(a, b) == 1

    def test_bound_below_distance(self):
        rng = random.Random(20)
        for _ in range(100):
            a = random_complex(rng)
            b = random_complex(rng)
            bound = skeleton_disagreement_bound(a, b)
            if bound is not None:
                assert bound <= distance(a, b)


class TestSubdivisionSeparation:
    def test_random_unequal_pairs(self):
        rng = random.Random(21)
        checked = 0
        while checked < 60:
            a = random_complex(rng, max_vertex=4, max_faces=3)
            b = random_complex(rng, max_vertex=4, max_faces=3)
            if a == b:
                continue
            shared = {f: i for i, f in enumerate(sorted(a.faces | b.faces))}
            sda = barycentric_subdivision(a, encoding=shared)
            sdb = barycentric_subdivision(b, encoding=shared)
            assert distance(sda, sdb) == 1
            checked += 1

    def test_equal_pairs_stay_equal(self):
        k = C((1, 2), (2, 3))
        shared = subdivision_encoding(k)
        assert distance(barycentric_subdivision(k, encoding=shared),
                        barycentric_subdivision(k, encoding=shared)) == 0


class TestLawDistance:
    def test_uniform_on_hollow_triangle(self):
        law = Law.of({1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)})
        assert law_distance(law, C((1, 2), (1, 3), (2, 3))) == Fraction(1, 3)

    def test_point_mass_on_member_vertex(self):
        law = Law.of({2: Fraction(1)})
        assert law_distance(law, C((1, 2))) == 0

    def test_support_off_the_complex(self):
        law = Law.of({9: Fraction(1, 2), 10: Fraction(1, 2)})
        assert law_distance(law, C((1, 2))) == 1

    def test_validation(self):
        with pytest.raises(InvalidLawError):
            Law.of({1: Fraction(1, 2)})
        with pytest.raises(InvalidLawError):
            Law.of({1: Fraction(3, 2), 2: Fraction(-1, 2)})

    def test_face_distance_is_max_over_candidate_laws(self):
        rng = random.Random(22)
        checked = 0
        while checked < 60:
            k = random_complex(rng, max_vertex=4)
            f = tuple(sorted(rng.sample(range(5), rng.randint(1, 4))))
            fs = frozenset(f)
            if not fs <= k.vertex_set:
                continue
            pieces = {frozenset(m) & fs for m in k.maximal_faces} - {frozenset()}
            forms = [tuple(sorted(p)) for p in pieces if not any(p < q for q in pieces)]
            problem = MinimaxProblem.of(f, forms)
            n = len(f)
            from simhaus import solve_minimax
            sol = solve_minimax(problem)
            target = face_distance(f, k)
            # the optimal witness law attains the face distance ...
            assert law_distance(Law.of(sol.witness), k) == target
            # ... and no law supported in f beats it
            uniform = Law.of({v: Fraction(1, n) for v in f})
            assert law_distance(uniform, k) <= target
            for _ in range(10):
                cuts = sorted(rng.randint(0, 24) for _ in range(n - 1))
                parts = [b - a for a, b in zip([0] + cuts, cuts + [24])]
                law = Law.of({v: Fraction(p, 24) for v, p in zip(f, parts) if p > 0})
                assert law_distance(law, k) <= target
            checked += 1


class TestRationality:
    def test_all_outputs_reduced_exact(self):
        rng = random.Random(23)
        import math
        for _ in range(60):
            a = random_complex(rng)
            b = random_complex(rng)
            d = distance(a, b)
            assert isinstance(d, Fraction)
            assert d.denominator > 0
            assert math.gcd(d.numerator, d.denominator) == 1
