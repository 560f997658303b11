"""Combinatorial core: closure, skeleta, intersection, components, subdivision."""

import random
import time
from itertools import chain, combinations
from math import factorial

import pytest
from hypothesis import given, settings

import simhaus.complex_core as complex_core
from simhaus import (
    Complex,
    EmptyInputError,
    EmptyIntersectionError,
    NotInjectiveError,
    TooLargeError,
    UndefinedVertexError,
    apply_vertex_map,
    barycentric_subdivision,
    complex_from_faces,
    complex_from_json,
    complex_from_lines,
    complex_to_json,
    complex_to_lines,
    connected_components,
    distance,
    intersect,
    skeleton,
    subdivision_encoding,
)
from simhaus.complex_core import _maximal
from conftest import complex_strategy, random_complex


def C(*faces):
    return complex_from_faces(faces)


class TestClosure:
    def test_single_simplex(self):
        k = C((1, 2, 3))
        assert k.maximal_faces == frozenset({(1, 2, 3)})
        assert len(k.faces) == 7

    def test_duplicates_and_subsets_absorbed(self):
        k = C((1, 2), (2,), (2, 1))
        assert k.maximal_faces == frozenset({(1, 2)})

    def test_antichain_preserved(self):
        k = C((1, 2), (3, 4))
        assert k.maximal_faces == frozenset({(1, 2), (3, 4)})
        assert k.vertices == (1, 2, 3, 4)

    def test_two_points(self):
        assert C((1,), (2,)).faces == frozenset({(1,), (2,)})

    def test_two_edges(self):
        assert C((1, 2), (2, 3)).faces == frozenset(
            {(1,), (2,), (3,), (1, 2), (2, 3)})

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyInputError):
            complex_from_faces([])
        with pytest.raises(EmptyInputError):
            complex_from_faces([()])
        with pytest.raises(EmptyInputError):
            complex_from_faces([(1, -2)])

    def test_maximal_matches_brute_force(self):
        # mixed sizes, with repeated, nested and empty sets
        rng = random.Random(31)
        for _ in range(400):
            family = [frozenset(rng.sample(range(7), rng.randint(0, 5)))
                      for _ in range(rng.randint(0, 12))]
            expected = sorted(tuple(sorted(p)) for p in set(family)
                              if p and not any(p < q for q in family))
            assert _maximal(family) == tuple(expected)

    def test_many_faces_of_one_size(self):
        # no edge can contain another, so reducing 60000 edges compares none
        rng = random.Random(32)
        edges = set()
        while len(edges) < 60000:
            edges.add(tuple(sorted(rng.sample(range(1000), 2))))
        start = time.perf_counter()
        k = complex_from_faces(edges)
        assert time.perf_counter() - start < 5
        assert k.maximal_faces == frozenset(edges)

    def test_constructor_reduces_to_maximal_faces(self):
        k = Complex(frozenset({(1, 2), (1,)}))
        assert k == C((1, 2))
        assert k.maximal_faces == frozenset({(1, 2)})
        assert distance(k, C((1, 2))) == 0

    def test_constructor_sorts_faces(self):
        k = Complex(frozenset({(2, 1)}))
        assert k.maximal_faces == frozenset({(1, 2)})
        assert k.contains_face((1, 2)) and (1, 2) in k.faces

    def test_constructor_takes_any_iterables(self):
        assert Complex([[1, 2]]) == Complex(iter([{2, 1}, (1,)])) == C((1, 2))

    @pytest.mark.parametrize("faces", [frozenset(), [], [()], [(1, -2)], [(1, True)], [(1.0,)]])
    def test_constructor_rejects_bad_input(self, faces):
        # an empty Complex used to reach canonical_form and fail inside numpy
        with pytest.raises(EmptyInputError):
            Complex(faces)

    @given(complex_strategy())
    def test_closure_downward_closed(self, k):
        faces = k.faces
        for f in faces:
            for r in range(1, len(f)):
                for sub in combinations(f, r):
                    assert sub in faces
        for m in k.maximal_faces:
            assert m in faces


class TestSkeleton:
    def test_hollow_triangle(self):
        assert skeleton(C((1, 2, 3)), 1) == C((1, 2), (1, 3), (2, 3))

    def test_vertices_only(self):
        assert skeleton(C((1, 2)), 0) == C((1,), (2,))

    def test_identity_when_low_dimension(self):
        k = C((1, 2), (2, 3, 4))
        assert skeleton(k, 5) == k

    @given(complex_strategy())
    @settings(max_examples=50)
    def test_composition_law(self, k):
        for m in range(3):
            for n in range(3):
                assert skeleton(skeleton(k, m), n) == skeleton(k, min(m, n))

    @given(complex_strategy())
    def test_idempotent(self, k):
        s = skeleton(k, 1)
        assert skeleton(s, 1) == s

    def test_cap_boundary(self, monkeypatch):
        # a cap of 10 allows 10 faces and 90 vertex entries
        monkeypatch.setattr(complex_core, "MAX_SUBDIVISION_CHAINS", 10)
        assert len(skeleton(C(tuple(range(5))), 1).maximal_faces) == 10
        with pytest.raises(TooLargeError):
            skeleton(C(tuple(range(6))), 1)  # 15 edges
        wide = [tuple(range(10 * i, 10 * i + 10)) for i in range(9)]
        assert skeleton(C(*wide), 9) == C(*wide)  # 9 faces, 90 entries
        with pytest.raises(TooLargeError):
            skeleton(C(*wide, (90, 91)), 9)  # 92 entries

    @pytest.mark.parametrize("n,k", [(853, 1), (21, 9), (20000, 19998), (300000, 150000)])
    def test_over_the_cap_fails_at_once(self, n, k):
        # C(853, 2) and C(21, 10) exceed 9! faces; the 20000-vertex face
        # gives 20000 faces but 4e8 entries; C(300000, 150000) alone is
        # a 90000-digit number
        simplex = C(tuple(range(n)))
        start = time.perf_counter()
        with pytest.raises(TooLargeError):
            skeleton(simplex, k)
        assert time.perf_counter() - start < 0.5


class TestIntersect:
    def test_subcomplex(self):
        a = C((1, 2, 3))
        b = C((1, 2), (3,))
        assert intersect(a, b) == b

    def test_disjoint_raises(self):
        with pytest.raises(EmptyIntersectionError):
            intersect(C((1,)), C((2,)))

    def test_shared_faces_only(self):
        a = C((1, 2), (2, 3))
        b = C((1, 3), (2,))
        assert intersect(a, b) == C((1,), (2,), (3,))

    @given(complex_strategy(), complex_strategy())
    @settings(max_examples=60)
    def test_commutative_and_matches_face_sets(self, a, b):
        common = a.faces & b.faces
        if not common:
            with pytest.raises(EmptyIntersectionError):
                intersect(a, b)
            return
        ab = intersect(a, b)
        assert ab.faces == common
        assert ab == intersect(b, a)

    @given(complex_strategy())
    def test_idempotent(self, a):
        assert intersect(a, a) == a

    @given(complex_strategy(), complex_strategy(), complex_strategy())
    @settings(max_examples=40)
    def test_associative(self, a, b, c):
        try:
            left = intersect(intersect(a, b), c)
        except EmptyIntersectionError:
            left = None
        try:
            right = intersect(a, intersect(b, c))
        except EmptyIntersectionError:
            right = None
        assert left == right


class TestComponents:
    def test_two_edges(self):
        comps = connected_components(C((1, 2), (3, 4)))
        assert [c.maximal_faces for c in comps] == [
            frozenset({(1, 2)}), frozenset({(3, 4)})]

    def test_chain_is_connected(self):
        assert len(connected_components(C((1, 2), (2, 3)))) == 1

    def test_three_points(self):
        assert len(connected_components(C((1,), (2,), (3,)))) == 3

    @given(complex_strategy())
    @settings(max_examples=60)
    def test_partition_and_reassembly(self, k):
        comps = connected_components(k)
        vertex_sets = [c.vertex_set for c in comps]
        for i, vs in enumerate(vertex_sets):
            for other in vertex_sets[i + 1:]:
                assert not (vs & other)
        assert frozenset(chain.from_iterable(vertex_sets)) == k.vertex_set
        reassembled = frozenset(chain.from_iterable(c.faces for c in comps))
        assert reassembled == k.faces


def count_chains(k):
    """Independent oracle: count nonempty chains of the face poset directly."""
    faces = sorted(k.faces, key=len)
    total = 0
    memo = {}

    def chains_from(i):
        # chains whose smallest element is faces[i]
        if i in memo:
            return memo[i]
        below = set(faces[i])
        n = 1
        for j, g in enumerate(faces):
            if len(g) > len(below) and below < set(g):
                n += chains_from(j)
        memo[i] = n
        return n

    for i in range(len(faces)):
        total += chains_from(i)
    return total


class TestSubdivision:
    def test_edge_becomes_path(self):
        sd = barycentric_subdivision(C((1, 2)))
        assert len(sd.vertices) == 3
        assert sorted(len(f) for f in sd.maximal_faces) == [2, 2]

    def test_vertex_fixed(self):
        sd = barycentric_subdivision(C((1,)))
        assert sd.maximal_faces == frozenset({(0,)})

    def test_triangle_counts(self):
        sd = barycentric_subdivision(C((1, 2, 3)))
        faces = sd.faces
        assert len([f for f in faces if len(f) == 1]) == 7
        assert len([f for f in faces if len(f) == 2]) == 12
        assert len([f for f in faces if len(f) == 3]) == 6

    def test_encoding_is_deterministic(self):
        k = C((1, 2), (2, 3))
        assert barycentric_subdivision(k) == barycentric_subdivision(k)
        enc = subdivision_encoding(k)
        assert sorted(enc.values()) == list(range(len(k.faces)))

    def test_nine_vertex_simplex_at_the_cap(self):
        sd = barycentric_subdivision(C(tuple(range(9))))
        assert len(sd.maximal_faces) == factorial(9)

    @pytest.mark.parametrize("faces", [[tuple(range(10))], [tuple(range(9)), (9, 10)]])
    def test_over_the_chain_cap(self, faces):
        with pytest.raises(TooLargeError):
            barycentric_subdivision(C(*faces))

    @given(complex_strategy(max_vertex=4, max_faces=3))
    @settings(max_examples=40, deadline=None)
    def test_face_count_equals_chain_count(self, k):
        sd = barycentric_subdivision(k)
        assert len(sd.faces) == count_chains(k)


class TestVertexMap:
    def test_identity(self):
        k = C((1, 2), (3,))
        assert apply_vertex_map(k, {1: 1, 2: 2, 3: 3}) == k

    def test_swap_fixes_edge(self):
        k = C((1, 2))
        assert apply_vertex_map(k, {1: 2, 2: 1}) == k

    def test_translation(self):
        assert apply_vertex_map(C((1, 2)), {1: 5, 2: 6}) == C((5, 6))

    def test_errors(self):
        k = C((1, 2))
        with pytest.raises(UndefinedVertexError):
            apply_vertex_map(k, {1: 5})
        with pytest.raises(NotInjectiveError):
            apply_vertex_map(k, {1: 5, 2: 5})
        # each image would make a complex that Complex(...) refuses
        for bad in (-1, True, 1.5, "a"):
            with pytest.raises(EmptyInputError):
                apply_vertex_map(k, {1: 5, 2: bad})

    def test_preserves_face_counts_per_dimension(self):
        rng = random.Random(7)
        for _ in range(50):
            k = random_complex(rng)
            mapping = {v: v * 3 + 11 for v in k.vertices}
            relabeled = apply_vertex_map(k, mapping)
            for d in range(4):
                assert (len([f for f in k.faces if len(f) == d + 1])
                        == len([f for f in relabeled.faces if len(f) == d + 1]))


class TestSerialization:
    def test_json_round_trip(self):
        k = C((1, 2), (2, 3, 4))
        assert complex_from_json(complex_to_json(k)) == k

    def test_lines_round_trip(self):
        k = C((1, 2), (2, 3, 4))
        assert complex_from_lines(complex_to_lines(k)) == k

    def test_lines_comments_and_blanks(self):
        text = "# a comment\n\n1 2\n2 3  # trailing\n"
        assert complex_from_lines(text) == C((1, 2), (2, 3))

    def test_bad_json_reports_position(self):
        from simhaus import ParseError
        with pytest.raises(ParseError) as err:
            complex_from_json('{"maximal_faces": [[1, 2')
        assert err.value.line is not None

    @given(complex_strategy())
    @settings(max_examples=40)
    def test_round_trips_random(self, k):
        assert complex_from_json(complex_to_json(k)) == k
        assert complex_from_lines(complex_to_lines(k)) == k
