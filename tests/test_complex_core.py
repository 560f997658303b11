"""Combinatorial core: closure, skeleta, intersection, components, subdivision."""

import hashlib
import random
import time
import tracemalloc
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
        families = [[frozenset(rng.sample(range(7), rng.randint(0, 5)))
                     for _ in range(rng.randint(0, 12))] for _ in range(400)]
        # sizes interleaved on at most 8 vertices, each family with a nested
        # chain from the empty set up, and some of its sets repeated
        for _ in range(400):
            n = rng.randint(1, 8)
            order = rng.sample(range(n), n)
            family = [frozenset(order[:k]) for k in range(rng.randint(1, n + 1))]
            family += [frozenset(rng.sample(range(n), rng.randint(0, n)))
                       for _ in range(rng.randint(0, 12))]
            family += rng.choices(family, k=rng.randint(0, 4))
            rng.shuffle(family)
            families.append(family)
        families += [[frozenset()], [frozenset(), frozenset()]]
        # 64 or more kept larger sets, on labels packed or spread thin, so
        # vertex bitsets are kept, dropped and bypassed by the list scan
        for labels in (10, 40, 400, 4000):
            for _ in range(3):
                big = [frozenset(rng.sample(range(labels), rng.randint(3, 7)))
                       for _ in range(rng.randint(64, 250))]
                family = big + [frozenset(rng.sample(sorted(q), rng.randint(1, len(q))))
                                for q in rng.sample(big, 40)]
                family += [frozenset(rng.sample(range(labels), rng.randint(1, 4)))
                           for _ in range(40)]
                families.append(family)
        # vertices 20-29 first turn up after 70 larger sets, too late for a
        # bitset, and get one rebuilt once their own sets are indexed
        late = [frozenset(rng.sample(range(20), 8)) for _ in range(70)]
        late += [frozenset(rng.sample(range(20, 30), 5)) for _ in range(100)]
        late += [frozenset(rng.sample(range(20, 30), rng.randint(1, 4))) for _ in range(100)]
        families.append(late + [q | {0} for q in late[-30:]])
        for family in families:
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

    def test_many_faces_of_two_sizes(self):
        # a set is only compared with the kept triangles through its rarest
        # vertex; comparing it with every kept triangle took 8 s here
        rng = random.Random(33)
        family = ([rng.sample(range(10 ** 6), 3) for _ in range(10000)]
                  + [rng.sample(range(10 ** 6), 2) for _ in range(10000)])
        start = time.perf_counter()
        k = complex_from_faces(family)
        assert time.perf_counter() - start < 1
        assert len(k.maximal_faces) == 20000

    @pytest.mark.parametrize("sizes", [(2, 60000, 1, 1), (3, 10 ** 5, 2, 1)])
    def test_index_stays_linear_on_spread_labels(self, sizes):
        # many large sets on labels up to 10^6 and one smaller set: a bitset
        # per vertex over every kept set took 465 MiB on the edges here and
        # 1.7 GiB on the triangles, against a traced peak of 39 and 74 MiB
        big, count, small, extra = sizes
        rng = random.Random(34)
        family = ([rng.sample(range(10 ** 6), big) for _ in range(count)]
                  + [rng.sample(range(10 ** 6), small) for _ in range(extra)])
        tracemalloc.start()
        try:
            start = time.perf_counter()
            maximal = _maximal(family)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(maximal) == count + extra
        assert elapsed < 10
        assert peak < 1000 * big * count

    def test_late_vertices_get_a_bitset(self):
        # vertices 30-89 turn up only after 100 larger sets, too late for a
        # bitset of their own, and their 40000 pieces reduce through the
        # bitsets rebuilt for them; scanning their lists instead took 9 s
        rng = random.Random(35)
        a = [frozenset(rng.sample(range(30, 90), 20)) for _ in range(200)]
        b = [frozenset(rng.sample(range(30, 90), 20)) for _ in range(200)]
        family = [rng.sample(range(30), 25) for _ in range(100)] + [x & y for x in a for y in b]
        start = time.perf_counter()
        maximal = _maximal(family)
        assert time.perf_counter() - start < 3
        assert len(maximal) == 28969

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

    def test_negative_order(self):
        with pytest.raises(ValueError, match="nonnegative"):
            skeleton(C((1, 2)), -1)

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

    def test_many_sizes_on_few_vertices(self):
        # 89659 pieces of 0-14 vertices on 60 vertices reduce to 59969 sets;
        # comparing each piece with the kept sets that hold its rarest vertex
        # took about 40 s here
        rng = random.Random(5)
        a = complex_from_faces([rng.sample(range(60), 20) for _ in range(300)])
        b = complex_from_faces([rng.sample(range(60), 20) for _ in range(300)])
        start = time.perf_counter()
        faces = sorted(intersect(a, b).maximal_faces)
        assert time.perf_counter() - start < 10
        assert len(faces) == 59969
        assert hashlib.sha256(repr(faces).encode()).hexdigest() == (
            "0b74551e37f70c18ef2eebafe4d2f6c6ab7f27d6e4a4ae695c486790dc36d6a2")

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

    @pytest.mark.parametrize("text, column", [("-1 -", 4), ("7 -7 -", 6), ("1 2\n 3 x # y", 4)])
    def test_bad_token_reports_its_own_column(self, text, column):
        # an earlier token with the same text must not be taken for the bad one
        from simhaus import ParseError
        with pytest.raises(ParseError) as err:
            complex_from_lines(text)
        assert (err.value.line, err.value.column) == (text.count("\n") + 1, column)

    @pytest.mark.parametrize("text, line, column", [
        ("1_1 +2 \u0661\u0662", 1, 1),  # int() reads this line as (2, 11, 12)
        ("3 +1", 1, 3),
        ("1 2\n2 \u0663", 2, 3),  # Arabic-Indic three
        ("\uff14 5", 1, 1),  # fullwidth four
    ])
    def test_only_ascii_integer_tokens(self, text, line, column):
        from simhaus import ParseError
        with pytest.raises(ParseError) as err:
            complex_from_lines(text)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("text", ["+0", "1_1", "\u0663", " 1", "1 ", "", "-", "0x1"])
    def test_one_integer_rule(self, text):
        with pytest.raises(ValueError):
            complex_core.integer(text)

    def test_integer(self):
        assert [complex_core.integer(t) for t in ("0", "-0", "007", "-12")] == [0, 0, 7, -12]

    def test_integer_range_is_left_to_normalize_face(self):
        assert complex_from_lines("-0 007\n") == C((0, 7))
        with pytest.raises(EmptyInputError, match="nonnegative"):
            complex_from_lines("1 -2\n")

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
