"""Canonical forms, class enumeration, class distances, matrix output."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from simhaus import (
    CanonicalComplex,
    TooLargeError,
    apply_vertex_map,
    canonical_form,
    class_distance,
    class_distance_matrix,
    complex_from_faces,
    distance,
    enumerate_classes,
)
from conftest import random_complex
from oracles import brute_canonical_form, brute_class_distance, covering_antichains

import reference_tables as ref


def C(*faces):
    return complex_from_faces(faces)


def spanning_complex(rng, n):
    """A random complex with vertex set exactly {0..n-1}."""
    faces = random_complex(rng, max_vertex=n - 1, max_faces=5).maximal_faces
    return C(*faces, *((v,) for v in range(n)))


class TestCanonicalForm:
    def test_edge_relabeled(self):
        c = canonical_form(C((5, 9)))
        assert c.encoding == ((0, 1),)
        assert c.complex.vertices == (0, 1)

    def test_isomorphic_paths_agree(self):
        a = canonical_form(C((1, 2), (2, 3)))
        b = canonical_form(C((7, 3), (3, 5)))
        assert a.encoding == b.encoding

    def test_non_isomorphic_differ(self):
        a = canonical_form(C((1, 2), (3, 4)))
        b = canonical_form(C((1, 2), (2, 3)))
        assert a.encoding != b.encoding

    def test_idempotent_and_relabel_invariant(self):
        rng = random.Random(31)
        for _ in range(60):
            k = random_complex(rng)
            c = canonical_form(k)
            assert canonical_form(c.complex).encoding == c.encoding
            mapping = {v: 3 * v + 2 for v in k.vertices}
            assert canonical_form(apply_vertex_map(k, mapping)).encoding == c.encoding

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            canonical_form(C(tuple(range(9))))

    def test_matches_brute_force_on_four_vertex_classes(self):
        for c in enumerate_classes(4):
            assert canonical_form(c.complex).encoding == brute_canonical_form(c.complex) == c.encoding

    def test_matches_brute_force_on_random_relabelings(self):
        rng = random.Random(36)
        for n in (3, 4, 5, 5, 6, 6, 7):
            k = spanning_complex(rng, n)
            images = rng.sample(range(20), len(k.vertices))
            moved = apply_vertex_map(k, dict(zip(k.vertices, images)))
            assert canonical_form(moved).encoding == brute_canonical_form(k)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 20), (5, 180)])
    def test_counts(self, n, count):
        classes = enumerate_classes(n)
        assert len(classes) == count
        encodings = {c.encoding for c in classes}
        assert len(encodings) == count
        for c in classes:
            assert c.complex.vertices == tuple(range(n))

    def test_deterministic_order(self):
        assert [c.encoding for c in enumerate_classes(3)] == \
            [c.encoding for c in enumerate_classes(3)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_class_per_brute_canonical_form(self, n):
        antichains = covering_antichains(n)
        brute = {brute_canonical_form(C(*([v for v in range(n) if m >> v & 1] for m in a)))
                 for a in antichains}
        assert {c.encoding for c in enumerate_classes(n)} == brute

    def test_five_vertex_orbits(self):
        # the brute oracle stops at n = 4: each 5-vertex class must be the
        # canonical form of a random relabeling of itself, listed in order
        rng = random.Random(55)
        classes = enumerate_classes(5)
        for c in classes:
            labels = [3 * v + 1 for v in range(5)]
            rng.shuffle(labels)
            moved = apply_vertex_map(c.complex, dict(zip(range(5), labels)))
            assert canonical_form(moved).encoding == c.encoding
        keys = [(len(c.complex.faces), c.encoding) for c in classes]
        assert keys == sorted(set(keys))

    def test_too_large(self):
        for n in (6, 7):
            with pytest.raises(TooLargeError):
                enumerate_classes(n)


class TestClassDistance:
    def test_edge_vs_two_points(self):
        r = class_distance(C((1, 2)), C((4,), (9,)))
        assert r.value == Fraction(1, 2)

    def test_rank_capped_vs_full(self):
        # all faces of size <= q-p against the full simplex: distance p/q
        for q in range(1, 7):
            for p in range(1, q):
                capped = complex_from_faces(combinations(range(q), q - p))
                full = complex_from_faces([tuple(range(q))])
                assert class_distance(capped, full).value == Fraction(p, q)

    def test_disjoint_unions_of_capped_vs_full(self):
        # blocks of strictly increasing sizes q with per-block caps q - p:
        # the class distance is the largest p/q when that ratio is <= 1/2
        def blocks(sizes, drops):
            capped, full, start = [], [], 0
            for q, p in zip(sizes, drops):
                verts = range(start, start + q)
                capped.extend(combinations(verts, q - p))
                full.append(tuple(verts))
                start += q
            return complex_from_faces(capped), complex_from_faces(full)

        for sizes, drops in [((2, 3), (1, 1)), ((3, 4), (1, 1)), ((2, 3), (1, 1))]:
            capped, full = blocks(sizes, drops)
            expected = max(Fraction(p, q) for q, p in zip(sizes, drops))
            assert expected <= Fraction(1, 2)
            assert class_distance(capped, full).value == expected

    def test_isomorphic_is_zero(self):
        a = C((1, 2), (2, 3))
        b = C((10, 20), (20, 30))
        r = class_distance(a, b)
        assert r.value == 0
        assert r.witness_bijection is not None
        assert distance(apply_vertex_map(a, r.witness_bijection), b) == 0

    def test_different_vertex_counts(self):
        r = class_distance(C((1, 2)), C((1, 2, 3)))
        assert r.value == 1
        assert r.witness_bijection is None

    def test_witness_attains_value(self):
        rng = random.Random(32)
        for _ in range(30):
            a = random_complex(rng, max_vertex=3)
            b = random_complex(rng, max_vertex=3)
            r = class_distance(a, b)
            if r.witness_bijection is not None:
                assert distance(apply_vertex_map(a, r.witness_bijection), b) == r.value

    def test_never_exceeds_aligned_distance(self):
        rng = random.Random(33)
        for _ in range(40):
            a = random_complex(rng, max_vertex=4)
            b = random_complex(rng, max_vertex=4)
            assert class_distance(a, b).value <= distance(a, b)

    def test_matches_brute_force_on_random_pairs(self):
        rng = random.Random(37)
        for _ in range(30):
            n = rng.randint(2, 6)
            a, b = spanning_complex(rng, n), spanning_complex(rng, n)
            r = class_distance(a, b)
            assert r.value == brute_class_distance(a, b)
            assert distance(apply_vertex_map(a, r.witness_bijection), b) == r.value

    def test_label_independence(self):
        rng = random.Random(34)
        for _ in range(30):
            a = random_complex(rng, max_vertex=4)
            b = random_complex(rng, max_vertex=4)
            ra = class_distance(a, b).value
            mapping = {v: 2 * v + 5 for v in a.vertices}
            assert class_distance(apply_vertex_map(a, mapping), b).value == ra


class TestMatrix:
    def test_three_vertex_table(self):
        classes = enumerate_classes(3)
        matrix = class_distance_matrix(classes)
        expected = {canonical_form(complex_from_faces(c)).encoding: row
                    for c, row in zip(ref.S3_CLASSES, ref.S3_UPPER)}
        index = {c.encoding: i for i, c in enumerate(classes)}
        ref_order = [index[canonical_form(complex_from_faces(c)).encoding]
                     for c in ref.S3_CLASSES]
        for i, c in enumerate(ref.S3_CLASSES):
            for k, cell in enumerate(ref.S3_UPPER[i]):
                a, b = ref_order[i], ref_order[i + 1 + k]
                assert matrix.values[a][b] == Fraction(cell)

    def test_matrix_against_pairwise(self):
        classes = enumerate_classes(3)
        matrix = class_distance_matrix(classes)
        for i in range(len(classes)):
            for j in range(len(classes)):
                expected = brute_class_distance(classes[i].complex, classes[j].complex)
                assert matrix.values[i][j] == expected

    def test_kernel_matrix_spot_checked_against_pairwise_s4(self):
        rng = random.Random(35)
        classes = enumerate_classes(4)
        matrix = class_distance_matrix(classes)
        pairs = [(i, j) for i in range(20) for j in range(i + 1, 20)]
        for i, j in rng.sample(pairs, 30):
            expected = brute_class_distance(classes[i].complex, classes[j].complex)
            assert matrix.values[i][j] == expected

    def test_single_class(self):
        classes = enumerate_classes(1)
        matrix = class_distance_matrix(classes)
        assert matrix.values == [[Fraction(0)]]

    def test_metric_axioms(self):
        classes = enumerate_classes(3)
        m = class_distance_matrix(classes).values
        n = len(classes)
        for i in range(n):
            assert m[i][i] == 0
            for j in range(n):
                assert m[i][j] == m[j][i]
                if i != j:
                    assert m[i][j] > 0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert m[i][k] <= m[i][j] + m[j][k]

    def test_mixed_vertex_counts(self):
        classes = enumerate_classes(2) + enumerate_classes(3)
        m = class_distance_matrix(classes).values
        for i in range(2):
            for j in range(2, len(classes)):
                assert m[i][j] == 1

    def test_too_large(self):
        k = C(tuple(range(9)))
        wide = CanonicalComplex(complex=k, encoding=tuple(sorted(k.maximal_faces)))
        with pytest.raises(TooLargeError):
            class_distance_matrix(enumerate_classes(2) + [wide])

    def test_skeleton_bound_for_classes(self):
        # best skeletal agreement over all relabelings bounds the value below
        from itertools import permutations

        from simhaus import apply_vertex_map, skeleton

        classes = enumerate_classes(4)
        m = class_distance_matrix(classes).values
        verts = tuple(range(4))
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                k1, k2 = classes[i].complex, classes[j].complex
                best_level = -1
                for target in permutations(verts):
                    sigma = dict(zip(verts, target))
                    moved = apply_vertex_map(k1, sigma)
                    level = -1
                    while level < 4 and skeleton(moved, level + 1) == skeleton(k2, level + 1):
                        level += 1
                    best_level = max(best_level, level)
                assert m[i][j] >= Fraction(1, best_level + 2)
