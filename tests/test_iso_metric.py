"""Canonical forms, class enumeration, class distances, matrix output."""

import hashlib
import random
import time
from fractions import Fraction
from itertools import combinations, islice, permutations

import numpy as np
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
from simhaus import iso_metric
from simhaus import _kernels
from simhaus._kernels import (antichain_levels, canonical_faces, coset_transversal, face_counts,
                              images, key_faces, pairwise_min_codes, perm_bits)
from simhaus.exact_minimax import format_rational
from conftest import random_complex
from oracles import (automorphism_count, brute_canonical_form, brute_class_distance,
                     covering_antichains, full_scan_min_codes, oracle_images,
                     reference_transversal, walk_encodings, walk_levels)

import reference_tables as ref


def C(*faces):
    return complex_from_faces(faces)


def spanning_complex(rng, n):
    """A random complex with vertex set exactly {0..n-1}."""
    faces = random_complex(rng, max_vertex=n - 1, max_faces=5).maximal_faces
    return C(*faces, *((v,) for v in range(n)))


class TestEngineCap:
    # the engine refuses before building anything that grows with 2**n or n!
    WIDE = C(tuple(range(30)))
    CASES = {
        "canonical_form": lambda k, small: canonical_form(k),
        "class_distance_equal": lambda k, small: class_distance(k, C(*combinations(range(30), 29))),
        "class_distance_unequal": lambda k, small: class_distance(small[0].complex, k),
        "class_distance_matrix": lambda k, small: class_distance_matrix(
            small + [CanonicalComplex(complex=k, encoding=(tuple(range(30)),))]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_thirty_vertices_refused_at_once(self, case):
        small = enumerate_classes(2)
        start = time.perf_counter()
        with pytest.raises(TooLargeError):
            self.CASES[case](self.WIDE, small)
        assert time.perf_counter() - start < 0.1


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


class TestPermBits:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_itertools_order(self, n):
        perms = np.array(list(permutations(range(n))), dtype=np.uint8)
        fwd, inv = perm_bits(n)
        assert fwd.dtype == inv.dtype == np.uint8
        assert np.array_equal(fwd, 1 << perms)
        assert np.array_equal(inv, 1 << np.argsort(perms, axis=1))
        # one vertex's images under every relabeling are one contiguous run
        assert fwd.flags.f_contiguous and inv.flags.f_contiguous
        assert not fwd.flags.writeable and not inv.flags.writeable


class TestImages:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_mask_matches_oracle(self, n):
        masks = range(1 << n)
        for bits in perm_bits(n):
            got = images(bits, masks)
            assert got.dtype == np.uint8 and got.shape == (1 << n, len(bits))
            assert np.array_equal(got, oracle_images(bits, masks))

    def test_sampled_masks_on_eight_vertices_match_oracle(self):
        # 0 and 255 bound the sums: no image, and every column added at once
        masks = [0, 255, *random.Random(88).sample(range(1, 255), 40)]
        for bits in perm_bits(8):
            assert np.array_equal(images(bits, masks), oracle_images(bits, masks))


def assert_matches_full_scan(masks, n):
    _, tables = iso_metric._face_tables(masks, n)
    fwd, inv = perm_bits(n)
    assert np.array_equal(pairwise_min_codes(tables, masks, fwd, inv),
                          full_scan_min_codes(tables, masks, fwd, inv))


class TestAutomorphismQuotient:
    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_full_scan(self, n):
        assert_matches_full_scan([c.complex._masks for c in enumerate_classes(n)], n)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_matches_full_scan_on_six_to_eight_vertices(self, n):
        # one-face classes give segments of length 1; the (n-2)-subsets are the widest
        rng = random.Random(80 + n)
        shapes = [C(tuple(range(n))),
                  C(*combinations(range(n), n - 2)),
                  C(*((v, (v + 1) % n) for v in range(n))),
                  C(*((0, v) for v in range(1, n))),
                  *(spanning_complex(rng, n) for _ in range(6))]
        rng.shuffle(shapes)
        assert_matches_full_scan([k._masks for k in shapes], n)

    def test_codes_symmetric_in_class_order(self):
        masks = [c.complex._masks for c in enumerate_classes(4)]
        _, tables = iso_metric._face_tables(masks, 4)
        fwd, inv = perm_bits(4)
        codes = pairwise_min_codes(tables, masks, fwd, inv)
        assert codes.dtype == tables.dtype
        assert np.array_equal(codes, codes.T)
        order = random.Random(44).sample(range(len(masks)), len(masks))
        shuffled = pairwise_min_codes(tables[order], [masks[c] for c in order], fwd, inv)
        assert np.array_equal(shuffled, codes[np.ix_(order, order)])

    def test_matches_full_scan_on_sampled_six_vertex_classes(self, six_vertex_classes):
        sample = random.Random(86).sample(six_vertex_classes, 30)
        assert_matches_full_scan([c.complex._masks for c in sample], 6)

    def test_orbit_stabilizer(self):
        for n, order in ((4, 24), (5, 120)):
            for c in enumerate_classes(n):
                cosets = coset_transversal(images(perm_bits(n)[0], c.complex._masks), n).tolist()
                assert len(cosets) * automorphism_count(c.complex) == order, c.encoding
                # the first relabeling of each image set, in itertools order
                first = {}
                for p, target in enumerate(permutations(range(n))):
                    image = apply_vertex_map(c.complex, dict(enumerate(target))).maximal_faces
                    first.setdefault(image, p)
                assert cosets == sorted(first.values()), c.encoding

    def test_reference_transversal_on_five_vertex_classes(self):
        fwd, _ = perm_bits(5)
        for c in enumerate_classes(5):
            masks = c.complex._masks
            assert np.array_equal(coset_transversal(images(fwd, masks), 5),
                                  reference_transversal(masks, 5)), c.encoding

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_reference_transversal_on_six_to_eight_vertices(self, n):
        rng = random.Random(60 + n)
        shapes = [C(*((v, (v + 1) % n) for v in range(n))),
                  C(*combinations(range(n), n - 1)),
                  C(*((v, v + 1) for v in range(0, n - 1, 2)), (n - 1,)),
                  C(*((0, v) for v in range(1, n))),
                  *(spanning_complex(rng, n) for _ in range(10))]
        fwd, _ = perm_bits(n)
        for k in shapes:
            assert k.vertices == tuple(range(n))
            assert np.array_equal(coset_transversal(images(fwd, k._masks), n),
                                  reference_transversal(k._masks, n)), k.maximal_faces

    def test_large_groups_on_six_to_eight_vertices(self):
        # image keys of 7 and 8 vertices are wider than one 64-bit face set
        shapes = []
        for n in (6, 7, 8):
            cycle = C(*((v, (v + 1) % n) for v in range(n)))
            boundary = C(*combinations(range(n), n - 1))
            star = C(*((0, v) for v in range(1, n)))
            complete = C(*combinations(range(n), 2))
            shapes += [cycle, boundary, star, complete]
            if n % 2 == 0:
                shapes.append(C(*((v, v + 1) for v in range(0, n, 2))))
        # interleave the vertex counts, so each group's cells are scattered
        random.Random(19).shuffle(shapes)
        classes = [canonical_form(k) for k in shapes]
        matrix = class_distance_matrix(classes).values
        for i, a in enumerate(classes):
            for j, b in enumerate(classes):
                assert matrix[i][j] == class_distance(a.complex, b.complex).value, (i, j)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 20), (5, 180)])
    def test_counts(self, n, count):
        classes = enumerate_classes(n)
        assert len(classes) == count
        encodings = {c.encoding for c in classes}
        assert len(encodings) == count
        for c in classes:
            assert c.complex.vertices == tuple(range(n))
        counts = face_counts([c.complex._masks for c in classes], n).tolist()
        assert counts == [len(c.complex.faces) for c in classes]

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

    def test_face_counts_of_wider_complexes(self):
        rng = random.Random(78)
        shapes = [spanning_complex(rng, n) for n in (6, 7, 8) for _ in range(5)]
        for k in shapes:
            assert face_counts([k._masks], len(k.vertices)).tolist() == [len(k.faces)], \
                k.maximal_faces

    def test_no_vertices(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            enumerate_classes(0)

    def test_too_large(self):
        for n in (7, 8):
            with pytest.raises(TooLargeError):
                enumerate_classes(n)


class TestAntichainLevels:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_levels_match_reference_walk(self, n, monkeypatch):
        reference = walk_levels(n)
        assert [[rep for rep, _ in level] for level in antichain_levels(n)] == reference
        # a small chunk splits the runs of one representative's children
        monkeypatch.setattr(_kernels, "KEY_CHUNK", 7)
        assert [[rep for rep, _ in level] for level in antichain_levels(n)] == reference

    @pytest.mark.parametrize("chunk", [_kernels.KEY_CHUNK, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_keys_decode_to_canonical_faces(self, n, chunk, monkeypatch):
        monkeypatch.setattr(_kernels, "KEY_CHUNK", chunk)
        for level in antichain_levels(n):
            for rep, key in level:
                assert key_faces(key, n) == canonical_faces(rep, n), rep

    def test_six_vertex_keys_decode_to_canonical_faces(self):
        rng = random.Random(6)
        levels = antichain_levels(6)
        assert len(levels) == 20
        for level in levels:
            for rep, key in rng.sample(level, min(len(level), 25)):
                assert key_faces(key, 6) == canonical_faces(rep, 6), rep

    def test_enumeration_makes_no_canonical_faces_call(self, monkeypatch):
        reference = walk_encodings(5)

        def no_canonical_faces(masks, n):
            raise AssertionError(f"canonical_faces called on {masks}")
        monkeypatch.setattr(iso_metric, "canonical_faces", no_canonical_faces)
        assert [c.encoding for c in enumerate_classes(5)] == reference

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_encodings_match_reference_walk(self, n):
        assert [c.encoding for c in enumerate_classes(n)] == walk_encodings(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_keys_equal_exactly_on_orbits(self, n, monkeypatch):
        # every child of every level, not only the kept ones
        monkeypatch.setattr(_kernels, "KEY_CHUNK", 5)
        for level in [[()]] + walk_levels(n):
            children = [(i, m) for i, r in enumerate(level) for m in range(1, 1 << n)
                        if all(m & c not in (c, m) for c in r)]
            if not children:
                continue
            rep = np.array([i for i, _ in children])
            mask = np.array([m for _, m in children], dtype=np.uint8)
            reps = np.array(level, dtype=np.uint8).reshape(len(level), -1)
            keys = _kernels._child_keys(reps, rep, mask, n).tolist()
            forms = [canonical_faces(level[i] + (m,), n) for i, m in children]
            for a, b in combinations(range(len(children)), 2):
                assert (keys[a] == keys[b]) == (forms[a] == forms[b]), (children[a], children[b])

    def test_seven_vertices_refused_before_any_table(self, monkeypatch):
        # 1 << 64 wraps in uint64, so the key must stop at 6 vertices
        def no_tables(n):
            raise AssertionError(f"built relabeling tables for n = {n}")
        monkeypatch.setattr(_kernels, "perm_bits", no_tables)
        with pytest.raises(TooLargeError, match="64-bit"):
            antichain_levels(7)


@pytest.fixture(scope="module")
def six_vertex_classes():
    return enumerate_classes(6)


class TestSixVertexClasses:
    def test_count_and_digest(self, six_vertex_classes):
        assert len(six_vertex_classes) == 16143
        text = "\n".join(c.encoding_string for c in six_vertex_classes)
        assert hashlib.sha256(text.encode()).hexdigest() == ref.S6_ENCODINGS_SHA256

    def test_keys_distinct_and_sorted(self, six_vertex_classes):
        keys = [(len(c.complex.faces), c.encoding) for c in six_vertex_classes]
        assert keys == sorted(set(keys))
        assert all(c.complex.vertices == tuple(range(6)) for c in six_vertex_classes)

    def test_sampled_face_counts(self, six_vertex_classes):
        sample = random.Random(67).sample(six_vertex_classes, 200)
        counts = face_counts([c.complex._masks for c in sample], 6).tolist()
        assert counts == [len(c.complex.faces) for c in sample]

    def test_sampled_orbits(self, six_vertex_classes):
        rng = random.Random(66)
        for c in rng.sample(six_vertex_classes, 40):
            labels = [5 * v + 2 for v in range(6)]
            rng.shuffle(labels)
            moved = apply_vertex_map(c.complex, dict(zip(range(6), labels)))
            assert canonical_form(moved).encoding == c.encoding

    def test_matrix_refused_before_any_face_table(self, six_vertex_classes, monkeypatch):
        # 16143 classes would need 130,290,153 pair scans and a 260 MB code array
        def no_tables(mask_lists, n):
            raise AssertionError(f"built face tables for {len(mask_lists)} classes")
        monkeypatch.setattr(iso_metric, "_face_tables", no_tables)
        with pytest.raises(TooLargeError, match="class matrix"):
            class_distance_matrix(six_vertex_classes)


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

    def test_witness_is_first_brute_minimizer(self):
        # pins the witness: the first target tuple of least labeled distance
        rng = random.Random(38)
        for _ in range(80):
            n = rng.randint(3, 5)
            a = spanning_complex(rng, n)
            b = apply_vertex_map(spanning_complex(rng, n), dict(zip(range(n), rng.sample(range(40), n))))
            targets = list(permutations(b.vertices))
            scores = [distance(apply_vertex_map(a, dict(zip(a.vertices, t))), b) for t in targets]
            best = targets[scores.index(min(scores))]
            r = class_distance(a, b)
            assert (r.value, r.witness_bijection) == (min(scores), dict(zip(a.vertices, best)))

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_witness_is_first_minimizer_on_six_to_eight_vertices(self, n):
        # every relabeling scored through the oracle images; the witness is
        # the first least score in itertools.permutations order
        rng = random.Random(90 + n)
        fwd, inv = perm_bits(n)
        for _ in range(4):
            a = spanning_complex(rng, n)
            b = apply_vertex_map(spanning_complex(rng, n), dict(zip(range(n), rng.sample(range(40), n))))
            values, (codes_a, codes_b) = iso_metric._face_tables([a._masks, b._masks], n)
            forward = codes_b[oracle_images(fwd, a._masks)].max(axis=0)
            backward = codes_a[oracle_images(inv, b._masks)].max(axis=0)
            scores = np.maximum(forward, backward)
            best = int(scores.argmin())
            target = next(islice(permutations(b.vertices), best, None))
            r = class_distance(a, b)
            assert (r.value, r.witness_bijection) == (values[scores[best]], dict(zip(a.vertices, target)))
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

    def test_codes_and_tsv_of_mixed_list(self):
        classes = enumerate_classes(1) + enumerate_classes(3) + enumerate_classes(4)
        matrix = class_distance_matrix(classes)
        values = matrix.values
        cells = {v for row in values for v in row}
        assert matrix.distinct == sorted(cells)
        assert [[matrix.distinct[k] for k in row] for row in matrix.codes] == values
        header, *rows = matrix.to_tsv().splitlines()
        assert header.split("\t") == [c.encoding_string for c in classes]
        assert [row.split("\t") for row in rows] == \
            [[format_rational(v) for v in row] for row in values]
        # the one-class group, then the 3- and 4-vertex groups
        assert values[0][0] == 0
        sizes = [len(c.complex.vertices) for c in classes]
        for i, j in permutations(range(len(classes)), 2):
            if sizes[i] != sizes[j]:
                assert values[i][j] == 1
        for i, j in ((2, 5), (10, 20)):
            assert values[i][j] == class_distance(classes[i].complex, classes[j].complex).value

    def test_distinct_only_holds_occurring_values(self):
        # the face table of these two classes holds 0, 1/2 and 2/3
        classes = [enumerate_classes(4)[i] for i in (0, 7)]
        assert len(iso_metric._face_tables([c.complex._masks for c in classes], 4)[0]) == 3
        matrix = class_distance_matrix(classes)
        assert matrix.distinct == [0, Fraction(2, 3)]
        assert matrix.codes == [[0, 1], [1, 0]]

    def test_too_large(self):
        k = C(tuple(range(9)))
        wide = CanonicalComplex(complex=k, encoding=tuple(sorted(k.maximal_faces)))
        with pytest.raises(TooLargeError):
            class_distance_matrix(enumerate_classes(2) + [wide])

    def test_class_cap_counts_each_vertex_count(self, monkeypatch):
        assert len(enumerate_classes(5)) <= iso_metric.MAX_MATRIX_CLASSES
        monkeypatch.setattr(iso_metric, "MAX_MATRIX_CLASSES", 5)
        # 2 + 5 classes, each vertex count within the cap
        assert len(class_distance_matrix(enumerate_classes(2) + enumerate_classes(3)).values) == 7
        with pytest.raises(TooLargeError, match="class matrix"):
            class_distance_matrix(enumerate_classes(2) + enumerate_classes(4)[:6])

    def test_random_mixes_match_each_count(self):
        own = {n: (enumerate_classes(n), class_distance_matrix(enumerate_classes(n)).values)
               for n in range(1, 6)}
        pool = [(n, i) for n, (classes, _) in own.items() for i in range(len(classes))]
        rng = random.Random(25)
        for _ in range(8):
            picked = rng.sample(pool, rng.randint(2, 30))
            matrix = class_distance_matrix([own[n][0][i] for n, i in picked])
            cells = {v for row in matrix.values for v in row}
            assert matrix.distinct == sorted(cells)
            for (n, i), row in zip(picked, matrix.values):
                for (m, j), v in zip(picked, row):
                    assert v == (own[n][1][i][j] if n == m else 1), (n, i, m, j)

    def test_empty_list(self):
        matrix = class_distance_matrix([])
        assert (matrix.classes, matrix.distinct, matrix.codes, matrix.values) == ([], [], [], [])

    def test_mixed_list_makes_one_face_table_and_one_kernel_call(self, monkeypatch):
        calls = []

        def counted(name):
            original = getattr(iso_metric, name)
            monkeypatch.setattr(iso_metric, name,
                                lambda *args: calls.append(name) or original(*args))

        counted("_face_tables")
        counted("pairwise_min_codes")
        class_distance_matrix(enumerate_classes(2) + enumerate_classes(3) + enumerate_classes(4))
        assert calls == ["_face_tables", "pairwise_min_codes"]

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
