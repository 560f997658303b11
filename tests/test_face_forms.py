"""Face tables from the grouped restricted LPs against the labeled oracle forms."""

import random
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest

from simhaus import MinimaxProblem, apply_vertex_map, complex_from_faces, enumerate_classes, face_distance
from simhaus import iso_metric
from simhaus._kernels import face_codes
from simhaus.hausdorff_metric import _mask_distance
from simhaus.iso_metric import _face_tables
from conftest import random_complex
from oracles import _restricted_forms, key_lp, oracle_minimax, positional_forms


def oracle_face_table(k):
    """``1 - oracle_minimax`` of the labeled restricted forms, for every subset of positions."""
    n = len(k.vertices)
    table = [Fraction(0)]
    for f in range(1, 1 << n):
        face = tuple(v for i, v in enumerate(k.vertices) if f >> i & 1)
        forms = _restricted_forms(frozenset(face), k)
        table.append(1 - oracle_minimax(MinimaxProblem(face, forms)))
    return table


def decoded(complexes, n, values, codes):
    assert codes.shape == (len(complexes), 1 << n)
    return [[values[c] for c in row] for row in codes.tolist()]


def face_tables(complexes, n):
    """The rows of ``_face_tables`` for ``complexes``, decoded to distances."""
    return decoded(complexes, n, *_face_tables([k._masks for k in complexes], n))


def every_subset_tables(complexes, n):
    """``face_tables`` at every subset: ``face_codes`` with the memoized value ``_face_tables`` uses."""
    masks = [k._masks for k in complexes]
    values = iso_metric._face_values
    return decoded(complexes, n, *face_codes(masks, n, list(range(1, 1 << n)), values))


def test_random_complexes():
    rng = random.Random(15)
    for _ in range(12):
        k = random_complex(rng, max_vertex=6, max_faces=5, max_face_size=5)
        # spread the labels, so positions and labels differ
        k = apply_vertex_map(k, {v: 3 * v + 1 for v in k.vertices})
        n = len(k.vertices)
        assert every_subset_tables([k], n) == [oracle_face_table(k)], k


def test_four_vertex_classes():
    # one call for all classes, so pairs of different classes share LPs;
    # their faces take every size 1..4, so every subset is filled
    complexes = [c.complex for c in enumerate_classes(4)]
    tables = face_tables(complexes, 4)
    assert tables == [oracle_face_table(k) for k in complexes]


def face_sizes(complexes):
    return {len(m) for k in complexes for m in k.maximal_faces}


def test_sizes_outside_are_zero(monkeypatch):
    # exactly the subsets at the call's face sizes are filled, code 0 elsewhere
    subsets = []

    def recorded(masks, n, s, values):
        subsets.append(s)
        return face_codes(masks, n, s, values)

    monkeypatch.setattr(iso_metric, "face_codes", recorded)
    complexes = [c.complex for c in enumerate_classes(4)]
    calls = [[k] for k in complexes]
    calls += [[k for k in complexes if face_sizes([k]) <= {2, 3}],
              [k for k in complexes if face_sizes([k]) == {2}]]
    for group in calls:
        sizes = face_sizes(group)
        values, codes = _face_tables([k._masks for k in group], 4)
        assert subsets.pop() == [f for f in range(16) if f.bit_count() in sizes]
        for row, k in zip(codes.tolist(), group):
            oracle = oracle_face_table(k)
            assert [values[c] for f, c in enumerate(row) if f.bit_count() in sizes] == \
                [d for f, d in enumerate(oracle) if f.bit_count() in sizes], k
            assert not any(c for f, c in enumerate(row) if f.bit_count() not in sizes), k


def pair_keys(masks, n, subsets):
    """The key of every (class, subset) pair, read back from the codes.

    The batch gives each key a larger value than the one before it, so
    code i is the i-th key asked for.
    """
    keys = []

    def batch(asked):
        assert not keys  # one batch per call
        keys.extend(asked)
        return [Fraction(i) for i in range(1, len(asked) + 1)]

    values, codes = face_codes(masks, n, subsets, batch)
    assert values == [Fraction(i) for i in range(1, len(keys) + 1)]
    assert len(set(keys)) == len(keys) and all(type(key) is int for key in keys)
    if n <= 6:  # one uint64 word per key
        assert all(0 <= key < 1 << 64 for key in keys)
    assert not codes[:, sorted(set(range(1 << n)) - set(subsets))].any()
    return {(c, f): keys[codes[c, f]] for c in range(len(masks)) for f in subsets}


def lp_of(key):
    """``key_lp`` of a key, its pieces written as ``positional_forms`` writes them."""
    face, pieces = key_lp(key)
    return face, tuple(sorted(tuple(j for j in range(8) if p >> j & 1) for p in pieces))


def check_pair_keys(masks, n, subsets):
    """Check that each pair's key names its LP, or is the zero key if uncovered; return the keys."""
    keys = pair_keys(masks, n, subsets)
    for (c, f), key in keys.items():
        if f & ~reduce(or_, masks[c]):
            assert key == 0, (masks[c], f)
        else:
            assert lp_of(key) == ((1 << f.bit_count()) - 1, positional_forms(f, masks[c])), \
                (masks[c], f)
    return keys


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_one_key_per_restricted_lp(n):
    masks = [c.complex._masks for c in enumerate_classes(n)]
    subsets = list(range(1, 1 << n))
    keys = check_pair_keys(masks, n, subsets)
    # every pair is covered, so equal keys mean equal LPs and back
    forms = {(c, f): positional_forms(f, m) for c, m in enumerate(masks) for f in subsets}
    assert len(set(zip(keys.values(), forms.values()))) == len(set(keys.values())) \
        == len(set(forms.values()))


def test_key_names_one_lp_across_vertex_counts():
    # one call per n over the classes on 1..n vertices, so the narrower
    # classes leave subsets uncovered
    lps = {}
    for n in range(1, 6):
        masks = [c.complex._masks for m in range(1, n + 1) for c in enumerate_classes(m)]
        keys = check_pair_keys(masks, n, list(range(1, 1 << n)))
        for (c, f), key in keys.items():
            if key != 0:
                lps.setdefault(key, set()).add(positional_forms(f, masks[c]))
    assert all(len(lp) == 1 for lp in lps.values())
    assert len({lp.pop() for lp in lps.values()}) == len(lps)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_key_lp_sample(n):
    rng = random.Random(28 + n)
    masks = [tuple({rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 6))})
             for _ in range(12)]
    check_pair_keys(masks, n, rng.sample(range(1, 1 << n), 40))


def positional_pieces(f, masks):
    """The nonzero pieces ``m & f`` of ``masks``, each bit of f renumbered by its position in f."""
    positions = [i for i in range(f.bit_length()) if f >> i & 1]
    pieces = {sum(1 << j for j, i in enumerate(positions) if m >> i & 1) for m in masks}
    return tuple(sorted(pieces - {0}))


@pytest.mark.parametrize("n", [7, 8])
def test_keys_agree_across_widths(n):
    # a key of two or four words at n = 7, 8 is the one-word key of the same LP on |f| <= 6 vertices
    rng = random.Random(40 + n)
    masks = [tuple({rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 6))})
             for _ in range(12)]
    subsets = rng.sample([f for f in range(1, 1 << n) if f.bit_count() <= 6], 60)
    covered = 0
    for (c, f), key in check_pair_keys(masks, n, subsets).items():
        if f & ~reduce(or_, masks[c]):
            continue
        k = f.bit_count()
        assert pair_keys([positional_pieces(f, masks[c])], k, [(1 << k) - 1]) == {(0, (1 << k) - 1): key}
        covered += 1
    assert covered > 400


def test_one_memo_entry_serves_every_width(monkeypatch):
    # the LPs of the 4-vertex classes, solved at n = 4, are memo hits at one, two and four words
    complexes = [c.complex for c in enumerate_classes(4)]
    masks = [k._masks for k in complexes]
    iso_metric._face_memo.clear()
    narrow = every_subset_tables(complexes, 4)
    calls = []
    monkeypatch.setattr(iso_metric, "key_distances", lambda keys: calls.append(keys))
    for n in (6, 7, 8):
        values, codes = face_codes(masks, n, list(range(1, 16)), iso_metric._face_values)
        assert decoded(complexes, 4, values, codes[:, :16]) == narrow
        assert not codes[:, 16:].any()
    assert not calls and narrow == [oracle_face_table(k) for k in complexes]


def test_face_values_memoized_across_calls(monkeypatch):
    complexes = [c.complex for c in enumerate_classes(4)]
    iso_metric._face_memo.clear()
    first = face_tables(complexes, 4)
    calls = []
    monkeypatch.setattr(iso_metric, "key_distances", lambda keys: calls.append(keys))
    # one call per complex, with labels spread in order: every LP is already known
    for k in complexes:
        moved = apply_vertex_map(k, {v: 2 * v + 5 for v in k.vertices})
        assert every_subset_tables([moved], 4) == [oracle_face_table(moved)]
    assert not calls and first == [oracle_face_table(k) for k in complexes]


def test_face_values_bounded(monkeypatch):
    monkeypatch.setattr(iso_metric, "MAX_FACE_VALUES", 5)
    iso_metric._face_memo.clear()
    complexes = [c.complex for c in enumerate_classes(4)]
    assert face_tables(complexes, 4) == [oracle_face_table(k) for k in complexes]
    assert len(iso_metric._face_memo) == 5
    # the five newest keys stay, and a second call still gives the oracle's values
    assert every_subset_tables(complexes[:3], 4) == [oracle_face_table(k) for k in complexes[:3]]
    assert len(iso_metric._face_memo) == 5


def test_labels_outside_the_complex():
    k = complex_from_faces([(10, 20), (20, 30)])
    assert face_distance((10, 40), k) == 1
    assert face_distance((40,), k) == 1
    assert face_distance((10, 30), k) == Fraction(1, 2)
    assert face_distance((10, 20, 30), k) == Fraction(1, 2)
    assert face_distance((20, 30), k) == 0


def test_bit_outside_every_mask_is_distance_one():
    # the LP has an uncovered position, so its value is 0
    edge = complex_from_faces([(0, 1)])
    assert _mask_distance(0b101, (0b011,)) == 1 == face_distance((0, 2), edge)
    assert _mask_distance(0b100, (0b011,)) == 1 == face_distance((2,), edge)


def test_subset_outside_the_class_gets_the_zero_key():
    # without the zero key, {0, 2} and {1, 2} share the LP key of {0}
    masks = [(0b11,)]
    calls = []

    def values(keys):
        calls.append(keys)
        return iso_metric._face_values(keys)

    iso_metric._face_memo.clear()
    values, codes = face_codes(masks, 3, [0b001, 0b101, 0b110], values)
    assert [values[k] for k in codes[0, [0b001, 0b101, 0b110]].tolist()] == [0, 1, 1]
    assert len(calls) == 1 and len(calls[0]) == 2 and 0 in calls[0]
    assert key_lp(0) == (1, [])
    # both keys missed the memo and are stored
    assert set(iso_metric._face_memo) == set(calls[0])
