"""The batched int64 simplex of the class face tables against the scalar one, bit for bit."""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from simhaus import TooLargeError, _kernels, enumerate_classes
from simhaus._kernels import _verify_packings, face_codes, key_distances, packings
from simhaus.exact_minimax import _solve_packing
from simhaus.hausdorff_metric import _pieces_distance
from oracles import full_tableau_packing, key_lp

HADAMARD = 19683  # 9 ** 4.5, the bound of the _kernels module docstring


def batch(lps):
    """``packings`` of ``(k, forms)`` LPs, forms as position tuples, padded into one array."""
    incidence = np.zeros((len(lps), max(len(f) for _, f in lps), max(k for k, _ in lps)),
                         dtype=np.int64)
    for b, (_, forms) in enumerate(lps):
        for i, form in enumerate(forms):
            incidence[b, i, list(form)] = 1
    return incidence, packings(incidence)


def assert_bit_for_bit(lps):
    _, (d, total, packing, cover) = batch(lps)
    for b, (k, forms) in enumerate(lps):
        sol = _solve_packing(k, tuple(forms))
        got = (Fraction(int(d[b]), int(total[b])), tuple(packing[b, :k].tolist()),
               tuple(cover[b, :len(forms)].tolist()), int(d[b]))
        assert got == (sol.value, sol.packing, sol.cover, sol.denominator), (k, forms)
        assert not packing[b, k:].any() and not cover[b, len(forms):].any()


def table_keys(n):
    """Every distinct face-table key of the classes on n vertices, at every subset."""
    keys = []
    face_codes([c.complex._masks for c in enumerate_classes(n)], n, range(1, 1 << n),
               lambda asked: keys.extend(asked) or [Fraction(0)] * len(asked))
    return keys


def key_forms(key):
    """The LP a key names, forms in ascending piece order as ``key_distances`` sends them."""
    face, pieces = key_lp(key)
    return face.bit_length(), [tuple(j for j in range(8) if p >> j & 1) for p in sorted(pieces)]


@pytest.mark.parametrize("n", [4, 5])
def test_every_face_table_lp(n):
    keys = table_keys(n)
    lps = [key_forms(key) for key in keys if len(key_lp(key)[1]) > 1]
    assert len(lps) == {4: 28, 5: 272}[n]
    assert_bit_for_bit(lps)
    assert key_distances(keys) == [_pieces_distance(*key_lp(key)) for key in keys]


@pytest.mark.parametrize("n", [6, 7, 8])
def test_wide_keys(n, monkeypatch):
    # keys of one, two and four words send the oracle's forms and get the labeled route's values
    rng = random.Random(34 + n)
    masks = [tuple({rng.randrange(1, 1 << n) for _ in range(rng.randint(2, 6))}) for _ in range(6)]
    keys = []
    face_codes(masks, n, range(1, 1 << n), lambda asked: keys.extend(asked) or [Fraction(0)] * len(asked))
    assert max(keys).bit_length() > {6: 32, 7: 64, 8: 128}[n]
    sent, pack = [], _kernels.packings
    monkeypatch.setattr(_kernels, "packings", lambda a: sent.append(a) or pack(a))
    assert key_distances(keys) == [_pieces_distance(*key_lp(key)) for key in keys]
    expected, _ = batch([key_forms(key) for key in keys if len(key_lp(key)[1]) > 1])
    assert len(sent) == 1 and np.array_equal(sent[0], expected)


def test_every_r_subset_of_eight_positions():
    assert_bit_for_bit([(8, list(combinations(range(8), r))) for r in range(1, 9)])


def covering_antichain(rng):
    """A seeded antichain of at least two forms that covers its 3-8 positions."""
    while True:
        k = rng.randint(3, 8)
        family = {frozenset(rng.sample(range(k), rng.randint(1, k - 1)))
                  for _ in range(rng.randint(2, 14))}
        forms = [f for f in family if not any(f < g for g in family)]
        if len(forms) > 1 and set().union(*forms) == set(range(k)):
            return k, sorted(tuple(sorted(f)) for f in forms)


def test_seeded_covering_antichains():
    rng = random.Random(32)
    assert_bit_for_bit([covering_antichain(rng) for _ in range(2000)])


def test_entries_stay_under_the_proved_bound():
    # the condensed tableau holds full-tableau entries, and the batch is the condensed one
    largest = []
    forms = list(combinations(range(8), 4))
    assert full_tableau_packing(8, forms, largest)[0] == Fraction(1, 2)
    assert len(forms) == 70 and 1 < max(largest) <= HADAMARD


@pytest.mark.parametrize("field", ["packing", "cover"])
def test_corrupted_certificate_raises(field):
    rng = random.Random(33)
    incidence, (d, total, packing, cover) = batch([covering_antichain(rng) for _ in range(50)])
    _verify_packings(incidence, d, total, packing, cover)
    for b in range(len(d)):
        for delta in (1, -1):
            bad = {"packing": packing.copy(), "cover": cover.copy()}
            nonzero = np.flatnonzero(bad[field][b])
            bad[field][b, nonzero[rng.randrange(len(nonzero))]] += delta
            with pytest.raises(ArithmeticError):
                _verify_packings(incidence, d, total, bad["packing"], bad["cover"])


def test_more_than_eight_positions_are_refused():
    # the int64 bound holds on at most eight positions
    with pytest.raises(TooLargeError):
        packings(np.ones((1, 2, 9), dtype=np.int64))
