"""Face distances from the bitmask forms against the labeled oracle forms."""

import random
from fractions import Fraction

from simhaus import MinimaxProblem, apply_vertex_map, complex_from_faces, enumerate_classes, face_distance
from simhaus.iso_metric import _face_table
from conftest import random_complex
from oracles import _restricted_forms, oracle_minimax


def oracle_face_table(k):
    """``1 - oracle_minimax`` of the labeled restricted forms, for every subset of positions."""
    n = len(k.vertices)
    table = [Fraction(0)]
    for f in range(1, 1 << n):
        face = tuple(v for i, v in enumerate(k.vertices) if f >> i & 1)
        forms = _restricted_forms(frozenset(face), k)
        table.append(1 - oracle_minimax(MinimaxProblem(face, forms)))
    return table


def test_random_complexes():
    rng = random.Random(15)
    for _ in range(12):
        k = random_complex(rng, max_vertex=6, max_faces=5, max_face_size=5)
        # spread the labels, so positions and labels differ
        k = apply_vertex_map(k, {v: 3 * v + 1 for v in k.vertices})
        n = len(k.vertices)
        assert _face_table(k._masks, n, set(range(1, n + 1))) == oracle_face_table(k), k


def test_four_vertex_classes():
    for c in enumerate_classes(4):
        k = c.complex
        assert _face_table(k._masks, 4, {1, 2, 3, 4}) == oracle_face_table(k), k


def test_labels_outside_the_complex():
    k = complex_from_faces([(10, 20), (20, 30)])
    assert face_distance((10, 40), k) == 1
    assert face_distance((40,), k) == 1
    assert face_distance((10, 30), k) == Fraction(1, 2)
    assert face_distance((10, 20, 30), k) == Fraction(1, 2)
    assert face_distance((20, 30), k) == 0
