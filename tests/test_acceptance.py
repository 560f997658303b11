"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v`` (each criterion reports
its own pass/fail line). The long 5-vertex reproduction is gated behind
``SIMHAUS_EXTENDED=1``.
"""

import ast
import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest

import simhaus
from simhaus import (
    MinimaxProblem,
    apply_vertex_map,
    barycentric_subdivision,
    canonical_form,
    class_distance_matrix,
    complex_from_faces,
    directed_distance,
    distance,
    enumerate_classes,
    face_distance,
    intersect,
    skeleton,
    solve_minimax,
    EmptyIntersectionError,
)
from conftest import random_complex, random_minimax_problem
from oracles import face_distance_by_components, oracle_minimax

import reference_tables as ref


def _check_matrix_against(classes, matrix, ref_classes, ref_upper):
    index = {c.encoding: i for i, c in enumerate(classes)}
    order = []
    for faces in ref_classes:
        enc = canonical_form(complex_from_faces(faces)).encoding
        assert enc in index, f"reference class {faces} not enumerated"
        order.append(index[enc])
    assert len(set(order)) == len(ref_classes)
    for i in range(len(ref_classes)):
        assert matrix.values[order[i]][order[i]] == 0
        for k, cell in enumerate(ref_upper[i]):
            j = i + 1 + k
            assert matrix.values[order[i]][order[j]] == Fraction(cell), (
                f"entry ({i},{j}): expected {cell}, "
                f"got {matrix.values[order[i]][order[j]]}")


def test_criterion_1_three_vertex_classes():
    start = time.monotonic()
    classes = enumerate_classes(3)
    assert len(classes) == 5
    matrix = class_distance_matrix(classes)
    _check_matrix_against(classes, matrix, ref.S3_CLASSES, ref.S3_UPPER)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: 5 classes on 3 vertices, table exact ({elapsed:.2f}s)")


def test_criterion_2_four_vertex_classes():
    start = time.monotonic()
    classes = enumerate_classes(4)
    assert len(classes) == 20
    matrix = class_distance_matrix(classes)
    _check_matrix_against(classes, matrix, ref.S4_CLASSES, ref.S4_UPPER)

    offdiag = {v for row in matrix.values for v in row} - {Fraction(0)}
    assert offdiag == {Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2),
                       Fraction(3, 5), Fraction(2, 3), Fraction(3, 4)}

    index = {c.encoding: i for i, c in enumerate(classes)}
    points = canonical_form(complex_from_faces([[0], [1], [2], [3]])).encoding
    solid = canonical_form(complex_from_faces([[0, 1, 2, 3]])).encoding
    hollow = canonical_form(complex_from_faces(
        list(combinations(range(4), 3)))).encoding
    assert matrix.values[index[points]][index[solid]] == Fraction(3, 4)
    assert matrix.values[index[hollow]][index[solid]] == Fraction(1, 4)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 2 PASS: 20 classes on 4 vertices, all 190 entries exact ({elapsed:.2f}s)")


@pytest.mark.extended
def test_criterion_3_five_vertex_classes_extended():
    start = time.monotonic()
    classes = enumerate_classes(5)
    assert len(classes) == 180
    matrix = class_distance_matrix(classes)
    values = {v for row in matrix.values for v in row}
    expected = {Fraction(a, b) for b in range(1, 6) for a in range(0, b)}
    expected |= {Fraction(2, 7), Fraction(3, 8), Fraction(3, 7), Fraction(4, 9),
                 Fraction(5, 9), Fraction(4, 7), Fraction(5, 8), Fraction(5, 7)}
    assert values == expected

    # global consistency: the 16110 values form a metric
    m = matrix.values
    n = len(classes)
    for i in range(n):
        assert m[i][i] == 0
        mi = m[i]
        for j in range(i + 1, n):
            assert mi[j] == m[j][i] > 0
            dij, mj = mi[j], m[j]
            for k in range(j + 1, n):
                dik, djk = mi[k], mj[k]
                assert dik <= dij + djk and dij <= dik + djk and djk <= dij + dik

    elapsed = time.monotonic() - start
    assert elapsed < 3600.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 3 PASS: 180 classes on 5 vertices, value set exact, "
          f"metric over all triples ({elapsed:.1f}s)")


def test_criterion_4_closed_forms():
    start = time.monotonic()
    for n in range(1, 7):
        full = complex_from_faces([tuple(range(n))])
        for k in range(1, n + 1):
            capped = complex_from_faces(combinations(range(n), k))
            assert distance(full, capped) == 1 - Fraction(k, n)
        vertices = complex_from_faces([(i,) for i in range(n)])
        assert directed_distance(full, vertices) == Fraction(n - 1, n)
        assert directed_distance(vertices, full) == 0
        for r in range(1, n + 1):
            p = MinimaxProblem.of(range(n), combinations(range(n), r))
            assert solve_minimax(p).value == Fraction(r, n)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 4 PASS: closed forms exact for sizes up to 6 ({elapsed:.2f}s)")


def test_criterion_5_oracle_equivalence():
    rng = random.Random(501)
    for i in range(500):
        p = random_minimax_problem(rng, max_ground=6, max_forms=6)
        assert solve_minimax(p).value == oracle_minimax(p), f"instance {i}: {p}"
    print("\nACCEPTANCE 5 PASS: solver == oracle on 500 random problems, exact")


class TestCriterion6Properties:
    def test_metric_axioms_on_s4(self):
        classes = enumerate_classes(4)
        m = class_distance_matrix(classes).values
        n = len(classes)
        for i in range(n):
            assert m[i][i] == 0
            for j in range(i + 1, n):
                assert m[i][j] == m[j][i] > 0
        triangles = 0
        for i, j, k in combinations(range(n), 3):
            assert m[i][k] <= m[i][j] + m[j][k]
            assert m[i][j] <= m[i][k] + m[j][k]
            assert m[j][k] <= m[i][j] + m[i][k]
            triangles += 1
        assert triangles == 1140
        print("\nACCEPTANCE 6a PASS: metric axioms on all 1140 triangles of the 4-vertex table")

    def test_intersection_contraction(self):
        rng = random.Random(601)
        checked = 0
        while checked < 100:
            a, b, k = (random_complex(rng) for _ in range(3))
            try:
                ak, bk = intersect(a, k), intersect(b, k)
            except EmptyIntersectionError:
                continue
            assert distance(ak, bk) <= distance(a, b)
            checked += 1
        print("\nACCEPTANCE 6b PASS: intersection contraction on 100 instances")

    def test_skeleton_lipschitz(self):
        rng = random.Random(602)
        for _ in range(100):
            a, b = random_complex(rng), random_complex(rng)
            d = distance(a, b)
            for n in range(4):
                assert distance(skeleton(a, n), skeleton(b, n)) <= d
        print("\nACCEPTANCE 6c PASS: skeleton maps 1-Lipschitz on 100 instances")

    def test_component_route_equivalence(self):
        rng = random.Random(603)
        for _ in range(100):
            k = random_complex(rng, max_vertex=6)
            f = tuple(sorted(rng.sample(range(7), rng.randint(1, 5))))
            assert face_distance_by_components(f, k) == face_distance(f, k)
        print("\nACCEPTANCE 6d PASS: component route equals direct route on 100 instances")

    def test_maximal_face_reduction(self):
        rng = random.Random(604)
        for _ in range(100):
            k1, k2 = random_complex(rng), random_complex(rng)
            assert directed_distance(k1, k2) == max(
                face_distance(f, k2) for f in k1.faces)
        print("\nACCEPTANCE 6e PASS: maximal-face scan equals all-face scan on 100 instances")

    def test_label_invariance(self):
        rng = random.Random(605)
        for _ in range(100):
            a, b = random_complex(rng), random_complex(rng)
            verts = sorted(set(a.vertices) | set(b.vertices))
            images = rng.sample(range(100), len(verts))
            mapping = dict(zip(verts, images))
            a2 = apply_vertex_map(a, {v: mapping[v] for v in a.vertices})
            b2 = apply_vertex_map(b, {v: mapping[v] for v in b.vertices})
            assert distance(a2, b2) == distance(a, b)
        print("\nACCEPTANCE 6f PASS: label invariance on 100 instances")

    def test_subdivision_separation(self):
        rng = random.Random(606)
        checked = 0
        while checked < 50:
            a = random_complex(rng, max_vertex=4, max_faces=3)
            b = random_complex(rng, max_vertex=4, max_faces=3)
            if a == b:
                continue
            shared = {f: i for i, f in enumerate(sorted(a.faces | b.faces))}
            assert distance(barycentric_subdivision(a, encoding=shared),
                            barycentric_subdivision(b, encoding=shared)) == 1
            checked += 1
        print("\nACCEPTANCE 6g PASS: subdivisions of unequal complexes at distance 1 (50 pairs)")


def test_criterion_7_rationality():
    rng = random.Random(700)
    for _ in range(50):
        a, b = random_complex(rng), random_complex(rng)
        d = distance(a, b)
        assert isinstance(d, Fraction)
        assert d.denominator > 0 and gcd(d.numerator, d.denominator) == 1

    # structural check: no float ever enters the computation modules
    package_dir = Path(simhaus.__file__).parent
    offenders = []
    for name in ("complex_core", "exact_minimax", "hausdorff_metric",
                 "iso_metric", "_kernels", "cli"):
        tree = ast.parse((package_dir / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                offenders.append(f"{name}:{node.lineno} float literal {node.value}")
            if isinstance(node, ast.Name) and node.id == "float":
                offenders.append(f"{name}:{node.lineno} use of float()")
            if isinstance(node, ast.Attribute) and node.attr.startswith("float"):
                offenders.append(f"{name}:{node.lineno} float dtype")
    assert not offenders, offenders
    print("\nACCEPTANCE 7 PASS: exact reduced rationals, no floating point in computation modules")
