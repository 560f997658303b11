"""Skeleta without a reduction pass, and the caps on expanding every face and on intersecting."""

import json
import time
from itertools import combinations, islice
from math import factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

import simhaus.complex_core as complex_core
from simhaus import (Complex, TooLargeError, complex_from_faces, complex_from_json, complex_to_lines,
                     intersect, skeleton, subdivision_encoding)
from simhaus.cli import main
from simhaus.complex_core import _maximal


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_skeleton_pieces_need_no_reduction(data):
    # maximal faces on both sides of n + 1 vertices, sharing vertices
    n = data.draw(st.integers(1, 3))
    small = data.draw(st.lists(st.sets(st.integers(0, 8), min_size=1, max_size=n),
                               min_size=1, max_size=4))
    large = data.draw(st.lists(st.sets(st.integers(0, 8), min_size=n + 2, max_size=n + 4),
                               min_size=1, max_size=4))
    k = complex_from_faces(small + large)
    sizes = {len(m) for m in k.maximal_faces}
    assume(min(sizes) <= n and max(sizes) >= n + 2)
    pieces = [c for m in k.maximal_faces for c in combinations(m, min(len(m), n + 1))]
    assert skeleton(k, n).maximal_faces == frozenset(_maximal(pieces))


def test_face_cap_boundary():
    # 9! / 2 edges: the most faces, counted with repeats, of any complex
    # whose subdivision stays within the chain cap
    edges = frozenset(islice(combinations(range(603), 2), factorial(9) // 2))
    k = Complex._of_maximal(edges)
    assert 3 * len(edges) == complex_core.MAX_FACES
    assert len(k.faces) == 603 + len(edges)
    with pytest.raises(TooLargeError):
        Complex._of_maximal(edges | {(1000,)}).faces


@pytest.mark.parametrize("n", [20, 40, 100000])
def test_over_the_face_cap_fails_at_once(n):
    # a 20-vertex simplex has 2^20 - 1 faces; a 40-vertex one never finished before
    simplex = complex_from_faces([range(n)])
    start = time.perf_counter()
    with pytest.raises(TooLargeError):
        subdivision_encoding(simplex)
    assert time.perf_counter() - start < 0.5


def test_cli_sd_at_the_face_cap(tmp_path, capsys, monkeypatch):
    # a triangle expands to 7 faces (and 6 chains): allowed at a face cap of
    # 7, refused at 6
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"maximal_faces": [[1, 2, 3]]}))
    monkeypatch.setattr(complex_core, "MAX_FACES", 7)
    assert main(["transform", "sd", str(path)]) == 0
    assert len(complex_from_json(capsys.readouterr().out).maximal_faces) == 6
    monkeypatch.setattr(complex_core, "MAX_FACES", 6)
    assert main(["transform", "sd", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "face expansion capped" in captured.err


def test_intersect_over_the_pair_cap_fails_at_once(tmp_path, capsys):
    # two 1-skeleta of 100-vertex simplices, 4950 edges each: 2.5e7 face
    # pairs, refused before any work (16 s of pair tests before the cap)
    a = complex_from_faces(combinations(range(100), 2))
    b = complex_from_faces(combinations(range(1, 101), 2))
    start = time.perf_counter()
    with pytest.raises(TooLargeError):
        intersect(a, b)
    assert time.perf_counter() - start < 0.5
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for path, k in zip(paths, (a, b)):
        path.write_text(complex_to_lines(k))
    assert main(["transform", "intersect", *map(str, paths)]) == 4
    assert "intersection capped" in capsys.readouterr().err


def test_intersect_at_the_pair_cap():
    # 2000 edges of a star against 2000 edges of a path: exactly the cap
    star = complex_from_faces((0, v) for v in range(1, 2001))
    path = complex_from_faces((v, v + 1) for v in range(1, 2001))
    assert len(star.maximal_faces) * len(path.maximal_faces) == complex_core.MAX_INTERSECTION_PAIRS
    assert intersect(star, path) == complex_from_faces((v,) for v in range(1, 2001))


def test_intersect_entry_cap():
    # 1000 blocks of 100 vertices on each side: 1e6 face pairs, under the
    # pair cap, but 1e8 vertex entries to scan, over 9 times the cap
    a = complex_from_faces(range(100 * i, 100 * i + 100) for i in range(1000))
    b = complex_from_faces(range(100 * i + 50, 100 * i + 150) for i in range(1000))
    start = time.perf_counter()
    with pytest.raises(TooLargeError):
        intersect(a, b)
    assert time.perf_counter() - start < 0.5
