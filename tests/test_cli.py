"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from simhaus import complex_from_faces, complex_from_json
from simhaus.cli import main

DATA = Path(__file__).parent / "data"


def write_json(tmp_path, name, faces):
    path = tmp_path / name
    path.write_text(json.dumps({"maximal_faces": faces}))
    return str(path)


def write_lines(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDist:
    def test_hollow_vs_solid_triangle(self, tmp_path, capsys):
        a = write_json(tmp_path, "hollow.json", [[1, 2], [1, 3], [2, 3]])
        b = write_json(tmp_path, "solid.json", [[1, 2, 3]])
        code, out, _ = run(capsys, ["dist", a, b])
        assert code == 0
        assert out == "1/3\n"

    def test_same_file_twice(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", [[1, 2]])
        code, out, _ = run(capsys, ["dist", a, a])
        assert (code, out) == (0, "0/1\n")

    def test_disjoint_vertex_sets(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", [[1, 2]])
        b = write_json(tmp_path, "b.json", [[3, 4]])
        code, out, _ = run(capsys, ["dist", a, b])
        assert (code, out) == (0, "1/1\n")

    def test_lines_format(self, tmp_path, capsys):
        a = write_lines(tmp_path, "a.txt", "# hollow\n1 2\n1 3\n2 3\n")
        b = write_lines(tmp_path, "b.txt", "1 2 3\n")
        code, out, _ = run(capsys, ["dist", a, b, "--format", "lines"])
        assert (code, out) == (0, "1/3\n")

    def test_parse_error_exit_2(self, tmp_path, capsys):
        a = write_lines(tmp_path, "bad.txt", "1 x 2\n")
        b = write_lines(tmp_path, "b.txt", "1\n")
        code, _, err = run(capsys, ["dist", a, b])
        assert code == 2
        assert "line 1" in err

    def test_json_array_sniffed_as_json(self, tmp_path, capsys):
        # a bare JSON list is JSON, so the error names the missing key, not an integer
        a = write_lines(tmp_path, "list.json", "[1,2]\n")
        b = write_json(tmp_path, "b.json", [[1, 2]])
        code, _, err = run(capsys, ["dist", a, b])
        assert code == 2
        assert "maximal_faces" in err
        assert "expected an integer" not in err

    def test_invariant_violation_exit_3(self, tmp_path, capsys):
        a = write_json(tmp_path, "empty.json", [[]])
        b = write_json(tmp_path, "b.json", [[1]])
        code, _, _ = run(capsys, ["dist", a, b])
        assert code == 3


class TestIsoDist:
    def test_path_vs_hollow_triangle(self, tmp_path, capsys):
        a = write_json(tmp_path, "path.json", [[1, 2], [2, 3]])
        b = write_json(tmp_path, "hollow.json", [[1, 2], [1, 3], [2, 3]])
        code, out, _ = run(capsys, ["iso-dist", a, b])
        assert (code, out) == (0, "1/2\n")

    def test_tetrahedra(self, tmp_path, capsys):
        a = write_json(tmp_path, "hollow4.json",
                       [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
        b = write_json(tmp_path, "solid4.json", [[1, 2, 3, 4]])
        code, out, _ = run(capsys, ["iso-dist", a, b])
        assert (code, out) == (0, "1/4\n")

    def test_isomorphic_with_witness(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", [[1, 2], [2, 3]])
        b = write_json(tmp_path, "b.json", [[5, 9], [9, 7]])
        code, out, err = run(capsys, ["iso-dist", a, b, "--witness"])
        assert (code, out) == (0, "0/1\n")
        assert "->" in err

    def test_too_large_exit_4(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", [list(range(9))])
        b = write_json(tmp_path, "b.json", [list(range(9))])
        code, _, _ = run(capsys, ["iso-dist", a, b])
        assert code == 4


class TestMatrix:
    def test_n3_matches_golden(self, capsys):
        code, out, _ = run(capsys, ["matrix", "3"])
        assert code == 0
        assert out == (DATA / "s3_matrix.tsv").read_text()

    def test_n4_matches_golden(self, capsys):
        code, out, _ = run(capsys, ["matrix", "4"])
        assert code == 0
        assert out == (DATA / "s4_matrix.tsv").read_text()

    def test_n1_singleton(self, capsys):
        code, out, _ = run(capsys, ["matrix", "1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "0/1"

    def test_n5_needs_extended(self, capsys):
        code, _, _ = run(capsys, ["matrix", "5"])
        assert code == 4

    @pytest.mark.extended
    def test_n5_with_extended_flag(self, capsys):
        code, out, _ = run(capsys, ["matrix", "5", "--extended"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 181
        assert all(len(ln.split("\t")) == 180 for ln in lines)


class TestEnumerate:
    def test_n3(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "3"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 5
        assert all("maximal_faces" in c for c in payload)

    def test_cap(self, capsys):
        assert run(capsys, ["enumerate", "5"])[0] == 4
        assert run(capsys, ["enumerate", "7", "--extended"])[0] == 4


class TestTransform:
    def test_skeleton(self, tmp_path, capsys):
        a = write_json(tmp_path, "solid.json", [[1, 2, 3]])
        code, out, _ = run(capsys, ["transform", "skeleton", a, "-k", "1"])
        assert code == 0
        assert complex_from_json(out) == complex_from_faces([[1, 2], [1, 3], [2, 3]])

    def test_sd_of_edge(self, tmp_path, capsys):
        a = write_json(tmp_path, "edge.json", [[1, 2]])
        code, out, _ = run(capsys, ["transform", "sd", a])
        assert code == 0
        sd = complex_from_json(out)
        assert len(sd.vertices) == 3
        assert all(len(f) == 2 for f in sd.maximal_faces)

    def test_components(self, tmp_path, capsys):
        a = write_json(tmp_path, "two.json", [[1, 2], [3, 4]])
        code, out, _ = run(capsys, ["transform", "components", a])
        assert code == 0
        payload = json.loads(out)
        assert [c["maximal_faces"] for c in payload] == [[[1, 2]], [[3, 4]]]

    def test_intersect(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", [[1, 2, 3]])
        b = write_json(tmp_path, "b.json", [[1, 2], [3]])
        code, out, _ = run(capsys, ["transform", "intersect", a, b])
        assert code == 0
        assert complex_from_json(out) == complex_from_faces([[1, 2], [3]])

    def test_empty_intersection_exit_5(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", [[1]])
        b = write_json(tmp_path, "b.json", [[2]])
        code, _, _ = run(capsys, ["transform", "intersect", a, b])
        assert code == 5


class TestLawDist:
    def test_uniform_on_hollow_triangle(self, tmp_path, capsys):
        k = write_json(tmp_path, "hollow.json", [[1, 2], [1, 3], [2, 3]])
        code, out, _ = run(capsys, ["law-dist", k, "--law", "1:1/3,2:1/3,3:1/3"])
        assert (code, out) == (0, "1/3\n")

    def test_point_mass(self, tmp_path, capsys):
        k = write_json(tmp_path, "k.json", [[1, 2]])
        code, out, _ = run(capsys, ["law-dist", k, "--law", "1:1"])
        assert (code, out) == (0, "0/1\n")

    def test_off_support(self, tmp_path, capsys):
        k = write_json(tmp_path, "k.json", [[1, 2]])
        code, out, _ = run(capsys, ["law-dist", k, "--law", "7:1/2,8:1/2"])
        assert (code, out) == (0, "1/1\n")

    def test_bad_weights_exit_6(self, tmp_path, capsys):
        k = write_json(tmp_path, "k.json", [[1, 2]])
        code, _, _ = run(capsys, ["law-dist", k, "--law", "1:1/2,2:1/3"])
        assert code == 6


class TestMisc:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", [[1, 2]])
        target = tmp_path / "result.txt"
        code, out, _ = run(capsys, ["dist", a, a, "--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text() == "0/1\n"

    def test_console_script_entry(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"maximal_faces": [[1, 2]]}))
        proc = subprocess.run(
            [sys.executable, "-m", "simhaus", "dist", str(a), str(a)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "0/1\n"

    def test_repeated_runs_identical(self, capsys):
        outs = {run(capsys, ["matrix", "3"])[1] for _ in range(3)}
        assert len(outs) == 1
