"""Command-line interface: subcommands, formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from simhaus import complex_from_faces, complex_from_json
from simhaus import cli
from simhaus.cli import main

import reference_tables as ref

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
        code, out, _ = run(capsys, ["dist", a, b])
        assert (code, out) == (0, "1/3\n")

    def test_parse_error_exit_2(self, tmp_path, capsys):
        a = write_lines(tmp_path, "bad.txt", "1 x 2\n")
        b = write_lines(tmp_path, "b.txt", "1\n")
        code, _, err = run(capsys, ["dist", a, b])
        assert code == 2
        assert "line 1" in err

    def test_lenient_integer_token_exit_2(self, tmp_path, capsys):
        # int() would read this line as the face (2, 11, 12)
        a = write_lines(tmp_path, "bad.txt", "1 2\n1_1 +2 \u0661\u0662\n")
        code, out, err = run(capsys, ["dist", a, a])
        assert (code, out) == (2, "")
        assert "'1_1' (line 2, column 1)" in err

    def test_lp_over_the_cap_exit_4(self, tmp_path, capsys):
        # the 16-simplex against its 560 triangles is one LP of 560 forms on 16 vertices
        a = write_json(tmp_path, "a.json", [list(range(16))])
        b = write_json(tmp_path, "b.json", [list(t) for t in combinations(range(16), 3)])
        code, out, err = run(capsys, ["dist", a, b])
        assert (code, out) == (4, "")
        assert "exact LP capped at 8000" in err

    def test_reducing_the_lp_forms_stops_at_the_cap(self, tmp_path, capsys):
        # the 300-simplex against its 44850 edges: reducing every edge to
        # a maximal piece before the LP cap refuses them takes about a minute
        a = write_json(tmp_path, "a.json", [list(range(300))])
        edges = "".join(f"{u} {v}\n" for u, v in combinations(range(300), 2))
        b = write_lines(tmp_path, "b.txt", edges)
        start = time.perf_counter()
        code, out, err = run(capsys, ["dist", a, b])
        assert (code, out) == (4, "")
        assert "exact LP capped at 8000" in err
        assert time.perf_counter() - start < 3

    def test_json_array_sniffed_as_json(self, tmp_path, capsys):
        # a bare JSON list is JSON, so the error names the missing key, not an integer
        a = write_lines(tmp_path, "list.json", "[1,2]\n")
        b = write_json(tmp_path, "b.json", [[1, 2]])
        code, _, err = run(capsys, ["dist", a, b])
        assert code == 2
        assert "maximal_faces" in err
        assert "expected an integer" not in err

    def test_deeply_nested_json_exit_2(self, tmp_path):
        # json.loads recurses once per '[', past the interpreter's recursion limit
        deep = write_lines(tmp_path, "deep.json",
                           '{"maximal_faces": ' + "[" * 100000 + "]" * 100000 + "}")
        proc = subprocess.run(
            [sys.executable, "-m", "simhaus", "dist", deep, deep],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "nested too deeply" in proc.stderr

    def test_invariant_violation_exit_3(self, tmp_path, capsys):
        a = write_json(tmp_path, "empty.json", [[]])
        b = write_json(tmp_path, "b.json", [[1]])
        code, _, _ = run(capsys, ["dist", a, b])
        assert code == 3

    @pytest.mark.parametrize("text,code,message", [
        # the offending label is a 200000-element list; the error shows only its start
        (json.dumps({"maximal_faces": [[list(range(200000))]]}), 3, "must be integers"),
        ("1 " + "x" * 200000 + "\n", 2, "expected an integer"),
    ], ids=["json-list-label", "lines-token"])
    def test_bad_vertex_message_is_bounded(self, tmp_path, capsys, text, code, message):
        wide = write_lines(tmp_path, "wide.txt", text)
        got, _, err = run(capsys, ["dist", wide, wide])
        assert got == code
        assert message in err
        assert len(err.encode()) < 1024


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

    @pytest.mark.parametrize("other", [[list(range(30))], [[0, 1]]])
    def test_thirty_vertices_exit_4(self, tmp_path, capsys, other):
        # equal and unequal vertex counts are both over the engine's cap
        a = write_json(tmp_path, "a.json", [list(range(30))])
        b = write_json(tmp_path, "b.json", other)
        code, _, err = run(capsys, ["iso-dist", a, b])
        assert code == 4
        assert "capped at 8 vertices" in err


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

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_no_vertices_exit_2(self, capsys, n):
        code, out, err = run(capsys, ["matrix", n])
        assert (code, out) == (2, "")
        assert "at least one vertex" in err

    @pytest.mark.parametrize("command", ["matrix", "enumerate"])
    @pytest.mark.parametrize("n", ["\u0663", "+3", "3_0", " 3"])
    def test_ascii_integer_only_exit_2(self, capsys, command, n):
        # int() reads each of these as 3 or 30
        with pytest.raises(SystemExit) as exc:
            main([command, n])
        assert exc.value.code == 2
        assert "invalid integer value" in capsys.readouterr().err

    def test_n6_exit_4(self, capsys):
        code, out, err = run(capsys, ["matrix", "6", "--extended"])
        assert (code, out) == (4, "")
        assert "--extended" in err

    def test_n6_refused_before_enumeration(self, capsys, monkeypatch):
        # enumeration reaches 6 vertices; the 6-vertex matrix stays refused
        def no_enumeration(n):
            raise AssertionError(f"enumerated {n} vertices")
        monkeypatch.setattr(cli, "enumerate_classes", no_enumeration)
        assert run(capsys, ["matrix", "6", "--extended"])[:2] == (4, "")
        assert run(capsys, ["matrix", "7", "--extended"])[:2] == (4, "")

    def test_n5_with_extended_flag(self, capsys):
        code, out, _ = run(capsys, ["matrix", "5", "--extended"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 181
        assert all(len(ln.split("\t")) == 180 for ln in lines)
        assert hashlib.sha256(out.encode()).hexdigest() == ref.S5_MATRIX_TSV_SHA256


class TestEnumerate:
    def test_n3(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "3"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 5
        assert all("maximal_faces" in c for c in payload)

    def test_cap(self, capsys, monkeypatch):
        asked = []
        monkeypatch.setattr(cli, "enumerate_classes", lambda n: asked.append(n) or [])
        assert run(capsys, ["enumerate", "5"])[0] == 4
        assert run(capsys, ["enumerate", "6"])[0] == 4
        assert run(capsys, ["enumerate", "6", "--extended"]) == (0, "[]\n", "")
        assert run(capsys, ["enumerate", "7", "--extended"])[0] == 4
        assert asked == [6]


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

    def test_sd_over_the_chain_cap_exit_4(self, tmp_path, capsys):
        a = write_json(tmp_path, "simplex10.json", [list(range(10))])
        code, out, err = run(capsys, ["transform", "sd", a])
        assert (code, out) == (4, "")
        assert "capped" in err

    def test_skeleton_over_the_cap_exit_4(self, tmp_path, capsys):
        # C(30, 15) = 155117520 faces; refused before any is built
        a = write_lines(tmp_path, "simplex30.txt", " ".join(map(str, range(30))) + "\n")
        code, out, err = run(capsys, ["transform", "skeleton", a, "-k", "14"])
        assert (code, out) == (4, "")
        assert "skeleton capped" in err

    @pytest.mark.parametrize("k", ["+0", "1_0", "\u0661"])
    def test_skeleton_order_is_an_ascii_integer_exit_2(self, tmp_path, capsys, k):
        a = write_json(tmp_path, "solid.json", [[1, 2, 3]])
        with pytest.raises(SystemExit) as exc:
            main(["transform", "skeleton", a, "-k", k])
        assert exc.value.code == 2
        assert "invalid integer value" in capsys.readouterr().err

    def test_negative_skeleton_order_exit_2(self, tmp_path, capsys):
        a = write_json(tmp_path, "solid.json", [[1, 2, 3]])
        code, out, err = run(capsys, ["transform", "skeleton", a, "-k", "-1"])
        assert (code, out) == (2, "")
        assert "nonnegative" in err

    def test_skeleton_without_order_exit_2(self, tmp_path, capsys):
        a = write_json(tmp_path, "solid.json", [[1, 2, 3]])
        code, out, err = run(capsys, ["transform", "skeleton", a])
        assert (code, out) == (2, "")
        assert "needs -k" in err

    def test_intersect_with_one_file_exit_2(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", [[1, 2, 3]])
        code, out, err = run(capsys, ["transform", "intersect", a])
        assert (code, out) == (2, "")
        assert "two input files" in err

    def test_components(self, tmp_path, capsys):
        a = write_json(tmp_path, "two.json", [[1, 2], [3, 4]])
        code, out, _ = run(capsys, ["transform", "components", a])
        assert code == 0
        assert out == '[{"maximal_faces": [[1, 2]]}, {"maximal_faces": [[3, 4]]}]\n'

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

    def test_negative_entry_refused_even_when_it_cancels_exit_6(self, tmp_path, capsys):
        # summed first, 0:1 and 0:-1 would leave the law {1: 1}
        k = write_json(tmp_path, "k.json", [[1, 2]])
        code, out, err = run(capsys, ["law-dist", k, "--law", "0:1,0:-1,1:1"])
        assert (code, out) == (6, "")
        assert "nonnegative" in err

    def test_repeated_vertex_weights_are_summed(self, tmp_path, capsys):
        k = write_json(tmp_path, "k.json", [[1, 2], [3]])
        code, out, _ = run(capsys, ["law-dist", k, "--law", "1:1/4,3:1/2,1:1/4"])
        assert (code, out) == (0, "1/2\n")
        code, out, _ = run(capsys, ["law-dist", k, "--law", "1:1/2,1:1/2"])
        assert (code, out) == (0, "0/1\n")

    def test_decimal_weights(self, tmp_path, capsys):
        k = write_json(tmp_path, "k.json", [[1, 2], [3]])
        code, out, _ = run(capsys, ["law-dist", k, "--law", "1:0.25,2:1/4,3:0.5"])
        assert (code, out) == (0, "1/2\n")

    @pytest.mark.parametrize("law", ["1_1:1", "\u0661:1", "+1:1", "1:1_0/2_0,2:\u0661/\u0662"])
    def test_ascii_integers_only_exit_2(self, tmp_path, capsys, law):
        # int() and Fraction() would put these weights on vertex 11, 1 or 2
        k = write_json(tmp_path, "k.json", [[1, 2]])
        code, out, err = run(capsys, ["law-dist", k, "--law", law])
        assert (code, out) == (2, "")
        assert "bad law entry" in err

    def test_blanks_around_an_entry(self, tmp_path, capsys):
        k = write_json(tmp_path, "k.json", [[1, 2], [3]])
        code, out, _ = run(capsys, ["law-dist", k, "--law", " 1 : 1/2 , 3 :1/2"])
        assert (code, out) == (0, "1/2\n")

    def test_negative_vertex_exit_3(self, tmp_path, capsys):
        k = write_json(tmp_path, "k.json", [[1, 2]])
        code, out, err = run(capsys, ["law-dist", k, "--law=-1:1"])
        assert (code, out) == (3, "")
        assert "nonnegative" in err

    @pytest.mark.parametrize("law", ["1:+1/2,2:1/2", "1:1/2,2:+.5", "1:1/2,2:1/2/1", "1:0x1"])
    def test_rational_token_rule_exit_2(self, tmp_path, capsys, law):
        # Fraction() would read "+1/2" and "+.5" as 1/2
        k = write_json(tmp_path, "k.json", [[1, 2]])
        code, out, err = run(capsys, ["law-dist", k, "--law", law])
        assert (code, out) == (2, "")
        assert "bad law entry" in err

    def test_exponent_refused_exit_2(self, tmp_path, capsys):
        # Fraction("1e999999999") would build a billion-digit integer
        k = write_json(tmp_path, "k.json", [[1, 2]])
        code, _, err = run(capsys, ["law-dist", k, "--law", "1:1e999999999"])
        assert code == 2
        assert "exponent" in err


class TestMisc:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", [[1, 2]])
        target = tmp_path / "result.txt"
        code, out, _ = run(capsys, ["dist", a, a, "--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text() == "0/1\n"

    @pytest.mark.parametrize("command", [["law-dist", "{a}", "--law=--"],
                                         ["dist", "{a}", "{a}", "--out=--"]])
    def test_two_dashes_as_option_value_exit_2(self, tmp_path, capsys, command):
        # argparse hands back an empty list for these instead of a string
        a = write_json(tmp_path, "a.json", [[1, 2]])
        code, out, err = run(capsys, [arg.format(a=a) for arg in command])
        assert (code, out) == (2, "")
        assert "'--'" in err

    @pytest.mark.parametrize("missing_dir", [True, False], ids=["missing-dir", "directory"])
    def test_unwritable_out_exit_2(self, tmp_path, missing_dir):
        a = write_json(tmp_path, "a.json", [[1, 2]])
        target = tmp_path / "missing" / "x" if missing_dir else tmp_path
        proc = subprocess.run(
            [sys.executable, "-m", "simhaus", "dist", a, a, "--out", str(target)],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "cannot write" in proc.stderr
        assert "Traceback" not in proc.stderr

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


# small inputs only: sd and iso-dist stay cheap on faces of at most 5 vertices
# over labels up to 5, and on the few faces random bytes can spell
DOCUMENTED_CODES = {0, 2, 3, 4, 5, 6}
COMMANDS = (
    ["dist", "{a}", "{b}"],
    ["iso-dist", "{a}", "{b}", "--witness"],
    ["transform", "skeleton", "{a}", "-k", "1"],
    ["transform", "sd", "{a}"],
    ["transform", "components", "{a}"],
    ["transform", "intersect", "{a}", "{b}"],
    ["law-dist", "{a}", "--law=1:1/2,2:1/2"],
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10)
FACE_LISTS = st.lists(st.lists(st.integers(-1, 5), max_size=5), max_size=5)
JSON_TEXT = st.one_of(
    JSON_VALUES,
    FACE_LISTS.map(lambda faces: {"maximal_faces": faces}),
    JSON_VALUES.map(lambda v: {"maximal_faces": v}),
).map(json.dumps)
LINE = st.one_of(
    st.lists(st.integers(-2, 5), max_size=5).map(lambda vs: " ".join(map(str, vs))),
    st.sampled_from(["", "# comment", "1 x", "  3 4 # tail", "1e3", "1.5", "{", "]"]),
)
LINE_TEXT = st.lists(LINE, max_size=6).map("\n".join)
LAW_TEXT = st.one_of(
    st.text(alphabet="0123456789:/,.-+ e_x", max_size=20),
    st.lists(st.tuples(st.integers(-1, 4), st.fractions(0, 2, max_denominator=5)), max_size=4)
    .map(lambda ws: ",".join(f"{v}:{w}" for v, w in ws)),
)


def run_in_process(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class TestFuzz:
    """No input ends in an exception: every run returns a documented exit code."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        return root / "a", root / "b"

    def check(self, files, a, b):
        files[0].write_bytes(a)
        files[1].write_bytes(b)
        for command in COMMANDS:
            argv = [part.format(a=files[0], b=files[1]) for part in command]
            assert run_in_process(argv) in DOCUMENTED_CODES, argv

    @given(st.binary(max_size=40), st.binary(max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_random_bytes(self, files, a, b):
        self.check(files, a, b)

    @given(JSON_TEXT | LINE_TEXT, JSON_TEXT | LINE_TEXT)
    @settings(max_examples=30, deadline=None)
    def test_json_and_line_text(self, files, a, b):
        self.check(files, a.encode(), b.encode())

    @given(LAW_TEXT)
    @settings(max_examples=40, deadline=None)
    def test_law_strings(self, files, law):
        files[0].write_text("1 2\n2 3\n")
        assert run_in_process(["law-dist", str(files[0]), f"--law={law}"]) in DOCUMENTED_CODES
