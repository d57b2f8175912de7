import hashlib
import io
import os
import subprocess
import sys

import pytest
from test_jacobian import load_qp, rotated_qp

from qpsurf import cli
from qpsurf.examples_data import CORPUS, example_text
from qpsurf.qp import QP
from qpsurf.surface import Triangulation


def run(argv, stdin_text=None, monkeypatch=None):
    out = io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def write_example(tmp_path, name):
    path = tmp_path / (name + ".tri")
    path.write_text(example_text(name), encoding="utf-8")
    return str(path)


def test_examples_subcommand(monkeypatch):
    code, text = run(["examples", "torus"])
    assert code == 0
    assert text == example_text("torus")


def test_examples_unknown_name(capsys):
    # printed as is: once it came in the double quotes of str(KeyError)
    assert run(["examples", "nope"]) == (2, "")
    assert capsys.readouterr().err == (
        "error: unknown example 'nope'; known: annulus, hexagon, hexagon-central, "
        "hexagon-fan, once-punctured-square, pentagon, punctured-square-2, "
        "punctured-square-3, punctured-square-4, punctured-square-sf, torus\n")


def test_a_library_value_error_is_a_bug_not_an_input_error(monkeypatch):
    """Only `QpsurfError` means refused input: any other ValueError leaves `main`."""
    import qpsurf.jacobian

    def broken(qp, order):
        raise ValueError("internal")

    qp_text = run(["qp", "-"], stdin_text=example_text("torus"), monkeypatch=monkeypatch)[1]
    monkeypatch.setattr(qpsurf.jacobian, "truncated_quotient_dim", broken)
    monkeypatch.setattr("sys.stdin", io.StringIO(qp_text))
    with pytest.raises(ValueError, match="internal"):
        cli.main(["dim", "-"], out=io.StringIO())


def test_a_broken_invariant_is_a_bug_not_an_input_error(monkeypatch):
    """A self-check that no input reaches raises AssertionError, which leaves `main`."""
    import qpsurf.potential

    monkeypatch.setattr(qpsurf.potential, "is_two_acyclic", lambda quiver: False)
    monkeypatch.setattr("sys.stdin", io.StringIO(example_text("torus")))
    with pytest.raises(AssertionError, match="reduced quiver of a triangulation has a 2-cycle"):
        cli.main(["qp", "-"], out=io.StringIO())


def test_validate_ok(tmp_path):
    code, text = run(["validate", write_example(tmp_path, "torus")])
    assert code == 0 and text == "ok\n"


def test_validate_digon_exits_two(tmp_path):
    path = tmp_path / "digon.tri"
    path.write_text(
        "surface genus=0 boundary=1\n"
        "marked A boundary=0\n"
        "marked B boundary=0\n"
        "bseg AB A B on=0\n"
        "bseg BA B A on=0\n", encoding="utf-8")
    code, _ = run(["validate", str(path)])
    assert code == 2


def test_matrix_output(tmp_path):
    code, text = run(["matrix", write_example(tmp_path, "torus")])
    assert code == 0
    assert text == "0 2 -2\n-2 0 2\n2 -2 0\n"


def test_qp_from_stdin(monkeypatch):
    code, text = run(["qp", "-"], stdin_text=example_text("torus"), monkeypatch=monkeypatch)
    assert code == 0
    assert "truncation: 6" in text
    assert "2/1 1>2~t0 3>1~t1 2>3~t0 1>2~t1 3>1~t0 2>3~t1" in text


def test_quiver_and_unreduced(tmp_path):
    path = write_example(tmp_path, "punctured-square-2")
    code, reduced = run(["quiver", path])
    assert code == 0 and "~pp" not in reduced
    code, unreduced = run(["quiver", path, "--unreduced"])
    assert code == 0 and "a 1>2~pp 1 2" in unreduced


def test_potential_scalar_override(tmp_path):
    path = write_example(tmp_path, "punctured-square-2")
    code, text = run(["potential", path, "--scalars", "p=7/1"])
    assert code == 0
    assert "-1/7" in text


def test_bad_scalar_override_exits_two(tmp_path, capsys):
    for name, command, bad, message in [
        ("punctured-square-2", "potential", "p=1/0", "bad scalar 'p=1/0'"),
        ("punctured-square-2", "potential", "p", "bad scalar 'p'"),
        ("punctured-square-2", "potential", "p=x", "bad scalar 'p=x'"),
        # the pentagon has no puncture, and this square's puncture is `p`
        ("pentagon", "potential", "A=5", "scalar override 'A' is not a puncture"),
        ("punctured-square-4", "qp", "P=0", "scalar override 'P' is not a puncture"),
    ]:
        code, text = run([command, write_example(tmp_path, name), "--scalars", bad])
        assert (code, text) == (2, ""), bad
        assert message in capsys.readouterr().err


def test_flip_and_pipe_roundtrip(tmp_path, monkeypatch):
    path = write_example(tmp_path, "torus")
    code, flipped = run(["flip", path, "1"])
    assert code == 0
    code, _ = run(["validate", "-"], stdin_text=flipped, monkeypatch=monkeypatch)
    assert code == 0


def test_mutate_qp_pipeline(tmp_path, monkeypatch):
    path = write_example(tmp_path, "torus")
    code, qp_text = run(["qp", path])
    assert code == 0
    code, mutated = run(["mutate", "-", "2"], stdin_text=qp_text, monkeypatch=monkeypatch)
    assert code == 0
    assert "[2>3~t0.1>2~t1]" in mutated


def test_dim_report(tmp_path, monkeypatch):
    path = write_example(tmp_path, "pentagon")
    code, qp_text = run(["qp", path])
    code, report = run(["dim", "-", "--order", "4"], stdin_text=qp_text, monkeypatch=monkeypatch)
    assert code == 0
    assert report.splitlines()[0] == "order #paths ideal-rank dim certified"


def test_rigid_report(tmp_path, monkeypatch):
    path = write_example(tmp_path, "torus")
    _, qp_text = run(["qp", path])
    code, report = run(["rigid", "-", "--order", "6"], stdin_text=qp_text, monkeypatch=monkeypatch)
    assert code == 0
    assert report.startswith("non-rigid witness:")


def test_check_flip_compat_exit_zero(tmp_path):
    path = write_example(tmp_path, "torus")
    code, text = run(["check", "flip-compat", path, "1", "--order", "6"])
    assert code == 0
    assert text.startswith("check flip-compat")


def test_check_involution(tmp_path, monkeypatch):
    path = write_example(tmp_path, "torus")
    _, qp_text = run(["qp", path])
    code, _ = run(["check", "involution", "-", "2", "--order", "4"],
                  stdin_text=qp_text, monkeypatch=monkeypatch)
    assert code == 0


def test_check_restriction(tmp_path, monkeypatch):
    path = write_example(tmp_path, "torus")
    _, qp_text = run(["qp", path])
    code, _ = run(["check", "restriction", "-", "1", "--keep", "1,2", "--order", "4"],
                  stdin_text=qp_text, monkeypatch=monkeypatch)
    assert code == 0


def test_check_restriction_reports_differing_premutations(tmp_path, monkeypatch):
    path = write_example(tmp_path, "hexagon-central")
    _, qp_text = run(["qp", path, "--order", "6"])
    code, text = run(["check", "restriction", "-", "1", "--keep", "2,3"],
                     stdin_text=qp_text, monkeypatch=monkeypatch)
    assert code == 1
    assert text.splitlines()[-1] == "  premutations-coincide: FAIL (premutations differ)"


def test_explore(tmp_path, monkeypatch):
    path = write_example(tmp_path, "torus")
    _, qp_text = run(["qp", path])
    code, text = run(["explore", "-", "--depth", "2", "--order", "6"],
                     stdin_text=qp_text, monkeypatch=monkeypatch)
    assert code == 0
    assert "--1-->" in text or "--2-->" in text or "--3-->" in text


# sha256 of `explore --depth 3 --order 6` on `qp --order 6`, recorded with
# the n! brute-force canonical form that the search replaced
EXPLORE_DEPTH_3 = {
    "torus": "413be998ed7377bd05d47ca7c950eff95a2a17616a6769c618cb4af88da2e3c7",
    "hexagon-central": "dff6b4321762f3ce19693f0fd5a6f80e7f30843007b2e9ccab3a6979b726df2c",
    "punctured-square-4": "59a433f06c9de18f81571f14983d5c80002a96d9a96ea1f8237a2cd177329510",
}


@pytest.mark.parametrize("name", sorted(EXPLORE_DEPTH_3))
def test_explore_text_is_pinned(tmp_path, monkeypatch, name):
    _, qp_text = run(["qp", write_example(tmp_path, name), "--order", "6"])
    code, text = run(["explore", "-", "--depth", "3", "--order", "6"],
                     stdin_text=qp_text, monkeypatch=monkeypatch)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == EXPLORE_DEPTH_3[name]


def test_explore_reports_fail_on_a_non_two_acyclic_node(monkeypatch):
    # an oriented triangle with zero potential: mutating it at any vertex
    # leaves a 2-cycle that no potential term cancels
    qp_text = ("truncation: 4\nv 1\nv 2\nv 3\n"
               "a a 1 2\na b 2 3\na c 3 1\npotential:\n")
    code, text = run(["explore", "-", "--depth", "2", "--order", "4"],
                     stdin_text=qp_text, monkeypatch=monkeypatch)
    assert code == 1
    assert text == (
        "check explore (dacdcf38b16e): FAIL\n"
        "  all-2-acyclic: FAIL (non-2-acyclic nodes: ['4e09e5c1fc44'])\n"
        "  nodes: ok\n"
        "  edges: ok\n"
        "node 4e09e5c1fc44 ((0, -1, 0), (1, 0, -1), (0, 1, 0))\n"
        "node 77ede555251c ((0, -1, 1), (1, 0, -1), (-1, 1, 0))\n"
        "77ede555251c --1--> 4e09e5c1fc44\n"
        "77ede555251c --2--> 4e09e5c1fc44\n"
        "77ede555251c --3--> 4e09e5c1fc44\n")


def test_explore_asks_for_a_rebuild_where_truncation_made_the_two_cycle(gen, monkeypatch,
                                                                        capsys):
    # at order 6 the thrice-punctured torus's QP is cut below its puncture
    # cycles, and a node's 2-cycle rests on degree-2 terms that are not exact
    tri_text = gen.surface("torus", 0, 2, 0, 6).to_text()
    _, qp_text = run(["qp", "-", "--order", "6"], stdin_text=tri_text, monkeypatch=monkeypatch)
    code, text = run(["explore", "-", "--depth", "99", "--order", "6"],
                     stdin_text=qp_text, monkeypatch=monkeypatch)
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        "error: node db83ba742baa has a 2-cycle, but its degree-2 terms are exact only "
        "through degree 1; rebuild the QP deeper\n")


PENTAGON = example_text("pentagon")  # 16 lines


@pytest.mark.parametrize("text, bad_line", [
    ("surface genus=0 boundary=1\nmarked p\n",
     "bad marked line 2: 'marked p' (ValueError: missing kind 'puncture' or 'boundary=')"),
    ("surface genus=0\n",
     "bad surface line 1: 'surface genus=0' (ValueError: missing boundary=)"),
    ("surface genus=0 boundary=1\nmarked p puncture scalar=1/0\n",
     "bad marked line 2: 'marked p puncture scalar=1/0' (ZeroDivisionError: Fraction(1, 0))"),
    ("surface genus=0 boundary=1\nmarked A boundary=0\nbseg AB A\n",
     "bad bseg line 3: 'bseg AB A' (ValueError: missing end point)"),
    (PENTAGON + "arc 1 A\n",
     "bad arc line 17: 'arc 1 A' (ValueError: missing end point)"),
    (PENTAGON.replace("bseg AB A B on=0\n", "bseg AB A B\n"),
     "bad bseg line 7: 'bseg AB A B' (ValueError: missing on=)"),
    ("surface boundary=1\n",
     "bad surface line 1: 'surface boundary=1' (ValueError: missing genus=)"),
    (PENTAGON.replace("marked A boundary=0\n", "marked A boundary=0\nmarked A puncture\n"),
     "bad marked line 3: 'marked A puncture' (ValueError: repeated marked point 'A')"),
    (PENTAGON + "surface genus=1 boundary=0\n",
     "bad surface line 17: 'surface genus=1 boundary=0' (ValueError: repeated surface line)"),
    (PENTAGON + "arc 9 A C extra\n",
     "bad arc line 17: 'arc 9 A C extra' (ValueError: unexpected 'extra')"),
    (PENTAGON + "tri 1 2 AB extra\n",
     "bad tri line 17: 'tri 1 2 AB extra' (ValueError: unexpected 'extra')"),
    (PENTAGON.replace("marked A boundary=0\n", "marked A boundary=0 extra=1\n"),
     "bad marked line 2: 'marked A boundary=0 extra=1' (ValueError: unexpected 'extra=1')"),
    (PENTAGON.replace("bseg AB A B on=0\n", "bseg AB A B on=0 on=1\n"),
     "bad bseg line 7: 'bseg AB A B on=0 on=1' (ValueError: unexpected 'on=1')"),
    ("surface genus=0 boundary=1\nmarked p puncture scale=2\n",
     "bad marked line 2: 'marked p puncture scale=2' (ValueError: unexpected 'scale=2')"),
    (PENTAGON + "marked X foo\n",
     "bad marked line 17: 'marked X foo' (ValueError: unexpected 'foo')"),
    (PENTAGON + "frob 1 2\n",
     "bad frob line 17: 'frob 1 2' (ValueError: unknown line kind 'frob')"),
    (PENTAGON + "tri 1 2\n",
     "bad tri line 17: 'tri 1 2' (ValueError: a triangle has three sides)"),
    (PENTAGON + "arc AB A C\n",
     "bad arc line 17: 'arc AB A C' (ValueError: repeated side id 'AB')"),
    (PENTAGON + "tri 1 X 2\n",
     "bad tri line 17: 'tri 1 X 2' (ValueError: unknown side 'X')"),
], ids=["marked-without-kind", "surface-without-boundary", "zero-denominator-scalar",
        "short-bseg", "short-arc", "bseg-without-on", "surface-without-genus",
        "repeated-marked", "repeated-surface", "extra-arc-token",
        "extra-tri-token", "extra-marked-option", "repeated-bseg-option",
        "unknown-puncture-option", "unknown-marked-kind", "unknown-line-kind", "short-tri",
        "repeated-side-id", "unknown-tri-side"])
def test_malformed_triangulation_exits_two_without_traceback(tmp_path, capsys, text, bad_line):
    path = tmp_path / "bad.tri"
    path.write_text(text, encoding="utf-8")
    assert_input_error(capsys, ["validate", str(path)], bad_line)


SELF_FOLDED = example_text("punctured-square-sf")  # tri L f f, with f from A to p
PUNCTURED_SQUARE = example_text("punctured-square-2")  # arcs 1 and 2 from p to A and C
TORUS_COPY = """\
marked q puncture
arc 4 q q
arc 5 q q
arc 6 q q
tri 4 5 6
tri 4 5 6
"""


@pytest.mark.parametrize("text, problem", [
    (PENTAGON.replace("arc 1 A C\n", "arc 1 A Z\n"), "side '1' ends at unknown point 'Z'"),
    (SELF_FOLDED.replace("arc f A p\n", "arc f A A\n"),
     "folded side 'f' of triangle 0 is a loop"),
    (SELF_FOLDED.replace("arc f A p\n", "arc f A B\n"),
     "folded side 'f' must end at an interior puncture"),
    (PENTAGON.replace("surface genus=0", "surface genus=1"),
     "arc count 2 does not match the rank 8 of the surface; Euler characteristic mismatch (1)"),
    (PENTAGON.replace("bseg EA E A on=0\n", "bseg EA E B on=0\n"),
     "boundary component 0 is not partitioned into a cycle"),
    (example_text("punctured-square-2").replace("bseg DA D A on=0\n", "bseg DA D p on=0\n"),
     "boundary segment 'DA' endpoint 'p' not on component 0"),
    ("surface genus=1 boundary=0\nmarked p puncture\n",
     "arc count 0 does not match the rank 3 of the surface; Euler characteristic mismatch (1); "
     "triangulation has no triangles"),
    (example_text("torus").replace("genus=1", "genus=2") + TORUS_COPY,
     "arc count 6 does not match the rank 12 of the surface; Euler characteristic mismatch (0); "
     "triangulation is not connected"),
    ("surface genus=0 boundary=1\nmarked A boundary=0\nmarked B boundary=0\n"
     "marked p puncture\nbseg b A A on=0\narc f A p\ntri f f b\n",
     "self-folded triangle 0 with non-arc sides"),
    (SELF_FOLDED.replace("arc L A A\n", "arc L A B\n"),
     "enclosing side 'L' of triangle 0 is not a loop"),
    (SELF_FOLDED.replace("arc f A p\n", "arc f B p\n"),
     "folded side 'f' does not join the loop base of triangle 0"),
    (PUNCTURED_SQUARE.replace("arc 1 p A\n", "arc 1 B A\n").replace("arc 2 p C\n", "arc 2 B C\n"),
     "puncture 'p' is not an endpoint of any side"),
    (PUNCTURED_SQUARE.replace("genus=0", "genus=-1"), "negative genus or boundary count"),
    (PUNCTURED_SQUARE.replace("marked p puncture\n", "marked p puncture scalar=0\n"),
     "puncture 'p' has zero scalar"),
    ("surface genus=0 boundary=1\nmarked A boundary=0\nmarked p puncture\n"
     "bseg b A A on=0\narc f A p\ntri b f f\n",
     "excluded surface: once-punctured monogon"),
], ids=["unknown-end-point", "folded-side-is-a-loop", "folded-side-ends-on-the-boundary",
        "euler-characteristic", "boundary-not-a-cycle", "puncture-on-the-boundary",
        "no-triangles", "not-connected", "self-folded-with-a-boundary-segment",
        "enclosing-side-not-a-loop", "folded-side-off-the-loop-base", "puncture-without-sides",
        "negative-genus", "zero-scalar", "once-punctured-monogon"])
def test_invalid_triangulation_exits_two_without_traceback(tmp_path, capsys, text, problem):
    # each text parses; validation names the problem
    path = tmp_path / "bad.tri"
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["validate", str(path)], out=io.StringIO()) == 2
    assert capsys.readouterr().err == "error: %s\n" % problem


# A twice-punctured triangle whose punctures, each of valence 2, were moved onto the
# boundary points C and A: the counts still fit a torus with one boundary component,
# and each moved point keeps its 2-cycle, with no puncture arrow to replace it
PINCHED = """\
surface genus=1 boundary=1
marked A boundary=0
marked B boundary=0
marked C boundary=0
bseg AB A B on=0
bseg BC B C on=0
bseg CA C A on=0
arc x A B
arc a1 C A
arc b1 C B
arc y B C
arc a2 A B
arc b2 A C
tri AB b1 a1
tri x a1 b1
tri BC b2 a2
tri y a2 b2
tri x y CA
"""

# A twice-punctured square whose punctures, each of valence 3, were moved onto the
# boundary points D and B, again under a torus with one boundary component
MOVED_SQUARE = """\
surface genus=1 boundary=1
marked A boundary=0
marked B boundary=0
marked C boundary=0
marked D boundary=0
bseg AB A B on=0
bseg BC B C on=0
bseg CD C D on=0
bseg DA D A on=0
arc 1 D A
arc 2 D B
arc 3 D C
arc 4 A C
arc 5 B C
arc 6 B D
arc 7 B A
tri 1 AB 2
tri 2 BC 3
tri 3 4 1
tri 5 CD 6
tri 6 DA 7
tri 7 4 5
"""


@pytest.mark.parametrize("text, problems", [
    (PINCHED, "rotation around boundary point 'C' misses corners; "
              "rotation around boundary point 'A' misses corners"),
    (MOVED_SQUARE, "rotation around boundary point 'B' misses corners; "
                   "rotation around boundary point 'D' misses corners"),
], ids=["pinched", "moved-square"])
def test_a_boundary_point_whose_corners_do_not_chain_is_refused(tmp_path, capsys, text,
                                                                problems):
    # the corners at each moved point split into a chain between its two boundary
    # segments and a cycle the chain never reaches
    path = tmp_path / "pinched.tri"
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["validate", str(path)], out=io.StringIO()) == 2
    assert capsys.readouterr().err == "error: %s\n" % problems
    assert cli.main(["qp", str(path)], out=io.StringIO()) == 2
    assert capsys.readouterr().err == "error: invalid triangulation: %s\n" % problems


def test_malformed_triangulation_exits_two_in_a_fresh_process(tmp_path):
    # the other input-error rows run in process; this one keeps the exit
    # status of a real `python -m qpsurf.cli` covered
    path = tmp_path / "bad.tri"
    path.write_text(PENTAGON + "frob 1 2\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "qpsurf.cli", "validate", str(path)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ("error: bad frob line 17: 'frob 1 2' "
                           "(ValueError: unknown line kind 'frob')\n")


UNDECODABLE = b"\xff\xfe\x00"


@pytest.mark.parametrize("argv", [["validate"], ["dim"], ["mutate", "1"]],
                         ids=["validate", "dim", "mutate"])
def test_undecodable_file_exits_two_without_traceback(tmp_path, capsys, argv):
    path = tmp_path / "bad.bin"
    path.write_bytes(UNDECODABLE)
    code, text = run(argv[:1] + [str(path)] + argv[1:])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == ("error: 'utf-8' codec can't decode byte 0xff in "
                                       "position 0: invalid start byte\n")


def test_undecodable_stdin_exits_two_without_traceback():
    # how stdin decodes bad bytes depends on the interpreter's error handler,
    # so only the exit code and the absence of a traceback are fixed
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "qpsurf.cli", "dim", "-"], input=UNDECODABLE,
                          capture_output=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b"" and b"Traceback" not in proc.stderr


def test_undecodable_stdin_under_a_strict_handler_is_refused():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8:strict")
    proc = subprocess.run([sys.executable, "-m", "qpsurf.cli", "dim", "-"], input=UNDECODABLE,
                          capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == (b"error: 'utf-8' codec can't decode byte 0xff in position 0: "
                           b"invalid start byte\n")


def assert_input_error(capsys, argv, bad_line):
    """Run the CLI in process: exit 2, nothing raised past `main`, the line named."""
    capsys.readouterr()
    code = cli.main(argv, out=io.StringIO())
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert bad_line in err


TRIANGLE_QP = """\
truncation: 6
v 1
v 2
v 3
a a 3 1
a b 2 3
a c 1 2
potential:
1/1 a b c
"""


@pytest.mark.parametrize("old, new, bad_line", [
    ("1/1 a b c", "1/0 a b c", "line 9"),
    ("truncation: 6", "truncation: x", "line 1"),
    ("truncation: 6", "truncation:", "line 1"),
    ("v 1\n", "v\n", "line 2"),
    ("a a 3 1", "a x 1", "line 5"),
    ("truncation: 6", "truncation: 3\ntruncation: 9",
     "bad truncation line 2: 'truncation: 9' (repeated truncation line)"),
    ("v 2\n", "v 1\n", "bad quiver line 3: 'v 1' (repeated vertex id '1')"),
    ("a b 2 3", "a a 2 3", "bad quiver line 6: 'a a 2 3' (repeated arrow id 'a')"),
    ("a c 1 2", "a c 1 9",
     "bad quiver line 7: 'a c 1 9' (arrow 'c' has undeclared endpoint '9')"),
    ("a c 1 2", "a c 1 1", "bad quiver line 7: 'a c 1 1' (arrow 'c' is a loop)"),
    ("1/1 a b c", "1/1 a b",
     "error: potential has a non-cyclic term ('a', 'b') (line 9)\n"),
    ("1/1 a b c", "1/1 a b c\n# a rotation\n2/1 c a b",
     "error: invalid QP: cyclically equivalent distinct terms ('a', 'b', 'c') and "
     "('c', 'a', 'b') (lines 9, 11)\n"),
], ids=["zero-denominator-coefficient", "non-integer-truncation", "empty-truncation",
        "vertex-without-id", "short-arrow", "repeated-truncation", "repeated-vertex",
        "repeated-arrow", "undeclared-endpoint", "loop-arrow", "non-cyclic-term",
        "rotated-duplicate-terms"])
def test_malformed_qp_exits_two_without_traceback(tmp_path, capsys, old, new, bad_line):
    path = tmp_path / "bad.qp"
    path.write_text(TRIANGLE_QP.replace(old, new), encoding="utf-8")
    for argv in (["mutate", str(path), "2"], ["dim", str(path)]):
        assert_input_error(capsys, argv, bad_line)


@pytest.mark.parametrize("terms, message", [
    ("1/1 a b\n1/1 a b\n", "potential has a non-cyclic term ('a', 'b') (lines 9, 10)"),
    ("1/1 a b c\n1/1 b c a\n1/1 c a b\n",
     "invalid QP: cyclically equivalent distinct terms ('a', 'b', 'c') and ('b', 'c', 'a'); "
     "cyclically equivalent distinct terms ('a', 'b', 'c') and ('c', 'a', 'b') "
     "(lines 9, 10, 11)"),
    # a zero line is not named
    ("1/1 a b c\n0/1 b c a\n1/1 b c a\n",
     "invalid QP: cyclically equivalent distinct terms ('a', 'b', 'c') and ('b', 'c', 'a') "
     "(lines 9, 11)"),
    # but it puts its word first in the check order
    ("0/1 a b\n1/1 b c\n1/1 a b\n", "potential has a non-cyclic term ('a', 'b') (line 11)"),
    ("1/1 b c\n1/1 a b\n", "potential has a non-cyclic term ('b', 'c') (line 9)"),
], ids=["repeated-non-cyclic", "three-rotations", "zero-rotation-line", "zero-line-order",
        "no-zero-line-order"])
def test_refused_potential_names_its_term_lines(tmp_path, capsys, terms, message):
    path = tmp_path / "bad.qp"
    path.write_text(TRIANGLE_QP.replace("1/1 a b c\n", terms), encoding="utf-8")
    assert_input_error(capsys, ["dim", str(path)], "error: %s\n" % message)


@pytest.mark.parametrize("terms", ["1/1 a b c\n-1/1 a b\n1/1 a b\n", "1/1 a b c\n0/1 x y\n"],
                         ids=["cancelling-lines", "zero-line-unknown-arrows"])
def test_potential_lines_that_sum_to_the_triangle_are_accepted(tmp_path, terms):
    path = tmp_path / "triangle.qp"
    path.write_text(TRIANGLE_QP, encoding="utf-8")
    expected = run(["dim", str(path)])
    path.write_text(TRIANGLE_QP.replace("1/1 a b c\n", terms), encoding="utf-8")
    assert run(["dim", str(path)]) == expected and expected[0] == 0


@pytest.mark.parametrize("argv, message", [
    (["explore", "--order", "0"], "order must be >= 1"),
    (["explore", "--order", "7"], "order 7 exceeds the QP truncation 6; rebuild the QP deeper"),
    (["explore", "--order", "99"], "order 99 exceeds the QP truncation 6; rebuild the QP deeper"),
    (["explore", "--depth", "-1"], "depth must be >= 0"),
    (["dim", "--stabilize", "--order", "-3"], "order must be >= 1"),
    (["dim", "--stabilize", "--order", "99"],
     "order 99 exceeds the QP truncation 6; rebuild the QP deeper"),
], ids=["explore-order-0", "explore-order-7", "explore-order-99", "explore-negative-depth",
        "stabilize-negative-order", "stabilize-order-99"])
def test_out_of_range_arguments_exit_two_without_traceback(tmp_path, capsys, argv, message):
    path = tmp_path / "triangle.qp"
    path.write_text(TRIANGLE_QP, encoding="utf-8")
    assert_input_error(capsys, [argv[0], str(path)] + argv[1:], message)


@pytest.mark.parametrize("name", ["pentagon", "hexagon-fan", "annulus"])
def test_qp_and_potential_refuse_an_order_below_one(tmp_path, capsys, name):
    # `qp --order 0` on a surface without cycles used to print `truncation: 0`,
    # a QP text that `dim` and `mutate` then refused
    path = write_example(tmp_path, name)
    for command in (["qp"], ["potential"], ["potential", "--unreduced"]):
        for order in ("0", "-1"):
            assert_input_error(capsys, command + [path, "--order", order],
                               "error: truncation order must be >= 1\n")


@pytest.mark.parametrize("command, args", [
    (["mutate"], ["2"]),
    (["dim"], []),
    (["rigid"], []),
    (["check", "involution"], ["2"]),
    (["explore"], ["--depth", "0"]),
], ids=["mutate", "dim", "rigid", "check-involution", "explore-depth-0"])
def test_rotations_of_one_cycle_exit_two_without_traceback(tmp_path, capsys, command, args):
    path = tmp_path / "rotated.qp"
    path.write_text(TRIANGLE_QP + "1/1 b c a\n", encoding="utf-8")
    assert_input_error(capsys, command + [str(path)] + args,
                       "error: invalid QP: cyclically equivalent distinct terms")


def test_output_closed_early_exits_two_without_traceback():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "qpsurf.cli", "qp", "-"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONPATH=src))
    # the child writes only once it has read all of stdin, after this close
    proc.stdout.close()
    _, err = proc.communicate(example_text("torus"), timeout=60)
    assert proc.returncode == 2, err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_stdout_closed_at_start_exits_two_without_traceback():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "qpsurf.cli", "examples", "torus"],
                          stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1),
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: standard output is closed\n"


@pytest.mark.parametrize("argv", [["dim", "-"], ["validate"]], ids=["dim", "validate"])
def test_stdin_closed_at_start_exits_two_without_traceback(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "qpsurf.cli"] + argv, capture_output=True,
                          text=True, preexec_fn=lambda: os.close(0),
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == "error: standard input is closed\n"


def test_unknown_subcommand_exits_two():
    code, _ = run(["frobnicate"])
    assert code == 2


@pytest.mark.parametrize("name", ["torus", "punctured-square-sf"])
def test_outputs_do_not_depend_on_the_hash_seed(name):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

    def outputs(seed):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)

        def cli_run(argv, stdin_text):
            proc = subprocess.run([sys.executable, "-m", "qpsurf.cli"] + argv, input=stdin_text,
                                  capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        tri = example_text(name)
        qp_text = cli_run(["qp", "-"], tri)
        vertex = QP.from_text(qp_text).quiver.vertices[0]
        return [qp_text, cli_run(["quiver", "-", "--unreduced"], tri),
                cli_run(["mutate", "-", vertex], qp_text),
                cli_run(["explore", "-", "--depth", "2"], qp_text),
                cli_run(["dim", "-", "--order", "6"], qp_text),
                cli_run(["dim", "-", "--order", "6", "--stabilize"], qp_text),
                cli_run(["rigid", "-", "--order", "6"], qp_text)]

    assert outputs("1") == outputs("2")


def test_outputs_are_deterministic(tmp_path):
    path = write_example(tmp_path, "punctured-square-2")
    outs = set()
    for _ in range(2):
        _, text = run(["qp", path])
        outs.add(text)
    assert len(outs) == 1


# sha256 of stdout, recorded before the CLI imported per command
POTENTIAL_UNREDUCED = {
    "torus": "a8e885b3f4af5248923b0919b48dfaa0e4262ebcc66310e69f20065722a7cd35",
    "punctured-square-2": "1df9ff9c6840ea883157e2f0469d875e1942a4ab14d407a7fc471172fea5d158",
}
DIM_STABILIZE_7 = {
    "punctured-square-2": "68ec584e8cea9d0c3648eb3673c438b7056945f6d197fd4532472baff2633f84",
    "pentagon": "3c6041fbf608aa271896f1d843142c337515ab0f25043e63c6cd7cd470b4ff92",
}


@pytest.mark.parametrize("name", sorted(POTENTIAL_UNREDUCED))
def test_unreduced_potential_text_is_pinned(tmp_path, name):
    code, text = run(["potential", write_example(tmp_path, name), "--unreduced"])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == POTENTIAL_UNREDUCED[name]


@pytest.mark.parametrize("name", sorted(DIM_STABILIZE_7))
def test_stabilized_dim_text_is_pinned(tmp_path, monkeypatch, name):
    _, qp_text = run(["qp", write_example(tmp_path, name), "--order", "7"])
    code, text = run(["dim", "-", "--order", "7", "--stabilize"],
                     stdin_text=qp_text, monkeypatch=monkeypatch)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == DIM_STABILIZE_7[name]


def imported(args, stdin_text=None):
    """The qpsurf submodules, `dataclasses` and `hashlib` a fresh process imports.

    Runs `python -S -X importtime <args>`; -S keeps site-packages start-up
    hooks from importing modules before qpsurf does.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime"] + args, input=stdin_text,
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    names = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name.startswith("qpsurf.") or name in ("dataclasses", "hashlib"):
                names.add(name.replace("qpsurf.", ""))
    return names


SURFACE = {"surface", "quiver"}
MUTATION = {"qp", "algebra", "quiver", "linalg"}
JACOBIAN = MUTATION | {"jacobian"}
ASSEMBLY = MUTATION | {"potential", "surface"}
EVERYTHING = ASSEMBLY | {"jacobian", "verify", "hashlib"}


COMMAND_MODULES = [
    (["examples", "torus"], None, {"examples_data"}),
    (["validate", "-"], "tri", SURFACE),
    (["matrix", "-"], "tri", SURFACE),
    (["flip", "-", "1"], "tri", SURFACE),
    (["quiver", "-"], "tri", SURFACE),
    (["quiver", "-", "--unreduced"], "tri", SURFACE),
    (["potential", "-"], "tri", ASSEMBLY),
    (["potential", "-", "--unreduced"], "tri", ASSEMBLY),
    (["qp", "-"], "tri", ASSEMBLY),
    (["mutate", "-", "2"], "qp", MUTATION),
    (["dim", "-"], "qp", JACOBIAN),
    (["dim", "-", "--stabilize"], "qp", JACOBIAN),
    (["rigid", "-"], "qp", JACOBIAN),
    (["check", "flip-compat", "-", "1"], "tri", EVERYTHING),
    (["check", "involution", "-", "2", "--order", "4"], "qp", EVERYTHING),
    (["explore", "-", "--depth", "1"], "qp", EVERYTHING),
]


@pytest.mark.parametrize("argv, stdin, modules", COMMAND_MODULES,
                         ids=[" ".join(argv) for argv, _, _ in COMMAND_MODULES])
def test_each_command_imports_only_its_modules(monkeypatch, argv, stdin, modules):
    tri = example_text("torus")
    inputs = {None: None, "tri": tri}
    if stdin == "qp":
        inputs["qp"] = run(["qp", "-"], stdin_text=tri, monkeypatch=monkeypatch)[1]
    assert imported(["-m", "qpsurf.cli"] + argv, inputs[stdin]) == modules


def test_bare_package_import_loads_no_submodule():
    assert imported(["-c", "import qpsurf"]) == set()


# sha256 of one transcript per corpus file, recorded before the net-matrix and
# opposite-pair rules were shared: exit code, stdout and stderr of `matrix`,
# `quiver`, `quiver --unreduced`, `flip` and `check flip-compat --order 6` on
# every arc, and `check involution --order 6` at every vertex of `qp --order 6`
CORPUS_TRANSCRIPT = {
    "torus": "cc2876e864fee4092f17ff8e4b3c3c028b06fec0595be989aac772ffafcb28bc",
    "pentagon": "c56aa0ee7309bdc85b8ee2cff9603ff2ad6fa6e7a4681590052e30388e5ade49",
    "hexagon-fan": "b6a269c1be9fb00e5073cf973963a82ab405a7721f20d6832b716d775fe15c75",
    "hexagon-central": "4f7a7f0649b4c6a63316a4ba985bc9d663172f25016637b2b2995aa2949965dd",
    "annulus": "e01ea7705fb0ec58b3a2b471d6c172c0b275b453143b6792ba364f5909754600",
    "punctured-square-4": "b21501ff7d0d6fc7dd117e5b16ba912db6cb62781fcc4b2501caa071828d68fd",
    "punctured-square-3": "d669be940c9daecf7fbb14f3f05eae099e96e0133490db879f8a21721fe1d15f",
    "punctured-square-2": "4693c48b21c581456074acb835221fef1c38e1266ee4238805168fb335ab0bd9",
    "punctured-square-sf": "c5e2b9019d9a9f10609c1e73045105ee01f9a31100c12f22fcc82cd30f276829",
}


def corpus_transcript(tmp_path, capsys, name):
    tri = write_example(tmp_path, name)
    arcs = Triangulation.from_text(example_text(name)).arcs
    qp = tmp_path / (name + ".qp")
    argvs = [["matrix", tri], ["quiver", tri], ["quiver", tri, "--unreduced"]]
    argvs += [["flip", tri, arc] for arc in arcs]
    argvs += [["check", "flip-compat", tri, arc, "--order", "6"] for arc in arcs]
    argvs += [["qp", tri, "--order", "6"]]
    argvs += [["check", "involution", str(qp), arc, "--order", "6"] for arc in arcs]
    h = hashlib.sha256()
    for argv in argvs:
        code, text = run(argv)
        if argv[0] == "qp":
            qp.write_text(text, encoding="utf-8")
        label = " ".join(a for a in argv if a not in (tri, str(qp)))
        h.update(("%s\0%d\0%s\0%s\0" % (label, code, text, capsys.readouterr().err)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", CORPUS)
def test_surface_commands_and_checks_text_is_pinned(tmp_path, capsys, name):
    assert corpus_transcript(tmp_path, capsys, name) == CORPUS_TRANSCRIPT[name]


# sha256 of one `mutate` transcript per corpus file, recorded before the
# potential check and cyclic normal form moved into one pass: exit code,
# stdout and stderr of `mutate` at every vertex of `qp --order 6` and
# `qp --order 7`, and at every vertex of each one-step mutation at order 6
MUTATE_TRANSCRIPT = {
    "torus": "a248c18515a7d84ee178c6eaa2fff4fabb9570d6125a81450943280819fc0418",
    "pentagon": "1a85c2af1edf76bd1dfe57d7e3d2c4f9114c1da82bc359d76a08b56484736aae",
    "hexagon-fan": "3038368200875e1cfb1f2728ebcb6b8cf4ddf1114a44f2d5a2da2816e14985e8",
    "hexagon-central": "c3fd6ce5aaa330ff4c442548c2115e5919b6c43291b3acd5450ae7695b122d45",
    "annulus": "aec21a061c448bbe3c6c63c20cdaece99cec0a3a2c30f5dc7f12163bb5597f77",
    "punctured-square-4": "08edb21543adf056326ac79c6cc7a9194962fd8620b052dd57391aa01d0e69e6",
    "punctured-square-3": "baec6256f135c9b3ace7c244d1792febd642533c442a896d8f54c928563621e0",
    "punctured-square-2": "521437602190cf3072ec7b51a2bf67070852cee708fbd2eb912654c8d4bf5d31",
    "punctured-square-sf": "820e9523fc6fe3351f605cd73d196e996a27a92633533ca82808902e6add19ee",
}


def mutate_transcript(tmp_path, capsys, monkeypatch, name):
    tri = write_example(tmp_path, name)
    h = hashlib.sha256()

    def step(label, argv, stdin_text):
        code, text = run(argv, stdin_text, monkeypatch)
        h.update(("%s\0%d\0%s\0%s\0" % (label, code, text, capsys.readouterr().err)).encode())
        return code, text

    for order in ("6", "7"):
        _, qp_text = run(["qp", tri, "--order", order])
        capsys.readouterr()
        for v in QP.from_text(qp_text).quiver.vertices:
            code, once = step("%s %s" % (order, v), ["mutate", "-", v], qp_text)
            if order != "6" or code != 0:
                continue
            for w in QP.from_text(once).quiver.vertices:
                step("%s %s %s" % (order, v, w), ["mutate", "-", w], once)
    return h.hexdigest()


@pytest.mark.parametrize("name", CORPUS)
def test_mutate_text_is_pinned(tmp_path, capsys, monkeypatch, name):
    assert mutate_transcript(tmp_path, capsys, monkeypatch, name) == MUTATE_TRANSCRIPT[name]


# sha256 of one transcript per corpus file, recorded before the triangulation
# analysis dropped its duplicate orientation and fold maps: exit code, stdout
# and stderr of `quiver --unreduced`, `potential --unreduced --order 8` and
# `qp --order 8` on the file and on each of its one-step flips, and of every
# `flip`, including the refused flips of folded sides
FLIP_TRANSCRIPT = {
    "torus": "2489d5b13f3a6886684d2aa2ecd3693697772eef725f94eb740ef7da7faa1b51",
    "pentagon": "e968bff902eba6ea9e062d7a16fac010af17e8f5e4f484a849a0107247b483bf",
    "hexagon-fan": "6c1a4456663fe4b3b981dee6522b55c5b0626c6cb126836f04a86bb50c4c26f0",
    "hexagon-central": "4993f95ce95659000691790d9dede3d655bd42e31e23240ed7c6ba8b445664a3",
    "annulus": "c0585ec5d677d18ae0621aa335b81fe5e3205ea43b3549a7d9a57403a10a0d9b",
    "punctured-square-4": "909f91da640f2d5989dc40dd9d6a4957ad78a459b40752851bbe4edcfee65958",
    "punctured-square-3": "e698b23f4f0c7a65d595686877228e19993147e74792c51a47a3a78815ec483a",
    "punctured-square-2": "0b01439e055866ae3887150ed18e65705dc7afdd672db4404c5f2065fc7782dc",
    "punctured-square-sf": "b4bffb40528637fefe23a0879b7dfd4376cb39e95a46fba7e1a46aea518f86ad",
}


def flip_transcript(tmp_path, capsys, name):
    h = hashlib.sha256()

    def step(label, argv):
        code, text = run(argv)
        h.update(("%s\0%d\0%s\0%s\0" % (label, code, text, capsys.readouterr().err)).encode())
        return code, text

    def analysed(label, path):
        step(label + " quiver", ["quiver", path, "--unreduced"])
        step(label + " potential", ["potential", path, "--unreduced", "--order", "8"])
        step(label + " qp", ["qp", path, "--order", "8"])

    tri = write_example(tmp_path, name)
    analysed(name, tri)
    flipped = tmp_path / "flipped.tri"
    for arc in Triangulation.from_text(example_text(name)).arcs:
        code, text = step("flip " + arc, ["flip", tri, arc])
        if code == 0:
            flipped.write_text(text, encoding="utf-8")
            analysed(arc, str(flipped))
    return h.hexdigest()


@pytest.mark.parametrize("name", CORPUS)
def test_flip_analysis_text_is_pinned(tmp_path, capsys, name):
    assert flip_transcript(tmp_path, capsys, name) == FLIP_TRANSCRIPT[name]


def rotated_transcript(capsys, monkeypatch, name):
    """Exit code, stdout and stderr of the QP commands on the corpus QP at
    order 6 with every term rotated by one arrow."""
    text = rotated_qp(load_qp(name)).to_text()
    vertices = QP.from_text(text).quiver.vertices
    argvs = [["dim", "-"], ["rigid", "-"], ["explore", "-", "--depth", "1"]]
    for i, k in enumerate(vertices):
        keep = ",".join(v for v in vertices if v != vertices[(i + 1) % len(vertices)])
        argvs += [["mutate", "-", k], ["check", "involution", "-", k],
                  ["check", "restriction", "-", k, "--keep", keep]]
    h = hashlib.sha256(text.encode())
    for argv in argvs:
        code, out = run(argv, text, monkeypatch)
        h.update(("%s\0%d\0%s\0%s\0" % (" ".join(argv), code, out,
                                         capsys.readouterr().err)).encode())
    return h.hexdigest()


# sha256 of `rotated_transcript`, recorded before a QP came to hold its
# words: a QP keeps each term in the rotation it was given, so a rotated
# input prints rotated terms and digests of its own
ROTATED_TRANSCRIPT = {
    "torus": "ff62a0a86039629e56351d95956bd9178b8f61a4716a51fd1d17c0e4d4b16e80",
    "pentagon": "0b3bd7ddce915e6955e3dc038441824ffca2c236f7a07919fdfceaf81b9722c9",
    "hexagon-fan": "189bcc75c1b94146c3509c88d51a1c8a3bd258976166a13a8a89745ac1f5719f",
    "hexagon-central": "0b22066d934690c5f83e105c3ddb14f1a1968f90db3ff424d65f4df3d37e19b6",
    "annulus": "8d814028a6a5b230e531c03b44fb5c143e28e1dac1d3964f1b199ca19a9b6d5e",
    "punctured-square-4": "f9999f4d020fa9979e2930c41534644c491e7a772118e0c1f01ebfdb17739c79",
    "punctured-square-3": "7b27f7d9ab2fbb5b0065b42e0c3c602e4e772a8397a5d28c5d4826c2335e393c",
    "punctured-square-2": "924918e934ca7e70d26954e88b252ab27af03c05e4eb5fbbcb9ac8a24bd8d822",
    "punctured-square-sf": "038b4cf37431a7cb22379b67282555d0d56b262516bf52eca7c9cbad3acca688",
}


@pytest.mark.parametrize("name", CORPUS)
def test_rotated_input_text_is_pinned(capsys, monkeypatch, name):
    assert rotated_transcript(capsys, monkeypatch, name) == ROTATED_TRANSCRIPT[name]


@pytest.mark.parametrize("name", CORPUS)
def test_check_flip_compat_names_a_bad_arc_as_flip_does(tmp_path, capsys, name):
    # an unknown name, a boundary segment and a puncture are refused by
    # `flip`, which the check runs before it mutates
    tri = write_example(tmp_path, name)
    parsed = Triangulation.from_text(example_text(name))
    for arc in ("zz", *parsed.bsegs[:1], *parsed.surface.punctures[:1]):
        flipped = run(["flip", tri, arc]), capsys.readouterr().err
        checked = run(["check", "flip-compat", tri, arc]), capsys.readouterr().err
        assert flipped == checked == ((2, ""), "error: unknown arc %r\n" % arc), arc
