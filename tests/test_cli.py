"""Command line: subcommands, formats, exit codes."""

import io
import os
import pathlib
import subprocess
import sys
import time

import pytest

from bordcalc import cli
from bordcalc import frobenius as fr
from bordcalc import linear as ln
from bordcalc import presentations as pr
from bordcalc import surface as sf
from bordcalc import termcore as tc
from bordcalc._diagram import DiagramError

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_valid(capsys):
    code, out, _ = run(["check", str(DEMOS / "terms/sphere.bc")], capsys)
    assert code == 0 and out.strip() == "VALID"


def test_check_invalid(tmp_path, capsys):
    bad = tmp_path / "bad.bc"
    bad.write_text("(cap . cap)", encoding="utf-8")
    code, out, err = run(["check", str(bad)], capsys)
    assert code == cli.EXIT_INVALID
    assert "INVALID" in err


def test_eval_torus_m2(capsys):
    code, out, _ = run(["eval", str(DEMOS / "terms/torus_oriented.bc"),
                        "--algebra", str(DEMOS / "algebras/m2q.alg"),
                        "--presentation", "oriented"], capsys)
    assert code == 0
    assert out.strip() == "4"


def test_eval_builtin_algebra(capsys):
    code, out, _ = run(["eval", str(DEMOS / "terms/sphere_oriented.bc"),
                        "--algebra", "M2Q", "--presentation", "oriented"],
                       capsys)
    assert code == 0 and out.strip() == "2"


def test_invariants_sphere(capsys):
    code, out, _ = run(["invariants", str(DEMOS / "terms/sphere.bc")], capsys)
    assert code == 0
    assert out.strip() == "components=1; [chi=2 orientable=true boundary=0]"


def test_invariants_klein(capsys):
    code, out, _ = run(["invariants", str(DEMOS / "terms/klein.bc")], capsys)
    assert code == 0
    assert out.strip() == "components=1; [chi=0 orientable=false boundary=0]"


def test_rewrite_cusp_zigzag(tmp_path, capsys):
    strip = tmp_path / "idpt.bc"
    strip.write_text("(id[I[pt]])", encoding="utf-8")
    code, out, _ = run(["rewrite", str(DEMOS / "terms/cusp_zigzag.bc"),
                        "--to", str(strip), "--depth", "1"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "EQUIVALENT 1"
    assert "cusp-inversion" in out


def test_rewrite_unknown(capsys):
    code, out, _ = run(["rewrite", str(DEMOS / "terms/sphere.bc"),
                        "--to", str(DEMOS / "terms/torus.bc"),
                        "--depth", "2", "--max-visited", "2000"], capsys)
    assert code == cli.EXIT_FAILED
    assert out.strip() == "UNKNOWN"


@pytest.mark.parametrize("budget, stop", [
    (["--depth", "1"], "depth"), (["--depth", "2", "--max-visited", "3"],
                                  "budget")])
def test_rewrite_unknown_names_its_stop_reason(capsys, budget, stop):
    code, out, err = run(["rewrite", str(DEMOS / "terms/torus.bc"),
                          "--to", str(DEMOS / "terms/genus2.bc")] + budget,
                         capsys)
    assert code == cli.EXIT_FAILED and out == "UNKNOWN\n"
    assert len(err.splitlines()) == 1
    assert err.startswith("ERROR search stopped (%s): " % stop)
    assert "nodes_expanded 1;" in err
    assert "not a proof of non-equivalence" in err


@pytest.mark.parametrize("budget", [["--depth", "-1"],
                                    ["--max-visited", "-3"]])
def test_rewrite_negative_budget_is_usage_error(capsys, budget):
    code, out, err = run(["rewrite", str(DEMOS / "terms/cusp_zigzag.bc"),
                          "--to", str(DEMOS / "rewrite/identity_strip.bc")]
                         + budget, capsys)
    _one_line_error(code, out, err, cli.EXIT_USAGE)
    assert "non-negative" in err


def test_closed_stdout_ends_without_traceback():
    """A reader that closes the pipe early (`| head -3`) ends the output;
    the command still ends with its own exit code and no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bordcalc.cli", "verify", "--algebra",
             str(DEMOS / "algebras/qx2.alg"), "--presentation", "oriented"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == cli.EXIT_FAILED


def test_verify_pass(capsys):
    code, out, _ = run(["verify", "--algebra", "M2Q",
                        "--presentation", "oriented"], capsys)
    assert code == 0
    assert all(line.startswith("PASS") for line in out.strip().splitlines())


def test_verify_fail_qx2(capsys):
    code, out, _ = run(["verify", "--algebra", str(DEMOS / "algebras/qx2.alg"),
                        "--presentation", "oriented"], capsys)
    assert code == cli.EXIT_FAILED
    lines = out.strip().splitlines()
    assert any(line.startswith("FAIL") for line in lines)


def test_presentation_dump(capsys):
    code1, out1, _ = run(["presentation", "--dump", "unoriented"], capsys)
    code2, out2, _ = run(["presentation", "--dump", "unoriented"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "2-gen cap [cap]" in out1
    assert "relations" in out1


def test_linear_moves(capsys):
    code, out, _ = run(["linear", str(DEMOS / "diagrams/paper_figure.ld"),
                        "--moves"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "circles=1 intervals=2"
    assert all(line.endswith("ok") for line in lines[1:])


def test_format_lines_prefixes(capsys):
    code, out, _ = run(["--format", "lines", "invariants",
                        str(DEMOS / "terms/sphere.bc")], capsys)
    assert code == 0
    assert out.strip() == \
        "invariants\tcomponents=1; [chi=2 orientable=true boundary=0]"


# ---------------------------------------------------------------------------
# golden transcript of the CLI over demos/
# ---------------------------------------------------------------------------

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli_demos.txt"
ORIENTED_DEMOS = ("terms/sphere_oriented.bc", "terms/torus_oriented.bc")


def _golden_commands():
    terms = sorted(p.relative_to(DEMOS).as_posix()
                   for p in (DEMOS / "terms").glob("*.bc"))
    cmds = []
    for t in terms:
        for pres in ("unoriented", "oriented"):
            cmds.append(["invariants", t, "--presentation", pres])
    for t in ORIENTED_DEMOS:
        cmds.append(["eval", t, "--algebra", "M2Q",
                     "--presentation", "oriented"])
    for pres in ("unoriented", "oriented"):
        cmds.append(["presentation", "--dump", pres])
    cmds.append(["linear", "diagrams/paper_figure.ld", "--moves"])
    return cmds


def _transcript(capsys):
    """Stdout, stderr and exit code of every golden command, demo paths
    written relative to demos/."""
    chunks = []
    for cmd in _golden_commands():
        argv = [str(DEMOS / a) if (DEMOS / a).is_file() else a for a in cmd]
        code, out, err = run(argv, capsys)
        chunks.append("$ bordcalc %s\n%s[stderr]\n%s[exit %d]\n"
                      % (" ".join(cmd), out, err, code))
    return "".join(chunks)


def test_cli_golden_transcript(capsys):
    assert _transcript(capsys) == GOLDEN.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# the front door of eval and verify: one stderr line and an exit code
# ---------------------------------------------------------------------------

def _one_line_error(code, out, err, expected):
    assert code == expected
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("ERROR ")


def _write_without(tmp_path, directive):
    """demos/algebras/m2q.alg with every line of `directive` dropped."""
    lines = (DEMOS / "algebras/m2q.alg").read_text(encoding="utf-8")
    path = tmp_path / ("no_%s.alg" % directive)
    path.write_text("".join(line for line in lines.splitlines(True)
                            if not line.startswith(directive + " ")),
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", [
    ["eval", str(DEMOS / "terms/torus_oriented.bc")], ["verify"]])
def test_eval_verify_missing_algebra_file(tmp_path, capsys, command):
    code, out, err = run(command + ["--algebra", str(tmp_path / "none.alg")],
                         capsys)
    _one_line_error(code, out, err, cli.EXIT_USAGE)
    assert "none.alg" in err


@pytest.mark.parametrize("command", [
    ["eval", str(DEMOS / "terms/torus_oriented.bc")], ["verify"]])
@pytest.mark.parametrize("directive, presentation", [
    ("e", "oriented"), ("lambda", "oriented"), ("star", "unoriented")])
def test_eval_verify_algebra_lacking_structure(tmp_path, capsys, command,
                                               directive, presentation):
    alg = _write_without(tmp_path, directive)
    code, out, err = run(command + ["--algebra", alg,
                                    "--presentation", presentation], capsys)
    _one_line_error(code, out, err, cli.EXIT_USAGE)


def test_eval_not_symmetric_frobenius(tmp_path, capsys):
    alg = tmp_path / "lam1.alg"
    alg.write_text((DEMOS / "algebras/m2q.alg").read_text(encoding="utf-8")
                   .replace("lambda 1:1 4:1", "lambda 1:1"), encoding="utf-8")
    code, out, err = run(["eval", str(DEMOS / "terms/torus_oriented.bc"),
                          "--algebra", str(alg)], capsys)
    _one_line_error(code, out, err, cli.EXIT_USAGE)
    assert "not symmetric Frobenius" in err


@pytest.mark.parametrize("command", [
    ["eval", str(DEMOS / "terms/torus_oriented.bc")], ["verify"]])
def test_eval_verify_algebra_with_a_repeated_index(tmp_path, capsys, command):
    alg = tmp_path / "repeated.alg"
    alg.write_text((DEMOS / "algebras/m2q.alg").read_text(encoding="utf-8")
                   .replace("lambda 1:1 4:1", "lambda 1:1 4:1 1:1"),
                   encoding="utf-8")
    code, out, err = run(command + ["--algebra", str(alg)], capsys)
    _one_line_error(code, out, err, cli.EXIT_USAGE)
    assert "duplicate index 1" in err


@pytest.mark.parametrize("old, new, message", [
    ("dim 4", "dim 0_4", "line 2: invalid dim '0_4'"),
    ("mult 1 2 ->", "mult 1 ٢ ->", "line 4: invalid index '٢'"),
])
def test_verify_refuses_an_index_not_in_ascii_digits(tmp_path, capsys, old,
                                                     new, message):
    alg = tmp_path / "digits.alg"
    alg.write_text((DEMOS / "algebras/m2q.alg").read_text(encoding="utf-8")
                   .replace(old, new), encoding="utf-8")
    code, out, err = run(["verify", "--algebra", str(alg)], capsys)
    _one_line_error(code, out, err, cli.EXIT_USAGE)
    assert message in err


def test_verify_refuses_an_exponent_coefficient_at_once(tmp_path, capsys):
    alg = tmp_path / "exponent.alg"
    alg.write_text("dim 1\nmult 1 1 -> 1:1\nunit 1:1e999999999\n",
                   encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(["verify", "--algebra", str(alg)], capsys)
    assert time.perf_counter() - start < 1.0
    _one_line_error(code, out, err, cli.EXIT_USAGE)
    assert "line 3: invalid rational '1e999999999'" in err


def test_verify_algebra_with_a_dim_beyond_its_rows(tmp_path, capsys):
    from tests.test_frobenius import HUGE_DIM
    alg = tmp_path / "huge.alg"
    alg.write_text(HUGE_DIM, encoding="utf-8")
    code, out, err = run(["verify", "--algebra", str(alg)], capsys)
    _one_line_error(code, out, err, cli.EXIT_USAGE)
    assert "nonzero mult rows" in err


def test_verify_names_first_failing_triple(tmp_path, capsys):
    # Q[x]/(x^2) with 1.x = 1 + x and x.x = x: (1.1).x != 1.(1.x)
    alg = tmp_path / "nonassociative.alg"
    alg.write_text("dim 2\nmult 1 1 -> 1:1\nmult 1 2 -> 1:1 2:1\n"
                   "mult 2 1 -> 2:1\nmult 2 2 -> 2:1\nunit 1:1\n"
                   "lambda 2:1\ne 1,2:1 2,1:1\n", encoding="utf-8")
    code, out, err = run(["verify", "--algebra", str(alg)], capsys)
    _one_line_error(code, out, err, cli.EXIT_USAGE)
    assert "not symmetric Frobenius: failed associative ((0,0,1))," in err


def test_verify_refuses_a_large_non_unital_algebra_quickly(tmp_path,
                                                          capsys):
    # dim 120 where only b1 multiplies, as a left unit: associative, but
    # b_i . b1 = 0 for i > 1, so not unital.  Associativity is tried only
    # on triples with a nonzero inner product, not on all 120^3.
    alg = tmp_path / "left_unit.alg"
    alg.write_text("\n".join(
        ["dim 120"] + ["mult 1 %d -> %d:1" % (i, i) for i in range(1, 121)]
        + ["unit 1:1", "lambda 1:1", "e 1,1:1"]) + "\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(["verify", "--algebra", str(alg)], capsys)
    elapsed = time.perf_counter() - start
    _one_line_error(code, out, err, cli.EXIT_USAGE)
    assert "failed unital, e-central (w=b1), snake, e-bicentral" in err
    assert elapsed < 3.0, elapsed


def test_eval_missing_term_file(tmp_path, capsys):
    code, out, err = run(["eval", str(tmp_path / "none.bc"),
                          "--algebra", "M2Q"], capsys)
    _one_line_error(code, out, err, cli.EXIT_USAGE)


def test_eval_diagram_error(tmp_path, capsys, monkeypatch):
    # no valid term is known to fail evaluation, so a raising evaluator
    # drives the exit-4 path; the term once raised this error for real
    from tests.test_frobenius import FORMER_DEFECTS
    term = tmp_path / "term.bc"
    term.write_text(FORMER_DEFECTS["oriented"][0], encoding="utf-8")
    argv = ["eval", str(term), "--algebra", "M2Q"]
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_OK and out and not err

    def evaluate(term, assignment):
        raise DiagramError("component transfer is not a bijection")

    monkeypatch.setattr(fr, "evaluate", evaluate)
    code, out, err = run(argv, capsys)
    _one_line_error(code, out, err, cli.EXIT_FAILED)
    assert err == "ERROR component transfer is not a bijection\n"


# ---------------------------------------------------------------------------
# every command: a missing file and a surface that cannot be rebuilt
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", [
    ["check"], ["invariants"], ["linear"],
    ["rewrite", "--to", str(DEMOS / "terms/sphere.bc")]])
def test_missing_file_is_one_line(tmp_path, capsys, command):
    missing = str(tmp_path / "none.bc")
    code, out, err = run(command[:1] + [missing] + command[1:], capsys)
    _one_line_error(code, out, err, cli.EXIT_USAGE)
    assert "none.bc" in err


def test_rewrite_missing_target_file(tmp_path, capsys):
    code, out, err = run(["rewrite", str(DEMOS / "terms/sphere.bc"),
                          "--to", str(tmp_path / "none.bc")], capsys)
    _one_line_error(code, out, err, cli.EXIT_USAGE)


def test_invariants_reconstruction_error(tmp_path, capsys, monkeypatch):
    # as above: the terms once raised this error for real, and a raising
    # builder drives the exit-4 path
    from tests.test_frobenius import FORMER_DEFECTS
    argvs = []
    for i, text in enumerate(FORMER_DEFECTS["unoriented"]):
        term = tmp_path / ("term%d.bc" % i)
        term.write_text(text, encoding="utf-8")
        argvs.append(["invariants", str(term)])
        code, out, err = run(argvs[-1], capsys)
        assert code == cli.EXIT_OK and out.startswith("components=") \
            and not err

    def reconstruct(term, presentation):
        raise sf.SurfaceError("new arc produced twice")

    monkeypatch.setattr(sf, "reconstruct", reconstruct)
    for argv in argvs:
        code, out, err = run(argv, capsys)
        _one_line_error(code, out, err, cli.EXIT_FAILED)
        assert err == "ERROR new arc produced twice\n"


# ---------------------------------------------------------------------------
# term errors: one INVALID line and exit 3, deep nesting one ERROR line
# ---------------------------------------------------------------------------

def _write(tmp_path, text):
    path = tmp_path / "term.bc"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_check_report_is_one_line(tmp_path, capsys):
    code, out, err = run(["check", _write(tmp_path, "(nonsense . other)")],
                         capsys)
    assert code == cli.EXIT_INVALID and out == ""
    assert err == ("INVALID 0: unknown 2-generator 'nonsense'; "
                   "1: unknown 2-generator 'other'\n")


def test_check_unknown_generator_in_a_parameter(tmp_path, capsys):
    code, out, err = run(["check", _write(tmp_path, "id[foo]")], capsys)
    assert code == cli.EXIT_INVALID and out == ""
    assert err == "INVALID <root>: unknown 1-generator 'foo'\n"


def test_check_ill_formed_structural_leaf(tmp_path, capsys):
    code, out, err = run(["check", _write(tmp_path,
                                          "(assoc2[ev,ev,ev] (*) cap)")],
                         capsys)
    assert code == cli.EXIT_INVALID and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("INVALID left: ")


def test_rewrite_endpoint_boundary_mismatch(capsys):
    code, out, err = run(["rewrite", str(DEMOS / "terms/sphere.bc"),
                          "--to", str(DEMOS / "terms/cusp_zigzag.bc")], capsys)
    assert code == cli.EXIT_INVALID and out == ""
    assert err == "INVALID boundary mismatch between search endpoints\n"


def test_deep_nesting_is_one_line(tmp_path, capsys):
    depth = max(1500, sys.getrecursionlimit() + 500)
    text = "id[%sI[1]%s]" % ("(" * depth, " ; I[1])" * depth)
    code, out, err = run(["check", _write(tmp_path, text)], capsys)
    _one_line_error(code, out, err, cli.EXIT_USAGE)


@pytest.mark.parametrize("command", [
    ["check", "BAD"], ["invariants", "BAD"], ["linear", "BAD"],
    ["eval", "BAD", "--algebra", "M2Q"],
    ["eval", str(DEMOS / "terms/torus_oriented.bc"), "--algebra", "BAD"],
    ["verify", "--algebra", "BAD"],
    ["rewrite", "BAD", "--to", str(DEMOS / "terms/sphere.bc")],
    ["rewrite", str(DEMOS / "terms/sphere.bc"), "--to", "BAD"]],
    ids=lambda c: "-".join(a for a in c if "/" not in a))
def test_non_utf8_file_is_one_line(tmp_path, capsys, command):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"\xff(cap . cup)")
    code, out, err = run([str(bad) if a == "BAD" else a for a in command],
                         capsys)
    _one_line_error(code, out, err, cli.EXIT_USAGE)
    assert "latin1.txt" in err and "not UTF-8" in err


@pytest.mark.parametrize("text", [
    "(x)", "(2 cap) [12]x(2)", "(2) [1 2", "(3) [1,x] (3)", "(3)[1²](3)",
    "(2 cap cup)", "(3) [12][12] (3)", "(3) [1 1] (3)"])
def test_linear_malformed_diagram_is_one_line(tmp_path, capsys, text):
    path = tmp_path / "bad.ld"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(["linear", str(path)], capsys)
    assert code == cli.EXIT_INVALID and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("INVALID ")


# ---------------------------------------------------------------------------
# every error class from every command's main library call: one exit code
# ---------------------------------------------------------------------------

# each error class `main` knows, except RecursionError: the arguments that
# build one, and its documented exit code
ERROR_CASES = {
    tc.ParseError: (("injected", 0), 3), tc.TermError: (("injected",), 3),
    pr.PresentationError: (("injected",), 3),
    ln.LinearError: (("injected",), 3), DiagramError: (("injected",), 4),
    sf.SurfaceError: (("injected",), 4), fr.AlgebraError: (("injected",), 2),
    ValueError: (("injected",), 2), OSError: (("injected",), 2)}

# each command, its main library call and an argv that reaches that call
MATRIX_COMMANDS = {
    "check": (tc, "parse_two_cell", ["check", str(DEMOS / "terms/sphere.bc")]),
    "eval": (fr, "evaluate", ["eval", str(DEMOS / "terms/torus_oriented.bc"),
                              "--algebra", "M2Q"]),
    "invariants": (sf, "reconstruct",
                   ["invariants", str(DEMOS / "terms/sphere.bc")]),
    "rewrite": (pr, "equivalent_bounded",
                ["rewrite", str(DEMOS / "terms/cusp_zigzag.bc"),
                 "--to", str(DEMOS / "rewrite/identity_strip.bc")]),
    "verify": (fr, "verify_presentation", ["verify", "--algebra", "M2Q"]),
    "linear": (ln, "reconstruct_1manifold",
               ["linear", str(DEMOS / "diagrams/paper_figure.ld")]),
}


@pytest.mark.parametrize("command", sorted(MATRIX_COMMANDS))
@pytest.mark.parametrize("error", sorted(ERROR_CASES,
                                         key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_error_class_has_one_exit_code(capsys, monkeypatch, command,
                                             error):
    """The command's main library call raises `error`: `main` returns the
    documented code with one stderr line, and nothing escapes it."""
    module, name, argv = MATRIX_COMMANDS[command]
    args, expected = ERROR_CASES[error]

    def raising(*_args, **_kwargs):
        raise error(*args)

    monkeypatch.setattr(module, name, raising)
    try:
        code, out, err = run(argv, capsys)
    except BaseException as exc:
        pytest.fail("%s escaped main: %r" % (type(exc).__name__, exc))
    assert code == expected, err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("INVALID injected" if expected == 3
                          else "ERROR injected"), err
