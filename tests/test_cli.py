"""Command line: subcommands, formats, exit codes."""

import io
import pathlib
import sys

import pytest

from bordcalc import cli

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


def test_eval_missing_term_file(tmp_path, capsys):
    code, out, err = run(["eval", str(tmp_path / "none.bc"),
                          "--algebra", "M2Q"], capsys)
    _one_line_error(code, out, err, cli.EXIT_USAGE)


def test_eval_diagram_error(tmp_path, capsys):
    from bordcalc import presentations as pr
    from bordcalc import termcore as tc
    from tests.test_frobenius import known_defect_terms
    term = tmp_path / "defect.bc"
    term.write_text(tc.print_two_cell(
        known_defect_terms(pr.bord2_oriented())[0]), encoding="utf-8")
    code, out, err = run(["eval", str(term), "--algebra", "M2Q"], capsys)
    _one_line_error(code, out, err, cli.EXIT_FAILED)
    assert err == "ERROR component transfer is not a bijection\n"
