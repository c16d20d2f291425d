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
