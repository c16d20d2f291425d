"""Seeded mutation fuzzing of the command line.

Every term file in demos/terms, algebra file in demos/algebras and linear
diagram in demos/diagrams is mutated a few bytes at a time with a fixed
seed, and each command that reads the mutated file must end in exit 0, 2,
3 or 4 with at most one line on stderr, never a traceback.  The diagrams
come last, so the term and algebra inputs do not depend on them.

An algebra mutation may insert digits anywhere, so it can declare a large
`dim`; the parser refuses a `dim` with fewer nonzero `mult` rows before it
builds any table of that size.
"""

import pathlib
import random
import re

from bordcalc import cli

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SEED = 15
TERM_ROUNDS = 30        # mutated inputs per term file
ALGEBRA_ROUNDS = 24     # mutated inputs per algebra file
LINEAR_ROUNDS = 150     # mutated inputs per linear diagram

TERM_TOKENS = [b"(", b")", b"[", b"]", b",", b";", b".", b"#", b"(*)",
               "⊗".encode(), b" ", b"inv(", b"inv2(", b"id[", b"I[", b"rc[",
               b"alpha[", b"phi0[", b"ev", b"1", b"zz", b"\xff"]
TERM_NAMES = [b"ev", b"coev", b"cap", b"cup", b"split", b"merge", b"pt",
              b"pt+", b"pt-", b"cusp_up", b"sym_ev_in", b"I", b"id", b"rc",
              b"lc", b"alpha", b"l", b"r", b"beta", b"inv", b"inv2"]
ALGEBRA_TOKENS = [b"dim ", b"mult ", b"unit ", b"lambda ", b"e ", b"star ",
                  b"->", b":", b",", b"/", b"-", b" ", b"\n", b"#", b"x",
                  b"\xff"] + [b"%d" % k for k in range(10)]
LINEAR_TOKENS = [b"(", b")", b"[", b"]", b" ", b",", b"[]", b"(3)",
                 b"(2 cap)", b"(3 cup)", b"[12]", b"cap", b"cup", b"-", b"x",
                 b"\xff"] + [b"%d" % k for k in range(1, 6)]


def _copy_bytes(text, i, rng):
    return text[:i] + text[i:i + rng.randint(1, 8)] + text[i:]


def _copy_line(text, i, rng):
    lines = text.split(b"\n")
    k = i % len(lines)
    return b"\n".join(lines[:k + 1] + [lines[k]] + lines[k + 1:])


def _substitute(pattern, choices):
    """A mutation that replaces one match of `pattern` by one of
    `choices`."""
    def substitute(text, i, rng):
        hits = list(re.finditer(pattern, text))
        if not hits:
            return text
        m = rng.choice(hits)
        return text[:m.start()] + rng.choice(choices) + text[m.end():]
    return substitute


TERM_EDITS = (TERM_TOKENS, _copy_bytes,
              _substitute(rb"[A-Za-z_][A-Za-z0-9_'+-]*", TERM_NAMES))
ALGEBRA_EDITS = (ALGEBRA_TOKENS, _copy_line,
                 _substitute(rb"[0-9]", [b"0", b"1", b"2", b"3", b"4"]))
LINEAR_EDITS = (LINEAR_TOKENS, _copy_bytes,
                _substitute(rb"[0-9]", [b"1", b"2", b"3", b"4", b"5"]))


def _mutate(text, edits, rng):
    """`text` after one to three deletions, insertions, copies or
    substitutions."""
    tokens, copy, substitute = edits
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[i + rng.randint(1, 4):]
        elif op == 1:
            text = text[:i] + rng.choice(tokens) + text[i:]
        elif op == 2:
            text = copy(text, i, rng)
        else:
            text = substitute(text, i, rng)
    return text


def _inputs():
    """(file name, mutated bytes, commands with ``{}`` for the file)."""
    rng = random.Random(SEED)
    for path in sorted((DEMOS / "terms").glob("*.bc")):
        oriented = path.name.endswith("_oriented.bc")
        pres = "oriented" if oriented else "unoriented"
        algebra = "M2Q" if oriented else "QZ2"
        for _ in range(TERM_ROUNDS):
            text = _mutate(path.read_bytes(), TERM_EDITS, rng)
            yield "input.bc", text, [
                ["check", "{}", "--presentation", pres],
                ["eval", "{}", "--algebra", algebra, "--presentation", pres],
                ["invariants", "{}", "--presentation", pres],
                ["rewrite", "{}", "--to", str(path), "--depth", "1",
                 "--max-visited", "20", "--presentation", pres]]
    for path in sorted((DEMOS / "algebras").glob("*.alg")):
        for _ in range(ALGEBRA_ROUNDS):
            text = _mutate(path.read_bytes(), ALGEBRA_EDITS, rng)
            yield "input.alg", text, [
                ["eval", str(DEMOS / "terms/torus_oriented.bc"),
                 "--algebra", "{}"],
                ["verify", "--algebra", "{}", "--presentation", "oriented"],
                ["verify", "--algebra", "{}", "--presentation", "unoriented"]]
    for path in sorted((DEMOS / "diagrams").glob("*.ld")):
        for _ in range(LINEAR_ROUNDS):
            text = _mutate(path.read_bytes(), LINEAR_EDITS, rng)
            yield "input.ld", text, [["linear", "{}"],
                                     ["linear", "{}", "--moves"]]


def test_mutated_inputs_end_in_a_documented_exit(tmp_path, capsys):
    violations = []
    runs = 0
    for name, text, commands in _inputs():
        target = tmp_path / name
        target.write_bytes(text)
        for command in commands:
            argv = [str(target) if a == "{}" else a for a in command]
            runs += 1
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # a traceback escapes
                code = exc
            out = capsys.readouterr()
            if (code not in (0, 2, 3, 4) or len(out.err.splitlines()) > 1
                    or "Traceback" in out.err):
                violations.append((command[0], text, code, out.err))
    assert runs > 1000
    assert violations == []
