"""Golden transcript of `bordcalc rewrite`: stdout and exit code.

The pairs are the cusp/strip relation in both directions at depth 1, the
sphere against the torus (no path within the budget), terms against
themselves, and seeded pairs three rewrites apart: a random term and the
last term a breadth-first rewrite search meets on its third level.
Stderr is left out, so the transcript pins what a script reads from
stdout.
"""

import pathlib

from bordcalc import build
from bordcalc import cli
from bordcalc import presentations as pr
from bordcalc import termcore as tc

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "rewrite_cli.txt"

DEMO_PAIRS = [
    ["terms/cusp_zigzag.bc", "--to", "rewrite/identity_strip.bc",
     "--depth", "1"],
    ["rewrite/identity_strip.bc", "--to", "terms/cusp_zigzag.bc",
     "--depth", "1"],
    ["terms/sphere.bc", "--to", "terms/torus.bc", "--depth", "2",
     "--max-visited", "2000"],
    ["terms/genus2.bc", "--to", "terms/genus2.bc"],
    ["terms/torus_oriented.bc", "--to", "terms/torus_oriented.bc",
     "--presentation", "oriented"],
]
# (presentation, random_term seed) of the seeded pairs
SEEDED = [("unoriented", 7), ("unoriented", 11), ("oriented", 1)]


def _pair(p, seed, depth=3):
    """A random term and the last term first met `depth` rewrites away."""
    term = pr.canonical(build.random_term(p, seed, events=5, max_leaves=20))
    seen, level = {term}, [term]
    for _ in range(depth):
        nxt = []
        for t in level:
            for s in pr.find_matches(t, p):
                if s.result not in seen:
                    seen.add(s.result)
                    nxt.append(s.result)
        level = nxt
    return term, level[-1]


def _commands(tmp_path):
    """(shown argv, argv) of every golden command."""
    for args in DEMO_PAIRS:
        yield (["rewrite"] + args,
               ["rewrite"] + [str(DEMOS / a) if (DEMOS / a).is_file() else a
                              for a in args])
    for name, seed in SEEDED:
        p = pr.bord2_oriented() if name == "oriented" else pr.bord2_unoriented()
        paths = []
        for end, term in zip(("start", "goal"), _pair(p, seed)):
            path = tmp_path / ("seed%d_%s_%s.bc" % (seed, name, end))
            path.write_text(tc.print_two_cell(term), encoding="utf-8")
            paths.append(path)
        tail = ["--depth", "3", "--presentation", name]
        yield (["rewrite", "<seed %d %s start>" % (seed, name), "--to",
                "<seed %d %s goal>" % (seed, name)] + tail,
               ["rewrite", str(paths[0]), "--to", str(paths[1])] + tail)


def _transcript(tmp_path, capsys):
    chunks = []
    for shown, argv in _commands(tmp_path):
        code = cli.main(argv)
        out = capsys.readouterr().out
        chunks.append("$ bordcalc %s\n%s[exit %d]\n"
                      % (" ".join(shown), out, code))
    return "".join(chunks)


def test_rewrite_cli_golden_transcript(tmp_path, capsys):
    assert _transcript(tmp_path, capsys) == GOLDEN.read_text(encoding="utf-8")
