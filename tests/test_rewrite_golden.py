"""Golden transcript of every rewrite step `find_matches` offers.

The corpus is the demo terms, genus 0..3 and `build.random_term` seeds
0..29 (events=5, max_leaves=20), each on both presentations.  For every
term the transcript holds the printed term, then each step's relation,
direction, path, window and printed result, in `find_matches` order.
"""

import pathlib

import pytest

from bordcalc import build
from bordcalc import presentations as pr
from bordcalc import standard_terms as st
from bordcalc import termcore as tc

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "rewrites.txt"
PRESENTATIONS = (pr.bord2_unoriented(), pr.bord2_oriented())


def _corpus(p):
    """(label, term) pairs over presentation `p`."""
    for path in sorted((ROOT / "demos" / "terms").glob("*.bc")):
        try:
            term = tc.parse_two_cell(path.read_text(encoding="utf-8"), p.data)
        except (tc.ParseError, tc.TermError):
            continue
        yield "demo %s" % path.name, term
    for g in range(4):
        yield "genus %d" % g, st.genus(p, g)
    for seed in range(30):
        yield "random %d" % seed, build.random_term(p, seed, events=5,
                                                    max_leaves=20)


def _terms():
    for p in PRESENTATIONS:
        for label, term in _corpus(p):
            yield p, label, term


def _transcript():
    lines = []
    for p, label, term in _terms():
        lines.append("== %s %s" % (p.name, label))
        lines.append(str(term))
        for s in pr.find_matches(term, p):
            lines.append("step %s %s at %s window %d+%d"
                         % (s.relation, s.direction,
                            "/".join(map(str, s.path)) or "<root>",
                            *s.window))
            lines.append("  %s" % s.result)
    return "\n".join(lines) + "\n"


def test_rewrite_golden_transcript():
    assert _transcript() == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("p", PRESENTATIONS, ids=lambda p: p.name)
def test_rewrite_steps_apply_and_canonical_idempotent(p):
    for label, term in _corpus(p):
        c = pr.canonical(term)
        assert pr.canonical(c) == c, label
        for s in pr.find_matches(term, p):
            assert pr.apply(term, s) == s.result, (label, s.relation, s.path)
            assert pr.canonical(s.result) == s.result


def _structural_runs(side):
    """Maximal runs of structural cells in the flattened chain of `side`."""
    side = pr.canonical(side)
    runs, run = [], []
    for c in side.children if isinstance(side, tc.VComp) else (side,):
        try:
            tc.formal_adjoint(c)
        except tc.TermError:
            runs.append(run)
            run = []
            continue
        run.append(c)
    return [r for r in runs + [run] if r]


@pytest.mark.parametrize("p", PRESENTATIONS, ids=lambda p: p.name)
def test_invert_structural_twice_is_identity(p):
    runs = [tc.VComp(tuple(run)) for rel in p.relations
            for side in (rel.lhs, rel.rhs) for run in _structural_runs(side)]
    assert runs
    for run in runs:
        assert tc.formal_adjoint(tc.formal_adjoint(run)) == run, str(run)
