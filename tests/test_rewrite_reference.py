"""The head-indexed matcher and search against the plain reference.

The corpus is `build.random_term` seeds 0..99 at 5 and 7 events and
genus 0..3, on both presentations, together with every rewrite of those
terms.  On each term the step lists must agree field by field and every
result must be canonical; the search must give the same verdict and the
same trail as the reference search, from genus g to g+1 and to seeded
goals a few rewrites away.  Each term is matched once more on a fresh
copy parsed from its text, which carries no memo, while the term itself
shares memoised subterms with the term it was rewritten from.  The
same holds for validation: a rewrite result validated after its source
must read as a fresh copy of it does.
"""

import dataclasses
import pathlib
import random

import pytest

from bordcalc import build
from bordcalc import presentations as pr
from bordcalc import standard_terms as st
from bordcalc import termcore as tc
from tests import reference_rewrite as ref

PRESENTATIONS = (pr.bord2_unoriented(), pr.bord2_oriented())
DEMO_TERMS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "terms"


def _fields(steps):
    return [tuple(getattr(s, f.name) for f in dataclasses.fields(s))
            for s in steps]


def _base_terms(p):
    return ([build.random_term(p, seed, events=events)
             for events in (5, 7) for seed in range(100)]
            + [st.genus(p, g) for g in range(4)])


@pytest.mark.parametrize("p", PRESENTATIONS, ids=lambda p: p.name)
def test_find_matches_agrees_with_reference(p):
    table = ref.rules(p)
    corpus = {}
    for term in _base_terms(p):
        corpus.setdefault(pr.canonical(term), None)
        for step in pr.find_matches(term, p):
            corpus.setdefault(step.result, None)
    for term in corpus:
        steps = pr.find_matches(term, p)
        assert _fields(steps) == _fields(ref.find_matches(term, p, table)), \
            str(term)
        fresh = tc.parse_two_cell(tc.print_two_cell(term), p.data)
        assert _fields(pr.find_matches(fresh, p)) == _fields(steps), str(term)
        for step in steps:
            assert pr.canonical(step.result) == step.result
    assert len(corpus) > 1000


def _agrees(p, start, goal, depth, max_visited=100000):
    res = pr.equivalent_bounded(start, goal, p, depth, max_visited)
    equivalent, trail = ref.equivalent_bounded(start, goal, p, depth,
                                               max_visited)
    assert res.equivalent == equivalent
    assert _fields(res.steps) == _fields(trail)
    return res


@pytest.mark.parametrize("p", PRESENTATIONS, ids=lambda p: p.name)
@pytest.mark.parametrize("g", range(4))
def test_search_genus_step_agrees_with_reference(p, g):
    res = _agrees(p, st.genus(p, g), st.genus(p, g + 1), 3)
    assert not res.equivalent


@pytest.mark.parametrize("p", PRESENTATIONS, ids=lambda p: p.name)
def test_search_reachable_goals_agree_with_reference(p):
    """Goals at the end of a seeded three-step walk; the visit budget
    keeps the search small and makes both sides stop on it alike."""
    stops = set()
    for seed in range(30):
        rng = random.Random(seed)
        start = cur = build.random_term(p, seed, events=5, max_leaves=20)
        for _ in range(3):
            steps = ref.find_matches(cur, p)
            if steps:
                cur = steps[rng.randrange(len(steps))].result
        stops.add(_agrees(p, start, cur, 3, max_visited=300).stop)
    assert {"found", "budget"} <= stops


def _splice(p, path, cell):
    """`p` with the subterm at `path` replaced by `cell`."""
    if not path:
        return cell
    return tc.rebuild(p, [_splice(c, path[1:], cell) if step == path[0] else c
                          for step, c in tc.parts(p)])


def _fresh(term):
    return tc.parse_two_cell(tc.print_two_cell(term))


@pytest.mark.parametrize("p", PRESENTATIONS, ids=lambda p: p.name)
def test_validate_of_a_rewrite_agrees_with_a_fresh_copy(p):
    """Each rewrite result is validated after its source, so its untouched
    parts replay their memos; its report must equal that of a fresh copy,
    which carries none.  A bad cell spliced in at every fifth leaf of a
    validated term must be reported as in the fresh copy: the same names,
    and the same first composability failure in movie order."""
    terms = _base_terms(p) + [st.genus(p, 4)]
    for path in sorted(DEMO_TERMS.glob("*.bc")):
        try:
            terms.append(tc.parse_two_cell(path.read_text(encoding="utf-8"),
                                           p.data))
        except (tc.ParseError, tc.TermError):
            continue
    bad = (tc.Gen2("nonsense"), tc.VComp((tc.Gen2("cap"), tc.Gen2("cap"))))
    results = 0
    for term in terms:
        report = tc.validate(term, p.data)
        assert report.ok, str(term)
        for step in pr.find_matches(term, p):
            expected = tc.validate(_fresh(step.result), p.data)
            for _ in range(2):
                got = tc.validate(step.result, p.data)
                assert (got.entries, got.boundary, got.events) \
                    == ([], expected.boundary, expected.events), str(term)
            results += 1
        for path, _, _, _ in report.events[::5]:
            for cell in bad:
                spliced = _splice(term, path, cell)
                expected = tc.validate(_fresh(spliced), p.data).entries
                assert expected
                for _ in range(2):
                    assert tc.validate(spliced, p.data).entries == expected, \
                        (str(term), path)
    assert results > 1000
