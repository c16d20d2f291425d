"""The head-indexed matcher and search against the plain reference.

The corpus is `build.random_term` seeds 0..99 at 5 and 7 events and
genus 0..3, on both presentations, together with every rewrite of those
terms.  On each term the step lists must agree field by field and every
result must be canonical.  The search from both ends must give the same
trail, expansion count and stop reason as the reference search from both
ends; and, from genus g to g+1 and to seeded goals a few rewrites away,
the same verdict and trail length as the one-sided reference search,
with no more expansions.  Each term is matched once more on a fresh
copy parsed from its text, which carries no memo, while the term itself
shares memoised subterms with the term it was rewritten from.  The
same holds for validation: a rewrite result validated after its source
must read as a fresh copy of it does.
"""

import dataclasses
import functools
import pathlib
import random

import pytest

from bordcalc import build
from bordcalc import cli
from bordcalc import presentations as pr
from bordcalc import standard_terms as st
from bordcalc import termcore as tc
from tests import reference_rewrite as ref

PRESENTATIONS = (pr.bord2_unoriented(), pr.bord2_oriented())
BY_NAME = {p.name: p for p in PRESENTATIONS}
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


def _reachable_pair(p, seed):
    """A random term and the end of a seeded three-step walk from it."""
    rng = random.Random(seed)
    start = cur = build.random_term(p, seed, events=5, max_leaves=20)
    for _ in range(3):
        steps = ref.find_matches(cur, p)
        if steps:
            cur = steps[rng.randrange(len(steps))].result
    return start, cur


@functools.lru_cache(maxsize=None)
def _corpus(name):
    """(start, goal, one-sided reference result) of each search pair of
    presentation `name` at depth 3 and the default budget: genus g to
    g+1 for g in 0..3, then the reachable pairs of seeds 0..29.  The
    one-sided search runs over the package's matcher, which
    `test_find_matches_agrees_with_reference` checks step by step: over
    the reference matcher these searches take about 26 s."""
    p = BY_NAME[name]
    pairs = ([(st.genus(p, g), st.genus(p, g + 1)) for g in range(4)]
             + [_reachable_pair(p, seed) for seed in range(30)])
    return [(start, goal, ref.equivalent_bounded(start, goal, p, 3,
                                                 matches=pr.find_matches))
            for start, goal in pairs]


def _summary(res):
    return res.equivalent, _fields(res.steps), res.nodes_expanded, res.stop


def _count_matches(monkeypatch):
    """The list that each later `pr.find_matches` call appends its term to."""
    calls = []
    find_matches = pr.find_matches
    monkeypatch.setattr(pr, "find_matches",
                        lambda t, q: calls.append(t) or find_matches(t, q))
    return calls


def _replayed(start, steps):
    """Canonical `start` with `steps` applied in turn."""
    for step in steps:
        start = pr.apply(start, step)
    return pr.canonical(start)


@pytest.mark.parametrize("p", PRESENTATIONS, ids=lambda p: p.name)
@pytest.mark.parametrize("g", range(4))
def test_search_genus_step_agrees_with_reference(p, g):
    start, goal = st.genus(p, g), st.genus(p, g + 1)
    res = pr.equivalent_bounded(start, goal, p, 3)
    one_sided = ref.equivalent_bounded(start, goal, p, 3)
    assert not res.equivalent and not one_sided.equivalent
    assert res.steps == one_sided.steps == ()


@pytest.mark.parametrize("p", PRESENTATIONS, ids=lambda p: p.name)
def test_search_reachable_goals_agree_with_reference(p):
    """Goals at the end of a seeded three-step walk.  Under a visit budget
    that keeps the search small, the search must match the reference
    search from both ends field by field and stop as it does; unbounded,
    it must find a trail exactly when the one-sided search does, and one
    as short."""
    stops = set()
    for start, goal, one_sided in _corpus(p.name)[4:]:
        res = pr.equivalent_bounded(start, goal, p, 3, max_visited=300)
        assert _summary(res) == _summary(
            ref.equivalent_bidirectional(start, goal, p, 3, max_visited=300))
        stops.add(res.stop)
        res = pr.equivalent_bounded(start, goal, p, 3)
        assert res.equivalent == one_sided.equivalent
        assert len(res.steps) == len(one_sided.steps)
    assert {"found", "budget"} <= stops


@pytest.mark.parametrize("p", PRESENTATIONS, ids=lambda p: p.name)
def test_search_expands_no_more_than_one_sided(p, monkeypatch):
    """On every search pair the search expands no more terms than the
    one-sided reference; a found trail costs one `find_matches` call per
    goal-side step on top of the expansions, and replays through `apply`
    to the goal."""
    calls = _count_matches(monkeypatch)
    for start, goal, one_sided in _corpus(p.name):
        calls.clear()
        res = pr.equivalent_bounded(start, goal, p, 3)
        assert res.nodes_expanded <= one_sided.nodes_expanded
        extra = len(calls) - res.nodes_expanded
        assert 0 <= extra <= (len(res.steps) if res.equivalent else 0)
        assert (_replayed(start, res.steps) == pr.canonical(goal)) \
            == res.equivalent


def test_goal_side_step_is_the_first_back(tmp_path, capsys, monkeypatch):
    """From two identity strips to two cusp pairs, the search meets at
    one identity strip and one cusp pair.  The last step is rebuilt on the
    goal's side, at one `find_matches` call beyond the expansions, and it
    is the first of the two steps from there to the goal: the identity
    strip matched in the root chain, not as a subterm of its own.  The
    trail replays through `apply` to the goal, and `bordcalc rewrite`
    prints it."""
    p = BY_NAME["unoriented"]
    texts = {"start": "(id[I[pt]] . id[I[pt]] . inv2(rc[I[pt]]))",
             "goal": "(cusp_up . cusp_down . cusp_up . cusp_down"
                     " . inv2(rc[I[pt]]))"}
    start, goal = (tc.parse_two_cell(texts[end], p.data)
                   for end in ("start", "goal"))
    calls = _count_matches(monkeypatch)
    res = pr.equivalent_bounded(start, goal, p, 3)
    monkeypatch.undo()
    assert res.stop == "found" and len(res.steps) == 2
    assert len(calls) == res.nodes_expanded + 1
    back = [s for s in pr.find_matches(res.steps[0].result, p)
            if s.result == pr.canonical(goal)]
    assert len(back) == 2 and res.steps[1] == back[0]
    assert _replayed(start, res.steps) == pr.canonical(goal)
    for end, text in texts.items():
        (tmp_path / ("%s.bc" % end)).write_text(text, encoding="utf-8")
    assert cli.main(["rewrite", str(tmp_path / "start.bc"), "--to",
                     str(tmp_path / "goal.bc"), "--depth", "3"]) \
        == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["EQUIVALENT 2"] + [
        "step %s %s at %s window %d+%d"
        % (s.relation, s.direction, "/".join(map(str, s.path)) or "<root>",
           *s.window) for s in res.steps]


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
