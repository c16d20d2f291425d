"""Candidate events: structural cells fired from their formulas.

The corpus is the source and the target sentence of `build.random_term`
seeds 0..299 at 5 and 9 events on both presentations (1200 sentences per
presentation).  On each, `applicable_events` must give the candidates the
hand-written ladder of `tests/reference_build.py` gives, in order, and
every candidate's side must be the subsentence it fires at.
"""

import pytest

from bordcalc import build
from bordcalc import presentations as pr
from bordcalc import termcore as tc
from bordcalc.termcore import (Comp1, Eps, Eta, Gen2, Id1, Inv2, ObjTensor,
                               Phi0, RC, Tensor1)
from tests import reference_build as ref

PRESENTATIONS = (pr.bord2_unoriented(), pr.bord2_oriented())


def _sentences(p):
    out = []
    for events in (5, 9):
        for seed in range(300):
            term = build.random_term(p, seed, events=events)
            out += tc.two_cell_boundary(term, p.data)
    return out


@pytest.fixture(scope="module", params=PRESENTATIONS,
                ids=[p.name for p in PRESENTATIONS])
def corpus(request):
    return request.param, _sentences(request.param)


def test_candidates_agree_with_the_ladder(corpus):
    p, sentences = corpus
    assert len(sentences) == 1200
    for sentence in sentences:
        assert build.applicable_events(p, sentence) \
            == ref.applicable_events(p, sentence), sentence


def test_every_candidate_fires_from_its_side(corpus):
    """A cell's source, an `Inv2`'s its cell's target, is the subsentence
    at its path, so whiskering it there composes."""
    p, sentences = corpus
    kinds = set()
    for sentence in sentences:
        at = dict(tc.subterms(sentence))
        for path, cell in build.applicable_events(p, sentence):
            assert tc.two_cell_source(cell, p.data) == at[path], (path, cell)
            kinds.add((type(cell.inner), 1) if type(cell) is Inv2
                      else (type(cell), 0))
    # every entry of the fired tuple fires somewhere, and generators too
    assert kinds == set(build.FIRED) | {(Gen2, 0)}


@pytest.mark.parametrize("fired", [((Eps, 0),), ((Eps, 1),), ((Eta, 0),),
                                   ((Eta, 1),)],
                         ids=["eps-source", "eps-target", "eta-source",
                              "eta-target"])
def test_a_side_with_a_formal_adjoint_is_not_fired(fired):
    """The sides of `eta` and `eps` hold a formal adjoint, which no match by
    class can test, or lack their parameter."""
    with pytest.raises(build.BuildError, match="is not matched by class"):
        build._matchers(build.FIRED + fired)


def test_readings_of_marked_formulas():
    """Each parameter's path, the classes a match tests (parents first) and
    the nodes no match can test, read off one marked instance."""
    assert tc.reading(RC) == (
        ({"f": ("after",)}, [((), Comp1), (("first",), Id1)], []),
        ({"f": ()}, [], []))
    assert tc.reading(Phi0)[1] == (
        {"a": ("left", "word"), "a1": ("right", "word")},
        [((), Tensor1), (("left",), Id1), (("right",), Id1)], [])
    assert tc.reading(Phi0)[0][1] == [((), Id1), (("word",), ObjTensor)]
    # eps[f] is f∘f* => I_b: f* is the marker's own inner node
    assert tc.reading(Eps)[0] == ({"f": ("after",)}, [((), Comp1)],
                                  [("first",)])


def test_a_candidate_that_does_not_fire_raises(monkeypatch):
    """`random_term` skips no candidate: one whose side is not the
    subsentence is a fault, and it raises."""
    p = PRESENTATIONS[0]
    monkeypatch.setattr(build, "applicable_events",
                        lambda p, sentence: [((), Gen2("cup"))])
    with pytest.raises(build.BuildError, match="does not match subterm"):
        build.random_term(p, 0)
