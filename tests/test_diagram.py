"""Movie playback: strand wiring read off the generating data, and the
sentence a movie ends at."""

import pytest

from bordcalc import build
from bordcalc import presentations as pr
from bordcalc import standard_terms as st
from bordcalc import termcore as tc
from bordcalc._diagram import (DiagramError, MovieListener, leaf_arc_spec,
                               run_movie)


@pytest.fixture(scope="module",
                params=[pr.bord2_unoriented, pr.bord2_oriented],
                ids=["unoriented", "oriented"])
def p(request):
    return request.param()


def test_elbows_are_wired_from_their_boundary(p):
    assert leaf_arc_spec(tc.Gen1("ev"), p.data) == (
        2, 0, [(("s", 0), ("s", 1))])
    assert leaf_arc_spec(tc.Gen1("coev"), p.data) == (
        0, 2, [(("t", 0), ("t", 1))])


def test_a_generator_with_four_boundary_points_stops_a_movie():
    pp = tc.ObjTensor(tc.ObjGen("pt"), tc.ObjGen("pt"))
    data = tc.GeneratingData(objects=("pt",), one_gens={"x": (pp, pp)},
                             two_gens={})
    report = tc.validate(tc.Id2(tc.Gen1("x")), data)
    assert report.ok
    with pytest.raises(DiagramError) as exc:
        run_movie(report, data, MovieListener())
    assert "'x'" in str(exc.value)
    assert len(str(exc.value).splitlines()) == 1


def test_every_movie_ends_at_its_target(p):
    """After the last event the live sentence is the term's target, so
    every event rebuilt the sentences above the one it rewrote."""
    terms = [build.random_term(p, seed, events=events)
             for seed in range(150) for events in (5, 9)]
    terms.append(st.genus(p, 2))
    mismatches = []
    for term in terms:
        report = tc.validate(term, p.data)
        state = run_movie(report, p.data, MovieListener())
        if state.root.term != report.boundary[1]:
            mismatches.append(str(term))
    assert mismatches == []
