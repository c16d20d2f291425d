"""Movie playback: strand wiring read off the generating data, the
sentence a movie ends at, and the component ids listeners follow."""

import pytest

from bordcalc import build
from bordcalc import presentations as pr
from bordcalc import standard_terms as st
from bordcalc import termcore as tc
from bordcalc._diagram import (ComponentListener, DiagramError, Event,
                               MovieListener, census, leaf_arc_spec,
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


def _blocks(comp):
    """The partition of the arcs an {arc: id} map makes."""
    out = {}
    for arc, cid in comp.items():
        out.setdefault(cid, set()).add(arc)
    return {frozenset(b) for b in out.values()}


class _CheckedIds(ComponentListener):
    """Compares the id map after every event with a traversal of the
    whole live diagram from scratch, and with the live diagram's census:
    one id per circle or interval, and two root port ends per interval."""

    def __init__(self, tags):
        self.tags = tags
        self.checks = 0

    def begin(self, state):
        super().begin(state)
        self._check(state)

    def event(self, state, ev):
        cell = ev.cell
        tag = self.tags[cell.name] if isinstance(cell, tc.Gen2) else None
        self.follow(state, ev, tag not in ("cap", "cup", "split", "merge"))
        self._check(state)

    def _check(self, state):
        link, seen = state.diagram.link, {}
        for start in state.diagram.arcs:
            stack = [start]
            while stack:
                a = stack.pop()
                if a not in seen:
                    seen[a] = start
                    stack += [link[e][0] for e in ((a, 0), (a, 1))
                              if e in link]
        assert _blocks(self.comp) == _blocks(seen)
        count = census(state.diagram)
        assert count["circles"] + count["intervals"] \
            == len(set(self.comp.values()))
        root = state.root
        assert 2 * count["intervals"] \
            == len(root.src_ports + root.tgt_ports)
        self.checks += 1


def test_component_ids_partition_the_live_arcs(p):
    terms = [build.random_term(p, seed, events=events)
             for seed in range(150) for events in (5, 9)]
    terms += [st.genus(p, g) for g in range(4)]
    if "sym_ev_in" in p.data.two_gens:
        terms.append(st.klein_bottle(p))
    listener = _CheckedIds(p.two_gen_tags)
    for term in terms:
        run_movie(tc.validate(term, p.data), p.data, listener)
    assert listener.checks > 2 * len(terms)


def _rerouting(old_arcs, old_links, old_ports, new_arcs, new_ports):
    """A rerouting event with no strands and no links among its new
    arcs, whose i-th old port end becomes the i-th new one."""
    return Event(tc.Id2(tc.Gen1("ev")), old_arcs, new_arcs, old_ports,
                 new_ports, old_links, {}, {})


def test_a_rerouting_event_keeps_the_component_ids():
    listener = ComponentListener()
    listener.comp = {0: 10}
    ev = _rerouting([0], {}, [(0, 0), (0, 1)], [2], [(2, 0), (2, 1)])
    assert listener.follow(None, ev, True) == ([10], [10])
    assert listener.comp == {2: 10}


@pytest.mark.parametrize("old_links, new_arcs, new_ports", [
    # two pieces of old arcs continue as one piece
    ({}, [2], [(2, 0), (2, 1)]),
    # one piece of old arcs continues as two pieces
    ({(0, 1): (1, 1), (1, 1): (0, 1)}, [2, 3], [(2, 0), (3, 0)]),
], ids=["two-into-one", "one-into-two"])
def test_a_rerouting_event_must_be_a_bijection(old_links, new_arcs,
                                               new_ports):
    listener = ComponentListener()
    listener.comp = {0: 10, 1: 11}
    ev = _rerouting([0, 1], old_links, [(0, 0), (1, 0)], new_arcs,
                    new_ports)
    with pytest.raises(DiagramError,
                       match="^component transfer is not a bijection$"):
        listener.follow(None, ev, True)
