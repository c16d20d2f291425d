"""Movie playback: strand wiring read off the generating data, the
sentence a movie ends at, the component ids listeners follow, and the
event shapes compiled once per 2-leaf, checked against the reference
path that rebuilds every event (`tests/reference_diagram.py`)."""

import dataclasses
from collections import Counter
from pathlib import Path

import pytest

from bordcalc import _diagram
from bordcalc import build
from bordcalc import frobenius as fr
from bordcalc import presentations as pr
from bordcalc import standard_terms as st
from bordcalc import surface as sf
from bordcalc import termcore as tc
from bordcalc._diagram import (ComponentListener, DiagramError,
                               MovieListener, MovieState, Shape, census,
                               leaf_arc_spec, run_movie)
from tests import reference_diagram as rd

DEMO_TERMS = Path(__file__).resolve().parent.parent / "demos" / "terms"
MORSE = ("cap", "cup", "split", "merge")


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
    """After the last event the live sentence, rebuilt where splices left
    it stale, is the term's target."""
    terms = [build.random_term(p, seed, events=events)
             for seed in range(150) for events in (5, 9)]
    terms.append(st.genus(p, 2))
    mismatches = []
    for term in terms:
        report = tc.validate(term, p.data)
        state = run_movie(report, p.data, MovieListener())
        if state.root.sentence() != report.boundary[1]:
            mismatches.append(str(term))
    assert mismatches == []


def _at(path):
    """The live child path under a tape path, as the reference engine
    takes it."""
    return tuple(_diagram._CHILD[s] for s in path if s in _diagram._CHILD)


def _out_of_sync(report, p, events):
    """The one line `run_movie` refuses `report` with, its tape replaced
    by `events`."""
    with pytest.raises(DiagramError) as exc:
        run_movie(dataclasses.replace(report, events=events), p.data,
                  MovieListener())
    assert len(str(exc.value).splitlines()) == 1
    return str(exc.value)


def test_an_event_out_of_sync_with_the_live_sentence_stops_the_movie(p):
    """Each event's source is compared with the live sentence at its
    path, also where an earlier splice below left that sentence stale,
    and the refusal names the event's own 2-cell path on the tape."""
    report = tc.validate(st.genus(p, 1), p.data)
    events = report.events
    at = [_at(path) for path, _, _, _ in events]
    # event k lands on the composite event k - 1 rewrote below
    k = next(k for k in range(1, len(at)) if at[k - 1][:len(at[k])]
             == at[k] != at[k - 1])
    assert at[k]
    state = MovieState(report.boundary[0], p.data)
    for event in events[:k - 1]:
        state.apply_event(*event)
    node = state.root
    for i in at[k]:
        node = node.children[i]
    stale = node.sentence()  # the sentence before event k - 1
    path_k, cell_k, source_k, target_k = events[k]
    assert stale != source_k
    assert any(type(step) is int for step in path_k)
    where = "movie out of sync at %s: " % "/".join(map(str, path_k))
    tampered = list(events)
    tampered[k] = (path_k, cell_k, stale, target_k)
    assert _out_of_sync(report, p, tampered) == (
        where + "expected %s, found %s" % (stale, source_k))
    swapped = list(events)
    swapped[k - 1], swapped[k] = events[k], events[k - 1]
    assert _out_of_sync(report, p, swapped).startswith(where)
    path_0, cell_0, source_0, target_0 = events[0]
    assert source_0 != target_0
    tampered = [(path_0, cell_0, target_0, target_0)] + events[1:]
    assert _out_of_sync(report, p, tampered).startswith(
        "movie out of sync at %s: " % ("/".join(map(str, path_0))
                                       or "<root>"))


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
        src, tgt = state.root.ports()
        assert 2 * count["intervals"] == len(src) + len(tgt)
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


class _Rerouted(ComponentListener):
    """Follows every event as a rerouting one, and keeps the ids at the
    root port ends before and after each."""

    def begin(self, state):
        super().begin(state)
        self.at_ports = [self._at_ports(state)]

    def event(self, state, ev):
        self.follow(state, ev, True)
        self.at_ports.append(self._at_ports(state))

    def _at_ports(self, state):
        src, tgt = state.root.ports()
        return [self.comp[a] for a, _ in src + tgt]


@pytest.mark.parametrize("cell", ["cusp_up", "sym_ev_in", "phi0[pt,pt]",
                                  "inv2(phi0[pt,pt])"])
def test_a_rerouting_event_keeps_the_component_ids(cell):
    """A cusp, a crossing or a structural cell is a product bordism: each
    boundary point stays on the component it was on, and no id is new."""
    p = pr.bord2_unoriented()
    report = tc.validate(tc.parse_two_cell(cell, p.data), p.data)
    listener = _Rerouted()
    state = run_movie(report, p.data, listener)
    before, after = listener.at_ports
    assert before == after
    assert set(listener.comp.values()) == set(before)
    assert listener._next == len(set(before))
    assert state.data.shapes[report.events[0][1]].transfer is not None


@pytest.mark.parametrize("cell", MORSE)
def test_a_rerouting_event_must_be_a_bijection(cell):
    """A birth, a death or a saddle fills a piece that is no strip and no
    tube, so its shape has no transfer and is refused as rerouting."""
    p = pr.bord2_unoriented()
    report = tc.validate(tc.Gen2(cell), p.data)
    with pytest.raises(DiagramError,
                       match="^component transfer is not a bijection$"):
        run_movie(report, p.data, _Rerouted())
    assert p.data.shapes[tc.Gen2(cell)].transfer is None


def test_a_refused_shape_is_not_stored():
    """A leaf whose compiling raises leaves no entry, so it is refused
    again, not taken from the table, the next time it fires."""
    pp = tc.ObjTensor(tc.ObjGen("pt"), tc.ObjGen("pt"))
    x = tc.Gen1("x")
    data = tc.GeneratingData(objects=("pt",), one_gens={"x": (pp, pp)},
                             two_gens={"f": (tc.Id1(pp), x)})
    report = tc.validate(tc.Gen2("f"), data)
    assert report.ok
    for _ in range(2):
        with pytest.raises(DiagramError, match="'x' has 4 boundary points"):
            run_movie(report, data, MovieListener())
        assert tc.Gen2("f") not in data.shapes and x not in data.shapes


class _Shapes(MovieListener):
    def __init__(self):
        self.seen = []

    def event(self, state, ev):
        self.seen.append(ev.shape)


def test_equal_leaves_from_two_parses_share_one_shape():
    p = pr.bord2_unoriented()
    text = str(st.genus(p, 2))
    reports = [tc.validate(tc.parse_two_cell(text, p.data), p.data)
               for _ in range(2)]
    (_, a, _, _), (_, b, _, _) = (r.events[0] for r in reports)
    assert a == b and a is not b
    listeners = [_Shapes(), _Shapes()]
    run_movie(reports[0], p.data, listeners[0])
    size = len(p.data.shapes)
    run_movie(reports[1], p.data, listeners[1])
    assert len(p.data.shapes) == size
    first, second = (lst.seen for lst in listeners)
    assert len(first) == len(second) == len(reports[0].events)
    assert all(x is y for x, y in zip(first, second))


def test_each_generating_data_compiles_its_own_shape():
    cap = tc.Gen2("cap")
    shapes = []
    for p in (pr.bord2_unoriented(), pr.bord2_oriented()):
        run_movie(tc.validate(cap, p.data), p.data, MovieListener())
        shapes.append(p.data.shapes[cap])
    assert shapes[0] is not shapes[1]


def _nodes(x):
    """Every dataclass instance (a term node, symbol parameters included,
    or a shape) within `x`, through tuples, lists and dicts too."""
    if isinstance(x, dict):
        x = tuple(x.items())
    if isinstance(x, (tuple, list)):
        return [n for c in x for n in _nodes(c)]
    if not dataclasses.is_dataclass(x):
        return []
    return [x] + [n for f in dataclasses.fields(x)
                  for n in _nodes(getattr(x, f.name))]


def test_the_table_keeps_no_node_of_a_played_term():
    """Keys are copies the table owns and shapes hold no term (a skeleton
    is parts over arc ranges and wirings), so no node of a term's tape
    lives on in the table once the term is dropped."""
    p = pr.bord2_unoriented()
    report = tc.validate(st.genus(p, 2), p.data)
    run_movie(report, p.data, MovieListener())
    played = {id(n) for _, cell, source, target in report.events
              for n in _nodes((cell, source, target))}
    kept = _nodes(p.data.shapes)
    assert any(isinstance(n, Shape) for n in kept)
    assert not played & {id(n) for n in kept}


def test_a_full_table_is_emptied_before_it_grows(monkeypatch):
    """Past `SHAPES_LIMIT` entries the table starts again, and the movie
    reads the same as with room to spare."""
    p, roomy = pr.bord2_unoriented(), pr.bord2_unoriented()
    term = st.genus(p, 3)
    expected = sf.invariants(sf.reconstruct(term, roomy))
    monkeypatch.setattr(_diagram, "SHAPES_LIMIT", 4)
    assert sf.invariants(sf.reconstruct(term, p)) == expected
    assert 0 < len(p.data.shapes) <= 4 < len(roomy.data.shapes)


@pytest.mark.parametrize("make", [pr.bord2_unoriented, pr.bord2_oriented],
                         ids=["unoriented", "oriented"])
def test_each_distinct_leaf_is_compiled_once(make, monkeypatch):
    p = make()
    compiled = Counter()
    compile_shape = _diagram._compile

    def counted(cell, *args):
        compiled[cell] += 1
        return compile_shape(cell, *args)

    monkeypatch.setattr(_diagram, "_compile", counted)
    term = st.genus(p, 6)
    terms = [term, st.genus(p, 6)]
    terms += [pr.apply(term, step) for step in pr.find_matches(term, p)]
    leaves = set()
    for t in terms:
        report = tc.validate(t, p.data)
        leaves.update(cell for _, cell, _, _ in report.events)
        run_movie(report, p.data, MovieListener())
    assert set(compiled) == leaves
    assert set(compiled.values()) == {1}


# ---------------------------------------------------------------------------
# the shape path against the reference path
# ---------------------------------------------------------------------------

def _oracle_corpus(p):
    """Random terms with every rewrite of each, the closed genus terms,
    the Klein bottle, every demo term that is valid over `p`, and both
    sides of every relation."""
    terms = []
    for seed in range(150):
        for events in (5, 9):
            t = build.random_term(p, seed, events=events)
            terms.append(t)
            terms += [pr.apply(t, step) for step in pr.find_matches(t, p)]
    terms += [st.genus(p, g) for g in range(8)]
    if "sym_ev_in" in p.data.two_gens:
        terms.append(st.klein_bottle(p))
    for path in sorted(DEMO_TERMS.glob("*.bc")):
        try:
            terms.append(tc.parse_two_cell(path.read_text(encoding="utf-8"),
                                           p.data))
        except (tc.ParseError, tc.TermError):
            pass
    terms += [side for rel in p.relations for side in (rel.lhs, rel.rhs)]
    return [t for t in terms if tc.validate(t, p.data).ok]


def _rename(ren, xs, ys):
    """Grow the one-to-one renaming `ren` (forward and back dicts) by
    ``xs[i] -> ys[i]``; False where it would stop being one to one."""
    fwd, back = ren
    xs, ys = list(xs), list(ys)
    for x, y in zip(xs, ys):
        if fwd.setdefault(x, y) != y or back.setdefault(y, x) != x:
            return False
    return len(xs) == len(ys)


def _event_in(ev, ren):
    """The ports, links, strands and pieces of shape event `ev` in live
    arc ids renamed by `ren`, in the reference event's layout."""
    s = ev.shape

    def end(side, x):
        a = ev.old_arcs[x[0]] if side == "old" else ev.base + x[0]
        return (ren[a], x[1])

    carried, caps = ev.pieces()
    return ([end("old", x) for x in s.old_ports],
            [end("new", x) for x in s.new_ports],
            {end("old", x): end("old", y) for x, y in s.old_links.items()},
            {end("new", x): end("new", y) for x, y in s.new_links.items()},
            {end("old", (a, 0))[0]: end("new", (b, 0))[0]
             for a, b in s.strands.items()},
            ({ren[b]: ren[a] for b, a in carried.items()},
             [[(side, ren[a], d) for side, a, d in c] for c in caps]))


def _pairs_as_transfer(ev, rev, ren):
    """Whether the transfer of `ev`'s shape, read off its pieces, is the
    reference pairing of the pieces of `rev` through its boundary points
    and strands (`reference_diagram.pairing`), `ev`'s arcs renamed by
    `ren`: both refuse, or each new arc continues the old piece that the
    pairing continues as its piece."""
    was, now, to = rd.pairing(rev)
    transfer = ev.shape.transfer
    if transfer is None or to is None:
        return transfer is None and to is None
    return all(to[was[ren[ev.old_arcs[a]]]] == now[ren[ev.base + b]]
               for b, a in enumerate(transfer))


def _frame(new, ref, ren):
    """Whether the live sentence and the root ports that `new` derives on
    read are the ones `ref` stores, its arcs renamed by `ren`."""
    src, tgt = new.root.ports()
    return (new.root.sentence() == ref.root.term
            and [(ren.get(a), e) for a, e in src] == ref.root.src_ports
            and [(ren.get(a), e) for a, e in tgt] == ref.root.tgt_ports)


def _lockstep(report, p, asg):
    """Play `report` by shapes and by the reference side by side, each
    through the evaluator's program recorder (which follows the component
    ids) and an invariants listener, and compare every frame and event,
    the programs op by op; returns the failures found.  The shape engine
    takes each tape path as recorded, the reference its live child path
    (`_at`)."""
    new = MovieState(report.boundary[0], p.data)
    ref = rd.MovieState(report.boundary[0], p.data)
    plays = [(new, fr._EvalListener(p), sf._InvariantsListener()),
             (ref, rd.EvalListener(p), rd.InvariantsListener())]
    for state, *listeners in plays:
        for listener in listeners:
            listener.begin(state)
    (_, ids, inv), (_, ref_ids, ref_inv) = plays
    arcs, cids = ({}, {}), ({}, {})
    live = _diagram._arcs(new.root)
    bad = []
    if not (_rename(arcs, live, rd._arcs(ref.root))
            and _rename(cids, [ids.comp[a] for a in live],
                        [ref_ids.comp[arcs[0][a]] for a in live])
            and _frame(new, ref, arcs[0])):
        bad.append("source slice")
    for i, (path, cell, source, target) in enumerate(report.events):
        ev = new.apply_event(path, cell, source, target)
        rev = ref.apply_event(_at(path), cell, source, target)
        got = []
        for (state, *listeners), e in zip(plays, (ev, rev)):
            comp = listeners[0].comp
            old = [comp[a] for a in e.old_arcs]
            for listener in listeners:
                listener.event(state, e)
            got.append(old + [comp[b] for b in e.new_arcs])
        if not (_rename(arcs, ev.old_arcs, rev.old_arcs)
                and _rename(arcs, ev.new_arcs, rev.new_arcs)):
            bad.append("event %d: arcs" % i)
        elif _event_in(ev, arcs[0]) != (
                rev.old_ports, rev.new_ports, rev.old_links, rev.new_links,
                rev.strands, rev.pieces()):
            bad.append("event %d: wiring or pieces" % i)
        elif not _pairs_as_transfer(ev, rev, arcs[0]):
            bad.append("event %d: transfer" % i)
        if not _rename(cids, *got):
            bad.append("event %d: component ids" % i)
        if ids.ops != ref_ids.ops:
            bad.append("event %d: program op" % i)
        if not _frame(new, ref, arcs[0]):
            bad.append("event %d: live sentence or root ports" % i)
    for state, *listeners in plays:
        for listener in listeners:
            listener.finish(state)
    ren = arcs[0]
    if ({ren[a] for a in new.diagram.arcs} != ref.diagram.arcs
            or {(ren[a], e): (ren[b], f) for (a, e), (b, f)
                in new.diagram.link.items()} != ref.diagram.link):
        bad.append("live diagram")
    if not new.root.sentence() == ref.root.term == report.boundary[1]:
        bad.append("live sentence")
    if inv.result != ref_inv.result:
        bad.append("invariants")
    if ids.program != ref_ids.program:
        bad.append("program")
    elif fr._play(ids.program, asg) != fr._play(ref_ids.program, asg):
        bad.append("M2Q value")
    return bad


def test_shapes_play_every_movie_as_the_reference_does(p):
    """Every event of the corpus, played by shapes and by rebuilding it:
    the same arcs up to renaming, ports, links, strands, pieces, transfer
    (against the reference's port-and-strand pairing), component ids and
    program ops (key, consumed and kept slot positions), after every
    event the same live sentence and root ports, and at the end the same
    live diagram, invariants, program (with its target order) and M2Q
    values of both programs."""
    asg = fr.standard_assignment(fr.algebra_m2q(), p)
    terms = _oracle_corpus(p)
    failures = [(str(t), bad) for t in terms
                if (bad := _lockstep(tc.validate(t, p.data), p, asg))]
    assert len(terms) > 2500
    assert failures == []
