"""Reference movie playback: every event rebuilt from its sentences.

This is the event path that compiling each 2-leaf once into a
`_diagram.Shape` replaced, kept as the oracle for it.  Its `MovieState`
builds each event's target on the live diagram with
`_diagram.build_live`, reads the event's own links back off that diagram
and walks both subtrees for the strand map.  `WalkingFollow.follow`
transfers the component ids of a rerouting event by walking the event's
own arcs, and `Event.pieces` traces the boundary cycles of the whole
event in its live arc ids.  `EvalListener` is the evaluator on those
ids, and `value` reads an evaluator listener's result.  Only tests use
it.
"""

from dataclasses import dataclass
from fractions import Fraction

from bordcalc import _diagram as dg
from bordcalc import frobenius as fr
from bordcalc import termcore as tc
from bordcalc._diagram import DiagramError, build_live, number_pieces


@dataclass
class Event:
    """One movie step in live arc ids, with the fields of a `Shape`: arcs
    in leaf order, ports (source then target ends), own links and the
    strand map."""

    cell: object
    old_arcs: list
    new_arcs: list
    old_ports: list
    new_ports: list
    old_links: dict
    new_links: dict
    strands: dict

    def pieces(self):
        return _pieces(self)


def _own_links(link, arcs):
    """{end: partner} of the links at the ends of `arcs`."""
    return {e: link[e] for a in arcs for e in ((a, 0), (a, 1)) if e in link}


class MovieState(dg.MovieState):
    def apply_event(self, path, cell, source, target):
        node, parents = self.root, []
        for step in path:
            parents.append(node)
            node = node.children[step]
        if node.term != source:
            raise DiagramError("movie out of sync at %s" % (path,))
        diagram = self.diagram
        old_arcs = dg._arcs(node)
        old_ports = node.src_ports + node.tgt_ports
        # detach boundary of the old subtree; the links left are its own
        outer = [diagram.unjoin(e) for e in old_ports]
        old_links = _own_links(diagram.link, old_arcs)
        for aid in old_arcs:
            for e in ((aid, 0), (aid, 1)):
                diagram.unjoin(e)
            diagram.arcs.remove(aid)
        new_node = build_live(target, diagram, self.data)
        if (len(new_node.src_ports) != len(node.src_ports)
                or len(new_node.tgt_ports) != len(node.tgt_ports)):
            raise DiagramError("event does not preserve boundary points")
        new_arcs = dg._arcs(new_node)
        strands = {a: b for old, new in tc.strand_paths(cell)
                   for a, b in zip(dg._arcs(node, old),
                                   dg._arcs(new_node, new))}
        new_links = _own_links(diagram.link, new_arcs)
        new_ports = new_node.src_ports + new_node.tgt_ports
        for end, partner in zip(new_ports, outer):
            if partner is not None:
                diagram.join(end, partner)
        if parents:
            parents[-1].children[path[-1]] = new_node
            for up in reversed(parents):
                up.src_ports, up.tgt_ports, _ = dg._ports(type(up.term),
                                                          up.children)
                up.term = tc.rebuild(up.term, [c.term for c in up.children])
        else:
            self.root = new_node
        return Event(cell, old_arcs, new_arcs, old_ports, new_ports,
                     old_links, new_links, strands)


class WalkingFollow(dg.ComponentListener):
    """`ComponentListener` whose rerouting events walk their own arcs."""

    def follow(self, state, ev, reroute):
        comp = self.comp
        old = [comp.pop(a) for a in ev.old_arcs]
        if reroute:
            was, now = {}, {}
            pieces = (number_pieces(ev.old_links, ev.old_arcs, was, 0),
                      number_pieces(ev.new_links, ev.new_arcs, now, 0))
            pairs = {(was[a], now[b]) for a, b in ev.strands.items()}
            pairs.update((was[a], now[b]) for (a, _), (b, _)
                         in zip(ev.old_ports, ev.new_ports))
            to = dict(pairs)
            if not (len(pairs) == len(to) == pieces[0]
                    == len(set(to.values())) == pieces[1]):
                raise DiagramError("component transfer is not a bijection")
            cid = {to[was[a]]: i for a, i in zip(ev.old_arcs, old)}
            for b in ev.new_arcs:
                comp[b] = cid[now[b]]
        else:
            self._next = number_pieces(state.diagram.link, ev.new_arcs,
                                       comp, self._next)
        return old, [comp[b] for b in ev.new_arcs]


def _pieces(ev):
    """(carried, caps) of a whole event, traced in its live arc ids."""
    steps = {"old": (ev.old_links, "new",
                     dict(zip(ev.old_ports, ev.new_ports))),
             "new": (ev.new_links, "old",
                     dict(zip(ev.new_ports, ev.old_ports)))}

    def advance(side, arc, direction):
        exit_end = (arc, 1 if direction == +1 else 0)
        links, other, across = steps[side]
        if exit_end in links:
            narc, nend = links[exit_end]
        elif exit_end in across:
            side, (narc, nend) = other, across[exit_end]
        else:
            raise DiagramError("event trace fell off the boundary")
        return (side, narc, +1 if nend == 0 else -1)

    traced = {}
    cycles = []
    for side, pool in (("old", ev.old_arcs), ("new", ev.new_arcs)):
        for a0 in pool:
            if (side, a0) in traced:
                continue
            state0 = (side, a0, +1)
            cycle = []
            s_, a_, d_ = state0
            while (s_, a_) not in traced:
                traced[(s_, a_)] = d_
                cycle.append((s_, a_, d_))
                s_, a_, d_ = advance(s_, a_, d_)
            if (s_, a_, d_) != state0 and traced.get((s_, a_)) != d_:
                raise DiagramError("event piece is not a disk")
            cycles.append(cycle)

    pairs = ev.strands
    if not pairs:
        return {}, cycles
    carried, caps = {}, []
    for cycle in cycles:
        sides = {s for s, _, _ in cycle}
        arcs = [a for _, a, _ in cycle]
        if sides == {"old"} and all(a in pairs for a in arcs):
            for a in arcs:
                if pairs[a] in carried:
                    raise DiagramError("tube target already produced")
                carried[pairs[a]] = a
        elif not (sides == {"new"} and all(a in carried for a in arcs)):
            caps.append(cycle)
    if any(s == "new" and a in carried for c in caps for s, a, _ in c):
        raise DiagramError("new arc produced twice")
    return carried, caps


class EvalListener(WalkingFollow, fr._EvalListener):
    """The `frobenius` evaluator listener on walked component ids."""


def value(state, listener):
    """The `frobenius.TwoCellValue` a finished `frobenius` evaluator
    listener holds, its target factors in `comp_order` of `state`."""
    n = listener.A.dim
    slot_of = {cid: i for i, cid in enumerate(listener.slots)}
    order = [slot_of[cid] for cid in dg.comp_order(state, listener.comp)]
    matrix = [[Fraction(0)] * n ** listener.sources
              for _ in range(n ** len(order))]
    for (col, idx), c in listener.state.items():
        row = 0
        for i in order:
            row = row * n + idx[i]
        matrix[row][col] += c
    return fr.TwoCellValue(listener.sources, len(order), n,
                           tuple(tuple(r) for r in matrix))
