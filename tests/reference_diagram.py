"""Reference movie playback: every event rebuilt from its sentences.

This is the event path that compiling each 2-leaf once into a
`_diagram.Shape` and splicing it into a lazy live tree replaced, kept as
the oracle for both.  Its `LiveNode` carries its term and both port
lists, and `_ports` derives a composite's from its children's.  Its
`MovieState` builds the source and each event's target on the live
diagram with its own `build_live`, reads the event's own links back off
that diagram, walks both subtrees for the strand map and rebuilds the
ports and term of every ancestor of the node it replaced.  It shares
only the arc diagram (its int ends ``2 * arc + side``), the 1-leaf
wiring (`_diagram.leaf_arc_spec`) and the component walk with `_diagram`,
and its `apply_event` takes a live child path, not a tape path; the live
arcs are read off its root's leaves.  `WalkingFollow.follow` transfers the
component ids of a rerouting event by `pairing`, which pairs the pieces
of the event's own arcs through its boundary points and strands, and
`Event.pieces` traces the boundary cycles of the whole event in its
live arc ids.  `EvalListener` records the evaluator's component program
on those ids, and `InvariantsListener` reads the surface invariants off
those pieces.  Only tests use it.
"""

from dataclasses import dataclass

from bordcalc import _diagram as dg
from bordcalc import frobenius as fr
from bordcalc import surface as sf
from bordcalc import termcore as tc
from bordcalc._diagram import (ArcDiagram, DiagramError, leaf_arc_spec,
                               number_pieces)


@dataclass
class LiveNode:
    """Mirror of the current sentence tree; leaves carry their arc ids.
    `sentence`, `ports` and `arcs` read it as listeners read a
    `_diagram.LiveNode`."""

    term: tc.MorphismTerm
    children: list
    src_ports: list
    tgt_ports: list
    arcs: list

    def sentence(self):
        return self.term

    def ports(self):
        return self.src_ports, self.tgt_ports


def _ports(cls, children):
    """(sources, targets, (ends, starts) meeting pairwise) of a live `cls`
    node over its `parts`: ``(f ; g)`` joins f's targets to g's sources."""
    a, b = children
    if cls is tc.Comp1:
        return a.src_ports, b.tgt_ports, (a.tgt_ports, b.src_ports)
    return a.src_ports + b.src_ports, a.tgt_ports + b.tgt_ports, ((), ())


def build_live(term, diagram, data):
    """The live node of sentence `term` over `data`, its arcs made in
    `diagram` and its parts' meeting ports joined."""
    cls = type(term)
    if cls in tc.LIFT:
        children = [build_live(c, diagram, data) for _, c in tc.parts(term)]
        src, tgt, (ends, starts) = _ports(cls, children)
        if len(ends) != len(starts):
            raise DiagramError("composition point mismatch")
        for a, b in zip(ends, starts):
            diagram.join(a, b)
        return LiveNode(term, children, src, tgt, [])
    ns, nt, arcspec = leaf_arc_spec(term, data)
    src, tgt, ids = [None] * ns, [None] * nt, []
    for p0, p1 in arcspec:
        aid = diagram.new_arc()
        ids.append(aid)
        for end, (side, idx) in ((2 * aid, p0), (2 * aid + 1, p1)):
            (src if side == "s" else tgt)[idx] = end
    return LiveNode(term, [], src, tgt, ids)


def _leaf_nodes(node):
    if not node.children:
        return [node]
    return [leaf for c in node.children for leaf in _leaf_nodes(c)]


def _arcs(node, path=()):
    """Arc ids, in leaf order, of the subtree of `node` at sentence `path`."""
    for step in path:
        node = node.children[dg._CHILD[step]]
    return [a for ln in _leaf_nodes(node) for a in ln.arcs]


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
    return {e: link[e] for a in arcs for e in (2 * a, 2 * a + 1) if e in link}


def _unjoin(link, end):
    """Unlink `end` and its partner, if any; returns the partner."""
    other = link.pop(end, None)
    if other is not None:
        link.pop(other, None)
    return other


class MovieState:
    def __init__(self, source_sentence, data):
        self.data = data
        self.diagram = ArcDiagram()
        self.root = build_live(source_sentence, self.diagram, data)

    def apply_event(self, path, cell, source, target):
        node, parents = self.root, []
        for step in path:
            parents.append(node)
            node = node.children[step]
        if node.term != source:
            raise DiagramError("movie out of sync at %s" % (path,))
        diagram = self.diagram
        old_arcs = _arcs(node)
        old_ports = node.src_ports + node.tgt_ports
        # detach boundary of the old subtree; the links left are its own
        outer = [_unjoin(diagram.link, e) for e in old_ports]
        old_links = _own_links(diagram.link, old_arcs)
        for aid in old_arcs:
            for e in (2 * aid, 2 * aid + 1):
                _unjoin(diagram.link, e)
        new_node = build_live(target, diagram, self.data)
        if (len(new_node.src_ports) != len(node.src_ports)
                or len(new_node.tgt_ports) != len(node.tgt_ports)):
            raise DiagramError("event does not preserve boundary points")
        new_arcs = _arcs(new_node)
        strands = {a: b for old, new in tc.strand_paths(cell)
                   for a, b in zip(_arcs(node, old),
                                   _arcs(new_node, new))}
        new_links = _own_links(diagram.link, new_arcs)
        new_ports = new_node.src_ports + new_node.tgt_ports
        for end, partner in zip(new_ports, outer):
            if partner is not None:
                diagram.join(end, partner)
        if parents:
            parents[-1].children[path[-1]] = new_node
            for up in reversed(parents):
                up.src_ports, up.tgt_ports, _ = _ports(type(up.term),
                                                       up.children)
                up.term = tc.rebuild(up.term, [c.term for c in up.children])
        else:
            self.root = new_node
        return Event(cell, old_arcs, new_arcs, old_ports, new_ports,
                     old_links, new_links, strands)


def pairing(ev):
    """(was, now, to) of an event `ev` in the reference layout: its old
    and new pieces numbered apart by its own links, and the new piece
    each old piece continues as through the boundary points and the
    strands; `to` is None unless that pairing is one to one."""
    was, now = {}, {}
    pieces = (number_pieces(ev.old_links, ev.old_arcs, was, 0),
              number_pieces(ev.new_links, ev.new_arcs, now, 0))
    pairs = {(was[a], now[b]) for a, b in ev.strands.items()}
    pairs.update((was[x >> 1], now[y >> 1])
                 for x, y in zip(ev.old_ports, ev.new_ports))
    to = dict(pairs)
    if not (len(pairs) == len(to) == pieces[0]
            == len(set(to.values())) == pieces[1]):
        to = None
    return was, now, to


class WalkingFollow(dg.ComponentListener):
    """`ComponentListener` whose rerouting events walk their own arcs."""

    def follow(self, state, ev, reroute):
        comp = self.comp
        old = [comp.pop(a) for a in ev.old_arcs]
        if reroute:
            was, now, to = pairing(ev)
            if to is None:
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
        exit_end = 2 * arc + (1 if direction == +1 else 0)
        links, other, across = steps[side]
        if exit_end in links:
            nx = links[exit_end]
        elif exit_end in across:
            side, nx = other, across[exit_end]
        else:
            raise DiagramError("event trace fell off the boundary")
        return (side, nx >> 1, +1 if nx & 1 == 0 else -1)

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
    """The `frobenius` program recorder on walked component ids."""


class InvariantsListener(sf._InvariantsListener):
    """`surface._InvariantsListener` on the pieces an event traces in its
    live arc ids (`Event.pieces`), not on its shape's."""

    def event(self, state, ev):
        up, chi = self.up, self.chi
        carried, caps = ev.pieces()
        for b, a in carried.items():
            up[b] = (a, 0)
        for cycle in caps:
            side0, a0, d0 = cycle[0]
            if side0 == "old":
                p0 = d0 == -1
                r0, q0 = self.find(a0)
            else:  # a birth: the cycle holds new arcs only
                p0 = d0 == +1
                r0, q0, chi[a0] = a0, 0, 0
            disk = q0 ^ p0  # the disk's orientation against r0's
            euler, prev = 1, cycle[-1][0]
            for side, arc, direction in cycle:
                if side == "old":
                    euler -= prev != "old"
                    if arc != a0:
                        self.union(arc, a0, (direction == -1) ^ p0)
                elif arc != a0:
                    up[arc] = (r0, disk ^ (direction == +1))
                prev = side
            chi[r0] += euler

