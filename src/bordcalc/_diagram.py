"""Strand-level execution of two-cell terms.

A morphism term denotes a compact 1-manifold cut into arcs, one arc per
strand of a 1-cell leaf.  A two-cell term denotes a movie: a sequence of
local events (generator cells and structural cells) rewriting that
1-manifold in place, recorded as a tape by `termcore.validate`.
`run_movie` plays the tape once, computing no boundary, and yields,
depending on the listener,

* the invariants of the denoted surface,
* its glued polygonal complex, or
* the exact linear map the term evaluates to under an algebra assignment.

The consumers live in `surface` and `frobenius`; this module owns the
shared strand bookkeeping.  A leaf's arcs follow from the generating
data (`leaf_arc_spec`).  An event of a structural cell says which old
arcs continue as which new ones, by the strand map its boundary formula
defines (`termcore.strand_paths`); an event of a generator cell
continues only the arcs at its boundary points.  `ComponentListener`
follows the live components through the events as ids: a rerouting
event walks only its own arcs, any other event only the components
through its new arcs.

`number_pieces` is the one component walk, and `census` counts any
compact 1-manifold wired as an arc diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from . import termcore as tc


class DiagramError(Exception):
    pass


# ---------------------------------------------------------------------------
# arc diagrams
# ---------------------------------------------------------------------------

# An arc end is (arc_id, 0|1); the arc's own direction runs end 0 -> end 1.

class ArcDiagram:
    """Arc ids of one sentence plus the involution linking matched ends."""

    def __init__(self):
        self.arcs = set()
        self.link: Dict[tuple, tuple] = {}
        self._next = 0

    def new_arc(self) -> int:
        i = self._next
        self._next = i + 1
        self.arcs.add(i)
        return i

    def join(self, end_a, end_b):
        if end_a in self.link or end_b in self.link:
            raise DiagramError("arc end linked twice")
        self.link[end_a] = end_b
        self.link[end_b] = end_a

    def unjoin(self, end):
        other = self.link.pop(end, None)
        if other is not None:
            self.link.pop(other, None)
        return other

    def drop_arc(self, aid):
        for e in ((aid, 0), (aid, 1)):
            self.unjoin(e)
        self.arcs.remove(aid)


@dataclass
class LiveNode:
    """Mirror of the current sentence tree; leaves carry their arc ids."""

    term: tc.MorphismTerm
    children: list
    src_ports: list
    tgt_ports: list
    arc_ids: list


def _strand_order(cls):
    """(source, target) order of the parameters of 1-symbol `cls`, read off
    its `ends` with one marker object per parameter."""
    leaf = cls(**{name: tc.ObjGen(name) for name, _ in cls.ARGS})
    return [tc.obj_points(w) for w in leaf.ends()]


_STRAND_ORDER = {cls: _strand_order(cls) for cls in tc.STRUCTURAL_1}


def leaf_arc_spec(leaf, data):
    """Arc wiring of a 1-cell leaf: (n_src, n_tgt, [(end0, end1)]).

    Port references are ("s"|"t", index).  A 1-generator is one arc
    joining its two boundary points in `data`, source points first.  A
    1-symbol carries its parameters' points straight through, arcs in
    source order.
    """
    if isinstance(leaf, tc.Gen1):
        ns, nt = (len(tc.obj_points(w)) for w in data.one_gens[leaf.name])
        ends = [("s", i) for i in range(ns)] + [("t", j) for j in range(nt)]
        if len(ends) != 2:
            raise DiagramError("1-generator %r has %d boundary points, not "
                               "the 2 of one arc" % (leaf.name, len(ends)))
        return (ns, nt, [tuple(ends)])
    if isinstance(leaf, tc.Adj1):
        ns, nt, arcs = leaf_arc_spec(leaf.inner, data)
        flip = lambda p: ("t" if p[0] == "s" else "s", p[1])
        return (nt, ns, [(flip(a), flip(b)) for a, b in arcs])
    if type(leaf) not in _STRAND_ORDER:
        raise DiagramError("unsupported 1-cell leaf %r" % (leaf,))
    source, target = _STRAND_ORDER[type(leaf)]
    n = {m: len(tc.obj_points(getattr(leaf, m))) for m in source}
    points = lambda side: [(m, k) for m in side for k in range(n[m])]
    at = {x: j for j, x in enumerate(points(target))}
    arcs = [(("s", i), ("t", at[x])) for i, x in enumerate(points(source))]
    return (len(arcs), len(arcs), arcs)


class _Wiring(dict):
    """Leaf -> `leaf_arc_spec` over `data`, derived once per movie and leaf."""

    def __init__(self, data):
        self.data = data

    def __missing__(self, leaf):
        spec = self[leaf] = leaf_arc_spec(leaf, self.data)
        return spec


#: live child index under each sentence step and the 2-cell step over it
#: (`termcore.LIFT`); chain positions name no sentence node
_CHILD = {step: i for _, over in tc.LIFT.values()
          for i, steps in enumerate(over.items()) for step in steps}


def _ports(cls, children):
    """(sources, targets, (ends, starts) meeting pairwise) of a live `cls`
    node over its `parts`: ``(f ; g)`` joins f's targets to g's sources."""
    a, b = children
    if cls is tc.Comp1:
        return a.src_ports, b.tgt_ports, (a.tgt_ports, b.src_ports)
    return a.src_ports + b.src_ports, a.tgt_ports + b.tgt_ports, ((), ())


def build_live(term, diagram, wiring):
    """The live node of sentence `term`, its arcs made in `diagram` and its
    parts' meeting ports joined; parts are read by field, for speed."""
    cls = type(term)
    if cls is tc.Comp1:
        children = [build_live(term.first, diagram, wiring),
                    build_live(term.after, diagram, wiring)]
    elif cls is tc.Tensor1:
        children = [build_live(term.left, diagram, wiring),
                    build_live(term.right, diagram, wiring)]
    else:
        ns, nt, arcspec = wiring[term]
        src, tgt, ids = [None] * ns, [None] * nt, []
        for p0, p1 in arcspec:
            aid = diagram.new_arc()
            ids.append(aid)
            for end, (side, idx) in (((aid, 0), p0), ((aid, 1), p1)):
                (src if side == "s" else tgt)[idx] = end
        return LiveNode(term, [], src, tgt, ids)
    src, tgt, (ends, starts) = _ports(cls, children)
    if len(ends) != len(starts):
        raise DiagramError("composition point mismatch")
    for a, b in zip(ends, starts):
        diagram.join(a, b)
    return LiveNode(term, children, src, tgt, [])


def _leaf_nodes(node):
    if not node.children:
        return [node]
    out = []
    for c in node.children:
        out.extend(_leaf_nodes(c))
    return out


def comp_order(state, comp):
    """The ids of the live components, `comp` mapping each live arc to its
    component's id, in sentence-intrinsic order.

    Ordered by first boundary-port position, then by the leftmost leaf of
    the sentence tree touching the component; identical for any two movies
    ending at the same sentence.
    """
    port_pos, leaf_pos = {}, {}
    for pos, (aid, _) in enumerate(state.root.src_ports
                                   + state.root.tgt_ports):
        port_pos.setdefault(comp[aid], pos)
    for i, node in enumerate(_leaf_nodes(state.root)):
        for k, aid in enumerate(node.arc_ids):
            leaf_pos.setdefault(comp[aid], (i, k))
    return sorted(leaf_pos, key=lambda c: (port_pos.get(c, 10 ** 9),
                                           leaf_pos[c]))


def _arcs(node, path=()):
    """Arc ids, in leaf order, of the subtree of `node` at sentence `path`."""
    for step in path:
        node = node.children[_CHILD[step]]
    return [a for ln in _leaf_nodes(node) for a in ln.arc_ids]


# ---------------------------------------------------------------------------
# movie events
# ---------------------------------------------------------------------------

@dataclass
class Event:
    """One movie step: the leaf `cell` that fired (an `Inv2`, not its
    inner cell) and the wiring of the old subsentence and its replacement.

    Arcs are listed in leaf order; ports list the source then the target
    boundary ends, and the i-th old and new port ends sit on the same
    boundary point; links are {end: partner} among the event's own arcs.
    `strands` maps each old arc of a parameter a structural cell carries
    through (`termcore.strand_paths`) to the new arc it continues as; a
    generator cell's map is empty.
    """

    cell: object
    old_arcs: list
    new_arcs: list
    old_ports: list
    new_ports: list
    old_links: dict
    new_links: dict
    strands: dict


def _own_links(link, arcs):
    """{end: partner} of the links at the ends of `arcs`."""
    return {e: link[e] for a in arcs for e in ((a, 0), (a, 1)) if e in link}


class MovieState:
    def __init__(self, source_sentence, data):
        self.wiring = _Wiring(data)
        self.diagram = ArcDiagram()
        self.root = build_live(source_sentence, self.diagram, self.wiring)

    def apply_event(self, path, cell, source, target):
        node, parents = self.root, []
        for step in path:
            parents.append(node)
            node = node.children[step]
        if node.term != source:
            raise DiagramError(
                "movie out of sync at %s: expected %s, found %s"
                % ("/".join(map(str, path)) or "<root>", source, node.term))
        diagram = self.diagram
        old_arcs = _arcs(node)
        old_ports = node.src_ports + node.tgt_ports
        # detach boundary of the old subtree; the links left are its own
        outer = [diagram.unjoin(e) for e in old_ports]
        old_links = _own_links(diagram.link, old_arcs)
        for aid in old_arcs:
            diagram.drop_arc(aid)
        new_node = build_live(target, diagram, self.wiring)
        if (len(new_node.src_ports) != len(node.src_ports)
                or len(new_node.tgt_ports) != len(node.tgt_ports)):
            raise DiagramError("event does not preserve boundary points")
        new_arcs = _arcs(new_node)
        strands = {a: b for old, new in tc.strand_paths(cell)
                   for a, b in zip(_arcs(node, old), _arcs(new_node, new))}
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


class MovieListener:
    def begin(self, state):
        pass

    def event(self, state, ev):
        pass

    def finish(self, state):
        pass


def number_pieces(link, arcs, into, first):
    """The one component walk: number the pieces `link` joins through
    `arcs` in `into`, from `first` up, overwriting numbers below `first`;
    returns the next free number."""
    k = first
    for start in arcs:
        if into.get(start, -1) >= first:
            continue
        into[start] = k
        stack = [start]
        while stack:
            a = stack.pop()
            for other in (link.get((a, 0)), link.get((a, 1))):
                if other is not None and into.get(other[0], -1) < first:
                    into[other[0]] = k
                    stack.append(other[0])
        k += 1
    return k


def census(diagram):
    """The circles and intervals of the compact 1-manifold `diagram`
    wires: pieces with no unlinked end, and pieces with two."""
    intervals = len(diagram.arcs) - len(diagram.link) // 2
    pieces = number_pieces(diagram.link, diagram.arcs, {}, 0)
    return {"circles": pieces - intervals, "intervals": intervals}


class ComponentListener(MovieListener):
    """A listener that follows the live components as ids.

    `comp` maps each live arc to the id of its component; `begin` numbers
    the source's components, and `follow` keeps the map through an event.
    """

    def begin(self, state):
        self.comp = {}
        self._next = number_pieces(state.diagram.link, state.diagram.arcs,
                                   self.comp, 0)

    def follow(self, state, ev, reroute):
        """The component ids of `ev.old_arcs` and of `ev.new_arcs`, in arc
        order; call it once per event.

        A rerouting event (a structural, cusp or crossing cell) keeps the
        ids and walks only its own arcs: each piece its old arcs form must
        continue, through its boundary points and `strands`, as exactly
        one piece of its new arcs, one to one and onto, so it joins the
        same boundary points before and after.  Any other event gives
        fresh ids to the components through its new arcs.
        """
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


def run_movie(report, data, listener):
    """Play the tape of a `termcore.validate` report over generating `data`."""
    state = MovieState(report.boundary[0], data)
    listener.begin(state)
    for path, cell, source, target in report.events:
        at = tuple(_CHILD[s] for s in path if s in _CHILD)
        listener.event(state, state.apply_event(at, cell, source, target))
    listener.finish(state)
    return state
