"""Strand-level execution of two-cell terms.

A morphism term denotes a compact 1-manifold cut into arcs, one arc per
strand of a 1-cell leaf.  A two-cell term denotes a movie: a sequence of
local events (generator cells and structural cells) rewriting that
1-manifold in place, recorded as a tape by `termcore.validate`.
`run_movie` plays the tape once, computing no boundary, and yields,
depending on the listener,

* the invariants of the denoted surface,
* its glued polygonal complex, or
* the algebra-free program `frobenius` plays under any assignment.

The consumers live in `surface` and `frobenius`; this module owns the
shared strand bookkeeping.  A leaf's arcs follow from the generating
data (`leaf_arc_spec`) and an event's wiring from its 2-leaf alone, so
each leaf is compiled once per datum into ``data.shapes`` (a 1-leaf to
its arcs, a 2-leaf to a `Shape`), under a copy of the leaf; the table is
emptied at `SHAPES_LIMIT`.  An event finds its node by its tape path
(`_CHILD`), builds the node it splices in on its shape's skeleton, at
fresh arc ids, and leaves the sentences above stale until read.  A
structural cell continues old arcs by its formula's strand map
(`termcore.strand_paths`), a generator cell only those at its boundary
points.  `Shape.pieces` traces the pieces of an event once per shape; a
rerouting event (a structural, cusp or crossing cell) fills strips and
tubes only, and `ComponentListener` keeps the component ids through the
`Shape.transfer` read off them; any other event gives fresh ids to the
components through its new arcs.

An arc end is the int ``2 * arc + side``, a shape's over its own arcs: an
event's old end x is ``2 * old_arcs[x >> 1] + (x & 1)``, its new end ``2 *
base + x``.  The live arcs are read off the live tree's leaves (`_arcs`).

`number_pieces` is the one component walk, and `census` counts any
compact 1-manifold wired as an arc diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict

from . import termcore as tc


class DiagramError(Exception):
    pass


# ---------------------------------------------------------------------------
# arc diagrams
# ---------------------------------------------------------------------------

class ArcDiagram:
    """The involution `link` on the int ends ``2 * arc + (0|1)`` of one
    sentence's arcs (end 0 -> end 1); live arcs are read off its tree."""

    def __init__(self):
        self.link: Dict[int, int] = {}
        self._next = 0

    def new_arc(self, n=1) -> int:
        """The first of `n` fresh arc ids, which run on consecutively."""
        i = self._next
        self._next = i + n
        return i

    def join(self, end_a, end_b):
        if end_a in self.link or end_b in self.link:
            raise DiagramError("arc end linked twice")
        self.link[end_a] = end_b
        self.link[end_b] = end_a


@dataclass(eq=False, slots=True)
class LiveNode:
    """A node of the live sentence tree.  A composite keeps its `children`
    (in `termcore.parts` order); a splice below leaves its `sentence`
    stale until read, and its `ports` are derived on each read.  A leaf
    keeps its arc range and `wiring`, and its ports once derived."""

    _term: tc.MorphismTerm
    children: list = ()
    arcs: range = ()
    wiring: tuple = None
    stale: bool = False
    _ports: tuple = None

    def sentence(self):
        """The node's sentence, rebuilt from its children's if stale."""
        if self.stale:
            self._term = tc.rebuild(self._term,
                                    [c.sentence() for c in self.children])
            self.stale = False
        return self._term

    def ports(self):
        """(source ends, target ends) of the node, in boundary order."""
        if self.children:
            a, b = self.children
            return _meet(type(self._term), a.ports(), b.ports())[:2]
        if self._ports is None:
            (ns, nt, arcspec), k0 = self.wiring, self.arcs.start
            self._ports = ports = [None] * ns, [None] * nt
            for k, ((s0, i0), (s1, i1)) in enumerate(arcspec, k0):
                ports[s0 == "t"][i0], ports[s1 == "t"][i1] = 2 * k, 2 * k + 1
        return self._ports


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
    if type(leaf) not in tc.STRUCTURAL_1:
        raise DiagramError("unsupported 1-cell leaf %r" % (leaf,))
    source, target = (params for params, _, _ in tc.reading(type(leaf)))
    n = {m: len(tc.obj_points(getattr(leaf, m))) for m in source}
    points = lambda side: [(m, k) for m in side for k in range(n[m])]
    at = {x: j for j, x in enumerate(points(target))}
    arcs = [(("s", i), ("t", at[x])) for i, x in enumerate(points(source))]
    return (len(arcs), len(arcs), arcs)


#: live child index under each sentence step and the 2-cell step over it
#: (`termcore.LIFT`); chain positions name no sentence node
_CHILD = {step: i for _, over in tc.LIFT.values()
          for i, steps in enumerate(over.items()) for step in steps}


def _meet(cls, a, b):
    """(sources, targets, (ends, starts) meeting pairwise) of a `cls` node
    over parts with ends `a`, `b`: ``(f ; g)`` joins f's targets to g's."""
    if cls is tc.Comp1:
        return a[0], b[1], (a[1], b[0])
    return a[0] + b[0], a[1] + b[1], ((), ())


def build_live(term, diagram, data):
    """The live node of sentence `term` and its (source, target) ends, its
    arcs made in `diagram`, meeting ends joined, wirings in ``data.shapes``."""
    cls = type(term)
    if cls in tc.LIFT:
        (a, pa), (b, pb) = [build_live(c, diagram, data)
                            for _, c in tc.parts(term)]
        src, tgt, (ends, starts) = _meet(cls, pa, pb)
        if len(ends) != len(starts):
            raise DiagramError("composition point mismatch")
        for x, y in zip(ends, starts):
            diagram.join(x, y)
        return LiveNode(term, [a, b]), (src, tgt)
    spec = data.shapes.get(term)
    if spec is None:
        spec = _keep(data.shapes, term, leaf_arc_spec(term, data))
    base = diagram.new_arc(len(spec[2]))
    node = LiveNode(term, (), range(base, base + len(spec[2])), spec)
    return node, node.ports()


#: entries a ``data.shapes`` table holds before it is emptied
SHAPES_LIMIT = 512


def _keep(table, leaf, entry):
    """`entry`, kept in `table` under a copy of `leaf`; empties a full one."""
    if len(table) >= SHAPES_LIMIT:
        table.clear()
    table[tc.fresh(leaf)] = entry
    return entry


def _leaf_nodes(node):
    if not node.children:
        return [node]
    return [leaf for c in node.children for leaf in _leaf_nodes(c)]


def comp_order(state, comp):
    """The ids of the live components, `comp` mapping each live arc to its
    component's id, in sentence-intrinsic order.

    Ordered by first boundary-port position, then by the leftmost leaf of
    the sentence tree touching the component; identical for any two movies
    ending at the same sentence.
    """
    port_pos, leaf_pos = {}, {}
    src, tgt = state.root.ports()
    for pos, x in enumerate(src + tgt):
        port_pos.setdefault(comp[x >> 1], pos)
    for i, node in enumerate(_leaf_nodes(state.root)):
        for k, aid in enumerate(node.arcs):
            leaf_pos.setdefault(comp[aid], (i, k))
    return sorted(leaf_pos, key=lambda c: (port_pos.get(c, 10 ** 9),
                                           leaf_pos[c]))


def _arcs(node, path=()):
    """Arc ids, in leaf order, of the subtree of `node` at sentence `path`."""
    for step in path:
        node = node.children[_CHILD[step]]
    if not node.children:
        return node.arcs
    return [a for ln in _leaf_nodes(node) for a in ln.arcs]


# ---------------------------------------------------------------------------
# event shapes
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Shape:
    """The events of one 2-leaf, in arc numbers relative to the event:
    old arcs ``0..n_old-1`` in the source's leaf order, new arcs
    ``0..n_new-1`` in the target's, and `skeleton` the target's live tree
    as lists of parts over each leaf's (arcs, wiring), with no terms.

    Ends are ints ``2 * arc + side`` over those numbers.  Ports list the
    source then the target boundary ends, and the i-th old and new port
    ends sit on the same boundary point; links are {end: partner} among
    the event's own arcs.  `strands` maps each old arc of a parameter a
    structural cell carries through (`termcore.strand_paths`) to the new
    arc it continues as; a generator cell's map is empty.  `pieces` is
    derived on first read, and `transfer` and `cap_plan` from it.
    """

    n_old: int
    n_new: int
    old_ports: list
    new_ports: list
    old_links: dict
    new_links: dict
    strands: dict
    skeleton: object

    @cached_property
    def transfer(self):
        """For each new arc, an old arc of the piece it continues, read off
        `pieces`: a carried tube's own, or a strip's (a cap of one run of
        old arcs and one of new, its first arc old); None if a piece is
        neither."""
        back = dict(self.pieces[0])
        for _, a0, euler, _, news in self.cap_plan:
            if euler:  # a strip has one run of old arcs: euler 0
                return None
            back.update((b, a0) for b, _ in news)
        return tuple(back[b] for b in range(self.n_new))

    @cached_property
    def cap_plan(self):
        """Each cap of `pieces` as (birth, a0, 1 less its runs of old arcs,
        its other old arcs, its other new arcs), a0 its first arc (new in a
        birth) and each other arc with its sheet's parity against a0's."""
        plan = []
        for cycle in self.pieces[1]:
            sides = [s for s, _, _ in cycle]
            runs = sum(s == "old" != prev
                       for s, prev in zip(sides, sides[-1:] + sides))
            flip = [(s, a, (d == -1) == (s == "old")) for s, a, d in cycle]
            (s0, a0, f0), rest = flip[0], flip[1:]
            plan.append((s0 == "new", a0, 1 - runs,
                         tuple((a, f ^ f0) for s, a, f in rest if s == "old"),
                         tuple((a, f ^ f0) for s, a, f in rest if s == "new")))
        return plan

    @cached_property
    def pieces(self):
        """The boundary cycles of the pieces the event fills: (carried, caps).

        A cycle lists (side, arc, direction) in trace order, side "old" or
        "new", direction +1 where the trace runs end0 -> end1; every arc
        lies on one cycle.  A closed piece a structural cell carries through
        (every arc in its strand map) is a tube: `carried` maps each of its
        new arcs to the old arc it continues, and its new cycle is dropped.
        Every other cycle, in `caps`, bounds one disk.
        """
        # a trace leaves an arc by a link among the event's own arcs, or
        # crosses sides at a boundary point, at the same port position
        steps = {"old": (self.old_links, "new",
                         dict(zip(self.old_ports, self.new_ports))),
                 "new": (self.new_links, "old",
                         dict(zip(self.new_ports, self.old_ports)))}

        def advance(side, arc, direction):
            exit_end = 2 * arc + (direction == +1)
            links, other, across = steps[side]
            if exit_end in links:
                x = links[exit_end]
            elif exit_end in across:
                side, x = other, across[exit_end]
            else:
                raise DiagramError("event trace fell off the boundary")
            return (side, x >> 1, -1 if x & 1 else +1)

        traced, cycles = {}, []
        for side, pool in (("old", range(self.n_old)),
                           ("new", range(self.n_new))):
            for a0 in pool:
                if (side, a0) in traced:
                    continue
                cycle, (s_, a_, d_) = [], (side, a0, +1)
                while (s_, a_) not in traced:
                    traced[(s_, a_)] = d_
                    cycle.append((s_, a_, d_))
                    s_, a_, d_ = advance(s_, a_, d_)
                if (s_, a_, d_) != (side, a0, +1) and traced.get((s_, a_)) != d_:
                    raise DiagramError("event piece is not a disk")
                cycles.append(cycle)

        pairs, carried, caps = self.strands, {}, []
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


def _compile(cell, source, target, data):
    """The `Shape` of 2-leaf `cell`, whose sides over `data` are the
    sentences `source` and `target`, each built on a diagram of its own."""
    old_d, new_d = ArcDiagram(), ArcDiagram()
    (old, po), (new, pn) = (build_live(source, old_d, data),
                            build_live(target, new_d, data))
    if len(pn[0]) != len(po[0]) or len(pn[1]) != len(po[1]):
        raise DiagramError("event does not preserve boundary points")
    strands = {a: b for o, n in tc.strand_paths(cell)
               for a, b in zip(_arcs(old, o), _arcs(new, n))}
    skeleton = lambda n: ([skeleton(c) for c in n.children] if n.children
                          else (n.arcs, n.wiring))
    return Shape(len(_arcs(old)), len(_arcs(new)), sum(po, []), sum(pn, []),
                 old_d.link, new_d.link, strands, skeleton(new))


def _instantiate(skeleton, term, base):
    """The live node of sentence `term` on `skeleton`, arc ids up by `base`."""
    if type(skeleton) is list:
        x, y = ((term.first, term.after) if type(term) is tc.Comp1
                else (term.left, term.right))
        return LiveNode(term, [_instantiate(skeleton[0], x, base),
                               _instantiate(skeleton[1], y, base)])
    a, wiring = skeleton
    return LiveNode(term, (), range(base + a.start, base + a.stop), wiring)


# ---------------------------------------------------------------------------
# movie events
# ---------------------------------------------------------------------------

@dataclass
class Event:
    """One movie step: the leaf `cell` that fired (an `Inv2`, not its
    inner cell), its `shape`, the old arcs it replaced, in leaf order, and
    the `base` its new arcs are numbered from: the shape's old arc i is
    ``old_arcs[i]`` and its new arc j is ``base + j``."""

    cell: object
    shape: Shape
    old_arcs: list
    base: int

    @property
    def new_arcs(self):
        return range(self.base, self.base + self.shape.n_new)

    def pieces(self):
        """The shape's `Shape.pieces` in this event's arcs."""
        old, base = self.old_arcs, self.base
        carried, caps = self.shape.pieces
        return ({base + b: old[a] for b, a in carried.items()},
                [[(s, old[a] if s == "old" else base + a, d)
                  for s, a, d in cycle] for cycle in caps])


class MovieState:
    def __init__(self, source_sentence, data):
        self.data = data
        self.diagram = ArcDiagram()
        self.root = build_live(source_sentence, self.diagram, data)[0]

    def apply_event(self, path, cell, source, target):
        """Play one tape entry, as `termcore.validate` records it."""
        node, parents = self.root, []
        for step in path:
            if step in _CHILD:
                at = _CHILD[step]
                parents.append(node)
                node = node.children[at]
        if node.sentence() != source:
            raise DiagramError(
                "movie out of sync at %s: expected %s, found %s"
                % ("/".join(map(str, path)) or "<root>", source,
                   node.sentence()))
        shape = self.data.shapes.get(cell)
        if shape is None:
            shape = _keep(self.data.shapes, cell,
                          _compile(cell, source, target, self.data))
        link, old_arcs = self.diagram.link, _arcs(node)
        outer = [link.pop(2 * old_arcs[x >> 1] + (x & 1), None)
                 for x in shape.old_ports]
        for x in shape.old_links:  # each outer partner is relinked below
            del link[2 * old_arcs[x >> 1] + (x & 1)]
        base = self.diagram.new_arc(shape.n_new)
        b2 = 2 * base
        for x, y in shape.new_links.items():
            link[b2 + x] = b2 + y
        for x, partner in zip(shape.new_ports, outer):
            if partner is not None:
                link[b2 + x], link[partner] = partner, b2 + x
        new_node = _instantiate(shape.skeleton, target, base)
        if parents:
            parents[-1].children[at] = new_node
            for up in parents:
                up.stale = True
        else:
            self.root = new_node
        return Event(cell, shape, old_arcs, base)


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
            for other in (link.get(2 * a), link.get(2 * a + 1)):
                if other is not None and into.get(other >> 1, -1) < first:
                    into[other >> 1] = k
                    stack.append(other >> 1)
        k += 1
    return k


def census(link, arcs):
    """The circles and intervals of the compact 1-manifold `link` wires
    over `arcs`: pieces with no unlinked end, and pieces with two."""
    intervals = len(arcs) - len(link) // 2
    pieces = number_pieces(link, arcs, {}, 0)
    return {"circles": pieces - intervals, "intervals": intervals}


class ComponentListener(MovieListener):
    """A listener that follows the live components as ids.

    `comp` maps each live arc to the id of its component; `begin` numbers
    the source's components, and `follow` keeps the map through an event.
    """

    def begin(self, state):
        self.comp = {}
        self._next = number_pieces(state.diagram.link, _arcs(state.root),
                                   self.comp, 0)

    def follow(self, state, ev, reroute):
        """The component ids of `ev.old_arcs` and of `ev.new_arcs`, in arc
        order; call it once per event.

        A rerouting event (a structural, cusp or crossing cell) keeps the
        ids through its shape's `Shape.transfer`, and one whose shape has
        none is refused.  Any other event gives fresh ids to the
        components through its new arcs.
        """
        comp = self.comp
        old = [comp.pop(a) for a in ev.old_arcs]
        if reroute:
            transfer = ev.shape.transfer
            if transfer is None:
                raise DiagramError("component transfer is not a bijection")
            new = [old[a] for a in transfer]
            comp.update(zip(ev.new_arcs, new))
            return old, new
        self._next = number_pieces(state.diagram.link, ev.new_arcs, comp,
                                   self._next)
        return old, [comp[b] for b in ev.new_arcs]


def run_movie(report, data, listener):
    """Play the tape of a `termcore.validate` report over generating `data`."""
    state = MovieState(report.boundary[0], data)
    listener.begin(state)
    for entry in report.events:
        listener.event(state, state.apply_event(*entry))
    listener.finish(state)
    return state
