"""Strand-level execution of two-cell terms.

A morphism term denotes a compact 1-manifold cut into arcs, one arc per
strand of a 1-cell leaf.  A two-cell term denotes a movie: a sequence of
local events (generator cells and structural cells) rewriting that
1-manifold in place, recorded as a tape by `termcore.validate`.
`run_movie` plays the tape once, computing no boundary, and yields,
depending on the listener,

* the glued polygonal complex of the denoted surface, or
* the exact linear map the term evaluates to under an algebra assignment.

Both consumers live in `surface` and `frobenius`; this module owns the
shared strand bookkeeping.  An event of a structural cell says which old
arcs continue as which new ones, by the strand map its boundary formula
defines (`termcore.strand_paths`); an event of a generator cell
continues only the arcs at its boundary points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

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

    def components(self) -> List[frozenset]:
        seen = set()
        comps = []
        for aid in sorted(self.arcs):
            if aid in seen:
                continue
            stack, comp = [aid], set()
            while stack:
                a = stack.pop()
                if a in comp:
                    continue
                comp.add(a)
                for e in ((a, 0), (a, 1)):
                    other = self.link.get(e)
                    if other is not None and other[0] not in comp:
                        stack.append(other[0])
            seen |= comp
            comps.append(frozenset(comp))
        return comps


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
    `morphism_boundary` with one marker object per parameter."""
    leaf = cls(**{name: tc.ObjGen(name) for name, _ in cls.ARGS})
    return [tc.obj_points(w) for w in tc.morphism_boundary(leaf, None)]


_STRAND_ORDER = {cls: _strand_order(cls) for cls in tc.STRUCTURAL_1}


def leaf_arc_spec(leaf, gen_patterns):
    """Arc wiring of a 1-cell leaf: (n_src, n_tgt, [(end0, end1)]).

    Port references are ("s"|"t", index).  A 1-symbol carries each point
    of its parameters straight through; arcs run over the parameters in
    source order, points left to right.
    """
    if isinstance(leaf, tc.Gen1):
        if leaf.name not in gen_patterns:
            raise DiagramError("no arc pattern for 1-generator %r" % leaf.name)
        return gen_patterns[leaf.name]
    if isinstance(leaf, tc.Adj1):
        ns, nt, arcs = leaf_arc_spec(leaf.inner, gen_patterns)
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


def build_live(term, diagram, gen_patterns):
    if isinstance(term, tc.Comp1):
        first = build_live(term.first, diagram, gen_patterns)
        after = build_live(term.after, diagram, gen_patterns)
        if len(first.tgt_ports) != len(after.src_ports):
            raise DiagramError("composition point mismatch")
        for a, b in zip(first.tgt_ports, after.src_ports):
            diagram.join(a, b)
        return LiveNode(term, [first, after], first.src_ports,
                        after.tgt_ports, [])
    if isinstance(term, tc.Tensor1):
        left = build_live(term.left, diagram, gen_patterns)
        right = build_live(term.right, diagram, gen_patterns)
        return LiveNode(term, [left, right],
                        left.src_ports + right.src_ports,
                        left.tgt_ports + right.tgt_ports, [])
    ns, nt, arcspec = leaf_arc_spec(term, gen_patterns)
    src, tgt, ids = [None] * ns, [None] * nt, []
    for p0, p1 in arcspec:
        aid = diagram.new_arc()
        ids.append(aid)
        for end, port in (((aid, 0), p0), ((aid, 1), p1)):
            side, idx = port
            (src if side == "s" else tgt)[idx] = end
    if any(p is None for p in src + tgt):
        raise DiagramError("arc pattern misses points of %r" % (term,))
    return LiveNode(term, [], src, tgt, ids)


def _leaf_nodes(node):
    if not node.children:
        return [node]
    out = []
    for c in node.children:
        out.extend(_leaf_nodes(c))
    return out


def _arcs(node, path=()):
    """Arc ids of the subtree of `node` at sentence path `path`, in leaf
    order."""
    for step in path:
        node = node.children[_SENTENCE_STEP[step]]
    return [a for ln in _leaf_nodes(node) for a in ln.arc_ids]


# ---------------------------------------------------------------------------
# movie events
# ---------------------------------------------------------------------------

@dataclass
class Event:
    """One movie step: the leaf `cell` that fired (an `Inv2`, not its
    inner cell) and the wiring of the old subsentence and its replacement.

    Arcs are listed in leaf order; the i-th old and new port ends sit on
    the same boundary point; links are {end: partner} among the event's
    own arcs.  `strands` maps each old arc of a parameter a structural
    cell carries through (`termcore.strand_paths`) to the new arc it
    continues as; a generator cell's map is empty.
    """

    cell: object
    old_arcs: list
    new_arcs: list
    old_src_ports: list
    old_tgt_ports: list
    new_src_ports: list
    new_tgt_ports: list
    old_links: dict
    new_links: dict
    strands: dict


def _own_links(link, arcs):
    """{end: partner} of the links at the ends of `arcs`."""
    return {e: link[e] for a in arcs for e in ((a, 0), (a, 1)) if e in link}


class MovieState:
    def __init__(self, source_sentence, gen_patterns):
        self.gen_patterns = gen_patterns
        self.diagram = ArcDiagram()
        self.root = build_live(source_sentence, self.diagram, gen_patterns)

    def locate(self, path):
        node, parents = self.root, []
        for step in path:
            parents.append((node, step))
            node = node.children[step]
        return node, parents

    def apply_event(self, path, cell, source, target):
        node, parents = self.locate(path)
        if node.term != source:
            raise DiagramError(
                "movie out of sync at %s: expected %s, found %s"
                % ("/".join(map(str, path)) or "<root>", source, node.term))
        diagram = self.diagram
        old_arcs = _arcs(node)
        # detach boundary of the old subtree; the links left are its own
        outer_s = [diagram.unjoin(e) for e in node.src_ports]
        outer_t = [diagram.unjoin(e) for e in node.tgt_ports]
        old_links = _own_links(diagram.link, old_arcs)
        for aid in old_arcs:
            diagram.drop_arc(aid)
        new_node = build_live(target, diagram, self.gen_patterns)
        if (len(new_node.src_ports) != len(node.src_ports)
                or len(new_node.tgt_ports) != len(node.tgt_ports)):
            raise DiagramError("event does not preserve boundary points")
        new_arcs = _arcs(new_node)
        strands = {a: b for old, new in tc.strand_paths(cell)
                   for a, b in zip(_arcs(node, old), _arcs(new_node, new))}
        new_links = _own_links(diagram.link, new_arcs)
        for end, partner in zip(new_node.src_ports + new_node.tgt_ports,
                                outer_s + outer_t):
            if partner is not None:
                diagram.join(end, partner)
        if parents:
            parent, step = parents[-1]
            parent.children[step] = new_node
            for up, _ in reversed(parents):
                if isinstance(up.term, tc.Comp1):
                    up.src_ports = up.children[0].src_ports
                    up.tgt_ports = up.children[1].tgt_ports
                    up.term = tc.Comp1(up.children[1].term, up.children[0].term)
                else:
                    up.src_ports = (up.children[0].src_ports
                                    + up.children[1].src_ports)
                    up.tgt_ports = (up.children[0].tgt_ports
                                    + up.children[1].tgt_ports)
                    up.term = tc.Tensor1(up.children[0].term, up.children[1].term)
        else:
            self.root = new_node
        return Event(cell, old_arcs, new_arcs, node.src_ports, node.tgt_ports,
                     new_node.src_ports, new_node.tgt_ports,
                     old_links, new_links, strands)


class MovieListener:
    def begin(self, state):
        pass

    def event(self, state, ev):
        pass

    def finish(self, state):
        pass


# term path step -> live sentence child: ``Comp1`` nodes list the inner
# part's sentence first, and a sentence's own ``Comp1`` its first factor;
# chain positions name no sentence node
_SENTENCE_STEP = {"inner": 0, "outer": 1, "left": 0, "right": 1,
                  "first": 0, "after": 1}


def run_movie(report, gen_patterns, listener):
    """Play the tape of a valid term's `termcore.validate` report."""
    state = MovieState(report.boundary[0], gen_patterns)
    listener.begin(state)
    for path, cell, source, target in report.events:
        at = tuple(_SENTENCE_STEP[s] for s in path if s in _SENTENCE_STEP)
        listener.event(state, state.apply_event(at, cell, source, target))
    listener.finish(state)
    return state


# ---------------------------------------------------------------------------
# value transfer helpers shared by listeners
# ---------------------------------------------------------------------------

def transfer_components(before_comps, after_comps, ev):
    """Match components across an event that creates and destroys none.

    A consumed arc continues as the new arc at its boundary point, or as
    its `strands` image; every other arc lives on.  Returns dict old_comp
    -> new_comp; raises if an old component does not land in exactly one
    new component.
    """
    new_of_old = dict(ev.strands)
    for old_end, new_end in zip(ev.old_src_ports + ev.old_tgt_ports,
                                ev.new_src_ports + ev.new_tgt_ports):
        new_of_old[old_end[0]] = new_end[0]
    comp_of = {a: nc for nc in after_comps for a in nc}
    mapping = {}
    for oc in before_comps:
        hits = {comp_of.get(new_of_old.get(a, a)) for a in oc}
        hits.discard(None)
        if len(hits) != 1:
            raise DiagramError("component transfer is not a bijection")
        mapping[oc] = hits.pop()
    return mapping
