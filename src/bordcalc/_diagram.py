"""Strand-level execution of two-cell terms.

A morphism term denotes a compact 1-manifold cut into arcs, one arc per
1-cell leaf.  A two-cell term denotes a movie: a sequence of local events
(generator cells and structural cells) rewriting that 1-manifold in place.
Walking the movie once yields, depending on the listener,

* the glued polygonal complex of the denoted surface, or
* the exact linear map the term evaluates to under an algebra assignment.

Both consumers live in `surface` and `frobenius`; this module owns the
shared strand bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from . import termcore as tc


class DiagramError(Exception):
    pass


# ---------------------------------------------------------------------------
# arc diagrams
# ---------------------------------------------------------------------------

# An arc end is (arc_id, 0|1); the arc's own direction runs end 0 -> end 1.

@dataclass
class Arc:
    kind: tuple  # ("gen", name) or ("struct", tag)


class ArcDiagram:
    """Arcs of one sentence plus the involution linking matched ends."""

    def __init__(self):
        self.arcs: Dict[int, Arc] = {}
        self.link: Dict[tuple, tuple] = {}
        self._next = 0

    def new_arc(self, kind) -> int:
        i = self._next
        self._next = i + 1
        self.arcs[i] = Arc(kind)
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
        del self.arcs[aid]

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


def leaf_arc_spec(leaf, gen_patterns):
    """Arc wiring of a 1-cell leaf: (n_src, n_tgt, [(end0, end1, kind)]).

    Port references are ("s"|"t", index).
    """
    if isinstance(leaf, tc.Gen1):
        if leaf.name not in gen_patterns:
            raise DiagramError("no arc pattern for 1-generator %r" % leaf.name)
        return gen_patterns[leaf.name]
    if isinstance(leaf, tc.Adj1):
        ns, nt, arcs = leaf_arc_spec(leaf.inner, gen_patterns)
        flip = lambda p: ("t" if p[0] == "s" else "s", p[1])
        return (nt, ns, [(flip(a), flip(b), k) for a, b, k in arcs])
    if isinstance(leaf, tc.Id1):
        n = len(tc.obj_points(leaf.word))
        return (n, n, [(("s", i), ("t", i), ("struct", "id")) for i in range(n)])
    if isinstance(leaf, tc.Assoc1):
        n = len(tc.obj_points(tc.obj_tensor(leaf.u, leaf.v, leaf.w)))
        return (n, n, [(("s", i), ("t", i), ("struct", "assoc")) for i in range(n)])
    if isinstance(leaf, (tc.LeftUnitor1, tc.RightUnitor1)):
        n = len(tc.obj_points(leaf.word))
        return (n, n, [(("s", i), ("t", i), ("struct", "unitor")) for i in range(n)])
    if isinstance(leaf, tc.Braid1):
        nu = len(tc.obj_points(leaf.u))
        nv = len(tc.obj_points(leaf.v))
        arcs = [(("s", i), ("t", nv + i), ("struct", "braid")) for i in range(nu)]
        arcs += [(("s", nu + j), ("t", j), ("struct", "braid")) for j in range(nv)]
        return (nu + nv, nu + nv, arcs)
    raise DiagramError("unsupported 1-cell leaf %r" % (leaf,))


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
    for p0, p1, kind in arcspec:
        aid = diagram.new_arc(kind)
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


# ---------------------------------------------------------------------------
# movie events
# ---------------------------------------------------------------------------

@dataclass
class Event:
    """One elementary movie step, with local wiring already resolved.

    * old_arcs / new_arcs: arc ids removed / created, in pattern order.
    * s_port_ends / t_port_ends: for each shared boundary point of the
      event, the (old_end, new_end) pair sitting on it.
    * old_leaves / new_leaves: leaf terms of the two patterns in order.
    """

    cell: object
    path: tuple
    source: object
    target: object
    old_arcs: list = field(default_factory=list)
    new_arcs: list = field(default_factory=list)
    old_src_ports: list = field(default_factory=list)
    old_tgt_ports: list = field(default_factory=list)
    new_src_ports: list = field(default_factory=list)
    new_tgt_ports: list = field(default_factory=list)
    old_links: list = field(default_factory=list)
    old_leaf_arcs: list = field(default_factory=list)
    new_leaf_arcs: list = field(default_factory=list)
    old_leaves: list = field(default_factory=list)
    new_leaves: list = field(default_factory=list)


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
        ev = Event(cell, path, source, target)
        old_leaves = _leaf_nodes(node)
        ev.old_arcs = [a for ln in old_leaves for a in ln.arc_ids]
        ev.old_src_ports = list(node.src_ports)
        ev.old_tgt_ports = list(node.tgt_ports)
        ev.old_links = [(a, b) for a, b in self.diagram.link.items()
                        if a < b and a[0] in set(ev.old_arcs)
                        and b[0] in set(ev.old_arcs)]
        ev.old_leaves = [ln.term for ln in old_leaves]
        ev.old_leaf_arcs = [list(ln.arc_ids) for ln in old_leaves]
        # detach boundary of the old subtree
        outer_s = [self.diagram.unjoin(e) for e in node.src_ports]
        outer_t = [self.diagram.unjoin(e) for e in node.tgt_ports]
        for aid in ev.old_arcs:
            self.diagram.drop_arc(aid)
        new_node = build_live(target, self.diagram, self.gen_patterns)
        if (len(new_node.src_ports) != len(node.src_ports)
                or len(new_node.tgt_ports) != len(node.tgt_ports)):
            raise DiagramError("event does not preserve boundary points")
        for end, partner in zip(new_node.src_ports, outer_s):
            if partner is not None:
                self.diagram.join(end, partner)
        for end, partner in zip(new_node.tgt_ports, outer_t):
            if partner is not None:
                self.diagram.join(end, partner)
        new_leaves = _leaf_nodes(new_node)
        ev.new_arcs = [a for ln in new_leaves for a in ln.arc_ids]
        ev.new_src_ports = list(new_node.src_ports)
        ev.new_tgt_ports = list(new_node.tgt_ports)
        ev.new_leaves = [ln.term for ln in new_leaves]
        ev.new_leaf_arcs = [list(ln.arc_ids) for ln in new_leaves]
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
        return ev


class MovieListener:
    def begin(self, state):
        pass

    def event(self, state, ev, before_comps):
        pass

    def finish(self, state):
        pass


def run_movie(term, gen_patterns, listener, data=None):
    source_sentence = tc.two_cell_source(term, data)
    state = MovieState(source_sentence, gen_patterns)
    listener.begin(state)
    _walk(term, (), state, listener, data)
    listener.finish(state)
    return state


def _walk(p, path, state, listener, data):
    if isinstance(p, tc.VComp):
        for c in p.children:
            _walk(c, path, state, listener, data)
        return
    if isinstance(p, tc.HComp):
        _walk(p.inner, path + (0,), state, listener, data)
        _walk(p.outer, path + (1,), state, listener, data)
        return
    if isinstance(p, tc.Tensor2):
        _walk(p.left, path + (0,), state, listener, data)
        _walk(p.right, path + (1,), state, listener, data)
        return
    if isinstance(p, tc.Id2):
        return
    src, tgt = tc.two_cell_boundary(p, data)
    before = state.diagram.components()
    ev = state.apply_event(path, p, src, tgt)
    listener.event(state, ev, before)


# ---------------------------------------------------------------------------
# value transfer helpers shared by listeners
# ---------------------------------------------------------------------------

def leaf_pairs(ev):
    """Old-arc -> new-arc matching of leaf subterms common to both patterns.

    Equal leaf terms are matched by order of occurrence; their arcs pair
    positionally.  This identifies the pieces of the 1-manifold an event
    carries through unchanged.
    """
    pairs = {}
    used_new = set()
    new_slots = list(zip(ev.new_leaves, ev.new_leaf_arcs))
    for leaf, arcs in zip(ev.old_leaves, ev.old_leaf_arcs):
        for k, (nleaf, narcs) in enumerate(new_slots):
            if k in used_new or nleaf != leaf:
                continue
            used_new.add(k)
            for a, b in zip(arcs, narcs):
                pairs.setdefault(a, b)
            break
    return pairs


def strand_preserving_pairs(ev):
    """leaf_pairs plus the pairing induced by shared boundary points."""
    pairs = {}
    for old_end, new_end in zip(ev.old_src_ports + ev.old_tgt_ports,
                                ev.new_src_ports + ev.new_tgt_ports):
        pairs[old_end[0]] = new_end[0]
    for a, b in leaf_pairs(ev).items():
        pairs.setdefault(a, b)
    return pairs


def transfer_components(before_comps, after_comps, ev):
    """Match components across a strand-preserving event.

    Returns dict old_comp -> new_comp; raises if the matching is not a
    bijection on the touched components.
    """
    old_set = set(ev.old_arcs)
    new_of_old = strand_preserving_pairs(ev)
    mapping = {}
    for oc in before_comps:
        carriers = [a for a in oc if a not in old_set]
        images = [new_of_old[a] for a in oc if a in new_of_old]
        nc_hits = set()
        for nc in after_comps:
            if any(a in nc for a in carriers) or any(a in nc for a in images):
                nc_hits.add(nc)
        if len(nc_hits) != 1:
            raise DiagramError("component transfer is not a bijection")
        mapping[oc] = nc_hits.pop()
    return mapping
