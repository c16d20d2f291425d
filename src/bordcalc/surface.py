"""Topological semantics: combinatorial surfaces denoted by two-cell terms.

`reconstruct` glues one elementary polygon per movie event (disks for
births, deaths, saddles and cusps; product strips for structural cells)
together with slice rectangles for the strands between events, giving a
polygonal complex of the denoted surface.  `invariants` computes connected
components, Euler characteristic, orientability and boundary circles from
the complex; `euler_by_events` recomputes the characteristic of a closed
term by counting critical events, serving as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from . import termcore as tc
from ._diagram import (ArcDiagram, DiagramError, MovieListener, leaf_pairs,
                       run_movie)


class SurfaceError(Exception):
    pass


# ---------------------------------------------------------------------------
# polygonal complexes
# ---------------------------------------------------------------------------

class Complex:
    """Faces are cyclic slot lists; slots are glued in pairs.

    A gluing with ``flip=True`` identifies the edge traversed in the *same*
    direction by both faces (orientation-reversing); ``flip=False`` is the
    usual opposed identification.
    """

    def __init__(self):
        self.faces: List[list] = []
        self.labels: List[str] = []
        self.slot_face: Dict[int, tuple] = {}
        self.partner: Dict[int, tuple] = {}
        self._next_slot = 0

    def new_slot(self) -> int:
        s = self._next_slot
        self._next_slot += 1
        return s

    def add_face(self, slots, label=""):
        idx = len(self.faces)
        self.faces.append(list(slots))
        self.labels.append(label)
        for pos, s in enumerate(slots):
            if s in self.slot_face:
                raise SurfaceError("slot used by two faces")
            self.slot_face[s] = (idx, pos)
        return idx

    def glue(self, a, b, flip=False):
        if a == b:
            raise SurfaceError("cannot glue a slot to itself")
        if a in self.partner or b in self.partner:
            raise SurfaceError("slot glued twice")
        self.partner[a] = (b, flip)
        self.partner[b] = (a, flip)

    def check(self):
        for s in self.slot_face:
            if s in self.partner:
                t, flip = self.partner[s]
                if t not in self.slot_face:
                    raise SurfaceError("dangling gluing")

    # -- connectivity ---------------------------------------------------

    def face_components(self) -> List[list]:
        parent = list(range(len(self.faces)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for s, (t, _) in self.partner.items():
            a, b = find(self.slot_face[s][0]), find(self.slot_face[t][0])
            if a != b:
                parent[a] = b
        groups = {}
        for i in range(len(self.faces)):
            groups.setdefault(find(i), []).append(i)
        return sorted(groups.values())

    # -- corners and vertices --------------------------------------------

    def corner_classes(self):
        """`find` mapping a corner (face, position) to its vertex class."""
        parent = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            a, b = find(x), find(y)
            if a != b:
                parent[a] = b

        for f, slots in enumerate(self.faces):
            n = len(slots)
            for i in range(n):
                find((f, i))
        for s, (t, flip) in self.partner.items():
            if t < s:
                continue
            f, i = self.slot_face[s]
            g, j = self.slot_face[t]
            nf, ng = len(self.faces[f]), len(self.faces[g])
            if not flip:
                union((f, i), (g, (j + 1) % ng))
                union((f, (i + 1) % nf), (g, j))
            else:
                union((f, i), (g, j))
                union((f, (i + 1) % nf), (g, (j + 1) % ng))
        return find

    def stats(self, find, faces=None):
        """(V, E, F, free_slots) over the selected faces; `find` is
        `corner_classes()`."""
        sel = set(faces if faces is not None else range(len(self.faces)))
        F = len(sel)
        E = 0
        free = []
        seen = set()
        for s, (f, _) in self.slot_face.items():
            if f not in sel or s in seen:
                continue
            seen.add(s)
            if s in self.partner:
                seen.add(self.partner[s][0])
            else:
                free.append(s)
            E += 1
        roots = set()
        for f in sel:
            for i in range(len(self.faces[f])):
                roots.add(find((f, i)))
        return len(roots), E, F, free

    def euler_characteristic(self, find, faces=None) -> int:
        V, E, F, _ = self.stats(find, faces)
        return V - E + F

    def orientable(self, faces=None) -> bool:
        sel = set(faces if faces is not None else range(len(self.faces)))
        color = {}
        for start in sorted(sel):
            if start in color:
                continue
            color[start] = 1
            stack = [start]
            while stack:
                f = stack.pop()
                for s in self.faces[f]:
                    if s not in self.partner:
                        continue
                    t, flip = self.partner[s]
                    g = self.slot_face[t][0]
                    if g not in sel:
                        continue
                    want = -color[f] if flip else color[f]
                    if g not in color:
                        color[g] = want
                        stack.append(g)
                    elif color[g] != want:
                        return False
        return True

    def boundary_circles(self, find, faces=None) -> int:
        """Connected components of the free-edge graph on boundary vertices;
        `find` is `corner_classes()`."""
        sel = set(faces if faces is not None else range(len(self.faces)))
        free = [s for s, (f, _) in self.slot_face.items()
                if f in sel and s not in self.partner]
        if not free:
            return 0
        comp = {}

        def root(x):
            while comp.get(x, x) != x:
                comp[x] = comp.get(comp[x], comp[x])
                x = comp[x]
            return x

        def union(x, y):
            comp.setdefault(x, x)
            comp.setdefault(y, y)
            a, b = root(x), root(y)
            if a != b:
                comp[a] = b

        for s in free:
            f, i = self.slot_face[s]
            n = len(self.faces[f])
            union(("slot", s), ("v", find((f, i))))
            union(("slot", s), ("v", find((f, (i + 1) % n))))
        roots = {root(("slot", s)) for s in free}
        return len(roots)


# ---------------------------------------------------------------------------
# movie-driven surface assembly
# ---------------------------------------------------------------------------

class _Builder(MovieListener):
    """Emits one rectangle per arc per interval and one polygon per event
    boundary cycle.

    ``pending[arc]`` holds the dangling edge awaiting the next face: None
    for a free source edge, else (slot, d) where d is the direction (+1 =
    end0 -> end1) in which the producing face traversed the shared edge.
    """

    def __init__(self):
        self.cx = Complex()
        self.pending = {}

    def begin(self, state):
        for aid in state.diagram.arcs:
            self.pending[aid] = None
        self._emit_interval(state)

    def _emit_interval(self, state):
        sides = {}
        for aid in sorted(state.diagram.arcs):
            rec = self.pending.get(aid, None)
            bot = self.cx.new_slot()
            s1 = self.cx.new_slot()
            top = self.cx.new_slot()
            s0 = self.cx.new_slot()
            kind = state.diagram.arcs[aid].kind
            # ccw cycle: bottom e0->e1, side at end1 up, top e1->e0,
            # side at end0 down
            self.cx.add_face([bot, s1, top, s0], label="strip:%s" % (kind,))
            if rec is not None:
                slot, pdir = rec
                self.cx.glue(bot, slot, flip=(pdir == +1))
            self.pending[aid] = (top, -1)
            sides[(aid, 0)] = s0
            sides[(aid, 1)] = s1
        for end, partner in state.diagram.link.items():
            if end < partner:
                self.cx.glue(sides[end], sides[partner],
                             flip=(end[1] == partner[1]))

    def event(self, state, ev, before_comps):
        old_set = set(ev.old_arcs)
        new_set = set(ev.new_arcs)
        old_links = {}
        for a, b in ev.old_links:
            old_links[a] = b
            old_links[b] = a
        new_links = {}
        for a, b in state.diagram.link.items():
            if a[0] in new_set and b[0] in new_set:
                new_links[a] = b
        old_port_key = {}
        for i, end in enumerate(ev.old_src_ports):
            old_port_key[end] = ("s", i)
        for i, end in enumerate(ev.old_tgt_ports):
            old_port_key[end] = ("t", i)
        new_port_key = {}
        new_port_end = {}
        for i, end in enumerate(ev.new_src_ports):
            new_port_key[end] = ("s", i)
            new_port_end[("s", i)] = end
        for i, end in enumerate(ev.new_tgt_ports):
            new_port_key[end] = ("t", i)
            new_port_end[("t", i)] = end
        old_port_end = {v: k for k, v in old_port_key.items()}

        def advance(side, arc, direction):
            exit_end = (arc, 1 if direction == +1 else 0)
            links = old_links if side == "old" else new_links
            if exit_end in links:
                narc, nend = links[exit_end]
                return (side, narc, +1 if nend == 0 else -1)
            keymap = old_port_key if side == "old" else new_port_key
            if exit_end not in keymap:
                raise SurfaceError("event trace fell off the boundary")
            key = keymap[exit_end]
            if side == "old":
                if key not in new_port_end:
                    raise SurfaceError("port missing on target pattern")
                narc, nend = new_port_end[key]
                return ("new", narc, +1 if nend == 0 else -1)
            narc, nend = old_port_end[key]
            return ("old", narc, +1 if nend == 0 else -1)

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
                    raise SurfaceError("event piece is not a disk")
                cycles.append(cycle)

        # Closed pieces carried through unchanged (their arcs match leaf for
        # leaf across the event) are tubed, not capped: their pending edges
        # simply transfer to the corresponding new arcs.
        pairs = leaf_pairs(ev)
        label = "event:%s" % _event_label(ev.cell)
        tubed_new = set()
        emit = []
        for cycle in cycles:
            sides = {s for s, _, _ in cycle}
            arcs = [a for _, a, _ in cycle]
            if sides == {"old"} and all(a in pairs for a in arcs):
                for a in arcs:
                    b = pairs[a]
                    if b in self.pending or b in tubed_new:
                        raise SurfaceError("tube target already produced")
                    self.pending[b] = self.pending.pop(a)
                    tubed_new.add(b)
                continue
            if sides == {"new"} and all(a in tubed_new for a in arcs):
                continue
            emit.append(cycle)
        for cycle in emit:
            slots = []
            for side, arc, direction in cycle:
                poly_slot = self.cx.new_slot()
                slots.append(poly_slot)
                if side == "old":
                    rec = self.pending.pop(arc)
                    if rec is None:
                        raise SurfaceError("event consumed a boundary arc")
                    slot, pdir = rec
                    self.cx.glue(poly_slot, slot, flip=(direction == pdir))
                else:
                    if arc in self.pending:
                        raise SurfaceError("new arc produced twice")
                    self.pending[arc] = (poly_slot, direction)
            self.cx.add_face(slots, label=label)
        for arc in ev.new_arcs:
            if arc not in self.pending:
                raise SurfaceError("new arc missing from the event boundary")
        self._emit_interval(state)

    def finish(self, state):
        pass  # the last interval was emitted by begin() or event()


def _event_label(cell):
    if isinstance(cell, tc.Gen2):
        return cell.name
    if isinstance(cell, tc.Inv2):
        return "inv2:" + type(cell.inner).__name__
    return type(cell).__name__


@dataclass
class CombSurface:
    """Glued complex of elementary pieces for a two-cell term."""

    complex: Complex
    term: tc.TwoCellTerm

    @property
    def pieces(self):
        return list(self.complex.labels)


@dataclass(frozen=True)
class ComponentInvariants:
    euler_characteristic: int
    orientable: bool
    boundary_circles: int

    @property
    def genus(self) -> Optional[int]:
        if not self.orientable:
            return None
        return (2 - self.euler_characteristic - self.boundary_circles) // 2

    @property
    def crosscaps(self) -> Optional[int]:
        if self.orientable:
            return None
        return 2 - self.euler_characteristic - self.boundary_circles


@dataclass(frozen=True)
class SurfaceInvariants:
    components: tuple

    @property
    def component_count(self):
        return len(self.components)

    @property
    def euler_characteristic(self):
        return sum(c.euler_characteristic for c in self.components)

    def __str__(self):
        parts = ["components=%d;" % len(self.components)]
        for c in self.components:
            parts.append("[chi=%d orientable=%s boundary=%d]"
                         % (c.euler_characteristic,
                            "true" if c.orientable else "false",
                            c.boundary_circles))
        return " ".join(parts)


def reconstruct(term: tc.TwoCellTerm, presentation) -> CombSurface:
    """Glue the elementary pieces of the surface denoted by `term`.

    Pieces include the product strips of structural cells and of strands
    between events, so the piece count is finer than the minimal handle
    decomposition; the invariants are unaffected.
    """
    report = tc.validate(term, presentation.data)
    if not report.ok:
        raise SurfaceError("invalid term:\n%s" % report)
    builder = _Builder()
    run_movie(term, presentation.arc_patterns, builder, presentation.data)
    builder.cx.check()
    return CombSurface(builder.cx, term)


def invariants(surface: CombSurface) -> SurfaceInvariants:
    cx = surface.complex
    find = cx.corner_classes()
    comps = []
    for faces in cx.face_components():
        comps.append(ComponentInvariants(
            euler_characteristic=cx.euler_characteristic(find, faces),
            orientable=cx.orientable(faces),
            boundary_circles=cx.boundary_circles(find, faces)))
    comps.sort(key=lambda c: (c.euler_characteristic, not c.orientable,
                              c.boundary_circles))
    return SurfaceInvariants(tuple(comps))


def euler_by_events(term: tc.TwoCellTerm, presentation) -> int:
    """chi of a closed term by counting cap/cup (+1) and saddle (-1) leaves.

    Independent of the glued complex; only valid for closed terms.
    """
    src, tgt = tc.two_cell_boundary(term, presentation.data)
    for sentence in (src, tgt):
        if any(isinstance(l, tc.Gen1) for l in tc.morphism_leaves(sentence)):
            raise SurfaceError("term is not closed")
    if tc.obj_points(tc.morphism_source(src, presentation.data)) or \
       tc.obj_points(tc.morphism_target(src, presentation.data)):
        raise SurfaceError("term is not closed")
    chi = 0
    for leaf in tc.iter_two_cell_leaves(term):
        if isinstance(leaf, tc.Gen2):
            tag = presentation.two_gen_tags.get(leaf.name)
            if tag in ("cap", "cup"):
                chi += 1
            elif tag in ("split", "merge"):
                chi -= 1
    return chi
