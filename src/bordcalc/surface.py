"""Topological semantics: combinatorial surfaces denoted by two-cell terms.

`reconstruct` glues one elementary polygon per movie event (disks for
births, deaths, saddles and cusps; product strips for structural cells)
and one sheet per arc over the arc's whole life: between events the
surface is a product, so an arc no event touches keeps its sheet.  The
result is a polygonal complex of the denoted surface.  `invariants`
computes connected components, Euler characteristic, orientability and
boundary circles of every component in one pass over the complex;
`euler_by_events` recomputes the characteristic of a closed term by
counting critical events, serving as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from . import termcore as tc
from ._diagram import MovieListener, run_movie


class SurfaceError(Exception):
    pass


# ---------------------------------------------------------------------------
# polygonal complexes
# ---------------------------------------------------------------------------

class Complex:
    """Faces are cyclic slot lists; slots are glued in pairs.

    A gluing with ``flip=True`` identifies the edge traversed in the *same*
    direction by both faces (orientation-reversing); ``flip=False`` is the
    usual opposed identification.  Slots are numbered from 0 by
    `new_slot`, and each per-slot list is indexed by slot: ``face_of`` (-1
    until the slot is placed in a face), ``next`` (the following slot of
    that face), ``mate`` (the glued slot, -1 while free) and ``flip``.
    """

    def __init__(self):
        self.faces: List[list] = []
        self.face_of: List[int] = []
        self.next: List[int] = []
        self.mate: List[int] = []
        self.flip: List[bool] = []

    def new_slot(self) -> int:
        self.face_of.append(-1)
        self.next.append(-1)
        self.mate.append(-1)
        self.flip.append(False)
        return len(self.mate) - 1

    def add_face(self, slots):
        idx = len(self.faces)
        self.faces.append(slots)
        for s, t in zip(slots, slots[1:] + slots[:1]):
            if self.face_of[s] >= 0:
                raise SurfaceError("slot used by two faces")
            self.face_of[s] = idx
            self.next[s] = t
        return idx

    def glue(self, a, b, flip=False):
        if a == b:
            raise SurfaceError("cannot glue a slot to itself")
        if self.mate[a] >= 0 or self.mate[b] >= 0:
            raise SurfaceError("slot glued twice")
        self.mate[a], self.mate[b] = b, a
        self.flip[a] = self.flip[b] = flip

    def check(self):
        for s, t in enumerate(self.mate):
            if t >= 0 and self.face_of[s] >= 0 and self.face_of[t] < 0:
                raise SurfaceError("dangling gluing")

    def corner_classes(self) -> List[int]:
        """Vertex class of every corner.  Corner s is where slot s's edge
        starts; corners at one vertex get the same class, a slot id."""
        nxt = self.next
        find, union = _union_find(len(nxt))
        for s, t in enumerate(self.mate):
            if t < s:
                continue  # free, or met from its mate
            if self.flip[s]:
                union(s, t)
                union(nxt[s], nxt[t])
            else:
                union(s, nxt[t])
                union(nxt[s], t)
        return [find(s) for s in range(len(nxt))]


def _union_find(n):
    """`find` and `union` over a list of n parents; `union` returns whether
    it joined two classes."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        x, y = find(x), find(y)
        parent[x] = y
        return x != y

    return find, union


# ---------------------------------------------------------------------------
# movie-driven surface assembly
# ---------------------------------------------------------------------------

class _Builder(MovieListener):
    """Emits one sheet per arc lifetime and one polygon per event boundary
    cycle.

    A sheet opens when its arc is created, its bottom glued to the edge of
    the face that produced the arc, and closes when an event consumes the
    arc or the movie ends, as the ccw cycle ``[bot] + side1 + [top] +
    reversed(side0)``: bottom end0 -> end1, side at end1 up, top end1 ->
    end0, side at end0 down.  ``sheets[arc]`` holds (bot, side0, side1) of
    an open sheet.  A side gets a new segment only when an event touches
    the point at that end; the segment is glued to the neighbouring
    sheet's new segment there, or stays free on the boundary.
    """

    def __init__(self):
        self.cx = Complex()
        self.sheets = {}

    def begin(self, state):
        self._open(state, dict.fromkeys(sorted(state.diagram.arcs)))

    def _open(self, state, produced):
        """Open a sheet over every arc of `produced`, which maps the arc to
        its producing edge: None for a free source edge, else (slot, d)
        where d is the direction (+1 = end0 -> end1) in which the
        producing face traversed it."""
        segment = {}
        for aid, rec in produced.items():
            bot = self.cx.new_slot()
            if rec is not None:
                slot, pdir = rec
                self.cx.glue(bot, slot, flip=(pdir == +1))
            self.sheets[aid] = (bot, [], [])
            for end in ((aid, 0), (aid, 1)):
                segment[end] = self._segment(end)
        for end, seg in segment.items():
            partner = state.diagram.link.get(end)
            if partner is None:
                continue  # a free point: the segment stays on the boundary
            other = segment.get(partner)
            if other is None:  # a sheet that stays open is touched here
                other = self._segment(partner)
            elif other < seg:
                continue  # glued from the partner's side
            self.cx.glue(seg, other, flip=(end[1] == partner[1]))

    def _segment(self, end):
        slot = self.cx.new_slot()
        self.sheets[end[0]][1 + end[1]].append(slot)
        return slot

    def _close(self, aid):
        """Emit the sheet of `aid`; returns its top slot (end1 -> end0)."""
        bot, side0, side1 = self.sheets.pop(aid)
        top = self.cx.new_slot()
        self.cx.add_face([bot] + side1 + [top] + side0[::-1])
        return top

    def event(self, state, ev):
        # a trace leaves an arc by a link among the event's own arcs, or
        # crosses sides at a boundary point, where the i-th old and new
        # ports sit together
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
                raise SurfaceError("event trace fell off the boundary")
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
                    raise SurfaceError("event piece is not a disk")
                cycles.append(cycle)

        # Closed pieces a structural cell carries through (every arc in its
        # strand map) are tubed, not capped: each old sheet closes and the
        # sheet of the new arc it continues as opens on top of it.
        pairs = ev.strands
        produced = {}
        emit = []
        for cycle in cycles:
            sides = {s for s, _, _ in cycle}
            arcs = [a for _, a, _ in cycle]
            if sides == {"old"} and all(a in pairs for a in arcs):
                for a in arcs:
                    b = pairs[a]
                    if b in produced:
                        raise SurfaceError("tube target already produced")
                    produced[b] = (self._close(a), -1)
                continue
            if sides == {"new"} and all(a in produced for a in arcs):
                continue
            emit.append(cycle)
        for cycle in emit:
            slots = []
            for side, arc, direction in cycle:
                poly_slot = self.cx.new_slot()
                slots.append(poly_slot)
                if side == "old":
                    if arc not in self.sheets:
                        raise SurfaceError("event consumed a boundary arc")
                    self.cx.glue(poly_slot, self._close(arc),
                                 flip=(direction == -1))
                else:
                    if arc in produced:
                        raise SurfaceError("new arc produced twice")
                    produced[arc] = (poly_slot, direction)
            self.cx.add_face(slots)
        for arc in ev.new_arcs:
            if arc not in produced:
                raise SurfaceError("new arc missing from the event boundary")
        self._open(state, produced)

    def finish(self, state):
        for aid in list(self.sheets):
            self._close(aid)


@dataclass
class CombSurface:
    """Glued complex of elementary pieces for a two-cell term."""

    complex: Complex
    term: tc.TwoCellTerm


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

    Pieces are the event polygons (product strips for structural cells)
    and one sheet per arc lifetime, so the piece count is finer than the
    minimal handle decomposition; the invariants are unaffected.
    """
    report = tc.validate(term, presentation.data)
    if not report.ok:
        raise SurfaceError("invalid term:\n%s" % report)
    builder = _Builder()
    run_movie(report, presentation.data, builder)
    builder.cx.check()
    return CombSurface(builder.cx, term)


def invariants(surface: CombSurface) -> SurfaceInvariants:
    """Invariants of every component in one pass over the slots.

    Union-finds over lists give the vertex classes (`corner_classes`), the
    face components with their orientability, and the boundary circles:
    free slots join their end vertices, so a component has as many
    circles as boundary vertices less successful joins.  V counts vertex
    classes, E glued pairs and free slots.
    """
    cx = surface.complex
    nf = len(cx.faces)
    vertex = cx.corner_classes()
    # face f in both orientations, 2f and 2f+1, joined to its neighbours in
    # the orientations the gluings carry over: a component is orientable
    # when its two orientations stay apart
    find, union = _union_find(2 * nf)
    for s, t in enumerate(cx.mate):
        if t > s:
            f, g, flip = 2 * cx.face_of[s], 2 * cx.face_of[t], cx.flip[s]
            union(f, g + flip)
            union(f + 1, g + 1 - flip)
    V, E, F, circles = ([0] * 2 * nf for _ in range(4))
    comp, orientable = [], {}
    for f in range(nf):
        up, down = find(2 * f), find(2 * f + 1)
        c = min(up, down)
        comp.append(c)
        orientable[c] = up != down
        F[c] += 1
    find, union = _union_find(len(vertex))
    on_boundary = [False] * len(vertex)
    for s, f in enumerate(cx.face_of):
        if f < 0:
            continue
        c = comp[f]
        V[c] += vertex[s] == s
        t = cx.mate[s]
        E[c] += t < 0 or t > s
        if t < 0:
            ends = (vertex[s], vertex[cx.next[s]])
            for v in ends:
                circles[c] += not on_boundary[v]
                on_boundary[v] = True
            circles[c] -= union(*ends)
    comps = [ComponentInvariants(euler_characteristic=V[c] - E[c] + F[c],
                                 orientable=orientable[c],
                                 boundary_circles=circles[c])
             for c in orientable]
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
    if any(map(tc.obj_points, tc.morphism_boundary(src, presentation.data))):
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
