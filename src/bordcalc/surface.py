"""Topological semantics: the surfaces denoted by two-cell terms.

`reconstruct` plays a term's movie once through a listener that reads
the invariants of every component off the events: χ as a Morse count,
orientability from a union-find with a parity bit over the arcs (the
orientation double cover), and the boundary circles.  The polygonal
complex (one polygon per event cap, one sheet per arc lifetime) is glued
from the same tape only when `CombSurface.complex` is first read; it and
`tests/reference_surface.py` are the listener's oracle, and
`euler_by_events` recounts χ of a closed term from its critical cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

from . import termcore as tc
from ._diagram import MovieListener, number_pieces, run_movie


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
    until the slot is placed in a face), ``mate`` (the glued slot, -1
    while free) and ``flip``.
    """

    def __init__(self):
        self.faces: List[list] = []
        self.face_of: List[int] = []
        self.mate: List[int] = []
        self.flip: List[bool] = []

    def new_slot(self) -> int:
        self.face_of.append(-1)
        self.mate.append(-1)
        self.flip.append(False)
        return len(self.mate) - 1

    def add_face(self, slots):
        for s in slots:
            if self.face_of[s] >= 0:
                raise SurfaceError("slot used by two faces")
            self.face_of[s] = len(self.faces)
        self.faces.append(slots)

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


# ---------------------------------------------------------------------------
# the glued complex
# ---------------------------------------------------------------------------

class _Builder(MovieListener):
    """Emits one sheet per arc lifetime and one polygon per event cap.

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
        carried, caps = ev.pieces()
        # a tube's old sheets close, and the sheet of the new arc each
        # continues as opens on top of it
        produced = {b: (self._close(a), -1) for b, a in carried.items()}
        for cycle in caps:
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
                    produced[arc] = (poly_slot, direction)
            self.cx.add_face(slots)
        self._open(state, produced)

    def finish(self, state):
        for aid in list(self.sheets):
            self._close(aid)


# ---------------------------------------------------------------------------
# invariants from the movie
# ---------------------------------------------------------------------------

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


class _InvariantsListener(MovieListener):
    """The invariants of every component, read off each event's shape.

    Each arc is the sheet `_Builder` glues over its lifetime.  The arcs
    form a union-find with a parity bit: ``up[a] = (parent, parity)`` for
    every arc that is not a root, the parity saying whether sheet a is
    flipped against its parent.  Each gluing joins two sheets with
    `_Builder`'s ``flip`` as parity: ``e == f`` for a link (a, e) ~ (b, f);
    in a cap, ``d == -1`` for an old arc traced in direction d and
    ``d == +1`` for a new one; 0 for a tube.  A conflict marks its
    component's root `twisted` (non-orientable).  Only the source's links
    are joined: a new arc's links follow from its cap or its tube.
    ``chi[root]`` counts the source slice (arcs less link pairs) and, per
    cap, its disk less the runs of linked old arcs it consumes.
    """

    def __init__(self):
        up, chi, twisted = {}, {}, set()

        def find(x):
            """(root of x, parity of x against it), compressing the path."""
            path = []
            while x in up:
                path.append(x)
                x = up[x][0]
            q = 0
            for y in reversed(path):
                q ^= up[y][1]
                up[y] = (x, q)
            return x, q

        def union(a, b, odd):
            """Join sheet a to sheet b flipped by `odd`, under b's root."""
            (ra, qa), (rb, qb) = find(a), find(b)
            if ra == rb:
                if odd ^ qa ^ qb:
                    twisted.add(rb)
            else:
                up[ra] = (rb, odd ^ qa ^ qb)
                chi[rb] += chi.pop(ra)
                if ra in twisted:
                    twisted.add(rb)
            return rb

        self.up, self.chi, self.twisted = up, chi, twisted
        self.find, self.union = find, union

    def begin(self, state):
        d, root = state.diagram, state.root
        self.chi.update(dict.fromkeys(d.arcs, 1))
        links = [(x, y) for x, y in d.link.items() if x < y]
        for (a, e), (b, f) in links:
            self.chi[self.union(a, b, e == f)] -= 1
        self.source = (dict(d.link), sum(root.ports(), []))

    def event(self, state, ev):
        up, chi, old, base = self.up, self.chi, ev.old_arcs, ev.base
        carried, caps = ev.shape.pieces
        for b, a in carried.items():
            up[base + b] = (old[a], 0)
        for cycle in caps:
            side0, a0, d0 = cycle[0]
            if side0 == "old":
                a0, p0 = old[a0], d0 == -1
                r0, q0 = self.find(a0)
            else:  # a birth: the cycle holds new arcs only
                a0, p0 = base + a0, d0 == +1
                r0, q0, chi[a0] = a0, 0, 0
            disk = q0 ^ p0  # the disk's orientation against r0's
            euler, prev = 1, cycle[-1][0]
            for side, arc, direction in cycle:
                if side == "old":
                    euler -= prev != "old"
                    if old[arc] != a0:
                        self.union(old[arc], a0, (direction == -1) ^ p0)
                elif base + arc != a0:
                    up[base + arc] = (r0, disk ^ (direction == +1))
                prev = side
            chi[r0] += euler

    def finish(self, state):
        """The boundary: the source slice, the target slice and each root
        port's vertical, wired as one arc diagram over the nodes ``2a``
        (arc a of the source) and ``2a + 1`` (arc a of the target; an arc
        no event touches is in both), every end linked.  Each piece is
        one circle, counted for the root of its sheets."""
        source, ports = self.source
        link = {(2 * a + t, e): (2 * b + t, f)
                for t, slice_link in ((0, source), (1, state.diagram.link))
                for (a, e), (b, f) in slice_link.items()}
        for (a, e), (b, f) in zip(ports, sum(state.root.ports(), [])):
            link[2 * a, e], link[2 * b + 1, f] = (2 * b + 1, f), (2 * a, e)
        piece = {}
        number_pieces(link, [x for x, _ in link], piece, 0)
        circles = dict.fromkeys(self.chi, 0)
        for node in dict(zip(piece.values(), piece)).values():  # one each
            circles[self.find(node // 2)[0]] += 1
        comps = [ComponentInvariants(c, r not in self.twisted, circles[r])
                 for r, c in self.chi.items()]
        comps.sort(key=lambda c: (c.euler_characteristic, not c.orientable,
                                  c.boundary_circles))
        self.result = SurfaceInvariants(tuple(comps))


@dataclass
class CombSurface:
    """The surface a two-cell term denotes: its invariants, read off the
    movie, and the validated tape, from which the polygonal `complex` is
    glued on first read."""

    term: tc.TwoCellTerm
    invariants: SurfaceInvariants
    report: tc.ValidationReport
    data: tc.GeneratingData

    @cached_property
    def complex(self) -> Complex:
        builder = _Builder()
        run_movie(self.report, self.data, builder)
        builder.cx.check()
        return builder.cx


def reconstruct(term: tc.TwoCellTerm, presentation) -> CombSurface:
    """Validate `term` and play its movie once, reading the invariants of
    the surface it denotes; no complex is glued until one is read."""
    report = tc.validate(term, presentation.data)
    if not report.ok:
        raise SurfaceError("invalid term:\n%s" % report)
    listener = _InvariantsListener()
    run_movie(report, presentation.data, listener)
    return CombSurface(term, listener.result, report, presentation.data)


def invariants(surface: CombSurface) -> SurfaceInvariants:
    """Components (Euler characteristic, orientability, boundary circles)
    of the surface, as its movie gave them."""
    return surface.invariants


def euler_by_events(term: tc.TwoCellTerm, presentation) -> int:
    """chi of a closed term by counting cap/cup (+1) and saddle (-1) leaves.

    Independent of the movie; only valid for closed terms.
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
