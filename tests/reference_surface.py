"""Reference surface invariants, read off a glued polygonal complex.

The oracle for the invariants `surface.reconstruct` reads off the movie:
`complex_invariants` counts vertices, edges and faces of a
`surface.Complex` (the one `CombSurface.complex` glues from the same
tape, or one built by hand) and finds its components, their orientability
and their boundary circles with union-finds over its slots.  It shares no
code with the listener.  Only tests use it.
"""

from typing import List

from bordcalc import surface as sf


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


def next_slots(cx) -> List[int]:
    """The slot that follows each slot in its face (-1 outside faces)."""
    nxt = [-1] * len(cx.mate)
    for face in cx.faces:
        for s, t in zip(face, face[1:] + face[:1]):
            nxt[s] = t
    return nxt


def corner_classes(cx) -> List[int]:
    """Vertex class of every corner of complex `cx`.  Corner s is where
    slot s's edge starts; corners at one vertex get the same class, a slot
    id."""
    nxt = next_slots(cx)
    find, union = _union_find(len(nxt))
    for s, t in enumerate(cx.mate):
        if t < s:
            continue  # free, or met from its mate
        if cx.flip[s]:
            union(s, t)
            union(nxt[s], nxt[t])
        else:
            union(s, nxt[t])
            union(nxt[s], t)
    return [find(s) for s in range(len(nxt))]


def complex_invariants(cx) -> sf.SurfaceInvariants:
    """Invariants of every component of `cx` in one pass over the slots.

    Union-finds over lists give the vertex classes (`corner_classes`), the
    face components with their orientability, and the boundary circles:
    free slots join their end vertices, so a component has as many
    circles as boundary vertices less successful joins.  V counts vertex
    classes, E glued pairs and free slots.
    """
    nf = len(cx.faces)
    vertex, nxt = corner_classes(cx), next_slots(cx)
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
            ends = (vertex[s], vertex[nxt[s]])
            for v in ends:
                circles[c] += not on_boundary[v]
                on_boundary[v] = True
            circles[c] -= union(*ends)
    comps = [sf.ComponentInvariants(euler_characteristic=V[c] - E[c] + F[c],
                                    orientable=orientable[c],
                                    boundary_circles=circles[c])
             for c in orientable]
    comps.sort(key=lambda c: (c.euler_characteristic, not c.orientable,
                              c.boundary_circles))
    return sf.SurfaceInvariants(tuple(comps))
