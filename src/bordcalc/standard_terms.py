"""Canonical two-cell terms: spheres, genus-g surfaces, the Klein bottle.

These are the worked examples used by the test suite, the demos and the
command line goldens.  Each builder takes the presentation it lives over.
The closed surfaces are movies, as in the decomposition theorem: a list
of (sentence path, cell) steps, each cell fired where the path points in
the current sentence and whiskered there by `build.MovieBuilder`, starting
from the empty sentence ``I[1]``.
"""

from __future__ import annotations

from .build import MovieBuilder
from .termcore import (UNIT, AssocC, Braid1, Gen1, Gen2, Id1, Inv2, LC,
                       ObjGen, RC, vcompose)

#: one handle on the circle ev∘coev: open an identity strip between ev and
#: coev, split it and merge it back (two saddles), and close the strip
_HANDLE = [
    (("after",), Inv2(RC(Gen1("ev")))),
    (("after", "first"), Gen2("split")),
    (("after", "first"), Gen2("merge")),
    (("after",), RC(Gen1("ev"))),
]


def _movie(p, steps):
    """The vertical chain of `steps` fired from the empty sentence."""
    builder = MovieBuilder(p, Id1(UNIT))
    for path, cell in steps:
        builder.apply(path, cell)
    return builder.term()


def sphere(p):
    """Birth then death: the 2-sphere."""
    return genus(p, 0)


def genus(p, g: int):
    """Closed orientable surface of genus g: one disk pair, 2g saddles."""
    return _movie(p, [((), Gen2("cap"))] + _HANDLE * g + [((), Gen2("cup"))])


def torus(p):
    return genus(p, 1)


def klein_bottle(p):
    """Split, cross one leg, merge: the non-orientable chi = 0 surface.

    Only valid over the unoriented presentation (uses the crossing cells).
    """
    ev, coev = Gen1("ev"), Gen1("coev")
    P = ObjGen(p.data.objects[0])
    beta = Braid1(P, P)
    return _movie(p, [
        ((), Gen2("cap")),
        (("after",), Inv2(RC(ev))),
        (("after", "first"), Gen2("split")),
        (("after", "first", "first"), Gen2("sym_ev_in")),
        (("after", "first"), Inv2(AssocC(beta, ev, coev))),
        (("after", "first", "after"), Gen2("merge")),
        (("after", "first"), LC(beta)),
        (("after",), Gen2("sym_ev_out")),
        ((), Gen2("cup")),
    ])


def cusp_zigzag_strip(p, sign: str = ""):
    """The cusp pair whose composite is the identity strip."""
    up = "cusp_up" + sign
    down = "cusp_down" + sign
    return vcompose([Gen2(up), Gen2(down)], p.data)
