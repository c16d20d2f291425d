"""Canonical two-cell terms: spheres, genus-g surfaces, the Klein bottle.

These are the worked examples used by the test suite, the demos and the
command line goldens.  Each builder takes the presentation it lives over.
"""

from __future__ import annotations

from . import termcore as tc
from .termcore import (AssocC, Braid1, Comp1, Gen1, Gen2, Id1, Id2, Inv2, LC,
                       ObjGen, RC, hcompose, vcompose)


def sphere(p):
    """Birth then death: the 2-sphere."""
    return vcompose([Gen2("cap"), Gen2("cup")], p.data)


def _handle(p):
    ev, coev = Gen1("ev"), Gen1("coev")
    return [
        hcompose(Inv2(RC(ev)), Id2(coev), p.data),
        hcompose(hcompose(Id2(ev), Gen2("split"), p.data), Id2(coev), p.data),
        hcompose(hcompose(Id2(ev), Gen2("merge"), p.data), Id2(coev), p.data),
        hcompose(RC(ev), Id2(coev), p.data),
    ]


def genus(p, g: int):
    """Closed orientable surface of genus g: one disk pair, 2g saddles."""
    cells = [Gen2("cap")]
    for _ in range(g):
        cells += _handle(p)
    cells.append(Gen2("cup"))
    return vcompose(cells, p.data)


def torus(p):
    return genus(p, 1)


def klein_bottle(p):
    """Split, cross one leg, merge: the non-orientable chi = 0 surface.

    Only valid over the unoriented presentation (uses the crossing cells).
    """
    ev, coev = Gen1("ev"), Gen1("coev")
    P = ObjGen(p.data.objects[0])
    beta = Braid1(P, P)
    return vcompose([
        Gen2("cap"),
        hcompose(Inv2(RC(ev)), Id2(coev), p.data),
        hcompose(hcompose(Id2(ev), Gen2("split"), p.data), Id2(coev), p.data),
        hcompose(hcompose(Id2(ev),
                          hcompose(Id2(coev), Gen2("sym_ev_in"), p.data),
                          p.data), Id2(coev), p.data),
        hcompose(hcompose(Id2(ev), Inv2(AssocC(beta, ev, coev)), p.data),
                 Id2(coev), p.data),
        hcompose(hcompose(Id2(ev), hcompose(Gen2("merge"), Id2(beta), p.data),
                          p.data), Id2(coev), p.data),
        hcompose(hcompose(Id2(ev), LC(beta), p.data), Id2(coev), p.data),
        hcompose(Gen2("sym_ev_out"), Id2(coev), p.data),
        Gen2("cup")], p.data)


def cusp_zigzag_strip(p, sign: str = ""):
    """The cusp pair whose composite is the identity strip."""
    up = "cusp_up" + sign
    down = "cusp_down" + sign
    return vcompose([Gen2(up), Gen2(down)], p.data)
