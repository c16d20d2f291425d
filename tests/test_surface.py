"""Surface reconstruction, invariants and the event-count oracle."""

import pytest

from bordcalc import build
from bordcalc import presentations as pr
from bordcalc import surface as sf
from bordcalc import termcore as tc
from bordcalc.termcore import (AssocC, Braid1, Comp1, Gen1, Gen2, Id1, Id2,
                               Inv2, LC, ObjGen, RC, hcompose, tensor,
                               vcompose)

P = ObjGen("pt")


@pytest.fixture(scope="module")
def uno():
    return pr.bord2_unoriented()


@pytest.fixture(scope="module")
def ori():
    return pr.bord2_oriented()


def sphere_term(p):
    return vcompose([Gen2("cap"), Gen2("cup")], p.data)


def genus_term(p, g):
    ev, coev = Gen1("ev"), Gen1("coev")
    handle = [
        hcompose(Inv2(RC(ev)), Id2(coev), p.data),
        hcompose(hcompose(Id2(ev), Gen2("split"), p.data), Id2(coev), p.data),
        hcompose(hcompose(Id2(ev), Gen2("merge"), p.data), Id2(coev), p.data),
        hcompose(RC(ev), Id2(coev), p.data),
    ]
    cells = [Gen2("cap")]
    for _ in range(g):
        cells += handle
    cells.append(Gen2("cup"))
    return vcompose(cells, p.data)


def klein_term(p):
    ev, coev = Gen1("ev"), Gen1("coev")
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


def invariant_tuple(p, t):
    inv = sf.invariants(sf.reconstruct(t, p))
    return [(c.euler_characteristic, c.orientable, c.boundary_circles)
            for c in inv.components]


def test_sphere(uno):
    assert invariant_tuple(uno, sphere_term(uno)) == [(2, True, 0)]


def test_strip_identity(uno):
    t = vcompose([Id2(Gen1("ev"))], uno.data)
    assert invariant_tuple(uno, t) == [(1, True, 1)]


def test_torus_closed_orientable(uno):
    assert invariant_tuple(uno, genus_term(uno, 1)) == [(0, True, 0)]


def test_higher_genus(uno):
    for g in range(4):
        assert invariant_tuple(uno, genus_term(uno, g)) == [(2 - 2 * g, True, 0)]


def test_klein_bottle(uno):
    assert invariant_tuple(uno, klein_term(uno)) == [(0, False, 0)]


def test_genus_formula_from_invariants(uno):
    inv = sf.invariants(sf.reconstruct(genus_term(uno, 2), uno))
    assert inv.components[0].genus == 2
    invk = sf.invariants(sf.reconstruct(klein_term(uno), uno))
    assert invk.components[0].crosscaps == 2


def test_tensor_additivity(uno):
    t = tensor(sphere_term(uno), genus_term(uno, 1))
    got = sorted(invariant_tuple(uno, t))
    assert got == sorted([(2, True, 0), (0, True, 0)])


def test_euler_by_events_matches_complex(uno):
    for g in range(4):
        t = genus_term(uno, g)
        assert sf.euler_by_events(t, uno) == 2 - 2 * g
    assert sf.euler_by_events(klein_term(uno), uno) == 0


def test_euler_by_events_rejects_open(uno):
    with pytest.raises(sf.SurfaceError):
        sf.euler_by_events(vcompose([Id2(Gen1("ev"))], uno.data), uno)


def test_invariants_line_format(uno):
    inv = sf.invariants(sf.reconstruct(sphere_term(uno), uno))
    assert str(inv) == "components=1; [chi=2 orientable=true boundary=0]"


def test_rewrite_invariance_sample(uno):
    for seed in range(20):
        t = build.random_term(uno, seed, events=5)
        before = sf.invariants(sf.reconstruct(t, uno))
        for step in pr.find_matches(t, uno)[:6]:
            res = pr.apply(t, step)
            after = sf.invariants(sf.reconstruct(res, uno))
            assert before == after, step.relation


def test_forget_images_orientable(ori, uno):
    count = 0
    for seed in range(40):
        t = build.random_term(ori, seed, events=5)
        if any(isinstance(l, tc.Gen2) and l.name.endswith("_neg")
               for l in tc.iter_two_cell_leaves(t)):
            continue
        image = pr.forget_orientation(t)
        inv = sf.invariants(sf.reconstruct(image, uno))
        assert all(c.orientable for c in inv.components)
        count += 1
    assert count >= 20


def test_invariants_build_corner_classes_once(uno, monkeypatch):
    calls = []
    corner_classes = sf.Complex.corner_classes
    monkeypatch.setattr(sf.Complex, "corner_classes",
                        lambda cx: calls.append(1) or corner_classes(cx))
    surf = sf.reconstruct(tc.parse_two_cell(
        "((cap . cup) (*) (cap . cup))"), uno)
    assert sf.invariants(surf).component_count == 2
    assert len(calls) == 1
