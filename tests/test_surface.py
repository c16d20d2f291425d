"""Surface reconstruction, invariants and their oracles: the complex
glued from the same tape, and the event count."""

import pathlib

import pytest

from bordcalc import build
from bordcalc import presentations as pr
from bordcalc import standard_terms as st
from bordcalc import surface as sf
from bordcalc._diagram import DiagramError
from bordcalc import termcore as tc
from bordcalc.termcore import (Gen1, Gen2, Id1, Id2, Inv2, RC, Tensor2,
                               vcompose)

from tests import reference_surface as ref

DEMO_TERMS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "terms"


@pytest.fixture(scope="module")
def uno():
    return pr.bord2_unoriented()


@pytest.fixture(scope="module")
def ori():
    return pr.bord2_oriented()


def invariant_tuple(p, t):
    inv = sf.invariants(sf.reconstruct(t, p))
    return [(c.euler_characteristic, c.orientable, c.boundary_circles)
            for c in inv.components]


#: the Klein bottle's movie up to its last circle, then a sphere born in
#: front of that circle and merged into it: the merge joins the
#: non-orientable component to a younger one, so its twist must survive
#: the join
KLEIN_MERGED_INTO_SPHERE = (
    "(cap . (inv2(rc[ev]) # id[coev]) . ((id[ev] # split) # id[coev]) . "
    "((id[ev] # (id[coev] # sym_ev_in)) # id[coev]) . "
    "((id[ev] # inv2(assoc2[beta[pt,pt],ev,coev])) # id[coev]) . "
    "((id[ev] # (merge # id[beta[pt,pt]])) # id[coev]) . "
    "((id[ev] # lc[beta[pt,pt]]) # id[coev]) . (sym_ev_out # id[coev]) . "
    "inv2(rc[(coev ; ev)]) . (id[(coev ; ev)] # cap) . "
    "inv2(assoc2[coev,ev,(coev ; ev)]) . (assoc2[ev,coev,ev] # id[coev]) . "
    "((id[ev] # merge) # id[coev]) . (rc[ev] # id[coev]) . cup)")


def torus_tubing_one_meridian(p):
    """A torus whose handle carries one of its two meridian circles once
    through a unitor: that circle does not separate, so the tube's parity
    decides orientability."""
    ev = Gen1("ev")
    b = build.MovieBuilder(p, Id1(tc.UNIT))
    for path, cell in [((), Gen2("cap")), (("after",), Inv2(RC(ev))),
                       (("after", "first"), Gen2("split"))]:
        b.apply(path, cell)
    b.apply(("after",), Inv2(RC(b.sentence.after)))
    b.apply(("after", "after", "first"), Gen2("merge"))
    b.apply(("after",), RC(b.sentence.after.after))
    b.apply(("after",), RC(ev))
    b.apply((), Gen2("cup"))
    return b.term()


def test_sphere(uno):
    assert invariant_tuple(uno, st.sphere(uno)) == [(2, True, 0)]


def test_strip_identity(uno):
    t = vcompose([Id2(Gen1("ev"))], uno.data)
    assert invariant_tuple(uno, t) == [(1, True, 1)]


def test_torus_closed_orientable(uno, ori):
    assert invariant_tuple(uno, st.genus(uno, 1)) == [(0, True, 0)]
    for p in (uno, ori):
        t = torus_tubing_one_meridian(p)
        assert invariant_tuple(p, t) == [(0, True, 0)]


def test_higher_genus(uno):
    for g in range(4):
        assert invariant_tuple(uno, st.genus(uno, g)) == [(2 - 2 * g, True, 0)]


def test_klein_bottle(uno):
    assert invariant_tuple(uno, st.klein_bottle(uno)) == [(0, False, 0)]
    t = tc.parse_two_cell(KLEIN_MERGED_INTO_SPHERE, uno.data)
    assert invariant_tuple(uno, t) == [(0, False, 0)]


def test_genus_formula_from_invariants(uno):
    inv = sf.invariants(sf.reconstruct(st.genus(uno, 2), uno))
    assert inv.components[0].genus == 2
    invk = sf.invariants(sf.reconstruct(st.klein_bottle(uno), uno))
    assert invk.components[0].crosscaps == 2


def test_tensor_additivity(uno):
    t = Tensor2(st.sphere(uno), st.genus(uno, 1))
    got = sorted(invariant_tuple(uno, t))
    assert got == sorted([(2, True, 0), (0, True, 0)])


def test_euler_by_events_matches_complex(uno):
    for g in range(4):
        t = st.genus(uno, g)
        assert sf.euler_by_events(t, uno) == 2 - 2 * g
    assert sf.euler_by_events(st.klein_bottle(uno), uno) == 0


def test_euler_by_events_rejects_open(uno):
    with pytest.raises(sf.SurfaceError):
        sf.euler_by_events(vcompose([Id2(Gen1("ev"))], uno.data), uno)
    # no generator leaf, but the strip has points at both ends
    with pytest.raises(sf.SurfaceError, match="term is not closed"):
        sf.euler_by_events(tc.parse_two_cell("id[I[pt]]", uno.data), uno)


def test_reconstruct_rejects_an_invalid_term(uno):
    with pytest.raises(sf.SurfaceError) as exc:
        sf.reconstruct(tc.parse_two_cell("(cap . cap)"), uno)
    assert str(exc.value) == "invalid term:\n0: non-composable vertical chain"


def test_invariants_line_format(uno):
    inv = sf.invariants(sf.reconstruct(st.sphere(uno), uno))
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
    corner_classes = ref.corner_classes
    monkeypatch.setattr(ref, "corner_classes",
                        lambda cx: calls.append(1) or corner_classes(cx))
    surf = sf.reconstruct(tc.parse_two_cell(
        "((cap . cup) (*) (cap . cup))"), uno)
    assert len(ref.complex_invariants(surf.complex).components) == 2
    assert len(calls) == 1


# -- invariants of hand-built complexes ----------------------------------

def polygon(cx, n):
    """A face of n fresh slots, in cycle order."""
    slots = [cx.new_slot() for _ in range(n)]
    cx.add_face(slots)
    return slots


def square(cx, bottom_top=None, sides=None):
    """Square a b c d (bottom right, right side up, top left, left side
    down), gluing bottom to top and right to left with the given flips."""
    a, b, c, d = polygon(cx, 4)
    if bottom_top is not None:
        cx.glue(a, c, flip=bottom_top)
    if sides is not None:
        cx.glue(b, d, flip=sides)


def hand_built(build_into):
    cx = sf.Complex()
    build_into(cx)
    cx.check()
    inv = ref.complex_invariants(cx)
    return [(c.euler_characteristic, c.orientable, c.boundary_circles)
            for c in inv.components]


def rp2(cx):
    a, b = polygon(cx, 2)
    cx.glue(a, b, flip=True)


@pytest.mark.parametrize("build_into, expected", [
    (lambda cx: polygon(cx, 3), [(1, True, 1)]),
    (lambda cx: square(cx, sides=False), [(0, True, 2)]),
    (lambda cx: square(cx, sides=True), [(0, False, 1)]),
    (lambda cx: square(cx, bottom_top=False, sides=False), [(0, True, 0)]),
    (lambda cx: square(cx, bottom_top=False, sides=True), [(0, False, 0)]),
    (rp2, [(1, False, 0)]),
], ids=["disk", "annulus", "moebius", "torus", "klein", "rp2"])
def test_invariants_of_hand_built_complexes(build_into, expected):
    assert hand_built(build_into) == expected


def test_invariants_of_a_disjoint_union_in_sorted_order():
    def union(cx):
        rp2(cx)
        polygon(cx, 3)
        square(cx, sides=True)
        square(cx, bottom_top=False, sides=False)
    assert hand_built(union) == [
        (0, True, 0), (0, False, 1), (1, True, 1), (1, False, 0)]


# -- the builder ---------------------------------------------------------

def outcome(p, t):
    """Invariant tuples of `t`, and its event-count chi when it is closed."""
    chi = None
    try:
        chi = sf.euler_by_events(t, p)
    except sf.SurfaceError as e:
        assert str(e) == "term is not closed"
    return invariant_tuple(p, t), chi


def test_builder_invariants_agree_across_every_rewrite(uno, ori):
    closed = 0
    for p in (uno, ori):
        terms = [build.random_term(p, seed, events=6) for seed in range(15)]
        terms.append(st.genus(p, 2))
        if p is uno:
            terms.append(st.klein_bottle(p))
        for t in terms:
            inv, chi = outcome(p, t)
            if chi is not None:
                closed += 1
                assert sum(c[0] for c in inv) == chi
            for step in pr.find_matches(t, p):
                assert outcome(p, pr.apply(t, step)) == (inv, chi), \
                    (p.name, tc.print_two_cell(t), step.relation)
    assert closed > 3  # a random term is closed too, not only the standard ones


def test_builder_face_count_is_linear_in_genus(uno):
    # one sheet per arc lifetime plus the event polygons: 12 faces a handle
    counts = [len(sf.reconstruct(st.genus(uno, g), uno).complex.faces)
              for g in range(5)]
    assert counts == [4, 16, 28, 40, 52]


# -- the listener against the complex -------------------------------------

def listener_corpus(p):
    """Seeds 0..149 of `random_term` (events=4, max_leaves=20), genus 0..6,
    a torus with one tube, the Klein bottle (alone and merged into a
    sphere) where `p` has it, and every demo term that parses over `p`;
    each with every rewrite `find_matches` offers."""
    terms = [build.random_term(p, seed, events=4, max_leaves=20)
             for seed in range(150)]
    terms += [st.genus(p, g) for g in range(7)]
    terms.append(torus_tubing_one_meridian(p))
    if p.name == "unoriented":
        terms.append(st.klein_bottle(p))
        terms.append(tc.parse_two_cell(KLEIN_MERGED_INTO_SPHERE, p.data))
    for path in sorted(DEMO_TERMS.glob("*.bc")):
        try:
            terms.append(tc.parse_two_cell(path.read_text(encoding="utf-8"),
                                           p.data))
        except (tc.ParseError, tc.TermError):
            continue
    for t in terms:
        yield t
        for step in pr.find_matches(t, p):
            yield step.result


def outcomes(p, t):
    """(invariants from the movie, invariants of the complex glued from
    the same tape with no listener run), each the message of the
    SurfaceError or DiagramError it raised instead, if any."""
    try:
        surf = sf.reconstruct(t, p)
        listener, report = sf.invariants(surf), surf.report
    except (sf.SurfaceError, DiagramError) as e:
        listener, report = str(e), tc.validate(t, p.data)
    assert report.ok
    try:
        oracle = ref.complex_invariants(
            sf.CombSurface(t, None, report, p.data).complex)
    except (sf.SurfaceError, DiagramError) as e:
        oracle = str(e)
    return listener, oracle


@pytest.mark.parametrize("name", ["unoriented", "oriented"])
def test_listener_invariants_equal_the_complex_oracle(uno, ori, name):
    p = uno if name == "unoriented" else ori
    terms = closed = 0
    for t in listener_corpus(p):
        listener, oracle = outcomes(p, t)
        assert listener == oracle, tc.print_two_cell(t)
        terms += 1
        try:
            chi = sf.euler_by_events(t, p)
        except sf.SurfaceError as e:
            assert str(e) == "term is not closed"
            continue
        closed += 1
        assert listener.euler_characteristic == chi, tc.print_two_cell(t)
    assert terms > 800 and closed > 15


def test_invariants_build_no_complex(uno, ori, monkeypatch):
    built = []
    init = sf.Complex.__init__
    monkeypatch.setattr(sf.Complex, "__init__",
                        lambda cx: built.append(1) or init(cx))
    for p in (uno, ori):
        for t in (st.genus(p, 2), build.random_term(p, 3, events=6)):
            sf.invariants(sf.reconstruct(t, p))
    assert built == []
    surf = sf.reconstruct(st.genus(uno, 2), uno)
    cx = surf.complex
    assert len(built) == 1
    assert surf.complex is cx and len(built) == 1
    assert ref.complex_invariants(cx) == sf.invariants(surf)

