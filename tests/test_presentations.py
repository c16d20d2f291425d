"""Presentations: generator counts, relation balance, rewriting, search."""

import dataclasses
import gc
import weakref

import pytest

from bordcalc import presentations as pr
from bordcalc import termcore as tc
from bordcalc import build
from bordcalc.termcore import Gen2, Id1, Id2, ObjGen, vcompose


@pytest.fixture(scope="module")
def uno():
    return pr.bord2_unoriented()


@pytest.fixture(scope="module")
def ori():
    return pr.bord2_oriented()


def test_unoriented_generator_counts(uno):
    assert len(uno.data.objects) == 1
    assert len(uno.data.one_gens) == 2
    assert len(uno.data.two_gens) == 10
    tags = list(uno.two_gen_tags.values())
    assert tags.count("sym") == 4
    assert tags.count("cusp") == 2
    assert sorted(t for t in tags if t in ("cap", "cup", "split", "merge")) \
        == ["cap", "cup", "merge", "split"]


def test_oriented_generator_counts(ori):
    assert len(ori.data.objects) == 2
    assert len(ori.data.one_gens) == 2
    assert "sym" not in ori.two_gen_tags.values()
    assert list(ori.two_gen_tags.values()).count("cusp") == 4


def test_relations_boundary_balanced(uno, ori):
    for p in (uno, ori):
        for rel in p.relations:
            assert tc.two_cell_boundary(rel.lhs, p.data) \
                == tc.two_cell_boundary(rel.rhs, p.data), rel.name


def test_manifest_stable(uno):
    m1 = uno.manifest()
    m2 = pr.bord2_unoriented().manifest()
    assert m1 == m2
    assert "relations %d" % len(uno.relations) in m1


def test_find_matches_self_match(uno):
    rel = uno.relation("cusp-inversion-pt-strip")
    steps = pr.find_matches(rel.lhs, uno)
    assert any(s.relation == rel.name and s.direction == "lr"
               and s.path == () for s in steps)


def test_find_matches_id_trivial(uno):
    t = vcompose([Id2(Id1(tc.UNIT))], uno.data)
    steps = pr.find_matches(t, uno)
    # no relation side is syntactically id_{I_1}
    assert steps == []


def test_match_inside_tensor_context(uno):
    rel = uno.relation("cusp-inversion-pt-strip")
    t = pr.canonical(tc.Tensor2(rel.lhs, Id2(Id1(ObjGen("pt")))))
    steps = pr.find_matches(t, uno)
    inner = [s for s in steps if s.relation == rel.name
             and s.direction == "lr" and s.path == ("left",)]
    assert inner


def test_apply_and_stale(uno):
    rel = uno.relation("cusp-inversion-pt-strip")
    steps = [s for s in pr.find_matches(rel.lhs, uno)
             if s.relation == rel.name and s.direction == "lr"]
    res = pr.apply(rel.lhs, steps[0])
    assert res == pr.canonical(rel.rhs)
    other = vcompose([Gen2("cap"), Gen2("cup")], uno.data)
    with pytest.raises(pr.PresentationError):
        pr.apply(other, steps[0])


def _inner_zigzag_step(uno):
    """pt-strip (id) # (cusp_up . cusp_down), and the lr cusp-inversion step
    found at its inner part."""
    pt = Id2(Id1(ObjGen("pt")))
    zigzag = vcompose([Gen2("cusp_up"), Gen2("cusp_down")], uno.data)
    t = tc.HComp(pt, zigzag)
    step = next(s for s in pr.find_matches(t, uno)
                if s.relation == "cusp-inversion-pt-strip"
                and s.direction == "lr")
    assert step.path == ("inner",)
    assert pr.apply(t, step) == tc.HComp(pt, pt)
    return t, zigzag, step


def test_apply_stale_int_step_under_hcomp(uno):
    t, _, step = _inner_zigzag_step(uno)
    with pytest.raises(pr.PresentationError, match="path vanished"):
        pr.apply(t, dataclasses.replace(step, path=(1,)))


def test_apply_stale_str_step_under_vcomp(uno):
    _, zigzag, step = _inner_zigzag_step(uno)
    with pytest.raises(pr.PresentationError, match="path vanished"):
        pr.apply(zigzag, dataclasses.replace(step, path=("inner",)))


def test_apply_inverse_restores(uno):
    rel = uno.relation("morse-cancel-split-cup-outer-a")
    steps = [s for s in pr.find_matches(rel.lhs, uno)
             if s.relation == rel.name and s.direction == "lr"
             and s.path == () and s.window[1] == len(pr._chain(pr.canonical(rel.lhs)))]
    t2 = pr.apply(rel.lhs, steps[0])
    back = [s for s in pr.find_matches(t2, uno)
            if s.relation == rel.name and s.direction == "rl"]
    t3 = pr.apply(t2, back[0])
    assert t3 == pr.canonical(rel.lhs)


def test_apply_preserves_validity_and_boundary(uno):
    for seed in range(25):
        t = build.random_term(uno, seed)
        bounds = tc.two_cell_boundary(t, uno.data)
        for step in pr.find_matches(t, uno)[:8]:
            res = pr.apply(t, step)
            assert tc.validate(res, uno.data).ok
            assert tc.two_cell_boundary(res, uno.data) == bounds


def test_equivalent_bounded_cusp_zigzag(uno):
    rel = uno.relation("cusp-inversion-pt-strip")
    res = pr.equivalent_bounded(rel.lhs, rel.rhs, uno, depth=1)
    assert res.equivalent
    assert len(res.steps) == 1
    assert res.steps[0].relation == rel.name


def test_equivalent_bounded_reflexive(uno):
    t = vcompose([Gen2("cap"), Gen2("cup")], uno.data)
    res = pr.equivalent_bounded(t, t, uno, depth=0)
    assert res.equivalent and res.steps == ()


def test_equivalent_bounded_unknown_for_distinct_surfaces(uno):
    from bordcalc import surface as sf
    from bordcalc.termcore import Comp1, Gen1, hcompose, Inv2, RC
    ev, coev = Gen1("ev"), Gen1("coev")
    sphere = vcompose([Gen2("cap"), Gen2("cup")], uno.data)
    torus = vcompose([
        Gen2("cap"),
        hcompose(Inv2(RC(ev)), Id2(coev), uno.data),
        hcompose(hcompose(Id2(ev), Gen2("split"), uno.data), Id2(coev), uno.data),
        hcompose(hcompose(Id2(ev), Gen2("merge"), uno.data), Id2(coev), uno.data),
        hcompose(RC(ev), Id2(coev), uno.data),
        Gen2("cup")], uno.data)
    res = pr.equivalent_bounded(sphere, torus, uno, depth=2, max_visited=3000)
    assert not res.equivalent
    i1 = sf.invariants(sf.reconstruct(sphere, uno))
    i2 = sf.invariants(sf.reconstruct(torus, uno))
    assert i1 != i2  # the invariants separate them for good reason


@pytest.mark.parametrize("g, depth, max_visited, stop", [
    (1, 0, 100000, "depth"), (1, 1, 100000, "depth"), (1, 2, 3, "budget"),
    (0, 3, 100000, "exhausted")])
def test_equivalent_bounded_stop_reason(uno, monkeypatch, g, depth,
                                        max_visited, stop):
    """`stop` says why a search gave up, and `nodes_expanded` counts its
    `find_matches` calls, as the benchmark does."""
    from bordcalc import standard_terms as st
    calls = []
    find_matches = pr.find_matches
    monkeypatch.setattr(pr, "find_matches",
                        lambda t, p: calls.append(t) or find_matches(t, p))
    res = pr.equivalent_bounded(st.genus(uno, g), st.genus(uno, g + 1), uno,
                                depth=depth, max_visited=max_visited)
    assert not res.equivalent and res.stop == stop
    assert res.nodes_expanded == len(calls)
    assert (res.nodes_expanded == 0) == (depth == 0)


def test_equivalent_bounded_found_counts_expansions(uno):
    rel = uno.relation("cusp-inversion-pt-strip")
    res = pr.equivalent_bounded(rel.lhs, rel.rhs, uno, depth=1)
    assert res.stop == "found" and res.nodes_expanded == 1
    same = pr.equivalent_bounded(rel.lhs, rel.lhs, uno, depth=0)
    assert same.stop == "found" and same.nodes_expanded == 0


def test_memos_die_with_their_term():
    """No memo refers to its own node: with the cycle collector off, every
    node of a validated, reconstructed, evaluated, matched and searched
    term is freed once the term and the results are dropped.  The unary
    chain around the text makes its canonical form a new node, and the
    presentation is a fresh one, so its movie tables first meet every
    leaf in this term."""
    from bordcalc import frobenius as fr
    from bordcalc import standard_terms as st
    from bordcalc import surface as sf
    uno = pr.bord2_unoriented()
    text = "(%s)" % tc.print_two_cell(st.genus(uno, 1))
    goal = st.genus(uno, 2)
    asg = fr.standard_assignment(fr.algebra_m2q(), uno)
    gc.disable()
    try:
        term = tc.parse_two_cell(text, uno.data)
        surface = sf.reconstruct(term, uno)
        value = fr.evaluate(term, asg)
        assert sf.euler_by_events(term, uno) == 0 and value.matrix
        steps = pr.find_matches(term, uno)
        res = pr.equivalent_bounded(term, goal, uno, depth=2)
        assert steps and not res.equivalent and res.nodes_expanded > 1
        refs = [weakref.ref(node) for _, node in tc.subterms(term)]
        del term, surface, value, steps, res
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_match_memo_is_keyed_by_presentation(uno, ori):
    """One node matched against one presentation, then the other, then the
    first again, answers as a fresh copy of it does each time."""
    morse = uno.relation("morse-cancel-split-cup-outer-a").lhs
    text = "(%s (*) (cusp_up . cusp_down))" % tc.print_two_cell(morse)
    node = tc.parse_two_cell(text, uno.data)
    answers = []
    for p in (uno, ori, uno):
        steps = pr.find_matches(node, p)
        assert steps == pr.find_matches(tc.parse_two_cell(text), p)
        answers.append(steps)
    assert answers[0] == answers[2] != answers[1] and answers[1]


def test_match_memo_holds_each_hit_once(uno):
    """Each node keeps only its own chain's hits and the parts below it
    that hold one, so a term's memos hold as many hits as it has steps,
    whatever their depth."""
    term = pr.canonical(build.random_term(uno, 3, events=9))
    steps = pr.find_matches(term, uno)
    assert max(len(step.path) for step in steps) >= 2
    assert sum(len(node._matches[1])
               for _, node in tc.subterms(term)) == len(steps)
    for _, node in tc.subterms(term):
        _, _, below = node._matches
        assert below == tuple((s, c._matches) for s, c in tc.parts(node)
                              if any(c._matches[1:]))


@pytest.mark.parametrize("budget", [{"depth": -1}, {"max_visited": -3}])
def test_equivalent_bounded_rejects_negative_budget(uno, budget):
    rel = uno.relation("cusp-inversion-pt-strip")
    with pytest.raises(ValueError, match="non-negative"):
        pr.equivalent_bounded(rel.lhs, rel.rhs, uno, **budget)


def test_forget_orientation_generators(ori, uno):
    assert pr.forget_orientation(Gen2("cap")) == Gen2("cap")
    t = vcompose([Gen2("cap"), Gen2("cup")], ori.data)
    image = pr.forget_orientation(t)
    assert tc.validate(image, uno.data).ok


def test_forget_orientation_torus(ori, uno):
    from bordcalc import surface as sf
    from bordcalc.termcore import Comp1, Gen1, hcompose, Inv2, RC
    ev, coev = Gen1("ev"), Gen1("coev")
    torus = vcompose([
        Gen2("cap"),
        hcompose(Inv2(RC(ev)), Id2(coev), ori.data),
        hcompose(hcompose(Id2(ev), Gen2("split"), ori.data), Id2(coev), ori.data),
        hcompose(hcompose(Id2(ev), Gen2("merge"), ori.data), Id2(coev), ori.data),
        hcompose(RC(ev), Id2(coev), ori.data),
        Gen2("cup")], ori.data)
    image = pr.forget_orientation(torus)
    assert tc.validate(image, uno.data).ok
    assert sf.invariants(sf.reconstruct(image, uno)) \
        == sf.invariants(sf.reconstruct(torus, ori))


def test_forget_orientation_rejects_mirror_cusps(ori):
    with pytest.raises(pr.PresentationError):
        pr.forget_orientation(Gen2("cusp_up_neg"))


def test_forget_orientation_invalid_input(uno, ori):
    with pytest.raises(pr.PresentationError):
        pr.forget_orientation(tc.Gen1("ev"))  # not a 2-cell
    # neither is an object word or a morphism term, at the root or inside
    for term in (ObjGen("pt+"), Id1(ObjGen("pt+")),
                 tc.VComp((Gen2("cap"), Id1(tc.UNIT))),
                 Id2(Id1(Id2(tc.Gen1("ev"))))):
        with pytest.raises(pr.PresentationError, match="^cannot forget "):
            pr.forget_orientation(term)


def test_relation_count_constants(uno, ori):
    assert len(uno.relations) == pr.UNORIENTED_RELATION_COUNT
    assert len(ori.relations) == pr.ORIENTED_RELATION_COUNT
    assert sum(1 for t in ori.two_gen_tags.values() if t == "cusp") \
        == pr.ORIENTED_CUSP_GENERATOR_COUNT
    assert "cusp-generators 4" in ori.manifest()
