"""Algebra checkers, separability, circle maps and exact evaluation."""

import pathlib
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction as Q

import pytest

from bordcalc import build
from bordcalc import frobenius as fr
from bordcalc import presentations as pr
from bordcalc import standard_terms as stt
from bordcalc import surface as sf
from bordcalc import termcore as tc
from bordcalc.termcore import Gen1, Id2, Tensor2, vcompose
from tests import reference_eval
from tests import reference_frobenius as ref


@pytest.fixture(scope="module")
def ori():
    return pr.bord2_oriented()


@pytest.fixture(scope="module")
def uno():
    return pr.bord2_unoriented()


ALGEBRA_FILES = pathlib.Path(__file__).resolve().parent.parent / "demos" \
    / "algebras"

ALGEBRAS = {
    "Q": fr.algebra_q,
    "QxQ": fr.algebra_qq,
    "M2Q": fr.algebra_m2q,
    "QZ2": fr.algebra_qz2,
    "Qx2": fr.algebra_qx2,
}


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def test_builtins_symmetric_frobenius():
    for name, mk in ALGEBRAS.items():
        rep = fr.check_symmetric(mk())
        assert rep.ok, (name, str(rep))


def test_unit_algebra_trivial():
    A = fr.algebra_q()
    assert fr.check_frobenius(A).ok
    assert fr.check_separable(A).separable


def test_m2q_trace_form():
    A = fr.algebra_m2q()
    D = ref.dense(A)
    # b(E_ij, E_kl) = tr(E_ij E_kl) = delta_jk delta_il
    idx = {("E11"): 0, ("E12"): 1, ("E21"): 2, ("E22"): 3}
    def b(i, j):
        return ref.lam(D, ref.mul(D, ref.basis(D, i), ref.basis(D, j)))
    assert b(idx["E12"], idx["E21"]) == 1
    assert b(idx["E12"], idx["E12"]) == 0
    assert b(idx["E11"], idx["E11"]) == 1
    # e = sum E_ij (x) E_ji
    assert D.e[idx["E12"]][idx["E21"]] == 1
    assert D.e[idx["E12"]][idx["E12"]] == 0
    assert A.handle_element() == {0: Q(2), 3: Q(2)}   # (2, 0, 0, 2)


def test_qx2_worked_normalization():
    # lam(1) x-part . 1 + lam(x) . 1 = 1: the spec's worked arithmetic
    A = ref.dense(fr.algebra_qx2())
    left = [Q(0)] * 2
    for i in range(2):
        for j in range(2):
            lx = ref.lam(A, ref.basis(A, i))
            y = ref.basis(A, j)
            for k in range(2):
                left[k] += A.e[i][j] * lx * y[k]
    assert tuple(left) == A.unit


def _random_diagonal_algebra(rng, n):
    weights = [Q(rng.randint(1, 9)) for _ in range(n)]
    return fr.FrobAlgebra(
        name="diag", dim=n, mult={(i, i): {i: 1} for i in range(n)},
        unit=dict.fromkeys(range(n), 1), lam=dict(enumerate(weights)),
        e={(i, i): 1 / w for i, w in enumerate(weights)})


def test_snake_on_random_diagonal_algebras():
    rng = random.Random(11)
    for _ in range(6):
        A = _random_diagonal_algebra(rng, rng.randint(1, 4))
        rep = fr.check_symmetric(A)
        assert rep.ok, str(rep)


def _m2_twisted():
    """M2(Q) with the non-central twist u = diag(1,2): Frobenius, not
    symmetric."""
    fields = ref.maps(fr.algebra_m2q())
    base = ref.dense(fr.algebra_m2q())
    n = 4
    # lam_u(x) = tr(u x); dual copairing solved from the reproducing identity
    u = (Q(1), Q(0), Q(0), Q(2))
    x = [ref.basis(base, k) for k in range(n)]
    lam = tuple(ref.lam(base, ref.mul(base, u, x[k])) for k in range(n))
    rows, rhs = [], []
    for z in range(n):
        for a in range(n):
            # sparse row over the coordinates (i, j): lam(x_z x_i) where
            # x_j has coordinate a
            row = {}
            for i in range(n):
                for j in range(n):
                    lam_zi = sum(lam[t] * ref.mul(base, x[z], x[i])[t]
                                 for t in range(n))
                    if lam_zi and x[j][a]:
                        row[i * n + j] = lam_zi
            rows.append(row)
            rhs.append(x[z][a])
    sol = fr.rref(rows, n * n, rhs).solution
    assert sol is not None
    return fr.FrobAlgebra(name="M2-twisted", dim=4, mult=fields["mult"],
                          unit=fields["unit"], lam=dict(enumerate(lam)),
                          e={divmod(ij, n): c for ij, c in sol.items()})


def test_trace_like_iff_bicentral():
    A = _m2_twisted()
    rep = fr.check_frobenius(A)
    assert rep.ok, str(rep)
    rep = fr.check_symmetric(A)
    checks = dict((n, ok) for n, ok, _ in rep.checks)
    assert not checks["trace-like"]
    assert not checks["e-bicentral"]
    for name, mk in ALGEBRAS.items():
        rep = fr.check_symmetric(mk())
        checks = dict((n, ok) for n, ok, _ in rep.checks)
        assert checks["trace-like"] and checks["e-bicentral"], name


def qx2_nonassociative():
    """Q[x]/(x^2) with 1.x = 1 + x and x.x = x: the first failing
    associativity triple is (0,0,1), since (1.1).x = 1 + x and
    1.(1.x) = 2 + x."""
    A = fr.algebra_qx2()
    fields = ref.maps(A)
    fields["mult"].update({(0, 1): {0: 1, 1: 1}, (1, 1): {1: 1}})
    return fr.FrobAlgebra(name="Qx2-nonassociative", dim=2,
                          basis_names=A.basis_names, **fields)


def test_checkers_name_the_first_failure():
    rep = fr.check_algebra(qx2_nonassociative())
    assert rep.checks[0] == ("associative", False, "(0,0,1)")
    # lam(E12 E21) = 1 but lam(E21 E12) = 2: (b1,b2) fails first
    rep = fr.check_symmetric(_m2_twisted())
    assert ("trace-like", False, "(b1,b2)") in rep.checks


# ---------------------------------------------------------------------------
# separability and the circle maps
# ---------------------------------------------------------------------------

def test_separability_results():
    assert fr.check_separable(fr.algebra_q()).separable
    assert fr.check_separable(fr.algebra_qq()).separable
    assert fr.check_separable(fr.algebra_qz2()).separable
    res = fr.check_separable(fr.algebra_m2q())
    assert res.separable
    # verify the witness: central and mu(witness) = 1
    A = ref.dense(fr.algebra_m2q())
    n = A.dim
    acc = [Q(0)] * n
    for i in range(n):
        for j in range(n):
            c = res.witness[i][j]
            if c:
                prod = ref.mul(A, ref.basis(A, i), ref.basis(A, j))
                for k in range(n):
                    acc[k] += c * prod[k]
    assert tuple(acc) == A.unit


def test_qx2_not_separable_with_certificate():
    A = fr.algebra_qx2()
    res = fr.check_separable(A)
    assert not res.separable
    # the Farkas certificate by its defining equations
    rows, rhs = fr._separability_system(A)
    y = res.certificate
    assert len(y) == len(rows)
    assert all(sum(yi * row.get(c, 0) for yi, row in zip(y, rows)) == 0
               for c in range(A.dim ** 2))
    assert sum(yi * b for yi, b in zip(y, rhs)) != 0


def _q(*vs):
    return [tuple(Q(x) for x in v) for v in vs]


# center basis, cocenter projection rows and separability witness of each
# built-in algebra (None: not separable)
PINNED = {
    "Q": (_q("1"), _q("1"), _q("1")),
    "QxQ": (_q("10", "01"), _q("10", "01"), _q("10", "01")),
    "M2Q": (_q("1001"), _q("1001"),
            _q("1000", "0000", "0100", "0000")),
    "QZ2": (_q("10", "01"), _q("10", "01"),
            [(Q(1, 2), Q(0)), (Q(0), Q(1, 2))]),
    "Qx2": (_q("10", "01"), _q("10", "01"), None),
}


def test_linear_algebra_pinned_values():
    for name, mk in ALGEBRAS.items():
        A = mk()
        zb, proj, witness = PINNED[name]
        assert fr.center(A) == zb, name
        assert fr.cocenter(A).project == proj, name
        res = fr.check_separable(A)
        assert res.witness == (tuple(witness) if witness else None), name


def test_rref_pivots_nullspace_and_solution():
    # sparse rows and results: the dense (-2, 1, 0), (-2, 0, 1) and
    # (-1, -1, 1) with their zero entries left out
    rows = [{0: Q(1), 1: Q(2), 2: Q(3)}, {0: Q(2), 1: Q(4), 2: Q(7)}]
    elim = fr.rref(rows, 3, [Q(1), Q(3)])
    assert elim.pivots == (0, 2)
    assert elim.nullspace == [{0: Q(-2), 1: Q(1)}]
    assert elim.solution == {0: Q(-2), 2: Q(1)}
    assert elim.certificate is None
    elim = fr.rref(rows + [{0: Q(3), 1: Q(6), 2: Q(10)}], 3,
                   [Q(1), Q(3), Q(5)])
    assert elim.solution is None
    assert elim.certificate == {0: Q(-1), 1: Q(-1), 2: Q(1)}


def test_center_of_m2q_is_scalars():
    zb = fr.center(fr.algebra_m2q())
    assert len(zb) == 1


def test_circle_maps_inverse_iff_separable():
    for name, mk in ALGEBRAS.items():
        A = mk()
        cm = fr.circle_maps(A)
        sep = fr.check_separable(A).separable
        assert cm.mutually_inverse == sep, name


def test_qx2_circle_map_values():
    A = fr.algebra_qx2()
    cm = fr.circle_maps(A)
    # cocenter of a commutative algebra is the algebra itself
    assert cm.cocenter.dim == 2
    # u([1]) = 2x and u([x]) = 0 in center coordinates
    one = cm.cocenter.reps.index((Q(1), Q(0)))
    xx = cm.cocenter.reps.index((Q(0), Q(1)))
    zb = cm.center_basis

    def u_image(col):
        img = [Q(0), Q(0)]
        for j, c in enumerate(cm.u[col]):
            for k in range(2):
                img[k] += c * zb[j][k]
        return tuple(img)

    assert u_image(one) == (Q(0), Q(2))   # 2x
    assert u_image(xx) == (Q(0), Q(0))


# ---------------------------------------------------------------------------
# closed values and evaluation
# ---------------------------------------------------------------------------

def test_closed_value_oracle():
    A = fr.algebra_m2q()
    assert [fr.closed_value(A, g) for g in (0, 1, 2)] == [2, 4, 8]
    Aq = fr.algebra_q()
    assert all(fr.closed_value(Aq, g) == 1 for g in range(5))


def test_evaluate_matches_oracle_all_algebras(ori):
    for name, mk in ALGEBRAS.items():
        A = mk()
        asg = fr.standard_assignment(A, ori)
        for g in range(5):
            v = fr.evaluate(stt.genus(ori, g), asg)
            assert v.is_scalar
            assert v.scalar == fr.closed_value(A, g), (name, g)


def test_evaluate_identity_matrix(ori):
    A = fr.algebra_m2q()
    asg = fr.standard_assignment(A, ori)
    t = vcompose([Id2(Gen1("ev"))], ori.data)
    v = fr.evaluate(t, asg)
    n = A.dim
    assert v.matrix == tuple(tuple(Q(1) if i == j else Q(0)
                                   for j in range(n)) for i in range(n))


def test_evaluate_monoidal(ori):
    A = fr.algebra_qz2()
    asg = fr.standard_assignment(A, ori)
    sphere = stt.sphere(ori)
    torus = stt.genus(ori, 1)
    both = Tensor2(sphere, torus)
    v = fr.evaluate(both, asg)
    assert v.scalar == fr.evaluate(sphere, asg).scalar \
        * fr.evaluate(torus, asg).scalar


def test_rewrite_soundness_m2(ori):
    A = fr.algebra_m2q()
    asg = fr.standard_assignment(A, ori)
    for seed in range(12):
        t = build.random_term(ori, seed, events=4)
        base = fr.evaluate(t, asg)
        for step in pr.find_matches(t, ori)[:4]:
            res = pr.apply(t, step)
            assert fr.evaluate(res, asg) == base, step.relation


def test_verify_presentation_pass_fail(ori):
    for name in ("Q", "QxQ", "M2Q", "QZ2"):
        rep = fr.verify_presentation(ALGEBRAS[name](), ori)
        assert rep.ok, (name, rep.failures())
    rep = fr.verify_presentation(fr.algebra_qx2(), ori)
    assert not rep.ok
    assert all("cusp-inversion" in n for n in rep.failures())


def test_verify_unoriented_star_algebras(uno):
    for name in ("Q", "QxQ", "QZ2"):
        rep = fr.verify_presentation(ALGEBRAS[name](), uno)
        assert rep.ok, (name, rep.failures())


def test_standard_assignment_requires_structure(uno):
    A = fr.algebra_m2q()
    fields = ref.maps(A)
    del fields["star"]
    nostar = fr.FrobAlgebra(name="m2-nostar", dim=A.dim, **fields)
    with pytest.raises(fr.AlgebraError):
        fr.standard_assignment(nostar, uno)


def test_evaluate_rejects_an_invalid_term(uno):
    """On every call, and without leaving a program memo on the term."""
    asg = fr.standard_assignment(fr.algebra_m2q(), uno)
    term = tc.parse_two_cell("(cap . cap)")
    for _ in range(2):
        with pytest.raises(fr.AlgebraError) as exc:
            fr.evaluate(term, asg)
        assert str(exc.value) == \
            "invalid term:\n0: non-composable vertical chain"
        assert "_program" not in vars(term)


def _count_movies(monkeypatch):
    """A list that `frobenius` appends to on every movie it plays."""
    runs = []

    def run_movie(report, data, listener):
        runs.append(report)
        return real(report, data, listener)
    real = fr.run_movie
    monkeypatch.setattr(fr, "run_movie", run_movie)
    return runs


def test_the_program_memo_is_only_a_memo(ori, uno, monkeypatch):
    """Every relation side of both presentations, on every built-in
    algebra: a fresh copy's first evaluation (cold memo), its second (warm
    memo), the reference evaluator and one more copy evaluated on all five
    algebras agree, and the movie of that copy runs once."""
    runs = _count_movies(monkeypatch)
    for p in (ori, uno):
        asgs = [fr.standard_assignment(mk(), p) for mk in ALGEBRAS.values()]
        for rel in p.relations:
            for side in (rel.lhs, rel.rhs):
                shared, before = tc.fresh(side), len(runs)
                for asg in asgs:
                    term = tc.fresh(side)
                    assert "_program" not in vars(term)
                    cold = fr.evaluate(term, asg)
                    assert vars(term)["_program"][0] is p
                    assert cold == fr.evaluate(term, asg) \
                        == reference_eval.evaluate(term, asg) \
                        == fr.evaluate(shared, asg), rel.name
                assert len(runs) == before + len(asgs) + 1, rel.name


def test_a_term_recompiles_under_each_presentation(ori, uno, monkeypatch):
    """A term valid under both presentations is compiled again whenever
    it is evaluated under the other one, to the same value."""
    runs = _count_movies(monkeypatch)
    term = stt.genus(uno, 2)
    A = fr.algebra_m2q()
    values = []
    for i, p in enumerate((uno, ori, uno)):
        values.append(fr.evaluate(term, fr.standard_assignment(A, p)))
        assert len(runs) == i + 1 and vars(term)["_program"][0] is p
    assert {v.scalar for v in values} == {fr.closed_value(A, 2)}


def test_klein_value_recorded(uno):
    """Closed non-orientable values are computed operationally (no oracle)."""
    A = fr.algebra_qz2()
    asg = fr.standard_assignment(A, uno)
    v = fr.evaluate(stt.klein_bottle(uno), asg)
    assert v.is_scalar  # value recorded, not asserted


#: (sentence path, cell) steps from ``(I[1] (*) I[pt])`` that open a
#: circle beside the strand and fuse the two by the split saddle, the
#: last step; the strand then carries a disk glued on along an arc
FUSE_A_CIRCLE = [
    ("left", "cap"),
    ("right", "inv2(rc[I[pt]])"),
    ("", "inv2(phi[(ev,I[pt]),(coev,I[pt])])"),
    ("after", "inv2(rc[(ev (*) I[pt])])"),
    ("after/first", "eta[alpha[pt,pt,pt]]"),
    ("after/first/after", "inv2(rc[inv(alpha[pt,pt,pt])])"),
    ("after/first/after/first", "phi0[pt,(pt ⊗ pt)]"),
    ("after/first/after/first/right", "split"),
]

#: steps from ``I[1]`` that cap a circle and open ``(I[1] (*) I[pt])`` on
#: one of its strands, at `FUSED_PREFIX`
CAP_AND_OPEN = [
    ("", "cap"),
    ("after", "inv2(rc[ev])"),
    ("after/first", "phi0[pt,pt]"),
    ("after/first/right", "eta[inv(l[pt])]"),
    ("after/first/right/after", "inv2(rc[l[pt]])"),
    ("after/first/right/after/first", "phi0[1,pt]"),
]
FUSED_PREFIX = "after/first/right/after/first/"


def _movie(p, start, steps):
    builder = build.MovieBuilder(p, tc.parse_morphism(start))
    for path, cell in steps:
        builder.apply(tuple(path.split("/")) if path else (),
                      tc.parse_two_cell(cell, p.data))
    return builder.term()


@pytest.mark.parametrize("name", ALGEBRAS)
def test_a_split_saddle_that_fuses_two_components_multiplies(uno, name):
    """A split saddle that fuses two components is a pair of pants, as a
    merge saddle that does is: a circle fused into a strand leaves the
    identity strip, and two capped circles fused leave one disk."""
    strip = _movie(uno, "(I[1] (*) I[pt])", FUSE_A_CIRCLE)
    disk = _movie(uno, "I[1]", CAP_AND_OPEN + [
        ((FUSED_PREFIX + path).rstrip("/"), cell)
        for path, cell in FUSE_A_CIRCLE])
    for t in (strip, disk):
        assert sf.invariants(sf.reconstruct(t, uno)).components == (
            sf.ComponentInvariants(1, True, 1),)
    asg = fr.standard_assignment(ALGEBRAS[name](), uno)
    assert _assert_same(strip, asg) == fr.evaluate(
        tc.parse_two_cell("id[I[pt]]", uno.data), asg)
    assert _assert_same(disk, asg) == fr.evaluate(tc.Gen2("cap"), asg)
    assert ("split", 2, 1) in _keys(strip, uno)


#: `FUSE_A_CIRCLE`, then the merge saddle back at the split's own path,
#: which splits the strand's component into the strand and a circle: one
#: orientable component with chi = 0 and two boundary circles
SPLIT_OFF_A_CIRCLE = FUSE_A_CIRCLE + [("after/first/after/first/right",
                                       "merge")]


def _inverse(cell):
    return cell[len("inv2("):-1] if cell.startswith("inv2(") \
        else "inv2(%s)" % cell


#: steps that undo `FUSE_A_CIRCLE`'s structural cells and close the circle
#: `SPLIT_OFF_A_CIRCLE` leaves with a cup
CLOSE_THE_CIRCLE = [(path, _inverse(cell))
                    for path, cell in FUSE_A_CIRCLE[-2:0:-1]] + [("left",
                                                                  "cup")]


def _keys(term, p):
    """The `_LOCAL` keys of the program of `term` under `p`, in order."""
    return [op for op, _, _ in fr._compile(term, p)[1]]


@pytest.mark.parametrize("name", ALGEBRAS)
def test_a_merge_saddle_that_splits_a_component_inserts_the_copairing(
        uno, name):
    """A merge saddle that cuts one component in two is the copairing's
    pair of pants, as a split saddle that does is: with the circle it
    splits off closed by a cup, the strand carries an annulus capped off,
    the identity strip."""
    annulus = _movie(uno, "(I[1] (*) I[pt])", SPLIT_OFF_A_CIRCLE)
    strip = _movie(uno, "(I[1] (*) I[pt])",
                   SPLIT_OFF_A_CIRCLE + CLOSE_THE_CIRCLE)
    assert sf.invariants(sf.reconstruct(annulus, uno)).components == (
        sf.ComponentInvariants(0, True, 2),)
    assert sf.invariants(sf.reconstruct(strip, uno)).components == (
        sf.ComponentInvariants(1, True, 1),)
    # slot positions pinned: a program must not depend on the hash seed
    assert fr._compile(annulus, uno) == (1, (
        (("cap", 0, 1), (), (0,)), (("split", 2, 1), (1, 0), ()),
        (("merge", 1, 2), (0,), ())), (1, 0))
    assert _keys(strip, uno) == _keys(annulus, uno) + [("cup", 1, 0)]
    asg = fr.standard_assignment(ALGEBRAS[name](), uno)
    value = _assert_same(annulus, asg)
    assert (value.source_components, value.target_components) == (1, 2)
    assert _assert_same(strip, asg) == fr.evaluate(
        tc.parse_two_cell("id[I[pt]]", uno.data), asg)


#: the keys that need a same-component saddle, which no term reaches
#: before a non-orientable surface can be built to order
UNREACHED = {("merge", 1, 1), ("split", 1, 1)}


def test_every_local_map_but_the_same_component_saddles_is_reached(ori,
                                                                   uno):
    """The programs of the relation sides, the fusion and splitting terms
    above and `random_term` seeds 0..299 at 5, 7 and 9 events under both
    presentations reach every `_LOCAL` key but `UNREACHED`."""
    reached = Counter()
    for p in (ori, uno):
        for rel in p.relations:
            reached.update(_keys(rel.lhs, p) + _keys(rel.rhs, p))
    for start, steps in [("(I[1] (*) I[pt])", FUSE_A_CIRCLE),
                         ("I[1]", CAP_AND_OPEN + [
                             ((FUSED_PREFIX + path).rstrip("/"), cell)
                             for path, cell in FUSE_A_CIRCLE]),
                         ("(I[1] (*) I[pt])", SPLIT_OFF_A_CIRCLE)]:
        reached.update(_keys(_movie(uno, start, steps), uno))
    corpus = Counter()
    for p in (ori, uno):
        for seed in range(300):
            for events in (5, 7, 9):
                corpus.update(_keys(build.random_term(p, seed, events=events),
                                    p))
    assert set(reached + corpus) == set(fr._LOCAL) - UNREACHED
    # the only random terms that reroute two strands by a saddle
    assert (corpus["merge", 2, 2], corpus["split", 2, 2]) == (2, 11)


def test_evaluate_genus_scaling(ori):
    """One walk on a merged state: genus 12 on M2Q well inside a second."""
    A = fr.algebra_m2q()
    asg = fr.standard_assignment(A, ori)
    term = stt.genus(ori, 12)
    t0 = time.perf_counter()
    v = fr.evaluate(term, asg)
    elapsed = time.perf_counter() - t0
    assert v.is_scalar and v.scalar == fr.closed_value(A, 12)
    assert elapsed < 1.0, elapsed
    for name in ("Q", "QxQ", "QZ2", "Qx2"):
        A = ALGEBRAS[name]()
        asg = fr.standard_assignment(A, ori)
        for g in range(11):
            v = fr.evaluate(stt.genus(ori, g), asg)
            assert v.is_scalar and v.scalar == fr.closed_value(A, g), (name, g)


# ---------------------------------------------------------------------------
# the per-column reference evaluator as an oracle
# ---------------------------------------------------------------------------

def _outcome(evaluate, term, asg):
    try:
        return evaluate(term, asg)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _assert_same(term, asg):
    new = _outcome(fr.evaluate, term, asg)
    assert new == _outcome(reference_eval.evaluate, term, asg), \
        tc.print_two_cell(term)
    return new


def test_reference_genus_terms(ori):
    for A in ALGEBRAS.values():
        asg = fr.standard_assignment(A(), ori)
        for g in range(5):
            assert isinstance(_assert_same(stt.genus(ori, g), asg),
                              fr.TwoCellValue)


#: Q with lambda(1) = 1/2 and the copairing 2 (1 (x) 1): symmetric and
#: separable, with a rational functional and handle element H = 2, so the
#: genus-g surface is lambda(H^g) = 2^(g-1)
HALF_ALG = "dim 1\nmult 1 1 -> 1:1\nunit 1:1\nlambda 1:1/2\ne 1,1:2\n"


def test_rational_algebra_through_standard_assignment(ori):
    # the one rational algebra that reaches `standard_assignment`: every
    # built-in algebra is integral, and the perturbation corpus builds its
    # assignments directly
    A = fr.parse_algebra_file(HALF_ALG, name="Qhalf")
    asg = fr.standard_assignment(A, ori)
    for g in range(7):
        v = _assert_same(stt.genus(ori, g), asg)
        assert v.is_scalar and v.scalar == fr.closed_value(A, g) \
            == Q(2) ** (g - 1), g
        assert isinstance(v.scalar, Q), g
    assert fr.verify_presentation(A, ori).ok


def _perturbed_algebras(per_algebra):
    """The first `per_algebra` perturbations of each built-in algebra in
    the reference corpus that are associative and unital."""
    from tests.test_frobenius_reference import CORPUS
    taken = {}
    for label, A in CORPUS:
        name = label.partition("~")[0]
        if ("~" in label and taken.get(name, 0) < per_algebra
                and fr.check_algebra(A).ok):
            taken[name] = taken.get(name, 0) + 1
            yield A


def test_reference_relations(ori, uno):
    # every built-in algebra accepts both presentations
    for p in (ori, uno):
        for mk in ALGEBRAS.values():
            asg = fr.standard_assignment(mk(), p)
            for rel in p.relations:
                _assert_same(rel.lhs, asg)
                _assert_same(rel.rhs, asg)
    # perturbed algebras, where no relation is forced to hold: each gets
    # an assignment built directly, with the cusp factor standard_assignment
    # would pick, and both evaluators must agree on every relation side
    broken = 0
    for A in _perturbed_algebras(4):
        sep = fr.check_separable(A).separable
        for p in (ori, uno):
            asg = fr.Assignment(A, p, cusp_factor=A.one if sep
                                else A.handle_element())
            for rel in p.relations:
                broken += _assert_same(rel.lhs, asg) != _assert_same(rel.rhs,
                                                                     asg)
    assert broken > 0


def test_reference_semantic_corpus(ori):
    """The criterion 5 corpus and every rewrite of it, on M2Q."""
    from tests.test_acceptance import _corpus
    asg = fr.standard_assignment(fr.algebra_m2q(), ori)
    checked = 0
    for t in _corpus(ori, 100):
        _assert_same(t, asg)
        for step in pr.find_matches(t, ori):
            _assert_same(pr.apply(t, step), asg)
            checked += 1
    assert checked > 500


# ---------------------------------------------------------------------------
# structural cells over repeated leaves
# ---------------------------------------------------------------------------

# Valid terms whose structural cells (phi, lc, rc) reorder or repeat equal
# leaves: matching strands by equal leaf terms raised "component transfer
# is not a bijection" in evaluate on the oriented pair and "new arc
# produced twice" in reconstruct on the unoriented pair.
FORMER_DEFECTS = {
    "oriented": [
        "((id[(coev ; ev)] (*) (id[ev] # inv2(rc[coev]))) . (cup (*) "
        "id[((I[1] ; coev) ; ev)]) . (id[I[1]] (*) (id[ev] # (id[coev] # "
        "cap))) . (cap (*) id[(((coev ; ev) ; coev) ; ev)]) . "
        "inv2(phi[(ev,ev),(coev,((coev ; ev) ; coev))]))",
        "((id[(coev ; ev)] (*) (id[ev] # inv2(lc[coev]))) . "
        "((inv2(rc[ev]) # id[coev]) (*) id[((coev ; I[(pt+ ⊗ pt-)]) ; ev)])"
        " . inv2(phi[((I[(pt+ ⊗ pt-)] ; ev),ev),(coev,(coev ; "
        "I[(pt+ ⊗ pt-)]))]) . (id[((I[(pt+ ⊗ pt-)] ; ev) (*) ev)] # "
        "(id[coev] (*) (split # id[coev]))) . (id[((I[(pt+ ⊗ pt-)] ; ev) "
        "(*) ev)] # (id[coev] (*) (merge # id[coev]))))",
    ],
    "unoriented": [
        "((inv2(lc[ev]) # id[coev]) . ((cap # id[ev]) # id[coev]) . "
        "(((inv2(rc[ev]) # id[coev]) # id[ev]) # id[coev]) . "
        "(id[(ev ; (coev ; (I[(pt ⊗ pt)] ; ev)))] # sym_coev_in) . "
        "(inv2(rc[(ev ; (coev ; (I[(pt ⊗ pt)] ; ev)))]) # "
        "id[(coev ; beta[pt,pt])]))",
        "((id[(coev ; ev)] (*) cusp_up) . ((id[ev] # inv2(lc[coev])) (*) "
        "id[(((((inv(l[pt]) ; (coev (*) I[pt])) ; alpha[pt,pt,pt]) ; "
        "(I[pt] (*) beta[pt,pt])) ; (I[pt] (*) ev)) ; inv(r[pt]))]) . "
        "inv2(phi[(ev,inv(r[pt])),((coev ; I[(pt ⊗ pt)]),((((inv(l[pt]) ; "
        "(coev (*) I[pt])) ; alpha[pt,pt,pt]) ; (I[pt] (*) beta[pt,pt])) ; "
        "(I[pt] (*) ev)))]) . (id[(ev (*) inv(r[pt]))] # (id[(coev ; "
        "I[(pt ⊗ pt)])] (*) (id[(I[pt] (*) ev)] # ((cusp_up (*) "
        "id[beta[pt,pt]]) # id[((inv(l[pt]) ; (coev (*) I[pt])) ; "
        "alpha[pt,pt,pt])])))) . (id[(ev (*) inv(r[pt]))] # (id[(coev ; "
        "I[(pt ⊗ pt)])] (*) ((cusp_up (*) id[ev]) # id[(((inv(l[pt]) ; "
        "(coev (*) I[pt])) ; alpha[pt,pt,pt]) ; ((((((inv(l[pt]) ; (coev "
        "(*) I[pt])) ; alpha[pt,pt,pt]) ; (I[pt] (*) beta[pt,pt])) ; "
        "(I[pt] (*) ev)) ; inv(r[pt])) (*) beta[pt,pt]))]))))",
    ],
}


def test_former_defect_terms_agree_across_rewrites(ori, uno):
    for p in (ori, uno):
        asg = fr.standard_assignment(fr.algebra_m2q(), p)
        for text in FORMER_DEFECTS[p.name]:
            t = tc.parse_two_cell(text, p.data)
            assert tc.print_two_cell(t) == text
            value = _assert_same(t, asg)
            assert isinstance(value, fr.TwoCellValue), (text, value)
            inv = sf.invariants(sf.reconstruct(t, p))
            steps = pr.find_matches(t, p)
            assert steps
            for step in steps:
                r = pr.apply(t, step)
                assert fr.evaluate(r, asg) == value, step.relation
                assert sf.invariants(sf.reconstruct(r, p)) == inv, \
                    step.relation


@pytest.mark.parametrize("name, algebra", [("unoriented", fr.algebra_q),
                                           ("oriented", fr.algebra_m2q)],
                         ids=["unoriented", "oriented"])
def test_random_terms_evaluate_and_reconstruct(ori, uno, name, algebra):
    """Every fourth seed of 0..399 at 5, 7 and 9 events: about half of a
    random term's events are structural cells.  Each term evaluates and
    reconstructs; up to four rewrites of the 9-event term keep its
    invariants (unoriented) or its value (oriented)."""
    p = uno if name == "unoriented" else ori
    asg = fr.standard_assignment(algebra(), p)
    rewrites = 0
    for seed in range(0, 400, 4):
        for events in (5, 7, 9):
            t = build.random_term(p, seed, events=events)
            inv = sf.invariants(sf.reconstruct(t, p))
            value = fr.evaluate(t, asg)
            if events != 9:
                continue
            for step in pr.find_matches(t, p)[:4]:
                r = pr.apply(t, step)
                rewrites += 1
                if p is uno:
                    assert sf.invariants(sf.reconstruct(r, p)) == inv, seed
                else:
                    assert fr.evaluate(r, asg) == value, seed
    assert rewrites > 200


def test_closed_values_follow_the_classification(ori):
    """The classification across layers: a closed oriented term evaluates,
    on a separable symmetric Frobenius algebra, to the product over the
    components `invariants` finds of `closed_value(A, genus)`.  The terms
    are every closed `random_term` of seeds 0..399 at 5, 7 and 9 events,
    the standard genus 0..3 surfaces and a torus beside a genus-2 surface."""
    terms = []
    for seed in range(400):
        for events in (5, 7, 9):
            t = build.random_term(ori, seed, events=events)
            try:
                sf.euler_by_events(t, ori)  # raises on a term not closed
            except sf.SurfaceError:
                continue
            terms.append(t)
    terms += [stt.genus(ori, g) for g in range(4)]
    terms.append(Tensor2(stt.genus(ori, 1), stt.genus(ori, 2)))
    assert len(terms) == 47
    genera = [[c.genus for c in sf.invariants(sf.reconstruct(t, ori))
               .components] for t in terms]
    for name in ("Q", "QxQ", "M2Q", "QZ2"):
        A = ALGEBRAS[name]()
        asg = fr.standard_assignment(A, ori)
        for t, gs in zip(terms, genera):
            expected = Q(1)
            for g in gs:
                expected *= fr.closed_value(A, g)
            v = fr.evaluate(t, asg)
            assert v.is_scalar and v.scalar == expected, (name, str(t), gs)


def test_forgetting_orientation_keeps_the_value(ori, uno):
    """Forgetting orientation is a symmetric monoidal functor from oriented
    to unoriented bordisms, and an unoriented TFT restricts along it: an
    oriented term and its image evaluate alike on every built-in algebra.
    The terms are `random_term` seeds 0..59 at 5 and 7 events, less those
    holding a mirror cusp, which `forget_orientation` refuses."""
    pairs = []
    for seed in range(60):
        for events in (5, 7):
            t = build.random_term(ori, seed, events=events)
            if any(isinstance(l, tc.Gen2) and l.name.endswith("_neg")
                   for l in tc.iter_two_cell_leaves(t)):
                continue
            pairs.append((t, pr.forget_orientation(t)))
    assert len(pairs) >= 90
    non_scalar = 0
    for A in (make() for make in ALGEBRAS.values()):
        oriented = fr.standard_assignment(A, ori)
        unoriented = fr.standard_assignment(A, uno)
        for t, image in pairs:
            value = fr.evaluate(t, oriented)
            assert fr.evaluate(image, unoriented) == value, (A.name, str(t))
            non_scalar += not value.is_scalar
    assert non_scalar >= 400


# ---------------------------------------------------------------------------
# algebra files
# ---------------------------------------------------------------------------

def test_algebra_file_round_trip():
    # each committed .alg file spells out its built-in algebra
    files = {"q.alg": "Q", "qq.alg": "QxQ", "m2q.alg": "M2Q",
             "qz2.alg": "QZ2", "qx2.alg": "Qx2"}
    assert sorted(f.name for f in ALGEBRA_FILES.glob("*.alg")) \
        == sorted(files)
    for filename, name in files.items():
        A = ALGEBRAS[name]()
        B = fr.parse_algebra_file(
            (ALGEBRA_FILES / filename).read_text(encoding="utf-8"), name=name)
        assert B.dim == A.dim
        assert B.rows == A.rows
        assert B.one == A.one
        assert B.lam == A.lam
        assert B.pairs == A.pairs
        assert B.stars == A.stars


@pytest.mark.parametrize("text, lineno, index", [
    ("dim 2\nmult 0 0 -> 0:1\nunit 1:1", 2, 0),
    ("dim 2\nmult 1 1 -> 3:1\nunit 1:1", 2, 3),
    ("dim 2\nmult 1 3 -> 1:1\nunit 1:1", 2, 3),
    ("dim 2\nunit 0:1", 2, 0),
    ("dim 2\nunit 1:1\nlambda 3:1", 3, 3),
    ("dim 2\nunit 1:1\ne 1,3:1", 3, 3),
    ("dim 2\nunit 1:1\ne 0,1:1", 3, 0),
    ("dim 2\nunit 1:1\nstar 3 -> 1:1", 3, 3),
    ("dim 2\nunit 1:1\nstar 1 -> -1:1", 3, -1),
])
def test_algebra_file_index_out_of_range(text, lineno, index):
    with pytest.raises(fr.AlgebraError) as exc:
        fr.parse_algebra_file(text)
    assert str(exc.value) == "line %d: index %d out of range 1..2" \
        % (lineno, index)


def test_algebra_file_errors():
    with pytest.raises(fr.AlgebraError):
        fr.parse_algebra_file("mult 1 1 -> 1:1")  # dim missing
    with pytest.raises(fr.AlgebraError):
        fr.parse_algebra_file("dim 2\nunit 1:1\nfrobnicate 3")
    with pytest.raises(fr.AlgebraError):
        fr.parse_algebra_file("dim 2\nunit 1:1/0")
    with pytest.raises(fr.AlgebraError):
        fr.parse_algebra_file("dim -1\nunit")
    for text, message in [
        ("dim 2\ndim 2\nunit 1:1", "line 2: duplicate dim"),
        ("dim 2\nunit 1:1\nunit 2:1", "line 3: duplicate unit"),
        ("dim 2\nunit 1:1\nlambda 1:1\nlambda 2:1",
         "line 4: duplicate lambda"),
        ("dim 2\nunit 1:1\ne 1,1:1\ne 2,2:1", "line 4: duplicate e"),
        ("dim 2\nmult 1 2 -> 1:1\nunit 1:1\nmult 1 2 -> 2:1",
         "line 4: duplicate mult 1 2"),
        ("dim 2\nunit 1:1\nstar 1 -> 1:1\nstar 2 -> 2:1\nstar 1 -> 2:1",
         "line 5: duplicate star 1"),
        # a coefficient is an integer or p/q: Fraction would also read
        # these, and 10**999999999 before any check
        ("dim 2\nunit 1:1e999999999", "line 2: invalid rational "
         "'1e999999999'"),
        ("dim 2\nunit 1:1\nlambda 1:0.5", "line 3: invalid rational '0.5'"),
        ("dim 2\nunit 1:1\ne 1,1:1_0", "line 3: invalid rational '1_0'"),
        # so are dim and every index: int would read 1_0 as 10 and the
        # Arabic-Indic digit two as 2
        ("dim 1_0\nunit 1:1", "line 1: invalid dim '1_0'"),
        ("dim ٢\nunit 1:1", "line 1: invalid dim '٢'"),
        ("dim 2\nmult ٢ ٢ -> 2:1\nunit 1:1", "line 2: invalid index '٢'"),
        ("dim 2\nmult 1 1_0 -> 1:1\nunit 1:1",
         "line 2: invalid index '1_0'"),
        ("dim 2\nunit ١:1", "line 2: invalid index '١'"),
        ("dim 2\nunit 1:1\nlambda 0x1:1", "line 3: invalid index '0x1'"),
        ("dim 2\nunit 1:1\ne 1,٢:1", "line 3: invalid index '٢'"),
        ("dim 2\nunit 1:1\nstar ２ -> 1:1", "line 3: invalid index '２'"),
        # a malformed line names the form it expected
        ("dim 2\nmult 1 1 -> 1", "line 2: expected k:q, got '1'"),
        ("dim 2\nmult 1 1 -> 1:1:2", "line 2: expected k:q, got '1:1:2'"),
        ("dim 2\nmult 1 1", "line 2: expected mult i j -> k:q ..."),
        ("dim 2\nstar 1", "line 2: expected star i -> k:q ..."),
        ("dim", "line 1: expected dim n"),
        ("dim 2\ne 1:1", "line 2: expected i,j:q, got '1:1'"),
        # a numeral past MAX_DIGITS is refused before int or Fraction
        # reads it, on every Python alike
        ("dim %s\nunit 1:1" % ("9" * 5000),
         "line 1: expected dim n, got a numeral of 5000 digits"),
        ("dim 2\nunit 1:%s" % ("9" * 5000),
         "line 2: expected unit k:q ..., got a numeral of 5000 digits"),
        ("dim 2\nunit 1:1\nlambda 1:1/%s" % ("7" * 1001),
         "line 3: expected lambda k:q ..., got a numeral of 1001 digits"),
        ("dim 2\nmult 1 %s -> 1:1" % ("0" * 1001),
         "line 2: expected mult i j -> k:q ..., got a numeral of 1001 "
         "digits"),
        ("dim 2\nunit 1:1\ne 1,1:%s" % ("9" * 5000),
         "line 3: expected e i,j:q ..., got a numeral of 5000 digits"),
        ("dim 2\nunit 1:1\nstar %s -> 1:1" % ("9" * 5000),
         "line 3: expected star i -> k:q ..., got a numeral of 5000 digits"),
    ]:
        with pytest.raises(fr.AlgebraError) as exc:
            fr.parse_algebra_file(text)
        assert str(exc.value) == message


def test_algebra_file_reads_numerals_of_max_digits():
    numeral = "2".rjust(fr.MAX_DIGITS, "0")
    A = fr.parse_algebra_file("dim %s\nmult 1 1 -> 1:1\nmult 2 2 -> 2:1\n"
                              "unit 1:1 2:1\nlambda 1:1/%s" % (numeral, numeral))
    assert A.dim == 2 and A.lam == {0: Q(1, 2)}


#: a large `dim` whose tables the file does not fill
HUGE_DIM = "dim 100000\nunit 1:1\nlambda 1:1\ne 1,1:1\n"


def test_algebra_file_dim_beyond_its_mult_rows_is_refused_at_once():
    # unit . b_i = b_i needs a nonzero mult row (j, i) for every i, so the
    # tables of a dim the rows cannot fill are never built
    start = time.perf_counter()
    with pytest.raises(fr.AlgebraError) as exc:
        fr.parse_algebra_file(HUGE_DIM)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == ("dim 100000 needs at least 100000 nonzero "
                              "mult rows for a unit, found 0")
    with pytest.raises(fr.AlgebraError) as exc:
        fr.parse_algebra_file("dim 2\nmult 1 1 -> 1:1\nmult 1 2 -> 2:0\n"
                              "unit 1:1")
    assert str(exc.value) == ("dim 2 needs at least 2 nonzero mult rows "
                              "for a unit, found 1")


def test_algebra_file_memory_grows_with_its_entries():
    # Q^300 on its idempotents: 303 lines fill sparse tables of about
    # 2 MB at the peak, where dense dim^3 tables took about 216 MB
    n = range(1, 301)
    text = "".join(["dim 300\n"] + ["mult %d %d -> %d:1\n" % (i, i, i)
                                    for i in n]
                   + ["unit", *(" %d:1" % i for i in n), "\nlambda",
                      *(" %d:1" % i for i in n), "\ne",
                      *(" %d,%d:1" % (i, i) for i in n), "\n"])
    tracemalloc.start()
    try:
        A = fr.parse_algebra_file(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20, peak
    assert A.rows[299][299] == ((299, 1),) and not A.rows[0][1]
    assert len(A.one) == len(A.lam) == len(A.pairs) == 300


@pytest.mark.parametrize("line, message", [
    ("mult 1 1 -> 1:1 1:1", "duplicate index 1"),
    ("unit 1:1 1:1", "duplicate index 1"),
    ("lambda 2:1 1:1 2:3", "duplicate index 2"),
    ("e 1,1:1 1,1:2", "duplicate entry 1,1"),
    ("star 1 -> 1:1 1:3", "duplicate index 1"),
], ids=["mult", "unit", "lambda", "e", "star"])
def test_algebra_file_duplicate_index(line, message):
    # a repeated index is an error, not summed or overwritten
    with pytest.raises(fr.AlgebraError) as exc:
        fr.parse_algebra_file("dim 2\n" + line)
    assert str(exc.value) == "line 2: " + message


def test_verify_unoriented_m2_with_transpose_star(uno):
    rep = fr.verify_presentation(fr.algebra_m2q(), uno)
    assert rep.ok, rep.failures()
