"""Algebra checkers, separability, circle maps and exact evaluation."""

import json
import pathlib
import random
import time
from fractions import Fraction as Q

import pytest

from bordcalc import build
from bordcalc import frobenius as fr
from bordcalc import presentations as pr
from bordcalc import standard_terms as stt
from bordcalc import termcore as tc
from bordcalc._diagram import DiagramError
from bordcalc.termcore import Gen1, Gen2, Id1, Id2, Inv2, RC, hcompose, \
    tensor, vcompose
from tests import reference_eval


@pytest.fixture(scope="module")
def ori():
    return pr.bord2_oriented()


@pytest.fixture(scope="module")
def uno():
    return pr.bord2_unoriented()


ALGEBRAS = {
    "Q": fr.algebra_q,
    "QxQ": fr.algebra_qq,
    "M2Q": fr.algebra_m2q,
    "QZ2": fr.algebra_qz2,
    "Qx2": fr.algebra_qx2,
}


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
    # b(E_ij, E_kl) = tr(E_ij E_kl) = delta_jk delta_il
    idx = {("E11"): 0, ("E12"): 1, ("E21"): 2, ("E22"): 3}
    def b(i, j):
        return A.lam_of(A.mul(A.basis_vec(i), A.basis_vec(j)))
    assert b(idx["E12"], idx["E21"]) == 1
    assert b(idx["E12"], idx["E12"]) == 0
    assert b(idx["E11"], idx["E11"]) == 1
    # e = sum E_ij (x) E_ji
    assert A.e[idx["E12"]][idx["E21"]] == 1
    assert A.e[idx["E12"]][idx["E12"]] == 0
    assert A.handle_element() == (Q(2), Q(0), Q(0), Q(2))


def test_qx2_worked_normalization():
    # lam(1) x-part . 1 + lam(x) . 1 = 1: the spec's worked arithmetic
    A = fr.algebra_qx2()
    left = [Q(0)] * 2
    for c, x, y in A.e_pairs():
        lx = A.lam_of(x)
        for k in range(2):
            left[k] += c * lx * y[k]
    assert tuple(left) == A.unit


def _random_diagonal_algebra(rng, n):
    weights = [Q(rng.randint(1, 9)) for _ in range(n)]
    mult = tuple(tuple(fr._vec(n, [(i, Q(1))]) if i == j else fr._vec(n)
                       for j in range(n)) for i in range(n))
    e = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        e[i][i] = 1 / weights[i]
    return fr.FrobAlgebra(
        name="diag", dim=n, mult=mult,
        unit=tuple(Q(1) for _ in range(n)),
        lam=tuple(weights),
        e=tuple(tuple(r) for r in e))


def test_snake_on_random_diagonal_algebras():
    rng = random.Random(11)
    for _ in range(6):
        A = _random_diagonal_algebra(rng, rng.randint(1, 4))
        rep = fr.check_symmetric(A)
        assert rep.ok, str(rep)


def _m2_twisted():
    """M2(Q) with the non-central twist u = diag(1,2): Frobenius, not
    symmetric."""
    base = fr.algebra_m2q()
    n = 4
    # lam_u(x) = tr(u x); dual copairing solved from the reproducing identity
    u = (Q(1), Q(0), Q(0), Q(2))
    lam = tuple(base.lam_of(base.mul(u, base.basis_vec(k))) for k in range(n))
    rows, rhs = [], []
    for z in range(n):
        for a in range(n):
            row = []
            for i in range(n):
                for j in range(n):
                    lam_zi = sum(lam[t] * base.mul(base.basis_vec(z),
                                                   base.basis_vec(i))[t]
                                 for t in range(n))
                    row.append(lam_zi if base.basis_vec(j)[a] else Q(0))
            rows.append(row)
            rhs.append(base.basis_vec(z)[a])
    sol = fr.rref(rows, n * n, rhs).solution
    assert sol is not None
    e = tuple(tuple(sol[i * n + j] for j in range(n)) for i in range(n))
    return fr.FrobAlgebra(name="M2-twisted", dim=4, mult=base.mult,
                          unit=base.unit, lam=lam, e=e)


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
    A = fr.algebra_m2q()
    n = A.dim
    acc = [Q(0)] * n
    for i in range(n):
        for j in range(n):
            c = res.witness[i][j]
            if c:
                prod = A.mul(A.basis_vec(i), A.basis_vec(j))
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
    assert all(sum(yi * row[c] for yi, row in zip(y, rows)) == 0
               for c in range(len(rows[0])))
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
    rows = [[Q(1), Q(2), Q(3)], [Q(2), Q(4), Q(7)]]
    elim = fr.rref(rows, 3, [Q(1), Q(3)])
    assert elim.pivots == (0, 2)
    assert elim.nullspace == [(Q(-2), Q(1), Q(0))]
    assert elim.solution == (Q(-2), Q(0), Q(1))
    assert elim.certificate is None
    elim = fr.rref(rows + [[Q(3), Q(6), Q(10)]], 3, [Q(1), Q(3), Q(5)])
    assert elim.solution is None
    assert elim.certificate == (Q(-1), Q(-1), Q(1))


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
            v = fr.evaluate(genus_term(ori, g), asg)
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
    sphere = vcompose([Gen2("cap"), Gen2("cup")], ori.data)
    torus = genus_term(ori, 1)
    both = tensor(sphere, torus)
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
    nostar = fr.FrobAlgebra(name="m2-nostar", dim=A.dim, mult=A.mult,
                            unit=A.unit, lam=A.lam, e=A.e)
    with pytest.raises(fr.AlgebraError):
        fr.standard_assignment(nostar, uno)


def test_klein_value_recorded(uno):
    """Closed non-orientable values are computed operationally (no oracle)."""
    from tests.test_surface import klein_term
    A = fr.algebra_qz2()
    asg = fr.standard_assignment(A, uno)
    v = fr.evaluate(klein_term(uno), asg)
    assert v.is_scalar  # value recorded, not asserted


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

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" \
    / "workloads.json"


def known_defect_terms(presentation):
    """Terms of the known evaluator defect listed with the benchmark."""
    doc = json.loads(WORKLOADS.read_text(encoding="utf-8"))
    return [tc.parse_two_cell(text, presentation.data)
            for d in doc["known_defects"]
            if d["presentation"] == "oriented"
            and d["error"][0] == "DiagramError"
            for text in d["terms"]]


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


def test_reference_relations(ori, uno):
    # every built-in algebra accepts both presentations
    for p in (ori, uno):
        for mk in ALGEBRAS.values():
            asg = fr.standard_assignment(mk(), p)
            for rel in p.relations:
                _assert_same(rel.lhs, asg)
                _assert_same(rel.rhs, asg)


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


def test_reference_known_defect_terms(ori):
    asg = fr.standard_assignment(fr.algebra_m2q(), ori)
    terms = known_defect_terms(ori)
    assert terms
    for t in terms:
        out = _assert_same(t, asg)
        assert out == (DiagramError, "component transfer is not a bijection")


# ---------------------------------------------------------------------------
# algebra files
# ---------------------------------------------------------------------------

def test_algebra_file_round_trip():
    for name, mk in ALGEBRAS.items():
        A = mk()
        text = fr.render_algebra_file(A)
        B = fr.parse_algebra_file(text, name=A.name)
        assert B.dim == A.dim
        assert B.mult == A.mult
        assert B.unit == A.unit
        assert B.lam == A.lam
        assert B.e == A.e
        assert B.star == A.star


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
    ]:
        with pytest.raises(fr.AlgebraError) as exc:
            fr.parse_algebra_file(text)
        assert str(exc.value) == message


def test_verify_unoriented_m2_with_transpose_star(uno):
    rep = fr.verify_presentation(fr.algebra_m2q(), uno)
    assert rep.ok, rep.failures()
