"""The sparse algebra tables against the dense reference checks.

The sparse product, every check `Report` (names, order, ok flags and
witnesses) and the separability system are compared with
`tests/reference_frobenius.py` on every built-in algebra and on seeded
one-entry perturbations of each; every separability witness and
certificate is checked by its defining equations, and `rref` is compared
with the row-scanning elimination on seeded random systems, as drawn and
with int entries.  Every reported value on the corpus is a Fraction,
though the tables of an integral algebra hold ints.  On the same corpus,
the oriented relations decide the algebra: they all hold exactly when the
algebra is separable symmetric Frobenius.
"""

import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction as Q

import pytest

from bordcalc import frobenius as fr
from bordcalc import presentations as pr
from tests import reference_frobenius as ref

VALUES = (Q(0), Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 2))


def perturbations(A, rng, count):
    """`count` copies of A, each with one mult, unit, lambda, e or star
    entry set to a value from VALUES: mult (i, j, k) is the coefficient of
    basis_k in basis_i . basis_j and star (i, k) that of basis_k in
    star(basis_i)."""
    n = A.dim
    shapes = [("mult", 3), ("unit", 1), ("lam", 1), ("e", 2), ("star", 2)]
    out = []
    for _ in range(count):
        name, depth = rng.choice(shapes)
        index = tuple(rng.randrange(n) for _ in range(depth))
        value = rng.choice(VALUES)
        fields = ref.maps(A)
        if name == "mult":
            fields[name].setdefault(index[:2], {})[index[2]] = value
        elif name == "star":
            fields[name].setdefault(index[0], {})[index[1]] = value
        else:
            fields[name][index if name == "e" else index[0]] = value
        out.append(fr.FrobAlgebra(name=A.name, dim=n,
                                  basis_names=A.basis_names, **fields))
    return out


def corpus():
    """(label, algebra): every built-in algebra and 12 perturbations of
    each, seeded by the algebra's position."""
    for seed, (name, make) in enumerate(sorted(fr.BUILTIN_ALGEBRAS.items())):
        A = make()
        yield name, A
        for k, B in enumerate(perturbations(A, random.Random(seed), 12)):
            yield "%s~%d" % (name, k), B


CORPUS = list(corpus())


def test_corpus_is_the_dense_corpus_it_was():
    # the dense view of every corpus algebra, pinned, so that a change in
    # how algebras are built cannot change what the corpus checks
    digest = hashlib.sha256()
    for label, A in CORPUS:
        D = ref.dense(A)
        digest.update(repr((label, D.name, D.dim, D.mult, D.unit, D.lam, D.e,
                            D.star, D.basis_names)).encode())
    assert digest.hexdigest() == ("3c829acf654cc217c241fb7e079cc89d"
                                  "8959488dde158a5cb7f5d7ec3d02a2de")


def _sparse(v):
    return {i: c for i, c in enumerate(v) if c}


def _dense(v, n):
    return tuple(v.get(i, Q(0)) for i in range(n))


def test_mul_matches_reference():
    rng = random.Random(7)
    for label, A in CORPUS:
        D = ref.dense(A)
        for _ in range(10):
            u, v = ([rng.choice(VALUES + (Q(0),) * 3) for _ in range(A.dim)]
                    for _ in range(2))
            prod = fr._prod(A, _sparse(u), _sparse(v))
            assert _dense(prod, A.dim) == ref.mul(D, u, v), (label, u, v)


def test_reports_match_reference():
    for label, A in CORPUS:
        expected = ref.checks(A)
        assert fr.check_algebra(A).checks == expected[:2], label
        assert fr.check_frobenius(A).checks == expected[:6], label
        assert fr.check_symmetric(A).checks == expected, label


def test_e_bicentral_verdict_matches_the_full_scan():
    """`check_symmetric` tests only the pairs (w, z) that can fail; its
    verdict is that of the defect on every basis pair."""
    verdicts = set()
    for label, A in CORPUS:
        e = [{i: 1} for i in range(A.dim)]
        full = not any(fr._e_central_defect(
            A, lambda i: fr._prod(A, dict(A.rows[w][i]), e[z]),
            lambda j: fr._prod(A, dict(A.rows[z][j]), e[w]))
            for w, z in itertools.product(range(A.dim), repeat=2))
        checks = {name: ok for name, ok, _ in fr.check_symmetric(A).checks}
        assert checks["e-bicentral"] == full, label
        verdicts.add(full)
    assert len(CORPUS) == 65 and verdicts == {True, False}


def test_e_bicentral_scan_is_linear_on_a_diagonal_algebra(monkeypatch):
    """On a diagonal algebra only the pairs (w, w) can fail: the defect is
    computed once per basis element for e-central and once for
    e-bicentral, not for all dim^2 pairs."""
    n = 200
    A = fr.FrobAlgebra("diag", n, {(i, i): {i: 1} for i in range(n)},
                       {i: 1 for i in range(n)}, lam={i: 1 for i in range(n)},
                       e={(i, i): 1 for i in range(n)})
    calls = []
    defect = fr._e_central_defect
    monkeypatch.setattr(fr, "_e_central_defect",
                        lambda *args: calls.append(1) or defect(*args))
    assert fr.check_symmetric(A).ok
    assert len(calls) <= 2 * n


def test_separability_system_and_results():
    for label, A in CORPUS:
        rows, rhs = fr._separability_system(A)
        assert ([list(_dense(r, A.dim ** 2)) for r in rows], list(rhs)) \
            == ref.separability_system(A), label
        res = fr.check_separable(A)
        if res.separable:
            assert ref.is_separability_idempotent(A, res.witness), label
            continue
        y = res.certificate
        assert len(y) == len(rows), label
        assert all(sum(yi * row.get(c, 0) for yi, row in zip(y, rows)) == 0
                   for c in range(A.dim ** 2)), label
        assert sum(yi * b for yi, b in zip(y, rhs)) != 0, label


def _random_system(rng):
    """A seeded sparse system (rows, n, rhs): small integer entries, about
    a third of them nonzero, and an rhs that is absent, zero or random."""
    m, n = rng.randint(1, 9), rng.randint(1, 9)
    rows = [{c: Q(rng.randint(-3, 3)) for c in range(n) if rng.random() < 0.35}
            for _ in range(m)]
    rhs = rng.choice([None, [Q(0)] * m,
                      [Q(rng.randint(-2, 2)) for _ in range(m)]])
    return rows, n, rhs


def _all_fractions(values):
    return all(isinstance(x, Q) for x in values)


def test_rref_matches_the_row_scanning_elimination():
    """Each seeded system is solved twice: as drawn, and with every entry
    an int, as an integral algebra's tables hold it.  rref divides by a
    Fraction, so no float reaches its results either way."""
    rng = random.Random(17)
    outcomes = set()
    for _ in range(600):
        rows, n, rhs = _random_system(rng)
        expected = ref.rref(rows, n, rhs)
        ints = ([{c: int(x) for c, x in r.items()} for r in rows],
                None if rhs is None else [int(b) for b in rhs])
        for rows_, rhs_ in ((rows, rhs), ints):
            elim = fr.rref(rows_, n, rhs_)
            assert (elim.pivots, elim.nullspace, elim.solution,
                    elim.certificate) == expected, (rows_, rhs_)
            assert _all_fractions(x for v in elim.nullspace + [
                elim.solution or {}, elim.certificate or {}]
                for x in v.values()), (rows_, rhs_)
        outcomes.add(elim.solution is not None)
    assert outcomes == {True, False}


def test_reported_values_are_fractions():
    """The tables of an integral algebra hold ints, but every value
    `frobenius` reports is a Fraction: the separability witness and
    certificate, center, cocenter, circle maps, closed values and
    evaluated matrices, on every algebra of the corpus."""
    ori = pr.bord2_oriented()
    circles = evaluated = 0
    for label, A in CORPUS:
        res, cc = fr.check_separable(A), fr.cocenter(A)
        reported = [res.witness or (), (res.certificate or (),),
                    fr.center(A), cc.reps, cc.project]
        if A.pairs is not None:
            try:
                cm = fr.circle_maps(A)
            except fr.AlgebraError:
                pass    # a perturbed algebra's u may leave the center
            else:
                circles += 1
                reported += [cm.center_basis, cm.u, cm.v, cm.cocenter.reps,
                             cm.cocenter.project]
            if A.lam is not None:
                reported.append([[fr.closed_value(A, g) for g in range(4)]])
        if fr.check_algebra(A).ok and A.lam is not None and A.pairs:
            asg = fr.Assignment(A, ori, cusp_factor=A.one)
            for rel in ori.relations:
                reported += [fr.evaluate(rel.lhs, asg).matrix,
                             fr.evaluate(rel.rhs, asg).matrix]
                evaluated += 2
        assert _all_fractions(x for rows in reported for row in rows
                              for x in row), label
    assert circles >= len(fr.BUILTIN_ALGEBRAS) and evaluated > 0


def matrix_algebra(m):
    """M_m(Q) on its matrix units, E_ab at index a*m + b: E_ab E_cd is
    E_ad when b = c and zero otherwise, and the unit is sum_a E_aa.  Only
    the product and the unit are given."""
    n = m * m
    return fr.FrobAlgebra(
        name="M%dQ" % m, dim=n,
        mult={(i, j): {i // m * m + j % m: 1} for i in range(n)
              for j in range(n) if i % m == j // m},
        unit={a * m + a: 1 for a in range(m)})


@pytest.mark.parametrize("m", [3, 4])
def test_separability_on_matrix_algebras(m):
    A = matrix_algebra(m)
    rows, rhs = fr._separability_system(A)
    assert ([list(_dense(r, A.dim ** 2)) for r in rows], list(rhs)) \
        == ref.separability_system(A)
    res = fr.check_separable(A)
    assert res.separable and ref.is_separability_idempotent(A, res.witness)


def test_separability_system_memory_on_m5():
    # sparse rows: about 2 MB at its peak, where rows widened to all 625
    # columns of M_5(Q) (x) M_5(Q) took 27.5 MB
    A = matrix_algebra(5)
    tracemalloc.start()
    try:
        fr._separability_system(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


def test_corpus_exercises_every_outcome():
    """The perturbations fail each check at least once and keep some
    algebras separable and some not."""
    failed = {name for _, A in CORPUS
              for name, ok, _ in fr.check_symmetric(A).checks if not ok}
    assert failed >= {"associative", "unital", "e-central",
                      "normalization-left", "normalization-right", "snake",
                      "trace-like", "e-bicentral", "star-involution",
                      "star-antihom"}
    seps = {fr.check_separable(A).separable for _, A in CORPUS}
    assert seps == {True, False}


STAR_CHECKS = ("star-involution", "star-antihom")


def test_oriented_relations_decide_the_algebra():
    """The classification's converse, on every associative, unital algebra
    of the corpus: with an assignment built directly (the cusp factor
    chosen as `standard_assignment` chooses it), no oriented relation
    fails exactly when the algebra is separable and passes every
    symmetric Frobenius check.  The star checks are left out: no oriented
    relation reads `star`, so a perturbed star breaks no relation."""
    ori = pr.bord2_oriented()
    verdicts, star_only = [], []
    for label, A in CORPUS:
        if not fr.check_algebra(A).ok:
            continue    # an object of Alg is an associative, unital algebra
        sep = fr.check_separable(A).separable
        asg = fr.Assignment(A, ori, cusp_factor=A.one if sep
                            else A.handle_element())
        failing = [rel.name for rel in ori.relations
                   if fr.evaluate(rel.lhs, asg) != fr.evaluate(rel.rhs, asg)]
        checks = fr.check_symmetric(A).failures()
        axioms = sep and not [c for c in checks if c not in STAR_CHECKS]
        assert (not failing) == axioms, (label, failing, checks, sep)
        verdicts.append(axioms)
        if axioms and checks:
            star_only.append(label)
    assert len(verdicts) == 39 and verdicts.count(True) == 17
    assert star_only == ["M2Q~1", "M2Q~8", "Q~6", "QZ2~10"]
