"""Reference algebra checks: dense plain loops over `mult`, `e` and `lam`.

A slow oracle for the sparse tables of `frobenius.FrobAlgebra`: `dense`
spells an algebra's tables out as the dense tuples that `mul`, `lam` and
`star` read (`maps` gives back the sparse maps it is built from), every
product here multiplies dense basis vectors entry by entry, and every
check scans its loops in order and stops at the first failure, whose
witness it names.
`rref` is the elimination that scans every row for each pivot, an oracle
for the column index of `frobenius.rref`.  Only tests use it.
"""

import itertools
from fractions import Fraction
from types import SimpleNamespace

Q = Fraction


def dense(A):
    """The dense view the loops below read: mult[i][j][k], unit[k],
    lam[k], e[i][j] and star[i][k] of the algebra A (None where A has no
    functional, copairing or star), with its name, dim and labels.  Every
    entry is a Fraction, whether A holds it as an int or not."""
    n = range(A.dim)

    def vec(terms):
        return tuple(Q(dict(terms).get(k, 0)) for k in n)

    e = {} if A.pairs is None else {(i, j): c for c, i, j in A.pairs}
    return SimpleNamespace(
        name=A.name, dim=A.dim, label=A.label, basis_names=A.basis_names,
        mult=tuple(tuple(vec(A.rows[i][j]) for j in n) for i in n),
        unit=vec(A.one.items()),
        lam=None if A.lam is None else vec(A.lam.items()),
        e=None if A.pairs is None else tuple(
            tuple(Q(e.get((i, j), 0)) for j in n) for i in n),
        star=None if A.stars is None else tuple(vec(s) for s in A.stars))


def maps(A):
    """Fresh copies of the sparse maps `mult`, `unit`, `lam`, `e` and
    `star` that `FrobAlgebra` builds A from, as keyword arguments."""
    return dict(
        mult={(i, j): dict(r) for i, row in enumerate(A.rows)
              for j, r in enumerate(row) if r},
        unit=dict(A.one), lam=None if A.lam is None else dict(A.lam),
        e=None if A.pairs is None else {(i, j): c for c, i, j in A.pairs},
        star=None if A.stars is None else dict(enumerate(map(dict, A.stars))))


def basis(A, i):
    return tuple(Q(1) if k == i else Q(0) for k in range(A.dim))


def mul(A, u, v):
    n = A.dim
    out = [Q(0)] * n
    for i in range(n):
        for j in range(n):
            if u[i] != 0 and v[j] != 0:
                for k in range(n):
                    out[k] += u[i] * v[j] * A.mult[i][j][k]
    return tuple(out)


def lam(A, v):
    return sum(A.lam[k] * v[k] for k in range(A.dim))


def star(A, v):
    n = A.dim
    out = [Q(0)] * n
    for i in range(n):
        for k in range(n):
            out[k] += v[i] * A.star[i][k]
    return tuple(out)


def _copairing_defect(A, left, right):
    """sum e_ij (left(x_i) (x) x_j - x_i (x) right(x_j)), dense n*n."""
    n = A.dim
    out = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if A.e[i][j] == 0:
                continue
            x, y = basis(A, i), basis(A, j)
            lx, ry = left(x), right(y)
            for a in range(n):
                for b in range(n):
                    out[a][b] += A.e[i][j] * (lx[a] * y[b] - x[a] * ry[b])
    return out


def _nonzero(matrix):
    return any(c != 0 for row in matrix for c in row)


def _first(candidates, fails):
    """The first candidate in loop order for which `fails` holds."""
    for cand in candidates:
        if fails(*cand):
            return cand
    return None


def checks(A):
    """[(name, ok, detail)] of check_symmetric; check_algebra gives the
    first two entries and check_frobenius the first six."""
    A = dense(A)
    n = A.dim
    out = []
    x = [basis(A, i) for i in range(n)]

    def grid(k):
        return itertools.product(range(n), repeat=k)

    bad = _first(grid(3), lambda i, j, k: mul(A, mul(A, x[i], x[j]), x[k])
                 != mul(A, x[i], mul(A, x[j], x[k])))
    out.append(("associative", bad is None,
                "(%d,%d,%d)" % bad if bad else ""))
    out.append(("unital", all(mul(A, A.unit, x[i]) == x[i]
                              and mul(A, x[i], A.unit) == x[i]
                              for i in range(n)), ""))
    bad = _first(grid(1), lambda k: _nonzero(_copairing_defect(
        A, lambda v: mul(A, x[k], v), lambda v: mul(A, v, x[k]))))
    out.append(("e-central", bad is None,
                "w=%s" % A.label(bad[0]) if bad else ""))
    left, right = [Q(0)] * n, [Q(0)] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left[k] += A.e[i][j] * lam(A, x[i]) * x[j][k]
                right[k] += A.e[i][j] * x[i][k] * lam(A, x[j])
    out.append(("normalization-left", tuple(left) == A.unit, ""))
    out.append(("normalization-right", tuple(right) == A.unit, ""))
    snake_ok = True
    for k in range(n):
        s1, s2 = [Q(0)] * n, [Q(0)] * n
        for i in range(n):
            for j in range(n):
                b1 = lam(A, mul(A, x[j], x[k]))
                b2 = lam(A, mul(A, x[k], x[i]))
                for t in range(n):
                    s1[t] += A.e[i][j] * x[i][t] * b1
                    s2[t] += A.e[i][j] * x[j][t] * b2
        if tuple(s1) != x[k] or tuple(s2) != x[k]:
            snake_ok = False
            break
    out.append(("snake", snake_ok, ""))
    bad = _first(grid(2), lambda i, j: lam(A, mul(A, x[i], x[j]))
                 != lam(A, mul(A, x[j], x[i])))
    out.append(("trace-like", bad is None,
                "(%s,%s)" % (A.label(bad[0]), A.label(bad[1]))
                if bad else ""))
    bad = _first(grid(2), lambda w, z: _nonzero(_copairing_defect(
        A, lambda v: mul(A, mul(A, x[w], v), x[z]),
        lambda v: mul(A, mul(A, x[z], v), x[w]))))
    out.append(("e-bicentral", bad is None, ""))
    if A.star is not None:
        out.append(("star-involution", all(star(A, star(A, x[i])) == x[i]
                                           for i in range(n)), ""))
        out.append(("star-antihom", all(
            star(A, mul(A, x[i], x[j])) == mul(A, star(A, x[j]),
                                               star(A, x[i]))
            for i, j in grid(2)), ""))
    return out


def separability_system(A):
    """(rows, rhs) over the coordinates z_ij of z in A (x) A: z central
    (nonzero rows only) and mu(z) = 1."""
    A = dense(A)
    n = A.dim
    x = [basis(A, i) for i in range(n)]
    prod = [[mul(A, x[i], x[j]) for j in range(n)] for i in range(n)]
    rows, rhs = [], []
    for k in range(n):
        for a in range(n):
            for b in range(n):
                # (w x_i)_a (x_j)_b - (x_i)_a (x_j w)_b, where the basis
                # coordinate (x_j)_b is 1 if j = b and 0 otherwise
                row = []
                for i in range(n):
                    for j in range(n):
                        row.append((prod[k][i][a] if j == b else 0)
                                   - (prod[j][k][b] if i == a else 0))
                if any(c != 0 for c in row):
                    rows.append(row)
                    rhs.append(Q(0))
    for a in range(n):
        rows.append([prod[i][j][a] for i in range(n) for j in range(n)])
        rhs.append(A.unit[a])
    return rows, rhs


def is_separability_idempotent(A, z):
    """z (an n*n matrix) is central in A (x) A and mu(z) = 1."""
    A = dense(A)
    n = A.dim
    x = [basis(A, i) for i in range(n)]
    for k in range(n):
        out = [[Q(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if z[i][j] == 0:
                    continue   # adds zero
                wx = mul(A, x[k], x[i])
                yw = mul(A, x[j], x[k])
                for a in range(n):
                    for b in range(n):
                        out[a][b] += z[i][j] * (wx[a] * x[j][b]
                                                - x[i][a] * yw[b])
        if _nonzero(out):
            return False
    total = [Q(0)] * n
    for i in range(n):
        for j in range(n):
            if z[i][j] == 0:
                continue
            prod = mul(A, x[i], x[j])
            for k in range(n):
                total[k] += z[i][j] * prod[k]
    return tuple(total) == A.unit


def rref(rows, n, rhs=None):
    """(pivots, nullspace, solution, certificate) of `frobenius.rref` on
    the same sparse system, by Gauss-Jordan elimination that looks up the
    pivot column in every row for each pivot."""
    m = len(rows)

    def eliminate(block):
        aug = []
        for i, row in enumerate(rows):
            r = {k: x for k, x in row.items() if x}
            if rhs is not None and rhs[i]:
                r[n] = rhs[i]
            if block:
                r[n + 1 + i] = Q(1)
            aug.append(r)
        pivots = []
        for c in range(n):
            r = len(pivots)
            if r == m:
                break
            p = next((i for i in range(r, m) if c in aug[i]), None)
            if p is None:
                continue
            aug[r], aug[p] = aug[p], aug[r]
            pv = aug[r][c]
            prow = aug[r] = {k: x / pv for k, x in aug[r].items()}
            for i in range(m):
                f = aug[i].get(c) if i != r else None
                if f:
                    row = aug[i]
                    for k, x in prow.items():
                        y = row.get(k, 0) - f * x
                        if y:
                            row[k] = y
                        else:
                            del row[k]
            pivots.append(c)
        return aug, pivots

    aug, pivots = eliminate(False)
    nullspace = [{c: Q(1), **{pc: -aug[i][c] for i, pc in enumerate(pivots)
                              if c in aug[i]}}
                 for c in range(n) if c not in pivots]
    if any(aug[len(pivots):]):
        aug, _ = eliminate(True)
        row = next(r for r in aug[len(pivots):] if n in r)
        cert = {k - n - 1: x / row[n] for k, x in row.items() if k > n}
        return tuple(pivots), nullspace, None, cert
    sol = {c: aug[i][n] for i, c in enumerate(pivots) if n in aug[i]}
    return tuple(pivots), nullspace, sol, None
