"""Reference algebra checks: dense plain loops over `mult`, `e` and `lam`.

A slow oracle for the sparse tables of `frobenius.FrobAlgebra`: every
product here multiplies dense basis vectors entry by entry, and every
check scans its loops in order and stops at the first failure, whose
witness it names.  Only tests use it.
"""

import itertools
from fractions import Fraction

Q = Fraction


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
