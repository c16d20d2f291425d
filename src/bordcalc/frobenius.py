"""Exact algebraic semantics: Frobenius algebras and term evaluation.

Algebras are finite dimensional over the rationals, given by structure
constants.  Inside this module a vector is a sparse map {index:
coefficient} without zeros: a `FrobAlgebra` is built from sparse maps and
holds each structure map once, as a sparse table, all arithmetic and
elimination runs on sparse vectors, and dense tuples are only the
reported results (`TwoCellValue.matrix`, the separability witness and
certificate, `center`, `Cocenter`, `CircleMaps` and `closed_value`).
Integral constants are held as `int`, so the tables, the checks, the
local maps and the evaluator's state of an integral algebra are integer
arithmetic; `Fraction` appears where `rref` divides and in every entry of
a reported result, and mixed `int`/`Fraction` arithmetic keeps a rational
algebra exact on the same code.  The checkers verify associativity, the
Frobenius data (a central copairing and a functional with the
reproducing normalization), symmetry (trace-likeness / bicentrality) and
separability (existence of a central element with multiplication one,
decided by an exact linear system); each failing check names its first
failing witness in loop order.  `evaluate` gives the exact linear map of
a two-cell term between the tensor spaces of its boundary 1-manifolds,
one factor per component.  Its movie of strand events is compiled once
per presentation into an algebra-free program, memoised on the term:
structural, cusp and crossing cells keep the component ids, and each
generator event names its local map in `_LOCAL` by its tag and the
numbers of components it consumes and produces.  The program is played
per assignment (births insert the unit, deaths apply the functional, the
saddles insert the copairing or multiply, cusps multiply by the cusp
factor), so `verify_presentation` reuses its relation sides' programs.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence

from . import termcore as tc
from ._diagram import ComponentListener, comp_order, run_movie
from .presentations import Presentation


class AlgebraError(Exception):
    pass


Q = Fraction


def _acc(terms):
    """The sparse vector {key: coefficient} summing (key, coefficient)
    terms, zeros dropped."""
    out = {}
    for key, c in terms:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _densify(v, n):
    """The dense tuple of the sparse vector v, for a reported result."""
    return tuple(v.get(i, Q(0)) for i in range(n))


def _transpose(columns, n):
    """Sparse rows 0..n-1 of the matrix with the given sparse columns."""
    rows = [{} for _ in range(n)]
    for j, col in enumerate(columns):
        for a, c in col.items():
            rows[a][j] = c
    return rows


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Elimination:
    """Reduced row echelon data of the exact system rows . x = rhs.

    Exactly one of `solution` (free variables set to zero) and
    `certificate` (a Farkas vector y with y.rows = 0 and y.rhs != 0, keyed
    by row) is set.  Every vector is sparse.
    """

    pivots: tuple              # pivot column of each nonzero row, ascending
    nullspace: list            # basis of {x : rows . x = 0}, per free column
    solution: Optional[dict]
    certificate: Optional[dict]


def rref(rows: List[dict], n: int,
         rhs: Optional[Sequence[Fraction]] = None) -> Elimination:
    """Gauss-Jordan elimination over Q of sparse rows {column:
    coefficient} over columns 0..n-1 (rhs, one entry per row, default 0).

    The rhs is eliminated in column n.  The certificate is built on
    demand: only an inconsistent system is eliminated once more, each row
    carrying in columns n+1.. the combination of input rows it is, and a
    zero row with nonzero rhs reads it off.  `holders[c]` is the set of
    rows with a nonzero in column c < n, so each pivot touches only the
    rows it clears; the pivot row is the lowest of them not yet a pivot.
    """
    m = len(rows)

    def eliminate(block):
        aug = []
        holders = [set() for _ in range(n)]
        for i, row in enumerate(rows):
            r = {k: x for k, x in row.items() if x}
            if rhs is not None and rhs[i]:
                r[n] = rhs[i]
            if block:
                r[n + 1 + i] = 1
            aug.append(r)
            for k in r:
                if k < n:
                    holders[k].add(i)
        pivots = []
        for c in range(n):
            r = len(pivots)
            if r == m:
                break
            p = min((i for i in holders[c] if i >= r), default=None)
            if p is None:
                continue
            # a column both rows hold keeps its holders
            for k in aug[r].keys() - aug[p].keys():
                if k < n:
                    holders[k].remove(r)
                    holders[k].add(p)
            for k in aug[p].keys() - aug[r].keys():
                if k < n:
                    holders[k].remove(p)
                    holders[k].add(r)
            aug[r], aug[p] = aug[p], aug[r]
            # a Fraction divisor: int / int would be a float
            pv = Q(aug[r][c])
            prow = aug[r] = {k: x / pv for k, x in aug[r].items()}
            for i in [i for i in holders[c] if i != r]:
                f = aug[i][c]
                row = aug[i]
                for k, x in prow.items():
                    y = row.get(k, 0) - f * x
                    if y:
                        if k < n and k not in row:
                            holders[k].add(i)
                        row[k] = y
                    else:
                        del row[k]
                        if k < n:
                            holders[k].remove(i)
            pivots.append(c)
        return aug, pivots

    aug, pivots = eliminate(False)
    # one vector per free column c: x_c = 1, and each pivot row solved
    nullspace = [{c: Q(1), **{pc: -aug[i][c] for i, pc in enumerate(pivots)
                              if c in aug[i]}}
                 for c in range(n) if c not in pivots]
    # past the pivots only the rhs column can be left nonzero
    if any(aug[len(pivots):]):
        aug, _ = eliminate(True)
        row = next(r for r in aug[len(pivots):] if n in r)
        y = Q(row[n])
        cert = {k - n - 1: x / y for k, x in row.items() if k > n}
        return Elimination(tuple(pivots), nullspace, None, cert)
    sol = {c: aug[i][n] for i, c in enumerate(pivots) if n in aug[i]}
    return Elimination(tuple(pivots), nullspace, sol, None)


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

def _exact(c):
    """c as an int when it is integral, else as a Fraction."""
    c = Q(c)
    return c.numerator if c.denominator == 1 else c


def _terms(v):
    """The nonzero (k, c) of the sparse map v {k: c}, ascending in k, each
    c exact."""
    return tuple((k, _exact(c)) for k, c in sorted(v.items()) if c)


@dataclass(frozen=True, init=False)
class FrobAlgebra:
    """Finite-dimensional rational algebra with optional Frobenius data,
    held as the sparse tables of its structure maps.

    It is built from sparse maps whose absent entries are zero: `mult`
    maps (i, j) to basis_i . basis_j as {k: c}; `unit` and `lam` (the
    functional) are {k: c}; `e` maps (i, j) to the coefficient of basis_i
    (x) basis_j in the copairing; `star`, an optional involutive
    anti-automorphism, maps i to star(basis_i) as {k: c}.

    Each field holds its table once, zeros dropped and indices ascending,
    each coefficient an int when it is integral and a Fraction otherwise:
    rows[i][j] lists the (k, c) of basis_i . basis_j, `one` is the unit
    and `lam` the functional as {k: c} (None without one), `pairs` lists
    the (c, i, j) of the copairing (None without one) and stars[i] the
    (k, c) of star(basis_i) (None without a star).
    """

    name: str
    dim: int
    rows: tuple
    one: dict
    lam: Optional[dict]
    pairs: Optional[tuple]
    stars: Optional[tuple]
    basis_names: Optional[tuple]

    def __init__(self, name, dim, mult, unit, lam=None, e=None, star=None,
                 basis_names=None):
        rows = [[()] * dim for _ in range(dim)]
        for (i, j), v in mult.items():
            rows[i][j] = _terms(v)
        for key, value in dict(
                name=name, dim=dim, rows=tuple(map(tuple, rows)),
                one=dict(_terms(unit)),
                lam=None if lam is None else dict(_terms(lam)),
                pairs=None if e is None else tuple(
                    (_exact(c), i, j) for (i, j), c in sorted(e.items()) if c),
                stars=None if star is None else tuple(
                    _terms(star.get(i, {})) for i in range(dim)),
                basis_names=basis_names).items():
            object.__setattr__(self, key, value)

    def handle_element(self):
        """sum_ij e_ij basis_i . basis_j, as a sparse vector."""
        return _acc((k, c * d) for c, i, j in _copairing(self)
                    for k, d in self.rows[i][j])

    def label(self, i):
        if self.basis_names:
            return self.basis_names[i]
        return "b%d" % i


def _functional(A):
    if A.lam is None:
        raise AlgebraError("algebra %s has no functional" % A.name)
    return A.lam


def _copairing(A):
    if A.pairs is None:
        raise AlgebraError("algebra %s has no copairing" % A.name)
    return A.pairs


def _prod(A, u, v):
    """u . v for sparse vectors {index: coefficient}."""
    return _acc((k, a * b * c) for i, a in u.items() for j, b in v.items()
                for k, c in A.rows[i][j])


def _lam(A, v):
    lam = _functional(A)
    return sum((lam.get(k, 0) * c for k, c in v.items()), Q(0))


def _star(A, v):
    if A.stars is None:
        raise AlgebraError("algebra %s has no star structure" % A.name)
    return _acc((m, c * s) for k, c in v.items() for m, s in A.stars[k])


def _trace_form(A, lam):
    """form[a][b] = lam(basis_a . basis_b)."""
    n = range(A.dim)
    return [[sum(lam.get(k, 0) * c for k, c in A.rows[a][b]) for b in n]
            for a in n]


def _commutator(A, i, j):
    """[basis_i, basis_j] as a sparse vector."""
    return _acc(itertools.chain(A.rows[i][j],
                                ((k, -c) for k, c in A.rows[j][i])))


# -- reports ----------------------------------------------------------------

@dataclass
class Report:
    checks: List[tuple] = field(default_factory=list)

    def add(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [n for n, ok, _ in self.checks if not ok]

    def __str__(self):
        return "\n".join("%s %s%s" % ("PASS" if ok else "FAIL", n,
                                      (" (%s)" % d) if d and not ok else "")
                         for n, ok, d in self.checks)


def _first(candidates, fails):
    """The first candidate tuple, in loop order, on which `fails` holds."""
    return next((t for t in candidates if fails(*t)), None)


def _grid(n, k):
    return itertools.product(range(n), repeat=k)


def check_algebra(A: FrobAlgebra) -> Report:
    rep = Report()
    n = A.dim
    e = [{i: 1} for i in range(n)]
    # a triple cannot fail if basis_i.basis_j = 0 = basis_j.basis_k
    right = [[k for k in range(n) if A.rows[j][k]] for j in range(n)]
    triples = ((i, j, k) for i, j in _grid(n, 2)
               for k in (range(n) if A.rows[i][j] else right[j]))
    bad = _first(triples, lambda i, j, k: (
        _prod(A, _prod(A, e[i], e[j]), e[k])
        != _prod(A, e[i], _prod(A, e[j], e[k]))))
    rep.add("associative", bad is None, "(%d,%d,%d)" % bad if bad else "")
    rep.add("unital", all(
        _prod(A, A.one, e[i]) == e[i] == _prod(A, e[i], A.one)
        for i in range(n)))
    return rep


def _e_central_defect(A, left, right):
    """sum left(x_i)(x)y_i - x_i(x)right(y_i) over the copairing, as a
    sparse tensor {(a, b): coefficient}; left and right map a basis index
    to a sparse vector."""
    pairs = _copairing(A)
    return _acc(itertools.chain(
        (((a, j), c * d) for c, i, j in pairs for a, d in left(i).items()),
        (((i, b), -c * d) for c, i, j in pairs for b, d in right(j).items())))


def check_frobenius(A: FrobAlgebra) -> Report:
    rep = check_algebra(A)
    n = A.dim
    bad = _first(_grid(n, 1), lambda w: _e_central_defect(
        A, lambda i: dict(A.rows[w][i]), lambda j: dict(A.rows[j][w])))
    rep.add("e-central", bad is None, "w=%s" % A.label(*bad) if bad else "")
    pairs = _copairing(A)
    # the functional is read only through the copairing: a zero one needs none
    lam = _functional(A) if pairs else {}
    rep.add("normalization-left",
            _acc((j, c * lam.get(i, 0)) for c, i, j in pairs) == A.one)
    rep.add("normalization-right",
            _acc((i, c * lam.get(j, 0)) for c, i, j in pairs) == A.one)
    # (id (x) b)(e (x) id): v -> sum x_i b(y_i, v), and its mirror
    form = _trace_form(A, lam)
    rep.add("snake", all(
        _acc((i, c * form[j][k]) for c, i, j in pairs) == {k: 1}
        == _acc((j, c * form[k][i]) for c, i, j in pairs) for k in range(n)))
    return rep


def check_symmetric(A: FrobAlgebra) -> Report:
    rep = check_frobenius(A)
    n = A.dim
    form = _trace_form(A, _functional(A))
    bad = _first(_grid(n, 2), lambda i, j: form[i][j] != form[j][i])
    rep.add("trace-like", bad is None,
            "(%s,%s)" % (A.label(bad[0]), A.label(bad[1])) if bad else "")
    e = [{i: 1} for i in range(n)]
    # (w, z) cannot fail unless (w.x_i).z or (z.y_j).w is nonzero for some
    # (c, i, j) of the copairing: `reach` holds each (u, v) for which
    # (basis_u.basis_x).basis_v may be nonzero, x an index of the copairing
    ends = {x for _, i, j in _copairing(A) for x in (i, j)}
    reach = {(u, v) for x in ends for u in range(n) for k, _ in A.rows[u][x]
             for v in range(n) if A.rows[k][v]}
    bad = _first(sorted(reach | {(z, w) for w, z in reach}),
                 lambda w, z: _e_central_defect(
                     A, lambda i: _prod(A, dict(A.rows[w][i]), e[z]),
                     lambda j: _prod(A, dict(A.rows[z][j]), e[w])))
    rep.add("e-bicentral", bad is None)
    if A.stars is not None:
        rep.add("star-involution", all(_star(A, _star(A, e[i])) == e[i]
                                       for i in range(n)))
        rep.add("star-antihom", all(
            _star(A, _prod(A, e[i], e[j]))
            == _prod(A, _star(A, e[j]), _star(A, e[i]))
            for i, j in _grid(n, 2)))
    return rep


@dataclass(frozen=True)
class SeparabilityResult:
    separable: bool
    witness: Optional[tuple] = None        # n*n matrix of the idempotent
    certificate: Optional[tuple] = None    # Farkas vector for infeasibility

    def __bool__(self):
        return self.separable


def _separability_system(A: FrobAlgebra):
    """(rows, rhs) over the n*n coordinates z_ij of z in A(x)A: z central
    and mu(z) = 1; each row is sparse, rhs has one entry per row."""
    n = A.dim
    rows = []
    # centrality: for each w_k and coordinate (a,b):
    #   sum_ij z_ij [ (w x_i)_a (x_j)_b - (x_i)_a (x_j w)_b ] = 0
    for k in range(n):
        coef = _acc(itertools.chain(
            (((a, b, i * n + b), d) for i in range(n)
             for a, d in A.rows[k][i] for b in range(n)),
            (((a, b, a * n + j), -d) for j in range(n)
             for b, d in A.rows[j][k] for a in range(n))))
        eqs = {}
        for (a, b, col), c in coef.items():
            eqs.setdefault((a, b), {})[col] = c
        rows += [eqs[ab] for ab in sorted(eqs)]
    rhs = [Q(0)] * len(rows) + list(_densify(A.one, n))
    # normalization: sum_ij z_ij (x_i x_j)_a = unit_a
    norm = [{} for _ in range(n)]
    for i, j in _grid(n, 2):
        for a, c in A.rows[i][j]:
            norm[a][i * n + j] = c
    return rows + norm, rhs


def check_separable(A: FrobAlgebra) -> SeparabilityResult:
    """Solve for a central element z in A(x)A with mu(z) = 1 exactly."""
    n = A.dim
    rows, rhs = _separability_system(A)
    elim = rref(rows, n * n, rhs)
    if elim.solution is None:
        return SeparabilityResult(False, None,
                                  _densify(elim.certificate, len(rows)))
    sol = elim.solution
    witness = tuple(tuple(sol.get(i * n + j, Q(0)) for j in range(n))
                    for i in range(n))
    return SeparabilityResult(True, witness, None)


# ---------------------------------------------------------------------------
# center, cocenter and the circle maps
# ---------------------------------------------------------------------------

def _center(A):
    """Sparse basis of z(A): the x with [basis_k, x] = 0 for every k."""
    n = A.dim
    return rref([r for k in range(n) for r in _transpose(
        [_commutator(A, k, i) for i in range(n)], n)], n).nullspace


def center(A: FrobAlgebra) -> List[tuple]:
    return [_densify(z, A.dim) for z in _center(A)]


@dataclass
class Cocenter:
    """Basis data of A/[A,A]: representatives and the projection matrix."""

    reps: List[tuple]          # representative vectors in A
    project: List[tuple]       # rows: quotient coords of each basis vector

    @property
    def dim(self):
        return len(self.reps)


def _cocenter(A):
    """(free columns, sparse projection rows, Cocenter) of A/[A,A]: basis_c
    of a free column c represents a class, and entry k of c's nullspace
    vector is the coordinate at c of basis_k reduced by the commutators."""
    n = A.dim
    elim = rref([c for c in (_commutator(A, i, j) for i, j in _grid(n, 2))
                 if c], n)
    free = [c for c in range(n) if c not in elim.pivots]
    return free, elim.nullspace, Cocenter(
        [_densify({c: Q(1)}, n) for c in free],
        [_densify(r, n) for r in elim.nullspace])


def cocenter(A: FrobAlgebra) -> Cocenter:
    return _cocenter(A)[2]


@dataclass
class CircleMaps:
    """u: A/[A,A] -> z(A) and v: z(A) -> A/[A,A], as exact matrices."""

    center_basis: List[tuple]
    cocenter: Cocenter
    u: List[tuple]     # columns: images of cocenter reps in center coords
    v: List[tuple]     # columns: images of center basis in cocenter coords
    mutually_inverse: bool


def _solve_h_inverse(A):
    H = A.handle_element()
    n = A.dim
    rows = _transpose([_prod(A, {j: 1}, H) for j in range(n)], n)
    sol = rref(rows, n, _densify(A.one, n)).solution
    if sol is None:
        return None
    # verify (H may be a zero divisor even when the system is solvable)
    if _prod(A, sol, H) != A.one or _prod(A, H, sol) != A.one:
        return None
    return sol


def _inverse_columns(f, g):
    """Whether the square matrices with columns f and g compose, g after
    f, to the identity."""
    d = len(f)
    return all(sum(f[i][j] * g[j][k] for j in range(d))
               == (1 if i == k else 0)
               for i in range(d) for k in range(d))


def circle_maps(A: FrobAlgebra) -> CircleMaps:
    zb = _center(A)
    free, project, cc = _cocenter(A)
    n = A.dim
    # u on cocenter representatives, in center coordinates
    rows = _transpose(zb, n)
    u_cols = []
    for rep in free:
        img = _acc(t for c, i, j in _copairing(A) for t in _prod(
            A, _prod(A, {i: c}, {rep: 1}), {j: 1}).items())
        sol = rref(rows, len(zb), _densify(img, n)).solution
        if sol is None:
            raise AlgebraError("u image left the center")
        u_cols.append(_densify(sol, len(zb)))
    hinv = _solve_h_inverse(A)
    v_cols = []
    for z in zb:
        w = _prod(A, hinv, z) if hinv is not None else z
        # a zero image sums nothing: start from Q(0), not the int 0
        v_cols.append(tuple(sum((r.get(k, 0) * c for k, c in w.items()), Q(0))
                            for r in project))
    inverse = (len(zb) == len(free) and _inverse_columns(u_cols, v_cols)
               and _inverse_columns(v_cols, u_cols))
    return CircleMaps([_densify(z, n) for z in zb], cc, u_cols, v_cols,
                      inverse)


def closed_value(A: FrobAlgebra, genus: int) -> Fraction:
    """lambda(H^genus): the closed surface oracle."""
    H = A.handle_element()
    acc = A.one
    for _ in range(genus):
        acc = _prod(A, acc, H)
    return _lam(A, acc)


# ---------------------------------------------------------------------------
# evaluation of two-cell terms
# ---------------------------------------------------------------------------

def _reroute(A, f, u, v):
    # two strands re-paired without fusing; the copairing is threaded
    # between the halves
    return [(c, (_prod(A, u, {i: 1}), _prod(A, {j: 1}, v)))
            for c, i, j in _copairing(A)]


def _fuse(A, f, u, v):
    # two components fuse into one: a pair of pants, whichever saddle
    return [(1, (_prod(A, u, v),))]


def _fission(A, f, v):
    # one component splits in two
    return [(c, (_prod(A, v, {i: 1}), {j: 1})) for c, i, j in _copairing(A)]


#: The local map of each generator event, keyed by (tag, distinct
#: components it consumes, distinct components it produces), on basis
#: vectors of the components it consumes: pure tensors (coefficient, one
#: sparse vector per component it produces).  A saddle (split: I_{pt pt}
#: to coev o ev; merge: the reverse) lists its old and new arcs in the
#: same order, so the components are taken in arc order.
_LOCAL = {
    # births insert the unit, deaths apply the functional
    ("cap", 0, 1): lambda A, f: [(1, (A.one,))],
    ("cup", 1, 0): lambda A, f, v: [(_lam(A, v), ())],
    ("cusp", 1, 1): lambda A, f, v: [(1, (_prod(A, v, f),))],
    ("split", 2, 2): _reroute,
    ("merge", 2, 2): _reroute,
    ("merge", 2, 1): _fuse,
    ("split", 2, 1): _fuse,
    ("split", 1, 2): _fission,
    ("merge", 1, 2): _fission,
    # non-orientable surgery: same component before and after
    ("merge", 1, 1): lambda A, f, v: [(1, (_star(A, v),))],
    ("split", 1, 1): lambda A, f, v: [
        (c, (_prod(A, _prod(A, {i: 1}, _star(A, v)), {j: 1}),))
        for c, i, j in _copairing(A)],
}


@dataclass
class Assignment:
    algebra: FrobAlgebra
    presentation: Presentation
    cusp_factor: dict          # sparse vector the cusp cells multiply by
    _local: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def local(self, op, idx):
        """Sparse image [(basis indices, coefficient)] of the basis tensor
        idx under the local map op, computed once per assignment; an
        integral coefficient is stored as an int."""
        key = (op, idx)
        if key not in self._local:
            out = []
            for c, pure in _LOCAL[op](self.algebra, self.cusp_factor,
                                      *({i: 1} for i in idx)):
                terms = [((), c)]
                for v in pure:
                    terms = [(t + (i,), a * x) for t, a in terms
                             for i, x in v.items()]
                out += terms
            self._local[key] = [(t, _exact(c)) for t, c in _acc(out).items()]
        return self._local[key]


def standard_assignment(A: FrobAlgebra, p: Presentation) -> Assignment:
    """The generator assignment: unit/functional disks, copairing saddle.

    Requires symmetric Frobenius data; the unoriented presentation also
    requires an involutive star anti-automorphism for its crossing cells.
    Cusp cells evaluate to multiplication by the trace of the best adjoint
    witness available: one for separable algebras (where a normalized
    central witness exists), the handle element otherwise, so that the
    cusp inversion relations hold exactly when the algebra is separable.
    """
    rep = check_symmetric(A)
    if not rep.ok:
        raise AlgebraError("algebra %s is not symmetric Frobenius: failed %s"
                           % (A.name, ", ".join(
                               n + (" (%s)" % d if d else "")
                               for n, ok, d in rep.checks if not ok)))
    if any(t == "sym" for t in p.two_gen_tags.values()) and A.stars is None:
        raise AlgebraError(
            "presentation %s needs a star structure on %s" % (p.name, A.name))
    sep = check_separable(A)
    factor = A.one if sep.separable else A.handle_element()
    return Assignment(A, p, cusp_factor=factor)




@dataclass
class TwoCellValue:
    """Exact matrix between the boundary tensor spaces of a term.

    Rows index the target space basis, columns the source space basis;
    each space is a tensor power of the algebra, one factor per connected
    component of the corresponding boundary 1-manifold.
    """

    source_components: int
    target_components: int
    dim: int = field(compare=False)
    matrix: tuple

    @property
    def is_scalar(self):
        return self.source_components == 0 and self.target_components == 0

    @property
    def scalar(self):
        return self.matrix[0][0]

    def render(self):
        if self.is_scalar:
            return str(self.scalar)
        return "\n".join(" ".join(str(x) for x in row) for row in self.matrix)


class _EvalListener(ComponentListener):
    """Records a term's component program, the part of evaluation that no
    algebra enters.

    `slots` lists the ids of the live components.  A rerouting event keeps
    the ids; a generator event with a `_LOCAL` map appends (its key, the
    positions of the slots it consumes, those of the slots it keeps) to
    `ops`, keeps those slots and appends the ones it produces.  `finish`
    sets `program` to (sources, ops, the slot of each target component in
    `comp_order`).
    """

    def __init__(self, presentation):
        self.tags = presentation.two_gen_tags

    def begin(self, state):
        super().begin(state)
        self.slots = comp_order(state, self.comp)
        self.sources = len(self.slots)
        self.ops = []

    def event(self, state, ev):
        cell = ev.cell
        tag = self.tags.get(cell.name) if isinstance(cell, tc.Gen2) else None
        # structural, cusp and crossing cells reroute strands
        old, new = self.follow(state, ev,
                               tag not in ("cap", "cup", "split", "merge"))
        op = (tag, len(set(old)), len(set(new)))
        if op in _LOCAL:
            pos = tuple(self.slots.index(c) for c in dict.fromkeys(old))
            keep = tuple(i for i in range(len(self.slots)) if i not in pos)
            self.slots = [self.slots[i] for i in keep]
            self.slots += dict.fromkeys(new)
            self.ops.append((op, pos, keep))

    def finish(self, state):
        slot_of = {cid: i for i, cid in enumerate(self.slots)}
        self.program = (self.sources, tuple(self.ops), tuple(
            slot_of[cid] for cid in comp_order(state, self.comp)))


def _compile(term, p):
    """The component program of `term` under presentation `p`, memoised
    as (p, program) in the term's `_program` once its movie has run; an
    invalid term raises `AlgebraError` and is given no memo."""
    memo = getattr(term, "_program", None)
    if memo is not None and memo[0] is p:
        return memo[1]
    report = tc.validate(term, p.data)
    if not report.ok:
        raise AlgebraError("invalid term:\n%s" % report)
    listener = _EvalListener(p)
    run_movie(report, p.data, listener)
    object.__setattr__(term, "_program", (p, listener.program))
    return listener.program


def _play(program, assignment):
    """The `TwoCellValue` of a component program under `assignment`, all
    source columns on one sparse state {(column, basis index of each
    slot): coefficient}, seeded with the int 1; each op maps the indices
    of the slots it consumes through its local map, and entries that land
    on the same key are summed."""
    sources, ops, order = program
    n = assignment.algebra.dim
    state = {(col, idx): 1 for col, idx in
             enumerate(itertools.product(range(n), repeat=sources))}
    for op, pos, keep in ops:
        out = {}
        for (col, idx), c in state.items():
            rest = tuple(idx[i] for i in keep)
            for tail, w in assignment.local(op, tuple(idx[i] for i in pos)):
                key = (col, rest + tail)
                out[key] = out.get(key, 0) + c * w
        state = {key: c for key, c in out.items() if c}
    matrix = [[Q(0)] * n ** sources for _ in range(n ** len(order))]
    for (col, idx), c in state.items():
        row = 0
        for i in order:
            row = row * n + idx[i]
        matrix[row][col] += c
    return TwoCellValue(sources, len(order), n,
                        tuple(tuple(r) for r in matrix))


def evaluate(term: tc.TwoCellTerm, assignment: Assignment) -> TwoCellValue:
    """Exact linear map of a two-cell term under a generator assignment."""
    return _play(_compile(term, assignment.presentation), assignment)


def verify_presentation(A: FrobAlgebra, p: Presentation) -> Report:
    """Exact matrix equality of both sides of every relation, one check
    per relation."""
    asg = standard_assignment(A, p)
    rep = Report()
    for rel in p.relations:
        rep.add(rel.name, evaluate(rel.lhs, asg) == evaluate(rel.rhs, asg))
    return rep


# ---------------------------------------------------------------------------
# built-in algebras and the algebra file format
# ---------------------------------------------------------------------------

def _identity(n):
    return {i: {i: 1} for i in range(n)}


def algebra_q() -> FrobAlgebra:
    return FrobAlgebra(
        name="Q", dim=1, mult={(0, 0): {0: 1}}, unit={0: 1}, lam={0: 1},
        e={(0, 0): 1}, star=_identity(1), basis_names=("1",))


def algebra_qq() -> FrobAlgebra:
    """Q x Q with coordinatewise product, lam = sum of coordinates."""
    return FrobAlgebra(
        name="QxQ", dim=2, mult={(0, 0): {0: 1}, (1, 1): {1: 1}},
        unit={0: 1, 1: 1}, lam={0: 1, 1: 1}, e={(0, 0): 1, (1, 1): 1},
        star=_identity(2), basis_names=("u1", "u2"))


def algebra_m2q() -> FrobAlgebra:
    """2x2 matrices with the trace form; basis E11, E12, E21, E22."""
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    return FrobAlgebra(
        name="M2Q", dim=4,
        mult={(i, j): {idx[a, d]: 1} for (a, b), i in idx.items()
              for (c, d), j in idx.items() if b == c},
        unit={0: 1, 3: 1}, lam={0: 1, 3: 1},
        e={(i, idx[b, a]): 1 for (a, b), i in idx.items()},
        star={i: {idx[b, a]: 1} for (a, b), i in idx.items()},   # transpose
        basis_names=("E11", "E12", "E21", "E22"))


def algebra_qz2() -> FrobAlgebra:
    """Group algebra Q[Z/2] = Q[s]/(s^2-1) with lam(a+bs) = a."""
    return FrobAlgebra(
        name="QZ2", dim=2,
        mult={(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
              (1, 1): {0: 1}},
        unit={0: 1}, lam={0: 1}, e={(0, 0): 1, (1, 1): 1},
        star=_identity(2), basis_names=("1", "s"))


def algebra_qx2() -> FrobAlgebra:
    """Q[x]/(x^2) with lam(a+bx) = b: symmetric Frobenius, not separable."""
    return FrobAlgebra(
        name="Qx2", dim=2,
        mult={(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        unit={0: 1}, lam={1: 1}, e={(0, 1): 1, (1, 0): 1},
        star=_identity(2), basis_names=("1", "x"))


BUILTIN_ALGEBRAS = {
    "Q": algebra_q,
    "QxQ": algebra_qq,
    "M2Q": algebra_m2q,
    "QZ2": algebra_qz2,
    "Qx2": algebra_qx2,
}


#: an `.alg` coefficient: an integer or p/q, and nothing else that
#: `Fraction` would read (decimals, underscores, exponents: `1e999999999`
#: would build a billion-digit integer before any check)
_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL.fullmatch(text):
        raise ValueError("invalid rational %r" % text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


#: an `.alg` dimension or 1-based index: an integer in ASCII digits, as
#: in `_RATIONAL`; `int` would also read underscores and other scripts'
#: digits (`1_0`, the Arabic-Indic `٢`), so a file could read differently
#: from how it looks
_INTEGER = re.compile(r"[+-]?\d+", re.ASCII)


def _integer(tok, what):
    if not _INTEGER.fullmatch(tok):
        raise ValueError("invalid %s %r" % (what, tok))
    return int(tok)


def _index(tok, dim):
    """The 0-based position of a 1-based `.alg` index, range-checked."""
    k = _integer(tok, "index")
    if not 1 <= k <= dim:
        raise ValueError("index %d out of range 1..%d" % (k, dim))
    return k - 1


def _fields(tok, form):
    """The fields of `.alg` token `tok` laid out as `form`, e.g. `i,j:q`."""
    m = re.fullmatch(re.sub(r"\w", "([^,:]*)", form), tok)
    if m is None:
        raise ValueError("expected %s, got %r" % (form, tok))
    return m.groups()


def _entries(toks, dim):
    """The sparse map {0-based index: rational} of `k:q` tokens; each
    index once."""
    out, seen = {}, set()
    for tok in toks:
        k, q = _fields(tok, "k:q")
        i = _index(k, dim)
        _once(seen, "index %d" % (i + 1))
        out[i] = parse_rational(q)
    return out


def _once(seen, directive):
    if directive in seen:
        raise ValueError("duplicate %s" % directive)
    seen.add(directive)


#: the form of each directive
_FORMS = {"dim": "dim n", "mult": "mult i j -> k:q ...",
          "unit": "unit k:q ...", "lambda": "lambda k:q ...",
          "e": "e i,j:q ...", "star": "star i -> k:q ..."}

#: the longest numeral of an `.alg` file (3.11+ `int` reads up to 4300)
MAX_DIGITS = 1000


def parse_algebra_file(text: str, name: str = "algebra") -> FrobAlgebra:
    """Parse the plain-text algebra format.

    Lines (1-based indices)::

        dim n
        mult i j -> k:q k:q ...
        unit k:q ...
        lambda k:q ...
        e i,j:q ...
        star i -> k:q ...

    Unlisted structure constants are zero; each directive (each `mult i j`
    and `star i` row) may appear once, and so may each index within one
    directive (each `i,j` within `e`).  Entries are collected as the sparse
    maps `FrobAlgebra` is built from, once the whole file is read; a file
    with fewer nonzero `mult` rows than `dim` is refused, since unit . b_i
    = b_i needs a nonzero row (j, i) for every i.
    """
    dim = unit = lam = e = star = None
    mult = {}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key != "dim" and dim is None:
                raise ValueError("dim must come first")
            if key in ("dim", "unit", "lambda", "e"):
                _once(seen, key)
            digits = max(map(len, re.findall("[0-9]+", line)), default=0)
            if key in _FORMS and digits > MAX_DIGITS:
                raise ValueError("expected %s, got a numeral of %d digits"
                                 % (_FORMS[key], digits))
            if key == "dim":
                dim = _integer(parts[1], "dim")
                if dim < 1:
                    raise ValueError("dim must be at least 1")
            elif key == "mult":
                i, j = _index(parts[1], dim), _index(parts[2], dim)
                _once(seen, "mult %d %d" % (i + 1, j + 1))
                if parts[3] != "->":
                    raise ValueError("expected ->")
                mult[i, j] = _entries(parts[4:], dim)
            elif key == "unit":
                unit = _entries(parts[1:], dim)
            elif key == "lambda":
                lam = _entries(parts[1:], dim)
            elif key == "e":
                e = {}
                for tok in parts[1:]:
                    i, j, q = _fields(tok, "i,j:q")
                    i, j = _index(i, dim), _index(j, dim)
                    _once(seen, "entry %d,%d" % (i + 1, j + 1))
                    e[i, j] = parse_rational(q)
            elif key == "star":
                if star is None:
                    star = {}
                i = _index(parts[1], dim)
                _once(seen, "star %d" % (i + 1))
                if parts[2] != "->":
                    raise ValueError("expected ->")
                star[i] = _entries(parts[3:], dim)
            else:
                raise ValueError("unknown directive %r" % key)
        except IndexError:
            raise AlgebraError("line %d: expected %s"
                               % (lineno, _FORMS[key])) from None
        except ValueError as exc:
            raise AlgebraError("line %d: %s" % (lineno, exc))
    if dim is None or unit is None:
        raise AlgebraError("missing dim or unit")
    rows = sum(1 for entries in mult.values() if any(entries.values()))
    if rows < dim:
        raise AlgebraError("dim %d needs at least %d nonzero mult rows for "
                           "a unit, found %d" % (dim, dim, rows))
    return FrobAlgebra(name=name, dim=dim, mult=mult, unit=unit, lam=lam,
                       e=e, star=star)
