"""Exact algebraic semantics: Frobenius algebras and term evaluation.

Algebras are finite dimensional over the rationals, given by structure
constants.  Each `FrobAlgebra` is frozen and derives, once, sparse tables
of its nonzero structure constants (`rows`) and copairing entries
(`pairs`); products, the checkers and the linear algebra below work on
sparse vectors {index: coefficient} over these tables, never on dense
zero arithmetic.  The checkers verify associativity, the Frobenius data
(a central copairing and a functional with the reproducing
normalization), symmetry (trace-likeness / bicentrality) and
separability (existence of a central element with multiplication one,
decided by an exact linear system); each failing check names its first
failing witness in loop order.  `evaluate` runs a two-cell term as a
movie of strand events and produces the exact linear map between the
tensor spaces of the boundary 1-manifolds: births insert the unit, deaths
apply the functional, the two saddles insert the copairing or multiply,
cusp and crossing cells reroute.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence

from . import termcore as tc
from ._diagram import (MovieListener, comp_order, run_movie,
                       transfer_components)
from .presentations import Presentation


class AlgebraError(Exception):
    pass


Q = Fraction


def _vec(n, entries=()):
    v = [Q(0)] * n
    for i, c in entries:
        v[i] += c
    return tuple(v)


def _acc(terms):
    """The sparse vector {key: coefficient} summing (key, coefficient)
    terms, zeros dropped."""
    out = {}
    for key, c in terms:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _sparse(v):
    return {i: c for i, c in enumerate(v) if c}


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Elimination:
    """Reduced row echelon data of the exact system rows . x = rhs.

    Exactly one of `solution` (free variables set to zero) and
    `certificate` (a Farkas vector y with y.rows = 0 and y.rhs != 0) is set.
    """

    pivots: tuple              # pivot column of each nonzero row, ascending
    nullspace: list            # basis of {x : rows . x = 0}, one per free column
    solution: Optional[tuple]
    certificate: Optional[tuple]


def rref(rows: List[Sequence[Fraction]], n: int,
         rhs: Optional[List[Fraction]] = None) -> Elimination:
    """Gauss-Jordan elimination over Q of rows of length n (rhs default 0).

    Rows are eliminated as sparse maps {column: coefficient} with the rhs
    in column n.  The certificate is built on demand: only an inconsistent
    system is eliminated once more, each row carrying in columns n+1.. the
    combination of input rows it is, and a zero row with nonzero rhs reads
    it off.
    """
    m = len(rows)
    if rhs is None:
        rhs = [Q(0)] * m

    def eliminate(block):
        aug = []
        for i, row in enumerate(rows):
            r = _sparse(row)
            if rhs[i]:
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
    nullspace = []
    for c in range(n):
        if c in pivots:
            continue
        v = [Q(0)] * n
        v[c] = Q(1)
        for i, pc in enumerate(pivots):
            v[pc] = -aug[i].get(c, Q(0))
        nullspace.append(tuple(v))
    # past the pivots only the rhs column can be left nonzero
    if any(aug[len(pivots):]):
        aug, _ = eliminate(True)
        row = next(r for r in aug[len(pivots):] if n in r)
        cert = tuple(row.get(n + 1 + i, Q(0)) / row[n] for i in range(m))
        return Elimination(tuple(pivots), nullspace, None, cert)
    x = [Q(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i].get(n, Q(0))
    return Elimination(tuple(pivots), nullspace, tuple(x), None)


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrobAlgebra:
    """Finite-dimensional rational algebra with optional Frobenius data.

    mult[i][j] is the coordinate vector of basis_i . basis_j; `e` is the
    matrix of the copairing sum_ij e[i][j] basis_i (x) basis_j; `lam` the
    functional; `star` an optional involutive anti-automorphism given by
    images of basis vectors.

    The algebra is frozen, and two sparse tables are derived from it once:
    rows[i][j] lists the nonzero (k, c) of basis_i . basis_j, and `pairs`
    the nonzero (c, i, j) of the copairing (None without one).
    """

    name: str
    dim: int
    mult: tuple
    unit: tuple
    lam: Optional[tuple] = None
    e: Optional[tuple] = None
    star: Optional[tuple] = None
    basis_names: Optional[tuple] = None
    rows: tuple = field(init=False, repr=False, compare=False)
    pairs: Optional[tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = range(self.dim)
        object.__setattr__(self, "rows", tuple(
            tuple(tuple(_sparse(self.mult[i][j]).items()) for j in n)
            for i in n))
        object.__setattr__(self, "pairs", None if self.e is None else tuple(
            (self.e[i][j], i, j) for i in n for j in n if self.e[i][j]))

    # -- arithmetic -----------------------------------------------------

    def mul(self, u, v):
        out = [Q(0)] * self.dim
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        for k, c in self.rows[i][j]:
                            out[k] += a * b * c
        return tuple(out)

    def lam_of(self, v):
        return sum(a * b for a, b in zip(_functional(self), v))

    def star_of(self, v):
        if self.star is None:
            raise AlgebraError("algebra %s has no star structure" % self.name)
        n = self.dim
        out = [Q(0)] * n
        for i in range(n):
            if v[i] != 0:
                for k in range(n):
                    out[k] += v[i] * self.star[i][k]
        return tuple(out)

    def e_pairs(self):
        return [(c, self.basis_vec(i), self.basis_vec(j))
                for c, i, j in _copairing(self)]

    def basis_vec(self, i):
        return _vec(self.dim, [(i, Q(1))])

    def handle_element(self):
        return _vec(self.dim, ((k, c * d) for c, i, j in _copairing(self)
                               for k, d in self.rows[i][j]))

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


def _trace_form(A, lam):
    """form[a][b] = lam(basis_a . basis_b)."""
    n = range(A.dim)
    return [[sum(lam[k] * c for k, c in A.rows[a][b]) for b in n] for a in n]


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
    bad = _first(_grid(n, 3), lambda i, j, k: (
        _prod(A, _prod(A, e[i], e[j]), e[k])
        != _prod(A, e[i], _prod(A, e[j], e[k]))))
    rep.add("associative", bad is None, "(%d,%d,%d)" % bad if bad else "")
    unit = _sparse(A.unit)
    rep.add("unital", all(_prod(A, unit, e[i]) == e[i] == _prod(A, e[i], unit)
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
    lam = _functional(A) if pairs else (Q(0),) * n
    unit = _sparse(A.unit)
    rep.add("normalization-left",
            _acc((j, c * lam[i]) for c, i, j in pairs) == unit)
    rep.add("normalization-right",
            _acc((i, c * lam[j]) for c, i, j in pairs) == unit)
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
    rep.add("e-bicentral", _first(_grid(n, 2), lambda w, z: _e_central_defect(
        A, lambda i: _prod(A, dict(A.rows[w][i]), e[z]),
        lambda j: _prod(A, dict(A.rows[z][j]), e[w]))) is None)
    if A.star is not None:
        st = [_sparse(r) for r in A.star]

        def star(u):
            return _acc((m, c * s) for k, c in u.items()
                        for m, s in st[k].items())

        rep.add("star-involution", all(star(star(e[i])) == e[i]
                                       for i in range(n)))
        rep.add("star-antihom", all(
            star(_prod(A, e[i], e[j])) == _prod(A, star(e[j]), star(e[i]))
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
    and mu(z) = 1."""
    n = A.dim
    nn = n * n
    rows, rhs = [], []
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
            eqs.setdefault((a, b), []).append((col, c))
        for ab in sorted(eqs):
            rows.append(_vec(nn, eqs[ab]))
            rhs.append(Q(0))
    # normalization: sum_ij z_ij (x_i x_j)_a = unit_a
    norm = [[] for _ in range(n)]
    for i, j in _grid(n, 2):
        for a, c in A.rows[i][j]:
            norm[a].append((i * n + j, c))
    rows += [_vec(nn, entries) for entries in norm]
    rhs += A.unit
    return rows, rhs


def check_separable(A: FrobAlgebra) -> SeparabilityResult:
    """Solve for a central element z in A(x)A with mu(z) = 1 exactly."""
    n = A.dim
    rows, rhs = _separability_system(A)
    elim = rref(rows, n * n, rhs)
    if elim.solution is None:
        return SeparabilityResult(False, None, elim.certificate)
    sol = elim.solution
    witness = tuple(tuple(sol[i * n + j] for j in range(n)) for i in range(n))
    return SeparabilityResult(True, witness, None)


# ---------------------------------------------------------------------------
# center, cocenter and the circle maps
# ---------------------------------------------------------------------------

def center(A: FrobAlgebra) -> List[tuple]:
    n = A.dim
    comms = [[_commutator(A, k, i) for i in range(n)] for k in range(n)]
    return rref([[comms[k][i].get(a, Q(0)) for i in range(n)]
                 for k in range(n) for a in range(n)], n).nullspace


@dataclass
class Cocenter:
    """Basis data of A/[A,A]: representatives and the projection matrix."""

    reps: List[tuple]          # representative vectors in A
    project: List[tuple]       # rows: quotient coords of each basis vector

    @property
    def dim(self):
        return len(self.reps)

    def project_vec(self, v):
        return tuple(sum(r[i] * v[i] for i in range(len(v)))
                     for r in self.project)


def cocenter(A: FrobAlgebra) -> Cocenter:
    n = A.dim
    comms = (_commutator(A, i, j) for i, j in _grid(n, 2))
    elim = rref([_vec(n, c.items()) for c in comms if c], n)
    reps = [_vec(n, [(c, Q(1))]) for c in range(n) if c not in elim.pivots]
    # the quotient coordinate of e_k at free column c is entry k of the
    # nullspace vector of c: e_k reduced modulo the echelon rows
    return Cocenter(reps, elim.nullspace)


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
    rows = [[A.mul(A.basis_vec(j), H)[a] for j in range(n)] for a in range(n)]
    sol = rref(rows, n, list(A.unit)).solution
    if sol is None:
        return None
    # verify (H may be a zero divisor even when the system is solvable)
    if A.mul(sol, H) != A.unit or A.mul(H, sol) != A.unit:
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
    zb = center(A)
    cc = cocenter(A)
    n = A.dim

    def u_raw(x):
        x = _sparse(x)
        return _vec(n, (t for c, i, j in _copairing(A) for t in _prod(
            A, _prod(A, {i: c}, x), {j: 1}).items()))

    # u on cocenter representatives, in center coordinates
    u_cols = []
    for rep in cc.reps:
        img = u_raw(rep)
        rows = [[zb[j][a] for j in range(len(zb))] for a in range(n)]
        sol = rref(rows, len(zb), list(img)).solution
        if sol is None:
            raise AlgebraError("u image left the center")
        u_cols.append(sol)
    hinv = _solve_h_inverse(A)
    v_cols = []
    for c in zb:
        w = A.mul(hinv, c) if hinv is not None else c
        v_cols.append(cc.project_vec(w))
    inverse = (len(zb) == cc.dim and _inverse_columns(u_cols, v_cols)
               and _inverse_columns(v_cols, u_cols))
    return CircleMaps(zb, cc, u_cols, v_cols, inverse)


def closed_value(A: FrobAlgebra, genus: int) -> Fraction:
    """lambda(H^genus): the closed surface oracle."""
    H = A.handle_element()
    acc = A.unit
    for _ in range(genus):
        acc = A.mul(acc, H)
    return A.lam_of(acc)


# ---------------------------------------------------------------------------
# evaluation of two-cell terms
# ---------------------------------------------------------------------------

# The local map of each evaluator op on basis vectors of the slots it
# consumes, as pure tensors (coefficient, one vector per slot it produces).
_LOCAL = {
    # births insert the unit, deaths apply the functional
    "cap": lambda A, f: [(Q(1), (A.unit,))],
    "cup": lambda A, f, v: [(A.lam_of(v), ())],
    "cusp": lambda A, f, v: [(Q(1), (A.mul(v, f),))],
    # open rerouting: two strands re-paired without fusing; the copairing
    # is threaded between the halves
    "reroute": lambda A, f, u, v: [(c, (A.mul(u, x), A.mul(y, v)))
                                   for c, x, y in A.e_pairs()],
    # two components fuse into one
    "merge": lambda A, f, u, v: [(Q(1), (A.mul(u, v),))],
    "split-fuse": lambda A, f, u, v: [(c, (A.mul(A.mul(A.mul(u, x), v), y),))
                                      for c, x, y in A.e_pairs()],
    # one component splits in two
    "fission": lambda A, f, v: [(c, (A.mul(v, x), y))
                                for c, x, y in A.e_pairs()],
    # non-orientable surgery: same component before and after
    "twist-merge": lambda A, f, v: [(Q(1), (A.star_of(v),))],
    "twist-split": lambda A, f, v: [(c, (A.mul(A.mul(x, A.star_of(v)), y),))
                                    for c, x, y in A.e_pairs()],
}


@dataclass
class Assignment:
    algebra: FrobAlgebra
    presentation: Presentation
    cusp_factor: tuple
    _local: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def tag(self, name):
        return self.presentation.two_gen_tags.get(name)

    def local(self, op, idx):
        """Sparse image [(basis indices, coefficient)] of the basis tensor
        idx under the local map op, computed once per assignment."""
        key = (op, idx)
        if key not in self._local:
            A = self.algebra
            acc = {}
            vecs = [A.basis_vec(i) for i in idx]
            for c, pure in _LOCAL[op](A, self.cusp_factor, *vecs):
                terms = [(c, ())]
                for v in pure:
                    terms = [(a * v[i], t + (i,)) for a, t in terms
                             for i in range(A.dim) if v[i]]
                for a, t in terms:
                    acc[t] = acc.get(t, 0) + a
            self._local[key] = [(t, a) for t, a in acc.items() if a]
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
    if any(t == "sym" for t in p.two_gen_tags.values()) and A.star is None:
        raise AlgebraError(
            "presentation %s needs a star structure on %s" % (p.name, A.name))
    sep = check_separable(A)
    factor = A.unit if sep.separable else A.handle_element()
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
    dim: int
    matrix: tuple

    @property
    def is_scalar(self):
        return self.source_components == 0 and self.target_components == 0

    @property
    def scalar(self):
        return self.matrix[0][0]

    def __eq__(self, other):
        return (isinstance(other, TwoCellValue)
                and self.source_components == other.source_components
                and self.target_components == other.target_components
                and self.matrix == other.matrix)

    def render(self):
        if self.is_scalar:
            return str(self.scalar)
        return "\n".join(" ".join(str(x) for x in row) for row in self.matrix)


def _comp_of(comps, arc):
    for comp in comps:
        if arc in comp:
            return comp
    raise AlgebraError("arc missing from components")


class _EvalListener(MovieListener):
    """Every source column in one walk, on a merged sparse state.

    `slots` lists the live components; `state` maps (source column, basis
    index of each slot) to a nonzero coefficient.  An event maps the basis
    indices of the slots it consumes through a sparse local map and
    appends the slots it produces; entries with equal keys are summed.
    `comps`, the components after one event, are those before the next.
    """

    def __init__(self, assignment):
        self.A = assignment.algebra
        self.asg = assignment
        self.sources = 0
        self.slots = []
        self.state = {}
        self.comps = []

    def begin(self, state):
        self.comps = state.diagram.components()
        self.slots = comp_order(state, self.comps)
        self.sources = len(self.slots)
        basis = itertools.product(range(self.A.dim), repeat=self.sources)
        self.state = {(col, idx): Q(1) for col, idx in enumerate(basis)}

    def apply(self, op, consumed, produced):
        """Replace the slots `consumed` by `produced` through local map op."""
        pos = [self.slots.index(c) for c in consumed]
        keep = [i for i in range(len(self.slots)) if i not in pos]
        self.slots = [self.slots[i] for i in keep] + list(produced)
        out = {}
        for (col, idx), c in self.state.items():
            rest = tuple(idx[i] for i in keep)
            for tail, w in self.asg.local(op, tuple(idx[i] for i in pos)):
                key = (col, rest + tail)
                out[key] = out.get(key, 0) + c * w
        self.state = {key: c for key, c in out.items() if c}

    # -- events ---------------------------------------------------------

    def event(self, state, ev):
        cell = ev.cell
        name = cell.name if isinstance(cell, tc.Gen2) else None
        tag = self.asg.tag(name) if name else None
        before_comps = self.comps
        after_comps = self.comps = state.diagram.components()
        if tag == "cap":
            new_comp = _comp_of(after_comps, ev.new_arcs[0])
            if set(new_comp) != set(ev.new_arcs):
                raise AlgebraError("birth did not create an isolated circle")
            self.apply("cap", (), (new_comp,))
        elif tag == "cup":
            old_comp = _comp_of(before_comps, ev.old_arcs[0])
            if set(old_comp) != set(ev.old_arcs):
                raise AlgebraError("death did not consume an isolated circle")
            self.apply("cup", (old_comp,), ())
        elif tag in ("split", "merge"):
            self._saddle(tag, ev, before_comps, after_comps)
        else:
            # structural cells, cusp cells and crossing cells reroute strands
            mapping = transfer_components(before_comps, after_comps, ev)
            self.slots = [mapping[s] for s in self.slots]
            if tag == "cusp":
                target = _comp_of(after_comps, ev.new_arcs[0])
                self.apply("cusp", (target,), (target,))

    def _saddle(self, tag, ev, before_comps, after_comps):
        # split: source I_{pt pt} (two strands), target coev o ev (cup then
        # cap); merge: source coev o ev, arcs [ev (cup-shaped), coev
        # (cap-shaped)].  Both list old and new arcs in the same order.
        b0 = _comp_of(before_comps, ev.old_arcs[0])
        b1 = _comp_of(before_comps, ev.old_arcs[1])
        a0 = _comp_of(after_comps, ev.new_arcs[0])
        a1 = _comp_of(after_comps, ev.new_arcs[1])
        if b0 != b1 and a0 != a1:
            self.apply("reroute", (b0, b1), (a0, a1))
        elif b0 != b1:
            self.apply("merge" if tag == "merge" else "split-fuse",
                       (b0, b1), (a0,))
        elif a0 != a1:
            self.apply("fission", (b0,), (a0, a1))
        else:
            if self.A.star is None:
                raise AlgebraError(
                    "non-orientable saddle needs a star structure")
            self.apply("twist-" + tag, (b0,), (a0,))


def evaluate(term: tc.TwoCellTerm, assignment: Assignment) -> TwoCellValue:
    """Exact linear map of a two-cell term under a generator assignment.

    The movie is walked once for all source basis columns together.  The
    state maps (column, basis index of each live component) to a
    coefficient; each event rewrites only the indices of the components it
    touches, and entries that land on the same key are summed.
    """
    p = assignment.presentation
    n = assignment.algebra.dim
    report = tc.validate(term, p.data)
    if not report.ok:
        raise AlgebraError("invalid term:\n%s" % report)
    listener = _EvalListener(assignment)
    state = run_movie(report, p.arc_patterns, listener)
    slot_of = {comp: i for i, comp in enumerate(listener.slots)}
    order = [slot_of[comp] for comp in comp_order(state, listener.comps)]
    matrix = [[Q(0)] * n ** listener.sources for _ in range(n ** len(order))]
    for (col, idx), c in listener.state.items():
        row = 0
        for i in order:
            row = row * n + idx[i]
        matrix[row][col] += c
    return TwoCellValue(listener.sources, len(order), n,
                        tuple(tuple(r) for r in matrix))


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

def _dense(n, entries):
    m = [[Q(0)] * n for _ in range(n)]
    for (i, j), c in entries.items():
        m[i][j] = Q(c)
    return tuple(tuple(r) for r in m)


def algebra_q() -> FrobAlgebra:
    return FrobAlgebra(
        name="Q", dim=1,
        mult=((( Q(1),),),),
        unit=(Q(1),), lam=(Q(1),), e=((Q(1),),), star=((Q(1),),),
        basis_names=("1",))


def algebra_qq() -> FrobAlgebra:
    """Q x Q with coordinatewise product, lam = sum of coordinates."""
    n = 2
    mult = tuple(tuple(_vec(n, [(i, Q(1))]) if i == j else _vec(n)
                       for j in range(n)) for i in range(n))
    return FrobAlgebra(
        name="QxQ", dim=2, mult=mult, unit=(Q(1), Q(1)),
        lam=(Q(1), Q(1)), e=_dense(2, {(0, 0): 1, (1, 1): 1}),
        star=((Q(1), Q(0)), (Q(0), Q(1))),
        basis_names=("u1", "u2"))


def algebra_m2q() -> FrobAlgebra:
    """2x2 matrices with the trace form; basis E11, E12, E21, E22."""
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    n = 4
    mult = [[None] * n for _ in range(n)]
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            if b == c:
                mult[i][j] = _vec(n, [(idx[(a, d)], Q(1))])
            else:
                mult[i][j] = _vec(n)
    e = {}
    for (a, b), i in idx.items():
        e[(i, idx[(b, a)])] = 1
    star = [[Q(0)] * n for _ in range(n)]
    for (a, b), i in idx.items():
        star[i][idx[(b, a)]] = Q(1)   # transpose
    return FrobAlgebra(
        name="M2Q", dim=4, mult=tuple(tuple(r) for r in mult),
        unit=_vec(4, [(0, Q(1)), (3, Q(1))]),
        lam=(Q(1), Q(0), Q(0), Q(1)),
        e=_dense(4, e), star=tuple(tuple(r) for r in star),
        basis_names=("E11", "E12", "E21", "E22"))


def algebra_qz2() -> FrobAlgebra:
    """Group algebra Q[Z/2] = Q[s]/(s^2-1) with lam(a+bs) = a."""
    n = 2
    mult = (
        (_vec(n, [(0, Q(1))]), _vec(n, [(1, Q(1))])),
        (_vec(n, [(1, Q(1))]), _vec(n, [(0, Q(1))])),
    )
    return FrobAlgebra(
        name="QZ2", dim=2, mult=mult, unit=(Q(1), Q(0)),
        lam=(Q(1), Q(0)), e=_dense(2, {(0, 0): 1, (1, 1): 1}),
        star=((Q(1), Q(0)), (Q(0), Q(1))),
        basis_names=("1", "s"))


def algebra_qx2() -> FrobAlgebra:
    """Q[x]/(x^2) with lam(a+bx) = b: symmetric Frobenius, not separable."""
    n = 2
    mult = (
        (_vec(n, [(0, Q(1))]), _vec(n, [(1, Q(1))])),
        (_vec(n, [(1, Q(1))]), _vec(n)),
    )
    return FrobAlgebra(
        name="Qx2", dim=2, mult=mult, unit=(Q(1), Q(0)),
        lam=(Q(0), Q(1)), e=_dense(2, {(0, 1): 1, (1, 0): 1}),
        star=((Q(1), Q(0)), (Q(0), Q(1))),
        basis_names=("1", "x"))


BUILTIN_ALGEBRAS = {
    "Q": algebra_q,
    "QxQ": algebra_qq,
    "M2Q": algebra_m2q,
    "QZ2": algebra_qz2,
    "Qx2": algebra_qx2,
}


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def _index(tok, dim):
    """The 0-based position of a 1-based `.alg` index, range-checked."""
    k = int(tok)
    if not 1 <= k <= dim:
        raise ValueError("index %d out of range 1..%d" % (k, dim))
    return k - 1


def _entries(toks, dim):
    """(0-based index, rational) of each `k:q` token; each index once."""
    out, seen = [], set()
    for tok in toks:
        k, q = tok.split(":")
        i = _index(k, dim)
        _once(seen, "index %d" % (i + 1))
        out.append((i, parse_rational(q)))
    return out


def _once(seen, directive):
    if directive in seen:
        raise ValueError("duplicate %s" % directive)
    seen.add(directive)


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
    directive (each `i,j` within `e`).
    """
    dim = None
    mult = None
    unit = None
    lam = None
    e = None
    star = None
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
            if key == "dim":
                dim = int(parts[1])
                if dim < 1:
                    raise ValueError("dim must be at least 1")
                mult = [[_vec(dim) for _ in range(dim)] for _ in range(dim)]
            elif key == "mult":
                i, j = _index(parts[1], dim), _index(parts[2], dim)
                _once(seen, "mult %d %d" % (i + 1, j + 1))
                if parts[3] != "->":
                    raise ValueError("expected ->")
                mult[i][j] = _vec(dim, _entries(parts[4:], dim))
            elif key == "unit":
                unit = _vec(dim, _entries(parts[1:], dim))
            elif key == "lambda":
                lam = _vec(dim, _entries(parts[1:], dim))
            elif key == "e":
                e = [[Q(0)] * dim for _ in range(dim)]
                for tok in parts[1:]:
                    ij, q = tok.split(":")
                    i, j = (_index(k, dim) for k in ij.split(","))
                    _once(seen, "entry %d,%d" % (i + 1, j + 1))
                    e[i][j] = parse_rational(q)
                e = tuple(tuple(r) for r in e)
            elif key == "star":
                if star is None:
                    star = [[Q(0)] * dim for _ in range(dim)]
                i = _index(parts[1], dim)
                _once(seen, "star %d" % (i + 1))
                if parts[2] != "->":
                    raise ValueError("expected ->")
                for k, q in _entries(parts[3:], dim):
                    star[i][k] = q
            else:
                raise ValueError("unknown directive %r" % key)
        except (IndexError, ValueError) as exc:
            raise AlgebraError("line %d: %s" % (lineno, exc))
    if dim is None or unit is None:
        raise AlgebraError("missing dim or unit")
    return FrobAlgebra(
        name=name, dim=dim,
        mult=tuple(tuple(row) for row in mult),
        unit=unit, lam=lam, e=e,
        star=tuple(tuple(r) for r in star) if star is not None else None)

