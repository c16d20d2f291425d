"""Reference evaluator: one movie walk per source basis column.

This is the evaluator `frobenius.evaluate` replaced, kept as a slow
oracle for the merged sparse walk; only its movie interface follows
`_diagram` (component ids from `ComponentListener`), and it picks each
event's local map by its own explicit cases.  Each column runs the whole
movie on a list of pure tensors (coefficient, dense value per component)
that is never merged.  Its arithmetic is the dense `mul`, `lam`, `star`
and `basis` of `tests/reference_frobenius.py` on the algebra's dense view,
with the copairing read from its `e` matrix, so it shares none with the
module it checks.  Only tests use it.
"""

from fractions import Fraction

from bordcalc import termcore as tc
from bordcalc._diagram import (ComponentListener, MovieState, comp_order,
                               run_movie)
from bordcalc.frobenius import AlgebraError, Assignment, TwoCellValue
from tests import reference_frobenius as ref

Q = Fraction


def _pairs(A):
    """(e_ij, basis_i, basis_j) of each nonzero entry of the copairing."""
    n = A.dim
    return [(A.e[i][j], ref.basis(A, i), ref.basis(A, j))
            for i in range(n) for j in range(n) if A.e[i][j]]


class _EvalListener(ComponentListener):
    def __init__(self, assignment, algebra, initial_values):
        self.A = algebra
        self.asg = assignment
        self.initial = initial_values
        self.configs = None

    def begin(self, state):
        super().begin(state)
        order = comp_order(state, self.comp)
        if len(order) != len(self.initial):
            raise AlgebraError("source component mismatch")
        self.configs = [(Q(1), dict(zip(order, self.initial)))]

    # -- events ---------------------------------------------------------

    def event(self, state, ev):
        cell = ev.cell
        name = cell.name if isinstance(cell, tc.Gen2) else None
        tag = self.asg.presentation.two_gen_tags.get(name) if name else None
        # structural cells, cusp cells and crossing cells reroute strands
        # and keep the component ids
        old, new = self.follow(state, ev,
                               tag not in ("cap", "cup", "split", "merge"))
        if tag == "cap":
            self.configs = [(c, {**vals, new[0]: self.A.unit})
                            for c, vals in self.configs]
        elif tag == "cup":
            out = []
            for c, vals in self.configs:
                v = vals[old[0]]
                vals = {k: w for k, w in vals.items() if k != old[0]}
                out.append((c * ref.lam(self.A, v), vals))
            self.configs = out
        elif tag in ("split", "merge"):
            self._saddle(tag, old, new)
        elif tag == "cusp":
            target = new[0]
            f = tuple(self.asg.cusp_factor.get(k, Q(0))
                      for k in range(self.A.dim))
            self.configs = [
                (c, {**vals, target: ref.mul(self.A, vals[target], f)})
                for c, vals in self.configs]

    def _saddle(self, tag, old, new):
        A = self.A
        # split: source I_{pt pt} (two strands), target coev o ev (cup then
        # cap); merge: source coev o ev, arcs [ev (cup-shaped), coev
        # (cap-shaped)].  Both list old and new arcs in the same order.
        b0, b1 = old[0], old[1]
        a0, a1 = new[0], new[1]
        out = []
        if b0 != b1 and a0 != a1:
            # open rerouting: two strands re-paired without fusing; the
            # copairing is threaded between the halves
            for c, vals in self.configs:
                u, v = vals[b0], vals[b1]
                base = {k: w for k, w in vals.items() if k not in (b0, b1)}
                for ce, x, y in _pairs(A):
                    nv = dict(base)
                    nv[a0] = ref.mul(A, u, x)
                    nv[a1] = ref.mul(A, y, v)
                    out.append((c * ce, nv))
        elif b0 != b1:
            # two components fuse into one, by either saddle: a pair of
            # pants multiplies
            for c, vals in self.configs:
                u, v = vals[b0], vals[b1]
                vals = {k: w for k, w in vals.items() if k not in (b0, b1)}
                vals[a0] = ref.mul(A, u, v)
                out.append((c, vals))
        elif a0 != a1:
            # one component splits in two
            for c, vals in self.configs:
                v = vals[b0]
                base = {k: w for k, w in vals.items() if k != b0}
                for ce, x, y in _pairs(A):
                    nv = dict(base)
                    nv[a0] = ref.mul(A, v, x)
                    nv[a1] = y
                    out.append((c * ce, nv))
        else:
            # non-orientable surgery: same component before and after
            if A.star is None:
                raise AlgebraError(
                    "non-orientable saddle needs a star structure")
            for c, vals in self.configs:
                v = vals[b0]
                base = {k: w for k, w in vals.items() if k != b0}
                if tag == "merge":
                    nv = dict(base)
                    nv[a0] = ref.star(A, v)
                    out.append((c, nv))
                else:
                    for ce, x, y in _pairs(A):
                        nv = dict(base)
                        nv[a0] = ref.mul(A, ref.mul(A, x, ref.star(A, v)), y)
                        out.append((c * ce, nv))
        self.configs = out


def evaluate(term: tc.TwoCellTerm, assignment: Assignment) -> TwoCellValue:
    """Exact linear map of a two-cell term under a generator assignment."""
    p = assignment.presentation
    A = ref.dense(assignment.algebra)
    report = tc.validate(term, p.data)
    if not report.ok:
        raise AlgebraError("invalid term:\n%s" % report)
    probe = ComponentListener()
    probe.begin(MovieState(report.boundary[0], p.data))
    k = len(set(probe.comp.values()))
    n = A.dim
    ncols = n ** k
    columns = []
    m = None
    for col in range(ncols):
        idx = []
        rem = col
        for _ in range(k):
            idx.append(rem % n)
            rem //= n
        idx.reverse()
        init = [ref.basis(A, i) for i in idx]
        listener = _EvalListener(assignment, A, init)
        state = run_movie(report, p.data, listener)
        tgt_comps = comp_order(state, listener.comp)
        m = len(tgt_comps)
        nrows = n ** m
        colvec = [Q(0)] * nrows
        for c, vals in listener.configs:
            if c == 0:
                continue
            # expand the pure tensor over the basis
            terms = [(c, 0)]
            for comp in tgt_comps:
                v = vals[comp]
                nxt = []
                for coeff, pos in terms:
                    for i in range(n):
                        if v[i] != 0:
                            nxt.append((coeff * v[i], pos * n + i))
                terms = nxt
            for coeff, pos in terms:
                colvec[pos] += coeff
        columns.append(colvec)
    nrows = n ** (m if m is not None else 0)
    matrix = tuple(tuple(columns[c][r] for c in range(ncols))
                   for r in range(nrows))
    return TwoCellValue(k, m if m is not None else 0, n, matrix)

