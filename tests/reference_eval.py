"""Reference evaluator: one movie walk per source basis column.

This is the evaluator `frobenius.evaluate` replaced, kept as a slow
oracle for the merged sparse walk; only its movie interface follows
`_diagram`.  Each column runs the whole movie on a list of pure tensors
(coefficient, value per component) that is never merged.  Only tests use
it.
"""

from fractions import Fraction

from bordcalc import termcore as tc
from bordcalc._diagram import (MovieListener, MovieState, comp_order,
                               run_movie, transfer_components)
from bordcalc.frobenius import AlgebraError, Assignment, TwoCellValue

Q = Fraction


class _EvalListener(MovieListener):
    def __init__(self, assignment, initial_values):
        self.A = assignment.algebra
        self.asg = assignment
        self.initial = initial_values
        self.configs = None
        self.comps = None

    def begin(self, state):
        self.comps = state.diagram.components()
        order = comp_order(state, self.comps)
        vals = {}
        for comp, v in zip(order, self.initial):
            vals[comp] = v
        if len(order) != len(self.initial):
            raise AlgebraError("source component mismatch")
        self.configs = [(Q(1), vals)]

    # -- events ---------------------------------------------------------

    def event(self, state, ev):
        cell = ev.cell
        name = cell.name if isinstance(cell, tc.Gen2) else None
        tag = self.asg.tag(name) if name else None
        before_comps = self.comps
        after_comps = self.comps = state.diagram.components()
        if tag == "cap":
            new_comp = self._comp_of(after_comps, ev.new_arcs[0])
            if set(new_comp) != set(ev.new_arcs):
                raise AlgebraError("birth did not create an isolated circle")
            self.configs = [(c, {**vals, new_comp: self.A.unit})
                            for c, vals in self.configs]
            return
        if tag == "cup":
            old_comp = self._comp_of(before_comps, ev.old_arcs[0])
            if set(old_comp) != set(ev.old_arcs):
                raise AlgebraError("death did not consume an isolated circle")
            out = []
            for c, vals in self.configs:
                v = vals[old_comp]
                vals = {k: w for k, w in vals.items() if k != old_comp}
                out.append((c * self.A.lam_of(v), vals))
            self.configs = out
            return
        if tag in ("split", "merge"):
            self._saddle(tag, state, ev, before_comps, after_comps)
            return
        # structural cells, cusp cells and crossing cells reroute strands
        mapping = transfer_components(before_comps, after_comps, ev)
        out = []
        for c, vals in self.configs:
            out.append((c, {mapping.get(k, k): v for k, v in vals.items()}))
        self.configs = out
        if tag == "cusp":
            touched = self._comp_of(before_comps, ev.old_arcs[0]) \
                if ev.old_arcs else None
            target = (mapping[touched] if touched is not None
                      else self._comp_of(after_comps, ev.new_arcs[0]))
            f = self.asg.cusp_factor
            self.configs = [
                (c, {**vals, target: self.A.mul(vals[target], f)})
                for c, vals in self.configs]

    def _comp_of(self, comps, arc):
        for comp in comps:
            if arc in comp:
                return comp
        raise AlgebraError("arc missing from components")

    def _saddle(self, tag, state, ev, before_comps, after_comps):
        A = self.A
        # split: source I_{pt pt} (two strands), target coev o ev (cup then
        # cap); merge: source coev o ev, arcs [ev (cup-shaped), coev
        # (cap-shaped)].  Both list old and new arcs in the same order.
        o0, o1 = ev.old_arcs[0], ev.old_arcs[1]
        cup_arc, cap_arc = ev.new_arcs[0], ev.new_arcs[1]
        b0 = self._comp_of(before_comps, o0)
        b1 = self._comp_of(before_comps, o1)
        a0 = self._comp_of(after_comps, cup_arc)
        a1 = self._comp_of(after_comps, cap_arc)
        out = []
        if b0 != b1 and a0 != a1:
            # open rerouting: two strands re-paired without fusing; the
            # copairing is threaded between the halves
            for c, vals in self.configs:
                u, v = vals[b0], vals[b1]
                base = {k: w for k, w in vals.items() if k not in (b0, b1)}
                for ce, x, y in A.e_pairs():
                    nv = dict(base)
                    nv[a0] = A.mul(u, x)
                    nv[a1] = A.mul(y, v)
                    out.append((c * ce, nv))
        elif b0 != b1:
            # two components fuse into one
            if tag == "merge":
                for c, vals in self.configs:
                    u, v = vals[b0], vals[b1]
                    vals = {k: w for k, w in vals.items()
                            if k not in (b0, b1)}
                    vals[a0] = A.mul(u, v)
                    out.append((c, vals))
            else:
                for c, vals in self.configs:
                    u, v = vals[b0], vals[b1]
                    base = {k: w for k, w in vals.items()
                            if k not in (b0, b1)}
                    for ce, x, y in A.e_pairs():
                        nv = dict(base)
                        nv[a0] = A.mul(A.mul(A.mul(u, x), v), y)
                        out.append((c * ce, nv))
        elif a0 != a1:
            # one component splits in two
            for c, vals in self.configs:
                v = vals[b0]
                base = {k: w for k, w in vals.items() if k != b0}
                for ce, x, y in A.e_pairs():
                    nv = dict(base)
                    nv[a0] = A.mul(v, x)
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
                    nv[a0] = A.star_of(v)
                    out.append((c, nv))
                else:
                    for ce, x, y in A.e_pairs():
                        nv = dict(base)
                        nv[a0] = A.mul(A.mul(x, A.star_of(v)), y)
                        out.append((c * ce, nv))
        self.configs = out


def evaluate(term: tc.TwoCellTerm, assignment: Assignment) -> TwoCellValue:
    """Exact linear map of a two-cell term under a generator assignment."""
    p = assignment.presentation
    A = assignment.algebra
    report = tc.validate(term, p.data)
    if not report.ok:
        raise AlgebraError("invalid term:\n%s" % report)
    probe = MovieState(report.boundary[0], p.arc_patterns)
    src_comps = probe.diagram.components()
    k = len(src_comps)
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
        init = [A.basis_vec(i) for i in idx]
        listener = _EvalListener(assignment, init)
        state = run_movie(report, p.arc_patterns, listener)
        tgt_comps = comp_order(state, listener.comps)
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

