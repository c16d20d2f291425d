"""Reference rewriting: the plain matcher the head-indexed one replaced.

`find_matches` tries every relation side at every window of every
flattened chain and rebuilds each result by canonicalising the whole
term; `equivalent_bounded` is the breadth-first search over it.  Both are
slow and obviously right, and tests compare the package's matcher and
search against them step by step.  The reference flattens chains with
its own `canonical`, which reads and writes no memo, so it shares no
cache with the matcher it checks.
"""

from bordcalc import presentations as pr
from bordcalc import termcore as tc


def chain(p):
    """The cells of a vertical chain, or the one cell `p`."""
    return p.children if isinstance(p, tc.VComp) else (p,)


def canonical(p):
    """`p` with nested vertical chains flattened and unary chains dropped;
    a node whose parts come back as they are is returned as it is."""
    if isinstance(p, tc.VComp):
        flat = tuple(c for child in p.children
                     for c in chain(canonical(child)))
        same = len(flat) == len(p.children) and all(
            a is b for a, b in zip(flat, p.children))
        return flat[0] if len(flat) == 1 else p if same else tc.VComp(flat)
    ps = tc.parts(p)
    children = [canonical(c) for _, c in ps]
    if all(a is b for a, (_, b) in zip(children, ps)):
        return p
    return tc.rebuild(p, children)


def rules(p):
    """(name, direction, pattern chain, replacement chain) of every
    relation side: lr before rl, in relation order."""
    return [(rel.name, direction, chain(canonical(src)),
             chain(canonical(dst)))
            for rel in p.relations
            for direction, src, dst in (("lr", rel.lhs, rel.rhs),
                                        ("rl", rel.rhs, rel.lhs))]


def _replace_at(p, path, new):
    if not path:
        return new
    return tc.rebuild(p, [_replace_at(c, path[1:], new) if step == path[0]
                          else c for step, c in tc.parts(p)])


def find_matches(t, p, table=None):
    """Every occurrence of every relation side in `t`, in the order
    subterm, then rule, then window start."""
    t = canonical(t)
    steps = []
    for path, node in tc.subterms(t):
        cells = chain(node)
        for name, direction, pat, rep in table or rules(p):
            k = len(pat)
            for i in range(len(cells) - k + 1):
                if cells[i:i + k] != pat:
                    continue
                spliced = canonical(tc.VComp(cells[:i] + rep
                                             + cells[i + k:]))
                result = canonical(_replace_at(t, path, spliced))
                steps.append(pr.RewriteStep(name, direction, path, (i, k),
                                            pat, rep, result))
    return steps


def equivalent_bounded(t1, t2, p, depth, max_visited=100000):
    """(equivalent, trail) of the breadth-first search over
    `find_matches` within `depth` levels and `max_visited` terms."""
    table = rules(p)
    start, goal = canonical(t1), canonical(t2)
    if start == goal:
        return True, ()
    frontier, seen = [(start, ())], {start}
    for _ in range(depth):
        nxt = []
        for term, trail in frontier:
            for step in find_matches(term, p, table):
                if step.result in seen:
                    continue
                if step.result == goal:
                    return True, trail + (step,)
                seen.add(step.result)
                if len(seen) > max_visited:
                    return False, ()
                nxt.append((step.result, trail + (step,)))
        frontier = nxt
    return False, ()
