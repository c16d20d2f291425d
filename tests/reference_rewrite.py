"""Reference rewriting: the plain matcher the head-indexed one replaced.

`find_matches` tries every relation side at every window of every
flattened chain and rebuilds each result by canonicalising the whole
term; `equivalent_bounded` is the breadth-first search over it.  Both are
slow and obviously right, and tests compare the package's matcher and
search against them step by step.
"""

from bordcalc import presentations as pr
from bordcalc import termcore as tc


def rules(p):
    """(name, direction, pattern chain, replacement chain) of every
    relation side: lr before rl, in relation order."""
    return [(rel.name, direction, pr._chain(pr.canonical(src)),
             pr._chain(pr.canonical(dst)))
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
    t = pr.canonical(t)
    steps = []
    for path, node in tc.subterms(t):
        chain = pr._chain(node)
        for name, direction, pat, rep in table or rules(p):
            k = len(pat)
            for i in range(len(chain) - k + 1):
                if chain[i:i + k] != pat:
                    continue
                spliced = pr.canonical(tc.VComp(chain[:i] + rep
                                                + chain[i + k:]))
                result = pr.canonical(_replace_at(t, path, spliced))
                steps.append(pr.RewriteStep(name, direction, path, (i, k),
                                            pat, rep, result))
    return steps


def equivalent_bounded(t1, t2, p, depth, max_visited=100000):
    """(equivalent, trail) of the breadth-first search over
    `find_matches` within `depth` levels and `max_visited` terms."""
    table = rules(p)
    start, goal = pr.canonical(t1), pr.canonical(t2)
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
