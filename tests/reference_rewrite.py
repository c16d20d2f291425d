"""Reference rewriting: the plain matcher the head-indexed one replaced.

`find_matches` tries every relation side at every window of every
flattened chain and rebuilds each result by canonicalising the whole
term.  `equivalent_bidirectional` searches over it from both ends, as
the package's search does, with plain sets and whole trails in place of
parent links; `equivalent_bounded` is the breadth-first search from the
start alone that the package's search replaced, and gives the verdict,
the trail length and the number of expansions to compare against.  All
are slow and obviously right, and tests compare the package's matcher
and search against them step by step.  The reference flattens chains with
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


def equivalent_bounded(t1, t2, p, depth, max_visited=100000, matches=None):
    """`SearchResult` of the breadth-first search from `t1` alone within
    `depth` levels and `max_visited` terms, over `find_matches` or over
    `matches(term, p)` if given (the package's matcher, once it has been
    checked against this one, makes a large search several times faster)."""
    table = rules(p)
    matches = matches or (lambda t, q: find_matches(t, q, table))
    start, goal = canonical(t1), canonical(t2)
    if start == goal:
        return pr.SearchResult(True, (), 0, "found")
    frontier, seen, expanded = [(start, ())], {start}, 0
    for _ in range(depth):
        nxt = []
        for term, trail in frontier:
            expanded += 1
            for step in matches(term, p):
                if step.result in seen:
                    continue
                if step.result == goal:
                    return pr.SearchResult(True, trail + (step,), expanded,
                                           "found")
                seen.add(step.result)
                if len(seen) > max_visited:
                    return pr.SearchResult(False, (), expanded, "budget")
                nxt.append((step.result, trail + (step,)))
        frontier = nxt
    return pr.SearchResult(False, (), expanded,
                           "depth" if frontier else "exhausted")


def equivalent_bidirectional(t1, t2, p, depth, max_visited=100000):
    """`SearchResult` of the search from both ends over `find_matches`.

    Each round grows the smaller frontier by one level, the start's on a
    tie, within `depth` levels in all and `max_visited` terms seen from
    both ends.  Each end keeps a set of its terms and, for each term of
    its frontier, the trail from its end.  A result the other end has
    seen must lie on that end's frontier, or the trail would not be
    shortest; the goal's trail is turned round step by step, each time
    with the first step back to the term before.
    """
    table = rules(p)
    start, goal = canonical(t1), canonical(t2)
    if start == goal:
        return pr.SearchResult(True, (), 0, "found")
    seen = [{start}, {goal}]
    frontiers = [[(start, ())], [(goal, ())]]
    expanded = 0
    for _ in range(depth):
        side = 1 if len(frontiers[1]) < len(frontiers[0]) else 0
        nxt = []
        for term, trail in frontiers[side]:
            expanded += 1
            for step in find_matches(term, p, table):
                if step.result in seen[side]:
                    continue
                if step.result in seen[1 - side]:
                    trails = [trail + (step,),
                              dict(frontiers[1 - side])[step.result]]
                    if side:
                        trails.reverse()
                    return pr.SearchResult(
                        True, trails[0] + _turned(goal, trails[1], p, table),
                        expanded, "found")
                seen[side].add(step.result)
                if len(seen[0]) + len(seen[1]) > max_visited:
                    return pr.SearchResult(False, (), expanded, "budget")
                nxt.append((step.result, trail + (step,)))
        frontiers[side] = nxt
        if not nxt:
            return pr.SearchResult(False, (), expanded, "exhausted")
    return pr.SearchResult(False, (), expanded, "depth")


def _turned(goal, trail, p, table):
    """The steps back along `trail`, a trail from `goal`, to `goal`."""
    terms = [goal] + [step.result for step in trail]
    steps = []
    for i in range(len(trail), 0, -1):
        steps.append(next(step for step in find_matches(terms[i], p, table)
                          if step.result == terms[i - 1]))
    return tuple(steps)
