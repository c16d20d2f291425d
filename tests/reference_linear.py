"""Reference census of a linear diagram, by brute-force sheet tracing.

The oracle for `linear.reconstruct_1manifold`, which wires a diagram as
an arc diagram and counts it with `_diagram.census`: this tracer builds
its own nodes on region boundaries, joins them by adjacency lists and
walks them in sorted order.  It shares no code with the arc-diagram
wiring.  Only tests use it.
"""

from bordcalc import linear as ln


def reconstruct_1manifold(d: ln.LinearDiagram) -> dict:
    """Count circles and intervals of the 1-manifold a diagram denotes.

    Brute-force sheet tracing: nodes live on region boundaries, caps and
    cups pair the top two sheets, separators rename labels.
    """
    regs = d.regions
    k = len(regs)
    # distinct node namespaces: ("L", i, s) and ("R", i, s) per region i
    pairs = []

    def join(a, b):
        pairs.append((a, b))

    for i, r in enumerate(regs):
        n = r.count
        if r.event == "cap":
            for s in range(n - 2):
                join(("L", i, s), ("R", i, s))
            join(("R", i, n - 2), ("R", i, n - 1))
        elif r.event == "cup":
            for s in range(n - 2):
                join(("L", i, s), ("R", i, s))
            join(("L", i, n - 2), ("L", i, n - 1))
        else:
            for s in range(n):
                join(("L", i, s), ("R", i, s))
    for i, sep in enumerate(d.separators):
        for s in range(sep.size):
            join(("R", i, s), ("L", i + 1, sep(s)))
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    open_ends = set()
    for s in range(regs[0].left_count):
        open_ends.add(("L", 0, s))
    for s in range(regs[-1].right_count):
        open_ends.add(("R", k - 1, s))
    seen = set()
    circles = intervals = 0
    for node in sorted(adj):
        if node in seen:
            continue
        comp, stack = set(), [node]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x])
        seen |= comp
        ends = sum(1 for x in comp if x in open_ends)
        if ends == 0:
            circles += 1
        elif ends == 2:
            intervals += 1
        else:
            raise ln.LinearError("component with %d open ends" % ends)
    return {"circles": circles, "intervals": intervals}
