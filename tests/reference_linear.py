"""Reference census and moves of linear diagrams.

The oracle for `linear.reconstruct_1manifold`, which wires a diagram as
an arc diagram and counts it with `_diagram.census`: this tracer builds
its own nodes on region boundaries, joins them by adjacency lists and
walks them in sorted order.  It shares no code with the arc-diagram
wiring.

The oracle for `linear.apply_linear_move`, which writes commute and
absorb once for a cap and plays a cup on the mirrored diagram: this
`apply_linear_move` writes the cap and cup halves of each move out
separately.  Only tests use either.
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


# ---------------------------------------------------------------------------
# the five moves as they were written before caps and cups shared one rule:
# each half of commute and absorb spelled out, and the three permutation
# helpers commute reads
# ---------------------------------------------------------------------------

def fixes_top_pair(p):
    n = p.size
    return n >= 2 and p.images[n - 1] == n - 1 \
        and p.images[n - 2] == n - 2


def restrict(p, k):
    if any(p.images[i] >= k for i in range(k)):
        raise ln.LinearError("permutation does not restrict")
    return ln.Perm(tuple(p.images[:k]))


def extend(p, n):
    if n < p.size:
        raise ln.LinearError("cannot shrink a permutation")
    return ln.Perm(tuple(p.images) + tuple(range(p.size, n)))


def apply_linear_move(d: ln.LinearDiagram, move: str, position: int,
                      side: str = "left") -> ln.LinearDiagram:
    """Apply one of the five moves at a region position.

    * isotopy: insert a plain region (with identity separators) at
      `position` (0..len(regions)).
    * commute_small_sigma: at a cap/cup region, move the part of the
      adjacent big-side separator fixing the top pair across the region
      (side = "left"/"right" names the separator to consume).
    * absorb_transposition: toggle the transposition (N-1 N) on the big
      side of a cap/cup region.
    * merge_permutations: delete the plain region at `position`, composing
      its separators.
    * cancel_cup_cap: replace the cap-sep-cup triple starting at
      `position`, whose separator is the cycle (N-2 N-1 N), by a plain
      region.
    """
    if side not in ("left", "right"):
        raise ln.LinearError("side must be 'left' or 'right', not %r"
                             % (side,))
    regs, seps = list(d.regions), list(d.separators)
    if move != "isotopy" and not 0 <= position < len(regs):
        raise ln.LinearError("position out of range")
    if move == "isotopy":
        if not 0 <= position <= len(regs):
            raise ln.LinearError("position out of range")
        if position == 0:
            n = regs[0].left_count
            regs.insert(0, ln.Region(n, None))
            seps.insert(0, ln.identity_perm(n))
        else:
            n = regs[position - 1].right_count
            regs.insert(position, ln.Region(n, None))
            seps.insert(position - 1, ln.identity_perm(n))
        return ln.LinearDiagram(tuple(regs), tuple(seps))
    if move == "merge_permutations":
        r = regs[position]
        if r.event is not None:
            raise ln.LinearError("can only merge across a plain region")
        if len(regs) == 1:
            raise ln.LinearError("cannot remove the only region")
        left = seps[position - 1] if position > 0 else None
        right = seps[position] if position < len(seps) else None
        if left is not None and right is not None:
            combined = left.then(right)
            del regs[position]
            del seps[position]
            seps[position - 1] = combined
        elif left is not None:
            del regs[position]
            del seps[position - 1]
        elif right is not None:
            del regs[position]
            del seps[position]
        return ln.LinearDiagram(tuple(regs), tuple(seps))
    if move == "absorb_transposition":
        r = regs[position]
        if r.event not in ("cap", "cup"):
            raise ln.LinearError("absorb applies at a critical region")
        n = r.count
        swap = ln.perm_from_cycles(n, [[n - 1, n]])
        if r.event == "cap":
            if position == len(seps):
                raise ln.LinearError("cap has no right separator")
            seps[position] = swap.then(seps[position])
        else:
            if position == 0:
                raise ln.LinearError("cup has no left separator")
            seps[position - 1] = seps[position - 1].then(swap)
        return ln.LinearDiagram(tuple(regs), tuple(seps))
    if move == "commute_small_sigma":
        r = regs[position]
        if r.event not in ("cap", "cup"):
            raise ln.LinearError("commute applies at a critical region")
        n = r.count
        has_left = position > 0
        has_right = position < len(seps)
        if not (has_left and has_right):
            raise ln.LinearError("region needs separators on both sides")
        big_on_right = (r.event == "cap")
        if (side == "right") == big_on_right:
            # consume the big-side separator; it must fix the critical pair
            idx = position if big_on_right else position - 1
            sigma = seps[idx]
            if not fixes_top_pair(sigma):
                raise ln.LinearError("separator moves the critical pair")
            small = restrict(sigma, n - 2)
            seps[idx] = ln.identity_perm(n)
            other = position - 1 if big_on_right else position
            seps[other] = (seps[other].then(small) if big_on_right
                           else small.then(seps[other]))
        else:
            # consume the small-side separator and extend it across
            idx = position - 1 if big_on_right else position
            small = seps[idx]
            seps[idx] = ln.identity_perm(n - 2)
            other = position if big_on_right else position - 1
            seps[other] = (extend(small, n).then(seps[other])
                           if big_on_right
                           else seps[other].then(extend(small, n)))
        return ln.LinearDiagram(tuple(regs), tuple(seps))
    if move == "cancel_cup_cap":
        if position + 1 >= len(regs):
            raise ln.LinearError("need two regions from the position")
        r1, r2 = regs[position], regs[position + 1]
        if r1.event != "cap" or r2.event != "cup" or r1.count != r2.count:
            raise ln.LinearError("cancel applies to a cap-cup pair")
        n = r1.count
        sigma = seps[position]
        want = ln.perm_from_cycles(n, [[n - 2, n - 1, n]])
        if sigma != want:
            raise ln.LinearError("separator is not the canonical 3-cycle")
        plain = ln.Region(n - 2, None)
        regs[position:position + 2] = [plain]
        del seps[position]
        return ln.LinearDiagram(tuple(regs), tuple(seps))
    raise ln.LinearError("unknown move %r" % move)
