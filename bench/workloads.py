"""The four workloads: seeded input generation and the checked ops.

Inputs are generated in a set-up process from the workload seed and
handed to the timed process as printed term text, so parsing is on the
timed path.  Every op checks its result against `oracle` or against an
independent second path (invariants before and after a rewrite, the
event-count Euler characteristic, replaying a search trail).

The op list is made of rounds.  Every round of a workload has the same
composition -- the same fixed ops plus the same number of random terms
from each stratum -- and a timed run stops only at the end of a round, so
the mix of work in a run does not depend on where the clock ran out.
"""

import random

import bordcalc  # noqa: F401  (the caller put the checkout's src/ first)
from bordcalc import build
from bordcalc import frobenius as fr
from bordcalc import presentations as pr
from bordcalc import standard_terms as stt
from bordcalc import surface as sf
from bordcalc import termcore as tc
from bordcalc._diagram import DiagramError

import oracle

# Random terms: build.random_term(events=EVENTS, max_leaves=MAX_LEAVES),
# kept when their leaf count is at most MAX_LEAVES.  Strata are by the
# number of rewrite matches (and, for the oriented corpus, by the number k
# of source components, which sets the n^k evaluator columns): the cost of
# one op grows with both, so fixing how many terms each round draws from
# each stratum keeps the cost of a round steady across seeds.
EVENTS = 5
MAX_LEAVES = 20
MAX_CANDIDATES = 20000
# Candidates each workload draws for every seed: about the mean number its
# rarest stratum needs to fill (semantic-invariance's (k 2, 1-4 matches)
# holds 3.5% of candidates, rewrite-invariance's 0 matches 9%,
# search's 13-24 matches 7%).
CANDIDATES = {"rewrite-invariance": 140, "semantic-invariance": 360,
              "search": 120}
SEARCH_DEPTH = 3
# Unreachable genus pairs (g, g+1) per search round, and how often each
# appears.  Genus 1 fills the middle of a round, so the median latency
# lands on its repeats; genus 2 is the slowest op, repeated so the tail
# (the 11th largest) lands in the middle of its repeats.
SEARCH_UNREACHABLE = {0: 1, 1: 4, 2: 2}
CLOSED_MAX_GENUS = {"M2Q": 7, "Q": 10, "QxQ": 10, "QZ2": 10, "Qx2": 10}
CLOSED_SURFACE_GENERA = range(8)
# A closed-sweep round holds the M2Q genus-7 evaluation (the largest
# evaluator state) this many times, so that the tail (the 11th largest
# latency) lands in the middle of its repeats, not on the boundary with
# genus 6 nor on its few fastest repeats.
CLOSED_TOP_REPEATS = 4

# Known defects of bordcalc (reproducers under known_defects in
# workloads.json): it raises these errors on a few valid random terms that
# validate() accepts.  A random term on which a workload's own calls raise
# one of them, with exactly this message, is left out of the corpus at
# set-up and counted in the corpus record as "screened"; any other error,
# and any wrong answer, stays in and fails its op in the timed loop.  More
# than MAX_SCREENED screened terms in one set-up fails the set-up, so a
# change that makes a known defect more frequent does not hide behind the
# screen.  Fixed ops (demo files, genus terms, verify) are never screened.
KNOWN_DEFECTS = (
    (sf.SurfaceError, "new arc produced twice"),
    (DiagramError, "component transfer is not a bijection"),
)
MAX_SCREENED = 3

MATCH_BUCKETS = ((0, 0, "m0"), (1, 4, "m1-4"), (5, 12, "m5-12"),
                 (13, 24, "m13-24"))


def match_bucket(m):
    for lo, hi, name in MATCH_BUCKETS:
        if lo <= m <= hi:
            return name
    return None


class Context:
    """Presentations, built-in algebras and their standard assignments."""

    def __init__(self):
        self.presentations = {"unoriented": pr.bord2_unoriented(),
                              "oriented": pr.bord2_oriented()}
        self.uno = self.presentations["unoriented"]
        self.ori = self.presentations["oriented"]
        self.algebras = {name: make()
                         for name, make in fr.BUILTIN_ALGEBRAS.items()}
        self.assignments = {
            (a, p): fr.standard_assignment(A, P)
            for a, A in self.algebras.items()
            for p, P in self.presentations.items()}


def source_components(term, p):
    """k for a random term: its source is a tensor of identity strands and
    closed elbow pairs (see build.random_source), one component each."""
    halves = 0
    for leaf in tc.morphism_leaves(tc.two_cell_source(term, p.data)):
        if isinstance(leaf, tc.Id1):
            halves += 2 * len(tc.obj_points(leaf.word))
        elif isinstance(leaf, tc.Gen1):
            halves += 1
    return halves // 2


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def known_defect(fn, term, steps):
    """True when `fn` raises a KNOWN_DEFECTS error on `term` or on one of
    its rewrites."""
    try:
        fn(term)
        for step in steps:
            fn(pr.apply(term, step))
    except Exception as exc:  # noqa: BLE001 -- only known ones are screened
        return any(isinstance(exc, cls) and str(exc) == msg
                   for cls, msg in KNOWN_DEFECTS)
    return False


def _draw(p, rng, candidates, quotas, rounds, by_k, stats, screen=None):
    """Seeded random terms, quota * rounds of them in each stratum.

    Every seed draws and classifies the same number of candidates, so the
    set-up work does not depend on how fast a seed fills the strata; more
    are drawn only while a stratum is still empty.  A stratum left short
    repeats its terms in order.  A term that would fill a stratum is first
    run through `screen` (the workload's own evaluating call), and left out
    when that raises a known defect.  Returns {stratum: [(term, its
    rewrite steps), ...]}; a stratum is (k, match bucket) when `by_k`, else
    (None, match bucket).
    """
    want = {s: q * rounds for s, q in quotas.items()}
    got = {s: [] for s in quotas}
    drawn = 0
    while drawn < candidates or not all(got.values()):
        drawn += 1
        if drawn > MAX_CANDIDATES:
            raise RuntimeError("a stratum is empty after %d candidates: %s"
                               % (MAX_CANDIDATES,
                                  {s: len(v) for s, v in got.items()}))
        try:
            term = build.random_term(p, rng.randrange(2 ** 31),
                                     events=EVENTS, max_leaves=MAX_LEAVES)
        except build.BuildError:
            continue
        leaves = tc.count_leaves(term)
        if leaves > MAX_LEAVES:
            continue
        k = source_components(term, p)
        steps = pr.find_matches(term, p)
        s = (k if by_k else None, match_bucket(len(steps)))
        if s in got and len(got[s]) < want[s]:
            if screen is not None and known_defect(screen, term, steps):
                stats["screened"] += 1
                if stats["screened"] > MAX_SCREENED:
                    raise RuntimeError(
                        "more than %d random terms hit a known defect of "
                        "bordcalc (KNOWN_DEFECTS)" % MAX_SCREENED)
                continue
            got[s].append((term, steps))
            stats["leaves"].append(leaves)
            stats["k"].append(k)
    stats["candidates"] = drawn
    stats["accepted"] = sum(len(v) for v in got.values())
    stats["repeated"] = sum(want[s] - len(v) for s, v in got.items())
    return {s: [v[i % len(v)] for i in range(want[s])]
            for s, v in got.items()}


def _rounds(rng, rounds, quotas, strata, fixed, make_op):
    """Interleave strata terms and fixed ops into shuffled rounds."""
    ops = []
    for r in range(rounds):
        rnd = list(fixed)
        for s, q in quotas.items():
            for item in strata[s][r * q:(r + 1) * q]:
                rnd.append(make_op(item))
        rng.shuffle(rnd)
        ops.extend(rnd)
    return ops


def _demo_ops(demo_texts, oriented, op):
    out = []
    for name in sorted(demo_texts):
        if name.endswith("_oriented.bc") == oriented:
            out.append({"op": op, "file": name, "text": demo_texts[name]})
    return out


def _first_in_stratum(p, stratum):
    """The first term of seeds 0, 1, 2, ... in `stratum`: a fixed input,
    the same for every workload seed."""
    seed = 0
    while True:
        term = build.random_term(p, seed, events=EVENTS, max_leaves=MAX_LEAVES)
        if tc.count_leaves(term) <= MAX_LEAVES and stratum == (
                source_components(term, p),
                match_bucket(len(pr.find_matches(term, p)))):
            return term
        seed += 1


# The tail latency is the 11th largest of a run.  Each rewrite- and
# semantic-invariance round holds one fixed op heavier than every random
# term it draws, so the tail lands on that op's repeats instead of on
# whichever random terms a seed drew.
REWRITE_HEAVY_GENUS = 5
SEMANTIC_HEAVY_STRATUM = (2, "m5-12")


def gen_rewrite_invariance(ctx, rng, demo_texts, stats):
    p = ctx.uno
    quotas = {(None, "m0"): 1, (None, "m1-4"): 3, (None, "m5-12"): 2}
    rounds = 12
    strata = _draw(p, rng, CANDIDATES["rewrite-invariance"], quotas, rounds,
                   False, stats, screen=lambda t: sf.reconstruct(t, p))
    fixed = _demo_ops(demo_texts, False, "invariance")
    for g in (3, REWRITE_HEAVY_GENUS):
        fixed.append({"op": "invariance", "genus": g,
                      "text": tc.print_two_cell(stt.genus(p, g))})
    ops = _rounds(rng, rounds, quotas, strata, fixed,
                  lambda item: {"op": "invariance",
                                "text": tc.print_two_cell(item[0])})
    return ops, len(ops) // rounds


def gen_semantic_invariance(ctx, rng, demo_texts, stats):
    p = ctx.ori
    quotas = {(0, "m0"): 1, (1, "m0"): 1, (1, "m1-4"): 2, (1, "m5-12"): 1,
              (2, "m1-4"): 2}
    rounds = 6
    asg = ctx.assignments[("M2Q", "oriented")]
    strata = _draw(p, rng, CANDIDATES["semantic-invariance"], quotas, rounds,
                   True, stats, screen=lambda t: fr.evaluate(t, asg))
    fixed = _demo_ops(demo_texts, True, "semantic")
    heavy = _first_in_stratum(p, SEMANTIC_HEAVY_STRATUM)
    fixed.append({"op": "semantic", "text": tc.print_two_cell(heavy)})
    fixed.append({"op": "semantic", "genus": 3,
                  "text": tc.print_two_cell(stt.genus(p, 3))})
    for a in sorted(ctx.algebras):
        for pname in sorted(ctx.presentations):
            fixed.append({"op": "verify", "algebra": a, "presentation": pname})
    ops = _rounds(rng, rounds, quotas, strata, fixed,
                  lambda item: {"op": "semantic",
                                "text": tc.print_two_cell(item[0])})
    return ops, len(ops) // rounds


def gen_closed_sweep(ctx, rng, demo_texts, stats):
    p = ctx.ori
    highest = max(max(CLOSED_MAX_GENUS.values()), max(CLOSED_SURFACE_GENERA))
    texts = {g: tc.print_two_cell(stt.genus(p, g)) for g in range(highest + 1)}
    fixed = []
    for a, gmax in sorted(CLOSED_MAX_GENUS.items()):
        for g in range(gmax + 1):
            fixed.append({"op": "closed_eval", "algebra": a, "genus": g,
                          "text": texts[g]})
    top = {"op": "closed_eval", "algebra": "M2Q",
           "genus": CLOSED_MAX_GENUS["M2Q"]}
    top["text"] = texts[top["genus"]]
    fixed += [dict(top) for _ in range(CLOSED_TOP_REPEATS - 1)]
    for g in CLOSED_SURFACE_GENERA:
        fixed.append({"op": "closed_surface", "genus": g, "text": texts[g]})
    rounds = 4
    ops = []
    for _ in range(rounds):
        rnd = list(fixed)
        rng.shuffle(rnd)
        ops.extend(rnd)
    return ops, len(fixed)


def gen_search(ctx, rng, demo_texts, stats):
    p = ctx.uno
    quotas = {(None, "m1-4"): 1, (None, "m5-12"): 1, (None, "m13-24"): 1}
    rounds = 8
    strata = _draw(p, rng, CANDIDATES["search"], quotas, rounds,
                   False, stats)

    def reachable(item):
        # The goal is a rewrite of the last new term on the search's first
        # level, and not itself on that level, so the search expands the
        # whole first level before it meets the goal: the cost depends on
        # the term, not on where a random first rewrite sits in that level.
        term, steps = item
        start = pr.canonical(term)
        level1 = []
        for step in steps:
            if step.result != start and step.result not in level1:
                level1.append(step.result)
        mid = level1[-1] if level1 else start
        seen = {start, *level1}
        nxt = [r for r in pr.find_matches(mid, p) if r.result not in seen]
        goal = nxt[rng.randrange(len(nxt))].result if nxt else mid
        return {"op": "search", "reachable": True,
                "start": tc.print_two_cell(term),
                "goal": tc.print_two_cell(goal)}

    fixed = [{"op": "search", "reachable": False, "genus": g,
              "start": tc.print_two_cell(stt.genus(p, g)),
              "goal": tc.print_two_cell(stt.genus(p, g + 1))}
             for g, repeats in SEARCH_UNREACHABLE.items()
             for _ in range(repeats)]
    ops = _rounds(rng, rounds, quotas, strata, fixed, reachable)
    return ops, len(ops) // rounds


GENERATORS = {
    "rewrite-invariance": gen_rewrite_invariance,
    "semantic-invariance": gen_semantic_invariance,
    "closed-sweep": gen_closed_sweep,
    "search": gen_search,
}

# Rounds replayed per pass of a traced run.
TRACE_ROUNDS = {
    "rewrite-invariance": 2,
    "semantic-invariance": 2,
    "closed-sweep": 1,
    "search": 2,
}


def generate(name, seed, ctx, demo_texts):
    """The seeded input document of one workload (JSON-ready)."""
    rng = random.Random("%s/%d" % (name, seed))
    stats = {"candidates": 0, "accepted": 0, "repeated": 0, "screened": 0,
             "leaves": [], "k": []}
    ops, round_len = GENERATORS[name](ctx, rng, demo_texts, stats)
    corpus = {key: stats[key]
              for key in ("candidates", "accepted", "repeated", "screened")}
    if stats["leaves"]:
        corpus["leaves"] = [min(stats["leaves"]), max(stats["leaves"])]
        corpus["k"] = [min(stats["k"]), max(stats["k"])]
    return {"workload": name, "seed": seed, "round": round_len,
            "corpus": corpus, "ops": ops}


# ---------------------------------------------------------------------------
# ops: each returns True when every check holds
# ---------------------------------------------------------------------------

def _expected_surface(op):
    if "file" in op:
        return oracle.DEMO_SURFACES.get(op["file"])
    if "genus" in op:
        return (oracle.genus_euler(op["genus"]), True, op["genus"])
    return None


def _closed_surface_ok(inv, chi_events, expect):
    chi, orientable, _ = expect
    return ([(c.euler_characteristic, c.orientable, c.boundary_circles)
             for c in inv.components] == [(chi, orientable, 0)]
            and chi_events == chi)


def op_invariance(ctx, op):
    p = ctx.uno
    term = tc.parse_two_cell(op["text"], p.data)
    ok = tc.validate(term, p.data).ok
    before = sf.invariants(sf.reconstruct(term, p))
    for step in pr.find_matches(term, p):
        after = sf.invariants(sf.reconstruct(pr.apply(term, step), p))
        ok = ok and after == before
    try:
        chi = sf.euler_by_events(term, p)
    except sf.SurfaceError:
        chi = None
    if chi is not None:
        ok = ok and chi == before.euler_characteristic
    expect = _expected_surface(op)
    if expect is not None:
        ok = ok and _closed_surface_ok(before, chi, expect)
    return ok


def op_semantic(ctx, op):
    p = ctx.ori
    asg = ctx.assignments[("M2Q", "oriented")]
    term = tc.parse_two_cell(op["text"], p.data)
    base = fr.evaluate(term, asg)
    ok = True
    for step in pr.find_matches(term, p):
        ok = fr.evaluate(pr.apply(term, step), asg) == base and ok
    expect = _expected_surface(op)
    if expect is not None:
        ok = ok and base.is_scalar and \
            base.scalar == oracle.closed_surface_value("M2Q", expect[2])
    return ok


def op_verify(ctx, op):
    rep = fr.verify_presentation(ctx.algebras[op["algebra"]],
                                 ctx.presentations[op["presentation"]])
    expected = oracle.VERIFY_FAILURES[(op["algebra"], op["presentation"])]
    return sorted(rep.failures()) == sorted(expected)


def op_closed_eval(ctx, op):
    p = ctx.ori
    term = tc.parse_two_cell(op["text"], p.data)
    v = fr.evaluate(term, ctx.assignments[(op["algebra"], "oriented")])
    return v.is_scalar and \
        v.scalar == oracle.closed_surface_value(op["algebra"], op["genus"])


def op_closed_surface(ctx, op):
    p = ctx.ori
    term = tc.parse_two_cell(op["text"], p.data)
    inv = sf.invariants(sf.reconstruct(term, p))
    return _closed_surface_ok(inv, sf.euler_by_events(term, p),
                              _expected_surface(op))


def op_search(ctx, op):
    p = ctx.uno
    start = tc.parse_two_cell(op["start"], p.data)
    goal = tc.parse_two_cell(op["goal"], p.data)
    res = pr.equivalent_bounded(start, goal, p, depth=SEARCH_DEPTH)
    if not op["reachable"]:
        # genus g and g+1 differ in chi, so no rewrite path can exist
        return not res.equivalent
    if not res.equivalent or len(res.steps) > SEARCH_DEPTH:
        return False
    cur = start
    for step in res.steps:
        cur = pr.apply(cur, step)
    return pr.canonical(cur) == pr.canonical(goal)


OPS = {
    "invariance": op_invariance,
    "semantic": op_semantic,
    "verify": op_verify,
    "closed_eval": op_closed_eval,
    "closed_surface": op_closed_surface,
    "search": op_search,
}


def run_op(ctx, op):
    return OPS[op["op"]](ctx, op)
