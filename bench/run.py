"""bordcalc benchmark: seeded workloads, checked ops, per-layer spans.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; bordcalc is imported from its `src/`.
Set-up (import, presentations, algebras, assignments, seeded inputs) runs
SETUP_REPEATS times, each in a fresh process that prints the inputs; the
timed process receives only that text.  The load is a closed loop: one
caller issues each op after the previous one has finished.

With --trace 0 the last line of stdout is a JSON object carrying the
end-to-end metrics; op times in it are at reference speed (see
`reference_time`), and the wall-clock values are printed beside them.
With --trace 1 it carries the per-layer metrics, from
passes over the first rounds of the op list run alternately without and
with spans, and the spans are written to bench/out/.
"""

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEMO_TERMS = ROOT / "demos" / "terms"
OUT = BENCH / "out"

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
TAIL_BEYOND = 10
# Reference speed: the speed at which one reference loop takes REF_S.
REF_S = 0.001
REF_ITERATIONS = 1000
# The timer runs the reference loop this often (wall seconds).
SAMPLE_EVERY_S = 0.05
WORKLOAD_NAMES = ("rewrite-invariance", "semantic-invariance", "closed-sweep",
                  "search")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken set-up)."""


def _import_bordcalc():
    """Import bordcalc from this checkout's src/ and nowhere else."""
    if not (SRC / "bordcalc" / "__init__.py").is_file():
        raise BenchError("no bordcalc sources at %s" % SRC)
    if not DEMO_TERMS.is_dir():
        raise BenchError("no demo terms at %s" % DEMO_TERMS)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import bordcalc
    import bordcalc.build  # noqa: F401
    import bordcalc.standard_terms  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(bordcalc.__file__).resolve().parent != (SRC / "bordcalc").resolve():
        raise BenchError("bordcalc imported from %s, not from %s"
                         % (bordcalc.__file__, SRC))
    return elapsed


def _demo_texts():
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted(DEMO_TERMS.glob("*.bc"))}


# ---------------------------------------------------------------------------
# reference speed
# ---------------------------------------------------------------------------

def _reference_work():
    d = {}
    s = 0
    for i in range(REF_ITERATIONS):
        key = (i % 53, "k%d" % (i % 17))
        d[key] = d.get(key, 0) + 1
        s += len(d)
    return s


def reference_time():
    """Wall time of one run of a fixed pure-Python loop.

    The host this benchmark was written on runs the same code at speeds up
    to ~1.6x apart, switching within a second and drifting over minutes, so
    raw op times spread more from run to run than the bounds allow.  The
    timed loop runs this loop after every op, and a timer runs it every
    SAMPLE_EVERY_S (SpeedSampler); each op's time, less the timer's, is
    scaled by the mean of REF_S / (reference time) over the samples just
    before, during and just after it: op times at reference speed.  Set-up
    times are scaled the same way by the samples taken while they run.
    The reference loop is the benchmark's own code, the same on every
    commit, so a change to bordcalc moves the scaled times as it moves the
    raw ones.
    """
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs the reference loop from a SIGALRM handler every SAMPLE_EVERY_S
    while set-up or the timed loop works; `refs` are the sampled times and
    `spent` their sum, to be taken off the time of the work they
    interrupted."""

    def __init__(self):
        self.refs = []
        self.spent = 0.0
        self._busy = False

    def measure(self):
        """One reference time, safe from the timer."""
        self._busy = True
        try:
            return reference_time()
        finally:
            self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        t = self.measure()
        self.refs.append(t)
        self.spent += t

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


# ---------------------------------------------------------------------------
# set-up process
# ---------------------------------------------------------------------------

def setup_child(workload, seed, trace):
    """Build everything and print the inputs, then one JSON line with the
    reference-loop samples (and the set-up spans if traced)."""
    sampler = SpeedSampler()
    if not trace:  # keep the sampler's time out of the set-up spans
        sampler.start()
    import_s = _import_bordcalc()
    import spans
    import workloads
    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
    ctx = workloads.Context()
    doc = workloads.generate(workload, seed, ctx, _demo_texts())
    # The timer stops before the inputs go out: a write to the parent's
    # pipe that the signal interrupts can lose its tail.
    sampler.stop()
    print(json.dumps(doc, sort_keys=True))
    meta = {"refs": sampler.refs, "sampler_s": sampler.spent}
    if tracer is not None:
        tracer.uninstall()
        tracer.fold()
        incl = tracer.inclusive
        corpus = doc["corpus"]
        meta["trace"] = {
            "bordcalc.import_s": import_s,
            "build.random_term_s": incl["build.random_term"],
            "standard_terms.genus_s": incl["standard_terms.genus"],
            "build.accept_ratio": (corpus["accepted"] / corpus["candidates"]
                                   if corpus["candidates"] else 1.0),
        }
    print(json.dumps(meta))


def scaled_setup_time(wall, meta):
    """A set-up's wall time less the sampler's own time, at reference
    speed: the samples are evenly spread in time, so the mean of
    REF_S / sample is the set-up's mean speed factor."""
    refs = meta["refs"] or [reference_time()]
    return (wall - meta["sampler_s"]) * statistics.mean(
        REF_S / r for r in refs)


def run_setups(workload, seed, trace):
    """Set up SETUP_REPEATS times; return (inputs, set-up times at
    reference speed, wall times, trace lines)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-child",
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    docs, times, walls, traced = [], [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=SETUP_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if res.returncode != 0:
            raise BenchError("set-up failed:\n%s" % res.stderr.strip())
        lines = res.stdout.splitlines()
        docs.append(lines[0])
        meta = json.loads(lines[1])
        walls.append(wall)
        times.append(scaled_setup_time(wall, meta))
        if trace:
            traced.append(meta["trace"])
    if len(set(docs)) != 1:
        raise BenchError("set-up is not deterministic: the same seed gave "
                         "different inputs")
    return json.loads(docs[0]), times, walls, traced


# ---------------------------------------------------------------------------
# timed loop
# ---------------------------------------------------------------------------

class Outcome:
    def __init__(self, sampler=None):
        self.latencies = []
        self.factors = []  # REF_S / reference time, around each op
        self.sampler = sampler
        self.last_ref = sampler.measure() if sampler is not None else None
        self.failed = 0
        self.errors = []
        self.elapsed = 0.0
        self.wall = 0.0
        self.rounds = 0

    def scaled_latencies(self):
        """Op times at reference speed (needs a sampler)."""
        return [t * f for t, f in zip(self.latencies, self.factors)]


def run_ops(ctx, ops, outcome, run_op, tracer=None, op_base=0):
    """Run `ops` once in order, closed loop; each op is tried exactly once."""
    clock = time.perf_counter
    sampler = outcome.sampler
    for i, op in enumerate(ops):
        handle = tracer.begin_op(op_base + i) if tracer is not None else None
        if sampler is not None:
            n0, spent0 = len(sampler.refs), sampler.spent
        t0 = clock()
        try:
            ok = run_op(ctx, op)
        except Exception:  # a raising op is a failed op, never retried
            ok = False
            if len(outcome.errors) < 3:
                outcome.errors.append("%s  in op %s" % (
                    traceback.format_exc(limit=-2), op_key(op)[:300]))
        t1 = clock()
        if handle is not None:
            tracer.end_op(handle)
        latency = t1 - t0
        if sampler is not None:
            latency -= sampler.spent - spent0
            after = sampler.measure()
            refs = [outcome.last_ref, *sampler.refs[n0:], after]
            outcome.factors.append(statistics.mean(REF_S / r for r in refs))
            outcome.last_ref = after
        outcome.latencies.append(latency)
        outcome.elapsed += latency
        if not ok:
            outcome.failed += 1


def timed_run(ctx, doc, seconds, run_op):
    """Whole rounds, cycling through the op list, until `seconds` passed."""
    ops, round_len = doc["ops"], doc["round"]
    rounds = [ops[i:i + round_len] for i in range(0, len(ops), round_len)]
    sampler = SpeedSampler()
    sampler.start()
    try:
        outcome = Outcome(sampler)
        start = time.perf_counter()
        r = 0
        while True:
            run_ops(ctx, rounds[r % len(rounds)], outcome, run_op)
            r += 1
            if time.perf_counter() - start >= seconds:
                break
    finally:
        sampler.stop()
    outcome.wall = time.perf_counter() - start
    outcome.rounds = r
    return outcome


def op_key(op):
    return json.dumps(op, sort_keys=True)


def tail_latency(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it:
    the (TAIL_BEYOND+1)-th largest.  Returns (value, percentile, n)."""
    s = sorted(latencies)
    n = len(s)
    i = max(0, n - 1 - TAIL_BEYOND)
    return s[i], 100.0 * (i + 1) / n, n


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

BOUNDARY = ("two_cell_boundary", "two_cell_source", "two_cell_target",
            "morphism_boundary", "morphism_source", "morphism_target")

# metric -> layer entries whose self time it sums (entries are the span
# that entered the layer; calls inside a layer stay with that span)
SELF_TIME_METRICS = {
    "termcore.parse_s": ["termcore.parse_two_cell"],
    "termcore.validate_s": ["termcore.validate"],
    "termcore.boundary_s": ["termcore." + b for b in BOUNDARY],
    "presentations.find_matches_s": ["presentations.find_matches"],
    "presentations.apply_s": ["presentations.apply"],
    "presentations.search_s": ["presentations.equivalent_bounded"],
    "diagram.run_movie_s": ["diagram.run_movie"],
    "surface.reconstruct_s": ["surface.reconstruct"],
    "surface.invariants_s": ["surface.invariants"],
    "surface.euler_by_events_s": ["surface.euler_by_events"],
    "frobenius.evaluate_s": ["frobenius.evaluate"],
    "frobenius.verify_s": ["frobenius.verify_presentation"],
}
LAYER_SELF_METRICS = ("termcore", "presentations", "diagram", "surface",
                      "frobenius", "bench")


def _observers(count_leaves):
    return {
        "termcore.parse_two_cell":
            lambda c, r: c.update({"termcore.leaves": count_leaves(r)}),
        "presentations.find_matches":
            lambda c, r: c.update({"presentations.matches": len(r)}),
        "surface.reconstruct":
            lambda c, r: c.update({"surface.faces": len(r.complex.faces)}),
        "frobenius.evaluate":
            lambda c, r: c.update({"frobenius.columns": len(r.matrix[0])}),
    }


def layer_metrics(tracer, n_ops):
    by_entry, by_layer = tracer.self_by_entry, tracer.self_by_layer
    spans_by_name = tracer.span_counts
    calls, counts = tracer.calls, tracer.counts
    m = {}
    for name, entries in SELF_TIME_METRICS.items():
        m[name] = (sum(by_entry[e] for e in entries) / n_ops, "s/op")
    for layer in LAYER_SELF_METRICS:
        m[layer + ".self_s"] = (by_layer[layer] / n_ops, "s/op")
    per_op = lambda x: (x / n_ops, "count/op")
    m["termcore.leaves"] = per_op(counts["termcore.leaves"])
    m["termcore.boundary_calls"] = per_op(
        sum(calls["termcore." + b] for b in BOUNDARY))
    m["presentations.find_matches_calls"] = per_op(
        calls["presentations.find_matches"])
    m["presentations.matches"] = per_op(counts["presentations.matches"])
    # find_matches calls made from inside presentations: the search's
    # frontier expansions (the only in-layer caller)
    m["presentations.nodes_expanded"] = per_op(
        calls["presentations.find_matches"]
        - spans_by_name["presentations.find_matches"])
    m["diagram.movie_runs"] = per_op(calls["diagram.run_movie"])
    m["diagram.events"] = per_op(calls["diagram.MovieState.apply_event"])
    m["surface.faces"] = per_op(counts["surface.faces"])
    m["frobenius.evaluate_calls"] = per_op(calls["frobenius.evaluate"])
    m["frobenius.columns"] = per_op(counts["frobenius.columns"])
    return m


def traced_run(ctx, doc, seconds, run_op, trace_rounds):
    """Alternate untraced and traced passes over the first rounds."""
    import spans
    from bordcalc import termcore as tc
    ops = doc["ops"][:doc["round"] * trace_rounds]
    tracer = spans.Tracer()
    observers = _observers(tc.count_leaves)
    plain, traced = Outcome(), Outcome()
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        run_ops(ctx, ops, plain, run_op)
        tracer.install(observers)
        try:
            run_ops(ctx, ops, traced, run_op, tracer, passes * len(ops))
        finally:
            tracer.uninstall()
        tracer.fold(keep=passes == 0)
        passes += 1
    metrics = layer_metrics(tracer, passes * len(ops))
    metrics["bench.trace_overhead_ratio"] = (plain.elapsed / traced.elapsed,
                                             "ratio")
    failed = plain.failed + traced.failed
    attempted = len(plain.latencies) + len(traced.latencies)
    return metrics, tracer, attempted, failed, plain.errors + traced.errors


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _fmt(v):
    return "%.6g" % v


def run_workload(workload, seed, seconds, trace):
    _import_bordcalc()
    import workloads
    doc, setup_times, setup_walls, setup_traces = run_setups(workload, seed,
                                                            trace)
    ctx = workloads.Context()
    print("workload %s seed %d seconds %d trace %d: %d ops in %d rounds, "
          "corpus %s" % (workload, seed, seconds, trace, len(doc["ops"]),
                         len(doc["ops"]) // doc["round"],
                         json.dumps(doc["corpus"], sort_keys=True)))
    if trace:
        metrics, tracer, attempted, failed, errors = traced_run(
            ctx, doc, seconds, workloads.run_op,
            workloads.TRACE_ROUNDS[workload])
        for key in setup_traces[0]:
            unit = "ratio" if key.endswith("ratio") else "s/setup"
            metrics[key] = (statistics.median(t[key] for t in setup_traces),
                            unit)
        path = OUT / ("spans-%s-seed%d.jsonl.gz" % (workload, seed))
        tracer.write(path)
        print("spans of the first traced pass (%d) written to %s"
              % (len(tracer.kept[0]), path.relative_to(ROOT)))
    else:
        out = timed_run(ctx, doc, seconds, workloads.run_op)
        attempted, failed, errors = len(out.latencies), out.failed, out.errors
        scaled = out.scaled_latencies()
        tail, pct, n = tail_latency(scaled)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "throughput_ops_s": (attempted / sum(scaled), "1/s"),
            "latency_p50_ms": (1000 * statistics.median(scaled), "ms"),
            "latency_tail_ms": (1000 * tail, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        print("tail percentile p%.2f (%d samples beyond it, %d samples); "
              "%d rounds in %.2f s wall"
              % (pct, TAIL_BEYOND, n, out.rounds, out.wall))
        print("wall clock, unscaled: throughput_ops_s %s, latency_p50_ms %s, "
              "latency_tail_ms %s, setup_s %s; reference loop median %s ms "
              "(%s ms is reference speed)"
              % (_fmt(attempted / out.elapsed),
                 _fmt(1000 * statistics.median(out.latencies)),
                 _fmt(1000 * tail_latency(out.latencies)[0]),
                 _fmt(statistics.median(setup_walls)),
                 _fmt(1000 * statistics.median(out.sampler.refs)),
                 _fmt(1000 * REF_S)))
    for err in errors:
        print("op failed:\n%s" % err, file=sys.stderr)
    for name in sorted(metrics):
        value, unit = metrics[name]
        print("%s %s %s" % (name, _fmt(value), unit))
    print("failed_ratio %s ratio (%d of %d ops)"
          % (_fmt(failed / attempted), failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))


def run_all(seed, seconds, trace):
    """Every workload, each in its own process; returns an exit code."""
    code = 0
    for name in WORKLOAD_NAMES:
        res = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)], cwd=ROOT)
        code = code or res.returncode
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, each in its own process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload is None:
        ap.error("--workload or --all is required")
    try:
        if args.setup_child:
            setup_child(args.workload, args.seed, args.trace)
        else:
            run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
