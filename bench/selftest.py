"""Self-tests of the benchmark harness (not of bordcalc).

    python3 bench/selftest.py

* The same seed gives byte-identical inputs from two fresh set-up
  processes, and another seed gives a different corpus drawn from the
  same number of candidates.
* A corrupted expected value, and an op that raises, each count as failed
  ops in failed_ratio; nothing is retried or dropped.
* The set-up screen leaves out only the known defects, with their exact
  messages, and each reproducer in workloads.json still raises its error
  (when one no longer does, drop it from workloads.KNOWN_DEFECTS).
"""

import copy
import json
import subprocess
import sys

import run

FAILURES = []


def check(ok, what):
    print("%s %s" % ("PASS" if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def setup_output(workload, seed):
    res = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--setup-child",
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
        timeout=run.SETUP_TIMEOUT_S)
    return res.stdout.splitlines()[0]


def term_texts(doc):
    return {op.get("text") or op.get("start") for op in doc["ops"]}


def test_seeded_inputs():
    for workload in run.WORKLOAD_NAMES:
        a, b = setup_output(workload, 1), setup_output(workload, 1)
        check(a == b, "%s: seed 1 gives byte-identical inputs" % workload)
        c = setup_output(workload, 2)
        check(a != c, "%s: seed 2 gives different inputs" % workload)
        if workload != "closed-sweep":  # the genus family itself is fixed
            da, dc = json.loads(a), json.loads(c)
            check(term_texts(da) != term_texts(dc),
                  "%s: seed 2 gives a different corpus" % workload)
            check(da["corpus"]["candidates"] == dc["corpus"]["candidates"],
                  "%s: seeds 1 and 2 draw the same number of candidates"
                  % workload)


def failed_ratio(ctx, ops, run_op):
    out = run.Outcome()
    run.run_ops(ctx, ops, out, run_op)
    return out.failed / len(out.latencies), out


def test_failure_accounting():
    import oracle
    import workloads
    ctx = workloads.Context()
    demos = run._demo_texts()
    doc = workloads.generate("closed-sweep", 1, ctx, demos)
    one_round = doc["ops"][:doc["round"]]
    one_round = [op for op in one_round if op["op"] != "closed_eval"
                 or op["genus"] <= 4]
    ratio, _ = failed_ratio(ctx, one_round, workloads.run_op)
    check(ratio == 0, "closed-sweep round passes its oracle")

    true_value = oracle.closed_surface_value
    oracle.closed_surface_value = (
        lambda a, g: true_value(a, g) + (1 if a == "M2Q" else 0))
    try:
        ratio, out = failed_ratio(ctx, one_round, workloads.run_op)
    finally:
        oracle.closed_surface_value = true_value
    n_m2q = sum(1 for op in one_round if op.get("algebra") == "M2Q")
    check(out.failed == n_m2q and ratio > 0,
          "corrupted lambda(H^g) on M2Q fails exactly the %d M2Q ops "
          "(failed_ratio %.3f)" % (n_m2q, ratio))

    verify = [{"op": "verify", "algebra": "Qx2", "presentation": "unoriented"}]
    ratio, _ = failed_ratio(ctx, verify, workloads.run_op)
    check(ratio == 0, "Qx2 unoriented verify matches the expected failures")
    saved = copy.deepcopy(oracle.VERIFY_FAILURES)
    oracle.VERIFY_FAILURES[("Qx2", "unoriented")] = ["cusp-inversion-pt-strip"]
    try:
        ratio, _ = failed_ratio(ctx, verify, workloads.run_op)
    finally:
        oracle.VERIFY_FAILURES.clear()
        oracle.VERIFY_FAILURES.update(saved)
    check(ratio == 1, "a dropped expected verify failure is a failed op")

    calls = []

    def counting(ctx_, op):
        calls.append(op)
        return workloads.run_op(ctx_, op)

    broken = [{"op": "invariance", "text": "(cap . cap)"},
              {"op": "invariance", "text": demos["sphere.bc"],
               "file": "sphere.bc"}]
    ratio, out = failed_ratio(ctx, broken, counting)
    check(out.failed == 1 and len(calls) == 2 and len(out.errors) == 1,
          "an op that raises is one failed op, tried once, and the loop "
          "goes on")


def test_known_defect_screen():
    import workloads
    from bordcalc import frobenius as fr
    from bordcalc import surface as sf
    from bordcalc import termcore as tc

    def raising(exc):
        def fn(term):
            raise exc
        return fn

    check(workloads.known_defect(
        raising(sf.SurfaceError("new arc produced twice")), None, []),
        "a known defect is screened")
    check(not workloads.known_defect(
        raising(sf.SurfaceError("slot glued twice")), None, []),
        "another SurfaceError is not screened")
    check(not workloads.known_defect(
        raising(ValueError("new arc produced twice")), None, []),
        "another error type with a known message is not screened")
    check(not workloads.known_defect(lambda term: None, None, []),
          "a term on which nothing raises is not screened")

    ctx = workloads.Context()
    calls = {"oriented": lambda t: fr.evaluate(
                 t, ctx.assignments[("M2Q", "oriented")]),
             "unoriented": lambda t: sf.reconstruct(t, ctx.uno)}
    doc = json.loads((run.BENCH / "workloads.json").read_text("utf-8"))
    for defect in doc["known_defects"]:
        p = ctx.presentations[defect["presentation"]]
        for i, text in enumerate(defect["terms"]):
            term = tc.parse_two_cell(text, p.data)
            check(tc.validate(term, p.data).ok
                  and workloads.known_defect(
                      calls[defect["presentation"]], term, []),
                  "known defect %s, term %d: valid, and still raises"
                  % (": ".join(defect["error"]), i + 1))


def main():
    run._import_bordcalc()
    test_seeded_inputs()
    test_failure_accounting()
    test_known_defect_screen()
    print("%d self-test failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
