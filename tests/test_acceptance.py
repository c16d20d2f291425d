"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

All comparisons are exact (rational arithmetic, integer invariants); the
stated time budgets are asserted where the criteria give them.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction as Q

import pytest

from bordcalc import build
from bordcalc import frobenius as fr
from bordcalc import linear as ln
from bordcalc import presentations as pr
from bordcalc import standard_terms as stt
from bordcalc import surface as sf
from bordcalc import termcore as tc


ORI = pr.bord2_oriented()
UNO = pr.bord2_unoriented()

TEST_ALGEBRAS = [fr.algebra_q(), fr.algebra_qq(), fr.algebra_m2q(),
                 fr.algebra_qz2()]


def _report(name, ok):
    print("%s criterion %s" % ("PASS" if ok else "FAIL", name))
    assert ok, name


def test_criterion_1_presentation_soundness():
    """Every oriented relation holds exactly on the four separable algebras."""
    t0 = time.time()
    ok = True
    for A in TEST_ALGEBRAS:
        rep = fr.verify_presentation(A, ORI)
        ok = ok and rep.ok
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    _report("1 (presentation soundness, %.2fs)" % elapsed, ok)


def test_criterion_2_separability_necessity():
    """Q[x]/(x^2) fails oriented relations; NotSeparable with certificate;
    circle maps fail to invert with u([x]) = 0."""
    t0 = time.time()
    A = fr.algebra_qx2()
    rep = fr.verify_presentation(A, ORI)
    failed_some = not rep.ok
    sep = fr.check_separable(A)
    cert_ok = (not sep.separable) and sep.certificate is not None
    cm = fr.circle_maps(A)
    xx = cm.cocenter.reps.index((Q(0), Q(1)))
    u_x = cm.u[xx]
    u_x_zero = all(c == 0 for c in u_x)
    not_inverse = not cm.mutually_inverse
    elapsed = time.time() - t0
    ok = failed_some and cert_ok and u_x_zero and not_inverse and elapsed < 1.0
    _report("2 (separability necessity, failing: %s, %.2fs)"
            % (rep.failures(), elapsed), ok)


def test_criterion_3_closed_surface_oracle():
    """evaluate(genus-g) = lambda(H^g) for g in 0..4 on every test algebra."""
    ok = True
    for A in TEST_ALGEBRAS + [fr.algebra_qx2()]:
        asg = fr.standard_assignment(A, ORI)
        for g in range(5):
            v = fr.evaluate(stt.genus(ORI, g), asg)
            ok = ok and v.is_scalar and v.scalar == fr.closed_value(A, g)
    A = fr.algebra_m2q()
    asg = fr.standard_assignment(A, ORI)
    pinned = [fr.evaluate(stt.genus(ORI, g), asg).scalar for g in (0, 1, 2)]
    ok = ok and pinned == [Q(2), Q(4), Q(8)]
    _report("3 (closed-surface oracle, M2Q g=0,1,2 -> %s)"
            % [str(x) for x in pinned], ok)


def _corpus(presentation, count, max_leaves=30):
    terms = []
    seed = 0
    while len(terms) < count:
        t = build.random_term(presentation, seed, events=5,
                              max_leaves=max_leaves)
        seed += 1
        if tc.count_leaves(t) <= max_leaves:
            terms.append(t)
    return terms


def test_criterion_4_topological_rewrite_invariance():
    """>=200 random terms: invariants unchanged by every relation match;
    event-count chi agrees with the complex on closed terms."""
    t0 = time.time()
    terms = _corpus(UNO, 200)
    ok = True
    closed_checked = 0
    for t in terms:
        before = sf.invariants(sf.reconstruct(t, UNO))
        for step in pr.find_matches(t, UNO):
            after = sf.invariants(sf.reconstruct(pr.apply(t, step), UNO))
            if before != after:
                ok = False
        try:
            chi = sf.euler_by_events(t, UNO)
            closed_checked += 1
            if chi != before.euler_characteristic:
                ok = False
        except sf.SurfaceError:
            pass
    for t in [stt.sphere(UNO), stt.torus(UNO), stt.genus(UNO, 2),
              stt.genus(UNO, 3), stt.klein_bottle(UNO)]:
        inv = sf.invariants(sf.reconstruct(t, UNO))
        closed_checked += 1
        if sf.euler_by_events(t, UNO) != inv.euler_characteristic:
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _report("4 (rewrite invariance, %d terms, %d closed, %.1fs)"
            % (len(terms), closed_checked, elapsed), ok)


def test_criterion_5_semantic_rewrite_invariance():
    """Oriented corpus: evaluate(before) == evaluate(after) on M2(Q)."""
    A = fr.algebra_m2q()
    asg = fr.standard_assignment(A, ORI)
    terms = _corpus(ORI, 100)
    ok = True
    checked = 0
    for t in terms:
        base = fr.evaluate(t, asg)
        for step in pr.find_matches(t, ORI):
            if fr.evaluate(pr.apply(t, step), asg) != base:
                ok = False
            checked += 1
    _report("5 (semantic invariance, %d rewrites)" % checked, ok)


def test_criterion_6_linear_diagram_calculus():
    """Five moves preserve the census on 500 seeded diagrams; the worked
    diagram has the census of the paper's figure."""
    from tests.test_linear import random_diagram
    rng = random.Random(2718)
    ok = True
    applied = 0
    for _ in range(500):
        d = random_diagram(rng)
        census = ln.reconstruct_1manifold(d)
        for move in ln.MOVES:
            for pos in range(len(d.regions) + 1):
                for side in ("left", "right"):
                    try:
                        d2 = ln.apply_linear_move(d, move, pos, side)
                    except ln.LinearError:
                        continue
                    applied += 1
                    if ln.reconstruct_1manifold(d2) != census:
                        ok = False
                    if move not in ln.SIDED_MOVES:
                        break
    worked = ln.parse_diagram(
        "(5 cap) [24][35] (5 cup) [] (3 cup) [] (3 cap) [123] (3 cup)")
    ok = ok and ln.reconstruct_1manifold(worked) \
        == {"circles": 1, "intervals": 2}
    _report("6 (linear moves, %d applications)" % applied, ok)


@pytest.mark.xfail(reason="RP2 term not constructed: the required "
                   "same-component saddle is reachable only through an "
                   "associativity-filler dressing this build does not "
                   "automate; see the Klein bottle for the non-orientable "
                   "pipeline", strict=True)
def test_criterion_7a_rp2_term():
    rp2 = stt.rp2(UNO)  # no such constructor: documented red
    inv = sf.invariants(sf.reconstruct(rp2, UNO))
    assert [(c.euler_characteristic, c.orientable, c.boundary_circles)
            for c in inv.components] == [(1, False, 0)]


def test_criterion_7_unoriented_structure():
    """Klein bottle non-orientable; 100 oriented images are orientable."""
    klein = sf.invariants(sf.reconstruct(stt.klein_bottle(UNO), UNO))
    ok = [(c.euler_characteristic, c.orientable, c.boundary_circles)
          for c in klein.components] == [(0, False, 0)]
    count = 0
    seed = 0
    while count < 100:
        t = build.random_term(ORI, seed, events=5)
        seed += 1
        if any(isinstance(l, tc.Gen2) and l.name.endswith("_neg")
               for l in tc.iter_two_cell_leaves(t)):
            continue
        image = pr.forget_orientation(t)
        inv = sf.invariants(sf.reconstruct(image, UNO))
        if not all(c.orientable for c in inv.components):
            ok = False
        count += 1
    _report("7 (unoriented structure: Klein non-orientable, %d oriented "
            "images orientable; RP2 clause red, see xfail)" % count, ok)


def test_criterion_8_round_trips_and_determinism(tmp_path):
    """50-file parse/print corpus; CLI byte-identical across two runs."""
    from tests.test_termcore import _leaf_zoo
    zoo = _leaf_zoo(UNO)
    rng = random.Random(99)
    corpus = list(zoo)
    while len(corpus) < 50:
        corpus.append(tc.Tensor2(rng.choice(zoo), rng.choice(zoo)))
    ok = True
    for i, term in enumerate(corpus):
        path = tmp_path / ("t%02d.bc" % i)
        path.write_text(tc.print_two_cell(term), encoding="utf-8")
        back = tc.parse_two_cell(path.read_text(encoding="utf-8"))
        if back != term:
            ok = False
    # CLI determinism
    sphere_file = tmp_path / "sphere.bc"
    sphere_file.write_text(tc.print_two_cell(stt.sphere(UNO)),
                           encoding="utf-8")
    outs = []
    for _ in range(2):
        res = subprocess.run(
            [sys.executable, "-m", "bordcalc.cli", "invariants",
             str(sphere_file)],
            capture_output=True, check=True)
        outs.append(res.stdout)
    ok = ok and outs[0] == outs[1]
    res = subprocess.run(
        [sys.executable, "-m", "bordcalc.cli", "verify", "--algebra", "M2Q",
         "--presentation", "oriented"], capture_output=True)
    ok = ok and res.returncode == 0
    outs2 = subprocess.run(
        [sys.executable, "-m", "bordcalc.cli", "verify", "--algebra", "M2Q",
         "--presentation", "oriented"], capture_output=True)
    ok = ok and res.stdout == outs2.stdout
    _report("8 (round trips and determinism)", ok)
