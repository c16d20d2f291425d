"""Evaluating terms in symmetric Frobenius algebras.

Every closed surface becomes an exact rational number; the genus-g value
is the trace of the g-th power of the handle element, and separability of
the algebra is exactly what makes the cusp relations hold.

Run:  python3 demos/02_frobenius_evaluation.py
"""

from bordcalc import frobenius as fr
from bordcalc import presentations as pr
from bordcalc import standard_terms as stt

ORI = pr.bord2_oriented()

ALGEBRAS = [fr.algebra_q(), fr.algebra_qq(), fr.algebra_m2q(),
            fr.algebra_qz2(), fr.algebra_qx2()]

print("Closed surface values, evaluate vs the lambda(H^g) oracle:")
header = "  %-6s" + " %8s" * 5
print(header % (("genus",) + tuple(A.name for A in ALGEBRAS)))
for g in range(5):
    row = []
    for A in ALGEBRAS:
        asg = fr.standard_assignment(A, ORI)
        v = fr.evaluate(stt.genus(ORI, g), asg)
        oracle = fr.closed_value(A, g)
        assert v.scalar == oracle
        row.append(str(oracle))
    print(header % ((g,) + tuple(row)))
print("  (every entry equals the independent oracle, exactly)")
print()

print("Relation verification per algebra (oriented presentation):")
for A in ALGEBRAS:
    rep = fr.verify_presentation(A, ORI)
    sep = fr.check_separable(A)
    status = "all %d relations PASS" % len(rep.checks) if rep.ok else \
        "FAILS %s" % ", ".join(rep.failures())
    print("  %-5s separable=%-5s %s" % (A.name, str(sep.separable), status))
print()

A = fr.algebra_qx2()
print("Q[x]/(x^2) is symmetric Frobenius but not separable:")
print("  check_symmetric:", "ok" if fr.check_symmetric(A).ok else "FAIL")
res = fr.check_separable(A)
print("  check_separable: NotSeparable, Farkas certificate with %d entries"
      % len(res.certificate))
cm = fr.circle_maps(A)
print("  circle maps mutually inverse:", cm.mutually_inverse)
print("  (u sends the class of x to 0, killing invertibility)")
