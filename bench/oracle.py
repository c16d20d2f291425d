"""Hand-derived expected values for the benchmark's correctness checks.

Nothing here is computed by bordcalc: every value is written out from the
mathematics, with its derivation, so a wrong answer from the program can
never agree with the check by construction.
"""

from fractions import Fraction


# lambda(H^g), the value of the closed orientable surface of genus g.
#
# A closed genus-g surface evaluates to lambda(H^g), where H is the handle
# element sum_ij e_ij b_i b_j built from the copairing e (Kock, Frobenius
# Algebras and 2D TQFTs, LMS Student Texts 59, the "handle operator").
#
# Q:    e = [[1]], so H = 1 and lambda(1) = 1.                -> 1
# QxQ:  e = diag(1, 1) on the idempotents u1, u2, so
#       H = u1 u1 + u2 u2 = u1 + u2 = 1, lambda(1) = 1 + 1.   -> 2
# M2Q:  e pairs E_ab with E_ba, so H = sum_ab E_ab E_ba
#       = 2 E11 + 2 E22 = 2 * 1, H^g = 2^g * 1 and the trace
#       form gives lambda(1) = 2.                             -> 2^(g+1)
# QZ2:  e = diag(1, 1) on 1, s, so H = 1*1 + s*s = 2,
#       H^g = 2^g and lambda(a + b s) = a.                    -> 2^g
# Qx2:  e pairs 1 with x, so H = 1*x + x*1 = 2x, H^0 = 1,
#       H^1 = 2x, H^g = 0 for g >= 2 (x^2 = 0); with
#       lambda(a + b x) = b this gives 0, 2, 0, 0, ...
def closed_surface_value(algebra: str, genus: int) -> Fraction:
    if algebra == "Q":
        return Fraction(1)
    if algebra == "QxQ":
        return Fraction(2)
    if algebra == "M2Q":
        return Fraction(2 ** (genus + 1))
    if algebra == "QZ2":
        return Fraction(2 ** genus)
    if algebra == "Qx2":
        return Fraction(2 if genus == 1 else 0)
    raise KeyError(algebra)


# Euler characteristic of the closed orientable surface of genus g:
# V - E + F of the standard 4g-gon with one vertex and one face.
def genus_euler(genus: int) -> int:
    return 2 - 2 * genus


# verify_presentation failures for every built-in algebra and presentation.
#
# The four separable algebras (Q, QxQ, M2Q, QZ2) satisfy every relation of
# both presentations (Lauda-Pfeiffer: oriented and unoriented open-closed
# TQFTs are classified by symmetric, respectively star-symmetric, Frobenius
# algebras, and the cusp relations need separability).  Qx2 = Q[x]/(x^2) is
# symmetric Frobenius but not separable: its handle element 2x is
# nilpotent, so no adjoint witness trace can invert the cusp pair, and
# exactly the cusp-inversion relations fail -- four of them in the
# oriented presentation (pos/neg x strip/zigzag) and two in the unoriented
# one (the single point object, strip/zigzag).  The Morse cancellations and
# the symmetry cancellations hold in any Frobenius algebra.
VERIFY_FAILURES = {
    ("Q", "oriented"): [],
    ("Q", "unoriented"): [],
    ("QxQ", "oriented"): [],
    ("QxQ", "unoriented"): [],
    ("M2Q", "oriented"): [],
    ("M2Q", "unoriented"): [],
    ("QZ2", "oriented"): [],
    ("QZ2", "unoriented"): [],
    ("Qx2", "oriented"): ["cusp-inversion-neg-strip",
                          "cusp-inversion-neg-zigzag",
                          "cusp-inversion-pos-strip",
                          "cusp-inversion-pos-zigzag"],
    ("Qx2", "unoriented"): ["cusp-inversion-pt-strip",
                            "cusp-inversion-pt-zigzag"],
}


# Closed demo surfaces under demos/terms, by file name: the sphere, torus
# and genus-2 files are the genus-0/1/2 surfaces; the Klein bottle is the
# non-orientable surface with chi = 0 (a torus-like handle decomposition
# whose one leg crosses: V - E + F = 0, and it contains a Moebius band).
# Each entry: (euler characteristic, orientable, genus or None).
DEMO_SURFACES = {
    "sphere.bc": (2, True, 0),
    "torus.bc": (0, True, 1),
    "genus2.bc": (-2, True, 2),
    "klein.bc": (0, False, None),
    "sphere_oriented.bc": (2, True, 0),
    "torus_oriented.bc": (0, True, 1),
}
