"""Reference candidate events, by an explicit ladder of shape tests.

The oracle for `build.applicable_events`, which fires each structural
cell wherever one side of its boundary formula matches: this ladder
states the source shape of each cell a second time, by hand, and finds
the generators by comparing every generator's source with each subterm.
It reads no formula.  Only tests use it.
"""

from bordcalc import termcore as tc
from bordcalc.termcore import (AssocC, Comp1, Gen2, Id1, Inv2, LC, Phi0,
                               PhiTensor, RC, Tensor1)


def applicable_events(presentation, sentence):
    """(path, cell) pairs that can fire somewhere in `sentence`."""
    data = presentation.data
    out = []
    for path, sub in tc.subterms(sentence):
        for name, (src, _tgt) in data.two_gens.items():
            if sub == src:
                out.append((path, Gen2(name)))
        if isinstance(sub, Comp1):
            if isinstance(sub.first, Id1):
                out.append((path, RC(sub.after)))
            if isinstance(sub.after, Id1):
                out.append((path, LC(sub.first)))
            if isinstance(sub.after, Comp1):
                out.append((path, AssocC(sub.first, sub.after.first,
                                         sub.after.after)))
            if isinstance(sub.first, Comp1):
                out.append((path, Inv2(AssocC(sub.first.first,
                                              sub.first.after, sub.after))))
            if isinstance(sub.after, Tensor1) and isinstance(sub.first, Tensor1):
                out.append((path, PhiTensor(sub.after.left, sub.after.right,
                                            sub.first.left, sub.first.right)))
        if isinstance(sub, Id1) and isinstance(sub.word, tc.ObjTensor):
            out.append((path, Phi0(sub.word.left, sub.word.right)))
        if isinstance(sub, Tensor1) and isinstance(sub.left, Id1) \
                and isinstance(sub.right, Id1):
            out.append((path, Inv2(Phi0(sub.left.word, sub.right.word))))
        if isinstance(sub, Tensor1) and isinstance(sub.left, Comp1) \
                and isinstance(sub.right, Comp1):
            out.append((path, Inv2(PhiTensor(
                sub.left.after, sub.right.after,
                sub.left.first, sub.right.first))))
        # room-making inverse unitors
        out.append((path, Inv2(RC(sub))))
        out.append((path, Inv2(LC(sub))))
    return out
