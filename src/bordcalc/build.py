"""Helpers for composing two-cell terms movie-style.

`MovieBuilder` tracks a current sentence and whiskers each applied cell
into position, producing a vertical chain; `applicable_events` enumerates
the generator and structural cells that can fire anywhere in a sentence,
which drives the seeded random-term corpora.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from . import termcore as tc
from .termcore import (AssocC, Comp1, Gen2, HComp, Id1, Id2, Inv2, LC, Phi0,
                       PhiTensor, RC, Tensor1, Tensor2, VComp)


class BuildError(Exception):
    pass


#: sentence composite -> the 2-cell composite over its whiskered parts,
#: given in `parts` order: a composite sentence lifts to a horizontal one
_LIFT = {Comp1: lambda first, after: HComp(after, first), Tensor1: Tensor2}


def whisker_cell(sentence, path, cell, data):
    """Embed `cell` at `path` of `sentence`, padding with identities.

    The part of `sentence` on the path is whiskered and every other part
    is padded with its identity.  The cell's source, resolved against
    `data`, is matched against the subterm at `path`, so the padding
    composes by construction and is built without re-checking.
    """
    if not path:
        src = tc.two_cell_source(cell, data)
        if src != sentence:
            raise BuildError("cell source %s does not match subterm %s"
                             % (src, sentence))
        return cell
    step, rest = path[0], path[1:]
    ps = tc.parts(sentence)
    if step not in [s for s, _ in ps]:
        raise BuildError("path does not exist in %s" % (sentence,))
    return _LIFT[type(sentence)](*(
        whisker_cell(c, rest, cell, data) if s == step else Id2(c)
        for s, c in ps))


class MovieBuilder:
    """Accumulates whiskered cells over an evolving sentence."""

    def __init__(self, presentation, start):
        self.p = presentation
        self.sentence = start
        self.cells: List[tc.TwoCellTerm] = []

    def apply(self, path, cell):
        w = whisker_cell(self.sentence, tuple(path), cell, self.p.data)
        _, self.sentence = tc.two_cell_boundary(w, self.p.data)
        self.cells.append(w)
        return self

    def term(self):
        # every cell's source is the sentence before it (`whisker_cell`
        # checks it), so the chain composes by construction
        return VComp(tuple(self.cells) or (Id2(self.sentence),))


def applicable_events(presentation, sentence) -> List[Tuple[tuple, object]]:
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
        # room-making inverse unitors (kept rare by the caller)
        out.append((path, Inv2(RC(sub))))
        out.append((path, Inv2(LC(sub))))
    return out


def random_source(presentation, rng: random.Random):
    data = presentation.data
    gens = sorted(data.one_gens)
    atoms = [Id1(tc.UNIT)]
    for o in data.objects:
        atoms.append(Id1(tc.ObjGen(o)))
    # small closed circles over each elbow pair, when present
    evs = [n for n in gens if tc.obj_points(data.one_gens[n][1]) == ()]
    coevs = [n for n in gens if tc.obj_points(data.one_gens[n][0]) == ()]
    for e in evs:
        for c in coevs:
            if data.one_gens[e][0] == data.one_gens[c][1]:
                atoms.append(Comp1(tc.Gen1(e), tc.Gen1(c)))
    pick = rng.choice(atoms)
    if rng.random() < 0.3:
        return Tensor1(pick, rng.choice(atoms))
    return pick


def random_term(presentation, seed: int, events: int = 6,
                max_leaves: int = 30):
    """Seeded random valid two-cell term built as a movie of events."""
    rng = random.Random(seed)
    builder = MovieBuilder(presentation, random_source(presentation, rng))
    leaves = 0
    for _ in range(events):
        cands = applicable_events(presentation, builder.sentence)
        gen_cands = [(p, c) for p, c in cands if isinstance(c, Gen2)]
        struct_cands = [(p, c) for p, c in cands if not isinstance(c, Gen2)]
        roll = rng.random()
        pool = gen_cands if (gen_cands and roll < 0.55) else struct_cands
        if not pool:
            pool = cands
        if not pool:
            break
        path, cell = pool[rng.randrange(len(pool))]
        try:
            builder.apply(path, cell)
        except (BuildError, tc.TermError):
            continue
        leaves += tc.count_leaves(builder.cells[-1])
        if leaves > max_leaves:
            break
    term = builder.term()
    report = tc.validate(term, presentation.data)
    if not report.ok:
        raise BuildError("random term invalid: %s" % report)
    return term
