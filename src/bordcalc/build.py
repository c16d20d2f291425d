"""Helpers for composing two-cell terms movie-style.

`MovieBuilder` tracks a current sentence and whiskers each applied cell
into position, producing a vertical chain; `applicable_events` lists the
cells that can fire anywhere in a sentence, the generators by source and
each `FIRED` structural cell where a side of its formula matches, which
drives the seeded random-term corpora.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import List, Tuple, get_args

from . import termcore as tc
from .termcore import (AssocC, Comp1, Gen2, Id1, Id2, Inv2, LC, Phi0,
                       PhiTensor, RC, Tensor1, VComp)


class BuildError(Exception):
    pass


def whisker_cell(sentence, path, cell, data):
    """Embed `cell` at `path` of `sentence`, padding with identities.

    Each composite on the path lifts (`termcore.lift`) over its part on
    the path, whiskered, and its other parts' identities.  The cell's
    source, resolved against `data`, is matched against the subterm at
    `path`, so the padding composes by construction and is built without
    re-checking.
    """
    if not path:
        src = tc.two_cell_source(cell, data)
        if src != sentence:
            raise BuildError("cell source %s does not match subterm %s"
                             % (src, sentence))
        return cell
    step, rest = path[0], path[1:]
    if step not in [s for s, _ in tc.parts(sentence)]:
        raise BuildError("path does not exist in %s" % (sentence,))
    return tc.lift(sentence, lambda s, c: whisker_cell(c, rest, cell, data)
                   if s == step else Id2(c))


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


#: the structural cells a subterm may fire, in order: (class, 0) fires the
#: cell where its source matches, (class, 1) its `Inv2` where its target does
FIRED = ((RC, 0), (LC, 0), (AssocC, 0), (AssocC, 1), (PhiTensor, 0),
         (Phi0, 0), (Phi0, 1), (PhiTensor, 1), (RC, 1), (LC, 1))


def _matchers(fired):
    """Sentence class -> (class tests below the root, parameter getters,
    cell class, side) of each `fired` entry a subterm of that class may
    match, in order, read off `termcore.reading`: a side must hold each
    parameter once and else only their ends and nodes tested by class."""
    get = lambda at: attrgetter(".".join(at)) if at else lambda node: node
    entries = []
    for cls, side in fired:
        params, classes, opaque = tc.reading(cls)[side]
        if opaque or len(params) < len(cls.ARGS):
            raise BuildError("side %d of %s is not matched by class"
                             % (side, cls.SYMBOL))
        entries.append((classes[0][1] if classes else None,
                        [(get(at), c) for at, c in classes[1:]],
                        [get(params[n]) for n, _ in cls.ARGS], cls, side))
    return {root: [e[1:] for e in entries if e[0] in (root, None)]
            for root in get_args(tc.MorphismTerm)}


_MATCHERS = _matchers(FIRED)


def applicable_events(presentation, sentence) -> List[Tuple[tuple, object]]:
    """(path, cell) pairs that can fire somewhere in `sentence`: at each
    subterm, its generators, then each `FIRED` cell whose side it matches."""
    by_source = presentation.gens_by_source
    out = []
    for path, sub in tc.subterms(sentence):
        out += [(path, Gen2(name)) for name in by_source.get(sub, ())]
        for tests, args, cls, side in _MATCHERS[type(sub)]:
            for get, c in tests:
                if type(get(sub)) is not c:
                    break
            else:
                cell = cls(*[get(sub) for get in args])
                out.append((path, Inv2(cell) if side else cell))
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
        gen_cands = [(p, c) for p, c in cands if type(c) is Gen2]
        struct_cands = [(p, c) for p, c in cands if type(c) is not Gen2]
        # the inverse unitors fire at every subterm, so no pool is empty
        pool = gen_cands if rng.random() < 0.55 and gen_cands else struct_cands
        path, cell = pool[rng.randrange(len(pool))]
        builder.apply(path, cell)
        leaves += tc.count_leaves(builder.cells[-1])
        if leaves > max_leaves:
            break
    term = builder.term()
    report = tc.validate(term, presentation.data)
    if not report.ok:
        raise BuildError("random term invalid: %s" % report)
    return term
