"""Free symmetric monoidal bicategory term language.

Three layers of terms over a generating datum:

* object words -- binary trees of object generators and the unit,
* morphism terms -- binary sentences built from 1-generators and the
  structural 1-symbols (identities, associators, unitors, symmetries),
* two-cell terms -- paragraphs built from 2-generators and the structural
  2-symbols, combined by vertical chains, horizontal composition and tensor.

Terms are immutable; equality is exact tree equality (no implicit
rebracketing).  Each term node has one home.  A structural symbol is its
class, which holds its parameters, its boundary formula (`ends` of a
1-symbol, `sides` of a 2-symbol) and its argument grouping, plus its DSL
name in `SYMBOLS`; `reading` reads its formula off one marked instance:
where each parameter sits and which nodes must be of which class.  A
composite is its `_PARTS` entry (path steps and fields), its `_SYNTAX`
entry (DSL token, read by printer and parser) and its case in the
boundary walk; a sentence composite adds its `LIFT` entry.  Boundaries are
computed leaf-up, with generator names always resolved against the
generating datum.  One boundary walk decides whether the parts of a
two-cell term compose: it builds and checks each structural leaf's
sentences once, and composites compare the object ends their parts
carry.  `vcompose`, `hcompose` and `validate` all ask it.  `validate`
checks each node's names and admissibility on its own, reporting every
violation, then walks the boundary once from the root, reporting the
first composability failure in movie order.  A small DSL (`parse_*` /
`print_*`) gives a textual form with a parse/print round-trip guarantee;
one parse reads each repeated parenthesised subterm once, into one node.

A node caches its hash the first time it is hashed, in its instance
``__dict__`` and not as a field, so equality, printing and ``repr`` are
unchanged, and hashing a term that shares its subterms with another
costs one step per new node.  In the same way `validate` leaves on each
2-cell node its boundary walk under the datum, so validating a term that
shares validated subterms with another walks only its new nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from functools import cache
from itertools import accumulate, repeat
from typing import Optional, Sequence, Tuple, Union, get_args


class TermError(Exception):
    """Malformed term: unknown name, bad arity or boundary mismatch."""

    def __init__(self, message, path=()):
        self.message = message
        self.path = tuple(path)
        if self.path:
            message = "%s (at %s)" % (message, "/".join(map(str, self.path)))
        super().__init__(message)


class ParseError(Exception):
    """Syntax error in the term DSL, with a character position."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


# ---------------------------------------------------------------------------
# object words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Unit:
    def __str__(self):
        return "1"


@dataclass(frozen=True)
class ObjGen:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class ObjTensor:
    left: "ObjectWord"
    right: "ObjectWord"

    def __str__(self):
        return "(%s ⊗ %s)" % (self.left, self.right)


ObjectWord = Union[Unit, ObjGen, ObjTensor]

UNIT = Unit()


def obj_points(w: ObjectWord) -> Tuple[str, ...]:
    """Left-to-right object-generator leaves of `w` (unit leaves vanish)."""
    if isinstance(w, Unit):
        return ()
    if isinstance(w, ObjGen):
        return (w.name,)
    return obj_points(w.left) + obj_points(w.right)


# ---------------------------------------------------------------------------
# morphism terms (binary sentences)
# ---------------------------------------------------------------------------

class _Symbol:
    """A structural symbol: its fields are its parameters, and its class
    writes its boundary formula (`ends` of a 1-symbol, `sides` of a
    2-symbol).

    ``SYMBOL`` (the DSL name) and ``ARGS`` ((field, "object"|"morphism")
    per parameter) are set from the `SYMBOLS` table below.  It prints as
    ``name[arg,...]``, its arguments parenthesised in runs of ``GROUP``
    when that is above 1; the parser's `_symbol` reads the same grouping.
    """

    GROUP = 1

    def __str__(self):
        args = [str(getattr(self, name)) for name, _ in self.ARGS]
        if self.GROUP > 1:
            args = ["(%s)" % ",".join(args[i:i + self.GROUP])
                    for i in range(0, len(args), self.GROUP)]
        return "%s[%s]" % (self.SYMBOL, ",".join(args))


class _Composite:
    """A composite node, printed from `_SYNTAX`: a wrapper keyword as
    ``inv(part)``, an infix token as ``(part ; part)``, parts in `parts`
    order."""

    def __str__(self):
        token = _SYNTAX[type(self)]
        if token.isidentifier():
            return "%s(%s)" % (token, self.inner)
        return "(%s)" % (" %s " % token).join(str(c) for _, c in parts(self))


@dataclass(frozen=True)
class Gen1:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Id1(_Symbol):
    word: ObjectWord

    def ends(self):
        return (self.word, self.word)


@dataclass(frozen=True)
class Assoc1(_Symbol):
    u: ObjectWord
    v: ObjectWord
    w: ObjectWord

    def ends(self):
        return (ObjTensor(ObjTensor(self.u, self.v), self.w),
                ObjTensor(self.u, ObjTensor(self.v, self.w)))


@dataclass(frozen=True)
class LeftUnitor1(_Symbol):
    word: ObjectWord

    def ends(self):
        return (ObjTensor(UNIT, self.word), self.word)


@dataclass(frozen=True)
class RightUnitor1(_Symbol):
    word: ObjectWord

    def ends(self):
        return (self.word, ObjTensor(self.word, UNIT))


@dataclass(frozen=True)
class Braid1(_Symbol):
    u: ObjectWord
    v: ObjectWord

    def ends(self):
        return (ObjTensor(self.u, self.v), ObjTensor(self.v, self.u))


@dataclass(frozen=True)
class Adj1(_Composite):
    """Formal adjoint-inverse x* of a structural 1-symbol."""

    inner: "MorphismTerm"


@dataclass(frozen=True)
class Comp1(_Composite):
    """Composite after ∘ first: ``Comp1(f, g)`` is f∘g, applying g then f;
    the DSL reads in application order, ``(first ; after)``."""

    after: "MorphismTerm"
    first: "MorphismTerm"


@dataclass(frozen=True)
class Tensor1(_Composite):
    left: "MorphismTerm"
    right: "MorphismTerm"


MorphismTerm = Union[Gen1, Id1, Assoc1, LeftUnitor1, RightUnitor1, Braid1,
                     Adj1, Comp1, Tensor1]


def comp1(*fs: MorphismTerm) -> MorphismTerm:
    """Left-bracketed composite of morphisms listed in application order."""
    out = fs[0]
    for f in fs[1:]:
        out = Comp1(f, out)
    return out


def formal_adjoint(t):
    """The formal inverse of a morphism or two-cell term built from
    structural symbols only: the adjoint t* of a 1-cell, the inverse of
    a 2-cell.

    `Adj1` and `Inv2` unwrap, a 1-symbol wraps in `Adj1` and a 2-symbol in
    `Inv2`, but an `Id2` is its own inverse.  A composite inverts part by
    part, and a composite along the cells' direction (`Comp1`, `VComp`)
    also reverses its parts.  Generators have no formal inverse (their
    duality data lives in presentation 2-cells).
    """
    cls = type(t)
    if cls is Adj1 or cls is Inv2:
        return t.inner
    if cls is Id2:
        return t
    if cls in STRUCTURAL_1:
        return Adj1(t)
    if cls in STRUCTURAL_2:
        return Inv2(t)
    inverses = [formal_adjoint(c) for _, c in parts(t)]
    if inverses:
        return rebuild(t, inverses[::-1] if cls is Comp1 or cls is VComp
                       else inverses)
    if cls is Gen1 or cls is Gen2:
        raise TermError("%s-generator %r has no formal adjoint"
                        % ("1" if cls is Gen1 else "2", t.name))
    raise TermError("cannot take formal adjoint of %r" % (t,))


# ---------------------------------------------------------------------------
# two-cell terms (paragraphs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gen2:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Id2(_Symbol):
    f: MorphismTerm

    def sides(self, data):
        return (self.f, self.f)


@dataclass(frozen=True)
class AssocC(_Symbol):
    """a^c: ((f∘f')∘f'') ⇒ (f∘(f'∘f''));  fields in application order."""

    f2: MorphismTerm  # applied first
    f1: MorphismTerm
    f0: MorphismTerm  # applied last

    def sides(self, data):
        return (Comp1(Comp1(self.f0, self.f1), self.f2),
                Comp1(self.f0, Comp1(self.f1, self.f2)))


@dataclass(frozen=True)
class RC(_Symbol):
    """r^c: f∘I_a ⇒ f."""

    f: MorphismTerm

    def sides(self, data):
        a, _ = morphism_boundary(self.f, data)
        return (Comp1(self.f, Id1(a)), self.f)


@dataclass(frozen=True)
class LC(_Symbol):
    """l^c: I_b∘f ⇒ f."""

    f: MorphismTerm

    def sides(self, data):
        _, b = morphism_boundary(self.f, data)
        return (Comp1(Id1(b), self.f), self.f)


@dataclass(frozen=True)
class Eta(_Symbol):
    """eta_f: I_a ⇒ f*∘f (f structural-only)."""

    f: MorphismTerm

    def sides(self, data):
        a, _ = morphism_boundary(self.f, data)
        return (Id1(a), Comp1(formal_adjoint(self.f), self.f))


@dataclass(frozen=True)
class Eps(_Symbol):
    """eps_f: f∘f* ⇒ I_b (f structural-only)."""

    f: MorphismTerm

    def sides(self, data):
        _, b = morphism_boundary(self.f, data)
        return (Comp1(self.f, formal_adjoint(self.f)), Id1(b))


@dataclass(frozen=True)
class PhiTensor(_Symbol):
    """phi: (f⊗g)∘(f'⊗g') ⇒ (f∘f')⊗(g∘g'), printed ``phi[(f,g),(f',g')]``."""

    GROUP = 2

    f: MorphismTerm
    g: MorphismTerm
    f1: MorphismTerm
    g1: MorphismTerm

    def sides(self, data):
        return (Comp1(Tensor1(self.f, self.g), Tensor1(self.f1, self.g1)),
                Tensor1(Comp1(self.f, self.f1), Comp1(self.g, self.g1)))


@dataclass(frozen=True)
class Phi0(_Symbol):
    """phi0: I_{a⊗a'} ⇒ I_a ⊗ I_{a'}."""

    a: ObjectWord
    a1: ObjectWord

    def sides(self, data):
        return (Id1(ObjTensor(self.a, self.a1)),
                Tensor1(Id1(self.a), Id1(self.a1)))


@dataclass(frozen=True)
class AssocF(_Symbol):
    """Pseudo-naturality filler of alpha at (f,g,h)."""

    f: MorphismTerm
    g: MorphismTerm
    h: MorphismTerm

    def sides(self, data):
        (a, b), (c, d), (x, y) = (morphism_boundary(t, data)
                                  for t in (self.f, self.g, self.h))
        return (Comp1(Assoc1(b, d, y),
                      Tensor1(Tensor1(self.f, self.g), self.h)),
                Comp1(Tensor1(self.f, Tensor1(self.g, self.h)),
                      Assoc1(a, c, x)))


@dataclass(frozen=True)
class LeftUnitorF(_Symbol):
    f: MorphismTerm

    def sides(self, data):
        a, b = morphism_boundary(self.f, data)
        return (Comp1(LeftUnitor1(b), Tensor1(Id1(UNIT), self.f)),
                Comp1(self.f, LeftUnitor1(a)))


@dataclass(frozen=True)
class RightUnitorF(_Symbol):
    f: MorphismTerm

    def sides(self, data):
        a, b = morphism_boundary(self.f, data)
        return (Comp1(RightUnitor1(b), self.f),
                Comp1(Tensor1(self.f, Id1(UNIT)), RightUnitor1(a)))


@dataclass(frozen=True)
class BraidF(_Symbol):
    """Pseudo-naturality filler of beta at (f,g)."""

    f: MorphismTerm
    g: MorphismTerm

    def sides(self, data):
        (a, b), (c, d) = (morphism_boundary(t, data) for t in (self.f, self.g))
        return (Comp1(Braid1(b, d), Tensor1(self.f, self.g)),
                Comp1(Tensor1(self.g, self.f), Braid1(a, c)))


@dataclass(frozen=True)
class Pi(_Symbol):
    a: ObjectWord
    b: ObjectWord
    c: ObjectWord
    d: ObjectWord

    def sides(self, data):
        a, b, c, d = self.a, self.b, self.c, self.d
        return (Comp1(Comp1(Tensor1(Id1(a), Assoc1(b, c, d)),
                            Assoc1(a, ObjTensor(b, c), d)),
                      Tensor1(Assoc1(a, b, c), Id1(d))),
                Comp1(Assoc1(a, b, ObjTensor(c, d)),
                      Assoc1(ObjTensor(a, b), c, d)))


@dataclass(frozen=True)
class MuCell(_Symbol):
    a: ObjectWord
    b: ObjectWord

    def sides(self, data):
        a, b = self.a, self.b
        return (Comp1(Comp1(Tensor1(Id1(a), LeftUnitor1(b)),
                            Assoc1(a, UNIT, b)),
                      Tensor1(RightUnitor1(a), Id1(b))),
                Id1(ObjTensor(a, b)))


@dataclass(frozen=True)
class LamCell(_Symbol):
    a: ObjectWord
    b: ObjectWord

    def sides(self, data):
        a, b = self.a, self.b
        return (Tensor1(LeftUnitor1(a), Id1(b)),
                Comp1(LeftUnitor1(ObjTensor(a, b)), Assoc1(UNIT, a, b)))


@dataclass(frozen=True)
class RhoCell(_Symbol):
    a: ObjectWord
    b: ObjectWord

    def sides(self, data):
        a, b = self.a, self.b
        return (Tensor1(Id1(a), RightUnitor1(b)),
                Comp1(Assoc1(a, b, UNIT), RightUnitor1(ObjTensor(a, b))))


@dataclass(frozen=True)
class RCell(_Symbol):
    a: ObjectWord
    b: ObjectWord
    c: ObjectWord

    def sides(self, data):
        a, b, c = self.a, self.b, self.c
        return (Comp1(Comp1(Assoc1(b, c, a), Braid1(a, ObjTensor(b, c))),
                      Assoc1(a, b, c)),
                Comp1(Comp1(Tensor1(Id1(b), Braid1(a, c)), Assoc1(b, a, c)),
                      Tensor1(Braid1(a, b), Id1(c))))


@dataclass(frozen=True)
class SCell(_Symbol):
    a: ObjectWord
    b: ObjectWord
    c: ObjectWord

    def sides(self, data):
        a, b, c = self.a, self.b, self.c
        return (Comp1(Comp1(Adj1(Assoc1(c, a, b)), Braid1(ObjTensor(a, b), c)),
                      Adj1(Assoc1(a, b, c))),
                Comp1(Comp1(Tensor1(Braid1(a, c), Id1(b)),
                            Adj1(Assoc1(a, c, b))),
                      Tensor1(Id1(a), Braid1(b, c))))


@dataclass(frozen=True)
class SigmaCell(_Symbol):
    """sigma: I_{a⊗b} ⇒ beta_{b,a}∘beta_{a,b} (syllepsis)."""

    a: ObjectWord
    b: ObjectWord

    def sides(self, data):
        return (Id1(ObjTensor(self.a, self.b)),
                Comp1(Braid1(self.b, self.a), Braid1(self.a, self.b)))


@dataclass(frozen=True)
class Inv2(_Composite):
    """Formal inverse of an invertible structural 2-cell."""

    inner: "TwoCellTerm"


@dataclass(frozen=True)
class VComp(_Composite):
    """Vertical chain, children listed in application order (first acts first)."""

    children: Tuple["TwoCellTerm", ...]


@dataclass(frozen=True)
class HComp(_Composite):
    """Horizontal composite ``HComp(outer, inner)`` = outer * inner."""

    outer: "TwoCellTerm"
    inner: "TwoCellTerm"


@dataclass(frozen=True)
class Tensor2(_Composite):
    left: "TwoCellTerm"
    right: "TwoCellTerm"


TwoCellTerm = Union[Gen2, Id2, AssocC, RC, LC, Eta, Eps, PhiTensor, Phi0,
                    AssocF, LeftUnitorF, RightUnitorF, BraidF, Pi, MuCell,
                    LamCell, RhoCell, RCell, SCell, SigmaCell, Inv2, VComp,
                    HComp, Tensor2]


# ---------------------------------------------------------------------------
# the structural symbols
# ---------------------------------------------------------------------------

#: DSL name -> class of every structural symbol.  Parsing, printing,
#: validation, the reserved names and orientation forgetting all read this
#: table and the class; the class alone holds the parameters (its fields),
#: the boundary formula (`ends` or `sides`) and any argument grouping.  The
#: strand maps (`strand_paths`, `_diagram.leaf_arc_spec`) and the cells
#: `build` fires read each formula once, through `reading`.
SYMBOLS = {
    "I": Id1, "alpha": Assoc1, "l": LeftUnitor1, "r": RightUnitor1,
    "beta": Braid1,
    "id": Id2, "assoc2": AssocC, "rc": RC, "lc": LC, "eta": Eta, "eps": Eps,
    "phi": PhiTensor, "phi0": Phi0, "alphaf": AssocF, "lf": LeftUnitorF,
    "rf": RightUnitorF, "betaf": BraidF, "pi": Pi, "mu": MuCell,
    "lam": LamCell, "rho": RhoCell, "RR": RCell, "SS": SCell,
    "sig": SigmaCell,
}

# argument kinds from the field annotations, computed once: parse and
# validate run on every term and must not call fields()
_KINDS = {"ObjectWord": "object", "MorphismTerm": "morphism"}
for _name, _cls in SYMBOLS.items():
    _cls.SYMBOL = _name
    _cls.ARGS = tuple((f.name, _KINDS[f.type]) for f in fields(_cls))
del _name, _cls

STRUCTURAL_1 = tuple(c for c in SYMBOLS.values()
                     if c in get_args(MorphismTerm))
STRUCTURAL_2 = tuple(c for c in SYMBOLS.values()
                     if c in get_args(TwoCellTerm))


def _cached(fields_hash):
    """A `__hash__` that computes `fields_hash` once per node."""
    def __hash__(self):
        h = self._hash
        if h is None:
            h = fields_hash(self)
            object.__setattr__(self, "_hash", h)
        return h
    return __hash__


for _cls in {*get_args(ObjectWord), *get_args(MorphismTerm),
             *get_args(TwoCellTerm)}:
    _cls._hash = None
    _cls.__hash__ = _cached(_cls.__hash__)
for _cls in get_args(TwoCellTerm):
    _cls._walked = None  # see `_walk`
del _cls


# ---------------------------------------------------------------------------
# the composite nodes
# ---------------------------------------------------------------------------

#: composite class -> its (path step, field) pairs, in walk order; `VComp`
#: steps by position.  Every walk that only recurses (rewriting, validation,
#: the formal adjoint, orientation forgetting, whiskering, leaf and subterm
#: enumeration) reads this table through `parts`, `rebuild` and
#: `subterms`; the boundary formulas and the movie walk are written per
#: composite.  `Adj1` wraps one structural symbol and is a leaf here.
_PARTS = {
    HComp: (("outer", "outer"), ("inner", "inner")),
    Tensor2: (("left", "left"), ("right", "right")),
    Inv2: (("inv2", "inner"),),
    Comp1: (("first", "first"), ("after", "after")),
    Tensor1: (("left", "left"), ("right", "right")),
}

#: composite class -> its DSL token: a wrapper keyword ``inv(part)``, or the
#: infix token between its parts ``(part ; part)`` in `parts` order.  The
#: chain `VComp` takes one or more parts, every other infix two.  Printing
#: (`_Composite`) and parsing (`_Level`) both read this table.
_SYNTAX = {
    Adj1: "inv", Comp1: ";", Tensor1: "(*)",
    Inv2: "inv2", VComp: ".", HComp: "#", Tensor2: "(*)",
}

_RESERVED = (set(SYMBOLS) | {"1"}
             | {token for token in _SYNTAX.values() if token.isidentifier()})


#: sentence composite -> the 2-cell composite a cell whiskered into one of
#: its parts lifts it to, and the 2-cell step over each sentence step in
#: `parts` order (a cell on the ``first`` of a `Comp1` is ``inner`` in an
#: `HComp`); `lift` builds it, and the movie walk reads the steps.
LIFT = {Comp1: (HComp, {"first": "inner", "after": "outer"}),
        Tensor1: (Tensor2, {"left": "left", "right": "right"})}


def lift(sentence, part):
    """`LIFT` of `sentence`, over ``part(step, child)`` of each part."""
    cls, over = LIFT[type(sentence)]
    under = {over[step]: part(step, c) for step, c in parts(sentence)}
    return _assemble(cls, [under[step] for step, _ in _PARTS[cls]])


def parts(node):
    """(path step, child) pairs of a composite node; [] for a leaf."""
    if type(node) is VComp:
        return list(enumerate(node.children))
    spec = _PARTS.get(type(node))
    return [(step, getattr(node, name)) for step, name in spec] if spec else []


def rebuild(node, children):
    """A node of the same class as `node` over `children` (in `parts` order)."""
    return _assemble(type(node), children)


def fresh(node):
    """An equal copy of term `node` sharing no node, so no memo, with it."""
    if isinstance(node, tuple):
        return tuple(map(fresh, node))
    if isinstance(node, str):
        return node
    return type(node)(**{f.name: fresh(getattr(node, f.name))
                         for f in fields(node)})


def _assemble(cls, children):
    """A composite of class `cls` over `children` (in `parts` order)."""
    if cls is VComp:
        return VComp(tuple(children))
    return cls(**{name: c for (_, name), c in zip(_PARTS[cls], children)})


def subterms(node, path=()):
    """(path, subterm) pairs: the node itself, then its parts recursively."""
    yield path, node
    for step, c in parts(node):
        yield from subterms(c, path + (step,))


def vcompose(ps: Sequence[TwoCellTerm], data: GeneratingData) -> TwoCellTerm:
    """Vertical chain of two-cells in application order; nested chains are
    flattened.  Boundary mismatches over `data` raise TermError."""
    chain = VComp(tuple(c for p in ps
                        for c in (p.children if isinstance(p, VComp) else (p,))))
    two_cell_boundary(chain, data)
    return chain


def hcompose(p: TwoCellTerm, q: TwoCellTerm,
             data: GeneratingData) -> TwoCellTerm:
    """Horizontal composite p * q (q on the inner/source-object side).
    Boundary mismatches over `data` raise TermError."""
    out = HComp(p, q)
    two_cell_boundary(out, data)
    return out


# ---------------------------------------------------------------------------
# boundaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratingData:
    """A generating datum: objects, 1-generators and 2-generators.

    ``one_gens`` maps a name to (source, target) object words; ``two_gens``
    maps a name to (source, target) morphism terms.  Globularity of every
    2-generator is checked on construction.  ``shapes`` is the movie's
    table of leaves compiled over this datum (`_diagram`), keyed by a
    `fresh` copy of each leaf; it takes no part in equality.
    """

    objects: Tuple[str, ...]
    one_gens: dict
    two_gens: dict
    shapes: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)

    def __post_init__(self):
        names = list(self.objects) + list(self.one_gens) + list(self.two_gens)
        if len(set(names)) != len(names):
            raise TermError("generator names must be distinct across levels")
        for name in names:
            if name in _RESERVED:
                raise TermError("name %r is a reserved structural symbol" % name)
        for name, (src, tgt) in self.two_gens.items():
            if morphism_boundary(src, self) != morphism_boundary(tgt, self):
                raise TermError("2-generator %r is not globular" % name)


def morphism_boundary(t: MorphismTerm, data: GeneratingData,
                      path=()) -> Tuple[ObjectWord, ObjectWord]:
    """(source, target) object words of a morphism term, its 1-generator
    names resolved against `data`."""
    if isinstance(t, Gen1):
        if t.name not in data.one_gens:
            raise TermError("unknown 1-generator %r" % t.name)
        return data.one_gens[t.name]
    if isinstance(t, Adj1):
        s, g = morphism_boundary(t.inner, data, path + ("inv",))
        return (g, s)
    if isinstance(t, Comp1):
        s_first, t_first = morphism_boundary(t.first, data, path + ("first",))
        s_after, t_after = morphism_boundary(t.after, data, path + ("after",))
        if s_after != t_first:
            raise TermError(
                "boundary mismatch in composite: %s then %s" % (t_first, s_after),
                path)
        return (s_first, t_after)
    if isinstance(t, Tensor1):
        sl, tl = morphism_boundary(t.left, data, path + ("left",))
        sr, tr = morphism_boundary(t.right, data, path + ("right",))
        return (ObjTensor(sl, sr), ObjTensor(tl, tr))
    if isinstance(t, STRUCTURAL_1):
        return t.ends()
    raise TermError("not a morphism term: %r" % (t,), path)


@cache
def reading(cls):
    """(params, classes, opaque) of each side of the formula of `cls`, read
    once, on first use, off `cls` over markers ``#a`` and ``inv(I[#f])``
    (ends ``#f``): each parameter's path of fields, left to right; each
    (path, class) a match tests, parents first; each path no match can
    test, a parameter met again or a piece of a marker (`formal_adjoint`
    gives back the marker's own ``I[#f]``).  A parameter's ends are not
    read: composing fixes them."""
    names = {Adj1(Id1(ObjGen("#" + n))) if kind == "morphism"
             else ObjGen("#" + n): n for n, kind in cls.ARGS}
    leaf = cls(**{name: marker for marker, name in names.items()})
    pieces = [m.inner for m in names if type(m) is Adj1]

    def read(node, path, out):
        params, classes, opaque = out
        name = names.get(node)
        if name is not None and name not in params:
            params[name] = path
        elif name is not None or any(node is p for p in pieces):
            opaque.append(path)
        elif all(node != p.word for p in pieces):
            classes.append((path, type(node)))
            for f in fields(node):
                read(getattr(node, f.name), path + (f.name,), out)
        return out

    return tuple(read(side, (), ({}, [], [])) for side in (
        leaf.ends() if cls in STRUCTURAL_1 else leaf.sides(None)))


def strand_paths(cell):
    """(old path, new path) of each parameter subsentence an event of
    2-leaf `cell` carries through: a structural cell denotes a product
    bordism.  `Inv2` swaps its cell's paths; a generator has none, since
    every strand of its sentences reaches a boundary point."""
    inverse = type(cell) is Inv2
    cls = type(cell.inner if inverse else cell)
    if cls not in STRUCTURAL_2:
        return ()
    (s, _, _), (t, _, _) = reading(cls)[::-1] if inverse else reading(cls)
    return tuple((s[n], t[n]) for n, kind in cls.ARGS
                 if kind == "morphism" and n in s and n in t)


def _walk(p, data, path, tape):
    """(source, target, source object, target object) of a two-cell term,
    deciding whether its parts compose: a structural leaf's own sentences
    are built and checked once (a failure is raised at the leaf as
    ``<symbol>: <message>``), and composites compare their parts' object
    ends.  Every leaf but an identity appends (path, leaf, source, target)
    to a list `tape` in movie order (the inner part of an `HComp` first);
    an `Inv2` is one leaf, its cell's sides swapped.

    A walk that records a tape memoises each node it walks as `_walked`,
    one flat tuple of `data` and the four ends; a node validated under
    `data` is not walked again under it: its stored ends are returned
    and, for a tape, its leaves replayed from their own memos.  A walk
    without a tape writes no memo, since `validate` checks the names that
    composing does not read."""
    memo = getattr(p, "_walked", None)
    if memo is not None and memo[0] is data:
        if tape is not None:
            _replay(p, data, path, tape)
        return memo[1:]
    if isinstance(p, VComp):
        if not p.children:
            raise TermError("empty vertical chain", path)
        ends = [_walk(c, data, path + (i,), tape)
                for i, c in enumerate(p.children)]
        for i in range(len(ends) - 1):
            if ends[i][1] != ends[i + 1][0]:
                raise TermError("non-composable vertical chain", path + (i,))
        ends = (ends[0][0], ends[-1][1]) + ends[0][2:]
    elif isinstance(p, HComp):
        si, ti, a, b = _walk(p.inner, data, path + ("inner",), tape)
        so, to, b2, c = _walk(p.outer, data, path + ("outer",), tape)
        if b2 != b:
            raise TermError("horizontal mismatch", path)
        ends = (Comp1(so, si), Comp1(to, ti), a, c)
    elif isinstance(p, Tensor2):
        sl, tl, al, bl = _walk(p.left, data, path + ("left",), tape)
        sr, tr, ar, br = _walk(p.right, data, path + ("right",), tape)
        ends = (Tensor1(sl, sr), Tensor1(tl, tr),
                ObjTensor(al, ar), ObjTensor(bl, br))
    else:
        ends = _leaf_ends(p, data, path)
        if tape is not None and type(p) is not Id2:
            tape.append((path, p) + ends[:2])
    if tape is not None:
        object.__setattr__(p, "_walked", (data,) + ends)
    return ends


def _leaf_ends(p, data, path):
    """`_walk` of a 2-cell leaf."""
    if isinstance(p, Inv2):
        if not isinstance(p.inner, STRUCTURAL_2):
            raise TermError("inv2 of a non-invertible cell", path)
        t, s, a, b = _walk(p.inner, data, path + ("inv2",), None)
    elif isinstance(p, Gen2):
        if p.name not in data.two_gens:
            raise TermError("unknown 2-generator %r" % p.name)
        # a generator is globular by construction of `data`
        s, t = data.two_gens[p.name]
        a, b = morphism_boundary(s, data)
    elif isinstance(p, STRUCTURAL_2):
        try:
            s, t = p.sides(data)
            a, b = morphism_boundary(s, data)
            if t is not s:
                morphism_boundary(t, data)
        except TermError as e:
            # its path inside the sentence names no part of the term
            raise TermError("%s: %s" % (p.SYMBOL, e.message), path) from None
    else:
        raise TermError("not a 2-cell leaf: %r" % (p,), path)
    return (s, t, a, b)


#: composite class -> its part fields in movie order, which are also its
#: path steps: the 2-cell steps of `LIFT`, in `parts` order
_MOVIE = {cls: tuple(over.values()) for cls, over in LIFT.values()}


def _replay(p, data, path, tape):
    """Append the tape of `p`, walked under `data` before, from the memos
    of its leaves; a part whose memo another datum has since overwritten
    is walked again."""
    cls = type(p)
    if cls is VComp:
        for i, c in enumerate(p.children):
            _walk(c, data, path + (i,), tape)
    elif cls in _MOVIE:
        for step in _MOVIE[cls]:
            _walk(getattr(p, step), data, path + (step,), tape)
    elif cls is not Id2:
        tape.append((path, p) + p._walked[1:3])


def two_cell_boundary(p: TwoCellTerm,
                      data: GeneratingData) -> Tuple[MorphismTerm, MorphismTerm]:
    """(source, target) morphism terms of a two-cell term (see `_walk`)."""
    return _walk(p, data, (), None)[:2]


def two_cell_source(p, data):
    return two_cell_boundary(p, data)[0]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    """List of constraint violations; empty means the term is valid.

    A valid term's report keeps its `boundary` and its movie tape
    `events`; both are None for an invalid term.
    """

    entries: list = field(default_factory=list)
    boundary: Optional[tuple] = None
    events: Optional[list] = None

    @property
    def ok(self):
        return not self.entries

    def add(self, path, message):
        self.entries.append((tuple(path), message))

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join("%s: %s" % ("/".join(map(str, p)) or "<root>", m)
                         for p, m in self.entries)


def _validate_object(w, data, report, path):
    if isinstance(w, Unit):
        return
    if isinstance(w, ObjGen):
        if w.name not in data.objects:
            report.add(path, "unknown object generator %r" % w.name)
        return
    if isinstance(w, ObjTensor):
        _validate_object(w.left, data, report, path + ("left",))
        _validate_object(w.right, data, report, path + ("right",))
        return
    report.add(path, "not an object word: %r" % (w,))


def _validate_morphism_leaves(t, data, report, path):
    """Names and formal adjoints in morphism term `t`; composability is
    left to `morphism_boundary`."""
    for at, m in subterms(t, path):
        if isinstance(m, Adj1):
            if not isinstance(m.inner, STRUCTURAL_1):
                report.add(at, "formal adjoint of a non-structural symbol")
                continue
            at, m = at + ("inv",), m.inner
        if isinstance(m, Gen1):
            if m.name not in data.one_gens:
                report.add(at, "unknown 1-generator %r" % m.name)
        elif isinstance(m, STRUCTURAL_1):
            # every 1-symbol parameter is an object word; a unary symbol
            # reports at its own path, an n-ary one at path/i
            unary = len(m.ARGS) == 1
            for i, (name, _) in enumerate(m.ARGS):
                _validate_object(getattr(m, name), data, report,
                                 at if unary else at + (i,))
        elif not parts(m):
            report.add(at, "not a morphism term: %r" % (m,))


def _validate_leaf(p, data, report, path):
    """Names and admissibility of one node of a two-cell term; whether
    anything composes is left to the boundary walk."""
    if isinstance(p, Gen2):
        if p.name not in data.two_gens:
            report.add(path, "unknown 2-generator %r" % p.name)
    elif isinstance(p, Inv2):
        if not isinstance(p.inner, STRUCTURAL_2):
            report.add(path, "inv2 of a non-invertible cell")
    elif isinstance(p, VComp):
        if not p.children:
            report.add(path, "empty vertical chain")
    elif isinstance(p, STRUCTURAL_2):
        for name, kind in p.ARGS:
            check = (_validate_object if kind == "object"
                     else _validate_morphism_leaves)
            check(getattr(p, name), data, report, path)
    elif not parts(p):
        report.add(path, "not a 2-cell leaf: %r" % (p,))


def _check_names(p, data, report, path, seen):
    """`_validate_leaf` of every node in `subterms` order, but of no node
    under one already validated under `data`.  A parse shares repeated
    subterms, so a composite can be met again at another path: `seen`
    holds the id of each composite this pass has entered, and one met
    again is skipped while the pass has found nothing, since it was found
    clean; once the report has an entry, each is checked again and so
    reported at every path."""
    memo = getattr(p, "_walked", None)
    if memo is not None and memo[0] is data:
        return
    ps = parts(p)
    if ps:
        if id(p) in seen and not report.entries:
            return
        seen.add(id(p))
    _validate_leaf(p, data, report, path)
    for step, c in ps:
        _check_names(c, data, report, path + (step,), seen)


def validate(term: TwoCellTerm, data: GeneratingData) -> ValidationReport:
    """Check that `term` is a paragraph over `data`.

    Every node is checked on its own first for names and admissibility,
    and every violation is reported.  If there are none, one boundary walk
    from the root decides composability: it reports the first failure in
    movie order, at its path, whether a vertical chain, a horizontal
    composite or a structural leaf's own sentences.  The walk records the
    tape `_diagram.run_movie` plays.  A node validated under `data` before
    is not walked again under it (see `_walk`): neither pass enters it, and
    its tape is replayed from its leaves' memos.  So a node that occurs at
    several paths of `term`, as equal parenthesised subterms of one parsed
    text do, is walked once and replayed at its other paths; the names
    pass checks it once unless it finds a violation, and then reports
    each at every path (see `_check_names`).
    """
    report = ValidationReport()
    _check_names(term, data, report, (), set())
    if report.ok:
        tape = []
        try:
            report.boundary = _walk(term, data, (), tape)[:2]
            report.events = tape
        except TermError as e:
            report.add(e.path, e.message)
    return report


# ---------------------------------------------------------------------------
# DSL lexer
# ---------------------------------------------------------------------------

#: one token per match; `split` leaves the text between tokens, which
#: must be whitespace
_TOKEN_RE = re.compile(
    r"(\(\*\)|⊗|[()\[\],;.#]|[A-Za-z_][A-Za-z0-9_'+-]*|\d+)")

#: token text -> kind; every other token is a NAME
_TOKEN_KINDS = {"(*)": "TENSOR", "⊗": "TENSOR", "(": "LPAR", ")": "RPAR",
                "[": "LBRACK", "]": "RBRACK", ",": "COMMA", ";": "SEMI",
                ".": "DOT", "#": "HASH"}


def _lex(text):
    """The (kind, text, position) tokens of `text`, ending in EOF, and a
    list `close` that holds at the index of each '(' the index of the ')'
    that closes it (0 at every other token, and at a '(' never closed).
    Whitespace separates tokens; any other character no token matches is
    a `ParseError` at its position."""
    pieces = _TOKEN_RE.split(text)  # gap, token, gap, ..., token, gap
    starts = list(accumulate(map(len, pieces), initial=0))
    if "".join(pieces[::2]).strip():
        for gap, start in zip(pieces[::2], starts[::2]):
            rest = gap.lstrip()
            if rest:
                raise ParseError("unexpected character %r" % rest[0],
                                 start + len(gap) - len(rest))
    words = pieces[1::2]
    tokens = list(zip(map(_TOKEN_KINDS.get, words, repeat("NAME")), words,
                      starts[1::2]))
    tokens.append(("EOF", "", len(text)))
    close = [0] * len(tokens)
    opened = []
    for i, word in enumerate(words):
        if word == "(":
            opened.append(i)
        elif word == ")" and opened:
            close[opened.pop()] = i
    return tokens, close


class _Level:
    """The grammar of one term level, read off `SYMBOLS` and `_SYNTAX`: its
    `name` in messages, its generator and symbol classes, its wrapper
    keyword, built by `wrap` (``inv(...)`` parses to the formal adjoint),
    and lexer token kind -> infix composite."""

    def __init__(self, name, union, generator, wrap):
        self.name, self.generator, self.wrap = name, generator, wrap
        self.classes = set(get_args(union))
        syntax = [(c, t) for c, t in _SYNTAX.items() if c in self.classes]
        self.keyword = next(t for _, t in syntax if t.isidentifier())
        self.infix = {_TOKEN_KINDS[t]: c for c, t in syntax
                      if not t.isidentifier()}
        self.chain = VComp in self.classes
        # the tensor token has two spellings, so messages name its kind
        expected = ["tensor" if kind == "TENSOR" else repr(_SYNTAX[c])
                    for kind, c in self.infix.items()]
        expected += ["')'"] if self.chain else []
        self.expected = "%s or %s" % (", ".join(expected[:-1]), expected[-1])


_MORPHISM = _Level("morphism", MorphismTerm, Gen1, formal_adjoint)
_TWO_CELL = _Level("2-cell", TwoCellTerm, Gen2, Inv2)


class _Parser:
    """Recursive descent over the tokens of one text.

    A term in parentheses whose text this parser has read before at the
    same level is not read again: `spans` maps (level, text of the span)
    to the node read there, and the parser returns that node and skips to
    the span's ')'.  Equal parenthesised subterms of one text are one
    object; the table lives as long as the parser, one `parse_*` call, so
    no node is shared between two calls."""

    def __init__(self, text):
        self.text = text
        self.tokens, self.close = _lex(text)
        self.i = 0
        self.spans = {}

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError("expected %s, got %r" % (kind, tok[1]), tok[2])
        return tok

    def at_end(self):
        return self.peek()[0] == "EOF"

    # object words -----------------------------------------------------

    def object_word(self):
        kind, text, pos = self.peek()
        if kind == "NAME":
            self.next()
            if text == "1":
                return UNIT
            return ObjGen(text)
        if kind == "LPAR":
            self.next()
            left = self.object_word()
            self.expect("TENSOR")
            right = self.object_word()
            self.expect("RPAR")
            return ObjTensor(left, right)
        raise ParseError("expected object word, got %r" % text, pos)

    # structural symbols -----------------------------------------------

    def _symbol(self, cls):
        """The bracketed arguments of structural symbol `cls`, read by kind
        and parenthesised in runs of ``cls.GROUP`` as `_Symbol` prints them."""
        group = cls.GROUP
        self.expect("LBRACK")
        args = []
        for i, (_, kind) in enumerate(cls.ARGS):
            if i:
                self.expect("COMMA")
            if group > 1 and i % group == 0:
                self.expect("LPAR")
            args.append(self.object_word() if kind == "object"
                        else self.term(_MORPHISM))
            if group > 1 and i % group == group - 1:
                self.expect("RPAR")
        self.expect("RBRACK")
        return cls(*args)

    # morphism and two-cell terms --------------------------------------

    def term(self, level):
        """A term at `level` (`_MORPHISM` or `_TWO_CELL`)."""
        kind, text, pos = self.next()
        if kind == "NAME":
            if text == level.keyword:
                self.expect("LPAR")
                inner = self.term(level)
                self.expect("RPAR")
                return level.wrap(inner)
            cls = SYMBOLS.get(text)
            if cls is None and text not in _RESERVED:
                return level.generator(text)
            if cls in level.classes:
                return self._symbol(cls)
            raise ParseError("reserved name %r in %s position"
                             % (text, level.name), pos)
        if kind == "LPAR":
            # a term read from '(' ends at the ')' that closes it, so a
            # span of equal text is the same tokens and reads to an equal
            # node; an unclosed '(' (close 0) keys no text a read span has
            end = self.close[self.i - 1]
            key = (level, self.text[pos:self.tokens[end][2] + 1])
            node = self.spans.get(key)
            if node is not None:
                self.i = end + 1
                return node
            children = [self.term(level)]
            kind, text, pos = self.next()
            cls = level.infix.get(kind)
            if cls is None:
                if kind != "RPAR" or not level.chain:
                    raise ParseError("expected %s, got %r"
                                     % (level.expected, text), pos)
                node = VComp(tuple(children))  # unary chain ( P )
            else:
                children.append(self.term(level))
                while cls is VComp and self.peek()[0] == kind:
                    self.next()
                    children.append(self.term(level))
                self.expect("RPAR")
                node = _assemble(cls, children)
            self.spans[key] = node
            return node
        raise ParseError("expected %s term, got %r" % (level.name, text), pos)


def _parse(text, read):
    """`read` of a parser over all of `text`."""
    p = _Parser(text)
    t = read(p)
    if not p.at_end():
        raise ParseError("trailing input", p.peek()[2])
    return t


def parse_object_word(text: str) -> ObjectWord:
    return _parse(text, _Parser.object_word)


def parse_morphism(text: str) -> MorphismTerm:
    return _parse(text, lambda p: p.term(_MORPHISM))


def parse_two_cell(text: str, data: Optional[GeneratingData] = None) -> TwoCellTerm:
    t = _parse(text, lambda p: p.term(_TWO_CELL))
    if data is not None:
        report = validate(t, data)
        if not report.ok:
            raise TermError(str(report))
    return t


def print_two_cell(p: TwoCellTerm) -> str:
    return str(p)


# ---------------------------------------------------------------------------
# leaves
# ---------------------------------------------------------------------------

def iter_two_cell_leaves(p: TwoCellTerm):
    """Yield every leaf of a term, depth first in `parts` order."""
    ps = parts(p)
    if not ps:
        yield p
    for _, c in ps:
        yield from iter_two_cell_leaves(c)


def count_leaves(p: TwoCellTerm) -> int:
    return sum(1 for _ in iter_two_cell_leaves(p))


def morphism_leaves(t: MorphismTerm):
    """Left-to-right 1-cell leaves of a morphism term."""
    return list(iter_two_cell_leaves(t))
