"""Free symmetric monoidal bicategory term language.

Three layers of terms over a generating datum:

* object words -- binary trees of object generators and the unit,
* morphism terms -- binary sentences built from 1-generators and the
  structural 1-symbols (identities, associators, unitors, symmetries),
* two-cell terms -- paragraphs built from 2-generators and the structural
  2-symbols, combined by vertical chains, horizontal composition and tensor.

Terms are immutable; equality is exact tree equality (no implicit
rebracketing).  Boundaries are computed leaf-up from the structural symbol
tables, with generator names always resolved against the generating
datum.  One boundary walk decides whether the parts of a two-cell term
compose: it builds and checks each structural leaf's sentences once, and
composites compare the object ends their parts carry.  `vcompose`,
`hcompose` and `validate` all ask it.  `validate` checks each node's
names and admissibility on its own, reporting every violation, then walks
the boundary once from the root, reporting the first composability
failure in movie order.  A small DSL (`parse_*` / `print_*`) gives a
textual form with a parse/print round-trip guarantee.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
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
    """Printed form ``name[arg,...]`` of a structural symbol.

    ``SYMBOL`` (the DSL name) and ``ARGS`` ((field, "object"|"morphism")
    per parameter) are set from the `SYMBOLS` table below.
    """

    def __str__(self):
        return "%s[%s]" % (self.SYMBOL, ",".join(str(getattr(self, name))
                                                 for name, _ in self.ARGS))


@dataclass(frozen=True)
class Gen1:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Id1(_Symbol):
    word: ObjectWord


@dataclass(frozen=True)
class Assoc1(_Symbol):
    u: ObjectWord
    v: ObjectWord
    w: ObjectWord


@dataclass(frozen=True)
class LeftUnitor1(_Symbol):
    word: ObjectWord


@dataclass(frozen=True)
class RightUnitor1(_Symbol):
    word: ObjectWord


@dataclass(frozen=True)
class Braid1(_Symbol):
    u: ObjectWord
    v: ObjectWord


@dataclass(frozen=True)
class Adj1:
    """Formal adjoint-inverse x* of a structural 1-symbol."""

    inner: "MorphismTerm"

    def __str__(self):
        return "inv(%s)" % (self.inner,)


@dataclass(frozen=True)
class Comp1:
    """Composite after ∘ first: ``Comp1(f, g)`` is f∘g, applying g then f."""

    after: "MorphismTerm"
    first: "MorphismTerm"

    def __str__(self):
        # DSL reads left-to-right in application order: (first ; after)
        return "(%s ; %s)" % (self.first, self.after)


@dataclass(frozen=True)
class Tensor1:
    left: "MorphismTerm"
    right: "MorphismTerm"

    def __str__(self):
        return "(%s (*) %s)" % (self.left, self.right)


MorphismTerm = Union[Gen1, Id1, Assoc1, LeftUnitor1, RightUnitor1, Braid1,
                     Adj1, Comp1, Tensor1]


def comp1(*fs: MorphismTerm) -> MorphismTerm:
    """Left-bracketed composite of morphisms listed in application order."""
    out = fs[0]
    for f in fs[1:]:
        out = Comp1(f, out)
    return out


def formal_adjoint(t: MorphismTerm) -> MorphismTerm:
    """The formal adjoint t*.

    Defined on terms built from structural symbols only; 1-generators have
    no formal adjoint (their duality data lives in presentation 2-cells).
    """
    if isinstance(t, Gen1):
        raise TermError("1-generator %r has no formal adjoint" % t.name)
    if isinstance(t, Adj1):
        return t.inner
    if isinstance(t, STRUCTURAL_1):
        return Adj1(t)
    if isinstance(t, Comp1):
        return Comp1(formal_adjoint(t.first), formal_adjoint(t.after))
    if isinstance(t, Tensor1):
        return Tensor1(formal_adjoint(t.left), formal_adjoint(t.right))
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


@dataclass(frozen=True)
class AssocC(_Symbol):
    """a^c: ((f∘f')∘f'') ⇒ (f∘(f'∘f''));  fields in application order."""

    f2: MorphismTerm  # applied first
    f1: MorphismTerm
    f0: MorphismTerm  # applied last


@dataclass(frozen=True)
class RC(_Symbol):
    """r^c: f∘I_a ⇒ f."""

    f: MorphismTerm


@dataclass(frozen=True)
class LC(_Symbol):
    """l^c: I_b∘f ⇒ f."""

    f: MorphismTerm


@dataclass(frozen=True)
class Eta(_Symbol):
    """eta_f: I_a ⇒ f*∘f (f structural-only)."""

    f: MorphismTerm


@dataclass(frozen=True)
class Eps(_Symbol):
    """eps_f: f∘f* ⇒ I_b (f structural-only)."""

    f: MorphismTerm


@dataclass(frozen=True)
class PhiTensor(_Symbol):
    """phi: (f⊗g)∘(f'⊗g') ⇒ (f∘f')⊗(g∘g').

    The one symbol with grouped arguments: ``phi[(f,g),(f',g')]``; the
    parser's `_symbol` reads the same grouping.
    """

    f: MorphismTerm
    g: MorphismTerm
    f1: MorphismTerm
    g1: MorphismTerm

    def __str__(self):
        return "%s[(%s,%s),(%s,%s)]" % (self.SYMBOL, self.f, self.g,
                                        self.f1, self.g1)


@dataclass(frozen=True)
class Phi0(_Symbol):
    """phi0: I_{a⊗a'} ⇒ I_a ⊗ I_{a'}."""

    a: ObjectWord
    a1: ObjectWord


@dataclass(frozen=True)
class AssocF(_Symbol):
    """Pseudo-naturality filler of alpha at (f,g,h)."""

    f: MorphismTerm
    g: MorphismTerm
    h: MorphismTerm


@dataclass(frozen=True)
class LeftUnitorF(_Symbol):
    f: MorphismTerm


@dataclass(frozen=True)
class RightUnitorF(_Symbol):
    f: MorphismTerm


@dataclass(frozen=True)
class BraidF(_Symbol):
    """Pseudo-naturality filler of beta at (f,g)."""

    f: MorphismTerm
    g: MorphismTerm


@dataclass(frozen=True)
class Pi(_Symbol):
    a: ObjectWord
    b: ObjectWord
    c: ObjectWord
    d: ObjectWord


@dataclass(frozen=True)
class MuCell(_Symbol):
    a: ObjectWord
    b: ObjectWord


@dataclass(frozen=True)
class LamCell(_Symbol):
    a: ObjectWord
    b: ObjectWord


@dataclass(frozen=True)
class RhoCell(_Symbol):
    a: ObjectWord
    b: ObjectWord


@dataclass(frozen=True)
class RCell(_Symbol):
    a: ObjectWord
    b: ObjectWord
    c: ObjectWord


@dataclass(frozen=True)
class SCell(_Symbol):
    a: ObjectWord
    b: ObjectWord
    c: ObjectWord


@dataclass(frozen=True)
class SigmaCell(_Symbol):
    """sigma: I_{a⊗b} ⇒ beta_{b,a}∘beta_{a,b} (syllepsis)."""

    a: ObjectWord
    b: ObjectWord


@dataclass(frozen=True)
class Inv2:
    """Formal inverse of an invertible structural 2-cell."""

    inner: "TwoCellTerm"

    def __str__(self):
        return "inv2(%s)" % (self.inner,)


@dataclass(frozen=True)
class VComp:
    """Vertical chain, children listed in application order (first acts first)."""

    children: Tuple["TwoCellTerm", ...]

    def __str__(self):
        return "(%s)" % " . ".join(str(c) for c in self.children)


@dataclass(frozen=True)
class HComp:
    """Horizontal composite ``HComp(outer, inner)`` = outer * inner."""

    outer: "TwoCellTerm"
    inner: "TwoCellTerm"

    def __str__(self):
        return "(%s # %s)" % (self.outer, self.inner)


@dataclass(frozen=True)
class Tensor2:
    left: "TwoCellTerm"
    right: "TwoCellTerm"

    def __str__(self):
        return "(%s (*) %s)" % (self.left, self.right)


TwoCellTerm = Union[Gen2, Id2, AssocC, RC, LC, Eta, Eps, PhiTensor, Phi0,
                    AssocF, LeftUnitorF, RightUnitorF, BraidF, Pi, MuCell,
                    LamCell, RhoCell, RCell, SCell, SigmaCell, Inv2, VComp,
                    HComp, Tensor2]


# ---------------------------------------------------------------------------
# the structural symbols
# ---------------------------------------------------------------------------

#: DSL name -> class of every structural symbol.  Parsing, printing,
#: validation, the reserved names and orientation forgetting all read this
#: table; only the boundary formulas (`_leaf_boundary`, `morphism_boundary`)
#: are written per symbol.  The strand map of each 2-symbol (`strand_paths`)
#: and the strand wiring of each 1-symbol (`_diagram.leaf_arc_spec`) derive
#: from its boundary formula.
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

_RESERVED = set(SYMBOLS) | {"inv", "inv2", "1"}


# ---------------------------------------------------------------------------
# the composite nodes
# ---------------------------------------------------------------------------

#: composite class -> its (path step, field) pairs, in walk order; `VComp`
#: steps by position.  Every walk that only recurses (rewriting, validation,
#: orientation forgetting, leaf and subterm enumeration) reads this table
#: through `parts`, `rebuild` and `subterms`; the boundary formulas, the
#: formal adjoint and the movie walk are written per composite.  `Adj1`
#: wraps one structural symbol and is a leaf here.
_PARTS = {
    HComp: (("outer", "outer"), ("inner", "inner")),
    Tensor2: (("left", "left"), ("right", "right")),
    Inv2: (("inv2", "inner"),),
    Comp1: (("first", "first"), ("after", "after")),
    Tensor1: (("left", "left"), ("right", "right")),
}


def parts(node):
    """(path step, child) pairs of a composite node; [] for a leaf."""
    if type(node) is VComp:
        return list(enumerate(node.children))
    spec = _PARTS.get(type(node))
    return [(step, getattr(node, name)) for step, name in spec] if spec else []


def rebuild(node, children):
    """A node of the same class as `node` over `children` (in `parts` order)."""
    if type(node) is VComp:
        return VComp(tuple(children))
    return type(node)(**{name: c for (_, name), c
                         in zip(_PARTS[type(node)], children)})


def subterms(node, path=()):
    """(path, subterm) pairs: the node itself, then its parts recursively."""
    yield path, node
    for step, c in parts(node):
        yield from subterms(c, path + (step,))


def vcompose(ps: Sequence[TwoCellTerm], data: GeneratingData) -> TwoCellTerm:
    """Vertical chain of two-cells in application order; nested chains are
    flattened.  Boundary mismatches over `data` raise TermError."""
    if not ps:
        raise TermError("vertical chain must be non-empty")
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
    2-generator is checked on construction.
    """

    objects: Tuple[str, ...]
    one_gens: dict
    two_gens: dict

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

    def one_gen_boundary(self, name):
        if name not in self.one_gens:
            raise TermError("unknown 1-generator %r" % name)
        return self.one_gens[name]

    def two_gen_boundary(self, name):
        if name not in self.two_gens:
            raise TermError("unknown 2-generator %r" % name)
        return self.two_gens[name]


def morphism_boundary(t: MorphismTerm, data: GeneratingData,
                      path=()) -> Tuple[ObjectWord, ObjectWord]:
    """(source, target) object words of a morphism term, its 1-generator
    names resolved against `data`."""
    if isinstance(t, Gen1):
        return data.one_gen_boundary(t.name)
    if isinstance(t, Id1):
        return (t.word, t.word)
    if isinstance(t, Assoc1):
        return (ObjTensor(ObjTensor(t.u, t.v), t.w),
                ObjTensor(t.u, ObjTensor(t.v, t.w)))
    if isinstance(t, LeftUnitor1):
        return (ObjTensor(UNIT, t.word), t.word)
    if isinstance(t, RightUnitor1):
        return (t.word, ObjTensor(t.word, UNIT))
    if isinstance(t, Braid1):
        return (ObjTensor(t.u, t.v), ObjTensor(t.v, t.u))
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
    raise TermError("not a morphism term: %r" % (t,), path)


def _leaf_boundary(p, data):
    """(source, target) morphism terms of a structural or generator 2-leaf."""
    if isinstance(p, Gen2):
        return data.two_gen_boundary(p.name)
    if isinstance(p, Id2):
        return (p.f, p.f)
    if isinstance(p, AssocC):
        return (Comp1(Comp1(p.f0, p.f1), p.f2),
                Comp1(p.f0, Comp1(p.f1, p.f2)))
    if isinstance(p, RC):
        a, _ = morphism_boundary(p.f, data)
        return (Comp1(p.f, Id1(a)), p.f)
    if isinstance(p, LC):
        _, b = morphism_boundary(p.f, data)
        return (Comp1(Id1(b), p.f), p.f)
    if isinstance(p, Eta):
        a, _ = morphism_boundary(p.f, data)
        return (Id1(a), Comp1(formal_adjoint(p.f), p.f))
    if isinstance(p, Eps):
        _, b = morphism_boundary(p.f, data)
        return (Comp1(p.f, formal_adjoint(p.f)), Id1(b))
    if isinstance(p, PhiTensor):
        return (Comp1(Tensor1(p.f, p.g), Tensor1(p.f1, p.g1)),
                Tensor1(Comp1(p.f, p.f1), Comp1(p.g, p.g1)))
    if isinstance(p, Phi0):
        return (Id1(ObjTensor(p.a, p.a1)), Tensor1(Id1(p.a), Id1(p.a1)))
    if isinstance(p, AssocF):
        (a, b) = morphism_boundary(p.f, data)
        (c, d) = morphism_boundary(p.g, data)
        (x, y) = morphism_boundary(p.h, data)
        return (Comp1(Assoc1(b, d, y), Tensor1(Tensor1(p.f, p.g), p.h)),
                Comp1(Tensor1(p.f, Tensor1(p.g, p.h)), Assoc1(a, c, x)))
    if isinstance(p, LeftUnitorF):
        (a, b) = morphism_boundary(p.f, data)
        return (Comp1(LeftUnitor1(b), Tensor1(Id1(UNIT), p.f)),
                Comp1(p.f, LeftUnitor1(a)))
    if isinstance(p, RightUnitorF):
        (a, b) = morphism_boundary(p.f, data)
        return (Comp1(RightUnitor1(b), p.f),
                Comp1(Tensor1(p.f, Id1(UNIT)), RightUnitor1(a)))
    if isinstance(p, BraidF):
        (a, b) = morphism_boundary(p.f, data)
        (c, d) = morphism_boundary(p.g, data)
        return (Comp1(Braid1(b, d), Tensor1(p.f, p.g)),
                Comp1(Tensor1(p.g, p.f), Braid1(a, c)))
    if isinstance(p, Pi):
        a, b, c, d = p.a, p.b, p.c, p.d
        lhs = Comp1(Comp1(Tensor1(Id1(a), Assoc1(b, c, d)),
                          Assoc1(a, ObjTensor(b, c), d)),
                    Tensor1(Assoc1(a, b, c), Id1(d)))
        rhs = Comp1(Assoc1(a, b, ObjTensor(c, d)), Assoc1(ObjTensor(a, b), c, d))
        return (lhs, rhs)
    if isinstance(p, MuCell):
        a, b = p.a, p.b
        lhs = Comp1(Comp1(Tensor1(Id1(a), LeftUnitor1(b)), Assoc1(a, UNIT, b)),
                    Tensor1(RightUnitor1(a), Id1(b)))
        return (lhs, Id1(ObjTensor(a, b)))
    if isinstance(p, LamCell):
        a, b = p.a, p.b
        return (Tensor1(LeftUnitor1(a), Id1(b)),
                Comp1(LeftUnitor1(ObjTensor(a, b)), Assoc1(UNIT, a, b)))
    if isinstance(p, RhoCell):
        a, b = p.a, p.b
        return (Tensor1(Id1(a), RightUnitor1(b)),
                Comp1(Assoc1(a, b, UNIT), RightUnitor1(ObjTensor(a, b))))
    if isinstance(p, RCell):
        a, b, c = p.a, p.b, p.c
        lhs = Comp1(Comp1(Assoc1(b, c, a), Braid1(a, ObjTensor(b, c))),
                    Assoc1(a, b, c))
        rhs = Comp1(Comp1(Tensor1(Id1(b), Braid1(a, c)), Assoc1(b, a, c)),
                    Tensor1(Braid1(a, b), Id1(c)))
        return (lhs, rhs)
    if isinstance(p, SCell):
        a, b, c = p.a, p.b, p.c
        lhs = Comp1(Comp1(Adj1(Assoc1(c, a, b)), Braid1(ObjTensor(a, b), c)),
                    Adj1(Assoc1(a, b, c)))
        rhs = Comp1(Comp1(Tensor1(Braid1(a, c), Id1(b)), Adj1(Assoc1(a, c, b))),
                    Tensor1(Id1(a), Braid1(b, c)))
        return (lhs, rhs)
    if isinstance(p, SigmaCell):
        a, b = p.a, p.b
        return (Id1(ObjTensor(a, b)), Comp1(Braid1(b, a), Braid1(a, b)))
    raise TermError("not a 2-cell leaf: %r" % (p,))


def _strand_paths(cls):
    """(source path, target path) of each morphism parameter on both sides
    of structural 2-cell `cls`, read off `_leaf_boundary` with one marker
    leaf ``inv(I[#f])`` per parameter: it equals no sentence the formulas
    build, and they read no data for it."""
    marker = {name: Adj1(Id1(ObjGen("#" + name))) if kind == "morphism"
              else ObjGen("#" + name) for name, kind in cls.ARGS}
    source, target = ({t: path for path, t in subterms(side)}
                      for side in _leaf_boundary(cls(**marker), None))
    return tuple((source[m], target[m]) for m in marker.values()
                 if m in source and m in target)


_STRAND_PATHS = {cls: _strand_paths(cls) for cls in STRUCTURAL_2}


def strand_paths(cell):
    """(old path, new path) of each parameter subsentence an event of
    2-leaf `cell` carries through: a structural cell denotes a product
    bordism.  `Inv2` swaps its cell's paths; a generator has none, since
    every strand of its sentences reaches a boundary point."""
    if type(cell) is Inv2:
        return tuple((new, old) for old, new
                     in _STRAND_PATHS[type(cell.inner)])
    return _STRAND_PATHS.get(type(cell), ())


def _walk(p, data, path, tape):
    """(source, target, source object, target object) of a two-cell term,
    deciding whether its parts compose: a structural leaf's own sentences
    are built and checked once (a failure is raised at the leaf as
    ``<symbol>: <message>``), and composites compare their parts' object
    ends.  Every leaf but an identity appends (path, leaf, source, target)
    to a list `tape` in movie order (the inner part of an `HComp` first);
    an `Inv2` is one leaf, its cell's sides swapped."""
    if isinstance(p, Inv2):
        if not isinstance(p.inner, STRUCTURAL_2):
            raise TermError("inv2 only applies to structural 2-cells", path)
        t, s, a, b = _walk(p.inner, data, path + ("inv2",), None)
    elif isinstance(p, VComp):
        if not p.children:
            raise TermError("empty vertical chain", path)
        ends = [_walk(c, data, path + (i,), tape)
                for i, c in enumerate(p.children)]
        for i in range(len(ends) - 1):
            if ends[i][1] != ends[i + 1][0]:
                raise TermError("non-composable vertical chain", path + (i,))
        return (ends[0][0], ends[-1][1]) + ends[0][2:]
    elif isinstance(p, HComp):
        si, ti, a, b = _walk(p.inner, data, path + ("inner",), tape)
        so, to, b2, c = _walk(p.outer, data, path + ("outer",), tape)
        if b2 != b:
            raise TermError("horizontal mismatch", path)
        return (Comp1(so, si), Comp1(to, ti), a, c)
    elif isinstance(p, Tensor2):
        sl, tl, al, bl = _walk(p.left, data, path + ("left",), tape)
        sr, tr, ar, br = _walk(p.right, data, path + ("right",), tape)
        return (Tensor1(sl, sr), Tensor1(tl, tr),
                ObjTensor(al, ar), ObjTensor(bl, br))
    elif not isinstance(p, STRUCTURAL_2):
        # a generator is globular by construction of `data`
        s, t = _leaf_boundary(p, data)
        a, b = morphism_boundary(s, data)
    else:
        try:
            s, t = _leaf_boundary(p, data)
            a, b = morphism_boundary(s, data)
            if t is not s:
                morphism_boundary(t, data)
        except TermError as e:
            # its path inside the sentence names no part of the term
            raise TermError("%s: %s" % (p.SYMBOL, e.message), path) from None
    if tape is not None and type(p) is not Id2:
        tape.append((path, p, s, t))
    return (s, t, a, b)


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


def validate(term: TwoCellTerm, data: GeneratingData) -> ValidationReport:
    """Check that `term` is a paragraph over `data`.

    Every node is checked on its own first for names and admissibility,
    and every violation is reported.  If there are none, one boundary walk
    from the root decides composability: it reports the first failure in
    movie order, at its path, whether a vertical chain, a horizontal
    composite or a structural leaf's own sentences.  The walk records the
    tape `_diagram.run_movie` plays.
    """
    report = ValidationReport()
    for path, p in subterms(term):
        _validate_leaf(p, data, report, path)
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

_TOKEN_RE = re.compile(r"""
    (?P<TENSOR>\(\*\)|⊗)
  | (?P<LPAR>\()
  | (?P<RPAR>\))
  | (?P<LBRACK>\[)
  | (?P<RBRACK>\])
  | (?P<COMMA>,)
  | (?P<SEMI>;)
  | (?P<DOT>\.)
  | (?P<HASH>\#)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_'+-]*|\d+)
  | (?P<WS>\s+)
""", re.VERBOSE)


def _lex(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r" % text[pos], pos)
        if m.lastgroup != "WS":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _lex(text)
        self.i = 0

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
        """The bracketed arguments of structural symbol `cls`, read by kind."""
        grouped = cls is PhiTensor      # phi[(f,g),(f',g')]
        self.expect("LBRACK")
        args = []
        for i, (_, kind) in enumerate(cls.ARGS):
            if i:
                self.expect("COMMA")
            if grouped and i % 2 == 0:
                self.expect("LPAR")
            args.append(self.object_word() if kind == "object"
                        else self.morphism())
            if grouped and i % 2 == 1:
                self.expect("RPAR")
        self.expect("RBRACK")
        return cls(*args)

    # morphism terms ---------------------------------------------------

    def morphism(self):
        kind, text, pos = self.peek()
        if kind == "NAME":
            self.next()
            if text == "inv":
                self.expect("LPAR")
                inner = self.morphism()
                self.expect("RPAR")
                return formal_adjoint(inner)
            cls = SYMBOLS.get(text)
            if cls is None and text not in _RESERVED:
                return Gen1(text)
            if cls in STRUCTURAL_1:
                return self._symbol(cls)
            raise ParseError("reserved name %r in morphism position" % text, pos)
        if kind == "LPAR":
            self.next()
            first = self.morphism()
            kind2, text2, pos2 = self.next()
            if kind2 == "SEMI":
                after = self.morphism()
                self.expect("RPAR")
                return Comp1(after, first)
            if kind2 == "TENSOR":
                right = self.morphism()
                self.expect("RPAR")
                return Tensor1(first, right)
            raise ParseError("expected ';' or tensor, got %r" % text2, pos2)
        raise ParseError("expected morphism term, got %r" % text, pos)

    # two-cell terms ---------------------------------------------------

    def two_cell(self):
        kind, text, pos = self.peek()
        if kind == "NAME":
            self.next()
            if text == "inv2":
                self.expect("LPAR")
                inner = self.two_cell()
                self.expect("RPAR")
                return Inv2(inner)
            cls = SYMBOLS.get(text)
            if cls is None and text not in _RESERVED:
                return Gen2(text)
            if cls in STRUCTURAL_2:
                return self._symbol(cls)
            raise ParseError("reserved name %r in 2-cell position" % text, pos)
        if kind == "LPAR":
            self.next()
            first = self.two_cell()
            kind2, text2, pos2 = self.next()
            if kind2 == "DOT":
                children = [first, self.two_cell()]
                while self.peek()[0] == "DOT":
                    self.next()
                    children.append(self.two_cell())
                self.expect("RPAR")
                return VComp(tuple(children))
            if kind2 == "HASH":
                inner = self.two_cell()
                self.expect("RPAR")
                return HComp(first, inner)
            if kind2 == "TENSOR":
                right = self.two_cell()
                self.expect("RPAR")
                return Tensor2(first, right)
            if kind2 == "RPAR":
                # unary vertical chain ( P )
                return VComp((first,))
            raise ParseError("expected '.', '#', tensor or ')', got %r" % text2,
                             pos2)
        raise ParseError("expected 2-cell term, got %r" % text, pos)


def parse_object_word(text: str) -> ObjectWord:
    p = _Parser(text)
    w = p.object_word()
    if not p.at_end():
        raise ParseError("trailing input", p.peek()[2])
    return w


def parse_morphism(text: str) -> MorphismTerm:
    p = _Parser(text)
    t = p.morphism()
    if not p.at_end():
        raise ParseError("trailing input", p.peek()[2])
    return t


def parse_two_cell(text: str, data: Optional[GeneratingData] = None) -> TwoCellTerm:
    p = _Parser(text)
    t = p.two_cell()
    if not p.at_end():
        raise ParseError("trailing input", p.peek()[2])
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
