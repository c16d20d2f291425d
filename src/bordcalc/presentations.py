"""Generators, relations and rewriting for the 2D bordism presentations.

`bord2_unoriented` and `bord2_oriented` build the concrete presentations:
point objects, the evaluation/coevaluation elbows, four Morse cells (birth
and death disks, the two saddles), cusp cells, and (unoriented only) the
four elbow/crossing interchange cells; the relation list holds the
saddle/disk cancellation rows expanded over their placement variants, the
cusp inversion rows and the crossing cancellation rows.  `Presentation`
checks once that every side composes over the generating data and that
both sides of a row have the same boundary.

`find_matches`/`apply` rewrite by the relations (exact subterm matching
modulo vertical-chain flattening) and `equivalent_bounded` searches the
rewrite graph breadth-first within a budget.  Each relation side is
canonicalised once, into `Presentation.rules_by_head`, a table keyed by
the side's first cell: the matcher compares a window only against the
sides that start with the window's first cell.  A result is spliced in
place (the new cells replace the window, and only a vertical-chain parent
absorbs them), so the rest of the term is shared.  A node memoises its
canonical form and the matches in its subtree, so a shared subterm is
never canonicalised or matched again: a result costs its spliced path.
Rewriting is congruence over the composite nodes, so every walk here
reaches subterms through `termcore.parts`/`rebuild`/`subterms` and only
the vertical chain (which flattens and splices) is handled by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, get_args

from . import termcore as tc
from .termcore import (Adj1, Assoc1, AssocC, Braid1, Comp1, Gen1, Gen2, HComp,
                       Id1, Id2, Inv2, LC, LeftUnitor1, ObjGen, RC,
                       RightUnitor1, Tensor1, VComp, UNIT, comp1)


class PresentationError(Exception):
    pass


@dataclass(frozen=True)
class Relation:
    name: str
    lhs: tc.TwoCellTerm
    rhs: tc.TwoCellTerm


@dataclass
class Presentation:
    """Generating datum plus relations and evaluation metadata.

    ``two_gen_tags`` gives the semantic class of each 2-generator (cap, cup,
    split, merge, cusp, sym) for the surface and evaluation engines; the
    strands of a 1-generator follow from its boundary in ``data``.
    """

    name: str
    data: tc.GeneratingData
    relations: List[Relation]
    two_gen_tags: Dict[str, str]

    def __post_init__(self):
        for rel in self.relations:
            lb = tc.two_cell_boundary(rel.lhs, self.data)
            rb = tc.two_cell_boundary(rel.rhs, self.data)
            if lb != rb:
                raise PresentationError(
                    "relation %r is not boundary-balanced" % rel.name)
        # first cell -> (rule index, name, direction, pattern chain,
        # replacement chain) of every relation side that starts with it,
        # canonicalised once; rules count lr before rl, in relation order
        self.rules_by_head = {}
        sides = [(rel.name, direction, _chain(canonical(src)),
                  _chain(canonical(dst)))
                 for rel in self.relations
                 for direction, src, dst in (("lr", rel.lhs, rel.rhs),
                                             ("rl", rel.rhs, rel.lhs))]
        for index, (name, direction, pat, rep) in enumerate(sides):
            self.rules_by_head.setdefault(pat[0], []).append(
                (index, name, direction, pat, rep))

    def relation(self, name: str) -> Relation:
        for rel in self.relations:
            if rel.name == name:
                return rel
        raise KeyError(name)

    def manifest(self) -> str:
        lines = ["presentation %s" % self.name]
        for o in self.data.objects:
            lines.append("object %s" % o)
        for n in sorted(self.data.one_gens):
            s, t = self.data.one_gens[n]
            lines.append("1-gen %s : %s -> %s" % (n, s, t))
        for n in sorted(self.data.two_gens):
            s, t = self.data.two_gens[n]
            lines.append("2-gen %s [%s] : %s => %s"
                         % (n, self.two_gen_tags.get(n, "?"), s, t))
        lines.append("cusp-generators %d"
                     % sum(1 for t in self.two_gen_tags.values()
                           if t == "cusp"))
        lines.append("relations %d" % len(self.relations))
        for rel in self.relations:
            lines.append("relation %s : %s == %s" % (rel.name, rel.lhs, rel.rhs))
        lines.append("note both cusp-inversion directions are kept although "
                     "one follows from the other")
        lines.append("structural-rewrites %s (invertible cells usable as "
                     "directed rewrites; not part of the relation list)"
                     % " ".join(name for name, cls in tc.SYMBOLS.items()
                                if cls in tc.STRUCTURAL_2
                                and cls not in (Id2, tc.Eta, tc.Eps)))
        return "\n".join(lines) + "\n"


# Expanded relation counts; the source figures only say "+ permutations",
# so the chosen enumeration is recorded here and in the manifest.
UNORIENTED_RELATION_COUNT = 14   # 8 disk/saddle cancels + 2 cusp + 4 crossing
ORIENTED_RELATION_COUNT = 12     # 8 disk/saddle cancels + 4 cusp
ORIENTED_CUSP_GENERATOR_COUNT = 4


# ---------------------------------------------------------------------------
# shared constructions
# ---------------------------------------------------------------------------

def _zigzag(ev, coev, a, b, incoming):
    """l*-led snake through the elbows ev: a(x)b -> 1, coev: 1 -> a(x)b.

    The incoming strand is braided past b so that ev consumes (b, incoming);
    requires ev's source to end in a point braidable with `incoming`.
    """
    return comp1(
        Adj1(LeftUnitor1(incoming)),
        Tensor1(coev, Id1(incoming)),
        Assoc1(a, b, incoming),
        Tensor1(Id1(a), Braid1(b, incoming)),
        Tensor1(Id1(a), ev),
        Adj1(RightUnitor1(a)),
    )


def _zigzag_mirror(ev, coev, a, b, incoming):
    """r-led mirror snake: coev is attached on the right of the strand."""
    return comp1(
        RightUnitor1(incoming),
        Tensor1(Id1(incoming), coev),
        Adj1(Assoc1(incoming, a, b)),
        Tensor1(Braid1(incoming, a), Id1(b)),
        Tensor1(ev, Id1(b)),
        LeftUnitor1(b),
    )


def _morse_cancel_rows(ev, coev):
    """Disk/saddle cancellation rows on the circle D = ev o coev.

    Eight rows: {split then cup, cap then merge} x {outer, inner circle}
    x {pinch dressed at the ev side, at the coev side}.
    """
    D = Comp1(ev, coev)
    pinch = Comp1(coev, ev)

    # rebracketing (ev o pinch) o coev => D o D
    to_dd_a = [AssocC(coev, pinch, ev),
               HComp(Id2(ev), AssocC(coev, ev, coev)),
               Inv2(AssocC(D, coev, ev))]
    # rebracketing ev o (pinch o coev) => D o D
    to_dd_b = [HComp(Id2(ev), AssocC(coev, ev, coev)),
               Inv2(AssocC(D, coev, ev))]

    pinch_in_a = [HComp(Inv2(RC(ev)), Id2(coev)),
                  HComp(HComp(Id2(ev), Gen2("split")), Id2(coev))]
    pinch_in_b = [HComp(Id2(ev), Inv2(LC(coev))),
                  HComp(Id2(ev), HComp(Gen2("split"), Id2(coev)))]
    pinch_out_a = [HComp(HComp(Id2(ev), Gen2("merge")), Id2(coev)),
                   HComp(RC(ev), Id2(coev))]
    pinch_out_b = [HComp(Id2(ev), HComp(Gen2("merge"), Id2(coev))),
                   HComp(Id2(ev), LC(coev))]

    rows = []
    for dress, to_dd, pin, pout in (
            ("a", to_dd_a, pinch_in_a, pinch_out_a),
            ("b", to_dd_b, pinch_in_b, pinch_out_b)):
        from_dd = [tc.formal_adjoint(c) for c in reversed(to_dd)]
        rows.append(Relation(
            "morse-cancel-split-cup-outer-" + dress,
            VComp((*pin, *to_dd, HComp(Gen2("cup"), Id2(D)), LC(D))),
            VComp((Id2(D),))))
        rows.append(Relation(
            "morse-cancel-split-cup-inner-" + dress,
            VComp((*pin, *to_dd, HComp(Id2(D), Gen2("cup")), RC(D))),
            VComp((Id2(D),))))
        rows.append(Relation(
            "morse-cancel-cap-merge-outer-" + dress,
            VComp((Inv2(LC(D)), HComp(Gen2("cap"), Id2(D)), *from_dd, *pout)),
            VComp((Id2(D),))))
        rows.append(Relation(
            "morse-cancel-cap-merge-inner-" + dress,
            VComp((Inv2(RC(D)), HComp(Id2(D), Gen2("cap")), *from_dd, *pout)),
            VComp((Id2(D),))))
    return rows


def _cusp_rows(updown_pairs):
    rows = []
    for name, up, down, strip, zig in updown_pairs:
        rows.append(Relation("cusp-inversion-%s-strip" % name,
                             VComp((Gen2(up), Gen2(down))),
                             VComp((Id2(strip),))))
        rows.append(Relation("cusp-inversion-%s-zigzag" % name,
                             VComp((Gen2(down), Gen2(up))),
                             VComp((Id2(zig),))))
    return rows


# ---------------------------------------------------------------------------
# the two presentations
# ---------------------------------------------------------------------------

def bord2_unoriented() -> Presentation:
    """Generators and relations of the unoriented 2D bordism bicategory."""
    P = ObjGen("pt")
    PP = tc.ObjTensor(P, P)
    ev, coev = Gen1("ev"), Gen1("coev")
    beta = Braid1(P, P)
    D = Comp1(ev, coev)            # the circle, as a 1 -> 1 sentence
    pinch = Comp1(coev, ev)        # two strips pinched, pt(x)pt -> pt(x)pt
    Z = _zigzag(ev, coev, P, P, P)

    two_gens = {
        "cap": (Id1(UNIT), D),
        "cup": (D, Id1(UNIT)),
        "split": (Id1(PP), pinch),
        "merge": (pinch, Id1(PP)),
        "cusp_up": (Id1(P), Z),
        "cusp_down": (Z, Id1(P)),
        "sym_ev_in": (ev, Comp1(ev, beta)),
        "sym_ev_out": (Comp1(ev, beta), ev),
        "sym_coev_in": (coev, Comp1(beta, coev)),
        "sym_coev_out": (Comp1(beta, coev), coev),
    }
    data = tc.GeneratingData(
        objects=("pt",),
        one_gens={"ev": (PP, UNIT), "coev": (UNIT, PP)},
        two_gens=two_gens)

    relations = _morse_cancel_rows(ev, coev)
    relations += _cusp_rows([("pt", "cusp_up", "cusp_down", Id1(P), Z)])
    relations += [
        Relation("sym-cancel-ev-strip",
                 VComp((Gen2("sym_ev_in"), Gen2("sym_ev_out"))),
                 VComp((Id2(ev),))),
        Relation("sym-cancel-ev-crossed",
                 VComp((Gen2("sym_ev_out"), Gen2("sym_ev_in"))),
                 VComp((Id2(Comp1(ev, beta)),))),
        Relation("sym-cancel-coev-strip",
                 VComp((Gen2("sym_coev_in"), Gen2("sym_coev_out"))),
                 VComp((Id2(coev),))),
        Relation("sym-cancel-coev-crossed",
                 VComp((Gen2("sym_coev_out"), Gen2("sym_coev_in"))),
                 VComp((Id2(Comp1(beta, coev)),))),
    ]

    tags = {"cap": "cap", "cup": "cup", "split": "split", "merge": "merge",
            "cusp_up": "cusp", "cusp_down": "cusp",
            "sym_ev_in": "sym", "sym_ev_out": "sym",
            "sym_coev_in": "sym", "sym_coev_out": "sym"}
    return Presentation("unoriented", data, relations, tags)


def bord2_oriented() -> Presentation:
    """Generators and relations of the oriented 2D bordism bicategory.

    No crossing cells; cusp cells come in the two orientation labelings of
    each of the two cusp shapes (four cells, recorded in the manifest).
    """
    Pp, Pm = ObjGen("pt+"), ObjGen("pt-")
    PP = tc.ObjTensor(Pp, Pm)
    ev, coev = Gen1("ev"), Gen1("coev")
    D = Comp1(ev, coev)
    pinch = Comp1(coev, ev)
    Zp = _zigzag(ev, coev, Pp, Pm, Pp)          # snake on the positive point
    Zm = _zigzag_mirror(ev, coev, Pp, Pm, Pm)   # mirror snake on the negative

    two_gens = {
        "cap": (Id1(UNIT), D),
        "cup": (D, Id1(UNIT)),
        "split": (Id1(PP), pinch),
        "merge": (pinch, Id1(PP)),
        "cusp_up_pos": (Id1(Pp), Zp),
        "cusp_down_pos": (Zp, Id1(Pp)),
        "cusp_up_neg": (Id1(Pm), Zm),
        "cusp_down_neg": (Zm, Id1(Pm)),
    }
    data = tc.GeneratingData(
        objects=("pt+", "pt-"),
        one_gens={"ev": (PP, UNIT), "coev": (UNIT, PP)},
        two_gens=two_gens)

    relations = _morse_cancel_rows(ev, coev)
    relations += _cusp_rows([
        ("pos", "cusp_up_pos", "cusp_down_pos", Id1(Pp), Zp),
        ("neg", "cusp_up_neg", "cusp_down_neg", Id1(Pm), Zm),
    ])

    tags = {"cap": "cap", "cup": "cup", "split": "split", "merge": "merge",
            "cusp_up_pos": "cusp", "cusp_down_pos": "cusp",
            "cusp_up_neg": "cusp", "cusp_down_neg": "cusp"}
    return Presentation("oriented", data, relations, tags)


# ---------------------------------------------------------------------------
# orientation forgetting
# ---------------------------------------------------------------------------

_POINT_MAP = {"pt+": "pt", "pt-": "pt"}
_GEN2_MAP = {"cap": "cap", "cup": "cup", "split": "split", "merge": "merge",
             "cusp_up_pos": "cusp_up", "cusp_down_pos": "cusp_down"}


#: term level, named as in a structural symbol's `ARGS` -> the node
#: classes a term of that level is built from
_LEVELS = {level: set(get_args(union)) for level, union in (
    ("object", tc.ObjectWord), ("morphism", tc.MorphismTerm),
    ("2-cell", tc.TwoCellTerm))}


def _forget(node, level):
    """`node`, a term of `level`, with its point labels and oriented
    2-generators forgotten; a node of another level raises."""
    cls = type(node)
    if cls not in _LEVELS[level]:
        raise PresentationError("cannot forget %r as a %s" % (node, level))
    if cls is ObjGen:
        return ObjGen(_POINT_MAP.get(node.name, node.name))
    if cls is Gen2:
        if node.name in ("cusp_up_neg", "cusp_down_neg"):
            raise PresentationError(
                "forgetting the mirror cusp cells is not supported")
        if node.name not in _GEN2_MAP:
            raise PresentationError("unknown oriented generator %r"
                                    % node.name)
        return Gen2(_GEN2_MAP[node.name])
    if cls in tc.STRUCTURAL_1 or cls in tc.STRUCTURAL_2:
        return cls(*(_forget(getattr(node, name), kind)
                     for name, kind in cls.ARGS))
    if cls is tc.ObjTensor:
        return tc.ObjTensor(_forget(node.left, level),
                            _forget(node.right, level))
    if cls is Adj1:
        return Adj1(_forget(node.inner, level))
    ps = tc.parts(node)
    return tc.rebuild(node, [_forget(c, level) for _, c in ps]) if ps else node


def forget_orientation(p: tc.TwoCellTerm) -> tc.TwoCellTerm:
    """Image of an oriented 2-cell term under the orientation-forgetting map.

    Point labels collapse, every oriented generator maps to its unoriented
    counterpart.  The negative cusp cells denote the mirror zigzag, which
    the unoriented presentation reaches through its own cusp cells only up
    to a crossing isotopy; mapping them is not supported and raises.  An
    object word or a morphism term raises.
    """
    return _forget(p, "2-cell")


# ---------------------------------------------------------------------------
# rewriting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RewriteStep:
    relation: str
    direction: str          # "lr" or "rl"
    path: tuple             # node path within the canonical term
    window: tuple           # (start, length) in the flattened chain there
    matched: tuple          # the cells replaced
    replacement: tuple      # the cells substituted
    result: tc.TwoCellTerm


#: the `canonical` memo of a node that is its own canonical form
_CANONICAL = "canonical"


def canonical(p: tc.TwoCellTerm) -> tc.TwoCellTerm:
    """Flatten nested vertical chains and drop unary chain wrappers.

    A node whose parts come back as they are, a chain included, is returned
    as it is, so rewrite results share their unchanged subterms.  The
    result is memoised on the node; a canonical node holds `_CANONICAL`,
    not itself, so that no node refers to itself.
    """
    memo = getattr(p, "_canonical", None)
    if memo is not None:
        return p if memo is _CANONICAL else memo
    if isinstance(p, VComp):
        flat = [c for child in p.children for c in _chain(canonical(child))]
        if len(flat) == 1:
            out = flat[0]
        elif len(flat) == len(p.children) and all(
                c is old for c, old in zip(flat, p.children)):
            out = p
        else:
            out = VComp(tuple(flat))
    else:
        ps = tc.parts(p)
        children = [canonical(c) for _, c in ps]
        out = p if all(c is old for c, (_, old) in zip(children, ps)) \
            else tc.rebuild(p, children)
    object.__setattr__(out, "_canonical", _CANONICAL)
    if out is not p:
        object.__setattr__(p, "_canonical", out)
    return out


def _chain(p):
    """The cells of a vertical chain, or the one cell `p`."""
    return p.children if isinstance(p, VComp) else (p,)


def _rewrite_at(p, path, i, k, rep):
    """Canonical `p` with cells i..i+k-1 of the chain at `path` replaced by
    the cells `rep`; a vertical-chain parent absorbs them, since the chain
    of each of its cells is that one cell."""
    if not path:
        cells = _chain(p)[:i] + rep + _chain(p)[i + k:]
        return cells[0] if len(cells) == 1 else VComp(cells)
    step, rest = path[0], path[1:]
    if not rest and type(p) is VComp:
        return VComp(p.children[:step] + rep + p.children[step + 1:])
    return tc.rebuild(p, [_rewrite_at(c, rest, i, k, rep) if s == step else c
                          for s, c in tc.parts(p)])


def _matches(node, table):
    """(path, window start, rule entry) of each relation side of `table`,
    a `rules_by_head`, in the subtree of canonical `node`, in `find_matches`
    order with paths relative to `node`: its own chain's hits, then each
    part's list.  Memoised on the node with the table it was read from."""
    memo = getattr(node, "_matches", None)
    if memo is not None and memo[0] is table:
        return memo[1]
    chain = _chain(node)
    # entry[0] is the rule index and entry[3] the pattern; hits sort by
    # (rule index, window start), which are unique
    own = sorted((entry[0], i, entry) for i, cell in enumerate(chain)
                 for entry in table.get(cell, ())
                 if chain[i:i + len(entry[3])] == entry[3])
    found = [((), i, entry) for _, i, entry in own]
    for step, c in tc.parts(node):
        found += [((step,) + path, i, entry)
                  for path, i, entry in _matches(c, table)]
    object.__setattr__(node, "_matches", (table, found))
    return found


def find_matches(t: tc.TwoCellTerm, p: Presentation) -> List[RewriteStep]:
    """All occurrences of any relation side in `t`, both directions.

    Matching is exact tree matching modulo vertical-chain flattening: a
    side whose chain is [c1..ck] matches any window of k consecutive cells
    in a flattened chain of `t`.  Steps come subterm by subterm, and
    within one by rule index, then window start.
    """
    t = canonical(t)
    steps = []
    for path, i, (_, name, direction, pat, rep) in _matches(
            t, p.rules_by_head):
        steps.append(RewriteStep(name, direction, path, (i, len(pat)), pat,
                                 rep, _rewrite_at(t, path, i, len(pat), rep)))
    return steps


def apply(t: tc.TwoCellTerm, step: RewriteStep) -> tc.TwoCellTerm:
    """Apply a step produced by `find_matches` on the same term.

    Raises if the step is stale, i.e. its path or its window no longer
    matches.
    """
    t = canonical(t)
    node = t
    for s in step.path:
        node = dict(tc.parts(node)).get(s)
        if node is None:
            raise PresentationError("stale step: path vanished")
    chain = _chain(node)
    i, k = step.window
    if chain[i:i + k] != step.matched:
        raise PresentationError("stale step: window no longer matches")
    return _rewrite_at(t, step.path, i, k, step.replacement)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of `equivalent_bounded`.

    ``nodes_expanded`` counts the terms whose rewrites were enumerated.
    ``stop`` says why the search ended: ``found`` (``steps`` is a path),
    ``depth`` (the last level the depth allows was reached), ``budget``
    (more than ``max_visited`` terms were seen) or ``exhausted`` (no new
    term was left to expand).
    """

    equivalent: bool
    steps: tuple
    nodes_expanded: int
    stop: str

    def __bool__(self):
        return self.equivalent


def equivalent_bounded(t1, t2, p: Presentation, depth: int = 6,
                       max_visited: int = 100000) -> SearchResult:
    """Breadth-first search for a rewrite path from t1 to t2.

    `equivalent` implies genuine equivalence in the presented bicategory;
    a negative result is only "unknown within the budget", even when the
    search is exhausted, because the structural rewrites are not among
    the relations it follows.  A negative budget raises ValueError.
    """
    if depth < 0 or max_visited < 0:
        raise ValueError("search budgets must be non-negative (depth %d, "
                         "max-visited %d)" % (depth, max_visited))
    b1 = tc.two_cell_boundary(t1, p.data)
    b2 = tc.two_cell_boundary(t2, p.data)
    if b1 != b2:
        raise PresentationError("boundary mismatch between search endpoints")
    start, goal = canonical(t1), canonical(t2)
    if start == goal:
        return SearchResult(True, (), 0, "found")
    frontier = [(start, ())]
    seen = {start}
    expanded = 0
    for _ in range(depth):
        nxt = []
        for term, trail in frontier:
            expanded += 1
            for step in find_matches(term, p):
                # add, then compare sizes: each result is hashed once (a
                # node caches its hash, so only the spliced path is new)
                res, size = step.result, len(seen)
                seen.add(res)
                if len(seen) == size:
                    continue
                new_trail = trail + (step,)
                if res == goal:
                    return SearchResult(True, new_trail, expanded, "found")
                if len(seen) > max_visited:
                    return SearchResult(False, (), expanded, "budget")
                nxt.append((res, new_trail))
        frontier = nxt
        if not frontier:
            return SearchResult(False, (), expanded, "exhausted")
    return SearchResult(False, (), expanded, "depth")
