"""Term language: boundaries, validation, parsing and printing."""

import random

import pytest

from bordcalc import termcore as tc
from bordcalc.termcore import (Adj1, Assoc1, AssocC, Braid1, Comp1, Eps, Eta,
                               Gen1, Gen2, Id1, Id2, Inv2, LC, LeftUnitor1,
                               ObjGen, ObjTensor, RC, RightUnitor1, Tensor1,
                               Tensor2, UNIT, comp1, hcompose, vcompose)
from bordcalc import build
from bordcalc import presentations as pr

P = ObjGen("pt")
PP = ObjTensor(P, P)


@pytest.fixture(scope="module")
def uno():
    return pr.bord2_unoriented()


@pytest.fixture(scope="module")
def ori():
    return pr.bord2_oriented()


def test_object_parse_trivia(uno):
    assert tc.parse_object_word("(pt ⊗ pt)") == PP
    assert tc.parse_object_word("1") == UNIT
    # names are checked by validation, at the word's path in the term
    report = tc.validate(tc.parse_two_cell("id[I[(pt (*) bad)]]"), uno.data)
    assert report.entries == [(("right",), "unknown object generator 'bad'")]


def test_braid_boundary_row(uno):
    # beta_{u,v}: u(x)v -> v(x)u
    s, t = tc.morphism_boundary(Braid1(P, PP), uno.data)
    assert s == ObjTensor(P, PP)
    assert t == ObjTensor(PP, P)


def test_identity_row(uno):
    s, t = tc.morphism_boundary(Id1(PP), uno.data)
    assert s == t == PP


def test_composite_boundary(uno):
    ev = Gen1("ev")
    t = Comp1(ev, Id1(PP))  # ev after I
    s, tt = tc.morphism_boundary(t, uno.data)
    assert s == PP and tt == UNIT


def test_bad_composite_reports_path(uno):
    ev = Gen1("ev")
    bad = Comp1(ev, Gen1("coev"))  # coev: 1 -> pt pt, then ev: ok actually
    s, t = tc.morphism_boundary(bad, uno.data)
    assert (s, t) == (UNIT, UNIT)
    really_bad = Comp1(Gen1("coev"), Gen1("coev"))
    with pytest.raises(tc.TermError):
        tc.morphism_boundary(really_bad, uno.data)


def test_eta_eps_rows(uno):
    # eta_f: I_a => f* . f for structural f
    f = Assoc1(P, P, P)
    s, t = tc.two_cell_boundary(Eta(f), uno.data)
    assert s == Id1(ObjTensor(PP, P))
    assert t == Comp1(Adj1(f), f)
    s, t = tc.two_cell_boundary(Eps(f), uno.data)
    assert s == Comp1(f, Adj1(f))
    assert t == Id1(ObjTensor(P, PP))


def test_eta_rejects_generators(uno):
    with pytest.raises(tc.TermError):
        tc.two_cell_boundary(Eta(Gen1("ev")), uno.data)


def test_sigma_row(uno):
    s, t = tc.two_cell_boundary(tc.SigmaCell(P, P), uno.data)
    assert s == Id1(PP)
    assert t == Comp1(Braid1(P, P), Braid1(P, P))


def test_globularity_of_valid_terms(uno):
    term = vcompose([Gen2("cap"), Gen2("cup")], uno.data)
    src, tgt = tc.two_cell_boundary(term, uno.data)
    assert tc.morphism_boundary(src, uno.data) == \
        tc.morphism_boundary(tgt, uno.data)


def test_vcompose_rejects_gaps(uno):
    with pytest.raises(tc.TermError):
        vcompose([Gen2("cap"), Gen2("cap")], uno.data)


def test_hcompose_checks_middle_object(uno):
    # cup # cup: t(t(inner)) = 1 = s(s(outer)): composable
    t = hcompose(Gen2("cup"), Gen2("cup"), uno.data)
    src, _ = tc.two_cell_boundary(t, uno.data)
    assert isinstance(src, Comp1)
    with pytest.raises(tc.TermError):
        # split: boundaries live on pt(x)pt; cup's source object is 1
        hcompose(Gen2("split"), Gen2("cup"), uno.data)


def test_vcompose_and_hcompose_always_check(uno):
    # structural cells and generators alike are checked against the data
    with pytest.raises(tc.TermError, match="non-composable vertical chain"):
        vcompose([Id2(Id1(P)), Id2(Id1(PP))], uno.data)
    with pytest.raises(tc.TermError, match="horizontal mismatch"):
        hcompose(Id2(Id1(P)), Id2(Id1(PP)), uno.data)
    with pytest.raises(tc.TermError, match="non-composable vertical chain"):
        vcompose([Gen2("cap"), Gen2("cap")], uno.data)
    with pytest.raises(tc.TermError, match="horizontal mismatch"):
        hcompose(Gen2("split"), Gen2("cup"), uno.data)


def test_tensor_boundary(uno):
    t = Tensor2(Id2(Id1(UNIT)), Gen2("cap"))
    src, tgt = tc.two_cell_boundary(t, uno.data)
    assert src == Tensor1(Id1(UNIT), Id1(UNIT))
    assert isinstance(tgt, Tensor1)


def test_validate_flags_unknown_and_mismatch(uno):
    rep = tc.validate(Gen2("nonsense"), uno.data)
    assert not rep.ok
    bad_chain = tc.VComp((Gen2("cap"), Gen2("cap")))
    rep = tc.validate(bad_chain, uno.data)
    assert not rep.ok
    good = vcompose([Gen2("cap"), Gen2("cup")], uno.data)
    assert tc.validate(good, uno.data).ok


# ---------------------------------------------------------------------------
# parse / print round trips over every leaf constructor
# ---------------------------------------------------------------------------

def _leaf_zoo(uno):
    ev, coev = Gen1("ev"), Gen1("coev")
    f = Id1(P)
    alpha = Assoc1(P, P, P)
    return [
        Id2(ev),
        AssocC(coev, ev, Id1(UNIT)),
        RC(ev),
        LC(ev),
        Eta(alpha),
        Eps(alpha),
        tc.PhiTensor(Id1(P), Id1(P), Id1(P), Id1(P)),
        tc.Phi0(P, P),
        tc.AssocF(f, f, f),
        tc.LeftUnitorF(f),
        tc.RightUnitorF(f),
        tc.BraidF(f, f),
        tc.Pi(P, P, P, P),
        tc.MuCell(P, P),
        tc.LamCell(P, P),
        tc.RhoCell(P, P),
        tc.RCell(P, P, P),
        tc.SCell(P, P, P),
        tc.SigmaCell(P, P),
        Inv2(RC(ev)),
        Gen2("cap"),
        vcompose([Gen2("cap"), Gen2("cup")], uno.data),
        hcompose(Gen2("cup"), Gen2("cup"), uno.data),
        Tensor2(Gen2("cap"), Gen2("cap")),
    ]


def test_round_trip_two_cells(uno):
    for term in _leaf_zoo(uno):
        text = tc.print_two_cell(term)
        back = tc.parse_two_cell(text)
        assert back == term, text


def test_round_trip_morphisms(uno):
    zoo = [
        Gen1("ev"),
        Id1(PP),
        Assoc1(P, PP, P),
        LeftUnitor1(P),
        RightUnitor1(PP),
        Braid1(P, PP),
        Adj1(Assoc1(P, P, P)),
        Comp1(Gen1("ev"), Gen1("coev")),
        Tensor1(Gen1("ev"), Id1(P)),
        pr._zigzag(Gen1("ev"), Gen1("coev"), P, P, P),
    ]
    for t in zoo:
        text = str(t)
        assert tc.parse_morphism(text) == t, text


def test_round_trip_objects():
    for w in [UNIT, P, PP, ObjTensor(PP, ObjTensor(P, UNIT))]:
        assert tc.parse_object_word(str(w)) == w


def test_round_trip_corpus_50(uno):
    """Fifty generated terms covering every leaf constructor round-trip."""
    rng = random.Random(2024)
    zoo = _leaf_zoo(uno)
    corpus = list(zoo)
    while len(corpus) < 50:
        a = rng.choice(zoo)
        corpus.append(Tensor2(a, rng.choice(zoo)))
    assert len(corpus) >= 50
    for term in corpus:
        assert tc.parse_two_cell(tc.print_two_cell(term)) == term


# Every structural symbol with a different argument in each position, and
# its printed form; a field-order slip in printing or parsing shows here
# even when it would still round-trip on equal arguments.
def _symbol_zoo(a, b, c, d, f, g, h, k):
    return [
        Id1(a), Assoc1(a, b, c), LeftUnitor1(a), RightUnitor1(b),
        Braid1(a, b),
        Id2(f), AssocC(f, g, h), RC(f), LC(g), Eta(h), Eps(k),
        tc.PhiTensor(f, g, h, k), tc.Phi0(a, b), tc.AssocF(f, g, h),
        tc.LeftUnitorF(f), tc.RightUnitorF(g), tc.BraidF(f, g),
        tc.Pi(a, b, c, d), tc.MuCell(a, b), tc.LamCell(b, c),
        tc.RhoCell(c, d), tc.RCell(a, b, c), tc.SCell(b, c, d),
        tc.SigmaCell(d, a),
    ]


SYMBOL_ZOO_TEXT = [
    "I[a]",
    "alpha[a,b,(c ⊗ 1)]",
    "l[a]",
    "r[b]",
    "beta[a,b]",
    "id[f]",
    "assoc2[f,inv(beta[a,b]),(I[c] ; g)]",
    "rc[f]",
    "lc[inv(beta[a,b])]",
    "eta[(I[c] ; g)]",
    "eps[(l[d] (*) h)]",
    "phi[(f,inv(beta[a,b])),((I[c] ; g),(l[d] (*) h))]",
    "phi0[a,b]",
    "alphaf[f,inv(beta[a,b]),(I[c] ; g)]",
    "lf[f]",
    "rf[inv(beta[a,b])]",
    "betaf[f,inv(beta[a,b])]",
    "pi[a,b,(c ⊗ 1),1]",
    "mu[a,b]",
    "lam[b,(c ⊗ 1)]",
    "rho[(c ⊗ 1),1]",
    "RR[a,b,(c ⊗ 1)]",
    "SS[b,(c ⊗ 1),1]",
    "sig[1,a]",
]


def test_symbol_zoo_printed_form_and_round_trip():
    A, B, C, D = ObjGen("a"), ObjGen("b"), ObjGen("c"), ObjGen("d")
    zoo = _symbol_zoo(A, B, ObjTensor(C, UNIT), UNIT,
                      Gen1("f"), Adj1(Braid1(A, B)), Comp1(Gen1("g"), Id1(C)),
                      Tensor1(LeftUnitor1(D), Gen1("h")))
    assert [type(t) for t in zoo] == list(tc.SYMBOLS.values())
    assert [str(t) for t in zoo] == SYMBOL_ZOO_TEXT
    for t, text in zip(zoo, SYMBOL_ZOO_TEXT):
        if isinstance(t, tc.STRUCTURAL_1):
            assert tc.parse_morphism(text) == t, text
        else:
            assert tc.parse_two_cell(text) == t, text
            assert tc.parse_two_cell("inv2(%s)" % text) == Inv2(t)


def _oriented_symbol_zoo():
    """The symbol zoo over the oriented presentation's names."""
    Pp, Pm = ObjGen("pt+"), ObjGen("pt-")
    return _symbol_zoo(Pp, Pm, ObjTensor(Pp, Pm), UNIT,
                       Gen1("ev"), Adj1(Assoc1(Pp, Pm, Pp)),
                       Comp1(Gen1("coev"), Id1(Pm)),
                       Tensor1(RightUnitor1(Pm), Braid1(Pp, Pm)))


def test_symbol_zoo_forget_orientation():
    zoo = _oriented_symbol_zoo()
    cells = [Id2(t) if isinstance(t, tc.STRUCTURAL_1) else t for t in zoo]
    images = [str(pr.forget_orientation(t)) for t in cells]
    expected = [text.replace("pt+", "pt").replace("pt-", "pt")
                for text in map(str, cells)]
    assert images == expected
    assert images[:5] == ["id[I[pt]]", "id[alpha[pt,pt,(pt ⊗ pt)]]",
                          "id[l[pt]]", "id[r[pt]]", "id[beta[pt,pt]]"]
    assert images[11] == ("phi[(ev,inv(alpha[pt,pt,pt])),((I[pt] ; coev),"
                          "(r[pt] (*) beta[pt,pt]))]")
    assert images[17] == "pi[pt,pt,(pt ⊗ pt),1]"
    for t in cells:
        image = pr.forget_orientation(Inv2(t))
        assert image == Inv2(pr.forget_orientation(t))


def test_parse_error_positions():
    with pytest.raises(tc.ParseError):
        tc.parse_two_cell("(cap . ")
    with pytest.raises(tc.ParseError):
        tc.parse_object_word("(pt @ pt)")


@pytest.mark.parametrize("text, message", [
    ("(cap ; cup)", "expected '.', '#', tensor or ')', got ';' (at position 5)"),
    ("(cap . ", "expected 2-cell term, got '' (at position 7)"),
    ("id[(ev . ev)]", "expected ';' or tensor, got '.' (at position 7)"),
    ("id[(ev ; )]", "expected morphism term, got ')' (at position 9)"),
    ("alpha[pt,pt,pt]",
     "reserved name 'alpha' in 2-cell position (at position 0)"),
    ("id[inv2(ev)]",
     "reserved name 'inv2' in morphism position (at position 3)"),
    ("inv(cap)", "reserved name 'inv' in 2-cell position (at position 0)"),
    ("phi[ev,ev,ev,ev]", "expected LPAR, got 'ev' (at position 4)"),
    ("cap cup", "trailing input (at position 4)"),
    ("(cap @ cup)", "unexpected character '@' (at position 5)"),
    ("(cap .\xa0cup\xff)", "unexpected character '\xff' (at position 10)"),
    ("(cap (* cup)", "unexpected character '*' (at position 6)"),
    ("(cap .\u200bcup)", "unexpected character '\\u200b' (at position 6)"),
    ("(cap . cup", "expected RPAR, got '' (at position 10)"),
    ("id[(ev ⊗ ⊗ coev)]",
     "expected morphism term, got '⊗' (at position 9)"),
], ids=["semi-in-2-cell", "missing-operand", "dot-in-morphism",
        "missing-morphism", "1-symbol-as-2-cell", "inv2-as-morphism",
        "inv-as-2-cell", "ungrouped-phi", "trailing", "stray-at",
        "stray-xff", "half-tensor", "zero-width-space", "unclosed",
        "doubled-tensor"])
def test_parse_error_messages(text, message):
    with pytest.raises(tc.ParseError) as exc:
        tc.parse_two_cell(text)
    assert str(exc.value) == message


def test_lexer_separators_and_tensor_spellings():
    # any Unicode whitespace separates tokens, none is needed around
    # punctuation, and the tensor is spelt (*) or ⊗ at both levels
    plain = tc.parse_two_cell("(id[(ev (*) coev)] # (cap (*) cup))")
    for text in ["(id[(ev ⊗ coev)] # (cap ⊗ cup))",
                 "(id[(ev⊗coev)]#(cap(*)cup))",
                 "\u3000(id[(ev\xa0⊗\u2003coev)]\n#\t(cap ⊗ cup))\u2003"]:
        assert tc.parse_two_cell(text) == plain
    assert str(plain) == "(id[(ev (*) coev)] # (cap (*) cup))"
    assert tc.parse_object_word("(pt⊗(pt (*) 1))") == ObjTensor(
        P, ObjTensor(P, UNIT))


def test_a_non_ascii_digit_is_a_name_that_validation_refuses(uno):
    # a run of digits of any script lexes as one name, as the word "1"
    # does; no generator has such a name, so validation refuses it
    assert tc.parse_two_cell("\u0662") == Gen2("\u0662")
    assert tc.parse_two_cell("(cap . 1\u0662)") == tc.VComp(
        (Gen2("cap"), Gen2("1\u0662")))
    report = tc.validate(tc.parse_two_cell("(cap . \u0662)"), uno.data)
    assert str(report) == "1: unknown 2-generator '\u0662'"


def test_parse_unary_chain_and_adjoint_of_a_composite():
    unary = tc.parse_two_cell("(cap)")
    assert unary == tc.VComp((Gen2("cap"),))
    assert tc.parse_two_cell(str(unary)) == unary
    # inv(...) over a composite parses to its formal adjoint
    text = "id[inv((l[pt] ; (r[pt] (*) beta[pt,pt])))]"
    adjoint = Id2(Comp1(Adj1(LeftUnitor1(P)),
                        Tensor1(Adj1(RightUnitor1(P)), Adj1(Braid1(P, P)))))
    assert tc.parse_two_cell(text) == adjoint
    assert tc.parse_two_cell(str(adjoint)) == adjoint


def test_validate_rejects_mutations(uno):
    """Constructor-generated terms validate; mutations of them do not."""
    import random as _random
    from bordcalc import build as _build

    rng = _random.Random(7)
    for seed in range(15):
        t = _build.random_term(uno, seed, events=4)
        assert tc.validate(t, uno.data).ok
        leaves = [l for l in tc.iter_two_cell_leaves(t)
                  if isinstance(l, tc.Gen2)]
        if not leaves:
            continue
        victim = rng.choice(leaves)
        others = [n for n, (s, _t) in uno.data.two_gens.items()
                  if n != victim.name
                  and uno.data.two_gens[n][0] != uno.data.two_gens[victim.name][0]]
        if not others:
            continue
        mutated = _mutate_leaf(t, victim, tc.Gen2(rng.choice(others)))
        assert not tc.validate(mutated, uno.data).ok


def _mutate_leaf(term, old, new):
    if term == old:
        return new
    if isinstance(term, tc.VComp):
        return tc.VComp(tuple(_mutate_leaf(c, old, new) for c in term.children))
    if isinstance(term, tc.HComp):
        return tc.HComp(_mutate_leaf(term.outer, old, new),
                        _mutate_leaf(term.inner, old, new))
    if isinstance(term, tc.Tensor2):
        return tc.Tensor2(_mutate_leaf(term.left, old, new),
                          _mutate_leaf(term.right, old, new))
    if isinstance(term, tc.Inv2):
        return tc.Inv2(_mutate_leaf(term.inner, old, new))
    return term


def test_boundary_compositional_over_tensor(uno):
    from bordcalc import build as _build
    for seed in range(8):
        p = _build.random_term(uno, seed, events=3)
        q = _build.random_term(uno, seed + 100, events=3)
        sp, tp = tc.two_cell_boundary(p, uno.data)
        sq, tq = tc.two_cell_boundary(q, uno.data)
        st, tt = tc.two_cell_boundary(Tensor2(p, q), uno.data)
        assert st == tc.Tensor1(sp, sq)
        assert tt == tc.Tensor1(tp, tq)


@pytest.mark.parametrize("text", [
    "assoc2[ev,ev,ev]", "phi[(ev,ev),(ev,ev)]", "(assoc2[ev,ev,ev] (*) cap)"])
def test_validate_rejects_ill_formed_structural_leaves(uno, text):
    # the parameters name known generators, but the symbol's own source
    # sentence does not compose
    rep = tc.validate(tc.parse_two_cell(text), uno.data)
    assert len(rep.entries) == 1
    assert "boundary mismatch in composite" in rep.entries[0][1]


def test_validate_reports_a_nested_mismatch_once(uno):
    rep = tc.validate(tc.parse_two_cell("id[(((ev ; ev) ; I[1]) ; I[1])]"),
                      uno.data)
    assert rep.entries == [((), "id: boundary mismatch in composite: 1 then "
                                "(pt ⊗ pt)")]


def test_validate_reports_a_leaf_sentence_mismatch_at_the_leaf(uno):
    # the report names the symbol and carries no path into its sentence
    rep = tc.validate(tc.parse_two_cell("(assoc2[ev,ev,ev] (*) cap)"),
                      uno.data)
    assert rep.entries == [(("left",), "assoc2: boundary mismatch in "
                                       "composite: 1 then (pt ⊗ pt)")]


def test_validate_reports_a_chain_mismatch_at_its_path(uno):
    rep = tc.validate(tc.parse_two_cell("((cap . cap) . (cap . cup))"),
                      uno.data)
    assert rep.entries == [((0, 0), "non-composable vertical chain")]


@pytest.mark.parametrize("text, entries", [
    ("(assoc2[ev,ev,ev] (*) phi[(ev,ev),(ev,ev)])",
     [(("left",), "assoc2: boundary mismatch in composite: 1 then "
                  "(pt ⊗ pt)")]),
    ("((cap . cap) (*) assoc2[ev,ev,ev])",
     [(("left", 0), "non-composable vertical chain")]),
    ("(nope (*) assoc2[ev,ev,ev])",
     [(("left",), "unknown 2-generator 'nope'")]),
], ids=["two-leaf-sentences", "chain-before-leaf-sentence",
        "names-before-composability"])
def test_validate_reports_the_first_composability_failure(uno, text, entries):
    # a leaf's own sentences are checked in movie order with the chains and
    # horizontal composites, and only the first failure is reported; none
    # is looked for while a name or admissibility check fails
    assert tc.validate(tc.parse_two_cell(text), uno.data).entries == entries


@pytest.mark.parametrize("call, message", [
    (lambda d: vcompose([], d), "empty vertical chain"),
    (lambda d: tc.two_cell_boundary(Inv2(Gen2("cap")), d),
     "inv2 of a non-invertible cell"),
], ids=["empty-vcompose", "inv2-of-generator"])
def test_walk_faults_read_as_validate_reports_them(uno, call, message):
    # one check per admissibility fault, worded as `validate` words it
    with pytest.raises(tc.TermError) as exc:
        call(uno.data)
    assert str(exc.value) == message


@pytest.mark.parametrize("compose, path, symbol", [
    (lambda d: vcompose([tc.parse_two_cell("assoc2[ev,ev,ev]")], d),
     (0,), "assoc2"),
    (lambda d: hcompose(tc.parse_two_cell("id[ev]"),
                        tc.parse_two_cell("phi[(ev,ev),(ev,ev)]"), d),
     ("inner",), "phi"),
], ids=["vcompose", "hcompose"])
def test_composers_reject_an_ill_formed_leaf(uno, compose, path, symbol):
    with pytest.raises(tc.TermError) as exc:
        compose(uno.data)
    assert exc.value.path == path
    assert exc.value.message.startswith(symbol + ": boundary mismatch")


# ---------------------------------------------------------------------------
# the movie tape validate records
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, expected", [
    ("(cap . cup)", [("0", "cap"), ("1", "cup")]),
    ("((cap . cup) # (cup . cap))",
     [("inner/0", "cup"), ("inner/1", "cap"),
      ("outer/0", "cap"), ("outer/1", "cup")]),
    ("(id[ev] (*) (inv2(lc[coev]) . lc[coev]))",
     [("right/0", "inv2(lc[coev])"), ("right/1", "lc[coev]")]),
    ("id[(ev (*) ev)]", []),
])
def test_validate_tape_of_hand_written_terms(uno, text, expected):
    report = tc.validate(tc.parse_two_cell(text, uno.data), uno.data)
    assert [("/".join(map(str, path)), str(cell))
            for path, cell, _, _ in report.events] == expected


@pytest.mark.parametrize("text", ["(cap . cap)", "(nonsense . cap)"])
def test_validate_keeps_no_tape_of_an_invalid_term(uno, text):
    report = tc.validate(tc.parse_two_cell(text), uno.data)
    assert not report.ok
    assert report.events is None and report.boundary is None


def _movie_leaves(p, path=()):
    """(path, leaf) of every non-identity leaf in the order the movie fires
    them: the inner part of a horizontal composite acts first."""
    if isinstance(p, tc.HComp):
        yield from _movie_leaves(p.inner, path + ("inner",))
        yield from _movie_leaves(p.outer, path + ("outer",))
    elif isinstance(p, Inv2) or not tc.parts(p):
        if not isinstance(p, Id2):
            yield path, p
    else:
        for step, c in tc.parts(p):
            yield from _movie_leaves(c, path + (step,))


@pytest.mark.parametrize("p", [pr.bord2_unoriented(), pr.bord2_oriented()],
                         ids=lambda p: p.name)
def test_validate_tape_is_the_movie_of_random_terms(p):
    for seed in range(50):
        term = build.random_term(p, seed)
        report = tc.validate(term, p.data)
        assert report.boundary == tc.two_cell_boundary(term, p.data)
        assert [(path, cell) for path, cell, _, _ in report.events] \
            == list(_movie_leaves(term)), seed
        for _, cell, source, target in report.events:
            assert (source, target) == tc.two_cell_boundary(cell, p.data)
            if isinstance(cell, Inv2):
                assert (target, source) \
                    == tc.two_cell_boundary(cell.inner, p.data)


# ---------------------------------------------------------------------------
# the validation memo
# ---------------------------------------------------------------------------

def test_only_validate_writes_the_walk_memo(uno):
    """Composing reads no object names, so a walk without a tape must not
    mark a node as validated: `validate` still reports the bad name."""
    cell = tc.parse_two_cell("id[I[zz]]")
    tc.two_cell_boundary(cell, uno.data)
    chain = vcompose([cell], uno.data)
    both = hcompose(cell, cell, uno.data)
    assert str(tc.validate(cell, uno.data)) \
        == "<root>: unknown object generator 'zz'"
    assert str(tc.validate(chain, uno.data)) \
        == "0: unknown object generator 'zz'"
    assert str(tc.validate(both, uno.data)) \
        == "outer: unknown object generator 'zz'\n" \
        "inner: unknown object generator 'zz'"


@pytest.mark.parametrize("text", [
    "(split . merge)", "(cusp_up . cusp_down)",
    "(cusp_up_neg . cusp_down_neg)", "((cap . cup) (*) (split . merge))",
])
def test_walk_memo_is_keyed_by_data(uno, ori, text):
    """One node validated under one datum, then the other, then the first
    again reads as a fresh copy does each time, also when its last part
    was validated under the other datum in between.  `(split . merge)`
    has other ends under each datum; the cusps are valid under one."""
    node = tc.parse_two_cell(text)
    reports = []
    for p in (uno, ori, uno):
        report = tc.validate(node, p.data)
        assert report == tc.validate(tc.parse_two_cell(text), p.data)
        reports.append(report)
    assert reports[0] == reports[2] != reports[1]
    tc.validate(tc.parts(node)[-1][1], ori.data)
    assert tc.validate(node, uno.data) == reports[0]


def test_walk_memo_is_one_flat_tuple(uno):
    """Each validated node holds (data, source, target, source object,
    target object), and its ends are those of `two_cell_boundary`."""
    term = tc.parse_two_cell("((cap . cup) (*) (split . merge))")
    tc.validate(term, uno.data)
    for _, node in tc.subterms(term):
        memo = node._walked
        assert len(memo) == 5 and memo[0] is uno.data
        assert memo[1:3] == tc.two_cell_boundary(tc.parse_two_cell(
            str(node)), uno.data)


# ---------------------------------------------------------------------------
# every structural 2-cell, in both semantics
# ---------------------------------------------------------------------------

# An instance of each structural 2-cell symbol over points a, b with
# ev: a(x)b -> 1 and coev: 1 -> a(x)b; the last four repeat leaves the
# cell reorders.
STRUCTURAL_CELLS = [
    "id[ev]", "assoc2[coev,ev,coev]", "rc[ev]", "lc[coev]",
    "eta[alpha[{a},{b},{a}]]", "eps[alpha[{a},{b},{a}]]",
    "phi[(ev,I[{a}]),(I[({a} ⊗ {b})],l[{a}])]", "phi0[{a},{b}]",
    "alphaf[ev,coev,I[{a}]]", "lf[ev]", "rf[coev]", "betaf[ev,coev]",
    "pi[{a},{b},{a},{b}]", "mu[{a},{b}]", "lam[{a},{b}]", "rho[{a},{b}]",
    "RR[{a},({a} ⊗ {b}),1]", "SS[{a},({a} ⊗ {b}),1]", "sig[{a},{b}]",
    "phi[(ev,coev),(coev,ev)]", "RR[{a},{a},{a}]", "SS[{a},{a},{a}]",
    "betaf[ev,ev]",
]


@pytest.mark.parametrize("p", [pr.bord2_unoriented(), pr.bord2_oriented()],
                         ids=lambda p: p.name)
def test_every_structural_cell_is_invertible_in_both_semantics(p):
    from bordcalc import frobenius as fr
    from bordcalc import surface as sf
    a, b = (p.data.objects * 2)[:2]
    asg = fr.standard_assignment(fr.algebra_m2q(), p)
    cells = []
    for text in STRUCTURAL_CELLS:
        text = text.format(a=a, b=b)
        c = tc.parse_two_cell(text, p.data)
        cells.append(c)
        assert tc.print_two_cell(c) == text
        report = tc.validate(c, p.data)
        assert report.ok, text
        source, target = report.boundary
        assert tc.morphism_boundary(source, p.data) \
            == tc.morphism_boundary(target, p.data), text
        loop, ident = tc.VComp((c, Inv2(c))), Id2(source)
        assert fr.evaluate(loop, asg).matrix \
            == fr.evaluate(ident, asg).matrix, text
        assert sf.invariants(sf.reconstruct(loop, p)) \
            == sf.invariants(sf.reconstruct(ident, p)), text
    assert {type(c) for c in cells} == set(tc.STRUCTURAL_2)


@pytest.mark.parametrize("p", [pr.bord2_unoriented(), pr.bord2_oriented()],
                         ids=lambda p: p.name)
def test_walk_object_ends_agree_with_morphism_boundary(p):
    # composites compare the object ends their parts carry; at every
    # subterm they must be the ends of its source and of its target
    a, b = (p.data.objects * 2)[:2]
    terms = [build.random_term(p, seed, events=5) for seed in range(30)]
    for text in STRUCTURAL_CELLS:
        cell = tc.parse_two_cell(text.format(a=a, b=b), p.data)
        terms += [cell, Inv2(cell)]
    for term in terms:
        for path, sub in tc.subterms(term):
            source, target, a_end, b_end = tc._walk(sub, p.data, (), None)
            assert tc.morphism_boundary(source, p.data) == (a_end, b_end), \
                (str(term), path)
            assert tc.morphism_boundary(target, p.data) == (a_end, b_end), \
                (str(term), path)


def test_formal_adjoint_of_composites():
    l, r = "l[pt]", "r[pt]"
    assert tc.parse_morphism("inv(inv(%s))" % l) == LeftUnitor1(P)
    # (g . f)* = f* . g*, and a tensor factor by factor
    assert tc.parse_morphism("inv((%s ; %s))" % (l, r)) == \
        Comp1(Adj1(LeftUnitor1(P)), Adj1(RightUnitor1(P)))
    assert tc.parse_morphism("inv((%s (*) %s))" % (l, r)) == \
        Tensor1(Adj1(LeftUnitor1(P)), Adj1(RightUnitor1(P)))


def test_formal_adjoint_is_an_involution_on_both_levels():
    for t in _oriented_symbol_zoo():
        # a 1-symbol wraps (`I` too), a 2-symbol wraps, an identity 2-cell
        # is its own inverse
        wrap = Adj1 if isinstance(t, tc.STRUCTURAL_1) else Inv2
        expected = t if type(t) is Id2 else wrap(t)
        assert tc.formal_adjoint(t) == expected, str(t)
        assert tc.formal_adjoint(expected) == t, str(t)
    a, b = Assoc1(P, P, P), LeftUnitor1(P)
    x, y = AssocC(Id1(P), Id1(P), Id1(P)), RC(Id1(PP))
    composites = [
        (Adj1(a), a),
        (Comp1(a, b), Comp1(Adj1(b), Adj1(a))),
        (Tensor1(a, b), Tensor1(Adj1(a), Adj1(b))),
        (Inv2(x), x),
        (tc.VComp((x, y, Id2(a))), tc.VComp((Id2(a), Inv2(y), Inv2(x)))),
        (tc.HComp(x, y), tc.HComp(Inv2(x), Inv2(y))),
        (Tensor2(x, Id2(b)), Tensor2(Inv2(x), Id2(b))),
    ]
    assert {type(t) for t, _ in composites} == set(tc._SYNTAX)
    for t, inverse in composites:
        assert tc.formal_adjoint(t) == inverse, str(t)
        assert tc.formal_adjoint(inverse) == t, str(t)


@pytest.mark.parametrize("term, message", [
    (Gen1("ev"), "1-generator 'ev' has no formal adjoint"),
    (Gen2("cap"), "2-generator 'cap' has no formal adjoint"),
    (tc.HComp(Id2(Gen1("ev")), Gen2("split")),
     "2-generator 'split' has no formal adjoint"),
], ids=["1-generator", "2-generator", "inside-a-composite"])
def test_formal_adjoint_of_a_generator_raises(term, message):
    with pytest.raises(tc.TermError) as exc:
        tc.formal_adjoint(term)
    assert str(exc.value) == message


@pytest.mark.parametrize("path", [("left",), ("first", "first")],
                         ids=["unknown-step", "into-a-leaf"])
def test_whisker_cell_rejects_a_path_not_in_the_sentence(uno, path):
    sentence = Comp1(Gen1("ev"), Gen1("coev"))
    with pytest.raises(build.BuildError) as exc:
        build.whisker_cell(sentence, path, Gen2("cap"), uno.data)
    assert str(exc.value).startswith("path does not exist in ")


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------

NO_ADJOINT = "eta: 1-generator 'ev' has no formal adjoint"

@pytest.mark.parametrize("term, entries", [
    (tc.parse_two_cell("id[foo]"), [((), "unknown 1-generator 'foo'")]),
    (tc.parse_two_cell("inv2(cap)"), [((), "inv2 of a non-invertible cell")]),
    (Id2(Adj1(Gen1("ev"))),
     [((), "formal adjoint of a non-structural symbol")]),
    (tc.VComp(()), [((), "empty vertical chain")]),
    ("cap", [((), "not a 2-cell leaf: 'cap'")]),
    (tc.VComp((Gen2("cap"), 7)), [((1,), "not a 2-cell leaf: 7")]),
    (Id2("ev"), [((), "not a morphism term: 'ev'")]),
    (tc.Phi0("pt", P), [((), "not an object word: 'pt'")]),
    # leaves whose boundary formula itself fails: the message carries the
    # symbol and the path is the leaf's own
    (tc.parse_two_cell("eta[ev]"), [((), NO_ADJOINT)]),
    (tc.parse_two_cell("inv2(eta[ev])"), [(("inv2",), NO_ADJOINT)]),
    (tc.parse_two_cell("rc[(ev ; ev)]"),
     [((), "rc: boundary mismatch in composite: 1 then (pt ⊗ pt)")]),
    (tc.parse_two_cell("(cap # eta[ev])"), [(("inner",), NO_ADJOINT)]),
], ids=["unknown-1-gen", "inv2-generator", "adjoint-of-generator",
        "empty-chain", "non-term", "non-term-in-chain",
        "non-term-morphism", "non-term-object", "eta-of-generator",
        "inv2-of-eta-of-generator", "rc-of-bad-composite",
        "eta-of-generator-inner"])
def test_validate_error_messages(uno, term, entries):
    report = tc.validate(term, uno.data)
    assert report.entries == entries
    assert report.boundary is None and report.events is None


@pytest.mark.parametrize("kwargs, message", [
    (dict(objects=("pt",), one_gens={"pt": (P, UNIT)}, two_gens={}),
     "generator names must be distinct across levels"),
    (dict(objects=("pt", "alpha"), one_gens={}, two_gens={}),
     "name 'alpha' is a reserved structural symbol"),
    (dict(objects=("pt",), one_gens={},
          two_gens={"bad": (Id1(UNIT), Id1(P))}),
     "2-generator 'bad' is not globular"),
], ids=["repeated", "reserved", "not-globular"])
def test_generating_data_errors(kwargs, message):
    with pytest.raises(tc.TermError) as exc:
        tc.GeneratingData(**kwargs)
    assert str(exc.value) == message
