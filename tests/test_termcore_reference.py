"""The parser against the reference parser, and what one parse shares.

Every input is read by both parsers: they must give equal terms with
equal prints, or raise the same error with the same message (a
`ParseError` also at the same position).  A term both read is validated
as each parsed it, and the reports must agree entry by entry, boundary
by boundary and event by event, so sharing subterms changes no report.

The inputs are a few hand-written texts, seeded random terms, their
boundaries and object ends, the closed surfaces of genus 0..10, every
term file in demos/terms, and mutations of all of these made with the
command-line fuzzer's edits.
"""

import pathlib
import random
from dataclasses import fields

import pytest

from bordcalc import build
from bordcalc import presentations as pr
from bordcalc import standard_terms as st
from bordcalc import termcore as tc
from tests import reference_termcore as ref
from tests.test_cli_fuzz import TERM_EDITS, _mutate

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
PRESENTATIONS = (pr.bord2_unoriented(), pr.bord2_oriented())
SEED = 28
MUTATIONS = 12      # mutated texts per base text


def _outcome(parse, text):
    """The term `parse` reads from `text`, or its error as (class,
    message, position)."""
    try:
        return parse(text)
    except (tc.ParseError, tc.TermError) as exc:
        return (type(exc), str(exc), getattr(exc, "pos", None))


def _report(report):
    return (report.entries, report.boundary, report.events)


#: one span text read at both term levels, and repeats that differ only
#: in their spacing
HAND_TEXTS = ("(id[(ev (*) ev)] # (ev (*) ev))",
              "((ev (*) ev) # id[(ev (*) ev)])",
              "((cap . cup) (*) (cap .  cup))")


def _base_texts():
    """(presentation, level, text) of every unmutated input."""
    for text in HAND_TEXTS:
        yield PRESENTATIONS[0], 2, text
    for p in PRESENTATIONS:
        for g in range(11):
            yield p, 2, str(st.genus(p, g))
        for seed in range(30):
            try:
                term = build.random_term(p, seed, events=7)
            except build.BuildError:
                continue
            yield p, 2, str(term)
            for side in tc.two_cell_boundary(term, p.data):
                yield p, 1, str(side)
                for end in tc.morphism_boundary(side, p.data):
                    yield p, 0, str(end)
    for path in sorted((DEMOS / "terms").glob("*.bc")):
        p = PRESENTATIONS[path.name.endswith("_oriented.bc")]
        yield p, 2, path.read_text(encoding="utf-8")


def _inputs():
    """The base inputs, each followed by its mutations."""
    rng = random.Random(SEED)
    for p, level, text in _base_texts():
        yield p, level, text
        for _ in range(MUTATIONS):
            mutated = _mutate(text.encode(), TERM_EDITS, rng)
            yield p, level, mutated.decode("utf-8", errors="replace")


def test_parsers_agree_on_terms_errors_and_reports():
    outcomes = {"term": 0, "error": 0}
    disagreements = []
    for p, level, text in _inputs():
        parse, reference = ref.PAIRS[level]
        got, want = _outcome(parse, text), _outcome(reference, text)
        if type(want) is tuple:
            outcomes["error"] += 1
            if got != want:
                disagreements.append((text, got, want))
            continue
        outcomes["term"] += 1
        if type(got) is tuple or got != want or str(got) != str(want):
            disagreements.append((text, got, want))
        elif level == 2 and (_report(tc.validate(got, p.data))
                             != _report(tc.validate(want, p.data))):
            disagreements.append((text, "report"))
    assert disagreements == []
    # both kinds of outcome are exercised
    assert outcomes["term"] > 1000 and outcomes["error"] > 2000


def _nodes(term):
    """Every term node under `term` (itself, its parts and the parameters
    of its symbols), once per occurrence."""
    out = []

    def visit(node):
        if isinstance(node, tuple):
            for c in node:
                visit(c)
        elif not isinstance(node, str):
            out.append(node)
            for f in fields(node):
                visit(getattr(node, f.name))
    visit(term)
    return out


#: the composites a parse reads from parentheses
_BRACKETED = (tc.VComp, tc.HComp, tc.Tensor2, tc.Comp1, tc.Tensor1)


def _repeated_texts():
    for p in PRESENTATIONS:
        for g in (1, 4, 10):
            yield pytest.param(str(st.genus(p, g)),
                               id="%s-genus-%d" % (p.name, g))
        for seed in range(20):
            yield pytest.param(str(build.random_term(p, seed, events=7)),
                               id="%s-random-%d" % (p.name, seed))


@pytest.mark.parametrize("text", _repeated_texts())
def test_one_parse_reads_each_repeated_span_to_one_node(text):
    nodes = _nodes(tc.parse_two_cell(text))
    by_print = {}
    for node in nodes:
        if isinstance(node, _BRACKETED):
            by_print.setdefault(str(node), set()).add(id(node))
    assert all(len(ids) == 1 for ids in by_print.values())


def test_genus_10_is_read_to_its_distinct_spans():
    text = str(st.genus(pr.bord2_oriented(), 10))
    nodes = _nodes(tc.parse_two_cell(text))
    assert len(text) == 1151 and len(nodes) == 253
    assert len(set(nodes)) == 17
    # the chain, its cap and cup, and once each the nodes of the four
    # handle steps: only leaves outside parentheses are read again
    assert len({id(n) for n in nodes}) == 28
    assert len({id(n) for n in _nodes(ref.parse_two_cell(text))}) == 253


def test_two_parses_of_one_text_share_no_node():
    for p in PRESENTATIONS:
        text = str(st.genus(p, 4))
        first, second = (_nodes(tc.parse_two_cell(text)) for _ in range(2))
        assert first == second
        assert not {id(n) for n in first} & {id(n) for n in second}


@pytest.mark.parametrize("edits", [
    [("split", "splat")],           # unknown 2-generator, in every handle
    [("rc[ev]", "rc[ew]")],         # unknown 1-generator, in a symbol
    # a fault before the first repeat, so each repeat is checked again
    [("cap", "cop"), ("merge", "marge")],
    [("id[coev]", "id[(coev ; I[pt])]")],  # mismatch in a repeated leaf
    [("id[ev] # split", "id[ev] # (cap . split)")],  # non-composable chain
], ids=["2-generator", "1-generator", "after-a-fault", "leaf-sentence",
        "chain"])
def test_a_fault_in_a_repeated_span_is_reported_as_unshared(edits):
    p = pr.bord2_oriented()
    text = str(st.genus(p, 3))
    for old, new in edits:
        text = text.replace(old, new)
    got, want = tc.parse_two_cell(text), ref.parse_two_cell(text)
    assert got == want
    report = tc.validate(got, p.data)
    assert _report(report) == _report(tc.validate(want, p.data))
    assert not report.ok


def test_an_unknown_name_in_a_repeated_span_is_reported_at_every_path():
    p = pr.bord2_oriented()
    text = str(st.genus(p, 3)).replace("split", "splat")
    report = tc.validate(tc.parse_two_cell(text), p.data)
    paths = [path for path, message in report.entries
             if message == "unknown 2-generator 'splat'"]
    assert paths == [(k, "outer", "inner") for k in (2, 6, 10)]
    assert report.entries == tc.validate(ref.parse_two_cell(text),
                                         p.data).entries
