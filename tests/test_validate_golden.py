"""Golden transcript of `validate` reports.

The corpus is a set of hand-written unoriented terms (ill-formed
structural leaves, nested mismatches, an unknown generator) and, on both
presentations, every one-leaf mutation of `build.random_term` seeds
0..39: each 2-generator leaf in turn is renamed to the next generator in
sorted order.  For every term the transcript holds a header line and the
printed report.
"""

import pathlib

from bordcalc import build
from bordcalc import presentations as pr
from bordcalc import termcore as tc

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "validate.txt"

HAND_TERMS = (
    "assoc2[ev,ev,ev]",
    "phi[(ev,ev),(ev,ev)]",
    "(assoc2[ev,ev,ev] (*) cap)",
    "id[(((ev ; ev) ; I[1]) ; I[1])]",
    "(cap . (cap . cup))",
    "((cap . cap) . (cap . cup))",
    "(cap # split)",
    "(nonsense . (cap . cap))",
)


def _mutations(term, names):
    """(path, old name, new name, mutated term) per 2-generator leaf."""
    for path, leaf in tc.subterms(term):
        if isinstance(leaf, tc.Gen2):
            new = names[(names.index(leaf.name) + 1) % len(names)]
            yield path, leaf.name, new, _replace(term, path, tc.Gen2(new))


def _replace(node, path, new):
    if not path:
        return new
    return tc.rebuild(node, [_replace(c, path[1:], new) if step == path[0]
                             else c for step, c in tc.parts(node)])


def _transcript():
    lines = []
    uno = pr.bord2_unoriented()
    for text in HAND_TERMS:
        lines.append("== unoriented %s" % text)
        lines.append(str(tc.validate(tc.parse_two_cell(text), uno.data)))
    for p in (uno, pr.bord2_oriented()):
        names = sorted(p.data.two_gens)
        for seed in range(40):
            term = build.random_term(p, seed)
            for path, old, new, mutated in _mutations(term, names):
                lines.append("== %s random %d at %s: %s -> %s"
                             % (p.name, seed,
                                "/".join(map(str, path)) or "<root>",
                                old, new))
                lines.append(str(tc.validate(mutated, p.data)))
    return "\n".join(lines) + "\n"


def test_validate_golden_transcript():
    assert _transcript() == GOLDEN.read_text(encoding="utf-8")
