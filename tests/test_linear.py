"""Linear diagrams: the census against the tracing oracle, the five
moves, text format."""

import random

import pytest

from bordcalc import linear as ln
from tests import reference_linear


PAPER_DIAGRAM = "(5 cap) [24][35] (5 cup) [] (3 cup) [] (3 cap) [123] (3 cup)"


def test_paper_figure_census():
    d = ln.parse_diagram(PAPER_DIAGRAM)
    assert ln.reconstruct_1manifold(d) == {"circles": 1, "intervals": 2}


def test_single_region_interval():
    assert ln.reconstruct_1manifold(ln.parse_diagram("(1)")) \
        == {"circles": 0, "intervals": 1}


def test_forced_circle():
    assert ln.reconstruct_1manifold(ln.parse_diagram("(2 cap) [] (2 cup)")) \
        == {"circles": 1, "intervals": 0}


def test_parse_print_round_trip():
    for text in (PAPER_DIAGRAM, "(1)", "(2 cap) [] (2 cup)",
                 "(4) [12][34] (4)"):
        d = ln.parse_diagram(text)
        assert ln.parse_diagram(ln.print_diagram(d)) == d


def test_parse_rejects_mismatched_counts():
    with pytest.raises(ln.LinearError):
        ln.parse_diagram("(3) [12] (4)")
    with pytest.raises(ln.LinearError):
        ln.parse_diagram("(2 cap) [13] (2 cup)")  # only 2 sheets on the right


@pytest.mark.parametrize("text, message", [
    ("(x)", "sheet count 'x' is not an integer"),
    ("(2 cap) [12]x(2)", "unexpected text 'x'"),
    ("(2) [1 2", "unexpected text '[1'"),
    ("(3) [1,x] (3)", "cycle entry 'x' is not an integer"),
    ("(3) [1²] (3)", "cycle entry '²' is not an integer"),
    ("(2 cap cup)", "bad region (2 cap cup)"),
    ("(3) [121] (3)", "overlapping cycles"),
    ("(3) [12][12] (3)", "overlapping cycles"),
    ("(3) [1 1] (3)", "overlapping cycles"),
    ("(3) () (3)", "bad region ()"),
    ("()", "bad region ()"),
    ("(-2) [] (-2)", "negative sheet count"),
    ("(1 cap) [] (3)", "critical region needs at least two sheets"),
    # sheets are counted over all regions, negative ones too
    ("(5000) [] (5001)", "more than 10000 sheets"),
    ("(-6000) [] (6000)", "more than 10000 sheets"),
    # numerals are refused past MAX_DIGITS, before int reads them
    pytest.param("(%s)" % ("9" * 5000), "sheet count of 5000 digits is too "
                 "long", id="5000-digit sheet count"),
    pytest.param("(3) [1 %s] (3)" % ("0" * 1001), "cycle entry of 1001 "
                 "digits is too long", id="1001-digit cycle entry"),
])
def test_parse_rejects_malformed_text(text, message):
    with pytest.raises(ln.LinearError) as err:
        ln.parse_diagram(text)
    assert str(err.value) == message


def test_parse_accepts_max_sheets():
    d = ln.parse_diagram("(5000) [] (5000)")
    assert sum(r.count for r in d.regions) == ln.MAX_SHEETS


def test_parse_accepts_max_digits():
    numeral = "3".rjust(ln.MAX_DIGITS, "0")
    assert ln.parse_diagram("(%s) [1 %s] (%s)" % (numeral, numeral, numeral)) \
        == ln.parse_diagram("(3) [1 3] (3)")


def test_parse_accepts_spaced_and_comma_cycles():
    d = ln.parse_diagram(" (3)  [1, 2]\n[3] (3) ")
    assert d.separators[0] == ln.perm_from_cycles(3, [[1, 2]])
    assert ln.parse_diagram("(3) [1 2,3] (3)").separators[0] \
        == ln.perm_from_cycles(3, [[1, 2, 3]])


def test_merge_move():
    d = ln.parse_diagram("(3 cap) [12] (3) [23] (3 cup)")
    d2 = ln.apply_linear_move(d, "merge_permutations", 1)
    assert len(d2.regions) == 2
    assert ln.reconstruct_1manifold(d2) == ln.reconstruct_1manifold(d)
    # sigma1 . sigma2 composed
    assert d2.separators[0] == d.separators[0].then(d.separators[1])


def test_cancel_move():
    d = ln.parse_diagram("(2) [] (4 cap) [234] (4 cup) [] (2)")
    d2 = ln.apply_linear_move(d, "cancel_cup_cap", 1)
    assert ln.reconstruct_1manifold(d2) == ln.reconstruct_1manifold(d)
    assert [r.event for r in d2.regions] == [None, None, None]


def test_absorb_move():
    d = ln.parse_diagram("(3 cap) [] (3 cup)")
    d2 = ln.apply_linear_move(d, "absorb_transposition", 0)
    assert d2.separators[0] == ln.perm_from_cycles(3, [[2, 3]])
    assert ln.reconstruct_1manifold(d2) == ln.reconstruct_1manifold(d)
    d3 = ln.apply_linear_move(d2, "absorb_transposition", 0)
    assert d3 == d


def test_isotopy_move():
    d = ln.parse_diagram(PAPER_DIAGRAM)
    d2 = ln.apply_linear_move(d, "isotopy", 2)
    assert len(d2.regions) == len(d.regions) + 1
    assert ln.reconstruct_1manifold(d2) == ln.reconstruct_1manifold(d)


def test_commute_move_both_ways():
    d = ln.parse_diagram("(3) [12] (5 cap) [] (5)")
    # move the small permutation across the cap (left separator consumed)
    d2 = ln.apply_linear_move(d, "commute_small_sigma", 1, side="left")
    assert ln.reconstruct_1manifold(d2) == ln.reconstruct_1manifold(d)
    assert d2.separators[0] == ln.identity_perm(d2.separators[0].size)
    # and back
    d3 = ln.apply_linear_move(d2, "commute_small_sigma", 1, side="right")
    assert ln.reconstruct_1manifold(d3) == ln.reconstruct_1manifold(d)


def random_diagram(rng):
    regions = []
    seps = []
    width = rng.randint(0, 4)
    start = width
    for _ in range(rng.randint(1, 7)):
        kind = rng.choice(["plain", "cap", "cup", "plain"])
        if kind == "cap":
            n = width + 2
            regions.append(ln.Region(n, "cap"))
            width = n
        elif kind == "cup" and width >= 2:
            regions.append(ln.Region(width, "cup"))
            width -= 2
        else:
            if width == 0:
                regions.append(ln.Region(2, "cap"))
                width = 2
            else:
                regions.append(ln.Region(width, None))
        images = list(range(width))
        rng.shuffle(images)
        seps.append(ln.Perm(tuple(images)))
    return ln.LinearDiagram(tuple(regions), tuple(seps[:-1]))


def test_moves_preserve_census_random():
    rng = random.Random(5)
    checked = 0
    for _ in range(120):
        d = random_diagram(rng)
        census = ln.reconstruct_1manifold(d)
        for move in ln.MOVES:
            for pos in range(len(d.regions) + 1):
                for side in ("left", "right"):
                    try:
                        d2 = ln.apply_linear_move(d, move, pos, side)
                    except ln.LinearError:
                        continue
                    assert ln.reconstruct_1manifold(d2) == census, \
                        (move, pos, side, str(d))
                    checked += 1
                    if move not in ln.SIDED_MOVES:
                        break
    assert checked > 200


def test_census_equals_the_tracing_oracle():
    """The arc-diagram census equals the sheet tracer on 2000 seeded
    diagrams and on every result of every move on them."""
    rng = random.Random(1)
    compared = 0
    for _ in range(2000):
        d = random_diagram(rng)
        results = {d}
        for move in ln.MOVES:
            for pos in range(len(d.regions) + 1):
                for side in ("left", "right"):
                    try:
                        results.add(ln.apply_linear_move(d, move, pos, side))
                    except ln.LinearError:
                        pass
        for d2 in results:
            assert ln.reconstruct_1manifold(d2) \
                == reference_linear.reconstruct_1manifold(d2), str(d2)
        compared += len(results)
    assert compared > 15000


@pytest.mark.parametrize("side", ["Right", "LEFT", "", None, "up"])
def test_apply_linear_move_refuses_an_unknown_side(side):
    d = ln.parse_diagram("(3) [12] (5 cap) [] (5)")
    for move in ln.MOVES:
        with pytest.raises(ln.LinearError) as err:
            ln.apply_linear_move(d, move, 1, side)
        assert str(err.value) == "side must be 'left' or 'right', not %r" \
            % (side,)


def _outcome(d, move, pos, side, apply=ln.apply_linear_move):
    try:
        return apply(d, move, pos, side)
    except ln.LinearError as exc:
        return str(exc)


def test_moves_equal_the_reference_moves():
    """Every move, position and side gives the diagram, or the error
    text, that the moves written out separately for caps and cups give,
    on the paper figure and on 3000 seeded diagrams."""
    rng = random.Random(1)
    diagrams = [ln.parse_diagram(PAPER_DIAGRAM)]
    diagrams += [random_diagram(rng) for _ in range(3000)]
    compared = applied = 0
    for d in diagrams:
        for move in ln.MOVES + ("unknown",):
            for pos in range(-1, len(d.regions) + 2):
                for side in ("left", "right", "middle"):
                    got = _outcome(d, move, pos, side)
                    want = _outcome(d, move, pos, side,
                                    reference_linear.apply_linear_move)
                    assert got == want, (str(d), move, pos, side)
                    compared += 1
                    applied += not isinstance(want, str)
    assert compared > 300000 and applied > 30000


def test_only_sided_moves_read_side():
    rng = random.Random(8)
    differs = set()
    for _ in range(120):
        d = random_diagram(rng)
        for move in ln.MOVES:
            for pos in range(len(d.regions) + 1):
                if _outcome(d, move, pos, "left") \
                        != _outcome(d, move, pos, "right"):
                    differs.add(move)
    assert differs == set(ln.SIDED_MOVES)
