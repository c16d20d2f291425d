"""Linear diagrams: combinatorial Morse data for 1-manifolds.

A linear diagram is a sequence of regions, each carrying a sheet count and
optionally a critical event, separated by permutations.  A `cap` region
creates the sheet pair {N-1, N} (N-2 sheets on its left, N on its right);
a `cup` region destroys that pair (N on the left, N-2 on the right); a
plain region carries N sheets through.  Separators map the sheet labels on
their left to those on their right.

`reconstruct_1manifold` counts circles and intervals with `_diagram`'s
census; the five moves rewrite diagrams without changing that census.
Read right to left, a diagram is its mirror: regions reversed, caps and
cups swapped, each separator reversed in order and inverted.  So a move
at a cup is the same move at the cap it mirrors to, with `side` swapped,
and only the cap's rule is written out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from ._diagram import ArcDiagram, census


class LinearError(Exception):
    pass


# ---------------------------------------------------------------------------
# permutations (1-based labels, stored as 0-based image tuples)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Perm:
    images: tuple

    @property
    def size(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i]

    def then(self, other: "Perm") -> "Perm":
        if self.size != other.size:
            raise LinearError("permutation size mismatch")
        return Perm(tuple(other.images[self.images[i]]
                          for i in range(self.size)))

    def inverse(self) -> "Perm":
        # the label sent to j is the j-th once sorted by image
        return Perm(tuple(sorted(range(self.size),
                                 key=self.images.__getitem__)))

    def cycles(self):
        seen, out = set(), []
        for i in range(self.size):
            if i in seen or self.images[i] == i:
                seen.add(i)
                continue
            cyc, j = [], i
            while j not in seen:
                seen.add(j)
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def __str__(self):
        cs = self.cycles()
        if not cs:
            return "[]"
        return "".join("[%s]" % " ".join(str(i + 1) for i in c) for c in cs)


def identity_perm(n):
    return Perm(tuple(range(n)))


def perm_from_cycles(n, cycles) -> Perm:
    """The permutation of 1..n with the given disjoint cycles; a label
    that appears twice, in one cycle or in two, is refused."""
    images = list(range(n))
    seen = set()
    for cyc in cycles:
        for pos in range(len(cyc)):
            a = cyc[pos] - 1
            if not 0 <= a < n:
                raise LinearError("cycle entry %d out of range" % (a + 1))
            if a in seen:
                raise LinearError("overlapping cycles")
            seen.add(a)
            images[a] = cyc[(pos + 1) % len(cyc)] - 1
    return Perm(tuple(images))


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Region:
    count: int                 # N: the larger sheet count of the region
    event: Optional[str]       # None | "cap" | "cup"

    @property
    def left_count(self):
        return self.count - 2 if self.event == "cap" else self.count

    @property
    def right_count(self):
        return self.count - 2 if self.event == "cup" else self.count

    def __str__(self):
        if self.event:
            return "(%d %s)" % (self.count, self.event)
        return "(%d)" % self.count


@dataclass(frozen=True)
class LinearDiagram:
    regions: tuple
    separators: tuple          # len(regions) - 1 permutations

    def __post_init__(self):
        if not self.regions:
            raise LinearError("diagram must have at least one region")
        for r in self.regions:
            if r.event and r.count < 2:
                raise LinearError("critical region needs at least two sheets")
            if r.count < 0:
                raise LinearError("negative sheet count")
        if len(self.separators) != len(self.regions) - 1:
            raise LinearError("need one separator between adjacent regions")
        for i, sep in enumerate(self.separators):
            left = self.regions[i].right_count
            right = self.regions[i + 1].left_count
            if left != right or sep.size != left:
                raise LinearError(
                    "separator %d has size %d between counts %d and %d"
                    % (i, sep.size, left, right))

    def __str__(self):
        parts = [str(self.regions[0])]
        for sep, reg in zip(self.separators, self.regions[1:]):
            parts.append(str(sep))
            parts.append(str(reg))
        return " ".join(parts)


_LD_TOKENS = re.compile(r"\(([^)]*)\)|(\[[^\]]*\](?:\s*\[[^\]]*\])*)")


def _integer(text, what):
    if not re.fullmatch(r"-?[0-9]+", text):
        raise LinearError("%s %r is not an integer" % (what, text))
    return int(text)


def parse_diagram(text: str) -> LinearDiagram:
    """Parse the textual format `(5 cap) [24][35] (5 cup) [] (3 cup)`.

    Text outside regions and separators must be blank; an empty region
    `()` is an error.
    """
    leftover = _LD_TOKENS.sub(" ", text).split()
    if leftover:
        raise LinearError("unexpected text %r" % leftover[0])
    regions, separators = [], []
    expect_region = True
    for reg_body, sep_body in (m.groups() for m in _LD_TOKENS.finditer(text)):
        if sep_body is None:
            parts = reg_body.split()
            if not 1 <= len(parts) <= 2:
                raise LinearError("bad region (%s)" % reg_body)
            count = _integer(parts[0], "sheet count")
            event = parts[1] if len(parts) > 1 else None
            if event not in (None, "cap", "cup"):
                raise LinearError("unknown region event %r" % event)
            if not expect_region:
                raise LinearError("two adjacent regions without separator")
            regions.append(Region(count, event))
            expect_region = False
        else:
            if expect_region:
                raise LinearError("separator before any region")
            cycles = []
            for cyc in re.findall(r"\[([^\]]*)\]", sep_body):
                body = cyc.strip()
                if not body:
                    continue
                if re.search(r"[\s,]", body):
                    labels = re.split(r"[\s,]+", body)
                else:
                    # compact form: each character is a single-digit label
                    labels = list(body)
                entries = [_integer(x, "cycle entry") for x in labels]
                if any(e < 1 for e in entries):
                    raise LinearError("labels are 1-based")
                cycles.append(entries)
            n = regions[-1].right_count
            separators.append(perm_from_cycles(n, cycles))
            expect_region = True
    if expect_region and regions:
        raise LinearError("diagram ends with a separator")
    return LinearDiagram(tuple(regions), tuple(separators))


def print_diagram(d: LinearDiagram) -> str:
    return str(d)


# ---------------------------------------------------------------------------
# the 1-manifold
# ---------------------------------------------------------------------------

def reconstruct_1manifold(d: LinearDiagram) -> dict:
    """Count circles and intervals of the 1-manifold a diagram denotes,
    wired as arcs: one per sheet a region carries through, one per cap's
    or cup's top pair; a separator joins the right-edge ends before it to
    the left-edge ends after it by its permutation."""
    diagram, ends = ArcDiagram(), []
    for r, sep in zip(d.regions, (None,) + d.separators):
        left, right = [None] * r.left_count, [None] * r.right_count
        for s in range(min(r.left_count, r.right_count)):
            a = diagram.new_arc()
            left[s], right[s] = (a, 0), (a, 1)
        if r.event:
            a = diagram.new_arc()
            (right if r.event == "cap" else left)[-2:] = (a, 0), (a, 1)
        for s, end in enumerate(ends):
            diagram.join(end, left[sep(s)])
        ends = right
    return census(diagram)


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

MOVES = ("isotopy", "commute_small_sigma", "absorb_transposition",
         "merge_permutations", "cancel_cup_cap")
#: The moves whose result depends on `side`; the others only check it.
SIDED_MOVES = ("commute_small_sigma",)


def _mirror(d: LinearDiagram) -> LinearDiagram:
    """The diagram read right to left."""
    swap = {"cap": "cup", "cup": "cap", None: None}
    return LinearDiagram(
        tuple(Region(r.count, swap[r.event]) for r in reversed(d.regions)),
        tuple(sep.inverse() for sep in reversed(d.separators)))


def apply_linear_move(d: LinearDiagram, move: str, position: int,
                      side: str = "left") -> LinearDiagram:
    """Apply one of the five moves at a region position.

    * isotopy: insert a plain region (with identity separators) at
      `position` (0..len(regions)).
    * commute_small_sigma: at a cap/cup region, move the part of the
      adjacent big-side separator fixing the top pair across the region
      (side = "left"/"right" names the separator to consume).
    * absorb_transposition: toggle the transposition (N-1 N) on the big
      side of a cap/cup region.
    * merge_permutations: delete the plain region at `position`, composing
      its separators.
    * cancel_cup_cap: replace the cap-sep-cup triple starting at
      `position`, whose separator is the cycle (N-2 N-1 N), by a plain
      region.

    Commute and absorb are written for a cap.  At a cup, once the cup's
    own preconditions hold, each is the cap's rule with `side` swapped,
    applied to the mirrored diagram and mirrored back.
    """
    if side not in ("left", "right"):
        raise LinearError("side must be 'left' or 'right', not %r" % (side,))
    regs, seps = list(d.regions), list(d.separators)
    if not 0 <= position < len(regs) + (move == "isotopy"):
        raise LinearError("position out of range")
    if move == "isotopy":
        n = regs[position - 1].right_count if position else regs[0].left_count
        regs.insert(position, Region(n, None))
        seps.insert(max(position - 1, 0), identity_perm(n))
    elif move == "merge_permutations":
        if regs[position].event is not None:
            raise LinearError("can only merge across a plain region")
        if len(regs) == 1:
            raise LinearError("cannot remove the only region")
        # an end region takes its one separator along; else the two compose
        del regs[position]
        around = slice(max(position - 1, 0), position + 1)
        pair = seps[around]
        seps[around] = [pair[0].then(pair[1])] if len(pair) == 2 else []
    elif move in ("absorb_transposition", "commute_small_sigma"):
        event, n = regs[position].event, regs[position].count
        if event is None:
            raise LinearError("%s applies at a critical region"
                              % move.split("_")[0])
        if event == "cup":
            if move == "absorb_transposition" and position == 0:
                raise LinearError("cup has no left separator")
            return _mirror(apply_linear_move(
                _mirror(d), move, len(regs) - 1 - position,
                "right" if side == "left" else "left"))
        if move == "absorb_transposition":
            if position == len(seps):
                raise LinearError("cap has no right separator")
            seps[position] = perm_from_cycles(n, [[n - 1, n]]).then(
                seps[position])
        elif not 0 < position < len(seps):
            raise LinearError("region needs separators on both sides")
        elif side == "right":
            # consume the big-side separator; it must fix the critical pair
            big = seps[position].images
            if big[n - 2:] != (n - 2, n - 1):
                raise LinearError("separator moves the critical pair")
            seps[position - 1] = seps[position - 1].then(Perm(big[:n - 2]))
            seps[position] = identity_perm(n)
        else:
            # consume the small-side separator and extend it across
            small = Perm(seps[position - 1].images + (n - 2, n - 1))
            seps[position - 1] = identity_perm(n - 2)
            seps[position] = small.then(seps[position])
    elif move == "cancel_cup_cap":
        if position + 1 >= len(regs):
            raise LinearError("need two regions from the position")
        r1, r2 = regs[position], regs[position + 1]
        if r1.event != "cap" or r2.event != "cup" or r1.count != r2.count:
            raise LinearError("cancel applies to a cap-cup pair")
        n = r1.count
        if seps[position] != perm_from_cycles(n, [[n - 2, n - 1, n]]):
            raise LinearError("separator is not the canonical 3-cycle")
        regs[position:position + 2] = [Region(n - 2, None)]
        del seps[position]
    else:
        raise LinearError("unknown move %r" % move)
    return LinearDiagram(tuple(regs), tuple(seps))
