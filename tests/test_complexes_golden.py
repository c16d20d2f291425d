"""Golden digests of the complexes `surface.reconstruct` glues.

The corpus is that of the rewrite transcript (the demo terms, genus 0..3
and `build.random_term` seeds 0..29, events=5, max_leaves=20, on both
presentations) together with every `find_matches` rewrite of each term.
For every term the transcript holds one line: its label, the face count
and the sha256 of ``repr((faces, mate, flip))`` of the glued complex, or
the error reconstruction raised.  The complex depends on the order of the
movie's events and on arc numbering, so the digests pin the movie itself,
not only the invariants read from it.
"""

import hashlib
import pathlib

from bordcalc import presentations as pr
from bordcalc import surface as sf
from bordcalc._diagram import DiagramError

from tests.test_rewrite_golden import _terms

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "complexes.txt"


def _digest(term, p):
    try:
        cx = sf.reconstruct(term, p).complex
    except (sf.SurfaceError, DiagramError) as e:
        return "error %s" % e
    blob = repr((cx.faces, cx.mate, cx.flip)).encode("utf-8")
    return "%d %s" % (len(cx.faces), hashlib.sha256(blob).hexdigest())


def _transcript():
    lines = []
    for p, label, term in _terms():
        lines.append("%s %s: %s" % (p.name, label, _digest(term, p)))
        for i, s in enumerate(pr.find_matches(term, p)):
            lines.append("%s %s step %d: %s"
                         % (p.name, label, i, _digest(s.result, p)))
    return "\n".join(lines) + "\n"


def test_complexes_golden_transcript():
    assert _transcript() == GOLDEN.read_text(encoding="utf-8")
