"""Batch command line front end.

Subcommands: check, eval, invariants, rewrite, verify, presentation,
linear.  Exit codes: 0 all requested checks passed; 2 usage or syntax
errors, including an unreadable or non-UTF-8 file, an algebra that
lacks the structure the presentation needs, input nested too deeply
to walk, or a negative search budget; 3 term validation errors,
including rewrite endpoints whose boundaries differ, and malformed
linear diagrams; 4 failed verification, failed checks, a failed
evaluation or surface reconstruction, or an inconclusive rewrite search
(stdout `UNKNOWN`, with the reason the search stopped on stderr).
A raised error's exit code comes from one table, `_EXIT`, keyed by error
class, which `main` looks up along the exception's MRO.
Errors are one line on stderr (`INVALID ...` for exit 3, `ERROR ...`
otherwise).  Output ordering is deterministic; a reader that closes
stdout early ends the output without a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import frobenius as fr
from . import linear as ln
from . import presentations as pr
from . import surface as sf
from . import termcore as tc
from ._diagram import DiagramError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_FAILED = 4

# the exit code of each error class a command may raise
_EXIT = {
    tc.ParseError: EXIT_INVALID, tc.TermError: EXIT_INVALID,
    pr.PresentationError: EXIT_INVALID, ln.LinearError: EXIT_INVALID,
    DiagramError: EXIT_FAILED, sf.SurfaceError: EXIT_FAILED,
    fr.AlgebraError: EXIT_USAGE,
    ValueError: EXIT_USAGE,         # a negative depth or visit budget
    OSError: EXIT_USAGE,            # an unreadable term, algebra or diagram
    RecursionError: EXIT_USAGE,     # a term nested deeper than the stack
}

PRESENTATIONS = {"unoriented": pr.bord2_unoriented,
                 "oriented": pr.bord2_oriented}


def _read(path):
    """Text of the file at `path`; a file that is not UTF-8 is unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise OSError("%s is not UTF-8 text" % path) from None


def _load_algebra(spec):
    if spec in fr.BUILTIN_ALGEBRAS:
        return fr.BUILTIN_ALGEBRAS[spec]()
    return fr.parse_algebra_file(_read(spec), name=spec)


def _error(code, exc):
    """Report `exc` as one line on stderr; return the exit code."""
    print("%s %s" % ("INVALID" if code == EXIT_INVALID else "ERROR",
                     "; ".join(str(exc).splitlines())), file=sys.stderr)
    return code


def _read_term(path, presentation):
    return tc.parse_two_cell(_read(path), presentation.data)


def cmd_check(args, out):
    _read_term(args.file, PRESENTATIONS[args.presentation]())
    out("VALID")
    return EXIT_OK


def cmd_eval(args, out):
    p = PRESENTATIONS[args.presentation]()
    A = _load_algebra(args.algebra)
    term = _read_term(args.file, p)
    out(fr.evaluate(term, fr.standard_assignment(A, p)).render())
    return EXIT_OK


def cmd_invariants(args, out):
    p = PRESENTATIONS[args.presentation]()
    out(str(sf.invariants(sf.reconstruct(_read_term(args.file, p), p))))
    return EXIT_OK


def cmd_rewrite(args, out):
    p = PRESENTATIONS[args.presentation]()
    res = pr.equivalent_bounded(_read_term(args.file, p),
                                _read_term(args.to, p), p, depth=args.depth,
                                max_visited=args.max_visited)
    if res.equivalent:
        out("EQUIVALENT %d" % len(res.steps))
        for step in res.steps:
            out("step %s %s at %s window %s"
                % (step.relation, step.direction,
                   "/".join(map(str, step.path)) or "<root>",
                   "%d+%d" % step.window))
        return EXIT_OK
    out("UNKNOWN")
    reason = {"depth": "depth limit %d reached" % args.depth,
              "budget": "max-visited %d exceeded" % args.max_visited,
              "exhausted": "no new term left to expand"}[res.stop]
    return _error(EXIT_FAILED, "search stopped (%s): %s, nodes_expanded %d; "
                  "not a proof of non-equivalence"
                  % (res.stop, reason, res.nodes_expanded))


def cmd_verify(args, out):
    report = fr.verify_presentation(_load_algebra(args.algebra),
                                    PRESENTATIONS[args.presentation]())
    out(str(report))
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_presentation(args, out):
    out(PRESENTATIONS[args.dump]().manifest().rstrip("\n"))
    return EXIT_OK


def cmd_linear(args, out):
    d = ln.parse_diagram(_read(args.file))
    census = ln.reconstruct_1manifold(d)
    out("circles=%d intervals=%d" % (census["circles"], census["intervals"]))
    if not args.moves:
        return EXIT_OK
    ok = True
    for move in ln.MOVES:
        sides = ("left", "right") if move in ln.SIDED_MOVES else ("left",)
        for pos in range(len(d.regions) + 1):
            for side in sides:
                try:
                    d2 = ln.apply_linear_move(d, move, pos, side)
                except ln.LinearError:
                    continue
                c2 = ln.reconstruct_1manifold(d2)
                same = (c2 == census)
                ok = ok and same
                out("move %s@%d/%s -> circles=%d intervals=%d %s"
                    % (move, pos, side, c2["circles"], c2["intervals"],
                       "ok" if same else "CHANGED"))
    return EXIT_OK if ok else EXIT_FAILED


def build_parser():
    ap = argparse.ArgumentParser(
        prog="bordcalc",
        description="term rewriting and evaluation for 2D bordism "
                    "presentations")
    ap.add_argument("--format", choices=("text", "lines"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="validate a 2-cell term file")
    c.add_argument("file")
    c.add_argument("--presentation", default="unoriented",
                   choices=PRESENTATIONS)
    c.set_defaults(func=cmd_check)

    c = sub.add_parser("eval", help="evaluate a term into an algebra")
    c.add_argument("file")
    c.add_argument("--algebra", required=True)
    c.add_argument("--presentation", default="oriented",
                   choices=PRESENTATIONS)
    c.set_defaults(func=cmd_eval)

    c = sub.add_parser("invariants", help="surface invariants of a term")
    c.add_argument("file")
    c.add_argument("--presentation", default="unoriented",
                   choices=PRESENTATIONS)
    c.set_defaults(func=cmd_invariants)

    c = sub.add_parser("rewrite", help="bounded search between two terms")
    c.add_argument("file")
    c.add_argument("--to", required=True)
    c.add_argument("--depth", type=int, default=6)
    c.add_argument("--max-visited", type=int, default=100000)
    c.add_argument("--presentation", default="unoriented",
                   choices=PRESENTATIONS)
    c.set_defaults(func=cmd_rewrite)

    c = sub.add_parser("verify", help="check all relations in an algebra")
    c.add_argument("--algebra", required=True)
    c.add_argument("--presentation", default="oriented",
                   choices=PRESENTATIONS)
    c.set_defaults(func=cmd_verify)

    c = sub.add_parser("presentation", help="dump a presentation manifest")
    c.add_argument("--dump", required=True, choices=PRESENTATIONS)
    c.set_defaults(func=cmd_presentation)

    c = sub.add_parser("linear", help="linear diagram census and moves")
    c.add_argument("file")
    c.add_argument("--moves", action="store_true")
    c.set_defaults(func=cmd_linear)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    lines = []
    try:
        code = args.func(args, lines.append)
    except RecursionError:
        code = _error(_EXIT[RecursionError], "input nested too deeply")
    except tuple(_EXIT) as exc:
        code = _error(next(_EXIT[c] for c in type(exc).__mro__ if c in _EXIT),
                      exc)
    if args.format == "lines":
        lines = ["%s\t%s" % (args.command, line) for line in lines]
    text = "\n".join(lines)
    try:
        if text:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:         # the reader closed stdout early
        # stdout goes to devnull, so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
