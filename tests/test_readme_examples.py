"""Every `$ bordcalc` example in README.md, run from the repository root.

An example is an indented `$ bordcalc ...` line (a trailing backslash
continues it) followed by its expected stdout up to the next blank line.
A trailing `(exit code N)` gives the exit code, 0 otherwise.  Without an
elided line stdout must equal the expected lines; a line that starts with
`...` elides output, and then each expected line must occur in stdout.
"""

import pathlib
import re
import shlex

import pytest

from bordcalc import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXIT = re.compile(r"\s+\(exit code (\d+)\)$")


def _examples():
    """(command line, expected stdout lines, exit code) per example."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    examples = []
    i = 0
    while i < len(lines):
        if not lines[i].startswith("    $ bordcalc "):
            i += 1
            continue
        command = lines[i].strip()[2:]
        while command.endswith("\\"):
            i += 1
            command = command[:-1] + lines[i].strip()
        expected, code = [], 0
        i += 1
        while i < len(lines) and lines[i].strip():
            line = lines[i].strip()
            m = EXIT.search(line)
            if m:
                code, line = int(m.group(1)), line[:m.start()]
            expected.append(line)
            i += 1
        examples.append((command, expected, code))
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("command, expected, code", EXAMPLES,
                         ids=[c for c, _, _ in EXAMPLES])
def test_readme_example(monkeypatch, capsys, command, expected, code):
    monkeypatch.chdir(ROOT)
    assert cli.main(shlex.split(command)[1:]) == code
    out = capsys.readouterr().out
    if any(line.startswith("...") for line in expected):
        for line in expected:
            assert line.strip(".").strip() in out
    else:
        assert out.splitlines() == expected
