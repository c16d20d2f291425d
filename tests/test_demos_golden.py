"""Golden transcript of the stdout of every script in demos/.

Each demo runs in its own process, in sorted order, with warnings as
errors, and the transcript holds a header line per demo followed by its
stdout.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "demos.txt"


def _transcript():
    chunks = []
    for demo in sorted((ROOT / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, "-W", "error", str(demo)],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True)
        chunks.append("$ python demos/%s\n%s" % (demo.name, proc.stdout))
    return "".join(chunks)


def test_demos_golden_transcript():
    assert _transcript() == GOLDEN.read_text(encoding="utf-8")
