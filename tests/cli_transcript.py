"""Write `tests/data/cli_transcript.txt`, the pinned bytes of CLI reports.

Each command runs in-process through `ripslab.cli.main`.  Its block in the
transcript is the command line, with paths relative to the bundled corpus
(``corpus/``) or to `tests/data` (``data/``), then its stdout verbatim,
then its exit code and any stderr, with the same paths normalised.
`test_cli.py::test_cli_transcript` renders the same blocks and compares
them with the file.

Regenerate with

    PYTHONPATH=src python tests/cli_transcript.py

Regenerate only in a change that means to alter a report.  That change
lists in CHANGES.md every command whose bytes changed, and says why.  A
change that does not mean to alter output leaves this file alone: if the
test fails, the program is at fault, not the transcript.
"""

from __future__ import annotations

import contextlib
import importlib.resources as resources
import io
import os
import sys

from ripslab.cli import main

CORPUS = str(resources.files("ripslab") / "corpus")
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
TRANSCRIPT = os.path.join(DATA, "cli_transcript.txt")

TT_ACTIONS = ("check", "matrix", "pf", "rotationless", "swg")
MAPS = ("corpus/tribonacci.map", "corpus/fibonacci.map",
        "data/integer_eigenvalue.map", "data/cubic.map", "data/quartic.map",
        "data/mixed_root.map", "data/repeated_root.map")

SYSTEMS = ("corpus/e_surf.bands", "corpus/e_trim.bands", "corpus/bk_itm.bands")
WALKS = (("words",), ("limitset",), ("pattern",), ("k33",), ("wh", "scan"))
# the top row of each system's `wh scan --depth 3`
TOP_ROWS = (("corpus/e_surf.bands", "u", "e0:+"), ("corpus/e_trim.bands", "u", "e0:+"),
            ("corpus/bk_itm.bands", "e0:-L + 1", "e0:+"))

COMMANDS = (
    tuple(("tt", action, path) for path in MAPS for action in TT_ACTIONS)
    + tuple(argv + (path,) for path in SYSTEMS
            for argv in (("validate",), ("strata",), ("rips", "step"),
                         ("rips", "classify", "--max-iter", "12")))
    + tuple(walk + ("--depth", depth, path) for path in SYSTEMS
            for walk in WALKS for depth in map(str, range(1, 9)))
    + tuple(("wh", "at", "--depth", "3", "--point", point, "--direction", d, path)
            for path, point, d in TOP_ROWS)
    + tuple(("validate", f"corpus/{name}.bands")
            for name in ("bad_fields", "bad_marker", "bad_syntax"))
    + (("corpus", "list"),))


def _absolute(arg: str) -> str:
    for tag, base in (("corpus/", CORPUS), ("data/", DATA)):
        if arg.startswith(tag):
            return os.path.join(base, arg[len(tag):])
    return arg


def _relative(text: str) -> str:
    return text.replace(CORPUS + os.sep, "corpus/").replace(DATA + os.sep, "data/")


def render(argv) -> str:
    """The transcript block of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([_absolute(a) for a in argv], out=out)
    block = f"$ ripslab {' '.join(argv)}\n{_relative(out.getvalue())}[exit {code}]\n"
    if err.getvalue():
        block += "[stderr]\n" + _relative(err.getvalue())
    return block + "\n"


def transcript() -> str:
    return "".join(render(argv) for argv in COMMANDS)


if __name__ == "__main__":
    with open(TRANSCRIPT, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(transcript())
    print(f"wrote {len(COMMANDS)} commands to {TRANSCRIPT}", file=sys.stderr)
