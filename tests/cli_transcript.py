"""Write `tests/data/cli_transcript.txt`, the pinned bytes of CLI reports.

Each command runs in-process through `ripslab.cli.main`.  Its block in the
transcript is the command line, with paths relative to the bundled corpus
(``corpus/``), to `tests/data` (``data/``) or to a fresh temporary
checkpoint directory (``checkpoint/``), then its stdout verbatim, then its
exit code and any stderr, with the same paths normalised.  A checkpointed
run's block is followed by the bytes of each step file that it wrote new
or changed, in step order.
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
import re
import sys
import tempfile

from ripslab.cli import main

CORPUS = str(resources.files("ripslab") / "corpus")
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
TRANSCRIPT = os.path.join(DATA, "cli_transcript.txt")

TT_ACTIONS = ("check", "matrix", "pf", "rotationless", "swg")
MAPS = ("corpus/tribonacci.map", "corpus/fibonacci.map",
        "data/integer_eigenvalue.map", "data/cubic.map", "data/quartic.map",
        "data/mixed_root.map", "data/repeated_root.map",
        "data/reducible.map", "data/periodic.map", "data/not_train_track.map")

SYSTEMS = ("corpus/e_surf.bands", "corpus/e_trim.bands", "corpus/bk_itm.bands")
WALKS = (("words",), ("limitset",), ("pattern",), ("k33",), ("wh", "scan"))
# the top row of each system's `wh scan --depth 3`
TOP_ROWS = (("corpus/e_surf.bands", "u", "e0:+"), ("corpus/e_trim.bands", "u", "e0:+"),
            ("corpus/bk_itm.bands", "e0:-L + 1", "e0:+"))
# a host with a branch point c, a band across it, an isolated vertex and lone points
TRIPOD = "data/tripod.bands"

BAD = ("corpus/bad_fields.bands", "corpus/bad_marker.bands", "corpus/bad_syntax.bands")
# every action that loads a .bands file
LOADERS = (("validate",), ("rips", "step"), ("rips", "run"), ("rips", "classify"),
           ("strata",), ("words",), ("limitset",), ("pattern",), ("k33",), ("wh", "scan"),
           ("wh", "at", "--point", "u", "--direction", "e0:+"))

# each exits 1 with its message on stderr
USAGE_ERRORS = (("tt", "check"), ("words", "--depth", "0", "corpus/e_surf.bands"),
                ("rips", "classify", "--diam-ratio", "3/2", "corpus/e_trim.bands"),
                ("rips", "run", "--resume", "corpus/e_trim.bands"),
                ("wh", "at", "corpus/e_surf.bands"), ("corpus", "show"))

COMMANDS = (
    tuple(("tt", action, path) for path in MAPS for action in TT_ACTIONS)
    + tuple(argv + (path,) for path in SYSTEMS
            for argv in (("validate",), ("strata",), ("rips", "step"),
                         ("rips", "classify", "--max-iter", "12")))
    + tuple(walk + ("--depth", depth, path) for path in SYSTEMS
            for walk in WALKS for depth in map(str, range(1, 9)))
    + tuple(("wh", "at", "--depth", "3", "--point", point, "--direction", d, path)
            for path, point, d in TOP_ROWS)
    + tuple(argv + (TRIPOD,)
            for argv in (("validate",), ("strata",), ("rips", "step"),
                         ("rips", "run", "--max-iter", "12"),
                         ("rips", "classify", "--max-iter", "12")))
    + tuple(walk + ("--depth", depth, TRIPOD) for walk in WALKS for depth in map(str, range(1, 5)))
    + (("wh", "at", "--depth", "3", "--point", "c", "--direction", "e2:-", TRIPOD),)
    + tuple(argv + (path,) for argv in LOADERS for path in BAD)
    + (("corpus", "list"), ("corpus", "show", "bk_itm.oracle"))
    + USAGE_ERRORS)

# run in this order, sharing one checkpoint directory per system
CHECKPOINT_RUNS = (
    ("rips", "run", "--checkpoint", "checkpoint/e_trim", "corpus/e_trim.bands"),
    ("rips", "run", "--checkpoint", "checkpoint/e_trim", "--resume", "corpus/e_trim.bands"),
    ("rips", "run", "--max-iter", "6", "--checkpoint", "checkpoint/bk_itm",
     "corpus/bk_itm.bands"),
    ("rips", "run", "--max-iter", "2", "--checkpoint", "checkpoint/bk_itm", "--resume",
     "corpus/bk_itm.bands"),
    # on to step 30, the run that the bk_itm oracle and benchmark pin
    ("rips", "run", "--max-iter", "22", "--checkpoint", "checkpoint/bk_itm", "--resume",
     "corpus/bk_itm.bands"))

BASES = (("corpus/", CORPUS), ("data/", DATA))


def _absolute(arg: str, bases) -> str:
    for tag, base in bases:
        if arg.startswith(tag):
            return os.path.join(base, arg[len(tag):])
    return arg


def _relative(text: str, bases) -> str:
    for tag, base in bases:
        text = text.replace(base + os.sep, tag)
    return text


def render(argv, bases=BASES) -> str:
    """The transcript block of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([_absolute(a, bases) for a in argv], out=out)
    block = f"$ ripslab {' '.join(argv)}\n{_relative(out.getvalue(), bases)}[exit {code}]\n"
    if err.getvalue():
        block += "[stderr]\n" + _relative(err.getvalue(), bases)
    return block + "\n"


def _step_files(root: str) -> dict[tuple[str, int], str]:
    """The text of each step file under root, keyed by (directory, step)."""
    files = {}
    for name in os.listdir(root):
        for step in os.listdir(os.path.join(root, name)):
            with open(os.path.join(root, name, step), encoding="utf-8") as fh:
                files[name, int(re.fullmatch(r"step-(\d+)\.bands", step).group(1))] = fh.read()
    return files


def render_checkpoints() -> str:
    """The blocks of CHECKPOINT_RUNS, each with the step files it wrote."""
    blocks = []
    with tempfile.TemporaryDirectory() as root:
        bases = BASES + (("checkpoint/", root),)
        for argv in CHECKPOINT_RUNS:
            before = _step_files(root)
            blocks.append(render(argv, bases))
            blocks += [f"[file checkpoint/{name}/step-{i}.bands]\n{text}\n"
                       for (name, i), text in sorted(_step_files(root).items())
                       if before.get((name, i)) != text]
    return "".join(blocks)


def transcript() -> str:
    return "".join(render(argv) for argv in COMMANDS) + render_checkpoints()


if __name__ == "__main__":
    with open(TRANSCRIPT, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(transcript())
    print(f"wrote {len(COMMANDS) + len(CHECKPOINT_RUNS)} commands to {TRANSCRIPT}", file=sys.stderr)
