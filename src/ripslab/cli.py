"""Command-line interface: parsing, reports, DOT emission, corpus access.

Reports are line-oriented `key: value` text with exact scalars (never
decimals, except the explicitly approximate `lambda ~=` line) and are
byte-identical across runs with the same inputs and flags.

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal
invariant violation, 141 standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from importlib import resources

from . import lamination, rips, traintrack, whitehead
from .fileformat import (PARSE_ERRORS, BandsSyntaxError, parse_point, parse_system,
                         serialize_system)
from .forest import Direction, ForestError


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _ratio(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a fraction: {text!r}") from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(
            f"must lie strictly between 0 and 1, got {text}")
    return value


def _load(path: str, parse=parse_system, errors=PARSE_ERRORS):
    """parse(path); a file that cannot be opened or decoded, or one of
    `errors`, is an input error naming the path."""
    try:
        return parse(path)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from exc
    except (UnicodeDecodeError, *errors) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_direction(point, text: str) -> Direction:
    """Parse `str(Direction)`, ``edge:+`` or ``edge:-``, at `point`."""
    edge, _, sense = text.rpartition(":")
    if not edge or sense not in ("+", "-"):
        raise InputError(f"bad direction {text!r}; expected edge:+ or edge:-")
    return Direction(point, edge, 1 if sense == "+" else -1)


# --- subcommand implementations -------------------------------------------

def _cmd_validate(args, out):
    system = _load(args.file)
    out.write(f"file: {args.file}\n")
    out.write(f"bands: {len(system.bands)}\n")
    out.write(f"volume: {system.support.volume()}\n")
    out.write("valid: yes\n")
    return 0


def _cmd_rips(args, out):
    system = _load(args.file)
    if args.action == "step":
        out.write(serialize_system(rips.rips_step(system)))
        return 0
    start, resumed = 0, ""
    if args.resume:
        if not args.checkpoint:
            raise UsageError("--resume requires --checkpoint")
        latest = rips.latest_checkpoint(args.checkpoint)
        if latest is not None:
            start, system = latest
            resumed = f"resumed: step {start}\n"
    # the resumed line is written only once the run has read back every
    # earlier checkpoint, so a failed resume prints nothing
    if args.action == "run":
        trace = rips.run(system, args.max_iter, checkpoint=args.checkpoint,
                         start=start)
        out.write(resumed)
        for rec in trace.steps:
            out.write(f"step {rec.index}: volume {rec.volume} vol_ge3"
                      f" {rec.vol_ge3} diameter {rec.max_diameter}"
                      f" bands {rec.bands}\n")
        out.write(f"halted: {trace.halted}\n")
        if trace.halted:
            out.write(f"halt-step: {trace.halt_step}\n")
        return 0
    result = rips.classify(system, args.max_iter,
                           diam_ratio_threshold=args.diam_ratio,
                           checkpoint=args.checkpoint, start=start)
    out.write(resumed)
    v = result.verdict
    out.write(f"verdict: {type(v).__name__}\n")
    if isinstance(v, rips.SurfaceType):
        out.write(f"halt-step: {v.halt_step}\n")
    elif isinstance(v, rips.LevittEvidence):
        out.write(f"iterations: {v.iterations}\n")
        out.write(f"initial-diameter: {v.diameter_trace[0]}\n")
        out.write(f"final-diameter: {v.diameter_trace[-1]}\n")
    else:
        out.write(f"reason: {v.reason}\n")
    return 0


def _cmd_strata(args, out):
    system = _load(args.file)
    for i in (1, 2, 3):
        s = system.strata.stratum_ge(i)
        out.write(f"K>={i}: vol {s.volume()} set {s}\n")
    return 0


def _cmd_words(args, out):
    for w, dom in lamination.admissible_words(_load(args.file), args.depth):
        out.write(f"{' '.join(w)}\t{dom}\n")
    return 0


def _cmd_limitset(args, out):
    approx = lamination.limit_set(_load(args.file), args.depth)
    out.write(f"depth: {approx.depth}\n")
    out.write(f"volume: {approx.subforest.volume()}\n")
    out.write(f"set: {approx.subforest}\n")
    return 0


def _cmd_wh(args, out):
    system = _load(args.file)
    if args.action == "scan":
        for x, d, n in whitehead.wh_scan(system, args.depth):
            out.write(f"{x}\t{d}\t{n}\n")
        return 0
    if not args.point or not args.direction:
        raise UsageError("wh at requires --point and --direction")
    try:
        x = parse_point(system.forest, system.field, args.point)
    except (BandsSyntaxError, ForestError) as exc:
        raise InputError(f"--point {args.point}: {exc}") from exc
    d = _parse_direction(x, args.direction)
    try:
        g = whitehead.directional_whitehead(system, x, d, args.depth)
    except whitehead.InvalidDirection as exc:
        raise InputError(str(exc)) from exc
    out.write(g.summary() + "\n")
    out.write(g.to_dot() + "\n")
    return 0


def _cmd_pattern(args, out):
    """`pattern` reports the T+-pattern; `k33` emits its K_{3,3} as DOT."""
    result = whitehead.detect_pattern(_load(args.file), args.depth)
    if isinstance(result, whitehead.NotFound):
        out.write(f"pattern: not found (depth {result.depth})\n")
    elif args.command == "k33":
        out.write(whitehead.k33_certificate(result).to_dot() + "\n")
    else:
        out.write("pattern: found\n")
        out.write(f"a: {result.a}\n")
        out.write(f"d: {result.d}\n")
        out.write(f"l1: {result.l1}\n")
        out.write(f"l2: {result.l2}\n")
        out.write(f"end-classes: {result.end_class_count}\n")
        out.write(f"b: {result.b}\n")
        out.write(f"c: {result.c}\n")
    return 0


def _check_inverse(m) -> None:
    """A given inverse section must invert the map; if it does not, name
    the first generator that a composition does not fix."""
    if m.inverse_images is None:
        return
    ok, transcript = traintrack.verify_automorphism(m)
    if not ok:
        gens = [g for g in m.generators for _ in range(2)]
        g, line = next((g, line) for g, line in zip(gens, transcript)
                       if not line.endswith(f" = {g}"))
        raise InputError(f"inverse section does not invert the map at {g}: {line}")


def _cmd_tt(args, out):
    m = _load(args.file, traintrack.load_map, (traintrack.TrainTrackError,))
    _check_inverse(m)
    for w in m.warnings:
        out.write(f"warning: {w}\n")
    if args.action == "check":
        ok, witness = traintrack.check_train_track(m)
        out.write(f"train-track: {'yes' if ok else 'no'}\n")
        if not ok:
            (d1, d2), j = witness
            out.write(f"witness: turn {{{d1},{d2}}} degenerates at"
                      f" iterate {j}\n")
        return 0
    if args.action == "matrix":
        td_mat = traintrack.transition_matrix(m)
        for row in td_mat:
            out.write(" ".join(str(x) for x in row) + "\n")
        return 0
    if args.action == "pf":
        try:
            td = traintrack.transition(m)
        except traintrack.NotPrimitive as exc:
            raise InputError(str(exc)) from exc
        poly = " + ".join(f"{c}*x^{i}" if i else f"{c}"
                          for i, c in enumerate(td.minimal_polynomial())
                          if c).replace("+ -", "- ")
        out.write(f"minpoly: {poly}\n")
        out.write(f"primitivity-exponent: {td.primitivity_exponent}\n")
        out.write(f"lambda ~= {td.dilatation.to_decimal(6)}\n")
        vec = ", ".join(map(repr, td.eigenvector))
        out.write(f"eigenvector: ({vec})\n")
        return 0
    try:
        p, mp = traintrack.rotationless_power(m)
    except (traintrack.VanishingIterate, traintrack.NotRotationless) as exc:
        raise InputError(str(exc)) from exc
    if args.action == "rotationless":
        rot = traintrack.is_rotationless(m)
        out.write(f"rotationless: {'yes' if rot else 'no'}\n")
        out.write(f"power: {p}\n")
        return 0
    g = traintrack.stable_whitehead_graph(mp, args.budget)
    out.write(f"power: {p}\n")
    out.write(f"vertices: {' '.join(g.vertices)}\n")
    for u, v in g.edges:
        out.write(f"edge: {u} {v}\n")
    out.write(g.to_dot() + "\n")
    return 0


def _cmd_corpus(args, out):
    """`list` prints the corpus names; `show` prints one of those, and
    reads no other file."""
    base = resources.files("ripslab") / "corpus"
    names = sorted(e.name for e in base.iterdir()
                   if e.name.endswith((".bands", ".map", ".oracle")))
    if args.action == "list":
        out.write("".join(name + "\n" for name in names))
        return 0
    if not args.name:
        raise UsageError("corpus show requires a name")
    if args.name not in names:
        raise InputError(f"no corpus entry {args.name!r}")
    out.write((base / args.name).read_text(encoding="utf-8"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="ripslab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, action=None):
        c = sub.add_parser(name)
        c.set_defaults(run=run)
        if action:
            c.add_argument("action", choices=action)
        return c

    command("validate", _cmd_validate).add_argument("file")

    r = command("rips", _cmd_rips, ["step", "run", "classify"])
    r.add_argument("file")
    r.add_argument("--max-iter", type=_positive_int, default=30)
    r.add_argument("--diam-ratio", type=_ratio, default="1/2")
    r.add_argument("--checkpoint")
    r.add_argument("--resume", action="store_true")

    command("strata", _cmd_strata).add_argument("file")

    for name, run in (("words", _cmd_words), ("limitset", _cmd_limitset),
                      ("pattern", _cmd_pattern), ("k33", _cmd_pattern)):
        w = command(name, run)
        w.add_argument("file")
        w.add_argument("--depth", type=_positive_int, default=3)

    wh = command("wh", _cmd_wh, ["scan", "at"])
    wh.add_argument("file")
    wh.add_argument("--depth", type=_positive_int, default=3)
    wh.add_argument("--point")
    wh.add_argument("--direction")

    t = command("tt", _cmd_tt, ["check", "matrix", "pf", "rotationless", "swg"])
    t.add_argument("file")
    t.add_argument("--budget", type=_positive_int, default=6)

    c = command("corpus", _cmd_corpus, ["list", "show"])
    c.add_argument("name", nargs="?")
    return p


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.run(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: point it at /dev/null so that the
        # interpreter's final flush does not raise, and exit as if by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InputError, rips.CheckpointError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
