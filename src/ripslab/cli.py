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
import re
import sys
from fractions import Fraction
from importlib import resources

from . import fileformat, lamination, rips, traintrack, whitehead
from .fileformat import BandsSyntaxError, parse_system, point_str, scalar_str
from .forest import Direction, ForestError, point_key
from .isometry import ValidationError
from .scalar import FieldMismatch


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


def _load_system(path: str):
    if not os.path.exists(path):
        raise InputError(f"no such file: {path}")
    try:
        return parse_system(path)
    except (BandsSyntaxError, ValidationError, FieldMismatch,
            ForestError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_map(path: str):
    if not os.path.exists(path):
        raise InputError(f"no such file: {path}")
    try:
        return traintrack.load_map(path)
    except traintrack.TrainTrackError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_point(system, text: str):
    f = system.forest
    if ":" not in text:
        if text not in f.vertices:
            raise InputError(f"unknown vertex {text!r}")
        return f.vertex_point(text)
    eid, _, expr = text.partition(":")
    if not f.has_edge(eid):
        raise InputError(f"unknown edge {eid!r}")
    try:
        return f.point(eid, fileformat.parse_scalar(expr, system.field))
    except (BandsSyntaxError, ForestError) as exc:
        raise InputError(str(exc)) from exc


def _parse_direction(point, text: str) -> Direction:
    m = re.fullmatch(r"([A-Za-z0-9_\-]+):([+-])", text)
    if not m:
        raise InputError(f"bad direction {text!r}; expected edge:+ or edge:-")
    return Direction(point, m.group(1), 1 if m.group(2) == "+" else -1)


def _print_system(out, system):
    out.write(fileformat.serialize_system(system))


def _subforest_str(s) -> str:
    if s.is_empty:
        return "(empty)"
    parts = []
    for eid in sorted(s.intervals):
        for lo, hi in s.intervals[eid]:
            parts.append(f"{eid}[{scalar_str(lo)},{scalar_str(hi)}]")
    for p in sorted(s.points, key=point_key):
        parts.append(f"point {point_str(p)}")
    return " ".join(parts)


# --- subcommand implementations -------------------------------------------

def _cmd_validate(args, out):
    system = _load_system(args.file)
    out.write(f"file: {args.file}\n")
    out.write(f"bands: {len(system.bands)}\n")
    out.write(f"volume: {scalar_str(system.support.volume())}\n")
    out.write("valid: yes\n")
    return 0


def _cmd_rips(args, out):
    system = _load_system(args.file)
    if args.action == "step":
        nxt = rips.rips_step(system)
        _print_system(out, nxt)
        return 0
    start = 0
    if args.resume:
        if not args.checkpoint:
            raise UsageError("--resume requires --checkpoint")
        latest = rips.latest_checkpoint(args.checkpoint)
        if latest is not None:
            start, system = latest
            out.write(f"resumed: step {start}\n")
    if args.action == "run":
        trace = rips.run(system, args.max_iter, checkpoint=args.checkpoint,
                         start=start)
        for rec in trace.steps:
            out.write(f"step {rec.index}: volume"
                      f" {scalar_str(rec.volume)} vol_ge3"
                      f" {scalar_str(rec.vol_ge3)} diameter"
                      f" {scalar_str(rec.max_diameter)} bands {rec.bands}\n")
        out.write(f"halted: {trace.halted}\n")
        if trace.halted:
            out.write(f"halt-step: {trace.halt_step}\n")
        return 0
    result = rips.classify(system, args.max_iter,
                           diam_ratio_threshold=args.diam_ratio,
                           checkpoint=args.checkpoint, start=start)
    v = result.verdict
    out.write(f"verdict: {type(v).__name__}\n")
    if isinstance(v, rips.SurfaceType):
        out.write(f"halt-step: {v.halt_step}\n")
    elif isinstance(v, rips.LevittEvidence):
        out.write(f"iterations: {v.iterations}\n")
        out.write(f"initial-diameter:"
                  f" {scalar_str(v.diameter_trace[0])}\n")
        out.write(f"final-diameter:"
                  f" {scalar_str(v.diameter_trace[-1])}\n")
    else:
        out.write(f"reason: {v.reason}\n")
    return 0


def _cmd_strata(args, out):
    system = _load_system(args.file)
    for i in (1, 2, 3):
        s = system.strata.stratum_ge(i)
        out.write(f"K>={i}: vol {scalar_str(s.volume())}"
                  f" set {_subforest_str(s)}\n")
    return 0


def _cmd_words(args, out):
    system = _load_system(args.file)
    for w, dom in lamination.admissible_words(system, args.depth):
        out.write(f"{' '.join(w)}\t{_subforest_str(dom)}\n")
    return 0


def _cmd_limitset(args, out):
    system = _load_system(args.file)
    approx = lamination.limit_set(system, args.depth)
    out.write(f"depth: {approx.depth}\n")
    out.write(f"volume: {scalar_str(approx.subforest.volume())}\n")
    out.write(f"set: {_subforest_str(approx.subforest)}\n")
    return 0


def _cmd_wh(args, out):
    system = _load_system(args.file)
    if args.action == "scan":
        for x, d, n in whitehead.wh_scan(system, args.depth):
            out.write(f"{point_str(x)}\t{d.edge}:"
                      f"{'+' if d.toward == 1 else '-'}\t{n}\n")
        return 0
    if not args.point or not args.direction:
        raise UsageError("wh at requires --point and --direction")
    x = _parse_point(system, args.point)
    d = _parse_direction(x, args.direction)
    try:
        g = whitehead.directional_whitehead(system, x, d, args.depth)
    except whitehead.InvalidDirection as exc:
        raise InputError(str(exc)) from exc
    out.write(g.summary() + "\n")
    out.write(g.to_dot() + "\n")
    return 0


def _cmd_pattern(args, out):
    system = _load_system(args.file)
    result = whitehead.detect_pattern(system, args.depth)
    if isinstance(result, whitehead.NotFound):
        out.write(f"pattern: not found (depth {result.depth})\n")
        return 0
    out.write("pattern: found\n")
    out.write(f"a: {point_str(result.a)}\n")
    out.write(f"d: {result.d.edge}:"
              f"{'+' if result.d.toward == 1 else '-'}\n")
    out.write(f"l1: {result.l1}\n")
    out.write(f"l2: {result.l2}\n")
    out.write(f"end-classes: {result.end_class_count}\n")
    out.write(f"b: {point_str(result.b)}\n")
    out.write(f"c: {point_str(result.c)}\n")
    return 0


def _cmd_k33(args, out):
    system = _load_system(args.file)
    result = whitehead.detect_pattern(system, args.depth)
    if isinstance(result, whitehead.NotFound):
        out.write(f"pattern: not found (depth {result.depth})\n")
        return 0
    out.write(whitehead.k33_certificate(result).to_dot() + "\n")
    return 0


def _cmd_tt(args, out):
    m = _load_map(args.file)
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
        out.write(f"lambda ~= {traintrack.approx_float(td.dilatation):.6f}\n")
        vec = ", ".join(scalar_str(x) for x in td.eigenvector)
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


def _corpus_dir():
    return resources.files("ripslab") / "corpus"


def _cmd_corpus(args, out):
    base = _corpus_dir()
    if args.action == "list":
        for entry in sorted(e.name for e in base.iterdir()
                            if e.name.endswith((".bands", ".map", ".oracle"))):
            out.write(entry + "\n")
        return 0
    target = base / args.name
    if not target.is_file():
        raise InputError(f"no corpus entry {args.name!r}")
    out.write(target.read_text(encoding="utf-8"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="ripslab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate")
    v.add_argument("file")

    r = sub.add_parser("rips")
    r.add_argument("action", choices=["step", "run", "classify"])
    r.add_argument("file")
    r.add_argument("--max-iter", type=_positive_int, default=30)
    r.add_argument("--diam-ratio", type=_ratio, default="1/2")
    r.add_argument("--checkpoint")
    r.add_argument("--resume", action="store_true")

    s = sub.add_parser("strata")
    s.add_argument("file")

    for name in ("words", "limitset"):
        w = sub.add_parser(name)
        w.add_argument("file")
        w.add_argument("--depth", type=_positive_int, default=3)

    wh = sub.add_parser("wh")
    wh.add_argument("action", choices=["scan", "at"])
    wh.add_argument("file")
    wh.add_argument("--depth", type=_positive_int, default=3)
    wh.add_argument("--point")
    wh.add_argument("--direction")

    for name in ("pattern", "k33"):
        pat = sub.add_parser(name)
        pat.add_argument("file")
        pat.add_argument("--depth", type=_positive_int, default=3)

    t = sub.add_parser("tt")
    t.add_argument("action",
                   choices=["check", "matrix", "pf", "rotationless", "swg"])
    t.add_argument("file")
    t.add_argument("--budget", type=_positive_int, default=6)

    c = sub.add_parser("corpus")
    c.add_argument("action", choices=["list", "show"])
    c.add_argument("name", nargs="?")
    return p


_DISPATCH = {
    "validate": _cmd_validate,
    "rips": _cmd_rips,
    "strata": _cmd_strata,
    "words": _cmd_words,
    "limitset": _cmd_limitset,
    "wh": _cmd_wh,
    "pattern": _cmd_pattern,
    "k33": _cmd_k33,
    "tt": _cmd_tt,
    "corpus": _cmd_corpus,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "corpus" and args.action == "show" \
                and not args.name:
            raise UsageError("corpus show requires a name")
        code = _DISPATCH[args.command](args, out)
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
