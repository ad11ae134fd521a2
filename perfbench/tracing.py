"""Per-layer tracing of ripslab from outside: wrappers installed over the
public functions and methods of each module, with no change to ``src/``.

A name listed in ``TARGETS`` is wrapped at every binding site: a method is
replaced on its class, a module function in every ``ripslab`` module that
binds it (``whitehead`` binds ``dotted_words`` from ``lamination``, for
example).  A wrapper either counts calls, which is all the hot ``Scalar``
methods get because a timer on each of them would cost more than the
work, or records a span: start, end, name, its parent span and the op it
belongs to.  Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from ripslab import fileformat, forest, isometry, lamination, rips, scalar, traintrack, whitehead

COUNT, SPAN = "count", "span"

# (owner, attribute, kind, metric prefix)
TARGETS = [
    (scalar.Scalar, "sign", COUNT, "scalar.sign"),
    *[(scalar.Scalar, name, COUNT, "scalar.compare")
      for name in ("__lt__", "__le__", "__gt__", "__ge__")],
    *[(scalar.Scalar, name, COUNT, "scalar.arith")
      for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__truediv__", "__rtruediv__", "__neg__")],
    (scalar.Scalar, "enclosure", COUNT, "scalar.enclosure"),
    (scalar.NumberField, "refine", COUNT, "scalar.refine"),
    (scalar.Scalar, "is_zero", COUNT, "scalar.is_zero"),
    (scalar.Scalar, "to_decimal", SPAN, "scalar.to_decimal"),
    (forest.Subforest, "intersect", SPAN, "forest.intersect"),
    (forest.Subforest, "union", SPAN, "forest.union"),
    (forest.Subforest, "components", SPAN, "forest.components"),
    (forest.MetricForest, "point", COUNT, "forest.point"),
    (isometry.PartialIsometry, "image_of", SPAN, "isometry.image_of"),
    (isometry.PartialIsometry, "restrict", SPAN, "isometry.restrict"),
    (rips, "overlap_set", SPAN, "rips.overlap_set"),
    (rips, "rips_step", SPAN, "rips.rips_step"),
    (rips.ValenceStratification, "__init__", SPAN, "rips.valence"),
    (rips, "same_system", SPAN, "rips.same_system"),
    (rips, "run", SPAN, "rips.run"),
    (lamination, "dotted_words", SPAN, "lamination.dotted_words"),
    (lamination, "leaves_at", SPAN, "lamination.leaves_at"),
    (lamination, "limit_set", SPAN, "lamination.limit_set"),
    (whitehead, "directional_whitehead", SPAN, "whitehead.directional_whitehead"),
    (whitehead, "wh_scan", SPAN, "whitehead.wh_scan"),
    (whitehead, "detect_pattern", SPAN, "whitehead.detect_pattern"),
    (whitehead, "k33_certificate", SPAN, "whitehead.k33_certificate"),
    (traintrack, "taken_turns", SPAN, "traintrack.taken_turns"),
    (traintrack.RoseMap, "apply", COUNT, "traintrack.apply"),
    (traintrack, "transition", SPAN, "traintrack.transition"),
    (traintrack, "stable_whitehead_graph", SPAN, "traintrack.stable_whitehead_graph"),
    (fileformat, "parse_system_text", SPAN, "fileformat.parse_system_text"),
]

# Per-layer metrics a traced op reports, each with its unit and the
# direction in which it improves.
LAYER_METRICS = {
    "scalar.sign.calls": ("count", "lower"),
    "scalar.compare.calls": ("count", "lower"),
    "scalar.arith.calls": ("count", "lower"),
    "scalar.enclosure.calls": ("count", "lower"),
    "scalar.refine.calls": ("count", "lower"),
    "scalar.is_zero.calls": ("count", "lower"),
    "scalar.exact_fallback_ratio": ("ratio", "lower"),
    "scalar.to_decimal.calls": ("count", "lower"),
    "scalar.to_decimal.self_s": ("s", "lower"),
    "forest.intersect.calls": ("count", "lower"),
    "forest.intersect.self_s": ("s", "lower"),
    "forest.union.calls": ("count", "lower"),
    "forest.union.self_s": ("s", "lower"),
    "forest.components.calls": ("count", "lower"),
    "forest.components.self_s": ("s", "lower"),
    "forest.point.calls": ("count", "lower"),
    "isometry.image_of.calls": ("count", "lower"),
    "isometry.image_of.self_s": ("s", "lower"),
    "isometry.restrict.calls": ("count", "lower"),
    "isometry.restrict.self_s": ("s", "lower"),
    "rips.overlap_set.calls": ("count", "lower"),
    "rips.overlap_set.self_s": ("s", "lower"),
    "rips.rips_step.calls": ("count", "lower"),
    "rips.rips_step.self_s": ("s", "lower"),
    "rips.valence.calls": ("count", "lower"),
    "rips.valence.self_s": ("s", "lower"),
    "rips.same_system.self_s": ("s", "lower"),
    "rips.run.calls": ("count", "lower"),
    "rips.step_last_s": ("s", "lower"),
    "rips.bands_last": ("count", "lower"),
    "rips.pair_yield": ("ratio", "higher"),
    "lamination.dotted_words.calls": ("count", "lower"),
    "lamination.dotted_words.self_s": ("s", "lower"),
    "lamination.leaves_at.calls": ("count", "lower"),
    "lamination.limit_set.self_s": ("s", "lower"),
    "whitehead.directional_whitehead.calls": ("count", "lower"),
    "whitehead.directional_whitehead.self_s": ("s", "lower"),
    "whitehead.wh_scan.self_s": ("s", "lower"),
    "whitehead.detect_pattern.self_s": ("s", "lower"),
    "whitehead.k33_certificate.self_s": ("s", "lower"),
    "traintrack.taken_turns.self_s": ("s", "lower"),
    "traintrack.apply.calls": ("count", "lower"),
    "traintrack.apply.letters": ("count", "lower"),
    "traintrack.transition.self_s": ("s", "lower"),
    "traintrack.stable_whitehead_graph.self_s": ("s", "lower"),
    "fileformat.parse_system_text.self_s": ("s", "lower"),
}


class Recorder:
    """Counts and spans of the op being traced; idle between ops."""

    def __init__(self):
        self.bucket = None          # metric -> value of the current op, or None
        self.buckets: list[dict] = []
        self.stack: list[list] = []  # open spans: [id, name, child seconds]
        self.spans: list[tuple] = []  # (op, id, parent id, name, start, end)
        self.next_id = 0

    def begin(self) -> None:
        self.bucket = defaultdict(float)

    def end(self) -> None:
        self.buckets.append(self.bucket)
        self.bucket = None

    def open(self, name: str) -> tuple:
        parent = self.stack[-1] if self.stack else None
        frame = [self.next_id, name, 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame, parent

    def close(self, frame, parent, start, end, calls_key, self_key) -> None:
        self.stack.pop()
        duration = end - start
        bucket = self.bucket
        bucket[calls_key] += 1
        bucket[self_key] += duration - frame[2]
        parent_id = None
        if parent is not None:
            parent[2] += duration
            parent_id = parent[0]
            if parent[1] == "rips.rips_step":
                bucket[frame[1] + ".in_step"] += 1
        self.spans.append((len(self.buckets), frame[0], parent_id, frame[1], start, end))

    def metrics(self) -> dict:
        """Median over traced ops of each per-layer metric."""
        for b in self.buckets:
            sign, images = b["scalar.sign.calls"], b["isometry.image_of.in_step"]
            b["scalar.exact_fallback_ratio"] = b["scalar.is_zero.calls"] / sign if sign else 0.0
            b["rips.pair_yield"] = b["isometry.restrict.in_step"] / images if images else 0.0
        return {name: statistics.median(b[name] for b in self.buckets) for name in LAYER_METRICS}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tid\tparent\tname\tstart\tend\n")
            for op, sid, parent, name, start, end in self.spans:
                fh.write(f"{op}\t{sid}\t{'' if parent is None else parent}\t"
                         f"{name}\t{start:.9f}\t{end:.9f}\n")


def _counting(rec: Recorder, prefix: str, fn):
    key = prefix + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bucket = rec.bucket
        if bucket is not None:
            bucket[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _counting_letters(rec: Recorder, prefix: str, fn):
    """Counts calls and the letters of the words they return."""
    key, letters_key = prefix + ".calls", prefix + ".letters"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        bucket = rec.bucket
        if bucket is not None:
            bucket[key] += 1
            bucket[letters_key] += len(result)
        return result
    return wrapper


def _timed(rec: Recorder, name: str, fn):
    calls_key, self_key = name + ".calls", name + ".self_s"
    last_step = name == "rips.rips_step"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.bucket is None:
            return fn(*args, **kwargs)
        frame, parent = rec.open(name)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            rec.close(frame, parent, start, end, calls_key, self_key)
        if last_step:
            rec.bucket["rips.step_last_s"] = end - start
            rec.bucket["rips.bands_last"] = len(result.bands)
        return result
    return wrapper


def install(rec: Recorder) -> None:
    """Replace every target, at every binding site, by a recording wrapper."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "ripslab" or name.startswith("ripslab."))]
    for owner, attr, kind, prefix in TARGETS:
        fn = owner.__dict__[attr]
        if kind == SPAN:
            wrapper = _timed(rec, prefix, fn)
        elif prefix == "traintrack.apply":
            wrapper = _counting_letters(rec, prefix, fn)
        else:
            wrapper = _counting(rec, prefix, fn)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for bound, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, bound, wrapper)
