"""The Rips Machine: exact induction on band systems.

One induction step replaces the support K by the set K' of points lying in
at least two band domains, and replaces each band a by its maximal
restrictions between ordered pairs of components of K': the components
of D = K' n a^-1(K' n range(a)).  K' is read off the system's valence
stratification (`BandSystem.strata`, computed once per system), which
also gives the vol(K^{>=3}) of each step record.  Halting (K stabilizes,
band set unchanged up to relabeling) is decided by exact set equality;
`judge` reports a non-halting trace with persistent triple overlap and
shrinking band domains as Levitt evidence, never as proof.

A run numbers its steps from the one it starts at, and can write each
system to <checkpoint>/step-<i>.bands; this module alone knows that
layout, reads it back and finds the latest step of a resumed run.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .fileformat import BandsSyntaxError, parse_system, save_system
from .forest import ForestError, Point, Subforest
from .isometry import ValenceStratification  # noqa: F401  (re-exported)
from .isometry import BandSystem, PartialIsometry, ValidationError
from .scalar import FieldMismatch, Scalar, rational


# ---------------------------------------------------------------------------
# one induction step


def overlap_set(system: BandSystem) -> Subforest:
    """K': points lying in the domains of two distinct elements of A+-.

    K' is K^{>=2} minus the own-inverse touch points: an isolated point of
    K^{>=2} is kept only where the domains containing it carry at least
    two distinct band names, so a single point where a band domain touches
    the domain of that same band's inverse is discarded.  Point overlaps
    between genuinely distinct bands are kept.
    """
    K = system.strata.stratum_ge(2)
    els = system.elements()
    points = frozenset(
        p for p in K.points
        if len({a.name for a in els if a.domain.contains(p)}) >= 2)
    return Subforest(system.forest, K.intervals, points)


def _component_index(K: Subforest):
    """The map sending a point of K to the index of its component in
    `K.components()`: isolated points and whole intervals by dict, any
    other point through the interval of K holding it."""
    index: dict = {}
    for ci, C in enumerate(K.components()):
        index.update((p, ci) for p in C.points)
        index.update(((eid, iv), ci) for eid, ivs in C.intervals.items()
                     for iv in ivs)

    def component(p: Point) -> int:
        return index[p] if p in index else index[K.interval_at(p)]

    return component


def rips_step(system: BandSystem) -> BandSystem:
    """One Rips Machine step: each band a becomes its restrictions to the
    components of D = K' n a^-1(K' n range(a)).

    dom(a) is a subtree (`validate` requires the markers to span it), so
    for components C_i, C_j of K' each dom(a) n C_i n a^-1(C_j) is one;
    these sets are disjoint and closed with union D, so they are exactly
    its components.  A new band's label extends its parent's with (i, j),
    read off its first marker and that marker's image, so lineage is
    always recoverable; the new bands of a parent are ordered by (i, j).
    """
    K = overlap_set(system)
    component = _component_index(K)
    new_bands: list[PartialIsometry] = []
    for a in system.bands:
        D = K.intersect(a.inverse().image_of(a.range.intersect(K)))
        pieces = []
        for C in D.components():
            b = a.restrict(C)
            m, i = b.correspondence[0]
            pieces.append((component(m), component(i), b))
        for ci, cj, b in sorted(pieces, key=lambda t: t[:2]):
            new_bands.append(replace(b, name=f"{a.name}.{ci}_{cj}"))
    return BandSystem(system.forest, tuple(new_bands), support=K,
                      field=system.field)


def lineage(label: str) -> str:
    """Parent label of a band produced by rips_step, keeping the trailing
    prime of an inverse."""
    name = label.rstrip("'")
    return name.rsplit(".", 1)[0] + label[len(name):]


def same_system(s: BandSystem, t: BandSystem) -> bool:
    """Exact equality of supports and of band sets up to relabeling."""
    if s.support != t.support:
        return False
    return ({b.canonical_key() for b in s.bands}
            == {b.canonical_key() for b in t.bands})


def is_reduced(system: BandSystem):
    """(True, None), or (False, (band label, offending extremal point))."""
    K1 = overlap_set(system)
    for a in system.elements():
        for p in a.domain.extremal_points():
            if not K1.contains(p):
                return False, (a.label, p)
    return True, None


# ---------------------------------------------------------------------------
# iteration, traces, classification


@dataclass(frozen=True)
class StepRecord:
    index: int
    system: BandSystem
    volume: Scalar
    vol_ge3: Scalar
    max_diameter: Scalar
    bands: int
    halted: bool


def _record(i: int, s: BandSystem) -> StepRecord:
    return StepRecord(i, s, s.support.volume(),
                      s.strata.vol_ge(3),
                      s.max_domain_diameter(), len(s.bands), False)


@dataclass(frozen=True)
class RipsTrace:
    steps: tuple[StepRecord, ...]
    max_iter: int

    @property
    def halted(self) -> bool:
        return self.steps[-1].halted

    @property
    def halt_step(self) -> Optional[int]:
        return self.steps[-1].index if self.halted else None

    @property
    def final(self) -> BandSystem:
        return self.steps[-1].system


def run(system: BandSystem, max_iter: int,
        checkpoint: Optional[str] = None, start: int = 0) -> RipsTrace:
    """Iterate rips_step until exact halt or the budget is exhausted.

    The records are numbered from `start`, the step a resumed run picks up
    at.  With `checkpoint` set, every computed system is written to
    <checkpoint>/step-<i>.bands in the standard text format.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    records: list[StepRecord] = []

    def record(i: int, s: BandSystem):
        records.append(_record(i, s))
        if checkpoint is not None:
            os.makedirs(checkpoint, exist_ok=True)
            save_system(s, _step_path(checkpoint, i))

    record(start, system)
    cur = system
    for i in range(start + 1, start + max_iter + 1):
        nxt = rips_step(cur)
        if same_system(cur, nxt):
            records[-1] = replace(records[-1], halted=True)
            break
        record(i, nxt)
        cur = nxt
    return RipsTrace(tuple(records), max_iter)


_STEP_FILE = re.compile(r"step-(\d+)\.bands")


def _step_path(checkpoint: str, i: int) -> str:
    return os.path.join(checkpoint, f"step-{i}.bands")


class CheckpointError(Exception):
    """A checkpoint file read back by a resumed run is missing or is not a
    valid system."""


def _read_step(checkpoint: str, i: int) -> BandSystem:
    path = _step_path(checkpoint, i)
    try:
        return parse_system(path)
    except OSError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc.strerror}") from exc
    except (BandsSyntaxError, ValidationError, FieldMismatch, ForestError) as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc


def latest_checkpoint(checkpoint: str) -> Optional[tuple[int, BandSystem]]:
    """The highest step number in the checkpoint directory and its system,
    or None when there is none."""
    if not os.path.isdir(checkpoint):
        return None
    steps = [int(m.group(1)) for m in map(_STEP_FILE.fullmatch,
                                          os.listdir(checkpoint)) if m]
    if not steps:
        return None
    return max(steps), _read_step(checkpoint, max(steps))


@dataclass(frozen=True)
class SurfaceType:
    halt_step: int

    def __str__(self) -> str:
        return f"SurfaceType({self.halt_step})"


@dataclass(frozen=True)
class LevittEvidence:
    iterations: int
    diameter_trace: tuple[Scalar, ...]
    vol_ge3_trace: tuple[Scalar, ...]

    def __str__(self) -> str:
        return f"LevittEvidence({self.iterations} iterations)"


@dataclass(frozen=True)
class Inconclusive:
    reason: str

    def __str__(self) -> str:
        return f"Inconclusive({self.reason})"


@dataclass(frozen=True)
class Classification:
    verdict: object
    max_iter: int
    diam_ratio: Fraction
    trace: RipsTrace


def _threshold(diam_ratio_threshold) -> Fraction:
    ratio = Fraction(diam_ratio_threshold)
    if not (0 < ratio < 1):
        raise ValueError("diam_ratio_threshold must lie strictly in (0, 1)")
    return ratio


def classify(system: BandSystem, max_iter: int,
             diam_ratio_threshold: Fraction = Fraction(1, 2),
             checkpoint: Optional[str] = None, start: int = 0) -> Classification:
    """Run the machine and judge its trace; `checkpoint` and `start` are
    passed to `run`.

    A run resumed at step `start` is judged as the whole trajectory: the
    records of steps 0..start-1 are read back from the checkpoint files
    (a missing or invalid one raises CheckpointError before anything
    runs), and the trace is indexed from step 0, with `start + max_iter`
    steps.
    """
    _threshold(diam_ratio_threshold)
    earlier = tuple(_record(i, _read_step(checkpoint, i)) for i in range(start))
    resumed = run(system, max_iter, checkpoint=checkpoint, start=start)
    return judge(RipsTrace(earlier + resumed.steps, start + max_iter),
                 diam_ratio_threshold)


def judge(trace: RipsTrace,
          diam_ratio_threshold: Fraction = Fraction(1, 2)) -> Classification:
    """The verdict on a given trace: SurfaceType if it halted, else
    LevittEvidence if vol(K^{>=3}) stayed positive and the final max
    domain diameter fell below the threshold times the initial one, else
    Inconclusive with the reason."""
    ratio = _threshold(diam_ratio_threshold)

    def done(verdict):
        return Classification(verdict, trace.max_iter, ratio, trace)

    if trace.halted:
        return done(SurfaceType(trace.halt_step))
    for rec in trace.steps:
        if rec.vol_ge3.sign() == 0:
            return done(Inconclusive(
                f"no halt, but vol(K^{{>=3}}) = 0 at step {rec.index}"))
    d0 = trace.steps[0].max_diameter
    dn = trace.steps[-1].max_diameter
    if d0.sign() == 0:
        return done(Inconclusive("no halt, initial max domain diameter is 0"))
    if dn < d0 * rational(ratio):
        return done(LevittEvidence(
            trace.steps[-1].index,
            tuple(r.max_diameter for r in trace.steps),
            tuple(r.vol_ge3 for r in trace.steps)))
    return done(Inconclusive(
        f"no halt, and final max domain diameter did not drop below "
        f"{ratio} of the initial"))
