"""The Rips Machine: exact induction on band systems.

One induction step replaces the support K by the set K' of points lying in
at least two band domains, and replaces each band a by its maximal
restrictions between ordered pairs of components of K': the components
of D = K' n a^-1(K' n range(a)), each named by the components of K'
holding its first marker and that marker's image.  K' is read off the
system's valence stratification (`BandSystem.strata`, computed once per
system), which also gives the vol(K^{>=3}) of each step record.  It halts
when K' = K, by exact set equality, as then every band is carried whole
(Gaboriau-Levitt-Paulin 1994; `same_system`); `judge` reports a
non-halting trace with persistent triple overlap and shrinking band
domains as Levitt evidence, never as proof.

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

from .fileformat import PARSE_ERRORS, parse_system, save_system
from .forest import Subforest
from .isometry import ValenceStratification  # noqa: F401  (re-exported)
from .isometry import BandSystem, PartialIsometry
from .scalar import Scalar, rational


# ---------------------------------------------------------------------------
# one induction step


def overlap_set(system: BandSystem) -> Subforest:
    """K': points lying in the domains of two distinct elements of A+-.

    K' is K^{>=2} minus the own-inverse touch points: an isolated point of
    K^{>=2} is kept only where the domains holding it carry at least two
    distinct band names (`ValenceStratification.overlap`), so a single
    point where a band domain touches the domain of that same band's
    inverse is discarded.  Point overlaps between genuinely distinct bands
    are kept.
    """
    return system.strata.overlap()


def _locator(K: Subforest):
    """meet(S), the set K n S, and component(S, p), the index in
    `K.components()` of the component holding a nonempty connected subset
    S of K and a point p of it.  A set that is one stored interval or lone
    point of K is met and named by one dict read; any other is named by
    the interval of K holding p, a piece's first marker or its image."""
    index = K.component_index()

    def piece(S: Subforest):
        if len(S.intervals) + len(S.points) != 1:
            return None
        for e, ivs in S.intervals.items():
            return (e, ivs[0]) if len(ivs) == 1 else None
        return next(iter(S.points))

    def meet(S: Subforest) -> Subforest:
        return S if piece(S) in index else K.intersect(S)

    def component(S: Subforest, p) -> int:
        key = piece(S)  # a connected S holding a lone point of K is that point
        return index[key if key in index else K.interval_at(p)]

    return meet, component


def rips_step(system: BandSystem) -> BandSystem:
    """One Rips Machine step: each band a becomes its restrictions to the
    components of D = K' n a^-1(K' n range(a)).

    dom(a) is a subtree (`validate` requires the markers to span it), so
    for components C_i, C_j of K' each dom(a) n C_i n a^-1(C_j) is one;
    these sets are disjoint and closed with union D, so they are exactly
    its components.  A new band's label extends its parent's with (i, j),
    the components of K' holding its domain and its range, so lineage is
    always recoverable; the new bands of a parent are ordered by (i, j),
    and each keeps its chart, domain and range under its new label.
    """
    K = overlap_set(system)
    meet, component = _locator(K)
    new_bands: list[PartialIsometry] = []
    for a in system.bands:
        D = meet(a.inverse().image_of(meet(a.range)))
        pieces = sorted(((*map(component, (b.domain, b.range), b.correspondence[0]), b)
                         for b in map(a.restrict, D.components())), key=lambda t: t[:2])
        new_bands += [PartialIsometry(f"{a.name}.{ci}_{cj}", b.domain, b.range,
                                      b.correspondence, _chart=b.chart)
                      for ci, cj, b in pieces]
    return BandSystem(system.forest, tuple(new_bands), support=K,
                      field=system.field)


def lineage(label: str) -> str:
    """Parent label of a band produced by rips_step, keeping the trailing
    prime of an inverse."""
    name = label.rstrip("'")
    return name.rsplit(".", 1)[0] + label[len(name):]


def same_system(s: BandSystem, t: BandSystem) -> bool:
    """Whether t = rips_step(s) is the valid system s up to relabeling:
    iff K' = K, as then D = K n a^-1(K n range(a)) = dom(a), one subtree,
    and `rips_step` carries each band a whole."""
    return s.support == t.support


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
    <checkpoint>/step-<i>.bands in the standard text format; a checkpoint
    that cannot be written raises CheckpointError.
    """
    if max_iter < 1 or start < 0:
        raise ValueError("max_iter must be >= 1 and start >= 0")
    records: list[StepRecord] = []

    def record(i: int, s: BandSystem):
        records.append(_record(i, s))
        if checkpoint is not None:
            try:
                os.makedirs(checkpoint, exist_ok=True)
                save_system(s, _step_path(checkpoint, i))
            except OSError as exc:
                raise CheckpointError(f"checkpoint {exc.filename}: {exc.strerror}") from exc

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


_STEP_FILE = re.compile(r"step-(0|[1-9][0-9]*)\.bands")  # the names `_step_path` writes


def _step_path(checkpoint: str, i: int) -> str:
    return os.path.join(checkpoint, f"step-{i}.bands")


class CheckpointError(Exception):
    """A checkpoint cannot be written, or a file read back by a resumed run
    is missing, undecodable or not a valid system."""


def _read_step(checkpoint: str, i: int) -> BandSystem:
    path = _step_path(checkpoint, i)
    try:
        return parse_system(path)
    except OSError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc.strerror}") from exc
    except PARSE_ERRORS as exc:
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
    steps; `start` > 0 needs the checkpoint.
    """
    _threshold(diam_ratio_threshold)
    if start > 0 and checkpoint is None:
        raise ValueError("a run resumed at a later step needs its checkpoint")
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
        return done(LevittEvidence(trace.steps[-1].index,
                                   tuple(r.max_diameter for r in trace.steps)))
    return done(Inconclusive(
        f"no halt, and final max domain diameter did not drop below "
        f"{ratio} of the initial"))
