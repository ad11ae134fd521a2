"""The Rips Machine: exact induction on band systems.

One induction step replaces the support K by the set K' of points lying in
at least two band domains, and replaces each band by its maximal
restrictions between ordered pairs of components of K'.  Halting (K
stabilizes, band set unchanged up to relabeling) is decided by exact set
equality; a non-halting run with persistent triple overlap and shrinking
band domains is reported as Levitt evidence, never as proof.
"""

from __future__ import annotations

import bisect
import itertools
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .fileformat import BandsSyntaxError, parse_system, save_system
from .forest import ZERO, ForestError, Point, Subforest, sorted_unique
from .isometry import BandSystem, PartialIsometry, ValidationError
from .scalar import FieldMismatch, Scalar, rational


# ---------------------------------------------------------------------------
# valence stratification


class ValenceStratification:
    """Piecewise-constant band valence v(x) = #{a in A+- : x in dom(a)}.

    Computed after cutting the support at every domain endpoint, so v is
    constant on the open interior of each recorded segment.  A valence at
    a cut point is never below that of the pieces beside it; a cut point
    is listed in `point_valences` only where its valence exceeds both of
    them, since elsewhere every stratum containing it also contains a
    segment ending there.  Isolated points of the support are listed too.
    """

    def __init__(self, system: BandSystem):
        self.system = system
        host = system.forest
        self._domains = domains = [e.domain for e in system.elements()]
        spans: dict[str, list[tuple[Scalar, Scalar]]] = {}
        counts: dict[Point, int] = {}  # domains holding a vertex or lone point
        for d in domains:
            for eid, ivs in d.intervals.items():
                spans.setdefault(eid, []).extend(ivs)
            held = [Point(vertex=v) for v in d._interval_vertices()]
            held.extend(d.points)
            for p in held:
                counts[p] = counts.get(p, 0) + 1
                if not p.is_vertex:
                    spans.setdefault(p.edge, []).append((p.offset, p.offset))

        segments: list[tuple[str, Scalar, Scalar, int]] = []
        point_valences: dict[Point, int] = {}
        for eid, ivs in system.support.intervals.items():
            cuts, index, seg_cov, pt_cov = _edge_sweep(
                spans.get(eid, []), [x for iv in ivs for x in iv])
            for lo, hi in ivs:
                i, j = index[lo], index[hi]
                for k in range(i, j):
                    segments.append((eid, cuts[k], cuts[k + 1], seg_cov[k]))
                for k in range(i, j + 1):
                    p = host.point(eid, cuts[k])
                    v = counts.get(p, 0) if p.is_vertex else pt_cov[k]
                    if v > max(seg_cov[k - 1] if k > i else 0,
                               seg_cov[k] if k < j else 0):
                        point_valences[p] = v
        for p in system.support.points:
            point_valences[p] = counts.get(p, 0)

        self.segments = tuple(segments)
        self.point_valences = point_valences

    def value(self, p: Point) -> int:
        return sum(1 for d in self._domains if d.contains(p))

    def stratum_ge(self, i: int) -> Subforest:
        """K^{>=i} as an exact subforest of the host."""
        intervals: dict[str, list[tuple[Scalar, Scalar]]] = {}
        for eid, lo, hi, v in self.segments:
            if v >= i:
                intervals.setdefault(eid, []).append((lo, hi))
        pts = frozenset(p for p, v in self.point_valences.items() if v >= i)
        return Subforest(self.system.forest, intervals, pts)

    def vol_ge(self, i: int) -> Scalar:
        return self.stratum_ge(i).volume()


def _edge_sweep(spans: list[tuple[Scalar, Scalar]], extra: list[Scalar]):
    """One sorted sweep along an edge.

    `spans` are closed intervals on the edge, a single point x being the
    span (x, x).  Returns the sorted distinct cuts (every span end and
    extra value), the index of each cut, and per cut k the number of spans
    covering the open piece (cuts[k], cuts[k+1]) and the number of spans
    containing cuts[k] itself.
    """
    cuts = sorted_unique(extra + [x for iv in spans for x in iv])
    index = {c: k for k, c in enumerate(cuts)}
    n = len(cuts)
    seg_diff = [0] * (n + 1)
    pt_diff = [0] * (n + 1)
    for lo, hi in spans:
        i, j = index[lo], index[hi]
        seg_diff[i] += 1
        seg_diff[j] -= 1
        pt_diff[i] += 1
        pt_diff[j + 1] -= 1
    seg_cov = list(itertools.accumulate(seg_diff[:n]))
    pt_cov = list(itertools.accumulate(pt_diff[:n]))
    return cuts, index, seg_cov, pt_cov


def valence(system: BandSystem) -> ValenceStratification:
    return ValenceStratification(system)


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
    K = ValenceStratification(system).stratum_ge(2)
    els = system.elements()
    points = frozenset(
        p for p in K.points
        if len({a.name for a in els if a.domain.contains(p)}) >= 2)
    return Subforest(system.forest, K.intervals, points)


class _ComponentLocator:
    """Maps subsets of K' to the components of K' containing them."""

    def __init__(self, K: Subforest, comps: list[Subforest]):
        self.K = K
        self.host = K.host
        self.starts = {eid: [lo for lo, _ in ivs]
                       for eid, ivs in K.intervals.items()}
        self.interval_comp: dict[tuple[str, tuple], int] = {}
        self.point_comp: dict = {}
        for ci, C in enumerate(comps):
            for eid, ivs in C.intervals.items():
                for iv in ivs:
                    self.interval_comp[(eid, iv)] = ci
            for p in C.points:
                self.point_comp[p] = ci

    def _find(self, cells: list[tuple[str, Scalar]]) -> int:
        """Component of the first K' interval that contains one of the
        (edge, offset) cells, found by bisecting the interval starts."""
        for eid, x in cells:
            k = bisect.bisect_right(self.starts.get(eid, ()), x) - 1
            if k >= 0 and x <= self.K.intervals[eid][k][1]:
                return self.interval_comp[(eid, self.K.intervals[eid][k])]
        raise ValueError("escapes K'")  # pragma: no cover

    def _locate_point(self, p) -> int:
        if p in self.point_comp:
            return self.point_comp[p]
        if not p.is_vertex:
            return self._find([(p.edge, p.offset)])
        return self._find([(e.id, ZERO if e.u == p.vertex else e.length)
                           for e in self.host._adj[p.vertex]])

    def split(self, sub: Subforest) -> dict[int, Subforest]:
        """Decompose sub (a subset of K') by component of K'."""
        pieces: dict[int, dict[str, list]] = {}
        pts: dict[int, set] = {}
        for eid, ivs in sub.intervals.items():
            for lo, hi in ivs:
                ci = self._find([(eid, lo)])
                pieces.setdefault(ci, {}).setdefault(eid, []).append((lo, hi))
        for p in sub.points:
            ci = self._locate_point(p)
            pts.setdefault(ci, set()).add(p)
        out = {}
        for ci in set(pieces) | set(pts):
            out[ci] = Subforest(self.host, pieces.get(ci, {}),
                                frozenset(pts.get(ci, set())))
        return out


def rips_step(system: BandSystem) -> BandSystem:
    """One Rips Machine step: restrict to K' by ordered component pairs.

    Each new band is the maximal restriction of a parent band a with
    domain inside a component C of K' and range inside a component C'
    (self-pairs C = C' included); its label is the parent label extended
    with the pair, so lineage is always recoverable.
    """
    K = overlap_set(system)
    comps = K.components()
    locator = _ComponentLocator(K, comps)
    new_bands: list[PartialIsometry] = []
    for a in system.bands:
        dparts = locator.split(a.domain.intersect(K))
        rparts = locator.split(a.range.intersect(K))
        for ci, d0 in sorted(dparts.items()):
            for cj, r0 in sorted(rparts.items()):
                pre = a.inverse().image_of(r0)
                dom = d0.intersect(pre)
                if dom.is_empty:
                    continue
                r = a.restrict(dom)
                new_bands.append(PartialIsometry(
                    f"{a.name}.{ci}_{cj}", r.domain, r.range,
                    r.correspondence))
    return BandSystem(system.forest, tuple(new_bands), support=K,
                      field=system.field)


def lineage(name: str) -> str:
    """Parent label of a band produced by rips_step."""
    return name.rsplit(".", 1)[0]


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
                      ValenceStratification(s).vol_ge(3),
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

    With `checkpoint` set, every computed system is written to
    <checkpoint>/step-<i>.bands in the standard text format; `start`
    offsets the file numbering when resuming a previous run.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    def save(i: int, s: BandSystem):
        if checkpoint is not None:
            os.makedirs(checkpoint, exist_ok=True)
            save_system(s, _step_path(checkpoint, i + start))

    records = [_record(0, system)]
    save(0, system)
    cur = system
    for i in range(max_iter):
        nxt = rips_step(cur)
        if same_system(cur, nxt):
            records[-1] = replace(records[-1], halted=True)
            break
        records.append(_record(i + 1, nxt))
        save(i + 1, nxt)
        cur = nxt
    return RipsTrace(tuple(records), max_iter)


def _step_path(checkpoint: str, i: int) -> str:
    return os.path.join(checkpoint, f"step-{i}.bands")


class CheckpointError(Exception):
    """A checkpoint file read back by a resumed run is not a valid system."""


def _read_step(checkpoint: str, i: int) -> BandSystem:
    path = _step_path(checkpoint, i)
    try:
        return parse_system(path)
    except (BandsSyntaxError, ValidationError, FieldMismatch, ForestError) as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc


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


def classify(system: BandSystem, max_iter: int,
             diam_ratio_threshold: Fraction = Fraction(1, 2),
             checkpoint: Optional[str] = None, start: int = 0) -> Classification:
    """Run the machine and read a verdict off its trace; `checkpoint`
    and `start` are passed to `run`.

    A run resumed at step `start` is judged as the whole trajectory: the
    records of steps 0..start-1 are read back from the checkpoint files
    (a missing one raises FileNotFoundError and an invalid one
    CheckpointError, before anything runs), and the trace is indexed from
    step 0, with `start + max_iter` steps.
    """
    ratio = Fraction(diam_ratio_threshold)
    if not (0 < ratio < 1):
        raise ValueError("diam_ratio_threshold must lie strictly in (0, 1)")
    earlier = tuple(_record(i, _read_step(checkpoint, i)) for i in range(start))
    resumed = run(system, max_iter, checkpoint=checkpoint, start=start)
    trace = RipsTrace(earlier + tuple(replace(r, index=r.index + start)
                                      for r in resumed.steps),
                      start + max_iter)

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
