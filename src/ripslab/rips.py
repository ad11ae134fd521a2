"""The Rips Machine: exact induction on band systems.

One induction step replaces the support K by the set K' of points lying in
at least two band domains, and replaces each band by its maximal
restrictions between ordered pairs of components of K'.  Halting (K
stabilizes, band set unchanged up to relabeling) is decided by exact set
equality; a non-halting run with persistent triple overlap and shrinking
band domains is reported as Levitt evidence, never as proof.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .forest import MetricForest, Point, Subforest, sorted_unique
from .isometry import BandSystem, PartialIsometry
from .scalar import Scalar, rational


# ---------------------------------------------------------------------------
# valence stratification


class ValenceStratification:
    """Piecewise-constant band valence v(x) = #{a in A+- : x in dom(a)}.

    Computed after cutting the support at every domain endpoint, so v is
    constant on the open interior of each recorded segment; valences at
    the cut points themselves are listed separately (they can exceed the
    neighboring interior values, never undercut them).
    """

    def __init__(self, system: BandSystem):
        self.system = system
        host = system.forest
        field = system.field
        self._domains = domains = [e.domain for e in system.elements()]
        self.max_valence_bound = len(domains)

        def canon(x: Scalar) -> Scalar:
            if field is not None and x.field is None:
                return field.rational(x.as_fraction())
            return x

        segments: list[tuple[str, Scalar, Scalar, int]] = []
        point_valences: dict[Point, int] = {}
        for eid, ivs in system.support.intervals.items():
            spans = [(canon(lo), canon(hi)) for d in domains
                     for lo, hi in d.intervals.get(eid, ())]
            offsets = [canon(p.offset) for d in domains for p in d.points
                       if not p.is_vertex and p.edge == eid]
            ends = [canon(x) for iv in ivs for x in iv]
            cuts, index, seg_cov, pt_cov = _edge_sweep(spans, offsets, ends)
            for lo, hi in ivs:
                i, j = index[canon(lo)], index[canon(hi)]
                for k in range(i, j):
                    segments.append((eid, cuts[k], cuts[k + 1], seg_cov[k]))
                for k in range(i, j + 1):
                    p = host.point(eid, cuts[k])
                    point_valences[p] = (self.value(p) if p.is_vertex
                                         else pt_cov[k])
        for p in system.support.points:
            point_valences[p] = self.value(p)

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


def _edge_sweep(spans: list[tuple[Scalar, Scalar]], offsets: list[Scalar],
                extra: Iterable[Scalar] = ()):
    """One sorted sweep along an edge.

    `spans` are closed intervals and `offsets` single points on the edge.
    Returns the sorted distinct cuts (every span end, offset and extra
    value), the index of each cut, and per cut k the number of spans
    covering the open piece (cuts[k], cuts[k+1]) and the number of spans
    and offsets containing cuts[k] itself.
    """
    cuts = sorted_unique(list(extra) + [x for iv in spans for x in iv]
                         + list(offsets))
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
    for x in offsets:
        k = index[x]
        pt_diff[k] += 1
        pt_diff[k + 1] -= 1
    seg_cov = list(itertools.accumulate(seg_diff[:n]))
    pt_cov = list(itertools.accumulate(pt_diff[:n]))
    return cuts, index, seg_cov, pt_cov


def valence(system: BandSystem) -> ValenceStratification:
    return ValenceStratification(system)


# ---------------------------------------------------------------------------
# one induction step


def overlap_set(system: BandSystem) -> Subforest:
    """K': points lying in the domains of two distinct elements of A+-.

    A single point where a band domain touches the domain of that same
    band's inverse is discarded: only the nondegenerate part of a
    band/own-inverse overlap survives the step.  Point overlaps between
    genuinely distinct bands are kept.

    Computed in one sorted sweep per edge: the piece between two
    consecutive cuts is kept where at least two domains cover it, and a
    cut point or a vertex is kept where the domains containing it carry
    at least two distinct band names.
    """
    host = system.forest
    spans: dict[str, list[tuple[str, Scalar, Scalar]]] = {}
    lone: dict[str, list[tuple[str, Scalar]]] = {}
    vertex_names: dict[str, set[str]] = {}
    for a in system.elements():
        dom = a.domain
        for eid, ivs in dom.intervals.items():
            spans.setdefault(eid, []).extend((a.name, lo, hi) for lo, hi in ivs)
        for v in dom._interval_vertices():
            vertex_names.setdefault(v, set()).add(a.name)
        for p in dom.points:
            if p.is_vertex:
                vertex_names.setdefault(p.vertex, set()).add(a.name)
            else:
                lone.setdefault(p.edge, []).append((a.name, p.offset))
    intervals: dict[str, list[tuple[Scalar, Scalar]]] = {}
    points = {Point(vertex=v) for v, names in vertex_names.items()
              if len(names) >= 2}
    for eid in sorted(spans.keys() | lone.keys()):
        named = spans.get(eid, [])
        pts = lone.get(eid, [])
        cuts, index, seg_cov, pt_cov = _edge_sweep(
            [(lo, hi) for _, lo, hi in named], [x for _, x in pts])
        n = len(cuts)
        length = host.edge_of(eid).length
        kept = []
        for k, x in enumerate(cuts):
            if seg_cov[k] >= 2:
                kept.append((x, cuts[k + 1]))
            if (k and seg_cov[k - 1] >= 2) or seg_cov[k] >= 2 or pt_cov[k] < 2:
                continue
            if (k == 0 and x.sign() == 0) or (k == n - 1 and x == length):
                continue  # a vertex: decided by vertex_names
            names = {name for name, lo, hi in named
                     if index[lo] <= k <= index[hi]}
            names.update(name for name, y in pts if index[y] == k)
            if len(names) >= 2:
                points.add(Point(edge=eid, offset=x))
        if kept:
            intervals[eid] = kept
    return Subforest(host, intervals, frozenset(points))


class _ComponentLocator:
    """Maps subsets of K' to the components of K' containing them."""

    def __init__(self, K: Subforest, comps: list[Subforest]):
        self.K = K
        self.host = K.host
        self.interval_comp: dict[tuple[str, tuple], int] = {}
        self.point_comp: dict = {}
        for ci, C in enumerate(comps):
            for eid, ivs in C.intervals.items():
                for iv in ivs:
                    self.interval_comp[(eid, iv)] = ci
            for p in C.points:
                self.point_comp[p] = ci

    def _locate_interval(self, eid: str, lo: Scalar, hi: Scalar) -> int:
        """Component of K' containing the interval piece [lo, hi] of eid."""
        for iv in self.K.intervals.get(eid, ()):
            if iv[0] <= lo and hi <= iv[1]:
                return self.interval_comp[(eid, iv)]
        raise ValueError("interval piece escapes K'")  # pragma: no cover

    def _locate_point(self, p) -> int:
        if p in self.point_comp:
            return self.point_comp[p]
        if p.is_vertex:
            for e in self.host._adj[p.vertex]:
                for iv in self.K.intervals.get(e.id, ()):
                    if (e.u == p.vertex and iv[0].sign() == 0) or (
                            e.v == p.vertex and iv[1] == e.length):
                        return self.interval_comp[(e.id, iv)]
            raise ValueError("point escapes K'")  # pragma: no cover
        for iv in self.K.intervals.get(p.edge, ()):
            if iv[0] <= p.offset <= iv[1]:
                return self.interval_comp[(p.edge, iv)]
        raise ValueError("point escapes K'")  # pragma: no cover

    def split(self, sub: Subforest) -> dict[int, Subforest]:
        """Decompose sub (a subset of K') by component of K'."""
        pieces: dict[int, dict[str, list]] = {}
        pts: dict[int, set] = {}
        for eid, ivs in sub.intervals.items():
            for lo, hi in ivs:
                ci = self._locate_interval(eid, lo, hi)
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


def _record(i: int, s: BandSystem, halted: bool = False) -> StepRecord:
    return StepRecord(i, s, s.support.volume(),
                      ValenceStratification(s).vol_ge(3),
                      s.max_domain_diameter(), len(s.bands), halted)


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
        if checkpoint is None:
            return
        from .fileformat import save_system

        os.makedirs(checkpoint, exist_ok=True)
        save_system(s, os.path.join(checkpoint, f"step-{i + start}.bands"))

    records = [_record(0, system)]
    save(0, system)
    cur = system
    for i in range(max_iter):
        nxt = rips_step(cur)
        if same_system(cur, nxt):
            records[-1] = _record(i, cur, halted=True)
            break
        records.append(_record(i + 1, nxt))
        save(i + 1, nxt)
        cur = nxt
    return RipsTrace(tuple(records), max_iter)


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
    and `start` are passed to `run`."""
    ratio = Fraction(diam_ratio_threshold)
    if not (0 < ratio < 1):
        raise ValueError("diam_ratio_threshold must lie strictly in (0, 1)")
    trace = run(system, max_iter, checkpoint=checkpoint, start=start)

    def done(verdict):
        return Classification(verdict, max_iter, ratio, trace)

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
