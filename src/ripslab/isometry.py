"""Partial isometries between compact subtrees, and band systems.

A partial isometry is stored, serialized and validated as a finite marker
correspondence (domain point -> range point) that includes every extremal
point of the domain.  It maps through its chart: pieces x -> x + t or
x -> t - x, each from one edge into one edge; a set is mapped span by
span (`Subforest.spans`).  Only a parsed band (or one built by
`arc_band`) reads its chart off the markers: a restriction keeps its
parent's chart, clipped, and an inverse inverts its forward chart.
A band system couples a host forest with finitely many positively-labeled
bands; inverses are derived, so the label set and its inverses never
collide.  Its valence stratification is computed once, on first use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .forest import ZERO, MetricForest, Point, Subforest, sorted_unique
from .scalar import NumberField, Scalar


class IsometryError(Exception):
    pass


class OutOfDomain(IsometryError):
    pass


class ValidationError(IsometryError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def identity_chart(s: Subforest) -> list:
    """The chart of the empty word on s.  The chart of a word is a list of
    pieces (cell, tcell, flip, t, lo, hi): an interval of the cell sent
    onto [lo, hi] of tcell by x -> x + t, or by x -> t - x when flip is set."""
    return [(c, c, False, ZERO, lo, hi) for c, lo, hi in s.spans()]


def extend_chart(chart: list, band: dict) -> list:
    """The chart of a band (given by its chart) after a word chart: each
    image is clipped against the band's domain on its cell and mapped on."""
    out = []
    for cell, tid, flip, t, lo, hi in chart:
        for blo, bhi, nid, nflip, nt in band.get(tid, ()):
            if blo <= hi and lo <= bhi:
                a = lo if lo >= blo else blo
                b = hi if hi <= bhi else bhi
                out.append((cell, nid, not flip, nt - t, nt - b, nt - a) if nflip
                           else (cell, nid, flip, t + nt, a + nt, b + nt))
    return out


def chart_domain(host: MetricForest, chart: list) -> Subforest:
    return Subforest.from_spans(host, [
        (cell, t - hi, t - lo) if flip else (cell, lo - t, hi - t)
        for cell, _, flip, t, lo, hi in chart])


def _map_point(host: MetricForest, chart: dict, p: Point) -> Point | None:
    hit = extend_chart([(c, c, False, ZERO, x, x) for c, x in host.addresses(p)], chart)
    return host.cell_point(hit[0][1], hit[0][4]) if hit else None


def _arc(path: list) -> list:
    """The pieces (s0, s1, edge, flip, t) of a `MetricForest.path`: arc
    length s in [s0, s1] lies on the edge at s + t, or at t - s if flip."""
    out = []
    for e, f, ft in path:
        d = ft - f
        flip = d.sign() < 0
        n, s = -d if flip else d, out[-1][1] if out else ZERO
        out.append((s, s + n, e, flip, f + s if flip else f - s) if out
                   else (ZERO, n, e, flip, f))
    return out


def _marker_chart(band: "PartialIsometry") -> dict[str, list]:
    """The interval pieces of a band's chart, from its markers: the arc
    from the first marker to each other one read beside its image arc."""
    host, (m0, i0) = band.host, band.correspondence[0]
    chart: dict[str, list] = {}
    for m, i in band.correspondence[1:]:
        for (s0, s1, e, df, dt), (r0, r1, c, rf, rt) in itertools.product(
                _arc(host.path(m0, m)[1]), _arc(host.path(i0, i)[1])):
            a, b = max(s0, r0), min(s1, r1)
            if a < b:
                piece = ((dt - b, dt - a) if df else (a + dt, b + dt)) + (
                    c, df != rf, rt + dt if df != rf else rt - dt)
                if piece not in chart.setdefault(e, []):
                    chart[e].append(piece)
    return chart


def _inverse_chart(chart: dict) -> dict[str, list]:
    """The interval pieces of a chart's inverse: x -> x + t on [lo, hi]
    inverts to y -> y - t on [lo + t, hi + t], x -> t - x to itself."""
    out: dict[str, list] = {}
    for cell, pieces in chart.items():
        for lo, hi, c, flip, t in pieces:
            if lo != hi:
                out.setdefault(c, []).append((t - hi, t - lo, cell, True, t) if flip
                                             else (lo + t, hi + t, cell, False, -t))
    return out


def _clip(host: MetricForest, chart: dict, s: Subforest) -> tuple[dict, Subforest]:
    """The chart restricted to a subset s of its domain, each piece clipped
    to each span of s on its cell, and the image of s."""
    out, image = {}, []
    for cell, lo, hi in s.spans():
        for blo, bhi, c, flip, t in chart.get(cell, ()):
            if blo <= hi and lo <= bhi:
                a, b = lo if lo >= blo else blo, hi if hi <= bhi else bhi
                out.setdefault(cell, []).append((a, b, c, flip, t))
                image.append((c, t - b, t - a) if flip else (c, a + t, b + t))
    return out, Subforest.from_spans(host, image)


@dataclass(frozen=True)
class PartialIsometry:
    """An isometry from one compact subtree of the host onto another."""

    name: str
    domain: Subforest
    range: Subforest
    correspondence: tuple[tuple[Point, Point], ...]
    inverted: bool = False
    # fields, so that `dataclasses.replace` keeps the chart and its source
    _chart: dict | None = field(default=None, compare=False, repr=False)
    _forward: PartialIsometry | None = field(default=None, compare=False, repr=False)

    @property
    def label(self) -> str:
        return self.name + ("'" if self.inverted else "")

    @property
    def host(self) -> MetricForest:
        return self.domain.host

    def inverse(self) -> "PartialIsometry":
        return PartialIsometry(
            self.name, self.range, self.domain,
            tuple((b, a) for a, b in self.correspondence),
            not self.inverted, _forward=self)

    @property
    def chart(self) -> dict[str, list]:
        """The map, per cell (an edge, or a vertex no edge meets), as domain
        pieces (lo, hi, tcell, flip, t) sent into tcell by x -> x + t, or by
        t - x if flip, cut where the image passes a vertex; each vertex and
        lone point of the domain is listed, as lo = hi, on every edge at it
        that no interval reaches.  Computed once, unless given."""
        if self._chart is None:
            host, fwd = self.host, self._forward
            chart = _marker_chart(self) if fwd is None else _inverse_chart(fwd.chart)
            for cell, x, y in self.domain.spans():
                if x == y:
                    q = _map_point(host, chart, host.cell_point(cell, x))
                    c, z = host.addresses(q or self.correspondence[0][1])[0]
                    chart.setdefault(cell, []).append((x, x, c, False, z - x))
            object.__setattr__(self, "_chart", chart)
        return self._chart

    def apply(self, p: Point) -> Point:
        q = _map_point(self.host, self.chart, p)
        if q is None:
            raise OutOfDomain(f"point {p!r} outside dom({self.label})")
        return q

    def image_of(self, s: Subforest) -> Subforest:
        """Exact image of a subset s of the domain."""
        return _clip(self.host, self.chart, s)[1]

    def restrict(self, d: Subforest) -> "PartialIsometry | None":
        """Maximal restriction of the map to domain `intersect` d, charted."""
        nd = self.domain.intersect(d)
        if nd.is_empty:
            return None
        if nd == self.domain:
            return self
        chart, image = _clip(self.host, self.chart, nd)
        corr = tuple((m, _map_point(self.host, chart, m)) for m in nd.extremal_points())
        return PartialIsometry(self.name, nd, image, corr, self.inverted, _chart=chart)

    def validate(self) -> list[str]:
        """All invariant violations, empty when the band is well formed."""
        host = self.host
        bad: list[str] = []
        corr = self.correspondence
        if not corr:
            return [f"band {self.label}: empty correspondence"]
        for i, (mi, ii) in enumerate(corr):
            if not self.domain.contains(mi):
                bad.append(f"band {self.label}: marker {mi!r} outside domain")
            if not self.range.contains(ii):
                bad.append(f"band {self.label}: image {ii!r} outside range")
            for mj, ij in corr[i + 1:]:
                try:
                    dd = host.distance(mi, mj)
                    dr = host.distance(ii, ij)
                except Exception:
                    bad.append(f"band {self.label}: markers span components")
                    continue
                if dd != dr:
                    bad.append(
                        f"band {self.label}: distance violation between markers "
                        f"{mi!r},{mj!r} ({dd.to_decimal(6)} vs {dr.to_decimal(6)})")
        if bad:
            return bad
        dom_pts = [m for m, _ in corr]
        img_pts = [i for _, i in corr]
        if host.hull(dom_pts) != self.domain:
            bad.append(f"band {self.label}: markers do not span the domain "
                       "(missing extremal markers)")
        if host.hull(img_pts) != self.range:
            bad.append(f"band {self.label}: surjectivity violation "
                       "(marker images do not span the range)")
        # consistency on branch points of the domain hull
        branch = [p for p, n in self.domain.end_counts().items() if n >= 3]
        for b in branch:
            images = set()
            for i, (mi, ii) in enumerate(corr):
                for mj, ij in corr[i + 1:]:
                    dib = host.distance(mi, b)
                    dbj = host.distance(b, mj)
                    if dib + dbj == host.distance(mi, mj):
                        images.add(host.point_at(ii, ij, dib))
            if len(images) > 1:
                bad.append(f"band {self.label}: inconsistent images at branch "
                           f"point {b!r}")
        return bad

    def canonical_key(self):
        """Identity of the underlying map, independent of labeling."""
        ext = self.domain.extremal_points()
        return (self.domain, tuple((p, self.apply(p)) for p in ext))

    def __repr__(self) -> str:
        return f"PartialIsometry({self.label}: {self.domain!r} -> {self.range!r})"


@dataclass(frozen=True)
class BandSystem:
    """A compact forest (or a sub-support of one) with finitely many bands."""

    forest: MetricForest
    bands: tuple[PartialIsometry, ...]
    support: Subforest = None  # type: ignore[assignment]
    field: NumberField | None = None

    def __post_init__(self):
        if self.support is None:
            object.__setattr__(self, "support", self.forest.whole())
        labels = [b.name for b in self.bands]
        if len(set(labels)) != len(labels):
            raise IsometryError("duplicate band labels")
        for b in self.bands:
            if b.inverted:
                raise IsometryError("band systems store positive bands only")

    def elements(self) -> tuple[PartialIsometry, ...]:
        """A union A-inverse, positive bands first, canonical order."""
        out = list(self.bands)
        out.extend(b.inverse() for b in self.bands)
        return tuple(out)

    def band(self, label: str) -> PartialIsometry:
        for e in self.elements():
            if e.label == label:
                return e
        raise IsometryError(f"no band labeled {label!r}")

    def validate(self) -> list[str]:
        bad: list[str] = []
        for b in self.bands:
            bad.extend(b.validate())
            if not b.domain.issubset(self.support):
                bad.append(f"band {b.label}: domain leaves the support")
            if not b.range.issubset(self.support):
                bad.append(f"band {b.label}: range leaves the support")
        return bad

    @cached_property
    def strata(self) -> ValenceStratification:
        """The valence stratification, computed on first use."""
        return ValenceStratification(self)

    def max_domain_diameter(self) -> Scalar:
        """The largest band domain diameter (a range has its domain's)."""
        return max((b.domain.diameter() for b in self.bands), default=ZERO)

    def summary(self) -> dict:
        return {
            "volume": self.support.volume(),
            "bands": len(self.bands),
            "components": len(self.support.components()),
            "max_diameter": self.max_domain_diameter(),
        }


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
        self.forest = host = system.forest
        domains = [e.domain for e in system.elements()]
        on_edge: dict[str, list[tuple[Scalar, Scalar]]] = {}
        counts: dict[Point, int] = {}  # domains holding a vertex or lone point
        for d in domains:
            for eid, ivs in d.intervals.items():
                on_edge.setdefault(eid, []).extend(ivs)
            held = [Point(vertex=v) for v in d.interval_vertices()]
            held.extend(d.points)
            for p in held:
                counts[p] = counts.get(p, 0) + 1
                if not p.is_vertex:
                    on_edge.setdefault(p.edge, []).append((p.offset, p.offset))

        segments: list[tuple[str, Scalar, Scalar, int]] = []
        point_valences: dict[Point, int] = {}
        for eid, ivs in system.support.intervals.items():
            cuts, index, seg_cov, pt_cov = _edge_sweep(
                on_edge.get(eid, []), [x for iv in ivs for x in iv])
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

    def stratum_ge(self, i: int) -> Subforest:
        """K^{>=i} as an exact subforest of the host."""
        intervals: dict[str, list[tuple[Scalar, Scalar]]] = {}
        for eid, lo, hi, v in self.segments:
            if v >= i:
                intervals.setdefault(eid, []).append((lo, hi))
        pts = frozenset(p for p, v in self.point_valences.items() if v >= i)
        return Subforest(self.forest, intervals, pts)

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


def arc_band(host: MetricForest, name: str, p0: Point, p1: Point,
             q0: Point, q1: Point) -> PartialIsometry:
    """Band on an arc domain [p0, p1] mapped onto [q0, q1] with p0 -> q0."""
    dom = host.hull([p0, p1])
    rng = host.hull([q0, q1])
    b = PartialIsometry(name, dom, rng, ((p0, q0), (p1, q1)))
    problems = b.validate()
    if problems:
        raise ValidationError(problems)
    return b
