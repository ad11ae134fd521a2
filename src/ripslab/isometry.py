"""Partial isometries between compact subtrees, and band systems.

A partial isometry is stored, serialized and validated as a finite marker
correspondence (domain point -> range point) that includes every extremal
point of the domain.  It maps through its chart.  Bands, words and arcs
share one chart layout, which only this module reads: per cell (an edge,
or a vertex no edge meets), pieces (lo, hi, tcell, flip, t) sending
[lo, hi] into tcell by x -> x + t, or by x -> t - x if flip.  A set is
mapped span by span (`Subforest.spans`); a word carries the chart of its
inverse, from its image back onto its basepoints.  Only a band built from
its markers (`band_from_markers`) reads its chart off them, composing two
arcs per marker: a restriction keeps its parent's chart, clipped, and an
inverse inverts its forward chart.  A band system couples a host forest
with finitely many positively-labeled bands; inverses are derived, so the
label set and its inverses never collide.  Its strata and what others
derive from it are computed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .forest import DifferentComponents, MetricForest, Point, Subforest, coverage
from .scalar import ZERO, NumberField, Scalar


class IsometryError(Exception):
    pass


class OutOfDomain(IsometryError):
    pass


class ValidationError(IsometryError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def identity_chart(s: Subforest) -> dict[str, list]:
    """The chart of the empty word on s."""
    chart: dict[str, list] = {}
    for c, lo, hi in s.spans():
        chart.setdefault(c, []).append((lo, hi, c, False, ZERO))
    return chart


def extend_chart(chart: dict, band: dict) -> dict[str, list]:
    """The chart of a word then a band (given by its chart): each piece is
    clipped to the band's domain, sent forward, and mapped back through both."""
    out: dict[str, list] = {}
    for cell, pieces in chart.items():
        onto = band.get(cell, ())
        for lo, hi, c0, f0, t0 in pieces:
            for blo, bhi, c, flip, t in onto:
                if blo <= hi and lo <= bhi:
                    a, b = lo if lo >= blo else blo, hi if hi <= bhi else bhi
                    back = t0 + t if f0 != flip else t0 - t
                    out.setdefault(c, []).append((t - b, t - a, c0, not f0, back) if flip
                                                 else (a + t, b + t, c0, f0, back))
    return out


def chart_spans(chart: dict) -> list[tuple[str, Scalar, Scalar]]:
    """The closed spans (cell, lo, hi) of a word's basepoints, one per piece."""
    return [(c, t - hi, t - lo) if flip else (c, lo + t, hi + t)
            for pieces in chart.values() for lo, hi, c, flip, t in pieces]


def chart_domain(host: MetricForest, chart: dict) -> Subforest:
    return Subforest.from_spans(host, chart_spans(chart))


def drop_covered(host: MetricForest, chart: dict) -> dict[str, list]:
    """The word chart without its point pieces inside an interval piece (a
    band lists a vertex on every edge at it, so an image can reach one twice)."""
    if all(p[0] != p[1] for pieces in chart.values() for p in pieces):
        return chart
    image = Subforest.from_spans(host, [(c, lo, hi) for c, pieces in chart.items()
                                        for lo, hi, *_ in pieces if lo != hi])
    return {c: kept for c, pieces in chart.items() if (kept := [
        p for p in pieces if p[0] != p[1] or not image.contains(host.cell_point(c, p[0]))])}


def _map_point(host: MetricForest, chart: dict, p: Point) -> Point | None:
    hit = extend_chart({c: [(x, x, c, False, ZERO)] for c, x in host.addresses(p)}, chart)
    return next((host.cell_point(c, pieces[0][0]) for c, pieces in hit.items()), None)


def _marker_chart(band: "PartialIsometry") -> dict[str, list]:
    """The interval pieces of a band's chart, from its markers: an arc is a
    chart from arc length, so per marker the arc from the first marker is
    composed with the arc between their images."""
    host, (m0, i0) = band.host, band.correspondence[0]
    chart: dict[str, list] = {}
    for m, i in band.correspondence[1:]:
        for e, pieces in extend_chart({"": host.arc(i0, i)}, {"": host.arc(m0, m)}).items():
            known = chart.setdefault(e, [])
            known += [p for p in pieces if p[0] != p[1] and p not in known]
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


def _clip(host: MetricForest, chart: dict, s: Subforest) -> tuple[dict, Subforest, dict]:
    """The chart restricted to a subset s of its domain, each piece clipped
    to each span of s on its cell; the image of s; and the image address
    (tcell, y) of each clipped piece end (cell, x)."""
    out, image, ends = {}, [], {}
    for cell, lo, hi in s.spans():
        for blo, bhi, c, flip, t in chart.get(cell, ()):
            if blo <= hi and lo <= bhi:
                a, b = lo if lo >= blo else blo, hi if hi <= bhi else bhi
                out.setdefault(cell, []).append((a, b, c, flip, t))
                ia, ib = (t - a, t - b) if flip else (a + t, b + t)
                image.append((c, ib, ia) if flip else (c, ia, ib))
                ends[cell, a], ends[cell, b] = (c, ia), (c, ib)
    return out, Subforest.from_spans(host, image), ends


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
        """The map as a chart on the domain, cut where the image passes a
        vertex; each vertex and lone point of the domain is listed, as lo = hi,
        on every edge at it that no interval reaches.  Computed once, unless given."""
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
        """Exact image of a subset s of the domain; of the whole domain, the
        range, with no chart read."""
        if s == self.domain:
            return self.range
        return _clip(self.host, self.chart, s)[1]

    def restrict(self, d: Subforest) -> "PartialIsometry | None":
        """Maximal restriction of the map to domain `intersect` d, charted;
        to the whole domain, the map itself.  Its markers, the extremal
        points of the new domain, are read beside their images off the clip."""
        if d == self.domain:
            return self
        nd = self.domain.intersect(d)
        if nd.is_empty:
            return None
        chart, image, ends = _clip(self.host, self.chart, nd)
        corr = tuple((m, next(self.host.cell_point(*ends[a]) for a in self.host.addresses(m)
                              if a in ends)) for m in nd.extremal_points())
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
                except DifferentComponents:
                    bad.append(f"band {self.label}: markers span components")
                    continue
                if dd != dr:
                    bad.append(
                        f"band {self.label}: distance violation between markers "
                        f"{mi!r},{mj!r} ({dd!r} vs {dr!r})")
        if bad:
            return bad
        # a set holding the markers is their hull iff it is one subtree
        # whose extremal points are all markers; so no hull is built here
        for s, pts, what in (
                (self.domain, {m for m, _ in corr},
                 "markers do not span the domain (missing extremal markers)"),
                (self.range, {i for _, i in corr},
                 "surjectivity violation (marker images do not span the range)")):
            if len(s.components()) != 1 or not pts.issuperset(s.extremal_points()):
                bad.append(f"band {self.label}: {what}")
        if bad:
            return bad
        # consistency on branch points of the domain, now the markers' hull
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
        return [v for b in self.bands for v in b.validate() + self.leaving_support(b)]

    def leaving_support(self, b: PartialIsometry) -> list[str]:
        """The violations of a band whose domain or range leaves the support."""
        return [f"band {b.label}: {side} leaves the support"
                for side, s in (("domain", b.domain), ("range", b.range))
                if not s.issubset(self.support)]

    @cached_property
    def strata(self) -> ValenceStratification:
        """The valence stratification, computed on first use."""
        return ValenceStratification(self)

    @cached_property
    def derived(self) -> dict:
        """What other modules derive from the system, kept and freed with it:
        `lamination`'s word trie ("words") and dotted words per depth, and
        `whitehead`'s scan rows ("scan") and their edges per depth."""
        return {}

    def max_domain_diameter(self) -> Scalar:
        """The largest band domain diameter (a range has its domain's)."""
        return max((b.domain.diameter() for b in self.bands), default=ZERO)


class ValenceStratification:
    """Piecewise-constant band valence v(x) = #{a in A+- : x in dom(a)},
    read off one `forest.coverage` sweep over the domains.

    The sweep cuts each cell at every domain span end, so v is constant on
    each open piece between two ends, and at an end v is never below the
    cover on either side of it.  Kept: the ends and piece covers of each
    cell, and each end whose v exceeds the cover on both sides (a peak),
    with its v and the number of distinct band names holding it; every
    other end lies in a piece of its own valence.  A stratum K^{>=i} is
    built in canonical form: cell by cell in edge order, each run of pieces
    of cover >= i is one interval.
    """

    def __init__(self, system: BandSystem):
        self.forest = system.forest
        self.support = system.support
        bands = system.bands  # A+- has the domains and ranges of its bands
        self._pieces = []
        self._peaks = []
        for cell, (ends, held, cover) in sorted(coverage(
                [b.domain for b in bands] + [b.range for b in bands],
                [b.name for b in bands] * 2).items()):
            self._pieces.append((cell, ends, cover))
            # cover[-1], after the last end, is 0 as before the first one
            self._peaks.extend((cell, x, len(h), len(set(h)))
                               for k, (x, h) in enumerate(zip(ends, held))
                               if len(h) > max(cover[k - 1], cover[k]))

    def stratum_ge(self, i: int) -> Subforest:
        """K^{>=i} as an exact subforest of the host; K^{>=0} is the
        support, which holds every domain."""
        if i <= 0:
            return self.support
        return self._closure(i, [(c, x) for c, x, v, _ in self._peaks if v >= i])

    def overlap(self) -> Subforest:
        """K^{>=2} without its isolated points that one band name holds,
        that is the points where only a band and its inverse meet."""
        return self._closure(2, [(c, x) for c, x, _, n in self._peaks if n >= 2])

    def _closure(self, i: int, points: list[tuple[str, Scalar]]) -> Subforest:
        """The pieces of cover >= i, closed, and the given points."""
        intervals = {}
        for c, ends, cover in self._pieces:
            lo = [x for k, x in enumerate(ends) if cover[k] >= i > cover[k - 1]]
            if lo:
                intervals[c] = tuple(zip(lo, [x for k, x in enumerate(ends)
                                              if cover[k - 1] >= i > cover[k]]))
        return Subforest._canonical(self.forest, intervals,
                                    frozenset(self.forest.cell_point(c, x) for c, x in points))

    def vol_ge(self, i: int) -> Scalar:
        return self.stratum_ge(i).volume()


def band_from_markers(host: MetricForest, name: str,
                      correspondence: Sequence[tuple[Point, Point]]) -> PartialIsometry:
    """The band given by its markers: its domain and range are the hulls
    of the markers and of their images.  Raises ValidationError when the
    markers do not define an isometry."""
    band = PartialIsometry(name, host.hull([p for p, _ in correspondence]),
                           host.hull([q for _, q in correspondence]),
                           tuple(correspondence))
    problems = band.validate()
    if problems:
        raise ValidationError(problems)
    return band
