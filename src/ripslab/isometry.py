"""Partial isometries between compact subtrees, and band systems.

A partial isometry is stored by a finite marker correspondence (domain
point -> range point) rather than by a formula: the markers include every
extremal point of the domain, which pins the map on the whole subtree and
survives refinement and restriction.  A band system couples a host forest
with finitely many positively-labeled bands; inverses are derived, so the
label set and its inverses never collide.  Its valence stratification is
computed once, on first use, and kept on the system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .forest import MetricForest, Point, Subforest, sorted_unique
from .scalar import NumberField, Scalar


class IsometryError(Exception):
    pass


class OutOfDomain(IsometryError):
    pass


class ValidationError(IsometryError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class PartialIsometry:
    """An isometry from one compact subtree of the host onto another."""

    name: str
    domain: Subforest
    range: Subforest
    correspondence: tuple[tuple[Point, Point], ...]
    inverted: bool = False

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
            not self.inverted)

    def apply(self, p: Point) -> Point:
        if not self.domain.contains(p):
            raise OutOfDomain(f"point {p!r} outside dom({self.label})")
        host = self.host
        for m, img in self.correspondence:
            if m == p:
                return img
        for i, (mi, ii) in enumerate(self.correspondence):
            for mj, ij in self.correspondence[i + 1:]:
                dip = host.distance(mi, p)
                dpj = host.distance(p, mj)
                if dip + dpj == host.distance(mi, mj):
                    return host.point_at(ii, ij, dip)
        raise OutOfDomain(f"markers of {self.label} do not span {p!r}")

    def image_of(self, s: Subforest) -> Subforest:
        """Exact image of a subtree s (a subset of the domain)."""
        if s.is_empty:
            return Subforest.empty(self.host)
        ext = s.extremal_points()
        return self.host.hull([self.apply(p) for p in ext])

    def restrict(self, d: Subforest) -> "PartialIsometry | None":
        """Maximal restriction of the map to domain `intersect` d."""
        nd = self.domain.intersect(d)
        if nd.is_empty:
            return None
        if nd == self.domain:
            return self
        markers = nd.extremal_points()
        corr = tuple((m, self.apply(m)) for m in markers)
        nr = self.host.hull([img for _, img in corr])
        return PartialIsometry(self.name, nd, nr, corr, self.inverted)

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
        from .scalar import rational

        best = rational(0)
        for b in self.bands:
            for s in (b.domain, b.range):
                d = s.diameter()
                if d > best:
                    best = d
        return best

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
