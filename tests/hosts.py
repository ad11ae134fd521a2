"""Helpers that only the tests read, over the library's forests, subforests
and band systems: a refinement of a host forest that subdivides edges at
given marks, with the map of addresses onto it, a subforest's single-point
test, and a band system's summary numbers."""

from __future__ import annotations

from typing import Sequence

from ripslab.forest import Edge, ForestError, MetricForest, Point, Subforest
from ripslab.isometry import BandSystem
from ripslab.scalar import ZERO, Scalar


def refine(forest: MetricForest, marks: Sequence[Point]) -> tuple[MetricForest, Relabeling]:
    """Subdivide edges so that every mark is a vertex of the result."""
    by_edge: dict[str, list[Scalar]] = {}
    for m in marks:
        if not m.is_vertex:
            by_edge.setdefault(m.edge, []).append(m.offset)
    vertices = list(forest.vertices)
    edges: list[Edge] = []
    edge_map: dict[str, list[tuple[Scalar, Scalar, str]]] = {}
    for e in forest.edges:
        cuts = sorted(set(by_edge.get(e.id, ())))
        if not cuts:
            edges.append(e)
            edge_map[e.id] = [(ZERO, e.length, e.id)]
            continue
        bounds = [ZERO] + cuts + [e.length]
        names = [e.u]
        for k in range(1, len(bounds) - 1):
            names.append(f"{e.id}_m{k}")
            vertices.append(f"{e.id}_m{k}")
        names.append(e.v)
        segs = []
        for k in range(len(bounds) - 1):
            nid = f"{e.id}_s{k}"
            edges.append(Edge(nid, names[k], names[k + 1],
                              bounds[k + 1] - bounds[k]))
            segs.append((bounds[k], bounds[k + 1], nid))
        edge_map[e.id] = segs
    refined = MetricForest(vertices, edges)
    return refined, Relabeling(forest, refined, edge_map)


class Relabeling:
    """Maps addresses on a forest to addresses on its refinement."""

    def __init__(self, old: MetricForest, new: MetricForest,
                 edge_map: dict[str, list[tuple[Scalar, Scalar, str]]]):
        self.old = old
        self.new = new
        self._edge_map = edge_map

    def point(self, p: Point) -> Point:
        if p.is_vertex:
            return p
        for lo, hi, nid in self._edge_map[p.edge]:
            if lo <= p.offset <= hi:
                return self.new.point(nid, p.offset - lo)
        raise ForestError("point outside mapped edge")

    def subforest(self, s: Subforest) -> Subforest:
        intervals: dict[str, list[tuple[Scalar, Scalar]]] = {}
        for eid, ivs in s.intervals.items():
            for lo, hi in ivs:
                for slo, shi, nid in self._edge_map[eid]:
                    a, b = max(lo, slo), min(hi, shi)
                    if a < b:
                        intervals.setdefault(nid, []).append((a - slo, b - slo))
        pts = frozenset(self.point(p) for p in s.points)
        return Subforest(self.new, intervals, pts)


def is_point(s: Subforest) -> bool:
    return not s.intervals and len(s.points) == 1


def summary(system: BandSystem) -> dict:
    return {
        "volume": system.support.volume(),
        "bands": len(system.bands),
        "components": len(system.support.components()),
        "max_diameter": system.max_domain_diameter(),
    }
