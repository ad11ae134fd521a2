"""Finite simplicial metric forests with exact edge lengths.

A :class:`MetricForest` is a finite disjoint union of finite simplicial
metric trees (isolated vertices allowed).  Points are addressed either at
a vertex or at an exact offset along an edge; closed subsets that are
finite unions of subtrees are represented canonically by
:class:`Subforest` (per-edge closed intervals plus isolated points), so
set equality -- the Rips halting test -- is representation equality.
This module alone reads that form: components, membership, germs and
the closed-span view (`Subforest.spans`, `from_spans`) that the charts
of other modules read are all derived from it here.  Every order is decided by comparing two values, which reads their cached
enclosures, never by building their difference to read its sign.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .scalar import Scalar, ScalarLike, rational

ZERO = rational(0)
_NO_VERTICES: frozenset[str] = frozenset()
_END = operator.itemgetter(1)


def _reaching(ivs: Sequence[tuple[Scalar, Scalar]], x: Scalar) -> int:
    """Index of the first of the sorted disjoint closed intervals ivs
    whose end is >= x: the one holding x, if any holds it."""
    return bisect.bisect_left(ivs, x, key=_END)


def _interval_at(ivs: Sequence[tuple[Scalar, Scalar]], x: Scalar):
    """The interval of the sorted disjoint closed intervals ivs holding x,
    or None."""
    j = _reaching(ivs, x)
    return ivs[j] if j < len(ivs) and ivs[j][0] <= x else None


class ForestError(Exception):
    pass


class DifferentComponents(ForestError):
    """The two points do not lie in the same tree of the forest."""


def _scal(x: ScalarLike) -> Scalar:
    return x if isinstance(x, Scalar) else Scalar._coerce(x)


@dataclass(frozen=True)
class Edge:
    id: str
    u: str
    v: str
    length: Scalar


@dataclass(frozen=True)
class Point:
    """Address on a forest: a vertex, or an exact offset along an edge.

    Offsets equal to 0 or to the full edge length are canonicalized to the
    corresponding vertex by MetricForest.point().
    """

    vertex: str | None = None
    edge: str | None = None
    offset: Scalar | None = None

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def __repr__(self) -> str:
        if self.is_vertex:
            return f"P({self.vertex})"
        return f"P({self.edge}:{self.offset!r})"


@dataclass(frozen=True)
class Direction:
    """A germ at a point: the edge-end leaving `base` along `edge`,
    toward increasing (+1) or decreasing (-1) offsets."""

    base: Point
    edge: str
    toward: int


class MetricForest:
    """Immutable simplicial metric forest."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge]):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        if len(set(self.vertices)) != len(self.vertices):
            raise ForestError("duplicate vertex id")
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise ForestError("duplicate edge id")
        if set(ids) & set(self.vertices):
            raise ForestError("edge id collides with vertex id")
        self._edge = {e.id: e for e in self.edges}
        vset = set(self.vertices)
        self._adj: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.u not in vset or e.v not in vset:
                raise ForestError(f"edge {e.id} references unknown vertex")
            if e.u == e.v:
                raise ForestError(f"edge {e.id} is a loop")
            if e.length.sign() <= 0:
                raise ForestError(f"edge {e.id} must have positive length")
            self._adj[e.u].append(e)
            self._adj[e.v].append(e)
        self._index_components()

    def _index_components(self) -> None:
        self._component: dict[str, int] = {}
        self._parent: dict[str, tuple[str, Edge] | None] = {}
        self._depth: dict[str, int] = {}
        comp = 0
        for root in self.vertices:
            if root in self._component:
                continue
            stack = [root]
            self._component[root] = comp
            self._parent[root] = None
            self._depth[root] = 0
            while stack:
                cur = stack.pop()
                for e in self._adj[cur]:
                    nxt = e.v if e.u == cur else e.u
                    if nxt in self._component:
                        if self._parent[cur] is None or self._parent[cur][1].id != e.id:
                            raise ForestError("forest contains a cycle")
                        continue
                    self._component[nxt] = comp
                    self._parent[nxt] = (cur, e)
                    self._depth[nxt] = self._depth[cur] + 1
                    stack.append(nxt)
            comp += 1
        self.n_components = comp

    # -- points -----------------------------------------------------------

    def edge_of(self, edge_id: str) -> Edge:
        return self._edge[edge_id]

    def has_edge(self, edge_id: str) -> bool:
        return edge_id in self._edge

    def vertex_point(self, v: str) -> Point:
        if v not in self._component:
            raise ForestError(f"unknown vertex {v}")
        return Point(vertex=v)

    def point(self, edge_id: str, offset: ScalarLike) -> Point:
        """Canonical point at `offset` from the origin endpoint of the edge."""
        e = self._edge[edge_id]
        off = _scal(offset)
        s = off.sign()
        if s < 0 or off > e.length:
            raise ForestError(f"offset outside edge {edge_id}")
        if s == 0:
            return Point(vertex=e.u)
        if off == e.length:
            return Point(vertex=e.v)
        return Point(edge=edge_id, offset=off)

    def cell_point(self, cell: str, x: Scalar) -> Point:
        """The point at offset x of a cell: an edge, or a vertex no edge
        meets (at offset 0)."""
        return self.point(cell, x) if cell in self._edge else Point(vertex=cell)

    def addresses(self, p: Point) -> list[tuple[str, Scalar]]:
        """(edge, offset) of p on each edge holding it; a vertex no edge
        meets is its own cell, at offset 0."""
        if not p.is_vertex:
            return [(p.edge, p.offset)]
        return [(e.id, ZERO if e.u == p.vertex else e.length)
                for e in self._adj[p.vertex]] or [(p.vertex, ZERO)]

    def component_of(self, p: Point) -> int:
        if p.is_vertex:
            return self._component[p.vertex]
        return self._component[self._edge[p.edge].u]

    # -- distances and paths ----------------------------------------------

    def _lca(self, u: str, v: str) -> str:
        while self._depth[u] > self._depth[v]:
            u = self._parent[u][0]
        while self._depth[v] > self._depth[u]:
            v = self._parent[v][0]
        while u != v:
            u = self._parent[u][0]
            v = self._parent[v][0]
        return u

    def _vertex_path(self, u: str, v: str) -> list[tuple[str, Edge, str]]:
        """Oriented edge steps (from_vertex, edge, to_vertex) from u to v."""
        lca = self._lca(u, v)
        up = []
        cur = u
        while cur != lca:
            parent, e = self._parent[cur]
            up.append((cur, e, parent))
            cur = parent
        down = []
        cur = v
        while cur != lca:
            parent, e = self._parent[cur]
            down.append((parent, e, cur))
            cur = parent
        return up + list(reversed(down))

    def distance(self, p: Point, q: Point) -> Scalar:
        if self.component_of(p) != self.component_of(q):
            raise DifferentComponents("points lie in different trees")
        return self.path(p, q)[0]

    def _origin(self, p: Point) -> str:
        return p.vertex if p.is_vertex else self._edge[p.edge].u

    def path(self, p: Point, q: Point) -> tuple[Scalar, list[tuple[str, Scalar, Scalar]]]:
        """Exact distance and traversal pieces (edge_id, from_off, to_off):
        the vertex path between the origins of p's and q's cells, with a
        first or last step along p's or q's own edge cut at that point."""
        if (not p.is_vertex and not q.is_vertex and p.edge == q.edge):
            return abs(q.offset - p.offset), [(p.edge, p.offset, q.offset)]
        pieces: list[tuple[str, Scalar, Scalar]] = []
        total = ZERO
        for fv, e, _ in self._vertex_path(self._origin(p), self._origin(q)):
            pieces.append((e.id, ZERO, e.length) if fv == e.u else (e.id, e.length, ZERO))
            total = total + e.length
        if not p.is_vertex:
            if pieces and pieces[0][0] == p.edge:  # the arc leaves p's edge at its end v
                pieces[0] = (p.edge, p.offset, pieces[0][2])
                total = total - p.offset
            else:
                pieces.insert(0, (p.edge, p.offset, ZERO))
                total = total + p.offset
        if not q.is_vertex:
            if pieces and pieces[-1][0] == q.edge:  # the arc enters q's edge at its end v
                pieces[-1] = (q.edge, pieces[-1][1], q.offset)
                total = total - q.offset
            else:
                pieces.append((q.edge, ZERO, q.offset))
                total = total + q.offset
        return total, pieces

    def point_at(self, p: Point, q: Point, dist: Scalar) -> Point:
        """The point on the arc [p, q] at exact distance `dist` from p."""
        total, pieces = self.path(p, q)
        if dist.sign() < 0 or dist > total:
            raise ForestError("distance outside the arc")
        acc = ZERO
        for eid, f, t in pieces:
            seg = abs(t - f)
            if acc + seg >= dist:
                rem = dist - acc
                off = f + rem if t > f else f - rem
                return self.point(eid, off)
            acc = acc + seg
        return q

    # -- directions -------------------------------------------------------

    def directions_at(self, p: Point) -> list[Direction]:
        if not p.is_vertex:
            return [Direction(p, p.edge, 1), Direction(p, p.edge, -1)]
        out = []
        for e in sorted(self._adj[p.vertex], key=lambda e: e.id):
            out.append(Direction(p, e.id, 1 if e.u == p.vertex else -1))
        return out

    def direction_towards(self, p: Point, q: Point) -> Direction:
        """The germ at p of the arc [p, q]; requires p != q."""
        _, pieces = self.path(p, q)
        if not pieces:
            raise ForestError("no direction from a point to itself")
        eid, f, t = pieces[0]
        return Direction(p, eid, 1 if t > f else -1)

    # -- sets -------------------------------------------------------------

    def segment(self, p: Point, q: Point) -> "Subforest":
        if self.component_of(p) != self.component_of(q):
            raise DifferentComponents("points lie in different trees")
        if p == q:
            return Subforest(self, {}, frozenset([p]))
        _, pieces = self.path(p, q)
        intervals: dict[str, list[tuple[Scalar, Scalar]]] = {}
        for eid, f, t in pieces:
            lo, hi = (f, t) if t > f else (t, f)
            intervals.setdefault(eid, []).append((lo, hi))
        return Subforest(self, intervals, frozenset())

    def hull(self, points: Sequence[Point]) -> "Subforest":
        """Convex hull of finitely many points of one component."""
        pts = list(points)
        if not pts:
            return Subforest.empty(self)
        comp = self.component_of(pts[0])
        for p in pts[1:]:
            if self.component_of(p) != comp:
                raise DifferentComponents("hull generators span components")
        out = Subforest(self, {}, frozenset([pts[0]]))
        for p in pts[1:]:
            out = out.union(self.segment(pts[0], p))
        return out

    def whole(self) -> "Subforest":
        intervals = {e.id: [(ZERO, e.length)] for e in self.edges}
        lone = [Point(vertex=v) for v in self.vertices if not self._adj[v]]
        return Subforest(self, intervals, frozenset(lone))

    # -- refinement -------------------------------------------------------

    def refine(self, marks: Sequence[Point]) -> tuple["MetricForest", "Relabeling"]:
        """Subdivide edges so that every mark is a vertex of the result."""
        by_edge: dict[str, list[Scalar]] = {}
        for m in marks:
            if not m.is_vertex:
                by_edge.setdefault(m.edge, []).append(m.offset)
        vertices = list(self.vertices)
        edges: list[Edge] = []
        edge_map: dict[str, list[tuple[Scalar, Scalar, str]]] = {}
        for e in self.edges:
            cuts = sorted_unique(by_edge.get(e.id, []))
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
        return refined, Relabeling(self, refined, edge_map)

    # -- value semantics --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, MetricForest)
                and self.vertices == other.vertices and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"MetricForest({len(self.vertices)} vertices, {len(self.edges)} edges)"


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

    def subforest(self, s: "Subforest") -> "Subforest":
        intervals: dict[str, list[tuple[Scalar, Scalar]]] = {}
        for eid, ivs in s.intervals.items():
            for lo, hi in ivs:
                for slo, shi, nid in self._edge_map[eid]:
                    a, b = max(lo, slo), min(hi, shi)
                    if a < b:
                        intervals.setdefault(nid, []).append((a - slo, b - slo))
        pts = frozenset(self.point(p) for p in s.points)
        return Subforest(self.new, intervals, pts)


class Subforest:
    """A closed finite union of subtrees of a host forest, canonical form.

    Stored as maximal disjoint closed intervals per edge, sorted, plus
    isolated points not covered by any interval.  Degenerate (single
    point) components are first-class.  Only an edge's first interval
    can reach its origin vertex, and only its last one its far vertex.
    """

    __slots__ = ("host", "intervals", "points", "_hash", "_vertices")

    def __init__(self, host: MetricForest,
                 intervals: dict[str, Iterable[tuple[Scalar, Scalar]]],
                 points: frozenset[Point] = frozenset()):
        self.host = host
        canon: dict[str, tuple[tuple[Scalar, Scalar], ...]] = {}
        for eid in sorted(intervals):
            merged = _merge(list(intervals[eid]))
            if merged:
                canon[eid] = tuple(merged)
        self.intervals = canon
        self.points = frozenset(p for p in points if self.interval_at(p) is None)
        self._hash = self._vertices = None

    @classmethod
    def empty(cls, host: MetricForest) -> "Subforest":
        return cls(host, {}, frozenset())

    @classmethod
    def from_spans(cls, host: MetricForest,
                   spans: Iterable[tuple[str, Scalar, Scalar]]) -> "Subforest":
        """The set covered by closed spans (cell, lo, hi)."""
        intervals: dict[str, list[tuple[Scalar, Scalar]]] = {}
        points = set()
        for cell, lo, hi in spans:
            if lo == hi:
                points.add(host.cell_point(cell, lo))
            else:
                intervals.setdefault(cell, []).append((lo, hi))
        return cls(host, intervals, frozenset(points))

    # -- membership -------------------------------------------------------

    def interval_at(self, p: Point) -> tuple[str, tuple[Scalar, Scalar]] | None:
        """(edge, interval) of a stored interval holding p, or None."""
        for eid, x in self.host.addresses(p):
            iv = _interval_at(self.intervals.get(eid, ()), x)
            if iv is not None:
                return eid, iv
        return None

    def contains(self, p: Point) -> bool:
        return self.interval_at(p) is not None or p in self.points

    @property
    def is_empty(self) -> bool:
        return not self.intervals and not self.points

    def volume(self) -> Scalar:
        total = ZERO
        for ivs in self.intervals.values():
            for lo, hi in ivs:
                total = total + (hi - lo)
        return total

    def interval_vertices(self) -> frozenset[str]:
        """Vertices reached by an interval end (0 or the edge length), kept."""
        if self._vertices is None:
            self._vertices = frozenset(v for _, _, v in self._vertex_ends()) or _NO_VERTICES
        return self._vertices

    def _vertex_ends(self) -> Iterable[tuple[str, int, str]]:
        """(edge, interval index, vertex) of each interval end at a vertex."""
        for eid, ivs in self.intervals.items():
            e = self.host._edge[eid]
            if ivs[0][0].sign() == 0:
                yield eid, 0, e.u
            if ivs[-1][1] == e.length:
                yield eid, len(ivs) - 1, e.v

    def spans(self) -> list[tuple[str, Scalar, Scalar]]:
        """The closed spans (cell, lo, hi) covering the set: its intervals,
        then each lone point and vertex of it as (x, x) on every edge at it
        that no interval reaches.  Two sets meet iff two of their spans on
        one cell do."""
        out = [(eid, lo, hi) for eid, ivs in self.intervals.items() for lo, hi in ivs]
        for p in [Point(vertex=v) for v in self.interval_vertices()] + list(self.points):
            out += [(c, x, x) for c, x in self.host.addresses(p)
                    if _interval_at(self.intervals.get(c, ()), x) is None]
        return out

    # -- set algebra ------------------------------------------------------

    def intersect(self, other: "Subforest") -> "Subforest":
        """Set intersection: on each shared edge, each interval of the
        shorter list is bisected into the longer one, at output cost.

        Besides the overlap intervals, the result keeps the isolated
        points of the intersection: same-edge touch points, vertices
        reached by both operands, and each operand's isolated points that
        the other contains.  The constructor drops those points that the
        overlap intervals cover.
        """
        intervals: dict[str, list[tuple[Scalar, Scalar]]] = {}
        extra = {p for p in self.points if other.contains(p)}
        extra.update(p for p in other.points if self.contains(p))
        for eid, ivs in self.intervals.items():
            olist = other.intervals.get(eid)
            if not olist:
                continue
            if len(olist) < len(ivs):
                ivs, olist = olist, ivs
            pieces = []
            for lo, hi in ivs:
                j = _reaching(olist, lo)
                while j < len(olist) and olist[j][0] <= hi:
                    olo, ohi = olist[j]
                    a = lo if lo >= olo else olo
                    b = hi if hi <= ohi else ohi
                    if a < b:
                        pieces.append((a, b))
                    else:  # the two intervals touch at one interior point
                        extra.add(Point(edge=eid, offset=a))
                    j += 1
            if pieces:
                intervals[eid] = pieces
        shared = self.interval_vertices() & other.interval_vertices()
        extra.update(Point(vertex=v) for v in shared)
        return Subforest(self.host, intervals, frozenset(extra))

    def union(self, *others: "Subforest") -> "Subforest":
        intervals: dict[str, list[tuple[Scalar, Scalar]]] = {}
        for src in (self, *others):
            for eid, ivs in src.intervals.items():
                intervals.setdefault(eid, []).extend(ivs)
        return Subforest(self.host, intervals,
                         self.points.union(*(o.points for o in others)))

    # -- structure --------------------------------------------------------

    def components(self) -> list["Subforest"]:
        """Connected components, canonically ordered: intervals are joined
        through the vertices they reach, and each isolated point is one."""
        parent: dict[tuple[str, int], tuple[str, int]] = {}

        def find(i):
            while parent.get(i, i) != i:
                i = parent[i]
            return i

        at: dict[str, tuple[str, int]] = {}
        for eid, k, v in self._vertex_ends():
            if v in at:
                parent[find((eid, k))] = find(at[v])
            else:
                at[v] = (eid, k)
        groups: dict[tuple[str, int], dict[str, list]] = {}
        for eid, ivs in self.intervals.items():
            for k, iv in enumerate(ivs):
                groups.setdefault(find((eid, k)), {}).setdefault(eid, []).append(iv)
        out = [Subforest(self.host, ivs) for ivs in groups.values()]
        out.extend(Subforest(self.host, {}, frozenset([p])) for p in self.points)
        out.sort(key=Subforest._sort_key)
        return out

    def _sort_key(self):
        """Exact key of the least interval start or isolated point; an
        interval starting at offset 0 keys as an edge point, not a vertex."""
        keys = [(1, eid, ivs[0][0]) for eid, ivs in self.intervals.items()]
        keys.extend(point_key(p) for p in self.points)
        return min(keys, default=(2,))

    @property
    def is_point(self) -> bool:
        return not self.intervals and len(self.points) == 1

    def end_counts(self) -> dict[Point, int]:
        """Number of interval ends at each point, that is the number of
        germs into the set there (stored intervals are disjoint)."""
        counts: dict[Point, int] = {}
        for eid, ivs in self.intervals.items():
            for lo, hi in ivs:
                for off in (lo, hi):
                    p = self.host.point(eid, off)
                    counts[p] = counts.get(p, 0) + 1
        return counts

    def extremal_points(self) -> list[Point]:
        """Points with at most one germ into the set (leaves of each
        component, plus isolated points), in point_key order."""
        out = [p for p, n in self.end_counts().items() if n == 1]
        out.extend(self.points)
        return sorted(out, key=point_key)

    def germ_directions(self, p: Point) -> list[Direction]:
        """Directions at p pointing into the set with positive overlap."""
        return [d for d in self.host.directions_at(p) if self.extends_in(d)]

    def extends_in(self, d: Direction) -> bool:
        """True if the set contains a nondegenerate segment leaving
        d.base into the germ d."""
        base = d.base
        e = self.host.edge_of(d.edge)
        if base.is_vertex:
            off = ZERO if d.toward == 1 else e.length
        elif base.edge != d.edge:
            return False
        else:
            off = base.offset
        iv = _interval_at(self.intervals.get(d.edge, ()), off)
        return iv is not None and (off < iv[1] if d.toward == 1 else iv[0] < off)

    def diameter(self) -> Scalar:
        """Max distance between extremal points (0 for points/empty)."""
        ivs = [iv for v in self.intervals.values() for iv in v]
        if len(ivs) == 1 and not self.points:
            return ivs[0][1] - ivs[0][0]
        ext = self.extremal_points()
        best = ZERO
        for i in range(len(ext)):
            for j in range(i + 1, len(ext)):
                try:
                    d = self.host.distance(ext[i], ext[j])
                except DifferentComponents:
                    continue
                if d > best:
                    best = d
        return best

    def issubset(self, other: "Subforest") -> bool:
        return self.intersect(other) == self

    # -- value semantics --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subforest)
                and self.intervals == other.intervals
                and self.points == other.points)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((tuple(sorted(self.intervals.items())), self.points))
        return self._hash

    def __repr__(self) -> str:
        parts = []
        for eid, ivs in sorted(self.intervals.items()):
            for lo, hi in ivs:
                parts.append(f"{eid}[{_display(lo)},{_display(hi)}]")
        for p in sorted(self.points, key=point_key):
            parts.append(repr(p))
        return "Subforest(" + " ".join(parts) + ")" if parts else "Subforest(empty)"


def _display(s: Scalar) -> str:
    # repr only: never used to order or decide
    return f"{float(s.to_decimal(12)):.4g}"


def point_key(p: Point):
    """Exact sort key of a point: vertices by name, then edge points by
    edge and exact offset."""
    if p.is_vertex:
        return (0, p.vertex)
    return (1, p.edge, p.offset)


def sorted_unique(xs: Iterable[Scalar]) -> list[Scalar]:
    """The distinct values of xs in ascending exact order."""
    out: list[Scalar] = []
    for x in sorted(xs):
        if not out or out[-1] != x:
            out.append(x)
    return out


def _merge(ivs: list[tuple[Scalar, Scalar]]) -> list[tuple[Scalar, Scalar]]:
    ivs = sorted((iv for iv in ivs if iv[0] < iv[1]),
                 key=lambda iv: iv[0])
    out: list[tuple[Scalar, Scalar]] = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out
