"""Finite simplicial metric forests with exact edge lengths.

A :class:`MetricForest` is a finite disjoint union of finite simplicial
metric trees (isolated vertices allowed).  Points are addressed either at
a vertex or at an exact offset along an edge; closed subsets that are
finite unions of subtrees are represented canonically by
:class:`Subforest` (per-edge closed intervals plus isolated points), so
set equality -- the Rips halting test -- is representation equality.
Components, membership, germs, the closed-span view that the charts of
other modules read (`Subforest.spans`, `from_spans`) and the two sweeps
over it, of covers (`coverage`) and of meeting pairs (`meetings`), are
all derived from that form here.  Outside this module only the Rips step's
locator (`rips._locator`), `whitehead._scan`, `fileformat.serialize_system`
and `isometry.ValenceStratification`, which builds its sets through
`Subforest._canonical`, read it.  `MetricForest.arc` is the one walk of a
tree: it climbs from both ends to where they meet and gives the arc as a
chart of `isometry` from arc length, and distances, points on an arc,
germs, hulls and the marker charts all come from it.

Every order is decided by comparing two values, which reads their
cached enclosures, never by building their difference to read its sign.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .scalar import ZERO, Scalar, ScalarLike, total

_NO_VERTICES: frozenset[str] = frozenset()
_START = operator.itemgetter(0)
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

    def __str__(self) -> str:
        """The exact text of the point, as `fileformat.parse_point` reads
        it: the vertex name, or ``edge:offset``."""
        return self.vertex if self.is_vertex else f"{self.edge}:{self.offset!r}"

    def __repr__(self) -> str:
        return f"P({self})"


@dataclass(frozen=True)
class Direction:
    """A germ at a point: the edge-end leaving `base` along `edge`,
    toward increasing (+1) or decreasing (-1) offsets."""

    base: Point
    edge: str
    toward: int

    def __str__(self) -> str:
        """``edge:+`` or ``edge:-``; the base point is not part of it."""
        return f"{self.edge}:{'+' if self.toward == 1 else '-'}"


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

    # -- distances and arcs -----------------------------------------------

    def distance(self, p: Point, q: Point) -> Scalar:
        arc = self.arc(p, q)
        return arc[-1][1] if arc else ZERO

    def arc(self, p: Point, q: Point) -> list[tuple[Scalar, Scalar, str, bool, Scalar]]:
        """The arc [p, q] as a chart from arc length s from p: pieces (s0,
        s1, edge, flip, t), end to end from 0 to the distance, each putting s
        in [s0, s1] at offset s + t of the edge, or at t - s if flip.  It is
        the forest's one walk: up the parents from the origins of p's and
        q's cells, deeper end first, until the two ends meet, with a first
        or last step along p's or q's own edge cut at that point.  Raises
        DifferentComponents when p and q lie in different trees."""
        if self.component_of(p) != self.component_of(q):
            raise DifferentComponents("points lie in different trees")
        if not p.is_vertex and not q.is_vertex and p.edge == q.edge:
            return [(ZERO, abs(q.offset - p.offset), p.edge, q.offset < p.offset, p.offset)]
        u = p.vertex if p.is_vertex else self._edge[p.edge].u
        v = q.vertex if q.is_vertex else self._edge[q.edge].u
        head, tail = [], []  # steps (edge, from, to) away from u, and into v
        while u != v:
            if self._depth[u] >= self._depth[v]:
                w, e = self._parent[u]
                head.append((e.id, ZERO, e.length) if u == e.u else (e.id, e.length, ZERO))
                u = w
            else:
                w, e = self._parent[v]
                tail.append((e.id, ZERO, e.length) if w == e.u else (e.id, e.length, ZERO))
                v = w
        steps = head + tail[::-1]
        if not p.is_vertex:  # p's edge, to its end v if the walk leaves by it, else to u
            if steps and steps[0][0] == p.edge:
                steps[0] = (p.edge, p.offset, steps[0][2])
            else:
                steps.insert(0, (p.edge, p.offset, ZERO))
        if not q.is_vertex:  # q's edge, from its end v if the walk enters by it, else from u
            if steps and steps[-1][0] == q.edge:
                steps[-1] = (q.edge, steps[-1][1], q.offset)
            else:
                steps.append((q.edge, ZERO, q.offset))
        out = []
        s = ZERO
        for e, f, ft in steps:
            flip = ft < f
            s1 = s + (f - ft if flip else ft - f)
            out.append((s, s1, e, flip, f + s if flip else f - s))
            s = s1
        return out

    def point_at(self, p: Point, q: Point, dist: Scalar) -> Point:
        """The point on the arc [p, q] at exact distance `dist` from p."""
        if dist.sign() >= 0:
            for _, s1, e, flip, t in self.arc(p, q):
                if dist <= s1:
                    return self.point(e, t - dist if flip else dist + t)
            if dist.sign() == 0:  # p == q
                return q
        raise ForestError("distance outside the arc")

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
        if p == q:
            raise ForestError("no direction from a point to itself")
        _, _, e, flip, _ = self.arc(p, q)[0]
        return Direction(p, e, -1 if flip else 1)

    # -- sets -------------------------------------------------------------

    def segment(self, p: Point, q: Point) -> "Subforest":
        return self.hull((p, q))

    def hull(self, points: Sequence[Point]) -> "Subforest":
        """Convex hull of finitely many points of one tree: the first point
        and the arcs from it to the others."""
        if not points:
            return Subforest.empty(self)
        cell, x = self.addresses(points[0])[0]
        spans = [(cell, x, x)]
        for q in points[1:]:
            spans += [(e, t - s1, t - s0) if flip else (e, s0 + t, s1 + t)
                      for s0, s1, e, flip, t in self.arc(points[0], q)]
        return Subforest.from_spans(self, spans)

    def whole(self) -> "Subforest":
        intervals = {e.id: [(ZERO, e.length)] for e in self.edges}
        lone = [Point(vertex=v) for v in self.vertices if not self._adj[v]]
        return Subforest(self, intervals, frozenset(lone))

    # -- value semantics --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, MetricForest)
                and self.vertices == other.vertices and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"MetricForest({len(self.vertices)} vertices, {len(self.edges)} edges)"


class Subforest:
    """A closed finite union of subtrees of a host forest, canonical form.

    Stored as maximal disjoint closed intervals per edge, sorted, plus
    isolated points not covered by any interval.  Degenerate (single
    point) components are first-class.  Only an edge's first interval
    can reach its origin vertex, and only its last one its far vertex.
    """

    __slots__ = ("host", "intervals", "points", "_hash", "_vertices", "_diameter", "_spans")

    def __init__(self, host: MetricForest,
                 intervals: dict[str, Iterable[tuple[Scalar, Scalar]]],
                 points: frozenset[Point] = frozenset()):
        canon: dict[str, tuple[tuple[Scalar, Scalar], ...]] = {}
        for eid in sorted(intervals):
            merged = _merge(list(intervals[eid]))
            if merged:
                canon[eid] = tuple(merged)
        self._set(host, canon, points)

    @classmethod
    def _canonical(cls, host: MetricForest,
                   intervals: dict[str, tuple[tuple[Scalar, Scalar], ...]],
                   points: frozenset[Point] = frozenset()) -> "Subforest":
        """The set of intervals already in canonical form (nonempty tuples
        of maximal sorted disjoint intervals, keyed in edge order) and of
        the points that no interval covers."""
        self = cls.__new__(cls)
        self._set(host, intervals, points)
        return self

    def _set(self, host, intervals, points) -> None:
        self.host = host
        self.intervals = intervals
        self.points = frozenset(p for p in points if self.interval_at(p) is None)
        self._hash = self._vertices = self._diameter = self._spans = None

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
        ivs = [iv for v in self.intervals.values() for iv in v]
        return total(map(_END, ivs), map(_START, ivs))

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

    def spans(self) -> tuple[tuple[str, Scalar, Scalar], ...]:
        """The closed spans (cell, lo, hi) covering the set: its intervals,
        then each lone point and vertex of it as (x, x) on every edge at it
        that no interval reaches.  Two sets meet iff two of their spans on
        one cell do.  Kept, as a tuple that no reader can change."""
        if self._spans is None:
            out = [(eid, lo, hi) for eid, ivs in self.intervals.items() for lo, hi in ivs]
            for p in [Point(vertex=v) for v in self.interval_vertices()] + list(self.points):
                out += [(c, x, x) for c, x in self.host.addresses(p)
                        if _interval_at(self.intervals.get(c, ()), x) is None]
            self._spans = tuple(out)
        return self._spans

    # -- set algebra ------------------------------------------------------

    def intersect(self, other: "Subforest") -> "Subforest":
        """Set intersection: on each shared edge, each interval of the
        shorter list is bisected into the longer one, at output cost.

        Besides the overlap intervals, the result keeps the isolated
        points of the intersection: same-edge touch points, vertices
        reached by both operands, and each operand's isolated points that
        the other contains, less those that the overlap intervals cover.
        The pieces come out sorted and disjoint, and no two touch, as no
        two intervals of one operand do: they are the canonical form.
        """
        intervals: dict[str, tuple[tuple[Scalar, Scalar], ...]] = {}
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
                intervals[eid] = tuple(pieces)
        shared = self.interval_vertices() & other.interval_vertices()
        extra.update(Point(vertex=v) for v in shared)
        return Subforest._canonical(self.host, intervals, frozenset(extra))

    def union(self, *others: "Subforest") -> "Subforest":
        intervals: dict[str, list[tuple[Scalar, Scalar]]] = {}
        for src in (self, *others):
            for eid, ivs in src.intervals.items():
                intervals.setdefault(eid, []).extend(ivs)
        return Subforest(self.host, intervals,
                         self.points.union(*(o.points for o in others)))

    # -- structure --------------------------------------------------------

    def components(self) -> list["Subforest"]:
        """Connected components, canonically ordered, as `component_index`
        groups the pieces.  Each component's intervals are a subsequence
        of this set's, so they are in canonical form already; one interval
        alone is the set."""
        if not self.points and [len(ivs) for ivs in self.intervals.values()] == [1]:
            return [self]
        out: list[tuple[dict[str, list], set]] = []
        for piece, n in self.component_index().items():
            if n == len(out):
                out.append(({}, set()))
            if isinstance(piece, Point):
                out[n][1].add(piece)
            else:
                out[n][0].setdefault(piece[0], []).append(piece[1])
        return [Subforest._canonical(self.host, {eid: tuple(v) for eid, v in ivs.items()},
                                     frozenset(pts)) for ivs, pts in out]

    def component_index(self) -> dict:
        """The position in `components()` of the component holding each
        stored interval (edge, interval) and each lone point, keyed in that
        order: intervals are joined through the vertices they reach, each
        lone point is one component, and components are ordered by the exact
        key of their least interval start or point (an interval starting at
        offset 0 keys as an edge point, not a vertex)."""
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
        groups: dict[tuple[str, int], list] = {}
        for eid, ivs in self.intervals.items():
            for k, iv in enumerate(ivs):
                groups.setdefault(find((eid, k)), []).append((eid, iv))
        keyed = [(min((1, eid, iv[0]) for eid, iv in g), g) for g in groups.values()]
        keyed.extend((point_key(p), [p]) for p in self.points)
        keyed.sort(key=_START)
        return {piece: n for n, (_, g) in enumerate(keyed) for piece in g}

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
        """Max distance between extremal points (0 for points/empty), kept."""
        if self._diameter is None:
            ivs = [iv for v in self.intervals.values() for iv in v]
            if len(ivs) == 1 and not self.points:
                self._diameter = ivs[0][1] - ivs[0][0]
            else:
                host, ext = self.host, self.extremal_points()
                self._diameter = max((host.distance(p, q) for i, p in enumerate(ext)
                                      for q in ext[i + 1:]
                                      if host.component_of(p) == host.component_of(q)),
                                     default=ZERO)
        return self._diameter

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

    def __str__(self) -> str:
        """Exact text: each interval as ``edge[lo,hi]`` in edge order, then
        each isolated point as ``point <point>`` in point_key order."""
        parts = [f"{eid}[{lo!r},{hi!r}]" for eid in sorted(self.intervals)
                 for lo, hi in self.intervals[eid]]
        parts += [f"point {p}" for p in sorted(self.points, key=point_key)]
        return " ".join(parts) or "(empty)"

    def __repr__(self) -> str:
        return f"Subforest({self})"


def coverage(sets: Sequence[Subforest], keys: Sequence
             ) -> dict[str, tuple[list[Scalar], list[list], list[int]]]:
    """One sorted sweep over the closed spans (`Subforest.spans`) of the
    sets on each cell.  Per cell: the distinct span ends in ascending
    order; the keys of the sets holding each end, in the order of the
    sets; and the number of sets covering the open piece after each end
    (0 after the last one).  A set lists a vertex it holds on every edge
    at it, so every cell through a vertex sees all the sets holding it."""
    rows: dict[str, list] = {}
    for s, key in zip(sets, keys):
        for cell, lo, hi in s.spans():
            rows.setdefault(cell, []).append((lo, hi, key))
    out = {}
    for cell, row in rows.items():
        ends = sorted({x for lo, hi, _ in row for x in (lo, hi)})
        index = {x: k for k, x in enumerate(ends)}
        held: list[list] = [[] for _ in ends]
        cover = [0] * len(ends)
        for lo, hi, key in row:
            i, j = index[lo], index[hi]
            for k in range(i, j):
                held[k].append(key)
                cover[k] += 1
            held[j].append(key)
        out[cell] = (ends, held, cover)
    return out


def meetings(host: MetricForest, sets: Sequence[Sequence[tuple[str, Scalar, Scalar]]],
             keys: Sequence) -> dict[tuple[int, int], list[tuple[str, Scalar, Scalar]]]:
    """The index pairs i < j of the sets, each given by closed spans
    (cell, lo, hi), that meet and whose keys differ, with the spans of
    their intersection.  A span end at a vertex is also listed as (x, x)
    on every other edge at it, as `Subforest.spans` lists a vertex, so
    two sets meet exactly when two of their spans on one cell do.  One
    sweep per cell in order of span starts pairs each span with the
    earlier ones not yet ended, at output cost (Shamos and Hoey 1976)."""
    # per edge: (1 for a span's lo or 2 for its hi, the offset of the vertex
    # there, the vertex's addresses on the other edges at it)
    fans: dict[str, list] = {}
    for e in host.edges:
        for k, (x, v) in enumerate(((ZERO, e.u), (e.length, e.v)), start=1):
            others = [a for a in host.addresses(Point(vertex=v)) if a[0] != e.id]
            if others:
                fans.setdefault(e.id, []).append((k, x, others))
    rows: dict[str, list] = {}
    for i, spans in enumerate(sets):
        for span in spans:
            cell, lo, hi = span
            rows.setdefault(cell, []).append((lo, hi, i))
            for k, x, others in fans.get(cell, ()):
                if span[k] == x:
                    for c, z in others:
                        rows.setdefault(c, []).append((z, z, i))
    out: dict[tuple[int, int], list] = {}
    for cell, row in rows.items():
        row.sort(key=_START)
        live: list[tuple[Scalar, int]] = []
        for lo, hi, i in row:
            still = []
            for end, j in live:
                if end >= lo:
                    still.append((end, j))
                    if keys[j] != keys[i]:
                        out.setdefault((j, i) if j < i else (i, j), []).append(
                            (cell, lo, hi if hi <= end else end))
            still.append((hi, i))
            live = still
    return out


def point_key(p: Point):
    """Exact sort key of a point: vertices by name, then edge points by
    edge and exact offset."""
    if p.is_vertex:
        return (0, p.vertex)
    return (1, p.edge, p.offset)


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
