"""Finite-depth directional Whitehead graphs and the T±-pattern.

The directional Whitehead graph at a point x and a germ d collects the
dotted leaf words based at x whose basepoint domain leaves x along d:
these are the depth-limited stand-ins for leaves arising as limits of
leaves based in the direction d.  Two or more edges at some (x, d) is
the combinatorial trigger for the T±-pattern, and a pattern certificate
assembles into an abstract K_{3,3} (one part from the end classes at
the three basepoints, the other from the three star arcs).

All answers are relative to the depth used; a NotFound or a tentative
end identification can be overturned at greater depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .forest import Direction, Point, point_key
from .isometry import BandSystem
from .lamination import LeafWord, dotted_words, leaves_at


class WhiteheadError(Exception):
    pass


class InvalidDirection(WhiteheadError):
    pass


class MalformedCertificate(WhiteheadError):
    pass


@dataclass(frozen=True)
class NotFound:
    """Negative answer of detect_pattern, valid only up to this depth."""

    depth: int

    def __bool__(self) -> bool:
        return False


End = tuple[str, ...]


def _shift_related(u: End, v: End) -> Optional[int]:
    """Smallest shift k with one word a letterwise shift of the other.

    Returns None when unrelated; 0 means literal equality.  A positive
    k only compares the overlap the depth allows, so it is tentative.
    """
    if u == v:
        return 0
    n = min(len(u), len(v))
    for k in range(1, n):
        if u[k:k + n - k] == v[:n - k] or v[k:k + n - k] == u[:n - k]:
            return k
    return None


def _graph(x: Point, d: Direction, depth: int,
           edges: tuple[LeafWord, ...]) -> DirectionalWhiteheadGraph:
    """The graph on these edges, its 2 ends per edge grouped by the
    suffix-shift relation."""
    ends = list(dict.fromkeys(side for leaf in edges
                              for side in (leaf.left, leaf.right)))
    parent = list(range(len(ends)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    tentative = set()
    for i in range(len(ends)):
        for j in range(i + 1, len(ends)):
            k = _shift_related(ends[i], ends[j])
            if k is None:
                continue
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri
            if k > 0:
                tentative.add((ends[i], ends[j]))
    groups: dict[int, list[End]] = {}
    for i, e in enumerate(ends):
        groups.setdefault(find(i), []).append(e)
    classes = tuple(tuple(sorted(g)) for g in
                    sorted(groups.values(), key=lambda g: min(g)))
    return DirectionalWhiteheadGraph(x, d, depth, edges, classes,
                                     frozenset(tentative))


@dataclass(frozen=True)
class DirectionalWhiteheadGraph:
    point: Point
    direction: Direction
    depth: int
    edges: tuple[LeafWord, ...]
    end_classes: tuple[tuple[End, ...], ...]
    tentative: frozenset

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def class_of(self, end: End) -> int:
        for i, cls in enumerate(self.end_classes):
            if end in cls:
                return i
        raise KeyError(end)

    def summary(self) -> str:
        lines = [f"wh at {self.point!r} dir ({self.direction.edge},"
                 f"{self.direction.toward:+d}) depth {self.depth}:"
                 f" {self.edge_count} edge(s), {len(self.end_classes)}"
                 f" end class(es)"]
        for leaf in self.edges:
            lines.append(f"  edge {leaf}")
        return "\n".join(lines)

    def to_dot(self) -> str:
        lines = ["graph directional_whitehead {"]
        for i, cls in enumerate(self.end_classes):
            lines.append(f'  "v{i}" [label="{" ".join(min(cls))}"];')
        for leaf in self.edges:
            u, v = self.class_of(leaf.left), self.class_of(leaf.right)
            lines.append(f'  "v{u}" -- "v{v}" [label="{leaf}"];')
        lines.append("}")
        return "\n".join(lines)


def directional_whitehead(system: BandSystem, x: Point, d: Direction,
                          depth: int) -> DirectionalWhiteheadGraph:
    """Edges: dotted words of side-length depth based at x with a germ
    into d; vertices: their ends up to depth-limited suffix-shift."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if d.base != x or all(d != e for e in system.forest.directions_at(x)):
        raise InvalidDirection(f"{d} is not a direction at {x!r}")
    edges = tuple(leaf for leaf in leaves_at(system, x, depth)
                  if leaf.domain.extends_in(d))
    return _graph(x, d, depth, edges)


def candidate_points(system: BandSystem) -> list[Point]:
    """Forest vertices and all band extremal points inside the support.

    Branch points of the support are vertices, so they are included."""
    pts = [system.forest.vertex_point(v)
           for v in sorted(system.forest.vertices)]
    for band in system.elements():
        pts.extend(band.domain.extremal_points())
    return list(dict.fromkeys(p for p in pts if system.support.contains(p)))


def _scan(system: BandSystem, depth: int
          ) -> list[tuple[Point, Direction, tuple[LeafWord, ...]]]:
    """(x, d, edges at (x, d)) for every candidate point x and germ d of
    the support at x, from one walk of the dotted words (a domain that
    extends into d contains x); most edges first, ties broken by the
    exact point order of point_key and then by the direction."""
    leaves = dotted_words(system, depth)
    rows = [(x, d, tuple(leaf for leaf in leaves if leaf.domain.extends_in(d)))
            for x in candidate_points(system)
            for d in system.support.germ_directions(x)]
    rows.sort(key=lambda r: (-len(r[2]), point_key(r[0]),
                             (r[1].edge, r[1].toward)))
    return rows


def wh_scan(system: BandSystem, depth: int
            ) -> list[tuple[Point, Direction, int]]:
    """Edge counts over every candidate point and germ, sorted descending."""
    return [(x, d, len(edges)) for x, d, edges in _scan(system, depth)]


@dataclass(frozen=True)
class PatternCertificate:
    """Finite-depth witness data for the T±-pattern."""

    a: Point
    d: Direction
    l1: LeafWord
    l2: LeafWord
    end_class_count: int
    b: Point
    lb: LeafWord
    c: Point
    lc: LeafWord
    depth: int

    def validate(self) -> list[str]:
        out = []
        if self.l1.key() == self.l2.key():
            out.append("edge words l1 and l2 coincide")
        if self.end_class_count < 3:
            out.append("fewer than 3 end classes among the four ends")
        for name, leaf in (("l1", self.l1), ("l2", self.l2),
                           ("lb", self.lb), ("lc", self.lc)):
            if leaf.domain.is_empty:
                out.append(f"domain of {name} is empty")
        for name, p in (("b", self.b), ("c", self.c)):
            if p == self.a:
                out.append(f"witness {name} equals the basepoint a")
        if self.b == self.c:
            out.append("witnesses b and c coincide")
        forest = self.l1.domain.host
        for name, p in (("b", self.b), ("c", self.c)):
            if p != self.a and forest.direction_towards(self.a, p) != self.d:
                out.append(f"witness {name} is not on the d side")
        for name, p, leaf in (("b", self.b, self.lb), ("c", self.c, self.lc)):
            if not leaf.domain.contains(p):
                out.append(f"witness {name} is outside its leaf domain")
        return out


def _point_on_side(system: BandSystem, leaf: LeafWord, a: Point,
                   d: Direction, num: int, den: int) -> Optional[Point]:
    """A point of leaf's domain strictly inside the direction d from a,
    at num/den of the way to the far end of a's domain component."""
    forest = system.forest
    for comp in leaf.domain.components():
        if not comp.contains(a) or not comp.extends_in(d):
            continue
        for q in comp.extremal_points():
            if q == a:
                continue
            if forest.direction_towards(a, q) == d:
                dist = forest.distance(a, q)
                return forest.point_at(a, q, dist * num / den)
    return None


def detect_pattern(system: BandSystem, depth: int):
    """A PatternCertificate from the first (a, d) in wh_scan order whose
    directional graph has two edges with >= 3 end classes, else NotFound."""
    for x, d, edges in _scan(system, depth):
        if len(edges) < 2:
            break
        g = _graph(x, d, depth, edges)
        cls = {end: k for k, ends in enumerate(g.end_classes) for end in ends}
        for i in range(len(g.edges)):
            for j in range(i + 1, len(g.edges)):
                l1, l2 = g.edges[i], g.edges[j]
                ends = {cls[l1.left], cls[l1.right], cls[l2.left], cls[l2.right]}
                if len(ends) < 3:
                    continue
                b = _point_on_side(system, l1, x, d, 1, 2)
                c = _point_on_side(system, l2, x, d, 1, 3)
                if b is None or c is None:
                    continue
                if b == c:
                    c = _point_on_side(system, l2, x, d, 1, 4)
                    if c is None or b == c:
                        continue
                cert = PatternCertificate(x, d, l1, l2, len(ends),
                                          b, l1, c, l2, depth)
                if not cert.validate():
                    return cert
    return NotFound(depth)


@dataclass(frozen=True)
class K33Certificate:
    """Abstract complete bipartite 3+3 graph with arc provenance."""

    left: tuple[str, str, str]
    right: tuple[str, str, str]
    edges: tuple[tuple[str, str, str], ...]
    pattern: PatternCertificate

    def validate(self) -> list[str]:
        out = []
        pairs = {(u, v) for u, v, _ in self.edges}
        if len(self.edges) != 9 or len(pairs) != 9:
            out.append("expected exactly 9 distinct edges")
        if pairs != {(u, v) for u in self.left for v in self.right}:
            out.append("edge set is not complete bipartite 3+3")
        notes = [note for _, _, note in self.edges]
        if len(set(notes)) != len(notes):
            out.append("provenance annotations are not distinct")
        return out

    def to_dot(self) -> str:
        lines = ["graph k33 {", "  // parts: basepoint images / star arcs"]
        for v in self.left:
            lines.append(f'  "{v}" [shape=circle];')
        for v in self.right:
            lines.append(f'  "{v}" [shape=box];')
        for u, v, note in self.edges:
            lines.append(f'  "{u}" -- "{v}" [label="{note}"];')
        lines.append("}")
        return "\n".join(lines)


def k33_certificate(pattern: PatternCertificate) -> K33Certificate:
    """The abstract K_{3,3} carried by a T±-pattern certificate.

    One part comes from the images of the three basepoints a, b, c; the
    other from the midpoints of the three arcs of the star that the two
    edge leaves and the two witness leaves trace out.  Each of the nine
    edges records which leaf ray realizes the arc.  The result is a
    combinatorial witness, not a verified topological embedding.
    """
    bad = pattern.validate()
    if bad:
        raise MalformedCertificate("; ".join(bad))
    left = ("alpha", "beta", "gamma")
    right = ("pi1", "pi2", "pi3")
    carrier = {"alpha": ("a", pattern.l1), "beta": ("b", pattern.lb),
               "gamma": ("c", pattern.lc)}
    edges = []
    for u in left:
        base, leaf = carrier[u]
        for k, v in enumerate(right):
            edges.append((u, v, f"ray of {leaf} from {base} to arc {k + 1}"))
    cert = K33Certificate(left, right, tuple(edges), pattern)
    bad = cert.validate()
    if bad:
        raise MalformedCertificate("; ".join(bad))
    return cert
