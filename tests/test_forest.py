import functools
import operator
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ripslab.fileformat import parse_system_text, scalar_str, serialize_system
from ripslab.forest import (
    DifferentComponents,
    Direction,
    Edge,
    ForestError,
    MetricForest,
    Point,
    Subforest,
)
from ripslab.isometry import BandSystem
from ripslab.scalar import field_define, rational as Q
from test_isometry import sample_points, zigzag
from test_lamination import corpus, tripod as tripod_system


def interval_forest(length=3):
    return MetricForest(["u", "v"], [Edge("e0", "u", "v", Q(length))])


def tripod_forest(l1=Q(1), l2=Q(2), l4=Q(4)):
    # center c with legs l1, l2, l4 to tips t1, t2, t4
    return MetricForest(
        ["c", "t1", "t2", "t4"],
        [Edge("l1", "c", "t1", l1),
         Edge("l2", "c", "t2", l2),
         Edge("l4", "c", "t4", l4)],
    )


@pytest.fixture()
def tripod():
    return tripod_forest()


def test_edge_distance():
    f = interval_forest()
    assert f.distance(f.vertex_point("u"), f.vertex_point("v")) == Q(3)
    p = f.point("e0", Q(1, 2))
    assert f.distance(p, p) == Q(0)


def test_tripod_distances(tripod):
    t1, t4 = tripod.vertex_point("t1"), tripod.vertex_point("t4")
    assert tripod.distance(t1, t4) == Q(5)
    assert tripod.distance(t1, tripod.vertex_point("t2")) == Q(3)


def test_different_components():
    f = MetricForest(["a", "b", "c", "d"],
                     [Edge("e0", "a", "b", Q(1)), Edge("e1", "c", "d", Q(1))])
    with pytest.raises(DifferentComponents):
        f.distance(f.vertex_point("a"), f.vertex_point("c"))


def test_segment_on_edge():
    f = interval_forest()
    s = f.segment(f.point("e0", Q(1, 2)), f.point("e0", Q(2)))
    assert s.volume() == Q(3, 2)
    assert s.intervals["e0"] == ((Q(1, 2), Q(2)),)


def test_segment_degenerate():
    f = interval_forest()
    p = f.point("e0", 1)
    s = f.segment(p, p)
    assert s.is_point and s.volume() == Q(0)


def test_segment_through_branch(tripod):
    s = tripod.segment(tripod.vertex_point("t1"), tripod.vertex_point("t4"))
    assert s.volume() == Q(5)
    assert len(s.intervals) == 2


def test_directions_count(tripod):
    assert len(tripod.directions_at(tripod.point("l2", 1))) == 2
    assert len(tripod.directions_at(tripod.vertex_point("c"))) == 3
    assert len(tripod.directions_at(tripod.vertex_point("t1"))) == 1


def test_intersect_on_edge():
    f = interval_forest()
    a = f.segment(f.point("e0", 0), f.point("e0", 2))
    b = f.segment(f.point("e0", 1), f.point("e0", 3))
    c = a.intersect(b)
    assert c.intervals["e0"] == ((Q(1), Q(2)),)


def test_intersect_disjoint():
    f = interval_forest()
    a = f.segment(f.point("e0", 0), f.point("e0", 1))
    b = f.segment(f.point("e0", 2), f.point("e0", 3))
    assert a.intersect(b).is_empty


def test_intersect_at_single_point(tripod):
    a = tripod.segment(tripod.vertex_point("t1"), tripod.vertex_point("t2"))
    b = tripod.segment(tripod.vertex_point("t4"), tripod.vertex_point("c"))
    c = a.intersect(b)
    assert c.is_point
    assert c.points == {tripod.vertex_point("c")}


def test_touching_intervals_merge():
    f = interval_forest()
    a = f.segment(f.point("e0", 0), f.point("e0", 1))
    b = f.segment(f.point("e0", 1), f.point("e0", 2))
    u = a.union(b)
    assert u.intervals["e0"] == ((Q(0), Q(2)),)
    assert len(u.components()) == 1


def test_refine_single_mark():
    f = interval_forest()
    refined, relab = f.refine([f.point("e0", 1)])
    lengths = sorted(e.length.as_fraction() for e in refined.edges)
    assert lengths == [1, 2]
    assert relab.point(f.point("e0", 1)).is_vertex


def test_refine_vertex_mark_is_identity():
    f = interval_forest()
    refined, relab = f.refine([f.vertex_point("u")])
    assert refined == f
    assert relab.point(f.point("e0", 2)) == f.point("e0", 2)


def test_refine_two_marks_conserves_length():
    f = interval_forest()
    refined, _ = f.refine([f.point("e0", 1), f.point("e0", Q(3, 2))])
    total = sum(e.length.as_fraction() for e in refined.edges)
    assert total == 3 and len(refined.edges) == 3


def test_refine_preserves_distance(tripod):
    marks = [tripod.point("l4", 1), tripod.point("l4", 3), tripod.point("l2", 1)]
    refined, relab = tripod.refine(marks)
    rng = random.Random(3)
    pts = [tripod.vertex_point(v) for v in tripod.vertices]
    pts += [tripod.point("l4", Fraction(rng.randint(1, 7), 2)) for _ in range(4)]
    for p, q in combinations(pts, 2):
        assert tripod.distance(p, q) == refined.distance(relab.point(p), relab.point(q))


def test_volume(tripod):
    assert tripod.whole().volume() == Q(7)
    pts = Subforest(tripod, {}, frozenset([tripod.vertex_point("t1"),
                                           tripod.point("l4", 2)]))
    assert pts.volume() == Q(0)


def test_distance_equals_segment_volume(tripod):
    rng = random.Random(5)
    pts = [tripod.vertex_point(v) for v in tripod.vertices]
    for eid, top in (("l1", 1), ("l2", 2), ("l4", 4)):
        for _ in range(3):
            pts.append(tripod.point(eid, Fraction(rng.randint(0, 4 * top), 4)))
    for p, q in combinations(pts, 2):
        assert tripod.distance(p, q) == tripod.segment(p, q).volume()


def test_four_point_condition(tripod):
    rng = random.Random(9)
    pts = []
    for eid, top in (("l1", 1), ("l2", 2), ("l4", 4)):
        for _ in range(4):
            pts.append(tripod.point(eid, Fraction(rng.randint(0, 8 * top), 8)))
    for quad in list(combinations(pts, 4))[:200]:
        p, q, r, s = quad
        d = tripod.distance
        sums = sorted([d(p, q) + d(r, s), d(p, r) + d(q, s), d(p, s) + d(q, r)])
        assert sums[1] == sums[2]


def test_components_and_extremal(tripod):
    a = tripod.segment(tripod.vertex_point("t1"), tripod.vertex_point("t2"))
    b = tripod.segment(tripod.point("l4", 2), tripod.point("l4", 3))
    u = a.union(b)
    comps = u.components()
    assert len(comps) == 2
    ext = u.components()[0].extremal_points()
    assert tripod.vertex_point("t1") in ext and tripod.vertex_point("t2") in ext
    assert tripod.vertex_point("c") not in ext


def test_diameter(tripod):
    assert tripod.whole().diameter() == Q(6)  # t2 to t4
    seg = tripod.segment(tripod.point("l4", 1), tripod.point("l4", 4))
    assert seg.diameter() == Q(3)


def test_volume_monotone_under_inclusion(tripod):
    inner = tripod.segment(tripod.point("l4", 1), tripod.point("l4", 3))
    outer = tripod.whole()
    assert inner.issubset(outer)
    assert inner.volume() <= outer.volume()


def test_isolated_vertex_component():
    f = MetricForest(["a", "b", "x"], [Edge("e0", "a", "b", Q(1))])
    w = f.whole()
    assert len(w.components()) == 2
    assert any(c.is_point for c in w.components())


def test_hull_of_tripod_tips(tripod):
    h = tripod.hull([tripod.vertex_point(t) for t in ("t1", "t2", "t4")])
    assert h == tripod.whole()


# -- intersect against the probing oracle ------------------------------------

BK = field_define([-1, 1, 1, 1], 0, 1)  # L^3 + L^2 + L - 1, the bk_itm field
L = BK.gen


def _grid_host(host, fractions):
    """(host, per-edge offset grid, candidate isolated points)."""
    grids = {e.id: [e.length * t for t in fractions] for e in host.edges}
    pts = [host.vertex_point(v) for v in host.vertices]
    pts += [host.point(eid, x) for eid, g in grids.items() for x in g[1:-1]]
    return host, grids, pts


Q_GRID = [Q(0), Q(1, 4), Q(1, 3), Q(1, 2), Q(2, 3), Q(3, 4), Q(1)]
BK_GRID = [BK.rational(0), L * L * L, L * L, BK.rational(Fraction(1, 2)), L,
           1 - L * L, BK.rational(1)]

HOSTS = {
    "line/Q": _grid_host(interval_forest(), Q_GRID),
    "tripod/Q": _grid_host(tripod_forest(), Q_GRID),
    "line/bk": _grid_host(MetricForest(
        ["u", "v"], [Edge("e0", "u", "v", BK.rational(1))]), BK_GRID),
    "tripod/bk": _grid_host(tripod_forest(L, BK.rational(1), 1 + L * L),
                            BK_GRID),
}


@st.composite
def grid_subforests(draw, host, grids, pts):
    """Unions of grid intervals plus isolated points.  Grid offsets are
    shared by both operands, so intervals often touch, nest, or end at
    the same vertex, and grid points often land on either operand."""
    intervals = {}
    for e in host.edges:
        g = grids[e.id]
        for _ in range(draw(st.integers(0, 3))):
            i, j = sorted(draw(st.lists(st.integers(0, len(g) - 1),
                                        min_size=2, max_size=2, unique=True)))
            intervals.setdefault(e.id, []).append((g[i], g[j]))
    points = draw(st.lists(st.sampled_from(pts), max_size=3))
    return Subforest(host, intervals, frozenset(points))


@pytest.mark.parametrize("name", sorted(HOSTS))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_intersect_matches_oracle(name, data):
    host, grids, pts = HOSTS[name]
    a = data.draw(grid_subforests(host, grids, pts))
    b = data.draw(grid_subforests(host, grids, pts))
    assert a.intersect(b) == oracles.brute_intersect(a, b)
    assert b.intersect(a) == oracles.brute_intersect(b, a)


def test_intersect_isolated_points_match_oracle(tripod):
    c, t1 = tripod.vertex_point("c"), tripod.vertex_point("t1")
    leg = {eid: tripod.segment(c, tripod.vertex_point(t))
           for eid, t in (("l1", "t1"), ("l2", "t2"), ("l4", "t4"))}
    mid = tripod.point("l4", 2)
    cases = [
        # same-edge touch: [1, 2] and [2, 3] on l4 meet in one edge point
        (tripod.segment(tripod.point("l4", 1), mid),
         tripod.segment(mid, tripod.point("l4", 3)), {mid}),
        # nested intervals on one edge
        (leg["l4"], tripod.segment(tripod.point("l4", 1), mid), None),
        # two legs reach the center along different edges
        (leg["l1"], leg["l2"], {c}),
        # isolated vertex point and isolated edge point inside the other set
        (Subforest(tripod, {}, frozenset([t1, mid])), leg["l1"].union(leg["l4"]),
         {t1, mid}),
        # isolated points in both operands
        (Subforest(tripod, {}, frozenset([c, mid])),
         Subforest(tripod, {}, frozenset([c, t1])), {c}),
    ]
    for a, b, pts in cases:
        got = a.intersect(b)
        assert got == oracles.brute_intersect(a, b)
        assert got == b.intersect(a)
        if pts is not None:
            assert got.points == frozenset(pts) and not got.intervals


# -- exact order of points closer than any decimal rounding --------------------

@pytest.mark.parametrize("base", [Q(1, 2), L], ids=["Q", "bk"])
def test_crowded_points_come_out_in_exact_order(base):
    """Ten cells within 10^-14 of each other on e0: isolated points at odd
    k and short intervals at even k, from x_k = base + k * 10^-15.  Every
    ordering path must list them by exact offset."""
    host = interval_forest(1)
    eps = Q(1, 10**15)
    xs = [base + eps * k for k in range(10)]
    cells = [Subforest(host, {"e0": [(x, x + eps / 2)]}) if k % 2 == 0
             else Subforest(host, {}, frozenset([host.point("e0", x)]))
             for k, x in enumerate(xs)]
    union = Subforest.empty(host)
    for k in (3, 8, 0, 5, 9, 1, 6, 2, 7, 4):
        union = union.union(cells[k])

    assert union.components() == cells

    ext = union.extremal_points()
    ends = [p for k, x in enumerate(xs)
            for p in ([host.point("e0", x), host.point("e0", x + eps / 2)]
                      if k % 2 == 0 else [host.point("e0", x)])]
    assert ext == ends

    text = serialize_system(BandSystem(host, (), support=union,
                                       field=base.field))
    lines = [ln for ln in text.splitlines() if ln.startswith("point ")]
    assert lines == [f"point e0:{scalar_str(x)}" for x in xs[1::2]]
    assert parse_system_text(text).support == union


# -- arcs against the best-of-four search -------------------------------------

def check_paths(host, points):
    """(distance, pieces) of the arc between every two points of one tree
    agree with the oracle's search over the exit vertices of both cells."""
    for p in points:
        for q in points:
            if host.component_of(p) == host.component_of(q):
                assert host.path(p, q) == oracles.reference_path(host, p, q), (p, q)


def test_path_matches_oracle_on_tripod_and_zigzag_hosts():
    rng = random.Random(8)
    hosts = [tripod_system().forest] + [zigzag(corpus(name)).forest for name in
                                 ("e_surf.bands", "e_trim.bands", "bk_itm.bands")]
    for host in hosts:
        check_paths(host, sample_points(host, host.whole(), rng, 2))


@st.composite
def random_forests(draw):
    """(forest, points): each new vertex hangs off an earlier one by an edge
    of drawn orientation and length, or starts a new tree (an isolated
    vertex unless a later one hangs off it); the points are the vertices
    and drawn offsets on each edge."""
    names = [f"v{k}" for k in range(draw(st.integers(1, 8)))]
    edges = []
    for k, name in enumerate(names[1:], start=1):
        if draw(st.integers(0, 4)):
            other = names[draw(st.integers(0, k - 1))]
            ends = (other, name) if draw(st.booleans()) else (name, other)
            edges.append(Edge(f"e{k}", *ends, Q(draw(st.integers(1, 8)), 4)))
    host = MetricForest(names, edges)
    points = [host.vertex_point(v) for v in names]
    for e in edges:
        points += [host.point(e.id, e.length * Q(draw(st.integers(1, 7)), 8))
                   for _ in range(2)]
    return host, points


@settings(max_examples=100, deadline=None)
@given(random_forests())
def test_path_matches_oracle_on_random_forests(forest):
    check_paths(*forest)


# -- exact decisions within 10^-12 of an edge end or of each other -------------

# an edge length and a gap below 10^-12: L^60 is about 1.3 * 10^-16
NEAR = [(Q(1, 3), Q(1, 10**20)), (L, functools.reduce(operator.mul, [L] * 60))]


@pytest.mark.parametrize("length, eps", NEAR, ids=["Q", "bk"])
def test_point_decides_edge_ends_exactly(length, eps):
    host = MetricForest(["u", "v"], [Edge("e0", "u", "v", length)])
    for bad in (length + eps, -eps):
        with pytest.raises(ForestError):
            host.point("e0", bad)
    assert host.point("e0", length) == host.vertex_point("v")
    assert host.point("e0", length - eps) == Point(edge="e0", offset=length - eps)
    assert host.point("e0", eps) == Point(edge="e0", offset=eps)


@pytest.mark.parametrize("length, eps", NEAR, ids=["Q", "bk"])
def test_merge_drops_only_empty_intervals(length, eps):
    host = MetricForest(["u", "v"], [Edge("e0", "u", "v", 2 * length)])
    x = length
    assert Subforest(host, {"e0": [(x, x)]}).is_empty
    assert Subforest(host, {"e0": [(x, x), (x, x + eps)]}).intervals == {
        "e0": ((x, x + eps),)}
    apart = Subforest(host, {"e0": [(x + eps, 2 * x), (0 * x, x)]})
    assert apart.intervals == {"e0": ((0 * x, x), (x + eps, 2 * x))}
    touching = Subforest(host, {"e0": [(x, 2 * x), (x - eps, x)]})
    assert touching.intervals == {"e0": ((x - eps, 2 * x),)}
    cut, relabel = host.refine([host.point("e0", x)])
    assert relabel.subforest(Subforest(host, {"e0": [(x - eps, x + eps)]})) == \
        Subforest(cut, {"e0_s0": [(x - eps, x)], "e0_s1": [(0 * x, eps)]})


@pytest.mark.parametrize("length, eps", NEAR, ids=["Q", "bk"])
def test_one_interval_diameter_matches_extremal_search(length, eps):
    host = tripod_forest(length, length + eps, 1 + length)
    sets = [Subforest(host, {"l2": [(length, length + eps)]}),
            Subforest(host, {"l1": [(0 * eps, eps)]}),
            host.segment(host.point("l4", length), host.vertex_point("t4")),
            host.whole(),
            host.segment(host.point("l1", eps), host.point("l2", eps))]
    for s in sets:
        ext = s.extremal_points()
        brute = max(host.distance(p, q) for p, q in combinations(ext, 2))
        assert s.diameter() == brute, s
    assert sets[0].diameter() == eps


# -- a long interval list against a short one ----------------------------------

def _fine_grids(grids, parts=6):
    """Each edge grid cut into `parts` equal steps between grid points."""
    return {eid: [x + (y - x) * Q(k, parts) for x, y in zip(g, g[1:])
                  for k in range(parts)] + [g[-1]] for eid, g in grids.items()}


@st.composite
def lopsided_pairs(draw, host, grids, pts):
    """On one edge, 8-16 disjoint intervals of a fine grid, and 1-2
    intervals of the same grid, each with up to two isolated points."""
    fine = _fine_grids(grids)
    eid = draw(st.sampled_from(sorted(fine)))
    g = fine[eid]
    n = draw(st.integers(8, 16))
    ends = sorted(draw(st.lists(st.integers(0, len(g) - 1), min_size=2 * n,
                                max_size=2 * n, unique=True)))
    many = [(g[i], g[j]) for i, j in zip(ends[::2], ends[1::2])]
    few = []
    for _ in range(draw(st.integers(1, 2))):
        i, j = sorted(draw(st.lists(st.integers(0, len(g) - 1),
                                    min_size=2, max_size=2, unique=True)))
        few.append((g[i], g[j]))
    return [Subforest(host, {eid: ivs}, frozenset(
        draw(st.lists(st.sampled_from(pts), max_size=2)))) for ivs in (many, few)]


@pytest.mark.parametrize("name", sorted(HOSTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lopsided_intersect_matches_oracle(name, data):
    a, b = data.draw(lopsided_pairs(*HOSTS[name]))
    assert len(next(iter(a.intervals.values()))) >= 8
    assert a.intersect(b) == oracles.brute_intersect(a, b)
    assert b.intersect(a) == oracles.brute_intersect(b, a)


# -- components and germs against the union-find and linear-scan oracles -------

def forest_with_lone_vertex():
    """Two trees and a vertex no edge meets; the vertex b ends f0 and f1
    and starts f3, so intervals reach it from both ends of edges."""
    return MetricForest(["a", "b", "c", "d", "x", "y", "z"],
                        [Edge("f0", "a", "b", Q(1)), Edge("f1", "c", "b", Q(2)),
                         Edge("f2", "y", "x", Q(1)), Edge("f3", "b", "d", Q(1))])


STRUCTURE_HOSTS = {**HOSTS, "forest/Q": _grid_host(forest_with_lone_vertex(), Q_GRID)}


def check_structure(s, pts):
    """components(), extends_in and germ_directions agree with the oracles,
    at every given point and along every edge in both senses."""
    assert s.components() == oracles.reference_components(s)
    for p in pts:
        assert s.germ_directions(p) == oracles.reference_germ_directions(s, p)
        for e in s.host.edges:
            for toward in (1, -1):
                d = Direction(p, e.id, toward)
                assert s.extends_in(d) == oracles.reference_extends_in(s, d), d


@pytest.mark.parametrize("name", sorted(STRUCTURE_HOSTS))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_structure_matches_oracle(name, data):
    host, grids, pts = STRUCTURE_HOSTS[name]
    check_structure(data.draw(grid_subforests(host, grids, pts)), pts)


def test_structure_at_shared_vertices_and_lone_points():
    host, _, pts = STRUCTURE_HOSTS["forest/Q"]
    b, z, mid = host.vertex_point("b"), host.vertex_point("z"), host.point("f0", Q(1, 2))
    star = Subforest(host, {"f0": [(Q(1, 2), Q(1))], "f1": [(Q(0), Q(1, 2)), (Q(1), Q(2))],
                            "f3": [(Q(0), Q(1, 2))]})
    cases = [
        (host.whole(), 3),  # two trees and the lone vertex
        (star, 2),  # three edges reach b: f0 and f1 at their ends, f3 at its start
        (Subforest(host, {}, frozenset([b, z, mid])), 3),  # points only
        (Subforest(host, {"f2": [(Q(0), Q(1))]}, frozenset([z])), 2),
        (Subforest.empty(host), 0),
    ]
    for s, n in cases:
        assert len(s.components()) == n
        check_structure(s, pts)
    assert [d.edge for d in star.germ_directions(b)] == ["f0", "f1", "f3"]
