import functools
import operator
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hosts import is_point, refine
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
    meetings,
)
from ripslab.isometry import BandSystem, PartialIsometry, ValenceStratification
from ripslab.scalar import NumberField, rational as Q, total
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
    assert is_point(s) and s.volume() == Q(0)


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
    assert is_point(c)
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
    refined, relab = refine(f, [f.point("e0", 1)])
    lengths = sorted(e.length.as_fraction() for e in refined.edges)
    assert lengths == [1, 2]
    assert relab.point(f.point("e0", 1)).is_vertex


def test_refine_vertex_mark_is_identity():
    f = interval_forest()
    refined, relab = refine(f, [f.vertex_point("u")])
    assert refined == f
    assert relab.point(f.point("e0", 2)) == f.point("e0", 2)


def test_refine_two_marks_conserves_length():
    f = interval_forest()
    refined, _ = refine(f, [f.point("e0", 1), f.point("e0", Q(3, 2))])
    total = sum(e.length.as_fraction() for e in refined.edges)
    assert total == 3 and len(refined.edges) == 3


def test_refine_preserves_distance(tripod):
    marks = [tripod.point("l4", 1), tripod.point("l4", 3), tripod.point("l2", 1)]
    refined, relab = refine(tripod, marks)
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
    assert any(is_point(c) for c in w.components())


def test_hull_of_tripod_tips(tripod):
    h = tripod.hull([tripod.vertex_point(t) for t in ("t1", "t2", "t4")])
    assert h == tripod.whole()


# -- intersect against the probing oracle ------------------------------------

BK = NumberField([-1, 1, 1, 1], 0, 1)  # L^3 + L^2 + L - 1, the bk_itm field
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


def rebuilt(s):
    """s through the public constructor, which normalizes its input."""
    return Subforest(s.host, {eid: list(ivs) for eid, ivs in s.intervals.items()}, s.points)


@pytest.mark.parametrize("name", sorted(HOSTS))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_canonical_results_equal_their_normalized_rebuild(name, data):
    """intersect and components build their results without normalizing;
    each is already what the public constructor makes of it."""
    host, grids, pts = HOSTS[name]
    a = data.draw(grid_subforests(host, grids, pts))
    b = data.draw(grid_subforests(host, grids, pts))
    for s in [a.intersect(b), b.intersect(a), *a.components()]:
        again = rebuilt(s)
        assert s == again
        assert list(s.intervals) == list(again.intervals)
        assert all(type(ivs) is tuple for ivs in s.intervals.values())


@pytest.mark.parametrize("name", sorted(HOSTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_volume_and_kept_diameter_match_references(name, data):
    """volume is the interval-by-interval sum of `oracles.reference_volume`;
    diameter is the farthest pair of interval ends and lone points in one
    tree, computed on the first call and returned as is on the next."""
    host, grids, pts = HOSTS[name]
    s = data.draw(grid_subforests(host, grids, pts))
    assert s.volume() == oracles.reference_volume(s)
    ends = [host.point(eid, x) for eid, ivs in s.intervals.items()
            for iv in ivs for x in iv] + list(s.points)
    d = s.diameter()
    assert d == max((host.distance(p, q) for p in ends for q in ends
                     if host.component_of(p) == host.component_of(q)), default=Q(0))
    assert s.diameter() is d


# Q, and a field of each degree from 1 to 4 (x^4 - 2 is irreducible by
# Eisenstein's criterion at 2, so its check, which loads sympy, is skipped)
SUM_FIELDS = [None, NumberField([-2, 1], 1, 3), NumberField([-3, 0, 1], 1, 2),
              NumberField([-1, -1, -1, 1], 1, 2),
              NumberField([-2, 0, 0, 0, 1], 1, 2, check_irreducible=False)]


@st.composite
def field_values(draw, field):
    """A plain rational, or a value of the field, with coefficients in
    [-4, 4] of denominators up to 12."""
    coeffs = draw(st.lists(st.fractions(-4, 4, max_denominator=12),
                           max_size=field.degree if field else 1))
    if field is None or draw(st.booleans()):
        return Q(coeffs[0] if coeffs else 0)
    return field.element(coeffs)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SUM_FIELDS), st.data())
def test_total_is_the_left_fold_of_additions(field, data):
    """total(plus, minus) equals the left fold of + over plus and of -
    over minus, in the same field, for empty, rational, field and mixed
    terms; as volume, it equals the interval-by-interval sum."""
    plus, minus = (data.draw(st.lists(field_values(field), max_size=6)) for _ in "+-")
    added = functools.reduce(operator.add, plus, Q(0))
    fold = functools.reduce(operator.sub, minus, added)
    got = total(plus, minus)
    assert got == fold and got.field is fold.field
    assert total(plus) == added and total(plus).field is added.field
    ends = sorted({abs(x) for x in plus + minus})  # each below 100
    host = MetricForest(["u", "v"], [Edge("e0", "u", "v", Q(100))])
    s = Subforest(host, {"e0": list(zip(ends[::2], ends[1::2]))})
    assert s.volume() == oracles.reference_volume(s)


def test_total_of_nothing_is_rational_zero():
    assert total([]) == total([], []) == 0 and total([]).field is None


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


# -- arcs, hulls and points on arcs against the walks over `path` they replace -

def reference_segment(host, p, q):
    """The arc [p, q] as a subforest, one interval per `path` piece."""
    if p == q:
        return Subforest(host, {}, frozenset([p]))
    intervals = {}
    for eid, f, t in host.path(p, q)[1]:
        intervals.setdefault(eid, []).append((f, t) if t > f else (t, f))
    return Subforest(host, intervals)


def reference_hull(host, points):
    """The first point, and the union of the segments from it to the
    other points."""
    out = Subforest(host, {}, frozenset(points[:1]))
    for p in points[1:]:
        out = out.union(reference_segment(host, points[0], p))
    return out


def reference_point_at(host, p, q, dist):
    """The point at distance dist from p on [p, q], by a running sum of
    the `path` pieces' lengths."""
    total, pieces = host.path(p, q)
    if dist.sign() < 0 or dist > total:
        raise ForestError("distance outside the arc")
    acc = Q(0)
    for eid, f, t in pieces:
        seg = abs(t - f)
        if acc + seg >= dist:
            rem = dist - acc
            return host.point(eid, f + rem if t > f else f - rem)
        acc = acc + seg
    return q


def check_arcs(host, points, rng, pairs=60):
    """On sampled pairs of points: `arc` runs end to end from 0 to the
    distance, each piece end at its arc length from p and from q; `segment`,
    `point_at` and `hull` agree with the references, and across trees
    each of them raises DifferentComponents."""
    for _ in range(pairs):
        p, q = rng.choice(points), rng.choice(points)
        if host.component_of(p) != host.component_of(q):
            for f in (host.arc, host.segment, lambda p, q: host.hull([p, q])):
                with pytest.raises(DifferentComponents):
                    f(p, q)
            with pytest.raises(DifferentComponents):
                host.point_at(p, q, Q(0))
            continue
        d, pieces = host.distance(p, q), host.arc(p, q)
        assert [s0 for s0, *_ in pieces] + [d] == [Q(0)] + [s1 for _, s1, *_ in pieces]
        for s0, s1, e, flip, t in pieces:
            assert s0 <= s1
            for s in (s0, s1):
                x = host.point(e, t - s if flip else s + t)
                assert (host.distance(p, x), host.distance(x, q)) == (s, d - s), (p, q, s)
        assert host.segment(p, q) == reference_segment(host, p, q), (p, q)
        for s in [Q(0), d] + [s1 for _, s1, *_ in pieces] + [d * Q(k, 7) for k in (1, 3, 6)]:
            assert host.point_at(p, q, s) == reference_point_at(host, p, q, s), (p, q, s)
        for s in (Q(-1, 8), d + Q(1, 8)):
            with pytest.raises(ForestError):
                host.point_at(p, q, s)
    trees = {}
    for p in points:
        trees.setdefault(host.component_of(p), []).append(p)
    for tree in trees.values():
        for k in (1, 2, 3, 5):
            gens = [rng.choice(tree) for _ in range(k)]
            assert host.hull(gens) == reference_hull(host, gens), gens
    assert host.hull([]).is_empty


def test_arcs_match_reference_walks_on_tripod_and_zigzag_hosts():
    rng = random.Random(25)
    hosts = [tripod_system().forest] + [zigzag(corpus(name)).forest for name in
                                 ("e_surf.bands", "e_trim.bands", "bk_itm.bands")]
    for host in hosts:
        check_arcs(host, sample_points(host, host.whole(), rng, 2), rng)


@settings(max_examples=100, deadline=None)
@given(random_forests(), st.randoms(use_true_random=False))
def test_arcs_match_reference_walks_on_random_forests(forest, rng):
    check_arcs(*forest, rng, pairs=20)


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
    cut, relabel = refine(host, [host.point("e0", x)])
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


def test_single_interval_is_its_own_component():
    """A set of one interval and no isolated point is its one component, as
    the union-find oracle finds it; with a second interval or a point the
    set is split as before."""
    for name in sorted(STRUCTURE_HOSTS):
        host, grids, pts = STRUCTURE_HOSTS[name]
        for eid, grid in grids.items():
            for lo, hi in combinations(grid, 2):
                s = Subforest(host, {eid: [(lo, hi)]})
                assert s.components() == oracles.reference_components(s) == [s]
                assert s.components()[0] is s
                for other in (Subforest(host, {}, frozenset([p])) for p in pts[:3]):
                    t = s.union(other)
                    assert t.components() == oracles.reference_components(t)
    host = STRUCTURE_HOSTS["tripod/Q"][0]
    two = Subforest(host, {"l1": [(Q(0), Q(1, 2))], "l2": [(Q(0), Q(1, 2))]})
    assert two.components() == oracles.reference_components(two) == [two]
    assert two.components()[0] is not two


def test_direction_towards_itself_raises_at_vertices_and_edge_points():
    rng = random.Random(26)
    host = tripod_system().forest
    pts = sample_points(host, host.whole(), rng, 2)
    assert any(p.is_vertex for p in pts) and any(not p.is_vertex for p in pts)
    for p in pts:
        with pytest.raises(ForestError):
            host.direction_towards(p, p)
        for q in pts:
            if q != p and host.component_of(q) == host.component_of(p):
                d = host.direction_towards(p, q)
                assert d.base == p and host.segment(p, q).extends_in(d)


# -- the meetings sweep against all-pairs intersect ----------------------------

def cells(host):
    """(cell, length) of each edge and of each vertex no edge meets."""
    lone = set(host.vertices) - {v for e in host.edges for v in (e.u, e.v)}
    return [(e.id, e.length) for e in host.edges] + [(v, Q(0)) for v in sorted(lone)]


@st.composite
def span_sets(draw, host):
    """2-5 sets of 0-4 closed spans, with 0-2 as keys.  Ends lie on a grid
    of quarters of each edge, so spans often touch, are points, or end at
    a vertex."""
    cs = cells(host)
    sets = []
    for _ in range(draw(st.integers(2, 5))):
        spans = []
        for _ in range(draw(st.integers(0, 4))):
            cell, length = draw(st.sampled_from(cs))
            i, j = sorted(draw(st.lists(st.integers(0, 4), min_size=2, max_size=2)))
            spans.append((cell, length * Q(i, 4), length * Q(j, 4)))
        sets.append(spans)
    return sets, [draw(st.integers(0, 2)) for _ in sets]


def check_meetings(host, sets, keys):
    """Each pair of sets with different keys meets, and meets in the given
    spans, exactly as intersecting them as subforests says."""
    doms = [Subforest.from_spans(host, spans) for spans in sets]
    want = {}
    for i, j in combinations(range(len(sets)), 2):
        common = doms[i].intersect(doms[j])
        if keys[i] != keys[j] and not common.is_empty:
            want[(i, j)] = common
    got = meetings(host, sets, keys)
    assert {ij: Subforest.from_spans(host, spans) for ij, spans in got.items()} == want
    return want


MEETING_HOSTS = {
    "tripod": lambda: tripod_system().forest,
    "forest/Q": forest_with_lone_vertex,
    **{f"zigzag/{name}": functools.partial(lambda n: zigzag(corpus(n)).forest, name)
       for name in ("e_surf.bands", "e_trim.bands", "bk_itm.bands")},
}


@pytest.mark.parametrize("name", sorted(MEETING_HOSTS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_meetings_match_all_pairs_intersect(name, data):
    host = MEETING_HOSTS[name]()
    check_meetings(host, *data.draw(span_sets(host)))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_meetings_match_all_pairs_intersect_on_random_forests(data):
    host, _ = data.draw(random_forests())
    check_meetings(host, *data.draw(span_sets(host)))


def test_meetings_at_a_vertex_a_touch_point_and_a_lone_vertex():
    """Sets that share only the vertex c, reached along different edges
    or listed as a point on one edge; only the point 1 of e1; only the
    vertex z that no edge meets.  A pair with equal keys is not listed."""
    host = tripod_system().forest  # e1 = c-a, e2 = b-c, e3 = c-d, lone z
    c, z = host.vertex_point("c"), host.vertex_point("z")
    one, two = Q(1), Q(2)
    cases = [
        ([("e1", Q(0), one)], [("e2", one, two)], c),
        ([("e3", Q(0), Q(0))], [("e2", two, two)], c),
        ([("e1", Q(0), one)], [("e3", Q(0), Q(0))], c),
        ([("e1", Q(0), one)], [("e1", one, two)], host.point("e1", one)),
        ([("z", Q(0), Q(0)), ("e1", Q(0), one)], [("z", Q(0), Q(0))], z),
    ]
    for a, b, p in cases:
        want = check_meetings(host, [a, b], ["x", "y"])
        assert want == {(0, 1): Subforest(host, {}, frozenset([p]))}
        assert meetings(host, [a, b], ["x", "x"]) == {}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_component_index_numbers_each_piece_by_its_component_on_random_forests(data):
    """The index numbers each stored interval and lone point, and only
    those, by the position in `components()` (and in the union-find
    oracle's order) of the component holding it."""
    host, pts = data.draw(random_forests())
    sets, _ = data.draw(span_sets(host))
    lone = data.draw(st.lists(st.sampled_from(pts), max_size=3))
    s = Subforest.from_spans(host, [span for spans in sets for span in spans]).union(
        Subforest(host, {}, frozenset(lone)))
    comps, want = oracles.reference_components(s), {}
    for n, comp in enumerate(comps):
        want.update((p, n) for p in comp.points)
        want.update(((eid, iv), n) for eid, ivs in comp.intervals.items() for iv in ivs)
    assert s.component_index() == want
    assert list(s.component_index().values()) == sorted(want.values())
    assert s.components() == comps


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_spans_are_kept_and_strata_built_in_canonical_form_on_random_forests(data):
    """A set's spans are those of a fresh copy of it (its lone points are
    listed in set order), and every read returns the same tuple.  Each stratum K^{>=i} and the overlap set,
    which the sweep joins piece by piece, equal the brute-force oracles
    and have exactly the intervals, keyed in the same order, and points
    that `from_spans` gives for their spans: they are in canonical form.
    The stratification reads only the bands' names and sets, so the
    bands here are drawn sets, not isometries."""
    host, pts = data.draw(random_forests())
    sets, _ = data.draw(span_sets(host))
    lone = data.draw(st.lists(st.sampled_from(pts), max_size=3))
    subs = [Subforest.from_spans(host, spans) for spans in sets]
    subs[0] = subs[0].union(Subforest(host, {}, frozenset(lone)))
    system = BandSystem(host, tuple(PartialIsometry(f"b{k}", s, subs[k - 1], ())
                                    for k, s in enumerate(subs)))
    strata = ValenceStratification(system)
    made = [(strata.stratum_ge(i), oracles.brute_stratum_ge(system, i)) for i in (1, 2, 3)]
    made.append((strata.overlap(), oracles.brute_overlap_set(system)))
    for got, want in made:
        assert got == want
        again = Subforest.from_spans(host, got.spans())
        assert (list(got.intervals.items()), got.points) == \
            (list(again.intervals.items()), again.points)
    for s in subs + [got for got, _ in made]:
        assert sorted(s.spans()) == sorted(Subforest(host, s.intervals, s.points).spans())
        assert type(s.spans()) is tuple and s.spans() is s.spans()
