import importlib.resources as resources
import os
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ripslab import lamination
from ripslab.fileformat import parse_system
from ripslab.forest import Edge, MetricForest, Subforest
from ripslab.isometry import BandSystem, PartialIsometry, arc_band, chart_domain
from ripslab.lamination import (
    LeafWord,
    NotReduced,
    _walk,
    admissible_words,
    dotted_words,
    inverse_label,
    leaves_at,
    limit_set,
    word_domain,
)
from ripslab.rips import lineage, rips_step
from ripslab.scalar import rational as Q
from ripslab.whitehead import wh_scan

import oracles
from oracles import brute_leaves_at, brute_word_domain


def corpus(name):
    return parse_system(str(resources.files("ripslab") / "corpus" / name))


@pytest.fixture(scope="module")
def e_surf():
    return corpus("e_surf.bands")


@pytest.fixture(scope="module")
def e_trim():
    return corpus("e_trim.bands")


def test_inverse_label():
    assert inverse_label("a") == "a'"
    assert inverse_label("a'") == "a"
    assert inverse_label("a.0_1'") == "a.0_1"


def test_word_domain_single_letter(e_surf):
    assert word_domain(e_surf, "a") == e_surf.band("a").domain
    assert word_domain(e_surf, ["b'"]) == e_surf.band("b").range


def test_word_domain_composition(e_surf):
    # b after a: need a(x) in [0,1], i.e. x + 1 <= 1.
    d = word_domain(e_surf, "a b")
    assert d.is_point
    assert d.points == {e_surf.forest.point("e0", 0)}


def test_word_domain_empty(e_surf):
    assert word_domain(e_surf, "b b").is_empty


def test_word_domain_empty_word(e_surf):
    assert word_domain(e_surf, []) == e_surf.support


def test_not_reduced(e_surf):
    with pytest.raises(NotReduced):
        word_domain(e_surf, "a a'")
    with pytest.raises(NotReduced):
        word_domain(e_surf, ["b'", "b"])


def test_admissible_words_prefix_closed(e_surf):
    words = admissible_words(e_surf, 3)
    have = {w for w, _ in words}
    doms = {w: d for w, d in words}
    for w in have:
        assert 1 <= len(w) <= 3
        if len(w) > 1:
            assert w[:-1] in have
            assert doms[w].issubset(doms[w[:-1]])


def test_admissible_words_count_bound(e_surf):
    n2 = len(e_surf.elements())
    for depth in (1, 2, 3):
        bound = sum(n2 * (n2 - 1) ** (k - 1) for k in range(1, depth + 1))
        assert len(admissible_words(e_surf, depth)) <= bound


def test_admissible_words_deterministic(e_trim):
    a = [(w, d._sort_key()) for w, d in admissible_words(e_trim, 3)]
    b = [(w, d._sort_key()) for w, d in admissible_words(e_trim, 3)]
    assert a == b


@pytest.mark.parametrize("name,depth", [("e_surf.bands", 3),
                                        ("e_trim.bands", 3)])
def test_word_domain_matches_oracle(name, depth):
    s = corpus(name)
    for w, dom in admissible_words(s, depth):
        assert dom == brute_word_domain(s, w)


def test_nonadmissible_word_matches_oracle(e_surf):
    for w in (("b", "b"), ("b", "a'"), ("a", "a", "b")):
        assert word_domain(e_surf, w) == brute_word_domain(e_surf, w)


def test_limit_set_antitone(e_surf, e_trim):
    for s in (e_surf, e_trim):
        prev = None
        for depth in (1, 2, 3):
            cur = limit_set(s, depth)
            assert cur.depth == depth
            assert cur.subforest.issubset(s.support)
            if prev is not None:
                assert cur.subforest.issubset(prev.subforest)
            prev = cur


def test_limit_set_depth_one_surface(e_surf):
    assert limit_set(e_surf, 1).subforest == e_surf.support


def test_dotted_words_reversal_canonical(e_trim):
    for leaf in dotted_words(e_trim, 2):
        assert leaf.left <= leaf.right
        assert leaf.left[0] != leaf.right[0]
        assert not leaf.domain.is_empty


def test_leaves_at_matches_oracle(e_surf, e_trim):
    for s, depth in ((e_surf, 3), (e_trim, 2)):
        f = s.forest
        probes = [f.point("e0", 0), f.point("e0", F(1, 2)),
                  f.point("e0", 1)]
        for x in probes:
            got = sorted(leaf.key() for leaf in leaves_at(s, x, depth))
            assert got == brute_leaves_at(s, x, depth)


def test_leaves_at_dead_point(e_trim):
    # (1/2, 6/10) carries no band at all after one letter on the left.
    x = e_trim.forest.point("e0", F(11, 20))
    assert leaves_at(e_trim, x, 2) == []


def test_leaf_word_str(e_surf):
    leaf = LeafWord(("a'", "b"), ("b",), e_surf.support)
    assert str(leaf) == "b' a.b"


def test_letter_lineage():
    assert lineage("a.0_1") == "a"
    assert lineage("a.0_1'") == "a'"
    assert lineage("a") == "a"


def test_rips_equivariance(e_trim):
    s1 = rips_step(e_trim)
    for w1, d1 in admissible_words(s1, 2):
        w0 = tuple(lineage(x) for x in w1)
        d0 = word_domain(e_trim, w0)
        assert d1.issubset(d0)


# -- the chart walk against the marker walk and the brute domains ----------

def check_walk(system, depth, brute=True):
    """admissible_words, word_domain and dotted_words equal the marker
    walk of the oracles and the backward preimage domains; with `brute`,
    the dotted words also equal those paired from the pruned brute sides."""
    words = admissible_words(system, depth)
    assert words == oracles.reference_walk(system, depth)
    for w, dom in words:
        assert word_domain(system, w) == dom == brute_word_domain(system, w), w
    got = [(leaf.left, leaf.right, leaf.domain)
           for leaf in dotted_words(system, depth)]
    assert got == oracles.reference_dotted_words(system, depth)
    if brute:
        sides = oracles.pruned_brute_sides(system, depth)
        assert got == oracles.brute_dotted(system, depth, sides=sides)


def step6():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return parse_system(os.path.join(root, "perfbench", "data",
                                     "bk_itm_step6.bands"))


@pytest.mark.parametrize("name", ["e_surf.bands", "e_trim.bands", "bk_itm.bands"])
def test_walk_matches_oracles_on_corpus(name):
    s = corpus(name)
    for depth in range(1, 6):
        check_walk(s, depth)


def test_walk_matches_oracles_on_step6():
    s = step6()
    assert word_domain(s, ()) == s.support
    for depth in range(1, 6):
        check_walk(s, depth, brute=depth <= 3)


def tripod():
    """Legs c-a, b-c, c-d of length 2 (e2 runs toward the centre c) and an
    isolated vertex z.  f reflects the arc e1:1 - c - e2:1 onto itself; h
    sends e1 [1/2, 3/2] across c onto e2:3/2 - c - e3:1/2; g translates
    e3 along itself from c, so dom(g) meets range(f) only at c; q sends
    the lone point e3:3/2 to the vertex a, and p sends a to z."""
    host = MetricForest(["c", "a", "b", "d", "z"],
                        [Edge("e1", "c", "a", Q(2)), Edge("e2", "b", "c", Q(2)),
                         Edge("e3", "c", "d", Q(2))])

    def pt(eid, x):
        return host.point(eid, Q(x))

    a, z = host.vertex_point("a"), host.vertex_point("z")
    bands = (arc_band(host, "f", pt("e1", 1), pt("e2", 1), pt("e2", 1), pt("e1", 1)),
             arc_band(host, "h", pt("e1", F(1, 2)), pt("e1", F(3, 2)),
                      pt("e2", F(3, 2)), pt("e3", F(1, 2))),
             arc_band(host, "g", pt("e3", 0), pt("e3", 1), pt("e3", 1), pt("e3", 2)),
             arc_band(host, "q", pt("e3", F(3, 2)), pt("e3", F(3, 2)), a, a),
             arc_band(host, "p", a, a, z, z))
    system = BandSystem(host, bands)
    assert system.validate() == []
    return system


def test_tripod_word_domains():
    s = tripod()
    host = s.forest

    def seg(eid, lo, hi):
        return host.segment(host.point(eid, Q(lo)), host.point(eid, Q(hi)))

    def point(p):
        return Subforest(host, {}, frozenset([p]))

    # range(f) meets dom(g) only at the shared vertex c, which f fixes
    assert word_domain(s, "f g") == point(host.vertex_point("c"))
    # the reflection: f sends e2:y to e1:2-y and e1:x to e2:2-x
    assert word_domain(s, "f h") == seg("e2", 1, F(3, 2))
    assert word_domain(s, "f h'") == seg("e1", 0, F(1, 2))
    # the image of h crosses c: e1 [1, 3/2] lands on e3 [0, 1/2]
    assert word_domain(s, "h g") == seg("e1", 1, F(3, 2))
    assert word_domain(s, "g q p") == point(host.point("e3", F(1, 2)))
    assert word_domain(s, "q p") == point(host.point("e3", F(3, 2)))
    assert word_domain(s, "p' q'") == point(host.vertex_point("z"))
    assert word_domain(s, []) == s.support


def test_tripod_walk_matches_oracles():
    s = tripod()
    for depth in range(1, 4):
        check_walk(s, depth)


def test_dotted_words_meeting_at_a_vertex():
    """The sides f' and g of a dotted word meet only at the vertex c."""
    s = tripod()
    leaves = {leaf.key(): leaf.domain for leaf in dotted_words(s, 1)}
    assert leaves[(("f'",), ("g",))] == Subforest(
        s.forest, {}, frozenset([s.forest.vertex_point("c")]))


@st.composite
def interval_systems(draw):
    """A valid system of translation and flip bands over Q on one edge, or
    on a path of two edges of drawn orientations; a band of length 0 is a
    lone point.  Coordinates lie on a grid of quarters, so bands often end
    at a vertex or touch each other."""
    lengths = [draw(st.integers(1, 8)) for _ in range(draw(st.integers(1, 2)))]
    forward = [draw(st.booleans()) for _ in lengths]
    names = ["v0", "v1", "v2"][:len(lengths) + 1]
    edges = [Edge(f"e{i}", *((names[i], names[i + 1]) if fw else
                             (names[i + 1], names[i])), Q(n, 4))
             for i, (n, fw) in enumerate(zip(lengths, forward))]
    host = MetricForest(names, edges)

    def at(k):
        """The point k quarters along the path from v0."""
        for n, fw, e in zip(lengths, forward, edges):
            if k <= n:
                return host.point(e.id, Q(k if fw else n - k, 4))
            k -= n
        raise AssertionError

    total = sum(lengths)
    vertices = [0, lengths[0], total]

    def offset(lo, hi):
        """A grid point in [lo, hi], drawn often at a vertex."""
        return draw(st.sampled_from([k for k in vertices if lo <= k <= hi])
                    | st.integers(lo, hi))

    bands = []
    for name in "abc"[:draw(st.integers(1, 3))]:
        lo = offset(0, total)
        n = offset(lo, total) - lo
        to = offset(0, total - n) if draw(st.booleans()) else offset(n, total) - n
        q0, q1 = at(to), at(to + n)
        if draw(st.booleans()):
            q0, q1 = q1, q0
        bands.append(arc_band(host, name, at(lo), at(lo + n), q0, q1))
    return BandSystem(host, tuple(bands))


@settings(max_examples=50, deadline=None)
@given(interval_systems(), st.integers(1, 3))
def test_walk_fuzz(system, depth):
    check_walk(system, depth)


def test_walk_makes_no_apply_calls(monkeypatch):
    """The walk clips and adds on charts built from the markers: no point
    is mapped through a band, at any depth."""
    s = corpus("bk_itm.bands")
    calls = []
    apply = PartialIsometry.apply

    def counted(self, p):
        calls.append(p)
        return apply(self, p)

    monkeypatch.setattr(PartialIsometry, "apply", counted)
    counts = []
    for depth in (2, 6):
        del calls[:]
        dotted_words(s, depth)
        counts.append(len(calls))
    assert counts == [0, 0]


@pytest.mark.parametrize("system", [step6, tripod])
def test_walk_tries_a_letter_only_where_its_domain_meets_the_last_range(
        monkeypatch, system):
    """After a word ending in y the walk extends by x only if dom(x) meets
    range(y) (tested here by intersecting): one extend_chart per such
    (word, letter), on bk_itm_step6 far fewer than per reduced extension."""
    s = system()
    els = s.elements()
    meets = {(y.label, x.label) for y in els for x in els
             if x.label != inverse_label(y.label) and not y.range.intersect(x.domain).is_empty}
    words = [w for w, _ in admissible_words(s, 3)]
    expected = len(els) + sum((w[-1], x.label) in meets for w in words for x in els)
    calls = []
    extend = lamination.extend_chart
    monkeypatch.setattr(lamination, "extend_chart",
                        lambda chart, band: calls.append(band) or extend(chart, band))
    assert admissible_words(s, 4) == oracles.reference_walk(s, 4)
    assert len(calls) == expected
    if system is step6:
        assert expected * 5 < len(els) + len(words) * (len(els) - 1)


# -- the walk and the sweep against the oracles -----------------------------

SYSTEMS = {"bk_itm": lambda: corpus("bk_itm.bands"),
           "e_trim": lambda: corpus("e_trim.bands"),
           "bk_itm_step6": step6, "tripod": tripod}


def dotted(system, depth):
    return [(leaf.left, leaf.right, leaf.domain) for leaf in dotted_words(system, depth)]


def scan_rows(system, depth):
    return sorted((repr(x), (d.edge, d.toward), n) for x, d, n in wh_scan(system, depth))


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_walk_and_dotted_words_match_the_oracles(name):
    """At depths 2, 4 and 5 the words, the dotted words and (at depth 2)
    the scan rows equal the oracles'."""
    s = SYSTEMS[name]()
    for depth in (2, 4, 5):
        assert admissible_words(s, depth) == oracles.reference_walk(s, depth)
        got = dotted(s, depth)
        assert got == oracles.reference_dotted_words(s, depth)
        if depth == 2:
            assert got == oracles.brute_dotted(s, depth)
            assert scan_rows(s, depth) == sorted(oracles.brute_wh_scan(s, depth))


@pytest.mark.parametrize("depth", [6, 7, 8])
def test_sweep_pairs_as_all_pairs_on_bk_itm(depth):
    s = corpus("bk_itm.bands")
    sides = [(w, dom) for w, dom in admissible_words(s, depth) if len(w) == depth]
    assert dotted(s, depth) == oracles.brute_dotted(s, depth, sides=sides)


@pytest.mark.parametrize("name", ["tripod", "bk_itm.bands", "e_trim.bands"])
def test_sweep_pairs_as_all_pairs_where_spans_touch(name):
    """On hosts whose sides meet only at one point of an edge or at a
    vertex (the tripod, and corpus systems in zigzag coordinates), the
    sweep pairs the sides as testing every pair does."""
    from test_isometry import zigzag  # test_isometry imports this module

    s = tripod() if name == "tripod" else zigzag(corpus(name))
    at_vertex = 0
    for depth in range(1, 5):
        sides = [(w, dom) for w, dom in admissible_words(s, depth) if len(w) == depth]
        got = dotted(s, depth)
        assert got == oracles.brute_dotted(s, depth, sides=sides)
        at_vertex += sum(len(dom.intervals) != 1 for _, _, dom in got)
    assert at_vertex  # some domains are lone points or cross a vertex


def test_word_charts_carry_no_covered_point_pieces():
    """No point piece of a word's chart has its domain point inside an
    interval piece of the same chart, though the tripod's bands list the
    vertex c on each edge at it; the domains still equal the marker walk."""
    s = tripod()
    host = s.forest
    points = 0
    for depth in (3, 5):
        for w, chart in _walk(s, depth):
            cover = chart_domain(host, [p for p in chart if p[4] != p[5]])
            pts = [host.cell_point(c, t - lo if f else lo - t)
                   for c, _, f, t, lo, hi in chart if lo == hi]
            assert not any(cover.contains(p) for p in pts), w
            points += len(pts)
    assert points
    check_walk(s, 5, brute=False)
