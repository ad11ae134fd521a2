import importlib.resources as resources
from fractions import Fraction as F

import pytest

from ripslab.fileformat import parse_system, parse_system_text
from ripslab.forest import Direction, Subforest, point_key
from ripslab import lamination, whitehead
from ripslab.lamination import LeafWord, admissible_words, leaves_at, limit_set
from ripslab.rips import classify
from ripslab.scalar import Scalar
from ripslab.whitehead import (
    InvalidDirection,
    MalformedCertificate,
    NotFound,
    PatternCertificate,
    candidate_points,
    detect_pattern,
    directional_whitehead,
    k33_certificate,
    wh_scan,
)

from oracles import (brute_check_complete_bipartite_33, brute_dotted, brute_wh_scan,
                     pruned_brute_sides, reference_detect_pattern, reference_point_on_side)
from test_lamination import step6, tripod


def corpus(name):
    return parse_system(str(resources.files("ripslab") / "corpus" / name))


@pytest.fixture(scope="module")
def e_surf():
    return corpus("e_surf.bands")


@pytest.fixture(scope="module")
def e_trim():
    return corpus("e_trim.bands")


@pytest.fixture(scope="module")
def bk_itm():
    return corpus("bk_itm.bands")


SINGLE = """
tree
vertex u
vertex v
edge e0 u v 2
band a
map e0:0 -> e0:1
map e0:1 -> e0:2
"""


def test_surface_system_stays_thin(e_surf):
    x = e_surf.forest.point("e0", F(3, 2))
    for d in e_surf.forest.directions_at(x):
        g = directional_whitehead(e_surf, x, d, 4)
        assert g.edge_count <= 1
        assert g.depth == 4


def test_invalid_direction(e_surf):
    x = e_surf.forest.point("e0", F(3, 2))
    y = e_surf.forest.point("e0", F(1, 2))
    d = Direction(y, "e0", 1)
    with pytest.raises(InvalidDirection):
        directional_whitehead(e_surf, x, d, 2)


def test_depth_validation(e_surf):
    x = e_surf.forest.point("e0", 1)
    d = e_surf.forest.directions_at(x)[0]
    with pytest.raises(ValueError):
        directional_whitehead(e_surf, x, d, 0)
    with pytest.raises(ValueError):
        wh_scan(e_surf, 0)


def test_dead_point_has_no_edges(e_trim):
    x = e_trim.forest.point("e0", F(11, 20))
    for d in e_trim.forest.directions_at(x):
        assert directional_whitehead(e_trim, x, d, 2).edge_count == 0


def test_single_band_all_zero():
    s = parse_system_text(SINGLE)
    rows = wh_scan(s, 3)
    assert rows and all(n == 0 for _, _, n in rows)


def test_candidate_points_in_support(e_trim):
    pts = candidate_points(e_trim)
    assert len(pts) == len(set(pts))
    for p in pts:
        assert e_trim.support.contains(p)
    for band in e_trim.elements():
        for q in band.domain.extremal_points():
            assert q in pts


@pytest.mark.parametrize("name,depth", [("e_surf.bands", 3),
                                        ("e_trim.bands", 3),
                                        ("bk_itm.bands", 2),
                                        ("bk_itm.bands", 3),
                                        ("bk_itm.bands", 4)])
def test_wh_scan_matches_oracle(name, depth):
    s = corpus(name)
    fast = sorted((repr(x), (d.edge, d.toward), n)
                  for x, d, n in wh_scan(s, depth))
    assert fast == sorted(brute_wh_scan(s, depth))


@pytest.mark.parametrize("name", ["bk_itm.bands", "e_trim.bands", "step6", "tripod"])
def test_wh_scan_matches_oracle_to_depth_6(name):
    """The scan's rows and counts against the per-row oracle, with the
    dotted words of the pruned brute walk."""
    s = {"step6": step6, "tripod": tripod}.get(name, lambda: corpus(name))()
    for depth in range(2, 7):
        rows = wh_scan(s, depth)
        assert rows == sorted(rows, key=lambda r: (-r[2], point_key(r[0]),
                                                   (r[1].edge, r[1].toward)))
        dotted = brute_dotted(s, depth, sides=pruned_brute_sides(s, depth))
        fast = sorted((repr(x), (d.edge, d.toward), n) for x, d, n in rows)
        assert fast == sorted(brute_wh_scan(s, depth, dotted)), depth


@pytest.mark.parametrize("name", ["bk_itm.bands", "e_surf.bands",
                                  "e_trim.bands"])
@pytest.mark.parametrize("depth", [2, 3, 4])
def test_detect_pattern_matches_reference(name, depth):
    """One shared scan gives the certificate (or NotFound) of the per-row
    walk with a directional_whitehead graph per row."""
    s = corpus(name)
    assert detect_pattern(s, depth) == reference_detect_pattern(s, depth)


@pytest.mark.parametrize("name", ["bk_itm.bands", "step6", "tripod"])
def test_point_on_side_exists_for_every_edge(name):
    """At every row with two or more edges, depths 2-6, each edge's domain
    has the point detect_pattern asks for, inside the row's direction, as
    the oracle's search over every component and extremal point finds it."""
    system = {"step6": step6, "tripod": tripod}.get(name, lambda: corpus(name))()
    forest, rows = system.forest, 0
    for depth in range(2, 7):
        for x, d, edges in whitehead._scan(system, depth):
            if len(edges) < 2:
                break
            rows += 1
            for leaf in edges:
                for den in (2, 3, 4):
                    p = whitehead._point_on_side(system, leaf, x, d, 1, den)
                    assert p == reference_point_on_side(system, leaf, x, d, 1, den)
                    assert leaf.domain.contains(p) and forest.direction_towards(x, p) == d
    assert rows


def test_wh_scan_sorted_descending(e_surf):
    counts = [n for _, _, n in wh_scan(e_surf, 3)]
    assert counts == sorted(counts, reverse=True)


def test_wh_scan_breaks_ties_by_point_key(bk_itm):
    keys = [(-n, point_key(x), (d.edge, d.toward))
            for x, d, n in wh_scan(bk_itm, 3)]
    assert keys == sorted(keys)


def test_edge_truncation_monotone(bk_itm):
    """Every depth-(d+1) edge truncates to a depth-d edge."""
    x = bk_itm.forest.vertex_point("u")
    d = Direction(x, "e0", 1)
    shallow = {leaf.key() for leaf in
               directional_whitehead(bk_itm, x, d, 2).edges}
    for leaf in directional_whitehead(bk_itm, x, d, 3).edges:
        u, v = leaf.left[:2], leaf.right[:2]
        key = (u, v) if u <= v else (v, u)
        assert key in shallow


def test_levitt_system_is_thick(bk_itm):
    rows = wh_scan(bk_itm, 1)
    assert max(n for _, _, n in rows) >= 2


def test_detect_pattern_surface(e_surf):
    for depth in (2, 4):
        r = detect_pattern(e_surf, depth)
        assert isinstance(r, NotFound)
        assert not r
        assert r.depth == depth


def test_detect_pattern_empty_system(e_surf):
    empty = parse_system_text(
        "tree\nvertex u\nvertex v\nedge e0 u v 1\nsupport\n")
    assert isinstance(detect_pattern(empty, 3), NotFound)


def test_detect_pattern_levitt(bk_itm):
    cert = detect_pattern(bk_itm, 2)
    assert isinstance(cert, PatternCertificate)
    assert cert.validate() == []
    assert cert.end_class_count >= 3
    assert cert.b != cert.a and cert.c != cert.a and cert.b != cert.c
    f = bk_itm.forest
    assert f.direction_towards(cert.a, cert.b) == cert.d
    assert f.direction_towards(cert.a, cert.c) == cert.d


def test_k33_from_detected_pattern(bk_itm):
    cert = k33_certificate(detect_pattern(bk_itm, 2))
    assert cert.validate() == []
    assert brute_check_complete_bipartite_33([(u, v)
                                              for u, v, _ in cert.edges])
    dot = cert.to_dot()
    assert dot.count(" -- ") == 9
    for v in cert.left + cert.right:
        assert f'"{v}"' in dot


def _synthetic_pattern(e_surf):
    f = e_surf.forest
    a = f.point("e0", 1)
    d = Direction(a, "e0", 1)
    seg = f.segment(f.point("e0", F(1, 2)), f.point("e0", 2))
    l1 = LeafWord(("a'",), ("b",), seg)
    l2 = LeafWord(("b'",), ("a",), seg)
    b = f.point("e0", F(5, 4))
    c = f.point("e0", F(3, 2))
    return PatternCertificate(a, d, l1, l2, 3, b, l1, c, l2, 1)


def test_k33_synthetic(e_surf):
    cert = k33_certificate(_synthetic_pattern(e_surf))
    notes = [n for _, _, n in cert.edges]
    assert len(set(notes)) == 9
    assert brute_check_complete_bipartite_33([(u, v)
                                              for u, v, _ in cert.edges])


def test_k33_rejects_malformed(e_surf):
    import dataclasses
    good = _synthetic_pattern(e_surf)
    for bad in (dataclasses.replace(good, end_class_count=2),
                dataclasses.replace(good, b=good.a),
                dataclasses.replace(good, c=good.b),
                dataclasses.replace(good, l2=good.l1)):
        with pytest.raises(MalformedCertificate):
            k33_certificate(bad)


def test_k33_checker_rejects_non_k33():
    assert not brute_check_complete_bipartite_33(
        [("a", "b"), ("c", "d")])
    square = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]
    assert not brute_check_complete_bipartite_33(square)


def test_no_order_or_decision_reads_a_decimal(monkeypatch, e_trim, bk_itm):
    """Every ordering and decision is exact: with Scalar.to_decimal made to
    raise, the Rips machine and the lamination analyses still run."""
    def refuse(self, digits):
        raise AssertionError("to_decimal called outside reporting code")

    monkeypatch.setattr(Scalar, "to_decimal", refuse)
    classify(bk_itm, 5)
    for system, depth in ((e_trim, 3), (bk_itm, 2)):
        wh_scan(system, depth)
        detect_pattern(system, depth)
        limit_set(system, depth)


@pytest.mark.parametrize("widening", [2.0**-20, 2.0**-4])
def test_widened_enclosures_change_no_answer(monkeypatch, widening):
    """No answer rests on a float: with every newly computed enclosure
    widened by a share of its bounds, the Rips verdict, the scan and the
    pattern stay the same.  Enclosures are rarely narrower than 2^-16 here
    (the isolating interval's width after the run's refinements), so only
    the wider setting makes the exact fallback decide more order tests."""
    def answers():
        signs = []
        sign = Scalar.sign

        def counted(self):
            signs.append(self)
            return sign(self)

        with monkeypatch.context() as m:
            m.setattr(Scalar, "sign", counted)
            system = corpus("bk_itm.bands")
            got = (classify(system, 10), wh_scan(system, 3), detect_pattern(system, 3))
        return got, len(signs)

    plain, plain_signs = answers()
    enclose = Scalar._enclose

    def widened(self):
        (lo, hi), rev = enclose(self)
        return (lo - abs(lo) * widening, hi + abs(hi) * widening), rev

    monkeypatch.setattr(Scalar, "_enclose", widened)
    x = corpus("bk_itm.bands").field.element([1, 1])
    (lo, hi), _ = enclose(x)
    assert x.enclosure() == x._enc == (lo - lo * widening, hi + hi * widening)
    wide, wide_signs = answers()
    assert wide == plain
    assert wide_signs >= plain_signs
    if widening > 2.0**-16:
        assert wide_signs > 2 * plain_signs


def test_each_read_walks_once(monkeypatch):
    """The readers of one system share one walk.  The six readers at depth
    4 together extend as many charts as one walk to depth 4; a following
    depth-5 read extends only the words of length 4, with the calls that
    a walk to depth 5 makes beyond one to depth 4.  On a fresh parse each
    reader still walks once."""
    calls = []
    extend = lamination.extend_chart

    def counted(chart, band):
        calls.append(chart)
        return extend(chart, band)

    monkeypatch.setattr(lamination, "extend_chart", counted)

    def walk(depth):
        del calls[:]
        admissible_words(corpus("bk_itm.bands"), depth)
        return len(calls)

    def at_u(s):
        x = s.forest.vertex_point("u")
        return x, Direction(x, "e0", 1)

    one_walk, deeper = walk(4), walk(5)
    reads = (lambda s: admissible_words(s, 4), lambda s: wh_scan(s, 4),
             lambda s: detect_pattern(s, 4), lambda s: limit_set(s, 4),
             lambda s: leaves_at(s, at_u(s)[0], 4),
             lambda s: directional_whitehead(s, *at_u(s), 4))
    for read in reads:
        del calls[:]
        read(corpus("bk_itm.bands"))
        assert len(calls) == one_walk
    s = corpus("bk_itm.bands")
    del calls[:]
    for read in reads:
        read(s)
    assert len(calls) == one_walk > 0
    ends = {id(chart) for w, chart in lamination._walk(s, 4) if len(w) == 4}
    del calls[:]
    wh_scan(s, 5)
    assert len(calls) == deeper - one_walk > 0
    assert all(id(chart) in ends for chart in calls)


def test_each_system_finds_its_germs_once_and_bins_each_depth_once(monkeypatch):
    """wh_scan and detect_pattern at depth 3 and then at depth 4 read one
    stored scan of the system: its candidate points and their germs are
    found once, and the dotted words of each depth are binned once."""
    found, germs, binned = [], [], []
    candidates, germ_directions = whitehead.candidate_points, Subforest.germ_directions
    dotted = whitehead.dotted_words
    monkeypatch.setattr(whitehead, "candidate_points",
                        lambda s: found.append(s) or candidates(s))
    monkeypatch.setattr(Subforest, "germ_directions",
                        lambda sub, p: germs.append(p) or germ_directions(sub, p))
    monkeypatch.setattr(whitehead, "dotted_words",
                        lambda s, depth: binned.append(depth) or dotted(s, depth))
    s = corpus("bk_itm.bands")
    for depth in (3, 4):
        wh_scan(s, depth)
        detect_pattern(s, depth)
    assert len(found) == 1
    assert germs == candidates(s)
    assert binned == [3, 4]
