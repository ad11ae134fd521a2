import importlib.resources as resources
from fractions import Fraction as F

import pytest

from ripslab.fileformat import parse_system, parse_system_text
from ripslab.forest import Direction
from ripslab.lamination import LeafWord, limit_set
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

from oracles import (brute_check_complete_bipartite_33, brute_wh_scan,
                     reference_detect_pattern)


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


@pytest.mark.parametrize("name", ["bk_itm.bands", "e_surf.bands",
                                  "e_trim.bands"])
@pytest.mark.parametrize("depth", [2, 3, 4])
def test_detect_pattern_matches_reference(name, depth):
    """One shared scan gives the certificate (or NotFound) of the per-row
    walk with a directional_whitehead graph per row."""
    s = corpus(name)
    assert detect_pattern(s, depth) == reference_detect_pattern(s, depth)


def test_wh_scan_sorted_descending(e_surf):
    counts = [n for _, _, n in wh_scan(e_surf, 3)]
    assert counts == sorted(counts, reverse=True)


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
