import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hosts import is_point, refine, summary
import oracles
from ripslab import isometry
from ripslab.fileformat import parse_system_text
from ripslab.forest import Edge, MetricForest, Point
from ripslab.isometry import (
    BandSystem,
    IsometryError,
    OutOfDomain,
    PartialIsometry,
    ValidationError,
    band_from_markers,
)
from ripslab.rips import run
from ripslab.scalar import rational as Q
from test_lamination import corpus, interval_systems, tripod


@pytest.fixture()
def line3():
    return MetricForest(["u", "v"], [Edge("e0", "u", "v", Q(3))])


def shift(host, name, lo, hi, by):
    return band_from_markers(host, name,
                             ((host.point("e0", lo), host.point("e0", lo + by)),
                              (host.point("e0", hi), host.point("e0", hi + by))))


def test_apply_translation(line3):
    a = shift(line3, "a", 0, 2, 1)
    assert a.apply(line3.point("e0", Q(1, 2))) == line3.point("e0", Q(3, 2))
    assert a.apply(line3.point("e0", 0)) == line3.point("e0", 1)
    assert a.apply(line3.point("e0", 2)) == line3.point("e0", 3)


def test_apply_out_of_domain(line3):
    a = shift(line3, "a", 0, 2, 1)
    with pytest.raises(OutOfDomain):
        a.apply(line3.point("e0", Q(5, 2)))


def test_orientation_reversing(line3):
    a = band_from_markers(line3, "r", ((line3.point("e0", 0), line3.point("e0", 1)),
                                       (line3.point("e0", 1), line3.point("e0", 0))))
    assert a.apply(line3.point("e0", Q(1, 4))) == line3.point("e0", Q(3, 4))


def test_inverse_law(line3):
    a = shift(line3, "a", 0, 2, 1)
    rng = random.Random(2)
    for _ in range(25):
        p = line3.point("e0", Fraction(rng.randint(0, 16), 8))
        assert a.inverse().apply(a.apply(p)) == p
    assert a.inverse().label == "a'"
    assert a.inverse().inverse() == a


def test_preserves_distance(line3):
    a = shift(line3, "a", 0, 2, 1)
    rng = random.Random(4)
    for _ in range(50):
        p = line3.point("e0", Fraction(rng.randint(0, 32), 16))
        q = line3.point("e0", Fraction(rng.randint(0, 32), 16))
        assert line3.distance(p, q) == line3.distance(a.apply(p), a.apply(q))


def test_image_of_segment(line3):
    a = shift(line3, "a", 0, 2, 1)
    s = line3.segment(line3.point("e0", Q(1, 2)), line3.point("e0", 1))
    img = a.image_of(s)
    assert img == line3.segment(line3.point("e0", Q(3, 2)), line3.point("e0", 2))


def test_restrict(line3):
    a = shift(line3, "a", 0, 2, 1)
    d = line3.segment(line3.point("e0", 0), line3.point("e0", 1))
    r = a.restrict(d)
    assert r.domain == d
    assert r.range == line3.segment(line3.point("e0", 1), line3.point("e0", 2))
    assert not r.validate()


def test_restrict_antitone(line3):
    a = shift(line3, "a", 0, 2, 1)
    big = line3.segment(line3.point("e0", 0), line3.point("e0", Q(3, 2)))
    small = line3.segment(line3.point("e0", Q(1, 2)), line3.point("e0", 1))
    rb, rs = a.restrict(big), a.restrict(small)
    assert rs.domain.issubset(rb.domain)
    assert rs.range.issubset(rb.range)


def test_restrict_to_disjoint_is_none(line3):
    a = shift(line3, "a", 0, 1, 2)
    d = line3.segment(line3.point("e0", Q(3, 2)), line3.point("e0", 2))
    assert a.restrict(d) is None


def test_restrict_to_point(line3):
    a = shift(line3, "a", 0, 2, 1)
    d = line3.segment(line3.point("e0", 1), line3.point("e0", 1))
    r = a.restrict(d)
    assert is_point(r.domain)
    assert is_point(r.range) and r.range.points == {line3.point("e0", 2)}


def test_validate_distance_violation(line3):
    dom = line3.segment(line3.point("e0", 0), line3.point("e0", 1))
    rng = line3.segment(line3.point("e0", 1), line3.point("e0", 3))
    bad = PartialIsometry("x", dom, rng,
                          ((line3.point("e0", 0), line3.point("e0", 1)),
                           (line3.point("e0", 1), line3.point("e0", 3))))
    problems = bad.validate()
    assert any("distance violation" in v for v in problems)


def test_validate_surjectivity_violation(line3):
    dom = line3.segment(line3.point("e0", 0), line3.point("e0", 1))
    rng = line3.segment(line3.point("e0", 1), line3.point("e0", 3))
    bad = PartialIsometry("x", dom, rng,
                          ((line3.point("e0", 0), line3.point("e0", 1)),
                           (line3.point("e0", 1), line3.point("e0", 2))))
    problems = bad.validate()
    assert any("surjectivity" in v for v in problems)


def test_validate_reports_a_domain_with_a_branch_point_in_another_tree():
    """A domain that is not the markers' hull, here the whole tripod host
    with its branch point c, while the markers sit at the lone vertex z,
    is reported as a violation: the branch-point check, which measures
    from the markers to c, is not reached."""
    host = tripod().forest
    a, z = host.vertex_point("a"), host.vertex_point("z")
    bad = PartialIsometry("p", host.whole(), host.whole(), ((z, a), (z, a)), True)
    assert bad.validate() == [
        "band p': markers do not span the domain (missing extremal markers)",
        "band p': surjectivity violation (marker images do not span the range)"]


def test_validate_reports_markers_in_two_trees():
    """A band built directly on a host of two trees, with markers in both,
    is reported as spanning components."""
    host = MetricForest(["u", "v", "x", "y"],
                        [Edge("e0", "u", "v", Q(1)), Edge("e1", "x", "y", Q(1))])
    u, x = host.vertex_point("u"), host.vertex_point("x")
    bad = PartialIsometry("s", host.whole(), host.whole(), ((u, u), (x, x)))
    assert bad.validate() == ["band s: markers span components"]


def test_validate_lets_other_errors_of_distance_propagate(line3, monkeypatch):
    """Only DifferentComponents reads as markers in two trees: any other
    error raised while measuring the markers is the program's, and
    propagates instead of being reported as a violation of the band."""
    band = shift(line3, "a", 0, 2, 1)

    def fail(p, q):
        raise RuntimeError("distance failed")

    monkeypatch.setattr(line3, "distance", fail)
    with pytest.raises(RuntimeError, match="distance failed"):
        band.validate()


def test_arc_band_rejects_unequal_lengths(line3):
    with pytest.raises(ValidationError):
        band_from_markers(line3, "x", ((line3.point("e0", 0), line3.point("e0", 1)),
                                       (line3.point("e0", 1), line3.point("e0", 3))))


def test_band_through_branch_point():
    tripod = MetricForest(
        ["c", "t1", "t2", "t4"],
        [Edge("l1", "c", "t1", Q(1)),
         Edge("l2", "c", "t2", Q(2)),
         Edge("l4", "c", "t4", Q(4))])
    # fold the leg toward t2 onto the segment [t1, c..t4 at 1]
    a = band_from_markers(tripod, "f", ((tripod.vertex_point("t2"), tripod.vertex_point("t1")),
                                        (tripod.point("l2", 0), tripod.point("l4", 1))))
    assert not a.validate()
    # the branch point c is interior to the range arc, image of l2-midpoint
    assert a.apply(tripod.point("l2", 1)) == tripod.vertex_point("c")


def test_band_system_basics(line3):
    a = shift(line3, "a", 0, 2, 1)
    b = shift(line3, "b", 0, 1, 2)
    sys = BandSystem(line3, (a, b))
    assert len(sys.elements()) == 4
    assert sys.band("a'").domain == a.range
    assert not sys.validate()
    assert sys.max_domain_diameter() == Q(2)
    assert summary(sys)["bands"] == 2


def test_band_system_duplicate_labels(line3):
    a = shift(line3, "a", 0, 2, 1)
    with pytest.raises(IsometryError):
        BandSystem(line3, (a, a))


def test_band_system_rejects_inverted(line3):
    a = shift(line3, "a", 0, 2, 1)
    with pytest.raises(IsometryError):
        BandSystem(line3, (a.inverse(),))


def test_band_system_support_violation(line3):
    a = shift(line3, "a", 0, 2, 1)
    small = line3.segment(line3.point("e0", 0), line3.point("e0", 2))
    sys = BandSystem(line3, (a,), support=small)
    assert any("support" in v for v in sys.validate())


# -- the chart against the marker oracles -----------------------------------

def sample_points(host, s, rng, n):
    """The vertices, lone points and interval ends of s, and n random
    points on each of its intervals, on a grid of sixteenths."""
    pts = [Point(vertex=v) for v in host.vertices if s.contains(Point(vertex=v))]
    pts += list(s.points)
    for eid, ivs in s.intervals.items():
        for lo, hi in ivs:
            pts += [host.point(eid, x) for x in (lo, hi)]
            pts += [host.point(eid, lo + (hi - lo) * Q(rng.randint(0, 16), 16))
                    for _ in range(n)]
    return pts


def zigzag(system):
    """The same maps on the host cut at every marker, with every other new
    edge reversed: coordinates in which images cross vertices and a
    translation's pieces flip."""
    marks = [p for b in system.bands for pair in b.correspondence for p in pair]
    cut, relabel = refine(system.forest, marks)
    flipped = {e.id for e in cut.edges[1::2]}
    host = MetricForest(cut.vertices, [Edge(e.id, e.v, e.u, e.length)
                                       if e.id in flipped else e for e in cut.edges])

    def point(p):
        q = relabel.point(p)
        if q.is_vertex or q.edge not in flipped:
            return q
        return host.point(q.edge, host.edge_of(q.edge).length - q.offset)

    bands = []
    for b in system.bands:
        corr = tuple((point(m), point(i)) for m, i in b.correspondence)
        bands.append(PartialIsometry(b.name, host.hull([m for m, _ in corr]),
                                     host.hull([i for _, i in corr]), corr))
    out = BandSystem(host, tuple(bands))
    assert out.validate() == []
    return out


def check_chart(band, rng, n=4):
    """apply on points of the host, image_of and restrict on sub-arcs of the
    domain agree with the marker interpolation of the oracles."""
    host = band.host
    for p in sample_points(host, host.whole(), rng, n):
        if band.domain.contains(p):
            assert band.apply(p) == oracles.marker_apply(band, p), (band, p)
        else:
            with pytest.raises(OutOfDomain):
                band.apply(p)
    pts = sample_points(host, band.domain, rng, n)
    for _ in range(2 * n):
        s = host.segment(rng.choice(pts), rng.choice(pts))
        assert band.image_of(s) == oracles.marker_image_of(band, s), (band, s)
        assert band.restrict(s) == oracles.marker_restrict(band, s), (band, s)
    assert band.image_of(band.domain) == band.range
    assert band.restrict(band.domain) is band


@pytest.mark.parametrize("name", ["e_surf.bands", "e_trim.bands", "bk_itm.bands"])
def test_chart_matches_markers_on_corpus(name):
    rng = random.Random(5)
    for system in (corpus(name), zigzag(corpus(name))):
        for band in system.elements():
            check_chart(band, rng)


@pytest.mark.parametrize("name", ["bk_itm.bands", "e_trim.bands"])
def test_chart_matches_markers_along_runs(name):
    rng = random.Random(6)
    for rec in run(corpus(name), 10).steps:
        for system in (rec.system, zigzag(rec.system)):
            for band in system.elements():
                check_chart(band, rng, n=1)


@pytest.mark.parametrize("name", ["bk_itm.bands", "e_trim.bands", "tripod"])
def test_carried_and_inverse_charts_match_markers(name, monkeypatch):
    """Along a 10-step run every band keeps the chart clipped from its
    parent's and every inverse inverts its band's chart: once the first
    system's charts are read off its markers, no chart is."""
    system = tripod() if name == "tripod" else corpus(name)
    for band in system.bands:
        band.chart
    monkeypatch.setattr(isometry, "_marker_chart", None)
    rng = random.Random(8)
    for rec in run(system, 10).steps:
        for band in rec.system.elements():
            check_chart(band, rng, n=1)


def test_chart_matches_markers_on_tripod():
    """Several edges, a flip, an image across a vertex, a lone point and a
    lone vertex."""
    rng = random.Random(7)
    for band in tripod().elements():
        check_chart(band, rng, n=8)


@settings(max_examples=50, deadline=None)
@given(interval_systems(), st.randoms(use_true_random=False))
def test_chart_fuzz(system, rng):
    for band in system.elements():
        check_chart(band, rng)


# -- the whole-set identities of image_of and restrict -------------------------

def bk_rational(L):
    """The band layout of bk_itm over Q, with the generator replaced by L."""
    L2 = L * L
    return parse_system_text("\n".join([
        "tree", "vertex u", "vertex v", "edge e0 u v 1",
        "band a", f"map e0:0 -> e0:{1 - L}", f"map e0:{L} -> e0:1",
        "band b", f"map e0:0 -> e0:{1 - L2}", f"map e0:{L2} -> e0:1",
        "band c", f"map e0:0 -> e0:{L + L2}", f"map e0:{1 - L - L2} -> e0:1",
    ]) + "\n")


def check_whole_band_identities(system, steps=30):
    """At every step of a run, every band and its inverse: its chart clipped
    to its whole domain maps it onto its range, which `image_of` returns
    unread, and restricted to its whole domain it is itself."""
    for rec in run(system, steps).steps:
        for band in rec.system.elements():
            assert isometry._clip(band.host, band.chart, band.domain)[1] == band.range, band
            assert band.image_of(band.domain) is band.range
            assert band.restrict(band.domain) is band


@pytest.mark.parametrize("name", ["bk_itm", "bk_rational", "e_trim", "tripod",
                                  "zigzag/e_trim", "zigzag/bk_itm"])
def test_whole_band_identities_along_runs(name):
    if name == "bk_rational":
        # just below the real root of L^3 + L^2 + L - 1, so 30 steps shadow bk_itm
        system = bk_rational(Fraction(543689012, 10 ** 9))
    elif name == "tripod":
        system = tripod()
    else:
        system = corpus(name.rpartition("/")[2] + ".bands")
        system = zigzag(system) if name.startswith("zigzag") else system
    check_whole_band_identities(system)


@settings(max_examples=30, deadline=None)
@given(interval_systems())
def test_whole_band_identities_fuzz(system):
    check_whole_band_identities(system)


# -- validation reads the hulls that band_from_markers built -------------------

def test_parse_builds_each_band_hull_once(monkeypatch):
    """band_from_markers builds a band's domain and range as hulls; neither
    its validation nor the system's validation builds them again."""
    calls = []
    hull = MetricForest.hull

    def counting(host, points):
        calls.append(points)
        return hull(host, points)

    monkeypatch.setattr(MetricForest, "hull", counting)
    system = corpus("bk_itm.bands")
    assert len(system.bands) == 3 and len(calls) == 6


@pytest.mark.parametrize("name", ["e_trim.bands", "bk_itm.bands", "tripod"])
def test_validate_spans_match_hulls(name):
    """validate reports unspanned domains and ranges exactly where the hull
    of the markers, or of their images, is not the domain or the range:
    with all markers, with one left out, and with the whole tree of the
    markers as domain."""
    system = tripod() if name == "tripod" else corpus(name)
    seen = set()
    for rec in run(system, 3).steps:
        for band in rec.system.elements():
            host, corr = band.host, band.correspondence
            cases = [corr] + [corr[:k] + corr[k + 1:] for k in range(len(corr))] + [corr[:1]]
            for sub in filter(None, cases):
                tree = next(c for c in host.whole().components() if c.contains(sub[0][0]))
                for domain in (band.domain, tree):
                    bad = PartialIsometry(band.name, domain, band.range, sub).validate()
                    spans = host.hull([m for m, _ in sub]) == domain
                    seen.add(spans)
                    assert any("do not span the domain" in v for v in bad) != spans, (band, sub)
                    if domain is band.domain:
                        assert any("surjectivity" in v for v in bad) == (
                            host.hull([i for _, i in sub]) != band.range), (band, sub)
    assert seen == {True, False}
