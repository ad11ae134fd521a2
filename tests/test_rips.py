import importlib.resources as resources
from fractions import Fraction

import pytest

import oracles
from ripslab.fileformat import parse_system
from ripslab.forest import Edge, MetricForest, Subforest
from ripslab.isometry import BandSystem, arc_band
from ripslab.rips import (
    Inconclusive,
    SurfaceType,
    ValenceStratification,
    classify,
    is_reduced,
    latest_checkpoint,
    lineage,
    overlap_set,
    rips_step,
    run,
    valence,
)
from ripslab.scalar import rational as Q


def line(length):
    return MetricForest(["u", "v"], [Edge("e0", "u", "v", Q(length))])


def shift(host, name, lo, hi, by):
    return arc_band(host, name,
                    host.point("e0", lo), host.point("e0", hi),
                    host.point("e0", lo + by), host.point("e0", hi + by))


@pytest.fixture()
def e_surf():
    host = line(3)
    return BandSystem(host, (shift(host, "a", 0, 2, 1),
                             shift(host, "b", 0, 1, 2)))


@pytest.fixture()
def e_trim():
    host = line(1)
    return BandSystem(host, (shift(host, "a", 0, Q(1, 2), Q(1, 2)),
                             shift(host, "b", 0, Q(3, 10), Q(6, 10))))


def seg(host, lo, hi):
    return host.segment(host.point("e0", lo), host.point("e0", hi))


# -- valence ---------------------------------------------------------------

def test_valence_e_surf(e_surf):
    host = e_surf.forest
    v = valence(e_surf)
    for x, expected in ((Q(1, 2), 2), (Q(3, 2), 2), (Q(5, 2), 2),
                        (Q(1), 3), (Q(2), 3), (Q(0), 2), (Q(3), 2)):
        assert v.value(host.point("e0", x)) == expected
    ge3 = v.stratum_ge(3)
    assert ge3.volume() == Q(0)
    assert ge3.points == frozenset({host.point("e0", 1), host.point("e0", 2)})


def test_valence_single_band():
    host = line(3)
    sys = BandSystem(host, (shift(host, "a", 0, 1, 2),))
    v = valence(sys)
    assert v.value(host.point("e0", Q(1, 2))) == 1
    assert v.value(host.point("e0", Q(3, 2))) == 0
    assert v.value(host.point("e0", Q(5, 2))) == 1
    assert v.stratum_ge(2).is_empty


def test_valence_empty_bands():
    host = line(3)
    sys = BandSystem(host, ())
    v = valence(sys)
    assert v.stratum_ge(1).is_empty
    assert v.stratum_ge(0) == host.whole()


def test_strata_nested(e_surf):
    v = valence(e_surf)
    for i in range(4):
        assert v.stratum_ge(i + 1).issubset(v.stratum_ge(i))
        assert v.vol_ge(i + 1) <= v.vol_ge(i)


# -- one step --------------------------------------------------------------

def test_step_e_trim(e_trim):
    host = e_trim.forest
    s1 = rips_step(e_trim)
    assert s1.support == seg(host, 0, Q(3, 10)).union(seg(host, Q(6, 10), Q(9, 10)))
    got = sorted([(b.domain, b.range) for b in s1.bands],
                 key=lambda dr: float(dr[0].volume().as_fraction()))
    assert got == [
        (seg(host, Q(1, 10), Q(3, 10)), seg(host, Q(6, 10), Q(8, 10))),
        (seg(host, 0, Q(3, 10)), seg(host, Q(6, 10), Q(9, 10))),
    ]
    assert [lineage(b.name) for b in s1.bands] == ["a", "b"]


def test_step_e_trim_twice(e_trim):
    host = e_trim.forest
    s2 = rips_step(rips_step(e_trim))
    assert s2.support == seg(host, Q(1, 10), Q(3, 10)).union(
        seg(host, Q(6, 10), Q(8, 10)))
    doms = sorted([(b.domain, b.range) for b in s2.bands],
                  key=lambda dr: float(dr[0].volume().as_fraction()))
    assert doms == [
        (seg(host, Q(1, 10), Q(2, 10)), seg(host, Q(7, 10), Q(8, 10))),
        (seg(host, Q(1, 10), Q(3, 10)), seg(host, Q(6, 10), Q(8, 10))),
    ]


def test_step_e_surf_halts(e_surf):
    s1 = rips_step(e_surf)
    assert s1.support == e_surf.forest.whole()
    assert ({b.canonical_key() for b in s1.bands}
            == {b.canonical_key() for b in e_surf.bands})


def test_overlap_keeps_distinct_band_point_touch():
    # dom(a) and dom(b) meet only at x = 1: the point stays in K'
    host = line(3)
    a = shift(host, "a", 0, 1, 2)
    b = arc_band(host, "b", host.point("e0", 1), host.point("e0", 2),
                 host.point("e0", 2), host.point("e0", 3))
    K = overlap_set(BandSystem(host, (a, b)))
    assert K.contains(host.point("e0", 1))


def test_overlap_drops_own_inverse_edge_point_touch():
    # dom(a) = [0, 1] touches dom(a') = [1, 2] only at x = 1
    host = line(3)
    a = shift(host, "a", 0, 1, 1)
    x = host.point("e0", 1)
    alone = BandSystem(host, (a,))
    assert overlap_set(alone).is_empty
    assert oracles.brute_overlap_set(alone).is_empty
    # a point band b based at x: a third domain containing x keeps it
    b = arc_band(host, "b", x, x, host.vertex_point("v"), host.vertex_point("v"))
    both = BandSystem(host, (a, b))
    K = overlap_set(both)
    assert K.points == frozenset([x]) and not K.intervals
    assert K == oracles.brute_overlap_set(both)


def test_overlap_drops_own_inverse_vertex_touch():
    # on a tripod, dom(a) = leg l1 and dom(a') = [c, l2:1] meet only at c
    host = MetricForest(["c", "t1", "t2", "t4"],
                        [Edge("l1", "c", "t1", Q(1)), Edge("l2", "c", "t2", Q(2)),
                         Edge("l4", "c", "t4", Q(4))])
    c = host.vertex_point("c")
    a = arc_band(host, "a", host.vertex_point("t1"), c, host.point("l2", 1), c)
    alone = BandSystem(host, (a,))
    assert not overlap_set(alone).contains(c)
    assert oracles.brute_overlap_set(alone).is_empty
    # dom(b) = [c, l4:1] also contains c, so c stays in K'
    b = arc_band(host, "b", c, host.point("l4", 1),
                 host.point("l4", 2), host.point("l4", 3))
    both = BandSystem(host, (a, b))
    K = overlap_set(both)
    assert K.points == frozenset([c]) and not K.intervals
    assert K == oracles.brute_overlap_set(both)


@pytest.mark.parametrize("name, steps, halts", [
    ("e_surf.bands", 30, True),
    ("e_trim.bands", 30, True),
    ("bk_itm.bands", 12, False),
])
def test_overlap_set_matches_oracle_on_corpus(name, steps, halts):
    path = str(resources.files("ripslab") / "corpus" / name)
    trace = run(parse_system(path), steps)
    assert trace.halted == halts
    for rec in trace.steps:
        assert overlap_set(rec.system) == oracles.brute_overlap_set(rec.system)


@pytest.mark.parametrize("name, steps", [
    ("e_surf.bands", 30),
    ("e_trim.bands", 30),
    ("bk_itm.bands", 4),
])
def test_strata_match_oracle_on_corpus(name, steps):
    """K^{>=i}, i = 1, 2, 3, on every step up to the halt or the budget;
    the cut points of valence above both neighbouring pieces (x = 1 and
    x = 2 in e_surf) are isolated points of K^{>=3}."""
    path = str(resources.files("ripslab") / "corpus" / name)
    for rec in run(parse_system(path), steps).steps:
        strat = valence(rec.system)
        for i in (1, 2, 3):
            assert (strat.stratum_ge(i)
                    == oracles.brute_stratum_ge(rec.system, i)), (rec.index, i)


def test_strata_match_oracle_with_vertex_point_domains():
    # dom(b) = {u} and dom(b') = {v}; u also lies in dom(a) = [0, 1]
    host = line(3)
    u, v = host.vertex_point("u"), host.vertex_point("v")
    s = BandSystem(host, (shift(host, "a", 0, 1, 1),
                          arc_band(host, "b", u, u, v, v)))
    strat = valence(s)
    for i in (1, 2, 3):
        assert strat.stratum_ge(i) == oracles.brute_stratum_ge(s, i), i
    assert overlap_set(s) == Subforest(host, {}, frozenset([u]))


# -- reducedness -----------------------------------------------------------

def test_is_reduced_e_surf(e_surf):
    ok, witness = is_reduced(e_surf)
    assert ok and witness is None


def test_is_reduced_e_trim(e_trim):
    ok, witness = is_reduced(e_trim)
    assert not ok
    label, point = witness
    assert point == e_trim.forest.point("e0", Q(1, 2))


def test_single_band_not_reduced():
    host = line(3)
    sys = BandSystem(host, (shift(host, "a", 0, 1, 2),))
    ok, witness = is_reduced(sys)
    assert not ok


# -- run -------------------------------------------------------------------

def test_run_e_surf(e_surf):
    trace = run(e_surf, 10)
    assert len(trace.steps) == 1
    assert trace.halted and trace.halt_step == 0


def test_run_e_trim_volumes(e_trim):
    trace = run(e_trim, 10)
    vols = [r.volume.as_fraction() for r in trace.steps[:4]]
    assert vols == [1, Fraction(6, 10), Fraction(4, 10), Fraction(2, 10)]
    host = e_trim.forest
    assert trace.steps[3].system.support == seg(host, Q(1, 10), Q(2, 10)).union(
        seg(host, Q(7, 10), Q(8, 10)))


def test_run_e_trim_halts_after_collapse(e_trim):
    trace = run(e_trim, 20)
    assert trace.halted
    assert trace.final.support.is_empty
    # supports are nested and summaries recomputable
    for prev, rec in zip(trace.steps, trace.steps[1:]):
        assert rec.system.support.issubset(prev.system.support)
        assert rec.volume == rec.system.support.volume()
        assert rec.bands == len(rec.system.bands)


def test_run_point_band_phase(e_trim):
    # step 4 of E_trim carries a surviving point band before extinction
    trace = run(e_trim, 20)
    rec = trace.steps[4]
    assert rec.volume.sign() == 0 and rec.bands >= 1
    assert any(b.domain.is_point for b in rec.system.bands)


def test_run_empty_system():
    host = line(3)
    trace = run(BandSystem(host, ()), 5)
    assert trace.halted
    assert trace.final.support.is_empty


def test_run_stratifies_each_system_once(monkeypatch):
    """Step i's record and the overlap set of step i + 1 read the same
    stratification, so a run makes one per record."""
    made = []
    init = ValenceStratification.__init__

    def counting(self, system):
        made.append(system)
        init(self, system)

    monkeypatch.setattr(ValenceStratification, "__init__", counting)
    path = str(resources.files("ripslab") / "corpus" / "bk_itm.bands")
    trace = run(parse_system(path), 30)
    assert len(trace.steps) == 31 and not trace.halted
    assert len(made) == 31


def test_run_numbers_steps_from_start(e_trim, tmp_path):
    trace = run(e_trim, 2, checkpoint=str(tmp_path), start=3)
    assert [r.index for r in trace.steps] == [3, 4, 5]
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["step-3.bands", "step-4.bands", "step-5.bands"]
    i, system = latest_checkpoint(str(tmp_path))
    assert i == 5 and system.support == trace.final.support
    assert latest_checkpoint(str(tmp_path / "none")) is None


def test_lineage_through_steps(e_trim):
    trace = run(e_trim, 10)
    for prev, rec in zip(trace.steps, trace.steps[1:]):
        parents = {b.name for b in prev.system.bands}
        for b in rec.system.bands:
            assert lineage(b.name) in parents


# -- classification --------------------------------------------------------

def test_classify_e_surf(e_surf):
    c = classify(e_surf, 50, Fraction(1, 10))
    assert c.verdict == SurfaceType(0)


def test_classify_e_trim(e_trim):
    c = classify(e_trim, 50, Fraction(1, 10))
    assert isinstance(c.verdict, SurfaceType)
    assert c.verdict.halt_step == 5


def test_classify_inconclusive_on_budget():
    # a one-step budget on E_trim cannot certify anything
    host = line(1)
    sys = BandSystem(host, (shift(host, "a", 0, Q(1, 2), Q(1, 2)),
                            shift(host, "b", 0, Q(3, 10), Q(6, 10))))
    c = classify(sys, 1, Fraction(1, 2))
    assert isinstance(c.verdict, Inconclusive)


def test_classify_rejects_bad_ratio(e_surf):
    with pytest.raises(ValueError):
        classify(e_surf, 5, Fraction(3, 2))
