import collections
import gc
import importlib.resources as resources
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings

from hosts import is_point
import oracles
from ripslab import isometry
from ripslab.fileformat import parse_system
from ripslab.forest import Edge, MetricForest, Subforest
from ripslab.isometry import BandSystem, PartialIsometry, band_from_markers
from ripslab.rips import (
    Inconclusive,
    RipsTrace,
    StepRecord,
    SurfaceType,
    ValenceStratification,
    classify,
    is_reduced,
    judge,
    latest_checkpoint,
    lineage,
    overlap_set,
    rips_step,
    run,
    same_system,
)
from ripslab.scalar import rational as Q
from test_isometry import zigzag
from test_lamination import corpus, interval_systems, step6, tripod


def line(length):
    return MetricForest(["u", "v"], [Edge("e0", "u", "v", Q(length))])


def shift(host, name, lo, hi, by):
    return band_from_markers(host, name,
                             ((host.point("e0", lo), host.point("e0", lo + by)),
                              (host.point("e0", hi), host.point("e0", hi + by))))


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

def assert_valences(system, expected):
    """Each point has the oracle's valence and lies in exactly the strata
    K^{>=k} with k at most that valence."""
    strata = system.strata
    for p, n in expected:
        assert oracles.brute_valence(system, p) == n, p
        assert ([strata.stratum_ge(k).contains(p) for k in range(1, 5)]
                == [n >= k for k in range(1, 5)]), p


def test_valence_e_surf(e_surf):
    host = e_surf.forest
    v = e_surf.strata
    assert_valences(e_surf, [(host.point("e0", x), n) for x, n in (
        (Q(1, 2), 2), (Q(3, 2), 2), (Q(5, 2), 2),
        (Q(1), 3), (Q(2), 3), (Q(0), 2), (Q(3), 2))])
    ge3 = v.stratum_ge(3)
    assert ge3.volume() == Q(0)
    assert ge3.points == frozenset({host.point("e0", 1), host.point("e0", 2)})


def test_valence_single_band():
    host = line(3)
    sys = BandSystem(host, (shift(host, "a", 0, 1, 2),))
    assert_valences(sys, [(host.point("e0", Q(1, 2)), 1),
                          (host.point("e0", Q(3, 2)), 0),
                          (host.point("e0", Q(5, 2)), 1)])
    assert sys.strata.stratum_ge(2).is_empty


def test_valence_empty_bands():
    host = line(3)
    sys = BandSystem(host, ())
    v = sys.strata
    assert v.stratum_ge(1).is_empty
    assert v.stratum_ge(0) == host.whole()


def test_strata_nested(e_surf):
    v = e_surf.strata
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
    assert ({oracles.reference_band_key(b) for b in s1.bands}
            == {oracles.reference_band_key(b) for b in e_surf.bands})


def check_halting(system, steps=12):
    """same_system against the oracle's comparison of supports and band
    sets at every step of a run, up to `steps` steps or the halt; the
    answers seen."""
    seen = set()
    for _ in range(steps):
        got = rips_step(system)
        halted = same_system(system, got)
        assert halted == oracles.reference_same_system(system, got)
        seen.add(halted)
        if halted:
            break
        system = got
    return seen


def test_same_system_matches_reference_along_runs():
    """K' = K decides the halt: it agrees with the comparison of band sets
    up to relabeling at every step, on the corpus, their zigzag hosts, the
    tripod and step6, both where the run halts and where it does not."""
    systems = [tripod(), step6()]
    for name in ("e_surf.bands", "e_trim.bands", "bk_itm.bands"):
        systems += [corpus(name), zigzag(corpus(name))]
    assert set().union(*map(check_halting, systems)) == {False, True}


@settings(max_examples=60, deadline=None)
@given(interval_systems())
def test_same_system_matches_reference_fuzz(system):
    check_halting(system)


def test_overlap_keeps_distinct_band_point_touch():
    # dom(a) and dom(b) meet only at x = 1: the point stays in K'
    host = line(3)
    a = shift(host, "a", 0, 1, 2)
    b = band_from_markers(host, "b", ((host.point("e0", 1), host.point("e0", 2)),
                                      (host.point("e0", 2), host.point("e0", 3))))
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
    b = band_from_markers(host, "b", ((x, host.vertex_point("v")), (x, host.vertex_point("v"))))
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
    a = band_from_markers(host, "a", ((host.vertex_point("t1"), host.point("l2", 1)), (c, c)))
    alone = BandSystem(host, (a,))
    assert not overlap_set(alone).contains(c)
    assert oracles.brute_overlap_set(alone).is_empty
    # dom(b) = [c, l4:1] also contains c, so c stays in K'
    b = band_from_markers(host, "b", ((c, host.point("l4", 2)),
                                      (host.point("l4", 1), host.point("l4", 3))))
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
        strat = rec.system.strata
        for i in (1, 2, 3):
            assert (strat.stratum_ge(i)
                    == oracles.brute_stratum_ge(rec.system, i)), (rec.index, i)


def test_strata_match_oracle_with_vertex_point_domains():
    # dom(b) = {u} and dom(b') = {v}; u also lies in dom(a) = [0, 1]
    host = line(3)
    u, v = host.vertex_point("u"), host.vertex_point("v")
    s = BandSystem(host, (shift(host, "a", 0, 1, 1),
                          band_from_markers(host, "b", ((u, v), (u, v)))))
    strat = s.strata
    for i in (1, 2, 3):
        assert strat.stratum_ge(i) == oracles.brute_stratum_ge(s, i), i
    assert overlap_set(s) == Subforest(host, {}, frozenset([u]))


def check_strata(system, steps=4):
    """K^{>=i}, i = 1, 2, 3, and K' against the oracles on the system and
    on each step after it, up to `steps` steps or the halt."""
    for rec in run(system, steps).steps:
        s = rec.system
        for i in (1, 2, 3):
            assert s.strata.stratum_ge(i) == oracles.brute_stratum_ge(s, i), (rec.index, i)
        assert overlap_set(s) == oracles.brute_overlap_set(s), rec.index


# hosts of several edges: a vertex shared by edges is held on each of them

@pytest.mark.parametrize("name", ["e_surf.bands", "e_trim.bands", "bk_itm.bands"])
def test_strata_match_oracle_on_zigzag_hosts(name):
    check_strata(zigzag(corpus(name)))


def test_strata_match_oracle_on_tripod_and_step6():
    check_strata(tripod())
    check_strata(step6())


@settings(max_examples=60, deadline=None)
@given(interval_systems())
def test_strata_fuzz(system):
    check_strata(system)


def check_steps(system, steps=8):
    """rips_step against its per-(C_i, C_j) definition, on the system and
    on each step after it, up to `steps` steps or the halt; the oracle's
    systems compared, in order."""
    compared = []
    for _ in range(steps):
        got, want = rips_step(system), oracles.reference_rips_step(system)
        compared.append(want)
        assert got.support == want.support
        assert ([(b.name, b.domain, b.range, b.correspondence) for b in got.bands]
                == [(b.name, b.domain, b.range, b.correspondence)
                    for b in want.bands])
        if same_system(system, got):
            break
        system = got
    return compared


@pytest.mark.parametrize("name", ["e_surf.bands", "e_trim.bands", "bk_itm.bands"])
def test_step_matches_oracle_on_corpus(name):
    check_steps(corpus(name))
    check_steps(zigzag(corpus(name)))


def test_step_matches_oracle_on_tripod_and_step6():
    check_steps(tripod())
    check_steps(step6())


@settings(max_examples=60, deadline=None)
@given(interval_systems())
def test_step_fuzz(system):
    check_steps(system)


def piece_kind(S, K):
    """How the step meets and names S, a nonempty connected subset of K:
    by one dict read when S is a whole stored interval or a lone point of
    K, otherwise through the interval of K holding a point of S."""
    ivs = [(eid, iv) for eid, v in S.intervals.items() for iv in v]
    if S.points:
        return "lone point of K" if S.points <= K.points else "point in an interval of K"
    if len(ivs) > 1:
        return "across a vertex"
    eid, iv = ivs[0]
    return "stored interval of K" if iv in K.intervals.get(eid, ()) else "sub-interval"


WHOLE = {"stored interval of K", "lone point of K"}


def test_step_locator_branches_match_oracle_on_tripod_and_zigzag_hosts():
    """The steps compared with `oracles.reference_rips_step` on the tripod
    and on zigzag hosts (names, domains, ranges and markers equal) have
    D-components of every kind the step's locator tells apart."""
    kinds = {piece_kind(b.domain, want.support)
             for system in (tripod(), zigzag(corpus("e_trim.bands")),
                            zigzag(corpus("bk_itm.bands")))
             for want in check_steps(system) for b in want.bands}
    assert kinds == WHOLE | {"sub-interval", "point in an interval of K", "across a vertex"}


def test_step_meets_and_locates_only_bands_k1_does_not_carry_whole(monkeypatch):
    """A band whose domain and range are each one stored interval or lone
    point of K' is met with K' and named by dict reads: over 30 steps of
    bk_itm, 848 of the 960 bands stepped make no `Subforest.intersect` and
    no `interval_at` call, and every band is mapped by one `image_of`.  A
    band's calls are those from its inverse, which the step takes first,
    to the next band's."""
    owner, made = [None], collections.Counter()
    inverse = PartialIsometry.inverse

    def starting(self):
        owner[0] = self.name
        return inverse(self)

    monkeypatch.setattr(PartialIsometry, "inverse", starting)
    for cls, name in ((Subforest, "intersect"), (Subforest, "interval_at"),
                      (PartialIsometry, "image_of")):
        def counted(*args, _method=getattr(cls, name), _name=name):
            made[_name, owner[0]] += 1
            return _method(*args)
        monkeypatch.setattr(cls, name, counted)
    system, carried, stepped = corpus("bk_itm.bands"), 0, 0
    for _ in range(30):
        K = overlap_set(system)
        made.clear()
        following = rips_step(system)
        for b in system.bands:
            whole = {piece_kind(b.domain, K), piece_kind(b.range, K)} <= WHOLE
            if whole:
                assert made["intersect", b.name] == made["interval_at", b.name] == 0, b.name
            assert made["image_of", b.name] == 1
            carried += whole
        stepped += len(system.bands)
        system = following
    assert (carried, stepped) == (848, 960)


def test_step_reads_spans_markers_and_piece_points_it_already_holds(monkeypatch):
    """Over `classify(bk_itm, 30)` on a parsed system whose charts are read:
    a set's spans are computed once, however often they are read (2,219
    reads of 259 sets); `restrict` reads each marker's image off its clip,
    with no `_map_point` call; and the step names a piece by its first
    marker or that marker's image, so only `restrict` finds extremal
    points (113 calls, one per real restriction)."""
    system = corpus("bk_itm.bands")
    for b in system.bands:
        b.chart
    made = collections.Counter()
    spans, map_point, extremal = Subforest.spans, isometry._map_point, Subforest.extremal_points

    def reading(self):
        made["spans read"] += 1
        made["spans computed"] += getattr(self, "_spans", None) is None
        return spans(self)

    def mapping(*args):
        made["_map_point"] += 1
        return map_point(*args)

    def finding(self):
        made["extremal_points"] += 1
        return extremal(self)

    monkeypatch.setattr(Subforest, "spans", reading)
    monkeypatch.setattr(isometry, "_map_point", mapping)
    monkeypatch.setattr(Subforest, "extremal_points", finding)
    result = classify(system, 30)
    assert str(result.verdict) == "LevittEvidence(30 iterations)"
    assert made["spans read"] == 2219 and made["spans computed"] <= 259
    assert made["_map_point"] == 0
    assert made["extremal_points"] == 113


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
    assert any(is_point(b.domain) for b in rec.system.bands)


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


def test_run_reads_charts_off_markers_only_for_parsed_bands(monkeypatch):
    """Restrictions keep their parent's chart through renaming and inverses
    invert their forward chart, so a run builds one chart from markers per
    parsed band."""
    built = []
    marker_chart = isometry._marker_chart

    def counting(band):
        built.append(band.label)
        return marker_chart(band)

    monkeypatch.setattr(isometry, "_marker_chart", counting)
    system = parse_system(str(resources.files("ripslab") / "corpus" / "bk_itm.bands"))
    trace = run(system, 30)
    assert len(trace.steps) == 31 and not trace.halted
    assert sorted(built) == sorted(b.label for b in system.bands)


def test_run_derives_an_inverse_chart_only_where_a_range_leaves_k1(monkeypatch):
    """rips_step maps each band's range through its inverse, but a range
    that lies in K' maps onto the whole domain, which image_of returns with
    no chart read; so a run of bk_itm derives about one inverse chart per
    step, not one per band (960 in 30 steps)."""
    derived = []
    inverse_chart = isometry._inverse_chart

    def counting(chart):
        derived.append(chart)
        return inverse_chart(chart)

    monkeypatch.setattr(isometry, "_inverse_chart", counting)
    trace = run(corpus("bk_itm.bands"), 30)
    assert len(trace.steps) == 31 and not trace.halted
    assert len(derived) <= 40


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


def test_dropped_system_frees_its_field_without_the_cycle_collector():
    """A field's table of its values is weak, so once a classified system
    is dropped, reference counting alone frees its field and values."""
    system = corpus("bk_itm.bands")
    result = classify(system, 10)
    field = weakref.ref(system.field)
    value = weakref.ref(system.field.element([12345, 1]))
    assert value() is None
    gc.disable()
    try:
        del system, result
        assert field() is None
    finally:
        gc.enable()


def test_classify_inconclusive_on_budget():
    # a one-step budget on E_trim cannot certify anything
    host = line(1)
    sys = BandSystem(host, (shift(host, "a", 0, Q(1, 2), Q(1, 2)),
                            shift(host, "b", 0, Q(3, 10), Q(6, 10))))
    c = classify(sys, 1, Fraction(1, 2))
    assert isinstance(c.verdict, Inconclusive)


def test_judge_reports_a_zero_initial_diameter(e_trim):
    """A trace with triple overlap throughout, no halt and domains of
    diameter 0 from the start is inconclusive; verdicts print as their
    constructors."""
    steps = tuple(StepRecord(i, e_trim, Q(1), Q(1), Q(0), 2, False) for i in range(2))
    assert str(judge(RipsTrace(steps, 1)).verdict) == (
        "Inconclusive(no halt, initial max domain diameter is 0)")
    assert str(classify(e_trim, 50).verdict) == "SurfaceType(5)"


def test_classify_rejects_bad_ratio(e_surf, monkeypatch):
    trace = run(e_surf, 5)
    with pytest.raises(ValueError):
        judge(trace, Fraction(3, 2))
    # classify rejects the ratio before it runs anything
    monkeypatch.setattr("ripslab.rips.run", None)
    with pytest.raises(ValueError):
        classify(e_surf, 5, Fraction(3, 2))


def test_run_and_classify_reject_a_negative_start(e_surf, monkeypatch):
    monkeypatch.setattr("ripslab.rips.rips_step", None)
    with pytest.raises(ValueError):
        run(e_surf, 5, start=-1)
    with pytest.raises(ValueError):
        classify(e_surf, 5, start=-2)


def test_classify_resumed_without_checkpoint_is_rejected(e_surf, monkeypatch):
    """A resumed run reads its earlier steps from its checkpoint, so one
    with no checkpoint is rejected before anything runs."""
    monkeypatch.setattr("ripslab.rips.run", None)
    with pytest.raises(ValueError):
        classify(e_surf, 5, start=2)


def test_judge_reads_a_given_trace(e_trim):
    """judge on a trace already run gives what classify gives."""
    trace = run(e_trim, 3)
    for ratio in (Fraction(1, 10), Fraction(1, 2)):
        assert judge(trace, ratio) == classify(e_trim, 3, ratio)
