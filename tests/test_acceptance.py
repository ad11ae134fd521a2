"""Acceptance gate: one test per criterion, with stated tolerances.

Every numeric comparison is exact (rational / number-field equality)
unless a line says otherwise; the only approximate checks are the
decimal dilatation report (criterion 6, tolerance 1e-6) and wall-clock
budgets.  Each test prints a single PASS line on success.
"""

import importlib.resources as resources
import io
import random
import time
from fractions import Fraction as F

import pytest

from ripslab import lamination, rips, traintrack, whitehead
from ripslab.cli import main as cli_main
from ripslab.fileformat import parse_scalar, parse_system, serialize_system
from ripslab.forest import Subforest
from ripslab.isometry import BandSystem, PartialIsometry
from ripslab.scalar import rational

from hosts import refine, summary
import oracles


def corpus_path(name):
    return str(resources.files("ripslab") / "corpus" / name)


def corpus(name):
    return parse_system(corpus_path(name))


def interval_set(host, eid, pairs):
    return Subforest(host, {eid: [(rational(a), rational(b))
                                  for a, b in pairs]}, frozenset())


def test_criterion_1_exact_rips_trace():
    t0 = time.monotonic()
    s = corpus("e_trim.bands")
    trace = rips.run(s, 10)
    host = s.forest
    k1 = trace.steps[1].system.support
    assert k1 == interval_set(host, "e0", [(F(0), F(3, 10)),
                                           (F(6, 10), F(9, 10))])
    bands1 = {(b.domain, b.range) for b in trace.steps[1].system.bands}
    assert bands1 == {
        (interval_set(host, "e0", [(F(1, 10), F(3, 10))]),
         interval_set(host, "e0", [(F(6, 10), F(8, 10))])),
        (interval_set(host, "e0", [(F(0), F(3, 10))]),
         interval_set(host, "e0", [(F(6, 10), F(9, 10))])),
    }
    k2 = trace.steps[2].system.support
    assert k2 == interval_set(host, "e0", [(F(1, 10), F(3, 10)),
                                           (F(6, 10), F(8, 10))])
    vols = [rec.volume for rec in trace.steps[:4]]
    assert vols == [F(1), F(6, 10), F(4, 10), F(2, 10)]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS (exact rational equality, {elapsed:.2f}s)")


def test_criterion_2_halting_detection():
    t0 = time.monotonic()
    s = corpus("e_surf.bands")
    result = rips.classify(s, 30)
    assert isinstance(result.verdict, rips.SurfaceType)
    assert result.verdict.halt_step == 0
    assert rips.ValenceStratification(s).vol_ge(3) == 0
    reduced, _ = rips.is_reduced(s)
    assert reduced
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2: PASS (exact, {elapsed:.2f}s)")


def test_criterion_3_levitt_evidence_vs_pinned_transcript():
    t0 = time.monotonic()
    s = corpus("bk_itm.bands")
    trace = rips.run(s, 30)
    assert not trace.halted
    assert len(trace.steps) == 31
    rows = []
    with open(corpus_path("bk_itm.oracle"), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            step, vol, ge3, diam, bands = (p.strip()
                                           for p in line.split("|"))
            rows.append((int(step), parse_scalar(vol, s.field),
                         parse_scalar(ge3, s.field),
                         parse_scalar(diam, s.field), int(bands)))
    assert len(rows) == 31
    for rec, (i, vol, ge3, diam, bands) in zip(trace.steps, rows):
        assert rec.index == i
        assert rec.volume == vol
        assert rec.vol_ge3 == ge3
        assert rec.max_diameter == diam
        assert rec.bands == bands
        assert rec.vol_ge3 > 0
    half = trace.steps[0].max_diameter / 2
    assert trace.steps[-1].max_diameter < half
    result = rips.judge(trace)
    assert isinstance(result.verdict, rips.LevittEvidence)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3: PASS (31/31 transcript rows exact,"
          f" {elapsed:.1f}s)")


def test_criterion_4_invariant_suite():
    checks = 0

    def check(cond):
        nonlocal checks
        assert cond
        checks += 1

    rng = random.Random(20260824)
    systems = {name: corpus(name) for name in
               ("e_surf.bands", "e_trim.bands", "bk_itm.bands")}

    # Rips traces: nesting, volume transfer, strata nesting.
    for name, s in systems.items():
        budget = 6 if name == "bk_itm.bands" else 8
        trace = rips.run(s, budget)
        for prev, cur in zip(trace.steps, trace.steps[1:]):
            check(cur.system.support.issubset(prev.system.support))
            strat = rips.ValenceStratification(prev.system)
            check(cur.volume == strat.vol_ge(2))
            for i in (1, 2, 3):
                check(strat.stratum_ge(i + 1).issubset(strat.stratum_ge(i)))
                check(strat.stratum_ge(i).issubset(prev.system.support))

    # Exact isometry preservation on random domain pairs.
    def random_point(sub, rnd):
        eid = rnd.choice(sorted(sub.intervals))
        lo, hi = rnd.choice(sub.intervals[eid])
        t = F(rnd.randrange(0, 101), 100)
        return sub.host.point(eid, lo + (hi - lo) * t)

    for s in systems.values():
        for band in s.elements():
            if band.domain.is_empty or not band.domain.intervals:
                continue
            for _ in range(25):
                p = random_point(band.domain, rng)
                q = random_point(band.domain, rng)
                dpq = s.forest.distance(p, q)
                check(s.forest.distance(band.apply(p), band.apply(q)) == dpq)

    # Four-point condition on random quadruples.
    for s in systems.values():
        whole = s.forest.whole()
        for _ in range(60):
            pts = [random_point(whole, rng) for _ in range(4)]
            d = s.forest.distance
            sums = sorted([d(pts[0], pts[1]) + d(pts[2], pts[3]),
                           d(pts[0], pts[2]) + d(pts[1], pts[3]),
                           d(pts[0], pts[3]) + d(pts[1], pts[2])])
            check(sums[1] == sums[2])

    # Refine-invariance of trace summaries.
    for name in ("e_surf.bands", "e_trim.bands"):
        s = systems[name]
        marks = [random_point(s.forest.whole(), rng) for _ in range(3)]
        refined, rel = refine(s.forest, marks)
        bands = tuple(PartialIsometry(
            b.name, rel.subforest(b.domain), rel.subforest(b.range),
            tuple((rel.point(m), rel.point(i)) for m, i in b.correspondence))
            for b in s.bands)
        s2 = BandSystem(refined, bands, rel.subforest(s.support), s.field)
        check(not s2.validate())
        t1 = rips.run(s, 4)
        t2 = rips.run(s2, 4)
        check(len(t1.steps) == len(t2.steps))
        for r1, r2 in zip(t1.steps, t2.steps):
            check(r1.volume == r2.volume)
            check(r1.vol_ge3 == r2.vol_ge3)
            check(r1.max_diameter == r2.max_diameter)
            check(r1.bands == r2.bands)

    # Word combinatorics: prefix closure and domain monotonicity.
    for name, depth in (("e_surf.bands", 4), ("e_trim.bands", 4),
                        ("bk_itm.bands", 3)):
        s = systems[name]
        words = lamination.admissible_words(s, depth)
        doms = {w: d for w, d in words}
        for w, d in words:
            check(not d.is_empty)
            if len(w) > 1:
                check(w[:-1] in doms)
                check(d.issubset(doms[w[:-1]]))

    # Limit-set antitonicity.
    for name in ("e_surf.bands", "e_trim.bands", "bk_itm.bands"):
        s = systems[name]
        prev = None
        for depth in (1, 2, 3):
            cur = lamination.limit_set(s, depth).subforest
            check(cur.issubset(s.support))
            if prev is not None:
                check(cur.issubset(prev))
            prev = cur

    # Whitehead depth-monotonicity: deeper edges truncate to shallower.
    for name, (d1, d2) in (("e_surf.bands", (2, 3)),
                           ("bk_itm.bands", (2, 3))):
        s = systems[name]
        for x in whitehead.candidate_points(s):
            for d in s.support.germ_directions(x):
                shallow = {leaf.key() for leaf in
                           whitehead.directional_whitehead(s, x, d, d1).edges}
                for leaf in whitehead.directional_whitehead(s, x, d,
                                                            d2).edges:
                    u, v = leaf.left[:d1], leaf.right[:d1]
                    check(((u, v) if u <= v else (v, u)) in shallow)

    assert checks >= 1000
    print(f"\nACCEPTANCE 4: PASS ({checks} exact invariant assertions)")


def test_criterion_5_whitehead_surrogate():
    t0 = time.monotonic()
    e_surf = corpus("e_surf.bands")
    for depth in (4, 6, 8):
        rows = whitehead.wh_scan(e_surf, depth)
        assert max(n for _, _, n in rows) <= 1
    assert isinstance(whitehead.detect_pattern(e_surf, 4),
                      whitehead.NotFound)
    bk = corpus("bk_itm.bands")
    # Pinned depth: 1 (well under the allowed 12).
    assert max(n for _, _, n in whitehead.wh_scan(bk, 1)) >= 2
    cert = whitehead.detect_pattern(bk, 2)
    assert isinstance(cert, whitehead.PatternCertificate)
    assert cert.validate() == []
    k33 = whitehead.k33_certificate(cert)
    assert oracles.brute_check_complete_bipartite_33(
        [(u, v) for u, v, _ in k33.edges])
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 5: PASS (depths 4/6/8 thin, pattern at depth 2,"
          f" {elapsed:.1f}s)")


def test_criterion_6_train_track_numerics():
    t0 = time.monotonic()
    trib = traintrack.load_map(corpus_path("tribonacci.map"))
    td = traintrack.transition(trib)
    assert td.matrix == ((1, 1, 1), (1, 0, 0), (0, 1, 0))
    assert td.primitivity_exponent == 3
    assert td.minimal_polynomial() == (-1, -1, -1, 1)
    # tolerance 1e-6 on the decimal report; arithmetic is exact
    assert abs(float(td.dilatation.to_decimal(6)) - 1.8392867552141612) < 1e-6
    lam = td.dilatation
    assert td.eigenvector == (lam * lam, lam, td.field.rational(1))
    for i in range(3):
        resid = sum((td.field.rational(td.matrix[i][j]) * td.eigenvector[j]
                     for j in range(3)), td.field.zero())
        assert (resid - lam * td.eigenvector[i]).is_zero()
    assert not traintrack.is_rotationless(trib)
    p, m3 = traintrack.rotationless_power(trib)
    assert p == 3 and traintrack.is_rotationless(m3)
    fib = traintrack.load_map(corpus_path("fibonacci.map"))
    tf = traintrack.transition(fib)
    assert tf.minimal_polynomial() == (-1, -1, 1)
    assert tf.eigenvector == (tf.field.gen, tf.field.rational(1))
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 6: PASS (exact eigen-data, lambda within 1e-6,"
          f" {elapsed:.2f}s)")


def test_criterion_7_oracle_agreement():
    # Pinned depths/budgets per corpus entry.
    for name, depth in (("e_surf.bands", 3), ("e_trim.bands", 3),
                        ("bk_itm.bands", 2)):
        s = corpus(name)
        probes = whitehead.candidate_points(s)
        for x in probes:
            fast = sorted(leaf.key()
                          for leaf in lamination.leaves_at(s, x, depth))
            assert fast == oracles.brute_leaves_at(s, x, depth)
        fast_scan = sorted((repr(x), (d.edge, d.toward), n)
                           for x, d, n in whitehead.wh_scan(s, depth))
        assert fast_scan == sorted(oracles.brute_wh_scan(s, depth))
    for name, budget in (("tribonacci.map", 6), ("fibonacci.map", 4)):
        m = traintrack.load_map(corpus_path(name))
        _, mp = traintrack.rotationless_power(m)
        g = traintrack.stable_whitehead_graph(mp, budget)
        verts, edges = oracles.brute_stable_whitehead(mp.images, budget)
        assert list(g.vertices) == verts
        assert list(g.edges) == edges
    print("\nACCEPTANCE 7: PASS (sorted outputs exactly equal)")


def test_criterion_8_round_trip_and_determinism():
    for name in ("e_surf.bands", "e_trim.bands", "bk_itm.bands"):
        s = corpus(name)
        text = serialize_system(s)
        t = parse_system_text_cached(text)
        assert summary(t) == summary(s)
        assert serialize_system(t) == text
        stepped = rips.rips_step(s)
        text2 = serialize_system(stepped)
        assert serialize_system(parse_system_text_cached(text2)) == text2
    for argv in (["rips", "run", "--max-iter", "6",
                  corpus_path("e_trim.bands")],
                 ["wh", "scan", corpus_path("bk_itm.bands"),
                  "--depth", "1"],
                 ["tt", "pf", corpus_path("tribonacci.map")]):
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            assert cli_main(list(argv), out=buf) == 0
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
    print("\nACCEPTANCE 8: PASS (byte-identical round trips and reports)")


def parse_system_text_cached(text):
    from ripslab.fileformat import parse_system_text
    return parse_system_text(text)
