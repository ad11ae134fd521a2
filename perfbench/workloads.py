"""The benchmark's workloads: inputs made from a seed, one op, and its check.

Each workload has five steps.  ``texts(seed)`` makes the input texts and
``references(seed)`` what the outputs must match; ``parse(texts)`` turns the
texts into fresh program objects; ``op(inputs)`` is the timed computation;
``check(refs, result)`` compares the result with references that the timed
code does not produce and returns a digest of the result, so that
consecutive ops can be compared byte for byte.  Only the first three are
part of set-up as a user of the program would pay it.

Every op parses its inputs afresh because ``NumberField`` refinement and
per-``Scalar`` enclosure caches persist on the parsed objects: reusing them
would time a warmer program on later repetitions.

Importing this module imports ``ripslab`` from the ``src`` directory of the
checkout that holds it; the entry points put that directory on
``sys.path`` first.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
from fractions import Fraction

# cli is imported so that set-up includes the import a user of the command
# line pays before any work.
from ripslab import cli, fileformat, lamination, rips, traintrack, whitehead  # noqa: F401

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data")


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def read_data(name: str) -> str:
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return fh.read()


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


# --- program objects as plain data ------------------------------------------

def point_str(p) -> str:
    if p.is_vertex:
        return p.vertex
    return f"{p.edge}:{fileformat.scalar_str(p.offset)}"


def subforest_data(s) -> dict:
    return {
        "intervals": sorted([eid, fileformat.scalar_str(lo), fileformat.scalar_str(hi)]
                            for eid, ivs in s.intervals.items() for lo, hi in ivs),
        "points": sorted(point_str(p) for p in s.points),
    }


# --- rips_bk_itm ------------------------------------------------------------

RIPS_STEPS = 30


def trace_lines(result) -> list[str]:
    """Step records, verdict and the final system, as text."""
    s = fileformat.scalar_str
    lines = [f"{r.index}|{s(r.volume)}|{s(r.vol_ge3)}|{s(r.max_diameter)}|{r.bands}"
             for r in result.trace.steps]
    lines.append(type(result.verdict).__name__)
    lines.append(fileformat.serialize_system(result.trace.final))
    return lines


class RipsBkItm:
    """``rips.classify(bk_itm, 30)`` over Q(lambda), checked against the
    pinned 31-row transcript ``bk_itm.oracle``."""

    def texts(self, seed: int) -> str:
        return read_data("bk_itm.bands")

    def references(self, seed: int) -> list:
        rows = []
        for line in read_data("bk_itm.oracle").splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                rows.append([p.strip() for p in line.split("|")])
        return rows

    def parse(self, text: str):
        return fileformat.parse_system_text(text)

    def op(self, system):
        return rips.classify(system, RIPS_STEPS)

    def check(self, rows: list, result) -> str:
        steps = result.trace.steps
        expect(len(steps) == len(rows) == RIPS_STEPS + 1,
               f"{len(steps)} step records, expected {RIPS_STEPS + 1}")
        field = steps[0].system.field
        for rec, (i, vol, ge3, diam, bands) in zip(steps, rows):
            got = (rec.index, rec.volume, rec.vol_ge3, rec.max_diameter, rec.bands)
            want = (int(i), fileformat.parse_scalar(vol, field),
                    fileformat.parse_scalar(ge3, field),
                    fileformat.parse_scalar(diam, field), int(bands))
            expect(got == want, f"step {i} differs from bk_itm.oracle")
        expect(isinstance(result.verdict, rips.LevittEvidence),
               f"verdict {result.verdict}, expected LevittEvidence")
        return digest(trace_lines(result))


# --- rips_bk_rational -------------------------------------------------------

# Enough digits that every one of the 30 steps shadows bk_itm; with 3 digits
# the trajectory halts at step 16.
RATIONAL_DIGITS = 9


def rational_lambda(seed: int) -> Fraction:
    """p/q just below the real root of x^3 + x^2 + x - 1, with q a
    RATIONAL_DIGITS-digit denominator drawn from the seed."""
    q = random.Random(seed).randrange(10 ** (RATIONAL_DIGITS - 1), 10 ** RATIONAL_DIGITS)
    lo, hi = 0, q  # f(lo/q) < 0 <= f(hi/q), f(p/q) q^3 = p^3 + p^2 q + p q^2 - q^3
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** 3 + mid ** 2 * q + mid * q ** 2 - q ** 3 < 0:
            lo = mid
        else:
            hi = mid
    return Fraction(lo, q)


def bk_rational_text(L: Fraction) -> str:
    """The bk_itm band layout with the generator replaced by L."""
    L2 = L * L
    return "\n".join([
        "tree", "vertex u", "vertex v", "edge e0 u v 1",
        "band a", f"map e0:0 -> e0:{1 - L}", f"map e0:{L} -> e0:1",
        "band b", f"map e0:0 -> e0:{1 - L2}", f"map e0:{L2} -> e0:1",
        "band c", f"map e0:0 -> e0:{L + L2}", f"map e0:{1 - L - L2} -> e0:1",
    ]) + "\n"


def interval_system(text: str):
    """Support intervals and band domain/range intervals of a serialized
    one-edge system, read with plain Fractions (no ripslab code)."""
    ends = {}
    support, bands = [], []
    for line in text.splitlines():
        head, _, rest = line.partition(" ")
        if head == "edge":
            eid, u, v, length = rest.split()
            ends = {u: Fraction(0), v: Fraction(length)}
        elif head == "interval":
            _, lo, hi = rest.split()
            support.append((Fraction(lo), Fraction(hi)))
        elif head == "band":
            bands.append(([], []))
        elif head == "map":
            src, _, dst = rest.partition(" -> ")
            for marker, side in ((src, bands[-1][0]), (dst, bands[-1][1])):
                side.append(ends[marker] if marker in ends
                            else Fraction(marker.partition(":")[2]))
    return support, [((min(d), max(d)), (min(r), max(r))) for d, r in bands]


def measure_covered_twice(intervals) -> Fraction:
    """Length of the set of points lying in at least two of the intervals."""
    events = sorted([(lo, 1) for lo, _ in intervals] + [(hi, -1) for _, hi in intervals])
    total, depth, prev = Fraction(0), 0, None
    for x, step in events:
        if depth >= 2:
            total += x - prev
        depth += step
        prev = x
    return total


class RipsBkRational(RipsBkItm):
    """The bk_itm layout over Q: the same Rips and forest work on the plain
    Fraction path of the scalars.  Checked per step by band count 2i+3 and by
    vol(K_{i+1}) = measure of the points in two or more of the step-i
    domains, summed with plain Fractions."""

    def texts(self, seed: int) -> str:
        return bk_rational_text(rational_lambda(seed))

    def references(self, seed: int) -> None:
        return None

    def check(self, refs: None, result) -> str:
        steps = result.trace.steps
        expect(len(steps) == RIPS_STEPS + 1,
               f"{len(steps)} step records, expected {RIPS_STEPS + 1}")
        systems = [interval_system(fileformat.serialize_system(r.system)) for r in steps]
        for i, (rec, (support, bands)) in enumerate(zip(steps, systems)):
            expect(rec.bands == len(bands) == 2 * i + 3,
                   f"step {i}: {rec.bands} bands, expected {2 * i + 3}")
            vol = sum((hi - lo for lo, hi in support), Fraction(0))
            expect(Fraction(fileformat.scalar_str(rec.volume)) == vol,
                   f"step {i}: volume differs from its support")
            if i:
                overlap = measure_covered_twice([iv for band in systems[i - 1][1] for iv in band])
                expect(vol == overlap, f"step {i}: vol(K) != measure of K_{i - 1}^(>=2)")
        expect(isinstance(result.verdict, rips.LevittEvidence),
               f"verdict {result.verdict}, expected LevittEvidence")
        return digest(trace_lines(result))


# --- lamination_wh ----------------------------------------------------------

LAMINATION_SYSTEMS = ("bk_itm", "bk_itm_step6")
LAMINATION_DEPTHS = (3, 4)


def load_oracles():
    """The repository's brute-force oracles (``tests/oracles.py``)."""
    spec = importlib.util.spec_from_file_location(
        "oracles", os.path.join(ROOT, "tests", "oracles.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class LaminationWh:
    """wh_scan, detect_pattern, k33_certificate and limit_set at depths 3
    and 4 on bk_itm and on bk_itm after six Rips steps, checked against
    outputs pinned once from the brute-force oracles."""

    def texts(self, seed: int) -> dict:
        return {name: read_data(name + ".bands") for name in LAMINATION_SYSTEMS}

    def references(self, seed: int) -> dict:
        return {"expected": json.loads(read_data("lamination_expected.json")),
                "oracles": load_oracles()}

    def parse(self, texts: dict) -> dict:
        return {name: fileformat.parse_system_text(text) for name, text in texts.items()}

    def op(self, systems: dict) -> dict:
        out = {}
        for name, system in systems.items():
            for depth in LAMINATION_DEPTHS:
                rows = whitehead.wh_scan(system, depth)
                pattern = whitehead.detect_pattern(system, depth)
                k33 = (whitehead.k33_certificate(pattern)
                       if isinstance(pattern, whitehead.PatternCertificate) else None)
                limit = lamination.limit_set(system, depth)
                out[f"{name}/{depth}"] = (rows, pattern, k33, limit)
        return out

    def check(self, refs: dict, result: dict) -> str:
        lines = []
        for key, (rows, pattern, k33, limit) in sorted(result.items()):
            want = refs["expected"][key]
            scan = sorted([point_str(x), d.edge, d.toward, n] for x, d, n in rows)
            expect(scan == want["scan"], f"{key}: wh_scan rows differ from the brute scan")
            ls = subforest_data(limit.subforest)
            expect(ls == want["limit_set"], f"{key}: limit_set differs from the brute dotted words")
            found = isinstance(pattern, whitehead.PatternCertificate)
            expect(found == want["pattern_found"], f"{key}: pattern found is {found}")
            lines += [key, json.dumps(scan), json.dumps(ls)]
            if not found:
                continue
            expect(pattern.validate() == [], f"{key}: pattern certificate is invalid")
            dotted = want["dotted"]
            for leaf in (pattern.l1, pattern.l2, pattern.lb, pattern.lc):
                expect([list(leaf.left), list(leaf.right)] in dotted,
                       f"{key}: {leaf} is not a brute dotted word")
            edges = [(u, v) for u, v, _ in k33.edges]
            expect(k33.validate() == []
                   and refs["oracles"].brute_check_complete_bipartite_33(edges),
                   f"{key}: K33 certificate is not K_3,3")
            lines += [point_str(pattern.a), str(pattern.l1), str(pattern.l2),
                      point_str(pattern.b), point_str(pattern.c), k33.to_dot()]
        return digest(lines)


# --- traintrack_swg ---------------------------------------------------------

SWG_BUDGET = 8
MAPS = ("tribonacci", "fibonacci")


class TraintrackSwg:
    """transition, check_train_track and rotationless_power on tribonacci and
    fibonacci, then the stable Whitehead graph of the rotationless power of
    tribonacci at budget 8, checked against outputs pinned once from the
    brute-force oracles."""

    def texts(self, seed: int) -> dict:
        return {name: read_data(name + ".map") for name in MAPS}

    def references(self, seed: int) -> dict:
        return json.loads(read_data("traintrack_expected.json"))

    def parse(self, texts: dict) -> dict:
        return {name: traintrack.parse_map(text) for name, text in texts.items()}

    def op(self, maps: dict) -> dict:
        out = {}
        for name, m in maps.items():
            out[name] = (traintrack.transition(m), traintrack.check_train_track(m),
                         traintrack.rotationless_power(m))
        power_map = out["tribonacci"][2][1]
        out["swg"] = traintrack.stable_whitehead_graph(power_map, SWG_BUDGET)
        return out

    def check(self, expected: dict, result: dict) -> str:
        got = {}
        for name in MAPS:
            td, (is_tt, _), (power, pm) = result[name]
            got[name] = {
                "matrix": [list(row) for row in td.matrix],
                "minpoly": [str(c) for c in td.minimal_polynomial()],
                "primitivity_exponent": td.primitivity_exponent,
                "train_track": is_tt,
                "rotationless_power": power,
                "power_images": dict(sorted(pm.images.items())),
            }
        swg = result["swg"]
        got["swg"] = {"vertices": list(swg.vertices), "edges": [list(e) for e in swg.edges]}
        for key, value in expected.items():
            expect(got[key] == value, f"{key}: differs from the brute-force reference")
        return digest([json.dumps(got, sort_keys=True)])


WORKLOADS = {
    "rips_bk_itm": RipsBkItm(),
    "rips_bk_rational": RipsBkRational(),
    "lamination_wh": LaminationWh(),
    "traintrack_swg": TraintrackSwg(),
}
