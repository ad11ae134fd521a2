"""Derive the benchmark's pinned inputs and references, once.

    python3 perfbench/derive.py

Writes into ``perfbench/data``:

- ``bk_itm_step6.bands``: bk_itm after six Rips steps, the second input of
  ``lamination_wh``.  It is pinned so that a later change to Rips labelling
  cannot silently change the benchmark's input.
- ``lamination_expected.json``: for each input and depth, the Whitehead scan
  rows, the dotted words and the limit set, from the brute-force oracles of
  ``tests/oracles.py`` (backward preimage recursion, no use of the
  lamination walk), plus whether a T+-pattern is found.
- ``traintrack_expected.json``: transition matrices, primitivity exponents,
  train-track verdicts, rotationless powers and the stable Whitehead graph,
  from naive substitution (``oracles.apply_map`` and friends); minimal
  polynomials from sympy's characteristic polynomial.

The brute scans take several minutes.  The run asserts that the program
agrees with every reference before writing it.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import sympy  # noqa: E402

import workloads as wl  # noqa: E402
from ripslab import fileformat, rips, whitehead  # noqa: E402
from ripslab.forest import Subforest  # noqa: E402

oracles = wl.load_oracles()


def dump(obj, indent: str = "") -> str:
    """JSON text with every value that fits in 100 characters on one line."""
    flat = json.dumps(obj)
    if len(flat) <= 100 or not isinstance(obj, (dict, list)):
        return flat
    inner = indent + " "
    if isinstance(obj, dict):
        items = [f"{inner}{json.dumps(k)}: {dump(v, inner)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    items = [inner + dump(x, inner) for x in obj]
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def write(name: str, text: str) -> None:
    with open(os.path.join(wl.DATA, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    print("wrote", name, flush=True)


def step6_text() -> str:
    system = fileformat.parse_system_text(wl.read_data("bk_itm.bands"))
    trace = rips.run(system, 6)
    assert len(trace.steps) == 7 and not trace.halted
    return fileformat.serialize_system(trace.final)


def pruned_sides(system, depth):
    """oracles.brute_sides, skipping extensions of words with empty domain
    (a word's domain lies inside the domain of each of its prefixes)."""
    letters = [a.label for a in system.elements()]
    level = [((), None)]
    for _ in range(depth):
        nxt = []
        for word, _dom in level:
            for x in letters:
                if word and x == oracles.inverse_label(word[-1]):
                    continue
                dom = oracles.brute_word_domain(system, word + (x,))
                if not dom.is_empty:
                    nxt.append((word + (x,), dom))
        level = nxt
    return level


def lamination_reference(system, depth) -> dict:
    """brute_wh_scan and the brute limit set, over pruned brute sides."""
    dotted = oracles.brute_dotted(system, depth, sides=pruned_sides(system, depth))
    scan = []
    for x in oracles.brute_candidates(system):
        for comp in system.support.components():
            if comp.contains(x):
                for d in comp.germ_directions(x):
                    n = len(oracles.brute_wh_edges(system, x, d, depth, dotted))
                    scan.append([wl.point_str(x), d.edge, d.toward, n])
    limit = Subforest.empty(system.forest)
    for _lo, _hi, dom in dotted:
        limit = limit.union(dom)
    return {"scan": sorted(scan),
            "dotted": [[list(lo), list(hi)] for lo, hi, _ in dotted],
            "limit_set": wl.subforest_data(limit)}


def lamination_expected() -> dict:
    work = wl.WORKLOADS["lamination_wh"]
    texts = work.texts(0)
    out = {}
    for name, system in work.parse(texts).items():
        for depth in wl.LAMINATION_DEPTHS:
            ref = lamination_reference(system, depth)
            pattern = whitehead.detect_pattern(system, depth)
            ref["pattern_found"] = isinstance(pattern, whitehead.PatternCertificate)
            out[f"{name}/{depth}"] = ref
            print(name, depth, len(ref["dotted"]), "dotted words,",
                  len(ref["scan"]), "scan rows", flush=True)
    work.check({"expected": out, "oracles": oracles}, work.op(work.parse(texts)))
    return out


def primitivity_exponent(mat) -> int:
    n = len(mat)
    power = mat
    k = 1
    while not all(x > 0 for row in power for x in row):
        power = [[sum(power[i][t] * mat[t][j] for t in range(n)) for j in range(n)]
                 for i in range(n)]
        k += 1
    return k


def is_train_track(images) -> bool:
    """No turn taken by f^k(e), k <= 2n, collapses under 2n iterates of Df."""
    n = len(images)
    for turn in oracles.brute_taken_turns(images, 2 * n):
        d1, d2 = sorted(turn)
        for _ in range(2 * n):
            d1, d2 = oracles.brute_df(images, d1), oracles.brute_df(images, d2)
            if d1 == d2:
                return False
    return True


def map_reference(images) -> dict:
    gens = sorted(images)
    mat = [[sum(1 for c in images[h] if c.lower() == g) for h in gens] for g in gens]
    x = sympy.Symbol("x")
    charpoly = sympy.Matrix(mat).charpoly(x)
    assert len(sympy.factor_list(charpoly.as_expr())[1]) == 1, "reducible charpoly"
    power = math.lcm(*oracles.brute_periodic_directions(images).values())
    power_images = dict(images)
    for _ in range(power - 1):
        power_images = {g: oracles.apply_map(images, power_images[g]) for g in gens}
    return {"matrix": mat,
            "minpoly": [str(c) for c in reversed(charpoly.all_coeffs())],
            "primitivity_exponent": primitivity_exponent(mat),
            "train_track": is_train_track(images),
            "rotationless_power": power,
            "power_images": power_images}


def traintrack_expected() -> dict:
    work = wl.WORKLOADS["traintrack_swg"]
    texts = work.texts(0)
    out = {}
    for name, m in work.parse(texts).items():
        out[name] = map_reference(m.images)
    verts, edges = oracles.brute_stable_whitehead(out["tribonacci"]["power_images"],
                                                  wl.SWG_BUDGET)
    out["swg"] = {"vertices": verts, "edges": [list(e) for e in edges]}
    work.check(out, work.op(work.parse(texts)))
    return out


def main() -> None:
    write("bk_itm_step6.bands", step6_text())
    write("traintrack_expected.json", dump(traintrack_expected()) + "\n")
    write("lamination_expected.json", dump(lamination_expected()) + "\n")


if __name__ == "__main__":
    main()
