"""Independent brute-force oracles, written before the fast implementations.

These deliberately avoid the library's enumeration and composition code
paths.  Word domains are computed by backward recursion over per-band
preimages (the fast path composes marker isometries forward); word lists
come from exhaustive generation with no pruning; rose-map dynamics use
naive substitution on letter strings.  Subforest intersection and the
Rips overlap set keep their pairwise, point-probing forms here; the other
forest/subforest set primitives are shared, as infrastructure.  The
T±-pattern search keeps its per-row form: one directional Whitehead graph,
and so one word walk, per row of the scan.

Do not "optimize" these to match the library: their value is that they
are dumb and separately derived.
"""

import itertools

from ripslab.forest import Subforest
from ripslab.lamination import inverse_label


# --- subforest set algebra and the overlap set ------------------------------

def brute_intersect(a, b):
    """a n b: every pair of intervals on a shared edge, then every isolated
    point and canonical interval end of either operand probed for
    membership in both."""
    host = a.host
    intervals = {}
    for eid, ivs in a.intervals.items():
        for lo, hi in ivs:
            for olo, ohi in b.intervals.get(eid, ()):
                x = lo if lo >= olo else olo
                y = hi if hi <= ohi else ohi
                if (y - x).sign() > 0:
                    intervals.setdefault(eid, []).append((x, y))
    probe = Subforest(host, intervals, frozenset())
    candidates = list(a.points) + list(b.points)
    for s in (a, b):
        for eid, ivs in s.intervals.items():
            for lo, hi in ivs:
                candidates.append(host.point(eid, lo))
                candidates.append(host.point(eid, hi))
    extra = set()
    for p in candidates:
        if not probe.contains(p) and a.contains(p) and b.contains(p):
            extra.add(p)
    return Subforest(host, intervals, frozenset(extra))


def brute_overlap_set(system):
    """K' as the union of the pairwise intersections of the domains of
    A+-; the isolated points of a band/own-inverse pair are dropped."""
    els = system.elements()
    intervals = {}
    points = set()
    for i, a in enumerate(els):
        for b in els[i + 1:]:
            inter = brute_intersect(a.domain, b.domain)
            if inter.is_empty:
                continue
            for eid, ivs in inter.intervals.items():
                intervals.setdefault(eid, []).extend(ivs)
            if b.name != a.name:
                points.update(inter.points)
    return Subforest(system.forest, intervals, frozenset(points))


def preimage(band, target):
    """Exact preimage of a subforest under a band, component by component."""
    hit = band.range.intersect(target)
    back = band.inverse()
    acc = Subforest.empty(band.host)
    for comp in hit.components():
        acc = acc.union(back.image_of(comp))
    return acc


def brute_word_domain(system, word):
    """dom(a_k . ... . a_1) = dom(a_1) n a_1^{-1}(dom(a_2) n ...)."""
    need = system.support
    for letter in reversed(word):
        need = preimage(system.band(letter), need)
    return need.intersect(system.support)


def all_reduced_words(system, depth):
    letters = [a.label for a in system.elements()]
    words = []
    for tup in itertools.product(letters, repeat=depth):
        if any(y == inverse_label(x) for x, y in zip(tup, tup[1:])):
            continue
        words.append(tup)
    return words


def brute_sides(system, depth):
    """Every reduced word of exactly `depth` letters with its exact domain."""
    out = []
    for w in all_reduced_words(system, depth):
        dom = brute_word_domain(system, w)
        if not dom.is_empty:
            out.append((w, dom))
    return out


def brute_dotted(system, depth, sides=None):
    """All admissible dotted words up to reversal: (left, right, domain)."""
    if sides is None:
        sides = brute_sides(system, depth)
    out = []
    for i, (u, du) in enumerate(sides):
        for v, dv in sides[i:]:
            if u[0] == v[0]:
                continue
            dom = du.intersect(dv)
            if dom.is_empty:
                continue
            lo, hi = (u, v) if u <= v else (v, u)
            out.append((lo, hi, dom))
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def brute_leaves_at(system, x, depth):
    """Sorted (left, right) pairs of dotted words whose domain contains x."""
    return sorted((lo, hi) for lo, hi, dom in brute_dotted(system, depth)
                  if dom.contains(x))


def brute_candidates(system):
    """Vertices, band extremal points, and support branch points."""
    pts = [system.forest.vertex_point(v) for v in sorted(system.forest.vertices)]
    for band in system.elements():
        pts.extend(band.domain.extremal_points())
    seen, out = set(), []
    for p in pts:
        if p not in seen and system.support.contains(p):
            seen.add(p)
            out.append(p)
    return out


def brute_wh_edges(system, x, d, depth, dotted=None):
    """Dotted words based at x whose domain has a germ into d."""
    if dotted is None:
        dotted = brute_dotted(system, depth)
    return sorted((lo, hi) for lo, hi, dom in dotted
                  if dom.contains(x) and dom.extends_in(d))


def brute_wh_scan(system, depth):
    """(point repr, direction repr, edge count), counts sorted descending."""
    dotted = brute_dotted(system, depth)
    rows = []
    for x in brute_candidates(system):
        for comp in system.support.components():
            if not comp.contains(x):
                continue
            for d in comp.germ_directions(x):
                n = len(brute_wh_edges(system, x, d, depth, dotted))
                rows.append((repr(x), (d.edge, d.toward), n))
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    return rows


def reference_detect_pattern(system, depth):
    """detect_pattern as the walk over the wh_scan rows with >= 2 edges,
    building each row's graph with directional_whitehead."""
    from ripslab.whitehead import (NotFound, PatternCertificate, _point_on_side,
                                   directional_whitehead, wh_scan)

    for x, d, count in wh_scan(system, depth):
        if count < 2:
            break
        g = directional_whitehead(system, x, d, depth)
        for i in range(len(g.edges)):
            for j in range(i + 1, len(g.edges)):
                l1, l2 = g.edges[i], g.edges[j]
                ends = {g.class_of(l1.left), g.class_of(l1.right),
                        g.class_of(l2.left), g.class_of(l2.right)}
                if len(ends) < 3:
                    continue
                b = _point_on_side(system, l1, x, d, 1, 2)
                c = _point_on_side(system, l2, x, d, 1, 3)
                if b is None or c is None:
                    continue
                if b == c:
                    c = _point_on_side(system, l2, x, d, 1, 4)
                    if c is None or b == c:
                        continue
                cert = PatternCertificate(x, d, l1, l2, len(ends),
                                          b, l1, c, l2, depth)
                if not cert.validate():
                    return cert
    return NotFound(depth)


# --- rose maps -------------------------------------------------------------

def inv_letter(c):
    return c.lower() if c.isupper() else c.upper()


def inv_word(w):
    return "".join(inv_letter(c) for c in reversed(w))


def free_reduce(w):
    out = []
    for c in w:
        if out and out[-1] == inv_letter(c):
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def apply_map(images, w):
    """images maps lowercase generators to words; extend to +/- letters."""
    pieces = []
    for c in w:
        pieces.append(images[c] if c.islower() else inv_word(images[c.lower()]))
    return free_reduce("".join(pieces))


def brute_directions(images):
    return sorted(images) + sorted(inv_letter(g) for g in images)


def brute_df(images, d):
    """First letter of the image of the edge entered along d."""
    img = images[d] if d.islower() else inv_word(images[d.lower()])
    return img[0]


def brute_fixed_directions(images):
    return sorted(d for d in brute_directions(images)
                  if brute_df(images, d) == d)


def brute_periodic_directions(images):
    """Direction -> period under Df, for directions on a periodic orbit."""
    dirs = brute_directions(images)
    out = {}
    for d in dirs:
        seen = [d]
        cur = d
        for _ in range(2 * len(dirs)):
            cur = brute_df(images, cur)
            if cur == d:
                out[d] = len(seen)
                break
            seen.append(cur)
    return out


def brute_taken_turns(images, budget):
    """Unordered direction pairs occurring inside f^k(e), k <= budget."""
    turns = set()
    for g in images:
        path = g
        for _ in range(budget):
            path = apply_map(images, path)
            for x, y in zip(path, path[1:]):
                pair = frozenset((inv_letter(x), y))
                if len(pair) == 2:
                    turns.add(pair)
    return turns


def brute_stable_whitehead(images, budget):
    """Edges of the stable Whitehead graph as sorted letter pairs."""
    fixed = set(brute_fixed_directions(images))
    edges = sorted(tuple(sorted(t)) for t in brute_taken_turns(images, budget)
                   if t <= fixed)
    return brute_fixed_directions(images), edges


def brute_check_complete_bipartite_33(edge_pairs):
    """Decide by exhaustion whether the graph is exactly K_{3,3}.

    Tries every 3+3 split of the six vertices and demands all nine
    cross edges, no repeats, and no edge inside a part.
    """
    verts = sorted({v for e in edge_pairs for v in e})
    if len(verts) != 6 or len(edge_pairs) != 9:
        return False
    if len(set(map(frozenset, edge_pairs))) != 9:
        return False
    for split in itertools.combinations(verts, 3):
        a = set(split)
        b = set(verts) - a
        need = {frozenset((u, v)) for u in a for v in b}
        if {frozenset(e) for e in edge_pairs} == need:
            return True
    return False
