"""Independent brute-force oracles, written before the fast implementations.

These deliberately avoid the library's enumeration and composition code
paths.  A band maps points and subtrees here through its markers, by
interpolating between marker pairs (`marker_apply`, `marker_image_of`),
never through its chart.  Word domains are computed by backward recursion
over per-band preimages (the fast path composes affine charts forward);
word lists come from exhaustive generation with no pruning.  The
marker-isometry word walk that the charts replaced is kept as
`reference_walk`.  The Rips step keeps its per-(C_i, C_j) definition
(`reference_rips_step`), and its halting test the comparison of band sets
up to relabeling (`reference_same_system`); a band's validation keeps the
pass that images each branch point through every pair of markers whose arc
crosses it (`brute_branch_images`), and the T±-pattern search the loop
over every component and extremal point of a leaf's domain for a point
beyond the basepoint (`reference_point_on_side`): checks that the library
drops as theorems settle them.  Forest arcs keep the best-of-four search
over the exit vertices of both cells (`reference_path`), with its own
depth-first vertex paths.
Rose-map dynamics use naive substitution on letter strings.  Subforest
intersection, the valence strata and the Rips overlap set keep their
pairwise or subset-wise, point-probing forms here, and subforest components
and germs the union-find and linear-scan forms that the canonical-form
reads replaced (`reference_components`, `reference_extends_in`), and
subforest volume the interval-by-interval sum that the one-denominator
sum replaced (`reference_volume`); the
other forest/subforest set primitives are shared, as infrastructure.  The T±-pattern search keeps
its per-row form: one directional Whitehead graph, and so one word walk,
per row of the scan.  `RefScalar` keeps the ``Fraction``-coefficient
scalar arithmetic that the integer-coefficient `Scalar` replaced, with a
sign decided by its own bisection of the field's original interval, and
`brute_count_roots` the ``Fraction`` Sturm chain.  Both run on this
file's own ``Fraction`` polynomial helpers (division, gcd, extended gcd,
evaluation), which the library replaced by integer polynomials; no
underscore name of `ripslab.scalar` is imported here.  The
Perron-Frobenius field and eigenvector of a transition matrix keep their
sympy form (`sympy_pf_field`, `sympy_pf_eigenvector`).

Do not "optimize" these to match the library: their value is that they
are dumb and separately derived.
"""

import itertools
from dataclasses import replace
from fractions import Fraction

from ripslab.forest import Subforest, point_key
from ripslab.isometry import BandSystem, OutOfDomain, PartialIsometry
from ripslab.lamination import inverse_label
from ripslab.scalar import ZERO, FieldMismatch, NumberField
from ripslab.traintrack import TrainTrackError


# --- scalars ----------------------------------------------------------------

# Dense polynomials over Q: ascending tuples of Fractions, no trailing zero.

def _trim(c):
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _poly(c):
    return _trim([Fraction(x) for x in c])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + b[i] if i < len(b) else x for i, x in enumerate(a)])


def _pneg(a):
    return tuple(-x for x in a)


def _psub(a, b):
    return _padd(a, _pneg(b))


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    lead = b[-1]
    for k in range(len(q) - 1, -1, -1):
        c = r[k + len(b) - 1] / lead
        if c:
            q[k] = c
            for i, x in enumerate(b):
                r[k + i] -= c * x
    return _trim(q), _trim(r[:len(b) - 1])


def _pmod(a, b):
    return _pdivmod(a, b)[1]


def _pmonic(a):
    return tuple(x / a[-1] for x in a)


def _pgcd(a, b):
    while b:
        a, b = b, _pmod(a, b)
    return _pmonic(a)


def _pxgcd(a, b):
    """Return (g, s) with g = gcd(a, b) monic and s*a == g (mod b)."""
    r0, r1 = a, b
    s0, s1 = (Fraction(1),), ()
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1))
    return _pmonic(r0), tuple(x / r0[-1] for x in s0)


def _peval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def brute_count_roots(p, lo, hi):
    """Number of distinct real roots of p in (lo, hi], by the Sturm chain of
    its squarefree part in ``Fraction`` arithmetic: the chain that
    `scalar.count_roots` ran before it moved to integer pseudo-remainders."""
    if len(p) <= 1:
        return 0
    chain = [p, _trim([p[i] * i for i in range(1, len(p))])]
    while chain[-1]:
        chain.append(_pneg(_pmod(chain[-2], chain[-1])))
    if len(chain[-2]) > 1:  # the last nonzero term is gcd(p, p'), up to a unit
        return brute_count_roots(_pdivmod(p, chain[-2])[0], lo, hi)

    def sign_changes(x) -> int:
        signs = [v > 0 for v in (_peval(q, x) for q in chain[:-1]) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return sign_changes(lo) - sign_changes(hi)


class RefScalar:
    """A rational or an element of a NumberField, as a reduced tuple of
    ``Fraction`` coefficients: the arithmetic `Scalar` used before it
    stored integers over one denominator.  The field must be irreducible."""

    def __init__(self, field, coeffs):
        self.field = field
        c = _poly(coeffs)
        self.coeffs = _pmod(c, field.minpoly) if field is not None else c
        assert field is not None or len(self.coeffs) <= 1

    def _pair(self, other):
        fa, fb = self.field, other.field
        if fa is not None and fb is not None and fa != fb:
            raise FieldMismatch(f"{fa!r} vs {fb!r}")
        return fa if fa is not None else fb

    def __add__(self, other):
        return RefScalar(self._pair(other), _padd(self.coeffs, other.coeffs))

    def __neg__(self):
        return RefScalar(self.field, _pneg(self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RefScalar(self._pair(other), _pmul(self.coeffs, other.coeffs))

    def __truediv__(self, other):
        f = self._pair(other)
        assert other.coeffs, "division by zero"
        if f is None:
            return RefScalar(None, (self.coeffs[0] / other.coeffs[0],)
                             if self.coeffs else ())
        g, s = _pxgcd(other.coeffs, f.minpoly)
        assert len(g) == 1
        return self * RefScalar(f, s)

    def __eq__(self, other):
        try:
            self._pair(other)
        except FieldMismatch:
            return False
        return self.coeffs == other.coeffs

    def __hash__(self):
        key = self.field if len(self.coeffs) > 1 else None
        return hash((key, self.coeffs))

    def is_zero(self):
        if not self.coeffs or self.field is None:
            return not self.coeffs
        g = _pgcd(self.coeffs, self.field.minpoly)
        return len(g) > 1 and brute_count_roots(g, self.field._lo0, self.field._hi0) > 0

    def sign(self):
        """Exact: the gcd zero test, then exact interval Horner over a
        private bisection of the field's original isolating interval."""
        if self.is_zero():
            return 0
        if self.field is None or len(self.coeffs) == 1:
            return 1 if self.coeffs[0] > 0 else -1
        p = self.field.minpoly
        lo, hi = self.field._lo0, self.field._hi0
        while True:
            vlo = vhi = Fraction(0)
            for c in reversed(self.coeffs):
                cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
                vlo, vhi = min(cands) + c, max(cands) + c
            if vlo > 0 or vhi < 0:
                return 1 if vlo > 0 else -1
            mid = (lo + hi) / 2
            if _peval(p, lo) * _peval(p, mid) <= 0:
                hi = mid
            else:
                lo = mid

    def __lt__(self, other):
        return (self - other).sign() < 0

    def contains_in(self, lo, hi):
        """Whether lo <= self <= hi for floats lo, hi, decided exactly."""
        return ((self - RefScalar(None, (Fraction(lo),))).sign() >= 0
                and (RefScalar(None, (Fraction(hi),)) - self).sign() >= 0)


# --- paths -----------------------------------------------------------------

def brute_vertex_path(host, u, v):
    """Oriented edge steps (from, edge, to) of the path from vertex u to
    vertex v, by depth-first search over every edge; None if there is none."""
    stack, seen = [(u, [])], {u}
    while stack:
        w, path = stack.pop()
        if w == v:
            return path
        for e in host.edges:
            if w in (e.u, e.v):
                x = e.v if w == e.u else e.u
                if x not in seen:
                    seen.add(x)
                    stack.append((x, path + [(w, e, x)]))
    return None


def reference_path(host, p, q):
    """(distance, pieces (edge, from, to)) of the arc from p to q: the steps
    that the chart of `MetricForest.arc` runs along.  It takes the shortest
    of the routes through an exit vertex of p's cell and one of q's, each
    vertex-to-vertex leg summed edge by edge."""
    if not p.is_vertex and not q.is_vertex and p.edge == q.edge:
        return abs(q.offset - p.offset), [(p.edge, p.offset, q.offset)]

    def exits(x):
        if x.is_vertex:
            return [(x.vertex, ZERO)]
        e = host.edge_of(x.edge)
        return [(e.u, x.offset), (e.v, e.length - x.offset)]

    best = None
    for w1, d1 in exits(p):
        for w2, d2 in exits(q):
            steps = brute_vertex_path(host, w1, w2)
            total = d1 + d2
            for _, e, _ in steps:
                total = total + e.length
            if best is None or total < best[0]:
                best = (total, w1, w2, steps)
    total, w1, w2, steps = best
    pieces = []
    if not p.is_vertex:
        e = host.edge_of(p.edge)
        pieces.append((p.edge, p.offset, ZERO if w1 == e.u else e.length))
    for fv, e, _ in steps:
        pieces.append((e.id, ZERO, e.length) if fv == e.u else (e.id, e.length, ZERO))
    if not q.is_vertex:
        e = host.edge_of(q.edge)
        pieces.append((q.edge, ZERO if w2 == e.u else e.length, q.offset))
    return total, pieces


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


def brute_stratum_ge(system, i):
    """K^{>=i} as the union, over the i-element subsets of A+-, of the
    intersection of their domains."""
    intervals = {}
    points = set()
    for subset in itertools.combinations(system.elements(), i):
        inter = subset[0].domain
        for a in subset[1:]:
            inter = brute_intersect(inter, a.domain)
        for eid, ivs in inter.intervals.items():
            intervals.setdefault(eid, []).extend(ivs)
        points.update(inter.points)
    return Subforest(system.forest, intervals, frozenset(points))


def reference_volume(s):
    """The total length of a subforest's intervals, added one interval
    length at a time."""
    total = ZERO
    for ivs in s.intervals.values():
        for lo, hi in ivs:
            total = total + (hi - lo)
    return total


def reference_components(s):
    """Connected components of a subforest by union-find over its intervals
    and isolated points, joining two intervals whenever an end of each is
    the same vertex; ordered by the least interval start (as an edge
    point, even at offset 0) or isolated point of each."""
    host = s.host
    nodes = [("i", eid, lo, hi) for eid, ivs in s.intervals.items() for lo, hi in ivs]
    nodes += [("p", p) for p in s.points]
    parent = list(range(len(nodes)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    anchor = {}
    for idx, node in enumerate(nodes):
        if node[0] == "i":
            for off in node[2:]:
                p = host.point(node[1], off)
                if p.is_vertex:
                    if p in anchor:
                        parent[find(idx)] = find(anchor[p])
                    else:
                        anchor[p] = idx
    comps = {}
    for idx, node in enumerate(nodes):
        comps.setdefault(find(idx), []).append(node)
    out = []
    for members in comps.values():
        intervals, pts = {}, set()
        for node in members:
            if node[0] == "i":
                intervals.setdefault(node[1], []).append((node[2], node[3]))
            else:
                pts.add(node[1])
        out.append(Subforest(host, intervals, frozenset(pts)))

    def key(c):
        keys = [(1, eid, ivs[0][0]) for eid, ivs in c.intervals.items()]
        return min(keys + [point_key(p) for p in c.points])

    return sorted(out, key=key)


def reference_extends_in(s, d):
    """Whether s holds a nondegenerate segment leaving d.base along d: a
    linear scan of the intervals on d's edge."""
    e = s.host.edge_of(d.edge)
    if d.base.is_vertex:
        off = ZERO if d.toward == 1 else e.length
    elif d.base.edge != d.edge:
        return False
    else:
        off = d.base.offset
    for lo, hi in s.intervals.get(d.edge, ()):
        if d.toward == 1 and lo <= off < hi or d.toward == -1 and lo < off <= hi:
            return True
    return False


def reference_germ_directions(s, p):
    """The directions at p into which s extends, by `reference_extends_in`."""
    return [d for d in s.host.directions_at(p) if reference_extends_in(s, d)]


# --- band maps through the markers ------------------------------------------

def marker_apply(band, p):
    """The image of a domain point p, interpolated between the markers: a
    pair of markers whose arc passes through p, and the point at the same
    distance along the arc of their images."""
    if not band.domain.contains(p):
        raise OutOfDomain(f"point {p!r} outside dom({band.label})")
    host = band.host
    for m, img in band.correspondence:
        if m == p:
            return img
    for i, (mi, ii) in enumerate(band.correspondence):
        for mj, ij in band.correspondence[i + 1:]:
            dip = host.distance(mi, p)
            if dip + host.distance(p, mj) == host.distance(mi, mj):
                return host.point_at(ii, ij, dip)
    raise OutOfDomain(f"markers of {band.label} do not span {p!r}")


def brute_branch_images(band):
    """Each branch point of the domain, a vertex with three or more germs
    into it, beside its images read off every pair of markers whose arc
    passes through it: the point at its distance from the first marker on
    the arc between the two images."""
    host, corr, out = band.host, band.correspondence, {}
    for v in host.vertices:
        b = host.vertex_point(v)
        if not band.domain.contains(b) or len(reference_germ_directions(band.domain, b)) < 3:
            continue
        out[b] = set()
        for i, (mi, ii) in enumerate(corr):
            for mj, ij in corr[i + 1:]:
                dib = host.distance(mi, b)
                if dib + host.distance(b, mj) == host.distance(mi, mj):
                    out[b].add(host.point_at(ii, ij, dib))
    return out


def marker_image_of(band, s):
    """The image of a subtree s of the domain: the hull of the marker images
    of its extremal points."""
    return band.host.hull([marker_apply(band, p) for p in s.extremal_points()])


def marker_restrict(band, s):
    """The restriction to a subtree s of the domain, through the markers."""
    if s == band.domain:
        return band
    corr = tuple((m, marker_apply(band, m)) for m in s.extremal_points())
    return PartialIsometry(band.name, s, marker_image_of(band, s), corr,
                           band.inverted)


def preimage(band, target):
    """Exact preimage of a subforest under a band, component by component."""
    hit = band.range.intersect(target)
    back = band.inverse()
    acc = Subforest.empty(band.host)
    for comp in reference_components(hit):
        acc = acc.union(marker_image_of(back, comp))
    return acc


def brute_word_domain(system, word):
    """dom(a_k . ... . a_1) = dom(a_1) n a_1^{-1}(dom(a_2) n ...)."""
    need = system.support
    for letter in reversed(word):
        need = preimage(system.band(letter), need)
    return need.intersect(system.support)


def brute_valence(system, p):
    """The number of elements of A+- whose domain contains p."""
    return sum(1 for a in system.elements() if a.domain.contains(p))


def reference_rips_step(system):
    """One Rips step by its definition: each band a restricted, for every
    ordered pair (C_i, C_j) of components of K', to
    dom(a) n C_i n a^-1(C_j) where that is not empty, and labelled with
    the pair."""
    K = brute_overlap_set(system)
    comps = reference_components(K)
    bands = []
    for a in system.bands:
        back = [preimage(a, cj) for cj in comps]
        for i, ci in enumerate(comps):
            part = brute_intersect(a.domain, ci)
            for j, pre in enumerate(back):
                dom = brute_intersect(part, pre)
                if not dom.is_empty:
                    bands.append(replace(marker_restrict(a, dom),
                                         name=f"{a.name}.{i}_{j}"))
    return BandSystem(system.forest, tuple(bands), support=K, field=system.field)


def reference_band_key(band):
    """A band's map apart from its label: its domain, and each extremal
    point of the domain beside its image through the markers."""
    return band.domain, tuple((p, marker_apply(band, p))
                              for p in band.domain.extremal_points())


def reference_same_system(s, t):
    """Equal supports, and equal band sets up to relabeling
    (`reference_band_key`)."""
    return (s.support == t.support and {reference_band_key(b) for b in s.bands}
            == {reference_band_key(b) for b in t.bands})


def reference_compose(phi, a):
    """The composition a after phi, or None when the domain dies: the
    extremal points of phi^-1(range(phi) n dom(a)) mapped through both."""
    if phi is None:
        return a
    j = phi.range.intersect(a.domain)
    if j.is_empty:
        return None
    dom = marker_image_of(phi.inverse(), j)
    corr = tuple((m, marker_apply(a, marker_apply(phi, m)))
                 for m in dom.extremal_points())
    rng = phi.host.hull([q for _, q in corr])
    return PartialIsometry(phi.name, dom, rng, corr)


def reference_walk(system, depth):
    """(word, domain) of every admissible word of length <= depth, depth
    first with the letters in `elements()` order, by marker composition."""
    out = []

    def rec(word, phi):
        for a in system.elements():
            if word and a.label == inverse_label(word[-1]):
                continue
            nxt = reference_compose(phi, a)
            if nxt is not None:
                out.append((word + (a.label,), nxt.domain))
                if len(word) + 1 < depth:
                    rec(word + (a.label,), nxt)

    rec((), None)
    return out


def reference_dotted_words(system, depth):
    """(left, right, domain) of the dotted words of the marker walk, every
    pair of sides intersected."""
    sides = [(w, d) for w, d in reference_walk(system, depth) if len(w) == depth]
    return brute_dotted(system, depth, sides=sides)


def pruned_brute_sides(system, depth):
    """brute_sides, skipping extensions of words with empty domain (a
    word's domain lies inside the domain of each of its prefixes)."""
    level = [()]
    for _ in range(depth):
        level = [w + (a.label,) for w in level for a in system.elements()
                 if not (w and a.label == inverse_label(w[-1]))]
        level = [w for w in level
                 if not brute_word_domain(system, w).is_empty]
    return [(w, brute_word_domain(system, w)) for w in level]


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
                  if dom.contains(x) and reference_extends_in(dom, d))


def brute_wh_scan(system, depth, dotted=None):
    """(point repr, direction repr, edge count), counts sorted descending."""
    if dotted is None:
        dotted = brute_dotted(system, depth)
    rows = []
    for x in brute_candidates(system):
        for comp in reference_components(system.support):
            if not comp.contains(x):
                continue
            for d in reference_germ_directions(comp, x):
                n = len(brute_wh_edges(system, x, d, depth, dotted))
                rows.append((repr(x), (d.edge, d.toward), n))
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    return rows


def reference_point_on_side(system, leaf, a, d, num, den):
    """A point of leaf's domain strictly inside the direction d from a, at
    num/den of the way to the first extremal point beyond a in d of the
    first component holding a and extending into d; None if there is none."""
    forest = system.forest
    for comp in reference_components(leaf.domain):
        if not comp.contains(a) or not reference_extends_in(comp, d):
            continue
        for q in comp.extremal_points():
            if q != a and forest.direction_towards(a, q) == d:
                return forest.point_at(a, q, forest.distance(a, q) * num / den)
    return None


def reference_detect_pattern(system, depth):
    """detect_pattern as the walk over the wh_scan rows with >= 2 edges,
    building each row's graph with directional_whitehead, and each witness
    with `reference_point_on_side`."""
    from ripslab.whitehead import (NotFound, PatternCertificate, directional_whitehead,
                                   wh_scan)

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
                b = reference_point_on_side(system, l1, x, d, 1, 2)
                c = reference_point_on_side(system, l2, x, d, 1, 3)
                if b is None or c is None:
                    continue
                if b == c:
                    c = reference_point_on_side(system, l2, x, d, 1, 4)
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


def sympy_pf_field(mat):
    """Number field of the largest real eigenvalue, by sympy: the
    characteristic polynomial is factored over Z, the factor whose real
    roots include the overall largest one becomes the minimal polynomial,
    and its isolating interval comes from sympy's root isolation."""
    import sympy

    x = sympy.symbols("x")
    charpoly = sympy.Matrix(mat).charpoly(x)
    best = None
    for factor, _mult in sympy.factor_list(charpoly.as_expr())[1]:
        poly = sympy.Poly(factor, x)
        if poly.LC() < 0:
            poly = sympy.Poly(-factor, x)
        for (lo, hi), _k in poly.intervals():
            if best is None or hi > best[1]:
                best = (Fraction(lo.p, lo.q), Fraction(hi.p, hi.q), poly)
    if best is None:
        raise TrainTrackError("no real eigenvalue")
    lo, hi, poly = best
    if lo == hi:  # a rational root: its linear factor has no other root
        lo, hi = lo - 1, hi + 1
    coeffs = [Fraction(c.p, c.q) for c in reversed(poly.all_coeffs())]
    lead = coeffs[-1]
    coeffs = [c / lead for c in coeffs]
    # a factor from factor_list is irreducible already
    return NumberField(coeffs, lo, hi, check_irreducible=False)


def sympy_pf_eigenvector(mat, field):
    """Kernel vector of (M - lambda I) by Gaussian elimination over the
    field, normalized so the last entry is 1."""
    n = len(mat)
    lam = field.gen
    rows = [[field.rational(mat[i][j]) - (lam if i == j else field.rational(0))
             for j in range(n)] for i in range(n)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, n) if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r][c]
        rows[r] = [v / pivot for v in rows[r]]
        for i in range(n):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise TrainTrackError("eigenspace is not one-dimensional")
    v = [field.rational(0)] * n
    v[free[0]] = field.rational(1)
    for row, c in zip(rows, pivots):
        v[c] = -row[free[0]]
    last = v[-1]
    if last.is_zero():
        raise TrainTrackError("degenerate eigenvector normalization")
    return tuple(x / last for x in v)


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
