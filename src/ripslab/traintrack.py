"""Rose maps for free-group automorphisms: transition matrix, dilatation,
train-track and rotationless checks, direction dynamics, and the stable
Whitehead graph at the rose vertex.

A map is given by generator images over single lowercase letters, with
uppercase letters denoting inverses.  The 2n directions at the rose
vertex are the letters themselves; Df sends a direction to the first
letter of the image of the corresponding edge-end.  All numerics are
exact: the dilatation lives in a NumberField and eigenvector residuals
are identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .scalar import (NumberField, Scalar, count_roots, exact_quotient, factor_over_z,
                     integer_roots, sturm_chain, sturm_count)


class TrainTrackError(Exception):
    pass


class MapSyntaxError(TrainTrackError):
    pass


class UnknownGenerator(TrainTrackError):
    pass


class MissingInverse(TrainTrackError):
    pass


class NotPrimitive(TrainTrackError):
    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


class NotRotationless(TrainTrackError):
    pass


class VanishingIterate(TrainTrackError):
    """An iterate sends a generator to the identity: no automorphism."""


def inv_letter(c: str) -> str:
    return c.lower() if c.isupper() else c.upper()


def inv_word(w: str) -> str:
    return "".join(inv_letter(c) for c in reversed(w))


def free_reduce(w: str) -> str:
    out: list[str] = []
    for c in w:
        if out and out[-1] == inv_letter(c):
            out.pop()
        else:
            out.append(c)
    return "".join(out)


@dataclass(frozen=True)
class RoseMap:
    """Generator images of an endomorphism of a free group, on a rose."""

    generators: tuple[str, ...]
    images: dict[str, str]
    inverse_images: Optional[dict[str, str]] = None
    warnings: tuple[str, ...] = ()

    @property
    def rank(self) -> int:
        return len(self.generators)

    def directions(self) -> tuple[str, ...]:
        return self.generators + tuple(g.upper() for g in self.generators)

    def image_of_letter(self, c: str) -> str:
        if c.islower():
            return self.images[c]
        return inv_word(self.images[c.lower()])

    def apply(self, word: str) -> str:
        return free_reduce("".join(self.image_of_letter(c) for c in word))

    def iterate(self, power: int) -> "RoseMap":
        """f^power by its generator images alone, with no inverse section."""
        if power < 1:
            raise ValueError("power must be >= 1")
        images = dict(self.images)
        for k in range(2, power + 1):
            for g in self.generators:
                images[g] = self.apply(images[g])
                if not images[g]:
                    raise VanishingIterate(f"f^{k}({g}) reduces to the identity")
        return RoseMap(self.generators, images)


def parse_map(text: str) -> RoseMap:
    """Parse `map a -> ab; b -> a` with an optional `inverse` section.

    Uppercase letters denote inverse generators.  Bare assignment lists
    without the `map` keyword are accepted.  Unreduced images are freely
    reduced with a warning.
    """
    body: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            body.append(line)
    flat = " ".join(body)
    if not flat:
        raise MapSyntaxError("empty map file")
    if flat.startswith("map "):
        flat = flat[4:]
    parts = flat.split(" inverse ")
    if len(parts) > 2:
        raise MapSyntaxError("more than one inverse section")

    def entries(section: str) -> list[tuple[str, str]]:
        out = []
        for chunk in section.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "->" not in chunk:
                raise MapSyntaxError(f"missing '->' in {chunk!r}")
            lhs, rhs = (s.strip() for s in chunk.split("->", 1))
            rhs = rhs.replace(" ", "")
            if not (len(lhs) == 1 and lhs.isalpha() and lhs.islower()):
                raise MapSyntaxError(f"bad generator name {lhs!r}")
            if not rhs or not rhs.isalpha():
                raise MapSyntaxError(f"bad image word {rhs!r} for {lhs}")
            out.append((lhs, rhs))
        return out

    fwd = entries(parts[0])
    if not fwd:
        raise MapSyntaxError("no generator images")
    gens = tuple(g for g, _ in fwd)
    if len(set(gens)) != len(gens):
        raise MapSyntaxError("repeated generator on the left-hand side")
    alphabet = set(gens) | {g.upper() for g in gens}
    warnings = []

    def check(table: list[tuple[str, str]], tag: str) -> dict[str, str]:
        images = {}
        for g, w in table:
            if g not in gens:
                raise UnknownGenerator(f"{tag} image given for unknown {g!r}")
            for c in w:
                if c not in alphabet:
                    raise UnknownGenerator(f"letter {c!r} in image of {g}")
            red = free_reduce(w)
            if not red:
                raise MapSyntaxError(f"image of {g} reduces to the identity")
            if red != w:
                warnings.append(f"{tag} image of {g} reduced: {w} -> {red}")
            images[g] = red
        return images

    images = check(fwd, "map")
    if set(images) != set(gens):
        raise MapSyntaxError("missing generator image")
    inverse_images = None
    if len(parts) == 2:
        inverse_images = check(entries(parts[1]), "inverse")
        if set(inverse_images) != set(gens):
            raise MapSyntaxError("missing inverse image")
    return RoseMap(gens, images, inverse_images, tuple(warnings))


def load_map(path: str) -> RoseMap:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_map(fh.read())


def verify_automorphism(m: RoseMap) -> tuple[bool, list[str]]:
    """Check both compositions reduce to the identity, with a transcript:
    per generator g in order, the lines ``f(f^-1(g)) = ... = w`` and
    ``f^-1(f(g)) = ... = w``, then the verdict."""
    if m.inverse_images is None:
        raise MissingInverse("inverse images required")
    inv = RoseMap(m.generators, m.inverse_images)
    ok = True
    transcript = []
    for g in m.generators:
        fwd = m.apply(inv.images[g])
        transcript.append(f"f(f^-1({g})) = f({inv.images[g]}) = {fwd}")
        bwd = inv.apply(m.images[g])
        transcript.append(f"f^-1(f({g})) = f^-1({m.images[g]}) = {bwd}")
        if fwd != g or bwd != g:
            ok = False
    transcript.append("identity on every generator"
                      if ok else "composition is not the identity")
    return ok, transcript


# --- transition matrix and dilatation --------------------------------------

def transition_matrix(m: RoseMap) -> list[list[int]]:
    """M[i][j] = occurrences of generator i (either sign) in f(gen j).

    With columns indexed by source edges, M(f.g) = M(f) M(g) and the
    Perron-Frobenius eigenvector of the tribonacci map is (l^2, l, 1).
    """
    return [[sum(1 for c in m.images[h] if c.lower() == g)
             for h in m.generators] for g in m.generators]


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _primitivity_exponent(mat) -> Optional[int]:
    n = len(mat)
    power = mat
    for k in range(1, (n - 1) ** 2 + 2):
        if all(x > 0 for row in power for x in row):
            return k
        power = _mat_mul(power, mat)
    return None


def _primitivity_witness(m: RoseMap, mat):
    """An invariant sub-block or a periodicity witness for NotPrimitive."""
    n = len(mat)
    reach = [[mat[i][j] > 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    for i in range(n):
        for j in range(n):
            if not reach[i][j]:
                block = tuple(m.generators[t] for t in range(n) if reach[i][t]
                              or t == i)
                return ("invariant sub-block", block)
    return ("periodic", m.generators)


@dataclass(frozen=True)
class TransitionData:
    matrix: tuple[tuple[int, ...], ...]
    primitivity_exponent: int
    field: NumberField
    dilatation: Scalar
    eigenvector: tuple[Scalar, ...]

    def minimal_polynomial(self) -> tuple[Fraction, ...]:
        return self.field.minpoly


def _charpoly(mat) -> tuple[list[int], list]:
    """det(xI - M) as ascending integer coefficients, and the integer
    matrices B_0, ..., B_{n-1} with adj(xI - M) = sum of B_k x^(n-1-k).

    Faddeev-LeVerrier: B_0 = I, c_{n-k} = -tr(M B_{k-1}) / k and
    B_k = M B_{k-1} + c_{n-k} I; each division by k is exact.
    """
    n = len(mat)
    coeffs = [0] * n + [1]
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    adj = []
    for k in range(1, n + 1):
        adj.append(b)
        b = _mat_mul(mat, b)
        coeffs[n - k] = -sum(b[i][i] for i in range(n)) // k
        for i in range(n):
            b[i][i] += coeffs[n - k]
    return coeffs, adj


def _pf_field(charpoly, bound: int) -> NumberField:
    """Number field of the largest real root lambda of the characteristic
    polynomial of a nonnegative matrix whose row sums are at most `bound`,
    so that 0 <= lambda <= bound.

    One Sturm chain of the squarefree part finds its integer roots.  If
    lambda is one of them, the field is x - lambda on (lambda - 1,
    lambda + 1).  Otherwise they are divided out, leaving a cofactor q
    with no rational root, whose chain (the same one if no root was
    divided out) isolates lambda, its largest root, by bisecting
    (0, bound + 1].  A cofactor of degree <= 3 is then the minimal
    polynomial: a proper factor of it would have degree 1, and so a
    rational root.  From degree 4 the minimal polynomial is the factor of
    q with a root in the interval.
    """
    chain = sturm_chain(charpoly)
    roots = integer_roots(chain)
    lo, hi = Fraction(0), Fraction(bound + 1)
    if roots and not sturm_count(chain, roots[-1], hi):
        lam = roots[-1]
        return NumberField((-lam, 1), lam - 1, lam + 1, check_irreducible=False)
    # the squarefree part of a monic polynomial is monic up to sign
    q = chain[0] if chain[0][-1] > 0 else [-c for c in chain[0]]
    if roots:
        for r in roots:
            q = exact_quotient(q, (-r, 1))
        chain = sturm_chain(q)
    while sturm_count(chain, lo, hi) > 1:
        mid = (lo + hi) / 2
        if sturm_count(chain, mid, hi):
            lo = mid
        else:
            hi = mid
    if len(q) > 4:
        q = next(f for f, _ in factor_over_z(q) if count_roots(f, lo, hi))
    # no factor of q has a rational root, so neither bound is a root
    return NumberField(q, lo, hi, check_irreducible=False)


def _pf_eigenvector(adj, field: NumberField) -> tuple[Scalar, ...]:
    """Eigenvector of lambda, normalized so the last entry is 1.

    (M - lambda I) adj(lambda I - M) = 0, so every column of the adjugate
    sum of B_k lambda^(n-1-k) lies in the kernel; it has rank 1 when that
    kernel is a line, and then any nonzero column spans it.
    """
    n = len(adj)
    for j in range(n):
        col = [field.element([adj[n - 1 - m][i][j] for m in range(n)])
               for i in range(n)]
        if any(col):
            break
    else:
        raise TrainTrackError("eigenspace is not one-dimensional")
    last = col[-1]
    if last.is_zero():
        raise TrainTrackError("degenerate eigenvector normalization")
    inverse = field.rational(1) / last
    return tuple(x * inverse for x in col)


def transition(m: RoseMap) -> TransitionData:
    mat = transition_matrix(m)
    k = _primitivity_exponent(mat)
    if k is None:
        kind, block = _primitivity_witness(m, mat)
        raise NotPrimitive(f"transition matrix not primitive ({kind})", block)
    charpoly, adj = _charpoly(mat)
    field = _pf_field(charpoly, max(map(sum, mat)))
    vec = _pf_eigenvector(adj, field)
    lam = field.gen
    for i in range(len(mat)):
        resid = sum((mat[i][j] * vec[j] for j in range(len(mat))),
                    field.zero()) - lam * vec[i]
        if not resid.is_zero():
            raise TrainTrackError("nonzero eigenvector residual")
    return TransitionData(tuple(tuple(row) for row in mat), k, field,
                          lam, vec)


# --- direction dynamics ----------------------------------------------------

@dataclass(frozen=True)
class DirectionMap:
    table: dict[str, str]
    orbits: tuple[tuple[tuple[str, ...], int], ...]
    fixed: tuple[str, ...]


def direction_dynamics(m: RoseMap) -> DirectionMap:
    """The table of Df on the 2n directions, its cycles and fixed directions."""
    dirs = m.directions()
    table = {d: m.image_of_letter(d)[0] for d in dirs}
    # Directions eventually land on cycles; report the cycles as orbits.
    orbits = []
    seen = set()
    for d in dirs:
        if d in seen:
            continue
        trail = []
        cur = d
        while cur not in trail:
            trail.append(cur)
            cur = table[cur]
        if cur in seen:
            continue
        cycle = trail[trail.index(cur):]
        seen.update(cycle)
        orbits.append((tuple(cycle), len(cycle)))
    orbits.sort(key=lambda o: o[0])
    fixed = tuple(d for d in dirs if table[d] == d)
    return DirectionMap(table, tuple(orbits), fixed)


def is_rotationless(m: RoseMap) -> bool:
    """True when every periodic direction of Df is fixed."""
    dm = direction_dynamics(m)
    return all(period == 1 for _, period in dm.orbits)


def rotationless_power(m: RoseMap) -> tuple[int, RoseMap]:
    """Smallest power killing direction rotation, with the composed map."""
    dm = direction_dynamics(m)
    p = lcm(*(period for _, period in dm.orbits))
    mp = m.iterate(p)
    if not is_rotationless(mp):
        raise NotRotationless(f"f^{p} is not rotationless: cancellation makes its"
                              f" direction map differ from Df^{p}")
    return p, mp


# --- train-track check -----------------------------------------------------

def _turns_of(word: str) -> set[frozenset]:
    """The turns {x^-1, y} at the junctions xy of a reduced word."""
    return {frozenset((inv_letter(x), y)) for x, y in zip(word, word[1:])}


def taken_turns(m: RoseMap, power_budget: int) -> set[frozenset]:
    """Unordered direction pairs occurring in some f^k(e), k <= budget.

    When f^k(e) is reduced and no turn in it is collapsed by Df, f^{k+1}(e)
    is the plain concatenation of the images f(x) of its letters, so

        letters(f^{k+1}(e)) = union of letters(f(x)), x in letters(f^k(e)),
        turns(f^{k+1}(e)) = Df(turns(f^k(e))) | union of turns(f(x)).

    Only these two sets are carried from level to level; a repeated pair
    of sets repeats all later levels, which ends the closure early.  A
    collapsed turn means the next iterate cancels (as for maps that are
    not train tracks), and then the iterates are expanded as words.
    """
    images = {d: free_reduce(m.image_of_letter(d))
              for d in m.directions()}
    if not all(images.values()):
        return _word_turns(m, power_budget)
    first = {d: w[0] for d, w in images.items()}
    inner = {d: _turns_of(w) for d, w in images.items()}
    turns: set[frozenset] = set()
    for g in m.generators:
        letters, level = frozenset(g), frozenset()
        seen = set()
        for _ in range(power_budget):
            if (letters, level) in seen:
                break
            seen.add((letters, level))
            nxt = {frozenset(first[d] for d in t) for t in level}
            if any(len(t) < 2 for t in nxt):
                return _word_turns(m, power_budget)
            nxt.update(*(inner[x] for x in letters))
            letters = frozenset(c for x in letters for c in images[x])
            level = frozenset(nxt)
            turns |= level
    return turns


def _word_turns(m: RoseMap, power_budget: int) -> set[frozenset]:
    """taken_turns by expanding each f^k(e) as a freely reduced word."""
    turns: set[frozenset] = set()
    for g in m.generators:
        path = g
        for _ in range(power_budget):
            path = m.apply(path)
            turns |= _turns_of(path)
    return turns


def check_train_track(m: RoseMap):
    """Certify the train-track property on the rose.

    A turn is illegal when some Df-iterate collapses it; since Df acts
    on 2n directions, 2n iterations decide legality, and the turns are
    collected from f^k(e) for k <= 2n.  Returns (True, None) or
    (False, (turn, iteration)).
    """
    table = direction_dynamics(m).table
    for pair in sorted(taken_turns(m, 2 * m.rank),
                       key=lambda p: tuple(sorted(p))):
        d1, d2 = sorted(pair)
        for j in range(1, 2 * m.rank + 1):
            d1, d2 = table[d1], table[d2]
            if d1 == d2:
                return False, (tuple(sorted(pair)), j)
    return True, None


# --- stable Whitehead graph ------------------------------------------------

@dataclass(frozen=True)
class WhGraph:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def to_dot(self) -> str:
        lines = ["graph whitehead {"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for u, v in self.edges:
            lines.append(f'  "{u}" -- "{v}";')
        lines.append("}")
        return "\n".join(lines)


def stable_whitehead_graph(m: RoseMap, iterate_budget: int) -> WhGraph:
    """Graph on fixed directions whose edges are the taken fixed turns."""
    dm = direction_dynamics(m)
    if any(period > 1 for _, period in dm.orbits):
        raise NotRotationless("apply rotationless_power first")
    if iterate_budget < 1:
        raise ValueError("iterate_budget must be >= 1")
    fixed = set(dm.fixed)
    edges = sorted(tuple(sorted(t)) for t in taken_turns(m, iterate_budget)
                   if t <= fixed)
    return WhGraph(tuple(sorted(fixed)), tuple(edges))
