"""Finite-depth combinatorics of the lamination of a band system.

Leaves are coded by reduced words over band labels (inverses carry a
trailing prime).  A dotted word is a pair of one-sided words read
outward from a basepoint; its domain is the exact set of admissible
basepoints.  Words are walked with affine charts: a word's map is a list
of pieces, each an interval of one edge sent into one edge by x -> x + t
or x -> t - x, so reading one more band clips each piece's image against
that band's domain on the same edge, with no path search.  All
enumeration is depth-limited and every result carries its depth: whether
a finite word extends to a bi-infinite leaf is never decided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .forest import ZERO, MetricForest, Point, Subforest
from .isometry import BandSystem, PartialIsometry
from .scalar import Scalar


class LaminationError(Exception):
    pass


class NotReduced(LaminationError):
    pass


WordLike = Union[str, Sequence[str]]


def inverse_label(letter: str) -> str:
    return letter[:-1] if letter.endswith("'") else letter + "'"


def _as_word(w: WordLike) -> tuple[str, ...]:
    return tuple(w.split() if isinstance(w, str) else w)


def check_reduced(word: Sequence[str]) -> None:
    for x, y in zip(word, word[1:]):
        if y == inverse_label(x):
            raise NotReduced(f"cancellation {x} {y}")


# A chart is a list of pieces (cell, tcell, flip, t, lo, hi): an interval
# of the cell (an edge, or a vertex no edge meets) sent onto [lo, hi] of
# tcell by x -> x + t, or by x -> t - x when flip is set.  A band's index
# lists per cell the (lo, hi, tcell, flip, t) of its domain pieces there.


def _point(host: MetricForest, cell: str, x: Scalar) -> Point:
    return host.point(cell, x) if host.has_edge(cell) else Point(vertex=cell)


def _spans(s: Subforest) -> list[tuple[str, Scalar, Scalar]]:
    """The closed spans (cell, lo, hi) covering s: its intervals, then each
    lone point and vertex of s as (x, x) on every edge at it that no
    interval reaches.  Two sets meet iff two of their spans on one cell do."""
    spans = [(eid, lo, hi) for eid, ivs in s.intervals.items() for lo, hi in ivs]
    for p in [Point(vertex=v) for v in s._interval_vertices()] + list(s.points):
        spans += [(c, x, x) for c, x in s.host.addresses(p)
                  if not any(lo <= x <= hi for lo, hi in s.intervals.get(c, ()))]
    return spans


def _band_index(a: PartialIsometry) -> dict[str, list]:
    """The index of a band, its domain cut where the image passes a vertex."""
    host, index = a.host, {}
    for cell, lo, hi in _spans(a.domain):
        p, q = (a.apply(_point(host, cell, x)) for x in (lo, hi))
        path = host._path(p, q)[1] or [(c, y, y) for c, y in host.addresses(p)[:1]]
        for tid, f, g in path:
            flip, y = g < f, lo + abs(g - f)
            index.setdefault(cell, []).append(
                (lo, y, tid, flip, f + lo if flip else f - lo))
            lo = y
    return index


def _identity(s: Subforest) -> list:
    return [(c, c, False, ZERO, lo, hi) for c, lo, hi in _spans(s)]


def _extend(chart: list, index: dict) -> list:
    """The chart of a band (by its index) after a chart: each image is
    clipped against the band's domain on its cell and mapped on."""
    out = []
    for cell, tid, flip, t, lo, hi in chart:
        for blo, bhi, nid, nflip, nt in index.get(tid, ()):
            if blo <= hi and lo <= bhi:
                a = lo if lo >= blo else blo
                b = hi if hi <= bhi else bhi
                out.append((cell, nid, not flip, nt - t, nt - b, nt - a) if nflip
                           else (cell, nid, flip, t + nt, a + nt, b + nt))
    return out


def _chart_domain(host: MetricForest, chart: list) -> Subforest:
    intervals, points = {}, set()
    for cell, _, flip, t, lo, hi in chart:
        lo, hi = (t - hi, t - lo) if flip else (lo - t, hi - t)
        if lo == hi:
            points.add(_point(host, cell, lo))
        else:
            intervals.setdefault(cell, []).append((lo, hi))
    return Subforest(host, intervals, frozenset(points))


def word_domain(system: BandSystem, w: WordLike) -> Subforest:
    """Exact set of basepoints from which the word can be read."""
    word = _as_word(w)
    check_reduced(word)
    chart = _identity(system.support)
    for letter in word:
        chart = chart and _extend(chart, _band_index(system.band(letter)))
    return _chart_domain(system.forest, chart)


@dataclass(frozen=True)
class LeafWord:
    """A dotted two-sided word: both halves read outward from the dot."""

    left: tuple[str, ...]
    right: tuple[str, ...]
    domain: Subforest

    def __str__(self) -> str:
        neg = " ".join(inverse_label(x) for x in reversed(self.left))
        pos = " ".join(self.right)
        return f"{neg}.{pos}"

    def key(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class LimitSetApprox:
    depth: int
    subforest: Subforest


def _walk(system: BandSystem, depth: int) -> Iterator[tuple[tuple[str, ...], list]]:
    """Depth-first enumeration of admissible words with their charts."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    bands = [(a.label, _band_index(a)) for a in system.elements()]

    def rec(word, chart):
        for letter, index in bands:
            if word and letter == inverse_label(word[-1]):
                continue
            nxt = _extend(chart, index)
            if nxt:
                ext = word + (letter,)
                yield ext, nxt
                if len(ext) < depth:
                    yield from rec(ext, nxt)

    yield from rec((), _identity(system.support))


def admissible_words(system: BandSystem, depth: int
                     ) -> list[tuple[tuple[str, ...], Subforest]]:
    """All reduced words of length <= depth with nonempty domain."""
    return [(w, _chart_domain(system.forest, chart))
            for w, chart in _walk(system, depth)]


def _meets(su: list, sv: list) -> bool:
    return any(c == d and lo <= ohi and olo <= hi
               for c, lo, hi in su for d, olo, ohi in sv)


def dotted_words(system: BandSystem, depth: int) -> list[LeafWord]:
    """Admissible dotted words of side-length depth, up to reversal.

    A pair of one-sided words is admissible when both domains meet and
    their first letters differ (so the two rays leave the dot along
    distinct bands and the full word is reduced across the dot).  Only
    the pairs whose spans meet are intersected.
    """
    sides = []
    for w, chart in _walk(system, depth):
        if len(w) == depth:
            dom = _chart_domain(system.forest, chart)
            sides.append((w, dom, _spans(dom)))
    out = []
    for i, (u, du, fu) in enumerate(sides):
        for v, dv, fv in sides[i:]:
            if u[0] != v[0] and _meets(fu, fv):
                dom = du.intersect(dv)
                out.append(LeafWord(u, v, dom) if u <= v else LeafWord(v, u, dom))
    out.sort(key=LeafWord.key)
    return out


def limit_set(system: BandSystem, depth: int) -> LimitSetApprox:
    """Points admitting a two-sided admissible word of side-length depth."""
    return LimitSetApprox(depth, Subforest.empty(system.forest).union(
        *(leaf.domain for leaf in dotted_words(system, depth))))


def leaves_at(system: BandSystem, x: Point, depth: int) -> list[LeafWord]:
    """Dotted words of side-length depth whose basepoint domain contains x."""
    return [leaf for leaf in dotted_words(system, depth)
            if leaf.domain.contains(x)]
