"""Finite-depth combinatorics of the lamination of a band system.

Leaves are coded by reduced words over band labels (inverses carry a
trailing prime).  A dotted word is a pair of one-sided words read
outward from a basepoint; its domain is the exact set of admissible
basepoints.  A word's map is a chart of `isometry`, so reading one more
band clips each piece's image against that band's chart, with no path
search.  All enumeration is depth-limited and every result carries its
depth: whether a finite word extends to a bi-infinite leaf is never
decided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .forest import MetricForest, Point, Subforest
from .isometry import BandSystem, chart_domain, extend_chart, identity_chart


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


def word_domain(system: BandSystem, w: WordLike) -> Subforest:
    """Exact set of basepoints from which the word can be read."""
    word = _as_word(w)
    check_reduced(word)
    chart = identity_chart(system.support)
    for letter in word:
        chart = chart and extend_chart(chart, system.band(letter).chart)
    return chart_domain(system.forest, chart)


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


def _drop_covered(host: MetricForest, chart: list) -> list:
    """The chart without its point pieces whose image an interval piece's
    image covers (a band lists a vertex on every edge at it, so an image
    can reach one twice); a chart is injective, so no domain point is lost."""
    if all(p[4] != p[5] for p in chart):
        return chart
    image = Subforest.from_spans(host, [(tc, lo, hi) for _, tc, _, _, lo, hi in chart
                                        if lo != hi])
    return [p for p in chart if p[4] != p[5]
            or not image.contains(host.cell_point(p[1], p[4]))]


def _meeting(sets: list[Subforest], keys: list) -> set[tuple[int, int]]:
    """The index pairs i < j of the sets that meet and whose keys differ,
    from one sorted sweep over their closed spans on each cell."""
    cells: dict[str, list] = {}
    for i, s in enumerate(sets):
        for c, lo, hi in s.spans():
            cells.setdefault(c, []).append((lo, hi, i))
    pairs = set()
    for row in cells.values():
        row.sort(key=lambda span: span[0])
        active: list = []
        for lo, hi, i in row:
            active = [(h, j) for h, j in active if h >= lo]
            pairs.update((min(i, j), max(i, j)) for _, j in active if keys[i] != keys[j])
            active.append((hi, i))
    return pairs


def _walk(system: BandSystem, depth: int) -> Iterator[tuple[tuple[str, ...], list]]:
    """Depth-first enumeration of admissible words with their charts.  A
    letter x is tried after y only if dom(x) meets range(y) = dom(y')."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    els = system.elements()
    bands = [(a.label, a.chart) for a in els]
    meet = _meeting([a.domain for a in els], [a.label for a in els])
    follow = {inverse_label(a.label): [b for j, b in enumerate(bands)
                                       if (min(i, j), max(i, j)) in meet]
              for i, a in enumerate(els)}

    def rec(word, chart):
        for letter, band in follow[word[-1]] if word else bands:
            nxt = _drop_covered(system.forest, extend_chart(chart, band))
            if nxt:
                ext = word + (letter,)
                yield ext, nxt
                if len(ext) < depth:
                    yield from rec(ext, nxt)

    yield from rec((), identity_chart(system.support))


def admissible_words(system: BandSystem, depth: int
                     ) -> list[tuple[tuple[str, ...], Subforest]]:
    """All reduced words of length <= depth with nonempty domain."""
    return [(w, chart_domain(system.forest, chart))
            for w, chart in _walk(system, depth)]


def dotted_words(system: BandSystem, depth: int) -> list[LeafWord]:
    """Admissible dotted words of side-length depth, up to reversal.

    A pair of one-sided words is admissible when both domains meet and
    their first letters differ (so the two rays leave the dot along
    distinct bands and the full word is reduced across the dot).  Only
    the pairs of sides that `_meeting` finds are intersected.
    """
    sides = [(w, chart_domain(system.forest, chart))
             for w, chart in _walk(system, depth) if len(w) == depth]
    pairs = _meeting([dom for _, dom in sides], [w[0] for w, _ in sides])
    return sorted((LeafWord(*sorted((u, v)), du.intersect(dv)) for (u, du), (v, dv)
                   in ((sides[i], sides[j]) for i, j in pairs)), key=LeafWord.key)


def limit_set(system: BandSystem, depth: int) -> LimitSetApprox:
    """Points admitting a two-sided admissible word of side-length depth."""
    return LimitSetApprox(depth, Subforest.empty(system.forest).union(
        *(leaf.domain for leaf in dotted_words(system, depth))))


def leaves_at(system: BandSystem, x: Point, depth: int) -> list[LeafWord]:
    """Dotted words of side-length depth whose basepoint domain contains x."""
    return [leaf for leaf in dotted_words(system, depth)
            if leaf.domain.contains(x)]
