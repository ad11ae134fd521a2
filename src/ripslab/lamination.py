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

from .forest import Point, Subforest
from .isometry import BandSystem, chart_domain, extend_chart, identity_chart, spans


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


def _walk(system: BandSystem, depth: int) -> Iterator[tuple[tuple[str, ...], list]]:
    """Depth-first enumeration of admissible words with their charts."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    bands = [(a.label, a.chart) for a in system.elements()]

    def rec(word, chart):
        for letter, band in bands:
            if word and letter == inverse_label(word[-1]):
                continue
            nxt = extend_chart(chart, band)
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
            dom = chart_domain(system.forest, chart)
            sides.append((w, dom, spans(dom)))
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
