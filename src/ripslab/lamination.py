"""Finite-depth combinatorics of the lamination of a band system.

Leaves are coded by reduced words over band labels (inverses carry a
trailing prime).  A dotted word is a pair of one-sided words read
outward from a basepoint; its domain is the exact set of admissible
basepoints.  A word carries a chart, read and extended only through
`isometry`, so reading one more band clips the word's image against that
band's chart, with no path search.  All enumeration is depth-limited and
every result carries its depth: whether a finite word extends to a
bi-infinite leaf is never decided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .forest import MetricForest, Point, Subforest, meetings
from .isometry import (BandSystem, chart_domain, chart_spans, drop_covered, extend_chart,
                       identity_chart)


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


def _walk(system: BandSystem, depth: int) -> Iterator[tuple[tuple[str, ...], dict]]:
    """Depth-first enumeration of admissible words with their charts, off
    the system's one word trie, made on the first read and grown by deeper
    ones.  A letter x is tried after y only if dom(x) meets range(y) = dom(y')."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if "words" not in system.derived:
        els = system.elements()
        bands = [(a.label, a.chart) for a in els]
        near: list[list[int]] = [[] for _ in els]
        for i, j in meetings(system.forest, [a.domain.spans() for a in els],
                             [a.label for a in els]):
            near[i].append(j)
            near[j].append(i)
        follow = {inverse_label(a.label): [bands[j] for j in sorted(n)]
                  for a, n in zip(els, near)}
        system.derived["words"] = (system.forest, follow,
                                   [(), identity_chart(system.support), bands, None])
    return ((w, chart) for w, chart, _, _ in _descend(*system.derived["words"], depth))


def _descend(host: MetricForest, follow: dict, node: list, depth: int) -> Iterator[list]:
    """The trie nodes [word, chart, letters that may follow, children]
    below a node, to length depth, depth first.  A node's children are
    made on its first visit; the trie holds no reference to the system."""
    word, chart, letters, children = node
    if children is None:
        children = node[3] = [[word + (x,), nxt, follow[x], None] for x, band in letters
                              if (nxt := drop_covered(host, extend_chart(chart, band)))]
    for child in children:
        yield child
        if len(child[0]) < depth:
            yield from _descend(host, follow, child, depth)


def admissible_words(system: BandSystem, depth: int
                     ) -> list[tuple[tuple[str, ...], Subforest]]:
    """All reduced words of length <= depth with nonempty domain."""
    return [(w, chart_domain(system.forest, chart))
            for w, chart in _walk(system, depth)]


def dotted_words(system: BandSystem, depth: int) -> tuple[LeafWord, ...]:
    """Admissible dotted words of side-length depth, up to reversal.

    A pair of one-sided words is admissible when both domains meet and
    their first letters differ (so the two rays leave the dot along
    distinct bands and the full word is reduced across the dot).  The
    sides' domain spans are read off their charts, and one `meetings`
    sweep gives the pairs and their intersections.  Computed once per
    system and depth.
    """
    key = ("dotted_words", depth)
    if key not in system.derived:
        sides = [(w, chart_spans(chart)) for w, chart in _walk(system, depth) if len(w) == depth]
        met = meetings(system.forest, [spans for _, spans in sides], [w[0] for w, _ in sides])
        system.derived[key] = tuple(sorted(
            (LeafWord(*sorted((sides[i][0], sides[j][0])),
                      Subforest.from_spans(system.forest, spans))
             for (i, j), spans in met.items()), key=LeafWord.key))
    return system.derived[key]


def limit_set(system: BandSystem, depth: int) -> LimitSetApprox:
    """Points admitting a two-sided admissible word of side-length depth."""
    return LimitSetApprox(depth, Subforest.empty(system.forest).union(
        *(leaf.domain for leaf in dotted_words(system, depth))))


def leaves_at(system: BandSystem, x: Point, depth: int) -> list[LeafWord]:
    """Dotted words of side-length depth whose basepoint domain contains x."""
    return [leaf for leaf in dotted_words(system, depth)
            if leaf.domain.contains(x)]
