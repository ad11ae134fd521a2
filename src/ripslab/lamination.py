"""Finite-depth combinatorics of the lamination of a band system.

Leaves are coded by reduced words over band labels (inverses carry a
trailing prime).  A dotted word is a pair of one-sided words read
outward from a basepoint; its domain is the exact set of admissible
basepoints, computed by composing the bands as partial isometries.  All
enumeration is depth-limited and every result carries its depth: whether
a finite word extends to a bi-infinite leaf is never decided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .forest import Point, Subforest
from .isometry import BandSystem, PartialIsometry


class LaminationError(Exception):
    pass


class NotReduced(LaminationError):
    pass


WordLike = Union[str, Sequence[str]]


def inverse_label(letter: str) -> str:
    return letter[:-1] if letter.endswith("'") else letter + "'"


def _as_word(w: WordLike) -> tuple[str, ...]:
    if isinstance(w, str):
        return tuple(w.split())
    return tuple(w)


def check_reduced(word: Sequence[str]) -> None:
    for x, y in zip(word, word[1:]):
        if y == inverse_label(x):
            raise NotReduced(f"cancellation {x} {y}")


def _compose(phi: Optional[PartialIsometry],
             a: PartialIsometry) -> Optional[PartialIsometry]:
    """The composition a after phi, or None when the domain dies."""
    if phi is None:
        return a
    host = phi.host
    j = phi.range.intersect(a.domain)
    if j.is_empty:
        return None
    back = phi.inverse()
    dom = back.image_of(j)
    corr = tuple((m, a.apply(phi.apply(m))) for m in dom.extremal_points())
    rng = host.hull([q for _, q in corr])
    return PartialIsometry(phi.name, dom, rng, corr)


def word_isometry(system: BandSystem, w: WordLike) -> Optional[PartialIsometry]:
    """The composed partial isometry of a reduced word, None if empty."""
    word = _as_word(w)
    check_reduced(word)
    phi: Optional[PartialIsometry] = None
    for letter in word:
        phi = _compose(phi, system.band(letter))
        if phi is None:
            return None
    return phi


def word_domain(system: BandSystem, w: WordLike) -> Subforest:
    """Exact set of basepoints from which the word can be read."""
    word = _as_word(w)
    if not word:
        return system.support
    phi = word_isometry(system, word)
    if phi is None:
        return Subforest.empty(system.forest)
    return phi.domain


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

    def reversed(self) -> "LeafWord":
        return LeafWord(self.right, self.left, self.domain)

    def key(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class LimitSetApprox:
    depth: int
    subforest: Subforest


def _extensions(system: BandSystem, phi: Optional[PartialIsometry],
                last: Optional[str]) -> Iterator[tuple[str, PartialIsometry]]:
    for a in system.elements():
        if last is not None and a.label == inverse_label(last):
            continue
        nxt = _compose(phi, a)
        if nxt is not None:
            yield a.label, nxt


def _walk(system: BandSystem, depth: int
          ) -> Iterator[tuple[tuple[str, ...], PartialIsometry]]:
    """Depth-first enumeration of admissible words, domains carried exactly."""

    def rec(word, phi):
        for letter, nxt in _extensions(system, phi, word[-1] if word else None):
            ext = word + (letter,)
            yield ext, nxt
            if len(ext) < depth:
                yield from rec(ext, nxt)

    yield from rec((), None)


def admissible_words(system: BandSystem, depth: int
                     ) -> list[tuple[tuple[str, ...], Subforest]]:
    """All reduced words of length <= depth with nonempty domain."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return [(w, phi.domain) for w, phi in _walk(system, depth)]


def dotted_words(system: BandSystem, depth: int) -> list[LeafWord]:
    """Admissible dotted words of side-length depth, up to reversal.

    A pair of one-sided words is admissible when both domains meet and
    their first letters differ (so the two rays leave the dot along
    distinct bands and the full word is reduced across the dot).
    """
    sides = [(w, phi.domain) for w, phi in _walk(system, depth)
             if len(w) == depth]
    out = []
    for i, (u, du) in enumerate(sides):
        for v, dv in sides[i:]:
            if u[0] == v[0]:
                continue
            dom = du.intersect(dv)
            if dom.is_empty:
                continue
            out.append(LeafWord(u, v, dom) if u <= v else LeafWord(v, u, dom))
    out.sort(key=LeafWord.key)
    return out


def limit_set(system: BandSystem, depth: int) -> LimitSetApprox:
    """Points admitting a two-sided admissible word of side-length depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    acc = Subforest.empty(system.forest)
    for leaf in dotted_words(system, depth):
        acc = acc.union(leaf.domain)
    return LimitSetApprox(depth, acc)


def leaves_at(system: BandSystem, x: Point, depth: int) -> list[LeafWord]:
    """Dotted words of side-length depth whose basepoint domain contains x."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return [leaf for leaf in dotted_words(system, depth)
            if leaf.domain.contains(x)]
