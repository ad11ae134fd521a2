"""Line-oriented text format for band systems (`.bands` files).

A file has an optional ``field`` line, a ``tree`` section, an optional
``support`` section and one ``band`` section per band::

    # comment
    field L^3 + L^2 + L - 1 in (0, 1)
    tree
    vertex u
    vertex v
    edge e0 u v 1
    support
    interval e0 0 3/10
    point e0 1/2
    band a
    map e0:0 -> e0:1/2
    map e0:1/2 -> e0:1

Scalars are exact: plain rationals (``3/10``) or polynomials in the field
generator ``L`` (``1 - L - L^2``); decimals never appear.  A band is
given purely by its marker correspondence; its domain and range are the
convex hulls of the markers and of their images, and every parsed band
must pass the isometry validator.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from typing import Optional

from .forest import Edge, MetricForest, Point, Subforest, point_key
from .isometry import BandSystem, PartialIsometry, ValidationError
from .scalar import (FieldMismatch, NumberField, Poly, Scalar, ScalarError,
                     _padd, _pmul, _pneg, _poly, _psub, field_define, poly_str,
                     rational)


class BandsSyntaxError(Exception):
    """Raised on malformed input, with the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# scalar expressions

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|L|\^|\*|\+|-|\(|\))")


def _tokenize(text: str, line: int) -> list[str]:
    text = text.strip()
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise BandsSyntaxError(line, f"bad scalar expression {text!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _parse_poly(text: str, line: int, gen: bool) -> Poly:
    """Parse a sum of terms c, c*L^k, L^k into ascending coefficients.

    The generator L is rejected unless `gen` is set."""
    toks = _tokenize(text, line)
    if not toks:
        raise BandsSyntaxError(line, "empty scalar expression")
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        t = peek()
        pos += 1
        return t

    def parse_factor() -> Poly:
        t = take()
        if t == "(":
            v = parse_expr()
            if take() != ")":
                raise BandsSyntaxError(line, "unbalanced parenthesis")
            return v
        if t == "L":
            if not gen:
                raise BandsSyntaxError(
                    line, "generator L used without a field declaration")
            k = 1
            if peek() == "^":
                take()
                k = take()
                if k is None or not k.isdigit():
                    raise BandsSyntaxError(line, "bad exponent")
            return (Fraction(0),) * int(k) + (Fraction(1),)
        if t is None or t in "+-*^)":
            raise BandsSyntaxError(line, f"unexpected token {t!r}")
        try:
            return _poly((Fraction(t),))
        except ZeroDivisionError:
            raise BandsSyntaxError(line, f"zero denominator in {t!r}") from None

    def parse_term() -> Poly:
        v = parse_factor()
        while peek() == "*":
            take()
            v = _pmul(v, parse_factor())
        return v

    def parse_expr() -> Poly:
        neg = False
        if peek() in ("+", "-"):
            neg = take() == "-"
        v = parse_term()
        if neg:
            v = _pneg(v)
        while peek() in ("+", "-"):
            op = take()
            w = parse_term()
            v = _psub(v, w) if op == "-" else _padd(v, w)
        return v

    value = parse_expr()
    if pos != len(toks):
        raise BandsSyntaxError(line, f"trailing tokens in {text!r}")
    return value


def parse_scalar(text: str, field: Optional[NumberField], line: int = 0) -> Scalar:
    """Parse a sum of terms c, c*L^k, L^k into an exact Scalar."""
    coeffs = _parse_poly(text, line, field is not None)
    if field is not None:
        return field.element(coeffs)
    return rational(coeffs[0] if coeffs else 0)


def scalar_str(x: Scalar) -> str:
    """Exact textual form, inverse of parse_scalar."""
    return poly_str(x.coeffs)


# ---------------------------------------------------------------------------
# parsing


def _strip(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def parse_system_text(text: str) -> BandSystem:
    field: Optional[NumberField] = None
    vertices: list[str] = []
    edges: list[tuple[int, str, str, str, str]] = []
    support_lines: list[tuple[int, str]] = []
    band_sections: list[tuple[int, str, list[tuple[int, str]]]] = []
    section = None
    seen_field = False

    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "field":
            if seen_field:
                raise FieldMismatch("multiple field declarations in one file")
            seen_field = True
            m = re.match(r"^(.*)\bin\s*\(\s*([^,]+),\s*([^)]+)\)\s*$", rest)
            if not m:
                raise BandsSyntaxError(no, "expected: field <poly> in (lo, hi)")
            field = _parse_field(m.group(1), m.group(2), m.group(3), no)
            continue
        if head == "tree" and not rest:
            section = "tree"
            continue
        if head == "support" and not rest:
            section = "support"
            continue
        if head == "band":
            if not rest or not re.fullmatch(r"[A-Za-z0-9_.\-]+", rest):
                raise BandsSyntaxError(no, f"bad band label {rest!r}")
            band_sections.append((no, rest, []))
            section = "band"
            continue
        if section == "tree":
            if head == "vertex":
                if not rest:
                    raise BandsSyntaxError(no, "vertex needs a name")
                vertices.append(rest)
            elif head == "edge":
                parts = rest.split(None, 3)
                if len(parts) != 4:
                    raise BandsSyntaxError(
                        no, "expected: edge <id> <u> <v> <length>")
                edges.append((no, *parts))
            else:
                raise BandsSyntaxError(no, f"unexpected {head!r} in tree section")
        elif section == "support":
            support_lines.append((no, line))
        elif section == "band":
            if head != "map":
                raise BandsSyntaxError(no, f"unexpected {head!r} in band section")
            band_sections[-1][2].append((no, rest))
        else:
            raise BandsSyntaxError(no, f"unexpected line {line!r}")

    if not vertices and not edges:
        raise BandsSyntaxError(0, "missing tree section")
    forest = MetricForest(
        vertices,
        [Edge(eid, u, v, parse_scalar(ln, field, no))
         for no, eid, u, v, ln in edges])

    def parse_point(text: str, no: int) -> Point:
        text = text.strip()
        if ":" in text:
            eid, _, off = text.partition(":")
            eid = eid.strip()
            if not forest.has_edge(eid):
                raise BandsSyntaxError(no, f"unknown edge {eid!r}")
            return forest.point(eid, parse_scalar(off, field, no))
        if text not in forest.vertices:
            raise BandsSyntaxError(no, f"unknown vertex {text!r}")
        return forest.vertex_point(text)

    support = None
    if support_lines:
        intervals: dict[str, list[tuple[Scalar, Scalar]]] = {}
        pts = set()
        for no, line in support_lines:
            head, _, rest = line.partition(" ")
            if head == "interval":
                parts = rest.split()
                if len(parts) != 3:
                    raise BandsSyntaxError(
                        no, "expected: interval <edge> <lo> <hi>")
                eid = parts[0]
                if not forest.has_edge(eid):
                    raise BandsSyntaxError(no, f"unknown edge {eid!r}")
                intervals.setdefault(eid, []).append(
                    (parse_scalar(parts[1], field, no),
                     parse_scalar(parts[2], field, no)))
            elif head == "point":
                pts.add(parse_point(rest, no))
            else:
                raise BandsSyntaxError(
                    no, f"unexpected {head!r} in support section")
        support = Subforest(forest, intervals, frozenset(pts))

    bands = []
    for no, name, map_lines in band_sections:
        if not map_lines:
            raise BandsSyntaxError(no, f"band {name} has no map lines")
        corr = []
        for mno, rest in map_lines:
            src, arrow, dst = rest.partition("->")
            if not arrow:
                raise BandsSyntaxError(mno, "expected: map <point> -> <point>")
            corr.append((parse_point(src, mno), parse_point(dst, mno)))
        dom = forest.hull([p for p, _ in corr])
        rng = forest.hull([q for _, q in corr])
        band = PartialIsometry(name, dom, rng, tuple(corr))
        problems = band.validate()
        if problems:
            raise ValidationError(problems)
        bands.append(band)

    system = BandSystem(forest, tuple(bands), support=support, field=field)
    problems = system.validate()
    if problems:
        raise ValidationError(problems)
    return system


def _parse_field(poly_text: str, lo_text: str, hi_text: str,
                 no: int) -> NumberField:
    poly = _parse_poly(poly_text, no, gen=True)
    try:
        return field_define(poly, Fraction(lo_text), Fraction(hi_text))
    except (ValueError, ZeroDivisionError, ScalarError) as exc:
        raise BandsSyntaxError(no, f"bad field: {exc}") from None


def parse_system(path: str) -> BandSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system_text(fh.read())


# ---------------------------------------------------------------------------
# serialization


def serialize_system(system: BandSystem) -> str:
    out = []
    if system.field is not None:
        f = system.field
        out.append(f"field {poly_str(f.minpoly)} in "
                   f"({f._lo0}, {f._hi0})")
    out.append("tree")
    for v in sorted(system.forest.vertices):
        out.append(f"vertex {v}")
    for e in sorted(system.forest.edges, key=lambda e: e.id):
        out.append(f"edge {e.id} {e.u} {e.v} {scalar_str(e.length)}")
    out.append("support")
    for eid in sorted(system.support.intervals):
        for lo, hi in system.support.intervals[eid]:
            # interval fields are whitespace-separated, so scalars here
            # must not contain spaces
            compact_lo = scalar_str(lo).replace(" ", "")
            compact_hi = scalar_str(hi).replace(" ", "")
            out.append(f"interval {eid} {compact_lo} {compact_hi}")
    # edge points before vertices
    for p in sorted(system.support.points,
                    key=lambda p: (p.is_vertex, point_key(p))):
        out.append(f"point {point_str(p)}")
    for b in sorted(system.bands, key=lambda b: b.name):
        out.append(f"band {b.name}")
        for m, img in b.correspondence:
            out.append(f"map {point_str(m)} -> {point_str(img)}")
    return "\n".join(out) + "\n"


def point_str(p: Point) -> str:
    """Exact textual form of a point, as `parse_system_text` reads it."""
    if p.is_vertex:
        return p.vertex
    return f"{p.edge}:{scalar_str(p.offset)}"


def save_system(system: BandSystem, path: str) -> None:
    """Write the system to path through a temporary file in the same
    directory, so an interrupted write leaves the old file or the complete
    new one, never a partial one."""
    text = serialize_system(system)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)
