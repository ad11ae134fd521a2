"""Differential tests of the integer-coefficient Scalar against the
Fraction-coefficient reference `oracles.RefScalar`, over Q and over the
bk_itm field Q(L), L^3 + L^2 + L = 1."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ripslab.scalar import field_define, rational

from oracles import RefScalar

BK = field_define([-1, 1, 1, 1], 0, 1)

# numerators and denominators up to 9 digits, as in the seeded p/q lengths
# of the rational Rips benchmark, with small values and zero kept likely
coefficient = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**9)),
)


@st.composite
def scalars(draw):
    """A (Scalar, RefScalar) pair: a plain rational, a rational-valued
    element of the field, or a general field element."""
    kind = draw(st.sampled_from(["Q", "field rational", "field"]))
    if kind == "Q":
        c = draw(coefficient)
        return rational(c), RefScalar(None, (c,))
    coeffs = draw(st.lists(coefficient, min_size=1,
                           max_size=1 if kind == "field rational" else 3))
    return BK.element(coeffs), RefScalar(BK, coeffs)


def canonical(x):
    return x.den > 0 and (not x.num or x.num[-1] != 0) and gcd(x.den, *x.num) == 1


def same(x, ref):
    assert canonical(x)
    assert x.coeffs == ref.coeffs
    assert (x.field is None) == (ref.field is None)


@settings(max_examples=300, deadline=None)
@given(scalars(), scalars())
def test_arithmetic_matches_reference(a, b):
    (x, rx), (y, ry) = a, b
    same(x + y, rx + ry)
    same(x - y, rx - ry)
    same(x * y, rx * ry)
    same(-x, -rx)
    if ry.coeffs:
        same(x / y, rx / ry)


@settings(max_examples=300, deadline=None)
@given(scalars(), scalars())
def test_order_and_equality_match_reference(a, b):
    (x, rx), (y, ry) = a, b
    assert (x == y) == (rx == ry)
    if x == y:
        assert hash(x) == hash(y)
    assert (x < y) == (rx < ry)
    assert (x <= y) == (not ry < rx)
    assert x.sign() == rx.sign()


@settings(max_examples=300, deadline=None)
@given(scalars())
def test_enclosure_contains_value(a):
    x, rx = a
    lo, hi = x.enclosure()
    assert lo <= hi
    assert rx.contains_in(lo, hi)
    assert x.enclosure() == (lo, hi)  # cached


@given(coefficient)
def test_field_rationals_equal_plain_rationals(c):
    x, q = BK.element([c]), rational(c)
    assert x == q and q == x and x == c
    assert hash(x) == hash(q)
    assert len({x, q}) == 1
    assert x.enclosure() == q.enclosure()


@pytest.mark.parametrize("coeffs", [[], [0], [0, 0, 0], [Fraction(5, 10**9)],
                                    [1, -1], [0, Fraction(-7, 3), 2]])
def test_representation_is_canonical(coeffs):
    x = BK.element(coeffs)
    assert canonical(x)
    assert BK.element(x.coeffs).num == x.num
