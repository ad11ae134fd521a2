"""Differential tests of the integer-coefficient Scalar against the
Fraction-coefficient reference `oracles.RefScalar`, over Q, over the bk_itm
field Q(L), L^3 + L^2 + L = 1, and over fields of degree 1, 2 and 4."""

import functools
import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ripslab import scalar
from ripslab.scalar import field_define, rational

from oracles import RefScalar

BK = field_define([-1, 1, 1, 1], 0, 1)
# L = 1/2, L^2 = 2 and L^4 = 2 (irreducible by sympy's factorization)
FIELDS = [BK, field_define([Fraction(-1, 2), 1], 0, 1),
          field_define([-2, 0, 1], 1, 2), field_define([-2, 0, 0, 0, 1], 1, 2)]

# numerators and denominators up to 9 digits, as in the seeded p/q lengths
# of the rational Rips benchmark, with small values and zero kept likely
coefficient = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**9)),
)


@st.composite
def scalars(draw, field=None):
    """A (Scalar, RefScalar) pair: a plain rational, a rational-valued
    element of the field, or a general field element; the field is drawn
    from FIELDS unless given."""
    field = field or draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(["Q", "field rational", "field"]))
    if kind == "Q":
        c = draw(coefficient)
        return rational(c), RefScalar(None, (c,))
    coeffs = draw(st.lists(coefficient, min_size=1, max_size=1
                           if kind == "field rational" else field.degree))
    return field.element(coeffs), RefScalar(field, coeffs)


# two scalars of one field
pairs = st.sampled_from(FIELDS).flatmap(
    lambda f: st.tuples(scalars(f), scalars(f)))


def canonical(x):
    return x.den > 0 and (not x.num or x.num[-1] != 0) and gcd(x.den, *x.num) == 1


def same(x, ref):
    assert canonical(x)
    assert x.coeffs == ref.coeffs
    assert (x.field is None) == (ref.field is None)


@settings(max_examples=300, deadline=None)
@given(pairs)
def test_arithmetic_matches_reference(pair):
    (x, rx), (y, ry) = pair
    same(x + y, rx + ry)
    same(x - y, rx - ry)
    same(x * y, rx * ry)
    same(-x, -rx)
    if ry.coeffs:
        same(x / y, rx / ry)


@settings(max_examples=300, deadline=None)
@given(pairs)
def test_order_and_equality_match_reference(pair):
    (x, rx), (y, ry) = pair
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


@given(st.sampled_from(FIELDS), coefficient)
def test_field_rationals_equal_plain_rationals(field, c):
    x, q = field.element([c]), rational(c)
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


def test_near_zero_values_decided_without_gcd(monkeypatch):
    """Once the field is built, sign, order, decimals and division need
    neither the polynomial gcd nor Sturm counting, on values within 10^-16
    of 0 and on one below the range of a float."""
    field = field_define([-1, 1, 1, 1], 0, 1)
    lam, rlam = field.gen, RefScalar(field, (0, 1))

    def power(x, n):
        return functools.reduce(operator.mul, [x] * n)

    cases = [(power(lam, 60), power(rlam, 60))]  # L^60 ~ 1.3e-16
    for k, c in ((1, Fraction("0.5436890126920764")),
                 (2, Fraction("0.2955977425220848"))):
        cases.append((power(lam, k) - c, power(rlam, k) - RefScalar(None, (c,))))
    tiny = power(lam, 1300)  # ~1e-344, below the least positive float

    def unreachable(*args):
        raise AssertionError("gcd path reached")

    monkeypatch.setattr(scalar, "_pgcd", unreachable)
    monkeypatch.setattr(scalar, "count_roots", unreachable)
    half = Fraction(1, 2 * 10**20)
    for x, rx in cases:
        assert x.sign() == rx.sign() != 0
        assert (x < 0) == (rx.sign() < 0)
        d = Fraction(x.to_decimal(20))
        assert (rx - RefScalar(None, (d - half,))).sign() >= 0
        assert (rx - RefScalar(None, (d + half,))).sign() < 0
        for y, ry in cases:
            assert (x < y) == (rx < ry)
            same(x / y, rx / ry)
    # 0 < L < 1, so 0 < L^1300 < L^60
    assert tiny.sign() == 1 and (-tiny).sign() == -1
    assert 0 < tiny < cases[0][0]
    assert tiny.to_decimal(20) == "0." + "0" * 20
    assert tiny / tiny == 1


# -- interning: one live object per field value --------------------------------

@settings(max_examples=200, deadline=None)
@given(pairs)
def test_equal_field_values_reached_apart_are_one_object(pair):
    (x, _), (y, _) = pair
    if len(x.num) < 2:
        return
    assert (x + y) - y is x
    assert -(-x) is x
    assert x.field.element(x.coeffs) is x
    if y:
        assert x * y / y is x


def test_equal_fields_built_apart_share_no_values():
    f, g = (field_define([-1, 1, 1, 1], 0, 1) for _ in range(2))
    assert f == g and f is not g
    x, y = f.gen * f.gen + 1, g.gen * g.gen + 1
    assert x == y and hash(x) == hash(y)
    assert x is not y
    assert x.field is f and y.field is g
    assert (x + f.gen) - f.gen is x and (y + g.gen) - g.gen is y


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(coefficient, min_size=1, max_size=3), min_size=2, max_size=6),
       st.integers(1, 40))
def test_enclosures_cached_before_refinement_still_decide_exactly(coeff_lists, refines):
    """Order tests read enclosures cached at an earlier, wider isolating
    interval; every answer still agrees with the reference."""
    field = field_define([-1, 1, 1, 1], 0, 1)
    xs = [(field.element(c), RefScalar(field, c)) for c in coeff_lists]
    for x, _ in xs:
        x.enclosure()
    for _ in range(refines):
        field.refine()
    assert all(x._encrev != field._rev for x, _ in xs if len(x.num) > 1)
    for x, rx in xs:
        for y, ry in xs:
            lt, gt = rx < ry, ry < rx
            assert (x < y) == lt and (x > y) == gt
            assert (x <= y) == (not gt) and (x >= y) == (not lt)
