"""Differential tests of the integer-coefficient Scalar against the
Fraction-coefficient reference `oracles.RefScalar`, over Q, over the bk_itm
field Q(L), L^3 + L^2 + L = 1, and over fields of degree 1, 2 (two of them)
and 4."""

import ast
import functools
import operator
import os
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from ripslab import scalar
from ripslab.scalar import FieldMismatch, NumberField, rational

from oracles import RefScalar

BK = NumberField([-1, 1, 1, 1], 0, 1)
# L = 1/2, L^2 = 2, L^2 = 1/2 (an integer polynomial 2x^2 - 1 whose leading
# coefficient is not 1) and L^4 = 2 (irreducible by sympy's factorization)
FIELDS = [BK, NumberField([Fraction(-1, 2), 1], 0, 1),
          NumberField([-2, 0, 1], 1, 2), NumberField([Fraction(-1, 2), 0, 1], 0, 1),
          NumberField([-2, 0, 0, 0, 1], 1, 2)]

# numerators and denominators up to 9 digits, as in the seeded p/q lengths
# of the rational Rips benchmark, with small values and zero kept likely
coefficient = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**9)),
)


# integers, small ones kept likely so that sums cancel
integer = st.one_of(st.integers(-3, 3), st.integers(-10**9, 10**9))

KINDS = ("Q", "zero", "field zero", "field rational", "integral", "field")


@st.composite
def scalars(draw, field=None, kinds=KINDS):
    """A (Scalar, RefScalar) pair of one of `kinds`: a plain rational, the
    plain or the field's zero, a rational-valued element of the field, a
    field element with integer coefficients, or a general one, given by up
    to 2 * degree + 1 coefficients so that reducing them is compared too;
    the field is drawn from FIELDS unless given."""
    field = field or draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(kinds))
    if kind in ("Q", "zero"):
        c = draw(coefficient) if kind == "Q" else Fraction(0)
        return rational(c), RefScalar(None, (c,))
    if kind == "field zero":
        return field.zero(), RefScalar(field, ())
    coeffs = draw(st.lists(integer if kind == "integral" else coefficient,
                           min_size=1, max_size=1
                           if kind == "field rational" else 2 * field.degree + 1))
    return field.element(coeffs), RefScalar(field, coeffs)


@st.composite
def cancelling(draw):
    """Two integral elements of one field whose higher coefficients are
    equal or opposite, so that their difference or sum is rational, as in
    (L + 1) - L."""
    field = draw(st.sampled_from(FIELDS))
    high = draw(st.lists(integer, min_size=1, max_size=max(1, field.degree - 1)))
    s = draw(st.sampled_from([1, -1]))
    x, y = [draw(integer)] + high, [draw(integer)] + [s * c for c in high]
    return ((field.element(x), RefScalar(field, x)),
            (field.element(y), RefScalar(field, y)))


# two scalars of one field, plain rationals among them
pairs = st.sampled_from(FIELDS).flatmap(
    lambda f: st.tuples(scalars(f), scalars(f)))


def canonical(x):
    return x.den > 0 and (not x.num or x.num[-1] != 0) and gcd(x.den, *x.num) == 1


def same(x, ref):
    assert canonical(x)
    assert x.coeffs == ref.coeffs
    assert (x.field is None) == (ref.field is None)


def of(field, *coeffs):
    """The (Scalar, RefScalar) pair of the given coefficients."""
    if field is None:
        return rational(*coeffs), RefScalar(None, coeffs)
    return field.element(coeffs), RefScalar(field, coeffs)


# (L + 1) - L is rational; a zero operand of either side, in the field or in
# Q; 3 + 0 in the field is the field's 3; 3 - L negates the longer tail
@settings(max_examples=300, deadline=None)
@given(st.one_of(pairs, cancelling()))
@example((of(BK, 1, 1), of(BK, 0, 1)))
@example((of(BK, 0, 1), of(BK)))
@example((of(BK), of(BK, 0, 1)))
@example((of(None, 0), of(BK, 0, 1)))
@example((of(BK, 0, 1), of(None, 0)))
@example((of(None, 3), of(BK)))
@example((of(None, 3), of(BK, 0, 1)))
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


FIELD_KINDS = [k for k in KINDS if k not in ("Q", "zero")]


@settings(max_examples=100, deadline=None)
@given(st.permutations(FIELDS).flatmap(lambda fs: st.tuples(
    scalars(fs[0], FIELD_KINDS), scalars(fs[1], FIELD_KINDS))))
def test_unequal_fields_do_not_mix(pair):
    """Elements of two unequal fields never combine, zero and rational
    values included."""
    (x, rx), (y, ry) = pair
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(FieldMismatch):
            op(rx, ry)
        with pytest.raises(FieldMismatch):
            op(x, y)


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
    field = NumberField([-1, 1, 1, 1], 0, 1)
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


def test_sign_of_a_tiny_power_matches_reference():
    """A fresh field refines its interval hundreds of times to decide the
    signs near L^300 (about 1e-80); the reference bisects on its own."""
    field = NumberField([-1, 1, 1, 1], 0, 1)
    lam, rlam = field.gen, RefScalar(field, (0, 1))
    x = functools.reduce(operator.mul, [lam] * 300)
    rx = functools.reduce(operator.mul, [rlam] * 300)
    for y, ry in ((x, rx), (-x, -rx), (x * lam - x, rx * rlam - rx)):
        assert y.sign() == ry.sign() != 0
    assert field._rev > 200


# -- interning: one live object per field value --------------------------------

@settings(max_examples=200, deadline=None)
@given(pairs | st.tuples(scalars(kinds=("Q", "zero")), scalars(kinds=("Q", "zero"))))
@example(((rational(0), None), (rational(3), None)))
def test_equal_field_values_reached_apart_are_one_object(pair):
    """Rational or not, a value is one live object in its field, or with
    no field: x and the same value reached by arithmetic are one, where x
    is taken in the field of the results (a plain rational joins any)."""
    (x, _), (y, _) = pair
    f = x.field or y.field
    if f is not x.field:
        x = f.rational(x.as_fraction())
    assert (x + y) - y is x
    assert -(-x) is x
    assert (f.element(x.coeffs) if f else rational(x.as_fraction())) is x
    if y:
        assert x * y / y is x
    else:
        assert x * y is y * x


def test_equal_fields_built_apart_share_no_values():
    f, g = (NumberField([-1, 1, 1, 1], 0, 1) for _ in range(2))
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
    field = NumberField([-1, 1, 1, 1], 0, 1)
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


def test_oracles_share_no_private_scalar_helper():
    """The references check `ripslab.scalar`, so they must not run its
    underscore-prefixed helpers."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracles.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "ripslab.scalar"
                for alias in node.names]
    assert imported and not [n for n in imported if n.startswith("_")]
