import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ripslab import scalar
from ripslab.scalar import (
    DegenerateInterval,
    DivisionByZero,
    FieldMismatch,
    NoSignChange,
    NumberField,
    field_define,
    rational,
)

TRIB = [-1, -1, -1, 1]  # x^3 - x^2 - x - 1


@pytest.fixture()
def trib():
    return field_define(TRIB, 1, 2)


def test_field_define_tribonacci(trib):
    # bisection confirms the unique root sits near 1.8393
    lam = trib.gen
    assert lam.to_decimal(4) == "1.8393"


def test_field_define_linear_collapses_to_rational():
    f = field_define([-2, 1], 1, 3)  # x - 2
    lam = f.gen
    assert lam == 2
    assert (lam * lam).as_fraction() == 4


def test_field_define_no_sign_change():
    with pytest.raises(NoSignChange):
        field_define([-2, 0, 1], 0, 1)  # x^2 - 2 has no root in (0, 1)


def test_field_define_degenerate_interval():
    with pytest.raises(DegenerateInterval):
        field_define([-2, 0, 1], 2, 1)


def test_lambda_cubed_reduces(trib):
    lam = trib.gen
    assert lam * lam * lam == trib.element([1, 1, 1])  # 1 + lam + lam^2


def test_rational_add():
    assert rational(1, 2) + rational(1, 3) == rational(5, 6)


def test_inverse_of_lambda(trib):
    lam = trib.gen
    inv = 1 / lam
    assert inv == trib.element([-1, -1, 1])  # lam^2 - lam - 1
    assert inv * lam == 1


def test_sign(trib):
    lam = trib.gen
    assert (lam - 1).sign() == 1
    assert (lam * lam * lam - lam * lam - lam - 1).sign() == 0
    assert rational(-3, 7).sign() == -1


def test_to_decimal(trib):
    assert trib.gen.to_decimal(6) == "1.839287"
    assert rational(1, 3).to_decimal(4) == "0.3333"
    assert rational(0).to_decimal(2) == "0.00"


def test_field_mismatch(trib):
    other = field_define([-2, 0, 1], 1, 2)  # sqrt(2)
    with pytest.raises(FieldMismatch):
        trib.gen + other.gen


def test_division_by_zero(trib):
    with pytest.raises(DivisionByZero):
        trib.gen / trib.zero()


def test_irreducibility_check():
    with pytest.raises(scalar.NotIrreducible):
        field_define([-2, 1, -2, 1], 1, 3, check_irreducible=True)  # (x-2)(x^2+1)
    field_define(TRIB, 1, 2, check_irreducible=True)


def test_irreducibility_checked_by_default():
    # x^2 - 1/4 = (x - 1/2)(x + 1/2): without the check, 2*L == 1 would be
    # False while (2*L - 1).sign() == 0
    with pytest.raises(scalar.NotIrreducible):
        field_define([Fraction(-1, 4), 0, 1], 0, 1)


def _random_element(rng, field):
    return field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(field.degree)])


def test_field_axioms_random(trib):
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (_random_element(rng, trib) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        assert a * b == b * a


def test_sign_multiplicative_and_decimal_consistent(trib):
    rng = random.Random(11)
    import math

    root = 1.8392867552141612
    for _ in range(100):
        a = _random_element(rng, trib)
        b = _random_element(rng, trib)
        assert (a * b).sign() == a.sign() * b.sign()
        approx = sum(float(co) * root**i for i, co in enumerate(a.coeffs))
        if abs(approx) > 1e-9:
            assert a.sign() == int(math.copysign(1, approx))


def test_sign_agrees_with_50_digit_decimal(trib):
    rng = random.Random(13)
    for _ in range(100):
        a = _random_element(rng, trib)
        dec = a.to_decimal(50)
        from_decimal = -1 if dec.startswith("-") else (0 if set(dec) <= {"0", "."} else 1)
        assert a.sign() == from_decimal


@given(st.lists(st.fractions(max_denominator=50), min_size=0, max_size=6))
def test_reduction_idempotent(coeffs):
    f = field_define(TRIB, 1, 2)
    a = f.element(coeffs)
    assert f.element(a.coeffs) == a


@given(st.fractions(max_denominator=100), st.fractions(max_denominator=100))
def test_rational_mode_matches_fraction(x, y):
    assert (rational(x) + rational(y)).as_fraction() == x + y
    assert (rational(x) * rational(y)).as_fraction() == x * y
