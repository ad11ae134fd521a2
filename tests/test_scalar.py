import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ripslab import scalar
from ripslab.scalar import (
    DegenerateInterval,
    DivisionByZero,
    FieldMismatch,
    NoSignChange,
    NotIsolating,
    NumberField,
    rational,
)

TRIB = [-1, -1, -1, 1]  # x^3 - x^2 - x - 1


@pytest.fixture()
def trib():
    return NumberField(TRIB, 1, 2)


def test_field_define_tribonacci(trib):
    # bisection confirms the unique root sits near 1.8393
    lam = trib.gen
    assert lam.to_decimal(4) == "1.8393"


def test_field_define_linear_collapses_to_rational():
    f = NumberField([-2, 1], 1, 3)  # x - 2
    lam = f.gen
    assert lam == 2
    assert (lam * lam).as_fraction() == 4


def test_field_define_no_sign_change():
    with pytest.raises(NoSignChange):
        NumberField([-2, 0, 1], 0, 1)  # x^2 - 2 has no root in (0, 1)


def test_field_define_interval_with_several_roots():
    # x^3 - 3x + 1 changes sign on (-2, 2) but has three roots there
    with pytest.raises(NotIsolating, match="3 roots"):
        NumberField([1, -3, 0, 1], -2, 2)
    assert NumberField([1, -3, 0, 1], 1, 2).gen.to_decimal(4) == "1.5321"


def test_field_define_degenerate_interval():
    with pytest.raises(DegenerateInterval):
        NumberField([-2, 0, 1], 2, 1)


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
    other = NumberField([-2, 0, 1], 1, 2)  # sqrt(2)
    with pytest.raises(FieldMismatch):
        trib.gen + other.gen


def test_division_by_zero(trib):
    with pytest.raises(DivisionByZero):
        trib.gen / trib.zero()


def test_irreducibility_check():
    with pytest.raises(scalar.NotIrreducible):
        NumberField([-2, 1, -2, 1], 1, 3, check_irreducible=True)  # (x-2)(x^2+1)
    NumberField(TRIB, 1, 2, check_irreducible=True)


def test_irreducibility_checked_by_default():
    # x^2 - 1/4 = (x - 1/2)(x + 1/2): without the check, 2*L == 1 would be
    # False while (2*L - 1).sign() == 0
    with pytest.raises(scalar.NotIrreducible):
        NumberField([Fraction(-1, 4), 0, 1], 0, 1)


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
    f = NumberField(TRIB, 1, 2)
    a = f.element(coeffs)
    assert f.element(a.coeffs) == a


@given(st.fractions(max_denominator=100), st.fractions(max_denominator=100))
def test_rational_mode_matches_fraction(x, y):
    assert (rational(x) + rational(y)).as_fraction() == x + y
    assert (rational(x) * rational(y)).as_fraction() == x * y


def _plain_bisection(poly, lo, hi, n):
    """The isolating intervals of n halvings, each deciding its half by the
    sign of p(lo) * p(mid), evaluated in Fractions."""
    def p(x):
        return sum(Fraction(c) * x**i for i, c in enumerate(poly))

    out = []
    for _ in range(n):
        mid = (lo + hi) / 2
        if p(lo) * p(mid) <= 0:
            hi = mid
        else:
            lo = mid
        out.append((lo, hi))
    return out


@pytest.mark.parametrize("poly, lo, hi", [
    ([-1, 1, 1, 1], 0, 1),                                   # bk_itm
    ([Fraction(-5, 2), Fraction(-1, 3), 0, 0, 1], 1, 2),     # degree 4
    ([Fraction(-1, 2), 1], 0, 1),                            # the root is a midpoint
])
def test_refine_halves_as_plain_bisection(poly, lo, hi):
    field = NumberField(poly, lo, hi)
    steps = []
    for _ in range(200):
        field.refine()
        steps.append((field._lo, field._hi))
    assert steps == _plain_bisection(poly, Fraction(lo), Fraction(hi), 200)


def test_scalar_attributes_cannot_be_assigned(trib):
    """Field elements are shared through their field's table, so no holder
    may change one."""
    x = trib.element([1, 2])
    for name, value in (("field", None), ("num", (3,)), ("den", 2),
                        ("coeffs", ())):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    assert x.field is trib and x.num == (1, 2) and x.den == 1
    assert trib.element([1, 2]) is x


def _expand(factors):
    """The product of integer polynomials, ascending."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] += x * y
        out = prod
    return out


@st.composite
def polys_with_known_roots(draw, max_denominator=4):
    """(p, roots, rest): p is a product of linear factors (den*x - num),
    each to a power up to 3, and of a random integer polynomial rest, to a
    power up to 2 (rest is () for the power 0)."""
    roots = draw(st.lists(st.fractions(min_value=-4, max_value=4,
                                       max_denominator=max_denominator),
                          max_size=3, unique=True))
    factors = [(-r.numerator, r.denominator) for r in roots
               for _ in range(draw(st.integers(1, 3)))]
    rest = draw(st.lists(st.integers(-5, 5), max_size=4))
    power = draw(st.integers(0, 2))
    p = _expand(factors + [rest] * power)
    rest = rest if power else ()
    while p and not p[-1]:
        p.pop()
    return tuple(p), roots, rest


@settings(max_examples=100, deadline=None)
@given(polys_with_known_roots(), st.lists(st.fractions(min_value=-6, max_value=6,
                                                       max_denominator=6), max_size=3),
       st.fractions(min_value=-9, max_value=9).filter(bool))
def test_count_roots_matches_fraction_sturm_chain(case, others, scale):
    """Repeated factors, rational coefficients of either sign, and interval
    ends that are roots."""
    from oracles import brute_count_roots

    p, roots, _rest = case
    p = tuple(c * scale for c in p)
    points = roots + others
    for lo in points:
        for hi in points:
            if lo < hi:
                assert scalar.count_roots(p, lo, hi) == brute_count_roots(p, lo, hi)


@settings(max_examples=100, deadline=None)
@given(polys_with_known_roots(max_denominator=1))
def test_integer_roots_are_the_integer_zeros(case):
    p, roots, rest = case
    if not p:
        return
    # an integer root of rest divides its lowest nonzero coefficient
    zeros = {x for x in range(-5, 6) if not sum(c * x**i for i, c in enumerate(rest))}
    expected = set(roots) | (zeros if any(rest) else set())
    assert scalar.integer_roots(scalar.sturm_chain(p)) == sorted(expected)
