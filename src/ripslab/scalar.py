"""Exact arithmetic over Q and over a real number field Q(lambda).

Every length, offset and coordinate in the rest of the package is a
:class:`Scalar`: either a plain rational or a polynomial in a fixed real
algebraic number lambda, reduced modulo its defining polynomial.  Sign
determination is exact: an algebraic zero test (polynomial gcd with the
defining polynomial) guarantees termination, and interval refinement of
the isolating interval only accelerates the nonzero case.  No floating
point is used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union


class ScalarError(Exception):
    pass


class NoSignChange(ScalarError):
    """The defining polynomial does not change sign on the given interval."""


class DegenerateInterval(ScalarError):
    """The isolating interval is empty or a single point."""


class FieldMismatch(ScalarError):
    """Arithmetic attempted between elements of two different number fields."""


class DivisionByZero(ScalarError):
    pass


class NotIrreducible(ScalarError):
    """Raised by the optional irreducibility check of NumberField."""


# ---------------------------------------------------------------------------
# dense polynomials over Q, ascending coefficient tuples
# ---------------------------------------------------------------------------

Poly = tuple  # tuple[Fraction, ...], ascending, no trailing zeros


def _trim(c: Sequence[Fraction]) -> Poly:
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _poly(c: Iterable) -> Poly:
    return _trim([Fraction(x) for x in c])


def _padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _trim(out)


def _pneg(a: Poly) -> Poly:
    return tuple(-x for x in a)


def _psub(a: Poly, b: Poly) -> Poly:
    return _padd(a, _pneg(b))


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _pscale(a: Poly, s: Fraction) -> Poly:
    if s == 0:
        return ()
    return tuple(x * s for x in a)


def _pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    lead = b[-1]
    for k in range(len(q) - 1, -1, -1):
        c = r[k + len(b) - 1] / lead
        if c:
            q[k] = c
            for i, x in enumerate(b):
                r[k + i] -= c * x
    return _trim(q), _trim(r[:len(b) - 1])


def _pmod(a: Poly, b: Poly) -> Poly:
    return _pdivmod(a, b)[1]


def _pmonic(a: Poly) -> Poly:
    if not a:
        return ()
    return tuple(x / a[-1] for x in a)


def _pgcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, _pmod(a, b)
    return _pmonic(a)


def _pxgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Return (g, s, t) monic with s*a + t*b = g."""
    r0, r1 = a, b
    s0, s1 = (Fraction(1),), ()
    t0, t1 = (), (Fraction(1),)
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1))
        t0, t1 = t1, _psub(t0, _pmul(q, t1))
    if not r0:
        return (), s0, t0
    lead = r0[-1]
    inv = 1 / lead
    return _pmonic(r0), _pscale(s0, inv), _pscale(t0, inv)


def _pderiv(a: Poly) -> Poly:
    return _trim([a[i] * i for i in range(1, len(a))])


def _peval(a: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _peval_interval(a: Poly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval extension of polynomial evaluation by Horner."""
    alo, ahi = Fraction(0), Fraction(0)
    for c in reversed(a):
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


def _frac_enclosure(v: Fraction) -> tuple[float, float]:
    f = float(v)
    return (math.nextafter(f, -math.inf), math.nextafter(f, math.inf))


def _dyadic_float(n: int, prec: int, up: bool) -> float:
    """Outward float approximation of n / 2^prec."""
    b = n.bit_length()
    shift = 0
    if b > 900:  # keep float(n) away from overflow
        shift = b - 900
        n = -((-n) >> shift) if up else (n >> shift)
    try:
        f = math.ldexp(float(n), shift - prec)
    except OverflowError:  # pragma: no cover
        return math.inf if up else -math.inf
    return math.nextafter(f, math.inf if up else -math.inf)


def _dyadic_down(n: int, prec: int) -> float:
    return _dyadic_float(n, prec, False)


def _dyadic_up(n: int, prec: int) -> float:
    return _dyadic_float(n, prec, True)


def _sturm_chain(p: Poly) -> list[Poly]:
    chain = [p, _pderiv(p)]
    while chain[-1]:
        chain.append(_pneg(_pmod(chain[-2], chain[-1])))
    chain.pop()
    return chain


def _sign_changes(vals: list[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in vals if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    p = _pdivmod(p, _pgcd(p, _pderiv(p)))[0] if len(p) > 2 else p  # squarefree part
    if not p or len(p) == 1:
        return 0
    chain = _sturm_chain(p)
    at_lo = _sign_changes([_peval(q, lo) for q in chain])
    at_hi = _sign_changes([_peval(q, hi) for q in chain])
    return at_lo - at_hi


# ---------------------------------------------------------------------------
# number fields
# ---------------------------------------------------------------------------


class NumberField:
    """Q(lambda) for lambda the unique real root of a monic integer polynomial
    inside an isolating interval.

    The interval is refined lazily as sign determinations demand; refinement
    only ever shrinks it, so instances behave as immutable values.
    """

    def __init__(self, minpoly: Iterable, lo, hi, check_irreducible: bool = False):
        poly = _poly(minpoly)
        if len(poly) < 2:
            raise ScalarError("defining polynomial must be nonconstant")
        if poly[-1] != 1:
            raise ScalarError("defining polynomial must be monic")
        lo, hi = Fraction(lo), Fraction(hi)
        if lo >= hi:
            raise DegenerateInterval(f"need lo < hi, got [{lo}, {hi}]")
        if _peval(poly, lo) * _peval(poly, hi) >= 0:
            raise NoSignChange(
                f"polynomial does not change sign on ({lo}, {hi})")
        self.minpoly: Poly = poly
        self._lo0, self._hi0 = lo, hi
        self._lo, self._hi = lo, hi
        self._exact: Fraction | None = None  # set if lambda turns out rational
        self._rev = 0           # bumped on refine; invalidates cached bounds
        self._fp = None         # cached (prec, lo_int, hi_int) dyadic bounds
        if check_irreducible and not self._is_irreducible():
            raise NotIrreducible("defining polynomial is reducible over Q")
        if len(poly) == 2:
            # linear polynomial: lambda is the rational -poly[0]
            self._exact = -poly[0]
            self._lo = self._hi = self._exact

    def _is_irreducible(self) -> bool:
        import sympy

        x = sympy.Symbol("x")
        expr = sum(sympy.Rational(c) * x**i for i, c in enumerate(self.minpoly))
        factors = sympy.factor_list(expr)[1]
        return len(factors) == 1 and factors[0][1] == 1

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    def interval(self) -> tuple[Fraction, Fraction]:
        return self._lo, self._hi

    def refine(self) -> None:
        """Halve the isolating interval, keeping the root."""
        if self._exact is not None:
            return
        lo, hi = self._lo, self._hi
        mid = (lo + hi) / 2
        vm = _peval(self.minpoly, mid)
        if vm == 0:
            # the isolated root is exactly mid (reducible/trusted mode)
            self._exact = mid
            self._lo = self._hi = mid
            return
        if _peval(self.minpoly, lo) * vm < 0:
            self._hi = mid
        else:
            self._lo = mid
        self._rev += 1
        self._fp = None

    def fixed_bounds(self) -> tuple[int, int, int]:
        """Dyadic integer bounds (prec, L, H) with L/2^prec <= root <= H/2^prec."""
        if self._fp is None:
            width = self._hi - self._lo
            inv_width = width.denominator // max(width.numerator, 1)
            prec = max(64, inv_width.bit_length() + 32)
            L = (self._lo.numerator << prec) // self._lo.denominator
            H = -((-self._hi.numerator << prec) // self._hi.denominator)
            self._fp = (prec, L, H)
        return self._fp

    # element constructors -------------------------------------------------

    def element(self, coeffs: Iterable) -> "Scalar":
        c = _pmod(_poly(coeffs), self.minpoly)
        return Scalar(self, c)

    @property
    def gen(self) -> "Scalar":
        return self.element((0, 1))

    def rational(self, value) -> "Scalar":
        return self.element((Fraction(value),))

    def zero(self) -> "Scalar":
        return self.element(())

    # value semantics ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, NumberField)
                and self.minpoly == other.minpoly
                and self._lo0 == other._lo0 and self._hi0 == other._hi0)

    def __hash__(self) -> int:
        return hash((self.minpoly, self._lo0, self._hi0))

    def __repr__(self) -> str:
        return f"NumberField({list(self.minpoly)}, {self._lo0}, {self._hi0})"


def field_define(minpoly: Iterable, lo, hi, check_irreducible: bool = False) -> NumberField:
    """Construct the real number field Q(lambda) with the given data."""
    return NumberField(minpoly, lo, hi, check_irreducible=check_irreducible)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

ScalarLike = Union["Scalar", int, Fraction]


class Scalar:
    """An element of Q or of a NumberField, in canonical reduced form.

    Two scalars of the same field are equal iff their coefficient vectors
    are equal.  All operations are pure; instances are immutable.
    """

    __slots__ = ("field", "coeffs", "_hash", "_enc", "_encrev")

    def __init__(self, field: NumberField | None, coeffs: Poly):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_enc", None)
        object.__setattr__(self, "_encrev", -1)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Scalar is immutable")

    # coercion -------------------------------------------------------------

    @staticmethod
    def _coerce(value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(None, _poly((Fraction(value),)))

    def _pair(self, other: ScalarLike) -> tuple["Scalar", "Scalar", NumberField | None]:
        other = Scalar._coerce(other)
        if self.field is other.field:
            return self, other, self.field
        if self.field is None:
            return Scalar(other.field, self.coeffs), other, other.field
        if other.field is None:
            return self, Scalar(self.field, other.coeffs), self.field
        if self.field == other.field:
            return self, other, self.field
        raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    # arithmetic -----------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Scalar":
        a, b, f = self._pair(other)
        return Scalar(f, _padd(a.coeffs, b.coeffs))

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, _pneg(self.coeffs))

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return self + (-Scalar._coerce(other))

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar._coerce(other) - self

    def __mul__(self, other: ScalarLike) -> "Scalar":
        a, b, f = self._pair(other)
        prod = _pmul(a.coeffs, b.coeffs)
        if f is not None:
            prod = _pmod(prod, f.minpoly)
        return Scalar(f, prod)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        a, b, f = self._pair(other)
        if b.is_zero():
            raise DivisionByZero("division by zero scalar")
        if f is None:
            return Scalar(None, (a.coeffs[0] / b.coeffs[0],) if a.coeffs else ())
        return a * b._inverse()

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return Scalar._coerce(other) / self

    def _inverse(self) -> "Scalar":
        f = self.field
        assert f is not None
        modulus = f.minpoly
        b = self.coeffs
        while True:
            g, s, _t = _pxgcd(b, modulus)
            if len(g) == 1:
                # g is monic, hence the constant 1: s*b == 1 (mod modulus)
                return Scalar(f, _pmod(s, f.minpoly))
            # reducible modulus: g is a nontrivial common factor
            if count_roots(g, f._lo, f._hi) > 0:
                raise DivisionByZero("scalar is zero at the isolated root")
            modulus = _pdivmod(modulus, g)[0]
            b = _pmod(b, modulus)

    # predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        if not self.coeffs:
            return True
        if self.field is None:
            return False
        g = _pgcd(self.coeffs, self.field.minpoly)
        if len(g) <= 1:
            return False
        return count_roots(g, self.field._lo, self.field._hi) > 0

    def is_rational(self) -> bool:
        return len(self.coeffs) <= 1

    def as_fraction(self) -> Fraction:
        if len(self.coeffs) > 1:
            raise ScalarError("scalar is not a plain rational")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def enclosure(self) -> tuple[float, float]:
        """A rigorous floating interval containing the exact value.

        Computed by integer fixed-point interval Horner over the field's
        dyadic root bounds, then widened outward; cached per revision of
        the field's isolating interval.
        """
        if not self.coeffs:
            return (0.0, 0.0)
        f = self.field
        if len(self.coeffs) == 1 or f is None:
            return _frac_enclosure(self.coeffs[0])
        if f._exact is not None:
            return _frac_enclosure(_peval(self.coeffs, f._exact))
        if self._enc is not None and self._encrev == f._rev:
            return self._enc
        prec, L, H = f.fixed_bounds()
        vlo = vhi = 0
        for c in reversed(self.coeffs):
            if vlo or vhi:
                cands = (vlo * L, vlo * H, vhi * L, vhi * H)
                mlo, mhi = min(cands), max(cands)
                vlo = mlo >> prec
                vhi = -((-mhi) >> prec)
            num, den = c.numerator, c.denominator
            vlo += (num << prec) // den
            vhi += -((-num << prec) // den)
        enc = (_dyadic_down(vlo, prec), _dyadic_up(vhi, prec))
        object.__setattr__(self, "_enc", enc)
        object.__setattr__(self, "_encrev", f._rev)
        return enc

    def sign(self) -> int:
        """-1, 0 or +1; exact.

        The cached enclosure decides almost every call; the exact
        (gcd-based) zero test runs only when the enclosure keeps
        straddling zero, so true zeros stay exact and nonzeros stay fast.
        """
        if not self.coeffs:
            return 0
        if len(self.coeffs) == 1 or self.field is None:
            return 1 if self.coeffs[0] > 0 else -1
        f = self.field
        if f._exact is not None:
            v = _peval(self.coeffs, f._exact)
            return 0 if v == 0 else (1 if v > 0 else -1)
        attempts = 0
        checked_zero = False
        while True:
            lo, hi = self.enclosure()
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if not checked_zero and attempts >= 2:
                if self.is_zero():
                    return 0
                checked_zero = True
            for _ in range(8):
                f.refine()
            attempts += 1
            if f._exact is not None:
                return self.sign()

    # comparisons ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        try:
            a, b, _ = self._pair(other)
        except FieldMismatch:
            return False
        return a.coeffs == b.coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            # rational values hash alike in every field, matching __eq__
            key = self.field if len(self.coeffs) > 1 else None
            h = hash((key, self.coeffs))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def _compare(self, other: ScalarLike) -> int:
        """Sign of self - other, with an enclosure fast path."""
        b = Scalar._coerce(other)
        if self.field is b.field and self.coeffs == b.coeffs:
            return 0
        alo, ahi = self.enclosure()
        blo, bhi = b.enclosure()
        if ahi < blo:
            return -1
        if bhi < alo:
            return 1
        return (self - b).sign()

    def __lt__(self, other: ScalarLike) -> bool:
        return self._compare(other) < 0

    def __le__(self, other: ScalarLike) -> bool:
        return self._compare(other) <= 0

    def __gt__(self, other: ScalarLike) -> bool:
        return self._compare(other) > 0

    def __ge__(self, other: ScalarLike) -> bool:
        return self._compare(other) >= 0

    def __abs__(self) -> "Scalar":
        return -self if self.sign() < 0 else self

    def __bool__(self) -> bool:
        return not self.is_zero()

    # reporting ------------------------------------------------------------

    def to_decimal(self, digits: int) -> str:
        """Decimal approximation, correctly rounded to `digits` places."""
        if digits < 1:
            raise ScalarError("digits must be >= 1")
        f = self.field
        if len(self.coeffs) <= 1 or f is None or f._exact is not None:
            if f is not None and f._exact is not None and len(self.coeffs) > 1:
                value = _peval(self.coeffs, f._exact)
            else:
                value = self.as_fraction()
            return _format_decimal(value, digits)
        scale = Fraction(10) ** digits
        while True:
            lo, hi = _peval_interval(self.coeffs, f._lo, f._hi)
            nlo = _round_half_up(lo * scale)
            nhi = _round_half_up(hi * scale)
            if nlo == nhi:
                return _format_decimal(Fraction(nlo, scale.numerator), digits,
                                       already_scaled=True, scaled=nlo)
            # guard against an exact tie: compare against the boundary
            boundary = Fraction(2 * nlo + 1, 2 * scale.numerator)
            diff = self - Scalar(None, (boundary,))
            if diff.is_zero():
                return _format_decimal(boundary, digits)
            f.refine()


def _round_half_up(x: Fraction) -> int:
    from math import floor

    return floor(x + Fraction(1, 2))


def _format_decimal(value: Fraction, digits: int, already_scaled: bool = False,
                    scaled: int | None = None) -> str:
    scale = 10 ** digits
    n = scaled if already_scaled else _round_half_up(value * scale)
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, scale)
    return f"{sign}{whole}.{frac:0{digits}d}"


def rational(numerator, denominator=1) -> Scalar:
    """A rational-mode scalar."""
    return Scalar(None, _poly((Fraction(numerator, denominator),)))


ZERO = rational(0)
ONE = rational(1)


def arith(a: Scalar, b: Scalar, op: str) -> Scalar:
    """Named dispatch over the four field operations."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ScalarError(f"unknown operation {op!r}")


def sign(a: ScalarLike) -> int:
    return Scalar._coerce(a).sign()


def to_decimal(a: ScalarLike, digits: int) -> str:
    return Scalar._coerce(a).to_decimal(digits)
