"""Exact arithmetic over Q and over a real number field Q(lambda).

Every length, offset and coordinate in the rest of the package is a
:class:`Scalar`: either a plain rational or a polynomial in a fixed real
algebraic number lambda, reduced modulo its defining polynomial.  A scalar
holds integer coefficients over one positive common denominator, in lowest
terms, so arithmetic, equality and hashing are integer operations;
``Fraction`` polynomials remain only in parsing, the inverse, the exact
zero test and Sturm root counting.  Sign determination is exact: an
algebraic zero test (polynomial gcd with the defining polynomial)
guarantees termination, and interval refinement of the isolating interval
only accelerates the nonzero case.  No floating point is used anywhere.
"""

from __future__ import annotations

import itertools
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
    """Raised by the irreducibility check of NumberField, on by default."""


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
    return _trim([x + b[i] if i < len(b) else x for i, x in enumerate(a)])


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
    return tuple(x / a[-1] for x in a)


def _pgcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, _pmod(a, b)
    return _pmonic(a)


def _pxgcd(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Return (g, s) with g = gcd(a, b) monic and s*a == g (mod b)."""
    r0, r1 = a, b
    s0, s1 = (Fraction(1),), ()
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1))
    return _pmonic(r0), tuple(x / r0[-1] for x in s0)


def _pderiv(a: Poly) -> Poly:
    return _trim([a[i] * i for i in range(1, len(a))])


def _peval(a: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _dyadic_float(n: int, prec: int, up: bool) -> float:
    """Outward float approximation of n / 2^prec."""
    shift = max(0, n.bit_length() - 900)  # keep float(n) away from overflow
    n = -((-n) >> shift) if up else (n >> shift)
    try:
        f = math.ldexp(float(n), shift - prec)
    except OverflowError:  # pragma: no cover
        return math.inf if up else -math.inf
    return math.nextafter(f, math.inf if up else -math.inf)


def count_roots(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi],
    by the Sturm chain of its squarefree part."""
    p = _pdivmod(p, _pgcd(p, _pderiv(p)))[0] if len(p) > 2 else p
    if len(p) <= 1:
        return 0
    chain = [p, _pderiv(p)]
    while chain[-1]:
        chain.append(_pneg(_pmod(chain[-2], chain[-1])))

    def sign_changes(x) -> int:
        signs = [v > 0 for v in (_peval(q, x) for q in chain[:-1]) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return sign_changes(lo) - sign_changes(hi)


def poly_str(coeffs: Sequence) -> str:
    """Ascending coefficients as a polynomial in L, as the `.bands` scalar
    grammar reads it: ``-1/2*L^2 + L - 3``."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c, mono = coeffs[i], ("", "L")[i] if i < 2 else f"L^{i}"
        if c:
            body = mono if abs(c) == 1 and mono else (
                f"{abs(c)}*{mono}" if mono else str(abs(c)))
            sign = ("+ ", "- ") if terms else ("", "-")
            terms.append(sign[c < 0] + body)
    return " ".join(terms) or "0"


# ---------------------------------------------------------------------------
# number fields
# ---------------------------------------------------------------------------


class NumberField:
    """Q(lambda) for lambda the unique real root of a monic polynomial over
    Q inside an isolating interval.  The interval is refined lazily as sign
    determinations demand; refinement only ever shrinks it, so instances
    behave as immutable values."""

    def __init__(self, minpoly: Iterable, lo, hi, check_irreducible: bool = True):
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
        # rows[j] / den is lambda^(degree + j) mod minpoly, for products
        d = self.degree
        rows = [_pmod((0,) * k + (1,), poly) for k in range(d, 2 * d - 1)]
        den = math.lcm(1, *(c.denominator for r in rows for c in r))
        self._red = (den, [[c.numerator * (den // c.denominator) for c in r]
                           for r in rows])
        if len(poly) == 2:
            # linear polynomial: lambda is the rational -poly[0]
            self._exact = self._lo = self._hi = -poly[0]

    def _is_irreducible(self) -> bool:
        p, n = self.minpoly, self.degree
        if n > 3:
            import sympy

            x = sympy.Symbol("x")
            factors = sympy.factor_list(sum(sympy.Rational(c) * x**i
                                            for i, c in enumerate(p)))[1]
            return len(factors) == 1 and factors[0][1] == 1
        # reducible iff p has a rational root, i.e. g(y) = D^n p(y/D), monic
        # over Z for D a common denominator, has an integer root dividing
        # g(0); bisect integer intervals (lo, hi] holding a root to width 1
        d = math.lcm(*(c.denominator for c in p))
        g = _poly(c * d ** (n - i) for i, c in enumerate(p))
        stack = [(-abs(g[0]) - 1, abs(g[0]))] if g[0] and n > 1 else []
        while stack:
            lo, hi = stack.pop()
            if hi - lo == 1 and _peval(g, hi) == 0:
                return False
            if hi - lo > 1 and count_roots(g, lo, hi):
                stack += [(lo, (lo + hi) // 2), ((lo + hi) // 2, hi)]
        return n == 1 or bool(g[0])

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    def refine(self) -> None:
        """Halve the isolating interval, keeping the root."""
        if self._exact is not None:
            return
        lo, hi = self._lo, self._hi
        mid = (lo + hi) / 2
        vm = _peval(self.minpoly, mid)
        if vm == 0:
            # the isolated root is exactly mid (reducible/trusted mode)
            self._exact = self._lo = self._hi = mid
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

    def element(self, coeffs: Iterable) -> "Scalar":
        p = _pmod(_poly(coeffs), self.minpoly)
        den = math.lcm(1, *(c.denominator for c in p))
        # over the lcm of the denominators no factor is common to all
        return Scalar(self, tuple(c.numerator * (den // c.denominator) for c in p), den)

    @property
    def gen(self) -> "Scalar":
        return self.element((0, 1))

    def rational(self, value) -> "Scalar":
        return self.element((Fraction(value),))

    def zero(self) -> "Scalar":
        return self.element(())

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


def field_define(minpoly: Iterable, lo, hi, check_irreducible: bool = True) -> NumberField:
    """Construct the real number field Q(lambda) with the given data."""
    return NumberField(minpoly, lo, hi, check_irreducible=check_irreducible)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

ScalarLike = Union["Scalar", int, Fraction]


class Scalar:
    """An element of Q or of a NumberField, in canonical reduced form.

    The value is ``sum(num[i] * lambda**i) / den``: `num` is a tuple of ints
    with no trailing zero, `den` a positive int and gcd(den, *num) == 1.
    Reduced modulo the defining polynomial, a rational value has
    ``len(num) <= 1`` in any field, and scalars of compatible fields are
    equal iff their (num, den) are.  `coeffs` derives the ``Fraction``
    coefficients.  All operations are pure; instances are immutable.
    """

    __slots__ = ("field", "num", "den", "_hash", "_enc", "_encrev")

    def __init__(self, field: NumberField | None, num: tuple, den: int = 1):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_enc", None)
        object.__setattr__(self, "_encrev", None)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Scalar is immutable")

    @property
    def coeffs(self) -> Poly:
        return tuple(Fraction(n, self.den) for n in self.num)

    # coercion and arithmetic ----------------------------------------------

    @staticmethod
    def _coerce(value: ScalarLike) -> "Scalar":
        return value if isinstance(value, Scalar) else rational(value)

    def _field(self, other: "Scalar") -> NumberField | None:
        """The field of a result of self and other; a rational joins any."""
        fa, fb = self.field, other.field
        if fa is fb or fb is None:
            return fa
        if fa is None or fa == fb:
            return fa or fb
        raise FieldMismatch(f"{fa!r} vs {fb!r}")

    def _addsub(self, other: ScalarLike, s: int) -> "Scalar":
        """self + s * other over the least common denominator, s = 1 or -1."""
        b = Scalar._coerce(other)
        f = self._field(b)
        an, bn, ad, bd = self.num, b.num, self.den, b.den
        g = math.gcd(ad, bd)
        ma, mb = bd // g, s * (ad // g)
        out = [x * ma for x in an] + [0] * (len(bn) - len(an))
        for i, y in enumerate(bn):
            out[i] += y * mb
        return _canon(f, out, ad * ma)

    def __add__(self, other: ScalarLike) -> "Scalar":
        return self._addsub(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, tuple(-x for x in self.num), self.den)

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return self._addsub(other, -1)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar._coerce(other) - self

    def __mul__(self, other: ScalarLike) -> "Scalar":
        """Integer convolution, then the field's rows replace the powers of
        lambda from its degree up."""
        b = Scalar._coerce(other)
        f = self._field(b)
        an, bn = self.num, b.num
        if not an or not bn:
            return Scalar(f, ())
        out = [0] * (len(an) + len(bn) - 1)
        for i, x in enumerate(an):
            for j, y in enumerate(bn):
                out[i + j] += x * y
        den = self.den * b.den
        d = f.degree if f is not None else len(out)
        if len(out) > d:
            rden, rows = f._red
            low = out[:d] if rden == 1 else [x * rden for x in out[:d]]
            for c, row in zip(out[d:], rows):
                if c:
                    for i, r in enumerate(row):
                        low[i] += c * r
            out, den = low, den * rden
        return _canon(f, out, den)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        b = Scalar._coerce(other)
        f = self._field(b)
        if b.is_zero():
            raise DivisionByZero("division by zero scalar")
        if len(b.num) == 1:
            s = -1 if b.num[0] < 0 else 1
            return _canon(f, [x * s * b.den for x in self.num], self.den * b.num[0] * s)
        return self * b._inverse()

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return Scalar._coerce(other) / self

    def _inverse(self) -> "Scalar":
        f = self.field
        assert f is not None
        modulus = f.minpoly
        b = self.coeffs
        while True:
            g, s = _pxgcd(b, modulus)
            if len(g) == 1:
                # g is monic, hence the constant 1: s*b == 1 (mod modulus)
                return f.element(s)
            # reducible modulus: g is a nontrivial common factor
            if count_roots(g, f._lo, f._hi) > 0:
                raise DivisionByZero("scalar is zero at the isolated root")
            modulus = _pdivmod(modulus, g)[0]
            b = _pmod(b, modulus)

    def is_zero(self) -> bool:
        f = self.field
        if not self.num or f is None:
            return not self.num
        g = _pgcd(self.coeffs, f.minpoly)
        return len(g) > 1 and count_roots(g, f._lo, f._hi) > 0

    def as_fraction(self) -> Fraction:
        if len(self.num) > 1:
            raise ScalarError("scalar is not a plain rational")
        return Fraction(self.num[0], self.den) if self.num else Fraction(0)

    def _fixed(self) -> tuple[int, int, int]:
        """(prec, lo, hi) with lo/2^prec <= sum(num[i] * lambda**i) <= hi/2^prec,
        by integer interval Horner over the field's dyadic root bounds."""
        prec, L, H = self.field.fixed_bounds()
        vlo = vhi = 0
        for c in reversed(self.num):
            if vlo or vhi:
                cands = (vlo * L, vlo * H, vhi * L, vhi * H)
                vlo = min(cands) >> prec
                vhi = -((-max(cands)) >> prec)
            c <<= prec
            vlo += c
            vhi += c
        return prec, vlo, vhi

    def _exact_value(self) -> Fraction | None:
        """The value as a Fraction if it is rational by representation or
        because lambda is; None otherwise."""
        f = self.field
        if len(self.num) <= 1 or f is None:
            return self.as_fraction()
        return _peval(self.coeffs, f._exact) if f._exact is not None else None

    def enclosure(self) -> tuple[float, float]:
        """A rigorous floating interval containing the exact value: for a
        rational, the correctly rounded quotient widened by one ulp, cached
        for good; for a field element, `_fixed` divided by `den` once and
        widened outward, cached per revision of the isolating interval.
        """
        enc = self._enc
        if enc is not None and (self._encrev is None
                                or self._encrev == self.field._rev):
            return enc
        num, f = self.num, self.field
        if not num:
            return (0.0, 0.0)
        if len(num) == 1 or f is None:
            x = num[0] / self.den  # int division rounds correctly
            enc, rev = (math.nextafter(x, -math.inf), math.nextafter(x, math.inf)), None
        elif f._exact is not None:
            return rational(self._exact_value()).enclosure()
        else:
            prec, vlo, vhi = self._fixed()
            enc = (_dyadic_float(vlo // self.den, prec, False),
                   _dyadic_float(-(-vhi // self.den), prec, True))
            rev = f._rev
        object.__setattr__(self, "_enc", enc)
        object.__setattr__(self, "_encrev", rev)
        return enc

    def sign(self) -> int:
        """-1, 0 or +1; exact.  The cached enclosure decides almost every
        call; the exact (gcd-based) zero test runs only when the enclosure
        keeps straddling zero, so true zeros stay exact and nonzeros fast."""
        num, f = self.num, self.field
        if not num:
            return 0
        if len(num) == 1 or f is None:
            return 1 if num[0] > 0 else -1
        if f._exact is not None:
            return rational(self._exact_value()).sign()
        for attempt in itertools.count():
            lo, hi = self.enclosure()
            if lo > 0 or hi < 0:
                return 1 if lo > 0 else -1
            if attempt == 2 and self.is_zero():
                return 0
            for _ in range(8):
                f.refine()
            if f._exact is not None:
                return self.sign()

    # comparisons ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = rational(other)
        if self.num != other.num or self.den != other.den:
            return False
        fa, fb = self.field, other.field
        return fa is fb or fa is None or fb is None or fa == fb

    def __hash__(self) -> int:
        if self._hash is None:
            # rational values hash alike in every field, matching __eq__
            key = self.field if len(self.num) > 1 else None
            object.__setattr__(self, "_hash", hash((key, self.num, self.den)))
        return self._hash

    def _compare(self, other: ScalarLike) -> int:
        """Sign of self - other: equal representations first, then the
        enclosures, then the exact sign of the difference."""
        b = other if isinstance(other, Scalar) else rational(other)
        if self.field is b.field and self.num == b.num and self.den == b.den:
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

    def __repr__(self) -> str:
        return poly_str(self.coeffs)

    def to_decimal(self, digits: int) -> str:
        """Decimal approximation, rounded half up to `digits` places."""
        if digits < 1:
            raise ScalarError("digits must be >= 1")
        scale = 10 ** digits
        while (v := self._exact_value()) is None:
            # n = floor(value * scale + 1/2) once both bounds agree on it
            prec, lo, hi = self._fixed()
            den = self.den << (prec + 1)
            n, nhi = ((2 * x * scale + (self.den << prec)) // den for x in (lo, hi))
            if n == nhi:
                break
            # guard against an exact tie: the value on the boundary
            if (self - rational(2 * n + 1, 2 * scale)).is_zero():
                n += 1
                break
            self.field.refine()
        else:
            n = math.floor(v * scale + Fraction(1, 2))
        whole, frac = divmod(abs(n), scale)
        return f"{'-' if n < 0 else ''}{whole}.{frac:0{digits}d}"


def _canon(field: NumberField | None, num: list, den: int) -> Scalar:
    """The Scalar num/den in lowest terms; the list `num` is consumed."""
    while num and not num[-1]:
        num.pop()
    g = math.gcd(den, *num)
    if g != 1:
        num = [x // g for x in num]
        den //= g
    return Scalar(field, tuple(num), den)


def rational(numerator, denominator=1) -> Scalar:
    """A rational-mode scalar."""
    if type(numerator) is int and denominator == 1:
        return Scalar(None, (numerator,) if numerator else ())
    q = Fraction(numerator, denominator)
    return Scalar(None, (q.numerator,) if q else (), q.denominator)


ZERO = rational(0)
ONE = rational(1)
