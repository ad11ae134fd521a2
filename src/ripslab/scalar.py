"""Exact arithmetic over Q and over a real number field Q(lambda).

Every length, offset and coordinate in the rest of the package is a
:class:`Scalar`: either a plain rational or a polynomial in a fixed real
algebraic number lambda, reduced modulo its defining polynomial.  A scalar
holds integer coefficients over one positive common denominator, in lowest
terms, so arithmetic, equality, hashing and root counting are integer
operations.  ``Fraction`` coefficients are only read in (a field's
`minpoly`, given coefficients) and printed (`coeffs`, `poly_str`); every
polynomial computed with is an integer one, through one Horner evaluation
(`_horner`) and one pseudo-division (`_prem`), which reduces modulo the
field and runs the extended Euclid of inverses.  The defining polynomial
is irreducible over Q, checked once when the field is built, so a reduced
element vanishes at lambda only if it is 0 and is rational only if it is
a constant.  The sign
of any other element is exact: refining the isolating interval ends with
bounds of one sign.  No decision is taken on a float.

Each field interns its elements that are not rational: while a value is
alive, every computation that yields it returns that one object, so its
enclosure (a rigorous float interval) is computed once and then read by
every order test, which returns at once when two cached enclosures are
disjoint.  The table is a plain dict of weak references, read inline, so
it keeps no value alive; one callback per field drops the entry of a value
that dies, and it holds the table but not the field, so reference counting
alone frees a dropped field.  There is one table per field, so equal fields
built apart share nothing; rationals are not interned.  Because a field
element is shared by every holder and keys its table, instances refuse
assignment; the constructor sets the slots through their descriptors.
Equality and hashing stay by value.  An enclosure cached before
a refinement may still decide, as refinement only shrinks the isolating
interval that its bounds came from; one that does not decide is recomputed
at the current interval, and where that does not decide either, the exact
sign of the difference does.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from typing import Iterable, Sequence, Union


class ScalarError(Exception):
    pass


class NoSignChange(ScalarError):
    """The defining polynomial does not change sign on the given interval."""


class DegenerateInterval(ScalarError):
    """The isolating interval is empty or a single point."""


class NotIsolating(ScalarError):
    """The interval holds more than one root of the polynomial."""


class FieldMismatch(ScalarError):
    """Arithmetic attempted between elements of two different number fields."""


class DivisionByZero(ScalarError):
    pass


class NotIrreducible(ScalarError):
    """The defining polynomial factors over Q, so Q[x]/(p) is no field."""


def _dyadic_float(n: int, prec: int, up: bool) -> float:
    """Outward float approximation of n / 2^prec."""
    shift = max(0, n.bit_length() - 900)  # keep float(n) away from overflow
    n = -((-n) >> shift) if up else (n >> shift)
    try:
        f = math.ldexp(float(n), shift - prec)
    except OverflowError:  # pragma: no cover
        return math.inf if up else -math.inf
    return math.nextafter(f, math.inf if up else -math.inf)


# Integer polynomials are ascending int lists or tuples with no trailing zero.

def _primitive(a: list) -> tuple:
    g = math.gcd(*a)
    return tuple(x // g for x in a) if g > 1 else tuple(a)


def _horner(q: Sequence[int], n: int, d: int = 1) -> int:
    """The integer d^deg(q) * q(n/d), for d > 0, so of the sign of q(n/d)."""
    v, dk = q[-1], 1
    for c in q[-2::-1]:
        dk *= d
        v = v * n + c * dk
    return v


def _prem(a: Sequence[int], b: Sequence[int]) -> tuple[list, int]:
    """(r, m) with r the remainder of m * a by b and m > 0 a power of
    |lc(b)|, by pseudo-division that multiplies by |lc(b)| only where a
    term is eliminated."""
    db, lead = len(b) - 1, b[-1]
    u, s = abs(lead), 1 if lead > 0 else -1
    r, m = list(a), 1
    for k in range(len(a) - 1, db - 1, -1):
        c = r.pop() * s
        if c:
            if u != 1:
                r = [x * u for x in r]
                m *= u
            for i in range(db):
                r[k - db + i] -= c * b[i]
    while r and not r[-1]:
        r.pop()
    return r, m


def exact_quotient(a: Sequence[int], b: Sequence[int]) -> list:
    """a / b for integer polynomials where b divides a over Z."""
    db = len(b) - 1
    r, q = list(a), [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + db] // b[-1]
        for i, y in enumerate(b):
            r[k + i] -= c * y
    return q


def sturm_chain(p: Sequence) -> tuple:
    """The Sturm chain of the squarefree part of p, over Z: p scaled by the
    lcm of its denominators, then primitive negated pseudo-remainders.  A
    positive factor changes no sign, and the chain's last term is gcd(p, p')
    up to a constant, so a nonconstant last term is divided out first; the
    first term is the primitive squarefree part of p, up to sign."""
    if len(p) <= 1:
        return ()
    d = math.lcm(*(c.denominator for c in p))
    a = [c.numerator * (d // c.denominator) for c in p]
    chain = [_primitive(a), _primitive([a[i] * i for i in range(1, len(a))])]
    while True:
        r = _prem(chain[-2], chain[-1])[0]
        if not r:
            break
        chain.append(_primitive([-x for x in r]))
    if len(chain[-1]) > 1:
        return sturm_chain(exact_quotient(chain[0], chain[-1]))
    return tuple(chain)


def _sign_changes(chain: Sequence, x) -> int:
    """Sign changes of the chain at the rational x, zeros skipped; each term
    q is evaluated as the integer den^deg(q) * q(num/den)."""
    n, d = x.numerator, x.denominator
    last, changes = 0, 0
    for q in chain:
        v = _horner(q, n, d)
        if v:
            if last and (v > 0) != (last > 0):
                changes += 1
            last = v
    return changes


def sturm_count(chain: Sequence, lo, hi) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi] of
    the polynomial whose Sturm chain this is."""
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def count_roots(p: Sequence, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi],
    by the Sturm chain of its squarefree part."""
    return sturm_count(sturm_chain(p), lo, hi)


def integer_roots(chain: Sequence) -> list:
    """The distinct integer roots, ascending, of the squarefree polynomial p
    that starts this Sturm chain.

    Each root is 0 or divides the lowest nonzero coefficient c of p, so it
    lies in (-|c| - 1, |c|].  Integer intervals (lo, hi] that hold a root
    are halved down to width 1, where the root can only be hi."""
    if not chain:
        return []
    p, roots = chain[0], []
    b = abs(next(c for c in p if c))
    stack = [(-b - 1, b)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo == 1:
            if not _horner(p, hi):
                roots.append(hi)
        elif sturm_count(chain, lo, hi):
            mid = (lo + hi) // 2
            stack += [(lo, mid), (mid, hi)]
    return sorted(roots)


def factor_over_z(p: Sequence[int]) -> list:
    """The irreducible factors over Z of a nonconstant integer polynomial,
    as (ascending coefficients with a positive leading one, multiplicity)
    pairs, its content left out.  It is the one place that imports sympy,
    on first use."""
    import sympy

    factors = []
    for f, mult in sympy.factor_list(sympy.Poly(list(p)[::-1], sympy.Symbol("x")))[1]:
        c = [int(x) for x in reversed(f.all_coeffs())]
        factors.append((tuple(c) if c[-1] > 0 else tuple(-x for x in c), mult))
    return factors


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
    """Q(lambda) for lambda the unique real root of a monic irreducible
    polynomial over Q in an isolating interval, refined lazily as signs
    demand; refinement only shrinks it, so instances behave as immutable
    values.  ``check_irreducible=False`` skips the irreducibility check on
    the caller's promise that the polynomial is irreducible (a factor from
    a factorization over Q, say); zero tests and signs rest on it."""

    def __init__(self, minpoly: Iterable, lo, hi, check_irreducible: bool = True):
        poly = [Fraction(c) for c in minpoly]
        while poly and not poly[-1]:
            poly.pop()
        if len(poly) < 2:
            raise ScalarError("defining polynomial must be nonconstant")
        if poly[-1] != 1:
            raise ScalarError("defining polynomial must be monic")
        lo, hi = Fraction(lo), Fraction(hi)
        if lo >= hi:
            raise DegenerateInterval(f"need lo < hi, got [{lo}, {hi}]")
        # the polynomial times the lcm of its denominators, which every
        # evaluation, product and inverse computes with
        scale = math.lcm(*(c.denominator for c in poly))
        ipoly = tuple(c.numerator * (scale // c.denominator) for c in poly)
        plo = _horner(ipoly, lo.numerator, lo.denominator)
        if plo * _horner(ipoly, hi.numerator, hi.denominator) >= 0:
            raise NoSignChange(
                f"polynomial does not change sign on ({lo}, {hi})")
        # a sign change leaves an odd number of roots: one, below degree 3
        roots = count_roots(ipoly, lo, hi) if len(poly) > 3 else 1
        if roots != 1:
            raise NotIsolating(f"({lo}, {hi}) holds {roots} roots, not one")
        self.minpoly: tuple = tuple(poly)
        self._ipoly = ipoly
        self._lo0, self._hi0 = lo, hi
        self._hash = hash((self.minpoly, lo, hi))  # each element's first hash reads it
        self._lo, self._hi = lo, hi
        # refine moves the lower bound only to points where the polynomial
        # keeps its sign at lo
        self._lo_positive = plo > 0
        self._rev = 0           # bumped on refine; invalidates cached bounds
        self._fp = None         # cached (prec, lo_int, hi_int) dyadic bounds
        # (num, den) -> a weak reference to the one live Scalar of that
        # value; the table holds no value alive, and its removal callback
        # holds the table but not the field, so reference counting alone
        # frees the field and its values
        self._scalars: dict = {}
        self._unintern = _remover(self._scalars)
        if check_irreducible and not self._is_irreducible():
            raise NotIrreducible("defining polynomial is reducible over Q")

    def _is_irreducible(self) -> bool:
        p, n = self._ipoly, self.degree
        if n > 3:
            factors = factor_over_z(p)
            return len(factors) == 1 and factors[0][1] == 1
        # reducible iff p has a rational root, i.e. g(y) = D^(n-1) p(y/D),
        # monic over Z for D = lc(p), has an integer root
        d = p[-1]
        return n == 1 or not integer_roots(sturm_chain(
            [c * d ** (n - 1 - i) for i, c in enumerate(p[:-1])] + [1]))

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    def refine(self) -> None:
        """Halve the isolating interval, keeping the root: one integer
        evaluation at the midpoint n/d, of d^degree * p(n/d) times the lcm
        of the denominators of p, decides which half holds it."""
        mid = (self._lo + self._hi) / 2
        v = _horner(self._ipoly, mid.numerator, mid.denominator)
        # mid is the root only in degree 1, where it stays the upper bound
        if not v or (v > 0) != self._lo_positive:
            self._hi = mid
        else:
            self._lo = mid
        self._rev += 1
        self._fp = None

    def fixed_bounds(self) -> tuple[int, int, int]:
        """Dyadic integer bounds (prec, L, H) with L/2^prec <= root <= H/2^prec."""
        if self._fp is None:
            width = self._hi - self._lo
            inv_width = width.denominator // width.numerator
            prec = max(64, inv_width.bit_length() + 32)
            L = (self._lo.numerator << prec) // self._lo.denominator
            H = -((-self._hi.numerator << prec) // self._hi.denominator)
            self._fp = (prec, L, H)
        return self._fp

    def element(self, coeffs: Iterable) -> "Scalar":
        """sum(coeffs[i] * lambda**i) for rational coefficients, any number
        of them."""
        c, den = list(coeffs), 1
        if not all(type(x) is int for x in c):
            c = [Fraction(x) for x in c]
            den = math.lcm(1, *(x.denominator for x in c))
            c = [x.numerator * (den // x.denominator) for x in c]
        return _reduce(self, c, den)

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
        return self._hash

    def __repr__(self) -> str:
        return f"NumberField({list(self.minpoly)}, {self._lo0}, {self._hi0})"


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
    coefficients.  All operations are pure; instances are immutable, and
    a field element that is not rational is the one live instance of its
    value in its field.
    """

    __slots__ = ("field", "num", "den", "_hash", "_enc", "_encrev", "__weakref__")

    def __init__(self, field: NumberField | None, num: tuple, den: int = 1):
        # the slot descriptors' setters, bound below, skip the guard
        _set_field(self, field)
        _set_num(self, num)
        _set_den(self, den)
        _set_hash(self, None)
        _set_enc(self, None)
        _set_encrev(self, None)

    def __setattr__(self, *a):
        # a field element is shared by every holder and keys its field's
        # table, so a mutation would corrupt them all
        raise AttributeError("Scalar is immutable")

    @property
    def coeffs(self) -> tuple:
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
        """self + s * other, s = 1 or -1: a zero operand gives the other
        one, integral operands add coefficientwise, and the rest meet over
        the least common denominator."""
        f = self.field
        if isinstance(other, Scalar) and other.field is f:
            b = other
        else:
            b = Scalar._coerce(other)
            f = self._field(b)
        an, bn, ad, bd = self.num, b.num, self.den, b.den
        # a zero has denominator 1, so the sum is the other operand's value
        if not bn:
            return _intern(f, an, ad)
        if not an:
            return _intern(f, bn if s == 1 else tuple([-y for y in bn]), bd)
        if ad == 1 and bd == 1:
            k = min(len(an), len(bn))
            if s == 1:
                out = [x + y for x, y in zip(an, bn)]
                out += an[k:] or bn[k:]
            else:
                out = [x - y for x, y in zip(an, bn)]
                out += an[k:] or [-y for y in bn[k:]]
            # only equal lengths can cancel the leading coefficient
            while out and not out[-1]:
                out.pop()
            return _intern(f, tuple(out), 1)
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
        return _intern(self.field, tuple([-x for x in self.num]), self.den)

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return self._addsub(other, -1)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar._coerce(other) - self

    def __mul__(self, other: ScalarLike) -> "Scalar":
        """Integer convolution, then the reduction modulo the field."""
        b = Scalar._coerce(other)
        f = self._field(b)
        an, bn = self.num, b.num
        if not an or not bn:
            return Scalar(f, ())
        out = [0] * (len(an) + len(bn) - 1)
        for i, x in enumerate(an):
            for j, y in enumerate(bn):
                out[i + j] += x * y
        return _reduce(f, out, self.den * b.den)

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
        """Half-extended Euclid over Z on the field's integer polynomial p
        and num.  Each remainder r keeps a cofactor s with r = s * num mod p,
        packed as one integer polynomial s + x^d r for d the degree, so
        that pseudo-dividing one pair by the next eliminates the leading
        terms of r and applies the same multiples to s, whose degree stays
        below d; each round divides out the pair's content.  p is
        irreducible, so the remainders end at a nonzero constant g, and
        1/self = den * s/g."""
        f = self.field
        d = f.degree
        a, b = (0,) * d + f._ipoly, (1,) + (0,) * (d - 1) + self.num
        while len(b) > d + 1:
            a, b = b, _primitive(_prem(a, b)[0])
        g = self.den if b[d] > 0 else -self.den
        return _reduce(f, [x * g for x in b[:d]], abs(b[d]))

    def is_zero(self) -> bool:
        """Exact, as the minimal polynomial divides no nonzero reduced element."""
        return not self.num

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

    def enclosure(self) -> tuple[float, float]:
        """A rigorous floating interval containing the exact value, cached:
        for good for a rational, per revision of the isolating interval for
        a field element."""
        enc = self._enc
        if enc is not None and (self._encrev is None
                                or self._encrev == self.field._rev):
            return enc
        enc, rev = self._enclose()
        _set_enc(self, enc)
        _set_encrev(self, rev)
        return enc

    def _enclose(self) -> tuple[tuple[float, float], int | None]:
        """A new enclosure and the revision it is computed at (None if it
        holds for good): for a rational, the correctly rounded quotient
        widened by one ulp; for a field element, `_fixed` divided by `den`
        once and widened outward."""
        num, f = self.num, self.field
        if not num:
            return (0.0, 0.0), None
        if len(num) == 1 or f is None:
            x = num[0] / self.den  # int division rounds correctly
            return (math.nextafter(x, -math.inf), math.nextafter(x, math.inf)), None
        prec, vlo, vhi = self._fixed()
        return (_dyadic_float(vlo // self.den, prec, False),
                _dyadic_float(-(-vhi // self.den), prec, True)), f._rev

    def sign(self) -> int:
        """-1, 0 or +1; exact.  A nonconstant element is not 0, so refining
        ends with bounds of one sign: the cached enclosure decides most calls,
        and the integer bounds of `_fixed`, which never underflow, the rest."""
        num, f = self.num, self.field
        if not num:
            return 0
        if len(num) == 1 or f is None:
            return 1 if num[0] > 0 else -1
        lo, hi = self.enclosure()
        while not (lo > 0 or hi < 0):
            for _ in range(8):
                f.refine()
            _, lo, hi = self._fixed()
        return 1 if lo > 0 else -1

    # comparisons ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
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
            _set_hash(self, hash((key, self.num, self.den)))
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

    # Each order test returns at once when the cached enclosures, stale or
    # not (see the module docstring), or identity decide; else `_compare` runs.

    def __lt__(self, other: ScalarLike) -> bool:
        a = self._enc
        if a is not None and isinstance(other, Scalar):
            b = other._enc
            if b is not None:
                if a[1] < b[0]:
                    return True
                if b[1] <= a[0] or other is self:
                    return False
        return self._compare(other) < 0

    def __le__(self, other: ScalarLike) -> bool:
        a = self._enc
        if a is not None and isinstance(other, Scalar):
            b = other._enc
            if b is not None:
                if a[1] <= b[0] or other is self:
                    return True
                if b[1] < a[0]:
                    return False
        return self._compare(other) <= 0

    def __gt__(self, other: ScalarLike) -> bool:
        a = self._enc
        if a is not None and isinstance(other, Scalar):
            b = other._enc
            if b is not None:
                if b[1] < a[0]:
                    return True
                if a[1] <= b[0] or other is self:
                    return False
        return self._compare(other) > 0

    def __ge__(self, other: ScalarLike) -> bool:
        a = self._enc
        if a is not None and isinstance(other, Scalar):
            b = other._enc
            if b is not None:
                if b[1] <= a[0] or other is self:
                    return True
                if a[1] < b[0]:
                    return False
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
        if len(self.num) <= 1 or self.field is None:
            n = math.floor(self.as_fraction() * scale + Fraction(1, 2))
        else:
            # an irrational value is never a tie, so both bounds come to
            # agree on n = floor(value * scale + 1/2)
            while True:
                prec, lo, hi = self._fixed()
                den = self.den << (prec + 1)
                n, nhi = ((2 * x * scale + (self.den << prec)) // den for x in (lo, hi))
                if n == nhi:
                    break
                self.field.refine()
        whole, frac = divmod(abs(n), scale)
        return f"{'-' if n < 0 else ''}{whole}.{frac:0{digits}d}"


_set_field, _set_num, _set_den, _set_hash, _set_enc, _set_encrev = (
    Scalar.__dict__[name].__set__
    for name in ("field", "num", "den", "_hash", "_enc", "_encrev"))


def _canon(field: NumberField | None, num: list, den: int) -> Scalar:
    """The Scalar num/den in lowest terms; the list `num` is consumed."""
    while num and not num[-1]:
        num.pop()
    g = math.gcd(den, *num)
    if g != 1:
        num = [x // g for x in num]
        den //= g
    if field is None:
        return Scalar(None, tuple(num), den)
    return _intern(field, tuple(num), den)


def _reduce(field: NumberField | None, num: list, den: int) -> Scalar:
    """The Scalar num/den, for num of any length: pseudo-division by the
    field's integer polynomial, whose multiplier joins the denominator,
    then lowest terms.  The list `num` is consumed."""
    if field is not None and len(num) > field.degree:
        num, m = _prem(num, field._ipoly)
        den *= m
    return _canon(field, num, den)


def _intern(field: NumberField | None, num: tuple, den: int) -> Scalar:
    """The Scalar num/den: for a field element that is not rational, the
    one live instance of that value in its field's table."""
    if field is None or len(num) < 2:
        return Scalar(field, num, den)
    key = (num, den)
    table = field._scalars
    ref = table.get(key)
    if ref is not None:
        s = ref()
        if s is not None:
            return s
    s = Scalar(field, num, den)
    table[key] = weakref.KeyedRef(s, field._unintern, key)
    return s


def total(plus: Iterable[Scalar], minus: Iterable[Scalar] = ()) -> Scalar:
    """sum(plus) - sum(minus), exact, added over the least common
    denominator of the terms: one reduction to lowest terms in all."""
    terms = [(1, x) for x in plus] + [(-1, x) for x in minus]
    fields = {x.field for _, x in terms} - {None}
    if len(fields) > 1:
        raise FieldMismatch(" vs ".join(map(repr, fields)))
    den = math.lcm(*[x.den for _, x in terms])
    num = [0] * max([len(x.num) for _, x in terms], default=0)
    for s, x in terms:
        m = s * (den // x.den)
        for i, c in enumerate(x.num):
            num[i] += c * m
    return _canon(fields.pop() if fields else None, num, den)


def _remover(table: dict):
    """The weak-reference callback that drops a dead value's entry from an
    intern table, unless its key already names a newer value."""
    def remove(ref: weakref.KeyedRef) -> None:
        if table.get(ref.key) is ref:
            del table[ref.key]
    return remove


def rational(numerator, denominator=1) -> Scalar:
    """A rational-mode scalar."""
    if type(numerator) is int and denominator == 1:
        return Scalar(None, (numerator,) if numerator else ())
    q = Fraction(numerator, denominator)
    return Scalar(None, (q.numerator,) if q else (), q.denominator)


ZERO = rational(0)
