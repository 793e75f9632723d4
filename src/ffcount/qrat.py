"""Exact arithmetic in Q(q), the rational functions of the symbolic field size.

Two layers:

* ``QPoly`` -- a dense polynomial in q with rational coefficients, held as
  integer coefficients ``nums`` (index = exponent of q; the last one is
  nonzero unless the polynomial is zero) over one common denominator
  ``den``, with ``den > 0`` and ``gcd(den, *nums) == 1``.  Every exact count
  is such a polynomial, and ``(nums)/(den)`` is the form the CLI prints.
* ``SymRat`` -- a quotient of two polynomials, normalized on construction so
  that equality is plain structural comparison.  Normalized form: numerator
  and denominator have integer coefficients (``den == 1`` in both QPolys),
  are coprime as polynomials, carry no common integer content, and the
  denominator's leading coefficient is positive.

Expressions with negative powers of q are cleared to this form as they are
built, so no Laurent representation is needed.  All arithmetic runs on
Python ints; ``fractions.Fraction`` appears only at the edges, as the
coefficients a QPoly hands out and the values ``evaluate`` returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _check_scalar(x) -> Scalar:
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class QPoly:
    """Polynomial in the symbolic field size q over the rationals."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_check_scalar(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, nums: list[int], den: int) -> None:
        while nums and nums[-1] == 0:
            nums.pop()
        g = math.gcd(den, *nums)
        self.nums = tuple(c // g for c in nums) if g != 1 else tuple(nums)
        self.den = den // g

    @classmethod
    def _from_ints(cls, nums: list[int], den: int = 1) -> "QPoly":
        out = cls.__new__(cls)
        out._set(nums, den)
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls([1])

    @classmethod
    def const(cls, c: Scalar) -> "QPoly":
        return cls([c])

    @classmethod
    def q_power(cls, k: int) -> "QPoly":
        """The monomial q^k for k >= 0."""
        if k < 0:
            raise ValueError("q_power needs a nonnegative exponent; use qpow for SymRat")
        return cls([0] * k + [1])

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree in q; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients, constant term first."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPoly):
            return self.nums == other.nums and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == QPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nums, self.den))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "QPoly":
        other = _coerce_qpoly(other)
        a = [c * other.den for c in self.nums]
        b = [c * self.den for c in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return QPoly._from_ints(a, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly._from_ints([-c for c in self.nums], self.den)

    def __sub__(self, other) -> "QPoly":
        return self + (-_coerce_qpoly(other))

    def __rsub__(self, other) -> "QPoly":
        return _coerce_qpoly(other) - self

    def __mul__(self, other) -> "QPoly":
        other = _coerce_qpoly(other)
        a, b = self.nums, other.nums
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        terms = [(j, c) for j, c in enumerate(b) if c]
        for i, c in enumerate(a):
            if c:
                for j, d in terms:
                    out[i + j] += c * d
        return QPoly._from_ints(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QPoly":
        if e < 0:
            raise ValueError("negative power of a QPoly; use SymRat")
        result = QPoly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def subs_power(self, k: int) -> "QPoly":
        """Substitute q -> q^k (counts over an extension field)."""
        if k < 1:
            raise ValueError("power substitution needs k >= 1")
        out = [0] * (k * self.degree + 1) if self.nums else []
        out[::k] = self.nums
        return QPoly._from_ints(out, self.den)

    def evaluate(self, q0: Scalar) -> Fraction:
        # Horner at q0 = a/b: acc = sum of c_i a^i b^(deg - i), bpow = b^(deg + 1)
        q0 = _check_scalar(q0)
        a, b = q0.numerator, q0.denominator
        acc, bpow = 0, 1
        for c in reversed(self.nums):
            acc = acc * a + c * bpow
            bpow *= b
        return Fraction(acc * b, self.den * bpow)

    # -- display ------------------------------------------------------

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        text = ""
        for k in range(self.degree, -1, -1):
            c = self.nums[k]
            if c == 0:
                continue
            if c < 0:
                text += "-"
            elif text:
                text += "+"
            mag = _frac_str(abs(c), self.den)
            if k == 0:
                text += mag
            else:
                var = "q" if k == 1 else f"q^{k}"
                text += var if mag == "1" else mag + var
        return text

    def __repr__(self) -> str:
        return f"QPoly({str(self)})"


def _frac_str(n: int, d: int) -> str:
    g = math.gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


# -- integer-polynomial gcd (primitive PRS, keeps coefficients tame) ------


def _int_primitive(cs: list[int]) -> list[int]:
    g = math.gcd(*cs)
    return [c // g for c in cs]


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    # a trimmed, b nonzero; returns lc(b)^(da-db+1) * a mod b, as int coefficients
    rem = a
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        top = rem[-1]
        rem = [c * b[-1] for c in rem]
        for j, bc in enumerate(b):
            rem[shift + j] -= top * bc
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    # a, b trimmed and nonzero; the gcd up to sign
    a, b = _int_primitive(a), _int_primitive(b)
    while b:
        a, b = b, _int_primitive(_int_pseudo_rem(a, b))
    return a


def _exact_int_div(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials where b divides a exactly in Z[q]."""
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    quot = [0] * (len(a) - db)
    for i in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[i + db], lead)
        assert r == 0
        quot[i] = c
        if c:
            for j, bc in enumerate(b):
                rem[i + j] -= c * bc
    assert not any(rem)
    return quot


class SymRat:
    """A rational function of q in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        n = _coerce_qpoly(num)
        d = _coerce_qpoly(den)
        if d.is_zero():
            raise ZeroDivisionError("zero divisor")
        if n.is_zero():
            self.num = QPoly.zero()
            self.den = QPoly.one()
            return
        # n / d = (n.nums * d.den) / (d.nums * n.den)
        top, bottom = list(n.nums), list(d.nums)
        if len(top) > 1 and len(bottom) > 1:
            g = _int_poly_gcd(top, bottom)
            if len(g) > 1:
                top = _exact_int_div(top, g)
                bottom = _exact_int_div(bottom, g)
        top = [c * d.den for c in top]
        bottom = [c * n.den for c in bottom]
        c = math.gcd(*top, *bottom)
        if bottom[-1] < 0:
            c = -c
        self.num = QPoly._from_ints([x // c for x in top])
        self.den = QPoly._from_ints([x // c for x in bottom])

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_qpoly(self) -> QPoly:
        """The underlying QPoly; requires a constant denominator."""
        if self.den.degree != 0:
            raise ValueError(f"not a polynomial: {self}")
        return QPoly._from_ints(list(self.num.nums), self.den.nums[0])

    @property
    def qdegree(self) -> int:
        """Numerator degree minus denominator degree."""
        if self.is_zero():
            raise ValueError("degree of zero undefined")
        return self.num.degree - self.den.degree

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, QPoly)):
            other = SymRat(other)
        if isinstance(other, SymRat):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "SymRat":
        other = _coerce_symrat(other)
        return SymRat(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "SymRat":
        out = SymRat.__new__(SymRat)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other) -> "SymRat":
        return self + (-_coerce_symrat(other))

    def __rsub__(self, other) -> "SymRat":
        return _coerce_symrat(other) - self

    def __mul__(self, other) -> "SymRat":
        other = _coerce_symrat(other)
        return SymRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "SymRat":
        other = _coerce_symrat(other)
        if other.is_zero():
            raise ZeroDivisionError("zero divisor")
        return SymRat(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "SymRat":
        return _coerce_symrat(other) / self

    def __pow__(self, e: int) -> "SymRat":
        if e < 0:
            return SymRat(self.den, self.num) ** (-e)
        out = SymRat.__new__(SymRat)
        out.num = self.num**e
        out.den = self.den**e
        return out

    def subs_power(self, k: int) -> "SymRat":
        return SymRat(self.num.subs_power(k), self.den.subs_power(k))

    def evaluate(self, q0: Scalar) -> Fraction:
        d = self.den.evaluate(q0)
        if d == 0:
            raise ZeroDivisionError("pole")
        return self.num.evaluate(q0) / d

    # -- display ------------------------------------------------------

    def __str__(self) -> str:
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"SymRat({str(self)})"


def _coerce_qpoly(x) -> QPoly:
    if isinstance(x, QPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return QPoly.const(x)
    raise TypeError(f"cannot build a QPoly from {type(x).__name__}")


def _coerce_symrat(x) -> "SymRat":
    if isinstance(x, SymRat):
        return x
    return SymRat(x)


#: the variable q itself
qvar = SymRat(QPoly.q_power(1))


def qpow(k: int) -> SymRat:
    """q^k as a SymRat, for any integer k (negative powers cleared to a fraction)."""
    if k >= 0:
        return SymRat(QPoly.q_power(k))
    return SymRat(QPoly.one(), QPoly.q_power(-k))
