"""Exact arithmetic in Q(q), the rational functions of the symbolic field size.

Two layers:

* ``QPoly`` -- a dense polynomial in q with exact rational coefficients
  (index = exponent of q; the trailing coefficient is nonzero unless the
  polynomial is zero).
* ``SymRat`` -- a quotient of two polynomials, normalized on construction so
  that equality is plain structural comparison.  Normalized form: numerator
  and denominator have integer coefficients, are coprime as polynomials,
  carry no common integer content, and the denominator's leading coefficient
  is positive.

Expressions with negative powers of q are cleared to this form as they are
built, so no Laurent representation is needed.  Plain Python ints serve as
arbitrary-precision integers and ``fractions.Fraction`` as exact rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class QPoly:
    """Polynomial in the symbolic field size q over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

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
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == QPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "QPoly":
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other) -> "QPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "QPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "QPoly":
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in terms:
                out[i + j] += a * b
        return QPoly(out)

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

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("zero divisor")
        rem = list(self.coeffs)
        dq = other.degree
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * max(len(rem) - dq, 0)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = c / lead
            quot[i - dq] = f
            for j, b in enumerate(other.coeffs):
                rem[i - dq + j] -= f * b
        return QPoly(quot), QPoly(rem)

    def subs_power(self, k: int) -> "QPoly":
        """Substitute q -> q^k (counts over an extension field)."""
        if k < 1:
            raise ValueError("power substitution needs k >= 1")
        out = [Fraction(0)] * (k * self.degree + 1) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return QPoly(out)

    def evaluate(self, q0: Scalar) -> Fraction:
        q0 = _as_fraction(q0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def _coerce(self, other) -> "QPoly":
        if isinstance(other, QPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return QPoly.const(other)
        raise TypeError(f"cannot combine QPoly with {type(other).__name__}")

    # -- display ------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if k == 0:
                body = _frac_str(mag)
            else:
                var = "q" if k == 1 else f"q^{k}"
                body = var if mag == 1 else f"{_frac_str(mag)}{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += sign + body
        return text

    def __repr__(self) -> str:
        return f"QPoly({str(self)})"


def _frac_str(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


# -- integer-polynomial gcd (primitive PRS, keeps coefficients tame) ----


def _int_content(cs: list[int]) -> int:
    g = 0
    for c in cs:
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g or 1


def _int_primitive(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return cs
    g = _int_content(cs)
    return [c // g for c in cs]


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    # b nonzero; returns lc(b)^(da-db+1) * a mod b, as int coefficients
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(rem) - 1 >= db and rem:
        if rem[-1] == 0:
            rem.pop()
            continue
        shift = len(rem) - 1 - db
        top = rem[-1]
        rem = [c * lead for c in rem]
        for j, bc in enumerate(b):
            rem[shift + j] -= top * bc
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    a = _int_primitive(list(a))
    b = _int_primitive(list(b))
    while b:
        a, b = b, _int_primitive(_int_pseudo_rem(a, b))
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a or [1]


def _to_int_poly(p: QPoly) -> tuple[list[int], Fraction]:
    """Write p = scale * P with P a primitive integer polynomial, scale > 0 sign-free."""
    if p.is_zero():
        return [], Fraction(0)
    denom_lcm = 1
    for c in p.coeffs:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in p.coeffs]
    content = _int_content(ints)
    sign = 1 if ints[-1] > 0 else -1
    ints = [c // (content * sign) for c in ints]
    return ints, Fraction(content * sign, denom_lcm)


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
        n_ints, n_scale = _to_int_poly(n)
        d_ints, d_scale = _to_int_poly(d)
        g = _int_poly_gcd(n_ints, d_ints)
        if len(g) > 1 or g[0] != 1:
            n_ints = _exact_int_div(n_ints, g)
            d_ints = _exact_int_div(d_ints, g)
        scale = n_scale / d_scale
        a, b = scale.numerator, scale.denominator
        num_ints = [c * a for c in n_ints]
        den_ints = [c * b for c in d_ints]
        if den_ints[-1] < 0:
            num_ints = [-c for c in num_ints]
            den_ints = [-c for c in den_ints]
        self.num = QPoly(num_ints)
        self.den = QPoly(den_ints)

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_qpoly(self) -> QPoly:
        """The underlying QPoly; requires a constant denominator."""
        if self.den.degree != 0:
            raise ValueError(f"not a polynomial: {self}")
        d = self.den.coeffs[0]
        return QPoly([c / d for c in self.num.coeffs])

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


def _exact_int_div(a: list[int], b: list[int]) -> list[int]:
    qa, ra = QPoly(a).divmod(QPoly(b))
    assert ra.is_zero()
    return [int(c) for c in qa.coeffs]


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


def qdegree(f: SymRat) -> int:
    return f.qdegree
