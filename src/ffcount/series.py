"""Truncated formal power series in z, plus number-theory helpers.

A ``TruncSeries`` holds coefficients 0..N (zeros explicit) for a fixed
truncation order N: ``QPoly``s in Q[q], or exact numbers for a series at a
fixed q.  Mixing orders in arithmetic is an error rather than a silent
truncation: truncation bugs are the dominant failure mode here.  Division
needs a divisor whose constant term is a nonzero rational, and ``log`` a
constant term 1, so every result stays in Q[q] (or Q at a fixed q).

The series in this package diverge everywhere except at 0, so nothing in
this module is analytic; ``log``/``exp`` are the formal operations only.
"""

from __future__ import annotations

from fractions import Fraction

from .qrat import QPoly, _check_scalar, _coerce_qpoly


# -- number-theory helpers ----------------------------------------------


def moebius(k: int) -> int:
    """Number-theoretic Moebius function: 0 unless squarefree, else (-1)^#primes."""
    if k < 1:
        raise ValueError("moebius needs k >= 1")
    sign = 1
    while k > 1:
        p = smallest_prime_factor(k)
        k //= p
        if k % p == 0:
            return 0
        sign = -sign
    return sign


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("divisors needs n >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError("no prime factor below 2")
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


# Miller-Rabin with the primes 2..41 as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality by deterministic Miller-Rabin; ValueError from MR_EXACT_BELOW up."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= MR_EXACT_BELOW:
        raise ValueError(f"cannot decide whether {n} is prime: primality is "
                         f"decided only below {MR_EXACT_BELOW}")
    odd = n - 1
    twos = (odd & -odd).bit_length() - 1
    odd >>= twos
    for b in _MR_BASES:
        x = pow(b, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^d with p prime, or raise ValueError."""
    if q >= 2:
        # q = m^d has a prime m only for the d of q = p^d; the largest d is
        # tried first, so a power of a small prime is never tested as a whole
        for d in range(q.bit_length() - 1, 0, -1):
            p = _iroot(q, d)
            if p**d == q and is_prime(p):
                return p, d
    raise ValueError(f"{q} is not a prime power")


# -- truncated series ----------------------------------------------------


class TruncSeries:
    """Power series in z truncated at order N.  The coefficients are QPolys,
    or exact numbers (int or Fraction) for a series at a fixed q; a series
    given any QPoly coefficient holds QPolys only."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = list(coeffs)
        if len(cs) > order + 1:
            raise ValueError(f"{len(cs)} coefficients exceed order {order}")
        if any(isinstance(c, QPoly) for c in cs):
            cs = [_coerce_qpoly(c) for c in cs]
            zero = QPoly.zero()
        else:
            cs = [_check_scalar(c) for c in cs]
            zero = 0
        cs.extend(zero for _ in range(order + 1 - len(cs)))
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls(order, [1])

    def coeff(self, i: int):
        return self.coeffs[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def _check_order(self, other: "TruncSeries"):
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_order(other)
        return TruncSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_order(other)
        return TruncSeries(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.order, [-a for a in self.coeffs])

    def __mul__(self, other) -> "TruncSeries":
        if isinstance(other, (int, Fraction, QPoly)):
            return TruncSeries(self.order, [a * other for a in self.coeffs])
        self._check_order(other)
        n = self.order
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncSeries(n, out)

    __rmul__ = __mul__

    def __truediv__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_order(other)
        c0 = other.coeffs[0]
        if isinstance(c0, QPoly):
            c0 = c0[0] if c0.degree == 0 else 0
        if not c0:
            raise ZeroDivisionError("divisor's constant term is not a nonzero rational")
        n = self.order
        inv0 = Fraction(1, c0)
        out = []
        for i in range(n + 1):
            acc = self.coeffs[i]
            for j in range(1, i + 1):
                b = other.coeffs[j]
                if b:
                    acc = acc - b * out[i - j]
            # a divisor with constant term 1 keeps integer coefficients ints
            out.append(acc if inv0 == 1 else acc * inv0)
        return TruncSeries(n, out)

    def z_log_derivative(self) -> "TruncSeries":
        """z (log a)' = z a'/a, whose z^i coefficient is i [z^i] log a;
        requires constant term 1.

        Solved coefficientwise from a * (z a'/a) = z a', so every
        coefficient stays in the ring of a's (Z[q], or the integers at a
        fixed q) in O(N^2) operations without series powering.
        """
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        a = self.coeffs
        out = [0]
        for i in range(1, self.order + 1):
            acc = i * a[i]
            for j in range(1, i):
                if a[j]:
                    acc = acc - a[j] * out[i - j]
            out.append(acc)
        return TruncSeries(self.order, out)

    def log(self) -> "TruncSeries":
        """Formal logarithm; requires constant term 1."""
        d = self.z_log_derivative().coeffs
        return TruncSeries(self.order, [0] + [c * Fraction(1, i) for i, c in enumerate(d[1:], 1)])

    def exp(self) -> "TruncSeries":
        """Formal exponential; requires constant term 0."""
        if self.coeffs[0]:
            raise ValueError("exp needs constant term 0")
        n = self.order
        out = [1]
        # e' = e * a'  =>  (i+1) e_{i+1} = sum_j e_j * (i+1-j) a_{i+1-j}
        for i in range(n):
            acc = 0
            for j in range(i + 1):
                k = i + 1 - j
                a = self.coeffs[k]
                if a:
                    acc = acc + out[j] * (k * a)
            out.append(acc * Fraction(1, i + 1))
        return TruncSeries(n, out)

    def substitute_power(self, k: int) -> "TruncSeries":
        """Substitute z -> z^k, truncating at the same order."""
        if k < 1:
            raise ValueError("substitute_power needs k >= 1")
        n = self.order
        out = [0] * (n + 1)
        for i, c in enumerate(self.coeffs):
            if i * k > n:
                break
            out[i * k] = c
        return TruncSeries(n, out)

    def __str__(self) -> str:
        return " + ".join(f"({c})z^{i}" for i, c in enumerate(self.coeffs))

    def __repr__(self) -> str:
        return f"TruncSeries(order={self.order})"
