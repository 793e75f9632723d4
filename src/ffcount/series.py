"""Number-theory helpers, and the two recurrences on formal power series in
z that the second derivation routes of ``mv_counts`` use.

The series in this package diverge everywhere except at 0, so nothing in
this module is analytic: the logarithmic derivative and the quotient are
formal operations on truncated coefficient lists.
"""

from __future__ import annotations


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


# -- series recurrences ---------------------------------------------------
#
# A power series in z truncated at order N is the list of its coefficients
# 0..N.  Both recurrences need constant term 1 and use only +, - and *, so
# they run unchanged on QPolys in Z[q] and on integers at a fixed q.


def _check_unit(a: list, name: str) -> None:
    if not a or a[0] != 1:
        raise ValueError(f"{name} needs constant term 1")


def z_log_derivative(a: list) -> list:
    """z (log a)' = z a'/a, whose z^i coefficient is i [z^i] log a.

    Solved coefficientwise from a * (z a'/a) = z a', so every coefficient
    stays in the ring of a's in O(N^2) operations without series powering.
    """
    _check_unit(a, "z_log_derivative")
    out = [a[0] - a[0]]  # the ring's zero
    for i in range(1, len(a)):
        acc = i * a[i]
        for j in range(1, i):
            if a[j]:
                acc = acc - a[j] * out[i - j]
        out.append(acc)
    return out


def divide_by_power(a: list, s: int) -> list:
    """a(z) / a(z^s) for s >= 1, solved coefficientwise from
    f(z) a(z^s) = a(z): f_i = a_i - sum_{k >= 1} a_k f_{i-ks}."""
    _check_unit(a, "divide_by_power")
    out = []
    for i, acc in enumerate(a):
        for k in range(1, i // s + 1):
            if a[k]:
                acc = acc - a[k] * out[i - k * s]
        out.append(acc)
    return out
