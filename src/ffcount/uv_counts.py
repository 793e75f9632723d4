"""Counting univariate decomposable polynomials over a concrete finite field.

All polynomials here are monic original (f(0) = 0) of composite degree n,
decomposable meaning f = g(h) with both components of degree at least 2.
The counts depend on the interplay between the field characteristic p and
the degree: the tame case p not dividing n is sharp, the wild case has
upper/lower bounds with a real gap, and degree p^2 has an exact closed
formula obtained from the classification of collisions at that degree.

Everything takes a concrete prime power q and returns exact rationals or
``BoundExpr`` endpoints (which stay exactly comparable even when the bound
involves a fractional power of q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bounds import BoundExpr
from .series import divisors, factor_prime_power, smallest_prime_factor


@dataclass
class Bracket:
    """A certified enclosure lower <= count <= upper, with the clause used."""

    lower: BoundExpr
    upper: BoundExpr
    exact: Optional[int]
    case_label: str

    def contains(self, value: int) -> bool:
        return self.lower <= value and self.upper >= value


def alpha_n(n: int, q: int) -> Fraction:
    """Main term for the number of decomposable monic original polynomials
    of composite degree n: dominated by the splits through the smallest
    prime divisor l, q^(l + n/l - 2) each, two split directions unless
    n = l^2."""
    factor_prime_power(q)
    ell = _check_composite(n)
    if n == ell * ell:
        return Fraction(q) ** (2 * ell - 2)
    return 2 * Fraction(q) ** (ell + n // ell - 2)


def _check_composite(n: int) -> int:
    if n < 2 or smallest_prime_factor(n) == n:
        raise ValueError(f"no decomposables: degree {n} is not composite, so it admits no splits")
    return smallest_prime_factor(n)


def d_n_bracket(n: int, q: int) -> Bracket:
    """Certified bracket for the number of decomposable monic original
    polynomials of degree n over F_q, using the strongest applicable clause.

    The upper bound alpha*(1 + q^(-n/3l^2)) always holds; so does the lower
    bound alpha/2.  Sharper lower bounds apply when n != p^2 with q > 5, or
    when p does not divide n or differs from l; with p coprime to n the
    two-sided relative error q^(-n/3l^2) applies.
    """
    p, d = factor_prime_power(q)
    ell = _check_composite(n)
    alpha = alpha_n(n, q)
    x = Fraction(n, 3 * ell * ell)
    upper = BoundExpr.power(q, alpha, -x, base=alpha)
    exact = d_p2_exact(p, d) if n == p * p else None
    if n % p != 0:
        # two-sided relative error, the sharpest kind of claim available
        lower = BoundExpr.power(q, -alpha, -x, base=alpha)
        return Bracket(lower, upper, exact, "v")
    candidates = [(BoundExpr.exact(q, alpha / 2), "ii")]
    if n != p * p and q > 5:
        candidates.append((BoundExpr.exact(q, alpha * (3 * q - 2) / (4 * q)), "iii"))
    if p != ell:
        # guard truncated in the source; applied only on this conservative subset
        candidates.append((BoundExpr.exact(q, alpha * (q - 2) / q), "iv"))
    lower, label = candidates[0]
    for cand, lab in candidates[1:]:
        if lower <= cand:
            lower, label = cand, lab
    return Bracket(lower, upper, exact, label)


def tame_intersection(ell: int, m: int, q: int) -> int:
    """Exact number of monic original degree-(l*m) polynomials decomposable
    with left components of both degrees l and m; requires m > l >= 2 and
    the characteristic coprime to l*m."""
    p, _ = factor_prime_power(q)
    if not (m > ell >= 2):
        raise ValueError("need m > l >= 2")
    if (ell * m) % p == 0:
        raise ValueError("wild case; use wild_intersection_bounds")
    s = m // ell
    if m % ell == 0:
        return q ** (2 * ell + s - 3)
    i = math.gcd(ell, m)
    base = q ** (s - 1)
    if ell != 2:
        base += q ** 0 - Fraction(1, q)
    val = Fraction(q) ** (2 * i) * base
    assert val.denominator == 1
    return int(val)


def wild_intersection_bounds(ell: int, m: int, q: int) -> Bracket:
    """Certified bounds for the wild-case intersection count, Frobenius
    collisions excluded.  Upper bounds need only p | l*m; lower bounds need
    l prime dividing m and come in two clauses by whether p equals l.
    Vacuous divisor guards count as satisfied.  When nothing applies the
    bracket falls back to [0, q^(l+m-2)].  The p = l lower clause is
    withdrawn at (l, m) = (2, 4) for q > 2, where the census refutes it."""
    p, d = factor_prime_power(q)
    if (ell * m) % p != 0:
        raise ValueError("tame case; use tame_intersection")
    if not (m >= 2 and ell >= 2):
        raise ValueError("need l, m >= 2")
    upper = None
    upper_label = "none"
    if ell % p != 0:
        upper = Fraction(q) ** (m + _ceil_div(ell, p) - 2)
        upper_label = "upper(p coprime to l)"
    elif ell < m:
        b = _ceil_div(m - ell + 1, ell)
        upper = Fraction(q) ** (m + ell - b + _ceil_div(b, p) - 2)
        upper_label = "upper(p | l)"
    lower = Fraction(0)
    lower_label = "none"
    qf = Fraction(q)
    if smallest_prime_factor(ell) == ell and m % ell == 0 and m > ell:
        if p == ell:
            quot = m // p
            if (ell, m) == (2, 4) and q > 2:
                # the census refutes the clause here (36 > 30, 392 > 302 and
                # 3600 > 2670 at q = 4, 8, 16); its full hypothesis is not
                # known, so the lower bound falls back to 0
                lower_label = "lower(p = l) refuted at (2, 4), q > 2: 0"
            elif all(not (1 < t < quot) or t > p for t in divisors(quot)):
                lower = (
                    qf ** (2 * p + m // p - 3) * (1 - 1 / qf) * (1 - qf ** (-p + 1))
                )
                lower_label = "lower(p = l)"
        else:
            dd = 0
            mm = m
            while mm % p == 0:
                mm //= p
                dd += 1
            if dd >= 1:
                common = 1 - (1 / qf) * (
                    1 + qf ** (-p + 2) * (1 - 1 / qf) ** 2 / (1 - qf**-p)
                )
                if (p**dd - 1) % ell != 0:
                    lower = qf ** (2 * ell + m // ell - 3) * (1 - qf ** (-(m // ell))) * common
                    lower_label = "lower(p != l, l coprime)"
                else:
                    mu = math.gcd(p**dd - 1, ell)
                    rr = (p**dd - 1) // mu
                    corr = (
                        qf ** (-(m // ell) - rr + 2)
                        * (1 - 1 / qf) ** 2
                        * (1 - qf ** (-rr * (mu - 1)))
                        / (1 - qf**-rr)
                        * (1 + qf ** (-rr * (p - 2)))
                    )
                    lower = qf ** (2 * ell + m // ell - 3) * (
                        common * (1 - qf ** (-(m // ell))) - corr
                    )
                    lower_label = "lower(p != l, l | p^d - 1)"
    if upper is None:
        upper = Fraction(q) ** (ell + m - 2)
        upper_label = "trivial upper"
        if lower_label == "none":
            return Bracket(
                BoundExpr.exact(q, 0),
                BoundExpr.exact(q, upper),
                None,
                "no clause applies",
            )
    label = f"{upper_label}; {lower_label}"
    return Bracket(
        BoundExpr.exact(q, max(lower, Fraction(0))),
        BoundExpr.exact(q, upper),
        None,
        label,
    )


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def d_p2_terms(p: int, d: int) -> dict[str, int]:
    """The collision terms of the degree-p^2 count over F_q, q = p^d, one per
    collision type of the classification (Blankertz, von zur Gathen and
    Ziegler, "Compositions and collisions at degree p^2", 2013): each is the
    sum of (decompositions - 1) over the collisions of its type, so that
    q^(2p-2) pairs (g, h) minus the three terms counts the decomposables.

    * F (Frobenius): q^(p-1) - 1;
    * S (simply original): (tau q - q + 1)(q - 1)(qp - p - 2) / (2(p + 1)),
      tau the number of divisors of p - 1 (tau = 1 at p = 2);
    * M (multiply original): q(q - 1)(q - 2)(p - 3) / 4, none at p = 2.
    """
    if smallest_prime_factor(p) != p:
        raise ValueError(f"{p} is not prime")
    if d < 1:
        raise ValueError("need d >= 1")
    q = p**d
    tau = len(divisors(p - 1)) if p > 2 else 1
    s_num, s_den = (tau * q - q + 1) * (q - 1) * (q * p - p - 2), 2 * (p + 1)
    m_num = q * (q - 1) * (q - 2) * (p - 3) if p != 2 else 0
    assert s_num % s_den == 0 and m_num % 4 == 0
    return {"F": q ** (p - 1) - 1, "S": s_num // s_den, "M": m_num // 4}


def d_p2_exact(p: int, d: int) -> int:
    """Exact number of decomposable monic original polynomials of degree p^2
    over F_{p^d}, from the complete classification of collisions there:
    q^(2p-2) pairs less the three terms of ``d_p2_terms``."""
    return (p**d) ** (2 * p - 2) - sum(d_p2_terms(p, d).values())


def d_p2_special_form(p: int, q: int) -> Fraction:
    """Independent small-characteristic forms of the degree-p^2 count
    (p = 2 and p = 3), used as an identity check against d_p2_exact."""
    qf = Fraction(q)
    if p == 2:
        return qf**2 * (2 + qf**-2) / 3
    if p == 3:
        return qf**4 * (1 - Fraction(3, 8) * (qf**-1 + qf**-2 - qf**-3 - qf**-4))
    raise ValueError("printed forms exist only for p in {2, 3}")


def nu(n: int, q: int, exact: Optional[int] = None) -> Fraction:
    """The ratio (number of decomposables of degree n) / alpha_n.

    The exact count must be available: degree p^2 uses the closed formula,
    anything else needs the caller to pass an oracle value.
    """
    p, d = factor_prime_power(q)
    if exact is None:
        if n == p * p:
            exact = d_p2_exact(p, d)
        else:
            raise ValueError(
                "exact decomposable count unavailable; pass one from the oracle"
            )
    return Fraction(exact) / alpha_n(n, q)


def alpha_window_ok(n: int, q: int) -> bool:
    """Exact check of q^(2*sqrt(n)-2) <= alpha_n <= 2 q^(n/2), squaring away
    the irrational exponents."""
    ell = smallest_prime_factor(n)
    alpha = alpha_n(n, q)
    j = 2 * ell if n == ell * ell else ell + n // ell
    # lower: 4n <= j^2 gives q^(2 sqrt n) <= q^j, and q^j <= alpha * q^2
    if 4 * n > j * j or Fraction(q) ** j > alpha * q * q:
        return False
    # upper: alpha <= 2 q^(n/2), compared with both sides squared
    return (alpha / 2) ** 2 <= Fraction(q) ** n
