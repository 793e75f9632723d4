"""Counting multivariate polynomial classes over finite fields.

Everything here is exact arithmetic.  Exact counts are polynomials in the
field-size variable q (``QPoly``), or, given a concrete prime power q, their
integer values computed in the integers throughout; main terms and error
factors are rational functions (``SymRat``).

Conventions for degree 0: the polynomial 1 counts as reducible and not
irreducible, so the reducible count at n=0 is 1 and the irreducible count 0.

Classes covered: reducible/irreducible, s-powerful/s-powerfree, relatively
and absolutely irreducible, and uni-multivariate decomposable (main term and
error bound only; no exact formula exists for the latter).  The space-curve
bound constants live here too, as the only floating-point surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Iterable, Optional

from .ff import check_budget
from .qrat import QPoly, SymRat, qpow
from .series import divide_by_power, divisors, moebius, smallest_prime_factor, z_log_derivative

# -- the coefficient ring -------------------------------------------------
#
# Every exact count is computed in one of two rings, chosen by q: Z[q]
# through QPoly when q is None, or the integers at a fixed prime power q,
# where no QPoly is built.  Each formula below is written once for both; the
# ring shows only in p_count, _zero, _at_power and _weighted_sum.


def _zero(q: Optional[int]):
    return QPoly.zero() if q is None else 0


def _size(r: int, n: int, q: Optional[int]) -> int:
    """A bound on the size of P_{r,n}: its C(r+n, r) coefficients in Z[q], or
    the bits of its value at q."""
    return comb(r + n, r) * (1 if q is None else (q - 1).bit_length())


def _ring(q: Optional[int]) -> str:
    return "in Z[q]" if q is None else f"at q = {q}"


def _at_power(count: Callable, s: int, q: Optional[int]):
    """count(q) over F_{q^s}: the substitution q -> q^s in Z[q] (every exact
    count here is a polynomial in q), or the integer value at q^s."""
    return count(None).subs_power(s) if q is None else count(q**s)


def _weighted_sum(terms: Iterable[tuple], q: Optional[int]):
    """The sum of w x / d over the (w, d, x) in ``terms``, with integers w
    and d > 0: the integer numerators are added over the one denominator
    lcm(d den(x)), and divided once at the end."""
    parts = [(w, d, x.nums, x.den) if q is None else (w, d, (x,), 1) for w, d, x in terms]
    den = math.lcm(*(d * e for _, d, _, e in parts))
    acc = [0] * max((len(nums) for _, _, nums, _ in parts), default=0)
    for w, d, nums, e in parts:
        f = w * (den // (d * e))
        for i, c in enumerate(nums):
            acc[i] += f * c
    if q is None:
        return QPoly._from_ints(acc, den)
    value, rem = divmod(sum(acc), den)
    assert rem == 0, "a count at a fixed q is an integer"
    return value


# -- the base count -------------------------------------------------------


@lru_cache(maxsize=None)
def p_count(r: int, n: int, q: Optional[int] = None):
    """Number of monic r-variate polynomials of total degree n: a QPoly, or
    its integer value at a fixed q.

    One free coefficient for every monomial deg-lex below the leading one,
    summed over the possible leading monomials of degree n.
    """
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    check_budget(_size(r, n, q), f"P_{{{r},{n}}} {_ring(q)}")
    below = comb(r + n, r) - 1
    top = comb(r + n - 1, r - 1)
    # q^below + q^(below-1) + ... (top terms) = q^(below+1-top) (q^top - 1)/(q - 1)
    if q is not None:
        return q ** (below + 1 - top) * (q**top - 1) // (q - 1)
    return QPoly([0] * (below + 1 - top) + [1] * top)


def p_series(r: int, order: int, q: Optional[int] = None) -> list:
    """Generating series of the monic counts: its coefficients 0..order."""
    return [p_count(r, n, q) for n in range(order + 1)]


# -- exact counts ---------------------------------------------------------


@lru_cache(maxsize=None)
def _table(r: int, q: Optional[int]) -> list:
    """The one composition table of (r, q), grown by _composition_table."""
    return [[p_count(r, 0, q)]]


def _composition_table(r: int, m: int, q: Optional[int] = None) -> list:
    """S[m'][k], 0 <= k <= m' <= m (and maybe more rows): the sum over the
    compositions j of m' into k parts of prod P_{r,j_i}, built bottom-up by
    first part.  One table per (r, q) is kept and grown a row at a time, so
    every count reads its rows from it and each row is built once."""
    table = _table(r, q)
    if len(table) <= m:
        check_budget(m * m // 2 * _size(r, m, q),
                     f"the composition table of P_{{{r},j}}, j <= {m}, {_ring(q)}")
    for row_m in range(len(table), m + 1):
        row = [_zero(q)] * (row_m + 1)
        for first in range(1, row_m + 1):
            p_first = p_count(r, first, q)
            rest = table[row_m - first]
            # S[m'][0] is zero for m' > 0
            for k in range(first < row_m, len(rest)):
                row[k + 1] = row[k + 1] + p_first * rest[k]
        table.append(row)
    return table


@lru_cache(maxsize=None)
def irr_exact(r: int, n: int, route: str = "composition_sum", q: Optional[int] = None):
    """Exact count of irreducible monic r-variate polynomials of degree n: a
    QPoly, or its integer value at a fixed q.

    Both routes return the identical count: ``composition_sum`` runs the
    Moebius-weighted sum over integer compositions by number of parts,
    ``series_log`` takes the logarithmic derivative z P'/P of the generating
    series once and Moebius-inverts its coefficients at the divisors of n.
    """
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    if n == 0:
        return _zero(q)
    if route == "composition_sum":
        # I_n = sum_{k | n} mu(k)/k sum_j (-1)^(j+1)/j S[n/k][j]
        table = _composition_table(r, n, q)
        return _weighted_sum(((-moebius(k) * (-1) ** j, k * j, by_parts)
                              for k in divisors(n) if moebius(k)
                              for j, by_parts in enumerate(table[n // k][1:], 1)), q)
    if route == "series_log":
        # log P = sum_d I_d sum_j z^(dj) / j, so with c_m = m [z^m] log P,
        # Moebius inversion gives I_n = (1/n) sum_{k | n} mu(k) c_{n/k}
        c = z_log_derivative(p_series(r, n, q))
        return _weighted_sum(((moebius(k), n, c[n // k]) for k in divisors(n)), q)
    raise ValueError(f"unknown route {route!r}")


def red_exact(r: int, n: int, q: Optional[int] = None):
    """Exact count of reducible monic r-variate polynomials of degree n."""
    return p_count(r, n, q) - irr_exact(r, n, q=q)


@lru_cache(maxsize=None)
def _conjugate_orbits(r: int, n: int, k: int, q: Optional[int] = None):
    """sum_{s|k} mu(s) I_{r,n/k}(q^s), the term over k that the inversions for
    relatively and absolutely irreducible share."""
    return _weighted_sum(((moebius(s), 1, _at_power(lambda q1: irr_exact(r, n // k, q=q1), s, q))
                          for s in divisors(k) if moebius(s)), q)


@lru_cache(maxsize=None)
def relirr_exact(r: int, n: int, q: Optional[int] = None):
    """Exact count of relatively irreducible (irreducible here, reducible over
    some extension) monic r-variate polynomials of degree n: minus the
    conjugate-orbit terms over the divisors k > 1 of n, each divided by k."""
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    if n == 0:
        return _zero(q)
    return _weighted_sum(((-1, k, _conjugate_orbits(r, n, k, q)) for k in divisors(n)[1:]), q)


@lru_cache(maxsize=None)
def absirr_exact(r: int, n: int, q: Optional[int] = None):
    """Exact count of absolutely irreducible monic r-variate polynomials: the
    conjugate-orbit terms over all divisors k of n, each divided by k.  The
    k = 1 term is irr_exact and the rest are relirr_exact's negated, so
    abs + rel = irr by construction; the oracle checks both independently."""
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    if n == 0:
        return _zero(q)
    return _weighted_sum(((1, k, _conjugate_orbits(r, n, k, q)) for k in divisors(n)), q)


@lru_cache(maxsize=None)
def powerful_exact(r: int, n: int, s: int, route: str = "composition_sum",
                   q: Optional[int] = None):
    """Exact count of s-powerful monic r-variate polynomials of degree n.

    ``composition_sum`` runs the signed sum over compositions of the power
    part; ``series_relation`` uses the unique factorization f = g * h^s of a
    monic f into an s-powerfree g and an arbitrary monic h, i.e. divides the
    generating series by its z -> z^s substitution.
    """
    if r < 1 or n < 0 or s < 2:
        raise ValueError("need r >= 1, n >= 0, s >= 2")
    if n < s:
        return _zero(q)
    if route == "composition_sum":
        table = _composition_table(r, n // s, q)
        acc = _zero(q)
        for i in range(1, n // s + 1):
            signed = _weighted_sum((((-1) ** (j + 1), 1, by_parts)
                                    for j, by_parts in enumerate(table[i][1:], 1)), q)
            acc = acc + signed * p_count(r, n - i * s, q)
        return acc
    if route == "series_relation":
        ps = p_series(r, n, q)
        return ps[n] - divide_by_power(ps, s)[n]
    raise ValueError(f"unknown route {route!r}")


def powerfree_exact(r: int, n: int, s: int, q: Optional[int] = None):
    return p_count(r, n, q) - powerful_exact(r, n, s, q=q)


# -- main terms and certified approximations -----------------------------


@dataclass
class CountReport:
    """One counting query's results, all symbolic in q.

    ``rel_bound`` is the proven relative error factor B with
    |exact - main_term| <= main_term * B.  When B involves a half-integer
    power of q it cannot be a SymRat; ``rel_bound_sq`` then carries B^2 and
    comparisons must be made on squares.  ``exact_is_main`` marks the cases
    where the main term formula is already exact (B irrelevant).
    """

    cls: str
    r: int
    n: int
    s: Optional[int]
    exact: Optional[QPoly]
    main_term: SymRat
    gap_exponent: Optional[int]
    rel_bound: Optional[SymRat] = None
    rel_bound_sq: Optional[SymRat] = None
    exact_is_main: bool = False
    case: str = ""

    def bound_holds_at(self, q0: int) -> bool:
        """Check |exact - main| <= main * bound at a concrete prime power."""
        if self.exact is None:
            raise ValueError("no exact value to check")
        diff = self.exact.evaluate(q0) - self.main_term.evaluate(q0)
        main = self.main_term.evaluate(q0)
        if self.rel_bound is not None:
            return abs(diff) <= main * self.rel_bound.evaluate(q0)
        if self.rel_bound_sq is not None:
            return diff * diff <= main * main * self.rel_bound_sq.evaluate(q0)
        raise ValueError("report carries no error bound")


def reducible_main_term(r: int, n: int) -> SymRat:
    """Main term for the reducible count: products with a linear factor dominate."""
    if r < 2:
        raise ValueError("the symbolic theory needs r >= 2")
    e = comb(r + n - 1, r) + r - 1
    return qpow(e) * (1 - qpow(-r)) / (1 - qpow(-1)) ** 2


def reducible_gap(r: int, n: int) -> int:
    return comb(r + n - 2, r - 1) - r * (r + 1) // 2


@lru_cache(maxsize=None)
def red_approx(r: int, n: int) -> CountReport:
    """Main term, exact small-degree forms, and the explicit error bound for
    the reducible count.

    For n <= 3 the closed forms are exact.  For n >= 4 the relative error is
    bounded by q^(-gap) / ((1 - q^-1)(1 - q^-r)), and by the weaker uniform
    3 q^(-gap); gap = binom(r+n-2, r-1) - r(r+1)/2.
    """
    if r < 2:
        raise ValueError("the symbolic theory needs r >= 2")
    rho = reducible_main_term(r, n)
    exact = red_exact(r, n)
    gap = reducible_gap(r, n)
    if n == 0 or n == 1:
        return CountReport("reducible", r, n, None, exact, rho, None,
                           exact_is_main=False, case=f"exact n={n}")
    if n == 2:
        closed = rho / 2 * (1 - qpow(-r - 1))
        assert closed.as_qpoly() == exact
        return CountReport("reducible", r, n, None, exact, rho, None, case="exact n=2")
    if n == 3:
        # sign of the second correction term fixed against the exact count:
        # with "+" the form fails unique-factorization counting at every q
        inner = (
            1
            - qpow(-r * (r + 1) // 2)
            - qpow(-r * (r - 1) // 2)
            * (1 - 2 * qpow(-r) + 2 * qpow(-2 * r - 1) - qpow(-2 * r - 2))
            / (3 * (1 - qpow(-1)))
        )
        closed = rho * inner
        assert closed.as_qpoly() == exact
        return CountReport("reducible", r, n, None, exact, rho, None, case="exact n=3")
    bound = qpow(-gap) / ((1 - qpow(-1)) * (1 - qpow(-r)))
    return CountReport("reducible", r, n, None, exact, rho, gap, rel_bound=bound,
                       case="bound n>=4")


def reducible_weak_bound(r: int, n: int) -> SymRat:
    """The uniform weaker bound 3 q^(-gap) for n >= 4."""
    return 3 * qpow(-reducible_gap(r, n))


def powerful_main_term(r: int, n: int, s: int) -> SymRat:
    if r < 2 or s < 2:
        raise ValueError("need r, s >= 2")
    e = comb(r + n - s, r) + r - 1
    return (
        qpow(e)
        * (1 - qpow(-r))
        * (1 - qpow(-comb(r + n - s - 1, r - 1)))
        / (1 - qpow(-1)) ** 2
    )


def powerful_gap(r: int, n: int, s: int) -> int:
    return _comb_nn(r + n - s, r) - _comb_nn(r + n - 2 * s, r) - r * (r + 1) // 2


def _comb_nn(m: int, r: int) -> int:
    # binomials in the gap exponents vanish once the top drops below zero
    return comb(m, r) if m >= 0 else 0


@lru_cache(maxsize=None)
def powerful_approx(r: int, n: int, s: int) -> CountReport:
    """Main term eta and certified bounds for the s-powerful count.

    Exact closed forms hold for n < 3s.  For n >= 3s the relative error is
    at most 6 q^(-delta), except at (n,s) = (6,2) where the bound is
    2 q^(-delta + (r-2)(r-1)(r+3)/6); delta is the gap exponent.
    """
    if r < 2 or s < 2:
        raise ValueError("need r, s >= 2")
    exact = powerful_exact(r, n, s)
    eta = powerful_main_term(r, n, s)
    delta = powerful_gap(r, n, s)
    if n < s:
        return CountReport("powerful", r, n, s, exact, SymRat(0), None,
                           exact_is_main=True, case="zero n<s")
    if n < 2 * s:
        assert eta.as_qpoly() == exact
        return CountReport("powerful", r, n, s, exact, eta, None,
                           exact_is_main=True, case="exact s<=n<2s")
    if n < 3 * s:
        ratio_a = (1 - qpow(-comb(n + r - 2 * s - 1, r - 1))) / (
            1 - qpow(-comb(n + r - s - 1, r - 1))
        )
        ratio_b = (1 - qpow(-r * (r + 1) // 2)) / (1 - qpow(-r)) - qpow(
            -r * (r - 1) // 2
        ) * (1 - qpow(-r)) / (1 - qpow(-1))
        closed = eta * (1 + qpow(-delta) * ratio_a * ratio_b)
        assert closed.as_qpoly() == exact
        return CountReport("powerful", r, n, s, exact, eta, delta,
                           case="exact 2s<=n<3s")
    if (n, s) == (6, 2):
        shift = (r - 2) * (r - 1) * (r + 3) // 6
        bound = 2 * qpow(-delta + shift)
        return CountReport("powerful", r, n, s, exact, eta, delta,
                           rel_bound=bound, case="bound (6,2)")
    bound = 6 * qpow(-delta)
    return CountReport("powerful", r, n, s, exact, eta, delta,
                       rel_bound=bound, case="bound n>=3s")


def relirr_main_term(r: int, n: int) -> SymRat:
    """Main term for the relatively irreducible count: conjugate orbits of
    irreducibles of degree n/l over the degree-l extension, l the smallest
    prime divisor of n.  The leading power is q^(l*(binom(r+n/l, r)-1))."""
    if r < 2 or n < 2:
        raise ValueError("need r, n >= 2")
    ell = smallest_prime_factor(n)
    e = ell * (comb(r + n // ell, r) - 1)
    return qpow(e) / (ell * (1 - qpow(-ell)))


def relirr_gap(r: int, n: int) -> int:
    ell = smallest_prime_factor(n)
    return (ell - 1) * (comb(r - 1 + n // ell, r - 1) - r) + 1


@lru_cache(maxsize=None)
def relirr_approx(r: int, n: int) -> CountReport:
    """Main term and certified bound for the relatively irreducible count.

    For prime n the product form is exact.  For composite n the relative
    error is bounded by 3 q^(-kappa) with
    kappa = (l-1)(binom(r-1+n/l, r-1) - r) + 1 >= 2.
    """
    if r < 2 or n < 2:
        raise ValueError("need r, n >= 2")
    eps = relirr_main_term(r, n)
    exact = relirr_exact(r, n)
    ell = smallest_prime_factor(n)
    if ell == n:  # n prime
        closed = (
            eps
            * (1 - qpow(-n * r))
            * (
                1
                - qpow(-r * (n - 1))
                * (1 - qpow(-r))
                * (1 - qpow(-n))
                / ((1 - qpow(-1)) * (1 - qpow(-n * r)))
            )
        )
        assert closed.as_qpoly() == exact
        return CountReport("rel_irreducible", r, n, None, exact, eps, None,
                           exact_is_main=False, case="exact prime n")
    kappa = relirr_gap(r, n)
    bound = 3 * qpow(-kappa)
    return CountReport("rel_irreducible", r, n, None, exact, eps, kappa,
                       rel_bound=bound, case="bound composite n")


def mv_decomp_main_term(r: int, n: int) -> SymRat:
    """Main term for uni-multivariate decomposable f (monic, f(0)=0)."""
    if r < 2:
        raise ValueError("need r >= 2")
    if n < 2:
        raise ValueError("need n >= 2")
    m = _decomp_outer_degree(r, n)
    e = comb(r + n // m, r) + m - 3
    return qpow(e) * (1 - qpow(-comb(r - 1 + n // m, r - 1))) / (1 - qpow(-1))


def _decomp_outer_degree(r: int, n: int) -> int:
    # the degree split whose compositions dominate; at prime n the only one,
    # with a linear inner h
    ell = smallest_prime_factor(n)
    quot = n // ell
    if quot == 1 or r == 2 and smallest_prime_factor(quot) == quot and quot <= 2 * ell - 5:
        return n
    return ell


def mv_decomp_bound_sq(r: int, n: int) -> SymRat:
    """Square of the relative error bound (the bound itself carries a
    half-integer power of q, so inequality checks compare squares)."""
    ell = smallest_prime_factor(n)
    b = comb(r - 1 + n // ell, r - 1)
    # bound = 2 q^(-b/2 + 1) / (1 - q^-1); squared keeps exponents integral
    return 4 * qpow(-b + 2) / (1 - qpow(-1)) ** 2


@lru_cache(maxsize=None)
def mv_decomp_approx(r: int, n: int) -> CountReport:
    """Main term and squared relative bound for decomposable monic r-variate
    polynomials with vanishing constant term.  At prime n the inner h is
    linear and (g, h) -> g(h) is injective, so the main term
    q^(n-1) (q^r - 1)/(q - 1) is exact and the bound is 0; at composite n no
    exact formula exists."""
    alpha = mv_decomp_main_term(r, n)
    if smallest_prime_factor(n) == n:
        return CountReport(
            "decomposable_mv", r, n, None, alpha.as_qpoly(), alpha, None,
            rel_bound_sq=SymRat(0), exact_is_main=True, case="exact prime n (linear h)",
        )
    m = _decomp_outer_degree(r, n)
    return CountReport(
        "decomposable_mv", r, n, None, None, alpha, None,
        rel_bound_sq=mv_decomp_bound_sq(r, n), case=f"outer degree m={m}",
    )


# -- space-curve bound constants (the only floating-point surface) --------


@dataclass(frozen=True)
class CurveBounds:
    """Numeric constants for the reducible/exceptional space-curve bounds.

    The tower constants overflow any fixed-width float, so they are carried
    as natural logarithms (relative accuracy ~1e-15, well inside the 1e-12
    target: each is an exact rational exponent times log of a small number).
    """

    r: int
    n: int
    ell: int
    g: Fraction
    log_c: float
    b: int
    log_d: float

    def reducible_ratio_bracket(self, q: int) -> tuple[float, float, str]:
        """(log lower, log upper) for the reducible fraction among degree-n
        cycles in projective r-space, with the case that applied."""
        lq = math.log(q)
        if self.n >= min(4 * self.r - 7, 7):
            e = -(self.n - 2 * self.r + 3) * lq
            return (e - math.log(4) - self.log_c, e + self.log_c, "general")
        if self.n == 4 * self.r - 8:
            e = (-self.r + 2) * lq
            lo = e - math.log(2) - math.lgamma(self.n + 1) - self.log_c
            return (lo, e + self.log_c, "boundary")
        raise ValueError("no bracket applies for these (r, n)")

    def exceptional_bracket(self, q: int) -> tuple[float, float, str]:
        """(log lower, log upper) for the count of relatively irreducible
        degree-n cycles; requires n >= 4r-8."""
        if self.n < 4 * self.r - 8:
            raise ValueError("needs n >= 4r-8")
        lq = math.log(q)
        quot = self.n // self.ell
        if quot <= 4 * self.r - 7:
            e = 2 * self.n * (self.r - 1) * lq
            inner = 1 - 4 * math.exp(2 * (1 - self.n) * (self.r - 1) * lq)
            lo = e + (math.log(inner) if inner > 0 else -math.inf)
            return (lo, e + math.log(2) + self.log_d, "low quotient")
        bq = self.ell * _b_const(self.r, quot)
        e = bq * lq
        inner = 1 - 16 * math.exp((self.ell - self.n) * lq)
        lo = e + (math.log(inner) if inner > 0 else -math.inf)
        return (lo, e + math.log(3) + self.log_d, "high quotient")


def _g_const(r: int, n: int) -> Fraction:
    return Fraction(comb(r + n - 2, n) ** 2 * (r + n - 1), (r - 1) * (n + 1))


def _b_const(r: int, n: int) -> int:
    return 3 * (r - 2) + n * (n + 3) // 2


def curve_bounds(r: int, n: int) -> CurveBounds:
    """Bound constants for counting reducible and exceptional space curves."""
    if r < 3:
        raise ValueError("space-curve bounds need r >= 3")
    if n < 1:
        raise ValueError("need n >= 1")
    ell = smallest_prime_factor(n) if n >= 2 else 1
    g = _g_const(r, n)
    c_exponent = Fraction(r * (r + 1) * (n * n + 1)) + 4 * r * g
    log_c = float(c_exponent) * math.log(2 * math.e * n)
    quot = n // ell if n >= 2 else 1
    g_quot = _g_const(r, quot)
    d_exponent = Fraction(r * (r + 1)) * (Fraction(n * n, ell * ell) + 1) + 4 * r * g_quot
    # (e*n/l)^x has natural log x*(1 + log(n/l))
    log_d = float(d_exponent) * (1 + math.log(n / ell))
    return CurveBounds(r, n, ell, g, log_c, _b_const(r, n), log_d)
