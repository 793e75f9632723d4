import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ffcount.qrat import QPoly, SymRat, qpow
from ffcount.series import TruncSeries, divisors, moebius

rng = random.Random(0x5E81E5)


def rand_series(order, unit=False):
    coeffs = [QPoly([rng.randint(-3, 3) for _ in range(3)]) for _ in range(order + 1)]
    if unit:
        coeffs[0] = QPoly.one()
    return TruncSeries(order, coeffs)


def test_mul_example():
    a = TruncSeries(2, [1, 1])
    b = TruncSeries(2, [1, -1])
    assert (a * b).coeffs == TruncSeries(2, [1, 0, -1]).coeffs


def test_div_identity_and_roundtrip():
    for _ in range(20):
        a = rand_series(6, unit=True)
        one = TruncSeries.one(6)
        assert a / a == one
        b = rand_series(6, unit=True)
        assert (a * b) / b == a


def test_order_mismatch_is_an_error():
    with pytest.raises(ValueError, match="order mismatch"):
        TruncSeries.one(3) + TruncSeries.one(4)
    with pytest.raises(ValueError, match="order mismatch"):
        TruncSeries.one(3) * TruncSeries.one(4)


def test_div_needs_unit():
    a = TruncSeries(3, [0, 1])
    with pytest.raises(ZeroDivisionError):
        TruncSeries.one(3) / a


def test_log_geometric():
    geo = TruncSeries(4, [1, 1, 1, 1, 1])  # 1/(1-z)
    lg = geo.log()
    assert [c for c in lg.coeffs] == [
        SymRat(0),
        SymRat(1),
        SymRat(Fraction(1, 2)),
        SymRat(Fraction(1, 3)),
        SymRat(Fraction(1, 4)),
    ]


def test_log_one_plus_z():
    lg = TruncSeries(2, [1, 1]).log()
    assert lg.coeffs == (SymRat(0), SymRat(1), SymRat(Fraction(-1, 2)))


def test_log_requires_unit_constant_term():
    with pytest.raises(ValueError, match="constant term 1"):
        TruncSeries(2, [0, 1]).log()


def test_exp_log_roundtrip_randomized():
    for _ in range(15):
        a = rand_series(5, unit=True)
        assert a.log().exp() == a


def test_substitute_power():
    a = TruncSeries(3, [1, 1])
    assert a.substitute_power(2).coeffs == TruncSeries(3, [1, 0, 1]).coeffs
    assert a.substitute_power(1) == a
    # composing substitutions multiplies the stride
    b = rand_series(8)
    assert b.substitute_power(2).substitute_power(3) == b.substitute_power(6)


def test_substitute_power_geometric_series():
    # the degree-n univariate counts q^n, restricted to multiples of 3
    p1 = TruncSeries(3, [QPoly.q_power(n) for n in range(4)])
    got = p1.substitute_power(3)
    assert got.coeff(0) == SymRat(1)
    assert got.coeff(3) == qpow(1)
    assert got.coeff(1).is_zero() and got.coeff(2).is_zero()


def test_gauss_degree_two_from_moebius_log():
    # [z^2] of sum_k mu(k)/k log P(z^k) for the univariate count series
    n = 2
    p1 = TruncSeries(n, [QPoly.q_power(i) for i in range(n + 1)])
    acc = TruncSeries.zero(n)
    for k in range(1, n + 1):
        if moebius(k):
            acc = acc + p1.substitute_power(k).log() * Fraction(moebius(k), k)
    assert acc.coeff(2) == (qpow(2) - qpow(1)) / 2


@pytest.mark.parametrize(
    "k,expected",
    [(1, 1), (2, -1), (3, -1), (4, 0), (6, 1), (8, 0), (9, 0), (30, -1), (210, 1)],
)
def test_moebius_values(k, expected):
    assert moebius(k) == expected


def test_moebius_divisor_sum():
    for n in range(1, 10001):
        total = sum(moebius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


# -- properties of the series ring over Q[q] -----------------------------

ORDER = 5
props = settings(max_examples=25, derandomize=True, deadline=None)
qpolys = st.lists(st.integers(-3, 3), max_size=3).map(QPoly)
tails = st.lists(qpolys, min_size=ORDER, max_size=ORDER)
# series with constant term 1, and with a nonzero rational constant term
unit_series = tails.map(lambda cs: TruncSeries(ORDER, [1] + cs))
invertible = st.builds(
    lambda c0, cs: TruncSeries(ORDER, [c0] + cs),
    st.fractions(-3, 3).filter(bool), tails,
)


@props
@given(st.lists(qpolys, max_size=ORDER + 1), invertible)
def test_division_undoes_multiplication(cs, b):
    a = TruncSeries(ORDER, cs)
    assert (a * b) / b == a


@props
@given(unit_series, unit_series)
def test_log_of_product_is_sum_of_logs(a, b):
    assert (a * b).log() == a.log() + b.log()


@props
@given(unit_series)
def test_exp_inverts_log(a):
    assert a.log().exp() == a


@props
@given(qpolys.filter(lambda c: c.degree >= 1), tails)
def test_division_by_q_constant_term_raises(c0, cs):
    # q, or any other non-constant polynomial, has no inverse in Q[q]
    for const in (QPoly.q_power(1), c0):
        with pytest.raises(ZeroDivisionError):
            TruncSeries.one(ORDER) / TruncSeries(ORDER, [const] + cs)


def test_prime_power_tests_agree_with_trial_division():
    from ffcount.series import factor_prime_power, is_prime, smallest_prime_factor

    for q in range(-2, 3000):
        p = smallest_prime_factor(q) if q >= 2 else 0
        assert is_prime(q) == (q >= 2 and p == q)
        d = 0
        while p and q % p**(d + 1) == 0:
            d += 1
        if p and p**d == q:
            assert factor_prime_power(q) == (p, d)
        else:
            with pytest.raises(ValueError, match="not a prime power"):
                factor_prime_power(q)


def test_factor_prime_power_at_large_q():
    from ffcount.series import MR_EXACT_BELOW, factor_prime_power

    assert factor_prime_power(10**18 + 3) == (10**18 + 3, 1)
    assert factor_prime_power((10**9 + 7) ** 2) == (10**9 + 7, 2)
    assert factor_prime_power(2**200) == (2, 200)
    # a Carmichael number and strong pseudoprimes to the primes up to 7, 23 and 37
    for q in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError, match="not a prime power"):
            factor_prime_power(q)
    with pytest.raises(ValueError, match=str(MR_EXACT_BELOW)):
        factor_prime_power(2**89 - 1)
