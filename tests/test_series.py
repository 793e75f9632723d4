import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ffcount.qrat import QPoly, qpow
from ffcount.series import divide_by_power, divisors, moebius, z_log_derivative

rng = random.Random(0x5E81E5)


def rand_series(order):
    coeffs = [QPoly([rng.randint(-3, 3) for _ in range(3)]) for _ in range(order + 1)]
    coeffs[0] = QPoly.one()
    return coeffs


def mul(a, b):
    """The product of two series of one order, truncated at that order."""
    return [sum(a[j] * b[i - j] for j in range(i + 1)) for i in range(len(a))]


def at_power(a, s):
    """a(z^s), truncated at the order of a."""
    return [a[i // s] if i % s == 0 else 0 for i in range(len(a))]


def test_div_identity_and_roundtrip():
    for _ in range(20):
        a = rand_series(6)
        assert divide_by_power(a, 1) == [1] + [0] * 6
        # a(z^7) is 1 up to order 6, so nothing is divided
        assert divide_by_power(a, 7) == a
        for s in (2, 3):
            assert mul(divide_by_power(a, s), at_power(a, s)) == a


def test_div_needs_unit():
    for a in ([0, 1], [2, 1], []):
        with pytest.raises(ValueError, match="constant term 1"):
            divide_by_power(a, 2)


def test_log_geometric():
    # 1/(1-z) has log sum_i z^i / i, so every z^i coefficient of z (log)' is 1
    assert z_log_derivative([1, 1, 1, 1, 1]) == [0, 1, 1, 1, 1]


def test_log_one_plus_z():
    # log(1 + z) = z - z^2/2 + ...
    assert z_log_derivative([1, 1, 0]) == [0, 1, -1]


def test_log_requires_unit_constant_term():
    for a in ([0, 1], [2, 1], []):
        with pytest.raises(ValueError, match="constant term 1"):
            z_log_derivative(a)


def test_gauss_degree_two_from_moebius_log():
    # I_2 = (1/2) sum_{k | 2} mu(k) c_{2/k}, c_m = m [z^m] log P, for the
    # univariate count series P = sum_i q^i z^i
    c = z_log_derivative([QPoly.q_power(i) for i in range(3)])
    total = sum(moebius(k) * c[2 // k] for k in divisors(2))
    assert total * Fraction(1, 2) == (qpow(2) - qpow(1)) / 2


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


# -- properties of the recurrences, in Z[q] and in the integers ----------

ORDER = 5
props = settings(max_examples=50, derandomize=True, deadline=None)
qpolys = st.lists(st.integers(-3, 3), max_size=3).map(QPoly)
# each ring's coefficients and its one
RINGS = ((qpolys, QPoly.one()), (st.integers(-9, 9), 1))


def tails(coeffs):
    return st.lists(coeffs, min_size=ORDER, max_size=ORDER)


def unit_series(coeffs, one):
    return tails(coeffs).map(lambda cs: [one] + cs)


# a pair of series with constant term 1 in one ring, and a series with a stride
unit_pairs = st.one_of(*(st.tuples(unit_series(c, one), unit_series(c, one)) for c, one in RINGS))
unit_and_stride = st.tuples(st.one_of(*(unit_series(c, one) for c, one in RINGS)),
                            st.integers(1, ORDER + 1))


@props
@given(unit_and_stride)
def test_division_undoes_multiplication(a_s):
    # multiplying a(z) / a(z^s) back by a(z^s) gives a
    a, s = a_s
    assert mul(divide_by_power(a, s), at_power(a, s)) == a


@props
@given(unit_pairs)
def test_log_of_product_is_sum_of_logs(ab):
    a, b = ab
    sums = [x + y for x, y in zip(z_log_derivative(a), z_log_derivative(b))]
    assert z_log_derivative(mul(a, b)) == sums


@props
@given(qpolys.filter(lambda c: c.degree >= 1), tails(qpolys))
def test_division_by_q_constant_term_raises(c0, cs):
    # q, or any other non-constant polynomial, has no inverse in Z[q]
    for const in (QPoly.q_power(1), c0):
        with pytest.raises(ValueError, match="constant term 1"):
            divide_by_power([const] + cs, 2)
        with pytest.raises(ValueError, match="constant term 1"):
            z_log_derivative([const] + cs)


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
