import itertools
from fractions import Fraction

import pytest

import ffcount.uv_counts as uc
from ffcount.bounds import BoundExpr
from ffcount.ff import field_make
from ffcount.oracle import oracle_decomp_census
from ffcount.series import divisors, factor_prime_power


def test_alpha_values():
    assert uc.alpha_n(4, 5) == 25
    assert uc.alpha_n(6, 5) == 250
    assert uc.alpha_n(9, 3) == 81
    assert uc.alpha_n(10, 2) == 2 * 2**5


def test_alpha_rejects_primes():
    with pytest.raises(ValueError, match="no decomposables"):
        uc.alpha_n(7, 5)


def test_alpha_window():
    for n in (4, 6, 8, 9, 10, 12, 15, 25, 49):
        for q in (2, 3, 4, 5, 7, 8, 9):
            assert uc.alpha_window_ok(n, q)


def test_bracket_wild_square_case():
    br = uc.d_n_bracket(4, 2)
    assert br.case_label == "ii"
    assert br.lower.as_fraction() == 2
    assert float(br.upper) == pytest.approx(4 * (1 + 2 ** (-1 / 3)))
    assert br.exact == 3
    assert br.contains(3)


def test_bracket_tame_case():
    br = uc.d_n_bracket(6, 5)
    assert br.case_label == "v"
    assert br.contains(225)
    assert not br.contains(100)
    assert not br.contains(400)


def test_bracket_strongest_lower_among_fallbacks():
    # p=3 divides 6 but differs from l=2, so the clause-(iv) lower applies;
    # at q=3 it is weaker than alpha/2 and the max must win
    br = uc.d_n_bracket(6, 3)
    assert br.case_label == "ii"
    assert br.lower.as_fraction() == uc.alpha_n(6, 3) / 2
    # at q=9 the same guard gives the sharper (iv) lower
    br9 = uc.d_n_bracket(6, 9)
    assert br9.case_label in ("iii", "iv")
    assert br9.lower.as_fraction() > uc.alpha_n(6, 9) / 2


def test_tame_intersection_values():
    assert uc.tame_intersection(2, 3, 5) == 25
    assert uc.tame_intersection(2, 4, 3) == 27
    assert uc.tame_intersection(3, 4, 5) == 45  # 2q^2 - q


def test_tame_intersection_upper_bound():
    for ell, m, q in [(2, 3, 5), (2, 5, 3), (3, 4, 5), (3, 5, 7), (2, 4, 5), (4, 5, 3)]:
        s = m // ell
        assert uc.tame_intersection(ell, m, q) <= q ** (2 * ell + s - 3)


def test_tame_intersection_guards():
    with pytest.raises(ValueError, match="wild"):
        uc.tame_intersection(2, 3, 2)
    with pytest.raises(ValueError, match="m > l"):
        uc.tame_intersection(3, 2, 5)


def test_wild_bounds_examples():
    br = uc.wild_intersection_bounds(2, 4, 2)
    assert br.upper.as_fraction() == 8
    assert br.lower.as_fraction() == 2
    br = uc.wild_intersection_bounds(2, 6, 2)
    assert br.upper.as_fraction() == 32
    assert br.lower.as_fraction() == 4


def test_wild_bounds_p_coprime_to_l_clause():
    # p=3, l=2, m=6: n=12 divisible by p, upper from the coprime clause
    br = uc.wild_intersection_bounds(2, 6, 3)
    assert br.upper.as_fraction() == 3 ** (6 + 1 - 2)
    assert "p coprime" in br.case_label
    assert br.lower.as_fraction() >= 0


def test_wild_bounds_divisor_guard():
    # p = l = 2, m = 8: m/p = 4 has the nontrivial divisor 2, not larger
    # than p, so the lower clause must NOT fire
    br = uc.wild_intersection_bounds(2, 8, 2)
    assert "lower(p = l)" not in br.case_label
    # m = 4: m/p = 2 has no nontrivial divisors: vacuous guard counts
    br2 = uc.wild_intersection_bounds(2, 4, 2)
    assert "lower(p = l)" in br2.case_label


def test_wild_bounds_no_clause():
    # l=4 is not prime, so no lower clause; p=2 | l gives the p|l upper
    br = uc.wild_intersection_bounds(4, 6, 2)
    assert br.lower.as_fraction() == 0


def test_wild_bounds_p_equals_l_clause_withdrawn_above_q2():
    # the census finds 30, 302 and 2670 non-Frobenius polynomials in the
    # (2, 4) intersection at q = 4, 8, 16, below the clause's 36, 392, 3600
    for q in (4, 8, 16):
        br = uc.wild_intersection_bounds(2, 4, q)
        assert br.lower.as_fraction() == 0
        assert "lower(p = l) refuted" in br.case_label
    assert uc.wild_intersection_bounds(2, 4, 2).case_label == "upper(p | l); lower(p = l)"


# the degree-8 census in characteristic 2, q -> (non-Frobenius (2, 4)
# intersection, all of (2, 4), each split, total)
WILD_2_4_CENSUS = {
    2: (2, 10, 14, 18),
    4: (30, 94, 238, 382),
    8: (302, 814, 3950, 7086),
    16: (2670, 6766, 64366, 121966),
    32: (22382, 55150, 1039214, 2023278),
}


@pytest.mark.parametrize("q", WILD_2_4_CENSUS)
def test_wild_2_4_census_values(q):
    """Pins the n = 8, p = 2 census.  Each value also fits a polynomial in q:
    (5q^3 - 7q^2 + 2)/7, (12q^3 - 7q^2 + 2)/7, (7q^4 - 2q^3 + 2)/7 and
    (14q^4 - 16q^3 + 7q^2 + 2)/7.  These forms are fitted conjectures, not
    derived, so no bound or bracket uses them."""
    rep = oracle_decomp_census(8, field_make(2, q.bit_length() - 1))
    got = (rep.pair_intersections_nonfrobenius[2, 4], rep.pair_intersections[2, 4],
           rep.per_split[2], rep.total)
    assert got == WILD_2_4_CENSUS[q]
    assert rep.per_split[4] == rep.per_split[2]
    fitted = (5 * q**3 - 7 * q**2 + 2, 12 * q**3 - 7 * q**2 + 2, 7 * q**4 - 2 * q**3 + 2,
              14 * q**4 - 16 * q**3 + 7 * q**2 + 2)
    assert got == tuple(Fraction(f, 7) for f in fitted)


def test_wild_bounds_tame_guard():
    with pytest.raises(ValueError, match="tame"):
        uc.wild_intersection_bounds(2, 3, 5)


@pytest.mark.parametrize(
    "p,d,expected", [(2, 1, 3), (2, 2, 11), (3, 1, 69), (5, 1, 389905), (2, 3, 43)]
)
def test_d_p2_exact(p, d, expected):
    assert uc.d_p2_exact(p, d) == expected


@pytest.mark.parametrize("p,d,terms", [
    (2, 1, {"F": 1, "S": 0, "M": 0}), (2, 3, {"F": 7, "S": 14, "M": 0}),
    (3, 1, {"F": 8, "S": 4, "M": 0}), (3, 2, {"F": 80, "S": 220, "M": 0}),
    (5, 1, {"F": 624, "S": 66, "M": 30}),
])
def test_d_p2_terms(p, d, terms):
    # the per-label sums of decompositions - 1 that classify_census gives
    # (see test_uv_families), and q^(2p-2) pairs less them is the count
    assert uc.d_p2_terms(p, d) == terms
    assert uc.d_p2_exact(p, d) == (p**d) ** (2 * p - 2) - sum(terms.values())


def test_d_p2_terms_are_integers_and_sum_to_the_exact_count():
    for p in (2, 3, 5, 7, 11, 13, 31):
        for d in range(1, 5):
            q, terms = p**d, uc.d_p2_terms(p, d)
            tau = len(divisors(p - 1)) if p > 2 else 1
            exact = (Fraction(q) ** (2 * p - 2) - q ** (p - 1) + 1
                     - Fraction((tau * q - q + 1) * (q - 1) * (q * p - p - 2), 2 * (p + 1))
                     - (Fraction(q * (q - 1) * (q - 2) * (p - 3), 4) if p != 2 else 0))
            assert uc.d_p2_exact(p, d) == exact == q ** (2 * p - 2) - sum(terms.values())


def test_d_p2_printed_forms_agree():
    for p in (2, 3):
        for d in (1, 2, 3):
            q = p**d
            assert uc.d_p2_special_form(p, q) == uc.d_p2_exact(p, d)


def test_nu_values():
    assert uc.nu(4, 2) == Fraction(3, 4)
    assert uc.nu(4, 4) == Fraction(11, 16)
    assert uc.nu(6, 5, exact=225) == Fraction(9, 10)


def test_nu_lower_bound_and_accumulation():
    # nu >= 1/2 wherever the exact count is known
    for p, d in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
        q = p**d
        val = uc.nu(p * p, q)
        assert val >= Fraction(1, 2)
    # characteristic 2: nu at degree 4 is exactly (2 + q^-2)/3
    for d in (1, 2, 3, 4):
        q = 2**d
        assert uc.nu(4, q) == (2 + Fraction(1, q * q)) / 3


def test_nu_needs_exact():
    with pytest.raises(ValueError, match="oracle"):
        uc.nu(8, 2)


def test_bound_expr_comparisons():
    b = BoundExpr.power(5, -250, Fraction(-1, 2), base=250)  # 250 - 250/sqrt(5)
    assert b <= 225
    assert not (b >= 225)
    assert b >= 138
    c = BoundExpr.exact(5, Fraction(150))
    assert b <= c
    assert c >= b
    d = BoundExpr.power(2, 4, Fraction(-1, 3), base=4)  # 4 + 4*2^(-1/3)
    assert d >= 7
    assert d <= 8


SWEEP_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


@pytest.mark.parametrize("q", SWEEP_QS)
def test_bounds_hold_on_the_census_sweep(q):
    # every composite n <= 26 whose census needs at most 4 * 10^5 pairs
    p, d = factor_prime_power(q)
    ctx = field_make(p, d)
    for n in range(4, 27):
        splits = [e for e in divisors(n) if 1 < e < n]
        if not splits or sum(q ** (e + n // e - 2) for e in splits) > 4 * 10**5:
            continue
        rep = oracle_decomp_census(n, ctx)
        assert uc.d_n_bracket(n, q).contains(rep.total), (n, q)
        if n == p * p:
            assert rep.total == uc.d_p2_exact(p, d), (n, q)
            assert rep.frobenius_collisions == q ** (p - 1) - 1, (n, q)
        for ell, m in itertools.combinations(splits, 2):
            if ell * m != n:
                continue
            if n % p:
                assert rep.pair_intersections[ell, m] == uc.tame_intersection(ell, m, q), (n, q)
            else:
                br = uc.wild_intersection_bounds(ell, m, q)
                nonfrob = rep.pair_intersections_nonfrobenius[ell, m]
                assert br.lower <= nonfrob <= br.upper, (n, q, ell, m, nonfrob, br.case_label)

