import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ffcount.classes as fc
import ffcount.mv_counts as mc
from ffcount.ff import field_from_q
from ffcount.oracle import oracle_mv_decomp
from ffcount.qrat import QPoly, SymRat, qpow

SMALL_Q = (2, 3, 4, 5, 7, 8, 9)


# -- base counts -----------------------------------------------------------


def test_p_count_univariate_is_power():
    for n in range(7):
        assert mc.p_count(1, n) == QPoly.q_power(n) if n else mc.p_count(1, 0) == QPoly.one()


def test_p_count_values():
    assert mc.p_count(2, 2).evaluate(2) == 56
    assert mc.p_count(2, 3).evaluate(2) == 960
    assert mc.p_count(2, 0) == QPoly.one()


def test_p_count_matches_symbolic_quotient():
    # q^(B-1) (1 - q^-T) / (1 - q^-1), cleared of negative powers
    for r, n in [(2, 2), (2, 5), (3, 3), (4, 2)]:
        B = math.comb(r + n, r)
        T = math.comb(r + n - 1, r - 1)
        sym = qpow(B - 1) * (1 - qpow(-T)) / (1 - qpow(-1))
        assert sym.as_qpoly() == mc.p_count(r, n)


# -- exact counts ----------------------------------------------------------


def test_irreducible_small_values():
    assert mc.irr_exact(1, 2).evaluate(2) == 1  # only x^2+x+1
    assert mc.irr_exact(2, 2).evaluate(2) == 35
    assert mc.irr_exact(r=1, n=0) == QPoly.zero()


def test_reducible_conventions_and_values():
    assert mc.red_exact(2, 0) == QPoly.one()
    assert mc.red_exact(3, 1) == QPoly.zero()
    assert mc.red_exact(2, 2).evaluate(2) == 21
    # NOTE: enumeration (and unique factorization: C(8,3) + 6*35 = 266)
    # pins this value; a garbled sign in the transcribed degree-3 closed
    # form would give 406 instead.
    assert mc.red_exact(2, 3).evaluate(2) == 266


def test_gauss_cross_check_univariate():
    from ffcount.series import divisors, moebius

    for n in range(1, 9):
        for q in SMALL_Q:
            gauss = Fraction(sum(moebius(d) * q ** (n // d) for d in divisors(n)), n)
            assert mc.irr_exact(1, n).evaluate(q) == gauss


@pytest.mark.parametrize("r,n", [(1, 5), (2, 4), (3, 3), (2, 14), (3, 12)])
def test_irr_route_equivalence(r, n):
    assert mc.irr_exact(r, n, "composition_sum") == mc.irr_exact(r, n, "series_log")


@pytest.mark.parametrize("r,n,s", [(2, 4, 2), (2, 6, 2), (3, 6, 3), (1, 6, 2), (2, 14, 2)])
def test_powerful_route_equivalence(r, n, s):
    assert mc.powerful_exact(r, n, s, "composition_sum") == mc.powerful_exact(
        r, n, s, "series_relation"
    )


# -- the same counts in the integers at a fixed q ---------------------------

EXACT_CLASSES = [c for c, entry in fc.CLASSES.items() if entry.exact is not None]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(EXACT_CLASSES), st.integers(1, 3), st.integers(0, 9),
       st.sampled_from(SMALL_Q), st.integers(2, 3))
def test_counts_at_a_fixed_q_equal_the_symbolic_counts(cls, r, n, q, s):
    s = s if fc.CLASSES[cls].needs_s else None
    value = fc.exact_count(cls, r, n, s, q)
    assert type(value) is int
    assert value == fc.exact_count(cls, r, n, s).evaluate(q)


@pytest.mark.parametrize("q", (2, 3, 4, 9))
def test_routes_agree_at_a_fixed_q(q):
    for r in (1, 2, 3):
        for n in range(10):
            irr = mc.irr_exact(r, n, "composition_sum", q=q)
            assert type(irr) is int and irr == mc.irr_exact(r, n, "series_log", q=q), (r, n)
            for s in (2, 3):
                pw = mc.powerful_exact(r, n, s, "composition_sum", q=q)
                assert type(pw) is int, (r, n, s)
                assert pw == mc.powerful_exact(r, n, s, "series_relation", q=q), (r, n, s)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.integers(1, 3), st.sampled_from((None, 2, 5)), st.permutations(range(9)))
def test_composition_table_grown_in_any_order_equals_one_step(r, q, order):
    mc._table.cache_clear()
    whole = [list(row) for row in mc._composition_table(r, 8, q)]
    mc._table.cache_clear()
    for m in order:
        table = mc._composition_table(r, m, q)
        assert table[: m + 1] == whole[: m + 1]
    assert table == whole
    if r == 1:
        # the compositions of m into k parts: C(m-1, k-1) of them, each q^m
        for m, row in enumerate(whole[1:], 1):
            assert row == [0] + [math.comb(m - 1, k - 1) * mc.p_count(1, m, q)
                                 for k in range(1, m + 1)]


def test_unknown_route_is_a_value_error():
    with pytest.raises(ValueError, match="unknown route"):
        mc.irr_exact(2, 3, "no_such_route")
    with pytest.raises(ValueError, match="unknown route"):
        mc.powerful_exact(2, 4, 2, "no_such_route")


def test_powerful_values():
    assert mc.powerful_exact(2, 2, 2).evaluate(2) == 6
    assert mc.powerful_exact(2, 4, 2).evaluate(2) == 356
    assert mc.powerful_exact(2, 1, 2) == QPoly.zero()


def test_powerfree_deficit_of_generating_series():
    # coefficient 2 of the powerfree series is P_{r,2} - P_{r,1}
    from ffcount.series import divide_by_power

    for r in (1, 2, 3):
        for q in (None, 4):
            s_series = divide_by_power(mc.p_series(r, 3, q), 2)
            assert s_series[2] == mc.p_count(r, 2, q) - mc.p_count(r, 1, q)


def test_relirr_values():
    assert mc.relirr_exact(2, 1) == QPoly.zero()
    assert mc.relirr_exact(2, 2).evaluate(2) == 7
    assert mc.absirr_exact(2, 2).evaluate(2) == 28
    assert mc.relirr_exact(2, 4).evaluate(2) == 553


def test_partition_identities():
    for r in (1, 2, 3):
        for n in range(0, 7):
            assert mc.irr_exact(r, n) + mc.red_exact(r, n) == mc.p_count(r, n)
            for s in (2, 3):
                assert (
                    mc.powerfree_exact(r, n, s) + mc.powerful_exact(r, n, s)
                    == mc.p_count(r, n)
                )
            if n >= 1:
                assert mc.absirr_exact(r, n) + mc.relirr_exact(r, n) == mc.irr_exact(r, n)


def test_nonnegativity_at_prime_powers():
    for r in (1, 2, 3):
        for n in range(0, 7):
            polys = [
                mc.irr_exact(r, n),
                mc.red_exact(r, n),
                mc.powerful_exact(r, n, 2),
                mc.relirr_exact(r, n) if n else QPoly.zero(),
                mc.absirr_exact(r, n) if n else QPoly.zero(),
            ]
            for q in SMALL_Q:
                for poly in polys:
                    val = poly.evaluate(q)
                    assert val.denominator == 1 and val >= 0, (r, n, q)


# -- approximations --------------------------------------------------------


def test_red_approx_small_degrees_are_exact():
    for r in (2, 3):
        for n in range(4):
            rep = mc.red_approx(r, n)  # internal assertion compares to exact
            assert rep.exact == mc.red_exact(r, n)
    assert mc.red_approx(2, 2).main_term.evaluate(2) == 48


def test_red_approx_needs_two_variables():
    with pytest.raises(ValueError):
        mc.red_approx(1, 4)


def test_red_gap_and_error_degree():
    for r, n in [(2, 5), (2, 6), (2, 7), (3, 5), (3, 6)]:
        rep = mc.red_approx(r, n)
        err = (SymRat(rep.exact) - rep.main_term) / rep.main_term
        assert err.qdegree == -rep.gap_exponent
        assert rep.gap_exponent == math.comb(r + n - 2, r - 1) - r * (r + 1) // 2


def test_red_explicit_bound_holds():
    for r, n in [(2, 4), (2, 6), (3, 4), (3, 5)]:
        rep = mc.red_approx(r, n)
        weak = mc.reducible_weak_bound(r, n)
        for q in SMALL_Q:
            assert rep.bound_holds_at(q)
            diff = abs(rep.exact.evaluate(q) - rep.main_term.evaluate(q))
            assert diff <= rep.main_term.evaluate(q) * weak.evaluate(q)


def test_powerful_approx_windows():
    # below s: zero; window [s, 2s): main term exact
    assert mc.powerful_approx(2, 1, 2).case == "zero n<s"
    rep = mc.powerful_approx(2, 2, 2)
    assert rep.exact_is_main and rep.main_term.evaluate(2) == 6
    rep = mc.powerful_approx(2, 4, 2)  # 2s <= n < 3s closed form, asserted inside
    assert rep.main_term.evaluate(2) == 336
    assert rep.exact.evaluate(2) == 356
    assert rep.gap_exponent == 2


def test_powerful_delta_lower_bound():
    for r in (2, 3):
        for s in (2, 3):
            for n in range(2 * s, 9):
                assert mc.powerful_gap(r, n, s) >= r


def test_powerful_error_degree_and_bounds():
    for r, n, s in [(2, 6, 3), (2, 8, 2), (3, 6, 3)]:
        rep = mc.powerful_approx(r, n, s)
        err = (SymRat(rep.exact) - rep.main_term) / rep.main_term
        assert err.qdegree == -rep.gap_exponent
    # the (6,2) special case carries its own bound exponent
    rep62 = mc.powerful_approx(2, 6, 2)
    assert rep62.case == "bound (6,2)"
    for q in SMALL_Q:
        assert rep62.bound_holds_at(q)
    for q in SMALL_Q:
        assert mc.powerful_approx(2, 8, 2).bound_holds_at(q)
        assert mc.powerful_approx(3, 6, 2).bound_holds_at(q)


def test_relirr_prime_case_is_exact():
    rep = mc.relirr_approx(2, 2)  # asserted against the exact count internally
    assert rep.exact.evaluate(2) == 7
    assert rep.main_term.evaluate(2) == Fraction(32, 3)


def test_relirr_composite_gap_and_bound():
    for r, n in [(2, 4), (2, 6), (2, 8), (2, 9), (3, 4)]:
        rep = mc.relirr_approx(r, n)
        assert rep.gap_exponent >= 2
        err = (SymRat(rep.exact) - rep.main_term) / rep.main_term
        assert err.qdegree <= -rep.gap_exponent
        for q in SMALL_Q:
            assert rep.bound_holds_at(q)


def test_relirr_gap_formula():
    assert mc.relirr_gap(2, 4) == 2
    assert mc.relirr_gap(2, 6) == 3
    assert mc.relirr_gap(2, 9) == 5


# -- multivariate decomposables -------------------------------------------


def test_mv_decomp_main_term():
    alpha = mc.mv_decomp_main_term(2, 4)
    assert alpha == qpow(5) * (1 - qpow(-3)) / (1 - qpow(-1))
    assert alpha.evaluate(2) == 56


def test_mv_decomp_outer_degree_rule():
    assert mc._decomp_outer_degree(2, 4) == 2
    assert mc._decomp_outer_degree(3, 9) == 3
    # r=2, n/l prime and small enough: the full degree wins
    assert mc._decomp_outer_degree(2, 11 * 13) == 143  # l=11, n/l=13 <= 2*11-5
    assert mc._decomp_outer_degree(2, 7 * 11) == 7  # 11 > 2*7-5 fails the window


def test_mv_decomp_bound_squared():
    assert mc.mv_decomp_bound_sq(2, 4).evaluate(23) == Fraction(23, 121)
    rep = mc.mv_decomp_approx(2, 4)
    assert rep.exact is None and rep.rel_bound_sq is not None
    with pytest.raises(ValueError):
        mc.mv_decomp_approx(2, 1)


@pytest.mark.parametrize(
    "q, n, r", [(2, 3, 2), (3, 3, 2), (2, 5, 2), (4, 3, 2), (5, 3, 2), (2, 3, 3), (2, 2, 2),
                (3, 2, 2), (8, 3, 2)]
)
def test_mv_decomp_exact_at_prime_degree(q, n, r):
    # h is linear, so (g, h) -> g(h) is injective: q^(n-1) (q^r - 1)/(q - 1)
    rep = mc.mv_decomp_approx(r, n)
    assert mc._decomp_outer_degree(r, n) == n
    assert rep.case == "exact prime n (linear h)" and rep.rel_bound_sq == 0
    want = q ** (n - 1) * (q**r - 1) // (q - 1)
    assert rep.exact.evaluate(q) == rep.main_term.evaluate(q) == want
    assert oracle_mv_decomp(r, n, field_from_q(q)) == want


# -- curve bound constants ---------------------------------------------------


def test_curve_bound_constants():
    cb = mc.curve_bounds(3, 7)
    assert cb.g == 36
    assert mc.curve_bounds(3, 1).g == 3
    assert mc.curve_bounds(3, 1).b == 5
    with pytest.raises(ValueError):
        mc.curve_bounds(2, 5)


def test_curve_bound_logs_and_brackets():
    cb = mc.curve_bounds(3, 7)
    # c = (2e*7)^(12*50 + 12*36) = (14e)^1032
    expected = (12 * 50 + 12 * 36) * math.log(2 * math.e * 7)
    assert abs(cb.log_c - expected) < 1e-9 * expected
    lo, hi, case = cb.reducible_ratio_bracket(5)
    assert lo < hi and case == "general"
    lo2, hi2, _ = cb.exceptional_bracket(5)
    assert lo2 < hi2


def test_curve_bound_boundary_case():
    # n = 4r-8 sits on the boundary clause with the factorial factor
    cb = mc.curve_bounds(3, 4)
    lo, hi, case = cb.reducible_ratio_bracket(7)
    assert case == "boundary" and lo < hi
    # high-quotient regime of the exceptional bracket: n/l large
    cb2 = mc.curve_bounds(3, 14)
    lo2, hi2, case2 = cb2.exceptional_bracket(9)
    assert case2 == "high quotient" and lo2 < hi2
