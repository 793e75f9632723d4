import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ffcount.qrat import QPoly, SymRat, qpow, qvar

rng = random.Random(0xFFC0)


def rand_symrat(max_deg=4):
    num = QPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, max_deg + 1))])
    den = QPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, max_deg + 1))])
    if den.is_zero():
        den = QPoly.one()
    return SymRat(num, den)


def test_telescoping_quotient():
    got = (1 - qpow(-2)) / (1 - qpow(-1))
    assert got == SymRat(QPoly([1, 1]), QPoly([0, 1]))  # (q+1)/q
    assert str(got) == "(q+1)/(q)"


def test_product_matches_reducible_main_term():
    # q^4 (1 - q^-2) times (1 - q^-1)^-2
    got = qpow(4) * (1 - qpow(-2)) * (1 - qpow(-1)) ** -2
    rho22 = qpow(4) * (1 - qpow(-2)) / (1 - qpow(-1)) ** 2
    assert got == rho22
    assert rho22.evaluate(2) == 48


def test_subtraction_gives_canonical_zero():
    z = qvar - qvar
    assert z.is_zero()
    assert z == SymRat(0)
    assert str(z) == "(0)/(1)"


def test_canonical_form_kills_common_factors():
    a = SymRat(QPoly([1, 1]), QPoly([0, 1]))
    c = QPoly([3, 0, -2, 7])
    scaled = SymRat(QPoly([1, 1]) * c, QPoly([0, 1]) * c)
    assert a == scaled
    assert hash(a) == hash(scaled)


def test_denominator_leading_coefficient_positive():
    a = SymRat(QPoly([1]), QPoly([1, -2]))
    assert a.den.coeffs[-1] > 0
    assert a.num.coeffs[-1] < 0


@pytest.mark.parametrize(
    "q0,expected", [(2, 48), (3, 162), (5, Fraction(1875, 2))]
)
def test_eval_reducible_main_term(q0, expected):
    # (q^5+q^4)/(q-1) by hand at each point
    rho22 = qpow(4) * (1 - qpow(-2)) / (1 - qpow(-1)) ** 2
    assert rho22.evaluate(q0) == expected


def test_eval_constant_and_monomials():
    assert SymRat(1).evaluate(12345) == 1
    for n in range(6):
        # the univariate total count is q^n
        assert qpow(n).evaluate(7) == 7**n


def test_eval_pole():
    f = SymRat(QPoly.one(), QPoly([-2, 1]))  # 1/(q-2)
    with pytest.raises(ZeroDivisionError, match="pole"):
        f.evaluate(2)
    assert f.evaluate(3) == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        qvar / SymRat(0)
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        SymRat(QPoly.one(), QPoly.zero())


def test_qdegree():
    f = qpow(5) * (1 - qpow(-3)) / (1 - qpow(-1))
    assert f.qdegree == 5  # canonical form is the polynomial q^2(q^2+q+1)... degree 4+1
    assert SymRat(7).qdegree == 0
    with pytest.raises(ValueError, match="degree of zero"):
        _ = SymRat(0).qdegree


def test_qdegree_of_main_term_matches_binomial():
    from math import comb

    for r, n in [(2, 2), (2, 5), (3, 4)]:
        rho = (
            qpow(comb(r + n - 1, r) + r - 1) * (1 - qpow(-r)) / (1 - qpow(-1)) ** 2
        )
        assert rho.qdegree == comb(r + n - 1, r) + r - 1


def test_field_axioms_randomized():
    for _ in range(60):
        a, b, c = rand_symrat(), rand_symrat(), rand_symrat()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        if not b.is_zero():
            assert (a / b) * b == a


def test_eval_is_ring_homomorphism():
    for _ in range(40):
        a, b = rand_symrat(), rand_symrat()
        q0 = rng.choice([2, 3, 5, 11])
        try:
            va, vb = a.evaluate(q0), b.evaluate(q0)
        except ZeroDivisionError:
            continue
        assert (a + b).evaluate(q0) == va + vb
        assert (a * b).evaluate(q0) == va * vb


def test_power_substitution():
    f = (1 + qvar) / (1 - qpow(-1))
    g = f.subs_power(3)
    assert g == (1 + qpow(3)) / (1 - qpow(-3))


def test_string_round_shapes():
    assert str(SymRat(QPoly([0, 0, 0, 1, 1]), QPoly([-1, 1]))) == "(q^4+q^3)/(q-1)"
    assert str(QPoly([Fraction(1, 2), 0, 1])) == "q^2+1/2"
    assert str(QPoly.zero()) == "0"


def test_as_qpoly_guard():
    with pytest.raises(ValueError, match="not a polynomial"):
        (1 / qvar).as_qpoly()
    assert (qpow(2) / SymRat(2)).as_qpoly() == QPoly([0, 0, Fraction(1, 2)])


# -- QPoly against a plain list-of-Fractions reference ---------------------


def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_pow(a, e):
    out = [Fraction(1)]
    for _ in range(e):
        out = ref_mul(out, a)
    return out


def ref_subs(a, k):
    out = [Fraction(0)] * (k * (len(a) - 1) + 1) if a else []
    for i, c in enumerate(a):
        out[i * k] = c
    return out


def ref_rem(a, b):
    a = ref_trim(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        a = ref_trim(x - (f * b[i - shift] if i >= shift else 0) for i, x in enumerate(a))
    return a


def ref_gcd_degree(a, b):
    a, b = ref_trim(a), ref_trim(b)
    while b:
        a, b = b, ref_rem(a, b)
    return len(a) - 1


def ref_eval(a, x):
    return sum((c * x**i for i, c in enumerate(a)), Fraction(0))


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
coeff_lists = st.lists(rationals, max_size=6)
points = st.one_of(st.integers(-50, 50), rationals)


def assert_invariants(p):
    assert p.den > 0 and all(type(c) is int for c in p.nums)
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0


@settings(max_examples=200, deadline=None)
@given(coeff_lists, coeff_lists, st.integers(0, 3), st.integers(1, 3), points)
def test_qpoly_matches_fraction_list_reference(a, b, e, k, x):
    pa, pb = QPoly(a), QPoly(b)
    ra, rb = ref_trim(a), ref_trim(b)
    cases = [
        (pa, ra),
        (pa + pb, ref_add(ra, rb)),
        (pa - pb, ref_add(ra, [-c for c in rb])),
        (-pa, [-c for c in ra]),
        (pa * pb, ref_mul(ra, rb)),
        (pa**e, ref_pow(ra, e)),
        (pa.subs_power(k), ref_subs(ra, k)),
    ]
    for got, want in cases:
        assert_invariants(got)
        assert got.coeffs == tuple(want)
        assert [got[i] for i in range(len(want) + 2)] == want + [0, 0]
        assert got.evaluate(x) == ref_eval(want, Fraction(x))
        assert got == QPoly(want) and hash(got) == hash(QPoly(want))


@settings(max_examples=200, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists, points)
def test_symrat_is_canonical(a, b, c, x):
    num, den, common = QPoly(a), QPoly(b), QPoly(c)
    if den.is_zero():
        den = QPoly.one()
    f = SymRat(num, den)
    if not common.is_zero():
        assert SymRat(num * common, den * common) == f
    for p in (f.num, f.den):
        assert_invariants(p)
        assert p.den == 1
    assert math.gcd(*f.num.nums, *f.den.nums) == 1
    assert f.den.nums[-1] > 0
    assert ref_gcd_degree(list(f.num.coeffs), list(f.den.coeffs)) <= 0
    if den.evaluate(x) != 0:
        assert f.evaluate(x) == num.evaluate(x) / den.evaluate(x)


@settings(max_examples=200, deadline=None)
@given(coeff_lists)
def test_symrat_of_a_qpoly_prints_its_numerators_over_its_denominator(a):
    p = QPoly(a)
    assert str(SymRat(p)) == f"({QPoly(p.nums)})/({p.den})"


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        QPoly([0.5])
    with pytest.raises(TypeError):
        QPoly([1, 2]).evaluate(2.0)
    with pytest.raises(TypeError):
        SymRat(QPoly.one(), QPoly([1, 1])).evaluate(2.0)
    with pytest.raises(TypeError):
        QPoly([1]) + 0.5
