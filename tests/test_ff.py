import itertools
import random

import pytest

from ffcount.ff import BudgetExceeded, UniPoly, count_monic, field_embed, field_make
from ffcount.mv_counts import p_count
from reference import MvPoly, enumerate_monic_mv, enumerate_monic_uni

rng = random.Random(0xF1E1D)

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)


def test_field_make_moduli():
    assert field_make(2, 1).modulus is None
    assert field_make(2, 2).modulus == (1, 1, 1)  # x^2+x+1
    assert field_make(3, 2).modulus == (1, 0, 1)  # x^2+1
    assert field_make(2, 3).modulus == (1, 1, 0, 1)  # x^3+x+1


def test_modulus_check_accepts_gauss_count_of_irreducibles():
    # the monic degree-d tails the check accepts number (1/d) sum_{e | d}
    # mu(e) p^(d/e), Gauss's count and the paper's exact count at r = 1
    from ffcount.ff import _is_irreducible_mod_p
    from ffcount.mv_counts import irr_exact

    for p in (2, 3, 5, 7):
        for d in range(1, 10):
            if p**d > 729:
                break
            tails = itertools.product(range(p), repeat=d)
            got = sum(_is_irreducible_mod_p(tail + (1,), p) for tail in tails)
            assert got == irr_exact(1, d, q=p), (p, d)


def test_field_make_rejects_composite_characteristic():
    with pytest.raises(ValueError, match="not prime"):
        field_make(6, 1)


def test_field_make_rejects_reducible_modulus():
    with pytest.raises(ValueError, match="reducible"):
        field_make(2, 2, modulus=(1, 0, 1))  # x^2+1 = (x+1)^2 over F2


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 1), (2, 4)])
def test_field_axioms_and_frobenius(p, d):
    ctx = field_make(p, d)
    els = list(ctx.elements())
    for a in els:
        assert a + ctx.zero == a
        assert a * ctx.one == a
        if not a.is_zero():
            assert a * a.inv() == ctx.one
    sample = els if ctx.q <= 9 else [ctx.from_code(rng.randrange(ctx.q)) for _ in range(8)]
    for a, b in itertools.product(sample, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) ** p == a**p + b**p  # Frobenius additivity
    for a, b, c in itertools.product(sample[:5], repeat=3):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c


def _log_tables_by_raw_mul(ctx):
    """``(exp, log)`` the slow way: the generator is the first code whose
    powers, one ``_raw_mul`` at a time, first return to 1 after q - 1 steps."""
    for gen in range(1, ctx.q):
        exp, x = [1], gen
        while x != 1:
            exp.append(x)
            x = ctx._raw_mul(x, gen)
        if len(exp) == ctx.q - 1:
            log = [0] * ctx.q
            for i, c in enumerate(exp):
                log[c] = i
            return tuple(exp), tuple(log)


def test_log_tables_match_repeated_multiplication():
    from ffcount.ff import FieldCtx
    from ffcount.series import factor_prime_power

    fields = []
    for q in range(2, 1025):
        try:
            fields.append(field_make(*factor_prime_power(q)))
        except ValueError:  # not a prime power
            pass
    # x^4+x^3+x^2+x+1 is irreducible, but x has order 5, so the generator is not x
    fields.append(FieldCtx(2, 4, (1, 1, 1, 1, 1)))
    assert len(fields) == 198 + 1  # 172 primes and 26 higher prime powers
    primes = [ctx for ctx in fields if ctx.d == 1]
    assert len(primes) == 172
    for ctx in primes:  # F_p is the integers mod p
        assert (ctx._exp, ctx._log, ctx._zech, ctx._neg) == (None,) * 4, ctx
    for ctx in fields:
        if ctx.d > 1:
            assert (ctx._exp, ctx._log) == _log_tables_by_raw_mul(ctx), ctx


@pytest.mark.parametrize("p", [2, 3, 257, 65521, 2**61 - 1])
def test_prime_fields_are_integers_mod_p_with_no_tables(p):
    from ffcount.ff import FieldCtx

    # 2^61 - 1 is far above the budget, so it is built directly
    ctx = field_make(p, 1) if p < 1 << 26 else FieldCtx(p, 1)
    assert (ctx._exp, ctx._log, ctx._zech, ctx._neg) == (None,) * 4
    for _ in range(200):
        a, b, e = rng.randrange(p), rng.randrange(1, p), rng.randrange(-p, p)
        assert ctx.add(a, b) == (a + b) % p
        assert ctx.sub(a, b) == (a - b) % p
        assert ctx.mul(a, b) == a * b % p
        assert ctx.inv(b) * b % p == 1
        assert ctx.pow(b, e) == pow(b, e, p)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


@pytest.mark.parametrize("p, d", [(3, 2), (5, 2), (3, 3), (7, 2), (5, 3)])
def test_zech_add_and_neg_match_digit_arithmetic(p, d):
    # odd characteristic extension fields add through Zech logarithms;
    # digitwise addition mod p is the reference, on every pair of codes
    ctx = field_make(p, d)
    digits = [ctx.digits(c) for c in range(ctx.q)]
    for a, da in enumerate(digits):
        assert ctx.neg(a) == ctx.encode(-x for x in da)
        for b, db in enumerate(digits):
            assert ctx.add(a, b) == ctx.encode(x + y for x, y in zip(da, db)), (a, b)


def test_embed_prime_subfield_is_identity_on_bits():
    F4_, table = field_embed(F2, 2)
    assert table[F2.zero.code] == 0
    assert table[F2.one.code] == 1


def test_embed_f4_into_f16_respects_modulus():
    F16, table = field_embed(F4, 2)
    g = F16.from_code(table[2])
    assert (g * g + g + F16.one).is_zero()


def test_embed_k1_is_identity():
    same, table = field_embed(F4, 1)
    assert same is F4
    assert table == tuple(range(F4.q))


@pytest.mark.parametrize("p,d,k", [(2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 3, 2), (5, 1, 2)])
def test_embed_is_a_homomorphism(p, d, k):
    base = field_make(p, d)
    ext, table = field_embed(base, k)
    for _ in range(40):
        a = rng.randrange(base.q)
        b = rng.randrange(base.q)
        assert table[base.add(a, b)] == ext.add(table[a], table[b])
        assert table[base.mul(a, b)] == ext.mul(table[a], table[b])
    # injectivity
    assert len(set(table)) == base.q


def test_embed_without_a_root_raises(monkeypatch):
    import ffcount.ff as ff

    # an extension too small to hold a root of F_4's modulus x^2+x+1
    monkeypatch.setattr(ff, "field_make", lambda p, d: F2)
    with pytest.raises(RuntimeError, match="no root in F_2"):
        ff.field_embed(F4, 3)


def test_upoly_compose():
    assert UniPoly(F2, [0, 0, 1])(UniPoly(F2, [0, 0, 1])) == UniPoly(F2, [0, 0, 0, 0, 1])
    h = UniPoly(F2, [0, 1, 1])
    assert h(h) == UniPoly(F2, [0, 1, 0, 0, 1])  # x^4+x in characteristic 2


def test_upoly_derivative_mod_p():
    f = UniPoly(F3, [0, 1, 0, 1])  # x^3+x
    assert f.derivative() == UniPoly(F3, [1])


def test_upoly_divrem_gcd():
    a = UniPoly(F3, [2, 0, 1]) * UniPoly(F3, [1, 1]) + UniPoly(F3, [1])
    q, r = a.divmod(UniPoly(F3, [2, 0, 1]))
    assert q == UniPoly(F3, [1, 1]) and r == UniPoly(F3, [1])
    with pytest.raises(ZeroDivisionError):
        a.divmod(UniPoly(F3, []))


def test_upoly_field_mismatch():
    with pytest.raises(ValueError, match="field mismatch"):
        UniPoly(F2, [1, 1]) + UniPoly(F3, [1, 1])


def test_mvpoly_leading_monomial_deglex():
    x = MvPoly.variable(F2, 2, 0)
    y = MvPoly.variable(F2, 2, 1)
    f = x * x + x * y + y
    assert f.leading_monomial() == (2, 0)
    assert f.is_monic()
    assert (x * y + y * y).leading_monomial() == (1, 1)


def test_mvpoly_char2_square():
    x = MvPoly.variable(F2, 2, 0)
    y = MvPoly.variable(F2, 2, 1)
    assert (x + y) * (x + y) == x * x + y * y


def test_mvpoly_monic_flag():
    x = MvPoly.variable(F3, 2, 0)
    y = MvPoly.variable(F3, 2, 1)
    assert not (x * x * 2 + y).is_monic()
    assert (x * x + 2 * y).is_monic()


def test_mvpoly_product_of_leading_terms():
    for _ in range(40):
        f = _rand_mv(F3, 2, rng.randint(1, 3))
        g = _rand_mv(F3, 2, rng.randint(1, 3))
        lead = tuple(a + b for a, b in zip(f.leading_monomial(), g.leading_monomial()))
        assert (f * g).leading_monomial() == lead
        if f.is_monic() and g.is_monic():
            assert (f * g).is_monic()


def _rand_mv(ctx, r, n):
    while True:
        terms = {}
        for exp in itertools.product(range(n + 1), repeat=r):
            if sum(exp) <= n and rng.random() < 0.5:
                terms[exp] = rng.randrange(ctx.q)
        poly = MvPoly.from_code_terms(ctx, r, {e: c for e, c in terms.items() if c})
        if poly.total_degree() == n:
            return poly


def test_enumerate_uni_counts():
    assert sum(1 for _ in enumerate_monic_uni(F2, 3)) == 8
    assert sum(1 for _ in enumerate_monic_uni(F2, 3, original=True)) == 4
    assert sum(1 for _ in enumerate_monic_uni(F3, 0)) == 1
    assert sum(1 for _ in enumerate_monic_uni(F3, 0, original=True)) == 0


@pytest.mark.parametrize(
    "r,n,q",
    [(1, 3, 2), (1, 4, 3), (2, 1, 2), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 2, 4), (3, 2, 3), (2, 3, 3)],
)
def test_enumerate_mv_matches_closed_form(r, n, q):
    ctx = field_make(*_pq(q))
    polys = list(enumerate_monic_mv(ctx, r, n))
    assert len(polys) == p_count(r, n).evaluate(q)
    assert len(polys) == count_monic(q, r, n)
    assert len({f.key() for f in polys}) == len(polys)
    assert all(f.is_monic() and f.total_degree() == n for f in polys)


def _pq(q):
    from ffcount.series import factor_prime_power

    return factor_prime_power(q)


def test_enumerate_mv_original():
    got = sum(1 for _ in enumerate_monic_mv(F2, 2, 2, original=True))
    assert got == count_monic(2, 2, 2, original=True)
    assert got == 28  # half of the 56 monic ones have zero constant term


def test_enumeration_budget_error_names_required_count(monkeypatch):
    monkeypatch.setenv("FFCOUNT_BUDGET", "1000")
    with pytest.raises(BudgetExceeded) as exc:
        list(enumerate_monic_mv(F3, 3, 4))
    assert exc.value.required > 1000
    assert "budget" in str(exc.value)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("FFCOUNT_BUDGET", "3")
    with pytest.raises(BudgetExceeded):
        list(enumerate_monic_uni(F2, 3))


def _horner(outer, inner):
    ctx = outer.ctx
    out = UniPoly.from_codes(ctx, ())
    for code in reversed(outer.c):
        out = out * inner + UniPoly.from_codes(ctx, (code,))
    return out


def test_compose_and_pow_shortcuts_match_horner():
    # a monomial inner spreads exponents, a monomial outer is one power, and
    # f^(p k) = phi(f^k)(x^p); each against Horner's rule and repeated products
    for ctx in (F2, field_make(3, 1), field_make(2, 2), field_make(3, 2), field_make(5, 1), field_make(7, 1)):
        q = ctx.q
        for _ in range(60):
            f = UniPoly.from_codes(ctx, [rng.randrange(q) for _ in range(rng.randrange(0, 5))])
            mono = UniPoly.from_codes(ctx, [0] * rng.randrange(0, 4) + [rng.randrange(1, q)])
            h = UniPoly.from_codes(ctx, [rng.randrange(q) for _ in range(rng.randrange(0, 4))])
            assert f.compose(mono) == _horner(f, mono), (f, mono)
            assert mono.compose(h) == _horner(mono, h), (mono, h)
            e = rng.randrange(0, 3 * ctx.p + 1)
            power = UniPoly.const(ctx, 1)
            for _ in range(e):
                power = power * f
            assert f**e == power, (f, e)
