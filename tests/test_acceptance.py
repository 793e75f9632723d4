"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  A line reads ``[PASS]`` only if the criterion's checks held and it
finished inside its time gate; the gate is printed on the line.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Optional

import pytest

import ffcount.classes as fc
import ffcount.mv_counts as mc
import ffcount.oracle as orc
import ffcount.uv_counts as uc
import ffcount.uv_families as uf
from ffcount.ff import UniPoly, field_make
from ffcount.qrat import SymRat
from ffcount.series import divisors, moebius
from ffcount.uv_families import classify_p2

rng = random.Random(0xACCE97)


def _report(num: int, ok: bool, detail: str, start: float,
            gate: Optional[float]) -> None:
    """Print the criterion's line, then enforce its time gate (if any).

    The gate is checked before the line is printed, so ``[PASS]`` always
    means the checks held and the criterion finished in time.
    """
    elapsed = time.perf_counter() - start
    in_time = gate is None or elapsed < gate
    limit = "" if gate is None else f", gate {gate:g}s"
    status = "PASS" if ok and in_time else "FAIL"
    print(f"[{status}] criterion {num}: {detail} ({elapsed:.2f}s{limit})")
    assert in_time, f"criterion {num} took {elapsed:.2f}s, over its {gate:g}s gate"


@lru_cache(maxsize=None)
def census(n: int, q: int):
    from ffcount.series import factor_prime_power

    p, d = factor_prime_power(q)
    return orc.oracle_decomp_census(n, field_make(p, d))


def test_criterion_01_gauss_cross_check():
    start = time.perf_counter()
    for n in range(1, 11):
        for q in (2, 3, 4, 5, 7, 8, 9):
            gauss = Fraction(sum(moebius(d) * q ** (n // d) for d in divisors(n)), n)
            assert mc.irr_exact(1, n).evaluate(q) == gauss, (n, q)
    _report(1, True, "Gauss cross-check n<=10, 7 fields", start, gate=1.0)


def test_criterion_02_route_equivalence():
    start = time.perf_counter()
    for r in (1, 2, 3):
        for n in range(0, 9):
            assert mc.irr_exact(r, n, "composition_sum") == mc.irr_exact(
                r, n, "series_log"
            ), (r, n)
            for s in (2, 3):
                assert mc.powerful_exact(r, n, s, "composition_sum") == mc.powerful_exact(
                    r, n, s, "series_relation"
                ), (r, n, s)
    _report(2, True, "both routes identical for r<=3, n<=8, s in {2,3}", start, gate=30.0)


def test_criterion_03_oracle_equivalence_multivariate():
    start = time.perf_counter()
    F2 = field_make(2, 1)
    checks = [
        ("reducible", 2, 2, None),
        ("reducible", 2, 3, None),
        ("reducible", 2, 4, None),
        ("powerful", 2, 2, 2),
        ("powerful", 2, 4, 2),
        ("rel_irreducible", 2, 2, None),
        ("abs_irreducible", 2, 2, None),
        ("rel_irreducible", 2, 4, None),
    ]
    for cls, r, n, s in checks:
        formula = fc.exact_count(cls, r, n, s).evaluate(2)
        seen = fc.oracle_count(cls, r, n, F2, s=s)
        assert formula == seen, f"{cls}({r},{n}) formula {formula} != oracle {seen}"
    frozen = {
        ("reducible", 2, 2, None): 21,
        # Unique factorization: a reducible monic cubic is a product of three
        # monic linear factors (a multiset of 3 from the q^2 + q = 6 linear
        # ones) or a linear factor times one of the 35 irreducible monic
        # quadratics, so C(6 + 2, 3) + 6 * 35 = 56 + 210 = 266.
        ("reducible", 2, 3, None): 266,
        ("powerful", 2, 2, 2): 6,
        ("powerful", 2, 4, 2): 356,
        ("rel_irreducible", 2, 2, None): 7,
        ("abs_irreducible", 2, 2, None): 28,
    }
    # the cubic count again from the oracle's irreducible counts alone,
    # independently of the formula layer
    i1 = fc.oracle_count("irreducible", 2, 1, F2)
    i2 = fc.oracle_count("irreducible", 2, 2, F2)
    assert comb(i1 + 2, 3) + i1 * i2 == frozen[("reducible", 2, 3, None)], (i1, i2)
    mismatches = []
    for (cls, r, n, s), expected in frozen.items():
        seen = fc.oracle_count(cls, r, n, F2, s=s)
        if seen != expected:
            mismatches.append(f"{cls}({r},{n},q=2): stated {expected}, enumerated {seen}")
    ok = not mismatches
    _report(3, ok, "formula == oracle on all 8 queries, frozen constants enumerated"
            + ("" if ok else "; mismatched: " + "; ".join(mismatches)), start, gate=300.0)
    assert not mismatches, "frozen constants differ from enumeration: " + "; ".join(mismatches)


def test_criterion_04_error_degree_law():
    start = time.perf_counter()
    for n in (5, 6, 7):
        rep = mc.red_approx(2, n)
        err = (SymRat(rep.exact) - rep.main_term) / rep.main_term
        assert err.qdegree == -rep.gap_exponent, ("red", n)
    for n, s in ((6, 3), (8, 2)):
        rep = mc.powerful_approx(2, n, s)
        err = (SymRat(rep.exact) - rep.main_term) / rep.main_term
        assert err.qdegree == -rep.gap_exponent, ("powerful", n, s)
    for n in (4, 6, 8, 9):
        rep = mc.relirr_approx(2, n)
        err = (SymRat(rep.exact) - rep.main_term) / rep.main_term
        assert err.qdegree <= -rep.gap_exponent, ("relirr", n)
    _report(4, True, "error degrees match the gap exponents", start, gate=60.0)


def test_criterion_05_explicit_inequalities():
    start = time.perf_counter()
    qs = (2, 3, 4, 5, 8, 9)
    for r in (2, 3):
        for n in range(4, 9):
            rep = mc.red_approx(r, n)
            weak = mc.reducible_weak_bound(r, n)
            for q in qs:
                assert rep.bound_holds_at(q), ("red", r, n, q)
                diff = abs(rep.exact.evaluate(q) - rep.main_term.evaluate(q))
                assert diff <= rep.main_term.evaluate(q) * weak.evaluate(q)
        for n, s in ((6, 2), (7, 2), (8, 2)):
            rep = mc.powerful_approx(r, n, s)
            assert rep.rel_bound is not None
            for q in qs:
                assert rep.bound_holds_at(q), ("powerful", r, n, s, q)
        for n in (4, 6, 8):
            rep = mc.relirr_approx(r, n)
            for q in qs:
                assert rep.bound_holds_at(q), ("relirr", r, n, q)
    _report(5, True, "explicit bounds hold for r in {2,3}, n<=8, 6 fields", start, gate=60.0)


def test_criterion_06_degree4_exact_counts():
    start = time.perf_counter()
    for q in (2, 4, 8):
        expected = (2 * q * q + 1) // 3
        assert (2 * q * q + 1) % 3 == 0
        assert census(4, q).total == expected, q
    for q in (3, 5, 7):
        assert census(4, q).total == q * q, q
    _report(6, True, "degree-4 counts match both closed forms and censuses", start, gate=10.0)


def test_criterion_07_degree_p2_formula():
    start = time.perf_counter()
    cases = [(2, 1, 4, 3), (2, 2, 4, 11), (3, 1, 9, 69), (5, 1, 25, 389905)]
    for p, d, n, expected in cases:
        assert uc.d_p2_exact(p, d) == expected, (p, d)
        assert census(n, p**d).total == expected, (p, d)
    _report(7, True, "degree-p^2 formula equals all four censuses", start, gate=120.0)


def test_criterion_08_tame_intersections():
    start = time.perf_counter()
    cases = [(2, 3, 5, 25), (2, 4, 3, 27), (3, 4, 5, 45)]
    for ell, m, q, expected in cases:
        assert uc.tame_intersection(ell, m, q) == expected
        rep = census(ell * m, q)
        assert rep.pair_intersections[(ell, m)] == expected, (ell, m, q)
    _report(8, True, "tame intersection formula equals censuses", start, gate=120.0)


def test_criterion_09_inclusion_exclusion_degree6():
    start = time.perf_counter()
    rep = census(6, 5)
    assert rep.per_split == {2: 125, 3: 125}
    assert rep.pair_intersections[(2, 3)] == 25
    assert rep.total == 125 + 125 - 25 == 225
    bracket = uc.d_n_bracket(6, 5)
    assert bracket.case_label == "v"
    assert bracket.contains(rep.total)
    _report(9, True, "#D_6(F_5) = 225 inside 250(1 +/- 5^(-1/2))", start, gate=60.0)


def _fields_for_families():
    return [field_make(p, d) for p, d in
            [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2)]]


def _sample_ritt1(fields, count):
    done = 0
    while done < count:
        ctx = rng.choice(fields)
        ell = rng.choice([e for e in (2, 3, 5) if e % ctx.p])
        k = rng.randrange(1, ell)
        s = rng.randint(0, 3)
        if s == 0 and k == 1:
            continue
        w = UniPoly.from_codes(
            ctx, [rng.randrange(ctx.q) for _ in range(s)] + [1]
        )
        a = ctx.from_code(rng.randrange(ctx.q))
        try:
            fam = uf.ritt_family_first(ell, k, w, a)
        except ValueError:
            continue
        assert fam.verify()
        assert len(fam.decompositions) == 2
        done += 1


def _sample_ritt2(fields, count):
    done = 0
    pairs = [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (2, 7), (3, 7), (5, 6)]
    while done < count:
        ctx = rng.choice(fields)
        ok = [(l, m) for l, m in pairs if (l * m) % ctx.p]
        if not ok:
            continue
        ell, m = rng.choice(ok)
        z = ctx.from_code(rng.randrange(1, ctx.q))
        a = ctx.from_code(rng.randrange(ctx.q))
        fam = uf.ritt_family_second(ell, m, z, a)
        assert fam.verify()
        done += 1


def _sample_frobenius(fields, count):
    done = 0
    while done < count:
        ctx = rng.choice(fields)
        deg = rng.randint(2, 5)
        h = UniPoly.from_codes(
            ctx, [0] + [rng.randrange(ctx.q) for _ in range(deg - 1)] + [1]
        )
        try:
            fam = uf.frobenius_family(h)
        except ValueError:
            continue
        assert fam.verify()
        assert len(fam.decompositions) == 2
        done += 1


def _sample_s_family(fields, count):
    done = 0
    while done < count:
        ctx = rng.choice(fields)
        r = rng.choice([r for r in (ctx.p, ctx.p**2) if r * r <= 100 and r >= 2])
        m = rng.choice([m for m in range(1, r) if (r - 1) % m == 0])
        u = ctx.from_code(rng.randrange(1, ctx.q))
        s = ctx.from_code(rng.randrange(1, ctx.q))
        fam = uf.s_family(ctx, u, s, rng.choice((0, 1)), m, r)
        assert fam.verify()
        assert len(fam.decompositions) == len(fam.params["roots"])
        done += 1


def _sample_m_family(fields, count):
    done = 0
    while done < count:
        ctx = rng.choice(fields)
        options = []
        for r in (ctx.p, ctx.p**2, ctx.p**3):
            if r * r > 100:
                continue
            ms = [m for m in range(2, r - 1) if m % ctx.p]
            if ms:
                options.append((r, ms))
        if not options:
            continue
        r, ms = rng.choice(options)
        m = rng.choice(ms)
        b = ctx.from_code(rng.randrange(1, ctx.q))
        a = ctx.from_code(rng.randrange(1, ctx.q))
        if a.is_zero() or a == b**r:
            continue
        fam = uf.m_family(ctx, a, b, m, r)
        assert fam.verify()
        assert len(fam.decompositions) == 2
        swapped = uf.m_family(ctx, fam.params["a_star"], b, fam.params["m_star"], r)
        assert swapped.f == fam.f
        done += 1


def test_criterion_10_family_identities():
    start = time.perf_counter()
    fields = _fields_for_families()
    _sample_ritt1(fields, 100)
    _sample_ritt2(fields, 100)
    _sample_frobenius(fields, 100)
    _sample_s_family(fields, 100)
    _sample_m_family(fields, 100)
    _report(10, True, "500 randomized family constructions verified", start, gate=60.0)


def test_criterion_11_classification():
    start = time.perf_counter()
    for q, n in ((2, 4), (3, 9), (4, 4), (8, 4), (16, 4), (9, 9)):
        rep = census(n, q)
        ctx = field_make(*__import__("ffcount.series", fromlist=["factor_prime_power"]).factor_prime_power(q))
        for key, by_split in rep.details.items():
            total = sum(by_split.values())
            if total < 2:
                continue
            f = UniPoly.from_codes(ctx, list(key))
            label, info = classify_p2(f)
            assert label in ("F", "S", "M"), (q, key)
            if label == "S":
                assert info["t_count"] == total, (q, key)
            elif label == "M":
                assert total == 2, (q, key)
            else:
                assert total == 2, (q, key)
    for p, q in ((2, 2), (2, 4), (3, 3)):
        assert census(p * p, q).frobenius_collisions == q ** (p - 1) - 1, (p, q)
    _report(11, True, "every multi-decomposition f classified uniquely", start, gate=120.0)


def test_criterion_12_census_support_degree25():
    start = time.perf_counter()
    rep = census(25, 5)
    bad = [k for k in rep.collision_histogram if k not in (1, 2, 6)]
    assert not bad, bad
    _report(12, True, f"collision histogram supported on {{1,2,6}}: "
                      f"{rep.collision_histogram}", start, gate=None)


def test_criterion_13_mv_decomposable_bracket():
    start = time.perf_counter()
    F23 = field_make(23, 1)
    count = orc.oracle_mv_decomp(2, 4, F23)
    alpha = mc.mv_decomp_main_term(2, 4).evaluate(23)
    beta_sq = mc.mv_decomp_bound_sq(2, 4).evaluate(23)
    diff = count - alpha
    assert diff * diff <= alpha * alpha * beta_sq
    _report(13, True, f"oracle {count} within alpha(1 +/- beta), alpha = {alpha}",
            start, gate=180.0)


def test_criterion_14_wild_bounds():
    start = time.perf_counter()
    for ell, m in ((2, 4), (2, 6)):
        n = ell * m
        rep = census(n, 2)
        inter = rep.pair_intersections[(ell, m)]
        nonfrob = rep.pair_intersections_nonfrobenius[(ell, m)]
        bracket = uc.wild_intersection_bounds(ell, m, 2)
        assert bracket.upper >= nonfrob, (ell, m, nonfrob)
        assert bracket.lower <= nonfrob, (ell, m, nonfrob)
        assert inter >= nonfrob
    _report(14, True, "wild-case brackets contain the censuses", start, gate=120.0)


def test_criterion_15_modulus_independence():
    start = time.perf_counter()
    f8a = field_make(2, 3)
    f8b = field_make(2, 3, modulus=(1, 0, 1, 1))
    for cls, s in (
        ("reducible", None),
        ("irreducible", None),
        ("powerful", 2),
        ("powerfree", 2),
        ("rel_irreducible", None),
        ("abs_irreducible", None),
    ):
        a = fc.oracle_count(cls, 2, 2, f8a, s=s)
        b = fc.oracle_count(cls, 2, 2, f8b, s=s)
        assert a == b, (cls, a, b)
    assert fc.oracle_count("irreducible", 1, 4, f8a) == fc.oracle_count(
        "irreducible", 1, 4, f8b
    )
    ca = orc.oracle_decomp_census(4, f8a)
    cb = orc.oracle_decomp_census(4, f8b)
    assert ca.total == cb.total
    assert ca.collision_histogram == cb.collision_histogram
    assert ca.frobenius_collisions == cb.frobenius_collisions
    _report(15, True, "all F_8 counts identical under both cubic moduli", start, gate=60.0)
