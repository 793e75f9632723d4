import pytest

import ffcount.classes as fc
import ffcount.mv_counts as mc
import ffcount.oracle as orc
from ffcount.ff import BudgetExceeded, enumerate_monic_uni, field_make
from ffcount.series import divisors

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F5 = field_make(5, 1)


def test_mv_counts_small_field():
    assert fc.oracle_count("reducible", 2, 2, F2) == 21
    assert fc.oracle_count("irreducible", 2, 2, F2) == 35
    assert fc.oracle_count("powerful", 2, 2, F2, s=2) == 6
    assert fc.oracle_count("powerfree", 2, 2, F2, s=2) == 50
    assert fc.oracle_count("rel_irreducible", 2, 2, F2) == 7
    assert fc.oracle_count("abs_irreducible", 2, 2, F2) == 28


def test_reducible_cubics_settle_the_degree3_count():
    # unique factorization: C(8,3) linear triples + 6*35 linear-times-quadratic
    assert fc.oracle_count("reducible", 2, 3, F2) == 266


def test_oracle_matches_formulas_on_a_grid():
    for r, n, ctx in [(1, 4, F2), (1, 4, F3), (2, 2, F3), (2, 3, F2), (1, 6, F2)]:
        q = ctx.q
        assert fc.oracle_count("reducible", r, n, ctx) == mc.red_exact(r, n).evaluate(q)
        assert fc.oracle_count("irreducible", r, n, ctx) == mc.irr_exact(r, n).evaluate(q)
        assert fc.oracle_count("powerful", r, n, ctx, s=2) == mc.powerful_exact(
            r, n, 2
        ).evaluate(q)
    assert fc.oracle_count("rel_irreducible", 1, 2, F2) == mc.relirr_exact(1, 2).evaluate(2)
    assert fc.oracle_count("rel_irreducible", 2, 2, F3) == mc.relirr_exact(2, 2).evaluate(3)


def test_census_degree4_binary():
    rep = orc.oracle_decomp_census(4, F2)
    assert rep.total == 3
    assert rep.collision_histogram == {1: 2, 2: 1}
    assert rep.frobenius_members == 2  # x^4 and x^4+x^2
    assert rep.frobenius_collisions == 1
    assert rep.per_split == {2: 3}


def test_census_degree6_f5():
    rep = orc.oracle_decomp_census(6, F5)
    assert rep.total == 225
    assert rep.per_split == {2: 125, 3: 125}
    assert rep.pair_intersections == {(2, 3): 25}
    # inclusion-exclusion with two splits
    assert rep.total == 125 + 125 - 25
    assert rep.frobenius_members == 0  # p does not divide n


def test_census_inclusion_exclusion_three_splits():
    rep = orc.oracle_decomp_census(12, F2)
    splits = sorted(rep.per_split)
    import itertools

    total = 0
    for k in range(1, len(splits) + 1):
        for combo in itertools.combinations(splits, k):
            covered = sum(
                v for prof, v in rep.split_profiles.items() if set(combo) <= set(prof)
            )
            total += (-1) ** (k + 1) * covered
    assert total == rep.total
    # pairwise-intersection table agrees with the profile histogram
    for (a, b), v in rep.pair_intersections.items():
        from_profiles = sum(
            cnt for prof, cnt in rep.split_profiles.items() if a in prof and b in prof
        )
        assert v == from_profiles


def test_census_frobenius_counts():
    assert orc.oracle_decomp_census(4, F4).frobenius_collisions == 3
    assert orc.oracle_decomp_census(9, F3).frobenius_collisions == 8
    rep8 = orc.oracle_decomp_census(8, F2)
    assert rep8.frobenius_members == 8  # q^(n/p - 1) at n = 8


def test_census_python_numpy_agree():
    fmap_py: dict = {}
    orc._census_pairs_python(F5, 6, 2, fmap_py)
    fmap_np: dict = {}
    orc._census_pairs_numpy(5, 6, 2, fmap_np)
    assert fmap_py == fmap_np
    fmap_py = {}
    orc._census_pairs_python(F3, 9, 3, fmap_py)
    fmap_np = {}
    orc._census_pairs_numpy(3, 9, 3, fmap_np)
    assert fmap_py == fmap_np


def _census_pairs_by_compose(ctx, n, e, fmap):
    for g in enumerate_monic_uni(ctx, e, original=True):
        for h in enumerate_monic_uni(ctx, n // e, original=True):
            slot = fmap.setdefault(bytes(g.compose(h).c), {})
            slot[e] = slot.get(e, 0) + 1


@pytest.mark.parametrize("p, d, n", [(5, 1, 6), (2, 1, 8), (2, 1, 12), (2, 3, 6), (3, 2, 6)])
def test_census_pairs_python_matches_compose(p, d, n):
    # same keys, same counts and the same insertion order as g(h) by Horner
    ctx = field_make(p, d)
    got: dict = {}
    want: dict = {}
    for e in divisors(n):
        if 1 < e < n:
            orc._census_pairs_python(ctx, n, e, got)
            _census_pairs_by_compose(ctx, n, e, want)
    assert list(got.items()) == list(want.items())


def test_mv_decomp_paths_agree():
    assert orc._mv_decomp_python(2, 4, F3, 1 << 26) == orc._mv_decomp_numpy(
        2, 4, F3, 1 << 26
    )
    assert orc._mv_decomp_python(2, 6, F2, 1 << 26) == orc._mv_decomp_numpy(
        2, 6, F2, 1 << 26
    )


def test_mv_decomp_numpy_dedups_across_splits():
    # the e = 2 and e = 4 images overlap, so equal rows land in different chunks
    f7 = field_make(7, 1)
    assert orc._mv_decomp_numpy(2, 4, f7, 1 << 26) == 21903
    assert orc._mv_decomp_python(2, 4, f7, 1 << 26) == 21903


def test_mv_decomp_prime_degree_uses_linear_h():
    # only the (deg g, deg h) = (n, 1) split exists at prime n
    got = orc.oracle_mv_decomp(2, 3, F2)
    assert got == orc._mv_decomp_python(2, 3, F2, 1 << 26)
    assert got > 0


def test_modulus_independence_f8():
    f8a = field_make(2, 3)  # x^3 + x + 1
    f8b = field_make(2, 3, modulus=(1, 0, 1, 1))  # x^3 + x^2 + 1
    assert f8a.modulus != f8b.modulus
    for cls, s in [("reducible", None), ("irreducible", None), ("powerful", 2)]:
        assert fc.oracle_count(cls, 2, 2, f8a, s=s) == fc.oracle_count(
            cls, 2, 2, f8b, s=s
        )
    assert orc.oracle_decomp_census(4, f8a).total == orc.oracle_decomp_census(4, f8b).total


def test_budget_errors_are_loud():
    with pytest.raises(BudgetExceeded) as exc:
        orc.oracle_decomp_census(25, F5, budget=1000)
    assert exc.value.required == 390625
    with pytest.raises(BudgetExceeded):
        orc.oracle_mv_decomp(2, 4, field_make(23, 1), budget=100)


def test_per_split_counts_respect_the_composition_bound():
    # #D_{n,e} <= q^(e + n/e - 2): at most one pair (g, h) per count
    for n, ctx in [(4, F2), (6, F5), (8, F2), (9, F3), (12, F2)]:
        rep = orc.oracle_decomp_census(n, ctx)
        for e, count in rep.per_split.items():
            assert count <= ctx.q ** (e + n // e - 2), (n, ctx.q, e)


def test_nu_degree4_accumulation_values():
    import ffcount.uv_counts as uc

    # odd characteristic: tame uniqueness makes every pair distinct
    for q in (3, 5, 7):
        ctx = field_make(q, 1)
        total = orc.oracle_decomp_census(4, ctx).total
        assert uc.nu(4, q, exact=total) == 1
    # characteristic 2 approaches 2/3 from above
    for q in (2, 4, 8):
        from fractions import Fraction

        assert uc.nu(4, q) == (2 + Fraction(1, q * q)) / 3


def test_mv_decomp_paths_agree_above_one_byte():
    # q = 257 coefficients do not fit in uint8
    f257 = field_make(257, 1)
    want = 257 * 258  # every monic original quadratic decomposes: q(q+1)
    assert orc._mv_decomp_numpy(2, 2, f257, 1 << 26) == want
    assert orc._mv_decomp_python(2, 2, f257, 1 << 26) == want
