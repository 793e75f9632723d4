import bisect
import itertools
import os
import random
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

import ffcount.classes as fc
import ffcount.mv_counts as mc
import ffcount.oracle as orc
import ffcount.uv_counts as uc
from ffcount.ff import BudgetExceeded, _deglex_monomials, count_monic, field_embed, field_make
from ffcount.series import divisors, factor_prime_power, smallest_prime_factor
from reference import MvPoly, enumerate_monic_mv, enumerate_monic_uni

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


# -- the MvPoly reference for the multivariate class counts ---------------
#
# Witnesses one at a time by MvPoly arithmetic, deduplicated in frozensets of
# MvPoly keys, class by class as the oracle defined them before it moved onto
# code arrays and packed keys.


@lru_cache(maxsize=None)
def _ref_all_keys(ctx, r, n):
    return frozenset(f.key() for f in enumerate_monic_mv(ctx, r, n))


@lru_cache(maxsize=None)
def _ref_reducible_keys(ctx, r, n):
    keys = set()
    for d in range(1, n // 2 + 1):
        gs = list(enumerate_monic_mv(ctx, r, d))
        hs = gs if d == n - d else list(enumerate_monic_mv(ctx, r, n - d))
        for i, g in enumerate(gs):
            for h in hs[i:] if d == n - d else hs:
                keys.add((g * h).key())
    return frozenset(keys)


@lru_cache(maxsize=None)
def _ref_powerful_keys(ctx, r, n, s):
    keys = set()
    for a in range(1, n // s + 1):
        for g in enumerate_monic_mv(ctx, r, a):
            g_s = g**s
            for h in enumerate_monic_mv(ctx, r, n - a * s):
                keys.add((g_s * h).key())
    return frozenset(keys)


@lru_cache(maxsize=None)
def _ref_irreducible_keys(ctx, r, n):
    if n < 1:
        return frozenset()
    return _ref_all_keys(ctx, r, n) - _ref_reducible_keys(ctx, r, n)


@lru_cache(maxsize=None)
def _ref_rel_irreducible_keys(ctx, r, n):
    if n < 1:
        return frozenset()
    irred = _ref_irreducible_keys(ctx, r, n)
    found = set()
    for t in divisors(n):
        if t == 1 or smallest_prime_factor(t) != t:
            continue
        ext, table = field_embed(ctx, t)
        inverse = {image: code for code, image in enumerate(table)}
        for u in enumerate_monic_mv(ext, r, n // t):
            prod = conj = u
            for _ in range(t - 1):
                conj = conj.map_coeffs(lambda c: ext.pow(c, ctx.q))
                prod = prod * conj
            if not all(c in inverse for c in prod.terms.values()):
                continue  # the product leaves the subfield
            key = tuple(sorted((e, inverse[c]) for e, c in prod.terms.items()))
            if key in irred:
                found.add(key)
    return frozenset(found)


def _reference_count(cls, r, n, ctx, s=None):
    irreducible = lambda: len(_ref_irreducible_keys(ctx, r, n))  # noqa: E731
    return {
        "reducible": lambda: 1 if n == 0 else len(_ref_reducible_keys(ctx, r, n)),
        "irreducible": irreducible,
        "powerful": lambda: len(_ref_powerful_keys(ctx, r, n, s)),
        "powerfree": lambda: (1 if n == 0 else len(_ref_all_keys(ctx, r, n)))
        - len(_ref_powerful_keys(ctx, r, n, s)),
        "rel_irreducible": lambda: len(_ref_rel_irreducible_keys(ctx, r, n)),
        "abs_irreducible": lambda: irreducible() - len(_ref_rel_irreducible_keys(ctx, r, n)),
    }[cls]()


def _reference_work(q, r, n):
    """Polynomials the reference enumerates or multiplies for every class at
    (q, r, n) and s in {2, 3}."""
    work = count_monic(q, r, n)
    for d in range(1, n // 2 + 1):
        work += count_monic(q, r, d) * count_monic(q, r, n - d)
    for s in (2, 3):
        work += sum(count_monic(q, r, a) * count_monic(q, r, n - a * s) for a in range(1, n // s + 1))
    t_primes = [t for t in range(2, n + 1) if n % t == 0 and smallest_prime_factor(t) == t]
    return work + sum(t * count_monic(q**t, r, n // t) for t in t_primes)


_CLASS_CASES = [("reducible", None), ("irreducible", None), ("powerful", 2), ("powerful", 3),
                ("powerfree", 2), ("powerfree", 3), ("rel_irreducible", None), ("abs_irreducible", None)]
# r in {1, 2, 3}, n <= 4 and q in {2, 3, 4, 5, 8, 9} wherever the reference
# handles at most 10^5 polynomials (65 of the 90 points, about 2 s)
_MV_GRID = [(r, n, q) for r in (1, 2, 3) for n in range(5) for q in (2, 3, 4, 5, 8, 9)
            if _reference_work(q, r, n) <= 10**5]


@pytest.mark.parametrize("r, n, q", _MV_GRID)
def test_class_counts_match_the_mvpoly_reference(r, n, q):
    ctx = field_make(*factor_prime_power(q))
    for cls, s in _CLASS_CASES:
        assert fc.oracle_count(cls, r, n, ctx, s) == _reference_count(cls, r, n, ctx, s), (cls, s)


@pytest.fixture
def uncached_key_builders():
    # keys built under a patched block size or word width stay out of the
    # caches other tests read
    builders = (orc._reducible_keys, orc._powerful_keys, orc._rel_irreducible_keys)
    for builder in builders:
        builder.cache_clear()
    yield
    for builder in builders:
        builder.cache_clear()


@pytest.mark.parametrize("r, n, q", [(2, 4, 2), (2, 2, 9), (3, 2, 3), (1, 4, 4), (2, 3, 3)])
def test_class_counts_across_block_seams_and_words(r, n, q, monkeypatch, uncached_key_builders):
    # 7 products per block cuts the pair lists, the triangle of equal-degree
    # factors and the conjugate products unevenly; three digits per word
    # spread every key over several uint64 words
    monkeypatch.setattr(orc, "_CHUNK_ROWS", 7)
    monkeypatch.setattr(orc, "_digits_per_word", lambda q: 3)
    ctx = field_make(*factor_prime_power(q))
    for cls, s in _CLASS_CASES:
        assert fc.oracle_count(cls, r, n, ctx, s) == _reference_count(cls, r, n, ctx, s), (cls, s)


def _slot_codes(mv_keys, r, n):
    """MvPoly keys as tuples of codes over ``_deglex_monomials(r, n)``."""
    slot = {m: i for i, m in enumerate(_deglex_monomials(r, n))}
    rows = set()
    for key in mv_keys:
        row = [0] * len(slot)
        for exp, code in key:
            row[slot[exp]] = code
        rows.add(tuple(row))
    return rows


@pytest.mark.parametrize("r, n, q", [(2, 4, 2), (3, 2, 3), (2, 2, 9), (1, 4, 5)])
def test_key_builders_hold_their_class(r, n, q):
    # the bench's trace counts len() of each builder's cached result as the
    # distinct polynomials it found, so the keys must be exactly the class
    ctx = field_make(*factor_prime_power(q))
    width = len(_deglex_monomials(r, n))
    for builder, cls, s, ref in [
        (orc._reducible_keys, "reducible", None, _ref_reducible_keys(ctx, r, n)),
        (orc._powerful_keys, "powerful", 2, _ref_powerful_keys(ctx, r, n, 2)),
        (orc._rel_irreducible_keys, "rel_irreducible", None, _ref_rel_irreducible_keys(ctx, r, n)),
    ]:
        keys = builder(ctx, r, n, *([s] if s else []))
        assert len(keys) == fc.oracle_count(cls, r, n, ctx, s) == len(ref)
        assert not keys.flags.writeable
        codes = orc._unpack(np.ascontiguousarray(keys.T), q, width).T.tolist()
        assert len(set(map(tuple, codes))) == len(codes)
        assert set(map(tuple, codes)) == _slot_codes(ref, r, n)


def test_field_tables_are_budgeted_before_they_are_built(monkeypatch):
    def unbuilt(ctx):
        raise AssertionError("q x q tables built before the budget check")

    monkeypatch.setattr(orc, "_field_ops", unbuilt)
    monkeypatch.setenv("FFCOUNT_BUDGET", str(10**5))
    with pytest.raises(BudgetExceeded, match="1048576") as exc:
        orc.oracle_mv_decomp(1, 2, field_make(2, 10))
    assert exc.value.required == 1024**2
    # 4096 table entries over F_64 against at most 2080 products
    monkeypatch.setenv("FFCOUNT_BUDGET", "3000")
    for cls, ctx, s in [("reducible", field_make(2, 6), None), ("powerful", field_make(2, 6), 2),
                        ("rel_irreducible", field_make(2, 3), None)]:
        with pytest.raises(BudgetExceeded, match="F_64") as exc:
            fc.oracle_count(cls, 1, 2, ctx, s)
        assert exc.value.required == 4096


@pytest.mark.parametrize("cls", ["rel_irreducible", "abs_irreducible"])
def test_extension_fields_are_budgeted_before_they_are_built(cls, monkeypatch):
    # F_65536 needs 2^32 table entries: nothing may be built before that shows
    import ffcount.ff as ff

    monkeypatch.delenv("FFCOUNT_BUDGET", raising=False)
    ctx = field_make(2, 8)

    def unbuilt(*args, **kwargs):
        raise AssertionError("built before the budget check")

    for module, name in [(orc, "field_embed"), (ff, "field_make"), (orc, "_field_ops"), (orc, "_monic_rows")]:
        monkeypatch.setattr(module, name, unbuilt)
    with pytest.raises(BudgetExceeded, match="F_65536") as exc:
        fc.oracle_count(cls, 1, 2, ctx)
    assert exc.value.required == 65536**2


def test_each_class_reports_its_first_overrun(monkeypatch):
    # over F_2 at r = n = 2: 21 reducible products, 20 conjugate factors over
    # F_4; abs_irreducible checks first what irreducible does.  The builders
    # run uncached, so earlier tests cannot answer from the cache.
    for name in ("_reducible_keys", "_rel_irreducible_keys"):
        monkeypatch.setattr(orc, name, getattr(orc, name).__wrapped__)
    monkeypatch.setenv("FFCOUNT_BUDGET", "10")
    for cls, what, required in [("irreducible", "reducible witness products", 21),
                                ("rel_irreducible", "conjugate factors over F_4", 20),
                                ("abs_irreducible", "reducible witness products", 21)]:
        with pytest.raises(BudgetExceeded, match=what) as exc:
            fc.oracle_count(cls, 2, 2, F2)
        assert exc.value.required == required


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
    # each F(x^p) is F composed with x^p, so all q^(n/p - 1) of them are
    # members wherever p | n and n > p, and none are where p does not divide n
    for n, q in [(4, 2), (6, 2), (6, 3), (8, 4), (9, 3), (12, 2), (12, 3), (12, 4), (25, 5), (6, 5), (8, 3)]:
        ctx = field_make(*factor_prime_power(q))
        want = q ** (n // ctx.p - 1) if n % ctx.p == 0 else 0
        assert orc.oracle_decomp_census(n, ctx).frobenius_members == want, (n, q)


@lru_cache(maxsize=None)
def _census_pairs_by_compose(ctx, n, e):
    """Every g(h) with deg g = e by UniPoly.compose, as n + 1 codes, g outer
    and h inner."""
    gs = list(enumerate_monic_uni(ctx, e, original=True))
    hs = list(enumerate_monic_uni(ctx, n // e, original=True))
    return [tuple(g.compose(h).c) for g in gs for h in hs]


def _composed_rows(ctx, r, n, e):
    """``_compositions``' rows as {rank: codes over ``_deglex_monomials(r,
    n)``}, each slot copied before the next is drawn."""
    rows = {}
    for codes, h_rank, g_rank in orc._compositions(ctx, r, n, e, range(len(_deglex_monomials(r, n)))):
        block = np.array([slot.copy() for slot in codes])
        rank = np.add.outer(h_rank, g_rank).ravel()
        rows.update(zip(rank.tolist(), map(tuple, block.reshape(len(block), -1).T.tolist())))
    return rows


@pytest.mark.parametrize(
    "p, d, n", [(5, 1, 6), (2, 1, 8), (2, 1, 12), (2, 3, 6), (3, 2, 6), (2, 2, 8), (3, 1, 9)]
)
def test_census_pairs_python_matches_compose(p, d, n, monkeypatch):
    # the univariate compositions (r = 1) are the same rows as g(h) by
    # Horner, and each block's ranks put them in g outer order; a small block
    # size puts seams inside and across the g tails
    monkeypatch.setattr(orc, "_CHUNK_ROWS", 7)
    ctx = field_make(p, d)
    for e in divisors(n):
        if 1 < e < n:
            # slots run from x^n down to the constant
            rows = {rank: row[::-1] for rank, row in _composed_rows(ctx, 1, n, e).items()}
            assert [rows[i] for i in range(len(rows))] == _census_pairs_by_compose(ctx, n, e)


# 5 pairs per block is fewer than the q^(e-1) g's of the largest split, so
# blocks cut the g range there and the h range elsewhere.
@pytest.mark.parametrize("r, n, p, d", [(2, 4, 3, 1), (2, 4, 2, 2), (2, 6, 2, 1), (3, 4, 2, 1), (3, 2, 5, 1)])
def test_mv_compositions_match_mvpoly(r, n, p, d, monkeypatch):
    # the r-variate compositions are g(h) by MvPoly arithmetic, each pair
    # at rank g * n_h + h: g in enumerate_monic_uni order, h in the order
    # of _monic_rows, whose h's are enumerate_monic_mv's
    monkeypatch.setattr(orc, "_CHUNK_ROWS", 5)
    ctx = field_make(p, d)

    def codes(poly, degree):
        slot = {m: i for i, m in enumerate(_deglex_monomials(r, degree))}
        row = [0] * len(slot)
        for exp, code in poly.terms.items():
            row[slot[exp]] = code
        return tuple(row)

    for e in divisors(n):
        if e > 1:
            hs = list(map(tuple, orc._monic_rows(ctx.q, r, n // e, original=True).T.tolist()))
            ref = {codes(h, n // e): h for h in enumerate_monic_mv(ctx, r, n // e, original=True)}
            assert sorted(hs) == sorted(ref)
            want = {}
            for g_at, g in enumerate(enumerate_monic_uni(ctx, e, original=True)):
                for h_at, h in enumerate(map(ref.get, hs)):
                    f = sum((h**i * g.coeff(i) for i in range(1, e)), h**e)
                    want[g_at * len(hs) + h_at] = codes(f, n)
            assert _composed_rows(ctx, r, n, e) == want


@lru_cache(maxsize=None)
def _g_of_h_by_mvpoly(ctx, r, n, e):
    """g(h) by MvPoly arithmetic for every g in enumerate_monic_uni order and
    every h in the order of _monic_rows, as {(g, h): {monomial: code}}."""
    h_monos = _deglex_monomials(r, n // e)
    out = {}
    for h_at, codes in enumerate(orc._monic_rows(ctx.q, r, n // e, original=True).T.tolist()):
        h = MvPoly.from_code_terms(ctx, r, dict(zip(h_monos, codes)))
        powers = [h]
        for _ in range(1, e):
            powers.append(powers[-1] * h)
        for g_at, g in enumerate(enumerate_monic_uni(ctx, e, original=True)):
            f = sum((powers[i - 1] * g.coeff(i) for i in range(1, e)), powers[-1])
            out[g_at, h_at] = f.terms
    return out


# Every slot is checked as it is drawn, before the next may overwrite it, in
# the slot orders the census and the multivariate count draw (a part of the
# slots, low degree first, and all but the constant, high degree first) and
# in both orders over all slots.  Blocks of 7 pairs cut the pairs unevenly;
# scratch of one code composes one slot at a time, as full blocks do, and of
# 20 codes two slots at a time at 7 pairs a block; by default a small block
# composes all its slots at once.
@pytest.mark.parametrize("chunk, slot_codes", [(None, None), (7, None), (None, 1), (7, 20)])
@pytest.mark.parametrize("r, n, q", [(1, 4, 7), (1, 6, 4), (2, 2, 7), (2, 4, 4)])
def test_composer_yields_every_slot_of_g_of_h(r, n, q, chunk, slot_codes, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(orc, "_CHUNK_ROWS", chunk)
    if slot_codes is not None:
        monkeypatch.setattr(orc, "_SLOT_CODES", slot_codes)
    ctx = field_make(*factor_prime_power(q))
    monos = _deglex_monomials(r, n)
    width = len(monos)
    orders = [range(width - 2, 0, -1), range(width - 1), range(width), range(width - 1, -1, -1)]
    for e in divisors(n):
        if e > 1:
            want = _g_of_h_by_mvpoly(ctx, r, n, e)
            n_h = count_monic(q, r, n // e, original=True)
            for slots in orders:
                pairs = 0
                for codes, h_rank, g_rank in orc._compositions(ctx, r, n, e, slots):
                    drawn = 0
                    for s, slot in zip(slots, codes):
                        assert slot.tolist() == [
                            [want[g // n_h, h].get(monos[s], 0) for g in g_rank.tolist()] for h in h_rank.tolist()
                        ]
                        drawn += 1
                    assert drawn == len(slots)
                    pairs += len(h_rank) * len(g_rank)
                assert pairs == len(want)


@pytest.mark.parametrize("chunk", [0, 5, 7, 64])
@pytest.mark.parametrize("r, n, q", [(1, 12, 2), (1, 8, 3), (2, 4, 3), (2, 6, 2), (3, 4, 2)])
def test_composition_blocks_hold_at_most_chunk_rows_pairs(r, n, q, chunk, monkeypatch):
    # the g's of the largest split outnumber blocks of 0, 5 and 7 pairs,
    # and of 64 at r = 1, so the blocks slice them; each pair comes once
    monkeypatch.setattr(orc, "_CHUNK_ROWS", chunk)
    ctx = field_make(*factor_prime_power(q))
    for e in divisors(n):
        if e > 1:
            ranks = []
            width = len(_deglex_monomials(r, n))
            for codes, h_rank, g_rank in orc._compositions(ctx, r, n, e, range(width)):
                shape = (len(h_rank), len(g_rank))
                assert len(h_rank) * len(g_rank) <= max(1, chunk)
                assert [slot.shape for slot in codes] == [shape] * width
                ranks.extend(np.add.outer(h_rank, g_rank).ravel().tolist())
            assert sorted(ranks) == list(range(q ** (e - 1) * count_monic(q, r, n // e, original=True)))


def test_field_ops_match_field_arithmetic():
    extension = [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (2, 4)]
    for p, d in extension + [(p, 1) for p in (2, 3, 5, 13, 17, 251, 257)]:
        ctx = field_make(p, d)
        add, mul, mod = orc._field_ops(ctx)
        # the flat tables' index a * q + b overflows uint8 operands unless
        # they are cast first
        for dtype in [orc._code_dtype(ctx, 1)] + ([np.uint8] if d > 1 else []):
            codes = np.arange(ctx.q, dtype=dtype)
            a, b = np.meshgrid(codes, codes, indexing="ij")
            codes = range(ctx.q)
            assert mod(mul(a, b), 1).tolist() == [[ctx.mul(x, y) for y in codes] for x in codes]
            # add works in place, so it comes last
            assert mod(add(a, b), 1).tolist() == [[ctx.add(x, y) for y in codes] for x in codes]


# Bounds terms * (p - 1)^2 + p - 1 on both sides of 255 and 65535, reduced by
# subtraction (at most six steps) or by np.remainder (more).
@pytest.mark.parametrize("p, terms, dtype, steps", [
    (7, 6, np.uint8, 5),  # 222
    (5, 15, np.uint8, 6),  # 244
    (2, 254, np.uint8, 7),  # 255
    (7, 7, np.uint16, 6),  # 258
    (5, 16, np.uint16, 6),  # 260
    (17, 1, np.uint16, 5),  # 272
    (13, 3, np.uint16, 6),  # 444
    (251, 1, np.uint16, 8),  # 62750
    (251, 2, np.uint32, 9),  # 125250
    (257, 1, np.uint32, 9),  # 65792
])
def test_prime_field_mod_reduces_every_sum_up_to_its_bound(p, terms, dtype, steps):
    ctx = field_make(p, 1)
    bound = orc._code_bound(p, terms)
    assert orc._code_dtype(ctx, terms) == dtype and (bound // p).bit_length() == steps
    # every value up to the bound: a step short leaves those >= p * 2^(steps - 1)
    acc = np.arange(bound + 1, dtype=dtype)
    assert orc._field_ops(ctx)[2](acc, terms).tolist() == [v % p for v in range(bound + 1)]


def _census_by_compose(n, ctx):
    """Every CensusReport field, tabulated from UniPoly.compose one pair at a
    time through a dict keyed by coefficient bytes, splits ascending, g outer
    and h inner."""
    splits = [e for e in divisors(n) if 1 < e < n]
    fmap = {}
    for e in splits:
        for f in _census_pairs_by_compose(ctx, n, e):
            slot = fmap.setdefault(bytes(f), {})
            slot[e] = slot.get(e, 0) + 1
    per_split = {e: 0 for e in splits}
    pair_int = {pair: 0 for pair in itertools.combinations(splits, 2)}
    pair_int_nf = dict(pair_int)
    histogram, profiles = Counter(), Counter()
    frob_members = frob_collisions = 0
    for key, by_split in fmap.items():
        decs = sum(by_split.values())
        histogram[decs] += 1
        profiles[tuple(sorted(by_split))] += 1
        for e in by_split:
            per_split[e] += 1
        is_frob = not any(c for i, c in enumerate(key) if i % ctx.p)
        frob_members += is_frob
        frob_collisions += is_frob and decs >= 2
        for pair in itertools.combinations(sorted(by_split), 2):
            pair_int[pair] += 1
            pair_int_nf[pair] += not is_frob
    return {
        "total": len(fmap),
        "per_split": list(per_split.items()),
        "pair_intersections": list(pair_int.items()),
        "pair_intersections_nonfrobenius": list(pair_int_nf.items()),
        "collision_histogram": sorted(histogram.items()),
        "frobenius_members": frob_members,
        "frobenius_collisions": frob_collisions,
        "split_profiles": sorted(profiles.items()),
        "details": [(k, list(v.items())) for k, v in fmap.items()],
    }


def _census_fields(rep):
    return {
        "total": rep.total,
        "per_split": list(rep.per_split.items()),
        "pair_intersections": list(rep.pair_intersections.items()),
        "pair_intersections_nonfrobenius": list(rep.pair_intersections_nonfrobenius.items()),
        "collision_histogram": list(rep.collision_histogram.items()),
        "frobenius_members": rep.frobenius_members,
        "frobenius_collisions": rep.frobenius_collisions,
        "split_profiles": list(rep.split_profiles.items()),
        "details": [(k, list(v.items())) for k, v in rep.details.items()],
    }


# Pairs per composed block: 20000 puts the seams elsewhere than the default
# 2^15, 7 cuts most blocks unevenly and 0 composes one pair per block, so
# the details order is recovered from ranks across blocks and splits.
@pytest.mark.parametrize("chunk", [20000, 7, 0])
@pytest.mark.parametrize("n, q", [(12, 5), (16, 3), (24, 2), (8, 8), (9, 9), (6, 4), (12, 3)])
def test_census_report_matches_compose_tabulation(n, q, chunk, monkeypatch):
    monkeypatch.setattr(orc, "_CHUNK_ROWS", chunk)
    ctx = field_make(*factor_prime_power(q))
    assert _census_fields(orc.oracle_decomp_census(n, ctx)) == _census_by_compose(n, ctx)


def test_census_at_prime_degree_is_empty():
    rep = orc.oracle_decomp_census(5, F2)
    assert (rep.total, rep.frobenius_members, rep.frobenius_collisions) == (0, 0, 0)
    assert rep.per_split == rep.pair_intersections == rep.collision_histogram == {}
    assert rep.pair_intersections_nonfrobenius == rep.split_profiles == rep.details == {}
    assert rep.collisions.codes.shape == (0, 6) and len(rep.collisions.counts) == 0


def test_census_over_f256():
    # codes 0..255 fit the uint8 details rows; q = 257 does not
    rep = orc.oracle_decomp_census(4, field_make(2, 8))
    assert rep.total == uc.d_p2_exact(2, 8) == 43691
    assert rep.frobenius_collisions == 255 and len(rep.details) == 43691
    with pytest.raises(ValueError, match="q <= 256"):
        orc.oracle_decomp_census(4, field_make(257, 1))


def test_census_multiword_keys(monkeypatch):
    # three digits per word, so each census key spans several uint64 words,
    # and at (8, 8) so do the keys of its 512 Frobenius candidates
    monkeypatch.setattr(orc, "_digits_per_word", lambda q: 3)
    for n, q in [(12, 5), (9, 9), (8, 8)]:
        ctx = field_make(*factor_prime_power(q))
        assert _census_fields(orc.oracle_decomp_census(n, ctx)) == _census_by_compose(n, ctx)


@pytest.mark.parametrize(
    "q, width, m",
    [(5, 10, 2000), (2, 30, 3000), (2, 65, 500), (257, 14, 2000), (3, 4, 0)],
)
def test_group_by_matches_counter(q, width, m, monkeypatch):
    rng = random.Random(q * 1000 + width)
    # a small pool of distinct rows, so most rows repeat
    pool = [tuple(rng.randrange(q) for _ in range(width)) for _ in range(m // 5 + 1)]
    rows = [rng.choice(pool) for _ in range(m)]
    digits = np.array(rows, dtype=np.int64).reshape(m, width).T
    keys = orc._pack(digits, q)
    per_word = orc._digits_per_word(q)
    assert q**per_word <= 1 << 64 < q ** (per_word + 1)
    assert keys.shape == (-(-width // per_word), m)
    assert (orc._unpack(keys, q, width) == digits).all()
    offsets = [0, m // 3, 2 * m // 3]  # three bins of positions
    want: dict = {}  # row -> [smallest position, Counter of bins]
    for at, row in enumerate(rows):
        entry = want.setdefault(row, [at, Counter()])
        entry[1][sum(at >= lo for lo in offsets) - 1] += 1
    # the positions arrive shuffled, in blocks of uneven sizes
    shuffled = np.array(rng.sample(range(m), m), dtype=np.int64)
    cuts = sorted(rng.sample(range(1, m), min(m - 1, 9))) if m > 1 else []
    blocks = [(at, keys[:, at]) for at in np.split(shuffled, cuts)]
    # 7 columns per block puts runs across the seams of the compaction
    for cols in (orc._TALLY_COLS, 7):
        monkeypatch.setattr(orc, "_TALLY_COLS", cols)
        distinct, counts = orc._tally(keys.copy(), offsets)
        low = orc._first(distinct, iter(blocks))
        rows_got = [tuple(r) for r in orc._unpack(distinct, q, width).T.tolist()]
        assert len(rows_got) == len(want)  # one entry per distinct key
        got = {
            row: [lo, Counter({t: c for t, c in enumerate(cs) if c})]
            for row, lo, cs in zip(rows_got, low.tolist(), counts.T.tolist())
        }
        assert got == want
    # _locate finds every distinct key at its row, an absent probe at the
    # row it would go before, and looks among one column alike
    absent = [row for row in (tuple(rng.randrange(q) for _ in range(width)) for _ in range(50)) if row not in want]
    probes = orc._pack(np.array(list(want) + absent, dtype=np.int64).reshape(-1, width).T, q)
    sorted_keys = [tuple(reversed(key)) for key in distinct.T.tolist()]
    for cols in ([slice(None), slice(0, 1)] if len(want) else []):
        at, found = orc._locate(distinct[:, cols], probes)
        among = sorted_keys[cols]
        for probe, a, f in zip(probes.T.tolist(), at.tolist(), found.tolist()):
            probe = tuple(reversed(probe))
            assert (a, f) == (bisect.bisect_left(among, probe), probe in among)
    # _distinct sorts and groups alike, and _run_count counts the runs of sorted keys
    assert (orc._distinct(keys.copy()).T == distinct).all()
    assert orc._run_count(distinct) == orc._run_count(np.repeat(distinct, 3, axis=1)) == len(want)
    # _sort permutes stably by the last word foremost: at one word a key, as
    # packed, and at three digits a word, which spreads a key over several
    monkeypatch.setattr(orc, "_digits_per_word", lambda q: 3)
    several = orc._pack(digits, q)
    assert len(several) == -(-width // 3) >= 2
    for words in (keys[:1], keys, several):
        want_order = sorted(range(m), key=lambda i: tuple(reversed(words[:, i].tolist())))
        got = words.copy()
        assert orc._sort(got).tolist() == want_order
        assert (got == words[:, want_order]).all()


# The budget counts composed pairs; at most 40 bytes per pair, measured by
# tracemalloc after a warm-up call (code tables, monomial slots), make it a
# bound on memory too.  Pairs: 5^4 g's times 5^4 h's; 27^2 times 27^2;
# 8^(e-1) times 8^(12/e - 1) over the four splits of 12, which the census
# merges; 13 g's of degree 2 times 30,927 bivariate h's plus 13^3 of
# degree 4 times 14; and 16^(e-1) g's times 16^(6/e - 1) univariate h's
# over the splits of 6.  A census at one split holds its keys (8 bytes in
# one word), a count byte per pair and scratch for one block: the composer
# reduces and packs a slot at a time, and the grouping and the tables run
# over blocks of a few thousand keys.  So (25, F_5) measures 9.5 and
# (9, F_27) 9.3, where composing whole blocks, grouping through
# whole-split masks and index arrays and building the tables over every
# key held 14.0 and 17.4; their gates at 11 and 10.5 fail if that comes
# back.  It looks its Frobenius members up after the merge and holds
# nothing for them through it, so four splits stay within 28 (25.5
# measured).  mv (2, 4, F_13) measures 9.0, but 9.9 with its sums in
# int32 and 11.2 with whole blocks composed and runs marked over every key,
# so its gate at 9.5 fails if either comes back.  At (1, 6, F_16) one h has
# 16^5 g's, which the blocks slice: 11.6, where a block of one h with all
# its g's held 147.
@pytest.mark.parametrize("build, pairs, limit", [
    (lambda: orc.oracle_decomp_census(25, F5), 390_625, 11),
    (lambda: orc.oracle_decomp_census(9, field_make(3, 3)), 531_441, 10.5),
    (lambda: orc.oracle_decomp_census(12, field_make(2, 3)), 589_824, 28),
    (lambda: orc.oracle_mv_decomp(2, 4, field_make(13, 1)), 432_809, 9.5),
    (lambda: orc.oracle_mv_decomp(1, 6, field_make(2, 4)), 1_056_768, 16),
], ids=["census-25-F5", "census-9-F27", "census-12-F8", "mv-2-4-F13", "mv-1-6-F16"])
def test_composition_oracles_hold_at_most_40_bytes_per_pair(build, pairs, limit):
    import tracemalloc

    build()
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs > 300_000 and peak / pairs <= limit


# The relatively irreducible keys are the distinct conjugate products less
# those found among the reducible keys, so past the cached reducible keys
# they hold about the products alone: 2.7 and 3.7 bytes per reducible key
# measured, where sorting every reducible key again with the products held
# about 37.
@pytest.mark.parametrize("r, n", [(2, 5), (4, 3)])
def test_rel_irreducible_keys_hold_little_past_the_reducible_keys(r, n, uncached_key_builders):
    import tracemalloc

    reducible = len(orc._reducible_keys(F2, r, n))
    tracemalloc.start()
    try:
        orc._rel_irreducible_keys(F2, r, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reducible > 200_000 and peak / reducible <= 8


@lru_cache(maxsize=None)
def _mv_decomp_by_compose(r, n, ctx):
    """The decomposable count by MvPoly arithmetic: g(h) for every pair, one
    at a time, deduplicated in a set of keys."""
    keys = set()
    for e in divisors(n):
        if e < 2:
            continue
        g_list = list(enumerate_monic_uni(ctx, e, original=True))
        for h in enumerate_monic_mv(ctx, r, n // e, original=True):
            powers = [MvPoly.const(ctx, r, 1), h]
            for _ in range(e - 1):
                powers.append(powers[-1] * h)
            for g in g_list:
                f = powers[e]
                for i in range(1, e):
                    c = g.coeff(i)
                    if not c.is_zero():
                        f = f + powers[i] * c
                keys.add(f.key())
    return len(keys)


def test_mv_decomp_paths_agree():
    assert _mv_decomp_by_compose(2, 4, F3) == orc.oracle_mv_decomp(2, 4, F3)
    assert _mv_decomp_by_compose(2, 6, F2) == orc.oracle_mv_decomp(2, 6, F2)


@pytest.mark.parametrize(
    "p, d, n, want", [(2, 2, 2, 20), (2, 2, 3, 80), (2, 2, 4, 1584), (2, 3, 2, 72),
                      (2, 3, 3, 576), (3, 2, 2, 90), (3, 2, 3, 810)]
)
def test_mv_decomp_extension_fields(p, d, n, want):
    # extension fields compose through the q x q code tables
    ctx = field_make(p, d)
    assert orc.oracle_mv_decomp(2, n, ctx) == want
    assert _mv_decomp_by_compose(2, n, ctx) == want


def test_mv_decomp_extension_fields_at_degree_4():
    assert orc.oracle_mv_decomp(2, 4, field_make(2, 3)) == 41408
    assert orc.oracle_mv_decomp(2, 4, field_make(3, 2)) == 72819


def test_mv_decomp_numpy_dedups_across_splits():
    # the e = 2 and e = 4 images overlap, so equal rows land in different
    # blocks
    f7 = field_make(7, 1)
    assert orc.oracle_mv_decomp(2, 4, f7) == 21903
    assert _mv_decomp_by_compose(2, 4, f7) == 21903


# 7 pairs per block cuts the h list unevenly, and the q^3 g's of degree 4
# too; 0 composes one pair per block
@pytest.mark.parametrize("chunk", [7, 0])
@pytest.mark.parametrize("p, d", [(7, 1), (2, 2)])
def test_mv_decomp_block_seams(p, d, chunk, monkeypatch):
    ctx = field_make(p, d)
    want = _mv_decomp_by_compose(2, 4, ctx)
    monkeypatch.setattr(orc, "_CHUNK_ROWS", chunk)
    assert orc.oracle_mv_decomp(2, 4, ctx) == want


def test_mv_decomp_numpy_wide_keys():
    # 20 free slots over F_11 take two uint64 words.  At prime n every h is
    # linear and g(h) determines (g, h), so each of the q (q^r - 1)/(q - 1)
    # pairs gives its own polynomial.
    assert len(_deglex_monomials(5, 2)) - 1 > orc._digits_per_word(11)
    assert orc.oracle_mv_decomp(5, 2, field_make(11, 1)) == 11 * (11**5 - 1) // 10


@pytest.mark.parametrize("n", [0, -3])
def test_mv_decomp_below_degree_1_names_the_degree(n):
    with pytest.raises(ValueError, match=f"decomposable degree n must be >= 1, got n = {n}"):
        orc.oracle_mv_decomp(2, n, F2)


def test_mv_decomp_prime_degree_uses_linear_h():
    # only the (deg g, deg h) = (n, 1) split exists at prime n
    got = orc.oracle_mv_decomp(2, 3, F2)
    assert got == _mv_decomp_by_compose(2, 3, F2)
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


def test_budget_errors_are_loud(monkeypatch):
    monkeypatch.setenv("FFCOUNT_BUDGET", "1000")
    with pytest.raises(BudgetExceeded) as exc:
        orc.oracle_decomp_census(25, F5)
    assert exc.value.required == 390625
    monkeypatch.setenv("FFCOUNT_BUDGET", "100")
    with pytest.raises(BudgetExceeded):
        orc.oracle_mv_decomp(2, 4, field_make(23, 1))


def test_per_split_counts_respect_the_composition_bound():
    # #D_{n,e} <= q^(e + n/e - 2): at most one pair (g, h) per count
    for n, ctx in [(4, F2), (6, F5), (8, F2), (9, F3), (12, F2)]:
        rep = orc.oracle_decomp_census(n, ctx)
        for e, count in rep.per_split.items():
            assert count <= ctx.q ** (e + n // e - 2), (n, ctx.q, e)


def test_nu_degree4_accumulation_values():
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
    assert orc.oracle_mv_decomp(2, 2, f257) == want
    assert _mv_decomp_by_compose(2, 2, f257) == want


def test_collisions_view_is_the_collision_rows_of_details():
    rep = orc.oracle_decomp_census(25, F5)
    codes, counts = rep.collisions
    assert "details" not in rep.__dict__  # reading the view built no details
    assert codes.dtype == np.uint8 and codes.shape == (720, 26) and counts.shape == (720, 1)
    want = [(key, by_split) for key, by_split in rep.details.items() if sum(by_split.values()) >= 2]
    assert [row.tobytes() for row in codes] == [key for key, _ in want]
    splits = list(rep.per_split)
    assert [{e: c for e, c in zip(splits, cs) if c} for cs in counts.tolist()] == [v for _, v in want]
    for n, q in [(12, 5), (8, 8), (16, 3)]:  # several splits, two of them at n = 8
        rep = orc.oracle_decomp_census(n, field_make(*factor_prime_power(q)))
        want = {k: v for k, v in rep.details.items() if sum(v.values()) >= 2}
        codes, counts = rep.collisions
        assert [row.tobytes() for row in codes] == list(want)
        splits = list(rep.per_split)
        assert [{e: c for e, c in zip(splits, cs) if c} for cs in counts.tolist()] == list(want.values())


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_collisions_view_leaves_a_small_process():
    # a fresh process: the census and its 720 collision rows, without the
    # 389,905 entries of details (215 MB once they are read).  Its peak is
    # VmHWM, the peak of its own memory map: Linux folds the memory map it
    # replaces at exec into ru_maxrss, so a child of this test process
    # would report this process's peak there.
    import subprocess
    import sys

    code = ("from ffcount.ff import field_make; from ffcount.oracle import oracle_decomp_census; "
            "rep = oracle_decomp_census(25, field_make(5, 1)); assert len(rep.collisions.codes) == 720; "
            "assert 'details' not in rep.__dict__; "
            "print(next(int(l.split()[1]) for l in open('/proc/self/status') if l.startswith('VmHWM')) / 1024)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 80, proc.stdout


def test_census_leaves_numpy_ma_out():
    # numpy 2's np.unique imports numpy.ma (about 1.3 MB); no census needs it
    import subprocess
    import sys

    code = ("import sys; from ffcount.ff import field_make; from ffcount.oracle import oracle_decomp_census; "
            "oracle_decomp_census(25, field_make(5, 1)); oracle_decomp_census(12, field_make(2, 3)); "
            "print('numpy' in sys.modules, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "True False", proc.stderr


def test_reference_is_independent_of_the_oracle():
    # the reference is the second route beside the oracle's array kernels, so
    # it imports nothing from ffcount.oracle and no numpy, and the names it
    # holds live nowhere in the package
    import ast
    import pathlib

    import ffcount
    import ffcount.ff
    import ffcount.uv_families
    import reference

    imported = set()
    for node in ast.walk(ast.parse(pathlib.Path(reference.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert "ffcount.ff" in imported
    for name in imported:
        assert not name.startswith(("ffcount.oracle", "numpy")), name
    moved = {"MvPoly", "_deglex_key", "enumerate_monic_mv", "enumerate_monic_uni",
             "count_decompositions", "_left_component", "original_shift"}
    assert moved <= set(vars(reference))
    for module in (ffcount, ffcount.ff, ffcount.uv_families):
        assert not moved & set(vars(module)), module.__name__
