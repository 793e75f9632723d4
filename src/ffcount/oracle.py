"""Brute-force ground truth, computed independently of the formula layer.

Counts come from exhaustively enumerated witnesses, deduplicated by a
canonical coefficient key:

* reducible      = image of {g * h} over all degree splits;
* s-powerful     = image of {g^s * h} over nonconstant g;
* irreducible    = everything enumerated minus the reducible image;
* relatively irreducible = irreducible polynomials hit by a conjugate-factor
  product over the degree-t extension for some prime t dividing the degree
  (an irreducible polynomial's absolutely irreducible components are
  conjugate and equinumerous, so reducibility first shows up over prime
  extension degrees, with factors of equal degree);
* decomposables  = image of {g(h)} over monic original component pairs.

No symbolic shortcut from the formula side enters any of these.  Large
prime-field composition censuses run through numpy, imported only on those
paths; every numpy path has a pure-Python twin used at small sizes, and the
two are cross-checked in the test suite.  The Python census composes on
field codes, through q x q addition and multiplication tables, rather than
on polynomial objects.  Budget overruns raise loudly, naming the required
count.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .ff import (
    BudgetExceeded,
    FieldCtx,
    MvPoly,
    UniPoly,
    count_monic,
    enumeration_budget,
    enumerate_monic_mv,
    enumerate_monic_uni,
    field_embed,
)
from .series import divisors, smallest_prime_factor

_NUMPY_THRESHOLD = 20000


# -- multivariate class counts -------------------------------------------


@lru_cache(maxsize=None)
def _all_keys(ctx: FieldCtx, r: int, n: int) -> frozenset:
    return frozenset(f.key() for f in enumerate_monic_mv(ctx, r, n))


@lru_cache(maxsize=None)
def _reducible_keys(ctx: FieldCtx, r: int, n: int) -> frozenset:
    budget = enumeration_budget()
    required = 0
    for d in range(1, n // 2 + 1):
        a, b = count_monic(ctx.q, r, d), count_monic(ctx.q, r, n - d)
        required += a * (a + 1) // 2 if d == n - d else a * b
    if required > budget:
        raise BudgetExceeded(required, budget, f"reducible witness products at n={n}")
    keys = set()
    for d in range(1, n // 2 + 1):
        gs = list(enumerate_monic_mv(ctx, r, d))
        if d == n - d:
            for i, g in enumerate(gs):
                for h in gs[i:]:
                    keys.add((g * h).key())
        else:
            hs = list(enumerate_monic_mv(ctx, r, n - d))
            for g in gs:
                for h in hs:
                    keys.add((g * h).key())
    return frozenset(keys)


@lru_cache(maxsize=None)
def _powerful_keys(ctx: FieldCtx, r: int, n: int, s: int) -> frozenset:
    budget = enumeration_budget()
    required = sum(
        count_monic(ctx.q, r, a) * count_monic(ctx.q, r, n - a * s)
        for a in range(1, n // s + 1)
    )
    if required > budget:
        raise BudgetExceeded(required, budget, f"powerful witness products at n={n}")
    keys = set()
    for a in range(1, n // s + 1):
        for g in enumerate_monic_mv(ctx, r, a):
            gs_pow = g**s
            for h in enumerate_monic_mv(ctx, r, n - a * s):
                keys.add((gs_pow * h).key())
    return frozenset(keys)


@lru_cache(maxsize=None)
def _irreducible_keys(ctx: FieldCtx, r: int, n: int) -> frozenset:
    if n < 1:
        return frozenset()
    return _all_keys(ctx, r, n) - _reducible_keys(ctx, r, n)


@lru_cache(maxsize=None)
def _rel_irreducible_keys(ctx: FieldCtx, r: int, n: int) -> frozenset:
    if n < 1:
        return frozenset()
    irred = _irreducible_keys(ctx, r, n)
    budget = enumeration_budget()
    found = set()
    for t in divisors(n):
        if t == 1 or smallest_prime_factor(t) != t:
            continue
        ext, emb = field_embed(ctx, t)
        required = count_monic(ext.q, r, n // t)
        if required > budget:
            raise BudgetExceeded(required, budget, f"conjugate factors over F_{ext.q}")
        for u in enumerate_monic_mv(ext, r, n // t):
            prod = u
            conj = u
            for _ in range(t - 1):
                conj = conj.map_coeffs(lambda c: ext.pow(c, ctx.q))
                prod = prod * conj
            try:
                key = emb.pullback(prod).key()
            except ValueError:
                continue
            if key in irred:
                found.add(key)
    return frozenset(found)


# -- univariate decomposition census --------------------------------------


@dataclass
class CensusReport:
    """Complete decomposition census of degree n over one field."""

    n: int
    q: int
    total: int
    per_split: dict[int, int]
    pair_intersections: dict[tuple[int, int], int]
    pair_intersections_nonfrobenius: dict[tuple[int, int], int]
    collision_histogram: dict[int, int]
    frobenius_members: int
    frobenius_collisions: int
    split_profiles: dict[tuple[int, ...], int]
    details: dict[bytes, dict[int, int]] = field(repr=False, default_factory=dict)


@lru_cache(maxsize=None)
def _code_tables(ctx: FieldCtx) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The q x q addition and multiplication tables on field codes."""
    codes = range(ctx.q)
    add = tuple(tuple(ctx.add(a, b) for b in codes) for a in codes)
    mul = tuple(tuple(ctx.mul(a, b) for b in codes) for a in codes)
    return add, mul


def _census_pairs_python(ctx: FieldCtx, n: int, e: int, fmap: dict) -> None:
    add, mul = _code_tables(ctx)
    # h^1..h^e of every inner h, each as n + 1 codes
    h_powers = []
    for h in enumerate_monic_uni(ctx, n // e, original=True):
        powers = [None, h.c + (0,) * (n - n // e)]
        for _ in range(e - 1):
            prod = [0] * (n + 1)
            for i, a in enumerate(powers[-1]):
                if a:
                    row = mul[a]
                    for j, b in enumerate(h.c, i):
                        if b:
                            prod[j] = add[prod[j]][row[b]]
            powers.append(tuple(prod))
        h_powers.append(powers)
    # f = g(h) = h^e + sum_i g_i h^i, exponents i = 1..e-1
    for g in enumerate_monic_uni(ctx, e, original=True):
        terms = [(i, mul[c]) for i, c in enumerate(g.c[1:e], 1) if c]
        for powers in h_powers:
            f = powers[e]
            for i, row in terms:
                f = [add[a][row[b]] for a, b in zip(f, powers[i])]
            key = bytes(f)
            slot = fmap.setdefault(key, {})
            slot[e] = slot.get(e, 0) + 1


def _census_pairs_numpy(p: int, n: int, e: int, fmap: dict) -> None:
    import numpy as np

    ne = n // e
    g_free, h_free = e - 1, ne - 1
    G = np.array(list(itertools.product(range(p), repeat=g_free)), dtype=np.int64)
    if g_free == 0:
        G = G.reshape(1, 0)
    for tail in itertools.product(range(p), repeat=h_free):
        h = np.zeros(ne + 1, dtype=np.int64)
        h[1 : 1 + h_free] = tail
        h[ne] = 1
        powers = [np.zeros(n + 1, dtype=np.int64)]
        powers[0][0] = 1
        for _ in range(e):
            nxt = np.convolve(powers[-1][: (len(powers) - 1) * ne + 1], h) % p
            buf = np.zeros(n + 1, dtype=np.int64)
            buf[: len(nxt)] = nxt
            powers.append(buf)
        # f = h^e + sum_i g_i h^i, exponents i = 1..e-1
        M = np.stack(powers[1:e]) if e > 1 else np.zeros((0, n + 1), dtype=np.int64)
        F = (G @ M + powers[e]) % p
        for row in F.astype(np.uint8):
            key = row.tobytes()
            slot = fmap.setdefault(key, {})
            slot[e] = slot.get(e, 0) + 1


def oracle_decomp_census(n: int, ctx: FieldCtx, budget: Optional[int] = None) -> CensusReport:
    """Compose every monic original pair (g, h) over every degree split of n,
    deduplicate by coefficient key, and tabulate everything the bounds need:
    per-split counts, pairwise intersections (with and without Frobenius
    compositions), the histogram of decomposition counts, and Frobenius
    membership."""
    q, p = ctx.q, ctx.p
    if q > 255:
        raise ValueError("census keys assume q <= 255")
    splits = [e for e in divisors(n) if 1 < e < n]
    b = enumeration_budget(budget)
    required = sum(q ** (e - 1) * q ** (n // e - 1) for e in splits)
    if required > b:
        raise BudgetExceeded(required, b, f"decomposition census at n={n}, q={q}")
    fmap: dict[bytes, dict[int, int]] = {}
    for e in splits:
        pairs = q ** (e - 1) * q ** (n // e - 1)
        if ctx.d == 1 and pairs > _NUMPY_THRESHOLD:
            _census_pairs_numpy(p, n, e, fmap)
        else:
            _census_pairs_python(ctx, n, e, fmap)
    per_split = {e: 0 for e in splits}
    pair_int: dict[tuple[int, int], int] = {
        (a, b2): 0 for a, b2 in itertools.combinations(splits, 2)
    }
    pair_int_nf = dict(pair_int)
    histogram: Counter = Counter()
    profiles: Counter = Counter()
    frob_members = 0
    frob_collisions = 0
    # a Frobenius composition has nonzero coefficients only at multiples of p
    non_frob_slots = [i for i in range(n + 1) if i % p]
    for key, by_split in fmap.items():
        es = sorted(by_split)
        total_decs = sum(by_split.values())
        histogram[total_decs] += 1
        profiles[tuple(es)] += 1
        for e in es:
            per_split[e] += 1
        is_frob = not any(map(key.__getitem__, non_frob_slots))
        if is_frob:
            frob_members += 1
            if total_decs >= 2:
                frob_collisions += 1
        for a, b2 in itertools.combinations(es, 2):
            pair_int[(a, b2)] += 1
            if not is_frob:
                pair_int_nf[(a, b2)] += 1
    return CensusReport(
        n=n,
        q=q,
        total=len(fmap),
        per_split=per_split,
        pair_intersections=pair_int,
        pair_intersections_nonfrobenius=pair_int_nf,
        collision_histogram=dict(sorted(histogram.items())),
        frobenius_members=frob_members,
        frobenius_collisions=frob_collisions,
        split_profiles=dict(sorted(profiles.items())),
        details=fmap,
    )


# -- multivariate decomposables --------------------------------------------


def _mv_monomials(r: int, n: int) -> list[tuple[int, ...]]:
    from .ff import _deglex_monomials

    return _deglex_monomials(r, n)


def _mv_monic_original_rows(q: int, r: int, n: int):
    """All monic original r-variate degree-n polynomials as an array of
    coefficient rows over the deg-lex-descending monomial list of degree
    <= n (prime field)."""
    import numpy as np

    monos = _mv_monomials(r, n)
    width = len(monos)
    top = [i for i, m in enumerate(monos) if sum(m) == n]
    blocks = []
    for lead_pos in top:
        free = list(range(lead_pos + 1, width - 1))  # skip the constant slot
        rows = np.zeros((q ** len(free), width), dtype=np.int64)
        rows[:, lead_pos] = 1
        if free:
            combos = np.array(
                list(itertools.product(range(q), repeat=len(free))), dtype=np.int64
            )
            rows[:, free] = combos
        blocks.append(rows)
    return np.vstack(blocks)


def _mv_mult_pairs(r: int, n: int) -> list[tuple[int, int, int]]:
    """Index triples (i, j, k): monomial i times monomial j is monomial k,
    over the monomials of degree <= n (products above degree n dropped)."""
    monos = _mv_monomials(r, n)
    index = {m: i for i, m in enumerate(monos)}
    out = []
    for i, mi in enumerate(monos):
        for j, mj in enumerate(monos):
            prod = tuple(a + b for a, b in zip(mi, mj))
            if sum(prod) <= n:
                out.append((i, j, index[prod]))
    return out


def _mv_decomp_numpy(r: int, n: int, ctx: FieldCtx, budget: int) -> int:
    import numpy as np

    q = ctx.q
    # the narrowest dtype that holds every coefficient: uint8 up to q = 256
    key_dtype = np.min_scalar_type(q - 1)
    big_monos = _mv_monomials(r, n)
    width = len(big_monos)
    big_index = {m: i for i, m in enumerate(big_monos)}
    pairs = _mv_mult_pairs(r, n)
    chunks = []
    for e in divisors(n):
        if e < 2:
            continue
        ne = n // e
        H = _mv_monic_original_rows(q, r, ne)
        n_h = H.shape[0]
        n_g = q ** (e - 1)
        if n_h * n_g > budget:
            raise BudgetExceeded(n_h * n_g, budget, f"decomposable compositions e={e}")
        # lift h rows into the degree-n monomial space
        small = _mv_monomials(r, ne)
        lift = [big_index[m] for m in small]
        Hbig = np.zeros((n_h, width), dtype=np.int64)
        Hbig[:, lift] = H
        powers = [None, Hbig]
        for _ in range(e - 1):
            prev = powers[-1]
            nxt = np.zeros_like(Hbig)
            for i, j, k in pairs:
                col = prev[:, i] * Hbig[:, j]
                if col.any():
                    nxt[:, k] += col
            powers.append(nxt % q)
        g_tails = itertools.product(range(q), repeat=e - 1)
        for tail in g_tails:
            F = powers[e].copy()
            for idx, coeff in enumerate(tail, start=1):
                if coeff:
                    F += coeff * powers[idx]
            chunks.append((F % q).astype(key_dtype))
    # one opaque scalar per row, so a 1-D sort dedups whole rows
    allrows = np.vstack(chunks)
    del chunks
    row_dtype = np.dtype((np.void, allrows.itemsize * width))
    return len(np.unique(allrows.view(row_dtype)))


def _mv_decomp_python(r: int, n: int, ctx: FieldCtx, budget: int) -> int:
    keys = set()
    for e in divisors(n):
        if e < 2:
            continue
        ne = n // e
        n_h = count_monic(ctx.q, r, ne, original=True)
        n_g = ctx.q ** (e - 1)
        if n_h * n_g > budget:
            raise BudgetExceeded(n_h * n_g, budget, f"decomposable compositions e={e}")
        g_list = list(enumerate_monic_uni(ctx, e, original=True))
        for h in enumerate_monic_mv(ctx, r, ne, original=True):
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


def oracle_mv_decomp(r: int, n: int, ctx: FieldCtx, budget: Optional[int] = None) -> int:
    """Count decomposable monic original r-variate degree-n polynomials by
    composing every (univariate monic original g, multivariate monic
    original h) pair with deg g >= 2 across all degree splits."""
    b = enumeration_budget(budget)
    total_pairs = sum(
        ctx.q ** (e - 1) * count_monic(ctx.q, r, n // e, original=True)
        for e in divisors(n)
        if e >= 2
    )
    if total_pairs > b:
        raise BudgetExceeded(total_pairs, b, f"decomposable census r={r}, n={n}")
    if ctx.d == 1 and total_pairs > _NUMPY_THRESHOLD:
        return _mv_decomp_numpy(r, n, ctx, b)
    return _mv_decomp_python(r, n, ctx, b)
