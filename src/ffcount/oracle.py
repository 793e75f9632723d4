"""Brute-force ground truth, computed independently of the formula layer.

Counts come from exhaustively enumerated witnesses, deduplicated by
coefficient key:

* reducible      = image of {g * h} over all degree splits;
* s-powerful     = image of {g^s * h} over nonconstant g;
* irreducible    = everything enumerated minus the reducible image;
* relatively irreducible = irreducible polynomials hit by a conjugate-factor
  product over the degree-t extension for some prime t dividing the degree
  (an irreducible polynomial's absolutely irreducible components are
  conjugate and equinumerous, so reducibility first shows up over prime
  extension degrees, with factors of equal degree);
* decomposables  = image of {g(h)} over monic original component pairs.

No symbolic shortcut from the formula side enters any of these.  The
multivariate class counts keep sets of ``MvPoly`` keys.  The univariate
census and the multivariate decomposables share one numpy composer for every
field, ``_compositions``: g is univariate and h has r variables, and the
census is the case r = 1.  It composes blocks of pairs on field codes
(integers mod p over F_p, q x q addition and multiplication tables over
F_{p^d}); each oracle packs the composed polynomials' codes into uint64 keys
and groups them with one sort (see the packed-key group-by below).  numpy is
imported inside the functions that use it, never at module import.  Budget
overruns raise loudly, naming the required count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Optional

from .ff import (
    BudgetExceeded,
    FieldCtx,
    _deglex_monomials,
    count_monic,
    enumeration_budget,
    enumerate_monic_mv,
    field_embed,
)
from .series import divisors, smallest_prime_factor


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


# -- packed-key group-by ---------------------------------------------------
#
# Composed polynomials are held slot-major, a (width, m) array of codes with
# one polynomial per column, and composed in blocks of about _CHUNK_ROWS, so
# the full code array never exists.  Each block's free codes are packed base
# q into k uint64 words (k = 1 unless q^free >= 2^64) before the next block.
_CHUNK_ROWS = 1 << 15


def _digits_per_word(q: int) -> int:
    """The most base-q digits one uint64 holds."""
    s = 1
    while q ** (s + 1) <= 1 << 64:
        s += 1
    return s


def _code_dtype(q: int, terms: int):
    """int32 when a sum of ``terms`` products of two codes, plus one code,
    cannot overflow it (its remainder is several times faster), else int64."""
    import numpy as np

    return np.int32 if terms * (q - 1) ** 2 + q - 1 < 1 << 31 else np.int64


@lru_cache(maxsize=None)
def _field_ops(ctx: FieldCtx):
    """``(add, mul, mod)`` on numpy arrays of field codes: ``add(acc, x)``
    adds x into acc in place and returns acc, ``mul(a, b)`` returns a new
    array, ``mod(acc)`` brings acc back to codes in place and returns it.

    Over F_p codes are integers: add and mul are exact integer operations,
    valid while the dtype holds the sum (see ``_code_dtype``), and mod takes
    the remainder mod p once a sum is complete.  Over F_{p^d} add and mul
    look codes up in q x q tables and mod does nothing.
    """
    import numpy as np

    q, p = ctx.q, ctx.p
    if ctx.d == 1:
        return (
            lambda acc, x: np.add(acc, x, out=acc),
            np.multiply,
            lambda acc: np.remainder(acc, p, out=acc),
        )
    weights = np.array(ctx._pow_p)
    coords = np.arange(q)[:, None] // weights % p  # each code's d coordinates
    add = ((coords[:, None] + coords) % p) @ weights
    log = np.array(ctx._log)
    mul = np.array(ctx._exp)[(log[:, None] + log) % (q - 1)]
    mul[0] = mul[:, 0] = 0

    def add_into(acc, x):
        acc[...] = add[acc, x]
        return acc

    return add_into, (lambda a, b: mul[a, b]), (lambda acc: acc)


def _g_of_h(ctx: FieldCtx, powers, tails):
    """g(h) = h^e + sum_i g_i h^i, from the powers h^1..h^e and the tails
    g_1..g_{e-1} as arrays that broadcast against each other."""
    add, mul, mod = _field_ops(ctx)
    F = add(mul(powers[0], tails[0]), powers[-1])
    for P, g_i in zip(powers[1:], tails[1:]):
        add(F, mul(P, g_i))
    return mod(F)


def _pack(digits, q: int):
    """A (width, m) array of base-q digits as packed keys: a (k, m) uint64
    array, each word holding up to ``_digits_per_word(q)`` digits, most
    significant first."""
    import numpy as np

    per = _digits_per_word(q)
    words = []
    for lo in range(0, max(len(digits), 1), per):
        word = np.zeros(digits.shape[1], dtype=np.uint64)
        for d in digits[lo : lo + per]:
            word *= q
            word += d.astype(np.uint64)
        words.append(word)
    return np.stack(words)


def _unpack(keys, q: int, width: int):
    """The inverse of ``_pack``: (k, m) keys back to (width, m) digits."""
    import numpy as np

    per = _digits_per_word(q)
    digits = []
    for word, lo in zip(keys, range(0, width, per)):
        places = np.uint64(q) ** np.arange(min(per, width - lo) - 1, -1, -1, dtype=np.uint64)
        digits.append(word // places[:, None] % q)
    return np.concatenate(digits)


def _runs(keys, permute: bool = True):
    """Sort (k, m) packed keys and mark the runs of equal ones.

    Returns ``(order, new)``: the sorting permutation and a bool mask over
    the sorted keys, True where a run begins, so ``order[new]`` holds an
    input position of each distinct key.  With ``permute=False`` one-word
    keys are sorted in place, several times faster, and ``order`` is None.
    """
    import numpy as np

    if len(keys) > 1:
        order = np.lexsort(keys)
        keys = keys[:, order]
    elif permute:
        order = np.argsort(keys[0])
        keys = keys[:, order]
    else:
        order = None
        keys.sort(axis=1)
    edge = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    return order, np.concatenate(([True], edge))[: keys.shape[1]]


def _group_by(keys, ranks, offsets):
    """Group (k, m) packed keys, each carrying an integer rank; the ascending
    ``offsets``, the first of them 0, cut the ranks into bins.

    Returns ``(rep, low, counts)`` with one entry per distinct key, in key
    order: the input position of one of its copies, its smallest rank, and
    how many of its copies fall in each bin, an (R, len(offsets)) array.
    """
    import numpy as np

    order, new = _runs(keys)
    starts = np.flatnonzero(new)
    ranks = ranks[order]
    # each sorted key's cell run * bins + bin, built in place: the census
    # reaches its memory peak here
    cell = np.cumsum(new) * len(offsets)
    cell += np.searchsorted(offsets, ranks, side="right")
    cell -= len(offsets) + 1
    counts = np.bincount(cell, minlength=len(starts) * len(offsets))
    return order[starts], np.minimum.reduceat(ranks, starts), counts.reshape(-1, len(offsets))


# -- composing g(h) in blocks ----------------------------------------------
#
# Both oracles compose a univariate g with an r-variate h; the univariate
# census is the case r = 1.


def _mv_monic_original_rows(q: int, r: int, n: int):
    """All monic original r-variate degree-n polynomials over F_q, slot-major:
    a (width, count) code array over the deg-lex-descending monomials of
    degree <= n.  Within each leading monomial the free slot nearest the
    constant is the most significant digit, so at r = 1 column h holds the
    h-th polynomial of ``enumerate_monic_uni(ctx, n, original=True)``."""
    import numpy as np

    monos = _deglex_monomials(r, n)
    width = len(monos)
    top = [i for i, m in enumerate(monos) if sum(m) == n]
    blocks = []
    for lead_pos in top:
        free = width - 2 - lead_pos  # the slots between the lead and the constant
        block = np.zeros((width, q**free), dtype=np.int64)
        block[lead_pos] = 1
        block[width - 2 : lead_pos : -1] = np.indices((q,) * free).reshape(free, q**free)
        blocks.append(block)
    return np.hstack(blocks)


def _compositions(ctx: FieldCtx, r: int, n: int, e: int):
    """Compose g(h) for every univariate monic original g of degree e and
    every r-variate monic original h of degree n / e, in blocks of at most
    ``max(1, _CHUNK_ROWS // n_g)`` h's, each with every g.  Yields
    ``(codes, rank)``: a slot-major (width, m) code array over
    ``_deglex_monomials(r, n)`` (x^n first, the constant last) and each
    column's rank g * n_h + h, its position when g is outer and h inner."""
    import numpy as np

    q = ctx.q
    add, mul, mod = _field_ops(ctx)
    monos = _deglex_monomials(r, n)
    index = {m: i for i, m in enumerate(monos)}
    ne = n // e
    h_monos = _deglex_monomials(r, ne)
    # h^k has degree <= k * ne, so it lives in the slots from low[k] on (the
    # monomials are deg-lex descending); multiplying it by h's monomial j
    # moves slot i to the slot of i * j.  h has no constant term.
    low = [sum(sum(m) > k * ne for m in monos) for k in range(e)]
    shifts = [
        (index[j], [index[tuple(map(sum, zip(m, j)))] for m in monos[low[e - 1] :]])
        for j in h_monos[:-1]
    ]
    h_slots = [index[m] for m in h_monos]
    hs = _mv_monic_original_rows(q, r, ne)
    n_g, n_h = q ** (e - 1), hs.shape[1]
    dtype = _code_dtype(q, max(e - 1, len(shifts)))
    # coefficient tails g_1..g_{e-1} in itertools.product order, as (i, 1, g)
    tails = np.indices((q,) * (e - 1), dtype=dtype).reshape(e - 1, 1, n_g)
    g_rank = np.arange(0, n_g * n_h, n_h)
    step = max(1, _CHUNK_ROWS // n_g)
    for lo in range(0, n_h, step):
        h = np.zeros((len(monos), min(step, n_h - lo)), dtype=dtype)
        h[h_slots] = hs[:, lo : lo + step]
        # h^1..h^e of every h in the block
        powers = [h]
        for k in range(1, e):
            nxt = np.zeros_like(h)
            for j, dst in shifts:
                dst = dst[low[k] - low[e - 1] :]
                nxt[dst] = add(nxt[dst], mul(h[j], powers[-1][low[k] :]))
            powers.append(mod(nxt))
        # every g(h) of the block, as (slot, h, g)
        F = _g_of_h(ctx, [P[:, :, None] for P in powers], tails)
        yield F.reshape(len(monos), -1), (np.arange(lo, lo + h.shape[1])[:, None] + g_rank).ravel()


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
    _details: Callable[[], dict[bytes, dict[int, int]]] = field(repr=False, compare=False)

    @cached_property
    def details(self) -> dict[bytes, dict[int, int]]:
        """Each decomposable polynomial's n + 1 coefficient codes (constant
        first) -> {split e: decompositions with deg g = e}, in order of first
        enumeration: splits ascending, then g outer and h inner, each in
        ``enumerate_monic_uni`` order.  Built on first read."""
        return self._details()


def _census_details(keys, counts, low, splits: list[int], n: int, q: int) -> dict:
    """``CensusReport.details`` from each distinct row's packed key, its
    per-split counts and the smallest rank among its copies."""
    import numpy as np

    by_rank = np.argsort(low)
    rows = np.zeros((len(low), n + 1), dtype=np.uint8)
    rows[:, 1:n] = _unpack(keys[:, by_rank], q, n - 1).T
    rows[:, n] = 1
    return {
        row.tobytes(): {e: c for e, c in zip(splits, cs) if c}
        for row, cs in zip(rows, counts[by_rank].tolist())
    }


def oracle_decomp_census(n: int, ctx: FieldCtx, budget: Optional[int] = None) -> CensusReport:
    """Compose every monic original pair (g, h) over every degree split of n,
    deduplicate by packed coefficient key, and tabulate everything the bounds
    need: per-split counts, pairwise intersections (with and without
    Frobenius compositions), the histogram of decomposition counts, and
    Frobenius membership."""
    q, p = ctx.q, ctx.p
    if q > 256:
        raise ValueError("census details hold codes in uint8, so q <= 256")
    splits = [e for e in divisors(n) if 1 < e < n]
    b = enumeration_budget(budget)
    sizes = [q ** (e - 1) * q ** (n // e - 1) for e in splits]
    if sum(sizes) > b:
        raise BudgetExceeded(sum(sizes), b, f"decomposition census at n={n}, q={q}")
    if not splits:  # prime n: nothing decomposes
        return CensusReport(n, q, 0, {}, {}, {}, {}, 0, 0, {}, _details=dict)
    import numpy as np

    # a Frobenius composition has nonzero coefficients only at multiples of p
    non_frob = [i for i in range(n + 1) if i % p]
    # a composition's rank is its split's offset plus its rank in the split
    offsets = list(itertools.accumulate(sizes[:-1], initial=0))
    keys, ranks, frob = [], [], []
    for e, offset in zip(splits, offsets):
        for codes, rank in _compositions(ctx, 1, n, e):
            codes = codes[::-1]  # constant first
            # every composition has code 0 at slot 0 and code 1 at slot n
            keys.append(_pack(codes[1:n], q))
            ranks.append(rank + offset)
            frob.append(~codes[non_frob].any(axis=0))
    keys = np.concatenate(keys, axis=1)
    rep, low, counts = _group_by(keys, np.concatenate(ranks), offsets)
    hit = counts > 0
    decs = counts.sum(axis=1)
    frob = np.concatenate(frob)[rep]
    pair_int, pair_int_nf = {}, {}
    for (i, a), (j, b2) in itertools.combinations(enumerate(splits), 2):
        both = hit[:, i] & hit[:, j]
        pair_int[(a, b2)] = int(both.sum())
        pair_int_nf[(a, b2)] = int((both & ~frob).sum())
    masks, mask_counts = np.unique(hit @ (1 << np.arange(len(splits))), return_counts=True)
    profiles = {
        tuple(e for t, e in enumerate(splits) if m >> t & 1): c
        for m, c in zip(masks.tolist(), mask_counts.tolist())
    }
    return CensusReport(
        n=n,
        q=q,
        total=len(rep),
        per_split=dict(zip(splits, hit.sum(axis=0).tolist())),
        pair_intersections=pair_int,
        pair_intersections_nonfrobenius=pair_int_nf,
        collision_histogram={k: v for k, v in enumerate(np.bincount(decs).tolist()) if v},
        frobenius_members=int(frob.sum()),
        frobenius_collisions=int((frob & (decs >= 2)).sum()),
        split_profiles=dict(sorted(profiles.items())),
        _details=partial(_census_details, keys[:, rep], counts, low, splits, n, q),
    )


# -- multivariate decomposables --------------------------------------------


def oracle_mv_decomp(r: int, n: int, ctx: FieldCtx, budget: Optional[int] = None) -> int:
    """Count decomposable monic original r-variate degree-n polynomials by
    composing every (univariate monic original g, multivariate monic
    original h) pair with deg g >= 2 across all degree splits."""
    q = ctx.q
    splits = [e for e in divisors(n) if e >= 2]
    b = enumeration_budget(budget)
    total = sum(q ** (e - 1) * count_monic(q, r, n // e, original=True) for e in splits)
    if total > b:
        raise BudgetExceeded(total, b, f"decomposable census r={r}, n={n}")
    import numpy as np

    width = len(_deglex_monomials(r, n))
    # every composition's packed key, written block by block; the constant
    # slot is last and always 0
    keys = np.empty((-(-(width - 1) // _digits_per_word(q)), total), dtype=np.uint64)
    at = 0
    for e in splits:
        for codes, _ in _compositions(ctx, r, n, e):
            keys[:, at : at + codes.shape[1]] = _pack(codes[:-1], q)
            at += codes.shape[1]
    return int(np.count_nonzero(_runs(keys, permute=False)[1]))
