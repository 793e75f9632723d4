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
multivariate class counts, and the multivariate decomposables' Python twin,
keep sets of ``MvPoly`` keys; the univariate census and the decomposables'
numpy path pack each composed polynomial's codes into uint64 keys and group
them with one sort (see the packed-key group-by below).  numpy composes
large prime-field splits; every numpy composer has a pure-Python twin used
for extension fields and small sizes, and the two are cross-checked in the
test suite.  numpy is imported inside the functions that use it, never at
module import.  Budget overruns raise loudly, naming the required count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Optional

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


def _digits(words, q: int, width: int):
    """The ``width`` base-q digits of each uint64, most significant first: a
    (width, m) array.  The digits of 0..q^width - 1 are the tuples of
    ``itertools.product(range(q), repeat=width)``, in order."""
    import numpy as np

    return words // np.uint64(q) ** np.arange(width - 1, -1, -1, dtype=np.uint64)[:, None] % q


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
    los = range(0, width, per)
    return np.concatenate([_digits(w, q, min(per, width - lo)) for w, lo in zip(keys, los)])


def _runs(keys, stable: bool = True):
    """Sort (k, m) packed keys and find the runs of equal ones.

    Returns ``(order, starts)``: the sorting permutation and the sorted
    position where each run begins.  The sort is stable, so ``order[starts]``
    is each run's first input position.  With ``stable=False`` one-word keys
    are sorted without a permutation, several times faster, and ``order`` is
    None.
    """
    import numpy as np

    if stable or len(keys) > 1:
        order = np.lexsort(keys)
        keys = keys[:, order]
    else:
        order, keys = None, np.sort(keys, axis=1)
    edge = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    return order, np.flatnonzero(np.concatenate(([keys.shape[1] > 0], edge)))


def _group_by(keys, tags, n_tags: int):
    """Group (k, m) packed keys, each carrying a tag in ``range(n_tags)``.

    Returns ``(first, counts)`` with one entry per distinct key, in key order:
    its first input position, and how many of its copies carry each tag, an
    (R, n_tags) array.
    """
    import numpy as np

    order, starts = _runs(keys)
    run = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(order)))
    counts = np.bincount(run * n_tags + tags[order], minlength=len(starts) * n_tags)
    return order[starts], counts.reshape(-1, n_tags)


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
        enumeration.  Built on first read."""
        return self._details()


@lru_cache(maxsize=None)
def _code_tables(ctx: FieldCtx) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The q x q addition and multiplication tables on field codes."""
    codes = range(ctx.q)
    add = tuple(tuple(ctx.add(a, b) for b in codes) for a in codes)
    mul = tuple(tuple(ctx.mul(a, b) for b in codes) for a in codes)
    return add, mul


def _census_pairs_python(ctx: FieldCtx, n: int, e: int):
    """Yield g(h) for every monic original pair with deg g = e, g outer and h
    inner, as n + 1 field codes (constant first)."""
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
            yield f


def _census_pairs_numpy(p: int, n: int, e: int):
    """The same compositions over F_p, h outer and g inner, yielded as
    slot-major (n + 1, m) code blocks of about ``_CHUNK_ROWS`` polynomials."""
    import numpy as np

    ne = n // e
    n_g, n_h = p ** (e - 1), p ** (ne - 1)
    dtype = _code_dtype(p, max(e - 1, ne))
    # coefficient tails g_1..g_{e-1}, and below h_1..h_{ne-1}, in
    # itertools.product order
    g = _digits(np.arange(n_g, dtype=np.uint64), p, e - 1).astype(dtype)
    step = max(1, _CHUNK_ROWS // n_g)
    for lo in range(0, n_h, step):
        tails = _digits(np.arange(lo, min(lo + step, n_h), dtype=np.uint64), p, ne - 1)
        h = np.zeros((n + 1, tails.shape[1]), dtype=dtype)
        h[1:ne] = tails
        h[ne] = 1
        # h^1..h^e of every h in the block
        powers = [h]
        for _ in range(e - 1):
            nxt = np.zeros_like(h)
            for j in range(1, ne + 1):
                nxt[j:] += h[j] * powers[-1][: n + 1 - j]
            powers.append(nxt % p)
        # f = h^e + sum_i g_i h^i, exponents i = 1..e-1, as (slot, h, g)
        F = sum(P[:, :, None] * g_i for P, g_i in zip(powers, g)) + powers[-1][:, :, None]
        yield (F % p).reshape(n + 1, -1)


def _census_details(keys, counts, first, splits: list[int], n: int, q: int) -> dict:
    """``CensusReport.details`` from each distinct row's packed key, its
    per-split counts and the position of its first enumeration."""
    import numpy as np

    by_first = np.argsort(first)
    rows = np.zeros((len(first), n + 1), dtype=np.uint8)
    rows[:, 1:n] = _unpack(keys[:, by_first], q, n - 1).T
    rows[:, n] = 1
    return {
        row.tobytes(): {e: c for e, c in zip(splits, cs) if c}
        for row, cs in zip(rows, counts[by_first].tolist())
    }


def oracle_decomp_census(n: int, ctx: FieldCtx, budget: Optional[int] = None) -> CensusReport:
    """Compose every monic original pair (g, h) over every degree split of n,
    deduplicate by packed coefficient key, and tabulate everything the bounds
    need: per-split counts, pairwise intersections (with and without
    Frobenius compositions), the histogram of decomposition counts, and
    Frobenius membership."""
    q, p = ctx.q, ctx.p
    if q > 255:
        raise ValueError("census keys assume q <= 255")
    splits = [e for e in divisors(n) if 1 < e < n]
    b = enumeration_budget(budget)
    required = sum(q ** (e - 1) * q ** (n // e - 1) for e in splits)
    if required > b:
        raise BudgetExceeded(required, b, f"decomposition census at n={n}, q={q}")
    import numpy as np

    # a Frobenius composition has nonzero coefficients only at multiples of p
    non_frob = [i for i in range(n + 1) if i % p]
    keys, tags, frob = [], [], []
    for t, e in enumerate(splits):
        if ctx.d == 1 and q ** (e - 1) * q ** (n // e - 1) > _NUMPY_THRESHOLD:
            blocks = _census_pairs_numpy(p, n, e)
        else:
            blocks = [np.array(list(_census_pairs_python(ctx, n, e))).T]
        for codes in blocks:
            # every composition has code 0 at slot 0 and code 1 at slot n
            keys.append(_pack(codes[1:n], q))
            tags.append(np.full(codes.shape[1], t))
            frob.append(~codes[non_frob].any(axis=0))
    keys = np.concatenate(keys, axis=1)
    first, counts = _group_by(keys, np.concatenate(tags), len(splits))
    hit = counts > 0
    decs = counts.sum(axis=1)
    frob = np.concatenate(frob)[first]
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
        total=len(first),
        per_split=dict(zip(splits, hit.sum(axis=0).tolist())),
        pair_intersections=pair_int,
        pair_intersections_nonfrobenius=pair_int_nf,
        collision_histogram={k: v for k, v in enumerate(np.bincount(decs).tolist()) if v},
        frobenius_members=int(frob.sum()),
        frobenius_collisions=int((frob & (decs >= 2)).sum()),
        split_profiles=dict(sorted(profiles.items())),
        _details=partial(_census_details, keys[:, first], counts, first, splits, n, q),
    )


# -- multivariate decomposables --------------------------------------------


def _mv_monomials(r: int, n: int) -> list[tuple[int, ...]]:
    from .ff import _deglex_monomials

    return _deglex_monomials(r, n)


def _mv_monic_original_rows(q: int, r: int, n: int):
    """All monic original r-variate degree-n polynomials over F_q, slot-major:
    a (width, count) code array over the deg-lex-descending monomials of
    degree <= n."""
    import numpy as np

    monos = _mv_monomials(r, n)
    width = len(monos)
    top = [i for i, m in enumerate(monos) if sum(m) == n]
    blocks = []
    for lead_pos in top:
        free = width - 2 - lead_pos  # the slots between the lead and the constant
        block = np.zeros((width, q**free), dtype=np.int64)
        block[lead_pos] = 1
        block[lead_pos + 1 : width - 1] = _digits(np.arange(q**free, dtype=np.uint64), q, free)
        blocks.append(block)
    return np.hstack(blocks)


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
    big_monos = _mv_monomials(r, n)
    width = len(big_monos)
    big_index = {m: i for i, m in enumerate(big_monos)}
    pairs = _mv_mult_pairs(r, n)
    keys = []
    for e in divisors(n):
        if e < 2:
            continue
        ne = n // e
        H = _mv_monic_original_rows(q, r, ne)
        n_h = H.shape[1]
        n_g = q ** (e - 1)
        if n_h * n_g > budget:
            raise BudgetExceeded(n_h * n_g, budget, f"decomposable compositions e={e}")
        # lift h into the degree-n monomial space
        lift = [big_index[m] for m in _mv_monomials(r, ne)]
        Hbig = np.zeros((width, n_h), dtype=np.int64)
        Hbig[lift] = H
        powers = [Hbig]
        for _ in range(e - 1):
            prev = powers[-1]
            nxt = np.zeros_like(Hbig)
            for i, j, k in pairs:
                col = prev[i] * Hbig[j]
                if col.any():
                    nxt[k] += col
            powers.append(nxt % q)
        dtype = _code_dtype(q, e - 1)
        powers = [P[:, None, :].astype(dtype) for P in powers]
        tails = _digits(np.arange(n_g, dtype=np.uint64), q, e - 1).astype(dtype)
        # f = h^e + sum_i g_i h^i for a block of g tails at once, as
        # (slot, g, h); the constant slot is last and always 0
        step = max(1, _CHUNK_ROWS // n_h)
        for lo in range(0, n_g, step):
            g = tails[:, lo : lo + step, None]
            F = (sum(P * g_i for P, g_i in zip(powers, g)) + powers[-1]) % q
            keys.append(_pack(F[:-1].reshape(width - 1, -1), q))
    return len(_runs(np.concatenate(keys, axis=1), stable=False)[1])


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
