"""Brute-force ground truth, computed independently of the formula layer.

Counts come from exhaustively enumerated witnesses, deduplicated by
coefficient key:

* reducible      = image of {g * h} over all degree splits;
* s-powerful     = image of {g^s * h} over nonconstant g;
* irreducible    = every monic polynomial (``count_monic``) minus the
  reducible image;
* relatively irreducible = products of the t conjugates of each monic u over
  the degree-t extension, for every prime t dividing the degree, that lie
  over the base field and are not reducible (an irreducible polynomial's
  absolutely irreducible components are conjugate and equinumerous, so
  reducibility first shows up over prime extension degrees, with factors of
  equal degree);
* decomposables  = image of {g(h)} over monic original component pairs.

No symbolic shortcut from the formula side enters any of these.  Every
builder works on numpy arrays of field codes, one polynomial per column
(over F_p unsigned integers in the narrowest dtype that holds a kernel's
sums, reduced mod p by conditional subtraction; over F_{p^d} q x q addition
and multiplication tables): products of r-variate polynomials go through
one kernel, ``_mul``, and compositions g(h), g univariate and h in r
variables, through one composer, ``_compositions``, which serves both the
univariate census (the case r = 1) and the multivariate decomposables.  Each builder packs its
polynomials' codes into uint64 keys block by block and groups them with one
sort (see the packed keys below).  The census writes each composition's key
at its g-outer rank, its position in one preallocated key array, so the sort
permutation alone gives each polynomial's first enumeration and its count
per split (``_group``); per pair it holds the keys, the permutation and a
Frobenius byte, at most 40 bytes with one-word keys, so the pair budget
bounds its memory too.  Its per-polynomial ``details`` are built only when
read, and its ``collisions``, the rows with two or more decompositions,
come as arrays without them.  numpy is imported inside the
functions that use it, never at module import.  Every builder sizes all it
builds (products or compositions, q x q code tables, extension fields) from
q, r, n and t through ``ff.check_budget`` before it builds any of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from math import comb
from typing import Any, Callable, NamedTuple

from .ff import FieldCtx, _deglex_monomials, check_budget, check_log_tables, count_monic, field_embed
from .series import divisors, smallest_prime_factor

# -- field codes and packed keys -------------------------------------------
#
# A polynomial is held slot-major, a (width, m) array of codes with one
# polynomial per column over the deg-lex-descending monomials of
# ``_deglex_monomials(r, n)``.  Those of degree <= d are its last C(r + d, r)
# in the same order, so a degree-d polynomial's own array is the tail of its
# array at any degree n >= d.  Polynomials are built in blocks of about
# _CHUNK_ROWS, so the full code array never exists.  Each block's codes are
# packed base q into k uint64 words (k = 1 unless q^width >= 2^64) before the
# next block.
_CHUNK_ROWS = 1 << 15


def _digits_per_word(q: int) -> int:
    """The most base-q digits one uint64 holds."""
    s = 1
    while q ** (s + 1) <= 1 << 64:
        s += 1
    return s


def _code_bound(q: int, terms: int) -> int:
    """The largest sum of ``terms`` products of two codes plus one code."""
    return terms * (q - 1) ** 2 + q - 1


def _code_dtype(ctx: FieldCtx, terms: int):
    """The dtype of a kernel's code arrays when a sum holds ``terms``
    products of two codes plus one code.  Over F_p it is the smallest
    unsigned dtype that holds ``_code_bound(p, terms)``, so the kernels move
    as few bytes as they can; over F_{p^d} codes index the q x q tables, in
    int32."""
    import numpy as np

    return np.min_scalar_type(_code_bound(ctx.q, terms)) if ctx.d == 1 else np.int32


def _check_tables(q: int, d: int) -> None:
    """Check the q^2 entries of the two q x q code tables that ``_field_ops``
    builds over F_q = F_{p^d} against the budget, from q and d alone, so the
    field itself need not exist yet; prime fields need no tables."""
    if d > 1:
        check_budget(q**2, f"q x q code tables over F_{q}")


@lru_cache(maxsize=None)
def _field_ops(ctx: FieldCtx):
    """``(add, mul, mod)`` on numpy arrays of field codes: ``add(acc, x)``
    adds x into acc in place and returns acc, ``mul(a, b)`` returns a new
    array, ``mod(acc, terms)`` brings acc, a sum of at most ``terms``
    products plus one code, back to codes in place and returns it.

    Over F_p codes are unsigned integers in ``_code_dtype(ctx, terms)``: add
    and mul are exact integer operations, and mod reduces a complete sum
    without dividing.  For k from the top down, it subtracts p * 2^k and
    keeps the minimum of the difference and acc: where acc < p * 2^k the
    unsigned difference wraps above acc, so acc stays, and after step k
    acc < p * 2^k.  The steps come from the bound of ``terms``, never from
    the data; past six of them ``np.remainder`` is faster, so it takes over.
    Over F_{p^d} add and mul look codes a, b up in q x q tables of the
    smallest dtype that holds a code, flattened: one ``take`` at a * q + b,
    in int32 while q^2 fits it, is several times faster than 2-D indexing.
    mod does nothing; callers check the tables' size with ``_check_tables``.
    """
    import numpy as np

    q, p = ctx.q, ctx.p
    if ctx.d == 1:

        def mod(acc, terms):
            steps = (_code_bound(p, terms) // p).bit_length()
            if steps > 6:
                return np.remainder(acc, p, out=acc)
            tmp = np.empty_like(acc)
            for k in reversed(range(steps)):
                np.subtract(acc, acc.dtype.type(p << k), out=tmp)
                np.minimum(acc, tmp, out=acc)
            return acc

        return (lambda acc, x: np.add(acc, x, out=acc)), np.multiply, mod
    code = np.min_scalar_type(q - 1)
    codes = np.arange(q, dtype=code)
    # digitwise mod p, one base-p digit at a time: every temporary is q x q
    add = np.zeros((q, q), dtype=code)
    for w in ctx._pow_p:
        digit = codes // w % p
        both = np.add.outer(digit, digit)
        both %= p
        both *= w
        add += both
    # discrete logs; the exp table is doubled so log a + log b needs no remainder
    log = np.array(ctx._log, dtype=np.int32)
    mul = np.array(ctx._exp * 2, dtype=code)[np.add.outer(log, log)]
    mul[0] = mul[:, 0] = 0
    add, mul = add.ravel(), mul.ravel()
    index = np.int32 if q * q <= 1 << 31 else np.intp

    def at(a, b):
        # a and b's entry in a flattened table, cast first: codes may be uint8
        return np.add(np.multiply(a, q, dtype=index), b, dtype=index)

    def add_into(acc, x):
        acc[...] = add.take(at(acc, x))
        return acc

    return add_into, (lambda a, b: mul.take(at(a, b))), (lambda acc, terms: acc)


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
    """Sort (k, m) packed keys in place and mark the runs of equal ones.

    Returns ``(order, new)``: the sorting permutation and a bool mask over
    the sorted keys, True where a run begins, so ``order[new]`` holds an
    input position of each distinct key.  With ``permute=False`` one-word
    keys are sorted directly, several times faster, and ``order`` is None.
    """
    import numpy as np

    if len(keys) == 1 and not permute:
        order = None
        keys.sort(axis=1)
    else:
        order = np.lexsort(keys) if len(keys) > 1 else np.argsort(keys[0])
        for w in range(len(keys)):  # a word at a time, so one word of scratch
            keys[w] = keys[w][order]
    new = np.empty(keys.shape[1], dtype=bool)
    new[:1] = True
    (keys[:, 1:] != keys[:, :-1]).any(axis=0, out=new[1:])
    return order, new


def _distinct(keys, banned: int = 0):
    """The sorted distinct keys among (k, m) packed keys, as a read-only
    (m', k) array with one key per row, leaving out every key that also
    occurs in the last ``banned`` columns."""
    import numpy as np

    order, new = _runs(keys, permute=banned > 0)
    if banned:
        run = np.cumsum(new) - 1
        hit = np.zeros(len(new), dtype=bool)
        hit[run[order >= len(order) - banned]] = True
        new &= ~hit[run]
    out = keys[:, new].T
    out.flags.writeable = False  # lru_cache hands the same array to every caller
    return out


def _group(k: int, total: int, blocks, offsets):
    """Group ``total`` packed keys of k words each, written block by block:
    ``blocks`` yields ``(at, keys)``, a (k, m) block of keys and their
    positions, an index array.  The ascending ``offsets``, the first of them
    0, cut the positions into bins.

    Returns ``(keys, low, counts)`` with one entry per distinct key, in sort
    order: the key, a (k, R) array; its smallest position; and how many of
    its copies fall in each bin, an (R, len(offsets)) array.  Per position
    it holds the keys, sorted in place, and the sort permutation, which
    gives way to a byte per position (its bin) before the counts are taken.
    """
    import numpy as np

    keys = np.empty((k, total), dtype=np.uint64)
    for at, block in blocks:
        keys[:, at] = block
    order, new = _runs(keys)
    starts = np.flatnonzero(new)
    del new
    keys = keys[:, starts]  # the sorted copies go
    low = np.minimum.reduceat(order, starts)
    bins = np.zeros(total, dtype=np.min_scalar_type(len(offsets)))
    for lo in offsets[1:]:
        bins += order >= lo
    del order
    # no count exceeds the longest run, so the counts take the smallest
    # dtype that holds it, and a byte-wide one needs no cast of the masks
    runs = np.append(starts[1:], total)[: len(starts)]  # each run's end
    runs -= starts
    counts = np.empty((len(offsets), len(starts)), dtype=np.min_scalar_type(runs.max(initial=0)))
    counts[-1] = runs  # the last bin holds what the others leave of each run
    del runs
    for b, row in enumerate(counts[:-1]):
        np.add.reduceat((bins == b).view(np.uint8), starts, out=row)
        counts[-1] -= row
    return keys, low, counts.T


# -- products of r-variate polynomials -------------------------------------


def _monic_rows(q: int, r: int, n: int, original: bool):
    """All monic (optionally original) r-variate degree-n polynomials over
    F_q, slot-major: a (width, ``count_monic(q, r, n, original)``) code array
    over ``_deglex_monomials(r, n)``, in the smallest dtype that holds a code.
    Within each leading monomial the free slot nearest the constant is the
    most significant digit, so at r = 1 the original rows run through the
    codes (f_1, ..., f_{n-1}) in lexicographic order, f_1 slowest."""
    import numpy as np

    monos = _deglex_monomials(r, n)
    width = len(monos)
    end = width - 1 if original else width  # the free slots end before it
    code = np.min_scalar_type(q - 1)
    blocks = []
    for lead, mono in enumerate(monos):
        if sum(mono) < n:
            break
        free = end - 1 - lead  # the slots between the lead and the end
        block = np.zeros((width, q**free), dtype=code)
        block[lead] = 1
        block[end - 1 : lead : -1] = np.indices((q,) * free, dtype=code).reshape(free, q**free)
        blocks.append(block)
    return np.hstack(blocks)


@lru_cache(maxsize=None)
def _product_slots(r: int, a: int, b: int):
    """``(width, slots)``: the width of ``_deglex_monomials(r, a + b)`` and,
    for each monomial of degree <= a, the slots there of its products with
    the monomials of degree <= b, an index array in their order."""
    import numpy as np

    index = {m: i for i, m in enumerate(_deglex_monomials(r, a + b))}
    right = _deglex_monomials(r, b)
    slots = [np.array([index[tuple(map(sum, zip(j, m)))] for m in right]) for j in _deglex_monomials(r, a)]
    return len(index), slots


def _mul(ctx: FieldCtx, r: int, a: int, b: int, G, H):
    """The column-wise product of slot-major r-variate polynomials: G of
    degree <= a times H of degree <= b, as a (width, m) code array over
    ``_deglex_monomials(r, a + b)``.  It does one gather and scatter per slot
    of G, so G should be the factor of lower degree; G may leave out trailing
    slots that are zero in every column, such as an original polynomial's
    constant."""
    import numpy as np

    add, mul, mod = _field_ops(ctx)
    width, slots = _product_slots(r, a, b)
    dtype = _code_dtype(ctx, len(G))
    H = H.astype(dtype, copy=False)
    out = np.zeros((width, H.shape[1]), dtype=dtype)
    for g_j, dst in zip(G.astype(dtype, copy=False), slots):
        out[dst] = add(out[dst], mul(g_j, H))
    return mod(out, len(G))


def _pair_blocks(n_g: int, n_h: int, triangle: bool):
    """Index arrays ``(i, j)`` of the pairs (g_i, h_j) for every g and h, or
    only those with j >= i when ``triangle``, g outer and h inner, in blocks
    of at most ``max(1, _CHUNK_ROWS)`` pairs."""
    import numpy as np

    first = np.arange(n_g) if triangle else np.zeros(n_g, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(n_h - first)))
    total, step = int(starts[-1]), max(1, _CHUNK_ROWS)
    for lo in range(0, total, step):
        k = np.arange(lo, min(lo + step, total))
        i = np.searchsorted(starts, k, side="right") - 1
        yield i, first[i] + k - starts[i]


def _product_keys(ctx: FieldCtx, r: int, n: int, total: int, factors):
    """The sorted distinct keys (see ``_distinct``) of the degree-n products
    g * h.  ``factors`` yields ``(a, G, b, H, triangle)``: slot-major rows of
    degree a and b, each g paired with every h, or with the h from its own
    column on when ``triangle`` (then H is G); ``total`` counts the pairs."""
    import numpy as np

    q = ctx.q
    keys = np.empty((-(-comb(r + n, r) // _digits_per_word(q)), total), dtype=np.uint64)
    at = 0
    for a, G, b, H, triangle in factors:
        if a > b:  # the kernel loops over the slots of its first factor
            a, G, b, H = b, H, a, G
        for i, j in _pair_blocks(G.shape[1], H.shape[1], triangle):
            keys[:, at : at + len(i)] = _pack(_mul(ctx, r, a, b, G[:, i], H[:, j]), q)
            at += len(i)
    return _distinct(keys)


# -- multivariate class counts -------------------------------------------
#
# Each builder returns the sorted distinct packed keys of its class (see
# ``_distinct``), so its len() is the class's count.


def _reducible_products(ctx: FieldCtx, r: int, n: int) -> int:
    """The products g * h that ``_reducible_keys`` forms at degree n, checked
    against the budget together with the field's code tables, which only a
    product looks up."""
    required = 0
    for d in range(1, n // 2 + 1):
        a, b = count_monic(ctx.q, r, d), count_monic(ctx.q, r, n - d)
        required += a * (a + 1) // 2 if d == n - d else a * b
    check_budget(required, f"reducible witness products at n={n}")
    if required:
        _check_tables(ctx.q, ctx.d)
    return required


@lru_cache(maxsize=None)
def _reducible_keys(ctx: FieldCtx, r: int, n: int):
    required = _reducible_products(ctx, r, n)

    def factors():
        for d in range(1, n // 2 + 1):
            G = _monic_rows(ctx.q, r, d, original=False)
            H = G if d == n - d else _monic_rows(ctx.q, r, n - d, original=False)
            yield d, G, n - d, H, d == n - d

    return _product_keys(ctx, r, n, required, factors())


@lru_cache(maxsize=None)
def _powerful_keys(ctx: FieldCtx, r: int, n: int, s: int):
    required = sum(
        count_monic(ctx.q, r, a) * count_monic(ctx.q, r, n - a * s)
        for a in range(1, n // s + 1)
    )
    check_budget(required, f"powerful witness products at n={n}")
    if required:  # the code tables serve the products alone
        _check_tables(ctx.q, ctx.d)

    def factors():
        for a in range(1, n // s + 1):
            G = power = _monic_rows(ctx.q, r, a, original=False)
            for k in range(1, s):
                power = _mul(ctx, r, a, k * a, G, power)
            yield a * s, power, n - a * s, _monic_rows(ctx.q, r, n - a * s, original=False), False

    return _product_keys(ctx, r, n, required, factors())


@lru_cache(maxsize=None)
def _rel_irreducible_keys(ctx: FieldCtx, r: int, n: int):
    import numpy as np

    if n < 1:
        return np.empty((0, 1), dtype=np.uint64)
    # size every F_{q^t} from q and t before any of them is built: its log
    # tables, its conjugate factors and its code tables; _reducible_keys
    # then sizes its own products before it builds them
    primes = [t for t in divisors(n) if t > 1 and smallest_prime_factor(t) == t]
    for t in primes:
        check_log_tables(ctx.q**t)
    for t in primes:
        check_budget(count_monic(ctx.q**t, r, n // t), f"conjugate factors over F_{ctx.q**t}")
        _check_tables(ctx.q**t, ctx.d * t)
    reducible = _reducible_keys(ctx, r, n)
    found, step = [], max(1, _CHUNK_ROWS)
    for t in primes:
        ext, table = field_embed(ctx, t)
        d = n // t
        frobenius = np.array([ext.pow(c, ctx.q) for c in range(ext.q)])  # c -> c^q
        pullback = np.full(ext.q, -1)
        pullback[list(table)] = np.arange(ctx.q)
        us = _monic_rows(ext.q, r, d, original=False)
        for lo in range(0, us.shape[1], step):
            # u times its t - 1 conjugates: monic of degree n over F_{q^t}
            conj = product = us[:, lo : lo + step]
            for k in range(1, t):
                conj = frobenius[conj]
                product = _mul(ext, r, d, k * d, conj, product)
            codes = pullback[product]
            found.append(_pack(codes[:, (codes >= 0).all(axis=0)], ctx.q))
    # a monic degree-n product over F_q is irreducible unless it is reducible
    return _distinct(np.concatenate(found + [reducible.T], axis=1), banned=len(reducible))


# -- composing g(h) in blocks ----------------------------------------------
#
# Both oracles compose a univariate g with an r-variate h; the univariate
# census is the case r = 1.


def _g_of_h(ctx: FieldCtx, powers, tails):
    """g(h) = h^e + sum_i g_i h^i as a (width, m, n_g) code array, from the
    powers h^1..h^e, each slot-major (width, m) over the monomials of its
    own degree, and the tails g_1..g_{e-1} as an (e - 1, 1, n_g) array in
    ``_code_dtype(ctx, e - 1)``, the dtype of the result."""
    import numpy as np

    add, mul, mod = _field_ops(ctx)
    F = np.empty(powers[-1].shape + tails.shape[-1:], dtype=tails.dtype)
    F[...] = powers[-1][:, :, None]
    for P, g_i in zip(powers, tails):
        P = P.astype(F.dtype, copy=False)
        add(F[len(F) - len(P) :], mul(P[:, :, None], g_i))  # h^i fills the last slots
    return mod(F, len(tails))


def _compositions(ctx: FieldCtx, r: int, n: int, e: int):
    """Compose g(h) for every univariate monic original g of degree e and
    every r-variate monic original h of degree n / e, in blocks of at most
    ``max(1, _CHUNK_ROWS // n_g)`` h's, each with every g.  Yields
    ``(codes, rank)``: a slot-major (width, m) code array over
    ``_deglex_monomials(r, n)`` (x^n first, the constant last) and each
    column's rank g * n_h + h, its position when g is outer and h inner."""
    import numpy as np

    q, ne = ctx.q, n // e
    hs = _monic_rows(q, r, ne, original=True)
    n_g, n_h = q ** (e - 1), hs.shape[1]
    # coefficient tails g_1..g_{e-1} in itertools.product order, as (i, 1, g)
    tails = np.indices((q,) * (e - 1), dtype=_code_dtype(ctx, e - 1)).reshape(e - 1, 1, n_g)
    g_rank = np.arange(0, n_g * n_h, n_h)
    step = max(1, _CHUNK_ROWS // n_g)
    for lo in range(0, n_h, step):
        h = hs[:, lo : lo + step]
        # h^1..h^e of every h in the block; h's constant slot, its last, is 0
        powers = [h]
        for k in range(1, e):
            powers.append(_mul(ctx, r, ne, k * ne, h[:-1], powers[-1]))
        F = _g_of_h(ctx, powers, tails)
        yield F.reshape(len(F), -1), (np.arange(lo, lo + h.shape[1])[:, None] + g_rank).ravel()


# -- univariate decomposition census --------------------------------------


class CensusRows(NamedTuple):
    """Rows of a census in order of first enumeration (see
    ``CensusReport.details``): each polynomial's n + 1 coefficient codes,
    constant first, as an (m, n + 1) uint8 array, and its decompositions per
    split, an (m, splits) array in the order of ``per_split``."""

    codes: Any
    counts: Any


@dataclass
class CensusReport:
    """Complete decomposition census of degree n over one field, ``ctx``."""

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
    ctx: FieldCtx = field(repr=False, compare=False)
    _rows: Callable[[bool], CensusRows] = field(repr=False, compare=False)

    @cached_property
    def details(self) -> dict[bytes, dict[int, int]]:
        """Each decomposable polynomial's n + 1 coefficient codes (constant
        first) -> {split e: decompositions with deg g = e}, in order of first
        enumeration: splits ascending, then g outer and h inner, each in
        the lexicographic order of its codes from x up to its second-highest
        power, x's coefficient slowest.  Built on first read."""
        rows = self._rows(False)
        return {
            row.tobytes(): {e: c for e, c in zip(self.per_split, cs) if c}
            for row, cs in zip(rows.codes, rows.counts.tolist())
        }

    @cached_property
    def collisions(self) -> CensusRows:
        """The rows of ``details`` with two or more decompositions, in the
        same order, as arrays; reading it builds no ``details``."""
        return self._rows(True)


def _census_rows(keys, counts, low, n: int, q: int, collisions: bool) -> CensusRows:
    """``CensusRows`` of every distinct polynomial, or of the collisions
    only, from each one's packed key, its per-split counts and the smallest
    position among its copies."""
    import numpy as np

    pick = np.flatnonzero(counts.sum(axis=1) >= 2) if collisions else np.arange(len(low))
    pick = pick[np.argsort(low[pick])]
    rows = np.zeros((len(pick), n + 1), dtype=np.uint8)
    rows[:, 1:n] = _unpack(keys[:, pick], q, n - 1).T
    rows[:, n] = 1
    return CensusRows(rows, counts[pick])


def _no_rows(n: int, collisions: bool) -> CensusRows:
    import numpy as np

    return CensusRows(np.zeros((0, n + 1), dtype=np.uint8), np.zeros((0, 0), dtype=np.uint8))


def check_census_q(q: int) -> None:
    """Reject a census whose ``details`` rows, one uint8 per code, cannot
    hold F_q's codes; a caller can check this before building the field."""
    if q > 256:
        raise ValueError("census details hold codes in uint8, so q <= 256")


def oracle_decomp_census(n: int, ctx: FieldCtx) -> CensusReport:
    """Compose every monic original pair (g, h) over every degree split of n,
    deduplicate by packed coefficient key, and tabulate everything the bounds
    need: per-split counts, pairwise intersections (with and without
    Frobenius compositions), the histogram of decomposition counts, and
    Frobenius membership."""
    q, p = ctx.q, ctx.p
    check_census_q(q)
    splits = [e for e in divisors(n) if 1 < e < n]
    # at least q^2 pairs in every split, so they bound the code tables too
    sizes = [q ** (e - 1) * q ** (n // e - 1) for e in splits]
    check_budget(sum(sizes), f"decomposition census at n={n}, q={q}")
    if not splits:  # prime n: nothing decomposes
        return CensusReport(n, q, 0, {}, {}, {}, {}, 0, 0, {}, ctx, partial(_no_rows, n))
    import numpy as np

    # a Frobenius composition has nonzero coefficients only at multiples of p
    non_frob = [i for i in range(n + 1) if i % p]
    # a composition's position is its split's offset plus its rank there,
    # so a key's smallest position is its first enumeration
    offsets = list(itertools.accumulate(sizes[:-1], initial=0))
    frob = np.empty(sum(sizes), dtype=bool)

    def blocks():
        for e, offset in zip(splits, offsets):
            for codes, rank in _compositions(ctx, 1, n, e):
                codes = codes[::-1]  # constant first
                rank += offset
                frob[rank] = ~codes[non_frob].any(axis=0)
                # every composition has code 0 at slot 0 and code 1 at slot n
                yield rank, _pack(codes[1:n], q)

    words = -(-(n - 1) // _digits_per_word(q))
    keys, low, counts = _group(words, len(frob), blocks(), offsets)
    frob = frob[low]
    hit = counts > 0
    decs = counts.sum(axis=1, dtype=np.intp)
    pair_int, pair_int_nf = {}, {}
    for (i, a), (j, b2) in itertools.combinations(enumerate(splits), 2):
        both = hit[:, i] & hit[:, j]
        pair_int[(a, b2)] = int(both.sum())
        pair_int_nf[(a, b2)] = int((both & ~frob).sum())
    # each distinct key's splits as a bit mask in the smallest dtype
    code = np.zeros(len(low), dtype=np.min_scalar_type((1 << len(splits)) - 1))
    for t in range(len(splits)):
        code[hit[:, t]] |= 1 << t
    # bincount casts its input to intp, so it takes blocks of _CHUNK_ROWS
    step = max(1, _CHUNK_ROWS)
    mask_counts = sum((np.bincount(code[lo : lo + step], minlength=1 << len(splits))
                       for lo in range(0, len(code), step)), np.zeros(1 << len(splits), dtype=np.intp))
    profiles = {
        tuple(e for t, e in enumerate(splits) if m >> t & 1): c
        for m, c in enumerate(mask_counts.tolist()) if c
    }
    return CensusReport(
        n=n,
        q=q,
        total=len(low),
        per_split=dict(zip(splits, hit.sum(axis=0).tolist())),
        pair_intersections=pair_int,
        pair_intersections_nonfrobenius=pair_int_nf,
        collision_histogram={k: v for k, v in enumerate(np.bincount(decs).tolist()) if v},
        frobenius_members=int(frob.sum()),
        frobenius_collisions=int((frob & (decs >= 2)).sum()),
        split_profiles=dict(sorted(profiles.items())),
        ctx=ctx,
        _rows=partial(_census_rows, keys, counts, low, n, q),
    )


# -- multivariate decomposables --------------------------------------------


def oracle_mv_decomp(r: int, n: int, ctx: FieldCtx) -> int:
    """Count decomposable monic original r-variate degree-n polynomials by
    composing every (univariate monic original g, multivariate monic
    original h) pair with deg g >= 2 across all degree splits."""
    q = ctx.q
    splits = [e for e in divisors(n) if e >= 2]
    total = sum(q ** (e - 1) * count_monic(q, r, n // e, original=True) for e in splits)
    check_budget(total, f"decomposable census r={r}, n={n}")
    _check_tables(q, ctx.d)
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
