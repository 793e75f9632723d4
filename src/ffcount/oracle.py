"""Brute-force ground truth, computed independently of the formula layer.

Counts come from exhaustively enumerated witnesses, deduplicated by
coefficient key:

* reducible      = image of {g * h} over all degree splits;
* s-powerful     = image of {g^s * h} over nonconstant g;
* irreducible    = every monic polynomial (``count_monic``) minus the
  reducible image;
* relatively irreducible = products of the t conjugates of each monic u over
  the degree-t extension, for every prime t dividing the degree, that lie
  over the base field, less those found among the reducible keys (an
  irreducible polynomial's absolutely irreducible components are conjugate
  and equinumerous, so reducibility first shows up over prime extension
  degrees, with factors of equal degree);
* decomposables  = image of {g(h)} over monic original component pairs.

No symbolic shortcut from the formula side enters any of these.  Every
builder works on numpy arrays of field codes, one polynomial per column
(over F_p unsigned integers in the narrowest dtype that holds a kernel's
sums, reduced mod p by conditional subtraction; over F_{p^d} q x q addition
and multiplication tables): products of r-variate polynomials go through
one kernel, ``_mul``, and compositions g(h), g univariate and h in r
variables, through one composer, ``_compositions``, which serves both the
univariate census (the case r = 1) and the multivariate decomposables.  Its
blocks hold at most ``_CHUNK_ROWS`` pairs, a slice of one h's q^(e-1) g's
when they do not all fit, and it composes them a slot at a time (several
at a time in a block too small to fill ``_SLOT_CODES`` codes): a slot of
degree <= (e - 1) n / e, which g's tails reach, is composed and reduced in
slot-sized scratch, and one above them is h^e's, kept once per h.  Each
builder packs its polynomials' codes into uint64 keys block by block, slot
by slot as the composer yields them, in place in its key array, one key per
row (see the packed keys below).  Each key array is read through one view
with an element per key (``_view``): it is sorted in place (``_sort``),
grouped and searched (``_locate``) as one numpy array, and the degree-p^2
classifier in ``uv_families`` sorts and looks up its family keys through
the same view.  Sorted keys are grouped a block of ``_TALLY_KEYS`` keys at
a time (``_squeeze``), so no mask or index over all of them exists.  Both
composition oracles take their pairs in groups (modules ``buckets`` and
``mv_buckets``, imported on first use): classes of pairs that share a part
of f, read off the components before any pair is composed, consecutive
classes together up to 2^16 pairs, each group composed, packed and grouped
in the front of one key array sized for the largest.  A census of more than
2^16 pairs has q buckets, one for each value of f's coefficient at x^(n -
spf(n)), whose pairs it enumerates directly and whose tables add up; a
smaller one is one bucket.  Each group writes each split's keys into its own
rows of the key array and groups them there (``_tally``): each split is
sorted in place, its distinct keys move down, their run lengths go into one
byte a key, and one stable argsort merges the splits.  Its Frobenius
members, the polynomials with nonzero coefficients only at multiples of p,
are enumerated for each of its buckets and looked up among its distinct
keys; no composed pair is tested for that shape.  Its tables are read off
the counts a block at a time, and only its collisions, the keys with two or
more decompositions, are kept past it.  So the pair budget bounds the work
of both oracles, and their largest group the memory: 2.4 bytes a pair for
the census at n = 25 over F_5, and 1.9 for the multivariate count at r = 2,
n = 4 over F_13 (README has more).  The order of first enumeration is
recovered only when its per-polynomial ``details``, which takes the census
again group by group, or its ``collisions``, the rows with two or more
decompositions as arrays, are read, by composing every pair again.
numpy is imported inside the functions that use it, never at module
import.  Every builder sizes all it builds (products or compositions, q x q
code tables, extension fields) from q, r, n and t through
``ff.check_budget`` before it builds any of it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb
from typing import Any, NamedTuple

from .ff import FieldCtx, _deglex_monomials, check_budget, check_log_tables, count_monic, field_embed
from .series import divisors, smallest_prime_factor

# -- field codes and packed keys -------------------------------------------
#
# A polynomial is held slot-major, a (width, m) array of codes with one
# polynomial per column over the deg-lex-descending monomials of
# ``_deglex_monomials(r, n)``.  Those of degree <= d are its last C(r + d, r)
# in the same order, so a degree-d polynomial's own array is the tail of its
# array at any degree n >= d.  Polynomials are built in blocks of at most
# _CHUNK_ROWS, so the full code array never exists.  Each block's codes are
# packed base q into k uint64 words (k = 1 exactly when q^width <= 2^64),
# in place in the builder's key array of one key per row, before the next
# block; a composed block's, a slot at a time, so not even its own code
# array exists.  Only this module knows the key format: callers hold keys
# as (m, k) arrays and sort, group and search them through ``_view``.
_CHUNK_ROWS = 1 << 15


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _digits_per_short(q: int) -> int:
    """The most base-q digits, at least one, that a uint16 holds."""
    s = 1
    while q ** (s + 1) <= 1 << 16:
        s += 1
    return s


def _pack(digits, q: int, out=None):
    """Base-q digits as packed keys: ``digits`` yields width arrays, most
    significant first, and each key takes k = ceil(width /
    ``_digits_per_word(q)``) uint64 words, each holding up to that many
    digits.  The keys fill ``out``, a (..., k) uint64 array whose words,
    ``out[..., w]``, the digits broadcast to, in place by Horner's rule,
    and ``out`` is returned.  Runs of ``_digits_per_short(q)`` digits are
    gathered by Horner's rule in one uint16 array (a wider one past q =
    2^16) before each run goes into its word, so most steps move 2 bytes a
    key, not 8.  Without ``out``, ``digits`` is a (width, m) array, and the
    keys a new (m, k) array."""
    import numpy as np

    per, run = _digits_per_word(q), _digits_per_short(q)
    if out is None:
        out = np.empty((np.shape(digits)[1], -(-len(digits) // per)), dtype=np.uint64)
    sub = np.empty(out.shape[:-1], dtype=np.min_scalar_type(max(q**run, 1 << 16) - 1))

    def fold(i, size):
        # the run of size digits in sub, ending before digit i, into its word
        word = out[..., (i - size) // per]
        if (i - size) % per:
            word *= q**size
            np.add(word, sub, out=word)
        else:
            word[...] = sub

    size = 0
    for i, d in enumerate(digits):
        if size and (i % per) % run == 0:
            fold(i, size)
            size = 0
        if size:
            sub *= q
            np.add(sub, d, out=sub, casting="unsafe")  # codes are never negative
        else:
            sub[...] = d
        size += 1
    if size:
        fold(i + 1, size)
    return out


def _unpack(keys, q: int, width: int):
    """The inverse of ``_pack``: (m, k) keys back to their width digits,
    one key per row, an (m, width) array."""
    import numpy as np

    per = _digits_per_word(q)
    digits = []
    for w, lo in enumerate(range(0, width, per)):
        places = np.uint64(q) ** np.arange(min(per, width - lo) - 1, -1, -1, dtype=np.uint64)
        digits.append(keys[:, w, None] // places % q)
    return np.concatenate(digits, axis=1)


def _view(keys):
    """The (m, k) packed keys, C-contiguous, as a 1-D array of m elements
    over the same memory, one per key, which sorts, compares and searches
    keys as wholes: the uint64 column itself at k = 1, a ``V(8k)`` view of
    the rows otherwise, ordered by their bytes."""
    import numpy as np

    if keys.shape[1] == 1:
        return keys[:, 0]
    return keys.view(np.dtype((np.void, 8 * keys.shape[1])))[:, 0]


def _sort(keys):
    """Sort (m, k) packed keys in place, in ``_view``'s order."""
    _view(keys).sort()


# Sorted keys are grouped _TALLY_KEYS keys at a time, so a pass over them
# holds scratch for one such block alone: its run marks, starts and counts.
_TALLY_KEYS = 1 << 12


def _run_starts(keys, lo: int = 0, hi: int | None = None, first: int = 0):
    """A bool mask over the rows lo..hi of (m, k) packed keys sorted from
    row ``first`` <= lo on, True where a run of equal keys begins: at
    ``first`` and wherever a key differs from the one before it."""
    import numpy as np

    view = _view(keys)
    hi = len(view) if hi is None else hi
    new = np.empty(hi - lo, dtype=bool)
    a = min(lo + (lo == first), hi)  # the first row compared with the one before
    new[: a - lo] = True
    new[a - lo :] = view[a:hi] != view[a - 1 : hi - 1]
    return new


def _run_count(keys) -> int:
    """How many runs of equal keys the sorted (m, k) packed keys hold."""
    import numpy as np

    return sum(int(np.count_nonzero(_run_starts(keys, lo, min(lo + _TALLY_KEYS, len(keys)))))
               for lo in range(0, len(keys), _TALLY_KEYS))


def _squeeze(keys, lo: int, hi: int, at: int):
    """Move the first key of each run of equal keys among the sorted rows
    lo..hi of the (m, k) keys down to rows at, at + 1, ... (at <= lo), in
    order, ``_TALLY_KEYS`` rows at a time.  Yields each block's first row,
    counted from lo, and its ``_run_starts``.  A key moves to its own row
    or below, so row i - 1 still holds its sorted key when the block at i
    compares with it."""
    view = _view(keys)
    for i in range(lo, hi, _TALLY_KEYS):
        new = _run_starts(keys, i, min(i + _TALLY_KEYS, hi), lo)
        kept = view[i : i + len(new)][new]
        view[at : at + len(kept)] = kept
        at += len(kept)
        yield i - lo, new


def _locate(keys, probes):
    """Where each of the (m, k) probes stands among the (R, k) keys, R >= 1,
    sorted as ``_sort`` sorts them: ``(at, found)``, the first row not
    below the probe, as a ``searchsorted`` index array, and a bool mask,
    True where that row equals the probe."""
    import numpy as np

    view, probes = _view(keys), _view(probes)
    at = np.searchsorted(view, probes)
    return at, view[np.minimum(at, len(view) - 1)] == probes


def _distinct(keys):
    """The sorted distinct keys among (m, k) packed keys, which it sorts and
    overwrites, as a read-only (m', k) array."""
    import numpy as np

    _sort(keys)
    at = sum(int(np.count_nonzero(new)) for _, new in _squeeze(keys, 0, len(keys), 0))
    out = keys[:at].copy()
    out.flags.writeable = False  # lru_cache hands the same array to every caller
    return out


def _tally(keys, offsets):
    """Group (m, k) packed keys in place; the ascending ``offsets``, the
    first of them 0, cut the rows into bins.

    Returns ``(distinct, counts)``: the sorted distinct keys, an (R, k) view
    of the front of ``keys``, and how many copies of each fall in each bin,
    a (len(offsets), R) array in the narrowest dtype that holds the largest
    count.  Each bin is sorted in place and its distinct keys move down
    behind those of the bins before it (``_squeeze``), their run lengths
    written into one array of a byte per row, widened only for a count past
    255.  So at one bin it holds the keys, that byte and block-sized
    scratch.  With several bins one stable argsort then merges the bins'
    sorted runs, and each copy's bin comes from its position in that
    concatenation, so a merge also holds the merge permutation, in the
    narrowest dtype that indexes the keys, and the word it permutes the keys
    through.
    """
    import numpy as np

    def fit(counts, top):
        # counts, widened if it cannot hold top
        return counts if top <= np.iinfo(counts.dtype).max else counts.astype(np.min_scalar_type(top))

    bins = list(zip(offsets, list(offsets[1:]) + [len(keys)]))
    for lo, hi in bins:
        _sort(keys[lo:hi])
    counts = np.empty(len(keys), dtype=np.uint8)
    firsts, at = [], 0
    for lo, hi in bins:
        firsts.append(at)
        last = 0  # where the run still open begins, counted from lo
        for i, new in _squeeze(keys, lo, hi, at):
            starts = np.flatnonzero(new) + i
            if len(starts):
                if at > firsts[-1]:  # the block's first start closes the open run
                    counts = fit(counts, starts[0] - last)
                    counts[at - 1] = starts[0] - last
                runs = starts[1:] - starts[:-1]
                counts = fit(counts, runs.max(initial=0))
                counts[at : at + len(runs)] = runs
                last = starts[-1]
                at += len(starts)
        if at > firsts[-1]:
            counts = fit(counts, hi - lo - last)
            counts[at - 1] = hi - lo - last
    if len(offsets) == 1:
        return keys[:at], counts[None, :at]
    # narrowed as soon as it is built: the keys are permuted through it
    order = np.argsort(_view(keys[:at]), kind="stable").astype(np.min_scalar_type(at), copy=False)
    for word in keys[:at].T:  # a word at a time, so with one word of scratch
        word[...] = word[order]
    tally = np.zeros((len(offsets), _run_count(keys[:at])), dtype=counts.dtype)
    run = -1  # the run of the copy before the block
    for i, new in _squeeze(keys, 0, at, 0):
        copies = order[i : i + len(new)]
        runs = np.cumsum(new) + run
        # a run holds at most one copy from each bin
        tally[np.searchsorted(firsts, copies, side="right") - 1, runs] = counts[copies]
        run = runs[-1]
    return keys[: tally.shape[1]], tally


def _first(keys, blocks):
    """The smallest position of each of the (R, k) keys, sorted as ``_sort``
    sorts them, among ``blocks``, which yield a block's positions and its
    (m, k) packed keys; a block's keys outside ``keys`` are passed over.
    With no keys it reads no block."""
    import numpy as np

    low = np.full(len(keys), np.iinfo(np.intp).max, dtype=np.intp)
    if len(keys):
        for at, block in blocks:
            pos, found = _locate(keys, block)
            np.minimum.at(low, pos[found], at[found])
    return low


# -- products of r-variate polynomials -------------------------------------


def _monic_rows(q: int, r: int, n: int, original: bool, pick=None):
    """All monic (optionally original) r-variate degree-n polynomials over
    F_q, slot-major: a (width, ``count_monic(q, r, n, original)``) code array
    over ``_deglex_monomials(r, n)``, in the smallest dtype that holds a code.
    Within each leading monomial the free slot nearest the constant is the
    most significant digit, so at r = 1 the original rows run through the
    codes (f_1, ..., f_{n-1}) in lexicographic order, f_1 slowest.
    ``pick``, an ascending index array into the columns, builds those
    columns alone."""
    import numpy as np

    monos = _deglex_monomials(r, n)
    width = len(monos)
    end = width - 1 if original else width  # the free slots end before it
    code = np.min_scalar_type(q - 1)
    blocks, base = [], 0
    for lead, mono in enumerate(monos):
        if sum(mono) < n:
            break
        free = end - 1 - lead  # the slots between the lead and the end
        if pick is None:
            block = np.zeros((width, q**free), dtype=code)
            block[end - 1 : lead : -1] = np.indices((q,) * free, dtype=code).reshape(free, q**free)
        else:  # the picked ranks in this lead's block as digits, slot lead + 1 the fastest
            rank = pick[slice(*np.searchsorted(pick, [base, base + q**free]))] - base
            block = np.zeros((width, len(rank)), dtype=code)
            for slot in range(lead + 1, end):
                block[slot], rank = rank % q, rank // q
        block[lead] = 1
        blocks.append(block)
        base += q**free
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
    keys = np.empty((total, -(-comb(r + n, r) // _digits_per_word(q))), dtype=np.uint64)
    at = 0
    for a, G, b, H, triangle in factors:
        if a > b:  # the kernel loops over the slots of its first factor
            a, G, b, H = b, H, a, G
        for i, j in _pair_blocks(G.shape[1], H.shape[1], triangle):
            _pack(_mul(ctx, r, a, b, G[:, i], H[:, j]), q, keys[at : at + len(i)])
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

    if n < 2:  # no prime divides n
        return np.empty((0, -(-comb(r + n, r) // _digits_per_word(ctx.q))), dtype=np.uint64)
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
    products = _distinct(np.concatenate(found))
    out = products[~_locate(reducible, products)[1]]
    out.flags.writeable = False
    return out


# -- composing g(h) in blocks ----------------------------------------------
#
# Both oracles compose a univariate g with an r-variate h; the univariate
# census is the case r = 1.


# A block's slots are composed and reduced in scratch of at most
# _SLOT_CODES codes, one slot of a full block: as many slots at a time as fit,
# so a smaller block makes fewer numpy calls per pair, and at least one.
_SLOT_CODES = 1 << 15


@lru_cache(maxsize=None)
def _slot_groups(slots: range, widths: tuple[int, ...], size: int):
    """``slots``, indices into the monomials of g(h) = h^e + sum_i g_i h^i,
    cut into groups of ``size`` slots in their order, where h^i has
    ``widths[i - 1]`` slots and fills the last ones.  Per group: its size,
    its rows of h^e and, for each h^i, i < e, that reaches it, (i - 1, the
    part of the group it reaches, its rows of h^i), all slices: a range
    runs one way, so the slots from any one on form its start or its end."""

    def rows(part, first):
        stop = part.stop - first
        return slice(part.start - first, stop if stop >= 0 else None, part.step)

    groups = []
    for lo in range(0, len(slots), size):
        group = slots[lo : lo + size]
        terms = []
        for i, width in enumerate(widths[:-1]):
            first = widths[-1] - width
            reach = [k for k, s in enumerate(group) if s >= first]
            if reach:
                part = slice(reach[0], reach[-1] + 1)
                terms.append((i, part, rows(group[part], first)))
        groups.append((len(group), rows(group, 0), terms))
    return groups


def _g_of_h(ctx: FieldCtx, powers, tails, groups):
    """g(h) = h^e + sum_i g_i h^i at the slots of ``groups``
    (``_slot_groups``), one by one in their order: from the powers
    h^1..h^e, each slot-major (width, m_h) over the monomials of its own
    degree, and the tails g_1..g_{e-1} as an (e - 1, m_g) array, all in
    ``_code_dtype(ctx, e - 1)``.  Each group is composed and reduced in one
    scratch array and yielded as (m_h, m_g) views into it, which the next
    group overwrites, so each slot must be read before the next is
    drawn."""
    import numpy as np

    add, mul, mod = _field_ops(ctx)
    top = powers[-1]
    scratch = np.empty((max((g[0] for g in groups), default=0), top.shape[1], tails.shape[1]), dtype=tails.dtype)
    for size, top_rows, terms in groups:
        acc = scratch[:size]
        acc[...] = top[top_rows, :, None]
        for i, part, rows in terms:
            add(acc[part], mul(powers[i][rows, :, None], tails[i]))
        if terms:  # a slot holds at most one term from each h^i
            mod(acc, len(terms))
        yield from acc


def _powers(ctx: FieldCtx, r: int, ne: int, e: int, h):
    """h^1..h^e of the slot-major r-variate h of degree ne, each over the
    monomials of its own degree."""
    powers = [h]
    for k in range(1, e):  # h's constant slot, its last, is 0
        powers.append(_mul(ctx, r, ne, k * ne, h[:-1], powers[-1]))
    return powers


def _compositions(ctx: FieldCtx, r: int, n: int, e: int, slots: range, pick=None, fold=None):
    """Compose g(h) for every univariate monic original g of degree e and
    every r-variate monic original h of degree n / e, in blocks of at most
    ``max(1, _CHUNK_ROWS)`` pairs: as many h's as fit, each with every g, or
    one h with a slice of the g's when the g's alone do not fit.  Yields
    ``(codes, h_rank, g_rank)``: ``codes`` yields g(h)'s codes at
    ``slots``, a range of indices into ``_deglex_monomials(r, n)`` (x^n
    first, the constant last), in its order, each an (m_h, m_g) array that
    holds until the next is drawn (``_g_of_h``); ``h_rank`` and ``g_rank``
    are 1-D arrays such that the pair at (i, j) has rank h_rank[i] +
    g_rank[j], its position when g is outer and h inner.

    ``pick``, an ascending index array into the h's, composes those h's
    alone.  ``fold``, ``(powers, last)``, composes every h from its powers
    h^1..h^e (``_powers``, in ``_code_dtype(ctx, e - 1)``), read, not built
    again, and gives each h one g_{e-1}, ``last``, codes aligned with the
    h's: g's least significant digit, folded into h's top power, h^e +
    g_{e-1} h^(e-1), so the g's run over their tails g_1..g_{e-2} alone."""
    import numpy as np

    q, ne = ctx.q, n // e
    n_h = count_monic(q, r, ne, original=True)
    hs = _monic_rows(q, r, ne, original=True) if pick is None and fold is None else None
    free = e - 1 if fold is None else e - 2  # the tails the g's run over
    n_g, g_step = q**free, n_h if fold is None else q * n_h
    step = max(1, _CHUNK_ROWS)
    m_h, m_g = max(1, step // n_g), min(n_g, step)
    add, mul, mod = _field_ops(ctx)
    dtype = _code_dtype(ctx, e - 1)
    # the widths of h^1..h^e, but for h^(e-1) when it is folded into the top
    widths = tuple(comb(r + i * ne, r) for i in range(1, e + 1) if fold is None or i != e - 1)
    for lo in range(0, n_h if pick is None else len(pick), m_h):
        at = slice(lo, lo + m_h) if pick is None else pick[lo : lo + m_h]
        if fold is None:
            # h alone first, which frees the last block's powers before these
            # are built; picked h's are built alone, not taken from every h
            block = [hs[:, at] if pick is None else _monic_rows(q, r, ne, original=True, pick=at)]
            block = [P.astype(dtype, copy=False) for P in _powers(ctx, r, ne, e, block[0])]
            h_rank = np.arange(lo, lo + block[0].shape[1]) if pick is None else at
        else:
            powers, last = fold
            block = [P[:, at].copy() for P in powers]  # copies: the fold changes the top one
            g_last = last[at]
            # h^(e-1) fills the last slots of h^e, each a product and a code there
            top = block[-1][len(block[-1]) - len(block[-2]) :]
            mod(add(top, mul(g_last.astype(dtype), block[-2])), 1)
            block = block[:-2] + block[-1:]
            h_rank = np.arange(lo, lo + len(g_last)) + g_last.astype(np.intp) * n_h
        for g0 in range(0, n_g, m_g):
            g = np.arange(g0, min(g0 + m_g, n_g))
            # these g's tails in itertools.product order, as (i, g)
            tails = np.empty((free, len(g)), dtype=dtype)
            for i, tail in enumerate(tails):
                tail[...] = g // q ** (free - 1 - i) % q
            groups = _slot_groups(slots, widths, max(1, _SLOT_CODES // (len(h_rank) * len(g))))
            yield _g_of_h(ctx, block, tails, groups), h_rank, g * g_step


# -- univariate decomposition census --------------------------------------


def _split_pairs(q: int, n: int, e: int) -> int:
    """The pairs (g, h) of monic original polynomials with deg g = e and
    deg h = n / e over F_q."""
    return q ** (e - 1) * q ** (n // e - 1)


def _census_blocks(ctx: FieldCtx, n: int, e: int, pick=None, fold=None):
    """``_compositions`` at r = 1 with deg g = e at the slots a census key
    holds, with its ``pick`` or ``fold`` when given.
    Every composition has code 1 at x^n and code 0 at the constant, so the
    keys hold the codes of x up to x^(n-1), x's the most significant; slot
    i of ``_deglex_monomials(1, n)`` is x^(n-i)."""
    return _compositions(ctx, 1, n, e, range(n - 1, 0, -1), pick, fold)


class CensusRows(NamedTuple):
    """Rows of a census in order of first enumeration (see
    ``CensusReport.details``): each polynomial's n + 1 coefficient codes,
    constant first, as an (m, n + 1) uint8 array, and its decompositions per
    split, an (m, splits) array in the order of ``per_split``."""

    codes: Any
    counts: Any


@dataclass
class CensusReport:
    """Complete decomposition census of degree n over one field, ``ctx``.

    Of its polynomials it keeps only the collisions, those with two or more
    decompositions: their packed keys, sorted, and their decompositions per
    split.  The order of first enumeration is recovered only when
    ``details`` or ``collisions`` is read, and ``details`` takes the census
    again, group by group."""

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
    _keys: Any = field(repr=False, compare=False)
    _counts: Any = field(repr=False, compare=False)

    @cached_property
    def details(self) -> dict[bytes, dict[int, int]]:
        """Each decomposable polynomial's n + 1 coefficient codes (constant
        first) -> {split e: decompositions with deg g = e}, in order of first
        enumeration: splits ascending, then g outer and h inner, each in
        the lexicographic order of its codes from x up to its second-highest
        power, x's coefficient slowest.  Built on first read, from the
        census taken again group by group (``buckets._census_buckets``),
        which ranks each group's keys as it tallies them: a key's copies
        all lie in its own bucket."""
        import numpy as np

        from .buckets import _census_buckets

        if not self.per_split:  # prime n: nothing decomposes
            return {}
        keys, counts, ranks = [], [], []
        for _, k, c, r in _census_buckets(self.ctx, self.n, list(self.per_split), self._keys.shape[1], ranked=True):
            keys.append(k.copy())  # the next group overwrites k
            counts.append(c)
            ranks.append(r)
        rows = self._rows(np.concatenate(keys), np.concatenate(counts, axis=1), np.concatenate(ranks))
        return {
            row.tobytes(): {e: c for e, c in zip(self.per_split, cs) if c}
            for row, cs in zip(rows.codes, rows.counts.tolist())
        }

    @cached_property
    def collisions(self) -> CensusRows:
        """The rows of ``details`` with two or more decompositions, in the
        same order, as arrays; reading it builds no ``details``."""
        return self._rows(self._keys, self._counts, self._first_ranks(self._keys))

    def _first_ranks(self, keys):
        """The first-enumeration rank of each of the sorted (m, k) keys: its
        smallest position when the splits run ascending, each g outer and h
        inner, found by composing every pair again."""
        import numpy as np

        q, n, words = self.q, self.n, keys.shape[1]

        def blocks():
            offset = 0
            for e in self.per_split:
                for codes, h_rank, g_rank in _census_blocks(self.ctx, n, e):
                    block = _pack(codes, q, np.empty((len(h_rank), len(g_rank), words), dtype=np.uint64))
                    yield np.add.outer(h_rank, g_rank + offset).ravel(), block.reshape(-1, words)
                offset += _split_pairs(q, n, e)

        return _first(keys, blocks())

    def _rows(self, keys, counts, ranks) -> CensusRows:
        """``CensusRows`` of the (m, k) keys and their (splits, m) counts,
        ordered by their ``ranks``."""
        import numpy as np

        order = np.argsort(ranks)
        rows = np.zeros((len(keys), self.n + 1), dtype=np.uint8)
        if len(keys):  # at n = 1 the keys hold no digits to unpack
            rows[:, 1 : self.n] = _unpack(keys[order], self.q, self.n - 1)
            rows[:, self.n] = 1
        return CensusRows(rows, counts[:, order].T)


def check_census_q(q: int) -> None:
    """Reject a census whose ``details`` rows, one uint8 per code, cannot
    hold F_q's codes; a caller can check this before building the field."""
    if q > 256:
        raise ValueError("census details hold codes in uint8, so q <= 256")


def _decompositions(counts):
    """Each key's decompositions, the column sums of its (splits, R) counts,
    in the smallest dtype that holds the largest possible sum."""
    import numpy as np

    return counts.sum(axis=0, dtype=np.min_scalar_type(len(counts) * int(counts.max(initial=0))))


def oracle_decomp_census(n: int, ctx: FieldCtx) -> CensusReport:
    """Compose every monic original pair (g, h) over every degree split of n,
    deduplicate by packed coefficient key, and tabulate everything the bounds
    need: per-split counts, pairwise intersections (with and without
    Frobenius members), the histogram of decomposition counts, and
    Frobenius membership, which is looked up for the q^(n/p - 1)
    candidates after the keys are grouped.  The tables all come from two
    histograms of the counts: of each key's set of splits and of its
    decompositions.

    A census of more than 2^16 pairs is taken in q buckets (module
    ``buckets``), one for each value v of f_j, the coefficient of f = g(h)
    at x^j, where j = n - spf(n) and spf(n) is the smallest prime factor of
    n.  Equal polynomials agree at x^j, so each lies in exactly one bucket:
    consecutive buckets of at most 2^16 pairs in all, or one larger bucket,
    are tallied together as a census of their own, and each table is the
    sum of the groups' tables.  At the split deg g = e, deg h = m = n / e,
    g(h) = h^e + g_{e-1} h^(e-1) + ... + g_1 h, where g_i h^i has degree
    i m.  As m > 1 divides n, m >= spf(n), so j >= n - m = (e - 1) m, and
    two cases occur:

    * m = spf(n), so j = (e - 1) m.  Only h^e and g_{e-1} h^(e-1), whose
      leading coefficient is 1, reach x^j, so f_j = [x^j]h^e + g_{e-1}.
      Bucket v pairs each h with the one g_{e-1} = v - [x^j]h^e, folded
      into its top power, h^e + g_{e-1} h^(e-1), and with each of the
      q^(e-2) tails g_1..g_{e-2}.
    * m > spf(n), so j > (e - 1) m.  Only h^e reaches x^j, so f_j =
      [x^j]h^e depends on h alone.  Bucket v pairs each h with [x^j]h^e = v
      with every g.

    So each bucket's pairs are enumerated directly, never filtered, and
    sized before any bucket is built: in the second case [x^j]h^e depends
    on h's top spf(n) coefficients alone, so a bincount of its q^spf(n)
    values counts each bucket's h's, and one pick composes the h's of a
    whole group.  The groups are built in turn in one key array sized for
    the largest.  Where p | e, [x^j]h^e can be constant: at n = 12 over
    F_8, [x^10]h^4 = 0, so every pair of the split e = 4 lies in bucket 0.
    The budget counts every pair, so it bounds the work, and the largest
    group bounds the memory.  The report keeps the
    collisions alone (see ``CensusReport``)."""
    if n < 1:
        raise ValueError(f"census degree n must be >= 1, got n = {n}")
    q = ctx.q
    check_census_q(q)
    splits = [e for e in divisors(n) if 1 < e < n]
    # at least q^2 pairs in every split, so they bound the code tables too
    check_budget(sum(_split_pairs(q, n, e) for e in splits), f"decomposition census at n={n}, q={q}")
    import numpy as np

    from .buckets import _census_buckets, _frobenius_rows, _profiles

    words = -(-(n - 1) // _digits_per_word(q))
    if not splits:  # prime n: nothing decomposes
        return CensusReport(n, q, 0, {}, {}, {}, {}, 0, 0, {}, ctx,
                            np.zeros((0, words), dtype=np.uint64), np.zeros((0, 0), dtype=np.uint8))
    # the profiles and decomposition sums of every key, then of the Frobenius members
    tables = [Counter() for _ in range(4)]
    total = members = 0
    kept = []  # each group's collision rows: keys and counts
    for values, keys, counts, _ in _census_buckets(ctx, n, splits, words):
        frob = np.concatenate([_frobenius_rows(keys, q, ctx.p, n, v) for v in values])
        for table, part in zip(tables, _profiles(counts) + _profiles(counts[:, frob])):
            table.update(part)
        total, members = total + len(keys), members + len(frob)
        pick = np.flatnonzero(_decompositions(counts) >= 2)
        kept.append((keys[pick], counts[:, pick]))
        del counts  # before the next group is composed
    keys = np.concatenate([k for k, _ in kept])
    counts = np.concatenate([c for _, c in kept], axis=1)
    if len(kept) > 1:  # each group's keys are sorted, and distinct from the others'
        order = np.argsort(_view(keys))
        keys, counts = keys[order], counts[:, order]
    profile, sums, frob_profile, frob_sums = tables

    def having(profile, *ts):
        # how many keys have a decomposition in each of the splits ts
        return sum(c for m, c in profile.items() if all(m >> t & 1 for t in ts))

    pairs = list(itertools.combinations(range(len(splits)), 2))
    return CensusReport(
        n=n,
        q=q,
        total=total,
        per_split={e: having(profile, t) for t, e in enumerate(splits)},
        pair_intersections={(splits[i], splits[j]): having(profile, i, j) for i, j in pairs},
        pair_intersections_nonfrobenius={
            (splits[i], splits[j]): having(profile, i, j) - having(frob_profile, i, j) for i, j in pairs
        },
        collision_histogram=dict(sorted(sums.items())),
        frobenius_members=members,
        frobenius_collisions=sum(c for k, c in frob_sums.items() if k >= 2),
        split_profiles=dict(sorted((tuple(e for t, e in enumerate(splits) if m >> t & 1), c)
                                   for m, c in profile.items())),
        ctx=ctx,
        _keys=keys,
        _counts=counts,
    )


# -- multivariate decomposables --------------------------------------------


def oracle_mv_decomp(r: int, n: int, ctx: FieldCtx) -> int:
    """Count decomposable monic original r-variate degree-n polynomials by
    composing every (univariate monic original g, multivariate monic
    original h) pair with deg g >= 2 across all degree splits and counting
    the distinct compositions.

    More than 2^16 pairs are counted in groups cut by f's top homogeneous
    part (module ``mv_buckets``).  At the split deg g = e, deg h = m = n / e,
    f = g(h) = h^e + g_{e-1} h^(e-1) + ... + g_1 h, where g_i h^i has
    degree i m < n, so f's degree-n part is f_n = (h_m)^e, h_m the
    degree-m part of h, a monic form.  Equal polynomials have equal f_n,
    so the classes of pairs with one f_n partition the pairs of every
    split, and the count is the sum over the classes of their distinct
    compositions.  The classes are walked in key order and cut into groups
    of consecutive classes of at most 2^16 pairs, a larger class in a group
    of its own; each group's pairs are composed, packed into one key array
    sized for the largest group, sorted and counted (``_mv_count``).  As
    f_n depends on h_m alone, every group is sized before any is built,
    from t^e for each of the few monic forms t of degree m: t's class takes
    the q^(e-1) g's with each h whose top part is t, and those h's run in an
    arithmetic progression of ranks (``_mv_groups``).  At r = 1, f_n = x^n
    for every pair, one class, so the count takes one group; at prime n,
    m = 1 and each class holds the q^(n-1) pairs of one linear h.  The
    budget counts every pair, so it bounds the work, and the largest group
    bounds the memory."""
    if r < 1:
        raise ValueError(f"decomposable variable count r must be >= 1, got r = {r}")
    if n < 1:
        raise ValueError(f"decomposable degree n must be >= 1, got n = {n}")
    q = ctx.q
    splits = [e for e in divisors(n) if e >= 2]
    total = sum(q ** (e - 1) * count_monic(q, r, n // e, original=True) for e in splits)
    check_budget(total, f"decomposable census r={r}, n={n}")
    _check_tables(q, ctx.d)
    from .mv_buckets import _mv_count

    return _mv_count(ctx, r, n, splits)
