"""The buckets of a decomposition census (see ``oracle.oracle_decomp_census``),
and the grouping that both composition oracles share.

Each oracle cuts its composed pairs into classes by a part of f = g(h) that
equal polynomials share and that is read off the components before any pair
is composed, and takes consecutive classes together in groups of at most
``_BUCKET_PAIRS`` pairs (``_groups``), a larger class in a group of its
own, since each group costs its own numpy calls.  Each group's keys go into
the front of one key array sized for the largest group, so the largest
group, not the budget, bounds the memory.

A census of more than ``_BUCKET_PAIRS`` pairs has q buckets, one for each
value of f's coefficient at x^(n - spf(n)), spf(n) the smallest prime
factor of n, and a smaller one a single bucket.  This module enumerates
each group of buckets through the oracle's composer (``_buckets``), tallies
it (``_census_buckets``), looks up its buckets' Frobenius members
(``_frobenius_rows``) and reads its tables off the counts (``_profiles``).
The multivariate count's classes, which share f's top homogeneous part, are
sized and picked in ``mv_buckets``, a module of its own so that a census
does not compile them.  The oracle imports both inside the functions that
use them, as it does numpy, so a process that composes no pairs neither
compiles nor holds them.
"""

from __future__ import annotations

import itertools

from .ff import FieldCtx
from .oracle import (
    _TALLY_KEYS, _census_blocks, _code_dtype, _decompositions, _field_ops, _first, _locate, _monic_rows, _mul,
    _pack, _powers, _split_pairs, _tally,
)
from .series import smallest_prime_factor

_BUCKET_PAIRS = 1 << 16


def _top_codes(ctx: FieldCtx, e: int, s: int):
    """[x^(e m - s)]h^e for the monic original h of degree m > s, as a
    function of h's rank mod q^s: an array of q^s codes.  Only h's top s
    coefficients h_{m-1}..h_{m-s} reach x^(e m - s) in h^e, each a factor
    at most s degrees below x^m, so it is [x^((e - 1) s)]u^e for u = x^s +
    h_{m-1} x^(s-1) + ... + h_{m-s}.  Those are the last s digits of h's
    rank, h_{m-1} the fastest, as they are u's among ``_monic_rows(q, 1,
    s)``."""
    us = power = _monic_rows(ctx.q, 1, s, original=False)
    for k in range(1, e):
        power = _mul(ctx, 1, s, k * s, us, power)
    return power[s]  # slot s of u^e is x^((e - 1) s)


def _buckets(ctx: FieldCtx, n: int, splits):
    """A census's buckets (see ``oracle.oracle_decomp_census``) as ``(values,
    pairs, blocks)``: each bucket's value of f at x^j, j = n - spf(n), the
    pairs of each bucket in each split, a list of lists, and ``blocks(values,
    e)``, the ``_census_blocks`` of split e in the buckets of the given
    values.  One bucket, of value None, holds every pair when they number
    at most ``_BUCKET_PAIRS``."""
    import numpy as np

    q = ctx.q
    sizes = [_split_pairs(q, n, e) for e in splits]
    if sum(sizes) <= _BUCKET_PAIRS:
        return [None], [sizes], lambda values, e: _census_blocks(ctx, n, e)
    spf = smallest_prime_factor(n)
    add, mul, mod = _field_ops(ctx)
    pairs = np.empty((q, len(splits)), dtype=np.int64)
    folds, tops = {}, {}
    for t, e in enumerate(splits):
        if n // e == spf:
            # every h with g_{e-1} = v - top = v + (p - 1) top: the fewest h's
            # of any split, so their powers are built once for every bucket
            hs = _monic_rows(q, 1, spf, original=True)
            powers = [P.astype(_code_dtype(ctx, e - 1), copy=False) for P in _powers(ctx, 1, spf, e, hs)]
            folds[e] = powers, mod(mul(powers[-1][spf], ctx.p - 1), 1)  # slot spf is x^(n - spf)
            pairs[:, t] = hs.shape[1] * q ** (e - 2)
        else:  # the h's whose top is v, each with every g
            tops[e] = _top_codes(ctx, e, spf)
            pairs[:, t] = np.bincount(tops[e], minlength=q) * (_split_pairs(q, n, e) // len(tops[e]))

    def blocks(values, e):
        if e in tops:  # one pick for every bucket of the group
            top, taken = tops[e], np.zeros(q, dtype=bool)
            taken[values] = True
            pick = np.arange(0, q ** (n // e - 1), len(top))[:, None] + np.flatnonzero(taken[top])
            return _census_blocks(ctx, n, e, pick=pick.ravel())
        powers, minus = folds[e]
        return itertools.chain.from_iterable(
            _census_blocks(ctx, n, e, fold=(powers, mod(add(np.full(len(minus), v, dtype=minus.dtype), minus), 1)))
            for v in values)

    return range(q), pairs.tolist(), blocks


def _groups(sizes):
    """Cut the consecutive ``sizes`` into groups, as ranges of their
    indices: each group takes the next size until one more would take it
    past ``_BUCKET_PAIRS``, so a size past it forms a group of its own."""
    groups, lo, held = [], 0, 0
    for i, size in enumerate(sizes):
        if i > lo and held + size > _BUCKET_PAIRS:
            groups.append(range(lo, i))
            lo, held = i, 0
        held += size
    groups.append(range(lo, len(sizes)))
    return groups


def _census_buckets(ctx: FieldCtx, n: int, splits, words: int, ranked: bool = False):
    """The buckets of a census (``_buckets``), grouped (``_groups``), each
    group in turn, tallied: yields ``(values, keys, counts, ranks)``, the
    group's bucket values, its sorted distinct keys, their decompositions
    per split (``_tally``) and, when ``ranked``, each key's
    first-enumeration rank (see ``CensusReport._first_ranks``), else None.
    Each group writes its keys split by split into the front of one key
    array sized for the largest group, so its keys hold until the next
    group is drawn, and nothing else of it does; ranking keeps a copy of
    them, unsorted, and each pair's rank beside it, and looks the copy up
    among the distinct keys."""
    import numpy as np

    q = ctx.q
    values, pairs, blocks = _buckets(ctx, n, splits)
    groups = [([values[i] for i in g], [sum(col) for col in zip(*(pairs[i] for i in g))])
              for g in _groups(list(map(sum, pairs)))]
    buffer = np.empty((max(sum(sizes) for _, sizes in groups), words), dtype=np.uint64)

    def tally(group, sizes):
        keys, at, offset = buffer[: sum(sizes)], 0, 0
        ranks = np.empty(len(keys), dtype=np.intp) if ranked else None
        for e in splits:
            for codes, h_rank, g_rank in blocks(group, e):
                m = len(h_rank) * len(g_rank)
                # views, since the rows of keys and ranks are contiguous
                _pack(codes, q, keys[at : at + m].reshape(len(h_rank), len(g_rank), words))
                if ranked:
                    np.add.outer(h_rank, g_rank + offset, out=ranks[at : at + m].reshape(len(h_rank), len(g_rank)))
                at += m
            offset += _split_pairs(q, n, e)
        unsorted = keys.copy() if ranked else None
        keys, counts = _tally(keys, list(itertools.accumulate(sizes[:-1], initial=0)))
        return group, keys, counts, _first(keys, [(ranks, unsorted)]) if ranked else None

    for group, sizes in groups:
        yield tally(group, sizes)


def _frobenius_rows(keys, q: int, p: int, n: int, v):
    """The rows among the sorted distinct (R, k) keys, R >= 1, of a census
    at composite n in bucket v (``_buckets``) of its Frobenius members, the
    monic original degree-n polynomials whose nonzero coefficients all sit
    at multiples of p, the characteristic.  There are q^(n/p - 1) of them
    when p | n, none otherwise; each F(x^p) is F composed with x^p, so all
    of them decompose.  They number at most the pairs of the split deg g =
    p, so the census's budget covers them.  Only those in bucket v are
    looked up, all of them at v = None: their coefficient at x^j, j = n -
    spf(n), is v.  It runs free with the others where spf(n) = p, so j = n
    - p, and is 0 where spf(n) < p."""
    import numpy as np

    spf = smallest_prime_factor(n)
    if n % p or (v and spf < p):
        return np.zeros(0, dtype=np.intp)
    fix = v is not None and spf == p
    free = n // p - 1 - fix
    # the codes of x up to x^(n-1), as the keys hold them: x^p, x^2p, ... run
    # free, but for x^(n-p), the last, when it is fixed at v
    digits = np.zeros((n - 1, q**free), dtype=np.min_scalar_type(q - 1))
    digits[p - 1 : n - 1 - p * fix : p] = np.indices((q,) * free, dtype=digits.dtype).reshape(free, q**free)
    if fix:
        digits[n - p - 1] = v
    at, found = _locate(keys, _pack(digits, q))
    return at[found]


def _profiles(counts):
    """How many columns of the (splits, R) counts have each set of nonzero
    rows, as {bit mask (row t is bit t): columns}, and each column sum, as
    {sum: columns}, both taken ``_TALLY_KEYS`` columns (keys) at a time."""
    import numpy as np

    bits = 1 << np.arange(len(counts))
    masks = np.zeros(1 << len(counts), dtype=np.intp)
    sums = np.zeros(len(counts) * int(counts.max(initial=0)) + 1, dtype=np.intp)
    for lo in range(0, counts.shape[1], _TALLY_KEYS):
        block = counts[:, lo : lo + _TALLY_KEYS]
        masks += np.bincount(bits @ (block > 0), minlength=len(masks))
        sums += np.bincount(_decompositions(block), minlength=len(sums))
    return tuple({k: c for k, c in enumerate(table.tolist()) if c} for table in (masks, sums))
