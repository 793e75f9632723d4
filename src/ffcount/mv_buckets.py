"""The groups of the multivariate decomposable count (see
``oracle.oracle_mv_decomp``), and the count itself.

Its pairs fall into classes by f's top homogeneous part f_n = (h_m)^e,
which ``_mv_groups`` reads off the monic forms of each split before any
pair is composed, and whose consecutive classes it takes together in groups
through ``buckets._groups``, the grouping the census shares; ``_mv_count``
composes and counts one group at a time.  It is a module of its own,
imported on first use, so that neither a census, which imports ``buckets``,
nor a process that imports ``oracle`` alone compiles it.
"""

from __future__ import annotations

import itertools
from math import comb

from . import buckets
from .ff import FieldCtx, _deglex_monomials, count_monic
from .oracle import (
    _compositions, _digits_per_word, _monic_rows, _pack, _powers, _run_count, _run_starts, _sort, _view,
)


def _mv_groups(ctx: FieldCtx, r: int, n: int, splits):
    """The groups of a multivariate decomposable count (see
    ``oracle.oracle_mv_decomp``) as ``(size, groups)``: the pairs of the
    largest group, and an iterator that builds each group in turn as {e:
    pick}, for each split e with pairs in the group the ascending ranks of
    its h's there (``_compositions``'s ``pick``), or None where the group
    takes every h of the split.  One group holds every pair when they
    number at most ``buckets._BUCKET_PAIRS``.

    Each pair's class is f_n = t^e, t the top part of its h, a monic form
    of degree m = n / e, so only the forms are built and raised to the e-th
    power.  In ``_monic_rows`` order the h's whose leading monomial is
    monomial ``lead`` of the k of degree m run through their k - 1 - lead
    other top slots fastest: the h's with top part t have ranks T + s i, i
    < q^low, where T is the rank of t itself as an h (its lower slots 0), s
    = q^(k - 1 - lead) and low counts h's free slots below degree m.  So a
    class holds q^low h's of each of its forms, each with the q^(e - 1)
    g's, and a group's picks are built a leading monomial at a time."""
    import numpy as np

    q = ctx.q
    total = sum(q ** (e - 1) * count_monic(q, r, n // e, original=True) for e in splits)
    if total <= buckets._BUCKET_PAIRS:
        return total, iter([dict.fromkeys(splits)])
    keys, members, layout = [], [], []  # members: each form's (split, rank, pairs)
    for t, e in enumerate(splits):
        m = n // e
        k = comb(r + m - 1, r - 1)
        low = comb(r + m, r) - 1 - k  # h's free slots below degree m
        strides = [q ** (k - 1 - lead) for lead in range(k)]
        bases = list(itertools.accumulate((s * q**low for s in strides[:-1]), initial=0))
        tops = np.concatenate([base + np.arange(s) for base, s in zip(bases, strides)])
        forms = _monic_rows(q, r, m, original=True, pick=tops)  # the h's with lower slots 0
        keys.append(_pack(_powers(ctx, r, m, e, forms)[-1][: comb(r + n - 1, r - 1)], q))
        members.append(np.stack([np.full(len(tops), t), tops, np.full(len(tops), q ** (low + e - 1))]))
        layout.append((e, bases, strides, q**low, len(tops)))
    keys, members = np.concatenate(keys), np.concatenate(members, axis=1)
    order = np.argsort(_view(keys))
    members = members[:, order]
    starts = np.flatnonzero(_run_starts(keys[order]))
    classes = np.add.reduceat(members[2], starts).tolist()
    groups = buckets._groups(classes)
    bounds = np.append(starts, len(order))

    def picks(group):
        split, rank = members[:2, bounds[group.start] : bounds[group.stop]]
        out = {}
        for t, (e, bases, strides, h_per_form, n_forms) in enumerate(layout):
            sel = np.sort(rank[split == t])
            if len(sel) == n_forms:
                out[e] = None
            elif len(sel):
                out[e] = np.concatenate([
                    (np.arange(h_per_form) * s)[:, None] + sel[slice(*np.searchsorted(sel, [b, b + s]))]
                    for b, s in zip(bases, strides)
                ], axis=None)
        return out

    return max(sum(classes[g.start : g.stop]) for g in groups), map(picks, groups)


def _mv_count(ctx: FieldCtx, r: int, n: int, splits) -> int:
    """The distinct compositions of ``oracle.oracle_mv_decomp``, counted a
    group (``_mv_groups``) at a time: each group's keys are packed block by
    block into the front of one key array sized for the largest group,
    sorted there and counted."""
    import numpy as np

    q = ctx.q
    width = len(_deglex_monomials(r, n))
    # the constant slot is last and always 0
    words = -(-(width - 1) // _digits_per_word(q))
    size, groups = _mv_groups(ctx, r, n, splits)
    keys = np.empty((size, words), dtype=np.uint64)
    count = 0
    for picks in groups:
        at = 0
        for e, pick in picks.items():
            for codes, h_rank, g_rank in _compositions(ctx, r, n, e, range(width - 1), pick=pick):
                m = len(h_rank) * len(g_rank)
                _pack(codes, q, keys[at : at + m].reshape(len(h_rank), len(g_rank), words))
                at += m
        _sort(keys[:at])
        count += _run_count(keys[:at])
    return count
