"""Time and size the enumeration oracles and the degree-p^2 classifier in one
interpreter.

Usage::

    python3 tools/oracle_probe.py <src dir>

``<src dir>`` is the directory that holds the ``ffcount`` package to probe
(``src`` of a checkout), so two checkouts can be compared case by case.
For each fixed case below it makes one warm-up call, which also imports
numpy and builds the field's code tables, then prints one JSON line: the
minimum of 10 timed warm calls in ms, and the tracemalloc peak of one
further call divided by the case's items, in bytes per item.  An item is a
composed pair for the composition oracles, a reducible key for the
relatively irreducible keys (built uncached, with the reducible keys that
the warm-up call cached), an indexed family polynomial for the classifier's
family index (built cold, its cache cleared before each call), and an
(f, h) pair for the classifier.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

CALLS = 10
# (oracle, r, n, p, d): r = None is the univariate census
CASES = [
    ("census", None, 25, 5, 1),
    ("census", None, 12, 2, 3),
    ("census", None, 9, 3, 3),
    ("mv", 2, 4, 13, 1),
    ("mv", 2, 7, 2, 3),
    ("mv", 1, 6, 2, 4),
    ("rel_irreducible", 2, 5, 2, 1),
    ("rel_irreducible", 4, 3, 2, 1),
    ("family_index", None, None, 7, 1),
    ("family_index", None, None, 2, 8),
    ("classify_census", None, 25, 5, 1),
]


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python3 tools/oracle_probe.py <src dir>", file=sys.stderr)
        return 2
    sys.path.insert(0, sys.argv[1])
    import ffcount.oracle as orc
    import ffcount.uv_families as uf
    from ffcount.ff import count_monic, field_make
    from ffcount.series import divisors

    def family_index(ctx):
        uf._family_index.cache_clear()
        return uf._family_index(ctx)

    for oracle, r, n, p, d in CASES:
        ctx = field_make(p, d)
        q = ctx.q
        if oracle == "census":
            item = "pair"
            items = sum(q ** (e - 1) * q ** (n // e - 1) for e in divisors(n) if 1 < e < n)
            call = lambda: orc.oracle_decomp_census(n, ctx)  # noqa: E731
        elif oracle == "mv":
            item = "pair"
            items = sum(q ** (e - 1) * count_monic(q, r, n // e, original=True) for e in divisors(n) if e > 1)
            call = lambda: orc.oracle_mv_decomp(r, n, ctx)  # noqa: E731
        elif oracle == "rel_irreducible":
            item = "reducible key"
            items = len(orc._reducible_keys(ctx, r, n))
            call = lambda: orc._rel_irreducible_keys.__wrapped__(ctx, r, n)  # noqa: E731
        elif oracle == "family_index":
            item = "family polynomial"
            items = sum(params.shape[1] for _, params in family_index(ctx).values())
            call = lambda: family_index(ctx)  # noqa: E731
        else:
            item = "(f, h) pair"
            rep = orc.oracle_decomp_census(n, ctx)
            items = len(rep.collisions.codes) * q ** (p - 1)
            call = lambda: uf.classify_census(rep)  # noqa: E731
        call()
        best = float("inf")
        for _ in range(CALLS):
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        case = " ".join([oracle] + [f"{k}={v}" for k, v in (("r", r), ("n", n)) if v is not None] + [f"F_{q}"])
        print(json.dumps({"case": case, "item": item, "items": items, "min_ms": round(best * 1e3, 1),
                          "bytes_per_item": round(peak / items, 2)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
