"""Time and size the composition oracles in one interpreter.

Usage::

    python3 tools/oracle_probe.py <src dir>

``<src dir>`` is the directory that holds the ``ffcount`` package to probe
(``src`` of a checkout), so two checkouts can be compared case by case.
For each fixed case below it makes one warm-up call, which also imports
numpy and builds the field's code tables, then prints one JSON line: the
minimum of 10 timed warm calls in ms, and the tracemalloc peak of one
further call divided by the case's composed pairs, in bytes per pair.
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
]


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, sys.argv[1])
    from ffcount.ff import count_monic, field_make
    from ffcount.oracle import oracle_decomp_census, oracle_mv_decomp
    from ffcount.series import divisors

    for oracle, r, n, p, d in CASES:
        ctx = field_make(p, d)
        q = ctx.q
        if oracle == "census":
            pairs = sum(q ** (e - 1) * q ** (n // e - 1) for e in divisors(n) if 1 < e < n)
            call = lambda: oracle_decomp_census(n, ctx)  # noqa: E731
        else:
            pairs = sum(q ** (e - 1) * count_monic(q, r, n // e, original=True) for e in divisors(n) if e > 1)
            call = lambda: oracle_mv_decomp(r, n, ctx)  # noqa: E731
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
        case = f"{oracle} r={r} n={n} F_{q}" if r else f"{oracle} n={n} F_{q}"
        print(json.dumps({"case": case, "pairs": pairs, "min_ms": round(best * 1e3, 1),
                          "bytes_per_pair": round(peak / pairs, 2)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
