"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts it as::

    python3 bench/child.py <workload | -> <seed> <trace 0|1> <spans file | ->

with the repository's ``src`` on ``PYTHONPATH``.  It prints ``ready`` the
moment ``import ffcount.cli`` returns, which ends set-up; a workload of ``-``
stops there.  Otherwise it runs the workload's queries back to back (timed,
and traced when asked), records the peak resident set, runs the answer
checks, and prints one JSON line with the results.
"""

import sys

import ffcount.cli  # noqa: F401  set-up ends when this import returns

MODULES_AT_SETUP = len(sys.modules)
NUMPY_AT_SETUP = "numpy" in sys.modules
print("ready", flush=True)

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402
from tracer import HARNESS, LAYERS, Tracer  # noqa: E402


# The observers below run inside traced calls, so they use their own helpers
# (and the unwrapped count_monic) rather than ffcount's traced ones.
def _divisors(n: int) -> list[int]:
    return [e for e in range(2, n) if n % e == 0]


def _is_prime(n: int) -> bool:
    return n >= 2 and not _divisors(n)


def install_tracer() -> tuple[Tracer, dict]:
    """A tracer over every ffcount layer, and the counters its observers fill.

    Witnesses are the pairs or products the oracle composes, computed from
    ``count_monic`` the way the oracle sizes its own budget checks; cached
    key builders count only on a cache miss.  ``distinct`` is the number of
    distinct polynomials those witnesses gave.
    """
    from ffcount import ff, oracle

    tr = Tracer()
    counts = {"witnesses": 0, "distinct": 0, "field_build_s": 0.0}
    count_monic = ff.count_monic

    def reducible(ctx, r, n):
        total = 0
        for d in range(1, n // 2 + 1):
            a, b = count_monic(ctx.q, r, d), count_monic(ctx.q, r, n - d)
            total += a * (a + 1) // 2 if d == n - d else a * b
        return total

    def powerful(ctx, r, n, s):
        return sum(count_monic(ctx.q, r, a) * count_monic(ctx.q, r, n - a * s) for a in range(1, n // s + 1))

    def rel_irreducible(ctx, r, n):
        return sum(count_monic(ctx.q**t, r, n // t) for t in _divisors(n) + [n] if _is_prime(t))

    def on_miss(cached, witnesses):
        def around(call, args, kwargs):
            misses = cached.cache_info().misses
            keys = call(*args, **kwargs)
            if cached.cache_info().misses > misses:
                counts["witnesses"] += witnesses(*args)
                counts["distinct"] += len(keys)
            return keys

        return around

    for name, witnesses in (("_reducible_keys", reducible), ("_powerful_keys", powerful),
                            ("_rel_irreducible_keys", rel_irreducible)):
        tr.around[f"oracle.{name}"] = on_miss(getattr(oracle, name), witnesses)

    def census(call, args, kwargs):
        rep = call(*args, **kwargs)
        n, ctx = args[0], args[1]
        counts["witnesses"] += sum(ctx.q ** (e - 1) * ctx.q ** (n // e - 1) for e in _divisors(n))
        counts["distinct"] += rep.total
        return rep

    def mv_decomp(call, args, kwargs):
        found = call(*args, **kwargs)
        r, n, ctx = args[0], args[1], args[2]
        counts["witnesses"] += sum(ctx.q ** (e - 1) * count_monic(ctx.q, r, n // e, original=True)
                                   for e in _divisors(n) + [n])
        counts["distinct"] += found
        return found

    def field_build(call, args, kwargs):
        t0 = perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            counts["field_build_s"] += perf_counter() - t0

    tr.around["oracle.oracle_decomp_census"] = census
    tr.around["oracle.oracle_mv_decomp"] = mv_decomp
    tr.around["ff.FieldCtx.__init__"] = field_build
    tr.install()
    return tr, counts


def _cache_totals(tr: Tracer) -> tuple[int, int]:
    hits = misses = 0
    for name, fn in tr.originals.items():
        if name.startswith("mv_counts.") and hasattr(fn, "cache_info"):
            info = fn.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
    return hits, misses


def layer_metrics(tr: Tracer, counts: dict, caches_before: tuple[int, int]) -> dict:
    m = {f"{layer}.self_s": tr.self_s.get(layer, 0.0) for layer in LAYERS}
    m["harness.self_s"] = tr.self_s.get(HARNESS, 0.0)
    m["trace.wall_s"] = tr.root_s
    m["trace.spans"] = len(tr.sp_name)
    for layer in ("qrat", "uv_counts", "ff"):
        m[f"{layer}.calls"] = tr.layer_calls(layer)
    m["qrat.symrat_builds"] = tr.calls.get("qrat.SymRat.__init__", 0)
    m["series.compositions"] = tr.yields.get("series.compositions", 0)
    hits, misses = (now - before for now, before in zip(_cache_totals(tr), caches_before))
    m["mv_counts.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["uv_families.families_built"] = tr.calls.get("uv_families.CollisionFamily.__init__", 0)
    m["ff.polys_enumerated"] = (tr.yields.get("ff.enumerate_monic_uni", 0)
                                + tr.yields.get("ff.enumerate_monic_mv", 0))
    m["ff.field_build_s"] = counts["field_build_s"]
    m["oracle.witnesses"] = counts["witnesses"]
    m["oracle.distinct_ratio"] = counts["distinct"] / counts["witnesses"] if counts["witnesses"] else 0.0
    m["cli.modules_at_setup"] = MODULES_AT_SETUP
    m["cli.numpy_at_setup"] = int(NUMPY_AT_SETUP)
    return m


def main() -> int:
    name, seed, trace, spans_path = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    if name == "-":
        return 0
    wl = workloads.build(name, seed)
    tr, counts = install_tracer() if trace else (None, None)
    caches_before = _cache_totals(tr) if tr else None
    records = {}

    def run_all():
        for i, query in enumerate(wl.queries):
            if tr:
                tr.query = i
            records[query.qid] = query.run()

    t0 = perf_counter()
    if tr:
        tr.run_root(run_all)
    else:
        run_all()
    wall = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"wall_s": wall, "peak_rss_mb": peak_rss_mb, "attempted": len(wl.queries),
              "numpy": getattr(sys.modules.get("numpy"), "__version__", None)}
    problems = []  # (qid, problem, known defect)
    if tr:
        result["layers"] = layer_metrics(tr, counts, caches_before)
        accounted = sum(tr.self_s.values())
        if abs(accounted - tr.root_s) > 1e-6 * max(1.0, tr.root_s):
            problems.append(("<trace>", f"self times sum to {accounted}, root span is {tr.root_s}", ""))
        if spans_path != "-":
            tr.write_spans(spans_path, [q.qid for q in wl.queries])

    checker = workloads.Checker(wl.queries, records)
    try:
        wl.check(checker)
    except Exception as exc:  # a crashed checker fails the run, it does not hide it
        problems.append(("<checks>", f"checker crashed: {type(exc).__name__}: {exc}", ""))
    problems += checker.problems

    digests = {q.qid: hashlib.sha256(records[q.qid].out.encode()).hexdigest()[:16]
               for q in wl.queries if not q.known_defect}
    if seed == workloads.DEFAULT_SEED:
        expected = json.loads(workloads.EXPECTED_OUTPUTS.read_text()).get(name, {})
        problems += [(qid, workloads.DIGEST_PROBLEM, "") for qid, digest in expected.items()
                     if digests.get(qid) != digest]

    # a query's failure is known only if every one of its problems is
    failures = {}
    for qid, problem, known in problems:
        entry = failures.setdefault(qid, {"qid": qid, "known_defect": known, "problems": []})
        entry["problems"].append(problem)
        if not known:
            entry["known_defect"] = ""
    result["failures"] = list(failures.values())
    result["digests"] = digests
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
