"""The ffcount benchmark: one command per workload, every answer checked.

Run from the repository root::

    python3 bench/run.py --workload {symbolic,census,mv_oracle} --seed N --seconds S --trace {0,1}

Each repetition is one fresh interpreter (``child.py``) that answers the
workload's whole query list; repetitions run one after another (a closed
loop, one client) until ``--seconds`` have passed.  A few extra interpreters
only import the package, so set-up time has enough samples.

End-to-end metrics (``--trace 0``), each the median over the run:

* ``setup_s``: spawning the interpreter until ``import ffcount.cli``
  returns, timed from this process; every CLI invocation pays it.
* ``wall_s``: time to answer the whole query list after set-up.
* ``peak_rss_mb``: the child's peak resident set at the end of the queries.
* ``correct_frac``: queries answered correctly / queries attempted.  A
  query fails on a nonzero exit, an exception or a failed answer check.

With ``--trace 1`` each repetition runs twice, untraced and traced, and the
per-layer metrics come from the traced one (see ``tracer.py``); the spans
of the last traced repetition go to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Failed queries are
counted in ``failed``; ``correct`` is false when any query fails that is not
a known defect named in ``workloads.py``, or when the trace does not add up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 10  # import-only interpreters per run, on top of one per repetition
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "correct_frac": "ratio"}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    """The child's environment: package from this checkout, pinned hashing
    (census keys are bytes), one BLAS thread, the default enumeration budget."""
    env = dict(os.environ)
    env.pop("FFCOUNT_BUDGET", None)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(env: dict, workload: str, seed: int, trace: bool, spans: str = "-") -> tuple[float, dict]:
    """Run one child; return its set-up time and its result (empty for a
    set-up probe)."""
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), "1" if trace else "0", spans]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{err.strip()}")
    if workload == "-":
        return setup, {}
    return setup, json.loads(out.strip().splitlines()[-1])


def git_revision() -> str:
    """HEAD of this checkout; the ceiling keeps git from finding a repository
    above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"min {min(values):.4g}, max {max(values):.4g}, n={len(values)}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "ffcount" / "cli.py").is_file():
        print(f"error: no ffcount sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    trace = bool(args.trace)
    spans = str(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    try:
        setups = [spawn(env, "-", args.seed, False)[0] for _ in range(SETUP_PROBES)]
        plain, traced = [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < args.seconds:
            setup, result = spawn(env, args.workload, args.seed, False)
            setups.append(setup)
            plain.append(result)
            if trace:
                setup, result = spawn(env, args.workload, args.seed, True, spans)
                setups.append(setup)
                traced.append(result)
    except (ChildFailed, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: a benchmark child failed: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    unexpected = [f for r in reps for f in r["failures"] if not f["known_defect"]]
    walls = [r["wall_s"] for r in plain]
    rss = [r["peak_rss_mb"] for r in plain]
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "correct_frac": 1 - failed / attempted,
    }

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} repetitions of "
          f"{plain[0]['attempted']} queries, one client, closed loop"
          + (f", plus {len(traced)} traced" if trace else ""))
    print(f"  setup_s      {e2e['setup_s']:.4f} s   median; {spread(setups)}")
    print(f"  wall_s       {e2e['wall_s']:.4f} s   median; {spread(walls)}")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB  median; {spread(rss)}")
    print(f"  failed_frac  {failed / attempted:.4f}     {failed} of {attempted} queries failed")
    seen = set()
    for f in (f for r in reps for f in r["failures"]):
        if f["qid"] not in seen:
            seen.add(f["qid"])
            tag = "known defect" if f["known_defect"] else "FAILED"
            print(f"    {tag}: {f['qid']}: {'; '.join(f['problems'])}")

    if trace:
        layers = {key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
        layers["trace.overhead_ratio"] = layers["trace.wall_s"] / e2e["wall_s"]
        print("  per layer (median of traced repetitions):")
        for key, value in layers.items():
            print(f"    {key:28s} {value:.6g}")
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    env_record = {"nproc": os.cpu_count(), "cpu": cpu_model(), "python": platform.python_version(),
                  "numpy": plain[0]["numpy"], "git": git_revision(), "seed": args.seed,
                  "workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    print("  environment " + json.dumps(env_record))
    details = {"environment": env_record, "setup_s": setups, "repetitions": plain,
               "traced": traced, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1))
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def per_layer_unit(key: str) -> str:
    return "s" if key.endswith("_s") else "ratio" if key.endswith("ratio") else "count"


if __name__ == "__main__":
    sys.exit(main())
