"""Self-test of the benchmark harness: a corrupted answer counts as failed.

Run from the repository root::

    python3 bench/selftest.py

For one query of each workload it runs the real query in-process, checks
that the answer passes, then corrupts the answer and checks that exactly
that corruption is reported against the query.  It also checks that a query
which raises is a failed query, not a crash.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def _subset(name: str, **match):
    """The workload's queries whose params match, and its checks."""
    wl = workloads.build(name, workloads.DEFAULT_SEED)
    return [q for q in wl.queries if all(q.params.get(k) == v for k, v in match.items())], wl.check


def _failed(queries, records, check) -> set[str]:
    ck = workloads.Checker(queries, records)
    check(ck)
    return {qid for qid, _, known in ck.problems if not known}


def _corrupt(record: workloads.Record, edit) -> workloads.Record:
    data = json.loads(record.out)
    edit(data)
    return workloads.Record(record.rc, json.dumps(data), record.err)


def expect_caught(name: str, target: str, edit, **match) -> None:
    queries, check = _subset(name, **match)
    records = {q.qid: q.run() for q in queries}
    clean = _failed(queries, records, check)
    if clean:
        raise AssertionError(f"{name}: uncorrupted answers failed: {sorted(clean)}")
    records[target] = _corrupt(records[target], edit)
    caught = _failed(queries, records, check)
    if target not in caught:
        raise AssertionError(f"{name}: corrupted {target!r} was not counted as failed")
    print(f"ok  {name}: corrupted answer of {target!r} counted as failed")


def main() -> int:
    queries, _ = _subset("symbolic", cmd="count", r=2, n=3)
    irr = next(q.qid for q in queries if q.params["cls"] == "irreducible" and q.params["q"])

    def bump_exact(data):
        data["exact"] = str(int(data["exact"]) + 1)

    expect_caught("symbolic", irr, bump_exact, cmd="count", r=2, n=3)

    queries, _ = _subset("census", cmd="census", n=4)

    def bump_total(data):
        data["total"] = str(int(data["total"]) + 1)

    expect_caught("census", queries[0].qid, bump_total, cmd="census", n=4)

    queries, _ = _subset("mv_oracle", cmd="verify", r=2, n=2, q=2)
    red = next(q.qid for q in queries if q.params["cls"] == "reducible")

    def bump_oracle(data):
        data["oracle"] = str(int(data["oracle"]) + 1)

    expect_caught("mv_oracle", red, bump_oracle, cmd="verify", r=2, n=2, q=2)

    def boom():
        raise RuntimeError("boom")

    raising = workloads.call_query("raises", boom, cmd="census", n=4, q=2)
    rec = raising.run()
    if rec.rc == 0 or "boom" not in rec.err:
        raise AssertionError("a raising query was not recorded as failed")
    _, census_check = _subset("census")
    if "raises" not in _failed([raising], {"raises": rec}, census_check):
        raise AssertionError("a raising query was not counted as failed")
    print("ok  a query that raises is counted as failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
