"""Pin the default seed's outputs: one digest per query, per workload.

Run from the repository root, only after a change that is meant to alter
output, and only when every answer check passes::

    python3 bench/record_outputs.py

Queries marked as known defects are left out, so fixing one does not
trip its digest.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import child_env, spawn


def main() -> int:
    env = child_env()
    pinned = {}
    for name in workloads.WORKLOADS:
        _, result = spawn(env, name, workloads.DEFAULT_SEED, False)
        unexpected = [f for f in result["failures"] if not f["known_defect"]
                      and f["problems"] != [workloads.DIGEST_PROBLEM]]
        if unexpected:
            print(f"{name}: not recording, answers fail: {unexpected}", file=sys.stderr)
            return 1
        pinned[name] = result["digests"]
        print(f"{name}: {len(result['digests'])} outputs pinned")
    workloads.EXPECTED_OUTPUTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
