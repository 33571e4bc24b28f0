#!/usr/bin/env python3
"""Record the reference outcome of every call any seed can produce.

    python3 bench/record.py

Runs every pool variant of every workload through the CLI, as the benchmark
does, and writes bench/references.json: call key -> [exit code, sha256 of
stdout].  Run it only at a commit whose outputs are known to be right; the
references then hold later commits to byte-identical output.  A call whose
exit code is not the one the workload expects stops the recording.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    env = run.child_env()
    references = {}
    for name in workloads.WORKLOADS:
        calls = workloads.pool(name, run.OUT / "pool" / name, run.ROOT / "corpus")
        for call in calls:
            o = run.run_call(call, env)
            if o.exit != call.expect_exit:
                print(f"error: {' '.join(call.argv)} exited {o.exit}, expected {call.expect_exit}",
                      file=sys.stderr)
                return 1
            references[call.key] = [o.exit, o.digest]
        print(f"{name}: {len(calls)} calls", file=sys.stderr)
    checks.REFERENCES.write_text(json.dumps(
        {"variants_per_slot": workloads.POOL_VARIANTS, "calls": references},
        indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
