"""Regenerate `reference.json`, the fingerprint every benchmark run is
checked against, by running every operation in every workload's input pool.

    python3 bench/make_reference.py

Regenerate it only on purpose: the reference pins the results of the code it
was made from, and a performance change must reproduce them, not replace them.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import harness


def main() -> int:
    blas_threads = harness.prepare(need_reference=False)
    import workloads

    out = {"machine": harness.machine_record(blas_threads), "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        t0 = time.perf_counter()
        workload.setup(harness.ROOT)
        entries = {}
        for op in workload.pool():
            got = harness.execute(op, defaultdict(list))
            got.pop("message", None)
            entries[op.key] = got
        out["workloads"][name] = entries
        failures = sum(e["outcome"] != "ok" for e in entries.values())
        print(f"{name}: {len(entries)} operations, {failures} failed, {time.perf_counter() - t0:.1f} s",
              file=sys.stderr)
    with open(harness.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
