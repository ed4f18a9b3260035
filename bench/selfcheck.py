"""Checks on the benchmark itself.

    python3 bench/selfcheck.py

1. The threshold start is irreducible (one strongly connected class and one
   closed class) at every battery capacity and scenario the workloads use.
2. The fingerprint check accepts a real result and flags the same reference
   with `j_combined` perturbed by 1e-9.
3. Two traced passes over the same operations give identical exact counts,
   `factorizations_per_eval` among them, and the tracer restores every
   binding it replaced.

Exits 1 if any check fails.
"""
from __future__ import annotations

import copy
import sys
from collections import defaultdict

import harness

EXACT_COUNTS = (
    "evaluation.factorizations_per_eval",
    "evaluation.evaluate_calls",
    "solvers.evals_per_start",
    "solvers.iterates_per_start",
    "model.sample_draws",
    "model.induced_chain_calls",
)


def check_threshold_starts(workloads, mvmdp):
    ok = True
    for battery in (5, 50, 200):
        for scen in workloads.SCENARIOS:
            spec, model = workloads.build_model(battery, scen)
            P, _ = mvmdp.induced_chain(model, workloads.threshold_policy(spec, model))
            good = mvmdp.is_irreducible(P) and mvmdp.closed_class_count(P) == 1
            print(f"threshold start B={battery} {scen}: {'irreducible' if good else 'NOT irreducible'}")
            ok &= good
    return ok


def check_fingerprint(workloads):
    workload = workloads.WORKLOADS["paper-b5"]
    workload.setup(harness.ROOT)
    reference = harness.load_reference("paper-b5")
    op = next(op for op in workload.pool() if op.key == "gd|no-abandon")
    got = harness.execute(op, defaultdict(list))
    perturbed = copy.deepcopy(reference[op.key])
    perturbed["j"][0] += 1e-9
    plain, flagged = harness.compare(reference[op.key], got), harness.compare(perturbed, got)
    print(f"fingerprint: reference -> {plain}, reference j_combined + 1e-9 -> {flagged}")
    return plain == "match" and flagged == "mismatch"


def check_trace_counts(workloads, tracing):
    import mvmdp.solvers

    workload = workloads.WORKLOADS["wind-b50"]
    workload.setup(harness.ROOT)
    original = mvmdp.solvers.evaluate
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            for op in workload.round(0, 0):
                harness.execute(op, defaultdict(list))
        layers = tracing.layer_metrics(tracer.spans)
        counts.append({k: layers[k] for k in EXACT_COUNTS})
    print(f"traced counts: {counts[0]}")
    same = counts[0] == counts[1]
    restored = mvmdp.solvers.evaluate is original
    print(f"traced counts repeat exactly: {same}; bindings restored: {restored}")
    return same and restored


def main() -> int:
    harness.prepare()
    import mvmdp
    import tracing
    import workloads

    results = [
        check_threshold_starts(workloads, mvmdp),
        check_fingerprint(workloads),
        check_trace_counts(workloads, tracing),
    ]
    print("selfcheck:", "PASS" if all(results) else "FAIL")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
