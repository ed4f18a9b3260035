"""Benchmark entry point.

    python3 bench/run.py --workload paper-b5 --seed 1 --seconds 25 --trace 0

Runs one workload in this process against the package under `src/`. With
`--trace 0` it sets the workload up several times (median is `setup_s`),
then runs rounds of the workload's operations until `--seconds` have passed
and at least one round is complete, then the workload's census once (see
`workloads.Workload.census`), and reports the end-to-end metrics, scaled to
reference machine speed (see `harness.Tally`). With `--trace 1` it runs one
round untraced, the set-up, the same round and the census traced, and the
round untraced again, and reports the per-layer metrics of the traced pass
plus the tracing overhead.

Every operation is checked against `reference.json`. The next-to-last line
of standard output is a JSON report with the machine record and the
workload's own metrics, each with unit and sample count; the last line is
the result: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import harness

SETUP_EVERY = 20  # set up again after the block that ends each 1/SETUP_EVERY of the run
SETUP_MIN = 5


def _setup(workload, name):
    """Set the workload up; returns (reference, seconds taken)."""
    t0 = time.perf_counter()
    reference = harness.load_reference(name)
    workload.setup(harness.ROOT)
    return reference, time.perf_counter() - t0


def _round(tally, workload, seed, r) -> float:
    return sum(tally.run(op) for op in workload.round(seed, r))


def measure(workload, name, seed, seconds):
    """Set-ups are spread over the run, between blocks, so that they meet the
    same machine conditions as the operations and the calibration job."""
    reference, took = _setup(workload, name)
    tally = harness.Tally(reference)
    tally.calibrate(took)
    tally.add("setup", "setup", took, 0)

    def setup_again():
        c0 = len(tally.calibrations)
        _, took = _setup(workload, name)
        tally.calibrate(took)
        tally.add("setup", "setup", took, c0)

    t0 = last_setup = time.perf_counter()
    r = 0
    while True:
        for block in workload.round_blocks(seed, r):
            if r > 0 and time.perf_counter() - t0 >= seconds:
                break
            for op in block:
                tally.run(op)
            if time.perf_counter() - last_setup >= seconds / SETUP_EVERY:
                setup_again()
                last_setup = time.perf_counter()
        r += 1
        if time.perf_counter() - t0 >= seconds:
            break
    setups = tally.samples["setup"]["setup"]
    while len(setups) < SETUP_MIN:
        setup_again()
    tally.run_census(workload.census())

    setup_s = statistics.median(map(tally.scaled, setups))
    rss = harness.peak_rss_mb()
    report = {
        "setup_s": {"value": setup_s, "measured": statistics.median(s for s, _, _ in setups), "unit": "s",
                    "samples": len(setups)},
        "peak_rss_mb": {"value": rss, "unit": "MB", "samples": 1},
        "failed_ratio": {"value": tally.failed / tally.attempted, "unit": "ratio", "samples": tally.attempted},
    }
    if workload.census_of:
        report["census_failed_ratio"] = {"value": tally.census["expected-failure"] / workload.census_of,
                                         "unit": "ratio", "samples": workload.census_of}

    def entry(sample, kind, scale, unit):
        value, measured, pct, inputs, observations = tally.stat(sample, kind)
        out = {"value": value * scale, "measured": measured * scale, "unit": unit,
               "samples": observations, "inputs": inputs}
        if kind == "tail":
            out["percentile"] = pct
        return out

    for metric, sample, kind, scale, unit in workload.report:
        report[metric] = entry(sample, kind, scale, unit)
    report["op_ms_tail"] = entry(workload.headline, "tail", 1e3, "ms")
    op_p50, aux_p50 = entry(workload.headline, "p50", 1e3, "ms"), entry(workload.aux, "p50", 1e3, "ms")
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ms_p50": {"value": op_p50["value"], "unit": "ms"},
        "aux_ms_p50": {"value": aux_p50["value"], "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    extra = {"rounds": r, "speed": tally.speed, "calibrations": len(tally.calibrations),
             "op_sample": workload.headline, "aux_sample": workload.aux, "op_ms_p50": op_p50, "aux_ms_p50": aux_p50}
    return tally, report, metrics, extra


def traced(workload, name, seed):
    import tracing

    reference, _ = _setup(workload, name)
    tally = harness.Tally(reference)
    untraced = [_round(tally, workload, seed, 0)]
    with tracing.Tracer() as tracer:
        workload.setup(harness.ROOT)
        workload.bytes_written = 0
        traced_wall = _round(tally, workload, seed, 0)
        tally.run_census(workload.census())
    bytes_written = workload.bytes_written
    untraced.append(_round(tally, workload, seed, 0))
    layers = tracing.layer_metrics(tracer.spans)
    layers["cli.bytes_written"] = bytes_written
    baseline = min(untraced)  # the first untraced round also pays one-time warm-up costs
    layers["trace.overhead_ratio"] = traced_wall / baseline
    metrics = {k: {"value": v, "unit": tracing.layer_unit(k)} for k, v in layers.items()}
    extra = {"spans": len(tracer.spans), "traced_round_s": traced_wall, "untraced_round_s": untraced,
             "overhead_s": traced_wall - baseline}
    return tally, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    blas_threads = harness.prepare()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": harness.machine_record(blas_threads),
    }
    if args.trace:
        tally, metrics, extra = traced(workload, args.workload, args.seed)
        record.update(extra)
        record["per_layer"] = metrics
    else:
        tally, report, metrics, extra = measure(workload, args.workload, args.seed, args.seconds)
        record.update(extra)
        record["workload_metrics"] = report
        record["end_to_end"] = metrics
    record.update(attempted=tally.attempted, failed=tally.failed, mismatches=tally.mismatches,
                  recovered=tally.recovered, census=dict(tally.census), problems=tally.problems)
    print(json.dumps(record))
    print(json.dumps({"correct": tally.mismatches == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
