"""Shared pieces of the benchmark: environment set-up, running one operation
against the reference fingerprint, statistics, and the machine record."""
from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from collections import defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
J_TOL = 1e-10
CAL_REFERENCE = 1.5e-3  # seconds the calibration job takes at reference speed
CAL_EVERY = 0.05  # seconds of operation time per calibration job
CAL_MAX_REPEATS = 40
LOCAL_CALS = 10  # calibrations on each side of a sample that set its speed
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One thread: the workloads are then single-threaded like the calibration job,
# and neither feels contention on a second core. Also fixes the rounding of
# threaded BLAS kernels, which the byte-for-byte CLI artifacts depend on.
BLAS_THREADS = 1


def prepare(need_reference: bool = True) -> int:
    """Pin BLAS to BLAS_THREADS and put this checkout's `src` first on the
    import path. Must run before numpy is imported. Returns the thread count."""
    if not os.path.isfile(os.path.join(SRC, "mvmdp", "__init__.py")):
        raise SystemExit(f"error: no package source at {SRC}/mvmdp")
    if need_reference and not os.path.isfile(REFERENCE):
        raise SystemExit(f"error: reference fingerprint {REFERENCE} is missing")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    sys.path.insert(1, BENCH_DIR)
    return BLAS_THREADS


def load_reference(workload: str) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"][workload]


def execute(op, samples) -> dict:
    """Run one operation; an exception becomes an outcome, not a crash."""
    try:
        fingerprint = op.run(samples)
    except Exception as exc:  # the workload goes on; the class is compared with the reference
        return {"outcome": type(exc).__name__, "message": str(exc)[:300]}
    return {"outcome": "ok", **fingerprint}


def compare(ref: dict | None, got: dict) -> str:
    """'match', 'mismatch', 'expected-failure' (failed here and in the
    reference, same class) or 'recovered' (failed in the reference only)."""
    if ref is None:
        return "mismatch"
    if ref["outcome"] != "ok":
        if got["outcome"] == "ok":
            return "recovered"
        return "expected-failure" if got["outcome"] == ref["outcome"] else "mismatch"
    if got["outcome"] != "ok":
        return "mismatch"
    if "sha256" in ref:
        return "match" if got.get("sha256") == ref["sha256"] else "mismatch"
    j_ref, j_got = ref["j"], got.get("j", [])
    if len(j_ref) != len(j_got) or any(abs(a - b) > J_TOL for a, b in zip(j_ref, j_got)):
        return "mismatch"
    return "match" if got.get("actions") == ref["actions"] else "mismatch"


_CAL = {}


def calibrate() -> float:
    """Seconds taken by a fixed job of interpreter work and small and
    mid-sized dense linear algebra that does not touch the package."""
    import numpy as np

    if not _CAL:
        rng = np.random.default_rng(0)
        _CAL["small"] = rng.random((36, 36)) + 36 * np.eye(36)
        _CAL["mid"] = rng.random((160, 160))
    small, mid = _CAL["small"], _CAL["mid"]
    t0 = time.perf_counter()
    acc = 0
    for i in range(2500):
        acc += (i * 7) % 13
    for _ in range(30):
        np.linalg.solve(small, small[0])
    mid @ mid
    return time.perf_counter() - t0


class Tally:
    """Operation outcomes and timing samples of one run.

    `samples[name][key]` lists (seconds, c0, c1) for input `key`: the time
    measured, and the calibrations taken from just before it (c0) to just
    after it (c1).

    The shared host this benchmark was built on switches between a fast and
    a slow state (about 1.6 times slower) for seconds at a time, so after
    each operation the tally times the fixed `calibrate` job, about once per
    CAL_EVERY seconds of operation time. Each sample is scaled by its local
    speed: CAL_REFERENCE over the mean of the calibrations from LOCAL_CALS
    before it to LOCAL_CALS after it, which gives the time at the speed where
    the calibration job takes CAL_REFERENCE seconds. An input's time is the
    mean of its scaled repetitions (means, not medians, because the mean
    calibration time is what tracks a mixture of the two states), a group's
    (a CLI session, say) the sum of its members' times; `stat` gives the
    median or tail over inputs."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.samples = defaultdict(lambda: defaultdict(list))
        self.groups = defaultdict(lambda: defaultdict(set))
        self.calibrations = []
        self.attempted = self.failed = self.mismatches = self.recovered = 0
        self.problems = []
        self.census = defaultdict(int)  # verdicts of the census operations

    def calibrate(self, seconds: float) -> None:
        """Time the calibration job in proportion to `seconds` of work."""
        for _ in range(max(1, min(CAL_MAX_REPEATS, round(seconds / CAL_EVERY)))):
            self.calibrations.append(calibrate())

    @property
    def speed(self) -> float:
        """The run's mean speed, for the record; samples use their local speed."""
        return CAL_REFERENCE / statistics.mean(self.calibrations)

    def add(self, name, key, seconds, c0) -> None:
        """Record a sample timed after calibration c0, once its own
        calibrations have been taken."""
        self.samples[name][key].append((seconds, c0, len(self.calibrations)))

    def scaled(self, sample) -> float:
        seconds, c0, c1 = sample
        window = self.calibrations[max(0, c0 - LOCAL_CALS):c1 + LOCAL_CALS]
        return seconds * CAL_REFERENCE / statistics.mean(window)

    def _check(self, op, got) -> str:
        verdict = compare(self.reference.get(op.key), got)
        self.mismatches += verdict == "mismatch"
        self.recovered += verdict == "recovered"
        if verdict == "mismatch" and len(self.problems) < 5:
            self.problems.append({"key": op.key, "got": got, "reference": self.reference.get(op.key)})
        return verdict

    def run_census(self, ops) -> None:
        """Run the workload's census once: each result is checked against the
        reference (a mismatch makes the run incorrect), but neither counted
        as an operation nor timed."""
        for op in ops:
            got = execute(op, defaultdict(list))
            self.census[self._check(op, got)] += 1

    def run(self, op) -> float:
        local = defaultdict(list)
        c0 = len(self.calibrations)
        t0 = time.perf_counter()
        got = execute(op, local)
        wall = time.perf_counter() - t0
        self.calibrate(wall)
        verdict = self._check(op, got)
        self.attempted += 1
        self.failed += not (got["outcome"] == "ok" and verdict in ("match", "recovered"))
        for name, values in local.items():
            for seconds in values:
                self.add(name, op.key, seconds, c0)
        if got["outcome"] == "ok":  # timed even when the result mismatches; `correct` reports that
            self.add(op.kind, op.key, wall, c0)
        for name, key in op.groups:
            self.groups[name][key].add((op.kind, op.key))
        return wall

    def _input(self, runs):
        """(scaled, measured) mean seconds of one input's repetitions."""
        return statistics.mean(map(self.scaled, runs)), statistics.mean(s for s, _, _ in runs)

    def _per_input(self, name):
        """Per input (or group) of sample `name`: (scaled seconds, measured
        seconds, observations)."""
        if name in self.groups:
            out = []
            for members in self.groups[name].values():
                runs = [self.samples[kind][key] for kind, key in members]
                if all(runs):  # a group with a member that never succeeded has no time
                    times = [self._input(r) for r in runs]
                    out.append((sum(t for t, _ in times), sum(m for _, m in times), min(map(len, runs))))
            return out
        return [(*self._input(v), len(v)) for v in self.samples[name].values() if v]

    def stat(self, name, kind):
        """(scaled seconds, measured seconds, percentile, inputs, observations)
        of a sample: the median over inputs, or the tail."""
        per_input = self._per_input(name)
        if not per_input:
            raise SystemExit(f"error: no successful '{name}' operation to time")
        if kind == "tail":
            (value, pct), (measured, _) = tail([t for t, _, _ in per_input]), tail([m for _, m, _ in per_input])
        else:
            value, measured, pct = statistics.median(t for t, _, _ in per_input), \
                statistics.median(m for _, m, _ in per_input), 50.0
        return value, measured, pct, len(per_input), sum(n for _, _, n in per_input)


def tail(values):
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest value. Below 21 samples no percentile at or above the
    median has ten beyond it, and the maximum is reported instead."""
    xs = sorted(values)
    n = len(xs)
    if n > 20:
        return xs[n - 11], 100.0 * (n - 10) / n
    return xs[-1], 100.0


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(blas_threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": blas_threads,
        "commit": git_commit(),
    }
