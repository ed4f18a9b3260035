"""Span tracer for the traced run, and the per-layer metrics derived from it.

The tracer rebinds public functions of the package from the outside: each
target is looked up by module and name, and every `mvmdp.*` module attribute
that is the same object is replaced by a wrapper, so `solvers.evaluate` and
`cli.evaluate` are caught alike. The dense and sparse factorization entry
points of numpy and scipy are wrapped the same way. Spans (name, start, end,
parent) are kept in memory; counts and self times are derived from them.

A target that no longer exists is skipped, and a layer metric whose spans
never occur reads 0, so a refactor that removes or renames a function does
not break the benchmark.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (span name, module, attribute path)
TARGETS = (
    ("wind_storage.build", "mvmdp.wind_storage", "build"),
    ("wind_storage.build_no_abandonment", "mvmdp.wind_storage", "build_no_abandonment"),
    ("wind_storage.build_abandonment", "mvmdp.wind_storage", "build_abandonment"),
    ("model.induced_chain", "mvmdp.model", "induced_chain"),
    ("model.validate_for", "mvmdp.model", "DeterministicPolicy.validate_for"),
    ("model.closed_class_count", "mvmdp.model", "closed_class_count"),
    ("model.is_irreducible", "mvmdp.model", "is_irreducible"),
    ("model.sample_random_policy", "mvmdp.model", "sample_random_policy"),
    ("model.check_ergodicity", "mvmdp.model", "check_ergodicity"),
    ("model.load_model", "mvmdp.model", "load_model"),
    ("model.save_model", "mvmdp.model", "save_model"),
    ("evaluation.evaluate", "mvmdp.evaluation", "evaluate"),
    ("evaluation.stationary_distribution", "mvmdp.evaluation", "stationary_distribution"),
    ("sensitivity.improvement_vector", "mvmdp.sensitivity", "improvement_vector"),
    ("sensitivity.check_necessary_condition", "mvmdp.sensitivity", "check_necessary_condition"),
    ("sensitivity.derivative_randomized", "mvmdp.sensitivity", "derivative_randomized"),
    ("solvers.policy_iteration", "mvmdp.solvers", "policy_iteration"),
    ("solvers.multi_start", "mvmdp.solvers", "multi_start"),
    ("solvers.epsilon_greedy_iteration", "mvmdp.solvers", "epsilon_greedy_iteration"),
    ("solvers.ucb_iteration", "mvmdp.solvers", "ucb_iteration"),
    ("solvers.gradient_solver", "mvmdp.solvers", "gradient_solver"),
    ("simulation.simulate_path", "mvmdp.simulation", "simulate_path"),
    ("simulation.estimate_metrics", "mvmdp.simulation", "estimate_metrics"),
    ("cli.main", "mvmdp.cli", "main"),
    ("factorization.numpy.linalg.solve", "numpy.linalg", "solve"),
    ("factorization.scipy.linalg.lu_factor", "scipy.linalg", "lu_factor"),
    ("factorization.scipy.linalg.solve", "scipy.linalg", "solve"),
    ("factorization.scipy.sparse.linalg.splu", "scipy.sparse.linalg", "splu"),
    ("factorization.scipy.sparse.linalg.spsolve", "scipy.sparse.linalg", "spsolve"),
)

BUILDS = ("wind_storage.build", "wind_storage.build_no_abandonment", "wind_storage.build_abandonment")
CLI_COMMANDS = (
    "wind-build", "solve-pi", "evaluate", "check", "simulate", "solve-gd", "multi-start", "sweep-beta",
)


def _kernel_bytes(model) -> int:
    kernel = model.kernel
    if hasattr(kernel, "nbytes"):
        return int(kernel.nbytes)
    # a sparse kernel: its stored arrays
    return sum(int(getattr(kernel, part).nbytes) for part in ("data", "indices", "indptr") if hasattr(kernel, part))


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# What each span records from its arguments and result, beyond its times.
_ATTRS = {
    "wind_storage.build": lambda a, k, r: {"kernel_bytes": _kernel_bytes(r)},
    "wind_storage.build_no_abandonment": lambda a, k, r: {"kernel_bytes": _kernel_bytes(r)},
    "wind_storage.build_abandonment": lambda a, k, r: {"kernel_bytes": _kernel_bytes(r)},
    "model.load_model": lambda a, k, r: {"kernel_bytes": _kernel_bytes(r), "file_bytes": _file_size(a[0])},
    "model.save_model": lambda a, k, r: {"file_bytes": _file_size(a[1] if len(a) > 1 else k.get("path"))},
    "solvers.policy_iteration": lambda a, k, r: {"iterates": len(r[1].iterations) - 1},
    "solvers.gradient_solver": lambda a, k, r: {"iterates": len(r.trace.iterations) - 1},
    "simulation.simulate_path": lambda a, k, r: {"steps": len(r.states)},
    "cli.main": lambda a, k, r: {"command": (a[0] if a else k.get("argv"))[0]},
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while active; `with tracer:` installs the wrappers and
    restores the original bindings on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, attrs = self.spans, self._stack, _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(name, time.perf_counter(), parent=stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                try:
                    span.attrs = attrs(args, kwargs, result)
                except Exception:  # a changed signature or result type leaves the attribute absent
                    pass
            return result

        return wrapper

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        holders = [m for n, m in list(sys.modules.items()) if n == "mvmdp" or n.startswith("mvmdp.")]
        for name, module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if not callable(original):
                continue
            wrapper = self._wrap(name, original)
            self._rebind(owner, attr, wrapper)
            for module in holders:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._rebind(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer counts and times (ms) over one traced run, from its spans."""
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_seconds[span.parent] += span.seconds

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def calls(name):
        return len(named(name))

    def ms(name):
        return 1e3 * sum(spans[i].seconds for i in named(name))

    def self_ms(name):
        return 1e3 * sum(spans[i].seconds - child_seconds[i] for i in named(name))

    def under(i, names):
        p = spans[i].parent
        while p >= 0:
            if spans[p].name in names:
                return True
            p = spans[p].parent
        return False

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    m["wind_storage.build_ms"] = 1e3 * sum(
        s.seconds for s in spans if s.name in BUILDS and (s.parent < 0 or spans[s.parent].name not in BUILDS)
    )
    m["model.induced_chain_calls"] = calls("model.induced_chain")
    m["model.induced_chain_ms"] = ms("model.induced_chain")
    m["model.validate_for_ms"] = ms("model.validate_for")
    m["model.closed_class_count_calls"] = calls("model.closed_class_count")
    m["model.closed_class_count_ms"] = ms("model.closed_class_count")
    samples = named("model.sample_random_policy")
    sample_ids = set(samples)
    checks = defaultdict(int)  # structural checks per sampler call: one per rejection-sampled draw
    for s in spans:
        if s.name in ("model.is_irreducible", "model.closed_class_count") and s.parent in sample_ids:
            checks[s.parent] += 1
    draws = sum(max(1, checks[i]) for i in samples)
    m["model.sample_draws"] = draws
    m["model.sample_accept_ratio"] = ratio(sum(1 for i in samples if spans[i].error is None), draws)
    m["model.sample_random_policy_ms"] = ms("model.sample_random_policy")
    m["model.check_ergodicity_ms"] = ms("model.check_ergodicity")
    m["model.load_model_ms"] = ms("model.load_model")
    m["model.save_model_ms"] = ms("model.save_model")
    m["model.model_file_bytes"] = sum(
        s.attrs.get("file_bytes", 0) for s in spans if s.name in ("model.load_model", "model.save_model")
    )
    m["model.kernel_bytes_computed"] = max((s.attrs.get("kernel_bytes", 0) for s in spans), default=0)

    evals = named("evaluation.evaluate")
    completed_evals = {i for i in evals if spans[i].error is None}
    factorizations = 0
    for i, s in enumerate(spans):
        if s.name.startswith("factorization."):
            p = s.parent
            while p >= 0 and spans[p].name != "evaluation.evaluate":
                p = spans[p].parent
            factorizations += p in completed_evals
    m["evaluation.evaluate_calls"] = len(evals)
    m["evaluation.evaluate_self_ms"] = self_ms("evaluation.evaluate")
    m["evaluation.stationary_ms"] = ms("evaluation.stationary_distribution")
    m["evaluation.factorizations_per_eval"] = ratio(factorizations, len(completed_evals))

    m["sensitivity.improvement_vector_calls"] = calls("sensitivity.improvement_vector")
    m["sensitivity.improvement_vector_self_ms"] = self_ms("sensitivity.improvement_vector")
    m["sensitivity.check_necessary_condition_ms"] = ms("sensitivity.check_necessary_condition")
    m["sensitivity.derivative_randomized_ms"] = ms("sensitivity.derivative_randomized")

    starts = named("solvers.policy_iteration")
    start_evals = sum(1 for i in evals if under(i, ("solvers.policy_iteration", "solvers.multi_start")))
    completed = [spans[i].attrs["iterates"] for i in starts if "iterates" in spans[i].attrs]
    m["solvers.policy_iteration_self_ms"] = self_ms("solvers.policy_iteration")
    m["solvers.evals_per_start"] = ratio(start_evals, len(starts))
    m["solvers.multichain_failures"] = sum(1 for i in starts if spans[i].error == "SolverError")
    m["solvers.iterates_per_start"] = ratio(sum(completed), len(completed))
    m["solvers.gradient_iterations"] = sum(s.attrs.get("iterates", 0) for s in spans if s.name == "solvers.gradient_solver")
    m["solvers.explore_evals"] = sum(
        1 for i in evals if under(i, ("solvers.epsilon_greedy_iteration", "solvers.ucb_iteration"))
    )

    sim_seconds = sum(spans[i].seconds for i in named("simulation.simulate_path"))
    m["simulation.simulate_path_ms"] = 1e3 * sim_seconds
    m["simulation.steps_per_s"] = ratio(
        sum(s.attrs.get("steps", 0) for s in spans if s.name == "simulation.simulate_path"), sim_seconds
    )
    m["simulation.estimate_metrics_ms"] = ms("simulation.estimate_metrics")

    for command in CLI_COMMANDS:
        m[f"cli.command_self_ms.{command}"] = 1e3 * sum(
            s.seconds - child_seconds[i]
            for i, s in enumerate(spans)
            if s.name == "cli.main" and s.attrs.get("command") == command
        )
    return m


LAYER_UNITS = {
    "_ms": "ms", "_calls": "count", "_bytes": "bytes", "_computed": "bytes", "_draws": "count",
    "_ratio": "ratio", "_per_eval": "count/eval", "_per_start": "count/start", "_failures": "count",
    "_iterations": "count", "_evals": "count", "_per_s": "1/s", "_written": "bytes",
}


def layer_unit(name: str) -> str:
    base = name.split(".")[1] if name.startswith("cli.command_self_ms.") else name
    for suffix, unit in LAYER_UNITS.items():
        if base.endswith(suffix):
            return unit
    raise KeyError(name)
