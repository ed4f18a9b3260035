"""The four benchmark workloads: their set-up, their operations, and the
fixed pool of inputs each one draws from.

A workload is a fixed round of operations, made of blocks that do not
depend on each other. A run repeats the round until its time is up, so it
meets every input many times, and the reference fingerprint
(`reference.json`) holds the result of every input. The workload seed fixes
the order of the blocks in each round; the library receives the generated
inputs and never the seed itself. README.md says why each workload exists.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import os
import time
from typing import Callable

import numpy as np

import mvmdp
from mvmdp import cli

import harness

SCENARIOS = ("no-abandon", "abandon")
BETA = 0.1
BETA_GRID = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
MULTI_STARTS = 4  # multi_start seeds per scenario (paper-b5)
STARTS_PER_BATCH = 10  # wind-b50 starts per scenario
CLI_SEED = 0
EXPLORE_BUDGET = 60


@dataclasses.dataclass
class Op:
    """One operation. `run(samples)` returns its fingerprint and may append
    timings (seconds) to `samples[name]`. Each (sample, key) pair in `groups`
    makes this operation a member of group `key` of that sample."""

    kind: str
    key: str
    run: Callable[[dict], dict]
    groups: tuple = ()


class CliExit(Exception):
    """A CLI command returned a nonzero exit code."""


def action_hash(action) -> str:
    return hashlib.sha256(np.asarray(action, dtype=np.int64).tobytes()).hexdigest()[:16]


def solver_fingerprint(j_combined, action) -> dict:
    return {"j": [float(j_combined)], "actions": action_hash(action)}


def build_model(battery: int, scenario: str):
    spec = mvmdp.WindStorageSpec(battery_capacity=battery, beta=BETA, abandonment=scenario == "abandon")
    return spec, mvmdp.build(spec)


def threshold_policy(spec, model) -> mvmdp.DeterministicPolicy:
    """Charge 1 MW when there is wind and room, discharge 1 MW when there is
    no wind and charge left, otherwise hold. Irreducible at every capacity:
    windy spells fill the battery, calm spells empty it."""
    values = mvmdp.action_values(spec)
    charge, hold, discharge = values.index(-1), values.index(0), values.index(1)
    B = spec.battery_capacity
    action = np.empty(model.num_states, dtype=int)
    for w, wind in enumerate(spec.wind_states):
        for b in range(B + 1):
            if wind >= 1 and b < B:
                a = charge
            elif wind == 0 and b > 0:
                a = discharge
            else:
                a = hold
            action[mvmdp.state_index(spec, w, b)] = a
    return mvmdp.DeterministicPolicy(action)


def uniform_feasible(model) -> mvmdp.RandomizedPolicy:
    theta = np.zeros((model.num_states, model.num_actions))
    for i, acts in enumerate(model.feasible):
        theta[i, list(acts)] = 1.0 / len(acts)
    return mvmdp.RandomizedPolicy(theta)


def start_rng(batch: int, k: int) -> np.random.Generator:
    """multi_start's own seeding of start k in a batch of STARTS_PER_BATCH."""
    return np.random.default_rng(np.random.SeedSequence(batch).spawn(STARTS_PER_BATCH)[k])


class Workload:
    name = ""
    headline = ""  # sample behind op_ms_*
    aux = ""  # sample behind aux_ms_p50
    report = ()  # (name, sample, statistic, scale, unit) of the workload's own metrics
    bytes_written = 0  # artifact bytes the operations wrote
    census_of = 0  # inputs the census is drawn from (census_failed_ratio's denominator)

    def setup(self, root: str):
        raise NotImplementedError

    def blocks(self) -> list[list[Op]]:
        """The round: blocks of operations that run in the order given."""
        raise NotImplementedError

    def round_blocks(self, seed: int, r: int) -> list[list[Op]]:
        """Blocks of round r of the run with workload seed `seed`, in order."""
        blocks = self.blocks()
        order = np.random.default_rng([seed, r]).permutation(len(blocks))
        return [blocks[i] for i in order]

    def round(self, seed: int, r: int) -> list[Op]:
        """Operations of round r of the run with workload seed `seed`."""
        return [op for block in self.round_blocks(seed, r) for op in block]

    def census(self) -> list[Op]:
        """Operations that failed in the reference: run once per run, outside
        the timed loop and the operation counts, to count a known defect."""
        return []

    def pool(self) -> list[Op]:
        """Every operation a run meets, for building the reference."""
        return [op for block in self.blocks() for op in block]


class PaperB5(Workload):
    name = "paper-b5"
    headline = "multi_start"
    aux = "secondary"
    report = (
        ("multistart_s_p50", "multi_start", "p50", 1.0, "s"),
        ("multistart_s_tail", "multi_start", "tail", 1.0, "s"),
        ("sweep_s", "sweep", "p50", 1.0, "s"),
        ("gd_s", "gd", "p50", 1.0, "s"),
        ("explore_s", "explore", "p50", 1.0, "s"),
    )

    def setup(self, root):
        self.models = {scen: build_model(5, scen)[1] for scen in SCENARIOS}

    def _multi_start(self, scen, s):
        def run(samples):
            result = mvmdp.multi_start(self.models[scen], 10, seed=s)
            return solver_fingerprint(result.best_report.j_combined, result.best_policy.action)
        return Op("multi_start", f"multi_start|{scen}|{s}", run)

    def _sweep(self, scen, s, groups):
        def run(samples):
            points, _, failures = cli.sweep_beta(self.models[scen], BETA_GRID, 8, seed=s)
            ids = "|".join(p.policy_id for p in points) + "|" + repr([b for b, _ in failures])
            return {"j": [p.j_combined for p in points], "actions": hashlib.sha256(ids.encode()).hexdigest()[:16]}
        return Op("sweep", f"sweep|{scen}|{s}", run, groups)

    def _gd(self, scen, groups):
        def run(samples):
            model = self.models[scen]
            result = mvmdp.gradient_solver(model, uniform_feasible(model), mvmdp.GradientConfig())
            return solver_fingerprint(result.report.j_combined, np.argmax(result.theta.theta, axis=1))
        return Op("gd", f"gd|{scen}", run, groups)

    def _explore(self, scen, s, groups):
        def run(samples):
            model = self.models[scen]
            initial = mvmdp.sample_random_policy(model, np.random.default_rng(s))
            eps = mvmdp.epsilon_greedy_iteration(
                model, initial, mvmdp.ExplorationConfig(epsilon=0.1, seed=s, budget=EXPLORE_BUDGET)
            )
            ucb = mvmdp.ucb_iteration(model, initial, mvmdp.ExplorationConfig(gamma=1.0, budget=EXPLORE_BUDGET))
            actions = np.concatenate([eps.best_policy.action, ucb.best_policy.action])
            return {"j": [eps.best_report.j_combined, ucb.best_report.j_combined], "actions": action_hash(actions)}
        return Op("explore", f"explore|{scen}|{s}", run, groups)

    def blocks(self):
        ops = []
        for scen in SCENARIOS:
            groups = (("secondary", scen),)
            ops += [self._multi_start(scen, s) for s in range(MULTI_STARTS)]
            ops += [self._sweep(scen, 0, groups), self._gd(scen, groups), self._explore(scen, 0, groups)]
        return [[op] for op in ops]


class WindB50(Workload):
    """Ten seeded random starts per scenario. A start whose policy iteration
    completed in the reference is one operation: the draw, then PI. A start
    whose PI raised there (a multichain iterate) is timed as its draw alone,
    and its PI runs once per run in the census, outside the timed loop, so
    the timed operations never fail and the defect is still counted."""

    name = "wind-b50"
    headline = "iterate"
    aux = "start_draw"
    census_of = len(SCENARIOS) * STARTS_PER_BATCH
    report = (
        ("iterate_ms_p50", "iterate", "p50", 1e3, "ms"),
        ("iterate_ms_tail", "iterate", "tail", 1e3, "ms"),
        ("start_draw_ms_p50", "start_draw", "p50", 1e3, "ms"),
    )

    def setup(self, root):
        self.models = {scen: build_model(50, scen)[1] for scen in SCENARIOS}

    def _draw(self, samples, scen, batch, k):
        t0 = time.perf_counter()
        initial = mvmdp.sample_random_policy(self.models[scen], start_rng(batch, k))
        samples["start_draw"].append(time.perf_counter() - t0)
        return initial

    def _start(self, scen, batch, k):
        def run(samples):
            initial = self._draw(samples, scen, batch, k)
            t0 = time.perf_counter()
            policy, trace = mvmdp.policy_iteration(self.models[scen], initial)
            samples["iterate"].append((time.perf_counter() - t0) / (len(trace.iterations) - 1))
            return solver_fingerprint(trace.iterations[-1].j_combined, policy.action)
        return Op("start", f"start|{scen}|{batch}|{k}", run)

    def _draw_only(self, scen, batch, k):
        def run(samples):
            return {"j": [], "actions": action_hash(self._draw(samples, scen, batch, k).action)}
        return Op("draw", f"draw|{scen}|{batch}|{k}", run)

    def _starts(self):
        return [(scen, 0, k) for scen in SCENARIOS for k in range(STARTS_PER_BATCH)]

    @functools.cached_property
    def _completed_keys(self) -> set:
        reference = harness.load_reference(self.name)
        return {key for key, entry in reference.items() if entry["outcome"] == "ok"}

    def _completed(self, scen, batch, k) -> bool:
        """Whether this start's PI completed in the reference."""
        return f"start|{scen}|{batch}|{k}" in self._completed_keys

    def blocks(self):
        return [[self._start(*s) if self._completed(*s) else self._draw_only(*s)] for s in self._starts()]

    def census(self):
        return [self._start(*s) for s in self._starts() if not self._completed(*s)]

    def pool(self):
        return [op for s in self._starts() for op in (self._start(*s), self._draw_only(*s))]


class WindB200(Workload):
    """The threshold start is the only input; the seed orders the scenarios."""

    name = "wind-b200"
    headline = "iterate"
    aux = "audit"
    report = (
        ("iterate_ms_p50", "iterate", "p50", 1e3, "ms"),
        ("iterate_ms_tail", "iterate", "tail", 1e3, "ms"),
        ("audit_s", "audit", "p50", 1.0, "s"),
    )

    def setup(self, root):
        self.models, self.thresholds, self.fixed = {}, {}, {}
        for scen in SCENARIOS:
            spec, model = build_model(200, scen)
            self.models[scen], self.thresholds[scen] = model, threshold_policy(spec, model)

    def _solve(self, scen):
        def run(samples):
            self.fixed.pop(scen, None)
            t0 = time.perf_counter()
            policy, trace = mvmdp.policy_iteration(self.models[scen], self.thresholds[scen])
            samples["iterate"].append((time.perf_counter() - t0) / (len(trace.iterations) - 1))
            self.fixed[scen] = policy
            return solver_fingerprint(trace.iterations[-1].j_combined, policy.action)
        return Op("solve", f"solve|{scen}", run)

    def _audit(self, scen):
        def run(samples):
            model, policy = self.models[scen], self.fixed.get(scen)
            if policy is None:
                raise mvmdp.SolverError("no fixed point to audit: the solve before it failed")
            report = mvmdp.evaluate(model, policy)
            iv = mvmdp.improvement_vector(model, report, policy)
            violations = mvmdp.check_necessary_condition(model, report, policy)
            pairs = repr([(i, a) for i, a, _ in violations]).encode()
            return {
                "j": [report.j_combined, float(np.nanmax(iv.score - iv.current_score[:, None]))],
                "actions": hashlib.sha256(pairs).hexdigest()[:16],
            }
        return Op("audit", f"audit|{scen}", run)

    def blocks(self):
        return [[self._solve(scen), self._audit(scen)] for scen in SCENARIOS]


class CliSession(Workload):
    name = "cli-session"
    headline = "session"
    aux = "model_file"
    report = (
        ("session_s_p50", "session", "p50", 1.0, "s"),
        ("session_s_tail", "session", "tail", 1.0, "s"),
    )

    def setup(self, root):
        self.work = os.path.join(root, "bench", "_work")
        os.makedirs(self.work, exist_ok=True)
        spec, model = build_model(50, "no-abandon")
        mvmdp.save_model(model, self._path("b50.json"))
        mvmdp.save_policy(threshold_policy(spec, model), self._path("b50_threshold.json"))

    def _path(self, name):
        return os.path.join(self.work, name)

    def _command(self, key, argv, outputs, groups):
        """`mvmdp <argv>`; `outputs` names the files in the work directory
        that the command writes, hashed afterwards."""
        paths = [self._path(name) for name in outputs]

        def run(samples):
            for path in paths:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = cli.main([str(x) for x in argv])
                except SystemExit as exc:  # argparse rejects the command line
                    code = exc.code if isinstance(exc.code, int) else 2
            if code != 0:
                raise CliExit(f"{argv[0]} exited with {code}: {sink.getvalue().strip()[-300:]}")
            digests = {}
            for name, path in zip(outputs, paths):
                with open(path, "rb") as fh:
                    data = fh.read()
                self.bytes_written += len(data)
                digests[name] = hashlib.sha256(data).hexdigest()
            return {"sha256": digests}

        return Op(f"cli:{argv[0]}", key, run, groups)

    def blocks(self):
        p, s = self._path, CLI_SEED
        session = (("session", "all"),)
        blocks = []
        for scen in SCENARIOS:
            model, policy, tag = p(f"{scen}.json"), p(f"{scen}_pi.json"), f"{scen}|{s}"
            out = lambda suffix: f"{scen}_{suffix}"  # noqa: E731
            blocks.append([
                self._command(f"wind-build|{scen}", ["wind-build", "--scenario", scen, "--out", model],
                              [f"{scen}.json"], session),
                self._command(f"solve-pi|{tag}", ["solve-pi", "--model", model, "--seed", s,
                              "--out", p(out("pi.csv")), "--policy-out", policy],
                              [out("pi.csv"), out("pi.json")], session),
                self._command(f"evaluate|{tag}", ["evaluate", "--model", model, "--policy", policy,
                              "--scores-out", p(out("scores.csv")), "--out", p(out("eval.json"))],
                              [out("scores.csv"), out("eval.json")], session),
                self._command(f"check|{tag}", ["check", "--model", model, "--policy", policy, "--seed", s,
                              "--horizon", 200000, "--out", p(out("check.json"))], [out("check.json")], session),
                self._command(f"simulate|{tag}", ["simulate", "--model", model, "--policy", policy, "--seed", s,
                              "--out", p(out("sim.json"))], [out("sim.json")], session),
                self._command(f"solve-gd|{scen}", ["solve-gd", "--model", model, "--out", p(out("gd.csv")),
                              "--policy-out", p(out("gd.json"))], [out("gd.csv"), out("gd.json")], session),
                self._command(f"multi-start|{tag}", ["multi-start", "--model", model, "--starts", 10, "--seed", s,
                              "--out", p(out("ms.csv")), "--policy-out", p(out("ms.json"))],
                              [out("ms.csv"), out("ms.json")], session),
                self._command(f"sweep-beta|{tag}", ["sweep-beta", "--model", model, "--seed", s,
                              "--beta-grid", ",".join(map(str, BETA_GRID)), "--out", p(out("sweep.csv"))],
                              [out("sweep.csv"), out("sweep_optima.csv")], session),
            ])
        big = session + (("model_file", "b50"),)
        blocks.append([
            self._command("evaluate|b50", ["evaluate", "--model", p("b50.json"), "--policy",
                          p("b50_threshold.json"), "--out", p("b50_eval.json")], ["b50_eval.json"], big),
            self._command("solve-pi|b50", ["solve-pi", "--model", p("b50.json"), "--initial",
                          p("b50_threshold.json"), "--out", p("b50_pi.csv"), "--policy-out", p("b50_pi.json")],
                          ["b50_pi.csv", "b50_pi.json"], big),
        ])
        return blocks


WORKLOADS = {w.name: w for w in (PaperB5(), WindB50(), WindB200(), CliSession())}
