"""Command-line surface: model ingestion, solvers, beta sweeps, simulation
cross-checks, and CSV/report emission.

Exit codes: 0 success, 2 validation problem, 3 solver/evaluation failure,
4 file I/O problem. All numeric CSV output uses shortest round-trip float
formatting, so reruns with identical inputs are byte-identical.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    EvaluationError,
    ModelIOError,
    MvmdpError,
    SolverError,
    ValidationError,
)
from .evaluation import evaluate, report_to_dict
from .model import (
    DeterministicPolicy,
    MdpModel,
    RandomizedPolicy,
    check_ergodicity,
    _check_beta,
    _check_seed,
    _feasible_pairs,
    _integer,
    _json_text,
    _read_json,
    _write_text,
    load_model,
    load_policy,
    sample_random_policy,
    save_model,
    save_policy,
)
from .sensitivity import _scores
from .simulation import estimate_metrics, simulate_path
from .solvers import (
    GradientConfig,
    SolverTrace,
    _draw_starts,
    _multi_start,
    _uniform_feasible,
    gradient_solver,
    multi_start,
    policy_iteration,
)
from .wind_storage import WindStorageSpec, build


@dataclass(frozen=True)
class ParetoPoint:
    beta: float
    j_mean: float
    j_var: float
    j_combined: float
    policy_id: str


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: str, header: str, rows) -> None:
    lines = (",".join(row) + "\n" for row in rows)
    _write_text(path, itertools.chain([header + "\n"], lines), "output")


def _write_json(path: str | None, data: dict) -> None:
    text = _json_text(data)
    if path is None:
        sys.stdout.write(text)
    else:
        _write_text(path, [text], "output")


def _solver_outputs(args: argparse.Namespace, trace: SolverTrace, policy, failure: str) -> int:
    """The tail of solve-pi and solve-gd: the trace CSV at --out, the final
    policy at --policy-out and the stop line on stderr; SolverError(failure)
    when the trace did not converge."""
    if args.out is not None:
        rows = (
            (
                str(r.iteration),
                _fmt(r.j_mean),
                _fmt(r.j_var),
                _fmt(r.j_combined),
                str(r.states_changed),
            )
            for r in trace.iterations
        )
        _write_csv(args.out, "iter,j_mean,j_var,j_combined,states_changed", rows)
    if args.policy_out is not None:
        save_policy(policy, args.policy_out)
    last = trace.iterations[-1]
    print(
        f"stop={trace.stop_reason} iterations={len(trace.iterations) - 1} "
        f"j_mean={last.j_mean!r} j_var={last.j_var!r} j_combined={last.j_combined!r}",
        file=sys.stderr,
    )
    if not trace.converged:
        raise SolverError(failure)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    policy = load_policy(args.policy)
    report = evaluate(model, policy)
    if args.scores_out is not None:
        if not isinstance(policy, DeterministicPolicy):
            raise ValidationError("--scores-out needs a deterministic policy")
        states, actions = _feasible_pairs(model)
        # the report was made just now from this policy: nothing to check
        scores = _scores(model, [report])[0][0, states, actions].tolist()
        rows = ((str(i), str(a), _fmt(q)) for i, a, q in zip(states, actions, scores))
        _write_csv(args.scores_out, "state,action,score", rows)
    _write_json(args.out, report_to_dict(report))
    print(
        f"j_mean={report.j_mean!r} j_var={report.j_var!r} "
        f"j_combined={report.j_combined!r}",
        file=sys.stderr,
    )
    return 0


def _initial_policy(args: argparse.Namespace, model: MdpModel) -> DeterministicPolicy:
    if args.initial is not None:
        policy = load_policy(args.initial)
        if not isinstance(policy, DeterministicPolicy):
            raise ValidationError("initial policy file must be deterministic")
        return policy
    return sample_random_policy(model, np.random.default_rng(args.seed))


def _cmd_solve_pi(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    initial = _initial_policy(args, model)
    policy, trace = policy_iteration(model, initial, max_iterations=args.max_iterations)
    failure = f"policy iteration stopped by iteration cap ({trace.stop_reason})"
    return _solver_outputs(args, trace, policy, failure)


def _cmd_solve_gd(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    if args.initial is not None:
        loaded = load_policy(args.initial)
        if isinstance(loaded, DeterministicPolicy):
            theta = loaded.as_randomized(model)
        else:
            theta = loaded
    else:
        theta = RandomizedPolicy(_uniform_feasible(model))
    gc = GradientConfig(stop_ratio=args.stop_ratio, max_iterations=args.max_iterations)
    result = gradient_solver(model, theta, gc)
    failure = "gradient solver did not reach the stop threshold"
    return _solver_outputs(args, result.trace, result.theta, failure)


def _cmd_multi_start(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    result = multi_start(model, args.starts, args.seed)
    rows = []
    for k, trace in enumerate(result.traces):
        last = trace.iterations[-1]
        rows.append(
            (f"start{k}", _fmt(last.j_mean), _fmt(last.j_var), _fmt(last.j_combined))
        )
    if args.out is not None:
        _write_csv(args.out, "policy_id,j_mean,j_var,j_combined", rows)
    if args.policy_out is not None:
        save_policy(result.best_policy, args.policy_out)
    best = result.best_report
    print(
        f"best j_combined={best.j_combined!r} "
        f"distinct_optima={[repr(v) for v in result.distinct_optima]}",
        file=sys.stderr,
    )
    return 0


def sweep_beta(model: MdpModel, beta_grid, starts_per_beta: int, seed: int = 0):
    """Best multi-start point per beta.

    Returns (points, optima_rows, failures): one ParetoPoint per successful
    beta, all distinct local-optimum rows per beta, and (beta, message)
    pairs for betas whose runs failed. Failures do not stop the sweep, so
    an empty grid, a beta that is not finite and > 0, fewer than one start
    per beta or a seed that is not an integer >= 0 is rejected before it.
    The betas share one draw of the starts, and their multi-starts run as
    one lockstep (`solvers._multi_start`): each round factors each distinct
    policy once, and every beta that reached it solves its own potentials
    on those factors, with the floats of a multi_start at that beta alone.
    """
    if not beta_grid:
        raise ValidationError("beta grid must be nonempty")
    betas = [_check_beta(beta) for beta in beta_grid]
    _integer(starts_per_beta, "starts per beta", 1)
    _check_seed(seed)
    results = _multi_start(model, betas, *_draw_starts(model, starts_per_beta, seed))
    points = []
    optima_rows = []
    failures = []
    for beta, result in zip(betas, results):
        if isinstance(result, MvmdpError):
            failures.append((beta, str(result)))
            continue
        best = result.best_report
        points.append(
            ParetoPoint(
                beta=beta,
                j_mean=best.j_mean,
                j_var=best.j_var,
                j_combined=best.j_combined,
                policy_id=f"start{result.best_index}",
            )
        )
        # Not _distinct_values: this keeps trace order and compares against
        # every value kept so far, and the _optima.csv bytes depend on both.
        seen = []
        for trace in result.traces:
            last = trace.iterations[-1]
            if any(abs(last.j_combined - v) <= 1e-6 for v in seen):
                continue
            seen.append(last.j_combined)
            optima_rows.append((beta, last.j_mean, last.j_var, last.j_combined))
    return points, optima_rows, failures


def _beta_grid(text: str) -> tuple:
    """The values of --beta-grid: comma-separated, > 0, strictly increasing."""
    try:
        grid = tuple(float(b) for b in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad beta grid: {exc}") from exc
    for b in grid:
        _check_beta(b)
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValidationError("beta grid must be strictly increasing")
    return grid


def _optima_path(path: str) -> str:
    """The optima sidecar of the sweep file at path: `<stem>_optima<ext>`,
    the extension taken from the file name only."""
    stem, ext = os.path.splitext(path)
    return f"{stem}_optima{ext}"


def _cmd_sweep_beta(args: argparse.Namespace) -> int:
    grid = _beta_grid(args.beta_grid)
    model = load_model(args.model)
    points, optima_rows, failures = sweep_beta(model, grid, args.starts, args.seed)
    if args.out is not None:
        _write_csv(
            args.out,
            "beta,j_mean,j_var,j_combined",
            (
                (_fmt(p.beta), _fmt(p.j_mean), _fmt(p.j_var), _fmt(p.j_combined))
                for p in points
            ),
        )
        _write_csv(
            _optima_path(args.out),
            "beta,j_mean,j_var,j_combined",
            ((_fmt(b), _fmt(m), _fmt(v), _fmt(c)) for b, m, v, c in optima_rows),
        )
    for beta, message in failures:
        print(f"beta={beta!r} failed: {message}", file=sys.stderr)
    return 0


def _simulate_estimate(model: MdpModel, policy, T: int, seed: int, burn_in: int):
    """A seeded path of T + burn_in steps, and the metric estimates from its
    last T rewards."""
    _integer(T, "horizon", 2)
    _integer(burn_in, "burn-in", 0)
    path = simulate_path(model, policy, T + burn_in, seed=seed)
    return path, estimate_metrics(path.rewards[burn_in:], model.beta, seed=seed)


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    policy = load_policy(args.policy)
    path, est = _simulate_estimate(model, policy, args.horizon, args.seed, args.burn_in)
    if args.path_out is not None:
        A = model.num_actions
        pairs = (path.states * A + path.actions).tolist()
        # the "state,action,reward" text of each pair on the path, made once
        text = {p: f"{p // A},{p % A},{_fmt(model.reward.flat[p])}\n" for p in set(pairs)}
        lines = (f"{t},{text[p]}" for t, p in enumerate(pairs))
        _write_text(args.path_out, itertools.chain(["t,state,action,reward\n"], lines), "output")
    _write_json(args.out, dataclasses.asdict(est))
    return 0


def cross_check(model: MdpModel, policy, T: int, seed: int = 0, burn_in: int = 1000):
    """Analytic vs. simulated metrics with 3-half-width agreement flags."""
    report = evaluate(model, policy)
    _, est = _simulate_estimate(model, policy, T, seed, burn_in)
    def entry(analytic, estimate, half_width):
        return {
            "analytic": analytic,
            "estimate": estimate,
            "half_width": half_width,
            "pass": bool(abs(analytic - estimate) <= 3.0 * half_width)
            if half_width > 0
            else bool(analytic == estimate),
        }
    return {
        "j_mean": entry(report.j_mean, est.j_mean_hat, est.half_width_mean),
        "j_var": entry(report.j_var, est.j_var_hat, est.half_width_var),
        "j_combined": entry(
            report.j_combined, est.j_combined_hat, est.half_width_combined
        ),
        "horizon": T,
        "burn_in": burn_in,
        "seed": seed,
    }


def _cmd_check(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    policy = load_policy(args.policy)
    report = cross_check(model, policy, args.horizon, seed=args.seed, burn_in=args.burn_in)
    _write_json(args.out, report)
    return 0


def _cmd_wind_build(args: argparse.Namespace) -> int:
    if args.out is None:
        raise ValidationError("wind-build needs --out")
    kwargs = {"beta": args.beta, "abandonment": args.scenario == "abandon"}
    if args.kernel is not None:
        kwargs["wind_kernel"] = _read_json(args.kernel, "kernel")
    model = build(WindStorageSpec(**kwargs))
    save_model(model, args.out)
    ergo = check_ergodicity(model)
    print(
        f"states={model.num_states} actions={model.num_actions} "
        f"ergodicity_check={ergo.mode} violations={len(ergo.violations)}",
        file=sys.stderr,
    )
    return 0


def _seed(given: str | None) -> int:
    """The seed: `--seed` when given, else the MVMDP_SEED environment
    variable, else 0. It must be an integer >= 0, as numpy's generators
    take; any other is a ValidationError that names where it came from."""
    source, text = "--seed", given
    if given is None:
        source, text = "MVMDP_SEED", os.environ.get("MVMDP_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValidationError(f"{source} must be an integer >= 0, got {text!r}")
    return seed


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each `parse_args`
    returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="mvmdp",
        description="Long-run mean-variance optimization of finite MDPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--seed")
        p.add_argument("--out")
        return p

    p = add("evaluate", _cmd_evaluate, "exact metrics and potentials of one policy")
    p.add_argument("--model", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--scores-out")

    p = add("solve-pi", _cmd_solve_pi, "policy iteration on the combined metric")
    p.add_argument("--model", required=True)
    p.add_argument("--initial")
    p.add_argument("--policy-out")
    p.add_argument("--max-iterations", type=int)

    p = add("solve-gd", _cmd_solve_gd, "projected-gradient baseline over randomized policies")
    p.add_argument("--model", required=True)
    p.add_argument("--initial")
    p.add_argument("--policy-out")
    p.add_argument("--stop-ratio", type=float, default=0.001)
    p.add_argument("--max-iterations", type=int, default=500)

    p = add("multi-start", _cmd_multi_start, "policy iteration from several random starts")
    p.add_argument("--model", required=True)
    p.add_argument("--starts", type=int, default=5)
    p.add_argument("--policy-out")

    p = add("sweep-beta", _cmd_sweep_beta, "trace the mean-variance frontier over beta")
    p.add_argument("--model", required=True)
    p.add_argument("--beta-grid", required=True)
    p.add_argument("--starts", type=int, default=5)

    p = add("simulate", _cmd_simulate, "Monte Carlo metric estimates for one policy")
    p.add_argument("--model", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--horizon", type=int, default=100_000)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--path-out")

    p = add("check", _cmd_check, "analytic vs. simulated metric agreement report")
    p.add_argument("--model", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--horizon", type=int, default=100_000)
    p.add_argument("--burn-in", type=int, default=1000)

    p = add("wind-build", _cmd_wind_build, "emit a wind-plus-storage benchmark model file")
    p.add_argument("--scenario", choices=["no-abandon", "abandon"], default="no-abandon")
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--kernel")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.seed = _seed(args.seed)
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ModelIOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
