"""Compare the four solvers on the wind dispatch benchmark.

Runs plain policy iteration, epsilon-greedy exploration, UCB exploration,
and projected gradient ascent from the same starting point, then prints
the final metrics and effort of each. A Monte Carlo estimate of the
policy iteration solution closes the loop against the analytic numbers.
"""

import argparse

import numpy as np

from mvmdp import (
    ExplorationConfig,
    GradientConfig,
    WindStorageSpec,
    build,
    epsilon_greedy_iteration,
    estimate_metrics,
    evaluate,
    gradient_solver,
    policy_iteration,
    sample_random_policy,
    simulate_path,
    ucb_iteration,
)


def improvement_steps(trace):
    return sum(1 for rec in trace.iterations if rec.states_changed > 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beta", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=60, help="exploration budget")
    parser.add_argument("--horizon", type=int, default=200_000)
    args = parser.parse_args()

    spec = WindStorageSpec(beta=args.beta)
    model = build(spec)
    rng = np.random.default_rng(args.seed)
    start = sample_random_policy(model, rng)

    rows = []

    policy, trace = policy_iteration(model, start)
    rep = evaluate(model, policy)
    rows.append(("policy iteration", rep, f"{improvement_steps(trace)} improvement steps"))

    eps = epsilon_greedy_iteration(
        model, start, ExplorationConfig(epsilon=0.2, seed=args.seed, budget=args.budget)
    )
    rows.append(("epsilon-greedy", eps.best_report, f"budget {args.budget}"))

    ucb = ucb_iteration(
        model, start, ExplorationConfig(gamma=0.5, seed=args.seed, budget=args.budget)
    )
    rows.append(("ucb", ucb.best_report, f"budget {args.budget}"))

    grad = gradient_solver(
        model, start.as_randomized(model), GradientConfig()
    )
    rows.append(("projected gradient", grad.report, f"{len(grad.trace.iterations)} iterations"))

    print(f"beta={args.beta}, seed={args.seed}, shared random start")
    print()
    print(f"{'solver':<20}{'j_mean':<12}{'j_var':<12}{'j_combined':<12}effort")
    for name, rep, effort in rows:
        print(
            f"{name:<20}{rep.j_mean:<12.6f}{rep.j_var:<12.6f}"
            f"{rep.j_combined:<12.6f}{effort}"
        )

    best_name, best_rep, _ = max(rows, key=lambda r: r[1].j_combined)
    print()
    print(f"best solver: {best_name} with j_combined={best_rep.j_combined:.10f}")

    sample = simulate_path(model, policy, args.horizon, seed=args.seed)
    est = estimate_metrics(sample, model.beta)
    print(
        f"monte carlo check of the policy iteration solution (T={args.horizon}): "
        f"j_combined = {est.j_combined_hat:.4f} +/- {est.half_width_combined:.4f}"
    )


if __name__ == "__main__":
    main()
