"""Trace the mean-variance frontier of the abandonment benchmark.

Sweeps the risk weight beta over a grid, solving the abandonment scenario
at each point with multi-start policy iteration, and prints the frontier
(j_mean, j_var, j_combined per beta). With --out the frontier is written
as CSV together with a <stem>_optima.<ext> sidecar listing the distinct
local optima found at each beta.
"""

import argparse
import csv

from mvmdp import WindStorageSpec, build
from mvmdp.cli import _optima_path, sweep_beta


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--betas",
        default="0.1,0.2,0.5,1.0,2.0",
        help="comma separated, strictly increasing, all positive",
    )
    parser.add_argument("--starts", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="optional CSV path for the frontier")
    args = parser.parse_args()

    grid = [float(x) for x in args.betas.split(",")]
    spec = WindStorageSpec(beta=grid[0], abandonment=True)
    model = build(spec)

    points, optima_rows, failures = sweep_beta(model, grid, args.starts, args.seed)

    print(f"abandonment benchmark, {args.starts} starts per beta")
    print()
    print("beta    j_mean      j_var       j_combined  best_start")
    for p in points:
        print(
            f"{p.beta:<6.3g}  {p.j_mean:<10.6f}  {p.j_var:<10.6f}"
            f"  {p.j_combined:<10.6f}  {p.policy_id}"
        )
    for beta, reason in failures:
        print(f"{beta:<6.3g}  skipped: {reason}")
    print()
    counts = {}
    for row in optima_rows:
        counts[row[0]] = counts.get(row[0], 0) + 1
    for beta, n in counts.items():
        print(f"beta={beta:g}: {n} distinct local optima")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["beta", "j_mean", "j_var", "j_combined", "policy_id"])
            for p in points:
                writer.writerow([p.beta, p.j_mean, p.j_var, p.j_combined, p.policy_id])
        sidecar = _optima_path(args.out)
        with open(sidecar, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["beta", "j_mean", "j_var", "j_combined"])
            writer.writerows(optima_rows)
        print(f"frontier written to {args.out}, optima to {sidecar}")


if __name__ == "__main__":
    main()
