#!/usr/bin/env python3
"""Sweep impurity-model starting couplings across the stability boundary.

For a fan of starting points (l0, 0) this prints which equilibrium the
flow reaches, how many steps it takes, and the distance from the target
after the step budget.  Positive l0 approaches the origin along its
marginal direction, so the gap shrinks like 1/n; negative l0 is pulled
into the attracting non-trivial equilibrium in a few hundred steps.
"""

import argparse

from hfrg.flows import find_fixed_points, iterate_flow
from hfrg.rg import shipped_map

SEEDS = tuple((a / 2, b / 2) for a in range(-2, 3) for b in range(-2, 3))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=10 ** 4,
                        help="step budget per trajectory (default 10^4)")
    parser.add_argument("--starts", type=float, nargs="*",
                        default=(-0.1, -0.05, -0.01, 0.01, 0.05, 0.1),
                        help="starting quadratic couplings")
    args = parser.parse_args()

    beta = shipped_map("kondo")
    reports = find_fixed_points(beta, SEEDS)
    targets = [r.location for r in reports]
    print("equilibria:")
    for r in reports:
        loc = ", ".join(f"{x:+.12f}" for x in r.location)
        print(f"  ({loc})  {r.classification}")
    print()
    print(f"{'start':>8}  {'reaches':>24}  {'steps':>6}  {'final gap':>10}")
    for l0 in args.starts:
        traj = iterate_flow(beta, (l0, 0.0), args.steps)
        final = traj.points[-1][1]
        gaps = [max(abs(a - b) for a, b in zip(final, t)) for t in targets]
        best = min(range(len(targets)), key=lambda i: gaps[i])
        loc = ", ".join(f"{x:+.4f}" for x in targets[best])
        steps = -traj.points[-1][0]
        print(f"{l0:+8.3f}  ({loc}) {traj.termination:>10}  "
              f"{steps:>6}  {gaps[best]:>10.3e}")


if __name__ == "__main__":
    main()
