"""Penalty-strength sweep on smooth cap data.

Runs the penalized flow at several strengths against the projected-flow
reference and prints the penalty integrals and trajectory distances; the
scaled penalty column should stay O(1) as the strength grows.

Usage: python scripts/run_lambda_sweep.py [--out sweep.csv]
"""

import argparse
import math

from sphereflow.field import InitialData, generate
from sphereflow.flow import (PenaltySchedule, SolverConfig, penalty_integral,
                             run_glhf, run_projected, trajectory_l2q_distance)
from sphereflow.geometry import Domain, build_grid
from sphereflow.io import write_csv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="lambda_sweep.csv")
    ap.add_argument("--h", type=float, default=1 / 32)
    ap.add_argument("--T", type=float, default=0.25)
    ap.add_argument("--lams", default="100,1000,10000")
    args = ap.parse_args()

    grid = build_grid(Domain.unit_ball(2), args.h)
    u0 = generate(InitialData(kind="cap", latitude_deg=60.0), grid, 2)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(grid), T=args.T, output_stride=8)
    proj = run_projected(u0, cfg)

    rows = []
    for lam in (float(x) for x in args.lams.split(",")):
        traj = run_glhf(u0, cfg, PenaltySchedule(lam=lam))
        p = penalty_integral(traj)
        d = trajectory_l2q_distance(traj, proj)
        rows.append([lam, p, p * math.log(lam), d])
        print(f"lambda={lam:>8g}  penalty={p:.4e}  scaled={p*math.log(lam):.4e}  "
              f"L2(Q) dist to projected={d:.4e}")

    from pathlib import Path
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_csv(Path(args.out), ["lambda", "penalty_integral",
                               "penalty_times_log_lambda", "l2q_to_projected"], rows)
    print("wrote", args.out)


if __name__ == "__main__":
    main()
