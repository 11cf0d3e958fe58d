"""Hemisphere confinement demo.

Cap data stays inside an open hemisphere along the projected flow: the
chart monitor W(|v|^2) never exceeds its initial maximum (up to the
declared dissipation band) and the dyadic small-energy certificate passes
below some radius.

Usage: python scripts/one_sided_demo.py [--latitude 60]
"""

import argparse

import numpy as np

from sphereflow.field import InitialData, generate
from sphereflow.flow import SolverConfig, run_projected
from sphereflow.geometry import Domain, build_grid
from sphereflow.singular import small_energy_certificate
from sphereflow.stereo import one_sided_check, one_sided_monitor


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--latitude", type=float, default=60.0)
    ap.add_argument("--h", type=float, default=1 / 32)
    ap.add_argument("--T", type=float, default=0.5)
    args = ap.parse_args()

    grid = build_grid(Domain.unit_ball(2), args.h)
    u0 = generate(InitialData(kind="cap", latitude_deg=args.latitude), grid, 2)
    chk = one_sided_check(u0)
    print(f"initial range check: passed={chk.passed}, "
          f"min last component={chk.min_component:.4f}, "
          f"theta0 proxy={chk.theta0_proxy:.4f}")

    cfg = SolverConfig(dt=SolverConfig.auto_dt(grid), T=args.T, output_stride=8)
    traj = run_projected(u0, cfg)
    mon = one_sided_monitor(traj)
    print(f"monitor passed={mon.passed}, "
          f"maxW drift={max(mon.max_w_track) - mon.max_w_track[0]:.2e} "
          f"(band {mon.band:.2e}), min last component "
          f"{min(mon.min_last_track):.4f}")
    print(f"chart identity residual (reported only): "
          f"mean={mon.pde_residual_mean:.3f}, max={mon.pde_residual_max:.3f}")

    ok, table = small_energy_certificate(traj, (args.T / 2, np.zeros(2)),
                                         [0.5, 0.25, 0.125, 0.0625], 1.0)
    for r, integral, bound, passed in table:
        print(f"  r={r:<7g} integral={integral:.3e}  bound={bound:.3e}  "
              f"{'pass' if passed else 'fail'}")


if __name__ == "__main__":
    main()
