"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime.  Tolerances are pinned here and nowhere
else.  Run with  pytest tests/test_acceptance.py -v -s  to see the lines.
"""

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from sphereflow.cli import run_experiment, sweep
from sphereflow.diagnostics import (MU_GRID, C_GRID, backward_heat_kernel,
                                    monotonicity_report, weight_d)
from sphereflow.elliptic import solve_harmonic_extension
from sphereflow.field import InitialData, dirichlet_energy, generate
from sphereflow.flow import (PenaltySchedule, SolverConfig, Trajectory,
                             penalty_integral, run_glhf, run_projected,
                             trajectory_l2q_distance)
from sphereflow.geometry import Domain, build_grid
from sphereflow.singular import (SingularConfig, detect_singular_set,
                                 local_scaled_energy, small_energy_certificate)
from sphereflow.stereo import W, one_sided_monitor, stereo_forward, stereo_inverse

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(name, ok, elapsed, detail=""):
    line = f"[{name}] {'PASS' if ok else 'FAIL'} ({elapsed:.1f} s) {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def lam_sweep(disc32, cap60_32):
    """Shared runs for the penalty-decay and convergence criteria."""
    t0 = time.time()
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc32), T=0.25, output_stride=8)
    proj = run_projected(cap60_32, cfg)
    runs = {lam: run_glhf(cap60_32, cfg, PenaltySchedule(lam=lam))
            for lam in (1e2, 1e3, 1e4)}
    return {"proj": proj, "runs": runs, "elapsed": time.time() - t0, "cfg": cfg}


def test_criterion_1_maximum_principle(disc32):
    t0 = time.time()
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc32), T=0.25, output_stride=64)
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal(disc32.shape + (3,)) + 0.3
        u0 = generate(InitialData(kind="custom-samples", samples=samples), disc32, 2)
        traj = run_glhf(u0, cfg, PenaltySchedule(lam=1e3))
        worst = max(worst, max(r.max_norm for r in traj.records))
    elapsed = time.time() - t0
    ok = worst <= 1.0 + 1e-12 and elapsed < 30.0
    report("criterion 1: maximum principle", ok, elapsed,
           f"worst max|u| - 1 = {worst - 1.0:.2e}")


def test_criterion_2_penalty_decay(lam_sweep):
    t0 = time.time()
    p = {lam: penalty_integral(tr) for lam, tr in lam_sweep["runs"].items()}
    strictly_decreasing = p[1e2] > p[1e3] > p[1e4] > 0.0
    ratio = (p[1e2] * math.log(1e2)) / (p[1e4] * math.log(1e4))
    elapsed = lam_sweep["elapsed"] + (time.time() - t0)
    ok = strictly_decreasing and 0.2 <= ratio <= 5.0 and elapsed < 120.0
    report("criterion 2: penalty decay", ok, elapsed,
           f"P = {p[1e2]:.3e} > {p[1e3]:.3e} > {p[1e4]:.3e}, "
           f"band ratio = {ratio:.2f}")


def test_criterion_3_lambda_convergence(lam_sweep):
    t0 = time.time()
    proj = lam_sweep["proj"]
    d = {lam: trajectory_l2q_distance(tr, proj)
         for lam, tr in lam_sweep["runs"].items()}
    ok = d[1e2] >= d[1e3] >= d[1e4]
    report("criterion 3: lambda convergence", ok, time.time() - t0,
           f"L2(Q) dist = {d[1e2]:.3e} >= {d[1e3]:.3e} >= {d[1e4]:.3e}")


def test_criterion_4_hedgehog_scaled_energy(hedgehog32):
    t0 = time.time()
    traj = Trajectory.static(hedgehog32, np.linspace(0.0, 0.25, 6))
    z0 = (0.125, np.zeros(3))
    target = 8 * math.pi
    vals = {R: local_scaled_energy(traj, z0, R, mode="dirichlet")
            for R in (1 / 8, 1 / 4)}
    within = all(abs(v - target) / target <= 0.15 for v in vals.values())
    spread = abs(vals[1 / 8] - vals[1 / 4]) / max(vals.values())
    elapsed = time.time() - t0
    ok = within and spread <= 0.20 and elapsed < 60.0
    report("criterion 4: hedgehog scaled energy", ok, elapsed,
           f"M(1/8) = {vals[1/8]:.2f}, M(1/4) = {vals[1/4]:.2f}, "
           f"target {target:.2f}, spread {spread:.1%}")


def test_criterion_5_singular_detector(lam_sweep):
    t0 = time.time()
    g = build_grid(Domain.unit_ball(3), 1 / 16)
    u0 = generate(InitialData(kind="equator-hedgehog"), g, 2)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(g), T=0.5, output_stride=20)
    run = run_projected(u0, cfg)
    scfg = SingularConfig(eps0=1.0, radii=[0.125, 0.25, 0.5],
                          time_stride=1, space_stride=8,
                          deltas=[0.5, 0.25, 0.125], mode="gl")
    rep = detect_singular_set(run, scfg)
    origin_only = bool(rep.flagged) and all(
        np.linalg.norm(x) == 0.0 for _, x in rep.flagged)
    dim_ok = rep.dimension_estimate is not None and \
        1.5 <= rep.dimension_estimate <= 2.5

    cap_cfg = SingularConfig(eps0=1.0, radii=[1 / 16, 1 / 8, 1 / 4],
                             time_stride=8, space_stride=4, mode="gl")
    cap_rep = detect_singular_set(lam_sweep["runs"][1e3], cap_cfg)
    elapsed = time.time() - t0
    ok = origin_only and dim_ok and cap_rep.flagged == [] and elapsed < 120.0
    report("criterion 5: singular detector", ok, elapsed,
           f"{len(rep.flagged)} points on the origin line, "
           f"dimension {rep.dimension_estimate:.2f}, cap flags {len(cap_rep.flagged)}")


def test_criterion_6_kernels_weights_transforms():
    t0 = time.time()
    norm_ok = True
    for d in (2, 3):
        tau = 0.01
        h = math.sqrt(4 * tau) / 4.0
        n = int(math.ceil(8 * math.sqrt(tau) / h))
        axes = [np.arange(-n, n + 1) * h] * d
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        total = np.sum(backward_heat_kernel((tau, np.zeros(d)), 0.0, pts)) * h ** d
        norm_ok &= abs(total - 1.0) <= 1e-6

    x0 = np.zeros(2)
    w_ok = (weight_d(x0, x0, 2.0) == 1.0
            and weight_d(x0, np.array([1.0, 0.0]), 2.0) == 1.25
            and weight_d(x0, np.array([2.0, 0.0]), 2.0) == 2.0)

    rng = np.random.default_rng(1)
    v = rng.uniform(-1, 1, size=(256, 3))
    v *= 10.0 / max(1.0, float(np.linalg.norm(v, axis=1).max()))
    rt = np.max(np.abs(stereo_forward(stereo_inverse(v)) - v))
    stereo_ok = rt <= 1e-12
    w_val_ok = abs(W(1.0) - 0.5) <= 1e-12

    elapsed = time.time() - t0
    ok = norm_ok and w_ok and stereo_ok and w_val_ok
    report("criterion 6: kernels, weights, transforms", ok, elapsed,
           f"roundtrip err {rt:.1e}")


def test_criterion_7_harmonic_extension(rng):
    t0 = time.time()
    h = 1 / 8
    g = build_grid(Domain.unit_ball(2), h)
    bd = generate(InitialData(kind="boundary-wrap", winding=1), g, 2)
    ext = solve_harmonic_extension(g, bd, tol=1e-10)
    idx = g.interior_flat
    exact = np.zeros((idx.size, 3))
    exact[:, :2] = g.coords()[idx]
    err = float(np.max(np.linalg.norm(ext.field.flat()[idx] - exact, axis=1)))

    center = np.flatnonzero(np.all(g.coords() == 0.0, axis=1))[0]
    mv = float(np.linalg.norm(ext.field.flat()[center]
                              - ext.field.flat()[g.boundary_flat].mean(axis=0)))

    base = dirichlet_energy(ext.field)
    minimal = True
    for _ in range(5):
        pert = ext.field.copy()
        pert.flat()[idx] += rng.standard_normal((idx.size, 3)) * 0.05
        minimal &= dirichlet_energy(pert) - base >= -1e-10

    elapsed = time.time() - t0
    ok = err <= 5 * h * h and mv <= 1e-6 + 2 * h * h and minimal
    report("criterion 7: harmonic extension", ok, elapsed,
           f"max err {err:.4f} <= {5*h*h:.4f}, mean-value gap {mv:.1e}")


def test_criterion_8_one_sided(onesided_run_32):
    t0 = time.time()
    run = onesided_run_32
    mon = one_sided_monitor(run)
    min_last = min(mon.min_last_track)
    w_ok = max(mon.max_w_track) <= mon.max_w_track[0] + mon.band
    _, table = small_energy_certificate(run, (0.25, np.zeros(2)),
                                        [0.5, 0.25, 0.125, 0.0625], 1.0)
    r_star = [row[0] for row in table if row[3]]
    elapsed = time.time() - t0
    ok = (mon.passed and min_last >= 0.25 and w_ok and bool(r_star)
          and elapsed < 60.0)
    report("criterion 8: one-sided condition", ok, elapsed,
           f"min u_last {min_last:.3f}, maxW drift "
           f"{max(mon.max_w_track) - mon.max_w_track[0]:.1e}, "
           f"certificate passes below r = {max(r_star) if r_star else None}")


def test_criterion_9_monotonicity_fits(lam_sweep, disc16):
    t0 = time.time()
    traj = lam_sweep["runs"][1e3]
    z0 = (0.2, np.zeros(2))
    fits_ok = True
    defects = []
    for r1, r2 in ((0.07, 0.14), (0.07, 0.2), (0.1, 0.2)):
        rep = monotonicity_report(traj, z0, r1, r2)
        defects.append(rep.defect)
        fits_ok &= rep.defect == 0.0 and rep.mu0 in MU_GRID and rep.c in tuple(C_GRID)

    const = Trajectory.static(generate(InitialData(kind="constant"), disc16, 2),
                              np.linspace(0.0, 1.0, 11))
    crep = monotonicity_report(const, (1.0, np.zeros(2)), 0.2, 0.4)
    const_ok = (crep.annulus_energy_inner == 0.0 and crep.speed_term == 0.0
                and crep.outer_energy == 0.0 and crep.defect == 0.0)
    elapsed = time.time() - t0
    ok = fits_ok and const_ok
    report("criterion 9: monotonicity fits", ok, elapsed,
           f"defects {defects}, constant-trajectory terms all zero: {const_ok}")


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    identical = True
    checked = 0
    for name in ("cap_disc", "hedgehog_ball", "onesided_cap"):
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert run_experiment(CONFIGS / f"{name}.json", a) == 0
        assert run_experiment(CONFIGS / f"{name}.json", b) == 0
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        identical &= files_a == files_b
        for rel in files_a:
            identical &= (a / rel).read_bytes() == (b / rel).read_bytes()
            checked += 1
    elapsed = time.time() - t0
    ok = identical and checked >= 3
    report("criterion 10: determinism", ok, elapsed,
           f"{checked} files byte-compared across reruns")


def _great_circle(x, t):
    """u = (cos phi, sin phi, 0) with
    phi = x1 + e^(-d pi^2 t) sin(pi x1) ... sin(pi xd) on [0, 1]^d.

    phi solves the heat equation, so u solves the harmonic map heat flow
    u_t = lap u + |grad u|^2 u on [0, 1]^d, with boundary values fixed in t.
    """
    d = x.shape[1]
    phi = math.exp(-d * math.pi ** 2 * t)
    for a in range(d):
        phi = phi * np.sin(math.pi * x[:, a])
    phi = x[:, 0] + phi
    return np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=1)


def _exact_solution_error(h, lam=None, d=2):
    """Max-norm error over the interior nodes at the last snapshot of the
    projected run (``lam`` None) or the penalized run on [0, 1]^d, T = 0.05,
    dt auto."""
    g = build_grid(Domain.box([[0.0, 1.0]] * d), h)
    samples = _great_circle(g.coords(), 0.0).reshape(g.shape + (3,))
    u0 = generate(InitialData(kind="custom-samples", samples=samples), g, 2)
    # a stride past the last step keeps the first and last snapshots only
    cfg = SolverConfig(dt=SolverConfig.auto_dt(g), T=0.05, output_stride=10_000)
    traj = run_projected(u0, cfg) if lam is None else \
        run_glhf(u0, cfg, PenaltySchedule(lam=lam))
    exact = _great_circle(g.interior_coords, traj.t_final)
    return float(np.max(np.abs(traj.snapshots[-1].flat()[g.interior_flat] - exact)))


def test_criterion_11_exact_solution():
    t0 = time.time()
    hs = (1 / 8, 1 / 16, 1 / 32, 1 / 64)
    proj = [_exact_solution_error(h) for h in hs]
    orders = [math.log2(a / b) for a, b in zip(proj, proj[1:])]
    # the error constant err / h^2 is 0.38-0.39; a run whose times are one
    # step off keeps order 2 (dt ~ h^2) but doubles it
    const = max(e / h ** 2 for e, h in zip(proj, hs))
    pen = {lam: _exact_solution_error(1 / 32, lam) for lam in (1e2, 1e3, 1e5)}
    fall = pen[1e2] / pen[1e3]
    gap = abs(pen[1e5] - proj[2]) / proj[2]
    # the 3-D leg on [0, 1]^3: err / h^2 is 0.36 at both spacings
    hs3 = (1 / 8, 1 / 16)
    proj3 = [_exact_solution_error(h, d=3) for h in hs3]
    order3 = math.log2(proj3[0] / proj3[1])
    const3 = max(e / h ** 2 for e, h in zip(proj3, hs3))
    elapsed = time.time() - t0
    ok = (orders[-1] >= 1.8 and const <= 0.5 and fall >= 8.0 and gap <= 0.05
          and order3 >= 1.8 and const3 <= 0.46)
    report("criterion 11: exact solution", ok, elapsed,
           f"projected err {', '.join(f'{e:.2e}' for e in proj)} "
           f"(<= {const:.2f} h^2), orders "
           f"{', '.join(f'{p:.2f}' for p in orders)}; penalized at h = 1/32: "
           f"{pen[1e2]:.2e} -> {pen[1e3]:.2e} ({fall:.1f}x), "
           f"lambda 1e5 off projected by {gap:.1e} relative; 3-D projected err "
           f"{', '.join(f'{e:.2e}' for e in proj3)} (<= {const3:.2f} h^2), "
           f"order {order3:.2f}")


def test_criterion_12_hedgehog_energy_converges_to_8pi(tmp_path):
    # the projected equator hedgehog in the unit ball: its scaled Dirichlet
    # energy mbar on the cylinder of radius 1/4 around the origin tends to
    # the 8 pi of the static hedgehog x/|x| as h -> 0, at first order (the
    # errors are 7.08 and 3.60 at h = 1/8 and 1/16)
    t0 = time.time()
    cfg = {
        "domain": {"kind": "unit-ball", "d": 3},
        "h": 0.0625,
        "D": 2,
        "initial": {"kind": "equator-hedgehog"},
        "solver": {"mode": "projected", "T": 0.14, "dt": "auto",
                   "output_stride": 32},
        "diagnostics": {"mbar_probe": {"R": 0.25, "mode": "dirichlet",
                                       "t0": 0.07, "x0": [0.0, 0.0, 0.0]}},
        "seed": 0,
    }
    p = tmp_path / "hh_sweep.json"
    p.write_text(json.dumps(cfg))
    hs = (1 / 8, 1 / 16)
    assert sweep(p, "h", list(hs), tmp_path / "out") == 0
    with open(tmp_path / "out" / "sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    m = [float(r["mbar"]) for r in rows]
    target = 8 * math.pi
    err = [target - v for v in m]
    order = math.log2(err[0] / err[1]) if min(err) > 0 else float("nan")
    # first-order Richardson extrapolation of mbar to h = 0
    richardson = 2.0 * m[1] - m[0]
    gap = (richardson - target) / target
    elapsed = time.time() - t0
    ok = order >= 0.8 and abs(gap) <= 0.02
    report("criterion 12: hedgehog energy converges to 8 pi", ok, elapsed,
           f"mbar {m[0]:.3f}, {m[1]:.3f} at h = 1/8, 1/16 (8 pi = {target:.3f}), "
           f"order {order:.3f}, Richardson {richardson:.3f} ({gap:+.2%})")
