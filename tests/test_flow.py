import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphereflow.errors import CFLViolated, NormBlowup
from sphereflow.field import (InitialData, SphereField, generate, l2_distance,
                              norm_squared_flat)
from sphereflow.flow import (PenaltySchedule, SolverConfig, Trajectory, chi,
                             chi_dot, glhf_step, kappa, kappa_dot,
                             penalty_integral, projected_flow_step, run_glhf,
                             run_projected, _diffuse, _logistic_norms,
                             _rk4_norms)
from sphereflow.geometry import Domain, build_grid
from sphereflow.stereo import stereo_inverse


# -- schedules ----------------------------------------------------------------

def test_kappa_values():
    assert kappa(0.0) == 0.0
    assert abs(kappa(1.0) - 0.25) <= 1e-15


def test_chi_piecewise_values():
    assert chi(1.0) == 1.0
    assert chi(5.0) == 3.0
    assert chi(-2.0) == -2.0


def test_chi_midpoint_band_and_monotone():
    assert 1.9 <= chi(3.0) <= 3.05
    s = np.linspace(2.0, 4.0, 401)
    dv = np.diff(chi(s))
    assert np.all(dv >= -1e-15)
    assert abs(chi(2.0) - 2.0) <= 1e-15 and abs(chi(4.0) - 3.0) <= 1e-15


@given(st.floats(min_value=-3.0, max_value=7.0))
@settings(max_examples=200)
def test_chi_dot_consistent_with_chi(s):
    d = 1e-5
    # skip the two C^1 junctions where one-sided curvatures differ
    if min(abs(s - 2.0), abs(s - 4.0)) < 2 * d:
        return
    fd = (chi(s + d) - chi(s - d)) / (2 * d)
    assert abs(fd - chi_dot(s)) <= 1e-8


# -- substeps -------------------------------------------------------------------

def _rk4_oracle(w, lam_eff, dt, n_sub=1000):
    """Independent fine-stepped integrator for dw/dt = 2 Lam w (1-w)."""
    hdt = dt / n_sub
    rhs = lambda y: 2.0 * lam_eff * y * (1.0 - y)
    for _ in range(n_sub):
        k1 = rhs(w)
        k2 = rhs(w + 0.5 * hdt * k1)
        k3 = rhs(w + 0.5 * hdt * k2)
        k4 = rhs(w + hdt * k3)
        w = w + hdt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return w


def test_logistic_closed_form_example():
    lam_eff = 1.0
    dt = math.log(3.0) / 2.0          # 2 Lam dt = ln 3
    w = _logistic_norms(np.array([0.5]), lam_eff, dt)
    assert abs(w[0] - 0.75) <= 1e-15
    assert abs(_rk4_oracle(0.5, lam_eff, dt) - 0.75) <= 1e-12
    # the production integrator only promises stability-grade accuracy
    w_rk = _rk4_norms(np.array([0.5]), lam_eff, dt, original_form=False)
    assert abs(w_rk[0] - 0.75) <= 1e-5


def test_logistic_edge_cases():
    assert _logistic_norms(np.array([0.0]), 5.0, 1.0)[0] == 0.0
    assert _logistic_norms(np.array([1.0]), 5.0, 1.0)[0] == 1.0


def test_constant_unit_field_is_fixed_point(disc16):
    f = generate(InitialData(kind="constant"), disc16, 2)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc16), T=0.01)
    out = glhf_step(f, 0.0, cfg, PenaltySchedule(lam=100.0))
    idx = disc16.active_flat
    assert np.max(np.abs(out.flat()[idx] - f.flat()[idx])) <= 1e-15
    out2 = projected_flow_step(f, 0.0, cfg)
    assert np.max(np.abs(out2.flat()[idx] - f.flat()[idx])) <= 1e-15


def test_discrete_harmonic_field_unchanged_by_diffusion(disc16):
    # linear components are in the kernel of the 5-point stencil, so every
    # interior node equals the average of its neighbors
    vals = np.zeros(disc16.shape + (3,))
    flat = vals.reshape(-1, 3)
    coords = disc16.coords()
    flat[:, 0] = 0.1 + 0.4 * coords[:, 0]
    flat[:, 1] = -0.2 * coords[:, 1]
    f = SphereField(disc16, vals, 2)
    out = _diffuse(f, SolverConfig.auto_dt(disc16))
    idx = disc16.interior_flat
    assert np.max(np.abs(out.flat()[idx] - f.flat()[idx])) <= 1e-14


def test_cfl_violation(disc16, cap60_32):
    cfg = SolverConfig(dt=10 * SolverConfig.auto_dt(disc16), T=0.1)
    f = generate(InitialData(kind="constant"), disc16, 2)
    with pytest.raises(CFLViolated):
        glhf_step(f, 0.0, cfg, PenaltySchedule(lam=10.0))


def test_norm_blowup_guard(disc16):
    f = generate(InitialData(kind="constant"), disc16, 2)
    f.flat()[disc16.interior_flat] *= 1.0 + 1e-6
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc16), T=0.01)
    with pytest.raises(NormBlowup):
        glhf_step(f, 0.0, cfg, PenaltySchedule(lam=2.0))


def test_norm_blowup_guard_catches_nan(disc16):
    f = generate(InitialData(kind="cap", latitude_deg=60.0), disc16, 2)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc16), T=0.01)
    sched = PenaltySchedule(lam=float("nan"))
    with pytest.raises(NormBlowup):
        glhf_step(f, 0.0, cfg, sched)
    with pytest.raises(NormBlowup):
        run_glhf(f, cfg, sched)


# -- runs -----------------------------------------------------------------------

def test_constant_trajectory_is_constant(disc16):
    f = generate(InitialData(kind="constant"), disc16, 2)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc16), T=0.02)
    traj = run_glhf(f, cfg, PenaltySchedule(lam=100.0))
    idx = disc16.active_flat
    for snap in traj.snapshots:
        assert np.max(np.abs(snap.flat()[idx] - f.flat()[idx])) <= 1e-15
    assert penalty_integral(traj) == 0.0


def test_cap_run_norm_bounded(disc16):
    u0 = generate(InitialData(kind="cap", latitude_deg=60.0), disc16, 2)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc16), T=0.5, output_stride=64)
    traj = run_glhf(u0, cfg, PenaltySchedule(lam=100.0))
    assert max(r.max_norm for r in traj.records) <= 1.0 + 1e-12


@given(st.integers(min_value=0, max_value=1_000))
@settings(max_examples=10, deadline=None)
def test_maximum_principle_random_fields(seed):
    g = build_grid(Domain.unit_ball(2), 1 / 8)
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(g.shape + (3,)) + 0.3
    u0 = generate(InitialData(kind="custom-samples", samples=samples), g, 2)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(g), T=30 * SolverConfig.auto_dt(g),
                       output_stride=5)
    traj = run_glhf(u0, cfg, PenaltySchedule(lam=1e3))
    assert max(r.max_norm for r in traj.records) <= 1.0 + 1e-12


def test_bitwise_determinism(disc16):
    u0 = generate(InitialData(kind="cap", latitude_deg=45.0), disc16, 2)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc16), T=0.05, output_stride=16)
    a = run_glhf(u0, cfg, PenaltySchedule(lam=500.0))
    b = run_glhf(u0, cfg, PenaltySchedule(lam=500.0))
    assert np.array_equal(a.snapshots[-1].values, b.snapshots[-1].values)
    assert [r.gl_energy for r in a.records] == [r.gl_energy for r in b.records]


@pytest.mark.parametrize("original_form", [False, True])
def test_run_first_step_equals_public_glhf_step(disc16, original_form):
    u0 = generate(InitialData(kind="cap", latitude_deg=45.0), disc16, 2)
    dt = SolverConfig.auto_dt(disc16)
    cfg = SolverConfig(dt=dt, T=dt, output_stride=1)
    sched = PenaltySchedule(lam=500.0, use_original_form=original_form)
    traj = run_glhf(u0, cfg, sched)
    assert len(traj.snapshots) == 2
    assert np.array_equal(traj.snapshots[1].values,
                          glhf_step(u0, 0.0, cfg, sched).values)


def test_run_first_step_equals_public_projected_step(disc16):
    u0 = generate(InitialData(kind="cap", latitude_deg=45.0), disc16, 2)
    dt = SolverConfig.auto_dt(disc16)
    cfg = SolverConfig(dt=dt, T=dt, output_stride=1)
    traj = run_projected(u0, cfg)
    assert len(traj.snapshots) == 2
    assert np.array_equal(traj.snapshots[1].values,
                          projected_flow_step(u0, 0.0, cfg).values)


def test_times_strictly_increasing(cap_run_32):
    t = np.asarray(cap_run_32.times)
    assert np.all(np.diff(t) > 0)


def test_projected_output_unit_norm(disc16, rng):
    samples = rng.standard_normal(disc16.shape + (3,)) + 0.2
    u0 = generate(InitialData(kind="custom-samples", samples=samples), disc16, 2)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc16), T=0.01)
    out = projected_flow_step(u0, 0.0, cfg)
    norms = np.linalg.norm(out.flat()[disc16.active_flat], axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_hedgehog_near_equilibrium_refinement():
    # one projected step at shared dt; the rate away from a fixed
    # neighborhood of the singular point scales like h^2
    incs = {}
    dt = SolverConfig.auto_dt(build_grid(Domain.unit_ball(3), 1 / 16))
    for h in (1 / 8, 1 / 16):
        g = build_grid(Domain.unit_ball(3), h)
        f = generate(InitialData(kind="equator-hedgehog"), g, 2)
        cfg = SolverConfig(dt=dt, T=10 * dt)
        out = projected_flow_step(f, 0.0, cfg)
        mask = np.linalg.norm(g.coords()[g.interior_flat], axis=1) > 0.3
        d = out.flat()[g.interior_flat][mask] - f.flat()[g.interior_flat][mask]
        incs[h] = math.sqrt(float(np.einsum("ij,ij->", d, d)) * g.cell_volume)
    assert incs[1 / 16] <= 0.5 * incs[1 / 8]


def test_original_form_matches_simplified_for_unit_data(disc16):
    u0 = generate(InitialData(kind="cap", latitude_deg=60.0), disc16, 2)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc16), T=0.02, output_stride=8)
    a = run_glhf(u0, cfg, PenaltySchedule(lam=1e3))
    b = run_glhf(u0, cfg, PenaltySchedule(lam=1e3, use_original_form=True))
    # the cutoff slope is identically 1 while |u| <= 1, so the forms differ
    # only by the integrator
    assert l2_distance(a.snapshots[-1], b.snapshots[-1]) <= 1e-5


def test_long_run_reaches_projected_equilibrium(disc16):
    wrap = generate(InitialData(kind="boundary-wrap", winding=1), disc16, 2)
    vals = np.zeros(disc16.shape + (3,))
    vals[..., 2] = 1.0
    flat = vals.reshape(-1, 3)
    flat[disc16.boundary_flat] = wrap.flat()[disc16.boundary_flat]
    u0 = generate(InitialData(kind="custom-samples", samples=vals), disc16, 2)

    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc16), T=1.0, output_stride=16)
    glhf = run_glhf(u0, cfg, PenaltySchedule(lam=1e6))
    oracle = run_projected(u0, SolverConfig(dt=cfg.dt, T=3.0, output_stride=512))
    steady = oracle.snapshots[-1]

    dists = np.array([l2_distance(s, steady) for s in glhf.snapshots])
    assert dists[-1] <= disc16.h + math.exp(-5.0 * cfg.T)
    half = len(dists) // 2
    assert np.all(np.diff(dists[half:]) <= dists[0] * 1e-9)


def test_dissipation_identity_on_transient(disc16):
    coords = disc16.coords()
    v = np.zeros((disc16.n_lattice, 2))
    v[:, 0] = 0.4 * np.sin(np.pi * coords[:, 0]) * np.cos(0.5 * np.pi * coords[:, 1])
    v[:, 1] = 0.3 * np.cos(np.pi * coords[:, 0]) * np.sin(np.pi * coords[:, 1])
    samples = stereo_inverse(v).reshape(disc16.shape + (3,))
    u0 = generate(InitialData(kind="custom-samples", samples=samples), disc16, 2)

    lam = 100.0
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc16), T=0.05, output_stride=1)
    tr = run_glhf(u0, cfg, PenaltySchedule(lam=lam))
    idx = disc16.interior_flat
    vol = disc16.cell_volume
    for k in range(10, len(tr.records) - 1):
        rk = tr.records[k]
        dEdt = (tr.records[k + 1].gl_energy - rk.gl_energy) / cfg.dt
        du = tr.snapshots[k + 1].flat()[idx] - tr.snapshots[k].flat()[idx]
        diss = -float(np.einsum("ij,ij->", du, du)) / cfg.dt ** 2 * vol
        w = norm_squared_flat(tr.snapshots[k])[idx]
        lam_eff = lam ** (1.0 - float(kappa(rk.t)))
        drift = -float(kappa_dot(rk.t)) * math.log(lam) * lam_eff \
            * float(np.sum((w - 1.0) ** 2)) * vol / 4.0
        pred = diss + drift
        assert abs(dEdt - pred) <= 0.10 * abs(pred)


def test_static_trajectory_invariants(disc16):
    f = generate(InitialData(kind="constant"), disc16, 2)
    with pytest.raises(ValueError):
        Trajectory.static(f, [0.0])
    with pytest.raises(ValueError):
        Trajectory.static(f, [0.0, 0.0])
    traj = Trajectory.static(f, [0.0, 0.1, 0.2])
    assert penalty_integral(traj) == 0.0
