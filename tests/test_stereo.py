import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from sphereflow.errors import PoleProximity
from sphereflow.field import InitialData, generate
from sphereflow.flow import SolverConfig, Trajectory, run_projected
from sphereflow.geometry import Domain, build_grid, neighbor_sum
from sphereflow.stereo import (RESIDUAL_SEED, W, _pde_residual_samples,
                               one_sided_check, one_sided_monitor,
                               stereo_forward, stereo_inverse)


@pytest.fixture(scope="module")
def cap_run_3d():
    """Projected cap run on the 3-ball at h = 1/16, 12 snapshots."""
    g = build_grid(Domain.unit_ball(3), 1 / 16)
    u0 = generate(InitialData(kind="cap", latitude_deg=60.0), g, 2)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(g), T=0.05, output_stride=8)
    return run_projected(u0, cfg)


def test_north_pole_maps_to_origin():
    u = np.array([[0.0, 0.0, 1.0]])
    np.testing.assert_allclose(stereo_forward(u), [[0.0, 0.0]], atol=1e-15)


def test_equator_has_zero_last_component():
    v = np.array([[1.0, 0.0], [0.0, -1.0]])
    u = stereo_inverse(v)
    np.testing.assert_allclose(u[:, 2], 0.0, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-14)


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=100)
def test_roundtrip_chart(seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1, 1, size=(16, 2))
    v *= rng.uniform(0.0, 10.0) / max(1.0, np.linalg.norm(v, axis=1).max())
    u = stereo_inverse(v)
    np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-14)
    back = stereo_forward(u)
    assert np.max(np.abs(back - v)) <= 1e-12


def test_pole_proximity_raises(disc16):
    f = generate(InitialData(kind="constant", vector=[0.0, 0.0, -1.0]), disc16, 2)
    with pytest.raises(PoleProximity):
        stereo_forward(f.active_values())


def test_w_values():
    assert W(0.0) == 0.0
    assert abs(W(1.0) - 0.5) <= 1e-15
    assert abs(W(3.0) - 0.3) <= 1e-15


def test_w_monotone_regions():
    xs = np.linspace(0.0, 1.0, 101)
    assert np.all(np.diff(W(xs)) > 0)
    ys = np.linspace(1.0, 20.0, 101)
    assert np.all(np.diff(W(ys)) < 0)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_w_against_quadrature_oracle(x):
    integrand = lambda t: (1.0 - t * t) / (1.0 + t * t) ** 2
    val, _ = quad(integrand, 0.0, x, epsabs=1e-13, epsrel=1e-13)
    assert abs(W(x) - val) <= 1e-10


def test_one_sided_check_north_pole(disc16):
    f = generate(InitialData(kind="constant"), disc16, 2)
    chk = one_sided_check(f)
    assert chk.passed
    assert chk.min_component == pytest.approx(1.0, abs=1e-12)
    assert chk.theta0_proxy == pytest.approx(0.5, abs=1e-12)


def test_one_sided_check_hedgehog_fails(hedgehog32):
    chk = one_sided_check(hedgehog32)
    assert not chk.passed
    assert chk.min_component <= 0.0


def test_one_sided_check_cap(disc32, cap60_32):
    chk = one_sided_check(cap60_32)
    assert chk.passed
    assert chk.min_component >= 0.5 - 2 * disc32.h


def test_monitor_constant_track(disc16):
    f = generate(InitialData(kind="cap", latitude_deg=30.0), disc16, 2)
    traj = Trajectory.static(f, [0.0, 0.1, 0.2])
    rep = one_sided_monitor(traj, n_residual_samples=0)
    assert rep.passed
    assert max(rep.max_w_track) - min(rep.max_w_track) <= 1e-15


def test_monitor_cap_run(onesided_run_32):
    rep = one_sided_monitor(onesided_run_32)
    assert rep.passed
    assert rep.first_violation_step is None
    assert max(rep.max_w_track) <= rep.max_w_track[0] + rep.band
    assert min(rep.min_last_track) >= rep.theta0_proxy / 2.0 - rep.band
    assert rep.pde_residual_mean is not None


def test_monitor_flags_injected_equator_crossing(disc16):
    u0 = generate(InitialData(kind="cap", latitude_deg=30.0), disc16, 2)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc16), T=0.02, output_stride=8)
    traj = run_projected(u0, cfg)
    bad_step = len(traj.snapshots) // 2
    bad = traj.snapshots[bad_step].copy()
    node = disc16.interior_flat[0]
    bad.flat()[node] = [1.0, 0.0, 0.0]        # equator value
    traj.snapshots[bad_step] = bad
    rep = one_sided_monitor(traj, n_residual_samples=0)
    assert not rep.passed
    assert rep.first_violation_step == bad_step


def test_monitor_reports_pole_hit_as_failure(disc16):
    u0 = generate(InitialData(kind="cap", latitude_deg=30.0), disc16, 2)
    traj = Trajectory.static(u0, [0.0, 0.1, 0.2])
    traj = Trajectory(grid=traj.grid, target_dim=2, times=traj.times,
                      snapshots=list(traj.snapshots), records=traj.records,
                      mode="static", lam=None, dt=traj.dt)
    bad = u0.copy()
    bad.flat()[disc16.interior_flat[0]] = [0.0, 0.0, -1.0]
    traj.snapshots[1] = bad
    rep = one_sided_monitor(traj, n_residual_samples=0)
    assert not rep.passed
    assert rep.first_violation_step == 1


def _lattice_residual_oracle(traj, rot, n_samples):
    """The residual samples from whole-lattice arrays: W and the chart values
    scattered into lattice-sized arrays, and W's neighbour sum from
    ``neighbor_sum``, read at each sampled node."""
    g = traj.grid
    act, idx, s = g.active_flat, g.interior_flat, g.strides()

    def lattice(snap):
        v = stereo_forward(snap.flat()[act] @ rot.T)
        wlat = np.zeros(g.n_lattice)
        wlat[act] = W(np.einsum("ij,ij->i", v, v))
        vlat = np.zeros((g.n_lattice, v.shape[1]))
        vlat[act] = v
        return wlat, vlat, neighbor_sum(wlat, s)

    rng = np.random.default_rng(RESIDUAL_SEED)
    ks = rng.integers(0, len(traj.snapshots) - 1, size=n_samples)
    js = rng.integers(0, idx.size, size=n_samples)
    out = []
    for k, j in sorted(zip(ks.tolist(), js.tolist())):
        node = int(idx[j])
        w_k, v_k, w_nbr = lattice(traj.snapshots[k])
        w_k1 = lattice(traj.snapshots[k + 1])[0]
        w_t = (w_k1[node] - w_k[node]) / (traj.times[k + 1] - traj.times[k])
        lap = (w_nbr[node] - 2 * g.d * w_k[node]) / g.h ** 2
        grad2 = 0.0
        for a in range(g.d):
            dv = (v_k[node + s[a]] - v_k[node - s[a]]) / (2 * g.h)
            grad2 += float(np.dot(dv, dv))
        sv = float(np.dot(v_k[node], v_k[node]))
        out.append(abs(w_t - lap + 4.0 * grad2 / (1.0 + sv) ** 2))
    return np.asarray(out)


@pytest.mark.parametrize("run", ["onesided_run_32", "cap_run_3d"])
def test_residual_samples_match_lattice_oracle(run, request):
    traj = request.getfixturevalue(run)
    rot = one_sided_check(traj.snapshots[0]).rotation
    got = _pde_residual_samples(traj, rot, 100)
    assert got.shape == (100,)
    assert np.array_equal(got, _lattice_residual_oracle(traj, rot, 100))


def test_monitor_holds_no_lattice_chart_fields(cap_run_3d):
    traj = cap_run_3d
    tracemalloc.start()
    try:
        rep = one_sided_monitor(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.pde_residual_mean is not None
    assert peak < 2 * traj.snapshots[0].values.nbytes
