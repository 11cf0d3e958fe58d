import dataclasses
import json

import numpy as np
import pytest

from sphereflow import diagnostics
from sphereflow.diagnostics import CylinderSpec, cylinder_integral, energy_report
from sphereflow.errors import EmptyIntersection, TooFewScales
from sphereflow.field import InitialData, generate
from sphereflow.flow import SolverConfig, Trajectory, run_projected
from sphereflow.geometry import Domain, build_grid
from sphereflow.singular import (SingularConfig, detect_singular_set,
                                 local_scaled_energy, parabolic_box_count,
                                 small_energy_certificate)


def test_local_energy_constant_zero(disc16):
    f = generate(InitialData(kind="constant"), disc16, 2)
    traj = Trajectory.static(f, [0.0, 0.1, 0.2])
    for R in (0.2, 0.4):
        for t0 in (0.05, 0.15):
            assert local_scaled_energy(traj, (t0, np.zeros(2)), R) == 0.0


def test_local_energy_hedgehog_eight_pi(hedgehog32):
    traj = Trajectory.static(hedgehog32, np.linspace(0.0, 0.25, 6))
    z0 = (0.125, np.zeros(3))
    target = 8 * np.pi
    vals = {}
    for R in (1 / 8, 1 / 4):
        vals[R] = local_scaled_energy(traj, z0, R, mode="dirichlet")
        assert abs(vals[R] - target) / target <= 0.15
    spread = abs(vals[1 / 8] - vals[1 / 4]) / max(vals.values())
    assert spread <= 0.20


def test_static_trajectory_shares_one_density(hedgehog32, monkeypatch):
    # a static trajectory repeats one field: each of its two cylinders
    # evaluates its ball once, whatever the snapshots in its window, and an
    # energy report builds at most one whole density
    calls = []
    density = diagnostics.gradient_squared_density

    def counted(f, nodes=None):
        calls.append("full" if nodes is None else "ball")
        return density(f, nodes)

    times = np.linspace(0.0, 0.25, 6)
    # the same field as distinct copies: one ball evaluation per snapshot
    copies = Trajectory.static(hedgehog32, times)
    copies.snapshots = [hedgehog32.copy() for _ in times]
    z0 = (0.125, np.zeros(3))
    expected = [local_scaled_energy(copies, z0, R, mode="dirichlet")
                for R in (1 / 8, 1 / 4)]

    monkeypatch.setattr(diagnostics, "gradient_squared_density", counted)
    traj = Trajectory.static(hedgehog32, times)
    for R, value in zip((1 / 8, 1 / 4), expected):
        before = calls.count("ball")
        assert local_scaled_energy(traj, z0, R, mode="dirichlet") == value
        assert calls.count("ball") - before <= 1
    energy_report(traj, len(traj.snapshots) - 1)
    assert calls.count("full") <= 1


def test_local_energy_gl_dominates_dirichlet(cap_run_32):
    z0 = (0.125, np.zeros(2))
    for R in (0.125, 0.25):
        gl = local_scaled_energy(cap_run_32, z0, R, mode="gl")
        dir_half = local_scaled_energy(cap_run_32, z0, R, mode="dirichlet")
        assert gl >= dir_half - 1e-15


def test_local_energy_decreases_with_radius_on_smooth(cap_run_32):
    z0 = (0.125, np.zeros(2))
    v_big = local_scaled_energy(cap_run_32, z0, 0.25, mode="gl")
    v_small = local_scaled_energy(cap_run_32, z0, 0.125, mode="gl")
    assert v_small <= 1.05 * v_big


def test_local_energy_empty_intersection(disc16):
    f = generate(InitialData(kind="constant"), disc16, 2)
    traj = Trajectory.static(f, [0.0, 0.1])
    with pytest.raises(EmptyIntersection):
        local_scaled_energy(traj, (5.0, np.zeros(2)), 0.2)


@pytest.fixture(scope="module")
def hedgehog_run8():
    g = build_grid(Domain.unit_ball(3), 1 / 8)
    u0 = generate(InitialData(kind="equator-hedgehog"), g, 2)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(g), T=0.5, output_stride=8)
    return run_projected(u0, cfg)


def test_detector_huge_threshold_empty(hedgehog_run8):
    cfg = SingularConfig(eps0=1e6, radii=[0.25, 0.5], time_stride=4, space_stride=4)
    rep = detect_singular_set(hedgehog_run8, cfg)
    assert rep.flagged == []
    assert rep.dimension_estimate is None


def test_detector_flags_origin_line(hedgehog_run8):
    cfg = SingularConfig(eps0=1.0, radii=[0.25, 0.5], time_stride=1, space_stride=4)
    rep = detect_singular_set(hedgehog_run8, cfg)
    assert rep.flagged
    xs = np.array([x for _, x in rep.flagged])
    assert np.max(np.linalg.norm(xs, axis=1)) <= 0.5
    assert any(np.linalg.norm(x) == 0.0 for _, x in rep.flagged)
    assert len(rep.values) == len(rep.flagged)
    assert rep.sup_density_checks


def test_detector_threshold_monotone(hedgehog_run8):
    lo = SingularConfig(eps0=0.5, radii=[0.25, 0.5], time_stride=2, space_stride=4)
    hi = SingularConfig(eps0=2.0, radii=[0.25, 0.5], time_stride=2, space_stride=4)
    rep_lo = detect_singular_set(hedgehog_run8, lo)
    rep_hi = detect_singular_set(hedgehog_run8, hi)
    assert set(rep_hi.flagged) <= set(rep_lo.flagged)


def test_scan_and_certificate_match_single_cylinder_path(hedgehog_run8):
    cfg = SingularConfig(eps0=1.0, radii=[0.25, 0.5], time_stride=1, space_stride=4)
    rep = detect_singular_set(hedgehog_run8, cfg)
    assert rep.flagged
    for (t, x), vals in zip(rep.flagged, rep.values):
        for R in cfg.radii:
            single = local_scaled_energy(hedgehog_run8, (t, np.asarray(x)), R,
                                         mode=cfg.mode)
            assert vals[str(R)] == pytest.approx(single, rel=1e-12)

    z0 = (0.25, np.zeros(3))
    _, table = small_energy_certificate(hedgehog_run8, z0, cfg.radii, 1.0)
    for r, integral, _, _ in table:
        cyl = CylinderSpec(t0=z0[0], x0=z0[1], R=r)
        assert integral == pytest.approx(
            cylinder_integral(hedgehog_run8, cyl, mode="gradient"), rel=1e-12)


def test_box_count_single_point():
    table, dim = parabolic_box_count(np.array([[0.5, 0.1, 0.2]]), [0.4, 0.2, 0.1])
    assert all(n == 1 for _, n in table)
    assert abs(dim) <= 1e-12


def test_box_count_time_line():
    ts = np.arange(0.0, 1.0, 0.005)
    pts = np.stack([ts, np.zeros_like(ts), np.zeros_like(ts)], axis=1)
    table, dim = parabolic_box_count(pts, [0.5, 0.25, 0.125])
    counts = dict(table)
    assert counts[0.5] == pytest.approx(4, abs=1)
    assert abs(dim - 2.0) <= 0.3
    ns = [n for _, n in table]
    assert ns == sorted(ns)        # nonincreasing in delta


def test_box_count_space_line():
    xs = np.arange(0.0, 1.0, 0.005)
    pts = np.stack([np.full_like(xs, 0.5), xs, np.zeros_like(xs)], axis=1)
    _, dim = parabolic_box_count(pts, [0.5, 0.25, 0.125])
    assert abs(dim - 1.0) <= 0.3


def test_box_count_too_few_scales():
    with pytest.raises(TooFewScales):
        parabolic_box_count(np.array([[0.0, 0.0]]), [0.4, 0.2])


@pytest.mark.parametrize("kwargs", [
    {"eps0": float("nan")},
    {"eps0": float("inf")},
    {"deltas": [0.5, float("nan"), 0.25]},
    {"deltas": [0.5, 0.25, 0.0]},
    {"deltas": [0.5, 0.25, 0.25]},
    {"radii": [0.25, 0.5, 0.5]},
], ids=["eps0-nan", "eps0-inf", "delta-nan", "delta-zero", "delta-repeated",
        "radius-repeated"])
def test_singular_config_rejects_threshold_and_scales(kwargs):
    # the scales are the deltas, or the radii when no deltas are given
    cfg = SingularConfig(**{"eps0": 1.0, "radii": [0.25, 0.5], **kwargs})
    with pytest.raises(ValueError):
        cfg.validate(1 / 16)


def test_certificate_constant_passes(disc16):
    f = generate(InitialData(kind="constant"), disc16, 2)
    traj = Trajectory.static(f, [0.0, 0.2, 0.4])
    ok, table = small_energy_certificate(traj, (0.2, np.zeros(2)),
                                         [0.5, 0.25, 0.125], 1.0)
    assert ok and all(row[3] for row in table)


def test_certificate_hedgehog_fails(hedgehog32):
    traj = Trajectory.static(hedgehog32, np.linspace(0.0, 0.5, 6))
    ok, table = small_energy_certificate(traj, (0.25, np.zeros(3)),
                                         [0.5, 0.25, 0.125], 1.0)
    assert not ok
    assert all(not row[3] for row in table)


def test_certificate_table_structure(onesided_run_32):
    ok, table = small_energy_certificate(onesided_run_32, (0.25, np.zeros(2)),
                                         [0.5, 0.25, 0.125, 0.0625], 1.0)
    radii = [row[0] for row in table]
    assert radii == sorted(radii)
    for r, integral, bound, passed in table:
        assert integral >= 0.0
        assert bound == pytest.approx(r ** 2 / 2.0)
        assert passed == (integral < bound)


def _arrays(obj):
    """The numpy arrays in a cache value, inside lists and tuples too."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for o in obj:
            yield from _arrays(o)


def test_derived_node_data_lives_on_interior_rows():
    # densities, their cache and the grid's cached positions hold one row
    # per interior node; no lattice-sized array stays behind
    g = build_grid(Domain.unit_ball(3), 1 / 16)
    u0 = generate(InitialData(kind="equator-hedgehog"), g, 2)
    traj = run_projected(u0, SolverConfig(dt=SolverConfig.auto_dt(g), T=0.05,
                                          output_stride=8))
    rep = detect_singular_set(traj, SingularConfig(eps0=1.0, radii=[0.125, 0.25],
                                                   space_stride=4))
    assert rep.flagged
    energy = energy_report(traj, len(traj.snapshots) - 1)
    local_scaled_energy(traj, (traj.times[3], np.zeros(3)), 0.25, mode="dirichlet")

    cache = traj._density_cache
    # a projected run's gl density is half its gradient density, not cached
    assert {mode for _, mode in cache} == {"gradient"}
    assert all(isinstance(k, int) for k, _ in cache)
    assert energy.density.shape == (g.n_interior,)
    assert all(dens.shape == (g.n_interior,) for dens in cache.values())
    held = [a for v in (*cache.values(), *g._cache.values()) for a in _arrays(v)]
    assert not any(a.ndim and a.shape[0] == g.n_lattice for a in held)
    assert g.interior_coords is g.interior_coords
    assert np.array_equal(g.interior_coords, g.coords()[g.interior_flat])


def test_ball_sums_are_the_same_bits_in_any_chunk(monkeypatch, rng):
    # one centre per chunk or every centre in one: the sums of the gathered
    # values, flat[c + offsets].sum() per centre, bit for bit
    from sphereflow import singular
    flat = rng.standard_normal(5000)
    centers = rng.integers(200, 4700, 300)
    offsets = np.arange(-150, 151, 7)
    expect = flat[centers[:, None] + offsets].sum(axis=1)
    for chunk in (1, 1 << 20):
        monkeypatch.setattr(singular, "_GATHER_CHUNK", chunk)
        assert singular._ball_sums(flat, centers, offsets).tobytes() == expect.tobytes()


def test_scan_of_shared_windows_is_each_window_fed_alone(monkeypatch):
    # at R = 0.5 every scan time's window covers the whole run, so one sum
    # serves them all; the report is the one of a window sum per scan time
    from sphereflow import singular
    g = build_grid(Domain.unit_ball(3), 1 / 8)
    u0 = generate(InitialData(kind="equator-hedgehog"), g, 2)
    traj = run_projected(u0, SolverConfig(dt=SolverConfig.auto_dt(g), T=0.125,
                                          output_stride=3))
    cfg = SingularConfig(eps0=1.0, radii=[0.25, 0.5], time_stride=1, space_stride=1)
    made = []
    window_key = singular._window_key
    monkeypatch.setattr(singular, "_window_key", lambda w: made.append(w) or window_key(w))
    shared = detect_singular_set(traj, cfg)
    assert shared.flagged and len({window_key(w) for w in made}) < len(made)
    monkeypatch.setattr(singular, "_window_key", id)
    alone = detect_singular_set(dataclasses.replace(traj), cfg)
    assert json.dumps(shared.to_json()) == json.dumps(alone.to_json())
