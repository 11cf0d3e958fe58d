import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphereflow.diagnostics import (CylinderSpec, backward_heat_kernel,
                                    cylinder_integral, energy_density,
                                    energy_report, hybrid_report, main2_lhs,
                                    monotonicity_report,
                                    reverse_poincare_ratio,
                                    weighted_annulus_energy, weight_d, C_GRID)
from sphereflow.elliptic import solve_harmonic_extension
from sphereflow.errors import (GridMismatch, KernelUnderresolved,
                               TimeNotBeforeCenter, WindowOutsideTrajectory)
from sphereflow.field import (InitialData, KeptSnapshot, SphereField, generate,
                              gradient_squared_density, release_pages)
from sphereflow.flow import (PenaltySchedule, SolverConfig, Trajectory, run_glhf,
                             run_projected, trajectory_l2q_distance)
from sphereflow.geometry import Domain, build_grid
from sphereflow.io import write_snapshot
from sphereflow.singular import (SingularConfig, detect_singular_set,
                                 local_scaled_energy, small_energy_certificate)
from sphereflow.stereo import one_sided_check, one_sided_monitor


def constant_trajectory(grid, times=(0.0, 0.1, 0.2, 0.3)):
    f = generate(InitialData(kind="constant"), grid, 2)
    return Trajectory.static(f, list(times))


# -- kernel and weights ----------------------------------------------------------

def test_kernel_unit_value_at_center():
    tau = 1.0 / (4.0 * math.pi)
    v = backward_heat_kernel((tau, np.zeros(2)), 0.0, np.zeros(2))
    assert abs(v - 1.0) <= 1e-14


def test_kernel_time_order_error():
    with pytest.raises(TimeNotBeforeCenter):
        backward_heat_kernel((0.1, np.zeros(2)), 0.2, np.zeros(2))


@given(r1=st.floats(min_value=0.0, max_value=5.0),
       r2=st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=100)
def test_kernel_gaussian_decay(r1, r2):
    lo, hi = sorted((r1, r2))
    z0 = (1.0, np.zeros(3))
    a = backward_heat_kernel(z0, 0.5, np.array([hi, 0.0, 0.0]))
    b = backward_heat_kernel(z0, 0.5, np.array([lo, 0.0, 0.0]))
    assert a <= b


@pytest.mark.parametrize("d", [2, 3])
def test_kernel_normalization(d):
    tau = 0.01
    h = math.sqrt(4 * tau) / 4.0
    half = 8 * math.sqrt(tau)
    n = int(math.ceil(half / h))
    axes = [np.arange(-n, n + 1) * h] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    total = np.sum(backward_heat_kernel((tau, np.zeros(d)), 0.0, pts)) * h ** d
    assert abs(total - 1.0) <= 1e-6


def test_weight_d_spot_values():
    x0 = np.zeros(2)
    assert weight_d(x0, x0, 2.0) == 1.0
    assert weight_d(x0, np.array([2.0, 0.0]), 2.0) == 2.0
    assert weight_d(x0, np.array([1.0, 0.0]), 2.0) == 1.25


@given(x=st.floats(-1, 1), y=st.floats(-1, 1),
       a=st.floats(-1, 1), b=st.floats(-1, 1))
@settings(max_examples=100)
def test_weight_d_range_on_ball(x, y, a, b):
    p, q = np.array([x, y]), np.array([a, b])
    if np.linalg.norm(p) > 1 or np.linalg.norm(q) > 1:
        return
    assert 1.0 <= weight_d(q, p, 2.0) <= 2.0 + 1e-12


# -- energy report ------------------------------------------------------------------

def test_energy_report_consistency(cap_run_32):
    rep = energy_report(cap_run_32, len(cap_run_32.snapshots) - 1)
    assert rep.gl_energy == pytest.approx(rep.dirichlet_part + rep.penalty_part,
                                          rel=1e-12)
    grid = cap_run_32.grid
    assert rep.gl_energy == pytest.approx(float(rep.density.sum()) * grid.cell_volume,
                                          rel=1e-12)
    assert rep.penalty_part >= 0.0


# -- weighted annulus energy ----------------------------------------------------------

def test_annulus_constant_zero(disc16):
    traj = constant_trajectory(disc16)
    assert weighted_annulus_energy(traj, (0.3, np.zeros(2)), 0.2) == 0.0


def test_annulus_window_errors(disc16):
    traj = constant_trajectory(disc16)
    with pytest.raises(WindowOutsideTrajectory):
        weighted_annulus_energy(traj, (0.05, np.zeros(2)), 0.2)
    with pytest.warns(KernelUnderresolved):
        weighted_annulus_energy(traj, (0.3, np.zeros(2)), 1.5 * disc16.h)


def test_annulus_hedgehog_scale_invariance(ball3_32, hedgehog32):
    traj = Trajectory.static(hedgehog32, np.linspace(0.0, 0.3, 31))
    z0 = (0.3, np.zeros(3))
    a1 = weighted_annulus_energy(traj, z0, 1 / 8, mode="gl")
    a2 = weighted_annulus_energy(traj, z0, 1 / 4, mode="gl")
    assert abs(a1 - a2) / max(a1, a2) <= 0.20


def test_annulus_linear_in_density(disc16):
    # non-unit synthetic fields: scaling values by sqrt(2) doubles the
    # gradient density exactly
    coords = disc16.coords()
    vals = np.zeros(disc16.shape + (3,))
    flat = vals.reshape(-1, 3)
    flat[:, 0] = np.sin(2 * coords[:, 0]) * 0.3
    flat[:, 1] = coords[:, 1] * 0.2
    f1 = SphereField(disc16, vals)
    f2 = SphereField(disc16, math.sqrt(2.0) * vals)
    t1 = Trajectory.static(f1, [0.0, 0.2, 0.4])
    t2 = Trajectory.static(f2, [0.0, 0.2, 0.4])
    z0 = (0.4, np.zeros(2))
    v1 = weighted_annulus_energy(t1, z0, 0.2, mode="gl")
    v2 = weighted_annulus_energy(t2, z0, 0.2, mode="gl")
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


# -- monotonicity ------------------------------------------------------------------

def test_monotonicity_constant_all_zero(disc16):
    traj = constant_trajectory(disc16, times=np.linspace(0.0, 1.0, 11))
    rep = monotonicity_report(traj, (1.0, np.zeros(2)), 0.2, 0.4)
    assert rep.annulus_energy_inner == 0.0
    assert rep.speed_term == 0.0
    assert rep.outer_energy == 0.0
    assert rep.defect == 0.0


def test_monotonicity_speed_term_nonnegative_frozen(ball3_32, hedgehog32):
    traj = Trajectory.static(hedgehog32, np.linspace(0.0, 1.0, 21))
    rep = monotonicity_report(traj, (1.0, np.zeros(3)), 0.1, 0.3)
    assert rep.speed_term >= 0.0
    assert rep.annulus_energy_inner >= 0.0


def test_monotonicity_cap_run_fit(cap_run_32):
    for rhs_form in ("difference", "exponential"):
        rep = monotonicity_report(cap_run_32, (0.2, np.zeros(2)), 0.07, 0.2,
                                  rhs_form=rhs_form)
        assert rep.defect == 0.0
        assert rep.c in tuple(C_GRID)
        assert 0.1 <= rep.mu0 <= 1.0


def test_monotonicity_nan_side_reports_nan_defect(disc16):
    # a NaN side fits no constant: the defect is NaN, not a perfect 0
    f = generate(InitialData(kind="constant"), disc16, 2)
    f.flat()[disc16.interior_flat[disc16.n_interior // 2]] = np.nan
    traj = Trajectory.static(f, np.linspace(0.0, 1.0, 11))
    rep = monotonicity_report(traj, (1.0, np.zeros(2)), 0.2, 0.4)
    assert math.isnan(rep.annulus_energy_inner)
    assert math.isnan(rep.defect)
    assert (rep.mu0, rep.c) == (0.1, C_GRID[0])


def test_monotonicity_pairs_of_one_centre_share_the_speed_term(cap_run_32, monkeypatch):
    # the pairs of one centre evaluate each snapshot's speed term once, and
    # report what each pair reports alone
    from sphereflow import diagnostics
    pairs = [(0.07, 0.14), (0.07, 0.2), (0.1, 0.2)]
    z0 = (0.2, np.array([0.1, -0.05]))
    alone = [monotonicity_report(dataclasses.replace(cap_run_32, _density_cache={},
                                                     _speed_cache={}), z0, r1, r2)
             for r1, r2 in pairs]
    calls = []
    speed_density = diagnostics._speed_density

    def counted(traj, z):
        at = speed_density(traj, z)
        return lambda k: calls.append(k) or at(k)

    monkeypatch.setattr(diagnostics, "_speed_density", counted)
    traj = dataclasses.replace(cap_run_32, _density_cache={}, _speed_cache={})
    shared = [monotonicity_report(traj, z0, r1, r2) for r1, r2 in pairs]
    assert [r.to_json() for r in shared] == [r.to_json() for r in alone]
    assert calls and len(calls) == len(set(calls))


def test_monotonicity_pairs_of_one_centre_share_each_annulus_energy(cap_run_32,
                                                                     monkeypatch):
    # the pairs of the cap2d-diagnostics benchmark workload need four
    # annulus energies; each is evaluated once, and each pair reports what
    # it reports alone
    from sphereflow import diagnostics
    pairs = [(0.07, 0.14), (0.07, 0.2), (0.1, 0.2)]
    z0 = (0.2, np.array([0.1, -0.05]))

    def fresh():
        return dataclasses.replace(cap_run_32, _density_cache={}, _speed_cache={},
                                   _annulus_cache={})

    alone = [monotonicity_report(fresh(), z0, r1, r2).to_json() for r1, r2 in pairs]
    calls = []
    annulus = diagnostics.weighted_annulus_energy

    def counted(traj, z, R, mode="gl"):
        calls.append(R)
        return annulus(traj, z, R, mode)

    monkeypatch.setattr(diagnostics, "weighted_annulus_energy", counted)
    traj = fresh()
    assert [monotonicity_report(traj, z0, r1, r2).to_json() for r1, r2 in pairs] == alone
    assert sorted(calls) == [0.07, 0.1, 0.14, 0.2]


def test_monotonicity_preconditions(cap_run_32):
    with pytest.raises(ValueError):
        monotonicity_report(cap_run_32, (0.2, np.zeros(2)), 0.3, 0.2)
    with pytest.raises(ValueError):
        monotonicity_report(cap_run_32, (0.2, np.zeros(2)), 0.1, 0.25)


# -- boundary decay criterion -----------------------------------------------------

def test_main2_constant_is_linear_term(disc16):
    u0 = generate(InitialData(kind="constant"), disc16, 2)
    v = main2_lhs(u0, (1.0, np.array([0.9, 0.0])), 0.1, 0.5, 2.0)
    assert v == pytest.approx(2.0 * 0.1, abs=1e-14)


def test_main2_quadratic_scaling(disc16, rng):
    u0 = generate(InitialData(kind="cap", latitude_deg=60.0), disc16, 2)
    z0, R0, mu0, c = (1.0, np.array([0.9, 0.0])), 0.1, 0.5, 1.0
    base = main2_lhs(u0, z0, R0, mu0, c)
    north = np.array([0.0, 0.0, 1.0])
    shrunk = u0.copy()
    idx = disc16.active_flat
    shrunk.flat()[idx] = north + 0.5 * (shrunk.flat()[idx] - north)
    half = main2_lhs(shrunk, z0, R0, mu0, c)
    assert (half - c * R0) == pytest.approx(0.25 * (base - c * R0), rel=1e-10)
    assert half < base


def test_main2_positive_on_cap(cap60_32):
    v = main2_lhs(cap60_32, (1.0, np.array([0.9, 0.0])), 0.1, 0.5, 1.0)
    assert np.isfinite(v) and v > 0.0


def test_main2_accepts_trajectory(cap_run_32, cap60_32):
    z0, R0 = (1.0, np.array([0.9, 0.0])), 0.1
    from_traj = main2_lhs(cap_run_32, z0, R0, 0.5, 1.0)
    from_field = main2_lhs(cap60_32, z0, R0, 0.5, 1.0)
    assert from_traj == pytest.approx(from_field, rel=1e-12)


# -- comparison ratios ----------------------------------------------------------------

def test_rpi_constant_zero(disc16):
    traj = constant_trajectory(disc16)
    bd = generate(InitialData(kind="constant"), disc16, 2)
    h0 = solve_harmonic_extension(disc16, bd, tol=1e-10)
    lhs, rhs = reverse_poincare_ratio(traj, h0, CylinderSpec(0.2, np.zeros(2), 0.1))
    assert lhs == 0.0 and rhs <= 1e-25


def test_rpi_first_harmonic_finite(disc16):
    bd = generate(InitialData(kind="boundary-wrap", winding=1), disc16, 2)
    h0 = solve_harmonic_extension(disc16, bd, tol=1e-10)
    traj = Trajectory.static(h0.field, np.linspace(0.0, 0.3, 7))
    lhs, rhs = reverse_poincare_ratio(traj, h0, CylinderSpec(0.15, np.zeros(2), 0.1))
    assert lhs > 0.0 and rhs > 0.0 and np.isfinite(lhs / rhs)


def test_rpi_deviation_quadruples(disc16, rng):
    bd = generate(InitialData(kind="constant"), disc16, 2)
    h0 = solve_harmonic_extension(disc16, bd, tol=1e-10)   # constant, zero data terms
    w = rng.standard_normal(disc16.shape + (3,)) * 0.1
    f1 = SphereField(disc16, h0.field.values + w)
    f2 = SphereField(disc16, h0.field.values + 2.0 * w)
    cyl = CylinderSpec(0.2, np.zeros(2), 0.1)
    _, rhs1 = reverse_poincare_ratio(Trajectory.static(f1, [0.0, 0.2, 0.4]), h0, cyl)
    _, rhs2 = reverse_poincare_ratio(Trajectory.static(f2, [0.0, 0.2, 0.4]), h0, cyl)
    assert rhs2 == pytest.approx(4.0 * rhs1, rel=1e-12)


def test_hybrid_constant_zero(disc16):
    traj = constant_trajectory(disc16)
    bd = generate(InitialData(kind="constant"), disc16, 2)
    h0 = solve_harmonic_extension(disc16, bd, tol=1e-10)
    inner, outer, data = hybrid_report(traj, h0, CylinderSpec(0.2, np.zeros(2), 0.1), 0.5)
    assert inner == 0.0 and outer == 0.0 and data <= 1e-25


def test_hybrid_nested_and_fit(cap_run_32, disc32, cap60_32):
    h0 = solve_harmonic_extension(disc32, cap60_32, tol=1e-9)
    cyl = CylinderSpec(0.125, np.zeros(2), 0.1)
    inner, outer, data = hybrid_report(cap_run_32, h0, cyl, 0.5)
    assert inner <= outer + 1e-12
    fits = [c for c in C_GRID if inner <= 0.5 * outer + c * data]
    assert fits, "no constant on the declared grid satisfies the comparison"


def test_comparisons_reject_an_extension_on_another_grid(disc16, disc32, cap60_32):
    # the extension is indexed with the trajectory's flat node indices, so on
    # another lattice they would name other nodes
    cyl = CylinderSpec(0.15, np.zeros(2), 0.1)
    fine = solve_harmonic_extension(disc32, cap60_32, tol=1e-9)
    coarse_u0 = generate(InitialData(kind="cap", latitude_deg=60.0), disc16, 2)
    coarse = solve_harmonic_extension(disc16, coarse_u0, tol=1e-9)
    for traj, h0 in ((Trajectory.static(coarse_u0, [0.0, 0.1, 0.2]), fine),
                     (Trajectory.static(cap60_32, [0.0, 0.1, 0.2]), coarse)):
        with pytest.raises(GridMismatch):
            reverse_poincare_ratio(traj, h0, cyl)
        with pytest.raises(GridMismatch):
            hybrid_report(traj, h0, cyl, 0.5)


# -- ball-local densities --------------------------------------------------------

def _random_trajectory(grid, rng, n=3, lam=1e3):
    """Off-sphere random snapshots under a penalty schedule, so both parts of
    the gl density are nonzero."""
    snaps = [SphereField(grid, rng.standard_normal(grid.shape + (3,)))
             for _ in range(n)]
    times = [0.1 * k for k in range(n)]
    return Trajectory(grid=grid, times=times, snapshots=snaps, records=[],
                      lam=lam, dt=0.1)


def _fresh(traj):
    """The same snapshots with an empty density cache."""
    return dataclasses.replace(traj, _density_cache={})


@pytest.mark.parametrize("domain, h, balls", [
    (Domain.unit_ball(2), 1 / 32, [((0.0, 0.0), 0.25), ((0.9, 0.1), 0.25),
                                   ((-0.7, -0.7), 0.125)]),
    (Domain.unit_ball(3), 1 / 16, [((0.0, 0.0, 0.0), 0.25),
                                   ((0.0, 0.2, 0.85), 0.25)]),
])
def test_ball_density_is_the_sliced_density(domain, h, balls, rng):
    g = build_grid(domain, h)
    traj = _random_trajectory(g, rng)
    k = 1
    full = {mode: energy_density(_fresh(traj), k, mode) for mode in ("gl", "gradient")}
    for x0, R in balls:
        nodes = g.nodes_within(np.asarray(x0), R)
        assert nodes.size
        assert np.array_equal(gradient_squared_density(traj.snapshots[k], nodes),
                              full["gradient"][nodes])
        for mode in ("gl", "gradient"):
            fresh = _fresh(traj)
            assert np.array_equal(energy_density(fresh, k, mode, nodes),
                                  full[mode][nodes])
            assert not fresh._density_cache
    # a ball that touches the boundary reads boundary values
    edge = g.nodes_within(np.asarray(balls[1][0]), balls[1][1])
    ends = g.interior_flat[edge][:, None] + np.concatenate([g.strides(), -g.strides()])
    assert np.isin(ends, g.boundary_flat).any()
    # any positions, in any order
    some = rng.permutation(g.n_interior)[:50]
    assert np.array_equal(gradient_squared_density(traj.snapshots[k], some),
                          full["gradient"][some])


@pytest.mark.parametrize("mode", ["gl", "gradient"])
def test_cylinder_integral_same_in_every_cache_state(disc32, rng, mode):
    traj = _random_trajectory(disc32, rng, n=5)
    cyl = CylinderSpec(t0=0.2, x0=np.array([0.3, 0.0]), R=0.25)
    ks = (1, 2)                         # the snapshots meeting [0.1375, 0.2625)
    empty = cylinder_integral(traj, cyl, mode)
    assert empty == cylinder_integral(traj, cyl, mode)
    assert not traj._density_cache      # a ball on an uncached snapshot caches nothing
    for k in ks:
        energy_density(traj, k, mode)
    assert {(k, mode) for k in ks} <= set(traj._density_cache)
    assert cylinder_integral(traj, cyl, mode) == empty
    # and the gl density at the ball from a cached gradient one
    if mode == "gradient":
        assert (cylinder_integral(traj, cyl, "gl")
                == cylinder_integral(_fresh(traj), cyl, "gl"))


def test_edited_static_trajectory_reads_each_snapshot(disc16):
    # a static trajectory shares one cache entry while its list repeats one
    # field; a snapshot put in its place has densities of its own
    const = generate(InitialData(kind="constant"), disc16, 2)
    cap = generate(InitialData(kind="cap", latitude_deg=60.0), disc16, 2)
    traj = Trajectory.static(const, [0.0, 0.1, 0.2])
    traj.snapshots[1] = cap
    want = gradient_squared_density(cap)
    assert want.sum() > 1000.0
    for k in (0, 1, 2):
        assert np.array_equal(energy_density(traj, k, "gradient"),
                              want if k == 1 else np.zeros_like(want))
    assert sorted(traj._density_cache) == [(0, "gradient"), (1, "gradient")]


# -- kept snapshots -------------------------------------------------------------------

def _same(a, b) -> bool:
    """Equal bit for bit (NaN equal to NaN), through dataclasses, dicts,
    lists, tuples and arrays."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and _same(dataclasses.asdict(a), dataclasses.asdict(b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, (float, np.floating, np.ndarray)):
        return np.array_equal(a, b, equal_nan=True)
    return a == b


def test_diagnostics_read_kept_snapshots_as_their_lattice_copies(disc16, tmp_path):
    # a store-less run keeps its snapshots as kept snapshots: every public
    # diagnostic gives the same floats on them as on writeable lattice
    # copies of them, and leaves none holding a rebuilt lattice
    u0 = generate(InitialData(kind="cap", latitude_deg=60.0), disc16, 2)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc16), T=0.25, output_stride=8)
    runs = {"glhf": run_glhf(u0, cfg, PenaltySchedule(lam=1e3)),
            "projected": run_projected(u0, cfg)}
    twins = {name: dataclasses.replace(
        traj, snapshots=[SphereField(s.grid, s.values.copy()) for s in traj.snapshots],
        _density_cache={}, _speed_cache={}, _annulus_cache={})
        for name, traj in runs.items()}
    kept = [s for traj in runs.values() for s in traj.snapshots[:-1]]
    assert kept and all(isinstance(s, KeptSnapshot) for s in kept)
    for s in kept:
        release_pages(s)

    ext = solve_harmonic_extension(disc16, u0)
    z0 = (0.2, np.array([0.1, -0.05]))
    cyl = CylinderSpec(t0=0.15, x0=np.array([0.1, 0.2]), R=0.125)
    scan = SingularConfig(eps0=0.05, radii=[0.125, 0.25, 0.5], time_stride=8,
                          space_stride=2)
    calls = {
        "energy_density": lambda r: energy_density(r["glhf"], 5, "gl"),
        "energy_report": lambda r: energy_report(r["glhf"], 20),
        "weighted_annulus_energy": lambda r: weighted_annulus_energy(r["glhf"], z0, 0.15),
        "monotonicity_report": lambda r: monotonicity_report(r["glhf"], z0, 0.125, 0.2),
        "main2_lhs": lambda r: main2_lhs(r["glhf"], (1.0, np.array([0.9, 0.0])),
                                         0.1, 0.5, 1.0),
        "reverse_poincare_ratio": lambda r: reverse_poincare_ratio(r["glhf"], ext, cyl),
        "hybrid_report": lambda r: hybrid_report(r["projected"], ext, cyl, 0.5),
        "local_scaled_energy": lambda r: local_scaled_energy(r["projected"], z0, 0.25),
        "detect_singular_set": lambda r: detect_singular_set(r["glhf"], scan),
        "small_energy_certificate": lambda r: small_energy_certificate(
            r["glhf"], (0.125, np.zeros(2)), [0.5, 0.25, 0.125], 1.0),
        "one_sided_check": lambda r: one_sided_check(r["projected"].snapshots[0]),
        "one_sided_monitor": lambda r: one_sided_monitor(r["projected"]),
        "trajectory_l2q_distance": lambda r: trajectory_l2q_distance(r["glhf"],
                                                                     r["projected"]),
    }
    for name, call in calls.items():
        assert _same(call(runs), call(twins)), name
        assert all(s._values is None for s in kept), name

    for k in (0, 9, len(runs["glhf"].snapshots) - 2):
        args = dict(t=runs["glhf"].times[k], step=8 * k, lam=1e3, exponent=1.0)
        a = write_snapshot(tmp_path / f"kept_{k}", runs["glhf"].snapshots[k], **args)
        b = write_snapshot(tmp_path / f"copy_{k}", twins["glhf"].snapshots[k], **args)
        assert a == b
        assert ((tmp_path / f"kept_{k}.f64").read_bytes()
                == (tmp_path / f"copy_{k}.f64").read_bytes())
