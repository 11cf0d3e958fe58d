import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphereflow.errors import CFLViolated, NormBlowup
from sphereflow.field import (InitialData, KeptSnapshot, SphereField, dirichlet_energy,
                              generate, l2_distance, release_pages)
from sphereflow.flow import (PenaltySchedule, SolverConfig, Trajectory, glhf_step,
                             kappa, penalty_integral, projected_flow_step, run_glhf,
                             run_projected, trajectory_l2q_distance, _boundary_links,
                             _diffuse, _dirichlet_from_rows, _record)
from sphereflow.geometry import EXTERIOR, Domain, build_grid, neighbor_sum
from sphereflow.stereo import stereo_inverse


# -- schedules ----------------------------------------------------------------

def test_kappa_values():
    assert kappa(0.0) == 0.0
    assert abs(kappa(1.0) - 0.25) <= 1e-15


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


def _react_one_row(value, z):
    """The interior row after one penalized step with 2 Lam dt = z, on the box
    whose one interior node and four boundary neighbours all hold ``value``.

    dt = h^2 / 8 makes mu = 1/8, so for these values the diffusion returns
    the row bit for bit and only the norm reaction moves it.
    """
    g = build_grid(Domain.box([[0, 1], [0, 1]]), 0.5)
    vals = np.zeros(g.shape + (3,))
    vals.reshape(-1, 3)[g.active_flat] = value
    dt = g.h ** 2 / 8
    out = glhf_step(SphereField(g, vals), 0.0, SolverConfig(dt=dt, T=dt),
                    PenaltySchedule(lam=z / (2 * dt)))
    return out.flat()[g.interior_flat[0]]


def test_logistic_closed_form_example():
    z = math.log(3.0)                 # 2 Lam dt = ln 3 takes w = 0.5 to 0.75
    row = _react_one_row([0.5, 0.5, 0.0], z)
    assert abs(float(row @ row) - 0.75) <= 1e-15
    assert row[0] == row[1] and row[2] == 0.0
    assert abs(_rk4_oracle(0.5, 1.0, z / 2.0) - 0.75) <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", [1.0, 40.0, 800.0])
def test_reaction_keeps_zero_row_at_zero(z):
    # at z = 800 exp(-z) underflows to 0; the clamp keeps the divisor positive
    assert np.array_equal(_react_one_row([0.0, 0.0, 0.0], z), np.zeros(3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", [1.0, 800.0])
def test_reaction_of_subnormal_norm_is_finite(z):
    # |u|^2 = 1e-320 is subnormal; dividing by it overflowed
    row = _react_one_row([1e-160, 0.0, 0.0], z)
    assert np.all(np.isfinite(row)) and row[0] > 0.0
    if z == 1.0:
        # w1 = w0 / (e + (1 - e) w0) = w0 e^z to rounding of w0
        assert row[0] == pytest.approx(1e-160 * math.exp(z / 2.0), rel=1e-15)


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
    f = SphereField(disc16, vals)
    idx = disc16.interior_flat
    rows = f.flat()[idx]
    nrows = neighbor_sum(f.flat(), disc16.strides())[idx]
    _diffuse(rows, nrows, disc16, SolverConfig.auto_dt(disc16))
    assert np.max(np.abs(rows - f.flat()[idx])) <= 1e-14


def test_cfl_violation(disc16, cap60_32):
    cfg = SolverConfig(dt=10 * SolverConfig.auto_dt(disc16), T=0.1)
    f = generate(InitialData(kind="constant"), disc16, 2)
    with pytest.raises(CFLViolated):
        glhf_step(f, 0.0, cfg, PenaltySchedule(lam=10.0))


@pytest.mark.parametrize("dt, T, cfl", [(float("nan"), 0.1, 0.9), (float("inf"), 0.1, 0.9),
                                        (float("-inf"), 0.1, 0.9), (1e-4, float("nan"), 0.9),
                                        (1e-4, float("inf"), 0.9), (0.01, 0.05, float("nan")),
                                        (0.01, 0.05, float("inf"))],
                         ids=["dt-nan", "dt-inf", "dt-minus-inf", "T-nan", "T-inf",
                              "cfl-nan", "cfl-inf"])
def test_non_finite_dt_or_T_violates_cfl(disc16, dt, T, cfl):
    # NaN passes every comparison with the bound; n_steps would fail on it.
    # A NaN or infinite cfl makes the bound admit dt = 0.01, 45 times the
    # stable step on this grid
    f = generate(InitialData(kind="constant"), disc16, 2)
    with pytest.raises(CFLViolated):
        run_glhf(f, SolverConfig(dt=dt, T=T, cfl=cfl), PenaltySchedule(lam=10.0))


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
    u0 = generate(InitialData(kind="custom-samples", samples=SphereField(g, samples)), g, 2)
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


def test_run_first_step_equals_public_glhf_step(disc16):
    u0 = generate(InitialData(kind="cap", latitude_deg=45.0), disc16, 2)
    dt = SolverConfig.auto_dt(disc16)
    cfg = SolverConfig(dt=dt, T=dt, output_stride=1)
    sched = PenaltySchedule(lam=500.0)
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


def _kernel_case(d, mode):
    g = build_grid(Domain.unit_ball(d), 1 / 16 if d == 2 else 1 / 8)
    kind = "cap" if d == 2 else "equator-hedgehog"
    u0 = generate(InitialData(kind=kind, latitude_deg=60.0), g, 2)
    dt = SolverConfig.auto_dt(g)
    cfg = SolverConfig(dt=dt, T=6.75 * dt, output_stride=3)
    if mode == "projected":
        return u0, cfg, None
    return u0, cfg, PenaltySchedule(lam=500.0)


KERNEL_CASES = [(d, mode) for d in (2, 3)
                for mode in ("glhf-simplified", "projected")]


@pytest.mark.parametrize("d,mode", KERNEL_CASES)
def test_run_equals_chain_of_public_steps(d, mode):
    u0, cfg, sched = _kernel_case(d, mode)
    traj = run_projected(u0, cfg) if sched is None else run_glhf(u0, cfg, sched)
    chain = [u0]
    for k in range(7):
        f = chain[-1]
        t = k * cfg.dt
        chain.append(projected_flow_step(f, t, cfg) if sched is None
                     else glhf_step(f, t, cfg, sched))
    assert [r.step for r in traj.records] == list(range(8))
    assert len(traj.snapshots) == 4
    for snap, k in zip(traj.snapshots, (0, 3, 6, 7)):
        assert np.array_equal(snap.values, chain[k].values)
    for r, f in zip(traj.records, chain):
        assert r.max_norm == f.max_norm()
        ref = dirichlet_energy(f)
        assert abs(r.dirichlet_energy - ref) <= 1e-13 * ref


def _reference_step(u, rows, nrows, t, cfg, sched, bnd2, rowsq):
    """``flow._step`` as it stood before the row kernels: a new array for
    every |u|^2, broadcast row divides and fancy-index scatter, kept here
    as the bit-for-bit reference.  ``rowsq`` is the documented row sum
    (``np.einsum("ij,ij->i")``'s bits on an x86 SSE-level numpy)."""
    g = u.grid
    _diffuse(rows, nrows, g, cfg.dt)
    if sched is None:
        norms = np.sqrt(rowsq(rows))
        assert np.all(norms >= 1e-14)
        rows /= norms[:, None]
        pen_incr, lam_eff = 0.0, 0.0
    else:
        lam_eff = sched.strength(t)
        w0 = rowsq(rows)
        sq = w0 - 1.0
        sq *= sq
        pen_incr = float(cfg.dt * lam_eff * np.sum(sq) * g.cell_volume)
        e = max(math.exp(-2.0 * lam_eff * cfg.dt), np.finfo(float).tiny)
        w0 *= 1.0 - e
        w0 += e
        rows /= np.sqrt(w0, out=w0)[:, None]
    u.flat()[g.interior_flat] = rows
    w = rowsq(rows)
    return w, pen_incr, lam_eff, float(np.sqrt(np.maximum(w.max(), bnd2)))


def _reference_run(u0, n_steps, cfg, sched, rowsq):
    """``flow._run`` over ``n_steps`` steps with ``_reference_step``: every
    state's field and record."""
    u = u0.copy()
    g = u.grid
    flat = u.flat()
    bnd2 = rowsq(flat[g.boundary_flat]).max(initial=0.0)
    links = _boundary_links(u)
    rows = flat[g.interior_flat]
    nrows = g.neighbour_rows(flat)
    lap = np.empty_like(rows)
    w = rowsq(rows)
    records = [_record(0, 0.0, u, w, _dirichlet_from_rows(u, rows, nrows, links, lap),
                       sched.strength(0.0) if sched else 0.0, 0.0,
                       float(np.sqrt(np.maximum(w.max(), bnd2))))]
    fields = [u.copy()]
    for k in range(n_steps):
        w, pen_incr, lam_eff, mx = _reference_step(u, rows, nrows, k * cfg.dt, cfg, sched,
                                                   bnd2, rowsq)
        g.neighbour_rows(flat, out=nrows)
        records.append(_record(k + 1, (k + 1) * cfg.dt, u, w,
                               _dirichlet_from_rows(u, rows, nrows, links, lap),
                               lam_eff, pen_incr, mx))
        fields.append(u.copy())
    return fields, records


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("mode", ["glhf-simplified", "projected"])
def test_run_equals_the_broadcast_reference_run(rowsq_in_order, d, mode):
    # the 2-D cap and the 3-D hedgehog at h = 1/16, five steps each
    g = build_grid(Domain.unit_ball(d), 1 / 16)
    u0 = generate(InitialData(kind="cap", latitude_deg=60.0) if d == 2
                  else InitialData(kind="equator-hedgehog"), g, 2)
    dt = SolverConfig.auto_dt(g)
    cfg = SolverConfig(dt=dt, T=5 * dt)
    sched = None if mode == "projected" else PenaltySchedule(lam=1e3)
    traj = run_projected(u0, cfg) if sched is None else run_glhf(u0, cfg, sched)
    fields, records = _reference_run(u0, 5, cfg, sched, rowsq_in_order)
    assert len(traj.snapshots) == len(fields) == 6
    for snap, ref in zip(traj.snapshots, fields):
        assert np.array_equal(snap.values, ref.values)
    assert traj.records == records
    assert [r.max_norm for r in records] == [f.max_norm() for f in fields]


def test_snapshot_times_are_the_run_times():
    # config load checks the diagnostics windows against these times
    u0, cfg, _ = _kernel_case(2, "projected")
    traj = run_projected(u0, cfg)
    assert cfg.snapshot_steps() == [0, 3, 6, 7]
    assert traj.times == cfg.snapshot_times() == [k * cfg.dt for k in (0, 3, 6, 7)]


def test_l2q_distance_is_the_left_rectangle_sum():
    u0, cfg, sched = _kernel_case(2, "glhf-simplified")
    a, b = run_glhf(u0, cfg, sched), run_projected(u0, cfg)
    total = sum((a.times[k + 1] - a.times[k]) * l2_distance(a.snapshots[k], b.snapshots[k]) ** 2
                for k in range(len(a.times) - 1))
    assert trajectory_l2q_distance(a, b) == math.sqrt(total) > 0.0


RECORD_DOMAINS = {
    "disc": (Domain.unit_ball(2), 1 / 16, "cap"),
    "ball": (Domain.unit_ball(3), 1 / 8, "equator-hedgehog"),
    "box": (Domain.box([[0.0, 1.0], [0.0, 0.75], [-0.5, 0.5]]), 1 / 8, "cap"),
    "half-ball": (Domain.half_ball(3), 1 / 8, "cap"),
}


@pytest.mark.parametrize("mode", ["glhf-simplified", "projected"])
@pytest.mark.parametrize("domain", sorted(RECORD_DOMAINS))
def test_records_match_link_sum_and_public_steps(domain, mode):
    # the records come from the carried neighbour sums, not from the link
    # sum; the run and a chain of public steps are the same kernel
    dom, h, kind = RECORD_DOMAINS[domain]
    g = build_grid(dom, h)
    u0 = generate(InitialData(kind=kind, latitude_deg=70.0), g, 2)
    dt = SolverConfig.auto_dt(g)
    n = 12
    cfg = SolverConfig(dt=dt, T=n * dt, output_stride=1)
    sched = None if mode == "projected" else PenaltySchedule(lam=200.0)
    traj = run_projected(u0, cfg) if sched is None else run_glhf(u0, cfg, sched)
    assert len(traj.records) == len(traj.snapshots) == n + 1
    f = u0
    for k, (r, snap) in enumerate(zip(traj.records, traj.snapshots)):
        assert np.array_equal(snap.values, f.values)
        ref = dirichlet_energy(snap)
        assert ref > 0.0
        assert abs(r.dirichlet_energy - ref) <= 1e-13 * ref
        f = (projected_flow_step(f, k * dt, cfg) if sched is None
             else glhf_step(f, k * dt, cfg, sched))


@pytest.mark.parametrize("mode", ["glhf-simplified", "projected"])
def test_single_step_run_final_record(mode):
    dom, h, kind = RECORD_DOMAINS["ball"]
    g = build_grid(dom, h)
    u0 = generate(InitialData(kind=kind), g, 2)
    dt = SolverConfig.auto_dt(g)
    cfg = SolverConfig(dt=dt, T=dt)
    sched = None if mode == "projected" else PenaltySchedule(lam=200.0)
    traj = run_projected(u0, cfg) if sched is None else run_glhf(u0, cfg, sched)
    assert [r.step for r in traj.records] == [0, 1]
    final = traj.snapshots[-1]
    last = traj.records[-1]
    ref = dirichlet_energy(final)
    assert abs(last.dirichlet_energy - ref) <= 1e-13 * ref
    assert last.max_norm == final.max_norm()
    rows = final.flat()[g.interior_flat]
    w = np.einsum("ij,ij->i", rows, rows)
    lam_eff = 0.0 if sched is None else sched.strength(0.0)
    pen = lam_eff * float(np.sum((w - 1.0) ** 2)) * g.cell_volume / 4.0
    assert abs(last.gl_energy - (0.5 * ref + pen)) <= 1e-13 * last.gl_energy


@pytest.mark.parametrize("d,mode", KERNEL_CASES)
def test_steps_and_runs_leave_their_input_unchanged(d, mode):
    u0, cfg, sched = _kernel_case(d, mode)
    before = u0.values.copy()
    if sched is None:
        projected_flow_step(u0, 0.0, cfg)
        run_projected(u0, cfg)
    else:
        glhf_step(u0, 0.0, cfg, sched)
        run_glhf(u0, cfg, sched)
    assert np.array_equal(u0.values, before)


def test_snapshots_are_independent_copies():
    u0, cfg, sched = _kernel_case(2, "glhf-simplified")
    traj = run_glhf(u0, cfg, sched)
    kept = [s.values.copy() for s in traj.snapshots]
    # every snapshot but the last (the run's live field) is read-only
    with pytest.raises(ValueError):
        traj.snapshots[1].values[...] = 7.0
    for k in (0, 2, 3):
        assert np.array_equal(traj.snapshots[k].values, kept[k])
    arrays = [s.values for s in traj.snapshots] + [u0.values]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def test_kept_snapshots_rebuild_their_lattice_read_only_on_read():
    u0, cfg, sched = _kernel_case(3, "projected")
    traj = run_projected(u0, cfg)
    chain = [u0]
    for k in range(cfg.n_steps()):
        chain.append(projected_flow_step(chain[-1], k * cfg.dt, cfg))
    kept = traj.snapshots[:-1]
    assert all(isinstance(s, KeptSnapshot) for s in kept)
    assert type(traj.snapshots[-1]) is SphereField
    g = u0.grid
    pos = np.arange(0, g.n_interior, 5)
    nodes = np.arange(g.n_lattice)              # exterior nodes included
    for s, step in zip(kept, cfg.snapshot_steps()):
        # these accessors read no lattice
        assert s.ncomp == 3
        assert np.array_equal(s.interior_rows(), chain[step].interior_rows())
        assert np.array_equal(s.interior_rows(pos), chain[step].interior_rows(pos))
        assert np.array_equal(s.rows(nodes), chain[step].flat())
        assert np.array_equal(s.active_values(), chain[step].active_values())
        assert s._values is None
        assert np.array_equal(s.values, chain[step].values)
        assert not s.values.flags.writeable and s._values is not None
        release_pages(s)
        assert s._values is None
    # the kept snapshots share one boundary-row array
    assert len({id(s._boundary_rows) for s in kept}) == 1


def test_run_zeroes_the_exterior_rows_of_its_field():
    # a kept snapshot's exterior rows read 0, so the run's field holds 0
    # there too: every snapshot and the final field agree at every node
    # with a run from the same data with a zero exterior
    u0, cfg, sched = _kernel_case(2, "glhf-simplified")
    dirty = u0.copy()
    ext = np.flatnonzero(u0.grid.class_flat() == EXTERIOR)
    dirty.flat()[ext] = 5.0
    before = dirty.values.copy()
    clean = run_glhf(u0, cfg, sched)
    traj = run_glhf(dirty, cfg, sched)
    assert np.array_equal(dirty.values, before)
    assert [r.gl_energy for r in traj.records] == [r.gl_energy for r in clean.records]
    for a, b in zip(traj.snapshots, clean.snapshots):
        assert np.array_equal(a.values, b.values)
        assert not a.flat()[ext].any()


def test_store_less_heap_grows_by_interior_rows_per_snapshot():
    # 3-D ball at h = 1/16, 11 steps: a snapshot at every step holds ten
    # more snapshots than one at each end, and each of those holds its
    # interior rows (0.41 MB), not a lattice (1.22 MB)
    g = build_grid(Domain.unit_ball(3), 1 / 16)
    u0 = generate(InitialData(kind="equator-hedgehog"), g, 2)
    dt = SolverConfig.auto_dt(g)
    run_projected(u0, SolverConfig(dt=dt, T=2 * dt))    # fill the grid's caches
    peaks, counts = {}, {}
    for stride in (100, 1, 100):
        tracemalloc.start()
        try:
            traj = run_projected(u0, SolverConfig(dt=dt, T=10.5 * dt,
                                                  output_stride=stride))
            peaks[stride] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        counts[stride] = len(traj.snapshots)
        del traj
    assert counts == {1: 12, 100: 2}
    row_bytes = g.n_interior * 3 * 8
    assert peaks[1] - peaks[100] <= 10 * row_bytes + 16384


def test_run_holds_no_lattice_sized_scratch():
    # 3-D ball at h = 1/16, one snapshot besides the last: a run holds its
    # field and the step-0 snapshot, three carried interior-row arrays (the
    # rows, their neighbour sum and the record's scratch), the stencil's
    # block scratch (0.94 of a row array here), the per-node |u|^2 arrays
    # and the boundary links.  A lattice-sized buffer (2.97 row arrays here)
    # would push the peak past the bound.
    g = build_grid(Domain.unit_ball(3), 1 / 16)
    u0 = generate(InitialData(kind="equator-hedgehog"), g, 2)
    dt = SolverConfig.auto_dt(g)
    cfg = SolverConfig(dt=dt, T=4 * dt, output_stride=4)
    sched = PenaltySchedule(lam=1e3)
    run_glhf(u0, cfg, sched)            # fill the grid's lazy caches first
    tracemalloc.start()
    try:
        traj = run_glhf(u0, cfg, sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.snapshots) == 2
    field_bytes = u0.values.nbytes
    row_bytes = g.n_interior * u0.flat().shape[1] * u0.values.itemsize
    assert peak < 2 * field_bytes + 5.5 * row_bytes


@pytest.mark.parametrize("d", [2, 3])
def test_projected_run_pins_dirichlet_rows(d):
    # the onesided_cap config case in 2-D; the hedgehog at h = 1/32 in 3-D
    if d == 2:
        g = build_grid(Domain.unit_ball(2), 1 / 16)
        u0 = generate(InitialData(kind="cap", latitude_deg=60.0), g, 2)
        cfg = SolverConfig(dt=SolverConfig.auto_dt(g), T=0.125, output_stride=8)
    else:
        g = build_grid(Domain.unit_ball(3), 1 / 32)
        u0 = generate(InitialData(kind="equator-hedgehog"), g, 2)
        cfg = SolverConfig(dt=SolverConfig.auto_dt(g), T=3.5 * SolverConfig.auto_dt(g),
                           output_stride=1)
    traj = run_projected(u0, cfg)
    bnd = g.boundary_flat
    for snap in traj.snapshots:
        assert np.array_equal(snap.flat()[bnd], u0.flat()[bnd])
    assert np.array_equal(projected_flow_step(u0, 0.0, cfg).flat()[bnd], u0.flat()[bnd])


def test_times_strictly_increasing(cap_run_32):
    t = np.asarray(cap_run_32.times)
    assert np.all(np.diff(t) > 0)


def test_projected_output_unit_norm(disc16, rng):
    samples = rng.standard_normal(disc16.shape + (3,)) + 0.2
    u0 = generate(InitialData(kind="custom-samples", samples=SphereField(disc16, samples)),
                  disc16, 2)
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


def test_original_form_step_cost_is_bounded_in_lambda():
    # the paper's reaction term, integrated in closed form: no substeps that
    # grow with lambda
    g = build_grid(Domain.unit_ball(2), 1 / 8)
    u0 = generate(InitialData(kind="cap", latitude_deg=60.0), g, 2)
    dt = SolverConfig.auto_dt(g)
    cfg = SolverConfig(dt=dt, T=dt)
    t0 = time.perf_counter()
    traj = run_glhf(u0, cfg, PenaltySchedule(lam=1e6))
    assert time.perf_counter() - t0 <= 0.5
    assert len(traj.records) == 2 and traj.records[-1].max_norm <= 1.0 + 1e-12


def test_long_run_reaches_projected_equilibrium(disc16):
    wrap = generate(InitialData(kind="boundary-wrap", winding=1), disc16, 2)
    vals = np.zeros(disc16.shape + (3,))
    vals[..., 2] = 1.0
    flat = vals.reshape(-1, 3)
    flat[disc16.boundary_flat] = wrap.flat()[disc16.boundary_flat]
    u0 = generate(InitialData(kind="custom-samples", samples=SphereField(disc16, vals)),
                  disc16, 2)

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
    u0 = generate(InitialData(kind="custom-samples", samples=SphereField(disc16, samples)),
                  disc16, 2)

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
        rows = tr.snapshots[k].flat()[idx]
        w = np.einsum("ij,ij->i", rows, rows)
        lam_eff = lam ** (1.0 - float(kappa(rk.t)))
        kappa_dot = 1.0 / (math.pi * (1.0 + rk.t ** 2))
        drift = -kappa_dot * math.log(lam) * lam_eff \
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
