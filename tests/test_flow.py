import math
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphereflow import field, flow
from sphereflow import io as sfio
from sphereflow.errors import CFLViolated, NearZeroVector, NormBlowup
from sphereflow.field import (InitialData, KeptSnapshot, SphereField, dirichlet_energy,
                              generate, l2_distance)
from sphereflow.flow import (PenaltySchedule, SolverConfig, StepRecord, Trajectory,
                             glhf_step, kappa, penalty_integral, projected_flow_step,
                             run_glhf, run_projected, trajectory_l2q_distance)
from sphereflow.geometry import (BLOCK_NODES, BOUNDARY, EXTERIOR, Domain, build_grid,
                                 neighbor_sum)
from sphereflow.stereo import stereo_inverse


# -- schedules ----------------------------------------------------------------

def test_kappa_values():
    assert kappa(0.0) == 0.0
    assert abs(kappa(1.0) - 0.25) <= 1e-15


# -- substeps -------------------------------------------------------------------

def _diffuse(rows, nrows, g, dt):
    """The explicit diffusion substep, in place on the interior rows ``rows``
    given the interior rows ``nrows`` of their neighbour sum, which it scales
    in place: the flow's diffusion as two whole-array passes, kept here as
    the reference."""
    mu = dt / g.h ** 2
    rows *= 1.0 - 2.0 * g.d * mu
    nrows *= mu
    rows += nrows


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


def test_projected_step_leaves_a_nan_row_to_the_norm_guard(disc16):
    # the projected step's normalization checks only the norm floor: a NaN
    # row comes back NaN, and the sup-norm guard, not NearZeroVector,
    # refuses the step
    f = generate(InitialData(kind="constant"), disc16, 2)
    f.flat()[disc16.interior_flat[40]] = [np.nan, 0.0, 1.0]
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc16), T=0.01)
    with pytest.raises(NormBlowup, match="max node norm nan"):
        projected_flow_step(f, 0.0, cfg)


def _zeroed_field(g, pos):
    """The hedgehog on ``g`` with the interior rows at positions ``pos`` and
    all their axis neighbours zero, so the diffusion leaves those rows zero."""
    u0 = generate(InitialData(kind="equator-hedgehog"), g, 2)
    nodes = g.interior_flat[pos]
    u0.flat()[nodes] = 0.0
    for s in g.strides():
        u0.flat()[nodes - s] = 0.0
        u0.flat()[nodes + s] = 0.0
    return u0


@pytest.mark.parametrize("where", ["later-group", "two-groups"])
def test_near_zero_rows_name_the_first_five_nodes_across_groups(rowsq_in_order, where):
    # the 3-D ball at h = 1/32: zero rows inside the fifth group of rows,
    # or three at the end of the fifth group and three at the start of the
    # sixth, where a step that refused a group on its own would name three
    g = build_grid(Domain.unit_ball(3), 1 / 32)
    groups = list(g.neighbour_blocks(np.zeros((g.n_lattice, 3)), np.empty((g.n_interior, 3))))
    k0, k1 = groups[4]
    pos = (np.array([k0 + 100, k0 + 101, k0 + 700]) if where == "later-group"
           else np.arange(k1 - 3, k1 + 3))
    u0 = _zeroed_field(g, pos)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(g), T=SolverConfig.auto_dt(g))
    # the nodes a whole-array normalization names: the reference
    # diffusion, then the first five rows of norm below the floor
    idx = g.interior_flat
    rows = u0.flat()[idx]
    _diffuse(rows, neighbor_sum(u0.flat(), g.strides())[idx], g, cfg.dt)
    named = idx[np.flatnonzero(np.sqrt(rowsq_in_order(rows)) < field.NORM_FLOOR)[:5]]
    assert named.tolist() == idx[pos[:5]].tolist()
    message = f"cannot project node(s) at flat index {named.tolist()}"
    with pytest.raises(NearZeroVector) as step_error:
        projected_flow_step(u0, 0.0, cfg)
    with pytest.raises(NearZeroVector) as run_error:
        run_projected(u0, cfg)
    assert str(step_error.value) == str(run_error.value) == message


class _FieldOfRun:
    """A snapshot store that keeps copies and the run's live field."""

    def __init__(self):
        self.u, self.fields = None, []

    def take(self, u, rows):
        self.u = u
        self.fields.append(u.copy())
        return self.fields[-1]


@pytest.mark.parametrize("when", [0, 2])
def test_norm_blowup_is_raised_at_the_same_step_with_the_same_field_written(
        monkeypatch, rowsq_in_order, when):
    # the 3-D ball at h = 1/32.  Step 0: rows of the constant field in the
    # sixth group of rows scaled past the guard; step 2: a strength that is
    # NaN from t = 2 dt on.  The guard raises after the new rows are
    # written, so the run's field holds the reference's state after the
    # failing step
    g = build_grid(Domain.unit_ball(3), 1 / 32)
    dt = SolverConfig.auto_dt(g)
    cfg = SolverConfig(dt=dt, T=6 * dt)
    if when == 0:
        u0 = generate(InitialData(kind="constant"), g, 2)
        groups = list(g.neighbour_blocks(u0.flat(), np.empty((g.n_interior, 3))))
        u0.flat()[g.interior_flat[slice(*groups[5])]] *= 1.0 + 1e-5
        sched = PenaltySchedule(lam=2.0)
    else:
        u0 = generate(InitialData(kind="equator-hedgehog"), g, 2)

        class NanFromTwoSteps(PenaltySchedule):
            def strength(self, t):
                return math.nan if t >= 2 * dt else super().strength(t)

        sched = NanFromTwoSteps(lam=1e3)
    fields, records = _reference_run(u0, when + 1, cfg, sched, rowsq_in_order)
    expect = (f"max node norm {records[-1].max_norm} exceeds 1 + 1e-7 "
              f"at t = {when * dt}")
    assert not records[-1].max_norm <= 1.0 + 1e-7
    assert all(r.max_norm <= 1.0 + 1e-7 for r in records[1:-1])
    calls, step = [], flow._step
    monkeypatch.setattr(flow, "_step", lambda *a: calls.append(1) or step(*a))
    store = _FieldOfRun()
    with pytest.raises(NormBlowup) as error:
        run_glhf(u0, cfg, sched, store=store)
    assert str(error.value) == expect and len(calls) == when + 1
    assert np.array_equal(store.u.values, fields[-1].values, equal_nan=True)
    assert np.array_equal(store.fields[0].values, fields[0].values)
    if when == 0:
        with pytest.raises(NormBlowup) as error:
            glhf_step(u0, 0.0, cfg, sched)
        assert str(error.value) == expect


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
def test_a_handed_over_initial_field_runs_as_a_copy(d, mode):
    # handed over, u0's rows are the run's own: the run is the one from a
    # copy, bit for bit, and u0 holds no rows afterwards; not handed over,
    # u0 is left as it was.  The run steps the handed rows in place, so
    # after the 7 steps they hold state 7, the last snapshot
    f, cfg, sched = _kernel_case(d, mode)

    def run(u0, handover):
        if sched is None:
            return run_projected(u0, cfg, handover=handover)
        return run_glhf(u0, cfg, sched, handover=handover)

    kept = KeptSnapshot(f.grid, f.interior_rows(), f.boundary_rows())
    copied = run(kept, False)
    assert kept.values.tobytes() == f.values.tobytes()
    rows = kept._rows
    handed = run(kept, True)
    assert kept._rows is None and kept._boundary_rows is None
    assert handed.records == copied.records
    assert [s.values.tobytes() for s in handed.snapshots] == \
        [s.values.tobytes() for s in copied.snapshots]
    assert cfg.snapshot_steps()[-1] == 7
    assert rows.tobytes() == handed.snapshots[-1].interior_rows().tobytes()


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


def _groupwise(a, groups, term):
    """``term`` of each group's part of ``a``, added in group order from
    -0.0: the record sums of the fused step."""
    total = -0.0
    for k0, k1 in groups:
        total += term(a[k0:k1])
    return total


def _reference_step(u, rows, nrows, t, cfg, sched, bnd2, rowsq, groups):
    """``flow._step`` as it stood before the row kernels: a new array for
    every |u|^2, broadcast row divides and fancy-index scatter, kept here
    as the bit-for-bit reference.  ``rowsq`` is the documented row sum
    (``np.einsum("ij,ij->i")``'s bits on an x86 SSE-level numpy).  The sum
    of the penalty increment is taken per group of ``groups``."""
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
        pen_incr = float(cfg.dt * lam_eff * _groupwise(sq, groups, np.sum) * g.cell_volume)
        e = max(math.exp(-2.0 * lam_eff * cfg.dt), np.finfo(float).tiny)
        w0 *= 1.0 - e
        w0 += e
        rows /= np.sqrt(w0, out=w0)[:, None]
    u.flat()[g.interior_flat] = rows
    w = rowsq(rows)
    return w, pen_incr, lam_eff, float(np.sqrt(np.maximum(w.max(), bnd2)))


def _boundary_links(u):
    """The interior ends of the interior-boundary links of ``u``'s grid, as
    flat indices, and the values at their boundary ends, one row per link."""
    g = u.grid
    idx = g.interior_flat
    is_bnd = g.class_flat() == BOUNDARY
    ends, bnds = [], []
    for s in g.strides():
        for nb in (idx - s, idx + s):
            on = is_bnd[nb]
            ends.append(idx[on])
            bnds.append(nb[on])
    return np.concatenate(ends), np.take(u.flat(), np.concatenate(bnds), axis=0)


def _dirichlet_from_rows(u, rows, nrows, links, scratch, groups):
    """``dirichlet_energy(u)`` by summation by parts from the interior rows
    ``rows`` of ``u`` and ``nrows`` of its neighbour sum, as whole-array
    passes: h^(d-2) [ sum_i u_i.(2d u_i - N_i) + sum_(i,b) (u_b - u_i).u_b ],
    the first sum taken per group of ``groups``."""
    g = u.grid
    ends, ub = links
    lap = np.multiply(rows, 2.0 * g.d, out=scratch)
    lap -= nrows
    total = -0.0
    for k0, k1 in groups:
        total += float(np.einsum("ij,ij->", rows[k0:k1], lap[k0:k1]))
    du = ub - np.take(u.flat(), ends, axis=0)
    total += float(np.einsum("ij,ij->", du, ub))
    return total * g.h ** (g.d - 2)


def _record(step, t, u, w, dir_e, lam_eff, pen_incr, mx, groups):
    pen_e = float(lam_eff * _groupwise((w - 1.0) ** 2, groups, np.sum)
                  * u.grid.cell_volume / 4.0)
    return StepRecord(step=step, t=t, gl_energy=0.5 * dir_e + pen_e,
                      dirichlet_energy=dir_e, penalty_increment=pen_incr, max_norm=mx)


def _reference_run(u0, n_steps, cfg, sched, rowsq):
    """``flow._run`` over ``n_steps`` steps as it stood before the fused step:
    ``_reference_step``, then the whole-lattice neighbour sum of the new
    state gathered at the interior rows, and its record, whose sums over
    rows are taken per group of ``Grid.neighbour_blocks``; every state's
    field and record."""
    u = u0.copy()
    g = u.grid
    flat = u.flat()
    idx = g.interior_flat
    groups = list(g.neighbour_blocks(flat, np.empty((g.n_interior, u.ncomp))))
    bnd2 = rowsq(flat[g.boundary_flat]).max(initial=0.0)
    links = _boundary_links(u)
    rows = flat[idx]
    nrows = neighbor_sum(flat, g.strides())[idx]
    lap = np.empty_like(rows)
    w = rowsq(rows)
    records = [_record(0, 0.0, u, w, _dirichlet_from_rows(u, rows, nrows, links, lap, groups),
                       sched.strength(0.0) if sched else 0.0, 0.0,
                       float(np.sqrt(np.maximum(w.max(), bnd2))), groups)]
    fields = [u.copy()]
    for k in range(n_steps):
        w, pen_incr, lam_eff, mx = _reference_step(u, rows, nrows, k * cfg.dt, cfg, sched,
                                                   bnd2, rowsq, groups)
        nrows = neighbor_sum(flat, g.strides())[idx]
        records.append(_record(k + 1, (k + 1) * cfg.dt, u, w,
                               _dirichlet_from_rows(u, rows, nrows, links, lap, groups),
                               lam_eff, pen_incr, mx, groups))
        fields.append(u.copy())
    return fields, records


def _check_against_reference(u0, n_steps, sched, rowsq):
    dt = SolverConfig.auto_dt(u0.grid)
    cfg = SolverConfig(dt=dt, T=n_steps * dt)
    traj = run_projected(u0, cfg) if sched is None else run_glhf(u0, cfg, sched)
    fields, records = _reference_run(u0, n_steps, cfg, sched, rowsq)
    assert len(traj.snapshots) == len(fields) == n_steps + 1
    for snap, ref in zip(traj.snapshots, fields):
        assert np.array_equal(snap.values, ref.values)
    assert traj.records == records
    assert [r.max_norm for r in records] == [f.max_norm() for f in fields]
    step = (projected_flow_step(u0, 0.0, cfg) if sched is None
            else glhf_step(u0, 0.0, cfg, sched))
    assert np.array_equal(step.values, fields[1].values)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("mode", ["glhf-simplified", "projected"])
def test_run_equals_the_broadcast_reference_run(rowsq_in_order, d, mode):
    # the 2-D cap and the 3-D hedgehog at h = 1/16, five steps each
    g = build_grid(Domain.unit_ball(d), 1 / 16)
    u0 = generate(InitialData(kind="cap", latitude_deg=60.0) if d == 2
                  else InitialData(kind="equator-hedgehog"), g, 2)
    sched = None if mode == "projected" else PenaltySchedule(lam=1e3)
    _check_against_reference(u0, 5, sched, rowsq_in_order)


GROUP_CASES = {
    # 21 stencil blocks in 13 groups of rows
    "ball-32": (Domain.unit_ball(3), 1 / 32, "equator-hedgehog"),
    # one block per layer of 141^2 nodes, each holding 18,225 > BLOCK_NODES
    # interior rows, so each group is one block wider than BLOCK_NODES
    "wide-layer-box": (Domain.box([[0, 0.5], [0, 17], [0, 17]]), 0.125, "cap"),
    "half-ball": (Domain.half_ball(3), 1 / 16, "cap"),
}


@pytest.mark.parametrize("mode", ["glhf-simplified", "projected"])
@pytest.mark.parametrize("case", sorted(GROUP_CASES))
def test_run_over_many_row_groups_equals_the_broadcast_reference_run(rowsq_in_order, case,
                                                                     mode):
    dom, h, kind = GROUP_CASES[case]
    g = build_grid(dom, h)
    u0 = generate(InitialData(kind=kind, latitude_deg=70.0), g, 2)
    groups = list(g.neighbour_blocks(u0.flat(), np.empty_like(u0.interior_rows())))
    assert groups[0][0] == 0 and groups[-1][1] == g.n_interior
    assert all(a[1] == b[0] for a, b in zip(groups, groups[1:]))
    sizes = [k1 - k0 for k0, k1 in groups]
    if case == "ball-32":
        assert len(groups) == 13 and max(sizes) <= BLOCK_NODES
    if case == "wide-layer-box":
        assert len(groups) == 3 and min(sizes) > BLOCK_NODES
    sched = None if mode == "projected" else PenaltySchedule(lam=1e3)
    _check_against_reference(u0, 2, sched, rowsq_in_order)


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


def test_kept_snapshots_rebuild_their_lattice_read_only_on_read(monkeypatch):
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
    built, lattice_values = [], field.lattice_values
    monkeypatch.setattr(field, "lattice_values",
                        lambda *a: built.append(a) or lattice_values(*a))
    for s, step in zip(kept, cfg.snapshot_steps()):
        # these accessors build no lattice
        assert s.ncomp == 3
        assert np.array_equal(s.interior_rows(), chain[step].interior_rows())
        assert np.array_equal(s.interior_rows(pos), chain[step].interior_rows(pos))
        assert np.array_equal(s.rows(nodes), chain[step].flat())
        assert np.array_equal(s.active_values(), chain[step].active_values())
        assert s.max_norm() == chain[step].max_norm()
        assert not built
        # each read of values builds a new read-only lattice, and none is kept
        first, second = s.values, s.values
        assert len(built) == 2 and all(a[1] is s._rows for a in built)
        built.clear()
        assert np.array_equal(first, chain[step].values)
        assert np.array_equal(first, second) and not np.shares_memory(first, second)
        assert not first.flags.writeable and not second.flags.writeable
        assert sorted(vars(s)) == ["_boundary_rows", "_rows", "grid"]
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


def _group_scratch_bytes(g, m):
    """Bytes of a step's scratch: a group's neighbour sums and |u|^2, and the
    stencil's block scratch."""
    return (g.group_rows() * (m + 1) + g.block_rows() * m) * 8


def test_store_run_holds_one_lattice_one_row_array_group_scratch_and_links(tmp_path):
    # the 3-D ball at h = 1/32, 3 steps through a snapshot store, whose
    # snapshots are maps of their files: 13 groups of rows.  The run holds
    # its field, the interior rows it steps in place, a group's scratch and
    # the boundary links (their interior ends, their boundary values and
    # one difference of the two), beside the boundary rows; a second row
    # array (3.3 MB) or a whole per-node array (1.1 MB) would pass the bound
    g = build_grid(Domain.unit_ball(3), 1 / 32)
    u0 = generate(InitialData(kind="equator-hedgehog"), g, 2)
    dt = SolverConfig.auto_dt(g)
    cfg = SolverConfig(dt=dt, T=2.5 * dt, output_stride=1)
    sched = PenaltySchedule(lam=1e3)
    run_glhf(u0, cfg, sched, store=sfio.SnapshotStore(tmp_path / "warm"))   # fill the caches
    assert len(g.row_groups()) == 13
    tracemalloc.start()
    try:
        traj = run_glhf(u0, cfg, sched, store=sfio.SnapshotStore(tmp_path / "run"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.snapshots) == 4
    m = u0.ncomp
    row_bytes = g.n_interior * m * 8
    ends, ub = flow._boundary_links(u0)
    link_bytes = ends.nbytes + 2 * ub.nbytes
    bnd_bytes = g.boundary_flat.size * m * 8
    assert peak < (u0.values.nbytes + row_bytes + _group_scratch_bytes(g, m) + link_bytes
                   + 2 * bnd_bytes + (1 << 18))


@pytest.mark.parametrize("mode", ["glhf-simplified", "projected"])
def test_public_step_allocates_its_field_its_rows_and_a_group_scratch(mode):
    # the 3-D ball at h = 1/32: a public step copies the field, gathers its
    # interior rows and steps them with a group's scratch; a run's whole
    # per-node or row arrays would pass the bound
    g = build_grid(Domain.unit_ball(3), 1 / 32)
    u0 = generate(InitialData(kind="equator-hedgehog"), g, 2)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(g), T=1.0)
    step = (partial(projected_flow_step, cfg=cfg) if mode == "projected"
            else partial(glhf_step, cfg=cfg, sched=PenaltySchedule(lam=1e3)))
    step(u0, 0.0)                               # fill the grid's caches
    tracemalloc.start()
    try:
        step(u0, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = u0.ncomp
    row_bytes = g.n_interior * m * 8
    bnd_bytes = g.boundary_flat.size * m * 8
    assert peak < (u0.values.nbytes + row_bytes + _group_scratch_bytes(g, m) + bnd_bytes
                   + (1 << 17))


def test_run_holds_no_lattice_sized_scratch():
    # 3-D ball at h = 1/16, one snapshot besides the last: a run holds its
    # field and the step-0 snapshot, three interior-row arrays (the rows it
    # steps between, and 2d u - N for the record), the block scratch its
    # steps share (0.96 of a row array here), two per-node arrays (|u|^2
    # and the squared norm defects) and the boundary links.  A
    # lattice-sized buffer (2.97 row arrays here) would push the peak past
    # the bound.
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


@pytest.mark.parametrize("mode", ["glhf-simplified", "projected"])
def test_steps_after_the_first_allocate_nothing_of_block_size(monkeypatch, mode):
    # 3-D ball at h = 1/16, 6 steps: a run allocates its scratch once, so
    # after the first step no step holds a new array of BLOCK_NODES floats
    # (128 KiB) or more at any point, nor keeps one
    g = build_grid(Domain.unit_ball(3), 1 / 16)
    u0 = generate(InitialData(kind="equator-hedgehog"), g, 2)
    dt = SolverConfig.auto_dt(g)
    cfg = SolverConfig(dt=dt, T=6 * dt, output_stride=100)
    step, rises = flow._step, []

    def traced_step(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = step(*args)
        now, peak = tracemalloc.get_traced_memory()
        rises.append((peak - before, now - before))
        return out

    monkeypatch.setattr(flow, "_step", traced_step)
    tracemalloc.start()
    try:
        if mode == "projected":
            run_projected(u0, cfg)
        else:
            run_glhf(u0, cfg, PenaltySchedule(lam=1e3))
    finally:
        tracemalloc.stop()
    assert len(rises) == 6
    block = BLOCK_NODES * 8
    assert g.n_interior * 8 > block       # a per-node array of the run is larger
    assert all(peak < block and kept < 4096 for peak, kept in rises[1:])


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
