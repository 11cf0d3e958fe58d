"""Penalized sphere-valued heat flow and its projected-flow oracle.

One step, ``_step``, is an operator splitting:

1. explicit diffusion  u <- u + dt * lap_h u  on interior nodes.  Under
   dt <= cfl * h^2 / (2d) this is a convex combination of node values, so
   sup |u| <= 1 is preserved exactly;
2. penalty relaxation of the norm: with w = |u|^2 and strength
   Lam = lambda^(1 - kappa(t)), the subflow is  dw/dt = 2 Lam w (1 - w),
   integrated in closed (logistic) form with the direction u/|u| frozen:
   each row is scaled by sqrt(w1/w0) = (e + (1 - e) w0)^(-1/2), with
   e = exp(-2 Lam dt) clamped below at the smallest normal float, one
   expression for every row, zero rows included.

Boundary nodes keep their Dirichlet values throughout.  The projected
variant replaces the penalty substep by exact normalization of the
interior nodes.  Runs and the public single steps all go through ``_step``.

Data path of one step.  A run carries two (n_interior, D+1) arrays from
step to step: ``rows``, the interior rows of the field, and ``nrows``, the
interior rows of its neighbour sum N.  ``_step`` diffuses ``rows`` in place
from ``nrows``, rescales them in place by the norm reaction (or the
normalization) and scatters them into the field with ``put_rows``, one
whole row per element, so the post-reaction rows are the field's rows and
are never gathered again; |u|^2 of them feeds the sup-norm guard, with the
boundary maximum, which is fixed because no step writes a boundary row.
Every |u|^2 is ``geometry.rowsq`` (one fixed column order, one column pass
at a time) and every division of the rows by a per-row divisor is
``geometry.scale_rows``, so the guard, ``SphereField.max_norm`` and the
records take one definition.
Right after the step ``Grid.neighbour_rows`` computes N for the new state
straight into ``nrows``, one cache-sized block of layers at a time.  Those
rows serve twice: the state's record takes its Dirichlet energy from them
by summation by parts, and the next step diffuses with them.  The boundary
part of that sum runs over the interior-boundary links only, whose
boundary values are gathered once per run.  Nothing in a step copies or
writes a lattice-sized array except the field; the last state's N is the
one neighbour sum no step uses.

Buffers.  ``_run`` takes the interior and boundary rows of ``u0`` once
(``interior_rows`` and ``rows``, which rebuild no lattice of a
``field.KeptSnapshot``, the form of the command line's initial field) and
builds its own field from them (``field.lattice_values``, exterior rows
zero, whatever ``u0`` holds there); ``_step`` mutates that field in
place, and it is the only lattice of a command-line run's state.  At each snapshot step the trajectory takes a snapshot of it.
Without a store (``store=None``) that is a ``field.KeptSnapshot``: a copy
of ``rows``, which are the field's interior rows at that point, so
capture gathers nothing, and the one array of boundary rows gathered at
the start, shared by every kept snapshot since no step writes a boundary
row.  A kept snapshot rebuilds its lattice, read-only and bit for bit
the field's, when its ``values`` are read, and ``field.release_pages``
drops it again; readers that need only interior rows (or a few rows)
take them with no rebuild.  The last snapshot is the field itself, which
no step writes again.  So a store-less run's heap grows by one
interior-row array per snapshot.  With a store the trajectory holds what
``store.take(u, last)`` returns: a ``io.SnapshotStore`` writes the
field's values to a file and returns a read-only map of it, so a run's
heap does not grow with its snapshot count, and each diagnostic that
reads a map releases its pages (``field.release_pages``), so its
resident set does not either.  Either way no later step writes the
caller's ``u0`` or a returned snapshot.  A
store may also consume each snapshot as it is taken and return the field
itself: a sweep case's store (``cli._CaseStream``) records what it needs
of snapshot k at capture, so the case holds no snapshot, and every entry
of its trajectory is the run's final field.  The projected reference such
a case is compared with runs through a ``SnapshotStore`` whose files are
removed as soon as the run returns (``cli._reference``): its maps stay
readable, so the reference holds no snapshot on the heap, and the case's
store releases each reference snapshot's pages once it has read it.
Beyond the field and the snapshots a run holds three interior-row
arrays: ``rows``, ``nrows`` and the record's scratch for its per-component
difference.  Each neighbour sum adds one block scratch of at most
``geometry.BLOCK_NODES`` lattice nodes (unless a single layer is wider),
freed when the sum returns.  Once the diffusion has added ``nrows`` into
``rows`` the step no longer needs it, so every |u|^2 of the step (before
and after the reaction, and the normalization's) takes its products in
``nrows``; the step-0 |u|^2 of a run takes them in the record's scratch.
The norm reaction works in two per-node arrays: the squared deviation
(|u|^2 - 1)^2 for the penalty increment, and |u|^2, which it turns in
place into the divisor sqrt(e + (1 - e) w0) of the rows; it allocates no
interior-row array.  ``glhf_step`` and
``projected_flow_step`` copy their input once, gather its rows and N once,
and step the copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from typing import Optional

import numpy as np

from .errors import CFLViolated, NormBlowup
# the benchmark tracer wraps the module bindings flow.dirichlet_energy (the
# reference the records agree with) and flow.project_to_sphere, so both
# stay imported here
from .field import (KeptSnapshot, SphereField, dirichlet_energy, lattice_values,
                    normalize_rows, project_to_sphere, release_pages)
from .geometry import BOUNDARY, Grid, put_rows, rowsq, scale_rows


# -- schedules -------------------------------------------------------------

def kappa(t):
    """Penalty-softening exponent schedule, arctan(t)/pi."""
    return np.arctan(t) / np.pi


@dataclass
class PenaltySchedule:
    """Penalty strength lambda with the time-dependent exponent 1 - kappa(t)."""

    lam: float

    def __post_init__(self):
        if self.lam <= 1.0:
            raise ValueError("penalty strength must exceed 1")

    def exponent(self, t: float) -> float:
        """The exponent 1 - kappa(t) of lambda at time t."""
        return 1.0 - float(kappa(t))

    def strength(self, t: float) -> float:
        """The penalty strength Lam = lambda^(1 - kappa(t)) at time t; the step,
        its record, the snapshot sidecars and the penalty density all use it."""
        return self.lam ** self.exponent(t)


@dataclass
class SolverConfig:
    dt: float
    T: float
    cfl: float = 0.9
    output_stride: int = 1

    @staticmethod
    def auto_dt(grid: Grid, cfl: float = 0.9) -> float:
        return cfl * grid.h ** 2 / (2.0 * grid.d)

    def n_steps(self) -> int:
        """Steps of a run: the first multiple of dt at or past T (less 1e-9 of
        a step, so a T that is a multiple of dt up to rounding takes no extra
        step)."""
        return int(math.ceil(self.T / self.dt - 1e-9))

    def snapshot_steps(self) -> list:
        """Steps a run records a snapshot after: 0, every ``output_stride``-th
        step and the last one."""
        n = self.n_steps()
        return [*range(0, n, self.output_stride), n]

    def snapshot_times(self) -> list:
        """Times of the snapshots a run records, one per ``snapshot_steps``."""
        return [k * self.dt for k in self.snapshot_steps()]

    def validate(self, grid: Grid):
        bound = self.auto_dt(grid, self.cfl)
        if self.dt > bound * (1.0 + 1e-12):
            raise CFLViolated(
                f"dt = {self.dt:g} exceeds the diffusion bound "
                f"cfl*h^2/(2d) = {bound:g} (cfl={self.cfl}, h={grid.h}, d={grid.d})")
        # the comparisons are false for NaN, which the bound check lets through
        if not all(0.0 < v < math.inf for v in (self.dt, self.T, self.cfl)):
            raise CFLViolated(f"dt, T and cfl must be positive and finite, got "
                              f"dt = {self.dt!r}, T = {self.T!r}, cfl = {self.cfl!r}")
        if self.output_stride < 1:
            raise ValueError("output stride must be >= 1")


@dataclass
class StepRecord:
    step: int
    t: float
    gl_energy: float
    dirichlet_energy: float
    penalty_increment: float
    max_norm: float


@dataclass
class Trajectory:
    """Recorded snapshots plus per-step scalar records of a flow run.

    The snapshots of a store-less run are ``field.KeptSnapshot``s, whose
    values are read-only, but for the last, the run's own field; a run
    with a store holds what the store returns (see "Buffers" in the
    module docstring)."""

    grid: Grid
    times: list                     # snapshot times
    snapshots: list                 # SphereField per recorded time
    records: list                   # StepRecord per step (including step 0)
    lam: Optional[float]            # None: projected or static
    dt: float
    # (k, mode) -> density, filled by diagnostics.energy_density
    _density_cache: dict = dfield(default_factory=dict, repr=False)
    # (t0, x0 tuple) -> {k: speed term at t_k}, filled by
    # diagnostics.monotonicity_report
    _speed_cache: dict = dfield(default_factory=dict, repr=False)
    # (t0, x0 tuple, R, mode) -> Gaussian-weighted annulus energy, filled by
    # diagnostics.monotonicity_report
    _annulus_cache: dict = dfield(default_factory=dict, repr=False)

    @property
    def t_final(self) -> float:
        return self.times[-1]

    @property
    def schedule(self) -> Optional[PenaltySchedule]:
        """The penalty schedule of a penalized run; None for a projected or
        static trajectory, whose ``lam`` is None."""
        return None if self.lam is None else PenaltySchedule(self.lam)

    @staticmethod
    def static(f: SphereField, times) -> "Trajectory":
        """Time-frozen trajectory of a single field (diagnostic harness)."""
        times = [float(t) for t in times]
        if len(times) < 2 or any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("static trajectory needs strictly increasing times")
        snaps = [f] * len(times)
        recs = [StepRecord(step=k, t=t, gl_energy=0.0,
                           dirichlet_energy=0.0, penalty_increment=0.0,
                           max_norm=f.max_norm()) for k, t in enumerate(times)]
        return Trajectory(grid=f.grid, times=times, snapshots=snaps, records=recs,
                          lam=None, dt=times[1] - times[0])


# -- substeps ---------------------------------------------------------------

def _diffuse(rows: np.ndarray, nrows: np.ndarray, g: Grid, dt: float) -> None:
    """The explicit diffusion substep, in place on the interior rows ``rows``
    given the interior rows ``nrows`` of their neighbour sum, which it scales
    in place."""
    mu = dt / g.h ** 2
    rows *= 1.0 - 2.0 * g.d * mu
    nrows *= mu
    rows += nrows


def _boundary_norm2(u: SphereField) -> float:
    """Largest |u|^2 over the boundary rows, which no step changes."""
    b = np.take(u.flat(), u.grid.boundary_flat, axis=0)
    return rowsq(b, scratch=b).max(initial=0.0)


def _sup_norm(w: np.ndarray, bnd2: float) -> float:
    """sup |u| over active nodes from the interior |u|^2 and the boundary max;
    NaN in either propagates."""
    return float(np.sqrt(np.maximum(w.max(), bnd2)))


def _step(u: SphereField, rows: np.ndarray, nrows: np.ndarray, t: float,
          cfg: SolverConfig, sched: Optional[PenaltySchedule], bnd2: float):
    """The one split step at time t, in place: diffusion, then the norm reaction.

    ``rows`` are the interior rows of ``u`` and ``nrows`` those of its
    neighbour sum; on return ``rows`` holds the new interior rows, which
    are also written into ``u``, and ``nrows`` is spent: past the diffusion
    it is the scratch of every |u|^2.  The reaction is
    the closed form of the module docstring, one expression on every row.
    ``sched is None`` is the projected flow (exact normalization of the
    interior rows, which raises ``NearZeroVector`` on a zero row).
    ``bnd2`` is ``_boundary_norm2(u)``.  Returns |u|^2 of the new interior
    rows, the step's penalty increment, the strength used and the new
    sup-norm.
    """
    g = u.grid
    idx = g.interior_flat
    _diffuse(rows, nrows, g, cfg.dt)
    if sched is None:
        normalize_rows(rows, idx, scratch=nrows)
        pen_incr, lam_eff = 0.0, 0.0
    else:
        lam_eff = sched.strength(t)
        w0 = rowsq(rows, scratch=nrows)
        # left-endpoint rectangle rule on the penalty subflow: the
        # integrand is sampled on the state entering the substep
        sq = w0 - 1.0
        sq *= sq
        pen_incr = float(cfg.dt * lam_eff * np.sum(sq) * g.cell_volume)
        # w1 = w0 / (e + (1 - e) w0), so the rows scale by sqrt(w1 / w0);
        # the clamp keeps the root positive when exp underflows, so a zero
        # row stays 0
        e = max(math.exp(-2.0 * lam_eff * cfg.dt), np.finfo(float).tiny)
        w0 *= 1.0 - e
        w0 += e
        scale_rows(rows, np.sqrt(w0, out=w0))
    put_rows(u.flat(), idx, rows)
    w = rowsq(rows, scratch=nrows)
    mx = _sup_norm(w, bnd2)
    if not mx <= 1.0 + 1e-7:
        raise NormBlowup(f"max node norm {mx} exceeds 1 + 1e-7 at t = {t}")
    return w, pen_incr, lam_eff, mx


def _public_step(f: SphereField, t: float, cfg: SolverConfig,
                 sched: Optional[PenaltySchedule]) -> SphereField:
    cfg.validate(f.grid)
    u = f.copy()
    g = u.grid
    flat = u.flat()
    rows = np.take(flat, g.interior_flat, axis=0)
    _step(u, rows, g.neighbour_rows(flat), t, cfg, sched, _boundary_norm2(u))
    return u


def glhf_step(f: SphereField, t: float, cfg: SolverConfig,
              sched: PenaltySchedule) -> SphereField:
    """One split step of the penalized flow at time t, in a new field."""
    return _public_step(f, t, cfg, sched)


def projected_flow_step(f: SphereField, t: float, cfg: SolverConfig) -> SphereField:
    """Diffusion substep followed by exact normalization, in a new field."""
    return _public_step(f, t, cfg, None)


# -- runs --------------------------------------------------------------------

def _boundary_links(u: SphereField) -> tuple:
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


def _dirichlet_from_rows(u: SphereField, rows: np.ndarray, nrows: np.ndarray,
                         links: tuple, scratch: np.ndarray) -> float:
    """``dirichlet_energy(u)`` by summation by parts, from the interior rows
    ``rows`` of ``u``, the interior rows ``nrows`` of its neighbour sum N and
    ``links = _boundary_links(u)``; ``scratch`` is a buffer of ``rows``'
    shape that it overwrites:

        h^(d-2) [ sum_i u_i.(2d u_i - N_i) + sum_(i,b) (u_b - u_i).u_b ]

    over interior nodes i and interior-boundary links (i, b).  The first sum
    counts each interior-interior link from both ends and each
    interior-boundary link from its interior end; the second completes the
    latter.  The difference 2d u_i - N_i is taken per component, before any
    product, and the boundary term is kept per link: both keep the sum
    within ~1e-14 of the link sum, where expanding the products cancels
    digits.
    """
    g = u.grid
    ends, ub = links
    lap = np.multiply(rows, 2.0 * g.d, out=scratch)
    lap -= nrows
    total = float(np.einsum("ij,ij->", rows, lap))
    du = ub - np.take(u.flat(), ends, axis=0)
    total += float(np.einsum("ij,ij->", du, ub))
    return total * g.h ** (g.d - 2)


def _record(step: int, t: float, u: SphereField, w: np.ndarray, dir_e: float,
            lam_eff: float, pen_incr: float, mx: float) -> StepRecord:
    """The scalar record of ``u``; ``w`` is |u|^2 of its interior rows and
    ``dir_e`` its Dirichlet energy."""
    pen_e = float(lam_eff * np.sum((w - 1.0) ** 2) * u.grid.cell_volume / 4.0)
    return StepRecord(step=step, t=t, gl_energy=0.5 * dir_e + pen_e,
                      dirichlet_energy=dir_e, penalty_increment=pen_incr,
                      max_norm=mx)


def _run(u0: SphereField, cfg: SolverConfig, sched: Optional[PenaltySchedule],
         store=None) -> Trajectory:
    cfg.validate(u0.grid)
    n_steps, take = cfg.n_steps(), set(cfg.snapshot_steps())
    g = u0.grid
    rows = u0.interior_rows()
    bnd = u0.rows(g.boundary_flat)
    u = SphereField(g, lattice_values(g, rows, bnd))     # exterior rows zero
    flat = u.flat()

    def keep(last: bool) -> SphereField:
        if store is not None:
            return store.take(u, last)
        return u if last else KeptSnapshot(g, rows.copy(), bnd)

    bnd2 = _boundary_norm2(u)
    links = _boundary_links(u)
    nrows = g.neighbour_rows(flat)
    lap = np.empty_like(rows)           # the record's scratch
    w = rowsq(rows, scratch=lap)
    records = [_record(0, 0.0, u, w, _dirichlet_from_rows(u, rows, nrows, links, lap),
                       sched.strength(0.0) if sched else 0.0, 0.0, _sup_norm(w, bnd2))]
    snapshots = [keep(False)]
    for k in range(n_steps):
        w, pen_incr, lam_eff, mx = _step(u, rows, nrows, k * cfg.dt, cfg, sched, bnd2)
        g.neighbour_rows(flat, out=nrows)
        t_next = (k + 1) * cfg.dt
        records.append(_record(k + 1, t_next, u, w,
                               _dirichlet_from_rows(u, rows, nrows, links, lap),
                               lam_eff, pen_incr, mx))
        if k + 1 in take:
            snapshots.append(keep(k + 1 == n_steps))

    return Trajectory(grid=u0.grid, times=cfg.snapshot_times(),
                      snapshots=snapshots, records=records,
                      lam=sched.lam if sched else None, dt=cfg.dt)


def run_glhf(u0: SphereField, cfg: SolverConfig, sched: PenaltySchedule,
             store=None) -> Trajectory:
    """Run the penalized flow.  Each snapshot is ``store.take(u, last)`` of
    the flow's field ``u``, called as the flow reaches it (see "Buffers" in
    the module docstring), or a ``field.KeptSnapshot`` without a store."""
    return _run(u0, cfg, sched, store)


def run_projected(u0: SphereField, cfg: SolverConfig, store=None) -> Trajectory:
    """Run the projected flow; ``store`` as in ``run_glhf``."""
    return _run(u0, cfg, None, store)


def penalty_integral(traj: Trajectory) -> float:
    """Accumulated penalty dissipation integral of a run: the sum of its
    per-step records (0 for a static trajectory, whose records hold 0)."""
    return float(sum(r.penalty_increment for r in traj.records))


def trajectory_l2q_distance(a: Trajectory, b: Trajectory) -> float:
    """Space-time L^2 distance between two runs on matching snapshot times;
    releases the pages of each snapshot pair once read
    (``field.release_pages``)."""
    if len(a.times) != len(b.times) or any(
            abs(s - t) > 1e-12 for s, t in zip(a.times, b.times)):
        raise ValueError("trajectories must share snapshot times")
    from .diagnostics import window_integral    # diagnostics imports this module
    from .field import l2_distance

    def dist2(k: int) -> float:
        d = l2_distance(a.snapshots[k], b.snapshots[k])
        release_pages(a.snapshots[k])
        release_pages(b.snapshots[k])
        return d ** 2

    return math.sqrt(window_integral(a, a.times[0], a.t_final, dist2))
