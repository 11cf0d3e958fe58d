"""Penalized sphere-valued heat flow and its projected-flow oracle.

One step, ``_step``, is an operator splitting:

1. explicit diffusion  u <- u + dt * lap_h u  on interior nodes.  Under
   dt <= cfl * h^2 / (2d) this is a convex combination of node values, so
   sup |u| <= 1 is preserved exactly;
2. penalty relaxation of the norm: with w = |u|^2 and strength
   Lam = lambda^(1 - kappa(t)), the subflow is  dw/dt = 2 Lam w (1 - w),
   integrated in closed (logistic) form with the direction u/|u| frozen.
   The original equation form weights the reaction by the cutoff slope
   chi'((w - 1)^2), which is 1 on every norm a step admits, so it is the
   same ODE and is integrated the same way.

Boundary nodes keep their Dirichlet values throughout.  The projected
variant replaces the penalty substep by exact normalization of the
interior nodes.  Runs and the public single steps all go through ``_step``.

Data path of one step.  A run carries two (n_interior, D+1) arrays from
step to step: ``rows``, the interior rows of the field, and ``nrows``, the
interior rows of its neighbour sum N.  ``_step`` diffuses ``rows`` in place
from ``nrows``, rescales them in place by the norm reaction (or the
normalization) and scatters them into the field, so the post-reaction rows
are the field's rows and are never gathered again; |u|^2 of them feeds the
sup-norm guard, with the boundary maximum, which is fixed because no step
writes a boundary row.  Right after the step ``_neighbour_rows`` computes N
once for the new state.  Its interior rows serve twice: the state's record
takes its Dirichlet energy from them by summation by parts, and the next
step diffuses with them.  The boundary part of that sum runs over the
interior-boundary links only, whose boundary values are gathered once per
run.  Nothing in a step copies the whole field; the last state's N is the
one neighbour sum no step uses.

Buffers.  ``_run`` copies ``u0`` once and then owns that field: ``_step``
mutates it in place, and each snapshot but the last is a copy of it, so
neither the caller's ``u0`` nor a returned snapshot is ever written by a
later step; the last snapshot is the field itself, which no step writes
again.  N lives in one lattice buffer that every state of a run
overwrites, and ``nrows`` is gathered into its own buffer, so beyond the
field and the snapshots a run holds one lattice array and two interior-row
arrays.  The record's per-component difference uses the lattice buffer as
scratch, and the norm reaction works in two per-node arrays (|u|^2 before
the reaction, and one that holds the squared deviation, then the new
|u|^2, then the scale), so neither allocates an interior-row array.
``glhf_step`` and ``projected_flow_step`` copy their input once, gather its
rows and N once, and step the copy.
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
from .field import (SphereField, dirichlet_energy, normalize_rows,
                    norm_squared_flat, project_to_sphere)
from .geometry import BOUNDARY, Grid, neighbor_sum

GLHF_MODES = ("glhf-simplified", "glhf-original")


# -- schedules -------------------------------------------------------------

def kappa(t):
    """Penalty-softening exponent schedule, arctan(t)/pi."""
    return np.arctan(t) / np.pi


def kappa_dot(t):
    return 1.0 / (np.pi * (1.0 + np.asarray(t) ** 2))


def chi(s):
    """Cutoff profile: identity below 2, constant 3 above 4, C^1 monotone between.

    On [2, 4] the Hermite interpolant matching values (2, 3) and slopes
    (1, 0) is the quadratic 2 + 2 tau - tau^2, tau = (s - 2)/2.
    """
    s = np.asarray(s, dtype=float)
    tau = np.clip((s - 2.0) / 2.0, 0.0, 1.0)
    mid = 2.0 + 2.0 * tau - tau ** 2
    return np.where(s < 2.0, s, np.where(s >= 4.0, 3.0, mid))


def chi_dot(s):
    s = np.asarray(s, dtype=float)
    tau = np.clip((s - 2.0) / 2.0, 0.0, 1.0)
    return np.where(s < 2.0, 1.0, np.where(s >= 4.0, 0.0, 1.0 - tau))


@dataclass
class PenaltySchedule:
    """Penalty strength lambda with the time-dependent exponent 1 - kappa(t)."""

    lam: float

    def __post_init__(self):
        if self.lam <= 1.0:
            raise ValueError("penalty strength must exceed 1")

    def strength(self, t: float) -> float:
        return self.lam ** (1.0 - float(kappa(t)))


@dataclass
class SolverConfig:
    dt: float
    T: float
    cfl: float = 0.9
    output_stride: int = 1

    @staticmethod
    def auto_dt(grid: Grid, cfl: float = 0.9) -> float:
        return cfl * grid.h ** 2 / (2.0 * grid.d)

    def validate(self, grid: Grid):
        bound = self.cfl * grid.h ** 2 / (2.0 * grid.d)
        if self.dt > bound * (1.0 + 1e-12):
            raise CFLViolated(
                f"dt = {self.dt:g} exceeds the diffusion bound "
                f"cfl*h^2/(2d) = {bound:g} (cfl={self.cfl}, h={grid.h}, d={grid.d})")
        if self.dt <= 0 or self.T <= 0:
            raise CFLViolated("dt and T must be positive")
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
    """Recorded snapshots plus per-step scalar records of a flow run."""

    grid: Grid
    target_dim: int
    times: list                     # snapshot times
    snapshots: list                 # SphereField per recorded time
    records: list                   # StepRecord per step (including step 0)
    mode: str
    lam: Optional[float]
    dt: float
    _density_cache: dict = dfield(default_factory=dict, repr=False)

    @property
    def t_final(self) -> float:
        return self.times[-1]

    def exponent_at(self, t: float) -> Optional[float]:
        if self.mode == "projected" or self.lam is None:
            return None
        return 1.0 - float(kappa(t))

    def strength_at(self, t: float) -> float:
        e = self.exponent_at(t)
        return 0.0 if e is None else self.lam ** e

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
        return Trajectory(grid=f.grid, target_dim=f.target_dim, times=times,
                          snapshots=snaps, records=recs, mode="static",
                          lam=None, dt=times[1] - times[0])


# -- substeps ---------------------------------------------------------------

def _neighbour_rows(flat: np.ndarray, g: Grid, nbr: np.ndarray,
                    nrows: np.ndarray) -> None:
    """Write the neighbour sum of ``flat`` into the lattice buffer ``nbr``
    and its interior rows into ``nrows``."""
    neighbor_sum(flat, g.strides(), out=nbr)
    # mode="clip" gathers straight into nrows; "raise" would buffer a copy
    np.take(nbr, g.interior_flat, axis=0, out=nrows, mode="clip")


def _diffuse(rows: np.ndarray, nrows: np.ndarray, g: Grid, dt: float) -> None:
    """The explicit diffusion substep, in place on the interior rows ``rows``
    given the interior rows ``nrows`` of their neighbour sum, which it scales
    in place."""
    mu = dt / g.h ** 2
    rows *= 1.0 - 2.0 * g.d * mu
    nrows *= mu
    rows += nrows


def _logistic_norms(w0: np.ndarray, lam_eff: float, dt: float,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact solution of dw/dt = 2 Lam w (1-w) after time dt, written into
    ``out`` (a new array if None); nodes with w0 <= 0 (or NaN) get 0."""
    z = 2.0 * lam_eff * dt
    pos = w0 > 0
    w = np.subtract(1.0, w0, out=out)
    np.divide(w, w0, out=w, where=pos)
    w *= math.exp(-z)
    w += 1.0
    np.divide(1.0, w, out=w, where=pos)
    w[~pos] = 0.0
    return w


def _norm2(rows: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", rows, rows)


def _boundary_norm2(u: SphereField) -> float:
    """Largest |u|^2 over the boundary rows, which no step changes."""
    g = u.grid
    return _norm2(np.take(u.flat(), g.boundary_flat, axis=0)).max(initial=0.0)


def _sup_norm(w: np.ndarray, bnd2: float) -> float:
    """sup |u| over active nodes from the interior |u|^2 and the boundary max;
    NaN in either propagates."""
    return float(np.sqrt(np.maximum(w.max(), bnd2)))


def _step(u: SphereField, rows: np.ndarray, nrows: np.ndarray, t: float,
          cfg: SolverConfig, sched: Optional[PenaltySchedule], bnd2: float):
    """The one split step at time t, in place: diffusion, then the norm reaction.

    ``rows`` are the interior rows of ``u`` and ``nrows`` those of its
    neighbour sum; on return ``rows`` holds the new interior rows, which
    are also written into ``u``, and ``nrows`` is spent.  ``sched is None``
    is the projected flow (exact normalization of the interior rows).
    ``bnd2`` is ``_boundary_norm2(u)``.  Returns |u|^2 of the new interior
    rows, the step's penalty increment, the strength used and the new
    sup-norm.
    """
    g = u.grid
    idx = g.interior_flat
    _diffuse(rows, nrows, g, cfg.dt)
    if sched is None:
        normalize_rows(rows, idx)
        pen_incr, lam_eff = 0.0, 0.0
    else:
        lam_eff = sched.strength(t)
        w0 = _norm2(rows)
        # left-endpoint rectangle rule on the penalty subflow: the
        # integrand is sampled on the state entering the substep
        sq = w0 - 1.0
        sq *= sq
        pen_incr = float(cfg.dt * lam_eff * np.sum(sq) * g.cell_volume)
        # rescale norms from sqrt(w0) to sqrt(w1), direction unchanged; the
        # scale overwrites w1, which overwrites sq, and is 1 where w0 <= 0
        scale = _logistic_norms(w0, lam_eff, cfg.dt, out=sq)
        pos = w0 > 0
        np.divide(scale, w0, out=scale, where=pos)
        np.sqrt(scale, out=scale)
        scale[~pos] = 1.0
        rows *= scale[:, None]
    u.flat()[idx] = rows
    w = _norm2(rows)
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
    nrows = np.take(neighbor_sum(flat, g.strides()), g.interior_flat, axis=0)
    _step(u, rows, nrows, t, cfg, sched, _boundary_norm2(u))
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
         mode: str) -> Trajectory:
    cfg.validate(u0.grid)
    n_steps = int(math.ceil(cfg.T / cfg.dt - 1e-9))
    u = u0.copy()
    g = u.grid
    flat = u.flat()
    bnd2 = _boundary_norm2(u)
    links = _boundary_links(u)
    rows = np.take(flat, g.interior_flat, axis=0)
    nbr = np.empty_like(flat)
    nrows = np.empty_like(rows)
    # nbr is not read between the gather of nrows and the next neighbour
    # sum, so its leading rows are the record's scratch
    lap = nbr[:g.n_interior]
    _neighbour_rows(flat, g, nbr, nrows)
    w = _norm2(rows)
    records = [_record(0, 0.0, u, w, _dirichlet_from_rows(u, rows, nrows, links, lap),
                       sched.strength(0.0) if sched else 0.0, 0.0, _sup_norm(w, bnd2))]
    times = [0.0]
    snapshots = [u.copy()]
    for k in range(n_steps):
        w, pen_incr, lam_eff, mx = _step(u, rows, nrows, k * cfg.dt, cfg, sched, bnd2)
        _neighbour_rows(flat, g, nbr, nrows)
        t_next = (k + 1) * cfg.dt
        records.append(_record(k + 1, t_next, u, w,
                               _dirichlet_from_rows(u, rows, nrows, links, lap),
                               lam_eff, pen_incr, mx))
        if (k + 1) % cfg.output_stride == 0 or k + 1 == n_steps:
            times.append(t_next)
            snapshots.append(u if k + 1 == n_steps else u.copy())

    return Trajectory(grid=u0.grid, target_dim=u0.target_dim, times=times,
                      snapshots=snapshots, records=records, mode=mode,
                      lam=sched.lam if sched else None, dt=cfg.dt)


def run_glhf(u0: SphereField, cfg: SolverConfig, sched: PenaltySchedule,
             mode: str = "glhf-simplified") -> Trajectory:
    """Run the penalized flow; ``mode`` labels the trajectory.

    ``glhf-original`` weights the reaction by the cutoff slope
    chi'((w - 1)^2), which is 1 whenever w < 1 + sqrt(2).  The diffusion is
    a convex combination and the sup-norm guard stops a run above
    |u| = 1 + 1e-7, so every w the reaction sees is in that range: both
    modes solve the same ODE and step identically with the exact logistic.
    """
    if mode not in GLHF_MODES:
        raise ValueError(f"unknown penalized mode {mode!r}")
    return _run(u0, cfg, sched, mode)


def run_projected(u0: SphereField, cfg: SolverConfig) -> Trajectory:
    return _run(u0, cfg, None, "projected")


def penalty_integral(traj: Trajectory) -> float:
    """Accumulated penalty dissipation integral of a run.

    Uses the per-step records when available; static trajectories fall
    back to a rectangle rule on snapshot values.
    """
    if traj.mode != "static":
        return float(sum(r.penalty_increment for r in traj.records))
    total = 0.0
    for k in range(len(traj.times) - 1):
        dt = traj.times[k + 1] - traj.times[k]
        lam_eff = traj.strength_at(traj.times[k])
        w = norm_squared_flat(traj.snapshots[k])[traj.grid.interior_flat]
        total += dt * lam_eff * float(np.sum((w - 1.0) ** 2)) * traj.grid.cell_volume
    return total


def trajectory_l2q_distance(a: Trajectory, b: Trajectory) -> float:
    """Space-time L^2 distance between two runs on matching snapshot times."""
    if len(a.times) != len(b.times) or any(
            abs(s - t) > 1e-12 for s, t in zip(a.times, b.times)):
        raise ValueError("trajectories must share snapshot times")
    from .field import l2_distance
    total = 0.0
    for k in range(len(a.times) - 1):
        w = a.times[k + 1] - a.times[k]
        total += w * l2_distance(a.snapshots[k], b.snapshots[k]) ** 2
    return math.sqrt(total)
