"""Penalized sphere-valued heat flow and its projected-flow oracle.

One step, ``_step``, is an operator splitting:

1. explicit diffusion  u <- u + dt * lap_h u  on interior nodes.  Under
   dt <= cfl * h^2 / (2d) this is a convex combination of node values, so
   sup |u| <= 1 is preserved exactly;
2. penalty relaxation of the norm: with w = |u|^2 and strength
   Lam = lambda^(1 - kappa(t)), the subflow is  dw/dt = 2 Lam w (1 - w),
   integrated in closed (logistic) form with the direction u/|u| frozen.
   The original equation form weights the reaction by a cutoff slope and
   is integrated by substepped RK4 instead.

Boundary nodes keep their Dirichlet values throughout.  The projected
variant replaces the penalty substep by exact normalization of the
interior nodes.  Runs and the public single-step functions all go through
``_step``.

Data path of one step.  ``_step`` reads the field's interior rows once:
``_diffused_rows`` gathers them, and the same rows of the stride-shifted
neighbour sum, into a new (n_interior, D+1) array.  The norm reaction (or
the normalization) rescales that array in place, one scatter writes it back
into the field, and |u|^2 of the written rows is computed once.  That one
array feeds the sup-norm guard, together with the boundary maximum, which
is fixed because no step writes a boundary row, and the penalty energy of
the step's record.  Nothing in a step copies the whole field.

Buffers.  ``_run`` copies ``u0`` once and then owns that field: ``_step``
mutates it in place, and each snapshot is a copy of it, so neither the
caller's ``u0`` nor a returned snapshot is ever written by a later step.
``glhf_step`` and ``projected_flow_step`` copy their input once and step
the copy.  Per-step temporaries live in ``_step`` and are freed when it
returns, before the record is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from typing import Optional

import numpy as np

from .errors import CFLViolated, NormBlowup
# the benchmark tracer wraps the module bindings flow.dirichlet_energy (which
# _record calls) and flow.project_to_sphere, so both stay imported here
from .field import (SphereField, dirichlet_energy, normalize_rows,
                    norm_squared_flat, project_to_sphere)
from .geometry import Grid, neighbor_sum


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
    use_original_form: bool = False

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

def _diffused_rows(flat: np.ndarray, g: Grid, dt: float) -> np.ndarray:
    """Interior rows after the explicit diffusion substep, in a new array."""
    mu = dt / g.h ** 2
    idx = g.interior_flat
    rows = np.take(flat, idx, axis=0)
    rows *= 1.0 - 2.0 * g.d * mu
    nbr = np.take(neighbor_sum(flat, g.strides()), idx, axis=0)
    nbr *= mu
    rows += nbr
    return rows


def _logistic_norms(w0: np.ndarray, lam_eff: float, dt: float) -> np.ndarray:
    """Exact solution of dw/dt = 2 Lam w (1-w) after time dt."""
    z = 2.0 * lam_eff * dt
    w = np.empty_like(w0)
    pos = w0 > 0
    w[~pos] = 0.0
    ratio = (1.0 - w0[pos]) / w0[pos]
    w[pos] = 1.0 / (1.0 + ratio * math.exp(-z))
    return w


def _rk4_norms(w0: np.ndarray, lam_eff: float, dt: float,
               original_form: bool) -> np.ndarray:
    """Substepped RK4 for the norm reaction, stable for stiff strengths."""
    def rhs(w):
        slope = chi_dot((w - 1.0) ** 2) if original_form else 1.0
        return -2.0 * lam_eff * slope * (w - 1.0) * w

    n_sub = max(1, int(math.ceil(4.0 * lam_eff * dt)))
    hdt = dt / n_sub
    w = w0.copy()
    for _ in range(n_sub):
        k1 = rhs(w)
        k2 = rhs(w + 0.5 * hdt * k1)
        k3 = rhs(w + 0.5 * hdt * k2)
        k4 = rhs(w + hdt * k3)
        w = w + hdt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
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


def _step(u: SphereField, t: float, cfg: SolverConfig,
          sched: Optional[PenaltySchedule], bnd2: float):
    """The one split step at time t, in place: diffusion, then the norm reaction.

    ``sched is None`` is the projected flow (exact normalization of the
    interior rows).  ``bnd2`` is ``_boundary_norm2(u)``.  Returns |u|^2 of
    the new interior rows, the step's penalty increment, the strength used
    and the new sup-norm.
    """
    g = u.grid
    idx = g.interior_flat
    flat = u.flat()
    rows = _diffused_rows(flat, g, cfg.dt)
    if sched is None:
        normalize_rows(rows, idx)
        pen_incr, lam_eff = 0.0, 0.0
    else:
        lam_eff = sched.strength(t)
        w0 = _norm2(rows)
        # left-endpoint rectangle rule on the penalty subflow: the
        # integrand is sampled on the state entering the substep
        pen_incr = float(cfg.dt * lam_eff * np.sum((w0 - 1.0) ** 2) * g.cell_volume)
        if sched.use_original_form:
            w1 = _rk4_norms(w0, lam_eff, cfg.dt, original_form=True)
        else:
            w1 = _logistic_norms(w0, lam_eff, cfg.dt)
        # rescale norms from sqrt(w0) to sqrt(w1), direction unchanged
        scale = np.ones_like(w0)
        pos = w0 > 0
        scale[pos] = np.sqrt(w1[pos] / w0[pos])
        rows *= scale[:, None]
    flat[idx] = rows
    w = _norm2(rows)
    mx = _sup_norm(w, bnd2)
    if not mx <= 1.0 + 1e-7:
        raise NormBlowup(f"max node norm {mx} exceeds 1 + 1e-7 at t = {t}")
    return w, pen_incr, lam_eff, mx


def _public_step(f: SphereField, t: float, cfg: SolverConfig,
                 sched: Optional[PenaltySchedule]) -> SphereField:
    cfg.validate(f.grid)
    u = f.copy()
    _step(u, t, cfg, sched, _boundary_norm2(u))
    return u


def glhf_step(f: SphereField, t: float, cfg: SolverConfig,
              sched: PenaltySchedule) -> SphereField:
    """One split step of the penalized flow at time t, in a new field."""
    return _public_step(f, t, cfg, sched)


def projected_flow_step(f: SphereField, t: float, cfg: SolverConfig) -> SphereField:
    """Diffusion substep followed by exact normalization, in a new field."""
    return _public_step(f, t, cfg, None)


# -- runs --------------------------------------------------------------------

def _record(step: int, t: float, u: SphereField, w: np.ndarray, lam_eff: float,
            pen_incr: float, mx: float) -> StepRecord:
    """The scalar record of ``u``; ``w`` is |u|^2 of its interior rows."""
    dir_e = dirichlet_energy(u)
    pen_e = float(lam_eff * np.sum((w - 1.0) ** 2) * u.grid.cell_volume / 4.0)
    return StepRecord(step=step, t=t, gl_energy=0.5 * dir_e + pen_e,
                      dirichlet_energy=dir_e, penalty_increment=pen_incr,
                      max_norm=mx)


def _run(u0: SphereField, cfg: SolverConfig, sched: Optional[PenaltySchedule],
         mode: str) -> Trajectory:
    cfg.validate(u0.grid)
    n_steps = int(math.ceil(cfg.T / cfg.dt - 1e-9))
    u = u0.copy()
    bnd2 = _boundary_norm2(u)
    w = _norm2(np.take(u.flat(), u.grid.interior_flat, axis=0))
    records = [_record(0, 0.0, u, w, sched.strength(0.0) if sched else 0.0,
                       0.0, _sup_norm(w, bnd2))]
    times = [0.0]
    snapshots = [u.copy()]
    for k in range(n_steps):
        w, pen_incr, lam_eff, mx = _step(u, k * cfg.dt, cfg, sched, bnd2)
        t_next = (k + 1) * cfg.dt
        records.append(_record(k + 1, t_next, u, w, lam_eff, pen_incr, mx))
        if (k + 1) % cfg.output_stride == 0 or k + 1 == n_steps:
            times.append(t_next)
            snapshots.append(u.copy())

    return Trajectory(grid=u0.grid, target_dim=u0.target_dim, times=times,
                      snapshots=snapshots, records=records, mode=mode,
                      lam=sched.lam if sched else None, dt=cfg.dt)


def run_glhf(u0: SphereField, cfg: SolverConfig, sched: PenaltySchedule) -> Trajectory:
    mode = "glhf-original" if sched.use_original_form else "glhf-simplified"
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
