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

Data path of one step.  A run carries one (n_interior, D+1) array,
``rows``, the field's interior rows, overwritten in place by each step.
``_step`` makes one pass over the groups of ``Grid.neighbour_blocks``
(``Grid.row_groups``: at most ``geometry.BLOCK_NODES`` interior rows),
reading the field, still the state stepped from, and does a group's work
while its neighbour sums N are in cache: the record's sum of
u.(2d u - N), the diffusion ``x *= c; x += mu N`` (the bits of
c u + mu N), the norm reaction or normalization, and the new rows'
squared norm defects and largest |u|^2.  The record's sums are added in
group order, so a one-group run has the bits of the whole-array sums and
a longer one differs in the last digits; the sup-norm guard is exact.
The new rows are then scattered into the field (``put_rows``), and the
guard takes the boundary maximum, fixed since no step writes a boundary
row.  The Dirichlet record is completed by summation by parts over the
interior-boundary links, read before the scatter; the last state's
record takes one more pass of neighbour sums.  Every |u|^2 is
``geometry.rowsq`` and every per-row division ``geometry.scale_rows``, so
the guard, ``SphereField.max_norm`` and the records share one definition.
Nothing in a step writes a lattice-sized array but the field.

Buffers.  ``_run`` takes ``u0``'s interior and boundary rows once
(``interior_rows``, ``boundary_rows``: no lattice rebuilt for a
``field.KeptSnapshot``, the command line's initial field) and builds its
own field from them (``field.lattice_values``, exterior rows zero);
``_step`` mutates that field in place, the only lattice of a command-line
run's state.  The rows are copies, so no step writes ``u0``, unless the
caller hands them over (``handover=True``, ``KeptSnapshot.hand_over``):
then ``u0``'s interior rows are the array stepped in place and ``u0``
holds no rows afterwards.  At each snapshot step the trajectory takes a
snapshot.  Without a store it is a ``field.KeptSnapshot``: a copy of ``rows`` and the one boundary-row array
taken at the start, shared by every kept snapshot since no step writes a
boundary row, so a store-less run's heap grows by one interior-row array
per snapshot.  The last snapshot is the field itself, which no step
writes again.  With a store the trajectory holds what
``store.take(u, rows)`` returns: an ``io.SnapshotStore`` writes ``rows``
to the snapshot's file and returns a kept snapshot whose rows are a
read-only map of it, so neither the heap nor, since each read drops the
map's pages, the resident set grows with the snapshot count.  No later
step writes a returned snapshot.  A store may instead consume each
snapshot as it is taken and return a view of the field: a sweep case's
store (``cli._CaseStream``) feeds snapshot k to its window sums at
capture, so the case holds no snapshot and every entry of its trajectory
is a view of the final field.  The projected reference such a case is
compared with runs through a ``SnapshotStore`` whose files are removed as
soon as the run returns (``cli._reference``): its maps stay readable and
no snapshot is on the heap.
Beyond the field, ``rows`` and the snapshots a run holds the boundary
links and one group's scratch (``_buffers``), allocated once: the group's
neighbour sums, its |u|^2, and a block scratch of ``Grid.block_rows()``
rows, which between the iterator's yields holds 2d u - N and the squared
norm defects.  ``glhf_step`` and ``projected_flow_step`` copy their
input, gather its rows once and step them as a run does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .errors import CFLViolated, NearZeroVector, NormBlowup
# the benchmark tracer wraps the module bindings flow.dirichlet_energy (the
# reference the records agree with) and flow.project_to_sphere, so both
# stay imported here
from .field import (NORM_FLOOR, KeptSnapshot, SphereField, dirichlet_energy,
                    lattice_values, project_to_sphere)
from .geometry import INTERIOR, Grid, put_rows, rowsq, scale_rows


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
        its record, the snapshot index and the penalty density all use it."""
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
    with a store holds what the store returns, kept snapshots of mapped
    rows from a ``io.SnapshotStore`` (see "Buffers" in the module
    docstring).  The only derived data it holds is the density
    cache of ``diagnostics.energy_density``, which ``dataclasses.replace``
    starts empty."""

    grid: Grid
    times: list                     # snapshot times
    snapshots: list                 # SphereField per recorded time
    records: list                   # StepRecord per step (including step 0)
    lam: Optional[float]            # None: projected or static
    dt: float
    # (k, mode) -> density, filled by diagnostics.energy_density
    _density_cache: dict = dfield(default_factory=dict, init=False, repr=False)

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


# -- the step ----------------------------------------------------------------

_PAGE = 4096 // 8      # float64s in a 4 KiB page


class _Scratch(NamedTuple):
    """What a run's steps write besides its rows and field: a group's worth
    (see "Buffers" in the module docstring)."""

    nb: np.ndarray      # the group's neighbour sums N, then mu N
    w: np.ndarray       # the group's |u|^2, then the reaction's divisor
    block: np.ndarray   # the stencil's block scratch; between yields 2d u - N
    sq: np.ndarray      # the squared norm defects, in the block scratch's memory


def _aligned(*sizes) -> list:
    """Float64 arrays of the given sizes, views of one allocation, each
    starting on a 4 KiB page of its own."""
    spans = [-(-size // _PAGE) * _PAGE for size in sizes]
    raw = np.empty(sum(spans) + _PAGE)
    at = -(raw.ctypes.data // raw.itemsize) % _PAGE       # the first page boundary
    views = []
    for size, span in zip(sizes, spans):
        views.append(raw[at:at + size])
        at += span
    return views


def _buffers(g: Grid, m: int) -> _Scratch:
    """The ``_Scratch`` of steps of rows of ``m`` components on ``g``, each
    array starting on a page of its own: their placement in the heap moved
    the step's time by up to 8%.  The neighbour sums are an allocation of
    their own: with the rest, a public step took 50% more page faults."""
    n = g.group_rows()
    (nb,), (w, block) = _aligned(n * m), _aligned(n, g.block_rows() * m)
    return _Scratch(nb.reshape(n, m), w, block.reshape(-1, m), block[:n])


def _boundary_norm2(u: SphereField) -> float:
    """Largest |u|^2 over the boundary rows, which no step changes."""
    b = np.take(u.flat(), u.grid.boundary_flat, axis=0)
    return rowsq(b, scratch=b).max(initial=0.0)


def _norm_sums(x: np.ndarray, buf: _Scratch) -> tuple:
    """|u|^2 of the rows ``x`` of a group into ``buf.w``; their sum of
    (|u|^2 - 1)^2 and their largest |u|^2 (NaN if one is)."""
    n = len(x)
    w = rowsq(x, scratch=buf.block[:n], out=buf.w[:n])
    sq = np.subtract(w, 1.0, out=buf.sq[:n])
    sq *= sq
    return np.sum(sq), w.max()


def _inner_sum(x: np.ndarray, nb: np.ndarray, tmp: np.ndarray, two_d: float) -> float:
    """sum_i u_i.(2d u_i - N_i) over the rows ``x`` of a group and their
    neighbour sums ``nb``, with 2d u - N formed in ``tmp``."""
    lap = np.multiply(x, two_d, out=tmp)
    lap -= nb
    return float(np.einsum("ij,ij->", x, lap))


class _Stepped(NamedTuple):
    """What a step returns for the records; its sums over rows are added
    group by group, in group order, from -0.0."""

    inner: float        # sum_i u_i.(2d u_i - N_i) of the state stepped from
    pen_incr: float     # the step's penalty increment
    lam_eff: float      # the strength used
    defects: float      # sum (|u|^2 - 1)^2 of the new state
    max_norm: float     # the new state's sup-norm


def _step(u: SphereField, rows: np.ndarray, buf: _Scratch, t: float, cfg: SolverConfig,
          sched: Optional[PenaltySchedule], bnd2: float) -> _Stepped:
    """The one split step at time t: diffusion, then the norm reaction, in
    one pass over the groups of ``Grid.neighbour_blocks`` (see "Data path
    of one step" in the module docstring).  ``rows``, the interior rows of
    ``u``, are stepped in place, and scattered into ``u`` after the pass.
    ``sched is None`` is the projected flow: exact normalization, and
    NearZeroVector naming the first five flat indices of rows of norm below
    ``field.NORM_FLOOR``, raised before the scatter.  ``bnd2`` is
    ``_boundary_norm2(u)``.
    """
    g = u.grid
    idx = g.interior_flat
    mu = cfg.dt / g.h ** 2
    c, two_d = 1.0 - 2.0 * g.d * mu, 2.0 * g.d
    if sched is None:
        lam_eff, zero = 0.0, []
    else:
        lam_eff = sched.strength(t)
        # w1 = w0 / (e + (1 - e) w0), so the rows scale by sqrt(w1 / w0);
        # the clamp keeps the root positive when exp underflows, so a zero
        # row stays 0
        e = max(math.exp(-2.0 * lam_eff * cfg.dt), np.finfo(float).tiny)
    inner = increment = defects = -0.0
    top = bnd2
    for k0, k1 in g.neighbour_blocks(u.flat(), buf.nb, buf.block):
        # the diffusion is c u + mu N (mu = dt / h^2, c = 1 - 2d mu), into
        # the group's own rows; w0, |u|^2 after it and then the divisor of
        # the rows, takes the group's part of buf.w until its new |u|^2 does
        n = k1 - k0
        x, v, w0, tmp = rows[k0:k1], buf.nb[:n], buf.w[:n], buf.block[:n]
        inner += _inner_sum(x, v, tmp, two_d)
        x *= c
        v *= mu
        x += v
        rowsq(x, scratch=tmp, out=w0)
        if sched is None:
            np.sqrt(w0, out=w0)
            bad = np.flatnonzero(w0 < NORM_FLOOR)
            if bad.size:
                zero.append(bad + k0)
                continue
        else:
            # left-endpoint rectangle rule on the penalty subflow: the
            # integrand is sampled on the state entering the substep
            sq = np.subtract(w0, 1.0, out=buf.sq[:n])
            sq *= sq
            increment += np.sum(sq)
            w0 *= 1.0 - e
            w0 += e
            np.sqrt(w0, out=w0)
        scale_rows(x, w0)
        group_defects, most = _norm_sums(x, buf)
        defects += group_defects
        top = np.maximum(top, most)
    if sched is None:
        if zero:
            raise NearZeroVector("cannot project node(s) at flat index "
                                 f"{idx[np.concatenate(zero)[:5]].tolist()}")
        pen_incr = 0.0
    else:
        pen_incr = float(cfg.dt * lam_eff * increment * g.cell_volume)
    put_rows(u.flat(), idx, rows)
    mx = float(np.sqrt(top))
    if not mx <= 1.0 + 1e-7:
        raise NormBlowup(f"max node norm {mx} exceeds 1 + 1e-7 at t = {t}")
    return _Stepped(inner, pen_incr, lam_eff, defects, mx)


def _public_step(f: SphereField, t: float, cfg: SolverConfig,
                 sched: Optional[PenaltySchedule]) -> SphereField:
    cfg.validate(f.grid)
    u = f.copy()
    rows = np.take(u.flat(), u.grid.interior_flat, axis=0)
    _step(u, rows, _buffers(u.grid, u.ncomp), t, cfg, sched, _boundary_norm2(u))
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
    flat indices, and the values at their boundary ends, one row per link:
    per axis and side, the links whose boundary end is on that side, in
    flat order, found from the boundary nodes, so no array is interior-sized."""
    g = u.grid
    bnd = g.boundary_flat
    cls = g.class_flat()
    ends, bnds = [], []
    for s in g.strides():
        for side in (-s, s):
            i = bnd - side
            on = cls[i] == INTERIOR
            ends.append(i[on])
            bnds.append(bnd[on])
    return np.concatenate(ends), np.take(u.flat(), np.concatenate(bnds), axis=0)


def _boundary_sum(u: SphereField, links: tuple) -> float:
    """sum_(i,b) (u_b - u_i).u_b over the interior-boundary links (i, b) of
    ``links = _boundary_links(u)``, with u_i read from the field."""
    ends, ub = links
    du = np.take(u.flat(), ends, axis=0)
    np.subtract(ub, du, out=du)
    return float(np.einsum("ij,ij->", du, ub))


def _dirichlet(g: Grid, inner: float, outer: float) -> float:
    """The Dirichlet energy of a state by summation by parts,

        h^(d-2) [ sum_i u_i.(2d u_i - N_i) + sum_(i,b) (u_b - u_i).u_b ]

    over interior nodes i and interior-boundary links (i, b), from the
    first sum, ``inner`` (``_Stepped.inner`` of the step from the state),
    and the second, ``outer`` (``_boundary_sum``).  The first sum counts
    each interior-interior link from both ends and each interior-boundary
    link from its interior end; the second completes the latter.  The
    difference 2d u_i - N_i is taken per component, before any product, and
    the boundary term is kept per link: both keep the sum within ~1e-14 of
    the link sum, where expanding the products cancels digits.
    """
    return (inner + outer) * g.h ** (g.d - 2)


def _penalty_energy(lam_eff: float, defects: float, g: Grid) -> float:
    """Lam/4 sum (|u|^2 - 1)^2 h^d of a state whose sum of squared norm
    defects is ``defects``."""
    return float(lam_eff * defects * g.cell_volume / 4.0)


def _record(step: int, t: float, pen_e: float, pen_incr: float, mx: float,
            dir_e: float) -> StepRecord:
    return StepRecord(step=step, t=t, gl_energy=0.5 * dir_e + pen_e,
                      dirichlet_energy=dir_e, penalty_increment=pen_incr,
                      max_norm=mx)


def _run(u0: SphereField, cfg: SolverConfig, sched: Optional[PenaltySchedule],
         store=None, handover: bool = False) -> Trajectory:
    cfg.validate(u0.grid)
    n_steps, take = cfg.n_steps(), set(cfg.snapshot_steps())
    g = u0.grid
    rows, bnd = u0.hand_over() if handover else (u0.interior_rows(), u0.boundary_rows())
    u = SphereField(g, lattice_values(g, rows, bnd))     # exterior rows zero

    def keep(last: bool) -> SphereField:
        if store is not None:
            return store.take(u, rows)
        return u if last else KeptSnapshot(g, rows.copy(), bnd)

    bnd2 = _boundary_norm2(u)
    links = _boundary_links(u)
    buf = _buffers(g, u.ncomp)
    defects, top = -0.0, bnd2
    for k0, k1 in g.row_groups():
        group_defects, most = _norm_sums(rows[k0:k1], buf)
        defects += group_defects
        top = np.maximum(top, most)
    # a state's record but its Dirichlet energy, which the neighbour sums of
    # the step from it give
    part = partial(_record, 0, 0.0,
                   _penalty_energy(sched.strength(0.0) if sched else 0.0, defects, g),
                   0.0, float(np.sqrt(top)))
    records, snapshots = [], [keep(False)]
    for k in range(n_steps):
        outer = _boundary_sum(u, links)             # before the step scatters its rows
        s = _step(u, rows, buf, k * cfg.dt, cfg, sched, bnd2)
        records.append(part(_dirichlet(g, s.inner, outer)))
        part = partial(_record, k + 1, (k + 1) * cfg.dt,
                       _penalty_energy(s.lam_eff, s.defects, g), s.pen_incr, s.max_norm)
        if k + 1 in take:
            snapshots.append(keep(k + 1 == n_steps))
    # the last state's first sum, from one more pass of neighbour sums
    inner = -0.0
    for k0, k1 in g.neighbour_blocks(u.flat(), buf.nb, buf.block):
        n = k1 - k0
        inner += _inner_sum(rows[k0:k1], buf.nb[:n], buf.block[:n], 2.0 * g.d)
    records.append(part(_dirichlet(g, inner, _boundary_sum(u, links))))
    return Trajectory(grid=u0.grid, times=cfg.snapshot_times(),
                      snapshots=snapshots, records=records,
                      lam=sched.lam if sched else None, dt=cfg.dt)


def run_glhf(u0: SphereField, cfg: SolverConfig, sched: PenaltySchedule,
             store=None, handover: bool = False) -> Trajectory:
    """Run the penalized flow.  Each snapshot is ``store.take(u, rows)`` of
    the flow's field ``u`` and its interior rows ``rows`` (the run's own
    array, which the next step overwrites), called as the flow reaches it
    (see "Buffers" in the module docstring), or a ``field.KeptSnapshot``
    without a store.  With ``handover`` the caller hands ``u0``, a
    ``field.KeptSnapshot``, over to the run, which steps its rows in place
    (``KeptSnapshot.hand_over``)."""
    return _run(u0, cfg, sched, store, handover)


def run_projected(u0: SphereField, cfg: SolverConfig, store=None,
                  handover: bool = False) -> Trajectory:
    """Run the projected flow; ``store`` and ``handover`` as in
    ``run_glhf``."""
    return _run(u0, cfg, None, store, handover)


def penalty_integral(traj: Trajectory) -> float:
    """Accumulated penalty dissipation integral of a run: the sum of its
    per-step records (0 for a static trajectory, whose records hold 0)."""
    return float(sum(r.penalty_increment for r in traj.records))


def trajectory_l2q_distance(a: Trajectory, b: Trajectory) -> float:
    """Space-time L^2 distance between two runs on matching snapshot
    times."""
    if len(a.times) != len(b.times) or any(
            abs(s - t) > 1e-12 for s, t in zip(a.times, b.times)):
        raise ValueError("trajectories must share snapshot times")
    from .diagnostics import window_integral    # diagnostics imports this module
    from .field import l2_distance

    def dist2(k: int) -> float:
        return l2_distance(a.snapshots[k], b.snapshots[k]) ** 2

    return math.sqrt(window_integral(a, a.times[0], a.t_final, dist2))
