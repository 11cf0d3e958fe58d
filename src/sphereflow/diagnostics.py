"""Weighted-energy diagnostics: Gaussian-weighted monotonicity quantities,
the boundary decay criterion, and comparison ratios against the harmonic
extension.

All spacetime integrals use a left-endpoint rectangle rule in time with
window clipping and h^d node weights in space.  A node density holds one
value per interior node, in ``grid.interior_flat`` order, and a ball of
nodes is positions into it (``Grid.nodes_within``).  ``energy_density``
is the one way to a density: a whole density is cached on the trajectory
by snapshot and mode, and a ball slices a cached density or computes its
own nodes only, caching nothing.

Every time integral over a run's snapshots is a ``WindowSum``, and every
window sum is fed by one pass over the snapshots in time order
(``feed``): at snapshot k each sum whose window holds k reads it, those
that read whole densities first, so that k's densities are computed once
and the ball-local sums slice them.  A diagnostic is a ``Reading``, the
sums it needs and its value from them, so that several diagnostics can
share one pass (``evaluate``); a pass told not to keep drops k's
densities once k's sums are fed.  Fit constants are searched on declared
finite grids; reports expose the fitted pair and the residual defect
instead of asserting universal constants.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .elliptic import HarmonicExtension
from .errors import (EmptyIntersection, KernelUnderresolved, TimeNotBeforeCenter,
                     WindowOutsideTrajectory)
from .field import SphereField, _check_same, gradient_squared_density, release_pages
from .flow import Trajectory
from .geometry import BoundaryFrame, Grid, boundary_frame, rowsq, scale_rows

# the grids monotonicity_report fits (mu0, C) over, its R samples of the
# speed term, and the rectangles of main2_lhs's time integral
MU_GRID = tuple(round(0.1 * k, 1) for k in range(1, 11))
C_GRID = tuple(np.logspace(-3.0, 3.0, 25))
N_R_SAMPLES = 9
MAIN2_TIME_STEPS = 64


@dataclass
class CylinderSpec:
    """Parabolic cylinder: time extent R^2 both ways, space radius R."""

    t0: float
    x0: np.ndarray
    R: float

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.R <= 0:
            raise ValueError("cylinder radius must be positive")

    def window(self) -> tuple[float, float]:
        """The time window [t0 - R^2, t0 + R^2) of the cylinder."""
        return cylinder_window(self.t0, self.R)


@dataclass
class EnergyReport:
    gl_energy: float
    dirichlet_part: float
    penalty_part: float
    density: np.ndarray          # one value per interior node

    def to_json(self) -> dict:
        return {"gl_energy": self.gl_energy,
                "dirichlet_part": self.dirichlet_part,
                "penalty_part": self.penalty_part}


@dataclass
class MonotonicityReport:
    r1: float
    r2: float
    annulus_energy_inner: float
    speed_term: float
    outer_energy: float
    linear_remainder: float      # R2 - R1, before the fitted constant
    mu0: float
    c: float
    defect: float
    rhs_form: str
    mode: str

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in
                ("r1", "r2", "annulus_energy_inner", "speed_term", "outer_energy",
                 "linear_remainder", "mu0", "c", "defect", "rhs_form", "mode")}


# -- kernels and weights ----------------------------------------------------

def backward_heat_kernel(z0, t, x) -> np.ndarray:
    """Backward Gaussian weight centered at a future spacetime point.

    G(t, x) = (4 pi (t0 - t))^(-d/2) exp(-|x - x0|^2 / (4 (t0 - t))).
    """
    t0, x0 = float(z0[0]), np.asarray(z0[1], dtype=float)
    if t >= t0:
        raise TimeNotBeforeCenter(f"kernel needs t < t0, got t = {t}, t0 = {t0}")
    tau = t0 - t
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = x.shape[1]
    diff = x - x0
    r2 = rowsq(diff, scratch=diff)
    vals = (4.0 * math.pi * tau) ** (-d / 2.0) * np.exp(-r2 / (4.0 * tau))
    return vals if vals.size > 1 else float(vals[0])


def weight_d(x0, x, d0: float):
    """Quadratic confinement weight 1 + |x - x0|^2 / d0^2, range [1, 2] on the domain."""
    if d0 <= 0:
        raise ValueError("diameter must be positive")
    x0 = np.asarray(x0, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return float(1.0 + np.sum((x - x0) ** 2) / d0 ** 2)
    diff = x - x0
    return 1.0 + rowsq(diff, scratch=diff) / d0 ** 2


# -- densities ---------------------------------------------------------------

def _penalty_density(traj: Trajectory, k: int, nodes=None) -> np.ndarray:
    """Lam (|u|^2 - 1)^2 / 4 of snapshot k at the interior nodes, or at the
    positions ``nodes`` into ``interior_flat``, with the strength of the
    run's schedule at t_k (0 without a schedule)."""
    rows = traj.snapshots[k].interior_rows(nodes)
    w = rowsq(rows, scratch=rows)
    sched = traj.schedule
    return (sched.strength(traj.times[k]) if sched else 0.0) * (w - 1.0) ** 2 / 4.0


def _cache_key(traj: Trajectory, k: int) -> int:
    """The entry of the density cache snapshot k shares: 0 when it is
    snapshot 0 and the run has no schedule, so that its densities depend
    on the field alone (every snapshot of an unedited static trajectory);
    k otherwise."""
    return 0 if traj.lam is None and traj.snapshots[k] is traj.snapshots[0] else k


def energy_density(traj: Trajectory, k: int, mode: str = "gl",
                   nodes=None) -> np.ndarray:
    """Density of snapshot k at the interior nodes, or at the positions
    ``nodes`` into ``interior_flat``: gl density or plain |grad u|^2.

    gl mode:       |grad u|^2 / 2 + Lam (|u|^2 - 1)^2 / 4,
    gradient mode: |grad u|^2.
    The whole density is cached on the trajectory per (``_cache_key``,
    mode) (the strength is fixed by k), and the gl density is built from
    the cached gradient one.  At ``nodes`` a cached density is sliced;
    otherwise only those nodes are computed, bit for bit the slice, and
    nothing is cached.  A density that reads the snapshot releases its
    pages (``field.release_pages``) when done.  The cache keeps what it
    holds until ``drop_densities`` drops it, which a pass that does not
    keep (``feed``) does after each snapshot.
    """
    if mode not in ("gl", "gradient"):
        raise ValueError(f"unknown density mode {mode!r}")
    cache = traj._density_cache
    k = _cache_key(traj, k)
    if (k, mode) in cache:
        return cache[k, mode] if nodes is None else cache[k, mode][nodes]
    if (k, "gradient") in cache:
        grad = cache[k, "gradient"] if nodes is None else cache[k, "gradient"][nodes]
    else:
        grad = gradient_squared_density(traj.snapshots[k], nodes)
    dens = grad if mode == "gradient" else 0.5 * grad + _penalty_density(traj, k, nodes)
    if nodes is None:
        cache[k, "gradient"] = grad
        cache[k, mode] = dens
    release_pages(traj.snapshots[k])
    return dens


def energy_report(traj: Trajectory, k: int) -> EnergyReport:
    """Snapshot-level energy decomposition with its node density.  One read
    of the snapshot gives the gradient density (unless cached) and the
    penalty density; the gl density is built from the two as
    ``energy_density`` builds it, and both densities are cached as it
    caches them."""
    cache = traj._density_cache
    key = _cache_key(traj, k)
    if (key, "gradient") not in cache:
        cache[key, "gradient"] = gradient_squared_density(traj.snapshots[k])
    grad2 = cache[key, "gradient"]
    penalty = _penalty_density(traj, k)
    density = cache.setdefault((key, "gl"), 0.5 * grad2 + penalty)
    release_pages(traj.snapshots[k])
    vol = traj.grid.cell_volume
    return EnergyReport(gl_energy=float(density.sum() * vol),
                        dirichlet_part=float(0.5 * grad2.sum() * vol),
                        penalty_part=float(penalty.sum() * vol),
                        density=density)


def window_weights(times, a: float, b: float) -> np.ndarray:
    """Left-endpoint rectangle weights of snapshot times clipped to [a, b)."""
    ts = np.asarray(times)
    nxt = np.append(ts[1:], ts[-1])
    return np.clip(np.minimum(nxt, b) - np.maximum(ts, a), 0.0, None)


def window_snapshots(traj: Trajectory, a: float, b: float):
    """Indices and left-endpoint rectangle weights of the snapshots whose
    subintervals meet the window [a, b); EmptyIntersection if none does."""
    w = window_weights(traj.times, a, b)
    ks = np.flatnonzero(w > 0)
    if ks.size == 0:
        raise EmptyIntersection(f"no snapshot inside the window [{a:g}, {b:g})")
    return ks, w[ks]


def drop_densities(traj: Trajectory, k: int) -> None:
    """Drop the densities of snapshot k from the trajectory's cache."""
    key = _cache_key(traj, k)
    for mode in ("gradient", "gl"):
        traj._density_cache.pop((key, mode), None)


class WindowSum:
    """The time integral over [a, b) of a per-snapshot quantity: the
    rectangle sum  sum_k w_k term(k)  over the snapshots of the window
    (``window_snapshots``), accumulated from 0 as acc = acc + w_k term(k)
    while a pass (``feed``) feeds it its snapshots in k order.

    The one time quadrature behind every spacetime integral over a run's
    snapshots.  ``term(k)`` returns a number or an array: a density, or
    its values on the cylinder's nodes.  A kernel in a time-varying
    integrand is sampled at the left edge max(t_k, a) of the clipped
    subinterval, not at the snapshot time.  ``whole`` says that ``term``
    reads whole densities; ``on_last``, if given, maps the sum, once its
    last term is in, to the value it keeps.
    """

    def __init__(self, traj: Trajectory, a: float, b: float, term, whole: bool = False,
                 on_last=None):
        ks, self.w = window_snapshots(traj, a, b)
        # the snapshots whose subintervals meet a window are consecutive
        self.ks = range(int(ks[0]), int(ks[-1]) + 1)
        self.term, self.whole, self.on_last = term, whole, on_last
        self.value = 0
        self._n = 0

    def feed(self, k: int) -> None:
        self.value = self.value + self.w[self._n] * self.term(k)
        self._n += 1
        if self._n == self.w.size and self.on_last is not None:
            self.value = self.on_last(self.value)


def feed(traj: Trajectory, sums, keep: bool = True) -> None:
    """One pass over the snapshots in time order: at snapshot k, every
    window sum whose window holds k is fed k, those that read whole
    densities first, so that k's whole densities are computed once
    (``energy_density`` caches them) and the ball-local sums slice them.
    Unless ``keep``, k's densities are dropped once its sums are fed, so
    the cache holds one snapshot's densities at a time."""
    at = {}
    for s in sorted(sums, key=lambda s: not s.whole):
        for k in s.ks:
            at.setdefault(k, []).append(s)
    for k in sorted(at):
        for s in at[k]:
            s.feed(k)
        if not keep:
            drop_densities(traj, k)


class Reading(NamedTuple):
    """A diagnostic as a pass evaluates it: the window sums it reads, and
    ``finish()``, its value once they are fed."""

    sums: list
    finish: Callable[[], object]


def evaluate(traj: Trajectory, readings, keep: bool = True) -> list:
    """The values of ``readings``, in order, from one pass over the
    snapshots that feeds all their sums (``feed``)."""
    feed(traj, [s for r in readings for s in r.sums], keep)
    return [r.finish() for r in readings]


def window_integral(traj: Trajectory, a: float, b: float, per_snapshot):
    """Time integral over [a, b) of a per-snapshot quantity: a
    ``WindowSum`` of ``per_snapshot`` fed by a pass of its own."""
    acc = WindowSum(traj, a, b, per_snapshot)
    feed(traj, [acc])
    return acc.value


def cylinder_window(t0: float, R: float) -> tuple[float, float]:
    """The time window [t0 - R^2, t0 + R^2) of the cylinder of radius R."""
    return t0 - R ** 2, t0 + R ** 2


def annulus_window(t0: float, R: float) -> tuple[float, float]:
    """The time window [t0 - 4R^2, t0 - R^2) of the annulus of radius R."""
    return t0 - 4.0 * R * R, t0 - R * R


def _annulus_sum(traj: Trajectory, z0, R: float, mode: str) -> WindowSum:
    """The window sum of ``weighted_annulus_energy``."""
    g = traj.grid
    a, b = annulus_window(float(z0[0]), R)
    if a < -1e-12:
        raise WindowOutsideTrajectory("window starts before t = 0")
    if R < 2.0 * g.h:
        warnings.warn("Gaussian weight narrower than 4 cells; values are "
                      "quadrature-limited", KernelUnderresolved)

    def weighted(k):
        gvals = backward_heat_kernel(z0, max(traj.times[k], a), g.interior_coords)
        return float(np.sum(energy_density(traj, k, mode) * gvals) * g.cell_volume)

    try:
        return WindowSum(traj, a, b, weighted, whole=True)
    except EmptyIntersection as e:
        raise WindowOutsideTrajectory(
            f"no snapshots inside window ({a:g}, {b:g})") from e


def weighted_annulus_energy(traj: Trajectory, z0, R: float, mode: str = "gl") -> float:
    """Gaussian-weighted energy over the annular time window (t0-4R^2, t0-R^2)."""
    acc = _annulus_sum(traj, z0, R, mode)
    feed(traj, [acc])
    return acc.value


# -- monotonicity ------------------------------------------------------------

def _speed_density(traj: Trajectory, z0) -> Callable[[int], float]:
    """k -> spatial integral of |du/dt - (x-x0)/(2 sqrt(t0-t)) . grad u|^2 G at t_k.

    What does not depend on k (x - x0 per axis, the gather indices) is
    computed once; every call gathers into the same four row buffers and
    updates them in place, and releases the pages of the two snapshots it
    read.  Snapshot k + 1 gives its interior rows only
    (``SphereField.interior_rows``), so a kept snapshot is rebuilt once, as
    snapshot k.
    """
    g = traj.grid
    t0, x0 = float(z0[0]), np.asarray(z0[1], dtype=float)
    idx = g.interior_flat
    coords = g.interior_coords
    # a_flat[idx + s] and a_flat[idx - s], both gathered at idx - s
    axes = [(idx - s, 2 * s, coords[:, a] - x0[a])
            for a, s in enumerate(g.strides())]
    rows = np.empty((4, idx.size, traj.snapshots[0].ncomp))

    def at(k: int) -> float:
        diff, radial, deriv, buf = rows
        t = traj.times[k]
        a_flat = traj.snapshots[k].flat()
        traj.snapshots[k + 1].interior_rows(out=diff)
        diff -= np.take(a_flat, idx, axis=0, out=buf)
        diff /= traj.times[k + 1] - t                   # du/dt
        radial.fill(0.0)
        for lo, span, rel in axes:
            np.take(a_flat[span:], lo, axis=0, out=deriv)
            deriv -= np.take(a_flat, lo, axis=0, out=buf)
            deriv /= 2.0 * g.h
            scale_rows(deriv, rel, np.multiply)
            radial += deriv
        radial /= 2.0 * math.sqrt(t0 - t)
        diff -= radial
        release_pages(traj.snapshots[k])
        release_pages(traj.snapshots[k + 1])
        vals = rowsq(diff, scratch=buf)
        vals *= backward_heat_kernel(z0, t, coords)
        return float(np.sum(vals) * g.cell_volume)

    return at


def _speed_values(traj: Trajectory, z0) -> Callable[[int], float]:
    """``_speed_density(traj, z0)`` with its values kept on the trajectory
    per centre (``Trajectory._speed_cache``), so the reports of every pair
    of one centre evaluate each snapshot once."""
    t0, x0 = float(z0[0]), np.asarray(z0[1], dtype=float)
    vals = traj._speed_cache.setdefault((t0, tuple(x0.tolist())), {})
    at = _speed_density(traj, (t0, x0))

    def speed_at(k: int) -> float:
        if k not in vals:
            vals[k] = at(k)
        return vals[k]

    return speed_at


def _annulus_key(z0, R: float, mode: str) -> tuple:
    return float(z0[0]), tuple(np.asarray(z0[1], dtype=float).tolist()), R, mode


def _annulus_value(traj: Trajectory, z0, R: float, mode: str) -> float:
    """``weighted_annulus_energy(traj, z0, R, mode)``, kept on the trajectory
    per (centre, R, mode) (``Trajectory._annulus_cache``), so the pairs of
    one centre that share a radius evaluate it once."""
    key = _annulus_key(z0, R, mode)
    if key not in traj._annulus_cache:
        traj._annulus_cache[key] = weighted_annulus_energy(traj, z0, R, mode)
    return traj._annulus_cache[key]


def annulus_reading(traj: Trajectory, z0, radii, mode: str) -> Reading:
    """The annulus energies of centre z0 at ``radii`` that ``_annulus_value``
    has not kept yet, as a ``Reading`` that keeps them once fed: the
    monotonicity reports of that centre then read no density."""
    kept = traj._annulus_cache
    todo = {}
    for R in radii:
        key = _annulus_key(z0, R, mode)
        if key not in kept and key not in todo:
            todo[key] = _annulus_sum(traj, z0, R, mode)

    def finish():
        for key, acc in todo.items():
            kept[key] = acc.value

    return Reading(list(todo.values()), finish)


def check_monotonicity_args(t0: float, R1: float, R2: float,
                            mode: str = "gradient", rhs_form: str = "difference"):
    """Raise ValueError unless ``monotonicity_report`` accepts these values."""
    if not (0 < R1 <= R2):
        raise ValueError("need 0 < R1 <= R2")
    if not (t0 > 0 and R2 < math.sqrt(t0) / 2.0):
        raise ValueError("need R2 < sqrt(t0)/2 so the outer window starts after 0")
    if mode not in ("gl", "gradient"):
        raise ValueError(f"unknown density mode {mode!r}")
    if rhs_form not in ("difference", "exponential"):
        raise ValueError(f"unknown rhs form {rhs_form!r}")


def monotonicity_report(traj: Trajectory, z0, R1: float, R2: float,
                        mode: str = "gradient",
                        rhs_form: str = "difference") -> MonotonicityReport:
    """Evaluate both sides of the annulus monotonicity inequality and fit
    constants (mu0, C) minimizing the defect over the module grids MU_GRID
    (0.1..1.0) and C_GRID (25 values log-spaced in 1e-3..1e3).  The speed
    term is a trapezoid in R over N_R_SAMPLES = 9 radii in [R1, R2].

    rhs_form "difference" uses C (R2^mu - R1^mu); "exponential" uses
    C exp(R2^mu - R1^mu).
    """
    t0 = float(z0[0])
    check_monotonicity_args(t0, R1, R2, mode, rhs_form)

    inner = _annulus_value(traj, z0, R1, mode)
    outer = _annulus_value(traj, z0, R2, mode)

    # the speed integrand is R-independent: each snapshot's value is computed
    # once and shared by all R windows and all pairs of the centre z0 (none is
    # empty, since each reaches back past the inner annulus window; the last
    # snapshot never has weight), then the R integral is a trapezoid
    speed_at = _speed_values(traj, z0)
    r_samples = np.linspace(R1, R2, N_R_SAMPLES)
    speed_of_R = [window_integral(traj, *annulus_window(t0, R), speed_at)
                  for R in r_samples]
    speed = 2.0 * float(np.trapezoid(speed_of_R, r_samples))

    # the defect of every (mu0, C), mu0-major; the fit is the first smallest
    # (a NaN side gives NaN defects, and the fit reports one)
    phi = np.array([R2 ** mu - R1 ** mu for mu in MU_GRID])
    if rhs_form == "exponential":
        phi = np.array([math.exp(p) for p in phi])
    c = np.array(C_GRID)
    rhs = c * phi[:, None] * outer + c * (R2 - R1)
    defect = np.maximum(0.0, (inner + speed) - rhs)
    i, j = np.unravel_index(np.argmin(defect), defect.shape)

    return MonotonicityReport(r1=R1, r2=R2, annulus_energy_inner=inner,
                              speed_term=speed, outer_energy=outer,
                              linear_remainder=R2 - R1, mu0=MU_GRID[i],
                              c=float(c[j]), defect=float(defect[i, j]),
                              rhs_form=rhs_form, mode=mode)


# -- boundary decay criterion --------------------------------------------------

def _boundary_tangential_grad_sq(u0: SphereField, frame: BoundaryFrame) -> np.ndarray:
    """|tangential grad u0|^2 at boundary nodes, one-sided stencils as needed."""
    g = u0.grid
    flat = u0.flat()
    cls = g.class_flat()
    s = g.strides()
    bidx = g.boundary_flat
    ncomp = u0.ncomp
    grad = np.zeros((bidx.size, g.d, ncomp))
    for a in range(g.d):
        plus = bidx + s[a]
        minus = bidx - s[a]
        ok_p = cls[plus] != 0
        ok_m = cls[minus] != 0
        both = ok_p & ok_m
        grad[both, a] = (flat[plus[both]] - flat[minus[both]]) / (2.0 * g.h)
        only_p = ok_p & ~ok_m
        grad[only_p, a] = (flat[plus[only_p]] - flat[bidx[only_p]]) / g.h
        only_m = ok_m & ~ok_p
        grad[only_m, a] = (flat[bidx[only_m]] - flat[minus[only_m]]) / g.h
    # remove the normal component per target component
    nu = frame.normals
    normal_part = np.einsum("na,nac->nc", nu, grad)
    tang = grad - np.einsum("na,nc->nac", nu, normal_part)
    return np.einsum("nac,nac->n", tang, tang)


def main2_lhs(traj_or_u0, z0, R0: float, mu0: float, c_mu0: float) -> float:
    """Left side of the boundary energy-decay criterion.

    exp((4 R0)^mu0)/R0^2 [ e^{-4(d-2)/d0^2} t0^{-(d-2)/2} * int |grad u0|^2
      + int_0^{t0-R0^2} int_bdry |grad_tau u0|^2 G (d_{x0} + 4(t0-t)/d0^2) ]
      + C(mu0) R0.

    The time integral integrates a closed-form kernel, not snapshots: a
    left-endpoint rule over MAIN2_TIME_STEPS = 64 equal rectangles.  Only
    u0 is read, and its pages are released once read
    (``field.release_pages``).
    """
    u0 = traj_or_u0.snapshots[0] if isinstance(traj_or_u0, Trajectory) else traj_or_u0
    g = u0.grid
    t0, x0 = float(z0[0]), np.asarray(z0[1], dtype=float)
    if R0 >= math.sqrt(t0) / 2.0:
        raise ValueError("need R0 < sqrt(t0)/2")
    d0 = g.domain.diameter
    d = g.d

    from .field import dirichlet_energy
    interior_term = (math.exp(-4.0 * (d - 2) / d0 ** 2) / t0 ** ((d - 2) / 2.0)
                     * dirichlet_energy(u0))

    tg2 = _boundary_tangential_grad_sq(u0, boundary_frame(g))
    release_pages(u0)
    bpts = g.node_coords(g.boundary_flat)
    dw = weight_d(x0, bpts, d0)
    area_w = g.h ** (d - 1)

    t_hi = t0 - R0 * R0
    dt = t_hi / MAIN2_TIME_STEPS
    surf = 0.0
    for j in range(MAIN2_TIME_STEPS):
        t = j * dt
        gvals = backward_heat_kernel(z0, t, bpts)
        surf += dt * float(np.sum(tg2 * gvals * (dw + 4.0 * (t0 - t) / d0 ** 2)) * area_w)

    bracket = interior_term + surf
    return math.exp((4.0 * R0) ** mu0) / R0 ** 2 * bracket + c_mu0 * R0


# -- cylinder integrals and comparison ratios ---------------------------------

def _cylinder_nodes(grid: Grid, cyl: CylinderSpec) -> np.ndarray:
    """Positions in ``grid.interior_flat`` of the nodes in the cylinder's ball."""
    nodes = grid.nodes_within(cyl.x0, cyl.R)
    if nodes.size == 0:
        raise EmptyIntersection("cylinder holds no interior node")
    return nodes


def cylinder_reading(traj: Trajectory, cyl: CylinderSpec, mode: str = "gl") -> Reading:
    """``cylinder_integral`` as a ``Reading``.  Consecutive snapshots that
    share a density cache entry (``_cache_key``) share one ball
    evaluation."""
    nodes = _cylinder_nodes(traj.grid, cyl)
    last = {}

    def at(k: int) -> np.ndarray:
        key = _cache_key(traj, k)
        if key not in last:
            last.clear()
            last[key] = energy_density(traj, k, mode, nodes)
        return last[key]

    return _ball_reading(traj, cyl, at)


def cylinder_integral(traj: Trajectory, cyl: CylinderSpec, mode: str = "gl") -> float:
    """Plain integral of the chosen density over the clipped cylinder: the
    density at the ball's nodes, sliced from a whole density where the
    trajectory caches one (``energy_density``), else computed there only."""
    return evaluate(traj, [cylinder_reading(traj, cyl, mode)])[0]


def _ball_reading(traj: Trajectory, cyl: CylinderSpec, ball_density) -> Reading:
    acc = WindowSum(traj, *cyl.window(), ball_density)
    return Reading([acc], lambda: float(acc.value.sum()) * traj.grid.cell_volume)


def ball_integral(traj: Trajectory, cyl: CylinderSpec, ball_density) -> float:
    """The cylinder integral from ``ball_density(k)``, the density of
    snapshot k on the cylinder's ball: the window integral of those values,
    summed over the ball, times the cell volume.  A caller that recorded
    the values while the flow ran gets ``cylinder_integral`` bit for bit."""
    return evaluate(traj, [_ball_reading(traj, cyl, ball_density)])[0]


def _extension_integrals(traj: Trajectory, h0: HarmonicExtension,
                         cyl: CylinderSpec) -> tuple[float, float, float]:
    """(integral of |u - h0|^2, integral of the h0 derivative energies,
    volume) over the clipped cylinder; raises GridMismatch unless ``h0``
    lives on the trajectory's grid and target.

    The data field is time-independent; its spacetime integral is the time
    extent, the window integral of 1, times the spatial one.
    """
    _check_same(traj.snapshots[0], h0.field)
    g = traj.grid
    pos = _cylinder_nodes(g, cyl)
    h0_vals = h0.field.interior_rows(pos)

    def dev2(k):
        diff = traj.snapshots[k].interior_rows(pos)
        release_pages(traj.snapshots[k])
        diff -= h0_vals
        return rowsq(diff, scratch=diff)

    dev = float(window_integral(traj, *cyl.window(), dev2).sum()) * g.cell_volume
    time_extent = float(window_integral(traj, *cyl.window(), lambda k: 1.0))
    m = (g.d + 1) // 2 + 1
    dens = h0.derivative_density(1) + h0.derivative_density(m)
    spatial = float(dens[pos].sum()) * g.cell_volume
    vol = time_extent * pos.size * g.cell_volume
    return dev, time_extent * spatial, vol


def reverse_poincare_ratio(traj: Trajectory, h0: HarmonicExtension,
                           cyl: CylinderSpec) -> tuple[float, float]:
    """(lhs, rhs) of the reverse comparison:

    lhs = R^{-d} int_{P_R} |grad u|^2/2,
    rhs = mean over P_{2R} of |u - h0|^2 plus the mean h0-derivative energies.
    The caller asserts lhs <= C rhs for a configured constant.
    """
    g = traj.grid
    lhs = cylinder_integral(traj, cyl, mode="gradient") / 2.0 / cyl.R ** g.d
    big = CylinderSpec(t0=cyl.t0, x0=cyl.x0, R=2.0 * cyl.R)
    dev, data, vol = _extension_integrals(traj, h0, big)
    rhs = dev / vol + data / vol
    return lhs, rhs


def hybrid_report(traj: Trajectory, h0: HarmonicExtension, cyl: CylinderSpec,
                  eps0: float) -> tuple[float, float, float]:
    """(inner, outer, data) for the two-scale energy comparison:

    inner = int_{P_R} e, outer = int_{P_2R} e,
    data  = R^{-2} int_{P_2R} |u - h0|^2 + int_{P_2R} h0-derivative terms.
    The harness fits C(eps0) with inner <= eps0 outer + C data.
    """
    if eps0 <= 0:
        raise ValueError("eps0 must be positive")
    inner = cylinder_integral(traj, cyl, mode="gl")
    big = CylinderSpec(t0=cyl.t0, x0=cyl.x0, R=2.0 * cyl.R)
    outer = cylinder_integral(traj, big, mode="gl")
    dev, data_int, _ = _extension_integrals(traj, h0, big)
    data = dev / cyl.R ** 2 + data_int
    return inner, outer, data
