"""Weighted-energy diagnostics: Gaussian-weighted monotonicity quantities,
the boundary decay criterion, and comparison ratios against the harmonic
extension.

Spacetime integrals use a left-endpoint rectangle rule in time with
window clipping and h^d node weights in space.  A node density holds one
value per interior node, in ``grid.interior_flat`` order; a ball of nodes
is positions into it (``Grid.nodes_within``).  ``energy_density`` is the
one way to a density: whole densities are cached on the trajectory by
snapshot and mode (a run with no schedule caches its gradient densities
only, its gl density being half of them), and a ball slices a cached
density or computes its own nodes only.  A density reads its snapshot
once, held, builds no lattice and takes its temporaries from the pass's
``field.scratch``.  That cache is all a trajectory holds beside its run.

Every time integral over a run's snapshots is a ``WindowSum``, fed by one
pass over the snapshots in time order (``feed``): at snapshot k each sum
whose window holds k reads it, whole-density sums first, so that k's
densities are computed once.  A diagnostic is a ``Reading``, its sums and
its value from them, so several diagnostics share one pass
(``evaluate``); a pass told not to keep drops k's densities once k's sums
are fed.  A cylinder, certificate or monotonicity reading reads only the
grid and snapshot times until fed, so ``cli`` builds it before the flow,
and its window and ball rules are the load check.  Fit constants are
searched on declared finite grids; reports expose the fitted pair and the
residual defect.
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
from .field import SphereField, _check_same, gradient_squared_density, scratch
from .flow import Trajectory
from .geometry import BLOCK_NODES, BoundaryFrame, Grid, boundary_frame, rowsq, scale_rows

# the grids the monotonicity fit searches (mu0, C) over, its R samples of
# the speed term, and the rectangles of main2_lhs's time integral
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

def _heat_kernel(z0, points: Callable[[], np.ndarray]) -> Callable[[float], np.ndarray]:
    """t -> ``backward_heat_kernel(z0, t, points())``, an array, with
    |x - x0|^2 taken at the first call and kept: a reading built at load
    holds no node array until fed."""
    t0, x0 = float(z0[0]), np.asarray(z0[1], dtype=float)
    r2 = d = None

    def at(t: float) -> np.ndarray:
        nonlocal r2, d
        if t >= t0:
            raise TimeNotBeforeCenter(f"kernel needs t < t0, got t = {t}, t0 = {t0}")
        if r2 is None:
            x = np.atleast_2d(np.asarray(points(), dtype=float))
            d, diff = x.shape[1], x - x0
            r2 = rowsq(diff, scratch=diff)
        tau = t0 - t
        return (4.0 * math.pi * tau) ** (-d / 2.0) * np.exp(-r2 / (4.0 * tau))

    return at


def backward_heat_kernel(z0, t, x) -> np.ndarray:
    """Backward Gaussian weight centered at a future spacetime point.

    G(t, x) = (4 pi (t0 - t))^(-d/2) exp(-|x - x0|^2 / (4 (t0 - t))).
    """
    vals = _heat_kernel(z0, lambda: x)(t)
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

def _penalty_density(traj: Trajectory, k: int, f: SphereField, nodes=None) -> np.ndarray:
    """Lam (|u|^2 - 1)^2 / 4 of snapshot k of a scheduled run, read from
    ``f`` (the snapshot, held), at the interior nodes or the positions
    ``nodes``; the rows are read in blocks into the scratch."""
    n = f.grid.n_interior if nodes is None else len(nodes)
    strength = traj.schedule.strength(traj.times[k])
    out = np.empty(n)
    with scratch() as sc:
        for lo in range(0, n, BLOCK_NODES):
            hi = min(lo + BLOCK_NODES, n)
            pos = np.arange(lo, hi) if nodes is None else nodes[lo:hi]
            rows = f.interior_rows(pos, out=sc.get("rows", (hi - lo, f.ncomp)))
            w = rowsq(rows, scratch=rows, out=out[lo:hi])
            w -= 1.0
            np.square(w, out=w)
            w *= strength
            w /= 4.0
    return out


def _gl_density(grad: np.ndarray, penalty: np.ndarray) -> np.ndarray:
    """The gl density 0.5 grad + penalty, in ``penalty``'s array."""
    penalty += 0.5 * grad
    return penalty


def _cache_key(traj: Trajectory, k: int) -> int:
    """Snapshot k's density cache entry: 0 where snapshot k is snapshot 0
    of a run with no schedule (an unedited static trajectory), else k."""
    return 0 if traj.lam is None and traj.snapshots[k] is traj.snapshots[0] else k


def energy_density(traj: Trajectory, k: int, mode: str = "gl",
                   nodes=None) -> np.ndarray:
    """Density of snapshot k at the interior nodes, or at the positions
    ``nodes`` into ``interior_flat``: gl density or plain |grad u|^2.

    gl mode:       |grad u|^2 / 2 + Lam (|u|^2 - 1)^2 / 4,
    gradient mode: |grad u|^2.
    A whole density is cached on the trajectory per (``_cache_key``, mode)
    until ``drop_densities``; a scheduled gl density is built from the
    cached gradient one.  With no schedule (``traj.lam`` None) Lam = 0, and
    the gl density is 0.5 times the gradient density, never cached.  At
    ``nodes`` a cached density is sliced; otherwise only those nodes are
    computed, bit for bit the slice, and nothing is cached.  One held read
    of the snapshot gives both parts, with no lattice.
    """
    if mode not in ("gl", "gradient"):
        raise ValueError(f"unknown density mode {mode!r}")
    if mode == "gl" and traj.lam is None:
        return 0.5 * energy_density(traj, k, "gradient", nodes)
    cache = traj._density_cache
    key = _cache_key(traj, k)
    if (key, mode) in cache:
        return cache[key, mode] if nodes is None else cache[key, mode][nodes]
    with traj.snapshots[k].held() as src:
        if (key, "gradient") in cache:
            grad = cache[key, "gradient"] if nodes is None else cache[key, "gradient"][nodes]
        else:
            grad = gradient_squared_density(src, nodes)
        dens = grad
        if mode == "gl":
            dens = _gl_density(grad, _penalty_density(traj, k, src, nodes))
    if nodes is None:
        cache[key, "gradient"] = grad
        cache[key, mode] = dens
    return dens


def energy_report(traj: Trajectory, k: int) -> EnergyReport:
    """Snapshot-level energy decomposition with its node density, built
    and cached as ``energy_density`` does from one held read of the
    snapshot; with no schedule ``penalty_part`` is 0."""
    cache = traj._density_cache
    key = _cache_key(traj, k)
    with traj.snapshots[k].held() as src:
        if (key, "gradient") not in cache:
            cache[key, "gradient"] = gradient_squared_density(src)
        penalty = None if traj.lam is None else _penalty_density(traj, k, src)
    grad2 = cache[key, "gradient"]
    vol = traj.grid.cell_volume
    if penalty is None:
        penalty_part, density = 0.0, 0.5 * grad2
    else:
        penalty_part = float(penalty.sum() * vol)  # before the gl density takes its array
        density = cache.setdefault((key, "gl"), _gl_density(grad2, penalty))
    return EnergyReport(gl_energy=float(density.sum() * vol),
                        dirichlet_part=float(0.5 * grad2.sum() * vol),
                        penalty_part=penalty_part, density=density)


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
        raise EmptyIntersection(f"window [{a:g}, {b:g}) holds no snapshot")
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
    while a pass (``feed``) feeds it its snapshots in k order; an array
    sum is a new array at its first term and adds the later ones in place.

    ``term(k)`` returns a number or an array: a density, or
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
        x = self.w[self._n] * self.term(k)
        if self._n and isinstance(self.value, np.ndarray):
            self.value += x             # the sum's own array since its first term
        else:
            self.value = self.value + x
        self._n += 1
        if self._n == self.w.size and self.on_last is not None:
            self.value = self.on_last(self.value)


def feed(traj: Trajectory, sums, keep: bool = True) -> None:
    """One pass over the snapshots in time order: at snapshot k, every
    window sum whose window holds k is fed k, those that read whole
    densities first, so that k's whole densities are computed once
    (``energy_density`` caches them) and the ball-local sums slice them.
    Unless ``keep``, k's densities are dropped once its sums are fed, so
    the cache holds one snapshot's densities at a time.  The pass owns one
    ``field.scratch``, which its densities refill and which goes with it."""
    at = {}
    for s in sorted(sums, key=lambda s: not s.whole):
        for k in s.ks:
            at.setdefault(k, []).append(s)
    with scratch():
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


def _annulus_sum(traj: Trajectory, z0, R: float, mode: str, kernel) -> WindowSum:
    """The window sum of ``weighted_annulus_energy``; ``kernel`` is
    ``_heat_kernel`` of z0 at the interior nodes."""
    g = traj.grid
    a, b = annulus_window(float(z0[0]), R)
    if a < -1e-12:
        raise WindowOutsideTrajectory("window starts before t = 0")
    if R < 2.0 * g.h:
        warnings.warn("Gaussian weight narrower than 4 cells; values are "
                      "quadrature-limited", KernelUnderresolved)

    def weighted(k):
        gvals = kernel(max(traj.times[k], a))
        return float(np.sum(energy_density(traj, k, mode) * gvals) * g.cell_volume)

    try:
        return WindowSum(traj, a, b, weighted, whole=True)
    except EmptyIntersection as e:
        raise WindowOutsideTrajectory(str(e)) from e


def weighted_annulus_energy(traj: Trajectory, z0, R: float, mode: str = "gl") -> float:
    """Gaussian-weighted energy over the annular time window (t0-4R^2, t0-R^2)."""
    acc = _annulus_sum(traj, z0, R, mode, _heat_kernel(z0, lambda: traj.grid.interior_coords))
    feed(traj, [acc])
    return acc.value


# -- monotonicity ------------------------------------------------------------

def _speed_density(traj: Trajectory, z0, kernel) -> Callable[[int], float]:
    """k -> spatial integral of |du/dt - (x-x0)/(2 sqrt(t0-t)) . grad u|^2 G at t_k,
    G = ``kernel(t_k)``.

    What does not depend on k (x - x0 per axis, the gather indices) is
    computed once; every call gathers into the same four row buffers and
    updates them in place.  Snapshot k is read as its lattice span from the
    first interior node less s0 to the last plus s0 (``_span``, into one
    buffer), snapshot k + 1 as its interior rows; no lattice is built.
    """
    g = traj.grid
    t0, x0 = float(z0[0]), np.asarray(z0[1], dtype=float)
    reach = int(g.strides()[0])
    base, end = int(g.interior_flat[0]) - reach, int(g.interior_flat[-1]) + reach + 1
    idx = g.interior_flat - base
    coords = g.interior_coords
    # a_flat[idx + s] and a_flat[idx - s], both gathered at idx - s
    axes = [(idx - s, 2 * s, coords[:, a] - x0[a])
            for a, s in enumerate(g.strides())]
    ncomp = traj.snapshots[0].ncomp
    rows = np.empty((4, idx.size, ncomp))
    snap_span = np.zeros((end - base, ncomp))

    def at(k: int) -> float:
        diff, radial, deriv, buf = rows
        t = traj.times[k]
        with traj.snapshots[k].held() as src:
            a_flat = src._span(base, end, snap_span)
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
        vals = rowsq(diff, scratch=buf)
        vals *= kernel(t)
        return float(np.sum(vals) * g.cell_volume)

    return at


def check_monotonicity_args(t0: float, pairs, mode: str = "gradient",
                            rhs_form: str = "difference"):
    """Raise ValueError unless ``monotonicity_reading`` accepts these values:
    at least one pair, each with 0 < R1 <= R2 < sqrt(t0)/2."""
    if len(pairs) == 0:
        raise ValueError("need at least one (R1, R2) pair")
    for R1, R2 in pairs:
        if not (0 < R1 <= R2):
            raise ValueError("need 0 < R1 <= R2")
        if not (t0 > 0 and R2 < math.sqrt(t0) / 2.0):
            raise ValueError("need R2 < sqrt(t0)/2 so the outer window starts after 0")
    if mode not in ("gl", "gradient"):
        raise ValueError(f"unknown density mode {mode!r}")
    if rhs_form not in ("difference", "exponential"):
        raise ValueError(f"unknown rhs form {rhs_form!r}")


def _fit(R1: float, R2: float, inner: float, speed: float, outer: float,
         mode: str, rhs_form: str) -> MonotonicityReport:
    """The report of one pair: the defect of every (mu0, C), mu0-major, and
    the first smallest (a NaN side gives NaN defects, and the fit reports
    one)."""
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


def monotonicity_reading(traj: Trajectory, z0, pairs, mode: str = "gradient",
                         rhs_form: str = "difference") -> Reading:
    """The monotonicity reports of the (R1, R2) ``pairs`` of centre z0, in
    order, as one ``Reading``.

    Its sums are one annulus energy per distinct radius.  ``finish`` makes
    one more pass, for the speed term: one window sum per distinct R
    sample of the pairs, each snapshot's value computed once and shared by
    every sum that holds it (none is empty, since each reaches back past
    the inner annulus window; the last snapshot never has weight).  Its
    row buffers live only in that pass.  Both passes share one kernel.
    """
    t0 = float(z0[0])
    check_monotonicity_args(t0, pairs, mode, rhs_form)
    kernel = _heat_kernel(z0, lambda: traj.grid.interior_coords)
    annuli = {R: _annulus_sum(traj, z0, R, mode, kernel)
              for R in dict.fromkeys(R for pair in pairs for R in pair)}

    def finish() -> list:
        at = _speed_density(traj, z0, kernel)
        last = {}

        def speed_at(k: int) -> float:
            if k not in last:
                last.clear()
                last[k] = at(k)
            return last[k]

        samples = [np.linspace(R1, R2, N_R_SAMPLES) for R1, R2 in pairs]
        speeds = {R: WindowSum(traj, *annulus_window(t0, R), speed_at)
                  for R in dict.fromkeys(float(R) for rs in samples for R in rs)}
        feed(traj, speeds.values())
        # each pair's speed term is a trapezoid in R over its samples
        return [_fit(R1, R2, annuli[R1].value,
                     2.0 * float(np.trapezoid([speeds[float(R)].value for R in rs], rs)),
                     annuli[R2].value, mode, rhs_form)
                for (R1, R2), rs in zip(pairs, samples)]

    return Reading(list(annuli.values()), finish)


def monotonicity_report(traj: Trajectory, z0, R1: float, R2: float,
                        mode: str = "gradient",
                        rhs_form: str = "difference") -> MonotonicityReport:
    """Evaluate both sides of the annulus monotonicity inequality and fit
    constants (mu0, C) minimizing the defect over the module grids MU_GRID
    (0.1..1.0) and C_GRID (25 values log-spaced in 1e-3..1e3).  The speed
    term is a trapezoid in R over N_R_SAMPLES = 9 radii in [R1, R2].

    rhs_form "difference" uses C (R2^mu - R1^mu); "exponential" uses
    C exp(R2^mu - R1^mu).  The ``monotonicity_reading`` of this one pair,
    evaluated alone.
    """
    return evaluate(traj, [monotonicity_reading(traj, z0, [(R1, R2)], mode,
                                                rhs_form)])[0][0]


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
    u0 is read, on one lattice.
    """
    u0 = traj_or_u0.snapshots[0] if isinstance(traj_or_u0, Trajectory) else traj_or_u0
    u0 = SphereField(u0.grid, u0.values)
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
    bpts = g.node_coords(g.boundary_flat)
    dw = weight_d(x0, bpts, d0)
    area_w = g.h ** (d - 1)

    t_hi = t0 - R0 * R0
    dt = t_hi / MAIN2_TIME_STEPS
    surf = 0.0
    kernel = _heat_kernel(z0, lambda: bpts)
    for j in range(MAIN2_TIME_STEPS):
        t = j * dt
        gvals = kernel(t)
        surf += dt * float(np.sum(tg2 * gvals * (dw + 4.0 * (t0 - t) / d0 ** 2)) * area_w)

    bracket = interior_term + surf
    return math.exp((4.0 * R0) ** mu0) / R0 ** 2 * bracket + c_mu0 * R0


# -- cylinder integrals and comparison ratios ---------------------------------

def _cylinder_nodes(grid: Grid, cyl: CylinderSpec) -> np.ndarray:
    """Positions in ``grid.interior_flat`` of the nodes in the cylinder's ball."""
    nodes = grid.nodes_within(cyl.x0, cyl.R)
    if nodes.size == 0:
        raise EmptyIntersection(f"ball of radius {cyl.R:g} around {cyl.x0.tolist()} "
                                "holds no interior node")
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

    acc = WindowSum(traj, *cyl.window(), at)
    return Reading([acc], lambda: float(acc.value.sum()) * traj.grid.cell_volume)


def cylinder_integral(traj: Trajectory, cyl: CylinderSpec, mode: str = "gl") -> float:
    """Plain integral of the chosen density over the clipped cylinder: the
    density at the ball's nodes, sliced from a whole density where the
    trajectory caches one (``energy_density``), else computed there only."""
    return evaluate(traj, [cylinder_reading(traj, cyl, mode)])[0]


def _extension_reading(traj: Trajectory, h0: HarmonicExtension,
                       cyl: CylinderSpec) -> Reading:
    """(integral of |u - h0|^2, integral of the h0 derivative energies,
    volume) over the clipped cylinder, as a ``Reading``; raises GridMismatch
    unless ``h0`` lives on the trajectory's grid and target.

    The data field is time-independent; its spacetime integral is the time
    extent, the window sum of 1, times the spatial one.
    """
    _check_same(traj.snapshots[0], h0.field)
    g = traj.grid
    pos = _cylinder_nodes(g, cyl)
    h0_vals = h0.field.interior_rows(pos)

    def dev2(k):
        diff = traj.snapshots[k].interior_rows(pos)
        diff -= h0_vals
        return rowsq(diff, scratch=diff)

    dev = WindowSum(traj, *cyl.window(), dev2)
    extent = WindowSum(traj, *cyl.window(), lambda k: 1.0)

    def finish() -> tuple[float, float, float]:
        time_extent = float(extent.value)
        m = (g.d + 1) // 2 + 1
        dens = h0.derivative_density(1) + h0.derivative_density(m)
        spatial = float(dens[pos].sum()) * g.cell_volume
        vol = time_extent * pos.size * g.cell_volume
        return float(dev.value.sum()) * g.cell_volume, time_extent * spatial, vol

    return Reading([dev, extent], finish)


def reverse_poincare_ratio(traj: Trajectory, h0: HarmonicExtension,
                           cyl: CylinderSpec) -> tuple[float, float]:
    """(lhs, rhs) of the reverse comparison:

    lhs = R^{-d} int_{P_R} |grad u|^2/2,
    rhs = mean over P_{2R} of |u - h0|^2 plus the mean h0-derivative energies.
    The caller asserts lhs <= C rhs for a configured constant.  The
    cylinder and the extension's integrals share one pass.
    """
    big = CylinderSpec(t0=cyl.t0, x0=cyl.x0, R=2.0 * cyl.R)
    inner, (dev, data, vol) = evaluate(traj, [cylinder_reading(traj, cyl, mode="gradient"),
                                              _extension_reading(traj, h0, big)])
    return inner / 2.0 / cyl.R ** traj.grid.d, dev / vol + data / vol


def hybrid_report(traj: Trajectory, h0: HarmonicExtension, cyl: CylinderSpec,
                  eps0: float) -> tuple[float, float, float]:
    """(inner, outer, data) for the two-scale energy comparison:

    inner = int_{P_R} e, outer = int_{P_2R} e,
    data  = R^{-2} int_{P_2R} |u - h0|^2 + int_{P_2R} h0-derivative terms.
    The harness fits C(eps0) with inner <= eps0 outer + C data.  The two
    cylinders and the extension's integrals share one pass.
    """
    if eps0 <= 0:
        raise ValueError("eps0 must be positive")
    big = CylinderSpec(t0=cyl.t0, x0=cyl.x0, R=2.0 * cyl.R)
    inner, outer, (dev, data_int, _) = evaluate(traj, [
        cylinder_reading(traj, cyl, mode="gl"), cylinder_reading(traj, big, mode="gl"),
        _extension_reading(traj, h0, big)])
    return inner, outer, dev / cyl.R ** 2 + data_int
