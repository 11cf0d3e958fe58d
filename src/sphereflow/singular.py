"""Local scaled parabolic energy, singular-point detection, parabolic
box-counting dimension, and the dyadic small-energy certificate.

A spacetime point is flagged when the scaled cylinder energy stays above
the threshold at every scanned radius -- the finite surrogate of an
intersection over all scales.  The scan records per-radius values so the
surrogate's sensitivity is auditable.  Cylinder radii are used as given;
no gauge correction is applied to the hypothesis radius (noted in the
report).

Every cylinder energy here is a ``diagnostics.WindowSum`` of a density
summed over a ball of nodes; densities hold one value per interior node,
in ``grid.interior_flat`` order.  Each diagnostic is also a
``diagnostics.Reading``, so that a caller can evaluate several in one pass
over the snapshots (``diagnostics.evaluate``).  The scan sums one window
field per (scan time, radius), scatters it into a zero-padded lattice at
padded indices computed once per scan as soon as its window closes, and
takes the ball sums of its live scan nodes in one vectorized gather from
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import (CylinderSpec, Reading, WindowSum, cylinder_reading,
                          cylinder_window, energy_density, evaluate, feed,
                          window_snapshots)
from .errors import TooFewScales
from .flow import Trajectory

GAUGE_NOTE = "scan radii are used verbatim; no gauge reshaping of cylinders"


@dataclass
class SingularConfig:
    eps0: float
    radii: list                       # decreasing or increasing scan radii
    time_stride: int = 1              # in recorded snapshots
    space_stride: int = 1             # in lattice cells, anchored at the center
    deltas: Optional[list] = None     # box-count scales; defaults to radii
    mode: str = "gl"

    def validate(self, grid_h: float):
        if not 0 < self.eps0 < math.inf:
            raise ValueError("threshold must be finite and positive")
        if not self.radii:
            raise ValueError("radius scan list is empty")
        if self.time_stride < 1 or self.space_stride < 1:
            raise ValueError("strides must be >= 1")
        check_cylinder_args(min(self.radii), grid_h, self.mode)
        check_box_scales(self.deltas or self.radii)


def check_box_scales(deltas):
    """Raise ValueError unless the box-count scales are finite, positive and distinct."""
    if not all(0 < d < math.inf for d in deltas) or len(set(deltas)) != len(deltas):
        raise ValueError(f"box-count scales must be finite, positive and distinct; "
                         f"got {deltas!r}")


@dataclass
class SingularReport:
    flagged: list                     # (t, x tuple) per flagged scan point
    values: list                      # per flagged point, dict radius -> scaled energy
    n_scanned: int
    box_table: list                   # (delta, count)
    dimension_estimate: Optional[float]
    sup_density_checks: list          # (t, x tuple, sup density, sup * Rmin^2)
    eps0: float
    radii: list
    mode: str
    note: str = GAUGE_NOTE

    def to_json(self) -> dict:
        return {
            "eps0": self.eps0,
            "radii": list(self.radii),
            "mode": self.mode,
            "n_scanned": self.n_scanned,
            "flagged": [{"t": t, "x": list(x)} for t, x in self.flagged],
            "values": self.values,
            "box_table": [{"delta": d, "count": n} for d, n in self.box_table],
            "dimension_estimate": self.dimension_estimate,
            "sup_density_checks": [
                {"t": t, "x": list(x), "sup_density": s, "c_candidate": c}
                for t, x, s, c in self.sup_density_checks],
            "note": self.note,
        }


def density_mode(mode: str) -> str:
    """The ``diagnostics.energy_density`` mode a cylinder mode integrates."""
    return "gradient" if mode == "dirichlet" else "gl"


def cylinder_scale(mode: str, R: float, d: int) -> float:
    """The divisor that scales a cylinder integral of radius R into
    ``local_scaled_energy``."""
    return 2.0 * R ** d if mode == "dirichlet" else R ** d


def check_cylinder_args(R: float, h: float, mode: str = "gl"):
    """Raise ValueError unless ``local_scaled_energy`` accepts radius R and
    ``mode`` on a grid of spacing h."""
    if not R >= 2.0 * h - 1e-12:
        raise ValueError("radius below the 2h resolution floor")
    if mode not in ("gl", "dirichlet"):
        raise ValueError(f"unknown cylinder mode {mode!r}")


def certificate_bound(eps0: float, r: float, d: int) -> float:
    """eps0^2 r^d / 2, the small-energy certificate's bound at radius r in
    dimension d; ValueError where that is no finite number."""
    try:
        bound = eps0 ** 2 * r ** d / 2.0
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ValueError(f"small-energy bound eps0^2 r^d / 2 is not finite at "
                         f"eps0 = {eps0!r}, r = {r!r}")
    return bound


def scaled_energy_reading(traj: Trajectory, z0, R: float, mode: str = "gl") -> Reading:
    """``local_scaled_energy`` as a ``diagnostics.Reading``."""
    g = traj.grid
    check_cylinder_args(R, g.h, mode)
    cyl = cylinder_reading(traj, CylinderSpec(t0=float(z0[0]), x0=z0[1], R=R),
                           density_mode(mode))
    return Reading(cyl.sums, lambda: cyl.finish() / cylinder_scale(mode, R, g.d))


def local_scaled_energy(traj: Trajectory, z0, R: float, mode: str = "gl") -> float:
    """Scaled cylinder energy: R^{-d} integral of the density over P_R,
    or (2 R^d)^{-1} of |grad u|^2 in dirichlet mode."""
    return evaluate(traj, [scaled_energy_reading(traj, z0, R, mode)])[0]


def _scan_points(traj: Trajectory, cfg: SingularConfig):
    """Deterministic scan set: strided snapshot times x strided interior
    nodes, the latter as positions in ``interior_flat``.

    The spatial stride is anchored at the lattice index of the domain-center
    node so distinguished points (like the origin) stay in the scan.
    """
    g = traj.grid
    t_idx = list(range(1, len(traj.times) - 1, cfg.time_stride))
    center_k = np.rint(g.domain.center() / g.h).astype(np.int64) - g.index_origin
    multi = np.array(np.unravel_index(g.interior_flat, g.shape)).T
    keep = np.all((multi - center_k) % cfg.space_stride == 0, axis=1)
    return t_idx, np.flatnonzero(keep)


# index entries per ball-sum gather; bounds the scan's temporaries
_GATHER_CHUNK = 1 << 20


def _ball_sums(flat: np.ndarray, centers: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """flat[c + offsets].sum() for every c in centers, in blocks of centers."""
    step = max(1, _GATHER_CHUNK // offsets.size)
    return np.concatenate([flat[centers[i:i + step, None] + offsets].sum(axis=1)
                           for i in range(0, centers.size, step)])


def scan_reading(traj: Trajectory, cfg: SingularConfig, keep: bool = True) -> Reading:
    """``detect_singular_set`` as a ``diagnostics.Reading``: its sums are the
    window fields of the smallest radius, one per scan time, each reduced
    to the scan nodes above the threshold as soon as its window closes.
    ``finish`` scans the larger radii at those nodes only, in one pass per
    radius that keeps the densities it computes if ``keep``, then takes
    the sup-density check and the box count."""
    g = traj.grid
    cfg.validate(g.h)
    radii = sorted(float(r) for r in cfg.radii)
    t_idx, nodes = _scan_points(traj, cfg)
    dens_mode = density_mode(cfg.mode)

    # zero padding of the widest ball's reach keeps every gathered index on
    # the padded lattice; flat offsets there address the whole ball.  Only
    # the interior nodes are ever written, so the rest stays zero
    m = int(np.ceil(radii[-1] / g.h))
    padded = np.zeros(tuple(n + 2 * m for n in g.shape))
    flat_padded = padded.reshape(-1)
    pstrides = np.array(padded.strides) // padded.itemsize
    padded_idx = (np.array(np.unravel_index(g.interior_flat, g.shape)).T + m) @ pstrides
    centers = padded_idx[nodes]
    offsets = {R: g.ball_offsets(R) @ pstrides for R in radii}
    # scan time -> (positions into ``nodes`` at or above the threshold at
    # every radius scanned so far, their scaled energies there)
    alive = {}

    def density(k: int) -> np.ndarray:
        return energy_density(traj, k, dens_mode)

    def window(kt: int, j: int) -> WindowSum:
        R = radii[j]

        def close(field: np.ndarray) -> None:
            # the window field is not kept: only its survivors are
            flat_padded[padded_idx] = field
            pos, vals = (alive.pop(kt) if j
                         else (np.arange(nodes.size), np.empty((nodes.size, 0))))
            sums = _ball_sums(flat_padded, centers[pos], offsets[R])
            v = sums * g.cell_volume / cylinder_scale(cfg.mode, R, g.d)
            up = v >= cfg.eps0
            if up.any():
                alive[kt] = pos[up], np.column_stack([vals[up], v[up]])

        return WindowSum(traj, *cylinder_window(float(traj.times[kt]), R), density,
                         whole=True, on_last=close)

    def finish() -> SingularReport:
        for j in range(1, len(radii)):
            feed(traj, [window(kt, j) for kt in sorted(alive)], keep)
        flagged, values = [], []
        for kt in sorted(alive):
            t0 = float(traj.times[kt])
            pos, vals = alive[kt]
            for x, row in zip(g.node_coords(g.interior_flat[nodes[pos]]), vals):
                flagged.append((t0, tuple(float(c) for c in x)))
                values.append({str(R): float(v) for R, v in zip(radii, row)})

        # sup-density cross-check on the smallest cylinder at flagged points
        sup_checks = []
        rmin = radii[0]
        for (t0, x) in flagged[:64]:
            ks, _ = window_snapshots(traj, *cylinder_window(t0, rmin))
            nodes_in = g.nodes_within(np.asarray(x), rmin)
            sup_val = max(float(energy_density(traj, int(k), dens_mode, nodes_in)
                                .max(initial=0.0)) for k in ks)
            sup_checks.append((t0, x, sup_val, sup_val * rmin ** 2))

        deltas = [float(x) for x in (cfg.deltas if cfg.deltas else radii)]
        if len(deltas) >= 3 and flagged:
            pts = np.array([[t] + list(x) for t, x in flagged])
            table, dim = parabolic_box_count(pts, sorted(deltas, reverse=True))
        else:
            table, dim = [], None

        return SingularReport(flagged=flagged, values=values,
                              n_scanned=len(t_idx) * nodes.size,
                              box_table=table, dimension_estimate=dim,
                              sup_density_checks=sup_checks, eps0=cfg.eps0,
                              radii=radii, mode=cfg.mode)

    return Reading([window(kt, 0) for kt in t_idx], finish)


def detect_singular_set(traj: Trajectory, cfg: SingularConfig) -> SingularReport:
    """Scan spacetime for points whose scaled energy exceeds the threshold
    at every radius in the scan list.

    Radii go in increasing order; a scan point stops at its first radius
    below the threshold.
    """
    return evaluate(traj, [scan_reading(traj, cfg)])[0]


def parabolic_box_count(points: np.ndarray, deltas) -> tuple[list, Optional[float]]:
    """Greedy cover of spacetime points by parabolic boxes.

    A box at scale delta spans delta^2 in time and delta in each space
    axis.  Points are swept in lexicographic order; each uncovered point
    anchors a new box.  Returns the (delta, count) table and the
    least-squares slope of log N against log(1/delta).
    """
    deltas = [float(d) for d in deltas]
    if len(deltas) < 3:
        raise TooFewScales("need at least 3 scales for a slope estimate")
    check_box_scales(deltas)
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta list must be strictly decreasing")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        return [(d, 0) for d in deltas], None
    order = np.lexsort(tuple(pts[:, c] for c in range(pts.shape[1] - 1, -1, -1)))
    pts = pts[order]

    table = []
    for delta in deltas:
        spans = np.array([delta ** 2] + [delta] * (pts.shape[1] - 1))
        covered = np.zeros(pts.shape[0], dtype=bool)
        count = 0
        for i in range(pts.shape[0]):
            if covered[i]:
                continue
            count += 1
            anchor = pts[i]
            inside = np.all((pts >= anchor) & (pts < anchor + spans), axis=1)
            covered |= inside
        table.append((delta, count))

    logs = np.log([1.0 / d for d, _ in table])
    logn = np.log([max(n, 1) for _, n in table])
    slope = float(np.polyfit(logs, logn, 1)[0])
    return table, slope


def certificate_reading(traj: Trajectory, z0, radii, eps0: float) -> Reading:
    """``small_energy_certificate`` as a ``diagnostics.Reading``."""
    d = traj.grid.d
    rows = []
    for r in sorted(float(r) for r in radii):
        bound = certificate_bound(eps0, r, d)
        rows.append((r, bound, cylinder_reading(
            traj, CylinderSpec(t0=float(z0[0]), x0=z0[1], R=r), mode="gradient")))

    def finish() -> tuple[bool, list]:
        table = []
        for r, bound, cyl in rows:
            total = cyl.finish()
            table.append((r, total, float(bound), bool(total < bound)))
        return all(row[3] for row in table), table

    return Reading([s for *_, cyl in rows for s in cyl.sums], finish)


def small_energy_certificate(traj: Trajectory, z0, radii, eps0: float
                             ) -> tuple[bool, list]:
    """Dyadic check  int_{P_r} |grad u|^2 < eps0^2 r^d / 2  per radius.

    Returns (all_pass, table) with rows (r, integral, bound, pass);
    ValueError where a bound is not finite (``certificate_bound``).
    """
    return evaluate(traj, [certificate_reading(traj, z0, radii, eps0)])[0]
