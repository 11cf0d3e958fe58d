"""Stereographic coordinates, the hemisphere monitor function, and the
one-sided range checks.

With v in R^D the chart is u' = 2v/(1+|v|^2), u_last = (1-|v|^2)/(1+|v|^2);
the inverse is v = u'/(1 + u_last), defined away from the south pole.  The
monitor W(|v|^2) with W(x) = x/(1+x^2) obeys a discrete maximum principle
along hemisphere-confined flows, tracked per recorded snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PoleProximity
from .field import SphereField
from .flow import Trajectory
from .geometry import Grid, neighbor_sum

POLE_GAP = 1e-6
BAND_FACTOR = 10.0      # the monitor's band: 1e-6 + BAND_FACTOR * dt
RESIDUAL_SEED = 0       # seed of the PDE-residual sample draw


@dataclass
class StereoField:
    grid: Grid
    values: np.ndarray           # lattice shape + (D,)
    target_dim: int

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1, self.target_dim)


@dataclass
class OneSidedCheck:
    rotation: np.ndarray         # orthogonal map applied to target values
    min_component: float         # min of rotated last component over nodes
    passed: bool
    theta0_proxy: float          # gap to the equator in chart coordinates, halved


@dataclass
class OneSidedReport:
    theta0_proxy: float
    rotation: np.ndarray
    steps: list                  # recorded snapshot indices
    times: list
    max_w_track: list
    min_last_track: list
    passed: bool
    first_violation_step: Optional[int]
    band: float
    pde_residual_mean: Optional[float] = None
    pde_residual_max: Optional[float] = None

    def to_json(self) -> dict:
        return {
            "theta0_proxy": self.theta0_proxy,
            "rotation": np.asarray(self.rotation).tolist(),
            "passed": self.passed,
            "first_violation_step": self.first_violation_step,
            "band": self.band,
            "max_w_initial": self.max_w_track[0] if self.max_w_track else None,
            "max_w_final": self.max_w_track[-1] if self.max_w_track else None,
            "min_last_final": self.min_last_track[-1] if self.min_last_track else None,
            "pde_residual_mean": self.pde_residual_mean,
            "pde_residual_max": self.pde_residual_max,
        }


def stereo_forward(u: np.ndarray) -> np.ndarray:
    """(n, D+1) sphere values -> (n, D) chart values."""
    last = u[:, -1]
    if np.any(last <= -1.0 + POLE_GAP):
        bad = int(np.argmin(last))
        raise PoleProximity(f"value at row {bad} is within {POLE_GAP} of the pole")
    return u[:, :-1] / (1.0 + last)[:, None]


def stereo_inverse(v: np.ndarray) -> np.ndarray:
    """(n, D) chart values -> (n, D+1) unit-sphere values."""
    s = np.einsum("ij,ij->i", v, v)
    u = np.empty((v.shape[0], v.shape[1] + 1))
    u[:, :-1] = 2.0 * v / (1.0 + s)[:, None]
    u[:, -1] = (1.0 - s) / (1.0 + s)
    return u


def to_stereo(f: SphereField) -> StereoField:
    g = f.grid
    idx = g.active_flat
    vals = np.zeros(g.shape + (f.target_dim,))
    flat = vals.reshape(-1, f.target_dim)
    flat[idx] = stereo_forward(f.flat()[idx])
    return StereoField(grid=g, values=vals, target_dim=f.target_dim)


def from_stereo(v: StereoField) -> SphereField:
    g = v.grid
    idx = g.active_flat
    vals = np.zeros(g.shape + (v.target_dim + 1,))
    flat = vals.reshape(-1, v.target_dim + 1)
    flat[idx] = stereo_inverse(v.flat()[idx])
    return SphereField(grid=g, values=vals, target_dim=v.target_dim)


def W(x):
    """Monitor profile: antiderivative of (1-t^2)/(1+t^2)^2 from 0, i.e. x/(1+x^2).

    Increasing on [0, 1], decreasing beyond; W(1) = 1/2 is the equator level.
    """
    x = np.asarray(x, dtype=float)
    out = x / (1.0 + x * x)
    return float(out) if out.ndim == 0 else out


def _align_rotation(mean_dir: np.ndarray) -> np.ndarray:
    """Orthogonal map sending the mean direction to the last basis vector."""
    n = mean_dir.shape[0]
    e = np.zeros(n)
    e[-1] = 1.0
    w = mean_dir - e
    nw = np.linalg.norm(w)
    if nw < 1e-12:
        return np.eye(n)
    w = w / nw
    return np.eye(n) - 2.0 * np.outer(w, w)


def one_sided_check(u0: SphereField) -> OneSidedCheck:
    """Search the mean-direction alignment rotation and test hemisphere
    confinement of the rotated range.

    Failure of this restricted search means "no rotation found", not a
    definitive negative.
    """
    vals = u0.active_values()
    m = vals.mean(axis=0)
    nm = np.linalg.norm(m)
    rot = _align_rotation(m / nm) if nm > 1e-12 else np.eye(u0.ncomp)
    rotated = vals @ rot.T
    min_comp = float(rotated[:, -1].min())
    passed = min_comp > 0.0
    theta0 = 0.0
    if passed:
        v = stereo_forward(rotated)
        vmax = float(np.sqrt(np.einsum("ij,ij->i", v, v).max()))
        theta0 = (1.0 - vmax) / 2.0
    return OneSidedCheck(rotation=rot, min_component=min_comp, passed=passed,
                         theta0_proxy=theta0)


def _chart_rows(snap: SphereField, rot: np.ndarray) -> tuple[np.ndarray, float]:
    """Chart values v of the rotated active rows, min rotated last component."""
    rotated = np.take(snap.flat(), snap.grid.active_flat, axis=0) @ rot.T
    return stereo_forward(rotated), float(rotated[:, -1].min())


def _w_field(snap: SphereField, rot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lattice arrays of W(|v|^2) and of the chart values v."""
    g = snap.grid
    idx = g.active_flat
    v, _ = _chart_rows(snap, rot)
    wlat = np.zeros(g.n_lattice)
    wlat[idx] = W(np.einsum("ij,ij->i", v, v))
    vlat = np.zeros((g.n_lattice, snap.target_dim))
    vlat[idx] = v
    return wlat, vlat


def one_sided_monitor(traj: Trajectory, check: Optional[OneSidedCheck] = None,
                      n_residual_samples: int = 100) -> OneSidedReport:
    """Track the hemisphere monitor along a run.

    Pass requires the per-snapshot max of W(|v|^2) never to exceed its
    initial value by more than 1e-6 + BAND_FACTOR * dt (BAND_FACTOR = 10),
    and the rotated last component to stay positive.  A pole hit is
    recorded as a failure at that step, not raised.  The PDE residual is
    sampled at ``n_residual_samples`` points drawn with RESIDUAL_SEED = 0.
    """
    if check is None:
        check = one_sided_check(traj.snapshots[0])
    rot = check.rotation
    band = 1e-6 + BAND_FACTOR * traj.dt

    max_w, min_last = [], []
    first_violation = None
    for k, snap in enumerate(traj.snapshots):
        try:
            v, mlast = _chart_rows(snap, rot)
        except PoleProximity:
            first_violation = k
            break
        max_w.append(float(W(np.einsum("ij,ij->i", v, v)).max()))
        min_last.append(mlast)
        if max_w[k] > max_w[0] + band or mlast <= 0.0:
            first_violation = k
            break

    passed = first_violation is None

    res_mean = res_max = None
    if passed and len(traj.snapshots) >= 3 and n_residual_samples > 0:
        res = _pde_residual_samples(traj, rot, n_residual_samples)
        if res.size:
            res_mean, res_max = float(np.mean(res)), float(np.max(res))

    return OneSidedReport(
        theta0_proxy=check.theta0_proxy, rotation=rot,
        steps=list(range(len(max_w))), times=traj.times[:len(max_w)],
        max_w_track=max_w, min_last_track=min_last, passed=passed,
        first_violation_step=first_violation, band=band,
        pde_residual_mean=res_mean, pde_residual_max=res_max)


def _pde_residual_samples(traj: Trajectory, rot: np.ndarray,
                          n_samples: int) -> np.ndarray:
    """|d_t W - lap W + 4 |grad v|^2 / (1+|v|^2)^2| at random interior samples.

    Reported, not asserted: the identity is exact only along the limiting
    constrained flow.  Fields are recomputed per sampled snapshot to keep
    memory flat on long runs.
    """
    g = traj.grid
    rng = np.random.default_rng(RESIDUAL_SEED)
    idx = g.interior_flat
    s = g.strides()
    ks = rng.integers(0, len(traj.snapshots) - 1, size=n_samples)
    js = rng.integers(0, idx.size, size=n_samples)
    cache: dict = {}

    def fields(k: int):
        """(W lattice, chart values, neighbour sum of W) of snapshot k."""
        if k not in cache:
            if len(cache) > 3:
                cache.clear()
            w, v = _w_field(traj.snapshots[k], rot)
            cache[k] = (w, v, neighbor_sum(w, s))
        return cache[k]

    out = []
    for k, j in sorted(zip(ks.tolist(), js.tolist())):
        node = int(idx[j])
        w_k, v_k, w_nbr = fields(k)
        w_k1 = fields(k + 1)[0]
        dt_loc = traj.times[k + 1] - traj.times[k]
        w_t = (w_k1[node] - w_k[node]) / dt_loc
        lap = (w_nbr[node] - 2 * g.d * w_k[node]) / g.h ** 2
        grad2 = 0.0
        for a in range(g.d):
            dv = (v_k[node + s[a]] - v_k[node - s[a]]) / (2 * g.h)
            grad2 += float(np.dot(dv, dv))
        sv = float(np.dot(v_k[node], v_k[node]))
        out.append(abs(w_t - lap + 4.0 * grad2 / (1.0 + sv) ** 2))
    return np.asarray(out)
