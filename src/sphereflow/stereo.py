"""The stereographic chart, the hemisphere monitor function, and the
one-sided range checks.

With v in R^D the chart is u' = 2v/(1+|v|^2), u_last = (1-|v|^2)/(1+|v|^2);
the inverse is v = u'/(1 + u_last), defined away from the south pole.  Both
maps act on rows (``stereo_forward``, ``stereo_inverse``); the monitor
charts the rotated rows of the nodes it reads and never builds a lattice
array of chart values.  The monitor W(|v|^2) with W(x) = x/(1+x^2) obeys a
discrete maximum principle along hemisphere-confined flows, tracked per
recorded snapshot over the active rows; its PDE residual is sampled at
RESIDUAL_SAMPLES interior nodes from those nodes and their axis neighbours
only.  ``one_sided_monitor(traj)`` takes no other input: the rotation is
``one_sided_check`` of the run's first snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PoleProximity
from .field import SphereField
from .flow import Trajectory
from .geometry import rowsq, scale_rows

POLE_GAP = 1e-6
BAND_FACTOR = 10.0      # the monitor's band: 1e-6 + BAND_FACTOR * dt
RESIDUAL_SEED = 0       # seed of the PDE-residual sample draw
RESIDUAL_SAMPLES = 100  # size of that draw


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
    return scale_rows(u[:, :-1], 1.0 + last, out=np.empty((u.shape[0], u.shape[1] - 1)))


def stereo_inverse(v: np.ndarray) -> np.ndarray:
    """(n, D) chart values -> (n, D+1) unit-sphere values."""
    s = rowsq(v)
    u = np.empty((v.shape[0], v.shape[1] + 1))
    scale_rows(2.0 * v, 1.0 + s, out=u[:, :-1])
    u[:, -1] = (1.0 - s) / (1.0 + s)
    return u


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
        vmax = float(np.sqrt(rowsq(v, scratch=v).max()))
        theta0 = (1.0 - vmax) / 2.0
    return OneSidedCheck(rotation=rot, min_component=min_comp, passed=passed,
                         theta0_proxy=theta0)


def _chart_rows(snap: SphereField, rot: np.ndarray,
                nodes: Optional[np.ndarray] = None) -> tuple[np.ndarray, float]:
    """Chart values v of the rotated rows at the flat ``nodes`` (the active
    nodes if None), and their min rotated last component.  A kept snapshot
    gives its rows (``SphereField.rows``) with no rebuilt lattice."""
    rows = snap.active_values() if nodes is None else snap.rows(nodes)
    rotated = rows @ rot.T
    return stereo_forward(rotated), float(rotated[:, -1].min())


def one_sided_monitor(traj: Trajectory) -> OneSidedReport:
    """Track the hemisphere monitor along a run, in the rotation that
    ``one_sided_check`` finds for its first snapshot.

    Pass requires the per-snapshot max of W(|v|^2) never to exceed its
    initial value by more than 1e-6 + BAND_FACTOR * dt (BAND_FACTOR = 10),
    and the rotated last component to stay positive.  A pole hit is
    recorded as a failure at that step, not raised.  The PDE residual of a
    passing run of at least 3 snapshots is sampled at RESIDUAL_SAMPLES = 100
    points drawn with RESIDUAL_SEED = 0.
    """
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
        max_w.append(float(W(rowsq(v, scratch=v)).max()))
        min_last.append(mlast)
        if max_w[k] > max_w[0] + band or mlast <= 0.0:
            first_violation = k
            break

    passed = first_violation is None

    res_mean = res_max = None
    if passed and len(traj.snapshots) >= 3:
        res = _pde_residual_samples(traj, rot, RESIDUAL_SAMPLES)
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
    constrained flow.  Each sample charts only the rows it reads: its node
    and the node's 2d axis neighbours at snapshot k, the node alone at k + 1.
    The neighbours are summed as ``geometry.neighbor_sum`` sums them (from
    0.0, per axis the -s neighbour before the +s one), so the residual is
    the whole-lattice one bit for bit, and memory stays flat on long runs.
    """
    g = traj.grid
    rng = np.random.default_rng(RESIDUAL_SEED)
    idx = g.interior_flat
    # row 0 is the node, rows 2a + 1 and 2a + 2 its -s and +s neighbours
    offsets = np.array([0] + [o for s in g.strides().tolist() for o in (-s, s)])
    ks = rng.integers(0, len(traj.snapshots) - 1, size=n_samples)
    js = rng.integers(0, idx.size, size=n_samples)

    out = []
    for k, j in sorted(zip(ks.tolist(), js.tolist())):
        nodes = idx[j] + offsets
        v, _ = _chart_rows(traj.snapshots[k], rot, nodes)
        w = W(rowsq(v))
        v1, _ = _chart_rows(traj.snapshots[k + 1], rot, nodes[:1])
        w1 = W(rowsq(v1, scratch=v1))[0]
        dt_loc = traj.times[k + 1] - traj.times[k]
        w_t = (w1 - w[0]) / dt_loc
        w_nbr = 0.0
        for x in w[1:]:
            w_nbr += x
        lap = (w_nbr - 2 * g.d * w[0]) / g.h ** 2
        grad2 = 0.0
        for a in range(g.d):
            dv = (v[2 * a + 2] - v[2 * a + 1]) / (2 * g.h)
            grad2 += float(np.dot(dv, dv))
        sv = float(np.dot(v[0], v[0]))
        out.append(abs(w_t - lap + 4.0 * grad2 / (1.0 + sv) ** 2))
    return np.asarray(out)
