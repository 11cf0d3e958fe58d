"""Discrete sphere-valued fields, initial-data generators, projection, norms."""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionMismatch, GridMismatch, NearZeroVector
from .geometry import Grid


@dataclass
class SphereField:
    """Map from grid nodes into R^{D+1}, nominally sphere-valued.

    Values are stored on the full lattice, shape grid.shape + (D+1,);
    exterior nodes hold zeros and are never read by any operation.
    """

    grid: Grid
    values: np.ndarray
    target_dim: int                       # D; values live in R^{D+1}
    metadata: dict = dfield(default_factory=dict)

    @property
    def ncomp(self) -> int:
        return self.target_dim + 1

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1, self.ncomp)

    def copy(self) -> "SphereField":
        return SphereField(self.grid, self.values.copy(), self.target_dim,
                           dict(self.metadata))

    def active_values(self) -> np.ndarray:
        return self.flat()[self.grid.active_flat]

    def max_norm(self) -> float:
        v = self.active_values()
        return float(np.sqrt(np.max(np.einsum("ij,ij->i", v, v))))


INITIAL_KINDS = ("constant", "cap", "equator-hedgehog", "boundary-wrap", "custom-samples")


@dataclass
class InitialData:
    """Named initial-data family with per-kind parameters; ``kind`` is one
    of ``INITIAL_KINDS``.
    """

    kind: str
    vector: Optional[np.ndarray] = None      # constant
    latitude_deg: float = 0.0                # cap: maximal polar angle
    winding: int = 1                         # boundary-wrap
    samples: Optional[np.ndarray] = None     # custom-samples, full lattice

    @staticmethod
    def from_config(spec: dict) -> "InitialData":
        kind = spec["kind"]
        if kind not in INITIAL_KINDS:
            raise ConfigError(f"unknown initial data kind {kind!r}; "
                              f"expected one of {', '.join(INITIAL_KINDS)}")
        return InitialData(
            kind=kind,
            vector=np.asarray(spec["vector"], dtype=float) if "vector" in spec else None,
            latitude_deg=float(spec.get("latitude_deg", 0.0)),
            winding=int(spec.get("winding", 1)),
        )


def _eval_points(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Active node indices and the positions where data is evaluated.

    Interior nodes use their own coordinates; boundary nodes use the
    nearest point of the true boundary (Dirichlet imposition rule).
    """
    coords = grid.coords()
    idx = np.concatenate([grid.interior_flat, grid.boundary_flat])
    pts = np.vstack([coords[grid.interior_flat], grid.boundary_projections()])
    return idx, pts


def check_initial(init: InitialData, d: int, D: int) -> None:
    """Raise DimensionMismatch when ``init`` has no field on a d-dimensional
    domain with target dimension D; ``generate`` and config load both call
    it.  Custom samples are checked against the lattice in ``generate``."""
    if D < 1:
        raise DimensionMismatch("target dimension D must be >= 1")
    if init.kind == "constant" and init.vector is not None \
            and np.shape(init.vector) != (D + 1,):
        raise DimensionMismatch(f"constant vector must have {D + 1} components")
    if init.kind == "equator-hedgehog":
        if d != 3:
            raise DimensionMismatch("hedgehog data is defined for d = 3")
        if D < 2:
            raise DimensionMismatch("hedgehog data needs D >= 2")


def generate(init: InitialData, grid: Grid, D: int) -> SphereField:
    """Build a unit-norm field of the requested family on the grid."""
    check_initial(init, grid.d, D)
    ncomp = D + 1
    try:
        values = np.zeros(grid.shape + (ncomp,))
    except (MemoryError, ValueError) as e:
        raise DimensionMismatch(
            f"cannot allocate {ncomp} components on a {grid.shape} lattice: {e}") from e
    flat = values.reshape(-1, ncomp)
    idx, pts = _eval_points(grid)
    meta: dict = {"kind": init.kind}

    if init.kind == "constant":
        flat[idx] = init.vector if init.vector is not None else np.eye(ncomp)[-1]

    elif init.kind == "cap":
        # range confined to the polar cap of the given angular radius:
        # v linear in x, u the inverse stereographic image of v
        theta = np.deg2rad(init.latitude_deg)
        c = 0.5 * (np.stack(grid.domain.bounding_box(), axis=0).sum(axis=0))
        r0 = grid.domain.diameter / 2.0
        m = min(grid.d, D)
        v = np.zeros((pts.shape[0], D))
        v[:, :m] = np.tan(theta / 2.0) * (pts[:, :m] - c[:m]) / r0
        s = np.einsum("ij,ij->i", v, v)
        flat[idx, :D] = 2.0 * v / (1.0 + s)[:, None]
        flat[idx, D] = (1.0 - s) / (1.0 + s)

    elif init.kind == "equator-hedgehog":
        n = np.linalg.norm(pts, axis=1)
        center = np.argmin(n)
        safe = n.copy()
        safe[safe == 0] = 1.0
        flat[idx, :3] = pts / safe[:, None]
        if n[center] == 0.0:
            fill = np.zeros(ncomp)
            fill[2] = 1.0
            flat[idx[center]] = fill
            meta["center_flat_index"] = int(idx[center])
            meta["center_value"] = fill.tolist()

    elif init.kind == "boundary-wrap":
        c = 0.5 * (np.stack(grid.domain.bounding_box(), axis=0).sum(axis=0))
        th = init.winding * np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0])
        flat[idx, 0] = np.cos(th)
        flat[idx, 1] = np.sin(th)
        meta["winding"] = init.winding

    elif init.kind == "custom-samples":
        if init.samples is None:
            raise DimensionMismatch("custom-samples requires a sample array")
        samples = np.asarray(init.samples, dtype=float)
        if samples.shape != values.shape:
            raise DimensionMismatch(
                f"sample array shape {samples.shape} != lattice shape {values.shape}")
        flat[idx] = samples.reshape(-1, ncomp)[idx]

    else:
        raise DimensionMismatch(f"unknown initial data kind {init.kind!r}")

    out = SphereField(grid=grid, values=values, target_dim=D, metadata=meta)
    return project_to_sphere(out)


def project_to_sphere(f: SphereField) -> SphereField:
    """Normalize every active node to the unit sphere, in a copy.

    Not bitwise idempotent: renormalizing a unit vector can move it by an
    ulp, so projecting twice agrees with projecting once to ~1e-16.
    """
    out = f.copy()
    flat = out.flat()
    idx = f.grid.active_flat
    flat[idx] = normalize_rows(flat[idx], idx)
    return out


def normalize_rows(v: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Divide each row of ``v``, the values at flat nodes ``idx``, by its
    norm, in place; returns ``v``.  Raises NearZeroVector on a row of norm
    below 1e-14."""
    norms = np.sqrt(np.einsum("ij,ij->i", v, v))
    bad = norms < 1e-14
    if np.any(bad):
        raise NearZeroVector(
            f"cannot project node(s) at flat index {idx[np.flatnonzero(bad)[:5]].tolist()}")
    v /= norms[:, None]
    return v


def _check_same(a: SphereField, b: SphereField):
    if a.target_dim != b.target_dim or not a.grid.compatible(b.grid):
        raise GridMismatch("fields live on different grids or targets")


def l2_distance(a: SphereField, b: SphereField) -> float:
    """sqrt( sum over active nodes of |a-b|^2 h^d )."""
    _check_same(a, b)
    idx = a.grid.active_flat
    diff = a.flat()[idx] - b.flat()[idx]
    return float(np.sqrt(np.einsum("ij,ij->", diff, diff) * a.grid.cell_volume))


def dirichlet_energy(f: SphereField) -> float:
    """Link-based gradient energy: sum over links of |du/h|^2 h^d.

    Forward differences on lattice links, each link counted once; links
    touching boundary nodes use the Dirichlet value stored there.
    """
    g = f.grid
    flat = f.flat()
    total = 0.0
    for s, mask in zip(g.strides(), g.link_masks()):
        start = np.flatnonzero(mask)
        d = np.take(flat, start + s, axis=0)
        d -= np.take(flat, start, axis=0)
        total += float(np.einsum("ij,ij->", d, d))
    return total / g.h ** 2 * g.cell_volume


def gradient_squared_density(f: SphereField) -> np.ndarray:
    """Node-wise |grad u|^2, half-link attribution, at interior nodes.

    Each lattice link contributes its forward-difference square to both
    endpoints with weight 1/2, so the node sum reproduces the link energy
    up to half-weighted boundary links.  Single-spacing chords degrade
    far less than central differences near direction-field singularities.
    Returns a flat lattice array, zero off the interior; interior axis
    neighbors are interior or boundary, so stencils always read defined
    values.
    """
    g = f.grid
    flat = f.flat()
    idx = g.interior_flat
    rows = np.take(flat, idx, axis=0)
    acc = np.zeros(idx.shape[0])
    for s in g.strides():
        d = np.take(flat, idx + s, axis=0)
        d -= rows
        up = np.einsum("ij,ij->i", d, d)          # link (i, i + s)
        d = np.take(flat, idx - s, axis=0)
        np.subtract(rows, d, out=d)
        down = np.einsum("ij,ij->i", d, d)        # link (i - s, i)
        acc += 0.5 * (up + down) / g.h ** 2
    out = np.zeros(g.n_lattice)
    out[idx] = acc
    return out


def norm_squared_flat(f: SphereField) -> np.ndarray:
    """Node-wise |u|^2 on the full lattice (flat)."""
    flat = f.flat()
    return np.einsum("ij,ij->i", flat, flat)
