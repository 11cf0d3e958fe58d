"""Discrete sphere-valued fields, initial-data generators, projection, norms.

Data path.  Every per-row |v|^2 of the package (for the flow's norm
reaction and sup-norm guard, ``SphereField.max_norm``, the link and
penalty densities, the geometry's ball and domain tests, the chart's
|v|^2) is ``geometry.rowsq``, and every product or quotient of each row
with a per-row scalar is ``geometry.scale_rows``.  Both work one column at
a time, so each sum and quotient has one definition and no broadcast inner
loop.  Whole rows are gathered with ``np.take(..., axis=0)`` and scattered
with ``geometry.put_rows``, which move the same bits as fancy indexing in
a fraction of its time.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ConfigError, DimensionMismatch, GridMismatch, NearZeroVector,
                     finite, integer, numbers, section)
from .geometry import Grid, put_rows, rowsq, scale_rows


@dataclass
class SphereField:
    """Map from grid nodes into R^{D+1}, nominally sphere-valued.

    Values are stored on the full lattice, shape grid.shape + (D+1,);
    exterior nodes hold zeros and are never read by any operation.
    Construction raises DimensionMismatch on values of another lattice shape.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape[:-1] != self.grid.shape:
            raise DimensionMismatch(f"values of shape {self.values.shape} do not fit "
                                    f"the lattice shape {self.grid.shape}")

    @property
    def ncomp(self) -> int:
        """D + 1, the number of components of a value."""
        return self.values.shape[-1]

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1, self.ncomp)

    def copy(self) -> "SphereField":
        return SphereField(self.grid, self.values.copy())

    def active_values(self) -> np.ndarray:
        return np.take(self.flat(), self.grid.active_flat, axis=0)

    def max_norm(self) -> float:
        v = self.active_values()
        return float(np.sqrt(np.max(rowsq(v, scratch=v))))


class _SnapshotMap(mmap.mmap):
    """A read-only map of a snapshot's ``.f64`` file; only
    ``io.map_snapshot`` makes one, so ``release_pages`` knows a map it may
    release."""


def release_pages(f: SphereField) -> None:
    """Drop the page-table entries of ``f``'s map when its values are a map
    made by ``io.map_snapshot`` (``MADV_DONTNEED`` on the whole map);
    nothing otherwise, and nothing where ``mmap`` has no ``madvise``.  The
    values do not change: the file's pages stay in the page cache, and the
    next read maps them again."""
    mm = f.values.base
    if isinstance(mm, _SnapshotMap) and hasattr(mmap, "MADV_DONTNEED"):
        mm.madvise(mmap.MADV_DONTNEED)


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
    samples: Optional[SphereField] = None    # custom-samples, on the run's grid

    @staticmethod
    def from_config(spec: dict) -> "InitialData":
        """The initial data of a config's ``initial`` section (its ``path``
        is the CLI's); ConfigError on a key it does not read and on a bad
        kind or value."""
        section("initial", spec, ("kind", "vector", "latitude_deg", "winding", "path"))
        kind = spec["kind"]
        if kind not in INITIAL_KINDS:
            raise ConfigError(f"unknown initial data kind {kind!r}; "
                              f"expected one of {', '.join(INITIAL_KINDS)}")
        vector = numbers("initial.vector", spec["vector"]) if "vector" in spec else None
        if vector is not None and not (np.all(np.isfinite(vector))
                                       and np.linalg.norm(vector) >= NORM_FLOOR):
            raise ConfigError(f"initial.vector must be finite and nonzero, "
                              f"got {spec['vector']!r}")
        return InitialData(
            kind=kind, vector=vector,
            latitude_deg=finite("initial.latitude_deg", spec.get("latitude_deg", 0.0)),
            winding=integer("initial.winding", spec.get("winding", 1)))


def _eval_points(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Active node indices and the positions where data is evaluated.

    Interior nodes use their own coordinates; boundary nodes use the
    nearest point of the true boundary (Dirichlet imposition rule).
    """
    idx = np.concatenate([grid.interior_flat, grid.boundary_flat])
    pts = np.vstack([grid.interior_coords, grid.boundary_projections()])
    return idx, pts


def check_initial(init: InitialData, d: int, D: int) -> None:
    """Raise DimensionMismatch when ``init`` has no field on a d-dimensional
    domain with target dimension D; ``generate`` and config load both call
    it.  Custom samples are checked against the grid in ``generate``."""
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
    """Build a unit-norm field of the requested family on the grid.  Custom
    samples must live on a grid ``compatible`` with it (GridMismatch) and
    hold D + 1 components (DimensionMismatch)."""
    check_initial(init, grid.d, D)
    ncomp = D + 1
    try:
        values = np.zeros(grid.shape + (ncomp,))
    except (MemoryError, ValueError) as e:
        raise DimensionMismatch(
            f"cannot allocate {ncomp} components on a {grid.shape} lattice: {e}") from e
    flat = values.reshape(-1, ncomp)
    idx, pts = _eval_points(grid)

    if init.kind == "constant":
        flat[idx] = init.vector if init.vector is not None else np.eye(ncomp)[-1]

    elif init.kind == "cap":
        # range confined to the polar cap of the given angular radius:
        # v linear in x, u the inverse stereographic image of v
        theta = np.deg2rad(init.latitude_deg)
        c = grid.domain.center()
        r0 = grid.domain.diameter / 2.0
        m = min(grid.d, D)
        v = np.zeros((pts.shape[0], D))
        v[:, :m] = np.tan(theta / 2.0) * (pts[:, :m] - c[:m]) / r0
        from .stereo import stereo_inverse      # stereo imports this module
        put_rows(flat, idx, stereo_inverse(v))

    elif init.kind == "equator-hedgehog":
        n = np.linalg.norm(pts, axis=1)
        center = np.argmin(n)
        safe = n.copy()
        safe[safe == 0] = 1.0
        flat[idx, :3] = scale_rows(pts, safe)
        if n[center] == 0.0:
            flat[idx[center]] = np.eye(ncomp)[2]

    elif init.kind == "boundary-wrap":
        c = grid.domain.center()
        th = init.winding * np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0])
        flat[idx, 0] = np.cos(th)
        flat[idx, 1] = np.sin(th)

    elif init.kind == "custom-samples":
        if init.samples is None:
            raise DimensionMismatch("custom-samples requires a sample field")
        if not init.samples.grid.compatible(grid):
            raise GridMismatch("custom samples live on another grid than the run's")
        if init.samples.ncomp != ncomp:
            raise DimensionMismatch(f"custom samples hold {init.samples.ncomp} "
                                    f"components, the run {ncomp}")
        rows = np.take(init.samples.flat(), idx, axis=0)
        put_rows(flat, idx, np.asarray(rows, dtype=float))

    else:
        raise DimensionMismatch(f"unknown initial data kind {init.kind!r}")

    return project_to_sphere(SphereField(grid=grid, values=values))


def project_to_sphere(f: SphereField) -> SphereField:
    """Normalize every active node to the unit sphere, in a copy.

    Not bitwise idempotent: renormalizing a unit vector can move it by an
    ulp, so projecting twice agrees with projecting once to ~1e-16.
    """
    out = f.copy()
    idx = f.grid.active_flat
    put_rows(out.flat(), idx, normalize_rows(np.take(f.flat(), idx, axis=0), idx))
    return out


NORM_FLOOR = 1e-14


def normalize_rows(v: np.ndarray, idx: np.ndarray,
                   scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Divide each row of ``v``, the values at flat nodes ``idx``, by its
    norm, in place; returns ``v``.  ``scratch`` is ``rowsq``'s.  Raises
    NearZeroVector on a row of norm below NORM_FLOOR."""
    norms = rowsq(v, scratch=scratch)
    np.sqrt(norms, out=norms)
    bad = norms < NORM_FLOOR
    if np.any(bad):
        raise NearZeroVector(
            f"cannot project node(s) at flat index {idx[np.flatnonzero(bad)[:5]].tolist()}")
    return scale_rows(v, norms)


def _check_same(a: SphereField, b: SphereField):
    if a.ncomp != b.ncomp or not a.grid.compatible(b.grid):
        raise GridMismatch("fields live on different grids or targets")


def l2_distance(a: SphereField, b: SphereField) -> float:
    """sqrt( sum over active nodes of |a-b|^2 h^d )."""
    _check_same(a, b)
    idx = a.grid.active_flat
    diff = np.take(a.flat(), idx, axis=0)
    diff -= np.take(b.flat(), idx, axis=0)
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


def gradient_squared_density(f: SphereField, nodes=None) -> np.ndarray:
    """Node-wise |grad u|^2, half-link attribution, one value per interior
    node in ``grid.interior_flat`` order, or per position in ``nodes``
    (positions into ``interior_flat``, as ``Grid.nodes_within`` returns).

    Each lattice link contributes its forward-difference square to both
    endpoints with weight 1/2, so the node sum reproduces the link energy
    up to half-weighted boundary links.  Single-spacing chords degrade
    far less than central differences near direction-field singularities.
    Interior axis neighbors are interior or boundary, so stencils always
    read defined values.  Every node's value is the same sequence of
    operations either way, so the density at ``nodes`` is the whole
    density sliced at ``nodes`` bit for bit.
    """
    g = f.grid
    flat = f.flat()
    idx = g.interior_flat if nodes is None else g.interior_flat[nodes]
    rows = np.take(flat, idx, axis=0)
    acc = np.zeros(idx.shape[0])
    for s in g.strides():
        d = np.take(flat, idx + s, axis=0)
        d -= rows
        up = rowsq(d, scratch=d)                  # link (i, i + s)
        d = np.take(flat, idx - s, axis=0)
        np.subtract(rows, d, out=d)
        down = rowsq(d, scratch=d)                # link (i - s, i)
        acc += 0.5 * (up + down) / g.h ** 2
    return acc
