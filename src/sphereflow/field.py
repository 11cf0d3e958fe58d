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

Initial data.  ``initial_rows`` evaluates a family at the interior node
positions (``Grid.node_coords``) and at the boundary projections, and
normalizes the two row arrays in place, so no lattice-sized array is made
on the way; ``generate`` puts them on one lattice (``lattice_values``).  A
run of the command line starts from the rows alone
(``cli.ExperimentConfig.build_initial``), and the flow builds its own
field from them.  Either way the bits are those of normalizing the
family's values on the whole lattice (``project_to_sphere``): every step
is row by row.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ConfigError, DimensionMismatch, GridMismatch, NearZeroVector,
                     NonFiniteVector, finite, integer, numbers, section)
from .geometry import Grid, put_rows, rowsq, scale_rows


@dataclass
class SphereField:
    """Map from grid nodes into R^{D+1}, nominally sphere-valued.

    Values are stored on the full lattice, shape grid.shape + (D+1,);
    exterior nodes hold zeros and are never read by any operation.
    Construction raises DimensionMismatch on values of another lattice shape.
    A run's snapshots may be ``KeptSnapshot``s or maps of files
    (``io.map_snapshot``), whose values are read-only.
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

    def rows(self, nodes: np.ndarray) -> np.ndarray:
        """The rows at the flat lattice indices ``nodes``, as a new array."""
        return np.take(self.flat(), nodes, axis=0)

    def active_values(self) -> np.ndarray:
        return self.rows(self.grid.active_flat)

    def interior_rows(self, pos=None, out=None) -> np.ndarray:
        """The rows at the interior nodes, in ``grid.interior_flat`` order,
        or at the positions ``pos`` into it, in ``out`` or a new array that
        the caller may overwrite."""
        idx = self.grid.interior_flat if pos is None else self.grid.interior_flat[pos]
        return np.take(self.flat(), idx, axis=0, out=out)

    def max_norm(self) -> float:
        v = self.active_values()
        return float(np.sqrt(np.max(rowsq(v, scratch=v))))


def lattice_values(grid: Grid, rows: np.ndarray, boundary_rows: np.ndarray) -> np.ndarray:
    """The lattice values of a field from its interior rows (``interior_flat``
    order) and boundary rows (``boundary_flat`` order), exterior rows zero;
    a byte copy, with no arithmetic."""
    ncomp = rows.shape[1]
    values = _zeros(grid.shape + (ncomp,), grid, rows.dtype)
    flat = values.reshape(-1, ncomp)
    put_rows(flat, grid.interior_flat, rows)
    put_rows(flat, grid.boundary_flat, boundary_rows)
    return values


def _zeros(shape: tuple, grid: Grid, dtype=float) -> np.ndarray:
    """``np.zeros(shape, dtype)`` for a field of ``shape[-1]`` components on
    ``grid``; DimensionMismatch where it cannot be allocated."""
    try:
        return np.zeros(shape, dtype=dtype)
    except (MemoryError, ValueError) as e:
        raise DimensionMismatch(f"cannot allocate {shape[-1]} components on a "
                                f"{grid.shape} lattice: {e}") from e


class KeptSnapshot(SphereField):
    """A field held as its rows: a snapshot of a store-less run, its own
    interior rows and the run's boundary rows, one array that every kept
    snapshot of the run shares, since no step writes a boundary row; or a
    run's initial field (``cli.ExperimentConfig.build_initial``), the two
    arrays of ``initial_rows``.

    ``values`` is the lattice rebuilt from the two by ``lattice_values`` on
    first read, read-only; ``release_pages`` drops it, and the next read
    rebuilds the same bytes.  ``ncomp``, ``interior_rows``, ``rows`` and
    ``active_values`` rebuild nothing, and give the bytes the lattice would.
    Memory per snapshot is its interior rows, not a lattice.
    """

    def __init__(self, grid: Grid, rows: np.ndarray, boundary_rows: np.ndarray):
        self.grid = grid
        self._rows = rows
        self._boundary_rows = boundary_rows
        self._values = None

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = lattice_values(self.grid, self._rows, self._boundary_rows)
            self._values.flags.writeable = False
        return self._values

    @property
    def ncomp(self) -> int:
        return self._rows.shape[1]

    def interior_rows(self, pos=None, out=None) -> np.ndarray:
        if pos is None:
            if out is None:
                return self._rows.copy()
            np.copyto(out, self._rows)
            return out
        return np.take(self._rows, pos, axis=0, out=out)

    def rows(self, nodes: np.ndarray) -> np.ndarray:
        # each node's row is found among the interior, then the boundary
        # rows; an exterior node's row reads 0
        g = self.grid
        out = np.zeros((len(nodes), self.ncomp), dtype=self._rows.dtype)
        for flat, src in ((g.interior_flat, self._rows),
                          (g.boundary_flat, self._boundary_rows)):
            pos = np.minimum(np.searchsorted(flat, nodes), flat.size - 1)
            hit = np.flatnonzero(flat[pos] == nodes)
            put_rows(out, hit, np.take(src, pos[hit], axis=0))
        return out


class _SnapshotMap(mmap.mmap):
    """A read-only map of a snapshot's ``.f64`` file; only
    ``io.map_snapshot`` makes one, so ``release_pages`` knows a map it may
    release."""


def release_pages(f: SphereField) -> None:
    """Drop what a read of ``f`` brought into memory: the rebuilt lattice of
    a ``KeptSnapshot``, and the page-table entries of a map made by
    ``io.map_snapshot`` (``MADV_DONTNEED`` on the whole map); nothing
    otherwise, and nothing where ``mmap`` has no ``madvise``.  The values do
    not change: a kept snapshot rebuilds the same bytes, and a map's file
    pages stay in the page cache, so the next read maps them again."""
    if isinstance(f, KeptSnapshot):
        f._values = None
        return
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
        if vector is not None and not (_finite_rows(np.atleast_2d(vector)).all()
                                       and np.linalg.norm(vector) >= NORM_FLOOR):
            raise ConfigError(f"initial.vector must be finite, with a finite squared "
                              f"norm, and nonzero, got {spec['vector']!r}")
        return InitialData(
            kind=kind, vector=vector,
            latitude_deg=finite("initial.latitude_deg", spec.get("latitude_deg", 0.0)),
            winding=integer("initial.winding", spec.get("winding", 1)))


def check_initial(init: InitialData, d: int, D: int) -> None:
    """Raise DimensionMismatch when ``init`` has no field on a d-dimensional
    domain with target dimension D, and NonFiniteVector on a constant vector
    whose squared norm is not finite; ``initial_rows`` and config load both
    call it.  Custom samples are checked against the grid in
    ``initial_rows``."""
    if D < 1:
        raise DimensionMismatch("target dimension D must be >= 1")
    if init.kind == "constant" and init.vector is not None:
        if np.shape(init.vector) != (D + 1,):
            raise DimensionMismatch(f"constant vector must have {D + 1} components")
        if not _finite_rows(np.atleast_2d(init.vector)).all():
            raise NonFiniteVector(f"constant vector {np.asarray(init.vector).tolist()} has no "
                                  f"finite squared norm")
    if init.kind == "equator-hedgehog":
        if d != 3:
            raise DimensionMismatch("hedgehog data is defined for d = 3")
        if D < 2:
            raise DimensionMismatch("hedgehog data needs D >= 2")


def initial_rows(init: InitialData, grid: Grid, D: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit-norm field of the requested family on the grid, as its
    interior rows (``interior_flat`` order) and its boundary rows
    (``boundary_flat`` order), two new arrays.

    Interior nodes take the data at their own positions, boundary nodes at
    the nearest point of the true boundary (``Grid.boundary_projections``,
    the Dirichlet imposition rule).  Custom samples must live on a grid
    ``compatible`` with it (GridMismatch) and hold D + 1 components
    (DimensionMismatch).  The rows are normalized as ``project_to_sphere``
    normalizes a field's, with the same errors.
    """
    check_initial(init, grid.d, D)
    ncomp = D + 1
    idx = (grid.interior_flat, grid.boundary_flat)
    parts = [_zeros((i.size, ncomp), grid) for i in idx]
    kind = init.kind

    if kind == "custom-samples":
        if init.samples is None:
            raise DimensionMismatch("custom-samples requires a sample field")
        if not init.samples.grid.compatible(grid):
            raise GridMismatch("custom samples live on another grid than the run's")
        if init.samples.ncomp != ncomp:
            raise DimensionMismatch(f"custom samples hold {init.samples.ncomp} "
                                    f"components, the run {ncomp}")
        parts[0][:] = init.samples.interior_rows()
        parts[1][:] = init.samples.rows(grid.boundary_flat)
    elif kind not in INITIAL_KINDS:
        raise DimensionMismatch(f"unknown initial data kind {kind!r}")
    else:
        norms = []
        for out, pts in zip(parts, (grid.node_coords(grid.interior_flat),
                                    grid.boundary_projections())):
            if kind == "constant":
                out[:] = init.vector if init.vector is not None else np.eye(ncomp)[-1]

            elif kind == "cap":
                # range confined to the polar cap of the given angular radius:
                # v linear in x, u the inverse stereographic image of v
                theta = np.deg2rad(init.latitude_deg)
                c = grid.domain.center()
                r0 = grid.domain.diameter / 2.0
                m = min(grid.d, D)
                v = np.zeros((pts.shape[0], D))
                v[:, :m] = np.tan(theta / 2.0) * (pts[:, :m] - c[:m]) / r0
                from .stereo import stereo_inverse      # stereo imports this module
                out[:] = stereo_inverse(v)

            elif kind == "equator-hedgehog":
                n = np.linalg.norm(pts, axis=1)
                norms.append(n)
                scale_rows(pts, np.where(n == 0, 1.0, n), out=out[:, :3])

            else:                                       # boundary-wrap
                c = grid.domain.center()
                th = init.winding * np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0])
                out[:, 0] = np.cos(th)
                out[:, 1] = np.sin(th)

        if kind == "equator-hedgehog":
            # the node nearest the origin (interior rows first), if it lies
            # at the origin, points along the third axis
            n = np.concatenate(norms)
            c = int(np.argmin(n))
            if n[c] == 0.0:
                k = int(c >= idx[0].size)
                parts[k][c - k * idx[0].size] = np.eye(ncomp)[2]

    _normalize(list(zip(parts, idx)))
    return parts[0], parts[1]


def generate(init: InitialData, grid: Grid, D: int) -> SphereField:
    """The field of ``initial_rows`` on the grid's lattice, exterior rows
    zero, writable; it raises as ``initial_rows`` does."""
    return SphereField(grid, lattice_values(grid, *initial_rows(init, grid, D)))


def project_to_sphere(f: SphereField) -> SphereField:
    """Normalize every active node to the unit sphere, in a copy.

    Not bitwise idempotent: renormalizing a unit vector can move it by an
    ulp, so projecting twice agrees with projecting once to ~1e-16.  Raises
    NonFiniteVector on a row whose squared norm is not finite (overflow,
    NaN or an infinity) and NearZeroVector as ``normalize_rows`` does.
    """
    out = f.copy()
    idx = f.grid.active_flat
    rows = f.rows(idx)
    _normalize([(rows, idx)])
    put_rows(out.flat(), idx, rows)
    return out


def _normalize(parts: list) -> None:
    """Divide each row of every ``(rows, flat indices)`` pair by its norm,
    in place, as ``normalize_rows`` does.  Every pair is checked before any
    row is divided: NonFiniteVector on rows whose squared norm is not
    finite, then NearZeroVector on rows of norm below NORM_FLOOR, each
    naming the first five such flat indices in ascending order."""
    def refuse(bad: list, error, why: str) -> None:
        flagged = np.sort(np.concatenate([i[b] for (_, i), b in zip(parts, bad)]))
        if flagged.size:
            raise error(f"cannot project node(s) at flat index {flagged[:5].tolist()}{why}")

    with np.errstate(over="ignore", invalid="ignore"):
        norms = [rowsq(v) for v, _ in parts]
    refuse([~np.isfinite(n) for n in norms], NonFiniteVector,
           ": the squared norm is not finite")
    norms = [np.sqrt(n, out=n) for n in norms]
    refuse([n < NORM_FLOOR for n in norms], NearZeroVector, "")
    for (v, _), n in zip(parts, norms):
        scale_rows(v, n)


def _finite_rows(v: np.ndarray) -> np.ndarray:
    """Per row of ``v``, whether its |v|^2 as ``rowsq`` computes it is
    finite; an overflow reads False, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.isfinite(rowsq(v))


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
    diff = a.active_values()
    diff -= b.active_values()
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
