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

Snapshots.  A run's snapshot has one form, ``KeptSnapshot``: interior
rows, a read-only map of the snapshot's ``.f64`` file (``io``) or an
in-memory copy, and the run's shared boundary rows.
Its readers take rows where they can (interior, boundary or active rows,
a span of the lattice), none of which rebuilds the lattice.
"""

from __future__ import annotations

import math
import mmap
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ConfigError, DimensionMismatch, GridMismatch, NearZeroVector,
                     NonFiniteVector, finite, integer, numbers, section)
from .geometry import BLOCK_NODES, Grid, put_rows, rowsq, scale_rows


@dataclass
class SphereField:
    """Map from grid nodes into R^{D+1}, nominally sphere-valued.

    Values are stored on the full lattice, shape grid.shape + (D+1,);
    exterior nodes hold zeros and are never read by any operation.
    Construction raises DimensionMismatch on values of another lattice shape.
    A run's snapshots are ``KeptSnapshot``s, whose values are read-only,
    but for the last snapshot of a run with no store, the run's own field.
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
        # interior_flat[pos] checked pos; "clip" spares a copy of out
        return np.take(self.flat(), idx, axis=0, out=out, mode="clip")

    def boundary_rows(self) -> np.ndarray:
        """The rows at the boundary nodes, in ``grid.boundary_flat`` order,
        as a new array."""
        return self.rows(self.grid.boundary_flat)

    def max_norm(self) -> float:
        v = self.active_values()
        return float(np.sqrt(np.max(rowsq(v, scratch=v))))

    @contextmanager
    def held(self):
        """The field, for several reads that count as one."""
        yield self

    def _span(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """The rows of flat indices [lo, hi), in ``out`` (a buffer of at
        least hi - lo rows) or a view; only the active rows are defined."""
        return self.flat()[lo:hi]

    def _read(self, out):
        return out


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
    """A field held as its rows: its interior rows (``interior_flat``
    order) and its boundary rows (``boundary_flat`` order).

    The one form of a run's snapshots: the interior rows are a read-only
    map of the snapshot's ``.f64`` file (``io.SnapshotStore``) or, with no
    store or past the store's map budget, a copy of the flow's rows; the
    boundary rows are one array that every snapshot of the run shares.  A
    run's initial field (``cli.ExperimentConfig.build_initial``) is the
    two arrays of ``initial_rows``, a ``custom-samples`` snapshot its two
    files (``io.read_rows``).

    ``values`` is a new read-only lattice on every read
    (``lattice_values``), so a reader that needs it twice holds it; the
    other reads rebuild nothing and give the bytes the lattice would.
    Each read of the rows copies what it reads, then drops their map's
    pages (``_SnapshotMap.release``), or once at the end of a ``held``
    block.  Memory per snapshot is at most its interior rows.
    """

    def __init__(self, grid: Grid, rows: np.ndarray, boundary_rows: np.ndarray):
        self.grid = grid
        self._rows = rows
        self._boundary_rows = boundary_rows

    def _read(self, out):
        """``out``, once the rows' map, if any, has dropped its pages."""
        if isinstance(self._rows.base, _SnapshotMap):
            self._rows.base.release()
        return out

    @contextmanager
    def held(self):
        """A twin whose reads leave the map's pages in, dropped when the
        block ends."""
        try:
            yield _HeldSnapshot(self.grid, self._rows, self._boundary_rows)
        finally:
            self._read(None)

    @property
    def values(self) -> np.ndarray:
        values = lattice_values(self.grid, self._rows, self._boundary_rows)
        values.flags.writeable = False
        return self._read(values)

    @property
    def ncomp(self) -> int:
        return self._rows.shape[1]

    def interior_rows(self, pos=None, out=None) -> np.ndarray:
        if pos is not None:
            # checked once; "clip" spares a copy of out
            pos, n = np.asarray(pos), self._rows.shape[0]
            if pos.size and not (pos.min() >= 0 and pos.max() < n):
                raise IndexError(f"interior positions must lie in [0, {n})")
            out = np.take(self._rows, pos, axis=0, out=out, mode="clip")
        elif out is None:
            out = self._rows.copy()
        else:
            np.copyto(out, self._rows)
        return self._read(out)

    def boundary_rows(self) -> np.ndarray:
        return self._boundary_rows.copy()

    def active_values(self) -> np.ndarray:
        inner = self.grid.active_is_interior()
        out = np.empty((inner.size, self.ncomp), dtype=self._rows.dtype)
        put_rows(out, inner, self._rows)
        put_rows(out, ~inner, self._boundary_rows)
        return self._read(out)

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
        return self._read(out)

    def _span(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        # exterior rows are left as the buffer holds them; the index buffer
        # is asked at out's length, so a wider later span does not remap it
        span = out[:hi - lo]
        g = self.grid
        with scratch() as sc:
            for flat, src in ((g.interior_flat, self._rows),
                              (g.boundary_flat, self._boundary_rows)):
                a, b = np.searchsorted(flat, [lo, hi])
                at = sc.get("at", (out.shape[0],), np.intp)[:b - a]
                put_rows(span, np.subtract(flat[a:b], lo, out=at), src[a:b])
        return span

    def hand_over(self) -> tuple:
        """The interior and boundary rows themselves, given up: the snapshot
        holds no rows afterwards, so a caller that overwrites them
        (``flow.run_glhf(..., handover=True)``) leaves no field that reads
        them."""
        rows, bnd = self._rows, self._boundary_rows
        self._rows = self._boundary_rows = None
        return rows, bnd


class _HeldSnapshot(KeptSnapshot):
    def _read(self, out):
        return out


class _SnapshotMap(mmap.mmap):
    """A read-only map of a snapshot's ``.f64`` file of interior rows; only
    ``io.SnapshotStore`` makes one."""

    def release(self) -> None:
        """Drop the map's page-table entries (``MADV_DONTNEED``, where
        ``mmap`` has it).  The pages stay in the page cache for the next
        read, but leave the resident set, which on kernels that map whole
        large page-cache folios would grow by 2 MiB folios for a few rows."""
        if hasattr(mmap, "MADV_DONTNEED"):
            self.madvise(mmap.MADV_DONTNEED)


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
        parts[1][:] = init.samples.boundary_rows()
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
    NaN or an infinity) and NearZeroVector on a row of norm below
    NORM_FLOOR, as ``_normalize`` does.
    """
    out = f.copy()
    idx = f.grid.active_flat
    rows = f.rows(idx)
    _normalize([(rows, idx)])
    put_rows(out.flat(), idx, rows)
    return out


def _normalize(parts: list) -> None:
    """Divide each row of every ``(rows, flat indices)`` pair by its norm,
    in place.  Every pair is checked before any row is divided:
    NonFiniteVector on rows whose squared norm is not finite, then
    NearZeroVector on rows of norm below NORM_FLOOR, each naming the first
    five such flat indices in ascending order."""
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


class Scratch:
    """Named buffers refilled across calls, each grown to the largest shape
    asked of it, zero when made, and remade for another dtype.  They are
    private anonymous maps, so their pages go back to the system with the
    scratch, where a freed heap block may stay resident."""

    def __init__(self):
        self._bufs = {}

    def get(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        """Buffer ``name`` as an array of ``shape``, holding what its last
        user left there."""
        n = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < n or buf.dtype != dtype:
            buf = self._bufs[name] = np.frombuffer(
                mmap.mmap(-1, max(n, 1) * np.dtype(dtype).itemsize), dtype=dtype)
        return buf[:n].reshape(shape)


_pass_scratch: ContextVar[Optional[Scratch]] = ContextVar("_pass_scratch", default=None)


@contextmanager
def scratch():
    """The scratch of the pass in progress, or a new one for this block."""
    sc = _pass_scratch.get()
    if sc is not None:
        yield sc
        return
    sc = Scratch()
    token = _pass_scratch.set(sc)
    try:
        yield sc
    finally:
        _pass_scratch.reset(token)


def gradient_squared_density(f: SphereField, nodes=None) -> np.ndarray:
    """Node-wise |grad u|^2, half-link attribution, one value per interior
    node in ``grid.interior_flat`` order, or per position in ``nodes``
    (positions into ``interior_flat``, as ``Grid.nodes_within`` returns).

    Each lattice link contributes its forward-difference square to both
    endpoints with weight 1/2, so the node sum reproduces the link energy
    up to half-weighted boundary links.  Single-spacing chords degrade
    far less than central differences near direction-field singularities.
    Interior axis neighbors are interior or boundary, so stencils always
    read defined values.  The nodes are taken in flat order, at most
    ``geometry.BLOCK_NODES`` at a time within max(4 BLOCK_NODES, s0)
    lattice nodes (s0 the first-axis stride); each block reads its span
    [first - s0, last + s0] (``_span``).  A block holding at least
    1/``LINK_ONCE_SPAN`` of its span squares each link there once per
    axis and reads it from both ends; a sparser one (a ball's) squares
    its nodes' two links per axis.  Either is the same bits, so the
    density at ``nodes`` is the whole density sliced there; the buffers
    are the pass's ``scratch``.
    """
    g = f.grid
    reach = int(g.strides()[0])
    idx, order = g.interior_flat, None
    if nodes is not None:
        idx = idx[nodes]
        order = np.argsort(idx, kind="stable")
        idx = idx[order]
    out = np.zeros(idx.shape[0])
    width = max(4 * BLOCK_NODES, reach)
    cap, lo = width + 2 * reach, 0          # a block's span has at most cap rows
    with scratch() as sc:
        while lo < idx.size:
            hi = min(lo + BLOCK_NODES, int(np.searchsorted(idx, idx[lo] + width)))
            base = int(idx[lo]) - reach
            n = int(idx[hi - 1]) + reach + 1 - base
            # asked at cap rows, the span and link buffers are never remapped;
            # a map's pages fault on first touch
            span = f._span(base, base + n, sc.get("span", (cap, f.ncomp)))
            block = np.subtract(idx[lo:hi], base, out=sc.get("block", (hi - lo,), np.intp))
            up, down = sc.get("up", (hi - lo,)), sc.get("down", (hi - lo,))
            once = n <= LINK_ONCE_SPAN * (hi - lo)
            if not once:
                rows = np.take(span, block, axis=0, out=sc.get("rows", (hi - lo, f.ncomp)),
                               mode="clip")
            for s in g.strides():
                if once:
                    _links_once(span, block, s, reach, sc.get("link", (cap,)), up, down, sc)
                else:
                    _links_of_nodes(span, rows, block, s, up, down, sc)
                up += down
                up *= 0.5
                up /= g.h ** 2
                out[lo:hi] += up
            lo = hi
    if order is not None:
        out[order] = out.copy()
    return f._read(out)


# a block squares every link of its span once when its nodes are at least
# 1/LINK_ONCE_SPAN of the span's rows: at 3-D h = 1/32 that was faster at
# 3.5 span rows per node and slower at 4.7
LINK_ONCE_SPAN = 4


def _links_once(span, block, s, reach, link, up, down, sc):
    """``up`` and ``down``: the squares of the links (i, i + s) and (i - s, i)
    at the span rows i in ``block``, from every link of the span squared once
    into ``link`` (link[j + s] the square of link (j, j + s), j from s0 - s
    to n - s0 - 1)."""
    n = span.shape[0]
    for a in range(reach - s, n - reach, BLOCK_NODES):
        b = min(a + BLOCK_NODES, n - reach)
        d = np.subtract(span[a + s:b + s], span[a:b], out=sc.get("diff", (b - a, span.shape[1])))
        rowsq(d, scratch=d, out=link[a + s:b + s])
    # the indices are in range; "clip" spares np.take a copy of its output
    np.take(link[s:], block, out=up, mode="clip")
    np.take(link, block, out=down, mode="clip")


def _links_of_nodes(span, rows, block, s, up, down, sc):
    """``_links_once``'s squares from the rows at ``block`` (``rows``) and
    each node's two neighbours along the axis of stride s."""
    d = sc.get("diff", rows.shape)
    at = sc.get("near", block.shape, np.intp)
    np.take(span, np.add(block, s, out=at), axis=0, out=d, mode="clip")
    d -= rows
    rowsq(d, scratch=d, out=up)
    np.take(span, np.subtract(block, s, out=at), axis=0, out=d, mode="clip")
    np.subtract(rows, d, out=d)
    rowsq(d, scratch=d, out=down)
