"""Componentwise harmonic extension of boundary data and derivative energies.

The extension solves the 2d+1-point discrete Laplace equation at interior
nodes with values pinned at boundary nodes.  It is not sphere-valued and is
used as-is by the comparison diagnostics.  A derivative density differences
the lattice into one buffer per depth but the last, which it takes at its
region's nodes only.

The solver is matrix-free conjugate gradients on the SPD operator
``x -> 2d x - N x`` over the interior rows, where ``N x`` is the
neighbour sum ``Grid.neighbour_rows`` of x extended by zero, with every
component a column that carries its own step sizes; its vectors are updated
in place.  It starts from the boundary mean and iterates to rounding level,
whatever ``tol`` the caller asks for; ``tol`` only bounds the result: the
max-norm of the discrete Laplacian over the interior, divided by h^2, is at
most ``tol`` or ``NoConvergence`` names the residual reached.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dfield

import numpy as np

from .errors import GridMismatch, NoConvergence, OrderTooHighForGrid
from .field import SphereField
from .geometry import EXTERIOR, Grid, neighbor_sum, put_rows, rowsq

# per-column stop: 2-norm residual at most this fraction of the right-hand side's
CG_RTOL = 1e-14
# iteration cap of the solve; past it the residual contract decides
CG_MAX_ITER = 10_000
_ROWS_PER_LINE = 256       # of _by_column's view


@dataclass
class HarmonicExtension:
    """Discrete harmonic field with the achieved residual bookkeeping."""

    field: SphereField
    residual: float
    iterations: int
    # order -> density, filled by derivative_density; a replace() starts it empty
    _densities: dict = dfield(default_factory=dict, init=False, repr=False,
                              compare=False)

    @property
    def grid(self) -> Grid:
        return self.field.grid

    def derivative_density(self, order: int) -> np.ndarray:
        """``derivative_energy_density(self, order)``, computed once per
        order: every comparison against the extension reads the same ones."""
        if order not in self._densities:
            self._densities[order] = derivative_energy_density(self, order)
        return self._densities[order]


def _laplacian_residual(grid: Grid, flat: np.ndarray) -> float:
    """Max-norm of the discrete Laplacian over interior nodes and components."""
    res = grid.neighbour_rows(flat) - 2 * grid.d * np.take(flat, grid.interior_flat, axis=0)
    return float(np.max(np.abs(res), initial=0.0)) / grid.h ** 2


def _coldot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", a, b)


def _by_column(a: np.ndarray, coef: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a * coef`` for C-contiguous (n, m) ``a`` and ``out`` and an (m,)
    ``coef``, into ``out``: the broadcast's bits, with a long inner loop
    over lines of ``_ROWS_PER_LINE`` rows against the tiled ``coef``."""
    n, m = a.shape
    head = n - n % _ROWS_PER_LINE
    line = (-1, m * _ROWS_PER_LINE)
    np.multiply(a[:head].reshape(line), np.tile(coef, _ROWS_PER_LINE),
                out=out[:head].reshape(line))
    np.multiply(a[head:], coef, out=out[head:])
    return out


def solve_harmonic_extension(grid: Grid, boundary_data: SphereField,
                             tol: float = 1e-8, method: str = "direct"
                             ) -> HarmonicExtension:
    """Solve  -lap h = 0  at interior nodes, h = boundary data on the mask.

    One conjugate-gradient solve (see the module docstring); ``iterations``
    is its iteration count.  ``method`` accepts only ``"direct"``, the name
    the benchmark passes, and selects that same solver.  Raises GridMismatch
    unless ``boundary_data`` lives on a grid compatible with ``grid``.
    """
    if not grid.compatible(boundary_data.grid):
        raise GridMismatch("boundary data lives on another grid")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if method != "direct":
        raise ValueError(f"unknown solver method {method!r}")
    out = boundary_data.copy()
    flat = out.flat()
    idx, bnd = grid.interior_flat, grid.boundary_flat
    two_d = 2.0 * grid.d

    # right-hand side: the boundary neighbours of every interior row
    flat[idx] = 0.0
    b = grid.neighbour_rows(flat)
    ub = np.take(flat, bnd, axis=0)
    x = np.broadcast_to(ub.mean(axis=0), b.shape).copy()

    # the operator's input is the field itself with its boundary rows zeroed
    # until the solve ends; the interior stencils read no exterior node
    flat[bnd] = 0.0
    q, tmp = np.empty_like(b), np.empty_like(b)

    def apply(v: np.ndarray) -> np.ndarray:
        put_rows(flat, idx, v)
        np.multiply(two_d, v, out=q)
        return np.subtract(q, grid.neighbour_rows(flat, out=tmp), out=q)

    bb = _coldot(b, b)
    r = b                      # the residual takes b's array
    r -= apply(x)
    p = r.copy()
    rr = _coldot(r, r)
    # relative to the larger of |b| and the first residual, so a column with
    # b = 0 stops too; a stopped column keeps alpha = 0 and no longer moves
    stop = CG_RTOL ** 2 * np.maximum(bb, rr)
    it = 0
    while it < CG_MAX_ITER:
        live = rr > stop
        if not live.any():
            break
        it += 1
        apply(p)
        alpha = np.divide(rr, _coldot(p, q), out=np.zeros_like(rr), where=live)
        x += _by_column(p, alpha, tmp)
        r -= _by_column(q, alpha, tmp)
        rr_new = _coldot(r, r)
        _by_column(p, np.divide(rr_new, rr, out=np.zeros_like(rr), where=live), p)
        p += r
        rr = rr_new

    put_rows(flat, bnd, ub)
    put_rows(flat, idx, x)
    res = _laplacian_residual(grid, flat)
    if not res <= tol:
        raise NoConvergence(f"conjugate gradients stopped after {it} iterations "
                            f"with residual {res:.3e} above tolerance {tol:.1e}")
    return HarmonicExtension(field=out, residual=res, iterations=it)


def _depth_mask(grid: Grid, order: int) -> np.ndarray:
    """Lattice nodes whose order-cell l1-neighborhood stays in the active set."""
    ok = grid.class_flat() != EXTERIOR
    for _ in range(order):
        ok = ok & (neighbor_sum(ok.view(np.int8), grid.strides()) == 2 * grid.d)
    return ok


def derivative_energy_density(ext: HarmonicExtension | SphereField, order: int) -> np.ndarray:
    """|D^order u|^2 from repeated central differences, one value per
    interior node in ``grid.interior_flat`` order.

    The evaluation region shrinks by ``order`` cells from the boundary;
    interior nodes outside it carry zero.  The differences are whole-lattice
    but the last, taken at the region's nodes; the lattice faces hold
    wrapped values, which no region stencil reads.
    """
    f = ext.field if isinstance(ext, HarmonicExtension) else ext
    grid = f.grid
    if order < 1:
        raise ValueError("order must be >= 1")
    pos = np.flatnonzero(_depth_mask(grid, order)[grid.interior_flat])
    idx = grid.interior_flat[pos]
    if idx.size == 0:
        raise OrderTooHighForGrid(f"no interior nodes admit an order-{order} stencil")
    # the stride tuples go in lexicographic order; a tuple recomputes the
    # differences from its first stride that differs from the last tuple's,
    # each depth but the last into its lattice buffer, the last at the
    # region's nodes in _central_all's order
    flat = f.flat()
    diffs = [flat] + [np.zeros_like(flat) for _ in range(order - 1)]
    rows = np.empty((idx.size, flat.shape[1]))
    lo = np.empty_like(rows)
    at = np.empty_like(idx)
    sq = np.empty(idx.size)
    out = np.zeros(grid.n_interior)
    last = None
    for path in itertools.product(grid.strides(), repeat=order):
        first = 0 if last is None else [a == b for a, b in zip(path, last)].index(False)
        for depth in range(first, order - 1):
            _central_all(diffs[depth], path[depth], grid.h, diffs[depth + 1])
        last = path
        # the indices are in range; "clip" spares np.take a copy of its output
        np.take(diffs[-1], np.add(idx, path[-1], out=at), axis=0, out=rows, mode="clip")
        np.take(diffs[-1], np.subtract(idx, path[-1], out=at), axis=0, out=lo, mode="clip")
        rows -= lo
        rows /= 2.0 * grid.h
        out[pos] += rowsq(rows, scratch=rows, out=sq)
    return out


def _central_all(arr: np.ndarray, s: int, h: float, out: np.ndarray) -> None:
    """Central difference (arr[i + s] - arr[i - s]) / 2h along flat stride s,
    into ``out``.

    Exact off the lattice faces; face nodes hold wrapped differences, and
    the s rows at each array end what ``out`` held before; no region node
    reads either.
    """
    mid = out[s:-s]
    np.subtract(arr[2 * s:], arr[:-2 * s], out=mid)
    mid /= 2.0 * h


def higher_derivative_energy(ext: HarmonicExtension | SphereField, order: int) -> float:
    """Volume-weighted sum of squared order-th central differences."""
    f = ext.field if isinstance(ext, HarmonicExtension) else ext
    density = derivative_energy_density(ext, order)
    return float(density.sum() * f.grid.cell_volume)
