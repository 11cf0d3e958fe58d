"""Componentwise harmonic extension of boundary data and derivative energies.

The extension solves the 2d+1-point discrete Laplace equation at interior
nodes with values pinned at boundary nodes.  It is not sphere-valued and is
used as-is by the comparison diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NoConvergence, OrderTooHighForGrid
from .field import SphereField
from .geometry import EXTERIOR, INTERIOR, Grid, neighbor_sum


@dataclass
class HarmonicExtension:
    """Discrete harmonic field with the achieved residual bookkeeping."""

    field: SphereField
    residual: float
    iterations: int

    @property
    def grid(self) -> Grid:
        return self.field.grid


def _laplacian_residual(grid: Grid, flat: np.ndarray) -> float:
    """Max-norm of the discrete Laplacian over interior nodes and components."""
    idx = grid.interior_flat
    res = neighbor_sum(flat, grid.strides())[idx] - 2 * grid.d * flat[idx]
    return float(np.max(np.abs(res))) / grid.h ** 2


def solve_harmonic_extension(grid: Grid, boundary_data: SphereField,
                             tol: float = 1e-8, method: str = "direct",
                             max_sweeps: int = 100_000) -> HarmonicExtension:
    """Solve  -lap h = 0  at interior nodes, h = boundary data on the mask.

    ``method="direct"`` assembles the sparse system and solves it exactly
    (residual at rounding level); ``method="jacobi"`` runs damped Jacobi
    sweeps until the max-norm residual of the discrete Laplacian falls
    below ``tol``.  Both honor the same residual contract.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    ncomp = boundary_data.ncomp
    out = boundary_data.copy()
    flat = out.flat()
    idx = grid.interior_flat
    strides = grid.strides()

    if method == "direct":
        n = idx.size
        pos = -np.ones(grid.n_lattice, dtype=np.int64)
        pos[idx] = np.arange(n)
        rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.full(n, 2.0 * grid.d)]
        rhs = np.zeros((n, ncomp))
        for nb in (idx + sign * s for s in strides for sign in (-1, 1)):
            is_int = pos[nb] >= 0
            rows.append(np.flatnonzero(is_int))
            cols.append(pos[nb[is_int]])
            vals.append(np.full(int(is_int.sum()), -1.0))
            ext = np.flatnonzero(~is_int)
            rhs[ext] += flat[nb[ext]]
        A = sp.csr_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
        sol = spla.spsolve(A, rhs)
        if sol.ndim == 1:
            sol = sol[:, None]
        flat[idx] = sol
        res = _laplacian_residual(grid, flat)
        if res > max(tol, 1e-6):
            raise NoConvergence(f"direct solve residual {res:.3e} above tolerance")
        return HarmonicExtension(field=out, residual=res, iterations=1)

    if method != "jacobi":
        raise ValueError(f"unknown solver method {method!r}")

    omega = 0.9
    inv = 1.0 / (2.0 * grid.d)
    res = np.inf
    for sweep in range(1, max_sweeps + 1):
        avg = neighbor_sum(flat, strides)[idx] * inv
        flat[idx] = (1 - omega) * flat[idx] + omega * avg
        if sweep % 50 == 0 or sweep == max_sweeps:
            res = _laplacian_residual(grid, flat)
            if res <= tol:
                return HarmonicExtension(field=out, residual=res, iterations=sweep)
    raise NoConvergence(f"no convergence after {max_sweeps} sweeps, residual {res:.3e}")


def _depth_mask(grid: Grid, order: int) -> np.ndarray:
    """Interior nodes whose order-cell l1-neighborhood stays in the active set."""
    cls = grid.class_flat()
    ok = cls != EXTERIOR
    for _ in range(order):
        ok = ok & (neighbor_sum(ok.view(np.int8), grid.strides()) == 2 * grid.d)
    return ok & (cls == INTERIOR)


def derivative_energy_density(ext: HarmonicExtension | SphereField, order: int) -> np.ndarray:
    """Flat lattice array of |D^order u|^2 from repeated central differences.

    The evaluation region shrinks by ``order`` cells from the boundary;
    nodes outside it carry zero and a companion mask is implicit in the
    nonzero pattern.  The intermediate differences hold wrapped values on
    the lattice faces; no node of the region reads them.
    """
    f = ext.field if isinstance(ext, HarmonicExtension) else ext
    grid = f.grid
    if order < 1:
        raise ValueError("order must be >= 1")
    mask = _depth_mask(grid, order)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise OrderTooHighForGrid(f"no interior nodes admit an order-{order} stencil")
    # iterated whole-lattice central differences; only masked nodes are
    # read out, and their stencils stay inside the active set
    current = [f.flat()]
    for _ in range(order):
        current = [_central_all(arr, s, grid.h)
                   for arr in current for s in grid.strides()]
    out = np.zeros(grid.n_lattice)
    for arr in current:
        out[idx] += np.einsum("ij,ij->i", arr[idx], arr[idx])
    return out


def _central_all(arr: np.ndarray, s: int, h: float) -> np.ndarray:
    """Central difference (arr[i + s] - arr[i - s]) / 2h along flat stride s.

    Exact off the lattice faces; face nodes hold wrapped differences (or
    zero within s of the array ends) and are never read.
    """
    out = np.zeros_like(arr)
    out[s:-s] = (arr[2 * s:] - arr[:-2 * s]) / (2.0 * h)
    return out


def higher_derivative_energy(ext: HarmonicExtension | SphereField, order: int) -> float:
    """Volume-weighted sum of squared order-th central differences."""
    f = ext.field if isinstance(ext, HarmonicExtension) else ext
    density = derivative_energy_density(ext, order)
    return float(density.sum() * f.grid.cell_volume)
