"""Componentwise harmonic extension of boundary data and derivative energies.

The extension solves the 2d+1-point discrete Laplace equation at interior
nodes with values pinned at boundary nodes.  It is not sphere-valued and is
used as-is by the comparison diagnostics.

The solver is matrix-free conjugate gradients on the SPD operator
``x -> 2d x - N x`` over the interior rows, where ``N x`` is the neighbour
sum ``Grid.neighbour_rows`` of x extended by zero (the flow's stencil),
with every component a column that carries its own step sizes.  It starts
from the boundary mean and iterates to rounding level, whatever ``tol`` the
caller asks for; ``tol`` only bounds the result: the max-norm of the discrete
Laplacian over the interior, divided by h^2, is at most ``tol`` or
``NoConvergence`` names the residual reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .errors import NoConvergence, OrderTooHighForGrid
from .field import SphereField
from .geometry import EXTERIOR, INTERIOR, Grid, neighbor_sum, put_rows

# per-column stop: 2-norm residual at most this fraction of the right-hand side's
CG_RTOL = 1e-14
# iteration cap of the solve; past it the residual contract decides
CG_MAX_ITER = 10_000


@dataclass
class HarmonicExtension:
    """Discrete harmonic field with the achieved residual bookkeeping."""

    field: SphereField
    residual: float
    iterations: int
    _densities: dict = dfield(default_factory=dict, repr=False, compare=False)

    @property
    def grid(self) -> Grid:
        return self.field.grid

    def derivative_density(self, order: int) -> np.ndarray:
        """``derivative_energy_density(self, order)``, computed once per order.

        Every comparison against the extension reads the same densities, and
        at order 3 in 3-D one evaluation builds 27 lattice-sized differences.
        """
        if order not in self._densities:
            self._densities[order] = derivative_energy_density(self, order)
        return self._densities[order]


def _laplacian_residual(grid: Grid, flat: np.ndarray) -> float:
    """Max-norm of the discrete Laplacian over interior nodes and components."""
    res = grid.neighbour_rows(flat) - 2 * grid.d * flat[grid.interior_flat]
    return float(np.max(np.abs(res), initial=0.0)) / grid.h ** 2


def _coldot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", a, b)


def solve_harmonic_extension(grid: Grid, boundary_data: SphereField,
                             tol: float = 1e-8, method: str = "direct"
                             ) -> HarmonicExtension:
    """Solve  -lap h = 0  at interior nodes, h = boundary data on the mask.

    One conjugate-gradient solve (see the module docstring); ``iterations``
    is its iteration count.  ``method`` accepts only ``"direct"``, the name
    the benchmark passes, and selects that same solver.
    """
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
    ub = flat[bnd]
    x = np.broadcast_to(ub.mean(axis=0), b.shape).copy()

    # the operator's input is the field itself with its boundary rows zeroed
    # until the solve ends, so the boundary data does not enter it; the
    # interior stencils read no exterior node
    flat[bnd] = 0.0

    def apply(v: np.ndarray) -> np.ndarray:
        put_rows(flat, idx, v)
        return two_d * v - grid.neighbour_rows(flat)

    r = b - apply(x)
    p = r.copy()
    rr = _coldot(r, r)
    # relative to the larger of |b| and the first residual, so a column with
    # b = 0 stops too; a stopped column keeps alpha = 0 and no longer moves
    stop = CG_RTOL ** 2 * np.maximum(_coldot(b, b), rr)
    it = 0
    while it < CG_MAX_ITER:
        live = rr > stop
        if not live.any():
            break
        it += 1
        q = apply(p)
        alpha = np.divide(rr, _coldot(p, q), out=np.zeros_like(rr), where=live)
        x += alpha * p
        r -= alpha * q
        rr_new = _coldot(r, r)
        p *= np.divide(rr_new, rr, out=np.zeros_like(rr), where=live)
        p += r
        rr = rr_new

    flat[bnd] = ub
    flat[idx] = x
    res = _laplacian_residual(grid, flat)
    if not res <= tol:
        raise NoConvergence(f"conjugate gradients stopped after {it} iterations "
                            f"with residual {res:.3e} above tolerance {tol:.1e}")
    return HarmonicExtension(field=out, residual=res, iterations=it)


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
    # read out, and their stencils stay inside the active set.  The walk is
    # depth-first over the stride tuples in lexicographic order, so it
    # holds at most ``order`` difference arrays at once
    out = np.zeros(grid.n_lattice)
    strides = grid.strides()

    def walk(arr, depth):
        if depth == order:
            out[idx] += np.einsum("ij,ij->i", arr[idx], arr[idx])
            return
        for s in strides:
            walk(_central_all(arr, s, grid.h), depth + 1)

    walk(f.flat(), 0)
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
