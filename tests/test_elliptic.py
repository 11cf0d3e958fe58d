import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sphereflow.elliptic import (derivative_energy_density, higher_derivative_energy,
                                 solve_harmonic_extension, _depth_mask)
from sphereflow.errors import GridMismatch, OrderTooHighForGrid
from sphereflow.field import InitialData, SphereField, dirichlet_energy, generate
from sphereflow.geometry import Domain, build_grid, put_rows, rowsq

SRC = str(Path(__file__).resolve().parents[1] / "src")


def first_harmonic_data(grid):
    return generate(InitialData(kind="boundary-wrap", winding=1), grid, 2)


def test_constant_boundary_gives_constant(disc16):
    bd = generate(InitialData(kind="constant", vector=[0.3, -0.4, 0.866]), disc16, 2)
    c = bd.flat()[disc16.boundary_flat[0]]
    ext = solve_harmonic_extension(disc16, bd, tol=1e-10)
    vals = ext.field.active_values()
    assert np.max(np.abs(vals - c)) <= 1e-10


def test_first_harmonic_closed_form():
    # masked first-order boundaries make the scheme O(h) in the max norm;
    # at h = 1/8 the closed-form band 5 h^2 holds with margin
    h = 1 / 8
    g = build_grid(Domain.unit_ball(2), h)
    ext = solve_harmonic_extension(g, first_harmonic_data(g), tol=1e-10)
    idx = g.interior_flat
    coords = g.coords()[idx]
    exact = np.zeros((idx.size, 3))
    exact[:, :2] = coords
    err = np.max(np.linalg.norm(ext.field.flat()[idx] - exact, axis=1))
    assert err <= 5 * h * h


def test_mean_value_property(disc16):
    g = disc16
    ext = solve_harmonic_extension(g, first_harmonic_data(g), tol=1e-10)
    center = np.flatnonzero(np.all(g.coords() == 0.0, axis=1))[0]
    mean_b = ext.field.flat()[g.boundary_flat].mean(axis=0)
    assert np.linalg.norm(ext.field.flat()[center] - mean_b) <= 1e-6 + 2 * g.h ** 2


@pytest.mark.parametrize("kind,kw", [("boundary-wrap", {"winding": 1}),
                                     ("cap", {"latitude_deg": 75.0})])
def test_componentwise_maximum_principle(disc16, kind, kw):
    bd = generate(InitialData(kind=kind, **kw), disc16, 2)
    ext = solve_harmonic_extension(disc16, bd, tol=1e-10)
    b = ext.field.flat()[disc16.boundary_flat]
    i = ext.field.flat()[disc16.interior_flat]
    for c in range(3):
        assert i[:, c].min() >= b[:, c].min() - 1e-10
        assert i[:, c].max() <= b[:, c].max() + 1e-10


def test_energy_minimality_against_perturbations(disc16, rng):
    ext = solve_harmonic_extension(disc16, first_harmonic_data(disc16), tol=1e-10)
    base = dirichlet_energy(ext.field)
    for _ in range(5):
        pert = ext.field.copy()
        bump = rng.standard_normal((disc16.n_interior, 3)) * 0.05
        pert.flat()[disc16.interior_flat] += bump
        assert dirichlet_energy(pert) - base >= -1e-10


def _dense_reference(g, bd):
    """Interior values from numpy.linalg.solve on the assembled 2d+1-point matrix."""
    idx = g.interior_flat
    pos = {int(i): k for k, i in enumerate(idx)}
    flat = bd.flat()
    A = np.zeros((idx.size, idx.size))
    rhs = np.zeros((idx.size, flat.shape[1]))
    for k, i in enumerate(idx):
        A[k, k] = 2 * g.d
        for s in g.strides():
            for nb in (int(i) - int(s), int(i) + int(s)):
                if nb in pos:
                    A[k, pos[nb]] = -1.0
                else:
                    rhs[k] += flat[nb]
    return np.linalg.solve(A, rhs)


def test_cg_agrees_with_dense_solve():
    g = build_grid(Domain.unit_ball(2), 0.25)
    bd = first_harmonic_data(g)
    cg = solve_harmonic_extension(g, bd, tol=1e-9)
    assert cg.residual <= 1e-9
    assert cg.iterations > 1
    diff = _dense_reference(g, bd) - cg.field.flat()[g.interior_flat]
    assert np.max(np.abs(diff)) <= 1e-6


def test_unknown_method_rejected(disc16):
    with pytest.raises(ValueError, match="method"):
        solve_harmonic_extension(disc16, first_harmonic_data(disc16), method="jacobi")


@pytest.mark.parametrize("domain, h", [(Domain.unit_ball(2), 1 / 8),
                                        (Domain.box([[-1.0, 1.0], [-1.0, 1.0]]), 1 / 16)],
                         ids=["coarser-disc", "box-same-shape"])
def test_boundary_data_from_another_grid_rejected(disc16, domain, h):
    # another spacing indexes out of range; the box shares the disc's lattice
    # shape and would be solved on its own grid
    other = build_grid(domain, h)
    with pytest.raises(GridMismatch):
        solve_harmonic_extension(disc16, first_harmonic_data(other))


def test_derivative_energy_constant_zero(disc16):
    bd = generate(InitialData(kind="constant"), disc16, 2)
    ext = solve_harmonic_extension(disc16, bd, tol=1e-10)
    for order in (1, 2, 3):
        assert higher_derivative_energy(ext, order) <= 1e-20


def test_derivative_density_is_computed_once(disc16):
    ext = solve_harmonic_extension(disc16, first_harmonic_data(disc16), tol=1e-10)
    dens = ext.derivative_density(2)
    assert np.array_equal(dens, derivative_energy_density(ext, 2))
    assert ext.derivative_density(2) is dens


def test_replaced_extension_starts_with_no_densities(disc16):
    # an extension made by dataclasses.replace reads its own field, not the
    # densities its original kept
    ext = solve_harmonic_extension(disc16, first_harmonic_data(disc16), tol=1e-10)
    assert ext.derivative_density(1).any()
    const = solve_harmonic_extension(disc16, generate(InitialData(kind="constant"),
                                                      disc16, 2), tol=1e-10)
    other = dataclasses.replace(ext, field=const.field)
    assert np.array_equal(other.derivative_density(1),
                          derivative_energy_density(other, 1))
    assert not np.array_equal(other.derivative_density(1), ext.derivative_density(1))
    assert list(ext._densities) == [1]


@pytest.mark.parametrize("d", [2, 3])
def test_derivative_density_matches_breadth_first_bitwise(d, rng):
    # reference: every order-m difference array built at once, breadth first,
    # and summed in the list order, which is lexicographic in the strides
    g = build_grid(Domain.unit_ball(d), 1 / 16 if d == 2 else 1 / 8)
    f = SphereField(g, rng.standard_normal(g.shape + (3,)))
    for order in (1, 2, 3):
        current = [f.flat()]
        for _ in range(order):
            nxt = []
            for arr in current:
                for s in g.strides():
                    diff = np.zeros_like(arr)
                    diff[s:-s] = (arr[2 * s:] - arr[:-2 * s]) / (2.0 * g.h)
                    nxt.append(diff)
            current = nxt
        assert len(current) == d ** order
        idx = np.flatnonzero(_depth_mask(g, order))
        ref = np.zeros(g.n_lattice)
        for arr in current:
            ref[idx] += np.einsum("ij,ij->i", arr[idx], arr[idx])
        assert np.array_equal(derivative_energy_density(f, order), ref[g.interior_flat])


def test_affine_second_differences_vanish():
    g = build_grid(Domain.box([[0, 1], [0, 1]]), 1 / 8)
    vals = np.zeros(g.shape + (3,))
    coords = g.coords()
    flat = vals.reshape(-1, 3)
    flat[:, 0] = 0.25 + 0.5 * coords[:, 0] - 0.3 * coords[:, 1]
    flat[:, 2] = 1.0
    f = SphereField(g, vals)
    assert higher_derivative_energy(f, 2) <= 1e-10


def test_first_harmonic_gradient_energy(disc32):
    ext = solve_harmonic_extension(disc32, first_harmonic_data(disc32), tol=1e-10)
    e1 = higher_derivative_energy(ext, 1)
    assert abs(e1 - 2 * np.pi) / (2 * np.pi) <= 0.10


def test_order_too_high():
    g = build_grid(Domain.box([[0, 1], [0, 1]]), 0.5)   # one interior node
    bd = generate(InitialData(kind="constant"), g, 2)
    ext = solve_harmonic_extension(g, bd, tol=1e-10)
    with pytest.raises(OrderTooHighForGrid):
        higher_derivative_energy(ext, 2)


def test_cg_no_convergence_reports_residual(disc16, monkeypatch):
    from sphereflow import elliptic
    from sphereflow.errors import NoConvergence
    monkeypatch.setattr(elliptic, "CG_MAX_ITER", 5)
    bd = first_harmonic_data(disc16)
    with pytest.raises(NoConvergence, match="residual"):
        solve_harmonic_extension(disc16, bd, tol=1e-14)


def test_import_loads_no_scipy():
    code = ("import sphereflow, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert out.stdout.strip() == "[]"


def test_derivative_density_leaves_no_buffer_for_the_collector():
    # with the cyclic collector off, the traced memory after the call is its
    # level before plus the returned density: no difference buffer is kept
    # alive by a reference cycle
    import gc
    import tracemalloc
    g = build_grid(Domain.unit_ball(3), 1 / 16)
    ext = solve_harmonic_extension(g, generate(InitialData(kind="equator-hedgehog"), g, 2))
    derivative_energy_density(ext, 3)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dens = derivative_energy_density(ext, 3)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert after - before <= dens.nbytes + 16384


def _broadcast_cg(grid, bd):
    """Reference solve with fresh vectors per iteration and broadcast
    (n, 3) x (3,) coefficient products: (field, iterations)."""
    from sphereflow.elliptic import CG_MAX_ITER, CG_RTOL
    out = bd.copy()
    flat = out.flat()
    idx, bnd = grid.interior_flat, grid.boundary_flat
    flat[idx] = 0.0
    b = grid.neighbour_rows(flat)
    ub = np.take(flat, bnd, axis=0)
    x = np.broadcast_to(ub.mean(axis=0), b.shape).copy()
    flat[bnd] = 0.0

    def apply(v):
        put_rows(flat, idx, v)
        return 2.0 * grid.d * v - grid.neighbour_rows(flat)

    def coldot(a, c):
        return np.einsum("ij,ij->j", a, c)

    r = b - apply(x)
    p = r.copy()
    rr = coldot(r, r)
    stop = CG_RTOL ** 2 * np.maximum(coldot(b, b), rr)
    it = 0
    while it < CG_MAX_ITER and (rr > stop).any():
        live = rr > stop
        it += 1
        q = apply(p)
        alpha = np.divide(rr, coldot(p, q), out=np.zeros_like(rr), where=live)
        x += alpha * p
        r -= alpha * q
        rr_new = coldot(r, r)
        p *= np.divide(rr_new, rr, out=np.zeros_like(rr), where=live)
        p += r
        rr = rr_new
    put_rows(flat, bnd, ub)
    put_rows(flat, idx, x)
    return out, it


@pytest.mark.parametrize("d, h", [(2, 1 / 16), (3, 1 / 8)])
def test_in_place_cg_is_the_broadcast_cg(d, h):
    from sphereflow.elliptic import _laplacian_residual
    g = build_grid(Domain.unit_ball(d), h)
    bd = first_harmonic_data(g) if d == 2 else generate(
        InitialData(kind="equator-hedgehog"), g, 2)
    want, it = _broadcast_cg(g, bd)
    ext = solve_harmonic_extension(g, bd)
    assert it > 40
    assert ext.field.values.tobytes() == want.values.tobytes()
    assert ext.iterations == it
    assert ext.residual == _laplacian_residual(g, want.flat())


def _lattice_derivative_density(f, order):
    """Reference derivative density: every depth a whole-lattice buffer,
    read at the region's nodes."""
    from sphereflow.elliptic import _central_all
    g = f.grid
    pos = np.flatnonzero(_depth_mask(g, order)[g.interior_flat])
    idx = g.interior_flat[pos]
    diffs = [f.flat()] + [np.zeros_like(f.flat()) for _ in range(order)]
    out = np.zeros(g.n_interior)
    for path in itertools.product(g.strides(), repeat=order):
        for depth, s in enumerate(path):
            _central_all(diffs[depth], s, g.h, diffs[depth + 1])
        out[pos] += rowsq(diffs[order][idx])
    return out


@pytest.mark.parametrize("domain", [Domain.unit_ball(2), Domain.unit_ball(3),
                                    Domain.box([[0, 1], [0, 1.5], [0, 1]])])
def test_derivative_density_is_the_lattice_form(domain, rng):
    g = build_grid(domain, 1 / 16 if domain.d == 2 else 1 / 8)
    f = SphereField(g, rng.standard_normal(g.shape + (3,)))
    for order in (1, 2, 3):
        assert np.array_equal(derivative_energy_density(f, order),
                              _lattice_derivative_density(f, order))
