import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sphereflow.elliptic import (derivative_energy_density, higher_derivative_energy,
                                 solve_harmonic_extension, _depth_mask)
from sphereflow.errors import OrderTooHighForGrid
from sphereflow.field import InitialData, SphereField, dirichlet_energy, generate
from sphereflow.geometry import Domain, build_grid

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


@pytest.mark.parametrize("d", [2, 3])
def test_derivative_density_matches_breadth_first_bitwise(d, rng):
    # reference: every order-m difference array built at once, breadth first,
    # and summed in the list order, which is lexicographic in the strides
    g = build_grid(Domain.unit_ball(d), 1 / 16 if d == 2 else 1 / 8)
    f = SphereField(g, rng.standard_normal(g.shape + (3,)), 2)
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
        assert np.array_equal(derivative_energy_density(f, order), ref)


def test_affine_second_differences_vanish():
    g = build_grid(Domain.box([[0, 1], [0, 1]]), 1 / 8)
    vals = np.zeros(g.shape + (3,))
    coords = g.coords()
    flat = vals.reshape(-1, 3)
    flat[:, 0] = 0.25 + 0.5 * coords[:, 0] - 0.3 * coords[:, 1]
    flat[:, 2] = 1.0
    f = SphereField(g, vals, 2)
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
