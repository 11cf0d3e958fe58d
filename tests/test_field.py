import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphereflow.errors import DimensionMismatch, GridMismatch, NearZeroVector
from sphereflow.field import (InitialData, SphereField, dirichlet_energy,
                              generate, gradient_squared_density, l2_distance,
                              project_to_sphere)
from sphereflow.geometry import Domain, build_grid


def test_constant_north_pole(disc16):
    f = generate(InitialData(kind="constant"), disc16, 2)
    vals = f.active_values()
    np.testing.assert_allclose(vals, np.tile([0, 0, 1.0], (vals.shape[0], 1)))


def test_cap_zero_latitude_is_north_pole(disc16):
    f = generate(InitialData(kind="cap", latitude_deg=0.0), disc16, 2)
    vals = f.active_values()
    np.testing.assert_allclose(vals[:, 2], 1.0)


def test_cap_latitude_bounds_last_component(disc16):
    f = generate(InitialData(kind="cap", latitude_deg=60.0), disc16, 2)
    last = f.active_values()[:, 2]
    assert last.min() >= 0.5 - 1e-12


def test_hedgehog_node_value():
    g = build_grid(Domain.unit_ball(3), 0.25)
    f = generate(InitialData(kind="equator-hedgehog"), g, 2)
    flat = f.flat()
    node = np.flatnonzero(np.all(g.coords() == [0.5, 0.0, 0.0], axis=1))[0]
    np.testing.assert_allclose(flat[node], [1.0, 0.0, 0.0], atol=1e-15)
    assert "center_flat_index" in f.metadata


def test_hedgehog_dimension_mismatch(disc16):
    with pytest.raises(DimensionMismatch):
        generate(InitialData(kind="equator-hedgehog"), disc16, 2)


def test_project_simple_cases(disc16):
    f = generate(InitialData(kind="constant"), disc16, 2)
    f.flat()[disc16.interior_flat] = [0.0, 0.0, 2.0]
    p = project_to_sphere(f)
    np.testing.assert_allclose(p.flat()[disc16.interior_flat],
                               np.tile([0, 0, 1.0], (disc16.n_interior, 1)))
    f.flat()[disc16.interior_flat] = [1.5, 2.0, 0.0]
    p = project_to_sphere(f)
    np.testing.assert_allclose(p.flat()[disc16.interior_flat],
                               np.tile([0.6, 0.8, 0.0], (disc16.n_interior, 1)))


def test_project_near_zero_raises(disc16):
    f = generate(InitialData(kind="constant"), disc16, 2)
    f.flat()[disc16.interior_flat[0]] = [0.0, 0.0, 1e-15]
    with pytest.raises(NearZeroVector):
        project_to_sphere(f)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_projection_idempotent(disc16, seed):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(disc16.shape + (3,)) * rng.uniform(0.2, 5.0)
    samples += 0.5  # keep away from exact zero vectors
    f = SphereField(disc16, samples, 2)
    once = project_to_sphere(f)
    twice = project_to_sphere(once)
    idx = disc16.active_flat
    assert np.max(np.abs(twice.flat()[idx] - once.flat()[idx])) <= 1e-15
    norms = np.linalg.norm(once.flat()[idx], axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_l2_distance_zero_and_mismatch(disc16, disc32):
    f = generate(InitialData(kind="constant"), disc16, 2)
    assert l2_distance(f, f) == 0.0
    g = generate(InitialData(kind="constant"), disc32, 2)
    with pytest.raises(GridMismatch):
        l2_distance(f, g)


def test_dirichlet_energy_constant_zero(disc16):
    f = generate(InitialData(kind="constant"), disc16, 2)
    assert dirichlet_energy(f) == 0.0


def test_hedgehog_energy_eight_pi(ball3_32, hedgehog32):
    target = 8 * np.pi
    e = dirichlet_energy(hedgehog32)
    assert abs(e - target) / target <= 0.15
    # quadrature oracle: analytic density 2/|x|^2 summed over cells, the
    # center cell excluded
    g = ball3_32
    pts = g.coords()[g.interior_flat]
    r2 = np.einsum("ij,ij->i", pts, pts)
    r2 = r2[r2 > 0]
    oracle = float(np.sum(2.0 / r2) * g.cell_volume)
    assert abs(e - oracle) / oracle <= 0.10


def test_hedgehog_energy_error_trend():
    target = 8 * np.pi
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        g = build_grid(Domain.unit_ball(3), h)
        f = generate(InitialData(kind="equator-hedgehog"), g, 2)
        errs.append(abs(dirichlet_energy(f) - target))
    assert errs[0] >= errs[1] >= errs[2]


@pytest.mark.parametrize("domain, h", [(Domain.unit_ball(2), 1 / 16),
                                       (Domain.half_ball(3), 1 / 8),
                                       (Domain.box([[0.0, 1.0], [0.0, 2.0]]), 1 / 8)])
def test_link_energies_match_full_lattice_differences(domain, h, rng):
    # reference: forward differences over the whole lattice, then the links
    # or nodes kept; the gathered versions do the same arithmetic per link
    g = build_grid(domain, h)
    f = SphereField(g, rng.standard_normal(g.shape + (3,)), 2)
    flat, idx = f.flat(), g.interior_flat
    energy = 0.0
    density = np.zeros(idx.size)
    for s, mask in zip(g.strides(), g.link_masks()):
        d = flat[s:] - flat[:-s]
        link2 = np.einsum("ij,ij->i", d, d)
        energy += float(np.einsum("ij,ij->", d[mask], d[mask]))
        density += 0.5 * (link2[idx] + link2[idx - s]) / g.h ** 2
    assert dirichlet_energy(f) == energy / g.h ** 2 * g.cell_volume
    dens = gradient_squared_density(f)
    assert np.array_equal(dens[idx], density)
    assert not np.any(np.delete(dens, idx))


def test_energy_rotation_invariance(disc32, cap60_32, rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rot = cap60_32.copy()
    idx = disc32.active_flat
    rot.flat()[idx] = rot.flat()[idx] @ q.T
    e0, e1 = dirichlet_energy(cap60_32), dirichlet_energy(rot)
    assert abs(e0 - e1) / e0 <= 1e-10


def test_boundary_wrap_values(disc16):
    f = generate(InitialData(kind="boundary-wrap", winding=1), disc16, 2)
    proj = disc16.boundary_projections()
    vals = f.flat()[disc16.boundary_flat]
    np.testing.assert_allclose(vals[:, 0], proj[:, 0], atol=1e-12)
    np.testing.assert_allclose(vals[:, 1], proj[:, 1], atol=1e-12)
    np.testing.assert_allclose(vals[:, 2], 0.0, atol=1e-15)


def test_custom_samples_shape_mismatch(disc16):
    with pytest.raises(DimensionMismatch):
        generate(InitialData(kind="custom-samples",
                             samples=np.zeros((3, 3, 3))), disc16, 2)
