import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sphereflow.elliptic import solve_harmonic_extension
from sphereflow.errors import (ConfigError, DimensionMismatch, GridMismatch,
                               NearZeroVector, NonFiniteVector)
from sphereflow.field import (InitialData, SphereField, check_initial, dirichlet_energy,
                              generate, gradient_squared_density, initial_rows,
                              l2_distance, normalize_rows, project_to_sphere)
from sphereflow.geometry import Domain, build_grid, rowsq, scale_rows
from sphereflow.stereo import stereo_inverse


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
    # the direction x/|x| is undefined at the centre, which holds the pole
    centre = np.flatnonzero(np.all(g.coords() == 0.0, axis=1))[0]
    assert flat[centre].tolist() == [0.0, 0.0, 1.0]


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


def test_constant_vector_of_overflowing_norm_is_refused(disc16):
    # |v|^2 of (1e300, 0, 0) overflows to inf, and dividing every row by
    # its root would give a zero field
    vector = np.array([1e300, 0.0, 0.0])
    with pytest.raises(ConfigError):
        InitialData.from_config({"kind": "constant", "vector": vector.tolist()})
    with pytest.raises(NonFiniteVector):
        check_initial(InitialData(kind="constant", vector=vector), 2, 2)
    with pytest.raises(NonFiniteVector):
        generate(InitialData(kind="constant", vector=vector), disc16, 2)


@pytest.mark.parametrize("row", [[1e300, 0.0, 0.0], [0.0, np.inf, 0.0],
                                 [np.nan, 0.0, 1.0]], ids=["overflow", "inf", "nan"])
def test_project_refuses_rows_of_non_finite_norm(disc16, row):
    f = generate(InitialData(kind="constant"), disc16, 2)
    f.flat()[disc16.boundary_flat[3]] = row
    with pytest.raises(NonFiniteVector, match=str(disc16.boundary_flat[3])):
        project_to_sphere(f)


def test_normalize_rows_leaves_finiteness_to_its_caller():
    # the flow's per-step normalization checks only the norm floor: a NaN
    # row comes back NaN, for the sup-norm guard to catch
    v = np.array([[np.nan, 0.0, 1.0], [0.0, 0.0, 2.0]])
    out = normalize_rows(v, np.arange(2))
    assert np.isnan(out[0]).all() and out[1].tolist() == [0.0, 0.0, 1.0]


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_projection_idempotent(disc16, seed):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(disc16.shape + (3,)) * rng.uniform(0.2, 5.0)
    samples += 0.5  # keep away from exact zero vectors
    f = SphereField(disc16, samples)
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


def _paraboloid(y):
    return float(np.sum(np.asarray(y) ** 2))


@pytest.mark.parametrize("a, b", [
    # one lattice and one set of node classes, boundary points up to 0.05 apart
    (Domain.box([[0, 1], [0, 1]]), Domain.box([[0, 0.95], [0, 1]])),
    # one lattice, other node classes
    (Domain.graph_subdomain(_paraboloid, 2),
     Domain.graph_subdomain(lambda y: 0.5 * _paraboloid(y), 2)),
], ids=["box-bounds", "graph-height"])
def test_fields_on_other_domains_do_not_compare(a, b):
    ga, gb = build_grid(a, 1 / 8), build_grid(b, 1 / 8)
    assert ga.shape == gb.shape and not ga.compatible(gb)
    fa, fb = (generate(InitialData(kind="cap", latitude_deg=60.0), g, 2) for g in (ga, gb))
    with pytest.raises(GridMismatch):
        l2_distance(fa, fb)
    with pytest.raises(GridMismatch):
        solve_harmonic_extension(ga, fb)


def test_field_values_must_fit_the_lattice(disc16, disc32):
    with pytest.raises(DimensionMismatch):
        SphereField(disc16, np.zeros(disc32.shape + (3,)))
    with pytest.raises(DimensionMismatch):
        SphereField(disc16, np.zeros(disc16.shape))
    assert SphereField(disc16, np.zeros(disc16.shape + (4,))).ncomp == 4


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
    f = SphereField(g, rng.standard_normal(g.shape + (3,)))
    flat, idx = f.flat(), g.interior_flat
    energy = 0.0
    density = np.zeros(idx.size)
    for s, mask in zip(g.strides(), g.link_masks()):
        d = flat[s:] - flat[:-s]
        link2 = np.einsum("ij,ij->i", d, d)
        energy += float(np.einsum("ij,ij->", d[mask], d[mask]))
        density += 0.5 * (link2[idx] + link2[idx - s]) / g.h ** 2
    assert dirichlet_energy(f) == energy / g.h ** 2 * g.cell_volume
    assert np.array_equal(gradient_squared_density(f), density)


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
                             samples=SphereField(disc16, np.ones(disc16.shape + (4,)))),
                 disc16, 2)


@pytest.mark.parametrize("samples_domain, run_domain", [
    (Domain.unit_ball(2), Domain.box([[-1, 1], [-1, 1]])),
    (Domain.box([[-1, 1], [-1, 1]]), Domain.box([[-1, 0.99], [-1, 1]])),
], ids=["ball-samples-box-grid", "box-samples-narrower-box-grid"])
def test_custom_samples_from_another_domain(samples_domain, run_domain):
    # both pairs share one lattice shape at h = 1/16
    sg, rg = build_grid(samples_domain, 1 / 16), build_grid(run_domain, 1 / 16)
    assert sg.shape == rg.shape
    samples = generate(InitialData(kind="cap", latitude_deg=45.0), sg, 2)
    with pytest.raises(GridMismatch):
        generate(InitialData(kind="custom-samples", samples=samples), rg, 2)
    same = generate(InitialData(kind="custom-samples", samples=samples), sg, 2)
    assert np.allclose(same.values, samples.values, rtol=0.0, atol=1e-15)


# -- row kernels ---------------------------------------------------------------

# every float64 class: +-0.0, subnormals, +-inf and NaN among ordinary values
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | \
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf, np.nan])


def _rows():
    return st.tuples(st.integers(0, 300), st.integers(1, 6)).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=_ANY_FLOAT))


def _row_pairs():
    return _rows().flatmap(lambda a: st.tuples(
        st.just(a), hnp.arrays(np.float64, a.shape, elements=_ANY_FLOAT)))


def _same_bits(x, y):
    """Equal as floats down to the sign of zero; NaN matches NaN."""
    nan = np.isnan(x)
    return (x.shape == y.shape and np.array_equal(nan, np.isnan(y))
            and np.array_equal(x[~nan].view(np.uint64), y[~nan].view(np.uint64)))


@given(a=_rows(), scratch=st.sampled_from(["none", "buffer", "input"]))
@settings(max_examples=150, deadline=None)
def test_rowsq_sums_in_the_documented_order(rowsq_in_order, a, scratch):
    a0 = a.copy()
    buf = {"none": None, "buffer": np.empty_like(a), "input": a}[scratch]
    with np.errstate(all="ignore"):     # overflow to inf is one of the cases
        ref = rowsq_in_order(a)
        got = rowsq(a, scratch=buf)
    assert _same_bits(got, ref)
    if scratch != "input":
        assert _same_bits(a, a0)


def _cpu_baseline():
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__
    except ImportError:
        return set()
    return set(__cpu_baseline__)


# x86 baselines up to SSE4.2: einsum's "ij,ij->i" loop keeps two lanes and
# adds separately rounded products; FMA3 (x86-64-v3) or ASIMD (aarch64)
# baselines fuse them or widen the lanes, and give other bits
_SSE_LEVEL = {"SSE", "SSE2", "SSE3", "SSSE3", "SSE41", "POPCNT", "SSE42", "X86_V2"}


@pytest.mark.skipif(not _cpu_baseline() or not _cpu_baseline() <= _SSE_LEVEL,
                    reason="einsum's row sums follow rowsq's order only on an "
                           "x86 SSE-level numpy baseline")
@given(a=_rows())
@example(a=np.array([[-0.0, -0.0, 0.0], [5e-324, -5e-324, 1e200]]))
@settings(max_examples=150, deadline=None)
def test_rowsq_is_einsum_bit_for_bit_on_an_sse_baseline(a):
    with np.errstate(all="ignore"):     # einsum reports no float errors
        got = rowsq(a)
    assert _same_bits(got, np.einsum("ij,ij->i", a, a))


@given(ab=_row_pairs(), in_place=st.booleans(), op=st.sampled_from([np.divide, np.multiply]))
@settings(max_examples=150, deadline=None)
def test_scale_rows_is_the_broadcast_bit_for_bit(ab, in_place, op):
    v, s = ab
    s = s[:, 0]
    with np.errstate(all="ignore"):
        ref = op(v, s[:, None])
        out = None if in_place else np.empty_like(v)
        got = scale_rows(v, s, op, out=out)
    assert got is (v if in_place else out)
    assert np.array_equal(got, ref, equal_nan=True)
    assert _same_bits(got, ref)


# -- initial rows: the two-pass field's bits, with no lattice copy ---------------

def _two_pass(init, grid, D):
    """The initial field as ``generate`` first built it: a zero lattice, the
    family's values at the active nodes (interior positions, then the
    boundary projections), then ``project_to_sphere`` of it."""
    ncomp = D + 1
    values = np.zeros(grid.shape + (ncomp,))
    flat = values.reshape(-1, ncomp)
    idx = np.concatenate([grid.interior_flat, grid.boundary_flat])
    pts = np.vstack([grid.coords()[grid.interior_flat], grid.boundary_projections()])
    if init.kind == "constant":
        flat[idx] = init.vector if init.vector is not None else np.eye(ncomp)[-1]
    elif init.kind == "cap":
        theta = np.deg2rad(init.latitude_deg)
        c, r0, m = grid.domain.center(), grid.domain.diameter / 2.0, min(grid.d, D)
        v = np.zeros((pts.shape[0], D))
        v[:, :m] = np.tan(theta / 2.0) * (pts[:, :m] - c[:m]) / r0
        flat[idx] = stereo_inverse(v)
    elif init.kind == "equator-hedgehog":
        n = np.linalg.norm(pts, axis=1)
        safe = n.copy()
        safe[safe == 0] = 1.0
        flat[idx, :3] = scale_rows(pts, safe)
        if n[np.argmin(n)] == 0.0:
            flat[idx[np.argmin(n)]] = np.eye(ncomp)[2]
    elif init.kind == "boundary-wrap":
        c = grid.domain.center()
        th = init.winding * np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0])
        flat[idx, 0] = np.cos(th)
        flat[idx, 1] = np.sin(th)
    else:
        flat[idx] = np.take(init.samples.flat(), idx, axis=0)
    return project_to_sphere(SphereField(grid, values))


def _samples(grid, ncomp, seed):
    rng = np.random.default_rng(seed)
    return SphereField(grid, rng.standard_normal(grid.shape + (ncomp,)) + 0.2)


_DISC = build_grid(Domain.unit_ball(2), 1 / 16)
_BALL = build_grid(Domain.unit_ball(3), 1 / 8)
_HALF = build_grid(Domain.half_ball(3), 1 / 8)           # a boundary node at 0
_CUBE = build_grid(Domain.box([[-1, 1], [-1, 1], [-1, 1]]), 1 / 4)   # interior 0

INITIAL_CASES = {
    "disc-constant": (InitialData(kind="constant"), _DISC, 2),
    "disc-constant-vector": (InitialData(kind="constant", vector=np.array([1.0, -2, 2])),
                             _DISC, 2),
    "disc-cap": (InitialData(kind="cap", latitude_deg=60.0), _DISC, 2),
    "disc-cap-D1": (InitialData(kind="cap", latitude_deg=30.0), _DISC, 1),
    "disc-cap-D4": (InitialData(kind="cap", latitude_deg=45.0), _DISC, 4),
    "disc-wrap": (InitialData(kind="boundary-wrap", winding=2), _DISC, 2),
    "disc-wrap-D1": (InitialData(kind="boundary-wrap"), _DISC, 1),
    "disc-samples": (InitialData(kind="custom-samples", samples=_samples(_DISC, 3, 1)),
                     _DISC, 2),
    "ball-hedgehog": (InitialData(kind="equator-hedgehog"), _BALL, 2),
    "ball-hedgehog-D3": (InitialData(kind="equator-hedgehog"), _BALL, 3),
    "half-hedgehog": (InitialData(kind="equator-hedgehog"), _HALF, 2),
    "cube-hedgehog": (InitialData(kind="equator-hedgehog"), _CUBE, 2),
    "ball-cap": (InitialData(kind="cap", latitude_deg=60.0), _BALL, 2),
    "ball-constant-D3": (InitialData(kind="constant"), _BALL, 3),
    "ball-wrap": (InitialData(kind="boundary-wrap", winding=3), _BALL, 2),
    "ball-samples-D3": (InitialData(kind="custom-samples", samples=_samples(_BALL, 4, 2)),
                        _BALL, 3),
}


@pytest.mark.parametrize("name", sorted(INITIAL_CASES))
def test_generate_is_the_two_pass_field_bit_for_bit(name):
    init, g, D = INITIAL_CASES[name]
    expect = _two_pass(init, g, D).values
    f = generate(init, g, D)
    assert f.values.shape == expect.shape and f.values.flags.writeable
    assert np.array_equal(f.values.view(np.int64), expect.view(np.int64))
    rows, bnd = initial_rows(init, g, D)
    flat = expect.reshape(-1, D + 1)
    assert np.array_equal(rows.view(np.int64), flat[g.interior_flat].view(np.int64))
    assert np.array_equal(bnd.view(np.int64), flat[g.boundary_flat].view(np.int64))
    if name == "half-hedgehog":     # the boundary node at the origin is the pole
        at0 = np.flatnonzero(np.all(g.boundary_projections() == 0.0, axis=1))
        assert at0.size == 1 and np.array_equal(bnd[at0[0]], [0.0, 0.0, 1.0])


def _bad_samples(rows: dict):
    """Samples on the disc whose rows at the given flat indices are replaced."""
    f = _samples(_DISC, 3, 3)
    for node, row in rows.items():
        f.flat()[node] = row
    return InitialData(kind="custom-samples", samples=f)


# flat indices of the disc's active nodes, interior and boundary mixed and
# given out of order
_I, _B = _DISC.interior_flat, _DISC.boundary_flat
_FLAGGED = [int(_I[40]), int(_B[3]), int(_I[2]), int(_B[30]), int(_I[7]), int(_B[0]),
            int(_I[-1])]


@pytest.mark.parametrize("init, D, error, flagged", [
    (_bad_samples({n: [np.nan, 0, 0] for n in _FLAGGED}), 2, NonFiniteVector, _FLAGGED),
    (_bad_samples({n: [1e300, 1e300, 0] for n in _FLAGGED[:3]}), 2, NonFiniteVector,
     _FLAGGED[:3]),
    (_bad_samples({n: [0.0, 0, 0] for n in _FLAGGED}), 2, NearZeroVector, _FLAGGED),
    # a row that is not finite is refused before a zero row
    (_bad_samples({**{n: [0.0, 0, 0] for n in _FLAGGED[:4]},
                   **{n: [0.0, np.inf, 0] for n in _FLAGGED[4:]}}), 2, NonFiniteVector,
     _FLAGGED[4:]),
    (InitialData(kind="custom-samples"), 2, DimensionMismatch, None),
    (InitialData(kind="custom-samples", samples=_samples(_DISC, 4, 0)), 2,
     DimensionMismatch, None),
    (InitialData(kind="custom-samples", samples=_samples(build_grid(Domain.unit_ball(2), 1 / 8),
                                                          3, 0)), 2, GridMismatch, None),
    (InitialData(kind="equator-hedgehog"), 2, DimensionMismatch, None),
    (InitialData(kind="constant", vector=np.array([0.0, 1.0])), 2, DimensionMismatch, None),
    (InitialData(kind="constant", vector=np.array([1e300, 0.0, 0.0])), 2, NonFiniteVector,
     None),
    (InitialData(kind="spiral"), 2, DimensionMismatch, None),
    (InitialData(kind="cap"), 0, DimensionMismatch, None),
    # rows of 2^40 + 1 components cannot be allocated
    (InitialData(kind="cap"), 2 ** 40, DimensionMismatch, None),
], ids=["nan", "overflow", "zero", "nan-before-zero", "no-samples", "samples-ncomp",
        "samples-grid", "hedgehog-2d", "vector-length", "vector-overflow", "unknown-kind",
        "D0", "unallocatable"])
def test_initial_rows_raise_as_the_two_pass_field(init, D, error, flagged):
    with pytest.raises(error) as got:
        initial_rows(init, _DISC, D)
    with pytest.raises(error):
        generate(init, _DISC, D)
    if flagged is not None:
        # the first five flagged flat indices, in ascending order, as the
        # projection of the whole field names them
        with pytest.raises(error) as old:
            _two_pass(init, _DISC, D)
        assert str(got.value) == str(old.value)
        assert f"flat index {sorted(flagged)[:5]}" in str(got.value)
