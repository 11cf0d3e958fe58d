import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphereflow.errors import (ConfigError, LatticeTooLarge, NoGraphAvailable,
                               SpacingTooCoarse)
from sphereflow import geometry
from sphereflow.geometry import (BLOCK_NODES, EXTERIOR, INTERIOR, Domain, boundary_frame,
                                 build_grid, check_condition_B, neighbor_sum,
                                 put_rows, rowsq)


def brute_force_interior_count(d, h, kmax):
    """Independent enumeration oracle: lattice points strictly inside the
    unit ball, same float arithmetic as the classifier."""
    count = 0
    ranges = [range(-kmax, kmax + 1)] * d
    import itertools
    for ks in itertools.product(*ranges):
        if sum((k * h) ** 2 for k in ks) < 1.0:
            count += 1
    return count


def test_disc_interior_count_oracle():
    g = build_grid(Domain.unit_ball(2), 0.25)
    assert g.n_interior == brute_force_interior_count(2, 0.25, 8)
    assert g.n_interior == 45


def test_box_single_interior_node():
    g = build_grid(Domain.box([[0, 1], [0, 1]]), 0.5)
    assert g.n_interior == 1
    np.testing.assert_allclose(g.coords()[g.interior_flat][0], [0.5, 0.5])


def test_ball3_count_matches_enumeration():
    g = build_grid(Domain.unit_ball(3), 0.3)
    assert g.n_interior == brute_force_interior_count(3, 0.3, 5)


@pytest.mark.parametrize("h", [1e-4, 1e-300, 5e-324])
def test_lattice_over_budget_raises_before_allocating(h):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no overflowing integer cast
        with pytest.raises(LatticeTooLarge, match="budget"):
            build_grid(Domain.unit_ball(3), h)


def test_spacing_too_coarse():
    with pytest.raises(SpacingTooCoarse):
        build_grid(Domain.unit_ball(2), 1.5)
    with pytest.raises(SpacingTooCoarse):
        build_grid(Domain.unit_ball(2), -0.1)


@pytest.mark.parametrize("domain,h", [
    (Domain.unit_ball(2), 0.11),
    (Domain.unit_ball(3), 0.21),
    (Domain.box([[0, 1], [0, 2]]), 0.19),
    (Domain.half_ball(2), 0.13),
])
def test_interior_neighbors_never_exterior(domain, h):
    g = build_grid(domain, h)
    cls = g.class_flat()
    idx = g.interior_flat
    nbr = np.stack([idx + sign * s for s in g.strides() for sign in (-1, 1)], axis=1)
    assert np.all(cls[nbr] != EXTERIOR)


FACE_DOMAINS = {
    "ball2": Domain.unit_ball(2),
    "ball3": Domain.unit_ball(3),
    "box2": Domain.box([[0, 1], [0, 2]]),
    "box3": Domain.box([[0, 1], [-1, 0.5], [0, 0.7]]),
    "half2": Domain.half_ball(2),
    "half3": Domain.half_ball(3),
    "graph2": Domain.graph_subdomain(lambda y: float(np.sum(np.asarray(y) ** 2)), 2),
    "graph3": Domain.graph_subdomain(lambda y: float(np.sum(np.asarray(y) ** 2)), 3),
}


def test_domains_are_equal_by_value():
    box = Domain.box([[0, 1], [0, 1]])
    assert box == Domain.box([[0.0, 1.0], [0.0, 1.0]])
    assert box != Domain.box([[0.0, 0.95], [0.0, 1.0]])
    assert box != Domain.unit_ball(2) and box != "box"
    assert Domain.unit_ball(2) == Domain.unit_ball(2) != Domain.unit_ball(3)
    graph = FACE_DOMAINS["graph2"]
    assert Domain.graph_subdomain(graph.phi, 2) == graph
    assert Domain.graph_subdomain(lambda y: graph.phi(y), 2) != graph
    assert build_grid(box, 0.125).compatible(build_grid(Domain.box([[0, 1], [0, 1]]), 0.125))


@pytest.mark.parametrize("h", [0.5, 0.3, 0.13, 1 / 16])
@pytest.mark.parametrize("name", sorted(FACE_DOMAINS))
def test_no_active_node_on_a_lattice_face(name, h):
    # flat stride shifts are exact only off the faces
    g = build_grid(FACE_DOMAINS[name], h)
    multi = np.array(np.unravel_index(g.active_flat, g.shape))
    assert multi.min() >= 1
    assert np.all(multi.max(axis=1) <= np.array(g.shape) - 2)


@pytest.mark.parametrize("h", [0.3, 0.13, 1 / 16])
@pytest.mark.parametrize("name", sorted(FACE_DOMAINS))
def test_boundary_node_projects_near_with_outward_unit_normal(name, h):
    # each boundary node takes its Dirichlet data and its normal from a
    # boundary point within 2h, and a step along the normal leaves the domain
    dom = FACE_DOMAINS[name]
    g = build_grid(dom, h)
    x = g.coords()[g.boundary_flat]
    q = g.boundary_projections()
    nu = dom.outward_normal(x)
    assert np.max(np.linalg.norm(x - q, axis=1)) <= 2 * h
    assert np.max(np.abs(np.linalg.norm(nu, axis=1) - 1.0)) <= 1e-12
    assert not np.any(dom.contains(q + 1e-6 * nu))
    if dom.kind != "box":
        assert np.max(np.linalg.norm(q, axis=1)) <= 1.0 + 1e-12


@pytest.mark.parametrize("domain,h", [
    (Domain.unit_ball(2), 0.11),
    (Domain.unit_ball(3), 0.21),
    (Domain.half_ball(3), 0.13),
])
def test_neighbor_sum_matches_explicit_gather(domain, h, rng):
    g = build_grid(domain, h)
    idx = g.interior_flat
    for shape in [(g.n_lattice,), (g.n_lattice, 3)]:
        flat = rng.standard_normal(shape) * np.exp(4 * rng.standard_normal(shape))
        expect = np.zeros((idx.size,) + shape[1:])
        for s in g.strides():
            expect = expect + flat[idx - s]
            expect = expect + flat[idx + s]
        assert np.array_equal(neighbor_sum(flat, g.strides())[idx], expect)


KERNEL_GRIDS = {
    **{name: (dom, 1 / 128 if dom.d == 2 else 1 / 16)
       for name, dom in FACE_DOMAINS.items()},
    "one-block": (Domain.unit_ball(2), 0.11),
    # layers of 133^2 nodes, each interior span 16,885 > BLOCK_NODES
    "wide-layer": (Domain.box([[0, 0.5], [0, 16], [0, 16]]), 0.125),
}


@pytest.mark.parametrize("name", sorted(KERNEL_GRIDS))
def test_neighbour_rows_is_neighbor_sum_at_interior(name, rng):
    g = build_grid(*KERNEL_GRIDS[name])
    idx = g.interior_flat
    if name == "one-block":
        assert g.n_lattice <= BLOCK_NODES
    if name == "wide-layer":
        layer = idx // g.strides()[0]
        assert np.ptp(idx[layer == layer[0]]) + 1 > BLOCK_NODES
    for comps in [(), (1,), (3,), (4,)]:
        shape = (g.n_lattice,) + comps
        flat = rng.standard_normal(shape) * np.exp(4 * rng.standard_normal(shape))
        # the first half holds only -0.0, whose sums are +0.0 from a +0.0 start
        flat[:g.n_lattice // 2] = -0.0
        flat.reshape(-1)[1::7] = -0.0
        flat.reshape(-1)[::97] = np.nan
        expect = neighbor_sum(flat, g.strides())[idx]
        assert np.isnan(expect).any() and (expect == 0.0).any()
        got = g.neighbour_rows(flat)
        assert got.shape == expect.shape
        assert np.array_equal(got, expect, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(expect))
        buf = np.full_like(expect, 7.0)     # a given buffer is overwritten
        assert g.neighbour_rows(flat, out=buf) is buf
        assert np.array_equal(np.signbit(buf), np.signbit(expect))
        assert np.array_equal(buf, expect, equal_nan=True)


def _blocks_by_layer_numbers(g):
    """The block plan as first built: the layer number of every interior
    node, the positions where it changes, and the greedy grouping."""
    idx = g.interior_flat
    starts = np.flatnonzero(np.diff(idx // g.strides()[0], prepend=-1))
    ends = np.append(starts[1:], idx.size)
    blocks, j = [], 0
    while j < starts.size:
        lo, e = int(idx[starts[j]]), j + 1
        while e < starts.size and idx[ends[e] - 1] + 1 - lo <= BLOCK_NODES:
            e += 1
        blocks.append((lo, int(idx[ends[e - 1] - 1]) + 1, int(starts[j]), int(ends[e - 1])))
        j = e
    return blocks, max(hi - lo for lo, hi, _, _ in blocks)


@pytest.mark.parametrize("name", sorted(KERNEL_GRIDS))
def test_stencil_blocks_are_the_layer_number_plan(name):
    g = build_grid(*KERNEL_GRIDS[name])
    plan = g._stencil_blocks()
    assert plan == _blocks_by_layer_numbers(g)
    assert all(type(v) is int for b in plan[0] for v in b) and type(plan[1]) is int


@pytest.mark.parametrize("name", sorted(KERNEL_GRIDS))
def test_neighbour_blocks_yield_each_group_once_its_sums_are_in(name, rng):
    # the groups tile the interior rows in order; at each yield the group's
    # rows hold their sums and the later rows are untouched, and a caller
    # that overwrites the group's rows of the scratch changes nothing
    g = build_grid(*KERNEL_GRIDS[name])
    blocks, width = g._stencil_blocks()
    flat = rng.standard_normal((g.n_lattice, 3))
    expect = neighbor_sum(flat, g.strides())[g.interior_flat]
    out = np.full_like(expect, np.inf)
    assert g.block_rows() == max(width, min(BLOCK_NODES, g.n_interior))
    scratch = np.empty((g.block_rows(), 3))
    groups = []
    for k0, k1 in g.neighbour_blocks(flat, out, scratch):
        assert np.array_equal(out[:k1], expect[:k1]) and np.isinf(out[k1:]).all()
        scratch[:k1 - k0] = np.nan
        groups.append((k0, k1))
    assert np.array_equal(out, expect)
    assert groups[0][0] == 0 and groups[-1][1] == g.n_interior
    assert all(a[1] == b[0] for a, b in zip(groups, groups[1:]))
    # a group ends where a block does, and holds at most BLOCK_NODES rows
    # unless it is one block; the next block would not have fitted
    ends = [k1 for _, _, _, k1 in blocks]
    for i, (k0, k1) in enumerate(groups):
        assert k1 in ends
        assert k1 - k0 <= BLOCK_NODES or (k0, k1) in [(b[2], b[3]) for b in blocks]
        if i + 1 < len(groups):
            nxt = blocks[ends.index(k1) + 1]
            assert nxt[3] - k0 > BLOCK_NODES
    assert max(k1 - k0 for k0, k1 in groups) <= scratch.shape[0]
    if name == "wide-layer":
        assert len(groups) == len(blocks)


@pytest.mark.parametrize("comps", [1, 3, 4])
def test_put_rows_is_fancy_assignment(comps, rng):
    g = build_grid(Domain.unit_ball(3), 0.21)
    idx = g.interior_flat
    flat = rng.standard_normal((g.n_lattice, comps))
    rows = rng.standard_normal((idx.size, comps))
    rows[::5] = -0.0
    expect = flat.copy()
    expect[idx] = rows
    put_rows(flat, idx, rows)
    assert np.array_equal(flat, expect)
    assert np.array_equal(np.signbit(flat), np.signbit(expect))


def test_put_rows_takes_read_only_rows_and_masks_without_a_copy(rng):
    # np.put copies a read-only source, such as a mapped snapshot's rows,
    # before it moves them; put_rows assigns those, and a mask, directly
    g = build_grid(Domain.unit_ball(3), 0.21)
    inner = g.class_flat() == INTERIOR
    rows = rng.standard_normal((g.n_interior, 3))
    rows[::5] = -0.0
    rows.flags.writeable = False
    expect = rng.standard_normal((g.n_lattice, 3))
    flats = [expect.copy(), expect.copy()]
    expect[inner] = rows
    tracemalloc.start()
    put_rows(flats[0], g.interior_flat, rows)
    put_rows(flats[1], inner, rows)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    for flat in flats:
        assert flat.tobytes() == expect.tobytes()
    assert peak < rows.nbytes


@pytest.mark.parametrize("h", [0.25, 0.11])
def test_boundary_nodes_within_h_of_boundary(h):
    g = build_grid(Domain.unit_ball(2), h)
    pts = g.coords()[g.boundary_flat]
    dist = np.abs(np.linalg.norm(pts, axis=1) - 1.0)
    assert np.max(dist) < h


def test_classification_deterministic():
    a = build_grid(Domain.unit_ball(2), 0.17)
    b = build_grid(Domain.unit_ball(2), 0.17)
    assert np.array_equal(a.node_class, b.node_class)
    assert np.array_equal(a.index_origin, b.index_origin)


def _hausdorff_to_circle(g, n_probe=4096):
    pts = g.coords()[g.boundary_flat]
    d_node = np.abs(np.linalg.norm(pts, axis=1) - 1.0)
    th = 2 * np.pi * np.arange(n_probe) / n_probe
    circ = np.stack([np.cos(th), np.sin(th)], axis=1)
    d_circ = np.min(np.linalg.norm(circ[:, None, :] - pts[None, :, :], axis=2), axis=1)
    return max(d_node.max(), d_circ.max())


def test_boundary_hausdorff_halving():
    hs = [0.2, 0.1, 0.05]
    dists = [_hausdorff_to_circle(build_grid(Domain.unit_ball(2), h)) for h in hs]
    for a, b in zip(dists, dists[1:]):
        assert 0.3 <= b / a <= 0.7


def test_condition_b_unit_ball():
    for d in (2, 3):
        res = check_condition_B(Domain.unit_ball(d), 0.05, threshold=0.5)
        assert abs(res.theta0_estimate - 1.0) <= 0.05
        assert res.passed


def test_condition_b_flat_graph_fails():
    flat = Domain.graph_subdomain(lambda y: 0.0 * float(np.sum(y)), 2)
    res = check_condition_B(flat, 0.05, threshold=0.01)
    assert res.theta0_estimate == 0.0
    assert not res.passed


def test_condition_b_paraboloid():
    par = Domain.graph_subdomain(lambda y: float(np.sum(np.asarray(y) ** 2)), 3)
    res = check_condition_B(par, 0.05, threshold=1.0)
    assert abs(res.theta0_estimate - 2.0) <= 0.1
    assert res.passed


def test_condition_b_box_has_no_graph():
    with pytest.raises(NoGraphAvailable):
        check_condition_B(Domain.box([[0, 1], [0, 1]]), 0.05)


def test_condition_b_ball_at_the_largest_probe():
    # two offsets of 0.6 stay in the sphere's chart; three would leave it
    res = check_condition_B(Domain.unit_ball(4), 0.6)
    assert 1.0 < res.theta0_estimate < 1.2


def test_condition_b_converges_on_ball():
    for probe in (0.2, 0.1, 0.05):
        res = check_condition_B(Domain.unit_ball(2), probe)
        assert abs(res.theta0_estimate - 1.0) <= 0.5 * probe


@pytest.mark.parametrize("bounds", [[[0.0, np.nan], [0.0, 1.0]],
                                    [[-np.inf, 1.0], [0.0, 1.0]],
                                    [[0.0, 1.0], [0.0, np.inf]]])
def test_box_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="finite"):
        Domain.box(bounds)


@pytest.mark.parametrize("d", [2.5, 3.000001, np.nan, np.inf, 2.0 ** 53])
def test_from_config_rejects_non_integral_dimension(d):
    for kind in ("unit-ball", "half-ball", "box"):
        with pytest.raises(ConfigError):
            Domain.from_config({"kind": kind, "d": d})


def test_domain_center_is_bounding_box_midpoint():
    assert np.array_equal(Domain.unit_ball(3).center(), np.zeros(3))
    assert np.array_equal(Domain.half_ball(2).center(), [0.0, 0.5])
    assert np.array_equal(Domain.box([[0.0, 1.0], [-1.0, 3.0]]).center(), [0.5, 1.0])


def test_boundary_frame_ball_normals():
    g = build_grid(Domain.unit_ball(3), 0.2)
    frame = boundary_frame(g)
    pts = g.coords()[g.boundary_flat]
    target = np.array([1.0, 0.0, 0.0])
    k = int(np.argmin(np.linalg.norm(pts - target, axis=1)))
    assert np.linalg.norm(frame.normals[k] - target) <= 2 * g.h


def test_boundary_frame_box_exact_axes():
    g = build_grid(Domain.box([[0, 1], [0, 1]]), 0.25)
    frame = boundary_frame(g)
    pts = g.coords()[g.boundary_flat]
    for p, nu in zip(pts, frame.normals):
        assert sorted(np.abs(nu).tolist()) == [0.0, 1.0]
        axis = int(np.argmax(np.abs(nu)))
        face = 1.0 if nu[axis] > 0 else 0.0
        assert abs(p[axis] - face) <= g.h + 1e-12


@pytest.mark.parametrize("domain", [Domain.unit_ball(2), Domain.unit_ball(3),
                                    Domain.box([[0, 1], [0, 1]])])
def test_projector_idempotent_symmetric(domain):
    g = build_grid(domain, 0.2)
    frame = boundary_frame(g)
    assert np.max(np.abs(np.linalg.norm(frame.normals, axis=1) - 1.0)) <= 1e-12


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_ball_offsets_within_radius(seed):
    rng = np.random.default_rng(seed)
    g = build_grid(Domain.unit_ball(2), 0.25)
    R = float(rng.uniform(0.3, 1.0))
    offs = g.ball_offsets(R)
    assert np.all(np.einsum("ij,ij->i", offs, offs) * g.h ** 2 < R ** 2)


# -- the lattice without lattice-sized coordinates ------------------------------

def _whole_lattice_classes(domain, h):
    """``build_grid``'s node classes from one ``contains`` call on every
    lattice position at once, as the classification was first written."""
    g = build_grid(domain, h)
    inside = domain.contains(g.coords())
    cls = np.zeros(inside.size, dtype=np.int8)
    cls[inside] = 1
    cls[neighbor_sum(inside, g.strides()) & ~inside] = 2
    return cls.reshape(g.shape)


@pytest.mark.parametrize("block", [1, 40, 333, BLOCK_NODES])
@pytest.mark.parametrize("name", sorted(FACE_DOMAINS))
def test_build_grid_classes_do_not_depend_on_the_blocks(name, block, monkeypatch):
    # 1 node makes every layer a block; 40 and 333 cut some lattices into
    # blocks of several layers with a short last block
    h = 1 / 16 if FACE_DOMAINS[name].d == 2 else 0.13
    expect = _whole_lattice_classes(FACE_DOMAINS[name], h)
    monkeypatch.setattr(geometry, "BLOCK_NODES", block)
    g = build_grid(FACE_DOMAINS[name], h)
    assert g.node_class.dtype == np.int8
    assert np.array_equal(g.node_class, expect)


@pytest.mark.parametrize("name", sorted(FACE_DOMAINS))
def test_node_coords_are_the_lattice_coords_bit_for_bit(name, rng):
    g = build_grid(FACE_DOMAINS[name], 0.13)
    coords = g.coords()
    for nodes in (g.interior_flat, g.boundary_flat, g.active_flat, np.arange(g.n_lattice),
                  rng.integers(0, g.n_lattice, 50), np.empty(0, dtype=np.intp)):
        got = g.node_coords(nodes)
        assert got.shape == (len(nodes), g.d) and got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), coords[nodes].view(np.int64))
    assert np.array_equal(g.interior_coords, coords[g.interior_flat])


def _coordinate_test(g, x0, R):
    """``nodes_within`` as the test on every interior position, a squared
    radius past the float range reading inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = g.interior_coords - np.asarray(x0, dtype=float)
        return np.flatnonzero(rowsq(diff) < np.float64(R) ** 2)


@pytest.mark.parametrize("name", ["ball2", "ball3", "box3", "half3"])
def test_nodes_within_is_the_coordinate_test(name, rng):
    g = build_grid(FACE_DOMAINS[name], 1 / 16 if FACE_DOMAINS[name].d == 2 else 0.13)
    d = g.d
    balls = [(rng.uniform(-3, 3, d), float(rng.uniform(0, 2))) for _ in range(60)]
    balls += [(rng.uniform(-1, 1, d), float(rng.uniform(0, 3 * g.h))) for _ in range(60)]
    # radii on a node's distance, off the lattice, huge, zero, negative and
    # not a number, and centres far away or with cancelling huge radii
    x = g.interior_coords[len(g.interior_coords) // 3]
    balls += [(x, 2 * g.h), (x + g.h / 2, g.h / 2), (np.full(d, 5.0), 1.0),
              (np.full(d, -5.0), 4.0), (np.zeros(d), 1e300), (np.full(d, 1e300), 1.0),
              (np.full(d, 1e300), 1e300), (np.full(d, -1e300), np.inf),
              (np.zeros(d), 0.0), (np.zeros(d), -0.5), (np.zeros(d), np.nan),
              (np.array([np.nan] + [0.0] * (d - 1)), 1.0),
              (np.array([np.inf] + [0.0] * (d - 1)), 1.0),
              (np.array([-1e17] + [0.0] * (d - 1)), 1e17 + 0.5)]
    for x0, R in balls:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = g.nodes_within(x0, R)
        assert got.dtype == np.intp
        assert np.array_equal(got, _coordinate_test(g, x0, R)), (x0, R)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.array_equal(g.nodes_within(np.zeros(d), np.float64(1e300)),
                              np.arange(g.n_interior))


def _nodes_within_by_layers(g, x0, R):
    """``nodes_within`` by the earlier rule: every interior node of the
    box's first-axis layers unravelled, and the other axes tested on their
    indices, before the coordinate test."""
    x0 = np.asarray(x0, dtype=float)
    top = np.asarray(g.shape) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            r2 = R ** 2
        except OverflowError:
            r2 = np.inf
        reach = abs(R) + g.h + 1e-12 * (np.abs(x0) + abs(R))
        lo = np.floor((x0 - reach) / g.h) - g.index_origin
        hi = np.ceil((x0 + reach) / g.h) - g.index_origin
        if not (r2 > 0 and np.all((lo <= hi) & (lo <= top) & (hi >= 0))):
            return np.empty(0, dtype=np.intp)
        lo = np.clip(lo, 0, top).astype(np.int64)
        hi = np.clip(hi, 0, top).astype(np.int64)
        idx, s0 = g.interior_flat, g.strides()[0]
        a, b = np.searchsorted(idx, [lo[0] * s0, (hi[0] + 1) * s0])
        k = np.unravel_index(idx[a:b], g.shape)
        keep = np.ones(b - a, dtype=bool)
        for ax in range(1, g.d):
            keep &= (k[ax] >= lo[ax]) & (k[ax] <= hi[ax])
        pos = np.flatnonzero(keep)
        diff = g.node_coords(idx[a + pos])
        diff -= x0
        return a + pos[rowsq(diff, scratch=diff) < r2]


BALL_QUERY_GRIDS = {name: build_grid(FACE_DOMAINS[name], 1 / 16 if FACE_DOMAINS[name].d == 2
                                     else 0.13)
                    for name in ("ball2", "ball3", "box3", "half3")}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(BALL_QUERY_GRIDS)),
       x0=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
       R=st.one_of(st.floats(0.0, 2.5), st.sampled_from([0.13, 0.26, 1 / 16, 1 / 8])))
def test_nodes_within_by_box_rows_is_the_layer_rule(name, x0, R):
    # the box's rows along the last axis, each found by searchsorted, give
    # the positions of the earlier rule, in its order
    g = BALL_QUERY_GRIDS[name]
    x0 = np.asarray(x0[:g.d])
    got = g.nodes_within(x0, R)
    assert got.dtype == np.intp
    assert np.array_equal(got, _nodes_within_by_layers(g, x0, R))


def test_nodes_within_holds_no_more_than_its_box():
    # the 3-D ball at h = 1/32 and R = 1/2 (17,071 nodes, 137 KB): the
    # query's temporaries are of the ball's index box; unravelling every
    # interior node of the box's first-axis layers peaked at 40 times the
    # result
    g = build_grid(Domain.unit_ball(3), 1 / 32)
    g.nodes_within(np.zeros(3), 0.5)            # fill the grid's caches
    for x0 in (np.zeros(3), np.array([0.3, -0.2, 0.1])):
        tracemalloc.start()
        try:
            pos = g.nodes_within(x0, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pos.size > 17000
        assert peak < 25 * pos.nbytes


@pytest.mark.parametrize("domain, h", [(Domain.unit_ball(2), 1 / 16), (Domain.unit_ball(3), 1 / 8),
                                       (Domain.box([[-1.0, 1.0], [0.0, 0.5]]), 1 / 16)])
def test_strides_and_the_active_interior_mask_are_computed_once(domain, h):
    g = build_grid(domain, h)
    s = g.strides()
    assert s is g.strides() and not s.flags.writeable
    assert s.tolist() == [int(np.prod(g.shape[a + 1:])) for a in range(g.d)]
    inner = g.active_is_interior()
    assert inner is g.active_is_interior() and not inner.flags.writeable
    assert np.array_equal(g.active_flat[inner], g.interior_flat)
    assert np.array_equal(g.active_flat[~inner], g.boundary_flat)
