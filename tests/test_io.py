"""Snapshot files and their maps: the rows a snapshot file holds, what a
store refuses to write, what a kept snapshot reads, and what a diagnostic
leaves mapped once it has read a snapshot."""

import dataclasses
import json

import numpy as np
import pytest

from sphereflow import diagnostics, field
from sphereflow import io as sfio
from sphereflow.diagnostics import (CylinderSpec, cylinder_integral, energy_report,
                                    hybrid_report, monotonicity_report,
                                    reverse_poincare_ratio, weighted_annulus_energy,
                                    window_snapshots)
from sphereflow.elliptic import solve_harmonic_extension
from sphereflow.field import InitialData, generate
from sphereflow.flow import PenaltySchedule, SolverConfig, glhf_step, run_glhf
from sphereflow.geometry import Domain, build_grid, rowsq
from sphereflow.singular import SingularConfig, detect_singular_set, local_scaled_energy
from sphereflow.stereo import one_sided_monitor


def _rss_file_bytes():
    """The ``RssFile`` of this process in bytes, or None where
    ``/proc/self/status`` has no such line."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("RssFile:"):
                    return 1024 * int(line.split()[1])
    except OSError:
        pass
    return None


def test_graph_subdomain_snapshot_is_refused_before_writing(tmp_path):
    # its index could not name the height function, so no reader could
    # rebuild the grid: no file is written
    grid = build_grid(Domain.graph_subdomain(lambda y: float(np.sum(y ** 2)), 2), 1 / 8)
    f = generate(InitialData(kind="constant"), grid, 2)
    with pytest.raises(ValueError, match="graph subdomain"):
        sfio.write_snapshot(tmp_path / "snap", f, t=0.0, step=0, lam=None, exponent=None)
    store = sfio.SnapshotStore(tmp_path / "store")
    with pytest.raises(ValueError, match="graph subdomain"):
        store.take(f, f.interior_rows())
    assert not store.bases and not store.digests
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["store"]


def test_every_read_of_a_mapped_snapshot_leaves_no_page_resident(tmp_path, disc16,
                                                                 map_rss):
    # each read copies what it reads and drops the map's pages, and a later
    # read maps the same bytes again
    f = generate(InitialData(kind="cap", latitude_deg=45.0), disc16, 2)
    mapped = sfio.SnapshotStore(tmp_path).take(f, f.interior_rows())
    pos = np.arange(0, disc16.n_interior, 7)
    shape = (disc16.n_interior, 3)
    reads = {"values": lambda s: s.values,
             "interior_rows": lambda s: s.interior_rows(),
             "interior_rows(pos)": lambda s: s.interior_rows(pos),
             "interior_rows(out=)": lambda s: s.interior_rows(out=np.empty(shape)),
             "active_values": lambda s: s.active_values(),
             "rows": lambda s: s.rows(disc16.active_flat[::5])}
    before, after = [], []
    for name, read in reads.items():
        for _ in range(2):
            float(mapped._rows.sum())           # fault every page in
            before.append(map_rss(mapped))
            assert read(mapped).tobytes() == read(f).tobytes(), name
            after.append(map_rss(mapped))
    assert all(rss > 0 for rss in map_rss.checked(before))
    assert map_rss.checked(after) == [0] * len(after)


def test_energy_report_reads_its_snapshot_once(tmp_path, disc16, monkeypatch, map_rss):
    # one held read gives the gradient and the penalty density and builds no
    # lattice, so the map drops its pages once, and no page of it is left
    # resident; the report and the cached densities are the in-memory
    # twin's, as the same floats
    u0 = generate(InitialData(kind="cap", latitude_deg=45.0), disc16, 2)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc16), T=0.05, output_stride=4)
    in_memory = run_glhf(u0, cfg, PenaltySchedule(lam=1e3))
    stored = run_glhf(u0, cfg, PenaltySchedule(lam=1e3),
                      store=sfio.SnapshotStore(tmp_path))
    built, lattice_values = [], field.lattice_values
    monkeypatch.setattr(field, "lattice_values",
                        lambda *a: built.append(a) or lattice_values(*a))
    released, release = [], field._SnapshotMap.release
    monkeypatch.setattr(field._SnapshotMap, "release",
                        lambda mm: released.append(mm) or release(mm))
    k = len(stored.snapshots) - 1
    report = energy_report(stored, k)
    resident = map_rss(stored.snapshots[k])
    assert built == []
    assert released == [stored.snapshots[k]._rows.base]
    expected = energy_report(in_memory, k)
    assert report.to_json() == expected.to_json()
    assert np.array_equal(report.density, expected.density)
    cache = stored._density_cache
    assert sorted(cache) == [(k, "gl"), (k, "gradient")]
    assert cache[k, "gl"] is report.density
    for mode in ("gradient", "gl"):
        assert np.array_equal(cache[k, mode],
                              diagnostics.energy_density(in_memory, k, mode))
    # so is a gl density alone
    released.clear()
    gl = diagnostics.energy_density(stored, k - 1, "gl")
    assert built == [] and released == [stored.snapshots[k - 1]._rows.base]
    assert np.array_equal(gl, diagnostics.energy_density(in_memory, k - 1, "gl"))
    assert map_rss.checked([resident]) == [0]


@pytest.mark.parametrize("stored", [False, True])
def test_kept_snapshot_densities_build_no_lattice(tmp_path, monkeypatch, stored):
    # the 3-D ball at h = 1/32, whose whole density takes nine blocks of
    # nodes: a kept snapshot, mapped or in memory, gives its whole density
    # from lattice spans and a ball's from stencil rows found by position,
    # the live field's densities bit for bit, and builds no lattice
    g = build_grid(Domain.unit_ball(3), 1 / 32)
    u0 = generate(InitialData(kind="equator-hedgehog"), g, 2)
    dt = SolverConfig.auto_dt(g)
    cfg = SolverConfig(dt=dt, T=2.5 * dt, output_stride=1)
    traj = run_glhf(u0, cfg, PenaltySchedule(lam=1e3),
                    store=sfio.SnapshotStore(tmp_path) if stored else None)
    kept = traj.snapshots[:-1]
    assert all(type(s) is field.KeptSnapshot for s in kept)
    live = [field.SphereField(g, np.array(s.values)) for s in kept]
    fresh = dataclasses.replace(traj)
    expect = {(k, mode): diagnostics.energy_density(
        dataclasses.replace(traj, snapshots=live), k, mode)
        for k in range(len(kept)) for mode in ("gl", "gradient")}
    balls = [g.nodes_within(np.asarray(x0), R) for x0, R in
             (((0.0, 0.0, 0.0), 0.25), ((0.3, -0.5, 0.6), 0.25), ((0.1, 0.2, -0.3), 0.6))]
    built, lattice_values = [], field.lattice_values
    monkeypatch.setattr(field, "lattice_values",
                        lambda *a: built.append(a) or lattice_values(*a))
    for k, (snap, f) in enumerate(zip(kept, live)):
        whole = field.gradient_squared_density(snap)
        assert np.array_equal(whole, field.gradient_squared_density(f))
        for nodes in balls:
            assert np.array_equal(field.gradient_squared_density(snap, nodes), whole[nodes])
            for mode in ("gl", "gradient"):
                assert np.array_equal(diagnostics.energy_density(fresh, k, mode, nodes),
                                      expect[k, mode][nodes])
        assert np.array_equal(diagnostics.energy_report(fresh, k).density, expect[k, "gl"])
        assert np.array_equal(fresh._density_cache[k, "gradient"], expect[k, "gradient"])
    assert built == []


@pytest.mark.parametrize("dom, h", [
    (Domain.unit_ball(3), 1 / 32),
    # layers of 261^2 nodes, wider than 4 BLOCK_NODES: a block is part of one
    (Domain.box([[0, 0.25], [0, 32], [0, 32]]), 0.125),
])
def test_kept_snapshot_density_reads_bounded_spans(monkeypatch, rng, dom, h):
    # the whole density, a ball's and one at positions in any order read the
    # kept snapshot in spans of at most max(4 BLOCK_NODES, s0) + 2 s0 rows, and
    # have the live field's bits
    from sphereflow.geometry import BLOCK_NODES
    g = build_grid(dom, h)
    live = field.SphereField(g, np.zeros(g.shape + (3,)))
    flat = live.flat()
    flat[g.interior_flat] = rng.standard_normal((g.n_interior, 3))
    flat[g.boundary_flat] = rng.standard_normal((g.boundary_flat.size, 3))
    snap = field.KeptSnapshot(g, live.interior_rows(), live.boundary_rows())
    s0 = int(g.strides()[0])
    spans, span = [], field.KeptSnapshot._span
    monkeypatch.setattr(field.KeptSnapshot, "_span",
                        lambda self, lo, hi, out: spans.append(hi - lo) or span(self, lo, hi, out))
    monkeypatch.setattr(field, "lattice_values", None)
    whole = field.gradient_squared_density(live)
    assert np.array_equal(field.gradient_squared_density(snap), whole)
    centre = g.node_coords(g.interior_flat[g.n_interior // 2: g.n_interior // 2 + 1])[0]
    for nodes in (g.nodes_within(centre, 0.3), rng.permutation(g.n_interior)[:500]):
        assert np.array_equal(field.gradient_squared_density(snap, nodes), whole[nodes])
    assert spans and max(spans) <= max(4 * BLOCK_NODES, s0) + 2 * s0


def _two_gather_density(f, nodes=None):
    """The density as the package computed it before it squared each link
    once: per axis, two row gathers around each node."""
    g = f.grid
    flat = np.asarray(f.values).reshape(-1, f.ncomp)
    idx = g.interior_flat if nodes is None else g.interior_flat[nodes]
    out = np.zeros(idx.size)
    rows = np.take(flat, idx, axis=0)
    for s in g.strides():
        d = np.take(flat, idx + s, axis=0)
        d -= rows
        up = rowsq(d, scratch=d)
        d = np.take(flat, idx - s, axis=0)
        np.subtract(rows, d, out=d)
        down = rowsq(d, scratch=d)
        out += 0.5 * (up + down) / g.h ** 2
    return out


@pytest.mark.parametrize("form", ["lattice", "in-memory", "mapped"])
@pytest.mark.parametrize("dom, h", [
    (Domain.unit_ball(2), 1 / 16),
    # 63 x 1023 interior nodes: four blocks of nodes
    (Domain.box([[0.0, 1.0], [0.0, 16.0]]), 1 / 64),
    # nine blocks of nodes
    (Domain.unit_ball(3), 1 / 32),
], ids=["disc", "strip", "ball3"])
def test_link_once_density_is_the_two_gather_density(tmp_path, rng, monkeypatch, form, dom, h):
    # squaring each link of a span once and reading it from both ends, or
    # each node's links (a sparse block's way), gives the two gathers' bits
    # at every node, for the whole interior, a ball and positions in any
    # order, whatever form the field has
    g = build_grid(dom, h)
    live = field.SphereField(g, np.zeros(g.shape + (3,)))
    flat = live.flat()
    flat[g.interior_flat] = rng.standard_normal((g.n_interior, 3))
    flat[g.boundary_flat] = rng.standard_normal((g.boundary_flat.size, 3))
    if form == "lattice":
        f = live
    elif form == "mapped":
        f = sfio.SnapshotStore(tmp_path).take(live, live.interior_rows())
    else:
        f = field.KeptSnapshot(g, live.interior_rows(), live.boundary_rows())
    centre = g.node_coords(g.interior_flat[g.n_interior // 3: g.n_interior // 3 + 1])[0]
    for nodes in (None, g.nodes_within(centre, 0.3), rng.permutation(g.n_interior)[:700]):
        expect = _two_gather_density(live, nodes).tobytes()
        assert field.gradient_squared_density(f, nodes).tobytes() == expect
        for every_block_sparse in (True, False):
            with monkeypatch.context() as m:
                m.setattr(field, "LINK_ONCE_SPAN", 0 if every_block_sparse else 1 << 40)
                assert field.gradient_squared_density(f, nodes).tobytes() == expect


def _every_diagnostic(traj) -> list:
    """One float (or list of floats) from each diagnostic that reads a
    run's snapshots."""
    z0 = (0.09, np.array([0.1, -0.05]))
    cyl = CylinderSpec(t0=0.05, x0=[0.1, 0.0], R=0.125)
    h0 = solve_harmonic_extension(traj.grid, traj.snapshots[0])
    mono = monotonicity_report(traj, z0, 0.125, 0.14)
    scan = detect_singular_set(traj, SingularConfig(eps0=1e-3, radii=[0.125, 0.25],
                                                    time_stride=3))
    monitor = one_sided_monitor(traj)
    return [energy_report(traj, len(traj.snapshots) - 1).gl_energy,
            weighted_annulus_energy(traj, z0, 0.125),
            mono.speed_term, mono.outer_energy,
            cylinder_integral(traj, cyl, "gradient"),
            local_scaled_energy(traj, (cyl.t0, cyl.x0), 0.25, "dirichlet"),
            list(reverse_poincare_ratio(traj, h0, cyl)),
            list(hybrid_report(traj, h0, cyl, 0.5)),
            scan.values, monitor.max_w_track, monitor.min_last_track,
            monitor.pde_residual_mean, monitor.pde_residual_max]


def test_diagnostics_read_the_same_values_after_release(tmp_path, disc16, map_rss):
    # a stored run reads as its in-memory twin, and again, from a fresh
    # density cache, once every read has released its snapshot's pages
    u0 = generate(InitialData(kind="cap", latitude_deg=45.0), disc16, 2)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc16), T=0.1, output_stride=4)
    in_memory = run_glhf(u0, cfg, PenaltySchedule(lam=1e3))
    stored = run_glhf(u0, cfg, PenaltySchedule(lam=1e3),
                      store=sfio.SnapshotStore(tmp_path))
    assert not stored.snapshots[0].values.flags.writeable
    expected = _every_diagnostic(in_memory)
    assert _every_diagnostic(stored) == expected
    resident = [map_rss(snap) for snap in stored.snapshots]
    fresh = dataclasses.replace(stored)
    assert _every_diagnostic(fresh) == expected
    assert map_rss.checked(resident) == [0] * len(resident)


def test_speed_term_builds_no_lattice(tmp_path, disc16, monkeypatch):
    # the monotonicity speed term reads each kept snapshot as one lattice
    # span, mapped or in memory, with the values of the run's live fields
    u0 = generate(InitialData(kind="cap", latitude_deg=45.0), disc16, 2)
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc16), T=0.1, output_stride=4)
    z0 = (0.09, np.array([0.1, -0.05]))
    runs = [run_glhf(u0, cfg, PenaltySchedule(lam=1e3), store=store)
            for store in (None, sfio.SnapshotStore(tmp_path))]
    live = dataclasses.replace(runs[0], snapshots=[field.SphereField(disc16, np.array(s.values))
                                                   for s in runs[0].snapshots])
    expect = monotonicity_report(live, z0, 0.125, 0.14)
    monkeypatch.setattr(field, "lattice_values", None)
    for traj in runs:
        assert monotonicity_report(traj, z0, 0.125, 0.14) == expect


@pytest.mark.skipif(_rss_file_bytes() is None,
                    reason="/proc/self/status has no RssFile line")
def test_cylinder_leaves_no_snapshot_pages_mapped(tmp_path):
    # a 3-D hedgehog at h = 1/16 through a store: 12 snapshots of 1.2 MB; a
    # gradient cylinder whose window holds 11 of them reads a ball of rows of
    # each.  A kernel that maps whole large page-cache folios would leave
    # several MB of them resident if the reads kept their pages mapped
    grid = build_grid(Domain.unit_ball(3), 1 / 16)
    u0 = generate(InitialData(kind="equator-hedgehog"), grid, 2)
    dt = SolverConfig.auto_dt(grid)
    cfg = SolverConfig(dt=dt, T=21.75 * dt, output_stride=2)
    traj = run_glhf(u0, cfg, PenaltySchedule(lam=1e3), store=sfio.SnapshotStore(tmp_path))
    assert len(traj.snapshots) == 12
    cyl = CylinderSpec(t0=traj.times[6], x0=[0.1, 0.0, 0.0], R=0.25)
    assert window_snapshots(traj, *cyl.window())[0].size == 11
    one_snapshot = traj.snapshots[0].values.nbytes
    before = _rss_file_bytes()
    cylinder_integral(traj, cyl, "gradient")
    grown = _rss_file_bytes() - before
    assert grown < one_snapshot


def _stepped(grid):
    """A cap field one penalized step on, exterior rows zero."""
    f = generate(InitialData(kind="cap", latitude_deg=50.0), grid, 2)
    return glhf_step(f, 0.0, SolverConfig(dt=SolverConfig.auto_dt(grid), T=1.0),
                     PenaltySchedule(lam=1e3))


@pytest.mark.parametrize("form", ["in-memory", "mapped"])
@pytest.mark.parametrize("domain, h", [(Domain.unit_ball(2), 1 / 16),
                                       (Domain.unit_ball(3), 1 / 8),
                                       (Domain.box([[-1.0, 1.0], [0.0, 0.5]]), 1 / 16)],
                         ids=["disc", "ball3", "box"])
def test_kept_snapshot_reads_are_the_lattice_gathers(tmp_path, monkeypatch, form, domain, h):
    # from its own rows or from a map of its file, a kept snapshot gives the
    # bytes its lattice would, with no lattice built but one per read of
    # ``values``, a new read-only one; it holds nothing but its grid and rows
    grid = build_grid(domain, h)
    f = _stepped(grid)
    if form == "mapped":
        kept = sfio.SnapshotStore(tmp_path).take(f, f.interior_rows())
        assert isinstance(kept._rows.base, field._SnapshotMap)
    else:
        kept = field.KeptSnapshot(grid, f.interior_rows(), f.boundary_rows())
    built, lattice_values = [], field.lattice_values
    monkeypatch.setattr(field, "lattice_values",
                        lambda *a: built.append(a) or lattice_values(*a))
    flat = f.flat()
    some = np.random.default_rng(1).integers(0, grid.n_lattice, 50)
    pos = np.random.default_rng(2).integers(0, grid.n_interior, 50)
    assert kept.active_values().tobytes() == np.take(flat, grid.active_flat, axis=0).tobytes()
    assert kept.rows(some).tobytes() == np.take(flat, some, axis=0).tobytes()
    assert kept.rows(np.arange(grid.n_lattice)).tobytes() == flat.tobytes()
    assert kept.boundary_rows().tobytes() == f.boundary_rows().tobytes()
    assert kept.interior_rows().tobytes() == f.interior_rows().tobytes()
    assert kept.interior_rows(pos).tobytes() == f.interior_rows(pos).tobytes()
    out = np.empty_like(f.interior_rows())
    assert kept.interior_rows(out=out) is out and out.tobytes() == f.interior_rows().tobytes()
    assert kept.max_norm() == f.max_norm()
    assert not built
    first = kept.values
    assert len(built) == 1
    second = kept.values
    assert len(built) == 2 and all(a[1] is kept._rows for a in built)
    assert first.tobytes() == second.tobytes() == f.values.tobytes()
    assert not np.shares_memory(first, second)
    assert not first.flags.writeable and not second.flags.writeable
    assert sorted(vars(kept)) == ["_boundary_rows", "_rows", "grid"]


@pytest.mark.parametrize("form", ["lattice", "kept", "mapped"])
def test_interior_rows_into_out_make_no_copy_of_out(tmp_path, form):
    # a gather into ``out`` traces less than a quarter of out's bytes (a
    # checked gather would copy out first), and a position past the last
    # interior row raises as before
    import tracemalloc
    grid = build_grid(Domain.unit_ball(3), 1 / 16)
    f = _stepped(grid)
    snap = {"lattice": lambda: f,
            "kept": lambda: field.KeptSnapshot(grid, f.interior_rows(), f.boundary_rows()),
            "mapped": lambda: sfio.SnapshotStore(tmp_path).take(f, f.interior_rows())}[form]()
    # the lattice field's positions would be a gather index of their own
    pos = None if form == "lattice" else np.arange(grid.n_interior)[::-1].copy()
    out = np.empty((grid.n_interior, 3))
    tracemalloc.start()
    try:
        got = snap.interior_rows(pos, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is out and out.tobytes() == f.interior_rows(pos).tobytes()
    assert peak < out.nbytes / 4
    bad = [[grid.n_interior], [0, grid.n_interior]]
    if form != "lattice":
        bad.append([-1])        # a kept snapshot checks its positions
    for wrong in bad:
        with pytest.raises(IndexError):
            snap.interior_rows(np.array(wrong), out=out[:len(wrong)])


def test_a_snapshot_is_its_rows_in_two_files(tmp_path, disc16):
    # the .f64 file holds the interior rows, the .bnd file the boundary rows,
    # and the directory's index their shape and the boundary file's name; the
    # writers make no directory but write_snapshot's own
    f = _stepped(disc16)
    base = tmp_path / "a" / "snap"
    digests = sfio.write_snapshot(base, f, t=0.5, step=3, lam=None, exponent=None)
    assert base.with_suffix(".f64").read_bytes() == f.interior_rows().tobytes()
    assert base.with_suffix(".bnd").read_bytes() == f.boundary_rows().tobytes()
    index = json.loads((tmp_path / "a" / "index.json").read_text())
    assert index["shape"] == [disc16.n_interior, 3]
    assert index["snapshots"]["snap"]["boundary"] == "snap.bnd"
    files = [base.with_suffix(".f64"), base.with_suffix(".bnd"), tmp_path / "a" / "index.json"]
    assert digests == tuple((sfio.sha256_file(p), p.stat().st_size) for p in files)
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == sorted(p.name for p in files)
    kept, _ = sfio.read_rows(base)
    assert kept.values.tobytes() == f.values.tobytes()
    g, _ = sfio.read_snapshot(base)
    assert g.values.flags.writeable and g.values.tobytes() == f.values.tobytes()
    with pytest.raises(FileNotFoundError):
        sfio.write_json(tmp_path / "missing" / "x.json", {})


def test_a_lattice_layout_snapshot_is_refused(tmp_path, disc16):
    # the layout earlier versions wrote: the whole lattice and a sidecar
    # with its shape and no boundary file, and no index; listed in an index
    # as it stands, it is refused for its missing boundary file
    f = _stepped(disc16)
    base = tmp_path / "old"
    base.with_suffix(".f64").write_bytes(f.values.tobytes())
    meta = {"grid": sfio.grid_spec(disc16), "shape": list(f.values.shape), "D": 2,
            "t": 0.0, "step": 0, "lambda": None, "exponent": None, "tag": "u"}
    base.with_suffix(".json").write_text(json.dumps(meta))
    reads = (lambda: sfio.check_snapshot(base, disc16, 2),
             lambda: sfio.read_rows(base), lambda: sfio.read_snapshot(base))
    for read in reads:
        with pytest.raises(ValueError, match="has no index .*rerun the flow"):
            read()
    head = {k: meta.pop(k) for k in ("grid", "shape", "D", "tag")}
    (tmp_path / "index.json").write_text(json.dumps(dict(head, snapshots={"old": meta})))
    for read in reads:
        with pytest.raises(ValueError, match="boundary file None"):
            read()


def test_write_snapshot_adds_and_replaces_index_entries(tmp_path, disc16):
    # two snapshots in one directory are two readable entries of one index;
    # writing a name again replaces its files and its entry
    f, g = generate(InitialData(kind="cap", latitude_deg=45.0), disc16, 2), _stepped(disc16)
    sfio.write_snapshot(tmp_path / "a", f, t=0.0, step=0, lam=10.0, exponent=1.0)
    sfio.write_snapshot(tmp_path / "b", g, t=0.5, step=3, lam=None, exponent=None)
    index = json.loads((tmp_path / "index.json").read_text())
    assert sorted(index["snapshots"]) == ["a", "b"]
    for name, h, meta in (("a", f, (0.0, 0, 10.0, 1.0)), ("b", g, (0.5, 3, None, None))):
        kept, got = sfio.read_rows(tmp_path / name)
        assert kept.values.tobytes() == h.values.tobytes()
        assert (got["t"], got["step"], got["lambda"], got["exponent"]) == meta
        assert got["boundary"] == f"{name}.bnd" and got["grid"] == sfio.grid_spec(disc16)
    sfio.write_snapshot(tmp_path / "a", g, t=0.25, step=9, lam=None, exponent=None)
    assert sorted(json.loads((tmp_path / "index.json").read_text())["snapshots"]) == ["a", "b"]
    kept, got = sfio.read_rows(tmp_path / "a")
    assert kept.values.tobytes() == g.values.tobytes()
    assert (got["t"], got["step"], got["lambda"]) == (0.25, 9, None)
    assert sfio.read_rows(tmp_path / "b")[1]["t"] == 0.5


@pytest.mark.parametrize("other", ["spacing", "D"])
def test_write_snapshot_refuses_an_index_of_another_lattice(tmp_path, disc16, other):
    # an index lists snapshots of one grid spec, D and shape: a snapshot of
    # another is refused, and no file is written or changed
    f = generate(InitialData(kind="cap", latitude_deg=45.0), disc16, 2)
    sfio.write_snapshot(tmp_path / "a", f, t=0.0, step=0, lam=None, exponent=None)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    if other == "spacing":
        g = generate(InitialData(kind="cap", latitude_deg=45.0),
                     build_grid(Domain.unit_ball(2), 1 / 8), 2)
    else:
        g = generate(InitialData(kind="constant", vector=np.array([0.0, 0.0, 0.0, 1.0])),
                     disc16, 3)
    for name in ("a", "b"):
        with pytest.raises(ValueError, match="lists snapshots of"):
            sfio.write_snapshot(tmp_path / name, g, t=0.0, step=0, lam=None, exponent=None)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
