import csv
import gc
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from sphereflow import cli, field, flow, geometry
from sphereflow import io as sfio
from sphereflow.cli import main, run_experiment, sweep
from sphereflow.errors import KernelUnderresolved, NormBlowup
from sphereflow.field import InitialData, generate, l2_distance
from sphereflow.geometry import Domain, build_grid
from sphereflow.io import read_snapshot, write_snapshot
from sphereflow.singular import local_scaled_energy

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


@pytest.fixture(scope="module")
def cap_disc_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("cap_disc")
    code = run_experiment(CONFIGS / "cap_disc.json", out)
    assert code == 0
    return out


def test_run_exit_and_artifacts(cap_disc_out):
    manifest = json.loads((cap_disc_out / "manifest.json").read_text())
    paths = {f["path"] for f in manifest["files"]}
    assert "trajectory.csv" in paths
    assert "reports/energy.json" in paths
    assert "reports/cylinders.csv" in paths
    assert "reports/monotonicity.json" in paths


def test_golden_run_frozen_values(cap_disc_out):
    # golden fixture produced by this implementation and frozen
    rows = read_rows(cap_disc_out / "trajectory.csv")
    assert rows[0] == ["step", "t", "gl_energy", "dirichlet_energy",
                       "penalty_increment", "max_norm"]
    assert len(rows) == 287           # header + initial row + 285 steps
    assert float(rows[1][2]) == pytest.approx(3.1418951531984334, rel=1e-12)
    assert float(rows[2][4]) == pytest.approx(5.4159917185006828e-07, rel=1e-9)


def test_manifest_checksums_and_completeness(cap_disc_out):
    manifest = json.loads((cap_disc_out / "manifest.json").read_text())
    listed = {f["path"]: f["sha256"] for f in manifest["files"]}
    on_disk = {p.relative_to(cap_disc_out).as_posix()
               for p in cap_disc_out.rglob("*")
               if p.is_file() and p.name != "manifest.json"}
    assert on_disk == set(listed)
    for rel, digest in listed.items():
        assert sfio.sha256_file(cap_disc_out / rel) == digest


def test_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_experiment(CONFIGS / "cap_disc.json", a) == 0
    assert run_experiment(CONFIGS / "cap_disc.json", b) == 0
    for rel in ("trajectory.csv", "reports/cylinders.csv"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_cfl_violation_exits_2(tmp_path):
    cfg = json.loads((CONFIGS / "cap_disc.json").read_text())
    cfg["solver"]["dt"] = 1.0
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_experiment(p, out) == 2
    err = json.loads((out / "error.json").read_text())
    assert "cfl" in err["message"].lower() or "h^2" in err["message"]


@pytest.mark.parametrize("data", [b"{", b"\xff{}", b""])
def test_unparsable_config_exits_2(tmp_path, data):
    # malformed JSON, bytes that are not UTF-8 and an empty file
    p = tmp_path / "bad.json"
    p.write_bytes(data)
    out = tmp_path / "out"
    assert run_experiment(p, out) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and "cannot read config" in err["message"]


@pytest.mark.parametrize("key, value", [("lambda", float("nan")),
                                        ("T", float("inf")),
                                        ("cfl", float("nan")),
                                        ("dt", float("nan"))])
def test_non_finite_solver_number_exits_2(tmp_path, key, value):
    cfg = json.loads((CONFIGS / "onesided_cap.json").read_text())
    cfg["solver"].update({"mode": "glhf-simplified", "lambda": 1000.0, key: value})
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))      # NaN / Infinity literals
    out = tmp_path / "out"
    assert run_experiment(p, out) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and "finite" in err["message"]
    assert not (out / "trajectory.csv").exists()


def test_unparseable_config_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    assert run_experiment(p, tmp_path / "out") == 2


@pytest.mark.parametrize("section", ["domain", "initial", "solver", "diagnostics"])
def test_non_object_config_section_exits_2(tmp_path, section):
    cfg = json.loads((CONFIGS / "cap_disc.json").read_text())
    cfg[section] = []
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_experiment(p, out) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError"


@pytest.mark.parametrize("section, value", [
    ("monotonicity", []),
    ("small_energy", []),
    ("cylinders", [1]),
    ("cylinders", [{"t0": 0.0625, "x0": [0.0], "R": 0.25}]),
    ("monotonicity", {"t0": 0.1, "x0": [0.0, 0.0], "pairs": [[0.1]]}),
    ("small_energy", {"t0": 0.0625, "x0": [0.0, 0.0], "radii": 0.25, "eps0": 1.0}),
    ("mbar_probe", [0.125]),
    # a present key is parsed: these count as malformed, not as absent
    ("mbar_probe", {}),
    ("mbar_probe", None),
    ("mbar_probe", False),
    ("mbar_probe", 0),
    ("cylinders", {}),
    ("cylinders", None),
    ("cylinders", False),
    ("cylinders", 0),
    ("cylinders", ""),
    # an empty list would report nothing, or certify vacuously
    ("monotonicity", {"t0": 0.1, "x0": [0.0, 0.0], "pairs": []}),
    ("small_energy", {"t0": 0.0625, "x0": [0.0, 0.0], "radii": [], "eps0": 1.0}),
])
def test_malformed_diagnostics_section_exits_2_before_stepping(tmp_path, section, value):
    cfg = json.loads((CONFIGS / "onesided_cap.json").read_text())
    cfg["diagnostics"] = {section: value}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_experiment(p, out) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and err["exit_code"] == 2
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("section, value", [
    ("monotonicity", {"t0": 0.1, "x0": [0.0, 0.0], "pairs": [[0.1, 0.05]]}),
    ("monotonicity", {"t0": 0.1, "x0": [0.0, 0.0], "pairs": [[0.1, 0.2]]}),
    ("monotonicity", {"t0": 0.1, "x0": [0.0, 0.0], "pairs": [[0.05, 0.1]],
                      "mode": "dirichlet"}),
    ("monotonicity", {"t0": 0.1, "x0": [0.0, 0.0], "pairs": [[0.05, 0.1]],
                      "rhs_form": "sum"}),
    ("cylinders", [{"t0": 0.0625, "x0": [0.0, 0.0], "R": 0.1}]),
    ("cylinders", [{"t0": 0.0625, "x0": [0.0, 0.0], "R": 0.25, "mode": "gradient"}]),
    ("small_energy", {"t0": 0.0625, "x0": [0.0, 0.0], "radii": [0.25, -0.125],
                      "eps0": 1.0}),
    ("singular", {"eps0": 1.0, "radii": [0.25, 0.5], "mode": "dirchlet"}),
    ("singular", {"eps0": 1.0, "radii": [0.25, 4.0]}),
    # eps0^2 overflows: the certificate's bound is no number
    ("small_energy", {"t0": 0.0625, "x0": [0.0, 0.0], "radii": [0.25], "eps0": 1e300}),
])
def test_diagnostic_value_errors_exit_2_before_stepping(tmp_path, section, value):
    # h = 1/16 and T = 0.125: the 2h cylinder floor is 0.125
    cfg = json.loads((CONFIGS / "onesided_cap.json").read_text())
    cfg["diagnostics"] = {section: value}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_experiment(p, out) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and err["exit_code"] == 2
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("kind", ["x", "Cap", None, ["cap"]])
def test_unknown_initial_kind_exits_2_at_load(tmp_path, kind):
    cfg = json.loads((CONFIGS / "onesided_cap.json").read_text())
    cfg["initial"]["kind"] = kind
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_experiment(p, out) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and err["exit_code"] == 2
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("mode", ["glhf-original", "Projected", None])
def test_unknown_solver_mode_exits_2_at_load(tmp_path, mode):
    cfg = json.loads((CONFIGS / "cap_disc.json").read_text())
    cfg["solver"]["mode"] = mode
    err = _exits_2_at_load(tmp_path, cfg)
    assert "solver mode" in err["message"]


@pytest.mark.parametrize("config,patch", [
    ("onesided_cap.json", {"initial": {"kind": "equator-hedgehog"}}),
    ("hedgehog_ball.json", {"D": 1}),
    ("onesided_cap.json", {"initial": {"kind": "constant", "vector": [1, 0]}}),
    ("onesided_cap.json", {"initial": {"kind": "constant", "vector": [0, 0, 0, 1]}}),
    ("onesided_cap.json", {"D": 0}),
], ids=["hedgehog-2d", "hedgehog-D1", "constant-short", "constant-long", "D0"])
def test_initial_data_mismatch_exits_2_at_load(tmp_path, config, patch):
    # the conditions field.generate raises on, caught before any stepping
    cfg = json.loads((CONFIGS / config).read_text())
    cfg.update(patch)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_experiment(p, out) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and err["exit_code"] == 2
    assert not (out / "trajectory.csv").exists()


def _exits_2_at_load(tmp_path, cfg, command=run_experiment) -> dict:
    """Run ``cfg`` with ``command``; expect exit 2 with ``error.json`` and
    no stepping, and return the error payload."""
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))      # NaN / Infinity literals
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no numpy warning on the way
        assert command(p, out) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and err["exit_code"] == 2
    assert not (out / "trajectory.csv").exists() and not (out / "sweep.csv").exists()
    return err


@pytest.mark.parametrize("section, value", [
    ("domain", {"kind": "unit-ball", "d": 2.5}),
    ("domain", {"kind": "half-ball", "d": 2.5}),
    ("domain", {"kind": "box", "d": 2.5}),
    ("domain", {"kind": "unit-ball", "d": float("nan")}),
    ("domain", {"kind": "unit-ball", "d": float("inf")}),
    ("domain", {"kind": "box", "bounds": [[-1.0, float("nan")], [-1.0, 1.0]]}),
    ("domain", {"kind": "box", "bounds": [[-1.0, 1.0], [float("-inf"), 1.0]]}),
    ("initial", {"kind": "cap", "latitude_deg": float("nan")}),
    ("initial", {"kind": "cap", "latitude_deg": float("inf")}),
    ("initial", {"kind": "boundary-wrap", "winding": 2.5}),
    ("initial", {"kind": "constant", "vector": [0.0, float("nan"), 1.0]}),
    ("initial", {"kind": "constant", "vector": [0.0, 0.0, float("inf")]}),
    ("initial", {"kind": "constant", "vector": [0.0, 0.0, 0.0]}),
    ("initial", {"kind": "constant", "vector": [1e300, 0.0, 0.0]}),
], ids=["d-2.5", "half-ball-d-2.5", "box-d-2.5", "d-nan", "d-inf", "bounds-nan",
        "bounds-inf", "latitude-nan", "latitude-inf", "winding-2.5", "vector-nan",
        "vector-inf", "vector-zero", "vector-overflow"])
def test_domain_and_initial_values_exit_2_at_load(tmp_path, section, value):
    # caught by the parse, before build_grid can warn or the flow can run
    cfg = json.loads((CONFIGS / "onesided_cap.json").read_text())
    cfg[section] = value
    _exits_2_at_load(tmp_path, cfg)


@pytest.mark.parametrize("d, bounds", [
    (3, [[-1.0, 1.0], [-1.0, 1.0]]),
    (2, [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]),
], ids=["d-3-bounds-2d", "d-2-bounds-3d"])
def test_box_dimension_disagreeing_with_bounds_exits_2_at_load(tmp_path, d, bounds):
    # without diagnostics nothing else in the config names a dimension, so
    # only the domain check can stop the box from running in the bounds' d
    cfg = json.loads((CONFIGS / "onesided_cap.json").read_text())
    cfg["domain"] = {"kind": "box", "d": d, "bounds": bounds}
    cfg["h"] = 0.125
    cfg["solver"]["T"] = 0.01
    cfg["diagnostics"] = {}
    err = _exits_2_at_load(tmp_path, cfg)
    assert "domain.d" in err["message"]


@pytest.mark.parametrize("diagnostics", [
    {"cylinders": [{"t0": 0.5, "x0": [0.0, 0.0], "R": 0.25}]},
    {"cylinders": [{"t0": -0.5, "x0": [0.0, 0.0], "R": 0.25}]},
    {"cylinders": [{"t0": 0.0625, "x0": [1.5, 0.0], "R": 0.125}]},
    {"monotonicity": {"t0": 1.0, "x0": [0.0, 0.0], "pairs": [[0.125, 0.25]]}},
    {"small_energy": {"t0": 1.0, "x0": [0.0, 0.0], "radii": [0.25], "eps0": 1.0}},
    {"small_energy": {"t0": 0.0625, "x0": [1.5, 0.0], "radii": [0.5, 0.25],
                      "eps0": 1.0}},
], ids=["cylinder-after-T", "cylinder-before-0", "cylinder-outside",
        "monotonicity-after-T", "small_energy-after-T", "small_energy-outside"])
def test_diagnostics_windows_exit_2_at_load(tmp_path, diagnostics):
    # h = 1/16 and T = 0.125: each window or ball misses the run
    cfg = json.loads((CONFIGS / "onesided_cap.json").read_text())
    cfg["diagnostics"] = diagnostics
    err = _exits_2_at_load(tmp_path, cfg)
    assert "holds no" in err["message"]


@pytest.mark.parametrize("probe", [{"t0": 1.0, "R": 0.125},
                                   {"x0": [1.5, 0.0], "R": 0.125}],
                         ids=["after-T", "outside"])
def test_sweep_mbar_probe_window_exits_2_at_load(tmp_path, probe):
    cfg = json.loads((CONFIGS / "cap_disc.json").read_text())
    cfg["solver"]["T"] = 1 / 256
    cfg["diagnostics"]["mbar_probe"] = dict(probe, mode="gl")
    err = _exits_2_at_load(tmp_path, cfg,
                           lambda p, out: sweep(p, "lambda", [100.0, 1000.0], out))
    assert "mbar_probe" in err["message"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_load_checks_a_window_by_the_readings_own_rule(tmp_path, monkeypatch, command):
    # load builds the diagnostics' readings on the run's snapshot plan, so a
    # window the readings' rule (diagnostics.window_snapshots) refuses exits
    # 2 at load, before any step: the R = 1/4 cylinder of run, the mbar
    # probe (t0 = T/2, R = 1/8) of each sweep case.  A load check that
    # copies the rule lets both through to fail after the flow
    from sphereflow import diagnostics
    from sphereflow.errors import EmptyIntersection

    cfg = json.loads((CONFIGS / "cap_disc.json").read_text())
    if command == "run":
        name, refused = "cylinders", diagnostics.cylinder_window(0.03125, 0.25)
    else:
        name, refused = "mbar_probe", diagnostics.cylinder_window(cfg["solver"]["T"] / 2,
                                                                  0.125)
    window_snapshots = diagnostics.window_snapshots

    def refusing(traj, a, b):
        if (a, b) == refused:
            raise EmptyIntersection(f"window [{a:g}, {b:g}) holds no snapshot")
        return window_snapshots(traj, a, b)

    monkeypatch.setattr(diagnostics, "window_snapshots", refusing)
    err = _exits_2_at_load(tmp_path, cfg, run_experiment if command == "run" else
                           lambda p, out: sweep(p, "lambda", [100.0, 1000.0], out))
    assert err["message"].startswith(f"diagnostics.{name}: window [")


def test_readings_built_at_load_hold_no_row_sized_array():
    # what run builds at load, on the plan of the 3-D ball at h = 1/32 with a
    # cylinder, monotonicity pairs and a small-energy certificate: ball
    # nodes, window weights and closures.  Measured: 186 KiB held, against
    # 3.3 MB for one interior-row array (the largest ball, R = 1/2, holds
    # 17,071 nodes); the bound, 411 KB, also refuses one float per interior
    # node (1.1 MB).  The grid's interior_flat, which the flow builds
    # anyway, is built before the traced region
    cfg = json.loads((CONFIGS / "hedgehog_ball.json").read_text())
    cfg["h"] = 1 / 32
    cfg["diagnostics"].update(
        small_energy={"t0": 0.025, "x0": [0.0, 0.0, 0.0], "radii": [0.5, 0.25, 0.125],
                      "eps0": 1.0},
        monotonicity={"t0": 0.05, "x0": [0.0, 0.0, 0.0], "pairs": [[0.0625, 0.1]]})
    loaded = cli.ExperimentConfig.from_dict(cfg)
    assert loaded.grid.interior_flat.size == loaded.grid.n_interior
    tracemalloc.start()
    try:
        readings = cli._run_readings(loaded, loaded.plan())
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sorted(map(str, readings)) == ["0", "monotonicity", "small_energy"]
    rows_bytes = loaded.grid.n_interior * 3 * 8
    assert held < rows_bytes / 8, held / rows_bytes


@pytest.mark.parametrize("solver", [{"T": 1e300}, {"T": 1.0, "dt": 1e-300},
                                    {"T": 1.0, "dt": 5e-324}],
                         ids=["T-1e300", "dt-tiny", "dt-denormal"])
def test_step_budget_exits_2_at_load(tmp_path, solver):
    cfg = json.loads((CONFIGS / "onesided_cap.json").read_text())
    cfg["solver"].update(solver)
    err = _exits_2_at_load(tmp_path, cfg)
    assert "budget" in err["message"]


@pytest.mark.parametrize("command", ["run", "sweep-h"])
def test_run_of_no_step_exits_2_at_load(tmp_path, command):
    # T below 1e-9 of a step rounds to n_steps() == 0: a run of step 0 only
    cfg = json.loads((CONFIGS / "onesided_cap.json").read_text())
    cfg["solver"]["T"] = 1e-14
    cfg["diagnostics"] = {}
    err = _exits_2_at_load(tmp_path, cfg, run_experiment if command == "run" else
                           lambda p, out: sweep(p, "h", [0.125], out))
    assert "solver.T / dt" in err["message"]


def test_empty_cylinder_list_runs(tmp_path):
    cfg = json.loads((CONFIGS / "onesided_cap.json").read_text())
    cfg["solver"]["T"] = 0.01
    cfg["diagnostics"] = {"cylinders": []}
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(cfg))
    assert run_experiment(p, tmp_path / "o") == 0
    assert not (tmp_path / "o" / "reports" / "cylinders.csv").exists()


def test_step_budget_bound(tmp_path, monkeypatch):
    # a run of MAX_STEPS steps runs; one more step is rejected at load
    monkeypatch.setattr(cli, "MAX_STEPS", 10)
    cfg = json.loads((CONFIGS / "onesided_cap.json").read_text())
    cfg["diagnostics"] = {}
    dt = 0.9 * (1 / 16) ** 2 / 4
    cfg["solver"]["T"] = 10 * dt
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(cfg))
    assert run_experiment(p, tmp_path / "ok") == 0
    cfg["solver"]["T"] = 10.5 * dt
    _exits_2_at_load(tmp_path, cfg)


def _cap_on_ball3(h) -> dict:
    """onesided_cap.json on the 3-D unit ball at spacing h, without diagnostics."""
    cfg = json.loads((CONFIGS / "onesided_cap.json").read_text())
    cfg.update(domain={"kind": "unit-ball", "d": 3}, h=h, diagnostics={})
    return cfg


def test_lattice_budget_exits_2_at_load(tmp_path):
    # h = 1e-4 on the 3-D ball asks for 8e12 lattice nodes (58 TiB per array)
    err = _exits_2_at_load(tmp_path, _cap_on_ball3(1e-4))
    assert "budget" in err["message"]


def test_sweep_h_over_lattice_budget_exits_2_at_load(tmp_path):
    err = _exits_2_at_load(tmp_path, _cap_on_ball3(0.25),
                           lambda p, out: sweep(p, "h", [0.25, 1e-4], out))
    assert "budget" in err["message"]


def test_lattice_budget_bound(tmp_path, monkeypatch):
    # a lattice of MAX_LATTICE_NODES nodes runs; one node fewer allowed is
    # rejected at load
    cfg = _cap_on_ball3(0.25)
    n_lattice = build_grid(Domain.unit_ball(3), 0.25).n_lattice
    monkeypatch.setattr(geometry, "MAX_LATTICE_NODES", n_lattice)
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(cfg))
    assert run_experiment(p, tmp_path / "ok") == 0
    monkeypatch.setattr(geometry, "MAX_LATTICE_NODES", n_lattice - 1)
    _exits_2_at_load(tmp_path, cfg)


# eps0 = 1e-9 flags every scan point, so box counting runs on every scale list
SCAN = {"eps0": 1e-9, "radii": [0.125, 0.25, 0.5], "space_stride": 4}


@pytest.mark.parametrize("diagnostics", [
    {"singular": dict(SCAN, eps0=float("nan"))},
    {"singular": dict(SCAN, eps0=float("inf"))},
    {"singular": dict(SCAN, deltas=[0.5, float("nan"), 0.125])},
    {"singular": dict(SCAN, deltas=[0.5, 0.25, 0.0])},
    {"singular": dict(SCAN, deltas=[0.5, -0.25, 0.125])},
    {"singular": dict(SCAN, deltas=[0.5, 0.25, 0.25])},
    {"singular": dict(SCAN, radii=[0.125, 0.25, 0.25])},
    {"one_sided": "false"},
    {"one_sided": "no"},
    {"one_sided": [1]},
], ids=["eps0-nan", "eps0-inf", "delta-nan", "delta-zero", "delta-negative",
        "delta-repeated", "radius-repeated", "one_sided-false-string",
        "one_sided-no", "one_sided-list"])
def test_singular_and_one_sided_values_exit_2_at_load(tmp_path, diagnostics):
    # h = 1/16: every scan radius clears the 2h floor
    cfg = json.loads((CONFIGS / "onesided_cap.json").read_text())
    cfg["diagnostics"] = diagnostics
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))      # NaN / Infinity literals
    out = tmp_path / "out"
    assert run_experiment(p, out) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and err["exit_code"] == 2
    assert not (out / "trajectory.csv").exists()


def _samples_config(tmp_path, snapshot_h=1 / 16):
    """onesided_cap.json started from a cap snapshot taken at spacing
    snapshot_h (the config's own spacing is 1/16)."""
    cfg = json.loads((CONFIGS / "onesided_cap.json").read_text())
    grid = build_grid(Domain.from_config(cfg["domain"]), snapshot_h)
    base = tmp_path / "snap"
    write_snapshot(base, generate(InitialData(kind="cap", latitude_deg=45.0), grid, 2),
                   t=0.0, step=0, lam=None, exponent=None)
    cfg["initial"] = {"kind": "custom-samples", "path": str(base)}
    p = tmp_path / "samples.json"
    p.write_text(json.dumps(cfg))
    return p, base


def test_custom_samples_snapshot_runs(tmp_path):
    p, base = _samples_config(tmp_path)
    out = tmp_path / "out"
    assert run_experiment(p, out) == 0
    first, _ = read_snapshot(out / "snapshots" / "snap_000000")
    # projection of unit vectors moves them by at most an ulp
    assert np.allclose(first.values, read_snapshot(base)[0].values, rtol=0.0, atol=1e-15)


def test_custom_samples_of_overflowing_norm_exit_3(tmp_path):
    # the snapshot passes the load checks; projecting its overflowing row
    # refuses it before the flow starts
    p, base = _samples_config(tmp_path)
    f, _ = read_snapshot(base)
    f.flat()[f.grid.interior_flat[7]] = [1e300, 1e300, 0.0]
    write_snapshot(base, f, t=0.0, step=0, lam=None, exponent=None)
    out = tmp_path / "out"
    assert run_experiment(p, out) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "NonFiniteVector" and err["exit_code"] == 3
    assert [q.name for q in out.iterdir()] == ["error.json"]


def test_box_run_and_custom_samples_from_its_snapshot(tmp_path):
    bounds = [[-1.0, 1.0], [0.0, 0.5]]
    cfg = json.loads((CONFIGS / "onesided_cap.json").read_text())
    cfg["domain"] = {"kind": "box", "d": 2, "bounds": bounds}
    cfg["solver"]["T"] = 0.01
    cfg["diagnostics"] = {}
    p = tmp_path / "box.json"
    p.write_text(json.dumps(cfg))
    assert run_experiment(p, tmp_path / "box") == 0
    base = tmp_path / "box" / "snapshots" / "snap_000001"
    spec = json.loads((base.parent / "index.json").read_text())["grid"]
    rebuilt, dom = Domain.from_config(spec["domain"]), Domain.box(bounds)
    assert (rebuilt.kind, rebuilt.d) == (dom.kind, dom.d)
    assert np.array_equal(rebuilt.bounds, dom.bounds)
    assert np.array_equal(build_grid(rebuilt, spec["h"]).node_class,
                          build_grid(dom, 1 / 16).node_class)
    cfg["initial"] = {"kind": "custom-samples", "path": str(base)}
    p.write_text(json.dumps(cfg))
    assert run_experiment(p, tmp_path / "samples") == 0
    first, _ = read_snapshot(tmp_path / "samples" / "snapshots" / "snap_000000")
    assert np.allclose(first.values, read_snapshot(base)[0].values, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("defect", ["no-index", "no-entry", "truncated", "other-grid"])
def test_custom_samples_snapshot_checked_at_load(tmp_path, defect):
    # no-index is a directory as earlier versions wrote it, a JSON sidecar
    # beside each snapshot and no index; no-entry an index that does not
    # list the snapshot
    p, base = _samples_config(tmp_path, 1 / 8 if defect == "other-grid" else 1 / 16)
    index = tmp_path / "index.json"
    if defect == "no-index":
        _, meta = read_snapshot(base)
        base.with_suffix(".json").write_text(json.dumps(meta))
        index.unlink()
    elif defect == "no-entry":
        listed = json.loads(index.read_text())
        listed["snapshots"] = {"snap_000000": listed["snapshots"].pop("snap")}
        index.write_text(json.dumps(listed))
    elif defect == "truncated":
        data = base.with_suffix(".f64").read_bytes()
        base.with_suffix(".f64").write_bytes(data[:-8])
    out = tmp_path / "out"
    assert run_experiment(p, out) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and err["exit_code"] == 2
    assert not (out / "trajectory.csv").exists()
    if defect in ("no-index", "no-entry"):
        named = {"no-index": f"has no index {str(index)!r}",
                 "no-entry": "lists no snapshot 'snap'"}[defect]
        assert named in err["message"] and "rerun the flow" in err["message"]


BOX = {"kind": "box", "d": 2, "bounds": [[-1.0, 1.0], [-1.0, 1.0]]}


@pytest.mark.parametrize("snapshot_domain, run_domain", [
    ({"kind": "unit-ball", "d": 2}, BOX),
    (BOX, dict(BOX, bounds=[[-1.0, 0.99], [-1.0, 1.0]])),
], ids=["ball-snapshot-box-run", "box-snapshot-narrower-box-run"])
def test_custom_samples_from_another_domain_exit_2_at_load(tmp_path, snapshot_domain,
                                                           run_domain):
    # both pairs share one lattice shape at h = 1/16
    cfg = json.loads((CONFIGS / "onesided_cap.json").read_text())
    grid = build_grid(Domain.from_config(snapshot_domain), cfg["h"])
    base = tmp_path / "snap"
    write_snapshot(base, generate(InitialData(kind="cap", latitude_deg=45.0), grid, 2),
                   t=0.0, step=0, lam=None, exponent=None)
    cfg["domain"] = run_domain
    cfg["initial"] = {"kind": "custom-samples", "path": str(base)}
    p = tmp_path / "samples.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_experiment(p, out) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and "grid" in err["message"]
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("config, where, old, new", [
    ("cap_disc", (), None, "seed"),
    ("cap_disc", ("domain",), None, "bounds"),
    ("cap_disc", ("initial",), None, "winding_number"),
    ("cap_disc", ("solver",), "output_stride", "outptu_stride"),
    ("cap_disc", ("diagnostics",), "monotonicity", "monotonicty"),
    ("cap_disc", ("diagnostics", "cylinders", 0), None, "weight"),
    ("cap_disc", ("diagnostics", "monotonicity"), None, "R"),
    ("cap_disc", ("diagnostics", "mbar_probe"), None, "radius"),
    ("onesided_cap", ("diagnostics", "small_energy"), None, "eps"),
    ("hedgehog_ball", ("diagnostics", "singular"), None, "delta"),
], ids=["top", "domain", "initial", "solver", "diagnostics", "cylinder", "monotonicity",
        "mbar_probe", "small_energy", "singular"])
def test_unread_config_key_exits_2_naming_it(tmp_path, config, where, old, new):
    cfg = json.loads((CONFIGS / f"{config}.json").read_text())
    sec = cfg
    for k in where:
        sec = sec[k]
    sec[new] = sec.pop(old) if old else 1
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_experiment(p, out) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and repr(new) in err["message"]
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("config, where, value", [
    ("cap_disc", ("D",), True),
    ("cap_disc", ("h",), "0.03125"),
    ("cap_disc", ("solver", "T"), "0.0625"),
    ("cap_disc", ("solver", "output_stride"), True),
    ("cap_disc", ("initial", "latitude_deg"), "60"),
    ("cap_disc", ("domain",), dict(BOX, bounds=[[-1.0, 1.0], [-1.0, True]])),
    ("cap_disc", ("initial",), {"kind": "constant", "vector": [0.0, 0.0, "1"]}),
    ("cap_disc", ("diagnostics", "cylinders", 0, "x0"), [0.0, False]),
    ("cap_disc", ("diagnostics", "monotonicity", "pairs"), [[0.0625, "0.1"]]),
    ("onesided_cap", ("diagnostics", "small_energy", "radii"), [0.5, "0.25", 0.125]),
    ("hedgehog_ball", ("diagnostics", "singular", "deltas"), [0.5, "0.375", 0.25]),
], ids=["D-bool", "h-str", "T-str", "output_stride-bool", "latitude-str", "bounds-bool",
        "vector-str", "x0-bool", "pairs-str", "radii-str", "deltas-str"])
def test_bool_or_string_number_exits_2_at_load(tmp_path, config, where, value):
    cfg = json.loads((CONFIGS / f"{config}.json").read_text())
    sec = cfg
    for k in where[:-1]:
        sec = sec[k]
    sec[where[-1]] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_experiment(p, out) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and err["exit_code"] == 2
    assert not (out / "trajectory.csv").exists()


def test_penalty_integration_accepts_only_exact_logistic(tmp_path):
    cfg = json.loads((CONFIGS / "cap_disc.json").read_text())
    cfg["solver"]["penalty_integration"] = "exact-logistic"
    assert cli.ExperimentConfig.from_dict(cfg).mode == "glhf-simplified"
    for value in ("explicit", "exact_logistic"):
        cfg["solver"]["penalty_integration"] = value
        p = tmp_path / f"{value}.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / value
        assert run_experiment(p, out) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError" and "penalty_integration" in err["message"]


def test_main_entrypoint_run(tmp_path):
    code = main(["run", "--config", str(CONFIGS / "hedgehog_ball.json"),
                 "--out", str(tmp_path / "hh")])
    assert code == 0
    rep = json.loads((tmp_path / "hh" / "reports" / "singular.json").read_text())
    assert rep["eps0"] == 1.0


def test_python_m_sphereflow_run(tmp_path):
    # the package's __main__, in its own interpreter
    path = os.pathsep.join(filter(None, [str(CONFIGS.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "sphereflow", "run", "--config",
                          str(CONFIGS / "onesided_cap.json"), "--out", str(tmp_path / "o")],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "o" / "manifest.json").exists()


def test_onesided_config_reports(tmp_path):
    code = run_experiment(CONFIGS / "onesided_cap.json", tmp_path / "o")
    assert code == 0
    rep = json.loads((tmp_path / "o" / "reports" / "onesided.json").read_text())
    assert rep["passed"] is True
    rows = read_rows(tmp_path / "o" / "reports" / "wtrack.csv")
    assert rows[0] == ["step", "t", "maxW", "min_last_component"]
    cert = json.loads((tmp_path / "o" / "reports" / "certificate.json").read_text())
    assert any(row["pass"] for row in cert["table"])


def test_sweep_lambda(tmp_path):
    out = tmp_path / "sw"
    code = sweep(CONFIGS / "cap_disc.json", "lambda", [100.0, 1000.0, 10000.0], out)
    assert code == 0
    rows = read_rows(out / "sweep.csv")
    assert len(rows) == 4
    dist = [float(r[rows[0].index("final_l2_to_projected")]) for r in rows[1:]]
    assert dist[0] >= dist[1] >= dist[2]
    l2q = [float(r[rows[0].index("l2q_to_projected")]) for r in rows[1:]]
    assert l2q[0] >= l2q[1] >= l2q[2]


def test_sweep_dt(tmp_path):
    # both values lie under the cap disc's CFL bound 0.9 h^2 / 4 = 2.2e-4
    out = tmp_path / "sw"
    assert sweep(CONFIGS / "cap_disc.json", "dt", [1e-4, 2e-4], out) == 0
    rows = read_rows(out / "sweep.csv")
    assert rows[0][0] == "dt" and len(rows) == 3
    assert [float(r[0]) for r in rows[1:]] == [1e-4, 2e-4]
    assert all(np.isfinite(float(x)) for r in rows[1:] for x in r)


def _no_flow(*args, **kwargs):
    raise AssertionError("the flow ran")


def _unwritable_out(tmp_path, command, capsys):
    """Run ``command(config, out)`` into a directory below a plain file, with
    the flow patched out: exit 3 before any step, the payload on stderr."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert command(CONFIGS / "cap_disc.json", blocker / "sub") == 3
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 3 and err["error"] == "NotADirectoryError"


def test_run_into_unwritable_out_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_glhf", _no_flow)
    _unwritable_out(tmp_path, run_experiment, capsys)
    # a run directory whose snapshots path is a file: error.json is written
    out = tmp_path / "o"
    out.mkdir()
    (out / "snapshots").write_text("")
    assert run_experiment(CONFIGS / "cap_disc.json", out) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "FileExistsError" and err["exit_code"] == 3


def test_sweep_into_unwritable_out_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_glhf", _no_flow)
    _unwritable_out(tmp_path, lambda c, o: sweep(c, "lambda", [100.0], o), capsys)
    # a sweep directory whose sweep.csv is a directory: error.json is written
    monkeypatch.undo()
    cfg = json.loads((CONFIGS / "cap_disc.json").read_text())
    cfg["solver"]["T"] = 1 / 256
    p = tmp_path / "short.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "sw"
    (out / "sweep.csv").mkdir(parents=True)
    assert sweep(p, "lambda", [100.0], out) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "IsADirectoryError" and err["exit_code"] == 3


def test_sweep_empty_values_exits_2(tmp_path):
    assert sweep(CONFIGS / "cap_disc.json", "lambda", [], tmp_path / "e") == 2
    assert sweep(CONFIGS / "cap_disc.json", "zeta", [1.0], tmp_path / "e2") == 2


@pytest.mark.parametrize("param, values", [("lambda", [0.5]),
                                           ("lambda", [float("nan")]),
                                           ("dt", [1.0]),
                                           ("lambda", [1000.0, 0.5])])
def test_sweep_invalid_value_exits_2_before_stepping(tmp_path, param, values):
    out = tmp_path / "bad"
    assert sweep(CONFIGS / "cap_disc.json", param, values, out) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and err["exit_code"] == 2
    assert not (out / "sweep.csv").exists()


def test_main_sweep_non_numeric_value_exits_2(tmp_path):
    out = tmp_path / "bad"
    code = main(["sweep", "--config", str(CONFIGS / "cap_disc.json"),
                 "--param", "lambda", "--values", "100,abc", "--out", str(out)])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and "abc" in err["message"]
    assert not (out / "sweep.csv").exists()


def test_lambda_sweep_runs_projected_reference_once(tmp_path, monkeypatch):
    calls = []
    real = cli.run_projected

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_projected", counting)
    cfg = json.loads((CONFIGS / "cap_disc.json").read_text())
    cfg["solver"]["T"] = 1 / 256
    p = tmp_path / "short.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "sw"
    assert sweep(p, "lambda", [100.0, 1000.0, 10000.0], out) == 0
    assert len(calls) == 1
    assert len(read_rows(out / "sweep.csv")) == 4


def test_sweep_h_hedgehog_mbar(tmp_path):
    cfg = {
        "domain": {"kind": "unit-ball", "d": 3},
        "h": 0.0625,
        "D": 2,
        "initial": {"kind": "equator-hedgehog"},
        "solver": {"mode": "projected", "T": 0.14, "dt": "auto",
                   "output_stride": 32},
        "diagnostics": {"mbar_probe": {"R": 0.25, "mode": "dirichlet",
                                       "t0": 0.07, "x0": [0.0, 0.0, 0.0]}},
    }
    p = tmp_path / "hh_sweep.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert sweep(p, "h", [1 / 16, 1 / 32], out) == 0
    rows = read_rows(out / "sweep.csv")
    col = rows[0].index("mbar")
    target = 8 * np.pi
    for r in rows[1:]:
        assert abs(float(r[col]) - target) / target <= 0.15


def _small_disc_config(mode: str, probe_mode: str) -> dict:
    """The 1/16 disc, cap initial data, 18 steps and 10 snapshots, with an
    mbar probe whose ball holds interior nodes down to h = 1/8."""
    solver = {"mode": mode, "T": 1 / 64, "dt": "auto", "output_stride": 2}
    if mode != "projected":
        solver["lambda"] = 1000.0
    return {"domain": {"kind": "unit-ball", "d": 2}, "h": 1 / 16, "D": 2,
            "initial": {"kind": "cap", "latitude_deg": 60.0}, "solver": solver,
            "diagnostics": {"mbar_probe": {"R": 0.25, "mode": probe_mode,
                                           "x0": [0.125, 0.0]}}}


def test_sweep_releases_each_case_without_a_collection(tmp_path):
    # a case's stream holds its field and goes with its row; nothing may hold
    # it in a reference cycle, which would keep the field until the next
    # collection.  Measured with collection off on the 1/64 disc: 34 KiB
    # traced once the sweep returns; a distance term that closed over its
    # stream held 1.9 MB, every case's field among it
    raw = _small_disc_config("glhf-simplified", "dirichlet")
    raw["h"], raw["solver"]["T"] = 1 / 64, 1 / 256
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    field_bytes = build_grid(Domain.unit_ball(2), 1 / 64).n_lattice * 3 * 8
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        assert sweep(p, "lambda", [100.0, 1000.0, 10000.0], tmp_path / "sweep") == 0
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < field_bytes / 4, held / field_bytes


@pytest.mark.parametrize("mode, probe_mode, param, values", [
    ("glhf-simplified", "gl", "lambda", [100.0, 1000.0]),
    ("glhf-simplified", "dirichlet", "h", [1 / 16, 1 / 8]),
    ("glhf-simplified", "gl", "dt", [2e-4, 4e-4]),
    ("projected", "gl", "h", [1 / 16, 1 / 8]),
    ("projected", "dirichlet", "dt", [2e-4, 4e-4]),
])
def test_sweep_cells_equal_the_in_memory_api(tmp_path, mode, probe_mode, param, values):
    # the sweep streams each case; every cell is the value the Python API
    # computes from held trajectories, as the same float
    raw = _small_disc_config(mode, probe_mode)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    assert sweep(p, param, values, tmp_path / "out") == 0
    rows = read_rows(tmp_path / "out" / "sweep.csv")
    assert rows[0] == [param, "penalty_integral", "final_l2_to_projected",
                       "l2q_to_projected", "final_gl_energy",
                       "final_dirichlet_energy", "mbar"]
    assert len(rows) == len(values) + 1
    for v, row in zip(values, rows[1:]):
        case = json.loads(json.dumps(raw))
        (case if param == "h" else case["solver"])[param] = v
        cfg = cli.ExperimentConfig.from_dict(case)
        u0 = cfg.build_initial()
        proj = flow.run_projected(u0, cfg.solver)
        traj = proj if mode == "projected" else flow.run_glhf(
            u0, cfg.solver, flow.PenaltySchedule(lam=cfg.lam))
        (t0, x0), R, pmode = cfg.diagnostics.mbar_probe
        expected = [v, flow.penalty_integral(traj),
                    l2_distance(traj.snapshots[-1], proj.snapshots[-1]),
                    flow.trajectory_l2q_distance(traj, proj),
                    traj.records[-1].gl_energy, traj.records[-1].dirichlet_energy,
                    local_scaled_energy(traj, (t0, x0), R, mode=pmode)]
        assert [float(c) for c in row] == [float(e) for e in expected]
        if mode != "projected":
            assert float(row[3]) > 0.0


def test_sweep_case_heap_does_not_grow_with_snapshot_count(tmp_path):
    # a projected h sweep of the 3-D ball at h = 1/16, 11 steps, with an mbar
    # probe: one snapshot per step holds the same heap as one snapshot at
    # each end, to within one field
    cfg = json.loads((CONFIGS / "hedgehog_ball.json").read_text())
    cfg["diagnostics"] = {"mbar_probe": {"R": 0.25, "mode": "dirichlet"}}
    cfg["solver"]["T"] = 10.5 * 0.9 / 16 ** 2 / 6
    peaks = {}
    for stride in (100, 1, 100):
        cfg["solver"]["output_stride"] = stride
        p = tmp_path / f"stride{stride}.json"
        p.write_text(json.dumps(cfg))
        tracemalloc.start()
        try:
            assert sweep(p, "h", [1 / 16], tmp_path / f"out{stride}") == 0
            peaks[stride] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    grid = build_grid(Domain.unit_ball(3), 1 / 16)
    field_bytes = grid.n_lattice * 3 * 8
    assert abs(peaks[1] - peaks[100]) <= field_bytes


def _penalized_sweep_config(kind: str) -> tuple:
    """A penalized sweep with a projected reference and no diagnostics: the
    1/16 disc swept in lambda (18 steps), or the 3-D ball at h = 1/16 swept
    in h (11 steps); returns the config, the swept parameter and values, and
    the byte count of one lattice field."""
    if kind == "lambda":
        cfg = _small_disc_config("glhf-simplified", "gl")
        param, values, grid = "lambda", [100.0, 1000.0], build_grid(Domain.unit_ball(2), 1 / 16)
    else:
        cfg = json.loads((CONFIGS / "hedgehog_ball.json").read_text())
        cfg["solver"].update({"mode": "glhf-simplified", "lambda": 1000.0,
                              "T": 10.5 * 0.9 / 16 ** 2 / 6})
        param, values, grid = "h", [1 / 16], build_grid(Domain.unit_ball(3), 1 / 16)
    cfg["diagnostics"] = {}
    return cfg, param, values, grid.n_lattice * 3 * 8


@pytest.mark.parametrize("kind", ["lambda", "h"])
def test_sweep_reference_heap_does_not_grow_with_snapshot_count(tmp_path, monkeypatch, kind,
                                                                map_rss):
    # the projected reference of a penalized sweep holds its snapshots as maps:
    # one snapshot per step holds the same heap as one at each end, to within
    # one field
    cfg, param, values, field_bytes = _penalized_sweep_config(kind)
    peaks = {}
    for stride in (100, 1, 100):
        cfg["solver"]["output_stride"] = stride
        p = tmp_path / f"stride{stride}.json"
        p.write_text(json.dumps(cfg))
        tracemalloc.start()
        try:
            assert sweep(p, param, values, tmp_path / f"out{stride}") == 0
            peaks[stride] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[100]) <= field_bytes
    # every reference snapshot is a map, read once per case, and none of its
    # pages is resident once the case has its distance
    refs, reads = [], []
    run_projected, dist = cli.run_projected, cli.l2_distance

    def reference(*args, **kwargs):
        refs.append(run_projected(*args, **kwargs))
        return refs[-1]

    def read(a, b):
        d = dist(a, b)
        reads.append((b, map_rss(b)))
        return d

    monkeypatch.setattr(cli, "run_projected", reference)
    monkeypatch.setattr(cli, "l2_distance", read)
    assert sweep(tmp_path / "stride1.json", param, values, tmp_path / "capture") == 0
    (ref,) = refs
    assert len(ref.snapshots) > 2
    assert all(isinstance(s, field.KeptSnapshot) and isinstance(s._rows.base, field._SnapshotMap)
               for s in ref.snapshots)
    expected = [s for _ in values for s in ref.snapshots]
    assert len(reads) == len(expected)
    assert all(b is s for (b, _), s in zip(reads, expected))
    assert map_rss.checked(rss for _, rss in reads) == [0] * len(reads)


def test_lambda_sweep_builds_its_initial_field_once(tmp_path, monkeypatch):
    # lambda does not change u0; an h or dt case builds its own
    calls = []
    build = cli.ExperimentConfig.build_initial

    def counting(cfg):
        calls.append(cfg)
        return build(cfg)

    monkeypatch.setattr(cli.ExperimentConfig, "build_initial", counting)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_small_disc_config("glhf-simplified", "gl")))
    for param, values, builds in (("lambda", [100.0, 1000.0, 10000.0], 1),
                                  ("h", [1 / 16, 1 / 8], 2),
                                  ("dt", [2e-4, 4e-4], 2)):
        calls.clear()
        assert sweep(p, param, values, tmp_path / param) == 0
        assert len(calls) == builds


@pytest.mark.parametrize("param, values", [("lambda", [100.0, 1000.0]),
                                           ("h", [1 / 16, 1 / 8]),
                                           ("dt", [2e-4, 4e-4])])
def test_sweep_leaves_only_its_csv_and_manifest(tmp_path, param, values):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_small_disc_config("glhf-simplified", "gl")))
    out = tmp_path / "out"
    assert sweep(p, param, values, out) == 0
    assert sorted(q.name for q in out.iterdir()) == ["manifest.json", "sweep.csv"]


@pytest.mark.parametrize("where", ["reference", "case"])
def test_failed_sweep_leaves_no_reference_files(tmp_path, monkeypatch, where):
    # the 1/16 disc, 18 steps, a snapshot every 2: the reference runs the
    # first 18 steps and the first case the next 18; the 7th step of either
    # fails, the reference's with snapshots 0, 2, 4 and 6 on disk and the
    # case's with the reference's files already removed
    calls, on_disk = [], []
    step = flow._step
    out = tmp_path / "out"
    fail_at = 7 if where == "reference" else 18 + 7

    def failing_step(*args):
        calls.append(1)
        if len(calls) == fail_at:
            on_disk.append(len(list(out.rglob("*.f64"))))
            raise NormBlowup("injected")
        return step(*args)

    monkeypatch.setattr(flow, "_step", failing_step)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_small_disc_config("glhf-simplified", "gl")))
    out.mkdir()
    (out / "earlier.txt").write_text("an earlier run's file")
    assert sweep(p, "lambda", [100.0, 1000.0], out) == 3
    assert on_disk == [4 if where == "reference" else 0]
    assert sorted(q.name for q in out.rglob("*")) == ["earlier.txt", "error.json"]
    assert (out / "earlier.txt").read_text() == "an earlier run's file"
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "NormBlowup" and err["exit_code"] == 3


def test_snapshot_roundtrip(tmp_path, disc16):
    f = generate(InitialData(kind="cap", latitude_deg=45.0), disc16, 2)
    base = tmp_path / "snap"
    write_snapshot(base, f, t=0.25, step=7, lam=100.0, exponent=0.93)
    g, sidecar = read_snapshot(base)
    assert np.array_equal(g.values, f.values)
    assert sidecar["t"] == 0.25 and sidecar["step"] == 7
    assert sidecar["lambda"] == 100.0 and sidecar["tag"] == "u"


def test_diagnostics_do_not_mutate_snapshots(tmp_path):
    out = tmp_path / "mut"
    assert run_experiment(CONFIGS / "hedgehog_ball.json", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    snap_hashes = {f["path"]: f["sha256"] for f in manifest["files"]
                   if f["path"].startswith("snapshots/")}
    assert snap_hashes
    # manifest was built after all diagnostics ran; re-hash now
    for rel, digest in snap_hashes.items():
        assert sfio.sha256_file(out / rel) == digest


def _capture_trajectory(monkeypatch):
    """Record the trajectory ``run_experiment`` hands to its diagnostics."""
    seen = []
    run_diagnostics = cli._run_diagnostics

    def capture(dcfg, traj, *args):
        seen.append(traj)
        return run_diagnostics(dcfg, traj, *args)

    monkeypatch.setattr(cli, "_run_diagnostics", capture)
    return seen


def test_run_snapshots_are_read_only_maps(tmp_path, monkeypatch):
    # every snapshot is a kept snapshot whose interior rows are a read-only
    # map of its .f64 file; its lattice is the one its two files give
    seen = _capture_trajectory(monkeypatch)
    out = tmp_path / "out"
    assert run_experiment(CONFIGS / "onesided_cap.json", out) == 0
    (traj,) = seen
    assert len(traj.snapshots) == len(list((out / "snapshots").glob("*.f64"))) > 2
    for i, snap in enumerate(traj.snapshots):
        base = out / "snapshots" / f"snap_{i:06d}"
        assert isinstance(snap, field.KeptSnapshot)
        assert isinstance(snap._rows.base, field._SnapshotMap)
        assert not snap._rows.flags.writeable and not snap.values.flags.writeable
        assert snap._rows.tobytes() == base.with_suffix(".f64").read_bytes()
        assert snap.values.tobytes() == read_snapshot(base)[0].values.tobytes()
    with pytest.raises(ValueError):
        traj.snapshots[0].values[0] = 0.0
    with pytest.raises(ValueError):
        traj.snapshots[0]._rows[0] = 0.0


def test_snapshots_past_the_map_budget_stay_in_memory(tmp_path, monkeypatch):
    # each map holds a file descriptor; past the budget a run keeps its
    # snapshots in memory as kept snapshots, read-only like the maps, and
    # writes the same files
    assert run_experiment(CONFIGS / "onesided_cap.json", tmp_path / "a") == 0
    monkeypatch.setattr(sfio, "map_budget", lambda: 2)
    seen = _capture_trajectory(monkeypatch)
    assert run_experiment(CONFIGS / "onesided_cap.json", tmp_path / "b") == 0
    snaps = seen[0].snapshots
    assert all(isinstance(s, field.KeptSnapshot) for s in snaps)
    assert [isinstance(s._rows.base, field._SnapshotMap) for s in snaps] == \
        [True, True] + [False] * (len(snaps) - 2)
    assert not any(s.values.flags.writeable for s in snaps)
    for i, snap in enumerate(snaps):
        base = tmp_path / "b" / "snapshots" / f"snap_{i:06d}"
        assert snap.interior_rows().tobytes() == base.with_suffix(".f64").read_bytes()
        assert snap.values.tobytes() == read_snapshot(base)[0].values.tobytes()
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                   if p.is_file())
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_a_low_open_file_limit_reaches_the_map_budget(tmp_path):
    # a child process whose soft limit on open files is 32 maps 16 snapshots
    # and keeps the rest in memory; its files are a default run's bytes
    assert run_experiment(CONFIGS / "cap_disc.json", tmp_path / "a") == 0
    script = f"""
import resource, sys
from sphereflow import cli, field
soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (32, hard))
seen = []
run_diagnostics = cli._run_diagnostics
cli._run_diagnostics = lambda dcfg, traj, *a: seen.append(traj) or run_diagnostics(dcfg, traj, *a)
assert cli.run_experiment({str(CONFIGS / "cap_disc.json")!r}, {str(tmp_path / "b")!r}) == 0
snaps = seen[0].snapshots
assert all(isinstance(s, field.KeptSnapshot) for s in snaps)
print(sum(isinstance(s._rows.base, field._SnapshotMap) for s in snaps), len(snaps))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    mapped, n = map(int, done.stdout.split())
    assert n > 17 and mapped == 16
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                   if p.is_file())
    assert files == sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*")
                           if p.is_file())
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_manifest_reads_no_artifact_back(tmp_path, monkeypatch):
    assert run_experiment(CONFIGS / "onesided_cap.json", tmp_path / "a") == 0

    def no_reads(path):
        raise AssertionError(f"read back {path}")

    monkeypatch.setattr(sfio, "sha256_file", no_reads)
    assert run_experiment(CONFIGS / "onesided_cap.json", tmp_path / "b") == 0
    assert ((tmp_path / "a" / "manifest.json").read_bytes()
            == (tmp_path / "b" / "manifest.json").read_bytes())


def test_failed_flow_removes_its_snapshots(tmp_path, monkeypatch):
    # cap_disc takes a snapshot every 16 steps: the 33rd step fails after
    # snapshots 0, 16 and 32 are on disk
    calls = []
    step = flow._step

    def failing_step(*args):
        calls.append(1)
        if len(calls) > 32:
            raise NormBlowup("injected")
        return step(*args)

    monkeypatch.setattr(flow, "_step", failing_step)
    out = tmp_path / "out"
    assert run_experiment(CONFIGS / "cap_disc.json", out) == 3
    assert len(calls) == 33
    assert [p.name for p in out.iterdir()] == ["error.json"]
    assert json.loads((out / "error.json").read_text())["error"] == "NormBlowup"
    # an earlier run's files in the same directory stay
    (out / "snapshots").mkdir()
    (out / "snapshots" / "snap_000099.f64").write_bytes(b"earlier")
    calls.clear()
    assert run_experiment(CONFIGS / "cap_disc.json", out) == 3
    assert [p.name for p in (out / "snapshots").iterdir()] == ["snap_000099.f64"]


def test_failed_flow_removes_its_boundary_file(tmp_path, monkeypatch):
    # the store writes the run's boundary rows with snapshot 0; a flow that
    # fails later removes that file with the snapshot files, and an earlier
    # run's files stay
    calls, on_disk = [], []
    step = flow._step
    out = tmp_path / "out"

    def failing_step(*args):
        calls.append(1)
        if len(calls) == 20:
            on_disk.append(sorted(p.name for p in (out / "snapshots").iterdir()))
            raise NormBlowup("injected")
        return step(*args)

    monkeypatch.setattr(flow, "_step", failing_step)
    (out / "snapshots").mkdir(parents=True)
    (out / "snapshots" / "earlier.txt").write_text("an earlier run's file")
    assert run_experiment(CONFIGS / "cap_disc.json", out) == 3
    assert on_disk == [["boundary.bnd", "earlier.txt", "snap_000000.f64", "snap_000001.f64"]]
    assert [p.name for p in (out / "snapshots").iterdir()] == ["earlier.txt"]


def test_run_snapshots_are_one_rows_file_per_time_and_one_boundary_file(cap_disc_out):
    # one .f64 of interior rows per snapshot time, one boundary-row file per
    # run, and one index with an entry per snapshot naming it; the manifest
    # lists them all
    cfg = cli.ExperimentConfig.load(CONFIGS / "cap_disc.json")
    grid, n = cfg.grid, len(cfg.solver.snapshot_times())
    snaps = cap_disc_out / "snapshots"
    assert sorted(p.name for p in snaps.iterdir()) == sorted(
        ["boundary.bnd", "index.json"] + [f"snap_{i:06d}.f64" for i in range(n)])
    assert {p.stat().st_size for p in snaps.glob("*.f64")} == {grid.n_interior * 3 * 8}
    assert (snaps / "boundary.bnd").stat().st_size == grid.boundary_flat.size * 3 * 8
    index = json.loads((snaps / "index.json").read_text())
    assert index["shape"] == [grid.n_interior, 3] and index["D"] == 2
    assert index["grid"] == sfio.grid_spec(grid) and index["tag"] == "u"
    assert sorted(index["snapshots"]) == [f"snap_{i:06d}" for i in range(n)]
    for i in range(n):
        entry = index["snapshots"][f"snap_{i:06d}"]
        assert entry["step"] == i and entry["boundary"] == "boundary.bnd"
    listed = {f["path"]: f for f in
              json.loads((cap_disc_out / "manifest.json").read_text())["files"]}
    for p in [snaps / "boundary.bnd", snaps / "index.json", *snaps.glob("*.f64")]:
        entry = listed[p.relative_to(cap_disc_out).as_posix()]
        assert entry["sha256"] == sfio.sha256_file(p) and entry["bytes"] == p.stat().st_size


def test_custom_samples_read_a_run_snapshot_as_its_rows(tmp_path, monkeypatch):
    # a snapshot read back is the flow's field bit for bit, so a run started
    # from it starts from the rows normalizing that field gives
    seen = _capture_trajectory(monkeypatch)
    assert run_experiment(CONFIGS / "onesided_cap.json", tmp_path / "a") == 0
    (traj,) = seen
    k = 2
    base = tmp_path / "a" / "snapshots" / f"snap_{k:06d}"
    kept, _ = sfio.read_rows(base)
    assert isinstance(kept, field.KeptSnapshot)
    assert kept.values.tobytes() == traj.snapshots[k].values.tobytes()
    cfg = json.loads((CONFIGS / "onesided_cap.json").read_text())
    cfg["initial"] = {"kind": "custom-samples", "path": str(base)}
    p = tmp_path / "samples.json"
    p.write_text(json.dumps(cfg))
    u0 = cli.ExperimentConfig.load(p).build_initial()
    expected = generate(InitialData(kind="custom-samples", samples=traj.snapshots[k]),
                        traj.grid, 2)
    assert u0.values.tobytes() == expected.values.tobytes()
    assert run_experiment(p, tmp_path / "b") == 0
    assert (read_snapshot(tmp_path / "b" / "snapshots" / "snap_000000")[0].values.tobytes()
            == expected.values.tobytes())


def test_custom_samples_of_the_lattice_layout_exit_2(tmp_path):
    # a snapshot that earlier versions wrote, the whole lattice in its .f64
    # file and the lattice shape in its sidecar, with no index, is refused
    # at load
    p, base = _samples_config(tmp_path)
    f, sidecar = read_snapshot(base)
    base.with_suffix(".bnd").unlink()
    (tmp_path / "index.json").unlink()
    base.with_suffix(".f64").write_bytes(f.values.tobytes())
    del sidecar["boundary"]
    sidecar["shape"] = list(f.values.shape)
    base.with_suffix(".json").write_text(json.dumps(sidecar))
    out = tmp_path / "out"
    assert run_experiment(p, out) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and "has no index" in err["message"]
    assert "rerun the flow" in err["message"]
    assert [q.name for q in out.iterdir()] == ["error.json"]


def test_run_directory_holds_one_file_per_snapshot_and_eight_more(cap_disc_out):
    # snapshots/ holds one .f64 per snapshot, the boundary file and the index;
    # the run directory adds config.json, trajectory.csv, manifest.json and
    # cap_disc's three reports, whatever the snapshot count
    n = len(cli.ExperimentConfig.load(CONFIGS / "cap_disc.json").solver.snapshot_times())
    snaps = cap_disc_out / "snapshots"
    assert sorted(p.name for p in snaps.iterdir() if not p.name.endswith(".f64")) == [
        "boundary.bnd", "index.json"]
    assert len(list(snaps.glob("snap_*.f64"))) == n
    assert sum(p.is_file() for p in cap_disc_out.rglob("*")) == n + 8


def test_every_index_entry_reads_back_as_the_kept_snapshot(tmp_path, monkeypatch):
    # read through read_rows by its entry's name, snapshot k is the
    # trajectory's kept snapshot k bit for bit, at its time and index
    seen = _capture_trajectory(monkeypatch)
    assert run_experiment(CONFIGS / "onesided_cap.json", tmp_path / "a") == 0
    (traj,) = seen
    snaps = tmp_path / "a" / "snapshots"
    entries = json.loads((snaps / "index.json").read_text())["snapshots"]
    assert sorted(entries) == sorted(p.stem for p in snaps.glob("*.f64"))
    assert len(entries) == len(traj.snapshots) > 2
    for name in entries:
        kept, meta = sfio.read_rows(snaps / name)
        k = meta["step"]
        assert meta["t"] == traj.times[k] and name == f"snap_{k:06d}"
        assert meta["lambda"] is None and meta["exponent"] is None
        assert kept.interior_rows().tobytes() == traj.snapshots[k].interior_rows().tobytes()
        assert kept.boundary_rows().tobytes() == traj.snapshots[k].boundary_rows().tobytes()
        assert kept.values.tobytes() == traj.snapshots[k].values.tobytes()


def test_run_heap_does_not_grow_with_snapshot_count(tmp_path):
    # 3-D ball at h = 1/16, 11 steps: one snapshot per step holds the same
    # heap as one snapshot at each end, to within one field
    cfg = json.loads((CONFIGS / "hedgehog_ball.json").read_text())
    cfg.update(h=1 / 16, diagnostics={})
    cfg["solver"]["T"] = 10.5 * 0.9 / 16 ** 2 / 6
    peaks = {}
    for stride in (100, 1, 100):
        cfg["solver"]["output_stride"] = stride
        p = tmp_path / f"stride{stride}.json"
        p.write_text(json.dumps(cfg))
        tracemalloc.start()
        try:
            assert run_experiment(p, tmp_path / f"out{stride}") == 0
            peaks[stride] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(list((tmp_path / "out1" / "snapshots").glob("*.f64"))) == 12
    grid = build_grid(Domain.unit_ball(3), 1 / 16)
    field_bytes = grid.n_lattice * 3 * 8
    assert abs(peaks[1] - peaks[100]) <= field_bytes


def _every_section_disc(stride: int) -> dict:
    """The 1/16 disc, 285 steps, with cylinders of both modes, three
    monotonicity pairs (R = 0.1 is below 2h, so its annulus warns), a
    singular scan that flags nothing and a certificate."""
    return {"domain": {"kind": "unit-ball", "d": 2}, "h": 1 / 16, "D": 2,
            "initial": {"kind": "cap", "latitude_deg": 60.0},
            "solver": {"mode": "glhf-simplified", "lambda": 1000.0, "T": 0.25,
                       "dt": "auto", "output_stride": stride},
            "diagnostics": {
                "cylinders": [{"t0": t0, "x0": [x, 0.0], "R": R, "mode": mode}
                              for t0, x, R, mode in [(0.05, 0.0, 0.125, "gl"),
                                                     (0.1, 0.3, 0.25, "dirichlet"),
                                                     (0.15, -0.2, 0.5, "gl"),
                                                     (0.2, 0.0, 0.25, "dirichlet")]],
                "monotonicity": {"t0": 0.2, "x0": [0.1, -0.05],
                                 "pairs": [[0.1, 0.14], [0.1, 0.2], [0.125, 0.2]],
                                 "mode": "gradient"},
                "singular": {"eps0": 1.0, "radii": [0.125, 0.25, 0.5], "time_stride": 1},
                "small_energy": {"t0": 0.125, "x0": [0.0, 0.0],
                                 "radii": [0.5, 0.25, 0.125], "eps0": 1.0}}}


def test_run_diagnostics_heap_does_not_grow_with_snapshot_count(tmp_path, monkeypatch):
    # the diagnostics drop each snapshot's densities once the pass has fed
    # its readers.  Measured: 338 -> 910 KiB from 37 to 286 snapshots
    # (growth 572 KiB: the scan's open window fields and per-window
    # records); caching two densities per snapshot grew 741 -> 4,195 KiB
    peaks = {}
    run_diagnostics = cli._run_diagnostics

    def measured(dcfg, traj, *args):
        tracemalloc.start()
        try:
            run_diagnostics(dcfg, traj, *args)
            peaks[len(traj.snapshots)] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not traj._density_cache

    monkeypatch.setattr(cli, "_run_diagnostics", measured)
    for stride in (8, 1, 8):
        p = tmp_path / f"stride{stride}.json"
        p.write_text(json.dumps(_every_section_disc(stride)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KernelUnderresolved)
            assert run_experiment(p, tmp_path / f"out{stride}") == 0
    assert sorted(peaks) == [37, 286]
    assert peaks[286] - peaks[37] <= 750 * 1024


@pytest.mark.parametrize("name", ["every-section-disc", "hedgehog_ball"])
def test_run_diagnostics_equal_the_public_functions(tmp_path, monkeypatch, name):
    # the one pass of a store-backed run writes what the public functions
    # compute, one after another, on the same snapshots: as the same floats.
    # hedgehog_ball.json flags scan points, so the larger radii run too
    from sphereflow import diagnostics
    from sphereflow.diagnostics import monotonicity_report
    from sphereflow.singular import detect_singular_set, small_energy_certificate

    if name == "hedgehog_ball":
        p = CONFIGS / "hedgehog_ball.json"
    else:
        p = tmp_path / "disc.json"
        p.write_text(json.dumps(_every_section_disc(8)))
    cfg = cli.ExperimentConfig.load(p)
    dg = cfg.diagnostics
    seen = []
    grads, penalties = [], []
    gradient, penalty = diagnostics.gradient_squared_density, diagnostics._penalty_density
    run_diagnostics = cli._run_diagnostics

    def capture(dcfg, traj, *args):
        seen.append(traj)
        run_diagnostics(dcfg, traj, *args)
        assert not traj._density_cache

    def counted_gradient(f, nodes=None):
        if nodes is None:
            grads.append(f.values.copy())       # a kept snapshot's lattice is new per read
        return gradient(f, nodes)

    def counted_penalty(traj, k, f, nodes=None):
        if nodes is None:
            penalties.append(k)
        return penalty(traj, k, f, nodes)

    monkeypatch.setattr(cli, "_run_diagnostics", capture)
    monkeypatch.setattr(diagnostics, "gradient_squared_density", counted_gradient)
    monkeypatch.setattr(diagnostics, "_penalty_density", counted_penalty)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as run_warned:
        warnings.simplefilter("always")
        assert run_experiment(p, out) == 0
    (traj,) = seen
    if name != "hedgehog_ball":
        # no scan point survives: at most one whole density per mode and
        # snapshot, computed in the one pass
        assert grads and penalties
        assert max(sum(np.array_equal(f, s.values) for f in grads)
                   for s in traj.snapshots) == 1
        assert max(penalties.count(k) for k in set(penalties)) == 1
    monkeypatch.undo()

    reports = out / "reports"
    fresh = flow.Trajectory(grid=traj.grid, times=traj.times, snapshots=traj.snapshots,
                            records=traj.records, lam=traj.lam, dt=traj.dt)
    with warnings.catch_warnings(record=True) as api_warned:
        warnings.simplefilter("always")
        if dg.monotonicity is not None:
            mono = json.loads((reports / "monotonicity.json").read_text())
            (shared,) = diagnostics.evaluate(
                fresh, [diagnostics.monotonicity_reading(fresh, *dg.monotonicity)])
            assert mono["pairs"] == [r.to_json() for r in shared]
    # one warning per annulus radius below 2h, as the reading alone gives
    assert ([w.category for w in run_warned if w.category is KernelUnderresolved]
            == [w.category for w in api_warned])
    assert len(api_warned) == (0 if name == "hedgehog_ball" else 1)
    if dg.monotonicity is not None:
        # and each pair's report alone gives the same floats
        z0, pairs, mode, rhs_form = dg.monotonicity
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KernelUnderresolved)
            assert mono["pairs"] == [monotonicity_report(fresh, z0, r1, r2, mode=mode,
                                                         rhs_form=rhs_form).to_json()
                                     for r1, r2 in pairs]

    scan = detect_singular_set(fresh, dg.singular)
    assert (json.loads((reports / "singular.json").read_text())
            == json.loads(json.dumps(scan.to_json())))
    if name == "hedgehog_ball":
        assert scan.flagged and scan.sup_density_checks

    rows = read_rows(reports / "cylinders.csv")[1:]
    assert len(rows) == len(dg.cylinders)
    for row, (cyl, mode) in zip(rows, dg.cylinders):
        assert float(row[-1]) == local_scaled_energy(fresh, (cyl.t0, cyl.x0), cyl.R, mode)

    if dg.small_energy is not None:
        z0, radii, eps0 = dg.small_energy
        ok, table = small_energy_certificate(fresh, z0, radii, eps0)
        cert = json.loads((reports / "certificate.json").read_text())
        assert cert["all_pass"] == ok
        assert cert["table"] == [{"r": r, "integral": v, "bound": b, "pass": q}
                                 for r, v, b, q in table]


def test_run_set_up_and_flow_hold_no_lattice_of_the_initial_field(tmp_path):
    # the 3-D ball at h = 1/16 with a store, from config load through the
    # flow, as run_experiment takes them: the grid's classes come from
    # blocks of layers, the initial field is its rows, and the flow's field
    # is the one lattice.  Measured: 2.98 fields (the flow's field, three
    # carried row arrays, one of them the initial rows handed over, and the
    # stencil's block scratch); 3.37 without the hand-over, and the
    # lattice-coordinate set-up and a lattice copy of the initial field read
    # 4.42.  Since the fused step's buffers, 3.25; with the diagnostics'
    # readings built at load and held through the flow, 3.26
    cfg = json.loads((CONFIGS / "hedgehog_ball.json").read_text())
    cfg["h"] = 1 / 16
    cfg["solver"]["T"] = 7.75 * 0.9 / 16 ** 2 / 6
    p = tmp_path / "ball16.json"
    p.write_text(json.dumps(cfg))
    tracemalloc.start()
    try:
        loaded = cli.ExperimentConfig.load(p)
        # held through the flow, as run_experiment holds them
        readings = cli._run_readings(loaded, loaded.plan())
        store = sfio.SnapshotStore(tmp_path / "snapshots")
        traj = cli._run_flow(loaded, loaded.build_initial(), store, handover=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.records) == 9 and len(traj.snapshots) == 3 and len(readings) == 1
    field_bytes = loaded.grid.n_lattice * 3 * 8
    assert peak <= 4.3 * field_bytes, peak / field_bytes


def test_sweep_reference_store_hashes_no_snapshot(tmp_path, monkeypatch):
    # a run hashes each snapshot file it lists in its manifest; a sweep's
    # projected reference lists none and hashes none, and still removes
    # every file it wrote
    sizes = []
    sha256 = sfio.hashlib.sha256

    def counting(data=b""):
        sizes.append(memoryview(data).nbytes)
        return sha256(data)

    monkeypatch.setattr(sfio.hashlib, "sha256", counting)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_small_disc_config("glhf-simplified", "gl")))
    # a snapshot file holds the interior rows; one file per run the boundary rows
    grid = build_grid(Domain.unit_ball(2), 1 / 16)
    field_bytes = grid.n_lattice * 3 * 8
    rows_bytes, boundary_bytes = grid.n_interior * 3 * 8, grid.boundary_flat.size * 3 * 8
    assert sweep(p, "lambda", [100.0, 1000.0], tmp_path / "sweep") == 0
    assert not {field_bytes, rows_bytes, boundary_bytes} & set(sizes)
    assert sorted(q.name for q in (tmp_path / "sweep").iterdir()) == ["manifest.json",
                                                                      "sweep.csv"]
    assert run_experiment(p, tmp_path / "run") == 0
    assert sizes.count(rows_bytes) == len(list((tmp_path / "run").rglob("*.f64"))) == 10
    assert sizes.count(boundary_bytes) == 1 and field_bytes not in sizes
