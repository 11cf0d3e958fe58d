import csv
import json
from pathlib import Path

import numpy as np
import pytest

from sphereflow import cli
from sphereflow import io as sfio
from sphereflow.cli import main, run_experiment, sweep
from sphereflow.field import InitialData, generate
from sphereflow.io import read_snapshot, write_snapshot

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
        "seed": 0,
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


def test_snapshot_roundtrip(tmp_path, disc16):
    f = generate(InitialData(kind="cap", latitude_deg=45.0), disc16, 2)
    base = tmp_path / "snap"
    write_snapshot(base, f, t=0.25, step=7, lam=100.0, exponent=0.93, tag="u")
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
