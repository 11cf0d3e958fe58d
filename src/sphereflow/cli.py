"""Config-driven experiment runner.

Usage:
    sphereflow run   --config cfg.json [--out DIR]
    sphereflow sweep --config cfg.json --param lambda --values 100,1000,10000
                     [--out DIR]

The JSON config is the single source of truth; flags only bind paths (and
name the swept parameter and its values).  Everything runs in one thread,
so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import diagnostics as diag
from . import io as sfio
from . import singular as sing
from . import stereo
from .errors import CFLViolated, ConfigError, SphereFlowError, SpacingTooCoarse
from .field import InitialData, SphereField, generate, l2_distance
from .flow import (PenaltySchedule, SolverConfig, Trajectory, run_glhf,
                   run_projected, penalty_integral, trajectory_l2q_distance)
from .geometry import Domain, Grid, build_grid

TRAJECTORY_HEADER = ["step", "t", "gl_energy", "dirichlet_energy",
                     "penalty_increment", "max_norm"]


@dataclass
class ExperimentConfig:
    domain: Domain
    h: float
    D: int
    initial: InitialData
    mode: str
    lam: Optional[float]
    solver: SolverConfig
    diagnostics: dict
    raw: dict

    @staticmethod
    def load(path: Path) -> "ExperimentConfig":
        try:
            with open(path) as f:
                raw = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config: {e}") from e
        return ExperimentConfig.from_dict(raw)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        try:
            domain = Domain.from_config(raw["domain"])
            h = _finite("h", raw["h"])
            D = int(raw.get("D", 2))
            initial = InitialData.from_config(raw["initial"])
            sv = raw["solver"]
            if sv.get("penalty_integration", "exact-logistic") != "exact-logistic":
                raise ConfigError("solver.penalty_integration must be 'exact-logistic'")
            mode = sv.get("mode", "glhf-simplified")
            if mode not in ("glhf-simplified", "glhf-original", "projected"):
                raise ConfigError(f"unknown solver mode {mode!r}")
            lam = None
            if mode != "projected":
                if "lambda" not in sv:
                    raise ConfigError("penalized modes need solver.lambda")
                lam = _finite("solver.lambda", sv["lambda"])
                if lam <= 1.0:
                    raise ConfigError("solver.lambda must exceed 1")
            cfl = _finite("solver.cfl", sv.get("cfl", 0.9))
            d = domain.d
            dt_raw = sv.get("dt", "auto")
            dt = (cfl * h * h / (2.0 * d) if dt_raw == "auto"
                  else _finite("solver.dt", dt_raw))
            solver = SolverConfig(
                dt=dt, T=_finite("solver.T", sv["T"]), cfl=cfl,
                output_stride=int(sv.get("output_stride", 1)))
            diagnostics = _section(raw.get("diagnostics", {}), "diagnostics")
            cfg = ExperimentConfig(domain=domain, h=h, D=D, initial=initial,
                                   mode=mode, lam=lam, solver=solver,
                                   diagnostics=diagnostics, raw=raw)
            cfg.validate()
            return cfg
        except ConfigError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"invalid config: {e}") from e

    def validate(self):
        try:
            grid = build_grid(self.domain, self.h)
        except SpacingTooCoarse as e:
            raise ConfigError(str(e)) from e
        try:
            self.solver.validate(grid)
        except (CFLViolated, ValueError) as e:
            raise ConfigError(str(e)) from e
        if "singular" in self.diagnostics:
            try:
                self._singular_config(grid).validate(grid.h)
            except ValueError as e:
                raise ConfigError(f"singular diagnostics: {e}") from e
        self.diagnostic_sections()
        if self.initial.kind == "custom-samples":
            p = self.raw["initial"].get("path")
            if not p:
                raise ConfigError("custom-samples initial data needs a snapshot path")
            if not Path(p).with_suffix(".f64").exists():
                raise ConfigError(f"initial snapshot {p!r} not found")

    def _singular_config(self, grid: Grid) -> sing.SingularConfig:
        s = self.diagnostics["singular"]
        return sing.SingularConfig(
            eps0=float(s["eps0"]),
            radii=[float(r) for r in s["radii"]],
            time_stride=int(s.get("time_stride", 1)),
            space_stride=int(s.get("space_stride", 1)),
            deltas=[float(x) for x in s["deltas"]] if "deltas" in s else None,
            mode=s.get("mode", "gl"))

    def diagnostic_sections(self) -> dict:
        """The cylinders, monotonicity, small_energy and mbar_probe sections,
        parsed.  Raises ConfigError, KeyError, TypeError or ValueError on a
        malformed one; ``validate`` calls it, so that happens at load."""
        dcfg, d = self.diagnostics, self.domain.d
        out = {}
        if dcfg.get("cylinders"):
            out["cylinders"] = []
            for c in dcfg["cylinders"]:
                c = _section(c, "diagnostics.cylinders entry")
                t0, x0 = _point(c, d)
                cyl = diag.CylinderSpec(t0=t0, x0=x0, R=float(c["R"]))
                out["cylinders"].append((cyl, c.get("mode", "gl")))
        if "monotonicity" in dcfg:
            m = _section(dcfg["monotonicity"], "diagnostics.monotonicity")
            out["monotonicity"] = (_point(m, d),
                                   [(float(r1), float(r2)) for r1, r2 in m["pairs"]],
                                   m.get("mode", "gradient"),
                                   m.get("rhs_form", "difference"))
        if "small_energy" in dcfg:
            e = _section(dcfg["small_energy"], "diagnostics.small_energy")
            out["small_energy"] = (_point(e, d), [float(r) for r in e["radii"]],
                                   float(e["eps0"]))
        if dcfg.get("mbar_probe"):
            p = _section(dcfg["mbar_probe"], "diagnostics.mbar_probe")
            t0 = float(p.get("t0", self.solver.T / 2.0))
            x0 = _coords(p["x0"], d) if "x0" in p else self.domain_center()
            out["mbar_probe"] = ((t0, x0), float(p["R"]), p.get("mode", "dirichlet"))
        return out

    def build_initial(self, grid: Grid) -> SphereField:
        if self.initial.kind == "custom-samples":
            f, _ = sfio.read_snapshot(Path(self.raw["initial"]["path"]))
            init = InitialData(kind="custom-samples", samples=f.values)
            return generate(init, grid, self.D)
        return generate(self.initial, grid, self.D)

    def domain_center(self) -> np.ndarray:
        lo, hi = self.domain.bounding_box()
        return 0.5 * (lo + hi)


def _finite(name: str, value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return x


def _section(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object")
    return value


def _coords(value, d: int) -> np.ndarray:
    x = np.asarray(value, dtype=float)
    if x.shape != (d,):
        raise ConfigError(f"x0 must hold {d} coordinates, got {value!r}")
    return x


def _point(sec: dict, d: int) -> tuple:
    """The spacetime point (t0, x0) a diagnostics section is centred at."""
    return float(sec["t0"]), _coords(sec["x0"], d)


def _run_flow(cfg: ExperimentConfig, u0: SphereField) -> Trajectory:
    if cfg.mode == "projected":
        return run_projected(u0, cfg.solver)
    sched = PenaltySchedule(lam=cfg.lam,
                            use_original_form=(cfg.mode == "glhf-original"))
    return run_glhf(u0, cfg.solver, sched)


def _write_trajectory(out: Path, traj: Trajectory):
    rows = [[r.step, r.t, r.gl_energy, r.dirichlet_energy,
             r.penalty_increment, r.max_norm] for r in traj.records]
    sfio.write_csv(out / "trajectory.csv", TRAJECTORY_HEADER, rows)
    snap_dir = out / "snapshots"
    for i, (t, snap) in enumerate(zip(traj.times, traj.snapshots)):
        sfio.write_snapshot(snap_dir / f"snap_{i:06d}", snap, t=t, step=i,
                            lam=traj.lam, exponent=traj.exponent_at(t))


def _cylinder_row(traj: Trajectory, cyl: diag.CylinderSpec, mode: str) -> list:
    val = sing.local_scaled_energy(traj, (cyl.t0, cyl.x0), cyl.R, mode=mode)
    return [cyl.t0] + [float(c) for c in cyl.x0] + [cyl.R, mode, val]


def _run_diagnostics(cfg: ExperimentConfig, grid: Grid, traj: Trajectory, out: Path):
    dcfg = cfg.diagnostics
    sections = cfg.diagnostic_sections()
    reports = out / "reports"

    sfio.write_json(reports / "energy.json",
                    diag.energy_report(traj, len(traj.snapshots) - 1).to_json())

    if "cylinders" in sections:
        rows = [_cylinder_row(traj, cyl, mode) for cyl, mode in sections["cylinders"]]
        header = (["t0"] + [f"x0_{i}" for i in range(grid.d)]
                  + ["R", "mode", "scaled_energy"])
        sfio.write_csv(reports / "cylinders.csv", header, rows)

    if "monotonicity" in sections:
        z0, pairs, mode, rhs_form = sections["monotonicity"]
        out_reports = [diag.monotonicity_report(traj, z0, r1, r2, mode=mode,
                                                rhs_form=rhs_form).to_json()
                       for r1, r2 in pairs]
        sfio.write_json(reports / "monotonicity.json",
                        {"t0": z0[0], "x0": [float(c) for c in z0[1]],
                         "pairs": out_reports})

    if "singular" in dcfg:
        scfg = cfg._singular_config(grid)
        rep = sing.detect_singular_set(traj, scfg)
        sfio.write_json(reports / "singular.json", rep.to_json())
        sfio.write_csv(reports / "boxcount.csv", ["delta", "count"],
                       [[d, n] for d, n in rep.box_table])

    if dcfg.get("one_sided"):
        rep = stereo.one_sided_monitor(traj)
        sfio.write_json(reports / "onesided.json", rep.to_json())
        rows = [[k, t, w, m] for k, t, w, m in
                zip(rep.steps, rep.times, rep.max_w_track, rep.min_last_track)]
        sfio.write_csv(reports / "wtrack.csv",
                       ["step", "t", "maxW", "min_last_component"], rows)

    if "small_energy" in sections:
        z0, radii, eps0 = sections["small_energy"]
        ok, table = sing.small_energy_certificate(traj, z0, radii, eps0)
        sfio.write_json(reports / "certificate.json", {
            "t0": z0[0], "x0": [float(c) for c in z0[1]],
            "eps0": eps0, "all_pass": ok,
            "table": [{"r": r, "integral": v, "bound": b, "pass": p}
                      for r, v, b, p in table]})


def run_experiment(config_path, out_dir=None, threads: int = 1) -> int:
    # threads is unused; the keyword stays because the benchmark harness passes it
    config_path = Path(config_path)
    out = Path(out_dir) if out_dir else config_path.parent / (config_path.stem + "_out")
    try:
        cfg = ExperimentConfig.load(config_path)
    except ConfigError as e:
        _emit_error(out, e, 2)
        return 2
    try:
        grid = build_grid(cfg.domain, cfg.h)
        u0 = cfg.build_initial(grid)
        traj = _run_flow(cfg, u0)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "config.json", "w") as f:
            json.dump(cfg.raw, f, indent=2, sort_keys=True)
            f.write("\n")
        _write_trajectory(out, traj)
        _run_diagnostics(cfg, grid, traj, out)
        manifest = sfio.build_manifest(out, config_path)
        sfio.write_json(out / "manifest.json", manifest)
        return 0
    except SphereFlowError as e:
        _emit_error(out, e, 3)
        return 3


def _emit_error(out: Path, err: Exception, code: int):
    payload = {"error": type(err).__name__, "message": str(err), "exit_code": code}
    try:
        out.mkdir(parents=True, exist_ok=True)
        sfio.write_json(out / "error.json", payload)
    except OSError:
        pass
    print(json.dumps(payload), file=sys.stderr)


SWEEP_PARAMS = ("lambda", "h", "dt")


def sweep(config_path, param: str, values, out_dir=None, threads: int = 1) -> int:
    # threads is unused; the keyword stays because the benchmark harness passes it
    config_path = Path(config_path)
    out = Path(out_dir) if out_dir else config_path.parent / (config_path.stem + "_sweep")
    try:
        if param not in SWEEP_PARAMS:
            raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMS}")
        if not values:
            raise ConfigError("sweep needs a non-empty value list")
        base = ExperimentConfig.load(config_path)
        if base.mode == "projected" and param == "lambda":
            raise ConfigError("lambda sweep needs a penalized solver mode")
        cases = []
        for v in values:
            try:
                v = float(v)
            except (TypeError, ValueError) as e:
                raise ConfigError(f"sweep value {v!r} is not a number") from e
            raw = json.loads(json.dumps(base.raw))
            if param == "lambda":
                raw["solver"]["lambda"] = v
            elif param == "h":
                raw["h"] = v
            else:
                raw["solver"]["dt"] = v
            cases.append((v, ExperimentConfig.from_dict(raw)))
    except ConfigError as e:
        _emit_error(out, e, 2)
        return 2

    try:
        header = [param, "penalty_integral", "final_l2_to_projected",
                  "l2q_to_projected", "final_gl_energy", "final_dirichlet_energy"]
        probe = base.diagnostic_sections().get("mbar_probe")
        if probe:
            header.append("mbar")
        rows = []
        proj = None
        for v, cfg in cases:
            grid = build_grid(cfg.domain, cfg.h)
            u0 = cfg.build_initial(grid)
            traj = _run_flow(cfg, u0)
            if cfg.mode == "projected":
                proj = traj
            elif proj is None or param != "lambda":
                # the projected reference does not depend on lambda
                proj = run_projected(u0, cfg.solver)
            row = [v,
                   penalty_integral(traj),
                   l2_distance(traj.snapshots[-1], proj.snapshots[-1]),
                   trajectory_l2q_distance(traj, proj),
                   traj.records[-1].gl_energy,
                   traj.records[-1].dirichlet_energy]
            if probe:
                z0, R, mode = probe
                row.append(sing.local_scaled_energy(traj, z0, R, mode=mode))
            rows.append(row)
        out.mkdir(parents=True, exist_ok=True)
        sfio.write_csv(out / "sweep.csv", header, rows)
        sfio.write_json(out / "manifest.json", sfio.build_manifest(out, config_path))
        return 0
    except SphereFlowError as e:
        _emit_error(out, e, 3)
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sphereflow",
                                     description="penalized sphere-flow experiments")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter of a config")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numeric values")
    p_sweep.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.cmd == "run":
        return run_experiment(args.config, args.out)
    vals = [x for x in args.values.split(",") if x.strip() != ""]
    return sweep(args.config, args.param, vals, args.out)


if __name__ == "__main__":
    sys.exit(main())
