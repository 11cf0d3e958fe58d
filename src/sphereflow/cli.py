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
import hashlib
import json
import math
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import diagnostics as diag
from . import io as sfio
from . import singular as sing
from . import stereo
from .errors import (CFLViolated, ConfigError, DimensionMismatch, LatticeTooLarge,
                     SphereFlowError, SpacingTooCoarse, finite, integer, numbers, section)
# the benchmark tracer wraps the binding cli.generate, which no run calls
# (``build_initial`` takes the rows of ``initial_rows``), so it stays imported
from .field import (InitialData, KeptSnapshot, SphereField, check_initial, generate,
                    initial_rows, l2_distance, release_pages)
# the benchmark tracer wraps the binding cli.trajectory_l2q_distance, which
# sweep's l2q_to_projected equals, so it stays imported here
from .flow import (PenaltySchedule, SolverConfig, Trajectory, run_glhf, run_projected,
                   penalty_integral, trajectory_l2q_distance)
from .geometry import Domain, Grid, build_grid

# the step budget: config load rejects a run of more steps (the shipped
# configs, tests and benchmark workloads take at most a few thousand)
MAX_STEPS = 1_000_000
# the diagnostics sections each command evaluates on its run
RUN_SECTIONS = ("cylinders", "monotonicity", "small_energy")
SWEEP_SECTIONS = ("mbar_probe",)

TRAJECTORY_HEADER = ["step", "t", "gl_energy", "dirichlet_energy",
                     "penalty_increment", "max_norm"]


@dataclass
class Diagnostics:
    """The diagnostics section, typed and checked at config load."""

    cylinders: list = field(default_factory=list)     # (CylinderSpec, mode) per entry
    monotonicity: Optional[tuple] = None              # (z0, [(R1, R2)], mode, rhs_form)
    singular: Optional[sing.SingularConfig] = None
    one_sided: bool = False
    small_energy: Optional[tuple] = None              # (z0, radii, eps0)
    mbar_probe: Optional[tuple] = None                # (z0, R, mode)


@dataclass
class ExperimentConfig:
    """A config parsed once, at load.  ``raw`` is kept only to write
    ``config.json`` and to derive the cases of a sweep; ``grid`` is the
    lattice the run steps on; ``source_sha256`` is the digest of the file
    ``load`` parsed, for the manifest."""

    grid: Grid
    D: int
    initial: InitialData
    mode: str
    lam: Optional[float]
    solver: SolverConfig
    diagnostics: Diagnostics
    raw: dict
    snapshot: Optional[Path] = None                   # custom-samples initial data
    source_sha256: Optional[str] = None

    @staticmethod
    def load(path: Path) -> "ExperimentConfig":
        try:
            data = Path(path).read_bytes()
            raw = json.loads(data)
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read config: {e}") from e
        cfg = ExperimentConfig.from_dict(raw)
        cfg.source_sha256 = hashlib.sha256(data).hexdigest()
        return cfg

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        """Type and check every section; raise ConfigError on a key the parse
        does not read, on any value the run or a diagnostic would reject (a
        bool or a string where a number belongs included), on a run of no
        step or of more than MAX_STEPS steps and on a lattice of more than
        ``geometry.MAX_LATTICE_NODES`` nodes.  The time windows of the
        diagnostics depend on the command that evaluates them;
        ``check_windows`` checks them."""
        try:
            section("config", raw, ("domain", "h", "D", "initial", "solver", "diagnostics"))
            domain = Domain.from_config(raw["domain"])
            h = finite("h", raw["h"])
            D = integer("D", raw.get("D", 2))
            initial = InitialData.from_config(raw["initial"])
            sv = section("solver", raw["solver"], ("mode", "lambda", "T", "dt", "cfl",
                                                   "output_stride", "penalty_integration"))
            if sv.get("penalty_integration", "exact-logistic") != "exact-logistic":
                raise ConfigError("solver.penalty_integration must be 'exact-logistic'")
            mode = sv.get("mode", "glhf-simplified")
            if mode not in ("glhf-simplified", "projected"):
                raise ConfigError(f"unknown solver mode {mode!r}")
            lam = None
            if mode != "projected":
                if "lambda" not in sv:
                    raise ConfigError("penalized modes need solver.lambda")
                lam = finite("solver.lambda", sv["lambda"])
                if lam <= 1.0:
                    raise ConfigError("solver.lambda must exceed 1")
            cfl = finite("solver.cfl", sv.get("cfl", 0.9))
            try:
                grid = build_grid(domain, h)
                dt_raw = sv.get("dt", "auto")
                solver = SolverConfig(
                    dt=(SolverConfig.auto_dt(grid, cfl) if dt_raw == "auto"
                        else finite("solver.dt", dt_raw)),
                    T=finite("solver.T", sv["T"]), cfl=cfl,
                    output_stride=integer("solver.output_stride",
                                          sv.get("output_stride", 1)))
                solver.validate(grid)
                check_initial(initial, domain.d, D)
            except (CFLViolated, DimensionMismatch, LatticeTooLarge,
                    SpacingTooCoarse) as e:
                raise ConfigError(str(e)) from e
            steps = solver.T / solver.dt
            # an infinite ratio has no integral step count
            if not math.isfinite(steps) or solver.n_steps() > MAX_STEPS:
                raise ConfigError(f"solver.T / dt = {steps:.4g} steps exceeds the "
                                  f"budget of {MAX_STEPS} steps per run")
            if solver.n_steps() < 1:
                raise ConfigError(f"solver.T / dt = {steps:.4g} steps rounds to no "
                                  f"step; a run takes at least one")
            diagnostics = _diagnostics(raw.get("diagnostics", {}), domain, h, solver.T)
            snapshot = None
            if initial.kind == "custom-samples":
                if not raw["initial"].get("path"):
                    raise ConfigError("custom-samples initial data needs a snapshot path")
                snapshot = Path(raw["initial"]["path"])
                sfio.check_snapshot(snapshot, grid, D)
            return ExperimentConfig(grid=grid, D=D, initial=initial, mode=mode,
                                    lam=lam, solver=solver, diagnostics=diagnostics,
                                    raw=raw, snapshot=snapshot)
        except ConfigError:
            raise
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as e:
            raise ConfigError(f"invalid config: {e}") from e

    def build_initial(self) -> KeptSnapshot:
        """The initial field, on the run's grid, as its interior and boundary
        rows (``field.initial_rows``): the flow builds its own field from
        them, so no lattice of the initial field is made."""
        init = self.initial
        if self.snapshot is not None:
            f, _ = sfio.read_snapshot(self.snapshot)
            init = InitialData(kind="custom-samples", samples=f)
        return KeptSnapshot(self.grid, *initial_rows(init, self.grid, self.D))

    def check_windows(self, sections) -> None:
        """Raise ConfigError unless, in the named diagnostics sections, every
        time window holds a snapshot of the run and every cylinder's ball an
        interior node.  These are the rules the diagnostics apply after the
        flow (``diagnostics.window_snapshots`` and ``cylinder_integral``),
        applied to the run's snapshot times and grid before it."""
        dg = self.diagnostics
        cyls, windows = [], []
        if "cylinders" in sections:
            cyls += [("cylinder", cyl) for cyl, _ in dg.cylinders]
        if "small_energy" in sections and dg.small_energy is not None:
            (t0, x0), radii, _ = dg.small_energy
            cyls += [("small_energy", diag.CylinderSpec(t0, x0, r)) for r in radii]
        if "mbar_probe" in sections and dg.mbar_probe is not None:
            (t0, x0), R, _ = dg.mbar_probe
            cyls.append(("mbar_probe", diag.CylinderSpec(t0, x0, R)))
        if "monotonicity" in sections and dg.monotonicity is not None:
            (t0, _), pairs, _, _ = dg.monotonicity
            # the report's windows for the radii in (r1, r2] start earlier than
            # r1's and none before 0, so each holds a snapshot if r1's does
            windows += [("monotonicity", diag.annulus_window(t0, r1)) for r1, _ in pairs]
        windows += [(name, cyl.window()) for name, cyl in cyls]
        times = self.solver.snapshot_times()
        for name, (a, b) in windows:
            if not np.any(diag.window_weights(times, a, b) > 0):
                raise ConfigError(f"{name} window [{a:g}, {b:g}) holds no snapshot "
                                  f"of the run, which spans [0, {times[-1]:g}]")
        for name, cyl in cyls:
            if self.grid.nodes_within(cyl.x0, cyl.R).size == 0:
                raise ConfigError(f"{name} ball of radius {cyl.R:g} around "
                                  f"{cyl.x0.tolist()} holds no interior node")


def _diagnostics(dcfg: dict, domain: Domain, h: float, T: float) -> Diagnostics:
    """Parse the diagnostics section, with the values the diagnostics would
    reject checked by the checks they call.  Raises ConfigError, KeyError,
    TypeError or ValueError on a malformed section."""
    d = domain.d

    def length(name: str, value) -> float:
        # finite, positive and at most the domain diameter (a larger ball
        # already covers the domain)
        r = finite(name, value)
        if not 0.0 < r <= domain.diameter:
            raise ConfigError(f"{name} must lie in (0, {domain.diameter:g}], "
                              f"the domain diameter; got {value!r}")
        return r

    out = Diagnostics()
    section("diagnostics", dcfg, ("cylinders", "monotonicity", "singular", "one_sided",
                                  "small_energy", "mbar_probe"))
    cylinders = dcfg.get("cylinders", [])
    if not isinstance(cylinders, list):
        raise ConfigError("diagnostics.cylinders must be a list")
    for c in cylinders:
        c = section("diagnostics.cylinders entry", c, ("t0", "x0", "R", "mode"))
        t0, x0 = _point(c, d)
        R, mode = length("cylinder R", c["R"]), c.get("mode", "gl")
        sing.check_cylinder_args(R, h, mode)
        out.cylinders.append((diag.CylinderSpec(t0=t0, x0=x0, R=R), mode))
    if "monotonicity" in dcfg:
        m = section("diagnostics.monotonicity", dcfg["monotonicity"],
                    ("t0", "x0", "pairs", "mode", "rhs_form"))
        z0 = _point(m, d)
        pairs = [(finite("monotonicity R1", r1), finite("monotonicity R2", r2))
                 for r1, r2 in m["pairs"]]
        mode, rhs_form = m.get("mode", "gradient"), m.get("rhs_form", "difference")
        for r1, r2 in pairs:
            diag.check_monotonicity_args(z0[0], r1, r2, mode, rhs_form)
        out.monotonicity = (z0, pairs, mode, rhs_form)
    if "singular" in dcfg:
        s = section("diagnostics.singular", dcfg["singular"],
                    ("eps0", "radii", "time_stride", "space_stride", "deltas", "mode"))
        out.singular = sing.SingularConfig(
            eps0=finite("singular.eps0", s["eps0"]),
            radii=[length("singular radius", r) for r in s["radii"]],
            time_stride=integer("singular.time_stride", s.get("time_stride", 1)),
            space_stride=integer("singular.space_stride", s.get("space_stride", 1)),
            deltas=[finite("singular delta", x) for x in s["deltas"]] if "deltas" in s else None,
            mode=s.get("mode", "gl"))
        out.singular.validate(h)
    out.one_sided = dcfg.get("one_sided", False)
    if not isinstance(out.one_sided, bool):
        raise ConfigError(f"diagnostics.one_sided must be true or false, got {out.one_sided!r}")
    if "small_energy" in dcfg:
        e = section("diagnostics.small_energy", dcfg["small_energy"],
                    ("t0", "x0", "radii", "eps0"))
        radii = [length("small_energy radius", r) for r in e["radii"]]
        eps0 = finite("small_energy eps0", e["eps0"])
        for r in radii:
            sing.certificate_bound(eps0, r, d)
        out.small_energy = (_point(e, d), radii, eps0)
    if "mbar_probe" in dcfg:
        p = section("diagnostics.mbar_probe", dcfg["mbar_probe"], ("t0", "x0", "R", "mode"))
        t0 = finite("mbar_probe t0", p.get("t0", T / 2.0))
        x0 = _coords(p["x0"], d) if "x0" in p else domain.center()
        R, mode = length("mbar_probe R", p["R"]), p.get("mode", "dirichlet")
        sing.check_cylinder_args(R, h, mode)
        out.mbar_probe = ((t0, x0), R, mode)
    return out


def _coords(value, d: int) -> np.ndarray:
    x = numbers("x0", value)
    if x.shape != (d,) or not np.all(np.isfinite(x)):
        raise ConfigError(f"x0 must hold {d} finite coordinates, got {value!r}")
    return x


def _point(sec: dict, d: int) -> tuple:
    """The spacetime point (t0, x0) a diagnostics section is centred at."""
    return finite("t0", sec["t0"]), _coords(sec["x0"], d)


def _run_flow(cfg: ExperimentConfig, u0: SphereField, store=None) -> Trajectory:
    """The case's flow from ``u0``; ``store`` as in ``flow.run_glhf``."""
    if cfg.mode == "projected":
        return run_projected(u0, cfg.solver, store=store)
    return run_glhf(u0, cfg.solver, PenaltySchedule(lam=cfg.lam), store=store)


def _write_trajectory(out: Path, traj: Trajectory, store: sfio.SnapshotStore,
                      written: dict):
    """``trajectory.csv`` and the sidecars of the snapshots ``store`` wrote
    during the flow; ``written`` gains their digests."""
    rows = [[r.step, r.t, r.gl_energy, r.dirichlet_energy,
             r.penalty_increment, r.max_norm] for r in traj.records]
    written[out / "trajectory.csv"] = sfio.write_csv(out / "trajectory.csv",
                                                     TRAJECTORY_HEADER, rows)
    sched = traj.schedule
    for i, (base, t, snap) in enumerate(zip(store.bases, traj.times, traj.snapshots)):
        written[base.with_suffix(".json")] = sfio.write_sidecar(
            base, snap, t=t, step=i, lam=traj.lam,
            exponent=sched.exponent(t) if sched else None)


def _run_diagnostics(dcfg: Diagnostics, traj: Trajectory, out: Path, written: dict):
    """Evaluate the diagnostics and write their reports; ``written`` gains
    their digests.  Those that read densities (the monotonicity annuli,
    the singular scan, the cylinders and the certificate) are evaluated in
    one pass over the snapshots in time order (``diagnostics.evaluate``)
    that drops each snapshot's densities once its readers are fed, as it
    drops the energy report's: nothing reads this trajectory afterwards,
    so the density cache holds one snapshot's densities at a time and
    ends empty."""
    reports = out / "reports"

    def put_json(name: str, obj):
        written[reports / name] = sfio.write_json(reports / name, obj)

    def put_csv(name: str, header, rows):
        written[reports / name] = sfio.write_csv(reports / name, header, rows)

    last = len(traj.snapshots) - 1
    put_json("energy.json", diag.energy_report(traj, last).to_json())
    diag.drop_densities(traj, last)

    readings = {}
    if dcfg.monotonicity is not None:
        z0, pairs, mode, _ = dcfg.monotonicity
        readings["monotonicity"] = diag.annulus_reading(
            traj, z0, [r for pair in pairs for r in pair], mode)
    if dcfg.singular is not None:
        readings["singular"] = sing.scan_reading(traj, dcfg.singular, keep=False)
    for i, (cyl, mode) in enumerate(dcfg.cylinders):
        readings[i] = sing.scaled_energy_reading(traj, (cyl.t0, cyl.x0), cyl.R, mode)
    if dcfg.small_energy is not None:
        z0, radii, eps0 = dcfg.small_energy
        readings["small_energy"] = sing.certificate_reading(traj, z0, radii, eps0)
    got = dict(zip(readings, diag.evaluate(traj, readings.values(), keep=False)))

    if dcfg.monotonicity is not None:
        # every annulus energy is kept on the trajectory: the reports add
        # the speed term, which reads snapshots, not densities
        z0, pairs, mode, rhs_form = dcfg.monotonicity
        out_reports = [diag.monotonicity_report(traj, z0, r1, r2, mode=mode,
                                                rhs_form=rhs_form).to_json()
                       for r1, r2 in pairs]
        put_json("monotonicity.json", {"t0": z0[0], "x0": [float(c) for c in z0[1]],
                                       "pairs": out_reports})

    if dcfg.singular is not None:
        rep = got["singular"]
        put_json("singular.json", rep.to_json())
        put_csv("boxcount.csv", ["delta", "count"], [[d, n] for d, n in rep.box_table])

    if dcfg.one_sided:
        rep = stereo.one_sided_monitor(traj)
        put_json("onesided.json", rep.to_json())
        rows = [[k, t, w, m] for k, t, w, m in
                zip(rep.steps, rep.times, rep.max_w_track, rep.min_last_track)]
        put_csv("wtrack.csv", ["step", "t", "maxW", "min_last_component"], rows)

    if dcfg.cylinders:
        rows = [[cyl.t0] + [float(c) for c in cyl.x0] + [cyl.R, mode, got[i]]
                for i, (cyl, mode) in enumerate(dcfg.cylinders)]
        header = (["t0"] + [f"x0_{i}" for i in range(traj.grid.d)]
                  + ["R", "mode", "scaled_energy"])
        put_csv("cylinders.csv", header, rows)

    if dcfg.small_energy is not None:
        z0, radii, eps0 = dcfg.small_energy
        ok, table = got["small_energy"]
        put_json("certificate.json", {
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
        cfg.check_windows(RUN_SECTIONS)
    except ConfigError as e:
        _emit_error(out, e, 2)
        return 2
    try:
        # the flow writes each snapshot's data as it takes it; a flow that
        # fails takes this run's snapshot files with it; the store makes the
        # run directory before the first step
        store = sfio.SnapshotStore(out / "snapshots")
        try:
            traj = _run_flow(cfg, cfg.build_initial(), store)
        except BaseException:
            store.remove()
            raise
        written = dict(store.digests)
        written[out / "config.json"] = sfio.write_json(out / "config.json", cfg.raw)
        _write_trajectory(out, traj, store, written)
        _run_diagnostics(cfg.diagnostics, traj, out, written)
        manifest = sfio.build_manifest(out, written, cfg.source_sha256)
        sfio.write_json(out / "manifest.json", manifest)
        return 0
    except (SphereFlowError, OSError) as e:      # OSError: the run directory
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
    """Run the config once per value of ``param`` and write one ``sweep.csv``
    row per case.  Each case streams: the flow hands every snapshot to a
    ``_CaseStream`` store, which records the few numbers the row reads of it
    and keeps no snapshot, and the case's run is released before the next
    one starts.  The projected reference a penalized case is compared with
    (``_reference``) holds its snapshots as read-only maps of files already
    removed, computed once for a lambda sweep and per case for an h or dt
    sweep.  Returns the exit code."""
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
            (raw if param == "h" else raw["solver"])[param] = v
            case = ExperimentConfig.from_dict(raw)
            case.check_windows(SWEEP_SECTIONS)
            cases.append((v, case))
    except ConfigError as e:
        _emit_error(out, e, 2)
        return 2

    try:
        header = [param, "penalty_integral", "final_l2_to_projected",
                  "l2q_to_projected", "final_gl_energy", "final_dirichlet_energy"]
        probe = base.diagnostics.mbar_probe
        if probe:
            header.append("mbar")
        rows = []
        ref = u0 = None
        out.mkdir(parents=True, exist_ok=True)
        for v, cfg in cases:
            if param != "lambda":
                # the last case's, released before stepping
                ref = u0 = None
            if u0 is None:
                # a lambda sweep builds these once: neither depends on lambda;
                # a projected case is its own reference
                u0 = cfg.build_initial()
                if cfg.mode != "projected":
                    ref = _reference(cfg, u0, out)
            rows.append(_sweep_row(v, cfg, u0, ref, probe))
        written = {out / "sweep.csv": sfio.write_csv(out / "sweep.csv", header, rows)}
        sfio.write_json(out / "manifest.json",
                        sfio.build_manifest(out, written, base.source_sha256))
        return 0
    except (SphereFlowError, OSError) as e:      # OSError: the run directory
        _emit_error(out, e, 3)
        return 3


def _reference(cfg: ExperimentConfig, u0: SphereField, out: Path) -> Trajectory:
    """The projected run of ``cfg`` from ``u0``, with every snapshot a
    read-only map of a file in a private directory below ``out``.  The
    directory and its files are removed as soon as the run returns or
    raises; the maps stay readable (POSIX keeps an unlinked file's data
    while a map of it is open), so the reference's snapshots are neither
    on the heap nor left on disk.  No manifest lists these files, so the
    store hashes none of them."""
    store = sfio.SnapshotStore(Path(tempfile.mkdtemp(prefix="reference-", dir=out)),
                               digest=False)
    try:
        return run_projected(u0, cfg.solver, store=store)
    finally:
        store.remove()


class _CaseStream:
    """The snapshot store of one sweep case: what ``sweep.csv`` reads of
    each snapshot, recorded as the flow takes it.

    ``take`` records the L^2 distance of snapshot k to snapshot k of the
    projected reference ``ref`` (0.0 without one: a projected case is its
    own reference), then releases that reference snapshot's pages
    (``field.release_pages``), and, for the snapshots in the mbar probe's
    time window, records the probe's density on its ball.  It returns the
    flow's live field, so the case holds its final field and no other
    snapshot; every entry of the run's trajectory is that field, and no
    page of the reference stays in its resident set.
    """

    def __init__(self, cfg: ExperimentConfig, ref: Optional[Trajectory], probe):
        self.ref = ref
        self.dist: list = []
        self.ball: dict = {}
        # the snapshots taken so far, each the live field, for energy_density
        # to read snapshot k's field, time and strength from at capture
        self.traj = Trajectory(grid=cfg.grid, times=cfg.solver.snapshot_times(),
                               snapshots=[], records=[], lam=cfg.lam, dt=cfg.solver.dt)
        self.window = ()
        if probe:
            (t0, x0), R, mode = probe
            self.cyl = diag.CylinderSpec(t0, x0, R)
            self.mode, self.dens_mode = mode, sing.density_mode(mode)
            self.nodes = cfg.grid.nodes_within(self.cyl.x0, R)
            ks, _ = diag.window_snapshots(self.traj, *self.cyl.window())
            self.window = set(ks.tolist())

    def take(self, u: SphereField, last: bool) -> SphereField:
        k = len(self.traj.snapshots)
        self.traj.snapshots.append(u)
        if self.ref is None:
            self.dist.append(0.0)
        else:
            ref = self.ref.snapshots[k]
            self.dist.append(l2_distance(u, ref))
            release_pages(ref)
        if k in self.window:
            self.ball[k] = diag.energy_density(self.traj, k, self.dens_mode, self.nodes)
        return u

    def l2q(self) -> float:
        """``trajectory_l2q_distance`` of the case and its reference, from
        the recorded distances."""
        t = self.traj.times
        return math.sqrt(diag.window_integral(self.traj, t[0], t[-1],
                                              lambda k: self.dist[k] ** 2))

    def mbar(self) -> float:
        """``local_scaled_energy`` of the probe, from the recorded densities."""
        return (diag.ball_integral(self.traj, self.cyl, self.ball.__getitem__)
                / sing.cylinder_scale(self.mode, self.cyl.R, self.traj.grid.d))


def _sweep_row(v: float, cfg: ExperimentConfig, u0: SphereField,
               ref: Optional[Trajectory], probe) -> list:
    """The ``sweep.csv`` row of the case ``cfg``, run from ``u0`` against the
    projected reference ``ref`` (None for a projected case); the case's run
    is released on return."""
    stream = _CaseStream(cfg, ref, probe)
    traj = _run_flow(cfg, u0, stream)
    row = [v, penalty_integral(traj), stream.dist[-1], stream.l2q(),
           traj.records[-1].gl_energy, traj.records[-1].dirichlet_energy]
    if probe:
        row.append(stream.mbar())
    return row


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
