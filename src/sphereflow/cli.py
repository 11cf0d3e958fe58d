"""Config-driven experiment runner.

Usage:
    sphereflow run   --config cfg.json [--out DIR]
    sphereflow sweep --config cfg.json --param lambda --values 100,1000,10000
                     [--out DIR]

The JSON config is the single source of truth; flags only bind paths (and
name the swept parameter and its values).  Everything runs in one thread,
so reruns are byte-identical.

A command builds its diagnostics' readings at load, on each run's
``ExperimentConfig.plan`` (``_run_readings``; a sweep case's
``_CaseStream``): a window or ball a reading refuses is a ConfigError
(``_at_load``), so load and the diagnostics apply one rule.
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
from .errors import (CFLViolated, ConfigError, DimensionMismatch, EmptyIntersection,
                     LatticeTooLarge, SphereFlowError, SpacingTooCoarse,
                     WindowOutsideTrajectory, finite, integer, numbers, section)
# the benchmark tracer wraps the binding cli.generate, which no run calls
# (``build_initial`` takes the rows of ``initial_rows``), so it stays imported
from .field import (InitialData, KeptSnapshot, SphereField, check_initial, generate,
                    initial_rows, l2_distance, scratch)
# the benchmark tracer wraps the binding cli.trajectory_l2q_distance, which
# sweep's l2q_to_projected equals, so it stays imported here
from .flow import (PenaltySchedule, SolverConfig, Trajectory, run_glhf, run_projected,
                   penalty_integral, trajectory_l2q_distance)
from .geometry import Domain, Grid, build_grid

# the step budget: config load rejects a run of more steps (the shipped
# configs, tests and benchmark workloads take at most a few thousand)
MAX_STEPS = 1_000_000

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
        ``geometry.MAX_LATTICE_NODES`` nodes.  The time windows and balls
        of the diagnostics are checked by the readings the command builds
        on the run's ``plan``."""
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
        them, so no lattice of the initial field is made.  A
        ``custom-samples`` snapshot is read as its rows (``io.read_rows``)."""
        init = self.initial
        if self.snapshot is not None:
            samples, _ = sfio.read_rows(self.snapshot, self.grid)
            init = InitialData(kind="custom-samples", samples=samples)
        return KeptSnapshot(self.grid, *initial_rows(init, self.grid, self.D))

    def plan(self) -> Trajectory:
        """The run's trajectory before its flow: grid, snapshot times,
        lambda and dt, with no snapshot or record yet.  Readings built on it
        at load are fed once the run's snapshots join it."""
        return Trajectory(grid=self.grid, times=self.solver.snapshot_times(),
                          snapshots=[], records=[], lam=self.lam, dt=self.solver.dt)


def _at_load(plan: Trajectory, name: str, reading, *args):
    """``reading(plan, *args)``, a reading of the diagnostics section
    ``name`` built at load; a window it finds holding no snapshot of the
    run, or a ball no interior node, is a ConfigError naming the section
    and the run's span."""
    try:
        return reading(plan, *args)
    except (EmptyIntersection, WindowOutsideTrajectory) as e:
        raise ConfigError(f"diagnostics.{name}: {e} of the run, which spans "
                          f"[0, {plan.times[-1]:g}]") from e


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
        diag.check_monotonicity_args(z0[0], pairs, mode, rhs_form)
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
        sing.check_certificate_args(eps0, radii, d)
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


def _run_flow(cfg: ExperimentConfig, u0: SphereField, store=None,
              handover: bool = False) -> Trajectory:
    """The case's flow from ``u0``; ``store`` and ``handover`` as in
    ``flow.run_glhf``."""
    if cfg.mode == "projected":
        return run_projected(u0, cfg.solver, store=store, handover=handover)
    return run_glhf(u0, cfg.solver, PenaltySchedule(lam=cfg.lam), store=store,
                    handover=handover)


def _write_trajectory(out: Path, traj: Trajectory, store: sfio.SnapshotStore,
                      written: dict):
    """``trajectory.csv`` and the index of the snapshots ``store`` wrote
    during the flow; ``written`` gains their digests."""
    rows = [[r.step, r.t, r.gl_energy, r.dirichlet_energy,
             r.penalty_increment, r.max_norm] for r in traj.records]
    written[out / "trajectory.csv"] = sfio.write_csv(out / "trajectory.csv",
                                                     TRAJECTORY_HEADER, rows)
    sched = traj.schedule
    written[store.index] = store.write_index(
        traj.times, traj.lam, [sched.exponent(t) if sched else None for t in traj.times])


def _run_readings(cfg: ExperimentConfig, plan: Trajectory) -> dict:
    """The readings of ``run``'s monotonicity pairs, cylinders and
    small-energy certificate, built on the run's ``plan`` at load
    (``_at_load``).  They hold ball-sized arrays at most: the scan reading,
    which holds a padded lattice, is built after the flow."""
    dg = cfg.diagnostics
    readings = {}
    if dg.monotonicity is not None:
        readings["monotonicity"] = _at_load(plan, "monotonicity", diag.monotonicity_reading,
                                            *dg.monotonicity)
    for i, (cyl, mode) in enumerate(dg.cylinders):
        readings[i] = _at_load(plan, "cylinders", sing.scaled_energy_reading,
                               (cyl.t0, cyl.x0), cyl.R, mode)
    if dg.small_energy is not None:
        readings["small_energy"] = _at_load(plan, "small_energy", sing.certificate_reading,
                                            *dg.small_energy)
    return readings


def _run_diagnostics(dcfg: Diagnostics, traj: Trajectory, readings: dict, out: Path,
                     written: dict):
    """Evaluate the diagnostics and write their reports; ``written`` gains
    their digests.  ``traj`` is the run's plan, which now holds its
    snapshots, and ``readings`` what ``_run_readings`` built on it at load.
    Those and the singular scan are evaluated in one pass over the
    snapshots in time order (``diagnostics.evaluate``) that drops each
    snapshot's densities once its readers are fed, as it drops the energy
    report's: nothing reads this trajectory afterwards, so the density
    cache holds one snapshot's densities at a time and ends empty.  The
    monotonicity reading then makes one more pass for its speed term,
    which reads snapshots, not densities."""
    reports = out / "reports"
    reports.mkdir(exist_ok=True)

    def put_json(name: str, obj):
        written[reports / name] = sfio.write_json(reports / name, obj)

    def put_csv(name: str, header, rows):
        written[reports / name] = sfio.write_csv(reports / name, header, rows)

    last = len(traj.snapshots) - 1
    with scratch():
        put_json("energy.json", diag.energy_report(traj, last).to_json())
        diag.drop_densities(traj, last)
        if dcfg.singular is not None:
            readings = dict(readings,
                            singular=sing.scan_reading(traj, dcfg.singular, keep=False))
        got = dict(zip(readings, diag.evaluate(traj, readings.values(), keep=False)))

    if dcfg.monotonicity is not None:
        z0 = dcfg.monotonicity[0]
        put_json("monotonicity.json", {"t0": z0[0], "x0": [float(c) for c in z0[1]],
                                       "pairs": [r.to_json() for r in got["monotonicity"]]})

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
        plan = cfg.plan()
        readings = _run_readings(cfg, plan)
    except ConfigError as e:
        _emit_error(out, e, 2)
        return 2
    try:
        # the flow writes each snapshot's data as it takes it; a flow that
        # fails takes this run's snapshot files with it; the store makes the
        # run directory before the first step.  No one else reads the initial
        # field, so the flow steps its rows themselves
        store = sfio.SnapshotStore(out / "snapshots")
        try:
            traj = _run_flow(cfg, cfg.build_initial(), store, handover=True)
        except BaseException:
            store.remove()
            raise
        plan.snapshots, plan.records = traj.snapshots, traj.records
        written = dict(store.digests)
        written[out / "config.json"] = sfio.write_json(out / "config.json", cfg.raw)
        _write_trajectory(out, plan, store, written)
        _run_diagnostics(cfg.diagnostics, plan, readings, out, written)
        del readings                # evaluated: released before the manifest
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
    row per case.  Every case's ``_CaseStream`` is built at load, so every
    case's mbar probe is checked before any case steps.  Each case streams:
    the flow hands every snapshot to its stream, which feeds the window sums
    the row reads and keeps no snapshot, and the case's run and stream are
    released once its row is made.  The projected reference a penalized
    case is compared with (``_reference``) holds its snapshots as read-only
    maps of files already removed, computed once for a lambda sweep and per
    case for an h or dt sweep.  Returns the exit code."""
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
            cases.append((v, case, _CaseStream(case)))
    except ConfigError as e:
        _emit_error(out, e, 2)
        return 2

    try:
        header = [param, "penalty_integral", "final_l2_to_projected",
                  "l2q_to_projected", "final_gl_energy", "final_dirichlet_energy"]
        if base.diagnostics.mbar_probe:
            header.append("mbar")
        rows = []
        ref = u0 = None
        out.mkdir(parents=True, exist_ok=True)
        while cases:
            # popped, so that a case's stream, which holds its field, goes
            # with its row
            v, cfg, stream = cases.pop(0)
            if param != "lambda":
                # the last case's, released before stepping
                ref = u0 = None
            if u0 is None:
                # a lambda sweep builds these once: neither depends on lambda;
                # a projected case is its own reference
                u0 = cfg.build_initial()
                if cfg.mode != "projected":
                    ref = _reference(cfg, u0, out)
            rows.append(_sweep_row(v, cfg, stream, u0, ref))
            del stream
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
    """The snapshot store of one sweep case, built at load on the case's
    ``plan``: the window sums ``sweep.csv`` reads, fed as the flow takes
    each snapshot.

    ``probe`` is the mbar probe's ``singular.scaled_energy_reading`` (None
    without a probe); building it applies its window and ball rules
    (``_at_load``).  ``compare`` adds ``dist2``, the window sum of the
    squared L^2 distance of snapshot k to snapshot k of the projected
    reference.  ``take`` appends snapshot k to the plan as a new view of
    the flow's live field, no copy (captures that were one object would
    share one density cache entry, ``diagnostics._cache_key``), feeds it
    to every sum whose window holds k, and returns the view: the case
    holds its final field and no other snapshot.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.traj = cfg.plan()
        probe = cfg.diagnostics.mbar_probe
        self.probe = (None if probe is None else
                      _at_load(self.traj, "mbar_probe", sing.scaled_energy_reading, *probe))
        self.sums = [] if probe is None else list(self.probe.sums)

    def compare(self, ref: Trajectory) -> None:
        # the term holds the plan's snapshot list, not the stream: a cycle
        # through the stream would keep the case's field until a collection
        snaps, t = self.traj.snapshots, self.traj.times
        self.dist2 = diag.WindowSum(self.traj, t[0], t[-1],
                                    lambda k: l2_distance(snaps[k], ref.snapshots[k]) ** 2)
        self.sums.append(self.dist2)

    def take(self, u: SphereField, rows: np.ndarray) -> SphereField:
        # the sums read u; its interior rows are not needed apart
        k = len(self.traj.snapshots)
        snap = SphereField(u.grid, u.values)
        self.traj.snapshots.append(snap)
        for s in self.sums:
            if k in s.ks:
                s.feed(k)
        return snap


def _sweep_row(v: float, cfg: ExperimentConfig, stream: _CaseStream, u0: SphereField,
               ref: Optional[Trajectory]) -> list:
    """The ``sweep.csv`` row of the case ``cfg``, run from ``u0`` through
    ``stream`` against the projected reference ``ref`` (None for a
    projected case, its own reference, at distance 0)."""
    final = l2q = 0.0
    if ref is not None:
        stream.compare(ref)
    traj = _run_flow(cfg, u0, stream)
    if ref is not None:
        final = l2_distance(traj.snapshots[-1], ref.snapshots[-1])
        l2q = math.sqrt(stream.dist2.value)
    row = [v, penalty_integral(traj), final, l2q, traj.records[-1].gl_energy,
           traj.records[-1].dirichlet_energy]
    if stream.probe is not None:
        row.append(stream.probe.finish())
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
