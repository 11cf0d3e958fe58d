"""One workload repetition in a fresh process.

Started by ``run.py``.  Imports sphereflow from the checkout's ``src``,
generates the inputs from the seed, prints ``READY`` (the end of set-up),
runs the timed section, and writes ``result.json`` (and, traced,
``spans.json``) into its work directory.  An exception out of the program
is recorded as exit code 1 with its name, so the checks count it as a
failure; the worker itself still exits 0.

    python3 bench/worker.py --workload W --seed N --size full --work DIR
                            [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Facts:
    """Counts the tracer's hooks collect from traced calls."""

    def __init__(self, tracer: tr.Tracer):
        self.tracer = tracer
        self.runs = self.steps = self.snapshots = self.snapshot_bytes = 0
        self.last_run = None
        self.scan_points = self.flagged = 0
        self.unknowns = 0
        self.residual = 0.0
        self.files_written = self.bytes_written = 0

    def hooks(self) -> dict:
        return {"flow.run": self.on_run, "singular.scan": self.on_scan,
                "elliptic.extension": self.on_extension, "io.write": self.on_write}

    def on_run(self, args, kwargs, traj):
        self.runs += 1
        self.steps += len(traj.records) - 1
        self.snapshots += len(traj.snapshots)
        self.snapshot_bytes += sum(s.values.nbytes for s in traj.snapshots)
        sched = args[2] if len(args) > 2 else None
        self.last_run = (traj.snapshots[-1], traj.times[-1], args[1], sched)

    def on_scan(self, args, kwargs, rep):
        self.scan_points += rep.n_scanned
        self.flagged += len(rep.flagged)

    def on_extension(self, args, kwargs, ext):
        self.unknowns += ext.field.grid.n_interior * ext.field.ncomp
        self.residual = max(self.residual, ext.residual)

    def on_write(self, args, kwargs, result):
        stack = self.tracer.stack
        if stack and stack[-1][2] == "io.write":
            return              # write_json inside write_snapshot: counted there
        base = Path(args[0])
        paths = ([base.with_suffix(".f64"), base.with_suffix(".json")]
                 if base.suffix not in (".csv", ".json") else [base])
        for p in paths:
            self.files_written += 1
            self.bytes_written += p.stat().st_size


def _probe_ms(fn, *args, reps: int = 5) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(samples)


def _probes(facts: Facts, tracer: tr.Tracer) -> dict:
    """Time single public step calls on the workload's own final field."""
    from sphereflow import flow
    out = {"flow.glhf_step_ms": 0.0, "flow.projected_step_ms": 0.0,
           "flow.max_norm_ms": 0.0}
    if facts.last_run is None:
        return out
    f, t, cfg, sched = facts.last_run
    if sched is None:
        sched = flow.PenaltySchedule(lam=1000.0)
    for name, attr, args in (("flow.glhf_step_ms", "glhf_step", (f, t, cfg, sched)),
                             ("flow.projected_step_ms", "projected_flow_step",
                              (f, t, cfg))):
        fn = getattr(flow, attr, None)
        if fn is None:
            tracer.missing.append(f"sphereflow.flow:{attr}")
        else:
            out[name] = _probe_ms(fn, *args)
    if hasattr(f, "max_norm"):
        out["flow.max_norm_ms"] = _probe_ms(f.max_norm, reps=20)
    else:
        tracer.missing.append("SphereField.max_norm")
    return out


def layer_metrics(t: tr.Tracer, facts: Facts, grid: dict, probes: dict,
                  rss_delta_mb: float) -> dict:
    o = t.outer_time
    run_s = o("flow.run")
    scan_s = o("singular.scan")
    ed_calls = t.count("diagnostics.energy_density")
    gsd_in_ed = t.count("field.gradient_squared_density", "diagnostics.energy_density")
    m = {
        "geometry.build_grid_s": o("geometry.build_grid"),
        "geometry.n_interior": grid["n_interior"],
        "geometry.field_bytes": grid["field_bytes"],
        "field.generate_s": o("field.generate"),
        "field.project_to_sphere_calls": t.count("field.project_to_sphere"),
        "field.project_to_sphere_s": o("field.project_to_sphere"),
        "field.dirichlet_energy_calls": t.count("field.dirichlet_energy"),
        "field.dirichlet_energy_s": o("field.dirichlet_energy"),
        "field.l2_distance_s": o("field.l2_distance"),
        "flow.run_s": run_s,
        "flow.runs": facts.runs,
        "flow.steps": facts.steps,
        "flow.step_ms": 1e3 * run_s / facts.steps if facts.steps else 0.0,
        "flow.node_steps_per_s": (facts.steps * grid["n_interior"] / run_s
                                  if run_s else 0.0),
        "flow.snapshots": facts.snapshots,
        "flow.snapshot_mb": facts.snapshot_bytes / 1e6,
        **probes,
        "flow.penalty_integral_s": o("flow.penalty_integral"),
        "flow.l2q_distance_s": o("flow.l2q_distance"),
        "elliptic.extension_s": o("elliptic.extension"),
        "elliptic.unknowns": facts.unknowns,
        "elliptic.residual": facts.residual,
        "elliptic.rss_delta_mb": rss_delta_mb,
        "diagnostics.energy_density_calls": ed_calls,
        "diagnostics.density_cache_hit_ratio": (1.0 - gsd_in_ed / ed_calls
                                                if ed_calls else 0.0),
        "diagnostics.energy_report_s": o("diagnostics.energy_report"),
        "diagnostics.monotonicity_s": o("diagnostics.monotonicity"),
        "diagnostics.comparison_s": o("diagnostics.comparison"),
        "singular.scan_s": scan_s,
        "singular.scan_points": facts.scan_points,
        "singular.flagged": facts.flagged,
        "singular.us_per_point": (1e6 * scan_s / facts.scan_points
                                  if facts.scan_points else 0.0),
        "singular.box_count_s": o("singular.box_count"),
        "singular.cylinder_s": o("singular.cylinder"),
        "singular.certificate_s": o("singular.certificate"),
        "stereo.monitor_s": o("stereo.monitor"),
        "io.write_s": o("io.write"),
        "io.manifest_s": o("io.manifest"),
        "io.bytes_written": facts.bytes_written,
        "io.files_written": facts.files_written,
    }
    for layer, s in t.layer_self().items():
        m[f"{layer}.self_s"] = s
    for layer, n in t.errors().items():
        m[f"{layer}.errors"] = n
    m["trace.missing"] = len(t.missing)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "toy"))
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # nothing is imported here that sphereflow does not import itself, so
    # setup_s holds the program's own import cost only
    import sphereflow
    src = HERE.parent / "src"
    if not Path(sphereflow.__file__).resolve().is_relative_to(src.resolve()):
        print(f"sphereflow imported from {sphereflow.__file__}, not {src}",
              file=sys.stderr)
        return 2

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    workloads.write_inputs(inputs, work)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = tr.Tracer()
    facts = Facts(tracer)
    if args.trace:
        tracer.hooks = facts.hooks()
        tracer.install()
    out = work / "out"
    t0 = time.perf_counter()
    try:
        with tracer.span(tr.ROOT):
            result = workloads.run(inputs, work, out)
    except Exception as e:
        traceback.print_exc()
        result = {"exit_code": 1, "error": f"{type(e).__name__}: {e}"}
    wall = time.perf_counter() - t0
    peak = _maxrss_mb()
    tracer.uninstall()

    if "records" in result:
        # the regularity pipeline's own artifacts, written untimed
        out.mkdir(parents=True, exist_ok=True)
        rows = ["step,t,gl_energy,dirichlet_energy,penalty_increment,max_norm"]
        rows += [",".join(repr(x) for x in r) for r in result.pop("records")]
        (out / "trajectory.csv").write_text("\n".join(rows) + "\n")
        (out / "pipeline.json").write_text(
            json.dumps(result.pop("pipeline"), indent=1, sort_keys=True) + "\n")
    rss_delta_mb = result.pop("extension_rss_delta_kib", 0) * 1024 / 1e6

    grid = workloads.grid_facts(inputs)
    res = {"wall_s": wall, "peak_rss_mb": peak, "exit_code": result["exit_code"],
           "error": result.get("error"), "grid": grid,
           "versions": {"python": sys.version.split()[0],
                        **{m: _version(m) for m in ("numpy", "scipy")}}}
    if args.trace:
        probes = _probes(facts, tracer)
        res["layers"] = layer_metrics(tracer, facts, grid, probes, rss_delta_mb)
        with open(work / "spans.json", "w") as f:
            json.dump({"missing": tracer.missing, "spans": tracer.dump()}, f)
    with open(work / "result.json", "w") as f:
        json.dump(res, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
