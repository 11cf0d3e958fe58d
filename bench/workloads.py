"""Benchmark workloads: inputs generated from a seed, and the timed call.

Sizes are fixed per workload.  The seed moves probe points and lambda
values only, so the frozen reference scalars in ``references.json`` hold for
every seed.  ``toy`` sizes exercise the same code paths in seconds, for the
benchmark's self-test.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("hedgehog3d-flow", "cap2d-diagnostics", "hedgehog3d-regularity",
             "cap2d-lambda-sweep")

# lambda values the sweep draws three of; each has a frozen reference row
LAMBDA_POOL = (100.0, 300.0, 1000.0, 3000.0, 10000.0, 30000.0)

SIZES = {
    "hedgehog3d-flow": {
        "full": {"h": 1 / 32, "steps": 100, "stride": 10},
        "toy": {"h": 1 / 8, "steps": 12, "stride": 3}},
    "cap2d-diagnostics": {
        "full": {"h": 1 / 32, "cylinders": 50, "radii": [1 / 16, 1 / 8, 1 / 4]},
        "toy": {"h": 1 / 8, "cylinders": 4, "radii": [0.25, 0.5, 0.75]}},
    "hedgehog3d-regularity": {
        "full": {"h": 1 / 16, "space_stride": 4, "radii": [0.125, 0.25, 0.5]},
        "toy": {"h": 1 / 8, "space_stride": 2, "radii": [0.25, 0.5, 0.75]}},
    "cap2d-lambda-sweep": {
        "full": {"h": 1 / 64, "T": 1 / 128, "stride": 8, "R": 0.125},
        "toy": {"h": 1 / 8, "T": 1 / 16, "stride": 4, "R": 0.25}},
}


def _auto_dt(h: float, d: int) -> float:
    return 0.9 * h * h / (2.0 * d)


def n_steps(T: float, h: float, d: int) -> int:
    """Step count of a run with dt = auto, as ``flow._run`` computes it."""
    return int(math.ceil(T / _auto_dt(h, d) - 1e-9))


def _point(rng: random.Random, d: int, radius: float) -> list:
    while True:
        x = [rng.uniform(-radius, radius) for _ in range(d)]
        if sum(c * c for c in x) <= radius * radius:
            return x


def _cap_disc(h: float, T: float, stride: int) -> dict:
    return {"domain": {"kind": "unit-ball", "d": 2}, "h": h, "D": 2,
            "initial": {"kind": "cap", "latitude_deg": 60.0},
            "solver": {"mode": "glhf-simplified", "lambda": 1000.0, "T": T,
                       "dt": "auto", "cfl": 0.9, "output_stride": stride}}


def make_inputs(workload: str, seed: int, size: str) -> dict:
    """Everything the program receives for one run, as JSON-able data."""
    rng = random.Random(f"{workload}/{seed}")
    s = SIZES[workload][size]

    if workload == "hedgehog3d-flow":
        # T a quarter step short of a whole step count, so ceil() is exact
        T = (s["steps"] - 0.25) * _auto_dt(s["h"], 3)
        return {"kind": "run", "config": {
            "domain": {"kind": "unit-ball", "d": 3}, "h": s["h"], "D": 2,
            "initial": {"kind": "equator-hedgehog"},
            "solver": {"mode": "glhf-simplified", "lambda": 1000.0, "T": T,
                       "dt": "auto", "cfl": 0.9, "output_stride": s["stride"]},
            "diagnostics": {"cylinders": [
                {"t0": rng.uniform(0.25, 0.75) * T, "x0": _point(rng, 3, 0.5),
                 "R": 0.25, "mode": "dirichlet"}]}}}

    if workload == "cap2d-diagnostics":
        cfg = _cap_disc(s["h"], 0.25, 4)
        cfg["diagnostics"] = {
            "cylinders": [{"t0": rng.uniform(0.02, 0.23), "x0": _point(rng, 2, 0.6),
                           "R": rng.choice(s["radii"]),
                           "mode": rng.choice(["gl", "dirichlet"])}
                          for _ in range(s["cylinders"])],
            "monotonicity": {"t0": 0.2, "x0": _point(rng, 2, 0.3),
                             "pairs": [[0.07, 0.14], [0.07, 0.2], [0.1, 0.2]],
                             "mode": "gradient", "rhs_form": "difference"},
            # eps0 is above every scaled energy of the cap run: nothing is
            # flagged and each scan point stops at its first radius
            "singular": {"eps0": 1.0, "radii": s["radii"], "time_stride": 4,
                         "space_stride": 1, "mode": "gl"},
            "one_sided": True,
            "small_energy": {"t0": 0.125, "x0": [0.0, 0.0],
                             "radii": [0.5, 0.25, 0.125], "eps0": 1.0}}
        return {"kind": "run", "config": cfg}

    if workload == "hedgehog3d-regularity":
        return {"kind": "regularity", "h": s["h"], "T": 0.125, "stride": 5,
                "radii": s["radii"], "space_stride": s["space_stride"],
                "cylinders": [{"t0": rng.uniform(0.03, 0.1), "x0": _point(rng, 3, 0.4),
                               "R": 0.125} for _ in range(3)]}

    if workload == "cap2d-lambda-sweep":
        cfg = _cap_disc(s["h"], s["T"], s["stride"])
        cfg["diagnostics"] = {"mbar_probe": {"R": s["R"], "mode": "dirichlet"}}
        return {"kind": "sweep", "config": cfg,
                "values": sorted(rng.sample(LAMBDA_POOL, 3))}

    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(inputs: dict, work: Path):
    """``inputs.json`` for the checks; ``config.json`` is what the CLI reads."""
    with open(work / "inputs.json", "w") as f:
        json.dump(inputs, f, indent=1, sort_keys=True)
    if "config" in inputs:
        with open(work / "config.json", "w") as f:
            json.dump(inputs["config"], f, indent=2, sort_keys=True)


def grid_facts(inputs: dict) -> dict:
    """Input-size record: interior nodes, field bytes and step count."""
    from sphereflow import geometry
    cfg = inputs.get("config") or {"domain": {"kind": "unit-ball", "d": 3},
                                   "h": inputs["h"], "D": 2,
                                   "solver": {"T": inputs["T"]}}
    grid = geometry.build_grid(geometry.Domain.from_config(cfg["domain"]), cfg["h"])
    ncomp = cfg["D"] + 1
    return {"n_interior": int(grid.n_interior), "n_lattice": grid.n_lattice,
            "d": grid.d, "ncomp": ncomp,
            "field_bytes": grid.n_lattice * ncomp * 8,
            "steps_per_run": n_steps(cfg["solver"]["T"], cfg["h"], grid.d)}


def run(inputs: dict, work: Path, out: Path) -> dict:
    """The timed section.  Calls go through module attributes so that the
    tracer's wrappers are the ones called."""
    from sphereflow import cli
    if inputs["kind"] == "run":
        return {"exit_code": cli.run_experiment(work / "config.json", out, threads=1)}
    if inputs["kind"] == "sweep":
        return {"exit_code": cli.sweep(work / "config.json", "lambda",
                                       inputs["values"], out, threads=1)}
    return _regularity(inputs)


def _regularity(p: dict) -> dict:
    import resource

    import numpy as np
    from sphereflow import diagnostics, elliptic, field, flow, geometry, singular

    grid = geometry.build_grid(geometry.Domain.unit_ball(3), p["h"])
    u0 = field.generate(field.InitialData(kind="equator-hedgehog"), grid, 2)
    cfg = flow.SolverConfig(dt=flow.SolverConfig.auto_dt(grid), T=p["T"],
                            output_stride=p["stride"])
    traj = flow.run_projected(u0, cfg)
    scan = singular.detect_singular_set(traj, singular.SingularConfig(
        eps0=1.0, radii=p["radii"], time_stride=1, space_stride=p["space_stride"]))
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ext = elliptic.solve_harmonic_extension(grid, u0, method="direct")
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    comparisons = []
    for c in p["cylinders"]:
        cyl = diagnostics.CylinderSpec(t0=c["t0"], x0=np.asarray(c["x0"]), R=c["R"])
        lhs, rhs = diagnostics.reverse_poincare_ratio(traj, ext, cyl)
        inner, outer, data = diagnostics.hybrid_report(traj, ext, cyl, eps0=0.5)
        comparisons.append({"lhs": lhs, "rhs": rhs, "inner": inner,
                            "outer": outer, "data": data})
    return {
        "exit_code": 0,
        "records": [[r.step, r.t, r.gl_energy, r.dirichlet_energy,
                     r.penalty_increment, r.max_norm] for r in traj.records],
        "pipeline": {
            "snapshots": len(traj.snapshots),
            "singular": {"n_scanned": scan.n_scanned, "flagged": len(scan.flagged),
                         "dimension": scan.dimension_estimate,
                         "box_table": [[d, n] for d, n in scan.box_table]},
            "extension_residual": ext.residual,
            "comparisons": comparisons},
        "extension_rss_delta_kib": rss_after - rss_before}
