"""Correctness checks on one repetition's artifacts.

Three kinds, each counted as one attempted check:

* invariants every run must satisfy whatever the seed (exit code 0, the
  expected artifacts, ``max_norm <= 1 + 1e-12``, finite records, report
  sanity such as ``inner <= outer``);
* frozen reference scalars from ``references.json``, within ``REL``/``ABS``
  (the seed never moves them: it only moves probe points and picks lambda
  values out of a pool that has one reference row per value);
* byte identity of the deterministic outputs across repetitions.

Standard library only, so the parent process never imports the program.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REL, ABS = 1e-9, 1e-12
NORM_BOUND = 1.0 + 1e-12
RESIDUAL_BOUND = 1e-9

RUN_ARTIFACTS = ["config.json", "trajectory.csv", "manifest.json",
                 "reports/energy.json", "reports/cylinders.csv"]
DIAGNOSTIC_ARTIFACTS = ["reports/monotonicity.json", "reports/singular.json",
                        "reports/boxcount.csv", "reports/onesided.json",
                        "reports/wtrack.csv", "reports/certificate.json"]


class Checks:
    def __init__(self):
        self.results = []                # (name, ok)

    def add(self, name: str, ok) -> bool:
        self.results.append((name, bool(ok)))
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> list:
        return [name for name, ok in self.results if not ok]


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def _rows(path: Path) -> list:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _load(path: Path):
    with open(path) as f:
        return json.load(f)


def _trajectory(out: Path, chk: Checks) -> dict:
    rows = _rows(out / "trajectory.csv")[1:]
    vals = [[float(x) for x in r] for r in rows]
    chk.add("trajectory finite", all(_finite(*r) for r in vals))
    chk.add("trajectory max_norm <= 1 + 1e-12",
            all(r[5] <= NORM_BOUND for r in vals))
    return {"steps": len(vals) - 1, "final_gl_energy": vals[-1][2],
            "final_dirichlet_energy": vals[-1][3],
            "penalty_integral": math.fsum(r[4] for r in vals)}


def _manifest_complete(out: Path) -> bool:
    listed = {f["path"] for f in _load(out / "manifest.json")["files"]}
    on_disk = {p.relative_to(out).as_posix() for p in out.rglob("*")
               if p.is_file() and p.name != "manifest.json"}
    return listed == on_disk


def _run_scalars(inputs: dict, out: Path, chk: Checks, diagnostics: bool) -> dict:
    expected = RUN_ARTIFACTS + (DIAGNOSTIC_ARTIFACTS if diagnostics else [])
    if not chk.add("artifacts present", all((out / p).is_file() for p in expected)):
        return {}
    chk.add("manifest lists every artifact", _manifest_complete(out))
    got = _trajectory(out, chk)
    got["snapshots"] = len(list((out / "snapshots").glob("*.f64")))
    energy = _load(out / "reports/energy.json")
    for k in ("gl_energy", "dirichlet_part", "penalty_part"):
        got[f"energy.{k}"] = energy[k]

    cyl = [float(r[-1]) for r in _rows(out / "reports/cylinders.csv")[1:]]
    chk.add("cylinders: one finite non-negative value per cylinder",
            len(cyl) == len(inputs["config"]["diagnostics"]["cylinders"])
            and all(_finite(v) and v >= 0.0 for v in cyl))
    if not diagnostics:
        return got

    pairs = _load(out / "reports/monotonicity.json")["pairs"]
    chk.add("monotonicity: finite terms, non-negative defect",
            len(pairs) == 3 and all(
                _finite(p["annulus_energy_inner"], p["speed_term"],
                        p["outer_energy"], p["defect"]) and p["defect"] >= 0.0
                for p in pairs))
    sing = _load(out / "reports/singular.json")
    got["singular.n_scanned"] = sing["n_scanned"]
    got["singular.flagged"] = len(sing["flagged"])
    got["onesided.passed"] = _load(out / "reports/onesided.json")["passed"]
    cert = _load(out / "reports/certificate.json")
    got["certificate.all_pass"] = cert["all_pass"]
    for row in cert["table"]:
        got[f"certificate.integral[r={row['r']:g}]"] = row["integral"]
    return got


def _regularity_scalars(out: Path, chk: Checks) -> dict:
    if not chk.add("artifacts present", all((out / p).is_file() for p in
                                            ("trajectory.csv", "pipeline.json"))):
        return {}
    got = _trajectory(out, chk)
    p = _load(out / "pipeline.json")
    got["snapshots"] = p["snapshots"]
    s = p["singular"]
    got["singular.n_scanned"] = s["n_scanned"]
    got["singular.flagged"] = s["flagged"]
    got["singular.dimension"] = s["dimension"]
    for delta, n in s["box_table"]:
        got[f"singular.box_count[delta={delta:g}]"] = n
    chk.add(f"extension residual <= {RESIDUAL_BOUND:g}",
            _finite(p["extension_residual"])
            and p["extension_residual"] <= RESIDUAL_BOUND)
    chk.add("comparisons: finite, non-negative, inner <= outer",
            len(p["comparisons"]) == 3 and all(
                _finite(*c.values()) and min(c.values()) >= 0.0
                and c["inner"] <= c["outer"] * (1 + REL)
                for c in p["comparisons"]))
    return got


def _sweep_scalars(inputs: dict, out: Path, chk: Checks) -> dict:
    if not chk.add("artifacts present", all((out / p).is_file() for p in
                                            ("sweep.csv", "manifest.json"))):
        return {}
    chk.add("manifest lists every artifact", _manifest_complete(out))
    rows = _rows(out / "sweep.csv")
    header, body = rows[0], [[float(x) for x in r] for r in rows[1:]]
    chk.add("sweep: one finite row per lambda value",
            [r[0] for r in body] == inputs["values"]
            and all(_finite(*r) for r in body))
    return {f"lambda={r[0]:g}.{col}": v for r in body
            for col, v in zip(header[1:], r[1:])}


def scalars(workload: str, inputs: dict, result: dict, out: Path,
            chk: Checks) -> dict:
    """Run the invariant checks of one repetition and return its reference
    scalars; ``freeze.py`` stores exactly these."""
    error = f" ({result['error']})" if result.get("error") else ""
    if not chk.add(f"exit code 0{error}", result.get("exit_code") == 0):
        return {}
    if workload == "hedgehog3d-regularity":
        return _regularity_scalars(out, chk)
    if workload == "cap2d-lambda-sweep":
        return _sweep_scalars(inputs, out, chk)
    return _run_scalars(inputs, out, chk, workload == "cap2d-diagnostics")


def check_rep(workload: str, inputs: dict, result: dict, out: Path,
              refs: dict, chk: Checks) -> None:
    """Invariant and frozen-reference checks of one repetition."""
    for key, value in scalars(workload, inputs, result, out, chk).items():
        chk.add(f"reference {key}", key in refs and _close(value, refs[key]))


def _close(value, ref) -> bool:
    if isinstance(ref, float) and isinstance(value, (int, float)):
        return abs(value - ref) <= max(ABS, REL * abs(ref))
    return value == ref


def output_digests(out: Path) -> dict:
    """sha256 of every deterministic output: CSV files and the pipeline report."""
    files = sorted(out.rglob("*.csv")) + sorted(out.glob("pipeline.json"))
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files}
