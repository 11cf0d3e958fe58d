"""Artifact formats: binary snapshots with JSON sidecars, RFC-4180 CSV,
checksummed manifests."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Optional

import numpy as np

from .field import SphereField
from .geometry import Domain, Grid, build_grid


def fmt(x) -> str:
    """Shortest round-trip decimal for CSV cells."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)          # RFC-4180: comma, CRLF, quoting as needed
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(x) for x in row])


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def write_json(path: Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True, default=_json_default)
        f.write("\n")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def grid_spec(grid: Grid) -> dict:
    return {"domain": grid.domain.to_config(), "h": grid.h}


def write_snapshot(path_base: Path, f: SphereField, t: float, step: int,
                   lam: Optional[float], exponent: Optional[float]):
    """Node-major, component-major little-endian float64 plus JSON sidecar;
    the sidecar's ``tag`` is always ``"u"``, the flow field."""
    path_base.parent.mkdir(parents=True, exist_ok=True)
    data = np.ascontiguousarray(f.values, dtype="<f8")
    with open(path_base.with_suffix(".f64"), "wb") as fh:
        fh.write(data.tobytes())
    sidecar = {
        "grid": grid_spec(f.grid),
        "shape": list(f.values.shape),
        "D": f.target_dim,
        "t": t,
        "step": step,
        "lambda": lam,
        "exponent": exponent,
        "tag": "u",
    }
    write_json(path_base.with_suffix(".json"), sidecar)


def check_snapshot(path_base: Path, shape: tuple):
    """Raise ValueError unless the snapshot's sidecar is readable and
    declares ``shape``, and its ``.f64`` file holds that many float64s."""
    try:
        with open(path_base.with_suffix(".json")) as fh:
            found = tuple(json.load(fh)["shape"])
        nbytes = path_base.with_suffix(".f64").stat().st_size
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise ValueError(f"unreadable snapshot {str(path_base)!r}: {e}") from e
    need = 8 * int(np.prod(shape))
    if found != tuple(shape) or nbytes != need:
        raise ValueError(f"snapshot {str(path_base)!r} has shape {found} in {nbytes} "
                         f"bytes; this grid needs shape {shape} in {need}")


def read_snapshot(path_base: Path) -> tuple[SphereField, dict]:
    with open(path_base.with_suffix(".json")) as fh:
        sidecar = json.load(fh)
    domain = Domain.from_config(sidecar["grid"]["domain"])
    grid = build_grid(domain, sidecar["grid"]["h"])
    shape = tuple(sidecar["shape"])
    raw = np.fromfile(path_base.with_suffix(".f64"), dtype="<f8")
    values = raw.reshape(shape).astype(np.float64)
    f = SphereField(grid=grid, values=values, target_dim=sidecar["D"])
    return f, sidecar


def build_manifest(out_dir: Path, config_path: Optional[Path] = None) -> dict:
    """Checksum every artifact below out_dir; the manifest itself is excluded."""
    files = []
    for p in sorted(out_dir.rglob("*")):
        if p.is_dir() or p.name == "manifest.json":
            continue
        files.append({
            "path": p.relative_to(out_dir).as_posix(),
            "sha256": sha256_file(p),
            "bytes": p.stat().st_size,
        })
    manifest = {"files": files}
    if config_path is not None and config_path.exists():
        manifest["config_sha256"] = sha256_file(config_path)
    return manifest
