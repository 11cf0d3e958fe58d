"""Artifact formats: binary snapshots with JSON sidecars, RFC-4180 CSV,
checksummed manifests.

Every writer hashes the bytes it writes and returns ``(sha256, bytes)`` of
the file, so a manifest is built from those digests without reading an
artifact back; it also holds the digest of the config file the run loaded,
which both commands pass.  A snapshot is two files, written by two
writers: the ``.f64`` data, straight from the field's buffer, and its JSON
sidecar.  ``write_snapshot`` is the two in turn; a run's ``SnapshotStore``
writes the data as the flow takes each snapshot, hands the flow a
read-only map of the written file in its place, and leaves the sidecars,
which hold no field data, to the end of the flow; a sweep's projected
reference runs through a store whose files are removed when the run ends,
and reads its maps after that; no manifest lists those files, so that
store hashes none of them.  A snapshot of a domain with no config
form (a graph subdomain, whose ``phi`` is code) is refused before either
file is written, since its sidecar could not be read back.

A map's pages are released after each read: a diagnostic that has read a
snapshot calls ``field.release_pages``, which drops the map's page-table
entries.  The data stays in the page cache, so a later read re-faults it
without disk I/O, but the pages no longer count in the process's resident
set, which on kernels that map whole large page-cache folios would
otherwise grow by whole 2 MiB folios for a few rows read.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import mmap
import resource
from pathlib import Path
from typing import Optional

import numpy as np

from .field import KeptSnapshot, SphereField, _SnapshotMap
from .geometry import Domain, Grid, build_grid


def fmt(x) -> str:
    """Shortest round-trip decimal for CSV cells."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_bytes(path: Path, data, digest: bool = True) -> tuple[Optional[str], int]:
    """Write the bytes of ``data``, a bytes object or a C-contiguous array, to
    ``path`` without copying them; return their sha256 (None unless
    ``digest``) and their count."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest() if digest else None, memoryview(data).nbytes


def write_csv(path: Path, header, rows) -> tuple[str, int]:
    buf = io.StringIO(newline="")
    w = csv.writer(buf)            # RFC-4180: comma, CRLF, quoting as needed
    w.writerow(header)
    for row in rows:
        w.writerow([fmt(x) for x in row])
    return _write_bytes(path, buf.getvalue().encode())


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def write_json(path: Path, obj) -> tuple[str, int]:
    text = json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"
    return _write_bytes(path, text.encode())


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def grid_spec(grid: Grid) -> dict:
    """The sidecar's ``grid``: the domain's config and h.  ValueError for a
    domain with no config form (``Domain.to_config``)."""
    return {"domain": grid.domain.to_config(), "h": grid.h}


def write_snapshot_data(path_base: Path, f: SphereField,
                        digest: bool = True) -> tuple[Optional[str], int]:
    """The snapshot's ``.f64`` file: node-major, component-major
    little-endian float64, written from the field's own buffer; returns
    ``(sha256, bytes)``, the digest None unless ``digest``."""
    return _write_bytes(path_base.with_suffix(".f64"),
                        np.ascontiguousarray(f.values, dtype="<f8"), digest)


def write_sidecar(path_base: Path, f: SphereField, t: float, step: int,
                  lam: Optional[float], exponent: Optional[float]) -> tuple[str, int]:
    """The snapshot's JSON sidecar; it reads only ``f``'s grid and shape.  Its
    ``tag`` is always ``"u"``, the flow field."""
    return write_json(path_base.with_suffix(".json"), {
        "grid": grid_spec(f.grid),
        "shape": list(f.values.shape),
        "D": f.ncomp - 1,
        "t": t,
        "step": step,
        "lambda": lam,
        "exponent": exponent,
        "tag": "u",
    })


def write_snapshot(path_base: Path, f: SphereField, t: float, step: int,
                   lam: Optional[float], exponent: Optional[float]) -> tuple:
    """The data file and the sidecar of a snapshot; returns their
    ``(sha256, bytes)`` in that order.  ValueError, with neither file
    written, when ``f``'s grid has no spec (``grid_spec``)."""
    grid_spec(f.grid)
    return (write_snapshot_data(path_base, f),
            write_sidecar(path_base, f, t, step, lam, exponent))


def map_snapshot(path: Path, f: SphereField) -> SphereField:
    """A field on ``f``'s grid whose values are a read-only map of the
    ``.f64`` file at ``path``, which holds ``f``'s values; the map is the
    values' ``base``, a ``field._SnapshotMap``."""
    with open(path, "rb") as fh:
        mm = _SnapshotMap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    return SphereField(f.grid, np.ndarray(f.values.shape, dtype="<f8", buffer=mm))


def map_budget() -> int:
    """How many snapshots a store maps: half the process's soft limit on open
    files, since each map holds a descriptor of its own until it is freed."""
    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    return soft // 2 if soft != resource.RLIM_INFINITY else 1 << 62


class SnapshotStore:
    """The snapshots of one run, in ``snap_dir``, as the flow takes them.

    ``take`` writes the ``.f64`` file of the flow's field, records its digest
    and returns a read-only map of the file, which the trajectory holds in
    place of a copy.  Past ``map_budget()`` maps it returns the field itself
    for the last snapshot and a ``field.KeptSnapshot`` otherwise: the
    field's interior rows, with one array of its boundary rows (gathered at
    the first such snapshot, since no step writes a boundary row) shared by
    every kept snapshot of the store, so memory grows by one interior-row
    array per snapshot past the budget.
    A field whose grid has no spec (``grid_spec``) raises ValueError before
    any file is written.
    ``bases`` are the snapshots' paths without suffix, in order, and
    ``digests`` maps each written file to its ``(sha256, bytes)``.  A store
    made with ``digest=False`` (a sweep's projected reference, whose files
    no manifest lists) hashes nothing and leaves ``digests`` empty.
    """

    def __init__(self, snap_dir: Path, digest: bool = True):
        self.dir = snap_dir
        self.bases: list = []
        self.digests: dict = {}
        self._digest = digest
        self._budget = map_budget()
        self._boundary_rows = None      # shared by the kept snapshots
        snap_dir.mkdir(parents=True, exist_ok=True)

    def take(self, u: SphereField, last: bool) -> SphereField:
        grid_spec(u.grid)               # a grid with no spec writes no file
        base = self.dir / f"snap_{len(self.bases):06d}"
        path = base.with_suffix(".f64")
        self.bases.append(base)
        written = write_snapshot_data(base, u, self._digest)
        if self._digest:
            self.digests[path] = written
        if len(self.bases) <= self._budget:
            return map_snapshot(path, u)
        if last:
            return u
        if self._boundary_rows is None:
            self._boundary_rows = np.take(u.flat(), u.grid.boundary_flat, axis=0)
        return KeptSnapshot(u.grid, u.interior_rows(), self._boundary_rows)

    def remove(self) -> None:
        """Delete the files this store wrote, and its directory if that leaves
        it empty; files of an earlier run stay."""
        for base in self.bases:
            base.with_suffix(".f64").unlink(missing_ok=True)
        try:
            self.dir.rmdir()
        except OSError:                 # not empty: an earlier run's files
            pass


def check_snapshot(path_base: Path, grid: Grid, D: int):
    """Raise ValueError unless the snapshot's sidecar is readable and
    declares ``grid``'s spec, target dimension ``D`` and the lattice shape
    they give, and its ``.f64`` file holds that many float64s."""
    shape = grid.shape + (D + 1,)
    try:
        with open(path_base.with_suffix(".json")) as fh:
            sidecar = json.load(fh)
        found = (sidecar["grid"], sidecar["D"], tuple(sidecar["shape"]))
        nbytes = path_base.with_suffix(".f64").stat().st_size
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise ValueError(f"unreadable snapshot {str(path_base)!r}: {e}") from e
    need = 8 * int(np.prod(shape))
    if found != (grid_spec(grid), D, shape) or nbytes != need:
        raise ValueError(f"snapshot {str(path_base)!r} holds grid {found[0]}, D = "
                         f"{found[1]!r} and shape {found[2]} in {nbytes} bytes; this run "
                         f"needs grid {grid_spec(grid)}, D = {D} and shape {shape} in {need}")


def read_snapshot(path_base: Path) -> tuple[SphereField, dict]:
    with open(path_base.with_suffix(".json")) as fh:
        sidecar = json.load(fh)
    domain = Domain.from_config(sidecar["grid"]["domain"])
    grid = build_grid(domain, sidecar["grid"]["h"])
    shape = tuple(sidecar["shape"])
    raw = np.fromfile(path_base.with_suffix(".f64"), dtype="<f8")
    values = raw.reshape(shape).astype(np.float64, copy=False)
    f = SphereField(grid=grid, values=values)
    return f, sidecar


def build_manifest(out_dir: Path, digests: dict, config_sha256: str) -> dict:
    """List every file below out_dir, the manifest itself excluded, with
    its ``(sha256, bytes)`` from ``digests``, the writers' returns keyed by
    path, and the digest ``config_sha256`` of the config the run loaded.  A
    file the run did not write (left by an earlier run in the same
    directory) is read and hashed."""
    files = []
    for p in sorted(out_dir.rglob("*")):
        if p.is_dir() or p.name == "manifest.json":
            continue
        sha, nbytes = digests[p] if p in digests else (sha256_file(p), p.stat().st_size)
        files.append({"path": p.relative_to(out_dir).as_posix(),
                      "sha256": sha, "bytes": nbytes})
    return {"files": files, "config_sha256": config_sha256}
