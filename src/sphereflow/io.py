"""Artifact formats: binary snapshots with JSON sidecars, RFC-4180 CSV,
checksummed manifests.

Every writer hashes the bytes it writes and returns ``(sha256, bytes)`` of
the file, so a manifest is built from those digests without reading an
artifact back; it also holds the digest of the config file the run loaded,
which both commands pass.  The writers of a run make no directories: the
store makes ``snapshots/``, and the run its ``reports/``, once.

A snapshot holds rows, not a lattice: its ``.f64`` file is its interior
rows (``Grid.interior_flat`` order, little-endian float64, component
fastest) and a boundary-row file (``boundary_flat`` order) holds its
boundary rows; the JSON sidecar gives the interior rows' ``shape`` and
names the boundary file.  A run's ``SnapshotStore`` writes the flow's own
interior rows as the flow takes each snapshot, hands the flow a
``field.KeptSnapshot`` whose rows are a read-only map of the written file,
writes the run's boundary rows, which no step changes, to one file per
run (``boundary.bnd``, not a ``.f64``), and leaves the sidecars, which
hold no field data, to the end of the flow.  ``write_snapshot`` writes
one snapshot's three files on its own.  A sweep's projected reference
runs through a store whose files are removed when the run ends, and
reads its maps after that; no manifest lists those files, so that store
hashes none of them.  A snapshot of a domain with no config form (a
graph subdomain, whose ``phi`` is code) is refused before any file is
written, since its sidecar could not be read back.  ``read_rows`` reads
a snapshot as a kept snapshot (the ``custom-samples`` initial data of a
run), ``read_snapshot`` as a writable lattice field; a sidecar of the
lattice layout that earlier versions wrote is refused.  A kept
snapshot drops its map's pages after each read (``field.KeptSnapshot``).
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

from .field import KeptSnapshot, SphereField, _SnapshotMap, lattice_values
from .geometry import Domain, Grid, build_grid

# the suffix of a boundary-row file: not ``.f64``, so a run's ``snapshots/``
# holds one ``.f64`` file per snapshot
BOUNDARY_SUFFIX = ".bnd"


def fmt(x) -> str:
    """Shortest round-trip decimal for CSV cells."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _digest(data) -> tuple[str, int]:
    """The sha256 of the bytes of ``data`` and their count."""
    return hashlib.sha256(data).hexdigest(), memoryview(data).nbytes


def _write_bytes(path: Path, data) -> tuple[str, int]:
    """Write the bytes of ``data``, a bytes object or a C-contiguous array, to
    ``path``, whose directory exists, without copying them; return their
    ``_digest``."""
    with open(path, "wb") as fh:
        fh.write(data)
    return _digest(data)


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


def _f64(rows: np.ndarray) -> np.ndarray:
    """``rows`` as C-contiguous little-endian float64, the bytes of a
    snapshot file; no copy of a float64 array on a little-endian host."""
    return np.ascontiguousarray(rows, dtype="<f8")


def write_sidecar(path_base: Path, f: SphereField, t: float, step: int,
                  lam: Optional[float], exponent: Optional[float],
                  boundary: str) -> tuple[str, int]:
    """The snapshot's JSON sidecar; it reads only ``f``'s grid and component
    count.  ``shape`` is that of the interior rows in the ``.f64`` file and
    ``boundary`` names the file of the boundary rows, in the sidecar's
    directory.  Its ``tag`` is always ``"u"``, the flow field."""
    return write_json(path_base.with_suffix(".json"), {
        "grid": grid_spec(f.grid),
        "shape": [f.grid.n_interior, f.ncomp],
        "boundary": boundary,
        "D": f.ncomp - 1,
        "t": t,
        "step": step,
        "lambda": lam,
        "exponent": exponent,
        "tag": "u",
    })


def write_snapshot(path_base: Path, f: SphereField, t: float, step: int,
                   lam: Optional[float], exponent: Optional[float]) -> tuple:
    """One snapshot on its own: the ``.f64`` file of its interior rows, the
    ``.bnd`` file of its boundary rows and the sidecar, in ``path_base``'s
    directory, made if missing; returns their ``(sha256, bytes)`` in that
    order.  ValueError, with no file written, when ``f``'s grid has no spec
    (``grid_spec``)."""
    grid_spec(f.grid)
    path_base.parent.mkdir(parents=True, exist_ok=True)
    bnd = path_base.with_suffix(BOUNDARY_SUFFIX)
    return (_write_bytes(path_base.with_suffix(".f64"), _f64(f.interior_rows())),
            _write_bytes(bnd, _f64(f.boundary_rows())),
            write_sidecar(path_base, f, t, step, lam, exponent, bnd.name))


def map_budget() -> int:
    """How many snapshots a store maps: half the process's soft limit on open
    files, since each map holds a descriptor of its own until it is freed."""
    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    return soft // 2 if soft != resource.RLIM_INFINITY else 1 << 62


class SnapshotStore:
    """The snapshots of one run, in ``snap_dir``, as the flow takes them.

    ``take`` writes the flow's interior rows to the snapshot's ``.f64``
    file, records the digest of that buffer and returns a
    ``field.KeptSnapshot`` whose rows are a read-only map of the file,
    made from the descriptor just written, which the trajectory holds in
    place of a copy.  The first ``take`` also writes the run's boundary
    rows, which no step writes, to ``boundary`` (``boundary.bnd``, one file
    per run), and every snapshot of the store shares them in memory.  Past
    ``map_budget()`` maps the snapshot's rows are a copy instead, so memory
    grows by one interior-row array per snapshot past the budget; the files
    are the same.  A field whose grid has no spec (``grid_spec``) raises
    ValueError before any file is written.
    ``bases`` are the snapshots' paths without suffix, in order, and
    ``digests`` maps each written file to its ``(sha256, bytes)``.  A store
    made with ``digest=False`` (a sweep's projected reference, whose files
    no manifest lists) hashes nothing and leaves ``digests`` empty.
    """

    def __init__(self, snap_dir: Path, digest: bool = True):
        self.dir = snap_dir
        self.bases: list = []
        self.digests: dict = {}
        self.boundary = snap_dir / ("boundary" + BOUNDARY_SUFFIX)
        self._digest = digest
        self._budget = map_budget()
        self._boundary_rows = None      # shared by the snapshots
        snap_dir.mkdir(parents=True, exist_ok=True)

    def _write(self, path: Path, data: np.ndarray, mapped: bool = False):
        """Write ``data`` to ``path`` and record its digest; with ``mapped``
        return a read-only map of the file, made from the descriptor just
        written, with no second open."""
        with open(path, "wb+" if mapped else "wb") as fh:
            fh.write(data)
            fh.flush()
            mm = _SnapshotMap(fh.fileno(), 0, access=mmap.ACCESS_READ) if mapped else None
        if self._digest:
            self.digests[path] = _digest(data)
        return mm

    def take(self, u: SphereField, rows: np.ndarray) -> KeptSnapshot:
        """The snapshot of ``u``, whose interior rows are ``rows`` (the flow's
        own array, which is not kept)."""
        grid_spec(u.grid)               # a grid with no spec writes no file
        data = _f64(rows)
        if self._boundary_rows is None:
            bnd = _f64(u.boundary_rows())
            self._write(self.boundary, bnd)
            bnd.flags.writeable = False
            self._boundary_rows = bnd
        base = self.dir / f"snap_{len(self.bases):06d}"
        self.bases.append(base)
        mapped = len(self.bases) <= self._budget
        mm = self._write(base.with_suffix(".f64"), data, mapped)
        kept = np.ndarray(data.shape, dtype="<f8", buffer=mm) if mapped else data.copy()
        return KeptSnapshot(u.grid, kept, self._boundary_rows)

    def remove(self) -> None:
        """Delete the files this store wrote, and its directory if that leaves
        it empty; files of an earlier run stay."""
        for base in self.bases:
            base.with_suffix(".f64").unlink(missing_ok=True)
        if self._boundary_rows is not None:
            self.boundary.unlink(missing_ok=True)
        try:
            self.dir.rmdir()
        except OSError:                 # not empty: an earlier run's files
            pass


def _sidecar(path_base: Path) -> tuple[dict, Path]:
    """The snapshot's sidecar and the path of its boundary-row file.
    ValueError on a sidecar of the lattice layout (no ``boundary`` file,
    the lattice shape) and on a boundary file name that leaves the
    sidecar's directory."""
    with open(path_base.with_suffix(".json")) as fh:
        sidecar = json.load(fh)
    name = sidecar.get("boundary")
    if name is None:
        raise ValueError(f"snapshot {str(path_base)!r} holds a whole lattice of shape "
                         f"{sidecar.get('shape')}; snapshots hold interior rows and a "
                         f"boundary-row file: rerun the flow that wrote it")
    if not isinstance(name, str) or Path(name).name != name:
        raise ValueError(f"snapshot {str(path_base)!r} names boundary file {name!r}, "
                         f"not a file of its directory")
    return sidecar, path_base.parent / name


def check_snapshot(path_base: Path, grid: Grid, D: int):
    """Raise ValueError unless the snapshot's sidecar is readable and
    declares ``grid``'s spec, target dimension ``D`` and the shape of the
    grid's interior rows, and its ``.f64`` and boundary files hold that
    many interior and boundary rows of float64s.  A snapshot of the
    lattice layout is refused (``_sidecar``)."""
    shape = (grid.n_interior, D + 1)
    need = (8 * shape[0] * shape[1], 8 * grid.boundary_flat.size * shape[1])
    try:
        sidecar, bnd = _sidecar(path_base)
        found = (sidecar["grid"], sidecar["D"], tuple(sidecar["shape"]))
        nbytes = (path_base.with_suffix(".f64").stat().st_size, bnd.stat().st_size)
    except (AttributeError, OSError, KeyError, TypeError, ValueError) as e:
        raise ValueError(f"unreadable snapshot {str(path_base)!r}: {e}") from e
    if found != (grid_spec(grid), D, shape) or nbytes != need:
        raise ValueError(f"snapshot {str(path_base)!r} holds grid {found[0]}, D = "
                         f"{found[1]!r} and interior rows of shape {found[2]}, in "
                         f"{nbytes[0]} + {nbytes[1]} bytes with its boundary rows; this "
                         f"run needs grid {grid_spec(grid)}, D = {D} and shape {shape} in "
                         f"{need[0]} + {need[1]}")


def read_rows(path_base: Path, grid: Optional[Grid] = None) -> tuple[KeptSnapshot, dict]:
    """The snapshot at ``path_base`` as a ``field.KeptSnapshot`` of the rows
    in its two files, with no lattice, and its sidecar.  The field lives on
    ``grid``, which must be the sidecar's (``check_snapshot``), or on the
    grid the sidecar specifies.  ValueError as ``_sidecar`` raises it, and
    on files that do not hold the rows the sidecar declares."""
    sidecar, bnd = _sidecar(path_base)
    if grid is None:
        grid = build_grid(Domain.from_config(sidecar["grid"]["domain"]), sidecar["grid"]["h"])
    ncomp = sidecar["D"] + 1
    rows = np.fromfile(path_base.with_suffix(".f64"), dtype="<f8")
    brows = np.fromfile(bnd, dtype="<f8")
    return KeptSnapshot(grid, rows.reshape(grid.n_interior, ncomp),
                        brows.reshape(grid.boundary_flat.size, ncomp)), sidecar


def read_snapshot(path_base: Path) -> tuple[SphereField, dict]:
    """The snapshot at ``path_base`` as a writable lattice field on the grid
    its sidecar specifies, exterior rows zero, and its sidecar."""
    kept, sidecar = read_rows(path_base)
    return SphereField(kept.grid, lattice_values(kept.grid, *kept.hand_over())), sidecar


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
