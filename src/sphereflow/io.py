"""Artifact formats: binary snapshots listed in a JSON index, RFC-4180
CSV, checksummed manifests.

Every writer hashes the bytes it writes and returns ``(sha256, bytes)`` of
the file, so a manifest is built from those digests without reading an
artifact back; it also holds the digest of the config file the run loaded,
which both commands pass.  The writers of a run make no directories: the
store makes ``snapshots/``, and the run its ``reports/``, once.

A snapshot holds rows, not a lattice: its ``.f64`` file is its interior
rows (``Grid.interior_flat`` order, little-endian float64, component
fastest), a boundary-row file (``boundary_flat`` order) its boundary
rows, and the ``index.json`` of its directory holds the grid spec,
``shape``, ``D`` and ``tag`` once and an entry per snapshot name.  A
run's ``SnapshotStore`` writes the rows as the flow takes each snapshot
and the index once the flow ends; ``write_snapshot`` writes one snapshot.
A snapshot its directory's index does not list is refused (earlier
versions wrote a sidecar per snapshot).
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
# the file, in a snapshot's directory, that lists its snapshots
INDEX = "index.json"


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
    """An index's ``grid``: the domain's config and h.  ValueError for a
    domain with no config form (``Domain.to_config``)."""
    return {"domain": grid.domain.to_config(), "h": grid.h}


def _f64(rows: np.ndarray) -> np.ndarray:
    """``rows`` as C-contiguous little-endian float64, the bytes of a
    snapshot file; no copy of a float64 array on a little-endian host."""
    return np.ascontiguousarray(rows, dtype="<f8")


def _head(grid: Grid, ncomp: int) -> dict:
    """What an index holds once: grid spec (``grid_spec``), interior-row
    ``shape``, ``D`` and ``tag``, always ``"u"``, the flow field."""
    return {"grid": grid_spec(grid), "shape": [grid.n_interior, ncomp],
            "D": ncomp - 1, "tag": "u"}


def _entry(t: float, step: int, lam: Optional[float], exponent: Optional[float],
           boundary: str) -> dict:
    """A snapshot's index entry; ``boundary`` names its boundary-row file."""
    return {"t": t, "step": step, "lambda": lam, "exponent": exponent,
            "boundary": boundary}


def write_snapshot(path_base: Path, f: SphereField, t: float, step: int,
                   lam: Optional[float], exponent: Optional[float]) -> tuple:
    """One snapshot on its own: its ``.f64`` and ``.bnd`` files in
    ``path_base``'s directory, made if missing, and its entry, added or
    replaced, in that directory's index; returns their ``(sha256, bytes)``.
    ValueError, with no file written, for a grid with no spec or an index
    of another grid spec, ``D`` or shape."""
    head = _head(f.grid, f.ncomp)
    path_base.parent.mkdir(parents=True, exist_ok=True)
    index_path = path_base.parent / INDEX
    index = _load_index(index_path) or dict(head, snapshots={})
    found = {k: index.get(k) for k in head}
    if found != head:
        raise ValueError(f"{str(index_path)!r} lists snapshots of {found}, not {head}")
    bnd = path_base.with_suffix(BOUNDARY_SUFFIX)
    index["snapshots"][path_base.name] = _entry(t, step, lam, exponent, bnd.name)
    return (_write_bytes(path_base.with_suffix(".f64"), _f64(f.interior_rows())),
            _write_bytes(bnd, _f64(f.boundary_rows())),
            write_json(index_path, index))


def map_budget() -> int:
    """How many snapshots a store maps: half the process's soft limit on open
    files, since each map holds a descriptor of its own until it is freed."""
    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    return soft // 2 if soft != resource.RLIM_INFINITY else 1 << 62


class SnapshotStore:
    """The snapshots of one run, in ``snap_dir``, as the flow takes them.

    ``take`` writes the flow's interior rows to the snapshot's ``.f64``
    file, records its digest and returns a ``field.KeptSnapshot`` whose
    rows are a read-only map of the file, made from the descriptor just
    written (a copy past ``map_budget()`` maps).  The first ``take`` writes
    the run's boundary rows, which no step changes, to ``boundary``, and
    every snapshot shares them.  A grid with no spec (``grid_spec``) raises
    ValueError before any file is written.  ``bases`` are the snapshots'
    paths without suffix, in order; ``digests`` maps each written file to
    its ``(sha256, bytes)``, and stays empty with ``digest=False`` (a
    sweep's projected reference, whose files no manifest lists).
    """

    def __init__(self, snap_dir: Path, digest: bool = True):
        self.dir = snap_dir
        self.bases: list = []
        self.digests: dict = {}
        self.boundary = snap_dir / ("boundary" + BOUNDARY_SUFFIX)
        self.index = snap_dir / INDEX
        self._head = None               # the index's, from the first take
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
        head = _head(u.grid, u.ncomp)   # a grid with no spec writes no file
        data = _f64(rows)
        if self._boundary_rows is None:
            self._head = head
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

    def write_index(self, times, lam: Optional[float], exponents) -> tuple[str, int]:
        """Write ``index``, once the flow ends: snapshot i is entry
        ``bases[i].name`` at ``times[i]``, with ``exponents[i]``."""
        snaps = {base.name: _entry(t, i, lam, e, self.boundary.name)
                 for i, (base, t, e) in enumerate(zip(self.bases, times, exponents))}
        return write_json(self.index, dict(self._head, snapshots=snaps))

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


def _load_index(path: Path) -> Optional[dict]:
    """The index at ``path`` or None; ValueError if it is not one."""
    try:
        with open(path) as fh:
            index = json.load(fh)
    except FileNotFoundError:
        return None
    if not isinstance(index, dict) or not isinstance(index.get("snapshots"), dict):
        raise ValueError(f"{str(path)!r} is not a snapshot index")
    return index


def _metadata(path_base: Path) -> tuple[dict, Path]:
    """The snapshot's index entry, with the index's grid spec, shape, ``D``
    and tag, and its boundary-row file.  ValueError when its directory has
    no index, the index lists no such name, or the boundary file leaves the
    directory."""
    path = path_base.parent / INDEX
    index = _load_index(path)
    if index is None:
        raise ValueError(f"snapshot {str(path_base)!r} has no index {str(path)!r}: "
                         f"rerun the flow that wrote it")
    entry = index["snapshots"].get(path_base.name)
    if entry is None:
        raise ValueError(f"index {str(path)!r} lists no snapshot {path_base.name!r}: "
                         f"rerun the flow that wrote it")
    meta = {**{k: v for k, v in index.items() if k != "snapshots"}, **entry}
    name = meta.get("boundary")
    if not isinstance(name, str) or Path(name).name != name:
        raise ValueError(f"snapshot {str(path_base)!r} names boundary file {name!r}, "
                         f"not a file of its directory")
    return meta, path_base.parent / name


def check_snapshot(path_base: Path, grid: Grid, D: int):
    """Raise ValueError unless the snapshot's index entry (``_metadata``)
    declares the ``_head`` of ``grid`` and ``D``, and its ``.f64`` and
    boundary files hold that many interior and boundary rows of float64s."""
    want = _head(grid, D + 1)
    need = (8 * grid.n_interior * (D + 1), 8 * grid.boundary_flat.size * (D + 1))
    try:
        meta, bnd = _metadata(path_base)
        nbytes = (path_base.with_suffix(".f64").stat().st_size, bnd.stat().st_size)
    except (OSError, TypeError, ValueError) as e:
        raise ValueError(f"unreadable snapshot {str(path_base)!r}: {e}") from e
    found = {k: meta.get(k) for k in want}
    if found != want or nbytes != need:
        raise ValueError(f"snapshot {str(path_base)!r} holds {found} in {nbytes[0]} + "
                         f"{nbytes[1]} bytes of rows; this run needs {want} in "
                         f"{need[0]} + {need[1]}")


def read_rows(path_base: Path, grid: Optional[Grid] = None) -> tuple[KeptSnapshot, dict]:
    """The snapshot at ``path_base`` as a ``field.KeptSnapshot`` of the rows
    in its two files, with no lattice, and its ``_metadata``.  The field
    lives on ``grid``, which must be the index's (``check_snapshot``), or on
    the grid the index specifies.  ValueError as ``_metadata`` raises it,
    and on files that do not hold the rows the index declares."""
    meta, bnd = _metadata(path_base)
    if grid is None:
        grid = build_grid(Domain.from_config(meta["grid"]["domain"]), meta["grid"]["h"])
    ncomp = meta["D"] + 1
    rows = np.fromfile(path_base.with_suffix(".f64"), dtype="<f8")
    brows = np.fromfile(bnd, dtype="<f8")
    return KeptSnapshot(grid, rows.reshape(grid.n_interior, ncomp),
                        brows.reshape(grid.boundary_flat.size, ncomp)), meta


def read_snapshot(path_base: Path) -> tuple[SphereField, dict]:
    """The snapshot at ``path_base`` as a writable lattice field on the grid
    its index specifies, exterior rows zero, and its metadata."""
    kept, meta = read_rows(path_base)
    return SphereField(kept.grid, lattice_values(kept.grid, *kept.hand_over())), meta


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
