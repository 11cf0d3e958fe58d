"""Domains, masked uniform grids, boundary frames, and the boundary convexity check.

A domain is discretized on the global lattice ``h * Z^d``.  Node classes:

* ``interior`` -- lattice points strictly inside the open domain,
* ``boundary`` -- lattice points outside the domain with at least one
  interior axis neighbor (these carry Dirichlet data, evaluated at the
  point ``Domain.boundary_project`` gives),
* ``exterior`` -- everything else.

With this rule every axis neighbor of an interior node is interior or
boundary, and every boundary node lies within one spacing of the true
boundary.  A boundary node is projected onto the sphere radially on the
unit ball, onto the nearest point of a box, and on the cut ball (the
half-ball and a graph subdomain: the unit ball above a face x_d = f(x'))
onto the nearer of the cap point p/|p| and the face point over x' clipped
to the unit disc, or to the face's rim where that point lies off the
ball; each projection lies within 2h of its node.  Two grids are one
lattice when their domains are equal and their spacings too
(``Grid.compatible``): the rest follows from those two.  Node data
derived from a field (densities, node positions) holds one row per
interior node, in ``interior_flat`` order, and ball queries return
positions into that order.

Neighbours are reached by one rule: on the C-order flattened lattice the
axis-a neighbours of node ``i`` are ``i -/+ strides[a]``.  A whole-lattice
flat shift by a stride is exact at every node off the lattice faces (on a
face it reads a wrapped node of the adjacent row).  ``build_grid`` pads the
bounding box with two cells on every side, so no active node lies on a face
and every stencil of an active node is exact.

Two kernels apply that rule.  ``neighbor_sum`` shifts the whole lattice and
serves the lattice masks.  The sums at the interior nodes, which is what
the flow and the harmonic extension need, come from one block iterator,
``Grid.neighbour_blocks``.  A block is a run of whole first-axis layers,
trimmed to the span from its first interior node to its last.  Blocks are
formed greedily: a layer joins the block while the span stays within
``BLOCK_NODES`` lattice nodes, and a block always holds at least one
layer, so a layer wider than that is a block of its own.  The block's
sums go into a scratch array that stays in cache, and its interior rows
are gathered from there; no lattice-sized buffer is written.  The
iterator yields consecutive blocks in groups of at most ``BLOCK_NODES``
interior rows (``Grid.row_groups``), so that its caller can work on a
group's rows while they are in cache (the flow's step does, in a group
buffer); ``Grid.neighbour_rows`` drains it.

Node positions are made where they are read, never for the whole lattice
at once.  ``build_grid`` tests them one block of first-axis layers at a
time (``BLOCK_NODES`` nodes, or one layer where a layer is wider), and
``Grid.node_coords`` gives the positions of any flat indices, the bits of
``Grid.coords()`` at them.  A ball query (``Grid.nodes_within``) tests
only the interior nodes in the ball's index box, found row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (ConfigError, LatticeTooLarge, NoGraphAvailable, SpacingTooCoarse,
                     integer, numbers, section)

EXTERIOR, INTERIOR, BOUNDARY = 0, 1, 2
# lattice nodes one block of ``Grid.neighbour_blocks`` spans, and interior
# rows one of its groups holds (unless a single layer or block is wider):
# 2^14 nodes of 3 float64 components are a 384 KiB scratch, which stays in
# a 2 MiB L2 with the rows the stencil reads
BLOCK_NODES = 1 << 14
# the lattice budget: build_grid rejects a bounding-box lattice of more nodes
# (the largest benchmark lattice has 328,509)
MAX_LATTICE_NODES = 10 ** 8


@dataclass(eq=False)
class Domain:
    """A bounded domain in R^d with analytic boundary queries.

    ``kind`` is one of ``unit-ball``, ``box``, ``half-ball`` or
    ``graph-subdomain``.  ``diameter`` is the exact diameter (2 for the
    ball kinds, the diagonal length for a box).  The half-ball and a graph
    subdomain are one shape, the unit ball cut by a face x_d = f(x') and
    kept above it: f is 0 for the half-ball and the height function
    ``phi`` for a graph subdomain, normalized so that phi(0) = 0 and
    grad phi(0) = 0.  Two domains are equal when they have the same kind,
    dimension and box bounds and the same ``phi`` object.
    """

    kind: str
    d: int
    bounds: Optional[np.ndarray] = None          # (d, 2) for boxes
    phi: Optional[Callable] = None               # graph height function

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("domain dimension must be >= 2")
        if self.kind == "box":
            if self.bounds is None:
                self.bounds = np.array([[0.0, 1.0]] * self.d)
            self.bounds = np.asarray(self.bounds, dtype=float)
            if self.bounds.shape != (self.d, 2) or not np.all(np.isfinite(self.bounds)) \
                    or np.any(self.bounds[:, 1] <= self.bounds[:, 0]):
                raise ValueError("box bounds must be (d, 2), finite, with lo < hi")
        elif self.kind == "graph-subdomain":
            if self.phi is None:
                raise ValueError("graph-subdomain requires a height function")
            z = np.zeros(self.d - 1)
            if abs(float(self.phi(z))) > 1e-10:
                raise ValueError("graph height must vanish at the base point")
            if np.any(np.abs(self._face_gradient(z, 1e-5)) > 1e-6):
                raise ValueError("graph height must have vanishing gradient at the base point")
        elif self.kind not in ("unit-ball", "half-ball"):
            raise ValueError(f"unknown domain kind {self.kind!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Domain):
            return NotImplemented
        return (self.kind == other.kind and self.d == other.d and self.phi is other.phi
                and np.array_equal(self.bounds, other.bounds))

    # -- constructors ------------------------------------------------

    @staticmethod
    def unit_ball(d: int) -> "Domain":
        return Domain("unit-ball", d)

    @staticmethod
    def box(bounds) -> "Domain":
        b = np.asarray(bounds, dtype=float)
        return Domain("box", b.shape[0], bounds=b)

    @staticmethod
    def half_ball(d: int) -> "Domain":
        return Domain("half-ball", d)

    @staticmethod
    def graph_subdomain(phi: Callable, d: int) -> "Domain":
        return Domain("graph-subdomain", d, phi=phi)

    @staticmethod
    def from_config(spec: dict) -> "Domain":
        """The domain of a config's ``domain`` section; ConfigError on a key
        other than ``kind``, ``d`` and (for a box) ``bounds``, on a ``d``
        that is not an integer or, for a box, differs from the number of
        rows of its ``bounds``, and on bounds that are not numbers;
        ValueError on any other bad value."""
        kind = spec.get("kind") if isinstance(spec, dict) else None
        section("domain", spec, ("kind", "d", "bounds") if kind == "box" else ("kind", "d"))
        if kind == "box" and "bounds" in spec:
            box = Domain.box(numbers("domain.bounds", spec["bounds"]))
            if "d" in spec and integer("domain.d", spec["d"]) != box.d:
                raise ConfigError(f"domain.d = {spec['d']!r} but domain.bounds "
                                  f"holds {box.d} rows")
            return box
        if kind in ("unit-ball", "half-ball", "box"):
            return Domain(kind, integer("domain.d", spec["d"]))
        raise ValueError(f"domain kind {kind!r} not constructible from config")

    # -- geometry queries --------------------------------------------

    @property
    def diameter(self) -> float:
        if self.kind == "box":
            return float(np.linalg.norm(self.bounds[:, 1] - self.bounds[:, 0]))
        return 2.0

    def bounding_box(self):
        if self.kind == "box":
            return self.bounds[:, 0].copy(), self.bounds[:, 1].copy()
        lo = -np.ones(self.d)
        if self.kind == "half-ball":
            lo[-1] = 0.0
        return lo, np.ones(self.d)

    def center(self) -> np.ndarray:
        """Midpoint of the bounding box."""
        lo, hi = self.bounding_box()
        return 0.5 * (lo + hi)

    def _face(self, ys: np.ndarray) -> np.ndarray:
        """Height f(x') of the cut ball's face over each row x' of an
        (n, d-1) array: 0 for the half-ball, ``phi`` for a graph subdomain."""
        if self.kind == "half-ball":
            return np.zeros(len(ys))
        return np.array([float(self.phi(y)) for y in ys])

    def _face_gradient(self, y: np.ndarray, step: float) -> np.ndarray:
        """Central-difference gradient of the face height at one point x'."""
        e = step * np.eye(self.d - 1)
        return (self._face(y + e) - self._face(y - e)) / (2 * step)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Strict interior membership for an (n, d) array of points."""
        pts = np.atleast_2d(pts)
        if self.kind == "box":
            lo, hi = self.bounds[:, 0], self.bounds[:, 1]
            return np.all((pts > lo) & (pts < hi), axis=1)
        inside = rowsq(pts) < 1.0
        if self.kind == "unit-ball":
            return inside
        # the face is evaluated inside the ball only
        k = np.flatnonzero(inside)
        inside[k] = pts[k, -1] > self._face(pts[k, :-1])
        return inside

    def boundary_project(self, pts: np.ndarray) -> np.ndarray:
        """Nearest point of the true boundary (first-order adequate).

        On the cut ball it is the nearer of two candidates: the cap point
        p/|p|, when p lies on or above the face, and the face point over
        x' clipped to the unit disc.  Where that face point lies outside
        the ball, it moves along the ray of x' to the face's rim
        |x'|^2 + f(x')^2 = 1, found by bisection.
        """
        pts = np.atleast_2d(pts).astype(float)
        if self.kind == "unit-ball":
            n = np.linalg.norm(pts, axis=1, keepdims=True)
            n[n == 0] = 1.0
            return pts / n
        if self.kind == "box":
            lo, hi = self.bounds[:, 0], self.bounds[:, 1]
            q = np.clip(pts, lo, hi)
            # points strictly inside the closed box are pushed to the nearest face
            inside = np.all((q > lo) & (q < hi), axis=1)
            for k in np.flatnonzero(inside):
                gaps = np.minimum(q[k] - lo, hi - q[k])
                a = int(np.argmin(gaps))
                q[k, a] = lo[a] if q[k, a] - lo[a] <= hi[a] - q[k, a] else hi[a]
            return q
        out = np.empty_like(pts)
        for k, p in enumerate(pts):
            cand = []
            n = np.linalg.norm(p)
            if n > 0 and p[-1] >= self._face(p[None, :-1])[0]:
                cand.append(p / n)                      # spherical cap
            q = p.copy()
            m = np.linalg.norm(q[:-1])
            if m > 1.0:
                q[:-1] *= 1.0 / m
            q[-1] = self._face(q[None, :-1])[0]
            if q[-1] != 0.0 and q @ q > 1.0:
                # the face point lies off the ball: bisect along the ray of
                # x' for the rim |x'|^2 + f(x')^2 = 1, from x' = 0 inside it
                y, lo, hi = q[:-1].copy(), 0.0, 1.0
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    q[:-1] = mid * y
                    q[-1] = self._face(q[None, :-1])[0]
                    lo, hi = (lo, mid) if q @ q > 1.0 else (mid, hi)
                q[:-1] = lo * y
                q[-1] = self._face(q[None, :-1])[0]
            cand.append(q)                              # face
            dists = [np.linalg.norm(p - c) for c in cand]
            out[k] = cand[int(np.argmin(dists))]
        return out

    def outward_normal(self, pts: np.ndarray) -> np.ndarray:
        """Outward unit normal at the boundary projection of each point; on
        the cut ball's face (grad f, -1) normalized, with grad f a central
        difference of step 1e-6."""
        pts = np.atleast_2d(pts).astype(float)
        if self.kind == "unit-ball":
            n = np.linalg.norm(pts, axis=1, keepdims=True)
            n[n == 0] = 1.0
            return pts / n
        if self.kind == "box":
            lo, hi = self.bounds[:, 0], self.bounds[:, 1]
            out = np.zeros_like(pts)
            for k, p in enumerate(pts):
                below, above = p - lo, hi - p
                # outside a slab: normal along the violated axis; on/inside: nearest face
                exc = np.where(p < lo, p - lo, np.where(p > hi, p - hi, 0.0))
                if np.any(exc != 0.0):
                    out[k] = exc / np.linalg.norm(exc)
                else:
                    gaps = np.minimum(below, above)
                    a = int(np.argmin(gaps))
                    out[k, a] = -1.0 if below[a] <= above[a] else 1.0
            return out
        out = np.empty_like(pts)
        for k, q in enumerate(self.boundary_project(pts)):
            if abs(q[-1] - self._face(q[None, :-1])[0]) < 1e-12 \
                    and np.linalg.norm(q) < 1.0 - 1e-12:
                nu = np.append(self._face_gradient(q[:-1], 1e-6), -1.0)
            else:
                nu = q
            out[k] = nu / np.linalg.norm(nu)
        return out

    def graph_height(self, offsets: np.ndarray) -> np.ndarray:
        """Height of the boundary graph over the tangent plane at the base
        point, at (m, d-1) tangent offsets, measured along the inward normal.

        The unit sphere is the same graph at every base point; a graph
        subdomain's boundary is the graph of ``phi`` at its base point, the
        origin.  Other kinds have corners and raise NoGraphAvailable.
        """
        offsets = np.atleast_2d(offsets)
        if self.kind == "unit-ball":
            s = rowsq(offsets)
            if np.any(s >= 1.0):
                raise ValueError("tangent offset leaves the chart of the unit sphere")
            return 1.0 - np.sqrt(1.0 - s)
        if self.kind == "graph-subdomain":
            return self._face(offsets)
        raise NoGraphAvailable(f"domain kind {self.kind!r} has no C^2 boundary graph")

    def to_config(self) -> dict:
        """The config section ``from_config`` rebuilds this domain from;
        ValueError for a graph subdomain, whose ``phi`` has no config form."""
        if self.kind == "graph-subdomain":
            raise ValueError("a graph subdomain has no config form: its height "
                             "function phi cannot be written to a config")
        if self.kind == "box":
            return {"kind": "box", "d": self.d, "bounds": self.bounds.tolist()}
        return {"kind": self.kind, "d": self.d}


@dataclass
class Grid:
    """Masked uniform lattice over a domain.

    Node coordinates are implicit: node with multi-index ``k`` sits at
    ``(index_origin + k) * h``.  Immutable after construction; the lazy
    caches below are derived data only.
    """

    domain: Domain
    h: float
    index_origin: np.ndarray          # integer lattice offset of index (0,...,0)
    shape: tuple
    node_class: np.ndarray            # int8 lattice of EXTERIOR/INTERIOR/BOUNDARY

    _cache: dict = field(default_factory=dict, repr=False)

    # -- basic views ---------------------------------------------------

    @property
    def d(self) -> int:
        return self.domain.d

    @property
    def n_lattice(self) -> int:
        return int(np.prod(self.shape))

    def strides(self) -> np.ndarray:
        """The flat index step along each axis (``_strides``), computed once
        and read-only."""
        if "strides" not in self._cache:
            s = _strides(self.shape)
            s.flags.writeable = False
            self._cache["strides"] = s
        return self._cache["strides"]

    def coords(self) -> np.ndarray:
        """(n_lattice, d) node positions, C-order flattened, built on every call."""
        return _lattice_coords(self.index_origin, self.shape, self.h)

    def node_coords(self, nodes: np.ndarray) -> np.ndarray:
        """(len(nodes), d) positions of the flat lattice indices ``nodes``:
        ``coords()[nodes]`` bit for bit, from the unravelled indices, with no
        lattice-sized array: one axis at a time, each column's index
        unravelled, offset and scaled straight into the output."""
        nodes = np.asarray(nodes)
        out = np.empty((nodes.size, self.d))
        for a, (n, s) in enumerate(zip(self.shape, self.strides())):
            k = nodes // s
            k %= n
            k += self.index_origin[a]
            np.multiply(k, self.h, out=out[:, a])
        return out

    def class_flat(self) -> np.ndarray:
        return self.node_class.ravel()

    @property
    def interior_flat(self) -> np.ndarray:
        if "int" not in self._cache:
            self._cache["int"] = np.flatnonzero(self.class_flat() == INTERIOR)
        return self._cache["int"]

    @property
    def boundary_flat(self) -> np.ndarray:
        if "bnd" not in self._cache:
            self._cache["bnd"] = np.flatnonzero(self.class_flat() == BOUNDARY)
        return self._cache["bnd"]

    @property
    def active_flat(self) -> np.ndarray:
        if "act" not in self._cache:
            self._cache["act"] = np.flatnonzero(self.class_flat() != EXTERIOR)
        return self._cache["act"]

    def active_is_interior(self) -> np.ndarray:
        """Per active node (``active_flat`` order), whether it is interior;
        computed once and read-only.  The interior nodes are in
        ``interior_flat`` order there and the rest in ``boundary_flat``
        order, so a field's active rows are its interior rows put where it
        is True and its boundary rows where it is False."""
        if "act_int" not in self._cache:
            inner = self.class_flat()[self.active_flat] == INTERIOR
            inner.flags.writeable = False
            self._cache["act_int"] = inner
        return self._cache["act_int"]

    @property
    def n_interior(self) -> int:
        return self.interior_flat.size

    @property
    def interior_coords(self) -> np.ndarray:
        """(n_interior, d) interior node positions, in ``interior_flat`` order."""
        if "int_xyz" not in self._cache:
            self._cache["int_xyz"] = self.node_coords(self.interior_flat)
        return self._cache["int_xyz"]

    def neighbour_rows(self, flat: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``neighbor_sum(flat, self.strides())[self.interior_flat]``, bit for
        bit, signed zeros and NaN included, without a lattice-sized buffer:
        ``neighbour_blocks`` drained.  ``out``, if given, is an interior-row
        array that is overwritten and returned."""
        if out is None:
            out = np.empty((self.n_interior,) + flat.shape[1:], flat.dtype)
        for _ in self.neighbour_blocks(flat, out):
            pass
        return out

    def neighbour_blocks(self, flat: np.ndarray, out: np.ndarray,
                         scratch: Optional[np.ndarray] = None):
        """Write the neighbour sums of ``neighbour_rows`` into ``out`` one
        group of blocks at a time, yielding the interior positions
        ``(k0, k1)`` of each group (``row_groups``) once its sums are in.

        ``out`` is an interior-row array, or a group buffer of
        ``group_rows()`` rows whose first ``k1 - k0`` rows receive them.
        ``flat`` is a float lattice array flattened along its first axis.  The sums are
        taken one block of layers at a time (see the module docstring), in
        ``neighbor_sum``'s order: from +0.0, per axis the -s neighbour before
        the +s one.  ``scratch`` (allocated when None) is an array of
        ``block_rows()`` rows shaped like ``flat``'s: the blocks are summed
        in it, and between yields the caller may use its first ``k1 - k0``
        rows.
        """
        idx = self.interior_flat
        blocks, _ = self._stencil_blocks()
        if scratch is None:
            scratch = np.empty((self.block_rows(),) + flat.shape[1:], flat.dtype)
        whole = out.shape[0] >= self.n_interior
        first, *rest = [o for s in self.strides() for o in (-s, s)]
        groups = iter(self.row_groups())
        g0, g1 = next(groups)
        for lo, hi, k0, k1 in blocks:
            # 0.0 + x is neighbor_sum's first addition, -0.0 becoming +0.0
            acc = np.add(0.0, flat[lo + first:hi + first], out=scratch[:hi - lo])
            for o in rest:
                acc += flat[lo + o:hi + o]
            at = 0 if whole else g0
            # mode="clip" gathers straight into out; "raise" would buffer a copy
            np.take(acc, idx[k0:k1] - lo, axis=0, out=out[k0 - at:k1 - at], mode="clip")
            if k1 == g1:
                yield g0, g1
                g0, g1 = next(groups, (g1, None))

    def row_groups(self) -> list:
        """The interior positions ``(k0, k1)`` of the groups of
        ``neighbour_blocks``, in order: consecutive blocks holding at most
        ``BLOCK_NODES`` interior rows, or one block that holds more."""
        if "groups" not in self._cache:
            blocks, _ = self._stencil_blocks()
            groups, g0 = [], 0
            for i, (_, _, _, k1) in enumerate(blocks):
                if i + 1 == len(blocks) or blocks[i + 1][3] - g0 > BLOCK_NODES:
                    groups.append((g0, k1))
                    g0 = k1
            self._cache["groups"] = groups
        return self._cache["groups"]

    def group_rows(self) -> int:
        """Rows of the largest group of ``row_groups``: a group buffer's."""
        return max(k1 - k0 for k0, k1 in self.row_groups())

    def block_rows(self) -> int:
        """Rows of a ``neighbour_blocks`` scratch: room for the widest block's
        span and the largest group's rows."""
        _, width = self._stencil_blocks()
        return max(width, min(BLOCK_NODES, self.n_interior))

    def _stencil_blocks(self) -> tuple:
        """The blocks of ``neighbour_blocks`` as ``(lo, hi, k0, k1)``: the flat
        lattice span [lo, hi) and the interior positions [k0, k1) it holds;
        and the widest span.  Built from the interior positions where each
        first-axis layer starts, so it makes no interior-sized array."""
        if "blocks" not in self._cache:
            idx = self.interior_flat
            # layer j holds the positions [bounds[j], bounds[j + 1]) of idx
            bounds = np.searchsorted(idx, np.arange(self.shape[0] + 1) * self.strides()[0])
            full = np.flatnonzero(np.diff(bounds))
            starts, ends = bounds[full], bounds[full + 1]
            blocks, j = [], 0
            while j < starts.size:
                lo, e = int(idx[starts[j]]), j + 1
                while e < starts.size and idx[ends[e] - 1] + 1 - lo <= BLOCK_NODES:
                    e += 1
                blocks.append((lo, int(idx[ends[e - 1] - 1]) + 1,
                               int(starts[j]), int(ends[e - 1])))
                j = e
            self._cache["blocks"] = blocks, max(hi - lo for lo, hi, _, _ in blocks)
        return self._cache["blocks"]

    def link_masks(self) -> list:
        """Per axis a, a mask over flat nodes i < n_lattice - strides[a]: the
        link (i, i + strides[a]) carries Dirichlet energy, i.e. both ends are
        active and at least one is interior.
        """
        if "links" not in self._cache:
            cls = self.class_flat()
            act, inn = cls != EXTERIOR, cls == INTERIOR
            self._cache["links"] = [act[:-s] & act[s:] & (inn[:-s] | inn[s:])
                                    for s in self.strides()]
        return self._cache["links"]

    def ball_offsets(self, R: float) -> np.ndarray:
        """Integer index offsets of lattice points with |k| h < R."""
        key = ("ball", round(R / self.h, 9))
        if key not in self._cache:
            m = int(np.ceil(R / self.h))
            rng = np.arange(-m, m + 1)
            mesh = np.meshgrid(*([rng] * self.d), indexing="ij")
            pts = np.stack([g.ravel() for g in mesh], axis=1)
            keep = rowsq(pts) * self.h ** 2 < R ** 2
            self._cache[key] = pts[keep]
        return self._cache[key]

    def nodes_within(self, x0: np.ndarray, R: float) -> np.ndarray:
        """Positions in ``interior_flat`` (rows of an interior-row array) of
        the interior nodes within distance R of x0: those whose position x
        passes ``rowsq(x - x0) < R ** 2``, a squared radius past the float
        range reading inf.

        Only the interior nodes in the ball's index box are tested.  The box
        reaches one spacing, plus 1e-12 of |x0| + |R|, past the ball on every
        side, far more than the rounding of the positions and of the test,
        so it holds every node the test passes.  Its bounds are clipped to
        the lattice as floats, before the integer cast, so a ball off the
        lattice or of a radius past any index casts no out-of-range float;
        a bound that is NaN (x0 or R not a number, or infinite both) leaves
        no node, as the test does.
        """
        x0 = np.asarray(x0, dtype=float)
        top = np.asarray(self.shape) - 1
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                r2 = R ** 2
            except OverflowError:                    # a Python float
                r2 = np.inf
            reach = abs(R) + self.h + 1e-12 * (np.abs(x0) + abs(R))
            lo = np.floor((x0 - reach) / self.h) - self.index_origin
            hi = np.ceil((x0 + reach) / self.h) - self.index_origin
            if not (r2 > 0 and np.all((lo <= hi) & (lo <= top) & (hi >= 0))):
                return np.empty(0, dtype=np.intp)
            lo = np.clip(lo, 0, top).astype(np.int64)
            hi = np.clip(hi, 0, top).astype(np.int64)
            # each row of the box along the last axis is one run of
            # interior_flat, found by its two ends; the rows come in flat order
            idx, st = self.interior_flat, self.strides()
            first = lo[-1:]
            for ax in range(self.d - 1):
                first = np.add.outer(first, np.arange(lo[ax], hi[ax] + 1) * st[ax]).ravel()
            a = np.searchsorted(idx, first)
            n = np.searchsorted(idx, first + (hi[-1] - lo[-1] + 1)) - a
            ends = np.cumsum(n)
            pos = np.arange(ends[-1]) + np.repeat(a - ends + n, n)
            diff = self.node_coords(idx[pos])
            diff -= x0
            return pos[rowsq(diff, scratch=diff) < r2]

    def boundary_projections(self) -> np.ndarray:
        if "bproj" not in self._cache:
            self._cache["bproj"] = self.domain.boundary_project(
                self.node_coords(self.boundary_flat))
        return self._cache["bproj"]

    def compatible(self, other: "Grid") -> bool:
        """Whether the two grids are one lattice: ``build_grid`` makes shape,
        origin and node classes from the domain and the spacing alone."""
        return self.h == other.h and self.domain == other.domain

    @property
    def cell_volume(self) -> float:
        return self.h ** self.d


@dataclass
class BoundaryFrame:
    """Outward unit normals at boundary nodes."""

    normals: np.ndarray        # (n_boundary, d)


def build_grid(domain: Domain, h: float) -> Grid:
    """Classify the lattice h*Z^d against the domain.

    Deterministic: classification is a pure function of node coordinates.
    Raises SpacingTooCoarse when the spacing cannot resolve the domain at
    all (no interior nodes, or fewer than two cells across the diameter),
    and LatticeTooLarge, before anything is allocated, when the lattice
    would hold more than MAX_LATTICE_NODES nodes.
    """
    if h <= 0:
        raise SpacingTooCoarse("spacing must be positive")
    if h > domain.diameter / 2:
        raise SpacingTooCoarse(
            f"h = {h} exceeds half the domain diameter {domain.diameter}")
    lo, hi = domain.bounding_box()
    # the node count is taken in floats before the integer casts: it cannot
    # wrap, and a count past the float range is inf, over any budget
    with np.errstate(over="ignore"):
        k_min = np.floor(lo / h) - 2
        k_max = np.ceil(hi / h) + 2
        n_nodes = float(np.prod(k_max - k_min + 1))
    if not n_nodes <= MAX_LATTICE_NODES:
        raise LatticeTooLarge(f"h = {h} gives a lattice of {n_nodes:.4g} nodes, above "
                              f"the budget of {MAX_LATTICE_NODES} nodes")
    k_min, k_max = k_min.astype(np.int64), k_max.astype(np.int64)
    shape = tuple((k_max - k_min + 1).tolist())

    # the positions are made and tested one block of first-axis layers at a
    # time (of BLOCK_NODES nodes, or one layer where a layer is wider), so no
    # (n_lattice, d) array exists; contains tests each node on its own, so
    # the classes do not depend on the blocks
    layer = int(np.prod(shape[1:]))
    step = max(1, BLOCK_NODES // layer)
    inside = np.empty(shape[0] * layer, dtype=bool)
    origin = k_min.copy()
    for i in range(0, shape[0], step):
        n = min(step, shape[0] - i)
        origin[0] = k_min[0] + i
        inside[i * layer:(i + n) * layer] = domain.contains(
            _lattice_coords(origin, (n,) + shape[1:], h))

    cls = np.zeros(inside.size, dtype=np.int8)
    cls[inside] = INTERIOR
    # bool sums are ORs: a node is near when any axis neighbour is inside
    cls[neighbor_sum(inside, _strides(shape)) & ~inside] = BOUNDARY

    if not np.any(cls == INTERIOR):
        raise SpacingTooCoarse(f"h = {h} leaves no interior nodes")
    return Grid(domain=domain, h=float(h), index_origin=k_min, shape=shape,
                node_class=cls.reshape(shape))


def _lattice_coords(origin, shape, h) -> np.ndarray:
    """Positions (origin + k) * h of the nodes k of a C-order lattice, one row each."""
    axes = [(origin[a] + np.arange(n)) * h for a, n in enumerate(shape)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def _strides(shape) -> np.ndarray:
    """Flat index step of one cell along each axis of a C-order lattice."""
    return np.cumprod((*shape[1:], 1)[::-1], dtype=np.int64)[::-1]


def neighbor_sum(flat: np.ndarray, strides) -> np.ndarray:
    """Sum of the 2d axis neighbours ``i -/+ strides[a]`` of every flat node.

    ``flat`` is a lattice array flattened along its first axis.  The sum is
    exact off the lattice faces; face nodes hold partial sums with wrapped
    reads and must not be used.  Per axis the -s neighbour is added before
    the +s one.

    Each of the 2d shifts streams the whole lattice, so this serves the
    whole-lattice masks (``build_grid``, the depth mask); sums at the
    interior nodes come from ``Grid.neighbour_blocks``, which takes them
    block by block without a lattice-sized buffer.
    """
    out = np.zeros_like(flat)
    for s in strides:
        out[s:] += flat[:-s]
        out[:-s] += flat[s:]
    return out


def put_rows(flat: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """``flat[idx] = rows`` for C-contiguous 2-D ``flat`` and ``rows`` and flat
    row indices or a boolean row mask ``idx``, moving each row as one
    element of a view with one void item per row, several times faster
    than the row-wise fancy assignment.  Indices of writeable rows go
    through ``np.put``, the fastest; a mask, or read-only rows (a mapped
    snapshot's), which ``np.put`` would first copy, through assignment to
    the view."""
    void = np.dtype((np.void, flat.strides[0]))
    dst, src = flat.view(void).reshape(-1), rows.view(void).reshape(-1)
    if idx.dtype == bool or not rows.flags.writeable:
        dst[idx] = src
    else:
        np.put(dst, idx, src)


def rowsq(a: np.ndarray, scratch: Optional[np.ndarray] = None,
          out: Optional[np.ndarray] = None) -> np.ndarray:
    """Row-wise sums of squares of an (n, m) array, m >= 1, as an (n,)
    array: ``out``, overwritten and returned, or a new one when None.

    The squares go into ``scratch``, an (n, m) buffer it overwrites (a
    temporary when None; ``a`` itself when the caller has no further use
    for it).  The sum then runs in one fixed order: the even columns 0, 2,
    4, ... in order, the odd columns 1, 3, ... in order, and the two
    partial sums added; for three columns that is (p0 + p2) + p1.  Only
    separate multiplies and adds are used, so the bits are the same on
    every platform.  It is also the order of ``np.einsum`` with subscripts
    ``ij,ij->i`` on rows of unit column stride and m <= 7 where numpy's
    baseline is the x86 SSE level (a two-lane accumulator without fused
    multiply-add), so the two agree bit for bit there; a baseline with FMA3
    or ASIMD gives einsum other bits.  The column passes cost less.
    """
    p = np.multiply(a, a, out=scratch)
    m = p.shape[1]
    # np.positive copies p0 unchanged
    out = np.add(p[:, 0], p[:, 2], out=out) if m > 2 else np.positive(p[:, 0], out=out)
    for j in range(4, m, 2):
        out += p[:, j]
    for j in range(3, m, 2):
        p[:, 1] += p[:, j]
    if m > 1:
        out += p[:, 1]
    return out


def scale_rows(v: np.ndarray, s: np.ndarray, op=np.divide,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """``op(v, s[:, None])`` for an (n, m) ``v`` and an (n,) ``s``, one column
    at a time, into ``out`` (``v`` itself, in place, when None); returns it.
    The same values bit for bit as the broadcast form, without its strided
    inner loop."""
    out = v if out is None else out
    for j in range(v.shape[1]):
        op(v[:, j], s, out=out[:, j])
    return out


def boundary_frame(grid: Grid) -> BoundaryFrame:
    """Outward unit normal per boundary node."""
    pts = grid.node_coords(grid.boundary_flat)
    normals = grid.domain.outward_normal(pts)
    return BoundaryFrame(normals=normals / np.linalg.norm(normals, axis=1, keepdims=True))


@dataclass
class ConditionBResult:
    theta0_estimate: float
    passed: bool


def check_condition_B(domain: Domain, probe_radius: float,
                      threshold: float = 0.1) -> ConditionBResult:
    """Uniform convexity estimate for the boundary graph.

    Takes the finite-difference Hessian of ``domain.graph_height`` once, on
    the stencil {-delta, 0, delta}^m of tangent offsets (m = d - 1, delta
    the probe radius), and returns its smallest eigenvalue: the unit
    sphere's graph is the same at every base point, and a graph
    subdomain's is taken at its base point.  Only the stencil points with
    at most two nonzero offsets are evaluated.  Passes when the estimate
    reaches the threshold; kinds with corners raise NoGraphAvailable.
    """
    if probe_radius <= 0 or probe_radius >= 0.7:
        raise ValueError("probe radius must lie in (0, 0.7)")
    m, delta = domain.d - 1, probe_radius
    # stencil point k sits at flat index c + k . s, in C order
    k = np.indices((3,) * m).reshape(m, -1).T - 1
    c, s = (3 ** m - 1) // 2, 3 ** np.arange(m - 1, -1, -1)
    used = np.count_nonzero(k, axis=1) <= 2
    v = np.full(len(k), np.nan)
    v[used] = domain.graph_height(delta * k[used])
    H = np.empty((m, m))
    for i in range(m):
        H[i, i] = (v[c + s[i]] - 2 * v[c] + v[c - s[i]]) / delta ** 2
        for j in range(i + 1, m):
            H[i, j] = H[j, i] = (v[c + s[i] + s[j]] - v[c + s[i] - s[j]]
                                 - v[c - s[i] + s[j]] + v[c - s[i] - s[j]]) / (4 * delta ** 2)
    theta0 = float(np.min(np.linalg.eigvalsh(H)))
    return ConditionBResult(theta0_estimate=theta0, passed=theta0 >= threshold)
