"""In-memory span tracer that wraps sphereflow functions from outside.

Each target is a ``module:attribute`` name, wrapped at the module attribute
its callers resolve at call time (``sphereflow.cli.run_glhf`` is the binding
``run_experiment`` calls, distinct from ``sphereflow.flow.run_glhf``).  The
source tree is never edited.  A target that no longer exists is counted in
``missing`` and skipped, so a refactor that merges or renames functions
degrades the per-layer numbers instead of breaking the benchmark.

A span records (id, parent, name, start, end, error); the layer is the first
part of its name.  Self time is a span's duration minus the part its child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

LAYERS = ("geometry", "field", "flow", "elliptic", "diagnostics", "singular",
          "stereo", "io", "cli")

# (target, span name); the layer is the module that defines the function.
# Several bindings of one function share a span name.
TARGETS = [
    ("sphereflow.cli:run_experiment", "cli.run_experiment"),
    ("sphereflow.cli:sweep", "cli.sweep"),
    ("sphereflow.cli:build_grid", "geometry.build_grid"),
    ("sphereflow.geometry:build_grid", "geometry.build_grid"),
    ("sphereflow.cli:generate", "field.generate"),
    ("sphereflow.field:generate", "field.generate"),
    ("sphereflow.field:project_to_sphere", "field.project_to_sphere"),
    ("sphereflow.flow:project_to_sphere", "field.project_to_sphere"),
    ("sphereflow.flow:dirichlet_energy", "field.dirichlet_energy"),
    ("sphereflow.field:dirichlet_energy", "field.dirichlet_energy"),
    ("sphereflow.cli:l2_distance", "field.l2_distance"),
    ("sphereflow.field:l2_distance", "field.l2_distance"),
    ("sphereflow.cli:run_glhf", "flow.run"),
    ("sphereflow.cli:run_projected", "flow.run"),
    ("sphereflow.flow:run_glhf", "flow.run"),
    ("sphereflow.flow:run_projected", "flow.run"),
    ("sphereflow.cli:penalty_integral", "flow.penalty_integral"),
    ("sphereflow.cli:trajectory_l2q_distance", "flow.l2q_distance"),
    ("sphereflow.elliptic:solve_harmonic_extension", "elliptic.extension"),
    ("sphereflow.diagnostics:energy_density", "diagnostics.energy_density"),
    ("sphereflow.singular:energy_density", "diagnostics.energy_density"),
    ("sphereflow.diagnostics:gradient_squared_density",
     "field.gradient_squared_density"),
    ("sphereflow.diagnostics:energy_report", "diagnostics.energy_report"),
    ("sphereflow.diagnostics:monotonicity_report", "diagnostics.monotonicity"),
    ("sphereflow.diagnostics:reverse_poincare_ratio", "diagnostics.comparison"),
    ("sphereflow.diagnostics:hybrid_report", "diagnostics.comparison"),
    ("sphereflow.singular:detect_singular_set", "singular.scan"),
    ("sphereflow.singular:parabolic_box_count", "singular.box_count"),
    ("sphereflow.singular:local_scaled_energy", "singular.cylinder"),
    ("sphereflow.singular:small_energy_certificate", "singular.certificate"),
    ("sphereflow.stereo:one_sided_monitor", "stereo.monitor"),
    ("sphereflow.io:write_snapshot", "io.write"),
    ("sphereflow.io:write_csv", "io.write"),
    ("sphereflow.io:write_json", "io.write"),
    ("sphereflow.io:build_manifest", "io.manifest"),
]

ROOT = "bench.timed"


class Tracer:
    def __init__(self):
        self.spans = []          # [id, parent, name, start, end, error]
        self.stack = []
        self.missing = []
        self.hooks = {}          # span name -> fn(args, kwargs, result)
        self._undo = []

    # -- wrapping ------------------------------------------------------------

    def install(self, targets=TARGETS):
        """Wrap every target that exists; results of spans named in
        ``hooks`` are handed to the hook after the span closes."""
        for target, name in targets:
            mod_name, attr = target.split(":")
            try:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            setattr(mod, attr, self._wrap(fn, name))
            self._undo.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            hook = self.hooks.get(name)
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # the traced function changed shape under a refactor
                    if f"hook:{name}" not in self.missing:
                        self.missing.append(f"hook:{name}")
            return result
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the body; the benchmark opens its own root."""
        s = [len(self.spans), self.stack[-1][0] if self.stack else -1,
             name, time.perf_counter(), None, None]
        self.spans.append(s)
        self.stack.append(s)
        try:
            yield s
        except BaseException as e:
            s[5] = type(e).__name__
            raise
        finally:
            s[4] = time.perf_counter()
            self.stack.pop()

    # -- summaries ---------------------------------------------------------------

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[4] - s[3]) - child[s[0]] for s in self.spans]

    def outer_time(self, name: str) -> float:
        """Summed duration of ``name`` spans not nested in another ``name`` span."""
        total = 0.0
        for s in self.spans:
            if s[2] == name and not self._inside(s, name):
                total += s[4] - s[3]
        return total

    def _inside(self, span, name) -> bool:
        p = span[1]
        while p >= 0:
            if self.spans[p][2] == name:
                return True
            p = self.spans[p][1]
        return False

    def count(self, name: str, parent_name: str | None = None) -> int:
        return sum(1 for s in self.spans if s[2] == name and (
            parent_name is None
            or (s[1] >= 0 and self.spans[s[1]][2] == parent_name)))

    def layer_self(self) -> dict:
        """Self time per layer; ``bench`` is the root span's own time."""
        out = dict.fromkeys(LAYERS + ("bench",), 0.0)
        for s, st in zip(self.spans, self.self_times()):
            out[s[2].split(".")[0]] += st
        return out

    def errors(self) -> dict:
        """Spans per layer that ended in an exception."""
        out = dict.fromkeys(LAYERS, 0)
        for s in self.spans:
            if s[5] is not None and s[2] != ROOT:
                out[s[2].split(".")[0]] += 1
        return out

    def dump(self) -> list:
        return [{"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
                 "end": s[4], "error": s[5]} for s in self.spans]
