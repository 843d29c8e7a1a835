"""Span tracing of weightpoly's module boundaries, installed from outside.

``Tracer.install()`` rebinds each traced function, in every weightpoly module
namespace that holds it (its own module included, so calls inside a module
are seen too), to a wrapper that records one span per call.  A span is
``(name, start, end, parent, request)``; parent is the index of the
enclosing span or -1, and request is the index of the request that caused
it.  Spans stay in memory until ``write_spans``.

Per-element helpers (frac, vec, dot, vec_sub, primitive_vector, floor_div,
ceil_div, frac_str) are deliberately left unwrapped: their time stays in the
caller's self time, and wrapping them would cost more than they do.
"""

from __future__ import annotations

import sys
import time
from array import array

MODULES = ("exact", "polytopes", "builders", "toric", "counting", "reference", "cli")

TRACED = {
    "exact": ("rank", "solve_linear", "nullspace", "mat_inverse", "transpose",
              "integer_kernel_basis", "solve_integer", "lattice_index"),
    "polytopes": ("h_to_v", "v_to_h", "remove_redundant", "polytope_dim", "contains",
                  "lattice_points", "_vertex_graph", "edges_at_vertex", "affine_image",
                  "restrict_to_affine_hull", "canonical_incidence",
                  "combinatorial_fingerprint"),
    "builders": ("admissible", "dual_side_data", "polygon_hrep", "gt_hrep",
                 "fm_polytope", "gt_slice", "entry_to_diag_map"),
    "toric": ("normal_fan", "singularity_report", "_catalogue", "facet_labels",
              "fan_fingerprint", "fan_to_json_dict"),
    "counting": ("count_dilates", "ehrhart_fit", "weight_multiplicity",
                 "verify_ehrhart_identity", "real_fiber_size", "verify_duality"),
    "reference": ("reference_battery",),
    "cli": ("main",),
}

CACHED = ("polytopes.h_to_v", "polytopes.v_to_h", "polytopes._vertex_graph")


def _work(name: str, args: tuple, result) -> tuple[int, int]:
    """(input size, output size) of one computed call, 0 where undefined."""
    if name == "polytopes.h_to_v":
        return 0, len(result.vertices)
    if name == "polytopes.v_to_h":
        return len(args[0].vertices), len(result.ineqs)
    if name == "polytopes._vertex_graph":
        v = len(result[0])
        return v * (v - 1) // 2, 0
    if name == "polytopes.lattice_points":
        return 0, len(result)
    return 0, 0


class Tracer:
    """Records spans and work counts for every traced call in this process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.current_request = -1
        self._stack: list[int] = []
        # name -> [calls, input size, output size]; sizes are summed over the
        # calls that missed the cache (every call, for uncached names).
        self.counts: dict[str, list[int]] = {}
        self.originals: dict[str, object] = {}
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counts = self.counts.setdefault(name, [0, 0, 0])
        cached = hasattr(fn, "cache_info")
        stack = self._stack
        span_name, start, end, parent, request = (
            self.span_name, self.start, self.end, self.parent, self.request)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            request.append(self.current_request)
            end.append(0.0)
            stack.append(idx)
            misses = fn.cache_info().misses if cached else 0
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            counts[0] += 1
            if not cached or fn.cache_info().misses != misses:
                size_in, size_out = _work(name, args, result)
                counts[1] += size_in
                counts[2] += size_out
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever weightpoly binds it."""
        loaded = [m for key, m in sys.modules.items()
                  if key == "weightpoly" or key.startswith("weightpoly.")]
        for module_name, funcs in TRACED.items():
            module = sys.modules[f"weightpoly.{module_name}"]
            for func in funcs:
                original = getattr(module, func)
                name = f"{module_name}.{func}"
                self.originals[name] = original
                wrapper = self._wrap(name, original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in self._rebound:
            setattr(mod, attr, original)
        self._rebound.clear()

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) of each cached function, from its cache_info()."""
        return {name: tuple(self.originals[name].cache_info()[:2]) for name in CACHED}

    def span_names(self) -> list[str]:
        return [self.names[n] for n in self.span_name]

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\trequest\n")
            for i, (n, s, e, p, r) in enumerate(zip(
                    self.span_name, self.start, self.end, self.parent, self.request)):
                fh.write(f"{i}\t{self.names[n]}\t{s:.9f}\t{e:.9f}\t{p}\t{r}\n")


def self_times(start, end, parent) -> array:
    """Each span's duration minus the durations of its direct children.

    The traced program is single-threaded, so children nest inside their
    parent and never overlap one another.
    """
    own = array("d", (e - s for s, e in zip(start, end)))
    for s, e, p in zip(start, end, parent):
        if p >= 0:
            own[p] -= e - s
    return own


def summarize(names, start, end, parent) -> dict[str, float]:
    """Per-module self time and per-function inclusive time, in seconds.

    Spans must be in call order, as the tracer records them.  Inclusive time
    counts only the outermost span of a name, so a function reached again
    through its own callees is not counted twice.
    """
    own = self_times(start, end, parent)
    out: dict[str, float] = {f"{m}.self_s": 0.0 for m in MODULES}
    path: list[int] = []
    on_path: dict[str, int] = {}
    for i, (name, s, e, p) in enumerate(zip(names, start, end, parent)):
        while path and path[-1] != p:
            on_path[names[path.pop()]] -= 1
        out[name.split(".", 1)[0] + ".self_s"] += own[i]
        if not on_path.get(name):
            out[name + ".s"] = out.get(name + ".s", 0.0) + (e - s)
        on_path[name] = on_path.get(name, 0) + 1
        path.append(i)
    return out
