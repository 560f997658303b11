"""Per-layer tracing from outside the program.

The tracer replaces public functions at the name their caller imported
them under (for example ``solve_minimax`` as bound in
``hausdorff_metric``) with a wrapper that records a span: name, start,
end and parent span id. Spans live in flat arrays until the pass ends;
self time is a span's duration minus that of its direct children. Where
a hook target no longer exists, the metrics that need it are omitted and
a note says why, so the trace survives refactors of the program.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

# (module of simhaus, name bound there, span name, observer)
HOOKS = (
    ("cli", "enumerate_classes", "iso_metric.enumerate_classes", "classes"),
    ("cli", "class_distance_matrix", "iso_metric.class_distance_matrix", None),
    ("iso_metric", "face_distance", "hausdorff_metric.face_distance", None),
    ("iso_metric", "pairwise_min_codes", "kernels.pairwise_min_codes", "kernel"),
    ("iso_metric", "complex_from_faces", "complex_core.complex_from_faces", None),
    ("complex_core", "complex_from_faces", "complex_core.complex_from_faces", None),
    ("hausdorff_metric", "solve_minimax", "exact_minimax.solve", "solve"),
    ("hausdorff_metric", "connected_components", "complex_core.connected_components", None),
)
CACHE_HOOK = ("hausdorff_metric", "_face_distance_cached")

# Every per-layer metric: (name, unit, spans or observers it needs).
PER_LAYER = (
    ("iso_metric.enumerate_classes.s", "s", ("iso_metric.enumerate_classes",)),
    ("iso_metric.enumerate_classes.classes", "count", ("classes",)),
    ("iso_metric.canonical_form.s", "s", ("iso_metric.canonical_form",)),
    ("iso_metric.canonical_form.calls", "count", ("iso_metric.canonical_form",)),
    ("iso_metric.class_distance.s", "s", ("iso_metric.class_distance",)),
    ("iso_metric.class_distance.calls", "count", ("iso_metric.class_distance",)),
    ("iso_metric.class_distance.self_s", "s",
     ("iso_metric.class_distance", "hausdorff_metric.face_distance")),
    ("iso_metric.class_distance_matrix.self_s", "s",
     ("iso_metric.class_distance_matrix", "hausdorff_metric.face_distance",
      "kernels.pairwise_min_codes")),
    ("exact_minimax.solve.calls", "count", ("exact_minimax.solve",)),
    ("exact_minimax.solve.s", "s", ("exact_minimax.solve",)),
    ("exact_minimax.solve.mean_forms", "count", ("solve",)),
    ("exact_minimax.solve.max_forms", "count", ("solve",)),
    ("exact_minimax.solve.mean_ground", "count", ("solve",)),
    ("exact_minimax.distinct_ratio", "ratio", ("solve",)),
    ("hausdorff_metric.face_distance.calls", "count", ("hausdorff_metric.face_distance",)),
    ("hausdorff_metric.face_distance.s", "s", ("hausdorff_metric.face_distance",)),
    ("hausdorff_metric.distance.s", "s", ("hausdorff_metric.distance",)),
    ("hausdorff_metric.cache_lookups", "count", ("cache",)),
    ("hausdorff_metric.cache_hit_ratio", "ratio", ("cache",)),
    ("kernels.pairs", "count", ("kernel",)),
    ("kernels.relabelings", "count", ("kernel",)),
    ("kernels.s", "s", ("kernels.pairwise_min_codes",)),
    ("kernels.relabelings_per_s", "1/s", ("kernel", "kernels.pairwise_min_codes")),
    ("complex_core.connected_components.calls", "count", ("complex_core.connected_components",)),
    ("complex_core.connected_components.s", "s", ("complex_core.connected_components",)),
    ("complex_core.complex_from_faces.calls", "count", ("complex_core.complex_from_faces",)),
    ("complex_core.complex_from_faces.s", "s", ("complex_core.complex_from_faces",)),
    ("cli.main.self_s", "s", ("cli.main", "iso_metric.enumerate_classes",
                              "iso_metric.class_distance_matrix")),
    ("trace.overhead_s", "s", ()),
)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.span_names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.live: set[str] = set()
        self.notes: list[str] = []
        self._undo: list[tuple] = []
        self.classes = 0
        self.solve_calls = 0
        self.solve_forms = 0
        self.solve_max_forms = 0
        self.solve_ground = 0
        self.solve_keys: set = set()
        self.kernel_pairs = 0
        self.kernel_relabelings = 0
        self._cache = None
        self._cache_before = None
        self.cache_hits = 0
        self.cache_lookups = 0

    def wrap(self, span: str, fn, observe=None):
        if span not in self._name_index:
            self._name_index[span] = len(self.span_names)
            self.span_names.append(span)
        ix = self._name_index[span]
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(ix)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                self._observe(observe, args, result)
            return result

        self.live.add(span)
        return traced

    def _observe(self, kind: str, args: tuple, result) -> None:
        if kind not in self.live:
            return
        try:
            if kind == "solve":
                problem = args[0]
                ground, forms = problem.ground_set, problem.face_forms
                index = {v: i for i, v in enumerate(sorted(ground))}
                self.solve_calls += 1
                self.solve_forms += len(forms)
                self.solve_max_forms = max(self.solve_max_forms, len(forms))
                self.solve_ground += len(ground)
                self.solve_keys.add((len(ground), tuple(sorted(
                    tuple(sorted(index[v] for v in g)) for g in forms))))
            elif kind == "kernel":
                classes, perms = args[0].shape[0], args[3].shape[0]
                pairs = classes * (classes - 1) // 2
                self.kernel_pairs += pairs
                self.kernel_relabelings += pairs * perms
            elif kind == "classes":
                self.classes += len(result)
        except (AttributeError, IndexError, TypeError) as exc:
            self.live.discard(kind)
            self.notes.append(f"observer {kind} no longer fits the call ({exc!r}); its metrics are omitted")

    def install(self, sh, calls: dict) -> dict:
        """Hook the program's modules; returns ``calls`` wrapped in spans."""
        for module_name, attr, span, observe in HOOKS:
            module = getattr(sh, module_name, None)
            target = getattr(module, attr, None)
            if not callable(target):
                self.notes.append(f"hook missing: {module_name}.{attr}; metrics of {span} omitted")
                continue
            self._undo.append((module, attr, target))
            setattr(module, attr, self.wrap(span, target, observe))
            if observe is not None:
                self.live.add(observe)
        cached = getattr(getattr(sh, CACHE_HOOK[0], None), CACHE_HOOK[1], None)
        if callable(getattr(cached, "cache_info", None)):
            self._cache = cached
            self._cache_before = cached.cache_info()
            self.live.add("cache")
        else:
            self.notes.append(f"hook missing: {'.'.join(CACHE_HOOK)}.cache_info; cache metrics omitted")
        return {span: self.wrap(span, fn) for span, fn in calls.items()}

    def uninstall(self) -> None:
        """Restore every hooked name and close the cache counters."""
        for module, attr, target in reversed(self._undo):
            setattr(module, attr, target)
        self._undo.clear()
        if self._cache is not None:
            after = self._cache.cache_info()
            self.cache_hits = after.hits - self._cache_before.hits
            self.cache_lookups = self.cache_hits + after.misses - self._cache_before.misses

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per span name."""
        count = len(self.start)
        child = array("d", bytes(8 * count))
        duration = array("d", (self.end[i] - self.start[i] for i in range(count)))
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for name in self.span_names:
            totals[name]  # spans that never ran report zero
        for i in range(count):
            entry = totals[self.span_names[self.name[i]]]
            entry["calls"] += 1
            entry["s"] += duration[i]
            entry["self_s"] += duration[i] - child[i]
        return totals

    def metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Every per-layer metric whose hooks are live (``trace.overhead_s`` aside).

        Times are multiplied by ``scale`` (and rates divided by it).
        """
        spans = self.span_totals()
        solve_calls = self.solve_calls
        kernel_s = spans.get("kernels.pairwise_min_codes", {}).get("s", 0.0)
        derived = {
            "iso_metric.enumerate_classes.classes": self.classes,
            "exact_minimax.solve.mean_forms": self.solve_forms / solve_calls if solve_calls else 0.0,
            "exact_minimax.solve.max_forms": self.solve_max_forms,
            "exact_minimax.solve.mean_ground": self.solve_ground / solve_calls if solve_calls else 0.0,
            "exact_minimax.distinct_ratio": len(self.solve_keys) / solve_calls if solve_calls else 0.0,
            "kernels.pairs": self.kernel_pairs,
            "kernels.relabelings": self.kernel_relabelings,
            "kernels.s": kernel_s,
            "kernels.relabelings_per_s": self.kernel_relabelings / kernel_s if kernel_s else 0.0,
        }
        if "cache" in self.live:
            derived["hausdorff_metric.cache_lookups"] = self.cache_lookups
            derived["hausdorff_metric.cache_hit_ratio"] = (
                self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0)
        out: dict[str, float] = {}
        for name, unit, needs in PER_LAYER:
            if not needs or not all(n in self.live for n in needs):
                continue
            if name in derived:
                value = derived[name]
            else:
                span, _, field = name.rpartition(".")
                value = spans[span][field]
            out[name] = value * scale if unit == "s" else value / scale if unit == "1/s" else value
        return out
