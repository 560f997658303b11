"""The names the benchmark tracer hooks must exist, so per-layer metrics survive refactors.

``perfbench/tracing.py`` wraps functions at the names their callers bound
them under; a renamed or removed binding would silently drop its
metrics from every traced run. The LP counts behind the hooked solve
binding are pinned here too, so a change to them fails the fast suite
and not only ``perfbench/selftest.py``.
"""

import importlib.util
from pathlib import Path

import simhaus
import simhaus.cli  # noqa: F401  (the package does not import its CLI)
from simhaus import (class_distance_matrix, enumerate_classes, exact_minimax, hausdorff_metric,
                     iso_metric)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_is_callable():
    tracing = load_tracing()
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracing.HOOKS
               if not callable(getattr(getattr(simhaus, module, None), attr, None))]
    assert not missing


def test_face_distance_cache_is_observable():
    tracing = load_tracing()
    module, attr = tracing.CACHE_HOOK
    cached = getattr(getattr(simhaus, module), attr)
    assert callable(cached.cache_info)


def test_matrix4_solve_counts(monkeypatch):
    # the traced solve count goes through the hooked binding; the LP memo
    # below it decides how many of those calls run the simplex
    calls, solves = [], []
    solve, pack = hausdorff_metric.solve_minimax, exact_minimax._solve_packing
    monkeypatch.setattr(hausdorff_metric, "solve_minimax", lambda p: calls.append(p) or solve(p))
    monkeypatch.setattr(exact_minimax, "_solve_packing", lambda g, f: solves.append(f) or pack(g, f))
    hausdorff_metric._face_distance_cached.cache_clear()
    exact_minimax._solve_positional.cache_clear()
    iso_metric._face_value.cache_clear()
    class_distance_matrix(enumerate_classes(4))
    assert (len(calls), len(solves)) == (28, 28)
    # 28 LPs and four subsets that lie in a face
    assert iso_metric._face_value.cache_info().misses == 32
