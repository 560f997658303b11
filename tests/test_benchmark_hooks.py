"""The names the benchmark tracer hooks must exist, so per-layer metrics survive refactors.

``perfbench/tracing.py`` wraps functions at the names their callers bound
them under; a renamed or removed binding would silently drop its
metrics from every traced run.
"""

import importlib.util
from pathlib import Path

import simhaus
import simhaus.cli  # noqa: F401  (the package does not import its CLI)

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
