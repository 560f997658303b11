"""The names the benchmark tracer hooks must exist, so per-layer metrics survive refactors.

``perfbench/tracing.py`` wraps functions at the names their callers bound
them under; a renamed or removed binding would silently drop its
metrics from every traced run. The LP counts of the class face tables
are pinned here too, at n = 4 and 5, so a change to them fails the fast
suite and not only ``perfbench/selftest.py``.
"""

import importlib.util
from pathlib import Path

import simhaus
import simhaus.cli  # noqa: F401  (the package does not import its CLI)
from simhaus import _kernels, class_distance_matrix, enumerate_classes, hausdorff_metric, iso_metric

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
    # the face tables send every key the memo misses to one batch, which
    # solves its LPs together; none of them goes through the hooked
    # ``solve_minimax`` binding, which only labeled distances use
    calls, batches, solved = [], [], []
    solve, distances, pack = (hausdorff_metric.solve_minimax, iso_metric.key_distances,
                              _kernels.packings)
    monkeypatch.setattr(hausdorff_metric, "solve_minimax", lambda p: calls.append(p) or solve(p))
    monkeypatch.setattr(iso_metric, "key_distances", lambda keys: batches.append(keys) or distances(keys))
    monkeypatch.setattr(_kernels, "packings", lambda a: solved.append(len(a)) or pack(a))
    iso_metric._face_memo.clear()
    classes = enumerate_classes(4)
    class_distance_matrix(classes)
    # 28 LPs and four subsets that lie in a face
    assert (len(calls), [len(b) for b in batches], solved) == (0, [32], [28])
    class_distance_matrix(classes)
    assert (len(calls), len(batches), solved) == (0, 1, [28])


def test_matrix5_solve_counts(monkeypatch):
    # the ``classes5`` face-table traffic: one batch of 277 keys, 272 LPs
    # and five subsets that lie in a face, and none on a second call
    batches, solved = [], []
    distances, pack = iso_metric.key_distances, _kernels.packings
    monkeypatch.setattr(iso_metric, "key_distances", lambda keys: batches.append(keys) or distances(keys))
    monkeypatch.setattr(_kernels, "packings", lambda a: solved.append(len(a)) or pack(a))
    iso_metric._face_memo.clear()
    classes = enumerate_classes(5)
    class_distance_matrix(classes)
    assert ([len(b) for b in batches], solved) == ([277], [272])
    class_distance_matrix(classes)
    assert (len(batches), solved) == (1, [272])
