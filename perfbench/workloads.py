"""Seeded inputs, one timed pass and exact output checks for each workload.

Why each workload exists:

* ``classes5``: the paper's headline table, ``simhaus matrix 5 --extended``
  run in process (180 classes, 16110 pairs). It drives class enumeration,
  about 2640 small exact LPs and the relabeling kernel together. It has no
  inputs, so the seed has no effect.
* ``labeled``: at least 100 labeled ``distance`` pairs on 9-12 vertices with
  equal vertex sets. Full simplices against random 3- and 4-uniform
  complexes give single LPs with 26-36 forms; sparse random pairs give many
  small LPs; disconnected pairs take the component / harmonic route. No
  isomorphism or kernel work, so an LP change must show its gain on large
  problems here, not only on the <= 5-vertex LPs of ``classes5``.
* ``iso_pairs``: at least 100 ``class_distance`` pairs, mostly on 6-7
  vertices with a few on 8, plus a few ``canonical_form`` calls on 7
  vertices. The face-distance memo is hit on nearly every lookup here,
  the opposite of ``classes5``, so any per-lookup cost a memo change adds
  shows up as a slowdown.

The item counts are set so that the median and the 90th percentile item
each fall well inside one group of like items (labeled: sparse pairs and
the 24 LPs of 26 triangles on 10 vertices; iso_pairs: 6- and 7-vertex
pairs of four triangles each), not on the edge between two groups, where
they would jump from seed to seed.

A pass returns the time of every item and the raw outputs; ``check``
compares the outputs exactly and names every item that failed.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

WORKLOADS = ("classes5", "labeled", "iso_pairs")
DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Acceptance criterion 3: the 18 distinct values of the 5-vertex table.
CLASSES5_VALUES = {Fraction(a, b) for b in range(1, 6) for a in range(0, b)} | {
    Fraction(2, 7), Fraction(3, 8), Fraction(3, 7), Fraction(4, 9),
    Fraction(5, 9), Fraction(4, 7), Fraction(5, 8), Fraction(5, 7)}
CLASSES5_COUNT = 180

# labeled: (vertex count, uniformity, form count) of each large LP item.
# The schedule is fixed so that only the random structure varies by seed.
LABELED_HEAVY = [(10, 3, 26)] * 24 + [(11, 3, 36), (12, 4, 36)]
LABELED_SPARSE = 60
LABELED_DISCONNECTED = 18
# iso_pairs: (vertex count, number of class_distance pairs), then canonical forms.
ISO_PAIRS = ((6, 80), (7, 40), (8, 2))
ISO_CANONICAL = (7, 2)
ISO_FACES = (4, 3, 3)  # faces per complex: count, smallest and largest size
LABEL_RANGE = 64


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


# ---------------------------------------------------------------------------
# generation


def _labels(rng: random.Random, n: int) -> list[int]:
    return sorted(rng.sample(range(LABEL_RANGE), n))


def _covering(rng: random.Random, verts: list[int], count: int, lo: int, hi: int) -> list[list[int]]:
    """``count`` random faces of size lo..hi whose union is all of ``verts``."""
    while True:
        faces = [rng.sample(verts, rng.randint(lo, hi)) for _ in range(count)]
        if set().union(*map(set, faces)) == set(verts):
            return faces


def _uniform(rng: random.Random, verts: list[int], k: int, m: int) -> list[tuple[int, ...]]:
    """``m`` distinct random k-subsets of ``verts`` covering every vertex."""
    while True:
        faces: set[tuple[int, ...]] = set()
        while len(faces) < m:
            faces.add(tuple(sorted(rng.sample(verts, k))))
        if set().union(*faces) == set(verts):
            return sorted(faces)


def _disconnected(rng: random.Random, verts: list[int]) -> list[list[int]]:
    """Random faces on two or three disjoint blocks of at least 3 of ``verts``."""
    order = list(verts)
    rng.shuffle(order)
    sizes = [3] * (3 if len(order) >= 11 else 2)
    for _ in range(len(order) - sum(sizes)):
        sizes[rng.randrange(len(sizes))] += 1
    faces = []
    start = 0
    for size in sizes:
        faces += _covering(rng, order[start:start + size], 3, 2, 3)
        start += size
    return faces


def generate(sh, name: str, seed: int) -> list[tuple]:
    """Items of one workload; the same seed gives the same items.

    Each item is a tuple whose first member is its kind. ``sh`` is the
    imported ``simhaus`` package; only ``complex_from_faces`` is used.
    """
    rng = random.Random(f"{name}:{seed}")
    cff = sh.complex_from_faces
    items: list[tuple] = []
    if name == "classes5":
        items.append(("matrix",))
    elif name == "labeled":
        for n in (9, 10, 11, 12):
            verts = _labels(rng, n)
            full = cff([verts])
            for k in (1, n - 1):
                # closed form: full n-simplex against all k-subsets is 1 - k/n
                items.append(("closed", full, cff(combinations(verts, k)), Fraction(n - k, n)))
        for n, k, m in LABELED_HEAVY:
            verts = _labels(rng, n)
            items.append(("heavy", cff([verts]), cff(_uniform(rng, verts, k, m)), None))
        for i in range(LABELED_SPARSE):
            verts = _labels(rng, 9 + i % 4)
            items.append(("sparse", cff(_covering(rng, verts, 8, 2, 3)),
                          cff(_covering(rng, verts, 8, 2, 3)), None))
        for i in range(LABELED_DISCONNECTED):
            verts = _labels(rng, 9 + i % 4)
            items.append(("disconnected", cff(_disconnected(rng, verts)),
                          cff(_disconnected(rng, verts)), None))
    elif name == "iso_pairs":
        for n, count in ISO_PAIRS:
            for _ in range(count):
                a = cff(_covering(rng, _labels(rng, n), *ISO_FACES))
                b = cff(_covering(rng, _labels(rng, n), *ISO_FACES))
                items.append(("class_distance", a, b))
        n, count = ISO_CANONICAL
        for _ in range(count):
            items.append(("canonical_form", cff(_covering(rng, _labels(rng, n), 5, 2, 4))))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return items


def describe(items: list[tuple]) -> str:
    """Stable text of the generated inputs, for determinism checks."""
    lines = []
    for kind, *args in items:
        parts = [repr(sorted(a.maximal_faces)) if hasattr(a, "maximal_faces") else repr(a) for a in args]
        lines.append(" ".join([kind] + parts))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# one pass


def entry_points(sh) -> dict:
    """The public calls a pass makes, keyed by the name the tracer gives them."""
    return {
        "cli.main": sh.cli.main,
        "hausdorff_metric.distance": sh.distance,
        "iso_metric.class_distance": sh.class_distance,
        "iso_metric.canonical_form": sh.canonical_form,
    }


def run_pass(items: list[tuple], scratch: Path, calls: dict, clock=time.perf_counter):
    """Run every item once; returns (pass span, per-item spans, outputs).

    A span is the pair of ``clock`` readings at its start and end.
    ``calls`` is ``entry_points(sh)``, possibly with traced wrappers, and
    ``clock`` the timer to read. An item that raises yields its exception
    as output; a ``matrix`` item yields the exit code and the bytes of the
    TSV it wrote.
    """
    main = calls["cli.main"]
    dist = calls["hausdorff_metric.distance"]
    class_dist = calls["iso_metric.class_distance"]
    canonical = calls["iso_metric.canonical_form"]
    out_path = scratch / "matrix5.tsv"
    spans: list[tuple[float, float]] = []
    outputs: list = []
    start = clock()
    for item in items:
        kind = item[0]
        t0 = clock()
        try:
            if kind == "matrix":
                result = main(["matrix", "5", "--extended", "--out", str(out_path)])
            elif kind == "class_distance":
                result = class_dist(item[1], item[2])
            elif kind == "canonical_form":
                result = canonical(item[1])
            else:
                result = dist(item[1], item[2])
        except Exception as exc:  # an item that raises counts as failed
            result = exc
        spans.append((t0, clock()))
        outputs.append(result)
    whole = (start, clock())
    if items[0][0] == "matrix":
        outputs = [(rc, out_path.read_bytes() if out_path.exists() else b"") for rc in outputs]
    return whole, spans, outputs


# ---------------------------------------------------------------------------
# checks


def output_record(name: str, items: list[tuple], outputs: list) -> list:
    """The outputs as JSON-friendly values, as stored in ``golden.json``."""
    if name == "classes5":
        return [hashlib.sha256(data).hexdigest() for _, data in outputs]
    record = []
    for item, out in zip(items, outputs):
        if item[0] == "canonical_form":
            record.append([list(f) for f in out.encoding])
        elif item[0] == "class_distance":
            record.append(f"{out.value.numerator}/{out.value.denominator}")
        else:
            record.append(f"{out.numerator}/{out.denominator}")
    return record


def _check_matrix(rc, data: bytes, golden: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    digest = hashlib.sha256(data).hexdigest()
    lines = data.decode().splitlines()
    header = lines[0].split("\t") if lines else []
    if len(header) != CLASSES5_COUNT:
        return f"{len(header)} classes, expected {CLASSES5_COUNT}"
    values: set[Fraction] = set()
    for row in lines[1:]:
        cells = row.split("\t")
        if len(cells) != CLASSES5_COUNT:
            return "matrix is not square"
        values.update(Fraction(c) for c in cells)
    if len(lines) != CLASSES5_COUNT + 1:
        return "matrix is not square"
    if values != CLASSES5_VALUES:
        return f"value set differs: {sorted(values ^ CLASSES5_VALUES)}"
    if digest != golden["classes5"]["tsv_sha256"]:
        return f"TSV digest {digest} differs from the recorded one"
    return None


def _check_item(sh, item: tuple, out) -> str | None:
    kind = item[0]
    if kind == "canonical_form":
        if not isinstance(out, sh.CanonicalComplex):
            return f"returned {type(out).__name__}"
        src = item[1]
        n = len(src.vertices)
        if out.complex.vertices != tuple(range(n)):
            return "canonical vertices are not 0..n-1"
        if sorted(map(len, out.complex.maximal_faces)) != sorted(map(len, src.maximal_faces)):
            return "canonical form has other face sizes"
        if out.encoding != tuple(sorted(out.complex.maximal_faces)):
            return "encoding is not the sorted maximal faces"
        return None
    if kind == "class_distance":
        value, witness = out.value, out.witness_bijection
        a, b = item[1], item[2]
        if witness is None or sorted(witness) != list(a.vertices) \
                or sorted(witness.values()) != list(b.vertices):
            return "witness is not a bijection between the vertex sets"
        value_ok = isinstance(value, Fraction) and 0 <= value <= 1
        if not value_ok or sh.distance(sh.apply_vertex_map(a, witness), b) != value:
            return f"witness does not re-score to {value}"
        return None
    if not isinstance(out, Fraction) or not 0 <= out <= 1:
        return f"distance {out!r} is not a rational in [0, 1]"
    if (out == 0) != (item[1] == item[2]):
        return f"distance {out} breaks: zero exactly for equal complexes"
    if kind == "closed" and out != item[3]:
        return f"expected {item[3]}, got {out}"
    return None


def check(sh, name: str, seed: int, items: list[tuple], outputs: list,
          golden: dict) -> list[str | None]:
    """One entry per item: None when exact and consistent, else why it failed."""
    if name == "classes5":
        return [_check_matrix(rc, data, golden) for rc, data in outputs]
    problems: list[str | None] = []
    for item, out in zip(items, outputs):
        if isinstance(out, Exception):
            problems.append(f"raised {out!r}")
            continue
        try:
            problems.append(_check_item(sh, item, out))
        except Exception as exc:  # a malformed output must not stop the checker
            problems.append(f"check raised {exc!r}")
    if seed == golden[name]["seed"]:
        expected = golden[name]["outputs"]
        for i, item in enumerate(items):
            if problems[i] is None and output_record(name, [item], [outputs[i]]) != [expected[i]]:
                problems[i] = f"differs from the golden output {expected[i]}"
    return problems
