"""Brute-force reference implementations the tests compare the package against.

Each oracle computes its value a second, independent way, at desk scale:
the minimax value by enumerating basic points, the simplex certificate
on the full tableau with one column per variable, face distances by
restricting the labeled vertex sets of the maximal faces and splitting
over connected components, the restricted LP of a face table entry by
set comparisons of its positional pieces, the LP a face-table key names
by reading its maximal pieces off one at a time, class distances by relabeling
one complex and calling the labeled ``distance`` for every bijection,
face images under every relabeling by a product of membership vectors
with the relabelings' vertex bits, the class matrix codes by scoring
every pair over all n! relabelings (no automorphism quotient) of those
images, the f-vector lower bound of a class pair from its face lists
and labeled face distances, the coset transversals one class at a
time, by sorted face ranks or by raw image masks, automorphism groups
by testing every permutation, canonical forms by a Python scan over explicit relabeling
tables, the complexes to enumerate by testing every family of vertex
subsets, and the enumeration's antichain levels by a Python walk that
keys each child by its canonical face list.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from operator import or_
from typing import Iterable, Sequence

import numpy as np

from simhaus import (
    Complex,
    EmptyInputError,
    MinimaxProblem,
    Rat,
    TooLargeError,
    apply_vertex_map,
    complex_from_faces,
    connected_components,
    distance,
    face_distance,
)
from simhaus._kernels import DOWN, _image_sets, canonical_faces, perm_bits
from simhaus.complex_core import Face, _maximal, normalize_face
from simhaus.exact_minimax import solve_minimax

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# minimax value: basic-point enumeration


def _solve_square(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination; None when the system has no unique solution."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * p for v, p in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


ORACLE_MAX_GROUND = 7


def oracle_minimax(problem: MinimaxProblem) -> Rat:
    """Same value as ``solve_minimax`` by brute-force basic-point enumeration.

    Candidate points are cut out by fixing a support T, equalizing |T|
    form values on it, and normalizing the total weight to one; every
    optimum of the epigraph program arises this way. Feasible candidates
    are scored by the full form maximum and the smallest score wins.
    Desk scale only: ground sets above ORACLE_MAX_GROUND raise.
    """
    ground = problem.ground_set
    n = len(ground)
    if n > ORACLE_MAX_GROUND:
        raise TooLargeError(f"oracle handles at most {ORACLE_MAX_GROUND} ground vertices, got {n}")
    forms = problem.face_forms
    if not forms:
        return ZERO

    index = {v: i for i, v in enumerate(ground)}
    form_sets = [frozenset(index[v] for v in g) for g in forms]
    best: Fraction | None = None
    for size in range(1, min(n, len(form_sets)) + 1):
        for support in combinations(range(n), size):
            for active in combinations(form_sets, size):
                matrix = [[ONE] * size]
                rhs = [ONE]
                lead = active[0]
                for other in active[1:]:
                    matrix.append([
                        (ONE if i in lead else ZERO) - (ONE if i in other else ZERO)
                        for i in support
                    ])
                    rhs.append(ZERO)
                point = _solve_square(matrix, rhs)
                if point is None or any(v < 0 for v in point):
                    continue
                weight = dict(zip(support, point))
                score = max(sum((weight.get(i, ZERO) for i in g), ZERO) for g in form_sets)
                if best is None or score < best:
                    best = score
    assert best is not None  # the simplex vertices are always candidates
    return best


def full_tableau_packing(k: int, forms: Sequence[Face], largest: list[int] | None = None
                         ) -> tuple[Rat, tuple[int, ...], tuple[int, ...], int]:
    """``(value, packing, cover, denominator)`` of the packing LP from the full tableau.

    The reference for ``exact_minimax._solve_packing``: the same
    fraction-free simplex with Bland's rule, but on the full
    ``(forms + 1) x (k + forms + 1)`` tableau, one column per variable.
    Every position of ``0..k-1`` must lie in some form. A ``largest``
    list gets the largest absolute entry of each tableau appended.
    """
    m = len(forms)
    width = k + m  # z per vertex, slack per form; column ``width`` is the rhs
    rows = []
    for j, g in enumerate(forms):
        row = [0] * (width + 1)
        for i in g:
            row[i] = 1
        row[k + j] = 1
        row[width] = 1
        rows.append(row)
    objective = [-1] * k + [0] * (m + 1)
    rows.append(objective)
    basis = list(range(k, width))
    d = 1
    while True:
        if largest is not None:
            largest.append(max(abs(a) for row in rows for a in row))
        c = next((j for j in range(width) if objective[j] < 0), None)
        if c is None:
            break
        r = -1
        for i in range(m):
            a = rows[i][c]
            if a > 0:
                if r < 0:
                    r = i
                    continue
                lhs = rows[i][width] * rows[r][c]
                rhs = rows[r][width] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r = i
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                row[:] = [(a * p - f * b) // d for a, b in zip(row, prow)]
        basis[r] = c
        d = p
    packing = [0] * k
    for i, b in enumerate(basis):
        if b < k:
            packing[b] = rows[i][width]
    return Fraction(d, objective[width]), tuple(packing), tuple(objective[k:width]), d


# ---------------------------------------------------------------------------
# face distance: the component route


def _restricted_forms(face: frozenset[int], k: Complex) -> tuple[Face, ...]:
    """K restricted to ``face`` as labeled vertex sets: the maximal members of ``{m ∩ face}``."""
    return _maximal(face.intersection(m) for m in k.maximal_faces)


def harmonic_combine(values: Iterable[Rat]) -> Rat:
    """``1 / sum(1/v)``, with any zero member collapsing the result to zero."""
    vals = list(values)
    if not vals:
        raise EmptyInputError("harmonic_combine needs at least one value")
    if any(v == 0 for v in vals):
        return ZERO
    return ONE / sum((ONE / v for v in vals), ZERO)


def face_distance_by_components(face: Iterable[int], k: Complex) -> Rat:
    """Same value as ``face_distance``, via the component decomposition.

    The face is split over the connected components of ``k`` it meets;
    the per-component minimax values merge as a harmonic sum, since the
    fractional cover number is additive over components.
    """
    f = normalize_face(face)
    fs = frozenset(f)
    if not fs <= k.vertex_set:
        return ONE
    parts = []
    for comp in connected_components(k):
        fi = fs & comp.vertex_set
        if not fi:
            continue
        forms = _restricted_forms(fi, comp)
        problem = MinimaxProblem(ground_set=tuple(sorted(fi)), face_forms=forms)
        parts.append(solve_minimax(problem).value)
    return ONE - harmonic_combine(parts)


def positional_forms(f: int, masks: Iterable[int]) -> tuple[Face, ...]:
    """The forms of the LP behind ``f``'s face table entry, with ``f`` and ``masks`` as bitmasks.

    Each piece ``m & f`` is written as the positions, among the set bits
    of ``f`` in increasing order, of its bits; the forms are the pieces no
    other piece strictly contains, sorted.
    """
    positions = [i for i in range(f.bit_length()) if f >> i & 1]
    pieces = {frozenset(j for j, i in enumerate(positions) if m >> i & 1) for m in masks}
    return tuple(sorted(tuple(sorted(p)) for p in pieces if not any(p < q for q in pieces)))


def key_lp(key: int) -> tuple[int, list[int]]:
    """The restricted LP a ``face_codes`` key names: a face over positions and its forms.

    The forms are the maximal pieces of the key's down-set, descending.
    The largest piece left in the set is maximal, since every piece
    containing it is larger, so they are read off largest first, each
    time dropping the down-set of the piece just read. They cover the
    positions ``0..k-1``, so the first holds position k-1 and the face
    is ``2**k - 1``. The zero key gives ``(1, [])``: one uncovered
    position, LP value 0, distance 1.
    """
    pieces = []
    while key:
        pieces.append(key.bit_length() - 1)
        key &= ~DOWN[pieces[-1]]
    return ((1 << pieces[0].bit_length()) - 1 if pieces else 1), pieces


# ---------------------------------------------------------------------------
# isomorphism classes: one relabeling at a time


def brute_class_distance(a: Complex, b: Complex) -> Rat:
    """Minimum of ``distance`` over every relabeling of ``a`` onto ``b``'s vertices."""
    if len(a.vertices) != len(b.vertices):
        return ONE
    return min(distance(apply_vertex_map(a, dict(zip(a.vertices, target))), b)
               for target in permutations(b.vertices))


def oracle_images(bits, masks) -> np.ndarray:
    """``images`` as a matrix product: each face's 0/1 membership vector times the vertex bits.

    Row ``p`` of ``bits`` holds ``1 << image(v)`` at column v, so the dot
    product with the membership vector of a face is the bitmask of its
    image under the ``p``-th relabeling.
    """
    n = bits.shape[1]
    member = (np.asarray(masks, dtype=np.uint8)[:, None] >> np.arange(n, dtype=np.uint8)) & 1
    return member @ bits.T


def full_scan_min_codes(tables, masks: Sequence[tuple[int, ...]], fwd, inv):
    """``pairwise_min_codes`` scanning every pair over all n! relabelings, no quotient.

    Per relabeling, the forward max reads the later tables at a's faces
    mapped forward, and the backward max reads a's table at the later
    classes' faces mapped back.
    """
    width = max(map(len, masks))
    padded = np.array([m + m[:1] * (width - len(m)) for m in masks], dtype=np.uint8)
    count = tables.shape[0]
    out = np.zeros((count, count), dtype=np.int64)
    back = np.stack([oracle_images(inv, m) for m in padded])
    for a in range(count - 1):
        forward = tables[a + 1:][:, oracle_images(fwd, padded[a])].max(axis=1)
        backward = tables[a][back[a + 1:]].max(axis=1)
        out[a, a + 1:] = np.maximum(forward, backward).min(axis=-1)
    return out + out.T


def fvector_lower_bound(a: Complex, b: Complex, sizes: Iterable[int] | None = None) -> Rat:
    """``_kernels.fvector_bound`` of one pair, from the face lists and exact face distances.

    For each face size k where one side has more k-faces than the other,
    the term is the least ``face_distance`` to the side with fewer from a
    k-subset of the vertices of both that is not one of its faces. The
    bound is the largest term, 0 when there is none. Only sizes in
    ``sizes`` count (every size by default), since the face tables fill
    only the sizes of their call's masks and an unfilled size's term is 0.
    """
    universe = sorted(a.vertex_set | b.vertex_set)
    best = ZERO
    for k in range(1, len(universe) + 1) if sizes is None else sizes:
        for more, fewer in ((a, b), (b, a)):
            if sum(len(f) == k for f in more.faces) > sum(len(f) == k for f in fewer.faces):
                best = max(best, min(face_distance(g, fewer) for g in combinations(universe, k)
                                     if g not in fewer.faces))
    return best


def coset_transversal(imgs, n: int) -> np.ndarray:
    """``_kernels.coset_transversals`` for one class, keyed by its columns of sorted image ranks.

    ``imgs`` holds the class's faces' images under every relabeling, as
    ``images(perm_bits(n)[0], masks)`` returns them. Relabelings are
    keyed by the key ``canonical_faces`` minimizes (``_image_sets``), in
    one stable sort, so the first relabeling of each run of equal columns
    is the lowest-numbered one with that image set.
    """
    keys, order = _image_sets(imgs, n)
    changed = np.diff(keys[:, order], axis=1).any(axis=0)
    return np.sort(order[np.concatenate(([True], changed))])


def reference_transversal(masks: Sequence[int], n: int) -> np.ndarray:
    """``coset_transversal`` keyed by the sorted raw image masks, one void scalar per relabeling.

    ``np.unique`` returns the lowest-numbered relabeling of each distinct
    image set, sorted ascending here.
    """
    fwd, _ = perm_bits(n)
    keys = np.ascontiguousarray(np.sort(oracle_images(fwd, masks), axis=0).T)
    first = np.unique(keys.view(f"V{len(masks)}").ravel(), return_index=True)[1]
    return np.sort(first)


def automorphism_count(k: Complex) -> int:
    """Number of vertex permutations that map ``k``'s maximal faces onto themselves."""
    return sum(apply_vertex_map(k, dict(zip(k.vertices, target))).maximal_faces == k.maximal_faces
               for target in permutations(k.vertices))


def _perm_mask_table(n: int, perm: Sequence[int]) -> list[int]:
    table = [0] * (1 << n)
    for mask in range(1 << n):
        img = 0
        for v in range(n):
            if mask >> v & 1:
                img |= 1 << perm[v]
        table[mask] = img
    return table


def _canonical_masks(masks: Sequence[int], perm_tables: Sequence[Sequence[int]],
                     rank: Sequence[int]) -> tuple[int, ...]:
    """Minimal relabeled face list, compared through lexicographic face ranks."""
    best_key: tuple[int, ...] | None = None
    best: tuple[int, ...] | None = None
    for table in perm_tables:
        imgs = sorted(table[m] for m in masks)
        key = tuple(sorted(rank[m] for m in imgs))
        if best_key is None or key < best_key:
            best_key = key
            best = tuple(sorted(imgs, key=lambda m: rank[m]))
    assert best is not None
    return best


def brute_canonical_form(k: Complex) -> tuple[Face, ...]:
    """Encoding of the least relabeled face list, scanning all n! relabelings in Python."""
    n = len(k.vertices)
    compress = {v: i for i, v in enumerate(k.vertices)}
    masks = [sum(1 << compress[v] for v in m) for m in k.maximal_faces]
    decode = [tuple(v for v in range(n) if mask >> v & 1) for mask in range(1 << n)]
    rank = [0] * (1 << n)
    for i, m in enumerate(sorted(range(1, 1 << n), key=lambda m: decode[m])):
        rank[m] = i
    perm_tables = [_perm_mask_table(n, p) for p in permutations(range(n))]
    best = _canonical_masks(masks, perm_tables, rank)
    return tuple(sorted(decode[m] for m in best))


def covering_antichains(n: int) -> list[tuple[int, ...]]:
    """Every antichain of nonempty subsets of {0..n-1} (as bitmasks) whose union is everything.

    Tries all ``2**(2**n - 1)`` families of masks; desk scale, n <= 4.
    """
    masks = range(1, 1 << n)
    full = (1 << n) - 1
    return [family
            for r in range(1, len(masks) + 1)
            for family in combinations(masks, r)
            if reduce(or_, family) == full
            and all(a & b not in (a, b) for a, b in combinations(family, 2))]


def walk_levels(n: int) -> list[list[tuple[int, ...]]]:
    """``_kernels.antichain_levels`` by a Python loop over children, one ``canonical_faces`` each.

    A child is a representative plus one mask incomparable to all of its
    masks; the first child with a new canonical face list represents its
    orbit at the next level.
    """
    levels = []
    level: list[tuple[int, ...]] = [()]
    while True:
        children: dict[tuple[Face, ...], tuple[int, ...]] = {}
        for rep in level:
            for m in range(1, 1 << n):
                if all(m & c not in (c, m) for c in rep):
                    children.setdefault(canonical_faces(rep + (m,), n), rep + (m,))
        if not children:
            return levels
        level = list(children.values())
        levels.append(level)


def walk_encodings(n: int) -> list[tuple[Face, ...]]:
    """The encodings of ``enumerate_classes(n)`` in order, from ``walk_levels``."""
    full = (1 << n) - 1
    encodings = [canonical_faces(rep, n) for level in walk_levels(n)
                 for rep in level if reduce(or_, rep) == full]
    return sorted(encodings, key=lambda faces: (len(complex_from_faces(faces).faces), faces))
