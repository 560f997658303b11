"""The relabeling engine: every vertex bijection at once, as numpy arrays.

A face over {0..n-1} is a bitmask. A relabeling is stored as the row of
its vertex bits, ``bits[v] = 1 << image(v)``, and the rows are stored
column by column, so ``bits[:, v]``, the image of vertex v under every
relabeling, is one contiguous run. The image of a face under every
relabeling is then the sum of the columns of its vertices, one uint8 add
of n! bytes per vertex. Images stay below ``2**n``, so uint8 holds bits,
images and lexicographic face ranks alike (the sum adds distinct powers
of two and never wraps). That choice is the engine's cap, ``MAX_VERTICES`` = 8, and
``perm_bits`` is the one place that refuses more, with TooLargeError.
Every entry point calls it before any work that grows with ``n``.

Distances enter as small integer codes, indices into a sorted table of
exact rationals (``face_codes``). A face table entry, the distance from
a vertex subset f to a class, depends only on the restricted LP: the
maximal pieces ``m & f`` with the bits of f renumbered by position.
``face_codes`` keys every (class, subset) pair by the down-set of those
positional pieces, asks its caller once for the values of all distinct
keys and scatters the codes back. A value is a function of the key
alone. The pieces of a k-subset lie below ``2**k``, so its key is a
``2**k``-bit set: a call reads only the ``ceil(2**k / 64)`` uint64 words
of its largest subset (``_lp_tables``), one word, deduplicated as plain
uint64, up to 6 vertices. Keys leave as Python ints, the same at every
width, so one int names one LP across calls and vertex counts. A
subset with a vertex outside its class gets the zero key, at distance 1,
so one call at the widest vertex count of a list serves every count.
The code order mirrors the value order, so gathering, comparing and
selecting codes is exact. Canonical forms, class enumeration,
``class_distance`` and ``class_distance_matrix`` all scan relabelings
through this module, the only one that holds numpy arrays.

``key_distances`` solves the LPs of all keys of a call in one batch
(``packings``): the pivots of ``exact_minimax._solve_packing``, on
every LP at once, in int64. That is exact. Each entry of the
fraction-free tableau is ± a minor of the initial full tableau, whose
entries are in {-1, 0, 1}: by Cramer's rule, d times an entry of the
true tableau is the determinant of the basis with one column replaced,
and the unit columns of the basic slacks leave at most one row and
column per basic z plus one, an order of at most k + 1 ≤ 9 on k ≤ 8
positions. By Hadamard such a minor is at most 9^4.5 = 19683 < 2**15,
so an update ``a·p − f·b`` stays below 2**31. The ratio test compares
``rhs / a`` through ``(rhs << 32) // a``: two different quotients of
such integers differ by at least 2**-30, so their keys differ by at
least 4 and keep their order, and equal quotients have equal keys. No
float decides a pivot.

Canonical forms and ``class_distance`` scan all n! relabelings; the
class matrix scans one per automorphism coset. For an automorphism α of
class a (α(a) = a), ``table_a[α(f)] == table_a[f]``, because the distance
from α(f) to a equals the distance from f to α⁻¹(a) = a. So the
relabelings p∘α and p of a onto b score alike: forward, the images
p(α(a)) = p(a), so the forward max is unchanged; backward, ``table_a`` is
invariant under α⁻¹, so the backward max is unchanged. The minimum over
S_n is therefore the minimum over a left transversal of Aut(a), one
relabeling per image set p(a) (``coset_transversals``); the identity,
row 0, starts every transversal.

The matrix scans bound first. Let ``f_k(c)`` be the number of k-faces
of class c and ``m_k(c)`` the least code of ``table_c`` at a k-set that
is not a face of c. The f-vector bound LB(a, b) is the largest
``m_k(b)`` over the sizes k with ``f_k(a) > f_k(b)`` and ``m_k(a)`` over
those with ``f_k(b) > f_k(a)``, or 0 (``fvector_bound``). No relabeling
p of a onto b scores below it:

- a relabeling keeps f-vectors, so if ``f_k(a) > f_k(b)``, some k-face
  g of p(a) is not a face of b;
- face distance is monotone under inclusion: a face's distance is the
  largest over laws on its vertices, every law on g is one on a
  maximal face F ⊇ g of p(a), and a vertex outside b puts both at 1.
  So the forward side, at least ``table_b[F]``, is at least
  ``table_b[g] >= m_k(b)``; the backward side is the same argument
  through p⁻¹ with a and b swapped;
- codes keep the order of values, so the argument holds in codes;
- a size that the call's face tables did not fill reads code 0,
  distance 0, at every k-set, so its term is 0 and the bound stays
  valid.

Phase 1 scores every pair at the identity in one vectorized step, and a
pair whose score equals its bound is final. Phase 2 scores the pairs
still open over the rest of their row class's transversal, one row
class at a time (``pairwise_min_codes``). The matrix maps every subset g
under all n! relabelings once, both ways: ``p(g)`` and ``p⁻¹(g)``. Each
class's faces read from the forward table key its transversal and form
its forward side; for the backward side, ``table_a`` read through the
inverse table scores the open later classes at once.

A list of classes enters in one layout (``_segments``): all their masks
concatenated, plus each class's start, so one ``reduceat`` folds every
class's masks at once, for face-table keys, vertex sets and the face
membership of every subset (``face_members``), whose row sums are the
face counts and whose per-size sums are the bound's f-vectors. The
matrix leaves as one symmetric ``(C, C)`` array of codes in class
order, of the face tables' dtype.

Every orbit question reads one key order, the sorted lexicographic face
ranks of a relabeled face set, least first: per relabeling for canonical
forms and coset transversals (``_image_sets``), and in one machine word
per antichain for class enumeration (``antichain_levels``). There face m
sets bit ``2**n - 2 - rank(m)``, ``word_p(A)`` is the OR of the bits of
p(A), and the key of A is ``max over p of word_p(A)``. Relabelings keep
L faces distinct, and of two L-sets the one with the lexicographically
smaller sorted rank tuple has the larger word: below the first position
where the tuples differ both sets hold the same ranks, so the bit of the
smaller rank there is the highest differing bit. So the key is the word
of ``canonical_faces(A)`` (``key_faces`` decodes it), and exact on
orbits. It has ``2**n - 1`` bits, so it fits uint64 for n up to
``MAX_KEY_VERTICES`` = 6; a wider shift would wrap silently, so
``antichain_levels`` refuses more with TooLargeError before any work.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .errors import TooLargeError

MAX_VERTICES = 8
MAX_KEY_VERTICES = 6
# children keyed per pass of ``_child_keys``: a (KEY_CHUNK, n!) uint64
# accumulator, 5.6 MiB at n = 6
KEY_CHUNK = 1024
# face images per pass of ``coset_transversals`` (512 KiB per uint64 word), and cells
# per gathered block of ``pairwise_min_codes``
TRANSVERSAL_CELLS = 1 << 16
# DOWN[p]: the down-set {q : q & p == q} of an 8-bit piece p, as a 256-bit
# set; the pieces 2**i + r below 2**(i + 1) add bit i to those of r
DOWN = [1]
for i in range(8):
    DOWN += [d | d << (1 << i) for d in DOWN]
# face-table LPs per batch of ``packings``: at most 70 forms on 8 positions, 5 KiB each
LP_CHUNK = 4096


@lru_cache(maxsize=None)
def perm_bits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex bits of every relabeling of {0..n-1} and of its inverse.

    Row ``p`` of both ``(n!, n)`` uint8 arrays belongs to the ``p``-th
    permutation in ``itertools.permutations(range(n))`` order. The arrays
    are stored column by column (Fortran order), so the column of one
    vertex, its image under every relabeling, is contiguous for
    ``images``. They are cached per ``n`` and read-only. Raises
    TooLargeError above ``MAX_VERTICES``.
    """
    if n > MAX_VERTICES:
        raise TooLargeError(f"class operations capped at {MAX_VERTICES} vertices, got {n}")
    if n == 0:
        fwd = inv = np.ones((1, 0), dtype=np.uint8)
    else:
        fwd, inv = _extend_perm_bits(*perm_bits(n - 1))
    fwd.flags.writeable = False
    inv.flags.writeable = False
    return fwd, inv


def _extend_perm_bits(fwd: np.ndarray, inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``perm_bits(n)`` from the rows of ``perm_bits(n - 1)``, in one vectorized step each.

    The permutations of range(n) in lexicographic order are, for each
    first element i in turn, i followed by those of range(n - 1) with
    every entry >= i shifted up by one: a bit b of a shorter row stays
    below ``2**i`` and doubles from there, ``b + (b & -2**i)``. The
    inverse of such a row is the inverse of the shorter one plus one,
    doubling every bit, with bit 1 at column i: column v reads the
    shorter column v below i and v - 1 above it. Each result is written
    once, as ``(column, first element, shorter row)``, which is the
    Fortran order of the ``(n!, n)`` array.
    """
    n = fwd.shape[1] + 1
    first = np.left_shift(np.uint8(1), np.arange(n, dtype=np.uint8))
    shorter = fwd.T[:, None, :]
    out_fwd = np.empty((n, n, len(fwd)), dtype=np.uint8)
    out_fwd[0] = first[:, None]
    np.bitwise_and(shorter, -first[:, None], out=out_fwd[1:])  # -2**i in uint8: the bits at i and above
    out_fwd[1:] += shorter
    # row n - 1 of ``later`` is the bit 1 that sits at column i
    later = np.concatenate([inv.T << 1, np.ones((1, len(inv)), dtype=np.uint8)])
    column = np.arange(n)
    source = np.where(column[:, None] < column, column[:, None], column[:, None] - 1)
    source[column, column] = n - 1
    out_inv = later[source]
    return out_fwd.reshape(n, -1).T, out_inv.reshape(n, -1).T


def images(bits: np.ndarray, masks) -> np.ndarray:
    """``(len(masks), n!)`` bitmask images of the faces ``masks`` under each relabeling.

    Row f is the sum of the columns ``bits[:, v]`` over the vertices v of
    face f, one add per vertex; the columns are distinct powers of two,
    so the sum never wraps. Faces run along the first axis, so a max over
    faces combines whole contiguous rows of relabelings.
    """
    masks = np.asarray(masks, dtype=np.uint8).tolist()
    columns = bits.T
    out = np.zeros((len(masks), len(bits)), dtype=np.uint8)
    for row, m in zip(out, masks):
        for v in range(m.bit_length()):
            if m >> v & 1:
                row += columns[v]
    return out


@lru_cache(maxsize=None)
def _lex_table(n: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Nonempty faces of {0..n-1} in lexicographic order, and each bitmask's rank among them."""
    faces = sorted((tuple(v for v in range(n) if m >> v & 1), m) for m in range(1, 1 << n))
    rank = np.zeros(1 << n, dtype=np.uint8)
    rank[[m for _, m in faces]] = np.arange(len(faces))
    return tuple(f for f, _ in faces), rank


def _image_sets(imgs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The image set of some faces under each relabeling, and the relabelings in key order.

    ``imgs`` holds the faces' images under every relabeling, as
    ``images(perm_bits(n)[0], masks)`` returns them. Column ``p`` of the
    key array, of the same shape, holds the sorted lexicographic face
    ranks of the images under the ``p``-th relabeling; the ranks number
    the nonempty faces one to one, so two columns are equal exactly when
    their image sets are. The order is one stable ``np.lexsort`` of the
    columns, least first.
    """
    keys = np.sort(_lex_table(n)[1][imgs], axis=0)
    return keys, np.lexsort(keys[::-1])


def canonical_faces(masks: Sequence[int], n: int) -> tuple[tuple[int, ...], ...]:
    """Least relabeled face list of ``masks``, each list sorted lexicographically.

    Relabelings are compared through their sorted lexicographic face ranks
    (``_image_sets``); the least column decodes to the face list.
    """
    keys, order = _image_sets(images(perm_bits(n)[0], masks), n)
    faces, _ = _lex_table(n)
    return tuple(faces[r] for r in keys[:, order[0]].tolist())


@lru_cache(maxsize=None)
def _walk_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``incomparable[a, b]`` over all ``2**n`` masks, and ``bit[m, p]``, the key bit of p(m).

    Mask 0 is comparable with every mask, so it never extends an antichain.
    """
    masks = np.arange(1 << n, dtype=np.uint8)
    meet = masks[:, None] & masks
    incomparable = (meet != masks[:, None]) & (meet != masks)
    shift = (1 << n) - 2 - _lex_table(n)[1][images(perm_bits(n)[0], masks)]
    return incomparable, np.uint64(1) << shift.astype(np.uint64)


def _child_keys(level: np.ndarray, rep: np.ndarray, mask: np.ndarray, n: int) -> np.ndarray:
    """The orbit key (module docstring) of each child ``level[rep[i]] + (mask[i],)``.

    ``level`` is ``(R, L)`` uint8 and ``rep`` ascending. Keys are computed
    ``KEY_CHUNK`` children at a time: the words of the chunk's representatives
    are ORed one mask column at a time, each child adds its own mask, and
    the maximum over relabelings is its key.
    """
    _, bit = _walk_tables(n)
    keys = np.empty(len(rep), dtype=np.uint64)
    for start in range(0, len(rep), KEY_CHUNK):
        r, m = rep[start:start + KEY_CHUNK], mask[start:start + KEY_CHUNK]
        # the chunk's representatives are one contiguous run of the level
        words = np.zeros((r[-1] + 1 - r[0], bit.shape[1]), dtype=np.uint64)
        for column in level[r[0]:r[-1] + 1].T:
            words |= bit[column]
        words = words[r - r[0]]
        words |= bit[m]
        keys[start:start + KEY_CHUNK] = words.max(axis=1)
    return keys


def antichain_levels(n: int) -> list[list[tuple[tuple[int, ...], int]]]:
    """One (representative, orbit key) pair per orbit of the L-mask antichains, for L = 1, 2, ...

    A child of level L is a representative followed by one nonzero mask
    incomparable to all of its masks; every (L+1)-antichain is in the
    orbit of some child (canonical augmentation, McKay 1998). Children go
    in representative order, masks ascending, and the first child of each
    orbit key (``_child_keys``, decoded by ``key_faces``) represents its
    orbit at level L+1. Raises TooLargeError above ``MAX_KEY_VERTICES`` before any work.
    """
    if n > MAX_KEY_VERTICES:
        raise TooLargeError(f"the 64-bit orbit key caps class enumeration at "
                            f"{MAX_KEY_VERTICES} vertices, got {n}")
    incomparable, _ = _walk_tables(n)
    level = np.zeros((1, 0), dtype=np.uint8)
    levels = []
    while True:
        free = np.ones((len(level), (1 << n) - 1), dtype=bool)
        for column in level.T:
            free &= incomparable[column, 1:]
        rep, mask = np.nonzero(free)
        if not len(rep):
            return levels
        mask = (mask + 1).astype(np.uint8)
        keys = _child_keys(level, rep, mask, n)
        first = np.sort(np.unique(keys, return_index=True)[1])
        level = np.concatenate([level[rep[first]], mask[first, None]], axis=1)
        levels.append(list(zip(map(tuple, level.tolist()), keys[first].tolist())))


def key_faces(key: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The canonical face list an orbit key encodes: its binary digits, top first, by face rank."""
    faces = _lex_table(n)[0]
    return tuple(f for f, digit in zip(faces, format(key, f"0{len(faces)}b")) if digit == "1")


@lru_cache(maxsize=None)
def _lp_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``compress[f, x]``, the bits of ``x & f`` renumbered by position in f, and ``down[p]``.

    ``compress`` is ``(2**n, 2**n)`` uint8. ``down[p]`` is ``DOWN[p]``,
    the down-set of a positional piece ``p < 2**n``, in ``ceil(2**n / 64)``
    little-endian uint64 words.
    """
    masks = np.arange(1 << n, dtype=np.uint8)
    member = (masks[:, None] >> np.arange(n, dtype=np.uint8)) & 1
    # bit i of f goes to position popcount(f & (2**i - 1))
    position = np.cumsum(member, axis=1, dtype=np.uint8) - member
    compress = (member << position) @ member.T
    size = ((1 << n) + 63) // 64 * 8
    down = np.frombuffer(b"".join(d.to_bytes(size, "little") for d in DOWN[:1 << n]), np.uint64)
    return compress, down.reshape(1 << n, -1)


def _segments(masks: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The mask tuples concatenated as one uint8 array, and the start of each tuple in it.

    No class is empty, so no ``reduceat`` segment is: each reduces one class's masks.
    """
    faces = np.fromiter(chain.from_iterable(masks), dtype=np.uint8)
    return faces, np.cumsum([0] + [len(m) for m in masks[:-1]])


def face_members(masks: Sequence[tuple[int, ...]], n: int) -> np.ndarray:
    """``(len(masks), 2**n)`` bool, true where subset g is a face of the class, the empty face too.

    A mask over {0..n-1} is its own positional piece, so ``down[m]`` is
    the set of subsets of m, and a class's faces are the union of its
    masks' down-sets, ``2**n`` bits in ``_lp_tables``' words.
    """
    faces, starts = _segments(masks)
    union = np.bitwise_or.reduceat(_lp_tables(n)[1][faces], starts, axis=0)
    return np.unpackbits(union.view(np.uint8), axis=1, bitorder="little")[:, :1 << n].view(bool)


def face_counts(masks: Sequence[tuple[int, ...]], n: int) -> np.ndarray:
    """Nonempty faces per class: its row of ``face_members`` summed, less the empty face."""
    return face_members(masks, n).sum(axis=1) - 1


def face_codes(masks: Sequence[tuple[int, ...]], n: int, subsets: Sequence[int],
               values: Callable[[list[int]], list[Fraction]]) -> tuple[list[Fraction], np.ndarray]:
    """Code tables of the classes on ``masks`` at ``subsets``, one ``values`` call for all restricted LPs.

    The pair (class c, subset f) is keyed by the union of the down-sets
    of the positional pieces ``compress[f, m]`` over the masks m of c.
    A family and its maximal members have the same down-set, so the key
    determines the maximal pieces, the forms of the restricted LP. When
    the masks of c cover every bit of f, the positions those forms cover
    are exactly ``0..|f|-1``, so two pairs share a key exactly when they
    share the LP. A subset with a bit outside the vertex set of its
    class gets the zero key: an uncovered position, value 0, distance 1.
    No covered pair has it, as every down-set holds the empty piece, bit
    0. Keys are deduplicated in their ``_lp_tables`` words, and
    ``values(keys)`` is called once, with the distinct keys as Python
    ints, and returns their values in order; ``key_distances`` solves the
    LPs they name. An int names one LP across calls and vertex counts
    (module docstring), so a caller may memoize by it.

    Returns the sorted distinct values and a ``(len(masks), 2**n)`` array
    of indices into them; entries outside ``subsets`` hold code 0.
    """
    compress, down = _lp_tables(n)
    # the pieces of a k-subset lie below 2**k, in the first ceil(2**k / 64) words
    down = down[:, :((1 << max(f.bit_count() for f in subsets)) + 63) // 64]
    columns = np.asarray(subsets, dtype=np.uint8)
    faces, starts = _segments(masks)
    keys = np.bitwise_or.reduceat(down[compress[columns[None, :], faces[:, None]]], starts, axis=0)
    span = np.bitwise_or.reduceat(faces, starts)
    keys[(columns & ~span[:, None]) != 0] = 0
    words = down.shape[1]
    distinct, inverse = np.unique(keys.view(np.uint64 if words == 1 else f"V{8 * words}").ravel(),
                                  return_inverse=True)
    distinct = distinct.tolist()
    if words > 1:  # one little-endian bytes object per key
        distinct = [int.from_bytes(key, "little") for key in distinct]
    results = values(distinct)
    # interned as (numerator, denominator): a Fraction's hash costs a modular inverse
    exact = [(v.numerator, v.denominator) for v in results]
    values = sorted(dict(zip(exact, results)).values())
    code = {(v.numerator, v.denominator): i for i, v in enumerate(values)}
    ranks = np.array([code[e] for e in exact], dtype=np.min_scalar_type(len(values)))
    tables = np.zeros((len(masks), 1 << n), dtype=ranks.dtype)
    tables[:, columns] = ranks[inverse.reshape(len(masks), len(columns))]
    return values, tables


def key_distances(keys: Sequence[int]) -> list[Fraction]:
    """The distance each ``face_codes`` key names, the LPs of ``LP_CHUNK`` keys per batch.

    The maximal pieces of a key's down-set, the members with no member
    one bit larger, are its forms. None (the zero key) is distance 1, one
    (a face inside a mask) distance 0. The other keys' LPs, forms in
    ascending piece order, go to ``packings``: distance ``1 - d / total``.
    A batch decodes only the ``2**k`` pieces of its widest LP's k positions.
    """
    one, zero = Fraction(1), Fraction(0)
    out = []
    for start in range(0, len(keys), LP_CHUNK):
        chunk = keys[start:start + LP_CHUNK]
        # the largest piece of any key holds the top position k - 1
        k = (max(chunk).bit_length() - 1).bit_length()
        size = max(1, (1 << k) // 8)
        down = np.frombuffer(b"".join(key.to_bytes(size, "little") for key in chunk), dtype=np.uint8)
        member = np.unpackbits(down.reshape(len(chunk), size), axis=1, bitorder="little")
        member = member[:, :1 << k].astype(bool)
        maximal = member.copy()
        for i in range(k):
            # a piece without bit i is not maximal when the piece with it added is a member
            maximal.reshape(len(chunk), -1, 2, 1 << i)[:, :, 0] &= \
                ~member.reshape(len(chunk), -1, 2, 1 << i)[:, :, 1]
        count = maximal.sum(axis=1)
        distance = [zero if c else one for c in count.tolist()]
        lps = np.flatnonzero(count > 1)
        if len(lps):
            lp, piece = np.nonzero(maximal[lps])
            rows = count[lps]
            width = int(piece.max()).bit_length()
            incidence = np.zeros((len(lps), rows.max(), width), dtype=np.int64)
            row = np.arange(len(lp)) - np.repeat(np.cumsum(rows) - rows, rows)
            incidence[lp, row] = piece[:, None] >> np.arange(width) & 1
            d, total, _, _ = packings(incidence)
            for b, p, t in zip(lps.tolist(), d.tolist(), total.tolist()):
                distance[b] = Fraction(t - p, t)
        out += distance
    return out


def packings(incidence: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``exact_minimax._solve_packing`` on a batch of LPs at once, each certificate checked.

    ``incidence[b, i, s]`` is 1 when position s lies in form i of LP b;
    an all-zero row or column is padding. The slack of form i is labeled
    ``K + i`` for K columns, so the labels keep their order, Bland's
    choices and every Bareiss update are ``_solve_packing``'s, and
    padding holds 0 and is never chosen. An LP leaves the batch at its
    optimum. Returns int64 ``(d, total, packing, cover)``, the value of
    LP b being ``d[b] / total[b]``, once exact integers show z ≥ 0,
    w ≥ 0, every form sum of z at most d, every position's cover sum of
    w at least d, and Σz = Σw = total; otherwise raises ArithmeticError.
    """
    lps, m, k = incidence.shape
    if k > MAX_VERTICES:
        raise TooLargeError(f"batched LPs capped at {MAX_VERTICES} positions, got {k}")
    tableau = np.zeros((lps, m + 1, k + 1), dtype=np.int64)
    tableau[:, :m, :k] = incidence
    tableau[:, :m, k] = incidence.any(axis=2)
    tableau[:, m, :k] = -incidence.any(axis=1).astype(np.int64)
    basis = np.tile(np.arange(k, k + m), (lps, 1))
    nonbasic = np.tile(np.arange(k), (lps, 1))
    d = np.ones(lps, dtype=np.int64)
    live = np.arange(lps)
    final = [tableau, basis, nonbasic, d]
    none = k + m
    while len(live):
        cost = tableau[:, m, :k]
        entering = np.where(cost < 0, nonbasic, none)
        c = entering.argmin(axis=1)
        done = entering[np.arange(len(live)), c] == none
        if done.any():
            for out, now in zip(final, (tableau, basis, nonbasic, d)):
                out[live[done]] = now[done]
            going = ~done
            tableau, basis, nonbasic, d, c, live = (a[going] for a in
                                                    (tableau, basis, nonbasic, d, c, live))
            if not len(live):
                break
        at = np.arange(len(live))
        column = tableau[at, :, c]
        # ratio test: the least rhs / a over a > 0, ties on the least basic label, as one
        # integer key (module docstring); entries stay below 2**15
        a = column[:, :m]
        ratio = (tableau[:, :m, k] << 32) // np.maximum(a, 1) << 8 | basis
        r = np.where(a > 0, ratio, np.iinfo(np.int64).max).argmin(axis=1)
        prow = tableau[at, r]
        p = prow[at, c]
        tableau = (tableau * p[:, None, None] - column[:, :, None] * prow[:, None, :]) // d[:, None, None]
        tableau[at, :, c] = -column
        tableau[at, r] = prow
        tableau[at, r, c] = d
        basis[at, r], nonbasic[at, c] = nonbasic[at, c], basis[at, r]
        d = p
    tableau, basis, nonbasic, d = final
    at = np.arange(lps)[:, None]
    packing = np.zeros((lps, k + m), dtype=np.int64)
    packing[at, basis] = tableau[:, :m, k]
    cover = np.zeros((lps, k + m), dtype=np.int64)
    cover[at, nonbasic] = tableau[:, m, :k]  # a basic slack has reduced cost 0
    packing, cover, total = packing[:, :k], cover[:, k:], tableau[:, m, k]
    _verify_packings(incidence, d, total, packing, cover)
    return d, total, packing, cover


def _verify_packings(incidence: np.ndarray, d: np.ndarray, total: np.ndarray,
                     packing: np.ndarray, cover: np.ndarray) -> None:
    """Raise ArithmeticError unless every certificate of ``packings`` holds, in exact integers.

    Padding carries no weight, z ≥ 0 with every form sum at most d, and
    w ≥ 0 with every position's cover sum at least d, so ``total / d`` is
    both a packing's and a cover's size: the LP's optimum, by duality.
    """
    covered, forms = incidence.any(axis=1), incidence.any(axis=2)
    sums = (incidence @ packing[:, :, None])[..., 0]
    covers = (cover[:, None, :] @ incidence)[:, 0]
    if not ((d > 0).all() and (packing >= 0).all() and (cover >= 0).all()
            and not packing[~covered].any() and not cover[~forms].any()
            and (sums <= d[:, None]).all() and (covers >= d[:, None])[covered].all()
            and (packing.sum(axis=1) == total).all() and (cover.sum(axis=1) == total).all()):
        raise ArithmeticError("a batched packing certificate failed to verify")


def relabel_scores(table2: np.ndarray, images1: np.ndarray,
                   table1: np.ndarray, images2: np.ndarray) -> np.ndarray:
    """Per relabeling, the larger of the two directed max face-distance codes.

    ``table1`` / ``table2`` give the code of every vertex subset's
    distance to side 1 / side 2; ``images1`` holds the faces of side 1
    mapped forward and ``images2`` those of side 2 mapped back, as
    ``images`` returns them. The 1-D tables are read one face row at a
    time with ``take``, which is faster than a uint8 fancy index and
    converts only one row of indices at a time.
    """
    score = np.zeros(images1.shape[1], dtype=table2.dtype)
    for table, imgs in ((table2, images1), (table1, images2)):
        for row in imgs:
            np.maximum(score, table.take(row), out=score)
    return score


def coset_transversals(ahead: np.ndarray, faces: np.ndarray, starts: np.ndarray) -> list[np.ndarray]:
    """Per class, ascending ``perm_bits(n)`` rows, the first relabeling for each distinct image set.

    ``ahead[g, p]`` is the image of subset g under the ``p``-th
    relabeling, and ``faces`` / ``starts`` are the classes' masks in the
    ``_segments`` layout. The image set of a class under a relabeling is
    one ``2**n``-bit word, bit p(g) for each face g, held in
    ``ceil(2**n / 64)`` uint64 words (1 up to n = 6, 2 at n = 7, 4 at
    n = 8); one ``bitwise_or.reduceat`` per word forms it for every
    class at once. One stable row-wise ``lexsort`` then puts equal sets
    next to each other, so the first relabeling of each run is the
    lowest-numbered one with that image set. When the masks are the
    distinct maximal faces of a complex, two relabelings map them onto
    the same set exactly when they differ by one of its automorphisms,
    so each class's rows form a left transversal of Aut in S_n, of size
    ``n! / |Aut|``. Classes go in runs of at most ``TRANSVERSAL_CELLS``
    face images (one class at least), which bounds the words' memory.
    """
    width = (ahead.shape[0] + 63) // 64
    ends = np.append(starts[1:], len(faces))
    cuts = np.flatnonzero(np.diff(ends * ahead.shape[1] // TRANSVERSAL_CELLS)) + 1
    out = []
    for run in np.split(np.arange(len(starts)), cuts):
        first = starts[run[0]]
        imgs = ahead[faces[first:ends[run[-1]]]]
        keys = []
        for w in range(width):
            bit = np.left_shift(np.uint64(1), imgs & 63)
            if width > 1:
                bit[imgs >> 6 != w] = 0
            keys.append(np.bitwise_or.reduceat(bit, starts[run] - first, axis=0))
        order = np.lexsort(keys, axis=-1)
        # a run of equal sets starts where a word differs from the one before it in key order
        new = np.zeros(order.shape, dtype=bool)
        new[:, 0] = True
        for key in keys:
            ordered = np.take_along_axis(key, order, axis=1)
            new[:, 1:] |= ordered[:, 1:] != ordered[:, :-1]
        keep = np.zeros(order.shape, dtype=bool)
        np.put_along_axis(keep, order, new, axis=1)
        out += np.split(np.nonzero(keep)[1], np.cumsum(keep.sum(axis=1))[:-1])
    return out


def fvector_bound(tables: np.ndarray, masks: Sequence[tuple[int, ...]]) -> np.ndarray:
    """The f-vector lower bound LB(a, b) of every pair, as a ``(C, C)`` symmetric code array.

    For each face size k, ``m_k(c)`` is the least code of ``table_c`` at
    a k-set that is not a face of c, and a pair whose class a has more
    k-faces than b gets the term ``m_k(b)``; LB is the largest term over
    k and both orientations, 0 when there is none. No relabeling of a
    onto b scores below it (the proof is in the module docstring).
    """
    n = tables.shape[1].bit_length() - 1
    member = face_members(masks, n)
    size = np.array([g.bit_count() for g in range(1 << n)])
    bound = np.zeros((len(masks), len(masks)), dtype=tables.dtype)
    for k in range(1, n + 1):
        subsets = np.flatnonzero(size == k)
        inside = member[:, subsets]
        count = inside.sum(axis=1)
        # a class that holds every k-set never has fewer k-faces, so its filler is never read
        least = np.where(inside, np.iinfo(tables.dtype).max, tables[:, subsets]).min(axis=1)
        np.maximum(bound, np.where(count[:, None] > count, least, 0), out=bound)
    return np.maximum(bound, bound.T)


def pairwise_min_codes(tables: np.ndarray, masks: Sequence[tuple[int, ...]],
                       fwd: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """All-pairs min-over-relabelings of the max face-distance code, bound first.

    A pair (a, b) is scored only over the coset transversal of a, and
    the minimum stays the one over all of S_n (the proof is in the
    module docstring). Every transversal starts at the identity, row 0,
    so phase 1 scores every pair there at once: the max of ``table_b``
    over the faces of a, read one padded face column of all classes at a
    time, and the same the other way. A pair whose score equals its
    f-vector bound (``fvector_bound``) is final. Phase 2 scores the
    pairs still open over the rest of the transversal, one row class at
    a time; rows go in ascending order of transversal size, each against
    the open classes after it, so a is the class of the larger
    automorphism group. Every subset is mapped under all n! relabelings
    once, both ways (``images``). The forward side reads the later
    tables at a's faces mapped forward. The backward side reads a's
    table once per transversal relabeling p through the inverse images,
    ``pulled[g, p] = table_a[p⁻¹(g)]``, filled only at the faces of the
    open later classes, ``TRANSVERSAL_CELLS`` cells at a time. Each
    later class's faces are padded to the block's widest class by
    repeating its first face, which leaves the max unchanged, so the
    backward max is one max over the leading face axis of ``pulled`` at
    those faces. The later classes go in blocks whose gathered arrays
    hold at most ``TRANSVERSAL_CELLS`` cells, one class at least.

    Args:
        tables: (C, 2**n) per-class distance code of every vertex subset,
            as ``face_codes`` returns them.
        masks: C tuples of maximal-face bitmasks.
        fwd / inv: ``perm_bits(n)``, one row per relabeling.

    Returns:
        (C, C) symmetric ``tables.dtype`` codes in class order; zero diagonal.
    """
    n = fwd.shape[1]
    # ahead[g, p] = p(g) and behind[g, p] = p⁻¹(g), every subset g mapped by every relabeling p
    ahead = images(fwd, range(1 << n))
    behind = images(inv, range(1 << n))
    cosets = coset_transversals(ahead, *_segments(masks))
    count = np.array([len(m) for m in masks])
    width = count.max()
    padded = np.array([m + m[:1] * (width - len(m)) for m in masks], dtype=np.uint8)
    # phase 1, at the identity: columns[g, b] = table_b[g], so columns[padded[:, w]] is
    # table_b at the w-th face of every class a, as rows a
    columns = np.ascontiguousarray(tables.T)
    result = columns[padded[:, 0]]
    for w in padded.T[1:]:
        np.maximum(result, columns[w], out=result)
    np.maximum(result, result.T, out=result)
    unsettled = result > fvector_bound(tables, masks)
    # phase 2: the rest of each row class's transversal, for its open later classes
    order = np.argsort([len(t) for t in cosets], kind="stable")
    for i, a in enumerate(order[:-1]):
        later, t = order[i + 1:], cosets[a][1:]
        later = later[unsettled[a, later]]
        if not len(later) or not len(t):
            continue
        forward_faces = ahead[np.array(masks[a])[:, None], t]
        # pulled[g, j] = table_a[t_j⁻¹(g)], filled only at the later classes' faces
        pulled = np.empty((1 << n, len(t)), dtype=tables.dtype)
        need = np.zeros(1 << n, dtype=bool)
        need[padded[later]] = True
        rows = max(1, TRANSVERSAL_CELLS // len(t))
        for g in range(0, 1 << n, rows):
            if need[g:g + rows].any():
                pulled[g:g + rows] = tables[a].take(behind[g:g + rows].take(t, axis=1))
        step = max(1, TRANSVERSAL_CELLS // (len(t) * width))
        for start in range(0, len(later), step):
            block = later[start:start + step]
            forward = tables[block].take(forward_faces, axis=1).max(axis=1)
            backward = pulled.take(padded[block, :count[block].max()].T, axis=0).max(axis=0)
            best = np.maximum(forward, backward).min(axis=1)
            np.minimum(best, result[a, block], out=best)
            result[a, block] = result[block, a] = best
    return result


def compact_codes(codes: np.ndarray) -> tuple[list[int], list[list[int]]]:
    """The codes that occur in ``codes``, ascending, and ``codes`` renumbered as indices into them.

    Presence is scattered into a bool array, which casts ``codes`` to
    indices in buffered chunks; ``bincount`` would copy it all to intp.
    """
    present = np.zeros(int(codes.max()) + 1, dtype=bool)
    present[codes] = True
    index = (np.cumsum(present) - 1).astype(codes.dtype)
    return np.flatnonzero(present).tolist(), index[codes].tolist()
