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
positional pieces, asks its caller for one value per distinct key and
scatters the codes back. A subset with a vertex outside its class gets
the zero key, at distance 1, so one call at the widest vertex count of
a list serves every count. The engine only gathers, compares and
selects codes; exactness is preserved because the code order mirrors
the value order. Canonical forms, class enumeration, ``class_distance`` and
``class_distance_matrix`` all scan relabelings through this module, the
only one that holds numpy arrays.

Canonical forms and ``class_distance`` scan all n! relabelings; the
class matrix scans one per automorphism coset. For an automorphism α of
class a (α(a) = a), ``table_a[α(f)] == table_a[f]``, because the distance
from α(f) to a equals the distance from f to α⁻¹(a) = a. So the
relabelings p∘α and p of a onto b score alike: forward, the images
p(α(a)) = p(a), so the forward max is unchanged; backward, ``table_a`` is
invariant under α⁻¹, so the backward max is unchanged. The minimum over
S_n is therefore the minimum over a left transversal of Aut(a), one
relabeling per image set p(a) (``coset_transversal``). The matrix maps
each class's faces under all n! relabelings once; those images key its
transversal, and their transversal columns are its forward side. For
the backward side it holds one ``(n!, 2**n)`` table of inverse images,
``p⁻¹(g)`` for every relabeling p and subset g: ``table_a`` read through
it scores every class b at once (``pairwise_min_codes``).

A list of classes enters in one layout (``_segments``): all their masks
concatenated, plus each class's start, so one ``reduceat`` folds every
class's masks at once, for face-table keys and vertex sets, face counts
and the matrix's backward side. The matrix leaves as one symmetric
``(C, C)`` array of codes in class order, of the face tables' dtype.

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
    # the permutations of range(k) in lexicographic order are, for each
    # first element i in turn, i followed by those of range(k - 1) with
    # every entry >= i shifted up by one
    perms = np.zeros((1, 0), dtype=np.uint8)
    for k in range(1, n + 1):
        perms = np.concatenate([np.insert(perms + (perms >= i), 0, i, axis=1)
                                for i in range(k)])
    inverse = np.empty_like(perms)
    np.put_along_axis(inverse, perms, np.arange(n, dtype=np.uint8), axis=1)
    one = np.uint8(1)
    fwd = np.left_shift(one, perms, order="F")
    inv = np.left_shift(one, inverse, order="F")
    fwd.flags.writeable = False
    inv.flags.writeable = False
    return fwd, inv


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

    ``compress`` is ``(2**n, 2**n)`` uint8. ``down[p]`` is the down-set
    ``{q : q & p == q}`` of a positional piece ``p < 2**n``, as a 256-bit
    set over the 8-bit pieces ``q``, packed into four uint64 words.
    """
    masks = np.arange(1 << n, dtype=np.uint8)
    member = (masks[:, None] >> np.arange(n, dtype=np.uint8)) & 1
    # bit i of f goes to position popcount(f & (2**i - 1))
    position = np.cumsum(member, axis=1, dtype=np.uint8) - member
    compress = (member << position) @ member.T
    pieces = np.arange(256, dtype=np.uint8)
    down = np.packbits((pieces & masks[:, None]) == pieces, axis=1)
    return compress, down.view(np.uint64)


def _segments(masks: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The mask tuples concatenated as one uint8 array, and the start of each tuple in it.

    No class is empty, so no ``reduceat`` segment is: each reduces one class's masks.
    """
    faces = np.fromiter(chain.from_iterable(masks), dtype=np.uint8)
    return faces, np.cumsum([0] + [len(m) for m in masks[:-1]])


def face_counts(masks: Sequence[tuple[int, ...]], n: int) -> np.ndarray:
    """Nonempty faces per class: the union of its masks' down-sets, less the empty face.

    A mask over {0..n-1} is its own positional piece, so ``down[m]`` is the set of subsets of m.
    """
    faces, starts = _segments(masks)
    union = np.bitwise_or.reduceat(_lp_tables(n)[1][faces], starts, axis=0)
    return np.unpackbits(union.view(np.uint8), axis=1).sum(axis=1) - 1


def face_codes(masks: Sequence[tuple[int, ...]], n: int, subsets: Sequence[int],
               value: Callable[[bytes, int, int], Fraction]) -> tuple[list[Fraction], np.ndarray]:
    """Code tables of the classes on ``masks`` at ``subsets``, one ``value`` call per restricted LP.

    The pair (class c, subset f) is keyed by the union of the down-sets
    of the positional pieces ``compress[f, m]`` over the masks m of c.
    A family and its maximal members have the same down-set, so the key
    determines the maximal pieces, the forms of the restricted LP. When
    the masks of c cover every bit of f, the positions those forms cover
    are exactly ``0..|f|-1``, so two pairs share a key exactly when they
    share the LP. A subset with a bit outside the vertex set of its
    class gets the zero key: an uncovered position, value 0, distance 1.
    No covered pair has it, as every down-set holds the empty piece, bit
    0. ``value(key, c, f)`` is called once per key, on the key's first
    pair in (class, subset) order, with the key as bytes. The pieces are
    8-bit positional sets whatever n is, so a key names one LP across
    calls and vertex counts, and a caller may memoize by it.

    Returns the sorted distinct values and a ``(len(masks), 2**n)`` array
    of indices into them; entries outside ``subsets`` hold code 0.
    """
    compress, down = _lp_tables(n)
    columns = np.asarray(subsets, dtype=np.uint8)
    faces, starts = _segments(masks)
    keys = np.bitwise_or.reduceat(down[compress[columns[None, :], faces[:, None]]], starts, axis=0)
    span = np.bitwise_or.reduceat(faces, starts)
    keys[(columns & ~span[:, None]) != 0] = 0
    distinct, first, inverse = np.unique(keys.view(f"V{keys.itemsize * down.shape[1]}").ravel(),
                                         return_index=True, return_inverse=True)
    pairs = (divmod(i, len(columns)) for i in first.tolist())
    results = [value(key.tobytes(), c, subsets[s]) for key, (c, s) in zip(distinct, pairs)]
    # interned as (numerator, denominator): a Fraction's hash costs a modular inverse
    exact = [(v.numerator, v.denominator) for v in results]
    values = sorted(dict(zip(exact, results)).values())
    code = {(v.numerator, v.denominator): i for i, v in enumerate(values)}
    ranks = np.array([code[e] for e in exact], dtype=np.min_scalar_type(len(values)))
    tables = np.zeros((len(masks), 1 << n), dtype=ranks.dtype)
    tables[:, columns] = ranks[inverse.reshape(len(masks), len(columns))]
    return values, tables


def relabel_scores(table2: np.ndarray, images1: np.ndarray,
                   table1: np.ndarray, images2: np.ndarray) -> np.ndarray:
    """Per relabeling, the larger of the two directed max face-distance codes.

    ``table1`` / ``table2`` give the code of every vertex subset's
    distance to side 1 / side 2; ``images1`` holds the faces of side 1
    mapped forward and ``images2`` those of side 2 mapped back, as
    ``images`` returns them. Leading axes broadcast, so a stack of tables
    or of images scores several pairs at once.
    """
    forward = table2[..., images1].max(axis=-2)
    backward = table1[..., images2].max(axis=-2)
    return np.maximum(forward, backward)


def coset_transversal(imgs: np.ndarray, n: int) -> np.ndarray:
    """Ascending ``perm_bits(n)`` rows, the first relabeling for each distinct image set.

    ``imgs`` holds some faces' images under every relabeling, as
    ``images(perm_bits(n)[0], masks)`` returns them. Relabelings are keyed
    by their columns of sorted image ranks, the key ``canonical_faces``
    minimizes (``_image_sets``). The key order comes from a stable sort,
    so the first relabeling of each run of equal columns is the
    lowest-numbered one with that image set. When ``masks`` are the
    distinct maximal faces of a complex, two relabelings map them onto the
    same set exactly when they differ by one of its automorphisms, so the
    rows form a left transversal of Aut in S_n, of size ``n! / |Aut|``.
    """
    keys, order = _image_sets(imgs, n)
    # a run starts where a column differs from the one before it in key order
    changed = np.diff(keys[:, order], axis=1).any(axis=0)
    return np.sort(order[np.concatenate(([True], changed))])


def pairwise_min_codes(tables: np.ndarray, masks: Sequence[tuple[int, ...]],
                       fwd: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """All-pairs min-over-relabelings of the max face-distance code.

    A pair (a, b) is scored only over the coset transversal of a,
    and the minimum stays the one over all of S_n (the proof is in the
    module docstring). Any orientation is exact; for the least work, rows
    go in ascending order of transversal size, each against the rows after
    it, so a is the class of the larger automorphism group. Each class's
    faces are mapped under all n! relabelings once (``images``); those
    images key its transversal, and their transversal columns are its
    forward side. The backward side reads a's table once
    per transversal relabeling p through the inverse images of every
    subset, ``pulled[p, g] = table_a[p⁻¹(g)]``; the backward max of b is
    then the max of ``pulled[p, g]`` over the faces g of b, one segment
    of the later classes' faces (``_segments``) per class.

    Args:
        tables: (C, 2**n) per-class distance code of every vertex subset,
            as ``face_codes`` returns them.
        masks: C tuples of maximal-face bitmasks.
        fwd / inv: ``perm_bits(n)``, one row per relabeling.

    Returns:
        (C, C) symmetric ``tables.dtype`` codes in class order; zero diagonal.
    """
    n = fwd.shape[1]
    cosets, forward_images = [], []
    for m in masks:
        imgs = images(fwd, m)
        t = coset_transversal(imgs, n)
        cosets.append(t)
        forward_images.append(imgs[:, t])
    order = np.argsort([len(t) for t in cosets], kind="stable")
    # back[p, g] = p⁻¹(g), every subset g mapped back by every relabeling p
    back = images(inv, range(1 << n)).T
    faces, starts = _segments([masks[c] for c in order])
    result = np.zeros((len(masks), len(masks)), dtype=tables.dtype)
    for i, a in enumerate(order[:-1]):
        later, t = order[i + 1:], cosets[a]
        forward = tables[later][..., forward_images[a]].max(axis=-2)
        pulled = tables[a][back[t]]
        first = starts[i + 1]
        backward = np.maximum.reduceat(pulled[:, faces[first:]], starts[i + 1:] - first, axis=1)
        result[a, later] = result[later, a] = np.maximum(forward, backward.T).min(axis=-1)
    return result
