"""Finite abstract simplicial complexes and their combinatorial operations.

A complex is stored by its maximal faces (an antichain under inclusion);
the full downward-closed face family is expanded on demand, up to
``MAX_FACES``, and cached. So are the vertex bits, ``1 << i`` for the
i-th sorted vertex (``Complex._bits``, the one vertex → position map),
and the maximal faces as bitmasks over them (``Complex._masks``, also
read by ``iso_metric``); ``hausdorff_metric`` reads both. Vertex labels are
arbitrary nonnegative integers. The empty complex is unrepresentable:
operations that would produce it raise EmptyIntersectionError instead.

``_maximal`` is the one reduction of a family of labeled vertex sets to
its maximal members: complex construction, intersections and
``MinimaxProblem.of`` use it. It keeps, per vertex, the list of kept
larger sets that hold it and, while that is no wider than the list, the
same as a bitset. A set is maximal when the AND of its vertices' bitsets
is empty, or, if one of its vertices has none, when no set on its
shortest list contains it. Skeleta need no reduction, and
the minimax forms of a face reduce by bit tests in ``hausdorff_metric``.

Operations whose work grows faster than their input refuse it, before
any work, with TooLargeError: ``barycentric_subdivision`` above
``MAX_SUBDIVISION_CHAINS`` chains, ``Complex.faces`` above ``MAX_FACES``
faces, ``skeleton`` at the same sizes, and ``intersect`` above
``MAX_INTERSECTION_PAIRS`` pairs of maximal faces.

Serialization (shared with the CLI):
  * JSON object ``{"maximal_faces": [[int, ...], ...]}``
  * line format, one face per line as space-separated ASCII integers
    (``-?[0-9]+``, ``integer``, the rule the CLI applies to every
    integer it reads), with blank lines and ``#`` comments ignored; any
    other token is a ParseError at its line and column

Both formats denote the downward closure of the listed faces.
"""

from __future__ import annotations

import json
import re
import reprlib
from functools import cached_property, reduce
from itertools import accumulate, chain, combinations, permutations
from math import comb, factorial
from operator import and_
from typing import Iterable, Mapping

from .errors import (
    EmptyInputError,
    EmptyIntersectionError,
    NotInjectiveError,
    ParseError,
    TooLargeError,
    UndefinedVertexError,
)

Face = tuple[int, ...]

MAX_SUBDIVISION_CHAINS = factorial(9)
# A maximal face m gives 2^|m| - 1 faces and |m|! chains. That ratio peaks
# at 3/2 for edges, so no complex that barycentric_subdivision accepts
# expands to more faces than this (181440 edges, 603 or more vertices).
MAX_FACES = 3 * MAX_SUBDIVISION_CHAINS // 2
# At this many face pairs, intersect takes about 0.7 s on two sides of 2000
# edges and 1.9 s on two sides of 2000 random 9-vertex faces (shared 2-core VM).
MAX_INTERSECTION_PAIRS = 4 * 10**6


def normalize_face(vertices: Iterable[int]) -> Face:
    """Canonical face storage: sorted, duplicate-free, nonempty vertex tuple."""
    seen = set()
    for v in vertices:
        if isinstance(v, bool) or not isinstance(v, int):
            raise EmptyInputError(f"vertex labels must be integers, got {reprlib.repr(v)}")
        if v < 0:
            raise EmptyInputError(f"vertex labels must be nonnegative, got {reprlib.repr(v)}")
        seen.add(v)
    if not seen:
        raise EmptyInputError("faces must be nonempty")
    return tuple(sorted(seen))


def _maximal(sets: Iterable[Iterable[int]]) -> tuple[Face, ...]:
    """The inclusion-maximal nonempty members of a family of vertex sets.

    Empty sets are dropped. The result holds sorted faces in sorted
    order, so equal families give equal tuples.
    """
    maximal: list[frozenset[int]] = []
    lists: dict[int, list[int]] = {}
    holding: dict[int, int] = {}
    indexed = 0
    # Largest first, so a set is maximal unless a kept one contains it. Kept
    # sets strictly larger than p are indexed, lists[v] holding each i with v
    # in maximal[i]; the sets are distinct, so an indexed set that holds every
    # vertex of p strictly contains it. A one-size family builds no index.
    # holding[v] is lists[v] as a bitset, kept only while at most 64 bits per
    # set (the list's own size): one that would grow wider becomes -1, which
    # later ORs leave as it is and the AND ignores, and is rebuilt once a size
    # is indexed if the list has caught up. So the index stays linear in the
    # vertex entries however the labels spread. p is maximal when the AND
    # over its vertices is 0, or, if one of them is -1 (its list at most
    # 1/64 of the indexed sets), when no set on p's shortest list holds it.
    for p in sorted(set(map(frozenset, sets)) - {frozenset()}, key=len, reverse=True):
        if indexed < len(maximal) and len(maximal[-1]) > len(p):
            for i in range(indexed, len(maximal)):
                for v in maximal[i]:
                    js = lists.setdefault(v, [])
                    js.append(i)
                    holding[v] = -1 if 64 * len(js) <= i else holding.get(v, 0) | 1 << i
            indexed = len(maximal)
            for v, js in lists.items():
                if holding[v] < 0 and 64 * len(js) > indexed:
                    digits = bytearray(b"0") * indexed
                    for j in js:
                        digits[~j] = ord("1")
                    holding[v] = int(digits, 2)
        if indexed:
            held = [holding.get(v, 0) for v in p]
            if reduce(and_, held) and (-1 not in held or any(
                    p < maximal[i] for i in min([lists[v] for v in p], key=len))):
                continue
        maximal.append(p)
    return tuple(sorted([tuple(sorted(p)) for p in maximal]))


class Complex:
    """A nonempty, downward-closed family of faces, stored by maximal faces."""

    def __init__(self, faces: Iterable[Iterable[int]]):
        """Smallest simplicial complex containing every given face.

        Raises EmptyInputError if the family or any member face is empty,
        or a vertex label is not a nonnegative integer.
        """
        normalized = [normalize_face(f) for f in faces]
        if not normalized:
            raise EmptyInputError("a complex needs at least one face")
        self._store(frozenset(_maximal(normalized)))

    @classmethod
    def _of_maximal(cls, maximal_faces: frozenset[Face]) -> "Complex":
        """Wrap a family that is already an antichain of sorted faces, unchecked.

        For the operations that build one: revalidating the 9! chains of
        a 9-vertex simplex's subdivision takes about three times as long
        as building them.
        """
        k = cls.__new__(cls)
        k._store(maximal_faces)
        return k

    def _store(self, maximal_faces: frozenset[Face]) -> None:
        self.maximal_faces: frozenset[Face] = maximal_faces
        self.vertices: tuple[int, ...] = tuple(sorted(set(chain.from_iterable(maximal_faces))))
        self._hash = hash(self.maximal_faces)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @cached_property
    def _bits(self) -> dict[int, int]:
        """Each vertex's bit, ``1 << i`` for the ``i``-th of the sorted vertices."""
        return {v: 1 << i for i, v in enumerate(self.vertices)}

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        """Maximal faces as sorted bitmasks over ``_bits``."""
        return tuple(sorted(sum(map(self._bits.__getitem__, m)) for m in self.maximal_faces))

    @cached_property
    def faces(self) -> frozenset[Face]:
        """Every nonempty subset of a maximal face, i.e. the downward closure.

        Raises TooLargeError, before any work, when the maximal faces
        have more than ``MAX_FACES`` nonempty subsets in all, counted
        with repeats.
        """
        # 2 ** 64 alone exceeds the cap, so clamping keeps the count instant
        if sum((1 << min(len(m), 64)) - 1 for m in self.maximal_faces) > MAX_FACES:
            raise TooLargeError(f"face expansion capped at {MAX_FACES} faces")
        out: set[Face] = set()
        for m in self.maximal_faces:
            for r in range(1, len(m) + 1):
                out.update(combinations(m, r))
        return frozenset(out)

    @property
    def dimension(self) -> int:
        return max(len(m) for m in self.maximal_faces) - 1

    def contains_face(self, face: Iterable[int]) -> bool:
        fs = set(face)
        return any(fs.issubset(m) for m in self.maximal_faces)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return self.maximal_faces == other.maximal_faces

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        faces = ",".join("{" + ",".join(map(str, f)) + "}" for f in sorted(self.maximal_faces))
        return f"Complex({faces})"


def complex_from_faces(faces: Iterable[Iterable[int]]) -> Complex:
    """``Complex(faces)``: the smallest simplicial complex containing every given face."""
    return Complex(faces)


def skeleton(k: Complex, n: int) -> Complex:
    """Subcomplex of faces with at most ``n + 1`` vertices.

    A maximal face ``m`` yields ``C(|m|, min(|m|, n + 1))`` faces. Raises
    TooLargeError, before any work, when the skeleton would hold more
    faces or more vertex entries than the largest barycentric subdivision
    (``MAX_SUBDIVISION_CHAINS`` faces of 9 vertices). Near the cap, on a
    shared 2-core VM, a simplex on 852 vertices at ``n = 1`` (362526
    edges) takes 0.2 s and 71 MiB, one on 24 vertices at ``n = 6``
    (346104 faces) 0.3 s and 80 MiB. The entry bound stops wide faces:
    a 20000-vertex face at ``n = 19998`` gives only 20000 faces, but 4e8
    entries.
    """
    if n < 0:
        raise ValueError("skeleton order must be nonnegative")
    faces = entries = 0
    for m in k.maximal_faces:
        j = min(len(m), n + 1)
        # C(s, j) = C(s, s - j) grows in s, and in j up to s / 2; clamping
        # both keeps comb() cheap, and a clamped count exceeds the cap anyway
        count = comb(min(len(m), MAX_SUBDIVISION_CHAINS + 1), min(j, len(m) - j, 20))
        faces, entries = faces + count, entries + count * j
    if faces > MAX_SUBDIVISION_CHAINS or entries > 9 * MAX_SUBDIVISION_CHAINS:
        raise TooLargeError(f"skeleton capped at {MAX_SUBDIVISION_CHAINS} faces and "
                            f"{9 * MAX_SUBDIVISION_CHAINS} vertex entries")
    # The distinct pieces already form an antichain. Pieces of n + 1
    # vertices are distinct sets of one size, so none contains another. A
    # smaller piece is a whole maximal face m; a piece containing m lies in
    # some maximal face, which would then contain m, so it is m itself.
    pieces = (c for m in k.maximal_faces for c in combinations(m, min(len(m), n + 1)))
    return Complex._of_maximal(frozenset(pieces))


def intersect(a: Complex, b: Complex) -> Complex:
    """Complex whose face family is the intersection of the two face families.

    Its maximal faces are among the intersections of a maximal face of
    ``a`` with one of ``b``. Raises TooLargeError, before any work, for
    more than ``MAX_INTERSECTION_PAIRS`` such pairs, or more than 9 times
    as many vertex entries scanned (each pair costs the smaller face,
    bounded by one side's entries times the other side's face count).
    Raises EmptyIntersectionError when the families are disjoint.
    """
    fa, fb = a.maximal_faces, b.maximal_faces
    scanned = min(len(fa) * sum(map(len, fb)), len(fb) * sum(map(len, fa)))
    if len(fa) * len(fb) > MAX_INTERSECTION_PAIRS or scanned > 9 * MAX_INTERSECTION_PAIRS:
        raise TooLargeError(f"intersection capped at {MAX_INTERSECTION_PAIRS} face pairs and "
                            f"{9 * MAX_INTERSECTION_PAIRS} vertex entries")
    sets = [frozenset(m) for m in fb]
    maximal = _maximal({p & q for p in map(frozenset, fa) for q in sets})
    if not maximal:
        raise EmptyIntersectionError("complexes share no face")
    return Complex._of_maximal(frozenset(maximal))


def connected_components(k: Complex) -> list[Complex]:
    """Split ``k`` into components whose vertex sets are pairwise disjoint.

    Two faces land in the same component iff they are linked by a chain of
    faces with pairwise nonempty intersection. Components are ordered by
    their smallest vertex.
    """
    parent = {v: v for v in k.vertices}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    # union-find over vertices: each maximal face joins its vertices
    for f in k.maximal_faces:
        for v in f[1:]:
            parent[find(v)] = find(f[0])
    groups: dict[int, list[Face]] = {}
    for f in k.maximal_faces:
        groups.setdefault(find(f[0]), []).append(f)
    comps = [Complex._of_maximal(frozenset(g)) for g in groups.values()]
    comps.sort(key=lambda c: c.vertices[0])
    return comps


def subdivision_encoding(k: Complex) -> dict[Face, int]:
    """Deterministic dictionary assigning fresh vertex ids to the faces of ``k``.

    Faces are sorted lexicographically and numbered consecutively from 0,
    so repeated runs produce identical ids.
    """
    return {f: i for i, f in enumerate(sorted(k.faces))}


def barycentric_subdivision(k: Complex, encoding: Mapping[Face, int] | None = None) -> Complex:
    """Complex of chains of faces of ``k`` ordered by strict inclusion.

    Vertices of the result are the faces of ``k``, re-encoded through
    ``encoding`` (default: ``subdivision_encoding(k)``). Passing a shared
    encoding built over several complexes keeps their subdivisions
    comparable. Maximal faces of the result are the saturated chains
    running from a singleton up to a maximal face, ``|m|!`` of them per
    maximal face ``m``. Raises TooLargeError when that chain count,
    summed over the maximal faces, exceeds ``MAX_SUBDIVISION_CHAINS``
    (9!, one 9-vertex simplex; 10 vertices would take about 10 times
    as long).
    """
    # a face of 10 or more vertices alone exceeds the cap; min() spares huge factorials
    if sum(factorial(min(len(m), 10)) for m in k.maximal_faces) > MAX_SUBDIVISION_CHAINS:
        raise TooLargeError(f"barycentric subdivision capped at {MAX_SUBDIVISION_CHAINS} chains")
    if encoding is None:
        encoding = subdivision_encoding(k)
    chains: set[Face] = set()
    for m in k.maximal_faces:
        # id of the face on each nonempty subset of m's positions, by bitmask;
        # a running sum of distinct bits is the bitmask of each prefix
        ids = {mask: encoding[tuple(v for j, v in enumerate(m) if mask >> j & 1)]
               for mask in range(1, 1 << len(m))}
        for order in permutations([1 << j for j in range(len(m))]):
            chains.add(tuple(sorted([ids[prefix] for prefix in accumulate(order)])))
    return Complex._of_maximal(frozenset(chains))


def apply_vertex_map(k: Complex, mapping: Mapping[int, int]) -> Complex:
    """Relabel ``k`` through an injective vertex map defined on its vertex set.

    Raises UndefinedVertexError for a vertex with no image, EmptyInputError
    for an image that is not a nonnegative integer, and NotInjectiveError
    when two vertices share an image.
    """
    for v in k.vertices:
        if v not in mapping:
            raise UndefinedVertexError(f"vertex {v} has no image")
    if len(normalize_face(mapping[v] for v in k.vertices)) != len(k.vertices):
        raise NotInjectiveError("vertex map collapses vertices")
    relabeled = frozenset(tuple(sorted(mapping[v] for v in m)) for m in k.maximal_faces)
    return Complex._of_maximal(relabeled)


# ---------------------------------------------------------------------------
# serialization


def complex_to_json(k: Complex) -> str:
    return json.dumps({"maximal_faces": sorted([list(f) for f in k.maximal_faces])})


def complex_from_json(text: str) -> Complex:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    if not isinstance(data, dict) or "maximal_faces" not in data:
        raise ParseError('expected an object with a "maximal_faces" key')
    faces = data["maximal_faces"]
    if not isinstance(faces, list) or not all(isinstance(f, list) for f in faces):
        raise ParseError('"maximal_faces" must be a list of lists of integers')
    return complex_from_faces(faces)


_INTEGER = re.compile(r"-?[0-9]+")


def integer(text: str) -> int:
    """The integer written as ``-?[0-9]+``; ValueError for any other text.

    The one integer rule of every input: vertex tokens, law vertices and
    the CLI's integer arguments. int() alone would also take "+1", "1_1",
    surrounding blanks and non-ASCII digits, and it refuses more digits
    than it converts.
    """
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"expected an integer, got {reprlib.repr(text)}")
    return int(text)


def complex_from_lines(text: str) -> Complex:
    faces = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        face = []
        for token in re.finditer(r"\S+", raw.split("#", 1)[0]):
            try:
                face.append(integer(token[0]))
            except ValueError:
                raise ParseError(f"expected an integer, got {reprlib.repr(token[0])}",
                                 line=lineno, column=token.start() + 1)
        if face:
            faces.append(face)
    if not faces:
        raise EmptyInputError("no faces in input")
    return complex_from_faces(faces)


def complex_to_lines(k: Complex) -> str:
    return "\n".join(" ".join(map(str, f)) for f in sorted(k.maximal_faces)) + "\n"
