"""Finite abstract simplicial complexes and their combinatorial operations.

A complex is stored by its maximal faces (an antichain under inclusion);
the full downward-closed face family is expanded on demand and cached.
Vertex labels are arbitrary nonnegative integers. The empty complex is
unrepresentable: operations that would produce it raise
EmptyIntersectionError instead.

Serialization (shared with the CLI):
  * JSON object ``{"maximal_faces": [[int, ...], ...]}``
  * line format, one face per line as space-separated integers, with
    blank lines and ``#`` comments ignored

Both formats denote the downward closure of the listed faces.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import chain, combinations, permutations
from typing import Iterable, Mapping

from .errors import (
    EmptyInputError,
    EmptyIntersectionError,
    NotInjectiveError,
    ParseError,
    UndefinedVertexError,
)

Face = tuple[int, ...]


def normalize_face(vertices: Iterable[int]) -> Face:
    """Canonical face storage: sorted, duplicate-free, nonempty vertex tuple."""
    seen = set()
    for v in vertices:
        if isinstance(v, bool) or not isinstance(v, int):
            raise EmptyInputError(f"vertex labels must be integers, got {v!r}")
        if v < 0:
            raise EmptyInputError(f"vertex labels must be nonnegative, got {v}")
        seen.add(v)
    if not seen:
        raise EmptyInputError("faces must be nonempty")
    return tuple(sorted(seen))


def _antichain(faces: Iterable[frozenset[int]]) -> set[frozenset[int]]:
    """Keep only the inclusion-maximal members of a family of vertex sets."""
    fs = sorted(set(faces), key=len, reverse=True)
    maximal: list[frozenset[int]] = []
    for f in fs:
        if not any(f < g for g in maximal):
            maximal.append(f)
    return set(maximal)


class Complex:
    """A nonempty, downward-closed family of faces, stored by maximal faces."""

    def __init__(self, maximal_faces: frozenset[Face]):
        # callers go through complex_from_faces; this trusts its input
        self.maximal_faces: frozenset[Face] = maximal_faces
        self.vertices: tuple[int, ...] = tuple(sorted(set(chain.from_iterable(maximal_faces))))
        self._hash = hash(self.maximal_faces)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @cached_property
    def faces(self) -> frozenset[Face]:
        """Every nonempty subset of a maximal face, i.e. the downward closure."""
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
    """Smallest simplicial complex containing every given face.

    Raises EmptyInputError if the family or any member face is empty.
    """
    normalized = [normalize_face(f) for f in faces]
    if not normalized:
        raise EmptyInputError("a complex needs at least one face")
    maximal = _antichain(frozenset(f) for f in normalized)
    return Complex(frozenset(tuple(sorted(f)) for f in maximal))


def skeleton(k: Complex, n: int) -> Complex:
    """Subcomplex of faces with at most ``n + 1`` vertices."""
    if n < 0:
        raise ValueError("skeleton order must be nonnegative")
    cap = n + 1
    pieces: set[frozenset[int]] = set()
    for m in k.maximal_faces:
        if len(m) <= cap:
            pieces.add(frozenset(m))
        else:
            pieces.update(frozenset(c) for c in combinations(m, cap))
    maximal = _antichain(pieces)
    return Complex(frozenset(tuple(sorted(f)) for f in maximal))


def intersect(a: Complex, b: Complex) -> Complex:
    """Complex whose face family is the intersection of the two face families.

    Raises EmptyIntersectionError when the families are disjoint.
    """
    pieces = set()
    for m in a.maximal_faces:
        ms = frozenset(m)
        for m2 in b.maximal_faces:
            common = ms & frozenset(m2)
            if common:
                pieces.add(common)
    if not pieces:
        raise EmptyIntersectionError("complexes share no face")
    maximal = _antichain(pieces)
    return Complex(frozenset(tuple(sorted(f)) for f in maximal))


def connected_components(k: Complex) -> list[Complex]:
    """Split ``k`` into components whose vertex sets are pairwise disjoint.

    Two faces land in the same component iff they are linked by a chain of
    faces with pairwise nonempty intersection. Components are ordered by
    their smallest vertex.
    """
    faces = sorted(k.maximal_faces)
    parent = list(range(len(faces)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[int, int] = {}
    for i, f in enumerate(faces):
        for v in f:
            if v in owner:
                ri, rj = find(i), find(owner[v])
                if ri != rj:
                    parent[ri] = rj
            else:
                owner[v] = i

    groups: dict[int, list[Face]] = {}
    for i, f in enumerate(faces):
        groups.setdefault(find(i), []).append(f)
    comps = [Complex(frozenset(g)) for g in groups.values()]
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
    running from a singleton up to a maximal face.
    """
    if encoding is None:
        encoding = subdivision_encoding(k)
    chains: set[Face] = set()
    for m in k.maximal_faces:
        for order in permutations(m):
            ids = []
            for i in range(1, len(order) + 1):
                prefix = tuple(sorted(order[:i]))
                ids.append(encoding[prefix])
            chains.add(tuple(sorted(ids)))
    return Complex(frozenset(chains))


def apply_vertex_map(k: Complex, mapping: Mapping[int, int]) -> Complex:
    """Relabel ``k`` through an injective vertex map defined on its vertex set."""
    for v in k.vertices:
        if v not in mapping:
            raise UndefinedVertexError(f"vertex {v} has no image")
    images = [mapping[v] for v in k.vertices]
    if len(set(images)) != len(images):
        raise NotInjectiveError("vertex map collapses vertices")
    relabeled = frozenset(tuple(sorted(mapping[v] for v in m)) for m in k.maximal_faces)
    return Complex(relabeled)


# ---------------------------------------------------------------------------
# serialization


def complex_to_json(k: Complex) -> str:
    return json.dumps({"maximal_faces": sorted([list(f) for f in k.maximal_faces])})


def complex_from_json(text: str) -> Complex:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    if not isinstance(data, dict) or "maximal_faces" not in data:
        raise ParseError('expected an object with a "maximal_faces" key')
    faces = data["maximal_faces"]
    if not isinstance(faces, list) or not all(isinstance(f, list) for f in faces):
        raise ParseError('"maximal_faces" must be a list of lists of integers')
    return complex_from_faces(faces)


def complex_from_lines(text: str) -> Complex:
    faces = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        face = []
        for token in line.split():
            try:
                face.append(int(token))
            except ValueError:
                col = raw.index(token) + 1
                raise ParseError(f"expected an integer, got {token!r}", line=lineno, column=col)
        faces.append(face)
    if not faces:
        raise EmptyInputError("no faces in input")
    return complex_from_faces(faces)


def complex_to_lines(k: Complex) -> str:
    return "\n".join(" ".join(map(str, f)) for f in sorted(k.maximal_faces)) + "\n"
