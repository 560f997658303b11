"""Shared fixtures, random generators and hypothesis strategies."""

import random

from hypothesis import strategies as st

from simhaus import Complex, MinimaxProblem, complex_from_faces
from simhaus.complex_core import _maximal


def random_complex(rng: random.Random, max_vertex: int = 5, max_faces: int = 4,
                   max_face_size: int = 4) -> Complex:
    """A small random complex over vertices 0..max_vertex."""
    universe = list(range(max_vertex + 1))
    faces = []
    for _ in range(rng.randint(1, max_faces)):
        size = rng.randint(1, max_face_size)
        faces.append(rng.sample(universe, min(size, len(universe))))
    return complex_from_faces(faces)


def random_minimax_problem(rng: random.Random, max_ground: int = 6,
                           max_forms: int = 6) -> MinimaxProblem:
    n = rng.randint(1, max_ground)
    ground = list(range(n))
    forms = []
    for _ in range(rng.randint(1, max_forms)):
        size = rng.randint(1, n)
        forms.append(rng.sample(ground, size))
    return MinimaxProblem.of(ground, forms)


@st.composite
def face_strategy(draw, max_vertex=5):
    verts = draw(st.sets(st.integers(min_value=0, max_value=max_vertex),
                         min_size=1, max_size=max_vertex + 1))
    return tuple(sorted(verts))


@st.composite
def complex_strategy(draw, max_vertex=5, max_faces=4):
    faces = draw(st.lists(face_strategy(max_vertex=max_vertex),
                          min_size=1, max_size=max_faces))
    return complex_from_faces(faces)


@st.composite
def minimax_strategy(draw, max_ground=5, max_forms=5):
    n = draw(st.integers(min_value=1, max_value=max_ground))
    ground = tuple(range(n))
    forms = draw(st.lists(
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n),
        min_size=0, max_size=max_forms))
    return MinimaxProblem.of(ground, forms) if forms else MinimaxProblem(ground, ())


def covering_antichain(n: int, sets) -> tuple[tuple[int, ...], ...]:
    """The maximal members of ``sets`` plus a singleton for each vertex of 0..n-1 they miss."""
    return _maximal([*sets, *((v,) for v in range(n))])


@st.composite
def covering_antichain_strategy(draw, min_ground=2, max_ground=14, max_forms=30):
    """``(n, forms)``: an antichain of subsets of 0..n-1 whose union is all of it."""
    n = draw(st.integers(min_value=min_ground, max_value=max_ground))
    sets = draw(st.lists(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1),
                         max_size=max_forms))
    return n, covering_antichain(n, sets)
