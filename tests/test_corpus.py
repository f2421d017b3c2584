from fractions import Fraction

import pytest

from oracles import random_symmetric_polytope
from shadowcover.corpus import named, names, random_polytope
from shadowcover.linalg import vector
from shadowcover.polytope import (
    hull_certificate_valid,
    hull_from_vertices,
    is_centrally_symmetric,
)
from shadowcover.reliability import DirectionSet

F = Fraction


def test_catalog_is_complete():
    need = {
        "cube-2", "cube-3", "cube-4", "cube-5",
        "square-pyramid",
        "standard-simplex-2", "standard-simplex-3", "standard-simplex-4",
        "standard-simplex-5",
        "octahedron", "hexagonal-prism", "q-directions",
        "sheared-box-2", "sheared-box-3", "sheared-box-4",
    }
    assert need <= set(names())


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        named("dodecahedron")


def test_q_directions_exact_field_for_field():
    q = named("q-directions")
    assert isinstance(q, DirectionSet)
    assert q.dim == 4
    expected = []
    for u in [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
              (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)]:
        expected.append(vector(u))
        expected.append(vector(tuple(-x for x in u)))
    assert list(q.directions) == expected


def test_square_pyramid_definition():
    p = named("square-pyramid")
    assert set(p.vertices) == {
        vector((1, 1, 0)), vector((1, -1, 0)),
        vector((-1, 1, 0)), vector((-1, -1, 0)), vector((0, 0, 1)),
    }


def test_standard_simplex_3():
    s = named("standard-simplex-3")
    assert set(s.vertices) == {
        vector((0, 0, 0)), vector((1, 0, 0)), vector((0, 1, 0)), vector((0, 0, 1)),
    }


def test_octahedron_definition():
    o = named("octahedron")
    assert len(o.vertices) == 6
    assert all(sum(abs(x) for x in v) == 1 for v in o.vertices)
    assert len(o.facets) == 8


def test_named_reproducible():
    assert named("hexagonal-prism") == named("hexagonal-prism")
    assert named("q-directions") == named("q-directions")


def test_random_polytope_golden_seed():
    p = random_polytope(1, 2, 6, 5)
    # frozen on first run; guards the generator against drift
    assert p.vertices == (
        vector((-5, -5)), vector((-5, -2)), vector((-2, 0)),
        vector((3, 3)), vector((4, -5)),
    )


def test_random_polytope_simplex_count():
    p = random_polytope(2, 3, 4, 7)
    assert len(p.vertices) == 4
    assert p.is_full_dimensional


def test_random_polytope_deterministic():
    assert random_polytope(9, 3, 7, 4) == random_polytope(9, 3, 7, 4)


def test_random_symmetric_golden_seed():
    p = random_symmetric_polytope(1, 3, 4, 3)
    # frozen on first run; guards the generator against drift
    assert p.vertices == (
        vector((-3, -1, 3)), vector((-3, 1, 0)), vector((-2, -2, 0)),
        vector((-1, 3, -1)), vector((1, -3, 1)), vector((2, 2, 0)),
        vector((3, -1, 0)), vector((3, 1, -3)),
    )
    assert is_centrally_symmetric(p) == vector((0, 0, 0))


def test_random_symmetric_deterministic():
    a = random_symmetric_polytope(5, 4, 5, 2)
    b = random_symmetric_polytope(5, 4, 5, 2)
    assert a == b


def test_generated_bodies_pass_infrastructure():
    bodies = [random_polytope(s, 3, 7, 4) for s in range(3)]
    bodies += [random_symmetric_polytope(s, 3, 5, 3) for s in range(3)]
    for p in bodies:
        assert p.is_full_dimensional
        assert hull_certificate_valid(p)
        assert hull_from_vertices(p.vertices) == p


def test_vertex_count_precondition():
    with pytest.raises(ValueError):
        random_polytope(1, 3, 3, 5)
    with pytest.raises(ValueError):
        random_symmetric_polytope(1, 3, 2, 5)
