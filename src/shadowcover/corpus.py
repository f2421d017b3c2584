"""Named example bodies and seeded random polytope generators.

Named examples are bit-reproducible constructions used across the test
suites and the CLI.  Regular simplices (whose vertices are irrational) are
represented by the standard simplex conv{0, e_1, ..., e_n}: every verdict
exercised here — reliability, decomposability, containment equivalences — is
invariant under nonsingular linear images, so the substitution is harmless.

The random generator is deterministic per seed: hulls of uniform integer
points, resampled until full-dimensional.
"""

from __future__ import annotations

import random
from itertools import product

from .polytope import (
    Polytope,
    apply_linear,
    direct_sum,
    hull_from_vertices,
    subspace,
)
from .reliability import DirectionSet, direction_set


def _cube(n: int) -> Polytope:
    return hull_from_vertices(list(product((0, 1), repeat=n)))


def _standard_simplex(n: int) -> Polytope:
    pts = [(0,) * n]
    for i in range(n):
        e = [0] * n
        e[i] = 1
        pts.append(tuple(e))
    return hull_from_vertices(pts)


def _square_pyramid() -> Polytope:
    return hull_from_vertices(
        [(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 1)]
    )


def _cross_polytope(n: int) -> Polytope:
    pts = []
    for i in range(n):
        for s in (1, -1):
            e = [0] * n
            e[i] = s
            pts.append(tuple(e))
    return hull_from_vertices(pts)


def _hexagon() -> Polytope:
    return hull_from_vertices(
        [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]
    )


def _rhombic_dodecahedron() -> Polytope:
    pts = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    for i in range(3):
        for s in (2, -2):
            e = [0, 0, 0]
            e[i] = s
            pts.append(tuple(e))
    return hull_from_vertices(pts)


def _prism(polygon: Polytope, segment: Polytope) -> Polytope:
    plane = subspace(3, [(1, 0, 0), (0, 1, 0)])
    axis = subspace(3, [(0, 0, 1)])
    return direct_sum(polygon, segment, plane, axis)


def _sheared_box(n: int) -> Polytope:
    shear = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        shear[i][i + 1] = 1
    return apply_linear(_cube(n), shear)


def _q_directions() -> DirectionSet:
    base = [
        (1, 1, 0, 0),
        (1, 0, 1, 0),
        (1, 0, 0, 1),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
    ]
    dirs = []
    for u in base:
        dirs.append(u)
        dirs.append(tuple(-x for x in u))
    return direction_set(4, dirs)


_CATALOG = {
    "cube-2": lambda: _cube(2),
    "cube-3": lambda: _cube(3),
    "cube-4": lambda: _cube(4),
    "cube-5": lambda: _cube(5),
    "square-pyramid": _square_pyramid,
    "standard-simplex-2": lambda: _standard_simplex(2),
    "standard-simplex-3": lambda: _standard_simplex(3),
    "standard-simplex-4": lambda: _standard_simplex(4),
    "standard-simplex-5": lambda: _standard_simplex(5),
    "octahedron": lambda: _cross_polytope(3),
    "cross-polytope-4": lambda: _cross_polytope(4),
    "rhombic-dodecahedron": _rhombic_dodecahedron,
    "hexagon": _hexagon,
    "hexagonal-prism": lambda: _prism(_hexagon(), hull_from_vertices([(-1,), (1,)])),
    "triangular-prism": lambda: _prism(
        hull_from_vertices([(0, 0), (1, 0), (0, 1)]), hull_from_vertices([(0,), (1,)])
    ),
    "sheared-box-2": lambda: _sheared_box(2),
    "sheared-box-3": lambda: _sheared_box(3),
    "sheared-box-4": lambda: _sheared_box(4),
    "q-directions": _q_directions,
}


def names() -> list[str]:
    return sorted(_CATALOG)


def named(name: str) -> Polytope | DirectionSet:
    """A catalogued example body or direction set, bit-reproducible."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown example {name!r}; see corpus.names()") from None
    return builder()


def random_polytope(
    seed: int, n: int, vertex_count: int, coord_bound: int
) -> Polytope:
    """Hull of random integer points, resampled until full-dimensional."""
    if vertex_count < n + 1:
        raise ValueError("need at least n+1 points for a full-dimensional hull")
    rng = random.Random(f"poly:{seed}:{n}:{vertex_count}:{coord_bound}")
    for _ in range(1000):
        pts = [
            tuple(rng.randint(-coord_bound, coord_bound) for _ in range(n))
            for _ in range(vertex_count)
        ]
        p = hull_from_vertices(pts)
        if p.is_full_dimensional:
            return p
    raise RuntimeError("failed to sample a full-dimensional polytope")
