from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import matvec, sy_inverse, sy_nullspace, sy_rank, transpose
from shadowcover.kernels import int_dot, int_nullspace, int_rank
from shadowcover.linalg import coordinate_map, integerize, matrix, to_ints, vector
from shadowcover.polytope import subspace

F = Fraction


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def projector(rows):
    """Matrix of x -> B^T A x / q, the orthogonal projection onto the rows B
    through their coordinate map A / q."""
    xi = subspace(len(rows[0]), rows)
    a, q = xi.coord_map
    # the projection is symmetric, so the images of the unit vectors are its
    # rows; A e_j is column j of A
    return tuple(matvec(transpose(xi.basis), [F(x, q) for x in col]) for col in zip(*a))


def test_rank_identity():
    assert int_rank(identity(3)) == 3


def test_rank_three_rows_of_four():
    m = [(1, 1, 0, 0), (0, 0, 1, 1), (-1, 0, 0, -1)]
    assert int_rank(m) == 3


def test_rank_zero_matrix():
    assert int_rank([(0, 0), (0, 0)]) == 0


def test_nullspace_identity_empty():
    assert int_nullspace([[int(i == j) for j in range(3)] for i in range(3)], 3) == []


def test_nullspace_four_columns():
    # columns (1,1,0,0), (0,0,1,1), (-1,0,0,-1), (0,-1,-1,0) as a 4x4 system
    cols = [(1, 1, 0, 0), (0, 0, 1, 1), (-1, 0, 0, -1), (0, -1, -1, 0)]
    basis = int_nullspace(list(zip(*cols)), 4)
    assert len(basis) == 1
    v = basis[0]
    # proportional to (1,1,1,1)
    assert all(x == v[0] for x in v) and v[0] != 0


def test_nullspace_one_by_two():
    assert int_nullspace([(1, -1)], 2) == [(1, 1)]


def test_projector_axis():
    p = projector(matrix([(1, 0)]))
    assert p == matrix([(1, 0), (0, 0)])


def test_projector_diagonal():
    p = projector(matrix([(1, 1)]))
    assert p == matrix([(F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))])


def test_projector_rejects_dependent_rows():
    with pytest.raises(ValueError):
        projector(matrix([(1, 1), (2, 2)]))


def test_integerize_clears_denominators_and_content():
    assert integerize(vector((F(2, 3), F(4, 3)))) == (1, 2)
    assert integerize(vector((0, 0))) == (0, 0)
    assert integerize(vector((F(-1, 2), F(1, 4)))) == (-2, 1)


small_int = st.integers(min_value=-7, max_value=7)


@st.composite
def int_matrices(draw, max_rows=5, max_cols=5):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    return [
        [draw(small_int) for _ in range(ncols)] for _ in range(nrows)
    ]


@given(int_matrices())
@settings(max_examples=120, deadline=None)
def test_rank_matches_sympy(rows):
    assert int_rank(rows) == sy_rank(rows)


@given(int_matrices())
@settings(max_examples=120, deadline=None)
def test_rank_nullity_and_exactness(rows):
    basis = int_nullspace(rows, len(rows[0]))
    assert int_rank(rows) + len(basis) == len(rows[0])
    for v in basis:
        assert not any(int_dot(row, v) for row in rows)
    assert len(basis) == len(sy_nullspace(rows))


@given(int_matrices(max_rows=3, max_cols=4))
@settings(max_examples=60, deadline=None)
def test_projector_identities(rows):
    if int_rank(rows) != len(rows):
        return
    p = projector(rows)
    n = len(rows[0])
    # idempotent, symmetric, fixes the basis rows
    assert all(matvec(p, matvec(p, e)) == matvec(p, e) for e in identity(n))
    assert transpose(p) == p
    for row in rows:
        assert matvec(p, row) == vector(row)


def test_determinism_bit_for_bit():
    m = [(3, 1, 4), (1, 5, 9), (2, 6, 5)]
    assert int_nullspace(m, 3) == int_nullspace(m, 3)
    assert int_rank(m) == int_rank(m) == 3


@st.composite
def rational_bases(draw):
    n = draw(st.integers(1, 5))
    # square bases, whose coordinate map is the inverse (B^T)^-1, half the time
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=7)
    rows = [[draw(entry) for _ in range(n)] for _ in range(k)]
    if draw(st.booleans()):
        # at least one entry with a denominator, so B is not integral
        rows[0][0] += F(1, draw(st.integers(2, 9)))
    if k > 1 and draw(st.integers(0, 4)) == 0:
        rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1 % (k - 1)])]
    return rows


@given(rational_bases(), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_coordinate_map_matches_sympy(rows, c):
    b = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                      for r in rows])
    # the rows as integers over a denominator, which c makes not coprime
    ints, den = to_ints(rows)
    ints = [[c * x for x in r] for r in ints]
    den *= c
    if b.rank() < len(rows):
        with pytest.raises(ValueError):
            coordinate_map(ints, den)
        return
    a, q = coordinate_map(ints, den)
    assert q > 0 and all(type(x) is int for row in a for x in row)
    expected = (b * b.T).inv() * b
    assert [[F(x, q) for x in row] for row in a] == [
        [F(int(x.p), int(x.q)) for x in expected.row(i)] for i in range(len(rows))
    ]
    if len(rows) == len(rows[0]):
        assert tuple(tuple(F(x, q) for x in row) for row in a) == sy_inverse(list(zip(*rows)))


def test_coordinate_map_rejects_dependent_rows():
    with pytest.raises(ValueError):
        coordinate_map(((2, 1, 6), (2, 1, 6)), 2)
    with pytest.raises(ValueError):
        coordinate_map(((1, 0, 0), (0, 0, 0)), 1)
    with pytest.raises(ValueError, match="singular matrix"):
        coordinate_map(((2, 4), (1, 2)), 2)
