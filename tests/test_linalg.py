from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sy_nullspace, sy_rank
from shadowcover.linalg import (
    identity,
    integerize,
    matrix,
    matvec,
    nullspace,
    rank,
    vector,
)
from shadowcover.polytope import Subspace

F = Fraction


def projector(rows):
    """Matrix of x -> lift(coords_of(x)), orthogonal projection onto the rows."""
    xi = Subspace(len(rows[0]), matrix(rows))
    # the projection is symmetric, so the images of the unit vectors are its rows
    return tuple(xi.lift(xi.coords_of(e)) for e in identity(xi.ambient_dim))


def test_rank_identity():
    assert rank(identity(3)) == 3


def test_rank_three_rows_of_four():
    m = matrix([(1, 1, 0, 0), (0, 0, 1, 1), (-1, 0, 0, -1)])
    assert rank(m) == 3


def test_rank_zero_matrix():
    assert rank(matrix([(0, 0), (0, 0)])) == 0


def test_nullspace_identity_empty():
    assert nullspace(identity(3)) == []


def test_nullspace_four_columns():
    # columns (1,1,0,0), (0,0,1,1), (-1,0,0,-1), (0,-1,-1,0) as a 4x4 system
    cols = [(1, 1, 0, 0), (0, 0, 1, 1), (-1, 0, 0, -1), (0, -1, -1, 0)]
    m = matrix(list(zip(*cols)))
    basis = nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    # proportional to (1,1,1,1)
    assert all(x == v[0] for x in v) and v[0] != 0


def test_nullspace_one_by_two():
    assert nullspace(matrix([(1, -1)])) == [vector((1, 1))]


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
    assert rank(matrix(rows)) == sy_rank(rows)


@given(int_matrices())
@settings(max_examples=120, deadline=None)
def test_rank_nullity_and_exactness(rows):
    m = matrix(rows)
    basis = nullspace(m)
    assert rank(m) + len(basis) == len(rows[0])
    for v in basis:
        assert not any(matvec(m, v))
    assert len(basis) == len(sy_nullspace(rows))


@given(int_matrices(max_rows=3, max_cols=4))
@settings(max_examples=60, deadline=None)
def test_projector_identities(rows):
    m = matrix(rows)
    if rank(m) != len(rows):
        return
    p = projector(m)
    n = len(rows[0])
    # idempotent, symmetric, fixes the basis rows
    from shadowcover.linalg import matmul, transpose

    assert matmul(p, p) == p
    assert transpose(p) == p
    for row in m:
        assert matvec(p, row) == vector(row)


def test_determinism_bit_for_bit():
    m = matrix([(3, 1, 4), (1, 5, 9), (2, 6, 5)])
    assert nullspace(m) == nullspace(m)
    assert rank(m) == rank(m) == 3
