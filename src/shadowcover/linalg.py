"""Exact rational vectors, matrices and linear-system utilities.

Vectors are tuples of ``fractions.Fraction``; matrices are tuples of equal
length rows.  Every operation is exact and deterministic — identical inputs
give bit-identical outputs — and nothing here ever touches floating point.

Rank and nullspace dispatch to the integer kernels after clearing
denominators (row scaling changes neither the row space nor the solution set
of M x = 0).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .kernels import int_nullspace, int_rank

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def as_scalar(x: object) -> Fraction:
    """Coerce an int, string or Fraction to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def vector(entries: Iterable[object]) -> Vector:
    return tuple(as_scalar(x) for x in entries)


def matrix(rows: Iterable[Iterable[object]]) -> Matrix:
    out = tuple(vector(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("matrix rows have unequal length")
    return out


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot product")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    if len(u) != len(v):
        raise ValueError("dimension mismatch in vector sum")
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    if len(u) != len(v):
        raise ValueError("dimension mismatch in vector difference")
    return tuple(a - b for a, b in zip(u, v))


def scale(c: Fraction | int, u: Sequence[Fraction]) -> Vector:
    return tuple(c * a for a in u)


def neg(u: Sequence[Fraction]) -> Vector:
    return tuple(-a for a in u)


def matvec(m: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> Vector:
    return tuple(dot(row, x) for row in m)


def transpose(m: Sequence[Sequence[Fraction]]) -> Matrix:
    if not m:
        return ()
    return tuple(zip(*m))


def matmul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def integerize(u: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector by a positive rational to coprime integers.

    The zero vector maps to integer zeros; the sign pattern is preserved.
    """
    den = 1
    for a in u:
        den = lcm(den, a.denominator)
    ints = [int(a.numerator) * (den // a.denominator) for a in u]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def integer_rows(m: Sequence[Sequence[Fraction]]) -> list[tuple[int, ...]]:
    return [integerize(row) for row in m]


def rank(m: Sequence[Sequence[Fraction]]) -> int:
    """Dimension of the row space, by exact elimination."""
    if not m:
        raise ValueError("rank of an empty matrix")
    return int_rank(integer_rows(m))


def nullspace(m: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """A basis (possibly empty) of {x : M x = 0}, exact."""
    if not m:
        raise ValueError("nullspace of an empty matrix")
    ncols = len(m[0])
    basis = int_nullspace(integer_rows(m), ncols)
    return [vector(b) for b in basis]


def inverse(m: Sequence[Sequence[Fraction]]) -> Matrix:
    """Exact inverse of a square nonsingular matrix."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse expects a square matrix")
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        pval = aug[col][col]
        aug[col] = [a / pval for a in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return tuple(tuple(aug[i][n:]) for i in range(n))


def coordinate_map(basis: Sequence[Sequence[Fraction]]) -> Matrix:
    """The map x -> (B B^T)^-1 B x of coordinates in the row space of B.

    Rows of B must be independent.  Composing with the lift c -> B^T c is the
    identity on coordinates; lifting then mapping is the identity on the row
    space.
    """
    b = matrix(basis)
    if rank(b) != len(b):
        raise ValueError("basis rows are dependent")
    gram = matmul(b, transpose(b))
    return matmul(inverse(gram), b)
