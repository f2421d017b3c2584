"""Exact rational vectors, matrices and linear-system utilities.

Vectors are tuples of ``fractions.Fraction``; matrices are tuples of equal
length rows.  Every operation is exact and deterministic — identical inputs
give bit-identical outputs — and nothing here ever touches floating point.

Rational data reaches the integer kernels as numerators over a common
denominator (``to_ints``), which changes neither rank nor row space; the
coordinate map is built from a subspace's stored integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .kernels import _eliminate, int_dot

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
IntMatrix = tuple[tuple[int, ...], ...]


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


ZERO = Fraction(0)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """u . v, skipping the zero entries of u (most of an LP objective)."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot product")
    return sum((a * b for a, b in zip(u, v) if a), ZERO)


def add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    if len(u) != len(v):
        raise ValueError("dimension mismatch in vector sum")
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    if len(u) != len(v):
        raise ValueError("dimension mismatch in vector difference")
    return tuple(a - b for a, b in zip(u, v))


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


def to_ints(points: Sequence[Sequence[Fraction]]) -> tuple[IntMatrix, int]:
    """Integer numerators of rational points over their common denominator."""
    # star-unpack a list, not a generator: a generator's argument tuple is
    # built by resizing, which strands tuples on the interpreter's free lists
    den = lcm(1, *[x.denominator for p in points for x in p])
    nums = tuple(tuple(x.numerator * (den // x.denominator) for x in p) for p in points)
    return nums, den


def coordinate_map(rows: IntMatrix, den: int) -> tuple[IntMatrix, int]:
    """The map x -> (B B^T)^-1 B x of coordinates in the row space of B.

    B is given as integer rows over a positive denominator, B = rows / den,
    and the map is returned as (A, q), an integer matrix and a positive
    integer with (B B^T)^-1 B = A / q.  With B' = rows = den B, one
    fraction-free elimination of [B' B'^T | B'] gives
    (B' B'^T)^-1 B' = (B B^T)^-1 B / den.  Rows of B must be independent,
    else B B^T is singular and ValueError is raised.  Composing with the lift
    c -> B^T c is the identity on coordinates; lifting then mapping is the
    identity on the row space.  For a square B the map is (B^T)^-1, the
    library's one exact inverse.
    """
    k = len(rows)
    aug = [[int_dot(r, s) for s in rows] + list(r) for r in rows]
    m, pivots = _eliminate(aug, True)
    if pivots[:k] != list(range(k)):
        raise ValueError("singular matrix")
    # row r of the result is den X_r / P_rr, for m's rows [P | X], P diagonal
    q = lcm(*[abs(m[r][r]) for r in range(k)])
    a = [[den * (q // m[r][r]) * x for x in m[r][k:]] for r in range(k)]
    g = gcd(q, *[x for row in a for x in row])
    return tuple(tuple(x // g for x in row) for row in a), q // g
