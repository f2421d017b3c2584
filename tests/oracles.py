"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths: ranks and
nullspaces come from sympy, hulls are checked by reconstructing vertices
from the half-space side (H-to-V, the reverse of the library's V-to-H), and
LP optima are recomputed by enumerating basic solutions.  The membership,
containment and LP feasibility checks that the library runs in integers are
kept here in their direct ``Fraction`` form, substituting into the rational
facets and constraints.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import sympy


def sy_rank(rows) -> int:
    return sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows]).rank()


def sy_inverse(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a nonsingular square matrix, by sympy."""
    m = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows]).inv()
    return tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in m.row(i)) for i in range(m.rows)
    )


def sy_nullspace(rows) -> list[tuple[Fraction, ...]]:
    m = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows])
    out = []
    for v in m.nullspace():
        out.append(tuple(Fraction(int(x.p), int(x.q)) for x in v))
    return out


def hrep_vertices(facets, dim) -> set[tuple[Fraction, ...]]:
    """Vertices of an H-representation by basic-solution enumeration.

    facets: (normal, offset) pairs describing a bounded full-dimensional
    region.  Every subset of size dim with independent normals contributes a
    candidate; candidates satisfying all inequalities are the vertices.
    """
    rows = [(tuple(Fraction(x) for x in a), Fraction(b)) for a, b in facets]
    verts: set[tuple[Fraction, ...]] = set()
    for subset in combinations(range(len(rows)), dim):
        m = sympy.Matrix([[sympy.Rational(x) for x in rows[i][0]] for i in subset])
        if m.rank() != dim:
            continue
        rhs = sympy.Matrix([sympy.Rational(rows[i][1]) for i in subset])
        sol = m.solve(rhs)
        x = tuple(Fraction(int(e.p), int(e.q)) for e in sol)
        if all(
            sum(a_i * x_i for a_i, x_i in zip(a, x)) <= b for a, b in rows
        ):
            verts.add(x)
    return verts


def lp_optimum_by_enumeration(objective, constraints, nonneg=()) -> Fraction | None:
    """Optimal value of a bounded LP by basic-solution enumeration.

    nonneg flags add x_j >= 0 rows.  Returns None when no feasible basic
    solution exists (for a bounded pointed region that means infeasible).
    """
    n = len(objective)
    rows = [(tuple(Fraction(x) for x in a), Fraction(b)) for a, b in constraints]
    for j, flag in enumerate(nonneg):
        if flag:
            e = [Fraction(0)] * n
            e[j] = Fraction(-1)
            rows.append((tuple(e), Fraction(0)))
    best = None
    for x in hrep_vertices(rows, n):
        val = sum(c * xi for c, xi in zip(objective, x))
        if best is None or val > best:
            best = val
    return best


def _fdot(u, v) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def frac_contains_point(p, x) -> bool:
    """x in P: x - v0 in the direction space of a flat P, and every facet
    inequality a.x <= b, in Fraction arithmetic."""
    x = tuple(Fraction(c) for c in x)
    if len(x) != p.dim:
        raise ValueError("point dimension mismatch")
    if p.affine_dim < p.dim:
        rows = [list(r) for r in p.affine_basis]
        rows.append([a - b for a, b in zip(x, p.vertices[0])])
        if sy_rank(rows) != p.affine_dim:
            return False
    return all(_fdot(f.normal, x) <= f.offset for f in p.facets)


def frac_fits_exactly(k, l, v) -> bool:
    """K + v inside L: every vertex of K, moved by v, lies in L."""
    return all(
        frac_contains_point(l, [a + Fraction(b) for a, b in zip(x, v)])
        for x in k.vertices
    )


def frac_feasible(rows, nonneg, x, ray: bool) -> bool:
    """An LP point (or, with ray, a recession ray) satisfies the signs and
    every constraint a.x <= b of the rational (a, b) rows (a.x <= 0 for a
    ray), in Fraction arithmetic."""
    if len(x) != len(nonneg):
        return False
    if any(flag and xi < 0 for flag, xi in zip(nonneg, x)):
        return False
    return all(_fdot(a, x) <= (0 if ray else Fraction(b)) for a, b in rows)


def frac_farkas(rows, nonneg, lam) -> bool:
    """Multipliers lam >= 0, one per rational (a, b) row, with sum(lam_i a_i)
    zero on free variables and >= 0 on sign-restricted ones, and
    sum(lam_i b_i) < 0, in Fraction arithmetic."""
    if len(lam) != len(rows) or any(l < 0 for l in lam):
        return False
    for j, flag in enumerate(nonneg):
        combo = sum((l * Fraction(a[j]) for l, (a, _) in zip(lam, rows)), Fraction(0))
        if combo < 0 or (combo and not flag):
            return False
    return sum((l * Fraction(b) for l, (_, b) in zip(lam, rows)), Fraction(0)) < 0


def grid_rationals(lo: Fraction, hi: Fraction, steps: int):
    step = (hi - lo) / steps
    return [lo + k * step for k in range(steps + 1)]
