"""Exact rational linear programming, two-phase simplex with Bland's rule.

Maximisation over constraints a.x <= b with optionally sign-restricted
variables.  Constraint rows are integers (an, bn, den) standing for
a = an / den and b = bn / den; the objective and outcomes are ``Fraction``s.
The tableau is fraction-free, each row integer numerators over one positive
row denominator with their common gcd divided out after every update (in
the line of Edmonds 1967 and Bareiss 1968).  It
holds exactly the rationals of the ``Fraction`` tableau at every step, so
its pivots, outcomes and witnesses are identical to those of the rational
simplex.  Its only columns are the structural ones, one slack per
constraint and the right-hand side: artificial variables exist only as
basis labels, since no step reads their columns.  Pivoting uses Bland's
smallest index rule, so the solver terminates on every input.  Every
outcome carries an exactly checkable witness:

* Optimal: a point satisfying all constraints, achieving the value.
* Infeasible: multipliers lam >= 0 with sum(lam_i a_i) vanishing on free
  variables (>= 0 on sign-restricted ones) and sum(lam_i b_i) < 0, read off
  the slack columns of the final phase-1 objective row.
* Unbounded: a recession ray that strictly improves the objective.

``solve_lp`` re-verifies the witness before returning, by substitution in
integers; a failure there is a bug, not an input condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .kernels import int_dot
from .linalg import ZERO, Vector, dot, to_ints


@dataclass(frozen=True)
class LPProblem:
    """maximize objective . x  subject to  a . x <= b, one row per constraint.

    A row (an, bn, den) of integers, den > 0, is a = an / den, b = bn / den.
    ``nonneg[j]`` restricts variable j to x_j >= 0; by default all variables
    are free.
    """

    objective: Vector
    constraints: tuple[tuple[tuple[int, ...], int, int], ...]
    nonneg: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.objective)
        for an, _, den in self.constraints:
            if len(an) != n or den <= 0:
                raise ValueError("constraint row of wrong length or with den <= 0")
        if self.nonneg and len(self.nonneg) != n:
            raise ValueError("nonneg flags dimension mismatch")
        if not self.nonneg:
            object.__setattr__(self, "nonneg", (False,) * n)


@dataclass(frozen=True)
class Optimal:
    point: Vector
    value: Fraction


@dataclass(frozen=True)
class Infeasible:
    multipliers: tuple[Fraction, ...]


@dataclass(frozen=True)
class Unbounded:
    ray: Vector


LPOutcome = Optimal | Infeasible | Unbounded


def _feasible(p: LPProblem, x: Vector, ray: bool) -> bool:
    """Signs and a.x <= b hold for a point; for a ray, a.x <= 0 in place of b.

    Computed in integers: with x = xn / xd, a row (an, bn, den) holds when
    an.xn <= bn xd.
    """
    if len(x) != len(p.objective):
        return False
    if any(flag and xi < 0 for flag, xi in zip(p.nonneg, x)):
        return False
    (xn,), xd = to_ints((x,))
    return all(
        int_dot(an, xn) <= (0 if ray else bn * xd) for an, bn, _ in p.constraints
    )


def verify_outcome(p: LPProblem, outcome: LPOutcome) -> bool:
    """Exact re-substitution check of an outcome's witness; the constraint
    rows and Farkas sums are checked in integers."""
    if isinstance(outcome, Optimal):
        x = outcome.point
        return _feasible(p, x, False) and dot(p.objective, x) == outcome.value
    if isinstance(outcome, Unbounded):
        r = outcome.ray
        return _feasible(p, r, True) and dot(p.objective, r) > 0
    if isinstance(outcome, Infeasible):
        lam = outcome.multipliers
        if len(lam) != len(p.constraints) or any(l < 0 for l in lam):
            return False
        # for lam = ms / M and E = lcm(den_i), the sums of w_i an_i and w_i bn_i
        # with w_i = ms_i E / den_i are M E times those of lam_i a_i, lam_i b_i
        (ms,), _ = to_ints((lam,))
        e = lcm(1, *[den for _, _, den in p.constraints])
        w = [m * (e // den) for m, (_, _, den) in zip(ms, p.constraints)]
        for j, flag in enumerate(p.nonneg):
            combo = int_dot(w, [an[j] for an, _, _ in p.constraints])
            if combo < 0 or (combo and not flag):
                return False
        return int_dot(w, [bn for _, bn, _ in p.constraints]) < 0
    return False


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    """Divide a row and its positive denominator by their common gcd."""
    g = gcd(den, *row)
    if g > 1:
        return [x // g for x in row], den // g
    return row, den


def _cancel(
    row: list[int], den: int, prow: list[int], q: int, j: int
) -> tuple[list[int], int]:
    """row/den minus row[j]/den times prow/q, where prow[j] == q.

    Clears column j of the row (one elimination step of a pivot).
    """
    f = row[j]
    return _reduced([x * q - f * y for x, y in zip(row, prow)], den * q)


class _Tableau:
    """Dense simplex tableau in canonical form (basis columns are units).

    Each row holds the structural y columns, one slack per constraint and the
    right-hand side: width ny + m + 1.  A row with negative right-hand side
    is negated and starts with an artificial basic in it, labelled ny + m + k
    in ``basis`` but given no column: no step ever reads one.  Row i holds
    the rationals ``rows[i][k] / dens[i]`` with ``dens[i] > 0`` and the gcd of
    the row and its denominator divided out after every update; the objective
    row is ``z / zden`` likewise.  These are exactly the entries of the
    rational tableau, so signs are read off numerators and ratio tests compare
    cross products.
    """

    def __init__(self, p: LPProblem):
        self.p = p
        nvars = len(p.objective)
        self.cols: list[tuple[int, int]] = []  # (variable, sign) per y column
        for j in range(nvars):
            self.cols.append((j, 1))
            if not p.nonneg[j]:
                self.cols.append((j, -1))
        self.ny = len(self.cols)
        m = len(p.constraints)
        self.m = m
        self.rhs = self.ny + m
        self.width = self.rhs + 1
        self.art_col: dict[int, int] = {}  # row -> artificial basis label
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        self.basis: list[int] = []
        for i, (an, bn, den) in enumerate(p.constraints):
            # the row signed so the right-hand side is nonnegative; the
            # slack's entry is s * den
            s = 1 if bn >= 0 else -1
            row = [s * sg * an[j] for j, sg in self.cols] + [0] * (m + 1)
            row[self.ny + i] = s * den
            row[self.rhs] = s * bn
            if s < 0:
                self.art_col[i] = self.rhs + len(self.art_col)
            self.basis.append(self.art_col.get(i, self.ny + i))
            nums, den = _reduced(row, den)
            self.rows.append(nums)
            self.dens.append(den)
        self.z: list[int] = [0] * self.width
        self.zden = 1

    def eliminate(self, i: int, j: int) -> None:
        """Clear column j from the objective row using row i (entry 1 there)."""
        if self.z[j]:
            self.z, self.zden = _cancel(
                self.z, self.zden, self.rows[i], self.dens[i], j
            )

    def pivot(self, i: int, j: int) -> None:
        prow = self.rows[i]
        q = prow[j]
        if q < 0:
            prow = [-x for x in prow]
            q = -q
        # row i becomes prow / q, whose entry in column j is 1
        prow, q = _reduced(prow, q)
        self.rows[i] = prow
        self.dens[i] = q
        rows, dens = self.rows, self.dens
        for r in range(self.m):
            if r != i and rows[r][j]:
                rows[r], dens[r] = _cancel(rows[r], dens[r], prow, q, j)
        self.eliminate(i, j)
        self.basis[i] = j

    def bland(self) -> str:
        """Run Bland iterations until optimal or unbounded."""
        rhs = self.rhs
        while True:
            z = self.z
            enter = -1
            for j in range(rhs):
                if z[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            # rhs_i and coef_i share row i's denominator, so the ratio is a
            # quotient of numerators and two ratios compare as cross products
            # (both coefficients positive): same argmin, same ties
            leave = -1
            best_rhs = best_coef = 0
            for i, row in enumerate(self.rows):
                coef = row[enter]
                if coef > 0:
                    if leave >= 0:
                        lhs = row[rhs] * best_coef
                        other = best_rhs * coef
                        if lhs > other or (
                            lhs == other and self.basis[i] > self.basis[leave]
                        ):
                            continue
                    leave, best_rhs, best_coef = i, row[rhs], coef
            if leave < 0:
                self.unbounded_col = enter
                return "unbounded"
            self.pivot(leave, enter)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.rows[i][j], self.dens[i])

    def point(self) -> Vector:
        nvars = len(self.p.objective)
        x = [ZERO] * nvars
        for i, bcol in enumerate(self.basis):
            if bcol < self.ny:
                j, sg = self.cols[bcol]
                x[j] += sg * self.entry(i, self.rhs)
        return tuple(x)

    def ray(self, enter: int) -> Vector:
        # x-space recession direction as the entering column grows; an
        # entering slack contributes only through the basic adjustments
        nvars = len(self.p.objective)
        r = [ZERO] * nvars
        if enter < self.ny:
            j, sg = self.cols[enter]
            r[j] += Fraction(sg)
        for i, bcol in enumerate(self.basis):
            if bcol < self.ny:
                jj, sg2 = self.cols[bcol]
                r[jj] += sg2 * (-self.entry(i, enter))
        return tuple(r)


def _simplex(p: LPProblem) -> LPOutcome:
    t = _Tableau(p)
    if t.art_col:
        # phase-1 objective: minus the sum of the artificials, which over the
        # structural and slack columns is the sum of the rows they start in
        den = lcm(*[t.dens[i] for i in t.art_col])
        z = [0] * t.width
        for i in t.art_col:
            scale = den // t.dens[i]
            z = [a + scale * b for a, b in zip(z, t.rows[i])]
        t.z, t.zden = _reduced(z, den)
        if t.bland() != "optimal":
            raise AssertionError("phase 1 cannot be unbounded")
        if t.z[t.rhs] > 0:
            # dual read-off (Chvatal 1983): the final phase-1 row is a
            # combination sum w_i R_i of the initial rows, and slack i has
            # entry sigma_i in R_i only, so lam_i = -w_i sigma_i is minus
            # slack i's entry; its optimality gives the Farkas signs
            return Infeasible(
                tuple(Fraction(-t.z[t.ny + i], t.zden) for i in range(t.m))
            )
        # drive leftover artificials out of the basis; the slack columns have
        # full row rank, so every row has a nonzero real entry to pivot on
        for i in range(t.m):
            if t.basis[i] >= t.rhs:
                t.pivot(i, next(j for j in range(t.rhs) if t.rows[i][j]))

    (obj,), den = to_ints((p.objective,))
    t.z, t.zden = _reduced([sg * obj[j] for j, sg in t.cols] + [0] * (t.m + 1), den)
    for i, bcol in enumerate(t.basis):
        t.eliminate(i, bcol)
    if t.bland() == "unbounded":
        return Unbounded(t.ray(t.unbounded_col))
    x = t.point()
    return Optimal(x, dot(p.objective, x))


def solve_lp(p: LPProblem) -> LPOutcome:
    """Exact two-phase simplex with Bland's anti-cycling rule."""
    outcome = _simplex(p)
    if not verify_outcome(p, outcome):
        raise AssertionError(
            f"{type(outcome).__name__} LP outcome failed exact re-verification"
        )
    return outcome
