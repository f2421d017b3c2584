"""Exact rational linear programming, two-phase simplex with Bland's rule.

Maximisation over constraints a.x <= b with optionally sign-restricted
variables.  Constraint rows are integers (an, bn, den) standing for
a = an / den and b = bn / den; the objective and outcomes are ``Fraction``s.
The tableau is fraction-free, each row integer numerators over one positive
row denominator with their common gcd divided out after every update (in
the line of Edmonds 1967 and Bareiss 1968).  It
holds exactly the rationals of the ``Fraction`` tableau at every step, so
its pivots, outcomes and witnesses are identical to those of the rational
simplex.  It stores only the nonbasic columns and the right-hand side, the
dictionary form of the simplex method (Chvatal 1983): of the full tableau's
structural columns and one slack per constraint, the basic ones are unit
columns, which no step needs to read.  A row's omitted entries are 0 or its
own unit, neither of which changes the gcd it is divided by, so every kept
integer is the full tableau's.  Artificial variables exist only as basis
labels and never get a column.  Pivoting uses Bland's smallest index rule
on the full tableau's column labels, so the solver terminates on every
input and takes the full tableau's pivots.  Every
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


class _Tableau:
    """Simplex tableau in dictionary form: only the nonbasic columns.

    The full tableau has the structural y columns, one slack per constraint
    and the right-hand side.  In canonical form a basic column is a unit in
    its own row and 0 in every other row and in the objective row, so only
    the nonbasic columns are stored: ``labels[p]`` names the full-tableau
    column held at position p, and the right-hand side comes last.  A row
    with negative right-hand side is negated and starts with an artificial
    basic in it, labelled ny + m + k in ``basis`` but given no column: no
    step ever reads one.  Row i holds the rationals ``rows[i][p] / dens[i]``
    with ``dens[i] > 0`` and the gcd of the row and its denominator divided
    out after every update; ``rows[m]`` is the objective row.  The entries
    left out are 0 or the row's own unit ``dens[i] / dens[i]``, neither of
    which changes that gcd, so every kept integer is the one the full
    fraction-free tableau holds, and those are exactly the entries of the
    rational tableau: signs are read off numerators and ratio tests compare
    cross products.
    """

    def __init__(self, p: LPProblem):
        self.p = p
        self.cols: list[tuple[int, int]] = []  # (variable, sign) per y column
        for j in range(len(p.objective)):
            self.cols.append((j, 1))
            if not p.nonneg[j]:
                self.cols.append((j, -1))
        self.ny = ny = len(self.cols)
        self.m = m = len(p.constraints)
        self.rhs = ny + m  # the first artificial label
        # the slacks of negated rows are nonbasic; the others are basic units
        self.art_rows = [i for i, (_, bn, _) in enumerate(p.constraints) if bn < 0]
        self.labels = list(range(ny)) + [ny + i for i in self.art_rows]
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        self.basis: list[int] = []
        k = 0
        for i, (an, bn, den) in enumerate(p.constraints):
            # the row signed so the right-hand side is nonnegative
            s = 1 if bn >= 0 else -1
            row = [s * sg * an[j] for j, sg in self.cols] + [0] * len(self.art_rows)
            row.append(s * bn)
            if s > 0:
                self.basis.append(ny + i)
            else:
                row[ny + k] = -den
                self.basis.append(self.rhs + k)
                k += 1
            nums, den = _reduced(row, den)
            self.rows.append(nums)
            self.dens.append(den)
        self.rows.append([0] * (len(self.labels) + 1))
        self.dens.append(1)

    def pivot(self, i: int, p: int) -> None:
        """Pivot on row i at position p: ``labels[p]`` enters the basis and
        the leaving basic's column takes position p, or is deleted if it is
        an artificial."""
        rows, dens, labels = self.rows, self.dens, self.labels
        prow = rows[i]
        q = prow[p]
        leaving = self.basis[i]
        self.basis[i] = labels[p]
        art = leaving >= self.rhs
        if art:
            del labels[p], prow[p]
        else:
            # the leaving column is row i's unit: dens[i] in row i, 0 elsewhere
            labels[p] = leaving
            prow[p] = dens[i]
        # row i becomes prow / q, whose entry in the entering column is 1;
        # dividing by -g also flips the sign when q < 0
        g = gcd(q, *prow)
        if q < 0:
            g = -g
        if g != 1:
            prow = [x // g for x in prow]
            q //= g
        rows[i] = prow
        dens[i] = q
        for r, row in enumerate(rows):
            if r == i:
                continue
            if art:
                f = row.pop(p)
            else:
                f = row[p]
                row[p] = 0
            if f:
                row = [x * q - f * y for x, y in zip(row, prow)]
                d = dens[r] * q
                g = gcd(d, *row)
                if g > 1:
                    row = [x // g for x in row]
                    d //= g
                rows[r] = row
                dens[r] = d

    def bland(self) -> int | None:
        """Run Bland iterations: None once optimal, else the position of an
        improving column that no row bounds (unbounded)."""
        rows, labels, basis, m = self.rows, self.labels, self.basis, self.m
        while True:
            # Bland's rule: the improving column with the smallest label
            z = rows[m]
            enter = -1
            for p in range(len(labels)):
                if z[p] > 0 and (enter < 0 or labels[p] < labels[enter]):
                    enter = p
            if enter < 0:
                return None
            # rhs_i and coef_i share row i's denominator, so the ratio is a
            # quotient of numerators and two ratios compare as cross products
            # (both coefficients positive): same argmin, same ties
            leave = -1
            best_rhs = best_coef = 0
            for i in range(m):
                row = rows[i]
                coef = row[enter]
                if coef > 0:
                    if leave >= 0:
                        lhs = row[-1] * best_coef
                        other = best_rhs * coef
                        if lhs > other or (lhs == other and basis[i] > basis[leave]):
                            continue
                    leave, best_rhs, best_coef = i, row[-1], coef
            if leave < 0:
                return enter
            self.pivot(leave, enter)

    def point(self) -> Vector:
        x = [ZERO] * len(self.p.objective)
        for i, bcol in enumerate(self.basis):
            if bcol < self.ny:
                j, sg = self.cols[bcol]
                x[j] += sg * Fraction(self.rows[i][-1], self.dens[i])
        return tuple(x)

    def ray(self, enter: int) -> Vector:
        # x-space recession direction as the entering column grows; an
        # entering slack contributes only through the basic adjustments
        r = [ZERO] * len(self.p.objective)
        label = self.labels[enter]
        if label < self.ny:
            j, sg = self.cols[label]
            r[j] += Fraction(sg)
        for i, bcol in enumerate(self.basis):
            if bcol < self.ny:
                j, sg = self.cols[bcol]
                r[j] -= sg * Fraction(self.rows[i][enter], self.dens[i])
        return tuple(r)


def _simplex(p: LPProblem) -> LPOutcome:
    t = _Tableau(p)
    m = t.m
    if t.art_rows:
        # phase-1 objective: minus the sum of the artificials, which over the
        # structural and slack columns is the sum of the rows they start in
        den = lcm(*[t.dens[i] for i in t.art_rows])
        z = t.rows[m]
        for i in t.art_rows:
            scale = den // t.dens[i]
            z = [a + scale * b for a, b in zip(z, t.rows[i])]
        t.rows[m], t.dens[m] = _reduced(z, den)
        if t.bland() is not None:
            raise AssertionError("phase 1 cannot be unbounded")
        z, zden = t.rows[m], t.dens[m]
        if z[-1] > 0:
            # dual read-off (Chvatal 1983): the final phase-1 row is a
            # combination sum w_i R_i of the initial rows, and slack i has
            # entry sigma_i in R_i only, so lam_i = -w_i sigma_i is minus
            # slack i's entry, 0 where slack i is basic; its optimality
            # gives the Farkas signs
            lam = [ZERO] * m
            for label, c in zip(t.labels, z):
                if label >= t.ny:
                    lam[label - t.ny] = Fraction(-c, zden)
            return Infeasible(tuple(lam))
        # drive leftover artificials out of the basis; the slack columns have
        # full row rank, so every row has a nonzero real entry to pivot on,
        # and the smallest such label is taken
        for i in range(m):
            if t.basis[i] >= t.rhs:
                row = t.rows[i]
                t.pivot(i, min(
                    (p for p in range(len(t.labels)) if row[p]),
                    key=t.labels.__getitem__,
                ))

    # phase-2 objective: its coefficients on the nonbasic positions, the
    # right-hand side, then on each row's basic column; each basic one is
    # eliminated with its row in turn, as the full tableau does
    (obj,), den = to_ints((p.objective,))
    coef = [sg * obj[j] for j, sg in t.cols] + [0] * m
    n = len(t.labels) + 1
    z = [coef[label] for label in t.labels] + [0] + [coef[b] for b in t.basis]
    z, den = _reduced(z, den)
    for i in range(m):
        f = z[n + i]
        if f:
            q = t.dens[i]
            tail = [x * q for x in z[n:]]
            tail[i] = 0
            z, den = _reduced(
                [x * q - f * y for x, y in zip(z, t.rows[i])] + tail, den * q
            )
    t.rows[m], t.dens[m] = z[:n], den
    enter = t.bland()
    if enter is not None:
        return Unbounded(t.ray(enter))
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
