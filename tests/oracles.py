"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths: ranks and
nullspaces come from sympy, hulls are checked by reconstructing vertices
from the half-space side (H-to-V, the reverse of the library's V-to-H),
facets are found by trying every point subset (its normals come from
``cross_rows``, a generalised cross product of Bareiss determinants that the
library does not use), vertices by the rank of the facet normals through
each point, the hull certificate is compared with the ``Fraction`` identity
that a full-dimensional body's area-weighted facet normals sum to zero
(``facet_area_vectors``, which triangulates every facet), LP optima are
recomputed by enumerating basic solutions, LP pivots are replayed on the
full-width simplex tableau that the library's compact one replaced, and
circuits and simplicial families are found by testing every subset in turn
rather than by the library's depth-first search.  The membership, containment and LP
feasibility checks that the library runs in integers are kept here in their
direct ``Fraction`` form, substituting into the rational facets and
constraints.

A failing simplex's witness subspace (``failing_shadow``) follows the
reduction of shadow covering to (d+1)-vertex simplices: its Farkas
multipliers, grouped by the simplex vertex that attains each facet's
support, span a subspace on which the shadows fail too.

The tests also build a few things the library has no use for: translates and
zero-padded embeddings of a body (re-hulled from their vertices, which gives
the same canonical ``Polytope``), LPs over rational (a, b) pairs, centrally
symmetric random bodies, and containment in a direct sum decided block by
block, an independent check on ``translate_fit``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm

import sympy

from shadowcover.containment import ContainmentVerdict, translate_fit
from shadowcover.linalg import to_ints, vector
from shadowcover.lp import Infeasible, LPOutcome, LPProblem, Optimal, Unbounded
from shadowcover.polytope import Subspace, hull_from_vertices


def sy_rank(rows) -> int:
    return sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows]).rank()


def sy_inverse(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a nonsingular square matrix, by sympy."""
    m = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows]).inv()
    return tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in m.row(i)) for i in range(m.rows)
    )


def sy_coords(basis, x) -> tuple[Fraction, ...]:
    """Coordinates (B B^T)^-1 B x of the orthogonal projection of x on the
    row space of B, by sympy."""
    b = sympy.Matrix([[sympy.Rational(y) for y in r] for r in basis])
    c = (b * b.T).inv() * b * sympy.Matrix([sympy.Rational(y) for y in x])
    return tuple(Fraction(int(y.p), int(y.q)) for y in c)


def matvec(m, x) -> tuple[Fraction, ...]:
    """M x in Fractions, for rows of ints or Fractions."""
    return tuple(sum((Fraction(a) * b for a, b in zip(row, x)), Fraction(0))
                 for row in m)


def transpose(m) -> tuple[tuple, ...]:
    return tuple(zip(*m))


def sy_nullspace(rows) -> list[tuple[Fraction, ...]]:
    m = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows])
    out = []
    for v in m.nullspace():
        out.append(tuple(Fraction(int(x.p), int(x.q)) for x in v))
    return out


def _dependency(vectors) -> list[int] | None:
    """The dependency c (sum c_i v_i = 0) of integer vectors whose
    dependencies form a line, else None, by fraction-free Gauss-Jordan
    elimination on the matrix with the vectors as columns."""
    m = len(vectors)
    rows = [[v[i] for v in vectors] for i in range(len(vectors[0]))]
    pivots = []
    free = None
    for col in range(m):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            if free is not None:
                return None
            free = col
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        p = pr[col]
        for i in range(len(rows)):
            f = rows[i][col]
            if i != r and f:
                rows[i] = [p * x - f * y for x, y in zip(rows[i], pr)]
        pivots.append(col)
    if free is None:
        return None
    # pivot rows read p_r x_col + a_r x_free = 0; scale so every entry is whole
    scale = lcm(*[rows[r][col] for r, col in enumerate(pivots)])
    c = [0] * m
    c[free] = scale
    for r, col in enumerate(pivots):
        c[col] = -rows[r][free] * (scale // rows[r][col])
    return c


def _integer_vectors(vectors) -> list[tuple[int, ...]]:
    """The vectors times one common denominator: the same dependencies."""
    den = lcm(*[Fraction(x).denominator for v in vectors for x in v])
    return [tuple(int(Fraction(x) * den) for x in v) for v in vectors]


def primitive(coeffs) -> tuple[int, ...]:
    """Coprime integers proportional to rational coefficients, same signs."""
    den = lcm(*[Fraction(c).denominator for c in coeffs])
    ints = [int(Fraction(c) * den) for c in coeffs]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def simplicial_families(vectors, min_size):
    """Every simplicial family (positive circuit) of at least min_size
    vectors, as (members, positive primitive coefficients), sorted by size
    and then members."""
    vectors = _integer_vectors(vectors)
    out = []
    for size in range(min_size, sy_rank(vectors) + 2):
        for members in combinations(range(len(vectors)), size):
            c = _dependency([vectors[i] for i in members])
            if c is not None and (all(x > 0 for x in c) or all(x < 0 for x in c)):
                out.append((members, primitive([abs(x) for x in c])))
    return out


def circuit_components(vectors) -> list[tuple[int, ...]]:
    """The connected components of the circuits among the vectors: two
    belong together when some circuit holds both.  Every subset of at most
    rank + 1 vectors is tested, except those already inside one component."""
    vectors = _integer_vectors(vectors)
    parent = list(range(len(vectors)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for size in range(2, sy_rank(vectors) + 2):
        for members in combinations(range(len(vectors)), size):
            roots = {find(i) for i in members}
            if len(roots) == 1:
                continue
            c = _dependency([vectors[i] for i in members])
            if c is not None and all(c):
                top = min(roots)
                for r in roots:
                    parent[r] = top
    groups = {}
    for j in range(len(vectors)):
        groups.setdefault(find(j), []).append(j)
    return sorted(tuple(g) for g in groups.values())


def _det(m):
    """Determinant of a small square integer matrix (Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    m = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swapped = False
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    swapped = True
                    break
            if not swapped:
                return 0
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row = m[i]
            prow = m[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pkk - mik * prow[j]) // prev
            row[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]


def cross_rows(rows, dim):
    """Generalised cross product of dim-1 integer row vectors in R^dim.

    The result is orthogonal to every row; it is the zero vector exactly when
    the rows are dependent.  For dim == 1 (no rows) the result is (1,).
    """
    if dim == 1:
        return (1,)
    res = []
    sign = 1
    for k in range(dim):
        minor = [[r[c] for c in range(dim) if c != k] for r in rows]
        res.append(sign * _det(minor))
        sign = -sign
    return tuple(res)


def _triangulate(p) -> list[tuple[tuple[Fraction, ...], ...]]:
    """Simplices with affine_dim+1 vertices covering P (recursive coning)."""
    if p.affine_dim == 0:
        return [(p.vertices[0],)]
    if p.affine_dim == 1:
        return [(p.vertices[0], p.vertices[-1])]
    apex = p.vertices[0]
    simplices = []
    for f in p.facets:
        if 0 in f.incident:
            continue
        sub_poly = hull_from_vertices([p.vertices[i] for i in f.incident])
        for s in _triangulate(sub_poly):
            simplices.append((apex,) + s)
    return simplices


def facet_area_vectors(p) -> list[tuple[Fraction, ...]]:
    """The exact area-weighted outward normal of every facet.

    Each vector points along the facet's outward normal with length equal to
    the facet's (n-1)-volume; the entries are rational even though neither
    the unit normal nor the volume alone need be.  They sum to zero for every
    polytope, the identity that ``hull_certificate_valid`` replaced in the
    library as its hull check.
    """
    if not p.is_full_dimensional:
        raise ValueError("area vectors need a full-dimensional polytope")
    n = p.dim
    out = []
    for f in p.facets:
        if n == 1:
            # a 0-dimensional facet has unit 0-volume
            out.append(f.normal)
            continue
        face = hull_from_vertices([p.vertices[i] for i in f.incident])
        total = [Fraction(0)] * n
        for s in _triangulate(face):
            rows = [[a - b for a, b in zip(v, s[0])] for v in s[1:]]
            # cross(D r_1, ..., D r_{n-1}) = D^(n-1) cross(r_1, ..., r_{n-1})
            ints, den = to_ints(rows)
            c = cross_rows(ints, n)
            if _fdot(c, f.normal) < 0:
                c = [-x for x in c]
            total = [t + Fraction(x, den ** (n - 1)) for t, x in zip(total, c)]
        out.append(tuple(t / factorial(n - 1) for t in total))
    return out


def scan_facets(points) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """Facets of full-dimensional integer points by brute force, in the
    form of ``kernels.hull_facets``: every point subset of size dim that
    spans a hyperplane is a candidate, kept when all points lie weakly on
    one side.  Cost is C(V, dim) * V dot products.
    """
    npts = len(points)
    dim = len(points[0])
    found = {}
    for subset in combinations(range(npts), dim):
        base = points[subset[0]]
        diffs = [[points[i][k] - base[k] for k in range(dim)] for i in subset[1:]]
        nrm = cross_rows(diffs, dim)
        if not any(nrm):
            continue
        g = gcd(*nrm)
        nrm = tuple(x // g for x in nrm)
        b = sum(x * y for x, y in zip(nrm, base))
        haspos = hasneg = False
        sides = []
        for p in points:
            s = sum(x * y for x, y in zip(nrm, p)) - b
            sides.append(s)
            haspos = haspos or s > 0
            hasneg = hasneg or s < 0
            if haspos and hasneg:
                break
        if haspos and hasneg:
            continue
        if haspos:
            nrm = tuple(-x for x in nrm)
            b = -b
        found.setdefault((nrm, b), tuple(i for i, s in enumerate(sides) if s == 0))
    return sorted((n, b, inc) for (n, b), inc in found.items())


def rank_vertices(points, facets) -> list[int]:
    """The extreme points among full-dimensional integer points, in the form
    of ``kernels.hull_facets``' vertex list, by the rank rule: a point is a
    vertex when the normals of the facets through it have rank dim.  A
    repeated point is reported at its first index only.
    """
    dim = len(points[0])
    out = []
    for i, p in enumerate(points):
        if points.index(p) != i:
            continue
        normals = [a for a, _, inc in facets if i in inc]
        if len(normals) >= dim and sy_rank(normals) == dim:
            out.append(i)
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


def translate(p, t):
    """P + t, hulled from the moved vertices."""
    if len(t) != p.dim:
        raise ValueError("translation dimension mismatch")
    return hull_from_vertices([[x + Fraction(y) for x, y in zip(v, t)]
                               for v in p.vertices])


def embed(p, target_dim: int):
    """P with zero coordinates appended, in R^target_dim."""
    if target_dim < p.dim:
        raise ValueError("target dimension must not shrink the body")
    pad = (0,) * (target_dim - p.dim)
    return hull_from_vertices([v + pad for v in p.vertices])


def failing_shadow(t, l, d, cert) -> Subspace:
    """A d-subspace on which the shadow of every body holding the simplex t
    fits no translate of L's, from cert, t's Farkas certificate against L.

    Facet j of L, with multiplier mu_j, goes to a vertex x_i of t that
    attains h_t(a_j), and w_i sums mu_j a_j over its facets.  Then
    sum(w_i) = 0 and sum(h_L(w_i) - x_i.w_i) <= sum(mu_j (b_j - h_t(a_j)))
    < 0, and the w_i, d+1 vectors summing to 0, span at most d dimensions;
    unit vectors fill the basis up to d.
    """
    w = [[Fraction(0)] * l.dim for _ in t.vertices]
    for j, mu in cert.multipliers:
        a = l.facets[j].normal
        i = max(range(len(t.vertices)), key=lambda i: _fdot(a, t.vertices[i]))
        w[i] = [x + mu * y for x, y in zip(w[i], a)]
    units = [[int(i == k) for i in range(l.dim)] for k in range(l.dim)]
    rows = []
    for row in w + units:
        if len(rows) < d and sy_rank(rows + [row]) > len(rows):
            rows.append(row)
    common = lcm(*(Fraction(x).denominator for row in rows for x in row))
    return Subspace(l.dim, (tuple(tuple(int(x * common) for x in row)
                                  for row in rows), 1))


def lp_problem(objective, constraints, nonneg=()) -> LPProblem:
    """The LP over rational (a, b) pairs, each row scaled to integers."""
    rows = [to_ints(((*vector(a), Fraction(b)),)) for a, b in constraints]
    cons = tuple((row[:-1], row[-1], den) for (row,), den in rows)
    return LPProblem(vector(objective), cons, tuple(bool(f) for f in nonneg))


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *row)
    if g > 1:
        return [x // g for x in row], den // g
    return row, den


class _FullTableau:
    """The simplex tableau with every structural, slack and right-hand side
    column, as the library held it before it kept only the nonbasic ones.

    Rows are integer numerators over a positive denominator, divided down to
    lowest terms after every update; the objective row is ``z / zden``.  A
    row with negative right-hand side is negated and starts with an
    artificial basic, labelled ny + m + k and given no column.  Column j of
    the tableau is the column labelled j in the library's compact one.
    """

    def __init__(self, p: LPProblem):
        self.p = p
        self.cols = [(j, sg) for j in range(len(p.objective))
                     for sg in ((1,) if p.nonneg[j] else (1, -1))]
        self.ny = len(self.cols)
        self.m = len(p.constraints)
        self.rhs = self.ny + self.m
        self.art_rows: list[int] = []
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        self.basis: list[int] = []
        self.pivots: list[tuple[int, int]] = []
        for i, (an, bn, den) in enumerate(p.constraints):
            s = 1 if bn >= 0 else -1
            row = [s * sg * an[j] for j, sg in self.cols] + [0] * (self.m + 1)
            row[self.ny + i] = s * den
            row[self.rhs] = s * bn
            if s < 0:
                self.basis.append(self.rhs + len(self.art_rows))
                self.art_rows.append(i)
            else:
                self.basis.append(self.ny + i)
            nums, den = _reduced(row, den)
            self.rows.append(nums)
            self.dens.append(den)
        self.z = [0] * (self.rhs + 1)
        self.zden = 1

    def eliminate(self, i: int, j: int) -> None:
        """Clear column j from the objective row using row i (entry 1 there)."""
        f = self.z[j]
        if f:
            q = self.dens[i]
            self.z, self.zden = _reduced(
                [x * q - f * y for x, y in zip(self.z, self.rows[i])], self.zden * q
            )

    def pivot(self, i: int, j: int) -> None:
        self.pivots.append((i, j))
        prow = self.rows[i]
        q = prow[j]
        if q < 0:
            prow = [-x for x in prow]
            q = -q
        prow, q = _reduced(prow, q)
        self.rows[i], self.dens[i] = prow, q
        for r in range(self.m):
            f = self.rows[r][j]
            if r != i and f:
                self.rows[r], self.dens[r] = _reduced(
                    [x * q - f * y for x, y in zip(self.rows[r], prow)],
                    self.dens[r] * q,
                )
        self.eliminate(i, j)
        self.basis[i] = j

    def bland(self) -> int | None:
        """Bland iterations: None at an optimum, else an improving column
        that no row bounds."""
        rhs = self.rhs
        while True:
            enter = next((j for j in range(rhs) if self.z[j] > 0), None)
            if enter is None:
                return None
            leave = -1
            for i, row in enumerate(self.rows):
                coef = row[enter]
                if coef <= 0:
                    continue
                if leave >= 0:
                    best = self.rows[leave]
                    lhs, other = row[rhs] * best[enter], best[rhs] * coef
                    if lhs > other or (
                        lhs == other and self.basis[i] > self.basis[leave]
                    ):
                        continue
                leave = i
            if leave < 0:
                return enter
            self.pivot(leave, enter)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.rows[i][j], self.dens[i])

    def point(self) -> tuple[Fraction, ...]:
        x = [Fraction(0)] * len(self.p.objective)
        for i, bcol in enumerate(self.basis):
            if bcol < self.ny:
                j, sg = self.cols[bcol]
                x[j] += sg * self.entry(i, self.rhs)
        return tuple(x)

    def ray(self, enter: int) -> tuple[Fraction, ...]:
        r = [Fraction(0)] * len(self.p.objective)
        if enter < self.ny:
            j, sg = self.cols[enter]
            r[j] += sg
        for i, bcol in enumerate(self.basis):
            if bcol < self.ny:
                j, sg = self.cols[bcol]
                r[j] -= sg * self.entry(i, enter)
        return tuple(r)


def full_tableau_simplex(p: LPProblem) -> tuple[LPOutcome, list[tuple[int, int]]]:
    """Two-phase simplex with Bland's rule on the full-width tableau.

    Returns the outcome and every pivot as (leaving row, entering column),
    in order.  Its outcomes are those of the rational simplex, so the
    library's compact tableau must take the same pivots.
    """
    t = _FullTableau(p)
    if t.art_rows:
        # phase 1: minus the sum of the artificials is the sum of their rows
        den = lcm(*[t.dens[i] for i in t.art_rows])
        z = [0] * (t.rhs + 1)
        for i in t.art_rows:
            z = [a + den // t.dens[i] * b for a, b in zip(z, t.rows[i])]
        t.z, t.zden = _reduced(z, den)
        if t.bland() is not None:
            raise AssertionError("phase 1 cannot be unbounded")
        if t.z[t.rhs] > 0:
            lam = tuple(Fraction(-t.z[t.ny + i], t.zden) for i in range(t.m))
            return Infeasible(lam), t.pivots
        for i in range(t.m):
            if t.basis[i] >= t.rhs:
                t.pivot(i, next(j for j in range(t.rhs) if t.rows[i][j]))
    (obj,), den = to_ints((p.objective,))
    t.z, t.zden = _reduced([sg * obj[j] for j, sg in t.cols] + [0] * (t.m + 1), den)
    for i, bcol in enumerate(t.basis):
        t.eliminate(i, bcol)
    enter = t.bland()
    if enter is not None:
        return Unbounded(t.ray(enter)), t.pivots
    x = t.point()
    value = sum((Fraction(c) * xi for c, xi in zip(p.objective, x)), Fraction(0))
    return Optimal(x, value), t.pivots


def random_symmetric_polytope(seed: int, n: int, pair_count: int, coord_bound: int):
    """Hull of +-v over random integer points v; centrally symmetric about 0,
    resampled until full-dimensional."""
    if pair_count < n:
        raise ValueError("need at least n pairs for a full-dimensional hull")
    rng = random.Random(f"sym:{seed}:{n}:{pair_count}:{coord_bound}")
    for _ in range(1000):
        pts = []
        for _ in range(pair_count):
            v = tuple(rng.randint(-coord_bound, coord_bound) for _ in range(n))
            pts.append(v)
            pts.append(tuple(-x for x in v))
        p = hull_from_vertices(pts)
        if p.is_full_dimensional:
            return p
    raise RuntimeError("failed to sample a full-dimensional symmetric polytope")


def product_containment(k, parts):
    """Whether a translate of K fits in the direct sum C of the parts, decided
    factor by factor, as (verdict, index of the first failing factor or None).

    With the component bases stacked as the rows of M, psi = (M^T)^-1 sends
    C to the product of the factors, so K fits in C exactly when block i of
    psi K fits in factor i for every i.  The block witnesses, stacked as w,
    give the witness v = M^T w, which is re-checked by testing every block of
    psi (x + v), x a vertex of K, against its factor.
    """
    stacked = [row for sp, _ in parts for row in sp.basis]
    if len(stacked) != k.dim or sy_rank(stacked) != k.dim:
        raise ValueError("components do not form a direct sum of K's space")
    psi = sy_inverse(transpose(stacked))
    blocks, start = [], 0
    for sp, _ in parts:
        blocks.append(psi[start:start + sp.dim])
        start += sp.dim
    w = []
    for idx, (rows, (_, factor)) in enumerate(zip(blocks, parts)):
        image = hull_from_vertices([matvec(rows, x) for x in k.vertices])
        verdict = translate_fit(image, factor)
        if not verdict.fits:
            return verdict, idx
        w.extend(verdict.witness)
    v = matvec(transpose(stacked), w)
    for x in k.vertices:
        y = [a + b for a, b in zip(x, v)]
        if not all(frac_contains_point(f, matvec(rows, y))
                   for rows, (_, f) in zip(blocks, parts)):
            raise AssertionError("witness translation failed exact re-verification")
    return ContainmentVerdict(True, witness=v), None
