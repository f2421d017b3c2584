"""Polytopes with exact rational vertices, stored in integers.

A ``Polytope`` stores only a canonical integer form (see its docstring), so
equal bodies compare equal, and a ``Subspace`` stores its basis rows once,
as integers over one denominator (``subspace`` builds it from rational
rows); their ``Fraction`` views are for the API and JSON, built on first
read.  Facet normals are outward and content-reduced.  Lower-dimensional
bodies are first-class: facets are then relative facets inside the affine
hull, with normals in its direction space.  Support values, membership
tests, shadows and ``scale_polytope`` compute on integers.

One integer hull core serves ``hull_from_vertices``, which scales its points
to integers first, and ``int_image``, which maps vertex numerators by an
integer matrix: projections, linear images, direct sums and the factor
blocks of a split all go through it.  The first affinely independent
points fix the affine hull, and facets and vertices come from
``kernels.hull_facets`` inside it: an interval's two ends in dimension 1,
Andrew's monotone chain and its turning points in dimension 2, and from
dimension 3 on the integer double description method, whose cost follows
the facet counts of the hulls it builds point by point rather than the
C(V, d) point subsets.  Its final bit masks are the facet incidence sets,
and a point is a vertex exactly when the masks of the facets through it
meet in that point alone, so no rank test runs per point: 25 points in R^5
with 236 facets take about 9 ms, the 5-cube about 1 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, product
from math import factorial, gcd, lcm
from typing import Iterable, Sequence

from . import kernels, linalg
from .kernels import int_dot
from .linalg import (
    IntMatrix,
    Matrix,
    Vector,
    add,
    dot,
    matrix,
    neg,
    scale,
    sub,
    to_ints,
    vector,
    zero_vector,
)

# a facet a.x <= b as (integer normal a, numerator of b, denominator of b)
IntFacet = tuple[tuple[int, ...], int, int]


@dataclass(frozen=True)
class Facet:
    """Half-space a.x <= b supporting the polytope along a facet.

    The normal is a content-reduced integer vector (of ``Fraction`` entries).
    """

    normal: Vector
    offset: Fraction
    incident: tuple[int, ...]


@dataclass(frozen=True, repr=False)
class Subspace:
    """A linear subspace given by independent rational basis rows.

    int_basis: the basis B as (R, den), B = R / den with den > 0 coprime to
      R's entries, so equal bases compare equal; integer rows are (R, 1).
    ``subspace`` builds one from rational rows, and ``basis`` is the
    ``Fraction`` view, built on first read.  Coordinates in the subspace are
    those of B: the orthogonal projection of x is B^T c with
    c = (B B^T)^-1 B x, kept as the integer map A / q of ``coordinate_map``.
    """

    ambient_dim: int
    int_basis: tuple[IntMatrix, int]

    def __post_init__(self) -> None:
        rows, den = self.int_basis
        if not rows:
            raise ValueError("subspace needs at least one basis row")
        if any(len(row) != self.ambient_dim for row in rows):
            raise ValueError("basis rows must have the ambient dimension")
        if den <= 0 or gcd(den, *[x for row in rows for x in row]) > 1:
            raise ValueError("basis denominator must be positive and coprime")
        if kernels.int_rank(rows) != len(rows):
            raise ValueError("basis rows are dependent")

    @property
    def dim(self) -> int:
        return len(self.int_basis[0])

    @cached_property
    def basis(self) -> Matrix:
        rows, den = self.int_basis
        return tuple(tuple(Fraction(x, den) for x in row) for row in rows)

    @cached_property
    def coord_map(self) -> tuple[IntMatrix, int]:
        """(A, q) with (B B^T)^-1 B = A / q, built on first use: component
        subspaces never project."""
        return linalg.coordinate_map(*self.int_basis)

    def __repr__(self) -> str:
        # the text of the Fraction form, which digests of factors have pinned
        return f"Subspace(ambient_dim={self.ambient_dim!r}, basis={self.basis!r})"


def subspace(ambient_dim: int, rows: Iterable[Iterable[object]]) -> Subspace:
    """The subspace spanned by rational basis rows."""
    return Subspace(ambient_dim, to_ints(matrix(rows)))


@dataclass(frozen=True, repr=False)
class Polytope:
    """Convex hull of finitely many rational points, stored in integers.

    int_vertices: the extreme points as (numerators X, denominator D), D > 0
      coprime to X's entries, rows sorted.
    int_facets: relative facets a.x <= bn / bd, a content-reduced, bn / bd in
      lowest terms, sorted by a; incidences: the vertices on each facet.
    int_basis: the integer echelon basis of the hull's direction space.

    ``vertices``, ``facets`` and ``affine_basis`` are ``Fraction`` views,
    built on first read; equality and hashing use the canonical integers.
    """

    dim: int
    int_vertices: tuple[IntMatrix, int]
    int_facets: tuple[IntFacet, ...]
    incidences: tuple[tuple[int, ...], ...]
    affine_dim: int
    int_basis: IntMatrix

    @cached_property
    def vertices(self) -> tuple[Vector, ...]:
        nums, den = self.int_vertices
        return tuple(tuple(Fraction(x, den) for x in v) for v in nums)

    @cached_property
    def facets(self) -> tuple[Facet, ...]:
        return tuple(
            Facet(tuple(map(Fraction, a)), Fraction(bn, bd), inc)
            for (a, bn, bd), inc in zip(self.int_facets, self.incidences)
        )

    @cached_property
    def affine_basis(self) -> Matrix:
        return matrix(self.int_basis)

    @cached_property
    def affine_frame(self) -> tuple[IntMatrix, IntMatrix, int, IntMatrix]:
        """(N, A, q, B^T) for the integer basis rows B of the affine hull: the
        facet normals a as rows B a, the coordinate map A / q of B, and B's
        columns.  Built on first use; flat covers fit in these coordinates."""
        basis = self.int_basis
        normals = tuple(
            tuple(int_dot(b, a) for b in basis) for a, _, _ in self.int_facets
        )
        return (normals, *linalg.coordinate_map(basis, 1), tuple(zip(*basis)))

    def __repr__(self) -> str:
        # the text of the Fraction form, which digests of bodies have pinned
        names = ("dim", "vertices", "facets", "affine_dim", "affine_basis")
        return f"Polytope({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    @property
    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.dim

    def int_support(self, a: Sequence[int]) -> int:
        """max of a.X over the vertex numerators X: the support value at an
        integer direction a, times the common denominator."""
        return max(int_dot(a, v) for v in self.int_vertices[0])

    def support(self, u: Sequence[Fraction]) -> Fraction:
        """Support value max_{x in P} x . u; u need not be normalised.

        Computed in integers: u is scaled over its own denominator.
        """
        u = vector(u)
        if len(u) != self.dim:
            raise ValueError("direction dimension mismatch")
        (ui,), uden = to_ints((u,))
        return Fraction(self.int_support(ui), self.int_vertices[1] * uden)

    def centroid(self) -> Vector:
        nums, den = self.int_vertices
        return tuple(Fraction(sum(col), len(nums) * den) for col in zip(*nums))


def hull_from_vertices(points: Iterable[Sequence[object]]) -> Polytope:
    """Convex hull of the given points; redundant points are dropped.

    Works inside the affine hull, so segments, polygons in space, and other
    lower-dimensional bodies are fine.  The points are scaled to integers
    over their common denominator and hulled by the integer core that
    ``project`` shares.
    """
    pts = [vector(p) for p in points]
    if not pts:
        raise ValueError("hull of an empty point set")
    n = len(pts[0])
    if n == 0:
        raise ValueError("points must have dimension at least 1")
    if any(len(p) != n for p in pts):
        raise ValueError("points have mixed dimensions")
    return _int_hull(n, *to_ints(pts))


def _int_hull(n: int, points: Sequence[tuple[int, ...]], den: int) -> Polytope:
    """Hull of the points p / den, for integer points p in R^n and den > 0.

    The first affinely independent points (``kernels.affine_prefix``) give
    the affine dimension.  A lower-dimensional body is hulled in the
    coordinates y = B p of the integer echelon basis B of their differences,
    which span its affine hull, and a kernel normal a maps back to the
    ambient normal B^T a.  The vertices are the points the kernel reports.
    """
    pts = sorted(set(points))
    if len(pts) == 1:
        return Polytope(n, canonical(pts, den), (), (), 0, ())

    simplex = kernels.affine_prefix(pts)
    adim = len(simplex) - 1
    coords = pts
    if adim == n:
        basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    else:
        # the row space of all differences is that of the independent ones
        q0 = pts[0]
        basis = kernels.int_echelon([[a - b for a, b in zip(pts[i], q0)]
                                     for i in simplex[1:]])
        coords = [tuple(sum(b * x for b, x in zip(row, p)) for row in basis)
                  for p in pts]
    raw_facets, extreme = kernels.hull_facets(coords)
    new_index = {old: new for new, old in enumerate(extreme)}

    rows = []
    for nrm, b, inc in raw_facets:
        # a.(B p) <= b on the hull, so (B^T a).(p / den) <= b / den
        if adim < n:
            nrm = [sum(a * row[k] for a, row in zip(nrm, basis)) for k in range(n)]
        g = gcd(*nrm)
        incident = tuple(new_index[i] for i in inc if i in new_index)
        rows.append((tuple(x // g for x in nrm), *_lowest(b, den * g), incident))
    # distinct facets have distinct content-reduced normals, so sorting on
    # the integer normal alone gives the (normal, offset) order
    rows.sort(key=lambda r: r[0])
    return Polytope(
        n,
        canonical([pts[i] for i in extreme], den),
        tuple((a, bn, bd) for a, bn, bd, _ in rows),
        tuple(inc for *_, inc in rows),
        adim,
        tuple(basis),
    )


def _lowest(num: int, den: int) -> tuple[int, int]:
    """num / den in lowest terms, for den > 0."""
    g = gcd(num, den)
    return num // g, den // g


def canonical(nums: Sequence[tuple[int, ...]], den: int) -> tuple[IntMatrix, int]:
    """The points nums / den with den made coprime to their entries."""
    g = gcd(den, *[x for v in nums for x in v])
    return tuple(tuple(x // g for x in v) for v in nums), den // g


def scale_polytope(p: Polytope, c: Fraction | int) -> Polytope:
    """The dilate c * P about the origin.

    Computed on P's integers: the vertex numerators are multiplied by c.
    For c > 0 the facet offsets are too and the facets are kept; otherwise
    the image is hulled afresh.
    """
    c = Fraction(c)
    cn, cd = c.numerator, c.denominator
    nums, den = p.int_vertices
    scaled = [tuple(cn * x for x in v) for v in nums]
    if c > 0:
        facets = tuple((a, *_lowest(cn * bn, cd * bd)) for a, bn, bd in p.int_facets)
        return Polytope(p.dim, canonical(scaled, den * cd), facets, p.incidences,
                        p.affine_dim, p.int_basis)
    return _int_hull(p.dim, scaled, den * cd)


def project(p: Polytope, xi: Subspace) -> Polytope:
    """Shadow of P on the subspace, as a polytope in subspace coordinates.

    The d coordinates are taken with respect to the basis rows of xi, so for
    any w in the row space the shadow's support at (B w) equals P's support
    at w.  Computed in integers: with xi's coordinate map A / q and P's
    vertex numerators X over D, the shadow is the hull of A X over q D.
    """
    if xi.ambient_dim != p.dim:
        raise ValueError("subspace ambient dimension mismatch")
    return int_image(*xi.coord_map, p.int_vertices)


def int_image(a: IntMatrix, q: int, vertices: tuple[IntMatrix, int]) -> Polytope:
    """Hull of the image of the points X / D under the linear map A / q.

    A is an integer matrix whose rows act on points, q > 0 and vertices is
    (X, D), integer numerators over D > 0: the image is the hull of A X over
    q D.  Every linear image of a body is built here.
    """
    nums, den = vertices
    images = [tuple(int_dot(row, v) for row in a) for v in nums]
    return _int_hull(len(a), images, q * den)


def stack_bases(spaces: Sequence[Subspace]) -> tuple[IntMatrix, int]:
    """The basis rows of the subspaces, stacked, over one denominator."""
    den = lcm(*[sp.int_basis[1] for sp in spaces])
    return tuple(tuple(x * (den // d) for x in row)
                 for rows, d in (sp.int_basis for sp in spaces) for row in rows), den


def product_vertices(factors: Sequence[Polytope]) -> tuple[IntMatrix, int]:
    """Vertices of the product of the factors, one vertex of each joined, as
    integer numerators over one denominator."""
    den = lcm(*[f.int_vertices[1] for f in factors])
    blocks = [[tuple(x * (den // d) for x in v) for v in nums]
              for nums, d in (f.int_vertices for f in factors)]
    return tuple(tuple(chain(*vs)) for vs in product(*blocks)), den


def blocks_of(x: Sequence, dims: Sequence[int]) -> list:
    """x cut into consecutive blocks of the given sizes."""
    return [x[end - d : end] for d, end in zip(dims, accumulate(dims))]


def direct_sum_assemble(parts: Sequence[tuple[Subspace, Polytope]]) -> Polytope:
    """Direct Minkowski sum of factors living in complementary subspaces.

    Each factor must be in its subspace's coordinates and the bases jointly
    independent; the direct sum is the image of the factors' product under
    M^T, for the stacked subspace bases M.
    """
    if not parts:
        raise ValueError("direct sum of no parts")
    n = parts[0][0].ambient_dim
    for sp, factor in parts:
        if sp.ambient_dim != n:
            raise ValueError("direct sum parts have mixed ambient dimensions")
        if factor.dim != sp.dim:
            raise ValueError("factor is not in its subspace's coordinates")
    rows, den = stack_bases([sp for sp, _ in parts])
    if kernels.int_rank(rows) != len(rows):
        raise ValueError("component subspaces are not jointly independent")
    return int_image(tuple(zip(*rows)), den, product_vertices([f for _, f in parts]))


def direct_sum(p: Polytope, q: Polytope, xi: Subspace, eta: Subspace) -> Polytope:
    return direct_sum_assemble([(xi, p), (eta, q)])


def apply_linear(p: Polytope, psi: Sequence[Sequence[object]]) -> Polytope:
    """Image of P under a nonsingular linear map (rows act on points)."""
    m = matrix(psi)
    if len(m) != p.dim or any(len(row) != p.dim for row in m):
        raise ValueError("transformation must be square of the ambient dimension")
    rows, den = to_ints(m)
    if kernels.int_rank(rows) != p.dim:
        raise ValueError("transformation is singular")
    return int_image(rows, den, p.int_vertices)


def is_centrally_symmetric(p: Polytope) -> Vector | None:
    """The centre if the vertex set is symmetric about its centroid."""
    c2 = scale(Fraction(2), p.centroid())
    vset = set(p.vertices)
    if all(sub(c2, v) in vset for v in p.vertices):
        return scale(Fraction(1, 2), c2)
    return None


def contains_point(p: Polytope, x: Sequence[Fraction]) -> bool:
    """Exact membership test (affine hull plus facet inequalities).

    Computed in integers: with x = xn / xd, a facet a.x <= bn / bd holds
    when (a . xn) bd <= bn xd.
    """
    x = vector(x)
    if len(x) != p.dim:
        raise ValueError("point dimension mismatch")
    (xn,), xd = to_ints((x,))
    if not p.is_full_dimensional:
        # n+1 rows in R^n always have rank n, so only a flat body needs this;
        # x minus the first vertex X0 / D, scaled by D xd
        nums, den = p.int_vertices
        rows = list(p.int_basis)
        rows.append(tuple(den * a - xd * b for a, b in zip(xn, nums[0])))
        if kernels.int_rank(rows) != p.affine_dim:
            return False
    return all(int_dot(a, xn) * bd <= bn * xd for a, bn, bd in p.int_facets)


def translate_of(p: Polytope, q: Polytope) -> Vector | None:
    """The vector t with Q = P + t, if the two bodies are translates."""
    if p.dim != q.dim or len(p.vertices) != len(q.vertices):
        return None
    t = sub(q.vertices[0], p.vertices[0])
    for a, b in zip(p.vertices, q.vertices):
        if add(a, t) != b:
            return None
    return t


def facet_centroid(p: Polytope, index: int) -> Vector:
    nums, den = p.int_vertices
    inc = p.incidences[index]
    return tuple(Fraction(sum(nums[i][j] for i in inc), len(inc) * den)
                 for j in range(p.dim))


def _triangulate(p: Polytope) -> list[tuple[Vector, ...]]:
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


def facet_area_vectors(p: Polytope) -> list[Vector]:
    """The exact area-weighted outward normal of every facet.

    Each vector points along the facet's outward normal with length equal to
    the facet's (n-1)-volume; the entries are rational even though neither
    the unit normal nor the volume alone need be.
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
        total = zero_vector(n)
        for s in _triangulate(face):
            rows = [sub(v, s[0]) for v in s[1:]]
            # cross(D r_1, ..., D r_{n-1}) = D^(n-1) cross(r_1, ..., r_{n-1})
            ints, den = to_ints(rows)
            c = vector(kernels.cross_rows(ints, n))
            if dot(c, f.normal) < 0:
                c = neg(c)
            total = add(total, scale(Fraction(1, den ** (n - 1)), c))
        out.append(scale(Fraction(1, factorial(n - 1)), total))
    return out


def vector_area_check(p: Polytope) -> bool:
    """Whether the area-weighted outward facet normals sum to zero.

    They always do for the boundary of a genuine polytope, which makes this a
    sharp validator for hull construction and for input files.
    """
    total = zero_vector(p.dim)
    for v in facet_area_vectors(p):
        total = add(total, v)
    return not any(total)
