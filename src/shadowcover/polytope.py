"""Polytopes with exact rational vertices.

A ``Polytope`` stores its irredundant vertex list (sorted, so equal bodies
compare equal) together with the derived facet description.  Facet normals
are outward, content-reduced integer vectors; offsets are the exact support
values.  Lower-dimensional bodies are first-class: facets are then relative
facets inside the affine hull, with normals lying in the hull's direction
space.

Facet enumeration is brute force over point subsets (cost C(V, d) * V inside
the affine hull) which is exact and entirely adequate for the desk-scale
bodies this library targets; the inner loop is ``kernels.hull_facets``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Sequence

from . import kernels
from .linalg import (
    Matrix,
    Vector,
    add,
    coordinate_map,
    dot,
    identity,
    integerize,
    matrix,
    matvec,
    neg,
    rank,
    scale,
    sub,
    transpose,
    vector,
    zero_vector,
)

ZERO = Fraction(0)


@dataclass(frozen=True)
class Facet:
    """Half-space a.x <= b supporting the polytope along a facet."""

    normal: Vector
    offset: Fraction
    incident: tuple[int, ...]


@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by independent rational basis rows."""

    ambient_dim: int
    basis: Matrix
    coord_map: Matrix = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.basis:
            raise ValueError("subspace needs at least one basis row")
        if any(len(row) != self.ambient_dim for row in self.basis):
            raise ValueError("basis rows must have the ambient dimension")
        object.__setattr__(self, "coord_map", coordinate_map(self.basis))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords_of(self, x: Sequence[Fraction]) -> Vector:
        """Coordinates of the orthogonal projection of x onto the subspace."""
        return matvec(self.coord_map, x)

    def lift(self, c: Sequence[Fraction]) -> Vector:
        """The subspace point with the given coordinates."""
        return matvec(transpose(self.basis), c)


def subspace(ambient_dim: int, rows: Iterable[Iterable[object]]) -> Subspace:
    return Subspace(ambient_dim, matrix(rows))


@dataclass(frozen=True)
class Polytope:
    """Convex hull of finitely many rational points.

    vertices: the extreme points, lexicographically sorted.
    facets: relative facets inside the affine hull, sorted by (normal, offset).
    affine_basis: integer rows spanning the hull's direction space.
    """

    dim: int
    vertices: tuple[Vector, ...]
    facets: tuple[Facet, ...]
    affine_dim: int
    affine_basis: Matrix

    @property
    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.dim

    def support(self, u: Sequence[Fraction]) -> Fraction:
        """Support value max_{x in P} x . u; u need not be normalised."""
        u = vector(u)
        if len(u) != self.dim:
            raise ValueError("direction dimension mismatch")
        return max(dot(v, u) for v in self.vertices)

    def facet_normals(self) -> list[Vector]:
        return [f.normal for f in self.facets]

    def centroid(self) -> Vector:
        n = len(self.vertices)
        acc = self.vertices[0]
        for v in self.vertices[1:]:
            acc = add(acc, v)
        return scale(Fraction(1, n), acc)


def _scale_to_integers(points: Sequence[Vector]) -> list[tuple[int, ...]]:
    den = 1
    for p in points:
        for x in p:
            den = lcm(den, x.denominator)
    return [tuple(x.numerator * (den // x.denominator) for x in p) for p in points]


def hull_from_vertices(points: Iterable[Sequence[object]]) -> Polytope:
    """Convex hull of the given points; redundant points are dropped.

    Works inside the affine hull, so segments, polygons in space, and other
    lower-dimensional bodies are fine.
    """
    pts = sorted({vector(p) for p in points})
    if not pts:
        raise ValueError("hull of an empty point set")
    n = len(pts[0])
    if n == 0:
        raise ValueError("points must have dimension at least 1")
    if any(len(p) != n for p in pts):
        raise ValueError("points have mixed dimensions")
    if len(pts) == 1:
        return Polytope(n, (pts[0],), (), 0, ())

    p0 = pts[0]
    diff_rows = [integerize(sub(p, p0)) for p in pts[1:]]
    basis_int = kernels.int_echelon(diff_rows)
    adim = len(basis_int)

    if adim == n:
        coords = pts
        back = None
    else:
        basis = matrix(basis_int)
        cmap = coordinate_map(basis)
        coords = [matvec(cmap, sub(p, p0)) for p in pts]
        back = transpose(cmap)

    icoords = _scale_to_integers(coords)
    raw_facets = kernels.hull_facets(icoords)

    extreme: list[int] = []
    active: dict[int, list[tuple[int, ...]]] = {i: [] for i in range(len(pts))}
    for nrm, _, inc in raw_facets:
        for i in inc:
            active[i].append(nrm)
    for i in range(len(pts)):
        if active[i] and kernels.int_rank(active[i]) == adim:
            extreme.append(i)
    new_index = {old: new for new, old in enumerate(extreme)}
    verts = tuple(pts[i] for i in extreme)

    facets = []
    for nrm, _, inc in raw_facets:
        if back is None:
            normal = vector(nrm)
        else:
            normal = matvec(back, vector(nrm))
        nint = vector(integerize(normal))
        offset = max(dot(nint, v) for v in verts)
        incident = tuple(new_index[i] for i in inc if i in new_index)
        facets.append(Facet(nint, offset, incident))
    facets.sort(key=lambda f: (f.normal, f.offset))

    # canonical basis: a function of the final vertex set, not the raw input
    if adim == n:
        final_basis = identity(n)
    else:
        final_basis = matrix(
            kernels.int_echelon([integerize(sub(v, verts[0])) for v in verts[1:]])
        )
    return Polytope(n, verts, tuple(facets), adim, final_basis)


def _trusted(dim, verts, facets, adim, basis) -> Polytope:
    return Polytope(dim, verts, facets, adim, basis)


def support(p: Polytope, u: Sequence[Fraction]) -> Fraction:
    return p.support(u)


def translate(p: Polytope, t: Sequence[Fraction]) -> Polytope:
    """Translate a polytope; an exact fast path, no re-hulling needed."""
    t = vector(t)
    if len(t) != p.dim:
        raise ValueError("translation dimension mismatch")
    verts = tuple(add(v, t) for v in p.vertices)
    facets = tuple(
        Facet(f.normal, f.offset + dot(f.normal, t), f.incident) for f in p.facets
    )
    return _trusted(p.dim, verts, facets, p.affine_dim, p.affine_basis)


def scale_polytope(p: Polytope, c: Fraction | int) -> Polytope:
    """The dilate c * P about the origin."""
    c = Fraction(c)
    if c > 0:
        verts = tuple(scale(c, v) for v in p.vertices)
        facets = tuple(Facet(f.normal, c * f.offset, f.incident) for f in p.facets)
        return _trusted(p.dim, verts, facets, p.affine_dim, p.affine_basis)
    return hull_from_vertices([scale(c, v) for v in p.vertices])


def project(p: Polytope, xi: Subspace) -> Polytope:
    """Shadow of P on the subspace, as a polytope in subspace coordinates.

    The d coordinates are taken with respect to the basis rows of xi, so for
    any w in the row space the shadow's support at (B w) equals P's support
    at w.
    """
    if xi.ambient_dim != p.dim:
        raise ValueError("subspace ambient dimension mismatch")
    return hull_from_vertices([xi.coords_of(v) for v in p.vertices])


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    if p.dim != q.dim:
        raise ValueError("minkowski sum needs equal ambient dimension")
    return hull_from_vertices([add(v, w) for v in p.vertices for w in q.vertices])


def direct_sum_assemble(parts: Sequence[tuple[Subspace, Polytope]]) -> Polytope:
    """Direct Minkowski sum of factors living in complementary subspaces.

    Each factor is given in its subspace's coordinates; the subspace bases
    must be jointly independent.
    """
    if not parts:
        raise ValueError("direct sum of no parts")
    n = parts[0][0].ambient_dim
    stacked: list[Vector] = []
    for sp, factor in parts:
        if sp.ambient_dim != n:
            raise ValueError("direct sum parts have mixed ambient dimensions")
        if factor.dim != sp.dim:
            raise ValueError("factor is not in its subspace's coordinates")
        stacked.extend(sp.basis)
    if rank(matrix(stacked)) != len(stacked):
        raise ValueError("component subspaces are not jointly independent")
    total = None
    for sp, factor in parts:
        embedded = hull_from_vertices([sp.lift(v) for v in factor.vertices])
        total = embedded if total is None else minkowski_sum(total, embedded)
    return total


def direct_sum(p: Polytope, q: Polytope, xi: Subspace, eta: Subspace) -> Polytope:
    return direct_sum_assemble([(xi, p), (eta, q)])


def embed(p: Polytope, target_dim: int) -> Polytope:
    """Append zero coordinates so the body lives in a larger ambient space."""
    if target_dim < p.dim:
        raise ValueError("target dimension must not shrink the body")
    if target_dim == p.dim:
        return p
    pad = (ZERO,) * (target_dim - p.dim)
    verts = tuple(v + pad for v in p.vertices)
    facets = tuple(Facet(f.normal + pad, f.offset, f.incident) for f in p.facets)
    if p.affine_dim == 0:
        basis: Matrix = ()
    else:
        basis = matrix(
            kernels.int_echelon([integerize(sub(v, verts[0])) for v in verts[1:]])
        )
    return _trusted(target_dim, verts, facets, p.affine_dim, basis)


def apply_linear(p: Polytope, psi: Sequence[Sequence[object]]) -> Polytope:
    """Image of P under a nonsingular linear map (rows act on points)."""
    m = matrix(psi)
    if len(m) != p.dim or any(len(row) != p.dim for row in m):
        raise ValueError("transformation must be square of the ambient dimension")
    if rank(m) != p.dim:
        raise ValueError("transformation is singular")
    return hull_from_vertices([matvec(m, v) for v in p.vertices])


def is_centrally_symmetric(p: Polytope) -> Vector | None:
    """The centre if the vertex set is symmetric about its centroid."""
    c2 = scale(Fraction(2), p.centroid())
    vset = set(p.vertices)
    if all(sub(c2, v) in vset for v in p.vertices):
        return scale(Fraction(1, 2), c2)
    return None


def contains_point(p: Polytope, x: Sequence[Fraction]) -> bool:
    """Exact membership test (affine hull plus facet inequalities)."""
    x = vector(x)
    if len(x) != p.dim:
        raise ValueError("point dimension mismatch")
    d = sub(x, p.vertices[0])
    if any(d):
        rows = [integerize(row) for row in p.affine_basis] + [integerize(d)]
        if kernels.int_rank(rows) != p.affine_dim:
            return False
    return all(dot(f.normal, x) <= f.offset for f in p.facets)


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
    f = p.facets[index]
    pts = [p.vertices[i] for i in f.incident]
    acc = pts[0]
    for v in pts[1:]:
        acc = add(acc, v)
    return scale(Fraction(1, len(pts)), acc)


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
            den = lcm(*(x.denominator for r in rows for x in r))
            ints = [[int(x * den) for x in r] for r in rows]
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
