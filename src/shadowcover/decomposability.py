"""Direct-sum decomposability of polytopes from their facet normals.

A polytope is d-decomposable when it is a direct Minkowski sum of bodies of
dimension at most d over a direct-sum decomposition of the space.  The facet
normals decide everything: the finest valid grouping of the normals into
subspaces forming a direct sum is computed here, and the polytope is
d-decomposable exactly when every group spans dimension at most d.

The finest grouping is the connectivity decomposition of the normal
configuration: two normals belong together when some minimal linear
dependency (circuit) contains both.  ``reliability._components`` computes
it, for the family search as well; the test suite cross-checks it against
a union of every circuit found by subset enumeration.

Factor extraction maps the body's integer vertex numerators by M, the
stacked component bases, which turns the components into coordinate blocks;
each factor is the image under one row block of M.  The split is verified
exactly: the mapped vertices must be the vertices of the factors' product.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

from .kernels import int_dot, int_rank
from .linalg import coordinate_map
from .polytope import (
    Polytope,
    Subspace,
    blocks_of,
    canonical,
    int_image,
    product_vertices,
    stack_bases,
)
from .reliability import DirectionSet, _components, facet_direction_set


@dataclass(frozen=True)
class Component:
    """One group of the normal configuration and the subspace it spans."""

    subspace: Subspace
    members: tuple[int, ...]


@dataclass(frozen=True)
class DecompositionReport:
    directions: DirectionSet
    components: tuple[Component, ...]

    @property
    def max_component_dim(self) -> int:
        return max(c.subspace.dim for c in self.components)

    def decomposable_at(self, d: int) -> bool:
        return self.max_component_dim <= d

    def dims(self) -> tuple[int, ...]:
        return tuple(c.subspace.dim for c in self.components)


def _components_of(a: DirectionSet) -> list[Component]:
    dirs = a.integer_directions()
    n = a.dim
    if int_rank(dirs) != n:
        raise ValueError(
            "directions do not span the space (body unbounded or lower-dimensional)"
        )
    comps = [
        Component(Subspace(n, (tuple(basis), 1)), members)
        for members, basis in _components(dirs)
    ]
    total = sum(c.subspace.dim for c in comps)
    stacked = [r for c in comps for r in c.subspace.int_basis[0]]
    if total != n or int_rank(stacked) != n:
        raise RuntimeError("component spans failed to form a direct sum")
    return comps


def is_decomposable(
    body: Polytope | DirectionSet, d: int
) -> tuple[bool, DecompositionReport]:
    """Whether the body is d-decomposable, with the component report.

    A polytope input must be full-dimensional; its facet normals then span.
    A bare direction set is analysed the same way without any geometry.
    d must be at least 1.
    """
    if d < 1:
        raise ValueError("decomposability needs d >= 1")
    if isinstance(body, DirectionSet):
        a = body
    else:
        if not body.is_full_dimensional:
            raise ValueError("decomposability needs a full-dimensional polytope")
        a = facet_direction_set(body)
    comps = _components_of(a)
    report = DecompositionReport(a, tuple(comps))
    return report.decomposable_at(d), report


def extract_factors(
    p: Polytope, components: Sequence[Subspace]
) -> list[tuple[Subspace, Polytope]]:
    """Split P into direct-sum factors along its normal components.

    Returns (subspace, factor) pairs with each factor given in its
    subspace's coordinates.  With the component bases as the rows of M,
    factor i is the image of P under row block i of M.  The factor subspaces
    are the row blocks of (M^-1)^T, which for the square M is the coordinate
    map (M M^T)^-1 M; for non-orthogonal components they are not the
    components themselves.  Before returning, the images M v of P's vertices
    are checked to be exactly the vertices of the factors' product (else
    RuntimeError), so direct_sum_assemble(result) is P.
    """
    n = p.dim
    m, q = stack_bases(components)
    if len(m) != n:
        raise ValueError("component dimensions must sum to the ambient dimension")
    m_inv_t, r = coordinate_map(m, q)
    dims = [sp.dim for sp in components]
    factors = [int_image(rows, q, p.int_vertices) for rows in blocks_of(m, dims)]

    # counts first: a wrong split is refused before the product is enumerated;
    # the images M X / (q D) and the product's vertices Y / E then compare as
    # sets of E M X and q D Y
    nums, den = p.int_vertices
    if prod(len(f.int_vertices[0]) for f in factors) != len(nums):
        raise RuntimeError("factor reconstruction does not match the body")
    points, e = product_vertices(factors)
    images = {tuple(e * int_dot(row, v) for row in m) for v in nums}
    if images != {tuple(q * den * y for y in v) for v in points}:
        raise RuntimeError("factor reconstruction does not match the body")
    return [
        (Subspace(n, canonical(b, r)), f)
        for b, f in zip(blocks_of(m_inv_t, dims), factors)
    ]
