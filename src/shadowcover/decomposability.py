"""Direct-sum decomposability of polytopes from their facet normals.

A polytope is d-decomposable when it is a direct Minkowski sum of bodies of
dimension at most d over a direct-sum decomposition of the space.  The facet
normals decide everything: the finest valid grouping of the normals into
subspaces forming a direct sum is computed here, and the polytope is
d-decomposable exactly when every group spans dimension at most d.

The finest grouping is the connectivity decomposition of the normal
configuration: two normals belong together when some minimal linear
dependency (circuit) contains both.  It suffices to chase the fundamental
circuits read off a single reduced echelon form — the supports of a
nullspace basis — and close under union-find; the test suite cross-checks
this against exhaustive circuit enumeration.

Factor extraction straightens the component subspaces to coordinate blocks
with the linear map sending the stacked component bases to the identity,
projects onto the blocks, and verifies the direct-sum reconstruction against
the original body exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .kernels import int_echelon, int_nullspace, int_rank
from .linalg import integerize, inverse, matrix, transpose
from .polytope import (
    Polytope,
    Subspace,
    apply_linear,
    direct_sum_assemble,
    project,
    translate_of,
)
from .reliability import DirectionSet, facet_direction_set, is_reliable


@dataclass(frozen=True)
class Component:
    """One group of the normal configuration and the subspace it spans."""

    subspace: Subspace
    members: tuple[int, ...]


@dataclass(frozen=True)
class DecompositionReport:
    directions: DirectionSet
    components: tuple[Component, ...]
    factors: tuple[tuple[Subspace, Polytope], ...] | None = None

    @property
    def max_component_dim(self) -> int:
        return max(c.subspace.dim for c in self.components)

    def decomposable_at(self, d: int) -> bool:
        return self.max_component_dim <= d

    def dims(self) -> tuple[int, ...]:
        return tuple(c.subspace.dim for c in self.components)


def _components_of(a: DirectionSet) -> list[Component]:
    dirs = a.integer_directions()
    m = len(dirs)
    n = a.dim
    if int_rank(dirs) != n:
        raise ValueError(
            "directions do not span the space (body unbounded or lower-dimensional)"
        )
    # dependencies = nullspace of the matrix with the directions as columns;
    # each basis vector's support is a fundamental circuit
    coord_rows = [tuple(dirs[j][i] for j in range(m)) for i in range(n)]
    deps = int_nullspace(coord_rows, m)

    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for dep in deps:
        support = [j for j, c in enumerate(dep) if c]
        for j in support[1:]:
            union(support[0], j)

    groups: dict[int, list[int]] = {}
    for j in range(m):
        groups.setdefault(find(j), []).append(j)

    comps = []
    for root in sorted(groups):
        members = tuple(sorted(groups[root]))
        basis = int_echelon([dirs[j] for j in members])
        comps.append(Component(Subspace(n, matrix(basis)), members))

    total = sum(c.subspace.dim for c in comps)
    stacked = [integerize(r) for c in comps for r in c.subspace.basis]
    if total != n or int_rank(stacked) != n:
        raise RuntimeError("component spans failed to form a direct sum")
    return comps


def normal_components(a: DirectionSet) -> list[Subspace]:
    """The finest direct-sum grouping of a spanning direction set.

    Every direction lies in exactly one returned subspace and the subspaces
    decompose the ambient space.  Raises ValueError when the directions do
    not span.
    """
    return [c.subspace for c in _components_of(a)]


def is_decomposable(
    body: Polytope | DirectionSet, d: int
) -> tuple[bool, DecompositionReport]:
    """Whether the body is d-decomposable, with the component report.

    A polytope input must be full-dimensional; its facet normals then span.
    A bare direction set is analysed the same way without any geometry.
    """
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
    subspace's coordinates.  For non-orthogonal components the factor
    subspaces are not the normal-span components themselves but their
    straightened counterparts, which is why each factor carries its own
    subspace.  The reconstruction direct_sum_assemble(result) is verified to
    be an exact translate of P before returning.
    """
    n = p.dim
    stacked = [row for sp in components for row in sp.basis]
    if len(stacked) != n:
        raise ValueError("component dimensions must sum to the ambient dimension")
    m = matrix(stacked)
    straightened = apply_linear(p, m)

    m_inv_t = transpose(inverse(m))
    out: list[tuple[Subspace, Polytope]] = []
    offset = 0
    for sp in components:
        d = sp.dim
        block_rows = matrix(
            [
                [1 if c == offset + r else 0 for c in range(n)]
                for r in range(d)
            ]
        )
        factor = project(straightened, Subspace(n, block_rows))
        eta = Subspace(n, m_inv_t[offset : offset + d])
        out.append((eta, factor))
        offset += d

    rebuilt = direct_sum_assemble(out)
    if translate_of(rebuilt, p) is None:
        raise RuntimeError("factor reconstruction does not match the body")
    return out


@dataclass(frozen=True)
class CrossCheckReport:
    """Per-body agreement of 2-reliability and 2-decomposability."""

    entries: tuple[tuple[bool, bool], ...]

    @property
    def violations(self) -> tuple[int, ...]:
        return tuple(i for i, (r, d) in enumerate(self.entries) if r != d)

    @property
    def passed(self) -> bool:
        return not self.violations


def cross_check_2iff2(corpus: Sequence[Polytope]) -> CrossCheckReport:
    """Check reliability(2) == decomposability(2) on centrally symmetric bodies."""
    from .polytope import is_centrally_symmetric

    entries = []
    for p in corpus:
        if is_centrally_symmetric(p) is None:
            raise ValueError("cross-check corpus must be centrally symmetric")
        rel = is_reliable(p, 2).reliable
        dec, _ = is_decomposable(p, 2)
        entries.append((rel, dec))
    return CrossCheckReport(tuple(entries))
