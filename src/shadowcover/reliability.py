"""Simplicial families of directions and the reliable-cover decision.

A simplicial family is a set of directions that are the outward normals of a
simplex: m vectors spanning an (m-1)-dimensional subspace with an
all-positive linear dependency.  Equivalently, a positive circuit of the
direction configuration.

A polytope is a d-reliable cover — covering of every d-shadow implies
covering of the body — exactly when its facet normals contain no simplicial
family of size d+2 or larger.  The decision is exact: a depth-first search
over independent prefixes (``kernels.circuits``) stops at the first family
of size d+2 to rank+1, or proves that none exists, and every returned family
carries its verifiable positive dependency.

The search runs per normal component.  A circuit of vectors in a direct sum
V1 + ... + Vk lies in one summand, so every family lies inside one connected
group of the normal configuration (``_components``, which decomposability
reads too), and a component of rank at most d holds no family of size d+2;
only components of rank >= d+1 are searched, each on its own directions.

All checks are invariant under positive rescaling of individual directions,
which is why unnormalised integer direction vectors can stand in for unit
normals throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .kernels import circuits, int_echelon, int_nullspace, int_rank
from .linalg import Vector, integerize, vector
from .polytope import Polytope, hull_from_vertices, translate_of


@dataclass(frozen=True)
class DirectionSet:
    """Nonzero rational directions, no two positively proportional.

    Directions keep the scale they are given in; their content-reduced
    integer rows are computed once and stored, and every rank test and
    family search reads those.  Antipodal pairs are allowed.  Original
    orientations are kept — positive dependencies are orientation sensitive.
    """

    dim: int
    directions: tuple[Vector, ...]

    def __post_init__(self) -> None:
        seen = {}
        for idx, u in enumerate(self.directions):
            if len(u) != self.dim:
                raise ValueError("direction dimension mismatch")
            if not any(u):
                raise ValueError("zero vector is not a direction")
            key = integerize(u)
            if key in seen:
                raise ValueError(
                    f"directions {seen[key]} and {idx} are positively proportional"
                )
            seen[key] = idx
        # the keys are the integer rows, in direction order
        object.__setattr__(self, "_rows", tuple(seen))

    def integer_directions(self) -> tuple[tuple[int, ...], ...]:
        """The content-reduced integer rows, one per direction."""
        return self._rows


def direction_set(dim: int, dirs: Iterable[Sequence[object]]) -> DirectionSet:
    return DirectionSet(dim, tuple(vector(u) for u in dirs))


def facet_direction_set(p: Polytope) -> DirectionSet:
    """The outward facet normals of a polytope, in facet order.

    For a lower-dimensional polytope these are the relative facet normals
    inside the affine hull, which is where regular boundary points live.
    """
    if not p.facets:
        raise ValueError("polytope has no facets")
    return DirectionSet(p.dim, tuple(f.normal for f in p.facets))


@dataclass(frozen=True)
class SimplicialFamily:
    """Members indices into a direction set plus the positive dependency."""

    members: tuple[int, ...]
    coefficients: tuple[Fraction, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def family_valid(a: DirectionSet, fam: SimplicialFamily) -> bool:
    """Exact check: positive coefficients, zero sum, rank = size - 1."""
    if len(fam.members) != len(fam.coefficients) or len(fam.members) < 2:
        return False
    if any(c <= 0 for c in fam.coefficients):
        return False
    if any(i not in range(len(a.directions)) for i in fam.members):
        return False
    total = [Fraction(0)] * a.dim
    for i, c in zip(fam.members, fam.coefficients):
        u = a.directions[i]
        total = [t + c * x for t, x in zip(total, u)]
    if any(total):
        return False
    rows = [a.integer_directions()[i] for i in fam.members]
    return int_rank(rows) == len(fam.members) - 1


def _family(
    a: DirectionSet, members: tuple[int, ...], int_coeffs: Sequence[int]
) -> SimplicialFamily:
    """A family from a circuit of the integer directions, in a's own scale.

    The circuit's coefficients combine the content-reduced directions; each
    one is rescaled by that direction's factor (integer row)/u so that they
    combine the directions of ``a`` as given (no change for reduced input).
    """
    coeffs = []
    for i, c in zip(members, int_coeffs):
        u, row = a.directions[i], a.integer_directions()[i]
        k = next(j for j, x in enumerate(row) if x)
        coeffs.append(c * row[k] / u[k])
    return SimplicialFamily(members, tuple(coeffs))


@dataclass(frozen=True)
class ReliabilityVerdict:
    reliable: bool
    d: int
    certificate: SimplicialFamily | None
    directions: DirectionSet


def search_space(num_directions: int, rank: int, min_size: int) -> int:
    """Number of subsets the family search ranges over, at most."""
    return sum(
        comb(num_directions, m) for m in range(min_size, rank + 2)
    )


def family_search_space(a: DirectionSet, d: int) -> int:
    """Subsets that is_reliable(a, d) ranges over, at most: search_space per
    normal component of rank >= d+1."""
    comps = _components(a.integer_directions())
    return sum(search_space(len(m), len(b), d + 2) for m, b in comps if len(b) > d)


def _components(dirs: Sequence[tuple[int, ...]]) -> list:
    """The normal components, as (members, echelon basis of their span).

    Two directions belong together when some circuit holds both.  It
    suffices to merge the supports of one nullspace basis of the matrix with
    the directions as columns (the fundamental circuits of one reduced
    echelon form).  Members increase; components come by first member.
    """
    supports = [
        {j for j, c in enumerate(dep) if c}
        for dep in int_nullspace(list(zip(*dirs)), len(dirs))
    ]
    groups: list[set[int]] = []
    for s in supports + [{j} for j in range(len(dirs))]:
        touching = [g for g in groups if g & s]
        groups = [g for g in groups if not g & s] + [s.union(*touching)]
    members = sorted(tuple(sorted(g)) for g in groups)
    return [(m, int_echelon([dirs[j] for j in m])) for m in members]


def is_reliable(body: Polytope | DirectionSet, d: int) -> ReliabilityVerdict:
    """Decide whether the body is a d-reliable cover.

    Reliable exactly when no simplicial family of size >= d+2 exists among
    the facet normals (for a polytope, the normals are taken inside the
    affine hull).  Any such family certifies an unreliable verdict, so the
    certificate is the first one the search meets: the search runs only
    inside the normal components of rank >= d+1, taken by first member, each
    on its own directions in index order, and stops at the first hit.
    """
    a = body if isinstance(body, DirectionSet) else facet_direction_set(body)
    if not 1 <= d <= a.dim - 1:
        raise ValueError("reliability needs 1 <= d <= ambient dimension - 1")
    dirs = a.integer_directions()
    for members, basis in _components(dirs):
        if len(basis) <= d:
            continue
        hit = circuits([dirs[j] for j in members], d + 2, len(basis) + 1)
        if hit:
            break
    else:
        return ReliabilityVerdict(True, d, None, a)
    family = _family(a, tuple(members[i] for i in hit[0][0]), hit[0][1])
    # an explicit raise rather than ``assert``, so it still runs under -O
    if not family_valid(a, family):
        raise AssertionError("simplicial family failed exact re-verification")
    return ReliabilityVerdict(False, d, family, a)


def parallelotope_check(p: Polytope) -> bool:
    """Whether P is a parallelotope (affine image of a box).

    Checked structurally: exactly 2n facets pairing into n antipodal normal
    pairs with independent directions, and opposite facets being translates
    of each other.  This is deliberately independent of the simplicial-family
    machinery so the two can serve as oracles for one another.
    """
    if not p.is_full_dimensional:
        raise ValueError("parallelotope check needs a full-dimensional polytope")
    n = p.dim
    if len(p.facets) != 2 * n:
        return False
    normals = {a: i for i, (a, _, _) in enumerate(p.int_facets)}
    if len(normals) != 2 * n:
        return False
    paired = set()
    pair_reps: list[tuple[int, ...]] = []
    for key, idx in normals.items():
        if idx in paired:
            continue
        anti = tuple(-x for x in key)
        if anti not in normals:
            return False
        paired.add(idx)
        paired.add(normals[anti])
        pair_reps.append(max(key, anti))
    if len(pair_reps) != n or int_rank(pair_reps) != n:
        return False
    for key in pair_reps:
        i = normals[key]
        j = normals[tuple(-x for x in key)]
        face_i = hull_from_vertices([p.vertices[v] for v in p.facets[i].incident])
        face_j = hull_from_vertices([p.vertices[v] for v in p.facets[j].incident])
        if translate_of(face_i, face_j) is None:
            return False
    return True
