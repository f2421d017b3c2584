"""Exact translative containment between rational polytopes.

The core question — does some translate of K fit inside L — is a linear
feasibility problem over the translation vector, with one constraint per
facet of L.  Verdicts are exact and carry their own proof: a witness
translation that re-verifies facet by facet, or positive Farkas multipliers
over L's facets combining to an unsatisfiable inequality.

Shadow (projection) containment reduces to the same test inside subspace
coordinates.  Covering of *all* d-shadows is not decidable by finitely many
LPs, so `sampled_shadow_cover` reports statistical evidence over seeded
random subspaces and is labelled as such; everything else in this module is
exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .kernels import int_rank
from .linalg import (
    Vector,
    add,
    integerize,
    inverse,
    matrix,
    matvec,
    sub,
    transpose,
    vector,
    zero_vector,
)
from .lp import Infeasible, LPProblem, Optimal, Unbounded, solve_lp
from .polytope import (
    Polytope,
    Subspace,
    contains_point,
    direct_sum_assemble,
    hull_from_vertices,
    project,
    scale_polytope,
)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class FarkasCertificate:
    """Positive multipliers over facets of L proving that no translate fits.

    With facets (a_i, b_i) of L, the multipliers satisfy sum(lam_i a_i) = 0
    and sum(lam_i (b_i - h_K(a_i))) < 0, exactly.
    """

    multipliers: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class ContainmentVerdict:
    """Outcome of a containment decision, with its exact witness.

    ``hull_mismatch`` flags the degenerate no-fit where K's affine hull
    directions do not even lie in L's, in which case there is no Farkas
    certificate over facets.  ``component`` names the failing factor for
    product containment verdicts.
    """

    fits: bool
    witness: Vector | None = None
    certificate: FarkasCertificate | None = None
    hull_mismatch: bool = False
    component: int | None = None


def fits_exactly(k: Polytope, l: Polytope, v: Sequence[Fraction]) -> bool:
    """Exact check that K + v is contained in L."""
    return all(contains_point(l, add(x, v)) for x in k.vertices)


def certificate_valid(k: Polytope, l: Polytope, cert: FarkasCertificate) -> bool:
    """Exact re-verification of a no-fit certificate."""
    if not cert.multipliers or any(lam <= 0 for _, lam in cert.multipliers):
        return False
    combo = zero_vector(l.dim)
    total = ZERO
    for idx, lam in cert.multipliers:
        facet = l.facets[idx]
        combo = add(combo, tuple(lam * a for a in facet.normal))
        total += lam * (facet.offset - k.support(facet.normal))
    return not any(combo) and total < 0


def _direction_space_contained(k: Polytope, l: Polytope) -> bool:
    if k.affine_dim == 0:
        return True
    if l.affine_dim == 0:
        return False
    rows = [integerize(r) for r in l.affine_basis]
    rows += [integerize(r) for r in k.affine_basis]
    return int_rank(rows) == l.affine_dim


def _sparse_multipliers(lam: Sequence[Fraction]) -> FarkasCertificate:
    return FarkasCertificate(
        tuple((i, x) for i, x in enumerate(lam) if x > 0)
    )


# Verdict guards: explicit raises rather than ``assert``, so that they still
# run under ``python -O``.  A failure is a bug, not an input condition.


def _require_fit(k: Polytope, l: Polytope, v: Vector) -> None:
    if not fits_exactly(k, l, v):
        raise AssertionError("witness translation failed exact re-verification")


def _require_certificate(k: Polytope, l: Polytope, cert: FarkasCertificate) -> None:
    if not certificate_valid(k, l, cert):
        raise AssertionError("Farkas certificate failed exact re-verification")


def _require_outcome(outcome: object, kind: type) -> None:
    if not isinstance(outcome, kind):
        raise AssertionError(
            f"expected an {kind.__name__} LP outcome, got {type(outcome).__name__}"
        )


def _frame(l: Polytope):
    """L's facet normals in the fitting LP's coordinates, and the way back.

    The LP runs in coordinates of L's affine hull: facet normal a becomes
    the row B a for L's basis rows B, and an LP point c lifts to B^T c plus
    the perpendicular shift that carries a point k0 of the body into L's
    affine hull.  A full-dimensional L keeps its normals and lifts c to
    itself, with no Subspace built.
    """
    if l.is_full_dimensional:
        return [f.normal for f in l.facets], lambda c, k0: c
    xi = Subspace(l.dim, l.affine_basis)

    def lift(c: Vector, k0: Vector) -> Vector:
        offset = sub(l.vertices[0], k0)
        v_perp = sub(offset, xi.lift(xi.coords_of(offset)))
        return add(v_perp, xi.lift(c))

    return [matvec(xi.basis, f.normal) for f in l.facets], lift


def translate_fit(k: Polytope, l: Polytope) -> ContainmentVerdict:
    """Decide whether some translate of K fits inside L.

    Feasibility LP over the translation v with one constraint per facet
    (a, b) of L: h_K(a) + a.v <= b.  When L is lower-dimensional the LP runs
    in L's affine-hull coordinates after aligning the orthogonal components,
    provided K's direction space lies in L's (otherwise: no fit, flagged as a
    hull mismatch).
    """
    if k.dim != l.dim:
        raise ValueError("bodies must share an ambient dimension")
    if not l.is_full_dimensional and not _direction_space_contained(k, l):
        return ContainmentVerdict(False, hull_mismatch=True)
    if l.affine_dim == 0:
        # perpendicular alignment is forced and there is nothing left to solve
        v = sub(l.vertices[0], k.vertices[0])
        _require_fit(k, l, v)
        return ContainmentVerdict(True, witness=v)
    normals, lift = _frame(l)
    cons = tuple(
        (a, f.offset - k.support(f.normal)) for a, f in zip(normals, l.facets)
    )
    outcome = solve_lp(LPProblem(zero_vector(l.affine_dim), cons))
    if isinstance(outcome, Optimal):
        v = lift(outcome.point, k.vertices[0])
        _require_fit(k, l, v)
        return ContainmentVerdict(True, witness=v)
    _require_outcome(outcome, Infeasible)
    cert = _sparse_multipliers(outcome.multipliers)
    _require_certificate(k, l, cert)
    return ContainmentVerdict(False, certificate=cert)


def max_scale(k: Polytope, l: Polytope) -> tuple[Fraction, Vector]:
    """The largest alpha >= 0 such that a translate of alpha*K fits in L.

    Solved as: maximise alpha subject to alpha*h_K(a) + a.v <= b over the
    facets (a, b) of L.  Returns the exact optimum and a witness translation.
    """
    if k.dim != l.dim:
        raise ValueError("bodies must share an ambient dimension")
    if l.affine_dim == 0 or (
        not l.is_full_dimensional and not _direction_space_contained(k, l)
    ):
        return ZERO, l.vertices[0]
    normals, lift = _frame(l)
    d = l.affine_dim
    objective = vector([1] + [0] * d)
    cons = tuple(
        ((k.support(f.normal),) + a, f.offset) for a, f in zip(normals, l.facets)
    )
    nonneg = (True,) + (False,) * d
    outcome = solve_lp(LPProblem(objective, cons, nonneg))
    if isinstance(outcome, Unbounded):
        raise RuntimeError("maximal scale is unbounded (degenerate body)")
    _require_outcome(outcome, Optimal)
    alpha = outcome.point[0]
    v = lift(outcome.point[1:], tuple(alpha * x for x in k.vertices[0]))
    _require_fit(scale_polytope(k, alpha), l, v)
    return alpha, v


def shadow_fit(k: Polytope, l: Polytope, xi: Subspace) -> ContainmentVerdict:
    """Whether L's shadow on the subspace contains a translate of K's.

    Both bodies are projected to subspace coordinates and `translate_fit`
    runs there; the returned witness is lifted back into the subspace, so it
    is an ambient vector lying in xi.  A certificate refers to the facets of
    the projected L.
    """
    if xi.ambient_dim != k.dim or k.dim != l.dim:
        raise ValueError("subspace and bodies must share an ambient dimension")
    verdict = translate_fit(project(k, xi), project(l, xi))
    if verdict.fits:
        return ContainmentVerdict(True, witness=xi.lift(verdict.witness))
    return verdict


@dataclass(frozen=True)
class SubspaceSampler:
    """Deterministic stream of random rational d-subspaces.

    Basis entries are integers drawn uniformly from [-entry_bound,
    entry_bound]; draws without full rank are rejected.  The stream is a
    pure function of (seed, d, entry_bound, ambient dimension).
    """

    seed: int
    d: int
    entry_bound: int = 10

    def stream(self, ambient_dim: int) -> Iterator[Subspace]:
        if not 1 <= self.d <= ambient_dim:
            raise ValueError("sampler dimension out of range")
        if self.entry_bound < 1:
            # every draw from [0, 0] has rank 0, so the stream would never yield
            raise ValueError("sampler entry bound must be at least 1")
        rng = random.Random(f"{self.seed}:{ambient_dim}:{self.d}:{self.entry_bound}")
        b = self.entry_bound
        while True:
            rows = [
                tuple(rng.randint(-b, b) for _ in range(ambient_dim))
                for _ in range(self.d)
            ]
            if int_rank(rows) == self.d:
                yield Subspace(ambient_dim, matrix(rows))


@dataclass(frozen=True)
class ShadowCoverReport:
    """Statistical evidence from sampled shadow-containment checks.

    A clean report (no failures) is evidence, not proof: the subspaces are
    sampled, not exhausted.  A failure, however, is an exact counterexample
    subspace.  The first failing trial index is recorded along with its
    verdict.
    """

    d: int
    trials: int
    passes: int
    sampler: SubspaceSampler
    failed_trial: int | None = None
    failed_subspace: Subspace | None = None
    failed_verdict: ContainmentVerdict | None = None

    @property
    def all_passed(self) -> bool:
        return self.passes == self.trials

    @property
    def failures(self) -> int:
        return self.trials - self.passes


def sampled_shadow_cover(
    k: Polytope,
    l: Polytope,
    d: int,
    sampler: SubspaceSampler,
    trials: int,
) -> ShadowCoverReport:
    """Run shadow_fit over `trials` sampled d-subspaces."""
    n = k.dim
    if not 1 <= d <= n - 1:
        raise ValueError("shadow dimension must satisfy 1 <= d <= n-1")
    if sampler.d != d:
        raise ValueError("sampler was built for a different shadow dimension")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    passes = 0
    failed_trial = failed_subspace = failed_verdict = None
    stream = sampler.stream(n)
    for t in range(trials):
        xi = next(stream)
        verdict = shadow_fit(k, l, xi)
        if verdict.fits:
            passes += 1
        elif failed_trial is None:
            failed_trial, failed_subspace, failed_verdict = t, xi, verdict
    return ShadowCoverReport(
        d, trials, passes, sampler, failed_trial, failed_subspace, failed_verdict
    )


def _pairwise_orthogonal(parts: Sequence[tuple[Subspace, Polytope]]) -> bool:
    for i in range(len(parts)):
        bi = parts[i][0].basis
        for j in range(i + 1, len(parts)):
            for row in parts[j][0].basis:
                if any(matvec(bi, row)):
                    return False
    return True


def product_containment(
    k: Polytope, parts: Sequence[tuple[Subspace, Polytope]]
) -> ContainmentVerdict:
    """Containment of K in a direct sum C, decided component by component.

    The component subspaces must decompose the ambient space.  For an
    orthogonal decomposition, K fits in C exactly when each shadow of K fits
    in the matching factor, and the per-component witnesses add up.  A
    non-orthogonal decomposition is first straightened by the linear map
    sending the stacked component bases to coordinate blocks, and the
    witness is mapped back through the inverse.
    """
    if not parts:
        raise ValueError("product containment needs at least one component")
    n = k.dim
    stacked: list[Vector] = []
    for sp, factor in parts:
        if sp.ambient_dim != n:
            raise ValueError("component ambient dimension mismatch")
        if factor.dim != sp.dim:
            raise ValueError("factor is not in component coordinates")
        stacked.extend(sp.basis)
    if len(stacked) != n or int_rank([integerize(r) for r in stacked]) != n:
        raise ValueError("components do not form a direct sum of the space")

    if _pairwise_orthogonal(parts):
        v = zero_vector(n)
        for idx, (sp, factor) in enumerate(parts):
            verdict = translate_fit(project(k, sp), factor)
            if not verdict.fits:
                return ContainmentVerdict(
                    False,
                    certificate=verdict.certificate,
                    hull_mismatch=verdict.hull_mismatch,
                    component=idx,
                )
            v = add(v, sp.lift(verdict.witness))
        _require_fit(k, direct_sum_assemble(parts), v)
        return ContainmentVerdict(True, witness=v)

    m = matrix(stacked)
    psi = inverse(transpose(m))
    straightened_k = hull_from_vertices([matvec(psi, x) for x in k.vertices])
    blocks: list[tuple[Subspace, Polytope]] = []
    offset = 0
    for sp, factor in parts:
        rows = []
        for r in range(sp.dim):
            row = [ZERO] * n
            row[offset + r] = ONE
            rows.append(tuple(row))
        blocks.append((Subspace(n, tuple(rows)), factor))
        offset += sp.dim
    verdict = product_containment(straightened_k, blocks)
    if not verdict.fits:
        return verdict
    v = matvec(transpose(m), verdict.witness)
    _require_fit(k, direct_sum_assemble(parts), v)
    return ContainmentVerdict(True, witness=v)
