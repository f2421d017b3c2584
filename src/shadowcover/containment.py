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
from math import lcm
from typing import Iterator, Sequence

from .kernels import int_dot, int_rank
from .linalg import ZERO, Vector, sub, to_ints, vector, zero_vector
from .lp import Infeasible, LPProblem, Optimal, Unbounded, solve_lp
from .polytope import Polytope, Subspace, project, scale_polytope


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
    certificate over facets.
    """

    fits: bool
    witness: Vector | None = None
    certificate: FarkasCertificate | None = None
    hull_mismatch: bool = False


def fits_exactly(k: Polytope, l: Polytope, v: Sequence[Fraction]) -> bool:
    """Exact check that K + v is contained in L, i.e. every vertex of K,
    moved by v, lies in L.

    Computed in integers, with K's vertices X / D and v = vn / vd.  For a
    flat L, one rank test puts every moved vertex in L's affine hull.  Then
    each facet a.x <= bn / bd of L must hold at the moved vertex of largest
    a.X: max(a.X) vd bd + (a.vn) D bd <= bn D vd, i.e. h_K(a) + a.v <= b.
    """
    v = vector(v)
    if len(v) != k.dim:
        raise ValueError("dimension mismatch in vector sum")
    if l.dim != k.dim:
        raise ValueError("point dimension mismatch")
    nums, den = k.int_vertices
    (vn,), vd = to_ints((v,))
    if not l.is_full_dimensional:
        # X / D + v minus L's first vertex Y0 / E, scaled by D vd E
        lnums, lden = l.int_vertices
        shift = [lden * den * a - den * vd * y for a, y in zip(vn, lnums[0])]
        rows = list(l.int_basis)
        rows += [tuple(vd * lden * x + s for x, s in zip(xs, shift)) for xs in nums]
        if int_rank(rows) != l.affine_dim:
            return False
    for a, bn, bd in l.int_facets:
        if (k.int_support(a) * vd + int_dot(a, vn) * den) * bd > bn * den * vd:
            return False
    return True


def certificate_valid(k: Polytope, l: Polytope, cert: FarkasCertificate) -> bool:
    """Exact re-verification of a no-fit certificate.

    Computed in integers: with multipliers m_i / M, K's support values
    H_i / D at L's facet normals a_i and L's offsets b_i over a common
    denominator E, the sums are sum(m_i a_i) = 0 and
    sum(m_i (b_i E D - H_i E)) < 0, each M D E times the rational one.
    """
    if not cert.multipliers or any(lam <= 0 for _, lam in cert.multipliers):
        return False
    if any(idx not in range(len(l.int_facets)) for idx, _ in cert.multipliers):
        return False
    if k.dim != l.dim:
        raise ValueError("direction dimension mismatch")
    facets = [l.int_facets[idx] for idx, _ in cert.multipliers]
    (lams,), _ = to_ints(([lam for _, lam in cert.multipliers],))
    den = k.int_vertices[1]
    e = lcm(*[bd for _, _, bd in facets])
    combo = [0] * l.dim
    total = 0
    for m, (a, bn, bd) in zip(lams, facets):
        combo = [c + m * x for c, x in zip(combo, a)]
        total += m * (bn * (e // bd) * den - k.int_support(a) * e)
    return not any(combo) and total < 0


def _direction_space_contained(k: Polytope, l: Polytope) -> bool:
    if k.affine_dim == 0:
        return True
    if l.affine_dim == 0:
        return False
    return int_rank(l.int_basis + k.int_basis) == l.affine_dim


def _sparse_multipliers(lam: Sequence[Fraction]) -> FarkasCertificate:
    return FarkasCertificate(
        tuple((i, x) for i, x in enumerate(lam) if x > 0)
    )


# The verdict guard: an explicit raise rather than ``assert``, so that it
# still runs under ``python -O``.  A failure is a bug, not an input condition.


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(f"{what} failed exact re-verification")


def _frame(l: Polytope):
    """L's facet normals in the fitting LP's coordinates, and the way back.

    The LP runs in coordinates of L's affine hull: facet normal a becomes
    the integer row B a for L's integer basis rows B, and an LP point c
    lifts to o + B^T (c - A o / q), with A / q the coordinate map of B and
    o the offset from the first vertex of the body being fitted to L's,
    whose part perpendicular to B carries the body into L's affine hull;
    all but o is cached on L.  A full-dimensional L keeps its normals and
    lifts c to itself.
    """
    if l.is_full_dimensional:
        return [a for a, _, _ in l.int_facets], lambda c, body: c
    normals, coords, q, columns = l.affine_frame

    def lift(c: Vector, body: Polytope) -> Vector:
        # with L's vertices Y / E, the body's X / D and c = cn / cd:
        # o = (D Y0 - E X0) / (E D), and c - A o / q = t / (cd q E D)
        (y0, *_), e = l.int_vertices
        (x0, *_), d = body.int_vertices
        o = [d * y - e * x for y, x in zip(y0, x0)]
        od = e * d
        (cn,), cd = to_ints((c,))
        t = [x * q * od - cd * int_dot(row, o) for x, row in zip(cn, coords)]
        return tuple(Fraction(cd * q * x + int_dot(col, t), cd * q * od)
                     for x, col in zip(o, columns))

    return normals, lift


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
        _require(fits_exactly(k, l, v), "witness translation")
        return ContainmentVerdict(True, witness=v)
    normals, lift = _frame(l)
    # row . v <= b - h_K(a) for each facet a.x <= bn / bd, with h_K(a) = H / D:
    # (D bd row) . v <= bn D - H bd over D bd
    den = k.int_vertices[1]
    cons = tuple(
        (tuple(den * bd * x for x in row), bn * den - k.int_support(a) * bd, bd * den)
        for row, (a, bn, bd) in zip(normals, l.int_facets)
    )
    outcome = solve_lp(LPProblem(zero_vector(l.affine_dim), cons))
    if isinstance(outcome, Optimal):
        v = lift(outcome.point, k)
        _require(fits_exactly(k, l, v), "witness translation")
        return ContainmentVerdict(True, witness=v)
    _require(isinstance(outcome, Infeasible), "no-fit LP outcome")
    cert = _sparse_multipliers(outcome.multipliers)
    _require(certificate_valid(k, l, cert), "Farkas certificate")
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
    # h_K(a) alpha + row . v <= b for each facet a.x <= bn / bd, with
    # h_K(a) = H / D: (H bd, D bd row) . (alpha, v) <= bn D over D bd
    den = k.int_vertices[1]
    cons = tuple(
        ((k.int_support(a) * bd, *(den * bd * x for x in row)), bn * den, bd * den)
        for row, (a, bn, bd) in zip(normals, l.int_facets)
    )
    nonneg = (True,) + (False,) * d
    outcome = solve_lp(LPProblem(objective, cons, nonneg))
    if isinstance(outcome, Unbounded):
        raise RuntimeError("maximal scale is unbounded (degenerate body)")
    _require(isinstance(outcome, Optimal), "maximal-scale LP outcome")
    alpha = outcome.point[0]
    scaled = scale_polytope(k, alpha)
    v = lift(outcome.point[1:], scaled)
    _require(fits_exactly(scaled, l, v), "witness translation")
    return alpha, v


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
            try:
                xi = Subspace(ambient_dim, (tuple(rows), 1))
            except ValueError:  # dependent rows: rejected
                continue
            yield xi


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
    """Run translate_fit on the shadows of K and L over `trials` sampled
    d-subspaces, counting verdicts; the first failing shadow's verdict is
    kept, its certificate on the facets of L's shadow."""
    n = k.dim
    if not 1 <= d <= n - 1:
        raise ValueError("shadow dimension must satisfy 1 <= d <= n-1")
    if sampler.d != d:
        raise ValueError("sampler was built for a different shadow dimension")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if l.dim != n:
        raise ValueError("subspace and bodies must share an ambient dimension")
    passes = 0
    failed_trial = failed_subspace = failed_verdict = None
    stream = sampler.stream(n)
    for t in range(trials):
        xi = next(stream)
        verdict = translate_fit(project(k, xi), project(l, xi))
        if verdict.fits:
            passes += 1
        elif failed_trial is None:
            failed_trial, failed_subspace, failed_verdict = t, xi, verdict
    return ShadowCoverReport(
        d, trials, passes, sampler, failed_trial, failed_subspace, failed_verdict
    )
