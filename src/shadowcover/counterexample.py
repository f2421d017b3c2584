"""Witness bodies that hide behind a cover without fitting inside it.

Given a polytope L whose facet normals contain a simplicial family of size
d+2 or more, the construction picks the centroid of each family facet — a
regular boundary point — and takes S to be their hull.  The support values
of S and L then agree along every family normal, which has two consequences:

* No translate of alpha*S fits inside L for any alpha > 1.  The family's
  positive dependency turns the per-facet support inequalities into an exact
  contradiction, so this half is a proof, certified by Farkas multipliers
  supported on the family facets.

* Every d-dimensional shadow of S sits strictly inside the matching shadow
  of L except for isolated contacts, leaving room for a uniform alpha > 1.
  The uniform alpha is estimated by sampling shadow subspaces, shrunk by a
  safety margin, and re-validated on fresh seeds.  This half is statistical
  evidence by design and the reports say so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .containment import (
    ContainmentVerdict,
    FarkasCertificate,
    ShadowCoverReport,
    SubspaceSampler,
    certificate_valid,
    max_scale,
    sampled_shadow_cover,
    translate_fit,
)
from .polytope import Polytope, facet_centroid, hull_from_vertices, project, scale_polytope
from .reliability import ReliabilityVerdict, SimplicialFamily, is_reliable

class ReliableCoverError(ValueError):
    """Raised when asked to build a counterexample against a reliable cover."""


class NoUsableScaleError(ValueError):
    """Raised when the sampled shadows leave no room to enlarge the body."""


def build_S(l: Polytope, family: SimplicialFamily, d: int) -> Polytope:
    """Hull of the family facets' centroids; supports match L on the family.

    The family members index facets of L.  Facet centroids are relative
    interior points of their facets, hence regular boundary points, and they
    are always rational.  The family must have the size >= d+2 that the
    counterexample construction for shadow dimension d requires.
    """
    if family.size < 3:
        raise ValueError("a counterexample family needs at least 3 members")
    if family.size < d + 2:
        raise ValueError("family is too small to defeat d-shadow covering")
    for idx in family.members:
        if not 0 <= idx < len(l.facets):
            raise ValueError("family member is not a facet index of the cover")
    s = hull_from_vertices([facet_centroid(l, idx) for idx in family.members])
    for idx in family.members:
        f = l.facets[idx]
        if s.support(f.normal) != f.offset:
            raise AssertionError("support contact lost during construction")
    return s


def _alpha_scan(
    l: Polytope, s: Polytope, d: int, sampler: SubspaceSampler, trials: int
) -> Fraction:
    """Minimum over sampled d-subspaces of the maximal shadow scaling.

    A subspace on which the shadow of S is a single point is skipped: a
    point fits at every scale, so it bounds nothing.
    """
    stream = sampler.stream(l.dim)
    alpha_min: Fraction | None = None
    for _ in range(trials):
        xi = next(stream)
        shadow = project(s, xi)
        if shadow.affine_dim == 0:
            continue
        alpha, _ = max_scale(shadow, project(l, xi))
        if alpha_min is None or alpha < alpha_min:
            alpha_min = alpha
    if alpha_min is None:
        raise NoUsableScaleError("no usable scale: every sampled shadow is a point")
    return alpha_min


def _scale_from(alpha_min: Fraction, margin: Fraction) -> Fraction:
    """The counterexample scale 1 + margin * (alpha_min - 1), if alpha_min > 1."""
    if alpha_min <= 1:
        raise NoUsableScaleError(
            "no usable scale: a sampled shadow admits no enlargement"
        )
    return 1 + margin * (alpha_min - 1)


@dataclass(frozen=True)
class CounterexampleBundle:
    """Everything needed to re-verify a hide-behind counterexample.

    `noncontainment` is the exact half (a Farkas proof that alpha*S never
    fits in L); `shadow_trials`/`shadow_failures` summarise the statistical
    half at build time.  Seeds and trial counts make the construction and
    both verifications reproducible.
    """

    cover: Polytope
    d: int
    family: SimplicialFamily
    body: Polytope
    alpha: Fraction
    alpha_min_observed: Fraction
    margin: Fraction
    noncontainment: FarkasCertificate
    search_seed: int
    search_trials: int
    entry_bound: int
    verify_seed: int
    shadow_trials: int
    shadow_failures: int


@dataclass(frozen=True)
class BundleVerification:
    """Outcome of re-verifying a bundle; the two halves are not alike.

    exact_noncontainment is a proof (Farkas certificate re-checked, solver
    agreement on infeasibility).  shadow_report is sampled evidence with a
    fresh seed.  `fit_found` reports a verifying translation in case the
    exact half ever failed, which would disprove the bundle.
    """

    exact_noncontainment: bool
    solver_agrees: bool
    fit_found: ContainmentVerdict | None
    shadow_report: ShadowCoverReport

    @property
    def passed(self) -> bool:
        return (
            self.exact_noncontainment
            and self.solver_agrees
            and self.shadow_report.all_passed
        )


def verify_bundle(
    bundle: CounterexampleBundle, fresh_seed: int, trials: int = 2000
) -> BundleVerification:
    """Re-verify both halves of a bundle.

    (a) exact: alpha*S must not fit in L — the stored family certificate is
    re-checked and the LP solver must independently report infeasibility;
    (b) statistical: a fresh-seeded shadow-cover run of alpha*S behind L
    must come back clean.
    """
    scaled = scale_polytope(bundle.body, bundle.alpha)
    cert_ok = certificate_valid(scaled, bundle.cover, bundle.noncontainment)
    solver = translate_fit(scaled, bundle.cover)
    fit_found = solver if solver.fits else None
    sampler = SubspaceSampler(fresh_seed, bundle.d, bundle.entry_bound)
    report = sampled_shadow_cover(
        scaled, bundle.cover, bundle.d, sampler, trials
    )
    return BundleVerification(cert_ok, not solver.fits, fit_found, report)


def build_counterexample(
    l: Polytope,
    d: int,
    seed: int,
    trials: int = 1000,
    margin: Fraction = Fraction(1, 2),
    entry_bound: int = 10,
    verify_trials: int = 2000,
) -> CounterexampleBundle:
    """Full pipeline: family search, body construction, scale, verification.

    Raises ReliableCoverError when L is d-reliable (then no body can hide
    behind L without fitting inside, so no counterexample exists).  When L
    is unreliable but this run certifies no scale, it raises
    NoUsableScaleError (alpha_min <= 1, or every sampled shadow of the body
    is a point) or RuntimeError (the fresh shadow sample failed).  The
    bundle holds the family's own multipliers as its Farkas certificate and
    passes verify_bundle, at the verification seed seed+1 recorded in it,
    before it is returned; a certificate that fails or a fit the solver
    finds is a bug and raises AssertionError.
    """
    if not 0 < margin < 1:
        raise ValueError("margin must be strictly between 0 and 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    verdict: ReliabilityVerdict = is_reliable(l, d)
    if verdict.reliable:
        raise ReliableCoverError(f"cover is {d}-reliable; no counterexample exists")
    family = verdict.certificate
    s = build_S(l, family, d)
    sampler = SubspaceSampler(seed, d, entry_bound)
    alpha_min = _alpha_scan(l, s, d, sampler, trials)
    alpha = _scale_from(alpha_min, margin)
    cert = FarkasCertificate(tuple(zip(family.members, family.coefficients)))
    bundle = CounterexampleBundle(
        cover=l,
        d=d,
        family=family,
        body=s,
        alpha=alpha,
        alpha_min_observed=alpha_min,
        margin=margin,
        noncontainment=cert,
        search_seed=seed,
        search_trials=trials,
        entry_bound=entry_bound,
        verify_seed=seed + 1,
        shadow_trials=verify_trials,
        shadow_failures=0,
    )
    check = verify_bundle(bundle, bundle.verify_seed, verify_trials)
    if not check.exact_noncontainment:
        raise AssertionError("family certificate failed exact re-verification")
    if not check.solver_agrees:
        raise AssertionError("solver found a fit of the scaled body in the cover")
    if not check.shadow_report.all_passed:
        raise RuntimeError(
            "safety margin insufficient: a fresh shadow sample failed; "
            "retry with a smaller margin or more search trials"
        )
    return bundle
