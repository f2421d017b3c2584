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

ONE = Fraction(1)


class ReliableCoverError(ValueError):
    """Raised when asked to build a counterexample against a reliable cover."""


class NoUsableScaleError(ValueError):
    """Raised when a sampled shadow leaves no room to enlarge the body."""


def build_S(l: Polytope, family: SimplicialFamily, d: int | None = None) -> Polytope:
    """Hull of the family facets' centroids; supports match L on the family.

    The family members index facets of L.  Facet centroids are relative
    interior points of their facets, hence regular boundary points, and they
    are always rational.  Passing d enforces the size >= d+2 requirement of
    the counterexample construction.
    """
    if family.size < 3:
        raise ValueError("a counterexample family needs at least 3 members")
    if d is not None and family.size < d + 2:
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


def family_certificate(
    l: Polytope, family: SimplicialFamily, s: Polytope, alpha: Fraction
) -> FarkasCertificate:
    """The family's own Farkas certificate that alpha*S never fits in L.

    The dependency coefficients c_i over the family facets combine the
    constraints of the fitting LP into sum(c_i (1 - alpha) b_i) < 0 whenever
    alpha > 1, because S touches every family facet: h_S(u_i) = b_i.
    """
    cert = FarkasCertificate(tuple(zip(family.members, family.coefficients)))
    if not certificate_valid(scale_polytope(s, alpha), l, cert):
        raise AssertionError("family certificate failed exact re-verification")
    return cert


def _alpha_scan(
    l: Polytope, s: Polytope, d: int, sampler: SubspaceSampler, trials: int
) -> Fraction:
    """Minimum over sampled d-subspaces of the maximal shadow scaling."""
    stream = sampler.stream(l.dim)
    alpha_min: Fraction | None = None
    for _ in range(trials):
        xi = next(stream)
        alpha, _ = max_scale(project(s, xi), project(l, xi))
        if alpha_min is None or alpha < alpha_min:
            alpha_min = alpha
    if alpha_min is None:
        raise AssertionError("alpha scan ran no trials")
    return alpha_min


def _check_scale_search(trials: int, margin: Fraction) -> None:
    if not 0 < margin < 1:
        raise ValueError("margin must be strictly between 0 and 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")


def _scale_from(alpha_min: Fraction, margin: Fraction) -> Fraction:
    """The counterexample scale 1 + margin * (alpha_min - 1), if alpha_min > 1."""
    if alpha_min <= 1:
        raise NoUsableScaleError(
            "no usable scale: a sampled shadow admits no enlargement"
        )
    return 1 + margin * (alpha_min - 1)


def find_alpha(
    l: Polytope,
    s: Polytope,
    d: int,
    sampler: SubspaceSampler,
    trials: int = 1000,
    margin: Fraction = Fraction(1, 2),
) -> Fraction:
    """A scale alpha > 1 whose shadows still fit, estimated by sampling.

    Computes the maximal shadow scale over sampled subspaces, keeps its
    minimum alpha_min, and returns 1 + margin * (alpha_min - 1).  Raises
    when alpha_min <= 1: then S already touches some sampled shadow too
    tightly and no counterexample scale can be certified this way.
    """
    _check_scale_search(trials, margin)
    return _scale_from(_alpha_scan(l, s, d, sampler, trials), margin)


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
    NoUsableScaleError (alpha_min <= 1) or RuntimeError (a sampled shadow
    scale is unbounded, or the fresh shadow sample failed).  The
    verification seed is derived as seed+1 and recorded in the bundle.
    """
    _check_scale_search(trials, margin)
    verdict: ReliabilityVerdict = is_reliable(l, d)
    if verdict.reliable:
        raise ReliableCoverError(f"cover is {d}-reliable; no counterexample exists")
    family = verdict.certificate
    s = build_S(l, family, d)
    sampler = SubspaceSampler(seed, d, entry_bound)
    alpha_min = _alpha_scan(l, s, d, sampler, trials)
    alpha = _scale_from(alpha_min, margin)
    cert = family_certificate(l, family, s, alpha)
    verify_seed = seed + 1
    scaled = scale_polytope(s, alpha)
    report = sampled_shadow_cover(
        scaled, l, d, SubspaceSampler(verify_seed, d, entry_bound), verify_trials
    )
    if not report.all_passed:
        raise RuntimeError(
            "safety margin insufficient: a fresh shadow sample failed; "
            "retry with a smaller margin or more search trials"
        )
    return CounterexampleBundle(
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
        verify_seed=verify_seed,
        shadow_trials=verify_trials,
        shadow_failures=report.failures,
    )
