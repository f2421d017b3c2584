"""Witness bodies that hide behind a cover without fitting inside it.

Given a polytope L whose facet normals contain a simplicial family of size
d+2 or more, the construction picks the centroid of each family facet — a
regular boundary point — and takes S to be their hull.  The support values
of S and L then agree along every family normal, which has two consequences:

* No translate of alpha*S fits inside L for any alpha > 1.  The family's
  positive dependency turns the per-facet support inequalities into an exact
  contradiction, so this half is a proof, certified by Farkas multipliers
  supported on the family facets.

* alpha*S hides behind L in every d-dimensional shadow exactly when every
  simplex T spanned by d+1 vertices of alpha*S has a translate inside L: a
  shadow that fits no translate has a Farkas certificate of at most d+1
  directions, and the vertices of S that attain them span such a T.  So the
  scale is alpha = min over those T of max_scale(T, L), found by one LP per
  subset, and this half is a proof as well: the bundle keeps one verified
  translation per subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .containment import (
    ContainmentVerdict,
    FarkasCertificate,
    certificate_valid,
    fits_exactly,
    max_scale,
    translate_fit,
)
from .linalg import Vector
from .polytope import Polytope, facet_centroid, hull_from_vertices, scale_polytope
from .reliability import ReliabilityVerdict, SimplicialFamily, is_reliable

class ReliableCoverError(ValueError):
    """Raised when asked to build a counterexample against a reliable cover."""


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


def _simplex(body: Polytope, subset: tuple[int, ...]) -> Polytope:
    return hull_from_vertices([body.vertices[i] for i in subset])


def _hiding_scale(k: Polytope, l: Polytope, d: int):
    """The largest alpha for which alpha*K hides behind L in every d-shadow,
    for K with more than d vertices: the least max_scale(T, L) over the
    simplices T on d+1 of K's vertices.

    Returns alpha, the first subset that attains it and the cover
    certificate: for each subset T, in increasing order, a translation w_T
    with alpha*T + w_T inside L.  With T's largest scale alpha_T and witness
    v_T, w_T = v_T + (alpha_T - alpha) x0 for T's first vertex x0, since
    alpha*T + w_T lies inside alpha_T*T + v_T by convexity.
    """
    scales = [
        (t, *max_scale(_simplex(k, t), l))
        for t in combinations(range(len(k.vertices)), d + 1)
    ]
    minimiser, alpha, _ = min(scales, key=lambda entry: entry[1])
    cover_certificate = tuple(
        (t, tuple(v + (alpha_t - alpha) * x for v, x in zip(v_t, k.vertices[t[0]])))
        for t, alpha_t, v_t in scales
    )
    return alpha, minimiser, cover_certificate


@dataclass(frozen=True)
class CounterexampleBundle:
    """Everything needed to re-verify a hide-behind counterexample.

    `noncontainment` proves that alpha*S never fits in L (Farkas multipliers
    on the family facets).  `cover_certificate` proves that alpha*S hides
    behind L in every d-shadow: for each (d+1)-subset T of the body's vertex
    indices, in increasing order, a translation w with alpha*T + w inside L.
    `minimiser` is the subset whose largest fitting scale is alpha.
    """

    cover: Polytope
    d: int
    family: SimplicialFamily
    body: Polytope
    alpha: Fraction
    noncontainment: FarkasCertificate
    cover_certificate: tuple[tuple[tuple[int, ...], Vector], ...]
    minimiser: tuple[int, ...]


@dataclass(frozen=True)
class BundleVerification:
    """Outcome of re-verifying a bundle; both halves are exact.

    exact_noncontainment: the Farkas certificate re-checked; solver_agrees:
    the LP solver independently finds no fit.  `fit_found` reports a
    verifying translation in case the non-fit half ever failed, which would
    disprove the bundle.  cover_valid: the cover certificate lists every
    (d+1)-subset of the body's vertices once, names its minimiser among
    them, and each translation passes fits_exactly at alpha.
    """

    exact_noncontainment: bool
    solver_agrees: bool
    fit_found: ContainmentVerdict | None
    cover_valid: bool

    @property
    def passed(self) -> bool:
        return self.exact_noncontainment and self.solver_agrees and self.cover_valid


def _cover_valid(bundle: CounterexampleBundle) -> bool:
    subsets = [t for t, _ in bundle.cover_certificate]
    every = combinations(range(len(bundle.body.vertices)), bundle.d + 1)
    if sorted(subsets) != list(every) or bundle.minimiser not in subsets:
        return False
    return all(
        fits_exactly(scale_polytope(_simplex(bundle.body, t), bundle.alpha),
                     bundle.cover, w)
        for t, w in bundle.cover_certificate
    )


def verify_bundle(bundle: CounterexampleBundle) -> BundleVerification:
    """Re-verify both halves of a bundle, exactly.

    (a) alpha*S must not fit in L: the stored family certificate is
    re-checked and the LP solver must independently report infeasibility;
    (b) alpha*S must hide behind L in every d-shadow: the cover certificate
    is re-checked simplex by simplex.
    """
    scaled = scale_polytope(bundle.body, bundle.alpha)
    cert_ok = certificate_valid(scaled, bundle.cover, bundle.noncontainment)
    solver = translate_fit(scaled, bundle.cover)
    fit_found = solver if solver.fits else None
    return BundleVerification(
        cert_ok, not solver.fits, fit_found, _cover_valid(bundle)
    )


def build_counterexample(
    l: Polytope, d: int, seed: int | None = None
) -> CounterexampleBundle:
    """Full pipeline: family search, body construction, exact scale.

    Raises ReliableCoverError when L is d-reliable (then no body can hide
    behind L without fitting inside, so no counterexample exists).  The
    scale is the largest at which the body hides behind L in every d-shadow:
    the least max_scale(T, L) over the simplices T on d+1 of its vertices.
    The bundle holds the family's own multipliers as its Farkas certificate
    and passes verify_bundle before it is returned; a check that fails, or
    alpha <= 1, is a bug and raises AssertionError.

    `seed` is ignored: the construction samples nothing.  It stays because
    the benchmark's shadows workload still passes a seed positionally; it
    goes with the benchmark's next revision.
    """
    verdict: ReliabilityVerdict = is_reliable(l, d)
    if verdict.reliable:
        raise ReliableCoverError(f"cover is {d}-reliable; no counterexample exists")
    family = verdict.certificate
    s = build_S(l, family, d)
    alpha, minimiser, cover_certificate = _hiding_scale(s, l, d)
    # each centroid is tight on its own facet only, and any d+1 family
    # normals are independent, so every simplex can be enlarged
    if alpha <= 1:
        raise AssertionError("a simplex of the body admits no enlargement")
    bundle = CounterexampleBundle(
        cover=l,
        d=d,
        family=family,
        body=s,
        alpha=alpha,
        noncontainment=FarkasCertificate(
            tuple(zip(family.members, family.coefficients))
        ),
        cover_certificate=cover_certificate,
        minimiser=minimiser,
    )
    check = verify_bundle(bundle)
    if not check.exact_noncontainment:
        raise AssertionError("family certificate failed exact re-verification")
    if not check.solver_agrees:
        raise AssertionError("solver found a fit of the scaled body in the cover")
    if not check.cover_valid:
        raise AssertionError("cover certificate failed exact re-verification")
    return bundle
