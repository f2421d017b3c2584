from fractions import Fraction

import pytest

from shadowcover import counterexample
from shadowcover.containment import (
    FarkasCertificate,
    SubspaceSampler,
    certificate_valid,
    sampled_shadow_cover,
    translate_fit,
)
from shadowcover.counterexample import (
    NoUsableScaleError,
    ReliableCoverError,
    build_S,
    build_counterexample,
    verify_bundle,
)
from shadowcover.polytope import hull_from_vertices, scale_polytope
from shadowcover.reliability import is_reliable

F = Fraction


def octa_family(octahedron):
    return is_reliable(octahedron, 2).certificate


def scale_search(l, s, d, sampler, trials, margin=F(1, 2)):
    """The scale build_counterexample takes: the sampled minimum of the
    maximal shadow scales, shrunk towards 1 by the margin."""
    alpha_min = counterexample._alpha_scan(l, s, d, sampler, trials)
    return counterexample._scale_from(alpha_min, margin)


def test_build_S_octahedron(octahedron):
    fam = octa_family(octahedron)
    s = build_S(octahedron, fam, d=2)
    assert len(s.vertices) == 4
    # vertices are the facet centroids, e.g. (1/3, 1/3, 1/3)
    assert tuple(F(1, 3) for _ in range(3)) in s.vertices or any(
        set(map(abs, v)) == {F(1, 3)} for v in s.vertices
    )
    for idx in fam.members:
        f = octahedron.facets[idx]
        assert s.support(f.normal) == f.offset


def test_build_S_pyramid_triple(pyramid):
    fam = is_reliable(pyramid, 1).certificate
    s = build_S(pyramid, fam, d=1)
    assert len(s.vertices) == 3


def test_build_S_rejects_small_family(octahedron):
    fam = octa_family(octahedron)
    with pytest.raises(ValueError):
        build_S(octahedron, fam, d=3)  # size 4 < d+2 = 5


def test_find_alpha_is_above_one(octahedron):
    fam = octa_family(octahedron)
    s = build_S(octahedron, fam, d=2)
    alpha = scale_search(octahedron, s, 2, SubspaceSampler(3, 2), 120)
    assert alpha > 1


def test_find_alpha_rejects_identical_bodies(octahedron):
    with pytest.raises(NoUsableScaleError):
        scale_search(octahedron, octahedron, 2, SubspaceSampler(3, 2), 40)


@pytest.mark.parametrize("margin", [F(0), F(1)])
def test_margin_checked_before_family_search(octahedron, monkeypatch, margin):
    def family_search(*args):
        raise AssertionError("family search started")

    monkeypatch.setattr(counterexample, "is_reliable", family_search)
    with pytest.raises(ValueError, match="margin"):
        build_counterexample(octahedron, 2, seed=7, trials=10, margin=margin)


def test_nonpositive_trials_rejected(octahedron):
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials"):
            build_counterexample(octahedron, 2, seed=1, trials=trials)


def test_margin_monotone(octahedron):
    fam = octa_family(octahedron)
    s = build_S(octahedron, fam, d=2)
    sampler = SubspaceSampler(3, 2)
    small = scale_search(octahedron, s, 2, sampler, 60, margin=F(1, 10))
    large = scale_search(octahedron, s, 2, sampler, 60, margin=F(1, 2))
    assert 1 < small < large


def test_family_certificate_requires_scaling(octahedron):
    fam = octa_family(octahedron)
    s = build_S(octahedron, fam, d=2)
    cert = FarkasCertificate(tuple(zip(fam.members, fam.coefficients)))
    assert certificate_valid(scale_polytope(s, F(9, 8)), octahedron, cert)
    # S itself still fits
    assert not certificate_valid(scale_polytope(s, F(1)), octahedron, cert)


def test_bundle_end_to_end(octahedron):
    bundle = build_counterexample(
        octahedron, 2, seed=7, trials=250, verify_trials=300
    )
    assert bundle.alpha > 1
    assert bundle.shadow_failures == 0
    ver = verify_bundle(bundle, fresh_seed=41, trials=250)
    assert ver.exact_noncontainment and ver.solver_agrees
    assert ver.fit_found is None
    assert ver.shadow_report.all_passed
    assert ver.passed


def test_alpha_one_bundle_fits(octahedron):
    # with alpha forced to 1 the exact half must find a fit (S sits inside L),
    # so re-verification reports the disproving translation
    import dataclasses

    bundle = build_counterexample(
        octahedron, 2, seed=7, trials=150, verify_trials=150
    )
    tampered = dataclasses.replace(bundle, alpha=F(1))
    ver = verify_bundle(tampered, fresh_seed=8, trials=60)
    assert not ver.passed
    assert not ver.solver_agrees
    assert ver.fit_found is not None and ver.fit_found.fits


def test_excessive_alpha_fails_shadows(octahedron):
    # far beyond the measured slack, some sampled shadow must reject
    bundle = build_counterexample(
        octahedron, 2, seed=7, trials=150, verify_trials=150
    )
    alpha_big = 1 + 2 * (bundle.alpha_min_observed - 1)
    too_big = scale_polytope(bundle.body, alpha_big + F(1, 100))
    rep = sampled_shadow_cover(
        too_big, bundle.cover, 2, SubspaceSampler(5, 2), 200
    )
    assert not rep.all_passed


def test_reliable_cover_refuses(pyramid):
    with pytest.raises(ReliableCoverError):
        build_counterexample(pyramid, 2, seed=1, trials=20, verify_trials=20)


def test_pyramid_d1_counterexample(pyramid):
    bundle = build_counterexample(
        pyramid, 1, seed=9, trials=200, verify_trials=250
    )
    assert bundle.alpha > 1
    assert not translate_fit(
        scale_polytope(bundle.body, bundle.alpha), pyramid
    ).fits


def test_pyramid_point_shadow_is_skipped(pyramid):
    # at seed 0, search trial 493 samples the line (0, 1, 0), orthogonal to
    # the plane of S: that shadow of S is a point and bounds no scale
    bundle = build_counterexample(pyramid, 1, seed=0)
    assert bundle.alpha > 1
    assert verify_bundle(bundle, fresh_seed=11).passed


def test_all_point_shadows_leave_no_usable_scale(octahedron):
    point = hull_from_vertices([(0, 0, 0)])
    with pytest.raises(NoUsableScaleError):
        scale_search(octahedron, point, 2, SubspaceSampler(3, 2), 5)
