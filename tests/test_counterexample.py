import dataclasses
from fractions import Fraction

import pytest

from oracles import failing_shadow
from shadowcover import counterexample
from shadowcover.containment import (
    FarkasCertificate,
    SubspaceSampler,
    certificate_valid,
    max_scale,
    sampled_shadow_cover,
    translate_fit,
)
from shadowcover.corpus import random_polytope
from shadowcover.counterexample import (
    ReliableCoverError,
    build_S,
    build_counterexample,
    verify_bundle,
)
from shadowcover.polytope import Subspace, hull_from_vertices, project, scale_polytope
from shadowcover.reliability import is_reliable

F = Fraction


def octa_family(octahedron):
    return is_reliable(octahedron, 2).certificate


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
    # the least largest scale over the 4 triangles of S's tetrahedron
    bundle = build_counterexample(octahedron, 2)
    assert bundle.alpha == F(3, 2)
    t = hull_from_vertices([bundle.body.vertices[i] for i in bundle.minimiser])
    assert max_scale(t, octahedron)[0] == bundle.alpha


def test_find_alpha_rejects_identical_bodies(octahedron, monkeypatch):
    # S = L holds two opposite vertices of L, which no scale above 1 fits:
    # the guard is an explicit raise, so it also runs under python -O
    monkeypatch.setattr(counterexample, "build_S", lambda l, family, d: l)
    with pytest.raises(AssertionError, match="no enlargement"):
        build_counterexample(octahedron, 2)


def test_family_certificate_requires_scaling(octahedron):
    fam = octa_family(octahedron)
    s = build_S(octahedron, fam, d=2)
    cert = FarkasCertificate(tuple(zip(fam.members, fam.coefficients)))
    assert certificate_valid(scale_polytope(s, F(9, 8)), octahedron, cert)
    # S itself still fits
    assert not certificate_valid(scale_polytope(s, F(1)), octahedron, cert)


def test_bundle_end_to_end(octahedron):
    bundle = build_counterexample(octahedron, 2)
    # the seed is accepted and ignored: nothing is sampled
    assert build_counterexample(octahedron, 2, 7) == bundle
    assert bundle.alpha > 1
    assert [t for t, _ in bundle.cover_certificate] == [
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)
    ]
    ver = verify_bundle(bundle)
    assert ver.exact_noncontainment and ver.solver_agrees and ver.cover_valid
    assert ver.fit_found is None
    assert ver.passed


def test_alpha_one_bundle_fits(octahedron):
    # with alpha forced to 1 the exact half must find a fit (S sits inside L),
    # so re-verification reports the disproving translation
    bundle = build_counterexample(octahedron, 2)
    tampered = dataclasses.replace(bundle, alpha=F(1))
    ver = verify_bundle(tampered)
    assert not ver.passed
    assert not ver.solver_agrees
    assert ver.fit_found is not None and ver.fit_found.fits


@pytest.mark.parametrize("tamper", ["drop", "repeat", "move", "minimiser"])
def test_tampered_cover_certificate_fails(octahedron, tamper):
    bundle = build_counterexample(octahedron, 2)
    cover = list(bundle.cover_certificate)
    t, w = cover[1]
    changes = {
        "drop": {"cover_certificate": tuple(cover[1:])},
        "repeat": {"cover_certificate": tuple(cover[:1] + cover[:3])},
        "move": {"cover_certificate": tuple(
            cover[:1] + [(t, (w[0] + F(1, 10), *w[1:]))] + cover[2:]
        )},
        "minimiser": {"minimiser": (0, 1)},
    }
    ver = verify_bundle(dataclasses.replace(bundle, **changes[tamper]))
    assert ver.exact_noncontainment and ver.solver_agrees
    assert not ver.cover_valid and not ver.passed


def test_excessive_alpha_fails_shadows(octahedron):
    # 1/100 above alpha the minimising simplex fits no translate of L, and
    # its Farkas certificate gives a 2-shadow in which the body fails
    bundle = build_counterexample(octahedron, 2)
    big = bundle.alpha * F(101, 100)
    t = hull_from_vertices([bundle.body.vertices[i] for i in bundle.minimiser])
    verdict = translate_fit(scale_polytope(t, big), octahedron)
    assert not verdict.fits
    xi = failing_shadow(scale_polytope(t, big), octahedron, 2, verdict.certificate)
    shadow_l = project(octahedron, xi)
    too_big = project(scale_polytope(bundle.body, big), xi)
    assert not translate_fit(too_big, shadow_l).fits
    at_alpha = project(scale_polytope(bundle.body, bundle.alpha), xi)
    assert translate_fit(at_alpha, shadow_l).fits


@pytest.mark.parametrize("n", [3, 4, 5])
def test_random_covers_against_sampled_shadows(n):
    # sampled shadows as the oracle: none fails at alpha, and 1/100 above
    # it the minimising simplex's witness subspace fails
    for seed in range(2):
        l = random_polytope(500 + seed, n, n + 4, 3)
        for d in range(1, n):
            if is_reliable(l, d).reliable:
                continue
            bundle = build_counterexample(l, d)
            scaled = scale_polytope(bundle.body, bundle.alpha)
            report = sampled_shadow_cover(scaled, l, d, SubspaceSampler(seed, d), 50)
            assert report.all_passed
            big = bundle.alpha * F(101, 100)
            t = hull_from_vertices([bundle.body.vertices[i] for i in bundle.minimiser])
            verdict = translate_fit(scale_polytope(t, big), l)
            assert not verdict.fits
            xi = failing_shadow(scale_polytope(t, big), l, d, verdict.certificate)
            too_big = project(scale_polytope(bundle.body, big), xi)
            assert not translate_fit(too_big, project(l, xi)).fits


def test_reliable_cover_refuses(pyramid):
    with pytest.raises(ReliableCoverError):
        build_counterexample(pyramid, 2)


def test_pyramid_d1_counterexample(pyramid):
    bundle = build_counterexample(pyramid, 1)
    assert bundle.alpha == F(3, 2)
    assert not translate_fit(
        scale_polytope(bundle.body, bundle.alpha), pyramid
    ).fits


def test_pyramid_point_shadow_is_skipped(pyramid):
    # the line (0, 1, 0) is orthogonal to the plane of S, so that shadow of
    # S is a point; it fits at every scale and bounds nothing, and the
    # exact scale, taken over the edges of S, is not affected by it
    bundle = build_counterexample(pyramid, 1)
    line = Subspace(3, (((0, 1, 0),), 1))
    shadow = project(scale_polytope(bundle.body, bundle.alpha), line)
    assert shadow.affine_dim == 0
    assert translate_fit(shadow, project(pyramid, line)).fits
    assert verify_bundle(bundle).passed


def test_case_15_scale_is_exact():
    """Criterion 7's case 15: the sampled scale search with a margin of 1/2
    gave 106033/91914, above the true scale 40/37; on this 2-subspace the
    body's shadow fits exactly up to 40/37, and not at the old scale."""
    l = random_polytope(420, 4, 7, 2)
    bundle = build_counterexample(l, 2)
    assert bundle.alpha == F(40, 37)
    assert verify_bundle(bundle).passed
    xi = Subspace(4, (((-27, 16, 1, 20), (15, -10, -4, -17)), 1))
    shadow_l = project(l, xi)
    assert max_scale(project(bundle.body, xi), shadow_l)[0] == F(40, 37)
    old = project(scale_polytope(bundle.body, F(106033, 91914)), xi)
    assert not translate_fit(old, shadow_l).fits
