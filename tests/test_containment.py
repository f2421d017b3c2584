import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import shadowcover

from shadowcover.containment import (
    SubspaceSampler,
    certificate_valid,
    fits_exactly,
    max_scale,
    product_containment,
    sampled_shadow_cover,
    shadow_fit,
    translate_fit,
)
from shadowcover.corpus import random_polytope
from shadowcover.counterexample import build_S
from shadowcover.linalg import matrix, matvec, nullspace, vector
from shadowcover.polytope import (
    Subspace,
    apply_linear,
    direct_sum_assemble,
    embed,
    hull_from_vertices,
    scale_polytope,
    subspace,
    translate,
)
from shadowcover.reliability import is_reliable

F = Fraction


def box(*ranges):
    pts = [()]
    for lo, hi in ranges:
        pts = [p + (c,) for p in pts for c in (lo, hi)]
    return hull_from_vertices(pts)


def test_fit_with_witness():
    k = box((0, 1), (0, 1))
    l = box((0, 2), (0, 2))
    v = translate_fit(k, l)
    assert v.fits and fits_exactly(k, l, v.witness)


def test_no_fit_width_certificate():
    k = box((0, 3), (0, 3))
    l = box((0, 2), (0, 2))
    v = translate_fit(k, l)
    assert not v.fits
    assert certificate_valid(k, l, v.certificate)
    # the width argument by hand: unit multipliers on the two opposite
    # x-facets are themselves a valid certificate (widths 3 > 2)
    from shadowcover.containment import FarkasCertificate

    pair = tuple(
        (i, F(1))
        for i, f in enumerate(l.facets)
        if tuple(f.normal) in (vector((1, 0)), vector((-1, 0)))
    )
    assert certificate_valid(k, l, FarkasCertificate(pair))


def test_scaled_counterexample_body_rejected(octahedron):
    fam = is_reliable(octahedron, 2).certificate
    s = build_S(octahedron, fam)
    k = scale_polytope(s, F(11, 10))
    v = translate_fit(k, octahedron)
    assert not v.fits
    # multipliers concentrate on the simplicial family facets
    assert {i for i, _ in v.certificate.multipliers} <= set(fam.members)
    # corroborate by a coarse grid search over translations
    third = F(1, 3)
    grid = [-third, F(0), third]
    for vx in grid:
        for vy in grid:
            for vz in grid:
                assert not fits_exactly(k, octahedron, (vx, vy, vz))


def test_lower_dimensional_cover():
    k = hull_from_vertices([(0, 0, 0), (1, 0, 0)])
    l = hull_from_vertices([(0, 0, 1), (3, 0, 1), (0, 2, 1), (3, 2, 1)])
    v = translate_fit(k, l)
    assert v.fits
    assert fits_exactly(k, l, v.witness)
    # a body leaving L's affine hull direction space cannot fit
    k2 = hull_from_vertices([(0, 0, 0), (0, 0, 1)])
    v2 = translate_fit(k2, l)
    assert not v2.fits and v2.hull_mismatch


def test_max_scale_identity(cube3):
    alpha, _ = max_scale(cube3, cube3)
    assert alpha == 1


def test_max_scale_half():
    k = box((0, 2), (0, 2))
    l = box((0, 1), (0, 1))
    alpha, v = max_scale(k, l)
    assert alpha == F(1, 2)
    assert fits_exactly(scale_polytope(k, alpha), l, v)


def test_max_scale_octahedron_body(octahedron):
    fam = is_reliable(octahedron, 2).certificate
    s = build_S(octahedron, fam)
    alpha, _ = max_scale(s, octahedron)
    assert alpha == 1


def test_shadow_fit_monotone(cube3):
    big = scale_polytope(cube3, 2)
    for rows in [[(1, 0, 0), (0, 1, 0)], [(1, 1, 0), (0, 1, 1)], [(1, 2, 3)]]:
        xi = subspace(3, rows)
        assert shadow_fit(cube3, big, xi).fits


def test_shadow_fit_pyramid_vs_reflection(pyramid):
    reflected = apply_linear(pyramid, [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    xi = subspace(3, [(1, 0, 0), (0, 1, 0)])
    v = shadow_fit(pyramid, reflected, xi)
    assert v.fits


def test_shadow_covering_without_containment():
    k = hull_from_vertices([(0, 0), (3, 0), (0, 1), (3, 1)])
    l = box((0, 2), (0, 2))
    assert not translate_fit(k, l).fits
    assert shadow_fit(k, l, subspace(2, [(0, 1)])).fits


def test_sampler_deterministic():
    s = SubspaceSampler(seed=5, d=2, entry_bound=10)
    a = [next(s.stream(4)).basis for _ in range(1)]
    b = [next(s.stream(4)).basis for _ in range(1)]
    assert a == b
    stream = s.stream(4)
    first = [next(stream) for _ in range(5)]
    assert all(sub.dim == 2 for sub in first)


def test_sampler_rejects_nonpositive_bound():
    # a bound of 0 draws only zero rows, which never have full rank
    with pytest.raises(ValueError):
        next(SubspaceSampler(1, 1, 0).stream(3))


def test_sampled_cover_rejects_nonpositive_trials(cube3):
    for trials in (0, -5):
        with pytest.raises(ValueError):
            sampled_shadow_cover(cube3, cube3, 2, SubspaceSampler(3, 2), trials)


_GUARD_SCRIPT = """
import sys
from shadowcover import containment
from shadowcover.corpus import named
from shadowcover.polytope import scale_polytope

assert False, "unreachable under -O"
containment.fits_exactly = lambda k, l, v: False
cube = named("cube-3")
try:
    containment.translate_fit(cube, scale_polytope(cube, 2))
except AssertionError as exc:
    print(exc)
    sys.exit(0 if sys.flags.optimize else 3)
sys.exit(1)
"""


def test_verdict_guard_survives_python_O():
    src = str(Path(shadowcover.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _GUARD_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert "re-verification" in proc.stdout


def test_sampled_cover_translate_always_passes(cube3):
    k = translate(cube3, (5, -1, 2))
    rep = sampled_shadow_cover(k, cube3, 2, SubspaceSampler(3, 2), 50)
    assert rep.all_passed


def test_sampled_cover_finds_width_failure():
    k = box((0, 3), (0, 3))
    l = box((0, 2), (0, 2))
    rep = sampled_shadow_cover(k, l, 1, SubspaceSampler(4, 1), 200)
    assert not rep.all_passed
    assert rep.failed_trial is not None
    assert not rep.failed_verdict.fits


def test_fit_implies_all_shadows_fit():
    k = random_polytope(21, 3, 6, 3)
    l = scale_polytope(random_polytope(22, 3, 8, 4), 3)
    if not translate_fit(k, l).fits:
        l = scale_polytope(l, 4)
    assert translate_fit(k, l).fits
    rep = sampled_shadow_cover(k, l, 2, SubspaceSampler(7, 2), 60)
    assert rep.all_passed


@pytest.mark.parametrize("seed", range(12))
def test_reliable_covers_never_fooled(seed, pyramid, cube3):
    # against a 2-reliable cover, no adversarial body passes the sampled
    # shadow checks while failing containment
    cover = (pyramid, cube3)[seed % 2]
    k = random_polytope(500 + seed, 3, 6, 2)
    k = scale_polytope(k, F(1, 2 + seed % 3))
    fits = translate_fit(k, cover).fits
    rep = sampled_shadow_cover(k, cover, 2, SubspaceSampler(seed, 2), 60)
    if rep.all_passed:
        assert fits
    else:
        assert not fits


def test_product_containment_cube_as_segments(cube3):
    seg = hull_from_vertices([(0,), (1,)])
    parts = [
        (subspace(3, [(1, 0, 0)]), seg),
        (subspace(3, [(0, 1, 0)]), seg),
        (subspace(3, [(0, 0, 1)]), seg),
    ]
    v = product_containment(cube3, parts)
    assert v.fits
    assert fits_exactly(cube3, direct_sum_assemble(parts), v.witness)


def test_product_containment_failing_component(cube3):
    wide = hull_from_vertices([(0,), (3,)])
    thin = hull_from_vertices([(0,), (F(1, 2),)])
    parts = [
        (subspace(3, [(1, 0, 0)]), wide),
        (subspace(3, [(0, 1, 0)]), thin),
        (subspace(3, [(0, 0, 1)]), wide),
    ]
    v = product_containment(cube3, parts)
    assert not v.fits and v.component == 1


def _random_product_instance(seed):
    import random

    rng = random.Random(f"prod:{seed}")
    tri = hull_from_vertices([(0, 0), (2, 0), (0, 2), (1, 2)][: rng.choice((3, 4))])
    seg = hull_from_vertices([(0,), (rng.randint(1, 3),)])
    if seed % 2 == 0:
        rows_a, rows_b = [(1, 0, 0), (0, 1, 0)], [(0, 0, 1)]
    else:
        rows_a, rows_b = [(1, 1, 0), (0, 1, 1)], [(1, 0, 1)]
    parts = [
        (subspace(3, rows_a), tri),
        (subspace(3, rows_b), seg),
    ]
    k = random_polytope(seed, 3, 6, 2)
    if seed % 3 == 0:
        k = scale_polytope(k, F(1, rng.randint(2, 4)))
    return k, parts


@pytest.mark.parametrize("seed", range(20))
def test_product_agrees_with_translate_fit(seed):
    k, parts = _random_product_instance(seed)
    c = direct_sum_assemble(parts)
    direct = translate_fit(k, c)
    viaparts = product_containment(k, parts)
    assert direct.fits == viaparts.fits
    if viaparts.fits:
        assert fits_exactly(k, c, viaparts.witness)


@pytest.mark.parametrize("case", range(10))
def test_hyperplane_shadow_invariance_under_linear_maps(case):
    # shadow-fit verdicts along u agree with those along psi u after mapping
    k = random_polytope(30 + case, 3, 6, 3)
    l = scale_polytope(random_polytope(60 + case, 3, 7, 3), 2)
    psi = [(1, 1, 0), (0, 1, 0), (1, 0, 2)]
    u = [(1, 0, 0), (1, 2, -1), (0, 1, 1)][case % 3]
    before = shadow_fit(k, l, _complement(u))
    pk, pl = apply_linear(k, psi), apply_linear(l, psi)
    pu = matvec(matrix(psi), vector(u))
    after = shadow_fit(pk, pl, _complement(pu))
    assert before.fits == after.fits


def _complement(u):
    basis = nullspace(matrix([u]))
    return Subspace(len(u), matrix(basis))


@pytest.mark.parametrize("seed", range(6))
def test_embedding_preserves_shadow_verdicts(seed):
    k = random_polytope(100 + seed, 3, 6, 3)
    l = scale_polytope(random_polytope(200 + seed, 3, 7, 3), 2)
    ek, el = embed(k, 4), embed(l, 4)
    stream = SubspaceSampler(seed, 2).stream(3)
    for _ in range(10):
        xi = next(stream)
        lifted = Subspace(4, matrix([row + (F(0),) for row in xi.basis]))
        assert shadow_fit(k, l, xi).fits == shadow_fit(ek, el, lifted).fits
