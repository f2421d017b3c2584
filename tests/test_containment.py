import hashlib
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
    sampled_shadow_cover,
    translate_fit,
)
from shadowcover.corpus import random_polytope
from shadowcover.counterexample import build_S
from shadowcover.kernels import int_nullspace, int_rank
from oracles import embed, matvec, product_containment, translate
from shadowcover.linalg import integerize, matrix, vector
from shadowcover.polytope import (
    Subspace,
    apply_linear,
    direct_sum_assemble,
    hull_from_vertices,
    project,
    scale_polytope,
    subspace,
)
from shadowcover.reliability import is_reliable

F = Fraction


def shadow_fits(k, l, xi):
    """Whether L's shadow on xi contains a translate of K's."""
    return translate_fit(project(k, xi), project(l, xi)).fits


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


def test_certificate_indices_must_be_in_range():
    from shadowcover.containment import FarkasCertificate

    k = box((0, 3), (0, 3))
    l = box((0, 2), (0, 2))
    cert = translate_fit(k, l).certificate
    assert certificate_valid(k, l, cert)
    n = len(l.facets)
    # negative indices would wrap onto the very same facets
    wrapped = tuple((i - n, lam) for i, lam in cert.multipliers)
    assert certificate_valid(k, l, FarkasCertificate(wrapped)) is False
    beyond = ((99, F(1)),) + cert.multipliers
    assert certificate_valid(k, l, FarkasCertificate(beyond)) is False


def test_scaled_counterexample_body_rejected(octahedron):
    fam = is_reliable(octahedron, 2).certificate
    s = build_S(octahedron, fam, d=2)
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


def test_flat_cover_fit_needs_in_plane_translation():
    """L is a rectangle on the plane z = 1 + x + 2y and K a segment on the
    same plane far from it, so the LP's point in L's affine coordinates is
    not zero and its lift must follow L's basis rows in order."""
    l = hull_from_vertices([(0, 0, 1), (4, 0, 5), (0, 1, 3), (4, 1, 7)])
    k = hull_from_vertices([(10, 3, 17), (12, 3, 19)])
    v = translate_fit(k, l)
    assert v.fits and fits_exactly(k, l, v.witness)
    assert not fits_exactly(k, l, (0, 0, 0))
    alpha, w = max_scale(k, l)
    assert alpha == 2 and fits_exactly(scale_polytope(k, 2), l, w)


def test_flat_cover_frame_built_once(monkeypatch):
    """L's affine-hull frame is cached on L: repeated fits of moved and
    scaled bodies into one flat cover build one coordinate map."""
    from shadowcover import linalg

    l = hull_from_vertices([(0, 0, 1), (4, 0, 5), (0, 1, 3), (4, 1, 7)])
    k = hull_from_vertices([(10, 3, 17), (12, 3, 19)])
    calls = []
    real = linalg.coordinate_map

    def counting(rows, den):
        calls.append(rows)
        return real(rows, den)

    monkeypatch.setattr(linalg, "coordinate_map", counting)
    for step in range(3):
        moved = translate(scale_polytope(k, F(1, step + 1)), (step, -step, 0))
        v = translate_fit(moved, l)
        assert v.fits and fits_exactly(moved, l, v.witness)
        alpha, w = max_scale(moved, l)
        assert alpha == 2 * (step + 1)
        assert fits_exactly(scale_polytope(moved, alpha), l, w)
    assert calls == [l.int_basis]


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
    s = build_S(octahedron, fam, d=2)
    alpha, _ = max_scale(s, octahedron)
    assert alpha == 1


def test_shadow_fit_monotone(cube3):
    big = scale_polytope(cube3, 2)
    for rows in [[(1, 0, 0), (0, 1, 0)], [(1, 1, 0), (0, 1, 1)], [(1, 2, 3)]]:
        xi = subspace(3, rows)
        assert shadow_fits(cube3, big, xi)


def test_shadow_fit_pyramid_vs_reflection(pyramid):
    reflected = apply_linear(pyramid, [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    xi = subspace(3, [(1, 0, 0), (0, 1, 0)])
    assert shadow_fits(pyramid, reflected, xi)


def test_shadow_covering_without_containment():
    k = hull_from_vertices([(0, 0), (3, 0), (0, 1), (3, 1)])
    l = box((0, 2), (0, 2))
    assert not translate_fit(k, l).fits
    assert shadow_fits(k, l, subspace(2, [(0, 1)]))


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


# each script patches one witness check to reject, then asks for a verdict
_GUARD_SCRIPTS = {
    "translate_fit": """
from shadowcover import containment
from shadowcover.polytope import scale_polytope
containment.fits_exactly = lambda k, l, v: False
cube = named("cube-3")
verdict = lambda: containment.translate_fit(cube, scale_polytope(cube, 2))
""",
    "max_scale": """
from shadowcover import containment
from shadowcover.polytope import scale_polytope
containment.fits_exactly = lambda k, l, v: False
cube = named("cube-3")
verdict = lambda: containment.max_scale(cube, scale_polytope(cube, 2))
""",
    "translate_fit_no_fit": """
from shadowcover import containment
from shadowcover.polytope import scale_polytope
containment.certificate_valid = lambda k, l, cert: False
cube = named("cube-3")
verdict = lambda: containment.translate_fit(scale_polytope(cube, 2), cube)
""",
    "solve_lp": """
from shadowcover import lp
lp.verify_outcome = lambda p, outcome: False
verdict = lambda: lp.solve_lp(lp.LPProblem((1,), (((1,), 1, 1),)))
""",
    "is_reliable": """
from shadowcover import reliability
reliability.family_valid = lambda a, fam: False
verdict = lambda: reliability.is_reliable(named("octahedron"), 2)
""",
}

_GUARD_RUN = """
import sys
from shadowcover.corpus import named

assert False, "unreachable under -O"
{script}
try:
    verdict()
except AssertionError as exc:
    print(exc)
    sys.exit(0 if sys.flags.optimize else 3)
sys.exit(1)
"""


@pytest.mark.parametrize("script", sorted(_GUARD_SCRIPTS))
def test_verdict_guard_survives_python_O(script):
    src = str(Path(shadowcover.__file__).resolve().parent.parent)
    code = _GUARD_RUN.format(script=_GUARD_SCRIPTS[script])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
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
    v, failing = product_containment(cube3, parts)
    assert v.fits and failing is None
    assert fits_exactly(cube3, direct_sum_assemble(parts), v.witness)


def test_product_containment_failing_component(cube3):
    wide = hull_from_vertices([(0,), (3,)])
    thin = hull_from_vertices([(0,), (F(1, 2),)])
    parts = [
        (subspace(3, [(1, 0, 0)]), wide),
        (subspace(3, [(0, 1, 0)]), thin),
        (subspace(3, [(0, 0, 1)]), wide),
    ]
    v, failing = product_containment(cube3, parts)
    assert not v.fits and failing == 1


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
    viaparts, _ = product_containment(k, parts)
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
    before = shadow_fits(k, l, _complement(u))
    pk, pl = apply_linear(k, psi), apply_linear(l, psi)
    pu = matvec(matrix(psi), vector(u))
    after = shadow_fits(pk, pl, _complement(pu))
    assert before == after


def _complement(u):
    return Subspace(len(u), (tuple(int_nullspace([integerize(u)], len(u))), 1))


@pytest.mark.parametrize("seed", range(6))
def test_embedding_preserves_shadow_verdicts(seed):
    k = random_polytope(100 + seed, 3, 6, 3)
    l = scale_polytope(random_polytope(200 + seed, 3, 7, 3), 2)
    ek, el = embed(k, 4), embed(l, 4)
    stream = SubspaceSampler(seed, 2).stream(3)
    for _ in range(10):
        xi = next(stream)
        lifted = Subspace(4, (tuple(row + (0,) for row in xi.int_basis[0]), 1))
        assert shadow_fits(k, l, xi) == shadow_fits(ek, el, lifted)


def _pinned_shadow_cases():
    """Seeded K behind L in R^3..R^5 with rational, moved K and every d."""
    import random

    rng = random.Random("shadow-pin")
    for seed in range(24):
        n = rng.choice((3, 4, 5))
        d = rng.randint(1, n - 1)
        l = random_polytope(rng.randint(0, 10**6), n, n + 4, 3)
        k = random_polytope(rng.randint(0, 10**6), n, n + 2, 3)
        k = scale_polytope(k, F(rng.randint(1, 5), rng.randint(2, 6)))
        k = translate(k, [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)])
        yield k, l, d, SubspaceSampler(seed, d, rng.choice((1, 3, 10)))


def _pinned_alpha_cases():
    from shadowcover.corpus import named

    for name, d in (("octahedron", 2), ("square-pyramid", 1), ("cross-polytope-4", 2),
                    ("cross-polytope-4", 3), ("triangular-prism", 1)):
        yield name, d, named(name)


def test_shadow_reports_pinned_by_digest():
    """Passes, first failing trial and its verdict of 24 seeded sampled
    shadow covers, and the counterexample scale on 5 corpus cases, pinned by
    a digest.  The reports were first pinned while shadows were projected
    and hulled in Fraction arithmetic by the brute-force scan; they alone
    hash to 32595cadc35b, unchanged since ``ContainmentVerdict`` lost its
    ``component`` field.  The scales were those of a sampled search (30
    trials on 3 seeds per case, margin 1/2) until they became exact: the
    least largest scale of a (d+1)-vertex simplex of the body."""
    from shadowcover.counterexample import build_counterexample

    reports = []
    for k, l, d, sampler in _pinned_shadow_cases():
        rep = sampled_shadow_cover(k, l, d, sampler, 25)
        reports.append((rep.passes, rep.failed_trial, rep.failed_verdict))
    assert sum(r[1] is None for r in reports) == 7
    alphas = [
        (name, d, build_counterexample(l, d).alpha)
        for name, d, l in _pinned_alpha_cases()
    ]
    assert [a for _, _, a in alphas] == [F(3, 2), F(3, 2), F(4, 3), F(8, 7), F(2)]
    text = "\n".join(repr(r) for r in reports + alphas)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "818ce09a77914dec9b73ec3cf8be344abedc54a54eeb8b7ee8ee6898de76d23a"
    )


def _flat_points(rng, origin, directions, count):
    """count points origin + sum c_j u_j with small rational c_j."""
    pts = []
    for _ in range(count):
        cs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in directions]
        pts.append(tuple(o + sum((c * u[i] for c, u in zip(cs, directions)), F(0))
                         for i, o in enumerate(origin)))
    return pts


def _pinned_flat_cases():
    """Seeded flat covers L in R^3 and R^4 of every affine dimension 0..n-1,
    each against a full K, a flat K whose directions lie in L's (moved off
    L's affine hull, at a scale that may or may not fit) and a flat K with
    a direction outside L's."""
    import random

    rng = random.Random("flat-pin")
    for n in (3, 4):
        for adim in range(n):
            for _ in range(4):
                while True:
                    dirs = [tuple(rng.randint(-2, 2) for _ in range(n))
                            for _ in range(adim)]
                    if not dirs or int_rank(dirs) == adim:
                        break
                origin = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                l = hull_from_vertices(_flat_points(rng, origin, dirs, adim + 3))
                full = random_polytope(rng.randint(0, 10**6), n, n + 2, 2)
                yield scale_polytope(full, F(1, rng.randint(1, 6))), l
                m = rng.randint(1, adim) if adim else 0
                sub_dirs = []
                for _ in range(m):
                    cs = [rng.randint(-1, 1) for _ in dirs]
                    sub_dirs.append(tuple(sum(c * u[i] for c, u in zip(cs, dirs))
                                          for i in range(n)))
                start = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                inside = hull_from_vertices(_flat_points(rng, start, sub_dirs, m + 2))
                yield scale_polytope(inside, F(rng.randint(1, 4), rng.randint(2, 5))), l
                off = [tuple(rng.randint(-2, 2) for _ in range(n))]
                tilted = _flat_points(rng, start, off + sub_dirs, m + 3)
                yield hull_from_vertices(tilted), l


def test_flat_covers_pinned_by_digest():
    """Witnesses, certificates, hull mismatches and maximal scales of
    translate_fit and max_scale on 84 seeded flat covers, pinned by a digest
    recorded while the flat-cover lift still ran in Fraction arithmetic,
    then re-pinned when ``ContainmentVerdict`` lost its ``component`` field:
    the same text with ", component=None" after each ``hull_mismatch`` field
    hashes to the first pin, 09f8b9bcd113."""
    results = []
    for k, l in _pinned_flat_cases():
        verdict = translate_fit(k, l)
        try:
            scaled = max_scale(k, l)
        except RuntimeError as exc:
            scaled = str(exc)
        results.append((l.dim, l.affine_dim, k.affine_dim, verdict, scaled))
    assert {r[:2] for r in results} == {(n, a) for n in (3, 4) for a in range(n)}
    verdicts = [r[3] for r in results]
    assert sum(v.fits for v in verdicts) == 21
    assert sum(v.hull_mismatch for v in verdicts) == 55
    assert sum(v.certificate is not None for v in verdicts) == 8
    assert sum(isinstance(r[4], str) for r in results) == 2
    text = "\n".join(repr(r) for r in results)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "315a5cd456c306e7a6067a16079d3d33d0f399818e1530cdd74eb32ed8815b66"
    )


def _pinned_full_cases():
    """Seeded full-dimensional covers L in R^3..R^5 with 18-26 facets and
    rational vertices, each with a moved body K at the grid scales just
    below and just above its largest fitting scale."""
    import random

    rng = random.Random("full-pin")

    def draw(n, count, bound, accept):
        while True:
            shift = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            pts = [tuple(rng.randint(-bound, bound) + s for s in shift)
                   for _ in range(count)]
            p = hull_from_vertices(pts)
            if p.is_full_dimensional and accept(p):
                return p

    for n, npoints, lo, hi in ((3, 14, 18, 22), (4, 9, 20, 24), (5, 8, 20, 26)):
        for _ in range(4):
            while True:
                l = draw(n, npoints, 8, lambda p: lo <= len(p.facets) <= hi)
                k0 = draw(n, n + 2, 3, lambda p: len(p.vertices) == n + 2)
                alpha, _ = max_scale(k0, l)
                if alpha >= F(1, 4):
                    break
            below = F(int(alpha * 16), 16)
            if below == alpha:
                below -= F(1, 16)
            for c in (below, below + F(1, 16)):
                yield scale_polytope(k0, c), l


def test_full_covers_pinned_by_digest():
    """Verdict documents of translate_fit and max_scale on 12 seeded
    full-dimensional covers in R^3..R^5 of 18-26 facets, the size of the
    benchmark's containment LPs, with K just inside and just outside L.
    The digest was recorded from the full-width simplex tableau, before
    the tableau kept only its nonbasic columns."""
    import json

    from shadowcover.cli import _verdict_doc

    docs = []
    for k, l in _pinned_full_cases():
        alpha, v = max_scale(k, l)
        docs.append({
            "dim": l.dim,
            "facets": len(l.facets),
            "fit": _verdict_doc(translate_fit(k, l)),
            "scale": {"alpha": str(alpha), "witness": [str(x) for x in v]},
        })
    assert [d["dim"] for d in docs] == [3] * 8 + [4] * 8 + [5] * 8
    assert all(18 <= d["facets"] <= 26 for d in docs)
    assert [d["fit"]["fits"] for d in docs] == [True, False] * 12
    text = json.dumps(docs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6c5ceaeedead2cd63e26c6d5279c93c6423b46b4585c48bb5365796c00047157"
    )
