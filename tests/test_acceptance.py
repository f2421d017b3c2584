"""Acceptance suite: one test per criterion, each printing a PASS line.

Exact criteria run at full scale; sampled phases use the seeds and trial
counts fixed here, so the whole suite is deterministic.
"""

import random
import time
from fractions import Fraction

import pytest

from oracles import (
    embed,
    lp_problem,
    matvec,
    product_containment,
    random_symmetric_polytope,
    simplicial_families,
)
from shadowcover.containment import (
    SubspaceSampler,
    certificate_valid,
    fits_exactly,
    sampled_shadow_cover,
    translate_fit,
)
from shadowcover.corpus import named, random_polytope
from shadowcover.counterexample import build_counterexample, verify_bundle
from shadowcover.decomposability import is_decomposable
from shadowcover.kernels import int_nullspace, int_rank
from shadowcover.linalg import add, integerize, matrix, vector
from shadowcover.lp import Infeasible, Optimal, solve_lp, verify_outcome
from shadowcover.polytope import (
    Subspace,
    apply_linear,
    direct_sum_assemble,
    hull_certificate_valid,
    hull_from_vertices,
    is_centrally_symmetric,
    project,
    scale_polytope,
    subspace,
)
from shadowcover.reliability import (
    facet_direction_set,
    is_reliable,
    parallelotope_check,
)

F = Fraction

NAMED_FULL_DIM = [
    "cube-2", "cube-3", "cube-4",
    "square-pyramid", "octahedron", "cross-polytope-4",
    "hexagon", "hexagonal-prism", "triangular-prism",
    "standard-simplex-2", "standard-simplex-3", "standard-simplex-4",
    "sheared-box-2", "sheared-box-3", "sheared-box-4",
]


@pytest.fixture(scope="module")
def corpus():
    bodies = [named(n) for n in NAMED_FULL_DIM]
    bodies += [random_polytope(s, 2, 6, 5) for s in range(40)]
    bodies += [random_polytope(s, 3, 7, 4) for s in range(40)]
    bodies += [random_polytope(s, 4, 7, 3) for s in range(30)]
    bodies += [random_symmetric_polytope(s, 2, 3, 4) for s in range(35)]
    bodies += [random_symmetric_polytope(s, 3, 4, 3) for s in range(35)]
    bodies += [random_symmetric_polytope(s, 4, 5, 2) for s in range(30)]
    return bodies


def _random_symmetric_polygon(seed, bound=3):
    rng = random.Random(f"polygon:{seed}")
    for _ in range(100):
        pts = []
        for _ in range(rng.randint(2, 4)):
            v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
            pts += [v, (-v[0], -v[1])]
        p = hull_from_vertices(pts)
        if p.is_full_dimensional:
            return p
    raise RuntimeError("no polygon")


def _random_prism3(seed):
    poly = _random_symmetric_polygon(seed)
    seg = hull_from_vertices([(-1,), (1,)])
    if seed % 2:
        plane = subspace(3, [(1, 0, 1), (0, 1, 0)])
        axis = subspace(3, [(0, 0, 1)])
    else:
        plane = subspace(3, [(1, 0, 0), (0, 1, 0)])
        axis = subspace(3, [(0, 0, 1)])
    return direct_sum_assemble([(plane, poly), (axis, seg)])


def _random_prism4(seed):
    a = _random_symmetric_polygon(seed)
    b = _random_symmetric_polygon(seed + 500)
    sp1 = subspace(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    sp2 = subspace(4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    return direct_sum_assemble([(sp1, a), (sp2, b)])


def _random_parallelotope(seed, n):
    rng = random.Random(f"ptope:{seed}:{n}")
    cube = hull_from_vertices(
        [tuple(c) for c in __import__("itertools").product((-1, 1), repeat=n)]
    )
    while True:
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if int_rank(m) == n:
            return apply_linear(cube, m)


@pytest.fixture(scope="module")
def symmetric_corpus():
    bodies = [
        named("cube-3"), named("cube-4"), named("hexagonal-prism"),
        named("octahedron"), named("cross-polytope-4"),
        named("rhombic-dodecahedron"),
    ]
    bodies += [random_symmetric_polytope(s, 3, 4, 3) for s in range(20)]
    bodies += [random_symmetric_polytope(s, 3, 5, 2) for s in range(10)]
    bodies += [random_symmetric_polytope(s, 4, 5, 2) for s in range(20)]
    bodies += [_random_prism3(s) for s in range(20)]
    bodies += [_random_prism4(s) for s in range(10)]
    bodies += [_random_parallelotope(s, 3) for s in range(10)]
    bodies += [_random_parallelotope(s, 4) for s in range(5)]
    return bodies


def test_criterion_1_square_pyramid():
    t0 = time.perf_counter()
    pyr = named("square-pyramid")
    v1 = is_reliable(pyr, 1)
    assert not v1.reliable
    assert v1.certificate.size == 3
    assert is_reliable(pyr, 2).reliable
    assert not is_decomposable(pyr, 2)[0]
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"\nCRITERION 1 PASS: square pyramid verdicts exact ({dt:.3f}s)")


def test_criterion_2_q_direction_set():
    t0 = time.perf_counter()
    q = named("q-directions")
    assert simplicial_families(q.directions, 5) == []
    fams4 = simplicial_families(q.directions, 4)
    assert fams4 and all(len(members) == 4 for members, _ in fams4)
    assert is_reliable(q, 3).reliable
    assert is_reliable(q, 2).certificate.members == fams4[0][0]
    ok, report = is_decomposable(q, 3)
    assert not ok and report.dims() == (4,)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"\nCRITERION 2 PASS: 12-direction set in R^4 "
          f"(no 5-family, {len(fams4)} 4-families, one component) ({dt:.3f}s)")


def test_criterion_3_one_reliable_iff_parallelotope(corpus):
    t0 = time.perf_counter()
    checked = 0
    for p in corpus:
        if p.dim > 4 or p.dim < 2 or not p.is_full_dimensional:
            continue
        assert is_reliable(p, 1).reliable == parallelotope_check(p)
        checked += 1
    dt = time.perf_counter() - t0
    assert checked >= 200
    assert dt < 60
    print(f"\nCRITERION 3 PASS: reliability(1) == parallelotope on "
          f"{checked} bodies ({dt:.1f}s)")


def test_criterion_4_symmetric_2iff2(symmetric_corpus):
    t0 = time.perf_counter()
    assert len(symmetric_corpus) >= 100
    for p in symmetric_corpus:
        assert is_centrally_symmetric(p) is not None
    entries = [
        (is_reliable(p, 2).reliable, is_decomposable(p, 2)[0])
        for p in symmetric_corpus
    ]
    assert all(r == d for r, d in entries)
    both_true = sum(1 for r, d in entries if r and d)
    both_false = sum(1 for r, d in entries if not r and not d)
    dt = time.perf_counter() - t0
    assert dt < 300
    print(f"\nCRITERION 4 PASS: reliability(2) == decomposability(2) on "
          f"{len(symmetric_corpus)} symmetric bodies "
          f"({both_true} both true, {both_false} both false) ({dt:.1f}s)")


def test_criterion_5_decomposable_implies_reliable(corpus):
    t0 = time.perf_counter()
    pairs = decomposable_pairs = 0
    for i, p in enumerate(corpus):
        if not p.is_full_dimensional or p.dim < 2:
            continue
        _, report = is_decomposable(p, 1)
        cheap = len(p.facets) <= 14 or i % 10 == 0
        if cheap:
            fams = simplicial_families(facet_direction_set(p).directions, 3)
            max_family = max((len(members) for members, _ in fams), default=2)
        for d in range(1, p.dim):
            if report.decomposable_at(d):
                decomposable_pairs += 1
                assert is_reliable(p, d).reliable
            if cheap:
                # spot-check the decision procedure against subset enumeration
                assert is_reliable(p, d).reliable == (max_family <= d + 1)
            pairs += 1
    dt = time.perf_counter() - t0
    assert decomposable_pairs >= 20
    print(f"\nCRITERION 5 PASS: decomposable => reliable over {pairs} "
          f"(body, d) pairs ({decomposable_pairs} decomposable) ({dt:.1f}s)")


def test_criterion_6_product_containment_equivalence():
    t0 = time.perf_counter()
    rng = random.Random("criterion6")
    agreements = fits = 0
    cases = 0
    while cases < 50:
        n = rng.choice((3, 4))
        if n == 3:
            split = rng.choice(((2, 1), (1, 1, 1)))
        else:
            split = rng.choice(((2, 2), (3, 1), (2, 1, 1)))
        sheared = rng.random() < 0.5
        rows_pool = []
        offset = 0
        for dpart in split:
            rows = []
            for r in range(dpart):
                row = [0] * n
                row[offset + r] = 1
                if sheared and offset + r + 1 < n:
                    row[offset + r + 1] = rng.randint(0, 1)
                rows.append(tuple(row))
            rows_pool.append(rows)
            offset += dpart
        stacked = [r for rows in rows_pool for r in rows]
        if int_rank(stacked) != n:
            continue
        parts = []
        for rows, dpart in zip(rows_pool, split):
            seedp = rng.randint(0, 10**6)
            factor = (
                hull_from_vertices([(0,), (rng.randint(1, 3),)])
                if dpart == 1
                else random_polytope(seedp, dpart, dpart + 3, 2)
            )
            parts.append((subspace(n, rows), factor))
        c = direct_sum_assemble(parts)
        k = random_polytope(rng.randint(0, 10**6), n, n + 3, 2)
        if rng.random() < 0.5:
            k = scale_polytope(k, F(1, rng.randint(2, 5)))
        direct = translate_fit(k, c)
        viaparts, _ = product_containment(k, parts)
        assert direct.fits == viaparts.fits
        if viaparts.fits:
            assert fits_exactly(k, c, viaparts.witness)
            fits += 1
        agreements += 1
        cases += 1
    dt = time.perf_counter() - t0
    print(f"\nCRITERION 6 PASS: product == direct containment on "
          f"{agreements} pairs ({fits} fits, {agreements - fits} rejections) "
          f"({dt:.1f}s)")


def _pipeline_cases():
    """Named bodies plus the random pipeline corpus for the construction.

    The random members are every non-reliable (body, d) drawn from a fixed
    seeded sample: four bodies in R^3 at d in {1, 2} and one in R^4 at d=2.
    """
    cases = [(named("octahedron"), 2)]
    s3 = named("standard-simplex-3")
    cases += [(s3, 1), (s3, 2)]
    s4 = named("standard-simplex-4")
    cases += [(s4, 1), (s4, 2), (s4, 3)]
    randoms = [random_polytope(300 + s, 3, 6, 3) for s in range(4)]
    randoms.append(random_polytope(420, 4, 7, 2))
    for p in randoms:
        for d in range(1, p.dim):
            if d <= 2 and not is_reliable(p, d).reliable:
                cases.append((p, d))
    return cases


# the least largest scale of a (d+1)-vertex simplex of S, case by case
CRITERION_7_ALPHAS = [
    F(3, 2), F(3), F(3, 2), F(4), F(2), F(4, 3), F(5, 4), F(33, 32), F(38, 25),
    F(1020, 889), F(57, 35), F(19, 18), F(122, 77), F(366, 353), F(4, 3), F(40, 37),
]


def test_criterion_7_counterexample_pipeline():
    t0 = time.perf_counter()
    done = []
    for i, (body, d) in enumerate(_pipeline_cases()):
        bundle = build_counterexample(body, d)
        assert bundle.alpha == CRITERION_7_ALPHAS[i]
        assert verify_bundle(bundle).passed
        scaled = scale_polytope(bundle.body, bundle.alpha)
        assert certificate_valid(scaled, body, bundle.noncontainment)
        assert not translate_fit(scaled, body).fits
        # alpha is the largest scale: past it the minimising simplex fails
        t = hull_from_vertices([bundle.body.vertices[j] for j in bundle.minimiser])
        assert not translate_fit(scale_polytope(t, bundle.alpha * F(101, 100)), body).fits
        # sampled shadows as the oracle: none fails at alpha
        report = sampled_shadow_cover(scaled, body, d, SubspaceSampler(1000 + i, d), 200)
        assert report.all_passed
        done.append((d, str(bundle.alpha)))
    assert len(done) == len(CRITERION_7_ALPHAS)
    dt = time.perf_counter() - t0
    assert dt < 600
    print(f"\nCRITERION 7 PASS: {len(done)} counterexample pipelines, "
          f"alphas {done} ({dt:.1f}s)")


def test_criterion_8_linear_invariance_of_hyperplane_shadows():
    t0 = time.perf_counter()
    rng = random.Random("criterion8")
    psis = [
        [(1, 1, 0), (0, 1, 0), (0, 0, 1)],
        [(2, 0, 0), (0, 1, 0), (1, 0, 1)],
        [(1, 0, 1), (0, 1, 1), (0, 0, 1)],
        [(0, 1, 0), (1, 0, 0), (0, 1, 2)],
    ]
    checked = 0
    while checked < 50:
        k = random_polytope(rng.randint(0, 10**6), 3, 6, 3)
        l = scale_polytope(random_polytope(rng.randint(0, 10**6), 3, 7, 3), 2)
        u = tuple(rng.randint(-3, 3) for _ in range(3))
        if not any(u):
            continue
        psi = rng.choice(psis)
        before = _shadow_fits(k, l, _complement(u))
        pk, pl = apply_linear(k, psi), apply_linear(l, psi)
        pu = matvec(matrix(psi), vector(u))
        after = _shadow_fits(pk, pl, _complement(pu))
        assert before == after
        checked += 1
    dt = time.perf_counter() - t0
    print(f"\nCRITERION 8 PASS: hyperplane shadow verdicts invariant under "
          f"{checked} linear maps ({dt:.1f}s)")


def _complement(u):
    return Subspace(len(u), (tuple(int_nullspace([integerize(u)], len(u))), 1))


def _shadow_fits(k, l, xi):
    return translate_fit(project(k, xi), project(l, xi)).fits


def test_criterion_9_embedding_invariance():
    t0 = time.perf_counter()
    pyr = named("square-pyramid")
    epyr = embed(pyr, 4)
    assert is_reliable(epyr, 1).reliable == is_reliable(pyr, 1).reliable
    assert is_reliable(epyr, 2).reliable == is_reliable(pyr, 2).reliable
    oct3 = named("octahedron")
    for d in (1, 2):
        assert is_reliable(embed(oct3, 4), d).reliable == is_reliable(oct3, d).reliable

    # sampled shadow verdicts agree on corresponding subspaces
    pairs = [
        (named("cube-3"), scale_polytope(named("cube-3"), 2)),
        (scale_polytope(named("cube-3"), 3), named("cube-3")),
    ]
    bundle = build_counterexample(oct3, 2)
    pairs.append((scale_polytope(bundle.body, bundle.alpha), oct3))
    for k, l in pairs:
        ek, el = embed(k, 4), embed(l, 4)
        stream = SubspaceSampler(13, 2).stream(3)
        for _ in range(25):
            xi = next(stream)
            lifted = Subspace(4, (tuple(row + (0,) for row in xi.int_basis[0]), 1))
            assert _shadow_fits(k, l, xi) == _shadow_fits(ek, el, lifted)

    # passes persist for fresh subspaces of the larger space
    k, l = pairs[0]
    rep3 = sampled_shadow_cover(k, l, 2, SubspaceSampler(14, 2), 150)
    rep4 = sampled_shadow_cover(embed(k, 4), embed(l, 4), 2, SubspaceSampler(15, 2), 150)
    assert rep3.all_passed and rep4.all_passed
    ek, el = embed(pairs[2][0], 4), embed(pairs[2][1], 4)
    rep4c = sampled_shadow_cover(ek, el, 2, SubspaceSampler(16, 2), 150)
    assert rep4c.all_passed
    dt = time.perf_counter() - t0
    print(f"\nCRITERION 9 PASS: embedding preserves reliability exactly and "
          f"shadow verdicts on sampled subspaces ({dt:.1f}s)")


def test_criterion_10_infrastructure_invariants(corpus):
    t0 = time.perf_counter()
    rng = random.Random("criterion10")
    hulls = certs = supports = lps = 0
    for p in corpus:
        assert hull_from_vertices(p.vertices) == p
        hulls += 1
        if p.is_full_dimensional:
            assert hull_certificate_valid(p)
            certs += 1
    for _ in range(60):
        n = rng.choice((2, 3))
        a = random_polytope(rng.randint(0, 10**6), n, n + 3, 3)
        b = random_polytope(rng.randint(0, 10**6), n, n + 4, 3)
        s = hull_from_vertices([add(v, w) for v in a.vertices for w in b.vertices])
        for _ in range(4):
            u = tuple(rng.randint(-4, 4) for _ in range(n))
            assert s.support(u) == a.support(u) + b.support(u)
            supports += 1
    for _ in range(40):
        n = rng.choice((2, 3))
        k = random_polytope(rng.randint(0, 10**6), n, n + 3, 3)
        l = random_polytope(rng.randint(0, 10**6), n, n + 4, 4)
        verdict = translate_fit(k, l)
        if verdict.fits:
            assert fits_exactly(k, l, verdict.witness)
        else:
            assert verdict.hull_mismatch or certificate_valid(k, l, verdict.certificate)
        lps += 1
    # raw LP outcomes re-verify too
    for _ in range(30):
        n = rng.choice((1, 2, 3))
        cons = [
            (tuple(rng.randint(-4, 4) for _ in range(n)), rng.randint(-4, 4))
            for _ in range(rng.randint(0, 4))
        ]
        for j in range(n):
            e = [0] * n
            e[j] = 1
            cons.append((tuple(e), 5))
            cons.append((tuple(-x for x in e), 5))
        p = lp_problem(tuple(rng.randint(-3, 3) for _ in range(n)), cons)
        out = solve_lp(p)
        assert verify_outcome(p, out)
        assert isinstance(out, (Optimal, Infeasible))
        lps += 1
    dt = time.perf_counter() - t0
    print(f"\nCRITERION 10 PASS: {hulls} hull round-trips, {certs} hull "
          f"certificates, {supports} support sums, {lps} verified LP outcomes "
          f"({dt:.1f}s)")
