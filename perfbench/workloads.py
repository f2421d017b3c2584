"""The benchmark's four workloads: seeded inputs, timed ops and their checks.

Each workload has two steps.  ``prepare`` builds its template inputs from a
fixed seed: bodies, clouds and direction sets, with every LP their sizing
needs.  ``make_round`` turns the template, the run seed and a round number
into the inputs of one round and returns the round as a list of ``Op``.  A
round moves every template input by its own seeded signed permutation of the
coordinates (sign flips only, for contain) and rebuilds the hulls.  That map is an isometry, so fits, scales
and reliability do not change, and neither does the distribution of sampled
subspaces.  So the work of an op varies little from seed to seed, while
every coordinate the library sees depends on the seed.

An op calls one public entry point of the library -- the same ones the CLI
subcommands call -- through its module attribute, so that a traced run sees
the call.  ``doc`` turns the op's result into a canonical JSON document (for
the output digest) and ``check`` re-verifies it with the package's
independent checkers; both run outside the timed region.

Why these workloads:

* shadows -- the counterexample pipeline at CLI defaults plus a sampled
  shadow cover with failing shadows: projection, re-hulling of tiny shadows,
  small LPs and witness checks dominate; circuits barely run.  The
  square-pyramid op raises and is counted as failed.
* contain -- translate_fit and max_scale on 18-26 facet covers in R^3..R^5:
  exact LP pivots are nearly all of the time, with no projection or hull.
* hull -- brute-force hulls of integer clouds and factor extraction of a
  direct sum: kernels.hull_facets dominates, with no LP and no circuits.
* reliability -- exhaustive simplicial-family search over direct sums of
  polygon normals plus planted unreliable sets: the only workload where
  kernels.circuits does measurable work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from shadowcover import (
    containment,
    corpus,
    counterexample,
    decomposability,
    jsonio,
    kernels,
    linalg,
    polytope,
    reliability,
)


@dataclass(frozen=True)
class Op:
    """One timed call into the library and how to check what it returned."""

    kind: str
    label: str
    call: Callable[[], object]
    doc: Callable[[object], dict]
    check: Callable[[object], bool]


def _rat(q) -> str:
    return jsonio.format_rational(Fraction(q))


def _vec(v) -> list[str]:
    return [_rat(x) for x in v]


def polytope_doc(p) -> dict:
    doc = jsonio.polytope_to_doc(p)
    doc["affine_dim"] = p.affine_dim
    doc["facets"] = [
        [_vec(f.normal), _rat(f.offset), list(f.incident)] for f in p.facets
    ]
    return doc


def verdict_doc(v) -> dict:
    doc: dict = {"fits": v.fits, "hull_mismatch": v.hull_mismatch}
    if v.witness is not None:
        doc["witness"] = _vec(v.witness)
    if v.certificate is not None:
        doc["certificate"] = [[i, _rat(lam)] for i, lam in v.certificate.multipliers]
    return doc


def family_doc(fam) -> dict | None:
    if fam is None:
        return None
    return {"members": list(fam.members), "coefficients": _vec(fam.coefficients)}


def error_doc(exc: BaseException) -> dict:
    return {"error": type(exc).__name__}


def _body(rng, n, npoints, bound, accept):
    """Hull of seeded integer points, redrawn until ``accept`` holds."""
    while True:
        pts = [
            tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(npoints)
        ]
        p = polytope.hull_from_vertices(pts)
        if p.is_full_dimensional and accept(p):
            return p


def _vertex_count(k):
    return lambda p: len(p.vertices) == k


class SignedPermutation:
    """A seeded map x -> (s_0 x_p(0), ..., s_n-1 x_p(n-1)) with s_i = +-1.

    With ``permute=False`` p is the identity and only signs change.
    """

    def __init__(self, rng, n, permute=True):
        perm = list(range(n))
        if permute:
            rng.shuffle(perm)
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        self.pairs = tuple(zip(signs, perm))
        self.matrix = [
            [s if j == p else 0 for j in range(n)] for s, p in self.pairs
        ]

    def vector(self, v) -> tuple:
        return tuple(s * v[p] for s, p in self.pairs)

    def body(self, p):
        """The image polytope, re-hulled by the library."""
        return polytope.apply_linear(p, self.matrix)


# ---------------------------------------------------------------- shadows

# (corpus body, shadow dimension) at the CLI's counterexample defaults
COUNTEREXAMPLE_CASES = (
    ("octahedron", 1),
    ("standard-simplex-4", 2),
    ("square-pyramid", 1),
)
# square-pyramid d=1 raises at the CLI defaults: a draw of u = (0, k, 0)
# collapses the shadow of S to a point.  About one seed in ten misses that
# draw, so the op runs at seed 0, where it raises, on every run: the failure
# is counted the same way each time, and a fix shows as one more verified op.
FAILING_CASE = "square-pyramid"
FAILING_CASE_SEED = 0
CLI_TRIALS = 1000
CLI_BOUND = 10
# K is grown to just above 9/8 of its largest fitting scale, so K itself does
# not fit in L but most 2-shadows do: some trials fail with a certificate
SHADOW_OVERSIZE = Fraction(9, 8)
SHADOW_TEMPLATE_SEED = "shadows-template"
SHADOW_COVERS = 2


def _jittered(rng, p, factor):
    return polytope.hull_from_vertices(
        [tuple(factor * x + rng.randint(-1, 1) for x in v) for v in p.vertices]
    )


def _check_bundle(l, d, b) -> bool:
    scaled = polytope.scale_polytope(b.body, b.alpha)
    return (
        b.cover == l
        and b.d == d
        and b.alpha > 1
        and reliability.family_valid(reliability.facet_direction_set(l), b.family)
        and b.family.size >= d + 2
        and containment.certificate_valid(scaled, l, b.noncontainment)
        and containment.translate_fit(scaled, l).fits is False
    )


def _shadow_doc(r) -> dict:
    doc = {
        "d": r.d,
        "trials": r.trials,
        "passes": r.passes,
        "failed_trial": r.failed_trial,
    }
    if r.failed_subspace is not None:
        doc["failed_subspace"] = [_vec(row) for row in r.failed_subspace.basis]
        doc["failed_verdict"] = verdict_doc(r.failed_verdict)
    return doc


def _check_shadow(k, l, trials, r) -> bool:
    if r.trials != trials or not 0 <= r.passes <= trials:
        return False
    if r.passes == trials:
        return r.failed_verdict is None
    v = r.failed_verdict
    if v is None or v.fits:
        return False
    if v.hull_mismatch:
        return True
    xi = r.failed_subspace
    return containment.certificate_valid(
        polytope.project(k, xi), polytope.project(l, xi), v.certificate
    )


def prepare_shadows():
    """K grown just past its largest fitting scale behind L, both in R^3."""
    template = random.Random(SHADOW_TEMPLATE_SEED)
    l = _jittered(template, _body(template, 3, 8, 6, _vertex_count(6)), 4)
    k0 = _jittered(template, _body(template, 3, 5, 3, _vertex_count(4)), 4)
    alpha, _ = containment.max_scale(k0, l)
    c = Fraction(int(alpha * SHADOW_OVERSIZE * 16) + 1, 16)
    return polytope.scale_polytope(k0, c), l


def round_shadows(template, seed: int, rnd: int) -> list[Op]:
    rng = random.Random(f"shadows:{seed}:{rnd}")
    ops = []
    for name, d in COUNTEREXAMPLE_CASES:
        l = corpus.named(name)
        op_seed = rng.randrange(1 << 30)
        if name == FAILING_CASE:
            op_seed = FAILING_CASE_SEED
        ops.append(Op(
            "build_counterexample",
            f"{name} d={d}",
            lambda l=l, d=d, s=op_seed: counterexample.build_counterexample(l, d, s),
            jsonio.bundle_to_doc,
            lambda b, l=l, d=d: _check_bundle(l, d, b),
        ))
    # two covers, so that the median latency, which falls on them, rests on
    # two samples
    for _ in range(SHADOW_COVERS):
        g = SignedPermutation(rng, 3)
        k, l = (g.body(p) for p in template)
        sampler = containment.SubspaceSampler(rng.randrange(1 << 30), 2, CLI_BOUND)
        ops.append(Op(
            "sampled_shadow_cover",
            "random K behind random L in R^3, d=2",
            lambda k=k, l=l, s=sampler: containment.sampled_shadow_cover(
                k, l, 2, s, CLI_TRIALS
            ),
            _shadow_doc,
            lambda r, k=k, l=l: _check_shadow(k, l, CLI_TRIALS, r),
        ))
    return ops


# ---------------------------------------------------------------- contain

# (dimension, points drawn for L, accepted facet counts of L, covers); each
# cover gets one K just inside and one just outside.  Pivot counts of the
# exact simplex swing widely from one cover to the next, so the covers are
# drawn once from a fixed seed and every round moves all of them; R^4 holds
# half the ops, which keeps the median latency inside one class of LP.  The
# moves only flip signs: moved covers reorder their facets, hence the LP
# rows, and Bland's rule then takes other pivots, but the op times of
# sign-flipped covers spread about half as much as those of permuted ones.
CONTAIN_COVERS = ((3, 14, (18, 22), 2), (4, 9, (20, 24), 4), (5, 8, (20, 26), 2))
CONTAIN_TEMPLATE_SEED = "contain-template"
GRID = 16


def _check_fit(k, l, expect_fit, v) -> bool:
    if v.fits != expect_fit:
        return False
    if v.fits:
        return containment.fits_exactly(k, l, v.witness)
    return containment.certificate_valid(k, l, v.certificate)


def _check_scale(k, l, expect_alpha, result) -> bool:
    alpha, v = result
    return alpha == expect_alpha and containment.fits_exactly(
        polytope.scale_polytope(k, alpha), l, v
    )


def _scale_doc(result) -> dict:
    alpha, v = result
    return {"alpha": _rat(alpha), "witness": _vec(v)}


def prepare_contain():
    """Covers L with a body K0 and its largest fitting scale alpha."""
    rng = random.Random(CONTAIN_TEMPLATE_SEED)
    covers = []
    for n, npoints, (lo_f, hi_f), count in CONTAIN_COVERS:
        for _ in range(count):
            while True:
                l = _body(rng, n, npoints, 8, lambda p: lo_f <= len(p.facets) <= hi_f)
                k0 = _body(rng, n, n + 2, 3, _vertex_count(n + 2))
                alpha, _ = containment.max_scale(k0, l)
                if alpha >= Fraction(1, 4):
                    break
            covers.append((l, k0, alpha))
    return covers


def round_contain(covers, seed: int, rnd: int) -> list[Op]:
    rng = random.Random(f"contain:{seed}:{rnd}")
    ops = []
    for l0, k00, alpha in covers:
        g = SignedPermutation(rng, l0.dim, permute=False)
        l, k0 = g.body(l0), g.body(k00)
        below = Fraction(int(alpha * GRID), GRID)
        if below == alpha:
            below -= Fraction(1, GRID)
        above = Fraction(int(alpha * GRID) + 1, GRID)
        for c, fits in ((below, True), (above, False)):
            k = polytope.scale_polytope(k0, c)
            tag = f"R^{l.dim} {len(l.facets)} facets, K at {c}"
            ops.append(Op(
                "translate_fit",
                tag,
                lambda k=k, l=l: containment.translate_fit(k, l),
                verdict_doc,
                lambda v, k=k, l=l, f=fits: _check_fit(k, l, f, v),
            ))
            ops.append(Op(
                "max_scale",
                tag,
                lambda k=k, l=l: containment.max_scale(k, l),
                _scale_doc,
                lambda r, k=k, l=l, a=alpha / c: _check_scale(k, l, a, r),
            ))
    return ops


# ---------------------------------------------------------------- hull

HULL_CLOUDS = ((3, 40), (4, 30), (5, 25))
CLOUD_BOUND = 20
# polygon vertex counts of the direct sum: 5 * 7 = 35 vertices in R^4
DIRECT_SUM_POLYGONS = (5, 7)
HULL_TEMPLATE_SEED = "hull-template"


def _check_hull(points, p) -> bool:
    return (
        polytope.hull_from_vertices(p.vertices) == p
        and polytope.vector_area_check(p)
        and set(p.vertices) <= set(points)
        and all(polytope.contains_point(p, q) for q in points)
    )


def _decompose(body, d):
    ok, report = decomposability.is_decomposable(body, d)
    factors = decomposability.extract_factors(
        body, [c.subspace for c in report.components]
    )
    return ok, report, factors


def _decompose_doc(result) -> dict:
    ok, report, factors = result
    return {
        "decomposable": ok,
        "components": [list(c.members) for c in report.components],
        "factors": [
            {"basis": [_vec(r) for r in sp.basis], "factor": polytope_doc(f)}
            for sp, f in factors
        ],
    }


def _check_decompose(body, polygons, result) -> bool:
    ok, report, factors = result
    rebuilt = polytope.direct_sum_assemble(factors)
    return (
        ok
        and report.dims() == (2, 2)
        and sorted(len(f.vertices) for _, f in factors) == sorted(polygons)
        and all(polytope.vector_area_check(f) for _, f in factors)
        and polytope.translate_of(rebuilt, body) is not None
    )


def _spanning_rows(rng, n, dims):
    """Small integer rows, split into groups of ``dims``, that span R^n."""
    while True:
        rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(sum(dims))]
        if kernels.int_rank(rows) == n:
            break
    out, start = [], 0
    for d in dims:
        out.append(rows[start:start + d])
        start += d
    return out


def prepare_hull():
    """Integer clouds, two polygons and the bases of the direct sum."""
    rng = random.Random(HULL_TEMPLATE_SEED)
    clouds = []
    for n, count in HULL_CLOUDS:
        points = set()
        while len(points) < count:
            points.add(tuple(rng.randint(-CLOUD_BOUND, CLOUD_BOUND) for _ in range(n)))
        clouds.append(sorted(points))
    polygons = [_body(rng, 2, 3 * k, 8, _vertex_count(k)) for k in DIRECT_SUM_POLYGONS]
    return clouds, polygons, _spanning_rows(rng, 4, (2, 2))


def round_hull(template, seed: int, rnd: int) -> list[Op]:
    clouds, polygons, bases = template
    rng = random.Random(f"hull:{seed}:{rnd}")
    ops = []
    for cloud in clouds:
        g = SignedPermutation(rng, len(cloud[0]))
        points = sorted(g.vector(q) for q in cloud)
        ops.append(Op(
            "hull_from_vertices",
            f"{len(points)} points in R^{len(points[0])}",
            lambda pts=points: polytope.hull_from_vertices(pts),
            polytope_doc,
            lambda p, pts=points: _check_hull(pts, p),
        ))
    g = SignedPermutation(rng, 4)
    xi, eta = (polytope.subspace(4, [g.vector(r) for r in rows]) for rows in bases)
    body = polytope.direct_sum(polygons[0], polygons[1], xi, eta)
    ops.append(Op(
        "decompose",
        f"direct sum of {len(body.vertices)} vertices in R^4",
        lambda: _decompose(body, 2),
        _decompose_doc,
        lambda r: _check_decompose(body, DIRECT_SUM_POLYGONS, r),
    ))
    return ops


# ---------------------------------------------------------------- reliability

# polygon vertex counts of the reliable direct sums in R^6: 21 normals each,
# about 2e5 subsets to exhaust; equal sizes keep the slow ops alike, so the
# 90th latency percentile falls inside one class of op
RELIABLE_BLOCKS = ((7, 7, 7),) * 4
# (dimension, number of directions, d) of the planted unreliable sets
UNRELIABLE_SETS = ((4, 10, 3), (4, 10, 3), (5, 12, 3), (5, 12, 3))
RELIABILITY_TEMPLATE_SEED = "reliability-template"


def _block_normals(rng, blocks):
    """Normals of random polygons, block i in coordinates 2i and 2i+1."""
    n = 2 * len(blocks)
    dirs = []
    for i, k in enumerate(blocks):
        polygon = _body(rng, 2, 3 * k, 8, _vertex_count(k))
        for f in polygon.facets:
            u = [0] * n
            u[2 * i], u[2 * i + 1] = f.normal
            dirs.append(tuple(u))
    return dirs


def _unreliable_set(rng, n, m):
    """Random directions around a planted simplicial family of size n+1.

    Directions are content-reduced, as DirectionSet documents: certificates
    from is_reliable are computed on the reduced vectors.
    """
    while True:
        base = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        if kernels.int_rank(base) != n:
            continue
        coeffs = [rng.randint(1, 2) for _ in range(n)]
        closing = tuple(-sum(c * u[j] for c, u in zip(coeffs, base)) for j in range(n))
        dirs = [linalg.integerize(u) for u in base + [closing]]
        if len(set(dirs)) == len(dirs):
            break
    while len(dirs) < m:
        u = linalg.integerize(tuple(rng.randint(-3, 3) for _ in range(n)))
        if any(u) and u not in dirs:
            dirs.append(u)
    rng.shuffle(dirs)
    return reliability.direction_set(n, dirs)


def _reliability_doc(v) -> dict:
    return {"reliable": v.reliable, "d": v.d, "certificate": family_doc(v.certificate)}


def _check_reliable(a, d, expect, v) -> bool:
    if v.reliable != expect or v.d != d:
        return False
    if v.reliable:
        return v.certificate is None
    fam = v.certificate
    return fam.size >= d + 2 and reliability.family_valid(a, fam)


def _decomposable_doc(result) -> dict:
    ok, report = result
    return {
        "decomposable": ok,
        "components": [
            {"members": list(c.members), "basis": [_vec(r) for r in c.subspace.basis]}
            for c in report.components
        ],
    }


def _check_decomposable(a, d, expect_dims, result) -> bool:
    """Components partition the directions and span R^n as a direct sum."""
    ok, report = result
    dirs = a.integer_directions()
    members = sorted(i for c in report.components for i in c.members)
    if members != list(range(len(dirs))):
        return False
    for c in report.components:
        basis = [linalg.integerize(r) for r in c.subspace.basis]
        if any(kernels.int_rank(basis + [dirs[i]]) != len(basis) for i in c.members):
            return False
    stacked = [
        linalg.integerize(r) for c in report.components for r in c.subspace.basis
    ]
    if len(stacked) != a.dim or kernels.int_rank(stacked) != a.dim:
        return False
    if expect_dims is not None and sorted(report.dims()) != sorted(expect_dims):
        return False
    return ok == (report.max_component_dim <= d)


def prepare_reliability():
    """The normals of each reliable direct sum, as integer vectors in R^6."""
    rng = random.Random(RELIABILITY_TEMPLATE_SEED)
    return [(len(b), _block_normals(rng, b)) for b in RELIABLE_BLOCKS]


def round_reliability(template, seed: int, rnd: int) -> list[Op]:
    rng = random.Random(f"reliability:{seed}:{rnd}")
    cases = []
    for blocks, normals in template:
        n = 2 * blocks
        g = SignedPermutation(rng, n)
        dirs = [g.vector(u) for u in normals]
        rng.shuffle(dirs)
        cases.append((reliability.direction_set(n, dirs), 2, True, (2,) * blocks))
    for n, m, d in UNRELIABLE_SETS:
        cases.append((_unreliable_set(rng, n, m), d, False, None))
    ops = []
    for a, d, expect, dims in cases:
        tag = f"{len(a.directions)} directions in R^{a.dim}, d={d}"
        ops.append(Op(
            "is_reliable",
            tag,
            lambda a=a, d=d: reliability.is_reliable(a, d),
            _reliability_doc,
            lambda v, a=a, d=d, e=expect: _check_reliable(a, d, e, v),
        ))
        ops.append(Op(
            "is_decomposable",
            tag,
            lambda a=a, d=d: decomposability.is_decomposable(a, d),
            _decomposable_doc,
            lambda r, a=a, d=d, e=dims: _check_decomposable(a, d, e, r),
        ))
    return ops


@dataclass(frozen=True)
class Workload:
    """How to make a round, and how long one takes.

    ``fresh`` rounds draw new inputs each time; the hull workload repeats its
    round, because its inputs take seconds to build and its checks longer.
    A run does as many whole rounds as fit in --seconds at ``round_s`` each,
    and at least one, so its work depends on the seed and the run length
    only, never on how fast the machine or the code is.  ``round_s`` is
    about one round's op time (CPU seconds) with the pure kernels on a 2-core
    x86 machine under Python 3.11.
    """

    prepare: Callable[[], object]
    make_round: Callable[[object, int, int], list[Op]]
    fresh: bool
    round_s: float


WORKLOADS = {
    "shadows": Workload(prepare_shadows, round_shadows, fresh=True, round_s=25.0),
    "contain": Workload(prepare_contain, round_contain, fresh=True, round_s=3.7),
    "hull": Workload(prepare_hull, round_hull, fresh=False, round_s=11.5),
    "reliability": Workload(prepare_reliability, round_reliability, fresh=True,
                            round_s=1.7),
}
