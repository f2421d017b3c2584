import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    embed,
    facet_area_vectors,
    hrep_vertices,
    matvec,
    random_symmetric_polytope,
    rank_vertices,
    scan_facets,
    sy_coords,
    sy_inverse,
    sy_rank,
    translate,
    transpose,
)
from shadowcover.corpus import random_polytope
from shadowcover.linalg import add, dot, vector
from shadowcover.polytope import (
    Subspace,
    apply_linear,
    direct_sum,
    hull_certificate_valid,
    hull_from_vertices,
    is_centrally_symmetric,
    project,
    scale_polytope,
    subspace,
)

F = Fraction


def minkowski_sum(p, q):
    """The hull of every vertex sum."""
    return hull_from_vertices([add(v, w) for v in p.vertices for w in q.vertices])


def normals_of(p):
    return {tuple(int(x) for x in f.normal) for f in p.facets}


def test_square_hull():
    sq = hull_from_vertices([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert len(sq.vertices) == 4
    assert normals_of(sq) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert all(f.offset == 1 for f in sq.facets)


def test_square_pyramid_hull(pyramid):
    assert len(pyramid.facets) == 5
    assert normals_of(pyramid) == {
        (0, 0, -1), (1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1),
    }
    # independent H-to-V reconstruction returns exactly the five vertices
    hrep = [(f.normal, f.offset) for f in pyramid.facets]
    assert hrep_vertices(hrep, 3) == set(pyramid.vertices)


def test_redundant_point_dropped():
    sq = hull_from_vertices([(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)])
    assert len(sq.vertices) == 4


def test_duplicate_points_deduped():
    seg = hull_from_vertices([(0,), (1,), (1,), (0,)])
    assert len(seg.vertices) == 2
    assert seg.affine_dim == 1


def test_single_point_polytope():
    pt = hull_from_vertices([(2, 3)])
    assert pt.affine_dim == 0
    assert pt.facets == ()


def test_segment_in_space_has_relative_facets():
    seg = hull_from_vertices([(0, 0, 0), (2, 2, 0)])
    assert seg.affine_dim == 1
    assert len(seg.facets) == 2
    for f in seg.facets:
        # relative facet normals live in the direction space
        assert f.normal in (vector((1, 1, 0)), vector((-1, -1, 0)))


def test_support_values(pyramid):
    sq = hull_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert sq.support((1, 1)) == 2
    assert pyramid.support((1, 0, 1)) == 1
    assert pyramid.support((0, 0, 0)) == 0


def test_subspace_forms_compare_equal():
    rows = [(2, -1, 0), (0, 3, 4)]
    forms = [subspace(3, rows), subspace(3, [[F(x) for x in r] for r in rows]),
             Subspace(3, (tuple(rows), 1))]
    assert forms[0] == forms[1] == forms[2]
    assert len({hash(xi) for xi in forms}) == 1
    assert forms[1].int_basis == (tuple(rows), 1)


def test_subspace_basis_round_trips_over_common_denominator():
    rows = ((F(1, 2), F(-3, 4), F(0)), (F(5, 6), F(1), F(1, 3)))
    xi = subspace(3, rows)
    assert xi.int_basis == (((6, -9, 0), (10, 12, 4)), 12)
    assert xi.basis == rows and xi.dim == 2
    assert Subspace(3, xi.int_basis).basis == rows
    assert repr(xi) == f"Subspace(ambient_dim=3, basis={rows!r})"
    # a denominator may share a factor with some entries, not with all
    assert Subspace(2, (((2, 3),), 2)).basis == ((F(1), F(3, 2)),)


@pytest.mark.parametrize("int_basis, message", [
    ((((1, 0),), 0), "denominator must be positive"),
    ((((1, 0),), -1), "denominator must be positive"),
    ((((2, 4), (0, 6)), 2), "coprime"),
    (((), 1), "at least one basis row"),
    ((((1, 0), (0, 1, 0)), 1), "ambient dimension"),
    ((((1, 2), (2, 4)), 1), "dependent"),
    ((((0, 0),), 1), "dependent"),
])
def test_subspace_rejects_bad_bases(int_basis, message):
    with pytest.raises(ValueError, match=message):
        Subspace(2, int_basis)


def test_subspace_constructor_rejects_bad_rows():
    with pytest.raises(ValueError, match="at least one basis row"):
        subspace(2, [])
    with pytest.raises(ValueError):
        subspace(2, [(1, 0), (0, 1, 0)])
    with pytest.raises(ValueError, match="dependent"):
        subspace(2, [(F(1, 2), 1), (1, 2)])


def test_project_cube_to_square(cube3):
    xi = subspace(3, [(1, 0, 0), (0, 1, 0)])
    shadow = project(cube3, xi)
    assert shadow == hull_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_project_pyramid_to_axis(pyramid):
    xi = subspace(3, [(0, 0, 1)])
    shadow = project(pyramid, xi)
    assert shadow == hull_from_vertices([(0,), (1,)])


def test_project_full_space_identity(pyramid):
    xi = subspace(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert project(pyramid, xi) == pyramid


def test_minkowski_segments_make_square():
    a = hull_from_vertices([(0, 0), (1, 0)])
    b = hull_from_vertices([(0, 0), (0, 1)])
    assert minkowski_sum(a, b) == hull_from_vertices(
        [(0, 0), (1, 0), (0, 1), (1, 1)]
    )


def test_minkowski_point_translates(pyramid):
    pt = hull_from_vertices([(1, 2, 3)])
    assert minkowski_sum(pyramid, pt) == translate(pyramid, (1, 2, 3))


def test_minkowski_self_sum_is_dilation():
    tri = hull_from_vertices([(0, 0), (1, 0), (0, 1)])
    assert minkowski_sum(tri, tri) == scale_polytope(tri, 2)


def test_direct_sum_unit_square():
    xi = subspace(2, [(1, 0)])
    eta = subspace(2, [(0, 1)])
    seg = hull_from_vertices([(0,), (1,)])
    assert direct_sum(seg, seg, xi, eta) == hull_from_vertices(
        [(0, 0), (1, 0), (0, 1), (1, 1)]
    )


def test_direct_sum_prism_facets():
    plane = subspace(3, [(1, 0, 0), (0, 1, 0)])
    axis = subspace(3, [(0, 0, 1)])
    tri = hull_from_vertices([(0, 0), (1, 0), (0, 1)])
    seg = hull_from_vertices([(0,), (1,)])
    prism = direct_sum(tri, seg, plane, axis)
    assert len(prism.facets) == 5
    assert len(prism.vertices) == 6


def test_direct_sum_with_point_factor_translates():
    xi = subspace(2, [(1, 0)])
    eta = subspace(2, [(0, 1)])
    seg = hull_from_vertices([(0,), (1,)])
    pt = hull_from_vertices([(5,)])
    assert direct_sum(seg, pt, xi, eta) == hull_from_vertices([(0, 5), (1, 5)])


def test_direct_sum_rejects_dependent_subspaces():
    xi = subspace(2, [(1, 0)])
    eta = subspace(2, [(2, 0)])
    seg = hull_from_vertices([(0,), (1,)])
    with pytest.raises(ValueError):
        direct_sum(seg, seg, xi, eta)


def _area_identity(p):
    """Whether the oracle's area-weighted facet normals sum to zero."""
    return not any(map(sum, zip(*facet_area_vectors(p))))


def test_vector_area_cube(cube3):
    assert _area_identity(cube3)
    assert hull_certificate_valid(cube3)


def test_vector_area_pyramid_exact_vectors(pyramid):
    vecs = {tuple(v) for v in facet_area_vectors(pyramid)}
    assert vecs == {
        (F(0), F(0), F(-4)),
        (F(1), F(0), F(1)),
        (F(-1), F(0), F(1)),
        (F(0), F(1), F(1)),
        (F(0), F(-1), F(1)),
    }
    assert _area_identity(pyramid)
    assert hull_certificate_valid(pyramid)


def test_hull_certificate_rejects_lower_dimensional():
    seg = hull_from_vertices([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        hull_certificate_valid(seg)


@st.composite
def certificate_clouds(draw):
    """Integer clouds in R^1-R^6: wide ones, whose facets are simplices, and
    points of a +-1 or +-2 box, whose facets often hold more than n."""
    n = draw(st.integers(1, 6))
    bound = draw(st.sampled_from((1, 2, 9)))
    size = draw(st.integers(n + 1, n + (7 if n <= 4 else 3)))
    return draw(st.lists(st.tuples(*[st.integers(-bound, bound)] * n),
                         min_size=size, max_size=size))


@given(certificate_clouds())
@example(list(product(range(4), repeat=3)))
@example(list(product(range(3), repeat=4)))
@example(list(product(range(2), repeat=5)))
@example([(x, y, 0) for x in range(3) for y in range(3)] + [(1, 1, 2), (1, 1, -1)])
@settings(max_examples=100, deadline=None)
def test_hull_certificate_matches_area_identity(pts):
    """The certificate accepts every hull whose oracle area vectors sum to
    zero, non-simplicial facets and grids included."""
    p = hull_from_vertices(pts)
    assume(p.is_full_dimensional)
    assert _area_identity(p)
    assert hull_certificate_valid(p)


def _mutants(p):
    """Broken facet lists of P, each as ((a, bn, bd), incidence) rows: no
    facets, each facet dropped, an offset moved either way (also off the
    body with no incidence left), one incidence added or removed, a facet
    listed twice (also as the only facet, whose ridges then all count two),
    and an extra valid inequality tight on the meet of two facets, whose
    vertices span no hyperplane."""
    rows = list(zip(p.int_facets, p.incidences))
    count = len(p.int_vertices[0])
    yield []
    for k, ((a, bn, bd), inc) in enumerate(rows):
        rest = rows[:k] + rows[k + 1:]
        yield rest
        yield rest + [((a, bn + 1, bd), inc)]
        yield rest + [((a, bn + 1, bd), ())]
        yield rest + [((a, bn - 1, bd), inc)]
        extra = next(i for i in range(count) if i not in inc)
        yield rest + [((a, bn, bd), tuple(sorted(inc + (extra,))))]
        yield from (rest + [((a, bn, bd), inc[:j] + inc[j + 1:])]
                    for j in range(len(inc)))
        yield rows + [rows[k]]
        yield [rows[k], rows[k]]
        for (b, cn, cd), other in rows[k + 1:]:
            meet = tuple(sorted(set(inc) & set(other)))
            if meet:
                off = F(bn, bd) + F(cn, cd)
                normal = tuple(x + y for x, y in zip(a, b))
                yield rows + [((normal, off.numerator, off.denominator), meet)]


def test_hull_certificate_rejects_mutants(cube3, pyramid):
    rng = random.Random("certificate-mutants")
    bodies = [hull_from_vertices([(0,), (F(5, 3),)]), cube3, pyramid]
    bodies += [random_polytope(s, n, n + 4, 6) for s in range(2) for n in (2, 3, 4, 5)]
    for n in (3, 4):
        # box clouds, whose facets are not all simplices
        pts = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(4 * n)]
        bodies.append(hull_from_vertices(pts))
    assert all(max(map(len, p.incidences)) > p.dim for p in bodies[-2:])
    rejected = 0
    for p in bodies:
        assert p.is_full_dimensional and hull_certificate_valid(p)
        for rows in _mutants(p):
            bad = replace(p, int_facets=tuple(f for f, _ in rows),
                          incidences=tuple(inc for _, inc in rows))
            assert not hull_certificate_valid(bad), rows
            rejected += 1
    assert rejected > 1000


def test_hull_certificate_is_sharper_than_area_identity(cube3):
    """Without two opposite facets a cube's area vectors still sum to zero;
    the certificate finds the four ridges on one listed facet each."""
    keep = [k for k, (a, _, _) in enumerate(cube3.int_facets) if a[0] == 0]
    holed = replace(cube3, int_facets=tuple(cube3.int_facets[k] for k in keep),
                    incidences=tuple(cube3.incidences[k] for k in keep))
    assert len(holed.int_facets) == 4
    assert _area_identity(holed)
    assert not hull_certificate_valid(holed)


def test_symmetry_detection(pyramid):
    cube = hull_from_vertices(
        [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    )
    assert is_centrally_symmetric(cube) == vector((0, 0, 0))
    assert is_centrally_symmetric(pyramid) is None
    assert is_centrally_symmetric(hull_from_vertices([(3, 4)])) == vector((3, 4))


def test_symmetry_matches_fraction_reflection():
    """The integer test agrees with reflecting the Fraction vertices through
    their centroid, on symmetric and asymmetric, full and flat bodies with
    rational vertices."""
    rng = random.Random("symmetry-reflection")
    found = 0
    for k in range(60):
        n = rng.randint(2, 4)
        if k % 2:
            p = _seeded_body(rng, n)
        else:
            p = random_symmetric_polytope(rng.randint(0, 10**6), n - k % 4 // 2, n, 3)
            p = translate(embed(p, n), [F(rng.randint(-4, 4), rng.randint(1, 3))
                                        for _ in range(n)])
        c = p.centroid()
        vset = set(p.vertices)
        symmetric = all(tuple(2 * x - y for x, y in zip(c, v)) in vset
                        for v in p.vertices)
        assert is_centrally_symmetric(p) == (c if symmetric else None)
        found += symmetric
    assert 30 <= found < 60


def test_embed_square_into_space():
    sq = hull_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    e = embed(sq, 3)
    assert e.dim == 3 and e.affine_dim == 2
    assert {v[2] for v in e.vertices} == {F(0)}


def test_embed_then_project_back():
    sq = hull_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    e = embed(sq, 4)
    back = project(e, subspace(4, [(1, 0, 0, 0), (0, 1, 0, 0)]))
    assert back == sq


def test_embed_point():
    pt = hull_from_vertices([(3, 4)])
    e = embed(pt, 3)
    assert e == hull_from_vertices([(3, 4, 0)])
    assert e.affine_dim == 0 and e.facets == ()


def test_apply_linear_identity(pyramid):
    eye = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert apply_linear(pyramid, eye) == pyramid


def test_apply_linear_stretch(cube3):
    box = apply_linear(cube3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert box.support((1, 0, 0)) == 2
    assert box.support((0, 1, 0)) == 1


def test_apply_linear_shear_square():
    sq = hull_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    sheared = apply_linear(sq, [(1, 1), (0, 1)])
    assert sheared == hull_from_vertices([(0, 0), (1, 0), (1, 1), (2, 1)])


def test_apply_linear_rejects_singular(cube3):
    with pytest.raises(ValueError):
        apply_linear(cube3, [(1, 0, 0), (1, 0, 0), (0, 0, 1)])


def _random_bodies():
    bodies = [random_polytope(s, 2, 6, 5) for s in range(3)]
    bodies += [random_polytope(s, 3, 7, 4) for s in range(3)]
    bodies += [random_symmetric_polytope(s, 3, 4, 3) for s in range(2)]
    bodies += [random_polytope(11, 4, 8, 3)]
    return bodies


@pytest.fixture(scope="module", params=range(9))
def random_body(request):
    return _random_bodies()[request.param]


def test_round_trip(random_body):
    assert hull_from_vertices(random_body.vertices) == random_body


def test_vertices_on_enough_facets(random_body):
    p = random_body
    n = p.affine_dim
    counts = [0] * len(p.vertices)
    for f in p.facets:
        for i in f.incident:
            counts[i] += 1
        # incident vertices affinely span the facet hyperplane
        pts = [p.vertices[i] for i in f.incident]
        face = hull_from_vertices(pts)
        assert face.affine_dim == n - 1
    assert all(c >= n for c in counts)


def test_area_identity_random(random_body):
    if random_body.is_full_dimensional:
        assert _area_identity(random_body)
        assert hull_certificate_valid(random_body)


def test_support_additivity(random_body):
    p = random_body
    q = random_polytope(99, p.dim, p.dim + 3, 3)
    s = minkowski_sum(p, q)
    dirs = [tuple(1 if i == j else 0 for j in range(p.dim)) for i in range(p.dim)]
    dirs += [tuple(1 for _ in range(p.dim)), tuple((-1) ** j for j in range(p.dim))]
    for u in dirs:
        assert s.support(u) == p.support(u) + q.support(u)


def test_project_commutes_with_translation(random_body):
    p = random_body
    n = p.dim
    xi = subspace(n, [[1] * n, [1 if j == 0 else -1 for j in range(n)]][: n - 1] or [[1] * n])
    t = tuple(range(1, n + 1))
    lhs = project(translate(p, t), xi)
    rhs = translate(project(p, xi), sy_coords(xi.basis, t))
    assert lhs == rhs


def test_projection_support_consistency(random_body):
    # support of the shadow at (B w) equals support of the body at w,
    # for w in the row space of B
    p = random_body
    n = p.dim
    rows = [[1] + [0] * (n - 1), [1] * n][: min(2, n)]
    xi = subspace(n, rows)
    shadow = project(p, xi)
    for coeffs in [(1,) * xi.dim, tuple(range(1, xi.dim + 1))]:
        w = matvec(transpose(xi.basis), vector(coeffs))
        gamma = matvec(xi.basis, w)
        assert shadow.support(gamma) == p.support(w)


def _pinned_clouds():
    """Seeded point clouds in R^1..R^4: every affine dimension from a point
    up to full, rational coordinates, repeated and redundant points."""
    rng = random.Random(20261018)

    def coord():
        if rng.random() < 0.3:
            return F(rng.randint(-6, 6), rng.randint(1, 4))
        return F(rng.randint(-4, 4))

    for _ in range(300):
        n = rng.randint(1, 4)
        origin = tuple(coord() for _ in range(n))
        k = rng.randint(1, n)
        dirs = [tuple(coord() for _ in range(n)) for _ in range(k)]
        pts = []
        for _ in range(rng.randint(1, k + 5)):
            c = [rng.randint(-2, 2) for _ in dirs]
            pts.append(tuple(
                o + sum((ci * d[j] for ci, d in zip(c, dirs)), F(0))
                for j, o in enumerate(origin)
            ))
        yield pts


def test_hulls_pinned_by_digest():
    """Vertices, facets and affine bases of 300 seeded hulls, pinned by a
    digest recorded before the kernels and the row-space echelon shared one
    elimination routine."""
    hulls = [hull_from_vertices(pts) for pts in _pinned_clouds()]
    assert [sum(p.affine_dim == k for p in hulls) for k in range(5)] == [
        54, 135, 63, 35, 13,
    ]
    assert sum(p.is_full_dimensional for p in hulls) == 108
    text = "\n".join(
        repr((p.vertices, p.facets, p.affine_dim, p.affine_basis)) for p in hulls
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9ac8b843c143aefc57dd30ab2894bfa97c22d70900cf6ce74b4b0f53d488e41d"
    )


@st.composite
def integer_clouds(draw):
    n = draw(st.integers(2, 3))
    pts = draw(st.lists(
        st.tuples(*[st.integers(-4, 4)] * n), min_size=n + 1, max_size=n + 5,
    ))
    return n, pts


@given(integer_clouds())
@settings(max_examples=100, deadline=None)
def test_hull_matches_hrep_oracle(cloud):
    n, pts = cloud
    p = hull_from_vertices(pts)
    if not p.is_full_dimensional:
        return
    # the facets' H-representation has exactly the hull's vertices
    assert hrep_vertices([(f.normal, f.offset) for f in p.facets], n) == set(
        p.vertices
    )
    assert set(p.vertices) <= {vector(q) for q in pts}


@st.composite
def flat_clouds_in_r5(draw):
    """A full-dimensional integer cloud Q in R^3 or R^4 with repeats, and
    its image M Q + t in R^5 under an injective integer map M."""
    k = draw(st.sampled_from((3, 4)))
    grid = st.tuples(*[st.integers(-2, 2)] * k)
    cloud = draw(st.lists(grid, min_size=k + 1, max_size=10))
    assume(sy_rank([[a - b for a, b in zip(p, cloud[0])] for p in cloud]) == k)
    cols = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 5), min_size=k, max_size=k))
    assume(sy_rank(cols) == k)
    shift = draw(st.tuples(*[st.integers(-10**6, 10**6)] * 5))
    image = [tuple(o + sum(x * c[j] for x, c in zip(q, cols))
                   for j, o in enumerate(shift)) for q in cloud]
    return cloud, image


@given(flat_clouds_in_r5())
@settings(max_examples=60, deadline=None)
def test_flat_hull_in_r5_matches_its_own_coordinates(clouds):
    """A flat cloud of affine dimension 3 or 4 in R^5 is hulled in the
    coordinates of its affine hull: its vertices are the images of the rank
    rule's vertices of Q, and its facets those of Q's subset scan."""
    cloud, image = clouds
    p = hull_from_vertices(image)
    facets = scan_facets(cloud)
    assert p.affine_dim == len(cloud[0]) and p.dim == 5
    assert set(p.vertices) == {vector(image[i]) for i in rank_vertices(cloud, facets)}
    verts = set(p.vertices)
    assert {frozenset(p.vertices[i] for i in inc) for inc in p.incidences} == {
        frozenset(vector(image[i]) for i in inc) & verts for _, _, inc in facets}


def _seeded_body(rng, n):
    """A rational body in R^n, full-dimensional or flat (embedded, then
    moved off the coordinate plane by a shear)."""
    p = random_polytope(rng.randint(0, 10**6), n, n + 3, 4)
    if rng.random() < 0.3:
        flat = embed(random_polytope(rng.randint(0, 10**6), n - 1, n + 2, 3), n)
        shear = [[int(i == j) for j in range(n)] for i in range(n)]
        shear[n - 1] = [rng.randint(-2, 2) for _ in range(n - 1)] + [1]
        p = apply_linear(flat, shear)
    p = scale_polytope(p, F(rng.randint(1, 5), rng.randint(1, 4)))
    return translate(p, [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_project_matches_hull_of_gram_coordinates(n):
    """project works in integers; its shadow equals the hull of the Fraction
    coordinates (B B^T)^-1 B v of the body's vertices, for every d."""
    rng = random.Random(f"gram-coordinates:{n}")
    for _ in range(10):
        p = _seeded_body(rng, n)
        for d in range(1, n + 1):
            while True:
                rows = [[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
                        for _ in range(d)]
                if sy_rank(rows) == d:
                    break
            xi = subspace(n, rows)
            g = sy_inverse([[dot(r, s) for s in xi.basis] for r in xi.basis])
            coords = [matvec(g, matvec(xi.basis, v)) for v in p.vertices]
            shadow = project(p, xi)
            assert shadow == hull_from_vertices(coords)
            nums, den = shadow.int_vertices
            assert den > 0
            assert [tuple(F(x, den) for x in v) for v in nums] == list(shadow.vertices)
            u = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)]
            assert shadow.support(u) == max(dot(v, u) for v in shadow.vertices)
