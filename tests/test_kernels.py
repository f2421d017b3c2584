"""The integer kernels: circuits and their garbage, canonical row bases,
hull facets against the subset scan and hull vertices against the rank
rule."""

import gc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import rank_vertices, scan_facets, simplicial_families, sy_rank
from shadowcover import backend_name, kernels

small_int = st.integers(min_value=-6, max_value=6)


@st.composite
def int_matrices(draw, max_rows=5, max_cols=5):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    return [
        tuple(draw(small_int) for _ in range(ncols)) for _ in range(nrows)
    ]


def test_circuit_properties():
    vecs = [(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0)]
    found = kernels.circuits(vecs, 2, 3)
    assert found == [((0, 1, 2), (1, 1, 1))]
    for members, coeffs in found:
        assert all(c > 0 for c in coeffs)
        dim = len(vecs[0])
        total = [0] * dim
        for i, c in zip(members, coeffs):
            for k in range(dim):
                total[k] += c * vecs[i][k]
        assert not any(total)
        # every proper subset is independent
        assert kernels.int_rank([vecs[i] for i in members]) == len(members) - 1
        for drop in range(len(members)):
            rest = [vecs[i] for j, i in enumerate(members) if j != drop]
            assert kernels.int_rank(rest) == len(rest)
    # (0, 4) is a positive pair, but below the size range
    assert kernels.circuits(vecs, 3, 3) == found
    assert kernels.circuits(vecs, 2, 2) == [((0, 4), (1, 1))]
    assert kernels.circuits(vecs[:2], 2, 3) == []


@given(int_matrices(max_rows=7, max_cols=4), st.integers(2, 5), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_first_positive_circuit_matches_subset_oracle(vecs, lo, extra):
    """The hit is the lexicographically first positive circuit of the size
    range, with content-reduced coefficients."""
    assume(all(any(v) for v in vecs))
    families = [f for f in simplicial_families(vecs, lo) if len(f[0]) <= lo + extra]
    first = sorted(families)[:1]
    assert kernels.circuits(vecs, lo, lo + extra) == first


def test_circuits_leave_no_garbage():
    vecs = [(1, 0, 2), (0, 1, -1), (-1, -1, -1), (1, 1, 0), (-1, 0, 3)]
    gc.collect()
    gc.disable()
    try:
        kernels.circuits(vecs, 2, 4)
        kernels.circuits(vecs, 5, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


@given(int_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_echelon_depends_only_on_row_space(rows, rng):
    basis = kernels.int_echelon(rows)
    assert len(basis) == kernels.int_rank(rows)
    scales = [rng.choice((-3, -1, 2)) for _ in rows]
    mixed = [tuple(c * x for x in r) for c, r in zip(scales, rows)]
    rng.shuffle(mixed)
    mixed.append(tuple(a + b for a, b in zip(rows[0], rows[-1])))
    assert kernels.int_echelon(mixed) == basis
    assert kernels.int_rank(basis + list(rows)) == len(basis)


def test_backend_name_reports():
    assert backend_name() == "pure"


@st.composite
def low_dim_clouds(draw):
    """2-12 integer points in R^1 or R^2 with repeats and collinear edge
    points, moved by a large scale and a large, possibly negative, shift."""
    dim = draw(st.sampled_from((1, 2)))
    grid = st.tuples(*[st.integers(-3, 3)] * dim)
    pts = draw(st.lists(grid, min_size=2, max_size=12))
    s = draw(st.sampled_from((1, 7, 10**9 + 7)))
    shift = draw(st.tuples(*[st.integers(-10**15, 10**15)] * dim))
    pts = [tuple(s * x + o for x, o in zip(p, shift)) for p in pts]
    base = pts[0]
    assume(kernels.int_rank([[a - b for a, b in zip(p, base)] for p in pts]) == dim)
    return pts


@given(low_dim_clouds())
@settings(max_examples=300, deadline=None)
def test_low_dimensional_hulls_match_subset_scan(pts):
    facets, vertices = kernels.hull_facets(pts)
    assert facets == scan_facets(pts)
    assert vertices == rank_vertices(pts, facets)


def test_polygon_keeps_collinear_edge_points():
    pts = [(0, 0), (2, 0), (1, 0), (2, 2), (0, 2), (1, 1), (2, 1), (0, 0)]
    facets, vertices = kernels.hull_facets(pts)
    assert facets == scan_facets(pts)
    assert ((0, -1), 0, (0, 1, 2, 7)) in facets
    assert vertices == [0, 1, 3, 4]


def _solid_points(dim, cube):
    """Vertices of the cube [-2, 2]^dim or of the cross-polytope with
    vertices +-2 e_i, and the points a cloud may add to them: the midpoints
    of their edges, the centre and one more inner point."""
    if cube:
        verts = [tuple(2 * ((k >> i & 1) * 2 - 1) for i in range(dim))
                 for k in range(2 ** dim)]
    else:
        verts = [tuple(s * 2 * (i == j) for i in range(dim))
                 for j in range(dim) for s in (1, -1)]
    mids = sorted({tuple((a + b) // 2 for a, b in zip(u, v))
                   for u in verts for v in verts
                   if sum(a != b for a, b in zip(u, v)) == (1 if cube else 2)})
    inner = [(0,) * dim, (1,) + (0,) * (dim - 1)]
    return verts, mids + inner


@st.composite
def full_dim_clouds(draw):
    """Full-dimensional integer clouds in R^3..R^5: +-1 and +-2 boxes with
    repeats, cube and cross-polytope vertices with points on their edges and
    inside, and bare simplices; scaled, shifted and shuffled as above."""
    dim = draw(st.sampled_from((3, 4, 5)))
    kind = draw(st.sampled_from(("box", "solid", "simplex")))
    if kind == "box":
        r = draw(st.sampled_from((1, 2)))
        grid = st.tuples(*[st.integers(-r, r)] * dim)
        pts = draw(st.lists(grid, min_size=dim + 1, max_size=8 if dim == 5 else 12))
        pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    elif kind == "solid":
        # the oracle's C(V, dim) subsets keep the clouds small in R^5: the
        # 5-cube's 32 vertices alone would take it seconds
        verts, extra = _solid_points(dim, draw(st.booleans()) and dim < 5)
        more = draw(st.lists(st.sampled_from(extra), max_size=2 if dim == 5 else 4))
        pts = verts + more
    else:
        grid = st.tuples(*[st.integers(-50, 50)] * dim)
        pts = draw(st.lists(grid, min_size=dim + 1, max_size=dim + 1))
    s = draw(st.sampled_from((1, 7, 10**9 + 7)))
    shift = draw(st.tuples(*[st.integers(-10**15, 10**15)] * dim))
    pts = draw(st.permutations([tuple(s * x + o for x, o in zip(p, shift))
                                for p in pts]))
    base = pts[0]
    assume(kernels.int_rank([[a - b for a, b in zip(p, base)] for p in pts]) == dim)
    return pts


@given(full_dim_clouds())
@settings(max_examples=150, deadline=None)
def test_double_description_matches_subset_scan(pts):
    facets, vertices = kernels.hull_facets(pts)
    assert facets == scan_facets(pts)
    assert vertices == rank_vertices(pts, facets)


def test_grid_facets_hold_every_grid_point():
    """The 4x4x4 grid: six square facets of 16 points each, faces and
    edges included."""
    pts = [(x, y, z) for x in range(4) for y in range(4) for z in range(4)]
    facets, _ = kernels.hull_facets(pts)
    assert [(a, b) for a, b, _ in facets] == [
        ((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0),
        ((0, 0, 1), 3), ((0, 1, 0), 3), ((1, 0, 0), 3)]
    for a, b, inc in facets:
        assert inc == tuple(i for i, p in enumerate(pts) if kernels.int_dot(a, p) == b)
        assert len(inc) == 16


def test_flat_points_are_refused():
    with pytest.raises(ValueError, match="not full-dimensional"):
        kernels.hull_facets([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])


def test_grid_vertices_are_its_corners():
    """Every edge and face point of the 4x4x4 grid lies on a facet, but
    only the 8 corners are vertices."""
    pts = [(x, y, z) for x in range(4) for y in range(4) for z in range(4)]
    _, vertices = kernels.hull_facets(pts)
    assert [pts[i] for i in vertices] == [
        (x, y, z) for x in (0, 3) for y in (0, 3) for z in (0, 3)]


def test_edge_midpoints_on_dim_facets_are_not_vertices():
    """The 4-cross-polytope with vertices +-2 e_i and its 24 edge midpoints:
    a midpoint such as (1, 1, 0, 0) lies on 4 facets, as many as a vertex
    of R^4 does, but their normals have rank 3, so only the 8 tips are
    vertices."""
    verts, extra = _solid_points(4, False)
    mids = extra[:-2]
    pts = mids + verts
    facets, vertices = kernels.hull_facets(pts)
    assert len(mids) == 24 and len(facets) == 16
    assert all(sum(i in inc for _, _, inc in facets) == 4 for i in range(len(mids)))
    assert vertices == list(range(len(mids), len(pts)))
    assert vertices == rank_vertices(pts, facets)


@pytest.mark.parametrize("pts, expect", [
    ([(3,), (0,), (3,), (1,), (0,)], [0, 1]),
    ([(1, 1), (0, 0), (1, 0), (0, 0), (1, 1), (0, 1)], [0, 1, 2, 5]),
    ([(1, 1, 1), (0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 1, 0),
      (1, 0, 0), (0, 0, 1), (0, 0, 1)], [0, 1, 2, 4, 6]),
])
def test_repeated_points_are_reported_at_first_index(pts, expect):
    """A repeated extreme point is one vertex, reported at the first index
    it has; every copy stays incident to its facets."""
    facets, vertices = kernels.hull_facets(pts)
    assert vertices == expect
    for a, b, inc in facets:
        assert inc == tuple(i for i, p in enumerate(pts) if kernels.int_dot(a, p) == b)


@given(full_dim_clouds())
@settings(max_examples=60, deadline=None)
def test_affine_prefix_is_the_first_simplex(pts):
    """affine_prefix takes each point whose difference to the first raises
    the rank, and stops at dim + 1 points."""
    diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts]
    expect = [0]
    for i in range(1, len(pts)):
        if len(expect) <= len(pts[0]) and (
                sy_rank([diffs[j] for j in expect[1:]] + [diffs[i]]) == len(expect)):
            expect.append(i)
    assert kernels.affine_prefix(pts) == expect
