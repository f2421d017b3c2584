"""The integer kernels: circuits, canonical row bases and their garbage."""

import gc

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import simplicial_families
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
    assert kernels.hull_facets(pts) == kernels._scan_facets(pts)


def test_polygon_keeps_collinear_edge_points():
    pts = [(0, 0), (2, 0), (1, 0), (2, 2), (0, 2), (1, 1), (2, 1), (0, 0)]
    facets = kernels.hull_facets(pts)
    assert facets == kernels._scan_facets(pts)
    assert ((0, -1), 0, (0, 1, 2, 7)) in facets
