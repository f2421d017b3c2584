import random
from fractions import Fraction

import pytest

from oracles import (
    embed,
    primitive,
    random_symmetric_polytope,
    simplicial_families,
    translate,
)
from shadowcover import reliability
from shadowcover.corpus import named, names, random_polytope
from shadowcover.kernels import int_rank
from shadowcover.linalg import integerize
from shadowcover.polytope import Polytope, apply_linear
from shadowcover.reliability import (
    SimplicialFamily,
    direction_set,
    facet_direction_set,
    family_valid,
    is_reliable,
    parallelotope_check,
    search_space,
)

F = Fraction


def test_antipodal_pair_is_simplicial():
    a = direction_set(2, [(1, 0), (-1, 0)])
    assert simplicial_families(a.directions, 2) == [((0, 1), (1, 1))]
    assert family_valid(a, SimplicialFamily((0, 1), (F(1), F(1))))


def test_pyramid_slant_triple():
    a = direction_set(3, [(1, 0, 1), (-1, 0, 1), (0, 0, -1)])
    fam = is_reliable(a, 1).certificate
    assert fam.members == (0, 1, 2)
    assert fam.coefficients == (1, 1, 2)


def test_zero_coefficient_dependency_rejected():
    a = direction_set(2, [(1, 0), (0, 1), (-1, 0)])
    assert is_reliable(a, 1).reliable
    assert not family_valid(a, SimplicialFamily((0, 1, 2), (F(1), F(0), F(1))))


def test_independent_set_rejected():
    a = direction_set(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert is_reliable(a, 1).reliable and is_reliable(a, 2).reliable
    assert not family_valid(a, SimplicialFamily((0, 1, 2), (F(1), F(1), F(1))))


def _smallest_family(a, d):
    """The certificate is_reliable promises, from the subset oracle: the
    smallest family of size >= d+2, ties broken on member indices."""
    fams = simplicial_families(a.directions, d + 2)
    return min(fams, key=lambda f: (len(f[0]), f[0]), default=None)


def _certificate_matches_oracle(a, d):
    verdict = is_reliable(a, d)
    expected = _smallest_family(a, d)
    if expected is None:
        return verdict.reliable and verdict.certificate is None
    fam = verdict.certificate
    return (
        not verdict.reliable
        and fam.members == expected[0]
        and primitive(fam.coefficients) == expected[1]
        and family_valid(a, fam)
    )


def test_enumerate_cube_normals_empty(cube3):
    a = facet_direction_set(cube3)
    assert simplicial_families(a.directions, 3) == []
    assert _certificate_matches_oracle(a, 1)


def test_enumerate_pyramid_families(pyramid):
    a = facet_direction_set(pyramid)
    fams = simplicial_families(a.directions, 3)
    assert [len(m) for m, _ in fams] == [3, 3]
    for members, coeffs in fams:
        assert family_valid(a, SimplicialFamily(members, coeffs))
    assert simplicial_families(a.directions, 4) == []
    assert _certificate_matches_oracle(a, 1)
    assert _certificate_matches_oracle(a, 2)


def test_enumerate_q_directions(q_directions):
    assert simplicial_families(q_directions.directions, 5) == []
    fams4 = simplicial_families(q_directions.directions, 4)
    assert fams4
    assert all(len(m) == 4 for m, _ in fams4)
    for members, coeffs in fams4:
        assert family_valid(q_directions, SimplicialFamily(members, coeffs))
    # the paper-style example family is among them
    wanted = {(1, 1, 0, 0), (0, 0, 1, 1), (-1, 0, 0, -1), (0, -1, -1, 0)}
    found = [
        {tuple(int(x) for x in q_directions.directions[i]) for i in members}
        for members, _ in fams4
    ]
    assert wanted in found
    for d in (1, 2, 3):
        assert _certificate_matches_oracle(q_directions, d)


def test_pyramid_reliability(pyramid):
    v1 = is_reliable(pyramid, 1)
    assert not v1.reliable and v1.certificate.size == 3
    assert family_valid(v1.directions, v1.certificate)
    assert is_reliable(pyramid, 2).reliable


def test_simplex_never_reliable():
    for n in (2, 3, 4):
        s = named(f"standard-simplex-{n}")
        for d in range(1, n):
            assert not is_reliable(s, d).reliable


def test_directions_input(q_directions):
    assert is_reliable(q_directions, 3).reliable
    v = is_reliable(q_directions, 2)
    assert not v.reliable and v.certificate.size == 4


def test_reliability_monotone_in_d():
    bodies = [
        named("square-pyramid"),
        named("octahedron"),
        named("hexagonal-prism"),
        random_polytope(5, 3, 7, 4),
        random_polytope(6, 4, 8, 3),
    ]
    for p in bodies:
        prev = False
        for d in range(1, p.dim):
            cur = is_reliable(p, d).reliable
            assert cur or not prev  # once reliable, stays reliable
            prev = cur


def test_scale_invariance_of_directions():
    a = direction_set(3, [(2, 0, 2), (-1, 0, 1), (0, 0, -5)])
    b = direction_set(3, [(1, 0, 1), (-3, 0, 3), (0, 0, -1)])
    va, vb = is_reliable(a, 1), is_reliable(b, 1)
    assert va.reliable == vb.reliable
    assert va.certificate.members == vb.certificate.members


def test_certificate_valid_on_unreduced_directions():
    # circuits are found on content-reduced directions; the coefficients must
    # still combine the directions as given
    a = direction_set(3, [(2, 0, 0), (0, 2, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)])
    v = is_reliable(a, 1)
    assert v.certificate.members == (0, 1, 2)
    assert v.certificate.coefficients == (F(1, 2), F(1, 2), F(1))
    assert family_valid(a, v.certificate)
    b = direction_set(2, [("1/2", 0), (0, "3/4"), (-1, -1)])
    assert family_valid(b, is_reliable(b, 1).certificate)
    assert _certificate_matches_oracle(b, 1)
    assert _certificate_matches_oracle(a, 1)
    assert a.integer_directions() == (
        (1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)
    )


def test_family_indices_must_be_in_range():
    from dataclasses import replace

    a = direction_set(3, [(2, 0, 0), (0, 2, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)])
    fam = is_reliable(a, 1).certificate
    assert family_valid(a, fam)
    n = len(a.directions)
    # negative indices would wrap onto the very same directions
    wrapped = replace(fam, members=tuple(i - n for i in fam.members))
    assert family_valid(a, wrapped) is False
    beyond = replace(fam, members=fam.members[:-1] + (99,))
    assert family_valid(a, beyond) is False


def test_positively_proportional_directions_rejected():
    with pytest.raises(ValueError):
        direction_set(2, [(1, 0), (2, 0)])


def test_d_range_validated(pyramid):
    with pytest.raises(ValueError):
        is_reliable(pyramid, 0)
    with pytest.raises(ValueError):
        is_reliable(pyramid, 3)


def test_parallelotope_examples(cube3, pyramid):
    assert parallelotope_check(cube3)
    assert parallelotope_check(named("sheared-box-3"))
    assert not parallelotope_check(pyramid)
    assert not parallelotope_check(named("octahedron"))
    assert not parallelotope_check(named("hexagonal-prism"))


def test_one_reliable_iff_parallelotope_oracle():
    bodies = [named(n) for n in (
        "cube-2", "cube-3", "cube-4", "sheared-box-2", "sheared-box-3",
        "square-pyramid", "octahedron", "hexagonal-prism", "triangular-prism",
        "standard-simplex-2", "standard-simplex-3", "standard-simplex-4",
        "cross-polytope-4",
    )]
    bodies += [random_polytope(s, 3, 7, 4) for s in range(5)]
    bodies += [random_symmetric_polytope(s, 3, 4, 3) for s in range(5)]
    for p in bodies:
        assert is_reliable(p, 1).reliable == parallelotope_check(p)


def test_reliability_survives_embedding(pyramid):
    e = embed(pyramid, 4)
    assert not is_reliable(e, 1).reliable
    assert is_reliable(e, 2).reliable
    assert is_reliable(e, 3).reliable


def test_reliability_invariant_under_linear_maps(pyramid):
    psi = [(1, 1, 0), (0, 1, 1), (0, 0, 1)]
    img = apply_linear(pyramid, psi)
    for d in (1, 2):
        assert is_reliable(img, d).reliable == is_reliable(pyramid, d).reliable


def test_search_space_counts():
    # families of size m span m-1 dimensions, so m <= rank+1
    assert search_space(12, 4, 5) == 792
    assert search_space(5, 3, 3) == 10 + 5


def _block_directions(rng, n, span):
    """Random directions in blocks of the first span coordinates, mixed by
    an invertible integer map (which keeps the normal components), with
    some antipodal pairs.  span < n gives a non-spanning set."""
    dirs = {}
    start = 0
    while start < span:
        k = rng.randint(1, min(3, span - start))
        block = []
        while len(block) < k + rng.randint(1, 2):
            u = [0] * n
            for i in range(start, start + k):
                u[i] = rng.randint(-2, 2)
            if any(u):
                block.append(tuple(u))
        if rng.random() < 0.5:
            block.append(tuple(-x for x in block[0]))
        for u in block:
            dirs.setdefault(integerize(u), u)
        start += k
    while True:
        mix = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
        if int_rank(mix) == n:
            break
    rows = [tuple(sum(m * x for m, x in zip(row, u)) for row in mix)
            for u in dirs.values()]
    rng.shuffle(rows)
    return direction_set(n, rows)


def _agrees_with_oracle_at_every_d(a):
    """is_reliable's verdict and certificate (members and coefficients) at
    every valid d are the subset oracle's smallest, first family."""
    fams = simplicial_families(a.directions, 3)
    for d in range(1, a.dim):
        expected = min((f for f in fams if len(f[0]) >= d + 2),
                       key=lambda f: (len(f[0]), f[0]), default=None)
        verdict = is_reliable(a, d)
        if expected is None:
            assert verdict.reliable and verdict.certificate is None, d
            continue
        fam = verdict.certificate
        assert not verdict.reliable, d
        assert (fam.members, primitive(fam.coefficients)) == expected, d
        assert family_valid(a, fam)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_component_search_matches_oracle_on_block_sets(n):
    rng = random.Random(f"blocks-{n}")
    for _ in range(3):
        a = _block_directions(rng, n, n)
        assert a.dim == n and int_rank(a.integer_directions()) == n
        _agrees_with_oracle_at_every_d(a)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_component_search_matches_oracle_on_non_spanning_sets(n):
    rng = random.Random(f"flat-blocks-{n}")
    for _ in range(2):
        a = _block_directions(rng, n, rng.randint(1, n - 1))
        assert int_rank(a.integer_directions()) < n
        _agrees_with_oracle_at_every_d(a)


def test_component_search_matches_oracle_on_antipodal_pairs():
    # three antipodal pairs (components of rank 1) and a square's normals
    a = direction_set(4, [(0, 0, 1, 0), (1, 0, 0, 0), (0, 0, -1, 0), (0, 1, 0, 0),
                          (0, 0, 0, 1), (-1, 0, 0, 0), (0, 0, 0, -1), (0, -1, 0, 0)])
    _agrees_with_oracle_at_every_d(a)
    # the pairs of a cross-polytope-like set, tied into one component
    b = direction_set(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 1),
                          (-1, -1, -1), (0, 0, 1)])
    _agrees_with_oracle_at_every_d(b)


def test_certificate_is_least_over_components():
    # a simplex's normals in R^3 (one family, of size 4) come first, but the
    # triangle's normals in the last two coordinates hold a smaller family
    a = direction_set(5, [(-1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (0, -1, 0, 0, 0),
                          (0, 0, 0, 0, 1), (0, 0, -1, 0, 0), (0, 0, 0, -1, -1),
                          (1, 1, 1, 0, 0)])
    assert is_reliable(a, 1).certificate.members == (1, 3, 5)
    assert is_reliable(a, 2).certificate.members == (0, 2, 4, 6)
    _agrees_with_oracle_at_every_d(a)
    # the first component {0, 4, 5, 6, 7} holds 0 in no positive circuit, so
    # the later triangle {1, 2, 3} has the lexicographically first family
    b = direction_set(5, [(1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1),
                          (0, 0, 0, -1, -1), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                          (0, -1, -1, 0, 0), (1, 1, 0, 0, 0)])
    assert reliability._components(b.integer_directions())[0][0] == (0, 4, 5, 6, 7)
    assert is_reliable(b, 1).certificate.members == (1, 2, 3)
    _agrees_with_oracle_at_every_d(b)


def test_component_search_matches_oracle_on_flat_hexagon():
    flat = translate(
        apply_linear(embed(named("hexagon"), 3), [[1, 0, 0], [0, 1, 0], [1, 2, 1]]),
        [0, 0, Fraction(1, 2)],
    )
    assert flat.affine_dim == 2
    _agrees_with_oracle_at_every_d(facet_direction_set(flat))


@pytest.mark.parametrize("name", names())
def test_component_search_matches_oracle_on_corpus(name):
    body = named(name)
    a = facet_direction_set(body) if isinstance(body, Polytope) else body
    _agrees_with_oracle_at_every_d(a)


def _polygon_sum(order):
    """The normals of three polygons in coordinate blocks of R^6, listed in
    the given order; returns the direction set and each block's rows."""
    polygons = [named(n) for n in ("hexagon", "cube-2", "standard-simplex-2")]
    blocks = [
        [(0,) * (2 * i) + a + (0,) * (4 - 2 * i) for a, _, _ in p.int_facets]
        for i, p in enumerate(polygons)
    ]
    rows = [u for block in blocks for u in block]
    return direction_set(6, [rows[i] for i in order]), blocks


def test_search_runs_only_on_components_of_high_rank(monkeypatch):
    calls = []
    real = reliability.circuits

    def recording(vectors, min_size, max_size):
        calls.append(list(vectors))
        return real(vectors, min_size, max_size)

    monkeypatch.setattr(reliability, "circuits", recording)
    order = list(range(13))
    random.Random("polygon-sum").shuffle(order)
    a, blocks = _polygon_sum(order)
    # every component has rank 2, so none can hold a family of size 4
    assert is_reliable(a, 2).reliable
    assert calls == []
    v = is_reliable(a, 1)
    assert not v.reliable and family_valid(a, v.certificate)
    assert v.certificate.members == _smallest_family(a, 1)[0]
    assert calls
    dirs = a.integer_directions()
    for rows in calls:
        # one block's rows, in increasing index order
        block = next(b for b in blocks if rows[0] in b)
        assert rows == [u for u in dirs if u in block]
