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


def _agrees_with_oracle(a, d):
    """is_reliable(a, d) against the subset oracle: reliable exactly when
    the oracle finds no family of size >= d+2; otherwise the certificate is
    an oracle family (members and coefficients) of size >= d+2, from the
    first normal component, by first member, that holds one."""
    verdict = is_reliable(a, d)
    if verdict.reliable:
        assert verdict.certificate is None, d
        assert simplicial_families(a.directions, d + 2) == [], d
        return
    fam = verdict.certificate
    k = fam.size
    assert k >= d + 2 and family_valid(a, fam), d
    on_members = simplicial_families([a.directions[i] for i in fam.members], k)
    assert on_members == [(tuple(range(k)), primitive(fam.coefficients))], d
    for members, _ in reliability._components(a.integer_directions()):
        if fam.members[0] in members:
            assert set(fam.members) <= set(members), d
            break
        on_component = [a.directions[i] for i in members]
        assert simplicial_families(on_component, d + 2) == [], d


def _agrees_with_oracle_at_every_d(a):
    for d in range(1, a.dim):
        _agrees_with_oracle(a, d)


def test_enumerate_cube_normals_empty(cube3):
    a = facet_direction_set(cube3)
    assert simplicial_families(a.directions, 3) == []
    _agrees_with_oracle(a, 1)


def test_enumerate_pyramid_families(pyramid):
    a = facet_direction_set(pyramid)
    fams = simplicial_families(a.directions, 3)
    assert [len(m) for m, _ in fams] == [3, 3]
    for members, coeffs in fams:
        assert family_valid(a, SimplicialFamily(members, coeffs))
    assert simplicial_families(a.directions, 4) == []
    _agrees_with_oracle_at_every_d(a)


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
    _agrees_with_oracle_at_every_d(q_directions)


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
    _agrees_with_oracle(b, 1)
    _agrees_with_oracle(a, 1)
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


def test_certificate_comes_from_first_component_holding_one():
    # a simplex's normals in R^3 (one family, of size 4) come first, so they
    # certify d = 1 as well, although the triangle's normals in the last two
    # coordinates hold a smaller family
    a = direction_set(5, [(-1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (0, -1, 0, 0, 0),
                          (0, 0, 0, 0, 1), (0, 0, -1, 0, 0), (0, 0, 0, -1, -1),
                          (1, 1, 1, 0, 0)])
    assert is_reliable(a, 1).certificate.members == (0, 2, 4, 6)
    assert is_reliable(a, 2).certificate.members == (0, 2, 4, 6)
    _agrees_with_oracle_at_every_d(a)
    # the first component {0, 4, 5, 6, 7} holds 0 in no positive circuit, but
    # it holds a family, which comes before the later triangle {1, 2, 3}
    b = direction_set(5, [(1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1),
                          (0, 0, 0, -1, -1), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                          (0, -1, -1, 0, 0), (1, 1, 0, 0, 0)])
    assert reliability._components(b.integer_directions())[0][0] == (0, 4, 5, 6, 7)
    assert is_reliable(b, 1).certificate.members == (4, 5, 6)
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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_component_search_matches_oracle_on_random_bodies(n):
    for seed in range(10):
        _agrees_with_oracle_at_every_d(
            facet_direction_set(random_polytope(seed, n, n + 4, 3))
        )


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
    assert not is_reliable(a, 1).reliable
    assert 1 <= len(calls) <= len(blocks)
    dirs = a.integer_directions()
    for rows in calls:
        # one block's rows, in increasing index order
        block = next(b for b in blocks if rows[0] in b)
        assert rows == [u for u in dirs if u in block]
    _agrees_with_oracle(a, 1)


@pytest.mark.parametrize("args", [(2, 5, 12, 3), (3, 5, 18, 4)])
def test_hull_scale_search_makes_one_call_per_component(monkeypatch, args):
    """The facet normals of hulls with 63 and 126 facets in R^5: every d is
    decided by at most one search per component of rank >= d+1, and the
    first family it meets is the certificate."""
    calls = []
    real = reliability.circuits

    def counting(vectors, min_size, max_size):
        calls.append(min_size)
        return real(vectors, min_size, max_size)

    monkeypatch.setattr(reliability, "circuits", counting)
    a = facet_direction_set(random_polytope(*args))
    ranks = [len(basis) for _, basis in reliability._components(a.integer_directions())]
    for d in range(1, a.dim):
        calls.clear()
        v = is_reliable(a, d)
        assert not v.reliable and v.certificate.size >= d + 2, d
        assert family_valid(a, v.certificate), d
        assert len(calls) <= sum(r > d for r in ranks), d
