from fractions import Fraction

import pytest

from oracles import primitive, simplicial_families
from shadowcover.corpus import named, random_polytope, random_symmetric_polytope
from shadowcover.polytope import apply_linear, embed
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
