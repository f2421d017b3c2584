import hashlib
import random
from fractions import Fraction

import pytest

from oracles import circuit_components, random_symmetric_polytope, sy_inverse, transpose
from shadowcover.corpus import named, random_polytope
from shadowcover.decomposability import extract_factors, is_decomposable
from shadowcover.kernels import int_rank
from shadowcover.linalg import integerize, matrix
from shadowcover.polytope import (
    apply_linear,
    direct_sum_assemble,
    hull_from_vertices,
    subspace,
    translate_of,
)
from shadowcover.reliability import direction_set, facet_direction_set, is_reliable

F = Fraction


def spans_as_sets(subspaces):
    # compare subspaces by their row spaces: frozenset of echelon rows
    out = set()
    for sp in subspaces:
        rows = tuple(sorted(tuple(integerize(r)) for r in sp.basis))
        out.add(rows)
    return out


def component_spaces(a):
    return [c.subspace for c in is_decomposable(a, 1)[1].components]


def members_of(a):
    return sorted(tuple(c.members) for c in is_decomposable(a, 1)[1].components)


def test_axes_give_lines():
    a = direction_set(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                          (0, 0, 1), (0, 0, -1)])
    comps = component_spaces(a)
    assert sorted(sp.dim for sp in comps) == [1, 1, 1]


def test_prism_normals_split(cube3):
    prism = named("triangular-prism")
    a = facet_direction_set(prism)
    comps = component_spaces(a)
    assert sorted(sp.dim for sp in comps) == [1, 2]


def test_q_is_one_component(q_directions):
    comps = component_spaces(q_directions)
    assert [sp.dim for sp in comps] == [4]
    assert members_of(q_directions) == circuit_components(q_directions.directions)


def test_components_match_circuit_oracle():
    cases = [
        facet_direction_set(named("hexagonal-prism")),
        facet_direction_set(named("square-pyramid")),
        facet_direction_set(named("octahedron")),
        facet_direction_set(named("cube-4")),
        facet_direction_set(random_symmetric_polytope(1, 3, 4, 3)),
        facet_direction_set(random_symmetric_polytope(2, 4, 5, 2)),
        named("q-directions"),
    ]
    for a in cases:
        assert members_of(a) == circuit_components(a.directions)


def test_component_order_invariant_under_permutation():
    prism = named("hexagonal-prism")
    a = facet_direction_set(prism)
    rev = direction_set(a.dim, list(reversed(a.directions)))
    assert spans_as_sets(component_spaces(a)) == spans_as_sets(component_spaces(rev))


def test_nonspanning_rejected():
    with pytest.raises(ValueError):
        component_spaces(direction_set(3, [(1, 0, 0), (-1, 0, 0)]))


def test_decomposability_verdicts(pyramid, cube3, q_directions):
    assert is_decomposable(cube3, 1)[0]
    assert not is_decomposable(pyramid, 2)[0]
    assert not is_decomposable(q_directions, 3)[0]
    ok, report = is_decomposable(named("hexagonal-prism"), 2)
    assert ok and sorted(report.dims()) == [1, 2]


@pytest.mark.parametrize("d", [0, -3])
def test_decomposability_rejects_nonpositive_d(cube3, q_directions, d):
    for body in (cube3, q_directions):
        with pytest.raises(ValueError, match="d >= 1"):
            is_decomposable(body, d)


def test_extract_factors_cube(cube3):
    comps = component_spaces(facet_direction_set(cube3))
    factors = extract_factors(cube3, comps)
    assert [f.affine_dim for _, f in factors] == [1, 1, 1]
    rebuilt = direct_sum_assemble(factors)
    assert translate_of(rebuilt, cube3) is not None


def test_extract_factors_prism():
    prism = named("triangular-prism")
    comps = component_spaces(facet_direction_set(prism))
    factors = extract_factors(prism, comps)
    assert sorted(f.affine_dim for _, f in factors) == [1, 2]


def test_extract_factors_sheared_box():
    sheared = named("sheared-box-3")
    comps = component_spaces(facet_direction_set(sheared))
    factors = extract_factors(sheared, comps)
    assert [f.affine_dim for _, f in factors] == [1, 1, 1]
    rebuilt = direct_sum_assemble(factors)
    assert translate_of(rebuilt, sheared) is not None


def test_extract_factors_sheared_prism():
    prism = named("hexagonal-prism")
    sheared = apply_linear(prism, [(1, 0, 1), (0, 1, 0), (0, 0, 1)])
    comps = component_spaces(facet_direction_set(sheared))
    factors = extract_factors(sheared, comps)
    assert sorted(f.affine_dim for _, f in factors) == [1, 2]
    rebuilt = direct_sum_assemble(factors)
    assert translate_of(rebuilt, sheared) is not None


@pytest.mark.parametrize("name", ["square-pyramid", "octahedron"])
def test_extract_factors_refuses_a_wrong_split(name):
    # neither body is the sum of a polygon and a vertical segment
    axis_split = [subspace(3, [(1, 0, 0), (0, 1, 0)]), subspace(3, [(0, 0, 1)])]
    with pytest.raises(RuntimeError, match="reconstruction"):
        extract_factors(named(name), axis_split)


_SPLIT_SIZES = {
    3: [(1, 2), (1, 1, 1)],
    4: [(2, 2), (1, 3), (1, 1, 2)],
    5: [(2, 3), (1, 1, 3), (1, 2, 2)],
}


def _pinned_direct_sum_case(seed):
    """Seeded factors over a non-orthogonal integer basis of R^3-R^5, and
    integer bases of the normal components that split their direct sum."""
    rng = random.Random(f"direct-sum-pin:{seed}")
    n = rng.choice((3, 4, 5))
    sizes = rng.choice(_SPLIT_SIZES[n])
    while True:
        rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
        if int_rank(rows) == n:
            break
    # row block i of (N^T)^-1 annihilates every factor subspace but the i-th
    dual = sy_inverse(transpose(matrix(rows)))
    parts, components = [], []
    start = 0
    for size in sizes:
        kind = rng.choice(("point", "segment", "body", "body"))
        if kind == "point":
            factor = hull_from_vertices([[rng.randint(-2, 2) for _ in range(size)]])
        elif kind == "segment":
            a = [rng.randint(-2, 2) for _ in range(size)]
            b = [x + rng.randint(1, 3) for x in a]
            factor = hull_from_vertices([a, b])
        else:
            factor = random_polytope(rng.randint(0, 10**6), size, size + 1, 3)
        parts.append((subspace(n, rows[start:start + size]), factor))
        block = [integerize(r) for r in dual[start:start + size]]
        if size > 1:
            # the same span, a basis that is not the dual one
            block[1] = tuple(a + 2 * b for a, b in zip(block[1], block[0]))
        components.append(subspace(n, block))
        start += size
    return parts, components


def test_extract_factors_pinned_by_digest():
    """Factors and factor subspaces of 30 seeded direct sums, and the sums
    of three parts, pinned by a digest recorded while extraction still
    re-hulled the whole sum."""
    lines = []
    for seed in range(30):
        parts, components = _pinned_direct_sum_case(seed)
        body = direct_sum_assemble(parts)
        if len(parts) >= 3:
            lines.append(repr(body))
        factors = extract_factors(body, components)
        assert direct_sum_assemble(factors) == body
        lines.append(repr(factors))
    assert len(lines) == 30 + 11
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c23180d381e842a73632382f09c13f6d8d64e41bdbb0a96f4261105b75612554"
    )


def test_cross_check_2iff2_named():
    """2-reliability agrees with 2-decomposability on centrally symmetric
    bodies."""
    corpus = [
        named("cube-3"),
        named("hexagonal-prism"),
        named("octahedron"),
        named("rhombic-dodecahedron"),
        named("cross-polytope-4"),
        named("cube-4"),
        random_symmetric_polytope(3, 3, 4, 3),
        random_symmetric_polytope(4, 3, 5, 2),
    ]
    entries = [(is_reliable(p, 2).reliable, is_decomposable(p, 2)[0]) for p in corpus]
    assert all(r == d for r, d in entries)
    # prisms and cubes land on (True, True); the octahedron and the rhombic
    # dodecahedron carry simplicial 4-families, so both sides are False
    assert entries[:4] == [(True, True), (True, True), (False, False), (False, False)]


def test_decomposable_implies_reliable_regressions(pyramid, q_directions):
    # reliability can exceed decomposability, never the reverse
    assert is_reliable(pyramid, 2).reliable
    assert not is_decomposable(pyramid, 2)[0]
    assert is_reliable(q_directions, 3).reliable
    assert not is_decomposable(q_directions, 3)[0]
