"""The integer witness checks against their direct Fraction forms.

``contains_point``, ``fits_exactly`` and the LP's ``_feasible`` run in
integers; ``tests/oracles.py`` keeps the Fraction substitutions they
replaced.  Bodies of every affine dimension are drawn, points and bodies
included, and dilated by ``scale_polytope`` so that the integers it
computes are exercised as well as the hull's.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    embed,
    frac_contains_point,
    frac_feasible,
    frac_fits_exactly,
    lp_problem,
    translate,
)
from shadowcover import containment, lp
from shadowcover.containment import SubspaceSampler, fits_exactly
from shadowcover.corpus import named
from shadowcover.linalg import dot, integerize, sub, to_ints, vector
from shadowcover.polytope import (
    contains_point,
    hull_from_vertices,
    project,
    scale_polytope,
    subspace,
)

F = Fraction
VIEWS = {"vertices", "facets", "affine_basis"}
small_q = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
positive_q = st.builds(F, st.integers(1, 5), st.integers(1, 4))


def rational_vectors(n):
    return st.lists(small_q, min_size=n, max_size=n)


@st.composite
def bodies(draw, n):
    """A rational body in R^n of any affine dimension from 0 to n: points
    o + sum c_j d_j over k integer directions d_j, hulled, then perhaps
    dilated."""
    k = draw(st.one_of(st.just(n), st.integers(0, n)))
    origin = draw(rational_vectors(n))
    dirs = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            for _ in range(k)]
    pts = []
    for _ in range(draw(st.integers(k + 1, k + 4))):
        cs = draw(st.lists(small_q, min_size=k, max_size=k))
        pts.append([o + sum((c * d[j] for c, d in zip(cs, dirs)), F(0))
                    for j, o in enumerate(origin)])
    return dilated(draw, hull_from_vertices(pts))


def dilated(draw, p):
    if draw(st.booleans()):
        p = scale_polytope(p, draw(positive_q))
    return p


@st.composite
def inner_points(draw, l):
    """A convex combination of L's vertices: a point of L."""
    weights = draw(st.lists(st.integers(0, 3), min_size=len(l.vertices),
                            max_size=len(l.vertices)))
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    return tuple(
        sum((F(w, total) * v[j] for w, v in zip(weights, l.vertices)), F(0))
        for j in range(l.dim)
    )


@st.composite
def pairs(draw):
    """(K, L, v): K inside L moved by -w with v = w or near it, or K, L and
    v drawn independently."""
    n = draw(st.integers(1, 4))
    l = draw(bodies(n))
    if draw(st.booleans()):
        k = hull_from_vertices(
            [draw(inner_points(l)) for _ in range(draw(st.integers(1, 5)))]
        )
        w = draw(rational_vectors(n))
        k = translate(k, [-x for x in w])
        if draw(st.booleans()):
            w = [x + draw(st.sampled_from([F(0), F(1, 7), F(-1, 3)])) for x in w]
        return k, l, tuple(w)
    k = draw(bodies(n))
    v = draw(st.one_of(
        rational_vectors(n),
        st.just(sub(l.vertices[0], k.vertices[-1])),
    ))
    return k, l, tuple(v)


@given(pairs())
@settings(max_examples=400, deadline=None)
def test_fits_exactly_matches_fraction_oracle(case):
    k, l, v = case
    assert fits_exactly(k, l, v) == frac_fits_exactly(k, l, v)


@st.composite
def bodies_and_points(draw):
    n = draw(st.integers(1, 4))
    p = draw(bodies(n))
    x = draw(st.one_of(
        inner_points(p),
        rational_vectors(n),
        st.sampled_from(p.vertices),
    ))
    if draw(st.booleans()):
        x = [c + draw(st.sampled_from([F(0), F(1, 5), F(-1, 2)])) for c in x]
    return p, tuple(x)


@given(bodies_and_points())
@settings(max_examples=400, deadline=None)
def test_contains_point_matches_fraction_oracle(case):
    p, x = case
    assert contains_point(p, x) == frac_contains_point(p, x)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_stored_integers_match_views(data):
    """The integers that hulls, projections and scale_polytope store, also
    on zero-padded embeddings, equal the ones derived from the Fraction
    views: the vertices over their least common denominator, which is then
    coprime to the numerators, and each facet's integer normal and offset in
    lowest terms.  Every such body is the hull of its vertices."""
    n = data.draw(st.integers(1, 4))
    p = data.draw(bodies(n))
    if n > 1 and data.draw(st.booleans()):
        rows = data.draw(st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            min_size=1, max_size=n - 1,
        ))
        try:
            xi = subspace(n, rows)
        except ValueError:  # dependent rows
            xi = None
        if xi is not None:
            p = dilated(data.draw, project(p, xi))
    if data.draw(st.booleans()):
        p = dilated(data.draw, embed(p, p.dim + data.draw(st.integers(1, 2))))
    nums, den = p.int_vertices
    assert den > 0 and gcd(den, *[x for v in nums for x in v]) == 1
    assert to_ints(p.vertices) == (nums, den)
    assert len(p.int_facets) == len(p.facets) == len(p.incidences)
    for (a, bn, bd), f, inc in zip(p.int_facets, p.facets, p.incidences):
        assert all(x.denominator == 1 for x in f.normal)
        assert a == integerize(f.normal) == tuple(f.normal)
        assert (bn, bd) == (f.offset.numerator, f.offset.denominator)
        assert inc == f.incident
    assert p.int_basis == tuple(integerize(r) for r in p.affine_basis)
    assert hull_from_vertices(p.vertices) == p


def test_fits_on_full_dimensional_shadows_build_no_views(monkeypatch):
    """translate_fit, fitting or not, and max_scale on full-dimensional
    shadows read only the integer form: no vertices, facets or affine_basis
    view is built on K, on L or on the scaled K that max_scale re-checks."""
    scaled = []

    def recording_scale(k, c):
        scaled.append(scale_polytope(k, c))
        return scaled[-1]

    monkeypatch.setattr(containment, "scale_polytope", recording_scale)
    cube, octahedron = named("cube-3"), named("octahedron")
    big = scale_polytope(cube, 3)
    stream = SubspaceSampler(4, 2).stream(3)
    outcomes = set()
    for _ in range(10):
        xi = next(stream)
        k, l, small = project(octahedron, xi), project(big, xi), project(cube, xi)
        shadows = (k, l, small)
        assert all(s.is_full_dimensional for s in shadows)
        outcomes.add(containment.translate_fit(k, l).fits)
        outcomes.add(containment.translate_fit(l, small).fits)
        containment.max_scale(k, l)
        for body in shadows + tuple(scaled):
            assert not VIEWS & vars(body).keys()
    assert outcomes == {True, False} and len(scaled) == 10


lp_entries = st.one_of(st.integers(-5, 5), small_q)


@st.composite
def lp_cases(draw):
    """An LP and a rational x, with some rows tight at x or orthogonal to it,
    so that points and rays land on both sides of the boundary."""
    nv = draw(st.integers(0, 4))
    x = tuple(draw(rational_vectors(nv)))
    cons = []
    for _ in range(draw(st.integers(0, 5))):
        a = draw(st.lists(lp_entries, min_size=nv, max_size=nv))
        kind = draw(st.sampled_from(["free", "tight", "ray"]))
        if kind == "ray" and any(x):
            # a minus its component along x: a.x = 0
            xx, ax = dot(x, x), dot(vector(a), x)
            a = [c * xx - ax * xi for c, xi in zip(a, x)]
        if kind == "free":
            b = draw(lp_entries)
        else:
            b = dot(vector(a), x) + draw(st.sampled_from([F(0), F(1, 3), F(-1, 2)]))
        cons.append((tuple(a), b))
    nonneg = tuple(draw(st.lists(st.booleans(), min_size=nv, max_size=nv)))
    return lp_problem([0] * nv, cons, nonneg), cons, x


@given(lp_cases())
@settings(max_examples=400, deadline=None)
def test_lp_feasible_matches_fraction_oracle(case):
    p, cons, x = case
    for ray in (False, True):
        assert lp._feasible(p, x, ray) == frac_feasible(cons, p.nonneg, x, ray)
