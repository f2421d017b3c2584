import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    frac_farkas,
    full_tableau_simplex,
    grid_rationals,
    lp_optimum_by_enumeration,
    lp_problem,
)
from shadowcover import lp
from shadowcover.lp import (
    Infeasible,
    LPProblem,
    Optimal,
    Unbounded,
    solve_lp,
    verify_outcome,
)

F = Fraction


def test_simple_maximum():
    out = solve_lp(lp_problem([1], [([1], 1)]))
    assert out == Optimal((F(1),), F(1))


def test_infeasible_with_exact_farkas():
    p = lp_problem([0], [([1], -1), ([-1], 0)])
    out = solve_lp(p)
    assert isinstance(out, Infeasible)
    assert out.multipliers == (F(1), F(1))
    assert verify_outcome(p, out)


def test_unbounded_returns_improving_ray():
    p = lp_problem([1, 0], [([0, 1], 5)])
    out = solve_lp(p)
    assert isinstance(out, Unbounded)
    assert verify_outcome(p, out)


def test_unbounded_along_slack_direction():
    # max -x with x <= -1, x free, y >= 0: phase 1 pivots x in, and the
    # improving phase-2 column is a slack; the ray is still an x-space vector
    p = lp_problem([-1, 0], [([1, 0], -1)], nonneg=[False, True])
    out = solve_lp(p)
    assert isinstance(out, Unbounded)
    assert verify_outcome(p, out)
    assert out.ray[0] < 0


def test_fuzz_unboxed_outcomes_verify():
    import random

    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 3)
        cons = [
            (tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-4, 4))
            for _ in range(rng.randint(0, 5))
        ]
        nonneg = tuple(rng.random() < 0.4 for _ in range(n))
        p = lp_problem(tuple(rng.randint(-3, 3) for _ in range(n)), cons, nonneg)
        out = solve_lp(p)
        assert verify_outcome(p, out)
        seen.add(type(out).__name__)
    assert seen == {"Optimal", "Infeasible", "Unbounded"}


def test_nonneg_flags_respected():
    # max -x with x >= 0 is 0 at x=0
    out = solve_lp(lp_problem([-1], [], nonneg=[True]))
    assert out == Optimal((F(0),), F(0))


def test_no_variables_feasible_and_infeasible():
    assert solve_lp(lp_problem([], [([], 3)])) == Optimal((), F(0))
    out = solve_lp(lp_problem([], [([], -2)]))
    assert isinstance(out, Infeasible)


def test_degenerate_equalities():
    # x <= 2 and -x <= -2 pins x = 2
    out = solve_lp(lp_problem([1], [([1], 2), ([-1], -2)]))
    assert out == Optimal((F(2),), F(2))


def test_octahedron_family_scaling_lp(octahedron):
    """maximise a s.t. a*h_S(u) + v.u <= h_L(u) over the size-4 family.

    Summing the four constraints with the dependency coefficients (all 1)
    kills v and forces 4a <= 4, so a <= 1; a=1, v=0 is feasible since
    h_S(u) = h_L(u) on the family.  The solver must hit exactly 1.
    """
    family = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    # S = hull of the four family-facet centroids of the octahedron
    s_verts = [tuple(F(x, 3) for x in u) for u in family]
    h_s = {u: max(sum(a * b for a, b in zip(v, u)) for v in s_verts) for u in family}
    h_l = {u: octahedron.support(u) for u in family}
    for u in family:
        assert h_s[u] == h_l[u] == 1
    cons = [((h_s[u],) + u, h_l[u]) for u in family]
    out = solve_lp(lp_problem([1, 0, 0, 0], cons, nonneg=[True, False, False, False]))
    assert isinstance(out, Optimal)
    assert out.point[0] == 1
    # grid corroboration: nothing with a >= 9/8 anywhere nearby is feasible
    for a in [F(9, 8), F(5, 4), F(2)]:
        for vx in grid_rationals(F(-1), F(1), 4):
            for vy in grid_rationals(F(-1), F(1), 4):
                for vz in grid_rationals(F(-1), F(1), 4):
                    x = (a, vx, vy, vz)
                    assert any(
                        sum(c * xi for c, xi in zip(row, x)) > rhs
                        for row, rhs in cons
                    )


small = st.integers(min_value=-5, max_value=5)


@st.composite
def boxed_lps(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 4))
    cons = [
        (tuple(draw(small) for _ in range(n)), draw(small)) for _ in range(m)
    ]
    # a box keeps everything bounded and pointed so the oracle applies
    for j in range(n):
        e = [0] * n
        e[j] = 1
        cons.append((tuple(e), 6))
        cons.append((tuple(-x for x in e), 6))
    objective = tuple(draw(small) for _ in range(n))
    return objective, cons


@given(boxed_lps())
@settings(max_examples=100, deadline=None)
def test_solver_agrees_with_enumeration_oracle(case):
    objective, cons = case
    p = lp_problem(objective, cons)
    out = solve_lp(p)
    assert verify_outcome(p, out)
    oracle = lp_optimum_by_enumeration(objective, cons)
    if isinstance(out, Optimal):
        assert oracle == out.value
    else:
        assert isinstance(out, Infeasible)
        assert oracle is None


@given(boxed_lps())
@settings(max_examples=40, deadline=None)
def test_determinism(case):
    p = lp_problem(*case)
    assert solve_lp(p) == solve_lp(p)


def test_problem_rejects_malformed_rows():
    for row in [((1,), 1, 0), ((1,), 1, -2), ((1, 2), 1, 1), ((), 1, 1)]:
        with pytest.raises(ValueError):
            LPProblem((F(0),), (row,))


small_q = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def infeasible_lps(draw):
    """Rational rows around a contradictory pair a.x <= b, -a.x <= -b - c
    with c > 0, and some variables sign-restricted."""
    n = draw(st.integers(0, 3))
    entry = st.one_of(small, small_q)
    rows = [
        (tuple(draw(entry) for _ in range(n)), draw(entry))
        for _ in range(draw(st.integers(0, 4)))
    ]
    a, b = tuple(draw(entry) for _ in range(n)), draw(entry)
    c = draw(st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4))
    rows.insert(draw(st.integers(0, len(rows))), (a, b))
    rows.append((tuple(-x for x in a), -b - c))
    return rows, tuple(draw(st.booleans()) for _ in range(n))


@given(infeasible_lps(), st.data())
@settings(max_examples=150, deadline=None)
def test_farkas_check_matches_fraction_oracle(case, data):
    """verify_outcome's integer Farkas sums agree with Fraction ones, on the
    solver's multipliers and on copies with one entry perturbed, zeroed or
    negated, or the last dropped."""
    rows, nonneg = case
    p = lp_problem([0] * len(nonneg), rows, nonneg)
    out = solve_lp(p)
    assert isinstance(out, Infeasible) and frac_farkas(rows, nonneg, out.multipliers)
    lam = list(out.multipliers)
    i = data.draw(st.integers(0, len(lam) - 1))
    delta = data.draw(small_q)
    changed = [lam[:i] + [x] + lam[i + 1 :] for x in (lam[i] + delta, F(0), -lam[i])]
    for m in changed + [lam[:-1]]:
        assert verify_outcome(p, Infeasible(tuple(m))) == frac_farkas(rows, nonneg, m)


def _pinned_lps():
    """500 seeded small LPs: free and sign-restricted variables, rational
    entries, negative right-hand sides (phase 1), repeated rows and
    equality pairs (degenerate pivots, leftover artificials), and boxes."""
    rng = random.Random(20261018)

    def entry():
        if rng.random() < 0.25:
            return F(rng.randint(-6, 6), rng.randint(1, 4))
        return F(rng.randint(-4, 4))

    for _ in range(500):
        n = rng.randint(1, 4)
        cons = []
        for _ in range(rng.randint(0, 6)):
            a = tuple(entry() for _ in range(n))
            b = entry() - (2 if rng.random() < 0.3 else 0)
            cons.append((a, b))
            if rng.random() < 0.2:
                cons.append((tuple(-x for x in a), -b))
            if rng.random() < 0.1:
                cons.append((a, b))
        if rng.random() < 0.4:
            for j in range(n):
                e = tuple(F(int(k == j)) for k in range(n))
                cons.append((e, F(rng.randint(0, 5))))
                cons.append((tuple(-x for x in e), F(rng.randint(-2, 5))))
        nonneg = tuple(rng.random() < 0.4 for _ in range(n))
        yield lp_problem(tuple(entry() for _ in range(n)), cons, nonneg)


def _canonical(out) -> str:
    if isinstance(out, Optimal):
        return f"O|{','.join(map(str, out.point))}|{out.value}"
    if isinstance(out, Infeasible):
        return f"I|{','.join(map(str, out.multipliers))}"
    return f"U|{','.join(map(str, out.ray))}"


def test_outcomes_pinned_to_rational_simplex():
    """Outcomes and witnesses of the fraction-free tableau, pinned by digest.

    The digest was recorded from the Fraction tableau it replaced, so any
    change in Bland's pivot sequence, ties included, shows up here.
    """
    outs = [_canonical(solve_lp(p)) for p in _pinned_lps()]
    assert [sum(s[0] == k for s in outs) for k in "OIU"] == [132, 228, 140]
    digest = hashlib.sha256("\n".join(outs).encode()).hexdigest()
    assert digest == (
        "d715e0732ae2c3ddafea3ea4e2ba9fa3642bf12ecbb4fb9e3e31df56b3cf66f2"
    )


def _contain_sized_lps():
    """300 seeded LPs of the containment tests' size: 3 to 5 free variables
    (and at times a sign-restricted one, as in max_scale), 18 to 26 rows
    around a rational point, many with a negative right-hand side, with
    repeated rows and equality pairs that leave artificials in the basis
    after phase 1, and some rows pushed past the point to make it
    infeasible."""
    rng = random.Random("contain-sized")
    for _ in range(300):
        n = rng.randint(3, 5)
        nonneg = (rng.random() < 0.5,) + (False,) * (n - 1)
        x0 = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        if nonneg[0]:
            x0[0] = abs(x0[0])
        rows = rng.randint(18, 26)
        cons = []
        while len(cons) < rows:
            a = tuple(rng.randint(-4, 4) for _ in range(n))
            b = sum((c * x for c, x in zip(a, x0)), F(0))
            cut = rng.random()
            if cut < 0.15:
                cons += [(a, b), (tuple(-c for c in a), -b)]
                continue
            b += F(rng.randint(-1 if cut < 0.25 else 0, 4), rng.randint(1, 3))
            cons.append((a, b))
            if rng.random() < 0.1:
                cons.append((a, b))
        objective = [rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(n)]
        yield lp_problem(objective, cons[:rows], nonneg)


def test_pivots_match_full_tableau(monkeypatch):
    """The compact tableau takes the full-width tableau's pivots, in order,
    and reaches its outcome, on the pinned small LPs and on containment-sized
    ones.  A pivot is (leaving row, label of the entering column)."""
    pivots = []
    pivot = lp._Tableau.pivot

    def recording(t, i, p):
        pivots.append((i, t.labels[p]))
        pivot(t, i, p)

    monkeypatch.setattr(lp._Tableau, "pivot", recording)
    kinds = []
    for case in (_pinned_lps, _contain_sized_lps):
        counts = {"O": 0, "I": 0, "U": 0}
        for p in case():
            pivots.clear()
            want, want_pivots = full_tableau_simplex(p)
            assert lp._simplex(p) == want
            assert pivots == want_pivots
            counts[type(want).__name__[0]] += 1
        kinds.append(counts)
    assert kinds[0] == {"O": 132, "I": 228, "U": 140}
    assert kinds[1]["O"] and kinds[1]["I"]
