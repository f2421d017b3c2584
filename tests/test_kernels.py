"""The integer kernels: circuits, canonical row bases and their garbage."""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

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
    found = kernels.circuits(vecs, 2, 3, positive_only=True)
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


def test_circuits_leave_no_garbage():
    vecs = [(1, 0, 2), (0, 1, -1), (-1, -1, -1), (1, 1, 0), (-1, 0, 3)]
    gc.collect()
    gc.disable()
    try:
        kernels.circuits(vecs, 2, 4)
        kernels.circuits(vecs, 2, 4, positive_only=True, limit=1)
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
