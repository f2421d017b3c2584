"""Integer kernels: the hot inner loops of the library, in pure Python.

Everything here works on plain integer tuples/lists.  Callers scale rational
data to integers first; rank, nullspaces, row spaces, circuits and facet
scans are all invariant under that scaling.  All functions are pure and
deterministic.
"""

from itertools import combinations
from math import gcd, lcm


def _content(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    return g


def _reduce_row(row):
    g = _content(row)
    if g > 1:
        return [x // g for x in row]
    return row


def _eliminate(rows, full):
    """Fraction-free Gaussian elimination with content-reduced rows.

    Returns (m, pivots): the reduced rows, the first len(pivots) of which
    are the pivot rows, and their pivot columns.  With full, each pivot
    clears its column in every other row (reduced echelon form); otherwise
    only in the rows below it, which is enough for the rank.
    """
    m = [list(r) for r in rows if any(r)]
    pivots = []
    if not m:
        return m, pivots
    rank = 0
    for col in range(len(m[0])):
        piv = -1
        for i in range(rank, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        pval = prow[col]
        for i in range(0 if full else rank + 1, len(m)):
            v = m[i][col]
            if v and i != rank:
                row = m[i]
                m[i] = _reduce_row([pval * a - v * b for a, b in zip(row, prow)])
        pivots.append(col)
        rank += 1
        if rank == len(m):
            break
    return m, pivots


def int_rank(rows):
    """Rank of an integer matrix, by fraction-free Gaussian elimination."""
    return len(_eliminate(rows, False)[1])


def int_echelon(rows):
    """Canonical integer basis of a row space (reduced echelon form).

    Full elimination with content-reduced rows and positive pivots, so the
    output depends only on the row space, not on the order or scaling of the
    input rows.
    """
    m, pivots = _eliminate(rows, True)
    out = []
    for r, col in enumerate(pivots):
        row = m[r]
        if row[col] < 0:
            row = [-x for x in row]
        out.append(tuple(_reduce_row(row)))
    return out


def int_nullspace(rows, ncols):
    """Basis of {x : M x = 0} for an integer matrix M with `ncols` columns.

    Returns content-reduced integer vectors, one per free column of the
    reduced echelon form, in increasing free-column order.
    """
    m, pivots = _eliminate(rows, True)
    pivot_cols = set(pivots)
    denom = 1
    for r, c in enumerate(pivots):
        denom = lcm(denom, abs(m[r][c]))
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [0] * ncols
        vec[free] = denom
        for r, c in enumerate(pivots):
            vec[c] = -m[r][free] * (denom // m[r][c])
        basis.append(tuple(_reduce_row(vec)))
    return basis


def circuits(vectors, min_size, max_size, positive_only=False, limit=0):
    """Minimal linear dependencies (circuits) among integer vectors.

    A circuit is a dependent index set all of whose proper subsets are
    independent; its dependency coefficients are unique up to scale.  Only
    circuits with min_size <= size <= max_size are reported, as
    (member index tuple, integer coefficient tuple) pairs in lexicographic
    member order.  With positive_only, keep just the circuits whose
    coefficients can be signed all-positive (returned positive); otherwise
    coefficients are normalised so the first one is positive.  A nonzero
    `limit` stops the search after that many hits.

    DFS over increasing independent prefixes; the elimination is augmented
    with combination bookkeeping (rows remember how they were built from the
    chosen vectors), so dependency coefficients fall out of the reduction
    with no extra solve.  Invariant while reducing a candidate v: s*v equals
    w plus the combination of chosen vectors with coefficients wc.
    """
    nvec = len(vectors)
    if nvec == 0:
        return []
    dim = len(vectors[0])
    prefix_cap = min(max_size - 1, dim)
    out = []
    # explicit DFS stack of [next candidate, chosen prefix, prefix echelon]
    stack = [[0, (), []]]
    while stack:
        frame = stack[-1]
        j, chosen, echelon = frame
        if j == nvec:
            stack.pop()
            continue
        frame[0] = j + 1
        k = len(chosen)
        w = list(vectors[j])
        wc = [0] * k
        s = 1
        for prow, pcol, pcombo in echelon:
            x = w[pcol]
            if x:
                pv = prow[pcol]
                w = [pv * a - x * b for a, b in zip(w, prow)]
                np = len(pcombo)
                for idx in range(np):
                    wc[idx] = pv * wc[idx] + x * pcombo[idx]
                for idx in range(np, k):
                    wc[idx] = pv * wc[idx]
                s = pv * s
        pcol = -1
        for idx in range(dim):
            if w[idx]:
                pcol = idx
                break
        if pcol < 0:
            # dependent: sum(wc[i]*u_chosen[i]) - s*v_j = 0
            size = k + 1
            if min_size <= size <= max_size and all(wc):
                coeffs = wc + [-s]
                g = _content(coeffs)
                if g > 1:
                    coeffs = [c // g for c in coeffs]
                if positive_only:
                    if coeffs[-1] < 0:
                        coeffs = [-c for c in coeffs]
                    if all(c > 0 for c in coeffs):
                        out.append((chosen + (j,), tuple(coeffs)))
                        if limit and len(out) >= limit:
                            return out
                else:
                    for c in coeffs:
                        if c:
                            if c < 0:
                                coeffs = [-x for x in coeffs]
                            break
                    out.append((chosen + (j,), tuple(coeffs)))
                    if limit and len(out) >= limit:
                        return out
        elif k + 1 <= prefix_cap:
            combo = [-c for c in wc] + [s]
            g = _content(w + combo)
            if g > 1:
                w = [y // g for y in w]
                combo = [c // g for c in combo]
            stack.append([j + 1, chosen + (j,), echelon + [(w, pcol, combo)]])
    return out


def _det(m):
    """Determinant of a small square integer matrix (Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    m = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swapped = False
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    swapped = True
                    break
            if not swapped:
                return 0
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row = m[i]
            prow = m[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pkk - mik * prow[j]) // prev
            row[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]


def cross_rows(rows, dim):
    """Generalised cross product of dim-1 integer row vectors in R^dim.

    The result is orthogonal to every row; it is the zero vector exactly when
    the rows are dependent.  For dim == 1 (no rows) the result is (1,).
    """
    if dim == 1:
        return (1,)
    res = []
    sign = 1
    for k in range(dim):
        minor = [[r[c] for c in range(dim) if c != k] for r in rows]
        res.append(sign * _det(minor))
        sign = -sign
    return tuple(res)


def hull_facets(points):
    """Facets of the convex hull of full-dimensional integer points.

    Brute force: every point subset of size dim spanning a hyperplane is a
    candidate; a candidate survives when all points lie weakly on one side.
    Returns (outward content-reduced normal, offset, incident point indices)
    triples, sorted; cost is C(V, dim) * V dot products.
    """
    npts = len(points)
    dim = len(points[0])
    found = {}
    for subset in combinations(range(npts), dim):
        base = points[subset[0]]
        diffs = [[points[i][k] - base[k] for k in range(dim)] for i in subset[1:]]
        nrm = cross_rows(diffs, dim)
        if not any(nrm):
            continue
        g = _content(nrm)
        if g > 1:
            nrm = tuple(x // g for x in nrm)
        b = 0
        for k in range(dim):
            b += nrm[k] * base[k]
        haspos = hasneg = False
        sides = []
        for p in points:
            s = -b
            for k in range(dim):
                s += nrm[k] * p[k]
            sides.append(s)
            if s > 0:
                haspos = True
            elif s < 0:
                hasneg = True
            if haspos and hasneg:
                break
        if haspos and hasneg:
            continue
        if haspos:
            nrm = tuple(-x for x in nrm)
            b = -b
        key = (nrm, b)
        if key not in found:
            found[key] = tuple(i for i, s in enumerate(sides) if s == 0)
    return sorted((n, b, inc) for (n, b), inc in found.items())
