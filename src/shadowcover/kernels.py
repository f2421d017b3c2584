"""Integer kernels: the hot inner loops of the library, in pure Python.

Everything here works on plain integer tuples/lists.  Callers scale rational
data to integers first; rank, nullspaces, row spaces, circuits and facets
are all invariant under that scaling.  All functions are pure and
deterministic.
"""

from math import gcd, lcm
from operator import mul


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


def int_dot(u, v):
    """Dot product of two integer vectors."""
    return sum(map(mul, u, v))


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


def circuits(vectors, min_size, max_size):
    """The first positive circuit of min_size..max_size integer vectors.

    A circuit is a dependent index set all of whose proper subsets are
    independent; its dependency coefficients are unique up to scale.  A
    positive circuit is one whose coefficients can be signed all-positive.
    Returns a list holding at most one (member index tuple, content-reduced
    positive coefficient tuple) pair: the first such circuit of size
    min_size..max_size met by the search, or none.

    DFS over increasing independent prefixes in lexicographic member order;
    the elimination is augmented with combination bookkeeping (rows remember
    how they were built from the chosen vectors), so dependency coefficients
    fall out of the reduction with no extra solve.  Invariant while reducing
    a candidate v: s*v equals w plus the combination of chosen vectors with
    coefficients wc.
    """
    nvec = len(vectors)
    if nvec == 0:
        return []
    dim = len(vectors[0])
    prefix_cap = min(max_size - 1, dim)
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
            if min_size <= k + 1 <= max_size and all(wc):
                coeffs = wc + [-s]
                if coeffs[-1] < 0:
                    coeffs = [-c for c in coeffs]
                if all(c > 0 for c in coeffs):
                    g = _content(coeffs)
                    return [(chosen + (j,), tuple(c // g for c in coeffs))]
        elif k + 1 <= prefix_cap:
            combo = [-c for c in wc] + [s]
            g = _content(w + combo)
            if g > 1:
                w = [y // g for y in w]
                combo = [c // g for c in combo]
            stack.append([j + 1, chosen + (j,), echelon + [(w, pcol, combo)]])
    return []


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


def affine_prefix(points):
    """Indices of the first affinely independent points, in input order.

    points[0] comes first; each later point joins when its difference to
    points[0] is independent of those of the points already chosen, which
    one incremental fraction-free elimination decides.  The scan stops at
    dim+1 points, so a full-dimensional cloud is read only as far as its
    first simplex; a flat one is read to the end.
    """
    base = points[0]
    dim = len(base)
    chosen = [0]
    echelon = []
    for i in range(1, len(points)):
        w = [a - b for a, b in zip(points[i], base)]
        for prow, pcol in echelon:
            x = w[pcol]
            if x:
                pv = prow[pcol]
                w = _reduce_row([pv * a - x * b for a, b in zip(w, prow)])
        pcol = next((k for k in range(dim) if w[k]), -1)
        if pcol < 0:
            continue
        echelon.append((w, pcol))
        chosen.append(i)
        if len(chosen) == dim + 1:
            break
    return chosen


def hull_facets(points):
    """Facets and vertices of the convex hull of full-dimensional integer
    points.

    Returns (facets, vertices).  facets: (outward content-reduced normal,
    offset, incident point indices) triples, sorted; a facet's incident
    points are all the points on its hyperplane, repeated points and points
    on edges included.  vertices: the sorted indices of the extreme points,
    a repeated one at its first index only.  Dimension 1 takes the minimum
    and maximum, dimension 2 walks Andrew's monotone chain (O(V log V) plus
    one incidence scan per edge), whose turning points are the vertices, and
    higher dimensions run the double description method, where a point is a
    vertex when the facets through it meet in its own copies alone (see
    _double_description).
    """
    dim = len(points[0])
    if dim == 1:
        return _interval_facets(points)
    if dim == 2:
        return _polygon_facets(points)
    return _double_description(points)


def _interval_facets(points):
    xs = [p[0] for p in points]
    lo, hi = min(xs), max(xs)
    top = ((1,), hi, tuple(i for i, x in enumerate(xs) if x == hi))
    if lo == hi:
        return [top], [top[2][0]]
    bottom = ((-1,), -lo, tuple(i for i, x in enumerate(xs) if x == lo))
    # each end at the first index it has
    i, j = bottom[2][0], top[2][0]
    return [bottom, top], [i, j] if i < j else [j, i]


def _turn(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _polygon_facets(points):
    pts = sorted(set(points))
    chain = []
    # lower then upper hull, counter-clockwise, dropping collinear points
    for sweep in (pts, pts[::-1]):
        start = len(chain)
        for p in sweep:
            while len(chain) >= start + 2 and _turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chain.pop()  # the other sweep starts at this point
    out = []
    for (x0, y0), (x1, y1) in zip(chain, chain[1:] + chain[:1]):
        # the chain runs counter-clockwise, so cross_rows' normal (dy, -dx)
        # of the edge points out
        a, b = y1 - y0, x0 - x1
        g = gcd(a, b)
        a, b = a // g, b // g
        off = a * x0 + b * y0
        inc = tuple(i for i, (x, y) in enumerate(points) if a * x + b * y == off)
        out.append(((a, b), off, inc))
    out.sort()
    # index() finds each turning point's first copy
    return out, sorted(map(points.index, chain))


def _simplex_rays(points, dim):
    """The dim+1 facets of a simplex of the points, as (outward normal,
    offset, mask of its points) rays, and the simplex's point indices.

    The simplex is the affine_prefix of the points.  With the differences of
    its points to the first as the rows of D, the inverse of D^T comes from
    one more elimination: its row r is orthogonal to every difference but
    the r-th, so it is normal to the facet that misses that point, and the
    sum of the rows, each over its pivot, is normal to the facet that misses
    the first point.
    """
    simplex = affine_prefix(points)
    if len(simplex) <= dim:
        raise ValueError("points are not full-dimensional")
    base = points[0]
    diffs = [[a - b for a, b in zip(points[i], base)] for i in simplex[1:]]
    # rows c_r e_r | x_r with x_r . diffs[j] == c_r when j == r, else 0
    m, _ = _eliminate([[d[r] for d in diffs] + [int(r == c) for c in range(dim)]
                       for r in range(dim)], True)
    den = lcm(*[row[r] for r, row in enumerate(m)])
    full = sum(1 << i for i in simplex)
    rays = []
    total = [0] * dim
    for r, row in enumerate(m):
        c, x = row[r], row[dim:]
        total = [t + den // c * y for t, y in zip(total, x)]
        nrm = _reduce_row([-y for y in x] if c > 0 else x)
        rays.append((nrm, int_dot(nrm, base), full ^ 1 << simplex[r + 1]))
    # total . diffs[j] == den > 0 for every j
    nrm = _reduce_row(total)
    rays.append((nrm, int_dot(nrm, points[simplex[1]]), full ^ 1))
    return rays, simplex


def _double_description(points):
    """Facets as the extreme rays (a, b) of the cone {a.p_i <= b for all i},
    and the vertices.

    Integer double description (Motzkin et al. 1953; Fukuda & Prodon 1996):
    the simplex of dim+1 affinely independent points gives the first rays,
    then each further point splits the rays by the sign of a.p - b, drops the
    violated ones and joins each adjacent (violated, strict) pair into a ray
    tight on p.  Every ray keeps a bit mask of the points tight on it, which
    at the end is the facet's incidence set; two rays are adjacent when their
    common mask has at least dim-1 points and no third ray's mask holds it
    (the combinatorial test), which is exact under any degeneracy.  The rays
    are always the facets of the hull of the points added so far, so there
    are at most F of them, the facet count of the cyclic polytope with V
    vertices in R^dim (McMullen's upper bound), and a step tests at most
    F^2 / 4 pairs.

    The final masks also give the vertices.  The facets through a point
    meet in the smallest face that holds it, and a point is extreme exactly
    when that face is the point itself: when the meet of the masks of its
    facets is the mask of its own copies.  An inner point lies on no facet.
    """
    dim = len(points[0])
    need = dim - 1
    rays, simplex = _simplex_rays(points, dim)
    skip = set(simplex)
    for i, p in enumerate(points):
        if i in skip:
            continue
        bit = 1 << i
        pos, neg, kept = [], [], []
        for a, b, m in rays:
            s = int_dot(a, p) - b
            if s > 0:
                pos.append((s, a, b, m))
            elif s < 0:
                neg.append((s, a, b, m))
                kept.append((a, b, m))
            else:
                kept.append((a, b, m | bit))
        if not pos:
            rays = kept
            continue
        masks = [m for _, _, m in rays]
        for sp, ap, bp, mp in pos:
            for sn, an, bn, mn in [r for r in neg if (mp & r[3]).bit_count() >= need]:
                z = mp & mn
                # the pair's own masks hold z; a third one means not adjacent
                if len([m for m in masks if m & z == z]) > 2:
                    continue
                # sp > 0 > sn, so the new ray is a positive combination,
                # tight on p and on exactly the points tight on both
                a = [sp * x - sn * y for x, y in zip(an, ap)]
                # every ray is tight on an integer point, so the content of
                # its normal divides its offset
                g = _content(a)
                kept.append(([x // g for x in a], (sp * bn - sn * bp) // g, z | bit))
        rays = kept
    npts = len(points)
    facets = []
    meets = {}
    for a, b, m in rays:
        inc = tuple(j for j in range(npts) if m >> j & 1)
        for j in inc:
            meets[j] = meets.get(j, m) & m
        facets.append((tuple(a), b, inc))
    facets.sort()
    # the mask of each point's copies, keyed by the point
    copies = {}
    for j, p in enumerate(points):
        copies[p] = copies.get(p, 0) | 1 << j
    vertices = []
    for m in copies.values():
        # a vertex's facets meet in its copies alone; the first copy reports it
        j = (m & -m).bit_length() - 1
        if meets.get(j) == m:
            vertices.append(j)
    vertices.sort()
    return facets, vertices
