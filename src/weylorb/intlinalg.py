"""Exact linear algebra over Z and Q.

Everything here works on plain lists/tuples of ints or Fractions; no floating
point.  The Smith normal form keeps track of both transforms because the
callers need solution coordinates, not just invariant factors.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def mat_vec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def freeze(a):
    return tuple(tuple(row) for row in a)


def smith_normal_form(m):
    """Smith normal form with transforms.

    Returns (d, u, v) with u @ m @ v == d, u and v unimodular, and d diagonal
    with d[0] | d[1] | ... (nonnegative).
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [list(r) for r in m]
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in d:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    for t in range(min(rows, cols)):
        while True:
            # pick the nonzero entry of smallest magnitude in the trailing
            # block as pivot; |pivot| strictly decreases between iterations,
            # which is what guarantees termination
            pivot = None
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    x = d[i][j]
                    if x != 0 and (best is None or abs(x) < best):
                        best = abs(x)
                        pivot = (i, j)
            if pivot is None:
                break
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            p = d[t][t]
            for i in range(t + 1, rows):
                q = d[i][t] // p
                if q:
                    add_row(t, i, -q)
            for j in range(t + 1, cols):
                q = d[t][j] // p
                if q:
                    add_col(t, j, -q)
            if any(d[i][t] for i in range(t + 1, rows)) or any(
                d[t][j] for j in range(t + 1, cols)
            ):
                continue  # nonzero remainders are smaller pivots; go again
            # pivot clears its row and column; make it divide the rest of the
            # block, or pull an offending row in and shrink the pivot further
            offender = next(
                (
                    i
                    for i in range(t + 1, rows)
                    for j in range(t + 1, cols)
                    if d[i][j] % p != 0
                ),
                None,
            )
            if offender is None:
                break
            add_row(offender, t, 1)
        if d[t][t] < 0:
            negate_row(t)
    return d, u, v


def invariant_factors(m):
    d, _, _ = smith_normal_form(m)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i] != 0]


def rational_rank(m):
    rows = [[Fraction(x) for x in r] for r in m]
    rank = 0
    ncols = len(m[0]) if m else 0
    col = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        rows[rank] = [x / p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def rational_nullspace(m):
    """Basis of {x : m @ x = 0} over Q, as lists of Fractions."""
    if not m:
        return []
    nrows, ncols = len(m), len(m[0])
    rows = [[Fraction(x) for x in r] for r in m]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        rows[rank] = [x / p for x in rows[rank]]
        for i in range(nrows):
            if i != rank and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][f]
        basis.append(vec)
    return basis


def clear_denominators(vec):
    """Scale a rational vector to a primitive integer vector."""
    from math import gcd, lcm

    den = lcm(*(Fraction(x).denominator for x in vec)) if vec else 1
    ints = [int(Fraction(x) * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def solve_exact(a, b):
    """Solve a @ x = b over Q; returns None if inconsistent.

    b may be a vector or a matrix (list of columns is NOT assumed; b is a
    list of rows like everything else).
    """
    vec = not isinstance(b[0], list)
    bcols = [b] if vec else transpose(b)
    nrows, ncols = len(a), len(a[0])
    sols = []
    for bc in bcols:
        rows = [[Fraction(x) for x in r] + [Fraction(bc[i])] for i, r in enumerate(a)]
        pivots = []
        rank = 0
        for col in range(ncols):
            piv = next((i for i in range(rank, nrows) if rows[i][col] != 0), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            p = rows[rank][col]
            rows[rank] = [x / p for x in rows[rank]]
            for i in range(nrows):
                if i != rank and rows[i][col] != 0:
                    c = rows[i][col]
                    rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
            pivots.append(col)
            rank += 1
        for i in range(rank, nrows):
            if rows[i][ncols] != 0:
                return None
        x = [Fraction(0)] * ncols
        for r, pc in enumerate(pivots):
            x[pc] = rows[r][ncols]
        sols.append(x)
    if vec:
        return sols[0]
    return transpose(sols)


def unimodular_inverse(m):
    """Inverse of an integer matrix with det +-1, returned over Z."""
    n = len(m)
    inv_cols = solve_exact(m, identity(n))
    out = [[int(x) for x in row] for row in inv_cols]
    return out


_MAX_FINITE_ORDER = 1000


def finite_order_inverse(m):
    """Inverse of an integer matrix of finite order k, as m^(k-1), over Z.

    Raises ValueError when no power up to _MAX_FINITE_ORDER is the identity.
    """
    n = len(m)
    ident = identity(n)
    prev, power = ident, [list(row) for row in m]
    for _ in range(_MAX_FINITE_ORDER):
        if power == ident:
            return freeze(prev)
        prev, power = power, mat_mul(m, power)
    raise ValueError(f"matrix has no finite order up to {_MAX_FINITE_ORDER}")


def charpoly(m):
    """Coefficients [c_0, ..., c_n] of det(tI - m) = sum c_i t^i, exact.

    Faddeev-LeVerrier; every intermediate value is an integer for integer
    input (the division by k is exact), so the whole run stays in machine
    ints instead of Fractions.
    """
    n = len(m)
    if any(not isinstance(x, int) for row in m for x in row):
        return _charpoly_fraction(m)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = identity(n)
    for k in range(1, n + 1):
        mk = mat_mul(m, mk)
        trace = sum(mk[i][i] for i in range(n))
        assert trace % k == 0
        c = -(trace // k)
        coeffs[n - k] = c
        for i in range(n):
            mk[i][i] += c
    return coeffs


def _charpoly_fraction(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = mat_mul(a, mk)
        trace = sum(mk[i][i] for i in range(n))
        c = -trace / k
        coeffs[n - k] = c
        for i in range(n):
            mk[i][i] += c
    out = []
    for c in coeffs:
        assert c.denominator == 1
        out.append(int(c))
    return out


def det_i_plus_t(m):
    """Coefficients [a_0, ..., a_n] of det(I + t*m) as a polynomial in t."""
    n = len(m)
    neg = [[-x for x in row] for row in m]
    c = charpoly(neg)  # det(tI + m) = sum c_i t^i
    # det(I + t m) = t^n det((1/t) I + m) = sum c_i t^(n-i)
    return [c[n - k] for k in range(n + 1)]
