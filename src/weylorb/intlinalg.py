"""Exact linear algebra over Z and Q.

Everything here works on plain lists/tuples of ints or Fractions, or on numpy
int64 stacks whose products are bound-checked first; no floating point.  The
Smith normal form u m v = d also returns v^-1, built alongside v, because the
callers need solution coordinates and a change of basis, not just invariant
factors.  Over Q there is one elimination, `_echelon`: fraction-free
Gauss-Jordan on sparse rows {column: nonzero entry}, kept as primitive
integer rows, so a row's denominators, gcd and combinations cost its
nonzero entries only.  `echelon` returns its primitive pivot rows as
they are, and `rational_rank`, `rational_nullspace` (as primitive integer
vectors) and `solve_exact` (whose solutions alone are Fractions) are read
off it.  They take a matrix as rows that are sequences of entries, or
dicts of nonzero entries with the number of columns given; `_sparse_rows`
checks and converts either once, at entry, and refuses ragged rows,
columns out of range and entries that are not ints or Fractions.  Over Z,
`echelon_pivots_stack` reduces a whole int64 stack of matrices at once
when only the index of each row lattice is needed, and det(I + t m) comes
off `det_i_plus_t_stack`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Integral, Number
from operator import mul

import numpy as np

INT64_MAX = 2**63 - 1


class EntryBoundError(ValueError):
    """Raised before an int64 product whose entries could overflow."""


def require_int(name, value):
    """ValueError unless value is an int: type(x) is int refuses bools,
    floats and strings alike, which int() would truncate or read."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, not {value!r}")


def check_product(k, a_bound, b_bound):
    """Refuse a product of k-term sums of entries bounded by a_bound, b_bound."""
    if k * a_bound * b_bound > INT64_MAX:
        raise EntryBoundError(
            f"int64 product of {k}-term sums with entries up to {a_bound} and "
            f"{b_bound} could overflow"
        )


def _check_each(k, a, b, index):
    """check_product on each pair a[i], b[i] of two stacks, by their own
    entries once the whole stacks fail it; names index[i] of the first."""
    if k * max_abs(a) * max_abs(b) <= INT64_MAX:
        return
    a, b = (np.abs(x).reshape(len(x), -1).max(axis=1, initial=0) for x in (a, b))
    over = np.flatnonzero(a > INT64_MAX // k // np.maximum(b, 1))
    if len(over):
        i = over[0]
        raise EntryBoundError(
            f"matrix {index[i]} of the stack: int64 product of {k}-term sums "
            f"with entries up to {a[i]} and {b[i]} could overflow"
        )


def max_abs(a):
    """Largest absolute entry of an int64 array; 0 when it is empty."""
    return int(np.abs(a).max()) if a.size else 0


def int64_generators(generators):
    """Square integer matrices of one size, as a list of (r, r) int64 arrays.

    Nothing is rounded or wrapped: ValueError for no generators, for one
    that is not a square matrix of integers of the first one's size, and
    EntryBoundError for an entry beyond int64.
    """
    gens = [np.array(g) for g in generators]
    if not gens:
        raise ValueError("no generators")
    size = len(gens[0]) if gens[0].ndim else None
    for a in gens:
        if a.shape != (size, size):
            raise ValueError(f"{a.tolist()} is not square of size {size}")
    return [_int64(a) for a in gens]


def _int64(a, name=None):
    """The integer array a as int64, with nothing rounded or wrapped: ValueError
    naming its dtype unless that is an integer one or object holding ints,
    and EntryBoundError for an entry beyond int64."""
    if a.dtype.kind != "i":
        # ints beyond int64, or entries that are no ints at all
        entries = a.ravel().tolist() if a.dtype.kind in "uO" else None
        name = f"{a.tolist() if name is None else name} of dtype {a.dtype}"
        if entries is None or any(type(x) is not int for x in entries):
            raise ValueError(f"{name} has entries that are not integers")
        if max(map(abs, entries), default=0) > INT64_MAX:
            raise EntryBoundError(f"{name} has entries beyond int64")
    return a.astype(np.int64, copy=False)


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """a @ b for matrices given as rows.

    ValueError unless every row of a has len(b) entries and the rows of b
    are of one length.
    """
    k, m = len(b), len(b[0]) if len(b) else 0
    if any(len(row) != k for row in a) or any(len(row) != m for row in b):
        raise ValueError(
            f"cannot multiply rows of lengths {sorted({len(row) for row in a})} "
            f"by {k} rows of lengths {sorted({len(row) for row in b})}"
        )
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def transpose(a):
    """The transpose of a matrix as rows; ValueError for rows of other lengths."""
    if len(_lengths(a)) > 1:
        raise ValueError(f"cannot transpose rows of lengths {_lengths(a)}")
    return [list(col) for col in zip(*a)]


def _lengths(a):
    return sorted({len(row) for row in a})


def _check_integers(rows, ring=False):
    """ValueError for an entry that is a bool, or a number but not an integer.

    `//` would floor a Fraction or a float.  With ring, an entry that is no
    number at all passes: det also runs on elements of a ring with exact
    `//`, such as hilbmatrix._Poly.
    """
    for row in rows:
        if not _INT.issuperset(map(type, row)):
            for x in row:
                integer = isinstance(x, Integral) and type(x) is not bool
                if (isinstance(x, Number) or not ring) and not integer:
                    raise ValueError(f"entry {x!r} is not an integer")


def freeze(a):
    return tuple(tuple(row) for row in a)


def smith_normal_form(m):
    """Smith normal form with transforms.

    Returns (d, u, v, v_inv) with u @ m @ v == d, u and v unimodular, d
    diagonal with d[0] | d[1] | ... (nonnegative), and v_inv @ v == I.  v_inv
    takes the inverse of each column operation on v as a row operation.
    """
    d = [list(r) for r in m]
    if len(_lengths(d)) > 1:
        raise ValueError(f"rows of lengths {_lengths(d)} are not a matrix")
    _check_integers(d)
    rows = len(d)
    cols = len(d[0]) if rows else 0
    u = identity(rows)
    v = identity(cols)
    v_inv = identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(src, dst, c):
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in d:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]
        v_inv[src] = [x - c * y for x, y in zip(v_inv[src], v_inv[dst])]

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
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
    return d, u, v, v_inv


def echelon_pivots_stack(stack):
    """Row-echelon pivots of every matrix of an (n, m, r) integer stack, as (n, r).

    Integer row operations reduce each matrix column by column: Euclid on
    the column brings its smallest nonzero entry up as pivot and takes
    floor-division multiples of it off the rows below, until they are all
    zero there.  A column's first step updates the whole stack, each later
    one only the matrices with a remainder left below the pivot, and each
    first bounds the products of each matrix by its own entries, so a stack
    is refused exactly when one of its matrices would be alone.  The
    row lattice is unchanged, so for a matrix of rank r the product of the
    |pivots| is its index in Z^r, the product of the invariant factors.  A
    matrix whose column has no pivot has rank < r: its pivot there is 0,
    it is dropped, and its later pivots stay 0.  A stack of a dtype that
    holds no integers raises ValueError, an entry beyond int64
    EntryBoundError.
    """
    a = _int64(np.asarray(stack), "a stack").copy()
    n, m, r = a.shape
    pivots = np.zeros((n, r), dtype=np.int64)
    alive = np.arange(n)
    for c in range(min(m, r)):
        # a is the trailing block of the live matrices; reduce its column 0
        # on sub, the rows of a that still step, copied back after each step
        sub, rows = a, np.arange(len(a))
        while True:
            each = np.arange(len(sub))
            col = sub[:, :, 0]
            best = np.where(col != 0, np.abs(col), INT64_MAX).argmin(axis=1)
            top = sub[each, best]
            sub[each, best] = sub[:, 0]
            sub[:, 0] = top
            p = top[:, 0]
            # a nonzero entry below the smallest pivot has a nonzero multiple
            q = sub[:, 1:, 0] // np.where(p == 0, 1, p)[:, None]
            _check_each(2, q, sub, alive[rows])
            sub[:, 1:] -= q[:, :, None] * top[:, None, :]
            if sub is not a:
                a[rows] = sub
            left = sub[:, 1:, 0].any(axis=1)
            if not left.any():
                break
            sub, rows = sub[left], rows[left]
        pivots[alive, c] = a[:, 0, 0]
        keep = a[:, 0, 0] != 0
        a, alive = a[keep, 1:, 1:], alive[keep]
    return pivots


_INT = frozenset((int,))
_EXACT = frozenset((int, Fraction))


def _exact(x):
    """x as an int or Fraction: numpy integers become ints, else ValueError."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, np.integer):
        return int(x)
    raise ValueError(f"entry {x!r} is not an int or a Fraction")


def _sparse_rows(m, ncols=None):
    """The rows of m as {column: nonzero int or Fraction}, and ncols.

    A row is a sequence of ncols entries or a dict {column: entry} with its
    columns in range(ncols); ncols is read off the first sequence row when
    it is not given, and dict rows need it given.  Zero entries are
    dropped.  ValueError for rows of other lengths, a column outside
    range(ncols), or an entry that is not an int or a Fraction (a numpy
    integer is taken as the int it holds).
    """
    if ncols is not None and (type(ncols) is not int or ncols < 0):
        raise ValueError(f"ncols must be a nonnegative int, not {ncols!r}")
    rows = []
    for r in m:
        if isinstance(r, dict):
            if ncols is None:
                raise ValueError("rows given as dicts need ncols")
            if r and not (
                _INT.issuperset(map(type, r)) and min(r) >= 0 and max(r) < ncols
            ):
                raise ValueError(f"row {r!r} has a column outside range({ncols})")
            row = r
        else:
            if ncols is None:
                ncols = len(r)
            elif len(r) != ncols:
                raise ValueError(f"row {r!r} has {len(r)} entries, not {ncols}")
            row = dict(enumerate(r))
        if not _EXACT.issuperset(map(type, row.values())):
            row = {c: _exact(x) for c, x in row.items()}
        if not all(row.values()):
            row = {c: x for c, x in row.items() if x}
        rows.append(row)
    return rows, ncols or 0


def _primitive(row):
    """A nonzero rational row {column: entry} as a primitive integer row.

    The denominators and the gcd are read off the nonzero entries the row
    holds; the signs are kept.
    """
    values = row.values()
    if not _INT.issuperset(map(type, values)):
        den = lcm(*(x.denominator for x in values))
        row = {c: x.numerator * (den // x.denominator) for c, x in row.items()}
        values = row.values()
    g = gcd(*values)
    return {c: x // g for c, x in row.items()} if g > 1 else row


def _combine(row, prow, col):
    """The primitive integer combination of row and prow with 0 at col."""
    g = gcd(prow[col], row[col])
    a, b = prow[col] // g, row[col] // g
    out = {c: a * x for c, x in row.items()} if a != 1 else dict(row)
    for c, y in prow.items():
        x = out.get(c, 0) - b * y
        if x:
            out[c] = x
        else:
            del out[c]
    return _primitive(out) if out else out


def _echelon(rows):
    """Fraction-free Gauss-Jordan on sparse rows: (primitive pivot rows, pivots).

    rows are {column: nonzero int or Fraction}.  The rows are taken in
    turn, each made a primitive integer row.  A row is combined with the
    pivot rows that hold its pivot columns; if anything is left, its first
    column is a new pivot, and the earlier pivot rows that hold that column
    are combined with it.  Every combination is an integer one, made
    primitive again, so entries stay small without a single Fraction.
    The pivot rows, in pivot order, are nonzero multiples of the rows of
    the RREF.
    """
    basis = {}
    for row in rows:
        if not row:
            continue
        row = _primitive(row)
        for c in [c for c in row if c in basis]:
            row = _combine(row, basis[c], c)
        if not row:
            continue
        col = min(row)
        for c, prow in basis.items():
            if col in prow:
                basis[c] = _combine(prow, row, col)
        basis[col] = row
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


def echelon(m, ncols=None):
    """(pivot rows, pivot columns) of a rational matrix m, a list of rows,
    each a sequence of entries or a dict {column: nonzero entry} (dict rows
    need ncols; see _sparse_rows).  A pivot row is a primitive {column:
    nonzero int}, its RREF row times row[pivot]; the RREF is unique, so
    this is the same whatever the pivot order."""
    return _echelon(_sparse_rows(m, ncols)[0])


def rational_rank(m, ncols=None):
    """Rank over Q of m, given as echelon takes it."""
    return len(echelon(m, ncols)[1])


def rational_nullspace(m, ncols=None):
    """Basis of {x : m @ x = 0} over Q, as primitive integer vectors.

    m is given as echelon takes it.  One vector per free column f, positive
    at f and 0 at the other free columns: the RREF's vector with 1 at f,
    -row[f] / row[pivot] at each pivot, times the lcm of those pivot
    entries and over the gcd of the result.
    """
    rows, ncols = _sparse_rows(m, ncols)
    rows, pivots = _echelon(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        hits = [(pc, row) for row, pc in zip(rows, pivots) if f in row]
        den = lcm(*(row[pc] for pc, row in hits))
        vec = [0] * ncols
        vec[f] = den
        for pc, row in hits:
            vec[pc] = -row[f] * (den // row[pc])
        g = gcd(*vec)
        basis.append([x // g for x in vec] if g > 1 else vec)
    return basis


def solve_exact(a, b, ncols=None):
    """Solve a @ x = b over Q; returns None if inconsistent.

    a is given as echelon takes it.  b may be a vector or a matrix (list of
    columns is NOT assumed; b is a list of rows like everything else).
    All right-hand sides are reduced in one RREF of [a | b]: the system is
    consistent exactly when no pivot falls in the b columns.
    """
    if len(b) != len(a):
        raise ValueError(f"a has {len(a)} rows but b has {len(b)}")
    if not b:
        raise ValueError("solve_exact got the empty system, with no equations")
    vec = not isinstance(b[0], list)
    arows, ncols = _sparse_rows(a, ncols)
    brows, nb = _sparse_rows([[x] for x in b] if vec else b)
    rows, pivots = _echelon(
        [{**ra, **{ncols + t: x for t, x in rb.items()}} for ra, rb in zip(arows, brows)]
    )
    if pivots and pivots[-1] >= ncols:
        return None
    zero = Fraction(0)
    sols = [[zero] * nb for _ in range(ncols)]
    for row, pc in zip(rows, pivots):
        for t in range(nb):
            x = row.get(ncols + t)
            if x:
                sols[pc][t] = Fraction(x, row[pc])
    return [x for x, in sols] if vec else sols


def det(m):
    """Exact determinant of a square integer matrix by fraction-free elimination.

    The entries may also lie in another ring with exact `//` (see
    _check_integers); ValueError for a Fraction or a float.
    """
    a = [list(row) for row in m]
    n, sign, prev = len(a), 1, 1
    if any(len(row) != n for row in a):
        raise ValueError("det needs a square matrix")
    _check_integers(a, ring=True)
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def det_i_plus_t(m):
    """Coefficients [a_0, ..., a_n] of det(I + t*m): det_i_plus_t_stack of m."""
    n = len(m)
    if not n:
        return [1]
    return det_i_plus_t_stack(int64_generators([m])[0][None])[0].tolist()


def det_i_plus_t_stack(stack):
    """det(I + t m) for every m of an (n, k, k) int64 stack, as (n, k+1) int64.

    Batched Faddeev-LeVerrier: step j gives the coefficient c of t^(k-j) in
    det(tI - m), and (-1)^j c is the coefficient of t^j in det(I + t m).
    Each division by j is checked exact and each product bound, per matrix
    as in echelon_pivots_stack; the stack is refused as there.
    """
    stack = _int64(np.asarray(stack), "a stack")
    k = stack.shape[1]
    coeffs = np.ones((len(stack), k + 1), dtype=np.int64)
    stack_max = np.abs(stack).max(axis=(1, 2), initial=0)[:, None]
    mk = np.broadcast_to(np.eye(k, dtype=np.int64), stack.shape).copy()
    diag = np.arange(k)
    for j in range(1, k + 1):
        _check_each(k, stack_max, mk, range(len(stack)))
        mk = stack @ mk
        trace = np.trace(mk, axis1=1, axis2=2)
        if np.any(trace % j):
            raise ValueError(f"a trace at step {j} is not divisible by {j}")
        c = -(trace // j)
        coeffs[:, j] = (-1) ** j * c
        mk[:, diag, diag] += c[:, None]
    return coeffs
