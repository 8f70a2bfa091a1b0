"""Exact linear algebra: randomized cross-checks against independent routes."""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from weylorb.intlinalg import (
    EntryBoundError,
    det,
    det_i_plus_t,
    det_i_plus_t_stack,
    echelon,
    echelon_pivots_stack,
    freeze,
    identity,
    mat_mul,
    rational_nullspace,
    rational_rank,
    smith_normal_form,
    solve_exact,
    transpose,
)
from weylorb.rootdata import build_root_datum

from references import (
    clear_denominators,
    echelon_pivots_full_stack,
    invariant_factors,
    unimodular_inverse,
)

SIMPLE_TYPES = (
    [f"A_{n}" for n in range(1, 9)]
    + [f"{x}_{n}" for x in "BC" for n in range(2, 9)]
    + [f"D_{n}" for n in range(4, 9)]
    + ["G_2", "F_4", "E_6", "E_7", "E_8"]
)


def random_matrix(rng, rows, cols, bound=30):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def is_diagonal(d):
    return all(
        d[i][j] == 0 for i in range(len(d)) for j in range(len(d[0])) if i != j
    )


def det_int(m):
    """Fraction-free-enough determinant by exact Gaussian elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(col + 1, n):
            c = a[i][col]
            if c:
                a[i] = [x - c * y for x, y in zip(a[i], a[col])]
    return det


def gauss_jordan(m):
    """Literal Gauss-Jordan over Fractions: (nonzero RREF rows, pivots)."""
    rows = [[Fraction(x) for x in r] for r in m]
    ncols = len(m[0]) if m else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
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
        pivots.append(col)
    return rows[: len(pivots)], pivots


def echelon_rref(m, ncols=None):
    """The RREF (nonzero rows, pivots) read off echelon, whose pivot rows
    must be primitive int rows {column: entry}, RREF rows times row[pivot]."""
    rows, pivots = echelon(m, ncols)
    assert all(type(x) is int for row in rows for x in row.values())
    assert all(gcd(*row.values()) == 1 for row in rows)
    if ncols is None:
        ncols = len(m[0]) if len(m) else 0
    dense = [[Fraction(0)] * ncols for _ in rows]
    for out, row, p in zip(dense, rows, pivots):
        for c, x in row.items():
            out[c] = Fraction(x, row[p])
    return dense, pivots


def times(a, x):
    """a @ x for a vector x, through mat_mul."""
    return [y for (y,) in mat_mul(a, [[v] for v in x])]


def reference_nullspace(m):
    """The RREF null space, 1 at each free column, made primitive."""
    rows, pivots = gauss_jordan(m)
    basis = []
    for f in range(len(m[0])):
        if f not in pivots:
            vec = [Fraction(0)] * len(m[0])
            vec[f] = Fraction(1)
            for row, pc in zip(rows, pivots):
                vec[pc] = -row[f]
            basis.append(clear_denominators(vec))
    return basis


def reference_solve(a, bcol):
    """Solution of a x = bcol from the RREF of [a | bcol], or None."""
    ncols = len(a[0])
    rows, pivots = gauss_jordan([list(r) + [bcol[i]] for i, r in enumerate(a)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(rows, pivots):
        x[pc] = row[ncols]
    return x


_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


@st.composite
def rational_matrices(draw, min_rows=0):
    """Small rational matrices with zero rows, zero columns and dependencies."""
    nrows = draw(st.integers(min_rows, 6))
    ncols = draw(st.integers(1, 6))
    m = [draw(st.lists(_ENTRIES, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    m = [[0 if j in zero_cols else x for j, x in enumerate(r)] for r in m]
    if nrows >= 2 and draw(st.booleans()):
        a, b = draw(_ENTRIES), draw(_ENTRIES)
        m.append([a * x + b * y for x, y in zip(m[0], m[1])])
    if draw(st.booleans()):
        m.insert(draw(st.integers(0, len(m))), [0] * ncols)
    return m


class TestOneRref:
    @settings(max_examples=80, deadline=None)
    @given(rational_matrices())
    def test_rref_rank_nullspace_match_gauss_jordan(self, m):
        rows, pivots = echelon_rref(m)
        assert (rows, pivots) == gauss_jordan(m)
        assert rational_rank(m) == len(pivots)
        if m:
            assert rational_nullspace(m) == reference_nullspace(m)

    @settings(max_examples=80, deadline=None)
    @given(rational_matrices(min_rows=1))
    def test_nullspace_vectors_are_primitive_positive_int_solutions(self, m):
        pivots = echelon(m)[1]
        free = [f for f in range(len(m[0])) if f not in pivots]
        basis = rational_nullspace(m)
        assert len(basis) == len(free)
        for f, vec in zip(free, basis):
            assert all(type(x) is int for x in vec)
            assert gcd(*vec) == 1 and vec[f] > 0
            assert not any(vec[g] for g in free if g != f)
            assert not any(times(m, vec))

    @settings(max_examples=80, deadline=None)
    @given(rational_matrices(min_rows=1), st.data())
    def test_solve_exact_matches_gauss_jordan(self, a, data):
        ncols = len(a[0])
        x = data.draw(st.lists(_ENTRIES, min_size=ncols, max_size=ncols))
        consistent = times(a, x)
        # a random right-hand side is inconsistent whenever a is not onto
        other = data.draw(st.lists(_ENTRIES, min_size=len(a), max_size=len(a)))
        for bcol in (consistent, other):
            assert solve_exact(a, bcol) == reference_solve(a, bcol)
        both = [[u, v] for u, v in zip(consistent, other)]
        expected = [reference_solve(a, consistent), reference_solve(a, other)]
        got = solve_exact(a, both)
        if None in expected:
            assert got is None
        else:
            assert got == transpose(expected)
            assert times(a, [r[0] for r in got]) == consistent

    def test_empty_and_zero_matrices(self):
        assert echelon_rref([]) == ([], [])
        assert echelon_rref([[0, 0], [0, 0]]) == ([], [])
        assert rational_rank([[0, 0, 0]]) == 0
        assert rational_nullspace([[0, 0]]) == [[1, 0], [0, 1]]
        assert solve_exact([[0, 0]], [1]) is None


def dense(rows, ncols):
    """Dict rows {column: entry} as lists of ncols entries."""
    out = [[0] * ncols for _ in rows]
    for row, r in zip(out, rows):
        for c, x in r.items():
            row[c] = x
    return out


@st.composite
def sparse_matrices(draw, min_rows=0):
    """Dict rows at density <= 10%, wider than tall, with zero and empty rows.

    A row holds at most ncols // 20 entries, some of them stored zeros, so
    the row that combines two others holds at most ncols // 10.
    """
    ncols = draw(st.integers(20, 60))
    nrows = draw(st.integers(min_rows, 8))
    cols = st.integers(0, ncols - 1)
    m = [
        draw(st.dictionaries(cols, _ENTRIES, max_size=ncols // 20))
        for _ in range(nrows)
    ]
    if nrows >= 2 and draw(st.booleans()):
        a, b = draw(_ENTRIES), draw(_ENTRIES)
        m.append({
            c: a * m[0].get(c, 0) + b * m[1].get(c, 0) for c in m[0].keys() | m[1]
        })
    if draw(st.booleans()):
        m.insert(draw(st.integers(0, len(m))), draw(st.sampled_from([{}, {0: 0}])))
    return m, ncols


class TestSparseRows:
    @settings(max_examples=80, deadline=None)
    @given(sparse_matrices())
    def test_dict_rows_match_dense_rows_and_gauss_jordan(self, case):
        m, ncols = case
        full = dense(m, ncols)
        reference = gauss_jordan(full)
        if not m:
            # no sequence row to read the width off
            reference = ([], [])
        assert echelon_rref(m, ncols) == echelon_rref(full) == reference
        assert rational_rank(m, ncols) == rational_rank(full) == len(reference[1])
        nullspace = rational_nullspace(m, ncols)
        if m:
            assert nullspace == rational_nullspace(full) == reference_nullspace(full)
        else:
            assert nullspace == [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices(min_rows=1), st.data())
    def test_solve_exact_on_dict_rows(self, case, data):
        m, ncols = case
        full = dense(m, ncols)
        x = [0] * ncols
        for c in data.draw(st.sets(st.integers(0, ncols - 1), max_size=4)):
            x[c] = data.draw(_ENTRIES)
        consistent = times(full, x)
        other = data.draw(st.lists(_ENTRIES, min_size=len(m), max_size=len(m)))
        for bcol in (consistent, other):
            expected = reference_solve(full, bcol)
            assert solve_exact(m, bcol, ncols) == solve_exact(full, bcol) == expected
        both = [[u, v] for u, v in zip(consistent, other)]
        got = solve_exact(m, both, ncols)
        assert got == solve_exact(full, both)
        if got is not None:
            assert times(full, [r[0] for r in got]) == consistent

    def test_back_elimination_reaches_earlier_pivot_rows(self):
        # the third row's pivot, column 1, must be cleared from the first
        m = [{0: 1, 1: 1, 2: 1}, {2: 1}, {1: 1}]
        assert echelon_rref(m, 3) == ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 1, 2])

    def test_stored_zeros_are_not_entries(self):
        # a zero left in a row would be taken for its pivot
        m = [{0: 0, 1: 2}, {0: 0, 2: Fraction(0)}, {1: 0}]
        assert echelon_rref(m, 3) == ([[0, 1, 0]], [1])
        assert rational_rank(m, 3) == 1
        assert rational_nullspace([{0: 0}], 1) == [[1]]

    def test_numpy_integers_are_read_as_ints(self):
        m = np.array([[2, 4], [1, 3]], dtype=np.int64)
        assert echelon_rref(m) == echelon_rref(m.tolist())
        assert echelon_rref([{0: np.int64(2)}], 2) == ([[1, 0]], [0])


class TestInputContract:
    @pytest.mark.parametrize(
        "m", [[[1], [3, 4]], [[1, 2], [3]], [[1, 2], [3, 4, 5]]], ids=str
    )
    def test_ragged_rows_are_refused(self, m):
        for fn in (echelon, rational_rank, rational_nullspace):
            with pytest.raises(ValueError, match="entries"):
                fn(m)
        with pytest.raises(ValueError, match="entries"):
            solve_exact(m, [1, 2])

    def test_sequence_rows_of_another_width_than_ncols_are_refused(self):
        with pytest.raises(ValueError, match="entries"):
            echelon([[1, 2]], 3)

    @pytest.mark.parametrize("row", [{2: 1}, {-1: 1}, {1.0: 1}, {True: 1}, {"0": 1}])
    def test_dict_columns_outside_the_range_are_refused(self, row):
        for fn in (echelon, rational_rank, rational_nullspace):
            with pytest.raises(ValueError, match="column"):
                fn([row], 2)
        with pytest.raises(ValueError, match="column"):
            solve_exact([row], [1], 2)

    def test_dict_rows_need_ncols(self):
        with pytest.raises(ValueError, match="ncols"):
            echelon([{0: 1}])
        with pytest.raises(ValueError, match="ncols"):
            rational_rank([{0: 1}], 2.0)

    @pytest.mark.parametrize("entry", ["1", 1.0, 0.0, None, True, False, 1j])
    def test_entries_other_than_int_and_fraction_are_refused(self, entry):
        for m, ncols in (([[1, entry]], None), ([{0: 1, 1: entry}], 2)):
            for fn in (echelon, rational_rank, rational_nullspace):
                with pytest.raises(ValueError, match="not an int or a Fraction"):
                    fn(m, ncols)
            with pytest.raises(ValueError, match="not an int or a Fraction"):
                solve_exact(m, [1], ncols)
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            solve_exact([[1, 0]], [entry])

    @pytest.mark.parametrize(
        "a, b",
        [
            ([[1, 2, 3]], [[1], [2]]),
            ([[1, 2]], [[1], [2], [3]]),
            ([[1, 2], [3]], [[1], [2]]),
            ([[1, 2]], [[1, 2], [3]]),
        ],
        ids=str,
    )
    def test_mat_mul_refuses_sizes_that_do_not_fit(self, a, b):
        with pytest.raises(ValueError, match="cannot multiply"):
            mat_mul(a, b)

    @pytest.mark.parametrize(
        "call",
        [
            # // floors a Fraction: this used to return -1, not -1/2
            lambda: det([[Fraction(1, 2), 1], [1, 1]]),
            lambda: det([[2, 1], [1, 2.5]]),
            lambda: smith_normal_form([[Fraction(1, 2)]]),
            lambda: smith_normal_form([[1.5, 0], [0, 2]]),
            lambda: smith_normal_form([[1, 2], [3]]),
            lambda: transpose([[1, 2], [3]]),
            # a bool is an Integral: smith_normal_form([[True]]) gave d = [[True]]
            lambda: smith_normal_form([[True]]),
            lambda: det([[True, 0], [0, 1]]),
        ],
        ids=[
            "det-fraction",
            "det-float",
            "smith-fraction",
            "smith-float",
            "smith-ragged",
            "transpose-ragged",
            "smith-bool",
            "det-bool",
        ],
    )
    def test_z_side_refuses_what_it_cannot_compute(self, call):
        with pytest.raises(ValueError):
            call()

    def test_z_side_keeps_its_exact_inputs(self):
        half = Fraction(1, 2)
        assert det([[2, 1], [1, 2]]) == 3
        assert det([[np.int64(2), 1], [1, np.int64(2)]]) == 3
        assert smith_normal_form(np.array([[2, 0], [0, 3]]))[0] == [[1, 0], [0, 6]]
        assert transpose([[half, 1]]) == [[half], [1]]
        assert mat_mul([[half, 1]], [[2], [half]]) == [[Fraction(3, 2)]]


class TestSmithNormalForm:
    def test_random_matrices_full_contract(self):
        rng = random.Random(20240811)
        for _ in range(250):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            m = random_matrix(rng, rows, cols)
            d, u, v, _ = smith_normal_form(m)
            assert mat_mul(mat_mul(u, m), v) == d
            assert is_diagonal(d)
            diag = [d[i][i] for i in range(min(rows, cols))]
            assert all(x >= 0 for x in diag)
            for i in range(len(diag) - 1):
                if diag[i]:
                    assert diag[i + 1] % diag[i] == 0
                else:
                    assert diag[i + 1] == 0
            assert abs(det_int(u)) == 1
            assert abs(det_int(v)) == 1

    def test_known_hard_case_terminates(self):
        # this 8x8 matrix sent an earlier elimination strategy into a cycle
        m = [
            [-26, 23, -25, 30, -13, 0, 14, 12],
            [-26, -27, 16, 14, -11, 11, 6, 13],
            [22, -2, -12, 15, -6, 26, 12, -8],
            [-29, 30, -1, -8, -20, 9, -23, 1],
            [-27, -17, 19, -12, -22, 17, -15, -5],
            [-5, 28, 25, 1, -25, -20, -2, -5],
            [5, -13, 26, -22, 22, -3, 25, 5],
            [-13, 15, -4, -8, 13, 26, -6, -16],
        ]
        d, u, v, v_inv = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert is_diagonal(d)
        assert mat_mul(v_inv, v) == identity(8)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda rows: st.integers(1, 6).flatmap(
                lambda cols: st.lists(
                    st.lists(st.integers(-20, 20), min_size=cols, max_size=cols),
                    min_size=rows,
                    max_size=rows,
                )
            )
        )
    )
    def test_column_transform_inverse(self, m):
        d, u, v, v_inv = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert v_inv == unimodular_inverse(v)
        assert mat_mul(v, v_inv) == identity(len(v))

    def test_invariant_factor_product_is_det(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n, 9)
            facs = invariant_factors(m)
            det = det_int(m)
            if det == 0:
                assert len(facs) < n
            else:
                prod = 1
                for f in facs:
                    prod *= f
                assert prod == abs(det)

    def test_diag_example(self):
        d = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])[0]
        assert [d[i][i] for i in range(3)] == [2, 2, 156]

    def test_zero_and_empty_shapes(self):
        d = smith_normal_form([[0, 0], [0, 0]])[0]
        assert d == [[0, 0], [0, 0]]
        assert invariant_factors([[0]]) == []


def _lattice_index(m, cols):
    """Product of the invariant factors of m, or 0 when its rank is < cols."""
    facs = invariant_factors(m)
    if len(facs) < cols:
        return 0
    index = 1
    for f in facs:
        index *= f
    return index


@st.composite
def int_stacks(draw):
    """(n, m, r) int64 stacks with entries within +-20.

    n <= 40, m <= 8 and r <= 5; each matrix is zero, sparse, rank-deficient
    (its second column minus its first) or dense, drawn from a seeded rng.
    """
    n, m, r = draw(st.integers(0, 40)), draw(st.integers(0, 8)), draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.integers(-20, 21, size=(n, m, r))
    kind = rng.integers(0, 4, size=n)
    stack[kind == 0] = 0
    stack[kind == 1] *= rng.random((np.count_nonzero(kind == 1), m, r)) < 0.3
    if r > 1:
        stack[kind == 2, :, 1] = -stack[kind == 2, :, 0]
    return stack


@st.composite
def wide_stacks(draw, square):
    """(n, m, r) int64 stacks, of n <= 12 square matrices of size <= 4 or of
    m x r ones with m <= 6 and r <= 4.  Entries are within +-3 times 2^e,
    for a seeded e below a seeded limit per matrix, of at most 30 for square
    ones and 58 else, so that some matrices near the int64 bound are refused
    and others pass."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(0, 13))
    if square:
        m = r = int(rng.integers(1, 5))
    else:
        m, r = int(rng.integers(1, 7)), int(rng.integers(1, 5))
    limit = rng.integers(1, 31 if square else 59, size=(n, 1, 1))
    scale = 2 ** (rng.random((n, m, r)) * limit).astype(np.int64)
    stack = rng.integers(-3, 4, size=(n, m, r)) * scale
    stack[rng.random((n, m, r)) < 0.4] = 0
    return stack


class TestEchelonPivotsStack:
    def _random_stack(self, rng, n, rows, cols):
        stack = []
        for _ in range(n):
            m = random_matrix(rng, rows, cols, rng.choice((1, 3, 9)))
            for i in range(rows):
                kind = rng.random()
                if kind < 0.15:
                    m[i] = [0] * cols
                elif kind < 0.3 and i:
                    # an integer combination of two earlier rows
                    a, b = rng.randrange(i), rng.randrange(i)
                    c = rng.randint(-2, 2)
                    m[i] = [x + c * y for x, y in zip(m[a], m[b])]
            stack.append(m)
        return stack

    def test_pivot_product_is_lattice_index(self):
        rng = random.Random(31)
        for _ in range(120):
            cols = rng.randint(1, 5)
            rows = rng.randint(1, 2 * cols + 1)
            stack = self._random_stack(rng, 6, rows, cols)
            pivots = echelon_pivots_stack(
                np.array(stack, dtype=np.int64).reshape(6, rows, cols)
            )
            assert pivots.shape == (6, cols)
            for m, piv in zip(stack, pivots.tolist()):
                index = 1
                for p in piv:
                    index *= abs(p)
                assert index == _lattice_index(m, cols)

    def test_single_column(self):
        stack = np.array(
            [[[6], [-4], [10]], [[0], [0], [0]], [[0], [-7], [0]]], dtype=np.int64
        )
        assert echelon_pivots_stack(stack).tolist() == [[-2], [0], [-7]]

    def test_fewer_rows_than_columns_is_rank_deficient(self):
        stack = np.array([[[1, 2, 3]], [[0, 0, 5]]], dtype=np.int64)
        pivots = echelon_pivots_stack(stack)
        assert pivots.shape == (2, 3)
        assert all(0 in row for row in pivots.tolist())

    def test_input_is_not_modified(self):
        stack = np.array([[[2, 1], [4, 3]]], dtype=np.int64)
        echelon_pivots_stack(stack)
        assert stack.tolist() == [[[2, 1], [4, 3]]]

    def test_checks_entry_bound(self):
        # the multiple 2^62 // 3 of the pivot row would overflow int64
        stack = np.array([[[3, 2**40], [2**62, 1]]], dtype=np.int64)
        with pytest.raises(EntryBoundError):
            echelon_pivots_stack(stack)

    def test_entry_bound_covers_the_whole_stack(self):
        # each matrix is bounded by its own entries: the first needs no
        # multiple, and the second's multiple of 2 is no overflow, although
        # a bound over the whole stack, as in the full-stack loop, refuses it
        stack = np.array([[[1, 2**61], [0, 0]], [[2, 0], [3, 0]]], dtype=np.int64)
        with pytest.raises(EntryBoundError):
            echelon_pivots_full_stack(stack)
        assert echelon_pivots_stack(stack).tolist() == [[1, 0], [1, 0]]
        assert echelon_pivots_stack(stack[1:]).tolist() == [[1, 0]]
        # a matrix that is refused on its own is refused in any stack, by index
        bad = np.array([[[3, 2**40], [2**62, 1]]], dtype=np.int64)
        with pytest.raises(EntryBoundError, match="matrix 2 of the stack"):
            echelon_pivots_stack(np.concatenate([stack, bad, bad]))

    @seed(20)
    @settings(max_examples=150, deadline=None)
    @given(int_stacks())
    def test_matches_the_full_stack_loop(self, stack):
        # stepping only the matrices with a remainder left changes no pivot
        assert np.array_equal(
            echelon_pivots_stack(stack), echelon_pivots_full_stack(stack)
        )


@pytest.mark.parametrize("fn", [echelon_pivots_stack, det_i_plus_t_stack])
class TestIntegerStacks:
    # the dtype is checked first: the echelon once read 0.5 as 0, giving
    # the pivot 2 for the first stack
    @pytest.mark.parametrize(
        "stack,error,dtype",
        [
            (np.array([[[0.5], [2.0]]]), ValueError, "float64"),
            (np.array([[[1.0, 0.0], [0.0, 1.0]]]), ValueError, "float64"),
            (np.array([[[True, False], [False, True]]]), ValueError, "bool"),
            (np.array([[[Fraction(1, 2), 0], [0, 1]]]), ValueError, "object"),
            (np.array([[[2**70, 0], [0, 1]]]), EntryBoundError, "object"),
            (
                np.array([[[2**63, 0], [0, 1]]], dtype=np.uint64),
                EntryBoundError,
                "uint64",
            ),
        ],
        ids=["fraction-float", "integral-float", "bool", "Fraction", "2^70", "2^63"],
    )
    def test_refuses_what_int64_cannot_hold_exactly(self, fn, stack, error, dtype):
        with pytest.raises(error, match=dtype):
            fn(stack)

    @seed(21)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_a_stack_is_refused_exactly_when_a_part_is(self, fn, data):
        # every bound is per matrix, so splitting a stack anywhere changes
        # nothing: it raises when some part raises, and else is their rows
        stack = data.draw(wide_stacks(square=fn is det_i_plus_t_stack))
        cuts = data.draw(st.lists(st.integers(0, len(stack)), max_size=3))
        parts = []
        for part in np.split(stack, sorted(cuts)):
            try:
                parts.append(fn(part))
            except EntryBoundError:
                parts.append(None)
        if any(p is None for p in parts):
            with pytest.raises(EntryBoundError):
                fn(stack)
        else:
            assert np.array_equal(fn(stack), np.concatenate(parts))

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, object])
    def test_other_integer_dtypes_are_read_as_int64(self, fn, dtype):
        stack = np.array([[[2, 1], [4, 3]], [[0, -1], [1, 0]]])
        if dtype is np.uint16:
            stack = np.abs(stack)
        got = fn(np.array(stack.tolist(), dtype=dtype))
        assert np.array_equal(got, fn(stack))


class TestRankNullspaceSolve:
    def test_rank_matches_invariant_factor_count(self):
        rng = random.Random(9)
        for _ in range(80):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols, 7)
            assert rational_rank(m) == len(invariant_factors(m))

    def test_nullspace_vectors_are_solutions(self):
        rng = random.Random(11)
        for _ in range(60):
            rows, cols = rng.randint(1, 6), rng.randint(2, 6)
            m = random_matrix(rng, rows, cols, 7)
            basis = rational_nullspace(m)
            assert len(basis) == cols - rational_rank(m)
            for vec in basis:
                assert all(x == 0 for x in times(m, vec))

    def test_solve_exact_roundtrip(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n, 6)
            if det_int(m) == 0:
                continue
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            b = times(m, x)
            assert solve_exact(m, b) == x

    def test_solve_exact_inconsistent(self):
        assert solve_exact([[1, 0], [1, 0]], [1, 2]) is None

    def test_solve_exact_refuses_b_of_another_length(self):
        with pytest.raises(ValueError, match="1 rows but b has 2"):
            solve_exact([[1, 0]], [1, 2])

    def test_solve_exact_refuses_the_empty_system(self):
        with pytest.raises(ValueError, match="empty system"):
            solve_exact([], [])

    def test_unimodular_inverse(self):
        m = [[2, 1], [1, 1]]
        inv = unimodular_inverse(m)
        assert mat_mul(m, inv) == identity(2)

    def test_unimodular_inverse_of_seeded_products(self):
        # products of transvections I + c e_ij are unimodular with large entries
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 6)
            m = identity(n)
            for _ in range(3 * n if n > 1 else 0):
                i, j = rng.sample(range(n), 2)
                c = rng.choice((-2, -1, 1, 2))
                m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            assert mat_mul(m, unimodular_inverse(m)) == identity(n)

    @pytest.mark.parametrize("type_label", SIMPLE_TYPES)
    def test_unimodular_inverse_of_simple_reflections(self, type_label):
        for s in build_root_datum(type_label).weyl_generators:
            assert mat_mul(s, unimodular_inverse(s)) == identity(len(s))

    def test_unimodular_inverse_refuses_det_2(self):
        with pytest.raises(ValueError, match="not unimodular"):
            unimodular_inverse([[2, 0], [0, 1]])

    def test_unimodular_inverse_refuses_a_non_square_matrix(self, monkeypatch):
        # refused before the Smith form, which would accept the shape
        monkeypatch.setattr("references.smith_normal_form", None)
        with pytest.raises(ValueError, match="square"):
            unimodular_inverse([[1, 0]])

    def test_finite_order_inverse(self):
        # the rotation of order 6 in G_2-like coordinates, and a reflection:
        # for m of order k the inverse is m^(k-1)
        for m, k in (([[1, -1], [1, 0]], 6), ([[-1, 0], [1, 1]], 2)):
            power = identity(2)
            for _ in range(k - 1):
                power = mat_mul(m, power)
            assert unimodular_inverse(m) == power


def _det_i_plus_t_at(m, t):
    """det(I + t m) by exact Gaussian elimination."""
    n = len(m)
    return det_int(
        [[(1 if i == j else 0) + t * m[i][j] for j in range(n)] for i in range(n)]
    )


class TestCharpoly:
    """det(I + t m), the characteristic polynomial of -m read backwards."""

    def test_against_expansion_2x2(self):
        rng = random.Random(3)
        for _ in range(40):
            a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
            # det(I + t m) = 1 + (a+d) t + (ad - bc) t^2
            assert det_i_plus_t([[a, b], [c, d]]) == [1, a + d, a * d - b * c]

    def test_det_i_plus_t_values(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n, 5)
            coeffs = det_i_plus_t(m)
            for t in (-2, -1, 0, 1, 2, 3):
                lhs = det_int(
                    [
                        [(1 if i == j else 0) + t * m[i][j] for j in range(n)]
                        for i in range(n)
                    ]
                )
                assert lhs == sum(c * t**k for k, c in enumerate(coeffs))

    def test_det_matches_gaussian_elimination(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(0, 5)
            m = random_matrix(rng, n, n, rng.choice((1, 4, 30)))
            assert det(m) == det_int(m)
            assert det(m) == det_i_plus_t(m)[-1]

    @pytest.mark.parametrize("m", [[[1, 2, 3], [4, 5, 6]], [[]]], ids=["2x3", "1x0"])
    def test_det_refuses_a_non_square_matrix(self, m):
        with pytest.raises(ValueError, match="square"):
            det(m)

    def test_det_i_plus_t_stack_matches_one_at_a_time(self):
        # a polynomial of degree k is fixed by its values at k + 1 points
        rng = random.Random(5)
        for k in range(6):
            stack = [random_matrix(rng, k, k, 3) for _ in range(12)]
            got = det_i_plus_t_stack(np.array(stack, dtype=np.int64).reshape(12, k, k))
            for m, coeffs in zip(stack, got.tolist()):
                for t in range(k + 1):
                    value = sum(c * t**j for j, c in enumerate(coeffs))
                    assert value == _det_i_plus_t_at(m, t)

    def test_det_i_plus_t_stack_checks_entry_bound(self):
        stack = np.array([[[2**31, 0], [0, 1]]], dtype=np.int64)
        with pytest.raises(EntryBoundError):
            det_i_plus_t_stack(stack)

    def test_det_i_plus_t_stack_bounds_each_matrix_by_its_own_entries(self):
        # x has the larger entries and y the larger third power; each alone
        # passes, but 3 * max|x| * max|y^2| is beyond int64
        x = [[0, 1_700_000_000, 0], [0, 0, 0], [0, 0, 0]]
        y = [[0, 46341, 0], [0, 0, 46341], [46341, 0, 0]]
        got = det_i_plus_t_stack(np.array([x, y], dtype=np.int64))
        assert got.tolist() == [[1, 0, 0, 0], [1, 0, 0, 46341**3]]
        # [[1, 2^40], [0, 1]] is refused on its own, at its second step, so
        # the rotation beside it is refused with it, the error naming it
        stack = np.array([[[0, -1], [1, 0]], [[1, 2**40], [0, 1]]], dtype=np.int64)
        assert det_i_plus_t_stack(stack[:1]).tolist() == [[1, 0, 1]]
        with pytest.raises(EntryBoundError, match="matrix 1 of the stack"):
            det_i_plus_t_stack(stack)

    def test_cayley_hamilton(self):
        # det(x I + m) = sum a_j x^(n-j), so sum a_j (-m)^(n-j) = 0
        rng = random.Random(6)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n, 4)
            neg = [[-x for x in row] for row in m]
            acc = [[0] * n for _ in range(n)]
            power = identity(n)
            for c in reversed(det_i_plus_t(m)):
                acc = [
                    [acc[i][j] + c * power[i][j] for j in range(n)]
                    for i in range(n)
                ]
                power = mat_mul(power, neg)
            assert all(x == 0 for row in acc for x in row)


class TestSmallHelpers:
    def test_clear_denominators(self):
        assert clear_denominators([Fraction(1, 2), Fraction(3, 4)]) == [2, 3]
        assert clear_denominators([Fraction(2), Fraction(4)]) == [1, 2]
        # rows of ints take the gcd alone, with the same result
        assert clear_denominators([4, -6, 0]) == [2, -3, 0]
        assert clear_denominators([0, 0]) == [0, 0]
        assert clear_denominators([Fraction(1, 2), 3]) == [1, 6]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    def test_rref_of_int_rows_equals_rref_of_fraction_rows(self, m):
        assert echelon(m) == echelon([[Fraction(x) for x in row] for row in m])

    def test_transpose_freeze(self):
        m = [[1, 2, 3], [4, 5, 6]]
        assert transpose(transpose(m)) == m
        assert freeze(m) == ((1, 2, 3), (4, 5, 6))
