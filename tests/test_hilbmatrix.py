"""Commuting-matrix models: cyclicity, duality, isomorphism, skew forms."""

import itertools
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

from weylorb import hilbmatrix
from weylorb.hilbmatrix import (
    MatrixPair,
    _DRAWS_BEFORE_GENERIC_DET,
    _generator_terms,
    _generic_det,
    _Poly,
    _subspace_contains_invertible,
    _sylvester_solution_space,
    dual,
    is_cyclic,
    make_pair,
    module_isomorphic,
    pair_from_ideal,
    symplectic_exists,
)
from weylorb.intlinalg import (
    det,
    echelon,
    mat_mul,
    rational_nullspace,
    rational_rank,
    transpose,
)

from references import (
    clear_denominators,
    literal_skew_rows,
    literal_sylvester_rows,
    module_isomorphic_det_first,
    pair_from_ideal_two_systems,
    pair_ranks_literal,
    symplectic_exists_det_first,
)

# the 3x3 spanning-but-not-cospanning example
FOOTNOTE = (
    [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
)
# the 4x4 pair with no invertible skew solution
REMARK = (
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
)


def brute_is_cyclic(pair):
    """Search all vectors with entries in {-1, 0, 1} for a cyclic one.

    For nilpotent pairs of small dimension the monomial images of any vector
    with such entries already witness cyclicity when it holds.
    """
    n = pair.dim
    mx = [list(r) for r in pair.mx]
    my = [list(r) for r in pair.my]
    monoms = []
    for a in range(n):
        for b in range(n - a):
            monoms.append((a, b))
    for entries in itertools.product((-1, 0, 1), repeat=n):
        if not any(entries):
            continue
        vecs = []
        for a, b in monoms:
            v = [[x] for x in entries]  # a column, for mat_mul
            for _ in range(a):
                v = mat_mul(mx, v)
            for _ in range(b):
                v = mat_mul(my, v)
            vecs.append([x for (x,) in v])
        if rational_rank(vecs) == n:
            return True
    return False


def invertible_in_span_oracle(basis, dim, seed=0):
    """The sympy Expr route: Berkowitz determinant of the generic element.

    The determinant of sum t_k B_k is expanded as an Expr and compared with
    0; a witness is the first seeded integer draw where it is nonzero.
    """
    if not basis:
        return False, None
    ts = sympy.symbols(f"t0:{len(basis)}")
    generic = sympy.zeros(dim, dim)
    for t, b in zip(ts, basis):
        generic += t * sympy.Matrix(
            [[sympy.Rational(x) for x in row] for row in b]
        )
    det = sympy.expand(generic.det(method="berkowitz"))
    if det == 0:
        return False, None
    rng = random.Random(seed)
    for bound in (1, 2, 3, 5, 9):
        for _ in range(200):
            coeffs = [rng.randint(-bound, bound) for _ in basis]
            if det.subs(dict(zip(ts, coeffs))) != 0:
                witness = [
                    [
                        sum(Fraction(c) * Fraction(b[i][j]) for c, b in zip(coeffs, basis))
                        for j in range(dim)
                    ]
                    for i in range(dim)
                ]
                return True, witness
    raise AssertionError("nonzero determinant but no witness found")


_SMALL = st.one_of(
    st.just(0),
    st.integers(-2, 2),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)


def _matrix(draw, dim):
    return [[draw(_SMALL) for _ in range(dim)] for _ in range(dim)]


def integral(m):
    """A rational matrix scaled to a primitive integer one, which spans the
    same line."""
    flat = clear_denominators([x for row in m for x in row])
    return [flat[i : i + len(m)] for i in range(0, len(flat), len(m))]


@st.composite
def matrix_spans(draw):
    """(family, dim, basis): a span of small integer matrices, each a
    rational matrix made integral.

    "generic" and "singular-sum" spans (whose basis sums to a strictly
    upper-triangular matrix) may hold invertible elements; the rest are
    singular: strictly upper-triangular spans, spans whose matrices all kill
    one vector, and skew spans of odd size.
    """
    family = draw(
        st.sampled_from(["generic", "singular-sum", "upper", "kernel", "odd-skew"])
    )
    k = draw(st.integers(1, 4))
    if family == "odd-skew":
        dim = draw(st.sampled_from([1, 3, 5]))
    else:
        dim = draw(st.integers(1, 4))
    basis = []
    for _ in range(k):
        m = _matrix(draw, dim)
        if family == "upper":
            m = [[x if j > i else 0 for j, x in enumerate(r)] for i, r in enumerate(m)]
        elif family == "odd-skew":
            m = [[m[i][j] - m[j][i] for j in range(dim)] for i in range(dim)]
        basis.append(m)
    if family == "singular-sum":
        upper = _matrix(draw, dim)
        basis.append([
            [(upper[i][j] if j > i else 0) - sum(b[i][j] for b in basis)
             for j in range(dim)]
            for i in range(dim)
        ])
    if family == "kernel":
        v = [draw(_SMALL) for _ in range(dim)]
        c = draw(st.integers(0, dim - 1))
        v[c] = draw(st.sampled_from([1, -1, Fraction(1, 2), 2]))
        for m in basis:
            for row in m:
                # fix column c so that the row kills v
                rest = sum(x * y for j, (x, y) in enumerate(zip(row, v)) if j != c)
                row[c] = -rest / Fraction(v[c])
    return family, dim, [integral(m) for m in basis]


class TestInvertibleInSpan:
    @settings(max_examples=60, deadline=None)
    @given(matrix_spans())
    def test_matches_expr_berkowitz_oracle(self, span):
        family, dim, basis = span
        for seed in (0, 1):
            got = _subspace_contains_invertible(basis, dim, seed)
            assert got == invertible_in_span_oracle(basis, dim, seed)
        if family not in ("generic", "singular-sum"):
            assert got == (False, None)

    def test_empty_span(self):
        assert _subspace_contains_invertible([], 3) == (False, None)

    def test_witness_is_the_first_nonzero_draw(self):
        # span of e_11 and e_22: draws with a zero coefficient are skipped
        basis = [[[1, 0], [0, 0]], [[0, 0], [0, 2]]]
        for seed in range(5):
            ok, witness = _subspace_contains_invertible(basis, 2, seed)
            assert ok and witness[0][0] != 0 and witness[1][1] != 0
            assert (ok, witness) == invertible_in_span_oracle(basis, 2, seed)


def sympy_generic_det(basis, dim):
    """det(sum t_k B_k) by sympy's DomainMatrix over ZZ[t], packed in base 2 dim."""
    poly_ring, *ts = ring([f"t{k}" for k in range(len(basis))], ZZ)
    generic = [
        [
            sum((t * b[i][j] for t, b in zip(ts, basis)), poly_ring.zero)
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    value = DomainMatrix(generic, (dim, dim), poly_ring.to_domain()).det()
    return {pack(e, dim): int(c) for e, c in value.items()}


def pack(exponents, dim):
    return sum(e * (2 * dim) ** k for k, e in enumerate(exponents))


@st.composite
def linear_form_matrices(draw):
    """(basis, dim): integer matrices B_k, often sparse, of size up to 7."""
    dim = draw(st.integers(1, 7))
    k = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    basis = [[[draw(entry) for _ in range(dim)] for _ in range(dim)] for _ in range(k)]
    return basis, dim


class TestGenericDeterminant:
    @settings(max_examples=40, deadline=None)
    @given(linear_form_matrices())
    def test_matches_sympy_domain_matrix(self, case):
        basis, dim = case
        assert dict(_generic_det(basis, dim) or {}) == sympy_generic_det(basis, dim)

    def test_top_degree_stays_below_the_packing_base(self, monkeypatch):
        # t0 A + t1 B with A's leading minors nonzero: the last Bareiss
        # numerators hold t0^(2(n-1)), one short of the base 2n
        dim, rng = 7, random.Random(3)
        basis = [
            [[rng.randint(1, 5) for _ in range(dim)] for _ in range(dim)]
            for _ in range(2)
        ]
        top = []
        multiply = _Poly.__mul__

        def recording(a, b):
            product = multiply(a, b)
            for key in product:
                while key:
                    key, digit = divmod(key, 2 * dim)
                    top.append(digit)
            return product

        monkeypatch.setattr(_Poly, "__mul__", recording)
        value = _generic_det(basis, dim)
        assert max(top) == 2 * (dim - 1)
        monkeypatch.undo()
        assert value and dict(value) == sympy_generic_det(basis, dim)

    def test_inexact_division_raises(self):
        t0_squared_plus_1, t0 = _Poly({2: 1, 0: 1}), _Poly({1: 1})
        assert t0_squared_plus_1 * t0 // t0 == t0_squared_plus_1
        with pytest.raises(ValueError, match="inexact"):
            t0_squared_plus_1 // t0
        with pytest.raises(ValueError, match="inexact"):
            _Poly({1: 3}) // 2


class TestMatrixPair:
    def test_commutation_enforced(self):
        with pytest.raises(ValueError):
            make_pair([[0, 1], [0, 0]], [[0, 0], [1, 0]])

    @pytest.mark.parametrize(
        "mx, my, name",
        [
            # a float entry was read as the Fraction of its binary value
            (((0.1,),), ((0,),), "mx"),
            (((0.5,),), ((0,),), "mx"),
            (((0,),), (("a",),), "my"),
            (((None,),), ((0,),), "mx"),
            (((0,),), ((True,),), "my"),
        ],
        ids=str,
    )
    def test_entries_are_ints_or_fractions(self, mx, my, name):
        for build in (lambda: MatrixPair(1, mx, my), lambda: make_pair(mx, my)):
            with pytest.raises(ValueError, match=f"{name} has an entry"):
                build()

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: make_pair(5, [[0]]), "mx"),
            (lambda: make_pair([[0]], None), "my"),
            (lambda: is_cyclic(5), "pair"),
            (lambda: dual(None), "pair"),
            (lambda: module_isomorphic(make_pair([[0]], [[0]]), 5), "b"),
            (lambda: module_isomorphic("a", make_pair([[0]], [[0]])), "a"),
            (lambda: symplectic_exists("x"), "pair"),
        ],
        ids=["make-mx", "make-my", "cyclic", "dual", "iso-b", "iso-a", "symplectic"],
    )
    def test_arguments_that_are_no_pair_are_refused(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            call()

    def test_nilpotency(self):
        assert make_pair(*FOOTNOTE).is_nilpotent()
        assert not make_pair([[1, 0], [0, 1]], [[0, 0], [0, 0]]).is_nilpotent()

    def test_nilpotency_matches_literal_power(self):
        def literal(pair):
            for m in (pair.mx, pair.my):
                power = [list(r) for r in m]
                for _ in range(pair.dim - 1):
                    power = mat_mul(power, m)
                if any(x != 0 for row in power for x in row):
                    return False
            return True

        rng = random.Random(12)
        verdicts = set()
        for dim in range(1, 8):
            for _ in range(10):
                m = [
                    [rng.randint(-3, 3) if j > i else 0 for j in range(dim)]
                    for i in range(dim)
                ]
                if rng.random() < 0.4:
                    i = rng.randrange(dim)
                    m[i][i] = rng.choice((1, -2, Fraction(1, 2)))
                # hide the triangular shape: conjugate by I + c e_ij
                for _ in range(2 * (dim - 1)):
                    i, j = rng.sample(range(dim), 2)
                    c = rng.choice((-1, 1))
                    m[i] = [x + c * y for x, y in zip(m[i], m[j])]
                    for row in m:
                        row[j] -= c * row[i]
                pair = make_pair(m, mat_mul(m, m))
                verdicts.add(pair.is_nilpotent())
                assert pair.is_nilpotent() == literal(pair)
        assert verdicts == {True, False}

    def test_nilpotency_of_jordan_blocks(self):
        for dim in range(1, 10):
            jordan = [[int(j == i + 1) for j in range(dim)] for i in range(dim)]
            zero = [[0] * dim for _ in range(dim)]
            assert make_pair(jordan, zero).is_nilpotent()
            # the same block with one corner entry is a cyclic permutation
            jordan[dim - 1][0] = 1
            assert not make_pair(zero, jordan).is_nilpotent()
        assert not make_pair([[Fraction(1, 3)]], [[0]]).is_nilpotent()

    def test_json_roundtrip(self):
        p = make_pair(*REMARK)
        q = MatrixPair.from_json_dict(p.to_json_dict())
        assert q == p


class TestCyclicity:
    def test_footnote_pair(self):
        p = make_pair(*FOOTNOTE)
        assert is_cyclic(p)
        assert not is_cyclic(dual(p))

    def test_remark_pair(self):
        assert is_cyclic(make_pair(*REMARK))

    def test_against_brute_force(self):
        samples = [
            make_pair(*FOOTNOTE),
            dual(make_pair(*FOOTNOTE)),
            make_pair(*REMARK),
            dual(make_pair(*REMARK)),
            make_pair([[0, 1], [0, 0]], [[0, 0], [0, 0]]),
            make_pair([[0]], [[0]]),
            # 2 points worth of structure: x^2 = y = 0
            make_pair([[0, 0], [1, 0]], [[0, 0], [0, 0]]),
        ]
        for p in samples:
            assert is_cyclic(p) == brute_is_cyclic(p)

    def test_requires_nilpotent(self):
        with pytest.raises(ValueError):
            is_cyclic(make_pair([[1]], [[0]]))


def polynomial_texts():
    """Strings in the generator grammar, every composite operand in parentheses."""
    leaves = st.one_of(
        st.sampled_from(["x", "y"]),
        st.integers(0, 12).map(str),
        st.tuples(st.integers(0, 9), st.integers(1, 9)).map(
            lambda t: f"({t[0]}/{t[1]})"
        ),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from(["+", "-", "*"]), children).map(
                lambda t: f"({t[0]}) {t[1]} ({t[2]})"
            ),
            st.tuples(st.sampled_from(["-", "+"]), children).map(
                lambda t: f"{t[0]}({t[1]})"
            ),
            st.tuples(children, st.integers(0, 3)).map(lambda t: f"({t[0]})**{t[1]}"),
        )

    return st.recursive(leaves, extend, max_leaves=8)


class TestIdealConstruction:
    def test_fat_point(self):
        # C[x,y]/(x^2, xy, y^2) has dimension 3
        p = pair_from_ideal(["x**2", "x*y", "y**2"], 3)
        assert p.dim == 3
        assert p.is_nilpotent()
        assert is_cyclic(p)

    def test_curvilinear(self):
        for c in (1, 2, -3):
            p = pair_from_ideal([f"{c}*y - x**2", "x**3"], 4)
            assert p.dim == 3
            assert is_cyclic(p)
            # c y = x^2 in the quotient, so y acts as x twice, divided by c
            mx = [list(r) for r in p.mx]
            assert p == make_pair(
                mx, [[Fraction(v, c) for v in r] for r in mat_mul(mx, mx)]
            )

    def test_square_ideal(self):
        p = pair_from_ideal(["x**2", "y**2"], 4)
        assert p.dim == 4
        assert is_cyclic(p)

    def test_truncation_stabilization_check(self):
        with pytest.raises(ValueError):
            pair_from_ideal(["x"], 2)  # infinite colength in y

    def test_generators_in_the_grammar(self):
        # fractions of literals, unary signs and literal exponents are read;
        # the curvilinear ideal again, written differently
        p = pair_from_ideal(["-(1/2)*x**2 + +y*(4/8)", "x**3"], 4)
        assert p == pair_from_ideal(["y - x**2", "x**3"], 4)

    @pytest.mark.parametrize(
        "generator",
        ["x/2", "x**-1", "x**(1/2)", "0.5*x", "x^2", "1/0*x", "2x", "z", "True*x"],
    )
    def test_generators_outside_the_grammar(self, generator):
        with pytest.raises(ValueError):
            pair_from_ideal([generator, "x**2", "y**2"], 3)

    @settings(max_examples=150, deadline=None)
    @given(polynomial_texts(), st.integers(1, 12))
    def test_reader_matches_sympy(self, text, top):
        x, y = sympy.symbols("x y")
        expr = sympy.sympify(text, locals={"x": x, "y": y})
        poly = sympy.Poly(expr, x, y, domain="QQ")
        expected = {
            (a, b): Fraction(c.p, c.q)
            for (a, b), c in poly.terms()
            if c and a + b <= top
        }
        terms = _generator_terms(text, top)
        assert {(a, b): c for a, b, c in terms} == expected
        assert len(terms) == len(expected)

    def test_large_exponents_cost_their_bit_length(self):
        fat_point = pair_from_ideal(["x**2", "x*y", "y**2"], 3)
        for generator in (
            "(x+y)**800 + x**2",
            f"x**{10**6} + x**2",
            f"x**2 - (1 + x)**{10**100} * y**{10**4000}",
        ):
            start = time.perf_counter()
            assert pair_from_ideal([generator, "x*y", "y**2"], 3) == fat_point
            assert time.perf_counter() - start < 0.1

    def test_power_bound_counts_the_terms_of_the_power(self):
        # 91 terms of degree <= 12, each carrying (2/3)**25000
        generator = "(2/3 + x + y)**25000 - (2/3)**25000"
        start = time.perf_counter()
        with pytest.raises(ValueError, match="constant term past 100000 bits"):
            pair_from_ideal([generator, "x**9", "y**9"], 12)
        assert time.perf_counter() - start < 0.5
        # one variable: 13 terms
        with pytest.raises(ValueError, match="constant term past 100000 bits"):
            _generator_terms("(2/3 + x**2)**2000", 12)
        assert len(_generator_terms("(2/3 + x**2)**1923", 12)) == 7

    def test_power_of_a_large_constant_term_is_refused_at_once(self):
        generator = "(2/3 + x)**1000000 - (2/3)**1000000"
        start = time.perf_counter()
        with pytest.raises(ValueError, match="constant term past 100000 bits"):
            pair_from_ideal([generator, "x*y", "y**2"], 3)
        assert time.perf_counter() - start < 0.1
        # the bound is exponent times the bit lengths of 2 and 3
        assert len(_generator_terms("(2/3 + x)**25000", 0)) == 1
        with pytest.raises(ValueError):
            _generator_terms("(2/3 + x)**25001", 0)
        assert sorted(_generator_terms("(2/3 + x)**3", 3)) == [
            (0, 0, Fraction(8, 27)), (1, 0, Fraction(4, 3)), (2, 0, 2), (3, 0, 1)
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["0", "1", "-1", "2/3", "-3"]),
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2)).filter(
                lambda t: t[1] + t[2] > 0
            ),
            max_size=3,
        ),
        st.integers(0, 60),
        st.integers(0, 8),
    )
    def test_powers_match_sympy(self, c, u_terms, exponent, top):
        # (c + u)**exponent, with u free of constant terms
        u = " + ".join(f"({k})*x**{a}*y**{b}" for k, a, b in u_terms) or "0"
        text = f"({c} + {u})**{exponent}"
        poly, x, y = ring("x,y", QQ)
        base = poly(QQ(*map(int, c.split("/")))) + sum(
            (k * x**a * y**b for k, a, b in u_terms), poly.zero
        )
        expected = {
            (a, b): Fraction(v.numerator, v.denominator)
            # the ring refuses 0**0, which the reader, like Python, takes as 1
            for (a, b), v in (base**exponent if exponent else poly.one).terms()
            if a + b <= top
        }
        assert {(a, b): v for a, b, v in _generator_terms(text, top)} == expected

    def test_powers_with_a_unit_constant_term_are_bounded(self):
        # C(10**100, 12) has 3,958 bits, in each of 91 terms of degree <= 12
        for generators, truncation in (
            (["(1 + x + y)**" + str(10**100) + " - 1", "x**9", "y**9"], 12),
            (["(-1 + x + 2*y)**" + str(10**100) + " - 1", "x**5", "y**5"], 32),
        ):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="constant term past 100000 bits"):
                pair_from_ideal(generators, truncation)
            assert time.perf_counter() - start < 0.1
        # C(2**8334, 3) has 25,000 bits and C(2**8335, 3) 25,003, in each of
        # the 4 terms of degree <= 3 in x
        assert len(_generator_terms(f"(-1 + x)**{2**8334}", 3)) == 4
        with pytest.raises(ValueError, match="constant term past 100000 bits"):
            _generator_terms(f"(1 + x)**{2**8335}", 3)

    def test_one_elimination_per_ideal(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return echelon(*args)

        monkeypatch.setattr(hilbmatrix, "echelon", counted)
        for generators, truncation in (
            (["x**2", "x*y", "y**2"], 3),
            (["y - x**2", "x**3"], 4),
            (["x"], 2),
            (["x**2", "y**2"], 2),
        ):
            calls.clear()
            try:
                pair_from_ideal(generators, truncation)
            except ValueError as exc:
                assert "colength not stabilized" in str(exc)
            assert len(calls) == 1

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(polynomial_texts(), min_size=1, max_size=3),
        st.lists(st.sampled_from(["x**2", "x**3", "y**2", "y**4", "x*y"]), max_size=2),
        st.integers(1, 7),
    )
    def test_one_elimination_matches_two_systems(self, generators, extra, truncation):
        # non-stabilized ideals and the unit ideal included: then both raise
        outcomes = []
        for build in (pair_from_ideal, pair_from_ideal_two_systems):
            try:
                outcomes.append(build(generators + extra, truncation))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("truncation", [2.5, True, "3", 0])
    def test_truncation_must_be_a_positive_int(self, truncation):
        with pytest.raises(ValueError, match="truncation must be a positive integer"):
            pair_from_ideal(["x**2", "x*y", "y**2"], truncation)

    # one string, "xy", was read as the generators x and y
    @pytest.mark.parametrize(
        "generators", [[5, "x*y", "y**2"], [b"x**2", "x*y"], [], "xy"]
    )
    def test_generators_must_be_strings(self, generators):
        with pytest.raises(ValueError, match="generator"):
            pair_from_ideal(generators, 3)

    def test_oversized_system_is_refused_before_it_is_built(self, monkeypatch):
        def build(*args):
            raise AssertionError("reached the reader")

        monkeypatch.setattr(hilbmatrix, "_generator_terms", build)
        fat_point = ["x**2", "x*y", "y**2"]
        for truncation in (33, 10**6, 10**100):
            with pytest.raises(ValueError, match="more than 1000000"):
                pair_from_ideal(fat_point, truncation)
        # 3 * (33 * 34 / 2)^2 entries is the largest three generators get
        with pytest.raises(AssertionError, match="reached the reader"):
            pair_from_ideal(fat_point, 32)

    def test_remark_ideal_matches_remark_pair(self):
        # the colength-4 ideal (x^2, xy - y^2... ) reproducing the 4x4 pair:
        # its module is isomorphic to the pair as printed, not to its dual
        p = pair_from_ideal(["x**2 - x*y", "y**2 - x*y", "x*y*y", "x*x*y"], 4)
        assert p.dim == 4


def partitions(n, largest=None):
    """Partitions of n as non-increasing tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def monomial(a, b):
    return f"x**{a}*y**{b}"


def monomial_ideal(lam):
    """Minimal generators of I_lambda, whose diagram holds x^a y^b with
    b < lam[a], and the truncation N = len(lam) + lam[0] - 1."""
    gens = [monomial(len(lam), 0), monomial(0, lam[0])]
    gens += [monomial(i, lam[i]) for i in range(1, len(lam)) if lam[i] < lam[i - 1]]
    return gens, len(lam) + lam[0] - 1


def redundant_presentation(lam):
    """The same ideal with extra members and one more degree of truncation:
    a binomial combination of two generators and a monomial outside the
    diagram."""
    gens, truncation = monomial_ideal(lam)
    gens = gens + [f"2*({gens[0]}) - x*y*({gens[-1]})", monomial(len(lam), lam[0])]
    return gens[::-1], truncation + 1


ALL_SMALL_PARTITIONS = [lam for n in range(1, 6) for lam in partitions(n)]


class TestMonomialIdeals:
    """C[x,y]/I_lambda for every |lambda| <= 5, in two presentations."""

    @pytest.mark.parametrize("present", [monomial_ideal, redundant_presentation])
    @pytest.mark.parametrize("lam", ALL_SMALL_PARTITIONS, ids=str)
    def test_colength_cyclicity_and_gorenstein(self, lam, present):
        pair = pair_from_ideal(*present(lam))
        assert pair.dim == sum(lam)
        assert is_cyclic(pair)
        d = dual(pair)
        # in two variables Gorenstein means complete intersection: the dual
        # is cyclic, and the module self-dual, exactly for rectangles
        rectangle = len(set(lam)) == 1
        assert is_cyclic(d) == module_isomorphic(pair, d)[0] == rectangle

    def test_presentations_give_the_same_pair(self):
        for lam in ALL_SMALL_PARTITIONS:
            assert pair_from_ideal(*monomial_ideal(lam)) == pair_from_ideal(
                *redundant_presentation(lam)
            )


class TestDuality:
    def test_self_dual_exactly_for_rectangles(self):
        # C[x,y]/I_lambda is Gorenstein, so isomorphic to its dual, exactly
        # when lambda is a rectangle; dualizing twice gives the pair back
        for lam in ALL_SMALL_PARTITIONS:
            p = pair_from_ideal(*monomial_ideal(lam))
            ok, witness = module_isomorphic(p, dual(p))
            assert ok == (len(set(lam)) == 1)
            assert (witness is not None) == ok
            assert dual(dual(p)) == p

    def test_module_isomorphic_detects_self(self):
        p = make_pair(*REMARK)
        ok, wit = module_isomorphic(p, p)
        assert ok
        w = [list(r) for r in wit]
        assert mat_mul(w, [list(r) for r in p.mx]) == mat_mul(
            [list(r) for r in p.mx], w
        )

    def test_remark_pair_not_isomorphic_to_dual(self):
        p = make_pair(*REMARK)
        ok, _ = module_isomorphic(p, dual(p))
        assert not ok

    def test_dimension_mismatch(self):
        assert module_isomorphic(
            make_pair(*FOOTNOTE), make_pair(*REMARK)
        ) == (False, None)


@st.composite
def commuting_pairs(draw, dim):
    """(m, c m^2 + d m + e I) for a small rational m, most entries 0."""
    m = [[draw(_SMALL) if draw(st.booleans()) else 0 for _ in range(dim)]
         for _ in range(dim)]
    c, d, e = draw(_SMALL), draw(_SMALL), draw(_SMALL)
    m2 = mat_mul(m, m)
    return make_pair(m, [
        [c * m2[i][j] + d * m[i][j] + e * (i == j) for j in range(dim)]
        for i in range(dim)
    ])


class TestLinearSystems:
    """The sparse equations give the nullspaces of the literal dense ones."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(commuting_pairs(n), commuting_pairs(n))))
    def test_sylvester_solution_space(self, pairs):
        a, b = pairs
        m = a.dim
        expected = [
            [[v[i * m + j] for j in range(m)] for i in range(m)]
            for v in rational_nullspace(literal_sylvester_rows(a, b))
        ]
        assert _sylvester_solution_space(a, b) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(commuting_pairs))
    def test_skew_solution_space(self, pair):
        m = pair.dim
        positions = list(itertools.combinations(range(m), 2))
        expected = []
        for v in rational_nullspace(literal_skew_rows(pair)) if positions else []:
            phi = [[0] * m for _ in range(m)]
            for x, (k, l) in zip(v, positions):
                phi[k][l], phi[l][k] = x, -x
            expected.append(phi)
        basis = [[list(r) for r in phi] for phi in symplectic_exists(pair).basis]
        assert basis == expected


class TestSymplectic:
    @pytest.mark.parametrize("lam", [(3, 2, 1), (4, 2), (2, 2, 1, 1)])
    def test_basis_entries_are_ints(self, lam):
        # the basis is built from primitive integer null-space vectors
        basis = symplectic_exists(ideal_pair(lam)).basis
        assert basis and all(type(x) is int for phi in basis for row in phi for x in row)

    def test_remark_pair_has_no_invertible_skew(self):
        skew = symplectic_exists(make_pair(*REMARK))
        assert len(skew.basis) == 2
        assert not skew.contains_invertible
        assert skew.witness is None
        # verify the returned basis solves the skew equations
        for phi in skew.basis:
            p = [list(r) for r in phi]
            assert p == [[-x for x in row] for row in transpose(p)]
            for mat in REMARK:
                lhs = mat_mul(p, mat)
                rhs = mat_mul(transpose(mat), p)
                assert all(
                    a + b == 0
                    for ra, rb in zip(lhs, rhs)
                    for a, b in zip(ra, rb)
                )

    def test_standard_sp4_pair_has_symplectic_form(self):
        # commuting nilpotents inside sp(4): an invertible skew exists
        a = [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ]
        b = [
            [0, 0, 1, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ]
        skew = symplectic_exists(make_pair(a, b))
        assert skew.contains_invertible
        phi = [list(r) for r in skew.witness]
        # a symplectic form: skew and nondegenerate
        assert transpose(phi) == [[-x for x in r] for r in phi]
        assert rational_rank(phi) == len(phi)

    def test_brute_force_invertibility_agreement(self):
        # exhaust small rational combinations of the remark skew basis
        skew = symplectic_exists(make_pair(*REMARK))
        for c1 in range(-3, 4):
            for c2 in range(-3, 4):
                combo = [
                    [
                        c1 * Fraction(skew.basis[0][i][j])
                        + c2 * Fraction(skew.basis[1][i][j])
                        for j in range(4)
                    ]
                    for i in range(4)
                ]
                assert rational_rank(combo) < 4


PARTITIONS_TO_7 = [lam for n in range(1, 8) for lam in partitions(n)]
_IDEAL_PAIRS = {}


def ideal_pair(lam):
    """C[x,y]/I_lambda, built once per partition."""
    if lam not in _IDEAL_PAIRS:
        _IDEAL_PAIRS[lam] = pair_from_ideal(*monomial_ideal(lam))
    return _IDEAL_PAIRS[lam]


def conjugate(pair, seed):
    """U pair U^-1 for a seeded product U of transvections I +- e_ij."""
    rng, n = random.Random(seed), pair.dim
    mats = [[list(r) for r in m] for m in (pair.mx, pair.my)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for m in mats:
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            for row in m:
                row[j] -= c * row[i]
    return make_pair(*mats)


def direct_sum(a, b):
    return make_pair(*(
        [list(r) + [0] * b.dim for r in ma] + [[0] * a.dim + list(r) for r in mb]
        for ma, mb in ((a.mx, b.mx), (a.my, b.my))
    ))


@st.composite
def modules(draw):
    """A nilpotent commuting pair: C[x,y]/I_lambda up to colength 7, its
    dual, a direct sum of two of them of total size at most 5, a zero pair
    or one of FOOTNOTE and REMARK; up to size 5, half the time conjugated by a unimodular integer
    matrix (the det-first oracle takes up to a second on a conjugate of
    size 7)."""
    kind = draw(st.sampled_from(["ideal", "dual", "sum", "zero", "example"]))
    if kind == "example":
        pair = make_pair(*draw(st.sampled_from([FOOTNOTE, REMARK])))
    elif kind == "zero":
        n = draw(st.integers(1, 4))
        pair = make_pair([[0] * n] * n, [[0] * n] * n)
    elif kind == "sum":
        lam = draw(st.sampled_from(PARTITIONS_TO_7[:7]))
        mu = draw(st.sampled_from([m for m in PARTITIONS_TO_7 if sum(m) <= 5 - sum(lam)]))
        pair = direct_sum(ideal_pair(lam), ideal_pair(mu))
    else:
        lam = draw(st.sampled_from(PARTITIONS_TO_7))
        pair = ideal_pair(lam) if kind == "ideal" else dual(ideal_pair(lam))
    if pair.dim <= 5 and draw(st.booleans()):
        pair = conjugate(pair, draw(st.integers(0, 2**16)))
    return pair


def outcome(f, *args):
    """f(*args), or the text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


class TestExactCertificates:
    """Odd skew size and the ranks [x | y], [x ; y] decide before any
    determinant, and a first draw that is a witness before the generic one."""

    @settings(max_examples=120, deadline=None)
    @given(
        modules(),
        st.sampled_from(["conjugate", "dual", "other"]),
        modules(),
        st.integers(0, 2**16),
        st.integers(0, 3),
    )
    def test_verdicts_match_det_first_oracle(self, a, relation, other, u, seed):
        hide = (lambda p: conjugate(p, u)) if a.dim <= 5 else (lambda p: p)
        b = {"conjugate": hide(a), "dual": hide(dual(a)), "other": other}[relation]
        assert outcome(module_isomorphic, a, b, seed) == outcome(
            module_isomorphic_det_first, a, b, seed
        )
        assert outcome(symplectic_exists, a, seed) == outcome(
            symplectic_exists_det_first, a, seed
        )

    def test_generic_determinant_runs_on_few_spans(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _generic_det(*args)

        monkeypatch.setattr(hilbmatrix, "_generic_det", counted)
        lams = [lam for n in (6, 7) for lam in partitions(n)]
        assert len(lams) == 26
        for lam in lams:
            pair = ideal_pair(lam)
            d = dual(pair)
            assert is_cyclic(pair) and is_cyclic(d) == (len(set(lam)) == 1)
            symplectic_exists(pair)
            module_isomorphic(pair, d)
        # the det-first path takes 52; every span left after the rank
        # certificates holds an invertible element, found by a draw
        assert len(calls) == 0

    def test_singular_span_takes_the_generic_determinant_after_the_draws(
        self, monkeypatch
    ):
        # the skew 4x4 matrices whose first row and column are zero: an even
        # span none of whose elements is invertible
        basis = []
        for k, l in itertools.combinations(range(1, 4), 2):
            phi = [[0] * 4 for _ in range(4)]
            phi[k][l], phi[l][k] = 1, -1
            basis.append(phi)
        events = []

        def counted_det(m):
            events.append("det")
            return det(m)

        def counted_generic(*args):
            events.append("generic")
            return _generic_det(*args)

        monkeypatch.setattr(hilbmatrix, "det", counted_det)
        monkeypatch.setattr(hilbmatrix, "_generic_det", counted_generic)
        assert _subspace_contains_invertible(basis, 4, seed=3) == (False, None)
        assert events.index("generic") == _DRAWS_BEFORE_GENERIC_DET == 8
        assert events.count("generic") == 1

    def test_conjugated_self_dual_pair_takes_no_generic_determinant(
        self, monkeypatch
    ):
        # C[x,y]/(x^7, y) against its dual, each hidden by a unimodular
        # conjugation: the generic determinant of this span takes 0.5-1 s,
        # and its first seeded draw is singular
        p = pair_from_ideal(["x**7", "y"], 7)
        a, b = conjugate(p, 1), conjugate(dual(p), 8)
        calls = []

        def counted(*args):
            calls.append(args)
            return _generic_det(*args)

        monkeypatch.setattr(hilbmatrix, "_generic_det", counted)
        ok, witness = module_isomorphic(a, b)
        assert ok and not calls
        w = [list(r) for r in witness]
        assert rational_rank(w) == 7
        for ma, mb in ((a.mx, b.mx), (a.my, b.my)):
            ma, mb = [list(r) for r in ma], [list(r) for r in mb]
            assert mat_mul(w, ma) == mat_mul(mb, w)

    @seed(23)
    @settings(max_examples=80, deadline=None)
    @given(modules(), st.booleans())
    def test_ranks_match_the_literal_route(self, pair, ranks_first):
        # dual(pair) swaps the pair's ranks when they are known and computes
        # its own otherwise; both must be the dense-row ranks of the transpose
        pair = make_pair(pair.mx, pair.my)
        expected = pair_ranks_literal(pair)
        if ranks_first:
            assert pair.ranks == expected
        d = dual(pair)
        assert ("ranks" in vars(d)) == ranks_first
        assert d.ranks == pair_ranks_literal(d) == expected[::-1]
        assert pair.ranks == expected

    def test_odd_size_takes_no_determinant(self, monkeypatch):
        def refused(*args):
            raise AssertionError("generic determinant taken")

        for lam in [(7,), (3, 2, 2), (2, 1)]:
            pair = ideal_pair(lam)
            expected = symplectic_exists_det_first(pair)
            monkeypatch.setattr(hilbmatrix, "_generic_det", refused)
            got = symplectic_exists(pair)
            monkeypatch.undo()
            assert got == expected and not got.contains_invertible
