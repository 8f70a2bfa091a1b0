"""Bigraded polynomial ring and Hilbert-scheme series, with brute oracles."""

import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import goettsche_partition_sum, sym_power_by_factors
from weylorb.hodgepoly import (
    MAX_SERIES_N,
    BigradedPoly,
    abelian_surface,
    generating_series,
    goettsche,
    kummer_k3,
    kummer_singular,
    partitions,
    sym_power,
    two_torsion,
)

coeff_maps = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.integers(-9, 9),
    max_size=6,
)
polys = coeff_maps.map(BigradedPoly)


class TestRingLaws:
    @settings(max_examples=60, deadline=None)
    @given(polys, polys, polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + BigradedPoly.zero() == a
        assert a * BigradedPoly.one() == a
        assert a - a == BigradedPoly.zero()

    @settings(max_examples=40, deadline=None)
    @given(polys, st.integers(-3, 3), st.integers(-3, 3))
    def test_specialize_is_ring_hom_on_products(self, a, x0, y0):
        b = BigradedPoly({(1, 0): 2, (0, 1): -1, (2, 2): 3})
        assert (a * b).specialize(x0, y0) == a.specialize(x0, y0) * b.specialize(
            x0, y0
        )

    def test_zero_coefficients_are_dropped(self):
        assert BigradedPoly({(1, 1): 0}) == BigradedPoly.zero()
        assert not BigradedPoly({(2, 0): 3}) - BigradedPoly({(2, 0): 3})

    def test_negative_bidegree_rejected(self):
        with pytest.raises(ValueError):
            BigradedPoly({(-1, 0): 1})

    @pytest.mark.parametrize(
        "key", [(0.5, 0), (0, 1.0), (Fraction(1), 0), (True, 0)], ids=repr
    )
    def test_bidegree_that_is_no_int_rejected(self, key):
        # int() once read (0.5, 0) as the constant term
        with pytest.raises(ValueError, match="not a pair of ints"):
            BigradedPoly({key: 1})

    @pytest.mark.parametrize(
        "coeff", [0.5, 1.0, 0.0, True, False, "1", None, np.float64(2)], ids=repr
    )
    def test_inexact_coefficient_rejected(self, coeff):
        # a float term once stayed in what is an integer polynomial
        with pytest.raises(ValueError, match="is not exact"):
            BigradedPoly({(0, 1): 1, (1, 1): coeff})

    def test_exact_coefficients_accepted(self):
        p = BigradedPoly({(0, 0): np.int64(2), (1, 0): Fraction(1, 2), (0, 1): 3})
        assert p.coeffs == {(0, 0): 2, (1, 0): Fraction(1, 2), (0, 1): 3}
        assert (p * Fraction(2)).coeffs == {(0, 0): 4, (1, 0): 1, (0, 1): 6}

    def test_numpy_integer_coefficients_are_stored_as_ints(self):
        # an np.int64 coefficient once wrapped: 2**62 * 4 gave the zero polynomial
        p = BigradedPoly({(0, 0): np.int64(2**62), (1, 0): np.int32(3)})
        assert all(type(c) is int for c in p.coeffs.values())
        assert (p * 4).coeffs == {(0, 0): 2**64, (1, 0): 12}

    def test_numpy_integer_bidegree_accepted(self):
        p = BigradedPoly({(np.int64(1), np.int32(2)): 3})
        assert p == BigradedPoly.monomial(1, 2, 3)
        assert all(type(x) is int for key in p.coeffs for x in key)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="negative exponent -1"):
            BigradedPoly.monomial(1, 1) ** -1

    def test_json_roundtrip(self):
        p = BigradedPoly({(0, 0): 1, (1, 1): 20, (2, 2): 1})
        rows = p.to_json_rows()
        assert BigradedPoly({(r["p"], r["q"]): r["h"] for r in rows}) == p


class TestStandardSurfaces:
    def test_abelian_surface_betti(self):
        h = abelian_surface()
        # binomial Hodge numbers of a 2-torus: h^{p,q} = C(2,p) C(2,q)
        for p in range(3):
            for q in range(3):
                assert h[(p, q)] == comb(2, p) * comb(2, q)
        assert h.specialize(-1, -1) == 0
        assert h.specialize(1, 1) == 16

    def test_kummer_surfaces(self):
        assert kummer_singular() == BigradedPoly(
            {(0, 0): 1, (2, 0): 1, (1, 1): 4, (0, 2): 1, (2, 2): 1}
        )
        k3 = kummer_k3()
        assert k3[(1, 1)] == 20
        assert k3.specialize(-1, -1) == 24
        assert k3 == kummer_singular() + two_torsion() * BigradedPoly.monomial(1, 1)

    def test_symmetry_predicates(self):
        assert kummer_k3().is_hodge_symmetric()
        assert kummer_k3().is_centrally_symmetric(1)
        assert not BigradedPoly({(1, 0): 1}).is_hodge_symmetric()


def brute_sym_square(h):
    """Sym^2 by explicit basis enumeration with Koszul signs.

    Even-degree classes commute (choose with repetition), odd-degree classes
    anticommute (choose strictly), and an even-odd mixed product is free.
    """
    basis = []
    for (p, q), c in h.coeffs.items():
        basis.extend([(p, q)] * c)
    out = {}
    for i, (p1, q1) in enumerate(basis):
        for j, (p2, q2) in enumerate(basis):
            if j < i:
                continue
            odd1, odd2 = (p1 + q1) % 2, (p2 + q2) % 2
            if i == j and odd1:
                continue  # an odd class squares to zero
            key = (p1 + p2, q1 + q2)
            out[key] = out.get(key, 0) + 1
    return BigradedPoly(out)


class TestSymPower:
    def test_sym2_against_brute_force(self):
        for h in (abelian_surface(), kummer_singular(), kummer_k3()):
            assert sym_power(h, 2) == brute_sym_square(h)

    def test_sym_constant(self):
        # Sym^l of a 16-dimensional even space has dim C(16+l-1, l)
        for l in range(4):
            assert sym_power(two_torsion(), l).specialize(1, 1) == comb(
                15 + l, l
            )

    def test_sym_zero_and_one(self):
        h = kummer_k3()
        assert sym_power(h, 0) == BigradedPoly.one()
        assert sym_power(h, 1) == h

    def test_odd_exterior_truncation(self):
        # a single odd class: Sym^2 vanishes
        odd = BigradedPoly({(1, 0): 1})
        assert sym_power(odd, 2) == BigradedPoly.zero()
        # two odd classes: Sym^2 is their exterior square, one class
        odd2 = BigradedPoly({(1, 0): 2})
        assert sym_power(odd2, 2) == BigradedPoly({(2, 0): 1})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sym_power(kummer_k3(), -1)
        with pytest.raises(ValueError):
            sym_power(BigradedPoly({(0, 0): -1}), 2)


@pytest.mark.parametrize("value", [1.5, 2.0, True, "2"], ids=repr)
@pytest.mark.parametrize(
    "call,name",
    [
        (sym_power, "l"),
        (goettsche, "n"),
        (generating_series, "n_max"),
    ],
    ids=["sym_power", "goettsche", "generating_series"],
)
def test_power_that_is_no_int_is_refused(call, name, value):
    # 1.5 and 2.0 once raised TypeError from range(), and True ran as 1
    with pytest.raises(ValueError, match=f"{name} must be an int, not {value!r}"):
        call(kummer_k3(), value)


@pytest.mark.parametrize("surface", [5, None, {(0, 0): 1}], ids=repr)
@pytest.mark.parametrize(
    "call", [sym_power, goettsche, generating_series], ids=lambda f: f.__name__
)
def test_surface_that_is_no_polynomial_is_refused(call, surface):
    # 5 once raised AttributeError: 'int' object has no attribute 'coeffs'
    with pytest.raises(ValueError, match="the surface must be a BigradedPoly"):
        call(surface, 2)


class TestPartitions:
    def test_counts(self):
        # number of partitions of n
        expected = [1, 1, 2, 3, 5, 7, 11, 15]
        for n, e in enumerate(expected):
            assert len(list(partitions(n))) == e

    def test_multiplicity_encoding(self):
        for n in range(1, 8):
            for alpha in partitions(n):
                assert sum((i + 1) * a for i, a in enumerate(alpha)) == n


def euler_product_coefficients(n_max):
    """Coefficients of prod_m (1 - q^m)^(-24) by iterated series division."""
    series = [0] * (n_max + 1)
    series[0] = 1
    for m in range(1, n_max + 1):
        for _ in range(24):
            # multiply by (1 - q^m)^(-1) = 1 + q^m + q^2m + ...
            for k in range(m, n_max + 1):
                series[k] += series[k - m]
    return series


class TestGoettsche:
    def test_euler_series_against_eta_product(self):
        values = generating_series(kummer_k3(), 5, "euler")
        assert values == euler_product_coefficients(5)[:6]
        assert values[:4] == [1, 24, 324, 3200]

    def test_n1_is_the_surface(self):
        for h in (abelian_surface(), kummer_k3()):
            assert goettsche(h, 1) == h

    def test_signature_specialization_is_finite(self):
        vals = generating_series(kummer_k3(), 3, "signature")
        assert vals[0] == 1
        assert all(isinstance(v, int) for v in vals)

    def test_symmetries_of_hilbert_scheme_polys(self):
        for n in range(1, 5):
            h = goettsche(kummer_k3(), n)
            assert h.is_hodge_symmetric()
            assert h.is_centrally_symmetric(n)

    def test_unknown_specialization_rejected(self):
        with pytest.raises(ValueError, match="'foo'.*euler, signature"):
            generating_series(kummer_k3(), 2, "foo")

    @pytest.mark.parametrize("spec", [(1.5, 1), (1,), (1, 1, 1), (True, 1), 5, {1, 2}])
    def test_specialization_must_be_a_pair_of_ints(self, spec):
        # (1.5, 1) gave floats such as 36.5, and (1,) raised TypeError
        with pytest.raises(ValueError, match="a name or a pair of ints"):
            generating_series(kummer_k3(), 3, spec)

    def test_explicit_pair_specialization(self):
        vals = generating_series(kummer_k3(), 2, (1, 1))
        assert vals[0] == 1
        assert vals[1] == 24


SURFACES = {
    "kummer_k3": kummer_k3,
    "abelian_surface": abelian_surface,
    "kummer_singular": kummer_singular,
    "two_torsion": two_torsion,
}
# even and odd classes of several dimensions, one at (0, 0) and one off the
# diagonal, so that every branch and shift of a factor shows
MIXED = BigradedPoly({(0, 0): 2, (1, 0): 3, (0, 1): 1, (2, 1): 2, (3, 3): 1})


class TestGoettscheProduct:
    """The truncated product against the factor series and partition sum."""

    @pytest.mark.parametrize("name", sorted(SURFACES))
    def test_product_matches_partition_sum(self, name):
        h = SURFACES[name]()
        expected = [goettsche_partition_sum(h, n) for n in range(13)]
        assert [goettsche(h, n) for n in range(13)] == expected
        assert generating_series(h, 12, None) == expected
        assert generating_series(h, 12, "signature") == [
            e.specialize(-1, 1) for e in expected
        ]

    @pytest.mark.parametrize(
        "h",
        [
            abelian_surface(),
            kummer_k3(),
            two_torsion(),
            MIXED,
            BigradedPoly({(1, 0): 1}),
            BigradedPoly({(2, 1): 5, (1, 1): 1}),
        ],
        ids=["abelian", "k3", "two_torsion", "mixed", "one_odd", "five_odd"],
    )
    def test_sym_power_matches_factor_series(self, h):
        for l in range(9):
            assert sym_power(h, l) == sym_power_by_factors(h, l)

    def test_series_bound(self):
        n = MAX_SERIES_N + 1
        message = f"n = {n} is above the series bound {MAX_SERIES_N}"
        with pytest.raises(ValueError, match=message):
            generating_series(abelian_surface(), n, None)
        with pytest.raises(ValueError, match=message):
            goettsche(abelian_surface(), n)
        # refused before any work, however large
        with pytest.raises(ValueError, match="above the series bound"):
            generating_series(kummer_k3(), 10**100)
