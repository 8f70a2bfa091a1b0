"""F2 characteristic classes of flat line-bundle sums on tori."""

import itertools
from math import comb

import pytest

from weylorb.flatf2 import (
    ExteriorF2Element,
    F2Class,
    line_bundle_cohomology,
    so_bundle_deformation_dim,
    spin8_check,
    total_sw_class,
)


class TestF2Class:
    def test_from_string(self):
        a = F2Class.from_string("101")
        assert a.bits == (1, 0, 1)
        assert str(a) == "101"

    def test_addition_is_xor(self):
        a = F2Class.from_string("110")
        b = F2Class.from_string("011")
        assert (a + b).bits == (1, 0, 1)
        assert (a + a).is_zero()

    def test_validation(self):
        with pytest.raises(ValueError):
            F2Class.from_string("102")
        with pytest.raises(ValueError):
            F2Class.from_string("1") + F2Class.from_string("10")

    @pytest.mark.parametrize("bits", [(2,), (0, -1), (True,), (1.0,), [0, 1], "01"])
    def test_bits_that_are_not_a_tuple_of_0s_and_1s_are_refused(self, bits):
        # (2,) was once accepted as a class
        with pytest.raises(ValueError, match="bits must be a tuple of 0s and 1s"):
            F2Class(bits)

    @pytest.mark.parametrize("s", [5, None, ["0", "1"]], ids=repr)
    def test_bitstring_that_is_no_str_is_refused(self, s):
        # from_string(5) once raised TypeError
        with pytest.raises(ValueError, match="bad bitstring"):
            F2Class.from_string(s)


class TestExteriorAlgebra:
    def test_generators_square_to_zero(self):
        a = ExteriorF2Element(3, frozenset({(0,)}))
        assert (a * a).is_zero()

    def test_characteristic_two_commutativity(self):
        a = ExteriorF2Element(3, frozenset({(0,), (1,)}))
        b = ExteriorF2Element(3, frozenset({(1,), (2,)}))
        assert a * b == b * a

    def test_addition_cancels(self):
        a = ExteriorF2Element(2, frozenset({(0, 1)}))
        assert (a + a).is_zero()

    def test_degree_part(self):
        w = total_sw_class(["10", "01", "11"])
        for d in range(3):
            part = w.degree_part(d)
            assert all(len(m) == d for m in part.monomials)

    def test_terms_text(self):
        e = ExteriorF2Element(3, frozenset({(), (0, 1)}))
        assert e.terms_text() == "1 + ab"


class TestLineBundleCohomology:
    def test_trivial_class_is_binomial(self):
        for n in range(1, 5):
            for k in range(n + 1):
                assert line_bundle_cohomology(n, k, "0" * n) == comb(n, k)

    def test_nontrivial_class_vanishes(self):
        for n in range(1, 5):
            for bits in itertools.product("01", repeat=n):
                s = "".join(bits)
                if s == "0" * n:
                    continue
                for k in range(n + 1):
                    assert line_bundle_cohomology(n, k, s) == 0

    def test_range_check(self):
        with pytest.raises(ValueError):
            line_bundle_cohomology(2, 3, "00")

    @pytest.mark.parametrize(
        "n,k,name", [(2, 1.0, "k"), (2.0, 1, "n"), (2, True, "k")], ids=repr
    )
    def test_degree_that_is_no_int_is_refused(self, n, k, name):
        # k = 1.0 once raised TypeError from comb()
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            line_bundle_cohomology(n, k, "00")


@pytest.mark.parametrize(
    "call",
    [
        lambda: line_bundle_cohomology(2, 1, 5),
        lambda: total_sw_class([5]),
        lambda: so_bundle_deformation_dim(["01", (0, 1)]),
    ],
    ids=["cohomology", "whitney", "deformation"],
)
def test_class_that_is_no_class_or_bitstring_is_refused(call):
    # each once raised AttributeError on a.n
    with pytest.raises(ValueError, match="is not an F2Class or a bitstring"):
        call()


class TestWhitneyClass:
    def test_multiplicativity(self):
        # w(E + F) = w(E) w(F) for disjoint unions of summand lists
        e = ["100", "010"]
        f = ["001", "111"]
        assert total_sw_class(e + f) == total_sw_class(e) * total_sw_class(f)

    def test_w1_is_sum_of_classes(self):
        classes = ["110", "011", "101"]
        w1 = total_sw_class(classes).degree_part(1)
        s = F2Class.from_string("110") + F2Class.from_string("011")
        s = s + F2Class.from_string("101")
        expected = ExteriorF2Element.from_degree_one(s)
        assert w1 == expected

    def test_subgroup_sums_w2_by_rank(self):
        # summands running over a rank-d subgroup of H^1(T^n; Z/2): each
        # degree-two product appears 2^(d-2) more times than a basis product,
        # so w_2 vanishes exactly when d != 2
        for n in (2, 3, 4):
            all_classes = [
                F2Class(bits) for bits in itertools.product((0, 1), repeat=n)
            ]
            for dim in (1, 2, 3):
                if dim > n:
                    continue
                for gens in itertools.combinations(all_classes, dim):
                    span = {F2Class((0,) * n)}
                    for g in gens:
                        span |= {s + g for s in span}
                    if len(span) < 2**dim:
                        continue  # dependent generators
                    w = total_sw_class(sorted(span, key=lambda c: c.bits))
                    assert w.degree_part(2).is_zero() == (dim != 2)

    def test_non_subgroup_can_have_nonzero_w2(self):
        w = total_sw_class(["10", "01"])
        assert not w.degree_part(2).is_zero()


class TestDeformations:
    def test_distinct_classes_rigid(self):
        # pairwise distinct summands: every alpha + beta is nonzero
        assert so_bundle_deformation_dim(["10", "01", "11"]) == 0

    def test_repeated_classes_deform(self):
        # a repeated summand contributes H^1 of the trivial bundle: n each
        assert so_bundle_deformation_dim(["10", "10"]) == 2
        assert so_bundle_deformation_dim(["100", "100"]) == 3

    def test_deformation_dim_iff_repeats(self):
        for classes in itertools.combinations_with_replacement(
            ["00", "01", "10", "11"], 3
        ):
            dim = so_bundle_deformation_dim(list(classes))
            has_repeat = len(set(classes)) < len(classes)
            assert (dim > 0) == has_repeat


class TestSpin8:
    def test_full_check(self):
        result = spin8_check()
        assert result["verdict"] == "pass"
        assert result["w2_terms"] == "0"
        assert result["deformation_dim"] == 0

    def test_w1_also_vanishes(self):
        assert spin8_check()["w1"] == "0"
