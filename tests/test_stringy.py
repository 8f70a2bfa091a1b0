"""Stringy Hodge engine: fixed loci, two independent routes, closed forms."""

import random
import re
from math import prod

import numpy as np
import pytest

import weylorb.intlinalg
import weylorb.rootdata
import weylorb.stringy
from weylorb.hodgepoly import (
    BigradedPoly,
    abelian_surface,
    goettsche,
    kummer_k3,
    kummer_singular,
)
from weylorb.intlinalg import EntryBoundError, identity
from weylorb.rootdata import GroupOrderCapError, build_root_datum
from weylorb.stringy import (
    LatticeAction,
    _sectors,
    fixed_locus,
    stringy_euler_commuting_pairs,
    stringy_hodge,
    stringy_hodge_wreath_closed_form,
    su_action,
    symmetric_action,
    verify_sp_theorem,
    verify_su_case,
    wreath_bn_action,
)

from references import _add_outer, stringy_hodge_by_orbits


class TestLatticeAction:
    def test_from_generators_counts(self):
        assert symmetric_action(3).group.order == 6
        assert wreath_bn_action(2).group.order == 8
        assert symmetric_action(1).group.order == 1
        assert wreath_bn_action(1).group.order == 2
        assert su_action(3).group.order == 6

    def test_cap_refusal(self):
        with pytest.raises(GroupOrderCapError):
            wreath_bn_action(3, order_cap=10)

    @pytest.mark.parametrize("build", [symmetric_action, wreath_bn_action])
    @pytest.mark.parametrize("n", [0, -1])
    def test_no_coordinates_is_refused(self, build, n):
        # wreath_bn_action(0) once raised IndexError, and symmetric_action(0)
        # gave the trivial group on Z^1
        with pytest.raises(ValueError, match="n must be at least 1"):
            build(n)

    def test_rejects_non_group(self):
        with pytest.raises(TypeError):
            LatticeAction([[1]])

    def test_rejects_non_unimodular_generator(self):
        # int64 products of diag(2, 1) once wrapped to 0 and closed up into
        # a "group" of order 65
        with pytest.raises(ValueError, match="determinant 2"):
            LatticeAction.from_generators([[[2, 0], [0, 1]]])

    def test_rejects_fractional_generator(self):
        # int64 conversion once truncated -1.5 to -1: a group of order 2
        with pytest.raises(ValueError, match="not integers"):
            LatticeAction.from_generators([[[-1.5, 0], [0, -1]]])

    def test_infinite_order_generator_hits_the_entry_bound(self):
        # a unipotent generator has infinite order; its powers must be
        # refused before an int64 product wraps, not walked toward the cap
        with pytest.raises(EntryBoundError):
            LatticeAction.from_generators([[[1, 2**40], [0, 1]]])


class TestFixedLocus:
    def test_identity_element(self):
        act = wreath_bn_action(2)
        data = fixed_locus(act, identity(2))
        assert data.kernel_rank == 2
        assert data.shift == 0
        assert data.component_group == ()
        assert prod(data.component_group) ** 4 == 1

    def test_minus_one_on_z1(self):
        act = wreath_bn_action(1)
        data = fixed_locus(act, [[-1]])
        # g - 1 = (-2): sixteen components on the four-torus, shift 1
        assert data.kernel_rank == 0
        assert data.shift == 1
        assert data.component_group == (2,)
        assert prod(data.component_group) ** 4 == 16

    def test_transposition_on_z2(self):
        act = symmetric_action(2)
        data = fixed_locus(act, [[0, 1], [1, 0]])
        # the diagonal is fixed: kernel rank 1, no torsion, shift 1
        assert data.kernel_rank == 1
        assert data.shift == 1
        assert data.component_group == ()

    def test_kernel_basis_is_fixed(self):
        act = wreath_bn_action(3)
        for g in act.group.stack.tolist():
            data = fixed_locus(act, g)
            for vec in data.kernel_basis:
                image = [
                    sum(g[i][j] * vec[j] for j in range(3)) for i in range(3)
                ]
                assert list(image) == list(vec)

    def test_rejects_non_member(self):
        act = symmetric_action(2)
        with pytest.raises(ValueError):
            fixed_locus(act, [[1, 1], [0, 1]])

    @pytest.mark.parametrize(
        "g",
        [[[2**70]], [[1, 0], [0, 1]], [[1, 0], [0]]],
        ids=["beyond-int64", "wrong-shape", "ragged"],
    )
    def test_rejects_what_cannot_be_an_element(self, g):
        # membership answers False, never OverflowError, for any such input
        act = wreath_bn_action(1)
        assert g not in act.group
        with pytest.raises(ValueError, match="g is not an element of the group"):
            fixed_locus(act, g)


class TestEngineOracles:
    def test_n1_sp_is_kummer_k3(self):
        # 1 + x^2 + 20xy + y^2 + x^2y^2
        assert stringy_hodge(wreath_bn_action(1)) == kummer_k3()

    def test_n1_closed_form(self):
        assert stringy_hodge_wreath_closed_form(1) == kummer_singular() + (
            BigradedPoly.constant(16) * BigradedPoly.monomial(1, 1)
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sp_three_way(self, n):
        report = verify_sp_theorem(n, engine=True)
        assert report.verdict, report.notes
        assert report.polynomials["engine"] == report.polynomials["closed_form"]

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_sp_closed_form_vs_goettsche(self, n):
        assert stringy_hodge_wreath_closed_form(n) == goettsche(kummer_k3(), n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_un_case_is_hilbert_scheme(self, n):
        assert stringy_hodge(symmetric_action(n)) == goettsche(
            abelian_surface(), n
        )

    def test_su2_is_kummer_k3(self):
        report = verify_su_case(2)
        assert report.verdict
        assert report.polynomials["stringy"] == kummer_k3()

    @pytest.mark.parametrize("n,euler", [(2, 24), (3, 108), (4, 448)])
    def test_su_euler_numbers(self, n, euler):
        # values frozen from the independent commuting-pairs enumeration
        report = verify_su_case(n)
        assert report.verdict
        assert report.polynomials["euler"] == euler
        assert report.polynomials["stringy"].specialize(-1, -1) == euler

    def test_su_rejects_n1(self):
        with pytest.raises(ValueError):
            verify_su_case(1)

    def test_su_rejects_a_rank_that_is_no_int(self):
        # 2.0 once passed as SU(2), with n = 2.0 in the report, and then
        # was refused as "rank must be an int, not 1.0", for n - 1
        with pytest.raises(ValueError, match=re.escape("n must be an int, not 2.0")):
            verify_su_case(2.0)

    @pytest.mark.parametrize("n", [1.5, 2.0, True, "3"], ids=repr)
    @pytest.mark.parametrize("call", [su_action, verify_su_case])
    def test_su_entry_points_name_n(self, call, n):
        # su_action(1.5) said "rank must be an int, not 0.5", and
        # verify_su_case(True) "n must be at least 2"
        with pytest.raises(ValueError, match=re.escape(f"n must be an int, not {n!r}")):
            call(n)

    def test_sp_engine_gets_the_cap(self, monkeypatch):
        # the hyperoctahedral group was built at the default cap, whatever
        # order_cap the check was given
        caps = []
        real = weylorb.stringy.wreath_bn_action

        def recorded(n, order_cap=weylorb.stringy.DEFAULT_ENGINE_CAP):
            caps.append(order_cap)
            return real(n, order_cap)

        monkeypatch.setattr(weylorb.stringy, "wreath_bn_action", recorded)
        assert verify_sp_theorem(2, engine=True, order_cap=123).verdict
        assert caps == [123]

    def test_closed_form_rejects_n0(self):
        with pytest.raises(ValueError):
            stringy_hodge_wreath_closed_form(0)

    @pytest.mark.parametrize("n", [2.0, True], ids=repr)
    def test_closed_form_refuses_n_that_is_no_int(self, n):
        # 2.0 once raised TypeError from range(), and True ran as n = 1
        with pytest.raises(ValueError, match=f"n must be an int, not {n!r}"):
            stringy_hodge_wreath_closed_form(n)

    @pytest.mark.parametrize("n", [2.0, True, "2", None, np.int64(2)], ids=repr)
    def test_sp_check_refuses_n_that_is_no_int(self, n, monkeypatch):
        # 2.0 once raised TypeError from deep inside, and True ran as n = 1;
        # either is refused before the closed form is built
        def refused(*args):
            raise AssertionError("work began")

        monkeypatch.setattr(
            weylorb.stringy, "stringy_hodge_wreath_closed_form", refused
        )
        with pytest.raises(ValueError, match=re.escape(f"n must be an int, not {n!r}")):
            verify_sp_theorem(n, engine=False)


class TestTwoEngineRoutes:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: wreath_bn_action(1),
            lambda: wreath_bn_action(2),
            lambda: symmetric_action(3),
            lambda: su_action(3),
            lambda: LatticeAction.from_root_datum(build_root_datum("G", 2)),
        ],
    )
    def test_burnside_equals_explicit_orbits(self, factory):
        act = factory()
        assert stringy_hodge(act) == stringy_hodge_by_orbits(act)


class TestCommutingPairsEuler:
    def test_sp1_euler(self):
        assert stringy_euler_commuting_pairs(wreath_bn_action(1)) == 24

    def test_un_euler_matches_hilbert_scheme(self):
        for n in (1, 2, 3):
            expected = goettsche(abelian_surface(), n).specialize(-1, -1)
            assert (
                stringy_euler_commuting_pairs(symmetric_action(n)) == expected
            )

    def test_g2_and_f4_match_engine(self):
        for label in ("G_2",):
            act = LatticeAction.from_root_datum(build_root_datum(label))
            assert stringy_hodge(act).specialize(
                -1, -1
            ) == stringy_euler_commuting_pairs(act)

    def test_g2_value_frozen(self):
        act = LatticeAction.from_root_datum(build_root_datum("G", 2))
        assert stringy_euler_commuting_pairs(act) == 144

    def test_shares_nothing_with_the_sector_code(self, monkeypatch):
        def refused(*args):
            raise AssertionError("sector code called")

        act = LatticeAction.from_root_datum(build_root_datum("G", 2))
        act.group.conjugacy_classes()
        for name in ("smith_normal_form", "_sector_batch"):
            monkeypatch.setattr(weylorb.stringy, name, refused)
        with pytest.raises(AssertionError, match="sector code"):
            stringy_hodge(act)
        assert stringy_euler_commuting_pairs(act) == 144


class TestEngineStructuralProperties:
    @pytest.mark.parametrize(
        "factory,rank",
        [
            (lambda: wreath_bn_action(2), 2),
            (lambda: wreath_bn_action(3), 3),
            (lambda: su_action(4), 3),
            (lambda: LatticeAction.from_root_datum(build_root_datum("G", 2)), 2),
        ],
    )
    def test_symmetries_and_integrality(self, factory, rank):
        h = stringy_hodge(factory())
        assert all(isinstance(c, int) for c in h.coeffs.values())
        assert h.is_hodge_symmetric()
        assert h.is_centrally_symmetric(rank)
        assert h[(0, 0)] == 1
        assert h[(2 * rank, 2 * rank)] == 1
        assert max(p + q for p, q in h.coeffs) == 4 * rank

    def test_engine_cap(self):
        # the builder's enumeration is the engine's one cap: stringy_hodge
        # takes a group enumerated already, and no cap of its own
        with pytest.raises(GroupOrderCapError, match="cap 4"):
            wreath_bn_action(2, order_cap=4)
        with pytest.raises(TypeError, match="order_cap"):
            stringy_hodge(wreath_bn_action(2), order_cap=4)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: LatticeAction.from_root_datum(build_root_datum("B", 4)),
            lambda: LatticeAction.from_root_datum(build_root_datum("A", 5)),
            lambda: wreath_bn_action(4),
        ],
        ids=["B_4", "A_5", "wreath-4"],
    )
    def test_central_centralizer_is_the_stack(self, factory):
        # a class of size 1 keeps the stack itself as its centralizer, where
        # it kept a copy; the sectors and the Euler oracle read only its
        # length, and answer as with the copies
        action, copied = factory(), factory()
        stack = action.group.stack
        central = [c for _, size, c in action.group.conjugacy_classes() if size == 1]
        assert central and all(np.shares_memory(c, stack) for c in central)
        copied.group._classes = [
            (rep, size, copied.group.centralizer(rep) if size == 1 else c)
            for rep, size, c in copied.group.conjugacy_classes()
        ]
        assert not any(
            np.shares_memory(c, copied.group.stack) for _, _, c in copied.group._classes
        )
        sectors, reference = (list(_sectors(a)) for a in (action, copied))
        assert len(sectors) == len(reference)
        for (shift, block), (ref_shift, ref) in zip(sectors, reference):
            assert shift == ref_shift and np.array_equal(block, ref)
        euler = stringy_euler_commuting_pairs
        assert euler(action) == euler(copied)

    def test_one_smith_form_per_sector(self, monkeypatch):
        # the classes invert their generators without one, and each sector
        # takes v^-1 off its own Smith form
        calls = []
        real = weylorb.intlinalg.smith_normal_form

        def counted(m):
            calls.append(m)
            return real(m)

        for module in (weylorb.intlinalg, weylorb.rootdata, weylorb.stringy):
            monkeypatch.setattr(module, "smith_normal_form", counted, raising=False)
        action = LatticeAction.from_root_datum(build_root_datum("B", 4))
        classes = action.group.conjugacy_classes()
        assert calls == []
        stringy_hodge(action)
        assert len(calls) == len(classes) == 20

    @pytest.mark.parametrize(
        "letter,rank,rows,pairs,label_maps,dets",
        [("B", 4, 1328, 600, 4, 5), ("A", 5, 901, 192, 3, 6)],
    )
    def test_one_echelon_per_pair_chunk_and_one_label_map_per_sector(
        self, monkeypatch, letter, rank, rows, pairs, label_maps, dets
    ):
        # the oracle stacks its pairs across classes: (g, h in C(g)) for
        # non-central g, and (g, class representative) for the central g,
        # whose C(g) = W is summed over the classes; the engine's classes
        # fit one batch of _SECTOR_ROWS rows, which maps the label blocks of
        # each nontrivial torsion type at once (B_4: Z/2, (Z/2)^2, Z/2 + Z/4,
        # (Z/2)^4; A_5: Z/2, Z/3, Z/6) and takes one det(I + t rho) stack
        # per kernel rank 0..rank
        calls = {"echelon_pivots_stack": 0, "_label_images": 0, "det_i_plus_t_stack": 0}

        def counted(name):
            real = getattr(weylorb.stringy, name)

            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        for name in calls:
            monkeypatch.setattr(weylorb.stringy, name, counted(name))
        action = LatticeAction.from_root_datum(build_root_datum(letter, rank))
        classes = action.group.conjugacy_classes()
        assert sum(len(c) for _, _, c in classes) == rows
        assert pairs == sum(len(classes) if size == 1 else len(c) for _, size, c in classes)
        assert pairs <= weylorb.stringy._SECTOR_ROWS
        stringy_hodge(action)
        stringy_euler_commuting_pairs(action)
        chunk = weylorb.stringy._PAIR_CHUNK
        assert calls == {
            "echelon_pivots_stack": -(-pairs // chunk),
            "_label_images": label_maps,
            "det_i_plus_t_stack": dets,
        }


class TestSectorArithmetic:
    def test_sector_sum_matches_the_python_double_loop(self):
        rng = random.Random(21)
        for _ in range(40):
            m, length = rng.randint(1, 12), rng.randint(1, 13)
            rows = [[rng.randint(-50, 50) for _ in range(length)] for _ in range(m)]
            weights = [rng.randint(1, 10**6) for _ in range(m)]
            expected = {}
            for row, w in zip(rows, weights):
                _add_outer(expected, row, w)
            got = weylorb.stringy._outer_sum(np.array(rows, dtype=np.int64), weights)
            assert {
                (p, q): c for (p, q), c in np.ndenumerate(got.tolist()) if c
            } == {key: c for key, c in expected.items() if c}

    @pytest.mark.parametrize("weight", [2**62 // 3, 2**62, 2**70])
    def test_sector_sum_refuses_weights_near_the_int64_bound(self, weight):
        # 2 rows with entries up to 3: 2 * (weight * 3) * 3 > 2^63 - 1, as
        # Python ints and as the object weights of a central sector
        rows = np.array([[1, 3], [1, 2]], dtype=np.int64)
        for weights in ([weight, 1], np.array([weight, 1], dtype=object)):
            with pytest.raises(EntryBoundError):
                weylorb.stringy._outer_sum(rows, weights)
        assert weylorb.stringy._outer_sum(rows, [2**62 // 18 - 1, 1]).dtype == np.int64

    def test_sector_refuses_a_smith_diagonal_out_of_order(self, monkeypatch):
        # the label block and the kernel are read as slices of the diagonal
        real = weylorb.stringy._smith_of_g_minus_one

        def reordered(g):
            diag, v, v_inv = real(g)
            return diag[::-1], v, v_inv

        monkeypatch.setattr(weylorb.stringy, "_smith_of_g_minus_one", reordered)
        with pytest.raises(AssertionError, match="ones, torsion, zeros"):
            stringy_hodge(wreath_bn_action(2))


class TestWreathClosedFormStructure:
    def test_shift_bookkeeping_n2(self):
        # the five splittings of n = 2 reproduce the sector-by-sector sum
        hk = kummer_singular()
        from weylorb.hodgepoly import sym_power

        xy = BigradedPoly.monomial(1, 1)
        sixteen = BigradedPoly.constant(16)
        expected = (
            sym_power(hk, 2)  # alpha+ = (1,1)
            + xy * sym_power(hk, 1)  # alpha+ = (2)
            + xy * sym_power(hk, 1) * sym_power(sixteen, 1)  # one +, one -
            + xy**2 * sym_power(sixteen, 2)  # alpha- = (1,1)
            + xy**2 * sym_power(sixteen, 1)  # alpha- = (2)
        )
        assert stringy_hodge_wreath_closed_form(2) == expected

    def test_each_symmetric_power_once(self, monkeypatch):
        # Sym^1..Sym^12 of h(K) and of 16 once each; 3,934 calls when every
        # split partition recomputed its own
        calls = []
        real = weylorb.stringy.sym_power

        def counted(h, l):
            calls.append(l)
            return real(h, l)

        monkeypatch.setattr(weylorb.stringy, "sym_power", counted)
        assert stringy_hodge_wreath_closed_form(12) == goettsche(kummer_k3(), 12)
        assert len(calls) <= 24
