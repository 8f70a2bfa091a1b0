"""Root data, Weyl groups, embeddings: structural invariants and refusals."""

import dataclasses
import random
import re

import numpy as np
import pytest

from weylorb.intlinalg import EntryBoundError, freeze, identity, mat_mul, transpose
from weylorb.rootdata import (
    DiagramEmbedding,
    GroupOrderCapError,
    _reflection_pair,
    build_root_datum,
    crepant_classification,
    embed_diagram,
    enumerate_group,
    expected_weyl_order,
    highest_coroot_coefficients,
    parse_type,
    root_table,
    weyl_order_from_heights,
)

from weylorb.torsion import TorsionPoint, stabilizer

from references import (
    cartan_from_coroot_vectors,
    conjugacy_classes_by_products,
    generated_elements,
    positive_roots,
)

ALL_SMALL_TYPES = [
    ("A", 1),
    ("A", 2),
    ("A", 3),
    ("B", 2),
    ("B", 3),
    ("C", 3),
    ("D", 4),
    ("G", 2),
    ("F", 4),
]


EVERY_TYPE_TO_E8 = (
    [("A", r) for r in range(1, 9)]
    + [(x, r) for x in "BC" for r in range(2, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
)


class TestParseType:
    def test_label_styles(self):
        assert parse_type("G_2") == ("G", 2)
        assert parse_type("g2") == ("G", 2)
        assert parse_type("B", 3) == ("B", 3)

    def test_conflicting_rank(self):
        with pytest.raises(ValueError):
            parse_type("G_2", 3)

    def test_missing_rank(self):
        with pytest.raises(ValueError):
            parse_type("B")

    @pytest.mark.parametrize(
        "bad", ["B_1", "C_1", "D_3", "E_5", "E_9", "F_3", "G_3", "H_4"]
    )
    def test_invalid_types(self, bad):
        with pytest.raises(ValueError):
            parse_type(bad)

    @pytest.mark.parametrize("rank", [1.5, 1.0, True, "1"], ids=repr)
    def test_rank_that_is_no_int_is_refused(self, rank):
        # int() once read 1.5 and True as 1, building A_1 without an error
        with pytest.raises(ValueError, match="rank must be an int"):
            build_root_datum("A", rank)

    @pytest.mark.parametrize("bad", ["", "_", " "])
    def test_empty_label(self, bad):
        with pytest.raises(ValueError, match="invalid Dynkin type"):
            parse_type(bad, 2)

    @pytest.mark.parametrize("bad", [("G", 2), "GX", "G_2X", "G²"], ids=repr)
    def test_malformed_label_is_named(self, bad):
        # int() once refused the rest of the label with "invalid literal for
        # int() with base 10", naming no type
        with pytest.raises(ValueError, match=re.escape(f"invalid Dynkin type {bad!r}")):
            parse_type(bad)


class TestRootDatum:
    @pytest.mark.parametrize("letter,rank", ALL_SMALL_TYPES)
    def test_cartan_shape(self, letter, rank):
        d = build_root_datum(letter, rank)
        assert d.rank == rank
        for i in range(rank):
            assert d.cartan[i][i] == 2
            for j in range(rank):
                if i != j:
                    assert d.cartan[i][j] <= 0

    @pytest.mark.parametrize("letter,rank", ALL_SMALL_TYPES)
    def test_generators_are_reflections(self, letter, rank):
        d = build_root_datum(letter, rank)
        for g in d.weyl_generators:
            assert mat_mul(g, g) == identity(rank)

    @pytest.mark.parametrize("letter,rank", ALL_SMALL_TYPES)
    def test_braid_orders(self, letter, rank):
        d = build_root_datum(letter, rank)
        for i in range(rank):
            for j in range(i + 1, rank):
                # the Coxeter relation (s_i s_j)^m = 1, m read off the
                # product of the two off-diagonal Cartan entries
                m = {0: 2, 1: 3, 2: 4, 3: 6}[d.cartan[i][j] * d.cartan[j][i]]
                prod = mat_mul(d.weyl_generators[i], d.weyl_generators[j])
                power = identity(rank)
                orders = []
                for k in range(1, m + 1):
                    power = mat_mul(power, prod)
                    orders.append(power == identity(rank))
                assert orders[-1] and not any(orders[:-1])

    @pytest.mark.parametrize("letter,rank", ALL_SMALL_TYPES)
    def test_gram_invariance(self, letter, rank):
        d = build_root_datum(letter, rank)
        gram = [list(r) for r in d.gram()]
        assert gram == transpose(gram)
        for g in d.weyl_generators:
            gl = [list(r) for r in g]
            assert mat_mul(transpose(gl), mat_mul(gram, gl)) == gram

    @pytest.mark.parametrize("letter,rank", EVERY_TYPE_TO_E8)
    def test_gram_is_primitive_and_invariant(self, letter, rank):
        d = build_root_datum(letter, rank)
        gram = np.array(d.gram())
        assert np.gcd.reduce(gram.ravel()) == 1
        assert np.array_equal(gram, gram.T)
        for g in d.weyl_generators:
            g = np.array(g)
            assert np.array_equal(g.T @ gram @ g, gram)
        if letter in "ADE" and rank > 1:
            # simply laced: (c_i, c_j) is the Cartan matrix, already primitive
            assert d.gram() == d.cartan

    def test_gram_needs_a_root_table(self):
        # the coweight generators of W(A_2): the coroots do not span Z^2
        gens = (((-1, 0), (1, 1)), ((1, 1), (0, -1)))
        d = dataclasses.replace(build_root_datum("A", 2), weyl_generators=gens)
        with pytest.raises(ValueError, match="no root table"):
            d.gram()

    @pytest.mark.parametrize(
        "letter,rank",
        [("A", r) for r in range(1, 13)]
        + [(x, r) for x in "BC" for r in range(2, 13)]
        + [("D", r) for r in range(4, 13)]
        + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
    )
    def test_diagram_matches_coroot_vectors(self, letter, rank):
        # every simple type read off its Dynkin diagram equals the old
        # realization by simple-coroot vectors in an ambient Z^m
        ref = cartan_from_coroot_vectors(letter, rank)
        assert build_root_datum(letter, rank) == ref

    def test_e_series_cartan_symmetric(self):
        for rank in (6, 7, 8):
            d = build_root_datum("E", rank)
            assert [list(r) for r in d.cartan] == transpose(
                [list(r) for r in d.cartan]
            )
            assert sum(row.count(-1) for row in d.cartan) == 2 * (rank - 1)


class TestPositiveRoots:
    @pytest.mark.parametrize(
        "letter,rank,count",
        [
            ("A", 2, 3),
            ("A", 3, 6),
            ("B", 2, 4),
            ("B", 3, 9),
            ("C", 3, 9),
            ("D", 4, 12),
            ("G", 2, 6),
            ("F", 4, 24),
            ("E", 6, 36),
        ],
    )
    def test_positive_root_counts(self, letter, rank, count):
        d = build_root_datum(letter, rank)
        assert len(positive_roots(d.cartan)) == count


class TestRootTable:
    TYPES = (
        [("A", r) for r in range(1, 9)]
        + [(x, r) for x in "BC" for r in range(2, 9)]
        + [("D", r) for r in range(4, 9)]
        + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
    )

    @pytest.mark.parametrize("letter,rank", TYPES)
    def test_heights_give_the_weyl_order(self, letter, rank):
        d = build_root_datum(letter, rank)
        table = root_table(d.weyl_generators)
        assert table.order == expected_weyl_order(letter, rank)
        # heights read off the coefficients, and heights found by subsystem
        everything = np.ones(len(table.coeffs), dtype=bool)
        assert table.subsystem(everything) == (list(range(rank)), table.order)
        assert sorted(map(tuple, table.coeffs.tolist())) == sorted(
            positive_roots(d.cartan)
        )
        # the simple roots come first, and each reflection is I - c f^T
        assert table.coeffs[:rank].tolist() == identity(rank)
        for k in range(rank):
            s = np.eye(rank, dtype=np.int64) - np.outer(
                table.coroots[k], table.forms[k]
            )
            assert s.tolist() == [list(row) for row in d.weyl_generators[k]]
        assert (table.forms * table.coroots).sum(axis=1).tolist() == [2] * len(
            table.forms
        )

    @pytest.mark.parametrize("letter,rank", [("B", 4), ("F", 4), ("E", 6)])
    def test_subsystem_orders_match_enumeration(self, letter, rank):
        # the roots integral on a torsion point form a closed subsystem,
        # often reducible; its simple reflections must generate a group of
        # the order the heights give, the same as all its reflections
        table = root_table(build_root_datum(letter, rank).weyl_generators)
        eye = np.eye(rank, dtype=np.int64)
        rng = random.Random(rank)
        orders = set()
        for _ in range(12):
            den = rng.choice([2, 3, 4])
            x = np.array([rng.randrange(den) for _ in range(rank)])
            mask = table.forms @ x % den == 0
            simple, order = table.subsystem(mask)
            orders.add(order)
            if not simple:
                assert order == 1 and not mask.any()
                continue
            def reflection(k):
                return eye - np.outer(table.coroots[k], table.forms[k])

            assert enumerate_group([reflection(k) for k in simple]).order == order
            reflections = [reflection(k) for k in np.flatnonzero(mask)]
            assert enumerate_group(reflections).order == order
        assert len(orders) >= 3

    def test_not_simple_reflections(self):
        rotation = ((0, -1), (1, -1))
        reflection = ((-1, 1), (0, 1))
        # the affine Cartan matrix of A_1 and a hyperbolic one: infinite
        # dihedral groups whose root coefficients grow without bound
        affine = [((-1, 2), (0, 1)), ((1, 0), (2, -1))]
        hyperbolic = [((-1, 3), (0, 1)), ((1, 0), (3, -1))]
        # -1 has the shape I - c f^T only up to rank: f c = 2, but it is no
        # reflection, and here the two c span the lattice
        minus_one = [((-1, 0), (0, -1)), ((1, 0), (1, -1))]
        # reflections of W(A_3) in e1 - e2, e2 - e3 and e1 + e3 (inside D_4):
        # one positive pairing on a triangle, so no signs make all three
        # obtuse, and they are no simple system
        triangle = [
            tuple(
                tuple(int(k == j) - (row[j] if k == i else 0) for j in range(3))
                for k in range(3)
            )
            for i, row in enumerate([(2, -1, 1), (-1, 2, -1), (1, -1, 2)])
        ]
        for gens in (
            [rotation, reflection],
            [((-1, 0), (0, -1)), reflection],
            minus_one,
            triangle,
            [reflection],
            [reflection, reflection],
            affine,
            hyperbolic,
            # W(A_2) on its coweight lattice: det[c_1 c_2] = 3
            [((-1, 0), (1, 1)), ((1, 1), (0, -1))],
        ):
            assert root_table(gens) is None
        # the full walk still gives the stabilizer a brute force gives
        group = enumerate_group(triangle)
        assert group.order == 24
        p = TorsionPoint(2, ((1, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0)))
        brute = sorted(freeze(g) for g in group.stack.tolist() if p.apply(g) == p)
        assert generated_elements(stabilizer(group, p), 3) == brute

    def test_reflection_pair_refuses_a_wrapping_pairing(self):
        # s = I - c f^T with f.c = 2^64 + 2, which wraps to 2 in int64: s is
        # no reflection (s^2 != I), and was taken for one
        c, f = [1, 1, 1, 1], [2**62, 2**62, 2**62, 2**62 + 2]
        s = [[int(i == j) - c[i] * f[j] for j in range(4)] for i in range(4)]
        assert mat_mul(s, s) != identity(4)
        with pytest.raises(EntryBoundError, match="could overflow"):
            _reflection_pair(np.array(s, dtype=np.int64))
        with pytest.raises(EntryBoundError, match="could overflow"):
            root_table([s])

    def test_order_from_heights(self):
        assert weyl_order_from_heights([]) == 1
        assert weyl_order_from_heights([1, 1, 2]) == 6
        with pytest.raises(AssertionError):
            weyl_order_from_heights([1, 2, 2])


class TestHighestCorootTable:
    # the nine rows of the coefficient table, sorted ascending
    TABLE = {
        ("A", 5): (1, 1, 1, 1, 1),
        ("B", 4): (1, 1, 2, 2),
        ("C", 4): (1, 1, 1, 1),
        ("D", 5): (1, 1, 1, 2, 2),
        ("G", 2): (1, 2),
        ("F", 4): (1, 2, 2, 3),
        ("E", 6): (1, 1, 2, 2, 2, 3),
        ("E", 7): (1, 2, 2, 2, 3, 3, 4),
        ("E", 8): (2, 2, 3, 3, 4, 4, 5, 6),
    }

    @pytest.mark.parametrize("key", sorted(TABLE))
    def test_table_rows(self, key):
        letter, rank = key
        d = build_root_datum(letter, rank)
        assert highest_coroot_coefficients(d) == self.TABLE[key]

    def test_general_rank_patterns(self):
        # A and C rows are all ones; B has two ones then twos; D three ones
        for r in (2, 3, 6):
            assert highest_coroot_coefficients(
                build_root_datum("A", r)
            ) == (1,) * r
            assert highest_coroot_coefficients(
                build_root_datum("C", max(r, 2))
            ) == (1,) * max(r, 2)
        assert highest_coroot_coefficients(build_root_datum("B", 5)) == (
            1, 1, 2, 2, 2,
        )
        assert highest_coroot_coefficients(build_root_datum("D", 6)) == (
            1, 1, 1, 2, 2, 2,
        )


class TestEnumeration:
    @pytest.mark.parametrize("letter,rank", ALL_SMALL_TYPES)
    def test_orders(self, letter, rank):
        d = build_root_datum(letter, rank)
        group = enumerate_group(d)
        assert group.order == expected_weyl_order(letter, rank)

    def test_e6_order(self):
        assert enumerate_group(build_root_datum("E", 6)).order == 51840

    def test_e8_refused_at_default_cap(self):
        with pytest.raises(GroupOrderCapError) as exc:
            enumerate_group(build_root_datum("E", 8))
        assert "696729600" in str(exc.value)

    def test_no_generators_is_refused(self):
        with pytest.raises(ValueError, match="no generators"):
            enumerate_group([])

    @pytest.mark.parametrize(
        "gens,error,match",
        [
            ([[[1.5, 0], [0, 1]]], ValueError, "not integers"),
            ([[[1, 0], [0, 1], [0, 0]]], ValueError, "not square"),
            ([[[1, 0], [0]]], ValueError, "inhomogeneous"),
            ([[[-1]], [[1, 0], [0, -1]]], ValueError, "not square of size 1"),
            ([[[1, 2**70], [0, 1]]], EntryBoundError, "beyond int64"),
        ],
        ids=["fraction", "3x2", "ragged", "mixed-sizes", "beyond-int64"],
    )
    def test_malformed_generators_are_refused(self, gens, error, match):
        # read by the one shared check, never truncated or wrapped
        for read in (enumerate_group, root_table):
            with pytest.raises(error, match=match):
                read(gens)

    def test_cap_refusal_on_raw_generators(self):
        d = build_root_datum("B", 3)
        with pytest.raises(GroupOrderCapError):
            enumerate_group(list(d.weyl_generators), order_cap=10)

    def test_conjugacy_classes_partition(self):
        group = enumerate_group(build_root_datum("F", 4))
        classes = group.conjugacy_classes()
        assert sum(size for _, size, _ in classes) == group.order
        assert len(classes) == 25
        for rep, size, cent in classes:
            assert size * len(cent) == group.order
            for h in cent[:5]:
                assert mat_mul(h, rep) == mat_mul(rep, h)

    def test_class_count_small_groups(self):
        # class counts: S_4 has 5, hyperoctahedral rank 3 has 10
        assert len(enumerate_group(build_root_datum("A", 3)).conjugacy_classes()) == 5
        assert len(enumerate_group(build_root_datum("B", 3)).conjugacy_classes()) == 10

    def test_regular_vector_search_skips_a_fixed_vector(self):
        # the order-2 element fixes (1, -3), so t = -3 gives equal images
        group = enumerate_group([[[-2, -1], [3, 2]]])
        assert mat_mul([[-2, -1], [3, 2]], [[1], [-3]]) == [[1], [-3]]
        v, images = group._regular
        assert v.tolist() == [1, -4]
        assert images.tolist() == [[1, -4], [2, -5]]
        classes = group.conjugacy_classes()
        assert [(rep.tolist(), size) for rep, size, _ in classes] == [
            ([[1, 0], [0, 1]], 1),
            ([[-2, -1], [3, 2]], 1),
        ]

    def test_regular_images_are_dropped_after_classes(self):
        # the classes keep their centralizers; a later centralizer call
        # rebuilds the images and answers as before
        group = enumerate_group(build_root_datum("B", 3))
        before = [group.centralizer(g) for g in group.stack[::7]]
        classes = group.conjugacy_classes()
        assert "_regular" not in vars(group)
        reference = conjugacy_classes_by_products(
            enumerate_group(build_root_datum("B", 3))
        )
        assert len(classes) == len(reference) == 10
        for (rep, size, cent), (ref_rep, ref_size, ref_cent) in zip(classes, reference):
            assert np.array_equal(rep, ref_rep) and size == ref_size
            assert np.array_equal(cent, ref_cent)
        after = [group.centralizer(g) for g in group.stack[::7]]
        assert "_regular" in vars(group)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert group.conjugacy_classes() is classes

    @pytest.mark.parametrize(
        "g",
        [[[0, 1], [1, 0]], [[2, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 5],
        ids=["diagram-swap", "not-unimodular", "3x3", "scalar"],
    )
    def test_centralizer_of_a_non_element_is_refused(self, g):
        # h(g v) = g(h v) decides hg = gh only for g in the group
        group = enumerate_group(build_root_datum("A", 2))
        assert g not in group
        with pytest.raises(ValueError, match="not an element"):
            group.centralizer(g)

    @pytest.mark.parametrize(
        "rotation",
        [[[0, -1], [1, -1]], [[0, -1], [1, 0]], [[0, -1], [1, 1]]],
        ids=["order-3", "order-4", "order-6"],
    )
    def test_classes_with_a_generator_that_is_not_its_own_inverse(self, rotation):
        # the rotation alone (abelian), and with a reflection (dihedral)
        for gens in ([rotation], [rotation, [[0, 1], [1, 0]]]):
            group = enumerate_group(gens)
            elements = [freeze(m) for m in group.stack.tolist()]
            inverse = {
                x: next(y for y in elements if mat_mul(x, y) == identity(2))
                for x in elements
            }
            brute, seen = [], set()
            for x in elements:
                if x not in seen:
                    orbit = {freeze(mat_mul(mat_mul(g, x), inverse[g])) for g in elements}
                    seen |= orbit
                    brute.append((x, len(orbit)))
            classes = group.conjugacy_classes()
            assert [(freeze(rep.tolist()), size) for rep, size, _ in classes] == brute


class TestEmbeddings:
    def test_b3_in_f4(self):
        emb = embed_diagram("B_3", "F_4", [1, 2, 3])
        assert emb == DiagramEmbedding(
            build_root_datum("B", 3), build_root_datum("F", 4), (1, 2, 3)
        )

    def test_d4_in_d5_and_e6(self):
        emb = embed_diagram("D_4", "D_5", (2, 3, 4, 5))
        assert emb.node_map == (2, 3, 4, 5)
        emb = embed_diagram("D_4", "E_6", (3, 4, 5, 2))
        assert emb.node_map == (3, 4, 5, 2)

    def test_arrow_mismatch_rejected(self):
        # B_2 and C_2 diagrams have opposite arrows at the same nodes
        with pytest.raises(ValueError):
            embed_diagram("B_2", "C_3", [1, 2])

    def test_edge_mismatch_rejected(self):
        with pytest.raises(ValueError):
            embed_diagram("A_2", "A_3", [1, 3])

    def test_non_injective_rejected(self):
        with pytest.raises(ValueError):
            embed_diagram("A_2", "A_3", [1, 1])

    @pytest.mark.parametrize(
        "node_map",
        [[1.5, 2, 3], [True, 2, 3], ["1", 2, 3]],
        ids=repr,
    )
    def test_node_map_entry_that_is_no_int_rejected(self, node_map):
        # int() once read [1.5, 2, 3] as the node map (1, 2, 3)
        with pytest.raises(ValueError, match="node_map entries must be ints"):
            embed_diagram("B_3", "F_4", node_map)

    @pytest.mark.parametrize("node_map", [{1: 1.0, 2: 2, 3: 3}, 5, "123"], ids=repr)
    def test_node_map_of_another_type_rejected(self, node_map):
        # tuple() read the dict by its keys, as (1, 2, 3), and 5 raised TypeError
        with pytest.raises(ValueError, match="node_map must be a list or tuple"):
            embed_diagram("B_3", "F_4", node_map)

    def test_a2_in_g2_rejected(self):
        # the G_2 Cartan entries differ from the simply-laced A_2 ones
        with pytest.raises(ValueError):
            embed_diagram("A_2", "G_2", [1, 2])


class TestCrepantClassification:
    @pytest.mark.parametrize(
        "label,verdict",
        [
            ("A_3", "admits"),
            ("C_4", "admits"),
            # Spin(5) = Sp(2): B_2 is C_2
            ("B_2", "admits"),
            ("B_3", "does_not_admit"),
            ("D_4", "does_not_admit"),
            ("G_2", "does_not_admit"),
            ("F_4", "does_not_admit"),
            ("E_8", "does_not_admit"),
        ],
    )
    def test_letters(self, label, verdict):
        assert crepant_classification(label) == verdict

    def test_invalid(self):
        with pytest.raises(ValueError):
            crepant_classification("X_2")
        with pytest.raises(ValueError):
            crepant_classification("B_3", 4)
        with pytest.raises(ValueError):
            crepant_classification("D_3")

    def test_letter_answers_for_its_series(self):
        assert crepant_classification("C") == "admits"
        assert crepant_classification("E") == "does_not_admit"
        with pytest.raises(ValueError):
            crepant_classification("X")
