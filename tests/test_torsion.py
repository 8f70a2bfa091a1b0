"""Torsion points, stabilizers, minus-one scans, and propagation."""

import dataclasses
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import weylorb.rootdata
import weylorb.torsion
from weylorb.intlinalg import (
    EntryBoundError,
    freeze,
    identity,
    mat_mul,
)
from weylorb.rootdata import (
    GroupOrderCapError,
    build_root_datum,
    embed_diagram,
    enumerate_group,
    root_table,
)
from weylorb.torsion import (
    StabilizerReport,
    TorsionPoint,
    _decode_two_torsion,
    _group_parts,
    _point_subgroup,
    _two_torsion_orbit_reps,
    find_minus_one_points,
    propagate,
    stabilizer,
)

from references import perturbed_candidates, two_torsion_points, unimodular_inverse


def minus_identity(rank):
    return freeze([[-1 if i == j else 0 for j in range(rank)] for i in range(rank)])


def _closure(generators, cap):
    """Every product of the generators, by a literal breadth-first walk."""
    seen = {freeze(identity(len(generators[0])))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for s in generators:
                y = freeze(mat_mul(s, x))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
        if len(seen) > cap:
            raise ValueError(f"stabilizer closure exceeded cap {cap}")
    return seen


def _stabilizer_reference(action, point, element_cap=10**5):
    """Per-point orbit-stabilizer walk: one TorsionPoint.apply per edge.

    The oracle of stabilizer(), over all of W: a witness dict in discovery
    order, then Schreier generators u_y^-1 s u_x collected in (point,
    generator) order until the closure reaches |W| / |orbit|.
    """
    generators, order, _ = _group_parts(action)
    rank = len(generators[0])
    ident = freeze(identity(rank))
    point = point.reduced()
    witness = {point: ident}
    frontier = [point]
    gen_list = [freeze(g) for g in generators]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gen_list:
                y = x.apply(s)
                if y not in witness:
                    witness[y] = freeze(mat_mul(s, witness[x]))
                    nxt.append(y)
        frontier = nxt
    expected = None if order is None else order // len(witness)
    gens = []
    elements = {ident}
    for x, ux in witness.items():
        for s in gen_list:
            uy_inv = unimodular_inverse(witness[x.apply(s)])
            w = freeze(mat_mul(uy_inv, mat_mul(s, ux)))
            if w not in elements:
                gens.append(w)
                elements = _closure(gens, element_cap)
        if len(elements) == expected:
            break
    return _report(gens, elements, len(witness), rank)


def _report(gens, elements, orbit_size, rank):
    """A StabilizerReport for the given elements, classified as stabilizer()
    classifies them."""
    minus = minus_identity(rank)
    if len(elements) == 1:
        cls, label, crepant = "trivial", "smooth point", None
    elif len(elements) == 2 and minus in elements:
        cls, label = "minus_one_local_model", f"C^{2 * rank}/+-1"
        crepant = "resolvable" if rank == 1 else "no_crepant_resolution"
    else:
        cls, label, crepant = "other", f"subgroup of order {len(elements)}", None
    return StabilizerReport(
        generators=tuple(gens),
        order=len(elements),
        orbit_size=orbit_size,
        action_classification=cls,
        local_model_label=label,
        elements=tuple(sorted(elements)),
        crepant=crepant,
    )


def _brute_force(group, point):
    """Brute force over all of W: the elements of the stack that fix p."""
    p = point.reduced()
    coords = np.array(p.coords, dtype=np.int64)
    stack = group.stack
    fixed = stack[(stack @ coords % p.den == coords).all(axis=(1, 2))].tolist()
    elements = [freeze(g) for g in fixed]
    return _report(elements, elements, group.order // len(fixed), p.rank)


def assert_same_stabilizer(report, reference):
    """Every field equal but the generators, which are not canonical;
    those must generate exactly the stabilizer's elements."""
    assert dataclasses.replace(report, generators=()) == dataclasses.replace(
        reference, generators=()
    )
    rank = len(report.elements[0])
    if report.generators:
        closed = enumerate_group(report.generators).elements
    else:
        closed = [freeze(identity(rank))]
    assert sorted(closed) == list(report.elements)


def _points_of_denominator(group, den, count, seed):
    """Seeded points mod den, zero outside a random set of coroot rows,
    then moved by a seeded group element.

    Zero rows put many points on reflection hyperplanes, so the sample has
    stabilizers of several orders, not only the trivial one; moving them
    conjugates each stabilizer, so not every one is generated by simple
    reflections.
    """
    rng = random.Random(seed)
    rank = len(group.generators[0])
    points = []
    for _ in range(count):
        rows = set(rng.sample(range(rank), rng.randrange(1, rank + 1)))
        p = TorsionPoint(den, tuple(
            tuple(rng.randrange(den) for _ in range(4)) if j in rows else (0,) * 4
            for j in range(rank)
        ))
        points.append(p.apply(rng.choice(group.elements)))
    return points


class TestTorsionPoint:
    def test_reduction(self):
        p = TorsionPoint(4, ((2, 0, 2, 0),))
        assert p.reduced() == TorsionPoint(2, ((1, 0, 1, 0),))

    def test_from_fractions_roundtrip(self):
        rows = [[Fraction(1, 2), Fraction(0), Fraction(1, 3), Fraction(0)]]
        p = TorsionPoint.from_fractions(rows)
        assert p.den == 6
        assert p.as_fractions() == [
            [Fraction(1, 2), Fraction(0), Fraction(1, 3), Fraction(0)]
        ]

    def test_apply_refuses_another_size(self):
        p = TorsionPoint(2, ((1, 0, 0, 0), (0, 1, 0, 0)))
        with pytest.raises(ValueError, match=r"\[1\] cannot act on a point of rank 2"):
            p.apply(((1,),))

    def test_apply_linearity(self):
        p = TorsionPoint.from_fractions(
            [[Fraction(1, 2), 0, 0, 0], [0, Fraction(1, 2), 0, 0]]
        )
        swap = ((0, 1), (1, 0))
        q = p.apply(swap)
        assert q.coords[0] == p.coords[1] and q.coords[1] == p.coords[0]
        assert p.apply(identity(2)) == p

    def test_json_roundtrip(self):
        p = TorsionPoint.from_fractions(
            [[Fraction(1, 2), Fraction(1, 4), 0, 0], [0, 0, Fraction(3, 4), 0]]
        )
        rows = p.to_json()
        assert rows == [["1/2", "1/4", "0", "0"], ["0", "0", "3/4", "0"]]
        assert TorsionPoint.from_fractions(
            [[Fraction(x) for x in row] for row in rows]
        ) == p

    def test_validation(self):
        with pytest.raises(ValueError):
            TorsionPoint(0, ())
        with pytest.raises(ValueError):
            TorsionPoint(2, ((3, 0, 0, 0),))

    @pytest.mark.parametrize(
        "den,entry",
        [
            (2, (Fraction(1), 0, 0, 0)),
            (2, (1.0, 0, 0, 0)),
            (2.0, (1, 0, 0, 0)),
            ("2", (1, 0, 0, 0)),
            (2, (True, 0, 0, 0)),
        ],
    )
    def test_refuses_entries_that_are_not_ints(self, den, entry):
        with pytest.raises(ValueError, match="int"):
            TorsionPoint(den, (entry,))

    @pytest.mark.parametrize(
        "entry", [0.1, 0.5, True, "1/2", np.int64(1), np.float64(0.5)]
    )
    def test_from_fractions_refuses_inexact_entries(self, entry):
        # a float is refused, not read by its binary value (2**55 for 0.1)
        with pytest.raises(ValueError, match=re.escape(f"entry {entry!r} is not")):
            TorsionPoint.from_fractions([[0, 0, 0, 0], [entry, 0, 0, 0]])

    def test_two_torsion_count(self):
        pts = list(two_torsion_points(2))
        assert len(pts) == 256


class TestStabilizer:
    def test_zero_point_has_full_group(self):
        datum = build_root_datum("G", 2)
        report = stabilizer(datum, TorsionPoint.zero(2))
        assert report.order == 12
        assert report.orbit_size == 1
        assert report.action_classification == "other"

    def test_orbit_stabilizer_product(self):
        datum = build_root_datum("B", 3)
        group = enumerate_group(datum)
        for p in [
            TorsionPoint.from_fractions(
                [[Fraction(1, 2), 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
            ),
            TorsionPoint.from_fractions(
                [[Fraction(1, 3), 0, 0, 0], [0, Fraction(1, 3), 0, 0], [0, 0, 0, 0]]
            ),
        ]:
            report = stabilizer(group, p)
            assert report.order * report.orbit_size == group.order
            for g in report.elements:
                assert p.apply(g) == p

    def test_conjugate_points_conjugate_stabilizers(self):
        datum = build_root_datum("G", 2)
        group = enumerate_group(datum)
        p = find_minus_one_points(group)[0]
        s = group.generators[0]
        q = p.apply(s)
        rp = stabilizer(group, p)
        rq = stabilizer(group, q)
        assert rp.order == rq.order
        conj = {
            freeze(mat_mul(s, mat_mul(g, unimodular_inverse(s))))
            for g in rp.elements
        }
        assert conj == set(rq.elements)

    def test_minus_one_report(self):
        datum = build_root_datum("G", 2)
        p = find_minus_one_points(datum)[0]
        report = stabilizer(datum, p)
        assert report.order == 2
        assert report.action_classification == "minus_one_local_model"
        assert report.local_model_label == "C^4/+-1"
        assert report.crepant == "no_crepant_resolution"


class TestBatchedStabilizer:
    """stabilizer() against the per-point reference walk, field for field."""

    @staticmethod
    def assert_same(group, point):
        fast = stabilizer(group, point)
        assert_same_stabilizer(fast, _stabilizer_reference(group, point))
        assert fast.order * fast.orbit_size == group.order
        return fast

    @pytest.mark.parametrize("letter,rank", [("G", 2), ("B", 3)])
    def test_every_minus_one_point(self, letter, rank):
        group = enumerate_group(build_root_datum(letter, rank))
        for p in find_minus_one_points(group):
            assert self.assert_same(group, p).order == 2

    def test_seeded_d4_sample(self):
        group = enumerate_group(build_root_datum("D", 4))
        points = find_minus_one_points(group)
        for p in random.Random(4).sample(points, 20):
            self.assert_same(group, p)

    @pytest.mark.parametrize("letter,rank", [("G", 2), ("B", 3), ("F", 4)])
    @pytest.mark.parametrize("den", [2, 3, 6])
    def test_seeded_points(self, letter, rank, den):
        group = enumerate_group(build_root_datum(letter, rank))
        orders = {
            self.assert_same(group, p).order
            for p in _points_of_denominator(group, den, 12, seed=den * rank)
        }
        assert len(orders) >= 2

    @pytest.mark.parametrize("letter,rank", [("G", 2), ("B", 3), ("F", 4)])
    def test_zero_point_is_whole_group(self, letter, rank):
        group = enumerate_group(build_root_datum(letter, rank))
        report = self.assert_same(group, TorsionPoint.zero(rank))
        assert set(report.elements) == set(group.elements)

    @pytest.mark.parametrize("letter,rank", [("G", 2), ("B", 3)])
    def test_elements_by_brute_force(self, letter, rank):
        group = enumerate_group(build_root_datum(letter, rank))
        points = _points_of_denominator(group, 2, 6, seed=rank)
        points += _points_of_denominator(group, 6, 6, seed=rank)
        for p in points + find_minus_one_points(group)[:5]:
            brute = sorted(g for g in group if p.apply(g) == p)
            assert list(stabilizer(group, p).elements) == brute

    @pytest.mark.parametrize("letter,rank,den", [("G", 2, 301), ("B", 3, 2**31 + 11)])
    def test_keys_wider_than_one_word(self, letter, rank, den):
        # den ** (4 * rank) > 2 ** 63, so no point fits in one int64 word;
        # entries near 2 ** 31 must still pass the entry bound check on g p
        group = enumerate_group(build_root_datum(letter, rank))
        for p in _points_of_denominator(group, den, 6, seed=den):
            self.assert_same(group, p)

    def test_subgroup_is_enumerated_once(self, monkeypatch):
        # the greedy generators are checked inside H's index, with no second
        # enumeration of the growing group, and a second call on the same
        # root datum finds H kept on its root table
        calls = []
        real = weylorb.rootdata.enumerate_group

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (weylorb.rootdata, weylorb.torsion):
            monkeypatch.setattr(module, "enumerate_group", counted)
        datum = build_root_datum("F", 4)
        report = stabilizer(datum, TorsionPoint.zero(4))
        assert (report.order, len(report.generators), len(calls)) == (1152, 4, 1)
        assert stabilizer(datum, TorsionPoint.zero(4)) == report
        assert len(calls) == 1

    def test_entry_bound_is_checked(self):
        p = TorsionPoint(2**62 + 1, ((1, 0, 0, 0), (0, 0, 0, 0)))
        with pytest.raises(EntryBoundError):
            stabilizer(build_root_datum("G", 2), p)

    def test_element_cap_raises(self):
        # the zero point's stabilizer is all of W(B_3), of order 48
        with pytest.raises(GroupOrderCapError, match="cap 10"):
            stabilizer(build_root_datum("B", 3), TorsionPoint.zero(3), order_cap=10)

    def test_orbit_cap_raises(self):
        # the cap bounds |W(Phi_t)| = 4, not the W-orbit of 48, which is
        # reported but never walked
        datum = build_root_datum("B", 3)
        p = TorsionPoint(3, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 2)))
        report = stabilizer(datum, p)
        n = _point_subgroup(root_table(datum.weyl_generators), p)[1]
        assert (report.orbit_size, n) == (48, 4)
        assert stabilizer(datum, p, order_cap=n) == report
        with pytest.raises(GroupOrderCapError, match=f"cap {n - 1}"):
            stabilizer(datum, p, order_cap=n - 1)

    def test_e8_zero_point_is_refused_before_enumeration(self):
        # W(Phi_t) is all of W(E_8), whose order root heights give at once
        with pytest.raises(GroupOrderCapError, match="cap 1000000"):
            stabilizer(build_root_datum("E", 8), TorsionPoint.zero(8))

    def test_point_of_another_rank_is_refused(self):
        with pytest.raises(ValueError, match="rank 3 for a group of rank 2"):
            stabilizer(build_root_datum("G", 2), TorsionPoint.zero(3))

    def test_no_generators_is_refused(self):
        with pytest.raises(ValueError, match="no generators"):
            stabilizer([], TorsionPoint.zero(2))

    def test_fractional_generator_is_refused(self):
        # int64 conversion once truncated -1.5 to -1, the local model -1
        with pytest.raises(ValueError, match="not integers"):
            stabilizer([[[-1.5]]], TorsionPoint(2, ((1, 0, 0, 0),)))


class TestSubgroupMemo:
    """stabilizer() on a group whose root table keeps the subgroups it has
    enumerated, against the same call on a freshly built group."""

    @staticmethod
    def cold(letter, rank, point):
        return stabilizer(enumerate_group(build_root_datum(letter, rank)), point)

    def test_every_d4_minus_one_point(self):
        group = enumerate_group(build_root_datum("D", 4))
        for p in find_minus_one_points(build_root_datum("D", 4)):
            assert stabilizer(group, p) == self.cold("D", 4, p)
        assert len(group.roots._subgroups) == 3

    @pytest.mark.parametrize("letter,rank", [("G", 2), ("B", 3)])
    def test_seeded_points(self, letter, rank):
        group = enumerate_group(build_root_datum(letter, rank))
        points = _points_of_denominator(group, 6, 30, seed=rank)
        for p in points:
            assert stabilizer(group, p) == self.cold(letter, rank, p)
        assert len(group.roots._subgroups) >= 2

    def test_memo_is_bounded_by_the_cap(self):
        # the D_4 minus-one points search 3 distinct subgroups of order 16;
        # at a cap of 17 the first is kept and the others are not
        group = enumerate_group(build_root_datum("D", 4))
        table = group.roots
        points = find_minus_one_points(build_root_datum("D", 4))
        first = tuple(_point_subgroup(table, points[0])[0])
        assert len({tuple(_point_subgroup(table, p)[0]) for p in points}) == 3
        for p in points:
            assert stabilizer(group, p, order_cap=17) == self.cold("D", 4, p)
        assert list(table._subgroups) == [first]


class TestSubgroupReduction:
    """stabilizer() searches W(Phi_t); brute force over all of W must give
    the same stabilizer element for element."""

    @staticmethod
    def assert_same(group, point):
        fast = stabilizer(group, point)
        assert_same_stabilizer(fast, _brute_force(group, point))
        return fast

    def test_seeded_d4_sample(self):
        group = enumerate_group(build_root_datum("D", 4))
        assert group.roots is not None
        points = find_minus_one_points(group)
        for p in random.Random(44).sample(points, 40):
            assert self.assert_same(group, p).order == 2

    @pytest.mark.parametrize("den", [2, 3, 6])
    def test_seeded_f4_points(self, den):
        group = enumerate_group(build_root_datum("F", 4))
        points = _points_of_denominator(group, den, 12, seed=100 + den)
        assert len({self.assert_same(group, p).order for p in points}) >= 2

    def test_e6_propagate_points(self):
        sub = build_root_datum("D", 4)
        emb = embed_diagram(sub, build_root_datum("E", 6), [3, 4, 5, 2])
        group = enumerate_group(emb.ambient)
        sub_points = find_minus_one_points(sub)
        for seed in range(8):
            p = random.Random(seed).choice(sub_points)
            result = propagate(emb, p, seed=seed)
            fast = self.assert_same(group, result.point)
            assert (fast.order, fast.orbit_size) == (2, 25920)
            # the subgroup searched is far smaller than W(E_6)
            assert _point_subgroup(group.roots, result.point)[1] < 100

    @pytest.mark.parametrize("letter,rank", [("B", 3), ("D", 4)])
    def test_seeded_basis(self, letter, rank):
        # conjugating by a unimodular u keeps every generator a reflection,
        # with other coroot signs and coordinates
        rng = random.Random(rank)
        u, u_inv = identity(rank), identity(rank)
        for _ in range(6):
            i, j = rng.sample(range(rank), 2)
            e, e_inv = identity(rank), identity(rank)
            e[i][j] = rng.choice([-1, 1])
            e_inv[i][j] = -e[i][j]
            u, u_inv = mat_mul(e, u), mat_mul(u_inv, e_inv)
        gens = [
            mat_mul(mat_mul(u, [list(r) for r in s]), u_inv)
            for s in build_root_datum(letter, rank).weyl_generators
        ]
        group = enumerate_group(gens)
        assert group.roots is not None
        for den in (2, 3):
            for p in _points_of_denominator(group, den, 8, seed=den):
                self.assert_same(group, p)

    def test_coweight_basis_keeps_the_whole_group(self):
        # W(A_2) on its coweight lattice: the coroots span a sublattice of
        # index 3, so Stab(x_t) need not be a reflection group.  Here
        # W(Phi_t) is trivial, but the rotation of order 3 fixes the point.
        gens = [((-1, 0), (1, 1)), ((1, 1), (0, -1))]
        p = TorsionPoint(3, ((0, 0, 0, 1), (0, 0, 0, 1)))
        group = enumerate_group(gens)
        brute = sorted(g for g in group if p.apply(g) == p)
        assert len(brute) == 3
        assert root_table(gens) is None and group.roots is None
        for action in (gens, group):
            report = stabilizer(action, p)
            assert report.order == 3 and list(report.elements) == brute
        assert stabilizer(group, p).orbit_size == 2

    def test_coweight_group_is_searched_in_its_own_stack(self, monkeypatch):
        # with no root table H is W, which a WeylGroup already holds: the
        # reports are those of W enumerated afresh from its generators
        gens = [((-1, 0), (1, 1)), ((1, 1), (0, -1))]
        group = enumerate_group(gens)
        points = [
            TorsionPoint(3, ((0, 0, 0, 1), (0, 0, 0, 1))),
            TorsionPoint(5, ((1, 0, 0, 0), (2, 0, 0, 0))),
            TorsionPoint.zero(2),
        ]
        expected = [stabilizer(gens, p) for p in points]
        calls = []
        real = weylorb.rootdata.enumerate_group

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (weylorb.rootdata, weylorb.torsion):
            monkeypatch.setattr(module, "enumerate_group", counted)
        assert [stabilizer(group, p) for p in points] == expected
        assert calls == []

    @pytest.mark.parametrize("source", ["datum", "group", "coweight"])
    def test_orbit_cap_is_exact(self, source):
        if source == "coweight":
            action = enumerate_group([((-1, 0), (1, 1)), ((1, 1), (0, -1))])
            p = TorsionPoint(5, ((1, 0, 0, 0), (2, 0, 0, 0)))
        else:
            action = build_root_datum("B", 3)
            if source == "group":
                action = enumerate_group(action)
            p = TorsionPoint(3, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 2)))
        # the cap bounds the subgroup searched: W itself on the coweight
        # lattice, W(Phi_t) otherwise
        report = stabilizer(action, p)
        table = _group_parts(action)[2]
        if table is None:
            n = report.orbit_size * report.order
            assert n == 6
        else:
            n = _point_subgroup(table, p)[1]
        assert n > 1
        assert stabilizer(action, p, order_cap=n) == report
        with pytest.raises(GroupOrderCapError, match=f"cap {n - 1}"):
            stabilizer(action, p, order_cap=n - 1)


class TestTwoTorsionOrbits:
    @pytest.mark.parametrize("letter,rank", [("G", 2), ("B", 3)])
    def test_partition_matches_brute_force(self, letter, rank):
        group = enumerate_group(build_root_datum(letter, rank))
        n = 1 << (4 * rank)
        codes = np.arange(n)
        # bit 4j + t of a code is coordinate t of row j: bits[x, j, t]
        shifts = 4 * np.arange(rank)[:, None] + np.arange(4)
        bits = (codes[:, None, None] >> shifts) & 1
        weights = 1 << shifts
        least = codes.copy()
        for g in group:
            image = ((np.array(g) @ bits) % 2 * weights).sum(axis=(1, 2))
            least = np.minimum(least, image)
        reps, sizes = np.unique(least, return_counts=True)
        expected = list(zip(reps.tolist(), sizes.tolist()))
        assert _two_torsion_orbit_reps(group.generators, rank) == expected

    def test_rejects_generator_singular_mod_two(self):
        with pytest.raises(ValueError, match="not invertible modulo 2"):
            _two_torsion_orbit_reps([((2, 1), (0, 1))], 2)

    @pytest.mark.parametrize("letter,rank", [("G", 2), ("B", 3)])
    def test_nonzero_codes_decode_reduced(self, letter, rank):
        for code in range(1, 1 << (4 * rank)):
            p = _decode_two_torsion(code, rank)
            assert p == p.reduced()


class TestMinusOneScan:
    @pytest.mark.parametrize(
        "letter,rank,label",
        [("G", 2, "C^4/+-1"), ("B", 3, "C^6/+-1"), ("D", 4, "C^8/+-1")],
    )
    def test_scans_find_points(self, letter, rank, label):
        datum = build_root_datum(letter, rank)
        points = find_minus_one_points(datum, denominator_bound=4)
        assert points
        report = stabilizer(datum, points[0])
        assert report.order == 2
        assert report.action_classification == "minus_one_local_model"
        assert report.local_model_label == label
        assert minus_identity(rank) in report.elements

    def test_representatives_lie_in_distinct_orbits(self):
        datum = build_root_datum("G", 2)
        group = enumerate_group(datum)
        points = find_minus_one_points(group)
        seen = set()
        for p in points:
            orbit = frozenset(p.apply(g) for g in group)
            assert orbit not in seen
            seen.add(orbit)

    def test_counts_frozen(self):
        # orbit counts frozen from the exhaustive 2-torsion enumeration
        assert len(find_minus_one_points(build_root_datum("G", 2))) == 35
        assert len(find_minus_one_points(build_root_datum("B", 3))) == 140

    def test_scan_agrees_with_per_point_enumeration_rank2(self):
        # independent route: test all 2-torsion points directly
        datum = build_root_datum("G", 2)
        group = enumerate_group(datum)
        minus = minus_identity(2)
        brute_orbits = set()
        for p in two_torsion_points(2):
            if p == TorsionPoint.zero(2):
                continue
            stab = [g for g in group if p.apply(g) == p]
            if len(stab) == 2 and minus in stab:
                brute_orbits.add(frozenset(p.apply(g) for g in group))
        fast = find_minus_one_points(group)
        fast_orbits = {frozenset(p.apply(g) for g in group) for p in fast}
        assert fast_orbits == brute_orbits

    def test_a_series_has_none(self):
        # -1 is not in the Weyl group of A_2, so no orbit qualifies
        assert find_minus_one_points(build_root_datum("A", 2)) == []

    def test_denominator_bound_validation(self):
        with pytest.raises(ValueError):
            find_minus_one_points(build_root_datum("G", 2), denominator_bound=1)

    @pytest.mark.parametrize(
        "letter,rank,count", [("G", 2, 35), ("B", 3, 140), ("D", 4, 560)]
    )
    def test_every_source_gives_the_same_points(self, letter, rank, count):
        datum = build_root_datum(letter, rank)
        group = enumerate_group(datum)
        points = find_minus_one_points(group)
        assert len(points) == count
        assert find_minus_one_points(datum) == points
        assert find_minus_one_points(list(datum.weyl_generators)) == points

    def test_none_without_minus_one(self):
        assert find_minus_one_points(build_root_datum("A", 3)) == []
        # W(A_2) on its coweight lattice: no root table, no known order
        coweight = [((-1, 0), (1, 1)), ((1, 1), (0, -1))]
        assert find_minus_one_points(coweight) == []

    def test_no_generators_is_refused(self):
        with pytest.raises(ValueError, match="no generators"):
            find_minus_one_points([])


class TestPropagation:
    @pytest.mark.parametrize(
        "sub,ambient,nodes,extra",
        [
            (("B", 3), ("F", 4), [1, 2, 3], 1),
            (("D", 4), ("D", 5), [2, 3, 4, 5], 1),
        ],
    )
    def test_stabilizer_preserved(self, sub, ambient, nodes, extra):
        sub_datum = build_root_datum(*sub)
        amb_datum = build_root_datum(*ambient)
        emb = embed_diagram(sub_datum, amb_datum, nodes)
        p = find_minus_one_points(sub_datum, denominator_bound=4)[0]
        result = propagate(emb, p, seed=0)
        assert result.report.order == result.sub_report.order == 2
        assert result.local_model_label == (
            f"(C^{2 * sub_datum.rank}/W_p) x C^{2 * extra}"
        )
        # the found point is genuinely stabilized by order-2 subgroup
        check = stabilizer(amb_datum, result.point)
        assert check.order == 2

    def test_seeded_determinism(self):
        emb = embed_diagram("B_3", "F_4", [1, 2, 3])
        p = find_minus_one_points(build_root_datum("B", 3))[0]
        r1 = propagate(emb, p, seed=7)
        r2 = propagate(emb, p, seed=7)
        assert r1.point == r2.point and r1.attempts == r2.attempts

    def test_fine_denominator_must_be_coprime(self):
        emb = embed_diagram("B_3", "F_4", [1, 2, 3])
        p = find_minus_one_points(build_root_datum("B", 3))[0]
        with pytest.raises(ValueError):
            propagate(emb, p, fine_denominator=2)

    @pytest.mark.parametrize("f", [0, -3])
    def test_fine_denominator_must_be_positive(self, f):
        emb = embed_diagram("B_3", "F_4", [1, 2, 3])
        p = find_minus_one_points(build_root_datum("B", 3))[0]
        with pytest.raises(ValueError, match="fine denominator must be at least 1"):
            propagate(emb, p, fine_denominator=f)

    @pytest.mark.parametrize("f", [3, 7])
    @pytest.mark.parametrize(
        "sub,ambient,nodes",
        [(("D", 4), "E_6", [3, 4, 5, 2]), (("B", 3), "F_4", [1, 2, 3])],
    )
    def test_candidates_match_the_fraction_reference(self, sub, ambient, nodes, f):
        sub_datum = build_root_datum(*sub)
        emb = embed_diagram(sub_datum, ambient, nodes)
        sub_points = find_minus_one_points(sub_datum)
        for seed in range(8):
            p = random.Random(seed).choice(sub_points)
            result = propagate(emb, p, fine_denominator=f, seed=seed)
            candidates = perturbed_candidates(emb, p, f, seed, result.attempts)
            assert result.point == candidates[result.attempts - 1]
