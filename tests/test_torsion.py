"""Torsion points, stabilizers, minus-one scans, and propagation."""

import dataclasses
import random
import re
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import weylorb.rootdata
import weylorb.torsion
from weylorb.intlinalg import (
    EntryBoundError,
    det,
    freeze,
    identity,
    mat_mul,
)
from weylorb.rootdata import (
    GroupOrderCapError,
    RootTable,
    build_root_datum,
    embed_diagram,
    enumerate_group,
    root_table,
)
from weylorb.stringy import LatticeAction, verify_su_case
from weylorb.torsion import (
    PerturbationNotFoundError,
    StabilizerReport,
    TorsionPoint,
    _group_parts,
    _point_subgroup,
    _points_of_codes,
    _two_torsion_moves,
    _two_torsion_orbit_reps,
    find_minus_one_points,
    propagate,
    stabilizer,
)

from references import (
    decode_two_torsion,
    generated_elements,
    perturbed_candidates,
    stabilizer_by_index_closure,
    torsion_point_refuses,
    two_torsion_moves_by_nibbles,
    two_torsion_orbit_reps_by_nibbles,
    two_torsion_points,
    unimodular_inverse,
)


def _subgroup_of(table, p, order_cap=10**6):
    """_point_subgroup of a TorsionPoint, as stabilizer calls it."""
    coords = np.array(p.coords, dtype=np.int64)
    return _point_subgroup(table, p.den, coords, order_cap)


def _elements(group):
    """The elements of a WeylGroup as nested tuples, in stack order."""
    return [freeze(m) for m in group.stack.tolist()]


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
    generator) order until the closure reaches |W| / |orbit|.  Returns the
    report and, beside it, the closure as sorted nested tuples.
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
    expected = order // len(witness)
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
    classifies them, and beside it the elements, sorted."""
    minus = minus_identity(rank)
    if len(elements) == 1:
        cls, label = "trivial", "smooth point"
    elif len(elements) == 2 and minus in elements:
        cls, label = "minus_one_local_model", f"C^{2 * rank}/+-1"
    else:
        cls, label = "other", f"subgroup of order {len(elements)}"
    report = StabilizerReport(
        generators=tuple(gens),
        order=len(elements),
        orbit_size=orbit_size,
        action_classification=cls,
        local_model_label=label,
    )
    return report, sorted(elements)


def _brute_force(group, point):
    """Brute force over all of W: the elements of the stack that fix p,
    beside their report."""
    p = point.reduced()
    coords = np.array(p.coords, dtype=np.int64)
    stack = group.stack
    fixed = stack[(stack @ coords % p.den == coords).all(axis=(1, 2))].tolist()
    elements = [freeze(g) for g in fixed]
    return _report(elements, elements, group.order // len(fixed), p.rank)


def assert_same_stabilizer(report, reference):
    """Every field equal to the reference report's but the generators, which
    are not canonical; those must generate exactly the reference's elements."""
    expected, elements = reference
    assert dataclasses.replace(report, generators=()) == dataclasses.replace(
        expected, generators=()
    )
    assert generated_elements(report, len(elements[0])) == elements


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
        points.append(p.apply(rng.choice(_elements(group))))
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
        "coords", [5, None, (5,), ((0, 0, 0, 0), 7), (None,)], ids=repr
    )
    def test_refuses_coordinates_that_are_no_rows(self, coords):
        with pytest.raises(ValueError, match="4-vectors"):
            TorsionPoint(2, coords)

    @pytest.mark.parametrize(
        "entry", [0.1, 0.5, True, "1/2", np.int64(1), np.float64(0.5)]
    )
    def test_from_fractions_refuses_inexact_entries(self, entry):
        # a float is refused, not read by its binary value (2**55 for 0.1)
        with pytest.raises(ValueError, match=re.escape(f"entry {entry!r} is not")):
            TorsionPoint.from_fractions([[0, 0, 0, 0], [entry, 0, 0, 0]])

    @seed(22)
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_refuses_what_the_entry_loop_refuses(self, data):
        # valid rows, then at most one defect: a bad denominator, a bad
        # entry, a row of length 3 or 5, a row that is no sequence, or
        # coordinates that are none
        den = data.draw(st.integers(1, 6))
        rows = data.draw(
            st.lists(st.lists(st.integers(0, den - 1), min_size=4, max_size=4), max_size=3)
        )
        defect = data.draw(
            st.sampled_from([None, "den", "entry", "length", "row", "coords"])
        )
        if defect == "den":
            den = data.draw(st.sampled_from([0, -1, True, 2.0, Fraction(2), np.int64(2)]))
        elif defect == "coords":
            rows = data.draw(st.sampled_from([5, None, 2.0]))
        elif defect == "row" and rows:
            rows[data.draw(st.integers(0, len(rows) - 1))] = data.draw(
                st.sampled_from([0, None, 1.5])
            )
        elif defect and rows:
            row = rows[data.draw(st.integers(0, len(rows) - 1))]
            if defect == "entry":
                bad = [-1, den, den + 1, True, False, 1.0, Fraction(1), np.int64(1)]
                row[data.draw(st.integers(0, 3))] = data.draw(st.sampled_from(bad))
            else:
                row[:] = row[:3] if data.draw(st.booleans()) else row + [0]
        if isinstance(rows, list):
            rows = tuple(r if type(r) is not list else tuple(r) for r in rows)
        try:
            TorsionPoint(den, rows)
        except ValueError:
            refused = True
        else:
            refused = False
        assert refused == torsion_point_refuses(den, rows)

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
            for g in generated_elements(report, 3):
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
            for g in generated_elements(rp, 2)
        }
        assert conj == set(generated_elements(rq, 2))

    def test_minus_one_report(self):
        datum = build_root_datum("G", 2)
        p = find_minus_one_points(datum)[0]
        report = stabilizer(datum, p)
        assert report.order == 2
        assert report.action_classification == "minus_one_local_model"
        assert report.local_model_label == "C^4/+-1"
        assert generated_elements(report, 2) == [minus_identity(2), freeze(identity(2))]

    def test_no_element_is_frozen(self, monkeypatch):
        # the E_6 zero point's stabilizer is all 51,840 rows of W(E_6); only
        # its generators become nested tuples
        calls = []
        real = weylorb.torsion.freeze

        def counted(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(weylorb.torsion, "freeze", counted)
        report = stabilizer(build_root_datum("E", 6), TorsionPoint.zero(6))
        assert report.order == 51840
        assert len(calls) <= len(report.generators)


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
        assert generated_elements(report, rank) == sorted(_elements(group))

    @pytest.mark.parametrize("letter,rank", [("G", 2), ("B", 3)])
    def test_elements_by_brute_force(self, letter, rank):
        group = enumerate_group(build_root_datum(letter, rank))
        points = _points_of_denominator(group, 2, 6, seed=rank)
        points += _points_of_denominator(group, 6, 6, seed=rank)
        for p in points + find_minus_one_points(group)[:5]:
            brute = sorted(g for g in _elements(group) if p.apply(g) == p)
            assert generated_elements(stabilizer(group, p), rank) == brute

    @pytest.mark.parametrize("letter,rank,den", [("G", 2, 301), ("B", 3, 2**31 + 11)])
    def test_keys_wider_than_one_word(self, letter, rank, den):
        # den ** (4 * rank) > 2 ** 63, so no point fits in one int64 word;
        # entries near 2 ** 31 must still pass the entry bound check on g p
        group = enumerate_group(build_root_datum(letter, rank))
        for p in _points_of_denominator(group, den, 6, seed=den):
            self.assert_same(group, p)

    def test_subgroup_is_enumerated_once(self, monkeypatch):
        # the greedy generators are closed inside the fixed rows, with no
        # second enumeration of the growing group, and a second call on the
        # same root datum finds H kept on its root table
        calls = []
        real = weylorb.rootdata.enumerate_group

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(weylorb.rootdata, "enumerate_group", counted)
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
        n = _subgroup_of(root_table(datum.weyl_generators), p).order
        assert (report.orbit_size, n) == (48, 4)
        assert stabilizer(datum, p, order_cap=n) == report
        with pytest.raises(GroupOrderCapError, match=f"cap {n - 1}"):
            stabilizer(datum, p, order_cap=n - 1)

    @pytest.mark.parametrize(
        "refused,message",
        [
            (
                lambda: enumerate_group(build_root_datum("D", 4), order_cap=100),
                "W(D_4) has order 192, which exceeds the cap 100",
            ),
            (
                lambda: stabilizer(
                    build_root_datum("B", 3), TorsionPoint.zero(3), order_cap=10
                ),
                "the subgroup searched has order 48, which exceeds the cap 10",
            ),
        ],
        ids=["enumerate_group", "root-table"],
    )
    def test_cap_refusals_read_alike(self, refused, message):
        with pytest.raises(GroupOrderCapError, match=f"^{re.escape(message)}$"):
            refused()

    def test_e8_zero_point_is_refused_before_enumeration(self):
        # W(Phi_t) is all of W(E_8), whose order root heights give at once
        with pytest.raises(GroupOrderCapError, match="cap 1000000"):
            stabilizer(build_root_datum("E", 8), TorsionPoint.zero(8))

    def test_point_of_another_rank_is_refused(self):
        with pytest.raises(ValueError, match="rank 3 for a group of rank 2"):
            stabilizer(build_root_datum("G", 2), TorsionPoint.zero(3))

    def test_no_generators_is_refused(self):
        with pytest.raises(ValueError, match="no generators"):
            stabilizer(enumerate_group([]), TorsionPoint.zero(2))

    def test_fractional_generator_is_refused(self):
        # int64 conversion once truncated -1.5 to -1, the local model -1
        with pytest.raises(ValueError, match="not integers"):
            stabilizer(enumerate_group([[[-1.5]]]), TorsionPoint(2, ((1, 0, 0, 0),)))

    def test_bare_generator_list_is_refused(self):
        # a bare list would rebuild its root table on every call; the three
        # sources that keep one are accepted
        datum = build_root_datum("G", 2)
        group = enumerate_group(datum)
        p = find_minus_one_points(datum)[0]
        report = stabilizer(datum, p)
        assert stabilizer(group, p) == stabilizer(LatticeAction(group), p) == report
        gens = list(datum.weyl_generators)
        accepted = "a WeylGroup, a LatticeAction or a RootDatum"
        with pytest.raises(ValueError, match=accepted):
            stabilizer(gens, p)
        with pytest.raises(ValueError, match=accepted):
            find_minus_one_points(gens)


class TestClosureInsideFixedRows:
    """stabilizer() closes its greedy generators inside the fixed rows; the
    breadth-first closure inside H's index must give the same report,
    generators and their order included."""

    COWEIGHT_A2 = [((-1, 0), (1, 1)), ((1, 1), (0, -1))]

    @pytest.mark.parametrize(
        "letter,rank", [("G", 2), ("B", 3), ("D", 4), ("F", 4), ("coweight", 2)]
    )
    @pytest.mark.parametrize("den", [1, 2, 3, 4, 5, 6])
    def test_seeded_points(self, letter, rank, den):
        if letter == "coweight":
            # no root table, so H is W itself
            group = enumerate_group(self.COWEIGHT_A2)
            assert group.roots is None
        else:
            group = enumerate_group(build_root_datum(letter, rank))
        points = _points_of_denominator(group, den, 10, seed=31 * den + rank)
        orders = set()
        for p in points + [TorsionPoint.zero(rank)]:
            report = stabilizer(group, p)
            reference, elements = stabilizer_by_index_closure(group, p)
            assert report == reference
            assert generated_elements(report, rank) == elements
            orders.add(report.order)
        # mod 1 every point is zero, whose stabilizer is all of W
        assert len(orders) == 1 if den == 1 else len(orders) >= 2

    def test_minus_one_points(self):
        group = enumerate_group(build_root_datum("D", 4))
        for p in find_minus_one_points(group):
            report = stabilizer(group, p)
            reference, elements = stabilizer_by_index_closure(group, p)
            assert report == reference
            assert generated_elements(report, 4) == elements

    @pytest.mark.parametrize(
        "rows,bound,error,match",
        [
            # the rotation of order 3 is a fixed row, its square is not
            ([[[0, -1], [1, -1]]], 1, AssertionError, "the fixed rows are not a group"),
            # a row whose square could overflow int64
            ([[[1, 2**40], [0, 1]]], 2**40, EntryBoundError, "could overflow"),
        ],
        ids=["no-group", "entry-bound"],
    )
    def test_fixed_rows_are_checked(self, monkeypatch, rows, bound, error, match):
        # H is replaced by the identity and these rows, all fixing the zero
        # point, so the closure meets them as its fixed rows
        stack = np.array([identity(2)] + rows, dtype=np.int64)
        fake = types.SimpleNamespace(stack=stack, bound=bound)
        monkeypatch.setattr(weylorb.torsion, "_point_subgroup", lambda *args: fake)
        with pytest.raises(error, match=match):
            stabilizer(build_root_datum("A", 2), TorsionPoint.zero(2))
        fake.stack, fake.bound = stack[:1], 1
        assert stabilizer(build_root_datum("A", 2), TorsionPoint.zero(2)).order == 1


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

    def test_subsystem_runs_once_per_mask(self, monkeypatch):
        # the 560 points give 3 integrality masks; the memo of one table
        # finds the simple rows of each once, and a fresh table again
        calls = []
        real = RootTable.subsystem

        def counted(table, mask):
            calls.append((table, mask))
            return real(table, mask)

        monkeypatch.setattr(RootTable, "subsystem", counted)
        points = find_minus_one_points(build_root_datum("D", 4))
        assert len(points) == 560
        for _ in range(2):
            calls.clear()
            group = enumerate_group(build_root_datum("D", 4))
            for p in points:
                stabilizer(group, p)
            assert len(calls) == 3
            assert {table for table, _ in calls} == {group.roots}
            assert len({mask for _, mask in calls}) == 3

    def test_each_kept_subgroup_bound_is_read_once(self, monkeypatch):
        # a second pass over the 560 points reads no entry bound again: each
        # kept H holds its max_abs, the root table that of its forms, and
        # the coordinates are no stack
        group = enumerate_group(build_root_datum("D", 4))
        points = find_minus_one_points(build_root_datum("D", 4))
        first = [stabilizer(group, p) for p in points]
        reads = []
        real = weylorb.rootdata.max_abs

        def counted(a):
            reads.append(a.ndim)
            return real(a)

        for module in (weylorb.rootdata, weylorb.torsion):
            monkeypatch.setattr(module, "max_abs", counted)
        assert [stabilizer(group, p) for p in points] == first
        assert reads == []
        kept = list(group.roots._subgroups.values())
        assert len(kept) == 3
        assert all(sub.__dict__["bound"] == real(sub.stack) for sub in kept)
        assert group.roots.form_bound == real(group.roots.forms)

    def test_memo_is_bounded_by_the_cap(self):
        # the D_4 minus-one points search 3 distinct subgroups of order 16;
        # at a cap of 17 the first is kept and the others are not
        group = enumerate_group(build_root_datum("D", 4))
        points = find_minus_one_points(build_root_datum("D", 4))
        searched = root_table(group.generators)  # a second table, kept apart
        subs = {_subgroup_of(searched, p) for p in points}
        assert [sub.order for sub in subs] == [16, 16, 16]
        for p in points:
            assert stabilizer(group, p, order_cap=17) == self.cold("D", 4, p)
        first = list(searched._subgroups)[0]
        assert list(group.roots._subgroups) == [first]
        (kept,) = group.roots._subgroups.values()
        assert _subgroup_of(group.roots, points[0], 17) is kept
        assert np.array_equal(kept.stack, searched._subgroups[first].stack)


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
            assert _subgroup_of(group.roots, result.point).order < 100

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
        brute = sorted(g for g in _elements(group) if p.apply(g) == p)
        assert len(brute) == 3
        assert root_table(gens) is None and group.roots is None
        for action in (enumerate_group(gens), group):
            report = stabilizer(action, p)
            assert report.order == 3 and generated_elements(report, 2) == brute
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
        expected = [stabilizer(enumerate_group(gens), p) for p in points]
        calls = []
        real = weylorb.rootdata.enumerate_group

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(weylorb.rootdata, "enumerate_group", counted)
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
        # the cap bounds W(Phi_t); W itself, searched on the coweight
        # lattice, was enumerated under enumerate_group's cap, so a cap
        # below its order refuses nothing there
        report = stabilizer(action, p)
        table = _group_parts(action)[2]
        if table is None:
            assert report.orbit_size * report.order == 6
            assert stabilizer(action, p, order_cap=1) == report
            return
        n = _subgroup_of(table, p).order
        # W(Phi_t) is kept, so the refusal below is a memo hit's
        assert len(table._subgroups) == 1
        assert n > 1
        assert stabilizer(action, p, order_cap=n) == report
        with pytest.raises(GroupOrderCapError, match=f"cap {n - 1}"):
            stabilizer(action, p, order_cap=n - 1)


@st.composite
def _odd_generator_lists(draw):
    """One to three integer matrices of rank 1-4 with odd determinant: a
    permuted product of unit lower and upper triangular 0/1 matrices, which
    has determinant +-1 mod 2, plus twice a matrix with entries in [-1, 1].
    """
    rank = draw(st.integers(1, 4))
    bits = st.integers(0, 1)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        perm = draw(st.permutations(range(rank)))
        lower = [
            [1 if i == j else draw(bits) if j < i else 0 for j in range(rank)]
            for i in range(rank)
        ]
        upper = [
            [1 if i == j else draw(bits) if j > i else 0 for j in range(rank)]
            for i in range(rank)
        ]
        lu = mat_mul(lower, upper)
        gens.append([
            [lu[perm[i]][j] + 2 * draw(st.integers(-1, 1)) for j in range(rank)]
            for i in range(rank)
        ])
    return gens


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
        for g in group.stack:
            image = ((g @ bits) % 2 * weights).sum(axis=(1, 2))
            least = np.minimum(least, image)
        reps, sizes = np.unique(least, return_counts=True)
        expected = list(zip(reps.tolist(), sizes.tolist()))
        assert _two_torsion_orbit_reps(group.generators, rank) == expected

    def test_rejects_generator_singular_mod_two(self):
        with pytest.raises(ValueError, match="not invertible modulo 2"):
            _two_torsion_orbit_reps([((2, 1), (0, 1))], 2)

    @seed(22)
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_moves_match_the_nibble_reference(self, data):
        gens = data.draw(_odd_generator_lists())
        rank = len(gens[0])
        new = _two_torsion_moves(gens, rank)
        old = two_torsion_moves_by_nibbles(gens, rank)
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        reps = _two_torsion_orbit_reps(gens, rank)
        assert reps == two_torsion_orbit_reps_by_nibbles(gens, rank)

    @seed(22)
    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_even_determinant_is_refused_like_the_reference(self, data):
        gens = data.draw(_odd_generator_lists())
        rank = len(gens[0])
        even = [[2 * x for x in row] for row in gens[0]]
        gens.insert(data.draw(st.integers(0, len(gens))), even)
        assert det(even) % 2 == 0
        for moves in (_two_torsion_moves, two_torsion_moves_by_nibbles):
            with pytest.raises(ValueError, match="not invertible modulo 2"):
                moves(gens, rank)

    def test_decoding_reads_bit_4j_plus_t(self):
        # coordinate t over the j-th simple coroot is bit 4j + t of the code
        codes = range(1, 1 << 12)
        for code, p in zip(codes, _points_of_codes(codes, 3), strict=True):
            coords = tuple(
                tuple((code >> (4 * j + t)) & 1 for t in range(4)) for j in range(3)
            )
            assert p == TorsionPoint(2, coords)

    @pytest.mark.parametrize("letter,rank", [("G", 2), ("B", 3)])
    def test_nonzero_codes_decode_reduced(self, letter, rank):
        for p in _points_of_codes(range(1, 1 << (4 * rank)), rank):
            assert p == p.reduced()

    def test_bulk_points_are_the_per_code_decode(self):
        # the scan's 560 D_4 points, built from one bit array, against the
        # checking constructor one code at a time: equal, of int entries,
        # and each passes that constructor's check
        datum = build_root_datum("D", 4)
        points = find_minus_one_points(datum)
        reps = _two_torsion_orbit_reps(datum.weyl_generators, 4)
        codes = [code for code, size in reps if size == 96]
        assert len(points) == len(codes) == 560
        assert points == [decode_two_torsion(code, 4) for code in codes]
        for p in points:
            assert type(p.coords) is tuple and all(type(r) is tuple for r in p.coords)
            assert {type(x) for row in p.coords for x in row} == {int}
            assert TorsionPoint(p.den, p.coords) == p and hash(p) == hash(p.reduced())
        assert _points_of_codes([], 4) == []


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
        assert minus_identity(rank) in generated_elements(report, rank)

    def test_representatives_lie_in_distinct_orbits(self):
        datum = build_root_datum("G", 2)
        group = enumerate_group(datum)
        points = find_minus_one_points(group)
        seen = set()
        for p in points:
            orbit = frozenset(p.apply(g) for g in _elements(group))
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
        elements = _elements(group)
        brute_orbits = set()
        for p in two_torsion_points(2):
            if p == TorsionPoint.zero(2):
                continue
            stab = [g for g in elements if p.apply(g) == p]
            if len(stab) == 2 and minus in stab:
                brute_orbits.add(frozenset(p.apply(g) for g in elements))
        fast = find_minus_one_points(group)
        fast_orbits = {frozenset(p.apply(g) for g in elements) for p in fast}
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
        gens = list(datum.weyl_generators)
        assert find_minus_one_points(enumerate_group(gens)) == points

    def test_none_without_minus_one(self):
        assert find_minus_one_points(build_root_datum("A", 3)) == []
        # W(A_2) on its coweight lattice: no root table
        coweight = [((-1, 0), (1, 1)), ((1, 1), (0, -1))]
        assert find_minus_one_points(enumerate_group(coweight)) == []

    def test_no_generators_is_refused(self):
        with pytest.raises(ValueError, match="no generators"):
            find_minus_one_points(enumerate_group([]))

    def test_one_search_on_the_least_code_of_a_largest_orbit(self, monkeypatch):
        # the first orbit of D_4, of size 12, has a stabilizer of order 16;
        # the scan searches the least code among the orbits of size |W| / 2
        datum = build_root_datum("D", 4)
        reps = _two_torsion_orbit_reps(datum.weyl_generators, 4)[1:]
        first = stabilizer(datum, decode_two_torsion(reps[0][0], 4))
        assert (first.order, first.orbit_size) == (16, 12)
        calls = []
        real = weylorb.torsion.stabilizer

        def counted(action, point, **kwargs):
            calls.append((point, real(action, point, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(weylorb.torsion, "stabilizer", counted)
        points = find_minus_one_points(datum)
        least = min(code for code, size in reps if size == 96)
        [(point, report)] = calls
        assert point == decode_two_torsion(least, 4) == points[0]
        assert (report.order, report.orbit_size) == (2, 96)

    def test_order_two_is_not_enough(self):
        # diag(1, -1) is 1 mod 2, so it fixes every 2-torsion point: every
        # orbit has size |W| / 2 = 1, and no stabilizer is {+-1}
        group = enumerate_group([((1, 0), (0, -1))])
        report = stabilizer(group, decode_two_torsion(1, 2))
        assert (report.order, report.action_classification) == (2, "other")
        assert find_minus_one_points(group) == []

    def test_none_without_an_orbit_of_half_w(self):
        # -1 lies in W(C_3), but every 2-torsion orbit is smaller than 48 / 2
        datum = build_root_datum("C", 3)
        whole = stabilizer(datum, TorsionPoint.zero(3))
        assert minus_identity(3) in generated_elements(whole, 3)
        reps = _two_torsion_orbit_reps(datum.weyl_generators, 3)
        assert max(size for _, size in reps) < whole.order // 2
        assert find_minus_one_points(datum) == []


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

    @pytest.mark.parametrize(
        "sub,ambient,nodes",
        [(("D", 4), "E_6", [3, 4, 5, 2]), (("B", 3), "F_4", [1, 2, 3])],
    )
    def test_the_only_candidate_is_one_attempt(self, monkeypatch, sub, ambient, nodes):
        # fine denominator 1 draws q = 0 every time; 40 attempts made 41
        # stabilizer calls on that one candidate
        sub_datum = build_root_datum(*sub)
        emb = embed_diagram(sub_datum, ambient, nodes)
        p = find_minus_one_points(sub_datum)[0]
        calls = []
        real = weylorb.torsion.stabilizer

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(weylorb.torsion, "stabilizer", counted)
        with pytest.raises(
            PerturbationNotFoundError, match="^no generic perturbation: q = 0 is the"
        ):
            propagate(emb, p, fine_denominator=1)
        assert len(calls) == 2


class TestTypedRefusals:
    """An argument of the wrong type is refused with ValueError before any
    work, never with TypeError or AttributeError from deeper down."""

    @staticmethod
    def b3_into_f4():
        emb = embed_diagram("B_3", "F_4", [1, 2, 3])
        return emb, find_minus_one_points(build_root_datum("B", 3))[0]

    @pytest.mark.parametrize("f", [3.0, True])
    def test_fine_denominator_must_be_an_int(self, f):
        # True was read as 1 and ran 40 attempts into PerturbationNotFoundError
        emb, p = self.b3_into_f4()
        with pytest.raises(ValueError, match="fine denominator must be an int"):
            propagate(emb, p, fine_denominator=f)

    @pytest.mark.parametrize("bound", [2.5, "3", True])
    def test_denominator_bound_must_be_an_int(self, bound):
        with pytest.raises(ValueError, match="denominator bound must be an int"):
            find_minus_one_points(build_root_datum("G", 2), bound)

    @pytest.mark.parametrize("point", ["x", ((1, 0, 0, 0), (0, 0, 0, 0)), None])
    def test_stabilizer_needs_a_torsion_point(self, point):
        with pytest.raises(ValueError, match="is not a TorsionPoint"):
            stabilizer(build_root_datum("G", 2), point)

    @pytest.mark.parametrize("rank", [-1, "3", 2.0, True])
    def test_zero_needs_a_rank(self, rank):
        # -1 gave a point of rank 0, and "3" raised TypeError
        with pytest.raises(ValueError, match="rank must be an int >= 0"):
            TorsionPoint.zero(rank)

    @pytest.mark.parametrize("rows", [5, [5], None])
    def test_from_fractions_needs_sequences(self, rows):
        # these raised TypeError
        with pytest.raises(ValueError, match="rows must be sequences"):
            TorsionPoint.from_fractions(rows)

    @pytest.mark.parametrize("cap", ["5", None, 5.0, True])
    @pytest.mark.parametrize(
        "call",
        [
            lambda cap: stabilizer(build_root_datum("B", 3), TorsionPoint.zero(3), cap),
            lambda cap: find_minus_one_points(build_root_datum("G", 2), order_cap=cap),
            lambda cap: enumerate_group([((-1, 0), (0, 1))], order_cap=cap),
            lambda cap: enumerate_group(build_root_datum("A", 2), order_cap=cap),
            lambda cap: verify_su_case(3, order_cap=cap),
        ],
        ids=["stabilizer", "scan", "generators", "root_datum", "verify_su_case"],
    )
    def test_order_cap_must_be_an_int(self, call, cap):
        # "5" and None raised TypeError from a comparison with an int
        with pytest.raises(ValueError, match="order cap must be an int"):
            call(cap)

    @pytest.mark.parametrize("embedding", [None, ("B_3", "F_4", [1, 2, 3])])
    def test_propagate_needs_an_embedding(self, embedding):
        # None raised AttributeError
        _, p = self.b3_into_f4()
        with pytest.raises(ValueError, match="is not a DiagramEmbedding"):
            propagate(embedding, p)
