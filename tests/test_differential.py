"""Differential property tests on random finite lattice actions.

Each example is the subgroup generated by one to three random elements of a
small Weyl group, seen in a seeded unimodular basis, so neither the group
nor the basis is one of the fixed root-datum cases.  The stringy engine is
run against its independent routes, and the conjugacy classes against a
literal breadth-first reference.  The explicit orbit reference is only
affordable up to rank 3; rank-4 examples, whose sectors can have mixed
component groups such as Z/2 + Z/4, are checked against the commuting-pairs
Euler number alone.  That oracle is itself checked against a literal loop
with one Smith form per commuting pair.  The classes are also compared, array
for array, with the two-sided product route they replaced, and the engine's
sector blocks with the loop that ran each central sector on all of W, on
every Weyl type up to rank 5 and on random subgroups, cyclic ones included,
and at sector batches of 1, 7 and 10^6 rows.
"""

import random
import re
from math import prod

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import weylorb.stringy
from weylorb.intlinalg import (
    EntryBoundError,
    freeze,
    mat_mul,
    smith_normal_form,
)
from weylorb.rootdata import build_root_datum, enumerate_group
from weylorb.stringy import (
    LatticeAction,
    stringy_euler_commuting_pairs,
    stringy_hodge,
    wreath_bn_action,
)

from references import (
    conjugacy_classes_by_products,
    sectors_by_full_centralizers,
    stringy_hodge_by_orbits,
    unimodular_inverse,
    unimodular_pair,
)

WEYL_TYPES = (("G", 2), ("A", 3), ("B", 3), ("C", 3))
UP_TO_RANK_5 = (
    [("A", n) for n in range(1, 6)]
    + [(letter, n) for letter in "BC" for n in range(2, 6)]
    + [("D", 4), ("D", 5), ("G", 2), ("F", 4)]
)
RANK4_TYPES = (("B", 4), ("D", 4))
_WEYL = {}


def _weyl(letter, rank):
    if (letter, rank) not in _WEYL:
        _WEYL[letter, rank] = enumerate_group(build_root_datum(letter, rank))
    return _WEYL[letter, rank]


@st.composite
def subgroup_actions(draw, types=WEYL_TYPES, max_gens=3):
    letter, rank = draw(st.sampled_from(types))
    group = _weyl(letter, rank)
    picks = draw(
        st.lists(st.integers(0, group.order - 1), min_size=1, max_size=max_gens)
    )
    u, u_inv = unimodular_pair(random.Random(draw(st.integers(0, 2**32))), rank)
    gens = [mat_mul(mat_mul(u, group.stack[i].tolist()), u_inv) for i in picks]
    return LatticeAction.from_generators(gens)


def _classes_reference(group):
    """Conjugacy classes by a literal breadth-first walk over s x s^-1.

    Classes come in the order of their first element in the element list,
    which is also the representative.
    """
    pairs = [(s, unimodular_inverse(s)) for s in group.generators]
    elements = [freeze(m) for m in group.stack.tolist()]
    assigned = set()
    classes = []
    for rep in elements:
        if rep in assigned:
            continue
        orbit = {rep}
        frontier = [rep]
        while frontier:
            nxt = []
            for x in frontier:
                for s, s_inv in pairs:
                    y = freeze(mat_mul(mat_mul(s, x), s_inv))
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        assigned |= orbit
        cent = [h for h in elements if mat_mul(h, rep) == mat_mul(rep, h)]
        classes.append((rep, len(orbit), cent))
    return classes


@settings(max_examples=40, deadline=None)
@given(subgroup_actions())
def test_conjugacy_classes_match_literal_walk(action):
    classes = action.group.conjugacy_classes()
    reference = _classes_reference(action.group)
    assert [(freeze(rep.tolist()), size) for rep, size, _ in classes] == [
        (rep, size) for rep, size, _ in reference
    ]
    # each centralizer is the int64 sub-stack of the literal commuting filter
    for (_, _, cent), (_, _, literal) in zip(classes, reference):
        assert cent.dtype == np.int64
        assert np.array_equal(cent, np.array(literal))


def _assert_same_classes(group):
    """The classes equal those of the product route, array for array."""
    classes = group.conjugacy_classes()
    reference = conjugacy_classes_by_products(group)
    assert len(classes) == len(reference)
    for (rep, size, cent), (ref_rep, ref_size, ref_cent) in zip(classes, reference):
        assert np.array_equal(rep, ref_rep) and size == ref_size
        assert cent.dtype == np.int64 and np.array_equal(cent, ref_cent)


@pytest.mark.parametrize("letter,rank", UP_TO_RANK_5, ids=lambda x: str(x))
def test_classes_match_the_product_route_on_every_weyl_type(letter, rank):
    # in the coroot basis and, from rank 2, in a seeded unimodular basis
    group = _weyl(letter, rank)
    _assert_same_classes(enumerate_group(group.generators))
    if rank > 1:
        u, u_inv = unimodular_pair(random.Random(rank), rank)
        gens = [mat_mul(mat_mul(u, s), u_inv) for s in group.generators]
        _assert_same_classes(enumerate_group(gens))


@settings(max_examples=40, deadline=None)
@given(subgroup_actions(WEYL_TYPES + RANK4_TYPES))
def test_classes_match_the_product_route_on_random_subgroups(action):
    _assert_same_classes(action.group)


@settings(max_examples=25, deadline=None)
@given(subgroup_actions())
def test_engine_matches_orbits_and_commuting_pairs(action):
    h = stringy_hodge(action)
    assert h == stringy_hodge_by_orbits(action)
    assert h.specialize(-1, -1) == stringy_euler_commuting_pairs(action)
    assert all(isinstance(c, int) for c in h.coeffs.values())
    assert h.is_hodge_symmetric()
    assert h.is_centrally_symmetric(action.rank)


@settings(max_examples=15, deadline=None)
@given(subgroup_actions(RANK4_TYPES))
def test_rank4_engine_matches_commuting_pairs(action):
    h = stringy_hodge(action)
    assert h.specialize(-1, -1) == stringy_euler_commuting_pairs(action)


def _assert_same_sectors(action):
    """Each sector block equals that of the full-centralizer loop, array for
    array; the central sectors are the ones summed over the classes of W."""
    got = list(weylorb.stringy._sectors(action))
    expected = list(sectors_by_full_centralizers(action))
    assert len(got) == len(expected) == len(action.group.conjugacy_classes())
    for (shift, block), (ref_shift, ref_block) in zip(got, expected):
        assert shift == ref_shift
        assert block.dtype == ref_block.dtype == np.int64
        assert np.array_equal(block, ref_block)


@pytest.mark.parametrize("letter,rank", UP_TO_RANK_5, ids=lambda x: str(x))
def test_sectors_match_the_full_centralizer_loop_on_every_weyl_type(letter, rank):
    # in the coroot basis and, from rank 2, in a seeded unimodular basis
    group = _weyl(letter, rank)
    _assert_same_sectors(LatticeAction(group))
    if rank > 1:
        u, u_inv = unimodular_pair(random.Random(rank), rank)
        gens = [mat_mul(mat_mul(u, s), u_inv) for s in group.generators]
        _assert_same_sectors(LatticeAction.from_generators(gens))


@settings(max_examples=30, deadline=None)
@given(subgroup_actions(WEYL_TYPES + RANK4_TYPES))
def test_sectors_match_the_full_centralizer_loop_on_random_subgroups(action):
    _assert_same_sectors(action)


@settings(max_examples=30, deadline=None)
@given(subgroup_actions(WEYL_TYPES + RANK4_TYPES, max_gens=1))
def test_cyclic_subgroups_sum_every_sector_over_the_classes(action):
    # a cyclic group is abelian: every class is central, and both routes
    # run each sector on the class representatives alone
    assert all(size == 1 for _, size, _ in action.group.conjugacy_classes())
    _assert_same_sectors(action)
    assert stringy_euler_commuting_pairs(action) == _euler_commuting_pairs_reference(
        action
    )


@pytest.mark.parametrize("rows", [1, 7, 10**6])
def test_sectors_do_not_depend_on_the_batch(monkeypatch, rows):
    # batches of one class each, of 7 rows, so that small classes share a
    # batch and larger ones run alone, and of every class at once
    monkeypatch.setattr(weylorb.stringy, "_SECTOR_ROWS", rows)
    rng = random.Random(25)
    for letter, rank in (("B", 4), ("A", 5)):
        u, u_inv = unimodular_pair(rng, rank)
        gens = [mat_mul(mat_mul(u, s), u_inv) for s in _weyl(letter, rank).generators]
        _assert_same_sectors(LatticeAction.from_generators(gens))
    _assert_same_sectors(wreath_bn_action(4))


@seed(25)
@settings(max_examples=20, deadline=None)
@given(subgroup_actions(WEYL_TYPES + RANK4_TYPES))
def test_sectors_do_not_depend_on_the_batch_on_random_subgroups(action):
    with pytest.MonkeyPatch.context() as mp:
        for rows in (1, 7, 10**6):
            mp.setattr(weylorb.stringy, "_SECTOR_ROWS", rows)
            _assert_same_sectors(action)


def test_a_refused_sector_names_its_class_whatever_its_batch(monkeypatch):
    # one class's v and v^-1 sheared by 2^31: its product v^-1 h v is
    # refused on its own entries, alone or in a batch with every class
    action = wreath_bn_action(3)
    bad = action.group.conjugacy_classes()[5][0]
    shear, unshear = np.eye(3, dtype=np.int64), np.eye(3, dtype=np.int64)
    shear[0, 2], unshear[0, 2] = 2**31, -(2**31)
    real = weylorb.stringy._smith_of_g_minus_one

    def sheared(g):
        diag, v, v_inv = real(g)
        if np.array_equal(g, bad):
            v, v_inv = (np.array(v) @ shear).tolist(), (unshear @ np.array(v_inv)).tolist()
        return diag, v, v_inv

    monkeypatch.setattr(weylorb.stringy, "_smith_of_g_minus_one", sheared)
    messages = set()
    for rows in (1, 10**6):
        monkeypatch.setattr(weylorb.stringy, "_SECTOR_ROWS", rows)
        with pytest.raises(EntryBoundError, match=re.escape(f"sector of {bad.tolist()}:")) as err:
            stringy_hodge(action)
        messages.add(str(err.value))
    assert len(messages) == 1


def _euler_commuting_pairs_reference(action):
    """The commuting-pairs Euler number with one Smith form per pair.

    The Smith diagonal of (g - 1; h - 1) has r nonzero entries exactly when
    the common fixed locus is finite, and their product is its point count.
    """
    def minus_one(m):
        return [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]

    r = action.rank
    total = 0
    for rep, size, centralizer in action.group.conjugacy_classes():
        gm1 = minus_one(rep)
        sub = 0
        for h in centralizer:
            d = smith_normal_form(gm1 + minus_one(h))[0]
            diag = [d[i][i] for i in range(r)]
            if all(diag):
                sub += prod(diag) ** 4
        total += size * sub
    assert total % action.group.order == 0
    return total // action.group.order


@settings(max_examples=20, deadline=None)
@given(subgroup_actions(WEYL_TYPES + RANK4_TYPES))
def test_commuting_pairs_match_one_smith_form_per_pair(action):
    assert stringy_euler_commuting_pairs(action) == _euler_commuting_pairs_reference(
        action
    )


@settings(max_examples=15, deadline=None)
@given(subgroup_actions(WEYL_TYPES + RANK4_TYPES))
def test_commuting_pairs_do_not_depend_on_the_chunk(action):
    # every bound of the echelon is per pair, so no chunk refuses a pair
    # that another chunk takes
    answers = set()
    with pytest.MonkeyPatch.context() as mp:
        for chunk in (1, 7, 10**6):
            mp.setattr(weylorb.stringy, "_PAIR_CHUNK", chunk)
            answers.add(stringy_euler_commuting_pairs(action))
    assert len(answers) == 1


def test_commuting_pairs_match_on_whole_rank4_groups(monkeypatch):
    # the whole groups, whose sectors include mixed ones such as Z/2 + Z/4,
    # in batches of one pair, of 7 pairs, so that batches start and end
    # inside classes, and of every pair of the action at once
    rng = random.Random(4)
    for letter, rank in RANK4_TYPES:
        u, u_inv = unimodular_pair(rng, rank)
        gens = [mat_mul(mat_mul(u, s), u_inv) for s in _weyl(letter, rank).generators]
        action = LatticeAction.from_generators(gens)
        expected = _euler_commuting_pairs_reference(action)
        for chunk in (1, 7, 10**6):
            monkeypatch.setattr(weylorb.stringy, "_PAIR_CHUNK", chunk)
            assert stringy_euler_commuting_pairs(action) == expected
