"""End-to-end acceptance suite: the fourteen headline checks with time budgets.

Each test asserts both the mathematical outcome and, where a budget is part
of the contract, that the computation fits in it.
"""

import time

import pytest

from weylorb.hodgepoly import (
    MAX_SERIES_N,
    BigradedPoly,
    abelian_surface,
    generating_series,
    goettsche,
    kummer_k3,
)
from weylorb.rootdata import (
    build_root_datum,
    embed_diagram,
    enumerate_group,
    highest_coroot_coefficients,
)
from weylorb.stringy import (
    MAX_VERIFY_SP_N,
    LatticeAction,
    stringy_euler_commuting_pairs,
    stringy_hodge,
    stringy_hodge_wreath_closed_form,
    su_action,
    symmetric_action,
    verify_sp_theorem,
    verify_su_case,
    wreath_bn_action,
)
from weylorb.torsion import find_minus_one_points, propagate, stabilizer
from weylorb.flatf2 import spin8_check
from weylorb.hilbmatrix import (
    dual,
    is_cyclic,
    make_pair,
    symplectic_exists,
)


class Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


def test_01_highest_coroot_table():
    """All nine rows of the coefficient table, in under a second."""
    expected = {
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
    with Timer() as t:
        for (letter, rank), row in expected.items():
            datum = build_root_datum(letter, rank)
            assert highest_coroot_coefficients(datum) == row
    assert t.elapsed < 1.0


def test_02_sp_three_way_equality():
    """Engine = closed form = Hilbert-scheme formula for n <= 3; closed form
    vs Hilbert-scheme formula additionally up to n = 8, within a minute."""
    for n in (1, 2, 3):
        report = verify_sp_theorem(n, engine=True)
        assert report.verdict, report.notes
        assert (
            report.polynomials["engine"]
            == report.polynomials["closed_form"]
            == report.polynomials["goettsche"]
        )
    with Timer() as t:
        for n in range(4, 9):
            assert stringy_hodge_wreath_closed_form(n) == goettsche(
                kummer_k3(), n
            )
    assert t.elapsed < 60.0


def test_03_n1_explicit_polynomial():
    """n = 1: 1 + x^2 + 20xy + y^2 + x^2y^2."""
    expected = BigradedPoly(
        {(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1}
    )
    assert stringy_hodge(wreath_bn_action(1)) == expected
    assert expected == kummer_k3()


def test_04_unitary_case():
    """Engine on (Z^n, S_n) equals the Hilbert-scheme polynomial, n <= 4."""
    with Timer() as t:
        for n in (1, 2, 3, 4):
            assert stringy_hodge(symmetric_action(n)) == goettsche(
                abelian_surface(), n
            )
    assert t.elapsed < 60.0


def test_05_special_unitary_case():
    """n = 2 gives the K3 polynomial; Euler numbers 24, 108, 448 for
    n = 2, 3, 4 match the independent commuting-pairs oracle."""
    frozen_eulers = {2: 24, 3: 108, 4: 448}
    with Timer() as t:
        for n, euler in frozen_eulers.items():
            report = verify_su_case(n)
            assert report.verdict, report.notes
            assert report.polynomials["euler"] == euler
        assert verify_su_case(2).polynomials["stringy"] == kummer_k3()
    assert t.elapsed < 120.0


def eta_24_inverse(n_max):
    """Coefficients of prod_m (1 - q^m)^(-24), one geometric series at a time."""
    series = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        for _ in range(24):
            for k in range(m, n_max + 1):
                series[k] += series[k - m]
    return series


def test_06_euler_series():
    """Series 1, 24, 324, 3200 against an independent eta-product routine."""
    with Timer() as t:
        values = generating_series(kummer_k3(), 3, "euler")
    assert values == [1, 24, 324, 3200]
    assert values == eta_24_inverse(3)
    assert t.elapsed < 1.0


@pytest.mark.parametrize(
    "surface,budget", [(abelian_surface, 4.0), (kummer_k3, 2.0)], ids=["abelian", "k3"]
)
def test_12_series_at_the_bound(surface, budget):
    """The unspecialized series up to MAX_SERIES_N, within its budget: about
    1 s on the abelian surface and 0.3 s on the K3, the two slowest, on a
    2-vCPU machine.  Its Euler numbers are those of prod (1 - q^m)^(-e)."""
    with Timer() as t:
        values = generating_series(surface(), MAX_SERIES_N, None)
    assert t.elapsed < budget
    eulers = [v.specialize(-1, -1) for v in values]
    if surface is kummer_k3:
        assert eulers == eta_24_inverse(MAX_SERIES_N)
    else:
        assert eulers == [1] + [0] * MAX_SERIES_N


def test_13_verify_sp_at_the_bound():
    """verify_sp_theorem at MAX_VERIFY_SP_N (closed form against Goettsche's
    formula, no engine), within 8 s: about 2 s on a 2-vCPU machine."""
    with Timer() as t:
        report = verify_sp_theorem(MAX_VERIFY_SP_N)
    assert t.elapsed < 8.0
    assert report.verdict, report.notes
    assert "engine" not in report.polynomials


@pytest.mark.parametrize(
    "letter,rank,label",
    [("G", 2, "C^4/+-1"), ("B", 3, "C^6/+-1"), ("D", 4, "C^8/+-1")],
)
def test_07_torsion_scans(letter, rank, label):
    """Nonempty minus-one scans with the stated local models, < 1 min each."""
    datum = build_root_datum(letter, rank)
    with Timer() as t:
        points = find_minus_one_points(datum, denominator_bound=4)
    assert t.elapsed < 60.0
    assert points
    report = stabilizer(datum, points[0])
    assert report.order == 2
    assert report.action_classification == "minus_one_local_model"
    assert report.local_model_label == label


def test_08_propagation_regressions():
    """B_3 into F_4, D_4 into D_5, D_4 into E_6: stabilizer order stays 2,
    all three within five minutes including the W(E_6) enumeration."""
    cases = [
        (("B", 3), "F_4", [1, 2, 3]),
        (("D", 4), "D_5", [2, 3, 4, 5]),
        (("D", 4), "E_6", [3, 4, 5, 2]),
    ]
    with Timer() as t:
        for sub_key, ambient, nodes in cases:
            sub = build_root_datum(*sub_key)
            emb = embed_diagram(sub, build_root_datum(ambient), nodes)
            p = find_minus_one_points(sub, denominator_bound=4)[0]
            result = propagate(emb, p, seed=0)
            assert result.report.order == 2
            assert result.sub_report.order == 2
    assert t.elapsed < 300.0


def test_09_spin8_triple():
    """w_2 = 0 and zero deformation space, in under a second."""
    with Timer() as t:
        result = spin8_check()
    assert t.elapsed < 1.0
    assert result["verdict"] == "pass"
    assert result["w2_terms"] == "0"
    assert result["deformation_dim"] == 0


def test_10_matrix_lab():
    """The 4x4 pair has no invertible skew solution; the 3x3 pair is cyclic
    while its transpose is not; both decided in under a second."""
    remark = make_pair(
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
    )
    footnote = make_pair(
        [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
    )
    with Timer() as t:
        skew = symplectic_exists(remark)
        assert not skew.contains_invertible
        assert is_cyclic(footnote)
        assert not is_cyclic(dual(footnote))
    assert t.elapsed < 1.0


SMALL_WEYL_ACTIONS = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5),
    ("G", 2), ("F", 4),
]
LARGE_WEYL_ACTIONS = [("A", 6), ("B", 5), ("C", 5)]


@pytest.mark.parametrize("letter,rank", SMALL_WEYL_ACTIONS)
def test_11_property_suite_small(letter, rank):
    """Integrality, (p,q)-symmetry, central symmetry, and Euler agreement
    with the commuting-pairs oracle for every Weyl action of order <= 10^4."""
    datum = build_root_datum(letter, rank)
    action = LatticeAction.from_root_datum(datum)
    assert action.group.order <= 10**4
    h = stringy_hodge(action)
    assert all(isinstance(c, int) for c in h.coeffs.values())
    assert h.is_hodge_symmetric()
    assert h.is_centrally_symmetric(rank)
    assert h.specialize(-1, -1) == stringy_euler_commuting_pairs(action)


@pytest.mark.parametrize("letter,rank", LARGE_WEYL_ACTIONS)
def test_11_property_suite_large(letter, rank):
    """The remaining Weyl actions below the 10^4 order bound (the slow ones);
    same properties, same live oracle comparison."""
    datum = build_root_datum(letter, rank)
    action = LatticeAction.from_root_datum(datum)
    assert 10**3 < action.group.order <= 10**4
    h = stringy_hodge(action)
    assert all(isinstance(c, int) for c in h.coeffs.values())
    assert h.is_hodge_symmetric()
    assert h.is_centrally_symmetric(rank)
    assert h.specialize(-1, -1) == stringy_euler_commuting_pairs(action)


def test_14_e6_engine_and_oracle():
    """W(E_6), |W| = 51,840, the one Weyl action above 10^4 order here:
    integrality, (p,q)-symmetry, central symmetry, and Euler agreement with
    the commuting-pairs oracle.  Engine and oracle together fit in 0.5 s
    (about 0.05 s on a 2-vCPU machine, where they took 0.9 s before the
    identity sector was summed over the 25 classes); the test takes about
    0.7 s in all, most of it enumeration and classes."""
    action = LatticeAction.from_root_datum(build_root_datum("E", 6))
    assert action.group.order == 51840
    assert len(action.group.conjugacy_classes()) == 25
    with Timer() as t:
        h = stringy_hodge(action)
        euler = stringy_euler_commuting_pairs(action)
    assert t.elapsed < 0.5
    assert all(isinstance(c, int) for c in h.coeffs.values())
    assert h.is_hodge_symmetric()
    assert h.is_centrally_symmetric(6)
    assert h[(0, 0)] == h[(12, 12)] == 1
    assert h.specialize(-1, -1) == euler == 15660
