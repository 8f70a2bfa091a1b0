"""Command-line interface: subcommands, formats, exit codes, determinism."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
import time

import pytest

import weylorb
from weylorb import hilbmatrix
from weylorb.cli import build_parser, main
from weylorb.hodgepoly import BigradedPoly


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --format json reports that must stay byte-identical; the files in golden/
# were captured from the CLI at commit cf41e11
GOLDEN_CASES = {
    "stringy_G2": ("stringy", "--type", "G_2"),
    "stringy_B4": ("stringy", "--type", "B_4"),
    "stringy_A5": ("stringy", "--type", "A_5"),
    # the arrows of C_n, D_n beyond D_4 and F_4, captured at commit fe2f91b
    "stringy_C3": ("stringy", "--type", "C_3"),
    "stringy_D5": ("stringy", "--type", "D_5"),
    "stringy_F4": ("stringy", "--type", "F_4"),
    "verify_sp_3": ("verify-sp", "--n", "3"),
    "verify_su_3": ("verify-su", "--n", "3"),
    "verify_su_4": ("verify-su", "--n", "4"),
    "torsion_scan_B3": ("torsion-scan", "--type", "B_3"),
    "propagate_D4_E6": (
        "propagate", "--type", "D", "--rank", "4", "--ambient", "E_6",
        "--nodes", "3,4,5,2",
    ),
    "matrix_remark": ("matrix", "--example", "remark"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_json_report_matches_golden(capsys, name):
    code, out, err = run(capsys, *GOLDEN_CASES[name], "--format", "json")
    assert (code, err) == (0, "")
    with open(os.path.join(GOLDEN, f"{name}.json")) as fh:
        assert out == fh.read()


# text and CSV reports pinned the same way, captured from the CLI at commit
# 7fe6a7b; the CSV files keep the csv module's \r\n line ends
REPORT_CASES = {
    "table1.txt": ("table1",),
    "stringy_G2.txt": ("stringy", "--type", "G_2"),
    "verify_sp_2.txt": ("verify-sp", "--n", "2"),
    "verify_su_2.txt": ("verify-su", "--n", "2"),
    "series_3.txt": ("series", "--n", "3"),
    "torsion_scan_G2.txt": ("torsion-scan", "--type", "G_2"),
    "propagate_B3_F4.txt": (
        "propagate", "--type", "B", "--rank", "3", "--ambient", "F_4",
        "--nodes", "1,2,3",
    ),
    "matrix_remark.txt": ("matrix", "--example", "remark"),
    "spin8_check.txt": ("spin8-check",),
    "classify_C4.txt": ("classify", "--type", "C_4"),
    "table1.csv": ("table1",),
    "stringy_G2.csv": ("stringy", "--type", "G_2"),
    "series_3.csv": ("series", "--n", "3"),
    "torsion_scan_G2.csv": ("torsion-scan", "--type", "G_2"),
}


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_text_and_csv_reports_match_golden(capsys, name):
    fmt = "csv" if name.endswith(".csv") else "text"
    code, out, err = run(capsys, *REPORT_CASES[name], "--format", fmt)
    assert (code, err) == (0, "")
    with open(os.path.join(GOLDEN, name), newline="") as fh:
        assert out == fh.read()


# the whole Weyl groups, |W| by rank, of the types in each torsion report:
# the handlers hand the root datum to the torsion layer, which enumerates
# only the reflection subgroups W(Phi_t) its stabilizers search
WHOLE_WEYL_ORDERS = {
    "torsion_scan_B3.json": {3: 48},
    "torsion_scan_G2.txt": {2: 12},
    "torsion_scan_G2.csv": {2: 12},
    "propagate_D4_E6.json": {4: 192, 6: 51840},
    "propagate_B3_F4.txt": {3: 48, 4: 1152},
}


def refuse_whole_weyl_groups(monkeypatch, whole):
    """Make enumerate_group raise on a RootDatum or a group of order whole[rank]."""
    real = weylorb.rootdata.enumerate_group

    def partial(source, order_cap=10**7):
        if isinstance(source, weylorb.rootdata.RootDatum):
            raise AssertionError(f"W({source.dynkin_type}) enumerated")
        group = real(source, order_cap)
        if group.order == whole.get(group.stack.shape[1]):
            raise AssertionError(f"a whole W of order {group.order} enumerated")
        return group

    monkeypatch.setattr(weylorb.rootdata, "enumerate_group", partial)


@pytest.mark.parametrize("name", sorted(WHOLE_WEYL_ORDERS))
def test_torsion_reports_enumerate_no_whole_weyl_group(capsys, monkeypatch, name):
    refuse_whole_weyl_groups(monkeypatch, WHOLE_WEYL_ORDERS[name])
    stem, ext = name.rsplit(".", 1)
    argv = GOLDEN_CASES[stem] if ext == "json" else REPORT_CASES[name]
    code, out, err = run(capsys, *argv, "--format", {"txt": "text"}.get(ext, ext))
    assert (code, err) == (0, "")
    with open(os.path.join(GOLDEN, name), newline="") as fh:
        assert out == fh.read()


class TestTable1:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        assert "verdict: pass" in out
        assert "E_8" in out and "2 2 3 3 4 4 5 6" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        assert len(payload["rows"]) == 9
        assert payload["seed"] == 0

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "group,type,coefficients"
        assert len(lines) == 10


class TestStringy:
    def test_json_diamond(self, capsys):
        code, out, _ = run(
            capsys, "stringy", "--type", "G", "--rank", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["type"] == "G_2"
        assert payload["euler"] == 144
        rows = {(r["p"], r["q"]): r["h"] for r in payload["hodge"]}
        assert rows[(0, 0)] == 1 and rows[(4, 4)] == 1

    def test_sp1_text_diamond(self, capsys):
        code, out, _ = run(capsys, "stringy", "--type", "C", "--rank", "2")
        assert code == 0

    def test_cap_refusal_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "stringy", "--type", "F", "--rank", "4", "--cap", "10"
        )
        assert code == 2
        assert "cap" in err

    def test_bad_type_is_usage_error(self, capsys):
        code, _, err = run(capsys, "stringy", "--type", "Z", "--rank", "3")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("command", ["stringy", "classify"])
    @pytest.mark.parametrize("label", ["", "_"])
    def test_empty_type_is_usage_error(self, capsys, command, label):
        code, out, err = run(capsys, command, "--type", label)
        assert (code, out) == (2, "")
        assert err == f"error: invalid Dynkin type {label!r}\n"


class TestVerifiers:
    def test_verify_sp(self, capsys):
        code, out, _ = run(capsys, "verify-sp", "--n", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    @pytest.mark.parametrize("n,engine", [(4, True), (5, True), (6, False)])
    def test_verify_sp_runs_engine_up_to_n5(self, capsys, n, engine):
        code, out, _ = run(capsys, "verify-sp", "--n", str(n), "--format", "json")
        assert code == 0
        polys = json.loads(out)["polynomials"]
        assert ("engine" in polys) == engine
        if engine:
            assert polys["engine"] == polys["closed_form"]

    def test_verify_su(self, capsys):
        code, out, _ = run(capsys, "verify-su", "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "pass"

    @pytest.mark.parametrize("command", ["verify-sp", "verify-su"])
    def test_failing_report_prints_its_notes(self, capsys, monkeypatch, command):
        # verify-su once dropped the notes of a failing report
        label = command[-2:]
        failed = weylorb.stringy.VerificationReport(
            label=label, n=2, verdict=False, polynomials={}, notes=("a", "b")
        )
        name = "verify_sp_theorem" if label == "sp" else "verify_su_case"
        monkeypatch.setattr(weylorb.stringy, name, lambda n, order_cap: failed)
        code, out, err = run(capsys, command, "--n", "2")
        assert (code, out, err) == (1, f"{label} n=2: fail\na\nb\n", "")

    def test_series_euler(self, capsys):
        code, out, _ = run(capsys, "series", "--n", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [r["value"] for r in payload["series"]] == [1, 24, 324, 3200]

    @pytest.mark.parametrize(
        "argv,bound",
        [
            (("series", "--n", "31", "--specialization", "none"), "series bound 30"),
            (("series", "--n", str(10**9)), "series bound 30"),
            (("verify-sp", "--n", "17"), "Sp(n) check's bound 16"),
        ],
        ids=["series", "series-huge", "verify-sp"],
    )
    def test_n_above_the_bound_is_usage_error(self, capsys, argv, bound):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (2, "")
        assert err.startswith("error: n = ") and err.endswith(f" is above the {bound}\n")
        assert len(err.splitlines()) == 1

    def test_series_unspecialized(self, capsys):
        code, out, _ = run(
            capsys,
            "series", "--n", "1", "--surface", "abelian",
            "--specialization", "none", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        rows = {(r["p"], r["q"]): r["h"] for r in payload["series"][1]["value"]}
        assert rows[(1, 1)] == 4


class TestTorsionCommands:
    def test_scan_g2(self, capsys):
        code, out, _ = run(
            capsys,
            "torsion-scan", "--type", "G_2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["orbit_count"] == 35
        assert payload["orbits"][0]["local_model"] == "C^4/+-1"
        assert payload["verdict"] == "pass"

    def test_scan_a2_fails(self, capsys):
        code, out, _ = run(
            capsys, "torsion-scan", "--type", "A", "--rank", "2",
            "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["orbit_count"] == 0

    def test_propagate(self, capsys):
        code, out, _ = run(
            capsys,
            "propagate", "--type", "B", "--rank", "3",
            "--ambient", "F_4", "--nodes", "1,2,3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["stabilizer_order"] == 2
        assert payload["local_model"] == "(C^6/W_p) x C^2"

    @pytest.mark.parametrize("ambient", ["E_7", "E_8"])
    def test_propagate_into_e7_and_e8(self, capsys, ambient):
        # the W-orbit (1,451,520 and 348,364,800 points) is never walked,
        # and the cap bounds only the small W(Phi_t) searched
        code, out, err = run(
            capsys, "propagate", "--type", "D", "--rank", "4", "--ambient", ambient,
            "--nodes", "3,4,5,2", "--format", "json",
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["stabilizer_order"] == payload["sub_stabilizer_order"] == 2
        assert payload["verdict"] == "pass"

    def test_scan_e7_refuses_its_codes_without_enumerating_w(self, capsys, monkeypatch):
        # W(E_7) is under the default cap, and enumerating its 2,903,040
        # elements took about 30 s and 3.7 GB before the 2^28 codes were refused
        refuse_whole_weyl_groups(monkeypatch, {7: 2903040})
        start = time.perf_counter()
        code, out, err = run(capsys, "torsion-scan", "--type", "E_7")
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == "error: 2-torsion candidate set exceeds cap 1000000\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("torsion-scan", "--type", "D_4"),
            ("propagate", "--type", "D_4", "--ambient", "E_6", "--nodes", "3,4,5,2"),
        ],
        ids=["torsion-scan", "propagate"],
    )
    def test_cap_below_the_weyl_order_is_refused(self, capsys, argv):
        # --cap bounds what the commands enumerate, first the 2^16 codes of
        # the D_4 scan; |W(D_4)| = 192 is never enumerated
        code, out, err = run(capsys, *argv, "--cap", "100")
        assert (code, out) == (2, "")
        assert err == "error: 2-torsion candidate set exceeds cap 100\n"

    def test_cap_reaches_the_ambient_subgroups_searched(self, capsys):
        # A_1 has 16 codes, but seed 4 draws an E_6 point whose W(Phi_t) has
        # order 192; --cap bounded only |W(A_1)| = 2, and this exited 0
        argv = ("propagate", "--type", "A_1", "--ambient", "E_6", "--nodes", "1")
        code, out, err = run(capsys, *argv, "--seed", "4", "--cap", "191")
        assert (code, out) == (2, "")
        assert err == (
            "error: the subgroup searched has order 192, which exceeds the cap 191\n"
        )
        code, out, err = run(capsys, *argv, "--seed", "4", "--cap", "192")
        assert (code, err) == (0, "")

    def test_cap_admits_a_larger_scan(self, capsys):
        # B_5's 2^20 codes exceed the default cap of 10^6, which no --cap
        # reached: it was refused whatever --cap said
        code, out, err = run(capsys, "torsion-scan", "--type", "B_5")
        assert (code, out) == (2, "")
        assert err == "error: 2-torsion candidate set exceeds cap 1000000\n"
        code, out, err = run(
            capsys, "torsion-scan", "--type", "B_5", "--cap", "2000000",
            "--format", "json",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["orbit_count"] == 168

    @pytest.mark.parametrize("nodes", ["1,2,x", "1,,3"])
    def test_nodes_that_are_no_ints_name_the_option(self, capsys, nodes):
        # each said "invalid literal for int() with base 10"
        with pytest.raises(SystemExit) as exc:
            main(["propagate", "--type", "B_3", "--ambient", "F_4", "--nodes", nodes])
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, "")
        assert out.err == (
            f"error: argument --nodes: invalid int_list value: {nodes!r}\n"
        )

    def test_propagate_negative_fine_denominator_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "propagate", "--type", "B", "--rank", "3", "--ambient", "F_4",
            "--nodes", "1,2,3", "--fine-denominator", "-3",
        )
        assert (code, out) == (2, "")
        assert err == "error: fine denominator must be at least 1, not -3\n"


class TestMatrixLab:
    def test_remark_example(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--example", "remark", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cyclic"] is True
        assert payload["symplectic"] is False
        assert payload["skew_space_dim"] == 2

    def test_footnote_example(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--example", "footnote", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cyclic"] is True

    def test_ideal_input(self, capsys):
        code, out, _ = run(
            capsys,
            "matrix", "--ideal", "x**2", "x*y", "y**2",
            "--truncation", "3", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["pair"]["dim"] == 3

    def test_missing_input_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["matrix"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "error: one of the arguments --example --pair-file --ideal is required\n"
        )

    def test_pair_file(self, capsys, tmp_path):
        from weylorb.hilbmatrix import make_pair

        p = make_pair([[0, 1], [0, 0]], [[0, 0], [0, 0]])
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(p.to_json_dict()))
        code, out, _ = run(
            capsys, "matrix", "--pair-file", str(path), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["pair"]["dim"] == 2

    @pytest.mark.parametrize(
        "content",
        [
            {"dim": 2, "mx": [[0, 1], [0, 0]]},  # no "my"
            {"dim": 2, "mx": [[0, 1], [0]], "my": [[0, 0], [0, 0]]},  # ragged
            [[[0, 1], [0, 0]], [[0, 0], [0, 0]]],  # not an object
            {"dim": 2, "mx": [[0, 1], [0, 0]], "my": [[0, 0], [1, 0]]},  # xy != yx
            {"dim": 1, "mx": [["1/0"]], "my": [[0]]},
            {"dim": 1, "mx": [[float("inf")]], "my": [[0]]},  # written as 1e400
            {"dim": 1, "mx": [[True]], "my": [[0]]},
            {"dim": 2, "mx": [[0, 0], [0.1, 0]], "my": [[0, 0], [0, 0]]},
            {"dim": 1, "mx": [[1.0]], "my": [[0]]},
        ],
        ids=[
            "missing-my",
            "ragged-row",
            "top-level-list",
            "non-commuting",
            "zero-denominator",
            "infinite-entry",
            "boolean-entry",
            "float-entry",
            "integral-float-entry",
        ],
    )
    def test_malformed_pair_file_is_usage_error(self, capsys, tmp_path, content):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(content).replace("Infinity", "1e400"))
        code, out, err = run(capsys, "matrix", "--pair-file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "generator",
        ["__import__('sys').stderr.write('EXECUTED\\n')*0 + x**2", "x.__class__"],
        ids=["call", "attribute"],
    )
    def test_ideal_that_is_no_polynomial_is_usage_error(self, capsys, generator):
        code, out, err = run(
            capsys, "matrix", "--ideal", generator, "x*y", "y**2", "--truncation", "3"
        )
        # had the call run, it would have written a line of its own
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_oversized_truncation_is_usage_error(self, capsys, monkeypatch):
        def build(*args):
            raise AssertionError("the system was built")

        monkeypatch.setattr(hilbmatrix, "_quotient_data", build)
        code, out, err = run(
            capsys,
            "matrix", "--ideal", "x**2", "x*y", "y**2", "--truncation", "1000000",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: truncation 1000000")
        assert len(err.splitlines()) == 1

    def test_power_of_a_large_constant_term_is_usage_error(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "matrix", "--ideal", "(2/3 + x)**1000000 - (2/3)**1000000",
            "x*y", "y**2", "--truncation", "3",
        )
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (2, "")
        assert err == (
            "error: '(2 / 3 + x) ** 1000000' raises a constant term past "
            "100000 bits\n"
        )

    def test_power_of_a_unit_constant_term_is_usage_error(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "matrix", "--ideal", "(1 + x + y)**" + str(10**100) + " - 1",
            "x**9", "y**9", "--truncation", "12",
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert err.endswith("raises a constant term past 100000 bits\n")

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_pair_file_is_usage_error(self, capsys, tmp_path, name):
        code, out, err = run(capsys, "matrix", "--pair-file", str(tmp_path / name))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read pair file") and len(err.splitlines()) == 1


class TestOtherCommands:
    def test_spin8(self, capsys):
        code, out, _ = run(capsys, "spin8-check", "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", "--type", "C_4")
        assert code == 0
        assert "admits" in out
        code, out, _ = run(capsys, "classify", "--type", "E", "--rank", "8")
        assert code == 0
        assert "does_not_admit" in out
        # Spin(5) = Sp(2), so B_2 answers as C_2 does
        code, out, _ = run(capsys, "classify", "--type", "B_2", "--format", "json")
        assert code == 0
        assert json.loads(out)["classification"] == "admits"

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_failed_internal_check_exits_1_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr(BigradedPoly, "is_hodge_symmetric", lambda self: False)
        code, out, err = run(capsys, "stringy", "--type", "G", "--rank", "2")
        assert code == 1
        assert out == ""
        assert err == (
            "error: internal check failed: "
            "stringy Hodge output is not (p,q)-symmetric\n"
        )

    def test_propagate_without_generic_perturbation_exits_2(self, capsys):
        # fine denominator 1 only ever draws the zero perturbation, which
        # never cuts the ambient stabilizer down to the sub-stabilizer; it
        # used to be drawn 40 times
        code, out, err = run(
            capsys, "propagate", "--type", "D", "--rank", "4", "--ambient", "E_6",
            "--nodes", "3,4,5,2", "--fine-denominator", "1",
        )
        assert code == 2
        assert out == ""
        assert err == "error: no generic perturbation: q = 0 is the only candidate\n"

    def test_import_leaves_sympy_unloaded(self):
        # neither the import nor reading an ideal loads sympy
        src = os.path.dirname(os.path.dirname(weylorb.__file__))
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import weylorb, weylorb.cli; "
            "imported = 'sympy' in sys.modules; "
            "code = weylorb.cli.main(['matrix', '--ideal', 'x**2', 'x*y', 'y**2', "
            "'--truncation', '3']); "
            "print(code, imported, 'sympy' in sys.modules, file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stderr.strip() == "0 False False"

    def test_engine_and_scans_leave_numpy_ma_unloaded(self):
        # np.unique with no return_* flag goes through np.ma.is_masked, which
        # imports numpy.ma: about 1.2 MB of max RSS that nothing here needs
        src = os.path.dirname(os.path.dirname(weylorb.__file__))
        code = (
            f"import sys; sys.path.insert(0, {src!r}); from weylorb import *; "
            "b4 = LatticeAction.from_root_datum(build_root_datum('B', 4)); "
            "stringy_hodge(b4); stringy_euler_commuting_pairs(b4); "
            "d4 = build_root_datum('D', 4); "
            "p = find_minus_one_points(d4)[0]; "
            "propagate(embed_diagram(d4, build_root_datum('E', 6), [3, 4, 5, 2]), p); "
            "print('numpy.ma' in sys.modules, file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stderr.strip() == "False"

    def test_no_source_file_imports_sympy(self):
        package = os.path.dirname(weylorb.__file__)
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                assert not any(m.split(".")[0] == "sympy" for m in modules), name


# every name listed under README's "Removed exports", as (module, dotted
# path in that module)
REMOVED_EXPORTS = [
    ("hodgepoly", "specialize"),
    ("hilbmatrix", "negate"),
    ("rootdata", "positive_roots"),
    ("stringy", "stringy_hodge_by_orbits"),
    ("stringy", "_molien"),
    ("torsion", "two_torsion_points"),
    ("intlinalg", "charpoly"),
    ("intlinalg", "finite_order_inverse"),
    ("intlinalg", "unimodular_inverse"),
    ("hilbmatrix", "skew_standard_form"),
    ("rootdata", "coxeter_order"),
    ("stringy", "LatticeAction.from_matrices"),
    ("hodgepoly", "partition_size"),
    ("hodgepoly", "BigradedPoly.has_integer_coeffs"),
    ("hodgepoly", "BigradedPoly.to_int"),
    ("hodgepoly", "BigradedPoly.max_degree"),
    ("hodgepoly", "BigradedPoly.from_json_rows"),
    ("torsion", "point_from_ambient"),
    ("torsion", "TorsionPoint.add"),
    ("torsion", "TorsionPoint.is_zero"),
    ("torsion", "TorsionPoint.from_json"),
    ("torsion", "StabilizerReport.to_dict"),
    ("torsion", "StabilizerReport.elements"),
    ("torsion", "StabilizerReport.crepant"),
    ("rootdata", "RootDatum.to_json"),
    ("rootdata", "RootDatum.from_json"),
    ("stringy", "FixedLocusData.component_count"),
    ("intlinalg", "mat_sub"),
    ("flatf2", "ExteriorF2Element.zero"),
    ("intlinalg", "rref"),
    ("intlinalg", "mat_vec"),
    ("rootdata", "WeylGroup.elements"),
    ("rootdata", "WeylGroup.__iter__"),
    ("rootdata", "RootTable.reflection_subgroup"),
    ("rootdata", "WeylGroup.rows_of"),
    ("rootdata", "RootDatum.simple_coroots"),
    ("rootdata", "DiagramEmbedding.coroot_map"),
    ("intlinalg", "invariant_factors"),
    ("torsion", "propagate(max_attempts)"),
    ("torsion", "PropagationResult.seed"),
    ("intlinalg", "clear_denominators"),
]


@pytest.mark.parametrize(
    "module,path", REMOVED_EXPORTS, ids=[f"{m}.{p}" for m, p in REMOVED_EXPORTS]
)
def test_removed_export_stays_removed(module, path):
    # a dataclass field without a default is no class attribute, so the
    # fields are read too; "f(name)" names a parameter of f, read off its
    # signature; the scope must resolve in the module, and in the package
    # where it is exported
    path, _, parameter = path.rstrip(")").partition("(")
    *scope, name = path.split(".")
    if parameter:
        scope, name = [*scope, name], parameter
    owners = [importlib.import_module(f"weylorb.{module}"), weylorb]
    for part in scope:
        owners = [getattr(owner, part, None) for owner in owners]
    assert owners[0] is not None, f"weylorb.{module}.{'.'.join(scope)} is gone"
    for owner in filter(None, owners):
        if parameter:
            assert name not in inspect.signature(owner).parameters, f"{owner}({name})"
            continue
        assert not hasattr(owner, name), f"{owner}.{name}"
        if dataclasses.is_dataclass(owner):
            assert name not in {f.name for f in dataclasses.fields(owner)}


# the least arguments each subcommand runs with; the contract test below
# checks that this covers every subcommand the parser has
MINIMAL_ARGS = {
    "table1": (),
    "stringy": ("--type", "G_2"),
    "verify-sp": ("--n", "2"),
    "verify-su": ("--n", "2"),
    "series": ("--n", "2"),
    "torsion-scan": ("--type", "G_2"),
    "propagate": ("--type", "B_3", "--ambient", "F_4", "--nodes", "1,2,3"),
    "matrix": ("--example", "remark"),
    "spin8-check": (),
    "classify": ("--type", "C_4"),
}


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if a.dest == "command")
    return action.choices


# the subcommands that enumerate a group or a candidate set, the only ones
# with --cap
CAPPED = ["propagate", "stringy", "torsion-scan", "verify-sp", "verify-su"]
# options every subcommand once took, each with a valid value; --cap is left
# only on CAPPED, and --denominator-bound, which selected nothing, is gone
FORMER_OPTIONS = {"--cap": "5", "--denominator-bound": "4"}


def _usage_cases():
    for command, sub in sorted(_subparsers().items()):
        minimal = MINIMAL_ARGS[command]
        # a value that is no int, also to a former option the subcommand lacks
        typed = {a.option_strings[0] for a in sub._actions if a.type is not None}
        for opt in sorted(typed | set(FORMER_OPTIONS)):
            yield f"{command}-{opt}-not-int", (command, *minimal, opt, "2.5")
        for opt, value in FORMER_OPTIONS.items():
            if opt not in sub._option_string_actions:
                yield f"{command}-{opt}-absent", (command, *minimal, opt, value)
        if command == "matrix":
            yield "matrix-two-sources", (command, *minimal, "--ideal", "x")
        if command == "propagate":
            for nodes in ("1,2,x", "1,,3"):
                argv = (command, *minimal, "--nodes", nodes)
                yield f"{command}---nodes-{nodes}", argv
        if minimal:
            # the required options dropped; matrix needs one of three inputs
            yield f"{command}-missing-required", (command,)
        yield f"{command}-unknown-option", (command, *minimal, "--bogus", "1")


USAGE_CASES = dict(_usage_cases())


def test_usage_cases_cover_every_subcommand():
    assert sorted(MINIMAL_ARGS) == sorted(_subparsers())


def test_cap_is_on_the_commands_that_enumerate(capsys):
    subparsers = sorted(_subparsers().items())
    capped = [c for c, sub in subparsers if "--cap" in sub._option_string_actions]
    assert capped == CAPPED
    for command in CAPPED:
        with pytest.raises(SystemExit) as exc:
            main([command, *MINIMAL_ARGS[command], "--cap", "0"])
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, "")
        assert out.err == "error: argument --cap: caps must be positive\n"


@pytest.mark.parametrize("argv", USAGE_CASES.values(), ids=USAGE_CASES.keys())
def test_usage_error_is_one_line_exit_2(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err.startswith("error: ") and len(out.err.splitlines()) == 1


@pytest.mark.parametrize("target", ["directory", "missing/report.json"])
def test_unwritable_out_is_one_line_exit_2(capsys, tmp_path, target):
    (tmp_path / "directory").mkdir()
    code, out, err = run(capsys, "table1", "--out", str(tmp_path / target))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write report: ")
    assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["directory"]


class TestDeterminismAndOutput:
    def test_byte_identical_reports_per_seed(self, capsys):
        argv = [
            "propagate", "--type", "B", "--rank", "3", "--ambient", "F_4",
            "--nodes", "1,2,3", "--seed", "11", "--format", "json",
        ]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_seed_recorded_in_json(self, capsys):
        _, out, _ = run(
            capsys, "table1", "--format", "json", "--seed", "42"
        )
        assert json.loads(out)["seed"] == 42

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "table1", "--format", "json", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["verdict"] == "pass"

    def test_failed_run_leaves_out_file_unchanged(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("previous report\n")
        code, out, err = run(
            capsys, "stringy", "--type", "E", "--rank", "7", "--out", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert path.read_text() == "previous report\n"

    def test_run_with_no_report_leaves_out_file_unchanged(self, capsys, tmp_path):
        # A_2 has no minus-one point, so propagate exits 1 with no report
        path = tmp_path / "report.json"
        path.write_text("previous report\n")
        code, out, err = run(
            capsys, "propagate", "--type", "A", "--rank", "2", "--ambient",
            "A_3", "--nodes", "1,2", "--out", str(path),
        )
        assert code == 1
        assert out == ""
        assert "no minus-one point" in err
        assert path.read_text() == "previous report\n"
