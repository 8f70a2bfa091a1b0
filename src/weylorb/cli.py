"""Command-line front end: batch verification runs and report emission.

Every subcommand handler takes the parsed arguments and returns
(exit code, payload, text, csv rows), or raises.  `main` is the one place
that renders and writes a report: JSON of the payload with the seed, CSV
where the handler gives rows, the text otherwise; to stdout, or to `--out`
once the report is complete.  A handler with no report returns payload None
and its text goes to stderr.  ValueError and GroupOrderCapError exit 2 and
a failed internal check exits 1, each with one `error:` line, as does every
argparse usage error (exit 2).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import flatf2, hilbmatrix, hodgepoly, rootdata, stringy, torsion

# (group, type, highest-coroot coefficients the paper's Table 1 lists)
TABLE1_ROWS = [
    ("SU(n)", "A_5", (1, 1, 1, 1, 1)),
    ("Spin(2n+1)", "B_4", (1, 1, 2, 2)),
    ("Sp(n)", "C_4", (1, 1, 1, 1)),
    ("Spin(2n)", "D_5", (1, 1, 1, 2, 2)),
    ("G_2", "G_2", (1, 2)),
    ("F_4", "F_4", (1, 2, 2, 3)),
    ("E_6", "E_6", (1, 1, 2, 2, 2, 3)),
    ("E_7", "E_7", (1, 2, 2, 2, 3, 3, 4)),
    ("E_8", "E_8", (2, 2, 3, 3, 4, 4, 5, 6)),
]


def cmd_table1(args):
    rows = []
    csv_rows = [("group", "type", "coefficients")]
    ok = True
    for label, type_label, expected in TABLE1_ROWS:
        coeffs = rootdata.highest_coroot_coefficients(
            rootdata.build_root_datum(type_label)
        )
        ok = ok and coeffs == expected
        rows.append({"group": label, "type": type_label, "coefficients": list(coeffs)})
        csv_rows.append((label, type_label, " ".join(map(str, coeffs))))
    verdict = "pass" if ok else "fail"
    text = "\n".join(
        f"{r['group']:<12} {r['type']:<4} {' '.join(map(str, r['coefficients']))}"
        for r in rows
    ) + f"\nverdict: {verdict}"
    return (0 if ok else 1), {"rows": rows, "verdict": verdict}, text, csv_rows


def cmd_stringy(args):
    cap = args.cap or stringy.DEFAULT_ENGINE_CAP
    datum = rootdata.build_root_datum(args.type, args.rank)
    poly = stringy.stringy_hodge(stringy.LatticeAction.from_root_datum(datum, cap))
    hodge = poly.to_json_rows()
    payload = {
        "type": datum.dynkin_type,
        "hodge": hodge,
        "euler": poly.specialize(-1, -1),
    }
    csv_rows = [("p", "q", "h")] + [(r["p"], r["q"], r["h"]) for r in hodge]
    return 0, payload, poly.diamond_text(), csv_rows


def cmd_verify(args):
    """verify-sp or verify-su: the verdict line, then the report's notes."""
    report = args.check(args.n, order_cap=args.cap or stringy.DEFAULT_ENGINE_CAP)
    text = "\n".join(
        (f"{report.label} n={report.n}: {'pass' if report.verdict else 'fail'}",)
        + report.notes
    )
    return (0 if report.verdict else 1), report.to_dict(), text, None


def cmd_series(args):
    surface = {
        "k3": hodgepoly.kummer_k3,
        "abelian": hodgepoly.abelian_surface,
        "kummer": hodgepoly.kummer_singular,
    }[args.surface]()
    spec = None if args.specialization == "none" else args.specialization
    values = hodgepoly.generating_series(surface, args.n, spec)
    if spec is None:
        rows = [{"n": i, "value": v.to_json_rows()} for i, v in enumerate(values)]
        csv_rows = None
    else:
        rows = [{"n": i, "value": v} for i, v in enumerate(values)]
        csv_rows = [("n", "value")] + [(r["n"], r["value"]) for r in rows]
    text = "\n".join(f"{r['n']}: {r['value']}" for r in rows)
    return 0, {"surface": args.surface, "series": rows}, text, csv_rows


def cmd_torsion_scan(args):
    datum = rootdata.build_root_datum(args.type, args.rank)
    cap = args.cap or torsion.DEFAULT_TORSION_CAP
    points = torsion.find_minus_one_points(datum, order_cap=cap)
    # every point found has stabilizer exactly {+-1}, so one report serves all
    report = torsion.stabilizer(datum, points[0], cap) if points else None
    header = ("representative", "stabilizer_order", "classification", "local_model")
    rows, csv_rows = [], [header]
    for p in points:
        fields = (report.order, report.action_classification, report.local_model_label)
        rows.append({"point": p.to_json(), **dict(zip(header[1:], fields))})
        csv_rows.append((";".join(",".join(r) for r in p.to_json()), *fields))
    payload = {
        "type": datum.dynkin_type,
        "orbit_count": len(points),
        "orbits": rows,
        "verdict": "pass" if points else "fail",
    }
    text = (
        f"{datum.dynkin_type}: {len(points)} orbit(s) with stabilizer "
        "exactly {+1,-1}"
        + (f", local model {rows[0]['local_model']}" if rows else "")
    )
    return (0 if points else 1), payload, text, csv_rows


def cmd_propagate(args):
    sub = rootdata.build_root_datum(args.type, args.rank)
    embedding = rootdata.embed_diagram(sub, args.ambient, args.nodes)
    cap = args.cap or torsion.DEFAULT_TORSION_CAP
    points = torsion.find_minus_one_points(sub, order_cap=cap)
    if not points:
        return 1, None, "no minus-one point found in the sub-lattice", None
    result = torsion.propagate(
        embedding,
        points[0],
        fine_denominator=args.fine_denominator,
        seed=args.seed,
        order_cap=cap,
    )
    ok = result.report.order == result.sub_report.order
    payload = {
        "sub": embedding.sub.dynkin_type,
        "ambient": embedding.ambient.dynkin_type,
        "point": result.point.to_json(),
        "stabilizer_order": result.report.order,
        "sub_stabilizer_order": result.sub_report.order,
        "attempts": result.attempts,
        "local_model": result.local_model_label,
        "verdict": "pass" if ok else "fail",
    }
    text = (
        f"{payload['sub']} -> {payload['ambient']}: stabilizer order "
        f"{payload['stabilizer_order']} ({payload['local_model']})"
    )
    return (0 if ok else 1), payload, text, None


BUILTIN_PAIRS = {
    "footnote": (
        [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
    ),
    "remark": (
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
    ),
}


def cmd_matrix(args):
    if args.example:
        pair = hilbmatrix.make_pair(*BUILTIN_PAIRS[args.example])
        source = f"example:{args.example}"
    elif args.pair_file:
        try:
            with open(args.pair_file) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read pair file: {exc}") from None
        pair = hilbmatrix.MatrixPair.from_json_dict(data)
        source = args.pair_file
    else:
        pair = hilbmatrix.pair_from_ideal(args.ideal, args.truncation)
        source = "ideal:" + ",".join(args.ideal)
    skew = hilbmatrix.symplectic_exists(pair, seed=args.seed)
    payload = {
        "source": source,
        "pair": pair.to_json_dict(),
        "cyclic": hilbmatrix.is_cyclic(pair) if pair.is_nilpotent() else None,
        "skew_space_dim": len(skew.basis),
        "symplectic": skew.contains_invertible,
    }
    text = (
        f"dim {pair.dim}, cyclic: {payload['cyclic']}, "
        f"symplectic: {payload['symplectic']}"
    )
    return 0, payload, text, None


def cmd_spin8_check(args):
    result = flatf2.spin8_check()
    text = (
        f"w2: {result['w2_terms']}, deformation_dim: "
        f"{result['deformation_dim']}, verdict: {result['verdict']}"
    )
    return (0 if result["verdict"] == "pass" else 1), result, text, None


def cmd_classify(args):
    verdict = rootdata.crepant_classification(args.type, args.rank)
    label = args.type if args.rank is None else f"{args.type}_{args.rank}"
    return 0, {"type": label, "classification": verdict}, f"{label}: {verdict}", None


def int_list(text):
    """Comma-separated ints, as a list: the type of --nodes."""
    return [int(x) for x in text.split(",")]


def positive_int(text):
    """A positive int: the type of --cap."""
    if int(text) <= 0:
        raise argparse.ArgumentTypeError("caps must be positive")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one `error:` line, exit 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="text")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None, help="report file (default stdout)")
    typed = argparse.ArgumentParser(add_help=False)
    typed.add_argument("--type", required=True)
    typed.add_argument("--rank", type=int, default=None)
    # the five commands that enumerate; each handler defaults to its library's cap
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", type=positive_int, help="enumeration cap")

    parser = _Parser(
        prog="weylorb",
        description="Exact invariants of (A tensor Lambda)/W moduli spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, handler, help, *parents):
        p = sub.add_parser(name, parents=[common, *parents], help=help)
        p.set_defaults(handler=handler)
        return p

    add_parser("table1", cmd_table1, "highest-coroot coefficient table")
    add_parser(
        "stringy", cmd_stringy, "stringy Hodge diamond of a Weyl action", typed, capped
    )

    for name, check, help in (
        ("verify-sp", stringy.verify_sp_theorem, "three-way Sp(n) check"),
        ("verify-su", stringy.verify_su_case, "SU(n) stringy computation and checks"),
    ):
        p = add_parser(name, cmd_verify, help, capped)
        p.add_argument("--n", type=int, required=True)
        p.set_defaults(check=check)

    p = add_parser("series", cmd_series, "Hilbert-scheme generating series")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--surface", choices=("k3", "abelian", "kummer"), default="k3")
    p.add_argument(
        "--specialization",
        choices=("euler", "signature", "none"),
        default="euler",
    )

    add_parser(
        "torsion-scan", cmd_torsion_scan, "minus-one stabilizer point scan", typed,
        capped,
    )

    p = add_parser(
        "propagate", cmd_propagate, "push a point along a diagram embedding", typed,
        capped,
    )
    p.add_argument(
        "--ambient", required=True, help="ambient type (--type is the sub-diagram)"
    )
    p.add_argument("--nodes", type=int_list, required=True, help="comma-separated nodes")
    p.add_argument("--fine-denominator", type=int, default=3)

    p = add_parser("matrix", cmd_matrix, "commuting-pair laboratory")
    pair = p.add_mutually_exclusive_group(required=True)
    pair.add_argument("--example", choices=sorted(BUILTIN_PAIRS))
    pair.add_argument("--pair-file")
    pair.add_argument("--ideal", nargs="+", help="polynomial generators in x, y")
    p.add_argument("--truncation", type=int, default=4)

    add_parser("spin8-check", cmd_spin8_check, "Whitney class and deformation check")
    add_parser("classify", cmd_classify, "crepant resolution classification", typed)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code, payload, text, csv_rows = args.handler(args)
    except ValueError as exc:  # GroupOrderCapError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1
    if payload is None:
        print(text, file=sys.stderr)
        return code
    if args.format == "json":
        body = json.dumps({"seed": args.seed, **payload}, sort_keys=True, indent=2)
    elif args.format == "csv" and csv_rows is not None:
        buf = io.StringIO()
        csv.writer(buf).writerows(csv_rows)
        body = buf.getvalue().rstrip("\n")
    else:
        body = text
    if not args.out:
        print(body)
        return code
    # written only now, so a run that fails or ends with no report leaves
    # the file as it was
    try:
        with open(args.out, "w") as fh:
            print(body, file=fh)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
