"""Command-line front end: batch verification runs and report emission."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from . import flatf2, hilbmatrix, hodgepoly, rootdata, stringy, torsion
from .rootdata import GroupOrderCapError

TABLE1_ROWS = [
    ("SU(n)", "A_5"),
    ("Spin(2n+1)", "B_4"),
    ("Sp(n)", "C_4"),
    ("Spin(2n)", "D_5"),
    ("G_2", "G_2"),
    ("F_4", "F_4"),
    ("E_6", "E_6"),
    ("E_7", "E_7"),
    ("E_8", "E_8"),
]

TABLE1_EXPECTED = {
    "SU(n)": lambda r: (1,) * r,
    "Sp(n)": lambda r: (1,) * r,
    "Spin(2n+1)": lambda r: (1, 1) + (2,) * (r - 2),
    "Spin(2n)": lambda r: (1, 1, 1) + (2,) * (r - 3),
    "G_2": lambda r: (1, 2),
    "F_4": lambda r: (1, 2, 2, 3),
    "E_6": lambda r: (1, 1, 2, 2, 2, 3),
    "E_7": lambda r: (1, 2, 2, 2, 3, 3, 4),
    "E_8": lambda r: (2, 2, 3, 3, 4, 4, 5, 6),
}


@dataclass
class RunConfig:
    group_order_cap: int = 10**7
    engine_cap: int = 10**5
    denominator_bound: int = 2
    output_format: str = "text"
    seed: int = 0

    def validate(self):
        if self.group_order_cap <= 0 or self.engine_cap <= 0:
            raise ValueError("caps must be positive")


def _emit(payload, config, out, csv_rows=None, text=None):
    """Write the report in the requested format; JSON carries the seed."""
    if config.output_format == "json":
        body = json.dumps(
            {"seed": config.seed, **payload}, sort_keys=True, indent=2
        )
    elif config.output_format == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows:
            writer.writerow(row)
        body = buf.getvalue().rstrip("\n")
    else:
        body = text if text is not None else json.dumps(payload, sort_keys=True)
    print(body, file=out)


def cmd_table1(args, config, out):
    rows = []
    csv_rows = [("group", "type", "coefficients")]
    ok = True
    for label, type_label in TABLE1_ROWS:
        datum = rootdata.build_root_datum(type_label)
        coeffs = rootdata.highest_coroot_coefficients(datum)
        expected = TABLE1_EXPECTED[label](datum.rank)
        if coeffs != expected:
            ok = False
        rows.append({"group": label, "type": type_label, "coefficients": list(coeffs)})
        csv_rows.append((label, type_label, " ".join(map(str, coeffs))))
    payload = {"rows": rows, "verdict": "pass" if ok else "fail"}
    text = "\n".join(
        f"{r['group']:<12} {r['type']:<4} {' '.join(map(str, r['coefficients']))}"
        for r in rows
    ) + f"\nverdict: {payload['verdict']}"
    _emit(payload, config, out, csv_rows, text)
    return 0 if ok else 1


def cmd_stringy(args, config, out):
    datum = rootdata.build_root_datum(args.type, args.rank)
    action = stringy.LatticeAction.from_root_datum(datum, config.engine_cap)
    poly = stringy.stringy_hodge(action, config.engine_cap)
    payload = {
        "type": datum.dynkin_type,
        "hodge": poly.to_json_rows(),
        "euler": poly.specialize(-1, -1),
    }
    csv_rows = [("p", "q", "h")] + [
        (r["p"], r["q"], r["h"]) for r in poly.to_json_rows()
    ]
    _emit(payload, config, out, csv_rows, poly.diamond_text())
    return 0


def cmd_verify_sp(args, config, out):
    report = stringy.verify_sp_theorem(args.n, order_cap=config.engine_cap)
    _emit(
        report.to_dict(),
        config,
        out,
        text=f"sp n={args.n}: {'pass' if report.verdict else 'fail'}"
        + ("" if report.verdict else "\n" + "\n".join(report.notes)),
    )
    return 0 if report.verdict else 1


def cmd_verify_su(args, config, out):
    report = stringy.verify_su_case(args.n, order_cap=config.engine_cap)
    _emit(
        report.to_dict(),
        config,
        out,
        text=f"su n={args.n}: {'pass' if report.verdict else 'fail'}",
    )
    return 0 if report.verdict else 1


def cmd_series(args, config, out):
    surface = {
        "k3": hodgepoly.kummer_k3,
        "abelian": hodgepoly.abelian_surface,
        "kummer": hodgepoly.kummer_singular,
    }[args.surface]()
    spec = None if args.specialization == "none" else args.specialization
    values = hodgepoly.generating_series(surface, args.n, spec)
    if spec is None:
        rows = [
            {"n": i, "value": v.to_json_rows()} for i, v in enumerate(values)
        ]
        csv_rows = None
    else:
        rows = [{"n": i, "value": v} for i, v in enumerate(values)]
        csv_rows = [("n", "value")] + [(r["n"], r["value"]) for r in rows]
    payload = {"surface": args.surface, "series": rows}
    _emit(
        payload,
        config,
        out,
        csv_rows,
        "\n".join(f"{r['n']}: {r['value']}" for r in rows),
    )
    return 0


def cmd_torsion_scan(args, config, out):
    datum = rootdata.build_root_datum(args.type, args.rank)
    group = rootdata.enumerate_group(datum, config.group_order_cap)
    points = torsion.find_minus_one_points(
        group, config.denominator_bound
    )
    rows = []
    csv_rows = [("representative", "stabilizer_order", "classification", "local_model")]
    for p in points:
        report = torsion.stabilizer(group, p)
        rows.append(
            {
                "point": p.to_json(),
                "stabilizer_order": report.order,
                "classification": report.action_classification,
                "local_model": report.local_model_label,
            }
        )
        csv_rows.append(
            (
                ";".join(",".join(r) for r in p.to_json()),
                report.order,
                report.action_classification,
                report.local_model_label,
            )
        )
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
    _emit(payload, config, out, csv_rows, text)
    return 0 if points else 1


def cmd_propagate(args, config, out):
    sub_datum = rootdata.build_root_datum(args.type, args.rank)
    embedding = rootdata.embed_diagram(
        sub_datum, args.ambient, [int(x) for x in args.nodes.split(",")]
    )
    points = torsion.find_minus_one_points(
        rootdata.enumerate_group(embedding.sub, config.group_order_cap),
        config.denominator_bound,
    )
    if not points:
        print("no minus-one point found in the sub-lattice", file=sys.stderr)
        return 1
    result = torsion.propagate(
        embedding,
        points[0],
        fine_denominator=args.fine_denominator,
        seed=config.seed,
    )
    payload = {
        "sub": embedding.sub.dynkin_type,
        "ambient": embedding.ambient.dynkin_type,
        "point": result.point.to_json(),
        "stabilizer_order": result.report.order,
        "sub_stabilizer_order": result.sub_report.order,
        "attempts": result.attempts,
        "local_model": result.local_model_label,
        "verdict": "pass"
        if result.report.order == result.sub_report.order
        else "fail",
    }
    _emit(
        payload,
        config,
        out,
        text=f"{payload['sub']} -> {payload['ambient']}: stabilizer order "
        f"{payload['stabilizer_order']} ({payload['local_model']})",
    )
    return 0 if payload["verdict"] == "pass" else 1


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


def cmd_matrix(args, config, out):
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
    elif args.ideal:
        pair = hilbmatrix.pair_from_ideal(args.ideal, args.truncation)
        source = "ideal:" + ",".join(args.ideal)
    else:
        raise ValueError("matrix needs --example, --pair-file, or --ideal")
    skew = hilbmatrix.symplectic_exists(pair, seed=config.seed)
    payload = {
        "source": source,
        "pair": pair.to_json_dict(),
        "cyclic": hilbmatrix.is_cyclic(pair) if pair.is_nilpotent() else None,
        "skew_space_dim": len(skew.basis),
        "symplectic": skew.contains_invertible,
    }
    _emit(
        payload,
        config,
        out,
        text=f"dim {pair.dim}, cyclic: {payload['cyclic']}, "
        f"symplectic: {payload['symplectic']}",
    )
    return 0


def cmd_spin8_check(args, config, out):
    result = flatf2.spin8_check()
    _emit(
        result,
        config,
        out,
        text=f"w2: {result['w2_terms']}, deformation_dim: "
        f"{result['deformation_dim']}, verdict: {result['verdict']}",
    )
    return 0 if result["verdict"] == "pass" else 1


def cmd_classify(args, config, out):
    verdict = rootdata.crepant_classification(args.type, args.rank)
    label = args.type if args.rank is None else f"{args.type}_{args.rank}"
    payload = {"type": label, "classification": verdict}
    _emit(payload, config, out, text=f"{label}: {verdict}")
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="text")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--cap", type=int, default=None, help="group order cap")
    common.add_argument("--denominator-bound", type=int, default=2)
    common.add_argument("--out", default=None, help="report file (default stdout)")

    parser = argparse.ArgumentParser(
        prog="weylorb",
        description="Exact invariants of (A tensor Lambda)/W moduli spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    add_parser("table1", help="highest-coroot coefficient table")

    p = add_parser("stringy", help="stringy Hodge diamond of a Weyl action")
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int, default=None)

    p = add_parser("verify-sp", help="three-way Sp(n) check")
    p.add_argument("--n", type=int, required=True)

    p = add_parser("verify-su", help="SU(n) stringy computation and checks")
    p.add_argument("--n", type=int, required=True)

    p = add_parser("series", help="Hilbert-scheme generating series")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--surface", choices=("k3", "abelian", "kummer"), default="k3")
    p.add_argument(
        "--specialization",
        choices=("euler", "signature", "none"),
        default="euler",
    )

    p = add_parser("torsion-scan", help="minus-one stabilizer point scan")
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int, default=None)

    p = add_parser("propagate", help="push a point along a diagram embedding")
    p.add_argument("--type", required=True, help="sub-diagram type")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--ambient", required=True)
    p.add_argument("--nodes", required=True, help="comma-separated ambient nodes")
    p.add_argument("--fine-denominator", type=int, default=3)

    p = add_parser("matrix", help="commuting-pair laboratory")
    p.add_argument("--example", choices=sorted(BUILTIN_PAIRS))
    p.add_argument("--pair-file")
    p.add_argument("--ideal", nargs="*", help="polynomial generators in x, y")
    p.add_argument("--truncation", type=int, default=4)

    add_parser("spin8-check", help="Whitney class and deformation check")

    p = add_parser("classify", help="crepant resolution classification")
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int, default=None)

    return parser


HANDLERS = {
    "table1": cmd_table1,
    "stringy": cmd_stringy,
    "verify-sp": cmd_verify_sp,
    "verify-su": cmd_verify_su,
    "series": cmd_series,
    "torsion-scan": cmd_torsion_scan,
    "propagate": cmd_propagate,
    "matrix": cmd_matrix,
    "spin8-check": cmd_spin8_check,
    "classify": cmd_classify,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        denominator_bound=args.denominator_bound,
        output_format=args.format,
        seed=args.seed,
    )
    if args.cap is not None:
        config.group_order_cap = args.cap
        config.engine_cap = args.cap
    try:
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handler = HANDLERS[args.command]
    try:
        if not args.out:
            return handler(args, config, sys.stdout)
        # the report file is written only once the handler has returned a
        # report, so a run that fails or emits nothing leaves it as it was
        buf = io.StringIO()
        code = handler(args, config, buf)
        if buf.getvalue():
            with open(args.out, "w") as fh:
                fh.write(buf.getvalue())
        return code
    except (GroupOrderCapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
