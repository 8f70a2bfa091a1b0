"""Recompute perfbench/goldens.json from the weylorb sources in this checkout.

Run from the repository root:  python3 perfbench/capture_goldens.py

The goldens are captured once, at the commit that introduced the benchmark,
and then kept fixed: a later change that alters any of these answers is
caught by the benchmark's correctness gate.  Every value is computed in the
unconjugated coroot basis, so the benchmark's seeded changes of basis are
checked against a basis-independent answer.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from weylorb import hilbmatrix, rootdata, stringy, torsion  # noqa: E402

from workloads import (  # noqa: E402
    MATRIX_LAB_COLENGTHS,
    PROPAGATE_EMBEDDING,
    STRINGY_GROUPS,
    STRINGY_SP_N,
    TORSION_TYPE,
    ideal_generators,
    partition_key,
    partitions,
    point_code,
)


def _matrices(gens):
    return [[list(row) for row in g] for g in gens]


def capture():
    out = {"stringy": {}}
    for letter, rank in STRINGY_GROUPS:
        datum = rootdata.build_root_datum(letter, rank)
        action = stringy.LatticeAction.from_root_datum(datum)
        poly = stringy.stringy_hodge(action)
        out["stringy"][datum.dynkin_type] = {
            "generators": _matrices(datum.weyl_generators),
            "order": rootdata.expected_weyl_order(letter, rank),
            "euler": stringy.stringy_euler_commuting_pairs(action),
            "hodge": poly.to_json_rows(),
        }
    closed = stringy.stringy_hodge_wreath_closed_form(STRINGY_SP_N)
    out["stringy"][f"Sp_{STRINGY_SP_N}"] = {"closed_form": closed.to_json_rows()}

    datum = rootdata.build_root_datum(*TORSION_TYPE)
    group = rootdata.enumerate_group(datum)
    points = torsion.find_minus_one_points(group, 2)
    report = torsion.stabilizer(group, points[0])
    out["torsion_scan"] = {
        "generators": _matrices(datum.weyl_generators),
        "points": len(points),
        "stabilizer_order": report.order,
        "orbit_size": report.orbit_size,
        "classification": report.action_classification,
    }

    sub, ambient, nodes = PROPAGATE_EMBEDDING
    emb = rootdata.embed_diagram(sub, ambient, nodes)
    result = torsion.propagate(emb, points[0], seed=0)
    out["propagate"] = {
        "sub_points": [point_code(p.coords) for p in points],
        "stabilizer_order": result.report.order,
        "sub_stabilizer_order": result.sub_report.order,
        "orbit_size": result.report.orbit_size,
    }

    symplectic = {}
    for n in MATRIX_LAB_COLENGTHS:
        for lam in partitions(n):
            gens, truncation = ideal_generators(lam)
            pair = hilbmatrix.pair_from_ideal(gens, truncation)
            skew = hilbmatrix.symplectic_exists(pair)
            symplectic[partition_key(lam)] = skew.contains_invertible
    out["matrix_lab"] = {"symplectic": symplectic}
    return out


if __name__ == "__main__":
    path = os.path.join(HERE, "goldens.json")
    with open(path, "w") as fh:
        json.dump(capture(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
