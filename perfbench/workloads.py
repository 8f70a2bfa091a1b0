"""The four benchmark workloads: seeded inputs, fixed job lists, checks.

Each workload is a fixed list of jobs that is repeated in a closed loop.
`make_inputs(workload, goldens, seed, k)` builds the inputs of repetition k
from the seed alone, with no call into weylorb, so the same seed always gives
byte-identical inputs.  `make_jobs(workload, goldens, inputs)` turns them into
(name, thunk) pairs; a thunk runs one job and checks its output against an
oracle or a golden, raising CheckFailed on a wrong answer.

Jobs look weylorb functions up through their modules at call time
(`stringy.stringy_hodge`, not a name bound at import), so the traced run's
wrappers, which are installed on those module attributes, see every call.

Why each workload exists, and what was left out, is in NOTES.md.
"""

import random

from weylorb import hilbmatrix, rootdata, stringy, torsion

# stringy: two Weyl actions, each seen through a seeded change of basis, and
# the Sp(n) three-way check with the engine switched on
STRINGY_GROUPS = (("B", 4), ("A", 5))
STRINGY_SP_N = 4
# torsion-scan: the minus-one scan of W(D_4); each repetition takes the
# stabilizers of one seeded eighth of the 560 points it finds
TORSION_TYPE = ("D", 4)
TORSION_CHUNKS = 8
# propagate: D_4 into E_6 along ambient nodes 3, 4, 5, 2
PROPAGATE_EMBEDDING = ("D_4", "E_6", (3, 4, 5, 2))
# matrix-lab: every monomial ideal I_lambda of these colengths
MATRIX_LAB_COLENGTHS = (6, 7)

WORKLOADS = ("stringy", "torsion-scan", "propagate", "matrix-lab")


class CheckFailed(Exception):
    """A job returned an answer that disagrees with its oracle or golden."""


def expect(condition, what):
    if not condition:
        raise CheckFailed(what)


def _rng(workload, seed, k=None):
    # str seeds are hashed with SHA-512, so the stream is the same in every
    # process whatever PYTHONHASHSEED is
    return random.Random(f"{workload}/{seed}" + ("" if k is None else f"/{k}"))


def _mat_mul(a, b):
    return [
        [sum(x * b[t][j] for t, x in enumerate(row)) for j in range(len(b[0]))]
        for row in a
    ]


def _unimodular_pair(rng, rank):
    """A seeded product U of `rank` transvections I +- e_ij, and U^-1."""
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    u_inv = [row[:] for row in u]
    for _ in range(rank):
        i, j = rng.sample(range(rank), 2)
        c = rng.choice((-1, 1))
        # U <- (I + c e_ij) U  and  U^-1 <- U^-1 (I - c e_ij)
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in u_inv:
            row[j] -= c * row[i]
    return u, u_inv


def partitions(n, largest=None):
    """Partitions of n as non-increasing tuples, largest part first."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def partition_key(lam):
    return ",".join(map(str, lam))


def _monomial(a, b):
    return "*".join(
        f"{v}**{e}" for v, e in (("x", a), ("y", b)) if e
    )


def ideal_generators(lam):
    """Minimal generators of I_lambda and a truncation N with (x,y)^N in I.

    The diagram of lambda holds x^a y^b for b < lambda[a]; its cells have
    a + b <= len(lambda) + lambda[0] - 2.
    """
    length = len(lam)
    gens = [_monomial(length, 0), _monomial(0, lam[0])]
    gens += [
        _monomial(i, lam[i]) for i in range(1, length) if lam[i] < lam[i - 1]
    ]
    return gens, length + lam[0] - 1


def point_code(coords):
    """A 2-torsion point of rank r as a 4r-bit integer (nibble j = row j)."""
    return sum(
        (x & 1) << (4 * j + t) for j, row in enumerate(coords)
        for t, x in enumerate(row)
    )


def _point_from_code(code, rank):
    coords = tuple(
        tuple((code >> (4 * j + t)) & 1 for t in range(4)) for j in range(rank)
    )
    return torsion.TorsionPoint(2, coords).reduced()


def make_inputs(workload, goldens, seed, k):
    """Inputs of repetition k; a function of (workload, seed, k) only."""
    if workload == "stringy":
        rng = _rng(workload, seed, k)
        out = {}
        for label, gold in goldens["stringy"].items():
            if "generators" not in gold:
                continue
            u, u_inv = _unimodular_pair(rng, len(gold["generators"][0]))
            out[label] = [
                _mat_mul(_mat_mul(u, s), u_inv) for s in gold["generators"]
            ]
        return {"actions": out}
    if workload == "torsion-scan":
        gold = goldens["torsion_scan"]
        order = _rng(workload, seed).sample(range(gold["points"]), gold["points"])
        size = gold["points"] // TORSION_CHUNKS
        part = k % TORSION_CHUNKS
        return {
            "generators": gold["generators"],
            "indices": order[part * size:(part + 1) * size],
        }
    if workload == "propagate":
        rng = _rng(workload, seed, k)
        return {
            "point": rng.choice(goldens["propagate"]["sub_points"]),
            "perturbation_seed": rng.randrange(2**31),
        }
    if workload == "matrix-lab":
        rng = _rng(workload, seed, k)
        lams = [lam for n in MATRIX_LAB_COLENGTHS for lam in partitions(n)]
        rng.shuffle(lams)
        ideals = []
        for lam in lams:
            gens, truncation = ideal_generators(lam)
            # redundant generators and a looser truncation change the
            # presentation, never the ideal
            outside = [
                (a, b)
                for a in range(truncation)
                for b in range(truncation - a)
                if (a, b) != (0, 0)
                and (a >= len(lam) or b >= lam[a])
            ]
            gens += [_monomial(a, b) for a, b in rng.sample(outside, rng.randrange(3))]
            rng.shuffle(gens)
            ideals.append(
                {
                    "partition": list(lam),
                    "generators": gens,
                    "truncation": truncation + rng.randrange(2),
                }
            )
        return {"ideals": ideals}
    raise ValueError(f"unknown workload {workload!r}")


def _stringy_job(gold, generators):
    def job():
        action = stringy.LatticeAction.from_generators(generators)
        # a wrapped int64 product would make a wrong group pass as input
        expect(action.group.order == gold["order"], "group order")
        poly = stringy.stringy_hodge(action)
        expect(poly.to_json_rows() == gold["hodge"], "Hodge polynomial")
        euler = stringy.stringy_euler_commuting_pairs(action)
        expect(euler == gold["euler"], "commuting-pairs Euler number")
        expect(poly.specialize(-1, -1) == euler, "Euler specialization")

    return job


def _sp_job(gold):
    def job():
        report = stringy.verify_sp_theorem(STRINGY_SP_N, engine=True)
        expect(report.verdict, "Sp three-way verdict")
        closed = report.polynomials["closed_form"].to_json_rows()
        expect(closed == gold["closed_form"], "Sp closed form")

    return job


def _scan_jobs(gold, inputs):
    found = []

    def scan():
        group = rootdata.enumerate_group(inputs["generators"])
        found[:] = [group, torsion.find_minus_one_points(group, 2)]
        expect(len(found[1]) == gold["points"], "minus-one point count")

    def stab(i):
        def job():
            group, points = found
            report = torsion.stabilizer(group, points[i])
            expect(report.order == gold["stabilizer_order"], "stabilizer order")
            expect(report.orbit_size == gold["orbit_size"], "orbit size")
            expect(
                report.action_classification == gold["classification"],
                "classification",
            )

        return job

    return [("scan", scan)] + [(f"stabilizer[{i}]", stab(i)) for i in inputs["indices"]]


def _propagate_job(gold, inputs):
    def job():
        sub, ambient, nodes = PROPAGATE_EMBEDDING
        emb = rootdata.embed_diagram(sub, ambient, nodes)
        p = _point_from_code(inputs["point"], emb.sub.rank)
        result = torsion.propagate(emb, p, seed=inputs["perturbation_seed"])
        expect(result.report.order == gold["stabilizer_order"], "ambient stabilizer")
        expect(result.sub_report.order == gold["sub_stabilizer_order"], "sub stabilizer")
        expect(result.report.orbit_size == gold["orbit_size"], "ambient orbit size")

    return job


def _ideal_job(gold, ideal):
    lam = tuple(ideal["partition"])

    def job():
        pair = hilbmatrix.pair_from_ideal(ideal["generators"], ideal["truncation"])
        expect(pair.dim == sum(lam), "colength")
        expect(hilbmatrix.is_cyclic(pair), "quotient ring is cyclic")
        dual = hilbmatrix.dual(pair)
        dual_cyclic = hilbmatrix.is_cyclic(dual)
        skew = hilbmatrix.symplectic_exists(pair)
        expect(
            skew.contains_invertible == gold["symplectic"][partition_key(lam)],
            "symplectic verdict",
        )
        self_dual = hilbmatrix.module_isomorphic(pair, dual)[0]
        # in two variables Gorenstein means complete intersection: the
        # dual is cyclic, and the module self-dual, exactly for rectangles
        rectangle = len(set(lam)) == 1
        expect(dual_cyclic == self_dual == rectangle, "Gorenstein test")

    return job


def make_jobs(workload, goldens, inputs):
    """The job list of one repetition, as (name, thunk) pairs."""
    if workload == "stringy":
        gold = goldens["stringy"]
        jobs = [
            (label, _stringy_job(gold[label], gens))
            for label, gens in inputs["actions"].items()
        ]
        return jobs + [(f"Sp_{STRINGY_SP_N}", _sp_job(gold[f"Sp_{STRINGY_SP_N}"]))]
    if workload == "torsion-scan":
        return _scan_jobs(goldens["torsion_scan"], inputs)
    if workload == "propagate":
        return [("propagate", _propagate_job(goldens["propagate"], inputs))]
    if workload == "matrix-lab":
        gold = goldens["matrix_lab"]
        return [
            (partition_key(ideal["partition"]), _ideal_job(gold, ideal))
            for ideal in inputs["ideals"]
        ]
    raise ValueError(f"unknown workload {workload!r}")
