"""Torsion points of A tensor Lambda and their Weyl stabilizers.

Points are stored intrinsically in the simple-coroot basis of Lambda as
tuples of (Q/Z)^4 entries with a common denominator.  A stabilizer is not
searched for in W but in a small reflection subgroup H that contains it.
For G simply connected, Lambda is the coroot lattice and the stabilizer of
one coordinate x_t in t/Lambda is the reflection group W(Phi_t) of the roots
with alpha(x_t) in Z (Steinberg, Torsion in reductive groups, 1975).
Stab(p) lies in W(Phi_t), so H is W(Phi_t) for the column t with the fewest
such roots; its order comes from root heights, and the W-orbit size is
|W| / |Stab(p)|, reported but never walked.  When the generators are not the
simple reflections of a root system whose coroots span the lattice, H is W
itself, whose stack a WeylGroup already holds.  The order cap bounds W(Phi_t).

RootTable.subgroup owns W(Phi_t): it finds the simple rows, refuses an
order above the cap, enumerates H into one int64 stack and keeps it, within
the cap, in one memo keyed by the integrality mask of Phi_t.  So the 560
minus-one points of D_4, which give 3 masks, find simple rows 3 times and
enumerate 3 groups.  Stab(p) is the rows g of that stack with g p = p
modulo the denominator, found in one batched product; its generators are
taken greedily from those rows in stack order, each one outside the group
the earlier ones generate, which is closed by permutations of those rows.
Every int64 product is preceded by an entry-bound check that raises
intlinalg.EntryBoundError.

The 2-torsion scan acts on bit codes of points.  The action is F_2-linear,
so each generator's move on all 2^(4r) codes is built by doubling over the
basis bits, one XOR pass per bit, in the narrowest unsigned code type.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import itemgetter

import numpy as np

from .intlinalg import (
    check_product,
    det,
    freeze,
    mat_mul,
    max_abs,
    rational_nullspace,
    require_int,
)
from .rootdata import (
    DiagramEmbedding,
    RootDatum,
    WeylGroup,
    _keys,
    least_orbit_labels,
)


DEFAULT_TORSION_CAP = 10**6
PROPAGATE_ATTEMPTS = 40


class PerturbationNotFoundError(ValueError):
    """Raised when propagate draws no perturbation that keeps the stabilizer."""


@dataclass(frozen=True)
class TorsionPoint:
    """A finite-order point of A tensor Lambda in simple-coroot coordinates.

    coords[i] is the (Q/Z)^4 entry over the i-th simple coroot, stored as
    four integers modulo den.
    """

    den: int
    coords: tuple

    def __post_init__(self):
        # type(x) is int refuses bools, floats, Fractions and numpy integers;
        # the entries are read in C-level passes: lengths, types, min and max
        den = self.den
        if type(den) is not int or den < 1:
            raise ValueError(f"denominator must be a positive int, not {den!r}")
        try:
            rows = tuple(self.coords)
            flat = list(chain.from_iterable(rows))
            lengths = set(map(len, rows))
        except TypeError:  # coords or one of its rows is no sequence
            lengths = None
        if (
            lengths is None
            or not lengths <= {4}
            or not set(map(type, flat)) <= {int}
            or flat and not 0 <= min(flat) <= max(flat) < den
        ):
            raise ValueError("coordinates must be 4-vectors of ints mod den")

    @property
    def rank(self):
        return len(self.coords)

    @classmethod
    def zero(cls, rank):
        if type(rank) is not int or rank < 0:
            raise ValueError(f"rank must be an int >= 0, not {rank!r}")
        return cls(1, tuple((0, 0, 0, 0) for _ in range(rank)))

    @classmethod
    def from_fractions(cls, rows):
        """The reduced point of these entries mod 1, each an int or a Fraction."""
        def exact(x):  # a float would be read by its binary value
            if type(x) not in (int, Fraction):
                raise ValueError(f"entry {x!r} is not an int or a Fraction")
            return Fraction(x) % 1
        try:
            fracs = [[exact(x) for x in row] for row in rows]
        except TypeError:  # rows or one of them is no sequence
            raise ValueError(f"rows must be sequences, not {rows!r}") from None
        den = lcm(*(f.denominator for row in fracs for f in row), 1)
        coords = tuple(tuple(int(f * den) for f in row) for row in fracs)
        return cls(den, coords).reduced()

    def as_fractions(self):
        return [[Fraction(x, self.den) for x in row] for row in self.coords]

    def reduced(self):
        """Canonical form with the smallest common denominator."""
        g = self.den
        for row in self.coords:
            for x in row:
                g = gcd(g, x)
        if g <= 1:
            return self
        return TorsionPoint(
            self.den // g,
            tuple(tuple(x // g for x in row) for row in self.coords),
        )

    def apply(self, g):
        """Image under an integer matrix acting on the coroot coordinates."""
        if len(g) != self.rank or any(len(row) != self.rank for row in g):
            raise ValueError(
                f"a matrix with rows of lengths {[len(row) for row in g]} "
                f"cannot act on a point of rank {self.rank}"
            )
        image = mat_mul(g, self.coords)
        return TorsionPoint(
            self.den, tuple(tuple(x % self.den for x in row) for row in image)
        )

    def to_json(self):
        return [[f"{Fraction(x, self.den)}" for x in row] for row in self.coords]


def _group_parts(action):
    """(generators, |W|, root table or None) of a WeylGroup, a LatticeAction
    or a RootDatum, each of which keeps its root table.

    Any other source, a bare generator list among them, raises ValueError,
    and so does a RootDatum whose generators give no root table.
    """
    group = getattr(action, "group", action)
    if isinstance(group, WeylGroup):
        return group.generators, group.order, group.roots
    if isinstance(group, RootDatum) and group.roots is not None:
        return list(group.weyl_generators), group.expected_order(), group.roots
    raise ValueError(
        "the group must be a WeylGroup, a LatticeAction or a RootDatum "
        f"with a root table, not {type(action).__name__}"
    )


@dataclass(frozen=True)
class StabilizerReport:
    generators: tuple
    order: int
    orbit_size: int
    action_classification: str  # trivial | minus_one_local_model | other
    local_model_label: str


def _point_subgroup(table, den, coords, order_cap):
    """A reflection subgroup H of W containing Stab(p): W(Phi_t) (Steinberg).

    t is the column with the fewest positive roots in Phi_t = {alpha :
    alpha(x_t) in Z}, the lowest t on ties.  The mask of Phi_t over the
    table's rows, a tuple of bools, keys the table's memo, and
    RootTable.subgroup gives H, or refuses it above order_cap.  The point is
    given by its denominator and its (rank, 4) int64 coords.
    """
    check_product(len(coords), table.form_bound, den - 1)
    integral = table.forms @ coords % den == 0
    t = int(np.argmin(integral.sum(axis=0)))
    return table.subgroup(tuple(integral[:, t].tolist()), order_cap)


def stabilizer(action, point, order_cap=DEFAULT_TORSION_CAP):
    """Exact W-stabilizer of a torsion point, by the elements of H that fix it.

    When the generators are the simple reflections of a root system whose
    coroots span the lattice (rootdata.root_table), H is the reflection
    subgroup W(Phi_t) that _point_subgroup picks, which contains Stab(p);
    |H| comes from root heights, and the table keeps H under the integrality
    mask of Phi_t.  Otherwise H is W itself, the stack of the WeylGroup
    given.  Stab(p), of orbit size |W| / |Stab(p)|, is the rows of H's stack
    that fix p; its greedy generators are closed inside them, and {1, g} is
    the +-1 model when its rows sum to 0.  order_cap bounds W(Phi_t) (and
    what the table keeps): GroupOrderCapError before any enumeration.  A
    source that is not a WeylGroup, a LatticeAction or a RootDatum, or a
    point that is not a TorsionPoint of the group's rank, raises ValueError.
    """
    if not isinstance(point, TorsionPoint):
        raise ValueError(f"{point!r} is not a TorsionPoint")
    generators, order, table = _group_parts(action)
    rank = len(generators[0])
    if point.rank != rank:
        raise ValueError(f"point of rank {point.rank} for a group of rank {rank}")
    point = point.reduced()
    den, coords = point.den, np.array(point.coords, dtype=np.int64)
    if table is not None:
        if order != table.order:
            raise AssertionError("root heights disagree with the group order")
        sub = _point_subgroup(table, den, coords, order_cap)
    else:
        sub = getattr(action, "group", action)  # a WeylGroup, by _group_parts
    stack, bound = sub.stack, sub.bound
    check_product(rank, bound, den - 1)
    elements = stack[(stack @ coords % den == coords).all(axis=(1, 2))]
    stab_order = len(elements)
    # generators in stack order, each one outside the group the earlier ones
    # generate; each permutes the fixed rows by one product looked up among
    # them, and the group is the orbit of the identity, the first row: the
    # old members under the new generator, then each new member under every
    # generator, in Python lists, which beat numpy calls on groups of order 2
    check_product(rank, bound, bound)
    index = dict(zip(_keys(elements), range(stab_order)))
    inside = [True] + [False] * (stab_order - 1)
    found, moves = [], []
    while False in inside:
        found.append(elements[inside.index(False)])
        try:
            moves.append([index[k] for k in _keys(elements @ found[-1])])
        except KeyError:
            raise AssertionError("the fixed rows are not a group") from None
        frontier, pulled = [i for i in range(stab_order) if inside[i]], moves[-1:]
        while frontier:
            fresh = []
            for move in pulled:
                for j in map(move.__getitem__, frontier):
                    if not inside[j]:
                        inside[j] = True
                        fresh.append(j)
            frontier, pulled = fresh, moves
    if order % stab_order != 0:
        raise AssertionError("stabilizer order does not divide |W|")
    if stab_order == 1:
        cls = "trivial"
        label = "smooth point"
    elif stab_order == 2 and not elements.sum(axis=0).any():
        cls = "minus_one_local_model"
        label = f"C^{2 * rank}/+-1"
    else:
        cls = "other"
        label = f"subgroup of order {stab_order}"
    return StabilizerReport(
        generators=tuple(freeze(g.tolist()) for g in found),
        order=stab_order,
        orbit_size=order // stab_order,
        action_classification=cls,
        local_model_label=label,
    )


def _two_torsion_moves(generators, rank):
    """Each generator's action on the codes of all 2-torsion points.

    A point is encoded as a 4*rank-bit integer whose j-th nibble is the mod-2
    coordinate 4-vector over the j-th simple coroot, so bit 4j + t goes to
    bit 4k + t for every k with g[k][j] odd.  The action is F_2-linear: the
    image of a code is the XOR of the images of its bits, so the move is
    built by doubling over the basis bits b, image[2^b:2^(b+1)] =
    image[:2^b] ^ image(e_b), in place.  The narrowest unsigned type
    holding every code keeps the arrays small.  A generator of even
    determinant raises ValueError.
    """
    n = 1 << (4 * rank)
    dtype = np.min_scalar_type(n - 1)
    moves = []
    for g in generators:
        if det(g) % 2 == 0:
            raise ValueError("generator is not invertible modulo 2")
        image = np.zeros(n, dtype=dtype)
        for b in range(4 * rank):
            j, t = divmod(b, 4)
            bit = sum(1 << (4 * k + t) for k in range(rank) if g[k][j] % 2)
            half = 1 << b
            np.bitwise_xor(image[:half], bit, out=image[half:2 * half])
        moves.append(image)
    return moves


def _two_torsion_orbit_reps(generators, rank):
    """Orbit partition of all 2-torsion points, vectorized over bit codes.

    The moves of _two_torsion_moves permute the codes, so pulling labels
    along the generators alone (least_orbit_labels) leaves each orbit
    labelled by its least code.  Returns [(least_code, orbit_size)] in
    ascending code order.
    """
    moves = _two_torsion_moves(generators, rank)
    codes = np.arange(1 << (4 * rank), dtype=moves[0].dtype)
    reps, counts = np.unique(least_orbit_labels(moves, codes), return_counts=True)
    return list(zip(reps.tolist(), counts.tolist()))


# the 4-vector of the bits of each nibble, lowest bit first
_NIBBLES = tuple(tuple((x >> t) & 1 for t in range(4)) for x in range(16))


def _points_of_codes(codes, rank):
    """The points of nonzero codes, reduced already: some entry is 1 mod 2.

    Nibble j of a code is the row over the j-th simple coroot, one of the 16
    shared _NIBBLES: 4-vectors of ints mod 2, as TorsionPoint checks, so
    each point is built without that check.
    """
    nibbles = np.array(codes, dtype=np.int64)[:, None] >> 4 * np.arange(rank) & 15
    points = [object.__new__(TorsionPoint) for _ in codes]
    for p, row in zip(points, nibbles.tolist()):
        # as the __init__ of a frozen dataclass sets its fields
        object.__setattr__(p, "den", 2)
        object.__setattr__(p, "coords", tuple(map(_NIBBLES.__getitem__, row)))
    return points


def find_minus_one_points(action, denominator_bound=2, order_cap=DEFAULT_TORSION_CAP):
    """Orbit representatives whose stabilizer is exactly {+-identity}.

    A stabilizer containing -1 forces 2p = 0, so every denominator bound >= 2
    scans the same 2-torsion points: the bound, kept for positional callers,
    selects nothing.  -1 fixes every 2-torsion point, and when -1 lies in W
    every stabilizer contains it, so a stabilizer is {+-1} exactly when its
    orbit has the largest possible size |W| / 2.  So the stabilizer of the
    least code among the largest orbits decides; its order times that
    orbit's size must be |W|, or AssertionError.
    Returns a list of TorsionPoint orbit representatives, each the orbit
    member with the least bit code, in ascending code order; [] unless that
    stabilizer is {+-1}.  A denominator bound or order_cap that is not an
    int, or is a bool, or 2^(4r) codes above order_cap, which bounds each
    W(Phi_t) searched too, raise ValueError.
    """
    require_int("denominator bound", denominator_bound)
    require_int("order cap", order_cap)
    if denominator_bound < 2:
        raise ValueError("denominator bound must be at least 2")
    generators, order, _ = _group_parts(action)
    rank = len(generators[0])
    if (1 << (4 * rank)) > order_cap:
        raise ValueError(f"2-torsion candidate set exceeds cap {order_cap}")
    reps = _two_torsion_orbit_reps(generators, rank)[1:]
    size = max(reps, key=itemgetter(1))[1]
    codes = [c for c, s in reps if s == size]
    report = stabilizer(action, _points_of_codes(codes[:1], rank)[0], order_cap=order_cap)
    if order != report.order * size:
        raise AssertionError("orbit-stabilizer count disagrees with the group order")
    minus_one = report.action_classification == "minus_one_local_model"
    return _points_of_codes(codes, rank) if minus_one else []


@dataclass(frozen=True)
class PropagationResult:
    point: TorsionPoint
    report: StabilizerReport
    sub_report: StabilizerReport
    attempts: int
    local_model_label: str


def propagate(
    embedding: DiagramEmbedding,
    p: TorsionPoint,
    fine_denominator=3,
    seed=0,
    order_cap=DEFAULT_TORSION_CAP,
):
    """Push a sub-lattice point into the ambient lattice keeping its stabilizer.

    The image of p is perturbed by a fine-torsion point q of the orthogonal
    complement N of the sub-lattice (with respect to the invariant form);
    genericity of q is replaced by a verification loop: draw q from a seeded
    generator and retry until the ambient stabilizer order matches the
    stabilizer of p; PerturbationNotFoundError when PROPAGATE_ATTEMPTS
    draws fail.  When f^(4 k_extra) = 1 (f = 1, or N = 0) every draw is
    q = 0, so that one candidate is the one attempt.  A fine denominator
    that is not an int, or is a bool, or an embedding that is not a
    DiagramEmbedding, raises ValueError.
    """
    if not isinstance(embedding, DiagramEmbedding):
        raise ValueError(f"embedding {embedding!r} is not a DiagramEmbedding")
    require_int("fine denominator", fine_denominator)
    sub, amb = embedding.sub, embedding.ambient
    f = fine_denominator
    if f < 1:
        raise ValueError(f"fine denominator must be at least 1, not {f}")
    if gcd(f, p.den) != 1:
        raise ValueError("fine denominator must be coprime to the point order")
    sub_report = stabilizer(sub, p, order_cap=order_cap)
    # the sub coroots are the ambient ones at the nodes, so the pairing of
    # the sub-lattice with the ambient one is the Gram rows at the nodes
    nodes = [x - 1 for x in embedding.node_map]
    gram = amb.gram()
    basis = rational_nullspace([gram[i] for i in nodes])
    k_extra = len(basis)
    # candidates live over den = p.den f: the image of p is p f at the
    # nodes, and a perturbation q = basis^T draws / f adds p.den q; one
    # bound covers both and their sum
    den = p.den * f
    basis = np.array(basis, dtype=np.int64).reshape(k_extra, amb.rank)
    check_product(1, p.den, (k_extra * max_abs(basis) + 1) * f)
    image = np.zeros((amb.rank, 4), dtype=np.int64)
    image[nodes] = np.array(p.coords, dtype=np.int64) * f
    rng = random.Random(seed)
    max_attempts = PROPAGATE_ATTEMPTS if f > 1 and k_extra else 1
    for attempt in range(1, max_attempts + 1):
        # draws in (basis vector, column) order
        draws = [[rng.randrange(f) for _ in range(4)] for _ in basis]
        q = basis.T @ np.array(draws, dtype=np.int64).reshape(k_extra, 4)
        coords = (image + p.den * q) % den
        cand = TorsionPoint(den, freeze(coords.tolist())).reduced()
        report = stabilizer(amb, cand, order_cap=order_cap)
        if report.order == sub_report.order:
            return PropagationResult(
                point=cand,
                report=report,
                sub_report=sub_report,
                attempts=attempt,
                local_model_label=f"(C^{2 * sub.rank}/W_p) x C^{2 * k_extra}",
            )
    raise PerturbationNotFoundError(
        f"no generic perturbation found in {max_attempts} attempts"
        if max_attempts > 1 else "no generic perturbation: q = 0 is the only candidate"
    )
