"""Stringy Hodge numbers of (A tensor Lambda)/W for a finite lattice action.

The engine follows the twisted-sector definition directly: for each conjugacy
class {g} it decomposes the fixed locus of g into components indexed by the
torsion of coker(g - 1) on Lambda (four independent copies, one per real
dimension of the surface), lets the centralizer permute the components, and
computes invariant Hodge numbers of each component orbit by Molien averaging
over the orbit stabilizer.  By Burnside the orbit sum is an average over
C(g) weighted by the number of labels each element fixes.

A sector is integer work on the stacked centralizer: one Smith form of g - 1
and one stacked product v^-1 h v that gives both the label action and the
restriction to ker(g - 1), each bound-checked on the class's own entries.
Whole classes run in batches of at most _SECTOR_ROWS rows, and a batch
takes one batched Faddeev-LeVerrier for det(I + t rho) per kernel rank and
one label action of the distinct label blocks per torsion type, all in
numpy int64 with a bound check before every product and an exactness check
on every division.  Each sector's weighted rows are summed in one int64
product; the division by |C(g)| must come out exact on every entry.  A
central sector (C(g) = W) runs over the class representatives of W
instead, each weighted by its class size, since there each h enters only
through its class.

Two independent shortcuts, the hyperoctahedral closed form and the
commuting-pairs Euler number, serve as oracles for the engine.  The Euler
oracle shares nothing with the sector code: it stacks (g - 1; h - 1) over
the pairs (g, h in C(g)) of the action, and over (g, class representative)
for central g, class after class, and reads each pair's fixed-point count
off a batched integer row echelon form, as the index of its row lattice.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import prod

import numpy as np

from .hodgepoly import (
    BigradedPoly,
    goettsche,
    kummer_k3,
    kummer_singular,
    partitions,
    sym_power,
)
from .intlinalg import (
    EntryBoundError,
    check_product,
    det_i_plus_t_stack,
    echelon_pivots_stack,
    freeze,
    max_abs,
    require_int,
    smith_normal_form,
)
from .rootdata import WeylGroup, build_root_datum, enumerate_group

DEFAULT_ENGINE_CAP = 10**5
# commuting pairs echelonized per batch; a batch runs on across classes
# (the sectors batch whole classes instead, _SECTOR_ROWS), so an action
# takes ceil(pairs / _PAIR_CHUNK) echelons, |C(g)| pairs per class or k(W)
# for a central g.  The echelon keeps about three copies of its batch; at
# 256 pairs they stay below the conjugacy-class arrays of W(A_5) and W(B_4)
_PAIR_CHUNK = 256
# rows per sector batch of whole classes (|C(g)| rows, or k(W) if g is
# central); a larger class runs alone.  A batch keeps its (rows, r, r)
# products: W(B_6)'s engine peaks at 7.1 MB traced at 1024 rows, as with
# one class at a time, and at 16.5 MB (max RSS +8.6) with all in one batch
_SECTOR_ROWS = 1024
# verify_sp_theorem refuses n above this: the split-partition closed form
# takes about 0.8 s at n = 16 and 5 s at n = 20
MAX_VERIFY_SP_N = 16


class LatticeAction:
    """A finite group of unimodular integer matrices acting on Z^rank."""

    def __init__(self, group):
        if not isinstance(group, WeylGroup):
            raise ValueError("group must be a WeylGroup (use from_* builders)")
        self.group = group
        self.rank = group.stack.shape[1]

    @classmethod
    def from_generators(cls, generators, order_cap=DEFAULT_ENGINE_CAP):
        return cls(enumerate_group(generators, order_cap=order_cap))

    @classmethod
    def from_root_datum(cls, datum, order_cap=DEFAULT_ENGINE_CAP):
        return cls(enumerate_group(datum, order_cap=order_cap))


def wreath_bn_action(n, order_cap=DEFAULT_ENGINE_CAP):
    """W(C_n) on the C_n coroot lattice Z^n: the hyperoctahedral group in
    the basis of simple coroots, or W(A_1) for n = 1 (Sp(1) = SU(2))."""
    require_int("n", n)
    if n < 1:
        raise ValueError("n must be at least 1")
    datum = build_root_datum("C" if n > 1 else "A", n)
    return LatticeAction.from_root_datum(datum, order_cap)


def su_action(n, order_cap=DEFAULT_ENGINE_CAP):
    """S_n on the A_{n-1} coroot lattice (rank n-1)."""
    require_int("n", n)
    return LatticeAction.from_root_datum(
        build_root_datum("A", n - 1), order_cap
    )


@dataclass(frozen=True)
class FixedLocusData:
    g: tuple
    kernel_rank: int
    kernel_basis: tuple  # kernel_rank primitive vectors spanning ker(g-1)
    component_group: tuple  # invariant factors > 1 of coker(g-1) on Lambda
    shift: int  # Fermion shift F^g = rank - kernel_rank


def fixed_locus(action, g):
    """Structure of the fixed locus of g on A tensor Lambda."""
    g = freeze(g)
    if g not in action.group:
        raise ValueError("g is not an element of the group")
    r = action.rank
    diag, v, _ = _smith_of_g_minus_one(g)
    kernel_idx = [i for i, x in enumerate(diag) if x == 0]
    basis = tuple(
        tuple(v[row][i] for row in range(r)) for i in kernel_idx
    )
    torsion = tuple(x for x in diag if x > 1)
    k = len(kernel_idx)
    return FixedLocusData(
        g=g,
        kernel_rank=k,
        kernel_basis=basis,
        component_group=torsion,
        shift=r - k,
    )


def _smith_of_g_minus_one(g):
    """The diagonal of D, v and v^-1 of one Smith form u (g - 1) v = D."""
    r = len(g)
    d, _, v, v_inv = smith_normal_form(
        (np.asarray(g, dtype=np.int64) - np.eye(r, dtype=np.int64)).tolist()
    )
    return [d[i][i] for i in range(r)], v, v_inv


def _labels(tors):
    """Every component label of T = prod Z/d_i, as a (|T|, t) int64 array."""
    labels = itertools.product(*(range(d) for d in tors.tolist()))
    return np.array(list(labels), dtype=np.int64).reshape(prod(tors), len(tors))


def _label_images(labels, tors, block):
    """Images of the (|T|, t) labels under tau -> block tau mod d, for one
    (t, t) block or each block of an (m, t, t) stack."""
    check_product(len(tors), max_abs(labels), max_abs(block))
    images = labels @ block.swapaxes(-1, -2)
    images %= tors
    return images


def _det_squares(rho):
    """Coefficients of det(I + t rho)^2 for each matrix of an (n, k, k) stack."""
    c = det_i_plus_t_stack(rho)
    k = c.shape[1] - 1
    check_product(k + 1, max_abs(c), max_abs(c))
    sq = np.zeros((len(c), 2 * k + 1), dtype=np.int64)
    for a in range(k + 1):
        sq[:, a:a + k + 1] += c[:, a, None] * c
    return sq


def _outer_sum(squares, weights):
    """sum_i weights[i] sq_i^T sq_i over the rows sq_i of an (m, L) int64
    array, as one (L, L) int64 product, bound-checked first; the weights are
    exact ints, in a list or an int64 or object array."""
    weights, top = np.asarray(weights), max_abs(squares)
    check_product(len(squares), int(weights.max()) * top, top)
    return squares.T @ (weights.astype(np.int64)[:, None] * squares)


def stringy_hodge(action):
    """Stringy Hodge polynomial of (A tensor Lambda)/W by the definition.

    Per twisted sector {g} the invariant cohomology of X^g/C(g) is summed
    over centralizer orbits of components; since the character of h on a
    component depends only on its linear part on the kernel sublattice, the
    orbit sum collapses (Burnside) to an average over C(g) weighted by the
    number of component labels h fixes.  Sectors run in batches of whole
    classes (_sectors): the fixed labels of the distinct label blocks of a
    torsion type are counted in one stacked product, det(I + t rho)^2 is
    taken once per kernel rank, and each sector is summed in one product.
    Central sectors run over the classes of W.  The action's builder caps W.
    """
    # total[p, q] in Python ints; p, q <= 2 rank
    total = np.zeros((2 * action.rank + 1,) * 2, dtype=object)
    for shift, sector in _sectors(action):
        end = shift + len(sector)
        total[shift:end, shift:end] += sector.astype(object)
    total = BigradedPoly(dict(np.ndenumerate(total)))
    if not total.is_hodge_symmetric():
        raise AssertionError("stringy Hodge output is not (p,q)-symmetric")
    if not total.is_centrally_symmetric(action.rank):
        raise AssertionError("stringy Hodge output is not centrally symmetric")
    return total


def _sectors(action):
    """(shift, int64 block) of each class {g}, in class order; block[p, q]
    adds to h^{p + shift, q + shift}.  For central g, W acts on ker(g - 1)
    and on coker(g - 1), so the row of h depends only on its class: the rows
    are the class representatives, weighted by class size, and the sum is
    still divided by |C(g)| = |W|.  Classes run in batches (_SECTOR_ROWS)."""
    classes = action.group.conjugacy_classes()
    reps = np.array([rep for rep, _, _ in classes])
    sizes = np.array([size for _, size, _ in classes], dtype=object)
    batch = []
    for rep, size, centralizer in classes:
        hs, mult = (reps, sizes) if size == 1 else (centralizer, 1)
        if batch and sum(len(b[1]) for b in batch) + len(hs) > _SECTOR_ROWS:
            yield from _sector_batch(batch)
            batch = []
        batch.append((rep, hs, mult, len(centralizer)))
    yield from _sector_batch(batch)


def _sector_batch(batch):
    """(shift, block) of each (g, rows h, row weights, |C(g)|) of a batch.

    Per class: one Smith form u (g - 1) v = D, whose diagonal must run ones,
    torsion, zeros, and W = v^-1 h v, bound-checked on the class's own
    entries, so a refusal names g whatever its batch.  Per kernel rank: one
    kernel check and det(I + t rho)^2, rho = W on ker(g - 1).  Per torsion
    type T = prod Z/d_i: the labels each distinct block of W fixes, entry
    (i2, i1) scaled by d_i2 / d_i1, mod d_i2.  Per class: its det^2 rows
    weighted by (fixed labels)^4, summed and divided exactly by |C(g)|."""
    def per_class(rows, cs):  # the rows of the classes cs, stacked in order
        return zip(cs, np.split(rows, np.cumsum([len(ws[c]) for c in cs[:-1]])))
    r, ws, cut, ranks, kinds = len(batch[0][0]), [], [], {}, {}
    for c, (rep, hs, _, _) in enumerate(batch):
        diag, v, v_inv = _smith_of_g_minus_one(rep)
        a, s = diag.count(1), r - diag.count(0)
        if diag[:a] != [1] * a or diag[s:] != [0] * (r - s):
            raise AssertionError(f"Smith diagonal {diag} is not ones, torsion, zeros")
        v, v_inv = np.array(v, dtype=np.int64), np.array(v_inv, dtype=np.int64)
        try:
            check_product(r, max_abs(v_inv), max_abs(hs))
            w = v_inv @ hs
            check_product(r, max_abs(w), max_abs(v))
        except EntryBoundError as err:
            raise EntryBoundError(f"sector of {rep.tolist()}: {err}") from None
        ws.append(w := w @ v)
        cut.append(slice(a, s))
        ranks.setdefault(s, []).append(c)
        kinds.setdefault(tuple(diag[a:s]), []).append(c)
    squares, fixed = {}, {c: np.ones(len(w), np.int64) for c, w in enumerate(ws)}
    kinds.pop((), None)
    for s, cs in ranks.items():
        # h K = K rho holds exactly when W vanishes on the non-kernel rows of
        # the kernel columns, since v W = h v and v is invertible
        if any(np.any(ws[c][:, :s, s:]) for c in cs):
            raise AssertionError("centralizer element does not preserve kernel")
        rho = np.concatenate([ws[c][:, s:, s:] for c in cs])
        squares.update(per_class(_det_squares(rho), cs))
    for x, cs in kinds.items():
        d = np.array(x, dtype=np.int64)
        # column i1 read mod d_i1 first, which keeps d_i2 times it small
        scaled = np.concatenate([ws[c][:, cut[c], cut[c]] for c in cs]) % d * d[:, None]
        if np.any(scaled % d):
            raise AssertionError("component label action not integral")
        blocks = scaled // d % d[:, None]
        # each block as one void key of its entries in the narrowest dtype
        keys = blocks.astype(np.min_scalar_type(max(x) - 1)).reshape(len(blocks), -1)
        keys = keys.view(f"V{keys.strides[0]}").ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        labels = _labels(d)
        check_product(1, len(labels) ** 2, len(labels) ** 2)  # (fixed labels)^4
        images = _label_images(labels, d, blocks[first])
        fixed.update(per_class((images == labels).all(axis=2).sum(axis=1)[inverse], cs))
    for c, (rep, _, mult, n) in enumerate(batch):
        sector = _outer_sum(squares[c], fixed[c] ** 4 * mult)
        if np.any(sector % n):
            raise AssertionError(f"sector of {rep.tolist()} is not integral")
        yield cut[c].stop, sector // n


def stringy_euler_commuting_pairs(action):
    """Stringy Euler number as the normalized sum over commuting pairs.

    A commuting pair (g, h) contributes the point count of the common fixed
    locus of g and h on A tensor Lambda when that locus is finite, and zero
    otherwise.  On (R/Z)^r the locus is the kernel of the 2r x r integer
    matrix M_h = (g - 1; h - 1): it is finite exactly when M_h has rank r,
    and then has [Z^r : row lattice of M_h] points, the product of the
    |pivots| of a row-echelon form; the four real copies raise that to the
    fourth power.  The M_h are stacked class after class and echelonized
    _PAIR_CHUNK at a time, the pairs of equal index counted together.  For
    central g the row lattice of (g - 1; w h w^-1 - 1) is that of M_h times
    w^-1, so h runs over the class representatives of W.  With the weights
    of _pair_stacks the sum is |W| times the answer.
    """
    classes = action.group.conjugacy_classes()
    total = 0
    for weight, stack in _pair_stacks(classes, action.rank):
        # weights summed per index = prod |pivots|, in Python ints; a zero
        # pivot means an infinite fixed locus, and an index of 0
        summed = Counter()
        for k, pivots in zip(weight.tolist(), echelon_pivots_stack(stack).tolist()):
            summed[abs(prod(pivots))] += k
        total += sum(k * i**4 for i, k in summed.items())
    if total % action.group.order:
        raise AssertionError("commuting-pairs Euler number is not integral")
    return total // action.group.order


def _pair_stacks(classes, r):
    """(weight, M_h = (g - 1; h - 1)) of the pairs (g, h in C(g)) weighted
    by |{g}|, or for central g (g, class representative h) weighted by
    |{h}|; class after class, _PAIR_CHUNK pairs at a time, a chunk may span
    classes.  The arrays are reused: use each up before the next."""
    eye = np.eye(r, dtype=np.int64)
    reps = np.array([rep for rep, _, _ in classes])
    sizes = np.array([size for _, size, _ in classes], dtype=np.int64)
    pairs = [(reps, sizes) if s == 1 else (c, np.full(len(c), s)) for _, s, c in classes]
    size = min(_PAIR_CHUNK, sum(len(hs) for hs, _ in pairs))
    weight, fill = np.empty(size, dtype=np.int64), 0
    stack = np.empty((size, 2 * r, r), dtype=np.int64)
    for (rep, _, _), (hs, ws) in zip(classes, pairs):
        while len(hs):
            k = min(len(hs), size - fill)
            weight[fill:fill + k] = ws[:k]
            stack[fill:fill + k, :r] = rep - eye
            stack[fill:fill + k, r:] = hs[:k] - eye
            hs, ws, fill = hs[k:], ws[k:], fill + k
            if fill == size:
                yield weight, stack
                fill = 0
    if fill:
        yield weight[:fill], stack[:fill]


def _split_partitions(n):
    """Pairs of partitions (alpha_plus, alpha_minus), as multiplicity tuples,
    with sizes summing to n."""
    for m in range(n + 1):
        for plus in partitions(m):
            for minus in partitions(n - m):
                yield plus, minus


def stringy_hodge_wreath_closed_form(n):
    """Hyperoctahedral closed form for the Sp(n) moduli space.

    Conjugacy classes of the wreath group are labeled by splittings
    (alpha_plus, alpha_minus); a positive i-cycle contributes a Kummer
    factor with shift i - 1 and a negative i-cycle sixteen points with
    shift i, giving the total shift n - |alpha_plus|.
    """
    require_int("n", n)
    if n < 1:
        raise ValueError("n must be at least 1")
    # a cycle multiplicity is at most n, so Sym^1..Sym^n of each factor is
    # every symmetric power the sum uses; index 0 is never read
    hk, sixteen = kummer_singular(), BigradedPoly.constant(16)
    sym_hk = [None] + [sym_power(hk, a) for a in range(1, n + 1)]
    sym_16 = [None] + [sym_power(sixteen, a) for a in range(1, n + 1)]
    total = {}
    for plus, minus in _split_partitions(n):
        term = BigradedPoly.monomial(n - sum(plus), n - sum(plus))
        for a in plus:
            if a:
                term = term * sym_hk[a]
        for a in minus:
            if a:
                term = term * sym_16[a]
        for key, val in term.coeffs.items():
            total[key] = total.get(key, 0) + val
    return BigradedPoly(total)


@dataclass(frozen=True)
class VerificationReport:
    label: str
    n: int
    verdict: bool
    polynomials: dict
    notes: tuple = ()

    def to_dict(self):
        return {
            "label": self.label,
            "n": self.n,
            "verdict": "pass" if self.verdict else "fail",
            "polynomials": {
                k: v.to_json_rows() if isinstance(v, BigradedPoly) else v
                for k, v in self.polynomials.items()
            },
            "notes": list(self.notes),
        }


def verify_sp_theorem(n, engine=None, order_cap=DEFAULT_ENGINE_CAP):
    """Three-way check of the Sp(n) stringy Hodge polynomial.

    Compares the wreath closed form against goettsche(h(X), n), and, when
    engine is not disabled (default: run it for n <= 5), against the full
    twisted-sector engine on W(C_n), built from its Dynkin diagram, on its
    coroot lattice Z^n (wreath_bn_action).  n above MAX_VERIFY_SP_N, or n
    that is not an int or is a bool, raises ValueError before any work.
    """
    require_int("n", n)
    if n > MAX_VERIFY_SP_N:
        raise ValueError(f"n = {n} is above the Sp(n) check's bound {MAX_VERIFY_SP_N}")
    closed = stringy_hodge_wreath_closed_form(n)
    hilb = goettsche(kummer_k3(), n)
    polys = {"closed_form": closed, "goettsche": hilb}
    notes = []
    ok = closed == hilb
    if not ok:
        notes.append("closed form disagrees with the Hilbert-scheme formula")
    run_engine = engine if engine is not None else n <= 5
    if run_engine:
        eng = stringy_hodge(wreath_bn_action(n, order_cap))
        polys["engine"] = eng
        if eng != closed:
            ok = False
            notes.append("engine disagrees with the closed form")
    return VerificationReport(
        label="sp", n=n, verdict=ok, polynomials=polys, notes=tuple(notes)
    )


def verify_su_case(n, order_cap=DEFAULT_ENGINE_CAP):
    """Stringy Hodge numbers of the SU(n) moduli space, with cross-checks.

    For n = 2 the answer is the Kummer K3 polynomial; for every n the Euler
    specialization must match the commuting-pairs Euler number.
    """
    require_int("n", n)
    if n < 2:
        raise ValueError("n must be at least 2")
    action = su_action(n, order_cap)
    poly = stringy_hodge(action)
    euler = stringy_euler_commuting_pairs(action)
    polys = {"stringy": poly, "euler": euler}
    notes = []
    ok = poly.specialize(-1, -1) == euler
    if not ok:
        notes.append("Euler specialization disagrees with commuting pairs")
    if n == 2:
        if poly != kummer_k3():
            ok = False
            notes.append("n = 2 output is not the Kummer K3 polynomial")
    return VerificationReport(
        label="su", n=n, verdict=ok, polynomials=polys, notes=tuple(notes)
    )
