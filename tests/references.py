"""Slow, literal reference implementations that the tests compare against.

None of these runs in the library: each follows a definition verbatim so
that a test can check a batched or closed-form route against it.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np

from weylorb.hilbmatrix import (
    SkewSolutionSpace,
    _generator_terms,
    _generic_det,
    _quotient_data,
    make_pair,
)
from weylorb.hodgepoly import BigradedPoly, partitions
from weylorb.intlinalg import (
    INT64_MAX,
    check_product,
    det,
    freeze,
    identity,
    mat_mul,
    max_abs,
    rational_nullspace,
    rational_rank,
    smith_normal_form,
    transpose,
)
from weylorb.rootdata import (
    GroupOrderCapError,
    RootDatum,
    _keys,
    enumerate_group,
    least_orbit_labels,
    parse_type,
)
from weylorb.stringy import (
    _det_squares,
    _label_images,
    _labels,
    _smith_of_g_minus_one,
)
from weylorb.torsion import (
    StabilizerReport,
    TorsionPoint,
    _group_parts,
    _point_subgroup,
)


def clear_denominators(vec):
    """A rational vector scaled to the primitive integer vector with the
    same signs: times the lcm of its denominators, over the gcd of that."""
    den = lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = gcd(*ints)
    return [x // g for x in ints] if g else ints


def _add_outer(acc, sq, weight):
    """acc[(p, q)] += weight * sq[p] * sq[q], in Python ints."""
    for p, cp in enumerate(sq):
        if cp:
            for q, cq in enumerate(sq):
                if cq:
                    acc[(p, q)] = acc.get((p, q), 0) + weight * cp * cq


def rows_of(group, stack):
    """The row of group.stack holding each matrix of an int64 stack, looked
    up in the group's bytes index."""
    try:
        return np.array([group.index[key] for key in _keys(stack)], dtype=np.int64)
    except KeyError:
        raise AssertionError("a product lies outside the group") from None


def conjugacy_classes_by_products(group):
    """List of (representative, class_size, centralizer) on the stack.

    Conjugation by each generator s is one batched product s E s^-1 over
    the element stack E, s^-1 being the row of E where s E is the
    identity; its matrices are looked up in the group's index to give an
    index map of the elements.  Classes are the orbits of these maps,
    each labelled by its least index, so a representative (a row of the
    stack) is the first element of its class and classes come in that
    order.  Centralizers are int64 sub-stacks, from two-sided products.
    """

    def centralizer(g):
        gm = np.asarray(g, dtype=np.int64)
        check_product(len(gm), max_abs(arr), max_abs(gm))
        return arr[np.all(arr @ gm == gm @ arr, axis=(1, 2))]

    arr = group.stack
    n, r = arr.shape[:2]
    # s, s E and s^-1 are all elements: one bound covers every product
    check_product(r, bound := max_abs(arr), bound)
    moves = []
    for s in group.generators:
        left = np.array(s, dtype=np.int64) @ arr
        s_inv = arr[np.flatnonzero((left == np.eye(r)).all(axis=(1, 2)))[0]]
        moves.append(rows_of(group, left @ s_inv))
    labels = least_orbit_labels(moves, np.arange(n))
    reps = np.flatnonzero(labels == np.arange(n))
    sizes = np.bincount(labels)[reps]
    classes = []
    for i, size in zip(reps.tolist(), sizes.tolist()):
        rep = arr[i]
        cent = centralizer(rep)
        if len(cent) * size != group.order:
            raise AssertionError("orbit-stabilizer mismatch in classes")
        classes.append((rep, size, cent))
    if sum(size for _, size, _ in classes) != group.order:
        raise AssertionError("conjugacy classes do not partition the group")
    return classes


def _sector(g, centralizer):
    """Integer data of the twisted sector {g}, batched over C(g).

    g is an (r, r) int64 matrix and centralizer its (n, r, r) int64 stack.
    From one Smith form u (g - 1) v = D and W = v^-1 h v for all h in C(g)
    at once, returns (shift, tors, blocks, rho).  tors are the d_i > 1, so
    the component labels form T = prod Z/d_i; D runs ones, torsion, zeros
    (else AssertionError), so blocks are slices.  blocks[h] is the torsion block
    of W, entry (i2, i1) scaled by d_i2 / d_i1 and reduced mod d_i2, acting
    by tau -> blocks[h] tau mod d; rho[h] = L h K is h on the kernel
    lattice, K being the kernel columns of v and L the same rows of v^-1.
    """
    r = len(g)
    diag, v, v_inv = _smith_of_g_minus_one(g)
    a, k = diag.count(1), diag.count(0)
    s = r - k
    if diag[:a] != [1] * a or diag[s:] != [0] * k:
        raise AssertionError(f"Smith diagonal {diag} is not ones, torsion, zeros")
    v, v_inv = np.array(v, dtype=np.int64), np.array(v_inv, dtype=np.int64)
    check_product(r, max_abs(v_inv), max_abs(centralizer))
    w = v_inv @ centralizer
    check_product(r, max_abs(w), max_abs(v))
    w = w @ v
    # h K = K rho holds exactly when W vanishes on the non-kernel rows of
    # the kernel columns, since v W = h v and v is invertible
    if np.any(w[:, :s, s:]):
        raise AssertionError("centralizer element does not preserve kernel")
    tors = np.array(diag[a:s], dtype=np.int64)
    block = w[:, a:s, a:s]
    check_product(1, max_abs(block), max_abs(tors))
    scaled = block * tors[:, None]
    if np.any(scaled % tors):
        raise AssertionError("component label action not integral")
    return s, tors, scaled // tors % tors[:, None], w[:, s:, s:]


def _sector_sum(squares, weights):
    """sum_i weights[i] sq_i^T sq_i over the rows sq_i of an (m, L) int64
    array, as one (L, L) int64 product, bound-checked first."""
    check_product(len(squares), max(weights) * max_abs(squares), max_abs(squares))
    return squares.T @ (np.array(weights, dtype=np.int64)[:, None] * squares)


def molien_average(rho):
    """Average of det(I + t rho)^2 det(I + u rho)^2 over an (n, k, k) stack.

    Returns a BigradedPoly with Fraction coefficients; the caller checks
    integrality.
    """
    acc = {}
    for sq in _det_squares(rho).tolist():
        _add_outer(acc, sq, 1)
    return BigradedPoly({k: Fraction(v, len(rho)) for k, v in acc.items()})


def stringy_hodge_by_orbits(action):
    """The stringy Hodge polynomial with component orbits enumerated explicitly.

    Slower than stringy_hodge but follows the definition verbatim: orbits of
    components under the centralizer, each contributing the invariants of its
    stabilizer.
    """
    total = BigradedPoly.zero()
    xy = BigradedPoly.monomial(1, 1)
    for rep, _size, centralizer in action.group.conjugacy_classes():
        shift, tors, blocks, rho = _sector(rep, centralizer)
        labels = _labels(tors)
        keys = [tuple(x) for x in labels.tolist()]
        maps = [
            dict(zip(keys, map(tuple, _label_images(labels, tors, c).tolist())))
            for c in blocks
        ]
        unseen = set(itertools.product(keys, repeat=4))
        sector = BigradedPoly.zero()
        molien_cache = {}
        while unseen:
            start = next(iter(unseen))
            orbit = {start}
            frontier = [start]
            while frontier:
                nxt = []
                for lab in frontier:
                    for hmap in maps:
                        img = tuple(hmap[t] for t in lab)
                        if img not in orbit:
                            orbit.add(img)
                            nxt.append(img)
                frontier = nxt
            unseen -= orbit
            stab = tuple(
                i
                for i, hmap in enumerate(maps)
                if all(hmap[t] == t for t in start)
            )
            if stab not in molien_cache:
                molien_cache[stab] = molien_average(rho[list(stab)])
            sector = sector + molien_cache[stab]
        total = total + xy**shift * sector
    # a fractional coefficient would be a wrong answer, not a rounding error
    if any(Fraction(c).denominator != 1 for c in total.coeffs.values()):
        raise ValueError(f"non-integer coefficient in {total}")
    return BigradedPoly({k: int(c) for k, c in total.coeffs.items()})


def sectors_by_full_centralizers(action):
    """(shift, block) of each class, every sector run on its whole centralizer.

    The engine's loop before central sectors were summed over the classes
    of W: each distinct (label block, det^2) row of C(g) is counted with its
    multiplicity, and the sector divided by |C(g)|.
    """
    for rep, _size, centralizer in action.group.conjugacy_classes():
        shift, tors, blocks, rho = _sector(rep, centralizer)
        n, t = blocks.shape[:2]
        rows = np.concatenate([blocks.reshape(n, t * t), _det_squares(rho)], axis=1)
        labels = _labels(tors)
        width = rows.shape[1]
        distinct = Counter(rows.view(f"V{8 * width}").ravel().tolist())
        keys = np.frombuffer(b"".join(distinct), dtype=np.int64).reshape(-1, width)
        # every distinct label block mapped at once, and the det^2 rows
        # weighted by multiplicity times (fixed labels)^4 summed at once
        images = _label_images(labels, tors, keys[:, :t * t].reshape(len(keys), t, t))
        fixed = np.all(images == labels, axis=2).sum(axis=1).tolist()
        weights = [mult * f**4 for mult, f in zip(distinct.values(), fixed)]
        sector = _sector_sum(keys[:, t * t:], weights)
        if np.any(sector % n):
            raise AssertionError(f"sector of {rep.tolist()} is not integral")
        yield shift, sector // n


def sym_power_by_factors(h, l):
    """Sym^l of h as the coefficient of T^l in one factor series per (p, q):

    prod_{p+q even} (1 - x^p y^q T)^(-h^{p,q})
    * prod_{p+q odd} (1 + x^p y^q T)^(h^{p,q}),

    each factor expanded in full and multiplied into a fresh series.
    """
    if l < 0:
        raise ValueError("negative symmetric power")
    if any(c < 0 for c in h.coeffs.values()):
        raise ValueError("sym_power requires nonnegative coefficients")
    series = [BigradedPoly.one()] + [BigradedPoly.zero()] * l
    for (p, q), c in h.coeffs.items():
        mono = BigradedPoly.monomial(p, q)
        if (p + q) % 2 == 0:
            factor = [mono**j * comb(c - 1 + j, j) for j in range(l + 1)]
        else:
            factor = [mono**j * comb(c, j) for j in range(l + 1)]
        new = [BigradedPoly.zero() for _ in range(l + 1)]
        for a in range(l + 1):
            for b in range(l + 1 - a):
                new[a + b] = new[a + b] + series[a] * factor[b]
        series = new
    return series[l]


def goettsche_partition_sum(h, n):
    """Hodge polynomial of the Hilbert scheme of n points, as Goettsche's
    partition sum: over partitions alpha of n with multiplicities a_i,
    (xy)^(n - sum a_i) prod_i Sym^{a_i}(h), with Sym from the factor series.
    """
    syms = [sym_power_by_factors(h, a) for a in range(n + 1)]
    xy = BigradedPoly.monomial(1, 1)
    total = BigradedPoly.zero()
    for alpha in partitions(n):
        term = xy ** (n - sum(alpha))
        for a in alpha:
            term = term * syms[a]
        total = total + term
    return total


def unimodular_inverse(m):
    """Inverse of a square integer matrix with det +-1, returned over Z.

    It is read off the Smith form's two transforms, not off the column
    transform's inverse: u m v = d with u, v unimodular, and m is unimodular
    exactly when d is the identity, so then m^-1 = v u.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("unimodular_inverse needs a square matrix")
    d, u, v, _ = smith_normal_form(m)
    if d != identity(n):
        raise ValueError("matrix is not unimodular")
    return mat_mul(v, u)


def invariant_factors(m):
    """The nonzero diagonal entries of the Smith normal form of m."""
    d = smith_normal_form(m)[0]
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i] != 0]


def two_torsion_points(rank):
    """All points of A tensor Lambda killed by 2, in coroot coordinates."""
    entries = list(itertools.product((0, 1), repeat=4))
    for combo in itertools.product(entries, repeat=rank):
        yield TorsionPoint(2, combo).reduced()


def two_torsion_moves_by_nibbles(generators, rank):
    """Each generator's move on the 2-torsion codes, nibble by nibble.

    The j-th nibble of a code is the mod-2 4-vector over the j-th simple
    coroot, and nibble k of the image is the XOR of the nibbles j with
    g[k][j] odd, applied to every code at once as array shifts.  A generator
    of even determinant raises ValueError.
    """
    n = 1 << (4 * rank)
    idx = np.arange(n, dtype=np.min_scalar_type(n - 1))
    nibbles = [(idx >> (4 * j)) & 15 for j in range(rank)]
    moves = []
    for g in generators:
        if det(g) % 2 == 0:
            raise ValueError("generator is not invertible modulo 2")
        image = np.zeros_like(idx)
        for k in range(rank):
            ynib = np.zeros_like(idx)
            for j in range(rank):
                if g[k][j] % 2:
                    ynib ^= nibbles[j]
            image |= ynib << (4 * k)
        moves.append(image)
    return moves


def two_torsion_orbit_reps_by_nibbles(generators, rank):
    """[(least_code, orbit_size)] of the nibble moves, in ascending code order.

    Labels are pulled along every move until no label changes, with no
    pointer jumping: the moves generate a finite group, so forward moves
    reach every orbit.
    """
    moves = two_torsion_moves_by_nibbles(generators, rank)
    labels = np.arange(1 << (4 * rank))
    while True:
        pulled = labels
        for move in moves:
            pulled = np.minimum(pulled, pulled[move.astype(np.intp)])
        if np.array_equal(pulled, labels):
            break
        labels = pulled
    reps, counts = np.unique(labels, return_counts=True)
    return list(zip(reps.tolist(), counts.tolist()))


def torsion_point_refuses(den, coords):
    """Whether TorsionPoint(den, coords) is refused, entry by entry.

    type(x) is int refuses bools, floats, Fractions and numpy integers; coords
    must be iterable and every entry a 4-vector of ints in [0, den).
    """
    if type(den) is not int or den < 1 or not hasattr(coords, "__iter__"):
        return True
    return any(
        not hasattr(entry, "__len__")
        or len(entry) != 4
        or any(type(x) is not int or not 0 <= x < den for x in entry)
        for entry in coords
    )


def decode_two_torsion(code, rank):
    """The point of a nonzero code, built by the checking constructor:
    nibble j of the code, lowest bit first, is the row over coroot j."""
    nibbles = [tuple((code >> (4 * j + t)) & 1 for t in range(4)) for j in range(rank)]
    return TorsionPoint(2, tuple(nibbles))


def generated_elements(report, rank):
    """The group report.generators generate, as sorted nested tuples: the
    identity alone when there are no generators."""
    if not report.generators:
        return [freeze(identity(rank))]
    return sorted(freeze(g) for g in enumerate_group(report.generators).stack.tolist())


def stabilizer_by_index_closure(action, point, order_cap=10**6):
    """torsion.stabilizer with the greedy generators closed inside H.

    The same H and the same fixed rows; each generator is taken in stack
    order from the fixed rows outside the group so far, and that group is
    a boolean mask over the rows of H, grown breadth-first by products
    looked up in H's bytes index (rows_of): the old members times the new
    generator, then each new member times every generator.  Returns the
    report and, beside it, the fixed rows as sorted nested tuples.
    """
    generators, order, table = _group_parts(action)
    rank = len(generators[0])
    point = point.reduced()
    den, coords = point.den, np.array(point.coords, dtype=np.int64)
    if table is not None:
        sub = _point_subgroup(table, den, coords, order_cap)
    elif order > order_cap:
        raise GroupOrderCapError(f"order {order} exceeds the cap {order_cap}")
    else:
        sub = getattr(action, "group", action)
    stack, bound = sub.stack, sub.bound
    check_product(rank, bound, den - 1)
    fixed = (stack @ coords % den == coords).all(axis=(1, 2))
    check_product(rank, bound, bound)
    group = np.arange(sub.order) == 0
    found = []
    while (fixed & ~group).any():
        found.append(stack[np.argmax(fixed & ~group)])
        frontier, gens = np.flatnonzero(group), found[-1:]
        while len(frontier):
            rows = rows_of(sub, np.concatenate([stack[frontier] @ g for g in gens]))
            fresh = np.zeros_like(group)
            fresh[rows] = True
            frontier, gens = np.flatnonzero(fresh & ~group), found
            group |= fresh
    if not np.array_equal(group, fixed):
        raise AssertionError("the fixed rows are not a group")
    elements = stack[fixed]
    stab_order = len(elements)
    if stab_order == 1:
        cls, label = "trivial", "smooth point"
    elif stab_order == 2 and np.array_equal(
        elements[1], -np.eye(rank, dtype=np.int64)
    ):
        cls, label = "minus_one_local_model", f"C^{2 * rank}/+-1"
    else:
        cls, label = "other", f"subgroup of order {stab_order}"
    report = StabilizerReport(
        generators=tuple(freeze(g.tolist()) for g in found),
        order=stab_order,
        orbit_size=order // stab_order,
        action_classification=cls,
        local_model_label=label,
    )
    return report, sorted(freeze(g) for g in elements.tolist())


def _chain(count, width):
    """The vectors e_i - e_(i+1) of Z^width, for i < count."""
    return [
        [1 if k == i else (-1 if k == i + 1 else 0) for k in range(width)]
        for i in range(count)
    ]


def _simple_coroot_vectors(letter, rank):
    n = rank
    if letter == "A":
        # sum-zero realization in Z^(n+1)
        return _chain(n, n + 1)
    if letter == "B":
        return _chain(n - 1, n) + [[0] * (n - 1) + [2]]
    if letter == "C":
        return _chain(n - 1, n) + [[0] * (n - 1) + [1]]
    if letter == "D":
        return _chain(n - 1, n) + [[0] * (n - 2) + [1, 1]]
    if letter == "G":
        return [[1, -1, 0], [-2, 1, 1]]
    if letter == "F":
        return [
            [0, 1, -1, 0],
            [0, 0, 1, -1],
            [0, 0, 0, 2],
            [1, -1, -1, -1],
        ]
    return None  # E types: abstract realization


_E_EDGES = {
    6: [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)],
    7: [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)],
    8: [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)],
}


def _cartan_from_coroots(coroots):
    """cartan[i][j] = 2 (c_i, c_j) / (c_i, c_i), read off the Gram matrix."""
    gram = mat_mul(coroots, transpose(coroots))
    for i, row in enumerate(gram):
        if any(2 * x % row[i] for x in row):
            raise ValueError("coroot vectors give a non-integral pairing")
    return [[2 * x // row[i] for x in row] for i, row in enumerate(gram)]


def cartan_from_coroot_vectors(letter, rank):
    """The RootDatum of a simple type built from explicit simple-coroot
    vectors c_i in an ambient Z^m (A-D, F_4, G_2), cartan[i][j] =
    2 (c_i, c_j) / (c_i, c_i), or from the E_n edge list; the simple
    reflections s_i(e_j) = e_j - cartan[i][j] e_i act on the coroot basis.
    """
    letter, rank = parse_type(letter, rank)
    coroots = _simple_coroot_vectors(letter, rank)
    if coroots is None:
        coroots = identity(rank)
        cartan = [[2 * x for x in row] for row in coroots]
        for a, b in _E_EDGES[rank]:
            cartan[a - 1][b - 1] = cartan[b - 1][a - 1] = -1
    else:
        cartan = _cartan_from_coroots(coroots)
    gens = []
    for i in range(rank):
        # s_i(e_j) = e_j - cartan[i][j] e_i changes only row i of I
        g = identity(rank)
        g[i] = [x - c for x, c in zip(g[i], cartan[i])]
        gens.append(freeze(g))
    return RootDatum(
        dynkin_type=f"{letter}_{rank}",
        rank=rank,
        cartan=freeze(cartan),
        weyl_generators=tuple(gens),
    )


def positive_roots(cartan):
    """All roots of the system, in simple-root coordinates, via closure."""
    r = len(cartan)
    basis = [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]
    seen = set(basis)
    frontier = list(basis)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(r):
                pairing = sum(v[j] * cartan[j][i] for j in range(r))
                w = tuple(
                    v[k] - (pairing if k == i else 0) for k in range(r)
                )
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return [v for v in seen if all(x >= 0 for x in v)]


def perturbed_candidates(embedding, p, fine_denominator, seed, count):
    """The first count candidates of torsion.propagate, built in Fractions.

    Each is the image of p under the coroot map plus q = sum of b a_b / f
    over the basis vectors b of the orthogonal complement of the
    sub-lattice, one draw a_b per column, taken from random.Random(seed)
    basis vector first, then column, and reduced modulo 1.
    """
    sub, amb = embedding.sub, embedding.ambient
    # the coroot map: sub coroot j goes to ambient coroot node_map[j]
    cmap = [
        [int(embedding.node_map[j] == i + 1) for j in range(sub.rank)]
        for i in range(amb.rank)
    ]
    fracs = p.as_fractions()
    image = [
        [sum(cmap[k][j] * fracs[j][t] for j in range(sub.rank)) for t in range(4)]
        for k in range(amb.rank)
    ]
    pairing = mat_mul(transpose(cmap), [list(r) for r in amb.gram()])
    basis = rational_nullspace(pairing)
    rng = random.Random(seed)
    f = fine_denominator
    out = []
    for _ in range(count):
        rows = [list(row) for row in image]
        for b in basis:
            for t in range(4):
                a = rng.randrange(f)
                for i in range(amb.rank):
                    rows[i][t] += Fraction(a * b[i], f)
        out.append(TorsionPoint.from_fractions(rows))
    return out


def pair_from_ideal_two_systems(generators, truncation):
    """Multiplication matrices on C[x,y]/I from two eliminations, at N and N + 1.

    The colength is required to be the same at both; the basis of the
    quotient is the non-pivot monomials of the RREF at N, and a monomial of
    degree N dies in the truncated ring.  A pivot row of the echelon form,
    over its pivot, is the RREF row.  Generators must be strings and N a
    positive int.
    """
    terms = [_generator_terms(g, truncation) for g in generators]
    monomials, rows, pivots = _quotient_data(terms, truncation)
    monomials_next, _, pivots_next = _quotient_data(terms, truncation + 1)
    colength = len(monomials) - len(pivots)
    colength_next = len(monomials_next) - len(pivots_next)
    if colength != colength_next:
        raise ValueError(
            f"colength not stabilized: {colength} at degree {truncation} "
            f"but {colength_next} at degree {truncation + 1}; "
            "increase the truncation or check that the ideal has finite "
            "colength"
        )
    index = {m: i for i, m in enumerate(monomials)}
    pivot_rows = dict(zip(pivots, rows))
    basis = [i for i in range(len(monomials)) if i not in pivot_rows]
    mats = []
    for dx, dy in ((1, 0), (0, 1)):
        cols = []
        for i in basis:
            a, b = monomials[i]
            target = index.get((a + dx, b + dy))
            if target is None:
                cols.append([0] * len(basis))
            elif target in pivot_rows:
                row = pivot_rows[target]
                cols.append([Fraction(-row.get(k, 0), row[target]) for k in basis])
            else:
                cols.append([int(k == target) for k in basis])
        mats.append(transpose(cols))
    return make_pair(*mats)


def pair_ranks_literal(pair):
    """(rank [M_x | M_y], rank [M_x ; M_y]) of the dense rows of a pair."""
    mx, my = (list(map(list, m)) for m in (pair.mx, pair.my))
    return rational_rank([r + s for r, s in zip(mx, my)]), rational_rank(mx + my)


def literal_sylvester_rows(a, b):
    """Every entry of P a_x - b_x P and P a_y - b_y P, over the entries of P."""
    m = a.dim
    rows = []
    for ax, bx in ((a.mx, b.mx), (a.my, b.my)):
        for i in range(m):
            for j in range(m):
                row = [0] * (m * m)
                for l in range(m):
                    row[i * m + l] += ax[l][j]
                for k in range(m):
                    row[k * m + j] -= bx[i][k]
                rows.append(row)
    return rows


def literal_skew_rows(pair):
    """Every entry of Phi M + M^T Phi, over Phi[k][l] = -Phi[l][k], k < l."""
    m = pair.dim
    positions = list(itertools.combinations(range(m), 2))
    rows = []
    for mat in (pair.mx, pair.my):
        for i in range(m):
            for j in range(m):
                row = [0] * len(positions)
                for idx, (k, l) in enumerate(positions):
                    row[idx] += (i == k) * mat[l][j] - (i == l) * mat[k][j]
                    row[idx] += (j == l) * mat[k][i] - (j == k) * mat[l][i]
                rows.append(row)
    return rows


def subspace_contains_invertible_det_first(basis, dim, seed=0):
    """Whether a span of matrices holds an invertible one, generic det first.

    The determinant of sum t_k B_k, for integer matrices B_k, decides; only
    when it is nonzero are seeded integer combinations drawn, with growing
    bounds, and the first with a nonzero determinant is the witness.
    """
    if not basis:
        return False, None
    if not _generic_det(basis, dim):
        return False, None
    rng = random.Random(seed)
    for bound in (1, 2, 3, 5, 9):
        for _ in range(200):
            coeffs = [rng.randint(-bound, bound) for _ in basis]
            combination = [
                [sum(c * b[i][j] for c, b in zip(coeffs, basis)) for j in range(dim)]
                for i in range(dim)
            ]
            if det(combination):
                return True, combination
    raise AssertionError("nonzero determinant but no witness found")


def module_isomorphic_det_first(a, b, seed=0):
    """Simultaneous conjugacy: every P with P a = b P, then the span decides."""
    if a.dim != b.dim:
        return False, None
    m = a.dim
    basis = [
        [[v[i * m + j] for j in range(m)] for i in range(m)]
        for v in rational_nullspace(literal_sylvester_rows(a, b))
    ]
    return subspace_contains_invertible_det_first(basis, m, seed)


def symplectic_exists_det_first(pair, seed=0):
    """Every skew Phi with Phi M + M^T Phi = 0, then the span decides."""
    m = pair.dim
    positions = list(itertools.combinations(range(m), 2))
    basis = []
    for v in rational_nullspace(literal_skew_rows(pair)) if positions else []:
        phi = [[0] * m for _ in range(m)]
        for x, (k, l) in zip(v, positions):
            phi[k][l], phi[l][k] = x, -x
        basis.append(phi)
    ok, witness = subspace_contains_invertible_det_first(basis, m, seed)
    return SkewSolutionSpace(
        basis=tuple(tuple(tuple(r) for r in b) for b in basis),
        contains_invertible=ok,
        witness=tuple(tuple(r) for r in witness) if witness else None,
    )


def echelon_pivots_full_stack(stack):
    """echelon_pivots_stack with every Euclid step on the whole stack.

    A matrix whose column is done takes zero multiples, and each column
    ends with one more pass that finds all of the multiples zero.
    """
    n, m, r = stack.shape
    pivots = np.zeros((n, r), dtype=np.int64)
    alive = np.arange(n)
    a = np.array(stack, dtype=np.int64)
    for c in range(min(m, r)):
        # a is the trailing block of the live matrices; reduce its column 0
        each = np.arange(len(a))
        while True:
            col = a[:, :, 0]
            best = np.where(col != 0, np.abs(col), INT64_MAX).argmin(axis=1)
            top = a[each, best]
            a[each, best] = a[:, 0]
            a[:, 0] = top
            p = top[:, 0]
            # a nonzero entry below the smallest pivot has a nonzero multiple
            q = a[:, 1:, 0] // np.where(p == 0, 1, p)[:, None]
            if not q.any():
                break
            check_product(2, max_abs(q), max_abs(a))
            a[:, 1:] -= q[:, :, None] * top[:, None, :]
        pivots[alive, c] = a[:, 0, 0]
        keep = a[:, 0, 0] != 0
        a, alive = a[keep, 1:, 1:], alive[keep]
    return pivots
