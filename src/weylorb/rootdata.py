"""Coroot lattices and Weyl groups as finite integer-matrix groups.

Each simple type is its Cartan matrix, read off the Dynkin diagram: W acts on
the coroot lattice by the simple reflections, which the matrix fixes, so no
ambient realization is needed.  All Weyl elements are integer matrices
acting on the basis of simple coroots.  An enumerated group stores them
once, as one int64 stack with one exact index from the bytes of each matrix
to its position, and every module downstream works on that stack: classes,
centralizers, twisted sectors, the commuting-pairs oracle and stabilizer
membership.  Classes and centralizers tell elements apart by their images
of one regular v.

Conventions.  cartan[i][j] = <alpha_i, alpha_j^vee>, and the simple
reflection s_i acts on the coroot basis by s_i(e_j) = e_j - cartan[i][j]
e_i.  Nodes are numbered as in Bourbaki, but G_2 has alpha_1 long.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np

from .intlinalg import (
    check_product,
    det,
    freeze,
    identity,
    int64_generators,
    max_abs,
    require_int,
)


class GroupOrderCapError(ValueError):
    """Raised when a group enumeration would exceed the configured cap."""


def check_order(what, order, cap):
    """Refuse a group of this order above the cap, naming it as what."""
    require_int("order cap", cap)
    if order > cap:
        raise GroupOrderCapError(f"{what} has order {order}, which exceeds the cap {cap}")


EXCEPTIONAL_ORDERS = {
    ("G", 2): 12,
    ("F", 4): 1152,
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
}


def expected_weyl_order(letter, rank):
    if letter == "A":
        return factorial(rank + 1)
    if letter in ("B", "C"):
        return 2**rank * factorial(rank)
    if letter == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return EXCEPTIONAL_ORDERS[(letter, rank)]


def parse_type(type_label, rank=None):
    """(letter, rank) of 'G_2', 'G2' or 'g2', or of 'G' with rank 2 given
    apart; anything else, the tuple ('G', 2) too, raises ValueError."""
    if rank is not None:
        require_int("rank", rank)
    s = str(type_label).strip().upper().replace("_", "")
    if not s:
        raise ValueError(f"invalid Dynkin type {type_label!r}")
    letter = s[0]
    if len(s) > 1:
        try:
            embedded = int(s[1:])
        except ValueError:  # its message would not name the label
            raise ValueError(f"invalid Dynkin type {type_label!r}") from None
        if rank is not None and rank != embedded:
            raise ValueError(f"rank {rank} conflicts with label {type_label}")
        rank = embedded
    if rank is None:
        raise ValueError(f"no rank given for type {type_label}")
    _validate_type(letter, rank)
    return letter, rank


def _validate_type(letter, rank):
    ok = (
        (letter == "A" and rank >= 1)
        or (letter in ("B", "C") and rank >= 2)
        or (letter == "D" and rank >= 4)
        or (letter, rank) in EXCEPTIONAL_ORDERS
    )
    if not ok:
        raise ValueError(f"invalid Dynkin type {letter}_{rank}")


@dataclass(frozen=True)
class RootDatum:
    dynkin_type: str
    rank: int
    cartan: tuple
    weyl_generators: tuple

    @property
    def letter(self):
        return self.dynkin_type.split("_")[0]

    @cached_property
    def roots(self):
        """root_table of the generators, built on first use (may be None)."""
        return root_table(self.weyl_generators)

    def gram(self):
        """The primitive W-invariant integer form in the simple-coroot basis.

        It is the sum of alpha alpha^T over the positive roots of root_table,
        divided by the gcd of its entries: W permutes the roots up to sign,
        so the form is invariant, and for a simple type every invariant form
        is a multiple of it.  ValueError when the generators give no root
        table.
        """
        table = self.roots
        if table is None:
            raise ValueError(f"the generators of {self.dynkin_type} give no root table")
        check_product(len(table.forms), table.form_bound, table.form_bound)
        form = table.forms.T @ table.forms
        return freeze((form // np.gcd.reduce(form.ravel())).tolist())

    def expected_order(self):
        return expected_weyl_order(self.letter, self.rank)


_E_EDGES = {
    6: [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)],
    7: [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)],
    8: [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)],
}


def _cartan(letter, rank):
    """The Cartan matrix of a simple type, read off its Dynkin diagram.

    2 on the diagonal and -1 both ways on each edge: the chain 1-2-...-rank,
    with D_n's last node hung off node n - 2, or _E_EDGES for E_n.  Then
    the one multiple bond, (row, column, entry) 1-based, its entry in the
    row of the node whose simple coroot is shorter.  G_2 has alpha_1 long.
    """
    n = rank
    cartan = [[2 * (i == j) for j in range(n)] for i in range(n)]
    edges = _E_EDGES[n] if letter == "E" else [(i, i + 1) for i in range(1, n)]
    if letter == "D":
        edges[-1] = (n - 2, n)
    for a, b in edges:
        cartan[a - 1][b - 1] = cartan[b - 1][a - 1] = -1
    bond = {"B": (n - 1, n, -2), "C": (n, n - 1, -2), "F": (2, 3, -2), "G": (1, 2, -3)}
    if letter in bond:
        i, j, entry = bond[letter]
        cartan[i - 1][j - 1] = entry
    return cartan


def build_root_datum(type_label, rank=None):
    """Construct the root datum of a simple type.

    Weyl generators are the simple reflections expressed in the basis of
    simple coroots.
    """
    letter, rank = parse_type(type_label, rank)
    cartan = _cartan(letter, rank)
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


def highest_coroot_coefficients(datum):
    """Coefficients of the highest coroot in the simple-coroot basis.

    This is the coroot theta^vee of the highest root theta, the last row of
    the root table, whose coroots are in simple-coroot coordinates already.
    Returned sorted ascending.
    """
    return tuple(sorted(datum.roots.coroots[-1].tolist()))


def weyl_order_from_heights(heights):
    """|W| of a root system from the heights of its positive roots.

    By Kostant, the number of positive roots of height k is the number of
    exponents m_i >= k, and |W| = prod(m_i + 1); this holds for reducible
    systems too, component by component.
    """
    counts = [0] * (max(heights, default=0) + 2)
    for h in heights:
        counts[h] += 1
    order = 1
    for k in range(1, len(counts) - 1):
        if counts[k + 1] > counts[k]:
            raise AssertionError("root heights are not those of a root system")
        order *= (k + 1) ** (counts[k] - counts[k + 1])
    return order


class RootTable:
    """The positive roots of a reflection group, with their coroots.

    Row k holds a positive root alpha as an integer linear form forms[k] on
    the lattice, its coroot alpha^vee as a lattice vector coroots[k], so that
    the reflection in alpha is I - coroots[k] forms[k]^T, and its
    coefficients coeffs[k] in the simple roots.  Rows are sorted by height,
    the simple roots first in generator order; order is |W|, and form_bound
    the largest absolute entry of the forms, read once.
    """

    def __init__(self, coeffs, forms, coroots):
        self.coeffs, self.forms, self.coroots = coeffs, forms, coroots
        self.form_bound = max_abs(forms)
        self.order = weyl_order_from_heights(coeffs.sum(axis=1).tolist())
        # integrality mask -> W(Psi), enumerated
        self._subgroups = {}

    def subgroup(self, mask, order_cap):
        """W(Psi) of the closed subsystem Psi in mask, a tuple of bools over
        the rows, generated by the reflections in its simple rows.  Its Weyl
        order from root heights, kept group or not, is refused above
        order_cap before any enumeration (GroupOrderCapError) and must be
        the enumerated order.  The group is kept under mask while the kept
        orders sum to at most order_cap: one that would pass is not kept.
        """
        sub = self._subgroups.get(mask)
        if sub is None:
            simple, order = self.subsystem(mask)
        else:
            order = sub.order
        check_order("the subgroup searched", order, order_cap)
        if sub is None:
            eye = np.eye(len(self.forms[0]), dtype=np.int64)
            gens = eye - self.coroots[simple, :, None] * self.forms[simple, None, :]
            sub = enumerate_group(gens if simple else eye[None], order_cap=order_cap)
            if sub.order != order:
                raise AssertionError("the subgroup searched has the wrong order")
            if sub.order + sum(g.order for g in self._subgroups.values()) <= order_cap:
                self._subgroups[mask] = sub
        return sub

    def subsystem(self, mask):
        """Simple rows and Weyl order of the closed subsystem Psi in mask.

        The simple roots of Psi are the roots of Psi+ that are not a sum of
        two of them.  Rows come by height, so when a root beta is reached
        every simple root of Psi below it is known: beta is simple unless
        beta - gamma lies in Psi+ for one of them, gamma, and then its
        height in Psi is one more than that of beta - gamma.
        """
        coeffs = self.coeffs.tolist()
        height = {}
        simple = []
        for k in np.flatnonzero(mask).tolist():
            beta = coeffs[k]
            for j in simple:
                below = tuple(b - g for b, g in zip(beta, coeffs[j]))
                if below in height:
                    height[tuple(beta)] = height[below] + 1
                    break
            else:
                simple.append(k)
                height[tuple(beta)] = 1
        return simple, weyl_order_from_heights(height.values())


def _reflection_pair(s):
    """(c, f) with s = I - c f^T and f.c = 2, or None if s is no reflection.

    c is the primitive lattice vector spanning the image of I - s, with its
    first nonzero entry positive, which makes f integral: a reflection fixes
    x modulo the lattice exactly when f(x) is an integer.  c, f and I - s
    are bounded by |s| + 1, checked as enumerate_group checks a level.
    """
    top = max_abs(s) + 1
    check_product(len(s), top, top)
    m = np.eye(len(s), dtype=np.int64) - s
    cols = np.flatnonzero(m.any(axis=0))
    if not len(cols):
        return None
    col = m[:, cols[0]]
    c = col // (np.gcd.reduce(col) * np.sign(col[np.flatnonzero(col)[0]]))
    i = np.flatnonzero(c)[0]
    f = m[i] // c[i]
    if not np.array_equal(np.outer(c, f), m) or f @ c != 2:
        return None
    return c, f


def root_table(generators):
    """The RootTable of the group the generators generate, or None.

    None unless every generator is a reflection, the roots f_i, with signs
    flipped along the diagram so that f_i(c_j) <= 0 for i != j where the
    diagram allows it, form a simple system of the roots they generate, and
    det[c_1 ... c_r] = +-1, so that the coroots span the lattice.  The roots
    and coroots come from one closure of their coefficient pairs, on the
    simple roots and the simple coroots, under the simple reflections:
    s_j(alpha) = alpha - alpha(c_j) alpha_j and s_j(alpha^vee) = alpha^vee -
    alpha_j(alpha^vee) c_j, each step within int64.  The simple system
    is checked directly: every root's coefficients must be all >= 0 or all
    <= 0, which fails too when no signs make every f_i(c_j) <= 0.  The
    generators are read by intlinalg.int64_generators, as in enumerate_group.
    """
    gens = int64_generators(generators)
    r = len(gens[0])
    pairs = [_reflection_pair(s) for s in gens]
    if len(pairs) != r or any(p is None for p in pairs):
        return None
    coroots = np.array([c for c, _ in pairs])
    forms = np.array([f for _, f in pairs])
    check_product(r, max_abs(forms), max_abs(coroots))
    pairing = (forms @ coroots.T).tolist()
    sign = [0] * r
    for first in range(r):
        if sign[first]:
            continue
        sign[first], todo = 1, [first]
        while todo:
            i = todo.pop()
            for j in range(r):
                if j != i and pairing[i][j] and not sign[j]:
                    sign[j] = sign[i] if pairing[i][j] < 0 else -sign[i]
                    todo.append(j)
    sign = np.array(sign, dtype=np.int64)[:, None]
    coroots, forms = sign * coroots, sign * forms
    cartan = forms @ coroots.T
    if abs(det(coroots.tolist())) != 1:
        return None
    # a finite root system of rank r has at most 2 r^2 + 240 roots, each
    # with simple-root and simple-coroot coefficients of at most 6 (E_8's
    # highest root); more means the generators do not generate a finite
    # reflection group, and stopping there keeps every product small: the
    # first level's are single Cartan entries, each later one of entries <= 6
    cap = 2 * r * r + 240
    eye = np.eye(r, dtype=np.int64)
    a = d = eye
    seen = dict.fromkeys(_keys(a))
    a_levels, d_levels = [a], [d]
    while len(a):
        # every s_j on every root of the level, in (generator, root) order
        a = (a[None] - (a @ cartan).T[:, :, None] * eye[:, None]).reshape(-1, r)
        d = (d[None] - (d @ cartan.T).T[:, :, None] * eye[:, None]).reshape(-1, r)
        if max(max_abs(a), max_abs(d)) > 6:
            return None
        new = _number_new(seen, a)
        if len(seen) > cap:
            return None
        a, d = a[new], d[new]
        a_levels.append(a)
        d_levels.append(d)
    a, d = np.concatenate(a_levels), np.concatenate(d_levels)
    low, high = a.min(axis=1), a.max(axis=1)
    if np.any((low < 0) & (high > 0)):
        return None
    # positive roots by height; the stable sort keeps the simple roots first
    positive = np.flatnonzero(high > 0)
    positive = positive[np.argsort(a[positive].sum(axis=1), kind="stable")]
    check_product(r, 6, max(max_abs(forms), max_abs(coroots)))
    return RootTable(a[positive], a[positive] @ forms, d[positive] @ coroots)


class WeylGroup:
    """A materialized finite group of integer matrices, stored once.

    stack is the one store of the elements: an (order, r, r) int64 array in
    breadth-first order, the identity first.  index, the only element
    index, maps m.tobytes() of each matrix m of the stack to its position;
    membership goes through it, classes and centralizers through the
    images of _regular, which conjugacy_classes drops once its classes are
    built.
    """

    def __init__(self, stack, generators, index):
        self.stack = stack
        self.generators = list(generators)
        self.order = len(stack)
        self.index = index
        self._classes = None

    def __contains__(self, m):
        """Whether m is an element; False for any other input.

        What int64_generators refuses, or a matrix of another size, cannot
        be an element, so each answers False rather than raising.
        """
        try:
            (m,) = int64_generators([m])
        except ValueError:
            return False
        return m.shape == self.stack.shape[1:] and m.tobytes() in self.index

    @cached_property
    def roots(self):
        """root_table of the generators, built on first use (may be None)."""
        return root_table(self.generators)

    @cached_property
    def bound(self):
        """The largest absolute entry of the stack, read once."""
        return max_abs(self.stack)

    @cached_property
    def _regular(self):
        """(v, images): v = (1, t, ..., t^(r-1)) for the first t = -3, -4, ...
        whose images w v over the rows w are distinct, so Stab(v) = 1; each
        ker(w - 1), w != 1, holds at most r - 1 such v (Vandermonde).  The
        last bound covers each product of an element and an image.
        """
        arr, t = self.stack, -3
        r, bound = arr.shape[1], self.bound
        while True:
            check_product(r, bound, abs(t) ** (r - 1))
            v = np.array([t**i for i in range(r)], dtype=np.int64)
            images = arr @ v
            ranked = images[np.lexsort(images.T)]
            if not np.all(ranked[1:] == ranked[:-1], axis=1).any():
                check_product(r, bound, max_abs(images))
                return v, images
            t -= 1

    def centralizer(self, g):
        """All elements commuting with g, as an int64 sub-stack in row order:
        for g in the group, hg = gh exactly when h(g v) = g(h v), v regular,
        first coordinates screening.  ValueError when g is not an element."""
        if g not in self:
            raise ValueError("g is not an element of the group")
        (v, images), arr = self._regular, self.stack
        gm = np.asarray(g, dtype=np.int64)
        gv = gm @ v
        rows = np.flatnonzero(arr[:, 0] @ gv == images @ gm[0])
        rows = rows[np.all(arr[rows] @ gv == images[rows] @ gm.T, axis=1)]
        return arr[rows]

    def conjugacy_classes(self):
        """List of (representative, class_size, centralizer) on the stack.

        Conjugation by a generator s takes w to s w s^-1, of image s(w(s^-1
        v)) at the regular v; sorted, these must be the sorted images, and
        pairing the two orders gives an index map.  Classes are the orbits of
        these maps, labelled by least index, so a representative (a row of
        the stack) is the first element of its class, in that order.
        """
        if self._classes is not None:
            return self._classes
        (v, images), arr = self._regular, self.stack
        n, order = len(arr), np.lexsort(images.T)
        moves = []
        for s in self.generators:
            s = np.array(s, dtype=np.int64)
            s_inv_v = images[np.flatnonzero((images @ s.T == v).all(axis=1))[0]]
            conj = (arr @ s_inv_v) @ s.T
            conj_order = np.lexsort(conj.T)
            if not np.array_equal(conj[conj_order], images[order]):
                raise AssertionError("conjugation does not permute the group")
            moves.append(np.empty(n, dtype=np.int64))
            moves[-1][conj_order] = order
        labels = least_orbit_labels(moves, np.arange(n))
        reps = np.flatnonzero(labels == np.arange(n))
        sizes = np.bincount(labels)[reps]
        classes = [
            (arr[i], size, arr if size == 1 else self.centralizer(arr[i]))
            for i, size in zip(reps.tolist(), sizes.tolist())
        ]
        if any(len(cent) * size != self.order for _, size, cent in classes):
            raise AssertionError("orbit-stabilizer mismatch in classes")
        if sum(size for _, size, _ in classes) != self.order:
            raise AssertionError("conjugacy classes do not partition the group")
        self._classes = classes
        # the images are rebuilt by a later centralizer call, if one comes
        del self._regular
        return classes


def _keys(stack):
    """m.tobytes() of each matrix m of an (n, r, r) int64 stack, as a list."""
    n = len(stack)
    flat = np.ascontiguousarray(stack).reshape(n, -1)
    return flat.view(f"V{8 * flat.shape[1]}").ravel().tolist()


def _number_new(index, stack):
    """Number the stack's keys missing from index; return their positions."""
    new = []
    for i, key in enumerate(_keys(stack)):
        if key not in index:
            index[key] = len(index)
            new.append(i)
    return new


def least_orbit_labels(moves, labels):
    """Label every point by the least point of its orbit.

    moves are index maps (image[x] is the image of x) generating a finite
    group, so forward moves reach every orbit.  Labels, starting as the
    points, are pulled along every move, then pointer-jumped (label <-
    label[label]), until they stop changing.  Every gather is a take:
    through the torsion scan's 65,536 uint16 codes it takes about a third
    of the time that fancy indexing does.
    """
    while True:
        before = labels
        for move in moves:
            labels = np.minimum(labels, labels.take(move))
        jumped = labels.take(labels)
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped.take(jumped)
        if np.array_equal(labels, before):
            return labels


def enumerate_group(source, order_cap=10**7):
    """Breadth-first closure of the generators into a WeylGroup.

    source may be a RootDatum or an iterable of integer matrices, read by
    intlinalg.int64_generators: anything but square integer matrices of one
    size raises ValueError, and an entry beyond int64 EntryBoundError.  Refuses
    with GroupOrderCapError when the expected (or running) order exceeds the
    cap, an int (ValueError otherwise); W(E_8) is refused at the default cap.
    A generator whose exact determinant is not +-1 has no inverse over Z, so
    it cannot lie in a finite group; it is refused with ValueError before any
    int64 product.  Each level's products are bound-checked first and raise
    EntryBoundError when their entries could overflow.  The stack and its
    index are built level by level, breadth-first, with no per-element copy.
    """
    require_int("order cap", order_cap)
    if isinstance(source, RootDatum):
        check_order(f"W({source.dynkin_type})", source.expected_order(), order_cap)
        source = source.weyl_generators
    gens = int64_generators(source)
    for g in gens:
        d = det(g.tolist())
        if abs(d) != 1:
            raise ValueError(f"generator {g.tolist()} has determinant {d}, not +-1")
    r = gens[0].shape[0]
    gens_max = max(max_abs(g) for g in gens)
    ident = np.eye(r, dtype=np.int64)[None]
    index = {ident.tobytes(): 0}
    levels = [ident]
    frontier = ident
    while len(frontier):
        check_product(r, max_abs(frontier), gens_max)
        # products in (generator, frontier element) order, so elements are
        # numbered by first occurrence exactly as a per-product loop would
        prods = np.concatenate([frontier @ g for g in gens])
        new = _number_new(index, prods)
        if len(index) > order_cap:
            raise GroupOrderCapError(
                f"group closure exceeded the cap {order_cap}"
            )
        frontier = prods[new]
        levels.append(frontier)
    generators = [freeze(g.tolist()) for g in gens]
    return WeylGroup(np.concatenate(levels), generators, index)


@dataclass(frozen=True)
class DiagramEmbedding:
    sub: RootDatum
    ambient: RootDatum
    node_map: tuple  # 1-based ambient node index for each sub node


def embed_diagram(sub_label, ambient_label, node_map):
    """Embedding of Dynkin diagrams given an explicit node correspondence.

    node_map, a list or tuple, has at i the 1-based ambient node receiving
    sub node i+1.  The map must be injective and preserve the Cartan matrix
    (edges and arrows).  A node_map of another type, or an entry that is
    not an int, or is a bool, raises ValueError.
    """
    sub, ambient = (
        x if isinstance(x, RootDatum) else build_root_datum(x)
        for x in (sub_label, ambient_label)
    )
    # tuple() would read a dict by its keys and a string by its characters
    if not isinstance(node_map, (list, tuple)):
        raise ValueError(f"node_map must be a list or tuple, not {node_map!r}")
    node_map = tuple(node_map)
    # type(x) is int refuses bools and floats, which int() would truncate
    if any(type(x) is not int for x in node_map):
        raise ValueError(f"node_map entries must be ints, not {node_map!r}")
    if len(node_map) != sub.rank or len(set(node_map)) != sub.rank:
        raise ValueError("node_map must name one ambient node per sub node")
    if any(not 1 <= x <= ambient.rank for x in node_map):
        raise ValueError("node_map index out of range")
    for i in range(sub.rank):
        for j in range(sub.rank):
            a = sub.cartan[i][j]
            b = ambient.cartan[node_map[i] - 1][node_map[j] - 1]
            if a != b:
                raise ValueError(
                    f"node_map is not a diagram morphism: cartan[{i + 1}]"
                    f"[{j + 1}] = {a} but ambient has {b}"
                )
    return DiagramEmbedding(sub=sub, ambient=ambient, node_map=node_map)


def crepant_classification(type_label, rank=None):
    """Whether (A tensor Lambda)/W admits a crepant resolution for this type.

    Only the unitary (A_n) and symplectic (C_n) series do, and B_2, which is
    C_2 (Spin(5) = Sp(2)).  A letter with no rank answers for its series.
    """
    s = str(type_label).strip().upper().replace("_", "")
    if rank is None and len(s) == 1:
        if s not in "ABCDEFG":
            raise ValueError(f"invalid Dynkin type {type_label}")
        letter = s
    else:
        letter, rank = parse_type(type_label, rank)
    if letter in ("A", "C") or (letter, rank) == ("B", 2):
        return "admits"
    return "does_not_admit"
