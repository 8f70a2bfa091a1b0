"""Coroot lattices and Weyl groups as finite integer-matrix groups.

Each simple type is realized by explicit simple-coroot vectors in an ambient
Z^m (classical types, G_2, F_4) or abstractly through its Cartan matrix
(E types).  All Weyl elements are integer matrices acting on the basis of
simple coroots.  An enumerated group stores them once, as one int64 stack
with one exact index from the bytes of each matrix to its position, and
every module downstream works on that stack: classes, centralizers,
twisted sectors, the commuting-pairs oracle and stabilizer membership.

Conventions.  cartan[i][j] = <alpha_i, alpha_j^vee> = 2(c_i, c_j)/(c_i, c_i)
where c_i are the simple coroot vectors; the simple reflection s_i then acts
on the coroot basis by s_i(e_j) = e_j - cartan[i][j] e_i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .intlinalg import (
    check_product,
    det,
    finite_order_inverse,
    freeze,
    invariant_factors,
    max_abs,
)


class GroupOrderCapError(ValueError):
    """Raised when a group enumeration would exceed the configured cap."""


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
    """Normalize 'G_2', 'G2', ('G', 2) style input to (letter, rank)."""
    s = str(type_label).strip().upper().replace("_", "")
    letter = s[0]
    if len(s) > 1:
        embedded = int(s[1:])
        if rank is not None and rank != embedded:
            raise ValueError(f"rank {rank} conflicts with label {type_label}")
        rank = embedded
    if rank is None:
        raise ValueError(f"no rank given for type {type_label}")
    _validate_type(letter, rank)
    return letter, int(rank)


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
    simple_coroots: tuple
    weyl_generators: tuple

    @property
    def letter(self):
        return self.dynkin_type.split("_")[0]

    def gram(self):
        """A W-invariant integer Gram matrix in the simple-coroot basis.

        (c_i, c_j) is proportional to n_i * cartan[i][j] where n_i is the
        coroot norm, recovered (up to scale) from the Cartan matrix; the
        result is symmetric and invariant under every Weyl generator.
        """
        root_norms = _relative_norms(self.cartan)
        coroot_norms = [1 / n for n in root_norms]
        rows = [
            [coroot_norms[i] * self.cartan[i][j] for j in range(self.rank)]
            for i in range(self.rank)
        ]
        from math import lcm

        scale = lcm(*(x.denominator for row in rows for x in row))
        return freeze([[int(x * scale) for x in row] for row in rows])

    def expected_order(self):
        return expected_weyl_order(self.letter, self.rank)

    def to_json(self):
        return json.dumps(
            {
                "type": self.dynkin_type,
                "rank": self.rank,
                "cartan": [list(r) for r in self.cartan],
                "simple_coroots": [list(r) for r in self.simple_coroots],
                "weyl_generators": [
                    [list(r) for r in g] for g in self.weyl_generators
                ],
            }
        )

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(
            dynkin_type=d["type"],
            rank=d["rank"],
            cartan=freeze(d["cartan"]),
            simple_coroots=freeze(d["simple_coroots"]),
            weyl_generators=tuple(freeze(g) for g in d["weyl_generators"]),
        )


def _simple_coroot_vectors(letter, rank):
    n = rank
    if letter == "A":
        # sum-zero realization in Z^(n+1)
        return [
            [1 if k == i else (-1 if k == i + 1 else 0) for k in range(n + 1)]
            for i in range(n)
        ]
    if letter == "B":
        vs = [
            [1 if k == i else (-1 if k == i + 1 else 0) for k in range(n)]
            for i in range(n - 1)
        ]
        vs.append([0] * (n - 1) + [2])
        return vs
    if letter == "C":
        vs = [
            [1 if k == i else (-1 if k == i + 1 else 0) for k in range(n)]
            for i in range(n - 1)
        ]
        vs.append([0] * (n - 1) + [1])
        return vs
    if letter == "D":
        vs = [
            [1 if k == i else (-1 if k == i + 1 else 0) for k in range(n)]
            for i in range(n - 1)
        ]
        vs.append([0] * (n - 2) + [1, 1])
        return vs
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
    r = len(coroots)
    out = []
    for i in range(r):
        ci = coroots[i]
        nii = sum(x * x for x in ci)
        row = []
        for j in range(r):
            num = 2 * sum(a * b for a, b in zip(ci, coroots[j]))
            if num % nii != 0:
                raise ValueError("coroot vectors give a non-integral pairing")
            row.append(num // nii)
        out.append(row)
    return out


def build_root_datum(type_label, rank=None):
    """Construct the root datum of a simple type.

    Weyl generators are the simple reflections expressed in the basis of
    simple coroots.
    """
    letter, rank = parse_type(type_label, rank)
    coroots = _simple_coroot_vectors(letter, rank)
    if coroots is None:
        cartan = [
            [2 if i == j else 0 for j in range(rank)] for i in range(rank)
        ]
        for a, b in _E_EDGES[rank]:
            cartan[a - 1][b - 1] = cartan[b - 1][a - 1] = -1
        coroots = [
            [1 if k == i else 0 for k in range(rank)] for i in range(rank)
        ]
    else:
        cartan = _cartan_from_coroots(coroots)
    gens = []
    for i in range(rank):
        g = [
            [
                (1 if k == j else 0) - (cartan[i][j] if k == i else 0)
                for j in range(rank)
            ]
            for k in range(rank)
        ]
        gens.append(freeze(g))
    return RootDatum(
        dynkin_type=f"{letter}_{rank}",
        rank=rank,
        cartan=freeze(cartan),
        simple_coroots=freeze(coroots),
        weyl_generators=tuple(gens),
    )


def coxeter_order(cij, cji):
    """Order of s_i s_j from the off-diagonal Cartan product."""
    return {0: 2, 1: 3, 2: 4, 3: 6}[cij * cji]


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


def _relative_norms(cartan):
    """Norms (alpha_i, alpha_i) up to a common scale, from the Cartan matrix."""
    r = len(cartan)
    norms = [None] * r
    norms[0] = Fraction(1)
    pending = [0]
    while pending:
        i = pending.pop()
        for j in range(r):
            if i != j and cartan[i][j] != 0 and norms[j] is None:
                norms[j] = norms[i] * Fraction(cartan[j][i], cartan[i][j])
                pending.append(j)
    if any(v is None for v in norms):
        raise ValueError("Cartan matrix is not connected")
    return norms


def highest_coroot_coefficients(datum):
    """Coefficients of the highest coroot in the simple-coroot basis.

    The highest root theta = sum a_i alpha_i is found by closure; its coroot
    is theta^vee = sum a_i (alpha_i, alpha_i)/(theta, theta) alpha_i^vee.
    Returned sorted ascending.
    """
    roots = positive_roots(datum.cartan)
    marks = max(roots, key=sum)
    norms = _relative_norms(datum.cartan)
    theta_norm = max(n for n, a in zip(norms, marks) if a)
    coeffs = []
    for a, n in zip(marks, norms):
        c = a * n / theta_norm
        if c.denominator != 1:
            raise ValueError("highest coroot is not integral")
        coeffs.append(int(c))
    return tuple(sorted(coeffs))


class WeylGroup:
    """A materialized finite group of integer matrices, stored once.

    stack is the one store of the elements: an (order, r, r) int64 array in
    breadth-first order, the identity first.  index, the only element
    index, maps m.tobytes() of each matrix m of the stack to its position;
    membership and the conjugation maps of the classes go through it, and
    centralizers are sub-stacks.  elements is a tuple view built on first
    use, for callers outside the batched paths.
    """

    def __init__(self, stack, generators, index):
        self.stack = stack
        self.generators = list(generators)
        self.order = len(stack)
        self.index = index
        self._elements = None
        self._classes = None

    @property
    def elements(self):
        """The elements as nested tuples, in stack order, built on first use."""
        if self._elements is None:
            self._elements = [freeze(m) for m in self.stack.tolist()]
        return self._elements

    def __contains__(self, m):
        """Whether m is an element; False for any other input.

        A wrong shape, a non-integer entry or one that does not fit in int64
        cannot be an element, so each answers False rather than raising.
        """
        try:
            m = np.asarray(m)
        except ValueError:
            return False
        if m.dtype.kind != "i" or m.shape != self.stack.shape[1:]:
            return False
        return m.astype(np.int64).tobytes() in self.index

    def __iter__(self):
        return iter(self.elements)

    def centralizer(self, g):
        """All elements commuting with g, as an int64 sub-stack."""
        arr = self.stack
        gm = np.asarray(g, dtype=np.int64)
        check_product(len(gm), max_abs(arr), max_abs(gm))
        return arr[np.all(arr @ gm == gm @ arr, axis=(1, 2))]

    def conjugacy_classes(self):
        """List of (representative, class_size, centralizer) on the stack.

        Conjugation by each generator is one batched product s E s^-1 over
        the element stack E, whose matrices are looked up in the group's
        index to give an index map of the elements.  Classes are the orbits
        of these maps, each labelled by its least index, so a representative
        (a row of the stack) is the first element of its class and classes
        come in that order.  Centralizers are int64 sub-stacks.
        """
        if self._classes is not None:
            return self._classes
        arr = self.stack
        n, r = arr.shape[:2]
        moves = []
        for s in self.generators:
            s_np = np.array(s, dtype=np.int64)
            s_inv = np.array(finite_order_inverse(s), dtype=np.int64)
            check_product(r, max_abs(s_np), max_abs(arr))
            left = s_np @ arr
            check_product(r, max_abs(left), max_abs(s_inv))
            try:
                moves.append(
                    np.array([self.index[key] for key in _keys(left @ s_inv)])
                )
            except KeyError:
                raise AssertionError("a conjugate lies outside the group") from None
        labels = least_orbit_labels(moves, np.arange(n))
        reps = np.flatnonzero(labels == np.arange(n))
        sizes = np.bincount(labels)[reps]
        classes = []
        for i, size in zip(reps.tolist(), sizes.tolist()):
            rep = arr[i]
            cent = self.centralizer(rep)
            if len(cent) * size != self.order:
                raise AssertionError("orbit-stabilizer mismatch in classes")
            classes.append((rep, size, cent))
        if sum(size for _, size, _ in classes) != self.order:
            raise AssertionError("conjugacy classes do not partition the group")
        self._classes = classes
        return classes


def _keys(stack):
    """m.tobytes() of each matrix m of an (n, r, r) int64 stack, as a list."""
    n = len(stack)
    flat = np.ascontiguousarray(stack).reshape(n, -1)
    return flat.view(f"V{8 * flat.shape[1]}").ravel().tolist()


def least_orbit_labels(moves, labels):
    """Label every point by the least point of its orbit.

    moves are index maps (image[x] is the image of x) generating a finite
    group, so forward moves reach every orbit.  Labels, starting as the
    points, are pulled along every move, then pointer-jumped (label <-
    label[label]), until they stop changing.
    """
    while True:
        before = labels
        for move in moves:
            labels = np.minimum(labels, labels[move])
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]
        if np.array_equal(labels, before):
            return labels


def enumerate_group(source, order_cap=10**7):
    """Breadth-first closure of the generators into a WeylGroup.

    source may be a RootDatum or an iterable of integer matrices.  Refuses
    with GroupOrderCapError when the expected (or running) order exceeds the
    cap; W(E_8) is refused at the default cap.  A generator whose exact
    determinant is not +-1 has no inverse over Z, so it cannot lie in a
    finite group; it is refused with ValueError before any int64 product.
    Each level's products are bound-checked first and raise EntryBoundError
    when their entries could overflow.  The stack and its index are built
    level by level, in breadth-first order, with no per-element copy.
    """
    if isinstance(source, RootDatum):
        expected = source.expected_order()
        if expected > order_cap:
            raise GroupOrderCapError(
                f"W({source.dynkin_type}) has order {expected}, "
                f"which exceeds the cap {order_cap}"
            )
        gens = [np.array(g, dtype=np.int64) for g in source.weyl_generators]
    else:
        gens = [np.array(g, dtype=np.int64) for g in source]
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
        new = []
        for i, key in enumerate(_keys(prods)):
            if key not in index:
                index[key] = len(index)
                new.append(i)
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
    coroot_map: tuple  # ambient_rank x sub_rank integer matrix


def embed_diagram(sub_label, ambient_label, node_map):
    """Embedding of Dynkin diagrams given an explicit node correspondence.

    node_map[i] is the 1-based ambient node receiving sub node i+1.  The map
    must be injective and preserve the Cartan matrix (edges and arrows).
    """
    sub = (
        sub_label
        if isinstance(sub_label, RootDatum)
        else build_root_datum(sub_label)
    )
    ambient = (
        ambient_label
        if isinstance(ambient_label, RootDatum)
        else build_root_datum(ambient_label)
    )
    if isinstance(node_map, dict):
        node_map = [node_map[i] for i in sorted(node_map)]
    node_map = tuple(int(x) for x in node_map)
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
    cmap = [
        [1 if node_map[j] - 1 == i else 0 for j in range(sub.rank)]
        for i in range(ambient.rank)
    ]
    facs = invariant_factors(cmap)
    if any(f != 1 for f in facs):
        raise AssertionError("embedding cokernel has torsion")
    return DiagramEmbedding(
        sub=sub, ambient=ambient, node_map=node_map, coroot_map=freeze(cmap)
    )


def crepant_classification(type_label, rank=None):
    """Whether (A tensor Lambda)/W admits a crepant resolution for this type.

    Only the unitary (A_n) and symplectic (C_n) series do.
    """
    s = str(type_label).strip().upper().replace("_", "")
    letter = s[0]
    if len(s) > 1:
        rank = int(s[1:])
    if letter not in "ABCDEFG":
        raise ValueError(f"invalid Dynkin type {type_label}")
    if rank is not None:
        _validate_type(letter, rank)
    return "admits" if letter in ("A", "C") else "does_not_admit"
