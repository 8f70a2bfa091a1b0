"""Commuting-matrix models of punctual subschemes of length n in the plane.

A module over C[x,y] supported at the origin is a pair of commuting nilpotent
matrices; structure sheaves of subschemes are the cyclic ones.  This module
constructs pairs from ideals, decides cyclicity, duality, isomorphism, and
whether the module carries a compatible symplectic structure.

An ideal is read once, by a recursive reader over Python's `ast` that
accepts polynomials in x and y only and drops the terms its truncation never
uses; its quotient data at truncations N and N + 1 come from one
`intlinalg.echelon`, at N + 1, whose primitive integer pivot rows give the
matrix entries, kept as ints where the pivot divides them.  Isomorphism
and symplectic structure are linear systems, solved by the same
elimination, followed by one question: does a span of matrices contain an
invertible one?  Every linear system is built
as sparse rows {column: nonzero entry}, straight from the nonzero terms of a
generator or the nonzero entries of a pair, and so are the rows whose rank
decides cyclicity.  Whether a span holds an invertible matrix is decided
in this order: a skew span of odd size m holds none (det Phi = (-1)^m det
Phi); `MatrixPair.ranks` [M_x | M_y] and [M_x ; M_y], which similarity
keeps, must agree between two conjugate pairs, and with each other for a
pair similar by Phi to (-M_x^T, -M_y^T); one of the first 8 seeded draws
with nonzero determinant is a witness (by Schwartz-Zippel a nonzero
determinant almost never vanishes at one); only then is the determinant of
the generic element taken, exactly in ZZ[t_0..t_k] by `intlinalg.det` on
sparse polynomials.  Witnesses are drawn from a seeded stream, so they are
fixed by the seed.
"""

from __future__ import annotations

import ast
import heapq
import itertools
import random
import re
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from .intlinalg import det, echelon, rational_nullspace, rational_rank, transpose

# entries of the linear system at truncation N + 1 that pair_from_ideal
# builds at most: 10**6 allows N = 32 for three generators
MAX_SYSTEM_ENTRIES = 10**6
# bits times terms that a literal power (c + u)**e may reach (see _read):
# (2/3 + x)**25000 is read at truncation 0, where it has one term, and
# (2/3 + x)**25001 is refused
MAX_POWER_BITS = 10**5
# seeded draws that _subspace_contains_invertible takes before the generic
# determinant, which only a span without an invertible element needs
_DRAWS_BEFORE_GENERIC_DET = 8
# a pair-file entry given as a string: digits, an optional sign and /q
_ENTRY = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


@dataclass(frozen=True)
class MatrixPair:
    dim: int
    mx: tuple
    my: tuple

    def __post_init__(self):
        if type(self.dim) is not int or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, not {self.dim!r}")
        for name, m in (("mx", self.mx), ("my", self.my)):
            try:
                square = len(m) == self.dim and all(
                    isinstance(r, (list, tuple)) and len(r) == self.dim for r in m
                )
            except TypeError:  # m has no length
                square = False
            if not square:
                raise ValueError(f"{name} is not a {self.dim}x{self.dim} matrix")
            if not {int, Fraction}.issuperset(map(type, itertools.chain(*m))):
                raise ValueError(f"{name} has an entry that is no int or Fraction")
        a, b = _rows(self.mx), _rows(self.my)
        if _product(a, b) != _product(b, a):
            raise ValueError("matrices do not commute")

    @cached_property
    def ranks(self):
        """(rank [M_x | M_y], rank [M_x ; M_y]); both are kept when P M P^-1
        replaces M (multiply by P and by diag(P^-1, P^-1))."""
        side = _rows(r + s for r, s in zip(self.mx, self.my))
        stacked = _rows(self.mx) + _rows(self.my)
        return rational_rank(side, 2 * self.dim), rational_rank(stacked, self.dim)

    def is_nilpotent(self):
        """Whether m^dim = 0 for both matrices, squaring until a power is 0."""
        for m in (self.mx, self.my):
            p, exponent = _rows(m), 1
            while exponent < self.dim and any(p):
                p, exponent = _product(p, p), 2 * exponent
            if any(p):
                return False
        return True

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "mx": [[str(Fraction(x)) for x in r] for r in self.mx],
            "my": [[str(Fraction(x)) for x in r] for r in self.my],
        }

    @classmethod
    def from_json_dict(cls, d):
        """Read {"dim": n, "mx": rows, "my": rows}; ValueError if malformed."""
        if not isinstance(d, dict) or not {"dim", "mx", "my"} <= d.keys():
            raise ValueError('a pair must be an object with "dim", "mx" and "my"')
        conv = lambda rows: tuple(tuple(_as_number(s) for s in r) for r in rows)
        try:
            return cls(dim=d["dim"], mx=conv(d["mx"]), my=conv(d["my"]))
        except TypeError as exc:
            raise ValueError(f"malformed pair: {exc}") from None


def _rows(m):
    """The sparse rows {column: nonzero entry} of a matrix."""
    return [{j: x for j, x in enumerate(r) if x} for r in m]


def _product(a, b):
    """The product of two matrices given as sparse rows, as sparse rows."""
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return out


def _as_number(f):
    """A pair-file entry, an int or a "p/q" string of decimal digits, as an
    int or Fraction; ValueError for anything else (a float, a bool, "0.5",
    "1e9", "1_000"), x/0 or inf."""
    if type(f) is int:
        return f
    try:
        if type(f) is not str or not _ENTRY.fullmatch(f):
            raise ValueError('write an int, or a fraction as a "p/q" string')
        f = Fraction(f)
    except (ValueError, ZeroDivisionError) as exc:
        # echoed in part, and Python's digit-limit message to its first clause
        text = repr(f)
        if len(text) > 40:
            text = f"{text[:40]}... ({len(text)} characters)"
        raise ValueError(f"malformed entry {text}: {str(exc).split(':')[0]}") from None
    return int(f) if f.denominator == 1 else f


def make_pair(mx, my):
    """The pair of two square matrices given as rows of ints and Fractions."""
    rows = []
    for name, m in (("mx", mx), ("my", my)):
        try:
            rows.append(tuple(map(tuple, m)))
        except TypeError:
            raise ValueError(f"{name} {m!r} is not a matrix given as rows") from None
    return MatrixPair(len(rows[0]), *rows)


def _require_pair(name, pair):
    if not isinstance(pair, MatrixPair):
        raise ValueError(f"{name} {pair!r} is not a MatrixPair")


def _monomials(n):
    """Monomials (a, b) with a + b < n, ordered by degree then x-power."""
    return [(a, d - a) for d in range(n) for a in range(d, -1, -1)]


def _literal(node):
    """The value of an integer literal or of / between literals, else None."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        num, den = _literal(node.left), _literal(node.right)
        if None not in (num, den):
            if den == 0:
                raise ValueError("division by zero in a generator")
            return Fraction(num, den)
    return None


def _plus(p, q, sign):
    """p + sign q for polynomials {(a, b): coefficient}."""
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _times(p, q, top):
    """p q without the terms of degree above top."""
    out = {}
    for (a, b), c in p.items():
        for (i, j), d in q.items():
            if a + b + i + j <= top:
                out[a + i, b + j] = out.get((a + i, b + j), 0) + c * d
    return {m: c for m, c in out.items() if c}


def _read(node, top):
    """The terms {(a, b): coefficient} of degree <= top of a polynomial's ast.

    A polynomial in x and y is +, - and * of polynomials, unary + and -, **
    to an integer literal (ast has none below 0), integer literals, /
    between literals, x and y; anything else raises ValueError.  Reducing
    mod (x, y)^(top + 1) is a ring map, so terms above top are dropped as
    soon as they appear.  With c the constant term of its base and d the
    lowest degree in u, a power (c + u)^e is the sum of C(e, k) c^(e - k)
    u^k over k d <= top, in at most top + 1 steps (u^k has no term below
    degree k d); for c = 0 only u^e is left.  Unless c = 0, ValueError if
    e times the bits of c's numerator and denominator (for c = +-1, the
    bits of the largest C(e, k) used), times the terms it can have (the
    monomials of degree <= top in the variables of u), exceeds MAX_POWER_BITS.
    """
    op = getattr(node, "op", None)
    if isinstance(op, (ast.Add, ast.Sub)):
        sign = 1 if isinstance(op, ast.Add) else -1
        return _plus(_read(node.left, top), _read(node.right, top), sign)
    if isinstance(op, ast.Mult):
        return _times(_read(node.left, top), _read(node.right, top), top)
    if isinstance(op, (ast.UAdd, ast.USub)):
        sign = 1 if isinstance(op, ast.UAdd) else -1
        return _plus({}, _read(node.operand, top), sign)
    if isinstance(op, ast.Pow) and type(getattr(node.right, "value", None)) is int:
        u, e = _read(node.left, top), node.right.value
        c = u.pop((0, 0), 0)
        steps = min(e, top // min((a + b for a, b in u), default=top + 1))
        xs, ys = (any(m[k] for m in u) for k in (0, 1))
        terms = (top + 1) * (top + 2) // 2 if xs and ys else top + 1 if xs or ys else 1
        bits = e * (abs(c.numerator).bit_length() + c.denominator.bit_length())
        if c in (1, -1):
            bits = comb(e, min(steps, e // 2)).bit_length()
        if c and bits * terms > MAX_POWER_BITS:
            raise ValueError(
                f"{ast.unparse(node)!r} raises a constant term past "
                f"{MAX_POWER_BITS} bits"
            )
        power, u_k = {}, {(0, 0): 1}
        for k in range(steps + 1):
            if c or k == e:
                factor = comb(e, k) * c ** (e - k)
                power = _plus(power, {m: factor * v for m, v in u_k.items()}, 1)
            u_k = _times(u_k, u, top)
        return power
    if getattr(node, "id", None) in ("x", "y"):
        return {(1, 0) if node.id == "x" else (0, 1): 1}
    value = _literal(node)
    if value is None:
        raise ValueError(f"{ast.unparse(node)!r} is not allowed in a polynomial")
    return {(0, 0): value} if value else {}


def _generator_terms(generator, top):
    """The terms (a, b, coefficient) of degree <= top of one generator."""
    try:
        terms = _read(ast.parse(generator, mode="eval").body, top)
    except (SyntaxError, RecursionError, MemoryError):
        # the parser reports nesting beyond its limits with the last two
        raise ValueError(f"generator {generator!r} is not an expression") from None
    # an integral coefficient stays an int, so its rows skip the Fraction pass
    return [
        (a, b, c.numerator if c.denominator == 1 else c) for (a, b), c in terms.items()
    ]


def _quotient_data(terms, truncation):
    """Echelon form of the ideal inside the ring truncated at degree N.

    Each generator is multiplied by each monomial of degree < N by shifting
    its terms; terms of degree >= N die in the truncated ring, so a row
    holds at most the generator's terms.  Returns the monomials and the
    `intlinalg.echelon` (primitive integer pivot rows, pivot columns) of
    the multiples.
    """
    monomials = _monomials(truncation)
    index = {m: i for i, m in enumerate(monomials)}
    rows = []
    for gen in terms:
        for a, b in monomials:
            row = {}
            for i, j, c in gen:
                k = index.get((a + i, b + j))
                if k is not None:
                    row[k] = c
            if row:
                rows.append(row)
    return (monomials, *echelon(rows, len(monomials)))


def pair_from_ideal(generators, truncation):
    """Multiplication matrices on C[x,y]/I, via the degree-truncated ring.

    The caller supplies a truncation N with (x,y)^N contained in I; this is
    checked by requiring the colength to be the same at N and N + 1.  Both
    come from one RREF at N + 1, whose first k = N(N + 1)/2 columns are the
    monomials of degree < N: its pivot rows below k are the RREF at N, and
    the colengths agree exactly when every monomial of degree N is a pivot.
    The other monomials are the basis of the quotient, and a pivot monomial
    reduces to minus the rest of its RREF row, which is zero on the basis
    when it has degree N.  ValueError, before anything is built, unless N is
    a positive int and the generators are strings (not one string) whose
    system at N + 1 (one row per generator and monomial, one column per
    monomial) has at most MAX_SYSTEM_ENTRIES entries.
    """
    if type(truncation) is not int or truncation < 1:
        raise ValueError(f"truncation must be a positive integer, not {truncation!r}")
    if isinstance(generators, str) or not isinstance(generators, Iterable):
        raise ValueError(f"generators must be strings in a list, not {generators!r}")
    generators = list(generators)
    for g in generators:
        if not isinstance(g, str):
            raise ValueError(f"generator {g!r} is not a string")
    if not generators:
        raise ValueError("no generators")
    size = len(generators) * ((truncation + 1) * (truncation + 2) // 2) ** 2
    if size > MAX_SYSTEM_ENTRIES:
        raise ValueError(
            f"truncation {truncation} with {len(generators)} generators needs a "
            f"system of {size} entries, more than {MAX_SYSTEM_ENTRIES}"
        )
    # _quotient_data reads no term of degree > N
    terms = [_generator_terms(g, truncation) for g in generators]
    monomials, rows, pivots = _quotient_data(terms, truncation + 1)
    k = truncation * (truncation + 1) // 2
    colength = k - sum(p < k for p in pivots)
    colength_next = len(monomials) - len(pivots)
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
            target = index[a + dx, b + dy]
            row = pivot_rows.get(target)
            if row is None:
                cols.append([int(j == target) for j in basis])
            else:  # minus the RREF row, row / row[target]
                cols.append([_quotient(-row.get(j, 0), row[target]) for j in basis])
        mats.append(transpose(cols))
    return make_pair(*mats)


def _quotient(a, b):
    """a / b as an int when b divides a, else as a Fraction."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def is_cyclic(pair):
    """Whether the module has a cyclic vector.

    For a commuting nilpotent pair this is equivalent, by Nakayama, to the
    image of (mx, my) having codimension one.
    """
    _require_pair("pair", pair)
    if not pair.is_nilpotent():
        raise ValueError("cyclicity criterion requires a nilpotent pair")
    return pair.dim - pair.ranks[0] == 1


def dual(pair):
    """The Ext-dual module: the transpose pair, with the pair's ranks
    swapped if known (rank [M_x^T | M_y^T] = rank [M_x ; M_y])."""
    _require_pair("pair", pair)
    d = make_pair(transpose(pair.mx), transpose(pair.my))
    if "ranks" in vars(pair):
        vars(d)["ranks"] = pair.ranks[::-1]
    return d


def _sylvester_solution_space(a, b):
    """Basis of {P : P a_x = b_x P and P a_y = b_y P}."""
    m = a.dim
    rows = []
    for (ax, bx) in ((a.mx, b.mx), (a.my, b.my)):
        # (P ax - bx P)[i][j] holds P[i][l] ax[l][j] - bx[i][k] P[k][j];
        # row i * m + j, with P[k][l] in column k * m + l
        eqs = [{} for _ in range(m * m)]
        for l, r in enumerate(ax):
            for j, x in enumerate(r):
                if x:
                    for i in range(m):
                        eqs[i * m + j][i * m + l] = x
        for i, r in enumerate(bx):
            for k, x in enumerate(r):
                if x:
                    for j in range(m):
                        row = eqs[i * m + j]
                        row[k * m + j] = row.get(k * m + j, 0) - x
        rows += [row for row in eqs if row]
    basis = rational_nullspace(rows, m * m)
    return [
        [[v[i * m + j] for j in range(m)] for i in range(m)] for v in basis
    ]


class _Poly(dict):
    """A polynomial over ZZ as {packed exponent: nonzero coefficient}.

    t_0^e_0 t_1^e_1 ... is packed as the int sum e_k base^k, so keys add
    when monomials multiply and compare as a monomial order, as long as no
    e_k reaches the base.  Just what `intlinalg.det` uses: *, -, exact //
    and truth (nonzero).
    """

    __slots__ = ()

    def __mul__(self, other):
        if type(other) is int:
            other = {0: other}
        out = {}
        for i, a in self.items():
            for j, b in other.items():
                out[i + j] = out.get(i + j, 0) + a * b
        return _Poly({k: c for k, c in out.items() if c})

    __rmul__ = __mul__

    def __sub__(self, other):
        out = _Poly(self)
        for k, c in other.items():
            c = out.get(k, 0) - c
            if c:
                out[k] = c
            else:
                del out[k]
        return out

    def __floordiv__(self, other):
        """The exact quotient, by leading terms; ValueError if there is none."""
        if type(other) is int:
            other = {0: other}
        lead = max(other)
        lead_c, rest = other[lead], [(k, c) for k, c in other.items() if k != lead]
        rem, quot = dict(self), _Poly()
        # a step only adds keys below the one it cancels, so the heap holds
        # the keys of rem, each once, largest first
        heap = [-k for k in rem]
        heapq.heapify(heap)
        while heap:
            k = -heapq.heappop(heap)
            c = rem.pop(k)
            if not c:
                continue
            q, r = divmod(c, lead_c)
            if k < lead or r:
                raise ValueError("inexact polynomial division")
            quot[k - lead] = q
            for j, d in rest:
                m = k - lead + j
                if m not in rem:
                    heapq.heappush(heap, -m)
                rem[m] = rem.get(m, 0) - q * d
        return quot


def _generic_det(basis, dim):
    """det(sum_k t_k B_k) of integer matrices B_k, as a _Poly (or 0).

    `intlinalg.det` runs fraction-free Bareiss on the _Poly entries.  Its
    numerators are products of two minors, of degree up to 2(dim - 1) in a
    single t_k, so the base 2 dim keeps every packed exponent below it.
    """
    base = 2 * dim
    return det([
        [
            _Poly({base**k: b[i][j] for k, b in enumerate(basis) if b[i][j]})
            for j in range(dim)
        ]
        for i in range(dim)
    ])


def _subspace_contains_invertible(basis, dim, seed=0):
    """Decide whether a span of integer matrices contains an invertible one.

    The determinant of the generic element sum t_k B_k is an exact
    polynomial in the parameters; over an infinite field it vanishes
    identically iff the subspace has no invertible element.  It is taken
    in the polynomial ring ZZ[t_0..t_k] (`_generic_det`) only when the
    first _DRAWS_BEFORE_GENERIC_DET draws fail: a witness is the first
    seeded integer draw of coefficients, with growing bounds, whose
    combination has a nonzero determinant (`_generic_det` takes no draw).
    """
    if not basis:
        return False, None
    rng = random.Random(seed)
    bounds = (bound for bound in (1, 2, 3, 5, 9) for _ in range(200))
    for n, bound in enumerate(bounds):
        if n == _DRAWS_BEFORE_GENERIC_DET and not _generic_det(basis, dim):
            return False, None
        coeffs = [rng.randint(-bound, bound) for _ in basis]
        combination = [
            [sum(c * b[i][j] for c, b in zip(coeffs, basis)) for j in range(dim)]
            for i in range(dim)
        ]
        if det(combination):
            return True, combination
    raise AssertionError("nonzero determinant but no witness found")


def module_isomorphic(a, b, seed=0):
    """Simultaneous-conjugacy test; returns (bool, witness P or None).

    No system is solved when rank [x | y] or rank [x ; y] differ.
    """
    _require_pair("a", a)
    _require_pair("b", b)
    if a.dim != b.dim or a.ranks != b.ranks:
        return False, None
    basis = _sylvester_solution_space(a, b)
    return _subspace_contains_invertible(basis, a.dim, seed)


@dataclass(frozen=True)
class SkewSolutionSpace:
    basis: tuple
    contains_invertible: bool
    witness: tuple = None


def symplectic_exists(pair, seed=0):
    """All skew Phi with Phi M + M^T Phi = 0 for both matrices of the pair.

    contains_invertible reports whether the module is a symplectic
    (self-minus-dual) one; when true a witness Phi is included.  It is false
    without a determinant when m is odd (det Phi = det Phi^T = (-1)^m det Phi)
    or when rank [M_x | M_y] != rank [M_x ; M_y]: an invertible Phi makes
    the pair similar to (-M_x^T, -M_y^T), whose rank [. | .] is the latter.
    """
    _require_pair("pair", pair)
    m = pair.dim
    positions = list(itertools.combinations(range(m), 2))
    # Phi[k][l] = t_idx and Phi[l][k] = -t_idx for positions[idx] = (k, l)
    param = {kl: idx for idx, kl in enumerate(positions)}

    def add(row, k, l, x):
        """row += x Phi[k][l], for k != l."""
        idx, x = (param[k, l], x) if k < l else (param[l, k], -x)
        row[idx] = row.get(idx, 0) + x

    rows = []
    for mat in (pair.mx, pair.my):
        # Phi mat + mat^T Phi = Phi mat - (Phi mat)^T is skew for a skew
        # Phi, so its entries (i, j) with i < j are all the equations.  An
        # entry x = mat[s][c] puts x Phi[i][s] in (Phi mat)[i][c] and
        # x Phi[s][j] in (mat^T Phi)[c][j].
        eqs = {}
        for s, r in enumerate(mat):
            for c, x in enumerate(r):
                if x:
                    for i in range(c):
                        if i != s:
                            add(eqs.setdefault((i, c), {}), i, s, x)
                    for j in range(c + 1, m):
                        if j != s:
                            add(eqs.setdefault((c, j), {}), s, j, x)
        rows += eqs.values()
    sols = rational_nullspace(rows, len(positions))
    basis = []
    for v in sols:
        phi = [[0] * m for _ in range(m)]
        for idx, (k, l) in enumerate(positions):
            if v[idx]:
                phi[k][l], phi[l][k] = v[idx], -v[idx]
        basis.append(phi)
    ok, witness = False, None
    if m % 2 == 0 and pair.ranks[0] == pair.ranks[1]:
        ok, witness = _subspace_contains_invertible(basis, m, seed)
    return SkewSolutionSpace(
        basis=tuple(tuple(tuple(x for x in r) for r in b) for b in basis),
        contains_invertible=ok,
        witness=tuple(tuple(r) for r in witness) if witness else None,
    )

