"""Bigraded Hodge-polynomial arithmetic over Z.

A :class:`BigradedPoly` is a finitely supported map (p, q) -> Z.  The graded
symmetric power uses the Koszul sign convention: classes of odd total degree
anticommute, so for a surface the l-th symmetric power of its cohomology
matches the cohomology of the l-th symmetric product of the surface.

Symmetric powers and the Hilbert schemes of points S^[n] of a surface with
Hodge numbers h^{p,q} are read off one truncated product, Goettsche's
formula (Goettsche 1990; Goettsche-Soergel 1993):

    sum_n h(S^[n]) t^n = prod_{k >= 1} prod_{p,q}
        (1 - (-1)^(p+q) x^(p+k-1) y^(q+k-1) t^k)^(-(-1)^(p+q) h^{p,q}),

whose k = 1 factor alone is sum_l Sym^l(h) t^l.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from numbers import Integral

from .intlinalg import require_int


class BigradedPoly:
    """Integer polynomial in two formal variables indexed by bidegree (p, q);
    a coefficient that is no int or Fraction (a float, a bool) raises
    ValueError, and one of another integral type is stored as an int."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        c = {}
        for key, val in (coeffs or {}).items():
            if type(val) is not int:
                if type(val) is bool or not isinstance(val, (Integral, Fraction)):
                    raise ValueError(f"coefficient {val!r} of {key!r} is not exact")
                if type(val) is not Fraction:
                    val = int(val)  # a numpy integer would wrap
            if val:
                p, q = key
                if not type(p) is type(q) is int and not all(
                    isinstance(x, Integral) and type(x) is not bool for x in key
                ):
                    raise ValueError(f"bidegree {key!r} is not a pair of ints")
                if p < 0 or q < 0:
                    raise ValueError(f"negative bidegree {key}")
                c[(int(p), int(q))] = val
        self.coeffs = c

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, p, q, c=1):
        return cls({(p, q): c})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = BigradedPoly.constant(other)
        return isinstance(other, BigradedPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = BigradedPoly.constant(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return BigradedPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BigradedPoly({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = BigradedPoly.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BigradedPoly({k: v * other for k, v in self.coeffs.items()})
        out = {}
        for (p1, q1), c1 in self.coeffs.items():
            for (p2, q2), c2 in other.coeffs.items():
                k = (p1 + p2, q1 + q2)
                out[k] = out.get(k, 0) + c1 * c2
        return BigradedPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        out = BigradedPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __getitem__(self, key):
        return self.coeffs.get(key, 0)

    def specialize(self, x0, y0):
        """Evaluate at integers (x0, y0)."""
        return sum(c * x0**p * y0**q for (p, q), c in self.coeffs.items())

    def is_hodge_symmetric(self):
        return all(self[(q, p)] == c for (p, q), c in self.coeffs.items())

    def is_centrally_symmetric(self, center):
        """h^{c+p, c+q} == h^{c-p, c-q} for all (p, q)."""
        return all(
            self[(2 * center - p, 2 * center - q)] == c
            for (p, q), c in self.coeffs.items()
        )

    def to_json_rows(self):
        return [
            {"p": p, "q": q, "h": int(c)}
            for (p, q), c in sorted(self.coeffs.items())
        ]

    def diamond_text(self):
        """Aligned text rendering of the Hodge diamond."""
        if not self.coeffs:
            return "0"
        width = max(len(str(c)) for c in self.coeffs.values()) + 2
        lines = []
        top = max(p + q for p, q in self.coeffs)
        for s in range(top + 1):
            entries = [str(self[(p, s - p)]) for p in range(s, -1, -1)]
            row = "".join(e.center(width) for e in entries)
            lines.append(row.center(width * (top + 1)).rstrip())
        return "\n".join(lines)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (p, q), c in sorted(self.coeffs.items()):
            mono = "".join(
                [f"x^{p}" if p > 1 else ("x" if p == 1 else ""),
                 f"y^{q}" if q > 1 else ("y" if q == 1 else "")]
            )
            parts.append(f"{c}{mono}" if mono else str(c))
        return " + ".join(parts)


def abelian_surface():
    """h(A) = ((1+x)(1+y))^2."""
    row = BigradedPoly({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    return row * row


def two_torsion():
    """h(A_2) = 16: the sixteen 2-torsion points of an abelian surface."""
    return BigradedPoly.constant(16)


def kummer_singular():
    """h(K) for K = A/(+-1): the +-1-invariant part of h(A)."""
    return BigradedPoly({(0, 0): 1, (2, 0): 1, (1, 1): 4, (0, 2): 1, (2, 2): 1})


def kummer_k3():
    """h(X) for the Kummer K3 surface: h(K) + h(A_2) * xy."""
    return kummer_singular() + two_torsion() * BigradedPoly.monomial(1, 1)


def partitions(n):
    """Partitions of n as multiplicity tuples (a_1, ..., a_n), sum i*a_i = n.

    The empty partition of 0 is the empty tuple.
    """
    def parts(m, largest):
        if m == 0:
            yield ()
        for part in range(min(m, largest), 0, -1):
            for rest in parts(m - part, part):
                yield (part,) + rest
    for lam in parts(n, n):
        yield tuple(lam.count(i) for i in range(1, n + 1))


# n above this is refused by generating_series and goettsche, before any
# work: the product to n = 30 takes about 1 s on the abelian surface
# unspecialized, the slowest of the surfaces `series` offers
MAX_SERIES_N = 30


def _goettsche_product(h, n, kmax):
    """Coefficients t^0..t^n of Goettsche's product over k = 1..kmax.

    The factor of k and (p, q) is (1 - s x^(p+k-1) y^(q+k-1) t^k)^(-s c)
    with s = (-1)^(p+q) and c = h^{p,q}: the binomial series with
    coefficient C(c-1+j, j) (p + q even) or C(c, j) (p + q odd) at the j-th
    power of the monomial and t^(kj).  Each factor multiplies the series in
    place, degree a walking down from n, so every source a - kj still holds
    its value before that factor.
    """
    if not isinstance(h, BigradedPoly):
        raise ValueError(f"the surface must be a BigradedPoly, not {h!r}")
    if any(c < 0 for c in h.coeffs.values()):
        raise ValueError("sym_power requires nonnegative coefficients")
    series = [{(0, 0): 1}] + [{} for _ in range(n)]
    for k in range(1, kmax + 1):
        for (p, q), c in h.coeffs.items():
            dp, dq = p + k - 1, q + k - 1
            odd = (p + q) % 2
            binoms = [
                comb(c, j) if odd else comb(c - 1 + j, j) for j in range(n // k + 1)
            ]
            for a in range(n, k - 1, -1):
                target = series[a]
                for j in range(1, a // k + 1):
                    f = binoms[j]
                    if not f:
                        break  # C(c, j) = 0 for every j > c
                    sp, sq = j * dp, j * dq
                    for (u, v), val in series[a - k * j].items():
                        key = (u + sp, v + sq)
                        target[key] = target.get(key, 0) + f * val
    return [BigradedPoly(s) for s in series]


def sym_power(h, l):
    """Graded symmetric power Sym^l of the bigraded space with dimensions h.

    The coefficient of t^l in the k = 1 factor of Goettsche's product,
    prod_{p+q even} (1 - x^p y^q t)^(-h^{p,q})
    * prod_{p+q odd} (1 + x^p y^q t)^(h^{p,q}).
    """
    require_int("l", l)
    if l < 0:
        raise ValueError("negative symmetric power")
    return _goettsche_product(h, l, 1)[l]


def goettsche(surface_hodge, n):
    """Hodge polynomial of the Hilbert scheme of n points: the coefficient of
    t^n in Goettsche's product."""
    require_int("n", n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return generating_series(surface_hodge, n)[n]


SPECIALIZATIONS = {
    "euler": (-1, -1),
    "signature": (-1, 1),
}


def generating_series(surface_hodge, n_max, specialization=None):
    """Values of goettsche(h, n) for n = 0..n_max, optionally specialized.

    specialization may be None, a name from SPECIALIZATIONS, or an (x0, y0)
    pair of ints; anything else raises ValueError.  Returns a list of
    BigradedPoly or of integers.
    """
    require_int("n_max", n_max)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > MAX_SERIES_N:
        raise ValueError(f"n = {n_max} is above the series bound {MAX_SERIES_N}")
    if isinstance(specialization, str):
        name = specialization.lower()
        if name not in SPECIALIZATIONS:
            raise ValueError(
                f"unknown specialization {specialization!r}; "
                f"known: {', '.join(SPECIALIZATIONS)}"
            )
        specialization = SPECIALIZATIONS[name]
    elif specialization is not None and (
        type(specialization) not in (tuple, list)
        or list(map(type, specialization)) != [int, int]
    ):
        raise ValueError(
            f"specialization must be a name or a pair of ints, not {specialization!r}"
        )
    polys = _goettsche_product(surface_hodge, n_max, n_max)
    if specialization is None:
        return polys
    return [poly.specialize(*specialization) for poly in polys]
