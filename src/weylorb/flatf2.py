"""F2 cohomology of tori with flat Z/2 line-bundle coefficients.

H^1(T^n; Z/2) = F2^n classifies real flat line bundles R_alpha; by Kunneth
the twisted cohomology is C(n, k) for the trivial class and vanishes
otherwise.  Whitney classes live in the exterior algebra over F2 on n
degree-one generators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .intlinalg import require_int


@dataclass(frozen=True)
class F2Class:
    """An element of H^1(T^n; Z/2) as a bit tuple; bits that are not a
    tuple of the ints 0 and 1 raise ValueError."""

    bits: tuple

    def __post_init__(self):
        if type(self.bits) is not tuple or any(
            type(b) is not int or b not in (0, 1) for b in self.bits
        ):
            raise ValueError(f"bits must be a tuple of 0s and 1s, not {self.bits!r}")

    @classmethod
    def from_string(cls, s):
        if not isinstance(s, str) or any(c not in "01" for c in s):
            raise ValueError(f"bad bitstring {s!r}")
        return cls(tuple(int(c) for c in s))

    @property
    def n(self):
        return len(self.bits)

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("mismatched torus dimensions")
        return F2Class(tuple((a + b) % 2 for a, b in zip(self.bits, other.bits)))

    def is_zero(self):
        return not any(self.bits)

    def __str__(self):
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class ExteriorF2Element:
    """An element of the exterior F2 algebra on n degree-one generators.

    monomials is a frozenset of sorted index tuples; the empty tuple is the
    unit.
    """

    n: int
    monomials: frozenset

    @classmethod
    def one(cls, n):
        return cls(n, frozenset({()}))

    @classmethod
    def from_degree_one(cls, alpha):
        return cls(
            alpha.n,
            frozenset((i,) for i, b in enumerate(alpha.bits) if b),
        )

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("mismatched algebras")
        return ExteriorF2Element(
            self.n, self.monomials ^ other.monomials
        )

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("mismatched algebras")
        acc = {}
        for a in self.monomials:
            for b in other.monomials:
                if set(a) & set(b):
                    continue  # repeated generator squares to zero
                m = tuple(sorted(a + b))
                acc[m] = acc.get(m, 0) ^ 1
        return ExteriorF2Element(
            self.n, frozenset(m for m, c in acc.items() if c)
        )

    def degree_part(self, d):
        return ExteriorF2Element(
            self.n, frozenset(m for m in self.monomials if len(m) == d)
        )

    def is_zero(self):
        return not self.monomials

    def terms_text(self, names="abcdefghijklmnopqrstuvwxyz"):
        if not self.monomials:
            return "0"
        parts = []
        for m in sorted(self.monomials, key=lambda t: (len(t), t)):
            parts.append("1" if not m else "".join(names[i] for i in m))
        return " + ".join(parts)


def _as_class(a):
    """a as an F2Class, read from a bitstring; ValueError for anything else."""
    if isinstance(a, str):
        return F2Class.from_string(a)
    if not isinstance(a, F2Class):
        raise ValueError(f"{a!r} is not an F2Class or a bitstring")
    return a


def line_bundle_cohomology(n, k, alpha):
    """dim H^k(T^n, R_alpha), by Kunneth: C(n, k) if alpha = 0, else 0."""
    require_int("n", n)
    require_int("k", k)
    if not 0 <= k <= n:
        raise ValueError("degree out of range")
    alpha = _as_class(alpha)
    if alpha.n != n:
        raise ValueError("class lives on the wrong torus")
    return comb(n, k) if alpha.is_zero() else 0


def total_sw_class(classes):
    """Total Stiefel-Whitney class of a sum of flat line bundles.

    Whitney product formula: w(E) = prod (1 + alpha).
    """
    classes = [_as_class(a) for a in classes]
    if not classes:
        raise ValueError("empty bundle")
    n = classes[0].n
    total = ExteriorF2Element.one(n)
    for a in classes:
        total = total * (
            ExteriorF2Element.one(n) + ExteriorF2Element.from_degree_one(a)
        )
    return total


def so_bundle_deformation_dim(classes):
    """dim H^1(T^n, so(E)) for E a sum of flat real line bundles.

    so(E) splits into the line bundles R_alpha tensor R_beta over unordered
    pairs of distinct summands, each contributing H^1 of R_(alpha+beta).
    """
    classes = [_as_class(a) for a in classes]
    if not classes:
        raise ValueError("empty bundle")
    n = classes[0].n
    total = 0
    for a, b in itertools.combinations(classes, 2):
        total += line_bundle_cohomology(n, 1, a + b)
    return total


def spin8_check():
    """The flat SO(8) bundle of the commuting-triple example on T^3.

    Its eight line-bundle summands run over all of H^1(T^3; Z/2); the
    degree-two Whitney class must vanish (the bundle is spin) and the
    deformation space must be zero.
    """
    classes = [
        F2Class(bits) for bits in itertools.product((0, 1), repeat=3)
    ]
    w = total_sw_class(classes)
    w1 = w.degree_part(1)
    w2 = w.degree_part(2)
    deform = so_bundle_deformation_dim(classes)
    return {
        "w1": w1.terms_text(),
        "w2_terms": w2.terms_text(),
        "deformation_dim": deform,
        "verdict": "pass" if w2.is_zero() and deform == 0 else "fail",
    }
