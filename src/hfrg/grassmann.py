"""Finite Grassmann algebra over bitmask-encoded monomials.

A monomial is an integer mask; bit i set means generator i is present,
and the stored coefficient refers to the product of the present
generators in ascending bit order.  All sign bookkeeping reduces to
counting crossings with popcounts, so the same engine serves every
coefficient ring (rationals, coupling polynomials, impurity elements).
Coefficients multiply in operand order, which keeps noncommutative
rings honest; rational scalars are always central.  Symmetric models
repeat coefficients on many masks, so a product of two many-term
polynomials lets equal coefficients of equal types, entries included,
share one object (2, a constant coupling polynomial, and scalar
matrices of rational and of polynomial entries are four types).  Every
product multiplies each distinct ordered pair of coefficient objects
once, in a memo local to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .couplings import add_terms

_SPIN_ORDER = {"up": 0, "dn": 1}
_CONJ_ORDER = {"+": 0, "-": 1}


@dataclass(frozen=True)
class GeneratorId:
    """One anticommuting generator of a model universe.

    ``kind`` is "ext" for the coarse field kept after a step and "int"
    for a fluctuation field that gets integrated out; ``child`` labels
    the sub-box an internal generator lives in; ``species`` is a small
    tag (sublattice, half-box); ``spin`` is "up"/"dn"; ``conj`` is
    "+"/"-".  The total order sorts external generators first, then by
    child, species, spin, and conjugation with "+" before "-".
    """

    kind: str
    child: int
    species: str
    spin: str
    conj: str

    def __post_init__(self):
        if self.kind not in ("ext", "int"):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.spin not in _SPIN_ORDER:
            raise ValueError(f"bad spin {self.spin!r}")
        if self.conj not in _CONJ_ORDER:
            raise ValueError(f"bad conjugation {self.conj!r}")

    def sort_key(self):
        return (0 if self.kind == "ext" else 1, self.child, self.species,
                _SPIN_ORDER[self.spin], _CONJ_ORDER[self.conj])

    def __str__(self):
        sp = f".{self.species}" if self.species else ""
        return f"{self.kind}{self.child}{sp}.{self.spin}{self.conj}"


class SingularNormalization(ValueError):
    """Logarithm requested of an element whose constant term is not
    invertible."""


class SubstitutionError(ValueError):
    """Substitution image violates oddness or shares the universe badly."""


def canonicalize_bits(bits):
    """Sort a generator sequence into a mask, tracking the sign.

    Returns (mask, sign); sign is 0 when a generator repeats, so the
    monomial vanishes.
    """
    mask = 0
    swaps = 0
    for b in bits:
        if (mask >> b) & 1:
            return 0, 0
        swaps += (mask >> (b + 1)).bit_count()
        mask |= 1 << b
    return mask, (-1 if swaps & 1 else 1)


def merge_sign(m1, m2):
    """Sign from concatenating two canonical disjoint monomials."""
    swaps = 0
    m = m2
    while m:
        low = m & -m
        swaps += (m1 >> low.bit_length()).bit_count()
        m ^= low
    return -1 if swaps & 1 else 1


def bits_of(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class GrassmannPolynomial:
    """Polynomial in anticommuting generators with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for m, c in terms.items():
                if c:
                    self.terms[m] = c

    @classmethod
    def _of(cls, terms):
        """Wrap a mask -> coefficient dict that holds no zeros."""
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def scalar(cls, c):
        return cls({0: c})

    @classmethod
    def monomial(cls, bits, coeff=Fraction(1)):
        mask, sign = canonicalize_bits(bits)
        if sign == 0 or not coeff:
            return cls()
        return cls({mask: coeff if sign > 0 else -coeff})

    # -- additive structure --------------------------------------------

    def __add__(self, other):
        return GrassmannPolynomial._of(
            add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return GrassmannPolynomial._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    # -- multiplicative structure ---------------------------------------

    def __mul__(self, other):
        if not isinstance(other, GrassmannPolynomial):
            return self.scale(other)
        a, b = self.terms.items(), other.terms.items()
        if len(a) > 1 and len(b) > 1:
            shared = {}   # keyed by the types too, entries included
            a, b = ([(m, shared.setdefault(
                (type(c), *map(type, getattr(c, "entries", ())), c), c))
                for m, c in t] for t in (a, b))
        products, out = {}, {}   # products: (id(c1), id(c2)) -> c1 * c2
        for m1, c1 in a:
            for m2, c2 in b:
                if m1 & m2:
                    continue
                if (c := products.get(key := (id(c1), id(c2)))) is None:
                    c = products[key] = c1 * c2
                if merge_sign(m1, m2) < 0:
                    c = -c
                # add_terms written out: fed by a generator it ran slower
                m = m1 | m2
                s = out.get(m)
                s = c if s is None else s + c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return GrassmannPolynomial._of(out)

    def scale(self, c):
        """Right-multiply every coefficient by the scalar ``c``; a zero
        product, such as E11 * E22, is not stored."""
        return GrassmannPolynomial._of(
            {m: p for m, v in self.terms.items() if (p := v * c)})

    # -- structure ------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, GrassmannPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def constant_term(self):
        return self.terms.get(0, Fraction(0))

    def max_degree(self):
        return max((m.bit_count() for m in self.terms), default=0)

    def degree_part(self, d):
        return GrassmannPolynomial._of(
            {m: c for m, c in self.terms.items() if m.bit_count() == d})

    def is_even(self):
        return all(m.bit_count() % 2 == 0 for m in self.terms)

    def __repr__(self):
        if not self.terms:
            return "GrassmannPolynomial(0)"
        bits = [f"{c!r}*g{bits_of(m)}" for m, c in sorted(self.terms.items())]
        return "GrassmannPolynomial(" + " + ".join(bits) + ")"

    # -- substitution ----------------------------------------------------

    def substitute(self, images):
        """Replace generator i by the polynomial images[i].

        Every image must consist of odd-degree monomials only, so that
        images anticommute exactly like the generators they replace and
        the map extends to a ring homomorphism.  Generators without an
        image map to themselves.
        """
        for b, img in images.items():
            if any(m.bit_count() % 2 == 0 for m in img.terms):
                raise SubstitutionError(
                    f"substitution image for generator {b} has an "
                    "even-degree term")
        out = {}
        for mask, coeff in self.terms.items():
            prod = GrassmannPolynomial.scalar(Fraction(1))
            for b in bits_of(mask):
                img = images.get(b)
                if img is None:
                    img = GrassmannPolynomial({1 << b: Fraction(1)})
                prod = prod * img
            add_terms(out, ((m, coeff * v) for m, v in prod.terms.items()))
        return GrassmannPolynomial._of(out)


def exp_truncated(p, one=Fraction(1)):
    """exp of a nilpotent even element; terminates by nilpotency.

    Requires no constant term and even-degree monomials only (an odd
    term would make the powers fail to commute past each other).
    """
    if 0 in p.terms:
        raise ValueError("exp argument must have no constant term")
    if not p.is_even():
        raise ValueError("exp argument must be even")
    acc = GrassmannPolynomial.scalar(one)
    term = GrassmannPolynomial.scalar(one)
    k = 1
    while True:
        term = (term * p).scale(Fraction(1, k))
        if not term:
            return acc
        acc = acc + term
        k += 1


def log_truncated(p):
    """Split p = c0 * (1 + q) and return (c0, log(1 + q)).

    c0 is the constant term, a scalar that divides exactly.  A missing
    or zero constant term makes the logarithm singular.
    """
    c0 = p.terms.get(0)
    if c0 is None or not c0:
        raise SingularNormalization("constant term is not invertible")
    q = (p - GrassmannPolynomial.scalar(c0)).scale(
        1 / c0 if isinstance(c0, Fraction) else Fraction(1) / c0)
    acc = GrassmannPolynomial()
    pw = GrassmannPolynomial.scalar(Fraction(1))
    k = 1
    while True:
        pw = pw * q
        if not pw:
            return c0, acc
        sign = Fraction(1, k) if k % 2 == 1 else Fraction(-1, k)
        acc = acc + pw.scale(sign)
        k += 1
