"""Multivariate polynomials in the running couplings.

``CouplingPolynomial`` is a polynomial in ``nvars`` variables with
rational coefficients.  Zero coefficients are never stored, so
``bool(p)`` is the zero test and equality is structural.  These
polynomials are themselves valid coefficients for Grassmann
polynomials, which is how the RG step keeps the couplings symbolic;
the impurity model carries its spin in matrices whose entries are
coupling polynomials (``hfrg.scalars.ImpurityElement``), never in the
coefficients here.

The storage follows the packed sparse polynomials of Monagan and
Pearce.  A monomial is one int holding ``BITS`` bits per variable, with
the first variable in the highest field, so packed keys sort like
exponent tuples and adding two keys multiplies the monomials.  The
coefficients are int numerators over one positive denominator per
polynomial, kept in lowest terms, so the ring operations run on ints.
``terms`` is the exponent-tuple view, built on first access.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_

# The top bit of each field is a guard: exponents stay at most
# MAX_EXPONENT, so adding two keys never carries into the next field,
# and a set guard bit in a sum flags an exponent that does not fit.
BITS = 16
MAX_EXPONENT = (1 << (BITS - 1)) - 1
_FIELD = (1 << BITS) - 1


def _pack(exps):
    key = 0
    for k in exps:
        if not 0 <= k <= MAX_EXPONENT:
            raise OverflowError(f"exponent {k} outside 0..{MAX_EXPONENT}")
        key = key << BITS | k
    return key


def _unpack(key, nvars):
    exps = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        exps[i] = key & _FIELD
        key >>= BITS
    return tuple(exps)


def _guard_mask(nvars):
    return ((1 << nvars * BITS) - 1) // _FIELD << (BITS - 1)


def _accumulate(out, items):
    """Add (key, value) pairs into ``out`` in place, dropping zeros."""
    get = out.get
    for k, v in items:
        s = get(k, 0) + v
        if s:
            out[k] = s
        else:
            del out[k]
    return out


class CouplingPolynomial:
    """Polynomial over exponent tuples of fixed length ``nvars``."""

    # _c maps packed keys to int numerators over the denominator _den
    __slots__ = ("nvars", "_c", "_den", "_terms", "_float_terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self._terms = None
        self._float_terms = None
        fr = []
        if terms:
            for exps, c in terms.items():
                if len(exps) != nvars:
                    raise ValueError("exponent tuple length mismatch")
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(f"coefficient {c!r} is not rational")
                if c:
                    fr.append((_pack(exps), Fraction(c)))
        # over the lcm of reduced denominators the numerators share
        # no factor with it, so the result is already in lowest terms
        den = lcm(*(f.denominator for _, f in fr))
        self._den = den
        self._c = {k: f.numerator * (den // f.denominator) for k, f in fr}

    @classmethod
    def _make(cls, nvars, c, den):
        """Wrap packed numerators without zeros over ``den``, reduced."""
        if den != 1:
            g = gcd(den, *c.values())
            if g != 1:
                den //= g
                c = {k: v // g for k, v in c.items()}
        p = cls.__new__(cls)
        p.nvars = nvars
        p._c = c
        p._den = den
        p._terms = None
        p._float_terms = None
        return p

    @property
    def terms(self):
        """Exponent tuple -> coefficient; read-only by convention."""
        t = self._terms
        if t is None:
            n, den = self.nvars, self._den
            t = {_unpack(k, n): Fraction(v, den) for k, v in self._c.items()}
            self._terms = t
        return t

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i):
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    # -- ring operations ----------------------------------------------

    def _check(self, other):
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")

    def __add__(self, other):
        if not isinstance(other, CouplingPolynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CouplingPolynomial.constant(self.nvars, other)
        self._check(other)
        da, db = self._den, other._den
        g = gcd(da, db)
        fa, fb = db // g, da // g
        out = {k: v * fa for k, v in self._c.items()}
        _accumulate(out, ((k, v * fb) for k, v in other._c.items()))
        return CouplingPolynomial._make(self.nvars, out, da * fa)

    __radd__ = __add__

    def __neg__(self):
        return CouplingPolynomial._make(
            self.nvars, {k: -c for k, c in self._c.items()}, self._den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, s):
        """Every coefficient times the rational ``s``."""
        if not isinstance(s, (int, Fraction)):
            return NotImplemented
        if not s:
            return CouplingPolynomial(self.nvars)
        s = Fraction(s)
        num = s.numerator
        return CouplingPolynomial._make(
            self.nvars, {k: v * num for k, v in self._c.items()},
            self._den * s.denominator)

    def __mul__(self, other):
        if not isinstance(other, CouplingPolynomial):
            return self._scaled(other)
        self._check(other)
        out = {}
        get = out.get
        bi = list(other._c.items())
        for k1, c1 in self._c.items():
            for k2, c2 in bi:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        out = {k: c for k, c in out.items() if c}
        if reduce(or_, out, 0) & _guard_mask(self.nvars):
            raise OverflowError(f"product exponent exceeds {MAX_EXPONENT}")
        return CouplingPolynomial._make(self.nvars, out,
                                        self._den * other._den)

    # its own function, not an alias of __mul__, so that a tracer
    # wrapping both methods counts one product once
    def __rmul__(self, other):
        return self._scaled(other)

    def __truediv__(self, other):
        if isinstance(other, CouplingPolynomial):
            if not other.is_constant():
                raise ZeroDivisionError(
                    "polynomial division only by constants")
            other = other.constant_coefficient()
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self * (1 / Fraction(other))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = CouplingPolynomial.constant(self.nvars, Fraction(1))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if not isinstance(other, CouplingPolynomial):
            if self.is_constant():
                return self.constant_coefficient() == other
            return NotImplemented
        return (self.nvars == other.nvars and self._den == other._den
                and self._c == other._c)

    def __hash__(self):
        if self.is_constant():
            # equal to its constant coefficient, so it hashes like it
            return hash(self.constant_coefficient())
        return hash((self.nvars, self._den, frozenset(self._c.items())))

    # -- structure ----------------------------------------------------

    def is_constant(self):
        return not any(self._c)

    def constant_coefficient(self):
        return Fraction(self._c.get(0, 0), self._den)

    def derivative(self, j):
        shift = (self.nvars - 1 - j) * BITS
        unit = 1 << shift
        out = {}
        for k, c in self._c.items():
            e = (k >> shift) & _FIELD
            if e:
                out[k - unit] = c * e
        return CouplingPolynomial._make(self.nvars, out, self._den)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, values):
        """Evaluate at a value vector via nested Horner recursion.

        Works for float or Fraction inputs; the arithmetic follows the
        value type, so the exact path stays exact.
        """
        if len(values) != self.nvars:
            raise ValueError("value vector length mismatch")
        return _horner(list(self.terms.items()), 0, self.nvars, values)

    def max_exponents(self):
        """Largest exponent of each variable over all terms."""
        mx = [0] * self.nvars
        for e in self.terms:
            for i, k in enumerate(e):
                if k > mx[i]:
                    mx[i] = k
        return mx

    def evaluate_float(self, powers):
        """Evaluate against a precomputed power table with
        powers[i][k] = values[i]**k.

        This is the hot path of grid sampling and flow iteration,
        where rebuilding variable powers per term would dominate.
        """
        compiled = self._float_terms
        if compiled is None:
            # canonical term order keeps evaluation independent of
            # construction history (fresh build vs deserialized)
            compiled = [(float(c),
                         tuple((i, k) for i, k in enumerate(e) if k))
                        for e, c in sorted(self.terms.items())]
            self._float_terms = compiled
        total = 0.0
        for c, nonzero in compiled:
            v = c
            for i, k in nonzero:
                v *= powers[i][k]
            total += v
        return total

    # -- serialization -------------------------------------------------

    def to_json_obj(self):
        rows = [[list(e), str(c.numerator), str(c.denominator)]
                for e, c in sorted(self.terms.items())]
        return {"nvars": self.nvars, "terms": rows}

    @classmethod
    def from_json_obj(cls, obj):
        terms = {}
        for e, num, den in obj["terms"]:
            terms[tuple(e)] = Fraction(int(num), int(den))
        return cls(obj["nvars"], terms)

    def __repr__(self):
        if not self.terms:
            return "CouplingPolynomial(0)"
        bits = [f"{c}*x^{e}" for e, c in sorted(self.terms.items())]
        return "CouplingPolynomial(" + " + ".join(bits) + ")"


def _horner(items, var, nvars, values):
    """Horner evaluation, recursing one variable at a time."""
    if var == nvars:
        # all exponents consumed; items is [((), c)] or empty
        total = 0
        for _, c in items:
            total = total + c
        return total
    by_power = {}
    for e, c in items:
        by_power.setdefault(e[0], []).append((e[1:], c))
    x = values[var]
    result = 0
    prev = None
    for p in sorted(by_power, reverse=True):
        if prev is not None:
            for _ in range(prev - p):
                result = result * x
        result = result + _horner(by_power[p], var + 1, nvars, values)
        prev = p
    if prev:
        for _ in range(prev):
            result = result * x
    return result
