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
One loop evaluates the packed terms, in floats or exactly;
``float_lines`` unrolls it into straight-line code for one float
point, with the same bits, and ``float_kernel`` wraps those lines in a
function.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import repeat
from math import gcd, lcm
from operator import or_

# The top bit of each field is a guard: exponents stay at most
# MAX_EXPONENT, so adding two keys never carries into the next field,
# and a set guard bit in a sum flags an exponent that does not fit.
BITS = 16
MAX_EXPONENT = (1 << (BITS - 1)) - 1
_FIELD = (1 << BITS) - 1
# terms per statement of a generated float kernel
_KERNEL_CHUNK = 128


def _pack(exps):
    key = 0
    for k in exps:
        if not 0 <= k <= MAX_EXPONENT:
            raise OverflowError(f"exponent {k} outside 0..{MAX_EXPONENT}")
        key = key << BITS | k
    return key


def _shifts(nvars):
    """Bit offset of each variable's field, first variable first."""
    return [(nvars - 1 - i) * BITS for i in range(nvars)]


def _guard_mask(nvars):
    return ((1 << nvars * BITS) - 1) // _FIELD << (BITS - 1)


def add_terms(out, items):
    """Add (key, coefficient) pairs into ``out`` in place; a zero sum
    is never stored.  A key may arrive with a zero coefficient it never
    had (a matrix product such as E11 * E22), hence ``pop``."""
    get = out.get
    for k, c in items:
        s = get(k)
        s = c if s is None else s + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class CouplingPolynomial:
    """Polynomial over exponent tuples of fixed length ``nvars``."""

    # _c maps packed keys to int numerators over the denominator _den
    __slots__ = ("nvars", "_c", "_den", "_terms", "_compiled")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self._terms = None
        self._compiled = None
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
        p._compiled = None
        return p

    @property
    def terms(self):
        """Exponent tuple -> Fraction, a read-only view built on first
        access.  No path of the package reads it: only bench/spans.py
        and the tests do."""
        t = self._terms
        if t is None:
            t = self._terms = dict(self._sorted_terms())
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
        add_terms(out, ((k, v * fb) for k, v in other._c.items()))
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

    def __len__(self):
        """Number of stored terms."""
        return len(self._c)

    def _compile(self):
        """(float terms, exact terms, max exponents), built once.  A term
        is ``num / den`` or the int ``num`` with the ``(i, k)`` pairs of
        its nonzero exponents, in packed-key order, so a float sum does
        not depend on construction history (fresh vs deserialized).
        The float terms, read by ``evaluate_float`` (the grid) and
        ``float_lines`` (the kernels), are allocated first and together:
        interleaved, float Jacobians ran ~3% slower when they ran the loop."""
        shifts, den = list(enumerate(_shifts(self.nvars))), self._den
        items = sorted(self._c.items())
        floats = [(num / den, tuple((i, k) for i, s in shifts
                                    if (k := key >> s & _FIELD)))
                  for key, num in items]
        exact = [(num, nonzero)
                 for (_, num), (_, nonzero) in zip(items, floats)]
        mx = [max((key >> s & _FIELD for key in self._c), default=0)
              for _, s in shifts]
        self._compiled = (floats, exact, mx)
        return self._compiled

    def max_exponents(self):
        """Largest exponent of each variable over all terms."""
        return list((self._compiled or self._compile())[2])

    def evaluate(self, values):
        """Evaluate at a value vector: in floats if any value is a
        float, else exactly, as a Fraction.  No path of the package
        calls it: only bench/spans.py and the tests do."""
        if len(values) != self.nvars:
            raise ValueError("value vector length mismatch")
        floats, _, mx = self._compiled or self._compile()
        if any(map(isinstance, values, repeat(float))):
            return _sum_terms(floats, power_table(values, mx, float), 0.0)
        return self.evaluate_exact(power_table(values, mx, Fraction))

    def evaluate_exact(self, powers):
        """Evaluate exactly, as a Fraction, against a ``Fraction``
        ``power_table`` that may be shared with other polynomials."""
        exact = (self._compiled or self._compile())[1]
        return Fraction(_sum_terms(exact, powers, 0), self._den)

    def evaluate_float(self, powers):
        """Evaluate against a float ``power_table``, whose entries may
        be float64 arrays: the grid's path, and the reference that
        ``float_kernel`` reproduces."""
        return _sum_terms((self._compiled or self._compile())[0],
                          powers, 0.0)

    def float_lines(self, target):
        """Statements that set the local ``target`` to
        ``evaluate_float`` at one point, bit for bit, from the powers
        ``x{i}_{k}`` = values[i]**k: ``target = 0.0``, then ``target =
        target + c * x.. * x.. + ...``, the products and sums of
        ``_sum_terms`` in the same order.  The source holds only float
        literals and generated names; long sums are split into
        statements of ``_KERNEL_CHUNK`` terms, since the compiler
        recurses once per ``+``."""
        floats = (self._compiled or self._compile())[0]
        terms = [" * ".join([repr(c), *(power_name(i, k) for i, k in nonzero)])
                 for c, nonzero in floats]
        return [f"{target} = 0.0"] + [
            f"{target} = {target} + " + " + ".join(terms[at:at + _KERNEL_CHUNK])
            for at in range(0, len(terms), _KERNEL_CHUNK)]

    def float_kernel(self):
        """(function, argument names): ``float_lines`` as a function
        that takes the powers the polynomial reads, in the order of the
        names, and returns the same float bit for bit."""
        floats = (self._compiled or self._compile())[0]
        names = [power_name(i, k) for i, k in
                 sorted({pair for _, nonzero in floats for pair in nonzero})]
        lines = [f"def kernel({', '.join(names)}):",
                 *(f"    {line}" for line in self.float_lines("t")),
                 "    return t"]
        namespace = {}
        exec(compile("\n".join(lines), "<hfrg float kernel>", "exec"),
             namespace)
        # popped, so that no cycle through its globals keeps it alive
        return namespace.pop("kernel"), names

    # -- serialization -------------------------------------------------

    def _sorted_terms(self):
        """(exponent tuple, Fraction) pairs in exponent-tuple order."""
        shifts, den = _shifts(self.nvars), self._den
        return [(tuple(k >> s & _FIELD for s in shifts), Fraction(v, den))
                for k, v in sorted(self._c.items())]

    def to_json_obj(self):
        """Each term's exponents and reduced numerator and denominator,
        in exponent order, reduced by ``gcd`` on the packed ints."""
        shifts, den = _shifts(self.nvars), self._den
        rows = []
        for k, v in sorted(self._c.items()):
            g = gcd(v, den)
            rows.append([[k >> s & _FIELD for s in shifts],
                         str(v // g), str(den // g)])
        return {"nvars": self.nvars, "terms": rows}

    @classmethod
    def from_json_obj(cls, obj):
        terms = {}
        for e, num, den in obj["terms"]:
            terms[tuple(e)] = Fraction(int(num), int(den))
        return cls(obj["nvars"], terms)

    def __repr__(self):
        if not self._c:
            return "CouplingPolynomial(0)"
        bits = [f"{c}*x^{e}" for e, c in self._sorted_terms()]
        return "CouplingPolynomial(" + " + ".join(bits) + ")"


def power_name(i, k):
    """Name of the local holding values[i]**k in a generated kernel."""
    return f"x{i}_{k}"


def power_table(values, tops, kind):
    """Rows powers[i][k] = values[i]**k for 1 <= k <= tops[i], in
    ``kind`` (float or Fraction) arithmetic; row[0] is unused.  A
    float64 array value (a grid column) stays an array."""
    table = []
    for v, top in zip(values, tops):
        try:
            v = kind(v)
        except TypeError:   # an array column stays an array
            pass
        row = [1, v]
        for _ in range(top - 1):
            row.append(row[-1] * v)
        table.append(row)
    return table


def _sum_terms(terms, powers, total):
    """Add each coefficient times its powers onto ``total``."""
    for c, nonzero in terms:
        v = c
        for i, k in nonzero:
            v *= powers[i][k]
        total += v
    return total
