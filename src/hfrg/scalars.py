"""Exact scalar rings for the symbolic RG engine.

* ``ImpurityElement``: the impurity spin algebra span{1, S1, S2, S3},
  which is the full matrix ring M2(R), stored in the matrix-unit basis
  with E_ab E_cd = delta_bc E_ad.  R is Q for the operator basis and
  Q[l], the coupling polynomials, inside the RG step, so each entry is
  a ``Fraction`` or a ``CouplingPolynomial``.
* ``GaussianRational``: a + b*i with Fraction components.
* ``RootTwo``: x + y*sqrt(2) with GaussianRational components.

The models use only ``ImpurityElement``; the other two stay importable
for code outside the package that names them.  Plain ``int`` and
``fractions.Fraction`` interoperate with all three from either side, so
polynomial code can stay ring-agnostic, and an element equal to a
Fraction hashes like it.  Coupling polynomials are central scalars of
``ImpurityElement`` as well.
"""

from __future__ import annotations

from fractions import Fraction

from .couplings import CouplingPolynomial


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return None


_ZERO_FRACTION = Fraction(0)


class GaussianRational:
    """Exact complex rational a + b*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        if type(im) is Fraction:
            self.im = im
        else:
            self.im = _ZERO_FRACTION if im == 0 else Fraction(im)

    @classmethod
    def _lift(cls, x):
        if isinstance(x, cls):
            return x
        f = _as_fraction(x)
        return None if f is None else cls(f)

    def __add__(self, other):
        other = GaussianRational._lift(other)
        if other is None:
            return NotImplemented
        if not self.im and not other.im:
            return GaussianRational(self.re + other.re)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = GaussianRational._lift(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = GaussianRational._lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = GaussianRational._lift(other)
        if other is None:
            return NotImplemented
        # purely real factors dominate in practice; skip the cross terms
        if not self.im:
            if not other.im:
                return GaussianRational(self.re * other.re)
            return GaussianRational(self.re * other.re, self.re * other.im)
        if not other.im:
            return GaussianRational(self.re * other.re, self.im * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational._lift(other)
        if other is None:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return self * GaussianRational(other.re / n, -other.im / n)

    def __rtruediv__(self, other):
        other = GaussianRational._lift(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other):
        other = GaussianRational._lift(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


I_UNIT = GaussianRational(0, 1)
_GR_TWO = GaussianRational(2)


class RootTwo:
    """Exact element x + y*sqrt(2), x and y Gaussian rationals."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if isinstance(a, GaussianRational) else GaussianRational(a)
        self.b = b if isinstance(b, GaussianRational) else GaussianRational(b)

    @classmethod
    def _lift(cls, x):
        if isinstance(x, cls):
            return x
        if isinstance(x, GaussianRational):
            return cls(x)
        f = _as_fraction(x)
        return None if f is None else cls(GaussianRational(f))

    @classmethod
    def half_power_of_two(cls, k):
        """2**(k/2) for integer k, e.g. k=-1 gives sqrt(2)/2."""
        if k % 2 == 0:
            return cls(GaussianRational(Fraction(2) ** (k // 2)))
        return cls(0, GaussianRational(Fraction(2) ** ((k - 1) // 2)))

    def __add__(self, other):
        other = RootTwo._lift(other)
        if other is None:
            return NotImplemented
        return RootTwo(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return RootTwo(-self.a, -self.b)

    def __sub__(self, other):
        other = RootTwo._lift(other)
        if other is None:
            return NotImplemented
        return RootTwo(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = RootTwo._lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = RootTwo._lift(other)
        if other is None:
            return NotImplemented
        # rational factors dominate in practice; skip the radical terms
        if not self.b:
            if not other.b:
                return RootTwo(self.a * other.a)
            return RootTwo(self.a * other.a, self.a * other.b)
        if not other.b:
            return RootTwo(self.a * other.a, self.b * other.a)
        return RootTwo(
            self.a * other.a + _GR_TWO * (self.b * other.b),
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RootTwo._lift(other)
        if other is None:
            return NotImplemented
        # multiply by the sqrt(2)-conjugate, then divide by the norm a^2 - 2 b^2
        n = other.a * other.a - 2 * (other.b * other.b)
        if not n:
            raise ZeroDivisionError("division by zero RootTwo")
        return RootTwo((self.a * other.a - 2 * (self.b * other.b)) / n,
                       (self.b * other.a - self.a * other.b) / n)

    def __rtruediv__(self, other):
        other = RootTwo._lift(other)
        if other is None:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = RootTwo._lift(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def is_rational(self):
        return not self.b and not self.a.im

    def rational_part(self):
        return self.a.re

    def __complex__(self):
        return complex(self.a) + complex(self.b) * (2.0 ** 0.5)

    def __repr__(self):
        return f"RootTwo({self.a!r}, {self.b!r})"


_new = object.__new__


def _element(entries):
    x = _new(ImpurityElement)
    x.entries = entries
    return x


# Most entries in the kondo step are zero; skipping them saves the
# Fraction arithmetic, which dominates the cost of the ring.
def _sum(x, y):
    return x + y if x and y else x or y


def _dot(x, y, z, w):
    """x*y + z*w, skipping products with a zero factor."""
    if x and y:
        return x * y + z * w if z and w else x * y
    return z * w if z and w else _ZERO_FRACTION


_ZEROS = (_ZERO_FRACTION,) * 4
# the scalars of M2(R): they commute with every entry
_CENTRAL = (int, Fraction, CouplingPolynomial)
_ENTRY = (Fraction, CouplingPolynomial)


class ImpurityElement:
    """Element [[a, b], [c, d]] = a E_11 + b E_12 + c E_21 + d E_22 of
    M2(R); index 1 is spin up, 2 is spin down.

    In the Pauli basis the same element is c0 + c1 S1 + c2 S2 + c3 S3
    with S_j the Pauli matrices, see ``pauli_components``.  A scalar
    (int, Fraction or CouplingPolynomial) lifts to the scalar matrix.
    Products skip zero entries, and scaling leaves them as they are.
    """

    __slots__ = ("entries",)

    def __init__(self, a, b, c, d):
        self.entries = tuple(x if isinstance(x, _ENTRY) else Fraction(x)
                             for x in (a, b, c, d))

    @classmethod
    def scalar(cls, x):
        x = x if isinstance(x, _ENTRY) else Fraction(x)
        return _element((x, _ZERO_FRACTION, _ZERO_FRACTION, x))

    @classmethod
    def one(cls):
        return cls.scalar(1)

    @classmethod
    def unit(cls, row, col):
        """The matrix unit E_{row+1, col+1}, row and col in {0, 1}."""
        entries = [_ZERO_FRACTION] * 4
        entries[2 * row + col] = Fraction(1)
        return _element(tuple(entries))

    @staticmethod
    def _lift(x):
        """Entries of an element or of a lifted scalar; None otherwise."""
        if type(x) is ImpurityElement:
            return x.entries
        if isinstance(x, _CENTRAL):
            if not x:
                return _ZEROS
            if isinstance(x, int):
                x = Fraction(x)
            return (x, _ZERO_FRACTION, _ZERO_FRACTION, x)
        return None

    def __add__(self, other):
        y = ImpurityElement._lift(other)
        if y is None:
            return NotImplemented
        a, b, c, d = self.entries
        return _element((_sum(a, y[0]), _sum(b, y[1]), _sum(c, y[2]),
                         _sum(d, y[3])))

    __radd__ = __add__

    def __neg__(self):
        a, b, c, d = self.entries
        return _element((-a, -b, -c, -d))

    def __sub__(self, other):
        y = ImpurityElement._lift(other)
        if y is None:
            return NotImplemented
        a, b, c, d = self.entries
        return _element((a - y[0], b - y[1], c - y[2], d - y[3]))

    def __rsub__(self, other):
        return -self + other

    def _scaled(self, s):
        """Every entry times the central scalar ``s``; zeros stay."""
        return _element(tuple(x * s if x else x for x in self.entries))

    def __mul__(self, other):
        if type(other) is not ImpurityElement:
            if isinstance(other, _CENTRAL):
                return self._scaled(other)
            return NotImplemented
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return _element((_dot(a, e, b, g), _dot(a, f, b, h),
                         _dot(c, e, d, g), _dot(c, f, d, h)))

    def __rmul__(self, other):
        if isinstance(other, _CENTRAL):
            return self._scaled(other)
        return NotImplemented

    def __eq__(self, other):
        y = ImpurityElement._lift(other)
        if y is None:
            return NotImplemented
        return self.entries == y

    def is_scalar(self):
        a, b, c, d = self.entries
        return not b and not c and a == d

    def __hash__(self):
        return hash(self.entries[0]) if self.is_scalar() \
            else hash(self.entries)

    def __bool__(self):
        return any(self.entries)

    def pauli_components(self):
        """(c0, c1, y, c3) with self = c0 + c1 S1 + i*y S2 + c3 S3; the
        S2 coordinate i*(b - c)/2 is the only imaginary one."""
        a, b, c, d = self.entries
        return ((a + d) / 2, (b + c) / 2, (b - c) / 2, (a - d) / 2)

    def __repr__(self):
        return f"ImpurityElement{self.entries!r}"
