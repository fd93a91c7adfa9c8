"""One symbolic renormalization-group step.

Integrating out the fluctuation fields of one scale maps the coupling
vector to an exact rational function of itself.  :func:`rg_step` runs
the same stages for every model, driven by its ``ModelSpec``: combine
the interaction's per-image factors, integrate, re-expand the coarse
interaction degree by degree, and project onto the operator basis.
The models differ only in ``spec.combination`` (exp and log, or a
plain product) and ``spec.ring`` (rational or impurity coefficients).

The result is kept as a :class:`BetaMap`: one numerator polynomial per
coupling over a shared denominator (the free-energy normalization
raised to a per-coupling power), all with exact rational coefficients.
Numeric evaluation is a separate compiled view of the same data.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .couplings import CouplingPolynomial, power_table
from .grassmann import GrassmannPolynomial, SingularNormalization, exp_truncated
from .integration import integrate_polynomial
from .models import project_onto_basis
from .scalars import ImpurityElement


class SymmetryViolation(RuntimeError):
    """The integrated interaction left the operator basis, or its
    normalization is not a scalar."""


@dataclass(eq=False)
class BetaMap:
    """Exact coupling map l' = N_i(l) / D(l)**p_i.

    ``constant_term`` records the scale's free normalization: for the
    honeycomb model the pair (c0 polynomial, multiplier 8) meaning
    8*log(c0); for the impurity model the normalization C itself
    (multiplier 1).
    """

    model: str
    coupling_names: tuple
    numerators: tuple
    denominator: CouplingPolynomial
    denominator_powers: tuple
    constant_term: CouplingPolynomial
    constant_multiplier: int

    @property
    def n(self):
        return len(self.coupling_names)

    @property
    def term_count(self):
        return sum(len(p) for p in self.numerators)

    # -- numeric views --------------------------------------------------

    @functools.cached_property
    def _max_exps(self):
        """Tops of the one power table that every polynomial of the map
        shares; derivatives never exceed the originals' exponents."""
        mx = [0] * self.n
        for poly in (*self.numerators, self.denominator):
            mx = list(map(max, mx, poly.max_exponents()))
        return mx

    @functools.cached_property
    def _dnum(self):
        return [[num.derivative(j) for j in range(self.n)]
                for num in self.numerators]

    @functools.cached_property
    def _dden(self):
        return [self.denominator.derivative(j) for j in range(self.n)]

    def _at(self, values):
        """Prologue of ``evaluate`` and ``jacobian``: check the length,
        pick exact (Fraction) or float evaluation, and return (unbound
        evaluator, its argument, denominator), raising if the
        normalization vanishes.  A closure measured ~10% slower."""
        values = list(values)
        if len(values) != self.n:
            raise ValueError(f"expected {self.n} couplings, got {len(values)}")
        if any(map(isinstance, values, repeat(float))):
            ev, at = CouplingPolynomial.evaluate_float, \
                power_table(values, self._max_exps, float)
        else:
            ev, at = CouplingPolynomial.evaluate, values
        den = ev(self.denominator, at)
        if not den:
            raise SingularNormalization(
                f"normalization vanishes at {values}")
        return ev, at, den

    def evaluate(self, values):
        """Evaluate the map; exact on Fraction inputs, float on floats."""
        ev, at, den = self._at(values)
        return [ev(num, at) / den ** p
                for num, p in zip(self.numerators, self.denominator_powers)]

    def evaluate_columns(self, columns, components):
        """Denominator and numerators of ``components`` at ``columns``
        (floats or float64 arrays), by the scalar path's arithmetic."""
        powers = power_table(columns, self._max_exps, float)
        return (self.denominator.evaluate_float(powers),
                *(self.numerators[c].evaluate_float(powers)
                  for c in components))

    def jacobian(self, values):
        """d l'_i / d l_j by the quotient rule on the exact polynomials."""
        ev, at, den = self._at(values)
        dden_vals = [ev(d, at) for d in self._dden]
        rows = []
        for dnum_i, num, p in zip(self._dnum, self.numerators,
                                  self.denominator_powers):
            nv = ev(num, at)
            scale = den ** (p + 1)
            rows.append([(ev(dn, at) * den - nv * p * ddv) / scale
                         for dn, ddv in zip(dnum_i, dden_vals)])
        return rows

    # -- serialization ---------------------------------------------------

    def to_json_obj(self):
        return {
            "model": self.model,
            "coupling_names": list(self.coupling_names),
            "numerators": [p.to_json_obj() for p in self.numerators],
            "denominator": self.denominator.to_json_obj(),
            "denominator_powers": list(self.denominator_powers),
            "constant_term": self.constant_term.to_json_obj(),
            "constant_multiplier": self.constant_multiplier,
            "term_count": self.term_count,
        }

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        return cls(
            model=obj["model"],
            coupling_names=tuple(obj["coupling_names"]),
            numerators=tuple(CouplingPolynomial.from_json_obj(p)
                             for p in obj["numerators"]),
            denominator=CouplingPolynomial.from_json_obj(obj["denominator"]),
            denominator_powers=tuple(obj["denominator_powers"]),
            constant_term=CouplingPolynomial.from_json_obj(
                obj["constant_term"]),
            constant_multiplier=obj["constant_multiplier"],
        )


# ---------------------------------------------------------------- the step


def _formal_interaction(spec):
    """sum_i l_i O_i with formal coupling variables as coefficients."""
    n = spec.n_couplings
    w = GrassmannPolynomial()
    for i, poly in enumerate(spec.basis.polys):
        w = w + poly.scale(CouplingPolynomial.variable(n, i))
    return w


UNITS = {"rational": Fraction(1), "impurity": ImpurityElement.one()}


def rg_step(spec):
    """Integrate one scale of the model ``spec`` describes.

    1. Combine: the per-image factor of the formal interaction
       v = sum_i l_i O_i, exp(v) for ``combination`` "exp-log" and
       1 + v for "product", is substituted with each field split of
       ``spec.images`` and the factors are multiplied.  Substitution
       is a ring homomorphism, so exponentiating before substituting
       is exact and much cheaper.
    2. Integrate out the fluctuation fields, leaving c0 + w.  The
       normalization c0 must be a coupling polynomial (over the
       ``impurity`` ring, a scalar matrix of one) with constant term 1.
    3. Re-expand per Grassmann degree d over the denominator c0 ** p:
       for "exp-log" replication * log(c0 + w), a log series with
       p = d/2, so every numerator stays an exact polynomial; for
       "product" w / c0, with p = 1 and multiplier 1.
    4. Project each degree onto that degree's basis operators; any
       residual raises :class:`SymmetryViolation`.
    """
    n = spec.n_couplings
    if spec.ring not in UNITS:
        raise ValueError(f"unknown coefficient ring {spec.ring!r}")
    one = UNITS[spec.ring] * CouplingPolynomial.constant(n, 1)
    v = _formal_interaction(spec)
    if spec.combination == "exp-log":
        factor = exp_truncated(v, one=one)
        power, multiplier = (lambda d: d // 2), spec.replication
    elif spec.combination == "product":
        factor = GrassmannPolynomial.scalar(one) + v
        power, multiplier = (lambda d: 1), 1
    else:
        raise ValueError(f"unknown combination {spec.combination!r}")
    r = integrate_polynomial(
        spec.universe, spec.propagator,
        functools.reduce(operator.mul,
                         (factor.substitute(img) for img in spec.images)))

    craw = r.constant_term()
    c0 = craw
    if spec.ring == "impurity":
        if not craw.is_scalar():
            raise SymmetryViolation("normalization has spin components")
        c0 = craw.entries[0]
    if c0.constant_coefficient() != 1:
        raise SymmetryViolation("free normalization differs from 1")
    w = r - GrassmannPolynomial.scalar(craw)

    groups = {mask.bit_count(): [] for mask in w.terms}
    for i, poly in enumerate(spec.basis.polys):
        groups.setdefault(poly.max_degree(), []).append(i)
    powers = {1: w}
    for k in range(2, power(max(groups)) + 1):
        powers[k] = powers[k - 1] * w

    numerators = [None] * n
    denom_powers = [0] * n
    for d, idxs in sorted(groups.items()):
        p = power(d)
        series = GrassmannPolynomial()
        for k in range(1, p + 1):
            part = powers[k].degree_part(d)
            if not part.terms:
                continue
            scale = c0 ** (p - k) * Fraction((-1) ** (k + 1) * multiplier, k)
            series = series + part.scale(scale)
        coeffs, residual = project_onto_basis(
            series, [spec.basis.polys[i] for i in idxs])
        if residual.terms:
            raise SymmetryViolation(
                f"degree-{d} output leaves the operator basis "
                f"(stray masks {sorted(residual.terms)[:4]})")
        for i, c in zip(idxs, coeffs):
            numerators[i] = c if isinstance(c, CouplingPolynomial) \
                else CouplingPolynomial.constant(n, c)
            denom_powers[i] = p

    return BetaMap(
        model=spec.name,
        coupling_names=spec.coupling_names,
        numerators=tuple(numerators),
        denominator=c0,
        denominator_powers=tuple(denom_powers),
        constant_term=c0,
        constant_multiplier=multiplier,
    )
