"""One symbolic renormalization-group step.

Integrating out the fluctuation fields of one scale maps the coupling
vector to an exact rational function of itself.  The result is kept as
a :class:`BetaMap`: one numerator polynomial per coupling over a shared
denominator (the free-energy normalization raised to a per-coupling
power), all with exact rational coefficients.  Numeric evaluation is a
separate compiled view of the same data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .couplings import CouplingPolynomial
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
    _dnum: list = field(default=None, repr=False, compare=False)
    _dden: list = field(default=None, repr=False, compare=False)
    _max_exps: list = field(default=None, repr=False, compare=False)

    @property
    def n(self):
        return len(self.coupling_names)

    @property
    def term_count(self):
        return sum(len(p.terms) for p in self.numerators)

    # -- numeric views --------------------------------------------------

    def _power_table(self, values):
        """Shared table powers[i][k] = values[i]**k for the float path;
        derivatives never exceed the originals' exponents.  A value may
        be a float64 array (a grid column)."""
        if self._max_exps is None:
            mx = [0] * self.n
            for poly in (*self.numerators, self.denominator):
                for i, k in enumerate(poly.max_exponents()):
                    if k > mx[i]:
                        mx[i] = k
            self._max_exps = mx
        table = []
        for v, top in zip(values, self._max_exps):
            try:
                v = float(v)
            except TypeError:   # an array column stays an array
                pass
            row = [1.0] * (top + 1)
            for k in range(1, top + 1):
                row[k] = row[k - 1] * v
            table.append(row)
        return table

    def evaluate(self, values):
        """Evaluate the map; exact on Fraction inputs, float on floats."""
        values = list(values)
        if len(values) != self.n:
            raise ValueError(f"expected {self.n} couplings, got {len(values)}")
        if any(isinstance(v, float) for v in values):
            powers = self._power_table(values)
            den = self.denominator.evaluate_float(powers)
            if den == 0.0:
                raise SingularNormalization(
                    f"normalization vanishes at {values}")
            return [num.evaluate_float(powers) / den ** p
                    for num, p in zip(self.numerators,
                                      self.denominator_powers)]
        den = self.denominator.evaluate(values)
        if not den:
            raise SingularNormalization(
                f"normalization vanishes at {values}")
        return [num.evaluate(values) / den ** p
                for num, p in zip(self.numerators, self.denominator_powers)]

    def evaluate_columns(self, columns, components):
        """Denominator and numerators of ``components`` at ``columns``
        (floats or float64 arrays), by the scalar path's arithmetic."""
        powers = self._power_table(columns)
        return (self.denominator.evaluate_float(powers),
                *(self.numerators[c].evaluate_float(powers)
                  for c in components))

    def _derivatives(self):
        if self._dnum is None:
            self._dnum = [[num.derivative(j) for j in range(self.n)]
                          for num in self.numerators]
            self._dden = [self.denominator.derivative(j)
                          for j in range(self.n)]
        return self._dnum, self._dden

    def jacobian(self, values):
        """d l'_i / d l_j by the quotient rule on the exact polynomials."""
        values = list(values)
        dnum, dden = self._derivatives()
        if any(isinstance(v, float) for v in values):
            powers = self._power_table(values)
            den = self.denominator.evaluate_float(powers)
            if den == 0.0:
                raise SingularNormalization(
                    f"normalization vanishes at {values}")
            dden_vals = [d.evaluate_float(powers) for d in dden]
            rows = []
            for i, (num, p) in enumerate(zip(self.numerators,
                                             self.denominator_powers)):
                nv = num.evaluate_float(powers)
                scale = den ** (p + 1)
                rows.append([(dnum[i][j].evaluate_float(powers) * den
                              - nv * p * dden_vals[j]) / scale
                             for j in range(self.n)])
            return rows
        den = self.denominator.evaluate(values)
        if not den:
            raise SingularNormalization(
                f"normalization vanishes at {values}")
        rows = []
        for i, (num, p) in enumerate(zip(self.numerators,
                                         self.denominator_powers)):
            nv = num.evaluate(values)
            row = []
            for j in range(self.n):
                row.append((dnum[i][j].evaluate(values) * den
                            - nv * p * dden[j].evaluate(values))
                           / den ** (p + 1))
            rows.append(row)
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
        exps = tuple(1 if j == i else 0 for j in range(n))
        w = w + poly.map_coefficients(
            lambda c, e=exps: CouplingPolynomial(n, {e: c}))
    return w


def rg_step_graphene(spec):
    """Integrate one scale of the honeycomb model.

    The effective interaction of the coarser scale is
    8 * log( integral of exp(v) ) with the field split into fluctuation
    plus half the coarse field.  The interaction is nilpotent over the
    eight coarse generators, so exp is exact; exponentiating before
    substituting equals substituting first (substitution is a ring
    homomorphism, covered by a property test) and is much cheaper.
    The log series is assembled per Grassmann degree with powers of the
    constant term c0 kept as an explicit denominator, so every
    numerator stays an exact rational polynomial.
    """
    if spec.name != "graphene":
        raise ValueError("expected the graphene spec")
    n = spec.n_couplings
    v = _formal_interaction(spec)
    one = CouplingPolynomial.constant(n, Fraction(1))
    ev = exp_truncated(v, one=one)
    w = integrate_polynomial(spec.universe, spec.propagator,
                             ev.substitute(spec.images[0]))

    c0 = w.constant_term()
    if c0.constant_coefficient() != 1:
        raise SymmetryViolation("free normalization differs from 1")
    wp = w - GrassmannPolynomial.scalar(c0)
    powers = {1: wp}
    degrees = sorted({p.max_degree() for p in spec.basis.polys})
    max_k = degrees[-1] // 2
    for k in range(2, max_k + 1):
        powers[k] = powers[k - 1] * wp

    groups = {}
    for i, poly in enumerate(spec.basis.polys):
        groups.setdefault(poly.max_degree(), []).append(i)

    numerators = [None] * n
    denom_powers = [0] * n
    for d, idxs in sorted(groups.items()):
        p = d // 2
        series = GrassmannPolynomial()
        for k in range(1, p + 1):
            part = powers[k].degree_part(d)
            if not part.terms:
                continue
            factor = (c0 ** (p - k)) \
                * Fraction((-1) ** (k + 1) * spec.replication, k)
            series = series + part.map_coefficients(
                lambda q, f=factor: q * f)
        coeffs, residual = project_onto_basis(
            series, [spec.basis.polys[i] for i in idxs])
        if residual.terms:
            raise SymmetryViolation(
                f"degree-{d} output leaves the operator basis "
                f"(stray masks {sorted(residual.terms)[:4]})")
        for i, c in zip(idxs, coeffs):
            if not isinstance(c, CouplingPolynomial):
                c = CouplingPolynomial.constant(n, c)
            numerators[i] = c
            denom_powers[i] = p

    return BetaMap(
        model=spec.name,
        coupling_names=spec.coupling_names,
        numerators=tuple(numerators),
        denominator=c0,
        denominator_powers=tuple(denom_powers),
        constant_term=c0,
        constant_multiplier=spec.replication,
    )


def rg_step_kondo(spec):
    """Integrate one scale of the impurity model.

    Both half-box fluctuation factors share the coarse field (see
    ``kondo_model`` for its rational split); their product is integrated
    jointly over M2(Q) and written as C * (1 + sum_i l'_i O_i).  C is
    the coefficient of the empty monomial; a coefficient of it that is
    not a scalar matrix is a hard error.  The numerators come out with
    total degree at most 2, so dividing by C = 1 + O(l^2) as a
    truncated series leaves them unchanged; the map is stored as the
    exact rational pair (numerators, C).
    """
    if spec.name != "kondo":
        raise ValueError("expected the kondo spec")
    n = spec.n_couplings
    w = _formal_interaction(spec)
    one = GrassmannPolynomial.scalar(
        CouplingPolynomial.constant(n, ImpurityElement.one()))
    f = one
    for img in spec.images:
        f = f * (one + w.substitute(img))
    r = integrate_polynomial(spec.universe, spec.propagator, f)

    craw = r.constant_term()
    cterms = {}
    for e, c in craw.terms.items():
        if not c.is_scalar():
            raise SymmetryViolation("normalization has spin components")
        cterms[e] = c.entries[0]
    cpoly = CouplingPolynomial(n, cterms)
    if cpoly.constant_coefficient() != 1:
        raise SymmetryViolation("free normalization differs from 1")

    rest = r - GrassmannPolynomial.scalar(craw)
    coeffs, residual = project_onto_basis(rest, spec.basis)
    if residual.terms:
        raise SymmetryViolation(
            f"output leaves the operator basis "
            f"(stray masks {sorted(residual.terms)[:4]})")
    numerators = [c if isinstance(c, CouplingPolynomial)
                  else CouplingPolynomial.constant(n, c) for c in coeffs]

    return BetaMap(
        model=spec.name,
        coupling_names=spec.coupling_names,
        numerators=tuple(numerators),
        denominator=cpoly,
        denominator_powers=(1,) * n,
        constant_term=cpoly,
        constant_multiplier=1,
    )


def rg_step(spec):
    if spec.name == "graphene":
        return rg_step_graphene(spec)
    if spec.name == "kondo":
        return rg_step_kondo(spec)
    raise ValueError(f"unknown model {spec.name!r}")
