"""One symbolic renormalization-group step.

Integrating out the fluctuation fields of one scale maps the coupling
vector to an exact rational function of itself.  :func:`rg_step` runs
the same stages for every model, driven by its ``ModelSpec``: combine
the interaction's per-image factors, integrate, re-expand the coarse
interaction degree by degree, and project onto the operator basis.
The models differ only in ``spec.combination`` (exp and log, or a
plain product) and ``spec.ring`` (rational or impurity coefficients).
For exp and log, the coarse interaction is the logarithm of the
integral, its connected part; the step takes it by the recursion of
its degree derivative, F * D log F = D F (the moment-cumulant
recursion), so each degree is built from the lower degrees' connected
parts and no disconnected product is built only to cancel.

The result is kept as a :class:`BetaMap`: one numerator polynomial per
coupling over a shared denominator (the free-energy normalization
raised to a per-coupling power), all with exact rational coefficients.
Numeric evaluation is a separate view of the same data.  At one float
point, ``evaluate`` and ``jacobian`` run straight-line code generated on
first use: one compiled function per polynomial and one per method that
builds the powers and divides.  It repeats the per-term loop's float
operations in the same order, so its values are bit-identical to that
loop's.  ``flow_loop`` generates a flow's whole orbit the same way:
one function per map whose loop runs the same statements step after
step, with each polynomial's body written in place rather than called,
and tests each step's exits with chained comparisons.  Exact values and
the grid's float64 columns run the loop.

The step's output never changes, so the package ships each model's map
as the JSON text ``rg_step`` writes (``data/betamap_<model>.json``).
:func:`shipped_map` reads it in a small fraction of the time the
graphene step takes; :func:`verify_shipped_maps` derives both again and
compares them byte for byte.  Only those two derive, so they import
``hfrg.integration``, ``hfrg.models`` and ``hfrg.scalars`` when called:
reading and iterating a shipped map loads none of them.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path

from .couplings import CouplingPolynomial, power_name, power_table
from .grassmann import GrassmannPolynomial, SingularNormalization, exp_truncated


class SymmetryViolation(RuntimeError):
    """The integrated interaction left the operator basis, or its
    normalization is not a scalar."""


@dataclass(eq=False)
class BetaMap:
    """Exact coupling map l' = N_i(l) / D(l)**p_i.

    D is the scale's free normalization c0, which the JSON form also
    writes under ``constant_term``.  ``constant_multiplier`` is 8 for
    the honeycomb model, meaning 8*log(c0), and 1 for the impurity
    model, meaning the normalization itself.
    """

    model: str
    coupling_names: tuple
    numerators: tuple
    denominator: CouplingPolynomial
    denominator_powers: tuple
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

    @functools.cached_property
    def _value_kernels(self):
        """Float kernels of the denominator, then of each numerator."""
        return [p.float_kernel() for p in (self.denominator, *self.numerators)]

    @functools.cached_property
    def _slope_kernels(self):
        """Float kernels of the denominator's derivatives, then of each
        numerator's, row by row."""
        return [p.float_kernel()
                for p in (*self._dden, *chain(*self._dnum))]

    @functools.cached_property
    def float_kernel(self):
        """``evaluate`` at one float point, as one generated function.

        It skips the length and type checks, which ``evaluate`` makes
        with :meth:`as_point` before calling it."""
        namespace = {}
        den, *nums = _calls(self._value_kernels, "k", namespace)
        return _link(self._max_exps, namespace, den, [
            "return [" + ", ".join(
                f"{num} / d ** {p}"
                for num, p in zip(nums, self.denominator_powers)) + "]"])

    @functools.cached_property
    def _float_jacobian(self):
        """``jacobian`` at one float point, as one generated function."""
        n, namespace = self.n, {}
        den, *nums = _calls(self._value_kernels, "k", namespace)
        slopes = _calls(self._slope_kernels, "s", namespace)
        body = [f"e{j} = {dd}" for j, dd in enumerate(slopes[:n])]
        for i, (num, p) in enumerate(zip(nums, self.denominator_powers)):
            row = slopes[n * (i + 1):n * (i + 2)]
            body += [f"n = {num}",
                     f"s = d ** {p + 1}",
                     f"r{i} = [" + ", ".join(
                         f"({dn} * d - n * {p} * e{j}) / s"
                         for j, dn in enumerate(row)) + "]"]
        body.append("return [" + ", ".join(f"r{i}" for i in range(n)) + "]")
        return _link(self._max_exps, namespace, den, body)

    @functools.cached_property
    def flow_loop(self):
        """The orbit loop of ``flows.iterate_flow``, as one generated
        function ``flow_loop(values, max_steps, tol, cutoff, errors)``
        that returns ``(points, termination)``.

        The couplings stay in the locals ``v{i}``.  Each step runs the
        prologue of ``float_kernel`` and its quotients into ``w{i}``,
        with the ``float_lines`` of each polynomial in place of a call
        to its kernel, so a step makes no call per polynomial and the
        orbit has ``evaluate``'s bits.  A step that raises one of
        ``errors`` or gives a non-finite value ends the orbit as
        "diverged" before it is appended; one past ``cutoff`` in the
        max norm does so after.  A step that moves every coupling by
        less than ``tol`` ends it as "converged".  From a finite start
        every compared value is finite, so the chained comparisons
        equal those max-norm tests."""
        n = self.n
        vs, ws = (" ".join(f"{c}{i}," for i in range(n)) for c in "vw")
        step = _prologue(self._max_exps, self.denominator.float_lines("d"))
        for i, (num, p) in enumerate(zip(self.numerators,
                                         self.denominator_powers)):
            step += [*num.float_lines("t"), f"w{i} = t / d ** {p}"]
        step += ["if not (" + " and ".join(
                     f"lo <= w{i} <= cutoff" for i in range(n)) + "):",
                 "    if " + " and ".join(
                     f"isfinite(w{i})" for i in range(n)) + ":",
                 f"        points.append((index, ({ws})))",
                 "    return points, 'diverged'",
                 f"points.append((index, ({ws})))",
                 "if " + " and ".join(
                     f"-tol < w{i} - v{i} < tol" for i in range(n)) + ":",
                 "    return points, 'converged'",
                 f"{vs} = {ws}"]
        lines = [f"points = [(0, ({vs}))]",
                 "lo = -cutoff",
                 "try:",
                 "    for index in range(-1, -max_steps - 1, -1):",
                 *(f"        {line}" for line in step),
                 "except errors:",
                 "    return points, 'diverged'",
                 "return points, 'max steps'"]
        return _compile(n, "values, max_steps, tol, cutoff, errors", lines,
                        {"isfinite": math.isfinite})

    def as_point(self, values):
        """``values`` as a list, raising ValueError unless it holds one
        value per coupling."""
        values = list(values)
        if len(values) != self.n:
            raise ValueError(f"expected {self.n} couplings, got {len(values)}")
        return values

    def _at(self, values):
        """Exact prologue of ``evaluate`` and ``jacobian``: one shared
        ``Fraction`` power table and the denominator's value, raising
        if the normalization vanishes."""
        at = power_table(values, self._max_exps, Fraction)
        den = self.denominator.evaluate_exact(at)
        if not den:
            raise _singular(values)
        return at, den

    def evaluate(self, values):
        """Evaluate the map: exactly on int and Fraction inputs; in
        floats if any value is a float, by the generated kernel, whose
        values are bit-identical to the per-term loop over a float
        ``power_table``."""
        values = self.as_point(values)
        if any(map(isinstance, values, repeat(float))):
            return self.float_kernel(values)
        at, den = self._at(values)
        return [num.evaluate_exact(at) / den ** p
                for num, p in zip(self.numerators, self.denominator_powers)]

    def evaluate_columns(self, columns, components):
        """Denominator and numerators of ``components`` at ``columns``
        (floats or float64 arrays), by the scalar path's arithmetic."""
        powers = power_table(columns, self._max_exps, float)
        return (self.denominator.evaluate_float(powers),
                *(self.numerators[c].evaluate_float(powers)
                  for c in components))

    def jacobian(self, values):
        """d l'_i / d l_j by the quotient rule on the exact polynomials,
        ``(dn * d - n * p * dd) / d ** (p + 1)``; exact or by a
        generated float kernel, as in ``evaluate``."""
        values = self.as_point(values)
        if any(map(isinstance, values, repeat(float))):
            return self._float_jacobian(values)
        at, den = self._at(values)
        dden_vals = [d.evaluate_exact(at) for d in self._dden]
        rows = []
        for dnum_i, num, p in zip(self._dnum, self.numerators,
                                  self.denominator_powers):
            nv = num.evaluate_exact(at)
            scale = den ** (p + 1)
            rows.append([(dn.evaluate_exact(at) * den - nv * p * ddv) / scale
                         for dn, ddv in zip(dnum_i, dden_vals)])
        return rows

    # -- serialization ---------------------------------------------------

    def to_json_obj(self):
        denominator = self.denominator.to_json_obj()
        return {
            "model": self.model,
            "coupling_names": list(self.coupling_names),
            "numerators": [p.to_json_obj() for p in self.numerators],
            "denominator": denominator,
            "denominator_powers": list(self.denominator_powers),
            "constant_term": denominator,
            "constant_multiplier": self.constant_multiplier,
            "term_count": self.term_count,
        }

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        """Read ``to_json`` text; raises ValueError when its
        ``constant_term`` differs from its ``denominator``."""
        obj = json.loads(text)
        if obj["constant_term"] != obj["denominator"]:
            raise ValueError("constant_term differs from denominator")
        return cls(
            model=obj["model"],
            coupling_names=tuple(obj["coupling_names"]),
            numerators=tuple(CouplingPolynomial.from_json_obj(p)
                             for p in obj["numerators"]),
            denominator=CouplingPolynomial.from_json_obj(obj["denominator"]),
            denominator_powers=tuple(obj["denominator_powers"]),
            constant_multiplier=obj["constant_multiplier"],
        )


def _singular(values):
    return SingularNormalization(f"normalization vanishes at {values}")


def _calls(kernels, prefix, namespace):
    """Call expressions of polynomial kernels, binding kernel j in
    ``namespace`` as ``{prefix}{j}``."""
    calls = []
    for j, (fn, args) in enumerate(kernels):
        namespace[f"{prefix}{j}"] = fn
        calls.append(f"{prefix}{j}({', '.join(args)})")
    return calls


def _prologue(tops, den):
    """Lines that set the power locals ``x{i}_{k}`` from the coupling
    locals ``v{i}`` by ``power_table``'s repeated products, then the
    lines ``den``, which set ``d``, then raise if it vanishes."""
    lines = []
    for i, top in enumerate(tops):
        lines.append(f"{power_name(i, 1)} = float(v{i})")
        lines += [f"{power_name(i, k)} = {power_name(i, k - 1)} * "
                  f"{power_name(i, 1)}" for k in range(2, top + 1)]
    return lines + [*den, "if not d:", "    raise _singular(values)"]


def _compile(n, params, lines, namespace):
    """Compile ``def kernel(params)`` over the polynomial kernels bound
    in ``namespace``: unpack ``values`` into the coupling locals ``v0``
    .. ``v{n-1}``, then run ``lines``."""
    lines = [f"{''.join(f'v{i}, ' for i in range(n))}= values", *lines]
    source = f"def kernel({params}):\n" + "".join(f"    {line}\n"
                                                 for line in lines)
    namespace["_singular"] = _singular
    exec(compile(source, "<hfrg map kernel>", "exec"), namespace)
    # popped, so that no cycle through its globals keeps it alive
    return namespace.pop("kernel")


def _link(tops, namespace, den, body):
    """Compile ``kernel(values)``: the ``_prologue`` with ``d`` set by
    the call ``den``, then the lines of ``body``."""
    return _compile(len(tops), "values",
                    [*_prologue(tops, [f"d = {den}"]), *body], namespace)


# ---------------------------------------------------------------- the step


def _formal_interaction(spec):
    """sum_i l_i O_i with formal coupling variables as coefficients."""
    n = spec.n_couplings
    w = GrassmannPolynomial()
    for i, poly in enumerate(spec.basis.polys):
        w = w + poly.scale(CouplingPolynomial.variable(n, i))
    return w


def _log_numerators(c0, w, top):
    """c0 ** (d/2) * log(c0 + w)_d for each even d from 2 to ``top``,
    keyed by d, for an even ``w`` with no constant term over commuting
    coefficients.

    The degree operator D is a derivation on the even part, so
    (c0 + w) * D log(c0 + w) = D w.  Its degree-d part, with N_e the
    result for degree e, gives
    N_d = c0 ** (d/2 - 1) w_d - sum_{e < d} (e/d) c0 ** ((d-e)/2 - 1)
    w_{d-e} N_e, run by Horner in c0.  Each product multiplies a part
    of w by a connected part N_e, never a power of w."""
    parts = {d: w.degree_part(d) for d in range(2, top + 1, 2)}
    logs = {}
    for d in parts:
        s = parts[d]
        for e in range(2, d, 2):
            s = s.scale(c0) + parts[d - e] * logs[e].scale(Fraction(-e, d))
        logs[d] = s
    return logs


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
       for "exp-log" replication * log(c0 + w) with p = d/2, so every
       numerator stays an exact polynomial; for "product" w / c0, with
       p = 1 and multiplier 1.  The log is only the connected part of
       the integral, and :func:`_log_numerators` builds it degree by
       degree from the lower degrees' parts, so no power of w (whose
       disconnected products would cancel) and no power of c0 is built.
    4. Project each degree onto that degree's basis operators; any
       residual raises :class:`SymmetryViolation`.
    """
    # imported here, so that reading a shipped map loads none of them
    from .integration import integrate_polynomial
    from .models import project_onto_basis
    from .scalars import ImpurityElement

    n = spec.n_couplings
    units = {"rational": Fraction(1), "impurity": ImpurityElement.one()}
    if spec.ring not in units:
        raise ValueError(f"unknown coefficient ring {spec.ring!r}")
    one = units[spec.ring] * CouplingPolynomial.constant(n, 1)
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
    if spec.combination == "exp-log":
        parts = _log_numerators(c0, w, max(groups))
    else:
        parts = {d: w.degree_part(d) for d in groups}

    numerators = [None] * n
    denom_powers = [0] * n
    for d, idxs in sorted(groups.items()):
        coeffs, residual = project_onto_basis(
            parts[d].scale(Fraction(multiplier)),
            [spec.basis.polys[i] for i in idxs])
        if residual.terms:
            raise SymmetryViolation(
                f"degree-{d} output leaves the operator basis "
                f"(stray masks {sorted(residual.terms)[:4]})")
        for i, c in zip(idxs, coeffs):
            numerators[i] = c if isinstance(c, CouplingPolynomial) \
                else CouplingPolynomial.constant(n, c)
            denom_powers[i] = power(d)

    return BetaMap(
        model=spec.name,
        coupling_names=spec.coupling_names,
        numerators=tuple(numerators),
        denominator=c0,
        denominator_powers=tuple(denom_powers),
        constant_multiplier=multiplier,
    )


# ------------------------------------------------------- the shipped maps


SHIPPED = Path(__file__).with_name("data")


def _shipped_path(model):
    return SHIPPED / f"betamap_{model}.json"


def shipped_map(model):
    """The exact map of ``model`` ("graphene" or "kondo"), read from
    the JSON text of :func:`rg_step` that the package ships."""
    return BetaMap.from_json(_shipped_path(model).read_text())


def verify_shipped_maps(builders):
    """Derive each map again, ``rg_step(build())`` for every ``model:
    build`` of ``builders``, and compare its JSON text, as ``hfrg beta``
    writes it, with the shipped file byte for byte.  Returns one
    pass/fail record per model, named ``betamap_<model>``."""
    from .integration import lemma_record

    records = []
    for model, build in builders.items():
        derived = (rg_step(build()).to_json() + "\n").encode()
        same = derived == _shipped_path(model).read_bytes()
        records.append(lemma_record(f"betamap_{model}", 0.0, not same))
    return records
