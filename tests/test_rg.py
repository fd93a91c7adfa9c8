"""One-scale coupling maps: exact identities, goldens, linearization."""

import functools
import gc
import json
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hfrg.couplings import CouplingPolynomial, power_table
from hfrg.flows import iterate_flow
from hfrg.grassmann import (GeneratorId, GrassmannPolynomial,
                            SingularNormalization, bits_of, log_truncated)
from hfrg.integration import PropagatorTable, integrate_polynomial
from hfrg.models import OperatorBasis, graphene_model, kondo_model
from hfrg.rg import (SHIPPED, BetaMap, SymmetryViolation,
                     _formal_interaction, _log_numerators, rg_step,
                     shipped_map)
from hfrg.scalars import ImpurityElement

DATA = Path(__file__).parent / "data"

GRAPHENE = graphene_model()
KONDO = kondo_model()
G_BETA = rg_step(GRAPHENE)
K_BETA = rg_step(KONDO)

ZERO7 = [Fraction(0)] * 7
E0 = [Fraction(1)] + [Fraction(0)] * 6


def axis_profile(poly):
    """Coefficients of the restriction to the first coupling axis."""
    return {e[0]: c for e, c in poly.terms.items() if not any(e[1:])}


# -- impurity map: closed form ------------------------------------------


def test_kondo_closed_form():
    # the two-coupling map collapses to short explicit polynomials; the
    # product-of-factors route must reproduce them with no tolerance
    c = CouplingPolynomial(2, {(0, 0): Fraction(1),
                               (2, 0): Fraction(3, 2),
                               (0, 2): Fraction(9)})
    n0 = CouplingPolynomial(2, {(1, 0): Fraction(1),
                                (1, 1): Fraction(3),
                                (2, 0): Fraction(-1)})
    n1 = CouplingPolynomial(2, {(0, 1): Fraction(1, 2),
                                (2, 0): Fraction(1, 8)})
    assert K_BETA.denominator == c
    assert K_BETA.numerators == (n0, n1)
    assert K_BETA.denominator_powers == (1, 1)
    assert K_BETA.to_json_obj()["constant_term"] == c.to_json_obj()
    assert K_BETA.constant_multiplier == 1
    assert K_BETA.term_count == 5


# Candidate half-box covariances, keyed by (minus half, plus half)
# with a sign.  Only the antisymmetric cross-half pairing keeps the
# integrated interaction inside the two-operator basis (the others
# generate a spin-diagonal quadratic with no identity-tensor partner)
# and it alone reproduces the known closed-form coupling map.
KONDO_PROPAGATOR_VARIANTS = {
    "cross_symmetric": {(0, 1): 1, (1, 0): 1},
    "cross_antisymmetric": {(0, 1): 1, (1, 0): -1},
    "cross_negative": {(0, 1): -1, (1, 0): -1},
    "half_diagonal": {(0, 0): 1, (1, 1): 1},
    "half_diagonal_negative": {(0, 0): -1, (1, 1): -1},
}


def kondo_variant(variant):
    """The Kondo spec with the named candidate covariance."""
    entries = {
        (GeneratorId("int", hm, "", s, "-"),
         GeneratorId("int", hp, "", s, "+")): Fraction(val)
        for (hm, hp), val in KONDO_PROPAGATOR_VARIANTS[variant].items()
        for s in ("up", "dn")}
    return replace(KONDO, propagator=PropagatorTable(
        KONDO.universe, entries, blocks=[{0, 1}]))


def test_kondo_model_uses_the_calibrated_propagator():
    assert KONDO.propagator.items() == \
        kondo_variant("cross_antisymmetric").propagator.items()


def test_kondo_rejects_miscalibrated_propagators():
    # exactly one pairing pattern keeps the integrated interaction
    # inside the two-operator basis; every other candidate leaves
    # stray spin-diagonal quadratics behind
    for variant in KONDO_PROPAGATOR_VARIANTS:
        if variant == "cross_antisymmetric":
            continue
        with pytest.raises(SymmetryViolation):
            rg_step(kondo_variant(variant))


def test_kondo_rejects_non_scalar_normalization():
    # an exchange along E_11 alone squares to E_11 in the normalization
    u = KONDO.universe
    up = [GeneratorId("ext", 0, "", "up", c) for c in "+-"]
    exchange = u.monomial(up, ImpurityElement.unit(0, 0))
    spec = replace(KONDO, basis=OperatorBasis(
        (("exchange", exchange), KONDO.basis.entries[1])))
    with pytest.raises(SymmetryViolation, match="spin components"):
        rg_step(spec)


@pytest.mark.parametrize("variant", sorted(KONDO_PROPAGATOR_VARIANTS))
def test_kondo_product_is_charge_neutral(variant):
    # every coarse monomial of the integrated product carries as many
    # psi+ as psi-, so scaling psi+ by 1/2 and psi- by 1 gives each
    # monomial the same factor as 2**(-1/2) on every coarse generator
    spec = kondo_variant(variant)
    u = spec.universe
    w = _formal_interaction(spec)
    unit = {"rational": Fraction(1), "impurity": ImpurityElement.one()}
    one = GrassmannPolynomial.scalar(
        unit[spec.ring] * CouplingPolynomial.constant(2, 1))
    f = one
    for img in spec.images:
        f = f * (one + w.substitute(img))
    r = integrate_polynomial(u, spec.propagator, f)
    assert len(r.terms) > 1
    for mask in r.terms:
        gens = [u.gens[b] for b in bits_of(mask)]
        assert all(g.kind == "ext" for g in gens)
        conjs = [g.conj for g in gens]
        assert conjs.count("+") == conjs.count("-"), gens


def test_kondo_exact_point():
    out = K_BETA.evaluate([Fraction(1, 10), Fraction(0)])
    assert out == [Fraction(18, 203), Fraction(1, 812)]
    assert K_BETA.denominator.evaluate([0.1, 0.0]) == pytest.approx(1.015)
    floats = K_BETA.evaluate([0.1, 0.0])
    assert floats[0] == pytest.approx(0.0886699507, abs=1e-9)
    assert floats[1] == pytest.approx(0.0012315271, abs=1e-9)


# -- honeycomb map: equilibria and linearization ------------------------


def test_beta_vanishes_at_zero():
    assert G_BETA.evaluate(ZERO7) == ZERO7
    assert K_BETA.evaluate([Fraction(0)] * 2) == [Fraction(0)] * 2


def test_graphene_nontrivial_equilibrium_exact():
    assert G_BETA.evaluate(E0) == E0


def test_graphene_axis_closed_form():
    # restricted to the quadratic coupling axis the normalization is
    # (1+t)**4 and the only surviving numerator is 2*t*(1+t)**3, so the
    # axis map is t -> 2*t/(1+t) with equilibria 0 and 1
    assert axis_profile(G_BETA.denominator) == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
    assert axis_profile(G_BETA.numerators[0]) == {1: 2, 2: 6, 3: 6, 4: 2}
    for num in G_BETA.numerators[1:]:
        assert axis_profile(num) == {}
    assert G_BETA.denominator_powers == (1, 2, 2, 2, 2, 3, 4)
    assert G_BETA.constant_multiplier == 8


def test_graphene_linearization_at_zero():
    jac = G_BETA.jacobian(ZERO7)
    degrees = [p.max_degree() for p in GRAPHENE.basis.polys]
    expected_diag = [Fraction(2), Fraction(1, 2), Fraction(1, 2),
                     Fraction(1, 2), Fraction(1, 2), Fraction(1, 8),
                     Fraction(1, 32)]
    for i in range(7):
        assert jac[i][i] == expected_diag[i]
        # each diagonal entry is 2**(3 - degree): the block count gives
        # three doublings, each field carries one halving of scale
        assert expected_diag[i] == Fraction(2) ** (3 - degrees[i])
        for j in range(7):
            if degrees[j] < degrees[i]:
                assert jac[i][j] == 0
            elif degrees[j] == degrees[i] and i != j:
                assert jac[i][j] == 0


def test_graphene_axis_slopes():
    jac0 = G_BETA.jacobian(ZERO7)
    jac1 = G_BETA.jacobian(E0)
    assert jac0[0][0] == Fraction(2)
    assert jac1[0][0] == Fraction(1, 2)


# -- numeric view against the exact one ---------------------------------


@pytest.mark.parametrize("beta,span", [(G_BETA, 20), (K_BETA, 50)],
                         ids=["graphene", "kondo"])
def test_float_evaluation_tracks_exact(beta, span):
    rng = random.Random(20260817)
    for _ in range(25):
        pt = [Fraction(rng.randrange(-span, span + 1), 100)
              for _ in range(beta.n)]
        if abs(beta.denominator.evaluate(pt)) < Fraction(1, 4):
            # a nearly vanishing normalization amplifies rounding past
            # any fixed relative bound; the comparison needs footing
            continue
        exact = beta.evaluate(pt)
        floats = beta.evaluate([float(x) for x in pt])
        for e, f in zip(exact, floats):
            assert abs(f - float(e)) <= 1e-13 * max(1.0, abs(float(e)))


def test_singular_normalization_raises():
    # exact, float (the generated kernels) and mixed int/float input
    for point in ([Fraction(-1)] + [Fraction(0)] * 6, [-1.0] + [0.0] * 6,
                  [-1.0] + [0] * 6):
        with pytest.raises(SingularNormalization):
            G_BETA.evaluate(point)
        with pytest.raises(SingularNormalization):
            G_BETA.jacobian(point)


# -- float kernels against the per-term loop -----------------------------


@functools.cache
def _loop_parts(beta):
    """The derivative polynomials and power-table tops of ``beta``,
    built once per map (``BetaMap`` hashes by identity)."""
    dnum = [[num.derivative(j) for j in range(beta.n)]
            for num in beta.numerators]
    dden = [beta.denominator.derivative(j) for j in range(beta.n)]
    tops = list(map(max, *(p.max_exponents()
                           for p in (beta.denominator, *beta.numerators))))
    return dnum, dden, tops


def loop_reference(beta, values, method):
    """``evaluate`` or ``jacobian`` by ``evaluate_float`` over one float
    ``power_table``, with the quotient assembled as the exact path does."""
    dnum, dden, tops = _loop_parts(beta)
    powers = power_table(values, tops, float)
    den = beta.denominator.evaluate_float(powers)
    if not den:
        raise SingularNormalization(values)
    if method == "evaluate":
        return [num.evaluate_float(powers) / den ** p
                for num, p in zip(beta.numerators, beta.denominator_powers)]
    dd = [d.evaluate_float(powers) for d in dden]
    rows = []
    for dn_i, num, p in zip(dnum, beta.numerators, beta.denominator_powers):
        nv = num.evaluate_float(powers)
        scale = den ** (p + 1)
        rows.append([(dn.evaluate_float(powers) * den - nv * p * ddv) / scale
                     for dn, ddv in zip(dn_i, dd)])
    return rows


def outcome(f, *args):
    """repr of the result, which compares floats bit for bit, -0.0
    apart from 0.0, and any NaN equal to any NaN; or the exception's
    type."""
    try:
        return repr(f(*args))
    except (SingularNormalization, ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__


COUPLING = st.one_of(
    st.floats(-1.5, 1.5), st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, -1.0, math.nan, 1e40, -1e80, 1e160]),
    st.floats(allow_nan=True, allow_infinity=True))


# by name: a failing example's report spells out every argument, and
# the repr of a whole map is too deep for hypothesis' patch writer
@pytest.mark.parametrize("model", ["graphene", "kondo"])
@given(values=st.lists(COUPLING, min_size=7, max_size=7))
@example(values=[-1.0, 0, -0.0, 0.0, 0.0, 0, 0.0])   # graphene: d == 0
@example(values=[1e30] + [0.0] * 6)   # graphene: d ** p overflows
@example(values=[1e80] + [0.0] * 6)   # kondo: d ** 2 overflows
@settings(max_examples=100, deadline=None)
def test_float_kernels_match_the_per_term_loop(model, values):
    beta = {"graphene": G_BETA, "kondo": K_BETA}[model]
    values = [float(values[0]), *values[1:beta.n]]   # a float point
    for method in ("evaluate", "jacobian"):
        assert outcome(getattr(beta, method), values) == \
            outcome(loop_reference, beta, values, method)


def test_building_both_maps_kernels_stays_small():
    # one compile per polynomial: one source for the whole graphene
    # Jacobian peaked near 8 MB
    fresh = [BetaMap.from_json(beta.to_json()) for beta in (G_BETA, K_BETA)]
    tracemalloc.start()
    try:
        for beta in fresh:
            beta.evaluate([0.1] * beta.n)
            beta.jacobian([0.1] * beta.n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_building_both_maps_kernels_and_flow_loops_stays_small():
    # the flow loop inlines each polynomial's float lines, so building
    # it after the kernels compiles graphene's value bodies again:
    # graphene's ``flow_loop`` alone peaked near 2.0 MB after them
    fresh = [BetaMap.from_json(beta.to_json()) for beta in (G_BETA, K_BETA)]
    tracemalloc.start()
    try:
        for beta in fresh:
            beta.evaluate([0.1] * beta.n)
            beta.jacobian([0.1] * beta.n)
            iterate_flow(beta, [0.1] * beta.n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_graphene_step_multiplies_few_term_pairs(monkeypatch):
    # 222,435 polynomial term pairs when every Grassmann term pair and
    # every power c0 ** (p - k) multiplied; 97,300 with the log series
    # by Horner in c0 and each distinct coefficient pair multiplied
    # once; 29,418 with the log by the degree recursion, which never
    # builds the powers of w that the series needs
    pairs = 0
    mul = CouplingPolynomial.__mul__

    def counted(a, b):
        nonlocal pairs
        if isinstance(b, CouplingPolynomial):
            pairs += len(a) * len(b)
        return mul(a, b)

    monkeypatch.setattr(CouplingPolynomial, "__mul__", counted)
    rg_step(GRAPHENE)
    assert pairs <= 30_000


def test_graphene_step_memory_stays_small_and_is_given_back():
    # peaked near 1.76 MB (1.67 MiB) before the shared coefficient
    # products, ~1.64 MB after them, and ~0.67 MB (667,732 bytes) with
    # the log by the degree recursion, which builds no power of w; the
    # bound keeps the 117,816 bytes of headroom it had over ~1.64 MB.
    # A return to the log series fails it.  A memo that outlived its
    # product would raise the peak of a later step and stay behind
    # after it.  A full collection empties the interpreter's free
    # lists: without one just before, the step reuses blocks allocated
    # before tracing began (peak ~0.65 MB), and without one after, the
    # blocks the free lists keep count as kept (~53 KB after a full
    # collection, ~3 KB otherwise), so both readings hung on the
    # collections that earlier tests happened to trigger
    gc.collect()
    tracemalloc.start()
    try:
        beta = rg_step(GRAPHENE)
        peak = tracemalloc.get_traced_memory()[1]
        del beta
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak <= 785_548
    assert kept < 16_384


# -- the log by the degree recursion -------------------------------------


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
EVEN_MASKS = st.integers(1, 255).filter(lambda m: m.bit_count() % 2 == 0)
COUPLING_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), SMALL,
    min_size=1, max_size=3).map(lambda t: CouplingPolynomial(2, t))
POINTS = st.tuples(SMALL, SMALL)


def even_elements(coefficients):
    """Even Grassmann elements over 8 generators, no constant term."""
    return st.dictionaries(EVEN_MASKS, coefficients, max_size=5).map(
        GrassmannPolynomial)


# degrees 2 and 6 only: N_4 and N_8 come from w_2 N_2 and w_2 N_6 alone
TWO_AND_SIX = {0b11: 1, 0b110000: 2, 0b11111100: -3}


def check_log_numerators(c0, w, value):
    """Each degree part of ``_log_numerators(c0, w, 8)`` equals that
    part of ``log_truncated(c0 + w)`` times c0 ** (d/2), once
    ``value`` has mapped every coefficient to a rational."""
    def at(p):
        return GrassmannPolynomial({m: value(c) for m, c in p.terms.items()})

    logs = _log_numerators(c0, w, 8)
    assert sorted(logs) == [2, 4, 6, 8]
    c, log = log_truncated(GrassmannPolynomial.scalar(value(c0)) + at(w))
    for d, part in logs.items():
        assert at(part) == log.degree_part(d).scale(c ** (d // 2)), d


@given(c0=SMALL.filter(bool), w=even_elements(SMALL))
@example(c0=Fraction(2, 3), w=GrassmannPolynomial(
    {m: Fraction(c, 2) for m, c in TWO_AND_SIX.items()}))
@settings(max_examples=60, deadline=None)
def test_log_numerators_match_the_log_series(c0, w):
    check_log_numerators(c0, w, lambda c: c)


@given(c0=COUPLING_POLYS, w=even_elements(COUPLING_POLYS), point=POINTS)
@example(c0=CouplingPolynomial(2, {(0, 0): 1, (1, 1): Fraction(-1, 2)}),
         w=GrassmannPolynomial(
             {m: CouplingPolynomial(2, {(1, 0): c, (0, 2): 1})
              for m, c in TWO_AND_SIX.items()}),
         point=(Fraction(1, 3), Fraction(-2)))
@settings(max_examples=60, deadline=None)
def test_log_numerators_match_the_log_series_at_a_point(c0, w, point):
    # the recursion over polynomial coefficients, evaluated at a point,
    # is the log series of the element evaluated there: evaluation is a
    # ring homomorphism
    assume(c0.evaluate(point))
    check_log_numerators(c0, w, lambda c: c.evaluate(point))


# -- reproducibility -----------------------------------------------------


def test_step_is_deterministic():
    again = rg_step(graphene_model())
    assert again.to_json() == G_BETA.to_json()


def test_golden_beta_maps():
    for beta in (G_BETA, K_BETA):
        expected = (DATA / f"betamap_{beta.model}.json").read_text()
        assert beta.to_json() + "\n" == expected, \
            f"{beta.model} map drifted from its committed form"


def test_shipped_maps_are_the_step_and_the_goldens():
    # the float commands read the shipped maps instead of deriving them,
    # so a ship that falls behind the step must fail here
    for beta in (G_BETA, K_BETA):
        name = f"betamap_{beta.model}.json"
        derived = (beta.to_json() + "\n").encode()
        assert (SHIPPED / name).read_bytes() == derived, f"stale ship {name}"
        assert (DATA / name).read_bytes() == derived, name
        assert shipped_map(beta.model).to_json() == beta.to_json()


def test_json_roundtrip():
    for beta in (G_BETA, K_BETA):
        back = BetaMap.from_json(beta.to_json())
        assert back.to_json() == beta.to_json()
        pt = [0.05] * beta.n
        assert back.evaluate(pt) == beta.evaluate(pt)


def test_json_rejects_a_constant_term_other_than_the_denominator():
    obj = K_BETA.to_json_obj()
    obj["constant_term"] = CouplingPolynomial.constant(2, 2).to_json_obj()
    with pytest.raises(ValueError, match="constant_term"):
        BetaMap.from_json(json.dumps(obj))


def test_unknown_combination_raises():
    with pytest.raises(ValueError, match="combination"):
        rg_step(replace(GRAPHENE, combination="sum"))


def test_graphene_residual_raises():
    # without pair_hopping the degree-4 output has nowhere to go
    keep = [i for i in range(GRAPHENE.n_couplings) if i != 4]
    spec = replace(
        GRAPHENE,
        basis=OperatorBasis(tuple(GRAPHENE.basis.entries[i] for i in keep)),
        coupling_names=tuple(GRAPHENE.coupling_names[i] for i in keep))
    with pytest.raises(SymmetryViolation, match="degree-4"):
        rg_step(spec)


@pytest.mark.parametrize("beta", [G_BETA, K_BETA], ids=["graphene", "kondo"])
@pytest.mark.parametrize("method", ["evaluate", "jacobian"])
def test_wrong_length_vector_raises(beta, method):
    for length in (1, beta.n - 1, beta.n + 1):
        for value in (0.1, Fraction(1, 10)):
            with pytest.raises(ValueError,
                               match=f"expected {beta.n} couplings"):
                getattr(beta, method)([value] * length)


def test_graphene_term_count():
    # fully expanded canonical numerators over the (1+l0)-power
    # denominators; the count is part of the committed surface
    assert [len(p.terms) for p in G_BETA.numerators] == \
        [20, 21, 33, 33, 33, 141, 606]
    assert G_BETA.term_count == 887
    assert len(G_BETA.denominator.terms) == 21


def test_shipped_graphene_map_keeps_the_su2_plane():
    # SU(2) leaves the quartic plane l3 = 2*l2 invariant; l2' and l3'
    # share the denominator power, so N3 - 2*N2 must vanish on the
    # plane.  Substitute exactly: each l3**k becomes 2**k * l2**k.
    beta = shipped_map("graphene")
    assert beta.denominator_powers[2] == beta.denominator_powers[3]
    diff = beta.numerators[3] - 2 * beta.numerators[2]
    assert diff  # the identity holds only on the plane
    restricted = {}
    for e, c in diff.terms.items():
        k = e[3]
        exps = e[:2] + (e[2] + k, 0) + e[4:]
        restricted[exps] = restricted.get(exps, 0) + c * 2 ** k
    assert not CouplingPolynomial(beta.n, restricted)
