"""Coupling-polynomial tests with a naive evaluation oracle, and the
packed integer core against a naive tuple-dict Fraction reference."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hfrg.couplings import MAX_EXPONENT, CouplingPolynomial
from hfrg.flows import vector_field_grid
from hfrg.models import graphene_model, kondo_model
from hfrg.rg import BetaMap, rg_step
from hfrg.scalars import ImpurityElement

DATA = Path(__file__).parent / "data"

fractions_st = st.fractions(min_value=-12, max_value=12, max_denominator=5)

# the matrix units E_12 and E_21 of the impurity ring: E12 E21 = E_11
# and E21 E12 = E_22, so their products depend on operand order
E12 = ImpurityElement(0, 1, 0, 0)
E21 = ImpurityElement(0, 0, 1, 0)


def polys(nvars=3, max_terms=6, max_exp=3):
    exps = st.tuples(*([st.integers(0, max_exp)] * nvars))
    return st.dictionaries(exps, fractions_st, max_size=max_terms).map(
        lambda d: CouplingPolynomial(nvars, d))


def naive_eval(p, values, size=lambda term: term):
    """Sum of size(term) over the terms at exact ``values``."""
    total = Fraction(0)
    for e, c in p.terms.items():
        term = c
        for x, k in zip(values, e):
            term *= Fraction(x) ** k
        total += size(term)
    return total


def test_zero_coefficients_never_stored():
    p = CouplingPolynomial(2, {(1, 0): Fraction(1), (0, 1): Fraction(2)})
    q = CouplingPolynomial(2, {(1, 0): Fraction(-1)})
    assert (1, 0) not in (p + q).terms
    assert CouplingPolynomial(2, {(0, 0): Fraction(0)}).terms == {}
    assert not (p - p)


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * (q * r) == (p * q) * r
    assert p * q == q * p


@given(polys(), st.tuples(fractions_st, fractions_st, fractions_st),
       st.tuples(*[st.integers(-12, 12)] * 3))
def test_evaluate_matches_naive_eval(p, values, ints):
    for exact in (values, ints):
        got = p.evaluate(exact)
        assert type(got) is Fraction and got == naive_eval(p, exact)
    # floats: within 1e-12 of the exact value at the same float inputs,
    # relative to the sum of the terms' magnitudes
    floats = [float(v) for v in values]
    got = p.evaluate(floats)
    assert type(got) is float
    assert abs(Fraction(got) - naive_eval(p, floats)) <= \
        Fraction(1, 10 ** 12) * naive_eval(p, floats, size=abs)


@given(polys(), polys(), st.integers(0, 2))
def test_derivative_product_rule(p, q, j):
    lhs = (p * q).derivative(j)
    assert lhs == p.derivative(j) * q + p * q.derivative(j)


@given(polys())
def test_serialization_roundtrip(p):
    obj = p.to_json_obj()
    assert CouplingPolynomial.from_json_obj(obj) == p
    # canonical: term rows sorted by exponent tuple
    keys = [tuple(row[0]) for row in obj["terms"]]
    assert keys == sorted(keys)


def test_power_and_structure():
    x = CouplingPolynomial.variable(2, 0)
    y = CouplingPolynomial.variable(2, 1)
    p = (x + y) * (x + y)
    assert p == x * x + 2 * (x * y) + y * y
    assert not p.is_constant()
    c = CouplingPolynomial.constant(2, Fraction(3, 7))
    assert c.is_constant() and c.constant_coefficient() == Fraction(3, 7)
    assert (p / Fraction(2)) * 2 == p
    assert p / (2 * c) == p * Fraction(7, 6)
    # x + 1 has a non-zero constant coefficient, so only the guard raises
    with pytest.raises(ZeroDivisionError, match="only by constants"):
        p / (x + 1)


@pytest.mark.parametrize("model", [graphene_model, kondo_model])
def test_built_and_deserialized_maps_evaluate_bit_identically(model):
    built = rg_step(model())
    read = BetaMap.from_json(
        (DATA / f"betamap_{built.model}.json").read_text())
    for scale in (0.0, 0.05, -0.1, 0.3):
        pt = [scale * (1 + i / 7) for i in range(built.n)]
        assert repr(built.evaluate(pt)) == repr(read.evaluate(pt))
        assert repr(built.jacobian(pt)) == repr(read.jacobian(pt))


def test_evaluation_and_serialization_never_read_terms(monkeypatch):
    beta = rg_step(kondo_model())
    polys = (*beta.numerators, beta.denominator)

    def unbuilt(self):
        pytest.fail("a package path read CouplingPolynomial.terms")
    monkeypatch.setattr(CouplingPolynomial, "terms", property(unbuilt))
    for pt in ([Fraction(1, 10), Fraction(-1, 20)], [1, 0], [0.1, -0.05]):
        beta.evaluate(pt)
        beta.jacobian(pt)
    vector_field_grid(beta, 0, 1, ((-1.0, 0.5), (-0.1, 0.15)), 3)
    BetaMap.from_json(beta.to_json())
    assert beta.term_count == sum(len(p) for p in beta.numerators) == 5
    for p in polys:
        repr(p)
        p.max_exponents()
        p.derivative(0).evaluate([0.5, 0.5])
    assert [len(p) for p in polys] == [3, 2, 3]


def test_float_evaluation_path():
    x = CouplingPolynomial.variable(1, 0)
    p = x * x * Fraction(3) + x * Fraction(-1) + Fraction(5)
    v = p.evaluate([0.5])
    assert isinstance(v, float)
    assert abs(v - (3 * 0.25 - 0.5 + 5)) < 1e-15


# -- the packed core against a tuple-dict reference ------------------------


def term_dicts(nvars, max_terms=5, max_exp=3):
    exps = st.tuples(*([st.integers(0, max_exp)] * nvars))
    return st.dictionaries(exps, fractions_st, max_size=max_terms)


scalars_st = st.one_of(fractions_st, st.integers(-6, 6))


def ref_clean(a):
    return {e: Fraction(c) for e, c in a.items() if c}


def ref_add(a, b):
    out = dict(ref_clean(a))
    for e, c in ref_clean(b).items():
        out[e] = out.get(e, 0) + c
    return ref_clean(out)


def ref_scale(a, s):
    return ref_clean({e: c * s for e, c in a.items()})


def ref_mul(a, b):
    out = {}
    for e1, c1 in ref_clean(a).items():
        for e2, c2 in ref_clean(b).items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return ref_clean(out)


def ref_pow(a, n, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def assert_matches(p, ref):
    """Same terms as the reference, coefficient values in lowest terms,
    and structurally equal (== and hash) to the polynomial built from
    the reference dict."""
    assert p.terms == ref and len(p) == len(ref)
    assert all(type(c) is Fraction for c in p.terms.values())
    assert p.to_json_obj()["terms"] == [
        [list(e), str(ref[e].numerator), str(ref[e].denominator)]
        for e in sorted(ref)]
    built = CouplingPolynomial(p.nvars, ref)
    assert p == built and hash(p) == hash(built)
    assert bool(p) == bool(ref)


@given(st.data())
@settings(max_examples=150)
def test_packed_core_matches_reference(data):
    nvars = data.draw(st.sampled_from([1, 2, 7]))
    a = data.draw(term_dicts(nvars))
    b = data.draw(term_dicts(nvars))
    s = data.draw(scalars_st)
    n = data.draw(st.integers(0, 3))
    p, q = CouplingPolynomial(nvars, a), CouplingPolynomial(nvars, b)
    assert_matches(p, ref_clean(a))
    assert_matches(p + q, ref_add(a, b))
    assert_matches(p - q, ref_add(a, ref_scale(b, -1)))
    assert_matches(-p, ref_scale(a, -1))
    assert_matches(p * q, ref_mul(a, b))
    power = CouplingPolynomial.constant(nvars, 1)
    for _ in range(n):
        power = power * p
    assert_matches(power, ref_pow(a, n, nvars))
    assert_matches(p * s, ref_scale(a, s))
    assert_matches(s * p, ref_scale(a, s))
    assert_matches(s - p, ref_add({(0,) * nvars: s}, ref_scale(a, -1)))
    if s:
        assert_matches(p / s, ref_scale(a, 1 / Fraction(s)))


@given(st.sampled_from([1, 2, 7]).flatmap(
    lambda n: st.tuples(st.just(n), term_dicts(n), term_dicts(n))))
def test_cancellation_to_exact_zero(case):
    nvars, a, b = case
    p, q = CouplingPolynomial(nvars, a), CouplingPolynomial(nvars, b)
    for zero in (p - p, p + (-p), (p + q) * (p - q) - (p * p - q * q),
                 p * 0, p * Fraction(0), p * CouplingPolynomial(nvars)):
        assert not zero
        assert zero.terms == {}
        assert zero == CouplingPolynomial(nvars)
        assert hash(zero) == hash(CouplingPolynomial(nvars))


def test_common_denominator_cancels_in_sums():
    x = CouplingPolynomial.variable(2, 0)
    y = CouplingPolynomial.variable(2, 1)
    p = x * Fraction(1, 6) + y * Fraction(1, 4)
    q = x * Fraction(5, 6) + y * Fraction(3, 4)
    assert (p + q).to_json_obj()["terms"] == [
        [[0, 1], "1", "1"], [[1, 0], "1", "1"]]
    assert p + q == x + y and hash(p + q) == hash(x + y)


def test_exponent_at_and_past_the_packing_limit():
    x = CouplingPolynomial.variable(2, 0)
    y = CouplingPolynomial.variable(2, 1)
    top = CouplingPolynomial(2, {(MAX_EXPONENT, 0): Fraction(3)})
    assert top.terms == {(MAX_EXPONENT, 0): 3}
    assert (top * y).terms == {(MAX_EXPONENT, 1): 3}
    below = CouplingPolynomial(2, {(MAX_EXPONENT - 1, 0): Fraction(1)})
    assert (below * x).terms == {(MAX_EXPONENT, 0): 1}
    low = CouplingPolynomial(2, {(0, MAX_EXPONENT): Fraction(1)})
    assert (low * x).terms == {(1, MAX_EXPONENT): 1}
    for exps in ((MAX_EXPONENT + 1, 0), (0, MAX_EXPONENT + 1), (-1, 0)):
        with pytest.raises((OverflowError, ValueError)):
            CouplingPolynomial(2, {exps: Fraction(1)})
    # one past the limit in either field, never a carry into the other
    with pytest.raises(OverflowError):
        top * x
    with pytest.raises(OverflowError):
        low * y
    with pytest.raises(OverflowError):
        below * x * x


def test_impurity_coefficients_keep_operand_order():
    # matrices with polynomial entries: E12*x and E21*y do not commute
    x = CouplingPolynomial.variable(2, 0)
    y = CouplingPolynomial.variable(2, 1)
    a, b = E12 * x, E21 * y
    assert a.entries == (0, x, 0, 0) and (x * E12).entries == a.entries
    assert (a * b).entries == (x * y, 0, 0, 0)
    assert (b * a).entries == (0, 0, 0, x * y)
    assert a * b != b * a
    # E12 E12 = 0: the product of nonzero elements cancels exactly
    assert not (a * a) and (a * a).entries == (0, 0, 0, 0)
    # E12 E21 + E21 E12 = 1: the scalar matrix of x*y
    xy = ImpurityElement.scalar(x * y)
    assert a * b + b * a == xy and hash(a * b + b * a) == hash(xy)
    assert a * b + b * a == x * y and hash(xy) == hash(x * y)
    # zero entries stay Fraction(0) under polynomial scaling
    assert [type(v) for v in a.entries] == [
        Fraction, CouplingPolynomial, Fraction, Fraction]


def test_constant_polynomial_hashes_like_its_value():
    third = CouplingPolynomial.constant(3, Fraction(1, 3))
    assert third == Fraction(1, 3) and hash(third) == hash(Fraction(1, 3))
    assert ImpurityElement.scalar(third) == ImpurityElement.scalar(
        Fraction(1, 3))
    assert hash(ImpurityElement.scalar(third)) == hash(Fraction(1, 3))


def test_non_rational_coefficients_are_rejected():
    with pytest.raises(TypeError):
        CouplingPolynomial(1, {(0,): ImpurityElement.one()})
    with pytest.raises(TypeError):
        CouplingPolynomial.constant(2, 0.5)
    x = CouplingPolynomial.variable(1, 0)
    assert x.__mul__(E12) is NotImplemented
    assert x.__add__(E12) is NotImplemented
    assert x.__rmul__(0.5) is NotImplemented
    # a matrix operand lifts the polynomial to a scalar matrix instead
    assert (x * E12).entries == (E12 * x).entries == (0, x, 0, 0)
    assert (x + E12).entries == (x, 1, 0, x)
