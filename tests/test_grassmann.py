"""Grassmann engine tests.

Sign bookkeeping is checked against a brute-force oracle that sorts
explicit generator lists with a bubble sort, counting swaps.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hfrg.couplings import CouplingPolynomial
from hfrg.grassmann import (GrassmannPolynomial, SingularNormalization,
                            SubstitutionError, bits_of, canonicalize_bits,
                            exp_truncated, log_truncated, merge_sign)
from hfrg.scalars import ImpurityElement

fractions_st = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def brute_sort_sign(seq):
    """Oracle: explicit bubble sort with swap counting."""
    a = list(seq)
    if len(set(a)) != len(a):
        return 0, 0
    sign = 1
    for i in range(len(a)):
        for j in range(len(a) - 1 - i):
            if a[j] > a[j + 1]:
                a[j], a[j + 1] = a[j + 1], a[j]
                sign = -sign
    mask = 0
    for b in a:
        mask |= 1 << b
    return mask, sign


def polys(max_bit=6, max_terms=5):
    masks = st.integers(0, (1 << max_bit) - 1)
    return st.dictionaries(masks, fractions_st, max_size=max_terms).map(
        GrassmannPolynomial)


def even_polys(max_bit=6, max_terms=4):
    masks = st.integers(1, (1 << max_bit) - 1).filter(
        lambda m: m.bit_count() % 2 == 0)
    return st.dictionaries(masks, fractions_st, max_size=max_terms).map(
        GrassmannPolynomial)


@given(st.lists(st.integers(0, 9), max_size=8))
def test_canonicalize_matches_bubble_sort_oracle(seq):
    assert canonicalize_bits(seq) == brute_sort_sign(seq)


@given(st.lists(st.integers(0, 9), max_size=5),
       st.lists(st.integers(0, 9), max_size=5))
def test_monomial_product_matches_concatenation(a, b):
    lhs = GrassmannPolynomial.monomial(a) * GrassmannPolynomial.monomial(b)
    assert lhs == GrassmannPolynomial.monomial(a + b)


def test_basic_anticommutation():
    g = lambda *bits: GrassmannPolynomial.monomial(bits)
    assert g(1) * g(2) == -(g(2) * g(1))
    assert not g(1) * g(1)
    assert g(0, 1) * g(2, 3) == g(2, 3) * g(0, 1)
    assert merge_sign(0b01, 0b10) == 1
    assert merge_sign(0b10, 0b01) == -1


@given(polys(), polys(), polys())
@settings(max_examples=60)
def test_associativity_and_distributivity(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert (p + q) * r == p * r + q * r
    assert (p + (-p)).terms == {}


def odd_images(max_bit):
    """Substitution images: odd monomial combinations over fresh bits."""
    masks = st.integers(1, (1 << max_bit) - 1).filter(
        lambda m: m.bit_count() % 2 == 1)
    return st.dictionaries(masks, fractions_st, min_size=1, max_size=3).map(
        GrassmannPolynomial)


@given(polys(max_bit=4), polys(max_bit=4),
       st.lists(odd_images(6), min_size=4, max_size=4))
@settings(max_examples=40)
def test_substitute_is_ring_homomorphism(p, q, images):
    table = dict(enumerate(images))
    sub = lambda f: f.substitute(table)
    assert sub(p * q) == sub(p) * sub(q)
    assert sub(p + q) == sub(p) + sub(q)


def test_substitute_rejects_even_images():
    p = GrassmannPolynomial.monomial([0])
    with pytest.raises(SubstitutionError):
        p.substitute({0: GrassmannPolynomial.scalar(Fraction(1))})
    with pytest.raises(SubstitutionError):
        p.substitute({0: GrassmannPolynomial.monomial([1, 2])})


def test_substitute_identity_on_missing_bits():
    p = GrassmannPolynomial.monomial([0, 3], Fraction(2))
    assert p.substitute({}) == p


@given(even_polys())
@settings(max_examples=40)
def test_exp_inverse(p):
    e = exp_truncated(p)
    einv = exp_truncated(-p)
    assert e * einv == GrassmannPolynomial.scalar(Fraction(1))


@given(even_polys(max_bit=5), even_polys(max_bit=5))
@settings(max_examples=40)
def test_exp_additive_on_even_elements(p, q):
    # even elements commute, so exp is a homomorphism on them
    assert exp_truncated(p + q) == exp_truncated(p) * exp_truncated(q)


@given(even_polys())
@settings(max_examples=40)
def test_log_inverts_exp(p):
    c0, series = log_truncated(exp_truncated(p))
    assert c0 == Fraction(1)
    assert series == p


def test_exp_rejects_bad_arguments():
    with pytest.raises(ValueError):
        exp_truncated(GrassmannPolynomial.scalar(Fraction(1)))
    with pytest.raises(ValueError):
        exp_truncated(GrassmannPolynomial.monomial([0]))


def test_log_singular_without_constant():
    with pytest.raises(SingularNormalization):
        log_truncated(GrassmannPolynomial.monomial([0, 1]))


def test_scalar_coefficient_interop():
    x = CouplingPolynomial.variable(2, 0)
    p = GrassmannPolynomial({0b11: x})
    q = p.scale(Fraction(1, 2))
    assert q.terms[0b11] == x / 2
    assert bits_of(0b1010) == [1, 3]


def test_zero_matrix_coefficients_are_never_stored():
    """E11 * E22 == 0 for a key not yet stored, and E11 + E22 - 1 == 0
    for a stored one: neither product, sum nor substitution keeps it."""
    e11, e22 = ImpurityElement.unit(0, 0), ImpurityElement.unit(1, 1)
    a = GrassmannPolynomial({0b01: e11})
    b = GrassmannPolynomial({0b10: e22})
    assert (a * b).terms == {}
    assert (b * a).terms == {}
    assert (a * GrassmannPolynomial({0b10: e11})).terms == {0b11: e11}
    p = a + b
    assert (p + (-p)).terms == {}
    assert (GrassmannPolynomial({0b01: e11 + e22})
            + GrassmannPolynomial({0b01: ImpurityElement.scalar(-1)})
            ).terms == {}
    assert a.substitute({0: GrassmannPolynomial({0b100: e22})}).terms == {}
    assert a.scale(e22).terms == {}
    assert (a * e22).terms == {}
    assert a.scale(e11).terms == {0b01: e11}
