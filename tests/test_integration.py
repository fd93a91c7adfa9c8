"""Gaussian integration tests.

The pairing recursion and the explicit-density oracle are compared on
random integrands and random invertible rational covariances; they
share only the polynomial arithmetic, so agreement pins down the sign
conventions of both.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hfrg.grassmann import GeneratorId, GrassmannPolynomial
from hfrg.integration import (PropagatorTable, SingularPropagator, Universe,
                              berezin_reference_integral, _invert_exact,
                              integrate_polynomial)


def pair_gen(k, conj, child=0):
    return GeneratorId("int", child, f"s{k}", "up", conj)


def ext_gen(i):
    return GeneratorId("ext", 0, f"e{i}", "up", "+")


def make_universe(n_pairs, n_ext=0, child=0):
    gens = [ext_gen(i) for i in range(n_ext)]
    for k in range(n_pairs):
        gens.append(pair_gen(k, "+", child))
        gens.append(pair_gen(k, "-", child))
    return Universe(gens)


def random_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def random_table(universe, n_pairs, rng, child=0):
    while True:
        rows = [[random_fraction(rng) for _ in range(n_pairs)]
                for _ in range(n_pairs)]
        try:
            _invert_exact([row[:] for row in rows])
        except SingularPropagator:
            continue
        entries = {}
        for a in range(n_pairs):
            for b in range(n_pairs):
                entries[(pair_gen(a, "-", child),
                         pair_gen(b, "+", child))] = rows[a][b]
        return PropagatorTable(universe, entries), rows


def random_poly(universe, rng, max_terms=6):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mask = rng.randrange(1 << universe.n)
        c = random_fraction(rng)
        if c:
            terms[mask] = terms.get(mask, Fraction(0)) + c
    return GrassmannPolynomial(terms)


def test_integral_of_one_is_one():
    u = make_universe(2)
    t, _ = random_table(u, 2, random.Random(0))
    one = GrassmannPolynomial.scalar(Fraction(1))
    assert integrate_polynomial(u, t, one) == one
    assert berezin_reference_integral(u, t, one) == one


def test_single_pair_orientation():
    u = make_universe(1)
    g = Fraction(3, 7)
    t = PropagatorTable(u, {(pair_gen(0, "-"), pair_gen(0, "+")): g})
    minus = u.generator(pair_gen(0, "-"))
    plus = u.generator(pair_gen(0, "+"))
    for route in (integrate_polynomial, berezin_reference_integral):
        assert route(u, t, minus * plus) == GrassmannPolynomial.scalar(g)
        assert route(u, t, plus * minus) == GrassmannPolynomial.scalar(-g)
        assert not route(u, t, minus)
        assert not route(u, t, plus)


def test_two_point_matches_table():
    rng = random.Random(1)
    u = make_universe(3)
    t, rows = random_table(u, 3, rng)
    for a in range(3):
        for b in range(3):
            f = u.generator(pair_gen(a, "-")) * u.generator(pair_gen(b, "+"))
            expected = GrassmannPolynomial.scalar(rows[a][b])
            got = integrate_polynomial(u, t, f)
            assert got == expected or (not got and not expected)
            assert berezin_reference_integral(u, t, f) == got


generator_ids = st.builds(
    GeneratorId, kind=st.sampled_from(["ext", "int"]),
    child=st.integers(0, 3), species=st.sampled_from(["", "a", "b"]),
    spin=st.sampled_from(["up", "dn"]), conj=st.sampled_from(["+", "-"]))


@given(st.lists(generator_ids, unique=True, max_size=72))
def test_universe_puts_every_external_below_every_internal(gens):
    # integrate_polynomial keeps a monomial's external part in place
    # with no sign, which holds only under this ordering
    u = Universe(gens)
    ext = [u.bit_of[g] for g in gens if g.kind == "ext"]
    internal = [u.bit_of[g] for g in gens if g.kind == "int"]
    assert max(ext, default=-1) < min(internal, default=u.n)
    assert u.internal_mask == sum(1 << b for b in internal)


def test_dual_routes_agree_on_random_polys():
    rng = random.Random(42)
    for trial in range(25):
        n_pairs = rng.randint(1, 3)
        n_ext = rng.randint(0, 3)
        u = make_universe(n_pairs, n_ext)
        t, _ = random_table(u, n_pairs, rng)
        f = random_poly(u, rng)
        assert integrate_polynomial(u, t, f) == \
            berezin_reference_integral(u, t, f), (trial, f.terms)


def test_external_spectators_pass_through():
    u = make_universe(1, n_ext=2)
    t = PropagatorTable(
        u, {(pair_gen(0, "-"), pair_gen(0, "+")): Fraction(2)})
    e0, e1 = ext_gen(0), ext_gen(1)
    # e0 minus e1 plus : contraction jumps over e1
    f = (u.generator(e0) * u.generator(pair_gen(0, "-")) * u.generator(e1)
         * u.generator(pair_gen(0, "+")))
    got = integrate_polynomial(u, t, f)
    expected = (u.generator(e0) * u.generator(e1)).scale(Fraction(-2))
    assert got == expected
    assert berezin_reference_integral(u, t, f) == expected


def test_unmatched_internal_content_vanishes():
    u = make_universe(2)
    t, _ = random_table(u, 2, random.Random(3))
    f = u.generator(pair_gen(0, "-")) * u.generator(pair_gen(1, "-"))
    assert not integrate_polynomial(u, t, f)
    assert not berezin_reference_integral(u, t, f)


def test_singular_covariance_raises_in_oracle():
    u = make_universe(2)
    entries = {(pair_gen(a, "-"), pair_gen(b, "+")): Fraction(1)
               for a in range(2) for b in range(2)}
    t = PropagatorTable(u, entries)
    with pytest.raises(SingularPropagator):
        berezin_reference_integral(u, t, GrassmannPolynomial.scalar(
            Fraction(1)))


def test_reused_table_gives_the_values_of_a_fresh_equal_table():
    rng = random.Random(7)
    u = make_universe(3)
    t, rows = random_table(u, 3, rng)
    entries = {(pair_gen(a, "-"), pair_gen(b, "+")): rows[a][b]
               for a in range(3) for b in range(3)}
    for mask in range(1 << u.n):
        f = GrassmannPolynomial({mask: Fraction(1)})
        fresh = PropagatorTable(u, entries)
        assert berezin_reference_integral(u, t, f) == \
            berezin_reference_integral(u, fresh, f), mask


def test_singular_table_raises_on_every_call():
    u = make_universe(2)
    entries = {(pair_gen(a, "-"), pair_gen(b, "+")): Fraction(1)
               for a in range(2) for b in range(2)}
    t = PropagatorTable(u, entries)
    one = GrassmannPolynomial.scalar(Fraction(1))
    for _ in range(2):
        with pytest.raises(SingularPropagator):
            berezin_reference_integral(u, t, one)


def test_table_validation():
    u = make_universe(1)
    with pytest.raises(ValueError):
        PropagatorTable(u, {(pair_gen(0, "+"), pair_gen(0, "-")):
                            Fraction(1)})
    u2 = Universe([pair_gen(0, "+", 0), pair_gen(0, "-", 0),
                   pair_gen(0, "+", 1), pair_gen(0, "-", 1)])
    with pytest.raises(ValueError):
        PropagatorTable(u2, {(pair_gen(0, "-", 0), pair_gen(0, "+", 1)):
                             Fraction(1)})
    # an explicit block merging the two children allows the pairing
    PropagatorTable(u2, {(pair_gen(0, "-", 0), pair_gen(0, "+", 1)):
                         Fraction(1)}, blocks=[{0, 1}])


def doubled_universe(n_pairs, n_ext):
    gens = [ext_gen(i) for i in range(n_ext)]
    for child in (0, 1):
        for k in range(n_pairs):
            gens.append(pair_gen(k, "+", child))
            gens.append(pair_gen(k, "-", child))
    return Universe(gens)


def test_gaussian_addition_property():
    """Convolution of Gaussians: integrating with g1 + g2 equals the
    iterated integral of f(psi1 + psi2)."""
    rng = random.Random(7)
    n_pairs, n_ext = 2, 2
    u = make_universe(n_pairs, n_ext)
    u2 = doubled_universe(n_pairs, n_ext)
    for _ in range(10):
        t1, rows1 = random_table(u, n_pairs, rng)
        t2, rows2 = random_table(u, n_pairs, rng)
        sum_entries = {}
        both_entries = {}
        for a in range(n_pairs):
            for b in range(n_pairs):
                key = (pair_gen(a, "-"), pair_gen(b, "+"))
                sum_entries[key] = rows1[a][b] + rows2[a][b]
                both_entries[(pair_gen(a, "-", 0), pair_gen(b, "+", 0))] = \
                    rows1[a][b]
                both_entries[(pair_gen(a, "-", 1), pair_gen(b, "+", 1))] = \
                    rows2[a][b]
        t_sum = PropagatorTable(u, sum_entries)
        t_both = PropagatorTable(u2, both_entries)

        f = random_poly(u, rng)
        lhs = integrate_polynomial(u, t_sum, f)

        # build f(psi1 + psi2) in the doubled universe
        f2 = GrassmannPolynomial()
        from hfrg.grassmann import bits_of
        for mask, c in f.terms.items():
            prod = GrassmannPolynomial.scalar(c)
            for b in bits_of(mask):
                gid = u.gens[b]
                if gid.kind == "ext":
                    img = u2.generator(gid)
                else:
                    twin = GeneratorId("int", 1, gid.species, gid.spin,
                                       gid.conj)
                    img = u2.generator(gid) + u2.generator(twin)
                prod = prod * img
            f2 = f2 + prod
        rhs2 = integrate_polynomial(u2, t_both, f2)

        # map external bits of u2 back to u
        rhs = GrassmannPolynomial()
        for mask, c in rhs2.terms.items():
            m = 0
            for b in bits_of(mask):
                m |= 1 << u.bit_of[u2.gens[b]]
            rhs = rhs + GrassmannPolynomial({m: c})
        assert lhs == rhs


def inversion_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_alternating_product_is_signed_pairing_sum():
    """An interleaved product (minus plus)(minus plus)... integrates to
    the determinant-style sum over pairings, written out literally."""
    rng = random.Random(11)
    for n in (1, 2, 3):
        u = make_universe(n)
        t, rows = random_table(u, n, rng)
        for _ in range(4):
            a = rng.sample(range(n), n)
            b = rng.sample(range(n), n)
            f = GrassmannPolynomial.scalar(Fraction(1))
            for i in range(n):
                f = f * u.generator(pair_gen(a[i], "-"))
                f = f * u.generator(pair_gen(b[i], "+"))
            expected = Fraction(0)
            for tau in itertools.permutations(range(n)):
                prod = Fraction(inversion_sign(tau))
                for i in range(n):
                    prod *= rows[a[i]][b[tau[i]]]
                expected += prod
            got = integrate_polynomial(u, t, f)
            want = GrassmannPolynomial.scalar(expected)
            assert got == want or (not got and not want)
            assert berezin_reference_integral(u, t, f) == got
