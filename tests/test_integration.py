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
from hypothesis import example, given, strategies as st

from hfrg import integration
from hfrg.grassmann import GeneratorId, GrassmannPolynomial
from hfrg.integration import (PropagatorTable, SingularPropagator, Universe,
                              _battery_pair, _battery_table,
                              _battery_universe, _invert_exact,
                              berezin_reference_integral,
                              integrate_polynomial, row_reduce,
                              verify_identities)
from hfrg.scalars import ImpurityElement


def ext_gen(i):
    return GeneratorId("ext", 0, f"e{i}", "up", "+")


def with_externals(n_ext, universe):
    return Universe([*map(ext_gen, range(n_ext)), *universe.gens])


def random_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def random_poly(universe, rng, max_terms=6):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mask = rng.randrange(1 << universe.n)
        c = random_fraction(rng)
        if c:
            terms[mask] = terms.get(mask, Fraction(0)) + c
    return GrassmannPolynomial(terms)


def test_integral_of_one_is_one():
    u = _battery_universe(2)
    t, _ = _battery_table(random.Random(0), u, 2)
    one = GrassmannPolynomial.scalar(Fraction(1))
    assert integrate_polynomial(u, t, one) == one
    assert berezin_reference_integral(u, t, one) == one


def test_single_pair_orientation():
    u = _battery_universe(1)
    g = Fraction(3, 7)
    t = PropagatorTable(u, {(_battery_pair(0, "-"), _battery_pair(0, "+")): g})
    minus = u.generator(_battery_pair(0, "-"))
    plus = u.generator(_battery_pair(0, "+"))
    for route in (integrate_polynomial, berezin_reference_integral):
        assert route(u, t, minus * plus) == GrassmannPolynomial.scalar(g)
        assert route(u, t, plus * minus) == GrassmannPolynomial.scalar(-g)
        assert not route(u, t, minus)
        assert not route(u, t, plus)


def test_two_point_matches_table():
    rng = random.Random(1)
    u = _battery_universe(3)
    t, rows = _battery_table(rng, u, 3)
    for a in range(3):
        for b in range(3):
            f = u.generator(_battery_pair(a, "-")) \
                * u.generator(_battery_pair(b, "+"))
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
        u = with_externals(n_ext, _battery_universe(n_pairs))
        t, _ = _battery_table(rng, u, n_pairs)
        f = random_poly(u, rng)
        assert integrate_polynomial(u, t, f) == \
            berezin_reference_integral(u, t, f), (trial, f.terms)


def test_external_spectators_pass_through():
    u = with_externals(2, _battery_universe(1))
    t = PropagatorTable(
        u, {(_battery_pair(0, "-"), _battery_pair(0, "+")): Fraction(2)})
    e0, e1 = ext_gen(0), ext_gen(1)
    # e0 minus e1 plus : contraction jumps over e1
    f = (u.generator(e0) * u.generator(_battery_pair(0, "-")) * u.generator(e1)
         * u.generator(_battery_pair(0, "+")))
    got = integrate_polynomial(u, t, f)
    expected = (u.generator(e0) * u.generator(e1)).scale(Fraction(-2))
    assert got == expected
    assert berezin_reference_integral(u, t, f) == expected


def test_unmatched_internal_content_vanishes():
    u = _battery_universe(2)
    t, _ = _battery_table(random.Random(3), u, 2)
    f = u.generator(_battery_pair(0, "-")) * u.generator(_battery_pair(1, "-"))
    assert not integrate_polynomial(u, t, f)
    assert not berezin_reference_integral(u, t, f)


def test_singular_covariance_raises_in_oracle():
    u = _battery_universe(2)
    entries = {(_battery_pair(a, "-"), _battery_pair(b, "+")): Fraction(1)
               for a in range(2) for b in range(2)}
    t = PropagatorTable(u, entries)
    with pytest.raises(SingularPropagator):
        berezin_reference_integral(u, t, GrassmannPolynomial.scalar(
            Fraction(1)))


def test_reused_table_gives_the_values_of_a_fresh_equal_table():
    rng = random.Random(7)
    u = _battery_universe(3)
    t, rows = _battery_table(rng, u, 3)
    entries = {(_battery_pair(a, "-"), _battery_pair(b, "+")): rows[a][b]
               for a in range(3) for b in range(3)}
    for mask in range(1 << u.n):
        f = GrassmannPolynomial({mask: Fraction(1)})
        fresh = PropagatorTable(u, entries)
        assert berezin_reference_integral(u, t, f) == \
            berezin_reference_integral(u, fresh, f), mask


def test_singular_table_raises_on_every_call():
    u = _battery_universe(2)
    entries = {(_battery_pair(a, "-"), _battery_pair(b, "+")): Fraction(1)
               for a in range(2) for b in range(2)}
    t = PropagatorTable(u, entries)
    one = GrassmannPolynomial.scalar(Fraction(1))
    for _ in range(2):
        with pytest.raises(SingularPropagator):
            berezin_reference_integral(u, t, one)


def test_table_validation():
    u = _battery_universe(1)
    with pytest.raises(ValueError):
        PropagatorTable(u, {(_battery_pair(0, "+"), _battery_pair(0, "-")):
                            Fraction(1)})
    u2 = Universe([_battery_pair(0, "+", 0), _battery_pair(0, "-", 0),
                   _battery_pair(0, "+", 1), _battery_pair(0, "-", 1)])
    with pytest.raises(ValueError):
        PropagatorTable(u2, {(_battery_pair(0, "-", 0),
                              _battery_pair(0, "+", 1)): Fraction(1)})
    # an explicit block merging the two children allows the pairing
    PropagatorTable(u2, {(_battery_pair(0, "-", 0), _battery_pair(0, "+", 1)):
                         Fraction(1)}, blocks=[{0, 1}])


def test_gaussian_addition_property():
    """Convolution of Gaussians: integrating with g1 + g2 equals the
    iterated integral of f(psi1 + psi2)."""
    rng = random.Random(7)
    n_pairs, n_ext = 2, 2
    u = with_externals(n_ext, _battery_universe(n_pairs))
    u2 = with_externals(n_ext, _battery_universe(n_pairs, (0, 1)))
    for _ in range(10):
        t1, rows1 = _battery_table(rng, u, n_pairs)
        t2, rows2 = _battery_table(rng, u, n_pairs)
        sum_entries = {}
        both_entries = {}
        for a in range(n_pairs):
            for b in range(n_pairs):
                key = (_battery_pair(a, "-"), _battery_pair(b, "+"))
                sum_entries[key] = rows1[a][b] + rows2[a][b]
                both_entries[(_battery_pair(a, "-", 0),
                              _battery_pair(b, "+", 0))] = rows1[a][b]
                both_entries[(_battery_pair(a, "-", 1),
                              _battery_pair(b, "+", 1))] = rows2[a][b]
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


LEMMAS = ["normalized_unit", "two_point_table", "pairing_vs_density",
          "gaussian_addition"]


def test_identity_battery_passes_across_seeds():
    for seed in range(1, 21):
        records = verify_identities(seed)
        assert [r["lemma"] for r in records] == LEMMAS
        for r in records:
            assert r["passed"], f"{r['lemma']} at {r['max_error']} ({seed})"


def test_identity_battery_catches_a_wrong_integral(monkeypatch):
    # a doubled integral breaks every per-table identity, while both
    # sides of the addition identity double alike
    integrate = integration.integrate_polynomial
    monkeypatch.setattr(integration, "integrate_polynomial",
                        lambda u, t, f: integrate(u, t, f).scale(2))
    records = {r["lemma"]: r for r in verify_identities()}
    for name in LEMMAS[:3]:
        assert not records[name]["passed"]
        assert records[name]["max_error"] > 0
    assert records["gaussian_addition"]["passed"]


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
        u = _battery_universe(n)
        t, rows = _battery_table(rng, u, n)
        for _ in range(4):
            a = rng.sample(range(n), n)
            b = rng.sample(range(n), n)
            f = GrassmannPolynomial.scalar(Fraction(1))
            for i in range(n):
                f = f * u.generator(_battery_pair(a[i], "-"))
                f = f * u.generator(_battery_pair(b[i], "+"))
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


def test_cancelling_contributions_integrate_to_zero():
    """Two internal pairs reach one external monomial with contributions
    c * 2 and (-2c/3) * 3; the sum is the zero polynomial, not a stored
    zero coefficient, for rational and matrix coefficients."""
    u = with_externals(1, _battery_universe(2))
    t = PropagatorTable(u, {
        (_battery_pair(0, "-"), _battery_pair(0, "+")): Fraction(2),
        (_battery_pair(1, "-"), _battery_pair(1, "+")): Fraction(3)})
    e = u.generator(ext_gen(0))

    def pair(k):
        return e * u.generator(_battery_pair(k, "-")) * u.generator(
            _battery_pair(k, "+"))

    for c in (Fraction(5, 7), ImpurityElement.unit(0, 0)):
        f = pair(0).scale(c) + pair(1).scale(-c * Fraction(2, 3))
        assert integrate_polynomial(u, t, pair(0).scale(c)) == e.scale(2 * c)
        assert integrate_polynomial(u, t, f).terms == {}
        assert berezin_reference_integral(u, t, f).terms == {}


def leibniz_det(a):
    total = Fraction(0)
    for perm in itertools.permutations(range(len(a))):
        term = Fraction(inversion_sign(perm))
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


entries = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-4, max_value=4, max_denominator=3))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 4))
    a = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # the last row a combination of the others: rank below n
        cs = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
        a[-1] = [sum(c * row[j] for c, row in zip(cs, a)) for j in range(n)]
    return a


@given(square_matrices())
@example([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
@example([[Fraction(0), Fraction(1), Fraction(1)],
          [Fraction(2), Fraction(0), Fraction(0)],
          [Fraction(0), Fraction(0), Fraction(3)]])
def test_exact_inverse_matches_leibniz_determinant(a):
    """The determinant is the product of the pivots times the sign of
    the pivot permutation; the examples need an odd permutation."""
    det = leibniz_det(a)
    if not det:
        with pytest.raises(SingularPropagator):
            _invert_exact(a)
        return
    inv, got = _invert_exact(a)
    n = len(a)
    assert got == det
    assert [[sum(a[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == identity(n)


@st.composite
def consistent_systems(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n + 1, n + 3))
    a = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    x = draw(st.lists(entries, min_size=n, max_size=n))
    return a, x


@given(consistent_systems())
def test_row_reduce_solves_overdetermined_systems(system):
    a, x = system
    n = len(x)
    dot = lambda row: sum(c * xi for c, xi in zip(row, x))
    reduced, det = row_reduce([row + [dot(row)] for row in a], n)
    full_rank = any(leibniz_det([a[i] for i in pick])
                    for pick in itertools.combinations(range(len(a)), n))
    assert (len(reduced) == n) == full_rank
    for row in reduced:
        assert dot(row[:n]) == row[n]
    if full_rank:
        assert [row[:n] for row in reduced] == identity(n)
        assert [row[n] for row in reduced] == x
        assert det
