"""Gaussian Grassmann integration over the internal generators.

Two independent routes compute the same functional:

* ``integrate_polynomial``: pairing recursion over the internal part
  of each monomial.  ``Universe`` orders every external generator
  before every internal one, so a canonical monomial is its external
  letters followed by its internal letters, and integrating leaves
  the external part in place with no extra sign.  The first internal
  letter is contracted against every later internal letter of
  opposite conjugation; the sign is (-1)**(internal letters strictly
  between the pair).  Orientation: the table entry g(m, p) is the
  value of the integral of (minus before plus), so a plus before a
  minus picks up a minus sign.

* ``berezin_reference_integral``: expands the Gaussian density
  det(g) * exp(-sum_kl inv(g)[k,l] plus_k minus_l), multiplies by the
  integrand, and reads off the top internal monomial against the
  reference word (minus_1 plus_1 minus_2 plus_2 ...).  Exponential in
  16 generators is affordable only for small universes, which is all
  an oracle needs.  The density depends only on the covariance, so
  each ``PropagatorTable`` builds it once, on first use, and keeps it
  (``gaussian_density``); each integrand then costs one product.

They share nothing but the polynomial arithmetic (products, the
zero-dropping term accumulator ``add_terms`` and the sorting sign
``canonicalize_bits``), so agreement is a real cross-check of the sign
conventions.  The pairing route solves no linear system; the oracle
inverts the covariance with ``row_reduce``, the exact elimination that
projection onto a basis also uses.

``integrate_polynomial`` is also checked against Fock space, by the
``wick_rule`` lemma of ``hfrg.fock``.  ``lemma_record`` builds the
pass/fail record that every verify battery returns.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property

from .couplings import add_terms
from .grassmann import (GeneratorId, GrassmannPolynomial, bits_of,
                        canonicalize_bits, exp_truncated, merge_sign)


class SingularPropagator(ValueError):
    """Propagator matrix is not invertible."""


class Universe:
    """An ordered set of generators; bit i encodes the i-th generator
    in ``GeneratorId`` order, which puts every external one first."""

    def __init__(self, generators):
        gens = tuple(sorted(generators, key=GeneratorId.sort_key))
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generators in universe")
        if len(gens) > 72:
            raise ValueError("universe too large")
        self.gens = gens
        self.bit_of = {g: i for i, g in enumerate(gens)}
        self.internal_mask = 0
        for g, i in self.bit_of.items():
            if g.kind == "int":
                self.internal_mask |= 1 << i

    @property
    def n(self):
        return len(self.gens)

    def monomial(self, gid_seq, coeff=Fraction(1)):
        return GrassmannPolynomial.monomial(
            [self.bit_of[g] for g in gid_seq], coeff)

    def generator(self, gid):
        return GrassmannPolynomial({1 << self.bit_of[gid]: Fraction(1)})


class PropagatorTable:
    """Covariance of the Gaussian measure on the internal generators.

    Entries pair a conjugation-minus generator with a conjugation-plus
    generator inside one integration block (by default each child box
    is its own block); anything else is a locality violation.
    """

    def __init__(self, universe, entries, blocks=None):
        self.universe = universe
        self._table = {}
        block_of = {}
        if blocks is not None:
            for label, children in enumerate(blocks):
                for ch in children:
                    block_of[ch] = label
        for (gm, gp), value in entries.items():
            if gm.conj != "-" or gp.conj != "+":
                raise ValueError("entry must pair minus with plus")
            if gm.kind != "int" or gp.kind != "int":
                raise ValueError("entry must pair internal generators")
            bm = block_of.get(gm.child, gm.child)
            bp = block_of.get(gp.child, gp.child)
            if bm != bp:
                raise ValueError("entry crosses integration blocks")
            if value:
                self._table[(universe.bit_of[gm], universe.bit_of[gp])] = value

    def get(self, minus_bit, plus_bit):
        return self._table.get((minus_bit, plus_bit))

    def items(self):
        """Entries as ((minus_bit, plus_bit), value), bit-sorted."""
        return sorted(self._table.items())

    def internal_bits(self, conj):
        """Bits of the internal generators of conjugation ``conj``."""
        return [i for i, g in enumerate(self.universe.gens)
                if g.kind == "int" and g.conj == conj]

    @cached_property
    def gaussian_density(self):
        """(density, internal mask, reference sign) for the oracle route.

        The density is det(g) * exp(-sum_kl inv(g)[k,l] plus_k minus_l);
        the reference sign orders the top internal monomial as
        minus_1 plus_1 minus_2 plus_2 ...  Nothing is stored when the
        table is singular or too large, so every call raises again.
        """
        minus = self.internal_bits("-")
        plus = self.internal_bits("+")
        if len(minus) != len(plus):
            raise ValueError("unpaired internal generators")
        n = len(minus)
        if 2 * n > 16:
            raise ValueError("oracle limited to 16 internal generators")
        g = [[self.get(mb, pb) or Fraction(0) for pb in plus]
             for mb in minus]
        ginv, det = _invert_exact(g)
        quad = GrassmannPolynomial()
        for k in range(n):
            for l in range(n):
                if not ginv[k][l]:
                    continue
                quad = quad + GrassmannPolynomial.monomial(
                    [plus[k], minus[l]], -ginv[k][l])
        density = exp_truncated(quad).scale(det)

        full_int = 0
        for b in minus + plus:
            full_int |= 1 << b
        reference = []
        for mb, pb in zip(minus, plus):
            reference.extend((mb, pb))
        return density, full_int, canonicalize_bits(reference)[1]


def _pairing_value(mask, get, cache):
    """Sum over all complete contractions of the internal letters in
    ``mask``, in ascending bit order; ``cache`` maps masks to values."""
    hit = cache.get(mask)
    if hit is not None:
        return hit
    first = (mask & -mask).bit_length() - 1
    rest = mask ^ (1 << first)
    total = Fraction(0)
    between = 0
    m = rest
    while m:
        low = m & -m
        b2 = low.bit_length() - 1
        g = get(first, b2)
        if g is None:
            g = get(b2, first)
            g = -g if g is not None else None
        if g is not None:
            v = _pairing_value(rest ^ low, get, cache) * g
            total += -v if between & 1 else v
        between += 1
        m ^= low
    cache[mask] = total
    return total


def integrate_polynomial(universe, table, poly):
    """Integrate out the internal generators; externals pass through."""
    internal = universe.internal_mask
    cache = {0: Fraction(1)}
    get = table.get
    return GrassmannPolynomial._of(add_terms({}, (
        (mask & ~internal, coeff * s) for mask, coeff in poly.terms.items()
        if (s := _pairing_value(mask & internal, get, cache)))))


def row_reduce(rows, n):
    """Exact Gauss-Jordan elimination over the first ``n`` columns.

    Takes ``rows`` in order and keeps each one that is independent of
    those kept so far, until ``n`` are kept.  Returns the kept rows,
    reduced (1 at their own pivot, 0 at every other pivot column) and
    in pivot-column order, and the determinant of their first ``n``
    columns: the product of the pivots times the sign of the pivot
    permutation.  Columns past ``n`` (a right-hand side, an identity
    block) ride along.
    """
    kept = []  # (row, pivot column), in the order the rows were kept
    det = Fraction(1)
    for red in rows:
        for prow, pcol in kept:
            f = red[pcol]
            if f:
                red = [x - f * y for x, y in zip(red, prow)]
        pcol = next((k for k, v in enumerate(red[:n]) if v), None)
        if pcol is None:
            continue
        p = red[pcol]
        det *= p
        red = [x / p for x in red]
        for i, (prow, qcol) in enumerate(kept):
            f = prow[pcol]
            if f:
                kept[i] = ([x - f * y for x, y in zip(prow, red)], qcol)
        kept.append((red, pcol))
        if len(kept) == n:
            break
    pivots = [pcol for _, pcol in kept]
    det *= canonicalize_bits(pivots)[1]
    return [row for row, _ in sorted(kept, key=lambda w: w[1])], det


def _invert_exact(rows):
    """Exact inverse and determinant: ``row_reduce`` on [A | I]."""
    n = len(rows)
    reduced, det = row_reduce(
        [list(r) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, r in enumerate(rows)], n)
    if len(reduced) < n:
        raise SingularPropagator("propagator matrix is singular")
    return [row[n:] for row in reduced], det


def berezin_reference_integral(universe, table, poly):
    """Oracle route via the explicit Gaussian density.

    Limited to 16 internal generators; raises SingularPropagator when
    the covariance has no inverse.  The density is built once per
    table (``PropagatorTable.gaussian_density``).
    """
    density, full_int, sigma2 = table.gaussian_density
    internal = universe.internal_mask
    # a term with the full internal part is its external part times
    # the top monomial, so no two terms share an external mask
    top = ((mask & ~internal, c) for mask, c in (density * poly).terms.items()
           if mask & internal == full_int)
    return GrassmannPolynomial._of(
        {ext: c if merge_sign(ext, full_int) == sigma2 else -c
         for ext, c in top})


# ------------------------------------------------------------- verification


def lemma_record(name, tolerance, error):
    """One pass/fail record of a verify battery: the fact's name, the
    tolerance it is held to, the largest error observed, and whether
    that error is within the tolerance."""
    return {"lemma": name, "tolerance": tolerance,
            "max_error": float(error), "passed": bool(error <= tolerance)}


def _battery_pair(k, conj, child=0):
    return GeneratorId("int", child, f"s{k}", "up", conj)


def _battery_universe(n_pairs, children=(0,)):
    gens = []
    for child in children:
        for k in range(n_pairs):
            gens.append(_battery_pair(k, "+", child))
            gens.append(_battery_pair(k, "-", child))
    return Universe(gens)


def _battery_table(rng, universe, n_pairs, child=0):
    while True:
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(n_pairs)] for _ in range(n_pairs)]
        try:
            _invert_exact([row[:] for row in rows])
        except SingularPropagator:
            continue
        entries = {(_battery_pair(a, "-", child),
                    _battery_pair(b, "+", child)): rows[a][b]
                   for a in range(n_pairs) for b in range(n_pairs)}
        return PropagatorTable(universe, entries), rows


def verify_identities(seed=20260817):
    """Exercise the defining identities of the Gaussian integral and
    return one pass/fail record per identity.

    Every covariance drawn for the first three identities is held to
    all three.  All checks are exact rational comparisons, so
    ``max_error`` counts failing cases against a zero tolerance.
    """
    rng = random.Random(seed)
    one = GrassmannPolynomial.scalar(Fraction(1))
    routes = (integrate_polynomial, berezin_reference_integral)
    unit = two_point = disagree = 0
    for n_pairs in (1, 2, 3):
        u = _battery_universe(n_pairs)
        for _ in range(3):
            t, rows = _battery_table(rng, u, n_pairs)
            # the density is normalized: integrating 1 gives 1
            unit += sum(route(u, t, one) != one for route in routes)
            # a minus-plus pair integrates to its table entry
            for a in range(n_pairs):
                for b in range(n_pairs):
                    f = u.generator(_battery_pair(a, "-")) \
                        * u.generator(_battery_pair(b, "+"))
                    expected = GrassmannPolynomial.scalar(rows[a][b])
                    two_point += sum(route(u, t, f) != expected
                                     for route in routes)
            # the two routes agree on every monomial
            for mask in range(1 << u.n):
                f = GrassmannPolynomial({mask: Fraction(1)})
                disagree += integrate_polynomial(u, t, f) != \
                    berezin_reference_integral(u, t, f)
    records = [lemma_record("normalized_unit", 0.0, unit),
               lemma_record("two_point_table", 0.0, two_point),
               lemma_record("pairing_vs_density", 0.0, disagree)]

    # convolution: a sum of covariances equals an iterated integral
    failures = 0
    n_pairs = 2
    u = _battery_universe(n_pairs)
    u2 = _battery_universe(n_pairs, children=(0, 1))
    for _ in range(5):
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
        mask = rng.randrange(1, 1 << u.n)
        f = GrassmannPolynomial({mask: Fraction(1)})
        lhs = integrate_polynomial(u, t_sum, f)
        doubled = GrassmannPolynomial.scalar(Fraction(1))
        for b in bits_of(mask):
            gid = u.gens[b]
            twin = GeneratorId("int", 1, gid.species, gid.spin, gid.conj)
            doubled = doubled * (u2.generator(gid) + u2.generator(twin))
        rhs = integrate_polynomial(u2, t_both, doubled)
        if lhs != rhs:
            failures += 1
    records.append(lemma_record("gaussian_addition", 0.0, failures))

    return records
