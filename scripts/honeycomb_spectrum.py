#!/usr/bin/env python3
"""Print the honeycomb one-scale map's equilibria, spectra, and sizes.

Builds the symbolic map, verifies both exact equilibria, prints the
Jacobian spectrum at each, and tabulates the stored monomial counts.
It also checks, in exact arithmetic, that the second quartic
coupling's numerator factors as (l1/2) times the normalization
polynomial, the identity behind the two defensible ways of counting
the map's terms (887 stored numerator monomials here; 888 for the
reduced numerators plus the shared normalization).
"""

from fractions import Fraction

import numpy as np

from hfrg.couplings import CouplingPolynomial
from hfrg.models import graphene_model
from hfrg.rg import rg_step


def main():
    beta = rg_step(graphene_model())
    n = beta.n
    zero = [Fraction(0)] * n
    e0 = [Fraction(1)] + [Fraction(0)] * (n - 1)
    assert beta.evaluate(zero) == zero
    assert beta.evaluate(e0) == e0
    print("exact equilibria: origin and (1, 0, 0, 0, 0, 0, 0)")

    for name, point in (("origin", zero), ("interacting", e0)):
        jac = np.array([[float(x) for x in row]
                        for row in beta.jacobian(point)])
        moduli = sorted((abs(v) for v in np.linalg.eigvals(jac)),
                        reverse=True)
        shown = ", ".join(f"{m:.6g}" for m in moduli)
        print(f"spectrum moduli at {name:>11}: {shown}")

    counts = [len(p.terms) for p in beta.numerators]
    print(f"numerator monomials: {counts} (sum {sum(counts)})")
    print(f"normalization monomials: {len(beta.denominator.terms)}, "
          f"per-coordinate powers {beta.denominator_powers}")

    single = CouplingPolynomial(
        n, {tuple(1 if j == 1 else 0 for j in range(n)): Fraction(1, 2)})
    assert single * beta.denominator == beta.numerators[1]
    print("factorization: numerator[1] == (l1/2) * normalization, so the "
          "reduced map stores")
    reduced = sum(counts) - len(beta.denominator.terms) + 1
    print(f"  {reduced} numerator monomials + "
          f"{len(beta.denominator.terms)} shared normalization monomials "
          f"= {reduced + len(beta.denominator.terms)}")


if __name__ == "__main__":
    main()
