"""Model definitions for the two hierarchical fermionic systems.

* Honeycomb bilayer ("graphene"): two sublattices a/b, two spins, a
  seven-operator interaction basis closed under the RG step, scaling
  exponent 1, replication 8 (each coarse box holds 2^(d+1) children).

* Spin-impurity chain ("kondo"): one site, two spins, the impurity spin
  algebra M2(Q) tensored onto the coefficients, scaling exponent 1/2,
  two half-box factors per box.

Also hosts the honeycomb lattice reference functions (dispersion,
bands, Fermi points) used by the `lattice` CLI subcommand, and the
exact projection of a polynomial onto an operator basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .couplings import add_terms
from .grassmann import GeneratorId, GrassmannPolynomial
from .integration import PropagatorTable, Universe, row_reduce
from .scalars import ImpurityElement

UP, DN = "up", "dn"
PLUS, MINUS = "+", "-"


def _ext(species, spin, conj):
    return GeneratorId("ext", 0, species, spin, conj)


def _int(child, species, spin, conj):
    return GeneratorId("int", child, species, spin, conj)


def _field_images(u, child, scale_by_conj):
    """Field split of one replica factor: each external generator g
    becomes its fluctuation partner in box ``child`` plus g scaled by
    ``scale_by_conj[g.conj]``."""
    return {u.bit_of[g]: u.generator(_int(child, g.species, g.spin, g.conj))
            + u.generator(g).scale(scale_by_conj[g.conj])
            for g in u.gens if g.kind == "ext"}


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    entries: tuple  # of (label, GrassmannPolynomial over external bits)

    @property
    def polys(self):
        return tuple(p for _, p in self.entries)


@dataclass(frozen=True, eq=False)
class ModelSpec:
    name: str
    gamma: Fraction
    replication: int
    combination: str          # "exp-log" or "product"
    ring: str                 # "rational" or "impurity"
    universe: Universe
    propagator: PropagatorTable
    basis: OperatorBasis
    images: tuple             # one substitution dict per replica factor
    coupling_names: tuple

    @property
    def n_couplings(self):
        return len(self.coupling_names)


# ------------------------------------------------------------------ graphene


def _graphene_universe():
    gens = []
    for kind in ("ext", "int"):
        for species in ("a", "b"):
            for spin in (UP, DN):
                for conj in (PLUS, MINUS):
                    gens.append(GeneratorId(kind, 0, species, spin, conj))
    return Universe(gens)


def _graphene_operators(u):
    """The seven operators, each built from the sum of the distinct
    images of one seed monomial, written as (conj, species, spin)
    letters, under spin flip x sublattice swap."""
    def orbit_sum(*seed):
        images = {}
        for spin in ({UP: UP, DN: DN}, {UP: DN, DN: UP}):
            for species in ({"a": "a", "b": "b"}, {"a": "b", "b": "a"}):
                images.update(u.monomial([_ext(species[sp], spin[s], c)
                                          for c, sp, s in seed]).terms)
        return GrassmannPolynomial(images)

    P, M = PLUS, MINUS
    return OperatorBasis((
        ("hopping", orbit_sum((P, "a", UP), (M, "b", UP))),
        ("onsite_pair",
         orbit_sum((P, "a", UP), (M, "a", UP), (P, "a", DN), (M, "a", DN))),
        # the sum over all four group elements: each of its two
        # distinct images comes twice
        ("spin_exchange", orbit_sum((P, "a", UP), (M, "a", DN),
                                    (P, "b", DN), (M, "b", UP)).scale(2)),
        ("parallel_density",
         orbit_sum((P, "a", UP), (M, "a", UP), (P, "b", UP), (M, "b", UP))),
        ("pair_hopping",
         orbit_sum((P, "a", UP), (M, "b", UP), (P, "a", DN), (M, "b", DN))),
        ("assisted_hopping",
         orbit_sum((P, "a", UP), (M, "a", UP), (P, "a", DN),
                   (M, "b", UP), (P, "b", UP), (M, "b", DN))),
        ("full_occupancy", orbit_sum(*((c, sp, s) for sp in "ab"
                                       for s in (UP, DN) for c in (P, M)))),
    ))


def graphene_model():
    """Honeycomb bilayer spec: cross-sublattice unit propagator, field
    scale 1/2 per level, eight children per coarse box."""
    u = _graphene_universe()
    # Cross-sublattice pairing only; the sign is pinned by requiring
    # the quadratic coupling's non-trivial equilibrium at +1 (with the
    # opposite sign the same flow appears mirrored at -1, a sublattice
    # gauge flip away).  See the rg tests for the axis closed form
    # l0 -> 2*l0/(1+l0).
    entries = {}
    for s in (UP, DN):
        entries[(_int(0, "a", s, MINUS), _int(0, "b", s, PLUS))] = Fraction(-1)
        entries[(_int(0, "b", s, MINUS), _int(0, "a", s, PLUS))] = Fraction(-1)
    table = PropagatorTable(u, entries)
    half = Fraction(1, 2)
    images = _field_images(u, 0, {PLUS: half, MINUS: half})
    return ModelSpec(
        name="graphene",
        gamma=Fraction(1),
        replication=8,
        combination="exp-log",
        ring="rational",
        universe=u,
        propagator=table,
        basis=_graphene_operators(u),
        images=(images,),
        coupling_names=tuple(f"l{i}" for i in range(7)),
    )


# -------------------------------------------------------------------- kondo

def _kondo_universe():
    gens = []
    for spin in (UP, DN):
        for conj in (PLUS, MINUS):
            gens.append(GeneratorId("ext", 0, "", spin, conj))
    for half in (0, 1):
        for spin in (UP, DN):
            for conj in (PLUS, MINUS):
                gens.append(GeneratorId("int", half, "", spin, conj))
    return Universe(gens)


def _kondo_operators(u):
    """Exchange sum_j S_j (x) 1/2 psi+ sigma_j psi- and double occupancy
    1/2 (sum_j psi+ sigma_j psi-)**2, with coefficients in M2(Q).

    By the Fierz identity sum_j sigma_j[a,b] sigma_j[s,s'] =
    2 delta_as' delta_bs - delta_ab delta_ss', the exchange coefficient
    of psi+_s psi-_s' is 1/2 (2 E_s's - delta_ss' 1), and the double
    occupancy is -3 times the full quartic.
    """
    spins = (UP, DN)
    half = Fraction(1, 2)
    exchange = GrassmannPolynomial()
    for s, spin in enumerate(spins):
        for sp, spin_p in enumerate(spins):
            coeff = ImpurityElement.unit(sp, s) - (half if s == sp else 0)
            exchange = exchange + u.monomial(
                [_ext("", spin, PLUS), _ext("", spin_p, MINUS)], coeff)
    double_occupancy = u.monomial(
        [_ext("", spin, conj) for spin in spins for conj in (PLUS, MINUS)],
        ImpurityElement.scalar(-3))
    return OperatorBasis((
        ("exchange", exchange),
        ("double_occupancy", double_occupancy),
    ))


def kondo_model():
    """Spin-impurity spec: two half-box fluctuation fields integrated
    jointly, the coarse psi+ scaled by 1/2 and psi- by 1 in both factors.

    The half-box covariance is the antisymmetric cross-half pairing:
    psi- of half 0 with psi+ of half 1 is 1, psi- of half 1 with psi+
    of half 0 is -1, for each spin.  The rg tests hold the calibration
    candidates: every other pairing leaves the two-operator basis.

    The model's coarse field scale is 2**(-1/2) on every generator; the
    rational split gives the same map because every propagator entry
    and every operator is charge-neutral, so each coarse monomial of
    the integrated product carries as many psi+ as psi-, and each such
    pair carries 1/2 = (2**(-1/2))**2 either way.
    """
    u = _kondo_universe()
    entries = {(_int(hm, "", s, MINUS), _int(hp, "", s, PLUS)): Fraction(v)
               for hm, hp, v in ((0, 1, 1), (1, 0, -1)) for s in (UP, DN)}
    table = PropagatorTable(u, entries, blocks=[{0, 1}])
    scale = {PLUS: Fraction(1, 2), MINUS: Fraction(1)}
    images = [_field_images(u, half, scale) for half in (0, 1)]
    return ModelSpec(
        name="kondo",
        gamma=Fraction(1, 2),
        replication=2,
        combination="product",
        ring="impurity",
        universe=u,
        propagator=table,
        basis=_kondo_operators(u),
        images=tuple(images),
        coupling_names=("l0", "l1"),
    )


# --------------------------------------------------------------- projection


def _impurity_components(c):
    """Nonzero coordinates (j, value): the matrix entries a, b, c, d of
    an impurity element, or the entry a of a scalar."""
    if isinstance(c, ImpurityElement):
        return [(j, v) for j, v in enumerate(c.entries) if v]
    return [(0, c)]


def _component(c, j):
    if isinstance(c, ImpurityElement):
        return c.entries[j]
    # a scalar is the scalar matrix: entries a and d
    return c if j in (0, 3) else Fraction(0)


def project_onto_basis(p, basis):
    """Exact decomposition p = sum_i x_i * basis_i + residual.

    Coefficients may be rationals, coupling polynomials, or impurity
    elements whose entries are either; an impurity coefficient
    contributes its four matrix entries as coordinates.  The system is
    solved exactly over the rationals, and the residual is returned,
    never dropped.
    """
    polys = basis.polys if isinstance(basis, OperatorBasis) else tuple(basis)
    n = len(polys)
    coords = {}
    for i, bp in enumerate(polys):
        for mask, c in bp.terms.items():
            for j, s in _impurity_components(c):
                row = coords.setdefault((mask, j), [Fraction(0)] * n)
                row[i] = s
    # the coordinate rows, each augmented with p's coordinate
    rows = (coords[c] + [_component(p.terms.get(c[0], Fraction(0)), c[1])]
            for c in sorted(coords))
    reduced, _ = row_reduce(rows, n)
    if len(reduced) < n:
        raise ValueError("basis is not linearly independent")
    x = [row[n] for row in reduced]

    recon = {}
    for xi, bp in zip(x, polys):
        add_terms(recon, ((m, xi * v) for m, v in bp.terms.items()))
    return x, p - GrassmannPolynomial._of(recon)


# -------------------------------------------------------------- fingerprint


def _coeff_token(c):
    """Stable one-line text form of any coefficient-ring element."""
    if isinstance(c, Fraction):
        return str(c)
    if isinstance(c, ImpurityElement):
        # Pauli coordinates, each as re+imi&0+0ir2 (x + y*sqrt(2) over
        # Gaussian rationals): the golden token format, which stays when
        # that scalar tower is gone; only the S2 coordinate is imaginary
        c0, c1, y, c3 = c.pauli_components()
        return (f"{c0}+0i&0+0ir2;{c1}+0i&0+0ir2;"
                f"0+{y}i&0+0ir2;{c3}+0i&0+0ir2")
    raise TypeError(f"no token form for {type(c).__name__}")


def operator_fingerprint(spec):
    """Canonical text encoding of the basis and propagator.

    Used by the committed golden files that pin the operator
    transcription; any edit to the model definitions shows up as a
    diff against tests/data.
    """
    from .grassmann import bits_of

    u = spec.universe
    ops = []
    for label, poly in spec.basis.entries:
        rows = [["*".join(str(u.gens[b]) for b in bits_of(mask)),
                 _coeff_token(c)]
                for mask, c in sorted(poly.terms.items())]
        ops.append([label, rows])
    prop = [[str(u.gens[mb]), str(u.gens[pb]), _coeff_token(v)]
            for (mb, pb), v in spec.propagator.items()]
    return {
        "model": spec.name,
        "gamma": str(spec.gamma),
        "replication": spec.replication,
        "combination": spec.combination,
        "ring": spec.ring,
        "operators": ops,
        "propagator": prop,
    }


# ------------------------------------------------------------------ lattice

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class LatticeConstants:
    l1: tuple = (1.5, SQRT3 / 2)
    l2: tuple = (1.5, -SQRT3 / 2)
    delta1: tuple = (1.0, 0.0)
    delta2: tuple = (-0.5, SQRT3 / 2)
    delta3: tuple = (-0.5, -SQRT3 / 2)
    G1: tuple = (2 * math.pi / 3, 2 * math.pi / SQRT3)
    G2: tuple = (2 * math.pi / 3, -2 * math.pi / SQRT3)
    fermi_plus: tuple = (2 * math.pi / 3, 2 * math.pi / (3 * SQRT3))
    fermi_minus: tuple = (2 * math.pi / 3, -2 * math.pi / (3 * SQRT3))
    v_fermi: float = 1.5


LATTICE = LatticeConstants()


def omega(k):
    """Nearest-neighbour structure factor 1 + 2 exp(-1.5i kx) cos(s3/2 ky)."""
    kx, ky = float(k[0]), float(k[1])
    return 1.0 + 2.0 * complex(math.cos(1.5 * kx), -math.sin(1.5 * kx)) \
        * math.cos(SQRT3 / 2 * ky)


def bands(k):
    """The two band energies (-|omega|, +|omega|)."""
    a = abs(omega(k))
    return (-a, a)
