"""Model definitions: operator transcription, projection, lattice."""

import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from hfrg.grassmann import GeneratorId, GrassmannPolynomial
from hfrg.integration import PropagatorTable, integrate_polynomial
from hfrg.models import (LATTICE, bands, graphene_model, kondo_model, omega,
                         operator_fingerprint, project_onto_basis)
from hfrg.scalars import ImpurityElement

DATA = Path(__file__).parent / "data"

GRAPHENE = graphene_model()
KONDO = kondo_model()


# -- operator bases -----------------------------------------------------


def test_graphene_basis_shape():
    labels = GRAPHENE.basis.labels
    assert labels == ("hopping", "onsite_pair", "spin_exchange",
                      "parallel_density", "pair_hopping",
                      "assisted_hopping", "full_occupancy")
    degrees = [p.max_degree() for p in GRAPHENE.basis.polys]
    assert degrees == [2, 4, 4, 4, 4, 6, 8]
    term_counts = [len(p.terms) for p in GRAPHENE.basis.polys]
    assert term_counts == [4, 2, 2, 2, 2, 4, 1]


def test_kondo_basis_shape():
    assert KONDO.basis.labels == ("exchange", "double_occupancy")
    assert [p.max_degree() for p in KONDO.basis.polys] == [2, 4]


def test_model_tags():
    assert (GRAPHENE.gamma, GRAPHENE.replication) == (Fraction(1), 8)
    assert (GRAPHENE.combination, GRAPHENE.ring) == ("exp-log", "rational")
    assert (KONDO.gamma, KONDO.replication) == (Fraction(1, 2), 2)
    assert (KONDO.combination, KONDO.ring) == ("product", "impurity")


def test_golden_operator_fingerprints():
    # the committed files pin the hand-transcribed operator forms and
    # the calibrated propagators; regenerate and compare byte by byte
    for spec in (GRAPHENE, KONDO):
        expected = (DATA / f"operators_{spec.name}.json").read_text()
        got = json.dumps(operator_fingerprint(spec), indent=1) + "\n"
        assert got == expected, f"{spec.name} operator forms drifted"


# Pauli matrices over Python complex numbers, an oracle independent of
# the model's Fierz construction; every value used below is exact
PAULI = {1: ((0, 1), (1, 0)), 2: ((0, -1j), (1j, 0)), 3: ((1, 0), (0, -1))}
SPINS = ("up", "dn")


def _ext(spin, conj):
    return GeneratorId("ext", 0, "", spin, conj)


def _pauli_bilinear(j, scale):
    """scale * sum_ss' psi+_s sigma_j[s,s'] psi-_s' with complex
    coefficients."""
    u = KONDO.universe
    poly = GrassmannPolynomial()
    for r, s in enumerate(SPINS):
        for c, sp in enumerate(SPINS):
            if PAULI[j][r][c]:
                poly = poly + u.monomial([_ext(s, "+"), _ext(sp, "-")],
                                         scale * PAULI[j][r][c])
    return poly


def test_kondo_exchange_components():
    # the Fierz-built exchange equals sum_j S_j (x) 1/2 psi+ sigma_j psi-:
    # on every monomial, its Pauli coordinates read back through
    # pauli_components are the coefficients of the three bilinears
    exchange = dict(KONDO.basis.entries)["exchange"]
    bilinears = {j: _pauli_bilinear(j, 0.5) for j in PAULI}
    masks = set().union(*(b.terms for b in bilinears.values()))
    assert set(exchange.terms) == masks
    components = 0
    for mask, coeff in exchange.terms.items():
        c0, c1, y, c3 = coeff.pauli_components()
        assert c0 == 0
        got = (complex(c1), 1j * complex(y), complex(c3))
        expected = tuple(bilinears[j].terms.get(mask, 0) for j in (1, 2, 3))
        assert got == expected, mask
        components += sum(1 for v in got if v)
    # six elementary monomial (x) axis terms, as the Pauli form counts
    assert components == 6


def test_kondo_double_occupancy_value():
    # squaring the spin bilinear and halving collapses to -3 times the
    # full quartic, tensored with the identity
    docc = dict(KONDO.basis.entries)["double_occupancy"]
    assert len(docc.terms) == 1
    ((mask, coeff),) = docc.terms.items()
    assert bin(mask).count("1") == 4
    assert coeff == -3 and coeff.is_scalar()
    total = GrassmannPolynomial()
    for j in PAULI:
        total = total + _pauli_bilinear(j, 1)
    assert (total * total).terms == {mask: -6}


@pytest.mark.parametrize("unipotent", [((1, Fraction(3, 7)), (0, 1)),
                                       ((1, 0), (Fraction(3, 7), 1))])
def test_kondo_basis_is_su2_invariant_as_built(unipotent):
    # SU(2) turns the field and the impurity spin together: psi+_s ->
    # sum_r U[r][s] psi+_r, psi-_s -> sum_r inv(U)[s][r] psi-_r, and
    # every coefficient c -> U c inv(U); the two unipotents generate
    # SL(2) over the rationals
    (a, b), (c, d) = unipotent
    inverse = ((d, -b), (-c, a))
    u = KONDO.universe
    images = {}
    for s, spin in enumerate(SPINS):
        images[u.bit_of[_ext(spin, "+")]] = sum(
            (u.generator(_ext(r, "+")).scale(Fraction(unipotent[i][s]))
             for i, r in enumerate(SPINS)), GrassmannPolynomial())
        images[u.bit_of[_ext(spin, "-")]] = sum(
            (u.generator(_ext(r, "-")).scale(Fraction(inverse[s][i]))
             for i, r in enumerate(SPINS)), GrassmannPolynomial())
    g = ImpurityElement(a, b, c, d)
    g_inv = ImpurityElement(d, -b, -c, a)
    for label, poly in KONDO.basis.entries:
        moved = poly.substitute(images)
        turned = GrassmannPolynomial(
            {m: g * coeff * g_inv for m, coeff in moved.terms.items()})
        assert turned == poly, label
        if label == "exchange":
            # the field alone is not enough: the impurity must turn too
            assert moved != poly


# the finite and torus symmetries of the graphene spec, each a map from
# a generator to (factor, image generator), applied to external and
# internal generators alike
OTHER = {"up": "dn", "dn": "up", "a": "b", "b": "a", "+": "-", "-": "+"}
GRAPHENE_SYMMETRIES = {
    "spin_flip": lambda g: (1, replace(g, spin=OTHER[g.spin])),
    "sublattice_swap": lambda g: (1, replace(g, species=OTHER[g.species])),
    "particle_hole": lambda g: (-1 if g.species == "b" else 1,
                                replace(g, conj=OTHER[g.conj])),
    "charge": lambda g: (3 if g.conj == "+" else Fraction(1, 3), g),
    "s_z": lambda g: (3 if (g.conj == "+") == (g.spin == "up")
                      else Fraction(1, 3), g),
}


def _graphene_substitution(name):
    u = GRAPHENE.universe
    images = {}
    for g in u.gens:
        factor, image = GRAPHENE_SYMMETRIES[name](g)
        images[u.bit_of[g]] = u.generator(image).scale(Fraction(factor))
    return images


def _keeps_covariance(table, images):
    """Whether the Gaussian integral of every product of two distinct
    internal generators survives the substitution, entry by entry."""
    u = GRAPHENE.universe
    inner = [u.generator(g) for g in u.gens if g.kind == "int"]
    return all(integrate_polynomial(u, table, p * q)
               == integrate_polynomial(u, table, (p * q).substitute(images))
               for p, q in itertools.combinations(inner, 2))


@pytest.mark.parametrize("name", sorted(GRAPHENE_SYMMETRIES))
def test_graphene_spec_is_invariant(name):
    u = GRAPHENE.universe
    images = _graphene_substitution(name)
    assert _keeps_covariance(GRAPHENE.propagator, images)
    (split,) = GRAPHENE.images
    for bit in split:
        assert split[bit].substitute(images) == images[bit].substitute(split)
    for label, poly in GRAPHENE.basis.entries:
        assert poly.substitute(images) == poly, label
    assert any(images[u.bit_of[g]] != u.generator(g) for g in u.gens)


def test_a_spin_dependent_propagator_breaks_spin_flip_only():
    u = GRAPHENE.universe
    entries = {}
    for s, value in (("up", -1), ("dn", -2)):
        for minus, plus in (("a", "b"), ("b", "a")):
            entries[(GeneratorId("int", 0, minus, s, "-"),
                     GeneratorId("int", 0, plus, s, "+"))] = Fraction(value)
    table = PropagatorTable(u, entries)
    broken = [name for name in sorted(GRAPHENE_SYMMETRIES)
              if not _keeps_covariance(table, _graphene_substitution(name))]
    assert broken == ["spin_flip"]


def test_graphene_propagator_cross_sublattice_only():
    species = {}
    for g in GRAPHENE.universe.gens:
        species[GRAPHENE.universe.bit_of[g]] = (g.kind, g.species, g.spin)
    entries = GRAPHENE.propagator.items()
    assert len(entries) == 4
    for (mb, pb), value in entries:
        km, sm, spm = species[mb]
        kp, sp, spp = species[pb]
        assert km == kp == "int"
        assert sm != sp and spm == spp
        assert value == Fraction(-1)
    # same-sublattice pairings are absent
    mm = GeneratorId("int", 0, "a", "up", "-")
    pp = GeneratorId("int", 0, "a", "up", "+")
    assert GRAPHENE.propagator.get(GRAPHENE.universe.bit_of[mm],
                                   GRAPHENE.universe.bit_of[pp]) is None


def test_field_images():
    u = GRAPHENE.universe
    (images,) = GRAPHENE.images
    assert set(images) == {u.bit_of[g] for g in u.gens if g.kind == "ext"}
    for bit, poly in images.items():
        g = u.gens[bit]
        partner = GeneratorId("int", 0, g.species, g.spin, g.conj)
        assert poly.terms == {
            1 << u.bit_of[partner]: Fraction(1),
            1 << bit: Fraction(1, 2),
        }
    # the rational kondo split: coarse psi+ scaled by 1/2, psi- by 1
    ku = KONDO.universe
    scale = {"+": Fraction(1, 2), "-": Fraction(1)}
    for half, img in enumerate(KONDO.images):
        assert set(img) == {ku.bit_of[g] for g in ku.gens
                            if g.kind == "ext"}
        for bit, poly in img.items():
            g = ku.gens[bit]
            partner = GeneratorId("int", half, "", g.spin, g.conj)
            assert poly.terms == {
                1 << ku.bit_of[partner]: Fraction(1),
                1 << bit: scale[g.conj],
            }


# -- projection ---------------------------------------------------------


@pytest.mark.parametrize("spec", [GRAPHENE, KONDO], ids=lambda s: s.name)
def test_projection_is_identity_on_basis(spec):
    n = len(spec.basis)
    for i, poly in enumerate(spec.basis.polys):
        coeffs, residual = project_onto_basis(poly, spec.basis)
        assert not residual.terms
        for j, c in enumerate(coeffs):
            assert c == (1 if j == i else 0)


def test_projection_reports_off_span_residual():
    u = KONDO.universe
    stray = u.monomial([GeneratorId("ext", 0, "", "up", "+"),
                        GeneratorId("ext", 0, "", "up", "-")],
                       ImpurityElement.one())
    coeffs, residual = project_onto_basis(stray, KONDO.basis)
    assert residual.terms
    gu = GRAPHENE.universe
    lone = gu.monomial([GeneratorId("ext", 0, "a", "up", "+"),
                        GeneratorId("ext", 0, "b", "up", "-")])
    coeffs, residual = project_onto_basis(lone, GRAPHENE.basis)
    assert residual.terms


def test_projection_rejects_dependent_basis():
    hopping = GRAPHENE.basis.polys[0]
    with pytest.raises(ValueError):
        project_onto_basis(hopping, [hopping, hopping.scale(Fraction(2))])


# -- lattice ------------------------------------------------------------


def test_reciprocal_duality():
    for gi, pairs in ((LATTICE.G1, (1, 0)), (LATTICE.G2, (0, 1))):
        for lj, expect in zip((LATTICE.l1, LATTICE.l2), pairs):
            dot = gi[0] * lj[0] + gi[1] * lj[1]
            assert abs(dot - 2 * math.pi * expect) < 1e-12


def test_lattice_vectors():
    s3 = math.sqrt(3.0)
    assert LATTICE.l1 == (1.5, s3 / 2) and LATTICE.l2 == (1.5, -s3 / 2)
    assert LATTICE.delta1 == (1.0, 0.0)
    assert LATTICE.delta2 == (-0.5, s3 / 2)
    assert LATTICE.delta3 == (-0.5, -s3 / 2)
    assert LATTICE.v_fermi == 1.5


def test_omega_reference_values():
    assert omega((0.0, 0.0)) == pytest.approx(3.0)
    assert abs(omega(LATTICE.fermi_plus)) < 1e-12
    assert abs(omega(LATTICE.fermi_minus)) < 1e-12
    assert bands((0.0, 0.0)) == (-3.0, 3.0)


def test_band_cone_slope():
    kx, ky = LATTICE.fermi_plus
    eps = 1e-4
    for ux, uy in ((1, 0), (0, 1), (0.6, 0.8), (-0.8, 0.6)):
        slope = abs(omega((kx + eps * ux, ky + eps * uy))) / eps
        assert abs(slope - LATTICE.v_fermi) < 1e-3


def test_abs_omega_periodicity():
    # the structure factor itself picks up a phase under reciprocal
    # shifts; only its modulus is asserted periodic
    pts = [(0.0, 0.0), (0.37, -1.12), (2.1, 0.44), (-1.3, 2.9)]
    for kx, ky in pts:
        base = abs(omega((kx, ky)))
        for gx, gy in (LATTICE.G1, LATTICE.G2):
            assert abs(abs(omega((kx + gx, ky + gy))) - base) < 1e-10
