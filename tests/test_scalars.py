"""Scalar ring tests.

The impurity ring M2(Q) is checked against a naive nested-list 2x2
product over Fractions and against the Pauli multiplication table.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hfrg.scalars import GaussianRational, ImpurityElement, I_UNIT, RootTwo

fractions_st = st.fractions(min_value=-20, max_value=20, max_denominator=7)


def gaussians(draw=None):
    return st.builds(GaussianRational, fractions_st, fractions_st)


def root_twos():
    return st.builds(RootTwo, gaussians(), gaussians())


# ---------------------------------------------------------------- tests


def test_gaussian_field_basics():
    x = GaussianRational(Fraction(3, 4), Fraction(-2, 5))
    y = GaussianRational(Fraction(1, 3), Fraction(7, 2))
    assert (x / y) * y == x
    assert x * x.conjugate() == GaussianRational(
        Fraction(3, 4) ** 2 + Fraction(2, 5) ** 2)
    assert I_UNIT * I_UNIT == -1


@given(gaussians(), gaussians(), gaussians())
def test_gaussian_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x * y == y * x


@given(root_twos(), root_twos(), root_twos())
def test_root_two_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x * y == y * x


@given(root_twos(), root_twos())
def test_root_two_division(x, y):
    if y:
        assert (x / y) * y == x


def test_root_two_half_powers():
    r = RootTwo.half_power_of_two
    assert r(1) * r(1) == 2
    assert r(-1) * r(-1) == Fraction(1, 2)
    assert r(-1) * r(1) == 1
    assert r(3) == 2 * r(1)
    assert not r(1).is_rational()
    assert r(4).is_rational() and r(4).rational_part() == 4


# ------------------------------------------------------- the impurity ring

# entries are zero often, so the ring's zero-skipping paths all run
entries_st = st.one_of(st.just(Fraction(0)), fractions_st)


def impurities():
    return st.builds(ImpurityElement, entries_st, entries_st, entries_st,
                     entries_st)


def _as_matrix(x):
    a, b, c, d = x.entries
    return [[a, b], [c, d]]


def _matmul(p, q):
    """Naive nested-list 2x2 product over Fractions."""
    return [[sum((p[i][k] * q[k][j] for k in range(2)), Fraction(0))
             for j in range(2)] for i in range(2)]


@given(impurities(), impurities())
@settings(max_examples=60)
def test_impurity_product_matches_matrix_oracle(x, y):
    assert _as_matrix(x * y) == _matmul(_as_matrix(x), _as_matrix(y))
    assert all(type(v) is Fraction for v in (x * y).entries)


@given(impurities(), impurities(), impurities())
@settings(max_examples=60)
def test_impurity_ring_axioms(x, y, z):
    assert x * (y * z) == (x * y) * z
    assert (x + y) * z == x * z + y * z
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and (x + y) - y == x
    assert x - x == 0 and not (x - x) and bool(x) == any(x.entries)
    assert -x + x == 0 and x * 1 == 1 * x == x and x * 0 == 0


@given(impurities(), st.one_of(fractions_st, st.integers(-9, 9)))
@settings(max_examples=60)
def test_impurity_scalar_interop(x, s):
    scaled = [[s * v for v in row] for row in _as_matrix(x)]
    assert _as_matrix(x * s) == _as_matrix(s * x) == scaled
    shifted = _as_matrix(x)
    shifted[0][0] += s
    shifted[1][1] += s
    assert _as_matrix(x + s) == _as_matrix(s + x) == shifted
    assert s - x == -(x - s) == s + (-x)
    lifted = ImpurityElement.scalar(s)
    assert lifted == s and s == lifted and hash(lifted) == hash(s)
    assert lifted * x == x * lifted == x * s
    assert (x == s) == (x == lifted)
    assert all(type(v) is Fraction for v in (x * s).entries)


@given(impurities())
@settings(max_examples=60)
def test_pauli_components_round_trip(x):
    c0, c1, y, c3 = x.pauli_components()
    assert all(type(v) is Fraction for v in (c0, c1, y, c3))
    # x = c0 + c1 S1 + (i y) S2 + c3 S3 with i S2 = [[0, 1], [-1, 0]]
    back = c0 + c1 * S1 + y * I_S2 + c3 * S3
    assert back == x


S1 = ImpurityElement(0, 1, 1, 0)
I_S2 = ImpurityElement(0, 1, -1, 0)     # i times the Pauli matrix S2
S3 = ImpurityElement(1, 0, 0, -1)


def test_pauli_multiplication_table():
    # S_j S_k = delta_jk + i eps_jkl S_l, with S2 carried as i S2
    assert S1 * S1 == S3 * S3 == 1
    assert I_S2 * I_S2 == -1
    assert S3 * S1 == I_S2 and S1 * S3 == -I_S2
    assert S1 * I_S2 == -S3 and I_S2 * S1 == S3
    assert I_S2 * S3 == -S1 and S3 * I_S2 == S1
    assert [v.pauli_components() for v in (S1, I_S2, S3)] == [
        (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def test_impurity_identity_extraction():
    x = ImpurityElement.scalar(Fraction(5, 3))
    assert x.is_scalar() and x.entries[0] == Fraction(5, 3)
    assert ImpurityElement.one() == 1
    assert not S3.is_scalar() and not S1.is_scalar()
    assert not ImpurityElement(1, 0, 0, 2).is_scalar()


def test_matrix_unit_products():
    units = [ImpurityElement.unit(r, c) for r in (0, 1) for c in (0, 1)]
    assert [u.entries for u in units] == [
        tuple(Fraction(int(i == k)) for k in range(4)) for i in range(4)]
    # E_ab E_cd = delta_bc E_ad
    for r, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for r2, c2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
            prod = ImpurityElement.unit(r, c) * ImpurityElement.unit(r2, c2)
            assert prod == (ImpurityElement.unit(r, c2) if c == r2 else 0)


# ------------------------------------------------- equality across rings


def embeddings(v):
    """The rational v as an element of each scalar ring it lives in."""
    out = [v, ImpurityElement.scalar(v), GaussianRational(v),
           RootTwo(GaussianRational(v))]
    if v.denominator == 1:
        out.append(int(v))
    return st.sampled_from(out)


def off_rational():
    """Ring elements equal to no Fraction."""
    return st.one_of(
        st.builds(ImpurityElement, fractions_st, fractions_st.filter(bool),
                  fractions_st, fractions_st),
        st.builds(GaussianRational, fractions_st, fractions_st.filter(bool)),
        st.builds(RootTwo, st.just(0), fractions_st.filter(bool)))


def mixed_scalars():
    return st.one_of(fractions_st.flatmap(embeddings), off_rational())


@given(st.data())
@settings(max_examples=100)
def test_mixed_ring_equality_implies_equal_hash(data):
    # each ring's image of a rational equals it from either side
    v = data.draw(fractions_st)
    x = data.draw(embeddings(v))
    assert x == v and v == x and hash(x) == hash(v)
    x, y = data.draw(mixed_scalars()), data.draw(mixed_scalars())
    if x == y:
        assert hash(x) == hash(y)


def test_mixed_ring_hash_known_case():
    assert RootTwo(1) == Fraction(1) and hash(RootTwo(1)) == hash(1)
    m = ImpurityElement.scalar(Fraction(2, 3))
    assert m == Fraction(2, 3) and hash(m) == hash(Fraction(2, 3))
    g = GaussianRational(Fraction(2, 3))
    assert g == Fraction(2, 3) and hash(g) == hash(m)
