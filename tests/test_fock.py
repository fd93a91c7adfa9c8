"""Dense Fock-space oracle: traces, closed forms, frequency sums."""

import itertools
import json

import numpy as np
import pytest

from hfrg import fock
from hfrg.fock import (
    MAX_MODES,
    ModeMatrix,
    _operators,
    _random_mode,
    closed_form_two_point,
    fourier_two_point,
    matsubara_two_point,
    thermal_two_point,
    time_ordered_average,
    verify_lemmas,
    wick_check,
)


def test_single_mode_two_point_has_explicit_form():
    lam, beta, t, tbar = 0.8, 3.0, 2.0, 0.5
    expected = np.exp(-(t - tbar) * lam) / (1 + np.exp(-beta * lam))
    dense = thermal_two_point([[lam]], beta, t, tbar)[0, 0]
    assert abs(dense - expected) < 1e-12
    reversed_expected = -np.exp(-(tbar - t + beta) * lam) \
        / (1 + np.exp(-beta * lam))
    dense = thermal_two_point([[lam]], beta, tbar, t)[0, 0]
    assert abs(dense - reversed_expected) < 1e-12


def test_flat_mode_equal_time_value_is_one_half():
    assert abs(thermal_two_point([[0.0]], 2.0, 0.7, 0.7)[0, 0] - 0.5) == 0.0
    assert abs(matsubara_two_point([[0.0]], 2.0, 0.0, 50)[0, 0] - 0.5) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("beta", [1.0, 5.0, 50.0])
def test_dense_trace_matches_eigenbasis_closed_form(n, beta):
    rng = np.random.default_rng(100 * n + int(beta))
    mode = _random_mode(rng, n)
    for _ in range(5):
        t, tbar = rng.uniform(0, beta, size=2)
        dense = thermal_two_point(mode, beta, t, tbar)
        closed = closed_form_two_point(mode, beta, t, tbar)
        assert np.max(np.abs(dense - closed)) < 1e-10


def test_equal_time_ordering_puts_annihilator_left():
    lam, beta = 0.6, 2.0
    dense = thermal_two_point([[lam]], beta, 0.9, 0.9)[0, 0]
    # annihilator-first ordering leaves the hole weight, not the
    # occupation number
    assert abs(dense - 1.0 / (1 + np.exp(-beta * lam))) < 1e-12


def test_anticommutators_of_constructed_operators():
    for n in range(1, 5):
        annihilators, creators = _operators(n)
        eye = np.eye(1 << n)
        for i in range(n):
            for j in range(n):
                mixed = (annihilators[i] @ creators[j]
                         + creators[j] @ annihilators[i])
                target = eye if i == j else 0.0
                assert np.max(np.abs(mixed - target)) <= 1e-13
                same = (annihilators[i] @ annihilators[j]
                        + annihilators[j] @ annihilators[i])
                assert np.max(np.abs(same)) <= 1e-13


def test_operators_are_built_once_per_mode_count():
    for n in range(1, MAX_MODES + 1):
        ops = _operators(n)
        assert _operators(n) is ops
        for op in ops[0] + ops[1]:
            assert op.shape == (1 << n, 1 << n)
            with pytest.raises(ValueError):
                op[0, 0] = 1.0


def test_operators_raise_when_the_relations_break(monkeypatch):
    _operators.cache_clear()
    monkeypatch.setattr(fock, "_car_error", lambda annihilators: 1.0)
    try:
        with pytest.raises(ValueError, match="anticommutation"):
            _operators(2)
    finally:
        _operators.cache_clear()


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_two_factor_average_is_the_two_point_entry(modes):
    rng = np.random.default_rng(60 + modes)
    for beta in (1.0, 5.0):
        mode = _random_mode(rng, modes)
        early, late = sorted(rng.uniform(0, beta, size=2))
        for t, tbar in ((late, early), (early, late), (early, early)):
            dense = thermal_two_point(mode, beta, t, tbar)
            for i in range(modes):
                for j in range(modes):
                    assert time_ordered_average(
                        mode, beta, [(t, "-", i), (tbar, "+", j)]) \
                        == dense[i, j]


def test_quadratic_hamiltonian_is_hermitian_with_mode_spectrum():
    rng = np.random.default_rng(4)
    mode = _random_mode(rng, 3)
    h = mode.hamiltonian
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    # many-body spectrum consists of all subset sums of the mode levels
    lam = np.linalg.eigvalsh(mode.mu)
    subset_sums = sorted(
        float(np.sum(lam[list(chosen)])) if chosen else 0.0
        for size in range(4)
        for chosen in itertools.combinations(range(3), size))
    assert np.allclose(sorted(np.linalg.eigvalsh(h)), subset_sums,
                       atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("beta", [1.0, 5.0])
def test_frequency_sum_converges_to_dense_two_point(n, beta):
    rng = np.random.default_rng(10 * n + int(beta))
    mode = _random_mode(rng, n)
    for frac in (0.55, -0.4, 0.2):
        tau = frac * beta
        t, tbar = (tau, 0.0) if tau >= 0 else (0.0, -tau)
        summed = matsubara_two_point(mode, beta, tau, 10 ** 4)
        dense = thermal_two_point(mode, beta, t, tbar)
        assert np.max(np.abs(summed - dense)) < 1e-6


def test_frequency_sum_jump_across_zero_is_identity():
    rng = np.random.default_rng(11)
    for n in (1, 2):
        mode = _random_mode(rng, n, scale=0.1)
        for beta in (1.0, 5.0):
            jump = matsubara_two_point(mode, beta, 1e-3, 10 ** 4) \
                - matsubara_two_point(mode, beta, -1e-3, 10 ** 4)
            assert np.max(np.abs(jump - np.eye(n))) < 1e-4


def test_zero_frequency_branch_matches_principal_part_sum():
    mode = ModeMatrix([[0.4, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]])
    beta, cutoff = 2.0, 400
    got = matsubara_two_point(mode, beta, 0.0, cutoff)
    k0 = (2 * np.pi / beta) * (np.arange(-cutoff, cutoff) + 0.5)
    principal = sum(
        np.linalg.inv(k * k * np.eye(2) + mode.mu @ mode.mu) @ mode.mu
        for k in k0) / beta
    assert np.max(np.abs(got - (0.5 * np.eye(2) + principal))) < 1e-12


@pytest.mark.parametrize("beta", [1.0, 5.0])
def test_quadrature_fourier_coefficient_matches_resolvent(beta):
    rng = np.random.default_rng(int(beta))
    for n in (1, 2):
        mode = _random_mode(rng, n)
        lam, u = np.linalg.eigh(mode.mu)
        for k_index in range(5):
            k0 = (2 * np.pi / beta) * (k_index + 0.5)
            target = (u * (1.0 / (-1j * k0 + lam))) @ u.conj().T
            got = fourier_two_point(mode, beta, k_index)
            assert np.max(np.abs(got - target)) < 1e-4


def test_pairing_identity_single_pair_is_exact():
    rng = np.random.default_rng(21)
    mode = _random_mode(rng, 2)
    lhs, rhs = wick_check(mode, 3.0, 1, (1.2, 0.4), (0, 1))
    assert lhs == rhs


@pytest.mark.parametrize("n_pairs", [2, 3])
def test_pairing_identity_reduces_to_signed_sum(n_pairs):
    rng = np.random.default_rng(30 + n_pairs)
    for modes in (1, 2, 3):
        mode = _random_mode(rng, modes)
        beta = 2.0
        for _ in range(3):
            times = tuple(rng.uniform(0, beta, size=2 * n_pairs))
            indices = tuple(rng.integers(0, modes, size=2 * n_pairs))
            lhs, rhs = wick_check(mode, beta, n_pairs, times, indices)
            assert abs(lhs - rhs) < 1e-8


def test_repeated_creator_at_one_time_kills_both_sides():
    lhs, rhs = wick_check([[0.3]], 2.0, 2,
                          (0.5, 1.1, 0.8, 0.8), (0, 0, 0, 0))
    assert abs(lhs) < 1e-14
    assert abs(rhs) < 1e-14


def test_engine_integral_of_the_word_is_the_two_point_determinant():
    # Wick's rule held outside the engine: the pairing recursion's
    # value of psi-_1 psi+_1 ... psi-_n psi+_n against LAPACK's
    # determinant of the dense two-point matrix
    rng = np.random.default_rng(50)
    beta = 2.0
    for n_pairs in (1, 2, 3):
        for modes in (1, 2, 3, 4):
            mode = _random_mode(rng, modes)
            for _ in range(5):
                times = tuple(rng.uniform(0, beta, size=2 * n_pairs))
                indices = tuple(rng.integers(0, modes, size=2 * n_pairs))
                g = [[thermal_two_point(mode, beta, times[a],
                                        times[n_pairs + b])[
                    indices[a], indices[n_pairs + b]]
                    for b in range(n_pairs)] for a in range(n_pairs)]
                rhs = wick_check(mode, beta, n_pairs, times, indices)[1]
                assert abs(rhs - np.linalg.det(np.array(g))) < 1e-12
    # two creators of one mode at one time make two equal columns,
    # whose terms cancel bit for bit in the pairing recursion
    rhs = wick_check([[0.3]], 2.0, 2, (0.5, 1.1, 0.8, 0.8), (0, 0, 0, 0))[1]
    assert rhs == 0j


def test_swapping_two_written_factors_flips_the_sign():
    rng = np.random.default_rng(40)
    mode = _random_mode(rng, 2)
    factors = [(0.3, "-", 0), (1.4, "+", 1), (0.9, "-", 1), (1.9, "+", 0)]
    base = time_ordered_average(mode, 3.0, factors)
    swapped = [factors[0], factors[2], factors[1], factors[3]]
    assert abs(base + time_ordered_average(mode, 3.0, swapped)) < 1e-14
    assert abs(base) > 1e-6


def test_mode_matrix_validation():
    with pytest.raises(ValueError):
        ModeMatrix([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        ModeMatrix(np.zeros((5, 5)))
    # a non-square matrix, and a 3-d array with equal leading sizes
    for bad in (np.zeros((2, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="must be square"):
            ModeMatrix(bad)
    assert ModeMatrix(0.5).mu.tolist() == [[0.5]]


def test_mode_matrix_keeps_a_read_only_copy():
    raw = np.array([[0.5, 0.1j], [-0.1j, -0.2]])
    mode = ModeMatrix(raw)
    with pytest.raises(ValueError):
        mode.mu[0, 0] = 1.0
    raw[0, 0] = 9.0
    assert mode.mu[0, 0] == 0.5
    for fixture in (mode.eigenbasis[1], mode.hamiltonian,
                    mode.matsubara_kernel(2.0, 10)[1],
                    *mode.fourier_weights(2.0)):
        with pytest.raises(ValueError):
            fixture[0, 0] = 1.0


def _fock_outputs(mu):
    """One value of every public function, at two betas, two cutoffs
    and both time orders, so that every cached fixture is used."""
    factors = [(0.5, "-", 0), (1.2, "+", 2), (0.5, "+", 1), (1.9, "-", 2)]
    return [
        thermal_two_point(mu, 2.0, 1.3, 0.4),
        thermal_two_point(mu, 2.0, 0.4, 1.3),
        thermal_two_point(mu, 5.0, 0.7, 0.7),
        closed_form_two_point(mu, 2.0, 0.3, 1.1),
        closed_form_two_point(mu, 5.0, 1.1, 0.3),
        matsubara_two_point(mu, 2.0, 0.7, 500),
        matsubara_two_point(mu, 2.0, -0.7, 400),
        matsubara_two_point(mu, 5.0, 0.0, 500),
        fourier_two_point(mu, 2.0, 3),
        fourier_two_point(mu, 2.0, 0),
        fourier_two_point(mu, 5.0, 1),
        np.array(time_ordered_average(mu, 2.0, factors)),
        np.array(time_ordered_average(mu, 5.0, factors)),
        np.array(wick_check(mu, 2.0, 2, (0.1, 0.5, 0.5, 1.7), (0, 1, 2, 0))),
        np.array(wick_check(mu, 5.0, 1, (3.1, 0.2), (2, 1))),
    ]


def test_a_used_mode_gives_the_values_of_a_fresh_one():
    mode = _random_mode(np.random.default_rng(50), 3)
    _fock_outputs(mode)
    used = _fock_outputs(mode)
    fresh = _fock_outputs(ModeMatrix(mode.mu))
    raw = _fock_outputs(np.array(mode.mu))
    for k, (a, b, c) in enumerate(zip(used, fresh, raw)):
        assert np.array_equal(a, b), k
        assert np.array_equal(a, c), k


def test_lemma_battery_repeats_its_records():
    assert verify_lemmas(7) == verify_lemmas(7)


def test_argument_validation():
    flat = [[0.0]]
    with pytest.raises(ValueError):
        thermal_two_point(flat, 51.0, 0.1, 0.2)
    with pytest.raises(ValueError):
        thermal_two_point(flat, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        thermal_two_point(flat, 2.0, 2.5, 0.2)
    with pytest.raises(ValueError):
        matsubara_two_point(flat, 2.0, 2.5, 100)
    with pytest.raises(ValueError):
        matsubara_two_point(flat, 2.0, 0.5, 0)
    with pytest.raises(ValueError):
        wick_check(flat, 2.0, 4, (0.1,) * 8, (0,) * 8)
    with pytest.raises(ValueError):
        time_ordered_average(flat, 2.0, [(0.1, "x", 0)])
    with pytest.raises(ValueError):
        time_ordered_average(flat, 2.0, [(0.1, "-", 1)])
    with pytest.raises(ValueError):
        time_ordered_average(flat, 2.0, [(0.1, "-", 0.5)])
    with pytest.raises(ValueError):
        closed_form_two_point([[0.3]], 2.0, 5.0, 0.1)
    with pytest.raises(ValueError):
        fourier_two_point(flat, 2.0, 0.5)
    # NumPy integers index modes and frequencies like ints
    time_ordered_average(flat, 2.0, [(0.1, "-", np.int64(0))])
    fourier_two_point(flat, 2.0, np.int64(1))


def test_empty_product_is_the_normalized_trace():
    assert time_ordered_average([[0.3]], 2.0, []) == 1
    rng = np.random.default_rng(60)
    for n in (2, 3, 4):
        value = time_ordered_average(_random_mode(rng, n), 3.0, [])
        assert abs(value - 1) < 1e-14


def test_one_many_body_eigendecomposition_per_mode(monkeypatch):
    mode = _random_mode(np.random.default_rng(61), 2)
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for beta in (1.0, 5.0):
        thermal_two_point(mode, beta, 0.7, 0.2)
    assert calls.count((4, 4)) == 1


def test_lemma_battery_passes_and_serializes():
    records = verify_lemmas()
    names = [r["lemma"] for r in records]
    assert names == [
        "anticommutation",
        "two_point_closed_form",
        "matsubara_representation",
        "equal_time_half",
        "discontinuity",
        "fourier_inversion",
        "wick_rule",
    ]
    for r in records:
        assert r["passed"], f"{r['lemma']} at {r['max_error']}"
        assert r["max_error"] <= r["tolerance"]
    json.dumps(records)


@pytest.mark.parametrize("seed", [8, 13, 15, 25, 28, 29, 33, 36, 20260817])
def test_lemma_battery_passes_across_seeds(seed):
    # the random modes of these seeds once pushed the discontinuity
    # lemma past its tolerance through the finite offset tau = +-1e-3
    for r in verify_lemmas(seed):
        assert r["passed"], f"{r['lemma']} at {r['max_error']} (seed {seed})"
