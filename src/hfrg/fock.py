"""Dense Fock-space checks of the free-fermion facts the engine rests on.

Everything here is brute force on 2**N-dimensional matrices (N <= 4):
thermal two-point functions as literal traces, their closed forms
through the mode eigenbasis, the frequency-sum representation, and the
determinant reduction of time-ordered 2n-point averages.  The dense
traces are the independent numeric side: they share no code with the
symbolic integration layer, and the ``wick_rule`` lemma holds that
layer's Gaussian integral (``integrate_polynomial``) to them.

The fixtures are built once per object they depend on.  A
``ModeMatrix`` keeps a read-only copy of ``mu`` and, from first use,
its ``FockOperatorSet``, its eigenbasis, its ``_ThermalState`` per
beta, its Matsubara kernel per (beta, cutoff) and its Fourier weights
per beta; one call computes each decay e^{-s H} of its trace once.  A
function given a raw array builds a fresh ``ModeMatrix`` and keeps
nothing, so a caller that reuses one mode matrix passes the
``ModeMatrix`` itself.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .grassmann import GeneratorId, GrassmannPolynomial, canonicalize_bits
from .integration import (PropagatorTable, Universe, integrate_polynomial,
                          lemma_record)

MAX_MODES = 4
MAX_BETA = 50.0
HERMITIAN_TOL = 1e-12
CAR_TOL = 1e-13
FOURIER_PANELS = 10 ** 4


class ModeMatrix:
    """Hermitian one-particle matrix generating the quadratic
    Hamiltonian sum(mu[i, j] * adag_i * a_j).

    ``mu`` is a read-only copy of the caller's array, so the fixtures
    built from it on first use and kept here cannot go stale; their
    arrays are read-only too.
    """

    def __init__(self, mu):
        m = np.array(mu, dtype=complex)
        if m.ndim == 0:
            m = m.reshape(1, 1)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("mode matrix must be square")
        n = m.shape[0]
        if not 1 <= n <= MAX_MODES:
            raise ValueError(f"mode count must be in 1..{MAX_MODES}")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValueError("mode matrix must be Hermitian")
        m.flags.writeable = False
        self.mu = m
        self.n = n
        self._states = {}
        self._kernels = {}
        self._fourier = {}

    def __repr__(self):
        return f"ModeMatrix({self.mu.tolist()!r})"

    @cached_property
    def operators(self):
        """The ``FockOperatorSet`` of this mode matrix."""
        return FockOperatorSet(self)

    @cached_property
    def eigenbasis(self):
        """(eigenvalues, eigenvectors) of ``mu``."""
        return _frozen(*np.linalg.eigh(self.mu))

    def thermal_state(self, beta):
        """The ``_ThermalState`` of the Fock Hamiltonian at ``beta``."""
        state = self._states.get(beta)
        if state is None:
            state = self._states[beta] = _ThermalState(self.operators, beta)
        return state

    def matsubara_kernel(self, beta, cutoff):
        """(k0, 1/(-i k0 + lam) + 1/(i k0)) on the 2 * cutoff
        half-integer frequencies, one row per frequency and one column
        per eigenvalue lam; ``matsubara_two_point`` weights the rows by
        the phase of tau."""
        key = (beta, cutoff)
        kernel = self._kernels.get(key)
        if kernel is None:
            lam = self.eigenbasis[0]
            m = np.arange(-cutoff, cutoff)
            k0 = (2 * np.pi / beta) * (m + 0.5)
            resolvent = 1.0 / (-1j * k0[:, None] + lam[None, :])
            correction = (1.0 / (1j * k0))[:, None]
            kernel = self._kernels[key] = _frozen(k0, resolvent + correction)
        return kernel

    def fourier_weights(self, beta):
        """(taus, w_pos, w_neg): the midpoints dt * (j + 1/2) of the
        half = FOURIER_PANELS // 2 panels of width dt = beta / half on
        each side of tau = 0, and the closed-form two-point function in
        the eigenbasis at +tau and at tau - beta, one row per midpoint
        and one column per eigenvalue; ``fourier_two_point`` weights the
        rows by the phases of one frequency."""
        weights = self._fourier.get(beta)
        if weights is None:
            lam = self.eigenbasis[0]
            log_occ = -np.logaddexp(0.0, -beta * lam)
            half = FOURIER_PANELS // 2
            taus = (beta / half) * (np.arange(half) + 0.5)
            w_pos = np.exp(-taus[:, None] * lam[None, :] + log_occ[None, :])
            w_neg = -np.exp((taus[:, None] - beta) * lam[None, :]
                            + log_occ[None, :])
            weights = self._fourier[beta] = _frozen(taus, w_pos, w_neg)
        return weights


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _as_mode(mu):
    return mu if isinstance(mu, ModeMatrix) else ModeMatrix(mu)


def _check_beta(beta):
    if not 0 < beta <= MAX_BETA:
        raise ValueError(f"beta must be in (0, {MAX_BETA}]")


class FockOperatorSet:
    """Explicit matrices for each annihilator, creator, and the
    quadratic Hamiltonian, built with the usual sign-string tensor
    factors so the anticommutation relations hold exactly."""

    def __init__(self, mu):
        mode = _as_mode(mu)
        lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        flip = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        eye2 = np.eye(2, dtype=complex)
        self.n = mode.n
        self.annihilators = []
        for i in range(mode.n):
            op = np.eye(1, dtype=complex)
            for j in range(mode.n):
                factor = flip if j < i else lower if j == i else eye2
                op = np.kron(op, factor)
            self.annihilators.append(op)
        self.creators = [a.conj().T for a in self.annihilators]
        dim = 1 << mode.n
        h = np.zeros((dim, dim), dtype=complex)
        for i in range(mode.n):
            for j in range(mode.n):
                h += mode.mu[i, j] * (self.creators[i] @
                                      self.annihilators[j])
        self.hamiltonian = h
        if _car_error(self) > CAR_TOL:
            raise ValueError("the operators break the canonical "
                             "anticommutation relations")
        _frozen(*self.annihilators, *self.creators, h)


def _car_error(ops):
    """Largest |entry| of any {a_i, a_j} or {a_i, adag_j} - delta_ij."""
    eye = np.eye(1 << ops.n, dtype=complex)
    err = 0.0
    for i, ai in enumerate(ops.annihilators):
        for j, aj in enumerate(ops.annihilators):
            same = ai @ aj + aj @ ai
            mixed = ai @ ops.creators[j] + ops.creators[j] @ ai
            target = eye if i == j else 0.0
            err = max(err, float(np.max(np.abs(same))),
                      float(np.max(np.abs(mixed - target))))
    return err


class _ThermalState:
    """Eigendecomposition of the Fock Hamiltonian, shifted so that all
    Boltzmann factors stay below 1 (the shift cancels between the
    weighted traces and the partition function)."""

    def __init__(self, ops, beta):
        evals, evecs = np.linalg.eigh(ops.hamiltonian)
        self.evals = evals - evals.min()
        self.evecs = evecs
        self.z = float(np.sum(np.exp(-beta * self.evals)))

    def decay(self, s):
        """e**(-s * H_shifted) for s >= 0."""
        w = np.exp(-s * self.evals)
        return (self.evecs * w) @ self.evecs.conj().T

    def chain_decays(self, times, beta):
        """The decays e^{-(beta - t1) H}, e^{-(t1 - t2) H}, ...,
        e^{-tn H} between weakly decreasing times t1 >= ... >= tn in
        [0, beta); equal gaps share one matrix."""
        gaps = [beta - times[0]]
        for k, t in enumerate(times):
            gaps.append(t - (times[k + 1] if k + 1 < len(times) else 0.0))
        made = {}
        for s in gaps:
            if s not in made:
                made[s] = self.decay(s)
        return [made[s] for s in gaps]


def _chain_trace(state, decays, operators):
    """Tr(e^{-(beta - t1) H} O1 e^{-(t1 - t2) H} O2 ... On e^{-tn H})/Z
    with the decays from ``_ThermalState.chain_decays``."""
    acc = decays[0]
    for op, decay in zip(operators, decays[1:]):
        acc = acc @ op
        acc = acc @ decay
    return complex(np.trace(acc)) / state.z


def thermal_two_point(mu, beta, t, tbar):
    """Equilibrium average of the time-ordered annihilator-creator
    pair, as a literal trace over Fock space.

    Returns the N x N matrix with [i, j] entry
    Tr(e^{-beta H} T(a_i^-(t) a_j^+(tbar))) / Tr(e^{-beta H}); at
    equal times the ordering puts the annihilator on the left.
    """
    mode = _as_mode(mu)
    _check_beta(beta)
    if not (0 <= t < beta and 0 <= tbar < beta):
        raise ValueError("times must lie in [0, beta)")
    n = mode.n
    entries = _two_point_entries(mode, beta, t, tbar,
                                 [(i, j) for i in range(n) for j in range(n)])
    return np.array(entries, dtype=complex).reshape(n, n)


def _two_point_entries(mode, beta, t, tbar, pairs):
    """Entries [i, j] of ``thermal_two_point`` for the (i, j) of
    ``pairs``, one trace each over the decays of the ordered time pair;
    the times must already lie in [0, beta)."""
    ops = mode.operators
    state = mode.thermal_state(beta)
    if t >= tbar:
        decays = state.chain_decays([t, tbar], beta)
        return [_chain_trace(state, decays,
                             [ops.annihilators[i], ops.creators[j]])
                for i, j in pairs]
    decays = state.chain_decays([tbar, t], beta)
    return [-_chain_trace(state, decays,
                          [ops.creators[j], ops.annihilators[i]])
            for i, j in pairs]


def closed_form_two_point(mu, beta, t, tbar):
    """The same two-point function through the mode eigenbasis: weight
    e^{-tau lam}/(1 + e^{-beta lam}) for tau >= 0 and its negated,
    beta-shifted continuation for tau < 0."""
    mode = _as_mode(mu)
    _check_beta(beta)
    lam, u = mode.eigenbasis
    tau = t - tbar
    log_occ = -np.logaddexp(0.0, -beta * lam)
    if tau >= 0:
        w = np.exp(-tau * lam + log_occ)
    else:
        w = -np.exp(-(tau + beta) * lam + log_occ)
    return (u * w) @ u.conj().T


def matsubara_two_point(mu, beta, tau, cutoff):
    """Truncated frequency-sum representation of the two-point
    function on half-integer frequencies k0 = (2 pi / beta)(m + 1/2).

    ``cutoff`` counts the retained positive frequencies (m ranges over
    -cutoff .. cutoff-1).  The slowly decaying 1/(i k0) part of the
    summand is replaced by its exact limit sgn(tau)/2, which is what
    makes the truncation converge quadratically; at tau = 0 the
    formula returns half the identity plus the principal-part sum.
    """
    mode = _as_mode(mu)
    _check_beta(beta)
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    if not -beta < tau < beta:
        raise ValueError("tau must lie in (-beta, beta)")
    u = mode.eigenbasis[1]
    k0, kernel = mode.matsubara_kernel(beta, cutoff)
    phase = np.exp(-1j * k0 * tau)
    weights = (phase[:, None] * kernel).sum(axis=0) / beta
    half = 0.5 if tau >= 0 else -0.5
    return (u * weights) @ u.conj().T + half * np.eye(mode.n)


def fourier_two_point(mu, beta, k_index):
    """Quadrature Fourier coefficient (1/2) int_{-beta}^{beta}
    e^{i k0 tau} s(tau) dtau of the closed-form two-point function at
    the half-integer frequency indexed by ``k_index``; the midpoint
    rule is applied separately on each side of the tau = 0 jump."""
    mode = _as_mode(mu)
    _check_beta(beta)
    u = mode.eigenbasis[1]
    k0 = (2 * np.pi / beta) * (k_index + 0.5)
    dt = beta / (FOURIER_PANELS // 2)
    taus, w_pos, w_neg = mode.fourier_weights(beta)
    phase_pos = np.exp(1j * k0 * taus)
    phase_neg = np.exp(-1j * k0 * taus)
    coeff = (phase_pos[:, None] * w_pos
             + phase_neg[:, None] * w_neg).sum(axis=0) * dt / 2
    return (u * coeff) @ u.conj().T


def _ordering_key(factor):
    t, kind, index = factor[:3]
    return (-t, 0 if kind == "-" else 1, index)


def time_ordered_average(mu, beta, factors):
    """Thermal average of a time-ordered product of evolved mode
    operators, by dense trace.

    ``factors`` is a sequence of (time, "+"|"-", mode index) triples in
    written order; the ordering convention sorts times decreasing and,
    at equal times, annihilators first, then by mode index, with the
    permutation's signature applied.
    """
    mode = _as_mode(mu)
    _check_beta(beta)
    for t, kind, index in factors:
        if not 0 <= t < beta:
            raise ValueError("times must lie in [0, beta)")
        if kind not in ("+", "-") or not 0 <= index < mode.n:
            raise ValueError(f"bad factor ({t}, {kind}, {index})")
    ops = mode.operators
    state = mode.thermal_state(beta)
    order = sorted(range(len(factors)),
                   key=lambda k: _ordering_key(factors[k]))
    sign = canonicalize_bits(order)[1]
    times = [factors[k][0] for k in order]
    mats = [ops.annihilators[factors[k][2]] if factors[k][1] == "-"
            else ops.creators[factors[k][2]] for k in order]
    return sign * _chain_trace(state, state.chain_decays(times, beta), mats)


def wick_check(mu, beta, n, times, indices):
    """Both sides of the determinant reduction for an alternating
    2n-point product.

    ``times`` is (t_1..t_n, tbar_1..tbar_n) and ``indices`` is
    (j_1..j_n, jbar_1..jbar_n).  Returns (lhs, rhs): the dense-trace
    average of T(prod a^-_{j_i}(t_i) a^+_{jbar_i}(tbar_i)) against the
    engine's Gaussian integral (``integrate_polynomial``) of the word
    psi-_1 psi+_1 ... psi-_n psi+_n, whose covariance entry
    (psi-_a, psi+_b) is the dense two-point value
    ``thermal_two_point(mu, beta, t_a, tbar_b)[j_a, jbar_b]``.
    """
    mode = _as_mode(mu)
    _check_beta(beta)
    if not 1 <= n <= 3:
        raise ValueError("n must be in 1..3")
    minus_t, plus_t = list(times[:n]), list(times[n:])
    minus_j, plus_j = list(indices[:n]), list(indices[n:])
    if len(plus_t) != n or len(plus_j) != n:
        raise ValueError("need n times and n indices per species")
    factors = []
    for i in range(n):
        factors.append((minus_t[i], "-", minus_j[i]))
        factors.append((plus_t[i], "+", plus_j[i]))
    lhs = time_ordered_average(mode, beta, factors)
    # species "i" (minus) sorts just before "i+" (plus), so the
    # universe's bit order is the word psi-_1 psi+_1 ... psi-_n psi+_n
    # itself, and the word is the full mask with coefficient 1
    minus = [GeneratorId("int", 0, f"{i}", "up", "-") for i in range(n)]
    plus = [GeneratorId("int", 0, f"{i}+", "up", "+") for i in range(n)]
    universe = Universe(minus + plus)
    entries = {(minus[a], plus[b]): _two_point_entries(
        mode, beta, minus_t[a], plus_t[b], [(minus_j[a], plus_j[b])])[0]
        for a in range(n) for b in range(n)}
    word = GrassmannPolynomial({(1 << 2 * n) - 1: 1})
    rhs = complex(integrate_polynomial(
        universe, PropagatorTable(universe, entries), word).constant_term())
    return lhs, rhs


# ------------------------------------------------------------- verification


def _random_mode(rng, n, scale=1.0):
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return ModeMatrix(scale * (raw + raw.conj().T) / 2)


def verify_lemmas(seed=20260817):
    """Run the whole battery and return one pass/fail record per fact.

    Each record carries the fact's name, the tolerance it is held to,
    the largest error observed, and whether it passed.
    """
    rng = np.random.default_rng(seed)
    records = []

    # canonical anticommutation relations of the constructed operators
    err = max(_car_error(FockOperatorSet(np.eye(n)))
              for n in range(1, MAX_MODES + 1))
    records.append(lemma_record("anticommutation", CAR_TOL, err))

    # dense traces against the eigenbasis closed form
    err = 0.0
    for n in (1, 2, 3):
        for beta in (1.0, 5.0):
            mode = _random_mode(rng, n)
            for _ in range(4):
                t, tbar = rng.uniform(0, beta, size=2)
                delta = thermal_two_point(mode, beta, t, tbar) \
                    - closed_form_two_point(mode, beta, t, tbar)
                err = max(err, float(np.max(np.abs(delta))))
            delta = thermal_two_point(mode, beta, 0.3 * beta, 0.3 * beta) \
                - closed_form_two_point(mode, beta, 0.3 * beta, 0.3 * beta)
            err = max(err, float(np.max(np.abs(delta))))
    records.append(lemma_record("two_point_closed_form", 1e-10, err))

    # truncated frequency sums against the dense two-point values
    err = 0.0
    for n in (1, 2, 3):
        for beta in (1.0, 5.0):
            mode = _random_mode(rng, n)
            for frac in (0.55, -0.4, 0.2):
                tau = frac * beta
                t, tbar = (tau, 0.0) if tau >= 0 else (0.0, -tau)
                delta = matsubara_two_point(mode, beta, tau, 10 ** 4) \
                    - thermal_two_point(mode, beta, t, tbar)
                err = max(err, float(np.max(np.abs(delta))))
    records.append(lemma_record("matsubara_representation", 1e-6, err))

    # equal times, flat dispersion: exactly one half
    flat = thermal_two_point(np.zeros((1, 1)), 2.0, 0.7, 0.7)[0, 0]
    err = abs(flat - 0.5)
    summed = matsubara_two_point(np.zeros((1, 1)), 2.0, 0.0, 100)[0, 0]
    err = max(err, abs(summed - 0.5))
    records.append(lemma_record("equal_time_half", 1e-12, err))

    # jump of size one across tau = 0: exactly at equal times on the
    # dense operators, <a_i a_j^+> + <a_j^+ a_i> = delta_ij; at
    # tau = +-1e-3, where the jump differs from the identity by
    # O(tau |mu|), the frequency sums against the dense traces
    err = 0.0
    for n in (1, 2):
        mode = _random_mode(rng, n, scale=0.1)
        for beta in (1.0, 5.0):
            ops = mode.operators
            state = mode.thermal_state(beta)
            decays = state.chain_decays([0.0, 0.0], beta)
            anti = np.array([[
                _chain_trace(state, decays, [a, c])
                + _chain_trace(state, decays, [c, a])
                for c in ops.creators] for a in ops.annihilators])
            err = max(err, float(np.max(np.abs(anti - np.eye(n)))))
            jump = matsubara_two_point(mode, beta, 1e-3, 10 ** 4) \
                - matsubara_two_point(mode, beta, -1e-3, 10 ** 4)
            dense = thermal_two_point(mode, beta, 1e-3, 0.0) \
                - thermal_two_point(mode, beta, 0.0, 1e-3)
            err = max(err, float(np.max(np.abs(jump - dense))))
    records.append(lemma_record("discontinuity", 1e-4, err))

    # quadrature Fourier coefficients against the resolvent
    err = 0.0
    for n in (1, 2):
        for beta in (1.0, 5.0):
            mode = _random_mode(rng, n)
            lam, u = mode.eigenbasis
            for k_index in range(5):
                k0 = (2 * np.pi / beta) * (k_index + 0.5)
                target = (u * (1.0 / (-1j * k0 + lam))) @ u.conj().T
                delta = fourier_two_point(mode, beta, k_index) - target
                err = max(err, float(np.max(np.abs(delta))))
    records.append(lemma_record("fourier_inversion", 1e-4, err))

    # determinant reduction of 2n-point averages
    err = 0.0
    for n_pairs in (1, 2, 3):
        for modes in (1, 2, 3):
            mode = _random_mode(rng, modes)
            beta = 2.0
            for _ in range(3):
                times = tuple(rng.uniform(0, beta, size=2 * n_pairs))
                indices = tuple(rng.integers(0, modes, size=2 * n_pairs))
                lhs, rhs = wick_check(mode, beta, n_pairs, times, indices)
                err = max(err, abs(lhs - rhs))
    # the degenerate case: two creators of one mode at one time
    lhs, rhs = wick_check(np.array([[0.3]]), 2.0, 2,
                          (0.5, 1.1, 0.8, 0.8), (0, 0, 0, 0))
    err = max(err, abs(lhs), abs(rhs))
    records.append(lemma_record("wick_rule", 1e-8, err))

    return records
