"""Dense Fock-space checks of the free-fermion facts the engine rests on.

Everything here is brute force on 2**N-dimensional matrices (N <= 4):
thermal two-point functions as literal traces, their closed forms
through the mode eigenbasis, the frequency-sum representation, and the
determinant reduction of time-ordered 2n-point averages.  The dense
traces are the independent numeric side: they share no code with the
symbolic integration layer, and the ``wick_rule`` lemma holds that
layer's Gaussian integral (``integrate_polynomial``) to them.

The fixtures are built once per object they depend on: the Fock
annihilators and creators once per mode count, and for a
``ModeMatrix``, which keeps a read-only copy of ``mu``, from first use
its Fock Hamiltonian, that Hamiltonian's spectrum (one ``eigh`` for
every beta), its eigenbasis, its Matsubara kernel per (beta, cutoff)
and its Fourier weights per beta.  A function given a raw array builds
a fresh ``ModeMatrix`` and keeps nothing, so a caller that reuses one
mode matrix passes the ``ModeMatrix`` itself.
"""

from __future__ import annotations

from functools import cache, cached_property

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
        self._kernels = {}
        self._fourier = {}

    def __repr__(self):
        return f"ModeMatrix({self.mu.tolist()!r})"

    @cached_property
    def hamiltonian(self):
        """The Fock matrix of sum(mu[i, j] * adag_i * a_j)."""
        annihilators, creators = _operators(self.n)
        h = np.zeros((1 << self.n,) * 2, dtype=complex)
        for i, c in enumerate(creators):
            for j, a in enumerate(annihilators):
                h += self.mu[i, j] * (c @ a)
        return _frozen(h)[0]

    @cached_property
    def spectrum(self):
        """(levels, eigenvectors) of the Fock Hamiltonian, the levels
        shifted to start at 0; the shift cancels in a trace over Z."""
        evals, evecs = np.linalg.eigh(self.hamiltonian)
        return _frozen(evals - evals.min(), evecs)

    @cached_property
    def eigenbasis(self):
        """(eigenvalues, eigenvectors) of ``mu``."""
        return _frozen(*np.linalg.eigh(self.mu))

    def chain_decays(self, times, beta):
        """(decays, Z): the decays e^{-(beta - t1) H}, ..., e^{-tn H}
        between weakly decreasing times t1 >= ... >= tn in [0, beta),
        or [e^{-beta H}] for no times, equal gaps sharing one matrix,
        and the partition function Z of the shifted levels."""
        levels, vecs = self.spectrum
        gaps = [a - b for a, b in zip([beta, *times], [*times, 0.0])]
        made = {}
        for s in gaps:
            if s not in made:
                made[s] = (vecs * np.exp(-s * levels)) @ vecs.conj().T
        return [made[s] for s in gaps], float(np.sum(np.exp(-beta * levels)))

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


@cache
def _operators(n):
    """(annihilators, creators): the read-only Fock matrices of
    a_1 .. a_n and adag_1 .. adag_n, built once per mode count with the
    usual sign-string tensor factors so that the anticommutation
    relations hold exactly; ``ValueError`` if they do not."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    flip = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    ops = []
    for i in range(n):
        op = np.eye(1, dtype=complex)
        for j in range(n):
            op = np.kron(op, flip if j < i else lower if j == i else eye2)
        ops.append(op)
    if _car_error(ops) > CAR_TOL:
        raise ValueError("the operators break the canonical "
                         "anticommutation relations")
    return _frozen(*ops), _frozen(*(a.conj().T for a in ops))


def _as_mode(mu):
    return mu if isinstance(mu, ModeMatrix) else ModeMatrix(mu)


def _check_beta(beta, *times):
    """Raise unless 0 < beta <= MAX_BETA and each time is in [0, beta)."""
    if not 0 < beta <= MAX_BETA:
        raise ValueError(f"beta must be in (0, {MAX_BETA}]")
    if not all(0 <= t < beta for t in times):
        raise ValueError("times must lie in [0, beta)")


def _car_error(annihilators):
    """Largest |entry| of any {a_i, a_j} or {a_i, adag_j} - delta_ij."""
    creators = [a.conj().T for a in annihilators]
    eye = np.eye(len(annihilators[0]), dtype=complex)
    err = 0.0
    for i, ai in enumerate(annihilators):
        for j, aj in enumerate(annihilators):
            same = ai @ aj + aj @ ai
            mixed = ai @ creators[j] + creators[j] @ ai
            target = eye if i == j else 0.0
            err = max(err, float(np.max(np.abs(same))),
                      float(np.max(np.abs(mixed - target))))
    return err


def _chain_trace(chain, operators):
    """Tr(e^{-(beta - t1) H} O1 e^{-(t1 - t2) H} O2 ... On e^{-tn H})/Z
    for the ``(decays, Z)`` of ``ModeMatrix.chain_decays``."""
    decays, z = chain
    acc = decays[0]
    for op, decay in zip(operators, decays[1:]):
        acc = acc @ op @ decay
    return complex(np.trace(acc)) / z


def thermal_two_point(mu, beta, t, tbar):
    """Equilibrium average of the time-ordered annihilator-creator
    pair, as a literal trace over Fock space.

    Returns the N x N matrix with [i, j] entry
    Tr(e^{-beta H} T(a_i^-(t) a_j^+(tbar))) / Tr(e^{-beta H}); at
    equal times the ordering puts the annihilator on the left.
    """
    mode = _as_mode(mu)
    _check_beta(beta, t, tbar)
    annihilators, creators = _operators(mode.n)
    if t >= tbar:
        chain = mode.chain_decays([t, tbar], beta)
        entries = [[_chain_trace(chain, [a, c]) for c in creators]
                   for a in annihilators]
    else:
        chain = mode.chain_decays([tbar, t], beta)
        entries = [[-_chain_trace(chain, [c, a]) for c in creators]
                   for a in annihilators]
    return np.array(entries, dtype=complex)


def closed_form_two_point(mu, beta, t, tbar):
    """The same two-point function through the mode eigenbasis: weight
    e^{-tau lam}/(1 + e^{-beta lam}) for tau >= 0 and its negated,
    beta-shifted continuation for tau < 0; the times must lie in
    [0, beta), as for ``thermal_two_point``."""
    mode = _as_mode(mu)
    _check_beta(beta, t, tbar)
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
    rule is applied separately on each side of the tau = 0 jump.
    ``k_index`` must be an integer."""
    mode = _as_mode(mu)
    _check_beta(beta)
    if not isinstance(k_index, (int, np.integer)):
        raise ValueError("k_index must be an integer")
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
    permutation's signature applied.  The empty product gives the
    normalized trace Tr(e^{-beta H})/Z, which is 1 up to rounding.
    """
    mode = _as_mode(mu)
    _check_beta(beta, *(f[0] for f in factors))
    for t, kind, index in factors:
        if (kind not in ("+", "-") or not isinstance(index, (int, np.integer))
                or not 0 <= index < mode.n):
            raise ValueError(f"bad factor ({t}, {kind}, {index})")
    order = sorted(range(len(factors)),
                   key=lambda k: _ordering_key(factors[k]))
    sign = canonicalize_bits(order)[1]
    annihilators, creators = _operators(mode.n)
    times = [factors[k][0] for k in order]
    mats = [(annihilators if factors[k][1] == "-" else creators)
            [factors[k][2]] for k in order]
    return sign * _chain_trace(mode.chain_decays(times, beta), mats)


def wick_check(mu, beta, n, times, indices):
    """Both sides of the determinant reduction for an alternating
    2n-point product.

    ``times`` is (t_1..t_n, tbar_1..tbar_n) and ``indices`` is
    (j_1..j_n, jbar_1..jbar_n).  Returns (lhs, rhs): the dense-trace
    average of T(prod a^-_{j_i}(t_i) a^+_{jbar_i}(tbar_i)) against the
    engine's Gaussian integral (``integrate_polynomial``) of the word
    psi-_1 psi+_1 ... psi-_n psi+_n, whose covariance entry
    (psi-_a, psi+_b) is the two-factor time-ordered average of
    a^-_{j_a}(t_a) a^+_{jbar_b}(tbar_b).
    """
    mode = _as_mode(mu)
    _check_beta(beta)
    if not 1 <= n <= 3:
        raise ValueError("n must be in 1..3")
    if len(times) != 2 * n or len(indices) != 2 * n:
        raise ValueError("need n times and n indices per species")
    minus_factors = [(t, "-", j) for t, j in zip(times[:n], indices[:n])]
    plus_factors = [(t, "+", j) for t, j in zip(times[n:], indices[n:])]
    lhs = time_ordered_average(mode, beta, [
        f for pair in zip(minus_factors, plus_factors) for f in pair])
    # species "i" (minus) sorts just before "i+" (plus), so the
    # universe's bit order is the word psi-_1 psi+_1 ... psi-_n psi+_n
    # itself, and the word is the full mask with coefficient 1
    minus = [GeneratorId("int", 0, f"{i}", "up", "-") for i in range(n)]
    plus = [GeneratorId("int", 0, f"{i}+", "up", "+") for i in range(n)]
    universe = Universe(minus + plus)
    entries = {(minus[a], plus[b]): time_ordered_average(
        mode, beta, [minus_factors[a], plus_factors[b]])
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
    err = max(_car_error(_operators(n)[0]) for n in range(1, MAX_MODES + 1))
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
        annihilators, creators = _operators(n)
        for beta in (1.0, 5.0):
            chain = mode.chain_decays([0.0, 0.0], beta)
            anti = np.array([[
                _chain_trace(chain, [a, c]) + _chain_trace(chain, [c, a])
                for c in creators] for a in annihilators])
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
