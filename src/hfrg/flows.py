"""Numeric analysis of the discrete coupling flow.

The exact one-scale map is iterated, searched for fixed points, and
linearized in floats here.  All symbolic work stays inside the map
itself (exact numerators, denominator, and their derivatives), so this
layer only deals in ordinary dense vectors and matrices.  A flow's
steps run in the map's generated ``flow_loop``; this module checks the
start and keeps the tolerances the loop is given.  Only the linear
algebra and the grid use NumPy, and they import it when called, so
iterating a flow never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .grassmann import SingularNormalization

CONVERGE_TOL = 1e-14
DIVERGE_CUTOFF = 1e6
MARGINAL_BAND = 1e-9
DEDUPE_TOL = 1e-8
NEWTON_TOL = 1e-12
NEWTON_MAX_ITERS = 100
NEWTON_MAX_HALVINGS = 20
_SNAP_MAX_DENOMINATOR = 1024
_SNAP_SLOW_FACTOR = 16

_NUMERIC_ERRORS = (SingularNormalization, ZeroDivisionError, OverflowError)


def _inf_norm(v):
    return max(map(abs, v))


@dataclass(frozen=True)
class Trajectory:
    """Scale-by-scale orbit of the map, newest point last.

    ``points`` holds (scale index, coupling tuple) pairs starting at
    index 0 and decreasing by one per applied step; ``termination`` is
    one of "max steps", "converged", or "diverged".
    """

    points: tuple
    termination: str

    @property
    def n_steps(self):
        return len(self.points) - 1


@dataclass(frozen=True)
class FixedPointReport:
    """A located equilibrium with its linearization summary.

    ``eigenvalue_moduli`` is sorted largest first; ``classification``
    is "stable" (all moduli < 1), "unstable" (some modulus > 1), or
    "marginal-mixed" (some modulus within the marginal band of 1).
    ``certified_exact`` is true when the exact map fixes a rational
    point whose floats are ``location``.
    """

    location: tuple
    residual_norm: float
    eigenvalue_moduli: tuple
    classification: str
    certified_exact: bool = False


class FixedPointResults(list):
    """Deduplicated reports in discovery order; seeds whose Newton run
    was abandoned are kept on the side, in ``abandoned_seeds``, with
    why each stopped in ``abandon_reasons``: "non-finite start",
    "singular jacobian", "stall" or "iteration cap"."""

    def __init__(self, reports=(), abandoned=()):
        super().__init__(reports)
        abandoned = tuple(abandoned)
        self.abandoned_seeds = tuple(seed for seed, _ in abandoned)
        self.abandon_reasons = tuple(reason for _, reason in abandoned)


def iterate_flow(beta, start, max_steps):
    """Apply the map repeatedly from ``start``.

    Stops early once the step shrinks below ``CONVERGE_TOL`` in the
    max norm (converged) or the iterate leaves the ball of radius
    ``DIVERGE_CUTOFF`` (diverged); a vanishing normalization or a
    non-finite value also terminates as diverged rather than raising.

    The start's length is checked once, as ``beta.evaluate`` checks it;
    the steps then run in ``beta.flow_loop``, one generated loop that
    computes each step as ``evaluate`` does at a float point, so the
    orbit has the same bits.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    start = beta.as_point([float(x) for x in start])
    points, termination = beta.flow_loop(
        start, max_steps, CONVERGE_TOL, DIVERGE_CUTOFF, _NUMERIC_ERRORS)
    return Trajectory(tuple(points), termination)


def stability(beta, point, certified_exact=False):
    """Classify an equilibrium by the eigenvalue moduli of the exact
    Jacobian evaluated at ``point``."""
    import numpy as np
    loc = tuple(float(x) for x in point)
    residual = _inf_norm(_residual_vector(beta, loc))
    jac = np.array(beta.jacobian(loc), dtype=float)
    moduli = tuple(sorted((float(abs(z)) for z in np.linalg.eigvals(jac)),
                          reverse=True))
    if any(abs(m - 1.0) <= MARGINAL_BAND for m in moduli):
        classification = "marginal-mixed"
    elif all(m < 1.0 for m in moduli):
        classification = "stable"
    else:
        classification = "unstable"
    return FixedPointReport(loc, residual, moduli, classification,
                            certified_exact)


def _residual_vector(beta, x):
    return [a - b for a, b in zip(beta.evaluate(x), x)]


def _snap(beta, x):
    """The floats of the rational point of denominator at most
    ``_SNAP_MAX_DENOMINATOR`` nearest ``x``, when the exact map fixes
    it; otherwise None.

    ``x`` is where a linearly converging Newton run is headed, its
    extrapolated limit.  The point must lie within ``sqrt(NEWTON_TOL)``
    of ``x`` in every coordinate and its floats must meet ``NEWTON_TOL``
    themselves.  Small rationals lie that close to most floats, and an
    exact evaluate of graphene costs more than a whole Newton run, so
    the float residual turns most false candidates away first.
    """
    radius = math.sqrt(NEWTON_TOL)
    p = [Fraction(v).limit_denominator(_SNAP_MAX_DENOMINATOR) for v in x]
    if any(abs(pi - v) > radius for pi, v in zip(p, x)):
        return None
    location = tuple(map(float, p))
    try:
        if not _inf_norm(_residual_vector(beta, location)) <= NEWTON_TOL:
            return None
        if beta.evaluate(p) != p:
            return None
    except _NUMERIC_ERRORS:
        return None
    return location


def _newton(beta, seed):
    """Damped Newton on beta(x) - x.

    Returns ``(location, certified_exact, None)``, or ``(None, False,
    reason)`` when the seed is abandoned, ``reason`` being one of
    ``FixedPointResults``' abandon reasons.

    Iteration continues while the residual strictly decreases, not
    just until it first dips below ``NEWTON_TOL``: at a marginal
    equilibrium the linearization of beta(x) - x is singular at the
    root, so the tolerance is met a wide puddle away from the actual
    point and only the extra polishing steps contract onto it.  There
    Newton converges only linearly (at a root of multiplicity m each
    step keeps (m - 1) / m of the distance: a half at the double root
    of the kondo origin), and crawls for dozens of steps.

    Such a crawl is geometric, so its limit can be extrapolated long
    before the iterates reach it.  After each accepted step that cuts
    the residual by less than ``_SNAP_SLOW_FACTOR``, the ratio r of
    the last two step lengths estimates the rate, and the step d just
    taken extrapolates the tail, x + d r / (1 - r).  Once two
    successive extrapolations agree within ``sqrt(NEWTON_TOL)``, the
    extrapolation is snapped to nearby small rationals (``_snap``): if
    the exact map fixes them, they are the location, certified exact.
    Quadratic convergence cuts the residual by far more per step, so
    it does not extrapolate on the way in; but once the residual sits
    at the float noise floor, the last polishing steps cut it by little
    and can agree on an extrapolation too.  A few quadratic seeds pay
    for a snap that way: in five draws of 400 graphene seeds, l0 in
    [-0.3, 1.2] and the rest in [-0.05, 0.05], 4 to 8 runs of 5-7
    Jacobians onto (1, 0, ...) did.  Each paid one exact graphene
    evaluate of ~4-7 ms, three to four times the rest of its run, and
    came out certified exact.  The iterates themselves never depend on
    the extrapolation, so a run that is not certified ends where plain
    damped Newton ends.
    """
    import numpy as np
    x = [float(v) for v in seed]
    try:
        f = _residual_vector(beta, x)
    except _NUMERIC_ERRORS:
        return None, False, "non-finite start"
    if not all(map(math.isfinite, f)):
        return None, False, "non-finite start"
    fnorm = _inf_norm(f)
    eye = np.eye(len(x))
    radius = math.sqrt(NEWTON_TOL)
    last_length = guess = None
    reason = "iteration cap"
    for _ in range(NEWTON_MAX_ITERS):
        if fnorm == 0.0:
            break
        try:
            jac = np.array(beta.jacobian(x), dtype=float)
        except _NUMERIC_ERRORS:
            return None, False, "singular jacobian"
        try:
            step = np.linalg.solve(jac - eye, f).tolist()
        except np.linalg.LinAlgError:
            # singular linearization: abandon unless already converged
            reason = "singular jacobian"
            break
        if not all(map(math.isfinite, step)):
            return None, False, "singular jacobian"
        scale = 1.0
        improved = False
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            cand = [xi - scale * si for xi, si in zip(x, step)]
            try:
                fc = _residual_vector(beta, cand)
            except _NUMERIC_ERRORS:
                scale /= 2.0
                continue
            if all(map(math.isfinite, fc)) and _inf_norm(fc) < fnorm:
                fc_norm = _inf_norm(fc)
                slow = _SNAP_SLOW_FACTOR * fc_norm > fnorm
                moved = [c - xi for c, xi in zip(cand, x)]
                x, f, fnorm = cand, fc, fc_norm
                improved = True
                break
            scale /= 2.0
        if not improved:
            reason = "stall"
            break
        length = _inf_norm(moved)
        rate = length / last_length if last_length else 1.0
        last_length = length
        if not (slow and rate < 1.0):
            guess = None
            continue
        tail = rate / (1.0 - rate)     # r + r**2 + ... steps still to come
        prev, guess = guess, [xi + di * tail for xi, di in zip(x, moved)]
        if prev is not None and _inf_norm(
                [a - b for a, b in zip(guess, prev)]) <= radius:
            exact = _snap(beta, guess)
            if exact is not None:
                return exact, True, None
    if fnorm <= NEWTON_TOL:
        return tuple(x), False, None
    return None, False, reason


def find_fixed_points(beta, seeds):
    """Newton-solve beta(x) = x from each seed with the exact Jacobian.

    Converged locations closer than the deduplication tolerance to an
    earlier find are dropped; abandoned seeds are recorded on the
    returned list, each with why its run stopped.
    """
    reports = []
    abandoned = []
    for seed in seeds:
        location, exact, reason = _newton(beta, seed)
        if location is None:
            abandoned.append((tuple(float(v) for v in seed), reason))
            continue
        if any(_inf_norm([a - b for a, b in zip(location, r.location)])
               <= DEDUPE_TOL for r in reports):
            continue
        reports.append(stability(beta, location, exact))
    return FixedPointResults(reports, abandoned)


def classify_power_counting(replication, gamma, field_count):
    """Scaling exponent of a coupling with ``field_count`` fields and
    its class: positive exponent grows under iteration (relevant),
    zero is marginal, negative shrinks (irrelevant)."""
    if field_count < 2 or field_count % 2:
        raise ValueError("field_count must be an even integer >= 2")
    k = replication.bit_length() - 1
    if replication <= 0 or (1 << k) != replication:
        raise ValueError("replication must be a power of two")
    exponent = Fraction(k) - field_count * Fraction(gamma)
    if exponent > 0:
        kind = "relevant"
    elif exponent < 0:
        kind = "irrelevant"
    else:
        kind = "marginal"
    return exponent, kind


def _displacement_row(li, lj, den, num_i, num_j, p_i, p_j, p_max):
    nan_row = (li, lj, 0.0, 0.0, float("nan"))
    try:
        # a per-point evaluate divides every component by its den ** p,
        # and the largest p (>= 1) underflows to 0 or overflows first
        if den ** p_max == 0.0:
            raise ZeroDivisionError
        di = num_i / den ** p_i - li
        dj = num_j / den ** p_j - lj
    except (ZeroDivisionError, OverflowError):
        return nan_row
    if not (math.isfinite(di) and math.isfinite(dj)):
        return nan_row
    mag = math.hypot(di, dj)
    if mag == 0.0:
        return (li, lj, 0.0, 0.0, float("-inf"))
    return (li, lj, di / mag, dj / mag, math.log10(mag))


def vector_field_grid(beta, axis_i, axis_j, ranges, resolution,
                      fixed_values=None):
    """Sample the one-step displacement in a coupling plane.

    Rows are (l_i, l_j, unit direction of the in-plane displacement,
    log10 of its magnitude) in row-major order: the first axis varies
    slowest.  Off-plane couplings are pinned to ``fixed_values``
    (zeros by default).  A zero displacement yields direction (0, 0)
    with magnitude -inf; an undefined point (vanishing normalization,
    or a component's ``den ** p`` that underflows to 0 or overflows)
    yields direction (0, 0) with magnitude nan.  A window whose
    endpoints or ticks are not finite, or a fixed value that is not,
    raises ValueError.

    One array pass over all cells evaluates only the denominator and
    the two in-plane numerators; each row is then finished in Python
    floats, so it has the bits a per-point ``beta.evaluate`` gives.
    """
    import numpy as np
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    n = beta.n
    if not (0 <= axis_i < n and 0 <= axis_j < n) or axis_i == axis_j:
        raise ValueError("axes must be distinct coupling indices")
    base = [0.0] * n if fixed_values is None else [float(v)
                                                   for v in fixed_values]
    if len(base) != n:
        raise ValueError(f"expected {n} fixed values, got {len(base)}")
    if not all(math.isfinite(v) for v in base):
        raise ValueError("fixed values must be finite")
    ticks_i, ticks_j = ([lo + (hi - lo) * k / (resolution - 1)
                         for k in range(resolution)] for lo, hi in ranges)
    # the first tick involves both endpoints, so this covers them too
    if not all(math.isfinite(t) for t in ticks_i + ticks_j):
        raise ValueError("window endpoints and ticks must be finite")
    cells = [(li, lj) for li in ticks_i for lj in ticks_j]
    columns = list(base)
    columns[axis_i], columns[axis_j] = np.array(cells).T
    with np.errstate(all="ignore"):   # as silent as float arithmetic
        values = beta.evaluate_columns(columns, (axis_i, axis_j))
        dens, nums_i, nums_j = (np.broadcast_to(v, len(cells)).tolist()
                                for v in values)
    # float exponents run the same pow() as the int ones of a per-point
    # evaluate, without converting an int on every row
    powers = beta.denominator_powers
    p_i, p_j, p_max = map(float, (powers[axis_i], powers[axis_j],
                                  max(powers)))
    return [_displacement_row(li, lj, den, ni, nj, p_i, p_j, p_max)
            for (li, lj), den, ni, nj in zip(cells, dens, nums_i, nums_j)]
