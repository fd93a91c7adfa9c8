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
    """

    location: tuple
    residual_norm: float
    eigenvalue_moduli: tuple
    classification: str


class FixedPointResults(list):
    """Deduplicated reports in discovery order; seeds whose Newton run
    was abandoned (singular linearization, stall, or iteration cap)
    are kept on the side."""

    def __init__(self, reports=(), abandoned=()):
        super().__init__(reports)
        self.abandoned_seeds = tuple(abandoned)


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


def stability(beta, point):
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
    return FixedPointReport(loc, residual, moduli, classification)


def _residual_vector(beta, x):
    return [a - b for a, b in zip(beta.evaluate(x), x)]


def _newton(beta, seed):
    """Damped Newton on beta(x) - x; None when the seed is abandoned.

    Iteration continues while the residual strictly decreases, not
    just until it first dips below ``NEWTON_TOL``: at a marginal
    equilibrium the linearization of beta(x) - x is singular at the
    root, so the tolerance is met a wide puddle away from the actual
    point and only the extra polishing steps contract onto it.
    """
    import numpy as np
    x = [float(v) for v in seed]
    n = len(x)
    try:
        f = _residual_vector(beta, x)
    except _NUMERIC_ERRORS:
        return None
    if not all(map(math.isfinite, f)):
        return None
    fnorm = _inf_norm(f)
    for _ in range(NEWTON_MAX_ITERS):
        if fnorm == 0.0:
            break
        try:
            jac = np.array(beta.jacobian(x), dtype=float)
        except _NUMERIC_ERRORS:
            return None
        try:
            step = np.linalg.solve(jac - np.eye(n), np.array(f))
        except np.linalg.LinAlgError:
            # singular linearization: abandon unless already converged
            break
        if not np.all(np.isfinite(step)):
            return None
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
                x, f, fnorm = cand, fc, _inf_norm(fc)
                improved = True
                break
            scale /= 2.0
        if not improved:
            break
    return tuple(x) if fnorm <= NEWTON_TOL else None


def find_fixed_points(beta, seeds):
    """Newton-solve beta(x) = x from each seed with the exact Jacobian.

    Converged locations closer than the deduplication tolerance to an
    earlier find are dropped; abandoned seeds are recorded on the
    returned list.
    """
    reports = []
    abandoned = []
    for seed in seeds:
        location = _newton(beta, seed)
        if location is None:
            abandoned.append(tuple(float(v) for v in seed))
            continue
        if any(_inf_norm([a - b for a, b in zip(location, r.location)])
               <= DEDUPE_TOL for r in reports):
            continue
        reports.append(stability(beta, location))
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
