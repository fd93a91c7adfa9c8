"""Flow iteration, fixed-point search, stability, vector fields."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hfrg.cli import DEFAULT_SEEDS
from hfrg.couplings import CouplingPolynomial
from hfrg.grassmann import SingularNormalization
from hfrg.flows import (FixedPointReport, Trajectory, classify_power_counting,
                        find_fixed_points, iterate_flow, stability,
                        vector_field_grid)
from hfrg.models import graphene_model, kondo_model
from hfrg.rg import BetaMap, rg_step

G_BETA = rg_step(graphene_model())
K_BETA = rg_step(kondo_model())
MAPS = {"graphene": G_BETA, "kondo": K_BETA}

KONDO_L0_STAR = -0.7807256660704317
KONDO_L1_STAR = 0.05292875274036917


def toy_map(numerator_terms, denominator_terms=None):
    """One-coupling map x -> N(x) / D(x), with D = 1 unless
    ``denominator_terms`` is given, for solver and flow edge cases."""
    def poly(terms):
        return CouplingPolynomial(1, {(k,): Fraction(c)
                                      for k, c in terms.items()})
    return BetaMap(model="toy", coupling_names=("x",),
                   numerators=(poly(numerator_terms),),
                   denominator=poly(denominator_terms or {0: 1}),
                   denominator_powers=(1,), constant_multiplier=1)


# -- trajectories --------------------------------------------------------


def test_trajectory_entries_are_consecutive_images():
    traj = iterate_flow(K_BETA, (0.01, 0.0), 50)
    assert traj.points[0] == (0, (0.01, 0.0))
    for (h, cur), (h2, nxt) in zip(traj.points, traj.points[1:]):
        assert h2 == h - 1
        assert nxt == tuple(K_BETA.evaluate(cur))
    assert traj.termination == "max steps"
    assert traj.n_steps == 50


def test_trajectory_is_deterministic():
    a = iterate_flow(G_BETA, [1e-3] * 7, 40)
    b = iterate_flow(G_BETA, [1e-3] * 7, 40)
    assert repr(a.points) == repr(b.points)
    assert a.termination == b.termination


def test_marginal_axis_decays_toward_origin():
    # a small positive quadratic coupling shrinks but survives many
    # steps: the linearization there is exactly marginal
    traj = iterate_flow(K_BETA, (0.01, 0.0), 200)
    l0 = [v[0] for _, v in traj.points]
    assert all(b < a for a, b in zip(l0, l0[1:]))
    assert l0[-1] > 0


def test_negative_marginal_start_reaches_nontrivial_point():
    traj = iterate_flow(K_BETA, (-0.01, 0.0), 10 ** 4)
    assert traj.termination == "converged"
    assert abs(traj.points[-1][1][0] - KONDO_L0_STAR) < 1e-9
    assert abs(traj.points[-1][1][1] - KONDO_L1_STAR) < 1e-9


def test_small_generic_start_flows_to_unit_hopping():
    traj = iterate_flow(G_BETA, [1e-3] * 7, 500)
    assert traj.termination == "converged"
    assert abs(traj.points[-1][1][0] - 1.0) < 1e-12
    assert max(abs(v) for v in traj.points[-1][1][1:]) < 1e-12


def test_divergence_on_singular_normalization():
    # the quadratic axis hits a vanishing normalization at -1; the
    # iteration must flag divergence instead of raising
    traj = iterate_flow(G_BETA, [-1.0] + [0.0] * 6, 10)
    assert traj.termination == "diverged"
    assert traj.points == (((0, (-1.0,) + (0.0,) * 6)),)


def test_divergence_cutoff_stops_a_growing_orbit():
    # x -> 10 x passes the cutoff 1e6 on the seventh step, at 1e7
    traj = iterate_flow(toy_map({1: 10}), (1.0,), 10)
    assert traj.termination == "diverged"
    assert traj.n_steps == 7
    assert traj.points[-1][1] == (1e7,)


def test_iterate_flow_requires_steps():
    with pytest.raises(ValueError):
        iterate_flow(K_BETA, (0.0, 0.0), 0)


def reference_flow(beta, start, max_steps):
    """``iterate_flow`` as a plain loop of ``beta.evaluate``."""
    cur = tuple(float(x) for x in start)
    points = [(0, cur)]
    for index in range(-1, -max_steps - 1, -1):
        try:
            nxt = tuple(beta.evaluate(cur))
        except (SingularNormalization, ZeroDivisionError, OverflowError):
            return points, "diverged"
        if not all(map(math.isfinite, nxt)):
            return points, "diverged"
        points.append((index, nxt))
        if max(map(abs, nxt)) > 1e6:
            return points, "diverged"
        if max(abs(a - b) for a, b in zip(nxt, cur)) < 1e-14:
            return points, "converged"
        cur = nxt
    return points, "max steps"


@st.composite
def flow_cases(draw):
    """(model, start, max_steps)."""
    model = draw(st.sampled_from(sorted(MAPS)))
    start = draw(st.lists(st.floats(-2.0, 2.0), min_size=MAPS[model].n,
                          max_size=MAPS[model].n))
    return model, start, draw(st.integers(1, 80))


@given(flow_cases())
@settings(max_examples=80, deadline=None)
@example(("kondo", [-0.3, 0.01], 200))            # converges
@example(("kondo", [5.0, 5.0], 50))               # runs all 50 steps
@example(("graphene", [3.0] + [2.0] * 6, 50))     # converges after 46 steps
@example(("graphene", [-1.0] + [0.0] * 6, 10))    # singular normalization
# step 2 lands past the cutoff, at l6 = -2.69e7
@example(("graphene", [-0.09441208175938386, -0.13313271970656132,
                       0.05544968066356634, -0.0040570236451336105,
                       0.000451751515306112, -0.05197014773219528,
                       -0.16188412070360023], 20))
# step 1 gives l0 = -0.0: (-5e-324 * 4) / 10 rounds to zero
@example(("kondo", [-5e-324, 1.0], 3))
def test_iterate_flow_is_bit_identical_to_evaluate_steps(case):
    model, start, max_steps = case
    beta = MAPS[model]
    traj = iterate_flow(beta, start, max_steps)
    points, termination = reference_flow(beta, start, max_steps)
    # repr tells -0.0 from 0.0
    assert repr(traj.points) == repr(tuple(points))
    assert traj.termination == termination


# Every exit of the generated loop on a one-coupling map, whose points
# are 1-tuples.  From a point inside the cutoff the shipped maps give
# finite values and no vanishing normalization was found after a step,
# so those exits are reached here.
@pytest.mark.parametrize("terms, start, max_steps, termination, n_steps", [
    (({1: Fraction(1, 2)},), (1.0,), 3, "max steps", 3),
    (({1: Fraction(1, 2)},), (1.0,), 100, "converged", 47),
    (({1: 10},), (1.0,), 10, "diverged", 7),            # past the cutoff
    # 1e5 on step 1, then 1e301 * 1e10 overflows to inf
    (({2: 10 ** 301},), (1e-148,), 10, "diverged", 1),
    # x -> -1 / (1 + x): -1.0 on step 1, then the normalization is 0
    (({0: -1}, {0: 1, 1: 1}), (0.0,), 10, "diverged", 1),
    # the start's -0.0 is kept, and x / 2 of it is 0.0
    (({1: Fraction(1, 2)},), (-0.0,), 10, "converged", 1),
], ids=["max-steps", "converged", "cutoff", "non-finite", "singular",
        "negative-zero"])
def test_one_coupling_flow_exits_match_evaluate_steps(
        terms, start, max_steps, termination, n_steps):
    beta = toy_map(*terms)
    traj = iterate_flow(beta, start, max_steps)
    points, expected = reference_flow(beta, start, max_steps)
    assert repr(traj.points) == repr(tuple(points))
    assert (traj.termination, traj.n_steps) == (expected, len(points) - 1)
    assert (traj.termination, traj.n_steps) == (termination, n_steps)


@pytest.mark.parametrize("beta", [G_BETA, K_BETA], ids=["graphene", "kondo"])
def test_wrong_length_start_raises_before_any_step(beta, monkeypatch):
    start = [0.1] * (beta.n + 1)
    with pytest.raises(ValueError) as expected:
        beta.evaluate(start)

    def no_step(*args):
        raise AssertionError("stepped from a wrong-length start")
    monkeypatch.setitem(vars(beta), "flow_loop", no_step)
    with pytest.raises(ValueError) as raised:
        iterate_flow(beta, start, 5)
    assert str(raised.value) == str(expected.value)


def test_stable_eigendirections_contract_on_first_step():
    # starts of size 1e-6 along each eigendirection of the origin
    # linearization with modulus < 1 shrink at that modulus' rate
    jac = np.array(G_BETA.jacobian([0.0] * 7))
    vals, vecs = np.linalg.eig(jac)
    checked = 0
    for k in range(7):
        lam = float(vals[k].real)
        if abs(lam) >= 1.0:
            continue
        v = vecs[:, k].real
        v = v / np.max(np.abs(v)) * 1e-6
        out = G_BETA.evaluate(list(v))
        ratio = max(abs(x) for x in out) / np.max(np.abs(v))
        assert ratio == pytest.approx(abs(lam), rel=1e-4)
        checked += 1
    assert checked == 6


def test_zero_hopping_slice_is_sourced_not_contracting():
    # the coordinate slice with the quadratic coupling zeroed is not
    # invariant: quartic couplings feed it linearly (Jacobian row
    # [2, 0, -4, -2, 2, 6, 2]), so the slice expands on the first step
    # and ultimately leaves for the unit-hopping equilibrium
    start = [0.0] + [1e-6] * 6
    first = G_BETA.evaluate(start)
    assert abs(first[0]) > 1e-6
    traj = iterate_flow(G_BETA, start, 500)
    assert traj.termination == "converged"
    assert abs(traj.points[-1][1][0] - 1.0) < 1e-12


# -- fixed points and stability ------------------------------------------


def test_kondo_grid_finds_both_equilibria():
    seeds = [(a / 2, b / 2) for a in range(-2, 3) for b in range(-2, 3)]
    reports = find_fixed_points(K_BETA, seeds)
    assert len(reports) == 2
    assert not reports.abandoned_seeds
    by_l0 = sorted(reports, key=lambda r: r.location[0])
    nontrivial, origin = by_l0
    # the origin is a double root of K(x) - x, snapped and certified
    assert origin.location == (0.0, 0.0)
    assert origin.certified_exact
    assert origin.classification == "marginal-mixed"
    assert origin.eigenvalue_moduli == (1.0, 0.5)
    # the irrational star keeps its float bits
    assert nontrivial.location == (KONDO_L0_STAR, KONDO_L1_STAR)
    assert not nontrivial.certified_exact
    assert nontrivial.classification == "stable"
    for r in reports:
        assert r.residual_norm <= 1e-11


def test_kondo_nontrivial_point_solves_the_cubic():
    reports = find_fixed_points(K_BETA, [(-0.8, 0.05)])
    (report,) = reports
    x0 = 3 * report.location[1]
    assert abs(4 - 19 * x0 - 22 * x0 ** 2 - 107 * x0 ** 3) <= 1e-10
    # the first coordinate is the stated rational image of the root
    l0 = -x0 * (1 + 5 * x0) / (1 - 4 * x0)
    assert report.location[0] == pytest.approx(l0, abs=1e-10)


def test_graphene_seeds_find_exactly_two_equilibria():
    seeds = [[0.05] * 7, [0.9] + [0.05] * 6, [0.5] * 7]
    reports = find_fixed_points(G_BETA, seeds)
    assert len(reports) == 2
    assert not reports.abandoned_seeds
    origin = min(reports, key=lambda r: abs(r.location[0]))
    hopping = max(reports, key=lambda r: abs(r.location[0]))
    assert max(abs(v) for v in origin.location) < 1e-11
    assert origin.classification == "unstable"
    assert origin.eigenvalue_moduli[0] == pytest.approx(2.0, abs=1e-9)
    assert hopping.location[0] == pytest.approx(1.0, abs=1e-11)
    assert max(abs(v) for v in hopping.location[1:]) < 1e-11
    assert hopping.classification == "stable"
    assert hopping.eigenvalue_moduli[0] == pytest.approx(0.5, abs=1e-9)
    for r in reports:
        assert r.residual_norm <= 1e-11


def test_stability_reports_match_search():
    direct = stability(G_BETA, [0.0] * 7)
    assert direct.classification == "unstable"
    assert direct.residual_norm == 0.0
    assert direct.eigenvalue_moduli == tuple(
        sorted(direct.eigenvalue_moduli, reverse=True))


def test_rootless_map_abandons_all_seeds():
    beta = toy_map({0: 1, 1: 1, 2: 1})   # beta(x) - x = 1 + x**2 > 0
    reports = find_fixed_points(beta, [(0.0,), (3.0,), (-2.0,)])
    assert list(reports) == []
    assert reports.abandoned_seeds == ((0.0,), (3.0,), (-2.0,))
    assert reports.abandon_reasons == ("singular jacobian", "stall", "stall")


def test_singular_linearization_abandons_unconverged_seed():
    beta = toy_map({2: 1})                # beta(x) = x**2
    reports = find_fixed_points(beta, [(0.5,), (0.9,)])
    # at x = 0.5 the derivative of beta(x) - x vanishes: abandoned;
    # the other seed converges to the fixed point at 1
    assert reports.abandoned_seeds == ((0.5,),)
    assert reports.abandon_reasons == ("singular jacobian",)
    assert len(reports) == 1
    assert reports[0].location[0] == pytest.approx(1.0, abs=1e-12)


def test_abandoned_starts_and_capped_runs_say_why():
    # x -> x + x**3 from 1e30: each step only scales x by 2/3, so 100
    # steps end far above the tolerance; the map at the normalization's
    # zero or at a non-finite seed is undefined
    reports = find_fixed_points(toy_map({1: 1, 3: 1}), [(1e30,)])
    assert reports.abandon_reasons == ("iteration cap",)
    reports = find_fixed_points(G_BETA, [[-1.0] + [0.0] * 6,
                                         [math.nan] * 7])
    assert reports.abandon_reasons == ("non-finite start",) * 2


# -- snapping onto exact rational equilibria ------------------------------


def test_double_root_at_a_rational_is_reported_exactly():
    # x -> x**2 + 1/4 fixes 1/2 twice over; Newton only halves the
    # distance per step, so from 0.9 it stops at 0.5000000113277103
    # unsnapped
    beta = toy_map({0: Fraction(1, 4), 2: 1})
    for seed in [(0.0,), (0.9,), (2.0,)]:
        (report,) = find_fixed_points(beta, [seed])
        assert report.location == (0.5,)
        assert report.certified_exact
        assert report.residual_norm == 0.0


def test_triple_root_at_a_rational_is_reported_exactly():
    # x -> x + x**3 fixes 0 three times over; Newton keeps 2/3 of the
    # distance per step, and unless the crawl's limit is extrapolated
    # it stops at 6.872e-09 from 1.0
    beta = toy_map({1: 1, 3: 1})
    for seed in [(1.0,), (-0.3,), (5.0,)]:
        (report,) = find_fixed_points(beta, [seed])
        assert report.location == (0.0,)
        assert report.certified_exact
        assert report.residual_norm == 0.0


def test_double_root_at_an_irrational_keeps_its_float_bits():
    # x -> x**4 - 4 x**2 + x + 4 fixes sqrt(2) twice over; the snap's
    # candidate 1393/985 is not fixed, so Newton goes on as before
    beta = toy_map({0: 4, 1: 1, 2: -4, 4: 1})
    expected = {1.0: 1.414213570535832, 2.0: 1.4142135678765335,
                -1.0: -1.4142135611284772, 1.3: 1.414213556952412}
    for seed, location in expected.items():
        (report,) = find_fixed_points(beta, [(seed,)])
        assert report.location == (location,)
        assert not report.certified_exact


def _count_calls(monkeypatch, name, counted=lambda values: True):
    """Count the ``BetaMap.<name>`` calls whose point ``counted``
    accepts."""
    calls = []
    method = getattr(BetaMap, name)

    def counting(self, values):
        values = list(values)
        if counted(values):
            calls.append(values)
        return method(self, values)
    monkeypatch.setattr(BetaMap, name, counting)
    return calls


def test_kondo_default_seeds_stop_crawling_onto_the_origin(monkeypatch):
    # the 25 seeds take 224 Jacobians; without the snap they take 883,
    # most of them halving the distance to the marginal origin one step
    # at a time, and 343 when the snap waits for the residual to meet
    # the tolerance instead of extrapolating the crawl's limit
    calls = _count_calls(monkeypatch, "jacobian")
    reports = find_fixed_points(K_BETA, DEFAULT_SEEDS["kondo"])
    assert len(reports) == 2
    assert len(calls) <= 230


def test_graphene_default_seeds_make_no_exact_evaluation(monkeypatch):
    # an exact graphene evaluate costs more than a whole Newton run;
    # quadratically converging seeds never try the snap
    calls = _count_calls(
        monkeypatch, "evaluate",
        lambda values: not any(isinstance(v, float) for v in values))
    reports = find_fixed_points(G_BETA, DEFAULT_SEEDS["graphene"])
    assert len(reports) == 2
    assert calls == []


@st.composite
def newton_seeds(draw):
    """(model, seed): kondo seeds in the CLI's window, graphene seeds
    with l0 in [-0.3, 1.2] and the other couplings within 0.05."""
    model = draw(st.sampled_from(sorted(MAPS)))
    if model == "kondo":
        seed = [draw(st.floats(-1.0, 0.5)), draw(st.floats(-0.1, 0.15))]
    else:
        seed = [draw(st.floats(-0.3, 1.2))] + [
            draw(st.floats(-0.05, 0.05)) for _ in range(6)]
    return model, seed


@given(newton_seeds())
@settings(max_examples=60, deadline=None)
@example(("kondo", [0.3, 0.05]))                  # certified origin
@example(("graphene", [0.24637329359337462, 0.03969933649490352,
                       -0.04697179449225805, -0.008919817024459667,
                       0.03118245275721572, 0.026666800234297378,
                       -0.04593505160840775]))   # certified unit hopping
def test_certified_locations_are_fixed_by_the_exact_map(case):
    model, seed = case
    beta = MAPS[model]
    for report in find_fixed_points(beta, [seed]):
        if report.certified_exact:
            p = [Fraction(v) for v in report.location]
            assert beta.evaluate(p) == p
            assert report.residual_norm == 0.0


# -- power counting -------------------------------------------------------


def test_power_counting_classes():
    assert classify_power_counting(8, 1, 2) == (Fraction(1), "relevant")
    assert classify_power_counting(8, 1, 4) == (Fraction(-1), "irrelevant")
    assert classify_power_counting(8, 1, 6) == (Fraction(-3), "irrelevant")
    assert classify_power_counting(2, Fraction(1, 2), 2) == \
        (Fraction(0), "marginal")
    assert classify_power_counting(2, Fraction(1, 2), 4) == \
        (Fraction(-1), "irrelevant")
    # replication 1 is 2**0
    assert classify_power_counting(1, Fraction(1, 2), 2) == \
        (Fraction(-1), "irrelevant")


def test_power_counting_validation():
    with pytest.raises(ValueError):
        classify_power_counting(8, 1, 3)
    with pytest.raises(ValueError):
        classify_power_counting(8, 1, 0)
    with pytest.raises(ValueError):
        classify_power_counting(6, 1, 2)


# -- vector-field grids ---------------------------------------------------


def test_grid_rows_match_direct_evaluation():
    rows = vector_field_grid(K_BETA, 0, 1, ((-1.0, 0.3), (-0.05, 0.1)), 3)
    assert len(rows) == 9
    k = 0
    for a in range(3):
        li = -1.0 + (0.3 - -1.0) * a / 2
        for b in range(3):
            lj = -0.05 + (0.1 - -0.05) * b / 2
            row = rows[k]
            k += 1
            assert row[0] == li and row[1] == lj
            image = K_BETA.evaluate([li, lj])
            di, dj = image[0] - li, image[1] - lj
            mag = math.hypot(di, dj)
            assert row[2] == di / mag and row[3] == dj / mag
            assert row[4] == math.log10(mag)
            assert math.hypot(row[2], row[3]) == pytest.approx(1.0)


def test_grid_sentinels():
    row = vector_field_grid(K_BETA, 0, 1, ((0.0, 1.0), (0.0, 1.0)), 2)[0]
    assert row == (0.0, 0.0, 0.0, 0.0, float("-inf"))
    # a vanishing normalization marks the point as undefined
    bad = vector_field_grid(G_BETA, 0, 1, ((-1.0, -1.0), (0.0, 0.0)), 2)[0]
    assert bad[:4] == (-1.0, 0.0, 0.0, 0.0)
    assert math.isnan(bad[4])


def test_grid_slice_pins_off_plane_couplings():
    fixed = [0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 0.0]
    (row,) = [vector_field_grid(G_BETA, 0, 1, ((0.1, 0.1), (0.0, 0.0)), 2,
                                fixed_values=fixed)[0]]
    point = list(fixed)
    point[0], point[1] = 0.1, 0.0
    image = G_BETA.evaluate(point)
    di, dj = image[0] - 0.1, image[1] - 0.0
    mag = math.hypot(di, dj)
    assert row[2] == pytest.approx(di / mag)
    assert row[4] == pytest.approx(math.log10(mag))


def test_grid_flow_points_at_stable_kondo_equilibrium():
    # displacement along the first axis reverses sign across the
    # stable point, pointing inward from both sides
    left = vector_field_grid(K_BETA, 0, 1,
                             ((-0.9, -0.9), (KONDO_L1_STAR,) * 2), 2)[0]
    right = vector_field_grid(K_BETA, 0, 1,
                              ((-0.6, -0.6), (KONDO_L1_STAR,) * 2), 2)[0]
    assert left[2] > 0 and right[2] < 0


def reference_row(beta, axis_i, axis_j, base, li, lj):
    """One grid row from a per-point evaluation of the whole map."""
    x = list(base)
    x[axis_i], x[axis_j] = li, lj
    nan_row = (li, lj, 0.0, 0.0, float("nan"))
    try:
        image = beta.evaluate(x)
    except (SingularNormalization, ZeroDivisionError, OverflowError):
        return nan_row
    di, dj = image[axis_i] - li, image[axis_j] - lj
    if not (math.isfinite(di) and math.isfinite(dj)):
        return nan_row
    mag = math.hypot(di, dj)
    if mag == 0.0:
        return (li, lj, 0.0, 0.0, float("-inf"))
    return (li, lj, di / mag, dj / mag, math.log10(mag))


def reference_grid(beta, axis_i, axis_j, ranges, resolution, base):
    (i_lo, i_hi), (j_lo, j_hi) = ranges
    step = resolution - 1
    return [reference_row(beta, axis_i, axis_j, base,
                          i_lo + (i_hi - i_lo) * a / step,
                          j_lo + (j_hi - j_lo) * b / step)
            for a in range(resolution) for b in range(resolution)]


def assert_rows_identical(rows, expected):
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert repr(row) == repr(want)



@st.composite
def grid_cases(draw):
    """(model, axes, window, resolution, fixed values or None)."""
    model = draw(st.sampled_from(sorted(MAPS)))
    n = MAPS[model].n
    axes = tuple(draw(st.permutations(range(n)))[:2])
    coord = st.floats(-2.0, 2.0)
    ranges = tuple(draw(st.tuples(coord, coord)) for _ in range(2))
    resolution = draw(st.integers(2, 12))
    base = draw(st.none() | st.lists(st.floats(-0.3, 0.3),
                                     min_size=n, max_size=n))
    return model, axes, ranges, resolution, base


@given(grid_cases())
@settings(max_examples=60, deadline=None)
# an off-plane den ** p that underflows to 0 (first) or overflows
# (second) while the in-plane powers stay finite and nonzero
@example(("graphene", (2, 3), ((0, 3.443032638050018e-116), (0, 1)), 2,
          None))
@example(("graphene", (0, 1), ((1e20, 1e20), (0.0, 0.0)), 2, None))
def test_grid_rows_are_bit_identical_to_per_point_evaluation(case):
    model, (axis_i, axis_j), ranges, resolution, base = case
    beta = MAPS[model]
    rows = vector_field_grid(beta, axis_i, axis_j, ranges, resolution,
                             fixed_values=base)
    expected = reference_grid(beta, axis_i, axis_j, ranges, resolution,
                              [0.0] * beta.n if base is None else base)
    assert_rows_identical(rows, expected)


def test_grid_equilibrium_rows_are_minus_infinity():
    # (0, 0) and (1, 0) are equilibria of the honeycomb map
    rows = vector_field_grid(G_BETA, 0, 1, ((0.0, 1.0), (0.0, 0.0)), 2)
    assert rows == [(0.0, 0.0, 0.0, 0.0, float("-inf"))] * 2 \
        + [(1.0, 0.0, 0.0, 0.0, float("-inf"))] * 2
    assert_rows_identical(rows, reference_grid(
        G_BETA, 0, 1, ((0.0, 1.0), (0.0, 0.0)), 2, [0.0] * 7))


def test_grid_nan_rows_where_the_normalization_vanishes():
    window = ((-1.5, -0.5), (-0.5, 0.5))
    rows = vector_field_grid(G_BETA, 0, 1, window, 3)
    # the normalization is (1 + l0)**4 + l1**2 on this plane
    assert rows[4][:4] == (-1.0, 0.0, 0.0, 0.0)
    assert math.isnan(rows[4][4])
    assert sum(math.isnan(row[4]) for row in rows) == 1
    assert_rows_identical(rows, reference_grid(G_BETA, 0, 1, window, 3,
                                               [0.0] * 7))


def test_grid_pinned_slice_is_bit_identical():
    fixed = (0.0, 0.0, 0.03, -0.02, 0.04, 0.01, -0.05)
    window = ((-0.5, 1.5), (-0.5, 0.5))
    rows = vector_field_grid(G_BETA, 0, 1, window, 7, fixed_values=fixed)
    assert_rows_identical(rows, reference_grid(G_BETA, 0, 1, window, 7,
                                               fixed))


def test_grid_validation():
    with pytest.raises(ValueError):
        vector_field_grid(K_BETA, 0, 1, ((0, 1), (0, 1)), 1)
    with pytest.raises(ValueError):
        vector_field_grid(K_BETA, 0, 0, ((0, 1), (0, 1)), 2)
    with pytest.raises(ValueError):
        vector_field_grid(K_BETA, 0, 1, ((0, 1), (0, 1)), 2,
                          fixed_values=[0.0] * 3)


@pytest.mark.parametrize("window", [
    ((-8e307, 8e307), (0.0, 1.0)),      # finite ends, the width overflows
    ((0.0, 1.0), (-math.inf, 0.0)),
    ((math.nan, 1.0), (0.0, 1.0)),
    ((0.0, 1.0), (0.0, math.nan)),
], ids=["overflowing-width", "infinite-end", "nan-low", "nan-high"])
def test_grid_rejects_non_finite_windows(window):
    with pytest.raises(ValueError, match="finite"):
        vector_field_grid(K_BETA, 0, 1, window, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_rejects_non_finite_fixed_values(bad):
    # a pinned NaN would make every row look like the nan sentinel
    fixed = [0.0, 0.0, bad, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="fixed values must be finite"):
        vector_field_grid(G_BETA, 0, 1, ((0.0, 1.0), (0.0, 1.0)), 3,
                          fixed_values=fixed)


# -- exact Jacobian against finite differences ----------------------------


@pytest.mark.parametrize("beta,floor", [(G_BETA, 0.3), (K_BETA, 0.0)],
                         ids=["graphene", "kondo"])
def test_jacobian_matches_central_differences(beta, floor):
    # 100 random points in [-1, 1]^n; points too close to a vanishing
    # normalization are redrawn since the quotient itself blows up there
    rng = random.Random(99)
    step = 1e-6
    n = beta.n
    accepted = 0
    while accepted < 100:
        x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        if abs(beta.denominator.evaluate(x)) <= floor:
            continue
        accepted += 1
        exact = beta.jacobian(x)
        for j in range(n):
            hi = list(x)
            lo = list(x)
            hi[j] += step
            lo[j] -= step
            fhi = beta.evaluate(hi)
            flo = beta.evaluate(lo)
            for i in range(n):
                fd = (fhi[i] - flo[i]) / (2 * step)
                scale = max(1.0, abs(exact[i][j]))
                assert abs(fd - exact[i][j]) <= 1e-5 * scale
