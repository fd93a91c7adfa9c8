"""References the benchmark compares outputs against, and the checks.

Every reference here comes from the mathematics of the two models or
from exact ``Fraction`` arithmetic on a map's coefficients, never from
the float path being timed and never from a pasted copy of program
output.  Each check returns a list of reasons, one per wrong
operation; an empty list means the output is right.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

FLOAT_TOL = 1e-9          # grid directions, log10 magnitudes, flow ends
NEWTON_RESIDUAL = Fraction(1, 10 ** 10)
ROOT_WIDTH = Fraction(1, 10 ** 30)

# Field count of each graphene operator: hopping, four quartic
# couplings, assisted hopping, full occupancy.  With replication 8 and
# field scale 1/2 per level, power counting gives the origin Jacobian
# diagonal 2**(3 - fields).
GRAPHENE_FIELDS = (2, 4, 4, 4, 4, 6, 8)
# The stored graphene numerators hold 887 monomials (see the README's
# term-count analysis, 20 + 21 + 33 + 33 + 33 + 141 + 606).
GRAPHENE_TERMS = 887


@dataclass(frozen=True)
class ExactMap:
    """A coupling map read from its JSON form into plain dictionaries
    (exponent tuple -> Fraction), evaluated by this module alone."""

    numerators: tuple
    denominator: dict
    powers: tuple

    @classmethod
    def from_json_obj(cls, obj):
        def poly(p):
            return {tuple(e): Fraction(int(num), int(den))
                    for e, num, den in p["terms"]}
        return cls(tuple(poly(p) for p in obj["numerators"]),
                   poly(obj["denominator"]),
                   tuple(obj["denominator_powers"]))

    @classmethod
    def from_json(cls, text):
        return cls.from_json_obj(json.loads(text))

    @property
    def n(self):
        return len(self.numerators)

    def image(self, point):
        point = [Fraction(v) for v in point]
        den = evaluate_poly(self.denominator, point)
        return [evaluate_poly(num, point) / den ** p
                for num, p in zip(self.numerators, self.powers)]

    def residual(self, point):
        """max_i |K(p)_i - p_i|, exactly."""
        point = [Fraction(v) for v in point]
        return max(abs(a - b) for a, b in zip(self.image(point), point))


def evaluate_poly(terms, point):
    rows = [[Fraction(1)] for _ in point]
    total = Fraction(0)
    for exps, c in terms.items():
        v = c
        for i, k in enumerate(exps):
            if k:
                row = rows[i]
                while len(row) <= k:
                    row.append(row[-1] * point[i])
                v *= row[k]
        total += v
    return total


def _poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _axis(terms):
    """Restriction to the first coupling axis, as {power: coefficient}."""
    return {e[0]: c for e, c in terms.items() if not any(e[1:])}


# ------------------------------------------------------------- the maps


def kondo_closed_form():
    """Criterion 1: c = 1 + 3/2 l0^2 + 9 l1^2, N0 = l0 + 3 l0 l1 - l0^2,
    N1 = l1/2 + l0^2/8, each numerator over one power of c."""
    return ExactMap(
        numerators=({(1, 0): Fraction(1), (1, 1): Fraction(3),
                     (2, 0): Fraction(-1)},
                    {(0, 1): Fraction(1, 2), (2, 0): Fraction(1, 8)}),
        denominator={(0, 0): Fraction(1), (2, 0): Fraction(3, 2),
                     (0, 2): Fraction(9)},
        powers=(1, 1))


def check_kondo_map(emap):
    ref = kondo_closed_form()
    if (emap.numerators, emap.denominator, emap.powers) != \
            (ref.numerators, ref.denominator, ref.powers):
        return ["kondo map differs from the criterion-1 closed form"]
    return []


def check_graphene_map(emap):
    """Facts of the honeycomb map that do not depend on how it was
    derived; one reason per fact that fails."""
    reasons = []
    n = len(GRAPHENE_FIELDS)
    if emap.n != n:
        return [f"graphene map has {emap.n} couplings, not {n}"]
    count = sum(len(p) for p in emap.numerators)
    if count != GRAPHENE_TERMS:
        reasons.append(f"graphene map has {count} numerator terms, "
                       f"not {GRAPHENE_TERMS}")
    # on the l0 axis the map is 2t(1+t)^3 / (1+t)^4 = 2t/(1+t)
    if _axis(emap.denominator) != {k: comb(4, k) for k in range(5)}:
        reasons.append("denominator on the l0 axis is not (1+t)^4")
    if emap.powers[0] != 1 or _axis(emap.numerators[0]) != \
            {k: 2 * comb(3, k - 1) for k in range(1, 5)}:
        reasons.append("l0 numerator on the l0 axis is not 2t(1+t)^3")
    if any(_axis(p) for p in emap.numerators[1:]):
        reasons.append("a quartic or higher numerator survives on the "
                       "l0 axis")
    zero = [Fraction(0)] * n
    e0 = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for name, point in (("origin", zero), ("e0", e0)):
        if emap.image(point) != point:
            reasons.append(f"{name} is not an exact fixed point")
    # with N(0) = 0 and D(0) = 1 the origin Jacobian is the linear part
    if emap.denominator.get((0,) * n) != 1:
        reasons.append("normalization at the origin is not 1")
    for i, fields in enumerate(GRAPHENE_FIELDS):
        unit = tuple(1 if j == i else 0 for j in range(n))
        want = Fraction(2) ** (3 - fields)
        if emap.numerators[i].get(unit, 0) != want:
            reasons.append(f"origin Jacobian entry ({i},{i}) is not "
                           f"2^(3-{fields})")
    half_l1 = {tuple(1 if j == 1 else 0 for j in range(n)): Fraction(1, 2)}
    if _poly_mul(half_l1, emap.denominator) != emap.numerators[1]:
        reasons.append("numerator[1] != (l1/2) * normalization")
    return reasons


def graphene_step_at(point):
    """The honeycomb step at one rational coupling vector, with
    Fraction coefficients throughout: exp of the interaction, the field
    split, Gaussian integration, then replication * log of the result
    projected onto the operator basis.  It shares the Grassmann and
    integration layers with the program's step, but not the symbolic
    coupling polynomials or the log series over powers of c0."""
    from hfrg import grassmann, integration, models

    spec = models.graphene_model()
    v = grassmann.GrassmannPolynomial()
    for c, poly in zip(point, spec.basis.polys):
        v = v + poly.scale(Fraction(c))
    w = integration.integrate_polynomial(
        spec.universe, spec.propagator,
        grassmann.exp_truncated(v).substitute(spec.images[0]))
    _, log = grassmann.log_truncated(w)
    coeffs, residual = models.project_onto_basis(
        log.scale(Fraction(spec.replication)), spec.basis)
    if residual.terms:
        raise ValueError("the step left the operator basis")
    return list(coeffs)


def check_graphene_point(emap, point):
    """The map at ``point`` equals the step computed there directly;
    any single changed coefficient shows at a generic point."""
    if emap.image(point) != graphene_step_at(point):
        where = ", ".join(str(v) for v in point)
        return [f"graphene map differs from the direct step at ({where})"]
    return []


def check_map_text(model, text, point):
    """Facts of a map given as the JSON text ``BetaMap.to_json`` and
    ``hfrg beta`` write; for graphene also the direct step at the
    rational ``point``.  Returns (reasons, the map read)."""
    try:
        emap = ExactMap.from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{model} map JSON unreadable: {exc}"], None
    if model == "kondo":
        return check_kondo_map(emap), emap
    return check_graphene_map(emap) + check_graphene_point(emap, point), emap


def rational_point(rng, n=7):
    """Couplings k/1024 with 1 <= |k| <= 32.  Every monomial is non-zero
    there, so a changed coefficient always shows, and the normalization
    stays near 1; at |l| = 1/4 it can vanish exactly."""
    return tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 32), 1024)
                 for _ in range(n))


# ------------------------------------------------------ the impurity root


def impurity_cubic(x):
    return 4 - 19 * x - 22 * x ** 2 - 107 * x ** 3


def impurity_point(x):
    """The equilibrium candidate on the resultant curve, x = 3*l1."""
    return (-x * (1 + 5 * x) / (1 - 4 * x), x / 3)


def impurity_root_bracket():
    """Bracket the only real root of the impurity cubic by exact
    bisection; f(0) = 4 > 0 > f(1/4)."""
    lo, hi = Fraction(0), Fraction(1, 4)
    while hi - lo > ROOT_WIDTH:
        mid = (lo + hi) / 2
        if impurity_cubic(mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def certified_impurity_equilibrium(kondo_map):
    """The non-trivial kondo equilibrium as floats, after checking that
    both components of K(p) - p change sign across the bracket."""
    lo, hi = impurity_root_bracket()
    ends = []
    for x in (lo, hi):
        p = impurity_point(x)
        ends.append([a - b for a, b in zip(kondo_map.image(p), p)])
    for i in range(2):
        if not ends[0][i] * ends[1][i] < 0:
            raise ValueError(f"component {i} of K(p) - p keeps its sign "
                             "across the root bracket")
    return tuple(float(v) for v in impurity_point((lo + hi) / 2))


def known_equilibria(model, star=None):
    if model == "graphene":
        return ((0.0,) * 7, (1.0,) + (0.0,) * 6)
    return ((0.0, 0.0), star)


def _dist(a, b):
    return max(abs(x - y) for x, y in zip(a, b))


# ----------------------------------------------------------------- grids


def grid_ticks(lo, hi, resolution):
    return [lo + (hi - lo) * k / (resolution - 1) for k in range(resolution)]


def check_grid(rows, emap, axes, base, window, resolution, sample, known):
    """A displacement grid: its shape, a sample of rows against the
    exact map, and sign flips around each known equilibrium that lies
    in the plane.  ``sample`` lists row indices to check exactly."""
    i, j = axes
    if len(rows) != resolution * resolution:
        return [f"grid has {len(rows)} rows, not {resolution ** 2}"]
    ticks_i = grid_ticks(*window[0], resolution)
    ticks_j = grid_ticks(*window[1], resolution)
    for k, row in enumerate(rows):
        if len(row) != 5 or not all(math.isfinite(v) for v in row):
            return [f"grid row {k} is malformed or non-finite: {row}"]
        a, b = divmod(k, resolution)
        if abs(row[0] - ticks_i[a]) > 1e-12 or \
                abs(row[1] - ticks_j[b]) > 1e-12:
            return [f"grid row {k} sits at {row[:2]}, not on the grid"]
    for k in sample:
        li, lj, di_dir, dj_dir, log_mag = rows[k]
        point = [Fraction(v) for v in base]
        point[i], point[j] = Fraction(li), Fraction(lj)
        image = emap.image(point)
        di, dj = float(image[i] - point[i]), float(image[j] - point[j])
        mag = math.hypot(di, dj)
        if abs(di / mag - di_dir) > FLOAT_TOL \
                or abs(dj / mag - dj_dir) > FLOAT_TOL \
                or abs(math.log10(mag) - log_mag) > FLOAT_TOL:
            return [f"grid row {k} at ({li}, {lj}) differs from the "
                    "exact map"]
    for eq in known:
        if any(abs(eq[m] - base[m]) > 0 for m in range(len(base))
               if m not in axes):
            continue
        for axis, ticks, along in ((0, ticks_i, 2), (1, ticks_j, 3)):
            if not _flip_lines(rows, resolution, axis, ticks,
                               eq[axes[axis]], along):
                return [f"no sign flip brackets the equilibrium {eq} "
                        f"along axis {axes[axis]}"]
    return []


def _flip_lines(rows, resolution, axis, ticks, value, column):
    """Count grid lines along ``axis`` whose displacement component
    changes sign between the nearest ticks below and above ``value``
    (a tick exactly at ``value`` is stepped over)."""
    below = [k for k in range(resolution) if ticks[k] < value]
    above = [k for k in range(resolution) if ticks[k] > value]
    if not below or not above:
        return 0
    lo, hi = below[-1], above[0]
    flips = 0
    for other in range(resolution):
        if axis == 0:
            before = rows[lo * resolution + other][column]
            after = rows[hi * resolution + other][column]
        else:
            before = rows[other * resolution + lo][column]
            after = rows[other * resolution + hi][column]
        if before * after < 0:
            flips += 1
    return flips


# ----------------------------------------------------------------- flows


def check_kondo_trajectory(points, termination, budget, star):
    """Starts with l0 < 0 reach the non-trivial equilibrium; starts
    with l0 > 0 spend the budget on the marginal side, l0 positive and
    falling."""
    start = points[0]
    if start[0] < 0:
        if termination != "converged" or _dist(points[-1], star) > FLOAT_TOL:
            return [f"kondo flow from {start} ended {termination} at "
                    f"{points[-1]}, not at the impurity equilibrium"]
        return []
    if termination != "max steps" or len(points) != budget + 1:
        return [f"kondo flow from {start} ended {termination} after "
                f"{len(points) - 1} of {budget} steps"]
    if not 0 < points[-1][0] < points[-2][0]:
        return [f"kondo flow from {start} does not end with l0 positive "
                "and falling"]
    return []


def check_graphene_trajectory(points, termination, known):
    if termination != "converged" or \
            min(_dist(points[-1], eq) for eq in known) > FLOAT_TOL:
        return [f"graphene flow from {points[0]} ended {termination} at "
                f"{points[-1][:2]}..., not at an exact equilibrium"]
    return []


def check_residuals(locations, emap):
    """Every location is an exact near-zero of K(p) - p."""
    return [f"Newton location {loc} has exact residual above 1e-10"
            for loc in locations if emap.residual(loc) > NEWTON_RESIDUAL]


def check_known(locations, known):
    """The known exact equilibria are among the locations."""
    return [f"Newton missed the exact equilibrium {eq}" for eq in known
            if not any(_dist(loc, eq) <= FLOAT_TOL for loc in locations)]


def check_newton(locations, emap, known):
    return check_residuals(locations, emap) + check_known(locations, known)


# --------------------------------------------------------------- batteries


def check_battery(records):
    if not records:
        return ["battery returned no records"]
    return [f"battery record {r.get('lemma')} failed"
            for r in records
            if r.get("passed") is not True
            or not r["max_error"] <= r["tolerance"]]


# ---------------------------------------------------------- CLI outputs


def parse_csv(text, header):
    """Split CSV output into (comment lines, float rows) after checking
    the header row."""
    comments, rows, seen = [], [], False
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif not seen:
            if line != header:
                raise ValueError(f"header {line!r}, expected {header!r}")
            seen = True
        else:
            rows.append(tuple(float(v) for v in line.split(",")))
    if not seen:
        raise ValueError("no header row")
    return comments, rows


def check_cli_flow(text, steps, star):
    try:
        comments, rows = parse_csv(text, "h,l0,l1")
        last = comments[-1]
    except (ValueError, IndexError) as exc:
        return [f"flow output unreadable: {exc}"]
    if [r[0] for r in rows] != [-k for k in range(len(rows))]:
        return ["flow output scale indices are not 0, -1, -2, ..."]
    termination = last.removeprefix("# termination: ").rsplit(" after ", 1)
    if len(termination) != 2 or termination[1] != f"{len(rows) - 1} steps":
        return [f"flow output ends with {last!r}"]
    return check_kondo_trajectory([r[1:] for r in rows], termination[0],
                                  steps, star)


def check_cli_fixed_points(text, seeds, emap, known):
    try:
        payload = json.loads(text)
        locations = [tuple(fp["location"]) for fp in payload["fixed_points"]]
        abandoned = payload["abandoned_seeds"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"fixed-points output unreadable: {exc}"]
    if len(locations) + len(abandoned) > len(seeds):
        return ["fixed-points reports more outcomes than seeds"]
    return check_newton(locations, emap, known)


def check_cli_vector_field(text, emap, axes, base, window, resolution,
                           sample, known):
    try:
        _, rows = parse_csv(text, "li,lj,dir_i,dir_j,log10_mag")
    except ValueError as exc:
        return [f"vector-field output unreadable: {exc}"]
    return check_grid(rows, emap, axes, base, window, resolution, sample,
                      known)


def check_cli_verify(text):
    try:
        records = json.loads(text)
    except ValueError as exc:
        return [f"verify output unreadable: {exc}"]
    return check_battery(records)


def honeycomb_omega(kx, ky):
    """Nearest-neighbour structure factor of the honeycomb lattice."""
    return 1 + 2 * cmath.exp(-1.5j * kx) * math.cos(math.sqrt(3) / 2 * ky)


def check_cli_lattice(text, window, resolution):
    try:
        comments, rows = parse_csv(
            text, "kx,ky,re_omega,im_omega,band_minus,band_plus")
        fermi = [tuple(float(v) for v in c.split(": ")[1].split(","))
                 for c in comments if c.startswith("# fermi_")]
    except (ValueError, IndexError) as exc:
        return [f"lattice output unreadable: {exc}"]
    if len(rows) != resolution * resolution or len(fermi) != 2:
        return [f"lattice output has {len(rows)} rows and {len(fermi)} "
                "Fermi points"]
    for kf in fermi:
        if abs(honeycomb_omega(*kf)) > 1e-12:
            return [f"|omega| does not vanish at the Fermi point {kf}"]
    ticks = grid_ticks(*window, resolution)
    for k, (kx, ky, re, im, minus, plus) in enumerate(rows):
        a, b = divmod(k, resolution)
        w = honeycomb_omega(ticks[a], ticks[b])
        if (abs(kx - ticks[a]) > 1e-12 or abs(ky - ticks[b]) > 1e-12
                or abs(complex(re, im) - w) > 1e-12
                or minus != -plus or not 0 <= plus <= 3
                or abs(plus - abs(w)) > 1e-12):
            return [f"lattice row {k} is wrong: {rows[k]}"]
    return []
