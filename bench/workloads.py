"""The three workloads: their inputs, set-up, rounds and probes.

A round is a fixed list of tasks.  A task runs one or more operations
(a derivation, a battery pass, a grid, a set of trajectories, a box of
Newton seeds, a CLI command) and is timed as a whole; its check runs
afterwards, outside the timing, and returns one reason per operation
that came out wrong.  Every input is drawn from the run's seed.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import hfrg.cli as cli
import hfrg.flows as flows
import hfrg.fock as fock
import hfrg.integration as integration
import hfrg.models as models
import hfrg.rg as rg

import checks

GRAPHENE_PLANE = ((-0.5, 1.5), (-0.5, 0.5))   # the CLI's default window
KONDO_PLANE = ((-1.0, 0.5), (-0.1, 0.15))     # the CLI's default window
QUARTIC_PLANE = ((-0.5, 0.5), (-0.5, 0.5))    # onsite_pair x spin_exchange
CHILD_TIMEOUT = 120


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    units: Callable[[object], int] = lambda out: 1
    operations: int = 1


@dataclass
class Op:
    """A task's outcome: time, work units and operations failed.
    ``wrong`` marks an output that failed its check, as opposed to an
    operation that raised or exited nonzero."""

    kind: str
    seconds: float
    units: int
    attempted: int
    failed: int
    reasons: list = field(default_factory=list)
    wrong: bool = False


def run_tasks(tasks, tracer=None, ref=None):
    """Run the tasks one at a time, then check each output.  With a
    reference clock ``ref``, times are rescaled about once a second to
    the reference machine speed (see run.Reference)."""
    done = []
    unscaled = 0
    for k, task in enumerate(tasks):
        start = time.perf_counter()
        try:
            with tracer.root() if tracer else nullcontext():
                out = task.run()
            error = None
        except Exception as exc:  # a failed operation, reported below
            out, error = None, f"{task.kind}: {exc!r}"
        done.append([task, out, time.perf_counter() - start, error])
        if ref is not None and (ref.due() or k == len(tasks) - 1):
            factor = ref.factor()
            for item in done[unscaled:]:
                item[2] *= factor
            unscaled = len(done)
    ops = []
    for task, out, seconds, error in done:
        if error is None:
            try:
                reasons, units = task.check(out), task.units(out)
            except Exception as exc:  # malformed output the check tripped on
                reasons, units = [f"{task.kind}: check raised {exc!r}"], 0
        else:
            reasons, units = [error] * task.operations, 0
        ops.append(Op(task.kind, seconds, units, task.operations,
                      min(len(reasons), task.operations), reasons,
                      wrong=error is None and bool(reasons)))
    return ops


def run_child(code, root, timeout=CHILD_TIMEOUT):
    """Run ``python -c code`` against the checkout's sources; returns
    (seconds, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                          env=child_env(root), capture_output=True,
                          text=True, timeout=timeout)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return seconds, proc.stdout


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("HFRG_THREADS", None)
    return env


# ------------------------------------------------------------ shared tasks


def derive_task(model, build, keep, point):
    """One map derivation: model construction, the symbolic step and
    serialization, checked against the facts of that model and, for
    graphene, the direct step at ``point``.  The JSON text is left in
    ``keep[model]``."""
    zero = [Fraction(0)] * (7 if model == "graphene" else 2)
    fixed = [zero] + ([[Fraction(1)] + zero[1:]] if model == "graphene"
                      else [])

    def run():
        beta = rg.rg_step(build())
        keep[model] = beta.to_json()
        return beta, keep[model]

    def check(out):
        beta, text = out
        reasons, _ = checks.check_map_text(model, text, point)
        if any(beta.evaluate(p) != p for p in fixed):
            reasons.append(f"{model}: BetaMap.evaluate moves an exact "
                           "fixed point")
        if rg.BetaMap.from_json(text).to_json() != text:
            reasons.append(f"{model}: from_json(to_json()) does not "
                           "round-trip")
        return reasons[:1]

    return Task(f"step_{model}", run, check)


def battery_task(seed):
    """One pass of both oracle batteries.  The integration battery
    takes the run's seed; the thermal battery runs at its own default
    seed, because its ``discontinuity`` lemma fails at about one seed
    in five (see CHANGES.md)."""
    def run():
        return integration.verify_identities(seed) + fock.verify_lemmas()

    return Task("verify", run, lambda out: checks.check_battery(out)[:1])


@dataclass(frozen=True)
class FloatSizes:
    graphene_res: int = 40     # even, so no tick lands on an equilibrium
    kondo_res: int = 150       # 149 steps: no tick on the kondo origin
    basin: int = 10            # basin map is basin x basin starts
    budget: int = 1000         # steps allowed per basin trajectory
    fan: int = 16              # graphene flows
    newton_graphene: int = 20  # one start per l0 stratum
    newton_kondo: int = 5      # kondo box is newton_kondo^2 starts
    samples: int = 6           # grid rows checked in exact arithmetic


EXPLORE = FloatSizes()
PROBE = FloatSizes(graphene_res=12, kondo_res=40, basin=4, budget=1000,
                   fan=4, newton_graphene=20, newton_kondo=3, samples=3)


@dataclass
class Maps:
    """Both derived maps, their exact views and the certified impurity
    equilibrium the float checks compare against."""

    graphene: rg.BetaMap
    kondo: rg.BetaMap
    graphene_exact: checks.ExactMap
    kondo_exact: checks.ExactMap
    star: tuple

    @classmethod
    def from_texts(cls, graphene_text, kondo_text, point):
        exact = {}
        for model, text in (("graphene", graphene_text),
                            ("kondo", kondo_text)):
            reasons, exact[model] = checks.check_map_text(model, text, point)
            if reasons:
                raise ValueError(f"derived {model} map is wrong: {reasons}")
        return cls(rg.BetaMap.from_json(graphene_text),
                   rg.BetaMap.from_json(kondo_text),
                   exact["graphene"], exact["kondo"],
                   checks.certified_impurity_equilibrium(exact["kondo"]))


def _jitter(rng, lo, hi, n, k):
    """A random point in the k-th of n equal strata of [lo, hi]."""
    return lo + (hi - lo) * (k + rng.random()) / n


def _pinned_slice(rng):
    """Graphene couplings l2..l6 pinned to +-U(0.01, 0.05)."""
    return (0.0, 0.0) + tuple(rng.choice((-1, 1)) * rng.uniform(0.01, 0.05)
                              for _ in range(5))


def float_tasks(maps, rng, sizes):
    """The float-layer tasks of one explore round, inputs drawn from
    ``rng``."""
    g, k = maps.graphene, maps.kondo
    g_known = checks.known_equilibria("graphene")
    k_known = checks.known_equilibria("kondo", maps.star)
    tasks = []

    def grid(emap, beta, axes, base, window, res, known):
        sample = rng.sample(range(res * res), sizes.samples)
        return Task(
            "grid",
            lambda: flows.vector_field_grid(beta, axes[0], axes[1], window,
                                            res, fixed_values=base),
            lambda rows: checks.check_grid(rows, emap, axes, base, window,
                                           res, sample, known),
            units=len)

    zero7 = (0.0,) * 7
    pinned = _pinned_slice(rng)
    res = sizes.graphene_res
    tasks.append(grid(maps.graphene_exact, g, (0, 1), zero7, GRAPHENE_PLANE,
                      res, g_known))
    tasks.append(grid(maps.graphene_exact, g, (0, 1), pinned, GRAPHENE_PLANE,
                      res, g_known))
    tasks.append(grid(maps.graphene_exact, g, (1, 2), zero7, QUARTIC_PLANE,
                      res, g_known))
    tasks.append(grid(maps.kondo_exact, k, (0, 1), (0.0, 0.0), KONDO_PLANE,
                      sizes.kondo_res, k_known))

    # basin map: l0 < 0 columns reach the impurity equilibrium, l0 > 0
    # columns spend the budget on the marginal side
    half = sizes.basin // 2
    starts = [(_jitter(rng, -0.9, -0.05, half, a) if side < 0
               else _jitter(rng, 0.02, 0.5, half, a),
               _jitter(rng, -0.08, 0.12, sizes.basin, b))
              for side in (-1, 1) for a in range(half)
              for b in range(sizes.basin)]
    tasks.append(_flow_task(
        k, starts, sizes.budget,
        lambda t: checks.check_kondo_trajectory(
            [p for _, p in t.points], t.termination, sizes.budget,
            maps.star)))

    # starts nearer the origin can leave along the relevant direction
    fan = [(_jitter(rng, 0.4, 1.4, sizes.fan, a),)
           + tuple(rng.uniform(-0.05, 0.05) for _ in range(6))
           for a in range(sizes.fan)]
    tasks.append(_flow_task(
        g, fan, 400,
        lambda t: checks.check_graphene_trajectory(
            [p for _, p in t.points], t.termination, g_known)))

    n = sizes.newton_graphene
    g_seeds = [(_jitter(rng, -0.3, 1.2, n, a),)
               + tuple(rng.uniform(-0.05, 0.05) for _ in range(6))
               for a in range(n)]
    tasks += _newton_tasks(g, maps.graphene_exact, g_seeds, g_known)
    n = sizes.newton_kondo
    k_seeds = [(_jitter(rng, *KONDO_PLANE[0], n, a),
                _jitter(rng, *KONDO_PLANE[1], n, b))
               for a in range(n) for b in range(n)]
    tasks += _newton_tasks(k, maps.kondo_exact, k_seeds, k_known)
    return tasks


def _flow_task(beta, starts, budget, check_one):
    return Task(
        "flow",
        lambda: [flows.iterate_flow(beta, s, budget) for s in starts],
        lambda trajs: [r for t in trajs for r in check_one(t)],
        units=lambda trajs: sum(t.n_steps for t in trajs),
        operations=len(starts))


def _newton_tasks(beta, emap, seeds, known):
    """One task per seed, so that a few slow seeds do not hide the
    typical cost; the last check also asks that the box as a whole
    found every known equilibrium."""
    locations = []

    def check(found, last):
        mine = [r.location for r in found]
        locations.extend(mine)
        reasons = checks.check_residuals(mine, emap)
        if last:
            reasons += checks.check_known(locations, known)
        return reasons[:1]

    return [Task("newton",
                 lambda s=seed: flows.find_fixed_points(beta, [s]),
                 lambda found, last=(k == len(seeds) - 1): check(found, last))
            for k, seed in enumerate(seeds)]


# ---------------------------------------------------------------- workloads


def draws(name, seed, index):
    """The random source of one round: fixed by the run's seed and the
    round's index, so a traced and an untraced pass can share inputs."""
    return random.Random(f"{name}-{seed}-{index}")


class Exact:
    """Both maps derived from scratch every round, and both oracle
    batteries over a fan of seeds; no float work inside the rounds."""

    name = "exact"
    in_children = False
    setup_repeats = 9
    setup_code = ("import hfrg.models as m, hfrg.rg, hfrg.integration, "
                  "hfrg.fock\nm.graphene_model(); m.kondo_model()")

    def __init__(self, seed, root, probe_sizes=PROBE):
        self.seed = seed
        self.root = root
        self.probe_sizes = probe_sizes
        self.last = {}

    def setup_samples(self, ref):
        return [run_child(self.setup_code, self.root)[0] * ref.factor()
                for _ in range(self.setup_repeats)], []

    def round(self, index):
        rng = draws(self.name, self.seed, index)
        point = checks.rational_point(rng)
        return [derive_task("graphene", models.graphene_model, self.last,
                            point),
                derive_task("kondo", models.kondo_model, self.last, point),
                battery_task(rng.randrange(2 ** 32))]

    def probe(self, index):
        """Float tasks on the maps the last round derived, so that the
        rate metrics exist on this workload too; kept out of wall_s."""
        rng = draws("exact-probe", self.seed, index)
        maps = Maps.from_texts(self.last["graphene"], self.last["kondo"],
                               checks.rational_point(rng))
        return float_tasks(maps, rng, self.probe_sizes)


class Explore:
    """Both maps derived once in set-up; rounds are all float work."""

    name = "explore"
    in_children = False
    setup_repeats = 5
    # The child brackets each derivation with the reference loop and
    # reports the time it spent on the loop, which set-up leaves out.
    setup_code = (
        "import json, sys, time\n"
        "t0 = time.perf_counter()\n"
        "sys.path.insert(0, {bench!r})\n"
        "from run import Reference\n"
        "ref = Reference()\n"
        "spent = time.perf_counter() - t0\n"
        "import hfrg.flows as f, hfrg.models as m, hfrg.rg as rg\n"
        "t1 = time.perf_counter()\n"
        "g = rg.rg_step(m.graphene_model()); gt = g.to_json()\n"
        "t2 = time.perf_counter()\n"
        "fg = ref.factor()\n"
        "t3 = time.perf_counter()\n"
        "k = rg.rg_step(m.kondo_model()); kt = k.to_json()\n"
        "t4 = time.perf_counter()\n"
        "fk = ref.factor()\n"
        "spent += time.perf_counter() - t4 + t3 - t2\n"
        "f.vector_field_grid(g, 0, 1, ((-0.5, 1.5), (-0.5, 0.5)), 2)\n"
        "f.vector_field_grid(k, 0, 1, ((-1.0, 0.5), (-0.1, 0.15)), 2)\n"
        "print(json.dumps({{'graphene_s': (t2 - t1) * fg,\n"
        "                   'kondo_s': (t4 - t3) * fk, 'reference_s': spent,\n"
        "                   'graphene': gt, 'kondo': kt}}))\n")

    def __init__(self, seed, root, sizes=EXPLORE):
        self.seed = seed
        self.root = root
        self.sizes = sizes
        self.maps = None

    def setup_samples(self, ref):
        """Time set-up in fresh processes; keep the maps the last one
        derived, and report each derivation as a step sample."""
        samples, steps = [], []
        point = checks.rational_point(draws("explore-setup", self.seed, 0))
        for _ in range(self.setup_repeats):
            seconds, out = run_child(
                self.setup_code.format(bench=str(Path(__file__).parent)),
                self.root)
            payload = json.loads(out)
            samples.append((seconds - payload["reference_s"]) * ref.factor())
            steps.append([
                Op(f"step_{model}", payload[f"{model}_s"], 1, 1,
                   len(reasons), reasons, wrong=bool(reasons))
                for model in ("graphene", "kondo")
                for reasons in [checks.check_map_text(
                    model, payload[model], point)[0][:1]]])
        self.maps = Maps.from_texts(payload["graphene"], payload["kondo"],
                                    point)
        # compile the float views before the first timed round
        self.maps.graphene.evaluate([0.1] * 7)
        self.maps.kondo.evaluate([0.1] * 2)
        return samples, steps

    def round(self, index):
        return float_tasks(self.maps, draws(self.name, self.seed, index),
                           self.sizes)

    def probe(self, index):
        """A battery pass, so that verify_s exists on this workload
        too; kept out of wall_s."""
        rng = draws("explore-probe", self.seed, index)
        return [battery_task(rng.randrange(2 ** 32))]


@dataclass(frozen=True)
class SessionSizes:
    flow_steps: int = 50000
    newton_seeds: int = 5      # the kondo box is newton_seeds^2 starts
    field_res: int = 60
    lattice_res: int = 120
    samples: int = 6


class Session:
    """A figure-making session: CLI commands run one after another,
    each in its own process; every graphene command derives again."""

    name = "session"
    in_children = True
    setup_repeats = 9
    setup_code = "import hfrg.cli"

    def __init__(self, seed, root, sizes=SessionSizes(), in_process=False):
        self.seed = seed
        self.root = root
        self.sizes = sizes
        self.in_process = in_process
        self.star = checks.certified_impurity_equilibrium(
            checks.kondo_closed_form())

    def setup_samples(self, ref):
        return [run_child(self.setup_code, self.root)[0] * ref.factor()
                for _ in range(self.setup_repeats)], []

    def command(self, argv):
        """Run ``hfrg <argv>``; returns (exit code, stdout)."""
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "hfrg.cli", *argv], cwd=self.root,
            env=child_env(self.root), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT)
        return proc.returncode, proc.stdout

    def _task(self, kind, argv, check, units=lambda text: 1):
        def checked(out):
            code, text = out
            if code != 0:
                return [f"hfrg {argv[0]} exited {code}"]
            return check(text)[:1]
        return Task(kind, lambda: self.command(argv), checked,
                    units=lambda out: units(out[1]))

    def round(self, index):
        s = self.sizes
        rng = draws(self.name, self.seed, index)
        flow_start = (rng.uniform(0.01, 0.05), rng.uniform(-0.01, 0.01))
        n = s.newton_seeds
        seeds = [(_jitter(rng, *KONDO_PLANE[0], n, a),
                  _jitter(rng, *KONDO_PLANE[1], n, b))
                 for a in range(n) for b in range(n)]
        field_slice = _pinned_slice(rng)
        sample = rng.sample(range(s.field_res ** 2), s.samples)
        window = (-3.0 - rng.uniform(0.0, 0.5), 3.0 + rng.uniform(0.0, 0.5))
        point = checks.rational_point(rng)
        state = {}

        def beta_check(model):
            def check(text):
                reasons, emap = checks.check_map_text(model, text, point)
                state[model] = None if reasons else emap
                return reasons
            return check

        def needs_map(check):
            def wrapped(text):
                if state.get("graphene") is None:
                    return ["no verified graphene map from `beta` to "
                            "check against"]
                return check(text, state["graphene"])
            return wrapped

        fmt = lambda v: ",".join(repr(float(x)) for x in v)
        known = checks.known_equilibria("graphene")
        k_known = checks.known_equilibria("kondo", self.star)
        return [
            self._task("cli.beta.graphene", ["beta", "graphene"],
                       beta_check("graphene")),
            self._task("cli.beta.kondo", ["beta", "kondo"],
                       beta_check("kondo")),
            self._task("cli.flow",
                       ["flow", "--model", "kondo",
                        f"--start={fmt(flow_start)}",
                        "--steps", str(s.flow_steps)],
                       lambda text: checks.check_cli_flow(
                           text, s.flow_steps, self.star),
                       units=lambda text: s.flow_steps),
            self._task("cli.fixed_points",
                       ["fixed-points", "kondo",
                        "--seeds=" + ";".join(fmt(v) for v in seeds)],
                       lambda text: checks.check_cli_fixed_points(
                           text, seeds, checks.kondo_closed_form(),
                           k_known),
                       units=lambda text: len(seeds)),
            self._task("cli.vector_field",
                       ["vector-field", "--model", "graphene",
                        "--resolution", str(s.field_res),
                        f"--slice={fmt(field_slice)}"],
                       needs_map(lambda text, emap:
                                 checks.check_cli_vector_field(
                                     text, emap, (0, 1), field_slice,
                                     GRAPHENE_PLANE, s.field_res,
                                     sample, known)),
                       units=lambda text: s.field_res ** 2),
            self._task("cli.verify", ["verify", "all"],
                       checks.check_cli_verify),
            self._task("cli.lattice",
                       ["lattice", f"--range-i={fmt(window)}",
                        "--resolution", str(s.lattice_res)],
                       lambda text: checks.check_cli_lattice(
                           text, window, s.lattice_res)),
        ]

    def probe(self, index):
        return []


WORKLOADS = {w.name: w for w in (Exact, Explore, Session)}
