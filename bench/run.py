"""Benchmark of hfrg: one workload per run, a JSON result on the last line.

    python3 bench/run.py --workload exact|explore|session --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/``.  With ``--trace 0`` the result carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run, and the spans
are written to ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# median times, on the machine the bounds were set on, of
# reference_loop() in this process and of CHILD_REFERENCE in a fresh one
REFERENCE_S = 0.0145
REFERENCE_CHILD_S = 0.198
CHILD_REFERENCE = "import numpy\nfrom run import reference_loop\nreference_loop()"

# metric -> (op kinds it is measured on, how): "time" is the median
# time of one operation, "rate" the median over repeats of the units of
# work done per second, "op rate" the median over operations of the
# same (a few slow Newton seeds would otherwise swing the figure)
PER_KIND = {
    "step_graphene_s": ({"step_graphene", "cli.beta.graphene"}, "time"),
    "step_kondo_s": ({"step_kondo", "cli.beta.kondo"}, "time"),
    "verify_s": ({"verify", "cli.verify"}, "time"),
    "grid_points_per_s": ({"grid", "cli.vector_field"}, "rate"),
    "flow_steps_per_s": ({"flow", "cli.flow"}, "rate"),
    "newton_seeds_per_s": ({"newton", "cli.fixed_points"}, "op rate"),
}
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
         "step_graphene_s": "s", "step_kondo_s": "s", "verify_s": "s",
         "grid_points_per_s": "1/s", "flow_steps_per_s": "1/s",
         "newton_seeds_per_s": "1/s"}
PROBE_REPEATS = 9

# per-layer metric -> (tracer layer, "self" time or "calls"), or a counter
LAYER_TIMES = {
    "models.build_s": "models.build", "models.project_s": "models.project",
    "couplings.mul_s": "couplings.mul", "couplings.add_s": "couplings.add",
    "couplings.evaluate_s": "couplings.evaluate",
    "couplings.evaluate_float_s": "couplings.evaluate_float",
    "scalars.mul_s": "scalars.mul", "grassmann.mul_s": "grassmann.mul",
    "grassmann.substitute_s": "grassmann.substitute",
    "grassmann.exp_s": "grassmann.exp",
    "integration.integrate_s": "integration.integrate",
    "integration.battery_s": "integration.battery",
    "rg.step_s": "rg.step", "rg.to_json_s": "rg.to_json",
    "rg.evaluate_s": "rg.evaluate", "rg.jacobian_s": "rg.jacobian",
    "flows.iterate_s": "flows.iterate", "flows.grid_s": "flows.grid",
    "flows.newton_s": "flows.newton", "flows.stability_s": "flows.stability",
    "fock.verify_s": "fock.verify", "cli.main_s": "cli.main",
}
LAYER_CALLS = {
    "models.project_calls": "models.project",
    "couplings.mul_calls": "couplings.mul",
    "couplings.evaluate_float_calls": "couplings.evaluate_float",
    "scalars.mul_calls": "scalars.mul", "grassmann.mul_calls": "grassmann.mul",
    "rg.evaluate_calls": "rg.evaluate", "rg.jacobian_calls": "rg.jacobian",
}
LAYER_COUNTS = ("couplings.mul_term_pairs", "integration.integrate_terms",
                "flows.steps", "flows.abandoned_seeds")
CLI_KINDS = {"cli.beta_s": ("cli.beta.graphene", "cli.beta.kondo"),
             "cli.flow_s": ("cli.flow",),
             "cli.fixed_points_s": ("cli.fixed_points",),
             "cli.vector_field_s": ("cli.vector_field",),
             "cli.verify_s": ("cli.verify",),
             "cli.lattice_s": ("cli.lattice",)}


def reference_loop():
    """Fixed interpreter work, independent of hfrg: Fraction products
    with growing integers, dict updates and float arithmetic."""
    acc = {}
    x = Fraction(1, 3)
    y = 0.5
    for i in range(1200):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + 1
        key = (i % 13, i % 11)
        acc[key] = acc.get(key, 0) + x.denominator % 1009
        y = y * 1.0000001 + (i % 3) * 0.25
    for i in range(60000):
        y = y * 0.999999 + i * 1e-9
    return y, acc


class Reference:
    """The machine's speed, sampled between units of work.

    The shared host the bounds were set on changes speed by up to a
    factor of two within minutes, and every timing moves with it.  The
    reference is sampled between tasks, at most once per ``interval``
    seconds, and around each set-up child; the work between two samples
    is scaled by the nominal time over their mean.  Times then read as
    seconds on a machine that runs the reference in its nominal time,
    and a drift common to both cancels.  Work in this process is
    referred to reference_loop() here; work in child processes (CLI
    commands, set-up) to a fresh interpreter that imports NumPy and runs
    the loop, since their start-up drifts apart from the loop.
    """

    def __init__(self, enabled=True, child=False, interval=1.0):
        self.enabled = enabled
        self.child = child
        self.interval = interval
        self.nominal = REFERENCE_CHILD_S if child else REFERENCE_S
        self.factors = []
        self.last = self._sample() if enabled else None
        self.stamp = time.perf_counter()

    def _sample(self):
        if self.child:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", CHILD_REFERENCE],
                           env=dict(os.environ, PYTHONPATH=str(ROOT / "bench")),
                           check=True, timeout=60)
            return time.perf_counter() - start
        times = []
        for _ in range(3):
            start = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def due(self):
        """Whether ``interval`` seconds have passed since the last
        sample."""
        return (self.enabled
                and time.perf_counter() - self.stamp >= self.interval)

    def factor(self):
        """The scale for the work done since the previous call."""
        if not self.enabled:
            return 1.0
        now = self._sample()
        factor = 2 * self.nominal / (self.last + now)
        self.last = now
        self.stamp = time.perf_counter()
        self.factors.append(factor)
        return factor


def _rate(ops, kinds):
    chosen = [op for op in ops if op.kind in kinds and op.failed == 0]
    seconds = sum(op.seconds for op in chosen)
    return sum(op.units for op in chosen) / seconds if seconds else None


def end_to_end(groups, rounds, setup, peak_rss_mb):
    """Medians over the repeats of a run.  ``groups`` are rounds, probe
    repeats and set-up samples; wall_s is the median round."""
    metrics = {"setup_s": statistics.median(setup),
               "wall_s": statistics.median(_wall(ops) for ops in rounds),
               "peak_rss_mb": peak_rss_mb}
    for name, (kinds, how) in PER_KIND.items():
        if how == "time":
            values = [op.seconds for ops in groups for op in ops
                      if op.kind in kinds and op.failed == 0]
        elif how == "op rate":
            values = [op.units / op.seconds for ops in groups for op in ops
                      if op.kind in kinds and op.failed == 0]
        else:
            values = [r for r in (_rate(ops, kinds) for ops in groups)
                      if r is not None]
        metrics[name] = statistics.median(values) if values else None
    return metrics


def per_layer(tracer, traced, untraced, cli_rounds, startup):
    """Per-layer self times and counts, as means per traced pass."""
    n = len(traced)
    metrics = {}
    for name, layer in LAYER_TIMES.items():
        metrics[name] = tracer.self_time.get(layer, 0.0) / n
    for name, layer in LAYER_CALLS.items():
        metrics[name] = tracer.calls.get(layer, 0) / n
    for name in LAYER_COUNTS:
        metrics[name] = tracer.counts.get(name, 0) / n
    for name, kinds in CLI_KINDS.items():
        metrics[name] = statistics.median(
            _wall(op for op in ops if op.kind in kinds)
            for ops in cli_rounds) if cli_rounds else 0.0
    metrics["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    traced_wall = statistics.fmean(_wall(ops) for ops in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.harness_s"] = tracer.harness_s / n
    metrics["trace.overhead_s"] = traced_wall - statistics.fmean(
        _wall(ops) for ops in untraced)
    return metrics


def _wall(ops):
    return sum(op.seconds for op in ops)


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def run(workload_name, seed, seconds, trace, make=None):
    """Run one workload; returns the result object."""
    from spans import Tracer
    from workloads import WORKLOADS, Session, run_tasks

    wl = (make or WORKLOADS[workload_name])(seed, ROOT)
    # per-layer figures are raw: they are compared within one run
    setup, setup_groups = wl.setup_samples(
        Reference(enabled=not trace, child=True))
    ref = Reference(enabled=not trace, child=wl.in_children,
                    interval=2.0 if wl.in_children else 1.0)
    ops_seen = [op for ops in setup_groups for op in ops]

    if not trace:
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(run_tasks(wl.round(len(rounds)), ref=ref))
        probes = [run_tasks(wl.probe(i), ref=ref)
                  for i in range(PROBE_REPEATS)]
        probes = [ops for ops in probes if ops]
        who = (resource.RUSAGE_CHILDREN if workload_name == "session"
               else resource.RUSAGE_SELF)
        peak = resource.getrusage(who).ru_maxrss / 1024
        metrics = end_to_end(rounds + probes + setup_groups, rounds, setup,
                             peak)
        ops_seen += [op for ops in rounds + probes for op in ops]
        print(f"machine speed: raw time = reported time x "
              f"{1 / statistics.median(ref.factors):.4f} in rounds (median "
              f"of {len(ref.factors)} reference samples)")
    else:
        cli_rounds, startup = [], []
        if workload_name == "session":
            # the cli.* latencies come from untraced subprocess runs;
            # the traced passes call hfrg.cli.main in this process
            startup = setup
            cli_rounds = [run_tasks(wl.round(0))]
            ops_seen += cli_rounds[0]
            wl = Session(seed, ROOT, wl.sizes, in_process=True)
        tracer = Tracer()
        traced, untraced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            index = len(traced)
            untraced.append(run_tasks(wl.round(index))
                            + run_tasks(wl.probe(index)))
            with tracer.installed():
                traced.append(run_tasks(wl.round(index), tracer)
                              + run_tasks(wl.probe(index), tracer))
        ops_seen += [op for ops in untraced + traced for op in ops]
        metrics = per_layer(tracer, traced, untraced, cli_rounds, startup)
        tracer.write(ROOT / ".bench_out" /
                     f"trace-{workload_name}-{seed}.json")

    attempted = sum(op.attempted for op in ops_seen)
    failed = sum(op.failed for op in ops_seen)
    for op in ops_seen:
        for reason in op.reasons[:3]:
            sys.stderr.write(f"FAILED {op.kind}: {reason}\n")
    missing = [name for name, value in metrics.items() if value is None]
    if missing:
        raise RuntimeError(f"no successful operation measured {missing}")
    return {
        "correct": not any(op.wrong for op in ops_seen),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact", "explore", "session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hfrg" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no hfrg sources under {ROOT / 'src'}; "
                         "run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
