"""Tests of the benchmark itself: each workload at a reduced size, the
traced mode, and each check fed a wrong output.

    PYTHONPATH=src python -m pytest -q bench/tests

They sit outside the package's ``testpaths``, so the package's own
test run does not collect them.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hfrg import models, rg  # noqa: E402

# 39 kondo intervals put a tick exactly on l0 = 0, which the bracket
# check has to step over
TINY = workloads.FloatSizes(graphene_res=10, kondo_res=40, basin=2,
                            budget=200, fan=2, newton_graphene=20,
                            newton_kondo=3, samples=2)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def maps():
    g = rg.rg_step(models.graphene_model())
    k = rg.rg_step(models.kondo_model())
    point = checks.rational_point(random.Random(0))
    return workloads.Maps.from_texts(g.to_json(), k.to_json(), point)


def small(cls, **kwargs):
    def make(seed, root):
        wl = cls(seed, root, **kwargs)
        wl.setup_repeats = 1
        return wl
    return make


SMALL = {
    "exact": small(workloads.Exact, probe_sizes=TINY),
    "explore": small(workloads.Explore, sizes=TINY),
    "session": small(workloads.Session, sizes=workloads.SessionSizes(
        flow_steps=200, newton_seeds=3, field_res=6, lattice_res=5,
        samples=2)),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_runs_clean(name):
    result = run.run(name, 3, 0, False, make=SMALL[name])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["exact", "session"])
def test_traced_run_reports_every_layer(name):
    result = run.run(name, 4, 0, True, make=SMALL[name])
    assert result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    # self times of the layers plus the harness add up to the traced wall
    layers = sum(metrics[k] for k in run.LAYER_TIMES) \
        + metrics["trace.harness_s"]
    assert layers == pytest.approx(metrics["trace.wall_s"], rel=1e-3)
    assert (ROOT / ".bench_out" / f"trace-{name}-4.json").is_file()


# ------------------------------------------- each check catches a wrong output


def _changed(emap, i, exps, delta):
    nums = [dict(p) for p in emap.numerators]
    nums[i][exps] = nums[i].get(exps, 0) + delta
    return checks.ExactMap(tuple(nums), emap.denominator, emap.powers)


def test_map_with_one_coefficient_changed(maps):
    point = checks.rational_point(random.Random(1))
    assert checks.check_graphene_map(maps.graphene_exact) == []
    assert checks.check_graphene_point(maps.graphene_exact, point) == []
    # a coefficient none of the structural facts covers
    wrong = _changed(maps.graphene_exact, 5, (0, 0, 0, 1, 2, 1, 0),
                     Fraction(1))
    assert checks.check_graphene_point(wrong, point)
    # one the facts do cover: the origin Jacobian entry of l2
    wrong = _changed(maps.graphene_exact, 2, (0, 0, 1, 0, 0, 0, 0),
                     Fraction(1, 7))
    assert checks.check_graphene_map(wrong)
    assert checks.check_kondo_map(maps.kondo_exact) == []
    wrong = _changed(maps.kondo_exact, 1, (2, 0), Fraction(1, 100))
    assert checks.check_kondo_map(wrong)


def test_battery_record_marked_failed():
    records = [{"lemma": "a", "tolerance": 0.0, "max_error": 0.0,
                "passed": True},
               {"lemma": "b", "tolerance": 1e-6, "max_error": 1e-9,
                "passed": True}]
    assert checks.check_battery(records) == []
    records[1]["passed"] = False
    assert len(checks.check_battery(records)) == 1
    records[1]["passed"] = True
    records[1]["max_error"] = 1e-3     # a verdict its own numbers refute
    assert len(checks.check_battery(records)) == 1


def test_truncated_cli_output():
    session = workloads.Session(5, ROOT, workloads.SessionSizes(
        flow_steps=300, newton_seeds=3, field_res=6, lattice_res=5,
        samples=2), in_process=True)
    tasks = session.round(0)
    outputs = {task.kind: task.run() for task in tasks}
    for task in tasks:
        assert task.check(outputs[task.kind]) == [], task.kind
    for task in tasks:
        code, text = outputs[task.kind]
        cut = (code, text[:len(text) // 2])
        assert task.check(cut), f"{task.kind} accepted a truncated output"
        assert task.check((1, text)), f"{task.kind} accepted exit code 1"


def test_newton_location_moved(maps):
    known = checks.known_equilibria("kondo", maps.star)
    assert checks.check_newton(list(known), maps.kondo_exact, known) == []
    moved = [known[0], (known[1][0] + 1e-6, known[1][1])]
    reasons = checks.check_newton(moved, maps.kondo_exact, known)
    assert len(reasons) == 2       # a large residual and a missed root
    g_known = checks.known_equilibria("graphene")
    moved = [g_known[0], (1.0 + 1e-6,) + g_known[1][1:]]
    assert checks.check_newton(moved, maps.graphene_exact, g_known)


def test_grid_and_flow_checks_catch_wrong_rows(maps):
    tasks = workloads.float_tasks(maps, random.Random(2), TINY)
    for task in tasks:
        out = task.run()
        assert task.check(out) == [], task.kind
        if task.kind == "grid":
            shifted = [row[:4] + (row[4] + 1e-6,) for row in out]
            assert task.check(shifted)
        elif task.kind == "flow":
            traj = out[0]
            bent = replace(traj, termination="diverged")
            assert task.check([bent] + list(out[1:]))


def test_impurity_root_is_certified():
    lo, hi = checks.impurity_root_bracket()
    assert hi - lo <= checks.ROOT_WIDTH
    assert checks.impurity_cubic(lo) > 0 > checks.impurity_cubic(hi)
    star = checks.certified_impurity_equilibrium(checks.kondo_closed_form())
    assert abs(checks.impurity_cubic(Fraction(star[1]) * 3)) < 1e-14


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
