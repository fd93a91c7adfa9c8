"""Command-line interface: outputs, config handling, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from hfrg import cli, flows, fock, integration, models, rg
from hfrg.flows import vector_field_grid
from hfrg.models import kondo_model
from hfrg.rg import rg_step, shipped_map

KONDO_STAR = (-0.7807256660704317, 0.05292875274036917)


def run(argv):
    return cli.main(argv)


def test_beta_writes_exact_map_and_term_counts(tmp_path, capsys):
    out = tmp_path / "beta.json"
    assert run(["beta", "kondo", "--output", str(out)]) == 0
    assert out.read_text() == rg_step(kondo_model()).to_json() + "\n"
    counts = capsys.readouterr().out.splitlines()
    assert counts == [
        "l0: 3 terms",
        "l1: 2 terms",
        "denominator: 3 terms",
        "total: 5 numerator terms",
    ]


def test_beta_stdout_json_with_counts_on_stderr(capsys):
    assert run(["beta", "kondo"]) == 0
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    assert obj["model"] == "kondo"
    assert "total: 5 numerator terms" in captured.err


def test_unknown_model_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        run(["beta", "nosuch"])
    assert err.value.code == 2


def test_flow_csv_reaches_interacting_fixed_point(tmp_path):
    out = tmp_path / "traj.csv"
    assert run(["flow", "--model", "kondo", "--start=-0.01,0",
                "--steps", "500", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h,l0,l1"
    assert lines[-1] == "# termination: converged after 161 steps"
    rows = [line.split(",") for line in lines[1:-1]]
    scales = [int(r[0]) for r in rows]
    assert scales == list(range(0, -162, -1))
    final = tuple(float(v) for v in rows[-1][1:])
    assert max(abs(a - b) for a, b in zip(final, KONDO_STAR)) < 1e-6


def test_flow_json_payload(tmp_path):
    out = tmp_path / "traj.json"
    assert run(["flow", "--model", "kondo", "--start", "0.1,0",
                "--steps", "20", "--format", "json",
                "--output", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["model"] == "kondo"
    assert obj["coupling_names"] == ["l0", "l1"]
    assert obj["points"][0] == [0, 0.1, 0.0]
    assert obj["steps"] == len(obj["points"]) - 1
    assert obj["termination"] in ("max steps", "converged")


def test_flow_reads_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# flow demo\n"
        "\n"
        "model = kondo\n"
        "start = -0.01,0\n"
        "steps = 50\n")
    out = tmp_path / "traj.csv"
    assert run(["flow", str(cfg), "--steps", "10",
                "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 11 + 1
    assert lines[-1].endswith("after 10 steps")


@pytest.mark.parametrize("content,fragment", [
    ("model kondo\n", "expected key=value"),
    ("fuel = high\n", "unknown field 'fuel'"),
    ("model = kondo\nstart = a,b\n", "field 'start'"),
    ("model = kondo\nstart = 0.1,0,0\n", "expected 2 entries"),
    ("start = 0.1,0\n", "field 'model'"),
    ("model = kondo\n", "field 'start'"),
    ("model = kondo\nstart = 0.1,0\nsteps = 0\n", "at least 1"),
    # open() rejects a path with a NUL byte with ValueError, not OSError
    ("model = kondo\nstart = 0.1,0\noutput = a\0b\n", "cannot write a"),
])
def test_malformed_config_exits_three(tmp_path, capsys, content, fragment):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(content)
    assert run(["flow", str(cfg)]) == 3
    assert fragment in capsys.readouterr().err


def test_config_error_reports_line_number(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model = kondo\nstart = 0.1,0\nresolution = soon\n")
    assert run(["vector-field", str(cfg)]) == 3
    assert f"{cfg}:3" in capsys.readouterr().err


@pytest.mark.parametrize("command, field, value", [
    ("flow", "start", "a,b"),
    ("flow", "steps", "soon"),
    ("flow", "format", "xml"),
    ("vector-field", "axes", "0,2"),
    ("vector-field", "resolution", "1"),
    ("vector-field", "range_i", "1,0"),
    ("vector-field", "range_j", "0,nan"),
    ("vector-field", "slice", "0.1"),
])
def test_every_config_field_reports_its_line(tmp_path, capsys, command,
                                             field, value):
    entries = {"model": "kondo", "start": "0.1,0", field: value}
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    line = list(entries).index(field) + 1
    assert run([command, str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {cfg}:{line}: "
                                   f"field {field!r}: ")


def test_undecodable_config_file_exits_three(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"model = kondo\nstart = \xff\n")
    assert run(["flow", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith(
        f"config error: cannot read config file {cfg}: ")


def _refuse(*args, **kwargs):
    raise AssertionError("worked before checking --output")


def _refuse_all_work(monkeypatch):
    """Make every battery, derivation and float computation raise."""
    for owner, name in [(fock, "verify_lemmas"),
                        (integration, "verify_identities"),
                        (rg, "verify_shipped_maps"), (rg, "rg_step"),
                        (flows, "iterate_flow"),
                        (flows, "find_fixed_points"),
                        (flows, "vector_field_grid"), (models, "omega")]:
        monkeypatch.setattr(owner, name, _refuse)


@pytest.mark.parametrize("argv", [
    ["beta", "kondo"],
    ["flow", "--model", "kondo", "--start=0.1,0", "--steps", "2"],
    ["fixed-points", "kondo", "--seeds=0,0"],
    ["vector-field", "--model", "kondo", "--resolution", "2"],
    ["verify", "integration"],
    ["lattice", "--resolution", "2"],
    ["verify", "all"],
    ["verify", "maps"],
])
def test_unwritable_output_is_a_config_error(argv, tmp_path, capsys,
                                             monkeypatch):
    # reported before any battery, derivation or float work runs
    _refuse_all_work(monkeypatch)
    target = tmp_path / "missing" / "out"
    assert run(argv + ["--output", str(target)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot write {target}: ")


@pytest.mark.parametrize("argv", [
    ["beta", "kondo"],
    ["verify", "fock"],
    ["flow", "--model", "kondo", "--start=0.1,0"],
    ["fixed-points", "kondo"],
    ["vector-field", "--model", "kondo"],
])
def test_a_failed_run_leaves_an_existing_output(argv, tmp_path,
                                                monkeypatch):
    _refuse_all_work(monkeypatch)
    target = tmp_path / "out"
    target.write_text("kept\n")
    with pytest.raises(AssertionError, match="before checking --output"):
        run(argv + ["--output", str(target)])
    assert target.read_text() == "kept\n"


def test_fixed_points_kondo_reports_both_equilibria(tmp_path):
    out = tmp_path / "fp.json"
    assert run(["fixed-points", "kondo", "--output", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["abandoned_seeds"] == []
    by_class = {r["classification"]: r for r in obj["fixed_points"]}
    assert set(by_class) == {"marginal-mixed", "stable"}
    origin = by_class["marginal-mixed"]
    assert origin["location"] == [0.0, 0.0]
    assert origin["eigenvalue_moduli"] == [1.0, 0.5]
    assert by_class["stable"]["location"] == list(KONDO_STAR)


def test_fixed_points_accepts_explicit_seeds(tmp_path):
    out = tmp_path / "fp.json"
    assert run(["fixed-points", "kondo", "--seeds",
                "-0.7,0.05; -0.8,0.06", "--output", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert len(obj["fixed_points"]) == 1
    assert obj["fixed_points"][0]["classification"] == "stable"


def test_fixed_points_rejects_bad_seed_width(capsys):
    assert run(["fixed-points", "kondo", "--seeds", "0.1,0.2,0.3"]) == 3
    assert "expected 2 entries" in capsys.readouterr().err


@pytest.mark.parametrize("seeds, message", [
    ("a,b", "expected comma-separated floats, got 'a,b'"),
    (";", "no seeds given"),
])
def test_fixed_points_rejects_malformed_seeds(seeds, message, capsys):
    assert run(["fixed-points", "kondo", "--seeds", seeds]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: field 'seeds': {message}\n"


def test_vector_field_csv_matches_library_grid(tmp_path):
    out = tmp_path / "vf.csv"
    assert run(["vector-field", "--model", "kondo",
                "--range-i=-0.5,0.5", "--range-j=-0.1,0.1",
                "--resolution", "5", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# model: kondo"
    assert lines[1] == "# axes: 0,1"
    assert lines[2] == "li,lj,dir_i,dir_j,log10_mag"
    beta = rg_step(kondo_model())
    grid = vector_field_grid(beta, 0, 1, ((-0.5, 0.5), (-0.1, 0.1)), 5)
    assert len(lines) == 3 + len(grid)
    for line, row in zip(lines[3:], grid):
        got = tuple(float(v) for v in line.split(","))
        assert got == pytest.approx(row, abs=0.0)


@pytest.mark.parametrize("command", [
    ["lattice"], ["vector-field", "--model", "kondo"]])
@pytest.mark.parametrize("window", [
    # the width hi - lo overflows
    "--range-i=-1e308,1e308",
    # the width is finite, but (hi - lo) * k overflows at the last tick
    "--range-i=-8e307,8e307",
])
def test_interval_whose_ticks_overflow_is_a_config_error(command, window,
                                                         capsys):
    argv = command + [window, "--resolution", "3"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert "range_i" in captured.err


@pytest.mark.parametrize("argv, field", [
    (["flow", "--model", "kondo", "--start=nan,0"], "start"),
    (["flow", "--model", "kondo", "--start=inf,0"], "start"),
    (["vector-field", "--model", "kondo", "--slice=inf,0"], "slice"),
    (["vector-field", "--model", "kondo", "--resolution", "1"],
     "resolution"),
    (["vector-field", "--model", "kondo", "--range-i=1,1"], "range_i"),
    (["vector-field", "--model", "kondo", "--axes", "0,0"], "axes"),
    (["vector-field", "--model", "kondo", "--axes", "0,1,2"], "axes"),
    (["lattice", "--range-i=nan,1"], "range_i"),
])
def test_bad_flag_values_are_config_errors(argv, field, capsys):
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: field {field!r}")


def _fresh_process(code):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_exact_commands_do_not_import_numpy():
    _fresh_process(
        "import sys\n"
        "import hfrg.cli\n"
        "assert 'numpy' not in sys.modules, 'import hfrg.cli'\n"
        "for argv in (['beta', 'kondo'],\n"
        "             ['flow', '--model', 'kondo', '--start=0.03,0.001'],\n"
        "             ['lattice', '--resolution', '3']):\n"
        "    assert hfrg.cli.main(argv) == 0\n"
        "    assert 'numpy' not in sys.modules, argv\n")


def test_numpy_commands_import_it_when_called():
    # flows imports NumPy inside the functions that use it
    _fresh_process(
        "import sys\n"
        "import hfrg.cli\n"
        "assert hfrg.cli.main(['fixed-points', 'kondo']) == 0\n"
        "assert hfrg.cli.main(['vector-field', '--model', 'kondo',\n"
        "                      '--resolution', '3']) == 0\n"
        "assert 'numpy' in sys.modules\n")


def test_float_commands_load_no_derivation_module():
    # in a fresh interpreter: the in-process digest test runs after
    # other tests have imported every module, so it cannot catch an
    # import that only a fresh process is missing
    cases = [case for case in json.loads(
                 (Path(__file__).parent / "data" / "cli_outputs.json")
                 .read_text())
             if case["argv"][0] in ("flow", "fixed-points", "vector-field")]
    # and a graphene flow, which has no digest
    cases.append({"argv": ["flow", "--model", "graphene",
                           "--start=" + ",".join(["0.05"] * 7)]})
    _fresh_process(
        "import contextlib, hashlib, io, sys\n"
        "import hfrg.cli\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m == 'hfrg' or m.startswith('hfrg.'))\n"
        "assert loaded == ['hfrg', 'hfrg.cli', 'hfrg.couplings',\n"
        "                  'hfrg.grassmann', 'hfrg.rg'], loaded\n"
        f"for case in {cases!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert hfrg.cli.main(case['argv']) == 0, case['argv']\n"
        "    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()\n"
        "    assert case.get('stdout_sha256', digest) == digest, case['argv']\n"
        "    late = [m for m in ('hfrg.models', 'hfrg.integration',\n"
        "                        'hfrg.scalars', 'hfrg.fock')\n"
        "            if m in sys.modules]\n"
        "    assert not late, (case['argv'], late)\n")


@given(st.integers(-10 ** 6, 0),
       st.lists(st.floats() | st.sampled_from(
           [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]),
           min_size=1, max_size=8))
@example(-1, [math.nan, math.inf, -math.inf, -0.0, 0.0])
def test_row_templates_format_like_17g(h, values):
    # the rows of vector-field and lattice, and of flow after its "%d,"
    fields = ",".join(f"{v:.17g}" for v in values)
    assert cli._float_fields(len(values)) % tuple(values) == fields
    assert ("%d," + cli._float_fields(len(values))) % (h, *values) == \
        f"{h},{fields}"


def test_vector_field_json_payload(tmp_path):
    out = tmp_path / "vf.json"
    assert run(["vector-field", "--model", "kondo", "--resolution", "4",
                "--format", "json", "--output", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["model"] == "kondo"
    assert obj["axes"] == [0, 1]
    assert len(obj["rows"]) == 16
    assert all(len(row) == 5 for row in obj["rows"])


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("extra, sentinel_row", [
    # zero displacement at the equilibria (0, 0) and (1, 0)
    (["--resolution", "5"], [0.0, 0.0, 0.0, 0.0, None]),
    # the normalization vanishes at l0 = -1
    (["--range-i=-1.5,-0.5", "--resolution", "3"],
     [-1.0, 0.0, 0.0, 0.0, None]),
])
def test_vector_field_json_is_strict(tmp_path, extra, sentinel_row):
    out = tmp_path / "vf.json"
    assert run(["vector-field", "--model", "graphene", "--format", "json",
                "--output", str(out)] + extra) == 0
    rows = _strict_json(out.read_text())["rows"]
    assert sentinel_row in rows
    assert all(isinstance(v, float) for row in rows for v in row[:4])


def test_fixed_points_rejects_non_finite_seeds(capsys):
    assert run(["fixed-points", "kondo", "--seeds", "nan,0.1"]) == 3
    assert "must be finite" in capsys.readouterr().err


def test_verify_integration_suite_passes(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "integration", "--output", str(out)]) == 0
    records = json.loads(out.read_text())
    assert [r["lemma"] for r in records] == [
        "normalized_unit", "two_point_table",
        "pairing_vs_density", "gaussian_addition"]
    assert all(r["passed"] for r in records)


def test_verify_all_covers_both_suites(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "all", "--output", str(out)]) == 0
    records = json.loads(out.read_text())
    names = [r["lemma"] for r in records]
    assert "wick_rule" in names
    assert "gaussian_addition" in names
    assert all(r["passed"] for r in records)


def test_verify_failure_exits_one(tmp_path, capsys, monkeypatch):
    bad = [{"lemma": "broken_fact", "tolerance": 0.0,
            "max_error": 1.0, "passed": False}]
    monkeypatch.setattr(fock, "verify_lemmas", lambda: bad)
    assert run(["verify", "fock"]) == 1
    assert "broken_fact" in capsys.readouterr().err


RECORD_KEYS = {"lemma", "tolerance", "max_error", "passed"}


def test_verify_maps_checks_both_shipped_maps(capsys):
    assert run(["verify", "maps"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [r["lemma"] for r in records] == ["betamap_graphene",
                                             "betamap_kondo"]
    assert all(r.keys() == RECORD_KEYS and r["passed"] for r in records)


@pytest.mark.parametrize("model", ["graphene", "kondo"])
def test_verify_maps_names_a_stale_ship(model, tmp_path, capsys,
                                        monkeypatch):
    for name in cli.MODEL_BUILDERS:
        shipped = (rg.SHIPPED / f"betamap_{name}.json").read_text()
        (tmp_path / f"betamap_{name}.json").write_text(shipped)
    # a different map: every denominator raised to one more power
    stale = shipped_map(model)
    stale.denominator_powers = tuple(p + 1 for p in stale.denominator_powers)
    (tmp_path / f"betamap_{model}.json").write_text(stale.to_json() + "\n")
    monkeypatch.setattr(rg, "SHIPPED", tmp_path)
    assert run(["verify", "maps"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"failed: betamap_{model}\n"
    records = json.loads(captured.out)
    assert [r["lemma"] for r in records if not r["passed"]] == \
        [f"betamap_{model}"]


FLOAT_COMMANDS = [
    ["flow", "--model", "kondo", "--start=0.03,0.001", "--steps", "300"],
    ["flow", "--model", "graphene", "--start=" + ",".join(["0.05"] * 7),
     "--steps", "40", "--format", "json"],
    ["fixed-points", "kondo"],
    ["fixed-points", "graphene"],
    ["vector-field", "--model", "kondo", "--resolution", "6"],
    ["vector-field", "--model", "graphene", "--resolution", "6",
     "--format", "json"],
]


def test_float_commands_read_the_shipped_maps_without_deriving(
        capsys, monkeypatch):
    def output(argv):
        code = run(argv)
        return code, capsys.readouterr().out

    derived = {name: rg_step(build())
               for name, build in cli.MODEL_BUILDERS.items()}
    monkeypatch.setattr(cli, "shipped_map", derived.__getitem__)
    expected = [output(argv) for argv in FLOAT_COMMANDS]
    monkeypatch.undo()

    def no_step(spec):
        raise AssertionError(f"derived the {spec.name} map again")
    monkeypatch.setattr(rg, "rg_step", no_step)
    for argv, (code, text) in zip(FLOAT_COMMANDS, expected):
        assert code == 0, argv
        assert output(argv) == (0, text), argv


def test_lattice_band_table(tmp_path):
    out = tmp_path / "bands.csv"
    assert run(["lattice", "--resolution", "5", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# fermi_plus: ")
    assert lines[2] == "# v_fermi: 1.5"
    assert lines[3] == "kx,ky,re_omega,im_omega,band_minus,band_plus"
    assert len(lines) == 4 + 25
    center = dict(zip(lines[3].split(","),
                      lines[4 + 12].split(",")))
    assert float(center["kx"]) == 0.0
    assert float(center["re_omega"]) == pytest.approx(3.0, abs=1e-12)
    assert float(center["band_plus"]) == pytest.approx(3.0, abs=1e-12)
    assert float(center["band_minus"]) == pytest.approx(-3.0, abs=1e-12)


def test_lattice_range_override(tmp_path):
    out = tmp_path / "bands.csv"
    assert run(["lattice", "--range-i", "0,1", "--resolution", "3",
                "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[4:]]
    assert [r[0] for r in rows[:3]] == ["0", "0", "0"]
    assert float(rows[-1][0]) == 1.0
    assert float(rows[-1][1]) == 1.0


def test_flow_writes_to_stdout_without_output(capsys):
    assert run(["flow", "--model", "kondo", "--start", "0.05,0",
                "--steps", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "h,l0,l1"
    assert len(lines) == 1 + 6 + 1


def test_vector_field_at_the_smallest_resolution(capsys):
    assert run(["vector-field", "--model", "kondo", "--resolution", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line for line in lines if not line.startswith("#")][1:]
    assert len(rows) == 4


def test_vector_field_across_a_singular_region(capsys):
    # the graphene normalization vanishes at l0 = -1, the middle tick
    argv = ["vector-field", "--model", "graphene", "--range-i=-1.5,-0.5",
            "--resolution", "3"]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line for line in lines if not line.startswith("#")][1:]
    assert len(rows) == 9
    assert [row for row in rows if row.startswith("-1,0,")] == \
        ["-1,0,0,0,nan"]
    assert run(argv + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    singular = [row for row in rows if row[:2] == [-1.0, 0.0]]
    assert singular == [[-1.0, 0.0, 0.0, 0.0, None]]


def test_flow_from_a_singular_start_diverges_at_once(capsys):
    # l0 = -1 with the rest at zero makes the graphene normalization vanish
    assert run(["flow", "--model", "graphene",
                "--start=-1,0,0,0,0,0,0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "# termination: diverged after 0 steps"


def test_fixed_points_abandons_a_singular_seed(capsys):
    assert run(["fixed-points", "graphene",
                "--seeds=-1,0,0,0,0,0,0"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["fixed_points"] == []
    assert obj["abandoned_seeds"] == [[-1.0] + [0.0] * 6]


def test_outputs_match_their_committed_digests(tmp_path, capsys):
    """Each command in ``tests/data/cli_outputs.json`` keeps its stdout,
    stderr and exit code byte for byte.

    The float commands' digests pin the libm and LAPACK bits of the
    platform that generated them: another platform may differ in the
    last digit of a float and fail here with correct code.  A mismatch writes the actual output
    under ``tmp_path`` and names the file.
    """
    cases = json.loads(
        (Path(__file__).parent / "data" / "cli_outputs.json").read_text())
    mismatches = []
    for i, case in enumerate(cases):
        code = run(case["argv"])
        out, err = (text.encode() for text in capsys.readouterr())
        got = {"argv": case["argv"], "exit_code": code,
               "stdout_sha256": hashlib.sha256(out).hexdigest(),
               "stdout_bytes": len(out),
               "stderr_sha256": hashlib.sha256(err).hexdigest()}
        if got != case:
            dump = tmp_path / f"case{i}"
            dump.mkdir()
            (dump / "stdout").write_bytes(out)
            (dump / "stderr").write_bytes(err)
            mismatches.append(f"{' '.join(case['argv'])}: exit {code}, "
                              f"{len(out)} stdout bytes, output in {dump}")
    assert not mismatches, "\n".join(mismatches)
