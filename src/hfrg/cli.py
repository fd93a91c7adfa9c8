"""Command-line front end: exact coupling maps, flow trajectories,
fixed-point searches, vector-field grids, oracle verification, and
lattice band tables, all as plot-ready CSV or JSON.

Run parameters come from an optional flat key=value config file plus
flags; a flag always wins over the file.  Exit codes: 0 on success, 1
when a verification suite fails, 2 on usage errors, 3 on malformed
configuration.  Only the float commands and the thermal suite load NumPy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import integration as _integration
from .models import LATTICE, bands, graphene_model, kondo_model, omega
from .rg import rg_step

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3

MODEL_BUILDERS = {"graphene": graphene_model, "kondo": kondo_model}

CONFIG_FIELDS = ("model", "start", "steps", "axes", "range_i", "range_j",
                 "resolution", "slice", "output", "format")

DEFAULT_SEEDS = {
    "kondo": tuple((a / 2, b / 2)
                   for a in range(-2, 3) for b in range(-2, 3)),
    "graphene": ((0.05,) * 7, (0.9,) + (0.05,) * 6, (0.5,) * 7),
}

DEFAULT_PLANE = {
    "kondo": ((-1.0, 0.5), (-0.1, 0.15)),
    "graphene": ((-0.5, 1.5), (-0.5, 0.5)),
}


class ConfigError(Exception):
    """Malformed run configuration (file or flag payload)."""


def _fmt(x):
    return f"{float(x):.17g}"


def _beta_for(model_name):
    return rg_step(MODEL_BUILDERS[model_name]())


def _json_text(payload):
    """Strict JSON (RFC 8259): a non-finite float is an error, not a
    bare NaN or Infinity token."""
    return json.dumps(payload, indent=1, allow_nan=False) + "\n"


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


# ------------------------------------------------------------ configuration


def parse_config_file(path):
    """Read a flat key=value file into {field: (raw value, line)}."""
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    values = {}
    for num, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{num}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_FIELDS:
            raise ConfigError(f"{path}:{num}: unknown field {key!r}")
        values[key] = (value.strip(), num)
    return values


class _Resolver:
    """Field lookup that prefers flags over config-file entries and
    reports the offending file line on parse failures."""

    def __init__(self, args):
        path = getattr(args, "config", None)
        self.path = path
        self.file_values = parse_config_file(path) if path else {}
        self.args = args

    def raw(self, field, default=None):
        flag = getattr(self.args, field.replace("-", "_"), None)
        if flag is not None:
            return str(flag), None
        if field in self.file_values:
            value, line = self.file_values[field]
            return value, line
        return default, None

    def _fail(self, field, line, message):
        where = f"{self.path}:{line}: " if line is not None else ""
        raise ConfigError(f"{where}field {field!r}: {message}")

    def string(self, field, default=None, choices=None):
        value, line = self.raw(field, default)
        if value is None:
            return None
        if choices is not None and value not in choices:
            self._fail(field, line, f"must be one of {', '.join(choices)}")
        return value

    def integer(self, field, default=None, minimum=None):
        value, line = self.raw(field)
        if value is None:
            return default
        try:
            out = int(value)
        except ValueError:
            self._fail(field, line, f"expected an integer, got {value!r}")
        if minimum is not None and out < minimum:
            self._fail(field, line, f"must be at least {minimum}")
        return out

    def float_vector(self, field, length=None, default=None):
        value, line = self.raw(field)
        if value is None:
            return default
        parts = [p for p in value.replace(";", ",").split(",") if p.strip()]
        try:
            out = tuple(float(p) for p in parts)
        except ValueError:
            self._fail(field, line, f"expected comma-separated floats, "
                       f"got {value!r}")
        if not all(math.isfinite(v) for v in out):
            self._fail(field, line, "entries must be finite")
        if length is not None and len(out) != length:
            self._fail(field, line, f"expected {length} entries, "
                       f"got {len(out)}")
        return out

    def int_pair(self, field, default=None):
        value, line = self.raw(field)
        if value is None:
            return default
        parts = value.split(",")
        try:
            out = tuple(int(p) for p in parts)
        except ValueError:
            self._fail(field, line, f"expected two integers, got {value!r}")
        if len(out) != 2:
            self._fail(field, line, f"expected two integers, got {len(out)}")
        return out

    def interval(self, field, resolution, default=None):
        out = self.float_vector(field, length=None, default=None)
        if out is None:
            return default
        value, line = self.raw(field)
        if len(out) != 2 or not out[0] < out[1]:
            self._fail(field, line, "expected lo,hi with lo < hi")
        if not math.isfinite((out[1] - out[0]) * (resolution - 1)):
            # the ticks lo + (hi - lo) * k / (resolution - 1) would overflow
            self._fail(field, line, "(hi - lo) * (resolution - 1) overflows")
        return out

    def model(self):
        name = self.string("model", choices=tuple(MODEL_BUILDERS))
        if name is None:
            value, line = self.raw("model")
            self._fail("model", line, "required (graphene or kondo)")
        return name


# -------------------------------------------------------------- subcommands


def cmd_beta(args):
    beta = _beta_for(args.model)
    text = beta.to_json() + "\n"
    counts = [f"{name}: {len(poly.terms)} terms"
              for name, poly in zip(beta.coupling_names, beta.numerators)]
    counts.append(f"denominator: {len(beta.denominator.terms)} terms")
    counts.append(f"total: {beta.term_count} numerator terms")
    summary = "\n".join(counts) + "\n"
    if args.output is None:
        sys.stdout.write(text)
        sys.stderr.write(summary)
    else:
        _write_text(args.output, text)
        sys.stdout.write(summary)
    return EXIT_OK


def cmd_flow(args):
    from . import flows
    cfg = _Resolver(args)
    model = cfg.model()
    beta = _beta_for(model)
    start = cfg.float_vector("start", length=beta.n)
    if start is None:
        raise ConfigError("field 'start': required (initial couplings, "
                          f"{beta.n} comma-separated floats)")
    steps = cfg.integer("steps", default=500, minimum=1)
    fmt = cfg.string("format", default="csv", choices=("csv", "json"))
    output = cfg.string("output")
    trajectory = flows.iterate_flow(beta, start, steps)
    names = beta.coupling_names
    if fmt == "csv":
        lines = ["h," + ",".join(f"l{i}" for i in range(beta.n))]
        for h, point in trajectory.points:
            lines.append(",".join([str(h)] + [_fmt(v) for v in point]))
        lines.append(f"# termination: {trajectory.termination} "
                     f"after {trajectory.n_steps} steps")
        _write_text(output, "\n".join(lines) + "\n")
    else:
        payload = {
            "model": model,
            "coupling_names": list(names),
            "points": [[h, *(float(v) for v in point)]
                       for h, point in trajectory.points],
            "termination": trajectory.termination,
            "steps": trajectory.n_steps,
        }
        _write_text(output, _json_text(payload))
    return EXIT_OK


def _parse_seed_list(text, width):
    seeds = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            seed = tuple(float(p) for p in chunk.split(","))
        except ValueError:
            raise ConfigError(f"field 'seeds': bad vector {chunk!r}")
        if not all(math.isfinite(v) for v in seed):
            raise ConfigError(f"field 'seeds': entries must be finite, "
                              f"got {chunk!r}")
        if len(seed) != width:
            raise ConfigError(f"field 'seeds': expected {width} entries "
                              f"per seed, got {len(seed)}")
        seeds.append(seed)
    if not seeds:
        raise ConfigError("field 'seeds': no seeds given")
    return seeds


def cmd_fixed_points(args):
    from . import flows
    beta = _beta_for(args.model)
    if args.seeds is not None:
        seeds = _parse_seed_list(args.seeds, beta.n)
    else:
        seeds = DEFAULT_SEEDS[args.model]
    results = flows.find_fixed_points(beta, seeds)
    payload = {
        "model": args.model,
        "fixed_points": [
            {
                "location": [float(v) for v in report.location],
                "residual_norm": report.residual_norm,
                "eigenvalue_moduli": [float(m)
                                      for m in report.eigenvalue_moduli],
                "classification": report.classification,
            }
            for report in results
        ],
        "abandoned_seeds": [list(s) for s in results.abandoned_seeds],
    }
    _write_text(args.output, _json_text(payload))
    return EXIT_OK


def cmd_vector_field(args):
    from . import flows
    cfg = _Resolver(args)
    model = cfg.model()
    beta = _beta_for(model)
    axes = cfg.int_pair("axes", default=(0, 1))
    if not (0 <= axes[0] < beta.n and 0 <= axes[1] < beta.n) \
            or axes[0] == axes[1]:
        raise ConfigError(f"field 'axes': need two distinct indices "
                          f"below {beta.n}")
    default_i, default_j = DEFAULT_PLANE[model]
    resolution = cfg.integer("resolution", default=50, minimum=2)
    range_i = cfg.interval("range_i", resolution, default=default_i)
    range_j = cfg.interval("range_j", resolution, default=default_j)
    slice_values = cfg.float_vector("slice", length=beta.n)
    fmt = cfg.string("format", default="csv", choices=("csv", "json"))
    output = cfg.string("output")
    grid = flows.vector_field_grid(beta, axes[0], axes[1],
                                   (range_i, range_j), resolution,
                                   fixed_values=slice_values)
    if fmt == "csv":
        lines = [f"# model: {model}",
                 f"# axes: {axes[0]},{axes[1]}",
                 "li,lj,dir_i,dir_j,log10_mag"]
        for row in grid:
            lines.append(",".join(_fmt(v) for v in row))
        _write_text(output, "\n".join(lines) + "\n")
    else:
        payload = {
            "model": model,
            "axes": list(axes),
            "resolution": resolution,
            # a non-finite log10_mag (the -inf and nan sentinels) is null
            "rows": [[float(v) if math.isfinite(v) else None for v in row]
                     for row in grid],
        }
        _write_text(output, _json_text(payload))
    return EXIT_OK


def cmd_verify(args):
    records = []
    if args.suite in ("fock", "all"):
        from . import fock
        records.extend(fock.verify_lemmas())
    if args.suite in ("integration", "all"):
        records.extend(_integration.verify_identities())
    _write_text(args.output, _json_text(records))
    failed = [r["lemma"] for r in records if not r["passed"]]
    if failed:
        sys.stderr.write("failed: " + ", ".join(failed) + "\n")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_lattice(args):
    cfg = _Resolver(args)
    resolution = cfg.integer("resolution", default=50, minimum=2)
    lo, hi = cfg.interval("range_i", resolution, default=(-math.pi, math.pi))
    output = cfg.string("output")
    lines = [
        "# fermi_plus: " + ",".join(_fmt(v) for v in LATTICE.fermi_plus),
        "# fermi_minus: " + ",".join(_fmt(v) for v in LATTICE.fermi_minus),
        f"# v_fermi: {_fmt(LATTICE.v_fermi)}",
        "kx,ky,re_omega,im_omega,band_minus,band_plus",
    ]
    for a in range(resolution):
        kx = lo + (hi - lo) * a / (resolution - 1)
        for b in range(resolution):
            ky = lo + (hi - lo) * b / (resolution - 1)
            w = omega((kx, ky))
            lower, upper = bands((kx, ky))
            lines.append(",".join(_fmt(v) for v in
                                  (kx, ky, w.real, w.imag, lower, upper)))
    _write_text(output, "\n".join(lines) + "\n")
    return EXIT_OK


# --------------------------------------------------------------- entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hfrg",
        description="Exact coupling maps and flows of hierarchical "
                    "fermionic models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("beta", help="emit a model's exact coupling map "
                                    "as JSON with term counts")
    p.add_argument("model", choices=tuple(MODEL_BUILDERS))
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_beta)

    p = sub.add_parser("flow", help="iterate the coupling map from a "
                                    "starting point")
    p.add_argument("config", nargs="?", help="flat key=value config file")
    p.add_argument("--model", choices=tuple(MODEL_BUILDERS))
    p.add_argument("--start", help="comma-separated initial couplings")
    p.add_argument("--steps", type=int)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--output")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("fixed-points", help="Newton-search equilibria "
                                            "from a seed set")
    p.add_argument("model", choices=tuple(MODEL_BUILDERS))
    p.add_argument("--seeds", help="semicolon-separated seed vectors, "
                                   "each comma-separated")
    p.add_argument("--output")
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("vector-field", help="sample one-step displacements "
                                            "on a coupling-plane grid")
    p.add_argument("config", nargs="?", help="flat key=value config file")
    p.add_argument("--model", choices=tuple(MODEL_BUILDERS))
    p.add_argument("--axes", help="two coupling indices, e.g. 0,1")
    p.add_argument("--range-i", help="lo,hi for the first axis")
    p.add_argument("--range-j", help="lo,hi for the second axis")
    p.add_argument("--resolution", type=int)
    p.add_argument("--slice", help="comma-separated off-plane couplings")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--output")
    p.set_defaults(func=cmd_vector_field)

    p = sub.add_parser("verify", help="run the oracle suites and report "
                                      "a pass/fail table")
    p.add_argument("suite", choices=("all", "fock", "integration"))
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lattice", help="tabulate the band structure over "
                                       "a momentum grid")
    p.add_argument("--range-i", help="lo,hi for both momentum axes")
    p.add_argument("--resolution", type=int)
    p.add_argument("--output")
    p.set_defaults(func=cmd_lattice)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
