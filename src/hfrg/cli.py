"""Command-line front end: exact coupling maps, flow trajectories,
fixed-point searches, vector-field grids, oracle verification, and
lattice band tables, all as plot-ready CSV or JSON.

Run parameters come from an optional flat key=value config file plus
flags; a flag always wins over the file.  Exit codes: 0 on success, 1
when a verification suite fails, 2 on usage errors, 3 on malformed
configuration, an unreadable config file or an unwritable ``--output``;
every command checks ``--output`` before any work.

``beta`` derives a model's exact map with ``rg_step``.  The float
commands (``flow``, ``fixed-points``, ``vector-field``) read the same
map as the package ships it, and ``verify maps`` derives both maps
again and checks them against the shipped files.

Each command imports what it runs when it runs.  ``import hfrg.cli``
loads ``hfrg.rg`` and the two modules under it, ``hfrg.couplings`` and
``hfrg.grassmann``.  On top of those:

- ``flow`` loads ``hfrg.flows``; ``fixed-points`` and ``vector-field``
  load it and NumPy;
- ``beta``, ``verify maps`` and ``lattice`` load ``hfrg.models`` and,
  through it, ``hfrg.integration`` and ``hfrg.scalars``;
- ``verify integration`` loads ``hfrg.integration``; ``verify fock``
  loads it, ``hfrg.fock`` and NumPy; ``verify all`` loads both suites'.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .rg import shipped_map

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3


def _builder(model):
    """A zero-argument builder of ``model``'s spec that looks up
    ``models.<model>_model`` when called, so that only a derivation
    loads ``hfrg.models``."""
    def build():
        from . import models
        return getattr(models, f"{model}_model")()
    return build


MODEL_BUILDERS = {model: _builder(model) for model in ("graphene", "kondo")}

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


def _float_fields(n):
    """A ``%`` template of ``n`` comma-separated ``%.17g`` fields; each
    formats a float as ``f"{x:.17g}"`` does, ``nan``, ``inf`` and ``-0``
    included."""
    return ",".join(["%.17g"] * n)


def _json_text(payload):
    """Strict JSON (RFC 8259): a non-finite float is an error, not a
    bare NaN or Infinity token."""
    return json.dumps(payload, indent=1, allow_nan=False) + "\n"


def _writable(path):
    """Check that ``path`` opens for writing and return it.  Commands
    check ``--output`` so before any work; append mode leaves an
    existing file as it was until the command writes it."""
    if path is not None:
        try:
            open(path, "a").close()
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot write {path}: {exc}")
    return path


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot write {path}: {exc}")


# ------------------------------------------------------------ configuration


def parse_config_file(path):
    """Read a flat key=value file into {field: (raw value, line)}."""
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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


# Field parsers: each raises ValueError, which _Resolver.get reports.


def _choice(text, choices):
    if text not in choices:
        raise ValueError(f"must be one of {', '.join(choices)}")
    return text


def _integer(text, minimum):
    try:
        out = int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}")
    if out < minimum:
        raise ValueError(f"must be at least {minimum}")
    return out


def _floats(text, length=None):
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    try:
        out = tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"expected comma-separated floats, got {text!r}")
    if not all(math.isfinite(v) for v in out):
        raise ValueError("entries must be finite")
    if length is not None and len(out) != length:
        raise ValueError(f"expected {length} entries, got {len(out)}")
    return out


def _int_pair(text, n):
    try:
        out = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"expected two integers, got {text!r}")
    if len(out) != 2:
        raise ValueError(f"expected two integers, got {len(out)}")
    if not all(0 <= i < n for i in out) or out[0] == out[1]:
        raise ValueError(f"need two distinct indices below {n}")
    return out


def _interval(text, resolution):
    out = _floats(text)
    if len(out) != 2 or not out[0] < out[1]:
        raise ValueError("expected lo,hi with lo < hi")
    if not math.isfinite((out[1] - out[0]) * (resolution - 1)):
        # the ticks lo + (hi - lo) * k / (resolution - 1) would overflow
        raise ValueError("(hi - lo) * (resolution - 1) overflows")
    return out


def _seeds(text, width):
    seeds = [_floats(chunk, width) for chunk in text.split(";")
             if chunk.strip()]
    if not seeds:
        raise ValueError("no seeds given")
    return seeds


class _Resolver:
    """Field lookup that prefers flags over config-file entries and
    reports the offending file line on parse failures."""

    def __init__(self, args):
        self.args, self.path = args, getattr(args, "config", None)
        self.file_values = parse_config_file(self.path) if self.path else {}

    def get(self, field, parse=str, default=None, *args):
        """``parse(text, *args)`` of the flag, else of the file entry,
        else ``default``.  A ValueError from the parser becomes a
        ConfigError naming the field and, for a file entry, path:line."""
        flag = getattr(self.args, field, None)
        if flag is not None:
            text, where = str(flag), ""
        elif field in self.file_values:
            text, line = self.file_values[field]
            where = f"{self.path}:{line}: "
        else:
            return default
        try:
            return parse(text, *args)
        except ValueError as exc:
            raise ConfigError(f"{where}field {field!r}: {exc}")

    def model(self):
        name = self.get("model", _choice, None, tuple(MODEL_BUILDERS))
        if name is None:
            raise ConfigError("field 'model': required (graphene or kondo)")
        return name


# -------------------------------------------------------------- subcommands


def cmd_beta(args):
    from .rg import rg_step
    _writable(args.output)
    beta = rg_step(MODEL_BUILDERS[args.model]())
    text = beta.to_json() + "\n"
    counts = [f"{name}: {len(poly)} terms"
              for name, poly in zip(beta.coupling_names, beta.numerators)]
    counts.append(f"denominator: {len(beta.denominator)} terms")
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
    beta = shipped_map(model)
    start = cfg.get("start", _floats, None, beta.n)
    if start is None:
        raise ConfigError("field 'start': required (initial couplings, "
                          f"{beta.n} comma-separated floats)")
    steps = cfg.get("steps", _integer, 500, 1)
    fmt = cfg.get("format", _choice, "csv", ("csv", "json"))
    output = _writable(cfg.get("output"))
    trajectory = flows.iterate_flow(beta, start, steps)
    names = beta.coupling_names
    if fmt == "csv":
        row = "%d," + _float_fields(beta.n)
        lines = ["h," + ",".join(f"l{i}" for i in range(beta.n))]
        lines += [row % (h, *point) for h, point in trajectory.points]
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


def cmd_fixed_points(args):
    from . import flows
    _writable(args.output)
    beta = shipped_map(args.model)
    seeds = _Resolver(args).get("seeds", _seeds, DEFAULT_SEEDS[args.model],
                                beta.n)
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
    beta = shipped_map(model)
    axes = cfg.get("axes", _int_pair, (0, 1), beta.n)
    default_i, default_j = DEFAULT_PLANE[model]
    resolution = cfg.get("resolution", _integer, 50, 2)
    range_i = cfg.get("range_i", _interval, default_i, resolution)
    range_j = cfg.get("range_j", _interval, default_j, resolution)
    slice_values = cfg.get("slice", _floats, None, beta.n)
    fmt = cfg.get("format", _choice, "csv", ("csv", "json"))
    output = _writable(cfg.get("output"))
    grid = flows.vector_field_grid(beta, axes[0], axes[1],
                                   (range_i, range_j), resolution,
                                   fixed_values=slice_values)
    if fmt == "csv":
        lines = [f"# model: {model}",
                 f"# axes: {axes[0]},{axes[1]}",
                 "li,lj,dir_i,dir_j,log10_mag"]
        row = _float_fields(5)
        lines += [row % values for values in grid]
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
    _writable(args.output)
    records = []
    if args.suite in ("fock", "all"):
        from . import fock
        records.extend(fock.verify_lemmas())
    if args.suite in ("integration", "all"):
        from .integration import verify_identities
        records.extend(verify_identities())
    if args.suite == "maps":
        from .rg import verify_shipped_maps
        records.extend(verify_shipped_maps(MODEL_BUILDERS))
    _write_text(args.output, _json_text(records))
    failed = [r["lemma"] for r in records if not r["passed"]]
    if failed:
        sys.stderr.write("failed: " + ", ".join(failed) + "\n")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_lattice(args):
    from .models import LATTICE, bands, omega
    cfg = _Resolver(args)
    resolution = cfg.get("resolution", _integer, 50, 2)
    lo, hi = cfg.get("range_i", _interval, (-math.pi, math.pi), resolution)
    output = _writable(cfg.get("output"))
    fermi = _float_fields(len(LATTICE.fermi_plus))
    row = _float_fields(6)
    lines = [
        "# fermi_plus: " + fermi % LATTICE.fermi_plus,
        "# fermi_minus: " + fermi % LATTICE.fermi_minus,
        "# v_fermi: %.17g" % LATTICE.v_fermi,
        "kx,ky,re_omega,im_omega,band_minus,band_plus",
    ]
    for a in range(resolution):
        kx = lo + (hi - lo) * a / (resolution - 1)
        for b in range(resolution):
            ky = lo + (hi - lo) * b / (resolution - 1)
            w = omega((kx, ky))
            lower, upper = bands((kx, ky))
            lines.append(row % (kx, ky, w.real, w.imag, lower, upper))
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

    p = sub.add_parser("verify", help="run the oracle suites, or check the "
                                      "shipped maps, and report a "
                                      "pass/fail table")
    p.add_argument("suite", choices=("all", "fock", "integration", "maps"))
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
