"""No code that only its own tests keep alive.

The test imports ``hfrg`` afresh and, in this process under
``sys.settrace``, runs the package's real paths:

- exact ``BetaMap.evaluate`` and ``jacobian`` at one rational point of
  each shipped map;
- every command of ``tests/data/cli_outputs.json``: ``beta`` and
  ``verify maps`` run both ``rg_step``s, ``verify all`` both oracle
  batteries;
- a graphene ``flow``, a ``lattice`` table, and a ``vector-field`` read
  from a config file that sets ``axes``.

The trace function records the code of each frame that starts and
returns None, so no line of that frame is traced.  Unlike
``sys.setprofile``, which also reports every call into C, this costs
one Python call per Python call, about half the time.

It then lists every function of ``src/hfrg`` defined at module or class
level whose code never ran: properties, cached properties, class and
static methods count; nested functions and lambdas do not.  That list
must equal the keys of ``UNREACHED``, which gives each function one
reason to exist:

- ``bench``: a file under ``bench/`` names it, or a function so named
  calls it;
- ``oracle``: it feeds a golden file or an acceptance check;
- ``ring``: a subtraction dunder that the ring-axiom tests check;
- ``error``: only bad input reaches it;
- ``protocol``: an ``__init__``, ``__repr__`` or ``__str__``.

A function that nothing reaches and ``UNREACHED`` does not name fails
the test, which prints a line to paste into ``UNREACHED`` for it; so
does an entry whose function is gone or now reached.
"""

import importlib
import io
import json
import os
import pkgutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from types import FunctionType

ROOT = Path(__file__).resolve().parent.parent
REASONS = {"bench", "oracle", "ring", "error", "protocol"}

UNREACHED = {
    "hfrg.couplings.CouplingPolynomial.__repr__": "protocol",
    "hfrg.couplings.CouplingPolynomial.__rsub__": "ring",
    "hfrg.couplings.CouplingPolynomial.__sub__": "ring",
    # builds the Fraction view for ``terms`` and ``__repr__``
    "hfrg.couplings.CouplingPolynomial._sorted_terms": "bench",
    "hfrg.couplings.CouplingPolynomial.evaluate": "bench",
    "hfrg.couplings.CouplingPolynomial.terms": "bench",
    "hfrg.flows.classify_power_counting": "oracle",
    "hfrg.fock.ModeMatrix.__repr__": "protocol",
    "hfrg.grassmann.GeneratorId.__str__": "protocol",
    "hfrg.grassmann.GrassmannPolynomial.__repr__": "protocol",
    "hfrg.grassmann.log_truncated": "bench",
    "hfrg.integration.PropagatorTable.items": "oracle",
    "hfrg.models._coeff_token": "oracle",
    "hfrg.models.operator_fingerprint": "oracle",
    "hfrg.rg._singular": "error",
    "hfrg.scalars.ImpurityElement.__init__": "protocol",
    "hfrg.scalars.ImpurityElement.__repr__": "protocol",
    "hfrg.scalars.ImpurityElement.__rsub__": "ring",
    "hfrg.scalars.ImpurityElement.pauli_components": "oracle",
    # what is left of the GaussianRational/RootTwo tower: the two
    # products bench/spans.py traces and what their bodies call
    "hfrg.scalars.GaussianRational.__add__": "bench",
    "hfrg.scalars.GaussianRational.__bool__": "bench",
    "hfrg.scalars.GaussianRational.__mul__": "bench",
    "hfrg.scalars.GaussianRational._lift": "bench",
    "hfrg.scalars.RootTwo.__init__": "bench",
    "hfrg.scalars.RootTwo.__mul__": "bench",
    "hfrg.scalars.RootTwo._lift": "bench",
    "hfrg.scalars._as_fraction": "bench",
}


def _own_functions(module):
    """``module.qualname`` -> code of each function that ``module``
    defines at module level or in the body of one of its classes."""
    out = {}
    for value in vars(module).values():
        members = [value]
        if isinstance(value, type) and value.__module__ == module.__name__:
            members = vars(value).values()
        for member in members:
            if isinstance(member, property):
                funcs = (member.fget, member.fset, member.fdel)
            elif isinstance(member, cached_property):
                funcs = (member.func,)
            elif isinstance(member, (classmethod, staticmethod)):
                funcs = (member.__func__,)
            else:
                funcs = (member,)
            for f in funcs:
                # a file test leaves out imported and generated functions
                if (isinstance(f, FunctionType) and f.__name__ != "<lambda>"
                        and f.__code__.co_filename == module.__file__):
                    out[f"{module.__name__}.{f.__qualname__}"] = f.__code__
    return out


def _is_hfrg(name):
    return name == "hfrg" or name.startswith("hfrg.")


def _reached_and_defined(tmp_path):
    """(codes that ran, ``module.qualname`` -> code of every function)
    for a fresh import of the package and the paths above.  The
    process's own ``hfrg`` modules are put back afterwards."""
    config = tmp_path / "field.cfg"
    config.write_text("model = graphene\naxes = 0,2\nresolution = 3\n")
    cases = json.loads((ROOT / "tests" / "data" / "cli_outputs.json")
                       .read_text())
    commands = [(case["argv"], case["exit_code"]) for case in cases] + [
        (["flow", "--model", "graphene", "--start=0.1,0,0,0,0,0,0",
          "--steps", "20"], 0),
        (["lattice", "--resolution", "3"], 0),
        (["vector-field", str(config)], 0),
    ]
    saved = {name: m for name, m in sys.modules.items() if _is_hfrg(name)}
    for name in saved:
        del sys.modules[name]
    seen = set()

    def record(frame, event, arg):
        seen.add(frame.f_code)   # a "call" event: the frame starts

    previous = sys.gettrace()
    sys.settrace(record)
    try:
        package = importlib.import_module("hfrg")
        modules = [package] + [importlib.import_module(f"hfrg.{info.name}")
                               for info in pkgutil.iter_modules(
                                   package.__path__)]
        rg, cli = sys.modules["hfrg.rg"], sys.modules["hfrg.cli"]
        for model in ("graphene", "kondo"):
            beta = rg.shipped_map(model)
            point = [Fraction(1, 32)] * beta.n
            beta.evaluate(point)
            beta.jacobian(point)
        for argv, code in commands:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert cli.main(argv) == code, argv
    finally:
        sys.settrace(previous)
        for name in [name for name in sys.modules if _is_hfrg(name)]:
            del sys.modules[name]
        sys.modules.update(saved)
    defined = {}
    for module in modules:
        defined.update(_own_functions(module))
    return seen, defined


def test_every_function_is_reached_or_has_a_reason(tmp_path):
    assert set(UNREACHED.values()) <= REASONS
    seen, defined = _reached_and_defined(tmp_path)
    unreached = {name: code for name, code in defined.items()
                 if code not in seen}
    new = sorted(unreached.keys() - UNREACHED.keys())
    stale = sorted(UNREACHED.keys() - unreached.keys())
    report = []
    if new:
        report.append("no path reaches these functions; delete each, or "
                      "paste its line into UNREACHED with a reason:")
        for name in new:
            code = unreached[name]
            where = os.path.relpath(code.co_filename, ROOT)
            report.append(f'    "{name}": "<reason>",  '
                          f"# {where}:{code.co_firstlineno}")
    if stale:
        report.append("these UNREACHED entries name a function that is "
                      "gone or now reached; remove them:")
        report += [f"    {name}" for name in stale]
    assert not report, "\n".join(report)
