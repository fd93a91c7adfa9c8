"""Span tracing of the hfrg layers from outside the package.

``Tracer.installed()`` replaces public functions and methods of the
hfrg modules with timing wrappers and puts the originals back on exit;
nothing under ``src/`` is edited.  Work is recorded only inside a
``Tracer.root()`` block, which the harness opens around each timed
operation, so checks and set-up stay out of the trace.

Coarse calls (a map derivation, a grid, a trajectory) are kept as
spans ``(id, name, start, end, parent id)``.  Ring products and float
evaluations run millions of times per round, so they are folded into
one aggregate span per (name, parent span) carrying a call count and
a self time.  A layer's self time is its duration minus the time of
the wrapped calls inside it; the self times of all layers plus the
harness's own share of the root spans add up to the traced time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import hfrg.cli as cli
import hfrg.couplings as couplings
import hfrg.flows as flows
import hfrg.fock as fock
import hfrg.grassmann as grassmann
import hfrg.integration as integration
import hfrg.models as models
import hfrg.rg as rg
import hfrg.scalars as scalars

MODULES = (scalars, couplings, grassmann, integration, models, rg, flows,
           fock, cli)

HARNESS = "harness"


def _term_pairs(args):
    a, b = args[0], args[1]
    other = len(b.terms) if isinstance(b, couplings.CouplingPolynomial) else 1
    return len(a.terms) * other


# (layer name, owner, attribute, kept as single spans, counter)
# A counter is (counter name, "args" or "result", function).
TARGETS = (
    ("models.build", models, "graphene_model", True, None),
    ("models.build", models, "kondo_model", True, None),
    ("models.project", models, "project_onto_basis", True, None),
    ("couplings.mul", couplings.CouplingPolynomial, "__mul__", False,
     ("couplings.mul_term_pairs", "args", _term_pairs)),
    ("couplings.mul", couplings.CouplingPolynomial, "__rmul__", False,
     ("couplings.mul_term_pairs", "args", lambda a: len(a[0].terms))),
    ("couplings.add", couplings.CouplingPolynomial, "__add__", False, None),
    ("couplings.evaluate", couplings.CouplingPolynomial, "evaluate", False,
     None),
    ("couplings.evaluate_float", couplings.CouplingPolynomial,
     "evaluate_float", False, None),
    ("scalars.mul", scalars.GaussianRational, "__mul__", False, None),
    ("scalars.mul", scalars.RootTwo, "__mul__", False, None),
    ("scalars.mul", scalars.ImpurityElement, "__mul__", False, None),
    ("scalars.mul", scalars.ImpurityElement, "__rmul__", False, None),
    ("grassmann.mul", grassmann.GrassmannPolynomial, "__mul__", False, None),
    ("grassmann.substitute", grassmann.GrassmannPolynomial, "substitute",
     True, None),
    ("grassmann.exp", grassmann, "exp_truncated", True, None),
    ("integration.integrate", integration, "integrate_polynomial", False,
     ("integration.integrate_terms", "args", lambda a: len(a[2].terms))),
    ("integration.battery", integration, "verify_identities", True, None),
    ("rg.step", rg, "rg_step", True, None),
    ("rg.to_json", rg.BetaMap, "to_json", True, None),
    ("rg.evaluate", rg.BetaMap, "evaluate", False, None),
    ("rg.jacobian", rg.BetaMap, "jacobian", False, None),
    ("flows.iterate", flows, "iterate_flow", True,
     ("flows.steps", "result", lambda r: r.n_steps)),
    ("flows.grid", flows, "vector_field_grid", True, None),
    ("flows.newton", flows, "find_fixed_points", True,
     ("flows.abandoned_seeds", "result", lambda r: len(r.abandoned_seeds))),
    ("flows.stability", flows, "stability", False, None),
    ("fock.verify", fock, "verify_lemmas", True, None),
    ("cli.main", cli, "main", True, None),
)


class Tracer:
    """Records spans and per-layer self times and counts in memory."""

    def __init__(self):
        self.spans = []                       # kept spans
        self.aggregates = defaultdict(lambda: [0, 0.0])  # (name, parent)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []   # frames: [name, start, child time, span id]

    # -- wrapping ----------------------------------------------------

    def _wrapper(self, name, fn, keep, counter):
        stack = self._stack
        if counter is not None:
            counter_name, source, measure = counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if counter is not None and source == "args":
                self.counts[counter_name] += measure(args)
            frame = [name, time.perf_counter(), 0.0,
                     len(self.spans) if keep else stack[-1][3]]
            if keep:
                self.spans.append(None)       # reserve the id
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._close(frame, end, keep)
            if counter is not None and source == "result":
                self.counts[counter_name] += measure(result)
            return result

        return traced

    def _close(self, frame, end, keep):
        name, start, child, span_id = frame
        duration = end - start
        self.self_time[name] += duration - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if keep:
            self.spans[span_id] = (span_id, name, start, end,
                                   parent[3] if parent else None)
        else:
            agg = self.aggregates[(name, span_id)]
            agg[0] += 1
            agg[1] += duration - child

    @contextmanager
    def installed(self):
        """Swap every target for its wrapper in each hfrg module and
        class that refers to it, and restore the originals after."""
        undo = []
        try:
            for name, owner, attr, keep, counter in TARGETS:
                original = owner.__dict__[attr]
                wrapped = self._wrapper(name, original, keep, counter)
                for holder in self._holders():
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            undo.append((holder, key, value))
                            setattr(holder, key, wrapped)
                for key, value in list(cli.MODEL_BUILDERS.items()):
                    if value is original:
                        undo.append((cli.MODEL_BUILDERS, key, value))
                        cli.MODEL_BUILDERS[key] = wrapped
            yield self
        finally:
            for holder, key, value in reversed(undo):
                if isinstance(holder, dict):
                    holder[key] = value
                else:
                    setattr(holder, key, value)

    @staticmethod
    def _holders():
        for module in MODULES:
            yield module
            for value in list(vars(module).values()):
                if isinstance(value, type) and \
                        value.__module__ == module.__name__:
                    yield value

    @contextmanager
    def root(self):
        """One timed operation; the harness's own time inside it is
        the root's self time."""
        frame = [HARNESS, time.perf_counter(), 0.0, len(self.spans)]
        self.spans.append(None)
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._close(frame, end, True)

    @property
    def harness_s(self):
        """The harness's own time inside the root spans."""
        return self.self_time.get(HARNESS, 0.0)

    # -- output ------------------------------------------------------

    def write(self, path):
        rows = {
            "spans": [dict(zip(("id", "name", "start", "end", "parent"), s))
                      for s in self.spans],
            "aggregates": [{"name": name, "parent": parent, "calls": c,
                            "self_s": t}
                           for (name, parent), (c, t)
                           in self.aggregates.items()],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))
