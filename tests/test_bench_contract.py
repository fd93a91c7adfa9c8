"""The benchmark's import contract with the package.

``bench/spans.py`` names hfrg functions, methods and classes at import
and swaps each traced target for a wrapper.  A refactor of ``src/``
that renames or moves one of them breaks ``bench/run.py --trace 1``;
these tests make that fail here first.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

import spans  # noqa: E402

from hfrg.couplings import CouplingPolynomial  # noqa: E402
from hfrg.models import kondo_model  # noqa: E402
from hfrg.rg import rg_step  # noqa: E402


def _bindings():
    """Every attribute of every hfrg module and class the tracer patches,
    and every model builder the CLI dispatches to, by identity."""
    out = {}
    for holder in spans.Tracer._holders():
        for key, value in vars(holder).items():
            out[(id(holder), key)] = value
    for key, value in spans.cli.MODEL_BUILDERS.items():
        out[("MODEL_BUILDERS", key)] = value
    return out


def test_every_trace_target_exists_on_its_owner():
    for name, owner, attr, _keep, _counter in spans.TARGETS:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr}"
        assert callable(owner.__dict__[attr]), f"{name}: {attr}"


def test_trace_targets_are_distinct_functions():
    # an alias such as __rmul__ = __mul__ would be wrapped twice, once
    # per target, so each call through it would count twice
    originals = [owner.__dict__[attr]
                 for _, owner, attr, _, _ in spans.TARGETS]
    assert len({id(f) for f in originals}) == len(originals)


def test_one_product_is_one_traced_call():
    x = CouplingPolynomial.variable(2, 0)
    y = CouplingPolynomial.variable(2, 1)
    tracer = spans.Tracer()
    with tracer.installed(), tracer.root():
        x * y
    assert tracer.calls["couplings.mul"] == 1


def test_installed_tracer_wraps_and_restores_every_target():
    originals = {(owner, attr): owner.__dict__[attr]
                 for _, owner, attr, _, _ in spans.TARGETS}
    before = _bindings()
    with spans.Tracer().installed():
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original, attr
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, attr


def test_grid_work_stays_under_the_float_evaluation_span():
    # the benchmark times grid sampling as flows.grid and its float
    # work as couplings.evaluate_float; a grid makes one evaluation per
    # polynomial it needs, not one per cell
    beta = rg_step(kondo_model())
    tracer = spans.Tracer()
    with tracer.installed(), tracer.root():
        spans.flows.vector_field_grid(beta, 0, 1,
                                      ((-1.0, 0.5), (-0.1, 0.15)), 12)
    assert any(span[1] == "flows.grid" for span in tracer.spans)
    assert 0 < tracer.calls["couplings.evaluate_float"] < 10
