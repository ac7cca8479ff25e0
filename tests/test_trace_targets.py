"""The benchmark tracer's layer names must exist in the package.

``perfbench/spans.py`` looks each traced function up by name with
``getattr``; a renamed or deleted layer would only fail inside a traced
benchmark run.  This test fails first.  Each pricer must also be reached
through the binding the tracer patches: a dispatch table built at import
would keep the original functions and hide their spans.  The traced jump
measure must count every cell a generator assembly evaluates.
"""

import dataclasses
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from parisian import ctmc, price
from parisian.ctmc import build_grid
from parisian.models import VGParams, bs_model, vg_model
from parisian.pricer_downin import ContractSpec, Flavor, american_call

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@pytest.mark.parametrize("module, name",
                         [(module, name) for module, name, _ in _spans().TARGETS])
def test_traced_layer_resolves(module, name):
    mod = importlib.import_module(f"parisian.{module}")
    assert callable(getattr(mod, name, None)), f"parisian.{module}.{name}"


@pytest.mark.parametrize("flavor, maturity, span", [
    (Flavor.DOWN_IN, math.inf, "pricer_downin.price_perpetual_downin"),
    (Flavor.DOWN_IN, 0.25, "pricer_downin.price_finite_downin"),
    (Flavor.DOWN_OUT, math.inf, "pricer_downout.price_perpetual_downout"),
    (Flavor.DOWN_OUT, 0.25, "pricer_downout.price_finite_downout"),
])
def test_price_reaches_each_traced_pricer(flavor, maturity, span):
    model = bs_model(r_f=0.1, dividend=0.05, sigma=0.3)
    grid = build_grid(18.0, 360.0, 90.0, 95.0, 24)
    contract = ContractSpec(payoff=american_call(95.0), barrier=90.0, window=1.0 / 12.0,
                            maturity=maturity, rate=0.1, flavor=flavor)
    tracer = _spans().Tracer()
    with tracer.installed():
        price(model, grid, contract, dt=1.0 / 24.0, dtick=1.0 / 48.0)
    pricers = {name: bucket["calls"] for name, bucket in tracer.counts.items()
               if ".price_" in name}
    assert pricers == {span: 1}


def test_traced_interval_mass_counts_every_cell():
    # the tracer wraps a measure's interval_mass and counts the cells of
    # each call: over a whole VG assembly, made of many one-sided calls,
    # that count must be the cells an untraced build evaluates
    model = vg_model(VGParams(sigma=0.1213, nu=0.1686, theta=-0.1436, r_f=0.05))
    grid = build_grid(math.log(18), math.log(360), math.log(90), math.log(95), 400)
    cells = []

    def counted(t, x, a, b):
        out = model.jump_measure.interval_mass(t, x, a, b)
        cells.append(np.size(out))
        return out

    jm = dataclasses.replace(model.jump_measure, interval_mass=counted)
    untraced = ctmc.build_generator(dataclasses.replace(model, jump_measure=jm), grid,
                                    rate_policy="upwind")
    tracer = _spans().Tracer()
    with tracer.installed():
        traced = ctmc.build_generator(model, grid, rate_policy="upwind")
    counts = tracer.counts["models.interval_mass"]
    assert counts["calls"] == len(cells) > 1
    assert counts["cells"] == sum(cells)
    assert np.array_equal(traced.jump, untraced.jump)
