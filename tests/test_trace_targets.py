"""The benchmark tracer's layer names must exist in the package.

``perfbench/spans.py`` looks each traced function up by name with
``getattr``; a renamed or deleted layer would only fail inside a traced
benchmark run.  This test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, name) for module, name, _ in spans.TARGETS]


@pytest.mark.parametrize("module, name", _targets())
def test_traced_layer_resolves(module, name):
    mod = importlib.import_module(f"parisian.{module}")
    assert callable(getattr(mod, name, None)), f"parisian.{module}.{name}"
