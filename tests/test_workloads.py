"""The benchmark's contracts must price through the package's public API.

``perfbench/workloads.py`` calls ``price_point(...).value``, ``value_at``,
``ContractSpec``, ``Flavor`` and ``american_call``; a break in any of them
would otherwise only surface in a benchmark run.  This test prices every
workload's contracts in smoke mode (tiny grids), loading the module by path
and leaving the benchmark's files untouched.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


_MODULE = _workloads()


@pytest.mark.parametrize("name", sorted(_MODULE._CONTRACT_SETS))
def test_smoke_contracts_price(name):
    contracts = _MODULE._CONTRACT_SETS[name](True)
    assert contracts
    for contract in contracts:
        outcome = contract.run()
        assert outcome.problem is None, (contract.id, outcome.problem)
        assert outcome.prices, contract.id
        assert all(math.isfinite(p) for p in outcome.prices), (contract.id, outcome.prices)
