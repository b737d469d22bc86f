"""The benchmark harness's contract with the library.

``perfbench/`` wraps named wignerlab functions in spans and checks the
outputs of every workload op; a run whose traced names, self-test or checks
break is recorded as incorrect.  These tests import the harness unchanged
and fail in the suite instead.
"""

import importlib
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import selftest  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", tracer.FUNCTIONS)
def test_traced_name_resolves(name):
    module, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"wignerlab.{module}"), fn))


def test_selftest_passes():
    assert selftest.run() == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_op_passes_its_check(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    inp = workload.make_input(0)
    assert workload.check(inp, workload.run(inp)) == []
