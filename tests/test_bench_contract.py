"""What the traced benchmark run (bench/tracing.py) looks up in fracmle by name.

The tracer wraps each (module, function) of its TARGETS in every loaded fracmle
module and measures the arrays of each plan FracKernelPlan.build returns. A
rename or reshape in fracmle that it no longer finds fails here instead of in
the benchmark.
"""

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from fracmle import FracKernelPlan, TimeGrid

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    """bench/tracing.py as a fresh module, read without writing bytecode next to it."""
    module = types.ModuleType("fracmle_bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("modname, attr", _tracing().TARGETS)
def test_traced_target_resolves(modname, attr):
    assert callable(getattr(importlib.import_module(f"fracmle.{modname}"), attr, None))


@pytest.mark.parametrize("hurst, n", [(0.4, 16), (0.4, 256), (0.5, 16)])
def test_built_plan_has_the_arrays_plan_mb_reads(hurst, n):
    plan = FracKernelPlan.build(hurst, TimeGrid(1.0, n, 0))
    arrays = (*plan.weights_left, *plan.weights_right, plan.kernel_matrix)
    assert all(a is None or isinstance(a, np.ndarray) for a in arrays)
