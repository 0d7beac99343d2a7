"""What the traced benchmark run (bench/tracing.py) looks up in fracmle by name.

The tracer wraps each (module, function) of its TARGETS in every loaded fracmle
module, measures the arrays of each plan FracKernelPlan.build returns and
rebuilds a model with counting callbacks by ModelSpec's field names. A rename
or reshape in fracmle that it no longer finds fails here instead of in the
benchmark.
"""

import dataclasses
import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from fracmle import FracKernelPlan, TimeGrid, available_models, get_model

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


def _callbacks(spec) -> dict:
    """Every callback of a ModelSpec by field name; drift_dtheta holds four."""
    out = {}
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        fns = value if isinstance(value, tuple) else (value,)
        if all(callable(fn) for fn in fns):
            out.update({(f.name, k): fn for k, fn in enumerate(fns)})
    return out


@pytest.mark.parametrize("name", available_models())
def test_counting_model_counts_each_callback_once_inside_a_path_span(name):
    tracer = _tracing().Tracer(path_span="path")
    spec = get_model(name)
    counted = _callbacks(tracer.counting_model(spec))
    assert counted.keys() == _callbacks(spec).keys() and len(counted) == 9
    x, theta = np.ones((3, spec.d)), spec.theta_domain.mean(axis=1)
    args = {key: (x, theta) if key[0].startswith("drift") else (x,) for key in counted}
    for key, fn in counted.items():
        fn(*args[key])
    assert tracer.callback_calls == 0
    for k, (key, fn) in enumerate(counted.items(), start=1):
        with tracer.span("path"):
            fn(*args[key])
        assert tracer.callback_calls == k, key
