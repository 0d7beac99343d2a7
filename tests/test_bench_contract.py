"""What the traced benchmark run (bench/tracing.py) looks up in fracmle by name.

The tracer wraps each (module, function) of its TARGETS in every loaded fracmle
module, measures the arrays of each plan FracKernelPlan.build returns and
rebuilds a model with counting callbacks by ModelSpec's field names. A rename
or reshape in fracmle that it no longer finds fails here instead of in the
benchmark.
"""

import dataclasses
import importlib
import json
import types
from pathlib import Path

import numpy as np
import pytest

from fracmle import FracKernelPlan, TimeGrid, available_models, config, fraccalc, get_model, inference, mcstudy
from fracmle.fbm import lift, sample_fbm
from fracmle.rde import dump_trajectory_csv, load_trajectory_csv, solve_rde

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    """bench/tracing.py as a fresh module, read without writing bytecode next to it."""
    module = types.ModuleType("fracmle_bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("modname, attr", _tracing().TARGETS)
def test_traced_target_resolves(modname, attr):
    assert callable(getattr(importlib.import_module(f"fracmle.{modname}"), attr, None))


@pytest.mark.parametrize("hurst, n", [(0.4, 16), (0.4, 256)])
def test_built_plan_has_the_arrays_plan_mb_reads(hurst, n):
    plan = FracKernelPlan.build(hurst, TimeGrid(1.0, n, 0))
    arrays = (*plan.weights_left, *plan.weights_right, plan.kernel_matrix)
    assert all(a is None or isinstance(a, np.ndarray) for a in arrays)


def test_package_calls_of_the_benchmark_keep_their_shapes(tmp_path):
    # the calls bench/setup_child.py and bench/run.py make, with their argument shapes
    doc = {
        "model": {"name": "linear1d", "theta0": [1.0], "x0": [1.0]},
        "grid": {"T": 1.0, "n_coarse": 64, "refine_level": 0},
        "hurst": 0.4,
        "epsilon": 0.05,
        "study": {"epsilons": [0.1, 0.05], "n_replicates": 2, "gamma_refine": 2},
        "seed": 3,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    doc = config.load_config(cfg_path)
    grid, hurst, spec = config.grid_from(doc), config.hurst_from(doc), config.model_from(doc)
    opt = config.optimizer_from(doc)
    for h in hurst:
        fraccalc.get_plan(h, grid.T, grid.n_coarse)

    # ObsBench: a trajectory CSV through build_context, mle and log_likelihood
    traj = solve_rde(spec, [1.0], doc["epsilon"], lift(sample_fbm(hurst, grid, 5), grid), [1.0])
    dump_trajectory_csv(traj, tmp_path / "path000.csv")
    ctx = inference.build_context(load_trajectory_csv(tmp_path / "path000.csv", grid, doc["epsilon"]), spec, hurst)
    rec = inference.mle(ctx, opt)
    assert rec.converged and np.isfinite(inference.log_likelihood(ctx, [rec.theta_hat[0]]))
    assert spec.theta_linear and isinstance(rec, inference.EstimateRecord)
    assert isinstance(rec.iterations, int) and rec.iterations >= 1

    # McBench: the study config, its Gamma and an in-process replicate
    cfg = dataclasses.replace(config.study_config_from(doc), n_jobs=1)
    gamma = inference.gamma_matrix(cfg.model_spec(), cfg.theta0, cfg.hurst_vector(), cfg.grid(), cfg.x0, refine=1)
    assert gamma.a5_ok
    res = mcstudy.run_replicate(cfg, cfg.epsilons[1], 1)
    assert not res.failed and res.record is not None
    mcstudy.run_study(dataclasses.replace(cfg, output_dir=str(tmp_path / "study")))
    with open(tmp_path / "study" / "records.jsonl") as fh:
        records = [json.loads(line) for line in fh]
    read = {"replicate_id", "epsilon", "failed", "u", "theta_hat", "iterations"}
    assert len(records) == 4 and all(read <= rec.keys() for rec in records)


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
