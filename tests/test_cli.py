import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import die_in_worker


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "fracmle", *args], capture_output=True, text=True, env=env
    )


@pytest.fixture()
def linear_config(tmp_path):
    doc = {
        "model": {"name": "linear1d", "theta0": [1.0], "x0": [1.0]},
        "grid": {"T": 1.0, "n_coarse": 128, "refine_level": 0},
        "hurst": 0.4,
        "epsilon": 0.1,
    }
    path = tmp_path / "linear1d.json"
    path.write_text(json.dumps(doc))
    return path, doc


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_simulate_row_count_and_determinism(tmp_path, linear_config):
    cfg, _ = linear_config
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    r1 = run_cli("simulate", "--config", str(cfg), "--seed", "7", "--output-dir", str(out1))
    assert r1.returncode == 0, r1.stderr
    files = json.loads(r1.stdout)
    rows = (out1 / "trajectory_linear1d_seed7.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 128 + 1  # header + n_coarse + 1 nodes
    r2 = run_cli("simulate", "--config", str(cfg), "--seed", "7", "--output-dir", str(out2))
    assert r2.returncode == 0
    assert (out1 / "trajectory_linear1d_seed7.csv").read_bytes() == (
        out2 / "trajectory_linear1d_seed7.csv"
    ).read_bytes()
    assert (out1 / "driver_linear1d_seed7.csv").exists()


def test_simulate_requires_seed(tmp_path, linear_config):
    cfg, _ = linear_config
    res = run_cli("simulate", "--config", str(cfg), "--output-dir", str(tmp_path))
    assert res.returncode == 2
    assert "seed" in res.stderr


def test_invalid_hurst_named_in_error(tmp_path, linear_config):
    _, doc = linear_config
    doc["hurst"] = 0.6
    cfg = _write(tmp_path, doc)
    res = run_cli("simulate", "--config", str(cfg), "--seed", "1")
    assert res.returncode == 2
    assert "hurst" in res.stderr


def test_unknown_key_rejected(tmp_path, linear_config):
    _, doc = linear_config
    doc["unexpected"] = 1
    cfg = _write(tmp_path, doc)
    res = run_cli("estimate", "--config", str(cfg), "--seed", "1")
    assert res.returncode == 2
    assert "unexpected" in res.stderr


def test_estimate_seeded_roundtrip(tmp_path, linear_config):
    cfg, _ = linear_config
    res = run_cli("estimate", "--config", str(cfg), "--seed", "11")
    assert res.returncode == 0, res.stderr
    rec = json.loads(res.stdout)
    assert rec["converged"]
    assert rec["u"] is not None
    assert 0.1 <= rec["theta_hat"][0] <= 5.0


def test_estimate_const_drift_closed_form(tmp_path):
    doc = {
        "model": {"name": "const1d", "theta0": [0.7], "x0": [0.0]},
        "grid": {"T": 1.0, "n_coarse": 256},
        "hurst": 0.4,
        "epsilon": 0.1,
        "seed": 21,
    }
    cfg = _write(tmp_path, doc)
    res = run_cli("estimate", "--config", str(cfg))
    assert res.returncode == 0, res.stderr
    rec = json.loads(res.stdout)

    from fracmle import (
        HurstVector,
        TimeGrid,
        build_context,
        compute_Q,
        get_model,
        lift,
        sample_fbm,
        solve_rde,
    )

    model = get_model("const1d")
    hv = HurstVector((0.4,))
    grid = TimeGrid(1.0, 256, 0)
    rp = lift(sample_fbm(hv, grid, 21), grid)
    traj = solve_rde(model, [0.7], 0.1, rp, [0.0])
    ctx = build_context(traj, model, hv)
    q1 = compute_Q(traj.states, model, [1.0], 0.1, ctx.plans)
    w = np.full(257, grid.dt)
    w[0] = w[-1] = grid.dt / 2
    s1 = float(q1.values[:-1, 0] @ np.diff(ctx.z[:, 0]))
    s2 = float(np.sum(q1.values[:, 0] ** 2 * w))
    assert abs(rec["theta_hat"][0] - np.clip(s1 / s2, -5, 5)) <= 1e-8


def test_estimate_from_trajectory_file(tmp_path, linear_config):
    cfg, _ = linear_config
    out = tmp_path / "sim"
    run_cli("simulate", "--config", str(cfg), "--seed", "13", "--output-dir", str(out))
    traj_file = out / "trajectory_linear1d_seed13.csv"
    res = run_cli("estimate", "--config", str(cfg), "--trajectory", str(traj_file))
    assert res.returncode == 0, res.stderr
    rec = json.loads(res.stdout)
    assert rec["u"] is None  # truth unknown for file input
    res2 = run_cli("estimate", "--config", str(cfg), "--seed", "13")
    rec2 = json.loads(res2.stdout)
    # estimating from the dumped file reproduces the seeded pipeline estimate
    assert rec["theta_hat"][0] == pytest.approx(rec2["theta_hat"][0], abs=1e-9)


def test_estimate_missing_file(tmp_path, linear_config):
    cfg, _ = linear_config
    res = run_cli("estimate", "--config", str(cfg), "--trajectory", str(tmp_path / "nope.csv"))
    assert res.returncode == 2


def test_estimate_malformed_trajectory_runtime_error(tmp_path, linear_config):
    cfg, _ = linear_config
    bad = tmp_path / "bad.csv"
    bad.write_text("t,X1\n0.0,1.0\n0.5,0.9\n")  # wrong row count for the grid
    res = run_cli("estimate", "--config", str(cfg), "--trajectory", str(bad))
    assert res.returncode == 1


def test_simulate_area_dump(tmp_path, linear_config):
    cfg, _ = linear_config
    res = run_cli(
        "simulate", "--config", str(cfg), "--seed", "3",
        "--output-dir", str(tmp_path), "--dump-areas",
    )
    assert res.returncode == 0, res.stderr
    files = json.loads(res.stdout)
    lines = Path(files["areas"]).read_text().strip().split("\n")
    assert lines[0] == "k,i,j,area"
    assert len(lines) == 1 + 128  # header + n_fine rows for r = 1


def test_simulate_area_dump_two_components(tmp_path):
    from fracmle import HurstVector, TimeGrid, lift, sample_fbm

    doc = {
        "model": {"name": "cross2d", "theta0": [1.0, 2.0], "x0": [1.0, 1.0]},
        "grid": {"T": 1.0, "n_coarse": 8, "refine_level": 2},
        "hurst": [0.4, 0.45],
        "epsilon": 0.1,
    }
    cfg = _write(tmp_path, doc)
    res = run_cli(
        "simulate", "--config", str(cfg), "--seed", "3",
        "--output-dir", str(tmp_path), "--dump-areas",
    )
    assert res.returncode == 0, res.stderr
    lines = Path(json.loads(res.stdout)["areas"]).read_text().strip().split("\n")
    assert lines[0] == "k,i,j,area"
    grid = TimeGrid(1.0, 8, 2)
    rp = lift(sample_fbm(HurstVector((0.4, 0.45)), grid, 3), grid)
    expected = [(k, i, j) for k in range(grid.n_fine) for i in (1, 2) for j in (1, 2)]
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(k), int(i), int(j)) for k, i, j, _ in rows] == expected
    for k, i, j, value in rows:
        assert float(value) == rp.areas[int(k), int(i) - 1, int(j) - 1]


def test_estimate_boundary_flag_path(tmp_path):
    doc = {
        "model": {
            "name": "linear1d",
            "theta0": [1.05],
            "x0": [1.0],
            "theta_domain": [[0.9, 1.1]],
        },
        "grid": {"T": 1.0, "n_coarse": 128},
        "hurst": 0.4,
        "epsilon": 0.5,
    }
    cfg = _write(tmp_path, doc)
    flags = []
    for seed in range(6):
        res = run_cli("estimate", "--config", str(cfg), "--seed", str(seed))
        assert res.returncode == 0, res.stderr
        flags.append(json.loads(res.stdout)["boundary_flag"])
    assert any(flags)


def test_gamma_linear1d(tmp_path, linear_config):
    cfg, _ = linear_config
    res = run_cli("gamma", "--config", str(cfg))
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["a5_ok"] and out["gamma"][0][0] > 0
    assert out["gamma_inv"][0][0] == pytest.approx(1.0 / out["gamma"][0][0])


def test_gamma_theta_independent_zero_matrix(tmp_path):
    doc = {
        "model": {"name": "zero1d", "theta0": [1.0], "x0": [1.0]},
        "grid": {"T": 1.0, "n_coarse": 64},
        "hurst": 0.4,
    }
    cfg = _write(tmp_path, doc)
    res = run_cli("gamma", "--config", str(cfg))
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["gamma"] == [[0.0]]
    assert out["a5_ok"] is False
    assert out["gamma_inv"] is None


def test_mc_study_and_artifacts(tmp_path):
    doc = {
        "model": {"name": "linear1d", "theta0": [1.0], "x0": [1.0]},
        "grid": {"T": 1.0, "n_coarse": 64},
        "hurst": 0.4,
        "study": {"epsilons": [0.1], "n_replicates": 8},
        "output": {"dir": str(tmp_path / "study")},
        "seed": 99,
    }
    cfg = _write(tmp_path, doc)
    res = run_cli("mc", "--config", str(cfg))
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["valid"]
    assert (tmp_path / "study" / "records.jsonl").exists()
    assert (tmp_path / "study" / "manifest.json").exists()


def test_mc_dead_worker_is_runtime_error(tmp_path, monkeypatch, capsys):
    # a worker process that dies ends as a typed error with exit code 1, not a traceback
    import fracmle.mcstudy as mc
    from fracmle.cli import main

    doc = {
        "model": {"name": "linear1d", "theta0": [1.0], "x0": [1.0]},
        "grid": {"T": 1.0, "n_coarse": 64},
        "hurst": 0.4,
        "study": {"epsilons": [0.1], "n_replicates": 4},
        "seed": 99,
    }
    monkeypatch.setenv("FRACMLE_THREADS", "2")
    monkeypatch.setattr(mc, "_run_block", die_in_worker)
    assert main(["mc", "--config", str(_write(tmp_path, doc))]) == 1
    assert capsys.readouterr().err.startswith("error: ResourceError: a study worker process died")


def test_mc_requires_seed(tmp_path):
    doc = {
        "model": {"name": "linear1d", "theta0": [1.0], "x0": [1.0]},
        "grid": {"T": 1.0, "n_coarse": 64},
        "hurst": 0.4,
        "study": {"epsilons": [0.1], "n_replicates": 8},
    }
    cfg = _write(tmp_path, doc)
    res = run_cli("mc", "--config", str(cfg))
    assert res.returncode == 2
    assert "seed" in res.stderr


def test_mc_bad_thread_count_is_validation_error(tmp_path):
    doc = {
        "model": {"name": "linear1d", "theta0": [1.0], "x0": [1.0]},
        "grid": {"T": 1.0, "n_coarse": 64},
        "hurst": 0.4,
        "study": {"epsilons": [0.1], "n_replicates": 4},
        "seed": 99,
    }
    cfg = _write(tmp_path, doc)
    res = run_cli("mc", "--config", str(cfg), env=dict(os.environ, FRACMLE_THREADS="abc"))
    assert res.returncode == 2
    assert "FRACMLE_THREADS" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("command", ["gamma", "estimate", "mc"])
def test_x0_length_mismatch_is_typed_error(tmp_path, command):
    doc = {
        "model": {"name": "linear1d", "theta0": [1.0], "x0": [1.0, 2.0]},
        "grid": {"T": 1.0, "n_coarse": 32},
        "hurst": 0.4,
        "epsilon": 0.1,
        "study": {"epsilons": [0.1], "n_replicates": 2},
        "seed": 5,
    }
    cfg = _write(tmp_path, doc)
    res = run_cli(command, "--config", str(cfg))
    assert res.returncode == 1
    assert res.stderr.startswith("error: InputError")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "name, hurst, command",
    [
        ("cross2d", 0.4, "gamma"),
        ("linear1d", [0.4, 0.45], "gamma"),
        ("linear1d", [0.4, 0.45], "estimate-trajectory"),
        ("linear1d", [0.4, 0.45], "estimate"),
        ("cross2d", 0.4, "simulate"),
        ("cross2d", 0.4, "mc"),
    ],
)
def test_hurst_length_mismatch_is_validation_error(tmp_path, name, hurst, command):
    d = 2 if name == "cross2d" else 1
    doc = {
        "model": {"name": name, "theta0": [1.0] * d, "x0": [1.0] * d},
        "grid": {"T": 1.0, "n_coarse": 32},
        "hurst": hurst,
        "epsilon": 0.1,
        "study": {"epsilons": [0.1], "n_replicates": 2},
        "seed": 5,
    }
    cfg = _write(tmp_path, doc)
    args = [command, "--config", str(cfg)]
    if command == "estimate-trajectory":
        traj = tmp_path / "traj.csv"
        nodes = np.linspace(0.0, 1.0, 33)
        np.savetxt(traj, np.column_stack([nodes, np.ones(33)]), delimiter=",", header="t,X1", comments="")
        args = ["estimate", "--config", str(cfg), "--trajectory", str(traj)]
    if command in ("simulate", "mc"):
        args += ["--output-dir", str(tmp_path / "out")]
    res = run_cli(*args)
    assert res.returncode == 2, res.stdout + res.stderr
    assert "hurst" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("command", ["mc", "simulate"])
def test_negative_seed_flag_is_validation_error(tmp_path, command):
    doc = {
        "model": {"name": "zero1d", "theta0": [1.0], "x0": [1.0]},
        "grid": {"T": 1.0, "n_coarse": 64},
        "hurst": 0.4,
        "epsilon": 0.1,
        "study": {"epsilons": [0.1], "n_replicates": 35},
    }
    cfg = _write(tmp_path, doc)
    out = tmp_path / "out"
    res = run_cli(command, "--config", str(cfg), "--seed", "-1", "--output-dir", str(out))
    assert res.returncode == 2, res.stdout + res.stderr
    assert "seed" in res.stderr
    assert not (out / "records.jsonl").exists()


def test_negative_config_seed_is_validation_error(tmp_path, linear_config):
    _, doc = linear_config
    doc["seed"] = -3
    cfg = _write(tmp_path, doc)
    res = run_cli("simulate", "--config", str(cfg), "--output-dir", str(tmp_path))
    assert res.returncode == 2
    assert "seed" in res.stderr


@pytest.mark.parametrize(
    "command, section, key, value",
    [("estimate", "optimizer", "n_starts", 5)],
)
def test_integer_option_written_as_float_runs_as_the_integer(
    tmp_path, linear_config, command, section, key, value
):
    # the schema admits 5.0 where it types an integer; such a config runs as 5 does
    _, doc = linear_config
    seed = ("--seed", "11") if command == "estimate" else ()
    outputs = []
    for spelling in (value, float(value)):
        cfg = _write(tmp_path, dict(doc, **{section: {key: spelling}}))
        res = run_cli(command, "--config", str(cfg), *seed)
        assert res.returncode == 0, res.stderr
        assert "Traceback" not in res.stderr
        outputs.append(res.stdout)
    assert outputs[0] == outputs[1]


def test_validate_config_casts_every_integer_field(linear_config):
    from fracmle.config import SCHEMA, validate_config

    _, doc = linear_config
    doc = dict(
        doc,
        grid={"T": 1.0, "n_coarse": 128.0, "refine_level": 1.0},
        optimizer={"n_starts": 5.0, "max_iter": 40.0},
        study={"epsilons": [0.1], "n_replicates": 40.0, "gamma_refine": 2.0},
        seed=7.0,
    )
    doc = validate_config(doc)
    fields = [("seed", None)] + [
        (section, key)
        for section, sub in SCHEMA["properties"].items()
        for key, spec in sub.get("properties", {}).items()
        if spec.get("type") == "integer"
    ]
    assert len(fields) == 7
    for section, key in fields:
        value = doc[section] if key is None else doc[section][key]
        assert type(value) is int, (section, key)


def test_missing_config_file():
    res = run_cli("estimate", "--config", "/nonexistent/cfg.json", "--seed", "1")
    assert res.returncode == 2


def test_selftest_passes():
    res = run_cli("selftest")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[PASS]" in res.stdout and "[FAIL]" not in res.stdout


@pytest.mark.parametrize("flag", [("--config", "cfg.json"), ("--seed", "3")])
def test_selftest_takes_no_options(flag):
    res = run_cli("selftest", *flag)
    assert res.returncode == 2
    assert "unrecognized arguments" in res.stderr


def test_probe_section_is_validation_error(tmp_path, linear_config):
    _, doc = linear_config
    cfg = _write(tmp_path, dict(doc, probe={"n_pairs": 50}))
    res = run_cli("estimate", "--config", str(cfg), "--seed", "1")
    assert res.returncode == 2
    assert "probe" in res.stderr and "Traceback" not in res.stderr


def test_cli_import_leaves_out_heavy_scipy_modules():
    # module presence, not wall-clock time
    heavy = (
        "scipy.signal", "scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse"
    )
    probe = f"import sys, fracmle.cli; print(sorted(m for m in {heavy!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_study_leaves_out_scipy_stats():
    # 30 successes per epsilon, so the study computes skewness and kurtosis
    probe = (
        "import math, sys; from fracmle import StudyConfig, run_study; "
        "s = run_study(StudyConfig(model='linear1d', theta0=(1.0,), x0=(1.0,), hurst=(0.4,), "
        "epsilons=(0.1,), n_replicates=30, n_coarse=64, seed=3, n_jobs=1)).per_eps[0]; "
        "print(s.n_ok, math.isfinite(s.skewness[0]), 'scipy.stats' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["30", "True", "False"]


@pytest.mark.parametrize("kind", ["two_columns", "t_only", "nan", "ragged", "text"])
def test_estimate_malformed_trajectory_file_is_typed_error(tmp_path, linear_config, kind):
    cfg, _ = linear_config
    nodes = [repr(t) for t in np.linspace(0.0, 1.0, 129).tolist()]
    rows = {
        "two_columns": [f"{t},{t},{t}" for t in nodes],
        "t_only": nodes,
        "nan": [f"{t},nan" for t in nodes],
        "ragged": [f"{t},1.0" + (",2.0" if k == 3 else "") for k, t in enumerate(nodes)],
        "text": [f"{t},abc" for t in nodes],
    }[kind]
    bad = tmp_path / f"{kind}.csv"
    bad.write_text("\n".join(["t,X1"] + rows) + "\n")
    res = run_cli("estimate", "--config", str(cfg), "--trajectory", str(bad))
    assert res.returncode == 1
    assert res.stderr.startswith("error: InputError")
    assert "Traceback" not in res.stderr
    assert ("state columns" if kind in ("two_columns", "t_only") else bad.name) in res.stderr
