import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmle import (
    EstimateRecord,
    GammaMatrix,
    HurstVector,
    InputError,
    ReplicateResult,
    StudyConfig,
    TimeGrid,
    gamma_matrix,
    get_model,
    run_replicate,
    run_study,
)
from fracmle.mcstudy import _skew_kurtosis, summarize_epsilon, symmetric_sqrt

from conftest import die_in_worker


def _small_cfg(tmp_path=None, **kw):
    base = dict(
        model="linear1d",
        theta0=(1.0,),
        x0=(1.0,),
        hurst=(0.4,),
        epsilons=(0.1,),
        n_replicates=40,
        T=1.0,
        n_coarse=128,
        seed=1234,
        n_jobs=1,
        output_dir=str(tmp_path) if tmp_path else None,
    )
    base.update(kw)
    return StudyConfig(**base)


def test_negative_seed_rejected():
    with pytest.raises(InputError, match="seed"):
        _small_cfg(seed=-1)


def test_replicate_deterministic():
    cfg = _small_cfg()
    a = run_replicate(cfg, 0.1, 3)
    b = run_replicate(cfg, 0.1, 3)
    assert a == b


def test_replicate_matched_pairs_consistency():
    # matched driver seeds: smaller eps gives the smaller estimation error
    cfg = _small_cfg(n_coarse=256)
    wins = 0
    for rid in range(100):
        e_big = run_replicate(cfg, 0.2, rid)
        e_small = run_replicate(cfg, 0.05, rid)
        wins += abs(e_small.record.theta_hat[0] - 1.0) < abs(e_big.record.theta_hat[0] - 1.0)
    assert wins >= 80


def test_score_clt_at_truth():
    # mean of eps grad-loglik(theta0) within 3 sqrt(Gamma/n) of zero
    cfg = _small_cfg(n_coarse=256, n_replicates=300, epsilons=(0.05,), seed=20250810)
    res = [run_replicate(cfg, 0.05, rid) for rid in range(300)]
    scores = np.array([r.score[0] for r in res])
    gm = gamma_matrix(
        get_model("linear1d"), [1.0], HurstVector((0.4,)), TimeGrid(1.0, 256, 0), [1.0], refine=4
    )
    g = gm.matrix[0, 0]
    assert abs(scores.mean()) <= 3.0 * np.sqrt(g / 300)
    assert abs(scores.var(ddof=1) - g) / g <= 0.25


def test_study_reproducible_jsonl(tmp_path):
    cfg1 = _small_cfg(tmp_path / "a", n_replicates=10)
    cfg2 = _small_cfg(tmp_path / "b", n_replicates=10)
    run_study(cfg1)
    run_study(cfg2)
    a = (tmp_path / "a" / "records.jsonl").read_bytes()
    b = (tmp_path / "b" / "records.jsonl").read_bytes()
    assert a == b


def test_study_parallel_matches_serial(tmp_path):
    cfg1 = _small_cfg(tmp_path / "serial", n_replicates=12, n_jobs=1)
    cfg2 = _small_cfg(tmp_path / "par", n_replicates=12, n_jobs=3)
    run_study(cfg1)
    run_study(cfg2)
    a = (tmp_path / "serial" / "records.jsonl").read_bytes()
    b = (tmp_path / "par" / "records.jsonl").read_bytes()
    assert a == b


def test_study_gamma_same_serial_and_pooled(tmp_path):
    run_study(_small_cfg(tmp_path / "serial", n_replicates=6, n_jobs=1))
    run_study(_small_cfg(tmp_path / "par", n_replicates=6, n_jobs=2))
    a = json.loads((tmp_path / "serial" / "manifest.json").read_text())
    b = json.loads((tmp_path / "par" / "manifest.json").read_text())
    assert a["gamma"] == b["gamma"]
    assert a["gamma_inv"] == b["gamma_inv"]


def test_study_pool_unavailable_runs_serially(tmp_path, monkeypatch):
    import fracmle.mcstudy as mc

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise OSError("process creation refused")

    monkeypatch.setattr(mc, "ProcessPoolExecutor", NoPool)
    fallback = run_study(_small_cfg(tmp_path / "fallback", n_replicates=6, n_jobs=2))
    serial = run_study(_small_cfg(tmp_path / "serial", n_replicates=6, n_jobs=1))
    assert np.array_equal(fallback.gamma.matrix, serial.gamma.matrix)
    a = (tmp_path / "fallback" / "records.jsonl").read_bytes()
    b = (tmp_path / "serial" / "records.jsonl").read_bytes()
    assert a == b


def test_study_dead_worker_is_resource_error(monkeypatch):
    # a worker that dies breaks the pool: a typed ResourceError, not the serial
    # fallback, which would run the blocks a second time
    import fracmle.mcstudy as mc
    from fracmle import ResourceError

    monkeypatch.setattr(mc, "_run_block", die_in_worker)
    with pytest.raises(ResourceError, match="a study worker process died"):
        run_study(_small_cfg(n_replicates=4, n_jobs=2))


def test_study_duplicate_epsilons_idempotent():
    cfg1 = _small_cfg(epsilons=(0.1,), n_replicates=12)
    cfg2 = _small_cfg(epsilons=(0.1, 0.1), n_replicates=12)
    s1 = run_study(cfg1)
    s2 = run_study(cfg2)
    assert len(s2.per_eps) == 1
    assert s1.per_eps[0].mean_u == pytest.approx(s2.per_eps[0].mean_u)
    assert s1.per_eps[0].cov_rel_error == s2.per_eps[0].cov_rel_error


def test_study_artifacts_written(tmp_path):
    cfg = _small_cfg(tmp_path, n_replicates=10)
    summary = run_study(cfg)
    assert (tmp_path / "records.jsonl").exists()
    assert (tmp_path / "summary.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 1234
    assert len(manifest["config_hash"]) == 64
    lines = (tmp_path / "records.jsonl").read_text().strip().split("\n")
    assert len(lines) == 10
    rec = json.loads(lines[0])
    assert set(rec) >= {"replicate_id", "epsilon", "theta_hat", "u", "score", "sup_dist"}
    header = (tmp_path / "summary.csv").read_text().split("\n")[0].split(",")
    assert header[:3] == ["epsilon", "n_ok", "n_failed"]
    assert "cov_rel_error" in header and "mean_sup_dist" in header
    assert summary.valid


def test_study_failed_replicates_reported():
    # a tight blow-up guard cannot be triggered by linear1d at these scales,
    # so force failures through a domain so narrow optimization cannot move
    cfg = _small_cfg(n_replicates=10, theta_domain=((0.999, 1.001),))
    summary = run_study(cfg)
    # still valid: clamped estimates converge at the boundary, none fail
    assert summary.per_eps[0].n_ok + summary.per_eps[0].n_failed == 10


def _packed(us: np.ndarray) -> list:
    """Normalized errors packed as successful replicates."""
    return [
        ReplicateResult(
            rid, 0.1, False, None,
            EstimateRecord(tuple(u), tuple(u), True, False, iterations=1, loglik=0.0),
            score=tuple(u), sup_dist=0.0,
        )
        for rid, u in enumerate(us)
    ]


def _gamma(matrix) -> GammaMatrix:
    matrix = np.asarray(matrix, dtype=float)
    eig = float(np.linalg.eigvalsh(matrix)[0])
    return GammaMatrix(matrix=matrix, min_eigenvalue=eig, a5_ok=eig > 0.0)


# the normality report of a study is its per-epsilon summary; summarize_epsilon builds it
def test_normality_report_self_test():
    rng = np.random.default_rng(9)
    gamma = _gamma([[0.5]])
    ginv = np.linalg.inv(gamma.matrix)
    samples = rng.standard_normal((300, 1)) @ symmetric_sqrt(ginv)
    s = summarize_epsilon(0.1, _packed(samples), gamma, ginv)
    assert s.cov_rel_error <= 0.2
    assert abs(s.skewness[0]) <= 0.35
    assert abs(s.excess_kurtosis[0]) <= 0.7


def test_normality_report_constant_samples_degenerate():
    # a degenerate sample covariance leaves skewness and kurtosis unset
    gamma = _gamma([[1.0]])
    s = summarize_epsilon(0.1, _packed(np.full((50, 1), 2.0)), gamma, np.linalg.inv(gamma.matrix))
    assert np.isnan(s.skewness).all() and np.isnan(s.excess_kurtosis).all()


def test_normality_report_alternating_signs():
    gamma = _gamma([[1.0]])
    n = 100
    samples = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])[:, None]
    s = summarize_epsilon(0.1, _packed(samples), gamma, np.linalg.inv(gamma.matrix))
    assert s.mean_u[0] == 0.0
    assert s.cov_u[0, 0] == pytest.approx(n / (n - 1))


def test_summarize_epsilon_matches_numpy_and_scipy_oracle():
    from scipy import stats

    gamma = _gamma([[2.0, 0.3], [0.3, 1.0]])
    ginv = np.linalg.inv(gamma.matrix)
    us = np.random.default_rng(12).standard_normal((40, 2)) @ symmetric_sqrt(ginv)
    s = summarize_epsilon(0.1, _packed(us), gamma, ginv)
    cov = np.cov(us, rowvar=False, ddof=1)
    std = us @ symmetric_sqrt(gamma.matrix)
    assert s.n_ok == 40 and s.n_failed == 0
    assert np.array_equal(s.mean_u, np.mean(us, axis=0)) and np.array_equal(s.cov_u, cov)
    assert s.cov_rel_error == float(np.linalg.norm(cov - ginv) / np.linalg.norm(ginv))
    assert np.array_equal(s.skewness, [stats.skew(std[:, j]) for j in range(2)])
    assert np.array_equal(s.excess_kurtosis, [stats.kurtosis(std[:, j]) for j in range(2)])
    assert np.all(np.isfinite(s.skewness))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(30, 3000), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), heavy=st.booleans())
def test_skew_kurtosis_matches_scipy_column_by_column(n, m, seed, heavy):
    from scipy import stats

    rng = np.random.default_rng(seed)
    std = rng.standard_t(3, (n, m)) if heavy else rng.standard_normal((n, m)) * rng.uniform(0.1, 10.0, m)
    skew, kurt = _skew_kurtosis(std)
    assert np.array_equal(skew, [stats.skew(std[:, j]) for j in range(m)])
    assert np.array_equal(kurt, [stats.kurtosis(std[:, j]) for j in range(m)])


def test_summarize_epsilon_skips_shape_moments_below_30():
    gamma = _gamma([[0.5]])
    ginv = np.linalg.inv(gamma.matrix)
    us = np.random.default_rng(13).standard_normal((29, 1))
    s = summarize_epsilon(0.1, _packed(us), gamma, ginv)
    assert s.n_ok == 29 and np.isfinite(s.cov_rel_error)
    assert np.isnan(s.skewness).all() and np.isnan(s.excess_kurtosis).all()


def test_config_validation():
    with pytest.raises(InputError):
        _small_cfg(n_replicates=1)
    with pytest.raises(InputError):
        _small_cfg(epsilons=(1.5,))
    with pytest.raises(InputError, match="epsilons"):
        _small_cfg(epsilons=())


@pytest.mark.parametrize("name, value", [("seed", 1.5), ("seed", "7"), ("n_replicates", 2.5), ("n_replicates", "4")])
def test_study_config_integer_fields_take_integers_only(name, value):
    with pytest.raises(InputError, match=name):
        _small_cfg(**{name: value})


def test_study_config_integer_fields_become_python_ints():
    cfg = _small_cfg(seed=np.int64(7), n_replicates=np.int32(3))
    assert (cfg.seed, cfg.n_replicates) == (7, 3)
    assert type(cfg.seed) is int and type(cfg.n_replicates) is int


def test_moment_convergence_small():
    # E|u|^2 approaches trace(Gamma^-1) as eps decreases (within MC noise)
    cfg = _small_cfg(
        epsilons=(0.1, 0.05, 0.03), n_replicates=150, n_coarse=256, seed=20250810
    )
    summary = run_study(cfg)
    trace = float(np.trace(summary.gamma_inv))
    finals = [s.mean_sq_u for s in summary.per_eps]
    assert abs(finals[-1] - trace) / trace <= 0.3
    # the small-noise rate surfaces in the study: mean sup-distance ~ eps
    from scipy.stats import linregress

    eps = [s.epsilon for s in summary.per_eps]
    sups = [s.mean_sup_dist for s in summary.per_eps]
    slope = linregress(np.log(eps), np.log(sups)).slope
    assert 0.85 <= slope <= 1.15


def _ensure_explosive_model():
    # cubic blow-up model shared by the failure-path tests
    from fracmle import register
    from fracmle.errors import InputError as _IE
    from fracmle.model import ModelSpec, _zeros_theta_derivs

    name = "explode-study-test"
    lin = get_model("linear1d")
    try:
        get_model(name)
    except _IE:
        register(
            ModelSpec(
                name=name,
                d=1,
                r=1,
                m=1,
                theta_domain=[[0.1, 5.0]],
                drift=lambda x, th: th[0] * x**3,
                drift_dx=lambda x, th: (3 * th[0] * x**2)[:, :, None],
                drift_dtheta=(lambda x, th: (x**3)[:, :, None],) + _zeros_theta_derivs(1, 1, 2),
                diffusion=lin.diffusion,
                diffusion_dx=lin.diffusion_dx,
                diffusion_dxx=lin.diffusion_dxx,
            )
        )
    return name


def _explosive_cfg(n_replicates):
    return StudyConfig(
        model=_ensure_explosive_model(),
        theta0=(5.0,),
        x0=(4.0,),
        hurst=(0.4,),
        epsilons=(0.1,),
        n_replicates=n_replicates,
        n_coarse=64,
        seed=3,
        n_jobs=1,
    )


def test_replicate_failure_recorded():
    res = run_replicate(_explosive_cfg(2), 0.1, 0)
    assert res.failed and "DivergenceError" in res.fail_reason
    assert res.record is None
    doc = res.to_json_dict()
    assert doc["failed"] and doc["theta_hat"] is None


def test_unsolvable_limit_ends_inline_study_before_any_replicate(monkeypatch):
    # inline, Gamma comes first: an ODE limit that overflows inside an RK4 step ends the
    # study in a DivergenceError (not an overflow warning) before any driver is sampled
    import fracmle.mcstudy as mc
    from fracmle import DivergenceError

    seeds = []
    real = mc.sample_fbm

    def sample(hurst, grid, seed):
        seeds.append(seed)
        return real(hurst, grid, seed)

    monkeypatch.setattr(mc, "sample_fbm", sample)
    with pytest.raises(DivergenceError, match="ODE flow exceeded blow-up guard at step 1"):
        run_study(_explosive_cfg(3))
    assert seeds == []


@pytest.mark.parametrize("refine", [2.5, 0])
def test_bad_gamma_refine_ends_inline_study_before_any_replicate(refine, monkeypatch):
    import fracmle.mcstudy as mc

    seeds = []
    monkeypatch.setattr(mc, "sample_fbm", lambda hurst, grid, seed: seeds.append(seed))
    with pytest.raises(InputError, match="refine must be a positive integer"):
        run_study(_small_cfg(gamma_refine=refine))
    assert seeds == []


def test_pool_cancels_pending_blocks_when_gamma_fails(monkeypatch):
    # on a pool, Gamma runs while the blocks are queued; when it fails, the blocks not
    # yet started are cancelled instead of run to completion by the pool's shutdown
    import fracmle.mcstudy as mc
    from fracmle import DivergenceError

    shutdowns, ran = [], []

    class LazyPool:
        # map only queues; shutdown runs the blocks not cancelled, as a real pool does
        def __init__(self, max_workers, mp_context=None):
            self.queued = []

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.shutdown()

        def map(self, fn, *iterables):
            self.queued = [(fn, args) for args in zip(*iterables)]
            return iter(())

        def shutdown(self, wait=True, cancel_futures=False):
            shutdowns.append(cancel_futures)
            if cancel_futures:
                self.queued = []
            for fn, args in self.queued:
                fn(*args)
            self.queued = []

    monkeypatch.setattr(mc, "ProcessPoolExecutor", LazyPool)
    monkeypatch.setattr(mc, "_run_block", lambda cfg, epsilons, ids: ran.append(ids))
    with pytest.raises(DivergenceError, match="ODE flow exceeded blow-up guard"):
        run_study(dataclasses.replace(_explosive_cfg(6), n_jobs=2))
    assert shutdowns[0] is True
    assert ran == []


def test_study_failure_gate(monkeypatch):
    # more than 20% failed replicates marks the study invalid; failures are
    # counted, never silently dropped
    import fracmle.mcstudy as mc
    from fracmle.errors import DivergenceError

    real = mc.sample_fbm

    def flaky(hurst, grid, seed):
        if seed[1] < 4:
            raise DivergenceError("forced", step=0)
        return real(hurst, grid, seed)

    monkeypatch.setattr(mc, "sample_fbm", flaky)
    summary = run_study(_small_cfg(n_replicates=10))
    s = summary.per_eps[0]
    assert s.n_failed == 4 and s.n_ok == 6
    assert not summary.valid


def test_study_singular_gamma_still_summarizes():
    # theta-independent drift: Gamma = 0; the study reports raw moments
    cfg = _small_cfg(model="zero1d", n_replicates=5, n_coarse=64)
    summary = run_study(cfg)
    assert not summary.gamma.a5_ok
    assert np.isnan(summary.per_eps[0].cov_rel_error)
    assert summary.per_eps[0].n_ok == 5


def _study_bytes(cfg) -> dict:
    """records.jsonl, summary.csv and the manifest without created_at of one study."""
    run_study(cfg)
    out = Path(cfg.output_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["created_at"]
    return {
        "records": (out / "records.jsonl").read_bytes(),
        "summary": (out / "summary.csv").read_bytes(),
        "manifest": json.dumps(manifest, sort_keys=True),
    }


@pytest.mark.parametrize(
    "kw",
    [
        dict(model="linear1d", n_coarse=64),
        dict(
            model="cross2d", theta0=(1.0, 2.0), x0=(1.0, 1.0), hurst=(0.4, 0.45), n_coarse=32,
            refine_level=1,
        ),
    ],
    ids=["linear1d", "cross2d"],
)
def test_study_outputs_independent_of_block_layout(tmp_path, monkeypatch, kw):
    # block sizes 1, 7 and all replicates, inline and on a pool of 2, write the same bytes
    import fracmle.mcstudy as mc

    n_rep = 9
    cfg = _small_cfg(tmp_path, epsilons=(0.1, 0.05), n_replicates=n_rep, n_jobs=None, **kw)
    outputs = []
    for size in (1, 7, n_rep):
        monkeypatch.setattr(mc, "MAX_BLOCK_IDS", size)
        for jobs in ("1", "2"):
            monkeypatch.setenv("FRACMLE_THREADS", jobs)
            outputs.append(_study_bytes(cfg))
    assert all(out == outputs[0] for out in outputs[1:])
    assert len(outputs[0]["records"].splitlines()) == 2 * n_rep


def test_theta_linear_study_evaluates_the_likelihood_once_per_path(monkeypatch):
    # one order-2 evaluation per path gives the estimate and the score at theta0
    import fracmle.inference as inf

    real = inf.likelihood_parts
    orders = []
    monkeypatch.setattr(inf, "likelihood_parts", lambda *a, **kw: orders.append(kw["order"]) or real(*a, **kw))
    summary = run_study(_small_cfg(epsilons=(0.1, 0.05), n_replicates=6))
    assert [s.n_ok for s in summary.per_eps] == [6, 6]
    assert orders == [2] * 12


def test_run_replicate_is_its_block_row():
    import fracmle.mcstudy as mc

    cfg = _small_cfg(epsilons=(0.1, 0.05), n_replicates=5)
    block = mc._run_block(cfg, (0.1, 0.05), range(5))
    assert block == [run_replicate(cfg, eps, rid) for eps in (0.1, 0.05) for rid in range(5)]


def _edge_cfg(tmp_path=None, **kw):
    from fracmle import register

    from conftest import edge_cubic_model

    register(edge_cubic_model("edge-cubic-study-test"), overwrite=True)
    base = dict(model="edge-cubic-study-test", theta0=(5.0,), epsilons=(0.3, 0.1), n_replicates=8)
    base.update(kw)
    return _small_cfg(tmp_path, n_coarse=64, **base)


def test_block_rows_fail_per_path(tmp_path, monkeypatch):
    # in one block, diverging rows fail with their own step and the rest are estimated;
    # each row equals run_replicate, and a block of one id per row writes the same bytes
    import fracmle.mcstudy as mc

    cfg = _edge_cfg(tmp_path)
    block = mc._run_block(cfg, cfg.epsilons, range(cfg.n_replicates))
    reasons = {r.fail_reason for r in block if r.failed}
    assert any(not r.failed for r in block)
    assert len(reasons) >= 2
    assert all(re.fullmatch(r"DivergenceError: solution exceeded blow-up guard at step \d+", why)
               for why in reasons)
    assert block == [run_replicate(cfg, e, rid) for e in cfg.epsilons for rid in range(8)]
    whole = _study_bytes(cfg)
    monkeypatch.setattr(mc, "MAX_BLOCK_IDS", 1)
    assert _study_bytes(cfg) == whole


def test_explosive_block_rows_fail_as_single_path_solves():
    # every row of a block of the explosive model diverges, each as its single-path
    # solve does
    import fracmle.mcstudy as mc
    from fracmle import DivergenceError, lift, sample_fbm, solve_rde

    cfg = _explosive_cfg(3)
    block = mc._run_block(cfg, (0.1, 0.3), range(3))
    assert block == [run_replicate(cfg, e, rid) for e in (0.1, 0.3) for rid in range(3)]
    grid, model = cfg.grid(), cfg.model_spec()
    for res in block:
        rp = lift(sample_fbm(cfg.hurst_vector(), grid, (cfg.seed, res.replicate_id)), grid)
        with pytest.raises(DivergenceError) as err:
            solve_rde(model, cfg.theta0, res.epsilon, rp, cfg.x0)
        assert res.failed and res.fail_reason == f"DivergenceError: {err.value}"


def test_study_solves_each_block_in_one_march(monkeypatch):
    # the solve makes one stacked drift call per step and block, where one call per
    # path and step would be n_paths * n_coarse; each driver is sampled once per id
    import dataclasses

    import fracmle.mcstudy as mc
    from fracmle import register

    calls = {"solve": False, "drift": 0, "seeds": []}
    lin = get_model("linear1d")

    def drift(x, th):
        calls["drift"] += calls["solve"]
        return lin.drift(x, th)

    register(dataclasses.replace(lin, name="linear1d-counted", drift=drift), overwrite=True)
    real_solve, real_sample = mc.solve_rde_batch, mc.sample_fbm

    def solve(*args):
        calls["solve"] = True
        try:
            return real_solve(*args)
        finally:
            calls["solve"] = False

    def sample(hurst, grid, seed):
        calls["seeds"].append(seed)
        return real_sample(hurst, grid, seed)

    monkeypatch.setattr(mc, "solve_rde_batch", solve)
    monkeypatch.setattr(mc, "sample_fbm", sample)
    monkeypatch.setattr(mc, "MAX_BLOCK_IDS", 4)
    cfg = _small_cfg(model="linear1d-counted", epsilons=(0.1, 0.05, 0.03), n_replicates=10, n_coarse=64)
    summary = run_study(cfg)
    assert all(s.n_ok == 10 for s in summary.per_eps)
    n_blocks = 3  # ids 0-3, 4-7, 8-9
    assert 0 < calls["drift"] <= n_blocks * cfg.n_coarse
    assert sorted(calls["seeds"]) == [(cfg.seed, rid) for rid in range(10)]


def test_list_sequences_in_config_are_normalized():
    # a library caller may spell sequences as lists; the config is then hashable and
    # runs, hashes and records exactly as the tuple spelling does
    from fracmle.mcstudy import config_hash

    lists = _small_cfg(
        theta0=[1.0], x0=[1.0], hurst=[0.4], epsilons=[0.1], theta_domain=[[0.1, 5.0]], n_coarse=64
    )
    tuples = _small_cfg(theta_domain=((0.1, 5.0),), n_coarse=64)
    assert lists == tuples and hash(lists) == hash(tuples)
    assert config_hash(lists) == config_hash(tuples)
    assert run_replicate(lists, 0.1, 0) == run_replicate(tuples, 0.1, 0)
    assert run_study(dataclasses.replace(lists, n_replicates=3)).per_eps[0].n_ok == 3


_REGISTERED_MODEL_STUDY = """
import dataclasses, multiprocessing, sys
from fracmle import StudyConfig, get_model, register, run_study

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    register(dataclasses.replace(get_model("linear1d"), name="mylinear"))
    cfg = StudyConfig(model="mylinear", theta0=(1.0,), x0=(1.0,), hurst=(0.4,), epsilons=(0.1,),
                      n_replicates=8, n_coarse=64, seed=5, n_jobs=2)
    print(run_study(cfg).per_eps[0].n_ok)
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_registered_model_study_runs_under_start_method(tmp_path, method):
    # study workers fork where the platform can, so they know the models added with register
    import multiprocessing
    import subprocess
    import sys

    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} is not available on this platform")
    script = tmp_path / "study.py"
    script.write_text(_REGISTERED_MODEL_STUDY)
    res = subprocess.run([sys.executable, str(script), method], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "8"
