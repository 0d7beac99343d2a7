"""Reproducible Monte Carlo studies of the estimator's limit behavior.

Each replicate runs the full pipeline sample -> lift -> solve ->
transform -> estimate, with its RNG stream indexed by (seed,
replicate_id, component), so results are independent of the parallel
execution layout and byte-identical across runs. Studies run in blocks of
replicate ids: each id's driver is sampled and lifted once and shared by
every epsilon level, and all (epsilon, id) paths of a block are solved in
one batched march, with one call of each callback per step. On every
layout the calling process solves the ODE limit once and finishes Gamma
from it before any block starts; the blocks compare their paths with that
limit, and a failure of the limit or of Gamma starts no block. Failed
replicates (divergence, optimization failure) are recorded and excluded
from the moments, never silently dropped; a study with more than 20%
failures is marked invalid.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import multiprocessing
import operator
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, FracmleError, InputError, ResourceError, StandardizationError
from .fbm import HurstVector, TimeGrid, lift, sample_fbm
from .inference import (
    EstimateRecord,
    GammaMatrix,
    OptimizerConfig,
    _gamma_from_limit,
    build_context,
    mle,
)
from .model import ModelSpec, get_model, numeric_box, spd_inverse
from .rde import solve_ode, solve_rde_batch, sup_distance

log = logging.getLogger(__name__)

MAX_FAILED_FRACTION = 0.2
EIGENVALUE_FLOOR = 1e-12
# replicate ids per block: bounds the drivers and paths a block holds at once
MAX_BLOCK_IDS = 32


@dataclass(frozen=True)
class StudyConfig:
    model: str
    theta0: tuple
    x0: tuple
    hurst: tuple
    epsilons: tuple
    n_replicates: int
    T: float = 1.0
    n_coarse: int = 512
    refine_level: int = 0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0
    output_dir: str | None = None
    theta_domain: tuple | None = None
    gamma_refine: int = 1
    n_jobs: int | None = None

    def __post_init__(self):
        # tuples, so that a config built from lists is hashable like one built from tuples
        for name in ("theta0", "x0", "hurst", "epsilons"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.theta_domain is not None:
            numeric_box(self.theta_domain)
            object.__setattr__(self, "theta_domain", tuple(map(tuple, self.theta_domain)))
        for name in ("n_replicates", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise InputError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.n_replicates < 2:
            raise InputError("n_replicates must be at least 2")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        if not self.epsilons:
            raise InputError("epsilons must hold at least one level")
        for e in self.epsilons:
            if not 0.0 < e <= 1.0:
                raise InputError(f"epsilon {e} outside (0, 1]")

    def grid(self) -> TimeGrid:
        return TimeGrid(self.T, self.n_coarse, self.refine_level)

    def hurst_vector(self) -> HurstVector:
        return HurstVector(tuple(self.hurst))

    def model_spec(self) -> ModelSpec:
        spec = get_model(self.model)
        if self.theta_domain is not None:
            spec = spec.with_domain(self.theta_domain)
        return spec

    def canonical_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ReplicateResult:
    replicate_id: int
    epsilon: float
    failed: bool
    fail_reason: str | None
    record: EstimateRecord | None
    score: tuple | None  # eps * grad loglik at theta0
    sup_dist: float | None

    def to_json_dict(self) -> dict:
        doc = {
            "replicate_id": self.replicate_id,
            "epsilon": self.epsilon,
            "failed": self.failed,
            "fail_reason": self.fail_reason,
            "score": None if self.score is None else list(self.score),
            "sup_dist": self.sup_dist,
        }
        doc.update(self.record.to_json_dict() if self.record else {"theta_hat": None})
        return doc


@dataclass(frozen=True)
class EpsSummary:
    epsilon: float
    n_ok: int
    n_failed: int
    mean_u: np.ndarray
    cov_u: np.ndarray
    cov_rel_error: float
    skewness: np.ndarray
    excess_kurtosis: np.ndarray
    mean_sq_u: float
    mean_sup_dist: float
    score_mean: np.ndarray
    score_cov: np.ndarray


@dataclass(frozen=True)
class StudySummary:
    config: StudyConfig
    gamma: GammaMatrix
    gamma_inv: np.ndarray
    per_eps: tuple
    valid: bool


def _ode_limit(cfg: StudyConfig):
    """The ODE limit on the replicate grid cfg.grid(), or the FracmleError its solve raised."""
    try:
        return solve_ode(cfg.model_spec(), cfg.theta0, np.asarray(cfg.x0), cfg.grid())
    except FracmleError as exc:
        return exc


def _finish(cfg: StudyConfig, model: ModelSpec, epsilon: float, replicate_id: int, outcome, ode):
    """Transform, estimate, score and sup-distance of one solved path; outcome is its
    Trajectory or the error that ended the row before, ode what _ode_limit returned.
    Every failed row is built here."""
    if not isinstance(outcome, FracmleError):
        theta0 = np.asarray(cfg.theta0, dtype=float)
        try:
            ctx = build_context(outcome, model, cfg.hurst_vector())
            record = mle(ctx, cfg.optimizer, theta0=theta0)
            score = tuple((epsilon * np.asarray(record.score)).tolist())
            if not isinstance(ode, FracmleError):
                sdist = sup_distance(outcome, ode)
                return ReplicateResult(replicate_id, float(epsilon), False, None, record, score, sdist)
            outcome = ode
        except FracmleError as exc:
            outcome = exc
    reason = f"{type(outcome).__name__}: {outcome}"
    return ReplicateResult(replicate_id, float(epsilon), True, reason, None, None, None)


def _run_block(cfg: StudyConfig, epsilons: tuple, ids, ode=None) -> list:
    """run_replicate for every (epsilon, id) of a block, epsilon-major.

    Each id's driver is sampled and lifted once and drives that id at every
    epsilon; of it only the coarse increments and areas are kept. All paths
    of the block are solved in one batched march, then finished one by one.
    ode is _ode_limit(cfg), which the block solves itself when it is None.
    """
    if ode is None:
        ode = _ode_limit(cfg)
    model, grid = cfg.model_spec(), cfg.grid()
    outcomes = {}  # (epsilon, id) -> the driver's error, the solve's error or the Trajectory
    drivers = []
    for rid in ids:
        try:
            rp = lift(sample_fbm(cfg.hurst_vector(), grid, (cfg.seed, rid)), grid)
            drivers.append((rid, rp.coarse_increments, rp.coarse_areas))
        except FracmleError as exc:
            outcomes.update(((eps, rid), exc) for eps in epsilons)
    if drivers:
        epss, rids, inc, areas = zip(*((eps,) + drv for eps in epsilons for drv in drivers))
        try:
            paths = solve_rde_batch(model, cfg.theta0, epss, inc, areas, cfg.x0, grid)
        except FracmleError as exc:
            paths = repeat(exc)
        outcomes.update(zip(zip(epss, rids), paths))
    return [_finish(cfg, model, eps, rid, outcomes[eps, rid], ode) for eps in epsilons for rid in ids]


def run_replicate(cfg: StudyConfig, epsilon: float, replicate_id: int) -> ReplicateResult:
    """End-to-end pipeline for one replicate; deterministic given (seed, id).

    The driver stream does not depend on epsilon, so replicates with equal
    ids are driven by the same noise across epsilon levels (matched pairs).
    """
    return _run_block(cfg, (epsilon,), (replicate_id,))[0]


def _n_jobs(cfg: StudyConfig) -> int:
    if cfg.n_jobs is not None:
        return max(1, int(cfg.n_jobs))
    env = os.environ.get("FRACMLE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"FRACMLE_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def symmetric_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Symmetric square root by eigendecomposition with a floor at 1e-12."""
    vals, vecs = np.linalg.eigh(matrix)
    if vals[0] <= 0.0:
        raise StandardizationError(f"matrix not positive definite (min eigenvalue {vals[0]:.3e})")
    vals = np.maximum(vals, EIGENVALUE_FLOOR)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _skew_kurtosis(std: np.ndarray) -> tuple:
    """Per-column skewness m3/m2^1.5 and excess kurtosis m4/m2^2 - 3 of (n, m)
    standardized samples, from the biased central moments of each column."""
    skew, kurt = [], []
    for col in std.T:  # one 1-D reduction per column; a 2-D one rounds differently
        d = col - col.mean()
        d2 = d * d
        m2, m3, m4 = d2.mean(), (d2 * d).mean(), (d2 * d2).mean()
        skew.append(m3 / m2**1.5)
        kurt.append(m4 / m2**2 - 3.0)
    return np.array(skew), np.array(kurt)


def summarize_epsilon(
    epsilon: float, results: list, gamma: GammaMatrix, gamma_inv: np.ndarray
) -> EpsSummary:
    """Moments of one epsilon level. Skewness and kurtosis need at least 30
    successes, a positive definite Gamma and a non-degenerate covariance;
    a singular Gamma comes with a NaN gamma_inv, so cov_rel is NaN too."""
    ok = [res for res in results if not res.failed]
    n_failed = len(results) - len(ok)
    m = gamma.matrix.shape[0]
    nan_v = np.full(m, np.nan)
    if len(ok) < 2:
        nan_m = np.full((m, m), np.nan)
        return EpsSummary(
            epsilon, len(ok), n_failed, nan_v, nan_m, np.nan, nan_v, nan_v, np.nan, np.nan, nan_v, nan_m
        )
    us = np.array([res.record.u for res in ok])
    scores = np.array([res.score for res in ok])
    cov = np.cov(us, rowvar=False, ddof=1).reshape(m, m)
    eigs = np.linalg.eigvalsh(cov)
    degenerate = bool(eigs[0] <= EIGENVALUE_FLOOR * max(1.0, eigs[-1]))
    skew = kurt = nan_v
    if len(ok) >= 30 and gamma.a5_ok and not degenerate:
        skew, kurt = _skew_kurtosis(us @ symmetric_sqrt(gamma.matrix))
    return EpsSummary(
        epsilon=float(epsilon),
        n_ok=len(ok),
        n_failed=n_failed,
        mean_u=us.mean(axis=0),
        cov_u=cov,
        cov_rel_error=float(np.linalg.norm(cov - gamma_inv) / np.linalg.norm(gamma_inv)),
        skewness=skew,
        excess_kurtosis=kurt,
        mean_sq_u=float(np.mean(np.sum(us**2, axis=1))),
        mean_sup_dist=float(np.mean([res.sup_dist for res in ok])),
        score_mean=scores.mean(axis=0),
        score_cov=np.cov(scores, rowvar=False, ddof=1).reshape(m, m),
    )


def _pool_context():
    """fork where the platform has it: forked workers inherit the models added with
    register, which workers that re-import fracmle (spawn, forkserver) would lack."""
    return multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None


def _block_results(cfg: StudyConfig, epsilons: tuple, blocks: list, jobs: int, ode) -> list:
    """The results of all blocks, in block order: on a pool of jobs worker processes
    when jobs > 1 and the platform gives one, else inline."""
    if jobs > 1:
        try:
            with ProcessPoolExecutor(max_workers=jobs, mp_context=_pool_context()) as pool:
                pending = pool.map(_run_block, repeat(cfg), repeat(epsilons), blocks, repeat(ode))
                return [res for block in pending for res in block]
        except BrokenExecutor as exc:  # not a fallback: the blocks would run twice
            raise ResourceError(f"a study worker process died: {exc}") from exc
        except OSError as exc:  # sandboxed environments
            log.warning("process pool unavailable (%s); running serially", exc)
    return [res for ids in blocks for res in _run_block(cfg, epsilons, ids, ode)]


def run_study(cfg: StudyConfig) -> StudySummary:
    """Run all replicates for every epsilon level and aggregate.

    Every layout does the same work in the same order. The calling process
    solves the ODE limit and finishes Gamma from it; a failure of either ends
    the study before any block starts. Then the blocks of replicate ids run
    (all epsilon levels of an id in the same block) and compare their paths
    with that limit: inline (FRACMLE_THREADS or n_jobs of 1), with blocks as
    large as MAX_BLOCK_IDS allows, or on a pool of worker processes, about 4
    blocks per worker to balance its load. Aggregation and file output happen
    in the calling process only, after all blocks joined.
    """
    epsilons = tuple(dict.fromkeys(cfg.epsilons))
    jobs, n = _n_jobs(cfg), cfg.n_replicates
    size = min(MAX_BLOCK_IDS, -(-n // (4 * jobs)) if jobs > 1 else n)
    blocks = [range(lo, min(lo + size, n)) for lo in range(0, n, size)]
    ode = _ode_limit(cfg)
    if isinstance(ode, FracmleError):
        raise ode
    gamma = _gamma_from_limit(cfg.model_spec(), cfg.hurst_vector(), ode, cfg.gamma_refine)
    results = _block_results(cfg, epsilons, blocks, jobs, ode)
    by_eps = {eps: [res for res in results if res.epsilon == eps] for eps in epsilons}

    if gamma.a5_ok:
        gamma_inv = spd_inverse(gamma.matrix)[0]
    else:
        # information matrix degenerate: report raw moments, no standardization
        log.warning("information matrix is singular; normalized diagnostics unavailable")
        gamma_inv = np.full_like(gamma.matrix, np.nan)
    per_eps = tuple(summarize_epsilon(eps, by_eps[eps], gamma, gamma_inv) for eps in epsilons)
    n_total = len(results)
    n_failed = sum(1 for res in results if res.failed)
    valid = n_failed <= MAX_FAILED_FRACTION * n_total
    if not valid:
        log.warning("study invalid: %d/%d replicates failed", n_failed, n_total)
    summary = StudySummary(cfg, gamma, gamma_inv, per_eps, valid)
    if cfg.output_dir is not None:
        write_artifacts(summary, by_eps, epsilons)
    return summary


def _json_line(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def config_hash(cfg: StudyConfig) -> str:
    """Hash of what the study computes: n_jobs and output_dir, which change how and
    where it runs but not its records, are left out."""
    doc = {k: v for k, v in cfg.canonical_dict().items() if k not in ("n_jobs", "output_dir")}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def summary_csv_rows(summary: StudySummary) -> list:
    m = summary.gamma.matrix.shape[0]
    header = (
        ["epsilon", "n_ok", "n_failed"]
        + [f"mean_u_{j + 1}" for j in range(m)]
        + [f"cov_u_{j + 1}{k + 1}" for j in range(m) for k in range(m)]
        + ["cov_rel_error"]
        + [f"skew_{j + 1}" for j in range(m)]
        + [f"kurt_{j + 1}" for j in range(m)]
        + ["mean_sup_dist"]
    )
    rows = [header]
    for s in summary.per_eps:
        rows.append(
            [s.epsilon, s.n_ok, s.n_failed]
            + list(np.atleast_1d(s.mean_u))
            + list(np.asarray(s.cov_u).ravel())
            + [s.cov_rel_error]
            + list(np.atleast_1d(s.skewness))
            + list(np.atleast_1d(s.excess_kurtosis))
            + [s.mean_sup_dist]
        )
    return rows


def write_artifacts(summary: StudySummary, by_eps: dict, epsilons) -> None:
    out = Path(summary.config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "records.jsonl", "w") as fh:
        for eps in epsilons:
            for res in by_eps[eps]:
                fh.write(_json_line(res.to_json_dict()))
    with open(out / "summary.csv", "w") as fh:
        for row in summary_csv_rows(summary):
            fh.write(",".join(str(v) for v in row) + "\n")
    manifest = {
        "config": summary.config.canonical_dict(),
        "config_hash": config_hash(summary.config),
        "code_version": __version__,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "gamma": summary.gamma.matrix.tolist(),
        "gamma_inv": summary.gamma_inv.tolist(),
        "valid": summary.valid,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
