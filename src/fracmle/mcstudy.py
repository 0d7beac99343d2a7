"""Reproducible Monte Carlo studies of the estimator's limit behavior.

Each replicate runs the full pipeline sample -> lift -> solve ->
transform -> estimate, with its RNG stream indexed by (seed,
replicate_id, component), so results are independent of the parallel
execution layout and byte-identical across runs. Failed replicates
(divergence, optimization failure) are recorded and excluded from the
moments, never silently dropped; a study with more than 20% failures is
marked invalid.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, FracmleError, InputError, StandardizationError
from .fbm import HurstVector, TimeGrid, lift, sample_fbm
from .inference import (
    EstimateRecord,
    GammaMatrix,
    OptimizerConfig,
    build_context,
    gamma_matrix,
    likelihood_parts,
    mle,
)
from .model import ModelSpec, get_model
from .rde import solve_ode, solve_rde, sup_distance

log = logging.getLogger(__name__)

MAX_FAILED_FRACTION = 0.2
EIGENVALUE_FLOOR = 1e-12


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
        if self.n_replicates < 2:
            raise InputError("n_replicates must be at least 2")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
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
        doc = dataclasses.asdict(self)
        doc["optimizer"] = dataclasses.asdict(self.optimizer)
        return doc


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
class NormalityReport:
    n: int
    mean: np.ndarray
    cov: np.ndarray
    cov_rel_error: float
    skewness: np.ndarray
    excess_kurtosis: np.ndarray
    degenerate: bool


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


@lru_cache(maxsize=16)
def _ode_states(model_name: str, theta_domain, theta0, x0, T, n_coarse, refine_level):
    spec = get_model(model_name)
    if theta_domain is not None:
        spec = spec.with_domain(theta_domain)
    grid = TimeGrid(T, n_coarse, refine_level)
    return solve_ode(spec, theta0, np.asarray(x0), grid)


def run_replicate(cfg: StudyConfig, epsilon: float, replicate_id: int) -> ReplicateResult:
    """End-to-end pipeline for one replicate; deterministic given (seed, id).

    The driver stream does not depend on epsilon, so replicates with equal
    ids are driven by the same noise across epsilon levels (matched pairs).
    """
    model = cfg.model_spec()
    grid = cfg.grid()
    hv = cfg.hurst_vector()
    theta0 = np.asarray(cfg.theta0, dtype=float)
    x0 = np.asarray(cfg.x0, dtype=float)
    try:
        path = sample_fbm(hv, grid, (cfg.seed, replicate_id))
        rp = lift(path, grid)
        traj = solve_rde(model, theta0, epsilon, rp, x0)
        ctx = build_context(traj, model, hv)
        record = mle(ctx, cfg.optimizer, theta0=theta0)
        _, grad0, _ = likelihood_parts(ctx, theta0, order=1)
        score = tuple((epsilon * grad0).tolist())
        ode = _ode_states(
            cfg.model, cfg.theta_domain, tuple(theta0), tuple(x0), cfg.T, cfg.n_coarse, cfg.refine_level
        )
        sdist = sup_distance(traj, ode)
        return ReplicateResult(replicate_id, float(epsilon), False, None, record, score, sdist)
    except FracmleError as exc:
        return ReplicateResult(
            replicate_id, float(epsilon), True, f"{type(exc).__name__}: {exc}", None, None, None
        )


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


def _moments(samples: np.ndarray, gamma_inv: np.ndarray) -> tuple:
    """(mean, cov, cov_rel, degenerate) of (n, m) samples; cov_rel is the
    relative Frobenius distance of the sample covariance to gamma_inv."""
    m = samples.shape[1]
    mean = samples.mean(axis=0)
    cov = np.cov(samples, rowvar=False, ddof=1).reshape(m, m)
    cov_rel = float(np.linalg.norm(cov - gamma_inv) / np.linalg.norm(gamma_inv))
    eigs = np.linalg.eigvalsh(cov)
    degenerate = bool(eigs[0] <= EIGENVALUE_FLOOR * max(1.0, eigs[-1]))
    return mean, cov, cov_rel, degenerate


def _skew_kurtosis(std: np.ndarray) -> tuple:
    """Per-column skewness and excess kurtosis of (n, m) standardized samples."""
    # imported here so that importing the package does not load scipy.stats
    from scipy import stats as sp_stats

    m = std.shape[1]
    skew = np.array([float(sp_stats.skew(std[:, j])) for j in range(m)])
    kurt = np.array([float(sp_stats.kurtosis(std[:, j], fisher=True)) for j in range(m)])
    return skew, kurt


def normality_report(samples: np.ndarray, gamma: GammaMatrix) -> NormalityReport:
    """Moment diagnostics of normalized errors against N(0, Gamma^-1).

    Samples are standardized through the symmetric square root of Gamma
    for the skewness and excess kurtosis.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    n, m = samples.shape
    if n < 30:
        raise InputError(f"need at least 30 samples, got {n}")
    root = symmetric_sqrt(gamma.matrix)  # before inv: a singular Gamma is a StandardizationError
    mean, cov, cov_rel, degenerate = _moments(samples, np.linalg.inv(gamma.matrix))
    skew = kurt = np.full(m, np.nan)
    if not degenerate:
        skew, kurt = _skew_kurtosis(samples @ root)
    return NormalityReport(n, mean, cov, cov_rel, skew, kurt, degenerate)


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
    mean, cov, cov_rel, degenerate = _moments(us, gamma_inv)
    skew = kurt = nan_v
    if len(ok) >= 30 and gamma.a5_ok and not degenerate:
        skew, kurt = _skew_kurtosis(us @ symmetric_sqrt(gamma.matrix))
    return EpsSummary(
        epsilon=float(epsilon),
        n_ok=len(ok),
        n_failed=n_failed,
        mean_u=mean,
        cov_u=cov,
        cov_rel_error=cov_rel,
        skewness=skew,
        excess_kurtosis=kurt,
        mean_sq_u=float(np.mean(np.sum(us**2, axis=1))),
        mean_sup_dist=float(np.mean([res.sup_dist for res in ok])),
        score_mean=scores.mean(axis=0),
        score_cov=np.cov(scores, rowvar=False, ddof=1).reshape(m, m),
    )


def _study_gamma(cfg: StudyConfig) -> GammaMatrix:
    return gamma_matrix(
        cfg.model_spec(),
        np.asarray(cfg.theta0),
        cfg.hurst_vector(),
        cfg.grid(),
        np.asarray(cfg.x0),
        refine=cfg.gamma_refine,
    )


def run_study(cfg: StudyConfig) -> StudySummary:
    """Run all replicates for every epsilon level and aggregate.

    Replicates execute in parallel worker processes (FRACMLE_THREADS or
    n_jobs; 1 runs inline) while the calling process computes Gamma;
    aggregation and file output happen in the calling process only, after
    all replicates joined.
    """
    epsilons = tuple(dict.fromkeys(cfg.epsilons))
    tasks = [(cfg, eps, rid) for eps in epsilons for rid in range(cfg.n_replicates)]
    jobs = _n_jobs(cfg)
    results = gamma = None
    if jobs > 1 and len(tasks) > 1:
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                chunk = max(1, len(tasks) // (4 * jobs))
                pending = pool.map(run_replicate, *zip(*tasks), chunksize=chunk)
                gamma = _study_gamma(cfg)
                results = list(pending)
        except OSError as exc:  # sandboxed environments
            log.warning("process pool unavailable (%s); running serially", exc)
            results = None
    if results is None:
        results = [run_replicate(*t) for t in tasks]
    if gamma is None:
        gamma = _study_gamma(cfg)

    by_eps: dict = {eps: [] for eps in epsilons}
    for res in results:
        by_eps[res.epsilon].append(res)
    for eps in epsilons:
        by_eps[eps].sort(key=lambda res: res.replicate_id)

    if gamma.a5_ok:
        gamma_inv = np.linalg.inv(gamma.matrix)
    else:
        # information matrix degenerate: report raw moments, no standardization
        log.warning("information matrix is singular; normalized diagnostics unavailable")
        gamma_inv = np.full_like(gamma.matrix, np.nan)
    per_eps = tuple(summarize_epsilon(eps, by_eps[eps], gamma, gamma_inv) for eps in epsilons)
    n_total = len(tasks)
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
    blob = json.dumps(cfg.canonical_dict(), sort_keys=True, separators=(",", ":"))
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
