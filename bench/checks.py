"""Output checks of the pipeline benchmark.

Every check compares the program's output with a computation made apart from
the program, or with a property the method must have; none compares with a
stored copy of earlier output. Each check is also run on a perturbed copy of
the same output and must reject it, so a check that cannot fail does not
count as passing.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate, optimize
from scipy.special import gamma as gamma_fn

# Monte Carlo checks accept deviations up to this many standard errors, on top
# of an allowance for the estimator's finite-eps and discretization bias: with
# 240 replicates per eps, mean(u) sits 0.08-0.21 sd from 0 and the whitened
# covariance diagonal 0.92-1.14, on linear1d and cross2d alike.
MC_SIGMAS = 5.0
MEAN_BIAS_SD = 0.3
COV_BIAS = 0.25
# absolute tolerance of Gamma against the quadrature reference (the program's
# error is about 4e-4 at 2048 nodes and 1.8e-3 at 512)
GAMMA_REF_TOL = 2e-3
# max / min of mean_sup_dist / eps across the epsilon levels
SUP_RATIO_TOL = 1.1
# Gamma refinement: the last difference must shrink below this share of the one before
REFINE_SHRINK = 0.8
THETA_TOL = 1e-6


class CheckLog:
    """Results of (check, perturbed check) pairs; correct when every real output
    passes and every perturbed output is rejected."""

    def __init__(self):
        self.rows = []

    def run(self, name: str, fn, real: tuple, perturbed: tuple) -> None:
        ok, detail = fn(*real)
        caught = not fn(*perturbed)[0]
        self.rows.append((name, bool(ok), caught, detail))

    @property
    def correct(self) -> bool:
        return all(ok and caught for _, ok, caught, _ in self.rows)

    def lines(self) -> list:
        return [
            f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}; perturbed output "
            f"{'rejected' if caught else 'ACCEPTED'}"
            for name, ok, caught, detail in self.rows
        ]


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.sqrt(vals)) @ vecs.T


def linear1d_gamma_reference(hurst: float, theta: float, T: float, x0: float) -> float:
    """Gamma of linear1d on the ODE limit x(t) = x0 exp(-theta t), by nested
    adaptive quadrature with the algebraic weight s^a (t-s)^(a-1), a = 1/2 - H:
    Gamma = int_0^T q(t)^2 dt, q(t) = d_H^-1 t^-a I^a_{0+}[s^a x(s)](t)."""
    a = 0.5 - hurst
    d_h = math.sqrt(2 * hurst * gamma_fn(1.5 - hurst) * gamma_fn(hurst + 0.5) / gamma_fn(2 - 2 * hurst))

    def q(t):
        if t <= 0.0:
            return 0.0
        inner, _ = integrate.quad(lambda s: x0 * math.exp(-theta * s), 0.0, t, weight="alg",
                                  wvar=(a, a - 1.0))
        return t**-a * inner / (gamma_fn(a) * d_h)

    val, _ = integrate.quad(lambda t: q(t) ** 2, 0.0, T, epsabs=1e-12, epsrel=1e-10, limit=200)
    return val


def bounded_argmax(fn, lo: float, hi: float) -> float:
    """Independent maximizer of a scalar function on [lo, hi] (bounded Brent)."""
    res = optimize.minimize_scalar(lambda x: -fn(x), bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-10})
    return float(res.x)


# checks: each returns (ok, detail)


def gamma_matches_reference(gamma: np.ndarray, ref: float):
    err = abs(float(gamma[0, 0]) - ref)
    return err <= GAMMA_REF_TOL, f"|Gamma - quad| = {err:.2e} (tol {GAMMA_REF_TOL:.0e}, quad {ref:.6f})"


def gamma_spd(gamma: np.ndarray):
    asym = float(np.max(np.abs(gamma - gamma.T)))
    min_eig = float(np.linalg.eigvalsh(0.5 * (gamma + gamma.T))[0])
    return asym <= 1e-12 * float(np.max(np.abs(gamma))) and min_eig > 0.0, (
        f"asymmetry {asym:.1e}, min eigenvalue {min_eig:.4g}"
    )


def gamma_converges(g1: np.ndarray, g2: np.ndarray, g4: np.ndarray):
    d21 = float(np.linalg.norm(g2 - g1))
    d42 = float(np.linalg.norm(g4 - g2))
    return d42 <= REFINE_SHRINK * d21, (
        f"|G(4)-G(2)| = {d42:.2e} vs |G(2)-G(1)| = {d21:.2e} (must shrink below {REFINE_SHRINK})"
    )


def gamma_same(a: np.ndarray, b: np.ndarray, what: str):
    diff = float(np.max(np.abs(a - b)))
    return diff <= 1e-12 * float(np.max(np.abs(a))), f"{what} differ by {diff:.1e}"


def cov_matches(u: np.ndarray, gamma: np.ndarray):
    """Whitened sample covariance Gamma^1/2 S Gamma^1/2 against the identity,
    entry by entry, within COV_BIAS plus MC_SIGMAS standard errors (sqrt(2/N)
    on the diagonal, sqrt(1/N) off it)."""
    n, m = u.shape
    root = _sym_sqrt(gamma)
    w = root @ np.cov(u, rowvar=False, ddof=1).reshape(m, m) @ root
    se = np.where(np.eye(m, dtype=bool), math.sqrt(2.0 / n), math.sqrt(1.0 / n))
    tol = COV_BIAS + MC_SIGMAS * se
    dev = np.abs(w - np.eye(m))
    return bool(np.all(dev <= tol)), (
        f"N={n}, whitened cov diag {np.round(np.diag(w), 3).tolist()}, max |dev|/tol {np.max(dev / tol):.2f}"
    )


def mean_near_zero(u: np.ndarray, gamma: np.ndarray):
    """Whitened mean Gamma^1/2 mean(u) within MEAN_BIAS_SD plus MC_SIGMAS
    standard errors (1/sqrt(N)) of 0, coordinate by coordinate."""
    n = u.shape[0]
    mean = _sym_sqrt(gamma) @ u.mean(axis=0)
    tol = MEAN_BIAS_SD + MC_SIGMAS / math.sqrt(n)
    return bool(np.all(np.abs(mean) <= tol)), (
        f"N={n}, whitened mean {np.round(mean, 3).tolist()}, tol {tol:.3f}"
    )


def sup_dist_linear(epsilons: list, mean_sup: list):
    ratios = np.asarray(mean_sup) / np.asarray(epsilons)
    spread = float(ratios.max() / ratios.min())
    return spread <= SUP_RATIO_TOL, f"mean_sup_dist/eps = {np.round(ratios, 4).tolist()}, max/min {spread:.4f}"


def records_match(pooled: list, inproc: list):
    """Pooled records.jsonl lines against in-process run_replicate records."""
    same = sum(a == b for a, b in zip(pooled, inproc))
    return same == len(pooled) and len(pooled) == len(inproc), f"{same}/{len(pooled)} sampled records equal"


def thetas_match(theta_hat: list, theta_ref: list):
    err = max(abs(a - b) for a, b in zip(theta_hat, theta_ref))
    return err <= THETA_TOL, f"max |theta_hat - bounded argmax| = {err:.1e} over {len(theta_hat)} paths"


def rounds_identical(rounds: list):
    same = all(r == rounds[0] for r in rounds)
    return same, f"{len(rounds)} rounds give {'identical' if same else 'different'} estimates"


def record_doc(result) -> dict:
    """A ReplicateResult as its records.jsonl line reads back."""
    return json.loads(json.dumps(result.to_json_dict(), sort_keys=True))
