"""Controlled rough paths and the compensated-sum rough integral.

A controlled path lives on the coarse grid of its driver. Matrix-valued
paths have values of shape (N+1, d, r) and Gubinelli derivative of shape
(N+1, d, r, r); state-valued paths (the solution itself) have values
(N+1, d) and derivative (N+1, d, r). The second-level contraction follows
the solver convention: (Z' Area)_a = sum_{i,j} Z'[a,i,j] Area[j,i].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .fbm import RoughPath, _gap_list

REMAINDER_ALL_PAIRS_LIMIT = 1024


@dataclass(frozen=True)
class ControlledPath:
    """Path Z with Gubinelli derivative Z' against a fixed rough driver."""

    values: np.ndarray
    gubinelli: np.ndarray
    driver: RoughPath

    def __post_init__(self):
        n = self.driver.grid.n_coarse
        if self.values.shape[0] != n + 1 or self.gubinelli.shape[0] != n + 1:
            raise InputError("controlled path must be sampled on the driver's coarse nodes")
        if self.gubinelli.shape != self.values.shape + (self.driver.r,):
            raise InputError(
                f"gubinelli shape {self.gubinelli.shape} does not extend values "
                f"shape {self.values.shape} by the driver dimension"
            )


def rough_integral(z: ControlledPath, rp: RoughPath, s: float, t: float) -> np.ndarray:
    """Compensated sum over coarse steps in [s, t] of Z dB + Z' Area.

    Accumulation is left-to-right, so the integral over [s, t] is the
    continuation of the one over [s, u]; additivity over adjacent
    intervals holds up to the final float rounding.
    """
    if z.driver is not rp:
        raise InputError("controlled path is not controlled by this driver")
    if z.values.ndim != 3:
        raise InputError("rough_integral needs a matrix-valued controlled path (N+1, d, r)")
    grid = rp.grid
    i, j = grid.coarse_index(s), grid.coarse_index(t)
    if i > j:
        raise InputError(f"need s <= t, got ({s}, {t})")
    d = z.values.shape[1]
    acc = np.zeros(d)
    for k in range(i, j):
        acc = acc + z.values[k] @ rp.coarse_increments[k]
        acc = acc + np.einsum("aij,ji->a", z.gubinelli[k], rp.coarse_areas[k])
    return acc


def controlled_compose(phi, phi_dx, x: ControlledPath) -> ControlledPath:
    """Push a state-valued controlled path through a C^2 map phi: R^d -> R^(d x r).

    Values become phi(X_t); the Gubinelli derivative becomes
    grad phi(X_t) X'_t by the chain rule.
    """
    if x.values.ndim != 2:
        raise InputError("controlled_compose expects a state-valued controlled path (N+1, d)")
    n1, d = x.values.shape
    r = x.driver.r
    vals = np.empty((n1, d, r))
    gub = np.empty((n1, d, r, r))
    for k in range(n1):
        vals[k] = np.asarray(phi(x.values[k]), dtype=float).reshape(d, r)
        dphi = np.asarray(phi_dx(x.values[k]), dtype=float).reshape(d, r, d)
        gub[k] = np.einsum("aic,cj->aij", dphi, x.gubinelli[k])
    return ControlledPath(values=vals, gubinelli=gub, driver=x.driver)


def remainder_seminorm(z: ControlledPath, two_alpha: float) -> float:
    """2-alpha seminorm of R_{s,t} = Z_{s,t} - Z'_s B_{s,t} over coarse-node pairs.

    All pairs up to REMAINDER_ALL_PAIRS_LIMIT nodes, dyadic gaps and the
    full span beyond.
    """
    rp = z.driver
    nodes = rp.grid.coarse_nodes()
    cb = rp.coarse_values()
    best = 0.0
    flat_axes = tuple(range(1, z.values.ndim))
    for gap in _gap_list(rp.grid.n_coarse, REMAINDER_ALL_PAIRS_LIMIT):
        dz = z.values[gap:] - z.values[:-gap]
        dbv = cb[gap:] - cb[:-gap]
        lin = np.einsum("k...j,kj->k...", z.gubinelli[:-gap], dbv)
        rem = dz - lin
        num = np.sqrt((rem**2).sum(axis=flat_axes))
        den = (nodes[gap:] - nodes[:-gap]) ** two_alpha
        best = max(best, float(np.max(num / den)))
    return best


def remainder_exponent_fit(z: ControlledPath, rp: RoughPath, alpha: float):
    """Fit the scaling exponent of the one-step compensated-sum residual.

    For dyadic intervals [s, t] the residual
    integral(s, t) - Z_s B_{s,t} - Z'_s Area_{s,t} is collected, its mean
    magnitude per interval length is regressed against log |t-s|, and the
    slope is returned. Returns the sentinel "exact" when every residual is
    below 1e-14 (the compensated sum then telescopes algebraically).
    """
    grid = rp.grid
    n = grid.n_coarse
    if n < 64:
        raise InputError(f"need at least 64 coarse nodes, got {n}")
    sub = grid.substeps
    lengths = []
    means = []
    size = n // 2
    while size >= 4:
        residuals = []
        for start in range(0, n - size + 1, size):
            s_t, t_t = grid.coarse_nodes()[[start, start + size]]
            full = rough_integral(z, rp, s_t, t_t)
            one = z.values[start] @ rp.increment(start * sub, (start + size) * sub)
            one = one + np.einsum(
                "aij,ji->a", z.gubinelli[start], rp.area(start * sub, (start + size) * sub)
            )
            residuals.append(np.linalg.norm(full - one))
        mean = float(np.mean(residuals))
        if mean > 1e-14:
            lengths.append(size * grid.dt)
            means.append(mean)
        size //= 2
    if len(means) < 2:
        return "exact"
    # least-squares slope of log(mean) on log(length)
    x, y = np.log(lengths), np.log(means)
    x = x - x.mean()
    return float(x @ (y - y.mean()) / (x @ x))
