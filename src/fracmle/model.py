"""Parametric drift/diffusion model bundles and numerical assumption probes.

Models are immutable callback bundles registered by name. Callbacks take
single states: drift(x, theta) -> (d,), drift_dx -> (d, d) with
[a, c] = d b_a / d x_c, drift_dtheta[k-1] -> (d, m, ..., m) with k theta
axes, diffusion(x) -> (d, r), diffusion_dx -> (d, r, d), diffusion_dxx
-> (d, r, d, d). A model may declare vectorized=True, in which case every
callback also accepts a stacked x of shape (n, d) and returns the
corresponding (n, ...) stack; the pipeline then evaluates whole paths in
one call, and the assumption probe evaluates each callback once per
parameter draw over its whole state lattice.

A model whose drift is affine in theta, b(x, theta) = b0(x) + B(x) theta,
may declare theta_linear=True. Its log-likelihood is then exactly
quadratic in theta, so the estimator expands it once at the centre of the
parameter box and optimizes on that expansion instead of re-evaluating
the likelihood. The declaration is checked on every path the expansion is
built from: if drift_dtheta[1] is not exactly zero there, the estimator
raises InputError.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .errors import EllipticityError, InputError, ParameterDomainError

ELLIPTICITY_FLOOR = 1e-12
# probe estimates above this bound fail their assumption flag
PROBE_BOUND = 1e6


@dataclass(frozen=True)
class ModelSpec:
    name: str
    d: int
    r: int
    m: int
    theta_domain: np.ndarray  # (m, 2) open box; closure used for argmax
    drift: Callable
    drift_dx: Callable
    drift_dtheta: tuple  # callables for theta-derivative orders 1..4
    diffusion: Callable
    diffusion_dx: Callable
    diffusion_dxx: Callable
    vectorized: bool = False
    theta_linear: bool = False  # drift affine in theta; see module docstring

    def __post_init__(self):
        dom = np.asarray(self.theta_domain, dtype=float)
        if dom.shape != (self.m, 2) or not np.all(np.isfinite(dom)):
            raise InputError(f"theta_domain {dom.tolist()} is not {self.m} finite (lo, hi) pairs")
        if np.any(dom[:, 0] >= dom[:, 1]):
            raise InputError(f"degenerate parameter box {dom.tolist()}")
        dom.setflags(write=False)
        object.__setattr__(self, "theta_domain", dom)
        if len(self.drift_dtheta) != 4:
            raise InputError("drift_dtheta must supply orders 1..4")

    def contains_theta(self, theta) -> bool:
        theta = np.asarray(theta, dtype=float)
        return bool(
            np.all(theta >= self.theta_domain[:, 0]) and np.all(theta <= self.theta_domain[:, 1])
        )

    def check_theta(self, theta) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != (self.m,):
            raise InputError(f"theta has shape {theta.shape}, model expects ({self.m},)")
        if not np.all(np.isfinite(theta)):
            raise InputError("non-finite theta")
        if not self.contains_theta(theta):
            raise ParameterDomainError(
                f"theta {theta.tolist()} outside closure of {self.theta_domain.tolist()}"
            )
        return theta

    def clamp_theta(self, theta) -> np.ndarray:
        return np.clip(theta, self.theta_domain[:, 0], self.theta_domain[:, 1])

    def with_domain(self, theta_domain) -> "ModelSpec":
        """Same model on a different parameter box (config override)."""
        return replace(self, theta_domain=np.asarray(theta_domain, dtype=float))


def eval_drift(model: ModelSpec, x, theta) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise InputError("non-finite state")
    theta = model.check_theta(theta)
    return np.asarray(model.drift(x, theta), dtype=float)


def eval_diffusion(model: ModelSpec, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise InputError("non-finite state")
    return np.asarray(model.diffusion(x), dtype=float).reshape(model.d, model.r)


def eval_A_inverse(model: ModelSpec, x) -> np.ndarray:
    """Inverse of A(x) = sigma sigma*; raises when det A is at or below the floor."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sig = eval_diffusion(model, x)
    return _checked_inverse((sig @ sig.T)[None], x[None])[0]


def _checked_inverse(a: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Inverses of stacked A = sigma sigma*, after the det-floor and 1e-10 residual checks."""
    det = np.linalg.det(a)
    bad = det <= ELLIPTICITY_FLOOR
    if np.any(bad):
        k = int(np.argmax(bad))
        raise EllipticityError(
            f"det A(x) = {det[k]:.3e} <= floor {ELLIPTICITY_FLOOR:.3e} at path node {k}",
            x=states[k],
            det=float(det[k]),
        )
    ainv = np.linalg.inv(a)
    resid = np.einsum("kab,kbc->kac", a, ainv) - np.eye(a.shape[-1])
    if np.max(np.abs(resid)) > 1e-10:
        raise EllipticityError("A(x) numerically singular beyond 1e-10 inversion check")
    return ainv


def eval_path(model: ModelSpec, fn, states: np.ndarray, base_shape: tuple, theta=None) -> np.ndarray:
    """Evaluate a callback along a stacked path, batched when supported."""
    n1 = states.shape[0]
    if model.vectorized:
        out = fn(states) if theta is None else fn(states, theta)
        return np.asarray(out, dtype=float).reshape((n1,) + base_shape)
    out = np.empty((n1,) + base_shape)
    for k in range(n1):
        v = fn(states[k]) if theta is None else fn(states[k], theta)
        out[k] = np.asarray(v, dtype=float).reshape(base_shape)
    return out


def sigma_weighted(model: ModelSpec, x):
    """F(x) = sigma* A^-1 and its state Jacobian dF[i, c, c'] = dF_ic/dx_c'."""
    f, df = weighted_path(model, np.asarray(x, dtype=float).reshape(1, model.d))
    return f[0], df[0]


def weighted_path(model: ModelSpec, states: np.ndarray):
    """F = sigma* A^-1 and its Jacobian along a path, in stacked form.

    dF = (d sigma)* A^-1 - sigma* A^-1 (dA) A^-1 with
    dA = (d sigma) sigma* + sigma (d sigma)*.
    """
    d, r = model.d, model.r
    sig = eval_path(model, model.diffusion, states, (d, r))
    ainv = _checked_inverse(np.einsum("kai,kbi->kab", sig, sig), states)
    f = np.einsum("kbi,kba->kia", sig, ainv)
    dsig = eval_path(model, model.diffusion_dx, states, (d, r, d))
    da = np.einsum("kaip,kbi->kabp", dsig, sig) + np.einsum("kai,kbip->kabp", sig, dsig)
    df = np.einsum("kbip,kba->kiap", dsig, ainv) - np.einsum(
        "kib,kbcp,kca->kiap", f, da, ainv
    )
    return f, df


@dataclass(frozen=True)
class ProbeConfig:
    """Probe ranges and exponents for the assumption report."""

    lo: float = -5.0
    hi: float = 5.0
    n_points: int = 200
    n_pairs: int = 200
    n_theta: int = 20
    growth_exponent: float = 1.0  # N in (1 + |x|^N)
    ac_exponent: float = 0.3  # lambda in the weighted-drift growth probe


@dataclass(frozen=True)
class AssumptionReport:
    model_name: str
    lipschitz_estimate: float
    polygrowth_estimate: dict  # keyed by (theta_order, x_order)
    ellipticity_min: float
    diffusion_bound_estimate: float
    ac_growth_estimate: float
    pass_flags: dict


def probe_assumptions(
    model: ModelSpec, probe: ProbeConfig = ProbeConfig(), seed: int = 0
) -> AssumptionReport:
    """Estimate the standing-assumption constants on probe grids.

    States are probed on an axis-aligned lattice over [lo, hi]^d (odd
    per-axis count, so the midpoint of a symmetric range is included);
    parameters are drawn from the box. Each drift callback is evaluated
    once per parameter draw over the whole lattice, and each diffusion
    callback once, through eval_path. Violations are reported through
    pass_flags, never raised; the global sup conditions are not decidable
    numerically, so all estimates are probe maxima.
    """
    if not (np.isfinite(probe.lo) and np.isfinite(probe.hi) and probe.lo < probe.hi):
        raise InputError(f"degenerate probe range [{probe.lo}, {probe.hi}]")
    rng = Generator(Philox(SeedSequence(entropy=(int(seed), 0xA55E))))
    per_axis = max(3, round(probe.n_points ** (1.0 / model.d)))
    if per_axis % 2 == 0:
        per_axis += 1
    axis = np.linspace(probe.lo, probe.hi, per_axis)
    xs = np.stack(
        [g.ravel() for g in np.meshgrid(*([axis] * model.d), indexing="ij")], axis=-1
    )
    dom = model.theta_domain
    thetas = rng.uniform(dom[:, 0], dom[:, 1], size=(probe.n_theta, model.m))
    d, r, m = model.d, model.r, model.m

    def table(fn, shape):  # (n_theta, n_states) + shape
        return np.stack([eval_path(model, fn, xs, shape, th) for th in thetas])

    drifts = table(model.drift, (d,))
    lip = 0.0
    for _ in range(probe.n_pairs):
        i, j = rng.integers(0, len(xs), size=2)
        if np.allclose(xs[i], xs[j]):
            continue
        t = rng.integers(0, probe.n_theta)
        num = np.linalg.norm(drifts[t, i] - drifts[t, j])
        lip = max(lip, num / np.linalg.norm(xs[i] - xs[j]))

    # |x| per state; the stacked matmul rounds as np.linalg.norm(x) does
    norms = np.sqrt((xs[:, None, :] @ xs[:, :, None]).ravel())
    wt = 1.0 + norms**probe.growth_exponent

    def peak(vals):  # max over draws and states of max|vals| / (1 + |x|^N)
        return float(np.max(np.abs(vals).reshape(vals.shape[:2] + (-1,)).max(axis=-1) / wt))

    growth = {(0, 0): peak(drifts), (0, 1): peak(table(model.drift_dx, (d, d)))}
    for k in range(1, 5):
        growth[(k, 0)] = peak(table(model.drift_dtheta[k - 1], (d,) + (m,) * k))

    sig = eval_path(model, model.diffusion, xs, (d, r))
    dsig = eval_path(model, model.diffusion_dx, xs, (d, r, d))
    ddsig = eval_path(model, model.diffusion_dxx, xs, (d, r, d, d))
    sig_bound = max(float(np.max(np.abs(v))) for v in (sig, dsig, ddsig))
    a = sig @ np.swapaxes(sig, 1, 2)
    det = np.linalg.det(a)
    ell_min = float(np.min(det))
    ok = det > ELLIPTICITY_FLOOR
    ac_growth = 0.0
    if np.any(ok):
        f = np.swapaxes(sig[ok], 1, 2) @ np.linalg.inv(a[ok])  # sigma* A^-1
        vals = np.linalg.norm(np.einsum("kia,tka->tki", f, drifts[:, ok]), axis=-1)
        ac_growth = float(np.max(vals / (1.0 + norms[ok] ** probe.ac_exponent)))

    flags = {
        "lipschitz": bool(np.isfinite(lip) and lip <= PROBE_BOUND),
        "polynomial_growth": bool(all(v <= PROBE_BOUND for v in growth.values())),
        "ellipticity": bool(ell_min > ELLIPTICITY_FLOOR),
        "diffusion_bounded": bool(sig_bound <= PROBE_BOUND),
    }
    return AssumptionReport(
        model_name=model.name,
        lipschitz_estimate=float(lip),
        polygrowth_estimate=growth,
        ellipticity_min=ell_min,
        diffusion_bound_estimate=sig_bound,
        ac_growth_estimate=ac_growth,
        pass_flags=flags,
    )


def finite_difference_check(model: ModelSpec, n_probes: int = 50, seed: int = 0):
    """Max relative error of drift_dx and drift_dtheta[0] vs central differences."""
    step = 1e-5
    rng = Generator(Philox(SeedSequence(entropy=(int(seed), 0xFD))))
    dom = model.theta_domain

    def rel_error(exact, f, at):  # of the Jacobian exact of f at `at`, scaled by max(1, |exact|)
        exact = np.asarray(exact, dtype=float).reshape(model.d, at.size)
        fd = np.empty_like(exact)
        for c in range(at.size):
            e = np.zeros(at.size)
            e[c] = step
            fd[:, c] = (np.asarray(f(at + e)) - np.asarray(f(at - e))) / (2 * step)
        return np.max(np.abs(fd - exact)) / max(1.0, np.max(np.abs(exact)))

    worst_dx = worst_dth = 0.0
    for _ in range(n_probes):
        x = rng.uniform(-2.0, 2.0, size=model.d)
        width = dom[:, 1] - dom[:, 0]
        th = rng.uniform(dom[:, 0] + 0.1 * width, dom[:, 1] - 0.1 * width)
        worst_dx = max(worst_dx, rel_error(model.drift_dx(x, th), lambda y: model.drift(y, th), x))
        err_th = rel_error(model.drift_dtheta[0](x, th), lambda t: model.drift(x, t), th)
        worst_dth = max(worst_dth, err_th)
    return worst_dx, worst_dth


# ---------------------------------------------------------------------------
# registry


_REGISTRY: dict = {}


def register(spec: ModelSpec, overwrite: bool = False) -> ModelSpec:
    if spec.name in _REGISTRY and not overwrite:
        raise InputError(f"model {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_model(name: str) -> ModelSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InputError(f"unknown model {name!r}; available: {sorted(_REGISTRY)}") from None


def available_models():
    return sorted(_REGISTRY)


def _batched(x, base_shape, fill):
    """Constant-callback helper honoring the stacked-state contract."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        return np.broadcast_to(fill, (x.shape[0],) + base_shape).copy()
    return fill.copy()


def _zeros_theta_derivs(d: int, m: int, from_order: int):
    def make(order):
        shape = (d,) + (m,) * order
        z = np.zeros(shape)

        def cb(x, theta, _z=z, _shape=shape):
            return _batched(x, _shape, _z)

        return cb

    return tuple(make(k) for k in range(from_order, 5))


# sigma == 1 in one dimension, shared by linear1d, const1d and zero1d
_UNIT_NOISE = dict(
    diffusion=lambda x: _batched(x, (1, 1), np.array([[1.0]])),
    diffusion_dx=lambda x: _batched(x, (1, 1, 1), np.zeros((1, 1, 1))),
    diffusion_dxx=lambda x: _batched(x, (1, 1, 1, 1), np.zeros((1, 1, 1, 1))),
)


def _linear1d() -> ModelSpec:
    def drift(x, th):
        return -th[0] * np.asarray(x, dtype=float)

    def drift_dx(x, th):
        return _batched(x, (1, 1), np.array([[-th[0]]]))

    def dth1(x, th):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return -x[:, :, None]
        return np.array([[-x[0]]])

    return ModelSpec(
        name="linear1d",
        d=1,
        r=1,
        m=1,
        theta_domain=[[0.1, 5.0]],
        drift=drift,
        drift_dx=drift_dx,
        drift_dtheta=(dth1,) + _zeros_theta_derivs(1, 1, 2),
        **_UNIT_NOISE,
        vectorized=True,
        theta_linear=True,
    )


def _cross2d() -> ModelSpec:
    def drift(x, th):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([-th[0] * x1 - 0.1 * x2, -th[1] * x2], axis=-1)

    def drift_dx(x, th):
        return _batched(x, (2, 2), np.array([[-th[0], -0.1], [0.0, -th[1]]]))

    def dth1(x, th):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = -x[..., 0]
        out[..., 1, 1] = -x[..., 1]
        return out

    def diffusion(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        t = np.tanh(x)
        out[..., 0, 0] = 1.0 + 0.3 * t[..., 0]
        out[..., 1, 1] = 1.0 + 0.3 * t[..., 1]
        return out

    def diffusion_dx(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        sech2 = 1.0 - np.tanh(x) ** 2
        out[..., 0, 0, 0] = 0.3 * sech2[..., 0]
        out[..., 1, 1, 1] = 0.3 * sech2[..., 1]
        return out

    def diffusion_dxx(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2, 2, 2))
        t = np.tanh(x)
        out[..., 0, 0, 0, 0] = -0.6 * t[..., 0] * (1.0 - t[..., 0] ** 2)
        out[..., 1, 1, 1, 1] = -0.6 * t[..., 1] * (1.0 - t[..., 1] ** 2)
        return out

    return ModelSpec(
        name="cross2d",
        d=2,
        r=2,
        m=2,
        theta_domain=[[0.1, 5.0], [0.1, 5.0]],
        drift=drift,
        drift_dx=drift_dx,
        drift_dtheta=(dth1,) + _zeros_theta_derivs(2, 2, 2),
        diffusion=diffusion,
        diffusion_dx=diffusion_dx,
        diffusion_dxx=diffusion_dxx,
        vectorized=True,
        theta_linear=True,
    )


def _const1d() -> ModelSpec:
    """Constant drift b = theta; its likelihood is exactly quadratic in theta."""

    def drift(x, th):
        return _batched(x, (1,), np.array([th[0]]))

    return ModelSpec(
        name="const1d",
        d=1,
        r=1,
        m=1,
        theta_domain=[[-5.0, 5.0]],
        drift=drift,
        drift_dx=lambda x, th: _batched(x, (1, 1), np.zeros((1, 1))),
        drift_dtheta=(lambda x, th: _batched(x, (1, 1), np.ones((1, 1))),)
        + _zeros_theta_derivs(1, 1, 2),
        **_UNIT_NOISE,
        vectorized=True,
        theta_linear=True,
    )


def _zero1d() -> ModelSpec:
    """Pure-noise model; the drift ignores theta, so the information matrix is 0."""
    return ModelSpec(
        name="zero1d",
        d=1,
        r=1,
        m=1,
        theta_domain=[[0.1, 5.0]],
        drift=lambda x, th: _batched(x, (1,), np.zeros(1)),
        drift_dx=lambda x, th: _batched(x, (1, 1), np.zeros((1, 1))),
        drift_dtheta=_zeros_theta_derivs(1, 1, 1),
        **_UNIT_NOISE,
        vectorized=True,
        theta_linear=True,
    )


def _geom1d() -> ModelSpec:
    """Zero drift, sigma(x) = x: closed-form solution x0 * exp(eps * B_t).

    Test model for the solver; ellipticity fails at x = 0, so it is not
    usable for inference.
    """

    def diffusion(x):
        x = np.asarray(x, dtype=float)
        return x[..., :, None] if x.ndim == 2 else np.array([[x[0]]])

    return ModelSpec(
        name="geom1d",
        d=1,
        r=1,
        m=1,
        theta_domain=[[0.1, 5.0]],
        drift=lambda x, th: _batched(x, (1,), np.zeros(1)),
        drift_dx=lambda x, th: _batched(x, (1, 1), np.zeros((1, 1))),
        drift_dtheta=_zeros_theta_derivs(1, 1, 1),
        diffusion=diffusion,
        diffusion_dx=lambda x: _batched(x, (1, 1, 1), np.ones((1, 1, 1))),
        diffusion_dxx=lambda x: _batched(x, (1, 1, 1, 1), np.zeros((1, 1, 1, 1))),
        vectorized=True,
    )


for _builder in (_linear1d, _cross2d, _const1d, _zero1d, _geom1d):
    register(_builder())
