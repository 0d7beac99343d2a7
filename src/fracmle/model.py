"""Parametric drift/diffusion model bundles and numerical assumption probes.

Models are immutable callback bundles registered by name. Callbacks take
single states: drift(x, theta) -> (d,), drift_dx -> (d, d) with
[a, c] = d b_a / d x_c, drift_dtheta[k-1] -> (d, m, ..., m) with k theta
axes, diffusion(x) -> (d, r), diffusion_dx -> (d, r, d), diffusion_dxx
-> (d, r, d, d). A model may declare vectorized=True, in which case every
callback also accepts a stacked x of shape (n, d) and returns the
corresponding (n, ...) stack; the pipeline then evaluates whole paths in
one call.

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

DEFAULT_ELLIPTICITY_FLOOR = 1e-12


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
        dom = np.asarray(self.theta_domain, dtype=float).reshape(self.m, 2)
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


def eval_A(model: ModelSpec, x) -> np.ndarray:
    sig = eval_diffusion(model, x)
    return sig @ sig.T


def eval_A_inverse(model: ModelSpec, x, floor: float = DEFAULT_ELLIPTICITY_FLOOR) -> np.ndarray:
    """Inverse of A(x) = sigma sigma*; raises when det A is at or below the floor."""
    a = eval_A(model, x)
    det = float(np.linalg.det(a))
    if det <= floor:
        raise EllipticityError(f"det A(x) = {det:.3e} <= floor {floor:.3e}", x=x, det=det)
    inv = np.linalg.inv(a)
    if np.max(np.abs(a @ inv - np.eye(model.d))) > 1e-10:
        raise EllipticityError(
            "A(x) numerically singular beyond 1e-10 inversion check", x=x, det=det
        )
    return inv


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


def sigma_weighted(model: ModelSpec, x, floor: float = DEFAULT_ELLIPTICITY_FLOOR):
    """F(x) = sigma* A^-1 and its state Jacobian dF[i, c, c'] = dF_ic/dx_c'."""
    f, df = weighted_path(model, np.asarray(x, dtype=float).reshape(1, model.d), floor)
    return f[0], df[0]


def weighted_path(model: ModelSpec, states: np.ndarray, floor: float = DEFAULT_ELLIPTICITY_FLOOR):
    """F = sigma* A^-1 and its Jacobian along a path, in stacked form.

    dF = (d sigma)* A^-1 - sigma* A^-1 (dA) A^-1 with
    dA = (d sigma) sigma* + sigma (d sigma)*.
    """
    d, r = model.d, model.r
    sig = eval_path(model, model.diffusion, states, (d, r))
    a = np.einsum("kai,kbi->kab", sig, sig)
    det = np.linalg.det(a)
    bad = det <= floor
    if np.any(bad):
        k = int(np.argmax(bad))
        raise EllipticityError(
            f"det A(x) = {det[k]:.3e} <= floor {floor:.3e} at path node {k}",
            x=states[k],
            det=float(det[k]),
        )
    ainv = np.linalg.inv(a)
    resid = np.einsum("kab,kbc->kac", a, ainv) - np.eye(d)
    if np.max(np.abs(resid)) > 1e-10:
        raise EllipticityError("A(x) numerically singular beyond 1e-10 inversion check")
    f = np.einsum("kbi,kba->kia", sig, ainv)
    dsig = eval_path(model, model.diffusion_dx, states, (d, r, d))
    da = np.einsum("kaip,kbi->kabp", dsig, sig) + np.einsum("kai,kbip->kabp", sig, dsig)
    df = np.einsum("kbip,kba->kiap", dsig, ainv) - np.einsum(
        "kib,kbcp,kca->kiap", f, da, ainv
    )
    return f, df


@dataclass(frozen=True)
class ProbeConfig:
    """Probe ranges and thresholds for the assumption report."""

    lo: float = -5.0
    hi: float = 5.0
    n_points: int = 200
    n_pairs: int = 200
    n_theta: int = 20
    growth_exponent: float = 1.0  # N in (1 + |x|^N)
    ac_exponent: float = 0.3  # lambda in the weighted-drift growth probe
    lipschitz_max: float = 1e6
    polygrowth_max: float = 1e6
    ellipticity_floor: float = DEFAULT_ELLIPTICITY_FLOOR
    diffusion_bound_max: float = 1e6


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
    parameters are drawn from the box. Violations are reported through
    pass_flags, never raised; the global sup conditions are not decidable
    numerically, so all estimates are probe maxima.
    """
    if probe.hi <= probe.lo:
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

    lip = 0.0
    for _ in range(probe.n_pairs):
        i, j = rng.integers(0, len(xs), size=2)
        if np.allclose(xs[i], xs[j]):
            continue
        th = thetas[rng.integers(0, probe.n_theta)]
        num = np.linalg.norm(
            np.asarray(model.drift(xs[i], th)) - np.asarray(model.drift(xs[j], th))
        )
        lip = max(lip, num / np.linalg.norm(xs[i] - xs[j]))

    growth = {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (2, 0): 0.0, (3, 0): 0.0, (4, 0): 0.0}
    ell_min = np.inf
    sig_bound = 0.0
    ac_growth = 0.0
    for x in xs:
        wt = 1.0 + np.linalg.norm(x) ** probe.growth_exponent
        sig = eval_diffusion(model, x)
        dsig = np.asarray(model.diffusion_dx(x), dtype=float)
        ddsig = np.asarray(model.diffusion_dxx(x), dtype=float)
        sig_bound = max(
            sig_bound, np.max(np.abs(sig)), np.max(np.abs(dsig)), np.max(np.abs(ddsig))
        )
        a = sig @ sig.T
        det = float(np.linalg.det(a))
        ell_min = min(ell_min, det)
        for th in thetas:
            growth[(0, 0)] = max(growth[(0, 0)], np.max(np.abs(model.drift(x, th))) / wt)
            growth[(0, 1)] = max(growth[(0, 1)], np.max(np.abs(model.drift_dx(x, th))) / wt)
            for k in range(1, 5):
                dk = np.asarray(model.drift_dtheta[k - 1](x, th), dtype=float)
                growth[(k, 0)] = max(growth[(k, 0)], np.max(np.abs(dk)) / wt)
            if det > probe.ellipticity_floor:
                f = sig.T @ np.linalg.inv(a)
                val = np.linalg.norm(f @ np.asarray(model.drift(x, th), dtype=float))
                ac_growth = max(ac_growth, val / (1.0 + np.linalg.norm(x) ** probe.ac_exponent))

    flags = {
        "lipschitz": bool(np.isfinite(lip) and lip <= probe.lipschitz_max),
        "polynomial_growth": bool(all(v <= probe.polygrowth_max for v in growth.values())),
        "ellipticity": bool(ell_min > probe.ellipticity_floor),
        "diffusion_bounded": bool(sig_bound <= probe.diffusion_bound_max),
    }
    return AssumptionReport(
        model_name=model.name,
        lipschitz_estimate=float(lip),
        polygrowth_estimate={k: float(v) for k, v in growth.items()},
        ellipticity_min=float(ell_min),
        diffusion_bound_estimate=float(sig_bound),
        ac_growth_estimate=float(ac_growth),
        pass_flags=flags,
    )


def finite_difference_check(model: ModelSpec, n_probes: int = 50, seed: int = 0, step: float = 1e-5):
    """Max relative error of drift_dx and drift_dtheta[0] vs central differences."""
    rng = Generator(Philox(SeedSequence(entropy=(int(seed), 0xFD))))
    dom = model.theta_domain
    worst_dx = 0.0
    worst_dth = 0.0
    for _ in range(n_probes):
        x = rng.uniform(-2.0, 2.0, size=model.d)
        width = dom[:, 1] - dom[:, 0]
        th = rng.uniform(dom[:, 0] + 0.1 * width, dom[:, 1] - 0.1 * width)
        jac = np.asarray(model.drift_dx(x, th), dtype=float).reshape(model.d, model.d)
        fd = np.empty_like(jac)
        for c in range(model.d):
            e = np.zeros(model.d)
            e[c] = step
            fd[:, c] = (
                np.asarray(model.drift(x + e, th)) - np.asarray(model.drift(x - e, th))
            ) / (2 * step)
        scale = max(1.0, np.max(np.abs(jac)))
        worst_dx = max(worst_dx, np.max(np.abs(fd - jac)) / scale)
        dth = np.asarray(model.drift_dtheta[0](x, th), dtype=float).reshape(model.d, model.m)
        fdt = np.empty_like(dth)
        for c in range(model.m):
            e = np.zeros(model.m)
            e[c] = step
            fdt[:, c] = (
                np.asarray(model.drift(x, th + e)) - np.asarray(model.drift(x, th - e))
            ) / (2 * step)
        scale = max(1.0, np.max(np.abs(dth)))
        worst_dth = max(worst_dth, np.max(np.abs(fdt - dth)) / scale)
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
        diffusion=lambda x: _batched(x, (1, 1), np.array([[1.0]])),
        diffusion_dx=lambda x: _batched(x, (1, 1, 1), np.zeros((1, 1, 1))),
        diffusion_dxx=lambda x: _batched(x, (1, 1, 1, 1), np.zeros((1, 1, 1, 1))),
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
        diffusion=lambda x: _batched(x, (1, 1), np.array([[1.0]])),
        diffusion_dx=lambda x: _batched(x, (1, 1, 1), np.zeros((1, 1, 1))),
        diffusion_dxx=lambda x: _batched(x, (1, 1, 1, 1), np.zeros((1, 1, 1, 1))),
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
        diffusion=lambda x: _batched(x, (1, 1), np.array([[1.0]])),
        diffusion_dx=lambda x: _batched(x, (1, 1, 1), np.zeros((1, 1, 1))),
        diffusion_dxx=lambda x: _batched(x, (1, 1, 1, 1), np.zeros((1, 1, 1, 1))),
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
