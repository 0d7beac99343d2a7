"""Parametric drift/diffusion model bundles and numerical assumption probes.

Models are immutable callback bundles registered by name. Every callback
takes an (n, d) stack of states and returns the matching stack:
drift(x, theta) -> (n, d), drift_dx -> (n, d, d) with
[k, a, c] = d b_a / d x_c at state k, drift_dtheta[k-1] -> (n, d, m, ..., m)
with k theta axes, diffusion(x) -> (n, d, r), diffusion_dx -> (n, d, r, d),
diffusion_dxx -> (n, d, r, d, d). A single state is the stack with n = 1.
The pipeline evaluates whole paths, and the solver all paths of a step, in
one call; the assumption probe evaluates each callback once per parameter
draw over its whole state lattice.

A model whose drift is affine in theta, b(x, theta) = b0(x) + B(x) theta,
may declare theta_linear=True. Its log-likelihood is then exactly
quadratic in theta, so the estimator expands it once at the centre of the
parameter box and solves that quadratic's box maximizer exactly (Newton
on the expansion when its Hessian is not negative definite), and the
score at theta0 comes from the same expansion. The declaration is checked
on every path the expansion is built from: if drift_dtheta[1] is not
exactly zero there, the estimator raises InputError.
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
    theta_linear: bool = False  # drift affine in theta; see module docstring

    def __post_init__(self):
        dom = numeric_box(self.theta_domain)
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

    def check_state(self, x, what: str = "state") -> np.ndarray:
        """x as a finite (d,) float array; InputError naming `what` otherwise."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.d,):
            raise InputError(f"{what} has shape {x.shape}, model expects ({self.d},)")
        if not np.all(np.isfinite(x)):
            raise InputError(f"non-finite {what} {x.tolist()}")
        return x

    def clamp_theta(self, theta) -> np.ndarray:
        return np.clip(theta, self.theta_domain[:, 0], self.theta_domain[:, 1])

    def with_domain(self, theta_domain) -> "ModelSpec":
        """Same model on a different parameter box (config override)."""
        return replace(self, theta_domain=theta_domain)


def numeric_box(box) -> np.ndarray:
    """box as a float array; InputError unless it is a 2-D numeric array."""
    try:
        dom = np.asarray(box, dtype=float)
    except (TypeError, ValueError):
        dom = None
    if dom is None or dom.ndim != 2:
        raise InputError(f"parameter box {box!r} is not a 2-D numeric array")
    return dom


def eval_drift(model: ModelSpec, x, theta) -> np.ndarray:
    x = model.check_state(x)
    return eval_path(model, model.drift, x[None], (model.d,), model.check_theta(theta))[0]


def eval_diffusion(model: ModelSpec, x) -> np.ndarray:
    return eval_path(model, model.diffusion, model.check_state(x)[None], (model.d, model.r))[0]


def eval_A_inverse(model: ModelSpec, x) -> np.ndarray:
    """Inverse of A(x) = sigma sigma*; raises when det A is at or below the floor."""
    x = model.check_state(x)
    sig = eval_diffusion(model, x)
    return _checked_inverse((sig @ sig.T)[None], x[None])[0]


def stack_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y over broadcast stacks of small matrices: one broadcast product per index
    of the contracted axis, summed in index order.

    numpy's matmul makes one BLAS call per matrix for a matrix-vector or 1 x 1
    product, which on a path's d x d stacks costs more than the arithmetic, and
    BLAS may fuse multiply-adds; here every product and sum rounds on its own.
    """
    out = x[..., :1] * y[..., :1, :]
    for j in range(1, x.shape[-1]):
        out += x[..., j : j + 1] * y[..., j : j + 1, :]
    return out


def spd_inverse(a: np.ndarray):
    """(A^-1, det A) of a stack (..., d, d) of symmetric positive definite matrices.

    One Gauss-Jordan pass without pivoting, vectorized over the stack; det A is
    the product of the pivots, and at d = 1 the pass gives 1/a and a. Elimination
    without pivoting is backward stable on SPD matrices (Golub & Van Loan, Matrix
    Computations, 4.2), which is the precondition: on other input a zero or
    non-finite pivot passes on, without a warning, into a det of 0, +-inf or NaN.
    """
    d = a.shape[-1]
    # rows and columns first, so that each row operation runs over the whole stack
    work = np.empty((d, 2 * d) + a.shape[:-2])
    work[:, :d] = np.moveaxis(a, (-2, -1), (0, 1))
    work[:, d:] = np.eye(d).reshape((d, d) + (1,) * (a.ndim - 2))
    det = np.ones(a.shape[:-2])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(d):
            pivot = work[j, j].copy()
            det *= pivot
            work[j, j:] /= pivot
            for i in range(d):
                if i != j:
                    work[i, j:] -= work[i, j] * work[j, j:]
    return np.moveaxis(work[:, d:], (0, 1), (-2, -1)), det


def _checked_inverse(a: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Inverses of a path's stack (n, d, d) of A = sigma sigma*, by spd_inverse's one
    Gauss-Jordan pass without pivoting over the whole stack.

    That elimination needs A symmetric positive definite. A = sigma sigma* is
    symmetric and semidefinite by construction, and the checks stand for the rest:
    det A, the product of the pivots, must exceed ELLIPTICITY_FLOOR (a NaN det fails
    too), else EllipticityError names the first bad node and its det; and A A^-1 - I,
    one stacked product, must stay within 1e-10.
    """
    ainv, det = spd_inverse(a)
    bad = ~(det > ELLIPTICITY_FLOOR)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise EllipticityError(
            f"det A(x) = {det[k]:.3e} <= floor {ELLIPTICITY_FLOOR:.3e} at path node {k}",
            x=states[k],
            det=float(det[k]),
        )
    resid = stack_matmul(a, ainv) - np.eye(a.shape[-1])
    if not np.max(np.abs(resid)) <= 1e-10:
        raise EllipticityError("A(x) numerically singular beyond 1e-10 inversion check")
    return ainv


def eval_path(model: ModelSpec, fn, states: np.ndarray, base_shape: tuple, theta=None) -> np.ndarray:
    """A callback of model on an (n, d) stack of states, in one call, as (n,) + base_shape."""
    out = np.asarray(fn(states) if theta is None else fn(states, theta), dtype=float)
    shape = (states.shape[0],) + base_shape
    try:
        return out.reshape(shape)
    except ValueError:
        raise InputError(f"{model.name} callback returned shape {out.shape}, not {shape}") from None


def sigma_weighted(model: ModelSpec, x):
    """F(x) = sigma* A^-1 and its state Jacobian dF[i, c, c'] = dF_ic/dx_c'."""
    f, df = weighted_path(model, model.check_state(x)[None])
    return f[0], df[0]


def weighted_path(model: ModelSpec, states: np.ndarray):
    """F = sigma* A^-1 and its Jacobian along a path, as products over whole stacks.

    With A = sigma sigma* and the state-derivative axis p of d sigma moved to a
    batch axis, dA_p = M + M* with M = (d_p sigma) sigma*, and
    dF_p = (d_p sigma)* A^-1 - (F dA_p) A^-1; each is one stack_matmul over the
    n nodes (and the d values of p). Returns F as (n, r, d) and dF as
    (n, r, d, d) with [k, i, a, p] = dF_ia / dx_p at node k.
    """
    d, r = model.d, model.r
    sig = eval_path(model, model.diffusion, states, (d, r))
    sig_t = sig.swapaxes(1, 2)
    ainv = _checked_inverse(stack_matmul(sig, sig_t), states)
    f = stack_matmul(sig_t, ainv)
    dsig = np.moveaxis(eval_path(model, model.diffusion_dx, states, (d, r, d)), 3, 1)  # [k, p, a, i]
    m_p = stack_matmul(dsig, sig_t[:, None])
    ainv = ainv[:, None]
    df = stack_matmul(dsig.swapaxes(2, 3), ainv) - stack_matmul(
        stack_matmul(f[:, None], m_p + m_p.swapaxes(2, 3)), ainv
    )
    return f, np.moveaxis(df, 1, 3)


@dataclass(frozen=True)
class ProbeConfig:
    """Probe ranges, counts and growth exponent for the assumption report."""

    lo: float = -5.0
    hi: float = 5.0
    n_points: int = 200
    n_pairs: int = 200
    n_theta: int = 20
    growth_exponent: float = 1.0  # N in (1 + |x|^N)


@dataclass(frozen=True)
class AssumptionReport:
    model_name: str
    lipschitz_estimate: float
    polygrowth_estimate: dict  # keyed by (theta_order, x_order)
    ellipticity_min: float
    diffusion_bound_estimate: float
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
    _, det = spd_inverse(stack_matmul(sig, sig.swapaxes(1, 2)))
    ell_min = float(np.min(det))

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
        pass_flags=flags,
    )


def finite_difference_check(model: ModelSpec, n_probes: int = 50, seed: int = 0):
    """Max relative error of drift_dx and drift_dtheta[0] vs central differences."""
    step = 1e-5
    rng = Generator(Philox(SeedSequence(entropy=(int(seed), 0xFD))))
    dom = model.theta_domain

    def rel_error(exact, f, at):  # of the Jacobian exact of f at `at`, scaled by max(1, |exact|)
        exact = exact.reshape(model.d, at.size)
        fd = np.empty_like(exact)
        for c in range(at.size):
            e = np.zeros(at.shape)
            e.flat[c] = step
            fd[:, c] = (f(at + e) - f(at - e)).ravel() / (2 * step)
        return np.max(np.abs(fd - exact)) / max(1.0, np.max(np.abs(exact)))

    def drift(y, th):
        return eval_path(model, model.drift, y, (model.d,), th)

    worst_dx = worst_dth = 0.0
    for _ in range(n_probes):
        x = rng.uniform(-2.0, 2.0, size=(1, model.d))  # one state, as a (1, d) stack
        width = dom[:, 1] - dom[:, 0]
        th = rng.uniform(dom[:, 0] + 0.1 * width, dom[:, 1] - 0.1 * width)
        dx = eval_path(model, model.drift_dx, x, (model.d, model.d), th)
        worst_dx = max(worst_dx, rel_error(dx, lambda y: drift(y, th), x))
        dth = eval_path(model, model.drift_dtheta[0], x, (model.d, model.m), th)
        worst_dth = max(worst_dth, rel_error(dth, lambda t: drift(x, t), th))
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
    """The constant fill of shape base_shape, once per state of x."""
    return np.full(np.shape(x)[:-1] + base_shape, fill)


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
        return -np.asarray(x, dtype=float)[..., None]

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
        theta_linear=True,
    )


def _cross2d() -> ModelSpec:
    def drift(x, th):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        out[..., 0] = -th[0] * x[..., 0] - 0.1 * x[..., 1]
        out[..., 1] = -th[1] * x[..., 1]
        return out

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
        theta_linear=True,
    )


def _geom1d() -> ModelSpec:
    """Zero drift, sigma(x) = x: closed-form solution x0 * exp(eps * B_t).

    Test model for the solver; ellipticity fails at x = 0, so it is not
    usable for inference.
    """

    def diffusion(x):
        return np.asarray(x, dtype=float)[..., None]

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
    )


for _builder in (_linear1d, _cross2d, _const1d, _zero1d, _geom1d):
    register(_builder())
