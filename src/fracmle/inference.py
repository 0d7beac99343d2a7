"""Observation transforms, the log-likelihood field, and the estimator.

Pipeline per observed trajectory X:
  Y, the compensated second-order sum of sigma* A^-1 against dX, which
  equals (1/eps) int sigma* A^-1 b dt + B up to discretization;
  Z, the per-component kernel transform of Y, a Wiener process plus
  int Q dt under the data-generating parameter;
  the likelihood L(theta) = sum_i [int Q^i dZ^i - 1/2 int (Q^i)^2 dt]
  with left-point dZ sums (Ito-consistent) and trapezoid dt integrals.

Deterministic companions (the Q field on the ODE limit, the information
matrix, and the identifiability field) share the same fractional
transform with eps = 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from . import fraccalc
from .errors import InputError, OptimizationError
from .fbm import HurstVector, RoughPath, TimeGrid, complete_area
from .model import ModelSpec, eval_path, stack_matmul, weighted_path
from .rde import Trajectory, _ode_limit_refined, solve_ode

# the exact box solve checks 3^m faces; above this m, theta-linear models take Newton
EXACT_SOLVE_MAX_M = 3
# H counts as negative definite when every eigenvalue is below -rtol * max |eigenvalue|
NEGATIVE_DEFINITE_RTOL = 1e-10
# Newton's fallback shift: mu = lambda_max(H) + rtol * max(1, max |eigenvalue|)
FALLBACK_SHIFT_RTOL = float(np.sqrt(np.finfo(float).eps))
# step halvings a line search tries before it gives up
MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class QField:
    """Likelihood field Q and its theta-derivatives on the grid.

    values (N+1, r); dtheta (N+1, r, m); dtheta2 (N+1, r, m, m). Values at
    t_0 are 0 by the singularity convention t^(H-1/2) -> Q(0) := 0.
    """

    values: np.ndarray
    dtheta: np.ndarray | None = None
    dtheta2: np.ndarray | None = None


@dataclass(frozen=True)
class GammaMatrix:
    matrix: np.ndarray  # (m, m)
    min_eigenvalue: float
    a5_ok: bool


@dataclass(frozen=True)
class EstimateRecord:
    theta_hat: tuple
    u: tuple | None
    converged: bool
    boundary_flag: bool
    iterations: int
    loglik: float
    score: tuple | None = None  # grad loglik at theta0; not in the estimate JSON

    def to_json_dict(self) -> dict:
        return {
            "theta_hat": list(self.theta_hat),
            "u": None if self.u is None else list(self.u),
            "converged": bool(self.converged),
            "boundary_flag": bool(self.boundary_flag),
            "iterations": int(self.iterations),
            "loglik": float(self.loglik),
        }


@dataclass(frozen=True)
class OptimizerConfig:
    n_starts: int = 5
    grad_tol: float = 1e-8
    max_iter: int = 100
    boundary_tol: float = 1e-6


@dataclass(frozen=True)
class LikelihoodContext:
    """Immutable bundle of the observed-path transforms and quadrature plans."""

    trajectory: Trajectory
    model: ModelSpec
    plans: tuple  # one Hurst plan per driver component
    z: np.ndarray  # (N+1, r)
    f_path: np.ndarray  # (N+1, r, d), sigma* A^-1 along the path

    @property
    def grid(self) -> TimeGrid:
        return self.trajectory.grid


def build_Y(traj: Trajectory, model: ModelSpec) -> np.ndarray:
    """Observation transform Y with increments
    (1/eps) [F dX + 1/2 (grad F)(dX, dX)], F = sigma* A^-1; Y_0 = 0."""
    f, df = weighted_path(model, traj.states)
    return _assemble_Y(traj, f, df)


def _assemble_Y(traj: Trajectory, f: np.ndarray, df: np.ndarray) -> np.ndarray:
    dx = np.diff(traj.states, axis=0)[:, :, None]
    lin = stack_matmul(f[:-1], dx)[..., 0]
    quad = 0.5 * stack_matmul(dx[:, None].swapaxes(2, 3), stack_matmul(df[:-1], dx[:, None]))[..., 0, 0]
    y = np.zeros((traj.states.shape[0], f.shape[1]))
    y[1:] = np.cumsum(lin + quad, axis=0) / traj.epsilon
    return y


def build_Z(y: np.ndarray, plans) -> np.ndarray:
    """Per-component kernel transform of Y; a semimartingale path with Z_0 = 0."""
    z = np.zeros_like(y)
    for i in range(y.shape[1]):
        z[:, i] = fraccalc.kh_inverse_transform(plans[i], y[:, i])
    return z


def plans_for(model: ModelSpec, hurst: HurstVector, grid: TimeGrid) -> tuple:
    """The Hurst plan of each driver component; hurst holds one index per component."""
    if len(hurst) != model.r:
        raise InputError(f"hurst has {len(hurst)} components, model drives {model.r}")
    return tuple(fraccalc.get_plan(h, grid.T, grid.n_coarse) for h in hurst)


def build_context(traj: Trajectory, model: ModelSpec, hurst: HurstVector) -> LikelihoodContext:
    if traj.d != model.d:
        raise InputError(f"trajectory has {traj.d} state columns, model expects {model.d}")
    plans = plans_for(model, hurst, traj.grid)
    f, df = weighted_path(model, traj.states)
    y = _assemble_Y(traj, f, df)
    z = build_Z(y, plans)
    return LikelihoodContext(
        trajectory=traj,
        model=model,
        plans=plans,
        z=z,
        f_path=f,
    )


def compute_Q(
    states: np.ndarray,
    model: ModelSpec,
    theta,
    epsilon: float,
    plans,
    order: int = 0,
    f_path: np.ndarray | None = None,
) -> QField:
    """Q^i(t) = (eps d_H)^-1 t^(H-1/2) I^a_{0+}[ s^a (F b(., theta))^i ](t)
    plus theta-derivative fields (b replaced by its theta-gradients).

    plans holds one Hurst plan per driver component on the states' grid,
    else InputError; H_i and a = 1/2 - H_i come from plans[i], the one
    source of the Hurst index.

    b and its first `order` (0..2) theta-derivatives form one (N+1, d, c) stack; each
    driver component's nonzero columns take one q_transform call as a (c', N+1) stack,
    and zero columns stay zero. The deterministic variant runs on the ODE path, eps = 1.
    """
    if not (isinstance(order, (int, np.integer)) and 0 <= order <= 2):
        raise InputError(f"derivative order must be 0, 1 or 2, got {order!r}")
    theta = model.check_theta(theta)
    n1, d, m, r = states.shape[0], model.d, model.m, model.r
    if not (isinstance(plans, (tuple, list)) and len(plans) == r) or not all(
        isinstance(p, fraccalc.FracKernelPlan) and p.hurst is not None and p.grid.n_coarse == n1 - 1
        for p in plans
    ):
        raise InputError(f"compute_Q needs {r} Hurst plans (FracKernelPlan.build) on a {n1 - 1}-step grid")
    if f_path is None:
        f_path, _ = weighted_path(model, states)
    cols = [
        eval_path(model, fn, states, (d,) + (m,) * k, theta).reshape(n1, d, -1)
        for k, fn in enumerate((model.drift,) + model.drift_dtheta[:order])
    ]
    if order == 2 and model.theta_linear and np.any(cols[2]):
        raise InputError(
            f"model {model.name!r} declares theta_linear, but its second "
            "theta-derivative of the drift is nonzero on the path"
        )
    fb = stack_matmul(f_path, np.concatenate(cols, axis=2))
    live = fb.any(axis=0)
    q = np.zeros((r, fb.shape[2], n1))  # one row of samples per component and column
    for i in range(r):
        (cols_i,) = np.nonzero(live[i])
        if cols_i.size:
            scale = 1.0 / (epsilon * fraccalc.d_H(plans[i].hurst))
            q[i, cols_i] = fraccalc.q_transform(plans[i], fb[:, i, cols_i].T, scale)
    parts = np.split(q.transpose(2, 0, 1), [1, 1 + m], axis=2)[: order + 1]  # values, dtheta, dtheta2
    return QField(*(np.ascontiguousarray(p.reshape((n1, r) + (m,) * k)) for k, p in enumerate(parts)))


def _trapezoid_weights(grid: TimeGrid) -> np.ndarray:
    w = np.full(grid.n_coarse + 1, grid.dt)
    w[0] = w[-1] = 0.5 * grid.dt
    return w


def likelihood_parts(ctx: LikelihoodContext, theta, order: int = 2):
    """(loglik, score, hessian) up to the requested derivative order.

    loglik = sum_i [ sum_k Q^i(t_k) dZ^i_k - 1/2 trap((Q^i)^2) ];
    derivatives follow the differentiated form with grad Q and hess Q.
    """
    q = compute_Q(
        ctx.trajectory.states,
        ctx.model,
        theta,
        ctx.trajectory.epsilon,
        ctx.plans,
        order=order,
        f_path=ctx.f_path,
    )
    dz = np.diff(ctx.z, axis=0)
    w = _trapezoid_weights(ctx.grid)
    ll = float(np.sum(q.values[:-1] * dz) - 0.5 * np.einsum("ki,ki,k->", q.values, q.values, w))
    if order == 0:
        return ll, None, None
    score = np.einsum("kij,ki->j", q.dtheta[:-1], dz) - np.einsum(
        "ki,kij,k->j", q.values, q.dtheta, w
    )
    if order == 1:
        return ll, score, None
    hess = (
        np.einsum("kijl,ki->jl", q.dtheta2[:-1], dz)
        - np.einsum("kij,kil,k->jl", q.dtheta, q.dtheta, w)
        - np.einsum("ki,kijl,k->jl", q.values, q.dtheta2, w)
    )
    return ll, score, hess


def log_likelihood(ctx: LikelihoodContext, theta) -> float:
    return likelihood_parts(ctx, theta, order=0)[0]


def grad_log_likelihood(ctx: LikelihoodContext, theta) -> np.ndarray:
    return likelihood_parts(ctx, theta, order=1)[1]


def _latin_hypercube_starts(model: ModelSpec, n_starts: int) -> np.ndarray:
    """theta_0-agnostic stratified starts over the box, fixed internal stream."""
    rng = Generator(Philox(SeedSequence(entropy=(0x57A275, n_starts, model.m))))
    lo, hi = model.theta_domain[:, 0], model.theta_domain[:, 1]
    pts = np.empty((n_starts, model.m))
    for j in range(model.m):
        perm = rng.permutation(n_starts)
        pts[:, j] = lo[j] + (perm + 0.5) / n_starts * (hi[j] - lo[j])
    return pts


def _binding(model: ModelSpec, theta, grad, tol=1e-12) -> np.ndarray:
    """The coordinates at a bound whose gradient points out of the box."""
    lo, hi = model.theta_domain[:, 0], model.theta_domain[:, 1]
    return ((theta <= lo + tol) & (grad < 0)) | ((theta >= hi - tol) & (grad > 0))


def _projected_gradient(model: ModelSpec, theta, grad, tol=1e-12):
    return np.where(_binding(model, theta, grad, tol), 0.0, grad)


@dataclass(frozen=True)
class _Quadratic:
    """l(c) + g.(theta - c) + 1/2 (theta - c)' H (theta - c): a theta-linear model's
    log-likelihood, exact everywhere, from one order-2 evaluation at the box centre c."""

    centre: np.ndarray
    ll: float
    grad: np.ndarray
    hess: np.ndarray

    def __call__(self, theta, order):
        step = theta - self.centre
        h_step = self.hess @ step
        return self.ll + float(self.grad @ step) + 0.5 * float(step @ h_step), self.grad + h_step, self.hess


def _face_stationary(quad: _Quadratic, theta, free) -> np.ndarray:
    """theta with its free coordinates moved to the stationary point of quad restricted
    to theta's face, the other coordinates held; needs quad's free block nonsingular."""
    theta = theta.copy()
    if free.any():
        fixed = ~free
        rhs = quad.grad[free] + quad.hess[np.ix_(free, fixed)] @ (theta[fixed] - quad.centre[fixed])
        theta[free] -= np.linalg.solve(quad.hess[np.ix_(free, free)], rhs)
    return theta


def _box_maximizer(model: ModelSpec, quad: _Quadratic):
    """(theta, loglik) maximizing a strictly concave quadratic over the box, or None
    when H is not negative definite or m > EXACT_SOLVE_MAX_M.

    The maximizer lies in the relative interior of one face of the box (the box
    itself, an edge, a corner, ...), where it is the stationary point of the
    quadratic restricted to that face: coordinates at a bound stay there, the free
    ones solve their block of H. Every face's stationary point, clamped into the
    box, is feasible, so the best of the 3^m of them is the maximizer (the
    active-set view of a box-constrained QP; Nocedal & Wright, ch. 16).
    """
    m = model.m
    eigs = np.linalg.eigvalsh(quad.hess)
    if m > EXACT_SOLVE_MAX_M or not eigs[-1] < -NEGATIVE_DEFINITE_RTOL * abs(eigs[0]):
        return None
    theta = quad.centre - np.linalg.solve(quad.hess, quad.grad)
    if model.contains_theta(theta):
        return theta, quad(theta, 0)[0]
    best = None
    for face in itertools.product((None, 0, 1), repeat=m):  # free, at lo, at hi
        fixed = np.array([k is not None for k in face])
        theta = quad.centre.copy()
        theta[fixed] = [model.theta_domain[j, k] for j, k in enumerate(face) if k is not None]
        theta = model.clamp_theta(_face_stationary(quad, theta, ~fixed))
        ll = quad(theta, 0)[0]
        if best is None or ll > best[1]:
            best = (theta, ll)
    return best


def _backtrack(model: ModelSpec, parts, theta, ll, direction):
    """The first of theta + direction, theta + direction / 2, ..., clamped into the box,
    whose loglik exceeds ll; None when none of MAX_BACKTRACKS does or one equals theta."""
    step = 1.0
    for _ in range(MAX_BACKTRACKS):
        cand = model.clamp_theta(theta + step * direction)
        if np.array_equal(cand, theta):
            return None
        if parts(cand, 0)[0] > ll:
            return cand
        step *= 0.5
    return None


def _projected_newton(model: ModelSpec, parts, optimizer: OptimizerConfig) -> tuple:
    """(theta, loglik, iterations) of the best converged start; OptimizationError
    with every start's final state when none converges."""
    starts = _latin_hypercube_starts(model, optimizer.n_starts)
    best = None
    diagnostics = []
    for start in starts:
        theta = model.clamp_theta(np.asarray(start, dtype=float))
        ll, grad, hess = parts(theta, 2)
        converged = False
        iters = 0
        for iters in range(1, optimizer.max_iter + 1):
            binding = _binding(model, theta, grad)
            gp = np.where(binding, 0.0, grad)
            if np.linalg.norm(gp) <= optimizer.grad_tol * max(1.0, abs(ll)):
                converged = True
                break
            eigs = np.linalg.eigvalsh(hess)
            newton = eigs[-1] < -1e-12
            if newton:
                direction = np.linalg.solve(hess, -grad)
                ascent = -hess
            else:
                # H not negative definite: step along (mu I - H)^-1 gp, mu just above
                # lambda_max(H), Newton's step on the directions of negative curvature
                mu = eigs[-1] + FALLBACK_SHIFT_RTOL * max(1.0, float(np.max(np.abs(eigs))))
                ascent = mu * np.eye(len(gp)) - hess
                direction = np.linalg.solve(ascent, gp)
            cand = _backtrack(model, parts, theta, ll, direction)
            if cand is None and newton and binding.any():
                # coupled parameters: the clamped step can make no ascent on the face of
                # the binding bounds, where the Newton step of the free block does
                face = _face_stationary(_Quadratic(theta, ll, grad, hess), theta, ~binding)
                cand = _backtrack(model, parts, theta, ll, face - theta)
            if cand is None:
                # no ascent found inside the box: a stationary point if the ascent the
                # step promises, the Newton decrement 1/2 gp' (-H)^-1 gp (the shifted
                # matrix when H is not negative definite), is below loglik's tolerance
                decrement = 0.5 * float(gp @ np.linalg.solve(ascent, gp))
                converged = decrement <= optimizer.grad_tol * max(1.0, abs(ll))
                break
            theta = cand
            ll, grad, hess = parts(theta, 2)
        diagnostics.append(
            {
                "start": start.tolist(),
                "theta": theta.tolist(),
                "ll": ll,
                "grad_norm": float(np.linalg.norm(_projected_gradient(model, theta, grad))),
                "converged": converged,
                "iters": iters,
            }
        )
        if converged and (best is None or ll > best[1]):
            best = (theta.copy(), ll, iters)
    if best is None:
        raise OptimizationError("no optimizer start converged", diagnostics=diagnostics)
    return best


def mle(
    ctx: LikelihoodContext,
    optimizer: OptimizerConfig = OptimizerConfig(),
    theta0=None,
) -> EstimateRecord:
    """Maximize the log-likelihood over the closed box.

    A theta-linear model's log-likelihood is the exact quadratic of one order-2
    evaluation at the box centre; when its Hessian is negative definite and
    m <= EXACT_SOLVE_MAX_M, the box maximizer is solved for exactly (one
    iteration). Otherwise multi-start projected Newton runs, on that
    quadratic for a theta-linear model and on fresh evaluations for any
    other; where H is not negative definite it steps along (mu I - H)^-1 g
    with mu just above lambda_max(H). Given theta0, the record also holds u
    and the score at theta0, the latter from the same quadratic.
    """
    model = ctx.model
    if theta0 is not None:
        theta0 = model.check_theta(theta0)
    # parts: (theta, order) -> (loglik, score, hessian)
    if model.theta_linear:
        centre = model.theta_domain.mean(axis=1)
        parts = _Quadratic(centre, *likelihood_parts(ctx, centre, order=2))
        exact = _box_maximizer(model, parts)
    else:
        parts, exact = (lambda theta, order: likelihood_parts(ctx, theta, order=order)), None
    theta_hat, ll, iters = _projected_newton(model, parts, optimizer) if exact is None else (*exact, 1)
    lo, hi = model.theta_domain[:, 0], model.theta_domain[:, 1]
    boundary = bool(
        np.any(theta_hat - lo <= optimizer.boundary_tol) or np.any(hi - theta_hat <= optimizer.boundary_tol)
    )
    u = score = None
    if theta0 is not None:
        u = tuple(((theta_hat - theta0) / ctx.trajectory.epsilon).tolist())
        score = tuple(parts(theta0, 1)[1].tolist())
    return EstimateRecord(
        theta_hat=tuple(theta_hat.tolist()),
        u=u,
        converged=True,
        boundary_flag=boundary,
        iterations=iters,
        loglik=float(ll),
        score=score,
    )


def gamma_matrix(
    model: ModelSpec,
    theta0,
    hurst: HurstVector,
    grid: TimeGrid,
    x0,
    refine: int = 1,
) -> GammaMatrix:
    """Asymptotic information matrix: Gamma_jk = sum_i int (dQ_j)^i (dQ_k)^i dt
    with the deterministic Q field evaluated on the ODE limit path.

    The integrals run on a grid refine times finer than grid. The ODE limit is
    solved on grid's n_coarse steps, the states a study compares its paths with,
    and carried to the finer grid by RK4's cubic Hermite dense output."""
    return _gamma_from_limit(model, hurst, solve_ode(model, theta0, x0, grid), refine)


def _gamma_from_limit(model: ModelSpec, hurst: HurstVector, ode: Trajectory, refine) -> GammaMatrix:
    """gamma_matrix from the ODE limit ode, solved on the coarse grid."""
    if not (isinstance(refine, (int, np.integer)) and refine >= 1):
        raise InputError(f"refine must be a positive integer, got {refine!r}")
    fine = _ode_limit_refined(model, ode, int(refine))
    plans = plans_for(model, hurst, fine.grid)
    q = compute_Q(fine.states, model, ode.theta_used, 1.0, plans, order=1)
    w = _trapezoid_weights(fine.grid)
    gam = np.einsum("kij,kil,k->jl", q.dtheta, q.dtheta, w)
    gam = 0.5 * (gam + gam.T)
    eigs = np.linalg.eigvalsh(gam)
    return GammaMatrix(
        matrix=gam,
        min_eigenvalue=float(eigs[0]),
        a5_ok=bool(eigs[0] > 0.0),
    )


def y_limit_field(model: ModelSpec, theta, theta0, hurst: HurstVector, ode: Trajectory) -> float:
    """Deterministic likelihood-contrast limit; 0 at theta = theta0 and
    negative wherever the drift difference is visible through the kernel."""
    plans = plans_for(model, hurst, ode.grid)
    f, _ = weighted_path(model, ode.states)
    qd = (
        compute_Q(ode.states, model, theta, 1.0, plans, f_path=f).values
        - compute_Q(ode.states, model, theta0, 1.0, plans, f_path=f).values
    )
    return -0.5 * float(np.einsum("ki,ki,k->", qd, qd, _trapezoid_weights(ode.grid)))


def identifiability_scan(
    model: ModelSpec,
    theta0,
    hurst: HurstVector,
    ode: Trajectory,
    n_grid: int = 15,
):
    """Estimate the separation constant inf_theta -Y_H(theta)/|theta-theta0|^2
    over an axis-aligned grid on the parameter box."""
    theta0 = model.check_theta(theta0)
    axes = [np.linspace(lo, hi, n_grid) for lo, hi in model.theta_domain]
    mesh = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1)
    xi = np.inf
    values = np.empty(mesh.shape[0])
    for idx, theta in enumerate(mesh):
        values[idx] = y_limit_field(model, theta, theta0, hurst, ode)
        dist2 = float(np.sum((theta - theta0) ** 2))
        if dist2 > 1e-16:
            xi = min(xi, -values[idx] / dist2)
    return float(xi), mesh, values


def verify_transfer_identity(traj: Trajectory, model: ModelSpec, rp: RoughPath) -> float:
    """Consistency residual of the enhanced-observation identity
    eps int sigma(X) dY = X_T - X_0.

    Y is assembled from its decomposition (1/eps) int F b dt + B with
    trapezoid quadrature of the drift part, and the per-step enhancement
    uses the driver area above the diagonal, 1/2 (dY)^2 on it, and the
    antisymmetric completion below; the cross Young corrections vanish
    under single-step left-point evaluation. The residual measures the
    discretization gap and shrinks with the step size.
    """
    eps = traj.epsilon
    if eps <= 0:
        raise InputError("transfer identity requires epsilon > 0")
    if len(traj.theta_used) == 0:
        raise InputError("trajectory has no generating theta (a loaded trajectory records none)")
    theta0 = model.check_theta(traj.theta_used)
    if rp.r != model.r:
        raise InputError(f"driver has {rp.r} components, model expects {model.r}")
    if (rp.grid.T, rp.grid.n_coarse) != (traj.grid.T, traj.grid.n_coarse):
        raise InputError("driver and trajectory live on different coarse grids")
    states = traj.states
    d, r = model.d, model.r
    f, _ = weighted_path(model, states)
    fb = np.einsum("kia,ka->ki", f, eval_path(model, model.drift, states, (d,), theta0))
    # cumulative trapezoid of F b dt, Y_0 = 0
    y = np.zeros_like(fb)
    y[1:] = np.cumsum(np.diff(traj.grid.coarse_nodes())[:, None] * (fb[1:] + fb[:-1]) / 2.0, axis=0)
    y = y / eps + rp.coarse_values()
    dy = np.diff(y, axis=0)
    sig = eval_path(model, model.diffusion, states[:-1], (d, r))
    dsig = eval_path(model, model.diffusion_dx, states[:-1], (d, r, d))
    area = complete_area(rp.coarse_areas, dy)
    total = np.einsum("kai,ki->a", sig, dy) + eps * np.einsum(
        "kaic,kcj,kji->a", dsig, sig, area
    )
    residual = eps * total - (states[-1] - states[0])
    return float(np.linalg.norm(residual))
