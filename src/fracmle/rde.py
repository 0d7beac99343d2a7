"""One stepping loop for the small-noise rough SDE and its ODE limit.

The scheme is the explicit third-order (Davie/Milstein-type) step

    X_{k+1} = X_k + b(X_k, theta) dt + eps sigma(X_k) dB_k
              + eps^2 (grad sigma sigma)(X_k) : Area_k

with the contraction sum_{i,j} G[a,i,j] Area[j,i], G = (d sigma_{.i}/dx) sigma_{.j},
matching the controlled-path expansion with Gubinelli derivative
eps sigma(X). The deterministic limit, integrated by classic RK4, is the
eps = 0 Trajectory; one march with one blow-up guard steps both schemes.

solve_rde_batch steps R paths of one theta, each with its own eps and
driver, as one (R, d) stack of states with one call of each callback per
step; solve_rde and solve_ode march the stack of one path, R = 1. A row
that leaves the guard is dropped and carries the DivergenceError its
single-path solve raises; every other row is bit-identical to its
single-path solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError
from .fbm import RoughPath, TimeGrid
from .model import ModelSpec, eval_path

BLOWUP_GUARD = 1e12


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray  # (n_coarse + 1, d)
    epsilon: float  # 0.0 for the ODE limit
    theta_used: tuple
    grid: TimeGrid

    @property
    def d(self) -> int:
        return self.states.shape[1]


def _march(steps, x0: np.ndarray, n_steps: int, what: str):
    """Read-only states (n_steps + 1, R, d) of x_{k+1} = step(k, x_k) for R paths, x0
    (R, d), each path contiguous; step = steps(live) steps the (len(live), d) stack of
    the rows live (a slice, or an index array once a row has failed).

    Also returns per path None or the DivergenceError of its first step whose state is
    non-finite or past BLOWUP_GUARD (the negated test catches NaN). The guard is one
    reduction over all rows; only when it fails are the crossing rows found and dropped,
    so no callback sees their states again; their later states stay unset. Overflow
    inside a step is not warned about: the guard reports it as that step's divergence.
    """
    x = x0.copy()  # callbacks never see the caller's array
    states = np.moveaxis(np.empty((len(x), n_steps + 1, x.shape[1])), 1, 0)
    states[0] = x
    errors = [None] * len(x)
    live = slice(None)
    step = steps(live)
    with np.errstate(over="ignore"):
        for k in range(n_steps):
            x = step(k, x)
            if not np.abs(x).max() <= BLOWUP_GUARD:
                ok = np.abs(x).max(axis=1) <= BLOWUP_GUARD
                rows = np.arange(len(errors))[live]
                for i in rows[~ok]:
                    errors[i] = DivergenceError(f"{what} exceeded blow-up guard at step {k}", step=k)
                live = rows[ok]
                if not live.size:
                    break
                x, step = x[ok], steps(live)
            states[k + 1, live] = x
    states.setflags(write=False)
    return states, errors


def solve_rde_batch(
    model: ModelSpec, theta, epsilons, increments, areas, x0, grid: TimeGrid
) -> list:
    """Solve the rough SDE for one theta along R drivers at once.

    Row i has noise level epsilons[i] and the coarse increments[i] (n_coarse, r) and
    areas[i] (n_coarse, r, r) of its driver on grid. Its entry of the returned list is
    its Trajectory, or the DivergenceError (with its step) that solve_rde raises on that
    driver. All rows are stepped as one (R, d) stack, with the drift, diffusion and
    diffusion_dx of each step taken through eval_path.
    """
    theta = model.check_theta(theta)
    for epsilon in epsilons:
        if not 0.0 <= epsilon <= 1.0:
            raise InputError(f"epsilon must lie in [0, 1], got {epsilon}")
    eps = np.asarray(epsilons, dtype=float)
    inc, areas = np.asarray(increments, dtype=float), np.asarray(areas, dtype=float)
    n_rows, d, r, n, dt = len(eps), model.d, model.r, grid.n_coarse, grid.dt
    if inc.shape != (n_rows, n, r) or areas.shape != (n_rows, n, r, r):
        raise InputError(
            f"{n_rows} drivers with {r} components on {n} coarse steps do not fit "
            f"increments {inc.shape} and areas {areas.shape}"
        )
    x0 = model.check_state(x0, what="x0")

    def davie(e, dB, A):
        """The step for noise levels e and per-step increments dB[k], areas A[k]."""
        e2 = e * e

        def step(k, x):
            b = eval_path(model, model.drift, x, (d,), theta)
            sig = eval_path(model, model.diffusion, x, (d, r))
            dsig = eval_path(model, model.diffusion_dx, x, (d, r, d))
            # G transposed, [row, a, j, i] = G[a, i, j], against Area[j, i] flattened;
            # numpy's matmul, as the R rows of a step are few matrices
            g_t = (sig.swapaxes(1, 2)[:, None] @ dsig.swapaxes(2, 3)).reshape(-1, d, r * r)
            noise = (sig @ dB[k][..., None])[..., 0]
            return x + b * dt + e * noise + e2 * (g_t @ A[k].reshape(-1, r * r, 1))[..., 0]

        return step

    inc_t, areas_t = inc.swapaxes(0, 1), areas.swapaxes(0, 1)  # step-major views
    states, errors = _march(
        lambda live: davie(eps[live, None], inc_t[:, live], areas_t[:, live]),
        np.repeat(x0[None], n_rows, axis=0),
        n,
        "solution",
    )
    theta_used = tuple(theta.tolist())
    return [
        Trajectory(states[:, i], float(epsilon), theta_used, grid) if err is None else err
        for i, (epsilon, err) in enumerate(zip(eps, errors))
    ]


def solve_rde(model: ModelSpec, theta, epsilon: float, rp: RoughPath, x0) -> Trajectory:
    """Solve the rough SDE along a sampled driver; eps = 0 reduces to the Euler drift flow."""
    (out,) = solve_rde_batch(
        model, theta, [epsilon], rp.coarse_increments[None], rp.coarse_areas[None], x0, rp.grid
    )
    if isinstance(out, DivergenceError):
        raise out
    return out


def solve_ode(model: ModelSpec, theta0, x0, grid: TimeGrid) -> Trajectory:
    """RK4 integration of dx/dt = b(x, theta0) on the coarse grid: the ODE
    limit as the eps = 0 Trajectory, stepped by the same march as solve_rde.

    The three inner stage states are guarded as each step's end state is: one
    that is non-finite or past BLOWUP_GUARD ends the step as its end state, so
    the march reports that step's DivergenceError and the drift never sees it."""
    theta0 = model.check_theta(theta0)
    dt = grid.dt
    sixth, offsets = dt / 6.0, (0.5 * dt, 0.5 * dt, dt)

    def f(y):
        return np.asarray(model.drift(y, theta0), dtype=float)

    def rk4(k, x):
        slopes = [f(x)]
        for c in offsets:
            y = x + c * slopes[-1]
            # a Euclidean norm within the guard clears every entry (and is cheap on
            # one state); only a stage past it is checked entry by entry
            if not math.hypot(*y.ravel().tolist()) <= BLOWUP_GUARD and not np.abs(y).max() <= BLOWUP_GUARD:
                return y
            slopes.append(f(y))
        k1, k2, k3, k4 = slopes
        return x + sixth * (k1 + 2 * k2 + 2 * k3 + k4)

    x0 = model.check_state(x0, what="x0")[None]
    states, (err,) = _march(lambda _: rk4, x0, grid.n_coarse, "ODE flow")
    if err is not None:
        raise err
    return Trajectory(states[:, 0], epsilon=0.0, theta_used=tuple(theta0.tolist()), grid=grid)


def _ode_limit_refined(model: ModelSpec, ode: Trajectory, refine: int) -> Trajectory:
    """The ODE limit on TimeGrid(T, n_coarse * refine, 0) from ode, its solve_ode on
    the n_coarse-step grid.

    Every refine-th node holds ode's state, bit for bit; each cell between is filled
    by the cubic Hermite interpolant with the drift as the slope at both ends, the
    dense output of RK4 (Hairer, Norsett & Wanner, Solving ODEs I, II.6), whose
    O(dt^4) error matches the solve's own.
    """
    x, grid, d = ode.states, ode.grid, model.d
    n = grid.n_coarse
    fine_grid = TimeGrid(grid.T, n * refine, 0)
    if refine == 1:
        return Trajectory(x, 0.0, ode.theta_used, fine_grid)
    slope = grid.dt * eval_path(model, model.drift, x, (d,), np.asarray(ode.theta_used))
    s = (np.arange(1, refine) / refine)[:, None]
    s2, s3 = s * s, s * s * s
    states = np.empty((n * refine + 1, d))
    states[::refine] = x
    states[:-1].reshape(n, refine, d)[:, 1:] = (
        (2 * s3 - 3 * s2 + 1) * x[:-1, None]
        + (s3 - 2 * s2 + s) * slope[:-1, None]
        + (3 * s2 - 2 * s3) * x[1:, None]
        + (s3 - s2) * slope[1:, None]
    )
    states.setflags(write=False)
    return Trajectory(states, 0.0, ode.theta_used, fine_grid)


def sup_distance(xeps: Trajectory, x: Trajectory) -> float:
    """max over nodes of |X^eps_t - x_t|."""
    if xeps.grid != x.grid:
        raise InputError("trajectory and ODE path live on different grids")
    return float(np.max(np.linalg.norm(xeps.states - x.states, axis=1)))


def dump_trajectory_csv(traj: Trajectory, fname) -> None:
    header = "t," + ",".join(f"X{i + 1}" for i in range(traj.d))
    data = np.column_stack([traj.grid.coarse_nodes(), traj.states])
    np.savetxt(fname, data, delimiter=",", header=header, comments="")


def load_trajectory_csv(fname, grid: TimeGrid, epsilon: float) -> Trajectory:
    try:
        data = np.loadtxt(fname, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise InputError(f"trajectory file {fname} is not a numeric CSV: {exc}") from None
    if data.shape[0] != grid.n_coarse + 1:
        raise InputError(
            f"trajectory file has {data.shape[0]} rows, grid expects {grid.n_coarse + 1}"
        )
    if not np.all(np.isfinite(data)):
        raise InputError(f"trajectory file {fname} has non-finite values")
    if not np.allclose(data[:, 0], grid.coarse_nodes(), atol=1e-10 * max(1.0, grid.T)):
        raise InputError("trajectory file nodes do not match the configured grid")
    return Trajectory(states=data[:, 1:], epsilon=float(epsilon), theta_used=(), grid=grid)
