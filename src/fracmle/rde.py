"""One-step solver for the small-noise rough SDE and its ODE limit.

The scheme is the explicit third-order (Davie/Milstein-type) step

    X_{k+1} = X_k + b(X_k, theta) dt + eps sigma(X_k) dB_k
              + eps^2 (grad sigma sigma)(X_k) : Area_k

with the contraction sum_{i,j} G[a,i,j] Area[j,i], G = (d sigma_{.i}/dx) sigma_{.j},
matching the controlled-path expansion with Gubinelli derivative
eps sigma(X). The deterministic limit is integrated by classic RK4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controlled import ControlledPath, controlled_compose
from .errors import DivergenceError, InputError
from .fbm import RoughPath, TimeGrid
from .model import ModelSpec, eval_path

BLOWUP_GUARD = 1e12


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray  # (n_coarse + 1, d)
    epsilon: float
    theta_used: tuple
    grid: TimeGrid

    @property
    def d(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class OdePath:
    states: np.ndarray
    theta0: tuple
    grid: TimeGrid


def _check_x0(model: ModelSpec, x0) -> np.ndarray:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (model.d,):
        raise InputError(f"x0 has shape {x0.shape}, model expects ({model.d},)")
    return x0


def solve_rde(model: ModelSpec, theta, epsilon: float, rp: RoughPath, x0) -> Trajectory:
    """Solve the rough SDE along a sampled driver; eps = 0 reduces to the Euler drift flow."""
    theta = model.check_theta(theta)
    if not 0.0 <= epsilon <= 1.0:
        raise InputError(f"epsilon must lie in [0, 1], got {epsilon}")
    x0 = _check_x0(model, x0)
    grid = rp.grid
    if rp.r != model.r:
        raise InputError(f"driver has {rp.r} components, model expects {model.r}")
    nc = grid.n_coarse
    dt = grid.dt
    states = np.empty((nc + 1, model.d))
    states[0] = x0
    x = x0.copy()
    eps2 = epsilon * epsilon
    for k in range(nc):
        x_old = x
        b = np.asarray(model.drift(x_old, theta), dtype=float)
        x = x_old + b * dt
        if epsilon > 0.0:
            sig = np.asarray(model.diffusion(x_old), dtype=float).reshape(model.d, model.r)
            dsig = np.asarray(model.diffusion_dx(x_old), dtype=float).reshape(
                model.d, model.r, model.d
            )
            g = np.einsum("aic,cj->aij", dsig, sig)
            x = x + epsilon * (sig @ rp.coarse_increments[k])
            x = x + eps2 * np.einsum("aij,ji->a", g, rp.coarse_areas[k])
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > BLOWUP_GUARD:
            raise DivergenceError(f"solution exceeded blow-up guard at step {k}", step=k)
        states[k + 1] = x
    states.setflags(write=False)
    return Trajectory(
        states=states, epsilon=float(epsilon), theta_used=tuple(theta.tolist()), grid=grid
    )


def solve_ode(model: ModelSpec, theta0, x0, grid: TimeGrid) -> OdePath:
    """RK4 integration of dx/dt = b(x, theta0) on the coarse grid."""
    theta0 = model.check_theta(theta0)
    x0 = _check_x0(model, x0)
    nc, dt = grid.n_coarse, grid.dt
    states = np.empty((nc + 1, model.d))
    states[0] = x0
    x = x0.copy()

    def f(y):
        return np.asarray(model.drift(y, theta0), dtype=float)

    for k in range(nc):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > BLOWUP_GUARD:
            raise DivergenceError(f"ODE flow exceeded blow-up guard at step {k}", step=k)
        states[k + 1] = x
    states.setflags(write=False)
    return OdePath(states=states, theta0=tuple(theta0.tolist()), grid=grid)


def sup_distance(xeps: Trajectory, x: OdePath) -> float:
    """max over nodes of |X^eps_t - x_t|."""
    if xeps.grid != x.grid:
        raise InputError("trajectory and ODE path live on different grids")
    return float(np.max(np.linalg.norm(xeps.states - x.states, axis=1)))


def trajectory_as_controlled(traj: Trajectory, model: ModelSpec, rp: RoughPath) -> ControlledPath:
    """The solution as a controlled path: values X_t, derivative eps sigma(X_t)."""
    gub = traj.epsilon * eval_path(model, model.diffusion, traj.states, (model.d, model.r))
    return ControlledPath(values=np.asarray(traj.states, dtype=float), gubinelli=gub, driver=rp)


def sigma_controlled(traj: Trajectory, model: ModelSpec, rp: RoughPath) -> ControlledPath:
    """sigma(X) as a controlled path with Gubinelli derivative eps (grad sigma) sigma."""
    state_cp = trajectory_as_controlled(traj, model, rp)
    return controlled_compose(model.diffusion, model.diffusion_dx, state_cp)


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
