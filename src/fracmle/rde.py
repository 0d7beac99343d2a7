"""One stepping loop for the small-noise rough SDE and its ODE limit.

The scheme is the explicit third-order (Davie/Milstein-type) step

    X_{k+1} = X_k + b(X_k, theta) dt + eps sigma(X_k) dB_k
              + eps^2 (grad sigma sigma)(X_k) : Area_k

with the contraction sum_{i,j} G[a,i,j] Area[j,i], G = (d sigma_{.i}/dx) sigma_{.j},
matching the controlled-path expansion with Gubinelli derivative
eps sigma(X). The deterministic limit, integrated by classic RK4, is the
eps = 0 Trajectory; one march with one blow-up guard steps both schemes.
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
    epsilon: float  # 0.0 for the ODE limit
    theta_used: tuple
    grid: TimeGrid

    @property
    def d(self) -> int:
        return self.states.shape[1]


def _march(step, model: ModelSpec, x0, n_steps: int, what: str) -> np.ndarray:
    """Read-only states of x_{k+1} = step(k, x_k) from a checked x0; DivergenceError at
    the first step whose state is non-finite or past BLOWUP_GUARD (the negated test catches NaN)."""
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()  # callbacks never see the caller's array
    if x.shape != (model.d,):
        raise InputError(f"x0 has shape {x.shape}, model expects ({model.d},)")
    states = np.empty((n_steps + 1, model.d))
    states[0] = x
    for k in range(n_steps):
        x = step(k, x)
        if not np.abs(x).max() <= BLOWUP_GUARD:
            raise DivergenceError(f"{what} exceeded blow-up guard at step {k}", step=k)
        states[k + 1] = x
    states.setflags(write=False)
    return states


def solve_rde(model: ModelSpec, theta, epsilon: float, rp: RoughPath, x0) -> Trajectory:
    """Solve the rough SDE along a sampled driver; eps = 0 reduces to the Euler drift flow."""
    theta = model.check_theta(theta)
    if not 0.0 <= epsilon <= 1.0:
        raise InputError(f"epsilon must lie in [0, 1], got {epsilon}")
    grid = rp.grid
    if rp.r != model.r:
        raise InputError(f"driver has {rp.r} components, model expects {model.r}")
    d, r, dt, eps2 = model.d, model.r, grid.dt, epsilon * epsilon
    inc, areas = rp.coarse_increments, rp.coarse_areas

    def davie(k, x):
        b = np.asarray(model.drift(x, theta), dtype=float)
        sig = np.asarray(model.diffusion(x), dtype=float).reshape(d, r)
        dsig = np.asarray(model.diffusion_dx(x), dtype=float).reshape(d, r, d)
        g = np.einsum("aic,cj->aij", dsig, sig)
        return x + b * dt + epsilon * (sig @ inc[k]) + eps2 * np.einsum("aij,ji->a", g, areas[k])

    states = _march(davie, model, x0, grid.n_coarse, "solution")
    return Trajectory(
        states=states, epsilon=float(epsilon), theta_used=tuple(theta.tolist()), grid=grid
    )


def solve_ode(model: ModelSpec, theta0, x0, grid: TimeGrid) -> Trajectory:
    """RK4 integration of dx/dt = b(x, theta0) on the coarse grid: the ODE
    limit as the eps = 0 Trajectory, stepped by the same march as solve_rde."""
    theta0 = model.check_theta(theta0)
    dt = grid.dt

    def f(y):
        return np.asarray(model.drift(y, theta0), dtype=float)

    def rk4(k, x):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        return x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

    states = _march(rk4, model, x0, grid.n_coarse, "ODE flow")
    return Trajectory(states=states, epsilon=0.0, theta_used=tuple(theta0.tolist()), grid=grid)


def sup_distance(xeps: Trajectory, x: Trajectory) -> float:
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
