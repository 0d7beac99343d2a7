import numpy as np
import pytest
from scipy.stats import linregress

from fracmle import (
    DivergenceError,
    HurstVector,
    InputError,
    TimeGrid,
    Trajectory,
    get_model,
    lift,
    sample_fbm,
    solve_ode,
    solve_rde,
    sup_distance,
)
from fracmle.model import ModelSpec
from fracmle.model import _zeros_theta_derivs
from fracmle.rde import BLOWUP_GUARD

from conftest import sampled_lift


def test_additive_noise_exact(h04):
    # b = 0, sigma = const: X_t = x0 + eps * C * B_t exactly
    model = get_model("zero1d")
    grid = TimeGrid(1.0, 64, 0)
    path = sample_fbm(h04, grid, 51)
    rp = lift(path, grid)
    traj = solve_rde(model, [1.0], 0.3, rp, [2.0])
    assert np.allclose(traj.states[:, 0], 2.0 + 0.3 * path[:, 0], atol=1e-14)


def test_geometric_closed_form(h04):
    # sigma(x) = x with the geometric lift: X_t -> exp(eps B_t)
    model = get_model("geom1d")
    grid = TimeGrid(1.0, 4096, 0)
    worst = 0.0
    for s in range(5):
        path = sample_fbm(h04, grid, (52, s))
        rp = lift(path, grid)
        traj = solve_rde(model, [1.0], 0.1, rp, [1.0])
        exact = np.exp(0.1 * path[:, 0])
        worst = max(worst, float(np.max(np.abs(traj.states[:, 0] - exact) / exact)))
    assert worst <= 1e-3


def test_scheme_consistency_doubling(h04):
    # halving the step shrinks the closed-form gap by a factor >= 1.7
    model = get_model("geom1d")
    factors = []
    for s in range(20):
        gaps = []
        for n in (1024, 2048):
            grid = TimeGrid(1.0, n, 0)
            path = sample_fbm(h04, grid, (53, s))
            rp = lift(path, grid)
            traj = solve_rde(model, [1.0], 0.1, rp, [1.0])
            exact = np.exp(0.1 * path[:, 0])
            gaps.append(float(np.max(np.abs(traj.states[:, 0] - exact) / exact)))
        factors.append(gaps[0] / gaps[1])
    assert np.mean(factors) >= 1.7


def test_epsilon_zero_matches_ode(h04):
    model = get_model("linear1d")
    grid = TimeGrid(1.0, 256, 0)
    rp = sampled_lift(h04, grid, 54)
    traj = solve_rde(model, [1.0], 0.0, rp, [1.0])
    ode = solve_ode(model, [1.0], [1.0], grid)
    lip = 1.0
    assert sup_distance(traj, ode) <= 5.0 * grid.dt * lip * grid.T


def test_ode_linear_closed_form():
    model = get_model("linear1d")
    grid = TimeGrid(1.0, 1024, 0)
    ode = solve_ode(model, [1.0], [1.0], grid)
    assert abs(ode.states[-1, 0] - np.exp(-1.0)) <= 1e-8


def test_ode_zero_drift_constant():
    model = get_model("zero1d")
    grid = TimeGrid(1.0, 64, 0)
    ode = solve_ode(model, [1.0], [3.0], grid)
    assert np.all(ode.states == 3.0)


def test_ode_cross2d_richardson():
    # step-halving oracle: RK4 at n vs n/2, Richardson-extrapolated reference
    model = get_model("cross2d")
    theta = [1.0, 2.0]
    x0 = [1.0, 1.0]
    coarse = solve_ode(model, theta, x0, TimeGrid(1.0, 256, 0)).states[-1]
    fine = solve_ode(model, theta, x0, TimeGrid(1.0, 512, 0)).states[-1]
    rich = fine + (fine - coarse) / 15.0
    test = solve_ode(model, theta, x0, TimeGrid(1.0, 512, 0)).states[-1]
    assert np.max(np.abs(test - rich)) <= 1e-6


def test_sup_distance_identical_and_mismatch(h04):
    model = get_model("linear1d")
    grid = TimeGrid(1.0, 64, 0)
    rp = sampled_lift(h04, grid, 55)
    traj = solve_rde(model, [1.0], 0.0, rp, [1.0])
    ode = solve_ode(model, [1.0], [1.0], TimeGrid(1.0, 64, 0))
    assert sup_distance(traj, traj_to_ode(traj)) == 0.0
    other = solve_ode(model, [1.0], [1.0], TimeGrid(1.0, 32, 0))
    with pytest.raises(InputError):
        sup_distance(traj, other)


def traj_to_ode(traj):
    from fracmle.rde import Trajectory

    return Trajectory(states=traj.states, epsilon=0.0, theta_used=traj.theta_used, grid=traj.grid)


def test_epsilon_rate_slope(h04):
    # mean sup-distance to the ODE limit scales like eps (log-log slope near 1)
    model = get_model("linear1d")
    grid = TimeGrid(1.0, 128, 0)
    ode = solve_ode(model, [1.0], [1.0], grid)
    epss = [0.2, 0.1, 0.05, 0.025]
    means = []
    for eps in epss:
        dists = []
        for s in range(40):
            rp = sampled_lift(h04, grid, (56, s))
            traj = solve_rde(model, [1.0], eps, rp, [1.0])
            dists.append(sup_distance(traj, ode))
        means.append(np.mean(dists))
    fit = linregress(np.log(epss), np.log(means))
    assert 0.85 <= fit.slope <= 1.15
    assert all(means[i] >= means[i + 1] for i in range(len(means) - 1))


def test_determinism_bit_identical(h04):
    model = get_model("cross2d")
    hv = HurstVector((0.4, 0.45))
    grid = TimeGrid(1.0, 32, 2)
    a = solve_rde(model, [1.0, 2.0], 0.2, sampled_lift(hv, grid, (57, 0)), [1.0, 1.0])
    b = solve_rde(model, [1.0, 2.0], 0.2, sampled_lift(hv, grid, (57, 0)), [1.0, 1.0])
    assert np.array_equal(a.states, b.states)


def test_blowup_guard_carries_step(h04):
    # explosive drift hits the guard and reports the step index
    def drift(x, th):
        return th[0] * x**3

    model = ModelSpec(
        name="explode-test",
        d=1,
        r=1,
        m=1,
        theta_domain=[[0.1, 5.0]],
        drift=drift,
        drift_dx=lambda x, th: np.array([[3 * th[0] * x[0] ** 2]]),
        drift_dtheta=(lambda x, th: np.array([[x[0] ** 3]]),) + _zeros_theta_derivs(1, 1, 2),
        diffusion=lambda x: np.array([[1.0]]),
        diffusion_dx=lambda x: np.zeros((1, 1, 1)),
        diffusion_dxx=lambda x: np.zeros((1, 1, 1, 1)),
    )
    grid = TimeGrid(1.0, 64, 0)
    rp = sampled_lift(h04, grid, 58)
    with pytest.raises(DivergenceError) as err:
        solve_rde(model, [5.0], 0.1, rp, [3.0])
    assert isinstance(err.value.step, int)


def _runaway_model(drift):
    return ModelSpec(
        name="runaway-test",
        d=1,
        r=1,
        m=1,
        theta_domain=[[0.1, 100.0]],
        drift=drift,
        drift_dx=lambda x, th: np.zeros((1, 1)),
        drift_dtheta=_zeros_theta_derivs(1, 1, 1),
        diffusion=lambda x: np.array([[1.0]]),
        diffusion_dx=lambda x: np.zeros((1, 1, 1)),
        diffusion_dxx=lambda x: np.zeros((1, 1, 1, 1)),
    )


def _divergence_step(solve, *args):
    with pytest.raises(DivergenceError) as err:
        solve(*args)
    return err.value.step


def test_nan_drift_divergence_step(h04):
    # unit drift up to the threshold, NaN past it; x_{k+1} is NaN for the first
    # k whose drift stage is past it. The threshold sits between grid nodes.
    thresh = 0.5 + 1.0 / 128
    model = _runaway_model(lambda x, th: np.where(x <= thresh, 1.0, np.nan))
    grid = TimeGrid(1.0, 64, 0)
    rp = sampled_lift(h04, grid, 60)
    # Euler: x_k = k / 64, first past the threshold at k = 33
    assert _divergence_step(solve_rde, model, [1.0], 0.0, rp, [0.0]) == 33
    # RK4's last stage evaluates the drift at x_k + dt = (k + 1) / 64
    assert _divergence_step(solve_ode, model, [1.0], [0.0], grid) == 32
    # additive noise: x_k = k dt + eps B_k, computed here without the solver
    path = np.arange(65) * grid.dt + 0.1 * rp.coarse_values()[:, 0]
    assert np.any(path > thresh)
    expected = int(np.argmax(path > thresh))
    assert _divergence_step(solve_rde, model, [1.0], 0.1, rp, [0.0]) == expected


def test_guard_divergence_step(h04):
    # b(x) = theta x with theta dt = 1: Euler doubles x per step, RK4 multiplies
    # it by 1 + 1 + 1/2 + 1/6 + 1/24; both pass the guard far below overflow
    model = _runaway_model(lambda x, th: th[0] * x)
    grid = TimeGrid(1.0, 64, 0)
    rp = sampled_lift(h04, grid, 61)

    def first_past(factor):
        return next(k for k in range(64) if factor ** (k + 1) > BLOWUP_GUARD)

    assert _divergence_step(solve_rde, model, [64.0], 0.0, rp, [1.0]) == first_past(2.0) == 39
    assert _divergence_step(solve_ode, model, [64.0], [1.0], grid) == first_past(65.0 / 24.0)
    x, expected = 1.0, None
    for k, db in enumerate(rp.coarse_increments[:, 0]):
        x = 2.0 * x + 0.1 * db
        if abs(x) > BLOWUP_GUARD:
            expected = k
            break
    assert _divergence_step(solve_rde, model, [64.0], 0.1, rp, [1.0]) == expected


@pytest.mark.parametrize(
    "name, hurst, theta, x0",
    [("linear1d", (0.4,), [1.0], [1.0]), ("cross2d", (0.4, 0.45), [1.0, 2.0], [1.0, 1.0])],
)
def test_epsilon_zero_is_euler_drift_flow(name, hurst, theta, x0):
    model = get_model(name)
    grid = TimeGrid(1.0, 128, 2)
    traj = solve_rde(model, theta, 0.0, sampled_lift(HurstVector(hurst), grid, 62), x0)
    th = np.asarray(theta, dtype=float)
    states = [np.asarray(x0, dtype=float)]
    for _ in range(grid.n_coarse):
        x = states[-1]
        states.append(x + np.asarray(model.drift(x, th), dtype=float) * grid.dt)
    assert np.array_equal(traj.states, np.array(states))


def test_ode_limit_is_epsilon_zero_trajectory():
    ode = solve_ode(get_model("cross2d"), [1.0, 2.0], [1.0, 1.0], TimeGrid(1.0, 32, 0))
    assert isinstance(ode, Trajectory)
    assert ode.epsilon == 0.0
    assert ode.theta_used == (1.0, 2.0)
    assert not ode.states.flags.writeable


def test_epsilon_domain(h04):
    model = get_model("linear1d")
    rp = sampled_lift(h04, TimeGrid(1.0, 16, 0), 59)
    with pytest.raises(InputError):
        solve_rde(model, [1.0], 1.5, rp, [1.0])
