from dataclasses import replace

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
from fracmle.model import _UNIT_NOISE, ModelSpec, _zeros_theta_derivs
from fracmle.rde import BLOWUP_GUARD, solve_rde_batch

from conftest import edge_cubic_model, sampled_lift


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
        drift_dx=lambda x, th: (3 * th[0] * x**2)[:, :, None],
        drift_dtheta=(lambda x, th: (x**3)[:, :, None],) + _zeros_theta_derivs(1, 1, 2),
        **_UNIT_NOISE,
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
        drift_dx=lambda x, th: np.zeros((len(x), 1, 1)),
        drift_dtheta=_zeros_theta_derivs(1, 1, 1),
        **_UNIT_NOISE,
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


def _solve_or_error(model, theta, epsilon, rp, x0):
    try:
        return solve_rde(model, theta, epsilon, rp, x0)
    except DivergenceError as exc:
        return exc


@pytest.mark.parametrize(
    "model, hurst, refine, theta, x0, epsilons",
    [
        (get_model("linear1d"), (0.4,), 0, [1.0], [1.0], [0.1, 0.0, 0.03]),
        (get_model("cross2d"), (0.4, 0.45), 2, [1.0, 2.0], [1.0, 1.0], [0.1, 0.05]),
        (edge_cubic_model(), (0.4,), 1, [5.0], [1.0], [0.05, 0.1, 0.3]),
    ],
    ids=["linear1d", "cross2d", "edge-cubic"],
)
def test_batch_rows_match_single_path_solves(model, hurst, refine, theta, x0, epsilons):
    # every row of one batched march is its single-path solve: the same states bit for
    # bit, or the same DivergenceError with the same step and text
    grid = TimeGrid(1.0, 64, refine)
    rps = [sampled_lift(HurstVector(hurst), grid, (3, s)) for s in range(8)]
    rows = [(eps, rp) for eps in epsilons for rp in rps]
    out = solve_rde_batch(
        model,
        theta,
        [eps for eps, _ in rows],
        np.array([rp.coarse_increments for _, rp in rows]),
        np.array([rp.coarse_areas for _, rp in rows]),
        x0,
        grid,
    )
    assert len(out) == len(rows)
    for (eps, rp), got in zip(rows, out):
        want = _solve_or_error(model, theta, eps, rp, x0)
        assert type(got) is type(want)
        if isinstance(want, DivergenceError):
            assert got.step == want.step and str(got) == str(want)
            assert str(got) == f"solution exceeded blow-up guard at step {got.step}"
        else:
            assert np.array_equal(got.states, want.states)
            assert (got.epsilon, got.theta_used, got.grid) == (want.epsilon, want.theta_used, want.grid)
            assert got.states.flags.c_contiguous and not got.states.flags.writeable
    if model.name == "edge-cubic-test":
        # the block mixes rows that diverge at different steps with rows that survive
        steps = {o.step for o in out if isinstance(o, DivergenceError)}
        assert len(steps) >= 2 and any(isinstance(o, Trajectory) for o in out)


def test_batch_rejects_a_drift_that_ignores_the_stack(h04):
    # a drift that returns one state's value for an (R, d) stack is an InputError, not
    # that value broadcast over every row
    lin = get_model("linear1d")
    model = replace(lin, name="row-zero-test", drift=lambda x, th: -th[0] * x[0])
    grid = TimeGrid(1.0, 16, 0)
    rp = sampled_lift(h04, grid, 64)
    inc, areas = (np.repeat(a[None], 3, axis=0) for a in (rp.coarse_increments, rp.coarse_areas))
    with pytest.raises(InputError, match=r"returned shape \(1,\), not \(3, 1\)"):
        solve_rde_batch(model, [1.0], [0.1, 0.2, 0.3], inc, areas, [1.0], grid)
    # one row is the stack with R = 1, where row 0 is the whole stack
    one = solve_rde(model, [1.0], 0.1, rp, [1.0])
    assert np.array_equal(one.states, solve_rde(lin, [1.0], 0.1, rp, [1.0]).states)


def test_batch_rejects_mismatched_driver_stack(h04):
    rp = sampled_lift(h04, TimeGrid(1.0, 16, 0), 63)
    inc, areas = rp.coarse_increments[None], rp.coarse_areas[None]
    model = get_model("linear1d")
    with pytest.raises(InputError, match="2 drivers with 1 components on 16 coarse steps"):
        solve_rde_batch(model, [1.0], [0.1, 0.2], inc, areas, [1.0], rp.grid)
    with pytest.raises(InputError, match="1 drivers with 2 components"):
        solve_rde_batch(get_model("cross2d"), [1.0, 1.0], [0.1], inc, areas, [1.0, 1.0], rp.grid)


@pytest.mark.parametrize("solve", ["solve_rde", "solve_ode", "gamma_matrix"])
def test_non_finite_x0_is_input_error(solve):
    # a NaN start is a bad input, not a divergence at step 0
    from fracmle import gamma_matrix

    model, hv, grid = get_model("linear1d"), HurstVector((0.4,)), TimeGrid(1.0, 16, 0)
    rp = lift(sample_fbm(hv, grid, 1), grid)
    calls = {
        "solve_rde": lambda: solve_rde(model, [1.0], 0.1, rp, [np.nan]),
        "solve_ode": lambda: solve_ode(model, [1.0], [np.nan], grid),
        "gamma_matrix": lambda: gamma_matrix(model, [1.0], hv, grid, [np.nan]),
    }
    with pytest.raises(InputError, match="non-finite x0"):
        calls[solve]()
