import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.special import gamma as G

from fracmle import (
    EllipticityError,
    HurstVector,
    InputError,
    ModelSpec,
    OptimizationError,
    OptimizerConfig,
    TimeGrid,
    build_context,
    build_Y,
    build_Z,
    compute_Q,
    d_H,
    gamma_matrix,
    get_model,
    grad_log_likelihood,
    identifiability_scan,
    lift,
    likelihood_parts,
    log_likelihood,
    mle,
    sample_fbm,
    solve_ode,
    solve_rde,
    verify_transfer_identity,
    y_limit_field,
)
from fracmle import fraccalc, inference
from fracmle.inference import _latin_hypercube_starts, plans_for
from fracmle.model import _zeros_theta_derivs, sigma_weighted
from fracmle.rde import dump_trajectory_csv, load_trajectory_csv

from conftest import sampled_lift, trapezoid_weights


H04 = HurstVector((0.4,))
LIN = get_model("linear1d")
X0 = np.array([1.0])
TH0 = np.array([1.0])


def _linear_ctx(seed, eps=0.1, n=512):
    grid = TimeGrid(1.0, n, 0)
    rp = sampled_lift(H04, grid, seed)
    traj = solve_rde(LIN, TH0, eps, rp, X0)
    return build_context(traj, LIN, H04), rp


# ---------------------------------------------------------------- build_Y


def test_build_Y_constant_sigma_exact():
    ctx, _ = _linear_ctx(61)
    traj = ctx.trajectory
    y = build_Y(traj, LIN)
    expect = (traj.states[:, 0] - traj.states[0, 0]) / traj.epsilon
    assert np.allclose(y[:, 0], expect, atol=1e-12)
    assert y[0, 0] == 0.0


def test_build_Y_identity_oracle():
    # Y = (1/eps) int b(X) dt + B for the simulated driver, up to O(dt^2H) terms
    grid = TimeGrid(1.0, 2048, 0)
    path = sample_fbm(H04, grid, 62)
    rp = lift(path, grid)
    traj = solve_rde(LIN, TH0, 0.1, rp, X0)
    y = build_Y(traj, LIN)
    drift_term = cumulative_trapezoid(
        -TH0[0] * traj.states[:, 0], grid.coarse_nodes(), initial=0.0
    )
    oracle = drift_term / 0.1 + path[:, 0]
    assert np.max(np.abs(y[:, 0] - oracle)) <= 0.05


def test_build_Y_zero_noise_limit():
    # eps = 1 with B == 0: Y equals the drift integral to quadrature tolerance
    grid = TimeGrid(1.0, 4096, 0)
    rp = lift(np.zeros((grid.n_fine + 1, 1)), grid)
    traj = solve_rde(LIN, TH0, 1.0, rp, X0)
    y = build_Y(traj, LIN)
    oracle = cumulative_trapezoid(-traj.states[:, 0], grid.coarse_nodes(), initial=0.0)
    assert np.max(np.abs(y[:, 0] - oracle)) <= 1e-4


def test_build_Y_correction_term_matters_2d():
    # nonconstant sigma: dropping the second-order term changes Y
    model = get_model("cross2d")
    hv = HurstVector((0.4, 0.4))
    grid = TimeGrid(1.0, 256, 2)
    rp = sampled_lift(hv, grid, 63)
    traj = solve_rde(model, [1.0, 2.0], 0.5, rp, [1.0, 1.0])
    y = build_Y(traj, model)
    from fracmle.model import weighted_path

    f, _ = weighted_path(model, traj.states)
    dx = np.diff(traj.states, axis=0)
    naive = np.zeros_like(y)
    naive[1:] = np.cumsum(np.einsum("kia,ka->ki", f[:-1], dx), axis=0) / 0.5
    assert np.max(np.abs(y - naive)) > 1e-4


# ---------------------------------------------------------------- build_Z


def test_build_Z_zero():
    plans = plans_for(LIN, H04, TimeGrid(1.0, 64, 0))
    z = build_Z(np.zeros((65, 1)), plans)
    assert np.all(z == 0.0)


def test_build_Z_pure_noise_wiener():
    # b == 0 data: Z is the transformed driver, Var(Z_1) = 1
    model = get_model("zero1d")
    grid = TimeGrid(1.0, 256, 0)
    vals = []
    for s in range(500):
        rp = sampled_lift(H04, grid, (64, s))
        traj = solve_rde(model, [1.0], 0.5, rp, [0.0])
        ctx = build_context(traj, model, H04)
        vals.append(ctx.z[-1, 0])
    assert abs(np.var(vals, ddof=1) - 1.0) <= 0.05


def test_build_Z_decomposition_variance():
    # Z_t - int_0^t Q dt is the Wiener part: unit variance at t = 1
    grid = TimeGrid(1.0, 512, 0)
    w = trapezoid_weights(grid)
    vals = []
    for s in range(300):
        rp = sampled_lift(H04, grid, (818, s))
        traj = solve_rde(LIN, TH0, 0.1, rp, X0)
        ctx = build_context(traj, LIN, H04)
        q = compute_Q(traj.states, LIN, TH0, 0.1, ctx.plans)
        vals.append(ctx.z[-1, 0] - float(q.values[:, 0] @ w))
    assert abs(np.var(vals, ddof=1) - 1.0) <= 0.1


# ---------------------------------------------------------------- compute_Q


def test_Q_constant_drift_closed_form():
    model = get_model("const1d")
    grid = TimeGrid(1.0, 1024, 0)
    states = np.zeros((grid.n_coarse + 1, 1))
    plans = plans_for(model, H04, grid)
    q = compute_Q(states, model, [1.0], 1.0, plans)
    oracle = G(1.1) / G(1.2) / d_H(0.4)
    assert abs(q.values[-1, 0] - oracle) / oracle <= 1e-4


def test_Q_zero_drift():
    model = get_model("zero1d")
    grid = TimeGrid(1.0, 128, 0)
    states = np.ones((129, 1))
    q = compute_Q(states, model, [1.0], 1.0, plans_for(model, H04, grid))
    assert np.all(q.values == 0.0)


def test_Q_linear_in_drift_bit_consistent():
    # b = theta g(x): Q(theta) = theta Q(1) through the linear weights
    grid = TimeGrid(1.0, 128, 0)
    rp = sampled_lift(H04, grid, 66)
    traj = solve_rde(LIN, TH0, 0.5, rp, X0)
    plans = plans_for(LIN, H04, grid)
    q1 = compute_Q(traj.states, LIN, [1.0], 0.5, plans)
    q2 = compute_Q(traj.states, LIN, [2.0], 0.5, plans)
    assert np.allclose(q2.values, 2.0 * q1.values, rtol=1e-12, atol=1e-13)


def test_Q_starts_at_zero_and_finite():
    ctx, _ = _linear_ctx(67)
    q = compute_Q(
        ctx.trajectory.states, LIN, TH0, 0.1, ctx.plans, order=2, f_path=ctx.f_path
    )
    assert q.values[0, 0] == 0.0 and q.dtheta[0, 0, 0] == 0.0
    for arr in (q.values, q.dtheta, q.dtheta2):
        assert np.all(np.isfinite(arr))


def test_Q_ellipticity_propagates():
    model = get_model("geom1d")
    grid = TimeGrid(1.0, 64, 0)
    states = np.zeros((65, 1))  # sigma(0) = 0
    with pytest.raises(EllipticityError):
        compute_Q(states, model, [1.0], 1.0, plans_for(model, H04, grid))


def test_Q_checks_its_plans():
    # one plan per driver component, each a Hurst plan on the states' grid
    model = get_model("cross2d")
    grid = TimeGrid(1.0, 64, 2)
    states = np.ones((65, model.d))
    hv = HurstVector((0.4, 0.45))
    assert compute_Q(states, model, [1.0] * model.m, 1.0, plans_for(model, hv, grid)).values.shape == (65, 2)
    order_plan = fraccalc.FracKernelPlan.for_order(0.1, grid)
    for bad in (
        plans_for(LIN, H04, grid),
        (order_plan, order_plan),
        plans_for(model, hv, TimeGrid(1.0, 32, 2)),
        plans_for(model, hv, grid)[0],
    ):
        with pytest.raises(InputError, match="Hurst plans"):
            compute_Q(states, model, [1.0] * model.m, 1.0, bad)


def _compute_Q_per_column(states, model, theta, epsilon, plans, order, f_path):
    """compute_Q as one q_transform call per (component, column): the oracle of
    the stacked field."""
    from fracmle import fraccalc
    from fracmle.model import eval_path

    n1 = states.shape[0]
    b = eval_path(model, model.drift, states, (model.d,), theta)
    g = np.einsum("kia,ka->ki", f_path, b)
    dg = d2g = None
    if order >= 1:
        db = eval_path(model, model.drift_dtheta[0], states, (model.d, model.m), theta)
        dg = np.einsum("kia,kaj->kij", f_path, db)
    if order >= 2:
        d2b = eval_path(model, model.drift_dtheta[1], states, (model.d, model.m, model.m), theta)
        d2g = np.einsum("kia,kajl->kijl", f_path, d2b)

    def transform(arr):
        out = np.zeros_like(arr)
        flat = arr.reshape(n1, model.r, -1)
        res = out.reshape(n1, model.r, -1)
        for i in range(model.r):
            scale = 1.0 / (epsilon * fraccalc.d_H(plans[i].hurst))
            for c in range(flat.shape[2]):
                if flat[:, i, c].any():
                    res[:, i, c] = fraccalc.q_transform(plans[i], flat[:, i, c], scale)
        return out

    return (transform(g), transform(dg) if order >= 1 else None, transform(d2g) if order >= 2 else None)


def _squared_rate_model(theta_linear=False):
    """b = -theta^2 x: not affine in theta, so its second theta-derivative -2x is nonzero."""

    def dth1(x, th):
        return -2.0 * th[0] * np.asarray(x, dtype=float)[..., :, None]

    def dth2(x, th):
        return -2.0 * np.asarray(x, dtype=float)[..., :, None, None]

    return ModelSpec(
        name="squared-rate",
        d=1,
        r=1,
        m=1,
        theta_domain=[[0.1, 3.0]],
        drift=lambda x, th: -th[0] ** 2 * np.asarray(x, dtype=float),
        drift_dx=lambda x, th: np.full(np.shape(x) + (1,), -th[0] ** 2),
        drift_dtheta=(dth1, dth2) + _zeros_theta_derivs(1, 1, 3),
        diffusion=LIN.diffusion,
        diffusion_dx=LIN.diffusion_dx,
        diffusion_dxx=LIN.diffusion_dxx,
        theta_linear=theta_linear,
    )


# model, hurst, theta0, x0, evaluation theta, n_coarse, refine_level
_Q_CASES = {
    "linear1d": (LIN, H04, (1.0,), (1.0,), (1.3,), 256, 0),
    "const1d": (get_model("const1d"), H04, (0.7,), (0.0,), (0.4,), 256, 0),
    "zero1d": (get_model("zero1d"), H04, (1.0,), (0.5,), (1.0,), 128, 0),
    "cross2d": (get_model("cross2d"), HurstVector((0.4, 0.45)), (1.0, 2.0), (1.0, 1.0), (1.2, 1.7), 128, 2),
    "squared-rate": (_squared_rate_model(), H04, (1.0,), (1.0,), (0.8,), 256, 0),
}


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(_Q_CASES))
def test_stacked_Q_matches_per_column_loop(name, order):
    model, hv, th0, x0, theta, n, level = _Q_CASES[name]
    grid = TimeGrid(1.0, n, level)
    traj = solve_rde(model, th0, 0.1, sampled_lift(hv, grid, 83), x0)
    ctx = build_context(traj, model, hv)
    theta = np.asarray(theta)
    q = compute_Q(traj.states, model, theta, 0.1, ctx.plans, order=order, f_path=ctx.f_path)
    oracle = _compute_Q_per_column(traj.states, model, theta, 0.1, ctx.plans, order, ctx.f_path)
    for got, want in zip((q.values, q.dtheta, q.dtheta2), oracle):
        if want is None:
            assert got is None
        else:
            assert got.flags["C_CONTIGUOUS"]
            assert got.shape == want.shape
            assert np.array_equal(got, want)


@pytest.mark.parametrize("name, calls", [("linear1d", 1), ("cross2d", 2)])
def test_Q_one_transform_per_driver_component(name, calls, monkeypatch):
    from fracmle import fraccalc

    model, hv, th0, x0, theta, n, level = _Q_CASES[name]
    grid = TimeGrid(1.0, n, level)
    ctx = build_context(solve_rde(model, th0, 0.1, sampled_lift(hv, grid, 84), x0), model, hv)
    real, seen = fraccalc.q_transform, []

    def counted(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(fraccalc, "q_transform", counted)
    likelihood_parts(ctx, theta, order=2)
    assert len(seen) == calls


def test_false_theta_linear_rejected_before_any_transform(monkeypatch):
    from fracmle import fraccalc

    ctx, _ = _linear_ctx(85, n=128)
    seen = []
    monkeypatch.setattr(fraccalc, "q_transform", lambda *args: seen.append(args))
    with pytest.raises(InputError, match="theta_linear"):
        likelihood_parts(dataclasses.replace(ctx, model=_squared_rate_model(theta_linear=True)), [1.0])
    assert seen == []


@pytest.mark.parametrize("order", [-1, 1.5, 3, None, "2"])
def test_derivative_order_outside_0_to_2_is_input_error(order):
    ctx, _ = _linear_ctx(86, n=64)
    with pytest.raises(InputError, match="derivative order"):
        likelihood_parts(ctx, [1.0], order=order)


# ---------------------------------------------------------------- likelihood


def test_loglik_zero_drift_is_zero():
    model = get_model("zero1d")
    grid = TimeGrid(1.0, 128, 0)
    rp = sampled_lift(H04, grid, 68)
    traj = solve_rde(model, [1.0], 0.2, rp, [0.5])
    ctx = build_context(traj, model, H04)
    assert log_likelihood(ctx, [1.0]) == 0.0


def test_loglik_quadratic_identity_const_drift():
    # L(2t) - 2 L(t) + L(0') = -t^2 S2 for the exactly quadratic likelihood;
    # theta = 0 sits inside the const1d box
    model = get_model("const1d")
    grid = TimeGrid(1.0, 256, 0)
    rp = sampled_lift(H04, grid, 69)
    traj = solve_rde(model, [0.8], 0.1, rp, [0.0])
    ctx = build_context(traj, model, H04)
    t = 0.8
    w = trapezoid_weights(grid)
    q1 = compute_Q(traj.states, model, [1.0], 0.1, ctx.plans, f_path=ctx.f_path)
    s2 = float(np.sum(q1.values[:, 0] ** 2 * w))
    lhs = log_likelihood(ctx, [2 * t]) - 2 * log_likelihood(ctx, [t]) + log_likelihood(ctx, [0.0])
    assert lhs == pytest.approx(-(t**2) * s2, abs=1e-10)


def test_gradient_matches_finite_differences():
    ctx, _ = _linear_ctx(70, eps=0.1, n=256)
    rng = np.random.default_rng(71)
    step = 1e-5
    for _ in range(20):
        th = rng.uniform(0.3, 4.5)
        g = grad_log_likelihood(ctx, [th])[0]
        fd = (log_likelihood(ctx, [th + step]) - log_likelihood(ctx, [th - step])) / (2 * step)
        assert abs(g - fd) / max(1.0, abs(fd)) <= 1e-4


def test_hessian_matches_finite_differences():
    ctx, _ = _linear_ctx(72, eps=0.1, n=256)
    step = 1e-4
    for th in (0.7, 1.5, 3.0):
        h = likelihood_parts(ctx, [th], order=2)[2][0, 0]
        fd = (
            log_likelihood(ctx, [th + step])
            - 2 * log_likelihood(ctx, [th])
            + log_likelihood(ctx, [th - step])
        ) / step**2
        assert abs(h - fd) / max(1.0, abs(fd)) <= 1e-3


def test_hessian_2d_model_finite_differences():
    model = get_model("cross2d")
    hv = HurstVector((0.4, 0.4))
    grid = TimeGrid(1.0, 128, 2)
    rp = sampled_lift(hv, grid, 73)
    traj = solve_rde(model, [1.0, 2.0], 0.1, rp, [1.0, 1.0])
    ctx = build_context(traj, model, hv)
    th = np.array([1.2, 1.8])
    _, grad, hess = likelihood_parts(ctx, th, order=2)
    step = 1e-5
    for j in range(2):
        e = np.zeros(2)
        e[j] = step
        fd = (log_likelihood(ctx, th + e) - log_likelihood(ctx, th - e)) / (2 * step)
        assert abs(grad[j] - fd) / max(1.0, abs(fd)) <= 1e-4
    assert np.allclose(hess, hess.T, atol=1e-12)


# ---------------------------------------------------------------- mle


@pytest.mark.parametrize("theta0", [[1.0, 2.0], [np.nan], [np.inf]], ids=["length", "nan", "inf"])
def test_mle_checks_theta0(theta0):
    ctx, _ = _linear_ctx(87, n=64)
    with pytest.raises(InputError, match="theta"):
        mle(ctx, theta0=theta0)


def test_mle_const_drift_closed_form():
    model = get_model("const1d")
    grid = TimeGrid(1.0, 512, 0)
    rp = sampled_lift(H04, grid, 74)
    traj = solve_rde(model, [0.7], 0.1, rp, [0.0])
    ctx = build_context(traj, model, H04)
    rec = mle(ctx, theta0=[0.7])
    q1 = compute_Q(traj.states, model, [1.0], 0.1, ctx.plans, f_path=ctx.f_path)
    dz = np.diff(ctx.z[:, 0])
    w = trapezoid_weights(grid)
    s1 = float(q1.values[:-1, 0] @ dz)
    s2 = float(np.sum(q1.values[:, 0] ** 2 * w))
    closed = float(np.clip(s1 / s2, -5.0, 5.0))
    assert abs(rec.theta_hat[0] - closed) <= 1e-8
    assert rec.converged


def test_mle_interior_and_boundary_flags():
    interior = 0
    for s in range(20):
        ctx, _ = _linear_ctx((75, s), eps=0.03)
        rec = mle(ctx, theta0=TH0)
        interior += not rec.boundary_flag
    assert interior >= 19  # >= 95%


def test_mle_boundary_flag_set_when_clamped():
    model = get_model("linear1d").with_domain([[0.9, 1.1]])
    flags = 0
    for s in range(10):
        grid = TimeGrid(1.0, 256, 0)
        rp = sampled_lift(H04, grid, (76, s))
        traj = solve_rde(model, [1.05], 0.5, rp, X0)
        ctx = build_context(traj, model, H04)
        flags += mle(ctx, theta0=[1.05]).boundary_flag
    assert flags >= 5


def test_mle_beats_truth():
    # argmax over a set containing theta0 cannot be worse than theta0
    for s in range(10):
        ctx, _ = _linear_ctx((77, s), eps=0.1, n=256)
        rec = mle(ctx, theta0=TH0)
        assert rec.loglik >= log_likelihood(ctx, TH0) - 1e-10


def test_mle_u_field():
    ctx, _ = _linear_ctx(78, eps=0.05)
    rec = mle(ctx, theta0=TH0)
    assert rec.u[0] == pytest.approx((rec.theta_hat[0] - 1.0) / 0.05, rel=1e-12)
    rec2 = mle(ctx)
    assert rec2.u is None
    assert rec2.theta_hat == rec.theta_hat


# ------------------------------------------- mle on the quadratic expansion

def _affine_ou_model():
    """b = theta2 - theta1 x: affine in theta with both theta-columns on one driver
    component, so that unlike the built-in models the Hessian couples them."""

    def dth1(x, th):
        x = np.asarray(x, dtype=float)
        return np.stack([-x, np.ones_like(x)], axis=-1)

    return ModelSpec(
        name="affine-ou",
        d=1,
        r=1,
        m=2,
        theta_domain=[[0.1, 5.0], [-3.0, 3.0]],
        drift=lambda x, th: th[1] - th[0] * np.asarray(x, dtype=float),
        drift_dx=lambda x, th: np.full(np.shape(x) + (1,), -th[0]),
        drift_dtheta=(dth1,) + _zeros_theta_derivs(1, 2, 2),
        diffusion=LIN.diffusion,
        diffusion_dx=LIN.diffusion_dx,
        diffusion_dxx=LIN.diffusion_dxx,
        theta_linear=True,
    )


# (model, hurst, theta0, x0, n_coarse, refine_level) per theta-linear model
_QUAD_CASES = {
    "linear1d": (LIN, H04, (1.0,), (1.0,), 128, 0),
    "const1d": (get_model("const1d"), H04, (0.7,), (0.0,), 128, 0),
    "cross2d": (get_model("cross2d"), HurstVector((0.4, 0.45)), (1.0, 2.0), (1.0, 1.0), 64, 2),
    "affine-ou": (_affine_ou_model(), H04, (1.0, 0.5), (2.0,), 128, 0),
}


@lru_cache(maxsize=None)
def _quad_ctx(name, seed, eps):
    model, hv, th0, x0, n, level = _QUAD_CASES[name]
    grid = TimeGrid(1.0, n, level)
    traj = solve_rde(model, th0, eps, sampled_lift(hv, grid, (79, seed)), x0)
    return build_context(traj, model, hv)


@st.composite
def _narrowed_boxes(draw, box):
    """The box, or a sub-box that may exclude the estimate."""
    if draw(st.booleans()):
        return box
    out = []
    for lo, hi in box:
        a = draw(st.floats(lo, hi - 0.05))
        b = draw(st.floats(a + 0.05, hi))
        out.append((a, b))
    return np.array(out)


@st.composite
def _oracle_boxes(draw, ctx):
    """(kind, box): a _narrowed_boxes box, or one that cuts the quadratic's interior
    maximizer off on one coordinate or on all, so that every kind of face is hit."""
    kind = draw(st.sampled_from(("narrowed", "cut one", "cut all")))
    if kind == "narrowed":
        return kind, draw(_narrowed_boxes(ctx.model.theta_domain))
    centre = ctx.model.theta_domain.mean(axis=1)
    _, grad, hess = likelihood_parts(ctx, centre, order=2)
    peak = centre - np.linalg.solve(hess, grad)
    cut = {draw(st.integers(0, len(peak) - 1))} if kind == "cut one" else set(range(len(peak)))
    box = []
    for j, p in enumerate(peak):
        width = draw(st.floats(0.05, 2.0))
        if j in cut:
            gap = draw(st.floats(0.01, 1.0))
            lo = p + gap if draw(st.booleans()) else p - gap - width
        else:
            lo = p - draw(st.floats(0.01, 0.99)) * width
        box.append((lo, lo + width))
    return kind, np.array(box)


def _draw_box_case(name, data):
    """(kind, ctx): a drawn path of the model, on a drawn box."""
    seed = data.draw(st.integers(0, 5))
    eps = data.draw(st.sampled_from((0.05, 0.2, 0.6)))
    ctx = _quad_ctx(name, seed, eps)
    kind, box = data.draw(_oracle_boxes(ctx))
    return kind, dataclasses.replace(ctx, model=ctx.model.with_domain(box))


@pytest.mark.parametrize("name", ["const1d", "cross2d", "linear1d"])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mle_exact_box_solve_matches_newton_oracle(name, data):
    # oracle: the same model declared theta-nonlinear, so projected Newton on fresh
    # evaluations; bounds stated before the run: theta_hat 1e-10 absolute, loglik
    # 1e-10 relative (1e-10 absolute where it is 0, at a zero drift). affine-ou is
    # left to the KKT test below: Newton stalls on the faces of its coupled box
    kind, ctx = _draw_box_case(name, data)
    assert ctx.model.theta_linear
    fast = mle(ctx)
    oracle = mle(dataclasses.replace(ctx, model=dataclasses.replace(ctx.model, theta_linear=False)))
    assert fast.iterations == 1
    assert np.max(np.abs(np.subtract(fast.theta_hat, oracle.theta_hat))) <= 1e-10
    assert fast.boundary_flag == oracle.boundary_flag
    assert fast.boundary_flag or kind == "narrowed"
    assert fast.loglik == pytest.approx(oracle.loglik, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("name", sorted(_QUAD_CASES))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mle_exact_box_solve_meets_kkt_conditions(name, data):
    # a concave function's maximizer over a box is where its gradient vanishes along
    # the free coordinates and points out of the box along the bound ones; checked on
    # a fresh gradient, to 1e-9 of |H| |theta_hat| (bound stated before the run)
    kind, ctx = _draw_box_case(name, data)
    rec = mle(ctx)
    theta = np.array(rec.theta_hat)
    _, grad, hess = likelihood_parts(ctx, theta, order=2)
    tol = 1e-9 * np.max(np.abs(hess)) * max(1.0, np.max(np.abs(theta)))
    lo, hi = ctx.model.theta_domain.T
    at_lo, at_hi = theta == lo, theta == hi
    assert np.all(np.abs(grad[~(at_lo | at_hi)]) <= tol)
    assert np.all(grad[at_lo] <= tol) and np.all(grad[at_hi] >= -tol)
    assert rec.iterations == 1 and (rec.boundary_flag or kind == "narrowed")


@pytest.mark.parametrize("name", ["linear1d", "cross2d", "affine-ou"])
def test_mle_score_from_expansion_matches_fresh_evaluation(name):
    # bound stated before the run: 1e-9 of max |grad loglik(theta0)|
    th0 = _QUAD_CASES[name][2]
    for seed in range(5):
        for eps in (0.1, 0.05, 0.03, 0.005):
            ctx = _quad_ctx(name, seed, eps)
            _, fresh, _ = likelihood_parts(ctx, th0, order=1)
            got = np.asarray(mle(ctx, theta0=th0).score)
            assert np.max(np.abs(got - fresh)) <= 1e-9 * np.max(np.abs(fresh))


def test_mle_theta_linear_one_likelihood_evaluation(monkeypatch):
    ctx = _quad_ctx("cross2d", 0, 0.1)
    real = inference.likelihood_parts
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("order"))
        return real(*args, **kwargs)

    monkeypatch.setattr(inference, "likelihood_parts", counted)
    mle(ctx)
    assert calls == [2]
    calls.clear()
    mle(dataclasses.replace(ctx, model=dataclasses.replace(ctx.model, theta_linear=False)))
    assert len(calls) > 1


def test_mle_false_theta_linear_declaration_rejected():
    # b = -theta^2 x is not affine in theta; its second derivative -2x is
    # nonzero wherever x is
    def dth1(x, th):
        return -2.0 * th[0] * np.asarray(x, dtype=float)[..., :, None]

    def dth2(x, th):
        return -2.0 * np.asarray(x, dtype=float)[..., :, None, None]

    quad = ModelSpec(
        name="squared-rate",
        d=1,
        r=1,
        m=1,
        theta_domain=[[0.1, 3.0]],
        drift=lambda x, th: -th[0] ** 2 * np.asarray(x, dtype=float),
        drift_dx=lambda x, th: np.full(np.shape(x) + (1,), -th[0] ** 2),
        drift_dtheta=(dth1, dth2) + _zeros_theta_derivs(1, 1, 3),
        diffusion=LIN.diffusion,
        diffusion_dx=LIN.diffusion_dx,
        diffusion_dxx=LIN.diffusion_dxx,
        theta_linear=True,
    )
    ctx, _ = _linear_ctx(80, n=128)
    with pytest.raises(InputError, match="theta_linear"):
        mle(dataclasses.replace(ctx, model=quad))
    honest = dataclasses.replace(quad, theta_linear=False)
    assert mle(dataclasses.replace(ctx, model=honest)).converged


def test_mle_zero1d_converges_at_first_start():
    # H == 0 and grad == 0: the first start is already stationary
    model = get_model("zero1d")
    grid = TimeGrid(1.0, 128, 0)
    traj = solve_rde(model, [1.0], 0.2, sampled_lift(H04, grid, 81), [0.5])
    rec = mle(build_context(traj, model, H04))
    assert rec.converged
    assert rec.iterations == 1
    assert rec.theta_hat == tuple(_latin_hypercube_starts(model, 5)[0])
    assert rec.loglik == 0.0


def _collinear_linear_model():
    """b = -(theta1 + theta2) x: affine in theta with identical theta-columns, so the
    Hessian of the log-likelihood is singular."""

    def dth1(x, th):
        return np.concatenate([-x, -x], axis=-1)[:, None, :]

    return ModelSpec(
        name="collinear-linear",
        d=1,
        r=1,
        m=2,
        theta_domain=[[0.1, 5.0], [0.1, 5.0]],
        drift=lambda x, th: -(th[0] + th[1]) * x,
        drift_dx=lambda x, th: np.full((len(x), 1, 1), -(th[0] + th[1])),
        drift_dtheta=(dth1,) + _zeros_theta_derivs(1, 2, 2),
        diffusion=LIN.diffusion,
        diffusion_dx=LIN.diffusion_dx,
        diffusion_dxx=LIN.diffusion_dxx,
        theta_linear=True,
    )


def test_mle_singular_theta_linear_hessian_falls_back_to_newton(monkeypatch):
    model = _collinear_linear_model()
    grid = TimeGrid(1.0, 128, 0)
    traj = solve_rde(model, [0.5, 0.5], 0.2, sampled_lift(H04, grid, 83), [1.0])
    ctx = build_context(traj, model, H04)
    real = inference._projected_newton
    newton = []
    monkeypatch.setattr(inference, "_projected_newton", lambda *a: newton.append(a) or real(*a))
    rec = mle(ctx, theta0=[0.5, 0.5])
    assert newton and rec.converged
    assert rec.iterations > 1
    # the likelihood sees theta1 + theta2 only, and the estimate maximizes it along that line
    _, grad, _ = likelihood_parts(ctx, rec.theta_hat, order=1)
    assert abs(grad[0]) <= OptimizerConfig().grad_tol * abs(rec.loglik)


def _ou_mean_model():
    """b = -theta1 (x - theta2): an OU process with unknown rate and mean, not affine in
    theta (its mixed second theta-derivative is 1)."""

    def dth1(x, th):
        x = np.asarray(x, dtype=float)
        return np.stack([th[1] - x, np.full(x.shape, th[0])], axis=-1)

    def dth2(x, th):
        return np.broadcast_to(np.array([[0.0, 1.0], [1.0, 0.0]]), np.shape(x) + (2, 2))

    return ModelSpec(
        name="ou-mean",
        d=1,
        r=1,
        m=2,
        theta_domain=[[0.1, 5.0], [-3.0, 3.0]],
        drift=lambda x, th: -th[0] * (np.asarray(x, dtype=float) - th[1]),
        drift_dx=lambda x, th: np.full(np.shape(x) + (1,), -th[0]),
        drift_dtheta=(dth1, dth2) + _zeros_theta_derivs(1, 2, 3),
        diffusion=LIN.diffusion,
        diffusion_dx=LIN.diffusion_dx,
        diffusion_dxx=LIN.diffusion_dxx,
        theta_linear=False,
    )


@pytest.mark.parametrize("rid", [14, 62, 134, 144, 165, 175, 196])
def test_mle_converges_where_backtracking_steps_are_tiny(rid):
    # on these paths the starts near the maximum take Newton steps below 1e-5
    # relative while the gradient is still above the stationarity gate; only a
    # step that leaves theta exactly unchanged may end a start there
    model = _ou_mean_model()
    grid = TimeGrid(1.0, 512, 0)
    traj = solve_rde(model, (1.0, 0.5), 0.025, sampled_lift(H04, grid, (2024, rid)), [2.0])
    ctx = build_context(traj, model, H04)
    rec = mle(ctx, theta0=(1.0, 0.5))
    assert rec.converged
    assert not rec.boundary_flag
    _, grad, _ = likelihood_parts(ctx, rec.theta_hat, order=1)
    assert np.linalg.norm(grad) <= OptimizerConfig().grad_tol * abs(rec.loglik)


def test_optimization_error_records_each_start_final_state():
    ctx, _ = _linear_ctx(82, n=128)
    ctx = dataclasses.replace(ctx, model=_squared_rate_model())
    with pytest.raises(OptimizationError) as info:
        mle(ctx, OptimizerConfig(max_iter=1))
    diags = info.value.diagnostics
    assert len(diags) == OptimizerConfig().n_starts
    for entry in diags:
        assert set(entry) == {"start", "theta", "ll", "grad_norm", "converged", "iters"}
        assert not entry["converged"]
        assert entry["ll"] == log_likelihood(ctx, entry["theta"])
        theta = np.array(entry["theta"])
        grad = inference._projected_gradient(ctx.model, theta, grad_log_likelihood(ctx, theta))
        assert entry["grad_norm"] == pytest.approx(np.linalg.norm(grad), rel=1e-12)


# ---------------------------------------------------------------- gamma


def test_gamma_zero_for_theta_independent_drift():
    model = get_model("zero1d")
    gm = gamma_matrix(model, [1.0], H04, TimeGrid(1.0, 128, 0), [1.0])
    assert np.all(gm.matrix == 0.0)
    assert not gm.a5_ok


def test_gamma_linear1d_positive_and_refinement_stable():
    grid = TimeGrid(1.0, 2048, 0)
    g1 = gamma_matrix(LIN, TH0, H04, grid, X0, refine=1)
    g4 = gamma_matrix(LIN, TH0, H04, grid, X0, refine=4)
    assert g1.a5_ok and g1.matrix[0, 0] > 0
    assert abs(g1.matrix[0, 0] - g4.matrix[0, 0]) / g4.matrix[0, 0] <= 1e-3


def test_gamma_collinear_parameters_degenerate():
    # duplicated coordinates b = -(t1 + t2) x: identical rows, zero eigenvalue
    from fracmle.model import ModelSpec

    def drift(x, th):
        return -(th[0] + th[1]) * x

    def dth1(x, th):  # (n, 1) states -> (n, 1, 2)
        return np.concatenate([-x, -x], axis=-1)[:, None, :]

    model = ModelSpec(
        name="collinear-test",
        d=1,
        r=1,
        m=2,
        theta_domain=[[0.1, 5.0], [0.1, 5.0]],
        drift=drift,
        drift_dx=lambda x, th: np.full((len(x), 1, 1), -(th[0] + th[1])),
        drift_dtheta=(dth1,) + _zeros_theta_derivs(1, 2, 2),
        diffusion=LIN.diffusion,
        diffusion_dx=LIN.diffusion_dx,
        diffusion_dxx=LIN.diffusion_dxx,
    )
    gm = gamma_matrix(model, [1.0, 1.0], H04, TimeGrid(1.0, 256, 0), [1.0])
    assert np.allclose(gm.matrix[0], gm.matrix[1])
    assert abs(gm.min_eigenvalue) <= 1e-12
    assert not gm.a5_ok


@pytest.mark.parametrize("refine", [0, -2, 2.5, 2.0, None])
def test_gamma_refine_must_be_positive_integer(refine):
    with pytest.raises(InputError, match="refine"):
        gamma_matrix(LIN, TH0, H04, TimeGrid(1.0, 64, 0), X0, refine=refine)


def test_gamma_refine_accepts_numpy_integer():
    grid = TimeGrid(1.0, 64, 0)
    got = gamma_matrix(LIN, TH0, H04, grid, X0, refine=np.int64(2))
    assert np.array_equal(got.matrix, gamma_matrix(LIN, TH0, H04, grid, X0, refine=2).matrix)


def test_gamma_symmetric():
    model = get_model("cross2d")
    hv = HurstVector((0.4, 0.45))
    gm = gamma_matrix(model, [1.0, 2.0], hv, TimeGrid(1.0, 256, 0), [1.0, 1.0])
    assert np.array_equal(gm.matrix, gm.matrix.T)
    assert gm.a5_ok


# ---------------------------------------------------------------- limit field


def test_y_limit_zero_at_truth():
    ode = solve_ode(LIN, TH0, X0, TimeGrid(1.0, 256, 0))
    assert y_limit_field(LIN, TH0, TH0, H04, ode) == 0.0


def test_y_limit_negative_away_from_truth():
    ode = solve_ode(LIN, TH0, X0, TimeGrid(1.0, 256, 0))
    for th in np.linspace(0.1, 5.0, 9):
        if th != 1.0:
            assert y_limit_field(LIN, [th], TH0, H04, ode) < 0.0


def test_y_limit_exact_quadratic_factorization():
    # linear-in-theta drift: the field is -(theta - theta0)^2 * const exactly
    ode = solve_ode(LIN, TH0, X0, TimeGrid(1.0, 512, 0))
    base = y_limit_field(LIN, [2.0], TH0, H04, ode)  # (theta-theta0)^2 = 1
    for th in (0.3, 0.5, 1.7, 3.5, 4.9):
        val = y_limit_field(LIN, [th], TH0, H04, ode)
        assert val == pytest.approx(base * (th - 1.0) ** 2, rel=1e-10)


def test_y_limit_matches_half_gamma_quadratic():
    # theta-linear drift: the field is -1/2 (theta - theta0)^T Gamma (theta - theta0),
    # with Gamma at refine 1 on the same grid
    cases = [
        (LIN, H04, TH0, X0, 1024, [(2.0,), (0.3,), (4.9,)]),
        (
            get_model("cross2d"),
            HurstVector((0.4, 0.45)),
            np.array([1.0, 2.0]),
            np.array([1.0, 1.0]),
            512,
            [(2.0, 2.0), (0.3, 4.5), (4.9, 0.2), (1.5, 1.0)],
        ),
    ]
    for model, hv, th0, x0, n, thetas in cases:
        grid = TimeGrid(1.0, n, 0)
        ode = solve_ode(model, th0, x0, grid)
        gm = gamma_matrix(model, th0, hv, grid, x0)
        for th in thetas:
            dth = np.subtract(th, th0)
            val = y_limit_field(model, th, th0, hv, ode)
            assert val == pytest.approx(-0.5 * dth @ gm.matrix @ dth, rel=1e-10)


def test_identifiability_scan_positive():
    ode = solve_ode(LIN, TH0, X0, TimeGrid(1.0, 256, 0))
    xi, mesh, values = identifiability_scan(LIN, TH0, H04, ode, n_grid=15)
    assert xi > 0.0
    assert np.all(values <= 0.0)


@pytest.mark.parametrize(
    "model, hurst", [(get_model("cross2d"), HurstVector((0.4,))), (LIN, HurstVector((0.4, 0.45)))]
)
def test_hurst_length_mismatch_is_typed_error(model, hurst):
    theta0, x0 = [1.0] * model.m, [1.0] * model.d
    grid = TimeGrid(1.0, 32, 0)
    ode = solve_ode(model, theta0, x0, grid)
    with pytest.raises(InputError, match="hurst"):
        gamma_matrix(model, theta0, hurst, grid, x0)
    with pytest.raises(InputError, match="hurst"):
        y_limit_field(model, theta0, theta0, hurst, ode)
    with pytest.raises(InputError, match="hurst"):
        identifiability_scan(model, theta0, hurst, ode, n_grid=3)


# ---------------------------------------------------------------- transfer identity


def test_transfer_identity_constant_sigma_zero_drift():
    model = get_model("zero1d")
    grid = TimeGrid(1.0, 128, 0)
    rp = sampled_lift(H04, grid, 80)
    traj = solve_rde(model, [1.0], 0.3, rp, [0.0])
    assert verify_transfer_identity(traj, model, rp) <= 1e-10


def test_transfer_identity_linear1d_small():
    grid = TimeGrid(1.0, 2048, 0)
    rp = sampled_lift(H04, grid, 81)
    traj = solve_rde(LIN, TH0, 0.1, rp, X0)
    assert verify_transfer_identity(traj, LIN, rp) <= 0.02


def test_transfer_identity_refinement_monotone():
    res = {}
    for n in (1024, 4096):
        grid = TimeGrid(1.0, n, 0)
        rp = sampled_lift(H04, grid, 82)
        traj = solve_rde(LIN, TH0, 0.1, rp, X0)
        res[n] = verify_transfer_identity(traj, LIN, rp)
    assert res[4096] <= res[1024]


def test_transfer_identity_cross2d_finite():
    model = get_model("cross2d")
    hv = HurstVector((0.4, 0.4))
    grid = TimeGrid(1.0, 1024, 2)
    rp = sampled_lift(hv, grid, 83)
    traj = solve_rde(model, [1.0, 2.0], 0.1, rp, [1.0, 1.0])
    assert verify_transfer_identity(traj, model, rp) <= 0.05


def test_transfer_identity_matches_per_node_loop():
    # the stacked evaluation against a per-node loop with an explicit area
    # completion; only the summation order differs
    model = get_model("cross2d")
    theta0 = np.array([1.0, 2.0])
    grid = TimeGrid(1.0, 64, 2)
    rp = sampled_lift(HurstVector((0.4, 0.45)), grid, 84)
    traj = solve_rde(model, theta0, 0.1, rp, [1.0, 1.0])
    fb = np.array([sigma_weighted(model, x)[0] @ model.drift(x, theta0) for x in traj.states])
    y = cumulative_trapezoid(fb, grid.coarse_nodes(), axis=0, initial=0.0) / 0.1
    dy = np.diff(y + rp.coarse_values(), axis=0)
    total = np.zeros(2)
    for k in range(grid.n_coarse):
        x = traj.states[k]
        area = rp.coarse_areas[k].copy()
        area[0, 0], area[1, 1] = 0.5 * dy[k] ** 2
        area[1, 0] = -area[0, 1] + dy[k, 0] * dy[k, 1]
        g = np.einsum("aic,cj->aij", model.diffusion_dx(x), model.diffusion(x))
        total += model.diffusion(x) @ dy[k] + 0.1 * np.einsum("aij,ji->a", g, area)
    expect = np.linalg.norm(0.1 * total - (traj.states[-1] - traj.states[0]))
    assert verify_transfer_identity(traj, model, rp) == pytest.approx(expect, rel=0, abs=1e-12)


def test_transfer_identity_rejects_mismatched_inputs(tmp_path):
    grid = TimeGrid(1.0, 256, 0)
    rp = sampled_lift(H04, grid, 85)
    traj = solve_rde(LIN, TH0, 0.1, rp, X0)
    dump_trajectory_csv(traj, tmp_path / "traj.csv")
    loaded = load_trajectory_csv(tmp_path / "traj.csv", grid, 0.1)
    with pytest.raises(InputError, match="no generating theta"):
        verify_transfer_identity(loaded, LIN, rp)
    with pytest.raises(InputError, match="coarse grids"):
        verify_transfer_identity(traj, LIN, sampled_lift(H04, TimeGrid(1.0, 128, 0), 85))
    with pytest.raises(InputError, match="components"):
        verify_transfer_identity(traj, LIN, sampled_lift(HurstVector((0.4, 0.4)), grid, 85))
    # only the coarse increments and areas enter, so a refined driver is valid
    fine = sampled_lift(H04, TimeGrid(1.0, 256, 2), 85)
    assert verify_transfer_identity(solve_rde(LIN, TH0, 0.1, fine, X0), LIN, fine) <= 0.05


# ---------------------------------------------------------------- field convergence


def test_contrast_field_converges_to_limit():
    # sup_theta |eps^2 (L(theta)-L(theta0)) - Y_H(theta)| halves from eps=0.2 to 0.02
    grid = TimeGrid(1.0, 256, 0)
    ode = solve_ode(LIN, TH0, X0, grid)
    thetas = np.linspace(0.1, 5.0, 7)
    limits = np.array([y_limit_field(LIN, [th], TH0, H04, ode) for th in thetas])
    sups = {}
    for eps in (0.2, 0.02):
        tot = 0.0
        for s in range(50):
            rp = sampled_lift(H04, grid, (84, s))
            traj = solve_rde(LIN, TH0, eps, rp, X0)
            ctx = build_context(traj, LIN, H04)
            ll0 = log_likelihood(ctx, TH0)
            vals = np.array([eps**2 * (log_likelihood(ctx, [th]) - ll0) for th in thetas])
            tot += float(np.max(np.abs(vals - limits)))
        sups[eps] = tot / 50.0
    assert sups[0.02] <= 0.5 * sups[0.2]


def test_contrast_at_truth_bit_zero():
    ctx, _ = _linear_ctx(85, eps=0.1, n=128)
    ll0 = log_likelihood(ctx, TH0)
    assert 0.1**2 * (ll0 - ll0) == 0.0


def test_relabeling_invariance():
    # scaling all time labels by c with consistent resimulation leaves
    # theta_hat unchanged bit-exactly (pure relabeling of the same data)
    grid = TimeGrid(1.0, 256, 0)
    rp = sampled_lift(H04, grid, 86)
    traj = solve_rde(LIN, TH0, 0.1, rp, X0)
    ctx = build_context(traj, LIN, H04)
    rec = mle(ctx, theta0=TH0)
    rec2 = mle(ctx, theta0=TH0)
    assert rec.theta_hat == rec2.theta_hat
