import numpy as np
import pytest

from fracmle import (
    ControlledPath,
    HurstVector,
    InputError,
    TimeGrid,
    controlled_compose,
    get_model,
    holder_seminorm,
    lift,
    remainder_exponent_fit,
    remainder_seminorm,
    rough_integral,
    sample_fbm,
    solve_rde,
)
from fracmle.fbm import roughpath_seminorm
from fracmle.rde import sigma_controlled, trajectory_as_controlled

from conftest import sampled_lift


def _constant_controlled(rp, d=1, value=1.0):
    n1 = rp.grid.n_coarse + 1
    vals = np.full((n1, d, rp.r), value)
    gub = np.zeros((n1, d, rp.r, rp.r))
    return ControlledPath(values=vals, gubinelli=gub, driver=rp)


def test_constant_integrand_telescopes(h04):
    rp = sampled_lift(h04, TimeGrid(1.0, 64, 0), 31)
    z = _constant_controlled(rp)
    out = rough_integral(z, rp, 0.0, 1.0)
    assert out[0] == pytest.approx(rp.increment(0, 64)[0], abs=1e-14)


def test_smooth_driver_b_db():
    # driver t with exact smooth lift: int_0^1 B dB = 1/2
    grid = TimeGrid(1.0, 64, 6)
    t = grid.fine_nodes()
    rp = lift(t[:, None], grid)
    n1 = grid.n_coarse + 1
    tc = grid.coarse_nodes()
    z = ControlledPath(
        values=tc[:, None, None], gubinelli=np.ones((n1, 1, 1, 1)), driver=rp
    )
    out = rough_integral(z, rp, 0.0, 1.0)
    assert out[0] == pytest.approx(0.5, abs=1e-3)


def test_fbm_b_db_geometric_identity(h04):
    # geometric lift: sum (B_k dB_k + 1/2 dB_k^2) = 1/2 B_T^2 algebraically
    grid = TimeGrid(1.0, 512, 0)
    path = sample_fbm(h04, grid, 32)
    rp = lift(path, grid)
    n1 = grid.n_coarse + 1
    z = ControlledPath(
        values=path[:, None, :], gubinelli=np.ones((n1, 1, 1, 1)), driver=rp
    )
    out = rough_integral(z, rp, 0.0, 1.0)
    assert out[0] == pytest.approx(0.5 * path[-1, 0] ** 2, abs=1e-8)


def test_additivity_left_to_right(h04):
    rp = sampled_lift(h04, TimeGrid(1.0, 128, 0), 33)
    path = rp.values
    n1 = 129
    z = ControlledPath(values=path[:, None, :], gubinelli=np.ones((n1, 1, 1, 1)), driver=rp)
    whole = rough_integral(z, rp, 0.0, 1.0)
    split = rough_integral(z, rp, 0.0, 0.5) + rough_integral(z, rp, 0.5, 1.0)
    # left-to-right accumulation: equal up to the final rounding
    assert abs(whole[0] - split[0]) <= 1e-12 * max(1.0, abs(whole[0]))


def test_mismatched_driver_error(h04):
    rp1 = sampled_lift(h04, TimeGrid(1.0, 32, 0), 34)
    rp2 = sampled_lift(h04, TimeGrid(1.0, 32, 0), 35)
    z = _constant_controlled(rp1)
    with pytest.raises(InputError):
        rough_integral(z, rp2, 0.0, 1.0)


def test_compose_constant_map(h04):
    rp = sampled_lift(h04, TimeGrid(1.0, 16, 0), 36)
    n1 = 17
    state = ControlledPath(
        values=np.linspace(0, 1, n1)[:, None], gubinelli=np.ones((n1, 1, 1)), driver=rp
    )
    c = np.array([[2.5]])
    out = controlled_compose(
        lambda x: np.broadcast_to(c, (len(x), 1, 1)), lambda x: np.zeros((len(x), 1, 1, 1)), state
    )
    assert np.all(out.values == 2.5)
    assert np.all(out.gubinelli == 0.0)


def test_compose_rejects_single_state_maps(h04):
    # phi and phi_dx take the stack of states; a map that returns one state's value is
    # an InputError naming the shapes, not a raw reshape error
    rp = sampled_lift(h04, TimeGrid(1.0, 16, 0), 36)
    state = ControlledPath(values=np.zeros((17, 1)), gubinelli=np.ones((17, 1, 1)), driver=rp)
    with pytest.raises(InputError, match=r"returned \(1, 1\), \(1, 1, 1\) for 17 states"):
        controlled_compose(lambda x: np.ones((1, 1)), lambda x: np.zeros((1, 1, 1)), state)


def test_compose_chain_rule_reproduces_sigma_derivative(h04):
    # phi = sigma with X' = eps sigma(X): derivative must equal eps grad-sigma sigma
    model = get_model("cross2d")
    hv = HurstVector((0.4, 0.4))
    grid = TimeGrid(1.0, 32, 2)
    rp = sampled_lift(hv, grid, 37)
    traj = solve_rde(model, [1.0, 2.0], 0.5, rp, [1.0, 1.0])
    z = sigma_controlled(traj, model, rp)
    k = 7
    x = traj.states[k]
    dsig = model.diffusion_dx(x)
    sig = model.diffusion(x)
    expected = 0.5 * np.einsum("aic,cj->aij", dsig, sig)
    assert np.allclose(z.gubinelli[k], expected, atol=1e-13)


def test_compose_identity_embedding(h04):
    # phi(x) = x e1^T keeps the state's own derivative
    rp = sampled_lift(h04, TimeGrid(1.0, 16, 0), 38)
    n1 = 17
    gub = np.arange(n1, dtype=float)[:, None, None]
    state = ControlledPath(values=np.linspace(0, 1, n1)[:, None], gubinelli=gub, driver=rp)
    out = controlled_compose(lambda x: x[:, None], lambda x: np.ones((len(x), 1, 1, 1)), state)
    assert np.allclose(out.gubinelli[:, 0, 0, 0], gub[:, 0, 0])


def test_remainder_seminorm_finite_on_solution(h04):
    model = get_model("linear1d")
    grid = TimeGrid(1.0, 128, 0)
    rp = sampled_lift(h04, grid, 39)
    traj = solve_rde(model, [1.0], 1.0, rp, [1.0])
    z = trajectory_as_controlled(traj, model, rp)
    r = remainder_seminorm(z, 0.8)
    assert np.isfinite(r) and r >= 0.0


def test_exponent_fit_exact_sentinels(h04):
    grid = TimeGrid(1.0, 128, 0)
    rp = sampled_lift(h04, grid, 40)
    z = _constant_controlled(rp)
    assert remainder_exponent_fit(z, rp, 0.4) == "exact"
    path = rp.values
    zb = ControlledPath(values=path[:, None, :], gubinelli=np.ones((129, 1, 1, 1)), driver=rp)
    assert remainder_exponent_fit(zb, rp, 0.4) == "exact"


def test_exponent_fit_on_cross2d_solution():
    model = get_model("cross2d")
    hv = HurstVector((0.4, 0.4))
    grid = TimeGrid(1.0, 256, 4)
    rp = sampled_lift(hv, grid, (31, 0))
    traj = solve_rde(model, [1.0, 2.0], 1.0, rp, [1.0, 1.0])
    z = sigma_controlled(traj, model, rp)
    slope = remainder_exponent_fit(z, rp, 0.4)
    assert slope >= 3 * 0.4 - 0.15


def test_exponent_fit_needs_nodes(h04):
    rp = sampled_lift(h04, TimeGrid(1.0, 32, 0), 41)
    z = _constant_controlled(rp)
    with pytest.raises(InputError):
        remainder_exponent_fit(z, rp, 0.4)


def test_hhe_patching_bound(h04):
    # seminorm restricted to |t-s| <= delta, scaled by (1 v 2 delta^-(1-alpha)),
    # bounds the full seminorm
    grid = TimeGrid(1.0, 256, 0)
    alpha, delta = 0.4, 0.1
    for s in range(5):
        path = sample_fbm(h04, grid, (42, s))[:, 0]
        nodes = grid.fine_nodes()
        full = holder_seminorm(nodes, path, alpha)
        gmax = int(delta / grid.dt)
        local = max(
            float(np.max(np.abs(path[g:] - path[:-g]) / (nodes[g:] - nodes[:-g]) ** alpha))
            for g in range(1, gmax + 1)
        )
        assert full <= local * max(1.0, 2.0 * delta ** -(1 - alpha)) + 1e-12


def test_he_ratio_bounded_over_drivers(h04):
    # ratio ||X||_alpha / (1 + ||(B, Area)||^(1/alpha)) stays within 10x median
    model = get_model("linear1d")
    grid = TimeGrid(1.0, 128, 0)
    alpha = 0.38
    ratios = []
    for s in range(50):
        rp = sampled_lift(h04, grid, (43, s))
        traj = solve_rde(model, [1.0], 1.0, rp, [1.0])
        xn = holder_seminorm(grid.coarse_nodes(), traj.states, alpha)
        bn = roughpath_seminorm(rp, alpha)
        ratios.append(xn / (1.0 + bn ** (1.0 / alpha)))
    ratios = np.array(ratios)
    assert ratios.max() <= 10.0 * np.median(ratios)
