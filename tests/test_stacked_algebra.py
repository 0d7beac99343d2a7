"""The per-node d x d algebra of a path against einsum and numpy.linalg oracles.

The built-in models have diagonal sigma, which hides any change of summation
order, so these checks run on a d = r = 2 model whose sigma and d sigma have
state-dependent off-diagonal entries. Bound, stated before the run: 1e-12
relative to the largest entry of the oracle's result.
"""

import warnings

import numpy as np
import pytest

from fracmle import EllipticityError, HurstVector, ModelSpec, TimeGrid, compute_Q, solve_rde
from fracmle import fraccalc
from fracmle.inference import _assemble_Y, plans_for
from fracmle.model import _checked_inverse, _zeros_theta_derivs, eval_path, weighted_path

from conftest import sampled_lift

RTOL = 1e-12
HV = HurstVector((0.4, 0.45))


def _full_sigma_model():
    """sigma = [[2 + sin x1, cos(x2)/2], [sin(x1 + x2)/2, 2 + cos x2]]: det sigma >= 3/4,
    so A = sigma sigma* is positive definite everywhere."""

    def diffusion(x):
        x1, x2 = x[..., 0], x[..., 1]
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 2.0 + np.sin(x1)
        out[..., 0, 1] = 0.5 * np.cos(x2)
        out[..., 1, 0] = 0.5 * np.sin(x1 + x2)
        out[..., 1, 1] = 2.0 + np.cos(x2)
        return out

    def diffusion_dx(x):
        x1, x2 = x[..., 0], x[..., 1]
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = np.cos(x1)
        out[..., 0, 1, 1] = -0.5 * np.sin(x2)
        out[..., 1, 0, 0] = out[..., 1, 0, 1] = 0.5 * np.cos(x1 + x2)
        out[..., 1, 1, 1] = -np.sin(x2)
        return out

    def diffusion_dxx(x):
        x1, x2 = x[..., 0], x[..., 1]
        out = np.zeros(x.shape[:-1] + (2, 2, 2, 2))
        out[..., 0, 0, 0, 0] = -np.sin(x1)
        out[..., 0, 1, 1, 1] = -0.5 * np.cos(x2)
        out[..., 1, 0] = -0.5 * np.sin(x1 + x2)[..., None, None]
        out[..., 1, 1, 1, 1] = -np.cos(x2)
        return out

    def drift(x, th):
        out = np.empty(x.shape)
        out[..., 0] = -th[0] * x[..., 0] + 0.2 * x[..., 1]
        out[..., 1] = -th[1] * x[..., 1] + 0.1 * np.sin(x[..., 0])
        return out

    def drift_dx(x, th):
        out = np.empty(x.shape + (2,))
        out[..., 0, 0], out[..., 0, 1] = -th[0], 0.2
        out[..., 1, 0], out[..., 1, 1] = 0.1 * np.cos(x[..., 0]), -th[1]
        return out

    def dth1(x, th):
        out = np.zeros(x.shape + (2,))
        out[..., 0, 0], out[..., 1, 1] = -x[..., 0], -x[..., 1]
        return out

    return ModelSpec(
        name="full-sigma",
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


MODEL = _full_sigma_model()
THETA = np.array([1.0, 2.0])


def _path(seed=5, n=128, eps=0.5):
    grid = TimeGrid(1.0, n, 2)
    return solve_rde(MODEL, THETA, eps, sampled_lift(HV, grid, seed), [1.0, -0.5])


def _close(got, oracle):
    assert got.shape == oracle.shape
    assert np.max(np.abs(got - oracle)) <= RTOL * np.max(np.abs(oracle))


def _oracle_weighted_path(states):
    sig = eval_path(MODEL, MODEL.diffusion, states, (2, 2))
    ainv = np.linalg.inv(np.einsum("kai,kbi->kab", sig, sig))
    f = np.einsum("kbi,kba->kia", sig, ainv)
    dsig = eval_path(MODEL, MODEL.diffusion_dx, states, (2, 2, 2))
    da = np.einsum("kaip,kbi->kabp", dsig, sig) + np.einsum("kai,kbip->kabp", sig, dsig)
    df = np.einsum("kbip,kba->kiap", dsig, ainv) - np.einsum("kib,kbcp,kca->kiap", f, da, ainv)
    return f, df


def test_full_sigma_model_is_elliptic_with_off_diagonal_entries():
    states = _path().states
    sig = eval_path(MODEL, MODEL.diffusion, states, (2, 2))
    dsig = eval_path(MODEL, MODEL.diffusion_dx, states, (2, 2, 2))
    assert np.all(np.linalg.det(sig) >= 0.75)
    assert np.all(sig[:, 0, 1] != 0) and np.all(sig[:, 1, 0] != 0)
    assert np.ptp(sig[:, 1, 0]) > 0.1 and np.ptp(dsig[:, 1, 0, 0]) > 0.1


def test_checked_inverse_matches_linalg():
    states = _path().states
    sig = eval_path(MODEL, MODEL.diffusion, states, (2, 2))
    a = sig @ sig.swapaxes(1, 2)
    _close(_checked_inverse(a, states), np.linalg.inv(a))


def test_weighted_path_matches_einsum_oracle():
    states = _path().states
    for got, oracle in zip(weighted_path(MODEL, states), _oracle_weighted_path(states)):
        _close(got, oracle)


def test_assemble_Y_matches_einsum_oracle():
    traj = _path()
    f, df = _oracle_weighted_path(traj.states)
    dx = np.diff(traj.states, axis=0)
    lin = np.einsum("kia,ka->ki", f[:-1], dx)
    quad = 0.5 * np.einsum("kiap,ka,kp->ki", df[:-1], dx, dx)
    oracle = np.zeros((traj.states.shape[0], 2))
    oracle[1:] = np.cumsum(lin + quad, axis=0) / traj.epsilon
    _close(_assemble_Y(traj, f, df), oracle)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_compute_Q_matches_einsum_oracle(order):
    traj = _path()
    states, n1 = traj.states, traj.states.shape[0]
    plans = plans_for(MODEL, HV, traj.grid)
    f, _ = _oracle_weighted_path(states)
    fields = [np.einsum("kia,ka->ki", f, MODEL.drift(states, THETA))]
    if order >= 1:
        fields.append(np.einsum("kia,kaj->kij", f, MODEL.drift_dtheta[0](states, THETA)))
    if order == 2:
        fields.append(np.einsum("kia,kajl->kijl", f, MODEL.drift_dtheta[1](states, THETA)))
    q = compute_Q(states, MODEL, THETA, traj.epsilon, plans, order=order)
    for got, fb in zip((q.values, q.dtheta, q.dtheta2)[: order + 1], fields):
        oracle = np.zeros_like(fb)
        for i in range(2):
            scale = 1.0 / (traj.epsilon * fraccalc.d_H(plans[i].hurst))
            rows = fb[:, i].reshape(n1, -1).T
            oracle[:, i] = fraccalc.q_transform(plans[i], rows, scale).T.reshape(fb[:, i].shape)
        if np.any(oracle):
            _close(got, oracle)
        else:
            assert not np.any(got)


def test_davie_step_matches_einsum_oracle():
    grid = TimeGrid(1.0, 64, 2)
    rp = sampled_lift(HV, grid, 6)
    eps, x = 0.5, np.array([1.0, -0.5])
    oracle = [x]
    for db, area in zip(rp.coarse_increments, rp.coarse_areas):
        sig = MODEL.diffusion(x[None])[0]
        g = MODEL.diffusion_dx(x[None])[0] @ sig[None]
        area_term = np.einsum("aij,ji->a", g, area)
        x = x + MODEL.drift(x[None], THETA)[0] * grid.dt + eps * sig @ db + eps**2 * area_term
        oracle.append(x)
    _close(solve_rde(MODEL, THETA, eps, rp, [1.0, -0.5]).states, np.array(oracle))


def _singular_model():
    """sigma = [[x1, x2], [0, 1]]: A is singular where x1 = 0, with a zero first pivot
    (det NaN after elimination) where x2 = 0 as well."""

    def diffusion(x):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0], out[..., 0, 1], out[..., 1, 1] = x[..., 0], x[..., 1], 1.0
        return out

    return ModelSpec(
        name="singular-sigma",
        d=2,
        r=2,
        m=2,
        theta_domain=[[0.1, 5.0], [0.1, 5.0]],
        drift=MODEL.drift,
        drift_dx=MODEL.drift_dx,
        drift_dtheta=MODEL.drift_dtheta,
        diffusion=diffusion,
        diffusion_dx=lambda x: np.zeros(x.shape[:-1] + (2, 2, 2)),
        diffusion_dxx=lambda x: np.zeros(x.shape[:-1] + (2, 2, 2, 2)),
    )


@pytest.mark.parametrize(
    "states, node, det",
    [
        ([[1.0, 1.0], [2.0, 0.5], [0.0, 1.0], [0.0, 0.0]], 2, 0.0),
        ([[1.0, 1.0], [0.0, 0.0], [0.0, 1.0]], 1, np.nan),
    ],
    ids=["zero-det", "nan-det"],
)
def test_singular_A_raises_at_first_bad_node_without_warning(states, node, det):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EllipticityError, match=f"at path node {node}$") as info:
            weighted_path(_singular_model(), np.array(states))
    assert np.array_equal(info.value.x, states[node])
    assert np.isnan(info.value.det) if np.isnan(det) else info.value.det == det


def test_ill_conditioned_A_fails_the_residual_check():
    # det A = 1e-9 passes the floor, but at condition number 1e9 the inverse leaves
    # A A^-1 - I near 6e-8, past the 1e-10 check
    c, s = np.cos(0.5), np.sin(0.5)
    rot = np.array([[c, -s], [s, c]])
    a = np.stack([np.eye(2), (rot * [1.0, 1e-9]) @ rot.T])
    with pytest.raises(EllipticityError, match="numerically singular beyond 1e-10"):
        _checked_inverse(a, np.zeros((2, 2)))
