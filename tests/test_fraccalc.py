import dataclasses

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as G

from fracmle import (
    FracKernelPlan,
    InputError,
    TimeGrid,
    d_H,
    gamma_H,
    get_plan,
    kh_inverse_transform,
    q_transform,
    rl_integral_left,
    rl_integral_right,
    sample_fbm,
)
from fracmle.fbm import HurstVector
from fracmle.fraccalc import KERNEL_HEAD_ROWS, _lower_triangular_kernel

mp.mp.dps = 40


def _plan(alpha, n=1024, T=1.0):
    return FracKernelPlan.for_order(alpha, TimeGrid(T, n, 0))


def test_rl_constant_closed_form():
    # I^0.1 [1](1) = 1 / Gamma(1.1)
    plan = _plan(0.1, 4096)
    out = rl_integral_left(plan, np.ones(4097))
    assert abs(out[-1] - 1.0 / G(1.1)) <= 1e-8
    assert out[0] == 0.0


def test_rl_linear_closed_form():
    # I^0.2 [s](1) = Gamma(2) / Gamma(2.2); product rule is exact here
    plan = _plan(0.2, 4096)
    nodes = plan.grid.coarse_nodes()
    out = rl_integral_left(plan, nodes)
    assert abs(out[-1] - G(2.0) / G(2.2)) <= 1e-8


def test_rl_semigroup_on_quadratic():
    # I^0.1 (I^0.2 f) == I^0.3 f for f(s) = s^2, against the power-rule oracle
    grid = TimeGrid(1.0, 4096, 0)
    nodes = grid.coarse_nodes()
    f = nodes**2
    lhs = rl_integral_left(_plan(0.1, 4096), rl_integral_left(_plan(0.2, 4096), f))
    oracle = G(3.0) / G(3.3) * nodes**2.3
    mask = nodes > 0.05
    assert np.max(np.abs(lhs[mask] - oracle[mask]) / oracle[mask]) <= 1e-4


def test_rl_alpha_domain():
    grid = TimeGrid(1.0, 16, 0)
    with pytest.raises(InputError):
        FracKernelPlan.for_order(0.0, grid)
    with pytest.raises(InputError):
        FracKernelPlan.for_order(1.0, grid)


def test_rl_scaling_bit_exact_power_of_two():
    # weights are linear, so scaling by an exact power of two commutes bit-for-bit
    plan = _plan(0.15, 512)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(513)
    assert np.array_equal(rl_integral_left(plan, 4.0 * f), 4.0 * rl_integral_left(plan, f))
    assert np.array_equal(rl_integral_left(plan, 0.5 * f), 0.5 * rl_integral_left(plan, f))


def test_rl_scaling_general_scalar():
    plan = _plan(0.15, 256)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(257)
    a = rl_integral_left(plan, 1.7 * f)
    b = 1.7 * rl_integral_left(plan, f)
    assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(b)))


def test_row_sums_exact_on_ones():
    for alpha, n in ((0.1, 512), (0.2, 1024)):
        plan = _plan(alpha, n)
        nodes = plan.grid.coarse_nodes()
        left = rl_integral_left(plan, np.ones(n + 1))
        assert np.max(np.abs(left - nodes**alpha / G(1 + alpha))) <= 1e-10
        right = rl_integral_right(plan, np.ones(n + 1))
        assert np.max(np.abs(right - (1.0 - nodes) ** alpha / G(1 + alpha))) <= 1e-10


def test_right_integral_mirror():
    # I^a_{T-}[f](t) equals the left integral of the reversed samples
    plan = _plan(0.25, 128)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(129)
    out = rl_integral_right(plan, f)
    assert out[-1] == 0.0
    mirror = rl_integral_left(plan, f[::-1])[::-1]
    assert np.array_equal(out, mirror)


def test_d_H_at_half_exact():
    assert d_H(0.5) == 1.0


def test_d_H_against_high_precision_gamma():
    h = mp.mpf("0.4")
    oracle = mp.sqrt(2 * h * mp.gamma(1.5 - h) * mp.gamma(h + 0.5) / mp.gamma(2 - 2 * h))
    assert abs(d_H(0.4) - float(oracle)) / float(oracle) <= 1e-6


def test_gamma_H_against_high_precision_gamma():
    h = mp.mpf("0.4")
    dh = mp.sqrt(2 * h * mp.gamma(1.5 - h) * mp.gamma(h + 0.5) / mp.gamma(2 - 2 * h))
    oracle = (dh * mp.gamma(0.5 - h)) ** -2
    assert abs(gamma_H(0.4) - float(oracle)) / float(oracle) <= 1e-5


def test_gamma_H_pole():
    # H = 1/2 is outside the open Hurst interval like any other value
    with pytest.raises(InputError):
        gamma_H(0.5)


def test_kernel_value_against_mpmath_quadrature():
    # kappa(t, s) = d_H^-1 s^a I^a_{t-}[y^(H-1/2)](s); the oracle integrates
    # int_s^t (y-s)^(a-1) y^(-a) dy = (1/a) int_0^{x^a} (1 - w^(1/a))^-1 dw
    # (substitutions v = (y-s)/y then w = v^a remove the singularity)
    hurst, alpha = 0.4, mp.mpf("0.1")
    kernel = _lower_triangular_kernel(hurst, 1.0 / 64, 65)
    dt = mp.mpf(1) / 64
    for k, l in ((64, 10), (32, 0), (50, 49)):
        s, t = (l + mp.mpf("0.5")) * dt, k * dt
        x = (t - s) / t
        inner = mp.quad(lambda w: 1 / (1 - w ** (1 / alpha)), [0, x**alpha]) / alpha
        oracle = float(s**alpha * inner / (mp.gamma(alpha) * d_H(hurst)))
        assert kernel[k, l] == pytest.approx(oracle, rel=1e-9)


def _oracle_inputs(hurst, n):
    t = np.linspace(0.0, 1.0, n + 1)
    fbm = sample_fbm(HurstVector((hurst,)), TimeGrid(1.0, n, 0), (17, n))[:, 0]
    ramp = 20.0 * t + np.sin(7.0 * t)
    return {"fbm": fbm, "ramp": ramp, "ramp+noise": ramp + 1e-3 * fbm}


@pytest.mark.parametrize("n", [2, 31, 32, 33, 64, 1000, 2048])
@pytest.mark.parametrize("hurst", [0.34, 0.4, 0.45, 0.49, 0.499])
def test_kh_transform_matches_dense_kernel(hurst, n):
    # the series transform against the dense closed-form kernel, to roundoff
    # (n = 1 is no grid: TimeGrid needs n_coarse >= 2)
    plan = get_plan(hurst, 1.0, n)
    dense = _lower_triangular_kernel(hurst, 1.0 / n, n + 1)
    for name, y in _oracle_inputs(hurst, n).items():
        want = dense @ np.diff(y)
        got = kh_inverse_transform(plan, y)
        assert got[0] == 0.0
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


def _kept_arrays(obj, seen):
    if isinstance(obj, np.ndarray):
        seen[id(obj)] = obj
    elif isinstance(obj, tuple):
        for item in obj:
            _kept_arrays(item, seen)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _kept_arrays(getattr(obj, f.name), seen)
    return seen


def test_plan_keeps_no_dense_kernel():
    # the dense (n+1) x n kernel at n = 4096 alone is 128 MiB
    plan = get_plan(0.4, 1.0, 4096)
    kept = _kept_arrays(plan, {})
    assert sum(a.nbytes for a in kept.values()) < 2 * 2**20
    assert plan.kernel_matrix.shape == (KERNEL_HEAD_ROWS + 1, KERNEL_HEAD_ROWS)


def test_kh_zero_path():
    plan = get_plan(0.4, 1.0, 64)
    w = kh_inverse_transform(plan, np.zeros(65))
    assert np.all(w == 0.0)


def test_kh_requires_hurst_plan():
    plan = _plan(0.2, 64)
    with pytest.raises(InputError):
        kh_inverse_transform(plan, np.zeros(65))


@pytest.mark.parametrize("name", ["rl_integral_left", "q_transform", "kh_inverse_transform"])
def test_transform_input_errors_are_typed(name):
    # one contract: n + 1 finite samples along the last axis, else InputError
    fn = {"rl_integral_left": rl_integral_left, "q_transform": q_transform,
          "kh_inverse_transform": kh_inverse_transform}[name]
    plan = get_plan(0.4, 1.0, 64)
    nan = np.zeros(65)
    nan[10] = np.nan
    for bad in (np.zeros(64), np.zeros((65, 2)), nan):
        with pytest.raises(InputError):
            fn(plan, bad)


def test_kh_wiener_variance(h04):
    # behavioral contract: transformed fBm has Var(W_1) = 1
    grid = TimeGrid(1.0, 256, 0)
    plan = get_plan(0.4, 1.0, 256)
    vals = [
        kh_inverse_transform(plan, sample_fbm(h04, grid, (21, s))[:, 0])[-1] for s in range(500)
    ]
    assert abs(np.var(vals, ddof=1) - 1.0) <= 0.05


def test_kh_wiener_covariance(h04):
    # Cov(W_0.5, W_1) = 0.5
    grid = TimeGrid(1.0, 256, 0)
    plan = get_plan(0.4, 1.0, 256)
    wh, w1 = [], []
    for s in range(500):
        w = kh_inverse_transform(plan, sample_fbm(h04, grid, (22, s))[:, 0])
        wh.append(w[128])
        w1.append(w[-1])
    assert abs(np.cov(wh, w1, ddof=1)[0, 1] - 0.5) <= 0.05


def test_kh_increment_whiteness(h04):
    # increments over disjoint quarters stay nearly uncorrelated
    grid = TimeGrid(1.0, 256, 0)
    plan = get_plan(0.4, 1.0, 256)
    incs = []
    for s in range(500):
        w = kh_inverse_transform(plan, sample_fbm(h04, grid, (41, s))[:, 0])
        incs.append([w[64] - w[0], w[128] - w[64], w[192] - w[128], w[256] - w[192]])
    corr = np.corrcoef(np.array(incs), rowvar=False)
    off = np.max(np.abs(corr - np.diag(np.diag(corr))))
    assert off <= 0.1


def test_q_transform_constant_drift_closed_form():
    # g == theta, sigma == 1: Q(t) = theta/d_H * G(1.5-H)/G(2-2H) * t^(0.5-H)
    hurst, n = 0.4, 1024
    plan = get_plan(hurst, 1.0, n)
    q = q_transform(plan, np.ones(n + 1), 1.0 / d_H(hurst))
    oracle = G(1.1) / G(1.2) / d_H(hurst)
    assert q[0] == 0.0
    assert abs(q[-1] - oracle) / oracle <= 1e-4
    # quadrature error concentrates near the singular origin; the curve
    # check stays away from it
    nodes = plan.grid.coarse_nodes()
    mask = nodes >= 0.5
    curve = oracle * nodes[mask] ** 0.1
    assert np.max(np.abs(q[mask] - curve) / curve) <= 1e-4


def test_plan_cache_returns_same_object():
    a = get_plan(0.45, 1.0, 128)
    b = get_plan(0.45, 1.0, 128)
    assert a is b


def _rl_direct(plan, f):
    """I^a_{0+} f by direct convolution with the product-integration weights."""
    n = plan.grid.n_coarse
    A, C = plan.weights_left
    out = np.convolve(f, A)[: n + 1] + np.convolve(f[1:], C)[: n + 1]
    out[0] = 0.0
    return out


@pytest.mark.parametrize("n", [2, 31, 64, 255])
def test_short_grids_match_direct_convolution(n):
    rng = np.random.default_rng(n)
    for alpha in (0.01, 0.1, 0.3, 0.6, 0.9):
        plan = _plan(alpha, n)
        f = rng.standard_normal(n + 1)
        ref = _rl_direct(plan, f)
        assert np.max(np.abs(rl_integral_left(plan, f) - ref)) <= 1e-14 * np.max(np.abs(ref))
    for hurst in (0.34, 0.4, 0.49):
        plan = FracKernelPlan.build(hurst, TimeGrid(1.0, n, 0))
        nodes = plan.grid.coarse_nodes()
        g = rng.standard_normal(n + 1)
        ref = np.zeros(n + 1)
        ref[1:] = 0.7 * nodes[1:] ** (-plan.alpha) * _rl_direct(plan, nodes**plan.alpha * g)[1:]
        assert np.max(np.abs(q_transform(plan, g, 0.7) - ref)) <= 1e-14 * np.max(np.abs(ref))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_stacked_rows_match_1d_calls(data):
    # a (c, n+1) stack is c independent rows, each bit-identical to its 1-D call;
    # the plan is a plain fractional order or a Hurst plan, which adds the kernel transform
    n = data.draw(st.integers(2, 600), label="n")
    grid = TimeGrid(1.0, n, 0)
    fns = [rl_integral_left, rl_integral_right, lambda p, f: q_transform(p, f, 0.7)]
    if data.draw(st.booleans(), label="hurst plan"):
        hurst = data.draw(st.sampled_from((0.34, 0.4, 0.45, 0.49)), label="H")
        plan = FracKernelPlan.build(hurst, grid)
        fns.append(kh_inverse_transform)
    else:
        plan = FracKernelPlan.for_order(data.draw(st.floats(0.01, 0.99), label="alpha"), grid)
    c = data.draw(st.integers(1, 5), label="rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    stack = rng.standard_normal((c, n + 1))
    zero = data.draw(st.lists(st.booleans(), min_size=c, max_size=c), label="zero rows")
    stack[np.array(zero)] = 0.0
    if data.draw(st.booleans(), label="column-major"):
        stack = np.asfortranarray(stack)  # as a transposed (n+1, c) block arrives
    for fn in fns:
        out = fn(plan, stack)
        assert out.shape == stack.shape
        for row, f in zip(out, stack):
            assert np.array_equal(row, fn(plan, f))
