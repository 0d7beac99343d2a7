"""Acceptance suite: one test per criterion, each printing a pass/fail line
at its stated tolerance. Run with `pytest tests/test_acceptance.py -v -s`.
All stochastic criteria are frozen-seed Monte Carlo at desk scale."""

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gamma as G
from scipy.stats import linregress

from fracmle import (
    HurstVector,
    StudyConfig,
    TimeGrid,
    build_context,
    chen_defect,
    compute_Q,
    d_H,
    gamma_H,
    gamma_matrix,
    get_model,
    grad_log_likelihood,
    identifiability_scan,
    kh_inverse_transform,
    lift,
    likelihood_parts,
    log_likelihood,
    mle,
    rl_integral_left,
    run_study,
    sample_fbm,
    solve_ode,
    solve_rde,
    sup_distance,
    verify_transfer_identity,
    y_limit_field,
)
from fracmle.fraccalc import FracKernelPlan, get_plan

mp.mp.dps = 40

H04 = HurstVector((0.4,))
LIN = get_model("linear1d")


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def linear_study():
    cfg = StudyConfig(
        model="linear1d",
        theta0=(1.0,),
        x0=(1.0,),
        hurst=(0.4,),
        epsilons=(0.1, 0.05, 0.03),
        n_replicates=300,
        T=1.0,
        n_coarse=512,
        seed=20250810,
        gamma_refine=4,
    )
    return run_study(cfg)


def test_criterion_01_roughpath_algebra():
    grid = TimeGrid(1.0, 256, 8)
    hv = HurstVector((0.4, 0.4))
    rng = np.random.default_rng(101)
    worst_chen = 0.0
    worst_sym = 0.0
    diag_exact = True
    for s in range(100):
        rp = lift(sample_fbm(hv, grid, (101, s)), grid)
        idx = np.sort(rng.integers(0, grid.n_fine + 1, size=3))
        nodes = grid.fine_nodes()[idx]
        worst_chen = max(worst_chen, float(np.max(np.abs(chen_defect(rp, *nodes)))))
        i, j = int(idx[0]), int(idx[2])
        a, tot = rp.area(i, j), rp.increment(i, j)
        diag_exact &= a[0, 0] == 0.5 * tot[0] ** 2 and a[1, 1] == 0.5 * tot[1] ** 2
        worst_sym = max(worst_sym, abs(a[0, 1] + a[1, 0] - tot[0] * tot[1]))
    ok = worst_chen <= 1e-10 and diag_exact and worst_sym <= 1e-13
    report(
        1,
        ok,
        f"max Chen defect {worst_chen:.2e} (<= 1e-10), diagonal exact: {diag_exact}, "
        f"symmetry gap {worst_sym:.2e}",
    )


def test_criterion_02_geometric_oracle():
    model = get_model("geom1d")
    grid = TimeGrid(1.0, 4096, 0)
    worst = 0.0
    for s in range(20):
        path = sample_fbm(H04, grid, (102, s))
        rp = lift(path, grid)
        traj = solve_rde(model, [1.0], 0.1, rp, [1.0])
        exact = np.exp(0.1 * path[:, 0])
        worst = max(worst, float(np.max(np.abs(traj.states[:, 0] - exact) / exact)))
    report(2, worst <= 1e-3, f"max relative gap to exp(eps B) = {worst:.2e} (<= 1e-3)")


def test_criterion_03_epsilon_rate():
    grid = TimeGrid(1.0, 256, 0)
    ode = solve_ode(LIN, [1.0], [1.0], grid)
    epss = [0.2, 0.1, 0.05, 0.025]
    means = []
    for eps in epss:
        dists = [
            sup_distance(
                solve_rde(LIN, [1.0], eps, lift(sample_fbm(H04, grid, (103, s)), grid), [1.0]),
                ode,
            )
            for s in range(100)
        ]
        means.append(float(np.mean(dists)))
    slope = float(linregress(np.log(epss), np.log(means)).slope)
    ok = 0.85 <= slope <= 1.15 and all(means[i] >= means[i + 1] for i in range(3))
    report(3, ok, f"sup-distance rate slope {slope:.3f} (in [0.85, 1.15]), means {means}")


def test_criterion_04_fractional_calculus():
    grid = TimeGrid(1.0, 4096, 0)
    nodes = grid.coarse_nodes()
    p01 = FracKernelPlan.for_order(0.1, grid)
    p02 = FracKernelPlan.for_order(0.2, grid)
    p03 = FracKernelPlan.for_order(0.3, grid)
    e_const = abs(rl_integral_left(p01, np.ones(4097))[-1] - 1.0 / G(1.1))
    e_lin = abs(rl_integral_left(p02, nodes)[-1] - G(2.0) / G(2.2))
    lhs = rl_integral_left(p01, rl_integral_left(p02, nodes**2))
    oracle = G(3.0) / G(3.3) * nodes**2.3
    mask = nodes > 0.05
    e_semi = float(np.max(np.abs(lhs[mask] - oracle[mask]) / oracle[mask]))
    h = mp.mpf("0.4")
    d_oracle = mp.sqrt(2 * h * mp.gamma(1.5 - h) * mp.gamma(h + 0.5) / mp.gamma(2 - 2 * h))
    g_oracle = (d_oracle * mp.gamma(0.5 - h)) ** -2
    e_d = abs(d_H(0.4) - float(d_oracle)) / float(d_oracle)
    e_g = abs(gamma_H(0.4) - float(g_oracle)) / float(g_oracle)
    ok = (
        e_const <= 1e-8
        and e_lin <= 1e-8
        and e_semi <= 1e-4
        and d_H(0.5) == 1.0
        and e_d <= 1e-5
        and e_g <= 1e-5
    )
    report(
        4,
        ok,
        f"power rules {max(e_const, e_lin):.2e} (<= 1e-8), semigroup {e_semi:.2e} (<= 1e-4), "
        f"d_1/2 == 1 exact, d_0.4 rel {e_d:.1e}, gamma_0.4 rel {e_g:.1e} (<= 1e-5)",
    )


def test_criterion_05_wiener_contract():
    grid = TimeGrid(1.0, 512, 0)
    plan = get_plan(0.4, 1.0, 512)
    wh, w1 = [], []
    for s in range(500):
        w = kh_inverse_transform(plan, sample_fbm(H04, grid, (4004, s))[:, 0])
        wh.append(w[256])
        w1.append(w[-1])
    var1 = float(np.var(w1, ddof=1))
    cov = float(np.cov(wh, w1, ddof=1)[0, 1])
    ok = abs(var1 - 1.0) <= 0.05 and abs(cov - 0.5) <= 0.05
    report(5, ok, f"Var(W_1) = {var1:.4f} (1 +- 0.05), Cov(W_.5, W_1) = {cov:.4f} (0.5 +- 0.05)")


def test_criterion_06_likelihood_correctness():
    grid = TimeGrid(1.0, 256, 0)
    rp = lift(sample_fbm(H04, grid, 106), grid)
    traj = solve_rde(LIN, [1.0], 0.1, rp, [1.0])
    ctx = build_context(traj, LIN, H04)
    rng = np.random.default_rng(106)
    step = 1e-5
    worst = 0.0
    for _ in range(20):
        th = float(rng.uniform(0.3, 4.5))
        g = grad_log_likelihood(ctx, [th])[0]
        fd = (log_likelihood(ctx, [th + step]) - log_likelihood(ctx, [th - step])) / (2 * step)
        worst = max(worst, abs(g - fd) / max(1.0, abs(fd)))

    model = get_model("const1d")
    rp = lift(sample_fbm(H04, grid, 107), grid)
    traj = solve_rde(model, [0.7], 0.1, rp, [0.0])
    ctx = build_context(traj, model, H04)
    rec = mle(ctx, theta0=[0.7])
    q1 = compute_Q(traj.states, model, [1.0], 0.1, ctx.plans, f_path=ctx.f_path)
    w = np.full(257, grid.dt)
    w[0] = w[-1] = grid.dt / 2
    s1 = float(q1.values[:-1, 0] @ np.diff(ctx.z[:, 0]))
    s2 = float(np.sum(q1.values[:, 0] ** 2 * w))
    gap = abs(rec.theta_hat[0] - float(np.clip(s1 / s2, -5, 5)))
    ok = worst <= 1e-4 and gap <= 1e-8
    report(
        6,
        ok,
        f"gradient vs FD rel err {worst:.2e} (<= 1e-4), closed-form MLE gap {gap:.2e} (<= 1e-8)",
    )


def test_criterion_07_score_clt(linear_study):
    s = next(x for x in linear_study.per_eps if x.epsilon == 0.05)
    g = linear_study.gamma.matrix[0, 0]
    mean_gate = 3.0 * np.sqrt(g / s.n_ok)
    var_rel = abs(s.score_cov[0, 0] - g) / g
    ok = abs(s.score_mean[0]) <= mean_gate and var_rel <= 0.25
    report(
        7,
        ok,
        f"score mean {s.score_mean[0]:+.4f} (|.| <= {mean_gate:.4f}), "
        f"score var rel dev {var_rel:.3f} (<= 0.25)",
    )


def test_criterion_08_asymptotic_normality(linear_study):
    s = next(x for x in linear_study.per_eps if x.epsilon == 0.03)
    ok = (
        s.cov_rel_error <= 0.25
        and abs(s.skewness[0]) <= 0.35
        and abs(s.excess_kurtosis[0]) <= 0.7
    )
    report(
        8,
        ok,
        f"cov_rel_error {s.cov_rel_error:.3f} (<= 0.25), skewness {s.skewness[0]:+.3f} "
        f"(|.| <= 0.35), excess kurtosis {s.excess_kurtosis[0]:+.3f} (|.| <= 0.7), "
        f"n_ok {s.n_ok}/300",
    )


def test_criterion_09_moment_convergence(linear_study):
    trace = float(np.trace(linear_study.gamma_inv))
    moments = [(s.epsilon, s.mean_sq_u) for s in linear_study.per_eps]
    final = moments[-1][1]
    rel = abs(final - trace) / trace
    ok = rel <= 0.3
    report(
        9,
        ok,
        f"E|u|^2 by eps {[(e, round(v, 3)) for e, v in moments]} -> trace(Gamma^-1) "
        f"{trace:.3f}, final rel dev {rel:.3f} (<= 0.3)",
    )


def test_criterion_10_hessian_concentration():
    grid = TimeGrid(1.0, 512, 0)
    gm = gamma_matrix(LIN, [1.0], H04, grid, [1.0], refine=4)
    eps = 0.05
    devs = []
    for s in range(100):
        rp = lift(sample_fbm(H04, grid, (110, s)), grid)
        traj = solve_rde(LIN, [1.0], eps, rp, [1.0])
        ctx = build_context(traj, LIN, H04)
        hess = likelihood_parts(ctx, [1.0], order=2)[2]
        devs.append(np.linalg.norm(eps**2 * hess + gm.matrix))
    mean_dev = float(np.mean(devs))
    gate = 0.15 * float(np.linalg.norm(gm.matrix))
    report(10, mean_dev <= gate, f"mean |eps^2 Hess + Gamma| = {mean_dev:.4f} (<= {gate:.4f})")


def test_criterion_11_identifiability():
    grid = TimeGrid(1.0, 2048, 0)
    g1 = gamma_matrix(LIN, [1.0], H04, grid, [1.0], refine=1)
    g4 = gamma_matrix(LIN, [1.0], H04, grid, [1.0], refine=4)
    rel = abs(g1.matrix[0, 0] - g4.matrix[0, 0]) / g4.matrix[0, 0]
    ode = solve_ode(LIN, [1.0], [1.0], grid)
    at_truth = y_limit_field(LIN, [1.0], [1.0], H04, ode)
    xi, mesh, values = identifiability_scan(LIN, [1.0], H04, ode, n_grid=15)
    sep_ok = True
    for theta, val in zip(mesh, values):
        dist2 = float(np.sum((theta - 1.0) ** 2))
        if dist2 > 1e-16:
            sep_ok &= val <= -0.999 * xi * dist2 + 1e-12
    ok = g1.a5_ok and rel <= 1e-3 and at_truth == 0.0 and xi > 0.0 and sep_ok
    report(
        11,
        ok,
        f"Gamma {g1.matrix[0, 0]:.5f} > 0, refinement rel dev {rel:.2e} (<= 1e-3), "
        f"limit field 0 at truth: {at_truth == 0.0}, separation constant {xi:.4f} > 0",
    )


def test_criterion_12_transfer_identity():
    residuals = {}
    for n in (1024, 2048, 4096):
        grid = TimeGrid(1.0, n, 0)
        rp = lift(sample_fbm(H04, grid, 112), grid)
        traj = solve_rde(LIN, [1.0], 0.1, rp, [1.0])
        residuals[n] = verify_transfer_identity(traj, LIN, rp)
    ok = residuals[2048] <= 0.02 and residuals[1024] > residuals[2048] > residuals[4096]
    report(
        12,
        ok,
        f"residuals {{1024: {residuals[1024]:.2e}, 2048: {residuals[2048]:.2e}, "
        f"4096: {residuals[4096]:.2e}}} (<= 0.02 at 2048, strictly decreasing)",
    )
