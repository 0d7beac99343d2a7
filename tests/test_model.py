import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence

from fracmle import (
    EllipticityError,
    InputError,
    ParameterDomainError,
    ProbeConfig,
    available_models,
    eval_A_inverse,
    eval_diffusion,
    eval_drift,
    get_model,
    probe_assumptions,
    register,
)
from fracmle.model import (
    AssumptionReport,
    eval_path,
    finite_difference_check,
    sigma_weighted,
    spd_inverse,
    weighted_path,
)


def test_registry_builtins():
    names = available_models()
    assert "linear1d" in names and "cross2d" in names


def test_register_conflict():
    with pytest.raises(InputError):
        register(get_model("linear1d"))


def test_unknown_model():
    with pytest.raises(InputError):
        get_model("does-not-exist")


def test_eval_drift_linear():
    model = get_model("linear1d")
    assert eval_drift(model, [2.0], [1.0])[0] == -2.0
    assert eval_drift(model, [0.0], [3.0])[0] == 0.0


def test_eval_drift_componentwise_2d():
    model = get_model("cross2d")
    # the cross term is part of the registered model
    out = eval_drift(model, [1.0, 1.0], [1.0, 2.0])
    assert out == pytest.approx([-1.0 - 0.1, -2.0])


def test_eval_drift_domain_error():
    model = get_model("linear1d")
    with pytest.raises(ParameterDomainError):
        eval_drift(model, [1.0], [6.0])
    with pytest.raises(InputError):
        eval_drift(model, [np.nan], [1.0])


def test_check_state_shape_and_finiteness():
    model = get_model("cross2d")
    assert np.array_equal(model.check_state([1.0, 2.0]), [1.0, 2.0])
    with pytest.raises(InputError, match=r"x0 has shape \(3,\), model expects \(2,\)"):
        model.check_state([1.0, 2.0, 3.0], what="x0")
    with pytest.raises(InputError, match="non-finite x0"):
        model.check_state([np.inf, 1.0], what="x0")
    assert get_model("linear1d").check_state(0.7).shape == (1,)


@pytest.mark.parametrize(
    "helper",
    [
        lambda m, x: eval_drift(m, x, [1.0, 2.0]),
        eval_diffusion,
        eval_A_inverse,
        sigma_weighted,
    ],
    ids=["eval_drift", "eval_diffusion", "eval_A_inverse", "sigma_weighted"],
)
@pytest.mark.parametrize("x", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
def test_single_state_helpers_check_the_state_shape(helper, x):
    # cross2d has d = 2: a state of another shape is an InputError
    with pytest.raises(InputError, match=r"state has shape .*, model expects \(2,\)"):
        helper(get_model("cross2d"), x)


def test_sigma_weighted_rejects_non_finite_state():
    with pytest.raises(InputError, match="non-finite state"):
        sigma_weighted(get_model("cross2d"), [np.nan, 1.0])


def test_theta_closure_boundary_allowed():
    model = get_model("linear1d")
    eval_drift(model, [1.0], [0.1])
    eval_drift(model, [1.0], [5.0])


def test_A_inverse_identity_cases():
    lin = get_model("linear1d")
    assert eval_A_inverse(lin, [0.7])[0, 0] == pytest.approx(1.0)
    cross = get_model("cross2d")
    # sigma(0) = I_2
    assert np.allclose(eval_A_inverse(cross, [0.0, 0.0]), np.eye(2))


def test_A_inverse_consistency_random_probes():
    model = get_model("cross2d")
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-3, 3, size=2)
        a = eval_diffusion(model, x) @ eval_diffusion(model, x).T
        inv = eval_A_inverse(model, x)
        assert np.max(np.abs(a @ inv - np.eye(2))) <= 1e-10
        # A symmetric positive definite
        assert np.all(np.linalg.eigvalsh(a) > 0)


def test_A_inverse_ellipticity_error():
    model = get_model("geom1d")
    with pytest.raises(EllipticityError):
        eval_A_inverse(model, [0.0])


def test_derivatives_match_finite_differences():
    for name in ("linear1d", "cross2d", "const1d", "zero1d"):
        dx, dth = finite_difference_check(get_model(name), n_probes=50, seed=2)
        assert dx <= 1e-4 and dth <= 1e-4


def test_finite_difference_check_names_a_misshapen_callback():
    # the check reads drift_dx through eval_path: a cross2d drift_dx that returns one
    # row per state is an InputError naming both shapes, not NumPy's reshape error
    cross = get_model("cross2d")
    model = dataclasses.replace(cross, name="cross2d-bad-dx", drift_dx=lambda x, th: np.zeros((len(x), 2)))
    with pytest.raises(InputError, match=r"returned shape \(1, 2\), not \(1, 2, 2\)"):
        finite_difference_check(model, n_probes=1)


def test_sigma_weighted_jacobian_fd():
    model = get_model("cross2d")
    rng = np.random.default_rng(3)
    step = 1e-6
    for _ in range(10):
        x = rng.uniform(-2, 2, size=2)
        _, df = sigma_weighted(model, x)
        for p in range(2):
            e = np.zeros(2)
            e[p] = step
            fp, _ = sigma_weighted(model, x + e)
            fm, _ = sigma_weighted(model, x - e)
            fd = (fp - fm) / (2 * step)
            assert np.max(np.abs(fd - df[:, :, p])) <= 1e-6


def test_batched_path_matches_pointwise():
    model = get_model("cross2d")
    rng = np.random.default_rng(4)
    states = rng.uniform(-2, 2, size=(17, 2))
    f_batch, df_batch = weighted_path(model, states)
    for k in range(17):
        f, df = sigma_weighted(model, states[k])
        assert np.allclose(f, f_batch[k], atol=1e-14)
        assert np.allclose(df, df_batch[k], atol=1e-14)


def test_probe_linear_model():
    model = get_model("linear1d")
    report = probe_assumptions(model, seed=0)
    # |b(x)-b(y)| = theta |x-y|, so the probe max is the largest theta drawn
    assert report.lipschitz_estimate <= 5.0
    assert report.ellipticity_min == pytest.approx(1.0)
    assert all(report.pass_flags.values())


def test_probe_deterministic():
    model = get_model("cross2d")
    a = probe_assumptions(model, seed=7)
    b = probe_assumptions(model, seed=7)
    assert a == b


def test_probe_lipschitz_bound_is_probe_max():
    model = get_model("linear1d")
    report = probe_assumptions(model, seed=5)
    rng = np.random.default_rng(11)
    lip = report.lipschitz_estimate
    for _ in range(100):
        x, y = rng.uniform(-5, 5, size=2)
        th = rng.uniform(0.1, lip) if lip > 0.1 else 0.1
        lhs = abs(-th * x - (-th * y))
        assert lhs <= lip * abs(x - y) + 1e-12


def test_probe_lipschitz_exact_for_state_free_drifts():
    # b independent of x: the pair ratio is identically 0, so the probe max is 0
    for name in ("const1d", "zero1d"):
        report = probe_assumptions(get_model(name), seed=4)
        assert report.lipschitz_estimate == 0.0
        assert report.pass_flags["lipschitz"]


def test_probe_ellipticity_failure_flagged():
    model = get_model("geom1d")
    report = probe_assumptions(model, ProbeConfig(lo=-1.0, hi=1.0), seed=6)
    # probes straddle 0 where det A vanishes
    assert not report.pass_flags["ellipticity"]


def test_probe_polygrowth_finite_2d():
    model = get_model("cross2d")
    report = probe_assumptions(model, ProbeConfig(growth_exponent=1.0), seed=8)
    assert all(np.isfinite(v) for v in report.polygrowth_estimate.values())
    # brute-force oracle for the (1, 0) entry: |grad_theta b| / (1 + |x|)
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(2000):
        x = rng.uniform(-5, 5, size=2)
        worst = max(worst, np.max(np.abs(x)) / (1 + np.linalg.norm(x)))
    assert report.polygrowth_estimate[(1, 0)] <= worst * 1.05


def test_domain_override():
    model = get_model("linear1d").with_domain([[0.9, 1.1]])
    assert model.contains_theta([1.0])
    assert not model.contains_theta([2.0])
    with pytest.raises(InputError):
        get_model("linear1d").with_domain([[2.0, 1.0]])


@pytest.mark.parametrize(
    "box",
    [[[0.1, 5.0], [0.1, 5.0]], [[0.1]], [[0.1, np.inf]], [[np.nan, 5.0]]],
    ids=["two-rows", "one-column", "infinite", "nan"],
)
def test_parameter_box_must_be_m_finite_pairs(box):
    # a box that is not m finite (lo, hi) pairs is a typed InputError wherever a model is
    # built from it, including a study replicate (not a raw ValueError from a reshape)
    from fracmle import StudyConfig, run_replicate

    lin = get_model("linear1d")
    cfg = StudyConfig(
        model="linear1d", theta0=(1.0,), x0=(1.0,), hurst=(0.4,), epsilons=(0.1,),
        n_replicates=2, n_coarse=32, theta_domain=box,
    )
    for build in (
        lambda: dataclasses.replace(lin, theta_domain=box),
        lambda: lin.with_domain(box),
        lambda: run_replicate(cfg, 0.1, 0),
    ):
        with pytest.raises(InputError, match=r"is not 1 finite \(lo, hi\) pairs"):
            build()


@pytest.mark.parametrize(
    "box",
    [[[0.1, 5.0], [0.1]], [0.1, 5.0], [["lo", "hi"]], 0.1],
    ids=["ragged", "flat", "strings", "scalar"],
)
def test_parameter_box_must_be_2d_numeric(box):
    # a box that is not a 2-D numeric array is an InputError where a model or a study
    # config is built from it, not NumPy's ValueError or a TypeError from tuple()
    from fracmle import StudyConfig

    lin = get_model("linear1d")
    for build in (
        lambda: lin.with_domain(box),
        lambda: dataclasses.replace(lin, theta_domain=box),
        lambda: StudyConfig(
            model="linear1d", theta0=(1.0,), x0=(1.0,), hurst=(0.4,), epsilons=(0.1,),
            n_replicates=2, theta_domain=box,
        ),
    ):
        with pytest.raises(InputError, match="is not a 2-D numeric array"):
            build()


def test_eval_path_names_both_shapes_of_a_misshapen_result():
    # a callback whose result does not reshape to (n,) + base_shape is an InputError
    lin = get_model("linear1d")
    with pytest.raises(InputError, match=r"returned shape \(2,\), not \(3, 1\)"):
        eval_path(lin, lambda x, th: np.zeros(2), np.zeros((3, 1)), (1,), np.array([1.0]))


def _callbacks(model, theta):
    """(callback, base shape, theta or None) for every callback of model."""
    d, r, m = model.d, model.r, model.m
    return (
        [(model.drift, (d,), theta), (model.drift_dx, (d, d), theta)]
        + [(cb, (d,) + (m,) * k, theta) for k, cb in enumerate(model.drift_dtheta, 1)]
        + [(model.diffusion, (d, r), None), (model.diffusion_dx, (d, r, d), None)]
        + [(model.diffusion_dxx, (d, r, d, d), None)]
    )


@pytest.mark.parametrize("name", ["linear1d", "cross2d", "const1d", "zero1d", "geom1d"])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_stacked_callbacks_equal_row_by_row(name, data):
    # on a stack of states each callback returns, bit for bit, what it returns on each
    # row as a (1, d) stack: so a batched solve row equals its single-path solve
    model = get_model(name)
    n = data.draw(st.integers(1, 12))
    coords = st.lists(st.floats(-3.0, 3.0), min_size=n * model.d, max_size=n * model.d)
    states = np.array(data.draw(coords))
    states = states.reshape(n, model.d)
    theta = np.array([data.draw(st.floats(lo, hi)) for lo, hi in model.theta_domain])
    for fn, shape, th in _callbacks(model, theta):
        whole = eval_path(model, fn, states, shape, th)
        rows = np.concatenate([eval_path(model, fn, states[i : i + 1], shape, th) for i in range(n)])
        assert whole.tobytes() == rows.tobytes()


def _probe_reference(model, probe, seed):
    """The assumption probe as a loop of single-state callback calls."""
    rng = Generator(Philox(SeedSequence(entropy=(int(seed), 0xA55E))))
    per_axis = max(3, round(probe.n_points ** (1.0 / model.d)))
    if per_axis % 2 == 0:
        per_axis += 1
    axis = np.linspace(probe.lo, probe.hi, per_axis)
    xs = np.stack([g.ravel() for g in np.meshgrid(*([axis] * model.d), indexing="ij")], axis=-1)
    dom = model.theta_domain
    thetas = rng.uniform(dom[:, 0], dom[:, 1], size=(probe.n_theta, model.m))
    lip = 0.0
    for _ in range(probe.n_pairs):
        i, j = rng.integers(0, len(xs), size=2)
        if np.allclose(xs[i], xs[j]):
            continue
        th = thetas[rng.integers(0, probe.n_theta)]
        num = np.linalg.norm(np.asarray(model.drift(xs[i], th)) - np.asarray(model.drift(xs[j], th)))
        lip = max(lip, num / np.linalg.norm(xs[i] - xs[j]))
    growth = {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (2, 0): 0.0, (3, 0): 0.0, (4, 0): 0.0}
    ell_min, sig_bound = np.inf, 0.0
    for x in xs:
        wt = 1.0 + np.linalg.norm(x) ** probe.growth_exponent
        sig = eval_diffusion(model, x)
        dsig = np.asarray(model.diffusion_dx(x), dtype=float)
        ddsig = np.asarray(model.diffusion_dxx(x), dtype=float)
        sig_bound = max(sig_bound, np.max(np.abs(sig)), np.max(np.abs(dsig)), np.max(np.abs(ddsig)))
        det = float(spd_inverse(sig @ sig.T)[1])  # the package's det: the product of the pivots
        ell_min = min(ell_min, det)
        for th in thetas:
            growth[(0, 0)] = max(growth[(0, 0)], np.max(np.abs(model.drift(x, th))) / wt)
            growth[(0, 1)] = max(growth[(0, 1)], np.max(np.abs(model.drift_dx(x, th))) / wt)
            for k in range(1, 5):
                dk = np.asarray(model.drift_dtheta[k - 1](x, th), dtype=float)
                growth[(k, 0)] = max(growth[(k, 0)], np.max(np.abs(dk)) / wt)
    flags = {
        "lipschitz": bool(np.isfinite(lip) and lip <= 1e6),
        "polynomial_growth": bool(all(v <= 1e6 for v in growth.values())),
        "ellipticity": bool(ell_min > 1e-12),
        "diffusion_bounded": bool(sig_bound <= 1e6),
    }
    return AssumptionReport(
        model.name, float(lip), {k: float(v) for k, v in growth.items()}, float(ell_min),
        float(sig_bound), flags,
    )


_PROBE_MODELS = ["linear1d", "cross2d", "const1d", "zero1d", "geom1d"]
_PROBES = [
    ProbeConfig(),
    ProbeConfig(lo=-1.0, hi=2.0, n_points=50, n_pairs=60, n_theta=5, growth_exponent=2.0),
]


@pytest.mark.parametrize("probe", _PROBES, ids=["default", "narrow"])
@pytest.mark.parametrize("name", _PROBE_MODELS)
def test_probe_matches_single_state_reference(name, probe):
    # stacked calls read the same callback values
    model = get_model(name)
    assert probe_assumptions(model, probe, seed=3) == _probe_reference(model, probe, seed=3)
