import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence
from scipy.stats import linregress

from fracmle import (
    HurstVector,
    InputError,
    ResourceError,
    TimeGrid,
    chen_defect,
    lift,
    sample_fbm,
)
from fracmle.fbm import HURST_HIGH, HURST_LOW, _fgn_circulant, _fgn_sqrt_spectrum, check_hurst

from conftest import sampled_lift


def test_hurst_vector_range():
    HurstVector((0.4, 0.45))
    assert check_hurst(np.float64(0.4)) == 0.4 and type(check_hurst(np.float64(0.4))) is float
    # one open interval (1/3, 1/2) for check_hurst and HurstVector alike
    for bad in (0.3, HURST_LOW, HURST_HIGH, 0.6, float("nan"), float("inf")):
        with pytest.raises(InputError, match="outside"):
            check_hurst(bad)
        with pytest.raises(InputError):
            HurstVector((0.4, bad))


def test_grid_validation():
    with pytest.raises(InputError):
        TimeGrid(1.0, 1, 0)
    with pytest.raises(InputError):
        TimeGrid(1.0, 4, -1)
    g = TimeGrid(2.0, 4, 3)
    assert g.n_fine == 32
    nodes = g.coarse_nodes()
    assert nodes[0] == 0.0 and nodes[-1] == 2.0
    assert np.allclose(np.diff(nodes), g.dt)


def test_fbm_variance_at_one(h04):
    grid = TimeGrid(1.0, 64, 0)
    vals = [sample_fbm(h04, grid, (2, s))[-1, 0] for s in range(10_000)]
    assert abs(np.var(vals, ddof=1) - 1.0) <= 0.03


def test_fbm_covariance_two_times(h04):
    # Cov(B_1, B_2) = (1 + 2^0.8 - 1)/2 = 2^0.8 / 2
    grid = TimeGrid(2.0, 64, 0)
    mid = 32
    b1, b2 = [], []
    for s in range(10_000):
        p = sample_fbm(h04, grid, (3, s))[:, 0]
        b1.append(p[mid])
        b2.append(p[-1])
    target = 0.5 * 2.0**0.8
    assert abs(np.cov(b1, b2, ddof=1)[0, 1] - target) <= 0.03


def test_sampler_deterministic(h04):
    grid = TimeGrid(1.0, 32, 2)
    a = sample_fbm(h04, grid, (9, 1))
    b = sample_fbm(h04, grid, (9, 1))
    assert np.array_equal(a, b)
    c = sample_fbm(h04, grid, (9, 2))
    assert not np.array_equal(a, c)


def test_sampler_reads_numpy_integer_seeds(h04):
    grid = TimeGrid(1.0, 32, 1)
    assert np.array_equal(sample_fbm(h04, grid, np.int64(3)), sample_fbm(h04, grid, 3))
    assert np.array_equal(sample_fbm(h04, grid, (np.int64(9), 1)), sample_fbm(h04, grid, (9, 1)))
    for bad in (3.5, (9, 1.5), "seed", -1, (9, -1)):
        with pytest.raises(InputError):
            sample_fbm(h04, grid, bad)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    hurst=st.floats(1.0 / 3.0, 0.5, exclude_min=True, exclude_max=True),
    n=st.integers(2, 4096),
)
def test_circulant_embedding_psd_in_hurst_range(hurst, n):
    # the embedding is PSD for H <= 1/2, so the sampler never raises there
    fgn = _fgn_circulant(n, hurst, Generator(Philox(n)))
    assert fgn.shape == (n,) and np.all(np.isfinite(fgn))


def test_negative_spectrum_raises(monkeypatch, h04):
    def negative_spectrum(c):
        g = np.ones(len(c), dtype=complex)
        g[1] = -1.0
        return g

    # the spectrum is cached per (n, H), so start from an empty cache; a failed
    # spectrum is never cached, so every call raises
    _fgn_sqrt_spectrum.cache_clear()
    monkeypatch.setattr(np.fft, "fft", negative_spectrum)
    for _ in range(2):
        with pytest.raises(ResourceError):
            sample_fbm(h04, TimeGrid(1.0, 16, 0), 5)


def _sample_fbm_uncached(hurst, grid, seed):
    """sample_fbm with the circulant spectrum computed on every call, as before the cache."""
    n, path = grid.n_fine, np.zeros((grid.n_fine + 1, hurst.r))
    for i, h in enumerate(hurst):
        rng = Generator(Philox(SeedSequence(entropy=seed, spawn_key=(i,))))
        k = np.arange(n, dtype=float)
        rho = 0.5 * ((k + 1) ** (2 * h) + np.abs(k - 1) ** (2 * h) - 2 * k ** (2 * h))
        g = np.clip(np.fft.fft(np.concatenate([rho, [0.0], rho[:0:-1]])).real, 0.0, None)
        z = np.empty(2 * n, dtype=complex)
        z[0] = rng.standard_normal()
        z[n] = rng.standard_normal()
        v = rng.standard_normal((n - 1, 2))
        z[1:n] = (v[:, 0] + 1j * v[:, 1]) / np.sqrt(2.0)
        z[n + 1 :] = np.conj(z[1:n][::-1])
        path[1:, i] = np.cumsum(np.sqrt(2 * n) * np.fft.ifft(np.sqrt(g) * z).real[:n]) * grid.dt_fine**h
    return path


@pytest.mark.parametrize("n, level", [(2, 0), (64, 3), (1000, 0)])
def test_cached_spectrum_changes_no_bit(n, level):
    hv, grid = HurstVector((0.4, 0.45)), TimeGrid(1.0, n, level)
    want = _sample_fbm_uncached(hv, grid, (9, n))
    for _ in range(2):  # cold, then warm cache
        assert np.array_equal(sample_fbm(hv, grid, (9, n)), want)
    assert not _fgn_sqrt_spectrum(grid.n_fine, 0.4).flags.writeable


def test_lift_smooth_path_area():
    # B1 = B2 = t on [0,1]: area^{12}_{0,1} -> int_0^1 t dt = 1/2
    grid = TimeGrid(1.0, 2, 12)
    t = grid.fine_nodes()
    rp = lift(np.column_stack([t, t]), grid)
    assert abs(rp.area(0, grid.n_fine)[0, 1] - 0.5) <= 1e-3


def test_lift_diagonal_exact(h04):
    rp = sampled_lift(h04, TimeGrid(1.0, 16, 3), 11)
    a = rp.area(0, rp.grid.n_fine)
    tot = rp.increment(0, rp.grid.n_fine)
    assert a[0, 0] == 0.5 * tot[0] ** 2


def test_lift_symmetry_exact():
    hv = HurstVector((0.4, 0.45))
    rp = sampled_lift(hv, TimeGrid(1.0, 16, 3), 12)
    a = rp.area(0, rp.grid.n_fine)
    tot = rp.increment(0, rp.grid.n_fine)
    assert a[0, 1] + a[1, 0] == pytest.approx(tot[0] * tot[1], abs=1e-15)


def test_coarse_areas_compose_fine_areas():
    # the per-coarse-step areas the solver consumes are the Chen compositions of the
    # fine-step areas: cross terms, diagonal 0.5*dB^2 and the antisymmetric completion
    hv = HurstVector((0.4, 0.45))
    rp = sampled_lift(hv, TimeGrid(1.0, 16, 3), 20)
    sub = rp.grid.substeps
    for k in range(rp.grid.n_coarse):
        i, j = k * sub, (k + 1) * sub
        assert np.allclose(rp.coarse_areas[k], rp.area(i, j), rtol=0.0, atol=1e-15)
        assert np.allclose(rp.coarse_increments[k], rp.increment(i, j), rtol=0.0, atol=1e-15)


def test_chen_defect_degenerate(h04):
    rp = sampled_lift(h04, TimeGrid(1.0, 8, 2), 13)
    assert np.all(chen_defect(rp, 0.25, 0.25, 0.75) == 0.0)
    assert np.all(chen_defect(rp, 0.25, 0.75, 0.75) == 0.0)


def test_chen_defect_random_triples():
    hv = HurstVector((0.4, 0.45))
    grid = TimeGrid(1.0, 16, 4)
    rng = np.random.default_rng(7)
    for s in range(20):
        rp = sampled_lift(hv, grid, (14, s))
        idx = np.sort(rng.integers(0, grid.n_fine + 1, size=3))
        nodes = grid.fine_nodes()[idx]
        assert np.max(np.abs(chen_defect(rp, *nodes))) <= 1e-10


def test_chen_defect_off_grid_time(h04):
    rp = sampled_lift(h04, TimeGrid(1.0, 8, 0), 15)
    with pytest.raises(InputError):
        chen_defect(rp, 0.0, 0.131, 1.0)


def test_chen_and_algebra_property_100_seeds():
    hv = HurstVector((0.4, 0.45))
    grid = TimeGrid(1.0, 8, 3)
    rng = np.random.default_rng(99)
    for s in range(100):
        rp = sampled_lift(hv, grid, (16, s))
        i, j, k = np.sort(rng.integers(0, grid.n_fine + 1, size=3))
        defect = (
            rp.area(i, k)
            - rp.area(i, j)
            - rp.area(j, k)
            - np.outer(rp.increment(i, j), rp.increment(j, k))
        )
        assert np.max(np.abs(defect)) <= 1e-10
        a, tot = rp.area(i, k), rp.increment(i, k)
        assert a[0, 0] == 0.5 * tot[0] ** 2
        assert a[1, 1] == 0.5 * tot[1] ** 2
        assert a[0, 1] + a[1, 0] == pytest.approx(tot[0] * tot[1], abs=1e-14)


def test_lift_refinement_cauchy_rate():
    # successive-level L2 differences of the cross area decay like 2^(-L(2H-1/2))
    hv = HurstVector((0.4, 0.4))
    levels = range(6, 13)
    diffs = {lev: [] for lev in list(levels)[1:]}
    for s in range(20):
        prev = None
        for lev in levels:
            grid = TimeGrid(1.0, 4, lev)
            rp = sampled_lift(hv, grid, (17, s))
            a = rp.area(0, grid.n_fine)[0, 1]
            if prev is not None:
                diffs[lev].append(abs(a - prev))
            prev = a
    ls = np.array(sorted(diffs))
    rms = np.array([np.sqrt(np.mean(np.square(diffs[lev]))) for lev in ls])
    fit = linregress(ls, np.log2(rms))
    assert fit.slope <= -(2 * 0.4 - 0.5 - 0.1)


def test_resource_guard_on_huge_grid(h04):
    with pytest.raises(ResourceError):
        sample_fbm(h04, TimeGrid(1.0, 2, 24), 1)


def test_refine_zero_multicomponent_warns(caplog):
    hv = HurstVector((0.4, 0.45))
    grid = TimeGrid(1.0, 16, 0)
    path = sample_fbm(hv, grid, 20)
    with caplog.at_level(logging.WARNING, logger="fracmle.fbm"):
        lift(path, grid)
    assert any("single-term" in rec.message for rec in caplog.records)
