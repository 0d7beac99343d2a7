"""Riemann-Liouville fractional integrals on uniform grids and the
kernel transform that carries fBm-driven observations to a Wiener process.

The weakly singular kernel (t-u)^(alpha-1) is integrated exactly against
piecewise-linear data (product integration), so the integral rules are
exact for constant and linear integrands. On a uniform grid the
weights depend only on k-l, which lets the transform run as a discrete
convolution instead of a dense weight matrix. The convolutions run
through numpy.fft at the smallest 5-smooth length that holds the full
linear convolution (_next_fast_len), and each plan keeps the spectra of
its own kernels. Every transform (rl_integral_left, q_transform,
kh_inverse_transform) takes N+1 finite samples along the last axis of
its input: a (c, N+1) stack is c independent rows, each bit-identical to
its own 1-D call.

The observation-to-Wiener transform W_k = sum_{l<k} kappa(t_k, m_l) dY_l
(Norros, Valkeila & Virtamo, Bernoulli 1999) never forms kappa either.
In grid units, with s_l = l + 1/2, a = 1/2 - H, g_l = s_l^a dY_l and
C = dt^a / (d_H Gamma(a)), the identity
Phi(1 - s/k) = int_s^k (u - s)^(a-1) u^(-a) du splits W into cell
increments:

    W_k = C sum_{j<k} inc_j,
    inc_j = sum_{l<=j} g_l int_{max(j, s_l)}^{j+1} (u - s_l)^(a-1) u^(-a) du.

For j >= J put u = j + 1/2 + sigma and expand u^(-a) in sigma / (j + 1/2):

    inc_j = sum_{p=0..P} binom(-a, p) (j + 1/2)^(-a-p) (g * T_p)_j,

with the causal Toeplitz tables T_p(0) = 2^(-p-a) / (p + a) and
T_p(m) = int_{-1/2}^{1/2} sigma^p (m + sigma)^(a-1) dsigma for m >= 1 (a
smooth integrand, since m + sigma >= 1/2, taken by 20-point
Gauss-Legendre). |sigma / (j + 1/2)| <= 1/(2J + 1), so cutting the series
after p = P leaves a relative error below (2J + 1)^-(P+1), about 1e-20
at J = KERNEL_HEAD_ROWS = 32 and P = KERNEL_SERIES_ORDER = 10: the
transform is exact to roundoff. Rows k <= J come from the closed form of
kappa, so W_J is exact, and W_k = W_J + C sum_{j=J}^{k-1} inc_j costs one
rfft, one stacked irfft of P + 1 rows and a cumsum per path.

The head rows need Phi(x) = int_0^x v^(a-1)/(1-v) dv for x in (0, 1),
summed from two geometric series (_phi). For x <= 1/2, expanding
1/(1-v) gives Phi(x) = sum_n x^(n+a)/(n+a). Above 1/2, expanding
v^(a-1) = (1-y)^(a-1) around y = 1 - v = 0 gives
Phi(x) = -ln(1-x) + C - sum_{n>=1} (1-a)_n/n! (1-x)^n/n, with C fixed by
matching the two series at x = 1/2. Either series has ratio at most 1/2,
so _PHI_TERMS = 60 terms reach roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import InputError
from .fbm import HURST_HIGH, HURST_LOW, TimeGrid, check_hurst

# rows k <= KERNEL_HEAD_ROWS of kappa come from its closed form, later rows
# from the series truncated after KERNEL_SERIES_ORDER + 1 terms
KERNEL_HEAD_ROWS = 32
KERNEL_SERIES_ORDER = 10
_TABLE_GAUSS_NODES = 20
_PHI_TERMS = 60


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n (2^i 3^j 5^k, a fast numpy.fft length)."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _binom_neg(alpha: float) -> np.ndarray:
    """binom(-alpha, p) for p = 0..KERNEL_SERIES_ORDER by the product recursion."""
    k = np.arange(KERNEL_SERIES_ORDER)
    return np.concatenate([[1.0], np.cumprod(-(alpha + k) / (k + 1))])


def _phi(x: np.ndarray, alpha: float) -> np.ndarray:
    """Phi(x) = int_0^x v^(alpha-1)/(1-v) dv for x in (0, 1) (see the module docstring)."""
    n = np.arange(_PHI_TERMS)
    m = n[1:]
    low_coef = 1.0 / (n + alpha)
    high_coef = np.concatenate([[0.0], np.cumprod((m - alpha) / m) / m])  # (1-a)_n / n! / n

    def low(v):
        return v**alpha * polyval(v, low_coef)

    const = low(0.5) + math.log(0.5) + polyval(0.5, high_coef)
    x = np.asarray(x, dtype=float)
    upper = x > 0.5
    out = low(np.where(upper, 0.5, x))
    y = 1.0 - x[upper]
    out[upper] = -np.log(y) + const - polyval(y, high_coef)
    return out


def d_H(hurst: float) -> float:
    """Normalizing constant sqrt(2H G(3/2-H) G(H+1/2) / G(2-2H)); equals 1 at H=1/2."""
    if not HURST_LOW < hurst <= HURST_HIGH:
        raise InputError(f"Hurst index {hurst} outside (1/3, 1/2]")
    return math.sqrt(
        2.0 * hurst * math.gamma(1.5 - hurst) * math.gamma(hurst + 0.5) / math.gamma(2.0 - 2.0 * hurst)
    )


def gamma_H(hurst: float) -> float:
    """Score-scaling constant (d_H * G(1/2-H))^-2 for H in (1/3, 1/2)."""
    hurst = check_hurst(hurst)
    return (d_H(hurst) * math.gamma(0.5 - hurst)) ** -2.0


def _pi_kernels(alpha: float, n: int, dt: float):
    """Convolution generators (A, C) of the product-integration weights.

    I(t_k) = sum_{m=1..k} A[m] f_{k-m} + C[m] f_{k-m+1} integrates
    (t_k - u)^(alpha-1)/Gamma(alpha) against the piecewise-linear
    interpolant of f exactly.
    """
    m = np.arange(n + 1, dtype=float)
    a = np.maximum(m - 1.0, 0.0) * dt
    b = m * dt
    pa, pb = a**alpha, b**alpha
    m0 = (pb - pa) / alpha
    m1 = b * m0 - (b * pb - a * pa) / (alpha + 1.0)
    ga = math.gamma(alpha)
    A = (m0 - m1 / dt) / ga
    C = m1 / (dt * ga)
    A[0] = 0.0
    C[0] = 0.0
    return A, C


def _kernel_spectra(A: np.ndarray, C: np.ndarray) -> tuple:
    """(size, rfft) of A and of C at the lengths _rl_left convolves them with
    N+1 and N samples: the smallest 5-smooth lengths >= 2N+1 and >= 2N."""
    n = len(A) - 1
    out = []
    for kernel, size in ((A, _next_fast_len(2 * n + 1)), (C, _next_fast_len(2 * n))):
        spectrum = np.fft.rfft(kernel, size)
        spectrum.setflags(write=False)
        out.append((size, spectrum))
    return tuple(out)


def _conv(f: np.ndarray, kernel_spectrum: tuple, out_len: int) -> np.ndarray:
    size, spectrum = kernel_spectrum
    return np.fft.irfft(np.fft.rfft(f, size) * spectrum, size)[..., :out_len]


def _lower_triangular_kernel(hurst: float, dt: float, rows: int) -> np.ndarray:
    """kappa(t_k, m_l) for nodes t_k = k dt, k < rows, and midpoints m_l < t_k.

    The (rows, rows - 1) block of the kernel matrix, in closed form:
    kappa(t, s) = d_H^-1 s^a I^a_{t-}[y^{-a}](s) with a = 1/2 - H equals
    d_H^-1 s^a Phi(x) / Gamma(a), where x = (t-s)/t and
    Phi(x) = int_0^x v^(a-1)/(1-v) dv (_phi).
    """
    alpha = 0.5 - hurst
    kk, ll = np.tril_indices(rows, k=-1)
    mids = (ll + 0.5) * dt
    x = 1.0 - (ll + 0.5) / kk
    out = np.zeros((rows, rows - 1))
    out[kk, ll] = mids**alpha * _phi(x, alpha) / (d_H(hurst) * math.gamma(alpha))
    return out


def _series_tables(alpha: float, length: int) -> np.ndarray:
    """T_p(m) for p = 0..P and m = 0..length-1 (see the module docstring)."""
    p = np.arange(KERNEL_SERIES_ORDER + 1)
    tables = np.empty((p.size, length))
    tables[:, 0] = 0.5 ** (p + alpha) / (p + alpha)
    x, w = np.polynomial.legendre.leggauss(_TABLE_GAUSS_NODES)
    sigma = 0.5 * x
    moments = 0.5 * w * sigma ** p[:, None]
    tables[:, 1:] = moments @ ((np.arange(1, length)[:, None] + sigma) ** (alpha - 1.0)).T
    return tables


@dataclass(frozen=True)
class KernelTail:
    """Rows k > J of the Hurst kernel as the Toeplitz series of the module
    docstring.

    spectra (P+1, fft_len//2 + 1) holds the rfft of T_0..T_P at fft_len;
    weights (P+1, n - J) holds binom(-a, p) (j + 1/2)^(-a-p) for j = J..n-1;
    scale is C = dt^a / (d_H Gamma(a)); midpoint_powers (n,) holds
    (j + 1/2)^a for j = 0..n-1, the factor of g_j = s_j^a dY_j.
    """

    spectra: np.ndarray
    fft_len: int
    weights: np.ndarray
    scale: float
    midpoint_powers: np.ndarray

    @staticmethod
    def build(hurst: float, grid: TimeGrid) -> "KernelTail":
        alpha = 0.5 - hurst
        n = grid.n_coarse
        fft_len = _next_fast_len(2 * n - 1)
        spectra = np.fft.rfft(_series_tables(alpha, n), fft_len)
        p = np.arange(KERNEL_SERIES_ORDER + 1)[:, None]
        weights = _binom_neg(alpha)[:, None] * (np.arange(KERNEL_HEAD_ROWS, n) + 0.5) ** (-alpha - p)
        scale = grid.dt**alpha / (d_H(hurst) * math.gamma(alpha))
        midpoint_powers = (np.arange(n) + 0.5) ** alpha
        for arr in (spectra, weights, midpoint_powers):
            arr.setflags(write=False)
        return KernelTail(spectra, fft_len, weights, scale, midpoint_powers)


def _node_powers(alpha: float, grid: TimeGrid) -> tuple:
    """(t_k^alpha for k = 0..N, t_k^-alpha for k = 1..N), read-only."""
    nodes = grid.coarse_nodes()
    powers = (nodes**alpha, nodes[1:] ** (-alpha))
    for arr in powers:
        arr.setflags(write=False)
    return powers


@dataclass(frozen=True)
class FracKernelPlan:
    """Precomputed quadrature data for one integral order on one grid.

    weights_left holds the Toeplitz generators (A, C) of the
    product-integration weights w_{k,l} for I^a_{0+} (the dense matrix is
    never materialized; row sums are checked through the rule's action on
    f == 1), and spectra_left the (size, rfft) pairs of A and C that
    rl_integral_left and q_transform multiply with. weights_right is the
    same pair, the generators of the mirrored rule for I^a_{T-}; no
    transform reads it. Plans built from a Hurst index H in (1/3, 1/2)
    have order a = 1/2 - H and also carry the
    observation-to-Wiener kernel kappa(t_k, m_l), which is never formed
    whole: kernel_matrix holds rows k <= J of kappa (all of it when n <= J),
    and kernel_tail the series for the rows after J (J = 32 and P = 10, see
    the module docstring). node_powers holds t_k^a at every node and t_k^-a
    at the nodes after t_0, the factors q_transform applies. A plan at
    n = 4096 keeps about 1.3 MB. Plans from for_order have no kernel
    (hurst, kernel_matrix and kernel_tail are None).
    """

    hurst: float | None
    grid: TimeGrid
    alpha: float
    weights_left: tuple
    weights_right: tuple
    spectra_left: tuple
    node_powers: tuple
    kernel_matrix: np.ndarray | None
    kernel_tail: KernelTail | None = None

    @staticmethod
    def for_order(alpha: float, grid: TimeGrid) -> "FracKernelPlan":
        """Plain fractional-integration plan of order alpha in (0, 1)."""
        if not 0.0 < alpha < 1.0:
            raise InputError(f"fractional order {alpha} outside (0, 1)")
        A, C = _pi_kernels(alpha, grid.n_coarse, grid.dt)
        for arr in (A, C):
            arr.setflags(write=False)
        return FracKernelPlan(
            None, grid, alpha, (A, C), (A, C), _kernel_spectra(A, C), _node_powers(alpha, grid), None
        )

    @staticmethod
    def build(hurst: float, grid: TimeGrid) -> "FracKernelPlan":
        hurst = check_hurst(hurst)
        alpha = 0.5 - hurst
        n = grid.n_coarse
        A, C = _pi_kernels(alpha, n, grid.dt)
        head = _lower_triangular_kernel(hurst, grid.dt, min(n, KERNEL_HEAD_ROWS) + 1)
        tail = KernelTail.build(hurst, grid) if n > KERNEL_HEAD_ROWS else None
        for arr in (A, C, head):
            arr.setflags(write=False)
        return FracKernelPlan(
            hurst, grid, alpha, (A, C), (A, C), _kernel_spectra(A, C), _node_powers(alpha, grid), head, tail
        )


@lru_cache(maxsize=32)
def get_plan(hurst: float, T: float, n_coarse: int) -> FracKernelPlan:
    """Process-local plan cache; plans are immutable and shared read-only."""
    return FracKernelPlan.build(hurst, TimeGrid(T, n_coarse, 0))


def _samples(plan: FracKernelPlan, f) -> np.ndarray:
    """f as a float array with N+1 finite samples along its last axis, else InputError."""
    f = np.asarray(f, dtype=float)
    n = plan.grid.n_coarse
    if f.shape[-1:] != (n + 1,):
        raise InputError(f"expected {n + 1} samples along the last axis, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise InputError("non-finite samples in fractional transform input")
    return f


def _rl_left(plan: FracKernelPlan, f: np.ndarray) -> np.ndarray:
    """rl_integral_left on samples _samples has checked."""
    n = plan.grid.n_coarse
    A, C = plan.spectra_left
    out = _conv(f, A, n + 1) + _conv(f[..., 1:], C, n + 1)
    out[..., 0] = 0.0
    return out


def rl_integral_left(plan: FracKernelPlan, f: np.ndarray) -> np.ndarray:
    """I^a_{0+} f at every grid node; exact for piecewise-linear f; 0 at t_0."""
    return _rl_left(plan, _samples(plan, f))


def kh_inverse_transform(plan: FracKernelPlan, y: np.ndarray) -> np.ndarray:
    """Transform a path Y (Y_0 = 0) into W_t = sum_{l<k} kappa(t_k, m_l) dY_l.

    When Y is a fBm with the plan's Hurst index, W is a standard Wiener
    process up to the midpoint-rule discretization (checked behaviorally:
    Var(W_t) = t, Cov(W_s, W_t) = min(s, t)). Rows k <= J use the stored
    head of kappa, later rows the series of the module docstring.
    """
    if plan.hurst is None:
        raise InputError("plan built with for_order() has no Hurst kernel")
    dy = np.diff(_samples(plan, y))
    n = plan.grid.n_coarse
    head = plan.kernel_matrix
    m = head.shape[1]
    out = np.empty(dy.shape[:-1] + (n + 1,))
    out[..., : m + 1] = (head @ dy[..., :m, None])[..., 0]
    out[..., 0] = 0.0
    tail = plan.kernel_tail
    if tail is not None:
        g = tail.midpoint_powers * dy
        conv = np.fft.irfft(np.fft.rfft(g, tail.fft_len)[..., None, :] * tail.spectra, tail.fft_len)
        inc = np.einsum("pj,...pj->...j", tail.weights, conv[..., m:n])
        out[..., m + 1 :] = out[..., m, None] + tail.scale * np.cumsum(inc, axis=-1)
    return out


def q_transform(plan: FracKernelPlan, g: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """scale * t^(H-1/2) * I^a_{0+}[ s^a g(s) ](t) at the grid nodes, 0 at t_0.

    This is the shared shape of the likelihood field and its parameter
    derivatives; scale carries the (eps d_H)^-1 prefactor.
    """
    g = _samples(plan, g)
    t_pow, t_neg_pow = plan.node_powers
    inner = _rl_left(plan, t_pow * g)
    out = np.empty_like(inner)
    out[..., 0] = 0.0
    out[..., 1:] = scale * t_neg_pow * inner[..., 1:]
    return out
