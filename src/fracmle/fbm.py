"""Exact multi-component fractional Brownian motion and its second-order lift.

Sampling uses circulant embedding (Davies-Harte), which reproduces the
fBm covariance 0.5*(t^2H + s^2H - |t-s|^2H) exactly on the grid. For
H <= 1/2 the embedding of fractional Gaussian noise is positive
semidefinite for every n (Dietrich & Newsam 1997; Craigmile 2003), so
there is no fallback sampler. The lift stores per-fine-step increments
and areas only; values on wider intervals are reconstructed through
Chen's relation, which makes the Chen identity hold by construction up
to float rounding.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .errors import InputError, ResourceError

log = logging.getLogger(__name__)

MAX_FINE_STEPS = 1 << 24

HURST_LOW = 1.0 / 3.0
HURST_HIGH = 0.5


def check_hurst(h) -> float:
    """h as a float, or InputError unless it lies in the open interval (1/3, 1/2)."""
    h = float(h)
    if not HURST_LOW < h < HURST_HIGH:
        raise InputError(f"Hurst index {h} outside (1/3, 1/2)")
    return h


@dataclass(frozen=True)
class HurstVector:
    """Per-component Hurst indices H_i, each in (1/3, 1/2)."""

    h: tuple

    def __post_init__(self):
        object.__setattr__(self, "h", tuple(check_hurst(v) for v in np.atleast_1d(self.h)))

    @property
    def r(self) -> int:
        return len(self.h)

    def __len__(self) -> int:
        return len(self.h)

    def __iter__(self):
        return iter(self.h)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform two-level grid on [0, T].

    The coarse grid has n_coarse steps; the fine grid refines each coarse
    step into 2**refine_level substeps.
    """

    T: float
    n_coarse: int
    refine_level: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise InputError(f"horizon T must be positive, got {self.T}")
        if int(self.n_coarse) != self.n_coarse or self.n_coarse < 2:
            raise InputError(f"n_coarse must be an integer >= 2, got {self.n_coarse}")
        if int(self.refine_level) != self.refine_level or self.refine_level < 0:
            raise InputError(f"refine_level must be an integer >= 0, got {self.refine_level}")
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "n_coarse", int(self.n_coarse))
        object.__setattr__(self, "refine_level", int(self.refine_level))

    @property
    def n_fine(self) -> int:
        return self.n_coarse << self.refine_level

    @property
    def substeps(self) -> int:
        return 1 << self.refine_level

    @property
    def dt(self) -> float:
        return self.T / self.n_coarse

    @property
    def dt_fine(self) -> float:
        return self.T / self.n_fine

    def coarse_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_coarse + 1)

    def fine_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_fine + 1)

    def fine_index(self, t: float) -> int:
        """Map a time to its fine-node index; off-grid times are errors."""
        n = self.n_fine
        k = t / self.T * n
        ki = int(round(k))
        if ki < 0 or ki > n or abs(k - ki) > 1e-8 * n:
            raise InputError(f"time {t} is not a fine-grid node")
        return ki


@dataclass(frozen=True)
class RoughPath:
    """Driver increments plus second-level areas on the two-level grid.

    values           fine-grid path, shape (n_fine+1, r)
    increments       per fine step, shape (n_fine, r)
    areas            per fine step, shape (n_fine, r, r): the single-step
                     convention (upper triangle 0, diagonal 0.5*dB^2,
                     lower triangle dB_i*dB_j) whose Chen composition over
                     a subgrid equals the left-point second-order sums
    coarse_increments, coarse_areas
                     composed per coarse step (what the solver consumes)
    """

    grid: TimeGrid
    values: np.ndarray
    increments: np.ndarray
    areas: np.ndarray
    coarse_increments: np.ndarray
    coarse_areas: np.ndarray

    @property
    def r(self) -> int:
        return self.values.shape[1]

    def coarse_values(self) -> np.ndarray:
        return self.values[:: self.grid.substeps]

    def increment(self, i: int, j: int) -> np.ndarray:
        """B_{t_i, t_j} for fine-node indices i <= j."""
        return self.values[j] - self.values[i]

    def area(self, i: int, j: int) -> np.ndarray:
        """Second-level area over fine-node indices [i, j] via Chen composition.

        Equals the left-point second-order Riemann sum over the fine
        subgrid for the upper triangle, 0.5*(B_{i,j})^2 on the diagonal,
        and the antisymmetric completion below it.
        """
        if not (0 <= i <= j <= self.grid.n_fine):
            raise InputError(f"invalid fine-node interval ({i}, {j})")
        if i == j:
            return np.zeros((self.r, self.r))
        rel = self.values[i:j] - self.values[i]
        # cross[a, b] = sum_k rel[k, a] * increments[i + k, b]
        return complete_area(rel.T @ self.increments[i:j], self.values[j] - self.values[i])


@lru_cache(maxsize=8)
def _fgn_sqrt_spectrum(n: int, hurst: float) -> np.ndarray:
    """Square root of the circulant embedding's spectrum, read-only and cached per (n, H).

    The embedding is positive semidefinite for H <= 1/2, so its spectrum
    is only clipped at rounding level; a materially negative eigenvalue
    would mean a broken spectrum and raises ResourceError (on every call:
    the cache keeps no failures).
    """
    k = np.arange(n, dtype=float)
    rho = 0.5 * ((k + 1) ** (2 * hurst) + np.abs(k - 1) ** (2 * hurst) - 2 * k ** (2 * hurst))
    c = np.concatenate([rho, [0.0], rho[:0:-1]])
    g = np.fft.fft(c).real
    if g.min() < -1e-10 * max(g.max(), 1.0):
        raise ResourceError(f"circulant embedding not PSD for H={hurst}, n={n}")
    root = np.sqrt(np.clip(g, 0.0, None))
    root.setflags(write=False)
    return root


def _fgn_circulant(n: int, hurst: float, rng: Generator) -> np.ndarray:
    """Unit-spacing fractional Gaussian noise by circulant embedding."""
    root = _fgn_sqrt_spectrum(n, hurst)
    z = np.empty(2 * n, dtype=complex)
    z[0] = rng.standard_normal()
    z[n] = rng.standard_normal()
    v = rng.standard_normal((n - 1, 2))
    z[1:n] = (v[:, 0] + 1j * v[:, 1]) / math.sqrt(2.0)
    z[n + 1 :] = np.conj(z[1:n][::-1])
    return math.sqrt(2 * n) * np.fft.ifft(root * z).real[:n]


def sample_fbm(hurst: HurstVector, grid: TimeGrid, seed) -> np.ndarray:
    """Sample an r-component fBm on the fine grid, B_0 = 0.

    Components are independent; the stream of component i is derived from
    (seed, i) through a counter-based splittable generator, so samples are
    reproducible and independent of any parallel execution layout. seed
    may be a non-negative int or a tuple of them (e.g. (study_seed, replicate_id)).
    """
    n = grid.n_fine
    if n > MAX_FINE_STEPS:
        raise ResourceError(f"fine grid of {n} steps exceeds limit {MAX_FINE_STEPS}")
    try:
        entropy = tuple(map(operator.index, (seed,) if np.ndim(seed) == 0 else seed))
        if min(entropy, default=0) < 0:
            raise ValueError
    except (TypeError, ValueError):
        raise InputError(f"seed must be a non-negative integer or a tuple of them, got {seed!r}") from None
    scale = grid.dt_fine
    path = np.zeros((n + 1, hurst.r))
    for i, h in enumerate(hurst):
        rng = Generator(Philox(SeedSequence(entropy=entropy, spawn_key=(i,))))
        path[1:, i] = np.cumsum(_fgn_circulant(n, h, rng)) * scale**h
    return path


def complete_area(cross: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """Second-level areas (..., r, r) from cross sums (..., r, r) and increments (..., r).

    The diagonal is 0.5*inc^2, the upper triangle is cross as given, and
    the lower triangle is the antisymmetric completion -cross_ab + inc_a*inc_b.
    """
    r = inc.shape[-1]
    out = np.empty(inc.shape + (r,))
    for a in range(r):
        out[..., a, a] = 0.5 * inc[..., a] ** 2
        for b in range(a + 1, r):
            out[..., a, b] = cross[..., a, b]
            out[..., b, a] = -cross[..., a, b] + inc[..., a] * inc[..., b]
    return out


def lift(path: np.ndarray, grid: TimeGrid) -> RoughPath:
    """Build the second-order rough path over a fine-grid driver path.

    Per fine step the area is the single-step convention (see RoughPath);
    per coarse step it is composed across the fine substeps, which yields
    the left-point second-order Riemann sum for components i < j.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim == 1:
        path = path[:, None]
    n, r = grid.n_fine, path.shape[1]
    if path.shape[0] != n + 1:
        raise InputError(f"path has {path.shape[0]} nodes, fine grid needs {n + 1}")
    if not np.all(np.isfinite(path)):
        raise InputError("driver path contains non-finite values")
    if grid.refine_level == 0 and r >= 2:
        log.warning("refine_level=0 with r>=2: per-step areas use a single-term sum")

    db = np.diff(path, axis=0)
    areas = complete_area(np.zeros((n, r, r)), db)

    m = grid.substeps
    nc = grid.n_coarse
    blocks = db.reshape(nc, m, r)
    cdb = blocks.sum(axis=1)
    rel = np.cumsum(blocks, axis=1)
    rel = np.concatenate([np.zeros((nc, 1, r)), rel[:, :-1, :]], axis=1)
    careas = complete_area(np.einsum("nka,nkb->nab", rel, blocks), cdb)

    for arr in (path, db, areas, cdb, careas):
        arr.setflags(write=False)
    return RoughPath(
        grid=grid,
        values=path,
        increments=db,
        areas=areas,
        coarse_increments=cdb,
        coarse_areas=careas,
    )


def chen_defect(rp: RoughPath, s: float, u: float, t: float) -> np.ndarray:
    """B_{s,t} - B_{s,u} - B_{u,t} - B_{s,u} (x) B_{u,t} at grid nodes (second level)."""
    i, j, k = (rp.grid.fine_index(v) for v in (s, u, t))
    if not (i <= j <= k):
        raise InputError(f"need s <= u <= t, got ({s}, {u}, {t})")
    return (
        rp.area(i, k)
        - rp.area(i, j)
        - rp.area(j, k)
        - np.outer(rp.increment(i, j), rp.increment(j, k))
    )


def dump_driver_csv(rp: RoughPath, path_file, area_file=None) -> None:
    """Write the fine-grid driver (t, B1..Br) and optionally per-step areas (k, i, j, value)."""
    r = rp.r
    header = "t," + ",".join(f"B{i + 1}" for i in range(r))
    data = np.column_stack([rp.grid.fine_nodes(), rp.values])
    np.savetxt(path_file, data, delimiter=",", header=header, comments="")
    if area_file is not None:
        k, i, j = np.indices(rp.areas.shape).reshape(3, -1)
        np.savetxt(
            area_file,
            np.column_stack([k, i + 1, j + 1, rp.areas.ravel()]),
            delimiter=",",
            header="k,i,j,area",
            comments="",
            fmt=("%d", "%d", "%d", "%.17g"),
        )
