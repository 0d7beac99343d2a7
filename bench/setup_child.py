"""One fresh interpreter's set-up for a benchmark workload.

Usage: python3 setup_child.py SRC_DIR CONFIG_JSON KIND OUT_DIR N_PATHS SEED

It imports the package through its command-line entry module, validates the
workload's config, fills the replicate-grid plan cache and, for the
observed-data workload, writes the observed trajectories as CSV files. It
prints one JSON line with the time of each phase; the parent times the whole
process from spawn to that line.

The observed trajectories come from the benchmark's own sampler, not from
fracmle: fractional Gaussian noise by circulant embedding (Davies-Harte) and
the additive-noise step x_{k+1} = x_k - theta x_k dt + eps dB_k, which is
the linear1d model.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


def fbm_increments(n: int, hurst: float, dt: float, rng: np.random.Generator) -> np.ndarray:
    """n increments of fBm with spacing dt (exact in law for H <= 1/2)."""
    k = np.arange(n + 1, dtype=float)
    acov = 0.5 * ((k + 1) ** (2 * hurst) - 2 * k ** (2 * hurst) + np.abs(k - 1) ** (2 * hurst))
    circ = np.concatenate([acov, acov[-2:0:-1]])
    lam = np.fft.fft(circ).real
    if lam.min() < -1e-9 * lam.max():
        raise ValueError(f"circulant embedding not positive for H={hurst}")
    lam = np.clip(lam, 0.0, None)
    z = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    fgn = np.fft.fft(np.sqrt(lam / (2 * n)) * z).real[:n]
    return fgn * dt**hurst


def write_observations(doc: dict, out_dir: Path, n_paths: int, seed: int) -> list:
    theta = float(doc["model"]["theta0"][0])
    x = float(doc["model"]["x0"][0])
    eps = float(doc["epsilon"])
    hurst = float(doc["hurst"])
    T, n = float(doc["grid"]["T"]), int(doc["grid"]["n_coarse"])
    dt = T / n
    nodes = np.linspace(0.0, T, n + 1)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for i in range(n_paths):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
        db = (eps * fbm_increments(n, hurst, dt, rng)).tolist()
        states = [x]
        xk = x
        for k in range(n):
            xk = xk - theta * xk * dt + db[k]
            states.append(xk)
        fname = out_dir / f"path{i:03d}.csv"
        np.savetxt(fname, np.column_stack([nodes, states]), delimiter=",", fmt="%.17g",
                   header="t,X1", comments="")
        files.append(fname)
    return files


def main(argv) -> int:
    src, cfg_path, kind, out_dir, n_paths, seed = argv
    sys.path.insert(0, src)
    t0 = _T0
    import fracmle.cli  # noqa: F401  every command pays this import
    from fracmle import config, fraccalc

    t1 = time.perf_counter()
    doc = config.load_config(cfg_path)
    if kind == "mc":
        config.study_config_from(doc)
    grid, hurst = config.grid_from(doc), config.hurst_from(doc)
    t2 = time.perf_counter()
    for h in hurst:
        fraccalc.get_plan(h, grid.T, grid.n_coarse)
    t3 = time.perf_counter()
    if kind == "obs":
        write_observations(doc, Path(out_dir), int(n_paths), int(seed))
    t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1, "plan_s": t3 - t2, "inputs_s": t4 - t3}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
