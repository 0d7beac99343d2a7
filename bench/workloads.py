"""Workload definitions of the pipeline benchmark.

Each workload is a fracmle config document plus the benchmark's own sizing:
how many fresh interpreters a run times for setup_s (setup_repeats) and how
many cold `fracmle gamma` calls it times for gamma_s (gamma_repeats); each
metric is the median of its samples. The config documents follow the
package's schema, so the program validates them exactly as it validates a
user's file.

The MC workloads time their studies at n_jobs=1, because timed studies on a
process pool were not steady on a 2-core machine (README.md gives the
figures). The pool still runs on every MC workload, untimed, in the
layout-determinism check.
"""

from __future__ import annotations

EPSILONS = [0.1, 0.05, 0.03]
# replicates per epsilon of the untimed pooled study in the determinism check
POOL_CHECK_REPLICATES = 8

WORKLOADS = {
    # The shape of configs/study_linear1d.json: the project's main use, half
    # solve_rde's step loop and half mle, plus a serial Gamma at 2048 nodes.
    "mc_linear1d": {
        "kind": "mc",
        "setup_repeats": 3,
        "gamma_repeats": 7,
        "doc": {
            "model": {"name": "linear1d", "theta0": [1.0], "x0": [1.0]},
            "grid": {"T": 1.0, "n_coarse": 512, "refine_level": 0},
            "hurst": 0.4,
            "study": {"epsilons": EPSILONS, "n_replicates": 40, "gamma_refine": 4},
        },
    },
    # The single-process baseline: a 4096-step fine driver with off-diagonal
    # Levy areas, two parameters, four Q columns per likelihood; plans are small.
    "mc_cross2d": {
        "kind": "mc",
        "setup_repeats": 3,
        "gamma_repeats": 7,
        "doc": {
            "model": {"name": "cross2d", "theta0": [1.0, 2.0], "x0": [1.0, 1.0]},
            "grid": {"T": 1.0, "n_coarse": 256, "refine_level": 4},
            "hurst": [0.4, 0.45],
            "study": {"epsilons": EPSILONS, "n_replicates": 30, "gamma_refine": 4},
        },
    },
    # Observed-data use: one long grid and a warm dense Hurst kernel serve many
    # paths; fbm and rde are bypassed because the benchmark makes the paths.
    # gamma_refine stays 1: refine 4 would need a dense kernel above 2 GB.
    "estimate_obs": {
        "kind": "obs",
        "n_paths": 24,
        "setup_repeats": 3,
        "gamma_repeats": 3,
        "doc": {
            "model": {"name": "linear1d", "theta0": [1.0], "x0": [1.0]},
            "grid": {"T": 1.0, "n_coarse": 4096, "refine_level": 0},
            "hurst": 0.4,
            "epsilon": 0.05,
        },
    },
}


def study_seed(seed: int, unit: int) -> int:
    """Seed of the unit-th study of a run; distinct studies, distinct streams."""
    return seed * 1000 + unit
