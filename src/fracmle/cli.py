"""Command-line entry point: simulate | estimate | mc | gamma | selftest.

Exit codes are a stable contract: 0 success, 1 runtime failure,
2 validation failure. Stochastic commands require an explicit seed
(flag or config field); there is no hidden entropy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, config as cfgmod
from .errors import ConfigError, FracmleError
from .fbm import HurstVector, TimeGrid, chen_defect, dump_driver_csv, lift, sample_fbm
from .inference import build_context, gamma_matrix, mle, verify_transfer_identity
from .mcstudy import run_study
from .model import finite_difference_check, get_model, probe_assumptions
from .rde import dump_trajectory_csv, load_trajectory_csv, solve_rde

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


def _simulate_once(doc, seed):
    model, hv = cfgmod.model_and_hurst(doc)
    grid = cfgmod.grid_from(doc)
    theta0 = np.asarray(cfgmod.require(doc, "model", "theta0"), dtype=float)
    x0 = np.asarray(cfgmod.require(doc, "model", "x0"), dtype=float)
    if "epsilon" not in doc:
        raise ConfigError("config field epsilon: required for this command")
    path = sample_fbm(hv, grid, seed)
    rp = lift(path, grid)
    traj = solve_rde(model, theta0, doc["epsilon"], rp, x0)
    return model, hv, traj, rp


def cmd_simulate(args) -> int:
    doc = cfgmod.load_config(args.config)
    seed = cfgmod.resolve_seed(doc, args.seed)
    model, hv, traj, rp = _simulate_once(doc, seed)
    out = Path(args.output_dir or doc.get("output", {}).get("dir") or ".")
    out.mkdir(parents=True, exist_ok=True)
    traj_file = out / f"trajectory_{model.name}_seed{seed}.csv"
    driver_file = out / f"driver_{model.name}_seed{seed}.csv"
    files = {"trajectory": str(traj_file), "driver": str(driver_file)}
    dump_trajectory_csv(traj, traj_file)
    area_file = None
    if args.dump_areas:
        area_file = out / f"areas_{model.name}_seed{seed}.csv"
        files["areas"] = str(area_file)
    dump_driver_csv(rp, driver_file, area_file)
    print(json.dumps(files))
    return EXIT_OK


def cmd_estimate(args) -> int:
    doc = cfgmod.load_config(args.config)
    model, hv = cfgmod.model_and_hurst(doc)
    grid = cfgmod.grid_from(doc)
    theta0 = doc.get("model", {}).get("theta0")
    if args.trajectory is not None:
        if not Path(args.trajectory).exists():
            raise ConfigError(f"trajectory file not found: {args.trajectory}")
        if "epsilon" not in doc:
            raise ConfigError("config field epsilon: required for this command")
        traj = load_trajectory_csv(args.trajectory, grid, doc["epsilon"])
        theta0 = None  # unknown truth for observed data
    else:
        seed = cfgmod.resolve_seed(doc, args.seed)
        _, _, traj, _ = _simulate_once(doc, seed)
    ctx = build_context(traj, model, hv)
    record = mle(ctx, cfgmod.optimizer_from(doc), theta0=theta0)
    print(json.dumps(record.to_json_dict(), sort_keys=True))
    return EXIT_OK


def cmd_mc(args) -> int:
    doc = cfgmod.load_config(args.config)
    cfg = cfgmod.study_config_from(doc, cli_seed=args.seed, output_dir=args.output_dir)
    summary = run_study(cfg)
    doc_out = {
        "valid": summary.valid,
        "gamma": summary.gamma.matrix.tolist(),
        "gamma_inv": summary.gamma_inv.tolist(),
        "per_epsilon": [
            {
                "epsilon": s.epsilon,
                "n_ok": s.n_ok,
                "n_failed": s.n_failed,
                "mean_u": np.atleast_1d(s.mean_u).tolist(),
                "cov_rel_error": s.cov_rel_error,
                "skewness": np.atleast_1d(s.skewness).tolist(),
                "excess_kurtosis": np.atleast_1d(s.excess_kurtosis).tolist(),
                "mean_sup_dist": s.mean_sup_dist,
            }
            for s in summary.per_eps
        ],
        "output_dir": cfg.output_dir,
    }
    print(json.dumps(doc_out, sort_keys=True))
    return EXIT_OK if summary.valid else EXIT_RUNTIME


def cmd_gamma(args) -> int:
    doc = cfgmod.load_config(args.config)
    model, hv = cfgmod.model_and_hurst(doc)
    grid = cfgmod.grid_from(doc)
    theta0 = cfgmod.require(doc, "model", "theta0")
    x0 = cfgmod.require(doc, "model", "x0")
    refine = doc.get("study", {}).get("gamma_refine", 1)
    gm = gamma_matrix(model, theta0, hv, grid, x0, refine=refine)
    out = {
        "gamma": gm.matrix.tolist(),
        "min_eigenvalue": gm.min_eigenvalue,
        "a5_ok": gm.a5_ok,
        "gamma_inv": np.linalg.inv(gm.matrix).tolist() if gm.a5_ok else None,
    }
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_selftest(args) -> int:
    """Fast invariant battery over fixed seeds; nonzero exit on any failure."""
    checks = []

    def check(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, do not crash the battery
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        checks.append(ok)
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")

    def chen():
        grid = TimeGrid(1.0, 8, 5)
        hv = HurstVector((0.4, 0.45))
        worst = 0.0
        for s in range(10):
            rp = lift(sample_fbm(hv, grid, (11, s)), grid)
            worst = max(worst, float(np.max(np.abs(chen_defect(rp, 0.0, 0.5, 1.0)))))
        return worst <= 1e-10, f"max defect {worst:.2e}"

    def rl_rules():
        from scipy.special import gamma as G

        from .fraccalc import FracKernelPlan, rl_integral_left

        plan = FracKernelPlan.build(0.4, TimeGrid(1.0, 1024, 0))
        nodes = plan.grid.coarse_nodes()
        err = abs(rl_integral_left(plan, np.ones(1025))[-1] - 1.0 / G(1.1))
        err = max(err, abs(rl_integral_left(plan, nodes)[-1] - G(2.0) / G(2.1)))
        return err <= 1e-8, f"max closed-form error {err:.2e}"

    def wiener():
        from .fraccalc import get_plan, kh_inverse_transform

        grid = TimeGrid(1.0, 256, 0)
        hv = HurstVector((0.4,))
        plan = get_plan(0.4, 1.0, 256)
        paths = np.stack([sample_fbm(hv, grid, (5150, s))[:, 0] for s in range(400)])
        var = float(np.var(kh_inverse_transform(plan, paths)[:, -1], ddof=1))
        return abs(var - 1.0) <= 0.15, f"Var(W_1) = {var:.3f}"

    def derivative_probe():
        worst = 0.0
        for name in ("linear1d", "cross2d", "const1d"):
            dx, dth = finite_difference_check(get_model(name), n_probes=20, seed=3)
            worst = max(worst, dx, dth)
        return worst <= 1e-4, f"max FD mismatch {worst:.2e}"

    def assumptions():
        model = get_model("linear1d")
        rep = probe_assumptions(model, seed=1)
        return all(rep.pass_flags.values()), f"{model.name} flags {rep.pass_flags}"

    def transfer():
        grid = TimeGrid(1.0, 512, 0)
        hv = HurstVector((0.4,))
        model = get_model("linear1d")
        rp = lift(sample_fbm(hv, grid, 77), grid)
        traj = solve_rde(model, [1.0], 0.1, rp, [1.0])
        res = verify_transfer_identity(traj, model, rp)
        return res <= 0.02, f"residual {res:.2e}"

    check("chen relation on sampled lifts", chen)
    check("fractional power rules", rl_rules)
    check("wiener contract of the kernel transform", wiener)
    check("model derivative callbacks vs finite differences", derivative_probe)
    check("assumption probe", assumptions)
    check("transfer identity residual", transfer)
    return EXIT_OK if all(checks) else EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracmle",
        description="Simulate and estimate small-noise SDEs driven by rough fBm.",
    )
    parser.add_argument("--version", action="version", version=f"fracmle {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_sim = sub.add_parser("simulate", help="simulate one trajectory and dump CSVs")
    add_common(p_sim)
    p_sim.add_argument("--output-dir", default=None)
    p_sim.add_argument("--dump-areas", action="store_true", help="also dump per-step areas")
    p_sim.set_defaults(fn=cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate the drift parameter")
    add_common(p_est)
    p_est.add_argument("--trajectory", default=None, help="trajectory CSV (skips simulation)")
    p_est.set_defaults(fn=cmd_estimate)

    p_mc = sub.add_parser("mc", help="run a Monte Carlo study")
    add_common(p_mc)
    p_mc.add_argument("--output-dir", default=None)
    p_mc.set_defaults(fn=cmd_mc)

    p_gamma = sub.add_parser("gamma", help="asymptotic information matrix")
    add_common(p_gamma)
    p_gamma.set_defaults(fn=cmd_gamma)

    p_self = sub.add_parser("selftest", help="run the built-in invariant battery")
    p_self.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FracmleError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
