"""Benchmark of fracmle's simulate -> estimate -> Gamma pipeline.

Usage (from the repository root):

    python3 bench/run.py --workload mc_linear1d --seed 1 --seconds 10 --trace 0

The workloads are defined in workloads.py and described in README.md. A run
takes three kinds of timed samples: set-up in fresh interpreters, cold
`fracmle gamma` calls, and units of the timed window (whole studies on the
MC workloads, whole rounds over the observed trajectories on estimate_obs)
until the window holds --seconds of work. The window units are spread
between the other samples, so that every metric samples the whole run and
not one stretch of a noisy machine. Then the outputs are checked. With
--trace 1 the run also repeats its first unit with spans recorded around the
package's public functions and reports the per-layer metrics instead of the
end-to-end ones. The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread per process: a fixed setting keeps runs comparable on a
# shared machine, and the determinism check's pool occupies every core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(HERE))
from workloads import POOL_CHECK_REPLICATES, WORKLOADS, study_seed  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def setup_once(cfg_path: Path, wl: dict, work: Path, seed: int):
    """Wall time from spawning a fresh interpreter to its set-up being done,
    with the phase times the child reports."""
    cmd = [sys.executable, str(HERE / "setup_child.py"), str(SRC), str(cfg_path), wl["kind"],
           str(work / "obs"), str(wl.get("n_paths", 0)), str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up child exited with {proc.returncode}")
    return ready - start, json.loads(line)


def cli_gamma(cfg_path: Path):
    """One `fracmle gamma` call in process, from an empty plan cache."""
    import numpy as np
    from fracmle import cli, fraccalc

    fraccalc.get_plan.cache_clear()
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["gamma", "--config", str(cfg_path)])
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"fracmle gamma exited with {code}")
    return elapsed, np.array(json.loads(buf.getvalue())["gamma"])


class McBench:
    """Monte Carlo studies through run_study, one study per window unit."""

    path_span = "mcstudy.run_replicate"

    def __init__(self, args, doc: dict, work: Path):
        from fracmle import config

        self.args, self.work = args, work
        self.base = dataclasses.replace(config.study_config_from(doc), n_jobs=1)
        self.paths = len(self.base.epsilons) * self.base.n_replicates
        self.units = []  # (config, summary, elapsed, records)

    def _study(self, unit: int, tracer=None):
        """One run_study as `fracmle mc` runs it once set-up has filled the
        replicate-grid plan; the Gamma-grid plan is always built inside."""
        from fracmle import fraccalc, mcstudy

        cfg = dataclasses.replace(self.base, seed=study_seed(self.args.seed, unit),
                                  output_dir=str(self.work / f"study{unit}"))
        fraccalc.get_plan.cache_clear()
        for h in cfg.hurst:
            fraccalc.get_plan(h, cfg.T, cfg.n_coarse)
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            summary = mcstudy.run_study(cfg)
            elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        with open(Path(cfg.output_dir) / "records.jsonl") as fh:
            records = [json.loads(line) for line in fh]
        return cfg, summary, elapsed, records

    def unit(self) -> float:
        self.units.append(self._study(len(self.units)))
        return self.units[-1][2]

    def counts(self):
        return self.paths * len(self.units), sum(r["failed"] for u in self.units for r in u[3])

    def traced(self, tracer) -> dict:
        """Study 0 again with spans and callback counts."""
        from fracmle import model as modelmod

        spec = modelmod.get_model(self.base.model)
        modelmod.register(tracer.counting_model(spec), overwrite=True)
        try:
            _, _, elapsed, records = self._study(0, tracer)
        finally:
            modelmod.register(spec, overwrite=True)
        return {"paths": self.paths, "elapsed": elapsed, "untraced_elapsed": self.units[0][2],
                "iterations": statistics.fmean(r["iterations"] for r in records if not r["failed"])}

    def check(self, checks, gamma_cli) -> None:
        import numpy as np
        from checks import (cov_matches, gamma_converges, gamma_matches_reference, gamma_same,
                            gamma_spd, linear1d_gamma_reference, mean_near_zero, record_doc,
                            records_match, sup_dist_linear)
        from fracmle import inference, mcstudy

        base, units = self.base, self.units
        cfg0, summary0, _, records0 = units[0]
        gamma = summary0.gamma.matrix
        checks.run("study Gamma equals `fracmle gamma`", gamma_same, (gamma, gamma_cli, "Gammas"),
                   (gamma, gamma_cli * (1 + 1e-9), "Gammas"))
        checks.run("Gamma symmetric positive definite", gamma_spd, (gamma,), (-gamma,))
        spec, hv, grid = cfg0.model_spec(), cfg0.hurst_vector(), cfg0.grid()
        coarse = [inference.gamma_matrix(spec, cfg0.theta0, hv, grid, cfg0.x0, refine=base.gamma_refine // k).matrix
                  for k in (4, 2)]
        checks.run("Gamma converges with gamma_refine", gamma_converges, (*coarse, gamma), (*coarse, gamma * 1.01))
        if base.model == "linear1d":
            ref = linear1d_gamma_reference(base.hurst[0], base.theta0[0], base.T, base.x0[0])
            checks.run("Gamma vs quadrature reference", gamma_matches_reference, (gamma, ref), (gamma * 1.01, ref))
        sd = np.sqrt(np.diag(np.linalg.inv(gamma)))
        for eps in base.epsilons:
            u = np.array([r["u"] for unit in units for r in unit[3] if r["epsilon"] == eps and not r["failed"]])
            checks.run(f"cov(u) vs Gamma^-1 at eps={eps}", cov_matches, (u, gamma), (2.0 * u, gamma))
            checks.run(f"mean(u) near 0 at eps={eps}", mean_near_zero, (u, gamma), (u + 2.0 * sd, gamma))
        sups = [statistics.fmean(unit[1].per_eps[j].mean_sup_dist for unit in units)
                for j in range(len(base.epsilons))]
        checks.run("mean_sup_dist / eps constant", sup_dist_linear, (list(base.epsilons), sups),
                   (list(base.epsilons), [1.5 * sups[0]] + sups[1:]))

        # layout determinism: the first replicates of study 0 again on a
        # process pool, and a sample of them in this process through run_replicate
        pool_cfg = dataclasses.replace(cfg0, n_replicates=POOL_CHECK_REPLICATES,
                                       n_jobs=max(2, os.cpu_count() or 1), output_dir=str(self.work / "pooled"))
        mcstudy.run_study(pool_cfg)
        with open(self.work / "pooled" / "records.jsonl") as fh:
            pooled = [json.loads(line) for line in fh]
        inline = [r for r in records0 if r["replicate_id"] < POOL_CHECK_REPLICATES]
        shifted = [dict(pooled[0], theta_hat=[t + 1e-3 for t in pooled[0]["theta_hat"]])] + pooled[1:]
        checks.run("pooled records equal n_jobs=1 records", records_match, (pooled, inline), (shifted, inline))
        rng = np.random.default_rng(self.args.seed)
        sample = [pooled[i] for i in sorted(rng.choice(len(pooled), size=3, replace=False).tolist())]
        inproc = [record_doc(mcstudy.run_replicate(cfg0, r["epsilon"], r["replicate_id"])) for r in sample]
        shifted = [dict(sample[0], theta_hat=[t + 1e-3 for t in sample[0]["theta_hat"]])] + sample[1:]
        checks.run("pooled records equal in-process run_replicate", records_match, (sample, inproc), (shifted, inproc))


class ObsBench:
    """`fracmle estimate --trajectory` on every observed path, in process;
    one round over all paths per window unit."""

    path_span = "bench.path"

    def __init__(self, args, doc: dict, work: Path):
        from fracmle import config

        self.doc, self.cfg_path = doc, work / "config.json"
        self.grid, self.hurst, self.spec = config.grid_from(doc), config.hurst_from(doc), config.model_from(doc)
        self.opt, self.eps = config.optimizer_from(doc), float(doc["epsilon"])
        self.obs_dir = work / "obs"
        self.rounds, self.times = [], []

    @property
    def files(self) -> list:
        return sorted(self.obs_dir.glob("*.csv"))

    def _round(self, model, span=lambda name: contextlib.nullcontext()):
        from fracmle import inference, rde
        from fracmle.errors import FracmleError

        records = []
        for fname in self.files:
            with span("bench.path"):
                try:
                    traj = rde.load_trajectory_csv(fname, self.grid, self.eps)
                    ctx = inference.build_context(traj, model, self.hurst)
                    records.append(inference.mle(ctx, self.opt))
                except FracmleError as exc:
                    log(f"{fname.name}: {type(exc).__name__}: {exc}")
                    records.append(None)
        return records

    def unit(self) -> float:
        start = time.perf_counter()
        self.rounds.append(self._round(self.spec))
        self.times.append(time.perf_counter() - start)
        return self.times[-1]

    def counts(self):
        return sum(len(r) for r in self.rounds), sum(rec is None for rnd in self.rounds for rec in rnd)

    def traced(self, tracer) -> dict:
        """A cold `fracmle gamma` and one round, with spans and callback counts."""
        tracer.install()
        try:
            cli_gamma(self.cfg_path)
            start = time.perf_counter()
            records = self._round(tracer.counting_model(self.spec), tracer.span)
            elapsed = time.perf_counter() - start
        finally:
            tracer.uninstall()
        return {"paths": len(records), "elapsed": elapsed, "untraced_elapsed": statistics.median(self.times),
                "iterations": statistics.fmean(r.iterations for r in records if r is not None)}

    def check(self, checks, gamma_cli) -> None:
        from checks import (bounded_argmax, gamma_matches_reference, linear1d_gamma_reference,
                            rounds_identical, thetas_match)
        from fracmle import inference, rde

        model = self.doc["model"]
        ref = linear1d_gamma_reference(float(self.doc["hurst"]), model["theta0"][0], self.grid.T, model["x0"][0])
        checks.run("Gamma vs quadrature reference", gamma_matches_reference, (gamma_cli, ref), (gamma_cli * 1.01, ref))
        thetas = [[rec.theta_hat[0] if rec else float("nan") for rec in rnd] for rnd in self.rounds]
        lo, hi = self.spec.theta_domain[0]
        refs = []
        for fname in self.files:
            ctx = inference.build_context(rde.load_trajectory_csv(fname, self.grid, self.eps), self.spec, self.hurst)
            refs.append(bounded_argmax(lambda th: inference.log_likelihood(ctx, [th]), lo, hi))
        checks.run("theta_hat vs bounded scalar argmax of log_likelihood", thetas_match, (thetas[0], refs),
                   ([t + 1e-3 for t in thetas[0]], refs))
        checks.run("every round gives the same estimates", rounds_identical, (thetas,),
                   (thetas + [[thetas[0][0] + 1e-12] + thetas[0][1:]],))


def per_layer_metrics(tr, traced: dict, setups: list) -> dict:
    paths = traced["paths"]
    traced_rate = paths / traced["elapsed"]
    untraced_rate = paths / traced["untraced_elapsed"]
    spans = ("fbm.sample_fbm", "fbm.lift", "rde.solve_rde", "rde.solve_ode", "fraccalc.plan_build",
             "fraccalc.kh_inverse_transform", "inference.build_context", "fraccalc.q_transform",
             "inference.likelihood_parts", "inference.mle", "inference.gamma_matrix", "mcstudy.run_replicate",
             "mcstudy.summarize_epsilon")
    out = {
        "fracmle.import_s": (statistics.median(p["import_s"] for _, p in setups), "s"),
        "config.load_config.ms": (statistics.median(p["config_s"] for _, p in setups) * 1e3, "ms"),
    }
    out.update({f"{name}.ms": (tr.median_ms(name), "ms") for name in spans})
    out.update({
        "model.callback_calls": (tr.callback_calls / paths, "1/path"),
        "fraccalc.plan_mb": (statistics.median(tr.plan_mb) if tr.plan_mb else 0.0, "MB_computed"),
        "fraccalc.q_transform.calls": (tr.calls("fraccalc.q_transform"), "count"),
        "inference.likelihood_parts.calls": (tr.calls("inference.likelihood_parts"), "count"),
        "inference.log_likelihood.calls": (tr.calls("inference.log_likelihood"), "count"),
        "inference.newton_iterations": (traced["iterations"], "1/path"),
        "mcstudy.serial_s": (tr.serial_s(), "s"),
        "trace.paths": (paths, "count"),
        "trace.paths_per_s": (traced_rate, "1/s"),
        "trace.untraced_paths_per_s": (untraced_rate, "1/s"),
        "trace.overhead_pct": ((untraced_rate / traced_rate - 1.0) * 100.0, "%"),
    })
    return out


def peak_rss_mb() -> float:
    """Largest resident set of this process and of every waited-for child
    (set-up interpreters and pool workers); ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run(args, work: Path) -> dict:
    from checks import CheckLog
    from tracing import Tracer

    wl = WORKLOADS[args.workload]
    doc = dict(wl["doc"], seed=study_seed(args.seed, 0))
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(doc))
    bench = (McBench if wl["kind"] == "mc" else ObsBench)(args, doc, work)

    # Set-up and gamma samples alternate, set-up first (it writes the observed
    # trajectories); window units follow each sample once the first gamma call
    # has left a warm plan, keeping the window's share of the run even.
    order = []
    for i in range(max(wl["setup_repeats"], wl["gamma_repeats"])):
        order += ["setup"] * (i < wl["setup_repeats"]) + ["gamma"] * (i < wl["gamma_repeats"])
    setups, gammas, times = [], [], []
    for i, kind in enumerate(order):
        if kind == "setup":
            setups.append(setup_once(cfg_path, wl, work, args.seed))
        else:
            gammas.append(cli_gamma(cfg_path))
        while gammas and sum(times) < args.seconds * (i + 1) / len(order):
            times.append(bench.unit())
    while sum(times) < args.seconds:
        times.append(bench.unit())
    attempted, failed = bench.counts()

    traced = None
    if args.trace:
        tracer = Tracer(bench.path_span)
        traced = bench.traced(tracer)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    checks = CheckLog()
    bench.check(checks, gammas[0][1])
    for line in checks.lines():
        log(line)
    rates = [attempted / len(times) / t for t in times]
    log(f"samples: setup_s {[round(w, 3) for w, _ in setups]}, gamma_s {[round(t, 3) for t, _ in gammas]}, "
        f"paths_per_s {[round(r, 2) for r in rates]}")

    if traced is not None:
        metrics = per_layer_metrics(tracer, traced, setups)
    else:
        metrics = {
            "setup_s": (statistics.median(wall for wall, _ in setups), "s"),
            "paths_per_s": (statistics.median(rates), "1/s"),
            "gamma_s": (statistics.median(t for t, _ in gammas), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    return {
        "correct": checks.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fracmle" / "__init__.py").is_file():
        log(f"error: no fracmle sources at {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    import fracmle.cli  # warms the file cache and the bytecode cache before set-up is timed

    if Path(fracmle.__file__).resolve().parent != (SRC / "fracmle").resolve():
        log(f"error: fracmle imported from {fracmle.__file__}, not from {SRC}")
        return 2
    work = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
