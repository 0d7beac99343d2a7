"""Spans and counts recorded from outside fracmle, around its public functions.

Installing a Tracer replaces each target function, in every loaded fracmle
module that holds a reference to it, by a wrapper that records a span
(id, name, start, end, parent id). Spans stay in memory and are written out
once, when the run ends. Model callbacks are counted through a
``dataclasses.replace``d ModelSpec whose callbacks count themselves while a
path span is open.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager

# (module, function) pairs wrapped as spans named "module.function"
TARGETS = (
    ("fbm", "sample_fbm"),
    ("fbm", "lift"),
    ("rde", "solve_rde"),
    ("rde", "solve_ode"),
    ("fraccalc", "kh_inverse_transform"),
    ("fraccalc", "q_transform"),
    ("inference", "build_context"),
    ("inference", "likelihood_parts"),
    ("inference", "log_likelihood"),
    ("inference", "mle"),
    ("inference", "gamma_matrix"),
    ("mcstudy", "run_study"),
    ("mcstudy", "run_replicate"),
    ("mcstudy", "summarize_epsilon"),
)
PLAN_BUILD = "fraccalc.plan_build"


class Tracer:
    def __init__(self, path_span: str):
        self.path_span = path_span
        self.spans = []  # (id, name, start, end, parent id)
        self.callback_calls = 0
        self.plan_mb = []  # bytes of the arrays each built plan keeps, in MB
        self._stack = []
        self._next_id = 0
        self._open_paths = 0
        self._restore = []

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        is_path = name == self.path_span
        self._open_paths += is_path
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open_paths -= is_path
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        mods = [m for key, m in sys.modules.items() if key == "fracmle" or key.startswith("fracmle.")]
        for modname, attr in TARGETS:
            orig = getattr(sys.modules[f"fracmle.{modname}"], attr)
            traced = self.wrap(f"{modname}.{attr}", orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, orig))
        plan_cls = sys.modules["fracmle.fraccalc"].FracKernelPlan
        build = plan_cls.build

        def build_and_measure(hurst, grid):
            plan = build(hurst, grid)
            arrays = {id(a): a for a in (*plan.weights_left, *plan.weights_right, plan.kernel_matrix)
                      if a is not None}
            self.plan_mb.append(sum(a.nbytes for a in arrays.values()) / 2**20)
            return plan

        plan_cls.build = staticmethod(self.wrap(PLAN_BUILD, build_and_measure))
        self._restore.append((plan_cls, "build", staticmethod(build)))

    def uninstall(self) -> None:
        while self._restore:
            obj, key, val = self._restore.pop()
            setattr(obj, key, val)

    def counting_model(self, spec):
        """The same model with callbacks that count calls made inside path spans."""

        def count(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self._open_paths:
                    self.callback_calls += 1
                return fn(*args, **kwargs)

            return counted

        return dataclasses.replace(
            spec,
            drift=count(spec.drift),
            drift_dx=count(spec.drift_dx),
            drift_dtheta=tuple(count(f) for f in spec.drift_dtheta),
            diffusion=count(spec.diffusion),
            diffusion_dx=count(spec.diffusion_dx),
            diffusion_dxx=count(spec.diffusion_dxx),
        )

    # summaries

    def durations(self, name: str) -> list:
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def median_ms(self, name: str) -> float:
        d = self.durations(name)
        return statistics.median(d) * 1e3 if d else 0.0

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[1] == name)

    def serial_s(self) -> float:
        """Median over run_study spans of the time outside the replicate map."""
        out = []
        for sid, name, start, end, _ in self.spans:
            if name != "mcstudy.run_study":
                continue
            reps = [s for s in self.spans if s[1] == "mcstudy.run_replicate" and s[4] == sid]
            mapped = max(s[3] for s in reps) - min(s[2] for s in reps) if reps else 0.0
            out.append(end - start - mapped)
        return statistics.median(out) if out else 0.0

    def dump(self, fname) -> None:
        with open(fname, "w") as fh:
            json.dump(
                {"fields": ["id", "name", "start_s", "end_s", "parent"], "spans": sorted(self.spans)},
                fh,
            )
