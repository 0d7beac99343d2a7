"""JSON configuration documents for the command-line pipeline.

Documents are checked against the field table FIELDS before any computation
runs: unknown keys, missing keys, wrong types, out-of-range values and
non-finite numbers (JSON's NaN and Infinity) are rejected, so a study config
is a complete, reproducible artifact, and integral floats in integer fields
are cast to int.
"""

from __future__ import annotations

import json
import math
import operator
from pathlib import Path

from .errors import ConfigError
from .fbm import HURST_HIGH, HURST_LOW, HurstVector, TimeGrid
from .inference import OptimizerConfig
from .mcstudy import StudyConfig
from .model import ModelSpec, get_model

_HURST = ("number", ">", HURST_LOW, "<", HURST_HIGH)
_EPSILON = ("number", ">", 0.0, "<=", 1.0)
_POSITIVE = ("number", ">", 0.0)
_NUMBERS = ("list", ("number",))

# Per section ("" is the top level): its required keys and a rule for each key it
# admits. A rule is (kind, *args): "string"; "number" or "integer" with (op, limit)
# bounds, each open (">", "<") or closed (">=", "<="); "list", non-empty, of an
# item rule; "pair", a box row [lo, hi]; "one or list" of a rule; "section" by name.
FIELDS = {
    "": (("model", "grid", "hurst"), {
        "model": ("section", "model"),
        "grid": ("section", "grid"),
        "hurst": ("one or list", _HURST),
        "epsilon": _EPSILON,
        "optimizer": ("section", "optimizer"),
        "study": ("section", "study"),
        "output": ("section", "output"),
        "seed": ("integer", ">=", 0),
    }),
    "model": (("name",), {
        "name": ("string",), "theta0": _NUMBERS, "x0": _NUMBERS,
        "theta_domain": ("list", ("pair",)),
    }),
    "grid": (("T", "n_coarse"), {
        "T": _POSITIVE, "n_coarse": ("integer", ">=", 2), "refine_level": ("integer", ">=", 0),
    }),
    "optimizer": ((), {
        "n_starts": ("integer", ">=", 1), "grad_tol": _POSITIVE,
        "max_iter": ("integer", ">=", 1), "boundary_tol": _POSITIVE,
    }),
    "study": (("epsilons", "n_replicates"), {
        "epsilons": ("list", _EPSILON), "n_replicates": ("integer", ">=", 2),
        "gamma_refine": ("integer", ">=", 1),
    }),
    "output": ((), {"dir": ("string",)}),
}

_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def _check(value, rule: tuple, path: tuple):
    """`value` checked against `rule`, with each integral float in an integer field
    cast to int; the first failure raises ConfigError naming the field's dotted path."""
    kind, *args = rule

    def fail(message):
        raise ConfigError(f"config field {'.'.join(path) or '(top level)'}: {message}")

    if kind == "one or list":
        return _check(value, ("list", *args) if isinstance(value, list) else args[0], path)
    if kind == "section":
        if not isinstance(value, dict):
            fail(f"expected an object, got {value!r}")
        required, rules = FIELDS[args[0]]
        for key in value:
            if key not in rules:
                fail(f"unknown key {key!r}")
        for key in required:
            if key not in value:
                fail(f"missing required key {key!r}")
        return {key: _check(v, rules[key], (*path, key)) for key, v in value.items()}
    if kind in ("list", "pair"):
        if not isinstance(value, list) or (len(value) != 2 if kind == "pair" else not value):
            what = "a [lo, hi] pair" if kind == "pair" else "a non-empty list"
            fail(f"expected {what}, got {value!r}")
        item = args[0] if kind == "list" else ("number",)
        return [_check(v, item, (*path, str(i))) for i, v in enumerate(value)]
    if kind == "string":
        if not isinstance(value, str):
            fail(f"expected a string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        fail(f"expected {'an integer' if kind == 'integer' else 'a number'}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        fail(f"expected a finite number, got {value!r}")
    if kind == "integer" and isinstance(value, float) and not value.is_integer():
        fail(f"expected an integer, got {value!r}")
    for op, limit in zip(args[::2], args[1::2]):
        if not _OPS[op](value, limit):
            fail(f"expected a value {op} {limit}, got {value!r}")
    return int(value) if kind == "integer" else value


def validate_config(doc: dict) -> dict:
    """The document checked against FIELDS, with integral floats in integer fields
    cast to int; a failure raises ConfigError naming the field."""
    return _check(doc, ("section", ""), ())


def load_config(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config {'path is not a file' if path.exists() else 'file not found'}: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from None
    return validate_config(doc)


def grid_from(doc: dict) -> TimeGrid:
    g = doc["grid"]
    return TimeGrid(g["T"], g["n_coarse"], g.get("refine_level", 0))


def hurst_from(doc: dict) -> HurstVector:
    h = doc["hurst"]
    return HurstVector(tuple(h) if isinstance(h, list) else (h,))


def model_from(doc: dict) -> ModelSpec:
    spec = get_model(doc["model"]["name"])
    override = doc["model"].get("theta_domain")
    if override is not None:
        if len(override) != spec.m:
            raise ConfigError(
                f"config field model.theta_domain: expected {spec.m} rows, got {len(override)}"
            )
        spec = spec.with_domain(override)
    return spec


def model_and_hurst(doc: dict) -> tuple:
    """The model and the Hurst vector, checked to have one index per driver component."""
    model, hv = model_from(doc), hurst_from(doc)
    if len(hv) != model.r:
        raise ConfigError(f"config field hurst: expected {model.r} components, got {len(hv)}")
    return model, hv


def optimizer_from(doc: dict) -> OptimizerConfig:
    return OptimizerConfig(**doc.get("optimizer", {}))


def require(doc: dict, section: str, key: str):
    sec = doc.get(section, {})
    if key not in sec:
        raise ConfigError(f"config field {section}.{key}: required for this command")
    return sec[key]


def resolve_seed(doc: dict, cli_seed) -> int:
    """Explicit non-negative seed from the flag or the config; hidden entropy is refused."""
    if cli_seed is not None:
        if cli_seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {cli_seed}")
        return int(cli_seed)
    if "seed" in doc:
        return doc["seed"]
    raise ConfigError("a seed is required (pass --seed or set the config's seed field)")


def study_config_from(doc: dict, cli_seed=None, output_dir=None) -> StudyConfig:
    _, hv = model_and_hurst(doc)
    theta0 = require(doc, "model", "theta0")
    x0 = require(doc, "model", "x0")
    study = doc.get("study")
    if study is None:
        raise ConfigError("config field study: required for this command")
    grid = grid_from(doc)
    out = output_dir or doc.get("output", {}).get("dir")
    return StudyConfig(
        model=doc["model"]["name"],
        theta0=theta0,
        x0=x0,
        hurst=hv.h,
        epsilons=study["epsilons"],
        n_replicates=study["n_replicates"],
        T=grid.T,
        n_coarse=grid.n_coarse,
        refine_level=grid.refine_level,
        optimizer=optimizer_from(doc),
        seed=resolve_seed(doc, cli_seed),
        output_dir=out,
        theta_domain=doc["model"].get("theta_domain"),
        gamma_refine=study.get("gamma_refine", 1),
    )
