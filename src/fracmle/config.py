"""JSON configuration documents for the command-line pipeline.

Configs are schema-validated before any computation runs; unknown keys
are rejected so a study config is a complete, reproducible artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema

from .errors import ConfigError
from .fbm import HURST_HIGH, HURST_LOW, HurstVector, TimeGrid
from .inference import OptimizerConfig
from .mcstudy import StudyConfig
from .model import ModelSpec, get_model

_HURST_ITEM = {
    "type": "number",
    "exclusiveMinimum": HURST_LOW,
    "exclusiveMaximum": HURST_HIGH,
}

_EPSILON = {"type": "number", "exclusiveMinimum": 0.0, "maximum": 1.0}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["model", "grid", "hurst"],
    "properties": {
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {"type": "string"},
                "theta0": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "x0": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "theta_domain": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                    "minItems": 1,
                },
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["T", "n_coarse"],
            "properties": {
                "T": {"type": "number", "exclusiveMinimum": 0.0},
                "n_coarse": {"type": "integer", "minimum": 2},
                "refine_level": {"type": "integer", "minimum": 0},
            },
        },
        "hurst": {
            "oneOf": [_HURST_ITEM, {"type": "array", "items": _HURST_ITEM, "minItems": 1}]
        },
        "epsilon": _EPSILON,
        "optimizer": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_starts": {"type": "integer", "minimum": 1},
                "grad_tol": {"type": "number", "exclusiveMinimum": 0.0},
                "max_iter": {"type": "integer", "minimum": 1},
                "boundary_tol": {"type": "number", "exclusiveMinimum": 0.0},
            },
        },
        "study": {
            "type": "object",
            "additionalProperties": False,
            "required": ["epsilons", "n_replicates"],
            "properties": {
                "epsilons": {"type": "array", "items": _EPSILON, "minItems": 1},
                "n_replicates": {"type": "integer", "minimum": 2},
                "gamma_refine": {"type": "integer", "minimum": 1},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"dir": {"type": "string"}},
        },
        "seed": {"type": "integer", "minimum": 0},
    },
}


def _cast_integers(doc: dict, schema: dict) -> None:
    """Cast each field the schema types as integer to int; the schema also admits 5.0."""
    for key, sub in schema.get("properties", {}).items():
        if key in doc and sub.get("type") == "integer":
            doc[key] = int(doc[key])
        elif key in doc and sub.get("type") == "object":
            _cast_integers(doc[key], sub)


def validate_config(doc: dict) -> dict:
    try:
        jsonschema.validate(doc, SCHEMA)
    except jsonschema.ValidationError as exc:
        path = ".".join(str(p) for p in exc.absolute_path) or "(top level)"
        raise ConfigError(f"config field {path}: {exc.message}") from None
    _cast_integers(doc, SCHEMA)
    return doc


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
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
