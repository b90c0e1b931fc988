"""Run configuration: parsing, validation, and runtime assembly.

A run config is a YAML or JSON file describing the algorithm
hyperparameters, the model, and the data: each domain/task entry either
points at a line-delimited dataset file or gives a synthetic spec
(a Markov language, an interpolation of other languages, or a component
of a quadratic task family).  Unknown keys and constraint violations
raise ConfigError naming the offending key, so a typo'd experiment file
fails loudly instead of silently using a default.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .data import (
    Dataset,
    MarkovLanguageSpec,
    MixtureStore,
    generate_markov_corpus,
    ingest_dataset,
    stream_rng,
)
from .errors import ConfigError, DimensionError
from .models import CharLMModel, DifferentiableModel, QuadraticTaskFamily, SoftmaxModel
from .reweighting import CHOICES, ReweightConfig
from .simplex import SimplexWeights

# The two nested sections of the file; every other ReweightConfig field
# is a top-level key of the same name.
_SECTIONS = {
    "lr": {"schedule": "lr_schedule", "base": "base_lr"},
    "optimizer": {"kind": "optimizer", "beta1": "adam_beta1", "beta2": "adam_beta2",
                  "eps": "adam_eps", "weight_decay": "weight_decay"},
}
_FIELD_TYPES = typing.get_type_hints(ReweightConfig)
_RUN_KEYS = {"seed", "out_dir", "model", "domains", "tasks", "init_alpha", "init_z", "init_params"}
_NESTED_FIELDS = {name for names in _SECTIONS.values() for name in names.values()}
_TOP_KEYS = (_FIELD_TYPES.keys() - _NESTED_FIELDS) | _SECTIONS.keys() | _RUN_KEYS
_MODEL_KEYS = {"kind", "vocab_size", "n_features", "n_classes", "dim", "curvatures", "centers"}
# Numeric entry keys: (integral, least allowed value).
_ENTRY_NUMBERS = {"length": (True, 2), "seq_len": (True, 1), "size": (True, 1), "task_index": (True, 0),
                  "noise": (False, 0.0)}
_ENTRY_KEYS = {"label", "path", "markov", "markov_mix", "mix"} | _ENTRY_NUMBERS.keys()
_MARKOV_KEYS = {"vocab_size", "transition"}
_MIX_KEYS = {"of", "coeffs"}


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _check_keys(mapping: dict, allowed: set[str], where: str):
    _require(isinstance(mapping, dict), f"{where} must be a mapping")
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _number(value, where: str, integral: bool = False, minimum: float | None = None):
    """A numeric config value as int or float, or ConfigError naming ``where``.

    Bools, NaN, infinities and, for integers, non-integral numbers are
    rejected.  Strings are read as numbers, because YAML reads ``1e6`` as
    a string.
    """
    try:
        number = float(value) if isinstance(value, str) else value
        ok = isinstance(number, (int, float)) and not isinstance(number, bool) and math.isfinite(number)
    except (ValueError, OverflowError):  # not numeric text; an int too large for a float
        ok = False
    _require(ok and (not integral or float(number).is_integer()),
             f"field {where} must be {'an integer' if integral else 'a finite number'}, got {value!r}")
    number = int(number) if integral else float(number)
    _require(minimum is None or number >= minimum, f"field {where} must be >= {minimum}, got {value!r}")
    return number


def _field_value(name: str, value, where: str):
    """``value`` as the type of ReweightConfig field ``name``."""
    kind, *optional = typing.get_args(_FIELD_TYPES[name]) or (_FIELD_TYPES[name],)
    if value is None and optional:
        return None
    if kind is str:
        _require(value in CHOICES[name], f"field {where} must be one of {CHOICES[name]}")
        return value
    return _number(value, where, integral=kind is int)


def _path(value, where: str, base_dir) -> str | None:
    """The file ``value`` names, resolved against ``base_dir`` and required to exist."""
    if value is None:
        return None
    _require(isinstance(value, str), f"field {where} must be a file path")
    resolved = Path(base_dir) / value
    _require(resolved.exists(), f"field {where}: file {resolved} does not exist")
    return str(resolved)


@dataclass
class RunConfig:
    """Everything needed to reproduce one run: hyperparameters plus data/model specs."""

    reweight: ReweightConfig
    model_spec: dict
    domain_specs: list[dict]
    task_specs: list[dict]
    seed: int = 0
    out_dir: str | None = None
    init_alpha_path: str | None = None
    init_z_path: str | None = None
    init_params: list[float] | None = None


def load_config_file(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    text = path.read_text(encoding="utf-8")
    try:
        if path.suffix == ".json":
            raw = json.loads(text)
        else:
            raw = yaml.safe_load(text)
    except (json.JSONDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parse_config(raw, base_dir=path.parent)


def parse_config(raw: dict, base_dir: str | Path = ".") -> RunConfig:
    """Validate a raw mapping into a RunConfig; absent keys take the
    ReweightConfig and RunConfig defaults."""
    _check_keys(raw, _TOP_KEYS, "config")

    values = {key: _field_value(key, value, key)
              for key, value in raw.items() if key in _FIELD_TYPES and key not in _NESTED_FIELDS}
    for section, names in _SECTIONS.items():
        nested = raw.get(section, {})
        _check_keys(nested, names.keys(), section)
        for key, value in nested.items():
            values[names[key]] = _field_value(names[key], value, f"{section}.{key}")
    if values.get("optimizer") == "adamw":
        values.setdefault("weight_decay", 0.01)  # AdamW's decay default in files only
    try:
        reweight = ReweightConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid field value: {exc}") from exc

    model_spec = raw.get("model", {})
    _check_keys(model_spec, _MODEL_KEYS, "model")
    kind = model_spec.get("kind")
    _require(kind in ("quadratic", "softmax", "char_lm"), "field model.kind must be quadratic, softmax or char_lm")

    domain_specs = _parse_entries(raw.get("domains"), "domains", base_dir)
    task_specs = _parse_entries(raw.get("tasks"), "tasks", base_dir)
    labels = [spec["label"] for spec in domain_specs + task_specs]
    _require(len(set(labels)) == len(labels), "field domains/tasks: labels must be unique")

    out_dir, init_params = raw.get("out_dir"), raw.get("init_params")
    _require(out_dir is None or isinstance(out_dir, str), "field out_dir must be a directory path")
    if init_params is not None:
        _require(isinstance(init_params, list), "field init_params must be a list of numbers")
        init_params = [_number(value, f"init_params[{i}]") for i, value in enumerate(init_params)]

    return RunConfig(
        reweight=reweight,
        model_spec=dict(model_spec),
        domain_specs=domain_specs,
        task_specs=task_specs,
        seed=_number(raw.get("seed", RunConfig.seed), "seed", integral=True),
        out_dir=out_dir,
        init_alpha_path=_path(raw.get("init_alpha"), "init_alpha", base_dir),
        init_z_path=_path(raw.get("init_z"), "init_z", base_dir),
        init_params=init_params,
    )


def _parse_entries(entries, where: str, base_dir) -> list[dict]:
    _require(isinstance(entries, list) and entries, f"field {where} must be a nonempty list")
    parsed = []
    for i, entry in enumerate(entries):
        spot = f"{where}[{i}]"
        _check_keys(entry, _ENTRY_KEYS, spot)
        _require(isinstance(entry.get("label"), str), f"field {spot}.label is required and must be a string")
        sources = [key for key in ("path", "markov", "markov_mix", "mix", "task_index") if key in entry]
        _require(len(sources) == 1, f"field {spot}: need exactly one of path/markov/markov_mix/mix/task_index")
        entry = dict(entry)
        if "path" in entry:
            entry["path"] = _path(entry["path"], f"{spot}.path", base_dir)
        if "markov" in entry:
            markov = entry["markov"]
            _check_keys(markov, _MARKOV_KEYS, f"{spot}.markov")
            for key in sorted(_MARKOV_KEYS):
                _require(key in markov, f"field {spot}.markov.{key} is required")
        if "markov_mix" in entry:
            mix = entry["markov_mix"]
            _check_keys(mix, _MIX_KEYS, f"{spot}.markov_mix")
            for key in sorted(_MIX_KEYS):
                _require(isinstance(mix.get(key), list), f"field {spot}.markov_mix.{key} must be a list")
        for key, (integral, least) in _ENTRY_NUMBERS.items():
            if key in entry:
                entry[key] = _number(entry[key], f"{spot}.{key}", integral=integral, minimum=least)
        parsed.append(entry)
    return parsed


# ---------------------------------------------------------------------------
# Runtime assembly
# ---------------------------------------------------------------------------


def build_model(cfg: RunConfig) -> DifferentiableModel:
    """The configured model; ``init_params``, if given, must fit its parameter vector."""
    spec = cfg.model_spec
    kind = spec["kind"]
    try:
        if kind == "char_lm":
            _require("vocab_size" in spec, "field model.vocab_size is required for char_lm")
            model = CharLMModel(int(spec["vocab_size"]))
        elif kind == "softmax":
            _require("n_features" in spec and "n_classes" in spec,
                     "fields model.n_features and model.n_classes are required for softmax")
            model = SoftmaxModel(int(spec["n_features"]), int(spec["n_classes"]))
        else:
            _require("curvatures" in spec and "centers" in spec,
                     "fields model.curvatures and model.centers are required for quadratic")
            model = QuadraticTaskFamily(np.asarray(spec["curvatures"], dtype=np.float64),
                                        np.asarray(spec["centers"], dtype=np.float64)).model()
    except (TypeError, ValueError, DimensionError) as exc:  # a model value of the wrong type, range or shape
        raise ConfigError(f"field model: {exc}") from exc
    _require(cfg.init_params is None or len(cfg.init_params) == model.param_dim,
             f"field init_params must have length {model.param_dim}, got {cfg.init_params!r}")
    return model


def build_store(cfg: RunConfig, model: DifferentiableModel) -> MixtureStore:
    """Materialize every domain/task dataset (files or synthetic draws).

    Synthetic corpora use per-label RNG streams derived from the run
    seed, so the data layer is reproducible and independent of entry
    order elsewhere in the config.
    """
    markov_specs: dict[str, MarkovLanguageSpec] = {}

    def build_one(entry: dict) -> Dataset:
        label = entry["label"]
        if "path" in entry:
            return ingest_dataset(entry["path"])
        if "markov" in entry or "markov_mix" in entry:
            if "markov" in entry:
                m = entry["markov"]
                spec = MarkovLanguageSpec(int(m["vocab_size"]), np.asarray(m["transition"], dtype=np.float64))
            else:
                mix = entry["markov_mix"]
                missing = [name for name in mix["of"] if name not in markov_specs]
                _require(not missing, f"markov_mix for {label!r} references unknown languages {missing}")
                spec = MarkovLanguageSpec.interpolate(
                    [markov_specs[name] for name in mix["of"]],
                    [float(c) for c in mix["coeffs"]],
                )
            markov_specs[label] = spec
            length = int(entry.get("length", 10000))
            seq_len = int(entry.get("seq_len", 64))
            return generate_markov_corpus(spec, length, stream_rng(cfg.seed, f"corpus/{label}"), seq_len)
        family = getattr(model, "family", None)
        _require(family is not None, f"entry {label!r} needs a quadratic model")
        if "task_index" in entry:
            index = int(entry["task_index"])
            _require(0 <= index < family.num_tasks,
                     f"entry {label!r}: task_index {index} is out of range for {family.num_tasks} tasks")
            return family.task_dataset(index)
        noise = float(entry.get("noise", 0.0))
        size = int(entry.get("size", 1))
        rng = stream_rng(cfg.seed, f"corpus/{label}") if noise > 0 else None
        return family.domain_dataset(np.asarray(entry["mix"], dtype=np.float64), noise=noise, size=size, rng=rng)

    datasets: dict[str, Dataset] = {}
    for entry in cfg.domain_specs + cfg.task_specs:
        label = entry["label"]
        try:
            datasets[label] = build_one(entry)
        except (TypeError, ValueError, DimensionError) as exc:  # a spec value of the wrong type or shape
            raise ConfigError(f"entry {label!r}: {exc}") from exc
        examples = datasets[label].examples
        if isinstance(model, CharLMModel):
            _require(all(isinstance(text, str) for text in examples), f"entry {label!r}: char_lm needs text records")
            unknown = "".join(sorted(set("".join(examples)) - set(model.vocab)))
            _require(not unknown, f"entry {label!r} has characters outside the model vocabulary: {unknown!r}")
        if isinstance(model, SoftmaxModel):
            _require(all(isinstance(ex, tuple) and np.shape(ex[0]) == (model.n_features,) for ex in examples),
                     f"entry {label!r}: softmax needs x/y records with {model.n_features} features")
    return MixtureStore({e["label"]: datasets[e["label"]] for e in cfg.domain_specs},
                        {e["label"]: datasets[e["label"]] for e in cfg.task_specs})


def load_initial_weights(cfg: RunConfig) -> tuple[SimplexWeights | None, SimplexWeights | None]:
    alpha = SimplexWeights.load(cfg.init_alpha_path) if cfg.init_alpha_path else None
    z = SimplexWeights.load(cfg.init_z_path) if cfg.init_z_path else None
    return alpha, z
