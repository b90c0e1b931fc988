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

from .analysis import csv_labels
from .data import (
    Dataset,
    MarkovLanguageSpec,
    MixtureStore,
    generate_markov_corpus,
    ingest_dataset,
    stream_rng,
)
from .errors import ConfigError, DimensionError, GrapemixError
from .models import CharLMModel, DifferentiableModel, Point, QuadraticTaskFamily, SoftmaxModel
from .reweighting import FIELD_TYPES, MAX_BATCH_SIZE, ReweightConfig
from .simplex import SimplexWeights

# The two nested sections of the file; every other ReweightConfig field
# is a top-level key of the same name.
_SECTIONS = {
    "lr": {"schedule": "lr_schedule", "base": "base_lr"},
    "optimizer": {"kind": "optimizer", "beta1": "adam_beta1", "beta2": "adam_beta2",
                  "eps": "adam_eps", "weight_decay": "weight_decay"},
}
_RUN_KEYS = {"seed", "out_dir", "model", "domains", "tasks", "init_alpha", "init_z", "init_params"}
_FILE_KEYS = {name: f"{section}.{key}" for section, names in _SECTIONS.items() for key, name in names.items()}
_TOP_KEYS = (FIELD_TYPES.keys() - _FILE_KEYS.keys()) | _SECTIONS.keys() | _RUN_KEYS


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _check_keys(mapping: dict, allowed: set[str], where: str):
    _require(isinstance(mapping, dict), f"{where} must be a mapping")
    unknown = [key for key in mapping if key not in allowed]
    _require(not unknown, f"unknown key{'s' * (len(unknown) > 1)} {', '.join(map(repr, unknown))} in {where}")


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


def _field_value(name: str, value):
    """``value`` for ReweightConfig field ``name``, which judges it: numeric text read as a
    number (YAML reads ``1e6`` as a string), and an integral float as an int in an integer field."""
    if isinstance(value, str) and FIELD_TYPES[name] is not str:
        try:
            value = float(value)
        except ValueError:  # not numeric text, which ReweightConfig rejects
            return value
    if isinstance(value, float) and value.is_integer() and FIELD_TYPES[name] not in (str, float):
        return int(value)
    return value


def _typed(value, type_, where: str, base_dir="."):
    """``value`` read as ``type_``, or ConfigError naming ``where``: an
    integer (int), an existing file (Path), a str or a list, or, for a dict
    of such types, a mapping of exactly its keys."""
    if isinstance(type_, dict):
        _check_keys(value, type_.keys(), where)
        return {key: _typed(value.get(key), t, f"{where}.{key}", base_dir) for key, t in type_.items()}
    if type_ is int:
        return _number(value, where, integral=True)
    if type_ is Path:  # resolved against base_dir; None (an optional file left out) stays None
        if value is None:
            return None
        _require(isinstance(value, str), f"field {where} must be a file path")
        resolved = Path(base_dir) / value
        _require(resolved.exists(), f"field {where}: file {resolved} does not exist")
        return str(resolved)
    _require(isinstance(value, type_), f"field {where} must be a {type_.__name__}")
    return value


# Each model kind: the types of its spec keys (see _typed), and the
# constructor that takes their values in that order.
_MODEL_KINDS = {
    "quadratic": ({"curvatures": list, "centers": list}, QuadraticTaskFamily),
    "softmax": ({"n_features": int, "n_classes": int}, SoftmaxModel),
    "char_lm": ({"vocab_size": int}, CharLMModel),
}
# The extra keys of a synthetic corpus: name -> (integral, least value, greatest value, default).
# A synthetic dataset is drawn at once, like a batch, so its characters or examples have a batch's bound.
_CORPUS_KEYS = {"length": (True, 2, MAX_BATCH_SIZE, 10000), "seq_len": (True, 1, math.inf, 64)}
# Each dataset source: the type of its own value (see _typed), and the
# extra keys an entry of that source may give.
_SOURCES = {
    "path": (Path, {}),
    "markov": ({"vocab_size": int, "transition": list}, _CORPUS_KEYS),
    "markov_mix": ({"of": list, "coeffs": list}, _CORPUS_KEYS),
    "mix": (list, {"noise": (False, 0.0, math.inf, 0.0), "size": (True, 1, MAX_BATCH_SIZE, 1)}),
    "task_index": (int, {}),
}


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
    _require(path.exists(), f"config file {path} does not exist")
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

    values = {key: _field_value(key, value)
              for key, value in raw.items() if key in FIELD_TYPES and key not in _FILE_KEYS}
    for section, names in _SECTIONS.items():
        nested = raw.get(section, {})
        _check_keys(nested, names.keys(), section)
        for key, value in nested.items():
            values[names[key]] = _field_value(names[key], value)
    try:
        reweight = ReweightConfig(**values)
    except ValueError as exc:  # the message starts with the field, which the file may nest
        field, _, rest = str(exc).partition(" ")
        raise ConfigError(f"field {_FILE_KEYS.get(field, field)} {rest}") from exc
    if reweight.optimizer != "adamw":  # SGD reads none of AdamW's keys
        _check_keys(raw.get("optimizer", {}), {"kind"}, f"optimizer, kind {reweight.optimizer}")

    model = raw.get("model", {})
    kind = model.get("kind") if isinstance(model, dict) else None
    _require(isinstance(kind, str) and kind in _MODEL_KINDS,
             f"field model.kind must be one of {', '.join(_MODEL_KINDS)}")
    model_spec = _typed(model, {"kind": str, **_MODEL_KINDS[kind][0]}, "model")

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
        model_spec=model_spec,
        domain_specs=domain_specs,
        task_specs=task_specs,
        seed=_number(raw.get("seed", RunConfig.seed), "seed", integral=True),
        out_dir=out_dir,
        init_alpha_path=_typed(raw.get("init_alpha"), Path, "init_alpha", base_dir),
        init_z_path=_typed(raw.get("init_z"), Path, "init_z", base_dir),
        init_params=init_params,
    )


def _parse_entries(entries, where: str, base_dir) -> list[dict]:
    """Each entry with its source's value read and its source's defaults filled in."""
    _require(isinstance(entries, list) and entries, f"field {where} must be a nonempty list")
    parsed = []
    for i, entry in enumerate(entries):
        spot = f"{where}[{i}]"
        _require(isinstance(entry, dict), f"{spot} must be a mapping")
        _require(isinstance(entry.get("label"), str), f"field {spot}.label is required and must be a string")
        try:
            csv_labels([entry["label"]])
        except DimensionError as exc:
            raise ConfigError(f"field {spot}.label: {exc}") from exc
        sources = [key for key in _SOURCES if key in entry]
        _require(len(sources) == 1, f"field {spot}: need exactly one of {'/'.join(_SOURCES)}")
        source = sources[0]
        type_, extras = _SOURCES[source]
        _check_keys(entry, {"label", source} | extras.keys(), f"{spot}, a {source} entry")
        spec = {"label": entry["label"], source: _typed(entry[source], type_, f"{spot}.{source}", base_dir)}
        for key, (integral, least, most, default) in extras.items():
            spec[key] = _number(entry.get(key, default), f"{spot}.{key}", integral=integral, minimum=least)
            _require(spec[key] <= most, f"field {spot}.{key} must be <= {most}, got {entry.get(key)!r}")
        parsed.append(spec)
    return parsed


# ---------------------------------------------------------------------------
# Runtime assembly
# ---------------------------------------------------------------------------


def build_model(cfg: RunConfig) -> DifferentiableModel:
    """The configured model; ``init_params``, if given, must fit its parameter vector."""
    keys, construct = _MODEL_KINDS[cfg.model_spec["kind"]]
    try:
        model = construct(*(cfg.model_spec[key] for key in keys))
    except (TypeError, ValueError, DimensionError) as exc:  # a model value of the wrong type, range or shape
        raise ConfigError(f"field model: {exc}") from exc
    _require(cfg.init_params is None or len(cfg.init_params) == model.param_dim,
             f"field init_params must have length {model.param_dim}, got {cfg.init_params!r}")
    return model


@np.errstate(all="ignore")  # a huge record value overflows the judged loss; the judge names the entry
def build_store(cfg: RunConfig, model: DifferentiableModel) -> MixtureStore:
    """Materialize every domain/task dataset (files or synthetic draws).

    Synthetic corpora use per-label RNG streams derived from the run
    seed, so the data layer is reproducible and independent of entry
    order elsewhere in the config.  The model is the one judge of each
    dataset: each side's losses at its initial parameters prepare the side
    as a run does, once for every run on the store.  A record the model
    cannot use, or a loss that is not finite, fails here as a ConfigError
    naming the entry, judged alone when its side fails.
    """
    markov_specs: dict[str, MarkovLanguageSpec] = {}

    def naming(entry: dict, make, *args):
        """``make(*args)``; a spec value or a record the model cannot use fails as a ConfigError naming the entry."""
        try:
            return make(*args)
        except ConfigError:
            raise
        except (TypeError, ValueError, GrapemixError) as exc:
            raise ConfigError(f"entry {entry['label']!r}: {exc}") from exc

    def build_one(entry: dict) -> Dataset:
        label = entry["label"]
        if "path" in entry:
            return ingest_dataset(entry["path"])
        if "markov" in entry or "markov_mix" in entry:
            if "markov" in entry:
                spec = MarkovLanguageSpec(**entry["markov"])
            else:
                mix = entry["markov_mix"]
                missing = [name for name in mix["of"] if name not in markov_specs]
                _require(not missing, f"markov_mix for {label!r} references unknown languages {missing}")
                spec = MarkovLanguageSpec.interpolate([markov_specs[name] for name in mix["of"]], mix["coeffs"])
            markov_specs[label] = spec
            rng = stream_rng(cfg.seed, f"corpus/{label}")
            return generate_markov_corpus(spec, entry["length"], rng, entry["seq_len"])
        _require(isinstance(model, QuadraticTaskFamily), f"entry {label!r} needs a quadratic model")
        if "task_index" in entry:
            return model.task_dataset(entry["task_index"])
        rng = stream_rng(cfg.seed, f"corpus/{label}") if entry["noise"] > 0 else None
        return model.domain_dataset(entry["mix"], noise=entry["noise"], size=entry["size"], rng=rng)

    datasets = {entry["label"]: naming(entry, build_one, entry) for entry in cfg.domain_specs + cfg.task_specs}
    store = MixtureStore({e["label"]: datasets[e["label"]] for e in cfg.domain_specs},
                         {e["label"]: datasets[e["label"]] for e in cfg.task_specs})
    point = Point(model, model.initial_params())
    for side, entries in (("domains", cfg.domain_specs), ("tasks", cfg.task_specs)):
        try:
            losses = point.losses(store.datasets(side))
        except (TypeError, ValueError, GrapemixError):
            losses = [math.nan] * len(entries)
        for entry, dataset, loss in zip(entries, store.datasets(side), losses):
            loss = loss if math.isfinite(loss) else naming(entry, model.loss, point.params, dataset)
            _require(math.isfinite(loss), f"entry {entry['label']!r}: the loss at the initial parameters is {loss}")
    return store


def load_initial_weights(cfg: RunConfig) -> tuple[SimplexWeights | None, SimplexWeights | None]:
    """The warm-start weights of ``init_alpha`` and ``init_z``, or None for
    a field left out.  A file that is not a weights record, or whose labels
    are not the configured domain (task) labels in order, raises
    ConfigError naming the field and the file; OSError passes through."""

    def load(path: str | None, where: str, specs: list[dict]) -> SimplexWeights | None:
        if path is None:
            return None
        try:
            weights = SimplexWeights.load(path)
        except (KeyError, TypeError, ValueError, GrapemixError) as exc:  # JSON, shape or simplex errors
            raise ConfigError(f"field {where}: {path} is not a weights record "
                              f'{{"labels": [...], "values": [...]}}: {exc}') from exc
        labels = tuple(spec["label"] for spec in specs)
        _require(weights.labels == labels, f"field {where}: {path} has labels {weights.labels}, not {labels}")
        return weights

    return load(cfg.init_alpha_path, "init_alpha", cfg.domain_specs), load(cfg.init_z_path, "init_z", cfg.task_specs)
