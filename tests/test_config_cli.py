"""Config parsing and the command-line interface."""

import contextlib
import functools
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import grapemix
from grapemix import ConfigError, ReweightConfig, import_trajectory, train_run
from grapemix.cli import main
from grapemix.config import _FILE_KEYS, _MODEL_KINDS, build_model, build_store, load_config_file, parse_config
from grapemix.models import MAX_SOFTMAX_PARAMS
from grapemix.reweighting import FIELD_TYPES, MAX_BATCH_SIZE, MAX_EVAL_REPLICATES, MAX_TOTAL_STEPS, UPPER_BOUNDS


def minimal_quadratic_config(**overrides):
    cfg = {
        "seed": 3,
        "total_steps": 40,
        "algorithm": "grape",
        "lr": {"schedule": "constant", "base": 0.3},
        "task_mix_mode": "expected",
        "domain_mix_mode": "expected",
        "eval_every": 10,
        "model": {
            "kind": "quadratic",
            "curvatures": [[1.0, 1.0]],
            "centers": [[1.0, -0.5]],
        },
        "domains": [{"label": "d0", "mix": [1.0]}],
        "tasks": [{"label": "t0", "task_index": 0}],
        "update_every_alpha": 10,
        "update_every_z": 10,
    }
    cfg.update(overrides)
    return cfg


def minimal_char_config(**overrides):
    cfg = {
        "total_steps": 5,
        "model": {"kind": "char_lm", "vocab_size": 2},
        "domains": [{"label": "lang", "markov": {"vocab_size": 2, "transition": [[0.5, 0.5], [0.5, 0.5]]},
                     "length": 200, "seq_len": 20}],
        "tasks": [{"label": "corpus", "path": "data.jsonl"}],
    }
    cfg.update(overrides)
    return cfg


def minimal_softmax_config(**overrides):
    cfg = {
        "total_steps": 5,
        "model": {"kind": "softmax", "n_features": 3, "n_classes": 2},
        "domains": [{"label": "feats", "path": "features.jsonl"}],
        "tasks": [{"label": "labelled", "path": "features.jsonl"}],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


# The least spec of each model kind, and its parameter count.
MINIMAL_MODELS = {
    "quadratic": ({"curvatures": [[1.0, 2.0]], "centers": [[0.0, 1.0]]}, 2),
    "softmax": ({"n_features": 1, "n_classes": 2}, 2),
    "char_lm": ({"vocab_size": 2}, 4),
}


class TestParseConfig:
    @pytest.mark.parametrize("kind", list(_MODEL_KINDS))
    def test_every_model_kind_builds_from_a_minimal_spec(self, kind):
        spec, param_dim = MINIMAL_MODELS[kind]
        cfg = parse_config(minimal_quadratic_config(model={"kind": kind, **spec}))
        assert build_model(cfg).param_dim == param_dim

    def test_entry_defaults_filled_in(self, tmp_path):
        (tmp_path / "data.jsonl").write_text('{"text": "abab"}\n')
        cfg = parse_config(minimal_char_config(domains=[{"label": "lang", "markov": {
            "vocab_size": 2, "transition": [[0.5, 0.5], [0.5, 0.5]]}}]), base_dir=tmp_path)
        assert cfg.domain_specs[0]["length"] == 10000 and cfg.domain_specs[0]["seq_len"] == 64
        chunks = build_store(cfg, build_model(cfg)).domains["lang"]
        assert len(chunks) == 157 and all(len(chunk) == 64 for chunk in chunks)
        quadratic = parse_config(minimal_quadratic_config())
        assert quadratic.domain_specs == [{"label": "d0", "mix": [1.0], "noise": 0.0, "size": 1}]

    def test_store_judging_prepares_each_dataset_once(self, monkeypatch):
        cfg = parse_config(minimal_quadratic_config(total_steps=20))
        model = build_model(cfg)
        stacks = []
        stack = model._arrays
        monkeypatch.setattr(model, "_arrays", lambda batch: stacks.append(batch) or stack(batch))
        store = build_store(cfg, model)
        datasets = [*store.domains.values(), *store.tasks.values()]
        assert stacks == datasets
        # expected mode: whole datasets as batches, whose stack the judge left on the store's sides
        for _ in range(2):
            train_run(cfg.reweight, model, store, seed=cfg.seed)
        assert stacks == datasets

    def test_minimal_with_defaults(self, tmp_path):
        raw = {
            "model": {"kind": "quadratic", "curvatures": [[1.0]], "centers": [[0.0]]},
            "domains": [{"label": "d0", "mix": [1.0]}],
            "tasks": [{"label": "t0", "task_index": 0}],
        }
        cfg = parse_config(raw, base_dir=tmp_path)
        assert cfg.reweight.update_every_alpha == 100
        assert cfg.reweight.update_every_z == 100
        assert cfg.reweight.step_ratio_alpha == 1.5
        assert cfg.reweight.step_ratio_z == 10.0
        assert cfg.reweight.ema_beta == 0.7
        assert cfg.reweight.algorithm == "grape"
        assert cfg.seed == 0

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config(minimal_quadratic_config(bogus_key=1))

    def test_unknown_nested_key_named(self):
        cfg = minimal_quadratic_config()
        cfg["lr"]["warmup"] = 10
        with pytest.raises(ConfigError, match="warmup"):
            parse_config(cfg)

    def test_negative_step_ratio_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_quadratic_config(step_ratio_z=-5.0))

    def test_duplicate_labels_rejected(self):
        cfg = minimal_quadratic_config()
        cfg["tasks"] = [{"label": "d0", "task_index": 0}]
        with pytest.raises(ConfigError, match="unique"):
            parse_config(cfg)

    def test_missing_path_rejected(self, tmp_path):
        cfg = minimal_quadratic_config()
        cfg["domains"] = [{"label": "d0", "path": "missing.jsonl"}]
        with pytest.raises(ConfigError, match="missing.jsonl"):
            parse_config(cfg, base_dir=tmp_path)

    def test_json_config_loads(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(minimal_quadratic_config()))
        cfg = load_config_file(path)
        assert cfg.reweight.total_steps == 40

    def test_char_lm_store_builds(self, tmp_path):
        raw = {
            "model": {"kind": "char_lm", "vocab_size": 3},
            "domains": [
                {
                    "label": "lang_a",
                    "markov": {"vocab_size": 3, "transition": [[0.8, 0.1, 0.1]] * 3},
                    "length": 500,
                    "seq_len": 20,
                },
                {
                    "label": "lang_b",
                    "markov": {"vocab_size": 3, "transition": [[0.1, 0.8, 0.1]] * 3},
                    "length": 500,
                    "seq_len": 20,
                },
            ],
            "tasks": [
                {
                    "label": "tgt",
                    "markov_mix": {"of": ["lang_a", "lang_b"], "coeffs": [0.5, 0.5]},
                    "length": 300,
                    "seq_len": 20,
                }
            ],
        }
        cfg = parse_config(raw, base_dir=tmp_path)
        model = build_model(cfg)
        store = build_store(cfg, model)
        assert store.num_domains == 2 and store.num_tasks == 1
        assert all(len(ex) == 20 for ex in store.tasks["tgt"])

    def test_file_backed_dataset(self, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text('{"text": "ababab"}\n{"text": "bababa"}\n')
        raw = {
            "model": {"kind": "char_lm", "vocab_size": 2},
            "domains": [{"label": "d0", "path": "data.jsonl"}],
            "tasks": [{"label": "t0", "path": "data.jsonl"}],
        }
        cfg = parse_config(raw, base_dir=tmp_path)
        store = build_store(cfg, build_model(cfg))
        assert len(store.domains["d0"]) == 2


class TestCli:
    def test_run_writes_outputs(self, tmp_path):
        path = write_config(tmp_path, minimal_quadratic_config())
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "alpha_final.json").exists()
        assert (out / "z_final.json").exists()
        assert (out / "params_final.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["algorithm"] == "grape"
        assert summary["worst_loss"] >= 0.0
        traj = import_trajectory(out / "trajectory.csv")
        assert traj.records[-1].step == 40

    def test_determinism_byte_identical(self, tmp_path):
        cfg = minimal_quadratic_config(
            total_steps=60,
            task_mix_mode="sampled",
            domain_mix_mode="sampled",
            train_batch_size=4,
        )
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(path), "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_seed_override_changes_sampled_run(self, tmp_path):
        cfg = minimal_quadratic_config(
            total_steps=60,
            task_mix_mode="sampled",
            domain_mix_mode="sampled",
            train_batch_size=4,
            model={"kind": "quadratic", "curvatures": [[1.0, 1.0]], "centers": [[1.0, -0.5]]},
            domains=[{"label": "d0", "mix": [1.0], "noise": 0.5, "size": 32}],
        )
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", str(path), "--out", str(out1), "--seed", "1"]) == 0
        assert main(["run", "--config", str(path), "--out", str(out2), "--seed", "2"]) == 0
        assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()

    def test_algo_override(self, tmp_path):
        path = write_config(tmp_path, minimal_quadratic_config())
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out), "--algo", "uniform"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["algorithm"] == "uniform"

    def test_unknown_algo_is_a_usage_error(self, tmp_path):
        path = write_config(tmp_path, minimal_quadratic_config())
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", str(path), "--algo", "grape_fast"])
        assert exit_info.value.code == 2

    def test_divergent_run_exits_1(self, tmp_path):
        cfg = minimal_quadratic_config(lr={"schedule": "constant", "base": 2.5}, total_steps=400, eval_every=1)
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("edit", [{"lr": {"schedule": "constant", "base": 1e300}},
                                      {"model": {"curvatures": [[1e308, 1.0, 0.5]] * 3}}],
                             ids=["lr-1e300", "curvature-1e308"])
    def test_non_finite_scores_exit_1_without_a_warning(self, tmp_path, capsys, edit):
        # the first task update meets infinite losses; tier-1 turns a numpy RuntimeWarning into an error
        cfg = yaml.safe_load((Path(__file__).parents[1] / "configs" / "quadratic_demo.yaml").read_text())
        cfg["total_steps"] = 50
        for key, value in edit.items():
            cfg[key].update(value)
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical divergence: step 1: ") and "RuntimeWarning" not in err

    def test_bad_config_exits_2(self, tmp_path):
        path = write_config(tmp_path, minimal_quadratic_config(bogus=1))
        assert main(["run", "--config", str(path)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "nonsense"])
        assert exit_info.value.code == 2

    def test_io_failure_exits_3(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        path = write_config(tmp_path, minimal_quadratic_config())
        # output directory path collides with an existing file -> OSError
        assert main(["run", "--config", str(path), "--out", str(blocker / "out")]) == 3

    def test_verify_updates_passes(self, capsys):
        assert main(["verify", "updates"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_import_loads_no_mpmath(self):
        env = {**os.environ, "PYTHONPATH": str(Path(grapemix.__file__).parents[1])}
        code = "import grapemix.cli, sys; assert not any(m.split('.')[0] == 'mpmath' for m in sys.modules)"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_export_round_trip(self, tmp_path):
        path = write_config(tmp_path, minimal_quadratic_config())
        out = tmp_path / "out"
        main(["run", "--config", str(path), "--out", str(out)])
        copy = tmp_path / "copy.csv"
        assert main(["export", "--trajectory", str(out / "trajectory.csv"), "--format", "csv",
                     "--out", str(copy)]) == 0
        assert copy.read_bytes() == (out / "trajectory.csv").read_bytes()

    def test_export_of_a_malformed_trajectory_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_quadratic_config())
        out = tmp_path / "out"
        main(["run", "--config", str(path), "--out", str(out)])
        # a repeated last row: its step does not increase
        lines = (out / "trajectory.csv").read_text().splitlines()
        (out / "trajectory.csv").write_text("\n".join([*lines, lines[-1]]) + "\n")
        assert main(["export", "--trajectory", str(out / "trajectory.csv")]) == 2
        assert f"config error: line {len(lines) + 1}: steps must strictly increase" in capsys.readouterr().err

    def test_export_of_a_nan_weight_row_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_quadratic_config())
        out = tmp_path / "out"
        main(["run", "--config", str(path), "--out", str(out)])
        lines = (out / "trajectory.csv").read_text().splitlines()
        alpha = lines[0].split(",").index("alpha.d0")
        parts = lines[-1].split(",")
        parts[alpha] = "nan"
        (out / "trajectory.csv").write_text("\n".join([*lines[:-1], ",".join(parts)]) + "\n")
        assert main(["export", "--trajectory", str(out / "trajectory.csv")]) == 2
        assert (f"config error: line {len(lines)}: record field alpha is not a valid simplex vector"
                in capsys.readouterr().err)

    def test_warm_start_from_files(self, tmp_path):
        from grapemix import SimplexWeights

        alpha_path = tmp_path / "alpha.json"
        SimplexWeights(np.array([1.0]), ("d0",)).save(alpha_path)
        cfg = minimal_quadratic_config(init_alpha="alpha.json")
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def _markov_without_transition(cfg):
    del cfg["domains"][0]["markov"]["transition"]


def _set_domain(key, value):
    def edit(cfg):
        cfg["domains"][0][key] = value
    return edit


def _set_task(key, value):
    def edit(cfg):
        cfg["tasks"][0][key] = value
    return edit


def _set_model(key, value):
    def edit(cfg):
        cfg["model"][key] = value
    return edit


def _set_paths(path):
    def edit(cfg):
        cfg["domains"][0]["path"] = cfg["tasks"][0]["path"] = path
    return edit


def _model_with_other_kinds_keys(cfg):
    cfg["model"].update(n_features=3, dim=7)


def _entry_with_other_sources_keys(cfg):
    cfg["domains"][0] = {"label": "lang", "path": "data.jsonl", "noise": 0.5, "length": 99}


# (case id, config builder, edit of the raw mapping, text the error must name)
MALFORMED = [
    ("lr-scalar", minimal_quadratic_config, {"lr": 5}, "lr"),
    ("optimizer-scalar", minimal_quadratic_config, {"optimizer": "adamw"}, "optimizer"),
    ("seed-text", minimal_quadratic_config, {"seed": "x"}, "seed"),
    ("lr-base-text", minimal_quadratic_config, {"lr": {"base": "x"}}, "lr.base"),
    ("steps-fraction", minimal_quadratic_config, {"total_steps": 1.7}, "total_steps"),
    ("steps-bool", minimal_quadratic_config, {"total_steps": True}, "total_steps"),
    ("eval-batch-fraction", minimal_quadratic_config, {"eval_batch_size": 2.5}, "eval_batch_size"),
    ("schedule-unknown", minimal_quadratic_config, {"lr": {"schedule": "linear"}}, "lr.schedule"),
    ("init-params-text", minimal_quadratic_config, {"init_params": ["a"]}, "init_params"),
    ("markov-no-transition", minimal_char_config, _markov_without_transition, "domains[0].markov.transition"),
    ("length-text", minimal_char_config, _set_domain("length", "abc"), "domains[0].length"),
    ("task-index-range", minimal_quadratic_config, _set_task("task_index", 5), "task_index"),
    ("vocabulary", minimal_char_config, None, "'corpus'"),
    ("step-ratio-z-inf", minimal_quadratic_config, {"step_ratio_z": float("inf")}, "step_ratio_z"),
    ("step-ratio-alpha-inf", minimal_quadratic_config, {"step_ratio_alpha": float("inf")}, "step_ratio_alpha"),
    ("lr-base-inf", minimal_quadratic_config, {"lr": {"base": float("inf")}}, "lr.base"),
    ("divergence-factor-inf", minimal_quadratic_config, {"divergence_factor": float("inf")}, "divergence_factor"),
    ("divergence-factor-one", minimal_quadratic_config, {"divergence_factor": 1.0},
     "field divergence_factor must be > 1, got 1.0"),
    ("ema-beta-one", minimal_quadratic_config, {"ema_beta": 1.0}, "field ema_beta must lie in (0, 1), got 1.0"),
    # a trajectory CSV column name holds the label, so it cannot hold a comma, a line break,
    # or a lone surrogate, which the file's UTF-8 cannot encode
    ("label-comma", minimal_quadratic_config, _set_domain("label", "d,0"), "field domains[0].label: label 'd,0'"),
    ("label-line-break", minimal_quadratic_config, _set_task("label", "t\n0"), "field tasks[0].label: label 't\\n0'"),
    ("label-surrogate", minimal_quadratic_config, _set_domain("label", "d\ud800"),
     "field domains[0].label: label 'd\\ud800' cannot name a trajectory CSV column: it does not encode as UTF-8"),
    ("mix-length", minimal_quadratic_config, _set_domain("mix", [0.5, 0.5]), "'d0'"),
    # a mix is a probability vector over the one task
    ("mix-nan", minimal_quadratic_config, _set_domain("mix", [float("nan")]), "entry 'd0': mix"),
    ("mix-negative", minimal_quadratic_config, _set_domain("mix", [-1.0]), "entry 'd0': mix"),
    ("mix-sum", minimal_quadratic_config, _set_domain("mix", [0.7]), "entry 'd0': mix"),
    # AdamW divides by 1 - beta ** t, and a negative decay grows the parameters
    ("adam-beta1-one", minimal_quadratic_config, {"optimizer": {"kind": "adamw", "beta1": 1.0}},
     "field optimizer.beta1 must lie in [0, 1), got 1.0"),
    ("weight-decay-negative", minimal_quadratic_config, {"optimizer": {"kind": "adamw", "weight_decay": -50.0}},
     "weight_decay"),
    # a range error names the key as the file spells it, not the ReweightConfig field
    ("adam-beta2-negative", minimal_quadratic_config, {"optimizer": {"kind": "adamw", "beta2": -0.5}},
     "field optimizer.beta2 must lie in [0, 1), got -0.5"),
    ("adam-eps-zero", minimal_quadratic_config, {"optimizer": {"kind": "adamw", "eps": 0}},
     "field optimizer.eps must be finite and > 0"),
    ("sgd-weight-decay-negative", minimal_quadratic_config, {"optimizer": {"kind": "sgd", "weight_decay": -1.0}},
     "field optimizer.weight_decay must be finite and >= 0"),
    # SGD reads none of AdamW's keys, with or without an explicit kind
    ("sgd-adamw-keys", minimal_quadratic_config, {"optimizer": {"kind": "sgd", "weight_decay": 0.9, "beta1": 0.5}},
     "unknown keys 'beta1', 'weight_decay' in optimizer, kind sgd"),
    ("sgd-beta2", minimal_quadratic_config, {"optimizer": {"kind": "sgd", "beta2": 0.99}}, "unknown key 'beta2'"),
    ("default-optimizer-eps", minimal_quadratic_config, {"optimizer": {"eps": 1e-6}}, "unknown key 'eps'"),
    # a draw of that many examples asks numpy for more memory than any host has
    ("train-batch-huge", minimal_quadratic_config, {"domain_mix_mode": "sampled", "train_batch_size": 1e20},
     f"field train_batch_size must be <= {MAX_BATCH_SIZE}"),
    ("eval-batch-huge", minimal_quadratic_config, {"task_mix_mode": "sampled", "eval_batch_size": 1e20},
     f"field eval_batch_size must be <= {MAX_BATCH_SIZE}"),
    # a valid run that long would take hours
    ("steps-huge", minimal_quadratic_config, {"total_steps": MAX_TOTAL_STEPS + 1},
     f"field total_steps must be <= {MAX_TOTAL_STEPS}, got {MAX_TOTAL_STEPS + 1}"),
    ("steps-1e300", minimal_char_config, {"total_steps": 1e300}, f"field total_steps must be <= {MAX_TOTAL_STEPS}"),
    ("replicates-huge", minimal_quadratic_config, {"eval_replicates": MAX_EVAL_REPLICATES + 1},
     f"field eval_replicates must be <= {MAX_EVAL_REPLICATES}, got {MAX_EVAL_REPLICATES + 1}"),
    ("replicates-1e300", minimal_softmax_config, {"eval_replicates": 1e300},
     f"field eval_replicates must be <= {MAX_EVAL_REPLICATES}"),
    ("corpus-length-huge", minimal_char_config, _set_domain("length", 1e300),
     f"field domains[0].length must be <= {MAX_BATCH_SIZE}"),
    ("mix-size-huge", minimal_quadratic_config, _set_domain("size", 1e300),
     f"field domains[0].size must be <= {MAX_BATCH_SIZE}"),
    # a softmax parameter vector that large ended in a numpy memory error, or a run far past desk scale
    ("softmax-features-huge", minimal_softmax_config, _set_model("n_features", 1e12),
     f"field model: n_features * n_classes must be <= {MAX_SOFTMAX_PARAMS}, got 1000000000000 * 2"),
    ("softmax-classes-huge", minimal_softmax_config, _set_model("n_classes", 2**19),
     f"field model: n_features * n_classes must be <= {MAX_SOFTMAX_PARAMS}, got 3 * 524288"),
    # the noise overflows the judged loss
    ("mix-noise-huge", minimal_quadratic_config, _set_domain("noise", 1e300),
     "entry 'd0': the loss at the initial parameters is inf"),
    ("lr-base-negative", minimal_quadratic_config, {"lr": {"base": -1.0}}, "field lr.base must be finite and > 0"),
    ("step-ratio-z-zero", minimal_quadratic_config, {"step_ratio_z": 0}, "field step_ratio_z must be finite and > 0"),
    # the features file holds 2-feature records; the model expects 3
    ("softmax-width", minimal_softmax_config, None, "'feats'"),
    ("init-params-length", minimal_quadratic_config, {"init_params": [0.0, 0.0, 0.0]}, "init_params"),
    # text records under a quadratic model
    ("quadratic-text-records", minimal_quadratic_config, {"domains": [{"label": "d0", "path": "data.jsonl"}]},
     "'d0'"),
    ("softmax-label-range", minimal_softmax_config, _set_domain("path", "labels.jsonl"), "'feats'"),
    # a JSON boolean or list is not a label, even where true would read as class 1
    ("softmax-bool-label", minimal_softmax_config, _set_domain("path", "boolean.jsonl"),
     "entry 'feats': line 2: 'y' must be a number"),
    ("softmax-list-label", minimal_softmax_config, _set_domain("path", "onehot.jsonl"),
     "entry 'feats': line 1: 'y' must be a number"),
    ("softmax-text-records", minimal_softmax_config, _set_domain("path", "data.jsonl"),
     "entry 'feats': softmax model needs (features, label) records"),
    # json.loads reads NaN as a float, which no loss rejects
    ("softmax-nan-feature", minimal_softmax_config, _set_paths("nan_feature.jsonl"),
     "entry 'feats': line 2: NaN is not a JSON number"),
    ("no-transitions", minimal_char_config, _set_task("path", "single.jsonl"), "'corpus'"),
    ("bad-jsonl-line", minimal_char_config, _set_task("path", "bad.jsonl"), "'corpus'"),
    ("model-key-of-other-kind", minimal_char_config, _model_with_other_kinds_keys, "'dim', 'n_features'"),
    ("vocab-size-fraction", minimal_char_config, _set_model("vocab_size", 2.7), "model.vocab_size"),
    ("path-entry-extra-keys", minimal_char_config, _entry_with_other_sources_keys, "'length', 'noise'"),
    ("mix-entry-length", minimal_quadratic_config, _set_domain("length", 500), "key 'length' in domains[0]"),
    ("task-index-entry-noise", minimal_quadratic_config, _set_task("noise", 3.0), "key 'noise' in tasks[0]"),
    ("empty-dataset-file", minimal_char_config, _set_task("path", "empty.jsonl"), "'corpus'"),
    ("vocab-size-negative", minimal_char_config, _set_model("vocab_size", -30),
     "field model: vocab_size must lie in [2, 36], got -30"),
    # warm-start files that are not weights records
    ("init-alpha-truncated", minimal_quadratic_config, {"init_alpha": "truncated.json"}, "field init_alpha"),
    ("init-alpha-no-values", minimal_quadratic_config, {"init_alpha": "no_values.json"}, "field init_alpha"),
    ("init-alpha-bare-list", minimal_quadratic_config, {"init_alpha": "bare_list.json"}, "field init_alpha"),
    ("init-z-sum", minimal_quadratic_config, {"init_z": "sum_above_one.json"}, "field init_z"),
    # a weights record whose labels are not the configured domain (task) labels
    ("init-alpha-labels", minimal_quadratic_config, {"init_alpha": "other_label.json"},
     "field init_alpha: "),
    ("init-z-labels", minimal_quadratic_config, {"init_z": "other_label.json"}, "field init_z: "),
]

# The dataset files every malformed config may point at.
DATASET_FILES = {
    # "z" lies outside the two-letter vocabulary of the char config
    "data.jsonl": '{"text": "abab"}\n{"text": "abza"}\n',
    "features.jsonl": '{"x": [1.0, 0.5], "y": 0}\n{"x": [0.0, 2.0], "y": 1}\n',
    # 3-feature records for the 2-class softmax config, one labelled 5
    "labels.jsonl": '{"x": [1.0, 0.5, 0.0], "y": 0}\n{"x": [0.0, 2.0, 1.0], "y": 5}\n',
    "boolean.jsonl": '{"x": [1.0, 0.5, 0.0], "y": 0}\n{"x": [0.0, 2.0, 1.0], "y": true}\n',
    "onehot.jsonl": '{"x": [1.0, 0.5, 0.0], "y": [1.0, 0.0]}\n',
    "nan_feature.jsonl": '{"x": [1.0, 0.5, 0.0], "y": 0}\n{"x": [NaN, 2.0, 1.0], "y": 1}\n',
    "single.jsonl": '{"text": "a"}\n{"text": "b"}\n',
    "bad.jsonl": '{"text": "abab"}\n{"text": \n',
    "empty.jsonl": "",
    "truncated.json": '{"labels": ["d0"], "values": [1.0',
    "no_values.json": '{"labels": ["d0"]}',
    "bare_list.json": "[1.0]",
    "sum_above_one.json": '{"labels": ["t0"], "values": [1.4]}',
    "other_label.json": '{"labels": ["other"], "values": [1.0]}',
}


class TestMalformedConfigs:
    """Each malformed config exits 2 and names the offending field."""

    @pytest.mark.parametrize("builder,edit,named", [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_exit_2_naming_field(self, tmp_path, capsys, builder, edit, named):
        for name, text in DATASET_FILES.items():
            (tmp_path / name).write_text(text)
        cfg = builder()
        if callable(edit):
            edit(cfg)
        elif edit:
            cfg.update(edit)
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err

    @pytest.mark.parametrize("field,label", [("init_alpha", "d0"), ("init_z", "t0")])
    @pytest.mark.parametrize("labels,values,named", [
        ('["{}"]', "[true]", "weight values must be finite JSON numbers, got [True]"),
        ('["{}"]', '["1"]', "weight values must be finite JSON numbers, got ['1']"),
        ('["{}"]', "[null]", "weight values must be finite JSON numbers, got [None]"),
        ("[0]", "[1.0]", "weight labels must be JSON strings, got [0]"),
    ], ids=["bool-value", "numeric-string-value", "null-value", "number-label"])
    def test_warm_start_takes_numbers_and_string_labels(self, tmp_path, capsys, field, label, labels, values, named):
        # numpy reads true and "1" as 1.0, which made either a valid one-entry warm start
        (tmp_path / "weights.json").write_text(f'{{"labels": {labels.format(label)}, "values": {values}}}')
        path = write_config(tmp_path, minimal_quadratic_config(**{field: "weights.json"}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: field {field}: ") and named in err

    @pytest.mark.parametrize("record,named", [
        ('{"x": [0.0, "1", 1.0], "y": 1}', "feature 1 must be a number within float range, got '1'"),
        ('{"x": [0.0, true, 1.0], "y": 1}', "feature 1 must be a number within float range, got True"),
        ('{"x": [0.0, 1e400, 1.0], "y": 1}', "feature 1 must be a number within float range, got inf"),
        ('{"x": [0.0, %d, 1.0], "y": 1}' % 10**400, "feature 1 must be a number within float range, got 1000"),
        ('{"x": [0.0, 2.0, 1.0], "y": %d}' % 10**400, "'y' must be a number within float range, got 1000"),
    ], ids=["string-feature", "bool-feature", "infinite-feature", "huge-integer-feature", "huge-integer-label"])
    def test_feature_records_take_numbers_within_float_range(self, tmp_path, capsys, record, named):
        # numpy read "1" and true as 1.0 and the run went on; a huge integer ended in an OverflowError traceback
        (tmp_path / "features.jsonl").write_text('{"x": [1.0, 0.5, 0.0], "y": 0}\n' + record + "\n")
        path = write_config(tmp_path, minimal_softmax_config())
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"entry 'feats': line 2: {named}" in err

    def test_char_config_runs_within_vocabulary(self, tmp_path):
        (tmp_path / "data.jsonl").write_text('{"text": "abab"}\n{"text": "abba"}\n')
        path = write_config(tmp_path, minimal_char_config())
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_softmax_config_runs_with_matching_width(self, tmp_path):
        (tmp_path / "features.jsonl").write_text('{"x": [1.0, 0.5, 0.0], "y": 0}\n{"x": [0.0, 2.0, 1.0], "y": 1}\n')
        path = write_config(tmp_path, minimal_softmax_config())
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_numeric_strings_and_integral_floats_accepted(self):
        cfg = parse_config(minimal_quadratic_config(total_steps=40.0, divergence_factor="1e6",
                                                    optimizer={"kind": "adamw", "eps": "1e-8"}))
        assert cfg.reweight.total_steps == 40 and isinstance(cfg.reweight.total_steps, int)
        assert cfg.reweight.divergence_factor == 1e6
        assert cfg.reweight.adam_eps == 1e-8
        assert cfg.reweight.weight_decay == ReweightConfig(optimizer="adamw").weight_decay == 0.01


# Every numeric ReweightConfig field, with the key a config file gives it.
NUMERIC_FIELDS = [name for name, kind in FIELD_TYPES.items() if kind is not str]


def _file_setting(field, value):
    """The minimal_quadratic_config overrides that put ``value`` in ``field``."""
    section, _, key = _FILE_KEYS.get(field, field).rpartition(".")
    if not section:
        return {key: value}
    return {section: {"kind": "adamw", key: value} if section == "optimizer" else {key: value}}


class TestOneJudgePerField:
    """ReweightConfig judges every numeric field, so the API and a config
    file reject the same values, and a file's error names its key."""

    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    def test_api_and_file_reject_the_same_values(self, tmp_path, capsys, field):
        integral = FIELD_TYPES[field] is not float
        for value in [True, math.nan, math.inf, -math.inf, "x"] + [1.7] * integral:
            with pytest.raises(ValueError, match=field):
                ReweightConfig(**{field: value})
            path = write_config(tmp_path, minimal_quadratic_config(**_file_setting(field, value)))
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err.startswith(f"config error: field {_FILE_KEYS.get(field, field)} ")


def _demo_config(name):
    return yaml.safe_load((Path(__file__).parents[1] / "configs" / name).read_text())


# The configs the mutation property edits: both demos and the minimal configs above.
MUTATION_BASES = {
    "quadratic-demo": functools.partial(_demo_config, "quadratic_demo.yaml"),
    "char-demo": functools.partial(_demo_config, "char_mixture_demo.yaml"),
    "minimal-quadratic": minimal_quadratic_config,
    "minimal-char": minimal_char_config,
    "minimal-softmax": minimal_softmax_config,
}
MUTATION_FILES = {
    "data.jsonl": '{"text": "abab"}\n{"text": "abba"}\n',
    "features.jsonl": '{"x": [1.0, 0.5, 0.0], "y": 0}\n{"x": [0.0, 2.0, 1.0], "y": 1}\n',
}
REPLACEMENTS = [math.nan, math.inf, -math.inf, -1, 0, 1e300, True, "x", [], {}, None]
# A large valid value of these allocates memory or time, so they only take
# small valid values, or values past the bound of the bounded ones.
BOUNDED_SIZES = {"length", "size", "n_features", "n_classes", *UPPER_BOUNDS}
UNBOUNDED_SIZES = {"seq_len"}


def _key_paths(node, prefix=()):
    """The path of every dict key and list item under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


def _names(node):
    """Every key and every entry label of a config."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield str(key)
            if key == "label" and isinstance(child, str):
                yield child
            yield from _names(child)
    elif isinstance(node, list):
        for child in node:
            yield from _names(child)


@st.composite
def mutated_configs(draw):
    """A base config with total_steps capped at 20 and an explicit eval_replicates of 1, and one key
    dropped, renamed or given a new value; and the names an error may give: each key and entry
    label in the file, and the edited key."""
    cfg = MUTATION_BASES[draw(st.sampled_from(sorted(MUTATION_BASES)))]()
    cfg["total_steps"] = min(cfg["total_steps"], 20)
    cfg["eval_replicates"] = 1
    *parents, key = draw(st.sampled_from(list(_key_paths(cfg))))
    holder = functools.reduce(operator.getitem, parents, cfg)
    values = REPLACEMENTS
    if key in BOUNDED_SIZES | UNBOUNDED_SIZES:
        values = [v for v in REPLACEMENTS if v != 1e300 or key in BOUNDED_SIZES] + [1, 2]
        if key in UPPER_BOUNDS:
            values += [UPPER_BOUNDS[key] + 1]
    edits = ["replace"] + ["drop"] * (key != "total_steps") + ["rename"] * isinstance(key, str)
    edit = draw(st.sampled_from(edits))
    if edit == "drop":
        del holder[key]
    elif edit == "rename":
        holder[key + "_renamed"] = holder.pop(key)
    else:
        holder[key] = draw(st.sampled_from(values))
    return cfg, {*_names(cfg), str(key)}


class TestConfigMutations:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=mutated_configs())
    def test_every_mutation_ends_in_a_documented_exit(self, tmp_path, case):
        cfg, names = case
        for name, text in MUTATION_FILES.items():
            (tmp_path / name).write_text(text)
        path = write_config(tmp_path, cfg)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        err = err.getvalue()
        assert "Traceback" not in err and "Warning" not in err
        if code == 1:
            assert err.startswith("numerical divergence: ")
        elif code == 2:
            named = [name for name in names if re.search(rf"(?<!\w){re.escape(name)}(?!\w)", err)]
            assert err.startswith("config error: ") and named, err
        else:
            assert code == 0 and not err, err
