"""Config parsing and the command-line interface."""

import json

import numpy as np
import pytest
import yaml

from grapemix import ConfigError, import_trajectory, train_run
from grapemix.cli import main
from grapemix.config import _MODEL_KINDS, build_model, build_store, load_config_file, parse_config


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
        stack = model._stack_examples
        monkeypatch.setattr(model, "_stack_examples", lambda batch: stacks.append(batch) or stack(batch))
        store = build_store(cfg, model)
        datasets = [*store.domains.values(), *store.tasks.values()]
        assert stacks == datasets
        train_run(cfg.reweight, model, store, seed=cfg.seed)  # expected mode: whole datasets as batches
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

    def test_bad_config_exits_2(self, tmp_path):
        path = write_config(tmp_path, minimal_quadratic_config(bogus=1))
        assert main(["run", "--config", str(path)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_unknown_suite_exits_2(self):
        assert main(["verify", "nonsense"]) == 2

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
    ("mix-length", minimal_quadratic_config, _set_domain("mix", [0.5, 0.5]), "'d0'"),
    # a mix is a probability vector over the one task
    ("mix-nan", minimal_quadratic_config, _set_domain("mix", [float("nan")]), "entry 'd0': mix"),
    ("mix-negative", minimal_quadratic_config, _set_domain("mix", [-1.0]), "entry 'd0': mix"),
    ("mix-sum", minimal_quadratic_config, _set_domain("mix", [0.7]), "entry 'd0': mix"),
    # AdamW divides by 1 - beta ** t, and a negative decay grows the parameters
    ("adam-beta1-one", minimal_quadratic_config, {"optimizer": {"kind": "adamw", "beta1": 1.0}}, "adam_beta1"),
    ("weight-decay-negative", minimal_quadratic_config, {"optimizer": {"kind": "adamw", "weight_decay": -50.0}},
     "weight_decay"),
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
        assert cfg.reweight.weight_decay == 0.01
