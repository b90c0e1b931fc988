"""Pinned trajectories: the sha256 of ``render_trajectory`` for fixed runs.

Criterion 11 compares two runs of one build; these digests pin the
trajectories across builds, so a refactor of the loop, the config layer
or the models that changes any recorded byte fails here.  The values
were computed before the algorithm table replaced per-name branches;
the quadratic control and softmax pins, before every batch became a
``Dataset``.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from grapemix import (
    ALGORITHMS,
    CharLMModel,
    Dataset,
    MixtureStore,
    ReweightConfig,
    SoftmaxModel,
    render_trajectory,
    train_run,
    verify,
)
from grapemix.config import build_model, build_store, load_config_file, load_initial_weights

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DEMO_DIGESTS = {
    "char_mixture_demo.yaml": "c7dde41ac0c2b5cb5ab1da57f7206d58a69cfc76d8e37f97fa3a8a3bb4b170a5",
    "quadratic_demo.yaml": "077bb3919b26fa3baf2ea5fb4c72f1a0d92b4d9885c6f77714887a32e9b6e1ae",
}

SHORT_RUN_DIGESTS = {
    ("uniform", "sampled"): "f803bf3c214aaf141cb23c48c5261df620abf1920e707afb537229d83112b153",
    ("uniform", "expected"): "17863259d184a918af82cf19eaf179ccf7ff442689173aaa108149e674247aa4",
    ("doge", "sampled"): "d6407e0bc11613da343b484d6589b76fba7762d641496f86d97e8641d58e899e",
    ("doge", "expected"): "654658df1d0842049f7f6eca38c4e2975695b3b4b7edd32cd5dfd2d7070c7b14",
    ("doge_pcgrad", "sampled"): "8b63e8eefa829f536ae10e11c564f388c00eab01dc8db51ce1b8c0786846e3fe",
    ("doge_pcgrad", "expected"): "11a4d7644d0c2dd05817af7c2a2e8392bb8a6fde04cedcc813aa4707113031bc",
    ("grape", "sampled"): "b78e6a3104c33a4223ad8aa1e3ad00447280a5650b829d3182afd274785b0c12",
    ("grape", "expected"): "eae896b849cbdeb441be9c816d9c3edf22b37d5d269d690ba42f4b4b871c722a",
    ("grape_gap", "sampled"): "e50b72b1a9223f35417c9897119fd36d6b7ccdaf5c23154732bc0a4887ffabe4",
    ("grape_gap", "expected"): "09e3b03a0fefbb0a12d2766db84e636947082c5a7199ee9b260c49a986aafec7",
    ("grape_ema", "sampled"): "fbf66e0185e191f31507bbda0a0959dbfaf243981b38a4997c7634211cc27444",
    ("grape_ema", "expected"): "21cbcea3448250ead49fea59c61deeb000d869d402ff3c8f6f53e62a3f09f194",
}


# theorem 2's stochastic control: sampled quadratic batches from noisy domains
UNIFORM_CONTROL_DIGEST = "412d8d90f0813762f385d62e949e6f65ae2b0e23012c8973f042db1f79508cf8"
SOFTMAX_SAMPLED_DIGEST = "71a37c0afc43f9e45aa57913835252b44ed0ada7422c71a6cb6965dfbcf2def9"


def _digest(trajectory) -> str:
    return hashlib.sha256(render_trajectory(trajectory).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def multilingual():
    return verify.multilingual_store(seed=5), CharLMModel(verify.MULTILINGUAL_VOCAB)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_config_trajectory(name):
    cfg = load_config_file(CONFIGS / name)
    model = build_model(cfg)
    store = build_store(cfg, model)
    init_alpha, init_z = load_initial_weights(cfg)
    params0 = None if cfg.init_params is None else np.asarray(cfg.init_params, dtype=np.float64)
    _, trajectory = train_run(cfg.reweight, model, store, init_alpha=init_alpha, init_z=init_z,
                              seed=cfg.seed, params0=params0)
    assert _digest(trajectory) == DEMO_DIGESTS[name]


def test_every_algorithm_is_pinned():
    assert {algo for algo, _ in SHORT_RUN_DIGESTS} == set(ALGORITHMS)


@pytest.mark.parametrize("algorithm,mode", sorted(SHORT_RUN_DIGESTS))
def test_short_char_run_trajectory(multilingual, algorithm, mode):
    store, model = multilingual
    cfg = ReweightConfig(
        algorithm=algorithm,
        total_steps=200,
        base_lr=0.15,
        train_batch_size=16,
        eval_batch_size=32,
        update_every_alpha=20,
        update_every_z=20,
        eval_every=50,
        task_mix_mode=mode,
        domain_mix_mode=mode,
    )
    _, trajectory = train_run(cfg, model, store, seed=5)
    assert _digest(trajectory) == SHORT_RUN_DIGESTS[(algorithm, mode)]


def test_uniform_control_run_trajectory():
    assert _digest(verify.uniform_control_run()[1]) == UNIFORM_CONTROL_DIGEST


def _softmax_store() -> MixtureStore:
    """Three shifted feature domains and two target tasks, labelled by one linear rule."""
    rng = np.random.default_rng(31)
    rule = rng.normal(size=(3, 4))

    def records(mean, n):
        xs = rng.normal(mean, 1.0, size=(n, 4))
        return Dataset([(x, int(np.argmax(rule @ x))) for x in xs])

    domains = {f"d{k}": records(mean, 40) for k, mean in enumerate((-1.0, 0.0, 1.0))}
    tasks = {f"t{n}": records(mean, 20) for n, mean in enumerate((-0.5, 0.8))}
    return MixtureStore(domains, tasks)


def test_short_softmax_sampled_run_trajectory():
    cfg = ReweightConfig(algorithm="grape", total_steps=200, base_lr=0.3, train_batch_size=8, eval_batch_size=16,
                         update_every_alpha=20, update_every_z=20, eval_every=50, step_ratio_z=2.0)
    _, trajectory = train_run(cfg, SoftmaxModel(4, 3), _softmax_store(), seed=2)
    assert _digest(trajectory) == SOFTMAX_SAMPLED_DIGEST
