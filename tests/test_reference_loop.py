"""The training loop against its frozen copy in ``reference_loop``.

Small drawn configs run through ``train_run`` and through the frozen
loop; the trajectory CSV text and the final parameters must be bitwise
equal, and a run that fails must fail alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grapemix import (
    ALGORITHMS,
    CharLMModel,
    Dataset,
    GrapemixError,
    MixtureStore,
    QuadraticTaskFamily,
    ReweightConfig,
    SimplexWeights,
    SoftmaxModel,
    render_trajectory,
    train_run,
)
from grapemix import models, reweighting
from reference_loop import reference_run


def _quadratic():
    rng = np.random.default_rng(5)
    family = QuadraticTaskFamily(rng.uniform(0.5, 2.0, size=(3, 2)), rng.normal(size=(3, 2)))
    domains = {f"d{k}": family.domain_dataset(mix, noise=0.3, size=3, rng=rng)
               for k, mix in enumerate(([0.7, 0.2, 0.1], [0.1, 0.3, 0.6]))}
    tasks = {f"t{n}": family.task_dataset(n) for n in range(3)}
    return family, MixtureStore(domains, tasks)


def _char():
    model = CharLMModel(4)
    rng = np.random.default_rng(6)

    def texts(count):
        return Dataset(["".join(model.vocab[i] for i in rng.integers(0, 4, size=rng.integers(2, 9)))
                        for _ in range(count)])

    domains = {f"d{k}": texts(3) for k in range(3)}
    tasks = {f"t{n}": texts(2) for n in range(2)}
    return model, MixtureStore(domains, tasks)


def _softmax():
    rng = np.random.default_rng(7)

    def records(mean, count):
        return Dataset([(rng.normal(mean, 1.0, size=3), int(rng.integers(2))) for _ in range(count)])

    domains = {f"d{k}": records(mean, 4) for k, mean in enumerate((-1.0, 1.0))}
    tasks = {f"t{n}": records(mean, 3) for n, mean in enumerate((-0.5, 0.0, 0.5))}
    return SoftmaxModel(3, 2), MixtureStore(domains, tasks)


SETUPS = {"quadratic": _quadratic(), "char": _char(), "softmax": _softmax()}


@st.composite
def warm_start(draw, labels):
    """None, or weights over ``labels`` with entries that may be zero."""
    if not draw(st.booleans()):
        return None
    raw = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=len(labels),
                                 max_size=len(labels))))
    if raw.sum() == 0.0:
        raw[-1] = 1.0
    return SimplexWeights(raw / raw.sum(), labels)


@st.composite
def runs(draw):
    kind = draw(st.sampled_from(sorted(SETUPS)))
    model, store = SETUPS[kind]
    mode = st.sampled_from(("sampled", "expected"))
    cfg = ReweightConfig(
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        total_steps=draw(st.integers(1, 30)),
        step_ratio_alpha=draw(st.sampled_from((0.5, 1.5, 4.0))),
        step_ratio_z=draw(st.sampled_from((1.0, 10.0, 50.0))),
        update_every_alpha=draw(st.integers(1, 7)),
        update_every_z=draw(st.integers(1, 7)),
        lr_schedule=draw(st.sampled_from(("constant", "cosine", "wsd"))),
        base_lr=draw(st.sampled_from((0.05, 0.2))),
        task_mix_mode=draw(mode),
        domain_mix_mode=draw(mode),
        eval_replicates=draw(st.integers(1, 3)),
        train_batch_size=draw(st.integers(1, 4)),
        eval_batch_size=draw(st.one_of(st.none(), st.integers(1, 4))),
        eval_every=draw(st.integers(1, 10)),
        optimizer=draw(st.sampled_from(("sgd", "adamw"))),
        weight_floor=draw(st.sampled_from((0.0, 0.01))),
    )
    params0 = None
    if draw(st.booleans()):
        params0 = np.random.default_rng(draw(st.integers(0, 3))).normal(scale=0.5, size=model.param_dim)
    kwargs = dict(init_alpha=draw(warm_start(store.domain_labels)), init_z=draw(warm_start(store.task_labels)),
                  seed=draw(st.integers(0, 2**32)), params0=params0)
    return cfg, model, store, kwargs


def _outcome(run, cfg, model, store, kwargs):
    try:
        return run(cfg, model, store, **kwargs)
    except GrapemixError as exc:
        return type(exc), str(exc)


class TestAgainstFrozenLoop:
    @settings(max_examples=200, deadline=None)
    @given(drawn=runs())
    def test_csv_text_and_params_bitwise_equal(self, drawn):
        cfg, model, store, kwargs = drawn
        want = _outcome(reference_run, cfg, model, store, kwargs)
        got = _outcome(train_run, cfg, model, store, kwargs)
        if isinstance(want[0], type):
            assert got == want
            return
        params, trajectory = got
        assert render_trajectory(trajectory) == want[1]
        assert params.tobytes() == want[0].tobytes()


def _draws_counted(monkeypatch):
    """Count the loop's block draws of training batches."""
    calls = []
    draw = reweighting.sample_mixture_batches
    monkeypatch.setattr(reweighting, "sample_mixture_batches", lambda *args: calls.append(args[3]) or draw(*args))
    return calls


class TestAcrossBlockBoundaries:
    """The loop draws its sampled training batches a stretch at a time;
    runs whose stretches end off the update grid or at either cap still
    match the frozen loop bitwise."""

    @staticmethod
    def _assert_matches_reference(cfg, model, store, **kwargs):
        want = reference_run(cfg, model, store, **kwargs)
        params, trajectory = train_run(cfg, model, store, **kwargs)
        assert render_trajectory(trajectory) == want[1]
        assert params.tobytes() == want[0].tobytes()
        return trajectory

    @pytest.mark.parametrize("kind", sorted(SETUPS))
    @pytest.mark.parametrize("cap", ["examples", "batches"])
    def test_uniform_run_split_by_the_caps(self, monkeypatch, kind, cap):
        model, store = SETUPS[kind]
        if cap == "examples":
            size, steps, blocks = models._DRAW_BLOCK // 3, 10, [3, 3, 3, 1]
        else:
            size, steps, blocks = 1, 2 * reweighting._DRAW_BATCHES + 5, [reweighting._DRAW_BATCHES] * 2 + [5]
        cfg = ReweightConfig(algorithm="uniform", total_steps=steps, base_lr=0.05, eval_every=50,
                             train_batch_size=size, eval_batch_size=4)
        calls = _draws_counted(monkeypatch)
        self._assert_matches_reference(cfg, model, store, seed=3)
        assert calls == blocks

    @pytest.mark.parametrize("kind", sorted(SETUPS))
    @pytest.mark.parametrize("algorithm", ["grape", "doge_pcgrad"])
    def test_alpha_period_that_does_not_divide_the_run(self, monkeypatch, kind, algorithm):
        model, store = SETUPS[kind]
        cfg = ReweightConfig(algorithm=algorithm, total_steps=23, base_lr=0.05, update_every_alpha=5,
                             update_every_z=3, train_batch_size=3, eval_every=7)
        calls = _draws_counted(monkeypatch)
        self._assert_matches_reference(cfg, model, store, seed=4)
        assert calls == [5, 5, 5, 5, 3]

    @pytest.mark.parametrize("dead", [0, -1], ids=["first", "last"])
    def test_warm_start_with_a_dead_domain(self, dead):
        model, store = SETUPS["char"]
        alpha = np.full(store.num_domains, 1.0)
        alpha[dead] = 0.0
        init_alpha = SimplexWeights(alpha / alpha.sum(), store.domain_labels)
        cfg = ReweightConfig(algorithm="grape", total_steps=17, base_lr=0.1, update_every_alpha=4,
                             update_every_z=2, train_batch_size=5, eval_every=5, weight_floor=0.0)
        trajectory = self._assert_matches_reference(cfg, model, store, init_alpha=init_alpha, seed=5)
        assert (trajectory.alphas[:, dead] == 0.0).all()
