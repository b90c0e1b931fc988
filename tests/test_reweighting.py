"""Reweighting steps, gradient surgery, schedules, and the training loop."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grapemix.reweighting as reweighting
import grapemix.verify as verify
from grapemix import (
    CharLMModel,
    DimensionError,
    MixtureStore,
    NumericalDivergence,
    QuadraticTaskFamily,
    ReweightConfig,
    ScoreError,
    SimplexWeights,
    alignment,
    domain_reweight_step,
    learning_rate_at,
    multiplicative_update,
    pcgrad_combine,
    pcgrad_surgered,
    render_trajectory,
    stream_rng,
    task_reweight_step,
    train_run,
)
from grapemix.metrics import LOSS_FLOOR


class TestAlignment:
    def test_orthogonal(self):
        assert alignment(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == 0.0

    def test_hand_value(self):
        assert alignment(np.array([1.0, 2.0]), np.array([3.0, -1.0])) == 1.0

    def test_self_alignment_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.normal(size=5)
            assert alignment(u, u) == pytest.approx(np.dot(u, u))
            assert alignment(u, u) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            alignment(np.zeros(2), np.zeros(3))


class TestPcgrad:
    def test_hand_projection(self):
        g1, g2 = np.array([1.0, 0.0]), np.array([-1.0, 1.0])
        surgered = pcgrad_surgered([g1, g2], stream_rng(0, "p"))
        np.testing.assert_allclose(surgered[0], [0.5, 0.5])
        np.testing.assert_allclose(surgered[1], [0.0, 1.0])
        out = pcgrad_combine([g1, g2], stream_rng(0, "p"))
        np.testing.assert_allclose(out, [0.25, 0.75])

    def test_non_conflicting_passthrough(self):
        g1, g2 = np.array([1.0, 0.2]), np.array([0.5, 1.0])
        surgered = pcgrad_surgered([g1, g2], stream_rng(0, "p"))
        np.testing.assert_array_equal(surgered[0], g1)
        np.testing.assert_array_equal(surgered[1], g2)
        np.testing.assert_allclose(pcgrad_combine([g1, g2], stream_rng(0, "p")), (g1 + g2) / 2)

    def test_antipodal_cancels(self):
        g1 = np.array([2.0, -1.0])
        out = pcgrad_combine([g1, -g1], stream_rng(0, "p"))
        np.testing.assert_allclose(out, np.zeros(2), atol=1e-15)

    def test_zero_norm_reference_skipped(self):
        g1, g2 = np.array([1.0, 0.0]), np.zeros(2)
        surgered = pcgrad_surgered([g1, g2], stream_rng(0, "p"))
        np.testing.assert_array_equal(surgered[0], g1)
        out = pcgrad_combine([np.zeros(2), np.zeros(2)], stream_rng(0, "p"))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_surgered_nonconflicting_with_originals(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            grads = [rng.normal(size=6) for _ in range(2)]
            if np.dot(grads[0], grads[1]) >= 0:
                grads[1] = -grads[1]
            surgered = pcgrad_surgered(grads, stream_rng(0, "p"))
            assert np.dot(surgered[0], grads[1]) >= -1e-12
            assert np.dot(surgered[1], grads[0]) >= -1e-12

    def test_output_nonconflicting_with_surgered(self):
        # for a conflicting pair the combined direction helps both tasks
        rng = np.random.default_rng(2)
        for _ in range(50):
            g1 = rng.normal(size=5)
            g2 = rng.normal(size=5)
            if np.dot(g1, g2) >= 0:
                g2 = -g2
            surgered = pcgrad_surgered([g1, g2], stream_rng(0, "p"))
            out = pcgrad_combine([g1, g2], stream_rng(0, "p"))
            assert np.dot(out, surgered[0]) >= -1e-12
            assert np.dot(out, surgered[1]) >= -1e-12


def two_task_setup(theta=(1.0, 0.0)):
    """Two quadratic tasks plus two domains with known mixtures."""
    family = QuadraticTaskFamily(
        curvatures=[[1.0, 1.0], [2.0, 0.5]],
        centers=[[0.0, 0.0], [1.0, -1.0]],
    )
    domains = {
        "d0": family.domain_dataset(np.array([1.0, 0.0])),
        "d1": family.domain_dataset(np.array([0.3, 0.7])),
    }
    tasks = {"t0": family.task_dataset(0), "t1": family.task_dataset(1)}
    return family, family.model(), MixtureStore(domains, tasks), np.asarray(theta, float)


def expected_cfg(**kw):
    defaults = dict(
        algorithm="grape",
        total_steps=10,
        base_lr=0.2,
        task_mix_mode="expected",
        domain_mix_mode="expected",
        update_every_alpha=1,
        update_every_z=1,
        eval_every=1,
        step_ratio_alpha=1.5,
        step_ratio_z=10.0,
    )
    defaults.update(kw)
    return ReweightConfig(**defaults)


class TestTaskReweightStep:
    def _hand_scores(self, family, store, theta, alpha, scorer):
        # independent recomputation from the definitions
        domain_mixes = {"d0": np.array([1.0, 0.0]), "d1": np.array([0.3, 0.7])}
        grads = np.array([family.task_grad(n, theta) for n in range(2)])
        losses = np.array([family.task_loss(n, theta) for n in range(2)])
        direction = sum(
            a * (domain_mixes[lbl] @ grads) for a, lbl in zip(alpha.values, store.domain_labels)
        )
        return np.array([scorer(grads[n], losses[n]) @ direction for n in range(2)])

    def test_scores_match_hand_computation(self):
        family, model, store, theta = two_task_setup()
        alpha = SimplexWeights(np.array([0.6, 0.4]), store.domain_labels)
        z = SimplexWeights.uniform(store.task_labels)
        cfg = expected_cfg()
        new_z, scores = task_reweight_step(z, model, theta, store, alpha, cfg, stream_rng(0, "t"))
        hand = self._hand_scores(family, store, theta, alpha, lambda g, l: g / max(l, LOSS_FLOOR))
        np.testing.assert_allclose(scores, hand, rtol=1e-12)
        oracle = multiplicative_update(z, hand, -10.0)
        np.testing.assert_allclose(new_z.values, oracle.values, rtol=1e-12)

    def test_equal_scores_leave_z_unchanged(self):
        # two identical tasks produce identical alignments
        family = QuadraticTaskFamily(
            curvatures=[[1.0, 1.0], [1.0, 1.0]], centers=[[0.5, 0.5], [0.5, 0.5]]
        )
        store = MixtureStore(
            {"d0": family.domain_dataset(np.array([0.5, 0.5]))},
            {"t0": family.task_dataset(0), "t1": family.task_dataset(1)},
        )
        z = SimplexWeights.uniform(store.task_labels)
        alpha = SimplexWeights.uniform(store.domain_labels)
        new_z, scores = task_reweight_step(
            z, family.model(), np.array([2.0, 1.0]), store, alpha, expected_cfg(), stream_rng(0, "t")
        )
        assert scores[0] == scores[1]
        np.testing.assert_allclose(new_z.values, z.values, atol=1e-15)

    def test_gap_variant_uses_raw_gradients(self):
        family, model, store, theta = two_task_setup()
        alpha = SimplexWeights.uniform(store.domain_labels)
        z = SimplexWeights.uniform(store.task_labels)
        _, scores = task_reweight_step(
            z, model, theta, store, alpha, expected_cfg(algorithm="grape_gap"), stream_rng(0, "t")
        )
        hand = self._hand_scores(family, store, theta, alpha, lambda g, l: g)
        np.testing.assert_allclose(scores, hand, rtol=1e-12)

    def test_ema_variant_divides_by_tracked_loss(self):
        family, model, store, theta = two_task_setup()
        alpha = SimplexWeights.uniform(store.domain_labels)
        z = SimplexWeights.uniform(store.task_labels)
        ema = np.full(2, np.nan)
        _, scores = task_reweight_step(
            z, model, theta, store, alpha, expected_cfg(algorithm="grape_ema"),
            stream_rng(0, "t"), ema=ema,
        )
        # first observation: ema equals the current loss, so scores match grape's
        hand = self._hand_scores(family, store, theta, alpha, lambda g, l: g / max(l, LOSS_FLOOR))
        np.testing.assert_allclose(scores, hand, rtol=1e-12)
        losses = [family.task_loss(n, theta) for n in range(2)]
        assert list(ema) == pytest.approx(losses)

    def test_relative_scores_contrast_gap_vs_roi(self):
        # identical gradients, losses 10 and 0.1: the normalized scorer
        # suppresses the hard task's score by the loss ratio, the raw
        # scorer does not
        family = QuadraticTaskFamily(
            curvatures=[[0.2, 0.2], [20.0, 20.0]],
            centers=[[-9.0, 0.0], [0.9, 0.0]],
        )
        theta = np.array([1.0, 0.0])
        assert family.task_loss(0, theta) == pytest.approx(10.0)
        assert family.task_loss(1, theta) == pytest.approx(0.1)
        np.testing.assert_allclose(family.task_grad(0, theta), family.task_grad(1, theta))
        store = MixtureStore(
            {"d0": family.domain_dataset(np.array([1.0, 0.0]))},
            {"t0": family.task_dataset(0), "t1": family.task_dataset(1)},
        )
        z = SimplexWeights.uniform(store.task_labels)
        alpha = SimplexWeights.uniform(store.domain_labels)
        _, roi_scores = task_reweight_step(
            z, family.model(), theta, store, alpha, expected_cfg(), stream_rng(0, "t")
        )
        z_gap, gap_scores = task_reweight_step(
            z, family.model(), theta, store, alpha, expected_cfg(algorithm="grape_gap"), stream_rng(0, "t")
        )
        # raw scores are identical; normalized scores differ by the loss ratio
        assert gap_scores[0] == pytest.approx(gap_scores[1], rel=1e-12)
        assert roi_scores[1] / roi_scores[0] == pytest.approx(100.0, rel=1e-9)
        # so the gap variant leaves z uniform while roi shifts weight to the hard task
        np.testing.assert_allclose(z_gap.values, [0.5, 0.5], atol=1e-15)
        z_roi, _ = task_reweight_step(
            z, family.model(), theta, store, alpha, expected_cfg(), stream_rng(0, "t")
        )
        assert z_roi.values[0] > 0.5

    def test_negative_feedback_monotonicity(self):
        # decreasing one task's score strictly increases its next weight
        z = SimplexWeights(np.array([0.4, 0.6]))
        base = multiplicative_update(z, [0.3, -0.1], -5.0)
        lowered = multiplicative_update(z, [0.1, -0.1], -5.0)
        assert lowered.values[0] > base.values[0]


class TestDomainReweightStep:
    def test_equal_scores_leave_alpha_unchanged(self):
        family = QuadraticTaskFamily(curvatures=[[1.0, 1.0]], centers=[[0.0, 0.0]])
        store = MixtureStore(
            {"d0": family.domain_dataset(np.array([1.0])), "d1": family.domain_dataset(np.array([1.0]))},
            {"t0": family.task_dataset(0)},
        )
        alpha = SimplexWeights.uniform(store.domain_labels)
        z = SimplexWeights.uniform(store.task_labels)
        new_alpha, scores = domain_reweight_step(
            alpha, family.model(), np.array([1.0, 2.0]), store, z, expected_cfg(), stream_rng(0, "d")
        )
        assert scores[0] == scores[1]
        np.testing.assert_allclose(new_alpha.values, alpha.values, atol=1e-15)

    def test_scores_match_hand_computation(self):
        family, model, store, theta = two_task_setup()
        alpha = SimplexWeights.uniform(store.domain_labels)
        z = SimplexWeights(np.array([0.8, 0.2]), store.task_labels)
        new_alpha, scores = domain_reweight_step(
            alpha, model, theta, store, z, expected_cfg(), stream_rng(0, "d")
        )
        grads = np.array([family.task_grad(n, theta) for n in range(2)])
        losses = np.array([family.task_loss(n, theta) for n in range(2)])
        target = sum(z.values[n] * grads[n] / max(losses[n], LOSS_FLOOR) for n in range(2))
        mixes = [np.array([1.0, 0.0]), np.array([0.3, 0.7])]
        hand = np.array([(m @ grads) @ target for m in mixes])
        np.testing.assert_allclose(scores, hand, rtol=1e-12)
        oracle = multiplicative_update(alpha, hand, 1.5)
        np.testing.assert_allclose(new_alpha.values, oracle.values, rtol=1e-12)

    def test_one_hot_z_reduces_to_single_task_alignment(self):
        family, model, store, theta = two_task_setup()
        alpha = SimplexWeights.uniform(store.domain_labels)
        z = SimplexWeights(np.array([0.0, 1.0]), store.task_labels)
        _, scores = domain_reweight_step(
            alpha, model, theta, store, z, expected_cfg(), stream_rng(0, "d")
        )
        grads = np.array([family.task_grad(n, theta) for n in range(2)])
        target = grads[1] / max(family.task_loss(1, theta), LOSS_FLOOR)
        mixes = [np.array([1.0, 0.0]), np.array([0.3, 0.7])]
        hand = np.array([(m @ grads) @ target for m in mixes])
        np.testing.assert_allclose(scores, hand, rtol=1e-12)

    def test_uniform_algorithm_has_no_domain_step(self):
        family, model, store, theta = two_task_setup()
        alpha = SimplexWeights.uniform(store.domain_labels)
        z = SimplexWeights.uniform(store.task_labels)
        with pytest.raises(ValueError):
            domain_reweight_step(
                alpha, model, theta, store, z, expected_cfg(algorithm="uniform"), stream_rng(0, "d")
            )


class _NanGradModel:
    """A model whose gradients are all NaN, so every alignment score is NaN."""

    def __init__(self, inner):
        self.inner = inner
        self.param_dim = inner.param_dim

    def initial_params(self):
        return self.inner.initial_params()

    def loss(self, params, batch):
        return self.inner.loss(params, batch)

    def grad(self, params, batch):
        return np.full(self.param_dim, np.nan)


@pytest.mark.parametrize("step", [task_reweight_step, domain_reweight_step])
@pytest.mark.parametrize("mode", ["expected", "sampled"])
def test_non_finite_scores_raise_score_error(step, mode):
    _, model, store, theta = two_task_setup()
    alpha = SimplexWeights.uniform(store.domain_labels)
    z = SimplexWeights.uniform(store.task_labels)
    cfg = expected_cfg(task_mix_mode=mode, domain_mix_mode=mode)
    weights, other = (z, alpha) if step is task_reweight_step else (alpha, z)
    with pytest.raises(ScoreError):
        step(weights, _NanGradModel(model), theta, store, other, cfg, stream_rng(0, "s"))


class TestReweightProperties:
    """The update's invariants hold for the replicate-averaged scores that
    ``_reweight`` feeds it: a constant shift of every replicate's scores
    moves no weight, and a zero weight stays zero."""

    @settings(max_examples=200, deadline=None)
    @given(
        raw=st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)), min_size=1, max_size=6).filter(
            lambda xs: sum(xs) > 0.0
        ),
        data=st.data(),
        step_ratio=st.one_of(st.floats(-20.0, -1e-3), st.floats(1e-3, 20.0)),
        lr_scale=st.floats(0.1, 1.0),
        shift=st.floats(-5.0, 5.0),
    )
    def test_shift_invariance_and_dead_entries(self, raw, data, step_ratio, lr_scale, shift):
        weights = SimplexWeights(np.array(raw) / sum(raw))
        row = st.lists(st.floats(-5.0, 5.0), min_size=len(raw), max_size=len(raw))
        replicates = [np.array(data.draw(row)) for _ in range(3)]
        cfg = ReweightConfig(eval_replicates=3)

        def update(offset):
            draws = iter(replicates)
            return reweighting._reweight(
                weights, lambda: next(draws) + offset, step_ratio, cfg, lr_scale * cfg.base_lr
            )

        plain, scores = update(0.0)
        shifted, _ = update(shift)
        np.testing.assert_array_equal(scores, sum(replicates) / 3)
        assert np.max(np.abs(shifted.values - plain.values)) <= 1e-12
        for out in (plain, shifted):
            assert np.all(out.values[weights.values == 0.0] == 0.0)


class TestSchedules:
    def test_constant(self):
        cfg = ReweightConfig(total_steps=100, base_lr=0.3)
        assert learning_rate_at(cfg, 0) == 0.3
        assert learning_rate_at(cfg, 99) == 0.3

    def test_cosine_endpoints(self):
        cfg = ReweightConfig(total_steps=100, base_lr=1.0, lr_schedule="cosine")
        assert learning_rate_at(cfg, 0) == pytest.approx(1.0)
        assert learning_rate_at(cfg, 50) == pytest.approx(0.55)
        assert learning_rate_at(cfg, 100) == pytest.approx(0.1)

    def test_wsd_shape(self):
        cfg = ReweightConfig(total_steps=1000, base_lr=1.0, lr_schedule="wsd")
        assert learning_rate_at(cfg, 0) == 1.0
        assert learning_rate_at(cfg, 799) == 1.0
        assert learning_rate_at(cfg, 900) == pytest.approx(0.55)
        assert learning_rate_at(cfg, 1000) == pytest.approx(0.1)

    def test_reweight_ratio_tracks_schedule(self):
        # with wsd decay, late updates move the weights less
        family, model, store, theta = two_task_setup()
        alpha = SimplexWeights.uniform(store.domain_labels)
        z = SimplexWeights.uniform(store.task_labels)
        cfg = expected_cfg(lr_schedule="wsd", total_steps=1000, base_lr=0.2)
        early, _ = task_reweight_step(z, model, theta, store, alpha, cfg, stream_rng(0, "t"),
                                      gamma=learning_rate_at(cfg, 0))
        late, _ = task_reweight_step(z, model, theta, store, alpha, cfg, stream_rng(0, "t"),
                                     gamma=learning_rate_at(cfg, 1000))
        dist_early = np.abs(early.values - 0.5).max()
        dist_late = np.abs(late.values - 0.5).max()
        assert dist_late < dist_early


class _ProbeModel:
    """Wraps a model, recording the parameter vector of every grad call."""

    def __init__(self, inner):
        self.inner = inner
        self.param_dim = inner.param_dim
        self.grad_params = []

    def initial_params(self):
        return self.inner.initial_params()

    def loss(self, params, batch):
        return self.inner.loss(params, batch)

    def grad(self, params, batch):
        self.grad_params.append(np.array(params, copy=True))
        return self.inner.grad(params, batch)


class TestTrainRun:
    def test_uniform_baseline_weights_frozen(self):
        family, model, store, _ = two_task_setup()
        cfg = expected_cfg(algorithm="uniform", total_steps=30)
        _, traj = train_run(cfg, model, store, seed=0)
        for record in traj.records:
            np.testing.assert_array_equal(record.alpha, [0.5, 0.5])
            np.testing.assert_array_equal(record.z, [0.5, 0.5])

    def test_singleton_store_degenerates_to_sgd(self):
        family = QuadraticTaskFamily(curvatures=[[1.0, 2.0]], centers=[[1.0, -1.0]])
        store = MixtureStore(
            {"d0": family.domain_dataset(np.array([1.0]))}, {"t0": family.task_dataset(0)}
        )
        cfg = expected_cfg(total_steps=20, base_lr=0.3)
        params, traj = train_run(cfg, family.model(), store, seed=0)
        theta = np.zeros(2)
        for _ in range(20):
            theta = theta - 0.3 * family.task_grad(0, theta)
        np.testing.assert_allclose(params, theta, rtol=1e-12)
        for record in traj.records:
            np.testing.assert_array_equal(record.alpha, [1.0])
            np.testing.assert_array_equal(record.z, [1.0])

    def test_counters_match_closed_form(self):
        # sampled pipeline: N+1 per task step, K+1 per domain step
        family, model, store, _ = two_task_setup()
        cfg = ReweightConfig(
            algorithm="grape", total_steps=107, base_lr=0.05,
            update_every_z=10, update_every_alpha=25,
            train_batch_size=4, eval_batch_size=4, eval_every=50,
        )
        _, traj = train_run(cfg, model, store, seed=0)
        train, task, domain = traj.final_counters
        n, k = 2, 2
        assert train == 107
        assert task == (107 // 10) * (n + 1)
        assert domain == (107 // 25) * (k + 1)

    def test_counters_expected_mode_count_actual_evals(self):
        # full-batch mixtures cost one gradient per component
        family, model, store, _ = two_task_setup()
        cfg = expected_cfg(total_steps=20, update_every_z=5, update_every_alpha=10)
        _, traj = train_run(cfg, model, store, seed=0)
        _, task, domain = traj.final_counters
        n, k = 2, 2
        assert task == (20 // 5) * (n + k)
        assert domain == (20 // 10) * (k + n)

    def test_doge_equals_grape_with_z_updates_disabled(self):
        family, model, store, _ = two_task_setup()
        common = dict(
            total_steps=120, base_lr=0.1, update_every_alpha=20,
            train_batch_size=4, eval_batch_size=4, eval_every=10,
        )
        cfg_doge = ReweightConfig(algorithm="doge", **common)
        cfg_grape = ReweightConfig(algorithm="grape", update_every_z=121, **common)
        _, traj_doge = train_run(cfg_doge, model, store, seed=5)
        _, traj_grape = train_run(cfg_grape, model, store, seed=5)
        np.testing.assert_array_equal(traj_doge.alphas, traj_grape.alphas)
        np.testing.assert_array_equal(traj_doge.losses, traj_grape.losses)

    def test_reweight_scores_use_post_update_params(self):
        family = QuadraticTaskFamily(curvatures=[[1.0, 1.0]], centers=[[1.0, 1.0]])
        store = MixtureStore(
            {"d0": family.domain_dataset(np.array([1.0]))}, {"t0": family.task_dataset(0)}
        )
        probe = _ProbeModel(family.model())
        cfg = expected_cfg(total_steps=3, base_lr=0.25)
        train_run(cfg, probe, store, seed=0)
        theta = np.zeros(2)
        expected = []
        for _ in range(3):
            expected.append(theta)                      # training gradient at theta_t
            theta = theta - 0.25 * family.task_grad(0, theta)
            expected.extend([theta] * 4)                # z step (2 grads) + alpha step (2 grads)
        assert len(probe.grad_params) == len(expected)
        for got, want in zip(probe.grad_params, expected):
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_divergence_guard(self):
        family = QuadraticTaskFamily(curvatures=[[1.0, 1.0]], centers=[[1.0, 1.0]])
        store = MixtureStore(
            {"d0": family.domain_dataset(np.array([1.0]))}, {"t0": family.task_dataset(0)}
        )
        cfg = expected_cfg(algorithm="uniform", total_steps=500, base_lr=2.5, eval_every=1)
        with pytest.raises(NumericalDivergence) as excinfo:
            train_run(cfg, family.model(), store, seed=0)
        assert excinfo.value.step > 0

    def test_warm_start_weights(self):
        family, model, store, _ = two_task_setup()
        alpha0 = SimplexWeights(np.array([0.9, 0.1]), store.domain_labels)
        z0 = SimplexWeights(np.array([0.2, 0.8]), store.task_labels)
        cfg = expected_cfg(algorithm="uniform", total_steps=5)
        _, traj = train_run(cfg, model, store, init_alpha=alpha0, init_z=z0, seed=0)
        np.testing.assert_array_equal(traj.records[0].alpha, [0.9, 0.1])
        np.testing.assert_array_equal(traj.records[0].z, [0.2, 0.8])

    def test_wrong_warm_start_labels_rejected(self):
        family, model, store, _ = two_task_setup()
        alpha0 = SimplexWeights(np.array([0.9, 0.1]), ("x", "y"))
        with pytest.raises(DimensionError):
            train_run(expected_cfg(), model, store, init_alpha=alpha0, seed=0)

    def test_adamw_step_matches_hand_formula(self):
        family = QuadraticTaskFamily(curvatures=[[1.0, 1.0]], centers=[[1.0, 2.0]])
        store = MixtureStore(
            {"d0": family.domain_dataset(np.array([1.0]))}, {"t0": family.task_dataset(0)}
        )
        cfg = expected_cfg(
            algorithm="uniform", total_steps=1, base_lr=0.1, optimizer="adamw", weight_decay=0.04
        )
        params, _ = train_run(cfg, family.model(), store, seed=0, params0=np.array([3.0, 5.0]))
        g = family.task_grad(0, np.array([3.0, 5.0]))
        m_hat, v_hat = g, g * g  # bias correction is exact at t=1
        expected = np.array([3.0, 5.0]) - 0.1 * (m_hat / (np.sqrt(v_hat) + 1e-8) + 0.04 * np.array([3.0, 5.0]))
        np.testing.assert_allclose(params, expected, rtol=1e-12)

    def test_pcgrad_stream_does_not_disturb_training(self):
        # doge and doge_pcgrad draw identical training batches: trajectories
        # agree exactly until the first domain update
        family, model, store, _ = two_task_setup()
        common = dict(total_steps=40, base_lr=0.05, update_every_alpha=30,
                      train_batch_size=4, eval_batch_size=4, eval_every=5)
        _, t1 = train_run(ReweightConfig(algorithm="doge", **common), model, store, seed=9)
        _, t2 = train_run(ReweightConfig(algorithm="doge_pcgrad", **common), model, store, seed=9)
        for r1, r2 in zip(t1.records, t2.records):
            if r1.step < 30:
                np.testing.assert_array_equal(r1.losses, r2.losses)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReweightConfig(algorithm="nope")
        with pytest.raises(ValueError):
            ReweightConfig(step_ratio_z=-1.0)
        with pytest.raises(ValueError):
            ReweightConfig(update_every_z=0)
        with pytest.raises(ValueError):
            ReweightConfig(ema_beta=1.5)

    @pytest.mark.parametrize("field", ["step_ratio_alpha", "step_ratio_z", "base_lr"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_ratio_or_base_lr_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ReweightConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("adam_beta1", 1.0), ("adam_beta1", -0.1), ("adam_beta2", 1.0), ("adam_beta1", math.nan),
        ("adam_eps", 0.0), ("adam_eps", math.inf), ("weight_decay", -50.0), ("weight_decay", math.inf),
        ("total_steps", 1.7), ("total_steps", 40.0), ("train_batch_size", True), ("eval_batch_size", 2.5),
    ])
    def test_optimizer_ranges_and_integer_fields(self, field, value):
        # checked whatever the optimizer, so an SGD config cannot carry an unusable AdamW value
        for optimizer in ("sgd", "adamw"):
            with pytest.raises(ValueError, match=field):
                ReweightConfig(optimizer=optimizer, **{field: value})

    def test_range_edges_accepted(self):
        cfg = ReweightConfig(optimizer="adamw", adam_beta1=0.0, adam_beta2=0.0, weight_decay=0.0,
                             total_steps=np.int64(3), eval_batch_size=None)
        assert cfg.total_steps == 3 and cfg.eval_batch_size is None


class _ListBatchModel:
    """Hands the wrapped model every batch as a plain list of examples, so
    the model cannot reuse anything it derived from a Dataset."""

    def __init__(self, inner):
        self.inner = inner
        self.param_dim = inner.param_dim

    def initial_params(self):
        return self.inner.initial_params()

    def loss(self, params, batch):
        return self.inner.loss(params, list(batch))

    def grad(self, params, batch):
        return self.inner.grad(params, list(batch))


class TestFullBatchesAsDatasets:
    """Expected-mode runs pass whole Datasets; the trajectories must equal
    those of the same runs on list batches."""

    @pytest.mark.parametrize("algorithm", ["grape", "doge_pcgrad"])
    def test_char_expected_run_matches_list_batches(self, algorithm):
        store = verify.multilingual_store(seed=4)
        cfg = ReweightConfig(
            algorithm=algorithm, total_steps=30, base_lr=0.15, update_every_alpha=5, update_every_z=5,
            eval_every=10, task_mix_mode="expected", domain_mix_mode="expected",
        )
        model = CharLMModel(verify.MULTILINGUAL_VOCAB)
        cold = render_trajectory(train_run(cfg, model, store, seed=4)[1])
        warm = render_trajectory(train_run(cfg, model, store, seed=4)[1])
        listed = render_trajectory(
            train_run(cfg, _ListBatchModel(CharLMModel(verify.MULTILINGUAL_VOCAB)), store, seed=4)[1]
        )
        assert cold == warm == listed

    def test_theorem1_config_matches_list_batches(self, monkeypatch):
        def shortened(wrap):
            def run(cfg, model, store, **kwargs):
                return train_run(dataclasses.replace(cfg, total_steps=300), wrap(model), store, **kwargs)

            return run

        texts = []
        for wrap in (lambda m: m, _ListBatchModel):
            monkeypatch.setattr(verify, "train_run", shortened(wrap))
            texts.append(render_trajectory(verify.theorem1_run()[1]))
        assert texts[0] == texts[1]


class TestSampledBatchesPreparedOnce:
    def test_each_batch_is_counted_once(self, monkeypatch):
        """``grad`` then ``loss`` on one sampled batch count its transitions
        once: the batch keeps what the model derived from it."""
        counted = []
        count = CharLMModel._count_transitions
        monkeypatch.setattr(CharLMModel, "_count_transitions",
                            lambda self, batch: counted.append(batch) or count(self, batch))
        cfg = ReweightConfig(algorithm="grape", total_steps=200, base_lr=0.15, train_batch_size=16,
                             eval_batch_size=32, update_every_alpha=100, update_every_z=100, eval_every=50)
        train_run(cfg, CharLMModel(verify.MULTILINGUAL_VOCAB), verify.multilingual_store(seed=5), seed=5)
        # ``counted`` keeps every batch alive, so distinct batches have distinct ids
        assert len(counted) > cfg.total_steps
        assert len({id(batch) for batch in counted}) == len(counted)


def _counting(monkeypatch, names):
    """Wrap each named module global of ``reweighting`` with a call counter."""
    calls = dict.fromkeys(names, 0)

    def wrap(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in names:
        monkeypatch.setattr(reweighting, name, wrap(name, getattr(reweighting, name)))
    return calls


class TestLoopCallsThroughModuleGlobals:
    """The benchmark traces the loop by replacing these module globals;
    a loop that bound them early would escape the trace unnoticed."""

    NAMES = ("sample_mixture_batch", "task_reweight_step", "domain_reweight_step", "pcgrad_combine",
             "multiplicative_update")

    @pytest.mark.parametrize("algorithm,pcgrad_calls", [("grape", 0), ("doge_pcgrad", 2)])
    def test_train_run_reaches_every_global(self, monkeypatch, algorithm, pcgrad_calls):
        _, model, store, _ = two_task_setup()
        calls = _counting(monkeypatch, self.NAMES)
        cfg = ReweightConfig(algorithm=algorithm, total_steps=20, base_lr=0.05, update_every_z=5,
                             update_every_alpha=10, train_batch_size=4, eval_every=10)
        train_run(cfg, model, store, seed=0)
        task_steps = 4 if algorithm == "grape" else 0
        # one mixture batch per training step, per task step, and per non-pcgrad domain step
        domain_targets = 2 if pcgrad_calls == 0 else 0
        assert calls == {
            "sample_mixture_batch": 20 + task_steps + domain_targets,
            "task_reweight_step": task_steps,
            "domain_reweight_step": 2,
            "pcgrad_combine": pcgrad_calls,
            "multiplicative_update": task_steps + 2,
        }
