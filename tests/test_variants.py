"""Algorithm variants and less-traveled configuration paths."""

import numpy as np
import pytest

from grapemix import (
    MixtureStore,
    Point,
    QuadraticTaskFamily,
    ReweightConfig,
    SimplexWeights,
    stationary_distribution,
    stream_rng,
    task_reweight_step,
    train_run,
)


def small_setup():
    family = QuadraticTaskFamily(
        curvatures=[[1.0, 1.0], [1.5, 0.5]],
        centers=[[1.0, 0.0], [-0.5, 1.0]],
    )
    store = MixtureStore(
        {
            "d0": family.domain_dataset(np.array([1.0, 0.0])),
            "d1": family.domain_dataset(np.array([0.0, 1.0])),
        },
        {"t0": family.task_dataset(0), "t1": family.task_dataset(1)},
    )
    return family, store


def cfg_expected(**kw):
    base = dict(
        algorithm="grape",
        total_steps=20,
        base_lr=0.1,
        update_every_alpha=5,
        update_every_z=5,
        task_mix_mode="expected",
        domain_mix_mode="expected",
        eval_every=5,
    )
    base.update(kw)
    return ReweightConfig(**base)


class TestEmaVariant:
    def test_tracker_blends_successive_observations(self):
        family, store = small_setup()
        model = family.model()
        alpha = SimplexWeights.uniform(store.domain_labels)
        z = SimplexWeights.uniform(store.task_labels)
        ema = np.full(2, np.nan)
        cfg = cfg_expected(algorithm="grape_ema")
        theta1 = np.array([0.5, 0.5])
        theta2 = np.array([0.2, 0.1])
        task_reweight_step(z, Point(model, theta1), store, alpha, cfg, stream_rng(0, "t"), ema=ema)
        first = [family.all_task_losses(theta1)[n] for n in range(2)]
        assert list(ema) == pytest.approx(first)
        task_reweight_step(z, Point(model, theta2), store, alpha, cfg, stream_rng(0, "t"), ema=ema)
        second = [family.all_task_losses(theta2)[n] for n in range(2)]
        expected = [0.7 * f + 0.3 * s for f, s in zip(first, second)]
        assert list(ema) == pytest.approx(expected)

    def test_full_run_executes(self):
        family, store = small_setup()
        params, traj = train_run(cfg_expected(algorithm="grape_ema"), family.model(), store, seed=0)
        assert np.all(np.isfinite(params))
        assert not np.array_equal(traj.records[-1].z, traj.records[0].z)


class TestPcgradVariant:
    def test_run_counts_per_task_gradients(self):
        family, store = small_setup()
        cfg = ReweightConfig(
            algorithm="doge_pcgrad",
            total_steps=20,
            base_lr=0.1,
            update_every_alpha=5,
            train_batch_size=4,
            eval_batch_size=4,
            eval_every=5,
        )
        _, traj = train_run(cfg, family.model(), store, seed=1)
        _, task, domain = traj.final_counters
        k, n = 2, 2
        assert task == 0  # no task-reweighting step for this baseline
        assert domain == (20 // 5) * (k + n)
        # z stays uniform, alpha adapts
        np.testing.assert_array_equal(traj.zs, np.full_like(traj.zs, 0.5))
        assert not np.array_equal(traj.records[-1].alpha, traj.records[0].alpha)


class TestReplication:
    def test_expected_mode_replicates_change_nothing_but_counters(self):
        family, store = small_setup()
        model = family.model()
        _, traj1 = train_run(cfg_expected(eval_replicates=1), model, store, seed=3)
        _, traj3 = train_run(cfg_expected(eval_replicates=3), model, store, seed=3)
        np.testing.assert_allclose(traj1.zs, traj3.zs, rtol=1e-12)
        np.testing.assert_allclose(traj1.alphas, traj3.alphas, rtol=1e-12)
        assert traj3.final_counters[1] == 3 * traj1.final_counters[1]
        assert traj3.final_counters[2] == 3 * traj1.final_counters[2]

    def test_sampled_mode_replicates_average_scores(self):
        family, store = small_setup()
        model = family.model()
        cfg = ReweightConfig(
            algorithm="grape", total_steps=5, base_lr=0.1,
            update_every_z=5, update_every_alpha=6,
            train_batch_size=4, eval_batch_size=4, eval_every=5, eval_replicates=4,
        )
        _, traj = train_run(cfg, model, store, seed=2)
        assert np.all(np.isfinite(traj.records[-1].task_scores))


class TestWeightFloor:
    def test_floor_keeps_weights_alive(self):
        family, store = small_setup()
        cfg = cfg_expected(weight_floor=0.02, step_ratio_z=50.0, total_steps=60)
        _, traj = train_run(cfg, family.model(), store, seed=0)
        assert traj.zs.min() >= 0.02 / (1.0 + 2 * 0.02)
        assert traj.alphas.min() >= 0.02 / (1.0 + 2 * 0.02)


class TestDisabledUpdates:
    def test_frequencies_beyond_horizon_freeze_weights(self):
        family, store = small_setup()
        cfg = cfg_expected(update_every_alpha=1000, update_every_z=1000)
        _, traj = train_run(cfg, family.model(), store, seed=0)
        np.testing.assert_array_equal(traj.alphas, np.full_like(traj.alphas, 0.5))
        np.testing.assert_array_equal(traj.zs, np.full_like(traj.zs, 0.5))
        assert traj.final_counters[1] == 0 and traj.final_counters[2] == 0


class TestStationaryEdgeCases:
    def test_permutation_chain_is_uniform(self):
        perm = np.roll(np.eye(5), 2, axis=1)
        pi = stationary_distribution(perm)
        np.testing.assert_allclose(pi, np.full(5, 0.2), atol=1e-10)
