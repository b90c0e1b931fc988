"""Reweighting steps, gradient surgery, schedules, and the training loop."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grapemix.reweighting as reweighting
import grapemix.verify as verify
from grapemix import (
    CharLMModel,
    Dataset,
    DimensionError,
    EmptyBatch,
    MixtureStore,
    NumericalDivergence,
    Point,
    QuadraticTaskFamily,
    ReweightConfig,
    ScoreError,
    SimplexWeights,
    SoftmaxModel,
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
from grapemix import models
from grapemix.data import Block, Datasets
from grapemix.metrics import LOSS_FLOOR, normalized_grad


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


def task_grad(family, n, theta):
    """The gradient of task n of a quadratic family, in closed form: A_n (theta - c_n)."""
    return family.curvatures[n] * (theta - family.centers[n])


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
        grads = np.array([task_grad(family, n, theta) for n in range(2)])
        losses = np.array([family.all_task_losses(theta)[n] for n in range(2)])
        direction = sum(
            a * (domain_mixes[lbl] @ grads) for a, lbl in zip(alpha.values, store.domain_labels)
        )
        return np.array([scorer(grads[n], losses[n]) @ direction for n in range(2)])

    def test_scores_match_hand_computation(self):
        family, model, store, theta = two_task_setup()
        alpha = SimplexWeights(np.array([0.6, 0.4]), store.domain_labels)
        z = SimplexWeights.uniform(store.task_labels)
        cfg = expected_cfg()
        new_z, scores = task_reweight_step(z, Point(model, theta), store, alpha, cfg, stream_rng(0, "t"))
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
            z, Point(family.model(), np.array([2.0, 1.0])), store, alpha, expected_cfg(), stream_rng(0, "t")
        )
        assert scores[0] == scores[1]
        np.testing.assert_allclose(new_z.values, z.values, atol=1e-15)

    def test_gap_variant_uses_raw_gradients(self):
        family, model, store, theta = two_task_setup()
        alpha = SimplexWeights.uniform(store.domain_labels)
        z = SimplexWeights.uniform(store.task_labels)
        _, scores = task_reweight_step(
            z, Point(model, theta), store, alpha, expected_cfg(algorithm="grape_gap"), stream_rng(0, "t")
        )
        hand = self._hand_scores(family, store, theta, alpha, lambda g, l: g)
        np.testing.assert_allclose(scores, hand, rtol=1e-12)

    def test_ema_variant_divides_by_tracked_loss(self):
        family, model, store, theta = two_task_setup()
        alpha = SimplexWeights.uniform(store.domain_labels)
        z = SimplexWeights.uniform(store.task_labels)
        ema = np.full(2, np.nan)
        _, scores = task_reweight_step(
            z, Point(model, theta), store, alpha, expected_cfg(algorithm="grape_ema"),
            stream_rng(0, "t"), ema=ema,
        )
        # first observation: ema equals the current loss, so scores match grape's
        hand = self._hand_scores(family, store, theta, alpha, lambda g, l: g / max(l, LOSS_FLOOR))
        np.testing.assert_allclose(scores, hand, rtol=1e-12)
        losses = [family.all_task_losses(theta)[n] for n in range(2)]
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
        assert family.all_task_losses(theta)[0] == pytest.approx(10.0)
        assert family.all_task_losses(theta)[1] == pytest.approx(0.1)
        np.testing.assert_allclose(task_grad(family, 0, theta), task_grad(family, 1, theta))
        store = MixtureStore(
            {"d0": family.domain_dataset(np.array([1.0, 0.0]))},
            {"t0": family.task_dataset(0), "t1": family.task_dataset(1)},
        )
        z = SimplexWeights.uniform(store.task_labels)
        alpha = SimplexWeights.uniform(store.domain_labels)
        _, roi_scores = task_reweight_step(
            z, Point(family.model(), theta), store, alpha, expected_cfg(), stream_rng(0, "t")
        )
        z_gap, gap_scores = task_reweight_step(
            z, Point(family.model(), theta), store, alpha, expected_cfg(algorithm="grape_gap"), stream_rng(0, "t")
        )
        # raw scores are identical; normalized scores differ by the loss ratio
        assert gap_scores[0] == pytest.approx(gap_scores[1], rel=1e-12)
        assert roi_scores[1] / roi_scores[0] == pytest.approx(100.0, rel=1e-9)
        # so the gap variant leaves z uniform while roi shifts weight to the hard task
        np.testing.assert_allclose(z_gap.values, [0.5, 0.5], atol=1e-15)
        z_roi, _ = task_reweight_step(
            z, Point(family.model(), theta), store, alpha, expected_cfg(), stream_rng(0, "t")
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
            alpha, Point(family.model(), np.array([1.0, 2.0])), store, z, expected_cfg(), stream_rng(0, "d")
        )
        assert scores[0] == scores[1]
        np.testing.assert_allclose(new_alpha.values, alpha.values, atol=1e-15)

    def test_scores_match_hand_computation(self):
        family, model, store, theta = two_task_setup()
        alpha = SimplexWeights.uniform(store.domain_labels)
        z = SimplexWeights(np.array([0.8, 0.2]), store.task_labels)
        new_alpha, scores = domain_reweight_step(
            alpha, Point(model, theta), store, z, expected_cfg(), stream_rng(0, "d")
        )
        grads = np.array([task_grad(family, n, theta) for n in range(2)])
        losses = np.array([family.all_task_losses(theta)[n] for n in range(2)])
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
            alpha, Point(model, theta), store, z, expected_cfg(), stream_rng(0, "d")
        )
        grads = np.array([task_grad(family, n, theta) for n in range(2)])
        target = grads[1] / max(family.all_task_losses(theta)[1], LOSS_FLOOR)
        mixes = [np.array([1.0, 0.0]), np.array([0.3, 0.7])]
        hand = np.array([(m @ grads) @ target for m in mixes])
        np.testing.assert_allclose(scores, hand, rtol=1e-12)

    def test_uniform_algorithm_has_no_domain_step(self):
        family, model, store, theta = two_task_setup()
        alpha = SimplexWeights.uniform(store.domain_labels)
        z = SimplexWeights.uniform(store.task_labels)
        with pytest.raises(ValueError):
            domain_reweight_step(
                alpha, Point(model, theta), store, z, expected_cfg(algorithm="uniform"), stream_rng(0, "d")
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
        step(weights, Point(_NanGradModel(model), theta), store, other, cfg, stream_rng(0, "s"))


class _MisshapenModel:
    """The theorem harness family as a Protocol-only model whose ``grad`` drops its
    last entry (on every call, or every other call, so one request's gradients are
    ragged), or whose ``loss`` is a 1-vector."""

    def __init__(self, fault):
        self.inner = verify.harness_family()
        self.param_dim = self.inner.param_dim
        self.fault = fault
        self.grad_calls = 0

    def initial_params(self):
        return self.inner.initial_params()

    def loss(self, params, batch):
        loss = self.inner.loss(params, batch)
        return np.array([loss]) if self.fault == "loss" else loss

    def grad(self, params, batch):
        self.grad_calls += 1
        grad = self.inner.grad(params, batch)
        return grad[:-1] if self.fault == "grad" or self.fault == "ragged" and self.grad_calls % 2 else grad


class TestWrongShapedResults:
    """A Protocol-only model's result of the wrong shape stops the loop with a DimensionError
    at the point that asked for it, before a row kernel stacks it or the optimizer adds it:
    in both mix modes, in a whole run and in each reweight step alone."""

    @pytest.mark.parametrize("mode", ["sampled", "expected"])
    @pytest.mark.parametrize("fault", ["grad", "ragged", "loss"])
    def test_dimension_error(self, fault, mode):
        cfg = expected_cfg(task_mix_mode=mode, domain_mix_mode=mode)
        message = r"losses gave shapes \[\(1,\)" if fault == "loss" else r"grads gave shapes .*\(2,\)"
        model = _MisshapenModel(fault)
        store = verify.harness_store(model.inner)
        with pytest.raises(DimensionError, match=message):
            train_run(cfg, model, store, seed=0)
        theta = model.initial_params()
        alpha, z = SimplexWeights.uniform(store.domain_labels), SimplexWeights.uniform(store.task_labels)
        for step, weights, other in ((task_reweight_step, z, alpha), (domain_reweight_step, alpha, z)):
            model.grad_calls = 0
            with pytest.raises(DimensionError, match=message):
                step(weights, Point(model, theta), store, other, cfg, stream_rng(0, "s"))


class _RowsPoint:
    """A point whose gradients and losses at a side are the given rows."""

    def __init__(self, grads, losses):
        self.rows = {"grads": grads, "losses": losses}

    def grads(self, batches, rows=None):
        return self.rows["grads"] if rows is None else self.rows["grads"][rows]

    def losses(self, batches, rows=None):
        return self.rows["losses"] if rows is None else self.rows["losses"][rows]


class _Side:
    """A store whose side has ``k`` datasets."""

    def __init__(self, k):
        self.k = k

    def datasets(self, side):
        return [None] * self.k


@st.composite
def gradient_rows(draw, dims=(3, 12, 144, 600), most=8):
    """K gradient rows of D entries, a direction, K losses and weights over the rows, with
    exact zeros and -0.0 entries (whole rows of them too), losses at and below the floor,
    and dead weights; K is at most ``most`` and D one of ``dims``.  By default D is at
    least 2: at D = 1 a zero score may lose its sign."""
    k, d = draw(st.integers(1, most)), draw(st.sampled_from(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def signed(shape):
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape[:1] + (1,) * (len(shape) - 1))
        values[rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
        values[rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = -0.0
        return values

    grads, direction = signed((k, d)), signed((d,))
    special = np.array([0.0, -0.0, LOSS_FLOOR / 2, LOSS_FLOOR, np.inf, np.nan])
    losses = rng.exponential(size=k) * 10.0 ** rng.integers(-9, 4, size=k)
    losses = np.where(rng.random(k) < 0.3, rng.choice(special, size=k), losses)
    raw = rng.random(k) * (rng.random(k) >= draw(st.sampled_from([0.0, 0.5])))
    raw[int(rng.integers(k))] += 0.5
    return grads, direction, losses, SimplexWeights(raw / raw.sum())


class TestRowKernels:
    """The row kernels of the reweight steps are bitwise their per-row forms,
    so a numpy or BLAS change that breaks one fails here by name: the scores
    (a stacked vector-vector matmul) against ``alignment`` row by row, the
    expected-mode direction (a running sum over rows) against the zeros-and-+= loop
    it replaced, and the rows of ``normalized_grad`` against one call per row
    and the scalar rule ``grad / max(loss, LOSS_FLOOR)``."""

    @settings(max_examples=300, deadline=None)
    @given(case=gradient_rows())
    def test_scores(self, case):
        grads, direction, _, _ = case
        per_row = np.array([alignment(grad, direction) for grad in grads])
        assert reweighting._scores(grads, direction).tobytes() == per_row.tobytes()
        assert reweighting._scores(list(grads), list(direction)).tobytes() == per_row.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=gradient_rows())
    def test_normalized_rows(self, case):
        grads, _, losses, _ = case
        with np.errstate(all="ignore"):
            rows = normalized_grad(grads, losses)
            per_call = np.array([normalized_grad(grad, loss) for grad, loss in zip(grads, losses)])
            scalar = np.array([grad / max(loss, LOSS_FLOOR) for grad, loss in zip(grads, losses)])
        assert rows.tobytes() == per_call.tobytes() == scalar.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=gradient_rows(dims=(1, 3, 12, 144, 600), most=12), normalize=st.booleans())
    def test_direction(self, case, normalize):
        grads, _, losses, weights = case
        live = weights.values.nonzero()[0]
        rows = slice(None) if live.size == len(grads) else live
        with np.errstate(all="ignore"):
            scaled = grads[rows]
            if normalize:
                scaled = [grad / max(loss, LOSS_FLOOR) for grad, loss in zip(grads[rows], losses[rows])]
            loop = np.zeros(grads.shape[1])
            for weighted in np.asarray(scaled) * weights.values[rows, None]:
                loop += weighted
            direction, evals = reweighting._mixture_direction(
                _RowsPoint(grads, losses), _Side(len(grads)), weights, "domains", "expected", None, 1, normalize)
        assert direction.tobytes() == loop.tobytes() and evals == live.size


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
        early, _ = task_reweight_step(z, Point(model, theta), store, alpha, cfg, stream_rng(0, "t"),
                                      gamma=learning_rate_at(cfg, 0))
        late, _ = task_reweight_step(z, Point(model, theta), store, alpha, cfg, stream_rng(0, "t"),
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
            theta = theta - 0.3 * task_grad(family, 0, theta)
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
            theta = theta - 0.25 * task_grad(family, 0, theta)
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
        g = task_grad(family, 0, np.array([3.0, 5.0]))
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

    def test_a_dead_domain_is_not_evaluated_without_a_domain_step(self):
        # uniform runs no domain step, so a warm start's dead domain is never read: its
        # dataset, which has no transitions and raises EmptyBatch when evaluated, trains
        store = verify.multilingual_store(seed=4)
        store = MixtureStore(dict(store.domains, dead=Dataset(["a", "b"])), store.tasks)
        init_alpha = SimplexWeights([0.5, 0.5] + [0.0] * (store.num_domains - 2), store.domain_labels)
        cfg = ReweightConfig(algorithm="uniform", total_steps=12, base_lr=0.15, update_every_z=5,
                             eval_every=5, task_mix_mode="expected", domain_mix_mode="expected")
        texts = [render_trajectory(train_run(cfg, model, store, init_alpha=init_alpha, seed=4)[1])
                 for model in (CharLMModel(verify.MULTILINGUAL_VOCAB),
                               _ListBatchModel(CharLMModel(verify.MULTILINGUAL_VOCAB)))]
        assert texts[0] == texts[1]


def _caller() -> str | None:
    """The qualified name of the innermost ``Point`` method of ``models.py``
    or function of ``reweighting.py`` on the stack of the model entry that
    calls this, comprehensions skipped."""
    frame = sys._getframe(2)
    while frame is not None and not (
            (frame.f_code.co_filename == reweighting.__file__
             or frame.f_code.co_filename == models.__file__ and frame.f_code.co_qualname.startswith("Point."))
            and not frame.f_code.co_name.startswith("<")):
        frame = frame.f_back
    return frame and frame.f_code.co_qualname


# The entries of a built-in model that the loop may call, and the ``Point`` methods that may call them.
_ENTRIES = ("loss", "grad", "prepare", "tables", "row_losses", "row_grads")
_CALLERS = {"prepare": {"Point.prepare", "Point._evaluate"}, "tables": {"Point._at"}}


def _recording(cls):
    """A subclass of the built-in model ``cls`` that notes (entry, caller,
    argument) of every call of an ``_ENTRIES`` entry in ``calls``, a list
    of its own; the argument is the batches, the rows or the parameters."""

    def entry(name):
        def call(self, *args):
            self.calls.append((name, _caller(), args[-1]))
            return getattr(cls, name)(self, *args)

        return call

    return type(f"Recording{cls.__name__}", (cls,), {"calls": [], **{name: entry(name) for name in _ENTRIES}})


def _side_preparations(calls, store) -> int:
    """How many of ``calls`` prepared a store side's whole ``Datasets``,
    after checking that only ``Point._evaluate``, the point's one way to
    the model, evaluated it, that only the point prepared batches, and that no batch reached ``prepare`` that is
    not a side, a drawn ``Block`` or a list of one drawn batch."""
    assert calls
    for entry, caller, arg in calls:
        assert caller in _CALLERS.get(entry, {"Point._evaluate"}), (entry, caller)
        if entry == "prepare":
            assert isinstance(arg, (Datasets, Block)) or (isinstance(arg, list) and len(arg) == 1), arg
    sides = (store.datasets("domains"), store.datasets("tasks"))
    return sum(entry == "prepare" and any(arg is side for side in sides) for entry, _, arg in calls)


class _PurposeCountingModel:
    """A model with only the Protocol's ``loss``/``grad`` over a built-in one,
    counting its ``grad`` calls by the purpose ``purpose`` names and noting
    every call as ``_recording`` does.  Its ``losses`` list, the losses it
    returned, has nothing to do with the batched entry of the built-in models."""

    def __init__(self, inner):
        self.inner = inner
        self.param_dim = inner.param_dim
        self.purpose = "train"
        self.grad_calls = dict.fromkeys(("train", "task", "domain"), 0)
        self.losses = []
        self.calls = []

    def initial_params(self):
        return self.inner.initial_params()

    def loss(self, params, batch):
        self.calls.append(("loss", _caller(), batch))
        self.losses.append(self.inner.loss(params, batch))
        return self.losses[-1]

    def grad(self, params, batch):
        self.calls.append(("grad", _caller(), batch))
        self.grad_calls[self.purpose] += 1
        return self.inner.grad(params, batch)


class TestProtocolModelsAskedPerRequest:
    """The invariant of the benchmark's cross-check: a model that is not a
    built-in is asked for one ``grad`` per gradient the counters count, by
    purpose, and trains bitwise as the built-in model it wraps.  Only the
    loop's ``Point`` calls either model."""

    @pytest.mark.parametrize("mode", ["sampled", "expected"])
    @pytest.mark.parametrize("algorithm", ["grape", "doge_pcgrad"])
    def test_grad_calls_per_purpose_equal_the_counters(self, monkeypatch, algorithm, mode):
        store = verify.multilingual_store(seed=4)
        cfg = ReweightConfig(algorithm=algorithm, total_steps=30, base_lr=0.15, update_every_alpha=5,
                             update_every_z=3, eval_every=7, train_batch_size=8, eval_batch_size=8,
                             task_mix_mode=mode, domain_mix_mode=mode)
        model = _PurposeCountingModel(CharLMModel(verify.MULTILINGUAL_VOCAB))
        for name, purpose in (("task_reweight_step", "task"), ("domain_reweight_step", "domain")):
            def during(*args, step=getattr(reweighting, name), purpose=purpose, **kwargs):
                model.purpose = purpose
                try:
                    return step(*args, **kwargs)
                finally:
                    model.purpose = "train"

            monkeypatch.setattr(reweighting, name, during)
        _, trajectory = train_run(cfg, model, store, seed=4)
        train, task, domain = trajectory.final_counters
        # an expected-mode training step asks for the gradient of every domain with weight
        train_grads = train if mode == "sampled" else int(
            ((trajectory.alphas > 0.0).sum(axis=1)[:-1] * np.diff(trajectory.steps)).sum())
        assert model.grad_calls == {"train": train_grads, "task": task, "domain": domain}
        assert model.losses and _side_preparations(model.calls, store) == 0
        built_in = _recording(CharLMModel)(verify.MULTILINGUAL_VOCAB)
        assert render_trajectory(trajectory) == render_trajectory(train_run(cfg, built_in, store, seed=4)[1])
        # a built-in model prepares whole sides (expected mode) or drawn batches, and no
        # request reaches its public loss or grad
        assert bool(_side_preparations(built_in.calls, store)) == (mode == "expected")
        assert not any(entry in ("loss", "grad") for entry, _, _ in built_in.calls)


class TestOneWayToTheModel:
    """Only ``Point`` evaluates a built-in model, and only the point
    prepares batches for it: a store side's ``Datasets`` in expected
    mode, which the point evaluates whole or, for the live rows of a side
    with a dead domain at a point where no domain step read the side, at
    those rows alone."""

    @pytest.mark.parametrize("mode", ["sampled", "expected"])
    @pytest.mark.parametrize("algorithm", ["grape", "doge_pcgrad"])
    @pytest.mark.parametrize("kind", ["quadratic", "softmax"])
    def test_only_the_point_calls_a_built_in_model(self, kind, algorithm, mode):
        rng = np.random.default_rng(3)
        if kind == "quadratic":
            family = two_task_setup()[0]
            model = _recording(QuadraticTaskFamily)(family.curvatures, family.centers)
            datasets = [family.domain_dataset(np.array(mix)) for mix in ([1.0, 0.0], [0.3, 0.7], [0.5, 0.5])]
            datasets += [family.task_dataset(0), family.task_dataset(1)]
        else:
            model = _recording(SoftmaxModel)(3, 4)
            datasets = [Dataset([(rng.normal(size=3), int(rng.integers(4))) for _ in range(6)]) for _ in range(5)]
        store = MixtureStore(dict(zip(("d0", "d1", "dead"), datasets)), dict(zip(("t0", "t1"), datasets[3:])))
        init_alpha = SimplexWeights([0.5, 0.5, 0.0], store.domain_labels)
        cfg = ReweightConfig(algorithm=algorithm, total_steps=12, base_lr=0.1, update_every_alpha=4,
                             update_every_z=3, eval_every=5, train_batch_size=4,
                             task_mix_mode=mode, domain_mix_mode=mode)
        train_run(cfg, model, store, init_alpha=init_alpha, seed=3)
        assert bool(_side_preparations(model.calls, store)) == (mode == "expected")
        if mode == "expected":  # the live domains of a side no domain step read, alone
            live = tuple(arr[:2] for arr in model.prepare(store.datasets("domains")))
            assert any(entry == "row_grads" and len(rows[0]) == 2 and all(map(np.array_equal, rows, live))
                       for entry, _, rows in model.calls)


class TestPreparationCounts:
    """Each thing the loop reuses is prepared once, by structure: a drawn
    block once, a store side's whole datasets and its pool's per-string
    table once per store and model, and the log-softmax once per point
    that evaluates."""

    @staticmethod
    def _watch(monkeypatch):
        """Note every block drawn through ``reweighting``'s samplers, every
        ``CharLMModel.prepare`` argument, every side whose table or whole
        stack is built, and every log-softmax."""
        seen = {name: [] for name in ("drawn", "prepared", "tables", "stacks", "log_softmax")}
        for name in ("sample_mixture_batches", "sample_domain_batches", "sample_task_batches"):
            sample = getattr(reweighting, name)
            monkeypatch.setattr(reweighting, name, lambda *args, sample=sample: seen["drawn"].append(sample(*args))
                                or seen["drawn"][-1])
        prepare, table, stack = CharLMModel.prepare, CharLMModel._table, CharLMModel._stack
        monkeypatch.setattr(CharLMModel, "prepare", lambda self, batches: seen["prepared"].append(batches)
                            or prepare(self, batches))
        monkeypatch.setattr(CharLMModel, "_table", lambda self, side: seen["tables"].append(side) or table(self, side))
        monkeypatch.setattr(CharLMModel, "_stack", lambda self, batches: seen["stacks"].append(batches)
                            or stack(self, batches))
        log_softmax = models._log_softmax
        monkeypatch.setattr(models, "_log_softmax", lambda logits: seen["log_softmax"].append(logits.tobytes())
                            or log_softmax(logits))
        return seen

    def test_sampled_run(self, monkeypatch):
        seen = self._watch(monkeypatch)
        store, model = verify.multilingual_store(seed=5), CharLMModel(verify.MULTILINGUAL_VOCAB)
        cfg = ReweightConfig(algorithm="grape", total_steps=300, base_lr=0.15, train_batch_size=16,
                             eval_batch_size=32, update_every_alpha=40, update_every_z=30, eval_every=50)
        for run in range(2):
            softmaxes = len(seen["log_softmax"])
            _, trajectory = train_run(cfg, model, store, seed=5 + run)
            # one log-softmax per point: the start and each step's parameters, each evaluated
            assert len(seen["log_softmax"]) - softmaxes == cfg.total_steps + 1
        drawn = [block for block in seen["drawn"] if isinstance(block, Block)]
        blocks = [batches for batches in seen["prepared"] if isinstance(batches, Block)]
        # every training block and every per-component block is prepared exactly once
        assert len(drawn) == len(seen["drawn"]) == len(blocks) == len({id(block) for block in blocks})
        assert {id(block) for block in drawn} == {id(block) for block in blocks}
        per_run = 300 // 40 + 1 + 300 // 30 + 300 // 40 + len(trajectory)  # training, task, domain, record
        assert len(blocks) == 2 * per_run
        # each reweight step's mixture batch is a list of one, prepared from its text
        assert len(seen["prepared"]) - len(blocks) == 2 * (300 // 30 + 300 // 40)
        # one per-string table per side, for both runs; no whole side in sampled mode
        assert sorted(map(id, seen["tables"])) == sorted(id(store.datasets(side)) for side in ("domains", "tasks"))
        assert not any(isinstance(batches, Datasets) for batches in seen["stacks"])
        other = CharLMModel(verify.MULTILINGUAL_VOCAB)
        train_run(cfg, other, store, seed=5)  # another model on the same store builds its own
        assert len(seen["tables"]) == 4

    def test_expected_run_with_a_dead_domain(self, monkeypatch):
        seen = self._watch(monkeypatch)
        store = verify.multilingual_store(seed=4)
        # a dead domain without transitions raises EmptyBatch if it is ever evaluated
        store = MixtureStore(dict(store.domains, dead=Dataset(["a", "b"])), store.tasks)
        init_alpha = SimplexWeights([0.5, 0.5] + [0.0] * (store.num_domains - 2), store.domain_labels)
        model = CharLMModel(verify.MULTILINGUAL_VOCAB)
        cfg = ReweightConfig(algorithm="grape", total_steps=24, base_lr=0.15, update_every_z=5,
                             update_every_alpha=25, eval_every=7, task_mix_mode="expected",
                             domain_mix_mode="expected")  # task steps, and no domain step
        for run in range(2):
            softmaxes = len(seen["log_softmax"])
            train_run(cfg, model, store, init_alpha=init_alpha, seed=4 + run)
            assert len(seen["log_softmax"]) - softmaxes == cfg.total_steps + 1
        # each side's whole datasets are stacked once for the store; nothing is drawn
        assert sorted(map(id, seen["stacks"])) == sorted(id(store.datasets(side)) for side in ("domains", "tasks"))
        assert not seen["drawn"] and not seen["tables"]
        with pytest.raises(EmptyBatch):  # a domain step would evaluate it
            Point(model, model.initial_params()).grads(store.datasets("domains"))


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

    NAMES = ("sample_mixture_batches", "sample_mixture_batch", "task_reweight_step", "domain_reweight_step",
             "pcgrad_combine", "multiplicative_update")

    @pytest.mark.parametrize("algorithm,pcgrad_calls", [("grape", 0), ("doge_pcgrad", 2)])
    def test_train_run_reaches_every_global(self, monkeypatch, algorithm, pcgrad_calls):
        _, model, store, _ = two_task_setup()
        calls = _counting(monkeypatch, self.NAMES)
        cfg = ReweightConfig(algorithm=algorithm, total_steps=20, base_lr=0.05, update_every_z=5,
                             update_every_alpha=10, train_batch_size=4, eval_every=10)
        train_run(cfg, model, store, seed=0)
        task_steps = 4 if algorithm == "grape" else 0
        # the training batches in one draw per stretch between alpha changes; one
        # mixture batch per task step and per non-pcgrad domain step
        domain_targets = 2 if pcgrad_calls == 0 else 0
        assert calls == {
            "sample_mixture_batches": 2,
            "sample_mixture_batch": task_steps + domain_targets,
            "task_reweight_step": task_steps,
            "domain_reweight_step": 2,
            "pcgrad_combine": pcgrad_calls,
            "multiplicative_update": task_steps + 2,
        }
