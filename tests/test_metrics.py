"""Progress metrics and the grape_ema loss tracker."""

import numpy as np
import pytest

from grapemix import (
    LOSS_FLOOR,
    Dataset,
    DegenerateLoss,
    MixtureStore,
    Point,
    QuadraticTaskFamily,
    ReweightConfig,
    SimplexWeights,
    alignment,
    normalized_grad,
    roi,
    stream_rng,
    task_reweight_step,
)


class TestRoi:
    def test_no_change_is_zero(self):
        assert roi(2.0, 2.0) == 0.0

    def test_quarter_improvement(self):
        assert roi(2.0, 1.5) == pytest.approx(0.25, rel=1e-15)

    def test_regression_is_negative(self):
        assert roi(1.0, 1.5) == pytest.approx(-0.5, rel=1e-15)

    def test_floor_guard(self):
        with pytest.raises(DegenerateLoss):
            roi(LOSS_FLOOR / 2, 0.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            loss = rng.uniform(1e-6, 10.0)
            frac = rng.uniform(-1.0, 1.0)
            assert roi(loss, loss * (1.0 - frac)) == pytest.approx(frac, rel=1e-12, abs=1e-15)

    def test_invariant_under_common_scaling(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            prev, nxt = rng.uniform(0.5, 3.0, size=2)
            c = rng.uniform(0.1, 100.0)
            assert roi(c * prev, c * nxt) == pytest.approx(roi(prev, nxt), rel=1e-10)


class _FixedLossModel:
    """Every batch has the loss that is next in line and a unit gradient."""

    param_dim = 1

    def __init__(self, *losses):
        self.losses = list(losses)

    def grad(self, params, batch):
        return np.ones(1)

    def loss(self, params, batch):
        return self.losses.pop(0)


class TestEma:
    """The grape_ema tracker, as the task step folds observed losses into it."""

    @staticmethod
    def _observe(*losses):
        store = MixtureStore({"d": Dataset(["d"])}, {"t": Dataset(["t"])})
        cfg = ReweightConfig(algorithm="grape_ema", task_mix_mode="expected", domain_mix_mode="expected")
        ema = np.full(1, np.nan)
        z, alpha = SimplexWeights.uniform(store.task_labels), SimplexWeights.uniform(store.domain_labels)
        model = _FixedLossModel(*losses)
        for _ in losses:
            task_reweight_step(z, Point(model, np.zeros(1)), store, alpha, cfg, stream_rng(0, "t"), ema=ema)
        return float(ema[0])

    def test_fixed_point(self):
        assert self._observe(2.0, 2.0) == 2.0

    def test_paper_default_beta_step(self):
        assert self._observe(2.0, 1.0) == pytest.approx(0.7 * 2.0 + 0.3 * 1.0, rel=0.0, abs=1e-15)

    def test_first_observation_initializes_exactly(self):
        assert self._observe(3.25) == 3.25

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            ReweightConfig(ema_beta=1.0)
        with pytest.raises(ValueError):
            ReweightConfig(ema_beta=0.0)


class TestNormalizedGrad:
    def test_division(self):
        np.testing.assert_allclose(normalized_grad(np.array([4.0, -2.0]), 2.0), [2.0, -1.0])

    def test_unit_loss_identity(self):
        g = np.array([0.3, -0.7, 2.0])
        np.testing.assert_array_equal(normalized_grad(g, 1.0), g)

    def test_zero_gradient(self):
        np.testing.assert_array_equal(normalized_grad(np.zeros(3), 0.5), np.zeros(3))

    def test_floor_guard(self):
        # a loss below the floor is clamped to it, as the training loop needs
        g = np.array([1.0, -3.0])
        np.testing.assert_array_equal(normalized_grad(g, 0.0), g / LOSS_FLOOR)
        np.testing.assert_array_equal(normalized_grad(g, LOSS_FLOOR / 2), g / LOSS_FLOOR)


class TestTaylorProperty:
    """One-step relative improvement matches its first-order expansion to O(rate^2)."""

    @staticmethod
    def _discrepancy(rate: float) -> float:
        family = QuadraticTaskFamily(curvatures=[[1.0]], centers=[[0.0]])
        model = family.model()
        batch = list(family.task_dataset(0))
        params = np.array([1.0])
        l_prev = model.loss(params, batch)
        grad = model.grad(params, batch)
        direction = grad
        l_next = model.loss(params - rate * direction, batch)
        measured = roi(l_prev, l_next)
        first_order = rate * alignment(normalized_grad(grad, l_prev), direction)
        return abs(measured - first_order)

    def test_discrepancy_at_rate_hundredth(self):
        assert self._discrepancy(0.01) == pytest.approx(1.0e-4, abs=1e-6)

    def test_quadratic_scaling_in_rate(self):
        rates = np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
        gaps = np.array([self._discrepancy(r) for r in rates])
        slope = np.polyfit(np.log(rates), np.log(gaps), 1)[0]
        assert 1.8 <= slope <= 2.2
