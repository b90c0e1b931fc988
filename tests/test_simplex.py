"""Simplex weight vectors and the exponentiated-gradient update."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grapemix import (
    DegenerateWeights,
    DimensionError,
    DivergenceUndefined,
    QuadraticTaskFamily,
    ScoreError,
    SimplexWeights,
    bregman_entropy_divergence,
    multiplicative_update,
    normalize,
)
from grapemix.analysis import Trajectory, TrajectoryRecord
from grapemix.data import MarkovLanguageSpec
from grapemix.errors import SpecError
from grapemix.simplex import SIMPLEX_TOL, on_simplex
from grapemix.verify import closed_form_update


class TestNormalize:
    def test_symmetric_pair(self):
        w = normalize([2.0, 2.0])
        np.testing.assert_allclose(w.values, [0.5, 0.5])

    def test_one_hot_passthrough(self):
        w = normalize([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(w.values, [1.0, 0.0, 0.0])

    def test_proportions_preserved(self):
        # 0.18394 / (0.18394 + 1.35914) computed with extended precision
        w = normalize([0.18394, 1.35914])
        np.testing.assert_allclose(w.values, [0.11920315213728387, 0.8807968478627162], rtol=1e-12)
        assert w.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateWeights):
            normalize([0.0, 0.0])

    def test_nan_rejected(self):
        with pytest.raises(DegenerateWeights):
            normalize([np.nan, 1.0])

    def test_negative_rejected(self):
        with pytest.raises(DegenerateWeights):
            normalize([-0.1, 1.1])


class TestMultiplicativeUpdate:
    def test_uniform_scores_cancel(self):
        w = SimplexWeights(np.array([0.5, 0.5]))
        for c in (0.0, 3.7, -123.0):
            for step in (2.0, -2.0):
                out = multiplicative_update(w, [c, c], step)
                np.testing.assert_allclose(out.values, [0.5, 0.5], atol=1e-15)

    def test_descend_two_entries(self):
        # 0.5 e^{-1} / (0.5 e^{-1} + 0.5 e^{1}) = 1 / (1 + e^2)
        w = SimplexWeights(np.array([0.5, 0.5]))
        out = multiplicative_update(w, [0.1, -0.1], -10.0)
        np.testing.assert_allclose(
            out.values, [0.11920292202211755, 0.8807970779778824], rtol=1e-12
        )

    def test_ascend_four_entries(self):
        # e^{.3}, 1, e^{-.3}, 1 over their sum
        w = SimplexWeights.uniform(4)
        out = multiplicative_update(w, [0.2, 0.0, -0.2, 0.0], 1.5)
        np.testing.assert_allclose(
            out.values,
            [0.32998420512091314, 0.24445831169074586, 0.18109917149759513, 0.24445831169074586],
            rtol=1e-12,
        )

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            w = normalize(rng.random(m) + 1e-3)
            scores = rng.uniform(-4, 4, size=m)
            shift = rng.uniform(-50, 50)
            ratio = rng.uniform(0.1, 15.0)
            step = ratio if rng.random() < 0.5 else -ratio
            a = multiplicative_update(w, scores, step)
            b = multiplicative_update(w, scores + shift, step)
            np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_sum_preserved_over_many_updates(self):
        rng = np.random.default_rng(11)
        w = SimplexWeights.uniform(5)
        for _ in range(500):
            scores = rng.uniform(-3, 3, size=5)
            ratio = rng.uniform(0.0, 10.0)
            w = multiplicative_update(w, scores, ratio if rng.random() < 0.5 else -ratio)
            assert abs(w.values.sum() - 1.0) <= 1e-9
            assert np.all(w.values >= 0.0)

    def test_zero_ratio_is_identity(self):
        w = normalize([0.3, 0.2, 0.5])
        out = multiplicative_update(w, [5.0, -2.0, 1.0], 0.0)
        np.testing.assert_array_equal(out.values, normalize(w.values).values)

    def test_no_overflow_for_huge_exponents(self):
        w = SimplexWeights(np.array([0.5, 0.5]))
        out = multiplicative_update(w, [1000.0, -1000.0], 20.0)
        assert np.all(np.isfinite(out.values))
        np.testing.assert_allclose(out.values, [1.0, 0.0], atol=1e-300)

    def test_dead_entry_stays_dead(self):
        w = SimplexWeights(np.array([0.0, 0.4, 0.6]))
        out = multiplicative_update(w, [100.0, 0.0, 0.0], 5.0)
        assert out.values[0] == 0.0

    def test_floor_revives_and_renormalizes(self):
        w = SimplexWeights(np.array([0.5, 0.5]))
        out = multiplicative_update(w, [10.0, -10.0], -5.0, floor=0.01)
        assert out.values.min() >= 0.009  # floor then renormalize
        assert abs(out.values.sum() - 1.0) <= 1e-12

    def test_nonfinite_scores_rejected(self):
        w = SimplexWeights.uniform(2)
        with pytest.raises(ScoreError):
            multiplicative_update(w, [np.inf, 0.0], 1.0)

    def test_length_mismatch_rejected(self):
        w = SimplexWeights.uniform(2)
        with pytest.raises(DimensionError):
            multiplicative_update(w, [1.0, 2.0, 3.0], 1.0)

    def test_matches_extended_precision_closed_form(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(200):
            m = int(rng.integers(2, 9))
            w = normalize(rng.random(m))
            scores = rng.uniform(-5, 5, size=m)
            ratio = rng.uniform(1e-3, 20.0)
            step = ratio if rng.random() < 0.5 else -ratio
            ours = multiplicative_update(w, scores, step)
            oracle = closed_form_update(w.values, scores, step)
            rel = max(abs((float(o) - g) / float(o)) for g, o in zip(ours.values, oracle))
            worst = max(worst, rel)
        assert worst <= 1e-12

    def test_nonfinite_step_rejected(self):
        w = SimplexWeights.uniform(2)
        for step in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="step must be finite"):
                multiplicative_update(w, [1.0, 0.0], step)


@st.composite
def weights_and_scores(draw):
    """A simplex with some exactly-zero entries, and one score per entry."""
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)), min_size=1, max_size=8)
               .filter(lambda xs: sum(xs) > 0.0))
    scores = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(raw), max_size=len(raw)))
    return normalize(raw), np.array(scores)


class TestMultiplicativeUpdateProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        case=weights_and_scores(),
        step=st.floats(-20.0, 20.0),
        shift=st.floats(-5.0, 5.0),
    )
    def test_simplex_shift_invariance_and_dead_entries(self, case, step, shift):
        w, scores = case
        out = multiplicative_update(w, scores, step)
        assert np.all(out.values >= 0.0)
        assert abs(float(out.values.sum()) - 1.0) <= SIMPLEX_TOL
        shifted = multiplicative_update(w, scores + shift, step)
        assert np.max(np.abs(shifted.values - out.values)) <= 1e-12
        assert np.all(out.values[w.values == 0.0] == 0.0)

    @settings(max_examples=300, deadline=None)
    @given(case=weights_and_scores(), ratio=st.floats(0.0, 20.0))
    def test_negated_step_equals_negated_scores(self, case, ratio):
        # the sign may sit on the step or on the scores: the weights agree bit for bit
        w, scores = case
        descend = multiplicative_update(w, scores, -ratio)
        flipped = multiplicative_update(w, -scores, ratio)
        assert descend.values.tobytes() == flipped.values.tobytes()


class TestBregmanDivergence:
    def test_identical_is_zero(self):
        w = SimplexWeights(np.array([0.5, 0.5]))
        assert bregman_entropy_divergence(w, w) == 0.0

    def test_onehot_vs_uniform_is_log2(self):
        p = SimplexWeights(np.array([1.0, 0.0]))
        q = SimplexWeights(np.array([0.5, 0.5]))
        assert bregman_entropy_divergence(p, q) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_support_violation(self):
        p = SimplexWeights(np.array([0.5, 0.5]))
        q = SimplexWeights(np.array([1.0, 0.0]))
        with pytest.raises(DivergenceUndefined):
            bregman_entropy_divergence(p, q)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = normalize(rng.random(4) + 1e-6)
            q = normalize(rng.random(4) + 1e-6)
            d = bregman_entropy_divergence(p, q)
            assert d >= -1e-15
        assert bregman_entropy_divergence(p, p) == 0.0


class TestWeightPlumbing:
    def test_construction_validates(self):
        with pytest.raises(DegenerateWeights):
            SimplexWeights(np.array([0.7, 0.7]))
        with pytest.raises(DegenerateWeights):
            SimplexWeights(np.array([-0.1, 1.1]))

    def test_labels_roundtrip(self, tmp_path):
        w = SimplexWeights(np.array([0.25, 0.75]), ("books", "web"))
        path = tmp_path / "weights.json"
        w.save(path)
        back = SimplexWeights.load(path)
        assert back.labels == ("books", "web")
        np.testing.assert_array_equal(back.values, w.values)
        assert back.values[back.labels.index("web")] == 0.75

    @pytest.mark.parametrize("labels", [0, -2, [], ()])
    def test_uniform_needs_a_label(self, labels):
        with pytest.raises(DimensionError, match="nonempty"):
            SimplexWeights.uniform(labels)

    def test_values_immutable(self):
        w = SimplexWeights.uniform(3)
        with pytest.raises(ValueError):
            w.values[0] = 0.9


# Entries that sit on or just past the edge of the simplex test.
EDGE_ENTRIES = [np.nan, np.inf, -np.inf, -0.0, 0.0, -1e-300, -1e-12, 1.0]


@st.composite
def near_simplex_vectors(draw):
    """A probability vector with one entry moved by up to 2e-9, and up to
    two entries replaced by NaN, an infinity, -0.0 or a tiny negative."""
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).filter(lambda xs: sum(xs) > 0.0))
    values = np.array(raw) / sum(raw)
    values[draw(st.integers(0, values.size - 1))] += draw(st.sampled_from([-2e-9, -5e-10, 0.0, 5e-10, 2e-9]))
    for i in draw(st.lists(st.integers(0, values.size - 1), max_size=2)):
        values[i] = draw(st.sampled_from(EDGE_ENTRIES))
    return values


def _accepts(construct, error) -> bool:
    try:
        construct()
    except error:
        return False
    return True


class TestOneSimplexRule:
    """Every place that takes a probability vector accepts exactly what ``on_simplex`` accepts."""

    def test_hand_cases(self):
        assert on_simplex([0.25, 0.75]) and on_simplex([-0.0, 1.0]) and on_simplex([1.0 + 5e-10])
        for values in ([np.nan], [np.inf], [0.5, np.nan], [-1e-300, 1.0], [1.0 + 2e-9], []):
            assert not on_simplex(values)
        assert on_simplex([[0.5, 0.5], [1.0, 0.0]], axis=1)
        assert not on_simplex([[0.5, 0.5], [1.0, 0.0]], axis=0)

    def test_overflowing_sum_fails_without_a_warning(self):
        # tier-1 turns numpy RuntimeWarnings into errors, so a warning fails this test
        assert not on_simplex([1e308, 1e308])
        with pytest.raises(DegenerateWeights):
            SimplexWeights([1e308, 1e308])
        with pytest.raises(DegenerateWeights):
            normalize([1e308, 1e308])

    @settings(max_examples=300, deadline=None)
    @given(values=near_simplex_vectors())
    def test_every_checker_agrees(self, values):
        expected = on_simplex(values)
        n = values.size
        assert _accepts(lambda: SimplexWeights(values), DegenerateWeights) == expected
        record = TrajectoryRecord(step=0, losses=[1.0], alpha=values, z=[1.0], task_scores=[0.0],
                                  domain_scores=np.zeros(n), lr=0.1, train_grad_evals=0, task_grad_evals=0,
                                  domain_grad_evals=0)
        trajectory = Trajectory([f"d{i}" for i in range(n)], ["t0"])
        assert _accepts(lambda: trajectory.append(record), ValueError) == expected
        transition = np.full((n, n), 1.0 / n)
        transition[0] = values
        assert _accepts(lambda: MarkovLanguageSpec(n, transition), SpecError) == expected
        family = QuadraticTaskFamily(np.ones((n, 1)), np.zeros((n, 1)))
        assert _accepts(lambda: family.domain_dataset(values), ValueError) == expected

    @settings(max_examples=300, deadline=None)
    @given(values=near_simplex_vectors(), scale=st.floats(1e-3, 1e3))
    def test_normalize_needs_nonnegative_entries_and_a_finite_positive_sum(self, values, scale):
        values = values * scale
        expected = bool(np.all(values >= 0.0)) and 0.0 < float(values.sum()) < np.inf
        assert _accepts(lambda: normalize(values), DegenerateWeights) == expected
        if expected:
            assert on_simplex(normalize(values).values)
