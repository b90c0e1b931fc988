"""Built-in models: exact values, gradient contracts, minimax oracle."""

import gc
import weakref

import numpy as np
import pytest

from grapemix import (
    CharLMModel,
    Dataset,
    DimensionError,
    EmptyBatch,
    MixtureStore,
    QuadraticTaskFamily,
    ReweightConfig,
    SoftmaxModel,
    finite_diff_check,
    train_run,
)


def simple_family():
    # single task l(theta) = 0.5 ||theta||^2 in 2-D
    return QuadraticTaskFamily(curvatures=[[1.0, 1.0]], centers=[[0.0, 0.0]])


class TestQuadratic:
    def test_loss_at_optimum_is_zero(self):
        family = QuadraticTaskFamily(curvatures=[[1.5, 0.7]], centers=[[2.0, -1.0]])
        model = family.model()
        batch = list(family.task_dataset(0))
        assert model.loss(np.array([2.0, -1.0]), batch) == 0.0

    def test_unit_ball_loss(self):
        model = simple_family().model()
        batch = list(simple_family().task_dataset(0))
        assert model.loss(np.array([1.0, 1.0]), batch) == pytest.approx(1.0)

    def test_gradient_hand_value(self):
        model = simple_family().model()
        batch = list(simple_family().task_dataset(0))
        np.testing.assert_allclose(model.grad(np.array([1.0, 1.0]), batch), [1.0, 1.0])

    def test_loss_nonnegative_with_noise(self):
        rng = np.random.default_rng(0)
        family = QuadraticTaskFamily(rng.uniform(0.5, 2.0, (3, 4)), rng.normal(size=(3, 4)))
        ds = family.domain_dataset(np.array([0.2, 0.5, 0.3]), noise=1.0, size=32, rng=rng)
        model = family.model()
        for _ in range(20):
            assert model.loss(rng.normal(size=4), list(ds)) >= 0.0

    def test_empty_batch(self):
        model = simple_family().model()
        with pytest.raises(EmptyBatch):
            model.loss(np.zeros(2), [])

    def test_param_length_checked(self):
        model = simple_family().model()
        with pytest.raises(DimensionError):
            model.loss(np.zeros(3), list(simple_family().task_dataset(0)))

    def test_records_of_other_models_rejected(self):
        model = simple_family().model()
        for batch in (["abab"], [(np.zeros(2), 0)]):
            with pytest.raises(TypeError, match="QuadraticExample"):
                model.loss(np.zeros(2), batch)

    def test_minimax_equal_losses_at_saddle(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            shared = rng.uniform(0.5, 2.0, size=3)
            family = QuadraticTaskFamily(np.tile(shared, (3, 1)), rng.normal(size=(3, 3)))
            theta, value = family.minimax_optimum()
            losses = family.all_task_losses(theta)
            assert value == pytest.approx(losses.max(), rel=1e-9)
            # active tasks share the optimal value; none exceeds it
            assert np.all(losses <= value + 1e-9)

    def test_minimax_known_instance(self):
        # equilateral triangle of radius r in whitened coordinates:
        # saddle at the centroid with value r^2 / 2
        curv = np.array([2.0, 1.0, 0.5])
        root = np.sqrt(curv)
        r = 1.1
        e1 = np.array([1.0, 0.3, -0.4])
        e1 /= np.linalg.norm(e1)
        e2 = np.array([-0.2, 1.0, 0.5])
        e2 -= e1 * (e1 @ e2)
        e2 /= np.linalg.norm(e2)
        angles = (0.4, 0.4 + 2 * np.pi / 3, 0.4 + 4 * np.pi / 3)
        centers = np.array([r * (np.cos(t) * e1 + np.sin(t) * e2) / root for t in angles])
        family = QuadraticTaskFamily(np.tile(curv, (3, 1)), centers)
        theta, value = family.minimax_optimum()
        assert value == pytest.approx(0.5 * r * r, rel=1e-9)
        np.testing.assert_allclose(theta, np.zeros(3), atol=1e-7)

    def test_single_task_minimax_is_single_minimum(self):
        family = QuadraticTaskFamily(curvatures=[[1.0, 2.0]], centers=[[0.3, -0.4]])
        theta, value = family.minimax_optimum()
        np.testing.assert_allclose(theta, [0.3, -0.4], atol=1e-8)
        assert value == pytest.approx(0.0, abs=1e-12)


class TestCharLM:
    def test_uniform_logits_give_log_vocab(self):
        model = CharLMModel(4)
        batch = ["abcd", "dcba"]
        assert model.loss(np.zeros(16), batch) == pytest.approx(np.log(4.0), rel=1e-12)

    def test_loss_is_log_perplexity(self):
        # perplexity = exp(loss) >= 1, i.e. loss >= 0
        rng = np.random.default_rng(1)
        model = CharLMModel(5)
        for _ in range(25):
            params = rng.normal(size=25)
            batch = ["".join(model.vocab[i] for i in rng.integers(0, 5, size=20))]
            assert model.loss(params, batch) >= 0.0

    def test_gradient_row_sums_to_zero(self):
        model = CharLMModel(4)
        grad = model.grad(np.zeros(16), ["ab"]).reshape(4, 4)
        assert grad[0].sum() == pytest.approx(0.0, abs=1e-15)
        # softmax-minus-onehot pattern on the observed row
        np.testing.assert_allclose(grad[0], [0.25, -0.75, 0.25, 0.25])
        np.testing.assert_allclose(grad[1:], np.zeros((3, 4)), atol=1e-15)

    def test_chunk_boundaries_not_counted(self):
        model = CharLMModel(3)
        joined = model.transition_counts(["abc" * 4])
        split = model.transition_counts(["abc", "abc", "abc", "abc"])
        assert joined.sum() == 11
        assert split.sum() == 8  # three boundary pairs dropped

    def test_counts_match_per_string_loop(self):
        rng = np.random.default_rng(8)
        model = CharLMModel(4)
        for _ in range(100):
            lengths = rng.integers(0, 6, size=rng.integers(1, 6))
            batch = ["".join(model.vocab[i] for i in rng.integers(0, 4, size=n)) for n in lengths]
            want = np.zeros((4, 4))
            for s in batch:
                for prev, nxt in zip(s, s[1:]):
                    want[model.vocab.index(prev), model.vocab.index(nxt)] += 1
            if want.sum() == 0:
                with pytest.raises(EmptyBatch):
                    model.transition_counts(batch)
            else:
                np.testing.assert_array_equal(model.transition_counts(batch), want)

    def test_rejects_unknown_characters(self):
        model = CharLMModel(3)
        with pytest.raises(ValueError):
            model.loss(np.zeros(9), ["abz"])
        with pytest.raises(ValueError, match="outside the vocabulary"):
            model.loss(np.zeros(9), ["ab\0c"])  # NUL separates strings internally
        # the error names every unknown character, non-ASCII and NUL included
        with pytest.raises(ValueError, match="outside the vocabulary: 'zé'"):
            model.loss(np.zeros(9), ["abz", "cé", "ba"])
        with pytest.raises(ValueError, match=r"outside the vocabulary: '\\x00z'"):
            model.loss(np.zeros(9), Dataset(["ab\0c", "zz"]))

    def test_vocab_size_must_fit_the_alphabet(self):
        for size in (-30, 0, 1, 37, 40):
            with pytest.raises(ValueError, match=r"vocab_size must lie in \[2, 36\]"):
                CharLMModel(size)
        assert CharLMModel(2).vocab == "ab" and CharLMModel(36).vocab_size == 36

    def test_no_transitions_raises(self):
        model = CharLMModel(3)
        with pytest.raises(EmptyBatch):
            model.loss(np.zeros(9), ["a", "b"])
        with pytest.raises(EmptyBatch):
            model.loss(np.zeros(9), [])


class TestSoftmax:
    def test_uniform_logits(self):
        model = SoftmaxModel(2, 3)
        batch = [(np.array([1.0, -2.0]), 0)]
        assert model.loss(np.zeros(6), batch) == pytest.approx(np.log(3.0), rel=1e-12)

    def test_label_range_checked(self):
        model = SoftmaxModel(2, 3)
        for label in (7, -1, 1.5):
            with pytest.raises(ValueError):
                model.loss(np.zeros(6), [(np.zeros(2), label)])

    def test_feature_length_checked(self):
        model = SoftmaxModel(2, 3)
        with pytest.raises(DimensionError):
            model.loss(np.zeros(6), [(np.zeros(5), 0)])
        with pytest.raises(DimensionError):  # scalar features
            SoftmaxModel(1, 3).loss(np.zeros(3), [(1.0, 0), (2.0, 1)])


def _quadratic_case(rng):
    family = QuadraticTaskFamily(rng.uniform(0.5, 2.0, (2, 3)), rng.normal(size=(2, 3)))
    dataset = family.domain_dataset([0.3, 0.7], noise=0.2, size=5, rng=rng)
    return family.model(), dataset, rng.normal(size=3), lambda m, b: m._stack(b)


def _char_case(rng):
    model = CharLMModel(4)
    dataset = Dataset(["".join(model.vocab[i] for i in rng.integers(0, 4, size=n)) for n in (7, 1, 12, 5)])
    return model, dataset, rng.normal(size=16), lambda m, b: (m.transition_counts(b),)


def _softmax_case(rng):
    dataset = Dataset([(rng.normal(size=2), int(rng.integers(3))) for _ in range(6)])
    return SoftmaxModel(2, 3), dataset, rng.normal(size=6), lambda m, b: m._stack(b)


@pytest.mark.parametrize("case", [_quadratic_case, _char_case, _softmax_case], ids=["quadratic", "char", "softmax"])
class TestDatasetMemo:
    """A whole Dataset as the batch: prepared once, same results as its list."""

    def test_bitwise_equal_to_list_batch(self, case):
        model, dataset, params, _ = case(np.random.default_rng(4))
        for _ in range(3):  # the first call fills the memo, the later ones read it
            assert model.loss(params, dataset) == model.loss(params, list(dataset))
            assert model.grad(params, dataset).tobytes() == model.grad(params, list(dataset)).tobytes()

    def test_prepared_once_and_read_only(self, case):
        model, dataset, _, prepared = case(np.random.default_rng(5))
        first = prepared(model, dataset)
        assert all(a is b for a, b in zip(first, prepared(model, dataset)))
        for arr in first:
            with pytest.raises(ValueError):
                arr[...] = 0
        # a list is wrapped in a Dataset, so what is prepared from it is read-only too
        assert not any(arr.flags.writeable for arr in prepared(model, list(dataset)))

    def test_memo_holds_datasets_weakly(self, case):
        model, dataset, _, _ = case(np.random.default_rng(6))
        store = MixtureStore({"d": dataset}, {"t": Dataset(list(dataset))})
        cfg = ReweightConfig(total_steps=2, update_every_alpha=1, update_every_z=1,
                             task_mix_mode="expected", domain_mix_mode="expected")
        train_run(cfg, model, store, seed=0)
        refs = [weakref.ref(ds) for ds in (*store.domains.values(), *store.tasks.values())]
        assert all(len(ref()._prepared) == 1 for ref in refs)
        del store, dataset
        gc.collect()
        # neither the model nor anything the run left behind keeps a dataset alive
        assert all(ref() is None for ref in refs)


def test_char_dataset_error_is_never_cached():
    model = CharLMModel(3)
    dataset = Dataset(["abc", "abz"])
    for _ in range(3):
        with pytest.raises(ValueError, match="outside the vocabulary"):
            model.grad(np.zeros(9), dataset)
        with pytest.raises(ValueError, match="outside the vocabulary"):
            model.loss(np.zeros(9), dataset)
    assert not dataset._prepared


class _NoParamsModel:
    param_dim = 0

    def initial_params(self):
        return np.zeros(0)

    def loss(self, params, batch):
        return 1.0

    def grad(self, params, batch):
        return np.zeros(0)


class TestFiniteDiff:
    def test_quadratic_nearly_exact(self):
        family = simple_family()
        model = family.model()
        batch = list(family.task_dataset(0))
        assert finite_diff_check(model, np.array([0.7, -0.2]), batch, h=1e-5) <= 1e-9

    def test_char_lm_within_tolerance(self):
        rng = np.random.default_rng(2)
        model = CharLMModel(4)
        batch = ["".join(model.vocab[i] for i in rng.integers(0, 4, size=30))]
        assert finite_diff_check(model, rng.normal(size=16), batch, h=1e-5) <= 1e-6

    def test_list_batch_prepared_once(self, monkeypatch):
        counted = []
        count = CharLMModel._count_transitions
        monkeypatch.setattr(CharLMModel, "_count_transitions",
                            lambda self, batch: counted.append(batch) or count(self, batch))
        rng = np.random.default_rng(2)
        model = CharLMModel(4)
        batch = ["".join(model.vocab[i] for i in rng.integers(0, 4, size=30))]
        finite_diff_check(model, rng.normal(size=16), batch)
        assert len(counted) == 1  # not once per each of the 2 * 16 + 1 model calls

    def test_zero_dim_model_vacuous(self):
        assert finite_diff_check(_NoParamsModel(), np.zeros(0), ["x"]) == 0.0

    def test_h_range_enforced(self):
        model = simple_family().model()
        batch = list(simple_family().task_dataset(0))
        with pytest.raises(ValueError):
            finite_diff_check(model, np.zeros(2), batch, h=1e-8)
        with pytest.raises(ValueError):
            finite_diff_check(model, np.zeros(2), batch, h=1e-2)

    def test_all_builtins_randomized(self):
        rng = np.random.default_rng(3)
        family = QuadraticTaskFamily(rng.uniform(0.5, 2.0, (2, 3)), rng.normal(size=(2, 3)))
        quad = family.model()
        for _ in range(20):
            batch = list(family.domain_dataset(rng.dirichlet(np.ones(2)), noise=0.2, size=3, rng=rng))
            assert finite_diff_check(quad, rng.normal(size=3), batch) <= 1e-6
        lm = CharLMModel(4)
        for _ in range(20):
            batch = ["".join(lm.vocab[i] for i in rng.integers(0, 4, size=15)) for _ in range(2)]
            assert finite_diff_check(lm, rng.normal(size=16), batch) <= 1e-6
        sm = SoftmaxModel(2, 3)
        for _ in range(20):
            batch = [(rng.normal(size=2), int(rng.integers(3))) for _ in range(4)]
            assert finite_diff_check(sm, rng.normal(size=6) * 0.5, batch) <= 1e-6
