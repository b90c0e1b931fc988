"""Built-in models: exact values, gradient contracts, minimax oracle."""

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grapemix
from grapemix import (
    CharLMModel,
    Dataset,
    DimensionError,
    EmptyBatch,
    MarkovLanguageSpec,
    MixtureStore,
    QuadraticTaskFamily,
    ReweightConfig,
    SimplexWeights,
    SoftmaxModel,
    finite_diff_check,
    generate_markov_corpus,
    sample_domain_batches,
    sample_mixture_batch,
    sample_task_batches,
    train_run,
)
from grapemix import verify
from grapemix.models import _as_dataset
from grapemix.verify import harness_family


def simple_family():
    # single task l(theta) = 0.5 ||theta||^2 in 2-D
    return QuadraticTaskFamily(curvatures=[[1.0, 1.0]], centers=[[0.0, 0.0]])


class TestQuadratic:
    def test_loss_at_optimum_is_zero(self):
        family = QuadraticTaskFamily(curvatures=[[1.5, 0.7]], centers=[[2.0, -1.0]])
        model = family.model()
        assert model is family and model.param_dim == family.dim == 2
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


def _certificate(family, z):
    """max_n l_n(theta(z)) - g(z): by weak duality, an upper bound on how far either term is from OPT."""
    value = family.all_task_losses((z @ (family.curvatures * family.centers)) / (z @ family.curvatures)).max()
    return value - family.dual_value(z), value


@st.composite
def normal_families(draw):
    """N, D in 1..6, curvatures uniform in [0.1, 5], centers standard normal."""
    tasks, dim, seed = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return QuadraticTaskFamily(rng.uniform(0.1, 5.0, (tasks, dim)), rng.normal(size=(tasks, dim)))


@st.composite
def grid_families(draw):
    """Entries from a few values, so duplicate tasks, shared centers and tied losses are common."""
    tasks, dim = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = lambda values: np.array(draw(st.lists(st.sampled_from(values), min_size=tasks * dim,
                                                    max_size=tasks * dim))).reshape(tasks, dim)
    return QuadraticTaskFamily(entries([0.1, 1.0, 5.0]), entries([-1.0, 0.0, 0.5, 2.0]))


class TestMinimaxOracle:
    """The dual oracle: g(z) <= OPT for every z, and a certified z* at which the two meet."""

    @settings(max_examples=150, deadline=None)
    @given(family=st.one_of(normal_families(), grid_families()))
    def test_certified_on_random_families(self, family):
        z = family.minimax_weights()
        gap, value = _certificate(family, z)
        assert gap <= 1e-12 * max(1.0, value)
        theta, opt = family.minimax_optimum()
        np.testing.assert_array_equal(theta, (z @ (family.curvatures * family.centers)) / (z @ family.curvatures))
        assert opt == value

    def test_harness_optimum_pinned(self):
        _, opt = harness_family().minimax_optimum()
        assert abs(opt - 0.12196848164316046) <= 1e-12

    def test_dual_value_bounds_optimum(self):
        family = harness_family()
        _, opt = family.minimax_optimum()
        rng = np.random.default_rng(11)
        for z in rng.dirichlet(np.full(family.num_tasks, 0.5), size=200):
            assert family.dual_value(z) <= opt + 1e-15
        assert family.dual_value(family.minimax_weights()) == pytest.approx(opt, abs=1e-12)

    def test_dual_value_rejects_non_weights(self):
        family = harness_family()
        for z in ([0.5, 0.5], [0.5, 0.5, 0.5], [1.5, -0.5, 0.0], [np.nan, 0.5, 0.5]):
            with pytest.raises(ValueError, match="not a probability vector over the 3 tasks"):
                family.dual_value(z)

    def test_uncertified_search_raises(self, monkeypatch):
        # with no step toward the optimum, the uniform weights are all it can offer
        monkeypatch.setattr(QuadraticTaskFamily, "_central_point", lambda self, z, mu: z)
        monkeypatch.setattr(QuadraticTaskFamily, "_face_optimum", lambda self, z, support: z)
        with pytest.raises(RuntimeError, match="no certified minimax optimum"):
            harness_family().minimax_optimum()

    def test_import_loads_no_scipy(self):
        env = {**os.environ, "PYTHONPATH": str(Path(grapemix.__file__).parents[1])}
        code = "import grapemix, sys; assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


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
    return family.model(), dataset, rng.normal(size=3), lambda m, b: _as_dataset(b).rows(m._stack_examples)


def _char_case(rng):
    model = CharLMModel(4)
    dataset = Dataset(["".join(model.vocab[i] for i in rng.integers(0, 4, size=n)) for n in (7, 1, 12, 5)])
    return model, dataset, rng.normal(size=16), lambda m, b: (m.transition_counts(b),)


def _softmax_case(rng):
    dataset = Dataset([(rng.normal(size=2), int(rng.integers(3))) for _ in range(6)])
    return SoftmaxModel(2, 3), dataset, rng.normal(size=6), lambda m, b: _as_dataset(b).rows(m._stack_examples)


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
        # one preparation per dataset, kept beside its last loss and grad
        assert all(len(set(ref()._kept) - {model._loss, model._grad}) == 1 for ref in refs)
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
    assert not dataset._kept


def _view_store(kind, lengths, rng):
    """A model of ``kind`` and a store of 1-3 domains and 1-3 tasks of its
    records; char strings have lengths drawn from ``lengths``."""
    k, n = (int(c) for c in rng.integers(1, 4, size=2))
    if kind == "quadratic":
        model = QuadraticTaskFamily(rng.uniform(0.5, 2.0, (2, 3)), rng.normal(size=(2, 3)))

        def dataset(side, i):
            if side == "t":
                return model.task_dataset(i % 2)
            return model.domain_dataset(rng.dirichlet(np.ones(2)), noise=0.3, size=int(rng.integers(1, 6)), rng=rng)
    elif kind == "char":
        model = CharLMModel(int(rng.integers(2, 5)))

        def dataset(side, i):
            return Dataset(["".join(rng.choice(list(model.vocab), size=int(rng.choice(lengths))))
                            for _ in range(int(rng.integers(1, 6)))])
    else:
        model = SoftmaxModel(2, 3)

        def dataset(side, i):
            return Dataset([(rng.normal(size=2), int(rng.integers(3))) for _ in range(int(rng.integers(1, 6)))])
    store = MixtureStore({f"d{i}": dataset("d", i) for i in range(k)}, {f"t{i}": dataset("t", i) for i in range(n)})
    return model, store


def _sampled_views(store, rng):
    """A mixture batch and the per-component batches of each side."""
    views = []
    for labels, sample in ((store.domain_labels, sample_domain_batches), (store.task_labels, sample_task_batches)):
        raw = rng.uniform(size=len(labels)) * (rng.uniform(size=len(labels)) < 0.7)
        raw[int(rng.integers(len(labels)))] += 0.1  # at least one live component
        weights = SimplexWeights(raw / raw.sum(), labels)
        views.append(sample_mixture_batch(store, weights, int(rng.integers(1, 9)), rng))
        views += sample(store, int(rng.integers(1, 9)), rng)
    return views


class TestViewsAreTheSameBatch:
    """A sampled batch is a view of its side's pool; a model sees in it
    exactly the batch of its examples."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["quadratic", "char", "softmax"]),
           lengths=st.lists(st.sampled_from([1, 2, 5, 33, 255, 256, 300]), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    @example(kind="char", lengths=[1], seed=0)  # no transitions anywhere
    @example(kind="char", lengths=[1, 300], seed=1)  # a table wider than uint8
    def test_loss_and_grad_bitwise_equal_to_copy(self, kind, lengths, seed):
        rng = np.random.default_rng(seed)
        model, store = _view_store(kind, lengths, rng)
        params = rng.normal(size=model.param_dim)
        for view in _sampled_views(store, rng):
            copy = Dataset(list(view))
            try:
                want = model.loss(params, copy), model.grad(params, copy).tobytes()
            except EmptyBatch:
                with pytest.raises(EmptyBatch):
                    model.loss(params, view)
                with pytest.raises(EmptyBatch):
                    model.grad(params, view)
                continue
            for _ in range(2):  # the first call fills the memos, the second reads them
                assert model.loss(params, view) == want[0]
                assert model.grad(params, view).tobytes() == want[1]
            prepared = (model.transition_counts(view),) if kind == "char" else view.rows(model._stack_examples)
            assert not any(arr.flags.writeable for arr in prepared)
        if kind == "char":
            for side in ("domains", "tasks"):
                pool = store.pool(side)[0]
                if model._row_counts in pool._kept:
                    table = pool.prepared(model._row_counts)
                    assert table.dtype == np.min_scalar_type(max(map(len, pool)))
                    assert table.dtype != np.uint8 or max(map(len, pool)) <= 255
                    assert not table.flags.writeable


# A one-example batch each model rejects, and the error it raises.
_BAD_BATCH = {
    "quadratic": (["not a record"], TypeError),
    "char": (["a", "b"], EmptyBatch),  # no transitions
    "softmax": ([(np.zeros(2), 7)], ValueError),  # label out of range
}


def _counting(counts, name, evaluate):
    def counted(self, params, batch):
        counts[name] += 1
        return evaluate(self, params, batch)
    return counted


class TestEvaluationMemo:
    """A batch keeps each model's last ``loss`` and ``grad`` per parameter
    vector; whatever came before, a call returns bitwise what a fresh batch
    of the same examples gives."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["quadratic", "char", "softmax"]), seed=st.integers(0, 2**32 - 1),
           calls=st.lists(st.tuples(st.integers(0, 63), st.sampled_from(["loss", "grad"]), st.integers(0, 4)),
                          min_size=1, max_size=30))
    def test_bitwise_equal_to_a_fresh_batch(self, kind, seed, calls):
        rng = np.random.default_rng(seed)
        model, store = _view_store(kind, [1, 5, 12], rng)
        records, error = _BAD_BATCH[kind]
        bad = Dataset(records)
        batches = [*store.domains.values(), *store.tasks.values(), *_sampled_views(store, rng), bad]
        base = rng.normal(size=model.param_dim)
        probe = base.copy()  # changed in place before each call at it, as finite_diff_check does
        zero = np.zeros(model.param_dim)
        params = [base, rng.normal(size=model.param_dim), zero, -zero, probe]
        for b, what, p in calls:
            batch = batches[b % len(batches)]
            if params[p] is probe:
                i = b % model.param_dim
                probe[i] = base[i] + 1e-5 if probe[i] == base[i] else base[i]
            evaluate = getattr(model, what)
            try:
                want = np.asarray(evaluate(params[p], Dataset(list(batch)))).tobytes()
            except (EmptyBatch, TypeError, ValueError) as exc:
                with pytest.raises(type(exc)):
                    evaluate(params[p], batch)
                assert not batch._kept  # the failure is not kept
                continue
            got = evaluate(params[p], batch)
            assert np.asarray(got).tobytes() == want
            assert type(got) is float if what == "loss" else not got.flags.writeable
        for _ in range(2):
            for evaluate in (model.loss, model.grad):
                with pytest.raises(error):
                    evaluate(base, bad)

    @pytest.mark.parametrize("steps", [1, 6])
    def test_theorem1_evaluates_each_gradient_and_loss_once(self, monkeypatch, steps):
        # Per step: the 3 domain and 3 task gradients and the 3 task losses at the new
        # parameters; the step before the first adds the initial losses and the domain
        # gradients at the start.  The counters count what the algorithm asks for.
        counts = {"_grad": 0, "_loss": 0}
        for name in counts:
            monkeypatch.setattr(QuadraticTaskFamily, name, _counting(counts, name, getattr(QuadraticTaskFamily, name)))
        monkeypatch.setattr(verify, "ReweightConfig", lambda **kw: ReweightConfig(**{**kw, "total_steps": steps}))
        _, trajectory = verify.theorem1_run()
        assert trajectory.final_counters == (steps, 6 * steps, 6 * steps)
        assert counts == {"_grad": 6 * steps + 3, "_loss": 3 * steps + 3}


def _char_store(vocab_size=3, bad=""):
    """Two domains and two tasks of chain text; ``bad`` is appended to one
    chunk of the second domain."""
    spec = MarkovLanguageSpec(vocab_size, np.full((vocab_size, vocab_size), 1.0 / vocab_size))
    rng = np.random.default_rng(0)
    domains = {f"d{i}": generate_markov_corpus(spec, 2000, rng, seq_len=20) for i in range(2)}
    tasks = {f"t{i}": generate_markov_corpus(spec, 400, rng, seq_len=20) for i in range(2)}
    if bad:
        domains["d1"] = Dataset(domains["d1"].examples[:-1] + [domains["d1"][-1] + bad])
    return MixtureStore(domains, tasks)


class TestPools:
    def test_one_table_per_side_and_model(self, monkeypatch):
        calls = []
        row_counts = CharLMModel._row_counts
        monkeypatch.setattr(CharLMModel, "_row_counts", lambda self, pool: calls.append(pool) or row_counts(self, pool))
        store = _char_store()
        cfg = ReweightConfig(algorithm="grape", total_steps=200, update_every_alpha=10, update_every_z=10,
                             train_batch_size=8, eval_batch_size=8)
        train_run(cfg, CharLMModel(3), store, seed=0)
        pools = [store.pool(side)[0] for side in ("domains", "tasks")]
        assert len(calls) == 2 and all(any(p is pool for p in calls) for pool in pools)
        train_run(cfg, CharLMModel(3), store, seed=1)  # a second model on the same store
        assert len(calls) == 4
        assert all(len(pool._kept) == 2 for pool in pools)

    def test_unknown_characters_anywhere_in_a_side_fail_the_first_sampled_batch(self):
        store = _char_store(bad="z")
        model = CharLMModel(3)
        only_d0 = SimplexWeights([1.0, 0.0], store.domain_labels)
        view = sample_mixture_batch(store, only_d0, 4, np.random.default_rng(0))
        assert all(set(text) <= set(model.vocab) for text in view)  # the bad chunk was not drawn
        for _ in range(2):  # the failure is not kept
            with pytest.raises(ValueError, match="outside the vocabulary: 'z'"):
                model.loss(np.zeros(9), view)
        # the task side is clean, and the whole domain datasets are counted from their own text
        model.loss(np.zeros(9), sample_task_batches(store, 4, np.random.default_rng(0))[0])
        model.loss(np.zeros(9), store.domains["d0"])


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
