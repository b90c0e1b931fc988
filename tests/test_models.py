"""Built-in models: exact values, gradient contracts, minimax oracle."""

import gc
import os
import subprocess
import sys
import types
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
    sample_mixture_batches,
    sample_task_batches,
    train_run,
)
from grapemix import models, verify
from grapemix.data import Block
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
    return family.model(), dataset, rng.normal(size=3)


def _char_case(rng):
    model = CharLMModel(4)
    dataset = Dataset(["".join(model.vocab[i] for i in rng.integers(0, 4, size=n)) for n in (7, 1, 12, 5)])
    return model, dataset, rng.normal(size=16)


def _softmax_case(rng):
    dataset = Dataset([(rng.normal(size=2), int(rng.integers(3))) for _ in range(6)])
    return SoftmaxModel(2, 3), dataset, rng.normal(size=6)


@pytest.mark.parametrize("case", [_quadratic_case, _char_case, _softmax_case], ids=["quadratic", "char", "softmax"])
class TestWholeDatasetBatches:
    """A whole Dataset as the batch: the same results as its list, and only
    the store side keeps what is prepared from it, read-only."""

    def test_bitwise_equal_to_list_batch(self, case):
        model, dataset, params = case(np.random.default_rng(4))
        for _ in range(3):  # nothing is kept between calls
            assert model.loss(params, dataset) == model.loss(params, list(dataset))
            assert model.grad(params, dataset).tobytes() == model.grad(params, list(dataset)).tobytes()

    def test_store_keeps_sides_weakly_held(self, case):
        model, dataset, _ = case(np.random.default_rng(6))
        store = MixtureStore({"d": dataset}, {"t": Dataset(list(dataset))})
        cfg = ReweightConfig(total_steps=2, update_every_alpha=1, update_every_z=1,
                             task_mix_mode="expected", domain_mix_mode="expected")
        train_run(cfg, model, store, seed=0)
        refs = [weakref.ref(ds) for ds in (*store.domains.values(), *store.tasks.values())]
        # one preparation per side, kept by the side, and nothing else kept in it
        assert all(len(store.datasets(side)._prepared) == 1 for side in ("domains", "tasks"))
        del store, dataset
        gc.collect()
        # neither the model nor anything the run left behind keeps a dataset alive
        assert all(ref() is None for ref in refs)

    def test_a_side_is_prepared_once_per_model(self, case):
        model, dataset, _ = case(np.random.default_rng(5))
        side = MixtureStore({"d": dataset}, {"t": Dataset(list(dataset))}).datasets("domains")
        block = Block(side, np.array([[0, 1], [2, 0], [1, 1]]))
        rows, gathered = model.prepare(side), model.prepare(block)
        assert model.prepare(side) is rows
        table = side.prepared(model._table)
        assert [arr.tobytes() for arr in model.prepare(block)] == [arr.tobytes() for arr in gathered]
        assert side.prepared(model._table) is table and len(side._prepared) == 2  # one stack, one table
        # another model of the same kind prepares its own, bitwise the same
        other = _fresh(model)
        assert other.prepare(side) is not rows and len(side._prepared) == 3
        assert [arr.tobytes() for arr in other.prepare(side)] == [arr.tobytes() for arr in rows]
        # a list of the same datasets is stacked afresh, bitwise the same, and not kept
        assert [arr.tobytes() for arr in model.prepare(list(side))] == [arr.tobytes() for arr in rows]
        assert len(side._prepared) == 3

    def test_what_a_side_keeps_is_read_only(self, case):
        model, dataset, params = case(np.random.default_rng(7))
        # datasets of two sizes, so the quadratic and softmax stacks hold object arrays
        store = MixtureStore({"d": dataset, "e": Dataset(list(dataset)[:2])}, {"t": Dataset(list(dataset))})
        side = store.datasets("domains")
        table = side.prepared(model._table)  # a tuple of arrays, as every model's is
        kept = [*model.prepare(side), *table]
        arrays = kept + [inner for arr in kept if arr.dtype == object for inner in arr]
        assert len(arrays) > len(kept) or isinstance(model, CharLMModel)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr.reshape(-1)[:1] = arr.reshape(-1)[:1]
        # what the run gathers from them is its own, and the side's evaluation at a point is shared and read-only
        assert all(arr.flags.writeable for arr in model.prepare(Block(side, np.array([[0, 1]]))))
        point = models.Point(model, params)
        for whole in (point.grads(side), point.losses(side)):
            assert not whole.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                whole[0] = 0.0
        assert point.grads(side) is point.grads(side) and point.losses(side) is point.losses(side)


def test_char_dataset_error_is_never_cached():
    model = CharLMModel(3)
    dataset = Dataset(["abc", "abz"])
    for _ in range(3):
        with pytest.raises(ValueError, match="outside the vocabulary"):
            model.grad(np.zeros(9), dataset)
        with pytest.raises(ValueError, match="outside the vocabulary"):
            model.loss(np.zeros(9), dataset)


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


def _sampled_blocks(store, rng):
    """A block of mixture batches and the per-component block of each side."""
    blocks = []
    for labels, sample in ((store.domain_labels, sample_domain_batches), (store.task_labels, sample_task_batches)):
        raw = rng.uniform(size=len(labels)) * (rng.uniform(size=len(labels)) < 0.7)
        raw[int(rng.integers(len(labels)))] += 0.1  # at least one live component
        weights = SimplexWeights(raw / raw.sum(), labels)
        blocks.append(sample_mixture_batches(store, weights, int(rng.integers(1, 9)), int(rng.integers(1, 4)), rng))
        blocks.append(sample(store, int(rng.integers(1, 9)), rng))
    return blocks


def _sampled_views(store, rng):
    """The batches of ``_sampled_blocks``."""
    return [view for block in _sampled_blocks(store, rng) for view in block]


def _row(rows, l):
    """Row ``l`` of prepared rows, as the rows of a batch of one."""
    return tuple(arr[l : l + 1] for arr in rows)


class TestViewsAreTheSameBatch:
    """A sampled batch is a view of its side's pool; a model sees in it,
    and in its row of its block's preparation, exactly the batch of its
    examples."""

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
        tables = model.tables(params)
        for block in _sampled_blocks(store, rng):
            rows = model.prepare(block)
            for l, view in enumerate(block):
                copy = Dataset(list(view))
                try:
                    want = _fresh(model).loss(params, copy), _fresh(model).grad(params, copy).tobytes()
                except EmptyBatch:
                    for evaluate in (model.loss, model.grad):
                        with pytest.raises(EmptyBatch):
                            evaluate(params, view)
                    for evaluate in (model.row_losses, model.row_grads):
                        with pytest.raises(EmptyBatch):
                            evaluate(tables, _row(rows, l))
                    continue
                for _ in range(2):  # nothing is kept between calls
                    assert model.loss(params, view) == want[0]
                    assert model.grad(params, view).tobytes() == want[1]
                assert model.row_losses(tables, _row(rows, l))[0] == want[0]
                assert model.row_grads(tables, _row(rows, l))[0].tobytes() == want[1]
        if kind == "char":
            for side in ("domains", "tasks"):
                side = store.datasets(side)
                if model._table in side._prepared:
                    (table,), pool = side.prepared(model._table), side.pool()[0]
                    assert table.dtype == np.min_scalar_type(max(map(len, pool)))
                    assert table.dtype != np.uint8 or max(map(len, pool)) <= 255


# A one-example batch each model rejects, and the error it raises.
_BAD_BATCH = {
    "quadratic": (["not a record"], TypeError),
    "char": (["a", "b"], EmptyBatch),  # no transitions
    "softmax": ([(np.zeros(2), 7)], ValueError),  # label out of range
}


def _counting(counts, name, evaluate):
    """``evaluate``, counting the rows it evaluates: one per ``loss``/``grad`` call, and
    one per prepared row of a ``row_losses``/``row_grads`` call."""
    def counted(self, params, batches):
        counts[name] += len(batches[0]) if name.startswith("row_") else 1
        return evaluate(self, params, batches)
    return counted


class TestEvaluationMemo:
    """No batch and no model keeps a ``loss`` or ``grad``; whatever came
    before, a call returns bitwise what a fresh model gives on a fresh
    batch of the same examples."""

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
                want = np.asarray(getattr(_fresh(model), what)(params[p], Dataset(list(batch)))).tobytes()
            except (EmptyBatch, TypeError, ValueError) as exc:
                with pytest.raises(type(exc)):
                    evaluate(params[p], batch)
                continue
            got = evaluate(params[p], batch)
            assert np.asarray(got).tobytes() == want
            assert type(got) is float if what == "loss" else got.shape == (model.param_dim,)
        for _ in range(2):
            for evaluate in (model.loss, model.grad):
                with pytest.raises(error):
                    evaluate(base, bad)

    @pytest.mark.parametrize("steps", [1, 6])
    def test_theorem1_evaluates_each_gradient_and_loss_once(self, monkeypatch, steps):
        # Per step: the 3 domain and 3 task gradients and the 3 task losses at the new
        # parameters; the step before the first adds the initial losses and the domain
        # gradients at the start.  Each is a row of one batched call per side and kind,
        # and no batch is evaluated on its own.  The counters count what the algorithm asks for.
        rows = {"row_grads": 0, "row_losses": 0, "grad": 0, "loss": 0}
        for name in rows:
            monkeypatch.setattr(QuadraticTaskFamily, name, _counting(rows, name, getattr(QuadraticTaskFamily, name)))
        monkeypatch.setattr(verify, "ReweightConfig", lambda **kw: ReweightConfig(**{**kw, "total_steps": steps}))
        _, trajectory = verify.theorem1_run()
        assert trajectory.final_counters == (steps, 6 * steps, 6 * steps)
        assert rows == {"row_grads": 6 * steps + 3, "row_losses": 3 * steps + 3, "grad": 0, "loss": 0}


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
        table = CharLMModel._table
        monkeypatch.setattr(CharLMModel, "_table", lambda self, side: calls.append(side) or table(self, side))
        store = _char_store()
        cfg = ReweightConfig(algorithm="grape", total_steps=200, update_every_alpha=10, update_every_z=10,
                             train_batch_size=8, eval_batch_size=8)
        train_run(cfg, CharLMModel(3), store, seed=0)
        sides = [store.datasets(side) for side in ("domains", "tasks")]
        assert len(calls) == 2 and all(any(s is side for s in calls) for side in sides)
        train_run(cfg, CharLMModel(3), store, seed=1)  # a second model on the same store
        assert len(calls) == 4
        assert all(len(side._prepared) == 2 for side in sides)

    def test_unknown_characters_anywhere_in_a_side_fail_the_first_sampled_block(self):
        store = _char_store(bad="z")
        model = CharLMModel(3)
        only_d0 = SimplexWeights([1.0, 0.0], store.domain_labels)
        block = sample_mixture_batches(store, only_d0, 4, 2, np.random.default_rng(0))
        assert all(set(text) <= set(model.vocab) for view in block for text in view)  # the bad chunk was not drawn
        for _ in range(2):  # the failure is not kept
            with pytest.raises(ValueError, match="outside the vocabulary: 'z'"):
                model.prepare(block)
        # a batch alone, the clean task side and the whole domain datasets are counted from their own text
        model.loss(np.zeros(9), block[0])
        model.prepare(sample_task_batches(store, 4, np.random.default_rng(0)))
        model.loss(np.zeros(9), store.domains["d0"])


class TestBlockMembers:
    """The char LM counts the batches of one block together; each row of a
    block's preparation evaluates bitwise as a fresh model on a fresh copy
    of its batch."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 9), count=st.integers(1, 5),
           lengths=st.lists(st.sampled_from([1, 2, 5, 33, 300]), min_size=1, max_size=3))
    @example(seed=0, size=3, count=4, lengths=[1, 2])  # members with and without transitions
    def test_members_bitwise_equal_to_fresh_copies(self, seed, size, count, lengths):
        rng = np.random.default_rng(seed)
        model, store = _view_store("char", lengths, rng)
        weights = SimplexWeights(rng.dirichlet(np.ones(store.num_domains)), store.domain_labels)
        params = rng.normal(size=model.param_dim)
        tables = model.tables(params)
        # the mixture batches drawn at once, then each side's per-component batches
        for block in (sample_mixture_batches(store, weights, size, count, rng),
                      sample_domain_batches(store, size, rng), sample_task_batches(store, size, rng)):
            rows = model.prepare(block)
            for l, member in enumerate(block):
                fresh, fresh_model = Dataset(list(member)), CharLMModel(model.vocab_size)
                try:
                    want = (fresh_model.transition_counts(fresh).tobytes(), fresh_model.loss(params, fresh),
                            fresh_model.grad(params, fresh).tobytes())
                except EmptyBatch:
                    assert not rows[0][l].any() and rows[2][l] == 0
                    for evaluate in (model.row_losses, model.row_grads):
                        with pytest.raises(EmptyBatch):
                            evaluate(tables, _row(rows, l))
                    continue
                got = (rows[0][l].tobytes(), model.row_losses(tables, _row(rows, l))[0],
                       model.row_grads(tables, _row(rows, l))[0].tobytes())
                assert got == want

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 9), count=st.integers(1, 6),
           chunk=st.integers(1, 12), per_component=st.booleans())
    def test_small_gather_chunks_give_the_same_counts(self, seed, size, count, chunk, per_component):
        # a block is gathered at most ``_DRAW_BLOCK`` examples, and at least one batch, at a time
        rng = np.random.default_rng(seed)
        model, store = _view_store("char", [1, 2, 5, 33], rng)
        if per_component:
            block = sample_domain_batches(store, size, rng)
        else:
            weights = SimplexWeights(rng.dirichlet(np.ones(store.num_domains)), store.domain_labels)
            block = sample_mixture_batches(store, weights, size, count, rng)
        want = CharLMModel(model.vocab_size).prepare(block)
        (table,), gathers = block.side.prepared(model._table), []

        class Gathers:
            def __getitem__(self, index):
                gathers.append(len(index))
                return table[index]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(models, "_DRAW_BLOCK", chunk)
            got = model._gather((Gathers(),), block.index)
        assert [arr.tobytes() for arr in got] == [arr.tobytes() for arr in want]
        per = max(1, chunk // size)
        assert gathers == [min(per, len(block) - start) for start in range(0, len(block), per)]

    def test_a_member_without_transitions_fails_alone(self):
        model = CharLMModel(3)
        store = MixtureStore({"d": Dataset(["a", "b", "abca", "cab"])}, {"t": Dataset(["ab"])})
        # the first and last members hold only one-character strings
        block = Block(store.datasets("domains"), np.array([[0, 1], [2, 0], [1, 1], [3, 2]]))
        params = np.random.default_rng(2).normal(size=9)
        tables, rows = model.tables(params), model.prepare(block)  # preparing the block does not fail
        for l in (0, 2):
            for evaluate in (model.row_losses, model.row_grads) * 2:
                with pytest.raises(EmptyBatch, match="no character transitions"):
                    evaluate(tables, _row(rows, l))
        for l in (1, 3):
            fresh = Dataset(list(block[l]))
            assert model.row_losses(tables, _row(rows, l))[0] == CharLMModel(3).loss(params, fresh)
            assert model.row_grads(tables, _row(rows, l))[0].tobytes() == CharLMModel(3).grad(params, fresh).tobytes()
        with pytest.raises(EmptyBatch):  # the rows of the whole block
            model.row_grads(tables, rows)


def _fresh(model):
    """A new model of the same kind and shape as ``model``, with nothing kept."""
    if isinstance(model, QuadraticTaskFamily):
        return QuadraticTaskFamily(model.curvatures, model.centers)
    if isinstance(model, CharLMModel):
        return CharLMModel(model.vocab_size)
    return SoftmaxModel(model.n_features, model.n_classes)


class TestBatchedRows:
    """``prepare`` then ``row_losses``/``row_grads`` of R batches: each row is
    bitwise the ``loss``/``grad`` a fresh model gives on a fresh batch of the
    same examples, and a bad batch raises the error it raises alone."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["quadratic", "char", "softmax"]), seed=st.integers(0, 2**32 - 1),
           lengths=st.lists(st.sampled_from([1, 2, 5, 33]), min_size=1, max_size=3), bad_at=st.integers(0, 3))
    @example(kind="char", lengths=[1, 2], seed=3, bad_at=0)  # block members without transitions
    def test_rows_bitwise_equal_to_a_fresh_model(self, kind, seed, lengths, bad_at):
        rng = np.random.default_rng(seed)
        model, store = _view_store(kind, lengths, rng)
        params = rng.normal(size=model.param_dim)
        size = int(rng.integers(1, 6))
        weights = SimplexWeights(rng.dirichlet(np.ones(store.num_domains)), store.domain_labels)
        members = sample_mixture_batches(store, weights, size, 3, rng)
        domains, tasks = list(store.domains.values()), list(store.tasks.values())
        groups = {
            "a side's whole datasets": store.datasets("domains"),
            "the other side's, again": store.datasets("tasks"),
            "whole datasets of one size": [domains[0], domains[0]],
            "whole datasets of several sizes": [*domains, *tasks],
            "a block": sample_task_batches(store, size, rng),
            "a block of mixture batches": members,
            "some of a block's members": [members[2], members[0], members[2]],
            "members of two blocks": [*sample_domain_batches(store, size, rng), members[1]],
            "lists": [list(batch) for batch in (*members, domains[-1])],
        }
        for label, batches in groups.items():
            fresh = _fresh(model)
            try:
                want_losses = [fresh.loss(params, list(batch)) for batch in batches]
                want_grads = [fresh.grad(params, list(batch)) for batch in batches]
            except EmptyBatch:
                for evaluate in (model.row_losses, model.row_grads):
                    with pytest.raises(EmptyBatch):
                        evaluate(model.tables(params), model.prepare(batches))
                continue
            for _ in range(2):  # a side's preparation is kept, and read again
                rows = model.prepare(batches)
                losses, grads = model.row_losses(model.tables(params), rows), model.row_grads(model.tables(params), rows)
                assert losses.shape == (len(batches),) and grads.shape == (len(batches), model.param_dim), label
                assert losses.tobytes() == np.array(want_losses).tobytes(), label
                assert grads.tobytes() == np.array(want_grads).tobytes(), label
        records, error = _BAD_BATCH[kind]
        bad = Dataset(records)
        fresh = _fresh(model)
        with pytest.raises(error):
            fresh.grad(params, list(bad))
        sided = MixtureStore({"d": bad}, {"t": tasks[0]})
        for batches in (domains[:bad_at] + [bad] + tasks, sided.datasets("domains")):
            for evaluate in (fresh.row_losses, fresh.row_grads) * 2:
                with pytest.raises(error):
                    evaluate(fresh.tables(params), fresh.prepare(batches))


@pytest.mark.parametrize("model", [QuadraticTaskFamily, CharLMModel, SoftmaxModel], ids=lambda cls: cls.__name__)
def test_one_evaluation_entry_for_every_built_in_model(model):
    # each model gives only its _arrays and its row_losses/row_grads of prepared rows;
    # the public loss and grad prepare one batch and evaluate it in one call
    assert all(getattr(model, name) is getattr(models._BatchModel, name) for name in ("loss", "grad", "prepare"))


class TestParameterPoint:
    """The loop's point computes the char LM's log-probabilities once, and
    every batch evaluated there shares them; the model keeps nothing, so
    whatever came before, a call returns bitwise what a fresh model gives
    on a fresh batch."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           calls=st.lists(st.tuples(st.integers(0, 63), st.sampled_from(["loss", "grad"]), st.integers(0, 4),
                                    st.booleans()), min_size=1, max_size=30))
    def test_bitwise_equal_to_a_fresh_model(self, seed, calls):
        rng = np.random.default_rng(seed)
        model, store = _view_store("char", [1, 5, 12], rng)
        batches = [*store.domains.values(), *store.tasks.values(), *_sampled_views(store, rng)]
        base = rng.normal(size=model.param_dim)
        # the same vector twice, another, zeros; index 4 draws a fresh vector for each call
        params = [base, base.copy(), rng.normal(size=model.param_dim), np.zeros(model.param_dim)]
        for b, what, p, as_list in calls:
            batch = batches[b % len(batches)]
            theta = params[p] if p < len(params) else rng.normal(size=model.param_dim)
            try:
                want = np.asarray(getattr(CharLMModel(model.vocab_size), what)(theta, list(batch))).tobytes()
            except EmptyBatch:
                with pytest.raises(EmptyBatch):
                    getattr(model, what)(theta, batch)
                continue
            got = getattr(model, what)(theta, list(batch) if as_list else batch)
            assert np.asarray(got).tobytes() == want

    def test_a_point_computes_its_tables_once(self, monkeypatch):
        model = CharLMModel(3)
        params = np.random.default_rng(0).normal(size=9)
        calls, tables = [], CharLMModel.tables
        monkeypatch.setattr(CharLMModel, "tables", lambda self, p: calls.append(p) or tables(self, p))
        point = models.Point(model, params)
        assert not calls  # nothing is computed before the first evaluation
        grad = point.grads(point.prepare([["abca"]]))[0]
        loss = point.losses(model.prepare([Dataset(["cab", "bb"])]))[0]  # another batch at the same point
        assert len(calls) == 1 and calls[0] is params
        assert grad.tobytes() == CharLMModel(3).grad(params, ["abca"]).tobytes()
        assert loss == CharLMModel(3).loss(params, ["cab", "bb"])
        np.testing.assert_allclose(point._at()[1].sum(axis=1), 1.0)

    @pytest.mark.parametrize("texts,error", [(["a", "b"], EmptyBatch), (["abz"], ValueError)],
                             ids=["no-transitions", "outside-vocabulary"])
    def test_failure_keeps_nothing(self, texts, error):
        model = CharLMModel(3)
        params = np.random.default_rng(1).normal(size=9)
        bad = Dataset(texts)
        for evaluate in (model.loss, model.grad) * 2:
            with pytest.raises(error):
                evaluate(params, bad)
        fresh = CharLMModel(3)
        assert model.loss(params, ["abcab"]) == fresh.loss(params, ["abcab"])
        assert model.grad(params, ["abcab"]).tobytes() == fresh.grad(params, ["abcab"]).tobytes()

    @pytest.mark.parametrize("algorithm", ["grape", "doge_pcgrad"])
    def test_one_log_softmax_per_parameter_vector(self, monkeypatch, algorithm):
        seen = []
        log_softmax = models._log_softmax
        monkeypatch.setattr(models, "_log_softmax", lambda logits: seen.append(logits.tobytes()) or log_softmax(logits))
        cfg = ReweightConfig(algorithm=algorithm, total_steps=30, update_every_alpha=3, update_every_z=3,
                             task_mix_mode="expected", domain_mix_mode="expected")
        train_run(cfg, CharLMModel(3), _char_store(), seed=0)
        # the start and each step's parameters, and no vector twice
        assert 0 < len(seen) <= cfg.total_steps + 1 and len(set(seen)) == len(seen)


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
        arrays = CharLMModel._arrays
        monkeypatch.setattr(CharLMModel, "_arrays", lambda self, batch: counted.append(batch) or arrays(self, batch))
        rng = np.random.default_rng(2)
        model = CharLMModel(4)
        batch = ["".join(model.vocab[i] for i in rng.integers(0, 4, size=30))]
        finite_diff_check(model, rng.normal(size=16), batch)
        assert len(counted) == 1  # not once per each of the 2 * 16 + 1 model calls

    @pytest.mark.parametrize("case", [_quadratic_case, _char_case, _softmax_case], ids=["quadratic", "char", "softmax"])
    def test_prepared_once_bitwise_equal_to_per_call(self, case):
        model, dataset, params = case(np.random.default_rng(7))
        # the same model seen only through the Protocol: each probe prepares its batch again
        per_call = types.SimpleNamespace(param_dim=model.param_dim, loss=model.loss, grad=model.grad)
        for batch in (dataset, list(dataset)):
            assert finite_diff_check(model, params, batch) == finite_diff_check(per_call, params, batch)

    @pytest.mark.parametrize("grad,loss", [(np.zeros(3), 0.0), (np.zeros(2), np.zeros(1))], ids=["grad", "loss"])
    def test_protocol_result_of_the_wrong_shape(self, grad, loss):
        # the point's check: a gradient one too long, or a 1-vector loss, is not silently read
        model = types.SimpleNamespace(param_dim=2, loss=lambda params, batch: loss, grad=lambda params, batch: grad)
        with pytest.raises(DimensionError, match="gave shapes"):
            finite_diff_check(model, np.zeros(2), ["x"])

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
