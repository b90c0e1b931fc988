"""Data layer: stores, mixture sampling, synthetic corpora, ingestion."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import grapemix.verify as verify
from grapemix import (
    Dataset,
    DimensionError,
    EmptyBatch,
    EmptyDataset,
    IngestError,
    MarkovLanguageSpec,
    MixtureStore,
    SimplexWeights,
    SpecError,
    chain_cross_entropy,
    chain_entropy_rate,
    generate_markov_corpus,
    ingest_dataset,
    sample_domain_batches,
    sample_mixture_batch,
    sample_task_batches,
    stationary_distribution,
    stream_rng,
)


def toy_store(k=3, n=2, tag=""):
    domains = {f"d{i}{tag}": Dataset([f"d{i}-ex{j}" for j in range(5)]) for i in range(k)}
    tasks = {f"t{i}{tag}": Dataset([f"t{i}-ex{j}" for j in range(4)]) for i in range(n)}
    return MixtureStore(domains, tasks)


class TestStore:
    def test_label_overlap_rejected(self):
        with pytest.raises(DimensionError):
            MixtureStore({"x": Dataset([1])}, {"x": Dataset([2])})

    def test_empty_side_rejected(self):
        with pytest.raises(EmptyDataset):
            MixtureStore({}, {"t": Dataset([1])})

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDataset):
            Dataset([])

    def test_sides_are_read_only(self):
        # each side's pool is built at the first sampled draw, so a side
        # replaced after it would be seen by expected mode and not by the samplers
        domains = {"d0": Dataset(["ab"])}
        store = MixtureStore(domains, {"t0": Dataset(["ba"])})
        only = SimplexWeights([1.0], store.domain_labels)
        assert list(sample_mixture_batch(store, only, 2, np.random.default_rng(0))) == ["ab", "ab"]
        for side in (store.domains, store.tasks):
            with pytest.raises(TypeError):
                side["d0"] = Dataset(["aa"])
            with pytest.raises(TypeError):
                del side[next(iter(side))]
        domains["d0"] = Dataset(["aa"])  # the store holds its own copy of the mapping
        assert list(store.domains["d0"]) == ["ab"]
        assert list(sample_mixture_batch(store, only, 2, np.random.default_rng(0))) == ["ab", "ab"]


class TestEvaluationSlot:
    """``Dataset.prepared``: one kept result per compute function, keyed by
    the bytes of the parameter vector, if any."""

    def test_kept_per_parameter_bytes(self):
        calls = []

        def evaluate(params, batch):
            calls.append(params.copy())
            return np.signbit(params) * len(batch)

        dataset = Dataset(["a", "b"])
        params = np.zeros(2)
        first = dataset.prepared(evaluate, params)
        assert dataset.prepared(evaluate, params.copy()) is first and len(calls) == 1
        assert not first.flags.writeable
        assert dataset.prepared(evaluate, -params).tolist() == [2, 2]  # -0.0 has other bytes than 0.0
        params[1] = 1.0  # changed in place: evaluated anew
        assert dataset.prepared(evaluate, params).tolist() == [0, 0] and len(calls) == 3
        view = dataset.take(np.array([0]))  # a view keeps its own slot
        assert view.prepared(evaluate, params).tolist() == [0, 0] and len(calls) == 4
        assert dataset.prepared(evaluate, params).tolist() == [0, 0] and len(calls) == 4

    def test_preparation_and_evaluation_both_kept(self):
        calls = []

        def prepare(batch):
            calls.append("prepare")
            return np.arange(len(batch), dtype=np.float64)

        def evaluate(params, batch):
            calls.append("evaluate")
            return float(params @ batch.prepared(prepare))

        dataset = Dataset(["a", "b", "c"])
        prepared = dataset.prepared(prepare)
        params = np.ones(3)
        assert dataset.prepared(evaluate, params) == 3.0
        for _ in range(2):
            assert dataset.prepared(prepare) is prepared and dataset.prepared(evaluate, params) == 3.0
        assert calls == ["prepare", "evaluate"]
        assert not prepared.flags.writeable and set(dataset._kept) == {prepare, evaluate}

    def test_view_rows_gathered_and_not_kept(self):
        def prepare(batch):
            return np.arange(len(batch)) * 10, np.arange(len(batch))

        dataset = Dataset(["a", "b", "c"])
        view = dataset.take(np.array([2, 0, 2]))
        tens, ones = view.rows(prepare)
        assert tens.tolist() == [20, 0, 20] and ones.tolist() == [2, 0, 2]
        assert not tens.flags.writeable and not ones.flags.writeable
        assert view.rows(prepare)[0] is not tens and not view._kept
        assert dataset.rows(prepare) is dataset.prepared(prepare)

    def test_error_not_kept(self):
        calls = []

        def fail(*args):
            calls.append(1)
            raise ValueError("no")

        dataset = Dataset([1])
        for params in (np.zeros(1), None) * 2:
            with pytest.raises(ValueError):
                dataset.prepared(fail, params)
        assert len(calls) == 4 and not dataset._kept


class TestMixtureSampling:
    def test_one_hot_hits_single_domain(self):
        store = toy_store()
        w = SimplexWeights(np.array([0.0, 1.0, 0.0]), store.domain_labels)
        batch = sample_mixture_batch(store, w, 64, stream_rng(0, "x"))
        assert all(ex.startswith("d1-") for ex in batch)

    def test_uniform_counts_chi_square(self):
        store = toy_store(k=4)
        w = SimplexWeights.uniform(store.domain_labels)
        batch = sample_mixture_batch(store, w, 10000, stream_rng(1, "x"))
        counts = [sum(ex.startswith(f"d{i}-") for ex in batch) for i in range(4)]
        assert stats.chisquare(counts).pvalue > 0.001

    def test_marginal_matches_weights(self):
        store = toy_store(k=3)
        rng = stream_rng(2, "x")
        w = SimplexWeights(np.array([0.6, 0.3, 0.1]), store.domain_labels)
        draws = 10000
        batch = sample_mixture_batch(store, w, draws, rng)
        for i, wi in enumerate(w.values):
            freq = sum(ex.startswith(f"d{i}-") for ex in batch) / draws
            stderr = np.sqrt(wi * (1 - wi) / draws)
            assert abs(freq - wi) <= 4 * stderr

    def test_deterministic_under_fixed_seed(self):
        store = toy_store()
        w = SimplexWeights.uniform(store.domain_labels)
        one = sample_mixture_batch(store, w, 32, stream_rng(7, "s"))
        two = sample_mixture_batch(store, w, 32, stream_rng(7, "s"))
        assert list(one) == list(two)

    def test_task_side_inferred_from_labels(self):
        store = toy_store()
        w = SimplexWeights.uniform(store.task_labels)
        batch = sample_mixture_batch(store, w, 8, stream_rng(0, "x"))
        assert all(ex.startswith("t") for ex in batch)

    def test_label_mismatch_rejected(self):
        store = toy_store()
        w = SimplexWeights.uniform(("a", "b"))
        with pytest.raises(DimensionError):
            sample_mixture_batch(store, w, 8, stream_rng(0, "x"))

    def test_zero_size_rejected(self):
        store = toy_store()
        w = SimplexWeights.uniform(store.domain_labels)
        with pytest.raises(EmptyBatch):
            sample_mixture_batch(store, w, 0, stream_rng(0, "x"))

    def test_draw_above_short_sum_skips_dead_last_component(self):
        # the weights sum to 1 - 1e-10, inside SIMPLEX_TOL, so a draw of
        # u >= cum[-1] is possible; it must not reach the zero-weight "d2"
        store = toy_store(k=3)
        w = SimplexWeights(np.array([0.5, 0.5 - 1e-10, 0.0]), store.domain_labels)
        batch = sample_mixture_batch(store, w, 4, _StubRng(1.0 - 2.0**-53))
        assert list(batch) == ["d1-ex4"] * 4

    @settings(max_examples=200, deadline=None)
    @given(
        raw=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=6).filter(
            lambda xs: sum(xs) > 0.0
        ),
        draws=st.lists(st.one_of(st.just(1.0 - 2.0**-53), st.floats(0.0, 1.0, exclude_max=True)), min_size=1),
    )
    def test_sampled_component_never_has_zero_weight(self, raw, draws):
        store = toy_store(k=len(raw))
        values = np.array(raw) / sum(raw)
        w = SimplexWeights(values, store.domain_labels)
        batch = sample_mixture_batch(store, w, len(draws), _StubRng(*draws))
        for ex in batch:
            assert values[int(ex[1:].split("-")[0])] > 0.0


def _per_example_reference(datasets, values, size, rng):
    """The mixture sampler written one example at a time, from the same two
    ``rng.random(size)`` draws: a component for every example first, then a
    row in each example's component."""
    cum = np.cumsum(values)
    which, picks = rng.random(size), rng.random(size)
    batch = []
    for u, p in zip(which, picks):
        # the first component whose cumulative weight exceeds u; a draw at or
        # past the total goes to the first component that reaches the total
        k = next((k for k in range(len(cum)) if cum[k] > u), None)
        if k is None:
            k = next(k for k in range(len(cum)) if cum[k] >= cum[-1])
        ds = datasets[k]
        batch.append(ds[min(int(p * len(ds)), len(ds) - 1)])
    return batch


class TestMixtureSamplerReference:
    @settings(max_examples=300, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=6),
        data=st.data(),
        shortfall=st.sampled_from([0.0, 1e-12, 1e-10]),
        size=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        on_tasks=st.booleans(),
    )
    def test_same_examples_as_per_example_reference(self, lengths, data, shortfall, size, seed, on_tasks):
        raw = data.draw(
            st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=len(lengths), max_size=len(lengths))
            .filter(lambda xs: sum(xs) > 0.0)
        )
        values = np.array(raw) / sum(raw) * (1.0 - shortfall)
        # distinct objects, so the comparison below is by identity
        datasets = [Dataset([object() for _ in range(n)]) for n in lengths]
        named = {f"s{k}": ds for k, ds in enumerate(datasets)}
        other = {"other": Dataset([object()])}
        store = MixtureStore(other, named) if on_tasks else MixtureStore(named, other)
        w = SimplexWeights(values, tuple(named))
        got = sample_mixture_batch(store, w, size, np.random.default_rng(seed))
        want = _per_example_reference(datasets, values, size, np.random.default_rng(seed))
        assert len(got) == size
        assert all(a is b for a, b in zip(got, want))


def _per_component_reference(datasets, size, rng):
    """The per-component sampler written one example at a time: for each
    dataset in order, ``rng.random(size)`` and the floor(u * n) row of that
    dataset for each draw u."""
    batches = []
    for ds in datasets:
        picks = rng.random(size)
        batches.append([ds[min(int(p * len(ds)), len(ds) - 1)] for p in picks])
    return batches


class TestPerComponentSamplerReference:
    @settings(max_examples=200, deadline=None)
    @given(
        domain_lengths=st.lists(st.integers(1, 40), min_size=1, max_size=5),
        task_lengths=st.lists(st.integers(1, 40), min_size=1, max_size=5),
        size=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_examples_as_per_component_reference(self, domain_lengths, task_lengths, size, seed):
        # distinct objects, so the comparison below is by identity
        domains = [Dataset([object() for _ in range(n)]) for n in domain_lengths]
        tasks = [Dataset([object() for _ in range(n)]) for n in task_lengths]
        store = MixtureStore({f"d{k}": ds for k, ds in enumerate(domains)}, {f"t{k}": ds for k, ds in enumerate(tasks)})
        for sample, datasets in ((sample_domain_batches, domains), (sample_task_batches, tasks)):
            got = sample(store, size, np.random.default_rng(seed))
            want = _per_component_reference(datasets, size, np.random.default_rng(seed))
            assert len(got) == len(want)
            for batch, ref in zip(got, want):
                assert len(batch) == size
                assert all(a is b for a, b in zip(batch, ref))


class _StubRng:
    """Stands in for a Generator: ``random(size)`` returns the given draws, cycled."""

    def __init__(self, *draws):
        self.draws = np.array(draws)

    def random(self, size):
        return np.resize(self.draws, size)


class TestPerGroupBatches:
    def test_counts(self):
        store = toy_store(k=3, n=2)
        assert len(sample_domain_batches(store, 4, stream_rng(0, "d"))) == 3
        assert len(sample_task_batches(store, 4, stream_rng(0, "t"))) == 2
        single = toy_store(k=1, n=1, tag="s")
        assert len(sample_domain_batches(single, 4, stream_rng(0, "d"))) == 1

    def test_batches_come_from_their_group(self):
        store = toy_store()
        batches = sample_domain_batches(store, 6, stream_rng(1, "d"))
        for i, batch in enumerate(batches):
            assert all(ex.startswith(f"d{i}-") for ex in batch)

    def test_deterministic(self):
        store = toy_store()
        a = sample_task_batches(store, 5, stream_rng(3, "t"))
        b = sample_task_batches(store, 5, stream_rng(3, "t"))
        assert [list(batch) for batch in a] == [list(batch) for batch in b]


class TestStreams:
    def test_streams_are_independent(self):
        first = stream_rng(42, "train").random(5)
        # consuming another stream must not shift the first one
        stream_rng(42, "pcgrad").random(1000)
        second = stream_rng(42, "train").random(5)
        np.testing.assert_array_equal(first, second)
        assert not np.array_equal(first, stream_rng(42, "pcgrad").random(5))

    def test_stream_is_stateful_per_name(self):
        rng = stream_rng(1, "x")
        a = rng.random(3)
        b = rng.random(3)
        assert not np.array_equal(a, b)
        # a fresh generator for the same (seed, name) replays the sequence
        np.testing.assert_array_equal(stream_rng(1, "x").random(6), np.concatenate([a, b]))

    def test_different_seeds_differ(self):
        a = stream_rng(1, "x").random(4)
        b = stream_rng(2, "x").random(4)
        assert not np.array_equal(a, b)


class TestMarkov:
    def test_row_sums_validated(self):
        with pytest.raises(SpecError):
            MarkovLanguageSpec(2, np.array([[0.7, 0.2], [0.5, 0.5]]))

    def test_identity_permutation_is_cyclic(self):
        perm = np.roll(np.eye(4), 1, axis=1)
        spec = MarkovLanguageSpec(4, perm)
        corpus = generate_markov_corpus(spec, 400, stream_rng(0, "c"), seq_len=40)
        order = "abcd"
        for chunk in corpus:
            for prev, nxt in zip(chunk, chunk[1:]):
                assert nxt == order[(order.index(prev) + 1) % 4]

    def test_uniform_chain_empirical_transitions(self):
        spec = MarkovLanguageSpec(4, np.full((4, 4), 0.25))
        corpus = generate_markov_corpus(spec, 100000, stream_rng(1, "c"), seq_len=100)
        counts = np.zeros((4, 4))
        for chunk in corpus:
            for prev, nxt in zip(chunk, chunk[1:]):
                counts["abcd".index(prev), "abcd".index(nxt)] += 1
        empirical = counts / counts.sum(axis=1, keepdims=True)
        assert np.abs(empirical - 0.25).max() <= 0.02

    def test_interpolated_chain_cross_entropy_oracle(self):
        rng = np.random.default_rng(5)
        rows = rng.dirichlet(np.ones(3), size=3)
        a = MarkovLanguageSpec(3, rows)
        b = MarkovLanguageSpec(3, np.full((3, 3), 1 / 3))
        target = MarkovLanguageSpec.interpolate([a, b], [0.5, 0.5])
        # the chain's own transitions are the optimal bigram model for it
        best = chain_entropy_rate(target)
        assert chain_cross_entropy(target, target.transition) == pytest.approx(best)
        assert chain_cross_entropy(target, a.transition) >= best
        assert chain_cross_entropy(target, np.full((3, 3), 1 / 3)) >= best
        # empirical NLL of a large corpus approaches the entropy rate
        corpus = generate_markov_corpus(target, 200000, stream_rng(2, "c"), seq_len=100)
        from grapemix import CharLMModel

        model = CharLMModel(3)
        logits = np.log(np.maximum(target.transition, 1e-12)).ravel()
        assert model.loss(logits, corpus.examples) == pytest.approx(best, abs=0.01)

    def test_corpus_text_is_pinned(self):
        # digest of the text this generator produced before its decoding
        # was vectorized; any change to the draws or the chunking shows here
        sources, _ = verify.multilingual_languages()
        corpus = generate_markov_corpus(sources["src_a"], 60000, stream_rng(3, "corpus"), seq_len=33)
        assert len(corpus) == 1819 and all(len(chunk) == 33 for chunk in corpus)
        digest = hashlib.sha256("\n".join(corpus).encode("ascii")).hexdigest()
        assert digest == "2ed53ccfd2988cc9189cfe0497f92440b780f767894fc5f817a151d0113ab64b"

    def test_stationary_distribution(self):
        rng = np.random.default_rng(6)
        rows = rng.dirichlet(np.ones(4), size=4)
        pi = stationary_distribution(rows)
        np.testing.assert_allclose(pi @ rows, pi, atol=1e-10)
        assert pi.sum() == pytest.approx(1.0)

    def test_interpolation_validation(self):
        a = MarkovLanguageSpec(2, np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(SpecError):
            MarkovLanguageSpec.interpolate([a], [0.5, 0.5])

    def test_min_length(self):
        a = MarkovLanguageSpec(2, np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            generate_markov_corpus(a, 1, stream_rng(0, "c"))

    @pytest.mark.parametrize("seq_len", [0, -3])
    def test_min_seq_len(self, seq_len):
        a = MarkovLanguageSpec(2, np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match=f"seq_len must be >= 1, got {seq_len}"):
            generate_markov_corpus(a, 10, stream_rng(0, "c"), seq_len=seq_len)


class TestIngest:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(EmptyDataset):
            ingest_dataset(path)

    def test_single_record(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text('{"text": "hello"}\n')
        ds = ingest_dataset(path)
        assert len(ds) == 1 and ds[0] == "hello"

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "ok"}\n{oops}\n')
        with pytest.raises(IngestError) as excinfo:
            ingest_dataset(path)
        assert excinfo.value.line == 2

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"foo": 1}\n')
        with pytest.raises(IngestError):
            ingest_dataset(path)

    def test_feature_records(self, tmp_path):
        path = tmp_path / "xy.jsonl"
        path.write_text('{"x": [1.0, 2.0], "y": 1}\n{"x": [0.5, -1.5], "y": 0.0}\n')
        ds = ingest_dataset(path)
        x0, y0 = ds[0]
        np.testing.assert_array_equal(x0, [1.0, 2.0])
        assert y0 == 1.0 and type(y0) is float
        x1, y1 = ds[1]
        np.testing.assert_array_equal(x1, [0.5, -1.5])
        assert y1 == 0.0

    @pytest.mark.parametrize("label", ["true", "false", "[0.0, 1.0]", '"1"', "null"])
    def test_label_must_be_a_number(self, tmp_path, label):
        path = tmp_path / "xy.jsonl"
        path.write_text('{"x": [1.0], "y": 0}\n{"x": [2.0], "y": %s}\n' % label)
        with pytest.raises(IngestError) as excinfo:
            ingest_dataset(path)
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constants_rejected(self, tmp_path, constant):
        # json.loads reads these as floats; a dataset file may not hold them
        path = tmp_path / "xy.jsonl"
        path.write_text('{"x": [1.0], "y": 0}\n{"x": [%s], "y": 1}\n' % constant)
        with pytest.raises(IngestError, match=f"line 2: {constant} is not a JSON number") as excinfo:
            ingest_dataset(path)
        assert excinfo.value.line == 2

    def test_round_trip(self, tmp_path):
        path = tmp_path / "rt.jsonl"
        path.write_text('{"text": "abc"}\n{"x": [1.0, 2.5], "y": 3}\n{"text": "xyz"}\n')
        back = ingest_dataset(path)
        assert len(back) == 3
        assert back[0] == "abc" and back[2] == "xyz"
        x, y = back[1]
        np.testing.assert_array_equal(x, [1.0, 2.5])
        assert y == 3.0
        # order preserved
        assert [type(ex) for ex in back] == [str, tuple, str]
