"""Data layer: stores, mixture sampling, synthetic corpora, ingestion."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    generate_markov_corpus,
    ingest_dataset,
    sample_domain_batches,
    sample_mixture_batch,
    sample_mixture_batches,
    sample_task_batches,
    stationary_distribution,
    stream_rng,
)
from grapemix.data import Block
from grapemix.simplex import SIMPLEX_TOL


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


    def test_a_sampled_batch_can_be_a_store_dataset(self):
        # a sampled batch is a view of its side's pool; a store over one pools the view's examples
        batch = sample_mixture_batch(toy_store(), SimplexWeights.uniform(["d0", "d1", "d2"]), 6,
                                     np.random.default_rng(0))
        store = MixtureStore({"d": batch}, {"t": Dataset(["t0"])})
        drawn = sample_mixture_batch(store, SimplexWeights([1.0], ("d",)), 4, np.random.default_rng(1))
        assert list(store.datasets("domains").pool()[0]) == list(batch) and set(drawn) <= set(batch)

    @pytest.mark.parametrize("on_tasks", [False, True], ids=["domain", "task"])
    def test_a_list_is_not_a_dataset(self, on_tasks):
        named, other = {"bad": ["ab", "ba"]}, {"ok": Dataset(["ab"])}
        with pytest.raises(TypeError, match="'bad' is a list, not a Dataset"):
            MixtureStore(other, named) if on_tasks else MixtureStore(named, other)


class TestStoreSide:
    """``Datasets``, a store side: the one place a preparation is kept, by
    the function that prepares it; and the blocks drawn from its pool."""

    def test_preparation_kept_once_per_function(self):
        calls = []

        def prepare(side):
            calls.append(side)
            return (np.arange(len(side), dtype=np.float64),)

        store = toy_store()
        side = store.datasets("domains")
        prepared = side.prepared(prepare)
        for _ in range(2):
            assert side.prepared(prepare) is prepared
        assert calls == [side] and prepared[0].tolist() == [0.0, 1.0, 2.0]
        # kept for every run on the store, so read-only, and the arrays of an object array too
        assert not prepared[0].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            prepared[0][0] = 1.0
        pair = side.prepared(lambda side: (np.zeros(2), np.array([np.zeros(1), np.zeros(2)], dtype=object)))
        assert not any(arr.flags.writeable for arr in (*pair, *pair[1]))
        other = store.datasets("tasks")
        assert other.prepared(prepare) is not prepared and calls == [side, other]

    def test_a_block_is_a_sequence_of_views_of_the_pool(self):
        store = toy_store(k=1, n=1)
        side = store.datasets("domains")
        block = Block(side, np.array([[3, 1, 2], [2, 4, 4]]))
        assert block.pool is side.pool()[0] and len(block) == 2
        first, inner = block
        assert inner.pool is block.pool and inner.index.tolist() == [2, 4, 4]
        assert list(inner) == ["d0-ex2", "d0-ex4", "d0-ex4"] == [inner[i] for i in range(len(inner))]
        assert list(first) == ["d0-ex3", "d0-ex1", "d0-ex2"] and list(block[1]) == list(inner)

    def test_error_not_kept(self):
        calls = []

        def fail(side):
            calls.append(1)
            raise ValueError("no")

        side = toy_store().datasets("tasks")
        for _ in range(2):
            with pytest.raises(ValueError):
                side.prepared(fail)
        assert len(calls) == 2


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
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample(store, size, got_rng)
            want = _per_component_reference(datasets, size, want_rng)
            assert len(got) == len(want)
            for batch, ref in zip(got, want):
                assert len(batch) == size
                assert all(a is b for a, b in zip(batch, ref))
            # one draw for all components leaves the generator where the K separate draws do
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class _StubRng:
    """Stands in for a Generator: ``random(size)`` returns the next draws of
    the given ones, cycled, so successive calls read on where the last stopped."""

    def __init__(self, *draws):
        self.draws = np.array(draws)
        self.used = 0

    def random(self, size):
        out = np.resize(np.roll(self.draws, -(self.used % len(self.draws))), size)
        self.used += out.size
        return out


class TestBlockDraw:
    """``sample_mixture_batches`` draws at once what ``count`` successive
    ``sample_mixture_batch`` calls draw."""

    @settings(max_examples=300, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 12), min_size=1, max_size=5),
        data=st.data(),
        dead_last=st.booleans(),
        shortfall=st.sampled_from([0.0, 1e-10]),
        size=st.integers(1, 9),
        count=st.integers(1, 5),
        stub=st.one_of(st.none(), st.lists(st.one_of(st.just(1.0 - 2.0**-53), st.floats(0.0, 1.0, exclude_max=True)),
                                           min_size=1, max_size=4)),
        seed=st.integers(0, 2**32 - 1),
        on_tasks=st.booleans(),
    )
    def test_same_index_vectors_as_successive_single_draws(self, lengths, data, dead_last, shortfall, size, count,
                                                           stub, seed, on_tasks):
        raw = data.draw(
            st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=len(lengths), max_size=len(lengths))
            .filter(lambda xs: sum(xs[:-1] if dead_last and len(xs) > 1 else xs) > 0.0)
        )
        if dead_last and len(raw) > 1:
            raw[-1] = 0.0
        values = np.array(raw) / sum(raw) * (1.0 - shortfall)
        named = {f"s{k}": Dataset([f"s{k}-{j}" for j in range(n)]) for k, n in enumerate(lengths)}
        other = {"other": Dataset(["other"])}
        store = MixtureStore(other, named) if on_tasks else MixtureStore(named, other)
        w = SimplexWeights(values, tuple(named))

        def generator():
            return _StubRng(*stub) if stub else np.random.default_rng(seed)

        block_rng, single_rng = generator(), generator()
        block = list(sample_mixture_batches(store, w, size, count, block_rng))
        singles = [sample_mixture_batch(store, w, size, single_rng) for _ in range(count)]
        assert len(block) == count
        for got, want in zip(block, singles):
            assert got.pool is want.pool
            assert got.index.dtype == want.index.dtype and got.index.tobytes() == want.index.tobytes()
            assert all(values[int(ex[1:].split("-")[0])] > 0.0 for ex in got)
        if stub:
            assert block_rng.used == single_rng.used
        else:
            assert block_rng.bit_generator.state == single_rng.bit_generator.state

    def test_dead_last_entry_is_never_drawn_past_a_short_sum(self):
        store = toy_store(k=3)
        w = SimplexWeights(np.array([0.5, 0.5 - 1e-10, 0.0]), store.domain_labels)
        block = list(sample_mixture_batches(store, w, 4, 3, _StubRng(1.0 - 2.0**-53)))
        assert [list(batch) for batch in block] == [["d1-ex4"] * 4] * 3

    @pytest.mark.parametrize("size", [0, -1])
    def test_empty_batches_rejected(self, size):
        store = toy_store()
        w = SimplexWeights.uniform(store.domain_labels)
        rng = stream_rng(0, "x")
        state = rng.bit_generator.state
        with pytest.raises(EmptyBatch):
            sample_mixture_batches(store, w, size, 3, rng)
        assert rng.bit_generator.state == state


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


def _row_major_corpus(spec, length, rng, seq_len=64):
    """The row-major walk ``generate_markov_corpus`` replaced, kept as its
    oracle: states as (n_chunks, seq_len), each step a gather of the
    previous states' cumulative rows, a count of the entries below the
    step's draws and a clamp to V - 1."""
    seq_len = min(seq_len, length)
    n_chunks = max(1, math.ceil(length / seq_len))
    v = spec.vocab_size
    pi_cum = np.cumsum(stationary_distribution(spec.transition))
    trans_cum = np.cumsum(spec.transition, axis=1)
    states = np.empty((n_chunks, seq_len), dtype=np.int64)
    states[:, 0] = np.minimum(np.searchsorted(pi_cum, rng.random(n_chunks), side="right"), v - 1)
    for t in range(1, seq_len):
        u = rng.random(n_chunks)
        rows = trans_cum[states[:, t - 1]]
        states[:, t] = np.minimum((u[:, None] > rows).sum(axis=1), v - 1)
    chars = np.frombuffer(spec.vocab.encode("ascii"), dtype=np.uint8)
    text = chars[states].tobytes().decode("ascii")
    return [text[i : i + seq_len] for i in range(0, len(text), seq_len)]


def _chain(vocab_size, seed, zero_share, dead_last, shortfall):
    """A V x V chain from ``seed``: about ``zero_share`` of its entries zero,
    every row's last entry zero when ``dead_last`` (V > 1), and every row
    summing to 1 - ``shortfall``."""
    rng = np.random.default_rng(seed)
    raw = rng.random((vocab_size, vocab_size))
    raw[rng.random(raw.shape) < zero_share] = 0.0
    live = vocab_size - 1 if dead_last and vocab_size > 1 else vocab_size
    raw[:, live:] = 0.0
    dead = raw.sum(axis=1) == 0.0
    raw[dead, rng.integers(0, live, size=int(dead.sum()))] = 1.0  # one live entry for a row left empty
    return MarkovLanguageSpec(vocab_size, raw / raw.sum(axis=1, keepdims=True) * (1.0 - shortfall))


# The text of ``verify.multilingual_store(seed)`` before its walk became
# state-major: each dataset's sha256 over its chunks joined by newlines,
# domains then tasks, in label order, with its chunk count.
STORE_DIGESTS = {
    0: [
        ("src_a", 1819, "382b6ee1b95118cec96cf19309709668e166a4096f7da9c30e26958b2a6d3aa4"),
        ("src_b", 1819, "3e9f42f4399aa6335ae561bae9d30bb73b1cac71e18e4d26c95db2185dce2782"),
        ("src_c", 1819, "9a042aac50601e8af2dc540f914e28d58b265a1255264cf11c63d20340961d80"),
        ("src_d", 1819, "26e61e828f64a8e4dc12b0531f10b6a6499686b7883382375bb3dcf949b4ecc2"),
        ("tgt_1", 364, "6d0da5cbd0f8e0ccfcf557f74c7fd4224dda33e4d4ee354226169dc4bc16361b"),
        ("tgt_2", 364, "0772bfd8c5e2bb070a63ff0c0de1dbd73c1d8241bdd86cbd688f4cc4404fd829"),
        ("tgt_3", 364, "8780348f0219845ca5ec729840a38b4e15eb7ef348d69c3b70beae5016937b25"),
    ],
    5: [
        ("src_a", 1819, "76938adb627b57e3ce459651fb229efd4fa3a45b5100ea7d188e0580c966c9d8"),
        ("src_b", 1819, "90ea1046e141ad59f53a65f05b54e7b02598738a665cf03bb1ce47021ac6574e"),
        ("src_c", 1819, "e574b020d1ae5cc6c1ddf98e2519cf4f37e25f2751f1dd73dd67dd5dc1ea4ac9"),
        ("src_d", 1819, "e007a6c83f63532306ff019c041fa7d5a84791f927cca557ea2ea3ab3f5b9664"),
        ("tgt_1", 364, "018e04d6fe160fdc5ca7f7c3d0ff06a56ad0ac1e6f52b84d53c4148586e3f835"),
        ("tgt_2", 364, "59ffa2ec4b89449172bf3779355dd7d3be8e920bf7b9a5529dcfa9c593987e8a"),
        ("tgt_3", 364, "183a594cb84e4ace4c65f09fead55951d1fc8c2ef7b925204ce88dcb6361fb14"),
    ],
}


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
        best = chain_cross_entropy(target, target.transition)
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

    @pytest.mark.parametrize("seed", sorted(STORE_DIGESTS))
    def test_whole_store_text_is_pinned(self, seed):
        store = verify.multilingual_store(seed)
        got = [(label, len(ds), hashlib.sha256("\n".join(ds).encode("ascii")).hexdigest())
               for side in (store.domains, store.tasks) for label, ds in side.items()]
        assert got == STORE_DIGESTS[seed]

    @settings(max_examples=200, deadline=None)
    @given(
        vocab_size=st.integers(1, 36),
        length=st.integers(2, 300),
        seq_len=st.integers(1, 320),
        zero_share=st.sampled_from([0.0, 0.3, 0.8]),
        dead_last=st.booleans(),
        shortfall=st.sampled_from([0.0, 1e-12, SIMPLEX_TOL / 2, SIMPLEX_TOL * 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    # a length of 14 chunks and 2 characters; seq_len 1; seq_len above the length; one state
    @example(vocab_size=5, length=100, seq_len=7, zero_share=0.3, dead_last=True, shortfall=0.0, seed=1)
    @example(vocab_size=36, length=50, seq_len=1, zero_share=0.0, dead_last=False, shortfall=SIMPLEX_TOL * 0.9, seed=2)
    @example(vocab_size=3, length=10, seq_len=64, zero_share=0.8, dead_last=True, shortfall=1e-12, seed=3)
    @example(vocab_size=1, length=9, seq_len=4, zero_share=0.0, dead_last=False, shortfall=0.0, seed=4)
    def test_same_text_as_row_major_walk(self, vocab_size, length, seq_len, zero_share, dead_last, shortfall, seed):
        spec = _chain(vocab_size, seed, zero_share, dead_last, shortfall)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = generate_markov_corpus(spec, length, got_rng, seq_len=seq_len)
        assert got.examples == _row_major_corpus(spec, length, want_rng, seq_len=seq_len)
        # the same draws: one double per chunk per step
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_draw_above_a_rows_total_picks_the_last_state(self):
        # rows summing just under 1 put a draw of 1 - 2**-53 above every
        # cumulative total, where the row-major walk clamped its count
        spec = MarkovLanguageSpec(4, np.full((4, 4), 0.25 * (1.0 - SIMPLEX_TOL * 0.9)))
        got_rng, want_rng = _StubRng(1.0 - 2.0**-53), _StubRng(1.0 - 2.0**-53)
        got = generate_markov_corpus(spec, 30, got_rng, seq_len=7)
        assert got.examples == _row_major_corpus(spec, 30, want_rng, seq_len=7) == ["ddddddd"] * 5
        assert got_rng.used == want_rng.used == 5 * 7

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

    @pytest.mark.parametrize("feature", ['"1"', "true", "false", "null", "[1.0]"])
    def test_feature_must_be_a_number(self, tmp_path, feature):
        # numpy read "1" and true as 1.0 and null as NaN
        path = tmp_path / "xy.jsonl"
        path.write_text('{"x": [1.0, 0.5], "y": 0}\n{"x": [0.0, %s], "y": 1}\n' % feature)
        with pytest.raises(IngestError, match="line 2: feature 1 must be a number") as excinfo:
            ingest_dataset(path)
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("features", ["1.0", '"12"', '{"a": 1.0}'])
    def test_features_must_be_a_list(self, tmp_path, features):
        # numpy read 1.0 and "12" as one-feature arrays of no dimension
        path = tmp_path / "xy.jsonl"
        path.write_text('{"x": [1.0], "y": 0}\n{"x": %s, "y": 1}\n' % features)
        with pytest.raises(IngestError, match="line 2: 'x' must be a list of numbers") as excinfo:
            ingest_dataset(path)
        assert excinfo.value.line == 2

    def test_feature_infinite_as_a_float_rejected(self, tmp_path):
        # json.loads reads 1e400 as inf
        path = tmp_path / "xy.jsonl"
        path.write_text('{"x": [1.0], "y": 0}\n{"x": [1e400], "y": 1}\n')
        with pytest.raises(IngestError, match="line 2: feature 0 must be a number within float range, got inf"):
            ingest_dataset(path)

    def test_feature_integer_beyond_float_range_rejected(self, tmp_path):
        # numpy raised OverflowError converting it
        path = tmp_path / "xy.jsonl"
        path.write_text('{"x": [1.0], "y": 0}\n{"x": [%d], "y": 1}\n' % 10**400)
        with pytest.raises(IngestError, match="line 2: feature 0 must be a number within float range") as excinfo:
            ingest_dataset(path)
        assert excinfo.value.line == 2

    def test_label_integer_beyond_float_range_rejected(self, tmp_path):
        # float(y) raised OverflowError
        path = tmp_path / "xy.jsonl"
        path.write_text('{"x": [1.0], "y": 0}\n{"x": [2.0], "y": %d}\n' % 10**400)
        with pytest.raises(IngestError, match="line 2: 'y' must be a number within float range") as excinfo:
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
