"""Domain/task dataset stores, categorical mixture sampling, synthetic corpora.

The data layer is deliberately dumb: datasets are immutable, sampling
is i.i.d. with replacement (importance sampling semantics, no epoch
bookkeeping), and every random draw comes from a named stream so that
toggling one consumer (say, gradient-surgery ordering) never perturbs
another's sequence.  Given (seed, config) the entire layer reproduces
bit-identical batches.

A store side (``Datasets``) holds its whole datasets in label order and
its pool: one ``Dataset`` of all the side's examples, built at the first
sampled draw.  A sampled batch is a view of the pool, an index vector of
its rows, and no list of examples is built for it.  Batches are drawn
together, as one ``Block``: the mixture batches up to the next change of
the domain weights, or one batch per component of a side; a single draw
is a block of one.  What a model prepares from a block or a side, it
prepares once, and only a side keeps a preparation: its whole datasets'
and its pool's, read-only, for the store's lifetime.  Datasets, views and blocks
keep nothing.  Never mutate an example, or an array inside one, in place.
"""

from __future__ import annotations

import hashlib
import json
import math
import string
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateWeights,
    DimensionError,
    EmptyBatch,
    EmptyDataset,
    IngestError,
    SpecError,
)
from .simplex import SimplexWeights, finite_json_number, normalize, on_simplex

# Example types, by model:
#   char-level LM  -> str
#   softmax classifier -> (features: np.ndarray, label: int)
#   quadratic family   -> QuadraticExample (see models.py)


class Dataset:
    """An immutable, indexed collection of examples."""

    def __init__(self, examples: Sequence):
        examples = list(examples)
        if not examples:
            raise EmptyDataset("dataset has no examples")
        self._examples = examples

    def __len__(self) -> int:
        return len(self._examples)

    def __getitem__(self, i: int):
        return self._examples[i]

    def __iter__(self) -> Iterator:
        return iter(self._examples)

    @property
    def examples(self) -> list:
        return list(self)


class DatasetView(Dataset):
    """The rows of a pool ``Dataset`` at an index vector: a batch that reads
    like the list of those examples, and is built without one."""

    def __init__(self, pool: Dataset, index: np.ndarray):
        self.pool = pool
        self.index = index

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, i: int):
        return self.pool[self.index[i]]

    def __iter__(self) -> Iterator:
        return map(self.pool._examples.__getitem__, self.index.tolist())


class Datasets:
    """One side of a store: its whole datasets in label order, a sequence
    of batches; its pool; and what models prepare from either, kept
    read-only for the side's lifetime, which is its store's."""

    def __init__(self, datasets: Sequence[Dataset]):
        self._datasets = tuple(datasets)
        self._pool = None
        self._prepared = {}

    def pool(self) -> tuple[Dataset, np.ndarray, np.ndarray]:
        """One Dataset of every example of the side in label order, with the
        first row and the row count of each label; built at the first call."""
        if self._pool is None:
            sizes = np.array([len(ds) for ds in self], dtype=np.int64)
            offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            self._pool = (Dataset([ex for ds in self for ex in ds]), offsets, sizes)
        return self._pool

    def prepared(self, prepare: Callable):
        """``prepare(self)``, a tuple of arrays, kept read-only by ``prepare`` (a
        model's bound method) for the side's lifetime: every run shares it.  A failure is not kept."""
        kept = self._prepared.get(prepare)
        if kept is None:
            kept = self._prepared[prepare] = prepare(self)
            for arr in kept:
                for each in (arr, *arr) if arr.dtype == object else (arr,):  # an object array's arrays too
                    each.flags.writeable = False
        return kept

    def __len__(self) -> int:
        return len(self._datasets)

    def __getitem__(self, i: int) -> Dataset:
        return self._datasets[i]

    def __iter__(self) -> Iterator[Dataset]:
        return iter(self._datasets)


class Block:
    """Batches of one store side drawn together: an (L, B) index matrix
    into the side's pool, whose row l is the index of batch l.  A sequence
    of those batches, each a view made when it is read."""

    def __init__(self, side: Datasets, index: np.ndarray):
        self.side = side
        self.pool = side.pool()[0]
        self.index = index

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, row: int) -> DatasetView:
        return DatasetView(self.pool, self.index[row])


class MixtureStore:
    """K named source-domain datasets plus N named target-task datasets.

    Domain and task label sets must be disjoint so that a weight vector's
    labels identify unambiguously which side it addresses.  The datasets
    never change and the ``domains`` and ``tasks`` mappings are read-only,
    so each side's ``datasets``, its pool, built at its first sampled
    draw, and what models prepare from them stay valid for the store's
    lifetime.
    """

    def __init__(self, domains: Mapping[str, Dataset], tasks: Mapping[str, Dataset]):
        if not domains or not tasks:
            raise EmptyDataset("store needs at least one domain and one task")
        overlap = set(domains) & set(tasks)
        if overlap:
            raise DimensionError(f"domain and task labels overlap: {sorted(overlap)}")
        for label, ds in {**domains, **tasks}.items():
            if not isinstance(ds, Dataset):
                raise TypeError(f"dataset {label!r} is a {type(ds).__name__}, not a Dataset")
        self.domains = MappingProxyType(dict(domains))
        self.tasks = MappingProxyType(dict(tasks))
        self.domain_labels = tuple(self.domains)
        self.task_labels = tuple(self.tasks)
        self._sides = {"domains": Datasets(self.domains.values()), "tasks": Datasets(self.tasks.values())}

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def datasets(self, side: str) -> Datasets:
        """The whole datasets of ``side`` ("domains" or "tasks"), in label order."""
        return self._sides[side]


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    """A fresh generator for (seed, stream), stable across runs and platforms."""
    digest = hashlib.sha256(stream.encode("utf-8")).digest()
    stream_key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), stream_key]))


def sample_mixture_batch(store: MixtureStore, w: SimplexWeights, size: int, rng: np.random.Generator) -> DatasetView:
    """A batch of ``size`` examples, each from a dataset chosen by categorical(w):
    the one-batch case of ``sample_mixture_batches``.

    ``w.labels`` must match either the store's domain labels or its task
    labels, which says the side.  Sampling is per example, not per batch,
    so the batch composition itself is a draw from the mixture.  The batch
    is a view of the side's pool.
    """
    return sample_mixture_batches(store, w, size, 1, rng)[0]


def sample_mixture_batches(
    store: MixtureStore, w: SimplexWeights, size: int, count: int, rng: np.random.Generator
) -> Block:
    """The batches of ``count`` successive ``sample_mixture_batch`` calls, drawn at once.

    Each batch takes ``size`` doubles for its components, then ``size`` for
    its rows, so ``rng.random((count, 2, size))`` is the calls' doubles in
    their order, and leaves ``rng`` where the calls would.  The batches are
    those of one ``Block``, in draw order.
    """
    if w.labels == store.domain_labels:
        side = "domains"
    elif w.labels == store.task_labels:
        side = "tasks"
    else:
        raise DimensionError("weight labels match neither domains nor tasks")
    return _draw_block(store, side, size, rng, w, count)


def sample_domain_batches(store: MixtureStore, size: int, rng: np.random.Generator) -> Block:
    """One uniformly drawn batch from every domain, in label order: one ``Block``."""
    return _draw_block(store, "domains", size, rng)


def sample_task_batches(store: MixtureStore, size: int, rng: np.random.Generator) -> Block:
    """One uniformly drawn batch from every task, in label order: one ``Block``."""
    return _draw_block(store, "tasks", size, rng)


def _draw_block(store: MixtureStore, side: str, size: int, rng: np.random.Generator,
                w: SimplexWeights | None = None, count: int = 0) -> Block:
    """One ``Block`` of ``side``'s pool: ``count`` batches of
    components drawn by categorical(w), or without ``w`` one batch per
    component, whose K rows ``rng.random((K, size))`` draws as K successive
    ``rng.random(size)`` calls would.  A draw u picks row floor(u * n),
    clamped to n - 1, of a component of n rows: one draw per example,
    whatever n is, keeps every stream's draw count independent of the
    dataset sizes."""
    if size < 1:
        raise EmptyBatch(f"batch size must be >= 1, got {size}")
    datasets = store.datasets(side)
    _, offsets, sizes = datasets.pool()
    if w is None:
        which, u = np.arange(len(sizes))[:, None], rng.random((len(sizes), size))
    else:
        cum, last_live = w.cumulative
        u = rng.random((count, 2, size))
        which, u = np.minimum(np.searchsorted(cum, u[:, 0], side="right"), last_live), u[:, 1]
    n = sizes[which]
    u *= n  # scaled, cast, clamped and offset in place: one (L, B) index array beside the draws
    index = u.astype(np.int64)
    np.minimum(index, n - 1, out=index)
    index += offsets[which]
    return Block(datasets, index)


# ---------------------------------------------------------------------------
# Synthetic character-level languages (first-order Markov chains)
# ---------------------------------------------------------------------------

_ALPHABET = string.ascii_lowercase + string.digits


@dataclass(frozen=True)
class MarkovLanguageSpec:
    """A synthetic 'language': a row-stochastic transition matrix over V chars."""

    vocab_size: int
    transition: np.ndarray

    def __post_init__(self):
        trans = np.array(self.transition, dtype=np.float64, copy=True)
        if trans.shape != (self.vocab_size, self.vocab_size):
            raise SpecError(f"transition must be {self.vocab_size}x{self.vocab_size}, got {trans.shape}")
        if self.vocab_size > len(_ALPHABET):
            raise SpecError(f"vocab_size above {len(_ALPHABET)} is not supported")
        if not on_simplex(trans, axis=1):
            raise SpecError("transition rows must be probability vectors")
        trans.flags.writeable = False
        object.__setattr__(self, "transition", trans)

    @property
    def vocab(self) -> str:
        return _ALPHABET[: self.vocab_size]

    @classmethod
    def interpolate(cls, specs: Sequence["MarkovLanguageSpec"], coeffs: Sequence[float]) -> "MarkovLanguageSpec":
        """A related language whose transitions are a convex mix of others'."""
        if len(specs) != len(coeffs) or not specs:
            raise SpecError("need one coefficient per source language")
        try:
            c = normalize(coeffs).values
        except DegenerateWeights as exc:
            raise SpecError(f"interpolation coefficients: {exc}") from exc
        v = specs[0].vocab_size
        if any(sp.vocab_size != v for sp in specs):
            raise SpecError("all source languages must share one vocabulary size")
        mixed = sum(ci * sp.transition for ci, sp in zip(c, specs))
        return cls(v, mixed)


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """The stationary distribution pi with pi @ P = pi, sum(pi) = 1."""
    trans = np.asarray(transition, dtype=np.float64)
    v = trans.shape[0]
    a = np.vstack([trans.T - np.eye(v), np.ones((1, v))])
    b = np.zeros(v + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return normalize(np.maximum(pi, 0.0)).values


def chain_cross_entropy(spec: MarkovLanguageSpec, model_probs: np.ndarray) -> float:
    """Expected per-transition NLL of chain text under given bigram probabilities.

    With model_probs equal to the chain's own transitions this is the
    entropy rate, i.e. the best any bigram model can do on that language.
    """
    q = np.asarray(model_probs, dtype=np.float64)
    pi = stationary_distribution(spec.transition)
    p = spec.transition
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        return float("inf")
    terms = np.zeros_like(p)
    terms[mask] = p[mask] * np.log(q[mask])
    return float(-(pi[:, None] * terms).sum())


def generate_markov_corpus(
    spec: MarkovLanguageSpec,
    length: int,
    rng: np.random.Generator,
    seq_len: int = 64,
) -> Dataset:
    """Sample roughly ``length`` characters from the chain as fixed-size chunks.

    Each chunk is an independent walk started from the stationary
    distribution, so empirical bigram frequencies converge to the spec's
    transitions as the corpus grows.  There are ceil(length / seq_len)
    chunks of min(seq_len, length) characters.  The walk takes one
    ``rng.random(n_chunks)`` per step, one double per chunk in chunk
    order: the first step's draw u picks the first state by the
    stationary distribution, and each later step's u moves a chunk from
    state s to the number of entries of the cumulative row
    ``cumsum(transition[s])[:-1]`` below u.  That count is at most V - 1,
    so a u above a row's total, which rounding allows, picks the last
    state without a clamp.
    """
    if length < 2:
        raise ValueError(f"corpus length must be >= 2, got {length}")
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    seq_len = min(seq_len, length)
    n_chunks = max(1, math.ceil(length / seq_len))

    pi_cum = np.cumsum(stationary_distribution(spec.transition))
    # column s holds row s's cumulative sums without the last: (V - 1, V)
    cum_cols = np.ascontiguousarray(np.cumsum(spec.transition, axis=1).T[:-1])
    states = np.empty((seq_len, n_chunks), dtype=np.int64)  # state-major: step t is states[t]
    states[0] = np.searchsorted(pi_cum[:-1], rng.random(n_chunks), side="right")
    for t in range(1, seq_len):
        np.add.reduce(cum_cols.take(states[t - 1], axis=1) < rng.random(n_chunks), axis=0, out=states[t])

    chars = np.frombuffer(spec.vocab.encode("ascii"), dtype=np.uint8)
    text = chars[states.T].tobytes().decode("ascii")
    return Dataset([text[i : i + seq_len] for i in range(0, len(text), seq_len)])


# ---------------------------------------------------------------------------
# File ingestion: UTF-8 line-delimited JSON records
# ---------------------------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def ingest_dataset(path: str | Path) -> Dataset:
    """Load a line-delimited dataset file, preserving record order.

    Each line is a JSON object: either ``{"text": "..."}`` or
    ``{"x": [numbers], "y": number}``.  A feature or a label is a finite
    JSON number: never a boolean, a string or null, never ``NaN`` or
    ``Infinity``, and never a number that is infinite as a float (``1e400``,
    or an integer beyond float range).  Malformed lines raise IngestError
    with the 1-based line number; a file with no records raises
    EmptyDataset.
    """
    examples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line, parse_constant=_reject_constant)
            except json.JSONDecodeError as exc:
                raise IngestError(f"invalid JSON ({exc.msg})", lineno) from exc
            except ValueError as exc:
                raise IngestError(str(exc), lineno) from exc
            if not isinstance(record, dict):
                raise IngestError("record is not an object", lineno)
            if "text" in record:
                if not isinstance(record["text"], str):
                    raise IngestError("'text' must be a string", lineno)
                examples.append(record["text"])
            elif "x" in record and "y" in record:
                x, y = record["x"], record["y"]
                if not finite_json_number(y):
                    raise IngestError(f"'y' must be a number within float range, got {y!r:.40}", lineno)
                if not isinstance(x, list):
                    raise IngestError(f"'x' must be a list of numbers, got {type(x).__name__}", lineno)
                bad = next((i for i, v in enumerate(x) if not finite_json_number(v)), None)
                if bad is not None:
                    raise IngestError(f"feature {bad} must be a number within float range, got {x[bad]!r:.40}", lineno)
                examples.append((np.array(x, dtype=np.float64), float(y)))
            else:
                raise IngestError("record needs 'text' or 'x'/'y' fields", lineno)
    if not examples:
        raise EmptyDataset(f"{path}: no records")
    return Dataset(examples)

