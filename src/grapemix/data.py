"""Domain/task dataset stores, categorical mixture sampling, synthetic corpora.

The data layer is deliberately dumb: datasets are immutable, sampling
is i.i.d. with replacement (importance sampling semantics, no epoch
bookkeeping), and every random draw comes from a named stream so that
toggling one consumer (say, gradient-surgery ordering) never perturbs
another's sequence.  Given (seed, config) the entire layer reproduces
bit-identical batches.

A store keeps, per side (domains, tasks), one pool: a ``Dataset`` of all
that side's examples in label order, built at the first sampled draw.
A sampled batch is a view of the pool, an index vector of its rows, and
no list of examples is built for it.  Every batch is a ``Dataset`` (a
store dataset, a pool view, or a wrapped list) with one memo,
``Dataset.prepared``: it keeps what models derive from the batch
(counts, stacked arrays) for its lifetime, and each model evaluation's
last result with the parameters it was computed at.  What has one row
per example (``Dataset.rows``) a view gathers from its pool's, and does
not keep.  Never mutate an example, or an array inside one, in place.
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
from .simplex import SimplexWeights, normalize, on_simplex

# Example types, by model:
#   char-level LM  -> str
#   softmax classifier -> (features: np.ndarray, label: int)
#   quadratic family   -> QuadraticExample (see models.py)


class Dataset:
    """An immutable, indexed collection of examples, and what models derive from it."""

    def __init__(self, examples: Sequence):
        examples = list(examples)
        if not examples:
            raise EmptyDataset("dataset has no examples")
        self._examples = examples
        self._kept = {}

    def prepared(self, compute: Callable, params: np.ndarray | None = None):
        """``compute(self)``, or ``compute(params, self)`` for a float64
        parameter vector, kept read-only.  Each ``compute`` keeps its last
        result with the bytes of the parameters it was computed at, and a
        call at equal bytes returns it: without parameters, for the
        dataset's lifetime.  The bytes, not the array, are the key, so an
        array changed in place is computed anew.  A failure is not kept."""
        key = None if params is None else params.tobytes()
        kept = self._kept.get(compute)
        if kept is not None and kept[0] == key:
            return kept[1]
        out = _read_only(compute(self) if params is None else compute(params, self))
        self._kept[compute] = (key, out)
        return out

    def rows(self, prepare: Callable):
        """``prepared(prepare)``, for a ``prepare`` whose arrays have one row
        per example, in order: a view gathers its rows of its pool's."""
        return self.prepared(prepare)

    def take(self, index: np.ndarray) -> "DatasetView":
        """The batch of the rows at ``index`` (int64), as a view of this dataset."""
        return DatasetView(self, index)

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
        self._kept = {}

    def rows(self, prepare: Callable):
        """The view's rows of ``pool.rows(prepare)``, read-only and not kept."""
        whole = self.pool.prepared(prepare)
        return _read_only(tuple(arr[self.index] for arr in whole) if isinstance(whole, tuple) else whole[self.index])

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, i: int):
        return self.pool[self.index[i]]

    def __iter__(self) -> Iterator:
        return map(self.pool._examples.__getitem__, self.index.tolist())


def _read_only(out):
    """``out`` (a number, an array or a tuple of arrays), every array in it made read-only."""
    if isinstance(out, np.ndarray):
        out.setflags(write=False)
    elif isinstance(out, tuple):
        for arr in out:
            arr.setflags(write=False)
    return out


class MixtureStore:
    """K named source-domain datasets plus N named target-task datasets.

    Domain and task label sets must be disjoint so that a weight vector's
    labels identify unambiguously which side it addresses.  The datasets
    never change and the ``domains`` and ``tasks`` mappings are read-only,
    so each side's pool, built at its first sampled draw, stays valid for
    the store's lifetime.
    """

    def __init__(self, domains: Mapping[str, Dataset], tasks: Mapping[str, Dataset]):
        if not domains or not tasks:
            raise EmptyDataset("store needs at least one domain and one task")
        overlap = set(domains) & set(tasks)
        if overlap:
            raise DimensionError(f"domain and task labels overlap: {sorted(overlap)}")
        self.domains = MappingProxyType(dict(domains))
        self.tasks = MappingProxyType(dict(tasks))
        self.domain_labels = tuple(self.domains)
        self.task_labels = tuple(self.tasks)
        self._pools = {}

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def pool(self, side: str) -> tuple[Dataset, np.ndarray, np.ndarray]:
        """The pool of ``side`` ("domains" or "tasks"): one Dataset of every
        example of the side in label order, with the first row and the row
        count of each label."""
        if side not in self._pools:
            datasets = list((self.domains if side == "domains" else self.tasks).values())
            sizes = np.array([len(ds) for ds in datasets], dtype=np.int64)
            offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            pool = Dataset([ex for ds in datasets for ex in ds._examples])
            self._pools[side] = (pool, offsets, sizes)
        return self._pools[side]


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    """A fresh generator for (seed, stream), stable across runs and platforms."""
    digest = hashlib.sha256(stream.encode("utf-8")).digest()
    stream_key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), stream_key]))


def sample_mixture_batch(store: MixtureStore, w: SimplexWeights, size: int, rng: np.random.Generator) -> Dataset:
    """A batch of ``size`` examples, each from a dataset chosen by categorical(w).

    ``w.labels`` must match either the store's domain labels or its task
    labels, which says the side.  Sampling is per example, not per batch,
    so the batch composition itself is a draw from the mixture.  The batch
    is a view of the side's pool.
    """
    if w.labels == store.domain_labels:
        side = "domains"
    elif w.labels == store.task_labels:
        side = "tasks"
    else:
        raise DimensionError("weight labels match neither domains nor tasks")
    if size < 1:
        raise EmptyBatch(f"batch size must be >= 1, got {size}")
    pool, offsets, sizes = store.pool(side)
    cum = np.cumsum(w.values)
    # The weights may sum to just under 1; a draw at or above cum[-1]
    # goes to the last component with positive weight, never to a dead one.
    last_live = np.searchsorted(cum, cum[-1], side="left")
    which = np.minimum(np.searchsorted(cum, rng.random(size), side="right"), last_live)
    return pool.take(offsets[which] + _rows(rng.random(size), sizes[which]))


def sample_domain_batches(store: MixtureStore, size: int, rng: np.random.Generator) -> list[Dataset]:
    """One uniformly drawn batch from every domain, in label order."""
    return _uniform_batches(store, "domains", size, rng)


def sample_task_batches(store: MixtureStore, size: int, rng: np.random.Generator) -> list[Dataset]:
    """One uniformly drawn batch from every task, in label order."""
    return _uniform_batches(store, "tasks", size, rng)


def _uniform_batches(store: MixtureStore, side: str, size: int, rng: np.random.Generator) -> list[Dataset]:
    """One batch per component of ``side``, each a view of the side's pool."""
    if size < 1:
        raise EmptyBatch(f"batch size must be >= 1, got {size}")
    pool, offsets, sizes = store.pool(side)
    return [pool.take(offset + _rows(rng.random(size), n)) for offset, n in zip(offsets.tolist(), sizes.tolist())]


def _rows(u: np.ndarray, n: int | np.ndarray) -> np.ndarray:
    """The row each uniform draw ``u`` picks in a dataset of ``n`` rows:
    floor(u * n), clamped to n - 1.  One draw per example, whatever n is,
    keeps every stream's draw count independent of the dataset sizes."""
    return np.minimum((u * n).astype(np.int64), n - 1)


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


def chain_entropy_rate(spec: MarkovLanguageSpec) -> float:
    """Per-transition entropy of the chain: the optimal bigram NLL on it."""
    return chain_cross_entropy(spec, spec.transition)


def generate_markov_corpus(
    spec: MarkovLanguageSpec,
    length: int,
    rng: np.random.Generator,
    seq_len: int = 64,
) -> Dataset:
    """Sample roughly ``length`` characters from the chain as fixed-size chunks.

    Each chunk is an independent walk started from the stationary
    distribution, so empirical bigram frequencies converge to the spec's
    transitions as the corpus grows.
    """
    if length < 2:
        raise ValueError(f"corpus length must be >= 2, got {length}")
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
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
    return Dataset([text[i : i + seq_len] for i in range(0, len(text), seq_len)])


# ---------------------------------------------------------------------------
# File ingestion: UTF-8 line-delimited JSON records
# ---------------------------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def ingest_dataset(path: str | Path) -> Dataset:
    """Load a line-delimited dataset file, preserving record order.

    Each line is a JSON object: either ``{"text": "..."}`` or
    ``{"x": [numbers], "y": number}``; a label is a JSON number, never a
    boolean, and ``NaN`` and ``Infinity`` are not numbers.  Malformed lines
    raise IngestError with the 1-based line number; a file with no records
    raises EmptyDataset.
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
                y = record["y"]
                # JSON true/false parse as bool, a subclass of int
                if isinstance(y, bool) or not isinstance(y, (int, float)):
                    raise IngestError(f"'y' must be a number, got {type(y).__name__}", lineno)
                try:
                    x = np.asarray(record["x"], dtype=np.float64)
                except (TypeError, ValueError) as exc:
                    raise IngestError(f"bad feature record: {exc}", lineno) from exc
                examples.append((x, float(y)))
            else:
                raise IngestError("record needs 'text' or 'x'/'y' fields", lineno)
    if not examples:
        raise EmptyDataset(f"{path}: no records")
    return Dataset(examples)

