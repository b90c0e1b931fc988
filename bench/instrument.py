"""Outside-in instrumentation of the grapemix training loop.

Nothing here edits the library.  ``Runner`` stands in for ``train_run``
and opens one span per call.  In a traced run it also hands the loop a
``TracedModel`` proxy that times ``loss``/``grad``, and ``traced``
replaces, for the duration of a ``with`` block, the functions the loop
reaches through module globals with span-recording wrappers.
``layer_metrics`` turns the spans of one traced round into the per-layer
metrics, and ``crosscheck`` compares the traced gradient calls with the
program's own counters.
"""

from __future__ import annotations

from array import array
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

import numpy as np

import grapemix.analysis as analysis
import grapemix.reweighting as reweighting
import grapemix.verify as verify
from grapemix.analysis import Trajectory
from grapemix.reweighting import ReweightConfig
from spans import SpanBuffer, timing_summary

# (owner, attribute, span name) of every function the training loop (or
# a verify harness function) calls through a module global or a method.
WRAPPED = (
    (reweighting, "sample_mixture_batch", "data.sample_mixture_batch"),
    (reweighting, "sample_task_batches", "data.sample_task_batches"),
    (reweighting, "sample_domain_batches", "data.sample_domain_batches"),
    (reweighting, "task_reweight_step", "reweighting.task_reweight_step"),
    (reweighting, "domain_reweight_step", "reweighting.domain_reweight_step"),
    (reweighting, "pcgrad_combine", "reweighting.pcgrad_combine"),
    (reweighting, "multiplicative_update", "simplex.multiplicative_update"),
    (analysis.Trajectory, "append", "analysis.record"),
    (verify, "generate_markov_corpus", "data.generate_markov_corpus"),
)

TRAIN_RUN = "reweighting.train_run"
TASK_STEP = "reweighting.task_reweight_step"
DOMAIN_STEP = "reweighting.domain_reweight_step"
BOOKKEEPING = "trace"  # the tracer's own per-call work, kept out of its parent's self time


@contextmanager
def patched(owner, attribute: str, value):
    """Replace ``owner.attribute`` with ``value`` inside the block."""
    saved = getattr(owner, attribute)
    setattr(owner, attribute, value)
    try:
        yield
    finally:
        setattr(owner, attribute, saved)


def _spanned(fn, spans: SpanBuffer, name: str):
    def wrapper(*args, **kwargs):
        idx = spans.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            spans.finish(idx)

    return wrapper


@contextmanager
def traced(spans: SpanBuffer):
    """Record a span around every call to a WRAPPED function inside the block."""
    with ExitStack() as stack:
        for owner, attr, name in WRAPPED:
            stack.enter_context(patched(owner, attr, _spanned(getattr(owner, attr), spans, name)))
        yield


class TracedModel:
    """A DifferentiableModel proxy that times ``loss`` and ``grad``.

    Per call it also notes the batch size, whether a ``loss`` call reuses
    the batch and parameters of the ``grad`` call just before it, and
    whether the batch holds exactly the examples of an earlier call of
    the same run (compared as the multiset of example identities, by
    hash).
    """

    def __init__(self, model, spans: SpanBuffer):
        self._model = model
        self._spans = spans
        self.param_dim = model.param_dim
        self._seen: set[int] = set()
        self._last_grad = None
        self.examples = array("q")
        self.repeat = array("b")
        self.loss_after_grad = array("b")

    def initial_params(self):
        return self._model.initial_params()

    def grad(self, params, batch):
        idx = self._spans.begin("models.grad")
        try:
            out = self._model.grad(params, batch)
        finally:
            self._spans.finish(idx)
        with self._spans.span(BOOKKEEPING):
            self._observe(batch)
            self._last_grad = (params, batch)
        return out

    def loss(self, params, batch):
        idx = self._spans.begin("models.loss")
        try:
            out = self._model.loss(params, batch)
        finally:
            self._spans.finish(idx)
        with self._spans.span(BOOKKEEPING):
            last, self._last_grad = self._last_grad, None
            self.loss_after_grad.append(
                last is not None and batch is last[1] and (params is last[0] or np.array_equal(params, last[0]))
            )
            self._observe(batch)
        return out

    def _observe(self, batch) -> None:
        key = hash(tuple(sorted(map(id, batch))))
        self.repeat.append(key in self._seen)
        self._seen.add(key)
        self.examples.append(len(batch))


@dataclass
class RunCall:
    span: int
    cfg: ReweightConfig
    steps: int
    trajectory: Trajectory | None  # traced runs only
    model: TracedModel | None  # traced runs only


class Runner:
    """Calls ``train_run`` inside a span and keeps each completed call.

    A traced runner hands the loop a TracedModel and keeps the trajectory
    for the cross-check.
    """

    def __init__(self, spans: SpanBuffer, traced: bool = False):
        self.spans = spans
        self.traced = traced
        self.calls: list[RunCall] = []

    def __call__(self, cfg, model, store, **kwargs):
        if self.traced:
            model = TracedModel(model, self.spans)
        idx = self.spans.begin(TRAIN_RUN)
        try:
            params, trajectory = reweighting.train_run(cfg, model, store, **kwargs)
        finally:
            self.spans.finish(idx)
        kept = (trajectory, model) if self.traced else (None, None)
        self.calls.append(RunCall(idx, cfg, int(trajectory.steps[-1]), *kept))
        return params, trajectory


def expected_train_grads(call: RunCall) -> int:
    """Gradient calls the training steps of one run make, from its trajectory.

    A sampled step makes one call.  An expected step makes one call per
    domain with nonzero weight; weights change only on reweighting steps,
    and every one of those is recorded.
    """
    tr = call.trajectory
    if call.cfg.domain_mix_mode == "sampled":
        return int(tr.steps[-1])
    steps = tr.steps
    nonzero = (tr.alphas > 0.0).sum(axis=1)
    return int((nonzero[:-1] * np.diff(steps)).sum())


class SpanTable:
    """Column view of a finished SpanBuffer, with masks by span name."""

    def __init__(self, spans: SpanBuffer):
        self.name_id, self.parent, start, end = spans.columns()
        self._ids = {name: i for i, name in enumerate(spans.names)}
        self.parent_id = np.where(self.parent >= 0, self.name_id[np.maximum(self.parent, 0)], -1)
        self.dur = end - start
        self.own = spans.self_ns()
        self.layers = [name.split(".", 1)[0] for name in spans.names]
        run_id = self._ids.get(TRAIN_RUN, -1)
        run_of = [-1] * len(spans)
        for i, (nid, p) in enumerate(zip(spans.name_id, spans.parent)):
            run_of[i] = i if nid == run_id else (run_of[p] if p >= 0 else -1)
        self.run_of = np.array(run_of, dtype=np.int64)

    def named(self, name: str, under: str | None = None) -> np.ndarray:
        mask = self.name_id == self._ids.get(name, -1)
        return mask if under is None else mask & (self.parent_id == self._ids.get(under, -1))

    def layer(self, layer: str) -> np.ndarray:
        return np.isin(self.name_id, [i for i, lay in enumerate(self.layers) if lay == layer])


def crosscheck(table: SpanTable, calls: list[RunCall]) -> list[str]:
    """Traced grad calls per purpose against each run's final counters."""
    grads = table.named("models.grad")
    problems = []
    for call in calls:
        train, task, domain = call.trajectory.final_counters
        steps = int(call.trajectory.steps[-1])
        mine = table.parent == call.span
        task_steps = np.flatnonzero(table.named(TASK_STEP) & mine)
        domain_steps = np.flatnonzero(table.named(DOMAIN_STEP) & mine)
        seen = {
            "train": int((grads & mine).sum()),
            "task": int((grads & np.isin(table.parent, task_steps)).sum()),
            "domain": int((grads & np.isin(table.parent, domain_steps)).sum()),
        }
        want = {"train": expected_train_grads(call), "task": task, "domain": domain}
        label = f"{call.cfg.algorithm} ({call.cfg.domain_mix_mode})"
        if train != steps:
            problems.append(f"{label}: train_grad_evals {train} != {steps} steps")
        for purpose in seen:
            if seen[purpose] != want[purpose]:
                problems.append(f"{label}: traced {purpose} grads {seen[purpose]} != counter-implied {want[purpose]}")
    return problems


def layer_metrics(table: SpanTable, calls: list[RunCall], csv_bytes: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced round, and the details behind them.

    Shares are of the total train_run time.  Counts are those of the
    round, which is deterministic.
    """
    dur, in_run = table.dur, table.run_of >= 0
    named = table.named
    run_total = float(dur[named(TRAIN_RUN)].sum())

    def share(mask):
        return float(table.own[mask & in_run].sum()) / run_total

    def seconds(name):
        return float(dur[named(name)].sum()) * 1e-9

    values, detail = {}, {}

    def timed(prefix, mask, count=True, tail=True):
        summary = timing_summary(dur[mask])
        if count:
            values[f"{prefix}.calls"] = summary["n"]
        values[f"{prefix}.us_p50"] = summary["us_p50"]
        if tail:
            values[f"{prefix}.us_tail"] = summary["us_tail"]
            detail[f"{prefix}.us_tail"] = {"percentile": summary["tail_pct"], "samples": summary["n"]}

    timed("data.sample_mixture_batch", named("data.sample_mixture_batch"))
    values["data.sample_uniform_batches.calls"] = int(
        named("data.sample_task_batches").sum() + named("data.sample_domain_batches").sum()
    )
    values["data.self_share"] = share(table.layer("data"))
    values["data.generate_markov_corpus.s"] = seconds("data.generate_markov_corpus")

    purposes = {"grad": {"train": TRAIN_RUN, "task": TASK_STEP, "domain": DOMAIN_STEP},
                "loss": {"task": TASK_STEP, "domain": DOMAIN_STEP, "record": TRAIN_RUN}}
    for fn, parents in purposes.items():
        for purpose, parent_name in parents.items():
            values[f"models.{fn}.calls.{purpose}"] = int(named(f"models.{fn}", parent_name).sum())
        timed(f"models.{fn}", named(f"models.{fn}"), count=False)
    models = [c.model for c in calls]
    examples = np.concatenate([np.array(m.examples, dtype=np.int64) for m in models])
    repeats = np.concatenate([np.array(m.repeat, dtype=bool) for m in models])
    after = np.concatenate([np.array(m.loss_after_grad, dtype=bool) for m in models])
    values["models.examples_per_call"] = float(examples.mean())
    values["models.self_share"] = share(table.layer("models"))
    values["models.minimax_optimum.s"] = seconds("models.minimax_optimum")
    values["models.loss_after_grad_share"] = float(after.mean())
    values["models.repeat_batch_share"] = float(repeats.mean())
    detail["models.loss_after_grad_share"] = {"base_loss_calls": int(after.size)}
    detail["models.repeat_batch_share"] = {"base_model_calls": int(repeats.size)}

    timed("reweighting.task_reweight_step", named(TASK_STEP))
    timed("reweighting.domain_reweight_step", named(DOMAIN_STEP))
    timed("reweighting.pcgrad_combine", named("reweighting.pcgrad_combine"), tail=False)
    values["reweighting.train_run.self_share"] = share(named(TRAIN_RUN))
    train, task, domain = (sum(c.trajectory.final_counters[i] for c in calls) for i in range(3))
    values["reweighting.grad_evals.train"] = train
    values["reweighting.grad_evals.task"] = task
    values["reweighting.grad_evals.domain"] = domain
    values["reweighting.overhead_ratio"] = (task + domain) / train
    detail["reweighting.overhead_ratio"] = {"base_train_grad_evals": train}

    timed("simplex.multiplicative_update", named("simplex.multiplicative_update"))
    values["simplex.self_share"] = share(table.layer("simplex"))

    timed("analysis.record", named("analysis.record", TRAIN_RUN), tail=False)
    values["analysis.export.s"] = seconds("analysis.export")
    values["analysis.import.s"] = seconds("analysis.import")
    values["analysis.csv_bytes"] = csv_bytes
    values["analysis.report.s"] = seconds("analysis.report")
    detail["trace.spans"] = len(table.dur)
    detail["trace.bookkeeping_share"] = float(dur[named(BOOKKEEPING) & in_run].sum()) / run_total
    return values, detail
