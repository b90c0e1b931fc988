"""Interleaved domain/task reweighting: the adaptive training loop.

One run alternates three activities:

1. every step, sample a training batch from the domain mixture and apply
   an optimizer update;
2. every ``update_every_z`` steps, re-score the tasks by how well each
   task's scorer gradient aligns with the current training direction,
   and shift task weights *toward the laggards* (descending
   exponentiated-gradient update): slow tasks get more priority;
3. every ``update_every_alpha`` steps, re-score the domains by how well
   each domain's gradient aligns with the task-weighted target gradient,
   and shift domain weights toward the helpers (ascending update).

Every algorithm is this one loop.  ``ALGORITHM_TABLE`` is the one place
that says how each differs: which task scorer it uses (none freezes the
task weights), whether the domain weights adapt, and which target
gradient the domain step aligns against.
"""

from __future__ import annotations

import math
import numbers
import sys
import typing
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import Trajectory
from .data import (
    Block,
    Datasets,
    MixtureStore,
    sample_domain_batches,
    sample_mixture_batch,
    sample_mixture_batches,
    sample_task_batches,
    stream_rng,
)
from .errors import DegenerateWeights, DimensionError, NumericalDivergence, ScoreError
from .metrics import LOSS_FLOOR, normalized_grad
from .models import _DRAW_BLOCK, DifferentiableModel, Point
from .simplex import SimplexWeights, multiplicative_update


@dataclass(frozen=True)
class Algorithm:
    """How one algorithm drives the shared loop.

    ``scorer`` turns a task gradient into the vector a task step aligns
    with the training direction: ``"loss"`` divides it by the task's
    batch loss, ``"ema"`` by the task's EMA loss, ``"raw"`` leaves it
    as is, and ``None`` freezes the task weights.  ``target`` is the
    gradient a domain step aligns against: the z-weighted task mixture
    divided by its loss (``"loss"``), the raw mixture (``"raw"``), or
    the PCGrad combination of per-task gradients (``"pcgrad"``).
    """

    scorer: str | None
    adapts_alpha: bool
    target: str


# DoGE (arXiv 2310.15393) freezes z; PCGrad (arXiv 2001.06782) replaces the target.
ALGORITHM_TABLE = {
    "uniform": Algorithm(scorer=None, adapts_alpha=False, target="loss"),
    "doge": Algorithm(scorer=None, adapts_alpha=True, target="loss"),
    "doge_pcgrad": Algorithm(scorer=None, adapts_alpha=True, target="pcgrad"),
    "grape": Algorithm(scorer="loss", adapts_alpha=True, target="loss"),
    "grape_gap": Algorithm(scorer="raw", adapts_alpha=True, target="raw"),
    "grape_ema": Algorithm(scorer="ema", adapts_alpha=True, target="loss"),
}
ALGORITHMS = tuple(ALGORITHM_TABLE)
SCHEDULES = ("constant", "cosine", "wsd")
MIX_MODES = ("sampled", "expected")
OPTIMIZERS = ("sgd", "adamw")
# The allowed values of each string field of ReweightConfig.
CHOICES = {"algorithm": ALGORITHMS, "lr_schedule": SCHEDULES, "task_mix_mode": MIX_MODES,
           "domain_mix_mode": MIX_MODES, "optimizer": OPTIMIZERS}
# The most examples in one batch: a draw allocates its arrays at once, and 1e9 would ask for gigabytes.
MAX_BATCH_SIZE = 2**20
# The most training steps of one run, and the most score estimates averaged per update: a run
# within both ends in minutes on the built-in models, not hours (criterion 9 runs 20000 steps).
MAX_TOTAL_STEPS = 10**6
MAX_EVAL_REPLICATES = 1000
# The upper bound of each bounded integer field.
UPPER_BOUNDS = {"total_steps": MAX_TOTAL_STEPS, "eval_replicates": MAX_EVAL_REPLICATES,
                "train_batch_size": MAX_BATCH_SIZE, "eval_batch_size": MAX_BATCH_SIZE}
_DRAW_BATCHES = 256  # the most batches the loop draws at once (``_draw_count``); ``models._DRAW_BLOCK`` examples


@dataclass
class ReweightConfig:
    """Hyperparameters of one reweighting run.

    ``step_ratio_alpha`` / ``step_ratio_z`` are the exponent scales of
    the two multiplicative updates at the base learning rate; when the
    schedule decays the rate, the effective ratios shrink by the same
    factor.  ``update_every_*`` may exceed ``total_steps`` to disable
    that update entirely.  ``task_mix_mode`` / ``domain_mix_mode`` choose
    between sampling mixed batches (the stochastic default) and exact
    weighted full-batch combinations (variance-free, for analysis runs).
    ``UPPER_BOUNDS`` caps ``total_steps`` at ``MAX_TOTAL_STEPS`` (10^6),
    ``eval_replicates`` at ``MAX_EVAL_REPLICATES`` (1000) and both batch
    sizes at ``MAX_BATCH_SIZE`` (2^20).
    """

    algorithm: str = "grape"
    total_steps: int = 1000
    step_ratio_alpha: float = 1.5
    step_ratio_z: float = 10.0
    update_every_alpha: int = 100
    update_every_z: int = 100
    lr_schedule: str = "constant"
    base_lr: float = 0.1
    ema_beta: float = 0.7
    task_mix_mode: str = "sampled"
    domain_mix_mode: str = "sampled"
    eval_replicates: int = 1
    train_batch_size: int = 16
    eval_batch_size: int | None = None
    eval_every: int = 10
    optimizer: str = "sgd"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    weight_floor: float = 0.0
    divergence_factor: float = 1e6

    def __post_init__(self):
        for name, choices in CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        for name, kind in FIELD_TYPES.items():
            value = getattr(self, name)
            # compared exactly, so an int too large for a float is not finite either
            if kind is float and (isinstance(value, bool) or not isinstance(value, numbers.Real)
                                  or not abs(value) <= sys.float_info.max):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            # every integer field is a count or a period, so >= 1
            if int in (kind, *typing.get_args(kind)) and (kind is int or value is not None) and (
                    isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        for name, bound in UPPER_BOUNDS.items():
            if (getattr(self, name) or 0) > bound:
                raise ValueError(f"{name} must be <= {bound}, got {getattr(self, name)!r}")
        for name in ("step_ratio_alpha", "step_ratio_z", "base_lr", "adam_eps"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")
        for name in ("adam_beta1", "adam_beta2", "weight_floor"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)!r}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay!r}")
        if not (0.0 < self.ema_beta < 1.0):
            raise ValueError(f"ema_beta must lie in (0, 1), got {self.ema_beta!r}")
        if self.divergence_factor <= 1.0:
            raise ValueError(f"divergence_factor must be > 1, got {self.divergence_factor!r}")

    @property
    def resolved_eval_batch_size(self) -> int:
        return self.train_batch_size if self.eval_batch_size is None else self.eval_batch_size

    @property
    def adapts_z(self) -> bool:
        return ALGORITHM_TABLE[self.algorithm].scorer is not None

    @property
    def adapts_alpha(self) -> bool:
        return ALGORITHM_TABLE[self.algorithm].adapts_alpha


# The type of each ReweightConfig field, which its values (and config files) are checked against.
FIELD_TYPES = typing.get_type_hints(ReweightConfig)


def learning_rate_at(cfg: ReweightConfig, step: int) -> float:
    """Learning rate for training step ``step`` (0-based)."""
    progress = step / cfg.total_steps
    if cfg.lr_schedule == "constant":
        return cfg.base_lr
    floor = cfg.base_lr / 10.0
    if cfg.lr_schedule == "cosine":
        return floor + 0.5 * (cfg.base_lr - floor) * (1.0 + math.cos(math.pi * progress))
    # wsd: constant, then linear decay to base/10 over the final 20% of steps
    if progress < 0.8:
        return cfg.base_lr
    return cfg.base_lr - (cfg.base_lr - floor) * (progress - 0.8) / 0.2


@dataclass
class OverheadCounter:
    """Gradient-evaluation bookkeeping, attributed by purpose.

    ``train_grad_evals`` counts one per training step.  The task counter
    absorbs everything a task-reweight step costs (per-task gradients
    plus its fresh training-mixture gradient); the domain counter absorbs
    a domain-reweight step's cost (per-domain gradients plus the target
    gradient, or per-task gradients under gradient surgery).  Counts are
    the evaluations the algorithm requests: under the default sampled
    pipeline a task step costs N+1 and a domain step K+1, while expected
    (full-batch) mixtures replace each mixed-batch gradient with one per
    component.  A request is counted whether or not the point evaluates
    the model for it (``models.Point``).
    """

    train_grad_evals: int = 0
    task_grad_evals: int = 0
    domain_grad_evals: int = 0


def alignment(u: np.ndarray, v: np.ndarray) -> float:
    """Euclidean inner product between two flat gradients: criterion 3's rule, and ``_scores`` per row."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionError(f"gradient shapes differ: {u.shape} vs {v.shape}")
    return float(np.dot(u, v))


def _scores(grads, direction) -> np.ndarray:
    """Each row's ``alignment`` with ``direction``, bitwise but for a zero's sign at D = 1, which _reweight drops."""
    return np.matmul(np.asarray(grads, dtype=np.float64)[:, None, :], np.reshape(direction, (-1, 1)))[:, 0, 0]


def pcgrad_surgered(task_grads: list[np.ndarray], rng: np.random.Generator) -> list[np.ndarray]:
    """Per-task gradients after pairwise projection surgery.

    Each gradient is processed against the *original* others in a
    shuffled order; whenever the running vector conflicts with another
    task's gradient (negative dot product), the component along that
    gradient is removed.  Zero-norm references are skipped.
    """
    grads = [np.asarray(g, dtype=np.float64) for g in task_grads]
    if not grads:
        raise DimensionError("pcgrad needs at least one gradient")
    dim = grads[0].shape
    if any(g.shape != dim for g in grads):
        raise DimensionError("task gradients must share one shape")
    sq_norms = [float(np.dot(g, g)) for g in grads]
    out = []
    for i in range(len(grads)):
        surgered = grads[i].copy()
        others = [j for j in range(len(grads)) if j != i]
        for j in rng.permutation(len(others)):
            k = others[int(j)]
            if sq_norms[k] == 0.0:
                continue
            dot = float(np.dot(surgered, grads[k]))
            if dot < 0.0:
                surgered -= (dot / sq_norms[k]) * grads[k]
        out.append(surgered)
    return out


def pcgrad_combine(task_grads: list[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    """Conflict-free target direction: the mean of the surgered gradients."""
    surgered = pcgrad_surgered(task_grads, rng)
    return sum(surgered) / len(surgered)


# ---------------------------------------------------------------------------
# Gradient estimators shared by the update steps
# ---------------------------------------------------------------------------


def _component_batches(
    point: Point, store: MixtureStore, side: str, mode: str, size: int, rng: np.random.Generator,
) -> Datasets | tuple | Block:
    """One batch per domain or per task, in label order: the side's
    ``Datasets`` in expected ``mode``, and in sampled mode the prepared
    batches of one uniformly drawn ``Block``."""
    if mode == "expected":
        return store.datasets(side)
    sample = sample_domain_batches if side == "domains" else sample_task_batches
    return point.prepare(sample(store, size, rng))


def _mixture_direction(
    point: Point,
    store: MixtureStore,
    weights: SimplexWeights,
    side: str,
    mode: str,
    rng: np.random.Generator,
    size: int,
    normalize: bool = False,
) -> tuple[np.ndarray, int]:
    """Gradient of one batch from mix(weights), or the exact weighted
    combination of full-batch component gradients in expected ``mode``.

    With ``normalize`` every gradient is divided by the loss of its own
    batch first.  Returns (gradient, number of gradient evaluations spent).
    """
    if mode == "expected":
        batches, live = store.datasets(side), weights.values.nonzero()[0]
        rows = None if live.size == len(batches) else live  # every component live: read the rows in place
        grads = point.grads(batches, rows)
        if normalize:
            grads = normalized_grad(grads, point.losses(batches, rows))
        scale = weights.values[:, None] if rows is None else weights.values[rows, None]
        scaled = np.asarray(grads, dtype=np.float64) * scale
        # rows in label order from +0.0, as a zeros-and-+= loop: a reduce adds rows of two or more entries so but
        # sums a lone column pairwise, and accumulate, which adds in order, costs one call per column
        return (np.add.reduce(scaled, 0) if scaled.shape[1] > 1 else np.add.accumulate(scaled)[-1] + 0.0), live.size
    batch = point.prepare([sample_mixture_batch(store, weights, size, rng)])
    grad = point.grads(batch)[0]
    return (normalized_grad(grad, point.losses(batch)[0]) if normalize else grad), 1


# ---------------------------------------------------------------------------
# The two reweighting steps
# ---------------------------------------------------------------------------


def _reweight(
    weights: SimplexWeights,
    score_once: Callable[[], np.ndarray],
    step_ratio: float,
    cfg: ReweightConfig,
    gamma: float | None,
) -> tuple[SimplexWeights, np.ndarray]:
    """One exponentiated-gradient move of either player.

    Averages ``score_once()`` over ``eval_replicates`` estimates, scales
    the signed ``step_ratio`` by the schedule (``gamma / base_lr``;
    unscaled when ``gamma`` is None) and steps ``weights`` by it: a
    negative ratio descends.  Returns (new weights, averaged scores).
    """
    scores = sum(score_once() for _ in range(cfg.eval_replicates)) / cfg.eval_replicates
    ratio = step_ratio if gamma is None else step_ratio * gamma / cfg.base_lr
    return multiplicative_update(weights, scores, ratio, floor=cfg.weight_floor), scores


def task_reweight_step(
    z: SimplexWeights,
    point: Point,
    store: MixtureStore,
    alpha: SimplexWeights,
    cfg: ReweightConfig,
    rng: np.random.Generator,
    gamma: float | None = None,
    counters: OverheadCounter | None = None,
    ema: np.ndarray | None = None,
) -> tuple[SimplexWeights, np.ndarray]:
    """Re-score every task against the training direction and downweight
    the well-aligned (fast-improving) ones.

    The score of task n is the inner product of its scorer gradient (the
    ``scorer`` of the algorithm's table row) with a fresh
    training-mixture gradient, both at ``point``.  The ``"ema"`` scorer also folds each
    observed loss into ``ema``, the per-task loss averages (NaN until a
    task's first observation, which sets it exactly: a zero start would
    blow up the first normalized score), in place:
    ``ema' = ema_beta * ema + (1 - ema_beta) * loss``.  Returns the new
    task weights and the scores, averaged over ``eval_replicates``
    estimates.
    """
    if not cfg.adapts_z:
        raise ValueError(f"algorithm {cfg.algorithm!r} does not update task weights")
    scorer = ALGORITHM_TABLE[cfg.algorithm].scorer
    if scorer == "ema" and ema is None:
        raise ValueError(f"{cfg.algorithm} needs the per-task EMA loss array")
    size = cfg.resolved_eval_batch_size

    def scorer_grads(batches):
        grads = point.grads(batches)
        if scorer == "raw":
            return grads
        losses = point.losses(batches)
        if scorer == "ema":
            folded = cfg.ema_beta * ema + (1.0 - cfg.ema_beta) * np.asarray(losses)
            losses = ema[:] = np.where(np.isnan(ema), losses, folded)  # a task's first loss sets its average
        return normalized_grad(grads, losses)

    def score_once() -> np.ndarray:
        direction, direction_evals = _mixture_direction(point, store, alpha, "domains", cfg.domain_mix_mode, rng, size)
        batches = _component_batches(point, store, "tasks", cfg.task_mix_mode, size, rng)
        scores = _scores(scorer_grads(batches), direction)
        if counters is not None:
            counters.task_grad_evals += len(scores) + direction_evals
        return scores

    return _reweight(z, score_once, -cfg.step_ratio_z, cfg, gamma)


def domain_reweight_step(
    alpha: SimplexWeights,
    point: Point,
    store: MixtureStore,
    z: SimplexWeights,
    cfg: ReweightConfig,
    rng: np.random.Generator,
    gamma: float | None = None,
    counters: OverheadCounter | None = None,
    pcgrad_rng: np.random.Generator | None = None,
) -> tuple[SimplexWeights, np.ndarray]:
    """Re-score every domain against the task-weighted target gradient
    (the ``target`` of the algorithm's table row), both at ``point``, and
    upweight the well-aligned ones.  Returns the new domain weights and
    the averaged scores."""
    if not cfg.adapts_alpha:
        raise ValueError(f"algorithm {cfg.algorithm!r} does not update domain weights")
    target_kind = ALGORITHM_TABLE[cfg.algorithm].target
    if target_kind == "pcgrad" and pcgrad_rng is None:
        raise ValueError(f"{cfg.algorithm} needs a pcgrad rng stream")
    size = cfg.resolved_eval_batch_size

    def score_once() -> np.ndarray:
        domain_grads = point.grads(_component_batches(point, store, "domains", cfg.domain_mix_mode, size, rng))
        if target_kind == "pcgrad":
            task_grads = list(point.grads(_component_batches(point, store, "tasks", cfg.task_mix_mode, size, rng)))
            target, target_evals = pcgrad_combine(task_grads, pcgrad_rng), len(task_grads)
        else:
            target, target_evals = _mixture_direction(point, store, z, "tasks", cfg.task_mix_mode, rng, size,
                                                      normalize=target_kind == "loss")
        if counters is not None:
            counters.domain_grad_evals += len(domain_grads) + target_evals
        return _scores(domain_grads, target)

    return _reweight(alpha, score_once, cfg.step_ratio_alpha, cfg, gamma)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


class _Sgd:
    def step(self, theta: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        return theta - lr * grad


class _AdamW:
    """Adam with decoupled weight decay."""

    def __init__(self, cfg: ReweightConfig, dim: int):
        self.b1, self.b2, self.eps, self.wd = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps, cfg.weight_decay
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        self.t += 1
        self.m = self.b1 * self.m + (1.0 - self.b1) * grad
        self.v = self.b2 * self.v + (1.0 - self.b2) * grad * grad
        m_hat = self.m / (1.0 - self.b1**self.t)
        v_hat = self.v / (1.0 - self.b2**self.t)
        return theta - lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.wd * theta)


# ---------------------------------------------------------------------------
# The full training run
# ---------------------------------------------------------------------------


def _initial_weights(
    init: SimplexWeights | None, labels: tuple[str, ...], what: str
) -> SimplexWeights:
    if init is None:
        return SimplexWeights.uniform(labels)
    if init.labels != labels:
        raise DimensionError(f"initial {what} labels {init.labels} do not match store {labels}")
    return init


def _draw_count(cfg: ReweightConfig, t: int) -> int:
    """How many sampled training batches to draw at step ``t``: those of
    the steps up to the next change of alpha (the next multiple of
    ``update_every_alpha``, or ``total_steps`` when alpha does not adapt),
    at most ``_DRAW_BATCHES`` batches of ``_DRAW_BLOCK`` examples in all,
    and at least one batch."""
    every = cfg.update_every_alpha if cfg.adapts_alpha else cfg.total_steps
    end = min((t // every + 1) * every, cfg.total_steps)
    return min(end - t, _DRAW_BATCHES, max(1, _DRAW_BLOCK // cfg.train_batch_size))


@np.errstate(all="ignore")  # every non-finite value ends in a typed error below, not in a warning
def train_run(
    cfg: ReweightConfig,
    model: DifferentiableModel,
    store: MixtureStore,
    init_alpha: SimplexWeights | None = None,
    init_z: SimplexWeights | None = None,
    seed: int = 0,
    params0: np.ndarray | None = None,
) -> tuple[np.ndarray, Trajectory]:
    """Run ``cfg.total_steps`` training steps with interleaved reweighting.

    Weight updates fire after the optimizer update of steps that are
    multiples of their frequency, and score batches are evaluated at the
    *post-update* parameters; when both fire on one step, task weights
    update first and the domain update sees the new task weights.  A
    sampled training batch depends only on alpha and the "train" stream,
    so the batches of all the steps up to the next change of alpha are
    drawn in one ``sample_mixture_batches`` call (see ``_draw_count``),
    the same batches that one ``sample_mixture_batch`` call per step would
    draw, and prepared once; step l reads the gradient of row l alone.
    The loop holds one ``Point`` per parameter vector, one at the start
    and a new one after each optimizer step, and evaluates the model only
    through it.  Task losses are recorded at every reweighting step, every
    ``eval_every`` steps, and at the end.  Raises NumericalDivergence if
    parameters go non-finite or any task loss exceeds ``divergence_factor``
    times its initial value, or if a weight update meets non-finite scores
    or weights.
    """
    train_rng, task_rng, domain_rng, pcgrad_rng, record_rng = (
        stream_rng(seed, name) for name in ("train", "task_step", "domain_step", "pcgrad", "record")
    )

    alpha = _initial_weights(init_alpha, store.domain_labels, "domain weights")
    z = _initial_weights(init_z, store.task_labels, "task weights")
    theta = np.array(model.initial_params() if params0 is None else params0, dtype=np.float64)
    if theta.shape != (model.param_dim,):
        raise DimensionError(f"params0 must have length {model.param_dim}")

    ema = np.full(store.num_tasks, np.nan)
    counters = OverheadCounter()
    optimizer = _AdamW(cfg, model.param_dim) if cfg.optimizer == "adamw" else _Sgd()
    trajectory = Trajectory(store.domain_labels, store.task_labels)

    def eval_task_losses() -> np.ndarray:
        batches = _component_batches(point, store, "tasks", cfg.task_mix_mode, cfg.resolved_eval_batch_size, record_rng)
        return np.array(point.losses(batches))

    def guard(losses: np.ndarray, step: int) -> None:
        if not np.isfinite(losses).all():
            raise NumericalDivergence("task loss is not finite", step)
        blown = losses > limits
        if blown.any():
            ratios = np.where(blown, losses / np.maximum(initial_losses, LOSS_FLOOR), 0.0)
            worst = int(np.argmax(ratios))
            raise NumericalDivergence(f"loss of task {store.task_labels[worst]!r} exceeded "
                                      f"{cfg.divergence_factor:g} x its initial value", step)

    last_task_scores = np.zeros(store.num_tasks)
    last_domain_scores = np.zeros(store.num_domains)

    def record(step, losses, lr):
        trajectory.append(step, losses, alpha, z, last_task_scores, last_domain_scores, lr,
                          counters.train_grad_evals, counters.task_grad_evals, counters.domain_grad_evals)

    point = Point(model, theta)
    initial_losses = eval_task_losses()
    # A task whose initial loss is at most LOSS_FLOOR is never judged blown up.
    limits = np.where(initial_losses > LOSS_FLOOR, cfg.divergence_factor * initial_losses, np.inf)
    guard(initial_losses, 0)
    record(0, initial_losses, learning_rate_at(cfg, 0))

    drawn, start, end = None, 0, 0  # sampled mode: the prepared training batches of steps start to end - 1
    for t in range(cfg.total_steps):
        gamma = learning_rate_at(cfg, t)
        if cfg.domain_mix_mode == "sampled":
            if t == end:
                start, end = t, t + _draw_count(cfg, t)
                drawn = point.prepare(sample_mixture_batches(store, alpha, cfg.train_batch_size, end - start, train_rng))
            direction = point.grads(drawn, slice(t - start, t - start + 1))[0]  # a slice, not a gathered copy
        else:
            direction, _ = _mixture_direction(point, store, alpha, "domains", cfg.domain_mix_mode, train_rng,
                                              cfg.train_batch_size)
        counters.train_grad_evals += 1
        theta = optimizer.step(theta, direction, gamma)
        if not np.isfinite(theta).all():
            raise NumericalDivergence("parameters are not finite", t + 1)
        point = Point(model, theta)

        update_z = cfg.adapts_z and (t + 1) % cfg.update_every_z == 0
        update_alpha = cfg.adapts_alpha and (t + 1) % cfg.update_every_alpha == 0
        try:
            if update_z:
                z, last_task_scores = task_reweight_step(
                    z, point, store, alpha, cfg, task_rng, gamma=gamma, counters=counters, ema=ema,
                )
            if update_alpha:
                alpha, last_domain_scores = domain_reweight_step(
                    alpha, point, store, z, cfg, domain_rng, gamma=gamma, counters=counters, pcgrad_rng=pcgrad_rng,
                )
        except (ScoreError, DegenerateWeights) as exc:  # non-finite model output at theta
            raise NumericalDivergence(f"weight update failed: {exc}", t + 1) from exc

        if update_z or update_alpha or (t + 1) % cfg.eval_every == 0 or (t + 1) == cfg.total_steps:
            losses = eval_task_losses()
            guard(losses, t + 1)
            record(t + 1, losses, gamma)

    return theta, trajectory
