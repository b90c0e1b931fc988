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

from .analysis import Trajectory, TrajectoryRecord
from .data import (
    Dataset,
    MixtureStore,
    sample_domain_batches,
    sample_mixture_batch,
    sample_task_batches,
    stream_rng,
)
from .errors import DegenerateWeights, DimensionError, NumericalDivergence, ScoreError
from .metrics import LOSS_FLOOR, normalized_grad
from .models import DifferentiableModel
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
        for name in ("train_batch_size", "eval_batch_size"):
            if (getattr(self, name) or 0) > MAX_BATCH_SIZE:
                raise ValueError(f"{name} must be <= {MAX_BATCH_SIZE}, got {getattr(self, name)!r}")
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
    component.  A request that repeats one on the same batch at unchanged
    parameters is counted, though the batch serves it from what it kept
    (``Dataset.prepared``) without evaluating the model again.
    """

    train_grad_evals: int = 0
    task_grad_evals: int = 0
    domain_grad_evals: int = 0


def alignment(u: np.ndarray, v: np.ndarray) -> float:
    """Euclidean inner product between two flat gradients."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionError(f"gradient shapes differ: {u.shape} vs {v.shape}")
    return float(np.dot(u, v))


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


def _grad(model: DifferentiableModel, params: np.ndarray, batch: Dataset, normalize: bool) -> np.ndarray:
    """The gradient of ``batch``, divided by the batch loss when ``normalize``."""
    grad = model.grad(params, batch)
    return normalized_grad(grad, model.loss(params, batch)) if normalize else grad


def _mix_mode(cfg: ReweightConfig, side: str) -> str:
    return cfg.domain_mix_mode if side == "domains" else cfg.task_mix_mode


def _component_batches(
    store: MixtureStore, side: str, cfg: ReweightConfig, size: int, rng: np.random.Generator
) -> list[Dataset]:
    """One batch per domain or per task, in label order: a uniform draw
    in sampled mode, the whole dataset in expected mode."""
    if side == "domains":
        datasets, labels, sample = store.domains, store.domain_labels, sample_domain_batches
    else:
        datasets, labels, sample = store.tasks, store.task_labels, sample_task_batches
    if _mix_mode(cfg, side) == "expected":
        # The Dataset itself, not a copy of its examples: it keeps what models derive from it.
        return [datasets[lbl] for lbl in labels]
    return sample(store, size, rng)


def _mixture_direction(
    model: DifferentiableModel,
    params: np.ndarray,
    store: MixtureStore,
    weights: SimplexWeights,
    side: str,
    cfg: ReweightConfig,
    rng: np.random.Generator,
    size: int,
    normalize: bool = False,
) -> tuple[np.ndarray, int]:
    """Gradient of one batch from mix(weights), or the exact weighted
    combination of full-batch component gradients in expected mode.

    With ``normalize`` every gradient is divided by the loss of its own
    batch first.  Returns (gradient, number of gradient evaluations spent).
    """
    if _mix_mode(cfg, side) == "expected":
        batches = _component_batches(store, side, cfg, size, rng)
        live = [(weight, batch) for weight, batch in zip(weights.values, batches) if weight != 0.0]
        direction = np.zeros(model.param_dim)
        for weight, batch in live:
            direction += weight * _grad(model, params, batch, normalize)
        return direction, len(live)
    return _grad(model, params, sample_mixture_batch(store, weights, size, rng), normalize), 1


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
    model: DifferentiableModel,
    params: np.ndarray,
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
    training-mixture gradient.  The ``"ema"`` scorer also folds each
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

    def scorer_grad(n: int, batch: Dataset) -> np.ndarray:
        if scorer == "ema":
            grad, loss = model.grad(params, batch), model.loss(params, batch)
            ema[n] = loss if np.isnan(ema[n]) else cfg.ema_beta * ema[n] + (1.0 - cfg.ema_beta) * loss
            return normalized_grad(grad, ema[n])
        return _grad(model, params, batch, normalize=scorer == "loss")

    def score_once() -> np.ndarray:
        direction, direction_evals = _mixture_direction(model, params, store, alpha, "domains", cfg, rng, size)
        batches = _component_batches(store, "tasks", cfg, size, rng)
        scores = np.array([alignment(scorer_grad(n, batch), direction) for n, batch in enumerate(batches)])
        if counters is not None:
            counters.task_grad_evals += len(batches) + direction_evals
        return scores

    return _reweight(z, score_once, -cfg.step_ratio_z, cfg, gamma)


def domain_reweight_step(
    alpha: SimplexWeights,
    model: DifferentiableModel,
    params: np.ndarray,
    store: MixtureStore,
    z: SimplexWeights,
    cfg: ReweightConfig,
    rng: np.random.Generator,
    gamma: float | None = None,
    counters: OverheadCounter | None = None,
    pcgrad_rng: np.random.Generator | None = None,
) -> tuple[SimplexWeights, np.ndarray]:
    """Re-score every domain against the task-weighted target gradient
    (the ``target`` of the algorithm's table row) and upweight the
    well-aligned ones.  Returns the new domain weights and the averaged
    scores."""
    if not cfg.adapts_alpha:
        raise ValueError(f"algorithm {cfg.algorithm!r} does not update domain weights")
    target_kind = ALGORITHM_TABLE[cfg.algorithm].target
    if target_kind == "pcgrad" and pcgrad_rng is None:
        raise ValueError(f"{cfg.algorithm} needs a pcgrad rng stream")
    size = cfg.resolved_eval_batch_size

    def score_once() -> np.ndarray:
        domain_grads = [model.grad(params, b) for b in _component_batches(store, "domains", cfg, size, rng)]
        if target_kind == "pcgrad":
            task_grads = [model.grad(params, b) for b in _component_batches(store, "tasks", cfg, size, rng)]
            target, target_evals = pcgrad_combine(task_grads, pcgrad_rng), len(task_grads)
        else:
            target, target_evals = _mixture_direction(
                model, params, store, z, "tasks", cfg, rng, size, normalize=target_kind == "loss"
            )
        if counters is not None:
            counters.domain_grad_evals += len(domain_grads) + target_evals
        return np.array([alignment(g, target) for g in domain_grads])

    return _reweight(alpha, score_once, cfg.step_ratio_alpha, cfg, gamma)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


class _Sgd:
    def __init__(self, cfg: ReweightConfig, dim: int):
        pass

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
    update first and the domain update sees the new task weights.  Task
    losses are recorded at every reweighting step, every ``eval_every``
    steps, and at the end.  Raises NumericalDivergence if parameters go
    non-finite or any task loss exceeds ``divergence_factor`` times its
    initial value, or if a weight update meets non-finite scores or weights.
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
    optimizer = (_AdamW if cfg.optimizer == "adamw" else _Sgd)(cfg, model.param_dim)
    trajectory = Trajectory(store.domain_labels, store.task_labels)

    def eval_task_losses() -> np.ndarray:
        batches = _component_batches(store, "tasks", cfg, cfg.resolved_eval_batch_size, record_rng)
        return np.array([model.loss(theta, batch) for batch in batches])

    def guard(losses: np.ndarray, step: int) -> None:
        if not np.all(np.isfinite(losses)):
            raise NumericalDivergence("task loss is not finite", step)
        blown = (initial_losses > LOSS_FLOOR) & (losses > cfg.divergence_factor * initial_losses)
        if np.any(blown):
            ratios = np.where(blown, losses / np.maximum(initial_losses, LOSS_FLOOR), 0.0)
            worst = int(np.argmax(ratios))
            raise NumericalDivergence(
                f"loss of task {store.task_labels[worst]!r} exceeded "
                f"{cfg.divergence_factor:g} x its initial value",
                step,
            )

    last_task_scores = np.zeros(store.num_tasks)
    last_domain_scores = np.zeros(store.num_domains)

    def record(step, losses, lr):
        trajectory.append(
            TrajectoryRecord(
                step=step,
                losses=losses,
                alpha=alpha.values,
                z=z.values,
                task_scores=last_task_scores,
                domain_scores=last_domain_scores,
                lr=lr,
                train_grad_evals=counters.train_grad_evals,
                task_grad_evals=counters.task_grad_evals,
                domain_grad_evals=counters.domain_grad_evals,
            )
        )

    initial_losses = eval_task_losses()
    guard(initial_losses, 0)
    record(0, initial_losses, learning_rate_at(cfg, 0))

    for t in range(cfg.total_steps):
        gamma = learning_rate_at(cfg, t)
        direction, _ = _mixture_direction(model, theta, store, alpha, "domains", cfg, train_rng, cfg.train_batch_size)
        counters.train_grad_evals += 1
        theta = optimizer.step(theta, direction, gamma)
        if not np.all(np.isfinite(theta)):
            raise NumericalDivergence("parameters are not finite", t + 1)

        update_z = cfg.adapts_z and (t + 1) % cfg.update_every_z == 0
        update_alpha = cfg.adapts_alpha and (t + 1) % cfg.update_every_alpha == 0
        try:
            if update_z:
                z, last_task_scores = task_reweight_step(
                    z, model, theta, store, alpha, cfg, task_rng, gamma=gamma, counters=counters, ema=ema
                )
            if update_alpha:
                alpha, last_domain_scores = domain_reweight_step(
                    alpha, model, theta, store, z, cfg, domain_rng,
                    gamma=gamma, counters=counters, pcgrad_rng=pcgrad_rng,
                )
        except (ScoreError, DegenerateWeights) as exc:  # non-finite model output at theta
            raise NumericalDivergence(f"weight update failed: {exc}", t + 1) from exc

        if update_z or update_alpha or (t + 1) % cfg.eval_every == 0 or (t + 1) == cfg.total_steps:
            losses = eval_task_losses()
            guard(losses, t + 1)
            record(t + 1, losses, gamma)

    return theta, trajectory
