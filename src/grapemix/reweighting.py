"""Interleaved domain/task reweighting: the adaptive training loop.

One run alternates three activities:

1. every step, sample a training batch from the domain mixture and apply
   an optimizer update;
2. every ``update_every_z`` steps, re-score the tasks by how well each
   task's (normalized) gradient aligns with the current training
   direction, and shift task weights *toward the laggards* (descending
   exponentiated-gradient update): slow tasks get more priority;
3. every ``update_every_alpha`` steps, re-score the domains by how well
   each domain's gradient aligns with the task-weighted target gradient,
   and shift domain weights toward the helpers (ascending update).

Baselines fall out by freezing parts of this: ``uniform`` freezes both
weight vectors, ``doge`` freezes task weights at uniform and only adapts
domains, ``doge_pcgrad`` additionally replaces the target gradient with
a conflict-free combination of per-task gradients (gradient surgery).
Metric variants change only the task scorer: ``grape`` uses gradients
normalized by current loss, ``grape_gap`` uses raw gradients, and
``grape_ema`` normalizes by an exponential moving average of the loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import Trajectory, TrajectoryRecord
from .data import (
    Dataset,
    MixtureStore,
    SeededSampler,
    _uniform_batch,
    sample_domain_batches,
    sample_mixture_batch,
    sample_task_batches,
)
from .errors import DimensionError, NumericalDivergence
from .metrics import LOSS_FLOOR, TaskLossState, ema_update
from .models import DifferentiableModel
from .simplex import ASCEND, DESCEND, SimplexWeights, UpdateParams, multiplicative_update

ALGORITHMS = ("uniform", "doge", "doge_pcgrad", "grape", "grape_gap", "grape_ema")
SCHEDULES = ("constant", "cosine", "wsd")
MIX_MODES = ("sampled", "expected")

_Z_ADAPTIVE = ("grape", "grape_gap", "grape_ema")
_ALPHA_ADAPTIVE = ("doge", "doge_pcgrad", "grape", "grape_gap", "grape_ema")


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
    weight_decay: float = 0.0
    weight_floor: float = 0.0
    divergence_factor: float = 1e6

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.lr_schedule not in SCHEDULES:
            raise ValueError(f"unknown lr schedule {self.lr_schedule!r}")
        if self.task_mix_mode not in MIX_MODES or self.domain_mix_mode not in MIX_MODES:
            raise ValueError("mix modes must be 'sampled' or 'expected'")
        if self.optimizer not in ("sgd", "adamw"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if self.update_every_alpha < 1 or self.update_every_z < 1:
            raise ValueError("update frequencies must be >= 1")
        if not (self.step_ratio_alpha > 0 and self.step_ratio_z > 0):
            raise ValueError("step ratios must be > 0")
        if not (0.0 < self.ema_beta < 1.0):
            raise ValueError("ema_beta must lie in (0, 1)")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be > 0")
        if self.train_batch_size < 1 or self.eval_every < 1 or self.eval_replicates < 1:
            raise ValueError("batch size, eval_every and eval_replicates must be >= 1")
        if self.eval_batch_size is not None and self.eval_batch_size < 1:
            raise ValueError("eval_batch_size must be >= 1")
        if not (0.0 <= self.weight_floor < 1.0):
            raise ValueError("weight_floor must lie in [0, 1)")
        if self.divergence_factor <= 1.0:
            raise ValueError("divergence_factor must be > 1")

    @property
    def resolved_eval_batch_size(self) -> int:
        return self.train_batch_size if self.eval_batch_size is None else self.eval_batch_size

    @property
    def adapts_z(self) -> bool:
        return self.algorithm in _Z_ADAPTIVE

    @property
    def adapts_alpha(self) -> bool:
        return self.algorithm in _ALPHA_ADAPTIVE


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
    actual evaluations: under the default sampled pipeline a task step
    costs N+1 and a domain step K+1, while expected (full-batch) mixtures
    replace each mixed-batch gradient with one per component.
    """

    train_grad_evals: int = 0
    task_grad_evals: int = 0
    domain_grad_evals: int = 0

    @property
    def reweight_evals(self) -> int:
        return self.task_grad_evals + self.domain_grad_evals

    @property
    def total(self) -> int:
        return self.train_grad_evals + self.reweight_evals


@dataclass(frozen=True)
class AlignmentScores:
    """Per-task or per-domain gradient-alignment scores from one update."""

    values: np.ndarray
    side: str  # "tasks" or "domains"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise ValueError("alignment scores must be finite")
        object.__setattr__(self, "values", values)


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


def _domain_full_batches(store: MixtureStore) -> list[Dataset]:
    # The Dataset itself, not a copy of its examples: models memoize per Dataset.
    return [store.domains[lbl] for lbl in store.domain_labels]


def _task_full_batches(store: MixtureStore) -> list[Dataset]:
    return [store.tasks[lbl] for lbl in store.task_labels]


def _training_direction(
    model: DifferentiableModel,
    params: np.ndarray,
    store: MixtureStore,
    alpha: SimplexWeights,
    cfg: ReweightConfig,
    rng: np.random.Generator,
    size: int,
) -> tuple[np.ndarray, int]:
    """Gradient of one batch from mix(alpha), or the exact alpha-weighted
    combination of full-batch domain gradients in expected mode.

    Returns (gradient, number of gradient evaluations spent).
    """
    if cfg.domain_mix_mode == "expected":
        direction = np.zeros(model.param_dim)
        evals = 0
        for weight, batch in zip(alpha.values, _domain_full_batches(store)):
            if weight != 0.0:
                direction += weight * model.grad(params, batch)
                evals += 1
        return direction, evals
    return model.grad(params, sample_mixture_batch(store, alpha, size, rng, side="domains")), 1


def _target_direction(
    model: DifferentiableModel,
    params: np.ndarray,
    store: MixtureStore,
    z: SimplexWeights,
    cfg: ReweightConfig,
    rng: np.random.Generator,
    pcgrad_rng: np.random.Generator | None,
) -> tuple[np.ndarray, int]:
    """The validation-side gradient a domain-reweight step aligns against.

    Returns (gradient, number of gradient evaluations spent).  Under
    gradient surgery this is the conflict-free mean of per-task
    gradients; under ``grape_gap`` the raw mixture gradient; otherwise
    the mixture gradient normalized by the mixture loss.
    """
    size = cfg.resolved_eval_batch_size
    if cfg.algorithm == "doge_pcgrad":
        if cfg.task_mix_mode == "expected":
            batches = _task_full_batches(store)
        else:
            batches = sample_task_batches(store, size, rng)
        grads = [model.grad(params, b) for b in batches]
        if pcgrad_rng is None:
            raise ValueError("doge_pcgrad needs a pcgrad rng stream")
        return pcgrad_combine(grads, pcgrad_rng), len(grads)

    normalized = cfg.algorithm != "grape_gap"
    if cfg.task_mix_mode == "expected":
        direction = np.zeros(model.param_dim)
        evals = 0
        for weight, batch in zip(z.values, _task_full_batches(store)):
            if weight == 0.0:
                continue
            grad = model.grad(params, batch)
            evals += 1
            if normalized:
                grad = grad / max(model.loss(params, batch), LOSS_FLOOR)
            direction += weight * grad
        return direction, evals
    batch = sample_mixture_batch(store, z, size, rng, side="tasks")
    grad = model.grad(params, batch)
    if normalized:
        grad = grad / max(model.loss(params, batch), LOSS_FLOOR)
    return grad, 1


# ---------------------------------------------------------------------------
# The two reweighting steps
# ---------------------------------------------------------------------------


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
    ema: list[TaskLossState] | None = None,
) -> tuple[SimplexWeights, AlignmentScores]:
    """Re-score every task against the training direction and downweight
    the well-aligned (fast-improving) ones.

    The score of task n is the inner product of its scorer gradient with
    a fresh training-mixture gradient; the scorer is the task gradient
    normalized by its loss (``grape``), raw (``grape_gap``), or
    normalized by its loss EMA (``grape_ema``, which also folds the
    observed loss into ``ema`` in place).  Scores are averaged over
    ``eval_replicates`` estimates.
    """
    if not cfg.adapts_z:
        raise ValueError(f"algorithm {cfg.algorithm!r} does not update task weights")
    if cfg.algorithm == "grape_ema" and ema is None:
        raise ValueError("grape_ema needs the per-task EMA state list")
    n_tasks = store.num_tasks
    size = cfg.resolved_eval_batch_size
    totals = np.zeros(n_tasks)
    for _ in range(cfg.eval_replicates):
        direction, direction_evals = _training_direction(model, params, store, alpha, cfg, rng, size)
        if cfg.task_mix_mode == "expected":
            batches = _task_full_batches(store)
        else:
            batches = sample_task_batches(store, size, rng)
        for n, batch in enumerate(batches):
            grad = model.grad(params, batch)
            if cfg.algorithm == "grape":
                scorer = grad / max(model.loss(params, batch), LOSS_FLOOR)
            elif cfg.algorithm == "grape_gap":
                scorer = grad
            else:  # grape_ema
                ema[n] = ema_update(ema[n], model.loss(params, batch))
                scorer = grad / max(ema[n].ema_loss, LOSS_FLOOR)
            totals[n] += alignment(scorer, direction)
        if counters is not None:
            counters.task_grad_evals += n_tasks + direction_evals
    scores = totals / cfg.eval_replicates
    ratio = cfg.step_ratio_z if gamma is None else cfg.step_ratio_z * gamma / cfg.base_lr
    new_z = multiplicative_update(z, scores, UpdateParams(ratio, DESCEND), floor=cfg.weight_floor)
    return new_z, AlignmentScores(scores, "tasks")


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
) -> tuple[SimplexWeights, AlignmentScores]:
    """Re-score every domain against the task-weighted target gradient
    and upweight the well-aligned ones."""
    if not cfg.adapts_alpha:
        raise ValueError(f"algorithm {cfg.algorithm!r} does not update domain weights")
    n_domains = store.num_domains
    size = cfg.resolved_eval_batch_size
    totals = np.zeros(n_domains)
    for _ in range(cfg.eval_replicates):
        if cfg.domain_mix_mode == "expected":
            batches = _domain_full_batches(store)
        else:
            batches = sample_domain_batches(store, size, rng)
        domain_grads = [model.grad(params, b) for b in batches]
        target, target_evals = _target_direction(model, params, store, z, cfg, rng, pcgrad_rng)
        totals += np.array([alignment(g, target) for g in domain_grads])
        if counters is not None:
            counters.domain_grad_evals += n_domains + target_evals
    scores = totals / cfg.eval_replicates
    ratio = cfg.step_ratio_alpha if gamma is None else cfg.step_ratio_alpha * gamma / cfg.base_lr
    new_alpha = multiplicative_update(alpha, scores, UpdateParams(ratio, ASCEND), floor=cfg.weight_floor)
    return new_alpha, AlignmentScores(scores, "domains")


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
    initial value.
    """
    sampler = SeededSampler(seed)
    train_rng = sampler.stream("train")
    task_rng = sampler.stream("task_step")
    domain_rng = sampler.stream("domain_step")
    pcgrad_rng = sampler.stream("pcgrad")
    record_rng = sampler.stream("record")

    alpha = _initial_weights(init_alpha, store.domain_labels, "domain weights")
    z = _initial_weights(init_z, store.task_labels, "task weights")
    theta = np.array(model.initial_params() if params0 is None else params0, dtype=np.float64)
    if theta.shape != (model.param_dim,):
        raise DimensionError(f"params0 must have length {model.param_dim}")

    ema = [TaskLossState(beta=cfg.ema_beta) for _ in store.task_labels]
    counters = OverheadCounter()
    optimizer = (_AdamW if cfg.optimizer == "adamw" else _Sgd)(cfg, model.param_dim)
    trajectory = Trajectory(store.domain_labels, store.task_labels)

    def eval_task_losses() -> np.ndarray:
        size = cfg.resolved_eval_batch_size
        losses = np.empty(store.num_tasks)
        for n, label in enumerate(store.task_labels):
            if cfg.task_mix_mode == "expected":
                batch = store.tasks[label]
            else:
                batch = _uniform_batch(store.tasks[label], size, record_rng)
            losses[n] = model.loss(theta, batch)
        return losses

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
                param_version=step,
            )
        )

    initial_losses = eval_task_losses()
    if not np.all(np.isfinite(initial_losses)):
        raise NumericalDivergence("task loss is not finite", 0)
    record(0, initial_losses, learning_rate_at(cfg, 0))

    for t in range(cfg.total_steps):
        gamma = learning_rate_at(cfg, t)
        direction, _ = _training_direction(model, theta, store, alpha, cfg, train_rng, cfg.train_batch_size)
        counters.train_grad_evals += 1
        theta = optimizer.step(theta, direction, gamma)
        if not np.all(np.isfinite(theta)):
            raise NumericalDivergence("parameters are not finite", t + 1)

        reweighted = False
        if cfg.adapts_z and (t + 1) % cfg.update_every_z == 0:
            z, scores = task_reweight_step(
                z, model, theta, store, alpha, cfg, task_rng, gamma=gamma, counters=counters, ema=ema
            )
            last_task_scores = scores.values
            reweighted = True
        if cfg.adapts_alpha and (t + 1) % cfg.update_every_alpha == 0:
            alpha, scores = domain_reweight_step(
                alpha, model, theta, store, z, cfg, domain_rng,
                gamma=gamma, counters=counters, pcgrad_rng=pcgrad_rng,
            )
            last_domain_scores = scores.values
            reweighted = True

        if reweighted or (t + 1) % cfg.eval_every == 0 or (t + 1) == cfg.total_steps:
            losses = eval_task_losses()
            guard(losses, t + 1)
            record(t + 1, losses, gamma)

    return theta, trajectory
