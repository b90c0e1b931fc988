"""A frozen copy of the training loop, the oracle of its rewrites.

This is test code and never changes with the library: it copies
``reweighting.train_run`` and everything it runs (both reweight steps,
the mixture direction, PCGrad, the optimizers, ``learning_rate_at``, the
algorithm table) from commit ee8f27d.  It reaches the library only
through the models' public ``loss``/``grad``, the samplers and
``multiplicative_update``, which their own tests guard.  It keeps its
rows in plain lists and renders them with a frozen copy of that
commit's ``render_trajectory``, so it never runs through ``Trajectory``.

``reference_run(cfg, model, store, ...)`` returns ``(params, csv_text)``
and raises what ``train_run`` raised at that commit.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from grapemix.data import sample_domain_batches, sample_mixture_batch, sample_task_batches
from grapemix.errors import DegenerateWeights, DimensionError, NumericalDivergence, ScoreError
from grapemix.simplex import SimplexWeights, multiplicative_update

LOSS_FLOOR = 1e-8

# algorithm -> (task scorer, adapts alpha, domain target)
ALGORITHM_TABLE = {
    "uniform": (None, False, "loss"),
    "doge": (None, True, "loss"),
    "doge_pcgrad": (None, True, "pcgrad"),
    "grape": ("loss", True, "loss"),
    "grape_gap": ("raw", True, "raw"),
    "grape_ema": ("ema", True, "loss"),
}

# CSV column order: (record key, column prefix, label side)
VECTOR_COLUMNS = (
    ("losses", "loss", "task"),
    ("alpha", "alpha", "domain"),
    ("z", "z", "task"),
    ("task_scores", "a_task", "task"),
    ("domain_scores", "a_domain", "domain"),
)


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    digest = hashlib.sha256(stream.encode("utf-8")).digest()
    stream_key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), stream_key]))


def learning_rate_at(cfg, step: int) -> float:
    progress = step / cfg.total_steps
    if cfg.lr_schedule == "constant":
        return cfg.base_lr
    floor = cfg.base_lr / 10.0
    if cfg.lr_schedule == "cosine":
        return floor + 0.5 * (cfg.base_lr - floor) * (1.0 + math.cos(math.pi * progress))
    if progress < 0.8:
        return cfg.base_lr
    return cfg.base_lr - (cfg.base_lr - floor) * (progress - 0.8) / 0.2


def normalized_grad(grad: np.ndarray, loss: float) -> np.ndarray:
    return grad / max(loss, LOSS_FLOOR)


def alignment(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionError(f"gradient shapes differ: {u.shape} vs {v.shape}")
    return float(np.dot(u, v))


def pcgrad_combine(task_grads, rng: np.random.Generator) -> np.ndarray:
    grads = [np.asarray(g, dtype=np.float64) for g in task_grads]
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
    return sum(out) / len(out)


def _eval_size(cfg) -> int:
    return cfg.train_batch_size if cfg.eval_batch_size is None else cfg.eval_batch_size


def _grad(model, params, batch, normalize: bool) -> np.ndarray:
    grad = model.grad(params, batch)
    return normalized_grad(grad, model.loss(params, batch)) if normalize else grad


def _mix_mode(cfg, side: str) -> str:
    return cfg.domain_mix_mode if side == "domains" else cfg.task_mix_mode


def _component_batches(store, side, cfg, size, rng):
    if side == "domains":
        datasets, labels, sample = store.domains, store.domain_labels, sample_domain_batches
    else:
        datasets, labels, sample = store.tasks, store.task_labels, sample_task_batches
    if _mix_mode(cfg, side) == "expected":
        return [datasets[lbl] for lbl in labels]
    return sample(store, size, rng)


def _mixture_direction(model, params, store, weights, side, cfg, rng, size, normalize=False):
    if _mix_mode(cfg, side) == "expected":
        batches = _component_batches(store, side, cfg, size, rng)
        live = [(weight, batch) for weight, batch in zip(weights.values, batches) if weight != 0.0]
        direction = np.zeros(model.param_dim)
        for weight, batch in live:
            direction += weight * _grad(model, params, batch, normalize)
        return direction, len(live)
    return _grad(model, params, sample_mixture_batch(store, weights, size, rng), normalize), 1


def _reweight(weights, score_once, step_ratio, cfg, gamma):
    scores = sum(score_once() for _ in range(cfg.eval_replicates)) / cfg.eval_replicates
    ratio = step_ratio if gamma is None else step_ratio * gamma / cfg.base_lr
    return multiplicative_update(weights, scores, ratio, floor=cfg.weight_floor), scores


def task_reweight_step(z, model, params, store, alpha, cfg, rng, gamma, counters, ema):
    scorer = ALGORITHM_TABLE[cfg.algorithm][0]
    size = _eval_size(cfg)

    def scorer_grad(n, batch):
        if scorer == "ema":
            grad, loss = model.grad(params, batch), model.loss(params, batch)
            ema[n] = loss if np.isnan(ema[n]) else cfg.ema_beta * ema[n] + (1.0 - cfg.ema_beta) * loss
            return normalized_grad(grad, ema[n])
        return _grad(model, params, batch, normalize=scorer == "loss")

    def score_once():
        direction, direction_evals = _mixture_direction(model, params, store, alpha, "domains", cfg, rng, size)
        batches = _component_batches(store, "tasks", cfg, size, rng)
        scores = np.array([alignment(scorer_grad(n, batch), direction) for n, batch in enumerate(batches)])
        counters[1] += len(batches) + direction_evals
        return scores

    return _reweight(z, score_once, -cfg.step_ratio_z, cfg, gamma)


def domain_reweight_step(alpha, model, params, store, z, cfg, rng, gamma, counters, pcgrad_rng):
    target_kind = ALGORITHM_TABLE[cfg.algorithm][2]
    size = _eval_size(cfg)

    def score_once():
        domain_grads = [model.grad(params, b) for b in _component_batches(store, "domains", cfg, size, rng)]
        if target_kind == "pcgrad":
            task_grads = [model.grad(params, b) for b in _component_batches(store, "tasks", cfg, size, rng)]
            target, target_evals = pcgrad_combine(task_grads, pcgrad_rng), len(task_grads)
        else:
            target, target_evals = _mixture_direction(
                model, params, store, z, "tasks", cfg, rng, size, normalize=target_kind == "loss"
            )
        counters[2] += len(domain_grads) + target_evals
        return np.array([alignment(g, target) for g in domain_grads])

    return _reweight(alpha, score_once, cfg.step_ratio_alpha, cfg, gamma)


class _Sgd:
    def step(self, theta, grad, lr):
        return theta - lr * grad


class _AdamW:
    def __init__(self, cfg, dim):
        self.b1, self.b2, self.eps, self.wd = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps, cfg.weight_decay
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.t = 0

    def step(self, theta, grad, lr):
        self.t += 1
        self.m = self.b1 * self.m + (1.0 - self.b1) * grad
        self.v = self.b2 * self.v + (1.0 - self.b2) * grad * grad
        m_hat = self.m / (1.0 - self.b1**self.t)
        v_hat = self.v / (1.0 - self.b2**self.t)
        return theta - lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.wd * theta)


def _initial_weights(init, labels, what):
    if init is None:
        return SimplexWeights.uniform(labels)
    if init.labels != labels:
        raise DimensionError(f"initial {what} labels {init.labels} do not match store {labels}")
    return init


def render_rows(domain_labels, task_labels, rows) -> str:
    """The frozen ``render_trajectory``: one CSV line per row dict."""
    labels = {"domain": domain_labels, "task": task_labels}
    header = ["step"]
    for _, prefix, side in VECTOR_COLUMNS:
        header += [f"{prefix}.{label}" for label in labels[side]]
    lines = [",".join(header + ["lr", "grad_evals"])]
    for r in rows:
        floats = np.concatenate([r[name] for name, _, _ in VECTOR_COLUMNS]).tolist() + [float(r["lr"])]
        lines.append(",".join([str(r["step"]), *map(repr, floats), str(sum(r["counters"]))]))
    return "\n".join(lines) + "\n"


@np.errstate(all="ignore")
def reference_run(cfg, model, store, init_alpha=None, init_z=None, seed=0, params0=None):
    """The loop of ``train_run`` at commit ee8f27d; returns ``(params, csv_text)``."""
    scorer, adapts_alpha, _ = ALGORITHM_TABLE[cfg.algorithm]
    adapts_z = scorer is not None
    train_rng, task_rng, domain_rng, pcgrad_rng, record_rng = (
        stream_rng(seed, name) for name in ("train", "task_step", "domain_step", "pcgrad", "record")
    )
    alpha = _initial_weights(init_alpha, store.domain_labels, "domain weights")
    z = _initial_weights(init_z, store.task_labels, "task weights")
    theta = np.array(model.initial_params() if params0 is None else params0, dtype=np.float64)
    if theta.shape != (model.param_dim,):
        raise DimensionError(f"params0 must have length {model.param_dim}")

    ema = np.full(store.num_tasks, np.nan)
    counters = [0, 0, 0]  # train, task, domain
    optimizer = _AdamW(cfg, model.param_dim) if cfg.optimizer == "adamw" else _Sgd()
    rows = []

    def eval_task_losses():
        batches = _component_batches(store, "tasks", cfg, _eval_size(cfg), record_rng)
        return np.array([model.loss(theta, batch) for batch in batches])

    def guard(losses, step):
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
        rows.append({"step": step, "losses": losses, "alpha": alpha.values.copy(), "z": z.values.copy(),
                     "task_scores": last_task_scores, "domain_scores": last_domain_scores, "lr": lr,
                     "counters": tuple(counters)})

    initial_losses = eval_task_losses()
    guard(initial_losses, 0)
    record(0, initial_losses, learning_rate_at(cfg, 0))

    for t in range(cfg.total_steps):
        gamma = learning_rate_at(cfg, t)
        direction, _ = _mixture_direction(model, theta, store, alpha, "domains", cfg, train_rng, cfg.train_batch_size)
        counters[0] += 1
        theta = optimizer.step(theta, direction, gamma)
        if not np.all(np.isfinite(theta)):
            raise NumericalDivergence("parameters are not finite", t + 1)

        update_z = adapts_z and (t + 1) % cfg.update_every_z == 0
        update_alpha = adapts_alpha and (t + 1) % cfg.update_every_alpha == 0
        try:
            if update_z:
                z, last_task_scores = task_reweight_step(z, model, theta, store, alpha, cfg, task_rng, gamma,
                                                         counters, ema)
            if update_alpha:
                alpha, last_domain_scores = domain_reweight_step(alpha, model, theta, store, z, cfg, domain_rng,
                                                                 gamma, counters, pcgrad_rng)
        except (ScoreError, DegenerateWeights) as exc:
            raise NumericalDivergence(f"weight update failed: {exc}", t + 1) from exc

        if update_z or update_alpha or (t + 1) % cfg.eval_every == 0 or (t + 1) == cfg.total_steps:
            losses = eval_task_losses()
            guard(losses, t + 1)
            record(t + 1, losses, gamma)

    return theta, render_rows(store.domain_labels, store.task_labels, rows)
