"""The differentiable-model contract and built-in desk-scale models.

Reweighting only ever sees flat parameter vectors, scalar batch losses,
and flat batch gradients; model structure stays behind this interface.
All built-in models use exact analytic gradients, with central finite
differences serving as the test oracle rather than the implementation.

Built-ins:

* ``QuadraticTaskFamily`` / ``QuadraticModel`` -- N diagonal quadratics
  sharing one parameter vector.  Smooth, strongly convex, with a
  computable minimax optimum: the workhorse for convergence and
  variance-reduction harnesses.
* ``CharLMModel`` -- a bigram character language model (a V x V logit
  table).  The smallest model showing genuine cross-domain transfer on
  synthetic Markov languages; its loss is mean NLL per transition, i.e.
  log-perplexity.
* ``SoftmaxModel`` -- multinomial logistic regression over feature/label
  records.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Protocol, Sequence

import numpy as np
from scipy.optimize import fsolve, minimize

from .data import _ALPHABET, Dataset
from .errors import DimensionError, EmptyBatch


class DifferentiableModel(Protocol):
    """What the training loop needs: a loss and its gradient on a batch.

    A batch is a ``Dataset``: a sampled draw or a whole store dataset.
    The dataset keeps what a model derives from it (``Dataset.prepared``),
    so ``loss`` and ``grad`` on one batch prepare it once, in either
    order.  A record the model cannot use raises a typed error.
    """

    param_dim: int

    def initial_params(self) -> np.ndarray: ...

    def loss(self, params: np.ndarray, batch: Dataset) -> float: ...

    def grad(self, params: np.ndarray, batch: Dataset) -> np.ndarray: ...


def finite_diff_check(model: DifferentiableModel, params: np.ndarray, batch: Dataset | list, h: float = 1e-5) -> float:
    """Max abs deviation between analytic gradient and central differences."""
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"h must lie in [1e-7, 1e-3], got {h!r}")
    params = np.asarray(params, dtype=np.float64)
    if params.size == 0:
        return 0.0
    analytic = model.grad(params, batch)
    worst = 0.0
    probe = params.copy()
    for i in range(params.size):
        probe[i] = params[i] + h
        up = model.loss(probe, batch)
        probe[i] = params[i] - h
        down = model.loss(probe, batch)
        probe[i] = params[i]
        worst = max(worst, abs((up - down) / (2.0 * h) - analytic[i]))
    return worst


def _prepared(batch: Dataset | list, prepare: Callable):
    """``batch.prepared(prepare)``; a list of examples from outside the
    loop (a final eval, a test) is wrapped in a ``Dataset`` first."""
    return (batch if isinstance(batch, Dataset) else Dataset(batch)).prepared(prepare)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, each row shifted by its peak so no exp overflows."""
    peak = logits.max(axis=1, keepdims=True)
    return logits - (peak + np.log(np.exp(logits - peak).sum(axis=1, keepdims=True)))


def _check_params(params: np.ndarray, dim: int) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (dim,):
        raise DimensionError(f"expected parameter vector of length {dim}, got shape {params.shape}")
    return params


# ---------------------------------------------------------------------------
# Quadratic task family
# ---------------------------------------------------------------------------


class QuadraticExample(NamedTuple):
    """One synthetic training record for the quadratic family.

    ``mix`` weights the per-task quadratics this example's loss combines;
    ``delta`` shifts all their centers, which injects zero-mean gradient
    noise while keeping the per-example loss exactly quadratic (and >= 0).
    """

    mix: np.ndarray
    delta: np.ndarray


class QuadraticTaskFamily:
    """N diagonal quadratics l_n(theta) = 0.5 (theta-c_n)' A_n (theta-c_n).

    Curvature entries all lie in [mu_cvx, L_smooth], giving known
    smoothness and strong-convexity constants, and the minimax optimum
    min_theta max_n l_n(theta) is computable to high precision -- which
    is what makes this family usable as a convergence oracle.
    """

    def __init__(self, curvatures: np.ndarray, centers: np.ndarray):
        curvatures = np.array(curvatures, dtype=np.float64, copy=True)
        centers = np.array(centers, dtype=np.float64, copy=True)
        if curvatures.ndim != 2 or curvatures.shape != centers.shape:
            raise DimensionError("curvatures and centers must both be (num_tasks, dim)")
        if np.any(curvatures <= 0.0) or not np.all(np.isfinite(curvatures)):
            raise ValueError("curvature entries must be finite and > 0")
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers must be finite")
        self.curvatures = curvatures
        self.centers = centers
        self.num_tasks, self.dim = curvatures.shape

    @property
    def smoothness(self) -> float:
        return float(self.curvatures.max())

    def task_loss(self, n: int, theta: np.ndarray) -> float:
        diff = np.asarray(theta, dtype=np.float64) - self.centers[n]
        return float(0.5 * np.dot(self.curvatures[n] * diff, diff))

    def task_grad(self, n: int, theta: np.ndarray) -> np.ndarray:
        diff = np.asarray(theta, dtype=np.float64) - self.centers[n]
        return self.curvatures[n] * diff

    def all_task_losses(self, theta: np.ndarray) -> np.ndarray:
        diff = np.asarray(theta, dtype=np.float64)[None, :] - self.centers
        return 0.5 * np.einsum("nd,nd->n", self.curvatures * diff, diff)

    def model(self) -> "QuadraticModel":
        return QuadraticModel(self)

    def task_dataset(self, n: int) -> Dataset:
        """Single clean example whose loss/grad equal task n's exactly."""
        if not 0 <= n < self.num_tasks:
            raise DimensionError(f"task_index {n} is out of range for {self.num_tasks} tasks")
        mix = np.zeros(self.num_tasks)
        mix[n] = 1.0
        return Dataset([QuadraticExample(mix, np.zeros(self.dim))])

    def domain_dataset(
        self,
        mix: Sequence[float],
        noise: float = 0.0,
        size: int = 1,
        rng: np.random.Generator | None = None,
    ) -> Dataset:
        """A domain emitting the given convex combination of task gradients.

        With ``noise`` > 0, each example's centers are shifted by a
        Gaussian draw, i.e. additive zero-mean gradient noise of scale
        roughly ``noise`` per curvature unit.
        """
        mix = np.asarray(mix, dtype=np.float64)
        if mix.shape != (self.num_tasks,):
            raise DimensionError(f"mix must have length {self.num_tasks}")
        if noise > 0.0:
            if rng is None:
                raise ValueError("noisy domains need an rng")
            deltas = rng.normal(0.0, noise, size=(size, self.dim))
        else:
            deltas = np.zeros((size, self.dim))
        return Dataset([QuadraticExample(mix.copy(), deltas[i]) for i in range(size)])

    def minimax_optimum(self) -> tuple[np.ndarray, float]:
        """Solve min_theta max_n l_n(theta).

        An SLSQP pass on the epigraph form locates the optimum; a Newton
        polish on the active set (equal active losses, KKT stationarity)
        then refines it to near machine precision when it converges.
        """
        x0 = np.append(self.centers.mean(axis=0), 0.0)
        x0[-1] = float(self.all_task_losses(x0[:-1]).max()) + 1.0

        def objective(x):
            return x[-1]

        def objective_jac(x):
            jac = np.zeros_like(x)
            jac[-1] = 1.0
            return jac

        constraints = []
        for n in range(self.num_tasks):
            def fun(x, n=n):
                return x[-1] - self.task_loss(n, x[:-1])

            def jac(x, n=n):
                out = np.empty_like(x)
                out[:-1] = -self.task_grad(n, x[:-1])
                out[-1] = 1.0
                return out

            constraints.append({"type": "ineq", "fun": fun, "jac": jac})

        res = minimize(
            objective,
            x0,
            jac=objective_jac,
            constraints=constraints,
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-14},
        )
        theta = res.x[:-1]
        value = float(self.all_task_losses(theta).max())

        polished = self._polish_minimax(theta, value)
        if polished is not None:
            theta_p, value_p = polished
            if value_p <= value + 1e-9:
                return theta_p, value_p
        return theta, value

    def _polish_minimax(self, theta: np.ndarray, value: float) -> tuple[np.ndarray, float] | None:
        losses = self.all_task_losses(theta)
        active = np.flatnonzero(losses >= value - max(1e-6, 1e-6 * value))
        n_active, dim = active.size, self.dim

        def residual(x):
            th, w = x[:dim], x[dim:]
            grads = np.array([self.task_grad(int(n), th) for n in active])
            l_act = np.array([self.task_loss(int(n), th) for n in active])
            out = np.empty(dim + n_active)
            out[:dim] = w @ grads
            out[dim : dim + n_active - 1] = l_act[0] - l_act[1:]
            out[-1] = w.sum() - 1.0
            return out

        x0 = np.concatenate([theta, np.full(n_active, 1.0 / n_active)])
        sol, info, ok, _ = fsolve(residual, x0, full_output=True)
        if ok != 1 or np.max(np.abs(info["fvec"])) > 1e-10:
            return None
        th, w = sol[:dim], sol[dim:]
        if np.any(w < -1e-9):
            return None
        all_losses = self.all_task_losses(th)
        val = float(all_losses.max())
        active_val = float(all_losses[active].max())
        if val > active_val + 1e-9:  # a task outside the active set dominates
            return None
        return th, val


class QuadraticModel:
    """DifferentiableModel view of a QuadraticTaskFamily over mix examples."""

    def __init__(self, family: QuadraticTaskFamily):
        self.family = family
        self.param_dim = family.dim

    def initial_params(self) -> np.ndarray:
        return np.zeros(self.param_dim)

    def _stack(self, batch: Dataset) -> tuple[np.ndarray, np.ndarray]:
        return _prepared(batch, self._stack_examples)

    @staticmethod
    def _stack_examples(batch: Dataset) -> tuple[np.ndarray, np.ndarray]:
        try:
            mixes = np.stack([ex.mix for ex in batch])
            deltas = np.stack([ex.delta for ex in batch])
        except AttributeError as exc:
            raise TypeError("quadratic model needs QuadraticExample records") from exc
        return mixes, deltas

    def loss(self, params: np.ndarray, batch: Dataset) -> float:
        theta = _check_params(params, self.param_dim)
        mixes, deltas = self._stack(batch)
        diff = theta[None, None, :] - self.family.centers[None, :, :] - deltas[:, None, :]
        per_task = 0.5 * np.einsum("nd,bnd,bnd->bn", self.family.curvatures, diff, diff)
        return float((mixes * per_task).sum() / len(batch))

    def grad(self, params: np.ndarray, batch: Dataset) -> np.ndarray:
        theta = _check_params(params, self.param_dim)
        mixes, deltas = self._stack(batch)
        diff = theta[None, None, :] - self.family.centers[None, :, :] - deltas[:, None, :]
        return np.einsum("bn,nd,bnd->d", mixes, self.family.curvatures, diff) / len(batch)


# ---------------------------------------------------------------------------
# Bigram character language model
# ---------------------------------------------------------------------------


_SEPARATOR = "\0"


class CharLMModel:
    """Bigram character LM: a flat V x V logit table, loss = mean NLL/char.

    The vocabulary is the first ``vocab_size`` characters of a-z0-9, and
    batches are datasets of strings over it.  Loss and gradient are
    computed from pooled transition counts, which the batch keeps after
    the first call: that call costs O(batch chars + V^2) regardless of how
    the text is chunked, and later calls on the batch cost O(V^2).
    """

    def __init__(self, vocab_size: int):
        if not 2 <= vocab_size <= len(_ALPHABET):
            raise ValueError(f"vocab_size must lie in [2, {len(_ALPHABET)}], got {vocab_size!r}")
        # Distinct ASCII characters without NUL, which separates the strings of a batch.
        self.vocab = _ALPHABET[:vocab_size]
        self.vocab_size = vocab_size
        self.param_dim = vocab_size**2
        self._lut = np.full(256, -1, dtype=np.int64)
        for i, ch in enumerate(self.vocab):
            self._lut[ord(ch)] = i
        self._lut[ord(_SEPARATOR)] = self.vocab_size

    def initial_params(self) -> np.ndarray:
        return np.zeros(self.param_dim)  # uniform next-char distribution

    def transition_counts(self, batch: Dataset) -> np.ndarray:
        """Pooled V x V counts of (char, next char) pairs, per string;
        read-only, and computed once per batch."""
        return _prepared(batch, self._count_transitions)

    def _count_transitions(self, batch: Dataset) -> np.ndarray:
        # The separator gets code V, so every pair that spans two strings
        # lands outside the V x V block of the (V+1) x (V+1) pair counts.
        text = _SEPARATOR.join(batch)
        # A non-ASCII character encodes to bytes >= 128, none of which is in the vocabulary.
        codes = self._lut.take(np.frombuffer(text.encode("utf-8"), dtype=np.uint8))
        if np.any(codes < 0) or np.count_nonzero(codes == self.vocab_size) != len(batch) - 1:
            unknown = "".join(sorted(set("".join(batch)) - set(self.vocab)))
            raise ValueError(f"batch contains characters outside the vocabulary: {unknown!r}")
        side = self.vocab_size + 1
        pairs = np.bincount(codes[:-1] * side + codes[1:], minlength=side * side).reshape(side, side)
        counts = pairs[:-1, :-1]
        if not counts.any():
            raise EmptyBatch("batch has no character transitions")
        return counts.astype(np.float64)

    def _log_probs(self, params: np.ndarray) -> np.ndarray:
        return _log_softmax(_check_params(params, self.param_dim).reshape(self.vocab_size, self.vocab_size))

    def loss(self, params: np.ndarray, batch: Dataset) -> float:
        counts = self.transition_counts(batch)
        return float(-(counts * self._log_probs(params)).sum() / counts.sum())

    def grad(self, params: np.ndarray, batch: Dataset) -> np.ndarray:
        counts = self.transition_counts(batch)
        probs = np.exp(self._log_probs(params))
        row_totals = counts.sum(axis=1, keepdims=True)
        return ((probs * row_totals - counts) / counts.sum()).ravel()


# ---------------------------------------------------------------------------
# Softmax (multinomial logistic) classifier
# ---------------------------------------------------------------------------


class SoftmaxModel:
    """Linear softmax classifier over (features, label) records."""

    def __init__(self, n_features: int, n_classes: int):
        if n_features < 1 or n_classes < 2:
            raise ValueError("need n_features >= 1 and n_classes >= 2")
        self.n_features = n_features
        self.n_classes = n_classes
        self.param_dim = n_features * n_classes

    def initial_params(self) -> np.ndarray:
        return np.zeros(self.param_dim)

    def _stack(self, batch: Dataset) -> tuple[np.ndarray, np.ndarray]:
        return _prepared(batch, self._stack_examples)

    def _stack_examples(self, batch: Dataset) -> tuple[np.ndarray, np.ndarray]:
        if not all(isinstance(ex, tuple) and len(ex) == 2 for ex in batch):
            raise TypeError("softmax model needs (features, label) records")
        xs = np.stack([np.asarray(x, dtype=np.float64) for x, _ in batch])
        ys = np.asarray([y for _, y in batch], dtype=np.float64)
        if xs.shape[1:] != (self.n_features,):
            raise DimensionError(f"features have shape {xs.shape[1:]}, expected ({self.n_features},)")
        if ys.shape != (len(xs),) or np.any(ys % 1 != 0) or np.any(ys < 0) or np.any(ys >= self.n_classes):
            raise ValueError(f"labels must be integers in [0, {self.n_classes})")
        return xs, ys.astype(np.int64)

    def _log_probs(self, params: np.ndarray, xs: np.ndarray) -> np.ndarray:
        weights = _check_params(params, self.param_dim).reshape(self.n_classes, self.n_features)
        return _log_softmax(xs @ weights.T)

    def loss(self, params: np.ndarray, batch: Dataset) -> float:
        xs, ys = self._stack(batch)
        logp = self._log_probs(params, xs)
        return float(-logp[np.arange(len(ys)), ys].mean())

    def grad(self, params: np.ndarray, batch: Dataset) -> np.ndarray:
        xs, ys = self._stack(batch)
        probs = np.exp(self._log_probs(params, xs))
        probs[np.arange(len(ys)), ys] -= 1.0
        return (probs.T @ xs).ravel() / len(ys)
