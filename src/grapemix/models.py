"""The differentiable-model contract and built-in desk-scale models.

Reweighting only ever sees flat parameter vectors, scalar batch losses,
and flat batch gradients; model structure stays behind this interface.
All built-in models use exact analytic gradients, with central finite
differences serving as the test oracle rather than the implementation.

Built-ins:

* ``QuadraticTaskFamily`` -- N diagonal quadratics sharing one parameter
  vector, and the model over their mix records.  Smooth, strongly
  convex, with a certified minimax oracle: the workhorse for convergence
  and variance-reduction harnesses.
* ``CharLMModel`` -- a bigram character language model (a V x V logit
  table).  The smallest model showing genuine cross-domain transfer on
  synthetic Markov languages; its loss is mean NLL per transition, i.e.
  log-perplexity.
* ``SoftmaxModel`` -- multinomial logistic regression over feature/label
  records.
"""

from __future__ import annotations

from typing import NamedTuple, Protocol, Sequence

import numpy as np

from .data import _ALPHABET, Dataset, DatasetView
from .errors import DimensionError, EmptyBatch
from .simplex import on_simplex


class DifferentiableModel(Protocol):
    """What the training loop needs: a loss and its gradient on a batch.

    A batch is a ``Dataset``: a sampled draw or a whole store dataset.
    It keeps, in ``Dataset.prepared``, what a model derives from it, so
    ``loss`` and ``grad`` on one batch prepare it once, in either order,
    and its last ``loss`` and its last ``grad`` with the parameter vector
    each was computed at, so a repeated call at unchanged parameters
    returns the kept value; a kept gradient is read-only.  A record the
    model cannot use raises a typed error.
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
    batch = _as_dataset(batch)  # prepared once for all 2D + 1 model calls
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


def _as_dataset(batch: Dataset | list) -> Dataset:
    """The batch; a list of examples from outside the loop (a final eval,
    a test) is wrapped in a ``Dataset``, which keeps what is prepared from it."""
    return batch if isinstance(batch, Dataset) else Dataset(batch)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, each row shifted by its peak so no exp overflows."""
    peak = logits.max(axis=1, keepdims=True)
    return logits - (peak + np.log(np.exp(logits - peak).sum(axis=1, keepdims=True)))


def _check_params(params: np.ndarray, dim: int) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (dim,):
        raise DimensionError(f"expected parameter vector of length {dim}, got shape {params.shape}")
    return params


class _BatchModel:
    """The public ``loss`` and ``grad`` of the built-in models: a subclass's
    ``_loss`` and ``_grad`` of checked parameters on a ``Dataset``, kept by
    the batch per parameter vector (``Dataset.prepared``)."""

    param_dim: int

    def loss(self, params: np.ndarray, batch: Dataset) -> float:
        return _as_dataset(batch).prepared(self._loss, _check_params(params, self.param_dim))

    def grad(self, params: np.ndarray, batch: Dataset) -> np.ndarray:
        return _as_dataset(batch).prepared(self._grad, _check_params(params, self.param_dim))


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


class QuadraticTaskFamily(_BatchModel):
    """N diagonal quadratics l_n(theta) = 0.5 (theta-c_n)' A_n (theta-c_n).

    Curvature entries all lie in [mu_cvx, L_smooth], giving known
    smoothness and strong-convexity constants.  For task weights z, the
    minimizer of sum_n z_n l_n is theta(z) = sum_n z_n a_n c_n / sum_n z_n a_n
    per coordinate, so min_theta max_n l_n(theta) has an explicit dual and
    a certified optimum -- a convergence oracle.  The family is also the
    DifferentiableModel over the records of ``task_dataset`` and ``domain_dataset``.
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
        self.param_dim = self.dim

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

    def model(self) -> "QuadraticTaskFamily":
        return self

    def initial_params(self) -> np.ndarray:
        return np.zeros(self.param_dim)

    @staticmethod
    def _stack_examples(batch: Dataset) -> tuple[np.ndarray, np.ndarray]:
        try:
            mixes = np.stack([ex.mix for ex in batch])
            deltas = np.stack([ex.delta for ex in batch])
        except AttributeError as exc:
            raise TypeError("quadratic model needs QuadraticExample records") from exc
        return mixes, deltas

    def _loss(self, theta: np.ndarray, batch: Dataset) -> float:
        mixes, deltas = batch.rows(self._stack_examples)
        diff = theta[None, None, :] - self.centers[None, :, :] - deltas[:, None, :]
        per_task = 0.5 * np.einsum("nd,bnd,bnd->bn", self.curvatures, diff, diff)
        return float((mixes * per_task).sum() / len(batch))

    def _grad(self, theta: np.ndarray, batch: Dataset) -> np.ndarray:
        mixes, deltas = batch.rows(self._stack_examples)
        diff = theta[None, None, :] - self.centers[None, :, :] - deltas[:, None, :]
        return np.einsum("bn,nd,bnd->d", mixes, self.curvatures, diff) / len(batch)

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
        if not on_simplex(mix):
            raise ValueError(f"mix {mix.tolist()} is not a probability vector")
        if noise > 0.0:
            if rng is None:
                raise ValueError("noisy domains need an rng")
            deltas = rng.normal(0.0, noise, size=(size, self.dim))
        else:
            deltas = np.zeros((size, self.dim))
        return Dataset([QuadraticExample(mix.copy(), deltas[i]) for i in range(size)])

    def dual_value(self, z: Sequence[float] | np.ndarray) -> float:
        """The group-DRO dual g(z) = min_theta sum_n z_n l_n(theta) = sum_n z_n l_n(theta(z)): at most
        OPT = min_theta max_n l_n(theta) for every probability vector z, and equal at the optimal z."""
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.num_tasks,) or not on_simplex(z):
            raise ValueError(f"z {z.tolist()} is not a probability vector over the {self.num_tasks} tasks")
        return float(z @ self.all_task_losses(self._inner_minimizer(z)))

    def _inner_minimizer(self, z: np.ndarray) -> np.ndarray:
        return (z @ (self.curvatures * self.centers)) / (z @ self.curvatures)

    def minimax_weights(self) -> np.ndarray:
        """The group-DRO task weights z* = argmax_z g(z), certified optimal.

        g is concave with gradient l(theta(z)) (Danskin).  The search follows
        the central path of max g(z) + mu sum_n log z_n from uniform weights,
        mu shrinking tenfold in each of 19 stages.  Each stage tries Newton on
        "equal losses on the support" (the tasks whose weight has not vanished),
        then the path point, and returns the first with certificate
        max_n l_n(theta(z)) - g(z) <= 1e-12 max(1, OPT): OPT lies between the
        two terms.  Raises RuntimeError when no candidate is certified.
        """
        z = np.full(self.num_tasks, 1.0 / self.num_tasks)
        mu0 = float(self.all_task_losses(self._inner_minimizer(z)).max()) or 1.0
        gaps = []
        for stage in range(19):
            mu = mu0 * 10.0**-stage
            z = self._central_point(z, mu) if stage else z
            support = np.flatnonzero(z >= np.sqrt(mu / mu0) * z.max())
            for candidate in (self._face_optimum(z, support), z):
                value = float(self.all_task_losses(self._inner_minimizer(candidate)).max())
                gaps.append(value - self.dual_value(candidate))
                if gaps[-1] <= 1e-12 * max(1.0, value):
                    return candidate
        raise RuntimeError(f"no certified minimax optimum: smallest duality gap {min(gaps):.3g}")

    def minimax_optimum(self) -> tuple[np.ndarray, float]:
        """Solve min_theta max_n l_n(theta): theta(z*) and OPT, for z* from ``minimax_weights``."""
        theta = self._inner_minimizer(self.minimax_weights())
        return theta, float(self.all_task_losses(theta).max())

    def _newton_step(self, z: np.ndarray, tasks: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
        """Newton step of max g + mu sum log z over the weights z of ``tasks``, their sum kept,
        and the ascent direction l(theta(z)) + mu / z.  g's Hessian is -G diag(1/s) G', with G
        the task gradients at theta(z) and s = z @ a."""
        a, c = self.curvatures[tasks], self.centers[tasks]
        s = z @ a
        diff = (z @ (a * c)) / s - c
        ascent = 0.5 * np.einsum("nd,nd->n", a * diff, diff) + mu / z
        kkt = np.ones((tasks.size + 1, tasks.size + 1))
        kkt[-1, -1] = 0.0
        kkt[:-1, :-1] = (a * diff / s) @ (a * diff).T + np.diag(mu / z**2)
        # The multiplier absorbs the mean, so the right-hand side shrinks with the residual.
        rhs = np.append(ascent - ascent.mean(), 0.0)
        # The barrier makes the system nonsingular; on a face (mu = 0) least squares also
        # steps where it is singular, as across two identical tasks.
        return (np.linalg.solve(kkt, rhs) if mu else np.linalg.lstsq(kkt, rhs, rcond=None)[0])[:-1], ascent

    def _central_point(self, z: np.ndarray, mu: float) -> np.ndarray:
        """Newton from z toward argmax g(z) + mu sum log z, each step cut to stay inside the simplex."""
        for _ in range(50):
            step, ascent = self._newton_step(z, np.arange(self.num_tasks), mu)
            shrinking = step < 0.0
            t = min(1.0, 0.9 * float(np.min(z[shrinking] / -step[shrinking]))) if shrinking.any() else 1.0
            z = (z + t * step) / (z + t * step).sum()
            if float(ascent @ step) <= 1e-3 * mu:
                break
        return z

    def _face_optimum(self, z: np.ndarray, support: np.ndarray) -> np.ndarray:
        """Full Newton steps on equal losses on ``support`` from z, stopped before one would leave
        the face, or once they stall; the result as weights over all tasks."""
        face = z[support] / z[support].sum()
        for _ in range(10):
            step, _ = self._newton_step(face, support, 0.0)
            if not np.all(face + step > 0.0):
                break
            face = (face + step) / (face + step).sum()
            if np.abs(step).max() <= 1e-15:
                break
        weights = np.zeros(self.num_tasks)
        weights[support] = face
        return weights


# ---------------------------------------------------------------------------
# Bigram character language model
# ---------------------------------------------------------------------------


_SEPARATOR = "\0"
_TABLE_BLOCK = 256  # strings per bincount when a pool's per-string counts are built


class CharLMModel(_BatchModel):
    """Bigram character LM: a flat V x V logit table, loss = mean NLL/char.

    The vocabulary is the first ``vocab_size`` characters of a-z0-9, and
    batches are datasets of strings over it.  Loss and gradient are
    computed from pooled transition counts, which the batch keeps after
    the first call.  A whole dataset or a list is counted from its text,
    in O(batch chars + V^2) regardless of how the text is chunked.  A view
    of a store pool sums its rows of the pool's per-string counts, which
    are counted once per pool.  Later calls on the batch cost O(V^2).
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
        return _as_dataset(batch).prepared(self._count_transitions)

    def _count_transitions(self, batch: Dataset) -> np.ndarray:
        if isinstance(batch, DatasetView):
            # Integer counts summed in float64 are exact: equal to counting the view's text.
            counts = batch.rows(self._row_counts).sum(axis=0, dtype=np.float64)
        else:
            codes = self._codes(batch)
            # The separator gets code V, so every pair that spans two strings
            # lands outside the V x V block of the (V+1) x (V+1) pair counts.
            side = self.vocab_size + 1
            pairs = np.bincount(codes[:-1] * side + codes[1:], minlength=side * side).reshape(side, side)
            counts = pairs[:-1, :-1].astype(np.float64)
        if not counts.any():
            raise EmptyBatch("batch has no character transitions")
        return counts

    def _row_counts(self, pool: Dataset) -> np.ndarray:
        """The (n, V, V) transition counts of each string of a pool, in the
        least unsigned type that holds its longest string's length; counted
        one block of strings at a time, which bounds the int64 scratch."""
        texts = pool.examples
        v = self.vocab_size
        table = np.empty((len(texts), v, v), dtype=np.min_scalar_type(max(map(len, texts))))
        for start in range(0, len(texts), _TABLE_BLOCK):
            block = texts[start : start + _TABLE_BLOCK]
            codes = self._codes(block)
            string = np.cumsum(codes == v)  # the string each character code belongs to
            inside = (codes[:-1] < v) & (codes[1:] < v)
            keys = (string[:-1] * v + codes[:-1]) * v + codes[1:]
            table[start : start + len(block)] = np.bincount(keys[inside], minlength=len(block) * v * v).reshape(-1, v, v)
        return table

    def _codes(self, texts: Sequence[str]) -> np.ndarray:
        """The character codes of the strings, joined by the separator (code V)."""
        text = _SEPARATOR.join(texts)
        # A non-ASCII character encodes to bytes >= 128, none of which is in the vocabulary.
        codes = self._lut.take(np.frombuffer(text.encode("utf-8"), dtype=np.uint8))
        if np.any(codes < 0) or np.count_nonzero(codes == self.vocab_size) != len(texts) - 1:
            unknown = "".join(sorted(set("".join(texts)) - set(self.vocab)))
            raise ValueError(f"batch contains characters outside the vocabulary: {unknown!r}")
        return codes

    def _log_probs(self, params: np.ndarray) -> np.ndarray:
        return _log_softmax(params.reshape(self.vocab_size, self.vocab_size))

    def _loss(self, params: np.ndarray, batch: Dataset) -> float:
        counts = self.transition_counts(batch)
        return float(-(counts * self._log_probs(params)).sum() / counts.sum())

    def _grad(self, params: np.ndarray, batch: Dataset) -> np.ndarray:
        counts = self.transition_counts(batch)
        probs = np.exp(self._log_probs(params))
        row_totals = counts.sum(axis=1, keepdims=True)
        return ((probs * row_totals - counts) / counts.sum()).ravel()


# ---------------------------------------------------------------------------
# Softmax (multinomial logistic) classifier
# ---------------------------------------------------------------------------


# The most parameters a softmax model may have (n_features * n_classes):
# every parameter-sized vector of a run (iterate, gradient, AdamW moments)
# then takes at most 8 MiB.
MAX_SOFTMAX_PARAMS = 2**20


class SoftmaxModel(_BatchModel):
    """Linear softmax classifier over (features, label) records."""

    def __init__(self, n_features: int, n_classes: int):
        if n_features < 1 or n_classes < 2:
            raise ValueError("need n_features >= 1 and n_classes >= 2")
        if n_features * n_classes > MAX_SOFTMAX_PARAMS:
            raise ValueError(f"n_features * n_classes must be <= {MAX_SOFTMAX_PARAMS}, got {n_features} * {n_classes}")
        self.n_features = n_features
        self.n_classes = n_classes
        self.param_dim = n_features * n_classes

    def initial_params(self) -> np.ndarray:
        return np.zeros(self.param_dim)

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
        return _log_softmax(xs @ params.reshape(self.n_classes, self.n_features).T)

    def _loss(self, params: np.ndarray, batch: Dataset) -> float:
        xs, ys = batch.rows(self._stack_examples)
        logp = self._log_probs(params, xs)
        return float(-logp[np.arange(len(ys)), ys].mean())

    def _grad(self, params: np.ndarray, batch: Dataset) -> np.ndarray:
        xs, ys = batch.rows(self._stack_examples)
        probs = np.exp(self._log_probs(params, xs))
        probs[np.arange(len(ys)), ys] -= 1.0
        return (probs.T @ xs).ravel() / len(ys)
