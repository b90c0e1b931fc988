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

from .data import _ALPHABET, Block, Dataset, Datasets
from .errors import DimensionError, EmptyBatch
from .simplex import on_simplex


class DifferentiableModel(Protocol):
    """What the training loop needs: a loss and its gradient on a batch.

    A batch is a ``Dataset`` (a sampled draw or a whole store dataset) or
    a list of examples.  Every call evaluates, and nothing is kept between
    calls.  A ``Point`` asks a model that has only these methods for one
    ``loss`` or ``grad`` per request.  The built-in models are
    ``_BatchModel``s, which a point prepares once per block or store side
    and evaluates in rows instead.  A record the model cannot use raises a
    typed error.
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
    point = Point(model, params)
    rows = point.prepare([_as_dataset(batch)])  # prepared once for all 2·D + 1 evaluations
    analytic = point.grads(rows)[0]
    loss = lambda probe: float(Point(model, probe).losses(rows)[0])
    worst = 0.0
    probe = params.copy()
    for i in range(params.size):
        probe[i] = params[i] + h
        up = loss(probe)
        probe[i] = params[i] - h
        down = loss(probe)
        probe[i] = params[i]
        worst = max(worst, abs((up - down) / (2.0 * h) - analytic[i]))
    return worst


def _as_dataset(batch: Dataset | list) -> Dataset:
    """The batch; a list of examples (a final eval, a test) is wrapped in a
    ``Dataset``, which rejects an empty one."""
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
    """A built-in model, prepared and evaluated in two steps.

    ``prepare`` turns batches into a tuple of arrays with one row per
    batch: a ``Block``'s rows are gathered from its side's per-example
    table (``_table``); a store side's whole ``Datasets`` are stacked once
    and kept read-only by the side; any other sequence of batches is stacked
    from each batch's own arrays (``_arrays``).  The rows of batches of
    several sizes sit in object arrays.  Each model's ``row_losses`` and
    ``row_grads`` evaluate R such rows at the ``tables`` of one parameter
    vector, as (R,) losses and (R, D) gradients, each row bitwise what its
    batch alone gives.  ``Point`` evaluates them so, and the public
    ``loss`` and ``grad`` prepare one batch and evaluate it in one call.
    """

    param_dim: int

    def loss(self, params: np.ndarray, batch: Dataset) -> float:
        return float(self.row_losses(self.tables(params), self.prepare([_as_dataset(batch)]))[0])

    def grad(self, params: np.ndarray, batch: Dataset) -> np.ndarray:
        return self.row_grads(self.tables(params), self.prepare([_as_dataset(batch)]))[0]

    def prepare(self, batches: Sequence) -> tuple:
        if isinstance(batches, Block):
            return self._gather(batches.side.prepared(self._table), batches.index)
        if isinstance(batches, Datasets):
            return batches.prepared(self._stack)
        return self._stack(batches)

    def tables(self, params: np.ndarray):
        """What evaluation reads of the parameters alone: here the checked vector."""
        return _check_params(params, self.param_dim)

    def _stack(self, batches: Sequence) -> tuple:
        return tuple(map(_rows, zip(*map(self._arrays, batches))))

    def _table(self, side: Datasets) -> tuple:
        """The per-example arrays of the side's pool: a batch's arrays have one row per example."""
        return self._arrays(side.pool()[0])

    def _gather(self, table: tuple, index: np.ndarray) -> tuple:
        return tuple(arr[index] for arr in table)


def _rows(arrays: tuple) -> np.ndarray:
    """The arrays of R batches as one array with a row each, or as an object
    array of them when their shapes differ."""
    if len({np.shape(arr) for arr in arrays}) == 1:
        return np.array(arrays)
    return np.fromiter(arrays, dtype=object, count=len(arrays))


class Point:
    """The model at one parameter vector, and the one way to evaluate it:
    the one place that tells a ``_BatchModel`` from a Protocol-only model.

    ``train_run`` makes one per parameter vector and hands it to the task
    step, the domain step, the record and the next training step;
    ``finite_diff_check`` makes one per probe.  The requests are batches
    the point prepared (``prepare``) or a store side's whole ``Datasets``.
    For a ``_BatchModel`` the point computes the parameter tables once, at
    its first evaluation; evaluates a side's whole datasets at most once,
    and serves every request for that side, its live rows included, from
    those rows; and evaluates every other request, the live rows of a side
    not yet evaluated at the point among them, from its prepared rows in
    one call.  So a dead component is never evaluated unless a domain step
    asks for every one.  Any other model is asked for one ``grad`` or
    ``loss`` per batch, and a result of the wrong shape is a DimensionError.
    """

    def __init__(self, model: DifferentiableModel, params: np.ndarray):
        self.model = model
        self.params = params
        self._batched = isinstance(model, _BatchModel)
        self._tables = None
        self._whole = {}  # (kind, a side's Datasets) -> rows

    def prepare(self, batches):
        """What the model is evaluated by at every point that reads ``batches``:
        a built-in model's arrays with one row per batch, prepared once (a
        store side keeps its own), or, for any other model, the batches."""
        return self.model.prepare(batches) if self._batched else batches

    def grads(self, batches, rows=None) -> np.ndarray | list:
        """The gradient of each of ``batches``, or of those at ``rows`` (an
        index or a slice)."""
        return self._evaluate("grads", batches, rows)

    def losses(self, batches, rows=None) -> np.ndarray | list:
        """The loss of each of ``batches``, or of those at ``rows``."""
        return self._evaluate("losses", batches, rows)

    def _at(self):
        if self._tables is None:
            self._tables = self.model.tables(self.params)
        return self._tables

    def _evaluate(self, kind: str, batches, rows):
        if not self._batched:
            one, shape = (self.model.grad, (self.model.param_dim,)) if kind == "grads" else (self.model.loss, ())
            out = [one(self.params, batches[i]) for i in np.arange(len(batches))[() if rows is None else rows]]
            if any(np.shape(x) != shape for x in out):  # before any row kernel meets a ragged stack
                raise DimensionError(f"the model's {kind} gave shapes {[np.shape(x) for x in out]}, not {shape}")
            return out
        evaluate = self.model.row_grads if kind == "grads" else self.model.row_losses
        if isinstance(batches, Datasets):
            whole = self._whole.get((kind, batches))
            if whole is None and rows is None:
                whole = self._whole[kind, batches] = evaluate(self._at(), self.model.prepare(batches))
                whole.flags.writeable = False  # shared by every request for the side at the point
            if whole is not None:
                return whole if rows is None else whole[rows]
            batches = self.model.prepare(batches)
        return evaluate(self._at(), batches if rows is None else tuple(arr[rows] for arr in batches))


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

    def all_task_losses(self, theta: np.ndarray) -> np.ndarray:
        diff = np.asarray(theta, dtype=np.float64)[None, :] - self.centers
        return 0.5 * np.einsum("nd,nd->n", self.curvatures * diff, diff)

    def model(self) -> "QuadraticTaskFamily":
        return self

    def initial_params(self) -> np.ndarray:
        return np.zeros(self.param_dim)

    @staticmethod
    def _arrays(batch: Dataset) -> tuple[np.ndarray, np.ndarray]:
        try:
            mixes = np.stack([ex.mix for ex in batch])
            deltas = np.stack([ex.delta for ex in batch])
        except AttributeError as exc:
            raise TypeError("quadratic model needs QuadraticExample records") from exc
        return mixes, deltas

    # R batches of B examples take one einsum, which sums each row in the order of the einsum of one
    # batch; batches of several sizes are evaluated one by one, each as R = 1.

    def row_losses(self, theta: np.ndarray, rows: tuple) -> np.ndarray:
        if rows[0].dtype == object:
            return np.concatenate([self.row_losses(theta, (mix[None], delta[None])) for mix, delta in zip(*rows)])
        mixes, diff = self._diffs(theta, rows)
        per_task = 0.5 * np.einsum("nd,rbnd,rbnd->rbn", self.curvatures, diff, diff)
        return (mixes * per_task).sum(axis=(1, 2)) / mixes.shape[1]

    def row_grads(self, theta: np.ndarray, rows: tuple) -> np.ndarray:
        if rows[0].dtype == object:
            return np.concatenate([self.row_grads(theta, (mix[None], delta[None])) for mix, delta in zip(*rows)])
        mixes, diff = self._diffs(theta, rows)
        return np.einsum("rbn,nd,rbnd->rd", mixes, self.curvatures, diff) / mixes.shape[1]

    def _diffs(self, theta: np.ndarray, rows: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The (R, B, N) mixes of R batches of B examples and their (R, B, N, D)
        differences from the shifted centers."""
        mixes, deltas = rows
        return mixes, theta[None, None, None, :] - self.centers[None, None, :, :] - deltas[:, :, None, :]

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
# The most examples the training loop draws at once, and so the most a block's gather of those
# counts takes at a time; with its batch cap they bound the block's float64 counts, L x V x V.
_DRAW_BLOCK = 4096


class CharLMModel(_BatchModel):
    """Bigram character LM: a flat V x V logit table, loss = mean NLL/char.

    The vocabulary is the first ``vocab_size`` characters of a-z0-9, and
    batches are datasets of strings over it.  Loss and gradient are
    computed from a batch's pooled transition counts, prepared as the
    (V, V) counts, their (V, 1) row totals and their total.  A batch is
    counted from its text, in O(batch chars + V^2) regardless of how the
    text is chunked; a ``Block`` sums its rows of its side's per-string
    counts, which are counted once per side.  The parameter tables are the
    log-softmax of the logits and its ``exp``, and R rows take one
    elementwise (R, V, V) pass.  A batch without transitions fails when it
    is evaluated, not when it is prepared.
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

    def tables(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (log_probs, probs) V x V tables of ``params``."""
        log_probs = _log_softmax(_check_params(params, self.param_dim).reshape(self.vocab_size, self.vocab_size))
        return log_probs, np.exp(log_probs)

    def transition_counts(self, batch: Dataset) -> np.ndarray:
        """Pooled V x V counts of (char, next char) pairs, per string."""
        return _with_transitions(self.prepare([_as_dataset(batch)]))[0][0]

    def _arrays(self, batch: Dataset) -> tuple[np.ndarray, np.ndarray, np.float64]:
        """The batch's transition counts, their (V, 1) row totals and their total."""
        codes = self._codes(batch)
        # The separator gets code V, so every pair that spans two strings
        # lands outside the V x V block of the (V+1) x (V+1) pair counts.
        side = self.vocab_size + 1
        pairs = np.bincount(codes[:-1] * side + codes[1:], minlength=side * side).reshape(side, side)
        counts = pairs[:-1, :-1].astype(np.float64)
        return counts, counts.sum(axis=1, keepdims=True), counts.sum()

    def _table(self, side: Datasets) -> tuple[np.ndarray]:
        """The (n, V, V) transition counts of each string of the side's pool,
        in the least unsigned type that holds its longest string's length;
        counted one block of strings at a time, which bounds the int64 scratch."""
        texts = side.pool()[0].examples
        v = self.vocab_size
        table = np.empty((len(texts), v, v), dtype=np.min_scalar_type(max(map(len, texts))))
        for start in range(0, len(texts), _TABLE_BLOCK):
            block = texts[start : start + _TABLE_BLOCK]
            codes = self._codes(block)
            string = np.cumsum(codes == v)  # the string each character code belongs to
            inside = (codes[:-1] < v) & (codes[1:] < v)
            keys = (string[:-1] * v + codes[:-1]) * v + codes[1:]
            table[start : start + len(block)] = np.bincount(keys[inside], minlength=len(block) * v * v).reshape(-1, v, v)
        return (table,)

    def _gather(self, table: tuple[np.ndarray], index: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (L, V, V) transition counts of each batch of an (L, B) index,
        their (L, V, 1) row totals and (L,) totals, from gathers of at most
        ``_DRAW_BLOCK`` examples (and at least one batch) each: one gather
        for a training block.  Integer counts summed in float64 are exact:
        each batch's equal counting its text."""
        length, size = index.shape
        chunk = max(1, _DRAW_BLOCK // size)
        counts = np.empty((length, self.vocab_size, self.vocab_size))
        for start in range(0, length, chunk):
            table[0][index[start : start + chunk]].sum(axis=1, dtype=np.float64, out=counts[start : start + chunk])
        return counts, counts.sum(axis=2, keepdims=True), counts.sum(axis=(1, 2))

    def _codes(self, texts: Sequence[str]) -> np.ndarray:
        """The character codes of the strings, joined by the separator (code V)."""
        text = _SEPARATOR.join(texts)
        # A non-ASCII character encodes to bytes >= 128, none of which is in the vocabulary.
        codes = self._lut.take(np.frombuffer(text.encode("utf-8"), dtype=np.uint8))
        if np.any(codes < 0) or np.count_nonzero(codes == self.vocab_size) != len(texts) - 1:
            unknown = "".join(sorted(set("".join(texts)) - set(self.vocab)))
            raise ValueError(f"batch contains characters outside the vocabulary: {unknown!r}")
        return codes

    def row_losses(self, tables: tuple, rows: tuple) -> np.ndarray:
        counts, _, totals = _with_transitions(rows)
        return -(counts * tables[0]).sum(axis=(1, 2)) / totals

    def row_grads(self, tables: tuple, rows: tuple) -> np.ndarray:
        counts, row_totals, totals = _with_transitions(rows)
        grads = tables[1] * row_totals
        grads -= counts
        grads /= totals[:, None, None]
        return grads.reshape(len(totals), -1)


def _with_transitions(rows: tuple) -> tuple:
    """The char LM's rows, after checking that each batch has a transition."""
    if np.count_nonzero(rows[2]) < len(rows[2]):
        raise EmptyBatch("batch has no character transitions")
    return rows


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

    def _arrays(self, batch: Dataset) -> tuple[np.ndarray, np.ndarray]:
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

    # Each batch is evaluated on its own.

    def row_losses(self, params: np.ndarray, rows: tuple) -> np.ndarray:
        return np.array([-self._log_probs(params, xs)[np.arange(len(ys)), ys].mean() for xs, ys in zip(*rows)])

    def row_grads(self, params: np.ndarray, rows: tuple) -> np.ndarray:
        grads = []
        for xs, ys in zip(*rows):
            probs = np.exp(self._log_probs(params, xs))
            probs[np.arange(len(ys)), ys] -= 1.0
            grads.append((probs.T @ xs).ravel() / len(ys))
        return np.array(grads)
