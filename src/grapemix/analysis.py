"""Trajectory recording, theorem-style harness reports, and CSV export.

A trajectory is the per-step log of one run: task losses, both weight
vectors, the latest alignment scores, the learning rate and the
gradient-evaluation counters, kept as one column per field.  On top of
it live two empirical checks:

* ``convergence_report`` tracks the running minimum of the worst-task
  suboptimality against a known minimax optimum and fits its decay rate;
* ``variance_monotonicity_check`` looks for a burn-in point after which
  the across-task loss variance never increases.

Export is a plain CSV with stable column names; floats are written with
``repr`` (shortest round-trip decimal), so a re-ingested file reproduces
every value exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DimensionError, IngestError, ReportError
from .simplex import SimplexWeights, simplex_rows

VARIANCE_TOL = 1e-12

# The per-label vectors of a record, in CSV column order: (record field,
# CSV column prefix, the Trajectory attribute holding the labels).
VECTOR_COLUMNS = (
    ("losses", "loss", "task_labels"),
    ("alpha", "alpha", "domain_labels"),
    ("z", "z", "task_labels"),
    ("task_scores", "a_task", "task_labels"),
    ("domain_scores", "a_domain", "domain_labels"),
)
COUNTERS = ("train_grad_evals", "task_grad_evals", "domain_grad_evals")
FIRST_ROWS = 16  # rows of a new trajectory's columns, which double whenever they are full
STEP_ORDER = "steps must strictly increase, got {} after {}"


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """The state after one training step, read from a trajectory's columns (the vectors as read-only views).
    Records compare by identity: compare their fields, or the trajectory's columns."""

    step: int
    losses: np.ndarray
    alpha: np.ndarray
    z: np.ndarray
    task_scores: np.ndarray
    domain_scores: np.ndarray
    lr: float
    train_grad_evals: int
    task_grad_evals: int
    domain_grad_evals: int

    @property
    def grad_evals(self) -> int:
        return self.train_grad_evals + self.task_grad_evals + self.domain_grad_evals


FIELDS = tuple(f.name for f in fields(TrajectoryRecord))


class Trajectory(Sequence):
    """An append-only, single-writer log of one run: a sequence of records kept as
    columns, one preallocated column per ``TrajectoryRecord`` field, moved into
    columns of twice the rows when full.  ``steps``, ``losses``, ``alphas`` and ``zs``
    are read-only slices, which later appends never write into, and ``trajectory[i]``
    (also ``records[i]``) reads one row."""

    def __init__(self, domain_labels, task_labels):
        self.domain_labels = csv_labels(domain_labels)
        self.task_labels = csv_labels(task_labels)
        self._widths = {name: len(getattr(self, side)) for name, _, side in VECTOR_COLUMNS}
        self._size = 0
        self._columns = {name: np.empty((FIRST_ROWS, self._widths[name]) if name in self._widths else FIRST_ROWS,
                                        dtype=np.int64 if name == "step" or name in COUNTERS else np.float64)
                         for name in FIELDS}

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(self._size)[i]]
        i = range(self._size)[i]  # counts a negative index from the end; IndexError outside
        return TrajectoryRecord(**{name: self._column(name)[i] if name in self._widths else
                                   self._columns[name][i].item() for name in FIELDS})

    def append(self, step, losses, alpha, z, task_scores, domain_scores, lr,
               train_grad_evals, task_grad_evals, domain_grad_evals) -> None:
        """Add the record of ``step``, which must exceed the last one.  ``alpha`` and ``z`` are
        ``SimplexWeights``, whose type carries their judgement, or raw vectors, judged here."""
        row = dict(zip(FIELDS, (step, losses, alpha, z, task_scores, domain_scores, lr,
                                train_grad_evals, task_grad_evals, domain_grad_evals)))
        raw = [name for name in ("alpha", "z") if not isinstance(row[name], SimplexWeights)]
        for name in self._widths:
            row[name] = row[name].values if isinstance(row[name], SimplexWeights) else np.asarray(row[name])
        rejected = self._rejection((step,), row, raw)
        if rejected:
            raise ValueError(rejected[1])
        self._reserve(1)
        for name, value in row.items():
            self._columns[name][self._size] = value
        self._size += 1

    def _extend(self, block: dict) -> tuple[int, str] | None:
        """Add a block of rows with raw alpha and z, or, when ``append`` would reject one of them,
        add none and return ``(row, message)`` for the first it rejects.  ``block`` holds each
        field's rows: an int64 array of steps, a (rows, width) array per vector, and what fills
        the rows of each other field."""
        steps, i = block["step"], self._size
        rejected = self._rejection(steps, block, ("alpha", "z"), rows=steps.shape)
        if rejected:
            return rejected
        self._reserve(steps.size)
        for name, col in self._columns.items():
            col[i : i + steps.size] = block[name]
        self._size = i + steps.size
        return None

    def _rejection(self, steps, vectors: dict, raw, rows=()) -> tuple[int, str] | None:
        """``(row, message)`` for the first of the rows of ``steps`` that may not follow the last
        record, or None.  ``append``'s rules, in its order: each step exceeds the one before it,
        each vector field in ``vectors`` has shape ``(*rows, width)``, and each weight field
        named in ``raw`` is on the simplex."""
        i, n = self._size, len(steps)
        if i and n and steps[0] <= self._columns["step"][i - 1]:
            return 0, STEP_ORDER.format(steps[0], self._columns["step"][i - 1])
        for name, width in self._widths.items():
            if vectors[name].shape != (*rows, width):
                return 0, f"record field {name} has wrong length"
        faults = []  # the first row each later rule rejects; a tie goes to the earlier rule
        if n > 1:
            later = (steps[1:] <= steps[:-1]).nonzero()[0] + 1  # compared, not subtracted: no overflow
            if later.size:
                faults.append((later[0], STEP_ORDER.format(steps[later[0]], steps[later[0] - 1])))
        for name in raw:
            off = np.flatnonzero(~simplex_rows(vectors[name]))
            if off.size:
                faults.append((off[0], f"record field {name} is not a valid simplex vector"))
        return min(faults, key=lambda fault: fault[0]) if faults else None

    def _reserve(self, n: int) -> None:
        """Room for ``n`` more rows: when they do not fit, each column moves into a new one of
        twice the rows, or more."""
        if self._size + n > len(self._columns["step"]):
            rows = max(2 * len(self._columns["step"]), self._size + n)
            self._columns = {name: np.resize(col, (rows, *col.shape[1:])) for name, col in self._columns.items()}

    def _column(self, name: str) -> np.ndarray:
        view = self._columns[name][: self._size]
        view.flags.writeable = False
        return view

    records = property(lambda self: self)
    steps = property(lambda self: self._column("step"))
    losses = property(lambda self: self._column("losses"))
    alphas = property(lambda self: self._column("alpha"))
    zs = property(lambda self: self._column("z"))

    @property
    def final_counters(self) -> tuple[int, int, int]:
        return tuple(self._columns[name][self._size - 1].item() if self._size else 0 for name in COUNTERS)


def variance_series(trajectory: Trajectory) -> np.ndarray:
    """The population variance (divide by N) of every record's task losses, in record order."""
    return np.var(trajectory.losses, axis=1)


@dataclass(frozen=True)
class VarianceCheck:
    """Outcome of the variance-monotonicity search."""

    found: bool
    t0: int | None
    max_increase: float


def variance_monotonicity_check(
    trajectory: Trajectory,
    burn_in_fraction: float,
    tol: float = VARIANCE_TOL,
) -> VarianceCheck:
    """Find the earliest recorded step within the burn-in window after
    which the task-loss variance never increases by more than ``tol``.

    Meant for deterministic (full-batch) trajectories, where monotone
    means monotone; on a stochastic trajectory the check simply fails
    and reports the violation rather than erroring.  ``max_increase`` is
    the largest post-t0 increase when found, or the smallest achievable
    violation over candidate starting points when not.
    """
    if not len(trajectory):
        raise ReportError("trajectory has no records")
    steps = trajectory.steps
    variances = variance_series(trajectory)
    diffs = np.diff(variances)
    horizon = burn_in_fraction * steps[-1]
    candidates = np.flatnonzero(steps <= horizon)
    if candidates.size == 0:
        candidates = np.array([0])
    # suffix_max[i] = largest later increase if t0 were placed at record i
    suffix_max = np.full(len(steps), -np.inf)
    if diffs.size:
        suffix_max[:-1] = np.maximum.accumulate(diffs[::-1])[::-1]
    for i in candidates:
        if suffix_max[i] <= tol:
            return VarianceCheck(found=True, t0=int(steps[i]), max_increase=max(float(suffix_max[i]), 0.0))
    best = float(suffix_max[candidates].min())
    return VarianceCheck(found=False, t0=None, max_increase=best)


@dataclass(frozen=True)
class TheoremHarnessReport:
    """Empirical convergence evidence from one trajectory."""

    running_min: np.ndarray
    first_step_within_epsilon: int | None
    fit_slope: float


def convergence_report(trajectory: Trajectory, true_opt: float, epsilon: float = 1e-3) -> TheoremHarnessReport:
    """Measure worst-task suboptimality against a known minimax optimum.

    Reports the running minimum of the worst-task suboptimality, the first
    recorded step with running minimum <= epsilon, and the slope of a
    least-squares fit of log(running min) against log(step) over the final
    half of the run (slope near -1 is the signature of a 1/t decay;
    steeper is faster).
    """
    if not len(trajectory):
        raise ReportError("trajectory has no records")
    steps, losses = trajectory.steps, trajectory.losses
    finite = np.isfinite(losses).all(axis=1)
    if not finite.all():
        raise ReportError(f"record at step {steps[~finite][0]} lacks usable task losses")
    running_min = np.minimum.accumulate(losses.max(axis=1) - true_opt)
    hit = np.flatnonzero(running_min <= epsilon)
    tail = (steps >= steps[-1] / 2) & (steps > 0)
    return TheoremHarnessReport(
        running_min=running_min,
        first_step_within_epsilon=int(steps[hit[0]]) if hit.size else None,
        fit_slope=_loglog_fit(steps[tail], running_min[tail]),
    )


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> float:
    """Slope of the least-squares line through (log x, log y)."""
    if x.size < 2:
        return float("nan")
    log_x = np.log(x.astype(np.float64))
    log_y = np.log(np.maximum(y, 1e-300))
    return float(np.polyfit(log_x, log_y, 1)[0])


# ---------------------------------------------------------------------------
# CSV export / import
# ---------------------------------------------------------------------------


def csv_labels(labels) -> tuple:
    """``labels`` as a tuple, or DimensionError naming the first that cannot name a CSV
    column of its own: a comma splits the header's fields, a line break (any that
    ``str.splitlines`` breaks at, as ``import_trajectory`` does) its line, a label that does
    not encode as UTF-8 cannot be written, and a repeated one names a column twice."""
    labels = tuple(labels)
    texts = [str(label) for label in labels]
    for i, label in enumerate(texts):
        if "," in label or len(f"{label}.".splitlines()) > 1:
            fault = "it holds a comma or a line break"
        elif any("\ud800" <= ch <= "\udfff" for ch in label):  # a surrogate, which UTF-8 cannot encode
            fault = "it does not encode as UTF-8"
        elif label in texts[:i]:
            fault = "it is repeated"
        else:
            continue
        raise DimensionError(f"label {label!r} cannot name a trajectory CSV column: {fault}")
    return labels


def _header(trajectory: Trajectory) -> list[str]:
    columns = ["step"]
    for _, prefix, labels in VECTOR_COLUMNS:
        columns += [f"{prefix}.{label}" for label in getattr(trajectory, labels)]
    return columns + ["lr", "grad_evals"]


def render_trajectory(trajectory: Trajectory) -> str:
    """The CSV text of a trajectory; floats as shortest round-trip decimals."""
    floats = np.hstack([trajectory._column(name) for name, _, _ in VECTOR_COLUMNS]
                       + [trajectory._column("lr")[:, None]]).tolist()
    evals = sum(trajectory._column(name) for name in COUNTERS).tolist()
    lines = [",".join(_header(trajectory))]
    lines += [",".join([str(step), *map(repr, row), str(total)])
              for step, row, total in zip(trajectory.steps.tolist(), floats, evals)]
    return "\n".join(lines) + "\n"


def export_trajectory(trajectory: Trajectory, path: str | Path) -> None:
    """Write one CSV row per record (see render_trajectory)."""
    Path(path).write_text(render_trajectory(trajectory), encoding="utf-8")


def import_trajectory(path: str | Path) -> Trajectory:
    """Re-ingest an exported trajectory.

    Labels are recovered from the header.  The three-way split of the
    gradient-evaluation counter is not part of the format; the total is
    restored into the training counter.  Text that is not UTF-8, a header
    naming labels that ``Trajectory`` rejects, and any row that does not
    parse or that ``Trajectory.append`` rejects, raise IngestError (with the
    line number), for the first line that appending row by row would reject.
    The rows are parsed in one pass into columns, judged together and added
    in one block.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"trajectory file is not UTF-8 text: {exc}") from exc
    lines = text.splitlines()
    # (physical line number, fields) of each non-blank line, split lazily to keep peak memory down
    rows = ((lineno, line.split(",")) for lineno, line in enumerate(lines, start=1) if line)
    header_line, columns = next(rows, (1, None))
    if columns is None:
        raise IngestError("trajectory file is empty", 1)
    # Each side's labels come from the first vector that side labels, which the reversed order writes last.
    labels = {side: [c[len(prefix) + 1 :] for c in columns if c.startswith(prefix + ".")]
              for _, prefix, side in reversed(VECTOR_COLUMNS)}
    if not all(labels.values()):
        raise IngestError("header lacks per-task or per-domain columns", header_line)
    try:
        trajectory = Trajectory(**labels)
    except DimensionError as exc:
        raise IngestError(str(exc), header_line) from exc
    if columns != _header(trajectory):
        raise IngestError("header does not match the trajectory schema", header_line)

    # The data rows, parsed with float() and int() per field, up to the first that does not parse.
    capacity = len(lines) - header_line
    floats = np.empty((capacity, len(columns) - 2))  # the vectors in column order, then lr
    steps, counts = np.empty(capacity, dtype=np.int64), np.empty(capacity, dtype=np.int64)
    linenos, fault = [], None
    for r, (lineno, parts) in enumerate(rows):
        linenos.append(lineno)
        try:
            if len(parts) != len(columns):
                raise ValueError(f"expected {len(columns)} fields, got {len(parts)}")
            floats[r] = [float(p) for p in parts[1:-1]]
            step, count = int(parts[0]), int(parts[-1])
            steps[r], counts[r] = step, count  # OverflowError: an integer past the int64 columns
        except (ValueError, OverflowError) as exc:
            fault = exc
            break
    size = len(linenos) - (fault is not None)
    bounds = np.cumsum([0, *trajectory._widths.values()]).tolist()
    vectors = [floats[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    block = dict(zip(FIELDS, (steps[:size], *(v[:size] for v in vectors), floats[:size, -1], counts[:size], 0, 0)))
    rejected = trajectory._extend(block)
    if rejected:
        raise IngestError(rejected[1], linenos[rejected[0]])
    if isinstance(fault, OverflowError):  # append judges the row, as row by row, before it fails to fit the columns
        try:
            trajectory.append(step, *(v[size] for v in vectors), floats[size, -1], count, 0, 0)
        except (ValueError, OverflowError) as exc:
            fault = exc
    if fault is not None:
        raise IngestError(str(fault), linenos[-1]) from fault
    return trajectory
