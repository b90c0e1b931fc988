"""The benchmark's three training workloads.

Each workload has a set-up (the store, the model and the oracle, built
from the seed) and a round: the workload's ``train_run`` calls back to
back, each followed by the post-training work a user waits for (final
full-dataset evaluation, trajectory CSV export and re-import, harness
reports).  A round also checks every run's output and returns what the
metrics need.  Rounds of one seed are deterministic, so the benchmark
repeats them and compares.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import grapemix.verify as verify
from grapemix import (
    CharLMModel,
    MixtureStore,
    NumericalDivergence,
    ReweightConfig,
    convergence_report,
    export_trajectory,
    import_trajectory,
    variance_monotonicity_check,
)
from grapemix.simplex import SIMPLEX_TOL
from instrument import Runner, RunCall, patched
from spans import SpanBuffer

# Criterion-9 hyperparameters of the multilingual char-LM case.
CHAR_LR = 0.15
CHAR_TRAIN_BATCH = 16
CHAR_EVAL_BATCH = 32
CHAR_EVAL_EVERY = 2000

SAMPLED_STEPS = 5000  # per run; both reweights every 100 steps
SAMPLED_EVERY = 100
EXPECTED_STEPS = 400  # per run; every gradient is a full pass over a dataset
EXPECTED_EVERY = 10

THEOREM1_GAP_TOL = 1e-3
THEOREM1_SLOPE_MAX = -0.8
THEOREM2_INCREASE_TOL = 1e-12


@dataclass
class RunOutput:
    """What one ``train_run`` call produced, and the checks it failed."""

    name: str
    algorithm: str
    steps: int
    counters: tuple[int, int, int]
    csv_sha256: str
    csv_bytes: int
    losses: list[float]  # final task losses the headline metrics use
    report_s: float  # post-training work of this run
    problems: list[str]

    def fingerprint(self) -> tuple:
        """What a repeat of the run with the same seed must reproduce."""
        return (self.algorithm, self.counters, self.csv_sha256, self.losses)


@dataclass
class RoundResult:
    calls: list[RunCall] = field(default_factory=list)
    attempted: int = 0
    runs: list[RunOutput] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)  # diverged runs and failed round-level checks
    worst_task_gap: float = float("nan")
    info: dict = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return sum(c.steps for c in self.calls)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs if r.problems) + (self.attempted - len(self.runs))

    def headline(self) -> RunOutput:
        """The first grape run."""
        for run in self.runs:
            if run.algorithm == "grape":
                return run
        raise RuntimeError("the round completed no grape run")

    def mark_differences(self, reference: RoundResult, label: str) -> None:
        """Fail every run that does not reproduce the same run of ``reference``."""
        if len(self.runs) != len(reference.runs):
            self.failures.append(f"{label} completed {len(self.runs)} runs, the first round {len(reference.runs)}")
        for run, ref in zip(self.runs, reference.runs):
            if run.fingerprint() != ref.fingerprint():
                run.problems.append(f"{run.name}: {label} differs from the first round at the same seed")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setups_per_round: int  # set-ups built before each round
    setup: Callable  # (seed, spans) -> state
    round: Callable  # (state, runner, spans, out_dir) -> RoundResult


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def trajectory_problems(trajectory) -> list[str]:
    """Every recorded alpha and z is a simplex; every recorded loss is finite."""
    problems = []
    for name, vecs in (("alpha", trajectory.alphas), ("z", trajectory.zs)):
        if vecs.min() < 0.0 or np.abs(vecs.sum(axis=1) - 1.0).max() > SIMPLEX_TOL:
            problems.append(f"a recorded {name} is not a simplex within {SIMPLEX_TOL}")
    if not np.all(np.isfinite(trajectory.losses)):
        problems.append("a recorded loss is not finite")
    return problems


def counter_problems(cfg: ReweightConfig, store, trajectory) -> list[str]:
    """Criterion 8 on a sampled run: train = T and task + domain =
    floor(T/dTz)(N+1) + floor(T/dTa)(K+1), counting only the weights the
    algorithm adapts."""
    train, task, domain = trajectory.final_counters
    t = cfg.total_steps
    want = (t // cfg.update_every_z) * (store.num_tasks + 1) * cfg.adapts_z + (
        t // cfg.update_every_alpha
    ) * (store.num_domains + 1) * cfg.adapts_alpha
    if train != t or task + domain != want:
        return [f"counters train={train} task+domain={task + domain}, want {t} and {want}"]
    return []


def roundtrip_problems(trajectory, back) -> list[str]:
    """Every recorded value survives export and re-import exactly."""
    if len(back) != len(trajectory):
        return [f"re-import has {len(back)} records, export had {len(trajectory)}"]
    for before, after in zip(trajectory.records, back.records):
        same = (
            before.step == after.step
            and before.lr == after.lr
            and before.grad_evals == after.grad_evals
            and all(
                np.array_equal(getattr(before, f), getattr(after, f))
                for f in ("losses", "alpha", "z", "task_scores", "domain_scores")
            )
        )
        if not same:
            return [f"CSV round trip changed the record at step {before.step}"]
    return []


def finish_run(name: str, cfg, trajectory, final_eval, spans: SpanBuffer, out_dir: Path, result: RoundResult,
               store=None) -> RunOutput:
    """Post-training work of one run (timed), then its checks.

    With ``store``, the run was sampled and must meet criterion 8.
    """
    csv_path = out_dir / f"{name}.csv"
    with spans.span("bench.report") as report:
        with spans.span("models.final_eval"):
            losses = final_eval()
        with spans.span("analysis.export"):
            export_trajectory(trajectory, csv_path)
        with spans.span("analysis.import"):
            back = import_trajectory(csv_path)
    text = csv_path.read_bytes()
    problems = trajectory_problems(trajectory) + roundtrip_problems(trajectory, back)
    if store is not None:
        problems += counter_problems(cfg, store, trajectory)
    if not np.all(np.isfinite(losses)):
        problems.append("a final task loss is not finite")
    out = RunOutput(
        name=name,
        algorithm=cfg.algorithm,
        steps=int(trajectory.steps[-1]),
        counters=tuple(int(c) for c in trajectory.final_counters),
        csv_sha256=hashlib.sha256(text).hexdigest(),
        csv_bytes=len(text),
        losses=[float(v) for v in losses],
        report_s=spans.seconds(report),
        problems=[f"{name}: {p}" for p in problems],
    )
    result.runs.append(out)
    return out


# ---------------------------------------------------------------------------
# Char-LM workloads
# ---------------------------------------------------------------------------


@dataclass
class CharState:
    seed: int
    store: MixtureStore
    model: CharLMModel
    oracle: np.ndarray  # per-task loss of that task's own best bigram fit


def empirical_entropy(model: CharLMModel, examples) -> float:
    """The lowest loss any bigram table reaches on these examples."""
    counts = model.transition_counts(examples)
    rows = counts.sum(axis=1, keepdims=True)
    nz = counts > 0
    return float(-(counts[nz] * np.log((counts / np.maximum(rows, 1.0))[nz])).sum() / counts.sum())


def char_setup(seed: int, spans: SpanBuffer) -> CharState:
    store = verify.multilingual_store(seed)
    model = CharLMModel(verify.MULTILINGUAL_VOCAB)
    oracle = np.array([empirical_entropy(model, store.tasks[lbl].examples) for lbl in store.task_labels])
    return CharState(seed, store, model, oracle)


def char_config(algorithm: str, steps: int, every: int, mode: str) -> ReweightConfig:
    return ReweightConfig(
        algorithm=algorithm,
        total_steps=steps,
        base_lr=CHAR_LR,
        train_batch_size=CHAR_TRAIN_BATCH,
        eval_batch_size=CHAR_EVAL_BATCH,
        update_every_alpha=every,
        update_every_z=every,
        step_ratio_alpha=1.5,
        step_ratio_z=10.0,
        eval_every=CHAR_EVAL_EVERY,
        task_mix_mode=mode,
        domain_mix_mode=mode,
    )


def char_round(algorithms, steps, every, mode):
    def run(state: CharState, runner: Runner, spans: SpanBuffer, out_dir: Path) -> RoundResult:
        result = RoundResult()
        store, model = state.store, state.model
        for algorithm in algorithms:
            cfg = char_config(algorithm, steps, every, mode)
            result.attempted += 1
            try:
                params, trajectory = runner(cfg, model, store, seed=state.seed)
            except NumericalDivergence as exc:
                result.failures.append(f"{algorithm}: {exc}")
                continue

            def final_eval(params=params):
                return np.array([model.loss(params, store.tasks[lbl].examples) for lbl in store.task_labels])

            finish_run(algorithm, cfg, trajectory, final_eval, spans, out_dir, result,
                       store=store if mode == "sampled" else None)
        result.calls = runner.calls
        losses = {r.algorithm: np.array(r.losses) for r in result.runs}
        if "grape" in losses:
            result.worst_task_gap = float((losses["grape"] - state.oracle).max())
        if "uniform" in losses and "grape" in losses:
            # Criterion 9 on this seed, as information: one seed may legitimately lose.
            result.info["criterion9_grape_avg_le_uniform_avg"] = bool(losses["grape"].mean() <= losses["uniform"].mean())
        return result

    return run


# ---------------------------------------------------------------------------
# Quadratic theorem harnesses
# ---------------------------------------------------------------------------


@dataclass
class QuadState:
    true_opt: float


def quad_setup(seed: int, spans: SpanBuffer) -> QuadState:
    # The harness is deterministic: the seed changes nothing here.
    family = verify.harness_family()
    verify.harness_store(family)
    family.model()
    with spans.span("models.minimax_optimum"):
        _, true_opt = family.minimax_optimum()
    return QuadState(true_opt)


def quad_round(state: QuadState, runner: Runner, spans: SpanBuffer, out_dir: Path) -> RoundResult:
    result = RoundResult()
    with patched(verify, "train_run", runner):
        for harness, check in ((verify.theorem1_run, _theorem1_problems), (verify.theorem2_run, _theorem2_problems)):
            result.attempted += 1
            try:
                _, trajectory = harness()
            except NumericalDivergence as exc:
                result.failures.append(f"{harness.__name__}: {exc}")
                continue
            name = harness.__name__
            out = finish_run(name, runner.calls[-1].cfg, trajectory, lambda tr=trajectory: tr.records[-1].losses,
                             spans, out_dir, result)
            with spans.span("analysis.report") as report:
                problems, gap = check(trajectory, state)
            out.report_s += spans.seconds(report)
            out.problems += [f"{name}: {p}" for p in problems]
            if gap is not None:
                result.worst_task_gap = gap
    result.calls = runner.calls
    return result


def _theorem1_problems(trajectory, state: QuadState):
    report = convergence_report(trajectory, state.true_opt, epsilon=THEOREM1_GAP_TOL)
    gap = float(report.running_min[-1])
    problems = []
    if not gap <= THEOREM1_GAP_TOL:
        problems.append(f"worst-task gap {gap:.3e} > {THEOREM1_GAP_TOL}")
    if not report.fit_slope <= THEOREM1_SLOPE_MAX:
        problems.append(f"late-stage slope {report.fit_slope:.3f} > {THEOREM1_SLOPE_MAX}")
    return problems, gap


def _theorem2_problems(trajectory, state: QuadState):
    check = variance_monotonicity_check(trajectory, burn_in_fraction=0.2)
    if not (check.found and check.max_increase <= THEOREM2_INCREASE_TOL):
        return [f"variance not monotone after burn-in (max increase {check.max_increase:.3e})"], None
    return [], None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "char_sampled",
            "ROADMAP headline case: small sampled batches, so mixture sampling and per-call model cost dominate",
            setups_per_round=3,
            setup=char_setup,
            round=char_round(("uniform", "doge", "grape"), SAMPLED_STEPS, SAMPLED_EVERY, "sampled"),
        ),
        Workload(
            "quad_expected",
            "theorem 1 and 2 harnesses: tiny full-batch calls, both reweights and a record every step, data layer idle",
            setups_per_round=15,
            setup=quad_setup,
            round=quad_round,
        ),
        Workload(
            "char_expected",
            "same char-LM layer on whole datasets: every gradient is a full pass, PCGrad runs, data layer idle",
            setups_per_round=3,
            setup=char_setup,
            round=char_round(("grape", "doge_pcgrad"), EXPECTED_STEPS, EXPECTED_EVERY, "expected"),
        ),
    )
}
