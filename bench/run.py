"""Run one grapemix benchmark workload and print its metrics.

    python3 bench/run.py --workload char_sampled --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root.  The library is imported from ``src/`` of
that root, never from an installed copy.  One process, one thread: the
BLAS/OpenMP pools are pinned to one thread before numpy loads, and the
workload's ``train_run`` calls run back to back (a closed loop).

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` spends half
of ``--seconds`` on untraced rounds and then runs one traced round to
give the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (machine facts, per-run digests, check failures, bases).  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import hashlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
MIN_UNTRACED_ROUNDS = 2  # a repeat of the round checks that it is deterministic


def import_library():
    """Import grapemix from ROOT/src, or exit with code 1 when this root has no source."""
    src = ROOT / "src"
    if not (src / "grapemix" / "__init__.py").is_file():
        sys.exit(f"bench: no grapemix source under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import grapemix

    if Path(grapemix.__file__).resolve().parent != (src / "grapemix").resolve():
        sys.exit(f"bench: imported grapemix from {grapemix.__file__}, not from {src}")


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    revision = None
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        revision = target.read_text().strip() if target is not None and target.is_file() else ref
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "grapemix").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "thread_env": {var: os.environ[var] for var in THREAD_ENV},
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return the result object and the details."""
    import instrument
    import spans as span_lib
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    out_dir = OUT / f"{name}-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)

    spans = span_lib.SpanBuffer()
    setup_s, rounds = [], []
    budget = seconds / 2 if trace else seconds
    start = time.perf_counter()
    while len(rounds) < (1 if trace else MIN_UNTRACED_ROUNDS) or time.perf_counter() - start < budget:
        # Set-ups are spread over the run, like the rounds, so they meet the same machine states.
        for _ in range(workload.setups_per_round):
            with spans.span("bench.setup") as idx:
                state = workload.setup(seed, spans)
            setup_s.append(spans.seconds(idx))
        with spans.span("bench.round"):
            rounds.append(workload.round(state, instrument.Runner(spans), spans, out_dir))

    detail = {"workload": name, "why": workload.why, "machine": machine_facts(seed), "rounds": len(rounds)}
    round_rates = [r.steps / sum(spans.seconds(c.span) for c in r.calls) for r in rounds]
    round_report_s = [sum(run.report_s for run in r.runs) for r in rounds]
    if trace:
        tspans = span_lib.SpanBuffer()
        with instrument.traced(tspans):
            with tspans.span("bench.setup"):
                tstate = workload.setup(seed, tspans)
            runner = instrument.Runner(tspans, traced=True)
            with tspans.span("bench.round"):
                traced_round = workload.round(tstate, runner, tspans, out_dir)
        tspans.write(out_dir / "spans.npz")
        table = instrument.SpanTable(tspans)
        values, detail["per_layer"] = instrument.layer_metrics(
            table, runner.calls, sum(r.csv_bytes for r in traced_round.runs)
        )
        traced_rate = traced_round.steps / sum(tspans.seconds(c.span) for c in runner.calls)
        values["trace.overhead_share"] = 1.0 - traced_rate / statistics.median(round_rates)
        traced_round.failures += [f"trace cross-check: {p}" for p in instrument.crosscheck(table, runner.calls)]
        rounds.append(traced_round)
    else:
        first = rounds[0]
        grape = first.headline()
        values = {
            "setup_s": statistics.median(setup_s),
            "steps_per_s": statistics.median(round_rates),
            "report_s": statistics.median(round_report_s),
            "worst_task_loss": max(grape.losses),
            "avg_task_loss": statistics.fmean(grape.losses),
            "worst_task_gap": first.worst_task_gap,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    for i, r in enumerate(rounds[1:], start=2):
        r.mark_differences(rounds[0], "the traced round" if trace and r is rounds[-1] else f"round {i}")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.failures + [q for run in r.runs for q in run.problems]]
    detail.update(
        runs=[
            {"name": run.name, "algorithm": run.algorithm, "steps": run.steps, "grad_evals": run.counters,
             "csv_sha256": run.csv_sha256, "csv_bytes": run.csv_bytes, "final_task_losses": run.losses}
            for run in rounds[0].runs
        ],
        info=rounds[0].info,
        failed_runs={"failed": failed, "attempted": attempted},
        problems=problems,
        samples={
            "setup_s": setup_s,
            "round_steps_per_s": round_rates,
            "round_report_s": round_report_s,
        },
    )
    units = declared_units(trace)
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return result, detail


def declared_units(trace: bool) -> dict:
    """Unit of every metric BENCHMARK.json declares for this kind of run."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def print_table(name: str, result: dict, detail: dict) -> None:
    print(f"== {name}: correct={result['correct']} failed_runs={result['failed']}/{result['attempted']}")
    for metric, m in result["metrics"].items():
        print(f"   {metric:40s} {m['value']:>16.6g} {m['unit']}")
    for problem in detail["problems"]:
        print(f"   FAIL {problem}")


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])
        print_table(name, result, detail)
        combined["metrics"].update({f"{name}.{metric}": m for metric, m in result["metrics"].items()})
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(args.workload, result, detail)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
