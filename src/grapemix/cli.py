"""Command-line entry point: run experiments, verify claims, export logs.

Subcommands:

* ``run --config cfg.yaml [--seed N] [--out DIR] [--algo NAME]`` --
  execute one training run and write its trajectory, final weights,
  final parameters and a machine-readable summary to the output
  directory.
* ``verify SUITE`` -- run one verification suite (updates, gradients,
  theorem1, theorem2, overhead) and print one PASS/FAIL line per check.
* ``export --trajectory FILE --format csv [--out FILE]`` -- re-emit a
  trajectory export (validating it in the process).

Exit codes: 0 success, 1 numerical divergence or a failed verify check,
2 usage or config error, 3 I/O error.  Set GRAPEMIX_LOG=debug|info|warning
to control verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import export_trajectory, import_trajectory, render_trajectory
from .config import build_model, build_store, load_config_file, load_initial_weights
from .errors import ConfigError, GrapemixError, IngestError, NumericalDivergence
from .reweighting import ALGORITHMS, train_run
from .simplex import SimplexWeights
from .verify import SUITES

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_USAGE = 2
EXIT_IO = 3

log = logging.getLogger("grapemix")


def _setup_logging():
    level = os.environ.get("GRAPEMIX_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grapemix",
        description="Group-robust multi-target domain reweighting experiments.",
        epilog="Exit codes: 0 ok, 1 numerical divergence or a failed verify check, 2 usage/config error, 3 I/O error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a training run from a config file")
    run_p.add_argument("--config", required=True, help="YAML or JSON run configuration")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="override the output directory")
    run_p.add_argument("--algo", default=None, choices=ALGORITHMS, help="override the reweighting algorithm")

    verify_p = sub.add_parser("verify", help="run a verification suite")
    verify_p.add_argument("suite", choices=SUITES, help="the suite to run")

    export_p = sub.add_parser("export", help="re-emit a trajectory export")
    export_p.add_argument("--trajectory", required=True, help="path to an exported trajectory")
    export_p.add_argument("--format", default="csv", choices=["csv"], help="output format")
    export_p.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def cmd_run(args) -> int:
    cfg = load_config_file(args.config)
    if args.seed is not None:
        cfg.seed = int(args.seed)
    if args.algo is not None:
        cfg.reweight = replace(cfg.reweight, algorithm=args.algo)
    out_dir = Path(args.out if args.out is not None else (cfg.out_dir or "grapemix-out"))

    model = build_model(cfg)
    store = build_store(cfg, model)
    init_alpha, init_z = load_initial_weights(cfg)
    params0 = None if cfg.init_params is None else np.asarray(cfg.init_params, dtype=np.float64)

    log.info("run: algorithm=%s steps=%d seed=%d", cfg.reweight.algorithm, cfg.reweight.total_steps, cfg.seed)
    params, trajectory = train_run(
        cfg.reweight, model, store, init_alpha=init_alpha, init_z=init_z, seed=cfg.seed, params0=params0
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    export_trajectory(trajectory, out_dir / "trajectory.csv")
    last = trajectory.records[-1]
    SimplexWeights(last.alpha, trajectory.domain_labels).save(out_dir / "alpha_final.json")
    SimplexWeights(last.z, trajectory.task_labels).save(out_dir / "z_final.json")
    (out_dir / "params_final.json").write_text(json.dumps([repr(float(v)) for v in params]) + "\n")
    losses = {label: float(v) for label, v in zip(trajectory.task_labels, last.losses)}
    summary = {
        "algorithm": cfg.reweight.algorithm,
        "seed": cfg.seed,
        "steps": int(last.step),
        "task_losses": losses,
        "average_loss": float(last.losses.mean()),
        "worst_loss": float(last.losses.max()),
        "grad_evals": {
            "train": last.train_grad_evals,
            "task_reweight": last.task_grad_evals,
            "domain_reweight": last.domain_grad_evals,
        },
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out_dir}/trajectory.csv  (avg loss {summary['average_loss']:.6g}, "
          f"worst {summary['worst_loss']:.6g})")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = SUITES[args.suite]()
    for result in results:
        print(result.line())
    return EXIT_OK if all(r.passed for r in results) else 1


def cmd_export(args) -> int:
    trajectory = import_trajectory(args.trajectory)
    if args.out is None:
        sys.stdout.write(render_trajectory(trajectory))
    else:
        export_trajectory(trajectory, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_export(args)
    except NumericalDivergence as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, IngestError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GrapemixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
