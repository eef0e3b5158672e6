"""Command-line experiment harness.

Subcommands: gen-data, train, eval, analyze-corr, report. Configuration is
a flat key=value text file; FMAT_SEED overrides the config seed. Exit codes:
0 success, 2 config error, 3 data error (a corrupt input, or a file that
cannot be read or written, such as a directory given as a file), 4
divergence abort, 5 the eigensolver did not converge (for example on a
noisy channel estimate).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4
EXIT_CONVERGENCE = 5


def _load_config(path):
    """The run config with the FMAT_SEED override. A training setting that
    ``TrainConfig`` rejects, such as a -inf pilot SNR, is a ConfigError
    before any work."""
    from .evalharness import ConfigError, _from_cfg, parse_config
    from .training import TrainConfig

    cfg = parse_config(path)
    seed_override = os.environ.get("FMAT_SEED")
    if seed_override is not None:
        try:
            cfg["seed"] = int(seed_override)
        except ValueError:
            raise ConfigError(f"FMAT_SEED is not an integer: {seed_override!r}")
    _from_cfg(TrainConfig, cfg)
    return cfg


def _cmd_gen_data(args) -> int:
    from .evalharness import export_dataset

    cfg = _load_config(args.config)
    n = export_dataset(cfg, args.out, kind=args.kind)
    print(f"wrote {n} {args.kind} samples to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    from .evalharness import run_experiment

    cfg = _load_config(args.config)
    if args.task:
        cfg["task"] = args.task
    if args.regime:
        cfg["regime"] = args.regime
    results = run_experiment(cfg, args.out_dir)
    for r in results:
        print(f"{r.task}/{r.method} budget={r.bit_budget} "
              f"nmse_db={r.nmse_db} rho={r.rho}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .evalharness import (ConfigError, check_checkpoint_geometry,
                              eval_estimation, eval_feedback, make_dataset,
                              uniform_budget_spec)
    from .model import FlowMatModel

    cfg = _load_config(args.config)
    model = FlowMatModel.load(args.checkpoint)
    check_checkpoint_geometry(model, cfg)
    if model.estimation:
        if args.budget is not None:
            raise ConfigError("--budget applies only to a feedback checkpoint")
        geom, channels, _, n_train = make_dataset(cfg)
        mdl_db, ls_db = eval_estimation(model, channels[n_train:], geom,
                                        cfg["snr_db_min"], seed=cfg["seed"] + 1)
        print(f"model_nmse_db={mdl_db} ls_nmse_db={ls_db}")
        return EXIT_OK
    quant = None
    if args.budget is not None:
        quant = uniform_budget_spec(model, args.budget)
        if quant is None:
            print("checkpoint lacks calibration for this budget",
                  file=sys.stderr)
            return EXIT_DATA
    _, _, eigens, n_train = make_dataset(cfg)
    print(f"rho={eval_feedback(model, eigens[n_train:], quantizer=quant)}")
    return EXIT_OK


def _cmd_analyze_corr(args) -> int:
    import numpy as np

    from .evalharness import analyze_corr

    cfg = _load_config(args.config)
    corr = analyze_corr(cfg, args.out)
    off = corr[~np.eye(corr.shape[0], dtype=bool)]
    print(f"wrote {corr.shape[0]}x{corr.shape[1]} correlation matrix to "
          f"{args.out}; mean off-diagonal {off.mean():.4f}")
    return EXIT_OK


def _cmd_report(args) -> int:
    path = Path(args.out_dir) / "results.csv"
    if not path.exists():
        print(f"no results.csv under {args.out_dir}", file=sys.stderr)
        return EXIT_DATA
    print(path.read_text(), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    from .evalharness import TASK_REGIMES

    parser = argparse.ArgumentParser(prog="flowmat")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a dataset container")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=["channel", "eigen", "pilot"],
                   default="channel")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="run gen -> train -> eval")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--task", choices=list(TASK_REGIMES))
    p.add_argument("--regime", choices=[r for regimes in TASK_REGIMES.values()
                                        for r in regimes])
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze-corr",
                       help="frequency-correlation matrix of one channel")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze_corr)

    p = sub.add_parser("report", help="print the results table of a run")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    from .dataio import FormatError
    from .evalharness import ConfigError
    from .linalg import ConvergenceError
    from .training import DivergenceError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"divergence abort: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ConvergenceError as exc:
        print(f"eigensolver error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
