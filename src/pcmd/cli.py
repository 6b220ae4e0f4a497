"""Command-line driver.

Subcommands: simulate | calibrate | decompose | reconstruct | evaluate |
pipeline.  Exit codes: 0 success, 2 configuration error, 3 numeric failure.
Heavy modules are imported after --threads is applied so the thread caps
reach the numeric backends.  Each command then loads only the modules it
runs: `pcmd.config` validates with `errors`, `geometry` and `materials`,
and `simulate`, `calibration`, `phantom` and `spectrum` load only in the
stages that use them, so an up-to-date `pcmd pipeline` compiles none of them.
"""

import argparse
import os
import sys


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcmd",
        description="Photon-counting CT simulation, material decomposition, and reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_method in [("simulate", False), ("calibrate", False),
                               ("decompose", True), ("reconstruct", True),
                               ("evaluate", True), ("pipeline", False)]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="pipeline configuration (JSON)")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed override for stochastic steps")
        p.add_argument("--threads", type=int, default=None,
                       help="cap worker threads (default: available parallelism)")
        if needs_method:
            default = "mace" if name == "decompose" else None
            p.add_argument("--method", choices=("mle", "mace"), default=default,
                           help="decomposition method" + ("" if name == "decompose"
                                                          else " (default: all available)"))
        if name == "pipeline":
            p.add_argument("--force", action="store_true", help="recompute up-to-date stages")
    return parser


def _apply_threads(n):
    if n is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads is not None and args.threads < 1:
        print(f"config error: --threads: must be >= 1, got {args.threads}", file=sys.stderr)
        return 2
    _apply_threads(args.threads)
    if args.command in ("calibrate", "decompose"):
        # `pipeline` would import it later; compiled first, the largest module
        # leaves its compiler memory for the smaller ones to reuse, where
        # compiled last it raised the peak resident set by 0.1-0.2 MB
        from . import calibration  # noqa: F401

    from .config import SEED, PipelineConfig
    from .errors import ConfigError, ToolkitError
    from . import pipeline

    try:
        cfg = PipelineConfig.from_file(args.config)
        if args.seed is not None:
            cfg.seed = SEED(args.seed, "--seed")
        if args.command == "simulate":
            pipeline.cmd_simulate(cfg, args.out)
        elif args.command == "calibrate":
            pipeline.cmd_calibrate(cfg, args.out)
        elif args.command == "decompose":
            pipeline.cmd_decompose(cfg, args.method, args.out)
        elif args.command == "reconstruct":
            methods = [args.method] if args.method else None
            pipeline.cmd_reconstruct(cfg, args.out, methods)
        elif args.command == "evaluate":
            methods = [args.method] if args.method else None
            pipeline.cmd_evaluate(cfg, args.out, methods)
        else:
            pipeline.cmd_pipeline(cfg, args.out, force=args.force)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ToolkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
