"""Command-line entry point.

    falsikit run --config <path> [--seed-override S]
                 [--stage simulate|falsify|predict|all]
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .dynamics import SimulationDivergedError
from .pipeline import STAGES, ConfigError, emit_report, parse_config, run_pipeline
from .priors import SamplingError


def _seed(text: str) -> int:
    """A master seed: an integer >= 0, as numpy's SeedSequence takes."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="falsikit",
        description="Falsify candidate structural models against measured "
                    "responses and predict with the unfalsified set.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute the simulate/falsify/predict pipeline")
    run.add_argument("--config", required=True, help="path to the run configuration file")
    run.add_argument("--seed-override", type=_seed, default=None,
                     help="replace the configured master seed")
    run.add_argument("--stage", choices=STAGES, default="all",
                     help="run up to this stage, reusing earlier artifacts (default all)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        if args.seed_override is not None:
            ensemble = dataclasses.replace(config.ensemble, master_seed=args.seed_override)
            config = dataclasses.replace(config, ensemble=ensemble)
        manifest = run_pipeline(config, stage=args.stage)
    except (ConfigError, ValueError, OSError, SamplingError, SimulationDivergedError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    report_path = emit_report(manifest, config.output_dir)
    print(report_path.read_text(), end="")
    print(f"\nartifacts written to {config.output_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
