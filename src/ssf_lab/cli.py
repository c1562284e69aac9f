"""Command line front end: ``ssf-lab <subcommand> --config path.json``.

Subcommands map onto experiment kinds (check-mh, check-escape, coeffs,
trace, ssf, sweep); the config's ``experiment`` field must agree with the
subcommand.  Exit codes: 0 when every verdict passes or completes, 2 when a
verdict fails, 1 on configuration or runtime errors.
"""
from __future__ import annotations

import argparse
import json
import sys

from .harness import EXPERIMENTS, ConfigError, ExperimentConfig, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssf-lab",
        description="Desk-scale checks of semiclassical spectral-shift asymptotics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run a '{name}' experiment config")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = ExperimentConfig.from_dict(doc)
        if cfg.experiment != args.command:
            raise ConfigError(
                f"config experiment {cfg.experiment!r} does not match subcommand {args.command!r}"
            )
        result = run(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # resource caps, margin violations, ...
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for key, verdict in result.report["verdicts"].items():
        print(f"{key}: {verdict}")
    print(f"report: {result.report_path}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
