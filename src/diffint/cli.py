"""Command-line entry point.

Subcommands are the experiment kinds of :data:`diffint.harness.KINDS`
(the keys of its runner registry: ``sample``, ``convergence``,
``study``, ``marginal``, ``trace``, ``loglik``).  Every subcommand
takes ``--config <path>`` (a JSON document, see :mod:`diffint.harness`);
``--seed``, ``--out`` and ``--format`` override the corresponding config
fields.

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical
failures (quadrature, divergence, oracle trust).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, DiffintError
from .harness import KINDS, ExperimentConfig, run_experiment


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override config output path")
    parser.add_argument(
        "--format", choices=("csv", "json"), default=None, help="override report format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffint", description="diffusion-sampler experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in KINDS:
        _add_common(sub.add_parser(name, help=f"run a {name} experiment"))
    return parser


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out = args.out
    if args.format is not None:
        config.format = args.format
    config.validate()
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if config.kind != args.command:
            raise ConfigError(
                f"config kind {config.kind!r} does not match subcommand {args.command!r}"
            )
        report = run_experiment(config)
        rendered = report.render(config.format)
        if config.out is None:
            sys.stdout.write(rendered)
        else:
            with open(config.out, "w") as fh:
                fh.write(rendered)
            print(config.out)
        return 0
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DiffintError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
