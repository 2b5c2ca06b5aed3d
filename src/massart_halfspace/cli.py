"""Command-line front end: `massart-halfspace <command> --config <path>`.

The positional command selects what to run; the config file carries the
rest. A `command` key inside the config is allowed but must agree with
the positional one.
"""
from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .harness import (
    COMMANDS,
    EXIT_CONFIG,
    config_from_mapping,
    read_config,
    run,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="massart-halfspace",
        description="Halfspace learning and structural verification under bounded label noise.",
    )
    parser.add_argument("command", choices=COMMANDS, help="what to run")
    parser.add_argument("--config", required=True, help="path to a key=value or JSON config file")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, help="base seed (overrides the config)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        flat = read_config(args.config)
        declared = flat.get("command")
        if declared is not None and declared != args.command:
            raise ConfigError(
                f"config declares command {declared!r} but {args.command!r} was requested"
            )
        flat["command"] = args.command
        if args.out is not None:
            flat["out"] = args.out
        if args.seed is not None:
            flat["base_seed"] = args.seed
        return run(config_from_mapping(flat))  # run() refuses an output directory it cannot make
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
