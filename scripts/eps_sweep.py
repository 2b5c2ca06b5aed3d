#!/usr/bin/env python3
"""Sweep the target error and report disagreement per trial batch.

Runs the practical learner at several eps values against one noise
setup and prints a small table (median disagreement, pass counts), with
per-sweep CSVs left in the output directory. Exits as the CLI does: 0
when every sweep passes, 1 on a config error (before any sweep runs), 2
otherwise.
"""
import argparse
import json
import sys
from pathlib import Path

from massart_halfspace.errors import ConfigError
from massart_halfspace.harness import EXIT_CONFIG, config_from_mapping, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eps", type=float, nargs="+", default=[0.2, 0.1, 0.05])
    parser.add_argument("--dim", type=int, default=5)
    parser.add_argument("--noise", default="constant")
    parser.add_argument("--eta", type=float, default=0.3)
    parser.add_argument("--band", type=float, default=0.2)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--eval-samples", type=int, default=50000)
    parser.add_argument("--out", default="runs/eps_sweep")
    args = parser.parse_args(argv)

    flats = [{
        "command": "learn",
        "trials": args.trials,
        "base_seed": args.seed,
        "marginal.kind": "standard_gaussian",
        "marginal.dim": args.dim,
        "noise.kind": args.noise,
        "noise.eta_bound": args.eta,
        "noise.band": args.band,
        "learn.eps": eps,
        "eval.samples": args.eval_samples,
        "out": f"{args.out}/eps_{eps}",
    } for eps in args.eps]
    try:  # every config is checked before any sweep runs; run() refuses an out it cannot make
        configs = [config_from_mapping(flat) for flat in flats]
        worst_exit = 0
        print(f"{'eps':>6}  {'passes':>6}  {'median_disagreement':>20}")
        for eps, config in zip(args.eps, configs):
            worst_exit = max(worst_exit, run(config))
            summary = json.loads(Path(config.values["out"], "summary.json").read_text())
            print(f"{eps:>6}  {summary['passes']:>3}/{args.trials:<3}"
                  f"  {summary['median_disagreement']:>20.5f}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return worst_exit


if __name__ == "__main__":
    sys.exit(main())
