#!/usr/bin/env python3
"""Trace the gradient-norm-vs-angle curve for one surrogate and noise setup.

Runs the `verify` command at evenly spaced angles in (0, pi), so the
output directory holds its verify.csv (one row per angle: estimate,
stderr, floor, per-region masses) and summary.json. That is the raw
material for a loss-landscape plot: the estimate should stay above the
floor everywhere inside the (theta, pi - theta) window. Prints sigma, the
floor and the worst estimate - floor margin. Exits as the CLI does: 0
when every row passes, 1 on a config error, 2 otherwise.
"""
import argparse
import csv
import math
import sys
from pathlib import Path

from massart_halfspace.distributions import PROFILE_BUILDERS
from massart_halfspace.errors import ConfigError
from massart_halfspace.harness import EXIT_CONFIG, config_from_mapping, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--surrogate", choices=("ramp", "sigmoid"), default="sigmoid")
    parser.add_argument("--noise", default="constant",
                        choices=("none", "constant", "boundary_concentrated",
                                 "random_measurable", "strong_massart_max"))
    parser.add_argument("--eta", type=float, default=0.3, help="noise rate bound")
    parser.add_argument("--c", type=float, default=0.5, help="strong-noise slope")
    parser.add_argument("--band", type=float, default=0.5,
                        help="half-width for boundary_concentrated")
    parser.add_argument("--marginal", default="uniform_disk_2d")
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--profile", default="disk_exact", choices=sorted(PROFILE_BUILDERS))
    parser.add_argument("--points", type=int, default=15, help="angles per curve")
    parser.add_argument("--mc-samples", type=int, default=1 << 18)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="runs/angle_gap_curve", help="output directory")
    args = parser.parse_args(argv)

    angles = [math.pi * (i + 1) / (args.points + 1) for i in range(args.points)]
    flat = {
        "command": "verify",
        "base_seed": args.seed,
        "marginal.kind": args.marginal,
        "marginal.dim": args.dim,
        "profile": args.profile,
        "noise.kind": args.noise,
        "noise.eta_bound": args.eta,
        "noise.c_strong": args.c,
        "noise.band": args.band,
        "verify.surrogate": args.surrogate,
        "verify.angles": ",".join(map(repr, angles)),
        "verify.mc_samples": args.mc_samples,
        "out": args.out,
    }
    try:
        code = run(config_from_mapping(flat))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    path = Path(args.out, "verify.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    margins = [float(row["estimate"]) - float(row["floor"]) for row in rows]
    worst = math.nan if any(map(math.isnan, margins)) else min(margins)  # nan: an abort row
    print(f"{len(rows)} rows, sigma = {float(rows[0]['sigma']):.3g}, floor = {float(rows[0]['floor']):.3g}")
    print(f"worst estimate-floor margin: {worst:.3g}")
    print(f"wrote {path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
