#!/usr/bin/env python3
"""Trace the gradient-norm-vs-angle curve for one surrogate and noise setup.

Writes a CSV with one row per angle (estimate, stderr, floor, per-region
masses), the raw material for a loss-landscape plot: the estimate should
stay above the floor everywhere inside the (theta, pi - theta) window.
"""
import argparse
import csv
import math
import sys

import numpy as np

from massart_halfspace import (
    MarginalSampler,
    NoiseStrategy,
    StructuralCheckConfig,
    SurrogateSpec,
    make_rng,
    verify_lemma,
    verify_stationary_gap,
)
from massart_halfspace.distributions import PROFILE_BUILDERS


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
    parser.add_argument("--out", default="angle_gap_curve.csv")
    args = parser.parse_args(argv)

    profile = PROFILE_BUILDERS[args.profile]()
    angles = [math.pi * (i + 1) / (args.points + 1) for i in range(args.points)]
    noise = NoiseStrategy(kind=args.noise, eta_bound=args.eta, c_strong=args.c, band=args.band)
    sigma = verify_lemma(args.surrogate, noise, profile, angles)[2]

    config = StructuralCheckConfig(
        surrogate=SurrogateSpec(kind=args.surrogate, sigma=sigma),
        noise=noise,
        marginal=MarginalSampler(kind=args.marginal, dim=args.dim),
        profile=profile,
        angles=tuple(angles),
        mc_samples=args.mc_samples,
        seed=args.seed,
    )
    rng = make_rng(args.seed, 99)
    target = rng.standard_normal(args.dim)
    target /= np.linalg.norm(target)
    report = verify_stationary_gap(config, target)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "estimate", "stderr", "floor",
                         "good_mass", "bad_mass", "verdict"])
        for res in report.results:
            writer.writerow([res.theta, res.estimate, res.stderr, res.floor,
                             res.good_mass, res.bad_mass, res.verdict])
    worst = min(res.estimate - res.floor for res in report.results)
    print(f"{len(report.results)} angles, sigma = {sigma:.3g}, floor = {report.floor:.3g}")
    print(f"worst estimate-floor margin: {worst:.3g}")
    print(f"wrote {args.out}")
    return 0 if report.all_pass() else 2


if __name__ == "__main__":
    sys.exit(main())
