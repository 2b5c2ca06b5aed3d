#!/usr/bin/env python3
"""Print the theoretical and practical schedules across a parameter grid.

Shows how iteration count, step size, smoothing, and selection sample
size move with the target error and the noise parameter, and why the
theoretical constants are unrunnable at desk scale.
"""
import argparse
import sys

from massart_halfspace import LearnParams, NoiseStrategy, schedule_for
from massart_halfspace.distributions import PROFILE_BUILDERS
from massart_halfspace.noise import MODEL_MASSART, MODEL_STRONG


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", choices=(MODEL_MASSART, MODEL_STRONG), default=MODEL_MASSART)
    parser.add_argument("--dim", type=int, default=10)
    parser.add_argument("--profile", default="disk_exact", choices=sorted(PROFILE_BUILDERS))
    parser.add_argument("--eps", type=float, nargs="+", default=[0.2, 0.1, 0.05])
    parser.add_argument("--noise-param", type=float, nargs="+", default=[0.1, 0.3, 0.45],
                        help="eta bounds (massart) or c slopes (strong_massart)")
    args = parser.parse_args(argv)

    profile = PROFILE_BUILDERS[args.profile]()
    print(f"{'mode':>11} {'eps':>6} {'param':>6} {'steps':>12} {'step_size':>12}"
          f" {'sigma':>12} {'selection':>10}")
    for mode in ("theoretical", "practical"):
        for eps in args.eps:
            for param in args.noise_param:
                if args.model == MODEL_MASSART:
                    noise = NoiseStrategy(kind="constant", eta_bound=param)
                else:
                    noise = NoiseStrategy(kind="strong_massart_max", c_strong=param)
                s = schedule_for(LearnParams(eps=eps, profile=profile, mode=mode), noise, dim=args.dim)
                print(f"{mode:>11} {eps:>6} {param:>6} {float(s.steps):>12.3e}"
                      f" {s.step_size:>12.3e} {s.sigma:>12.3e} {s.selection_samples:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
