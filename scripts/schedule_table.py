#!/usr/bin/env python3
"""Print the theoretical and practical schedules across a parameter grid.

Shows how iteration count, step size, smoothing, and selection sample
size move with the target error and the noise parameter, and why the
theoretical constants are unrunnable at desk scale.
"""
import argparse
import sys

from massart_halfspace import LearnParams, schedule_for
from massart_halfspace.distributions import PROFILE_BUILDERS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", choices=("massart", "strong_massart"), default="massart")
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
                kwargs = {"eta_bound": param} if args.model == "massart" else {"c_strong": param}
                params = LearnParams(model=args.model, eps=eps, profile=profile,
                                     mode=mode, **kwargs)
                s = schedule_for(params, dim=args.dim)
                print(f"{mode:>11} {eps:>6} {param:>6} {float(s.steps):>12.3e}"
                      f" {s.step_size:>12.3e} {s.sigma:>12.3e} {s.selection_samples:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
