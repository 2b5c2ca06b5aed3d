"""Spans around calls into the program's modules, recorded from outside.

`Tracer.install` swaps each traced function for a wrapper that records a
span (name, start, end, parent, count) and calls the original. Spans live
in memory until `Tracer.dump`. `layer_metrics` turns a span list into the
per-layer figures; a layer's self time is its spans' duration minus the
part their child spans cover.

The wrappers replace names where the program looks them up (a module
global, or a class attribute for methods), so the program itself is not
edited.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, count]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, count=None):
        """fn wrapped in a span. name may be a function of the call's
        arguments; count(args, kwargs, result) gives the span's work count."""
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                tracer.spans[idx][4] = int(count(args, kwargs, result))
            return result

        return traced

    def install(self, points) -> None:
        """Wrap every (owner, attribute, name, count) in points."""
        for owner, attr, name, count in points:
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _rows(args, kwargs, result):
    return len(args[2])


def _n_arg(args, kwargs, result):
    return args[1]


def _rates_name(args):
    return "noise.hash" if args[0].kind == "random_measurable" else "noise.rates"


def trace_points(mh) -> list[tuple]:
    """Where the benchmark records spans, given the imported package."""
    harness, learner, noise, verify, dists = mh.harness, mh.learner, mh.noise, mh.verify, mh.distributions
    return [
        (harness, "learn", "learner.learn", None),
        (learner, "psgd_run", "psgd.psgd_run", lambda a, k, r: a[1].steps),
        (noise.MassartOracle, "draw", "noise.draw", _n_arg),
        (noise.MassartOracle, "opt_error", "noise.opt_error", _n_arg),
        (noise, "noise_rates", _rates_name, _rows),
        (verify, "noise_rates", _rates_name, _rows),
        (dists.MarginalSampler, "sample", "distributions.sample", _n_arg),
        (dists.PlaneDensity, "sample_marginal", "distributions.plane", None),
        (dists.PlaneDensity, "conditional_inverse_cdf", "distributions.plane", None),
        (verify, "surrogate_derivative", "surrogate.derivative", lambda a, k, r: len(a[1])),
        (harness, "verify_stationary_gap", "verify.verify_stationary_gap",
         lambda a, k, r: sum(res.samples for res in r.results)),
        (harness, "measure_disagreement", "harness.measure_disagreement", lambda a, k, r: a[3]),
    ]


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _under(spans: list[list], idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _per(total_s: float, count: int) -> float:
    return 1e9 * total_s / count if count else 0.0


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer figures of one traced round; a layer it did not reach reads 0."""
    own = self_times(spans)
    self_s = defaultdict(float)
    dur_s = defaultdict(float)
    count = defaultdict(int)
    for span, t in zip(spans, own):
        self_s[span[0]] += t
        dur_s[span[0]] += span[2] - span[1]
        count[span[0]] += span[4]
    eval_draw = sum(
        s[2] - s[1] for i, s in enumerate(spans)
        if s[0] == "noise.draw" and not _under(spans, i, "learner.learn")
    )
    samples = count["verify.verify_stationary_gap"]
    run_s = dur_s["harness.run"]
    return {
        "psgd.step_ns": _per(self_s["psgd.psgd_run"], count["psgd.psgd_run"]),
        "psgd.steps": count["psgd.psgd_run"],
        "learner.self_s": self_s["learner.learn"],
        "noise.draw_ns": _per(self_s["noise.draw"], count["noise.draw"]),
        "noise.examples": count["noise.draw"],
        "noise.hash_ns": _per(self_s["noise.hash"], count["noise.hash"]),
        "noise.rates_ns": _per(self_s["noise.rates"], count["noise.rates"]),
        "distributions.sample_ns": _per(self_s["distributions.sample"], count["distributions.sample"]),
        "distributions.plane_ns": _per(self_s["distributions.plane"], samples),
        "surrogate.derivative_ns": _per(self_s["surrogate.derivative"], count["surrogate.derivative"]),
        "verify.sample_ns": _per(self_s["verify.verify_stationary_gap"], samples),
        "verify.samples": samples,
        "harness.eval_s": dur_s["harness.measure_disagreement"] + eval_draw + dur_s["noise.opt_error"],
        "trace.run_s": run_s,
        "trace.unattributed_pct": 100.0 * self_s["harness.run"] / run_s if run_s else 0.0,
    }
