"""One fresh-interpreter pass over a workload's config files.

    python3 benchmark/worker.py <spec.json>

The spec names the config files, the mode ("setup" stops once they are
loaded and validated; "run" goes on to execute them through
`harness.run`, the path the CLI takes), whether to record spans, and
where to write the result JSON. The run records, for each `learn()` call,
the trial's target and chosen halfspace so the caller can check them.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# The learner streams its selection sample through slabs of this many
# points; the timed select_hypothesis call uses the same slab size.
SELECT_SLAB = 1 << 17
SELECT_REPEATS = 3


def _recording(learn, calls: list):
    def recording_learn(oracle, params, psgd_seed=0):
        try:
            report = learn(oracle, params, psgd_seed=psgd_seed)
        except Exception:
            calls.append(None)
            raise
        calls.append({
            "target": oracle.target.tolist(),
            "chosen": report.chosen.tolist(),
            "candidates": report.candidate_count,
            "selection_samples": report.schedule.selection_samples,
        })
        return report

    return recording_learn


def _time_selection(select_hypothesis, call: dict, seed: int) -> float:
    """ns per (point, candidate) pair of one select_hypothesis slab."""
    import numpy as np

    rng = np.random.default_rng(seed)
    dim, k = len(call["target"]), call["candidates"]
    slab = min(call["selection_samples"], SELECT_SLAB)
    cands = rng.standard_normal((k, dim))
    cands /= np.linalg.norm(cands, axis=1)[:, None]
    xs = rng.standard_normal((slab, dim))
    ys = np.where(rng.random(slab) < 0.5, -1.0, 1.0)
    times = []
    for _ in range(SELECT_REPEATS):
        t0 = time.perf_counter()
        select_hypothesis(cands, xs, ys, chunk=slab)
        times.append(time.perf_counter() - t0)
    return 1e9 * statistics.median(times) / (slab * k)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    t0 = time.perf_counter()
    import massart_halfspace as mh
    from massart_halfspace import harness

    t1 = time.perf_counter()
    configs = [harness.load_config(p) for p in spec["configs"]]
    t2 = time.perf_counter()
    result = {"import_s": t1 - t0, "config_s": t2 - t1}
    if spec["mode"] == "run":
        calls: list = []
        harness.learn = _recording(harness.learn, calls)
        run = harness.run
        tracer = None
        if spec["trace"]:
            from spans import Tracer, trace_points

            tracer = Tracer()
            tracer.install(trace_points(mh))
            run = tracer.wrap(run, "harness.run")
        codes = []
        t3 = time.perf_counter()
        for config in configs:
            codes.append(run(config))
        result["run_s"] = time.perf_counter() - t3
        result["exit_codes"] = codes
        result["calls"] = calls
        if tracer is not None:
            tracer.dump(spec["spans"])
            done = [c for c in calls if c is not None]
            if done:
                result["select_ns"] = _time_selection(mh.select_hypothesis, done[0], spec["seed"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
