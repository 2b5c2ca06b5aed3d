"""The repository benchmark: three workloads, timed end to end and per layer.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark writes config files made
from the workload seed, runs them in fresh interpreters through
`harness.run` (benchmark/worker.py), checks every trial and verify row
against values computed apart from the program (benchmark/checks.py), and
prints one JSON object as the last line of standard output.

With --trace 0 it reports the end-to-end metrics: setup_s (median of
several fresh-interpreter set-ups), run_s and peak_rss_mb (medians over
the rounds that fit in --seconds; every round runs the same configs, and
at least one runs). With --trace 1 it runs one untraced and one traced
round and reports the per-layer metrics derived from the traced round's
spans, plus the tracing overhead. A round still running at the deadline
(--seconds plus GRACE_S after the start) is killed and its operations
count as failed. See benchmark/README.md.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import check_massart_trial, check_strong_trial, check_verify_row
from spans import layer_metrics

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
PACKAGE = ROOT / "src" / "massart_halfspace" / "__init__.py"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5
# Time allowed beyond --seconds for the set-up spawns, a last round that
# overruns its estimate, and the traced round; 40 + 130 s keeps a run of
# the configured length under three minutes.
GRACE_S = 130.0

# The verify fixtures' angle grid: pi/8, pi/4, pi/2, 3pi/4, 7pi/8.
ANGLES = "0.39269908169872414,0.7853981633974483,1.5707963267948966,2.356194490192345,2.748893571891069"
BOUNDED = "none,constant,boundary_concentrated,random_measurable"

# Each learn workload runs several trials of its fixture's problem, so that
# a change batching trials together has something to batch; min_pass is the
# trial count, so the exit code is 0 exactly when every trial passes. The
# trial counts make a round of each take 25-30 s on a 2-core machine.
LEARN_MASSART = {
    "command": "learn", "trials": 2,
    "marginal.kind": "standard_gaussian", "marginal.dim": 10,
    "noise.kind": "boundary_concentrated", "noise.eta_bound": 0.4, "noise.band": 0.2,
    "learn.model": "massart", "learn.mode": "practical", "learn.eps": 0.05, "learn.delta": 0.1,
    "eval.samples": 100000, "eval.min_pass": 2,
}
LEARN_STRONG = {
    "command": "learn", "trials": 3,
    "marginal.kind": "standard_gaussian", "marginal.dim": 5,
    "noise.kind": "strong_massart_max", "noise.c_strong": 0.5,
    "learn.model": "strong_massart", "learn.mode": "practical", "learn.eps": 0.1, "learn.delta": 0.1,
    "eval.samples": 100000, "eval.min_pass": 3,
}
_VERIFY_DISK = {
    "command": "verify", "marginal.kind": "uniform_disk_2d", "marginal.dim": 2,
    "verify.sigma": "cap", "verify.angles": ANGLES,
    "verify.mc_samples": 262144, "verify.confidence_sigmas": 3,
}
VERIFY_SIGMOID = {**_VERIFY_DISK, "noise.kind": "constant", "noise.eta_bound": 0.3, "noise.band": 0.5,
                  "verify.surrogate": "sigmoid", "verify.strategies": BOUNDED}
VERIFY_RAMP = {**VERIFY_SIGMOID, "verify.surrogate": "ramp"}
VERIFY_STRONG = {**_VERIFY_DISK, "noise.kind": "strong_massart_max", "noise.c_strong": 0.5,
                 "verify.surrogate": "sigmoid", "verify.strategies": "strong_massart_max"}

# Workload -> [(config name, fixed keys, offset added to the seed for base_seed)].
WORKLOADS = {
    "learn-massart": [("learn_massart", LEARN_MASSART, 0)],
    "learn-strong": [("learn_strong", LEARN_STRONG, 0)],
    "verify-disk": [("verify_sigmoid", VERIFY_SIGMOID, 0), ("verify_ramp", VERIFY_RAMP, 1),
                    ("verify_strong", VERIFY_STRONG, 2)],
}


def log(msg: str) -> None:
    print(f"[bench] {msg}", file=sys.stderr, flush=True)


def write_configs(workload: str, seed: int, root: Path) -> list[tuple[Path, dict]]:
    """The workload's config files for one round, each with its own output directory."""
    made = []
    for name, keys, offset in WORKLOADS[workload]:
        flat = {**keys, "base_seed": (seed + offset) % 2**64, "out": str((root / name).relative_to(ROOT))}
        path = root / f"{name}.cfg"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(f"{k} = {v}\n" for k, v in flat.items()))
        made.append((path, flat))
    return made


class RoundTimeout(Exception):
    """A worker was killed at the deadline."""

    def __init__(self, wall: float, rss: float):
        super().__init__(f"worker killed at the deadline after {wall:.1f} s")
        self.wall, self.rss = wall, rss


class Spawner:
    """Runs the worker in fresh interpreters, all within one deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.count = 0

    def __call__(self, spec: dict) -> tuple[dict, float, float]:
        """(worker result, wall seconds from spawn to exit, peak RSS in MB)."""
        self.count += 1
        spec_path = OUT / f"spec{self.count}.json"
        result_path = OUT / f"result{self.count}.json"
        spec_path.write_text(json.dumps({**spec, "result": str(result_path)}))
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(spec_path)],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=sys.stderr,
        )
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        killer = threading.Timer(max(self.deadline - t0, 0.0), kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: take the worker down too
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        rss = usage.ru_maxrss / 1024.0
        if killed.is_set():
            raise RoundTimeout(wall, rss)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode} (spec {spec_path})")
        return json.loads(result_path.read_text()), wall, rss


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _learn_problems(row: dict, call: dict | None, flat: dict) -> list[str]:
    if call is None:
        return [f"no learn() result ({row['verdict']})"]
    if flat["learn.model"] == "massart":
        return check_massart_trial(row, call["target"], call["chosen"], flat["learn.eps"],
                                   flat["noise.eta_bound"], flat["noise.band"], flat["eval.samples"])
    return check_strong_trial(row, call["target"], call["chosen"], flat["learn.eps"],
                              flat["noise.c_strong"], flat["eval.samples"])


def expected_operations(flat: dict) -> int:
    """Trials of a learn config, rows (strategies x angles) of a verify one."""
    if flat["command"] == "learn":
        return flat["trials"]
    return len(flat["verify.strategies"].split(",")) * len(flat["verify.angles"].split(","))


def _verify_problems(row: dict, flat: dict) -> list[str]:
    if row["verdict"].startswith("abort"):
        return [row["verdict"]]
    return check_verify_row(row, flat.get("noise.eta_bound", 0.0), flat.get("noise.band", 0.0),
                            flat.get("noise.c_strong", 1.0))


def check_round(configs: list[tuple[Path, dict]], result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, inconsistencies) for one round's outputs.

    A trial or verify row that aborts, misses its gate or fails a check
    is a failed operation. Inconsistencies (extra rows, a summary or exit
    code that disagrees with the rows) make the run incorrect.
    """
    attempted = failed = 0
    wrong = []
    calls = iter(result["calls"])
    for (path, flat), code in zip(configs, result["exit_codes"]):
        out = ROOT / flat["out"]
        expected = expected_operations(flat)
        if flat["command"] == "learn":
            rows = _csv_rows(out / "learn.csv")
            problems = [_learn_problems(row, next(calls, None), flat) for row in rows]
        else:
            rows = _csv_rows(out / "verify.csv")
            problems = [_verify_problems(row, flat) for row in rows]
        for row, found in zip(rows, problems):
            where = f"trial {row['trial']}" if "trial" in row else f"{row['strategy']} theta={row['theta']}"
            for p in found:
                log(f"{path.name} {where}: {p}")
        good = sum(not found for found in problems)
        attempted += expected
        failed += expected - min(good, expected)
        # An aborted verify strategy leaves one row for its whole angle grid,
        # and learn configs set min_pass to the trial count, so for both
        # commands the exit code is 0 exactly when every expected row passes.
        passes = sum(row["verdict"] == "pass" for row in rows)
        want_code = 0 if passes >= expected else 2
        summary = json.loads((out / "summary.json").read_text())
        if len(rows) > expected or summary["passes"] != passes or code != want_code:
            wrong.append(f"{path.name}: {len(rows)} rows ({passes} pass, {expected} expected), "
                         f"summary passes {summary['passes']}, exit code {code}")
    return attempted, failed, wrong


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, as BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PACKAGE.is_file():
        log(f"no program to measure: {PACKAGE.relative_to(ROOT)} is missing")
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.perf_counter()
    spawn = Spawner(start + args.seconds + GRACE_S)
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    OUT.mkdir(parents=True, exist_ok=True)

    setup_configs = write_configs(args.workload, args.seed, work / "setup")
    setup_spec = {"mode": "setup", "configs": [str(p) for p, _ in setup_configs]}
    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        spawn(setup_spec)  # warm the file cache and bytecode before timing
        walls = [spawn(setup_spec)[1] for _ in range(SETUP_REPEATS)]
        metrics["setup_s"] = (statistics.median(walls), "s")

    attempted = failed = 0
    inconsistencies: list[str] = []
    rounds = []
    timed_out = False
    measuring = time.perf_counter()
    while True:
        k = len(rounds)
        traced = bool(args.trace) and k == 1
        configs = write_configs(args.workload, args.seed, work / f"round{k}")
        spec = {"mode": "run", "configs": [str(p) for p, _ in configs], "trace": traced,
                "spans": str(work / "spans.json"), "seed": args.seed}
        try:
            result, round_s, rss = spawn(spec)
        except RoundTimeout as timeout:
            ops = sum(expected_operations(flat) for _, flat in configs)
            attempted, failed = attempted + ops, failed + ops
            log(f"{args.workload} round {k}: {timeout}; its {ops} operations count as failed")
            if not rounds:  # the killed round's wall time is a lower bound on its run_s
                rounds.append(({"run_s": timeout.wall}, timeout.rss))
            timed_out = True
            break
        a, f, wrong = check_round(configs, result)
        attempted, failed = attempted + a, failed + f
        inconsistencies += wrong
        rounds.append((result, rss))
        log(f"{args.workload} round {k}{' (traced)' if traced else ''}: run_s {result['run_s']:.3f}, "
            f"peak {rss:.1f} MB, {a - f}/{a} operations pass")
        if args.trace:
            if k == 1:
                break
        elif time.perf_counter() - measuring + round_s > args.seconds:
            break  # the next round would not end within --seconds

    if args.trace and not timed_out:  # a killed round leaves no per-layer figures
        plain, (traced_result, _) = rounds[0][0], rounds[1]
        spans = json.loads((work / "spans.json").read_text())
        layers = layer_metrics(spans)
        layers["learner.select_ns"] = traced_result.get("select_ns", 0.0)
        layers["learner.select_pairs"] = sum(
            c["candidates"] * c["selection_samples"] for c in traced_result["calls"] if c)
        layers["harness.import_s"] = traced_result["import_s"]
        layers["harness.config_s"] = traced_result["config_s"]
        layers["trace.overhead_s"] = traced_result["run_s"] - plain["run_s"]
        units = per_layer_units()
        for name, value in layers.items():
            metrics[name] = (value, units[name])
    elif not args.trace:
        metrics["run_s"] = (statistics.median(r["run_s"] for r, _ in rounds), "s")
        metrics["peak_rss_mb"] = (statistics.median(rss for _, rss in rounds), "MB")

    for msg in inconsistencies:
        log(f"inconsistent output: {msg}")
    print(json.dumps({
        "correct": not inconsistencies,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not inconsistencies else 1


if __name__ == "__main__":
    sys.exit(main())
