"""Tests of the benchmark's own checks and span arithmetic.

    python3 -m pytest -q benchmark

Each check must reject a wrong answer, and each closed form must agree
with a brute-force Monte-Carlo estimate of the same quantity.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from checks import (
    check_massart_trial,
    check_strong_trial,
    check_verify_row,
    exact_disagreement,
    massart_opt,
    strong_excess,
    strong_opt,
    verify_limit,
)
from spans import Tracer, layer_metrics, self_times

N_EVAL = 100_000
ETA, BAND, C = 0.4, 0.2, 0.5


def rotated(w: np.ndarray, theta: float, seed: int = 0) -> np.ndarray:
    """A unit vector at angle theta from the unit vector w."""
    z = np.random.default_rng(seed).standard_normal(w.shape[0])
    z -= (z @ w) * w
    z /= np.linalg.norm(z)
    return math.cos(theta) * w + math.sin(theta) * z


def learn_row(disagreement: float, opt: float, opt_se: float, **extra) -> dict:
    row = {
        "disagreement": disagreement,
        "disagreement_stderr": math.sqrt(disagreement * (1 - disagreement) / N_EVAL),
        "opt_estimate": opt, "opt_stderr": opt_se,
        "samples_used": 4463779, "steps": 1000000, "selection_samples": 3463779,
        "verdict": "pass",
    }
    row.update(extra)
    return {k: str(v) for k, v in row.items()}


def massart_case(theta: float, **extra):
    target = rotated(np.eye(10)[0], 0.7)
    chosen = rotated(target, theta, seed=1)
    row = learn_row(theta / math.pi, massart_opt(ETA, BAND), 4.6e-4, **extra)
    return row, target, chosen


def strong_case(theta: float, **extra):
    target = rotated(np.eye(5)[0], 0.7)
    chosen = rotated(target, theta, seed=1)
    exact = strong_excess(chosen, target, C)
    opt = strong_opt(C)
    row = learn_row(theta / math.pi, opt, 5.4e-4, noisy_error=opt + exact, excess_error=exact, **extra)
    return row, target, chosen


def test_massart_accepts_a_right_answer():
    assert check_massart_trial(*massart_case(0.02), 0.05, ETA, BAND, N_EVAL) == []


def test_massart_rejects_a_halfspace_rotated_past_eps():
    problems = check_massart_trial(*massart_case(0.06 * math.pi), 0.05, ETA, BAND, N_EVAL)
    assert any("exceeds eps" in p for p in problems)


def test_massart_rejects_a_disagreement_far_from_the_angle():
    row, target, chosen = massart_case(0.02)
    row["disagreement"] = str(float(row["disagreement"]) + 10 * float(row["disagreement_stderr"]))
    assert any(p.startswith("disagreement") for p in check_massart_trial(row, target, chosen, 0.05, ETA, BAND, N_EVAL))


@pytest.mark.parametrize("case, check, args", [
    (massart_case, check_massart_trial, (0.05, ETA, BAND, N_EVAL)),
    (strong_case, check_strong_trial, (0.1, C, N_EVAL)),
])
def test_learn_checks_reject_opt_shifted_by_ten_se(case, check, args):
    row, target, chosen = case(0.02)
    assert check(row, target, chosen, *args) == []
    row["opt_estimate"] = str(float(row["opt_estimate"]) + 10 * float(row["opt_stderr"]))
    assert any(p.startswith("opt_estimate") for p in check(row, target, chosen, *args))


@pytest.mark.parametrize("case, check, args", [
    (massart_case, check_massart_trial, (0.05, ETA, BAND, N_EVAL)),
    (strong_case, check_strong_trial, (0.1, C, N_EVAL)),
])
def test_learn_checks_reject_samples_used_off_by_one(case, check, args):
    row, target, chosen = case(0.02, samples_used=4463780)
    assert any(p.startswith("samples_used") for p in check(row, target, chosen, *args))


def test_learn_checks_reject_a_failed_verdict():
    row, target, chosen = massart_case(0.02, verdict="abort:PsgdDivergenceError")
    assert check_massart_trial(row, target, chosen, 0.05, ETA, BAND, N_EVAL) == ["verdict abort:PsgdDivergenceError"]


def test_strong_rejects_excess_past_eps():
    row, target, chosen = strong_case(0.9)
    assert strong_excess(chosen, target, C) > 0.1
    assert any("exceeds eps" in p for p in check_strong_trial(row, target, chosen, 0.1, C, N_EVAL))


# (strategy, sigma, stderr) as the three verify sweeps produce them.
VERIFY_ROWS = [
    ("none", 0.00481, 3.0e-4), ("constant", 0.00481, 1.2e-4),
    ("boundary_concentrated", 0.0193, 1.3e-3), ("random_measurable", 0.0193, 1.3e-3),
    ("strong_massart_max", 0.00254, 6.0e-5),
]


@pytest.mark.parametrize("strategy, sigma, stderr", VERIFY_ROWS)
@pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 2, 7 * math.pi / 8])
def test_verify_rejects_an_estimate_shifted_by_ten_se(strategy, sigma, stderr, theta):
    limit = verify_limit(strategy, theta, 0.3, 0.5, C)
    row = {"strategy": strategy, "theta": str(theta), "sigma": str(sigma),
           "stderr": str(stderr), "verdict": "pass"}
    for shift, ok in ((0.0, True), (2.0, True), (10.0, False), (-10.0, False)):
        row["estimate"] = str(limit + shift * stderr)
        assert (check_verify_row(row, 0.3, 0.5, C) == []) is ok, (shift, limit)


def gaussian(n: int, d: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, d))


def assert_close(exact: float, samples: np.ndarray, z: float = 5.0) -> None:
    est = float(samples.mean())
    se = float(samples.std(ddof=1)) / math.sqrt(samples.shape[0])
    assert abs(est - exact) <= z * se, (exact, est, se)


def test_disagreement_matches_monte_carlo():
    w = rotated(np.eye(10)[0], 0.3)
    h = rotated(w, 0.4, seed=2)
    xs = gaussian(400_000, 10, 3)
    assert_close(exact_disagreement(h, w), (np.sign(xs @ h) != np.sign(xs @ w)).astype(float))


def test_massart_opt_matches_monte_carlo():
    m = gaussian(1_000_000, 1, 4)[:, 0]
    assert math.isclose(massart_opt(ETA, BAND), 0.063408, abs_tol=5e-7)
    assert_close(massart_opt(ETA, BAND), np.where(np.abs(m) <= BAND, ETA, 0.0))


def test_strong_opt_matches_monte_carlo():
    m = gaussian(1_000_000, 1, 5)[:, 0]
    assert math.isclose(strong_opt(C), 0.184373, abs_tol=5e-7)
    assert_close(strong_opt(C), np.maximum(0.5 - C * np.abs(m), 0.0))


@pytest.mark.parametrize("theta", [0.05, 0.4, 1.2])
def test_strong_excess_matches_monte_carlo(theta):
    w = rotated(np.eye(5)[0], 0.3)
    h = rotated(w, theta, seed=6)
    xs = gaussian(1_000_000, 5, 7)
    mw = xs @ w
    weight = np.minimum(2 * C * np.abs(mw), 1.0) * (np.sign(xs @ h) != np.sign(mw))
    assert_close(strong_excess(h, w, C), weight)


@pytest.mark.parametrize("strategy", ["none", "constant", "boundary_concentrated",
                                      "random_measurable", "strong_massart_max"])
@pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 2, 3 * math.pi / 4])
def test_verify_limit_matches_monte_carlo(strategy, theta):
    """The limit against the in-plane gradient coefficient on a thin band.

    Uniform points on the radius-2 disk in the frame (m along w, u along
    b1); the target is (cos theta, sin theta). A band |m| <= h/2 divided
    by h stands in for the derivative's point mass at m = 0.
    """
    rng = np.random.default_rng(8)
    h, n = 0.02, 4_000_000
    m = rng.uniform(-h / 2, h / 2, n)
    u = rng.uniform(-2.0, 2.0, n)
    inside = m * m + u * u <= 4.0
    tm = math.cos(theta) * m + math.sin(theta) * u
    if strategy == "none":
        eta = np.zeros(n)
    elif strategy == "constant":
        eta = np.full(n, 0.3)
    elif strategy == "boundary_concentrated":
        eta = np.where(np.abs(tm) <= 0.5, 0.3, 0.0)
    elif strategy == "random_measurable":
        eta = 0.3 * rng.random(n)
    else:
        eta = np.maximum(0.5 - C * np.abs(tm), 0.0)
    # Band points are uniform on [-h/2, h/2] x [-2, 2]; the disk density is
    # 1/(4 pi), so each carries weight 4h / (4 pi) before dividing by h.
    values = np.where(inside, (1 - 2 * eta) * np.sign(tm) * u, 0.0) * (4.0 / (4.0 * math.pi))
    assert_close(verify_limit(strategy, theta, 0.3, 0.5, C), values)


def test_self_times_subtract_children():
    spans = [
        ["harness.run", 0.0, 10.0, -1, 0],
        ["learner.learn", 1.0, 9.0, 0, 0],
        ["psgd.psgd_run", 1.0, 6.0, 1, 100],
        ["noise.draw", 2.0, 3.0, 2, 50],
        ["noise.draw", 6.5, 7.0, 1, 50],
        ["noise.draw", 9.5, 9.75, 0, 10],
    ]
    assert self_times(spans) == [1.75, 2.5, 4.0, 1.0, 0.5, 0.25]
    layers = layer_metrics(spans)
    assert layers["psgd.step_ns"] == pytest.approx(4.0e9 / 100)
    assert layers["learner.self_s"] == pytest.approx(2.5)
    assert layers["noise.examples"] == 110
    assert layers["harness.eval_s"] == pytest.approx(0.25)
    assert layers["trace.unattributed_pct"] == pytest.approx(17.5)
    assert layers["verify.samples"] == 0 and layers["verify.sample_ns"] == 0.0


def test_tracer_records_nesting_and_counts():
    class Box:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n

    tracer = Tracer()
    tracer.install([(Box, "outer", "outer", None), (Box, "inner", lambda a: f"inner{a[1]}", lambda a, k, r: r)])
    assert Box().outer(3) == 4
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, 0), ("inner3", 0, 3)]
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_printed_metrics_match_benchmark_json():
    import json
    from pathlib import Path

    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    derived = set(layer_metrics([])) | {"learner.select_ns", "learner.select_pairs", "harness.import_s",
                                       "harness.config_s", "trace.overhead_s"}
    assert derived == set(run.per_layer_units())
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mb"}
