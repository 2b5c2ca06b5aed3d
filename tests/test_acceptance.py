"""Acceptance suite: each test is one shipped guarantee, run end to end.

Every test prints a single verdict line (visible with -v through the
test name, and with -s through the explicit print) and enforces the
runtime budget that is part of the guarantee. The heavy tests drive the
real command runners on the fixture configs into pytest tmp dirs.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np

from massart_halfspace.distributions import (
    MarginalSampler,
    empirical_density_check,
    logconcave_profile,
)
from massart_halfspace.geometry import (
    error_lower_bound_from_angle,
    error_upper_bound_from_angle,
    sign_of,
)
from massart_halfspace.harness import (
    EXIT_OK,
    load_config,
    measure_disagreement,
    run,
)
from massart_halfspace.learner import excess_to_target_error
from massart_halfspace.noise import BOUNDED_NOISE_KINDS
from massart_halfspace.psgd import (
    PsgdConfig,
    psgd_run_batch,
    theoretical_iteration_count,
    theoretical_step_size,
)
from massart_halfspace.rng import make_rng
from massart_halfspace.surrogate import SurrogateSpec, per_sample_gradient, per_sample_loss
from massart_halfspace.verify import lemma_gradient_floor, lemma_sigma_cap

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ANGLE_GRID = (
    math.pi / 8,
    math.pi / 4,
    math.pi / 2,
    3 * math.pi / 4,
    7 * math.pi / 8,
)


def _verdict(number: int, name: str, elapsed: float, budget: float, detail: str = "") -> None:
    extra = f" | {detail}" if detail else ""
    timing = f"{elapsed:.1f}s < {budget:.0f}s" if math.isfinite(budget) else f"{elapsed:.1f}s"
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({timing}){extra}", flush=True)


def _run_fixture(name: str, out: Path) -> tuple[int, dict]:
    config = load_config(FIXTURES / name)
    config = dataclasses.replace(config, values={**config.values, "out": str(out)})
    code = run(config)
    summary = json.loads((out / "summary.json").read_text())
    return code, summary


def _read_rows(path: Path) -> tuple[list[str], list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    body = list(csv.reader(line for line in lines if not line.startswith("#")))
    return meta, body[0], body[1:]


# --------------------------------------------------------------------------
# 1. analytic gradient vs central finite differences


def test_criterion_01_gradient_correctness(tmp_path):
    budget = 5.0
    t0 = time.perf_counter()
    code, summary = _run_fixture("gradcheck_sigmoid.cfg", tmp_path)
    elapsed = time.perf_counter() - t0
    assert code == EXIT_OK
    assert summary["cases"] == 1000
    assert summary["failures"] == 0
    assert summary["max_rel_error"] <= 1e-5
    assert elapsed < budget
    _verdict(1, "gradient correctness", elapsed, budget,
             f"1000 cases, max rel err {summary['max_rel_error']:.2e}")


# --------------------------------------------------------------------------
# 2. scaling invariance of the loss; gradient orthogonal to w


def test_criterion_02_homogeneity_and_orthogonality():
    budget = 5.0
    t0 = time.perf_counter()
    rng = make_rng(2024, 0)
    worst_homogeneity = 0.0
    worst_orthogonality = 0.0
    for _ in range(10_000):
        dim = int(rng.integers(2, 21))
        sigma = float(rng.uniform(0.05, 1.0))
        kind = "sigmoid" if rng.random() < 0.5 else "ramp"
        spec = SurrogateSpec(kind=kind, sigma=sigma)
        w = rng.standard_normal(dim)
        x = rng.standard_normal(dim)
        y = 1.0 if rng.random() < 0.5 else -1.0
        base = per_sample_loss(w, x, y, spec)
        for scale in (0.5, 2.0, 10.0):
            deviation = abs(per_sample_loss(scale * w, x, y, spec) - base)
            worst_homogeneity = max(worst_homogeneity, deviation)
        gradient = per_sample_gradient(w, x, y, spec)
        norm = float(np.linalg.norm(gradient))
        if norm > 0.0:
            worst_orthogonality = max(worst_orthogonality, abs(float(gradient @ w)) / norm)
    elapsed = time.perf_counter() - t0
    assert worst_homogeneity <= 1e-12
    assert worst_orthogonality <= 1e-10
    assert elapsed < budget
    _verdict(2, "homogeneity and orthogonality", elapsed, budget,
             f"worst scale drift {worst_homogeneity:.1e}, worst cosine {worst_orthogonality:.1e}")


# --------------------------------------------------------------------------
# 3-5. structural gradient-norm floors on the uniform disk


def _check_floor_fixture(number: int, fixture: str, lemma: str, noise_param: float,
                         expected_floor: float, expected_strategies: set, out: Path) -> None:
    budget = 120.0
    t0 = time.perf_counter()
    code, summary = _run_fixture(fixture, out)
    elapsed = time.perf_counter() - t0
    assert code == EXIT_OK
    assert summary["failures"] == 0
    assert summary["aborts"] == 0
    _, header, rows = _read_rows(out / "verify.csv")
    assert {row[header.index("strategy")] for row in rows} == expected_strategies
    thetas = sorted({float(row[header.index("theta")]) for row in rows})
    assert np.allclose(thetas, ANGLE_GRID, rtol=0, atol=1e-15)
    config = load_config(FIXTURES / fixture)
    cap = lemma_sigma_cap(lemma, config.profile, noise_param, math.pi / 8)
    floor = lemma_gradient_floor(lemma, config.profile, noise_param)
    assert math.isclose(floor, expected_floor, rel_tol=1e-14, abs_tol=0.0)
    for row in rows:
        assert float(row[header.index("floor")]) == floor
        assert float(row[header.index("sigma")]) == cap
        assert float(row[header.index("stderr")]) <= expected_floor / 10.0
        assert int(row[header.index("samples")]) <= 10**7
        assert row[header.index("verdict")] == "pass"
    assert elapsed < budget
    _verdict(number, f"{lemma} gradient floor", elapsed, budget,
             f"{len(rows)} grid cells clear floor {expected_floor:.6f}")


def test_criterion_03_sigmoid_floor_massart(tmp_path):
    _check_floor_fixture(
        3, "verify_sigmoid_disk.cfg", "sigmoid", 0.3,
        0.0039788735772973835, set(BOUNDED_NOISE_KINDS), tmp_path,
    )


def test_criterion_04_ramp_floor_massart(tmp_path):
    _check_floor_fixture(
        4, "verify_ramp_disk.cfg", "ramp", 0.3,
        0.015915494309189534, set(BOUNDED_NOISE_KINDS), tmp_path,
    )


def test_criterion_05_sigmoid_floor_strong(tmp_path):
    _check_floor_fixture(
        5, "verify_strong_disk.cfg", "strong", 0.5,
        0.0011052426603603844, {"strong_massart_max"}, tmp_path,
    )


# --------------------------------------------------------------------------
# 6-7. end-to-end learning at reduced scale


def test_criterion_06_learn_massart_end_to_end(tmp_path):
    budget = 120.0
    t0 = time.perf_counter()
    code, summary = _run_fixture("learn_massart_gaussian.cfg", tmp_path)
    elapsed = time.perf_counter() - t0
    assert code == EXIT_OK
    assert summary["trials"] == 10
    assert summary["aborts"] == 0
    assert summary["passes"] >= 9
    assert elapsed < budget
    _verdict(6, "bounded-noise learning", elapsed, budget,
             f"{summary['passes']}/10 trials at eps 0.05, "
             f"median disagreement {summary['median_disagreement']:.4f}")


def test_criterion_07_learn_strong_end_to_end(tmp_path):
    budget = 120.0
    t0 = time.perf_counter()
    code, summary = _run_fixture("learn_strong_gaussian.cfg", tmp_path)
    elapsed = time.perf_counter() - t0
    assert code == EXIT_OK
    assert summary["trials"] == 10
    assert summary["aborts"] == 0
    assert summary["passes"] >= 9
    assert elapsed < budget
    _verdict(7, "strong-noise learning", elapsed, budget,
             f"{summary['passes']}/10 trials at excess eps 0.1, "
             f"median excess {summary['median_excess_error']:.4f}")


# --------------------------------------------------------------------------
# 8. projected SGD reaches a near-stationary iterate on a known objective


def test_criterion_08_psgd_stationarity_contract():
    # f(w) = 1 - <a, w/|w|>^2 on the sphere: gradient known in closed
    # form, curvature bounded by 2 along great circles, and the
    # stochastic oracle adds N(0, 0.25 I_5) so E|g|^2 <= 1 + 1.25 = 2.25.
    budget = 30.0
    dim, noise_scale, seeds = 5, 0.5, 100
    smoothness, second_moment, value_range, mean_grad_sq = 2.0, 2.25, 1.0, 1.0
    eps = delta = 0.1
    t0 = time.perf_counter()
    axis = np.zeros(dim)
    axis[0] = 1.0

    def true_gradient(w_rows: np.ndarray) -> np.ndarray:
        margins = w_rows @ axis
        return -2.0 * margins[:, None] * (axis[None, :] - margins[:, None] * w_rows)

    def oracle(w_rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return true_gradient(w_rows) + noise_scale * rng.standard_normal(w_rows.shape)

    steps = theoretical_iteration_count(
        smoothness=smoothness, grad_sq_bound=second_moment, value_range=value_range,
        mean_grad_sq_bound=mean_grad_sq, eps=eps, delta=delta,
    )
    step_size = theoretical_step_size(
        smoothness=smoothness, grad_sq_bound=second_moment,
        value_range=value_range, steps=steps,
    )
    starts = make_rng(424242, 0).standard_normal((seeds, dim))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    config = PsgdConfig(steps=steps, step_size=step_size, seed=8, record_every=1000)
    trajectory = psgd_run_batch(oracle, config, starts)
    flat = trajectory.iterates.reshape(-1, dim)
    norms = np.linalg.norm(true_gradient(flat), axis=1).reshape(trajectory.iterates.shape[:2])
    min_norms = norms.min(axis=0)
    passes = int(np.sum(min_norms <= eps))
    elapsed = time.perf_counter() - t0
    assert passes >= 95
    assert elapsed < budget
    _verdict(8, "stationarity contract", elapsed, budget,
             f"{passes}/100 seeds below gradient norm {eps} within {steps} steps")


# --------------------------------------------------------------------------
# 9. angle-to-error sandwich under a certified log-concave profile


def test_criterion_09_angle_error_sandwich():
    budget = 30.0
    dim, n = 8, 1_000_000
    t0 = time.perf_counter()
    profile = logconcave_profile()
    sampler = MarginalSampler(kind="standard_gaussian", dim=dim, seed=31)
    basis = (np.eye(dim)[0], np.eye(dim)[1])
    report = empirical_density_check(sampler.spawn(0), basis, profile, n=500_000)
    assert report.passed
    assert report.tail_passed
    for index, theta in enumerate((0.05, 0.1, 0.3)):
        hypothesis = np.zeros(dim)
        hypothesis[0] = 1.0
        target = np.zeros(dim)
        target[0] = math.cos(theta)
        target[1] = math.sin(theta)
        disagreement, stderr = measure_disagreement(
            hypothesis, target, sampler.spawn(index + 1), n
        )
        lower = error_lower_bound_from_angle(theta, profile)
        for eps in (0.1, 0.01):
            upper = error_upper_bound_from_angle(theta, eps, profile)
            assert lower - 3.0 * stderr <= disagreement <= upper + 3.0 * stderr
        assert abs(disagreement - theta / math.pi) <= 3.0 * stderr
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _verdict(9, "angle-error sandwich", elapsed, budget,
             "three angles match theta/pi within 3 stderr at n=1e6")


# --------------------------------------------------------------------------
# 10. excess error dominates (1 - 2 eta) times the disagreement


def test_criterion_10_excess_error_translation():
    budget = 5.0
    t0 = time.perf_counter()
    rng = make_rng(2025, 1)
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        xs = rng.standard_normal((20, dim))
        target = rng.standard_normal(dim)
        target /= np.linalg.norm(target)
        hypothesis = rng.standard_normal(dim)
        hypothesis /= np.linalg.norm(hypothesis)
        rates = rng.uniform(0.0, 0.49, size=20)
        rate_bound = float(rates.max())
        clean = sign_of(xs @ target)
        predicted = sign_of(xs @ hypothesis)
        disagree = predicted != clean
        # Brute force over the 20 points with explicit flip rates.
        opt = float(np.mean(rates))
        err = float(np.mean(np.where(disagree, 1.0 - rates, rates)))
        excess = err - opt
        disagreement = float(np.mean(disagree))
        assert excess >= (1.0 - 2.0 * rate_bound) * disagreement
        assert excess_to_target_error(excess, rate_bound) >= disagreement - 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _verdict(10, "excess-error translation", elapsed, budget,
             "inequality exact on 100 brute-forced instances")


# --------------------------------------------------------------------------
# 11. byte-identical reruns modulo wall-time columns


def _stable_csv_view(path: Path) -> list[list[str]]:
    """CSV contents with any timing columns blanked out."""
    meta, header, rows = _read_rows(path)
    timing = [i for i, name in enumerate(header) if name in ("wall_time_s", "ns_per_op")]
    view: list[list[str]] = [meta, header]
    for row in rows:
        view.append(["" if i in timing else cell for i, cell in enumerate(row)])
    return view


def test_criterion_11_reproducible_runs(tmp_path):
    fixtures = [
        "repro_massart_disk.cfg",
        "repro_strong_disk.cfg",
        "verify_sigmoid_disk.cfg",
        "verify_ramp_disk.cfg",
        "verify_strong_disk.cfg",
        "gradcheck_sigmoid.cfg",
        "bench_gaussian.cfg",
    ]
    t0 = time.perf_counter()
    for fixture in fixtures:
        first = tmp_path / fixture / "a"
        second = tmp_path / fixture / "b"
        code_a, _ = _run_fixture(fixture, first)
        code_b, _ = _run_fixture(fixture, second)
        assert code_a == code_b == EXIT_OK
        csvs_a = sorted(p.name for p in first.glob("*.csv"))
        csvs_b = sorted(p.name for p in second.glob("*.csv"))
        assert csvs_a == csvs_b and csvs_a
        for name in csvs_a:
            assert _stable_csv_view(first / name) == _stable_csv_view(second / name), (
                f"{fixture}: {name} differs between identical runs"
            )
    elapsed = time.perf_counter() - t0
    _verdict(11, "reproducible runs", elapsed, math.inf,
             f"{len(fixtures)} fixture configs byte-stable modulo timing columns")
