"""Independent answers the benchmark holds the program's outputs to.

Nothing here imports the program. Every expected value is a closed form
or a quadrature derived from the problem itself (the marginal, the noise
rate function and the returned halfspace), never a stored copy of an
earlier run. Each `check_*` function returns a list of problems; an
empty list means the trial or row is right.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import integrate

# How many standard errors a Monte-Carlo figure may sit from its exact
# value. A benchmark run checks a few hundred figures per seed over many
# seeds, so the bound is set where a false alarm stays below about one in a
# thousand over all of them: 5 for the learn figures (binomial, 1e5 samples,
# close to normal) and 6 for verify estimates, whose stderr comes from as few
# as 16 chunk means and so has Student-t (15 degrees of freedom) tails.
Z_LEARN = 5.0
Z_VERIFY = 6.0

DISK_RADIUS = 2.0


def _phi_cdf(t: float) -> float:
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def _phi_pdf(t: float) -> float:
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def angle(h: np.ndarray, w: np.ndarray) -> float:
    """Angle between two vectors, in [0, pi]."""
    h = np.asarray(h, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    cos = float(h @ w) / math.sqrt(float(h @ h) * float(w @ w))
    return math.acos(min(1.0, max(-1.0, cos)))


def exact_disagreement(h: np.ndarray, w: np.ndarray) -> float:
    """Pr[sign<h,x> != sign<w,x>] under any rotationally symmetric marginal."""
    return angle(h, w) / math.pi


def massart_opt(eta: float, band: float) -> float:
    """E[eta(x)] for boundary_concentrated noise under N(0, I)."""
    return eta * (2.0 * _phi_cdf(band) - 1.0)


def strong_opt(c: float) -> float:
    """E[max(1/2 - c|<w*,x>|, 0)] under N(0, I): (Phi(a) - 1/2) - 2c(phi(0) - phi(a)), a = 1/(2c)."""
    a = 1.0 / (2.0 * c)
    return (_phi_cdf(a) - 0.5) - 2.0 * c * (_phi_pdf(0.0) - _phi_pdf(a))


def _radial_weight(slope: float) -> float:
    """Integral over r >= 0 of min(slope * r, 1) * r * exp(-r^2/2)."""
    if slope <= 0.0:
        return 0.0
    r_star = 1.0 / slope
    head = slope * (math.sqrt(2.0 * math.pi) * (_phi_cdf(r_star) - 0.5) - r_star * math.exp(-0.5 * r_star**2))
    return head + math.exp(-0.5 * r_star**2)


def strong_excess(h: np.ndarray, w: np.ndarray, c: float) -> float:
    """E[min(2c|<w,x>|, 1) 1{sign<h,x> != sign<w,x>}] under N(0, I).

    In the plane of h and w the disagreement region is two opposite
    wedges of angle theta; inside one, at angle psi from the boundary of
    w, |<w,x>| = r sin psi. Each wedge carries (1/2pi) of the radial
    integral per unit angle.
    """
    theta = angle(h, w)
    if theta == 0.0:
        return 0.0
    val, _ = integrate.quad(lambda psi: _radial_weight(2.0 * c * math.sin(psi)), 0.0, theta)
    return val / math.pi


def verify_limit(kind: str, theta: float, eta: float, band: float, c: float) -> float:
    """sigma -> 0 limit of the verify estimate on the uniform radius-2 disk.

    (1/4pi) * integral over u in [-2, 2] of |u| (1 - 2 eta(u b1)), where
    b1 is the in-plane direction orthogonal to w with <w*, b1> = sin theta.
    """
    s = math.sin(theta)
    r = DISK_RADIUS
    if kind == "none":
        return r * r / (4.0 * math.pi)
    if kind == "constant":
        return (1.0 - 2.0 * eta) * r * r / (4.0 * math.pi)
    if kind == "random_measurable":  # eta(x) = eta * U with U uniform on [0, 1)
        return (1.0 - eta) * r * r / (4.0 * math.pi)
    if kind == "boundary_concentrated":
        edge = min(r, band / s)
        return (r * r - 2.0 * eta * edge * edge) / (4.0 * math.pi)
    if kind == "strong_massart_max":
        slope = 2.0 * c * s
        knee = min(r, 1.0 / slope)
        val, _ = integrate.quad(lambda u: u * min(slope * u, 1.0), 0.0, r, points=[knee])
        return val / (2.0 * math.pi)
    raise ValueError(f"no verify limit for strategy {kind!r}")


def _f(row: dict, key: str) -> float:
    return float(row[key])


def _common_learn(row: dict) -> list[str]:
    problems = []
    if row["verdict"] != "pass":
        problems.append(f"verdict {row['verdict']}")
    used, steps, sel = int(row["samples_used"]), int(row["steps"]), int(row["selection_samples"])
    if used != steps + sel:
        problems.append(f"samples_used {used} != steps {steps} + selection_samples {sel}")
    return problems


def _near(name: str, got: float, want: float, se: float) -> list[str]:
    if not (math.isfinite(got) and abs(got - want) <= Z_LEARN * se):
        return [f"{name} {got!r} is not within {Z_LEARN} x {se:.3g} of {want:.6g}"]
    return []


def check_massart_trial(row: dict, target, chosen, eps: float, eta: float, band: float,
                        eval_samples: int) -> list[str]:
    """One learn.csv row of the bounded-noise workload against its exact values."""
    problems = _common_learn(row)
    exact = exact_disagreement(chosen, target)
    if exact > eps:
        problems.append(f"exact disagreement {exact:.6g} exceeds eps {eps}")
    se = max(_f(row, "disagreement_stderr"), math.sqrt(exact * (1.0 - exact) / eval_samples))
    problems += _near("disagreement", _f(row, "disagreement"), exact, se)
    problems += _near("opt_estimate", _f(row, "opt_estimate"), massart_opt(eta, band), _f(row, "opt_stderr"))
    return problems


def check_strong_trial(row: dict, target, chosen, eps: float, c: float,
                       eval_samples: int) -> list[str]:
    """One learn.csv row of the strong-noise workload against its exact values."""
    problems = _common_learn(row)
    exact = strong_excess(chosen, target, c)
    if exact > eps:
        problems.append(f"exact excess error {exact:.6g} exceeds eps {eps}")
    opt_se = _f(row, "opt_stderr")
    problems += _near("opt_estimate", _f(row, "opt_estimate"), strong_opt(c), opt_se)
    noisy = _f(row, "noisy_error")
    noisy_se = math.sqrt(max(noisy * (1.0 - noisy), 0.0) / eval_samples)
    problems += _near("excess_error", _f(row, "excess_error"), exact, math.hypot(noisy_se, opt_se))
    return problems


def verify_tolerance(row: dict, limit: float) -> float:
    """Z_VERIFY stderrs plus a smoothing allowance of limit * (sigma / sin theta)^2.

    The estimator smooths the surrogate derivative over a width sigma, so
    its mean is not the sigma -> 0 limit. On the disk the first-order terms
    cancel (the derivative is even and the density flat). What remains comes
    from the sliver |u| < |m| cot(theta) where the target's sign differs
    from sign(u), of relative size E[m^2] cot^2(theta) / 4 <= 0.83 sigma^2
    cot^2(theta) for the sigmoid, plus the curvature of the disk edge, of
    E[m^2] / 4; (sigma / sin theta)^2 bounds both.
    """
    sigma, theta = _f(row, "sigma"), _f(row, "theta")
    return Z_VERIFY * _f(row, "stderr") + limit * (sigma / math.sin(theta)) ** 2


def check_verify_row(row: dict, eta: float, band: float, c: float) -> list[str]:
    """One verify.csv row against the sigma -> 0 limit of its estimate."""
    problems = []
    if row["verdict"] != "pass":
        problems.append(f"verdict {row['verdict']}")
    limit = verify_limit(row["strategy"], _f(row, "theta"), eta, band, c)
    est = _f(row, "estimate")
    tol = verify_tolerance(row, limit)
    if not (math.isfinite(est) and abs(est - limit) <= tol):
        problems.append(f"estimate {est!r} is not within {tol:.3g} of the limit {limit:.6g}")
    return problems
