"""Smoothed surrogate losses over the normalized margin.

Both surrogates are applied to the negated signed margin
-y * <w, x>/||w||, so that loss decreases as the prediction agrees with
the label more confidently.

ramp (width sigma):        0 below -sigma/2, then linear, 1 above +sigma/2
sigmoid (width sigma):     1 / (1 + exp(-t/sigma))

The ramp derivative is 1/sigma on the closed interval [-sigma/2, sigma/2]
and zero outside; both derivatives are even. The per-sample gradient of
the loss in w is

    -y * D(-y * margin) * (x/||w|| - <w,x> w/||w||^3)

where D is the surrogate derivative. The second factor is the margin
gradient; it is orthogonal to w by construction, which is what keeps
projected SGD's pre-projection norm from shrinking.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

SURROGATE_KINDS = ("ramp", "sigmoid")
# Guard rail: widths beyond this are almost certainly a units mistake.
SIGMA_MAX = 10.0
# Points per accumulation chunk of population_estimates.
ESTIMATE_CHUNK = 1 << 16


@dataclass(frozen=True)
class SurrogateSpec:
    kind: str
    sigma: float

    def __post_init__(self):
        if self.kind not in SURROGATE_KINDS:
            raise ValueError(f"unknown surrogate kind {self.kind!r}, expected one of {SURROGATE_KINDS}")
        # a normal float: then 1/sigma, and the estimator's 1/(3 sigma), stay finite
        if not (math.isfinite(self.sigma) and sys.float_info.min <= self.sigma <= SIGMA_MAX):
            raise ValueError(f"sigma must lie in [{sys.float_info.min}, {SIGMA_MAX}], got {self.sigma!r}")


def surrogate_value(spec: SurrogateSpec, t):
    """The surrogate at t; the sigmoid takes exp only of -|t|/sigma, so any |t|/sigma is safe."""
    t = np.asarray(t, dtype=np.float64)
    if spec.kind == "ramp":
        out = np.clip(t / spec.sigma + 0.5, 0.0, 1.0)
    else:
        z = t / spec.sigma
        q = np.exp(-np.abs(z))
        out = np.where(z >= 0.0, 1.0 / (1.0 + q), q / (1.0 + q))
    return float(out) if out.ndim == 0 else out


def surrogate_derivative(spec: SurrogateSpec, t):
    """d/dt of the surrogate; the ramp's kinks at +-sigma/2 count as inside."""
    t = np.asarray(t, dtype=np.float64)
    if spec.kind == "ramp":
        out = (np.abs(t) <= 0.5 * spec.sigma) * (1.0 / spec.sigma)
    else:
        q = np.exp(-np.abs(t / spec.sigma))
        out = q / (1.0 + q) ** 2 / spec.sigma
    return float(out) if out.ndim == 0 else out


def sigmoid_slope(sigma: float):
    """The sigmoid derivative on one float margin: PSGD's per-step dloss. It
    divides once where surrogate_derivative divides twice; PSGD's iterates pin this form."""

    def dloss(m):
        q = math.exp(-abs(m) / sigma)
        return q / ((1.0 + q) ** 2 * sigma)

    return dloss


def _norm_checked(w: np.ndarray) -> float:
    norm = float(np.linalg.norm(w))
    if not (math.isfinite(norm) and norm > 0.0):
        raise ValueError(f"weight vector must be non-zero and finite, norm = {norm!r}")
    return norm


def margin(w, xs):
    """Normalized margin <w, x>/||w|| for a point or an (n, d) batch."""
    w = np.asarray(w, dtype=np.float64)
    norm = _norm_checked(w)
    xs = np.asarray(xs, dtype=np.float64)
    out = xs @ w / norm
    return float(out) if out.ndim == 0 else out


def per_sample_loss(w, x, y: float, spec: SurrogateSpec) -> float:
    return float(surrogate_value(spec, -y * margin(w, x)))


def per_sample_gradient(w, x, y: float, spec: SurrogateSpec) -> np.ndarray:
    """Gradient in w of the per-sample surrogate loss (orthogonal to w)."""
    return sample_gradients(w, [x], [y], spec)[0]


def sample_gradients(w, xs, ys, spec: SurrogateSpec) -> np.ndarray:
    """Per-sample gradients for a batch: (n, d) array, rows orthogonal to w."""
    w = np.asarray(w, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    norm = _norm_checked(w)
    ms = xs @ w / norm
    coefs = -ys * surrogate_derivative(spec, -ys * ms)
    # multiply, then divide by norm: per_sample_gradient's results depend on this order
    grads = xs - np.outer(ms, w / norm)
    grads *= coefs[:, None]
    grads /= norm
    return grads


@dataclass(frozen=True)
class PopulationEstimate:
    loss: float
    gradient: np.ndarray
    gradient_norm: float
    gradient_norm_stderr: float
    samples: int


def population_estimates(w, xs, ys, spec: SurrogateSpec) -> PopulationEstimate:
    """Empirical loss and gradient of the surrogate over a labeled batch.

    Accumulates chunks of ESTIMATE_CHUNK points in index order, so the
    result is deterministic for a given input ordering no matter how the
    caller obtained the data. The reported stderr is for the gradient norm
    and is conservative: it aggregates every coordinate's variance,
    sqrt(sum_i var_i / n), which upper-bounds the fluctuation of the norm
    itself.
    """
    w = np.asarray(w, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n, d = xs.shape
    if n < 2:
        raise ValueError("population_estimates needs at least 2 samples")
    loss_sum = 0.0
    grad_sum = np.zeros(d)
    grad_sq_sum = np.zeros(d)
    norm = _norm_checked(w)
    for lo in range(0, n, ESTIMATE_CHUNK):
        hi = min(lo + ESTIMATE_CHUNK, n)
        ms = xs[lo:hi] @ w / norm
        zs = -ys[lo:hi] * ms
        loss_sum += float(np.sum(surrogate_value(spec, zs)))
        grads = sample_gradients(w, xs[lo:hi], ys[lo:hi], spec)
        grad_sum += grads.sum(axis=0)
        grad_sq_sum += (grads * grads).sum(axis=0)
    mean_grad = grad_sum / n
    coord_var = np.maximum(grad_sq_sum / n - mean_grad**2, 0.0) * (n / (n - 1))
    stderr = float(math.sqrt(float(np.sum(coord_var)) / n))
    return PopulationEstimate(
        loss=loss_sum / n,
        gradient=mean_grad,
        gradient_norm=float(np.linalg.norm(mean_grad)),
        gradient_norm_stderr=stderr,
        samples=n,
    )
