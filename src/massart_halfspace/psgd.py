"""Projected stochastic gradient descent on the unit sphere.

Each step takes a stochastic gradient g at the current unit iterate w,
moves to v = w - step_size * g, and projects back to the sphere,
w <- v / ||v||. The single run is SGD of a margin loss: for an example z
with zz = ||z||^2, the gradient at m = <w, z> is g = -dloss(m) * (z - m * w),
tangent to w, so ||w - step_size * g||^2 = 1 + (step_size * dloss(m))^2 *
(zz - m^2) >= 1 is a scalar and the projection never blows a step up. Both
runs record step 0, every record_every-th step, and the last step when
record_every does not divide steps: recorded_count(steps, record_every)
iterates, each stored when its segment of steps ends.

For a smooth bounded objective the guarantees are parameter-free in
shape: with step_size sqrt(2 * value_range / (smoothness * grad_sq_bound
* steps)) the average squared gradient norm along the trajectory is at
most sqrt(smoothness * grad_sq_bound * value_range / (2 * steps)), and

    steps = (2 * smoothness * grad_sq_bound * value_range
             + 8 * mean_grad_sq_bound^2 * ln(1/delta)) / eps^4

suffices for some iterate to have true gradient norm at most eps with
probability 1 - delta. Here grad_sq_bound bounds E||g||^2 and
mean_grad_sq_bound bounds ||E g||^2 over the feasible set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import PsgdDivergenceError
from .rng import STREAM_PSGD, make_rng


@dataclass(frozen=True)
class PsgdConfig:
    """A run's schedule; seed feeds only psgd_run_batch's oracle generator, as psgd_run draws nothing."""

    steps: int
    step_size: float
    seed: int = 0
    record_every: int = 1

    def __post_init__(self):
        if not isinstance(self.steps, int) or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")
        if not (math.isfinite(self.step_size) and self.step_size > 0.0):
            raise ValueError(f"step_size must be positive, got {self.step_size!r}")
        if not isinstance(self.record_every, int) or self.record_every < 1:
            raise ValueError(f"record_every must be a positive integer, got {self.record_every!r}")


@dataclass(frozen=True)
class Trajectory:
    """The iterates of a run at its recorded steps."""

    step_indices: np.ndarray  # (k,) int64, strictly increasing, starts at 0
    iterates: np.ndarray      # (k, d), rows have unit norm

    def __len__(self) -> int:
        return int(self.step_indices.shape[0])


def recorded_count(steps: int, record_every: int) -> int:
    """Number of iterates a run records (see the module docstring)."""
    return steps // record_every + 1 + (steps % record_every != 0)


def _recorded_steps(steps: int, record_every: int) -> np.ndarray:
    idx = np.arange(recorded_count(steps, record_every), dtype=np.int64) * record_every
    idx[-1] = steps
    return idx


def _unit_starts(w0s, ndim: int) -> np.ndarray:
    """A float64 copy of w0s, checked to be ndim-dimensional with unit rows."""
    W = np.array(w0s, dtype=np.float64)
    if W.ndim != ndim:
        raise ValueError(f"starts must be a {ndim}-d array, got shape {W.shape}")
    norms = np.linalg.norm(W, axis=-1)
    if not np.all(np.abs(norms - 1.0) <= 1e-9):
        raise ValueError(f"every start must have unit norm, got norm {norms.tolist()!r}")
    return W


def psgd_run(examples, config: PsgdConfig, w0, *, dloss) -> Trajectory:
    """Run projected SGD of a margin loss from the unit w0; return the recorded trajectory.

    Step i takes the i-th (z, zz) of examples, z a sequence of d floats
    (another length raises ValueError), and dloss(m) is the r of the
    gradient -r * (z - m * w). The loop keeps v as a list of Python floats
    and s = 1/||v||, so w = s * v and a step is one list, v <- a * v + b * z.
    A non-finite or non-positive squared norm aborts with PsgdDivergenceError
    at its step, as does a record step whose exact ||v|| is off 1/s by over
    1e-9 relative: a stream whose zz is not ||z||^2.
    """
    v, s = _unit_starts(w0, 1).tolist(), 1.0
    beta = config.step_size
    record = _recorded_steps(config.steps, config.record_every)
    iterates = np.empty((record.shape[0], len(v)))
    iterates[0] = v
    for slot in range(1, record.shape[0]):
        i = record[slot - 1]
        try:  # fsum rounds alike on every Python version, but may overflow on finite terms
            for i, (z, zz) in zip(range(i + 1, record[slot] + 1), examples):
                m = math.fsum(map(mul, z, v)) * s
                b = beta * dloss(m)
                a = (1.0 - b * m) * s  # w - beta * g = a * v + b * z
                v = [a * vi + b * zi for vi, zi in zip(v, z, strict=True)]
                n2 = 1.0 + b * b * (zz - m * m)
                if not 0.0 < n2 < math.inf:
                    raise PsgdDivergenceError(step=i, detail="non-finite or non-positive squared norm")
                s = 1.0 / math.sqrt(n2)
            nv = math.sqrt(math.fsum(map(mul, v, v)))
        except OverflowError:
            raise PsgdDivergenceError(step=i, detail="a sum passed the float range") from None
        if i != record[slot]:
            raise ValueError(f"the example stream ended before step {i + 1} of {config.steps}")
        if not abs(nv * s - 1.0) <= 1e-9:
            raise PsgdDivergenceError(step=i, detail="the carried norm drifted: is zz = ||z||^2?")
        iterates[slot] = [vi / nv for vi in v]
        s = 1.0 / nv
    return Trajectory(step_indices=record, iterates=iterates)


def psgd_run_batch(batch_oracle, config: PsgdConfig, w0s: np.ndarray) -> Trajectory:
    """Lockstep projected SGD from many starts at once.

    Applies the projected step of `psgd_run` to every row of w0s in
    parallel via array arithmetic; batch_oracle(W, rng) must return one
    full gradient per row of W. Intended for experiment throughput (many
    seeds or trials of the same configuration); the recorded `iterates`
    have shape (k, m, d) for m starts.
    """
    W = _unit_starts(w0s, 2)
    rng = make_rng(config.seed, STREAM_PSGD)
    beta = config.step_size
    record = _recorded_steps(config.steps, config.record_every)
    iterates = np.empty((record.shape[0],) + W.shape)
    iterates[0] = W
    for slot in range(1, record.shape[0]):
        for i in range(record[slot - 1] + 1, record[slot] + 1):
            V = W - beta * batch_oracle(W, rng)
            nv = np.sqrt(np.einsum("ij,ij->i", V, V))
            bad = ~(np.isfinite(nv) & (nv > 0.0))
            if bad.any():
                raise PsgdDivergenceError(step=i, detail=f"row {int(np.argmax(bad))} produced a degenerate update")
            W = V / nv[:, None]
        iterates[slot] = W
    return Trajectory(step_indices=record, iterates=iterates)


def theoretical_step_size(
    smoothness: float, grad_sq_bound: float, value_range: float, steps: int
) -> float:
    """sqrt(2 * value_range / (smoothness * grad_sq_bound * steps))."""
    for name, val in (("smoothness", smoothness), ("grad_sq_bound", grad_sq_bound),
                      ("value_range", value_range)):
        if not (math.isfinite(val) and val > 0.0):
            raise ValueError(f"{name} must be positive, got {val!r}")
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps!r}")
    return math.sqrt(2.0 * value_range / (smoothness * grad_sq_bound * steps))


def theoretical_iteration_count(
    smoothness: float,
    grad_sq_bound: float,
    value_range: float,
    mean_grad_sq_bound: float,
    eps: float,
    delta: float,
) -> int:
    """Steps guaranteeing a trajectory point with gradient norm <= eps
    with probability at least 1 - delta."""
    if not (0.0 < eps):
        raise ValueError(f"eps must be positive, got {eps!r}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    if mean_grad_sq_bound < 0.0:
        raise ValueError(f"mean_grad_sq_bound must be non-negative, got {mean_grad_sq_bound!r}")
    numerator = (
        2.0 * smoothness * grad_sq_bound * value_range
        + 8.0 * mean_grad_sq_bound**2 * math.log(1.0 / delta)
    )
    return int(math.ceil(numerator / eps**4))

