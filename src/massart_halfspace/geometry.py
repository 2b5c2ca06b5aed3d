"""Angles, plane bases, and angle-to-error bounds for halfspaces.

An origin-centered halfspace is described by its unit normal w and
classifies a point x as sign(<w, x>). For distributions whose
two-dimensional projections have bounded density (see `BoundedProfile`),
the zero-one disagreement between two halfspaces is sandwiched between
multiples of the angle separating their normals:

    (inner_radius^2 / density_bound) * angle
        <= disagreement
        <= density_bound * tail_radius(eps)^2 * angle + eps

which is what makes angle a usable progress measure for learning.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Unit vectors must have norm 1 up to this additive slack.
UNIT_NORM_TOL = 1e-12
# Basis pairs must be orthonormal up to this slack.
BASIS_ORTHO_TOL = 1e-10


def sign_of(t):
    """Classification sign: +1 for t >= 0, -1 for t < 0.

    Accepts scalars or arrays. The tie at zero maps to +1 so that every
    caller (label generation, error counting, disagreement estimates)
    breaks it the same way. Non-finite input is rejected.
    """
    arr = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("sign_of: input must be finite")
    out = (arr >= 0.0) * 2.0 - 1.0
    if np.isscalar(t) or arr.ndim == 0:
        return float(out)
    return out


def as_float_vector(v, name: str = "vector") -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def unit_vector(v, name: str = "vector") -> np.ndarray:
    """Return v / ||v||, rejecting zero and non-finite input."""
    arr = as_float_vector(v, name)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError(f"{name} must be non-zero")
    return arr / norm

def require_unit(v, name: str = "vector") -> np.ndarray:
    """Validate that v already has unit norm (within UNIT_NORM_TOL)."""
    arr = as_float_vector(v, name)
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"{name} must have unit norm, got {norm!r}")
    return arr


def angle_between(u, v) -> float:
    """Angle in [0, pi] between two non-zero vectors.

    The inner product of the normalized inputs is clipped into [-1, 1]
    before arccos, so nearly parallel inputs cannot produce NaN.
    """
    uu = unit_vector(u, "u")
    vv = unit_vector(v, "v")
    if uu.shape != vv.shape:
        raise ValueError(f"angle_between: shape mismatch {uu.shape} vs {vv.shape}")
    cos = float(np.clip(np.dot(uu, vv), -1.0, 1.0))
    return math.acos(cos)


def check_orthonormal_basis(basis: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    b1 = as_float_vector(basis[0], "basis[0]")
    b2 = as_float_vector(basis[1], "basis[1]")
    if b1.shape != b2.shape:
        raise ValueError("basis vectors must share a dimension")
    if abs(float(np.linalg.norm(b1)) - 1.0) > BASIS_ORTHO_TOL:
        raise ValueError("basis[0] is not unit norm")
    if abs(float(np.linalg.norm(b2)) - 1.0) > BASIS_ORTHO_TOL:
        raise ValueError("basis[1] is not unit norm")
    if abs(float(np.dot(b1, b2))) > BASIS_ORTHO_TOL:
        raise ValueError("basis vectors are not orthogonal")
    return b1, b2


# Tail radius callables are spot-checked at these coverage levels.
_TAIL_PROBE_EPS = (1.0, 0.5, 0.1, 0.01)


@dataclass(frozen=True)
class BoundedProfile:
    """Density bounds for every 2-d projection of an isotropic distribution.

    density_bound:
        Upper bound on the projected density everywhere, and reciprocal
        lower bound (1/density_bound) on the disk of radius inner_radius.
    inner_radius:
        Radius of the disk on which the lower density bound holds.
    tail_radius:
        Map eps -> radius outside which the projected mass is at most eps.
        Must be non-increasing in eps.

    A density cannot sit below 1/density_bound on a disk and above
    density_bound everywhere unless density_bound >= 1 and the disk mass
    pi * inner_radius^2 / density_bound is at most one; both are enforced.
    """

    density_bound: float
    inner_radius: float
    tail_radius: Callable[[float], float]

    def __post_init__(self):
        if not (math.isfinite(self.density_bound) and self.density_bound >= 1.0):
            raise ValueError(f"density_bound must be finite and >= 1, got {self.density_bound!r}")
        if not (math.isfinite(self.inner_radius) and self.inner_radius > 0.0):
            raise ValueError(f"inner_radius must be positive, got {self.inner_radius!r}")
        disk_mass = math.pi * self.inner_radius**2 / self.density_bound
        if disk_mass > 1.0 + 1e-9:
            raise ValueError(
                "inconsistent profile: the guaranteed disk mass "
                f"pi*inner_radius^2/density_bound = {disk_mass!r} exceeds 1"
            )
        probes = [self.tail_radius(e) for e in _TAIL_PROBE_EPS]
        for e, r in zip(_TAIL_PROBE_EPS, probes):
            if not (math.isfinite(r) and r >= 0.0):
                raise ValueError(f"tail_radius({e}) must be finite and non-negative, got {r!r}")
        for (e_hi, r_hi), (e_lo, r_lo) in zip(
            zip(_TAIL_PROBE_EPS, probes), list(zip(_TAIL_PROBE_EPS, probes))[1:]
        ):
            if r_hi > r_lo + 1e-12:
                raise ValueError(
                    f"tail_radius must be non-increasing in eps: t({e_hi}) = {r_hi!r} "
                    f"> t({e_lo}) = {r_lo!r}"
                )


def _check_angle(theta: float) -> float:
    theta = float(theta)
    if not (math.isfinite(theta) and 0.0 <= theta <= math.pi):
        raise ValueError(f"angle must lie in [0, pi], got {theta!r}")
    return theta


def error_lower_bound_from_angle(theta: float, profile: BoundedProfile) -> float:
    """Least possible disagreement of two halfspaces whose normals differ by theta."""
    theta = _check_angle(theta)
    return profile.inner_radius**2 / profile.density_bound * theta


def error_upper_bound_from_angle(theta: float, eps: float, profile: BoundedProfile) -> float:
    """Largest possible disagreement at angle theta, up to tail mass eps."""
    theta = _check_angle(theta)
    eps = float(eps)
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps!r}")
    t = float(profile.tail_radius(eps))
    return profile.density_bound * t**2 * theta + eps
