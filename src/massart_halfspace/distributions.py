"""Isotropic marginal samplers and the density profiles of their projections.

Four sampler families are provided, each scaled to identity covariance:

    standard_gaussian       N(0, I_d)
    uniform_ball_isotropic  uniform on the ball of radius sqrt(d + 2)
    uniform_sphere_scaled   uniform on the sphere of radius sqrt(d)
    uniform_disk_2d         uniform on the radius-2 disk (d = 2 only)

Each profile builder returns a `BoundedProfile`. The uniform disk admits
an exact profile; the standard Gaussian an analytic one; isotropic
log-concave distributions a conservative paper-constant one parameterized
by a concentration knob. Tail radii are module-level functions, so a
profile, and a config holding one, pickles.

`empirical_density_check` histograms a 2-d projection of actual sampler
output against a profile, so profile constants never have to be taken on
faith. `plane_density` exposes the analytic 2-d projection of each
sampler kind (all four are rotationally symmetric), which downstream
Monte-Carlo code uses for importance sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import UnderpoweredCheckError
from .geometry import BoundedProfile, check_orthonormal_basis

SAMPLER_KINDS = (
    "standard_gaussian",
    "uniform_ball_isotropic",
    "uniform_sphere_scaled",
    "uniform_disk_2d",
)

DISK_RADIUS = 2.0

# Conservative constants certifying every isotropic log-concave
# distribution in the plane: density bound e * 2^17, lower-bound disk
# radius 1/9, tail radius c * ln(1/eps) + 2c for a concentration knob c.
LOGCONCAVE_DENSITY_BOUND = math.e * 2.0**17
LOGCONCAVE_INNER_RADIUS = 1.0 / 9.0
DEFAULT_CONCENTRATION_KNOB = 16.0


def support_radius(kind: str, dim: int) -> float | None:
    """Radius of the support, or None for unbounded support."""
    if kind == "standard_gaussian":
        return None
    if kind == "uniform_ball_isotropic":
        return math.sqrt(dim + 2.0)
    if kind == "uniform_sphere_scaled":
        return math.sqrt(float(dim))
    if kind == "uniform_disk_2d":
        return DISK_RADIUS
    raise ValueError(f"unknown sampler kind {kind!r}")


@dataclass(frozen=True)
class MarginalSampler:
    """One of the isotropic marginal families in dimension dim.

    A sampler is a distribution, not a stream: `sample` draws from the
    generator its caller passes, so equal generators give bitwise equal
    points.
    """

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}, expected one of {SAMPLER_KINDS}")
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if self.kind == "uniform_disk_2d" and self.dim != 2:
            raise ValueError("uniform_disk_2d requires dim = 2")
        if self.kind == "uniform_sphere_scaled" and self.dim < 2:
            raise ValueError("uniform_sphere_scaled requires dim >= 2")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw an (n, dim) array of points from rng."""
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"sample count must be a non-negative integer, got {n!r}")
        d = self.dim
        if self.kind == "standard_gaussian":
            return rng.standard_normal((n, d))
        # A Gaussian direction at the radius, times U^(1/d) for the ball and the disk.
        g = rng.standard_normal((n, d))
        norms = np.linalg.norm(g, axis=1)
        norms[norms == 0.0] = 1.0
        radius = support_radius(self.kind, d)
        if self.kind != "uniform_sphere_scaled":
            radius = radius * rng.random(n) ** (1.0 / d)
        return g * (radius / norms)[:, None]


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps!r}")
    return eps


def _disk_tail(eps: float) -> float:
    _check_eps(eps)
    return DISK_RADIUS


def _gaussian_tail(eps: float) -> float:
    return math.sqrt(2.0 * math.log(1.0 / _check_eps(eps)))


def _logconcave_tail(c: float, eps: float) -> float:
    return c * math.log(1.0 / _check_eps(eps)) + 2.0 * c


def disk_profile() -> BoundedProfile:
    """Exact profile of the uniform radius-2 disk: density is 1/(4*pi) on it."""
    return BoundedProfile(density_bound=4.0 * math.pi, inner_radius=DISK_RADIUS, tail_radius=_disk_tail)


def gaussian_profile() -> BoundedProfile:
    """Analytic profile of any 2-d projection of a standard Gaussian.

    The projected density is exp(-r^2/2)/(2*pi), so on the unit disk it
    is at least 1/(2*pi*sqrt(e)) and everywhere at most 1/(2*pi); the
    squared projected norm is chi-squared with 2 degrees of freedom,
    giving the exact tail radius sqrt(2*ln(1/eps)).
    """
    return BoundedProfile(
        density_bound=2.0 * math.pi * math.sqrt(math.e), inner_radius=1.0, tail_radius=_gaussian_tail
    )


def logconcave_profile(concentration_knob: float = DEFAULT_CONCENTRATION_KNOB) -> BoundedProfile:
    """Conservative profile valid for every isotropic log-concave marginal.

    The density and disk constants are universal. The tail radius
    c * ln(1/eps) + 2c depends on a concentration constant c that is not
    pinned numerically by the theory; it is exposed as a knob (default
    16) and should be certified per distribution with
    `empirical_density_check` before being leaned on.
    """
    c = float(concentration_knob)
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"concentration knob must be positive, got {concentration_knob!r}")
    return BoundedProfile(
        density_bound=LOGCONCAVE_DENSITY_BOUND,
        inner_radius=LOGCONCAVE_INNER_RADIUS,
        tail_radius=partial(_logconcave_tail, c),
    )


PROFILE_BUILDERS = {
    "disk_exact": disk_profile,
    "gaussian_analytic": gaussian_profile,
    "logconcave": logconcave_profile,
}


# --------------------------------------------------------------------------
# Empirical density certification


@dataclass(frozen=True)
class CellStat:
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    count: int
    density: float
    verdict: str  # "pass", "fail_low", "fail_high"


@dataclass(frozen=True)
class DensityCheckReport:
    passed: bool
    cells: tuple[CellStat, ...]
    tail_fractions: tuple[float, ...]
    tail_limits: tuple[float, ...]
    tail_passed: bool

    def failures(self) -> list[CellStat]:
        return [c for c in self.cells if c.verdict != "pass"]


# Minimum expected count per histogram cell for the check to be powered.
MIN_EXPECTED_CELL_COUNT = 50.0
DENSITY_GRID = 6  # cells per side of the histogram
DENSITY_SLACK = 0.5
TAIL_EPS_DEFAULT = (0.1, 0.01)


def empirical_density_check(
    sampler: MarginalSampler,
    basis: tuple[np.ndarray, np.ndarray],
    profile: BoundedProfile,
    n: int,
    rng: np.random.Generator,
) -> DensityCheckReport:
    """Histogram a 2-d projection of n points drawn from rng against a profile.

    The histogram has DENSITY_GRID cells per side. Cells fully inside the
    lower-bound disk must show empirical density within [1/(U*(1+slack)),
    U*(1+slack)] for U the density bound and slack DENSITY_SLACK, and for
    each eps in TAIL_EPS_DEFAULT the projected tail mass beyond
    tail_radius(eps) must not exceed eps + 3*sqrt(eps/n). A cell whose
    observed count and whose profile-implied minimum expected count are both
    below MIN_EXPECTED_CELL_COUNT cannot be decided either way and raises
    UnderpoweredCheckError rather than failing.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    b1, b2 = check_orthonormal_basis(basis)
    pts = sampler.sample(n, rng)
    proj = np.column_stack((pts @ b1, pts @ b2))

    radius = profile.inner_radius
    bound = profile.density_bound
    lo_density = 1.0 / (bound * (1.0 + DENSITY_SLACK))
    hi_density = bound * (1.0 + DENSITY_SLACK)

    edges = np.linspace(-radius, radius, DENSITY_GRID + 1)
    counts, _, _ = np.histogram2d(proj[:, 0], proj[:, 1], bins=(edges, edges))
    cell_area = (2.0 * radius / DENSITY_GRID) ** 2
    min_expected_if_valid = n * cell_area * lo_density

    cells: list[CellStat] = []
    underpowered: list[tuple[float, float]] = []
    for i in range(DENSITY_GRID):
        for j in range(DENSITY_GRID):
            x_lo, x_hi = edges[i], edges[i + 1]
            y_lo, y_hi = edges[j], edges[j + 1]
            corner = math.hypot(max(abs(x_lo), abs(x_hi)), max(abs(y_lo), abs(y_hi)))
            if corner > radius:
                continue  # cell pokes outside the lower-bound disk
            count = int(counts[i, j])
            density = count / (n * cell_area)
            if count >= MIN_EXPECTED_CELL_COUNT:
                if density < lo_density:
                    verdict = "fail_low"
                elif density > hi_density:
                    verdict = "fail_high"
                else:
                    verdict = "pass"
            elif min_expected_if_valid >= MIN_EXPECTED_CELL_COUNT:
                # The profile promised at least min_expected_if_valid
                # draws here; seeing almost none is a confident failure.
                verdict = "fail_low"
            else:
                underpowered.append((x_lo, y_lo))
                verdict = "underpowered"
            cells.append(CellStat(x_lo, x_hi, y_lo, y_hi, count, density, verdict))

    if underpowered:
        raise UnderpoweredCheckError(
            f"{len(underpowered)} histogram cell(s) expect fewer than "
            f"{MIN_EXPECTED_CELL_COUNT:.0f} samples at n = {n}; "
            "increase n to make the density check decidable"
        )

    proj_norms = np.linalg.norm(proj, axis=1)
    fractions, limits = [], []
    tail_ok = True
    for eps in TAIL_EPS_DEFAULT:
        t = float(profile.tail_radius(eps))
        frac = float(np.mean(proj_norms >= t))
        limit = eps + 3.0 * math.sqrt(eps / n)
        fractions.append(frac)
        limits.append(limit)
        tail_ok = tail_ok and frac <= limit

    cells_ok = all(c.verdict == "pass" for c in cells)
    return DensityCheckReport(
        passed=cells_ok and tail_ok,
        cells=tuple(cells),
        tail_fractions=tuple(fractions),
        tail_limits=tuple(limits),
        tail_passed=tail_ok,
    )


# --------------------------------------------------------------------------
# Analytic 2-d projections (all four kinds are rotationally symmetric)


@dataclass(frozen=True)
class PlaneDensity:
    """Closed forms for one 2-d projection of a sampler kind.

    Coordinates below refer to an arbitrary orthonormal plane basis; by
    rotational symmetry any plane gives the same law. `marginal_pdf` is
    the density of a single in-plane coordinate, `sample_marginal` draws
    from it, and `sample_conditional` draws the second coordinate given
    the first. Beta-distributed squared coordinates cover the bounded
    kinds; the Gaussian factorizes.
    """

    kind: str
    dim: int
    radius: float | None  # support radius of the projection, None if unbounded
    _marg_beta: float = 0.0  # u^2 ~ Beta(1/2, _marg_beta) for u = t/radius
    _cond_beta: float = 0.0

    def marginal_pdf(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "standard_gaussian":
            return np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        from scipy import special
        norm = self.radius * special.beta(0.5, self._marg_beta)
        u2 = np.clip(t / self.radius, -1.0, 1.0) ** 2
        # (1 - u2)**expo / norm at every point, then 0 off the support. The
        # exponent is never negative, so the edge u2 = 1 raises no warning.
        pdf = np.subtract(1.0, u2, out=np.empty_like(t))
        pdf **= self._marg_beta - 1.0
        pdf /= norm
        np.copyto(pdf, 0.0, where=~(u2 < 1.0))
        return pdf

    def sample_marginal(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "standard_gaussian":
            return rng.standard_normal(n)
        u = np.sqrt(rng.beta(0.5, self._marg_beta, size=n))
        signs = (rng.random(n) < 0.5) * 2.0 - 1.0
        return self.radius * u * signs

    def sample_conditional(self, t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw the orthogonal in-plane coordinate given the first one."""
        t = np.asarray(t, dtype=np.float64)
        n = t.shape[0]
        if self.kind == "standard_gaussian":
            return rng.standard_normal(n)
        half_width = np.sqrt(np.maximum(self.radius**2 - t * t, 0.0))
        u = np.sqrt(rng.beta(0.5, self._cond_beta, size=n))
        signs = (rng.random(n) < 0.5) * 2.0 - 1.0
        return half_width * u * signs

    def conditional_inverse_cdf(self, t: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Quantile v in [0, 1] of the orthogonal coordinate given the first.

        Lets callers drive the conditional draw with stratified or
        quasi-random uniforms instead of fresh ones.
        """
        from scipy import special
        t = np.asarray(t, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if self.kind == "standard_gaussian":
            return special.ndtri(v)
        half_width = np.sqrt(np.maximum(self.radius**2 - t * t, 0.0))
        centered = 2.0 * v - 1.0
        if self._cond_beta == 1.0:  # uniform conditional, e.g. the disk
            return half_width * centered
        mag = np.sqrt(special.betaincinv(0.5, self._cond_beta, np.abs(centered)))
        return half_width * mag * np.sign(centered)


def plane_density(kind: str, dim: int) -> PlaneDensity:
    """Analytic 2-d projection for a sampler kind (see PlaneDensity).

    Projecting the uniform ball of radius r in R^d onto a plane gives
    density proportional to (1 - rho^2/r^2)^((d-2)/2); the sphere gives
    exponent (d-4)/2 and therefore needs d >= 3 to project to a proper
    density. Single-coordinate marginals shave another half power.
    """
    import scipy.special  # noqa: F401  only plane densities use scipy; a learn run builds none
    if kind == "standard_gaussian":
        return PlaneDensity(kind=kind, dim=dim, radius=None)
    r = support_radius(kind, dim)
    if kind in ("uniform_ball_isotropic", "uniform_disk_2d"):
        return PlaneDensity(
            kind=kind, dim=dim, radius=r,
            _marg_beta=(dim + 1.0) / 2.0, _cond_beta=dim / 2.0,
        )
    if kind == "uniform_sphere_scaled":
        if dim < 3:
            raise ValueError("the scaled sphere has no planar density below dimension 3")
        return PlaneDensity(
            kind=kind, dim=dim, radius=r,
            _marg_beta=(dim - 1.0) / 2.0, _cond_beta=(dim - 2.0) / 2.0,
        )
    raise ValueError(f"unknown sampler kind {kind!r}")
