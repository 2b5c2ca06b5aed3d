"""Monte-Carlo certification of the structural gradient-norm lemmas.

The lemmas state that for every admissible noise function and every unit
vector w at angle theta from the target (inside the window
(theta, pi - theta)), the population gradient of the smoothed surrogate
has norm at least an explicit floor, provided the smoothing width sigma
stays under an explicit cap. `lemma_sigma_cap` and `lemma_gradient_floor`
hold those closed forms; `verify_stationary_gap` estimates the actual
gradient norm by Monte Carlo and applies a one-sided statistical test
against the floor. An estimate significantly below the floor refutes the
claimed bound; the test can never prove the universally quantified
statement, only fail to falsify it, which is the usual shape of a
numerical certification.

Estimator design. Labels are integrated out analytically: conditioned on
x, the mean gradient contribution is -(1 - 2 eta(x)) sign(<w*, x>) times
the derivative weight at the margin (the surrogate derivatives are even,
so the label only contributes its mean 1 - 2 eta(x)). Every component of
the mean gradient orthogonal to the (w, w*) plane vanishes for a
rotationally symmetric marginal, and the component along w is zero
pointwise, so the whole norm sits in one scalar: the coefficient of the
in-plane direction b1 orthogonal to w (chosen so <w*, b1> = sin theta).
Projecting the mean onto a fixed direction can only shrink it, so this
scalar is a sound lower bound even without symmetry. The two in-plane
coordinates are drawn from the closed-form projected density, with the
w-coordinate importance-sampled from a Laplace mixture matched to the
derivative's width sigma; weights are bounded by 1/(1 - MIXTURE_WEIGHT),
so the estimator keeps finite variance while spending most samples where
the derivative actually lives. Noise rates are evaluated on the in-plane
points embedded back into R^d; for point-dependent strategies this
checks an (equally admissible) in-plane adversary rather than the
ambient one.

Sample size. Points come in chunks of _CHUNK and the stderr is taken over
the chunk means. The first round draws max(2, ceil(mc_samples / _CHUNK))
chunks and each later round doubles the count, trimmed to MC_SAMPLE_CAP
samples, until _MIN_CHUNKS chunks exist and the stderr is at most
STDERR_FLOOR_FRACTION of the floor. Once no chunk fits under the cap, an
UnderpoweredCheckError names the samples reached.

Chunk cost. The output bits fix the order and size of every random draw:
the band uniforms, the Laplace draws, the marginal's beta draws and sign
uniforms, the stratum permutation and its uniforms. The rest runs in place
in buffers made once per angle, and each in-place step keeps the
association of the whole-array expression, so every output bit is kept.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import MarginalSampler, PlaneDensity, plane_density
from .errors import UnderpoweredCheckError
from .geometry import BoundedProfile, require_unit, sign_of
from .noise import MODEL_STRONG, NoiseStrategy, noise_rates
from .rng import STREAM_VERIFY, make_rng
from .surrogate import SurrogateSpec, surrogate_derivative

LEMMA_KINDS = ("ramp", "sigmoid", "strong")

# stderr must reach this fraction of the floor before the verdict counts.
STDERR_FLOOR_FRACTION = 0.1
MC_SAMPLE_CAP = 10_000_000

# Chunk means are the actual i.i.d. observations: the conditional coordinate
# is stratified inside a chunk, so per-sample values are correlated by design.
_CHUNK = 1 << 14
_MIN_CHUNKS = 16  # the stderr over fewer chunk means is not trusted
# The first round draws ceil(mc_samples / _CHUNK) whole chunks, so a larger
# mc_samples would pass MC_SAMPLE_CAP before the cap is first checked.
MAX_MC_SAMPLES = MC_SAMPLE_CAP // _CHUNK * _CHUNK
# Up to this dimension a chunk fills its embedded points one column at a
# time, above it by one broadcast per term. The broadcast's inner loop runs
# over the d entries of a row, which is slow at small d; the column writes
# land d floats apart, which is slow at large d.
_COLUMN_BUILD_DIM = 10

# Share of the importance proposal drawn from the Laplace band at the margin.
MIXTURE_WEIGHT = 0.9


def _lemma(kind: str, profile: BoundedProfile, p: float) -> tuple[float, float]:
    """(sigma cap at sin(theta) = 1, gradient floor) of lemma kind with noise parameter p:
    (R/(kU)) sqrt(1-2p) and R^2 (1-2p)/(4kU) with k = 2 (ramp) or 8 (sigmoid),
    (R/(24U)) sqrt(pR) and p R^3/(288U) for strong."""
    if kind not in LEMMA_KINDS:
        raise ValueError(f"unknown lemma kind {kind!r}, expected one of {LEMMA_KINDS}")
    U, R = profile.density_bound, profile.inner_radius
    if kind == "strong":
        if not (math.isfinite(p) and p > 0.0):
            raise ValueError(f"margin slope must be finite and positive, got {p!r}")
        return (R / (24.0 * U)) * math.sqrt(p * R), p * R**3 / (288.0 * U)
    if not (0.0 <= p < 0.5):
        raise ValueError(f"noise ceiling must lie in [0, 1/2), got {p!r}")
    k = 2.0 if kind == "ramp" else 8.0
    return (R / (k * U)) * math.sqrt(1.0 - 2.0 * p), R * R * (1.0 - 2.0 * p) / (4.0 * k * U)


def lemma_sigma_cap(kind: str, profile: BoundedProfile, noise_param: float, theta: float) -> float:
    """Largest smoothing width for which the gradient floor is guaranteed.

    noise_param is the noise ceiling eta for the ramp and sigmoid bounds
    and the margin slope c for the strong bound. theta is the window edge
    the floor should cover, in (0, pi/2].
    """
    if not (0.0 < theta <= math.pi / 2.0 + 1e-12):
        raise ValueError(f"theta must lie in (0, pi/2], got {theta!r}")
    return _lemma(kind, profile, noise_param)[0] * math.sin(theta)


def lemma_gradient_floor(kind: str, profile: BoundedProfile, noise_param: float) -> float:
    """Guaranteed norm of the population surrogate gradient off the target."""
    return _lemma(kind, profile, noise_param)[1]


def verify_lemma(
    surrogate_kind: str, noise: NoiseStrategy, profile: BoundedProfile, angles
) -> tuple[str, float, float | None]:
    """The lemma a verify check tests, its noise parameter, and its sigma cap.

    strong_massart_max noise is covered by the strong lemma with parameter
    c_strong, any other noise by the surrogate's own lemma with parameter
    eta_bound. The cap is the lemma cap at the tightest window edge
    min(a, pi - a) over the positive angles, None if no angle is positive.
    Every angle must lie in [0, pi).
    """
    for a in angles:
        if not (0.0 <= a < math.pi):
            raise ValueError(f"angles must each lie in [0, pi), got {a!r}")
    if noise.model == MODEL_STRONG:
        lemma, param = "strong", noise.c_strong
    else:
        lemma, param = surrogate_kind, noise.eta_bound
    edges = [min(a, math.pi - a) for a in angles if a > 0.0]
    return lemma, param, lemma_sigma_cap(lemma, profile, param, min(edges)) if edges else None


@dataclass(frozen=True)
class StructuralCheckConfig:
    """One structural-floor verification job.

    angles live in [0, pi); a zero angle requests the complementary
    near-stationarity check at the target itself instead of a floor
    test. sigma must respect the cap of `verify_lemma`.
    """

    surrogate: SurrogateSpec
    noise: NoiseStrategy
    marginal: MarginalSampler
    profile: BoundedProfile
    angles: tuple[float, ...]
    mc_samples: int = 1 << 15
    confidence_sigmas: float = 3.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        if not self.angles:
            raise ValueError("angles must be non-empty")
        if not 2 <= self.mc_samples <= MAX_MC_SAMPLES:
            raise ValueError(f"mc_samples must lie in [2, {MAX_MC_SAMPLES}], got {self.mc_samples!r}")
        if self.marginal.dim < 2:
            # the plane through the target needs a direction orthogonal to it
            raise ValueError(f"verify needs marginal dim >= 2, got dim = {self.marginal.dim!r}")
        if not (math.isfinite(self.confidence_sigmas) and self.confidence_sigmas > 0.0):
            raise ValueError(f"confidence_sigmas must be finite and positive, got {self.confidence_sigmas!r}")
        if self.noise.model == MODEL_STRONG and self.surrogate.kind != "sigmoid":
            raise ValueError("the strong-noise floor is only stated for the sigmoid surrogate")
        lemma, _, cap = verify_lemma(self.surrogate.kind, self.noise, self.profile, self.angles)
        if cap is not None and self.surrogate.sigma > cap * (1.0 + 1e-12):
            raise ValueError(f"sigma {self.surrogate.sigma} exceeds the {lemma} cap {cap} at the window edge")


@dataclass(frozen=True)
class AngleGapResult:
    theta: float
    sigma: float
    floor: float
    estimate: float   # lower-bound estimate of the population gradient norm
    stderr: float
    samples: int
    verdict: str      # "pass" or "fail"
    good_mass: float  # gradient mass pulled by the good region
    bad_mass: float   # mass pushed back by its complement


@dataclass(frozen=True)
class StructuralReport:
    lemma_kind: str
    floor: float
    results: tuple[AngleGapResult, ...] = field(default_factory=tuple)


def _estimate_angle(
    config: StructuralCheckConfig,
    target: np.ndarray,
    theta: float,
    plane: PlaneDensity,
    floor: float,
    rng: np.random.Generator,
) -> AngleGapResult:
    dim = config.marginal.dim
    sigma = config.surrogate.sigma
    mix = MIXTURE_WEIGHT
    # The derivative weight dies off within a few sigma of the margin, so
    # the proposal spends most of its draws on a Laplace band slightly
    # wider than that; the marginal mixture component keeps importance
    # weights bounded by 1/(1 - mix) everywhere else.
    lap_scale = 1.5 * sigma

    # Random plane through the target: w sits at angle theta inside it and
    # b1 completes the frame with <target, b1> = sin(theta).
    norm = 0.0
    while norm < 1e-12:  # a redraw is essentially impossible, but cheap to guard
        z = rng.standard_normal(dim)
        z -= (z @ target) * target
        norm = math.sqrt(float(z @ z))
    span = z / norm
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    w_hat = cos_t * target + sin_t * span
    b1 = sin_t * target - cos_t * span

    # Sums and squared sums of the chunk means of (contrib, good, bad).
    sums, sqs = np.zeros(3), np.zeros(3)
    chunks, want = 0, max(2, math.ceil(config.mc_samples / _CHUNK))
    target_stderr = floor * STDERR_FLOOR_FRACTION
    # Buffers for every chunk of this angle. Each in-place step below keeps
    # the association of the whole-array expression in its comment.
    m, weight, v, margin, tmp, good, bad = (np.empty(_CHUNK) for _ in range(7))
    xs = np.empty((_CHUNK, dim))
    mask = np.empty(_CHUNK, dtype=bool)
    while True:
        # m: a Laplace draw where uniform < mix, a marginal draw elsewhere
        np.less(rng.random(out=tmp), mix, out=mask)
        k = np.count_nonzero(mask)
        m[mask] = rng.laplace(0.0, lap_scale, k)
        m[np.logical_not(mask, out=mask)] = plane.sample_marginal(_CHUNK - k, rng)
        marg = plane.marginal_pdf(m)
        # weight = marg / (mix * laplace_pdf + (1 - mix) * marg),
        # laplace_pdf = exp(-|m| / lap_scale) / (2 lap_scale)
        np.negative(np.abs(m, out=weight), out=weight)
        weight /= lap_scale
        np.exp(weight, out=weight)
        weight /= 2.0 * lap_scale
        weight *= mix
        weight += np.multiply(marg, 1.0 - mix, out=tmp)
        np.divide(marg, weight, out=weight)
        # Stratified conditional coordinate: one uniform per equal-mass
        # stratum, shuffled against the m draws, pushed through the
        # conditional quantile function.
        # v = (permutation + uniform) / _CHUNK
        perm = rng.permutation(_CHUNK)
        rng.random(out=v)
        v += perm
        v /= _CHUNK
        np.clip(v, 1e-12, 1.0 - 1e-12, out=v)
        # u = the quantile where marg > 0, else 0
        u = plane.conditional_inverse_cdf(m, v)
        u[np.logical_not(np.greater(marg, 0.0, out=mask), out=mask)] = 0.0
        # s = sign(cos_t * m + sin_t * u)
        np.multiply(m, cos_t, out=margin)
        margin += np.multiply(u, sin_t, out=tmp)
        s = sign_of(margin)
        # xs = m[:, None] * w_hat + u[:, None] * b1
        if dim <= _COLUMN_BUILD_DIM:
            for j in range(dim):
                col = xs[:, j]
                np.multiply(m, w_hat[j], out=col)
                col += np.multiply(u, b1[j], out=tmp)
        else:
            np.multiply(m[:, None], w_hat, out=xs)
            xs += u[:, None] * b1
        # contrib = -(1 - 2 rates) * s * D(m) * u * weight, left to right
        contrib = noise_rates(config.noise, target, xs)
        contrib *= 2.0
        np.subtract(1.0, contrib, out=contrib)
        np.negative(contrib, out=contrib)
        contrib *= s
        contrib *= surrogate_derivative(config.surrogate, m)
        contrib *= u
        contrib *= weight
        # good = -contrib where u * s > 0, bad = contrib elsewhere. The mask
        # product leaves some zeros as -0.0, which changes no sum; a
        # non-finite contrib makes the stderr NaN and the angle underpowered
        # whatever good and bad hold.
        np.greater(np.multiply(u, s, out=tmp), 0.0, out=mask)
        np.multiply(np.negative(contrib, out=good), mask, out=good)
        np.multiply(contrib, np.logical_not(mask, out=mask), out=bad)
        chunks += 1
        for i, arr in enumerate((contrib, good, bad)):
            mi = float(arr.sum()) / _CHUNK  # arr.mean(), without its Python overhead
            sums[i] += mi
            sqs[i] += mi * mi
        if chunks < want:
            continue
        n = chunks * _CHUNK
        mean = sums[0] / chunks
        stderr = math.sqrt(max(sqs[0] - chunks * mean * mean, 0.0) / (chunks - 1) / chunks)
        if chunks >= _MIN_CHUNKS and stderr <= target_stderr:
            break
        if n + _CHUNK > MC_SAMPLE_CAP:
            raise UnderpoweredCheckError(
                f"gradient-norm stderr {stderr:.3g} still above target "
                f"{target_stderr:.3g} after {n} samples at theta={theta:.6g}"
            )
        # double the sample, up to the cap
        want += min(chunks, (MC_SAMPLE_CAP - n) // _CHUNK)

    estimate = abs(mean)
    if theta == 0.0:
        # The floor is vacuous at the target; check near-stationarity instead.
        verdict = "pass" if estimate <= config.confidence_sigmas * stderr else "fail"
    else:
        verdict = "pass" if estimate >= floor - config.confidence_sigmas * stderr else "fail"
    return AngleGapResult(
        theta=theta,
        sigma=sigma,
        floor=floor,
        estimate=estimate,
        stderr=stderr,
        samples=n,
        verdict=verdict,
        good_mass=sums[1] / chunks,
        bad_mass=sums[2] / chunks,
    )


def verify_stationary_gap(config: StructuralCheckConfig, target: np.ndarray) -> StructuralReport:
    """Test the gradient-norm floor at every configured angle from target.

    Each angle gets its own RNG substream and its own uniformly random
    2-d plane through the target, so no coordinate axis is privileged.
    Each angle is sized by the rule in the module docstring; an
    underpowered angle raises instead of returning a verdict.
    """
    target = require_unit(target, "target")
    if target.shape[0] != config.marginal.dim:
        raise ValueError(
            f"target dimension {target.shape[0]} does not match marginal dimension "
            f"{config.marginal.dim}"
        )
    plane = plane_density(config.marginal.kind, config.marginal.dim)
    lemma, param, _ = verify_lemma(config.surrogate.kind, config.noise, config.profile, config.angles)
    floor = lemma_gradient_floor(lemma, config.profile, param)
    results = []
    for i, theta in enumerate(config.angles):
        rng = make_rng(config.seed, STREAM_VERIFY, i)
        results.append(_estimate_angle(config, target, theta, plane, floor, rng))
    return StructuralReport(lemma_kind=lemma, floor=floor, results=tuple(results))
