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
the derivative actually lives. The margin kinds' noise rates read each
point's margin <w*, x> = m cos(theta) + u sin(theta) in closed form, from
its coordinates (m, u) along (w, b1). Only the random_measurable hash reads
the points embedded back into R^d, so it checks an (equally admissible)
in-plane adversary rather than the ambient one.

Sample size. Points come in chunks of _CHUNK and the stderr is taken over
the chunk means. The first round draws max(2, ceil(mc_samples / _CHUNK))
chunks and each later round doubles the count, trimmed to MC_SAMPLE_CAP
samples, until _MIN_CHUNKS chunks exist and the stderr is at most
STDERR_FLOOR_FRACTION of the floor. Once no chunk fits under the cap, an
UnderpoweredCheckError names the samples reached. It is raised at the end
of an earlier round too if the stderr, carried to the cap at the round's
spread of chunk means, would still be over _HOPELESS_RATIO times the
target: the sample stderr overstates the true one by that factor with
probability at most 1 / _HOPELESS_RATIO**2 (Markov's inequality on the
sample variance), so such an angle would end underpowered anyway, after
drawing up to the cap.

Chunk cost. The output bits are fixed by the order and size of every
random draw (the band uniforms, the Laplace draws, the marginal's beta
draws and sign uniforms, the stratum permutation and its uniforms) and by
the association of each whole-array expression a chunk evaluates; none is
a matrix product. An angle's points sit in one (d, _CHUNK) buffer, each
coordinate row built as m * w_hat + u * b1, and only the hash reads them.

Threads. The angles of a check share nothing they write: each has its own
generator, plane and point buffer, and numpy and scipy release the GIL inside
their array loops and generator fills. `verify_stationary_gap` estimates
them on min(usable cores, angles) threads, fewer where the angles' point
buffers would pass _THREAD_BUFFER_BYTES together, and reads the results
in angle order, so the report, and the exception that escapes when angles
raise, are those of a plain loop over the angles at any thread count.
Each angle runs in a copy of the caller's context, so numpy's errstate
reaches it. Once an angle raises, no further angle starts and the running
ones stop at their next chunk.
"""
from __future__ import annotations

import contextvars
import math
import os
import threading
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
# An angle whose stderr would miss the target by more than this factor even
# at the cap raises without drawing on (see "Sample size" in the module docstring).
_HOPELESS_RATIO = 1000.0
# The angle threads of a check together hold at most this many bytes of
# (d, _CHUNK) point buffers, or one angle's where that alone is more.
_THREAD_BUFFER_BYTES = 1 << 28

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
    stop: threading.Event,
) -> AngleGapResult | None:
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
    xs = np.empty((dim, _CHUNK))  # the points of every chunk of this angle, one per column
    while True:
        if stop.is_set():
            return None  # the check has already raised; nothing reads this angle
        # m: a Laplace draw where uniform < mix, a marginal draw elsewhere
        from_band = rng.random(_CHUNK) < mix
        k = np.count_nonzero(from_band)
        m = np.empty(_CHUNK)
        m[from_band] = rng.laplace(0.0, lap_scale, k)
        m[~from_band] = plane.sample_marginal(_CHUNK - k, rng)
        marg = plane.marginal_pdf(m)
        laplace_pdf = np.exp(-np.abs(m) / lap_scale) / (2.0 * lap_scale)
        weight = marg / (mix * laplace_pdf + (1.0 - mix) * marg)
        # Stratified conditional coordinate: one uniform per equal-mass
        # stratum, shuffled against the m draws, pushed through the
        # conditional quantile function.
        v = (rng.permutation(_CHUNK) + rng.random(_CHUNK)) / _CHUNK
        np.clip(v, 1e-12, 1.0 - 1e-12, out=v)
        u = plane.conditional_inverse_cdf(m, v)
        u[~(marg > 0.0)] = 0.0
        margin = cos_t * m + sin_t * u  # <target, x> of each point
        s = sign_of(margin)
        for j in range(dim):  # xs.T = m[:, None] * w_hat + u[:, None] * b1
            np.multiply(m, w_hat[j], out=xs[j])
            xs[j] += u * b1[j]
        contrib = (-(1.0 - 2.0 * noise_rates(config.noise, xs.T, margin)) * s
                   * surrogate_derivative(config.surrogate, m) * u * weight)
        # good = -contrib where u * s > 0, bad = contrib elsewhere. Zeros of -0.0
        # change no sum; a non-finite contrib makes the stderr NaN and the angle
        # underpowered whatever good and bad hold.
        in_good = u * s > 0.0
        good = -contrib * in_good
        bad = contrib * ~in_good
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
        # the stderr the cap would reach at this spread of chunk means
        at_cap = stderr * math.sqrt(chunks / (MC_SAMPLE_CAP // _CHUNK))
        if n + _CHUNK > MC_SAMPLE_CAP or at_cap > _HOPELESS_RATIO * target_stderr:
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
    return AngleGapResult(theta=theta, sigma=sigma, floor=floor, estimate=estimate, stderr=stderr,
                          samples=n, verdict=verdict, good_mass=sums[1] / chunks, bad_mass=sums[2] / chunks)


def _usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def verify_stationary_gap(config: StructuralCheckConfig, target: np.ndarray) -> StructuralReport:
    """Test the gradient-norm floor at every configured angle from target.

    Each angle gets its own RNG substream and its own uniformly random
    2-d plane through the target, so no coordinate axis is privileged.
    Each angle is sized by the rule in the module docstring; an
    underpowered angle raises instead of returning a verdict.

    The angles are estimated concurrently, on one thread per usable core
    up to one per angle and within _THREAD_BUFFER_BYTES of point buffers;
    see "Threads" in the module docstring.
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
    # imported here, as scipy is in plane_density: a learn run never pays for it
    from concurrent.futures import ThreadPoolExecutor

    buffer_bytes = _CHUNK * config.marginal.dim * 8  # one angle's xs
    threads = min(_usable_cores(), len(config.angles), max(1, _THREAD_BUFFER_BYTES // buffer_bytes))
    stop = threading.Event()
    with ThreadPoolExecutor(threads) as pool:
        try:
            futures = [
                # in a copy of the caller's context, which holds numpy's errstate
                pool.submit(contextvars.copy_context().run, _estimate_angle, config, target, theta,
                            plane, floor, make_rng(config.seed, STREAM_VERIFY, i), stop)
                for i, theta in enumerate(config.angles)
            ]
            # in angle order, so the first angle that raises decides, as in a loop
            results = tuple(future.result() for future in futures)
        except BaseException:  # Ctrl-C included
            pool.shutdown(wait=False, cancel_futures=True)  # no queued angle starts
            stop.set()  # and the running ones return at their next chunk
            raise
    return StructuralReport(lemma_kind=lemma, floor=floor, results=results)
