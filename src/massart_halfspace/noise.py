"""Label-noise adversaries and the noisy example oracle.

A noise strategy fixes a measurable flip-rate function eta(x). The
bounded menu keeps eta(x) <= eta_bound < 1/2 everywhere (the classic
bounded instance-dependent regime); `strong_massart_max` instead
saturates the margin-dependent ceiling eta(x) = max(1/2 - c*|<w*,x>|, 0),
which approaches 1/2 arbitrarily close to the target boundary.

`MassartOracle.draw` samples points from a marginal substream and flips
the clean labels sign(<w*, x>) on a second, independent substream. One
uniform is consumed per example regardless of strategy, so oracles that
differ only in strategy see bitwise identical point sequences. That
pairing is what lets experiments attribute outcome differences to the
adversary alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import MarginalSampler
from .geometry import require_unit, sign_of
from .rng import STREAM_FLIP, STREAM_OPT, STREAM_X, derive_seed, make_rng

BOUNDED_NOISE_KINDS = ("none", "constant", "boundary_concentrated", "random_measurable")
NOISE_KINDS = BOUNDED_NOISE_KINDS + ("strong_massart_max",)

# The noise classes a learner is given: a Massart ceiling, or the strong model's margin slope.
MODEL_MASSART = "massart"
MODEL_STRONG = "strong_massart"


@dataclass(frozen=True)
class NoiseStrategy:
    """Configuration of one flip-rate function.

    kind "none" ignores eta_bound when computing rates but may still carry
    a non-zero bound: the bound then documents which adversary class the
    strategy is being compared against (every rate is trivially below it).
    """

    kind: str
    eta_bound: float = 0.0
    c_strong: float = 1.0
    band: float = 0.0
    hash_seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}, expected one of {NOISE_KINDS}")
        if self.model == MODEL_STRONG and not (math.isfinite(self.c_strong) and self.c_strong > 0.0):
            raise ValueError(f"c_strong must be positive, got {self.c_strong!r}")
        if self.model == MODEL_MASSART and not (math.isfinite(self.eta_bound) and 0.0 <= self.eta_bound < 0.5):
            raise ValueError(f"eta_bound must lie in [0, 1/2), got {self.eta_bound!r}")
        if self.kind == "boundary_concentrated" and not (
            math.isfinite(self.band) and self.band > 0.0
        ):
            raise ValueError(f"boundary_concentrated needs a positive band, got {self.band!r}")
        if self.kind == "random_measurable" and not 0 <= self.hash_seed < 2**64:
            raise ValueError(f"hash_seed must be a non-negative 64-bit integer, got {self.hash_seed!r}")

    @property
    def model(self) -> str:
        """The noise class of this strategy: MODEL_STRONG for strong_massart_max, else MODEL_MASSART."""
        return MODEL_STRONG if self.kind == "strong_massart_max" else MODEL_MASSART


# Keyed 64-bit row hash: h starts at hash_seed ^ _HASH_KEY; each coordinate's
# bit pattern is XORed in, _HASH_STEP is added, and the splitmix64 finalizer
# (Steele, Lea and Flood, OOPSLA'14) mixes the state. Every round is a
# bijection of h, so changing one coordinate of a row always changes its hash.
_HASH_KEY = 0x243F6A8885A308D3
_HASH_STEP = np.uint64(0x9E3779B97F4A7C15)
_MUL_1, _MUL_2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHIFT_1, _SHIFT_2, _SHIFT_3 = np.uint64(30), np.uint64(27), np.uint64(31)


def _hash64(xs: np.ndarray, hash_seed: int) -> np.ndarray:
    """Keyed uint64 hash of the float64 bit pattern of each row of xs."""
    bits = np.asarray(xs, dtype=np.float64).view(np.uint64)
    h = np.full(bits.shape[0], int(hash_seed) ^ _HASH_KEY, dtype=np.uint64)
    tmp = np.empty_like(h)  # one shift buffer, reused by every in-place step
    for j in range(bits.shape[1]):
        h ^= bits[:, j]
        h += _HASH_STEP
        h ^= np.right_shift(h, _SHIFT_1, out=tmp)
        h *= _MUL_1
        h ^= np.right_shift(h, _SHIFT_2, out=tmp)
        h *= _MUL_2
        h ^= np.right_shift(h, _SHIFT_3, out=tmp)
    return h


def _hash_unit_floats(xs: np.ndarray, hash_seed: int) -> np.ndarray:
    """Deterministic map from the bit pattern of each row to [0, 1): the top
    53 bits of its hash, so the largest value is 1 - 2**-53."""
    return (_hash64(xs, hash_seed) >> np.uint64(11)) * 2.0**-53


def noise_rates(strategy: NoiseStrategy, xs: np.ndarray, margins: np.ndarray) -> np.ndarray:
    """Flip rate eta(x) of each row of xs, given its margin <target, x>: the
    margin kinds read only the margins, random_measurable only xs."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    margins = np.atleast_1d(margins)
    if margins.shape != xs.shape[:1]:
        raise ValueError(f"need one margin per row of xs, got {margins.shape} for xs of shape {xs.shape}")
    kind = strategy.kind
    if kind == "none":
        return np.zeros(xs.shape[0])
    if kind == "constant":
        return np.full(xs.shape[0], strategy.eta_bound)
    if kind == "random_measurable":
        return strategy.eta_bound * _hash_unit_floats(xs, strategy.hash_seed)
    margins = np.abs(margins)
    if kind == "boundary_concentrated":
        return (margins <= strategy.band) * strategy.eta_bound
    # strong_massart_max
    return np.maximum(0.5 - strategy.c_strong * margins, 0.0)


@dataclass(frozen=True)
class Draw:
    """A batch of noisy labeled examples plus the flip bookkeeping."""

    xs: np.ndarray       # (n, d) points
    ys: np.ndarray       # (n,) noisy labels in {-1, +1}
    flipped: np.ndarray  # (n,) True where the clean label was inverted

    def __len__(self) -> int:
        return self.xs.shape[0]


@dataclass
class MassartOracle:
    """Noisy example oracle for a fixed target halfspace.

    Owns three substreams derived from `seed`, made when it is built: one
    draws the points from the marginal, one the flip decisions, and one
    the fresh points of `opt_error`. `spawn` derives an independent
    oracle (same configuration, disjoint streams) for parallel trials or
    held-out selection samples.
    """

    target: np.ndarray
    strategy: NoiseStrategy
    marginal: MarginalSampler
    seed: int = 0
    _x_rng: np.random.Generator = field(init=False, repr=False, compare=False)
    _flip_rng: np.random.Generator = field(init=False, repr=False, compare=False)
    _opt_rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.target = require_unit(self.target, "target")
        if self.target.shape[0] != self.marginal.dim:
            raise ValueError(
                f"target dimension {self.target.shape[0]} does not match "
                f"marginal dimension {self.marginal.dim}"
            )
        self._x_rng = make_rng(self.seed, STREAM_X)
        self._flip_rng = make_rng(self.seed, STREAM_FLIP)
        self._opt_rng = make_rng(self.seed, STREAM_OPT)

    def spawn(self, *path: int) -> "MassartOracle":
        return MassartOracle(
            target=self.target,
            strategy=self.strategy,
            marginal=self.marginal,
            seed=derive_seed(self.seed, *path),
        )

    def draw(self, n: int) -> Draw:
        """Draw n noisy labeled examples, advancing the oracle streams."""
        xs = self.marginal.sample(n, self._x_rng)
        margins = xs @ self.target
        clean = sign_of(margins)
        rates = noise_rates(self.strategy, xs, margins)
        flips = self._flip_rng.random(n) < rates
        ys = np.where(flips, -clean, clean)
        return Draw(xs=xs, ys=ys, flipped=flips)

    def opt_error(self, n: int) -> tuple[float, float]:
        """Monte-Carlo estimate of the best achievable error E[eta(x)].

        Returns (estimate, standard error). Uses the rate function on a
        dedicated substream of fresh points; no labels are drawn.
        """
        if n < 2:
            raise ValueError("opt_error needs at least 2 samples")
        xs = self.marginal.sample(n, self._opt_rng)
        rates = noise_rates(self.strategy, xs, xs @ self.target)
        est = float(np.mean(rates))
        stderr = float(np.std(rates, ddof=1) / math.sqrt(n))
        return est, stderr
