"""End-to-end halfspace learners for the two noise regimes.

The pipeline is shared: run projected SGD on the sigmoid surrogate,
collect every recorded iterate and its negation as candidates, then pick
the candidate with the smallest empirical zero-one error on a fresh
selection sample. The structural theory guarantees that approximate
stationarity at a suitable smoothing width forces a small angle to the
target (up to sign), and selection converts "one candidate is good" into
"the returned hypothesis is good".

The learner reads its noise class from the oracle's NoiseStrategy
(`strategy.model`): a Massart ceiling eta = eta_bound < 1/2, or for
strong_massart_max the margin slope c = c_strong, needed in (0, 1].

Two scheduling modes are provided.

theoretical:
    The proof-driven schedule with all hidden constants set to one, using
    profile constants (density bound U, inner radius R, tail radius t).
    For the bounded regime with noise ceiling eta and accuracy eps:

        C1 = (U/R)^12,  C2 = R/U^2
        T     = C1 * d * t(eps/2)^8 / (eps^4 (1-2 eta)^10) * ln(1/delta)
        beta  = C2^2 * d * (1-2 eta)^3 * eps^2 / (t(eps/2)^4 * sqrt(T))
        sigma = C2 * sqrt(1-2 eta) * eps / t(eps/2)^2, capped at the
                sigmoid stationarity cap for the target angle
        N     = ceil(ln(T/delta) / (eps^2 (1-2 eta)^2))

    For the strong regime with margin slope c: C1 = U^12/R^18,
    C2 = R^(3/2)/U^2, T = C1*d*t(eps/2)^8/(eps^4 c^6)*ln(1/delta),
    beta = C2^2*d*c^3*eps^2/(t(eps/2)^4 sqrt(T)),
    sigma = C2*sqrt(c)*eps/t(eps/2)^2 with the strong cap, and
    N = ceil(ln(T/delta)/eps^2). The learner internally budgets for
    accuracy eps/2 (optimization and selection each get half), so each
    schedule is evaluated at eps/2.

practical:
    Desk-scale calibrated defaults: T = 2e5 * d / (eps^2 (1-2 eta)^2)
    capped at 1e6 (c replaces (1-2 eta) in the strong regime),
    beta = 1/sqrt(T), sigma = 0.25, and a Hoeffding-sized selection
    sample with constant 50. Any stationary point of the sigmoid
    surrogate inherits the structural guarantee, so hyperparameters that
    reach stationarity faster than the worst-case schedule are sound.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .geometry import BoundedProfile
from .noise import MODEL_STRONG, MassartOracle, NoiseStrategy
from .psgd import PsgdConfig, Trajectory, psgd_run, recorded_count
from .rng import STREAM_SELECT
from .surrogate import SurrogateSpec, sigmoid_slope
from .verify import lemma_sigma_cap, verify_lemma

MODES = ("theoretical", "practical")

PRACTICAL_STEPS_CAP = 1_000_000
PRACTICAL_STEPS_SCALE = 2.0e5
PRACTICAL_SIGMA = 0.25
PRACTICAL_SELECTION_SCALE = 50.0
DEFAULT_CANDIDATE_RECORDINGS = 50


@dataclass(frozen=True)
class LearnParams:
    """What the learner is allowed to assume beyond the noise class, which
    it reads from its oracle's strategy, and how hard to try."""

    eps: float
    profile: BoundedProfile
    delta: float = 0.1
    mode: str = "practical"
    budget: int | None = None        # refuse schedules whose T exceeds this
    record_every: int = 0            # 0 = auto (about 50 recordings)
    steps_override: int | None = None
    step_size_override: float | None = None
    sigma_override: float | None = None
    selection_override: int | None = None

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie in (0, 1), got {self.eps!r}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("steps_override", "selection_override"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value!r}")
        if self.record_every < 0:
            raise ValueError(f"record_every must be non-negative (0 = auto), got {self.record_every!r}")


@dataclass(frozen=True)
class Schedule:
    """What learn() runs, checked when built: the one planner is schedule_for."""

    steps: int
    step_size: float
    sigma: float
    selection_samples: int
    record_every: int
    theta_target: float
    sigma_cap: float

    def __post_init__(self):
        SurrogateSpec(kind="sigmoid", sigma=self.sigma)  # refuses a bad width first,
        self.psgd  # then PsgdConfig a bad step count, step size or recording
        recorded = recorded_count(self.steps, self.record_every)
        if recorded > _BLOCK_PRODUCTS:  # a selection block holds one point per recorded iterate
            raise ValueError(f"steps = {self.steps} with record_every = {self.record_every} record "
                             f"{recorded} iterates, more than the {_BLOCK_PRODUCTS} a selection block can count")

    @property
    def psgd(self) -> PsgdConfig:
        """The PSGD run learn() makes."""
        return PsgdConfig(steps=self.steps, step_size=self.step_size, record_every=self.record_every)

    @property
    def candidate_count(self) -> int:
        """Recorded iterates of the PSGD run, each with its negation."""
        return 2 * recorded_count(self.steps, self.record_every)


def _selection_count(params: LearnParams, steps: int, record_every: int, gap_sq: float) -> int:
    """Hoeffding-style selection sample size; gap_sq is the squared
    resolution (eps*(1-2 eta))^2 or eps^2 the sample must distinguish."""
    if params.selection_override is not None:
        return params.selection_override
    if params.mode == "theoretical":
        return max(2, math.ceil(math.log(steps / params.delta) / gap_sq))
    return max(2, math.ceil(
        PRACTICAL_SELECTION_SCALE * math.log(2 * recorded_count(steps, record_every) / params.delta) / gap_sq
    ))


def schedule_for(params: LearnParams, noise: NoiseStrategy, dim: int) -> Schedule:
    """Hyperparameters for learning under the noise class of noise in dimension dim."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    prof = params.profile
    U, R = prof.density_bound, prof.inner_radius
    # The sigma cap's lemma and its noise parameter (eta_bound or c_strong).
    cap_kind, cap_param = verify_lemma("sigmoid", noise, prof, ())[:2]
    # Per regime: the gap (1 - 2 eta or c) and its exponent in T, the
    # separation factor that scales the target angle and the selection
    # resolution, and the hidden-constant factors C1(U, R), C2(U, R) of the
    # theoretical schedule.
    if noise.model == MODEL_STRONG:
        if noise.c_strong > 1.0:
            raise ValueError(f"strong regime needs c_strong in (0, 1], got {noise.c_strong!r}")
        power, gap_key = 6, "c_strong"
        gap, separation = noise.c_strong, 1.0
        c1, c2 = U**12 / R**18, R**1.5 / U**2
    else:
        power, gap_key = 10, "eta_bound"
        gap = separation = 1.0 - 2.0 * noise.eta_bound
        c1, c2 = (U / R) ** 12, R / U**2
    theoretical = params.mode == "theoretical"
    # theoretical: half the budget to optimization, half to selection
    eps = params.eps / 2.0 if theoretical else params.eps
    try:
        t = float(prof.tail_radius(eps / 2.0))
        theta_target = eps * separation / (U * t**2)
        if not theta_target > 0.0:
            raise FloatingPointError("the target angle underflows to 0")
        sigma_cap = lemma_sigma_cap(cap_kind, prof, cap_param, theta_target)
        if theoretical:
            steps = int(math.ceil(c1 * dim * t**8 / (eps**4 * gap**power) * math.log(1.0 / params.delta)))
            sigma = min(c2 * math.sqrt(gap) * eps / t**2, sigma_cap)
            beta = c2**2 * dim * gap**3 * eps**2 / (t**4 * math.sqrt(steps))
        else:
            steps = min(PRACTICAL_STEPS_CAP, int(math.ceil(PRACTICAL_STEPS_SCALE * dim / (eps**2 * gap**2))))
            sigma = PRACTICAL_SIGMA
            beta = 1.0 / math.sqrt(steps)
        if params.steps_override is not None:
            steps = params.steps_override
        if params.budget is not None and steps > params.budget:
            raise ValueError(
                f"scheduled iteration count {steps} exceeds the configured budget {params.budget}")
        record_every = params.record_every or max(1, math.ceil(steps / DEFAULT_CANDIDATE_RECORDINGS))
        return Schedule(
            steps=steps,
            step_size=params.step_size_override if params.step_size_override is not None else beta,
            sigma=params.sigma_override if params.sigma_override is not None else sigma,
            selection_samples=_selection_count(params, steps, record_every, (eps * separation) ** 2),
            record_every=record_every,
            theta_target=theta_target,
            sigma_cap=sigma_cap,
        )
    except ArithmeticError:  # an angle or resolution that underflows to 0, or a count past the float range
        named = f"eps = {params.eps!r}, {gap_key} = {cap_param!r}, delta = {params.delta!r}"
        raise ValueError(f"{named} give a {params.mode} schedule too large to represent") from None


# The selection count works through blocks of about this many candidate-point
# products (4 MB of float64), few enough to stay in cache.
_BLOCK_PRODUCTS = 1 << 19


def _select(half: np.ndarray, slabs, n: int) -> np.ndarray:
    """Selection errors of the candidates [half; -half] over n points arriving
    as label-folded slabs (z = y * x, y < 0), in candidate_step_sign's layout.

    Only half is multiplied. A w misses a point where <w, z> < 0, or at the
    tie <w, x> = 0, which predicts +1 as in sign_of, where y < 0. Off the
    ties exactly one of w and -w misses, and at a tie both predict +1, so
    wrong(-w) = n - wrong(w) + sum over ties of (2 [y < 0] - 1).
    """
    k = half.shape[0]
    wrong, shift = np.zeros(k), np.zeros(k)
    rows = max(1, _BLOCK_PRODUCTS // k)
    for zs, neg in slabs:
        for lo in range(0, zs.shape[0], rows):
            # (k, rows): one contiguous row per candidate, so the count runs along rows
            prods = half @ zs[lo : lo + rows].T
            if not np.isfinite(prods).all():
                raise ValueError("selection products must be finite")
            # one count per row: numpy's axis=1 count costs about as much as the matmul
            wrong += [np.count_nonzero(row) for row in prods < 0.0]
            if not prods.all():  # a tie: rare on a continuous marginal
                tie = prods == 0.0
                tie_neg = np.count_nonzero(tie & neg[lo : lo + rows], axis=1)
                wrong += tie_neg
                shift += 2 * tie_neg - np.count_nonzero(tie, axis=1)
            del prods
        # only one slab may be alive: the next one is drawn when the loop resumes
        del zs, neg
    return np.concatenate([wrong, n - wrong + shift]) / n


def select_hypothesis(
    candidates: np.ndarray, xs: np.ndarray, ys: np.ndarray, chunk: int = 1 << 15
) -> tuple[int, float, np.ndarray]:
    """Index, error, and full error vector of the empirically best candidate.

    Error is the mean zero-one disagreement between sign(<c, x>) and the
    label y = +-1. The argmin takes the first minimizer, so candidate
    order encodes the tie-breaking policy. Counted by the learner's
    selection routine on label-folded chunks, keeping the candidates' half
    of its errors.
    """
    candidates = np.asarray(candidates, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if candidates.ndim != 2 or candidates.shape[0] == 0:
        raise ValueError(f"candidates must be a non-empty (k, d) array, got shape {candidates.shape}")
    if xs.ndim != 2 or xs.shape[1] != candidates.shape[1]:
        raise ValueError(f"points must be an (n, {candidates.shape[1]}) array, got shape {xs.shape}")
    n = xs.shape[0]
    if n == 0:
        raise ValueError("selection sample is empty")
    if ys.shape != (n,) or not np.all(np.abs(ys) == 1.0):
        raise ValueError(f"labels must be {n} values of +1 or -1, one per point")
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk!r}")
    chunks = (slice(lo, lo + chunk) for lo in range(0, n, chunk))
    folded = ((xs[c] * ys[c, None], ys[c] < 0.0) for c in chunks)
    errors = _select(candidates, folded, n)[: candidates.shape[0]]
    idx = int(np.argmin(errors))
    return idx, float(errors[idx]), errors


def excess_to_target_error(excess: float, eta_bound: float) -> float:
    """Bound on disagreement with the target from excess error over OPT.

    In the bounded regime every disagreement point contributes at least
    (1 - 2*eta_bound) excess error, so disagreement <= excess / (1-2 eta).
    """
    if not (0.0 <= eta_bound < 0.5):
        raise ValueError(f"eta_bound must lie in [0, 1/2), got {eta_bound!r}")
    return excess / (1.0 - 2.0 * eta_bound)


def candidate_step_sign(step_indices: np.ndarray, j: int) -> tuple[int, int]:
    """PSGD step and sign of candidate j of a trajectory recorded at
    step_indices: the recorded iterates in step order, then their negations."""
    k = len(step_indices)
    return int(step_indices[j % k]), 1 if j < k else -1


@dataclass(frozen=True)
class LearnReport:
    """A learn() run: candidate_step_sign(trajectory.step_indices, chosen_index)
    names the chosen candidate's PSGD step and sign."""

    chosen: np.ndarray
    chosen_index: int
    candidate_errors: np.ndarray  # selection error of each candidate
    schedule: Schedule
    trajectory: Trajectory
    wall_time_s: float

    @property
    def candidate_count(self) -> int:
        return self.schedule.candidate_count


# Examples are pulled from the oracle in batches of this size during PSGD,
# and the selection sample streams through in larger slabs.
_STREAM_CHUNK = 8192
_SELECT_CHUNK = 1 << 17


def learn(oracle: MassartOracle, params: LearnParams, psgd_seed: int = 0) -> LearnReport:
    """Run the full pipeline against a noisy example oracle.

    The PSGD stream consumes the oracle's own substreams (one example per
    step); the selection sample comes from a derived oracle, so the two
    are disjoint by construction. Total sample usage is exactly
    steps + selection_samples.

    PSGD starts at e_1 and sees each example label-folded, z = y * x, as one flat
    tuple (z0, ..., z{d-1}, ||z||^2): a margin loss whose slope dloss is
    surrogate.sigmoid_slope and whose projection norm is a scalar formula (`psgd`).
    Selection multiplies only the recorded iterates. PSGD draws nothing, so
    psgd_seed is ignored; it stays while the benchmark's learn() wrapper passes it.
    """
    t0 = time.perf_counter()
    dim = oracle.marginal.dim
    sched = schedule_for(params, oracle.strategy, dim)

    def batch(n):  # flat (z0, ..., z{d-1}, zz) tuples, as psgd_run unpacks them
        drawn = oracle.draw(n)
        zs = drawn.xs
        zs *= drawn.ys[:, None]  # label-folded in place, exact: y = +-1
        return zip(*zs.T.tolist(), np.einsum("ij,ij->i", zs, zs).tolist())

    examples = chain.from_iterable(map(batch, repeat(_STREAM_CHUNK)))
    trajectory = psgd_run(examples, sched.psgd, np.eye(1, dim)[0], dloss=sigmoid_slope(sched.sigma))

    sel_oracle = oracle.spawn(STREAM_SELECT)
    n = sched.selection_samples

    def slabs():
        for lo in range(0, n, _SELECT_CHUNK):
            sel = sel_oracle.draw(min(_SELECT_CHUNK, n - lo))
            zs = sel.xs
            zs *= sel.ys[:, None]  # label-folded in place, exact: y = +-1
            yield zs, sel.ys < 0.0
            del sel, zs  # dead before the next slab is drawn

    # candidate_step_sign's layout, the recorded iterates then their negations:
    # the first-argmin selection prefers +w over -w and earlier steps over later ones
    errors = _select(trajectory.iterates, slabs(), n)
    idx = int(np.argmin(errors))
    sign = candidate_step_sign(trajectory.step_indices, idx)[1]

    return LearnReport(
        chosen=sign * trajectory.iterates[idx % len(trajectory)],
        chosen_index=idx,
        candidate_errors=errors,
        schedule=sched,
        trajectory=trajectory,
        wall_time_s=time.perf_counter() - t0,
    )
