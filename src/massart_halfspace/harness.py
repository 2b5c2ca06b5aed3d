"""Config-driven experiment orchestration and flat-file result emission.

A run is described by a small config file, either line-oriented

    command = learn
    trials = 10
    marginal.kind = standard_gaussian
    marginal.dim = 10
    noise.kind = boundary_concentrated
    noise.eta_bound = 0.4
    noise.band = 0.2
    learn.eps = 0.05

or the equivalent JSON object (nested keys become dotted keys). Results
land in the output directory as one CSV per command plus a summary.json.
CSV files start with `#`-prefixed provenance lines (schema version,
package version, config hash) and contain no timestamps, so two runs of
the same config differ at most in the wall-time columns.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .distributions import PROFILE_BUILDERS, CertifiedProfile, MarginalSampler
from .errors import ConfigError
from .geometry import require_unit, sign_of
from .learner import MODEL_MASSART, MODEL_STRONG, MODES, LearnParams, learn
from .noise import NOISE_KINDS, MassartOracle, NoiseStrategy
from .rng import derive_seed, make_rng
from .surrogate import SurrogateSpec, per_sample_gradient, per_sample_loss, sample_gradients
from .verify import StructuralCheckConfig, lemma_sigma_cap, verify_stationary_gap

SCHEMA_VERSION = 1
COMMANDS = ("learn", "verify", "gradcheck", "bench")

# Exit codes for run(): config problems are reported before any trial
# starts and use a distinct code so scripts can tell them apart.
EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TRIAL_FAILURES = 2

# Substream roles at the trial layer (the oracle namespaces its own).
_ROLE_ORACLE = 0
_ROLE_PSGD = 1
_ROLE_EVAL = 2
_ROLE_TARGET = 3

_AUTO_PROFILE = {
    "uniform_disk_2d": "disk_exact",
    "standard_gaussian": "gaussian_analytic",
    "uniform_ball_isotropic": "logconcave",
}

_INT_RE = re.compile(r"[+-]?\d+$")


def _parse_scalar(text: str):
    if text in ("true", "false"):
        return text == "true"
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
        return
    if isinstance(value, list):
        value = ",".join(str(v) for v in value)
    out[prefix] = value


def parse_config_text(text: str) -> dict:
    """Flat dotted-key mapping from either config syntax."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("JSON config must be an object at the top level")
        flat: dict = {}
        _flatten("", data, flat)
        return flat
    flat = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in flat:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        flat[key] = _parse_scalar(value)
    return flat


# The output directory cannot affect emitted results. It is excluded from
# the config hash so a rerun into a fresh directory is byte-identical.
_HASH_NEUTRAL_KEYS = frozenset({"out"})


def config_hash(flat: dict) -> str:
    canon = "\n".join(f"{k}={flat[k]}" for k in sorted(flat) if k not in _HASH_NEUTRAL_KEYS)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _floats_from(value, key: str) -> tuple[float, ...]:
    if isinstance(value, (int, float)):
        return (float(value),)
    try:
        return tuple(float(part) for part in str(value).split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"field {key}: expected comma-separated numbers, got {value!r}") from exc


def _names_from(value) -> tuple[str, ...]:
    return tuple(part.strip() for part in str(value).split(",") if part.strip())


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully-typed view of one config file."""

    command: str
    trials: int
    base_seed: int
    out_dir: str
    plots: bool
    marginal_kind: str
    dim: int
    profile_name: str
    noise: NoiseStrategy
    model: str
    mode: str
    eps: float
    delta: float
    budget: int | None
    record_every: int
    steps_override: int | None
    step_size_override: float | None
    sigma_override: float | None
    selection_override: int | None
    eval_samples: int
    min_pass: int
    verify_surrogate: str
    verify_sigma: float | str
    verify_angles: tuple[float, ...]
    verify_strategies: tuple[str, ...]
    verify_mc_samples: int
    verify_confidence: float
    gradcheck_cases: int
    gradcheck_step: float
    gradcheck_tol: float
    bench_samples: int
    flat: dict = field(repr=False)

    @property
    def hash(self) -> str:
        return config_hash(self.flat)

    def certified_profile(self) -> CertifiedProfile:
        return PROFILE_BUILDERS[self.profile_name]()


_KNOWN_KEYS = {
    "command", "trials", "base_seed", "out", "plots",
    "marginal.kind", "marginal.dim", "profile",
    "noise.kind", "noise.eta_bound", "noise.c_strong", "noise.band", "noise.hash_seed",
    "learn.model", "learn.mode", "learn.eps", "learn.delta", "learn.budget",
    "learn.record_every", "learn.steps", "learn.step_size", "learn.sigma",
    "learn.selection",
    "eval.samples", "eval.min_pass",
    "verify.surrogate", "verify.sigma", "verify.angles", "verify.strategies",
    "verify.mc_samples", "verify.confidence_sigmas",
    "gradcheck.cases", "gradcheck.step", "gradcheck.tol",
    "bench.samples",
}


def config_from_mapping(flat: dict) -> ExperimentConfig:
    unknown = sorted(set(flat) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")

    def get(key, default=None):
        return flat.get(key, default)

    def need_type(key, value, kind) -> None:
        if not isinstance(value, kind):
            raise ConfigError(f"field {key}: expected {kind.__name__}, got {value!r}")

    command = get("command")
    if command not in COMMANDS:
        raise ConfigError(f"field command: expected one of {COMMANDS}, got {command!r}")

    trials = get("trials", 1)
    need_type("trials", trials, int)
    if trials < 1:
        raise ConfigError(f"field trials: must be at least 1, got {trials}")

    base_seed = get("base_seed", 0)
    need_type("base_seed", base_seed, int)
    if not (0 <= base_seed < 2**64):
        raise ConfigError(f"field base_seed: must be an unsigned 64-bit integer, got {base_seed}")

    marginal_kind = get("marginal.kind", "standard_gaussian")
    dim = get("marginal.dim", 10)
    need_type("marginal.dim", dim, int)

    profile_name = get("profile", "auto")
    if profile_name == "auto":
        profile_name = _AUTO_PROFILE.get(marginal_kind)
        if profile_name is None:
            raise ConfigError(
                f"field profile: no automatic profile for marginal kind {marginal_kind!r}; "
                "set one explicitly"
            )
    if profile_name not in PROFILE_BUILDERS:
        raise ConfigError(
            f"field profile: expected one of {sorted(PROFILE_BUILDERS)}, got {profile_name!r}"
        )

    noise_kind = get("noise.kind", "none")
    if noise_kind not in NOISE_KINDS:
        raise ConfigError(f"field noise.kind: expected one of {NOISE_KINDS}, got {noise_kind!r}")
    try:
        noise = NoiseStrategy(
            kind=noise_kind,
            eta_bound=float(get("noise.eta_bound", 0.0)),
            c_strong=float(get("noise.c_strong", 1.0)),
            band=float(get("noise.band", 0.0)),
            hash_seed=int(get("noise.hash_seed", 0)),
        )
    except ValueError as exc:
        raise ConfigError(f"noise section: {exc}") from exc

    model = get("learn.model", "auto")
    if model == "auto":
        model = MODEL_STRONG if noise_kind == "strong_massart_max" else MODEL_MASSART
    if model not in (MODEL_MASSART, MODEL_STRONG):
        raise ConfigError(f"field learn.model: got {model!r}")
    mode = get("learn.mode", "practical")
    if mode not in MODES:
        raise ConfigError(f"field learn.mode: expected one of {MODES}, got {mode!r}")

    eval_samples = get("eval.samples", 100_000)
    need_type("eval.samples", eval_samples, int)
    min_pass = get("eval.min_pass", math.ceil(0.9 * trials))
    need_type("eval.min_pass", min_pass, int)
    if not (1 <= min_pass <= trials):
        raise ConfigError(f"field eval.min_pass: must lie in [1, trials = {trials}], got {min_pass}")

    angles = _floats_from(get("verify.angles", "0.7853981633974483"), "verify.angles")
    strategies = _names_from(get("verify.strategies", noise_kind))
    verify_sigma = get("verify.sigma", "cap")
    if not (verify_sigma == "cap" or isinstance(verify_sigma, (int, float))):
        raise ConfigError(f"field verify.sigma: expected 'cap' or a number, got {verify_sigma!r}")

    return ExperimentConfig(
        command=command,
        trials=trials,
        base_seed=base_seed,
        out_dir=str(get("out", "runs")),
        plots=bool(get("plots", False)),
        marginal_kind=marginal_kind,
        dim=dim,
        profile_name=profile_name,
        noise=noise,
        model=model,
        mode=mode,
        eps=float(get("learn.eps", 0.1)),
        delta=float(get("learn.delta", 0.1)),
        budget=get("learn.budget"),
        record_every=int(get("learn.record_every", 0)),
        steps_override=get("learn.steps"),
        step_size_override=get("learn.step_size"),
        sigma_override=get("learn.sigma"),
        selection_override=get("learn.selection"),
        eval_samples=eval_samples,
        min_pass=min_pass,
        verify_surrogate=str(get("verify.surrogate", "sigmoid")),
        verify_sigma=verify_sigma,
        verify_angles=angles,
        verify_strategies=strategies,
        verify_mc_samples=int(get("verify.mc_samples", 1 << 15)),
        verify_confidence=float(get("verify.confidence_sigmas", 3.0)),
        gradcheck_cases=int(get("gradcheck.cases", 200)),
        gradcheck_step=float(get("gradcheck.step", 1e-6)),
        gradcheck_tol=float(get("gradcheck.tol", 1e-5)),
        bench_samples=int(get("bench.samples", 200_000)),
        flat=dict(flat),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_mapping(parse_config_text(text))


def measure_disagreement(
    h: np.ndarray, target: np.ndarray, marginal: MarginalSampler, n: int
) -> tuple[float, float]:
    """Fresh-sample estimate of Pr[sign<h,x> != sign<target,x>].

    Returns (estimate, binomial stderr). Identical h and target give an
    exact zero because the dot products coincide bitwise.
    """
    if n < 1000:
        raise ValueError(f"need at least 1000 evaluation samples, got {n}")
    h = require_unit(h, "hypothesis")
    target = require_unit(target, "target")
    xs = marginal.sample(n)
    disagree = sign_of(xs @ h) != sign_of(xs @ target)
    p = float(np.mean(disagree))
    return p, math.sqrt(p * (1.0 - p) / n)


def _write_csv(path: Path, config: ExperimentConfig, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema_version = {SCHEMA_VERSION}\n")
        fh.write(f"# artifact = massart-halfspace {__version__}\n")
        fh.write(f"# config_hash = {config.hash}\n")
        fh.write(f"# command = {config.command}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_summary(out: Path, config: ExperimentConfig, payload: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    payload = {"config_hash": config.hash, "command": config.command, **payload}
    with open(out / "summary.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / math.sqrt(float(v @ v))


def _run_learn(config: ExperimentConfig, out: Path) -> int:
    params = LearnParams(
        model=config.model,
        eps=config.eps,
        profile=config.certified_profile().profile,
        delta=config.delta,
        eta_bound=config.noise.eta_bound if config.model == MODEL_MASSART else None,
        c_strong=config.noise.c_strong if config.model == MODEL_STRONG else None,
        mode=config.mode,
        budget=config.budget,
        record_every=config.record_every,
        steps_override=config.steps_override,
        step_size_override=config.step_size_override,
        sigma_override=config.sigma_override,
        selection_override=config.selection_override,
    )
    header = [
        "trial", "seed", "disagreement", "disagreement_stderr", "noisy_error",
        "opt_estimate", "opt_stderr", "excess_error", "samples_used", "steps",
        "step_size", "sigma", "selection_samples", "candidate_count",
        "chosen_step", "chosen_sign", "verdict", "wall_time_s",
    ]
    rows: list[list] = []
    curves: list[list] = []
    passes = 0
    aborts = 0
    disagreements: list[float] = []
    excesses: list[float] = []
    for trial in range(config.trials):
        oracle_seed = derive_seed(config.base_seed, trial, _ROLE_ORACLE)
        target = _random_unit(make_rng(config.base_seed, trial, _ROLE_TARGET), config.dim)
        marginal = MarginalSampler(kind=config.marginal_kind, dim=config.dim)
        oracle = MassartOracle(
            target=target, strategy=config.noise, marginal=marginal, seed=oracle_seed
        )
        try:
            report = learn(oracle, params, psgd_seed=derive_seed(config.base_seed, trial, _ROLE_PSGD))
        except Exception as exc:  # recorded, run continues
            aborts += 1
            rows.append(
                [trial, oracle_seed] + [math.nan] * 6
                + [0, 0, math.nan, math.nan, 0, 0, 0, 0, f"abort:{type(exc).__name__}", 0.0]
            )
            continue
        eval_marginal = MarginalSampler(
            kind=config.marginal_kind, dim=config.dim,
            seed=derive_seed(config.base_seed, trial, _ROLE_EVAL),
        )
        dis, dis_se = measure_disagreement(report.chosen, target, eval_marginal, config.eval_samples)
        eval_oracle = oracle.spawn(_ROLE_EVAL)
        batch = eval_oracle.draw(config.eval_samples)
        noisy_err = float(np.mean(sign_of(batch.xs @ report.chosen) != batch.ys))
        opt_est, opt_se = eval_oracle.opt_error(config.eval_samples)
        excess = noisy_err - opt_est
        if config.model == MODEL_MASSART:
            ok = dis <= config.eps + 3.0 * dis_se
        else:
            noisy_se = math.sqrt(max(noisy_err * (1.0 - noisy_err), 0.0) / config.eval_samples)
            ok = excess <= config.eps + 3.0 * math.hypot(noisy_se, opt_se)
        passes += int(ok)
        disagreements.append(dis)
        excesses.append(excess)
        sched = report.schedule
        rows.append([
            trial, oracle_seed, dis, dis_se, noisy_err, opt_est, opt_se, excess,
            report.samples_used, sched.steps, sched.step_size, sched.sigma,
            sched.selection_samples, report.candidate_count, report.chosen_step,
            report.chosen_sign, "pass" if ok else "fail", round(report.wall_time_s, 3),
        ])
        if config.plots:
            k = report.trajectory.iterates.shape[0]
            for j, err in enumerate(report.candidate_errors):
                curves.append([
                    trial, int(report.trajectory.step_indices[j % k]),
                    1 if j < k else -1, float(err),
                ])
    _write_csv(out / "learn.csv", config, header, rows)
    if config.plots:
        _write_csv(out / "learn_curves.csv", config, ["trial", "step", "sign", "selection_error"], curves)
    done = config.trials - aborts
    _write_summary(out, config, {
        "trials": config.trials,
        "passes": passes,
        "failures": config.trials - passes,
        "aborts": aborts,
        "min_pass": config.min_pass,
        "median_disagreement": float(np.median(disagreements)) if disagreements else None,
        "median_excess_error": float(np.median(excesses)) if excesses else None,
        "completed": done,
    })
    return EXIT_OK if passes >= config.min_pass else EXIT_TRIAL_FAILURES


def _verify_sigma_value(config: ExperimentConfig, strategy: NoiseStrategy) -> float:
    if isinstance(config.verify_sigma, (int, float)):
        return float(config.verify_sigma)
    kind = "strong" if strategy.kind == "strong_massart_max" else config.verify_surrogate
    param = strategy.c_strong if kind == "strong" else strategy.eta_bound
    edge = min(min(a, math.pi - a) for a in config.verify_angles if a > 0.0)
    return lemma_sigma_cap(kind, config.certified_profile().profile, param, edge)


def _strategy_variant(config: ExperimentConfig, kind: str) -> NoiseStrategy:
    base = config.noise
    return NoiseStrategy(
        kind=kind, eta_bound=base.eta_bound, c_strong=base.c_strong,
        band=base.band, hash_seed=base.hash_seed,
    )


def _run_verify(config: ExperimentConfig, out: Path) -> int:
    certified = config.certified_profile()
    target = _random_unit(make_rng(config.base_seed, _ROLE_TARGET), config.dim)
    header = [
        "strategy", "lemma", "theta", "sigma", "floor", "estimate", "stderr",
        "samples", "good_mass", "bad_mass", "verdict",
    ]
    rows: list[list] = []
    failures = 0
    aborts = 0
    for si, strat_kind in enumerate(config.verify_strategies):
        strategy = _strategy_variant(config, strat_kind)
        sigma = _verify_sigma_value(config, strategy)
        try:
            check = StructuralCheckConfig(
                surrogate=SurrogateSpec(kind=config.verify_surrogate, sigma=sigma),
                noise=strategy,
                marginal=MarginalSampler(kind=config.marginal_kind, dim=config.dim),
                certified=certified,
                angles=config.verify_angles,
                mc_samples=config.verify_mc_samples,
                confidence_sigmas=config.verify_confidence,
                seed=derive_seed(config.base_seed, si),
            )
            report = verify_stationary_gap(check, target)
        except Exception as exc:
            aborts += 1
            rows.append([strat_kind, "?", math.nan, sigma, math.nan, math.nan,
                         math.nan, 0, math.nan, math.nan, f"abort:{type(exc).__name__}"])
            continue
        for res in report.results:
            failures += int(not res.passed)
            rows.append([
                strat_kind, report.lemma_kind, res.theta, res.sigma, res.floor,
                res.estimate, res.stderr, res.samples, res.good_mass, res.bad_mass,
                res.verdict,
            ])
    _write_csv(out / "verify.csv", config, header, rows)
    _write_summary(out, config, {
        "rows": len(rows),
        "failures": failures,
        "aborts": aborts,
        "passes": len(rows) - failures - aborts,
    })
    return EXIT_OK if failures == 0 and aborts == 0 else EXIT_TRIAL_FAILURES


def _finite_difference_gradient(w, x, y, spec, step):
    grad = np.empty_like(w)
    for j in range(w.shape[0]):
        bump = np.zeros_like(w)
        bump[j] = step
        grad[j] = (
            per_sample_loss(w + bump, x, y, spec) - per_sample_loss(w - bump, x, y, spec)
        ) / (2.0 * step)
    return grad


def _run_gradcheck(config: ExperimentConfig, out: Path) -> int:
    rng = make_rng(config.base_seed, _ROLE_ORACLE)
    header = ["case", "dim", "sigma", "grad_norm", "abs_error", "rel_error", "verdict"]
    rows: list[list] = []
    worst_rel = 0.0
    failures = 0
    for case in range(config.gradcheck_cases):
        dim = int(rng.integers(2, 21))
        sigma = float(rng.uniform(0.05, 1.0))
        spec = SurrogateSpec(kind="sigmoid", sigma=sigma)
        w = rng.standard_normal(dim) * float(rng.uniform(0.5, 2.0))
        x = rng.standard_normal(dim)
        y = 1.0 if rng.random() < 0.5 else -1.0
        analytic = per_sample_gradient(w, x, y, spec)
        fd = _finite_difference_gradient(w, x, y, spec, config.gradcheck_step)
        norm = float(np.linalg.norm(analytic))
        abs_err = float(np.linalg.norm(analytic - fd))
        if norm < 1e-3:
            ok = abs_err <= 1e-8
            rel_err = math.nan
        else:
            rel_err = abs_err / norm
            worst_rel = max(worst_rel, rel_err)
            ok = rel_err <= config.gradcheck_tol
        failures += int(not ok)
        rows.append([case, dim, sigma, norm, abs_err, rel_err, "pass" if ok else "fail"])
    _write_csv(out / "gradcheck.csv", config, header, rows)
    _write_summary(out, config, {
        "cases": config.gradcheck_cases,
        "failures": failures,
        "max_rel_error": worst_rel,
        "tolerance": config.gradcheck_tol,
    })
    return EXIT_OK if failures == 0 else EXIT_TRIAL_FAILURES


def _run_bench(config: ExperimentConfig, out: Path) -> int:
    n = config.bench_samples
    marginal = MarginalSampler(
        kind=config.marginal_kind, dim=config.dim, seed=derive_seed(config.base_seed, 0)
    )
    target = _random_unit(make_rng(config.base_seed, _ROLE_TARGET), config.dim)
    oracle = MassartOracle(
        target=target, strategy=config.noise, marginal=marginal.spawn(1),
        seed=derive_seed(config.base_seed, 1),
    )
    rows: list[list] = []

    def timed(component: str, count: int, fn) -> None:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        rows.append([component, count, round(dt, 6), round(1e9 * dt / max(count, 1), 1)])

    timed("marginal_sample", n, lambda: marginal.sample(n))
    timed("oracle_draw", n, lambda: oracle.draw(n))
    batch = oracle.draw(min(n, 65536))
    spec = SurrogateSpec(kind="sigmoid", sigma=0.25)
    w = target.copy()

    timed(
        "sample_gradients", batch.xs.shape[0],
        lambda: sample_gradients(w, batch.xs, batch.ys, spec),
    )
    header = ["component", "count", "wall_time_s", "ns_per_op"]
    _write_csv(out / "bench.csv", config, header, rows)
    _write_summary(out, config, {"components": [r[0] for r in rows]})
    return EXIT_OK


def run(config: ExperimentConfig) -> int:
    """Execute one experiment config; returns the process exit code.

    Trials execute sequentially, each from its own derived seeds.
    """
    out = Path(config.out_dir)
    if config.command == "learn":
        return _run_learn(config, out)
    if config.command == "verify":
        return _run_verify(config, out)
    if config.command == "gradcheck":
        return _run_gradcheck(config, out)
    return _run_bench(config, out)
