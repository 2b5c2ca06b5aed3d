"""Config-driven experiment orchestration and flat-file result emission.

A run is described by a small config file of `key = value` lines:

    command = learn
    trials = 10
    marginal.kind = standard_gaussian
    marginal.dim = 10
    noise.kind = boundary_concentrated
    noise.eta_bound = 0.4
    noise.band = 0.2
    learn.eps = 0.05

`#` starts a comment line, and a key may appear only once. Results
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
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .distributions import PROFILE_BUILDERS, SAMPLER_KINDS, MarginalSampler, plane_density
from .errors import ConfigError, PsgdDivergenceError, UnderpoweredCheckError
from .geometry import BoundedProfile, angle_between, require_unit, sign_of
from .learner import MODES, LearnParams, candidate_step_sign, learn, schedule_for, select_hypothesis
from .noise import MODEL_MASSART, MODEL_STRONG, NOISE_KINDS, MassartOracle, NoiseStrategy
from .rng import derive_seed, make_rng
from .surrogate import SURROGATE_KINDS, SurrogateSpec, per_sample_gradient, per_sample_loss, sample_gradients
from .verify import MC_SAMPLE_CAP, StructuralCheckConfig, verify_lemma, verify_stationary_gap

SCHEMA_VERSION = 1
COMMANDS = ("learn", "verify", "gradcheck", "bench")

# Exit codes for run(): config problems are reported before any trial
# starts and use a distinct code so scripts can tell them apart.
EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TRIAL_FAILURES = 2

# Trial-layer substream roles (the oracle namespaces its own); 1 is unused so 2 and 3 keep their seeds.
_ROLE_ORACLE = 0
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


def parse_config_text(text: str) -> dict:
    """Flat dotted-key mapping from `key = value` lines, each key a SCHEMA key."""
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
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config field {key!r}")
        if key in flat:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        flat[key] = _parse_scalar(value)
    return flat


class Key(NamedTuple):
    """One config key. A range is given only where no domain object checks one."""

    type: str                    # a name in _TYPES
    default: object = None
    choices: tuple = ()          # a str key takes only these; a float key takes them beside numbers
    bounds: tuple | None = None  # an int lies in [lo, hi], a float in (lo, hi)
    neutral: bool = False        # left out of config_hash


def _floats(value) -> tuple | None:
    """Finite floats from one number (ints count, bools do not) or from a string of
    comma-separated numbers; None if value is neither or any of them is not finite."""
    if isinstance(value, bool):
        return None
    try:
        out = tuple(map(float, value.split(","))) if isinstance(value, str) else (float(value),)
    except (TypeError, ValueError, OverflowError):
        return None
    return out if all(map(math.isfinite, out)) else None


# Each type reads a flat value, giving None where the value is not of that type.
_TYPES = {
    "bool": lambda v: v if isinstance(v, bool) else None,
    "int": lambda v: v if isinstance(v, int) and not isinstance(v, bool) else None,
    "float": lambda v: None if isinstance(v, str) or _floats(v) is None else float(v),
    "str": lambda v: v if isinstance(v, str) else None,
    "floats": _floats,
    "names": lambda v: tuple(p.strip() for p in v.split(",")) if isinstance(v, str) else None,
}

_INT64_MAX = 2**63 - 1  # a count or step index the CSVs and summary.json hold is an int64
_MAX_DRAW_FLOATS = 10**8  # one (n, d) float64 draw of points: 800 MB
# The key that sizes each command's draws of points, each of marginal.dim floats
_DRAW_KEYS = {"learn": "eval.samples", "bench": "bench.samples"}

# Every config key. README's "Keys" section states the same table.
SCHEMA = {
    "command": Key("str", None, COMMANDS),
    "trials": Key("int", 1, bounds=(1, _INT64_MAX)),
    "base_seed": Key("int", 0),
    "out": Key("str", "runs", neutral=True),
    "plots": Key("bool", False),
    "marginal.kind": Key("str", "standard_gaussian", SAMPLER_KINDS),
    "marginal.dim": Key("int", 10, bounds=(1, 1000)),  # d floats per PSGD step, n * d per draw
    "profile": Key("str", "auto", ("auto", *PROFILE_BUILDERS)),
    "noise.kind": Key("str", "none", NOISE_KINDS),
    "noise.eta_bound": Key("float", 0.0),
    "noise.c_strong": Key("float", 1.0),
    "noise.band": Key("float", 0.0),
    "noise.hash_seed": Key("int", 0),
    "learn.model": Key("str", "auto", ("auto", MODEL_MASSART, MODEL_STRONG)),
    "learn.mode": Key("str", "practical", MODES),
    "learn.eps": Key("float", 0.1),
    "learn.delta": Key("float", 0.1),
    "learn.budget": Key("int"),
    "learn.record_every": Key("int", 0, bounds=(0, _INT64_MAX)),
    "learn.steps": Key("int", bounds=(1, _INT64_MAX)),
    "learn.step_size": Key("float"),
    "learn.sigma": Key("float"),
    "learn.selection": Key("int", bounds=(1, _INT64_MAX)),
    "eval.samples": Key("int", 100_000, bounds=(1000, MC_SAMPLE_CAP)),  # one array, at most what a verify angle draws
    "eval.min_pass": Key("int", bounds=(1, math.inf)),  # default ceil(0.9 * trials), at most trials
    "verify.surrogate": Key("str", "sigmoid", SURROGATE_KINDS),
    "verify.sigma": Key("float", "cap", ("cap",)),
    "verify.angles": Key("floats", (0.7853981633974483,)),
    "verify.strategies": Key("names"),  # default (noise.kind,)
    "verify.mc_samples": Key("int", 1 << 15),
    "verify.confidence_sigmas": Key("float", 3.0),
    "gradcheck.cases": Key("int", 200, bounds=(1, _INT64_MAX)),
    "gradcheck.step": Key("float", 1e-6, bounds=(0.0, 1.0)),
    "gradcheck.tol": Key("float", 1e-5, bounds=(0.0, math.inf)),
    "bench.samples": Key("int", 200_000, bounds=(1, MC_SAMPLE_CAP)),
}

# Keys that cannot affect emitted results, such as the output directory;
# config_hash leaves them out so a rerun into a fresh directory is byte-identical.
_HASH_NEUTRAL_KEYS = frozenset(key for key, spec in SCHEMA.items() if spec.neutral)


def config_hash(flat: dict) -> str:
    canon = "\n".join(f"{k}={flat[k]}" for k in sorted(flat) if k not in _HASH_NEUTRAL_KEYS)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _typed(key: str, spec: Key, value):
    if value in spec.choices:
        return value
    closed = spec.type == "str" and bool(spec.choices)  # nothing but a choice will do
    typed = None if closed else _TYPES[spec.type](value)
    if typed is None:
        want = f"one of {spec.choices}" if closed else " or ".join([spec.type, *map(repr, spec.choices)])
        raise ConfigError(f"field {key}: expected {want}, got {value!r}")
    lo, hi = spec.bounds or (None, None)
    if lo is not None and not (lo < typed < hi if spec.type == "float" else lo <= typed <= hi):
        interval = f"({lo}, {hi})" if spec.type == "float" else f"[{lo}, {hi}]"
        raise ConfigError(f"field {key}: must lie in {interval}, got {value!r}")
    return typed


@contextmanager
def _section(name: str):
    """Report a refusal of an input, by a domain object or by the OS, as a config error about name."""
    try:
        yield
    except (ValueError, ArithmeticError, OSError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked config: each key's value, defaults and `auto` resolved, and its domain objects."""

    values: dict
    marginal: MarginalSampler
    profile: BoundedProfile
    noise: NoiseStrategy
    params: LearnParams | None  # learn only
    checks: tuple[StructuralCheckConfig, ...]  # verify only, one per strategy
    flat: dict = field(repr=False)

    @property
    def hash(self) -> str:
        return config_hash(self.flat)


def config_from_mapping(flat: dict) -> ExperimentConfig:
    """Check flat against SCHEMA, then build every domain object the command
    uses, so that each object's own checks run before any trial does."""
    unknown = sorted(set(flat) - set(SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    v = {key: _typed(key, spec, flat[key]) if key in flat else spec.default for key, spec in SCHEMA.items()}
    if v["command"] is None:
        raise ConfigError(f"field command: expected one of {COMMANDS}, got None")
    with _section("field base_seed"):
        derive_seed(v["base_seed"])
    trials = v["trials"]
    if v["eval.min_pass"] is None:
        v["eval.min_pass"] = -(-9 * trials // 10)  # ceil(0.9 * trials)
    if v["eval.min_pass"] > trials:
        raise ConfigError(f"field eval.min_pass: must not exceed trials = {trials}, got {v['eval.min_pass']}")
    draw = _DRAW_KEYS.get(v["command"])
    if draw and v[draw] * v["marginal.dim"] > _MAX_DRAW_FLOATS:
        raise ConfigError(f"fields {draw} and marginal.dim: one draw of {v[draw]} x {v['marginal.dim']} "
                          f"floats exceeds {_MAX_DRAW_FLOATS:.0e}")
    if v["profile"] == "auto":
        v["profile"] = _AUTO_PROFILE.get(v["marginal.kind"])
        if v["profile"] is None:
            raise ConfigError(f"field profile: no automatic profile for marginal kind {v['marginal.kind']!r}")
    with _section("marginal section"):
        marginal = MarginalSampler(kind=v["marginal.kind"], dim=v["marginal.dim"])
        if v["command"] == "verify":
            plane_density(marginal.kind, marginal.dim)  # what the verify estimator samples
    with _section("noise section"):
        noise = NoiseStrategy(
            kind=v["noise.kind"], eta_bound=v["noise.eta_bound"], c_strong=v["noise.c_strong"],
            band=v["noise.band"], hash_seed=v["noise.hash_seed"],
        )
    profile = PROFILE_BUILDERS[v["profile"]]()
    if v["command"] == "learn" and v["learn.model"] not in ("auto", noise.model):
        raise ConfigError(f"field learn.model: noise kind {noise.kind!r} is learned by model "
                          f"{noise.model!r}, got {v['learn.model']!r}")
    v["learn.model"] = noise.model
    v["verify.strategies"] = v["verify.strategies"] or (noise.kind,)
    params, checks = None, []
    if v["command"] == "learn":
        with _section("learn section"):
            params = LearnParams(
                eps=v["learn.eps"], profile=profile, delta=v["learn.delta"], mode=v["learn.mode"],
                budget=v["learn.budget"], record_every=v["learn.record_every"],
                steps_override=v["learn.steps"], step_size_override=v["learn.step_size"],
                sigma_override=v["learn.sigma"], selection_override=v["learn.selection"],
            )
            sched = schedule_for(params, noise, marginal.dim)
        for key, count in (("learn.steps", sched.steps), ("learn.selection", sched.selection_samples)):
            if count > _INT64_MAX:  # what the key's own bound refuses
                raise ConfigError(f"learn section: learn.mode = {params.mode} schedules a {key} count of "
                                  f"{count:.3e}, past 2^63 - 1; set {key} to override it")
    if v["command"] == "verify":
        for si, kind in enumerate(v["verify.strategies"]):
            with _section("field verify.strategies"):
                strategy = replace(noise, kind=kind)
            sigma = v["verify.sigma"]
            if sigma == "cap":
                with _section("verify section"):
                    sigma = verify_lemma(v["verify.surrogate"], strategy, profile, v["verify.angles"])[2]
                if sigma is None:
                    raise ConfigError("field verify.sigma: `cap` needs a positive angle in verify.angles")
                if sigma < sys.float_info.min:  # what SurrogateSpec refuses
                    angle = min((a for a in v["verify.angles"] if a > 0.0), key=lambda a: min(a, math.pi - a))
                    raise ConfigError(f"field verify.angles: under verify.sigma = cap, angle {angle!r} gives "
                                      f"sigma = {sigma!r}, below the smallest normal float")
            with _section("verify section"):
                checks.append(StructuralCheckConfig(
                    surrogate=SurrogateSpec(kind=v["verify.surrogate"], sigma=sigma), noise=strategy,
                    marginal=marginal, profile=profile, angles=v["verify.angles"],
                    mc_samples=v["verify.mc_samples"], confidence_sigmas=v["verify.confidence_sigmas"],
                    seed=derive_seed(v["base_seed"], si),
                ))
    return ExperimentConfig(v, marginal, profile, noise, params, tuple(checks), dict(flat))


def read_config(path: str | Path) -> dict:
    """The flat mapping of the config file at path."""
    try:
        return parse_config_text(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_mapping(read_config(path))


def measure_disagreement(
    h: np.ndarray, target: np.ndarray, marginal: MarginalSampler, n: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Estimate of Pr[sign<h,x> != sign<target,x>] on n fresh points drawn from rng.

    Returns (estimate, binomial stderr), counted by select_hypothesis against
    the target's labels. Identical h and target give an exact zero where BLAS
    rounds `xs @ target` and `h @ xs.T` alike, as OpenBLAS does.
    """
    if n < 1000:
        raise ValueError(f"need at least 1000 evaluation samples, got {n}")
    h = require_unit(h, "hypothesis")
    target = require_unit(target, "target")
    xs = marginal.sample(n, rng)
    p = select_hypothesis(h[None, :], xs, sign_of(xs @ target))[1]
    return p, math.sqrt(p * (1.0 - p) / n)


def _write_csv(path: Path, config: ExperimentConfig, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema_version = {SCHEMA_VERSION}\n")
        fh.write(f"# artifact = massart-halfspace {__version__}\n")
        fh.write(f"# config_hash = {config.hash}\n")
        fh.write(f"# command = {config.values['command']}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_summary(out: Path, config: ExperimentConfig, payload: dict) -> None:
    payload = {"config_hash": config.hash, "command": config.values["command"], **payload}
    with open(out / "summary.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / math.sqrt(float(v @ v))


# A trial or verify row that raises one of these is recorded as an abort;
# any other exception is a fault and propagates.
_ABORTS = (PsgdDivergenceError, UnderpoweredCheckError)

# learn.csv's columns in order, each with the value an aborted trial writes
# (None where the trial supplies it).
LEARN_COLUMNS = {
    "trial": None, "seed": None, "disagreement": math.nan, "disagreement_stderr": math.nan,
    "noisy_error": math.nan, "opt_estimate": math.nan, "opt_stderr": math.nan,
    "excess_error": math.nan, "samples_used": 0, "steps": 0, "step_size": math.nan,
    "sigma": math.nan, "selection_samples": 0, "candidate_count": 0, "chosen_step": 0,
    "chosen_sign": 0, "verdict": None, "wall_time_s": 0.0, "angle_to_target": math.nan,
}


def _learn_trial(config: ExperimentConfig, trial: int) -> tuple[dict, list[list]]:
    """One learn trial, a pure function of the config and the trial index:
    its learn.csv row keyed by column, and its learn_curves.csv rows."""
    seed, params, n_eval = config.values["base_seed"], config.params, config.values["eval.samples"]
    oracle_seed = derive_seed(seed, trial, _ROLE_ORACLE)
    target = _random_unit(make_rng(seed, trial, _ROLE_TARGET), config.marginal.dim)
    oracle = MassartOracle(target=target, strategy=config.noise, marginal=config.marginal, seed=oracle_seed)
    try:
        report = learn(oracle, params)
    except _ABORTS as exc:  # recorded, run continues
        return {**LEARN_COLUMNS, "trial": trial, "seed": oracle_seed, "verdict": f"abort:{type(exc).__name__}"}, []
    eval_rng = make_rng(derive_seed(seed, trial, _ROLE_EVAL))
    dis, dis_se = measure_disagreement(report.chosen, target, config.marginal, n_eval, eval_rng)
    eval_oracle = oracle.spawn(_ROLE_EVAL)
    batch = eval_oracle.draw(n_eval)
    noisy_err = select_hypothesis(report.chosen[None, :], batch.xs, batch.ys)[1]
    opt_est, opt_se = eval_oracle.opt_error(n_eval)
    excess = noisy_err - opt_est
    if config.noise.model == MODEL_MASSART:
        ok = dis <= params.eps + 3.0 * dis_se
    else:
        noisy_se = math.sqrt(max(noisy_err * (1.0 - noisy_err), 0.0) / n_eval)
        ok = excess <= params.eps + 3.0 * math.hypot(noisy_se, opt_se)
    sched = report.schedule
    step, sign = candidate_step_sign(report.trajectory.step_indices, report.chosen_index)
    row = {
        "trial": trial, "seed": oracle_seed, "disagreement": dis, "disagreement_stderr": dis_se,
        "noisy_error": noisy_err, "opt_estimate": opt_est, "opt_stderr": opt_se,
        "excess_error": excess, "samples_used": sched.steps + sched.selection_samples, "steps": sched.steps,
        "step_size": sched.step_size, "sigma": sched.sigma, "selection_samples": sched.selection_samples,
        "candidate_count": report.candidate_count, "chosen_step": step,
        "chosen_sign": sign, "verdict": "pass" if ok else "fail",
        "wall_time_s": round(report.wall_time_s, 3), "angle_to_target": angle_between(report.chosen, target),
    }
    curves = [[trial, *candidate_step_sign(report.trajectory.step_indices, j), float(err)]
              for j, err in enumerate(report.candidate_errors)]
    return row, curves


def _run_learn(config: ExperimentConfig, out: Path) -> int:
    v = config.values
    rows, curves = zip(*(_learn_trial(config, trial) for trial in range(v["trials"])))
    _write_csv(out / "learn.csv", config, list(LEARN_COLUMNS), [[row[c] for c in LEARN_COLUMNS] for row in rows])
    if v["plots"]:
        _write_csv(out / "learn_curves.csv", config, ["trial", "step", "sign", "selection_error"],
                   [curve for trial_curves in curves for curve in trial_curves])
    done = [row for row in rows if not row["verdict"].startswith("abort:")]
    passes = sum(row["verdict"] == "pass" for row in done)
    _write_summary(out, config, {
        "trials": v["trials"],
        "passes": passes,
        "failures": v["trials"] - passes,
        "aborts": v["trials"] - len(done),
        "min_pass": v["eval.min_pass"],
        "median_disagreement": float(np.median([row["disagreement"] for row in done])) if done else None,
        "median_excess_error": float(np.median([row["excess_error"] for row in done])) if done else None,
        "completed": len(done),
    })
    return EXIT_OK if passes >= v["eval.min_pass"] else EXIT_TRIAL_FAILURES


def _verify_check(check: StructuralCheckConfig, target: np.ndarray) -> list[list]:
    """The verify.csv rows of one check: one per angle, or one abort row."""
    kind = check.noise.kind
    try:
        report = verify_stationary_gap(check, target)
    except _ABORTS as exc:
        return [[kind, "?", math.nan, check.surrogate.sigma, math.nan, math.nan,
                 math.nan, 0, math.nan, math.nan, f"abort:{type(exc).__name__}"]]
    return [[kind, report.lemma_kind, res.theta, res.sigma, res.floor, res.estimate,
             res.stderr, res.samples, res.good_mass, res.bad_mass, res.verdict] for res in report.results]


def _run_verify(config: ExperimentConfig, out: Path) -> int:
    target = _random_unit(make_rng(config.values["base_seed"], _ROLE_TARGET), config.marginal.dim)
    header = [
        "strategy", "lemma", "theta", "sigma", "floor", "estimate", "stderr",
        "samples", "good_mass", "bad_mass", "verdict",
    ]
    rows = [row for check in config.checks for row in _verify_check(check, target)]
    _write_csv(out / "verify.csv", config, header, rows)
    verdicts = [row[-1] for row in rows]
    passes = verdicts.count("pass")
    failures = verdicts.count("fail")
    _write_summary(out, config, {
        "rows": len(rows),
        "failures": failures,
        "aborts": len(rows) - passes - failures,
        "passes": passes,
    })
    return EXIT_OK if passes == len(rows) else EXIT_TRIAL_FAILURES


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
    v = config.values
    rng = make_rng(v["base_seed"], _ROLE_ORACLE)
    header = ["case", "dim", "sigma", "grad_norm", "abs_error", "rel_error", "verdict"]
    rows: list[list] = []
    worst_rel = 0.0
    failures = 0
    for case in range(v["gradcheck.cases"]):
        dim = int(rng.integers(2, 21))
        sigma = float(rng.uniform(0.05, 1.0))
        spec = SurrogateSpec(kind="sigmoid", sigma=sigma)
        w = rng.standard_normal(dim) * float(rng.uniform(0.5, 2.0))
        x = rng.standard_normal(dim)
        y = 1.0 if rng.random() < 0.5 else -1.0
        analytic = per_sample_gradient(w, x, y, spec)
        fd = _finite_difference_gradient(w, x, y, spec, v["gradcheck.step"])
        norm = float(np.linalg.norm(analytic))
        abs_err = float(np.linalg.norm(analytic - fd))
        if norm < 1e-3:
            ok = abs_err <= 1e-8
            rel_err = math.nan
        else:
            rel_err = abs_err / norm
            worst_rel = max(worst_rel, rel_err)
            ok = rel_err <= v["gradcheck.tol"]
        failures += int(not ok)
        rows.append([case, dim, sigma, norm, abs_err, rel_err, "pass" if ok else "fail"])
    _write_csv(out / "gradcheck.csv", config, header, rows)
    _write_summary(out, config, {
        "cases": v["gradcheck.cases"],
        "failures": failures,
        "max_rel_error": worst_rel,
        "tolerance": v["gradcheck.tol"],
    })
    return EXIT_OK if failures == 0 else EXIT_TRIAL_FAILURES


def _run_bench(config: ExperimentConfig, out: Path) -> int:
    n, seed = config.values["bench.samples"], config.values["base_seed"]
    marginal, rng = config.marginal, make_rng(derive_seed(seed, 0))
    target = _random_unit(make_rng(seed, _ROLE_TARGET), marginal.dim)
    oracle = MassartOracle(target=target, strategy=config.noise, marginal=marginal, seed=derive_seed(seed, 1))
    rows: list[list] = []

    def timed(component: str, count: int, fn) -> None:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        rows.append([component, count, round(dt, 6), round(1e9 * dt / max(count, 1), 1)])

    timed("marginal_sample", n, lambda: marginal.sample(n, rng))
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


_RUNNERS = {"learn": _run_learn, "verify": _run_verify, "gradcheck": _run_gradcheck, "bench": _run_bench}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment config; returns the process exit code.

    Trials execute sequentially, each from its own derived seeds, once the out directory is made.
    """
    out = Path(config.values["out"])
    with _section("field out"):
        out.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[config.values["command"]](config, out)
