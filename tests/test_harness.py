"""Harness tests: config parsing, hashing, command runners, CSV artifacts.

Run-level tests execute the real commands into pytest tmp dirs and check
exit codes, provenance headers, column layouts, and determinism. The
config-hash format is checked against hand-built sha256 input.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import massart_halfspace
from massart_halfspace import __version__, harness, verify
from massart_halfspace.cli import main as cli_main
from massart_halfspace.distributions import MarginalSampler
from massart_halfspace.errors import ConfigError, UnderpoweredCheckError
from massart_halfspace.harness import (
    COMMANDS,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TRIAL_FAILURES,
    SCHEMA,
    SCHEMA_VERSION,
    Key,
    config_from_mapping,
    config_hash,
    load_config,
    measure_disagreement,
    parse_config_text,
    read_config,
    run,
)
from massart_halfspace.noise import NOISE_KINDS
from massart_halfspace.rng import make_rng
from massart_halfspace.verify import MAX_MC_SAMPLES, lemma_sigma_cap

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"

# Small learn config used by the run() tests; mirrors the repro fixture
# (4000 capped steps on the 2D disk finish in well under a second).
LEARN_FLAT = {
    "command": "learn",
    "trials": 2,
    "base_seed": 77001,
    "marginal.kind": "uniform_disk_2d",
    "marginal.dim": 2,
    "noise.kind": "constant",
    "noise.eta_bound": 0.3,
    "learn.model": "massart",
    "learn.mode": "practical",
    "learn.eps": 0.1,
    "learn.steps": 4000,
    "learn.step_size": 0.02,
    "learn.sigma": 0.25,
    "learn.selection": 4000,
    "learn.record_every": 400,
    "eval.samples": 2000,
}

# LEARN_FLAT without its selection override, so the schedule sizes that sample.
SELECTING_FLAT = {key: value for key, value in LEARN_FLAT.items() if key != "learn.selection"}

STRONG_FLAT = {
    **{key: value for key, value in LEARN_FLAT.items() if key != "noise.eta_bound"},
    "base_seed": 77002,
    "noise.kind": "strong_massart_max",
    "noise.c_strong": 0.5,
    "learn.model": "strong_massart",
}

VERIFY_FLAT = {
    "command": "verify",
    "base_seed": 412,
    "marginal.kind": "uniform_disk_2d",
    "marginal.dim": 2,
    "noise.kind": "constant",
    "noise.eta_bound": 0.3,
    "verify.surrogate": "sigmoid",
    "verify.sigma": "cap",
    "verify.angles": "1.5707963267948966",
    "verify.strategies": "constant",
    "verify.mc_samples": 262144,
    "verify.confidence_sigmas": 3,
}


def _flat(base: dict, out: Path, **overrides) -> dict:
    merged = dict(base)
    merged.update(overrides)
    merged["out"] = str(out)
    return merged


def _read_artifact(path: Path):
    """Split a result CSV into (provenance lines, header row, data rows)."""
    lines = path.read_text().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    rows = list(csv.reader(body))
    return meta, rows[0], rows[1:]


# --------------------------------------------------------------------------
# parse_config_text


class TestParseConfigText:
    def test_line_syntax_parses_scalars(self):
        text = """
        # leading comment and blank lines are skipped

        command = learn
        trials = 10
        base_seed = -3
        learn.eps = 0.05
        gradcheck.step = 1e-6
        plots = true
        noise.kind = constant
        verify.sigma = cap
        """
        flat = parse_config_text(text)
        assert flat == {
            "command": "learn",
            "trials": 10,
            "base_seed": -3,
            "learn.eps": 0.05,
            "gradcheck.step": 1e-6,
            "plots": True,
            "noise.kind": "constant",
            "verify.sigma": "cap",
        }
        assert isinstance(flat["trials"], int)
        assert isinstance(flat["learn.eps"], float)
        assert flat["plots"] is True

    def test_false_keyword_and_plain_strings(self):
        flat = parse_config_text("plots = false\nmarginal.kind = uniform_disk_2d\n")
        assert flat["plots"] is False
        assert flat["marginal.kind"] == "uniform_disk_2d"

    def test_value_keeps_later_equals_signs(self):
        # Only the first '=' splits; the rest belongs to the value.
        flat = parse_config_text("out = runs/a=b\n")
        assert flat["out"] == "runs/a=b"

    def test_missing_equals_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("trials = 1\nnot a pair\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("= 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("trials = 1\ntrials = 2\n")

    def test_unknown_key_reports_line_number(self):
        # once refused only by config_from_mapping, with no line
        with pytest.raises(ConfigError, match="line 3: unknown config field 'learn.epsx'"):
            parse_config_text("command = learn\ntrials = 1\nlearn.epsx = 0.1\n")

    def test_json_text_is_refused_at_line_one(self):
        # JSON is not a config syntax; its opening brace is a line without '='
        with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
            parse_config_text('{\n  "command": "learn",\n  "trials": 1\n}\n')
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text('{"trials": 1, "trials": 2}')

    def test_empty_text_gives_empty_mapping(self):
        assert parse_config_text("") == {}
        assert parse_config_text("# only a comment\n") == {}


# --------------------------------------------------------------------------
# config_hash


class TestConfigHash:
    def test_matches_hand_built_sha256(self):
        # Canonical form: sorted key=value lines joined by newlines, with
        # out dropped; first 16 hex digits of the sha256.
        flat = {"command": "bench", "base_seed": 3, "out": "x"}
        expected = hashlib.sha256(b"base_seed=3\ncommand=bench").hexdigest()[:16]
        assert config_hash(flat) == expected
        assert config_hash(flat) == "732ce7438611abdd"

    def test_out_is_neutral(self):
        base = {"command": "verify", "base_seed": 1}
        moved = {"command": "verify", "base_seed": 1, "out": "elsewhere"}
        assert config_hash(base) == config_hash(moved)

    def test_every_other_key_is_significant(self):
        base = dict(LEARN_FLAT)
        reference = config_hash(base)
        for key in base:
            mutated = dict(base)
            mutated[key] = "999" if isinstance(base[key], str) else base[key] + 1
            assert config_hash(mutated) != reference, key

    def test_key_order_is_irrelevant(self):
        a = {"b": 2, "a": 1}
        b = {"a": 1, "b": 2}
        assert config_hash(a) == config_hash(b)


# --------------------------------------------------------------------------
# config_from_mapping


class TestConfigFromMapping:
    def test_defaults(self):
        cfg = config_from_mapping({"command": "bench"})
        assert cfg.values == {
            "command": "bench", "trials": 1, "base_seed": 0, "out": "runs", "plots": False,
            "marginal.kind": "standard_gaussian", "marginal.dim": 10, "profile": "gaussian_analytic",
            "noise.kind": "none", "noise.eta_bound": 0.0, "noise.c_strong": 1.0,
            "noise.band": 0.0, "noise.hash_seed": 0,
            "learn.model": "massart", "learn.mode": "practical", "learn.eps": 0.1,
            "learn.delta": 0.1, "learn.budget": None, "learn.record_every": 0,
            "learn.steps": None, "learn.step_size": None, "learn.sigma": None,
            "learn.selection": None,
            "eval.samples": 100_000, "eval.min_pass": 1,
            "verify.surrogate": "sigmoid", "verify.sigma": "cap",
            "verify.angles": (0.7853981633974483,), "verify.strategies": ("none",),
            "verify.mc_samples": 1 << 15, "verify.confidence_sigmas": 3.0,
            "gradcheck.cases": 200, "gradcheck.step": 1e-6, "gradcheck.tol": 1e-5,
            "bench.samples": 200_000,
        }
        assert cfg.noise.kind == "none"
        assert (cfg.marginal.kind, cfg.marginal.dim) == ("standard_gaussian", 10)
        assert cfg.params is None
        assert cfg.checks == ()

    def test_unknown_field_rejected_by_name(self):
        with pytest.raises(ConfigError, match="learn.epsx"):
            config_from_mapping({"command": "learn", "learn.epsx": 0.1})

    def test_command_must_be_known(self):
        with pytest.raises(ConfigError, match="command"):
            config_from_mapping({})
        with pytest.raises(ConfigError, match="command"):
            config_from_mapping({"command": "train"})
        assert COMMANDS == ("learn", "verify", "gradcheck", "bench")

    def test_trials_validation(self):
        with pytest.raises(ConfigError, match="trials"):
            config_from_mapping({"command": "learn", "trials": 0})
        with pytest.raises(ConfigError, match="trials"):
            config_from_mapping({"command": "learn", "trials": 2.0})

    def test_auto_profile_tracks_marginal(self):
        pairs = {
            "uniform_disk_2d": "disk_exact",
            "standard_gaussian": "gaussian_analytic",
            "uniform_ball_isotropic": "logconcave",
        }
        for kind, profile in pairs.items():
            cfg = config_from_mapping(
                {"command": "bench", "marginal.kind": kind, "marginal.dim": 2}
            )
            assert cfg.values["profile"] == profile

    def test_scaled_sphere_needs_explicit_profile(self):
        base = {"command": "bench", "marginal.kind": "uniform_sphere_scaled"}
        with pytest.raises(ConfigError, match="no automatic profile"):
            config_from_mapping(base)
        cfg = config_from_mapping({**base, "profile": "logconcave"})
        assert cfg.values["profile"] == "logconcave"

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError, match="profile"):
            config_from_mapping({"command": "bench", "profile": "bespoke"})

    def test_noise_kind_and_section_errors(self):
        with pytest.raises(ConfigError, match="noise.kind"):
            config_from_mapping({"command": "learn", "noise.kind": "adversarial"})
        with pytest.raises(ConfigError, match="noise section"):
            config_from_mapping(
                {"command": "learn", "noise.kind": "constant", "noise.eta_bound": 0.6}
            )

    def test_model_auto_follows_noise_kind(self):
        strong = config_from_mapping(
            {
                "command": "learn",
                "noise.kind": "strong_massart_max",
                "noise.c_strong": 0.5,
            }
        )
        assert strong.noise.model == strong.values["learn.model"] == "strong_massart"
        bounded = config_from_mapping(
            {"command": "learn", "noise.kind": "constant", "noise.eta_bound": 0.2}
        )
        assert bounded.noise.model == bounded.values["learn.model"] == "massart"
        with pytest.raises(ConfigError, match="learn.model"):
            config_from_mapping({"command": "learn", "learn.model": "agnostic"})
        with pytest.raises(ConfigError, match="field learn.model: noise kind 'none' is learned by model 'massart'"):
            config_from_mapping({"command": "learn", "learn.model": "strong_massart"})

    def test_min_pass_defaults_to_ninety_percent_ceiling(self):
        assert config_from_mapping({"command": "learn", "trials": 10}).values["eval.min_pass"] == 9
        assert config_from_mapping({"command": "learn", "trials": 4}).values["eval.min_pass"] == 4
        cfg = config_from_mapping({"command": "learn", "trials": 10, "eval.min_pass": 7})
        assert cfg.values["eval.min_pass"] == 7

    def test_verify_sigma_accepts_cap_or_number(self):
        assert config_from_mapping({"command": "verify"}).values["verify.sigma"] == "cap"
        # below the sigmoid cap 0.00853 of the gaussian profile at pi/4
        cfg = config_from_mapping({"command": "verify", "verify.sigma": 0.005})
        assert cfg.values["verify.sigma"] == 0.005
        assert cfg.checks[0].surrogate.sigma == 0.005
        with pytest.raises(ConfigError, match="verify.sigma"):
            config_from_mapping({"command": "verify", "verify.sigma": "big"})

    def test_verify_mc_samples_at_the_first_round_cap(self):
        # 610 whole chunks of 16384 points, the most that fit under 1e7;
        # one more sample is in MALFORMED
        cfg = config_from_mapping({**VERIFY_FLAT, "verify.mc_samples": 9_994_240})
        assert cfg.checks[0].mc_samples == 9_994_240

    def test_verify_angles_single_and_list(self):
        single = config_from_mapping({"command": "verify", "verify.angles": 0.5})
        assert single.values["verify.angles"] == (0.5,)
        many = config_from_mapping({"command": "verify", "verify.angles": "0.5, 1.0 ,1.5"})
        assert many.values["verify.angles"] == (0.5, 1.0, 1.5)
        assert many.checks[0].angles == (0.5, 1.0, 1.5)
        with pytest.raises(ConfigError, match="verify.angles"):
            config_from_mapping({"command": "verify", "verify.angles": "0.5,wide"})

    def test_subnormal_cap_names_the_angle(self):
        # the cap at 1e-320 is 1.24e-322; the refusal once named only the resolved sigma
        with pytest.raises(ConfigError, match=r"^field verify.angles: .*angle 1e-320 gives sigma = 1.24e-322, below"):
            config_from_mapping({**VERIFY_FLAT, "verify.angles": "1.0,1e-320"})

    @pytest.mark.parametrize("command, key", [("learn", "eval.samples"), ("bench", "bench.samples")])
    def test_one_draw_holds_at_most_1e8_floats(self, command, key):
        # each key is in range alone; 1e7 x 1000 floats once died as a 74.5 GiB MemoryError
        flat = {"command": command, "marginal.dim": 1000}
        assert config_from_mapping({**flat, key: 100_000}).values[key] == 100_000  # exactly 1e8
        for n in (100_001, 10**7):
            with pytest.raises(ConfigError, match=f"fields {key} and marginal.dim: one draw of {n} x 1000"):
                config_from_mapping({**flat, key: n})
        config_from_mapping({**flat, "command": "verify", key: 10**7})  # verify draws neither

    def test_schedule_counts_past_int64_name_their_override(self):
        # once an OverflowError in psgd after the output directory was made
        with pytest.raises(ConfigError, match=r"learn.steps count of 1.667e\+22, past 2\^63 - 1; set learn.steps"):
            config_from_mapping({"command": "learn", "learn.mode": "theoretical"})
        assert config_from_mapping({"command": "learn", "learn.mode": "theoretical", "learn.steps": 10}).params
        with pytest.raises(ConfigError, match=r"learn.selection count of .*, past 2\^63 - 1; set learn.selection"):
            config_from_mapping({**SELECTING_FLAT, "learn.eps": 1e-12})

    def test_hash_property_matches_free_function(self):
        flat = dict(LEARN_FLAT)
        cfg = config_from_mapping(flat)
        assert cfg.hash == config_hash(flat)

    def test_certified_profile_is_constructed(self):
        cfg = config_from_mapping({"command": "bench", "marginal.kind": "uniform_disk_2d", "marginal.dim": 2})
        assert cfg.profile.density_bound == pytest.approx(4.0 * math.pi)


class TestLoadConfig:
    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.cfg")

    def test_loads_line_fixture(self):
        cfg = load_config(FIXTURES / "learn_massart_gaussian.cfg")
        assert cfg.values["command"] == "learn"
        assert cfg.values["trials"] == 10
        assert cfg.marginal.dim == 10
        assert cfg.noise.kind == "boundary_concentrated"
        assert cfg.noise.eta_bound == 0.4
        assert cfg.noise.model == "massart"
        assert cfg.values["eval.min_pass"] == 9

    @pytest.mark.parametrize("fixture", sorted(FIXTURES.iterdir()), ids=lambda p: p.name)
    def test_fixture_config_pickles(self, fixture):
        # a config is what a worker process would be sent
        config = load_config(fixture)
        assert pickle.loads(pickle.dumps(config)).hash == config.hash

    def test_unpickled_config_runs_identically(self, tmp_path):
        flat = read_config(FIXTURES / "repro_massart_disk.cfg")
        original = config_from_mapping(_flat(flat, tmp_path / "a"))
        clone = pickle.loads(pickle.dumps(config_from_mapping(_flat(flat, tmp_path / "b"))))
        assert run(clone) == run(original)
        meta_a, header_a, rows_a = _read_artifact(tmp_path / "a" / "learn.csv")
        meta_b, header_b, rows_b = _read_artifact(tmp_path / "b" / "learn.csv")
        assert (meta_a, header_a, len(rows_a)) == (meta_b, header_b, len(rows_b))
        wall = header_a.index("wall_time_s")
        for row_a, row_b in zip(rows_a, rows_b):
            assert row_a[:wall] == row_b[:wall]


# --------------------------------------------------------------------------
# measure_disagreement


class TestMeasureDisagreement:
    def test_needs_a_thousand_samples(self):
        marginal, rng = MarginalSampler(kind="standard_gaussian", dim=3), make_rng(0)
        h = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="1000"):
            measure_disagreement(h, h, marginal, 999, rng)

    def test_identical_vectors_give_exact_zero(self):
        marginal, rng = MarginalSampler(kind="standard_gaussian", dim=4), make_rng(7)
        h = np.array([0.5, 0.5, 0.5, 0.5])
        estimate, stderr = measure_disagreement(h, h.copy(), marginal, 1000, rng)
        assert estimate == 0.0
        assert stderr == 0.0

    def test_opposite_vectors_give_one(self):
        marginal, rng = MarginalSampler(kind="standard_gaussian", dim=4), make_rng(8)
        h = np.array([0.5, 0.5, 0.5, 0.5])
        estimate, _ = measure_disagreement(h, -h, marginal, 2000, rng)
        assert estimate == 1.0

    def test_disk_angle_gives_theta_over_pi(self):
        # On the uniform disk the disagreement wedge has mass theta/pi.
        theta = math.pi / 4
        marginal, rng = MarginalSampler(kind="uniform_disk_2d", dim=2), make_rng(11)
        h = np.array([1.0, 0.0])
        target = np.array([math.cos(theta), math.sin(theta)])
        n = 200_000
        estimate, stderr = measure_disagreement(h, target, marginal, n, rng)
        assert abs(estimate - 0.25) <= 5.0 * math.sqrt(0.25 * 0.75 / n)
        assert stderr == pytest.approx(math.sqrt(estimate * (1 - estimate) / n))

    def test_non_unit_vectors_rejected(self):
        marginal, rng = MarginalSampler(kind="standard_gaussian", dim=2), make_rng(0)
        unit = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            measure_disagreement(2.0 * unit, unit, marginal, 1000, rng)
        with pytest.raises(ValueError):
            measure_disagreement(unit, 2.0 * unit, marginal, 1000, rng)


# --------------------------------------------------------------------------
# run(): learn


# A standard-Gaussian learn run in d = 5 that takes well under a second.
# From d = 3 on, a plain sum() of the learner's products can round
# differently on Python 3.12+, which compensates it; the learner's dot
# products are math.fsum, correctly rounded on every version, so this
# golden learn.csv must hold on each supported interpreter.
GOLDEN_FLAT = {
    "command": "learn", "trials": 2, "base_seed": 90001,
    "marginal.kind": "standard_gaussian", "marginal.dim": 5,
    "noise.kind": "boundary_concentrated", "noise.eta_bound": 0.3, "noise.band": 0.3,
    "learn.eps": 0.1, "learn.steps": 4000, "learn.step_size": 0.02, "learn.sigma": 0.25,
    "learn.selection": 4000, "learn.record_every": 400, "eval.samples": 2000,
}
GOLDEN_LEARN_CSV = Path(__file__).resolve().parent / "golden" / "learn_gaussian_d5.csv"


def _blank_wall_time(path: Path) -> str:
    """The CSV at path with its wall_time_s values blanked."""
    meta, header, rows = _read_artifact(path)
    wall = header.index("wall_time_s")
    out = io.StringIO()
    out.write("".join(line + "\n" for line in meta))
    csv.writer(out, lineterminator="\n").writerows([header, *([*row[:wall], "", *row[wall + 1:]] for row in rows)])
    return out.getvalue()


class TestRunLearn:
    def test_learn_csv_matches_golden(self, tmp_path):
        # Every column but the angle is a count or a ratio of counts and must
        # match exactly; the angle's last bits follow the chosen vector's and
        # the target's, which may depend on the CPU's BLAS or SIMD kernels.
        assert run(config_from_mapping(_flat(GOLDEN_FLAT, tmp_path))) == EXIT_OK
        got, want = _blank_wall_time(tmp_path / "learn.csv").splitlines(), GOLDEN_LEARN_CSV.read_text().splitlines()
        for got_line, want_line in zip(got, want, strict=True):
            if got_line.startswith(("#", "trial,")):
                assert got_line == want_line
                continue
            got_rest, _, got_angle = got_line.rpartition(",")
            want_rest, _, want_angle = want_line.rpartition(",")
            assert got_rest == want_rest
            assert float(got_angle) == pytest.approx(float(want_angle), rel=1e-12, abs=0)

    def test_disagreement_tracks_angle_to_target(self, tmp_path):
        # On a rotation-invariant marginal the disagreement with the target is
        # angle/pi; each estimate lies within 5 binomial stderrs of it, the
        # larger of the row's and the one at angle/pi.
        assert run(config_from_mapping(_flat(GOLDEN_FLAT, tmp_path))) == EXIT_OK
        _, header, rows = _read_artifact(tmp_path / "learn.csv")
        col = {name: header.index(name) for name in ("disagreement", "disagreement_stderr", "angle_to_target")}
        for row in rows:
            dis, dis_se, angle = (float(row[col[name]]) for name in col)
            p = angle / math.pi
            se = max(dis_se, math.sqrt(p * (1.0 - p) / GOLDEN_FLAT["eval.samples"]))
            assert abs(dis - p) <= 5.0 * se, (dis, dis_se, angle)

    def test_learn_artifacts_and_exit(self, tmp_path):
        cfg = config_from_mapping(_flat(LEARN_FLAT, tmp_path))
        assert run(cfg) == EXIT_OK
        meta, header, rows = _read_artifact(tmp_path / "learn.csv")
        assert meta == [
            f"# schema_version = {SCHEMA_VERSION}",
            f"# artifact = massart-halfspace {__version__}",
            f"# config_hash = {cfg.hash}",
            "# command = learn",
        ]
        assert header == [
            "trial", "seed", "disagreement", "disagreement_stderr", "noisy_error",
            "opt_estimate", "opt_stderr", "excess_error", "samples_used", "steps",
            "step_size", "sigma", "selection_samples", "candidate_count",
            "chosen_step", "chosen_sign", "verdict", "wall_time_s", "angle_to_target",
        ]
        assert len(rows) == 2
        for row in rows:
            assert len(row) == len(header)
            assert row[16] == "pass"
            # samples_used = optimization draws + selection draws
            assert int(row[8]) == int(row[9]) + int(row[12])
            assert int(row[15]) in (1, -1)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["command"] == "learn"
        assert summary["config_hash"] == cfg.hash
        assert summary["trials"] == 2
        assert summary["passes"] == 2
        assert summary["failures"] == 0
        assert summary["aborts"] == 0
        assert summary["completed"] == 2
        assert summary["min_pass"] == 2
        assert 0.0 <= summary["median_disagreement"] <= 0.1

    def test_rerun_is_identical_apart_from_wall_time(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        run(config_from_mapping(_flat(LEARN_FLAT, first)))
        run(config_from_mapping(_flat(LEARN_FLAT, second)))
        meta_a, header_a, rows_a = _read_artifact(first / "learn.csv")
        meta_b, header_b, rows_b = _read_artifact(second / "learn.csv")
        assert meta_a == meta_b
        assert header_a == header_b
        wall = header_a.index("wall_time_s")
        for row_a, row_b in zip(rows_a, rows_b):
            assert row_a[:wall] == row_b[:wall]

    def test_plots_emit_selection_curves(self, tmp_path):
        cfg = config_from_mapping(_flat(LEARN_FLAT, tmp_path, plots=True))
        assert run(cfg) == EXIT_OK
        _, header, rows = _read_artifact(tmp_path / "learn_curves.csv")
        assert header == ["trial", "step", "sign", "selection_error"]
        _, learn_header, learn_rows = _read_artifact(tmp_path / "learn.csv")
        candidates = int(learn_rows[0][13])
        assert len(rows) == 2 * candidates
        for row in rows:
            assert int(row[0]) in (0, 1)
            assert int(row[1]) % 400 == 0
            assert int(row[2]) in (1, -1)
            assert 0.0 <= float(row[3]) <= 1.0
        # each trial's chosen candidate is its first curve row of least selection error
        step_col, sign_col = learn_header.index("chosen_step"), learn_header.index("chosen_sign")
        for learn_row in learn_rows:
            trial_rows = [row for row in rows if row[0] == learn_row[0]]
            best = min(trial_rows, key=lambda row: float(row[3]))  # min keeps the first of equals
            assert [learn_row[step_col], learn_row[sign_col]] == best[1:3]

    def test_trial_abort_is_recorded_not_raised(self, tmp_path):
        # A step size of 1e308 overflows the first PSGD step of each trial;
        # the run records each divergence as an abort and exits 2.
        cfg = config_from_mapping(_flat(LEARN_FLAT, tmp_path, **{"learn.step_size": 1e308}))
        assert run(cfg) == EXIT_TRIAL_FAILURES
        _, header, rows = _read_artifact(tmp_path / "learn.csv")
        assert header == list(harness.LEARN_COLUMNS)
        assert len(rows) == 2
        for trial, row in enumerate(rows):
            # every column holds the column table's abort value
            expected = {
                **harness.LEARN_COLUMNS,
                "trial": trial,
                "seed": harness.derive_seed(cfg.values["base_seed"], trial, harness._ROLE_ORACLE),
                "verdict": "abort:PsgdDivergenceError",
            }
            assert row == [str(expected[name]) for name in header]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["aborts"] == 2
        assert summary["completed"] == 0
        assert summary["passes"] == 0
        assert summary["median_disagreement"] is None
        assert summary["median_excess_error"] is None

    def test_one_trial_alone_matches_its_row_in_a_run(self, tmp_path):
        # A trial is a pure function of (config, trial): run alone, trial 1
        # gives the same learn.csv row and curves as inside a 2-trial run.
        cfg = config_from_mapping(_flat(LEARN_FLAT, tmp_path, plots=True))
        assert run(cfg) == EXIT_OK
        _, header, rows = _read_artifact(tmp_path / "learn.csv")
        _, _, curve_rows = _read_artifact(tmp_path / "learn_curves.csv")
        row, curves = harness._learn_trial(cfg, 1)
        wall = header.index("wall_time_s")
        assert [str(row[name]) for name in header][:wall] == rows[1][:wall]
        assert [[str(cell) for cell in curve] for curve in curves] == [r for r in curve_rows if r[0] == "1"]

    def test_other_trial_exception_propagates(self, tmp_path, monkeypatch):
        # Only divergence and an underpowered check become abort rows; any
        # other exception inside a trial is a fault and reaches the caller.
        def broken_learn(oracle, params, psgd_seed=0):
            raise KeyError("fault inside a trial")

        monkeypatch.setattr(harness, "learn", broken_learn)
        with pytest.raises(KeyError, match="fault inside a trial"):
            run(config_from_mapping(_flat(LEARN_FLAT, tmp_path)))

    def test_min_pass_gate_controls_exit_code(self, tmp_path):
        # Ten steps leave trial 1 short of eps, so one of the two trials passes.
        short = {"learn.steps": 10, "learn.record_every": 1}
        strict = _flat(LEARN_FLAT, tmp_path / "strict", **short, **{"eval.min_pass": 2})
        assert run(config_from_mapping(strict)) == EXIT_TRIAL_FAILURES
        summary = json.loads((tmp_path / "strict" / "summary.json").read_text())
        assert summary["passes"] == 1
        assert summary["min_pass"] == 2
        lenient = _flat(LEARN_FLAT, tmp_path / "lenient", **short, **{"eval.min_pass": 1})
        assert run(config_from_mapping(lenient)) == EXIT_OK

    def test_strong_model_reports_excess_error(self, tmp_path):
        flat = _flat(
            LEARN_FLAT,
            tmp_path,
            base_seed=77002,
            **{
                "noise.kind": "strong_massart_max",
                "noise.c_strong": 0.5,
                "learn.model": "strong_massart",
            },
        )
        del flat["noise.eta_bound"]
        cfg = config_from_mapping(flat)
        assert run(cfg) == EXIT_OK
        _, header, rows = _read_artifact(tmp_path / "learn.csv")
        for row in rows:
            noisy = float(row[header.index("noisy_error")])
            opt = float(row[header.index("opt_estimate")])
            excess = float(row[header.index("excess_error")])
            assert excess == pytest.approx(noisy - opt, abs=1e-12)
            assert row[header.index("verdict")] == "pass"

    @pytest.mark.parametrize("model", ["massart", "strong_massart"])
    def test_learn_run_never_imports_scipy(self, tmp_path, model):
        # scipy serves only the verify estimator's plane densities; a learn
        # run in a fresh interpreter, config load included, must not load it
        flat = _flat(LEARN_FLAT, tmp_path, **{"learn.model": model})
        if model == "strong_massart":
            del flat["noise.eta_bound"]
            flat.update({"noise.kind": "strong_massart_max", "noise.c_strong": 0.5})
        code = (
            "import json, sys\n"
            "from massart_halfspace import harness\n"
            "code = harness.run(harness.config_from_mapping(json.loads(sys.argv[1])))\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        package_root = str(Path(massart_halfspace.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(flat)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(EXIT_OK), "[]"]


# --------------------------------------------------------------------------
# run(): verify


class TestRunVerify:
    def test_verify_artifacts_and_exit(self, tmp_path):
        cfg = config_from_mapping(_flat(VERIFY_FLAT, tmp_path))
        assert run(cfg) == EXIT_OK
        meta, header, rows = _read_artifact(tmp_path / "verify.csv")
        assert meta[3] == "# command = verify"
        assert header == [
            "strategy", "lemma", "theta", "sigma", "floor", "estimate", "stderr",
            "samples", "good_mass", "bad_mass", "verdict",
        ]
        assert len(rows) == 1
        row = rows[0]
        assert row[0] == "constant"
        assert row[1] == "sigmoid"
        # sigma resolves to the cap at the window edge (the lone angle).
        expected_sigma = lemma_sigma_cap(
            "sigmoid", cfg.profile, 0.3, math.pi / 2
        )
        assert float(row[3]) == expected_sigma
        assert float(row[5]) >= float(row[4])  # estimate clears the floor
        assert float(row[8]) - float(row[9]) == pytest.approx(float(row[5]), abs=1e-12)
        assert row[10] == "pass"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == {
            "command": "verify",
            "config_hash": cfg.hash,
            "rows": 1,
            "failures": 0,
            "aborts": 0,
            "passes": 1,
        }

    def test_row_per_strategy_angle_pair(self, tmp_path):
        flat = _flat(
            VERIFY_FLAT,
            tmp_path,
            **{
                "verify.angles": "0.0,1.5707963267948966",
                "verify.strategies": "none,constant",
            },
        )
        assert run(config_from_mapping(flat)) == EXIT_OK
        _, header, rows = _read_artifact(tmp_path / "verify.csv")
        assert len(rows) == 4
        pairs = {(row[0], float(row[2])) for row in rows}
        assert pairs == {
            ("none", 0.0),
            ("none", math.pi / 2),
            ("constant", 0.0),
            ("constant", math.pi / 2),
        }
        assert all(row[10] == "pass" for row in rows)

    def test_oversized_sigma_is_a_config_error(self, tmp_path, capsys):
        # sigma 0.5 is far above the sigmoid cap on the disk: the check is
        # refused when the config is read, before any verify.csv exists.
        out = tmp_path / "out"
        cfg_path = _write_config(tmp_path / "v.cfg", {**VERIFY_FLAT, "verify.sigma": 0.5})
        assert cli_main(["verify", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err and "sigma 0.5 exceeds" in err
        assert not (out / "verify.csv").exists()

    def test_underpowered_check_is_an_abort_row(self, tmp_path, monkeypatch):
        def underpowered(check, target):
            raise UnderpoweredCheckError("stderr still above target at the sample cap")

        monkeypatch.setattr(harness, "verify_stationary_gap", underpowered)
        assert run(config_from_mapping(_flat(VERIFY_FLAT, tmp_path))) == EXIT_TRIAL_FAILURES
        _, _, rows = _read_artifact(tmp_path / "verify.csv")
        assert len(rows) == 1
        assert rows[0][0] == "constant"
        assert rows[0][10] == "abort:UnderpoweredCheckError"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["aborts"] == 1
        assert summary["failures"] == 0

    def test_verify_csv_is_bitwise_reproducible(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        run(config_from_mapping(_flat(VERIFY_FLAT, first)))
        run(config_from_mapping(_flat(VERIFY_FLAT, second)))
        assert (first / "verify.csv").read_bytes() == (second / "verify.csv").read_bytes()


# --------------------------------------------------------------------------
# run(): gradcheck and bench


class TestRunGradcheck:
    def test_gradcheck_passes_and_reports(self, tmp_path):
        flat = {
            "command": "gradcheck",
            "base_seed": 90210,
            "gradcheck.cases": 25,
            "out": str(tmp_path),
        }
        cfg = config_from_mapping(flat)
        assert run(cfg) == EXIT_OK
        _, header, rows = _read_artifact(tmp_path / "gradcheck.csv")
        assert header == ["case", "dim", "sigma", "grad_norm", "abs_error", "rel_error", "verdict"]
        assert len(rows) == 25
        assert all(row[6] == "pass" for row in rows)
        dims = {int(row[1]) for row in rows}
        assert dims <= set(range(2, 21))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["cases"] == 25
        assert summary["failures"] == 0
        assert summary["max_rel_error"] <= summary["tolerance"]

    def test_unreachable_tolerance_exits_two(self, tmp_path):
        flat = {
            "command": "gradcheck",
            "base_seed": 90210,
            "gradcheck.cases": 10,
            "gradcheck.tol": 1e-15,
            "out": str(tmp_path),
        }
        assert run(config_from_mapping(flat)) == EXIT_TRIAL_FAILURES
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["failures"] > 0

    def test_gradcheck_csv_is_bitwise_reproducible(self, tmp_path):
        flat = {"command": "gradcheck", "base_seed": 5, "gradcheck.cases": 25}
        run(config_from_mapping({**flat, "out": str(tmp_path / "a")}))
        run(config_from_mapping({**flat, "out": str(tmp_path / "b")}))
        assert (tmp_path / "a" / "gradcheck.csv").read_bytes() == (
            tmp_path / "b" / "gradcheck.csv"
        ).read_bytes()


class TestRunBench:
    def test_bench_components_and_exit(self, tmp_path):
        flat = {
            "command": "bench",
            "base_seed": 5150,
            "marginal.kind": "standard_gaussian",
            "marginal.dim": 10,
            "noise.kind": "constant",
            "noise.eta_bound": 0.3,
            "bench.samples": 20000,
            "out": str(tmp_path),
        }
        cfg = config_from_mapping(flat)
        assert run(cfg) == EXIT_OK
        _, header, rows = _read_artifact(tmp_path / "bench.csv")
        assert header == ["component", "count", "wall_time_s", "ns_per_op"]
        assert [row[0] for row in rows] == ["marginal_sample", "oracle_draw", "sample_gradients"]
        assert int(rows[0][1]) == 20000
        assert int(rows[1][1]) == 20000
        assert int(rows[2][1]) == 20000  # below the gradient batch cap
        assert all(float(row[2]) >= 0.0 for row in rows)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["components"] == ["marginal_sample", "oracle_draw", "sample_gradients"]


# --------------------------------------------------------------------------
# command-line front end


def _write_config(path: Path, flat: dict) -> Path:
    lines = [f"{key} = {value}" for key, value in flat.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def _package_env() -> dict:
    """The environment with this copy of the package first on PYTHONPATH, for a child process."""
    package_root = str(Path(massart_halfspace.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def _run_console_gradcheck(command: list, tmp_path: Path, env=None) -> None:
    """Run a 5-case gradcheck through a console-script command in its own process."""
    cfg_path = _write_config(
        tmp_path / "g.cfg", {"command": "gradcheck", "gradcheck.cases": 5}
    )
    proc = subprocess.run(
        [*command, "gradcheck", "--config", str(cfg_path), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (tmp_path / "out" / "gradcheck.csv").exists()


GRADCHECK_FLAT = {"command": "gradcheck", "gradcheck.cases": 5}
BENCH_FLAT = {"command": "bench", "bench.samples": 5000, "marginal.dim": 4}

# Malformed configs that must be rejected before any output. All but the
# first five and the three that the schedule's own surrogate and PSGD checks
# refuse (learn.sigma = 20, learn.step_size = 0 or inf) once ended in a raw
# traceback, in abort rows with exit 2, or in a run that exited 0 without
# checking its input; the six after them, schedules too large to represent,
# once gave a config error that named no key. Of the last ten, the sizes
# past their bounds once escaped mid-run as a ValueError or MemoryError
# traceback, the subnormal smoothing widths ran into abort rows or a learner
# whose sigmoid derivative underflowed to 0, and an angle past pi under
# `verify.sigma = cap` gave a config error about theta, naming no key. The
# theoretical schedule at the defaults, 1.67e22 steps, once made the output
# directory and then died as an OverflowError traceback in the first trial.
MALFORMED = [
    (LEARN_FLAT, {"eval.min_pass": 0}),
    (LEARN_FLAT, {"eval.min_pass": 5}),
    (LEARN_FLAT, {"learn.mode": "fast"}),
    (LEARN_FLAT, {"base_seed": -1}),
    (STRONG_FLAT, {"noise.c_strong": 1.5}),
    (LEARN_FLAT, {"eval.samples": 10}),
    (VERIFY_FLAT, {"verify.angles": 0}),
    (VERIFY_FLAT, {"verify.surrogate": "hinge"}),
    (VERIFY_FLAT, {"verify.strategies": "bogus"}),
    (LEARN_FLAT, {"learn.eps": 2}),
    (LEARN_FLAT, {"learn.delta": 0}),
    (GRADCHECK_FLAT, {"gradcheck.step": 0}),
    (LEARN_FLAT, {"learn.budget": "lots"}),
    (LEARN_FLAT, {"learn.budget": 100}),
    (LEARN_FLAT, {"learn.steps": 1e3}),
    (LEARN_FLAT, {"learn.record_every": -3}),
    (LEARN_FLAT, {"learn.record_every": 2**63}),
    (LEARN_FLAT, {"learn.steps": 2**63}),
    (LEARN_FLAT, {"learn.steps": 2**62, "learn.record_every": 400}),
    (LEARN_FLAT, {"learn.step_size": -1}),
    (LEARN_FLAT, {"learn.sigma": 0}),
    (LEARN_FLAT, {"learn.sigma": 20}),
    (LEARN_FLAT, {"learn.step_size": 0}),
    (LEARN_FLAT, {"learn.step_size": "inf"}),
    (LEARN_FLAT, {"learn.model": "strong_massart"}),
    (VERIFY_FLAT, {"marginal.dim": 3}),
    (VERIFY_FLAT, {"verify.mc_samples": 0}),
    (VERIFY_FLAT, {"verify.mc_samples": 9_994_241}),
    (VERIFY_FLAT, {"marginal.kind": "standard_gaussian", "marginal.dim": 1}),
    (VERIFY_FLAT, {"verify.confidence_sigmas": -1}),
    (LEARN_FLAT, {"learn.selection": 0}),
    (GRADCHECK_FLAT, {"gradcheck.cases": -5}),
    (BENCH_FLAT, {"bench.samples": 0}),
    (LEARN_FLAT, {"noise.hash_seed": 1.5}),
    (LEARN_FLAT, {"plots": "maybe"}),
    (LEARN_FLAT, {"learn.eps": 1e-200}),
    (STRONG_FLAT, {"noise.c_strong": 1e-200}),
    (LEARN_FLAT, {"learn.eps": 1e-160}),
    (LEARN_FLAT, {"learn.mode": "theoretical", "learn.eps": 1e-160}),
    (SELECTING_FLAT, {"learn.delta": 1e-320}),
    (SELECTING_FLAT, {"learn.mode": "theoretical", "learn.delta": 1e-320}),
    (LEARN_FLAT, {"eval.samples": 2**63}),
    (LEARN_FLAT, {"eval.samples": 10**10}),
    (BENCH_FLAT, {"bench.samples": 2**63}),
    (BENCH_FLAT, {"bench.samples": 10**10}),
    (LEARN_FLAT, {"marginal.kind": "standard_gaussian", "marginal.dim": 2**63}),
    (LEARN_FLAT, {"marginal.kind": "standard_gaussian", "marginal.dim": 10**10}),
    (VERIFY_FLAT, {"verify.angles": 1e-320, "verify.sigma": "cap"}),  # the cap at 1e-320 is 1.2e-322
    (VERIFY_FLAT, {"verify.sigma": 1e-320}),
    (LEARN_FLAT, {"learn.sigma": 1e-320}),
    (VERIFY_FLAT, {"verify.angles": 4.0}),
    ({"command": "learn"}, {"learn.mode": "theoretical"}),
]
MALFORMED_IDS = [
    "min_pass_below_one", "min_pass_above_trials", "unknown_mode", "negative_seed", "strong_slope_above_one",
    *(",".join(f"{key}={value}" for key, value in override.items()) for _, override in MALFORMED[5:]),
]


class TestCli:
    def test_bench_roundtrip(self, tmp_path):
        cfg_path = _write_config(
            tmp_path / "bench.cfg",
            {"command": "bench", "bench.samples": 5000, "marginal.dim": 4},
        )
        out = tmp_path / "out"
        code = cli_main(["bench", "--config", str(cfg_path), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "bench.csv").exists()

    def test_declared_command_must_match_positional(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path / "c.cfg", {"command": "learn"})
        code = cli_main(["bench", "--config", str(cfg_path)])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli_main(["bench", "--config", str(tmp_path / "absent.cfg")])
        assert code == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_bad_command_choice(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path / "c.cfg", {"command": "bench"})
        code = cli_main(["train", "--config", str(cfg_path)])
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_missing_config_flag(self, capsys):
        assert cli_main(["bench"]) == EXIT_CONFIG
        capsys.readouterr()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = _write_config(
            tmp_path / "g.cfg",
            {"command": "gradcheck", "gradcheck.cases": 5, "base_seed": 1},
        )
        out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert cli_main(["gradcheck", "--config", str(cfg_path), "--out", str(out_a)]) == EXIT_OK
        assert cli_main(
            ["gradcheck", "--config", str(cfg_path), "--out", str(out_b), "--seed", "1"]
        ) == EXIT_OK
        assert cli_main(
            ["gradcheck", "--config", str(cfg_path), "--out", str(out_c), "--seed", "2"]
        ) == EXIT_OK
        rows_a = _read_artifact(out_a / "gradcheck.csv")[2]
        rows_b = _read_artifact(out_b / "gradcheck.csv")[2]
        rows_c = _read_artifact(out_c / "gradcheck.csv")[2]
        assert rows_a == rows_b  # flag equal to the config value changes nothing
        assert rows_a != rows_c

    def test_seed_flag_range_checked(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path / "c.cfg", {"command": "bench"})
        code = cli_main(["bench", "--config", str(cfg_path), "--seed", str(2**64)])
        assert code == EXIT_CONFIG
        assert "64-bit" in capsys.readouterr().err

    @pytest.mark.parametrize("base, override", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_config_rejected_before_any_output(self, tmp_path, capsys, base, override):
        cfg_path = _write_config(tmp_path / "c.cfg", {**base, **override})
        out = tmp_path / "out"
        code = cli_main([base["command"], "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:")
        # the message names the offending key, or at least its last part
        assert any(key.rsplit(".", 1)[-1] in err for key in override), err
        assert not out.exists()

    def test_uncreatable_out_is_a_config_error_before_any_trial(self, tmp_path, capsys, monkeypatch):
        # a file where the output directory's parent should be: once found
        # only after every trial had run, as a NotADirectoryError traceback
        def no_trial(oracle, params, psgd_seed=0):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "learn", no_trial)
        (tmp_path / "f").touch()
        cfg_path = _write_config(tmp_path / "c.cfg", LEARN_FLAT)
        code = cli_main(["learn", "--config", str(cfg_path), "--out", str(tmp_path / "f" / "sub")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: field out")

    def test_json_config_is_a_config_error_at_line_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"command": "bench", "bench.samples": 5000}, indent=2))
        out = tmp_path / "out"
        assert cli_main(["bench", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: line 1:")
        assert not out.exists()

    @pytest.mark.parametrize("body, message", [
        (b"command = gradcheck\ngradcheck.cases = 5\n# \xff\n", "cannot read config"),  # once a traceback
        (b'{"trials": 1, "out": "a=b"}\n', "line 1: unknown config field"),  # once named no line
    ], ids=["not_utf8", "json_with_equals"])
    def test_bad_config_text_is_a_config_error(self, tmp_path, capsys, body, message):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_bytes(body)
        out = tmp_path / "out"
        assert cli_main(["gradcheck", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("fixture", ["learn_massart_gaussian.cfg", "learn_strong_gaussian.cfg"])
    def test_underflowing_target_angle_names_eps(self, tmp_path, capsys, fixture):
        # On the Gaussian profiles eps = 1e-320 underflows the target angle
        # to 0.0; the config error once named only `theta`.
        flat = {**parse_config_text((FIXTURES / fixture).read_text()), "learn.eps": 1e-320}
        gap_key = "eta_bound" if "massart_gaussian" in fixture else "c_strong"
        with pytest.raises(ConfigError, match=f"eps = 1e-320, {gap_key} = .*, delta = 0.1 give"):
            config_from_mapping(flat)
        out = tmp_path / "out"
        cfg_path = _write_config(tmp_path / "c.cfg", {**flat, "out": str(out)})
        assert cli_main(["learn", "--config", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "eps = 1e-320" in err, err
        assert not out.exists()

    def test_threads_flag_validated(self, tmp_path, capsys):
        # threads is neither a flag nor a config key
        cfg_path = _write_config(tmp_path / "b.cfg", {"command": "bench"})
        assert cli_main(["bench", "--config", str(cfg_path), "--threads", "2"]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        keyed = _write_config(tmp_path / "k.cfg", {"command": "bench", "threads": 2})
        assert cli_main(["bench", "--config", str(keyed)]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    def test_console_script_runs(self, tmp_path):
        # Run the [project.scripts] target the way the installer-generated
        # wrapper does, so the test checks what pyproject.toml declares and
        # not whichever copy of the package happens to be on PATH.
        tomllib = pytest.importorskip("tomllib")
        with (REPO_ROOT / "pyproject.toml").open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["massart-halfspace"]
        module, _, attr = target.partition(":")
        wrapper = (
            "import importlib, sys\n"
            f"entry = getattr(importlib.import_module({module!r}), {attr!r})\n"
            "sys.argv[0] = 'massart-halfspace'\n"
            "sys.exit(entry())\n"
        )
        _run_console_gradcheck([sys.executable, "-c", wrapper], tmp_path, _package_env())

    @pytest.mark.skipif(
        shutil.which("massart-halfspace") is None,
        reason="massart-halfspace is not installed on PATH",
    )
    def test_installed_console_script_runs(self, tmp_path):
        _run_console_gradcheck([shutil.which("massart-halfspace")], tmp_path)


# The CLI supplies `command` and `out` itself, so those two are not mutated.
MUTABLE_KEYS = sorted(set(SCHEMA) - {"command", "out"})
# Values that are the wrong type for some keys and out of range for others.
ODD_VALUES = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "cap", "auto", "none", "0.5,wide", "nan", "1e999", "a,,b"]),
    st.text(alphabet="abe01.,- ", max_size=8),
)


class TestMalformedFixtures:
    @pytest.mark.parametrize("fixture", sorted(FIXTURES.iterdir()), ids=lambda p: p.name)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_key_change_is_accepted_or_a_config_error(self, fixture, data):
        # Drop one key of a fixture, or set it to an odd value. Reading the
        # mapping must then succeed or raise ConfigError.
        flat = read_config(fixture)
        key = data.draw(st.sampled_from(MUTABLE_KEYS))
        if key in flat and data.draw(st.booleans()):
            del flat[key]
        else:
            flat[key] = data.draw(ODD_VALUES)
        try:
            config_from_mapping(flat)
        except ConfigError:
            pass
        # The same config as a file: where the mapping read back from it is
        # refused, the CLI must refuse it before making the output directory.
        with tempfile.TemporaryDirectory() as tmp:
            path, out = _write_config(Path(tmp) / "c.cfg", flat), Path(tmp) / "out"
            try:
                config_from_mapping(read_config(path))
                return  # accepted; no trial runs here
            except ConfigError:
                pass
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli_main([flat["command"], "--config", str(path), "--out", str(out)])
            assert code == EXIT_CONFIG
            assert err.getvalue().startswith("config error:")
            assert not out.exists()


# Work sizes: each drawn config sets every one of them, either small (at most
# the value here) or past its upper bound, where it must be refused.
WORK_SIZES = {
    "trials": 2, "learn.steps": 500, "learn.selection": 500, "eval.samples": 1500,
    "verify.mc_samples": 1024, "gradcheck.cases": 20, "bench.samples": 2000, "marginal.dim": 4,
}
# Each work size's (lowest, highest) accepted value; the verify check bounds mc_samples.
WORK_BOUNDS = {key: SCHEMA[key].bounds for key in WORK_SIZES if key != "verify.mc_samples"}
WORK_BOUNDS["verify.mc_samples"] = (2, MAX_MC_SAMPLES)
EDGE_VALUES = st.one_of(st.sampled_from([0, -1, 2**63, 2**64, 5e-324, 1e-320, 1e308]), st.floats())
# For each type, values of a neighbouring type that its reader refuses.
WRONG_TYPE = {
    "bool": [1, "true"], "int": [1.5, True, "7"], "float": ["0.5", True], "str": [1, 0.5],
    "floats": [True, "0.5,wide"], "names": [3, 0.5],
}


def _in_domain(spec: Key):
    """Values from a key's choices and bounds."""
    options = [st.sampled_from(spec.choices)] if spec.choices else []
    lo, hi = spec.bounds or (None, None)
    if spec.type == "int":
        options.append(st.integers(0, 3) if lo is None else st.integers(lo, min(hi, 2**64)))
    elif spec.type == "float":
        if lo is None:
            # mostly a magnitude from 1 down past the subnormals, where a schedule stops being representable
            magnitudes = st.sampled_from([10.0**-e for e in range(0, 331, 10)])
            options += [st.floats(0.0, 1.0), magnitudes, magnitudes]
        else:
            options.append(st.floats(lo, hi, exclude_min=True, exclude_max=True))
    elif spec.type == "floats":  # verify.angles: one or two, since each angle is a Monte-Carlo check
        options.append(st.lists(st.floats(0.0, 4.0), min_size=1, max_size=2).map(lambda xs: ",".join(map(repr, xs))))
    elif spec.type == "names":
        options.append(st.lists(st.sampled_from(NOISE_KINDS), min_size=1, max_size=2).map(",".join))
    elif spec.type == "bool":
        options.append(st.booleans())
    return st.one_of(options)


def _work_size(key: str, past: bool):
    lo, hi = WORK_BOUNDS[key]
    return st.sampled_from([hi + 1, 2**63, 2**64]) if past else st.integers(lo, WORK_SIZES[key])


# The keys besides the work sizes that each command reads; a key of another
# command's section is only type-checked, as TestMalformedFixtures covers.
COMMAND_SECTIONS = {"learn": ("learn", "eval"), "verify": ("verify",), "gradcheck": ("gradcheck",), "bench": ("bench",)}
READ_KEYS = {
    command: sorted(
        key for key in set(SCHEMA) - set(WORK_SIZES) - {"command", "out"}
        if key.split(".")[0] in sections or key.split(".")[0] not in {"eval", *COMMANDS}
    )
    for command, sections in COMMAND_SECTIONS.items()
}
KEY_NAMES = [key.rsplit(".", 1)[-1] for key in SCHEMA]
# The schedule's inputs, where a size can stop being representable
SCHEDULE_KEYS = {"learn.eps", "learn.delta", "learn.mode", "noise.eta_bound", "noise.c_strong"}


# One line of a config file: four times in five a schema key with a value, in
# its domain three times in four, else a line the parser refuses or bytes that
# are not UTF-8 text.
SCHEMA_LINE = st.sampled_from(sorted(SCHEMA)).flatmap(
    lambda key: st.sampled_from([_in_domain(SCHEMA[key])] * 3 + [ODD_VALUES]).flatmap(lambda values: values)
    .map(lambda value: f"{key} = {value}".encode())
)
JUNK_LINES = [
    b"", b"# comment", b"not a pair", b"= 3", b"{", b'{"trials": 1, "out": "a=b"}', b"learn.epsx = 0.1",
    b"\xff", b"trials = \xc3\x28", b"\xef\xbb\xbfbase_seed = 1", b"\x00 = 1",
]
CONFIG_LINE = st.sampled_from([SCHEMA_LINE] * 4 + [st.sampled_from(JUNK_LINES)]).flatmap(lambda lines: lines)


class TestConfigBytes:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_config_file_is_read_or_a_config_error(self, data):
        # Reading any config file, and checking its mapping, either succeeds or
        # raises ConfigError. A file the CLI refuses gives exit 1 before it
        # makes the output directory.
        command = data.draw(st.sampled_from(COMMANDS))
        lines = data.draw(st.lists(CONFIG_LINE, max_size=6))
        lines.insert(data.draw(st.integers(0, len(lines))), f"command = {command}".encode())
        body = data.draw(st.sampled_from([b""] * 7 + [b"\xef\xbb\xbf"])) + b"\n".join(lines)
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "c.cfg", Path(tmp) / "out"
            path.write_bytes(body)
            try:
                config_from_mapping(read_config(path))
            except ConfigError:
                pass
            try:  # the mapping the CLI checks: its own command and out
                config_from_mapping({**read_config(path), "command": command, "out": str(out)})
                return  # accepted; no trial runs here
            except ConfigError:
                pass
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli_main([command, "--config", str(path), "--out", str(out)])
            assert code == EXIT_CONFIG
            assert err.getvalue().startswith("config error:")
            assert not out.exists()


def _summary_agrees(command: str, out: Path, code: int) -> None:
    """summary.json and the exit code are what the CSV rows say."""
    summary = json.loads((out / "summary.json").read_text())
    _, header, rows = _read_artifact(out / f"{command}.csv")
    if command == "bench":
        assert summary["components"] == [row[0] for row in rows] and code == EXIT_OK
        return
    verdicts = [row[header.index("verdict")] for row in rows]
    passes, fails = verdicts.count("pass"), verdicts.count("fail")
    assert passes + fails + sum(v.startswith("abort:") for v in verdicts) == len(rows)
    if command == "learn":
        assert (summary["trials"], summary["passes"], summary["failures"]) == (len(rows), passes, len(rows) - passes)
        assert summary["aborts"] == len(rows) - summary["completed"] == len(rows) - passes - fails
        assert code == (EXIT_OK if passes >= summary["min_pass"] else EXIT_TRIAL_FAILURES)
    elif command == "verify":
        assert (summary["rows"], summary["passes"], summary["failures"]) == (len(rows), passes, fails)
        assert summary["aborts"] == len(rows) - passes - fails
        assert code == (EXIT_OK if passes == len(rows) else EXIT_TRIAL_FAILURES)
    else:
        assert (summary["cases"], summary["failures"]) == (len(rows), fails)
        assert code == (EXIT_OK if fails == 0 else EXIT_TRIAL_FAILURES)


class TestSchemaProperty:
    @given(data=st.data())
    @settings(max_examples=1000, deadline=None, derandomize=True)
    def test_drawn_config_runs_or_is_a_config_error(self, data):
        # A config drawn from SCHEMA either is refused by config_from_mapping
        # with a ConfigError that names a key, before anything is written, or
        # runs to exit 0 or 2 with a summary.json that agrees with its CSV.
        command = data.draw(st.sampled_from(["learn", "learn", *COMMANDS]))  # learn reads the most keys
        # a schedule input is set one time in two, any other key one time in ten
        keys = [key for key in READ_KEYS[command]
                if data.draw(st.sampled_from([True, False] if key in SCHEDULE_KEYS else [True, *[False] * 9]))]
        # Half the time one key is odd: a work size past its bound, or a set key
        # at an edge value or of a wrong type. Every other value is in its domain.
        odd = data.draw(st.sampled_from([None] * (len(WORK_SIZES) + len(keys)) + [*WORK_SIZES, *keys]))
        flat = {"command": command, **{key: data.draw(_work_size(key, key == odd)) for key in WORK_SIZES}}
        for key in keys:
            spec = SCHEMA[key]
            flat[key] = data.draw(st.one_of(EDGE_VALUES, st.sampled_from(WRONG_TYPE[spec.type])) if key == odd
                                  else _in_domain(spec))
        # mc_samples is checked only by the verify check it sizes
        must_refuse = odd in WORK_SIZES and (odd != "verify.mc_samples" or command == "verify")
        # An angle may need 1e7 points (6 s on the ball in d = 4); at most 2**20
        # here, so a check that needs more is an abort row, which the property allows.
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(verify, "MC_SAMPLE_CAP", 1 << 20):
            flat["out"] = str(Path(tmp) / "out")
            try:
                config = config_from_mapping(flat)
            except ConfigError as exc:
                assert any(re.search(rf"\b{name}\b", str(exc)) for name in KEY_NAMES), exc
                assert not Path(flat["out"]).exists()
                return
            assert not must_refuse, f"{odd} = {flat[odd]} was accepted"
            code = run(config)
            assert code in (EXIT_OK, EXIT_TRIAL_FAILURES)
            _summary_agrees(command, Path(flat["out"]), code)


def _readme_key_rows() -> dict:
    """Key -> (type, default, range) cells of the table under README's `### Keys`."""
    section = (REPO_ROOT / "README.md").read_text().split("### Keys", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            key, *cells = (cell.strip() for cell in line.strip("|").split("|"))
            rows[key.strip("`")] = cells
    return rows


class TestReadmeKeys:
    def test_keys_section_names_exactly_the_schema(self):
        rows = _readme_key_rows()
        assert sorted(rows) == sorted(SCHEMA)
        for key, (type_cell, default_cell, _) in rows.items():
            spec = SCHEMA[key]
            assert type_cell.split(" or ")[0] == spec.type, key
            if isinstance(spec.default, bool):
                assert default_cell == str(spec.default).lower(), key
            elif isinstance(spec.default, tuple):
                assert default_cell == ",".join(map(str, spec.default)), key
            elif spec.default is not None:
                assert default_cell.strip("`") == str(spec.default), key


class TestReadmeLibrary:
    def test_library_block_runs(self):
        # the block imports the top-level names README promises, and draws from a sampler
        section = (REPO_ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(code, namespace)
        assert namespace["xs"].shape == (1000, 5)


class TestExitCodes:
    def test_code_values_are_stable(self):
        assert EXIT_OK == 0
        assert EXIT_CONFIG == 1
        assert EXIT_TRIAL_FAILURES == 2


class TestScripts:
    def test_eps_sweep_reports_a_config_error_as_the_cli_does(self, tmp_path):
        # once a ConfigError traceback
        out = tmp_path / "eps"
        proc = subprocess.run([sys.executable, str(REPO_ROOT / "scripts" / "eps_sweep.py"), "--eps", "2", "--out", str(out)],
                              capture_output=True, text=True, env=_package_env(), cwd=tmp_path)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("config error:"), proc.stderr
        assert not out.exists()
