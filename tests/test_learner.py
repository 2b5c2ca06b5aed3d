import dataclasses
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massart_halfspace import (
    LearnParams,
    MarginalSampler,
    MassartOracle,
    NoiseStrategy,
    PsgdConfig,
    SurrogateSpec,
    disk_profile,
    excess_to_target_error,
    gaussian_profile,
    learn,
    lemma_sigma_cap,
    per_sample_gradient,
    schedule_for,
    select_hypothesis,
    sign_of,
    surrogate_derivative,
)
from massart_halfspace import learner
from massart_halfspace.learner import _BLOCK_PRODUCTS, _SELECT_CHUNK, _STREAM_CHUNK, _select, candidate_step_sign
from massart_halfspace.rng import STREAM_SELECT

DISK = disk_profile()


def _params(**kw):
    base = dict(eps=0.1, profile=DISK, delta=0.1)
    base.update(kw)
    return LearnParams(**base)


def _massart(eta_bound=0.3):
    return NoiseStrategy(kind="constant", eta_bound=eta_bound)


def _strong(c_strong=0.5):
    return NoiseStrategy(kind="strong_massart_max", c_strong=c_strong)


class TestParamsValidation:
    def test_eps_delta_ranges(self):
        with pytest.raises(ValueError):
            _params(eps=0.0)
        with pytest.raises(ValueError):
            _params(eps=1.0)
        with pytest.raises(ValueError):
            _params(delta=0.0)

    def test_overrides_validated(self):
        for bad in ({"steps_override": 0}, {"selection_override": 0}, {"record_every": -1}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                _params(**bad)
        _params(steps_override=1, selection_override=1, record_every=0)

    def test_strong_regime_needs_slope_at_most_one(self):
        # the strategy itself takes any positive slope; only the learner needs c <= 1
        with pytest.raises(ValueError, match=r"c_strong in \(0, 1\], got 1.5"):
            schedule_for(_params(), _strong(c_strong=1.5), 3)
        schedule_for(_params(), _strong(c_strong=1.0), 3)
        schedule_for(_params(), _massart(eta_bound=0.0), 3)

    def test_mode_checked(self):
        with pytest.raises(ValueError):
            _params(mode="exhaustive")


class TestTheoreticalSchedules:
    def test_bounded_regression_tuple(self):
        # frozen from standalone arithmetic on the disk constants
        # (U=4*pi, R=2, t=2) at d=10, eps=0.1, eta=0.3, delta=0.1
        sched = schedule_for(_params(mode="theoretical"), _massart(), 10)
        assert float(sched.steps) == pytest.approx(3.4051335028632426e22, rel=1e-12)
        assert sched.step_size == pytest.approx(8.692675416002418e-20, rel=1e-12)
        assert sched.sigma == pytest.approx(5.006339173122589e-06, rel=1e-12)
        assert sched.selection_samples == 135462
        assert sched.theta_target == pytest.approx(0.00039788735772973844, rel=1e-12)
        # the width formula overshoots the structural cap here, so the cap wins
        assert sched.sigma == sched.sigma_cap

    def test_strong_regression_tuple(self):
        # frozen from standalone arithmetic at d=5, eps=0.1, c=0.5, delta=0.1
        sched = schedule_for(_params(mode="theoretical"), _strong(), 5)
        assert sched.steps == 1785270633949164800
        assert sched.step_size == pytest.approx(2.3447607930408094e-17, rel=1e-12)
        assert sched.sigma == pytest.approx(6.596430138892129e-06, rel=1e-12)
        assert sched.selection_samples == 17732
        assert sched.theta_target == pytest.approx(0.0009947183943243459, rel=1e-12)
        assert sched.sigma == sched.sigma_cap

    def test_noise_gap_scaling(self):
        # T carries the gap to the -10th power: eta=0.4 has gap 0.2,
        # eta=0 has gap 1, so the ratio is 5^10
        t_clean = schedule_for(_params(mode="theoretical"), _massart(eta_bound=0.0), 4).steps
        t_noisy = schedule_for(_params(mode="theoretical"), _massart(eta_bound=0.4), 4).steps
        assert t_noisy / t_clean == pytest.approx(5.0**10, rel=1e-12)

    def test_eps_scaling(self):
        base = schedule_for(_params(mode="theoretical"), _massart(), 4)
        half = schedule_for(_params(eps=0.05, mode="theoretical"), _massart(), 4)
        assert half.steps / base.steps == pytest.approx(16.0, rel=1e-12)
        # sigma halves exactly up to the sin() in the cap
        assert half.sigma / base.sigma == pytest.approx(0.5, rel=1e-6)

    def test_strong_slope_scaling(self):
        base = schedule_for(_params(mode="theoretical"), _strong(), 5)
        halved = schedule_for(_params(mode="theoretical"), _strong(c_strong=0.25), 5)
        assert halved.steps / base.steps == pytest.approx(64.0, rel=1e-12)
        # selection only grows through ln(T), not through the slope itself
        assert halved.selection_samples / base.selection_samples <= 1.15

    def test_dim_scaling_is_linear(self):
        t1 = schedule_for(_params(mode="theoretical"), _massart(), 3).steps
        t2 = schedule_for(_params(mode="theoretical"), _massart(), 6).steps
        assert t2 / t1 == pytest.approx(2.0, rel=1e-12)


class TestPracticalSchedules:
    def test_bounded_formulas(self):
        sched = schedule_for(_params(), _massart(), 2)
        # hand arithmetic: 2e5*2/(0.1^2 * 0.4^2) = 2.5e8, capped at 1e6
        assert sched.steps == 1_000_000
        assert sched.step_size == pytest.approx(1.0 / math.sqrt(1_000_000), rel=1e-15)
        assert sched.sigma == 0.25
        assert sched.record_every == 20_000
        assert sched.candidate_count == 102
        expected_n = math.ceil(50.0 * math.log(102 / 0.1) / (0.1 * 0.4) ** 2)
        assert sched.selection_samples == expected_n

    def test_uncapped_step_count(self):
        sched = schedule_for(_params(eps=0.9), _massart(eta_bound=0.0), 1)
        assert sched.steps == math.ceil(2.0e5 / 0.9**2)

    def test_strong_uses_slope_in_place_of_gap(self):
        sched = schedule_for(_params(eps=0.9), _strong(), 1)
        assert sched.steps == math.ceil(2.0e5 / (0.9**2 * 0.5**2))
        expected_n = math.ceil(50.0 * math.log(sched.candidate_count / 0.1) / 0.9**2)
        assert sched.selection_samples == expected_n

    def test_dispatch_matches_model(self):
        regimes = ((_massart(), "sigmoid", 0.3), (_strong(), "strong", 0.5))
        for noise, cap_kind, cap_param in regimes:
            sched = schedule_for(_params(), noise, 3)
            assert sched.sigma_cap == lemma_sigma_cap(cap_kind, DISK, cap_param, sched.theta_target)
        with pytest.raises(ValueError):
            schedule_for(_params(), _massart(), 0)

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="budget"):
            schedule_for(_params(budget=500_000), _massart(), 2)
        sched = schedule_for(_params(budget=500_000, steps_override=1000), _massart(), 2)
        assert sched.steps == 1000

    def test_overrides_take_precedence(self):
        sched = schedule_for(
            _params(
                steps_override=4000,
                step_size_override=0.02,
                sigma_override=0.3,
                selection_override=777,
                record_every=400,
            ),
            _massart(),
            2,
        )
        assert sched.steps == 4000
        assert sched.step_size == 0.02
        assert sched.sigma == 0.3
        assert sched.selection_samples == 777
        assert sched.record_every == 400
        assert sched.candidate_count == 2 * 11

    def test_psgd_config_is_the_schedule(self):
        sched = schedule_for(_params(steps_override=4000, step_size_override=0.02, record_every=400), _massart(), 2)
        assert sched.psgd == PsgdConfig(steps=4000, step_size=0.02, record_every=400)

    def test_refusals_keep_their_order(self):
        # the budget, then the surrogate width, then the PSGD step size
        bad = dict(sigma_override=20.0, step_size_override=0.0)
        with pytest.raises(ValueError, match="budget"):
            schedule_for(_params(budget=10, steps_override=11, **bad), _massart(), 2)
        with pytest.raises(ValueError, match="sigma must lie in"):
            schedule_for(_params(**bad), _massart(), 2)
        with pytest.raises(ValueError, match="step_size must be positive"):
            schedule_for(_params(step_size_override=0.0), _massart(), 2)
        with pytest.raises(ValueError, match="step_size must be positive"):
            schedule_for(_params(step_size_override=math.inf), _massart(), 2)

    @pytest.mark.parametrize("mode", ["practical", "theoretical"])
    @pytest.mark.parametrize("noise, key, value", [
        (_massart(), "eps", 1e-200),
        (_strong(c_strong=1e-200), "c_strong", 1e-200),
        (_massart(), "eps", 1e-160),
        (_strong(), "eps", 1e-160),
        (_massart(), "delta", 1e-320),
        (_strong(), "delta", 1e-320),
    ])
    def test_unrepresentable_schedule_names_its_parameter(self, mode, noise, key, value):
        # These once raised ZeroDivisionError or OverflowError: a resolution
        # that underflows to zero, or a count past the float range.
        params = _params(mode=mode, **({} if key == "c_strong" else {key: value}))
        with pytest.raises(ValueError, match=f"{key} = {value!r}.* too large to represent"):
            schedule_for(params, noise, 10)

    def test_auto_record_every_targets_fifty_recordings(self):
        sched = schedule_for(_params(steps_override=1234), _massart(), 2)
        assert sched.record_every == math.ceil(1234 / 50)


class TestSelectHypothesis:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(40)
        candidates = rng.standard_normal((7, 3))
        candidates /= np.linalg.norm(candidates, axis=1)[:, None]
        xs = rng.standard_normal((200, 3))
        ys = np.where(rng.random(200) < 0.5, 1.0, -1.0)
        idx, err, errors = select_hypothesis(candidates, xs, ys)
        brute = []
        for c in candidates:
            preds = np.where(xs @ c >= 0.0, 1.0, -1.0)
            brute.append(float(np.mean(preds != ys)))
        assert np.allclose(errors, brute, atol=1e-15)
        assert idx == int(np.argmin(brute))
        assert err == min(brute)

    def test_first_argmin_wins_ties(self):
        w = np.array([1.0, 0.0])
        candidates = np.vstack([w, w, -w])
        xs = np.array([[1.0, 0.0], [-1.0, 0.0]])
        ys = np.array([1.0, 1.0])
        idx, err, errors = select_hypothesis(candidates, xs, ys)
        assert idx == 0
        assert err == 0.5
        assert np.array_equal(errors, [0.5, 0.5, 0.5])

    def test_chunking_is_immaterial(self):
        rng = np.random.default_rng(41)
        candidates = rng.standard_normal((5, 2))
        xs = rng.standard_normal((1000, 2))
        ys = np.where(rng.random(1000) < 0.5, 1.0, -1.0)
        a = select_hypothesis(candidates, xs, ys)
        b = select_hypothesis(candidates, xs, ys, chunk=97)
        assert a[0] == b[0]
        assert np.array_equal(a[2], b[2])

    def test_slab_split_into_blocks_matches_brute_force(self):
        # 512 candidates make blocks of _BLOCK_PRODUCTS // 512 rows, so one
        # 2,500-point slab is counted in two full blocks and a partial one
        rng = np.random.default_rng(42)
        candidates = rng.standard_normal((512, 2))
        xs = rng.standard_normal((2500, 2))
        ys = np.where(rng.random(2500) < 0.5, 1.0, -1.0)
        assert 2 * (_BLOCK_PRODUCTS // 512) < 2500 < 3 * (_BLOCK_PRODUCTS // 512)
        _, _, errors = select_hypothesis(candidates, xs, ys)
        brute = np.count_nonzero(sign_of(xs @ candidates.T) != ys[:, None], axis=0)
        assert np.array_equal(errors, brute / 2500)

    def test_each_slab_is_dead_before_the_next_is_drawn(self):
        rng = np.random.default_rng(43)
        candidates = rng.standard_normal((4, 3))
        refs = []

        def slab():
            assert all(ref() is None for ref in refs), "the previous slab is still alive"
            zs, neg = rng.standard_normal((300, 3)), rng.random(300) < 0.5
            refs[:] = [weakref.ref(zs), weakref.ref(neg)]
            return zs, neg

        _select(candidates, (slab() for _ in range(3)), 900)
        assert len(refs) == 2

    def test_pair_count_matches_explicit_count_at_planted_ties(self):
        # integer points orthogonal to integer candidates give exact zero
        # products, which sign_of reads as +1 for w and for -w alike
        rng = np.random.default_rng(44)
        W = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0], [2.0, -1.0, 3.0]])
        planted = [np.cross(w, rng.integers(-4, 5, (600, 3))) for w in W]
        xs = np.vstack([*planted, rng.integers(-4, 5, (600, 3))]).astype(np.float64)
        xs = xs[rng.permutation(xs.shape[0])]
        n = xs.shape[0]
        ys = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        ties = xs @ W.T == 0.0
        assert ties.sum(axis=0).min() >= 500
        assert all(np.unique(ys[ties[:, j]]).tolist() == [-1.0, 1.0] for j in range(3))
        slabs = ((xs[lo : lo + 700] * ys[lo : lo + 700, None], ys[lo : lo + 700] < 0.0) for lo in range(0, n, 700))
        explicit = np.count_nonzero(sign_of(xs @ np.vstack([W, -W]).T) != ys[:, None], axis=0)
        assert np.array_equal(_select(W, slabs, n), explicit / n)

    def test_labels_must_be_one_per_point_and_signs(self):
        # one label once broadcast over three points; 0.5 and 0 once read as +1 and -1
        with pytest.raises(ValueError, match="labels must be 3 values of \\+1 or -1"):
            select_hypothesis(np.eye(2), np.ones((3, 2)), np.array([1.0]))
        for bad in (0.5, 0.0, 2.0, np.nan):
            with pytest.raises(ValueError, match="labels"):
                select_hypothesis(np.eye(2), np.ones((3, 2)), np.array([1.0, bad, -1.0]))

    @pytest.mark.parametrize("shape", [(3,), (3, 3), (3, 1), (3, 2, 1)])
    def test_points_must_match_the_candidates_width(self, shape):
        with pytest.raises(ValueError, match="points must be an \\(n, 2\\) array"):
            select_hypothesis(np.eye(2), np.ones(shape), np.ones(3))

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            select_hypothesis(np.empty((0, 2)), np.ones((3, 2)), np.ones(3))
        with pytest.raises(ValueError):
            select_hypothesis(np.ones((2, 2)), np.empty((0, 2)), np.empty(0))

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_rejected(self, chunk):
        with pytest.raises(ValueError, match=f"chunk must be at least 1, got {chunk}"):
            select_hypothesis(np.eye(2), np.ones((3, 2)), np.ones(3), chunk=chunk)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_perfect_candidate_is_chosen(self, seed):
        rng = np.random.default_rng(seed)
        true_w = rng.standard_normal(3)
        true_w /= np.linalg.norm(true_w)
        xs = rng.standard_normal((300, 3))
        ys = np.where(xs @ true_w >= 0.0, 1.0, -1.0)
        decoys = rng.standard_normal((4, 3))
        candidates = np.vstack([decoys, true_w])
        idx, err, _ = select_hypothesis(candidates, xs, ys)
        assert err <= min(
            float(np.mean(np.where(xs @ c >= 0, 1.0, -1.0) != ys)) for c in decoys
        )
        assert np.isclose(err, 0.0) or idx != 4


class TestDisagreementKernel:
    def test_matches_sign_of_counts_with_exact_zero_products(self):
        rng = np.random.default_rng(42)
        candidates = rng.standard_normal((9, 4))
        candidates[0] = [1.0, 0.0, 0.0, 0.0]
        candidates[1] = [-1.0, 0.0, 0.0, 0.0]
        xs = rng.standard_normal((500, 4))
        xs[:40] = 0.0          # every product is 0.0 or -0.0
        xs[40:80, 0] = 0.0     # products against candidates 0 and 1 are zero
        ys = np.where(rng.random(500) < 0.5, 1.0, -1.0)
        prods = xs @ candidates.T
        assert np.count_nonzero(prods == 0.0) >= 40 * 9 + 40 * 2
        _, _, errors = select_hypothesis(candidates, xs, ys)
        expected = np.sum(sign_of(prods) != ys[:, None], axis=0)
        assert np.array_equal(errors, expected / 500)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_product_raises(self, bad):
        candidates = np.array([[1.0, 0.0], [0.0, 1.0]])
        xs = np.array([[0.5, 0.5], [bad, 0.0]])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            select_hypothesis(candidates, xs, np.ones(2))


class TestExcessConversion:
    def test_hand_value(self):
        assert excess_to_target_error(0.1, 0.3) == pytest.approx(0.25, rel=1e-15)

    def test_zero_noise_identity(self):
        assert excess_to_target_error(0.07, 0.0) == 0.07

    def test_validation(self):
        with pytest.raises(ValueError):
            excess_to_target_error(0.1, 0.5)
        with pytest.raises(ValueError):
            excess_to_target_error(0.1, -0.01)


def _small_learn_setup(kind="constant", seed=500, **strategy_kw):
    strategy = NoiseStrategy(kind=kind, **strategy_kw)
    target = np.array([math.cos(1.0), math.sin(1.0)])
    oracle = MassartOracle(
        target=target,
        strategy=strategy,
        marginal=MarginalSampler(kind="uniform_disk_2d", dim=2),
        seed=seed,
    )
    params = _params(
        steps_override=3000,
        step_size_override=0.02,
        sigma_override=0.25,
        selection_override=3000,
        record_every=300,
    )
    return oracle, params, target


class TestLearnPipeline:
    def test_report_bookkeeping(self):
        oracle, params, target = _small_learn_setup(eta_bound=0.2)
        report = learn(oracle, params, psgd_seed=1)
        assert report.schedule.steps + report.schedule.selection_samples == 3000 + 3000
        assert report.candidate_count == 2 * 11
        assert report.candidate_errors.shape == (22,)
        step, sign = candidate_step_sign(report.trajectory.step_indices, report.chosen_index)
        assert sign in (-1, 1)
        assert 0 <= step <= 3000
        assert report.candidate_errors[report.chosen_index] == report.candidate_errors.min()
        assert np.linalg.norm(report.chosen) == pytest.approx(1.0, abs=1e-9)
        assert report.wall_time_s > 0.0

    def test_chosen_matches_trajectory_entry(self):
        oracle, params, _ = _small_learn_setup(eta_bound=0.2)
        report = learn(oracle, params, psgd_seed=1)
        k = report.trajectory.iterates.shape[0]
        base = report.trajectory.iterates[report.chosen_index % k]
        sign = candidate_step_sign(report.trajectory.step_indices, report.chosen_index)[1]
        assert np.array_equal(report.chosen, sign * base)

    def test_deterministic(self):
        r1 = learn(*_small_learn_setup(eta_bound=0.2)[:2], psgd_seed=3)
        r2 = learn(*_small_learn_setup(eta_bound=0.2)[:2], psgd_seed=3)
        assert np.array_equal(r1.chosen, r2.chosen)
        assert r1.chosen_index == r2.chosen_index
        assert np.array_equal(r1.candidate_errors, r2.candidate_errors)

    def test_psgd_seed_changes_nothing(self):
        r1 = learn(*_small_learn_setup(eta_bound=0.2)[:2], psgd_seed=1)
        r2 = learn(*_small_learn_setup(eta_bound=0.2)[:2], psgd_seed=2)
        assert np.array_equal(r1.chosen, r2.chosen)
        assert np.array_equal(r1.candidate_errors, r2.candidate_errors)
        assert np.array_equal(r1.trajectory.iterates, r2.trajectory.iterates)

    def test_default_start_is_first_axis(self):
        oracle, params, _ = _small_learn_setup(eta_bound=0.2)
        report = learn(oracle, dataclasses.replace(params, steps_override=10))
        assert np.array_equal(report.trajectory.iterates[0], [1.0, 0.0])

    def test_learns_under_bounded_noise(self):
        oracle, params, target = _small_learn_setup(eta_bound=0.2)
        report = learn(oracle, params, psgd_seed=7)
        # OPT is 0.2 here; a sane run should sit well under 0.3
        assert report.candidate_errors[report.chosen_index] <= 0.3
        angle = math.acos(np.clip(abs(float(report.chosen @ target)), -1, 1))
        assert angle <= 0.35

    def test_selection_slab_is_dead_before_the_next_is_drawn(self):
        oracle, params, _ = _small_learn_setup(eta_bound=0.2)
        params = dataclasses.replace(params, selection_override=2 * _SELECT_CHUNK + 5)
        sel_oracle = oracle.spawn(STREAM_SELECT)
        refs, sizes = [], []

        def tracked_draw(n):
            assert all(ref() is None for ref in refs), "the previous slab is still alive"
            batch = MassartOracle.draw(sel_oracle, n)
            refs[:] = [weakref.ref(batch.xs), weakref.ref(batch.ys)]
            sizes.append(n)
            return batch

        sel_oracle.draw = tracked_draw
        oracle.spawn = lambda *path: sel_oracle  # learn() spawns only its selection oracle
        report = learn(oracle, params, psgd_seed=1)
        assert sizes == [_SELECT_CHUNK, _SELECT_CHUNK, 5]
        # the same slabs, counted the same way, as without the tracking
        untracked = learn(_small_learn_setup(eta_bound=0.2)[0], params, psgd_seed=1)
        assert np.array_equal(report.candidate_errors, untracked.candidate_errors)

    def test_noise_class_comes_from_the_oracle(self):
        # the same params learn under the sigma cap of each oracle's noise class
        for strategy_kw, cap_kind, cap_param in (
            ({"eta_bound": 0.2}, "sigmoid", 0.2),
            ({"kind": "strong_massart_max", "c_strong": 0.5}, "strong", 0.5),
        ):
            oracle, params, _ = _small_learn_setup(**strategy_kw)
            sched = learn(oracle, dataclasses.replace(params, steps_override=100)).schedule
            assert sched.sigma_cap == lemma_sigma_cap(cap_kind, DISK, cap_param, sched.theta_target)

    def test_zero_selection_sample_rejected(self):
        # n = 0 would divide by zero and pick candidate 0 from all-NaN errors
        oracle, _, _ = _small_learn_setup(eta_bound=0.2)
        with pytest.raises(ValueError, match="selection_override"):
            learn(oracle, _params(selection_override=0))

    def test_strong_regime_runs(self):
        strategy = NoiseStrategy(kind="strong_massart_max", c_strong=0.5)
        target = np.array([0.0, 1.0])
        oracle = MassartOracle(
            target=target,
            strategy=strategy,
            marginal=MarginalSampler(kind="uniform_disk_2d", dim=2),
            seed=501,
        )
        params = _params(
            steps_override=3000,
            step_size_override=0.02,
            sigma_override=0.25,
            selection_override=3000,
            record_every=300,
        )
        report = learn(oracle, params, psgd_seed=2)
        angle = math.acos(np.clip(abs(float(report.chosen @ target)), -1, 1))
        assert angle <= 0.35


def test_step_matches_numpy_reference_step():
    # The learner's float-list step against a projected step on the
    # surrogate module's sigmoid gradient, the kernel the gradcheck command
    # certifies: only rounding may differ.
    strategy = NoiseStrategy(kind="boundary_concentrated", eta_bound=0.4, band=0.2)

    def make_oracle():
        target = np.ones(10) / math.sqrt(10.0)
        return MassartOracle(
            target=target,
            strategy=strategy,
            marginal=MarginalSampler(kind="standard_gaussian", dim=10),
            seed=77,
        )

    steps, record_every = 5000, 100
    params = LearnParams(
        eps=0.05, profile=gaussian_profile(),
        steps_override=steps, record_every=record_every, selection_override=100,
    )
    sched = schedule_for(params, strategy, 10)
    assert sched.sigma == 0.25 and sched.step_size == 1e-3
    report = learn(make_oracle(), params)

    batch = make_oracle().draw(_STREAM_CHUNK)
    spec, beta = SurrogateSpec(kind="sigmoid", sigma=sched.sigma), sched.step_size
    w = np.zeros(10)
    w[0] = 1.0
    indices, iterates = [0], [w]
    for i in range(1, steps + 1):
        v = w - beta * per_sample_gradient(w, batch.xs[i - 1], batch.ys[i - 1], spec)
        w = v / math.sqrt(float(v @ v))
        if i % record_every == 0:
            indices.append(i)
            iterates.append(w)
    assert np.array_equal(report.trajectory.step_indices, indices)
    assert np.max(np.abs(report.trajectory.iterates - np.array(iterates))) <= 1e-12


@pytest.mark.parametrize("sigma", [0.05, 0.25, 1.0])
def test_scalar_dloss_matches_sigmoid_derivative(sigma, monkeypatch):
    # the per-step derivative learn() hands to psgd_run against the
    # surrogate module's array form, over margins from the peak out to
    # where q underflows
    real_psgd_run, passed = learner.psgd_run, []

    def capturing(examples, config, *args, dloss, **kwargs):
        passed.append(dloss)
        return real_psgd_run(examples, config, *args, dloss=dloss, **kwargs)

    monkeypatch.setattr(learner, "psgd_run", capturing)
    oracle, params, _ = _small_learn_setup(eta_bound=0.2)
    learn(oracle, dataclasses.replace(params, sigma_override=sigma, steps_override=10))
    grid = np.concatenate([np.linspace(-40.0 * sigma, 40.0 * sigma, 4001), [-1e3, 1e3, 0.0, -0.0]])
    expected = surrogate_derivative(SurrogateSpec("sigmoid", sigma), grid)
    got = np.array([passed[0](m) for m in grid.tolist()])
    assert len(passed) == 1
    assert np.all(np.abs(got - expected) <= 1e-15 * expected)
