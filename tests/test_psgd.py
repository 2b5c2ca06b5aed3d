import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massart_halfspace import (
    PsgdConfig,
    PsgdDivergenceError,
    psgd_run,
    psgd_run_batch,
    sample_gradients,
    theoretical_iteration_count,
    theoretical_step_size,
)
from massart_halfspace.psgd import _recorded_steps, recorded_count

E1_3 = np.array([1.0, 0.0, 0.0])


def _moving_gradients(steps, rows, dim, seed=21):
    """Fixed per-step gradients large enough that every step moves the iterate."""
    return np.random.default_rng(seed).standard_normal((steps, rows, dim))


def _reference_iterates(starts, grads, beta):
    """Step-by-step numpy PSGD: the iterates after steps 0..len(grads)."""
    W, out = np.array(starts, dtype=np.float64), [np.array(starts, dtype=np.float64)]
    for G in grads:
        V = W - beta * G
        W = V / np.linalg.norm(V, axis=-1, keepdims=True)
        out.append(W)
    return np.array(out)


def _zero_oracle(v, s, rng):
    return 0.0, 1.0, np.zeros(len(v))


class TestConfigValidation:
    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            PsgdConfig(steps=0, step_size=0.1)
        with pytest.raises(ValueError):
            PsgdConfig(steps=2.0, step_size=0.1)

    def test_rejects_bad_step_size(self):
        with pytest.raises(ValueError):
            PsgdConfig(steps=5, step_size=0.0)
        with pytest.raises(ValueError):
            PsgdConfig(steps=5, step_size=float("inf"))

    def test_rejects_bad_record_every(self):
        with pytest.raises(ValueError):
            PsgdConfig(steps=5, step_size=0.1, record_every=0)


class TestSingleRun:
    def test_zero_oracle_freezes_iterates(self):
        traj = psgd_run(_zero_oracle, PsgdConfig(steps=10, step_size=0.5), w0=E1_3)
        assert np.allclose(traj.iterates, E1_3, atol=0)
        assert len(traj) == 11
        assert np.array_equal(traj.step_indices, np.arange(11))

    def test_one_step_hand_trace(self):
        # hand trace: v = e1 - 1.0 * e2, projected back to the sphere
        e2 = np.array([0.0, 1.0, 0.0])
        cfg = PsgdConfig(steps=1, step_size=1.0)
        traj = psgd_run(lambda v, s, rng: (0.0, 1.0, e2), cfg, w0=E1_3)
        expected = (E1_3 - e2) / math.sqrt(2.0)
        assert np.allclose(traj.final(), expected, atol=1e-15)

    def test_default_start_is_first_axis(self):
        traj = psgd_run(_zero_oracle, PsgdConfig(steps=1, step_size=0.1), dim=4)
        assert np.array_equal(traj.iterates[0], np.array([1.0, 0.0, 0.0, 0.0]))

    def test_needs_w0_or_dim(self):
        with pytest.raises(ValueError):
            psgd_run(_zero_oracle, PsgdConfig(steps=1, step_size=0.1))

    def test_rejects_non_unit_start(self):
        with pytest.raises(ValueError):
            psgd_run(_zero_oracle, PsgdConfig(steps=1, step_size=0.1), w0=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            psgd_run(_zero_oracle, PsgdConfig(steps=1, step_size=0.1), w0=np.array([math.nan, 0.0]))
        with pytest.raises(ValueError):
            psgd_run(_zero_oracle, PsgdConfig(steps=1, step_size=0.1), w0=np.array([[1.0, 0.0]]))

    def test_deterministic_across_runs(self):
        def noisy(v, s, rng):
            return 0.0, 1.0, rng.standard_normal(len(v))

        cfg = PsgdConfig(steps=50, step_size=0.05, seed=7)
        a = psgd_run(noisy, cfg, w0=E1_3)
        b = psgd_run(noisy, cfg, w0=E1_3)
        assert np.array_equal(a.iterates, b.iterates)
        c = psgd_run(noisy, PsgdConfig(steps=50, step_size=0.05, seed=8), w0=E1_3)
        assert not np.array_equal(a.iterates, c.iterates)

    def test_unit_norm_invariant(self):
        def noisy(v, s, rng):
            return 0.0, 1.0, rng.standard_normal(len(v))

        traj = psgd_run(noisy, PsgdConfig(steps=200, step_size=0.3, seed=3), w0=E1_3)
        norms = np.linalg.norm(traj.iterates, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_rank_one_gradient_matches_numpy_reference(self):
        # p != 0 gives every gradient a part along w, so the carried scale
        # s = 1/||v|| must track it; compare with w <- (w - b g)/||w - b g||
        steps, beta, record_every = 5000, 0.05, 50
        draws = np.random.default_rng(3)
        ps = draws.uniform(-2.0, 2.0, steps).tolist()
        qs = draws.uniform(-1.0, 1.0, steps).tolist()
        xs = draws.standard_normal((steps, 4))
        calls = iter(range(steps))

        def rank_one(v, s, rng):
            i = next(calls)
            return ps[i], qs[i], xs[i].tolist()

        start = np.array([0.5, 0.5, 0.5, 0.5])
        cfg = PsgdConfig(steps=steps, step_size=beta, record_every=record_every)
        traj = psgd_run(rank_one, cfg, w0=start)
        w, expected = start, [start]
        for i in range(steps):
            v = w - beta * (ps[i] * w + qs[i] * xs[i])
            w = v / np.linalg.norm(v)
            if (i + 1) % record_every == 0:
                expected.append(w)
        assert traj.iterates.shape == (steps // record_every + 1, 4)
        assert np.max(np.abs(traj.iterates - np.array(expected))) <= 1e-12

    def test_record_every_thins_and_keeps_final(self):
        traj = psgd_run(_zero_oracle, PsgdConfig(steps=10, step_size=0.1, record_every=4), w0=E1_3)
        assert np.array_equal(traj.step_indices, [0, 4, 8, 10])
        traj2 = psgd_run(_zero_oracle, PsgdConfig(steps=8, step_size=0.1, record_every=4), w0=E1_3)
        assert np.array_equal(traj2.step_indices, [0, 4, 8])

    def test_record_every_stores_each_iterate_in_its_slot(self):
        # a moving oracle makes every step's iterate distinct, so a row
        # stored one step early or late misses the reference
        grads = _moving_gradients(10, 1, 3)[:, 0]
        calls = iter(grads.tolist())
        traj = psgd_run(
            lambda v, s, rng: (0.0, 1.0, next(calls)),
            PsgdConfig(steps=10, step_size=0.3, record_every=4), w0=E1_3,
        )
        ref = _reference_iterates(E1_3, grads, 0.3)
        assert np.array_equal(traj.step_indices, [0, 4, 8, 10])
        assert np.max(np.abs(traj.iterates - ref[[0, 4, 8, 10]])) <= 1e-12
        assert np.min(np.linalg.norm(ref[[3, 5, 7, 9]] - ref[[4, 4, 8, 8]], axis=1)) > 1e-3


@pytest.mark.parametrize("steps", [1, 2, 3, 7, 8, 10, 12])
def test_recorded_count_matches_recorded_steps(steps):
    for every in range(1, steps + 3):  # every = 1, every = steps and every > steps
        idx = _recorded_steps(steps, every)
        assert recorded_count(steps, every) == len(idx)
        assert idx[0] == 0 and idx[-1] == steps and np.all(np.diff(idx) > 0)
        assert set(range(0, steps + 1, every)) <= set(idx.tolist())

    # 1e155 is finite, but the squares of the update it gives sum past the float range
    @pytest.mark.parametrize("fill", [np.nan, np.inf, 1e155])
    def test_nonfinite_gradient_aborts_with_step(self, fill):
        def explode(v, s, rng):
            return 0.0, 1.0, np.full(len(v), fill)

        with pytest.raises(PsgdDivergenceError) as info:
            psgd_run(explode, PsgdConfig(steps=5, step_size=0.1), w0=E1_3)
        assert info.value.step == 1

    @pytest.mark.parametrize("length", [2, 4])
    def test_wrong_length_gradient_raises_at_first_step(self, length):
        calls = []

        def misshapen(v, s, rng):
            calls.append(len(v))
            return 0.0, 1.0, [0.1] * length

        with pytest.raises(ValueError):
            psgd_run(misshapen, PsgdConfig(steps=5, step_size=0.1), w0=E1_3)
        assert calls == [3]

    def test_zero_update_aborts(self):
        def radial(v, s, rng):
            w = s * np.asarray(v)
            return 0.0, 1.0, w / 0.1  # v = w - 0.1 * (w/0.1) = 0

        with pytest.raises(PsgdDivergenceError):
            psgd_run(radial, PsgdConfig(steps=1, step_size=0.1), w0=E1_3)

    def test_orthogonal_gradients_never_shrink_preprojection(self):
        # with gradients orthogonal to w the projection only ever
        # contracts, so a huge step size still cannot diverge
        def ortho(v, s, rng):
            w = s * np.asarray(v)
            g = rng.standard_normal(w.shape[0])
            g -= (g @ w) * w
            return 0.0, 1.0, 100.0 * g

        traj = psgd_run(ortho, PsgdConfig(steps=100, step_size=1.0, seed=5), w0=E1_3)
        assert np.all(np.isfinite(traj.iterates))


class TestBatchRun:
    def test_matches_single_run_with_shared_stream(self):
        def batch_oracle(W, rng):
            return np.tile(np.array([0.0, 1.0, 0.0]), (W.shape[0], 1)) * 0.3

        def single_oracle(v, s, rng):
            return 0.0, 1.0, np.array([0.0, 1.0, 0.0]) * 0.3

        starts = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        cfg = PsgdConfig(steps=20, step_size=0.2, seed=11, record_every=5)
        batch = psgd_run_batch(batch_oracle, cfg, starts)
        assert batch.iterates.shape == (5, 2, 3)
        for row in range(2):
            solo = psgd_run(single_oracle, cfg, w0=starts[row])
            # batched norms accumulate in a different order than the
            # scalar path, so agreement is to rounding, not bitwise
            assert np.allclose(batch.iterates[:, row, :], solo.iterates, rtol=0, atol=1e-12)

    def test_record_every_stores_each_iterate_in_its_slot(self):
        starts = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        grads = _moving_gradients(10, 2, 3)
        calls = iter(grads)
        traj = psgd_run_batch(
            lambda W, rng: next(calls), PsgdConfig(steps=10, step_size=0.3, record_every=4), starts
        )
        ref = _reference_iterates(starts, grads, 0.3)
        assert np.array_equal(traj.step_indices, [0, 4, 8, 10])
        assert traj.iterates.shape == (4, 2, 3)
        assert np.max(np.abs(traj.iterates - ref[[0, 4, 8, 10]])) <= 1e-12

    def test_rejects_bad_shapes_and_norms(self):
        cfg = PsgdConfig(steps=1, step_size=0.1)
        with pytest.raises(ValueError):
            psgd_run_batch(lambda W, rng: W, cfg, np.ones(3))
        with pytest.raises(ValueError):
            psgd_run_batch(lambda W, rng: W, cfg, np.ones((2, 3)))

    def test_divergence_names_the_row(self):
        def poison(W, rng):
            G = np.zeros_like(W)
            G[1] = np.inf
            return G

        starts = np.eye(3)
        with pytest.raises(PsgdDivergenceError) as info:
            psgd_run_batch(poison, PsgdConfig(steps=2, step_size=0.1), starts)
        assert "row 1" in str(info.value)


class TestTheoreticalSchedules:
    def test_step_size_hand_values(self):
        assert theoretical_step_size(1.0, 2.0, 1.0, 1) == 1.0
        assert theoretical_step_size(1.0, 1.0, 1.0, 4) == pytest.approx(
            0.7071067811865476, abs=1e-16
        )

    def test_step_size_quarter_steps_halves(self):
        b1 = theoretical_step_size(3.0, 5.0, 2.0, 100)
        b4 = theoretical_step_size(3.0, 5.0, 2.0, 400)
        assert b4 == pytest.approx(b1 / 2.0, rel=1e-15)

    def test_step_size_validation(self):
        with pytest.raises(ValueError):
            theoretical_step_size(0.0, 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            theoretical_step_size(1.0, 1.0, 1.0, 0)

    def test_iteration_count_hand_values(self):
        assert theoretical_iteration_count(1.0, 1.0, 1.0, 0.0, 1.0, 0.5) == 2
        # hand arithmetic: ceil((2 + 8*ln(e))/0.5^4) = ceil(10/0.0625)
        assert theoretical_iteration_count(1.0, 1.0, 1.0, 1.0, 0.5, math.exp(-1.0)) == 160

    def test_iteration_count_eps_scaling(self):
        t1 = theoretical_iteration_count(2.0, 3.0, 1.0, 1.5, 0.2, 0.1)
        t2 = theoretical_iteration_count(2.0, 3.0, 1.0, 1.5, 0.1, 0.1)
        # scaling is exact up to the two independent ceilings
        assert 16 * (t1 - 1) < t2 <= 16 * t1

    def test_iteration_count_validation(self):
        with pytest.raises(ValueError):
            theoretical_iteration_count(1.0, 1.0, 1.0, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            theoretical_iteration_count(1.0, 1.0, 1.0, 1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            theoretical_iteration_count(1.0, 1.0, 1.0, -1.0, 0.5, 0.5)


class TestMeanStationarity:
    def test_average_squared_gradient_tracks_bound(self):
        # smooth synthetic objective f(w) = 1 - <a, w/||w||>^2 with known
        # gradient; average squared trajectory gradient should land within
        # 2x of sqrt(L*B*R/(2T)) at the matching theoretical step size
        a = np.array([0.6, -0.8, 0.0])
        L, B, R = 2.0, 4.0, 1.0
        T = 400

        def true_grad(w):
            m = float(a @ w)
            return -2.0 * m * (a - m * w)

        def oracle(v, s, rng):
            w = s * np.asarray(v)
            return 0.0, 1.0, true_grad(w) + 0.1 * rng.standard_normal(3)

        beta = theoretical_step_size(L, B, R, T)
        traj = psgd_run(oracle, PsgdConfig(steps=T, step_size=beta, seed=17), w0=E1_3)
        mean_sq = float(np.mean([float(np.dot(g, g)) for g in map(true_grad, traj.iterates)]))
        bound = math.sqrt(L * B * R / (2.0 * T))
        if mean_sq > bound:
            assert mean_sq <= 2.0 * bound

    @given(st.integers(0, 10**4))
    @settings(max_examples=20, deadline=None)
    def test_synthetic_objective_progress(self, seed):
        # gradient descent on f(w) = 1 - <a, w>^2 should reduce the value
        a = np.array([0.0, 1.0, 0.0])

        def oracle(v, s, rng):
            w = s * np.asarray(v)
            m = float(a @ w)
            return 0.0, 1.0, -2.0 * m * (a - m * w) + 0.01 * rng.standard_normal(3)

        start = np.array([0.8, 0.6, 0.0])
        traj = psgd_run(oracle, PsgdConfig(steps=300, step_size=0.05, seed=seed), w0=start)
        assert 1 - float(a @ traj.final()) ** 2 < 1 - 0.6**2
