import itertools
import math
import os
import subprocess
import sys
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import massart_halfspace
from massart_halfspace import (
    PsgdConfig,
    PsgdDivergenceError,
    psgd_run,
    psgd_run_batch,
    sample_gradients,
    theoretical_iteration_count,
    theoretical_step_size,
)
from massart_halfspace.psgd import _recorded_steps, _segment_kernel, recorded_count
from massart_halfspace.rng import STREAM_PSGD, make_rng

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


def _margin_reference(start, zs, beta, dloss):
    """Step-by-step numpy PSGD of a margin loss, w <- (w - b g)/||w - b g||
    with g = -dloss(m) (z - m w) and m = <w, z>: the iterates after steps
    0..len(zs)."""
    w = np.array(start, dtype=np.float64)
    out = [w]
    for z in zs:
        m = float(w @ z)
        v = w + beta * dloss(m) * (z - m * w)
        w = v / np.linalg.norm(v)
        out.append(w)
    return np.array(out)


def _list_loop(examples, config, w0, dloss):
    """The single run as one list per step: v <- [a * vi + b * zi], the
    loop the generated kernel replaces, kept as its bit-level reference."""
    v, s = list(w0), 1.0
    record = _recorded_steps(config.steps, config.record_every)
    iterates = [list(v)]
    for slot in range(1, record.shape[0]):
        for *z, zz in itertools.islice(examples, record[slot] - record[slot - 1]):
            m = math.fsum(map(mul, z, v)) * s
            b = config.step_size * dloss(m)
            a = (1.0 - b * m) * s
            v = [a * vi + b * zi for vi, zi in zip(v, z, strict=True)]
            s = 1.0 / math.sqrt(1.0 + b * b * (zz - m * m))
        nv = math.sqrt(math.fsum(map(mul, v, v)))
        iterates.append([vi / nv for vi in v])
        s = 1.0 / nv
    return record, np.array(iterates)


def _stream(zs):
    """The examples (z0, ..., z{d-1}, ||z||^2) of the rows of zs, as psgd_run takes them."""
    zs = np.asarray(zs, dtype=np.float64)
    return zip(*zs.T.tolist(), np.einsum("ij,ij->i", zs, zs).tolist())


def _unit_slope(m):
    return 1.0


def _bump(m):
    """Positive, even and decaying in |m|, like the sigmoid's derivative."""
    return math.exp(-abs(m))


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
    def test_zero_examples_freeze_iterates(self):
        traj = psgd_run(_stream(np.zeros((10, 3))), PsgdConfig(steps=10, step_size=0.5), w0=E1_3,
                        dloss=_unit_slope)
        assert np.allclose(traj.iterates, E1_3, atol=0)
        assert len(traj) == 11
        assert np.array_equal(traj.step_indices, np.arange(11))

    def test_one_step_hand_trace(self):
        # hand trace: m = <e1, e2> = 0, so g = -e2 and v = e1 + e2,
        # projected back to the sphere
        e2 = np.array([0.0, 1.0, 0.0])
        cfg = PsgdConfig(steps=1, step_size=1.0)
        traj = psgd_run(_stream([e2]), cfg, w0=E1_3, dloss=_unit_slope)
        expected = (E1_3 + e2) / math.sqrt(2.0)
        assert np.allclose(traj.iterates[-1], expected, atol=1e-15)

    def test_rejects_non_unit_start(self):
        cfg = PsgdConfig(steps=1, step_size=0.1)
        for w0 in (np.array([1.0, 1.0]), np.array([math.nan, 0.0]), np.array([[1.0, 0.0]])):
            with pytest.raises(ValueError):
                psgd_run(_stream(np.zeros((1, 2))), cfg, w0=w0, dloss=_unit_slope)

    def test_short_stream_raises(self):
        with pytest.raises(ValueError, match="ended before step 4 of 5"):
            psgd_run(_stream(np.ones((3, 3))), PsgdConfig(steps=5, step_size=0.1, record_every=2),
                     w0=E1_3, dloss=_unit_slope)

    def test_deterministic_across_runs(self):
        def noisy(seed):
            return _stream(np.random.default_rng(seed).standard_normal((50, 3)))

        cfg = PsgdConfig(steps=50, step_size=0.05)
        a = psgd_run(noisy(7), cfg, w0=E1_3, dloss=_bump)
        b = psgd_run(noisy(7), cfg, w0=E1_3, dloss=_bump)
        assert np.array_equal(a.iterates, b.iterates)
        c = psgd_run(noisy(8), cfg, w0=E1_3, dloss=_bump)
        assert not np.array_equal(a.iterates, c.iterates)

    def test_unit_norm_invariant(self):
        zs = np.random.default_rng(3).standard_normal((200, 3))
        traj = psgd_run(_stream(zs), PsgdConfig(steps=200, step_size=0.3), w0=E1_3, dloss=_bump)
        norms = np.linalg.norm(traj.iterates, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_margin_gradient_matches_numpy_reference(self):
        # the closed-form norm and the carried scale s = 1/||v|| against
        # w <- (w - b g)/||w - b g|| with the exact norm at every step
        steps, beta, record_every = 5000, 0.05, 50
        zs = np.random.default_rng(3).standard_normal((steps, 4))
        start = np.array([0.5, 0.5, 0.5, 0.5])
        cfg = PsgdConfig(steps=steps, step_size=beta, record_every=record_every)
        traj = psgd_run(_stream(zs), cfg, w0=start, dloss=_bump)
        expected = _margin_reference(start, zs, beta, _bump)[::record_every]
        assert traj.iterates.shape == (steps // record_every + 1, 4)
        assert np.max(np.abs(traj.iterates - expected)) <= 1e-12

    def test_record_every_thins_and_keeps_final(self):
        cfg = PsgdConfig(steps=10, step_size=0.1, record_every=4)
        traj = psgd_run(_stream(np.zeros((10, 3))), cfg, w0=E1_3, dloss=_unit_slope)
        assert np.array_equal(traj.step_indices, [0, 4, 8, 10])
        cfg2 = PsgdConfig(steps=8, step_size=0.1, record_every=4)
        traj2 = psgd_run(_stream(np.zeros((8, 3))), cfg2, w0=E1_3, dloss=_unit_slope)
        assert np.array_equal(traj2.step_indices, [0, 4, 8])

    def test_record_every_stores_each_iterate_in_its_slot(self):
        # a moving stream makes every step's iterate distinct, so a row
        # stored one step early or late misses the reference
        zs = _moving_gradients(10, 1, 3)[:, 0]
        traj = psgd_run(_stream(zs), PsgdConfig(steps=10, step_size=0.3, record_every=4), w0=E1_3,
                        dloss=_unit_slope)
        ref = _margin_reference(E1_3, zs, 0.3, _unit_slope)
        assert np.array_equal(traj.step_indices, [0, 4, 8, 10])
        assert np.max(np.abs(traj.iterates - ref[[0, 4, 8, 10]])) <= 1e-12
        assert np.min(np.linalg.norm(ref[[3, 5, 7, 9]] - ref[[4, 4, 8, 8]], axis=1)) > 1e-3

    # 1e155 is finite, but its square, the stream's ||z||^2, is not
    @pytest.mark.parametrize("fill", [np.nan, np.inf, 1e155])
    def test_nonfinite_example_aborts_with_step(self, fill):
        z = [fill] * 3
        examples = iter([(*z, math.fsum(zi * zi for zi in z))] * 5)
        with pytest.raises(PsgdDivergenceError) as info:
            psgd_run(examples, PsgdConfig(steps=5, step_size=0.1), w0=E1_3, dloss=_unit_slope)
        assert info.value.step == 1

    def test_margin_past_the_float_range_aborts_with_step(self):
        # every product is finite, but their sum overflows
        start = np.ones(3) / math.sqrt(3.0)
        with pytest.raises(PsgdDivergenceError) as info:
            psgd_run(iter([(*[1.5e308] * 3, math.inf)]), PsgdConfig(steps=1, step_size=0.1), w0=start,
                     dloss=_unit_slope)
        assert info.value.step == 1

    @pytest.mark.parametrize("length", [2, 4])
    def test_wrong_length_example_raises_at_first_step(self, length):
        pulled = []

        def misshapen():
            while True:
                pulled.append(length)
                yield (*[0.1] * length, 0.01 * length)

        with pytest.raises(ValueError):
            psgd_run(misshapen(), PsgdConfig(steps=5, step_size=0.1), w0=E1_3, dloss=_unit_slope)
        assert pulled == [length]

    def test_wrong_length_example_mid_segment_pulls_nothing_past_it(self):
        pulled = []

        def third_misshapen():
            for k in itertools.count(1):
                pulled.append(k)
                z = [0.1] * (4 if k == 3 else 3)
                yield (*z, math.fsum(zi * zi for zi in z))

        with pytest.raises(ValueError):
            psgd_run(third_misshapen(), PsgdConfig(steps=5, step_size=0.1, record_every=5), w0=E1_3,
                     dloss=_unit_slope)
        assert pulled == [1, 2, 3]

    def test_record_norm_past_the_float_range_aborts_at_its_step(self):
        # step 3 makes v = e1 + 0.1 z: each of its squares is finite, their
        # sum is not. zz is misstated as 1, so the carried norm stays finite
        # and only the record step's exact norm overflows.
        huge = [0.0, 1.2e155, 1.2e155]
        examples = iter([(0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (*huge, 1.0)])
        with pytest.raises(PsgdDivergenceError) as info:
            psgd_run(examples, PsgdConfig(steps=3, step_size=0.1, record_every=3), w0=E1_3,
                     dloss=_unit_slope)
        assert info.value.step == 3

    def test_non_positive_squared_norm_aborts(self):
        # z = 10 w with zz misstated as 0: 1 + b^2 (zz - m^2) = 1 - 0.01 * 100 = 0
        with pytest.raises(PsgdDivergenceError) as info:
            psgd_run(iter([(10.0, 0.0, 0.0, 0.0)]), PsgdConfig(steps=1, step_size=0.1), w0=E1_3,
                     dloss=_unit_slope)
        assert info.value.step == 1

    def test_misstated_norm_aborts_at_first_record_step(self):
        zs = np.random.default_rng(4).standard_normal((200, 3))
        examples = ((*z, 1.01 * zz) for *z, zz in _stream(zs))
        with pytest.raises(PsgdDivergenceError) as info:
            psgd_run(examples, PsgdConfig(steps=200, step_size=0.1, record_every=50), w0=E1_3,
                     dloss=_unit_slope)
        assert info.value.step == 50

    def test_record_step_restarts_the_carried_scale(self):
        # zz overstated by 8e-9 relative shifts s by about 0.005 * 8e-9 per
        # step: 0.4e-9 over a 10-step segment, inside the 1e-9 check. The
        # drift restarts at each record step; carried on, it would pass the
        # check in the third segment.
        zs = np.random.default_rng(8).standard_normal((40, 3))
        zs /= np.linalg.norm(zs, axis=1, keepdims=True)
        examples = ((*z, (1.0 + 8e-9) * zz) for *z, zz in _stream(zs))
        traj = psgd_run(examples, PsgdConfig(steps=40, step_size=0.1, record_every=10), w0=E1_3,
                        dloss=_unit_slope)
        assert len(traj) == 5

    def test_carried_scale_stays_exact_over_one_long_segment(self):
        # After 200,000 steps in one segment, d probe examples z = e_k with
        # dloss 0 read the carried scale: the first rescales v to s * v and
        # sets s = 1, so the probe margins are the coordinates of s * v and
        # their norm is ||v|| * s.
        steps, dim = 200_000, 5
        zs = np.random.default_rng(6).standard_normal((steps, dim))
        calls, probes = itertools.count(), []

        def dloss(m):
            if next(calls) < steps:
                return _bump(m)
            probes.append(m)
            return 0.0

        examples = itertools.chain(_stream(zs), _stream(np.eye(dim)))
        cfg = PsgdConfig(steps=steps + dim, step_size=0.05, record_every=steps + dim)
        traj = psgd_run(examples, cfg, w0=np.eye(1, dim)[0], dloss=dloss)
        assert len(probes) == dim and len(traj) == 2
        assert abs(math.sqrt(math.fsum(m * m for m in probes)) - 1.0) <= 1e-12

    def test_orthogonal_gradients_never_shrink_preprojection(self):
        # a margin loss's gradient is orthogonal to w, so the projection
        # only ever contracts and a huge step still cannot diverge
        zs = 100.0 * np.random.default_rng(5).standard_normal((100, 3))
        traj = psgd_run(_stream(zs), PsgdConfig(steps=100, step_size=1.0), w0=E1_3, dloss=_unit_slope)
        assert np.all(np.isfinite(traj.iterates))


class TestSegmentKernel:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 10, 64])
    def test_matches_the_list_loop_bit_for_bit(self, dim):
        # 1,000 steps recorded every 7th: the last segment is 6 steps long
        zs = np.random.default_rng(dim).standard_normal((1000, dim))
        start = np.random.default_rng(100 + dim).standard_normal(dim)
        start /= np.linalg.norm(start)
        cfg = PsgdConfig(steps=1000, step_size=0.05, record_every=7)
        traj = psgd_run(_stream(zs), cfg, w0=start, dloss=_bump)
        record, iterates = _list_loop(_stream(zs), cfg, start.tolist(), _bump)
        assert np.array_equal(traj.step_indices, record)
        assert np.array_equal(traj.iterates, iterates)
        if dim > 1:  # every segment moved; in one dimension the iterate cannot
            assert np.min(np.linalg.norm(np.diff(iterates, axis=0), axis=1)) > 0.0

    def test_built_once_per_dimension(self):
        _segment_kernel.cache_clear()
        cfg = PsgdConfig(steps=12, step_size=0.1, record_every=5)
        for dim in (4, 4, 2, 4):
            psgd_run(_stream(np.ones((12, dim))), cfg, w0=np.eye(1, dim)[0], dloss=_bump)
        info = _segment_kernel.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        assert _segment_kernel(4) is _segment_kernel(4)

    def test_no_kernel_is_built_at_import(self):
        code = "import massart_halfspace.psgd as p; print(p._segment_kernel.cache_info().currsize)"
        package_root = str(Path(massart_halfspace.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"]


@pytest.mark.parametrize("steps", [1, 2, 3, 7, 8, 10, 12])
def test_recorded_count_matches_recorded_steps(steps):
    for every in range(1, steps + 3):  # every = 1, every = steps and every > steps
        idx = _recorded_steps(steps, every)
        assert recorded_count(steps, every) == len(idx)
        assert idx[0] == 0 and idx[-1] == steps and np.all(np.diff(idx) > 0)
        assert set(range(0, steps + 1, every)) <= set(idx.tolist())


class TestBatchRun:
    def test_matches_single_run_with_shared_stream(self):
        # the batch oracle applies the margin-loss gradient of one shared
        # example per step to every row; each row must follow its own single run
        zs = _moving_gradients(20, 1, 3)[:, 0]
        examples = iter(zs)

        def batch_oracle(W, rng):
            z = next(examples)
            m = W @ z
            r = np.array([_bump(mi) for mi in m])
            return -r[:, None] * (z - m[:, None] * W)

        starts = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        cfg = PsgdConfig(steps=20, step_size=0.2, record_every=5)
        batch = psgd_run_batch(batch_oracle, cfg, starts, make_rng(11, STREAM_PSGD))
        assert batch.iterates.shape == (5, 2, 3)
        for row in range(2):
            solo = psgd_run(_stream(zs), cfg, w0=starts[row], dloss=_bump)
            # the batch takes the norm of every update, the single run its
            # closed form, so agreement is to rounding, not bitwise
            assert np.allclose(batch.iterates[:, row, :], solo.iterates, rtol=0, atol=1e-12)

    def test_record_every_stores_each_iterate_in_its_slot(self):
        starts = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        grads = _moving_gradients(10, 2, 3)
        calls = iter(grads)
        traj = psgd_run_batch(
            lambda W, rng: next(calls), PsgdConfig(steps=10, step_size=0.3, record_every=4), starts,
            make_rng(0, STREAM_PSGD),
        )
        ref = _reference_iterates(starts, grads, 0.3)
        assert np.array_equal(traj.step_indices, [0, 4, 8, 10])
        assert traj.iterates.shape == (4, 2, 3)
        assert np.max(np.abs(traj.iterates - ref[[0, 4, 8, 10]])) <= 1e-12

    def test_rejects_bad_shapes_and_norms(self):
        cfg = PsgdConfig(steps=1, step_size=0.1)
        with pytest.raises(ValueError):
            psgd_run_batch(lambda W, rng: W, cfg, np.ones(3), make_rng(0, STREAM_PSGD))
        with pytest.raises(ValueError):
            psgd_run_batch(lambda W, rng: W, cfg, np.ones((2, 3)), make_rng(0, STREAM_PSGD))

    def test_divergence_names_the_row(self):
        def poison(W, rng):
            G = np.zeros_like(W)
            G[1] = np.inf
            return G

        starts = np.eye(3)
        with pytest.raises(PsgdDivergenceError) as info:
            psgd_run_batch(poison, PsgdConfig(steps=2, step_size=0.1), starts, make_rng(0, STREAM_PSGD))
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
    # f(w) = 1 - E <z, w>^2 with z = a + noise * xi, xi standard normal, is a
    # margin loss with dloss(m) = 2 m; the isotropic noise adds a constant
    # on the sphere, so the true gradient is that of 1 - <a, w>^2.
    @staticmethod
    def _examples(a, noise, steps, seed):
        xi = np.random.default_rng(seed).standard_normal((steps, a.shape[0]))
        return _stream(a + noise * xi)

    @staticmethod
    def _quadratic(m):
        return 2.0 * m

    def test_average_squared_gradient_tracks_bound(self):
        # smooth synthetic objective with known gradient; the average
        # squared trajectory gradient should land within 2x of
        # sqrt(L*B*R/(2T)) at the matching theoretical step size
        a = np.array([0.6, -0.8, 0.0])
        L, B, R = 2.0, 4.0, 1.0
        T = 400

        def true_grad(w):
            m = float(a @ w)
            return -2.0 * m * (a - m * w)

        beta = theoretical_step_size(L, B, R, T)
        examples = self._examples(a, 0.1, T, 17)
        traj = psgd_run(examples, PsgdConfig(steps=T, step_size=beta), w0=E1_3, dloss=self._quadratic)
        mean_sq = float(np.mean([float(np.dot(g, g)) for g in map(true_grad, traj.iterates)]))
        bound = math.sqrt(L * B * R / (2.0 * T))
        if mean_sq > bound:
            assert mean_sq <= 2.0 * bound

    @given(st.integers(0, 10**4))
    @settings(max_examples=20, deadline=None)
    def test_synthetic_objective_progress(self, seed):
        # gradient descent on f(w) = 1 - <a, w>^2 should reduce the value
        a = np.array([0.0, 1.0, 0.0])
        start = np.array([0.8, 0.6, 0.0])
        examples = self._examples(a, 0.01, 300, seed)
        traj = psgd_run(examples, PsgdConfig(steps=300, step_size=0.05), w0=start, dloss=self._quadratic)
        assert 1 - float(a @ traj.iterates[-1]) ** 2 < 1 - 0.6**2
