import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massart_halfspace import (
    MarginalSampler,
    SurrogateSpec,
    margin,
    per_sample_gradient,
    per_sample_loss,
    population_estimates,
    sample_gradients,
    surrogate_derivative,
    surrogate_value,
)
from massart_halfspace import surrogate
from massart_halfspace.surrogate import SURROGATE_KINDS
from massart_halfspace.rng import make_rng


def _finite_difference_gradient(w, x, y, spec, step=1e-6):
    """Central-difference oracle for the per-sample gradient."""
    w = np.asarray(w, dtype=np.float64)
    out = np.empty_like(w)
    for i in range(w.size):
        bump = np.zeros_like(w)
        bump[i] = step
        out[i] = (
            per_sample_loss(w + bump, x, y, spec) - per_sample_loss(w - bump, x, y, spec)
        ) / (2 * step)
    return out


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SurrogateSpec(kind="hinge", sigma=0.5)

    def test_sigma_range(self):
        with pytest.raises(ValueError):
            SurrogateSpec(kind="ramp", sigma=0.0)
        with pytest.raises(ValueError):
            SurrogateSpec(kind="sigmoid", sigma=10.5)
        with pytest.raises(ValueError):
            SurrogateSpec(kind="sigmoid", sigma=float("nan"))
        with pytest.raises(ValueError, match="sigma must lie in"):
            SurrogateSpec(kind="sigmoid", sigma=1e-320)  # subnormal: 1/sigma overflows
        SurrogateSpec(kind="sigmoid", sigma=10.0)
        SurrogateSpec(kind="ramp", sigma=sys.float_info.min)


def _ramp(sigma):
    return SurrogateSpec("ramp", sigma)


def _sigmoid(sigma):
    return SurrogateSpec("sigmoid", sigma)


class TestRamp:
    @pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 2.0])
    def test_branch_values(self, sigma):
        assert surrogate_value(_ramp(sigma), 0.0) == 0.5
        assert surrogate_value(_ramp(sigma), sigma) == 1.0
        assert surrogate_value(_ramp(sigma), -sigma) == 0.0
        assert surrogate_value(_ramp(sigma), sigma / 4) == pytest.approx(0.75, abs=1e-15)

    def test_derivative_hand_value(self):
        assert surrogate_derivative(_ramp(0.4), 0.0) == 2.5

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 3.0])
    def test_derivative_closed_interval(self, sigma):
        assert surrogate_derivative(_ramp(sigma), sigma) == 0.0
        assert surrogate_derivative(_ramp(sigma), sigma / 2) == 1.0 / sigma
        assert surrogate_derivative(_ramp(sigma), -sigma / 2) == 1.0 / sigma
        assert surrogate_derivative(_ramp(sigma), np.nextafter(sigma / 2, 2 * sigma)) == 0.0

    def test_vectorized(self):
        t = np.array([-1.0, 0.0, 1.0])
        assert np.array_equal(surrogate_value(_ramp(1.0), t), [0.0, 0.5, 1.0])
        assert np.array_equal(surrogate_derivative(_ramp(1.0), t), [0.0, 1.0, 0.0])


class TestSigmoid:
    def test_value_examples(self):
        assert surrogate_value(_sigmoid(0.3), 0.0) == 0.5
        # hand arithmetic: 1/(1 + exp(-1))
        assert surrogate_value(_sigmoid(1.0), 1.0) == pytest.approx(0.7310585786300049, abs=1e-15)
        assert surrogate_value(_sigmoid(1.0), -1.0) == pytest.approx(0.2689414213699951, abs=1e-15)

    def test_complement_identity(self):
        spec = _sigmoid(0.7)
        for t in [0.0, 0.2, 1.7, 40.0]:
            assert surrogate_value(spec, t) + surrogate_value(spec, -t) == pytest.approx(1.0, abs=1e-15)

    def test_extreme_arguments_stay_finite(self):
        assert surrogate_value(_sigmoid(1.0), -1000.0) == 0.0
        assert surrogate_value(_sigmoid(1.0), 1000.0) == 1.0
        assert surrogate_derivative(_sigmoid(1.0), -1000.0) == 0.0

    def test_monotone(self):
        t = np.linspace(-5, 5, 101)
        assert np.all(np.diff(surrogate_value(_sigmoid(0.4), t)) > 0)

    def test_derivative_examples(self):
        assert surrogate_derivative(_sigmoid(1.0), 0.0) == 0.25
        assert surrogate_derivative(_sigmoid(0.5), 0.0) == 0.5

    def test_derivative_even(self):
        assert surrogate_derivative(_sigmoid(0.3), 0.7) == surrogate_derivative(_sigmoid(0.3), -0.7)

    def test_derivative_peaks_at_origin(self):
        t = np.linspace(-3, 3, 601)
        d = surrogate_derivative(_sigmoid(0.8), t)
        assert np.argmax(d) == 300
        assert d.max() == pytest.approx(1.0 / (4 * 0.8), abs=1e-15)

    def test_derivative_matches_finite_difference(self):
        h, spec = 1e-6, _sigmoid(0.7)
        for t in [-2.0, -0.3, 0.0, 0.5, 1.9]:
            fd = (surrogate_value(spec, t + h) - surrogate_value(spec, t - h)) / (2 * h)
            assert surrogate_derivative(spec, t) == pytest.approx(fd, rel=1e-8)

    def test_dispatch(self):
        # each kind reaches its own formula: the sigmoid's 1/(1 + exp(-1)), the ramp's 1/4 + 1/2
        assert surrogate_value(_sigmoid(1.0), 1.0) == 0.7310585786300049
        assert surrogate_value(_ramp(1.0), 0.25) == 0.75
        assert surrogate_derivative(_ramp(0.4), 0.0) == 2.5
        assert surrogate_derivative(_sigmoid(0.5), 0.0) == 0.5


GOLDEN_BITS = Path(__file__).resolve().parent / "golden" / "surrogate_bits.json"


def _golden_points(sigma):
    """0, +-sigma/2 and their nextafter neighbours on both sides, +-40 sigma, +-1000."""
    h = sigma / 2
    return [0.0, h, -h, math.nextafter(h, 0.0), math.nextafter(h, math.inf), math.nextafter(-h, 0.0),
            math.nextafter(-h, -math.inf), 40.0 * sigma, -40.0 * sigma, 1000.0, -1000.0]


class TestGoldenBits:
    """float.hex of both formulas at pinned points: a rewrite of either must
    keep every bit, the kinks' closed interval and the far tails included."""

    golden = json.loads(GOLDEN_BITS.read_text())

    @pytest.mark.parametrize("kind", SURROGATE_KINDS)
    @pytest.mark.parametrize("sigma", [0.05, 0.25, 0.7])
    @pytest.mark.parametrize("name, f", [("value", surrogate_value), ("derivative", surrogate_derivative)])
    def test_scalar_and_array_bits(self, kind, sigma, name, f):
        spec, ts = SurrogateSpec(kind, sigma), _golden_points(sigma)
        expected = self.golden[f"{kind} {sigma!r}"][name]
        assert [f(spec, t).hex() for t in ts] == expected
        assert [x.hex() for x in f(spec, np.array(ts)).tolist()] == expected


class TestMargin:
    def test_hand_values(self):
        assert margin(np.array([1.0, 0.0]), np.array([3.0, 4.0])) == 3.0
        assert margin(np.array([2.0, 0.0]), np.array([3.0, 4.0])) == 3.0
        assert margin(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(
            1 / math.sqrt(2), abs=1e-15
        )

    def test_batch(self):
        xs = np.array([[3.0, 4.0], [0.0, 1.0]])
        assert np.allclose(margin(np.array([1.0, 0.0]), xs), [3.0, 0.0])

    def test_zero_w_rejected(self):
        with pytest.raises(ValueError):
            margin(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            margin(np.array([np.inf, 0.0]), np.ones(2))


class TestPerSampleLoss:
    def test_zero_margin_sigmoid(self):
        spec = SurrogateSpec("sigmoid", 0.3)
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert per_sample_loss(e1, e2, 1.0, spec) == 0.5
        assert per_sample_loss(e1, e2, -1.0, spec) == 0.5

    def test_correct_confident_point(self):
        e1 = np.array([1.0, 0.0])
        assert per_sample_loss(e1, e1, 1.0, SurrogateSpec("sigmoid", 1.0)) == pytest.approx(
            0.2689414213699951, abs=1e-15
        )
        assert per_sample_loss(e1, e1, 1.0, SurrogateSpec("ramp", 1.0)) == 0.0
        assert per_sample_loss(e1, e1, -1.0, SurrogateSpec("ramp", 1.0)) == 1.0

    @given(
        st.integers(0, 10**6),
        st.sampled_from(["ramp", "sigmoid"]),
        st.floats(0.05, 5.0),
        st.sampled_from([0.5, 2.0, 10.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_degree_zero_homogeneity(self, seed, kind, sigma, scale):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(4)
        if np.linalg.norm(w) < 1e-3:
            return
        x = rng.standard_normal(4) * 2
        y = 1.0 if rng.random() < 0.5 else -1.0
        spec = SurrogateSpec(kind, sigma)
        base = per_sample_loss(w, x, y, spec)
        assert per_sample_loss(scale * w, x, y, spec) == pytest.approx(base, abs=1e-12)


class TestPerSampleGradient:
    def test_radial_point_gives_zero(self):
        e1 = np.array([1.0, 0.0])
        g = per_sample_gradient(e1, 3.0 * e1, 1.0, SurrogateSpec("sigmoid", 0.5))
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_orthogonal_point_hand_value(self):
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        g = per_sample_gradient(e1, e2, 1.0, SurrogateSpec("sigmoid", 0.5))
        assert np.allclose(g, [0.0, -0.5], atol=1e-15)

    def test_ramp_kink_uses_closed_interval(self):
        # margin exactly sigma/2 with y=-1 puts the ramp argument on a kink
        e1 = np.array([1.0, 0.0])
        x = np.array([et := 0.25, 1.0])
        g = per_sample_gradient(e1, x, -1.0, SurrogateSpec("ramp", 2 * et))
        assert np.allclose(g, [0.0, 1.0 / (2 * et)], atol=1e-15)

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        w = rng.standard_normal(d)
        w *= (0.5 + 1.5 * rng.random()) / np.linalg.norm(w)
        x = rng.standard_normal(d)
        y = 1.0 if rng.random() < 0.5 else -1.0
        spec = SurrogateSpec("sigmoid", 0.05 + 0.95 * rng.random())
        g = per_sample_gradient(w, x, y, spec)
        fd = _finite_difference_gradient(w, x, y, spec)
        err = np.linalg.norm(g - fd)
        if np.linalg.norm(g) < 1e-3:
            assert err <= 1e-8
        else:
            assert err / np.linalg.norm(g) <= 1e-5

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_orthogonal_to_w(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(5)
        x = rng.standard_normal(5) * 3
        y = 1.0 if rng.random() < 0.5 else -1.0
        g = per_sample_gradient(w, x, y, SurrogateSpec("sigmoid", 0.3))
        norm = np.linalg.norm(g)
        if norm > 0:
            assert abs(float(g @ w)) / norm <= 1e-10

    @given(st.integers(0, 10**6), st.sampled_from([0.5, 2.0, 10.0]))
    @settings(max_examples=60, deadline=None)
    def test_gradient_scales_inversely(self, seed, scale):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(3)
        x = rng.standard_normal(3)
        y = -1.0
        spec = SurrogateSpec("sigmoid", 0.4)
        base = per_sample_gradient(w, x, y, spec)
        scaled = per_sample_gradient(scale * w, x, y, spec)
        assert np.allclose(scaled, base / scale, rtol=1e-12, atol=1e-15)

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal(4)
        xs = rng.standard_normal((50, 4))
        ys = np.where(rng.random(50) < 0.5, 1.0, -1.0)
        spec = SurrogateSpec("sigmoid", 0.3)
        batch = sample_gradients(w, xs, ys, spec)
        for i in range(50):
            assert np.allclose(batch[i], per_sample_gradient(w, xs[i], ys[i], spec), atol=1e-14)


class TestPopulationEstimates:
    def test_saturated_losses_vanish(self):
        rng = np.random.default_rng(7)
        w = np.array([1.0, 0.0, 0.0])
        xs = rng.standard_normal((500, 3))
        ms = xs @ w
        keep = np.abs(ms) >= 0.1
        xs = xs[keep]
        ys = np.sign(xs @ w)
        sig = population_estimates(w, xs, ys, SurrogateSpec("sigmoid", 1e-3))
        rmp = population_estimates(w, xs, ys, SurrogateSpec("ramp", 1e-3))
        assert sig.loss <= 1e-40
        assert rmp.loss == 0.0

    def test_ramp_recovers_zero_one_error(self):
        # at sigma far below the minimum margin, the ramp loss IS the
        # empirical disagreement between labels and the halfspace
        rng = np.random.default_rng(8)
        w = np.array([1.0, 0.0])
        xs = rng.standard_normal((512, 2))
        xs = xs[np.abs(xs @ w) >= 0.1]
        clean = np.sign(xs @ w)
        flips = rng.random(len(xs)) < 0.3
        ys = np.where(flips, -clean, clean)
        est = population_estimates(w, xs, ys, SurrogateSpec("ramp", 1e-3))
        assert est.loss == float(np.mean(ys != clean))

    def test_duplicated_example_is_exact(self):
        w = np.array([0.6, 0.8])
        x = np.array([0.3, -1.1])
        spec = SurrogateSpec("sigmoid", 0.35)
        xs = np.tile(x, (8, 1))
        ys = np.full(8, -1.0)
        est = population_estimates(w, xs, ys, spec)
        assert est.loss == per_sample_loss(w, x, -1.0, spec)
        assert np.array_equal(est.gradient, per_sample_gradient(w, x, -1.0, spec))

    def test_target_is_near_stationary_under_clean_labels(self):
        w = np.zeros(5)
        w[0] = 1.0
        xs = MarginalSampler(kind="standard_gaussian", dim=5).sample(100_000, make_rng(44))
        ys = np.sign(xs @ w)
        ys[ys == 0] = 1.0
        est = population_estimates(w, xs, ys, SurrogateSpec("sigmoid", 0.1))
        assert est.gradient_norm <= 3 * est.gradient_norm_stderr
        assert est.samples == 100_000

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            population_estimates(
                np.array([1.0, 0.0]), np.ones((1, 2)), np.ones(1), SurrogateSpec("ramp", 0.5)
            )

    def test_chunking_is_immaterial(self, monkeypatch):
        rng = np.random.default_rng(9)
        w = rng.standard_normal(3)
        xs = rng.standard_normal((5000, 3))
        ys = np.where(rng.random(5000) < 0.5, 1.0, -1.0)
        spec = SurrogateSpec("sigmoid", 0.2)
        a = population_estimates(w, xs, ys, spec)
        monkeypatch.setattr(surrogate, "ESTIMATE_CHUNK", 977)  # six chunks, the last one short
        b = population_estimates(w, xs, ys, spec)
        assert a.loss == pytest.approx(b.loss, rel=1e-12)
        assert np.allclose(a.gradient, b.gradient, rtol=1e-10, atol=1e-15)


class TestSmoothnessScales:
    """Empirical sanity bounds for the sigmoid on isotropic data."""

    def setup_method(self):
        self.sigma = 0.25
        self.spec = SurrogateSpec("sigmoid", self.sigma)
        self.d = 6
        self.xs = MarginalSampler(kind="standard_gaussian", dim=self.d).sample(100_000, make_rng(91))
        rng = np.random.default_rng(92)
        self.ys = np.where(rng.random(100_000) < 0.5, 1.0, -1.0)
        w = np.zeros(self.d)
        w[0] = 1.0
        self.w = w

    def test_loss_bounded_by_one(self):
        est = population_estimates(self.w, self.xs, self.ys, self.spec)
        assert 0.0 <= est.loss <= 1.0

    def test_mean_squared_gradient_bound(self):
        grads = sample_gradients(self.w, self.xs, self.ys, self.spec)
        mean_sq = float(np.mean(np.sum(grads * grads, axis=1)))
        assert mean_sq <= 4.0 * self.d / self.sigma**2

    def test_population_gradient_norm_bound(self):
        est = population_estimates(self.w, self.xs, self.ys, self.spec)
        assert est.gradient_norm**2 <= 4.0 / self.sigma**2

    def test_hessian_action_bound(self):
        h = 1e-4
        rng = np.random.default_rng(93)
        u = rng.standard_normal(self.d)
        u /= np.linalg.norm(u)
        at_w = population_estimates(self.w, self.xs, self.ys, self.spec).gradient
        at_wh = population_estimates(self.w + h * u, self.xs, self.ys, self.spec).gradient
        action = float(np.linalg.norm((at_wh - at_w) / h))
        assert action <= 6.0 / self.sigma + 12.0 / self.sigma**2
