import math

import numpy as np
import pytest

import massart_halfspace.verify as verify_mod
from massart_halfspace import (
    MarginalSampler,
    MassartOracle,
    NoiseStrategy,
    StructuralCheckConfig,
    SurrogateSpec,
    UnderpoweredCheckError,
    disk_profile,
    gaussian_profile,
    lemma_gradient_floor,
    lemma_sigma_cap,
    population_estimates,
    verify_lemma,
    verify_stationary_gap,
)

DISK = disk_profile()
GAUSS = gaussian_profile()

# caps frozen from hand arithmetic on the disk constants (U=4*pi, R=2)
SIGMOID_CAP_HALF_PI = 0.012582303026121763   # sqrt(0.4)/(16*pi)
SIGMOID_CAP_PI8 = 0.004815038909093931       # above times sin(pi/8)
RAMP_CAP_PI8 = 0.019260155636375724          # 4x the sigmoid cap
STRONG_CAP_PI8 = 0.00253774832917821         # sin(pi/8)/(48*pi) at c=0.5

# floors frozen from hand arithmetic
SIGMOID_FLOOR = 0.0039788735772973835        # 0.4/(32*pi)
RAMP_FLOOR = 0.015915494309189534            # 0.4/(8*pi)
STRONG_FLOOR = 0.0011052426603603844         # 1/(288*pi) at c=0.5

# quadrature anchors for the in-plane gradient coefficient on the disk,
# sigmoid width at the pi/8 cap (strong rows at the strong pi/8 cap)
QUAD_CONST_ETA03 = {
    math.pi / 8: 0.1273073758336109,
    math.pi / 4: 0.12731909870231087,
    math.pi / 2: 0.1273215265879136,
}
QUAD_NONE_PI4 = 0.31829774675577704
QUAD_STRONG_C05 = {
    math.pi / 8: 0.16241460264181046,
    math.pi / 2: 0.2917823763034729,
}


def _disk_config(noise, surrogate, angles, seed=1, **kw):
    return StructuralCheckConfig(
        surrogate=surrogate,
        noise=noise,
        marginal=MarginalSampler(kind="uniform_disk_2d", dim=2),
        profile=DISK,
        angles=angles,
        seed=seed,
        **kw,
    )


class TestSigmaCap:
    def test_disk_frozen_values(self):
        assert lemma_sigma_cap("sigmoid", DISK, 0.3, math.pi / 2) == pytest.approx(
            SIGMOID_CAP_HALF_PI, rel=1e-14
        )
        assert lemma_sigma_cap("sigmoid", DISK, 0.3, math.pi / 8) == pytest.approx(
            SIGMOID_CAP_PI8, rel=1e-14
        )
        assert lemma_sigma_cap("ramp", DISK, 0.3, math.pi / 8) == pytest.approx(
            RAMP_CAP_PI8, rel=1e-14
        )
        assert lemma_sigma_cap("strong", DISK, 0.5, math.pi / 8) == pytest.approx(
            STRONG_CAP_PI8, rel=1e-14
        )

    def test_ramp_cap_is_four_sigmoid_caps(self):
        r = lemma_sigma_cap("ramp", DISK, 0.17, 0.6)
        s = lemma_sigma_cap("sigmoid", DISK, 0.17, 0.6)
        assert r == pytest.approx(4.0 * s, rel=1e-15)

    def test_cap_grows_with_angle(self):
        small = lemma_sigma_cap("sigmoid", DISK, 0.3, 0.1)
        large = lemma_sigma_cap("sigmoid", DISK, 0.3, 1.0)
        assert small < large

    def test_validation(self):
        with pytest.raises(ValueError):
            lemma_sigma_cap("hinge", DISK, 0.3, 0.5)
        with pytest.raises(ValueError):
            lemma_sigma_cap("sigmoid", DISK, 0.3, 0.0)
        with pytest.raises(ValueError):
            lemma_sigma_cap("sigmoid", DISK, 0.3, 2.0)
        with pytest.raises(ValueError):
            lemma_sigma_cap("sigmoid", DISK, 0.5, 0.5)
        with pytest.raises(ValueError):
            lemma_sigma_cap("strong", DISK, 0.0, 0.5)
        for bad in (math.nan, math.inf):
            for kind in ("ramp", "sigmoid", "strong"):
                with pytest.raises(ValueError):
                    lemma_sigma_cap(kind, DISK, bad, 0.5)
            with pytest.raises(ValueError):
                lemma_sigma_cap("sigmoid", DISK, 0.3, bad)


class TestGradientFloor:
    def test_disk_frozen_values(self):
        assert lemma_gradient_floor("sigmoid", DISK, 0.3) == pytest.approx(
            SIGMOID_FLOOR, rel=1e-14
        )
        assert lemma_gradient_floor("ramp", DISK, 0.3) == pytest.approx(
            RAMP_FLOOR, rel=1e-14
        )
        assert lemma_gradient_floor("strong", DISK, 0.5) == pytest.approx(
            STRONG_FLOOR, rel=1e-14
        )

    def test_floor_shrinks_as_noise_grows(self):
        floors = [lemma_gradient_floor("sigmoid", DISK, eta) for eta in (0.0, 0.2, 0.4)]
        assert floors[0] > floors[1] > floors[2] > 0.0

    def test_strong_floor_linear_in_slope(self):
        f1 = lemma_gradient_floor("strong", DISK, 0.25)
        f2 = lemma_gradient_floor("strong", DISK, 0.5)
        assert f2 == pytest.approx(2.0 * f1, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            lemma_gradient_floor("hinge", DISK, 0.3)
        with pytest.raises(ValueError):
            lemma_gradient_floor("ramp", DISK, -0.1)
        for bad in (math.nan, math.inf, -math.inf):
            for kind in ("ramp", "sigmoid", "strong"):
                with pytest.raises(ValueError):
                    lemma_gradient_floor(kind, DISK, bad)

    def test_confidence_sigmas_must_be_finite_and_positive(self):
        noise = NoiseStrategy(kind="constant", eta_bound=0.3)
        spec = SurrogateSpec("sigmoid", SIGMOID_CAP_PI8)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="confidence_sigmas"):
                _disk_config(noise, spec, angles=(math.pi / 8,), confidence_sigmas=bad)


class TestConfigValidation:
    def test_angles_must_be_in_half_open_interval(self):
        spec = SurrogateSpec("sigmoid", 0.001)
        noise = NoiseStrategy(kind="constant", eta_bound=0.3)
        with pytest.raises(ValueError):
            _disk_config(noise, spec, angles=())
        with pytest.raises(ValueError):
            _disk_config(noise, spec, angles=(math.pi,))
        with pytest.raises(ValueError):
            _disk_config(noise, spec, angles=(-0.1,))
        _disk_config(noise, spec, angles=(0.0,))

    def test_sigma_above_cap_rejected(self):
        noise = NoiseStrategy(kind="constant", eta_bound=0.3)
        with pytest.raises(ValueError):
            _disk_config(noise, SurrogateSpec("sigmoid", 0.006), angles=(math.pi / 8,))
        _disk_config(noise, SurrogateSpec("sigmoid", 0.0048), angles=(math.pi / 8,))

    def test_window_edge_uses_reflected_angle(self):
        noise = NoiseStrategy(kind="constant", eta_bound=0.3)
        cap = verify_lemma("sigmoid", noise, DISK, (math.pi / 4, 7 * math.pi / 8))[2]
        assert cap == pytest.approx(SIGMOID_CAP_PI8, rel=1e-14)
        assert verify_lemma("sigmoid", noise, DISK, (0.0,))[2] is None
        zero_only = _disk_config(noise, SurrogateSpec("sigmoid", 0.2), angles=(0.0,))
        assert zero_only.surrogate.sigma == 0.2

    def test_strong_noise_requires_sigmoid(self):
        noise = NoiseStrategy(kind="strong_massart_max", c_strong=0.5)
        with pytest.raises(ValueError):
            _disk_config(noise, SurrogateSpec("ramp", 0.002), angles=(math.pi / 8,))

    def test_lemma_kind_and_param(self):
        strong = _disk_config(
            NoiseStrategy(kind="strong_massart_max", c_strong=0.5),
            SurrogateSpec("sigmoid", 0.002),
            angles=(math.pi / 8,),
        )
        assert verify_lemma("sigmoid", strong.noise, DISK, strong.angles)[:2] == ("strong", 0.5)
        ramp = _disk_config(
            NoiseStrategy(kind="none"), SurrogateSpec("ramp", 0.01), angles=(math.pi / 8,)
        )
        assert verify_lemma("ramp", ramp.noise, DISK, ramp.angles)[:2] == ("ramp", 0.0)

    def test_target_checked_against_marginal(self):
        cfg = _disk_config(
            NoiseStrategy(kind="constant", eta_bound=0.3),
            SurrogateSpec("sigmoid", 0.004),
            angles=(math.pi / 8,),
        )
        with pytest.raises(ValueError):
            verify_stationary_gap(cfg, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            verify_stationary_gap(cfg, np.array([1.0, 0.0, 0.0]))


class TestEstimatorAgainstQuadrature:
    def test_constant_noise_matches_quadrature(self):
        cfg = _disk_config(
            NoiseStrategy(kind="constant", eta_bound=0.3),
            SurrogateSpec("sigmoid", SIGMOID_CAP_PI8),
            angles=tuple(QUAD_CONST_ETA03),
            seed=301,
        )
        report = verify_stationary_gap(cfg, np.array([1.0, 0.0]))
        assert report.lemma_kind == "sigmoid"
        assert report.floor == pytest.approx(SIGMOID_FLOOR, rel=1e-14)
        assert all(r.verdict == "pass" for r in report.results)
        for res in report.results:
            anchor = QUAD_CONST_ETA03[res.theta]
            assert res.stderr <= SIGMOID_FLOOR * 0.1 + 1e-15
            assert abs(res.estimate - anchor) <= 4.0 * res.stderr

    def test_zero_noise_matches_quadrature(self):
        cfg = _disk_config(
            NoiseStrategy(kind="none", eta_bound=0.3),
            SurrogateSpec("sigmoid", SIGMOID_CAP_PI8),
            angles=(math.pi / 4,),
            seed=302,
        )
        res = verify_stationary_gap(cfg, np.array([0.0, 1.0])).results[0]
        assert abs(res.estimate - QUAD_NONE_PI4) <= 4.0 * res.stderr

    def test_strong_noise_matches_quadrature(self):
        cfg = _disk_config(
            NoiseStrategy(kind="strong_massart_max", c_strong=0.5),
            SurrogateSpec("sigmoid", STRONG_CAP_PI8),
            angles=tuple(QUAD_STRONG_C05),
            seed=303,
        )
        report = verify_stationary_gap(cfg, np.array([1.0, 0.0]))
        assert report.floor == pytest.approx(STRONG_FLOOR, rel=1e-14)
        assert all(r.verdict == "pass" for r in report.results)
        for res in report.results:
            assert abs(res.estimate - QUAD_STRONG_C05[res.theta]) <= 4.0 * res.stderr

    def test_label_sampled_route_agrees(self):
        # second, estimator-free route: draw labeled points and take the
        # batch surrogate gradient at a hypothesis tilted by theta
        theta = math.pi / 4
        sigma = SIGMOID_CAP_PI8
        target = np.array([math.cos(theta), math.sin(theta)])
        oracle = MassartOracle(
            target=target,
            strategy=NoiseStrategy(kind="constant", eta_bound=0.3),
            marginal=MarginalSampler(kind="uniform_disk_2d", dim=2),
            seed=61,
        )
        d = oracle.draw(400_000)
        est = population_estimates(
            np.array([1.0, 0.0]), d.xs, d.ys, SurrogateSpec("sigmoid", sigma)
        )
        anchor = QUAD_CONST_ETA03[theta]
        assert abs(est.gradient_norm - anchor) <= 4.0 * est.gradient_norm_stderr


class TestEstimatorProperties:
    def test_near_stationary_at_zero_angle(self):
        cfg = _disk_config(
            NoiseStrategy(kind="none"),
            SurrogateSpec("sigmoid", 0.05),
            angles=(0.0,),
            seed=310,
        )
        res = verify_stationary_gap(cfg, np.array([1.0, 0.0])).results[0]
        assert res.verdict == "pass"
        assert res.estimate <= 3.0 * res.stderr

    def test_angle_reflection_symmetry(self):
        theta = math.pi / 8
        cfg = _disk_config(
            NoiseStrategy(kind="constant", eta_bound=0.3),
            SurrogateSpec("sigmoid", SIGMOID_CAP_PI8),
            angles=(theta, math.pi - theta),
            seed=311,
        )
        lo, hi = verify_stationary_gap(cfg, np.array([1.0, 0.0])).results
        joint = math.hypot(lo.stderr, hi.stderr)
        assert abs(lo.estimate - hi.estimate) <= 4.0 * joint

    def test_rotation_invariance_in_higher_dimension(self):
        sigma = lemma_sigma_cap("sigmoid", GAUSS, 0.3, math.pi / 4)
        noise = NoiseStrategy(kind="constant", eta_bound=0.3)
        estimates = []
        for seed, target in ((41, np.array([1.0, 0.0, 0.0])), (42, np.array([0.0, -0.6, 0.8]))):
            cfg = StructuralCheckConfig(
                surrogate=SurrogateSpec("sigmoid", sigma),
                noise=noise,
                marginal=MarginalSampler(kind="standard_gaussian", dim=3),
                profile=GAUSS,
                angles=(math.pi / 4,),
                seed=seed,
            )
            estimates.append(verify_stationary_gap(cfg, target).results[0])
        a, b = estimates
        assert abs(a.estimate - b.estimate) <= 4.0 * math.hypot(a.stderr, b.stderr)

    def test_adversary_uniformity_on_menu(self):
        for kind, extra in [
            ("none", {}),
            ("constant", {}),
            ("boundary_concentrated", {"band": 0.5}),
            ("random_measurable", {"hash_seed": 3}),
        ]:
            cfg = _disk_config(
                NoiseStrategy(kind=kind, eta_bound=0.3, **extra),
                SurrogateSpec("sigmoid", SIGMOID_CAP_PI8),
                angles=(math.pi / 8,),
                seed=320,
            )
            res = verify_stationary_gap(cfg, np.array([1.0, 0.0])).results[0]
            assert res.verdict == "pass", f"floor violated under {kind}"
            assert res.estimate >= SIGMOID_FLOOR - 3.0 * res.stderr

    def test_region_masses_decompose_the_estimate(self):
        cfg = _disk_config(
            NoiseStrategy(kind="constant", eta_bound=0.3),
            SurrogateSpec("sigmoid", SIGMOID_CAP_PI8),
            angles=(math.pi / 8, math.pi / 2),
            seed=321,
        )
        for res in verify_stationary_gap(cfg, np.array([1.0, 0.0])).results:
            assert res.estimate == pytest.approx(res.good_mass - res.bad_mass, abs=1e-12)
            # at the cap the pull of the good region dominates twofold
            assert res.good_mass >= 2.0 * max(res.bad_mass, 0.0)

    def test_deterministic_given_seed(self):
        def run():
            cfg = _disk_config(
                NoiseStrategy(kind="constant", eta_bound=0.3),
                SurrogateSpec("sigmoid", SIGMOID_CAP_PI8),
                angles=(math.pi / 4,),
                seed=322,
            )
            return verify_stationary_gap(cfg, np.array([1.0, 0.0])).results[0]

        a, b = run(), run()
        assert a.estimate == b.estimate
        assert a.stderr == b.stderr
        assert a.samples == b.samples

    def test_underpowered_cap_raises(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "MC_SAMPLE_CAP", 4 * verify_mod._CHUNK)
        monkeypatch.setattr(verify_mod, "STDERR_FLOOR_FRACTION", 1e-12)
        cfg = _disk_config(
            NoiseStrategy(kind="constant", eta_bound=0.3),
            SurrogateSpec("sigmoid", SIGMOID_CAP_PI8),
            angles=(math.pi / 4,),
            seed=323,
        )
        with pytest.raises(UnderpoweredCheckError, match=f"after {4 * verify_mod._CHUNK} samples"):
            verify_stationary_gap(cfg, np.array([1.0, 0.0]))

    def test_underpowered_names_the_trimmed_last_round(self, monkeypatch):
        # 2 chunks, then 4, then one more: the doubling is trimmed to the cap
        chunk = verify_mod._CHUNK
        monkeypatch.setattr(verify_mod, "MC_SAMPLE_CAP", 5 * chunk + 1)
        monkeypatch.setattr(verify_mod, "STDERR_FLOOR_FRACTION", 1e-12)
        cfg = _disk_config(
            NoiseStrategy(kind="constant", eta_bound=0.3),
            SurrogateSpec("sigmoid", SIGMOID_CAP_PI8),
            angles=(math.pi / 4,),
            seed=323,
        )
        with pytest.raises(UnderpoweredCheckError, match=f"after {5 * chunk} samples"):
            verify_stationary_gap(cfg, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("mc_chunks, fraction", [(1, 1e6), (3, 1e6), (5, 1e6), (20, 1e6), (3, 0.02)])
    def test_sample_growth_rule(self, monkeypatch, mc_chunks, fraction):
        # samples = max(2, ceil(mc / _CHUNK)) * 2^j * _CHUNK, at least _MIN_CHUNKS chunks
        chunk, min_chunks = verify_mod._CHUNK, verify_mod._MIN_CHUNKS
        monkeypatch.setattr(verify_mod, "STDERR_FLOOR_FRACTION", fraction)
        cfg = _disk_config(
            NoiseStrategy(kind="constant", eta_bound=0.3),
            SurrogateSpec("sigmoid", SIGMOID_CAP_PI8),
            angles=(math.pi / 4,),
            seed=324,
            mc_samples=mc_chunks * chunk - 7,
        )
        res = verify_stationary_gap(cfg, np.array([1.0, 0.0])).results[0]
        start = max(2, mc_chunks)
        assert res.samples % (start * chunk) == 0
        growth = res.samples // (start * chunk)
        assert growth & (growth - 1) == 0  # a power of two
        assert res.samples >= min_chunks * chunk
        assert res.stderr <= fraction * SIGMOID_FLOOR
        least = start
        while least < min_chunks:
            least *= 2
        if fraction > 1.0:  # the stderr target holds at once
            assert res.samples == least * chunk
        else:  # the stderr target alone forced further doublings
            assert res.samples > least * chunk
