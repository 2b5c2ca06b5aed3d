import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from massart_halfspace import (
    MarginalSampler,
    PROFILE_BUILDERS,
    UnderpoweredCheckError,
    disk_profile,
    empirical_density_check,
    gaussian_profile,
    logconcave_profile,
    plane_density,
)
from massart_halfspace.distributions import SAMPLER_KINDS, support_radius
from massart_halfspace.geometry import BoundedProfile
from massart_halfspace.rng import make_rng

# two-sample Kolmogorov-Smirnov critical statistic at the 1% level
_KS_1PCT = 1.628 * math.sqrt(2.0 / 100_000)


class TestSamplerConfig:
    def test_known_kinds(self):
        assert set(SAMPLER_KINDS) == {
            "standard_gaussian",
            "uniform_ball_isotropic",
            "uniform_sphere_scaled",
            "uniform_disk_2d",
        }

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            MarginalSampler(kind="cauchy", dim=3)

    def test_disk_requires_dim_two(self):
        with pytest.raises(ValueError):
            MarginalSampler(kind="uniform_disk_2d", dim=3)
        MarginalSampler(kind="uniform_disk_2d", dim=2)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            MarginalSampler(kind="standard_gaussian", dim=0)

    def test_support_radii(self):
        assert support_radius("standard_gaussian", 7) is None
        assert support_radius("uniform_ball_isotropic", 5) == pytest.approx(math.sqrt(7.0))
        assert support_radius("uniform_sphere_scaled", 4) == 2.0
        assert support_radius("uniform_disk_2d", 2) == 2.0


class TestSamplerStreams:
    @pytest.mark.parametrize("kind,dim", [
        ("standard_gaussian", 4),
        ("uniform_ball_isotropic", 3),
        ("uniform_sphere_scaled", 5),
        ("uniform_disk_2d", 2),
    ])
    def test_same_seed_bitwise_identical(self, kind, dim):
        a = MarginalSampler(kind=kind, dim=dim).sample(500, make_rng(123))
        b = MarginalSampler(kind=kind, dim=dim).sample(500, make_rng(123))
        assert np.array_equal(a, b)


class TestSamplerLaws:
    @pytest.mark.parametrize("kind,dim", [
        ("standard_gaussian", 3),
        ("uniform_ball_isotropic", 5),
        ("uniform_sphere_scaled", 4),
        ("uniform_disk_2d", 2),
    ])
    def test_isotropy_at_one_million(self, kind, dim):
        n = 1_000_000
        xs = MarginalSampler(kind=kind, dim=dim).sample(n, make_rng(31))
        mean_tol = 5.0 / math.sqrt(n)
        assert np.all(np.abs(xs.mean(axis=0)) <= mean_tol)
        m4 = (xs**4).mean(axis=0)
        var_tol = 5.0 * np.sqrt(m4) / math.sqrt(n)
        assert np.all(np.abs((xs**2).mean(axis=0) - 1.0) <= var_tol)

    def test_disk_support_and_mass_ratio(self):
        n = 1_000_000
        xs = MarginalSampler(kind="uniform_disk_2d", dim=2).sample(n, make_rng(5))
        norms = np.linalg.norm(xs, axis=1)
        assert float(norms.max()) <= 2.0
        # concentric disk of half the radius carries a quarter of the area
        p = float(np.mean(norms <= 1.0))
        assert abs(p - 0.25) <= 3.0 * math.sqrt(0.25 * 0.75 / n)

    def test_sphere_norms_are_constant(self):
        xs = MarginalSampler(kind="uniform_sphere_scaled", dim=6).sample(10_000, make_rng(7))
        assert np.allclose(np.linalg.norm(xs, axis=1), math.sqrt(6.0), atol=1e-12)

    def test_ball_norms_within_radius(self):
        xs = MarginalSampler(kind="uniform_ball_isotropic", dim=4).sample(100_000, make_rng(8))
        assert float(np.linalg.norm(xs, axis=1).max()) <= math.sqrt(6.0)

    @pytest.mark.parametrize("kind,dim", [
        ("standard_gaussian", 4),
        ("uniform_ball_isotropic", 4),
        ("uniform_sphere_scaled", 4),
    ])
    def test_rotation_invariance_ks(self, kind, dim):
        n = 100_000
        rng = np.random.default_rng(404)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        xs = MarginalSampler(kind=kind, dim=dim).sample(n, make_rng(15))
        ys = MarginalSampler(kind=kind, dim=dim).sample(n, make_rng(16))
        stat = stats.ks_2samp(xs @ u, (ys @ q.T) @ u).statistic
        assert stat <= _KS_1PCT


class TestProfiles:
    def test_builder_names(self):
        assert set(PROFILE_BUILDERS) == {"disk_exact", "gaussian_analytic", "logconcave"}

    def test_disk_profile_constants(self):
        p = disk_profile()
        assert p.density_bound == pytest.approx(4.0 * math.pi)
        assert p.inner_radius == 2.0
        assert p.tail_radius(0.01) == 2.0

    def test_gaussian_profile_constants(self):
        p = gaussian_profile()
        assert p.density_bound == pytest.approx(2.0 * math.pi * math.sqrt(math.e))
        assert p.inner_radius == 1.0
        # squared 2-d projection norm is chi-squared with 2 dof
        assert p.tail_radius(0.1) == pytest.approx(math.sqrt(2.0 * math.log(10.0)))

    def test_logconcave_profile_constants(self):
        p = logconcave_profile(16.0)
        # frozen from standalone arithmetic: e * 2^17
        assert p.density_bound == pytest.approx(356290.63581978396, rel=1e-13)
        assert p.inner_radius == pytest.approx(1.0 / 9.0)
        assert p.tail_radius(1.0) == pytest.approx(32.0)

    def test_logconcave_tail_at_unit_knob(self):
        p = logconcave_profile(1.0)
        assert p.tail_radius(math.exp(-1.0)) == pytest.approx(3.0)

    def test_logconcave_rejects_bad_knob(self):
        with pytest.raises(ValueError):
            logconcave_profile(0.0)

    def test_tail_radius_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            gaussian_profile().tail_radius(0.0)
        with pytest.raises(ValueError):
            logconcave_profile().tail_radius(1.5)
        with pytest.raises(ValueError):
            disk_profile().tail_radius(0.0)

    @pytest.mark.parametrize("name", sorted(PROFILE_BUILDERS))
    def test_profile_pickles_with_its_tail_radius(self, name):
        profile = PROFILE_BUILDERS[name]()
        clone = pickle.loads(pickle.dumps(profile))
        eps = (1.0, 0.1, 1e-6)
        assert (clone.density_bound, clone.inner_radius) == (profile.density_bound, profile.inner_radius)
        assert [clone.tail_radius(e) for e in eps] == [profile.tail_radius(e) for e in eps]


class TestEmpiricalDensityCheck:
    def _basis(self, dim):
        b1 = np.zeros(dim)
        b2 = np.zeros(dim)
        b1[0] = 1.0
        b2[1] = 1.0
        return b1, b2

    def test_disk_passes_against_exact_profile(self):
        sampler, rng = MarginalSampler(kind="uniform_disk_2d", dim=2), make_rng(21)
        report = empirical_density_check(sampler, self._basis(2), disk_profile(), n=200_000, rng=rng)
        assert report.passed
        assert report.tail_passed
        assert not report.failures()

    def test_disk_fails_overclaimed_density_floor(self):
        # density bound 2 promises cell density >= 1/3 with the default
        # slack, but the true value on the radius-2 disk is 1/(4*pi)
        sampler, rng = MarginalSampler(kind="uniform_disk_2d", dim=2), make_rng(22)
        overclaimed = BoundedProfile(
            density_bound=2.0, inner_radius=0.5, tail_radius=lambda e: 2.0
        )
        report = empirical_density_check(sampler, self._basis(2), overclaimed, n=100_000, rng=rng)
        assert not report.passed
        assert any(c.verdict == "fail_low" for c in report.failures())

    def test_gaussian_passes_against_logconcave_profile(self):
        sampler, rng = MarginalSampler(kind="standard_gaussian", dim=2), make_rng(23)
        report = empirical_density_check(
            sampler, self._basis(2), logconcave_profile(16.0), n=500_000, rng=rng
        )
        assert report.passed

    def test_underpowered_raises(self):
        sampler, rng = MarginalSampler(kind="standard_gaussian", dim=2), make_rng(24)
        with pytest.raises(UnderpoweredCheckError):
            empirical_density_check(sampler, self._basis(2), logconcave_profile(16.0), n=2_000, rng=rng)

    def test_input_validation(self):
        sampler, rng = MarginalSampler(kind="uniform_disk_2d", dim=2), make_rng(25)
        with pytest.raises(ValueError):
            empirical_density_check(sampler, self._basis(2), disk_profile(), n=1000, rng=rng, grid=1)
        with pytest.raises(ValueError):
            empirical_density_check(sampler, self._basis(2), disk_profile(), n=0, rng=rng)


class TestPlaneDensity:
    @pytest.mark.parametrize("kind,dim", [
        ("standard_gaussian", 6),
        ("uniform_ball_isotropic", 5),
        ("uniform_sphere_scaled", 6),
        ("uniform_disk_2d", 2),
    ])
    def test_marginal_pdf_integrates_to_one(self, kind, dim):
        pd = plane_density(kind, dim)
        lim = pd.radius if pd.radius is not None else 12.0
        total, err = integrate.quad(lambda t: float(pd.marginal_pdf(t)), -lim, lim)
        assert total == pytest.approx(1.0, abs=max(1e-8, 10 * err))

    def test_sphere_needs_three_dims(self):
        with pytest.raises(ValueError):
            plane_density("uniform_sphere_scaled", 2)

    @pytest.mark.parametrize("kind,dim", [
        ("uniform_ball_isotropic", 5),
        ("uniform_sphere_scaled", 6),
        ("uniform_disk_2d", 2),
        ("standard_gaussian", 4),
    ])
    def test_plane_pair_matches_projected_samples(self, kind, dim):
        # draw (first, second) coordinates from the analytic projection
        # and compare their radii against directly projected samples
        n = 100_000
        rng = np.random.default_rng(77)
        pd = plane_density(kind, dim)
        m = pd.sample_marginal(n, rng)
        u = pd.sample_conditional(m, rng)
        analytic_radii = np.hypot(m, u)
        xs = MarginalSampler(kind=kind, dim=dim).sample(n, make_rng(78))
        direct_radii = np.hypot(xs[:, 0], xs[:, 1])
        assert stats.ks_2samp(analytic_radii, direct_radii).statistic <= _KS_1PCT

    def test_conditional_inverse_cdf_median_is_zero(self):
        pd = plane_density("uniform_ball_isotropic", 5)
        t = np.array([0.0, 0.5, 1.0])
        out = pd.conditional_inverse_cdf(t, np.full(3, 0.5))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_conditional_inverse_cdf_monotone(self):
        pd = plane_density("uniform_sphere_scaled", 6)
        v = np.linspace(0.01, 0.99, 25)
        t = np.full(25, 0.3)
        out = pd.conditional_inverse_cdf(t, v)
        assert np.all(np.diff(out) > 0.0)

    def test_conditional_inverse_cdf_matches_sampler(self):
        # quantile transform of uniforms must reproduce sample_conditional
        n = 100_000
        rng = np.random.default_rng(79)
        pd = plane_density("uniform_ball_isotropic", 4)
        t = np.full(n, 0.7)
        via_icdf = pd.conditional_inverse_cdf(t, rng.random(n))
        via_sampler = pd.sample_conditional(t, np.random.default_rng(80))
        assert stats.ks_2samp(via_icdf, via_sampler).statistic <= _KS_1PCT

    def test_gaussian_inverse_cdf_is_normal_quantile(self):
        pd = plane_density("standard_gaussian", 3)
        got = pd.conditional_inverse_cdf(np.zeros(3), np.array([0.025, 0.5, 0.975]))
        assert got[1] == pytest.approx(0.0, abs=1e-12)
        assert got[2] == pytest.approx(1.959963984540054, abs=1e-9)
        assert got[0] == pytest.approx(-got[2], abs=1e-12)

    @given(st.sampled_from(["uniform_ball_isotropic", "uniform_disk_2d"]), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_conditional_stays_inside_support(self, kind, seed):
        dim = 2 if kind == "uniform_disk_2d" else 5
        pd = plane_density(kind, dim)
        rng = np.random.default_rng(seed)
        t = pd.sample_marginal(256, rng)
        u = pd.sample_conditional(t, rng)
        assert np.all(t * t + u * u <= pd.radius**2 + 1e-9)
