import math

import numpy as np
import pytest
from scipy import special

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
    plane_density,
    population_estimates,
    verify_lemma,
    verify_stationary_gap,
)
from massart_halfspace.geometry import sign_of
from massart_halfspace.noise import noise_rates
from massart_halfspace.surrogate import surrogate_derivative

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


# ---------------------------------------------------------------------------
# Bit parity. The verify chunk and the helpers it calls compute in place and
# without scalar-operand np.where. The whole-array forms below are what they
# replaced; on one machine both must give the same bits. numpy picks its SIMD
# loops by CPU, so the comparison runs in one process, not against stored bytes.


def _where_sign_of(t):
    arr = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("sign_of: input must be finite")
    out = np.where(arr >= 0.0, 1.0, -1.0)
    if np.isscalar(t) or arr.ndim == 0:
        return float(out)
    return out


def _where_marginal_pdf(plane, t):
    t = np.asarray(t, dtype=np.float64)
    if plane.kind == "standard_gaussian":
        return np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    r = plane.radius
    u2 = np.clip(t / r, -1.0, 1.0) ** 2
    inside = u2 < 1.0
    expo = plane._marg_beta - 1.0
    norm = r * special.beta(0.5, plane._marg_beta)
    base = np.where(inside, 1.0 - u2, 1.0)
    return np.where(inside, base**expo / norm, 0.0)


def _where_sample_marginal(plane, n, rng):
    if plane.kind == "standard_gaussian":
        return rng.standard_normal(n)
    u = np.sqrt(rng.beta(0.5, plane._marg_beta, size=n))
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return plane.radius * u * signs


def _where_sample_conditional(plane, t, rng):
    t = np.asarray(t, dtype=np.float64)
    n = t.shape[0]
    if plane.kind == "standard_gaussian":
        return rng.standard_normal(n)
    half_width = np.sqrt(np.maximum(plane.radius**2 - t * t, 0.0))
    u = np.sqrt(rng.beta(0.5, plane._cond_beta, size=n))
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return half_width * u * signs


def _where_derivative(spec, t):
    t = np.asarray(t, dtype=np.float64)
    if spec.kind == "ramp":
        out = np.where(np.abs(t) <= 0.5 * spec.sigma, 1.0 / spec.sigma, 0.0)
    else:
        q = np.exp(-np.abs(t / spec.sigma))
        out = q / (1.0 + q) ** 2 / spec.sigma
    return float(out) if out.ndim == 0 else out


def _where_noise_rates(strategy, target, xs):
    if strategy.kind == "boundary_concentrated":
        return np.where(np.abs(xs @ target) <= strategy.band, strategy.eta_bound, 0.0)
    return noise_rates(strategy, target, xs)


def _reference_estimate_angle(config, target, theta, plane, floor, rng):
    """verify._estimate_angle in its whole-array form, over the helper forms above.
    It reads the module's constants at call time, so a monkeypatch reaches both."""
    vm = verify_mod
    dim = config.marginal.dim
    sigma = config.surrogate.sigma
    mix = vm.MIXTURE_WEIGHT
    lap_scale = 1.5 * sigma
    norm = 0.0
    while norm < 1e-12:
        z = rng.standard_normal(dim)
        z -= (z @ target) * target
        norm = math.sqrt(float(z @ z))
    span = z / norm
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    w_hat = cos_t * target + sin_t * span
    b1 = sin_t * target - cos_t * span
    sums, sqs = np.zeros(3), np.zeros(3)
    chunks, want = 0, max(2, math.ceil(config.mc_samples / vm._CHUNK))
    target_stderr = floor * vm.STDERR_FLOOR_FRACTION
    while True:
        from_band = rng.random(vm._CHUNK) < mix
        k = int(from_band.sum())
        m = np.empty(vm._CHUNK)
        m[from_band] = rng.laplace(0.0, lap_scale, k)
        m[~from_band] = _where_sample_marginal(plane, vm._CHUNK - k, rng)
        marg = _where_marginal_pdf(plane, m)
        laplace_pdf = np.exp(-np.abs(m) / lap_scale) / (2.0 * lap_scale)
        proposal = mix * laplace_pdf + (1.0 - mix) * marg
        weight = marg / proposal
        v = (rng.permutation(vm._CHUNK) + rng.random(vm._CHUNK)) / vm._CHUNK
        np.clip(v, 1e-12, 1.0 - 1e-12, out=v)
        u = np.where(marg > 0.0, plane.conditional_inverse_cdf(m, v), 0.0)
        target_margin = cos_t * m + sin_t * u
        s = _where_sign_of(target_margin)
        xs = m[:, None] * w_hat + u[:, None] * b1
        rates = _where_noise_rates(config.noise, target, xs)
        f = -(1.0 - 2.0 * rates) * s * _where_derivative(config.surrogate, m) * u
        contrib = f * weight
        in_good = (u * s) > 0.0
        good = np.where(in_good, -contrib, 0.0)
        bad = np.where(in_good, 0.0, contrib)
        chunks += 1
        for i, arr in enumerate((contrib, good, bad)):
            mi = float(arr.mean())
            sums[i] += mi
            sqs[i] += mi * mi
        if chunks < want:
            continue
        n = chunks * vm._CHUNK
        mean = sums[0] / chunks
        stderr = math.sqrt(max(sqs[0] - chunks * mean * mean, 0.0) / (chunks - 1) / chunks)
        if chunks >= vm._MIN_CHUNKS and stderr <= target_stderr:
            break
        if n + vm._CHUNK > vm.MC_SAMPLE_CAP:
            raise UnderpoweredCheckError(f"stderr {stderr!r} after {n} samples")
        want += min(chunks, (vm.MC_SAMPLE_CAP - n) // vm._CHUNK)
    estimate = abs(mean)
    if theta == 0.0:
        verdict = "pass" if estimate <= config.confidence_sigmas * stderr else "fail"
    else:
        verdict = "pass" if estimate >= floor - config.confidence_sigmas * stderr else "fail"
    return verify_mod.AngleGapResult(
        theta=theta, sigma=sigma, floor=floor, estimate=estimate, stderr=stderr, samples=n,
        verdict=verdict, good_mass=sums[1] / chunks, bad_mass=sums[2] / chunks,
    )


def _result_bits(report):
    return [(r.theta, r.estimate.hex(), r.stderr.hex(), r.good_mass.hex(), r.bad_mass.hex(),
             r.samples, r.verdict) for r in report.results]


# The profile only sets sigma (the cap at pi/4) and the floor here.
_PARITY_MARGINALS = [
    (MarginalSampler("uniform_disk_2d", 2), DISK),
    (MarginalSampler("uniform_ball_isotropic", 5), GAUSS),
    (MarginalSampler("uniform_sphere_scaled", 6), GAUSS),
    (MarginalSampler("standard_gaussian", 3), GAUSS),
    (MarginalSampler("uniform_ball_isotropic", 16), GAUSS),  # points built by broadcast
]
_PARITY_NOISES = [
    (surrogate, NoiseStrategy(kind, eta_bound=0.3, band=0.5, hash_seed=3))
    for surrogate in ("ramp", "sigmoid")
    for kind in ("none", "constant", "boundary_concentrated", "random_measurable")
] + [("sigmoid", NoiseStrategy("strong_massart_max", c_strong=0.5))]


def _parity_config(marginal, profile, surrogate, noise, seed):
    angles = (0.0, math.pi / 4)
    sigma = verify_lemma(surrogate, noise, profile, angles)[2]
    return StructuralCheckConfig(
        surrogate=SurrogateSpec(surrogate, sigma), noise=noise, marginal=marginal,
        profile=profile, angles=angles, mc_samples=2, seed=seed,
    )


def _parity_target(dim):
    z = np.random.default_rng(dim).standard_normal(dim)
    return z / np.linalg.norm(z)


class TestChunkBits:
    """verify._estimate_angle against its whole-array reference, bit for bit."""

    @staticmethod
    def _both(monkeypatch, cfg):
        target = _parity_target(cfg.marginal.dim)
        new = verify_stationary_gap(cfg, target)
        with monkeypatch.context() as patch:
            patch.setattr(verify_mod, "_estimate_angle", _reference_estimate_angle)
            ref = verify_stationary_gap(cfg, target)
        return _result_bits(new), _result_bits(ref)

    @pytest.mark.parametrize("marginal, profile", _PARITY_MARGINALS,
                             ids=[f"{m.kind}-{m.dim}" for m, _ in _PARITY_MARGINALS])
    @pytest.mark.parametrize("surrogate, noise", _PARITY_NOISES, ids=[f"{s}-{n.kind}" for s, n in _PARITY_NOISES])
    def test_two_chunks_match(self, monkeypatch, marginal, profile, surrogate, noise):
        # two chunks per angle keep the case cheap; the chunk itself is the full _CHUNK
        monkeypatch.setattr(verify_mod, "_MIN_CHUNKS", 2)
        monkeypatch.setattr(verify_mod, "STDERR_FLOOR_FRACTION", 1e6)
        new, ref = self._both(monkeypatch, _parity_config(marginal, profile, surrogate, noise, 71))
        assert new == ref
        assert [r[5] for r in new] == [2 * verify_mod._CHUNK] * 2

    def test_both_point_builds_covered(self):
        dims = [m.dim for m, _ in _PARITY_MARGINALS]
        assert min(dims) <= verify_mod._COLUMN_BUILD_DIM < max(dims)

    def test_doubling_rounds_match(self, monkeypatch):
        # a stderr target that two chunks miss: the sample doubles before it is met
        monkeypatch.setattr(verify_mod, "_MIN_CHUNKS", 2)
        monkeypatch.setattr(verify_mod, "STDERR_FLOOR_FRACTION", 0.05)
        cfg = _parity_config(*_PARITY_MARGINALS[0], "sigmoid", NoiseStrategy("constant", eta_bound=0.3), 72)
        new, ref = self._both(monkeypatch, cfg)
        assert new == ref
        assert all(r[5] > 2 * verify_mod._CHUNK for r in new)


def _forms(x):
    """x as a Python float, a 0-d array and a 1-element array."""
    return [float(x), np.array(float(x)), np.array([float(x)])]


def _assert_same_bits(new, ref):
    assert type(new) is type(ref)
    assert np.shape(new) == np.shape(ref)
    assert [a.hex() for a in np.ravel(new).tolist()] == [b.hex() for b in np.ravel(ref).tolist()]


_PLANES = [plane_density(k, d) for k, d in (
    ("uniform_disk_2d", 2), ("uniform_ball_isotropic", 5), ("uniform_sphere_scaled", 6),
    ("uniform_sphere_scaled", 3), ("standard_gaussian", 3),
)]


def _plane_points(plane):
    """0, +-0, the support's edge +-radius and its float neighbours, points
    beyond it, and 500 random points, with +-inf and NaN."""
    r = plane.radius or 4.0
    edges = [r, math.nextafter(r, 0.0), math.nextafter(r, math.inf), 2.0 * r, 0.5 * r]
    pts = [0.0, -0.0, math.inf, -math.inf, math.nan] + edges + [-e for e in edges]
    return pts + np.random.default_rng(5).uniform(-1.2 * r, 1.2 * r, 500).tolist()


class TestHelperBits:
    """Each rewritten helper against its np.where form: same bits and types."""

    def test_sign_of(self):
        pts = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308]
        pts += np.random.default_rng(1).standard_normal(200).tolist()
        for x in pts:
            for t in _forms(x):
                _assert_same_bits(sign_of(t), _where_sign_of(t))
        _assert_same_bits(sign_of(np.array(pts)), _where_sign_of(np.array(pts)))
        for bad in (math.nan, math.inf, -math.inf):
            for t in _forms(bad) + [np.array([1.0, bad])]:
                with pytest.raises(ValueError, match="finite"):
                    sign_of(t)

    @pytest.mark.parametrize("plane", _PLANES, ids=lambda p: f"{p.kind}-{p.dim}")
    def test_marginal_pdf(self, plane):
        pts = _plane_points(plane)
        for x in pts:
            for t in _forms(x):
                _assert_same_bits(plane.marginal_pdf(t), _where_marginal_pdf(plane, t))
        _assert_same_bits(plane.marginal_pdf(np.array(pts)), _where_marginal_pdf(plane, np.array(pts)))

    @pytest.mark.parametrize("plane", _PLANES, ids=lambda p: f"{p.kind}-{p.dim}")
    def test_sample_signs(self, plane):
        t = np.array([x for x in _plane_points(plane) if math.isfinite(x)])
        for n in (0, 1, 2, 1000):
            a, b = np.random.default_rng(n), np.random.default_rng(n)
            _assert_same_bits(plane.sample_marginal(n, a), _where_sample_marginal(plane, n, b))
            assert a.bit_generator.state == b.bit_generator.state
        for ts in (t[:0], t[:1], t):
            a, b = np.random.default_rng(9), np.random.default_rng(9)
            _assert_same_bits(plane.sample_conditional(ts, a), _where_sample_conditional(plane, ts, b))
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("kind", ["ramp", "sigmoid"])
    @pytest.mark.parametrize("sigma", [0.05, 0.25, 0.7])
    def test_surrogate_derivative(self, kind, sigma):
        # the ramp's kinks at +-sigma/2 with their neighbours, and random points around them
        spec, h = SurrogateSpec(kind, sigma), sigma / 2
        pts = [0.0, -0.0, sigma, -sigma, 1000.0, -1000.0]
        pts += [p for k in (h, -h) for p in (k, math.nextafter(k, 0.0), math.nextafter(k, 2 * k))]
        pts += np.random.default_rng(2).uniform(-40.0 * sigma, 40.0 * sigma, 500).tolist()
        for x in pts:
            for t in _forms(x):
                _assert_same_bits(surrogate_derivative(spec, t), _where_derivative(spec, t))
        _assert_same_bits(surrogate_derivative(spec, np.array(pts)), _where_derivative(spec, np.array(pts)))

    def test_boundary_rates(self):
        band = 0.5
        noise = NoiseStrategy("boundary_concentrated", eta_bound=0.3, band=band)
        margins = [0.0, -0.0, band, -band, math.nextafter(band, 0.0), math.nextafter(band, 1.0),
                   -math.nextafter(band, 1.0), 0.2, -3.0]
        xs = np.array([[m, 7.0] for m in margins])
        target = np.array([1.0, 0.0])
        _assert_same_bits(noise_rates(noise, target, xs), _where_noise_rates(noise, target, xs))
