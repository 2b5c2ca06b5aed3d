import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massart_halfspace import (
    BOUNDED_NOISE_KINDS,
    MarginalSampler,
    MassartOracle,
    NOISE_KINDS,
    NoiseStrategy,
    noise,
    noise_rates,
)
from massart_halfspace.geometry import sign_of
from massart_halfspace.rng import STREAM_FLIP, STREAM_X, make_rng


def _disk_oracle(strategy, seed=100):
    return MassartOracle(
        target=np.array([1.0, 0.0]),
        strategy=strategy,
        marginal=MarginalSampler(kind="uniform_disk_2d", dim=2),
        seed=seed,
    )


class TestStrategyValidation:
    def test_menu(self):
        assert BOUNDED_NOISE_KINDS == ("none", "constant", "boundary_concentrated", "random_measurable")
        assert NOISE_KINDS == BOUNDED_NOISE_KINDS + ("strong_massart_max",)
        models = {kind: NoiseStrategy(kind=kind, band=0.1).model for kind in NOISE_KINDS}
        assert models == {**dict.fromkeys(BOUNDED_NOISE_KINDS, noise.MODEL_MASSART),
                          "strong_massart_max": noise.MODEL_STRONG}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseStrategy(kind="adversarial")

    def test_constant_needs_rate_below_half(self):
        with pytest.raises(ValueError):
            NoiseStrategy(kind="constant", eta_bound=0.5)
        with pytest.raises(ValueError):
            NoiseStrategy(kind="constant", eta_bound=-0.1)
        NoiseStrategy(kind="constant", eta_bound=0.49)

    def test_boundary_needs_positive_band(self):
        with pytest.raises(ValueError):
            NoiseStrategy(kind="boundary_concentrated", eta_bound=0.3, band=0.0)
        NoiseStrategy(kind="boundary_concentrated", eta_bound=0.3, band=0.2)

    def test_strong_needs_positive_coefficient(self):
        with pytest.raises(ValueError):
            NoiseStrategy(kind="strong_massart_max", c_strong=0.0)
        NoiseStrategy(kind="strong_massart_max", c_strong=0.5)

    def test_hash_seed_must_be_non_negative(self):
        with pytest.raises(ValueError):
            NoiseStrategy(kind="random_measurable", eta_bound=0.3, hash_seed=-1)


class TestRates:
    def test_none_is_zero(self):
        xs = np.random.default_rng(0).standard_normal((50, 3))
        t = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(noise_rates(NoiseStrategy(kind="none"), t, xs), np.zeros(50))

    def test_constant_is_flat(self):
        xs = np.random.default_rng(1).standard_normal((50, 3))
        t = np.array([0.0, 1.0, 0.0])
        rates = noise_rates(NoiseStrategy(kind="constant", eta_bound=0.3), t, xs)
        assert np.array_equal(rates, np.full(50, 0.3))

    def test_boundary_band_is_inclusive(self):
        t = np.array([1.0, 0.0])
        xs = np.array([[0.4, 1.0], [-0.5, 0.2], [0.6, 0.0]])
        s = NoiseStrategy(kind="boundary_concentrated", eta_bound=0.3, band=0.5)
        assert np.array_equal(noise_rates(s, t, xs), np.array([0.3, 0.3, 0.0]))

    def test_strong_hand_values(self):
        t = np.array([1.0, 0.0])
        s1 = NoiseStrategy(kind="strong_massart_max", c_strong=1.0)
        s2 = NoiseStrategy(kind="strong_massart_max", c_strong=0.5)
        xs = np.array([[0.0, 1.0], [0.3, -2.0], [-0.3, 0.1], [2.0, 0.0]])
        # hand arithmetic: max(1/2 - c*|m|, 0)
        assert np.allclose(noise_rates(s1, t, xs), [0.5, 0.2, 0.2, 0.0], atol=1e-15)
        assert np.allclose(noise_rates(s2, t, xs), [0.5, 0.35, 0.35, 0.0], atol=1e-15)

    def test_random_measurable_is_deterministic_in_x(self):
        xs = np.random.default_rng(2).standard_normal((200, 4))
        t = np.array([0.5, 0.5, 0.5, 0.5])
        s = NoiseStrategy(kind="random_measurable", eta_bound=0.4, hash_seed=9)
        a = noise_rates(s, t, xs)
        b = noise_rates(s, t, xs)
        assert np.array_equal(a, b)
        assert np.all((0.0 <= a) & (a < 0.4))
        other = noise_rates(
            NoiseStrategy(kind="random_measurable", eta_bound=0.4, hash_seed=10), t, xs
        )
        assert not np.array_equal(a, other)

    def test_random_measurable_mean_is_half_bound(self):
        xs = np.random.default_rng(3).standard_normal((20_000, 3))
        t = np.array([1.0, 0.0, 0.0])
        s = NoiseStrategy(kind="random_measurable", eta_bound=0.3, hash_seed=0)
        rates = noise_rates(s, t, xs)
        stderr = 0.3 / math.sqrt(12 * len(xs))
        assert abs(float(rates.mean()) - 0.15) <= 5 * stderr

    def test_single_row_is_accepted(self):
        t = np.array([1.0, 0.0])
        got = noise_rates(NoiseStrategy(kind="constant", eta_bound=0.25), t, np.array([0.1, 5.0]))
        assert got.shape == (1,)
        assert got[0] == 0.25

    @given(st.sampled_from(BOUNDED_NOISE_KINDS), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_bounded_rates_never_exceed_bound(self, kind, seed):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal(3)
        t /= np.linalg.norm(t)
        xs = rng.standard_normal((256, 3)) * 3.0
        s = NoiseStrategy(kind=kind, eta_bound=0.45, band=0.3, hash_seed=seed)
        rates = noise_rates(s, t, xs)
        assert np.all(rates >= 0.0)
        assert np.all(rates <= 0.45)

    @given(st.floats(0.1, 4.0), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_strong_rates_stay_below_half(self, c, seed):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal(4)
        t /= np.linalg.norm(t)
        xs = rng.standard_normal((256, 4))
        rates = noise_rates(NoiseStrategy(kind="strong_massart_max", c_strong=c), t, xs)
        assert np.all(rates >= 0.0)
        assert np.all(rates <= 0.5)


def _rows_from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


def _reference_hash64(bits, seed):
    """The row hash in Python integers, one coordinate at a time."""
    mask = 2**64 - 1
    h = seed ^ 0x243F6A8885A308D3
    for b in bits:
        h = ((h ^ b) + 0x9E3779B97F4A7C15) & mask
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & mask
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & mask
        h ^= h >> 31
    return h


class TestMeasurableHash:
    # Each row's uint64 hash, worked in Python integers by _reference_hash64.
    # These depend on uint64 arithmetic alone, so they hold on any numpy
    # version.
    GOLDEN = [
        ([0.0, 0.0], 0, 0x93A9BDB51E5D5285),
        ([-0.0, 0.0], 0, 0x5A4A5665C8AD274F),
        ([1.0, -2.0], 0, 0x8A574CA471500A32),
        ([1.0, -2.0], 9, 0x56D99D0F18E4772E),
        ([0.5, 0.25, -0.125], 2**64 - 1, 0xE068C29232C174AA),
    ]

    @pytest.mark.parametrize("row, seed, expected", GOLDEN)
    def test_golden_values(self, row, seed, expected):
        xs = np.array([row])
        assert _reference_hash64(xs.view(np.uint64)[0].tolist(), seed) == expected
        assert int(noise._hash64(xs, seed)[0]) == expected
        # the rate keeps the hash's top 53 bits
        unit = (expected >> 11) / 2.0**53
        assert noise._hash_unit_floats(xs, seed)[0] == unit
        s = NoiseStrategy(kind="random_measurable", eta_bound=0.25, hash_seed=seed)
        assert noise_rates(s, np.eye(len(row))[0], xs)[0] == 0.25 * unit

    @given(st.lists(st.lists(st.integers(0, 2**64 - 1), min_size=3, max_size=3), min_size=1, max_size=20),
           st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_python_integer_reference(self, rows, seed):
        h = noise._hash64(_rows_from_bits(rows), seed)
        assert [int(v) for v in h] == [_reference_hash64(bits, seed) for bits in rows]

    @given(
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
        st.data(),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_changing_one_coordinate_changes_the_hash(self, bits, data, seed):
        # every round is a bijection of the state, so this holds exactly
        j = data.draw(st.integers(0, len(bits) - 1))
        other = data.draw(st.integers(0, 2**64 - 1).filter(lambda b: b != bits[j]))
        changed = list(bits)
        changed[j] = other
        xs = np.stack([_rows_from_bits(bits), _rows_from_bits(changed)])
        h = noise._hash64(xs, seed)
        assert h[0] != h[1]

    def test_memory_layout_does_not_change_the_hash(self):
        wide = np.random.default_rng(4).standard_normal((300, 6))
        xs = np.ascontiguousarray(wide[:, ::2])
        expected = noise._hash64(xs, 5)
        for view in (np.asfortranarray(xs), wide[:, ::2]):
            assert np.array_equal(noise._hash64(view, 5), expected)
        assert np.array_equal(noise._hash64(xs[::-1], 5), expected[::-1])
        s = NoiseStrategy(kind="random_measurable", eta_bound=0.3, hash_seed=5)
        rates = noise_rates(s, np.array([1.0, 0.0, 0.0]), xs)
        assert np.array_equal(noise_rates(s, np.array([1.0, 0.0, 0.0]), wide[:, ::2]), rates)

    def test_all_ones_hash_maps_below_one(self, monkeypatch):
        top = np.array([2**64 - 1, 2**64 - 2**11, 2**11 - 1, 0], dtype=np.uint64)
        monkeypatch.setattr(noise, "_hash64", lambda xs, seed: top)
        unit = noise._hash_unit_floats(np.zeros((4, 2)), 0)
        assert unit[0] == unit[1] == 1.0 - 2.0**-53
        assert unit[0] < 1.0
        assert unit[2] == unit[3] == 0.0
        for eta in (0.1, 0.3, 0.45, 0.5 - 2.0**-54):
            s = NoiseStrategy(kind="random_measurable", eta_bound=eta)
            assert noise_rates(s, np.array([1.0, 0.0]), np.zeros((4, 2)))[0] < eta


def _strategy(kind):
    return NoiseStrategy(
        kind=kind, eta_bound=0.0 if kind == "strong_massart_max" else 0.35,
        c_strong=0.7, band=0.4, hash_seed=11,
    )


class TestSharedMargins:
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_margins_argument_changes_no_bit(self, kind):
        rng = np.random.default_rng(6)
        t = rng.standard_normal(5)
        t /= np.linalg.norm(t)
        xs = rng.standard_normal((4000, 5))
        s = _strategy(kind)
        fresh = noise_rates(s, t, xs)
        shared = noise_rates(s, t, xs, margins=xs @ t)
        assert fresh.dtype == shared.dtype
        assert fresh.tobytes() == shared.tobytes()

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_draw_matches_the_two_product_reference(self, kind):
        s = _strategy(kind)
        oracle = MassartOracle(
            target=np.array([0.6, 0.0, -0.8]),
            strategy=s,
            marginal=MarginalSampler(kind="standard_gaussian", dim=3),
            seed=21,
        )
        got = [oracle.draw(3000), oracle.draw(1000)]
        # reference draw: one product for the clean labels and a second
        # inside noise_rates
        x_rng, flip_rng = make_rng(21, STREAM_X), make_rng(21, STREAM_FLIP)
        for d, n in zip(got, (3000, 1000)):
            xs = oracle.marginal.sample(n, rng=x_rng)
            clean = sign_of(xs @ oracle.target)
            flips = flip_rng.random(n) < noise_rates(s, oracle.target, xs)
            ys = np.where(flips, -clean, clean)
            assert d.xs.tobytes() == xs.tobytes()
            assert d.ys.tobytes() == ys.tobytes()
            assert d.flipped.tobytes() == flips.tobytes()


class TestOracleDraws:
    def test_bitwise_determinism(self):
        s = NoiseStrategy(kind="constant", eta_bound=0.3)
        a = _disk_oracle(s).draw(500)
        b = _disk_oracle(s).draw(500)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.ys, b.ys)
        assert np.array_equal(a.flipped, b.flipped)

    def test_points_paired_across_strategies(self):
        quiet = _disk_oracle(NoiseStrategy(kind="none"))
        loud = _disk_oracle(NoiseStrategy(kind="constant", eta_bound=0.4))
        assert np.array_equal(quiet.draw(1000).xs, loud.draw(1000).xs)

    def test_flip_bookkeeping_recovers_clean_labels(self):
        oracle = _disk_oracle(NoiseStrategy(kind="constant", eta_bound=0.4))
        d = oracle.draw(2000)
        clean = np.sign(d.xs @ oracle.target)
        clean[clean == 0] = 1.0
        assert np.array_equal(np.where(d.flipped, -d.ys, d.ys), clean)
        assert np.array_equal(d.ys[d.flipped], -clean[d.flipped])
        assert len(d) == 2000

    def test_none_never_flips(self):
        d = _disk_oracle(NoiseStrategy(kind="none")).draw(5000)
        assert not d.flipped.any()

    def test_constant_flip_fraction_matches_rate(self):
        n = 100_000
        d = _disk_oracle(NoiseStrategy(kind="constant", eta_bound=0.3)).draw(n)
        observed = float(d.flipped.mean())
        assert abs(observed - 0.3) <= 4 * math.sqrt(0.3 * 0.7 / n)

    def test_boundary_flips_only_inside_band(self):
        s = NoiseStrategy(kind="boundary_concentrated", eta_bound=0.4, band=0.5)
        oracle = _disk_oracle(s)
        d = oracle.draw(50_000)
        margins = np.abs(d.xs @ oracle.target)
        assert np.all(margins[d.flipped] <= 0.5)
        inside = margins <= 0.5
        observed = float(d.flipped[inside].mean())
        assert abs(observed - 0.4) <= 4 * math.sqrt(0.4 * 0.6 / inside.sum())

    def test_strong_flips_vanish_far_from_boundary(self):
        s = NoiseStrategy(kind="strong_massart_max", c_strong=0.5)
        oracle = _disk_oracle(s)
        d = oracle.draw(50_000)
        margins = np.abs(d.xs @ oracle.target)
        assert not d.flipped[margins >= 1.0].any()
        near = margins <= 0.1
        # average rate over the band by hand: 1/2 - c * E[|m| given band]
        expected = 0.5 - 0.5 * float(margins[near].mean())
        observed = float(d.flipped[near].mean())
        assert abs(observed - expected) <= 4 * math.sqrt(0.25 / near.sum())

    def test_stream_advances_across_draws(self):
        s = NoiseStrategy(kind="constant", eta_bound=0.2)
        split = _disk_oracle(s)
        first, second = split.draw(100), split.draw(100)
        assert not np.array_equal(first.xs, second.xs)
        twin = _disk_oracle(s)
        assert np.array_equal(twin.draw(100).xs, first.xs)
        assert np.array_equal(twin.draw(100).xs, second.xs)

    def test_spawn_is_independent(self):
        base = _disk_oracle(NoiseStrategy(kind="constant", eta_bound=0.2))
        child_draw = base.spawn(1).draw(100)
        assert not np.array_equal(base.draw(100).xs, child_draw.xs)
        again = _disk_oracle(NoiseStrategy(kind="constant", eta_bound=0.2)).spawn(1)
        assert np.array_equal(child_draw.xs, again.draw(100).xs)

    def test_target_must_be_unit_and_match_dim(self):
        s = NoiseStrategy(kind="none")
        marg = MarginalSampler(kind="uniform_disk_2d", dim=2)
        with pytest.raises(ValueError):
            MassartOracle(target=np.array([1.0, 1.0]), strategy=s, marginal=marg, seed=0)
        with pytest.raises(ValueError):
            MassartOracle(target=np.array([1.0, 0.0, 0.0]), strategy=s, marginal=marg, seed=0)


class TestOptError:
    def test_none_is_exactly_zero(self):
        est, stderr = _disk_oracle(NoiseStrategy(kind="none")).opt_error(1000)
        assert est == 0.0
        assert stderr == 0.0

    def test_constant_is_exact(self):
        est, stderr = _disk_oracle(NoiseStrategy(kind="constant", eta_bound=0.3)).opt_error(1000)
        assert est == pytest.approx(0.3, abs=1e-15)
        assert stderr == pytest.approx(0.0, abs=1e-15)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            _disk_oracle(NoiseStrategy(kind="none")).opt_error(1)

    def test_boundary_on_disk_matches_area_fraction(self):
        # quadrature by hand: Pr[|x1| <= b] on the radius-2 disk is
        # (b*sqrt(4 - b^2) + 4*asin(b/2)) / (2*pi)
        b = 0.5
        band_mass = (b * math.sqrt(4 - b * b) + 4 * math.asin(b / 2)) / (2 * math.pi)
        s = NoiseStrategy(kind="boundary_concentrated", eta_bound=0.3, band=b)
        est, stderr = _disk_oracle(s).opt_error(200_000)
        assert stderr > 0.0
        assert abs(est - 0.3 * band_mass) <= 4 * stderr

    def test_strong_gaussian_matches_quadrature(self):
        # quadrature oracle: E[max(1/2 - c|m|, 0)] for m standard normal
        anchors = {1.0: 0.09770855399974672, 0.5: 0.18437319018625364}
        for c, anchor in anchors.items():
            oracle = MassartOracle(
                target=np.array([1.0, 0.0, 0.0]),
                strategy=NoiseStrategy(kind="strong_massart_max", c_strong=c),
                marginal=MarginalSampler(kind="standard_gaussian", dim=3),
                seed=55,
            )
            est, stderr = oracle.opt_error(200_000)
            assert 0.0 < stderr < 2e-3
            assert abs(est - anchor) <= 4 * stderr

    def test_opt_stream_isolated_from_draws(self):
        s = NoiseStrategy(kind="strong_massart_max", c_strong=0.5)
        untouched = _disk_oracle(s).opt_error(5000)
        busy = _disk_oracle(s)
        busy.draw(1000)
        assert busy.opt_error(5000) == untouched
