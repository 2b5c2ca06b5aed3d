import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massart_halfspace import derive_seed, make_rng
from massart_halfspace.rng import (
    STREAM_FLIP,
    STREAM_PSGD,
    STREAM_X,
    substream_seed,
)


class TestValidation:
    def test_rejects_negative_base_seed(self):
        with pytest.raises(ValueError):
            make_rng(-1)

    def test_rejects_oversized_base_seed(self):
        with pytest.raises(ValueError):
            make_rng(2**64)

    def test_accepts_64_bit_extremes(self):
        make_rng(0)
        make_rng(2**64 - 1)

    def test_rejects_negative_path_component(self):
        with pytest.raises(ValueError):
            make_rng(7, 0, -3)

    def test_rejects_float_seed(self):
        with pytest.raises(ValueError):
            make_rng(1.5)

    def test_accepts_numpy_integers(self):
        a = make_rng(np.uint64(11), np.int64(2)).random(4)
        b = make_rng(11, 2).random(4)
        assert np.array_equal(a, b)


class TestDeterminism:
    def test_same_path_same_stream(self):
        a = make_rng(42, 3, STREAM_X).random(64)
        b = make_rng(42, 3, STREAM_X).random(64)
        assert np.array_equal(a, b)

    def test_purpose_codes_split_streams(self):
        a = make_rng(42, 3, STREAM_X).random(64)
        b = make_rng(42, 3, STREAM_FLIP).random(64)
        assert not np.array_equal(a, b)

    def test_trial_index_splits_streams(self):
        a = make_rng(42, 3, STREAM_PSGD).random(64)
        b = make_rng(42, 4, STREAM_PSGD).random(64)
        assert not np.array_equal(a, b)

    def test_path_is_not_flattened(self):
        # (1, 2) and (12,) must not alias
        a = make_rng(9, 1, 2).random(16)
        b = make_rng(9, 12).random(16)
        c = make_rng(9, 1).random(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_uses_philox_bit_generator(self):
        assert isinstance(make_rng(0).bit_generator, np.random.Philox)

    def test_matches_manual_seed_sequence(self):
        manual = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=42, spawn_key=(3, 6)))
        )
        assert np.array_equal(make_rng(42, 3, 6).random(32), manual.random(32))


class TestDeriveSeed:
    def test_stable_value(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)
        assert 0 <= derive_seed(42, 3) <= 2**64 - 1

    def test_matches_seed_sequence_state(self):
        expected = int(
            np.random.SeedSequence(entropy=42, spawn_key=(3,)).generate_state(1, np.uint64)[0]
        )
        assert derive_seed(42, 3) == expected

    def test_rebasing_gives_fresh_family(self):
        rebased = derive_seed(42, 3)
        a = make_rng(rebased, 0).random(16)
        b = make_rng(42, 3, 0).random(16)
        assert not np.array_equal(a, b)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**20), st.integers(0, 2**20))
    @settings(max_examples=50, deadline=None)
    def test_distinct_paths_distinct_seeds(self, base, i, j):
        if i == j:
            return
        assert derive_seed(base, i) != derive_seed(base, j)


class TestSubstreamSeed:
    def test_returns_seed_sequence(self):
        ss = substream_seed(5, 1, 2)
        assert isinstance(ss, np.random.SeedSequence)
        assert ss.entropy == 5
        assert ss.spawn_key == (1, 2)
