import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from massart_halfspace import (
    BoundedProfile,
    angle_between,
    error_lower_bound_from_angle,
    error_upper_bound_from_angle,
    sign_of,
)
from massart_halfspace.geometry import check_orthonormal_basis, require_unit, unit_vector

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def vectors(min_dim=1, max_dim=8):
    return hnp.arrays(
        np.float64,
        st.integers(min_dim, max_dim),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    ).filter(lambda v: np.linalg.norm(v) > 1e-6)


class TestSignOf:
    def test_zero_is_positive(self):
        assert sign_of(0.0) == 1.0

    def test_scalars(self):
        assert sign_of(-3.2) == -1.0
        assert sign_of(2.5) == 1.0

    def test_vectorized_includes_ties(self):
        out = sign_of(np.array([-1.0, 0.0, 5.0, -0.0]))
        # -0.0 >= 0.0 in IEEE arithmetic, so both zeros map to +1
        assert out.tolist() == [-1.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            sign_of(bad)


class TestAngleBetween:
    def test_parallel(self):
        assert angle_between(E1, E1) == 0.0

    def test_orthogonal(self):
        assert angle_between(E1, E2) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_antiparallel(self):
        assert angle_between(E1, -E1) == pytest.approx(math.pi, abs=1e-15)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            angle_between(np.zeros(3), E1)

    def test_clipping_survives_rounding(self):
        # nearly identical unit vectors can give <u,v> slightly above 1
        u = unit_vector(np.array([1.0, 1e-9, 0.0]))
        assert angle_between(u, u) == 0.0

    @given(vectors(2, 6).flatmap(lambda u: st.tuples(
        st.just(u),
        hnp.arrays(np.float64, len(u), elements=st.floats(-1e6, 1e6, allow_nan=False))
        .filter(lambda v: np.linalg.norm(v) > 1e-6),
        st.floats(1e-3, 1e3),
    )))
    def test_symmetry_and_scale_invariance(self, args):
        # the angle is sqrt-sensitive to rounding near 0 and pi, so the
        # 1e-12 exactness claim is asserted on the cosine
        u, v, c = args
        a = angle_between(u, v)
        for other in (angle_between(v, u), angle_between(c * u, v)):
            assert math.cos(other) == pytest.approx(math.cos(a), abs=1e-12)
            assert other == pytest.approx(a, abs=1e-6)


class TestOrthonormalBasisOfSpan:
    """check_orthonormal_basis on Gram-Schmidt bases of random spans."""

    @given(st.integers(2, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_output_is_orthonormal_and_spans(self, dim, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(dim)
        v = rng.standard_normal(dim)
        # Gram-Schmidt basis of span(u, v), with b1 along u
        b1 = u / np.linalg.norm(u)
        resid = v - (v @ b1) * b1
        b2 = resid / np.linalg.norm(resid)
        check_orthonormal_basis((b1, b2))
        # u and v must be reconstructible from the basis
        for w in (u, v):
            recon = (w @ b1) * b1 + (w @ b2) * b2
            assert np.allclose(recon, w, atol=1e-9 * max(1.0, float(np.linalg.norm(w))))


class TestBoundedProfile:
    def test_disk_constants(self, disk):
        p = disk
        assert p.density_bound == pytest.approx(4.0 * math.pi)
        assert p.inner_radius == 2.0
        assert p.tail_radius(0.5) == 2.0

    def test_rejects_density_bound_below_one(self):
        with pytest.raises(ValueError):
            BoundedProfile(density_bound=0.5, inner_radius=0.1, tail_radius=lambda e: 1.0)

    def test_rejects_overfull_disk(self):
        # pi * 3^2 / 4 > 1: the disk would carry more than unit mass
        with pytest.raises(ValueError):
            BoundedProfile(density_bound=4.0, inner_radius=3.0, tail_radius=lambda e: 3.0)

    def test_rejects_increasing_tail_radius(self):
        with pytest.raises(ValueError):
            BoundedProfile(density_bound=10.0, inner_radius=0.5, tail_radius=lambda e: e)


class TestErrorBounds:
    def test_lower_bound_at_zero(self, disk):
        assert error_lower_bound_from_angle(0.0, disk) == 0.0

    def test_lower_bound_disk_half_pi(self, disk):
        # (R^2/U) * theta = (4 / 4pi) * (pi/2) = 1/2
        assert error_lower_bound_from_angle(math.pi / 2, disk) == pytest.approx(0.5)

    def test_lower_bound_identity_constants(self):
        prof = BoundedProfile(density_bound=1.0, inner_radius=0.5, tail_radius=lambda e: 1.0)
        got = error_lower_bound_from_angle(0.1, prof)
        assert got == pytest.approx(0.25 * 0.1)

    def test_upper_bound_at_zero_angle_is_eps(self, disk):
        assert error_upper_bound_from_angle(0.0, 0.1, disk) == pytest.approx(0.1)

    def test_upper_bound_hand_case(self):
        prof = BoundedProfile(density_bound=1.0, inner_radius=0.5, tail_radius=lambda e: 2.0)
        # U t^2 theta + eps = 1 * 4 * 0.01 + 0.1
        assert error_upper_bound_from_angle(0.01, 0.1, prof) == pytest.approx(0.14)

    def test_upper_bound_logconcave_constants(self):
        from massart_halfspace import logconcave_profile

        # frozen from standalone arithmetic:
        # (e*2^17) * (16 ln 20 + 32)^2 * 0.05 + 0.05
        got = error_upper_bound_from_angle(0.05, 0.05, logconcave_profile(16.0))
        assert got == pytest.approx(113818456.05128825, rel=1e-12)

    def test_angle_range_validated(self, disk):
        with pytest.raises(ValueError):
            error_lower_bound_from_angle(-0.1, disk)
        with pytest.raises(ValueError):
            error_upper_bound_from_angle(4.0, 0.1, disk)
        with pytest.raises(ValueError):
            error_upper_bound_from_angle(0.1, 0.0, disk)

    @given(st.floats(0.0, math.pi), st.floats(0.01, 1.0))
    def test_sandwich_orders_correctly_on_disk(self, theta, eps):
        # exact-profile disk: lower bound never exceeds upper bound
        from massart_halfspace import disk_profile

        p = disk_profile()
        lo = error_lower_bound_from_angle(theta, p)
        hi = error_upper_bound_from_angle(theta, eps, p)
        assert lo <= hi + 1e-12


class TestUnitHelpers:
    def test_require_unit_accepts_unit(self):
        require_unit(E1)

    def test_require_unit_rejects_scaled(self):
        with pytest.raises(ValueError):
            require_unit(2.0 * E1)

    def test_unit_vector_normalizes(self):
        out = unit_vector(np.array([3.0, 4.0]))
        assert np.allclose(out, [0.6, 0.8])
