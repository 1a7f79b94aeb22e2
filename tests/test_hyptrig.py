"""Hyperbolic trigonometry kernel: anchors, round trips, identities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidra.errors import DegenerateTriangle, DomainError
from hidra.hyptrig import (
    acosh_stable,
    hinge_diagonal,
    sinh_from_cosh,
)

from geometry_oracle import angle_from_sides, hinge_poly_residual

# The law of cosines for angles, which the library does not use, is the
# round-trip oracle for angle_from_sides.


def side_from_angles(alpha, beta, gamma):
    """cosh of the side opposite alpha, from the three angles.

    cosh x = (cos beta cos gamma + cos alpha) / (sin beta sin gamma)
    Requires alpha + beta + gamma < pi (hyperbolic angle deficit).
    """
    if alpha + beta + gamma >= math.pi:
        raise DomainError("angle sum must be below pi")
    return (math.cos(beta) * math.cos(gamma) + math.cos(alpha)) / (
        math.sin(beta) * math.sin(gamma)
    )


class TestAcoshStable:
    def test_identity_at_one(self):
        assert acosh_stable(1.0) == 0.0

    def test_cosh_roundtrip(self):
        assert acosh_stable(math.cosh(2.0)) == pytest.approx(2.0, abs=1e-12)

    def test_accurate_near_one(self):
        # against the Taylor value at the representable input
        x = 1.0 + 1e-12
        t = x - 1.0
        expected = math.sqrt(2.0 * t) * (1.0 - t / 12.0)
        assert acosh_stable(x) == pytest.approx(expected, rel=1e-9)
        assert acosh_stable(x) == pytest.approx(1.41421356e-6, rel=1e-4)

    @given(st.floats(min_value=1e-14, max_value=1.0))
    @settings(max_examples=200)
    def test_relative_error_near_one(self, t):
        # high-precision oracle at the exact double input
        import mpmath as mp

        x = 1.0 + t
        with mp.workdps(40):
            expected = float(mp.acosh(mp.mpf(x)))
        assert acosh_stable(x) == pytest.approx(expected, rel=1e-12)

    def test_clamps_just_below_one(self):
        assert acosh_stable(1.0 - 1e-13) == 0.0

    def test_rejects_below_domain(self):
        with pytest.raises(DomainError):
            acosh_stable(0.9)

    @given(st.floats(min_value=1e-5, max_value=20.0))
    @settings(max_examples=200)
    def test_roundtrip_property(self, t):
        assert acosh_stable(math.cosh(t)) == pytest.approx(t, rel=1e-10, abs=1e-10)

    @given(st.floats(min_value=1e-7, max_value=20.0))
    @settings(max_examples=200)
    def test_roundtrip_down_to_representation_floor(self, t):
        # below t ~ 1e-5 the double rounding of cosh(t) itself caps the
        # achievable round-trip accuracy near 2e-9 absolute
        assert acosh_stable(math.cosh(t)) == pytest.approx(t, rel=1e-10, abs=2e-9)


class TestSinhFromCosh:
    def test_matches_direct(self):
        for t in (0.1, 1.0, 5.0):
            assert sinh_from_cosh(math.cosh(t)) == pytest.approx(
                math.sinh(t), rel=1e-12
            )

    def test_guarded_below_one(self):
        assert sinh_from_cosh(1.0 - 1e-16) == 0.0


class TestAngleFromSides:
    def test_equilateral_cosh2(self):
        assert angle_from_sides(2.0, 2.0, 2.0) == pytest.approx(
            math.acos(2.0 / 3.0), abs=1e-12
        )

    def test_right_angle(self):
        # cosh x = cosh y cosh z makes the opposite angle pi/2
        y, z = 1.5, 2.5
        assert angle_from_sides(y * z, y, z) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_zero_opposite_side(self):
        assert angle_from_sides(1.0, 1.7, 1.7) == pytest.approx(0.0, abs=1e-7)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateTriangle):
            angle_from_sides(50.0, 1.2, 1.2)


class TestSideFromAngles:
    @given(
        st.floats(min_value=1.05, max_value=8.0),
        st.floats(min_value=1.05, max_value=8.0),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=200)
    def test_roundtrip_with_angles(self, y, z, frac):
        # sample the third side strictly inside its triangle-inequality range
        spread = sinh_from_cosh(y) * sinh_from_cosh(z)
        x = max(1.0 + 1e-9, y * z - spread) + frac * (
            y * z + spread - max(1.0 + 1e-9, y * z - spread)
        )
        alpha = angle_from_sides(x, y, z)
        beta = angle_from_sides(y, z, x)
        gamma = angle_from_sides(z, x, y)
        assert side_from_angles(alpha, beta, gamma) == pytest.approx(
            x, rel=1e-9, abs=1e-9
        )


class TestHingeDiagonal:
    def test_symmetric_hinge(self):
        z = hinge_diagonal(2.0, 2.0, 2.0, 2.0, 2.0)
        assert z == pytest.approx(13.0 / 3.0, rel=1e-12)
        assert abs(hinge_poly_residual(2, 2, 2, 2, 2, z)) <= 1e-12

    def test_flat_second_triangle(self):
        # cos(beta) = 1 collapses the second triangle: the diagonal closes
        # the (u, x, y) triangle with the extra side v folded onto y.
        u, x, y, v = 2.0, 2.2, 2.5, 1.8
        w = v * y - sinh_from_cosh(v) * sinh_from_cosh(y)
        z = hinge_diagonal(u, v, w, x, y)
        alpha = angle_from_sides(x, u, y)
        expected = u * v - math.cos(alpha) * sinh_from_cosh(u) * sinh_from_cosh(v)
        assert z == pytest.approx(expected, rel=1e-10)

    @given(st.data())
    @settings(max_examples=200)
    def test_polynomial_identity_property(self, data):
        # build a valid hinge from two random triangles sharing side y
        y = data.draw(st.floats(min_value=1.1, max_value=6.0))
        def triangle_third(a, b):
            lo = a * b - sinh_from_cosh(a) * sinh_from_cosh(b)
            hi = a * b + sinh_from_cosh(a) * sinh_from_cosh(b)
            frac = data.draw(st.floats(min_value=0.05, max_value=0.95))
            return lo + frac * (hi - lo)
        u = data.draw(st.floats(min_value=1.1, max_value=6.0))
        x = triangle_third(u, y)
        v = data.draw(st.floats(min_value=1.1, max_value=6.0))
        w = triangle_third(v, y)
        z = hinge_diagonal(u, v, w, x, y)
        assert abs(hinge_poly_residual(u, v, w, x, y, z)) <= 1e-8
