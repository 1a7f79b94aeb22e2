"""Hyperbolic trigonometry kernel: anchors, round trips, identities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidra.errors import DegenerateTriangle, DomainError
from hidra.hyptrig import (
    acosh_stable,
    angle_from_sides,
    hinge_diagonal,
    hinge_poly_residual,
    sinh_from_cosh,
)

# Reference laws of hyperbolic trigonometry that the library does not
# use; side_from_angles is the round-trip oracle for angle_from_sides.


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


def hexagon_side(x, y, z):
    """Right-angled hexagon law: side a opposite x with neighbours y, z.

    cosh a = (cosh y cosh z + cosh x) / (sinh y sinh z)
    """
    if y <= 1.0 or z <= 1.0:
        raise DomainError("hexagon sides adjacent to a must have positive length")
    return (y * z + x) / (sinh_from_cosh(y) * sinh_from_cosh(z))


def quad_two_right(a, b, y):
    """Quadrilateral with two right angles at the ends of the side x.

    Given the raw lengths a, b of the legs and the cosh of the opposite
    side y, returns cosh x = (sinh a sinh b + cosh y) / (cosh a cosh b).
    """
    if a < 0.0 or b < 0.0:
        raise DomainError("leg lengths must be non-negative")
    return (math.sinh(a) * math.sinh(b) + y) / (math.cosh(a) * math.cosh(b))


def quad_three_right(ad, bc):
    """Quadrilateral ABCD with right angles at A, B, C (raw leg lengths).

    Returns (cosh AB, cosh CD) = (tanh AD / tanh BC, sinh AD / sinh BC);
    requires 0 < BC <= AD so both ratios are at least 1.
    """
    if bc <= 0.0:
        raise DomainError("BC must be positive")
    if math.tanh(ad) < math.tanh(bc):
        raise DomainError("need tanh AD >= tanh BC")
    return math.tanh(ad) / math.tanh(bc), math.sinh(ad) / math.sinh(bc)


def triangle_area(alpha, beta, gamma):
    """Hyperbolic triangle area as the angle defect pi - alpha - beta - gamma."""
    s = alpha + beta + gamma
    if s >= math.pi:
        raise DomainError("angle sum must be below pi")
    return math.pi - s


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
    def test_inverse_of_equilateral(self):
        alpha = math.acos(2.0 / 3.0)
        assert side_from_angles(alpha, alpha, alpha) == pytest.approx(2.0, abs=1e-10)

    def test_right_angle_reduction(self):
        beta, gamma = 0.6, 0.7
        expected = (math.cos(beta) * math.cos(gamma)) / (
            math.sin(beta) * math.sin(gamma)
        ) + 1.0 / (math.sin(beta) * math.sin(gamma)) * math.cos(math.pi / 2)
        assert side_from_angles(math.pi / 2, beta, gamma) == pytest.approx(expected)

    def test_angle_sum_rejected(self):
        with pytest.raises(DomainError):
            side_from_angles(1.5, 1.0, 0.7)

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


class TestHexagonSide:
    def test_symmetric_value(self):
        assert hexagon_side(2.0, 2.0, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_closed_form(self):
        # (t^2 + t) / (t^2 - 1) = t / (t - 1) for equal inputs
        for t in (1.5, 2.0, 3.7):
            assert hexagon_side(t, t, t) == pytest.approx(t / (t - 1.0), rel=1e-12)

    def test_monotone_in_opposite_side(self):
        assert hexagon_side(3.0, 2.0, 2.0) > hexagon_side(2.5, 2.0, 2.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            hexagon_side(2.0, 1.0, 2.0)


class TestQuadTwoRight:
    def test_degenerate_legs(self):
        assert quad_two_right(0.0, 0.0, 1.8) == pytest.approx(1.8, abs=1e-15)

    def test_symmetric_collapse(self):
        # equal legs against a zero-length side collapse to x = 0
        assert quad_two_right(0.9, 0.9, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_direct_value(self):
        expected = (math.sinh(1.0) ** 2 + 2.0) / math.cosh(1.0) ** 2
        assert quad_two_right(1.0, 1.0, 2.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.41997, abs=5e-6)


class TestQuadThreeRight:
    def test_symmetric_collapse(self):
        ab, cd = quad_three_right(1.3, 1.3)
        assert ab == pytest.approx(1.0, abs=1e-15)
        assert cd == pytest.approx(1.0, abs=1e-15)

    def test_direct_value(self):
        ab, cd = quad_three_right(2.0, 1.0)
        assert ab == pytest.approx(math.tanh(2.0) / math.tanh(1.0), rel=1e-10)
        assert cd == pytest.approx(math.sinh(2.0) / math.sinh(1.0), rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            quad_three_right(1.0, 2.0)

    @given(
        st.floats(min_value=0.05, max_value=4.0),
        st.floats(min_value=0.05, max_value=4.0),
    )
    @settings(max_examples=200)
    def test_side_ordering(self, ad, bc):
        if ad < bc:
            ad, bc = bc, ad
        ab, cd = quad_three_right(ad, bc)
        assert ab * ab <= cd * cd + 1e-12


class TestTriangleArea:
    def test_small_defect(self):
        eps = 1e-4
        assert triangle_area(math.pi / 3, math.pi / 3, math.pi / 3 - eps) == (
            pytest.approx(eps, rel=1e-9)
        )

    def test_equilateral_cosh2(self):
        alpha = math.acos(2.0 / 3.0)
        area = triangle_area(alpha, alpha, alpha)
        assert area == pytest.approx(math.pi - 3 * alpha, abs=1e-15)
        assert area == pytest.approx(0.618387, abs=5e-6)

    def test_degenerate_limit(self):
        assert triangle_area(1.0, 1.0, math.pi - 2.0 - 1e-12) == pytest.approx(
            0.0, abs=1e-11
        )
        with pytest.raises(DomainError):
            triangle_area(1.5, 1.5, math.pi - 3.0 + 1e-9)


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
