"""Metric layer: lengths, discriminants, orthocircles, Delaunay predicate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidra.checks import xi_delta_residual, xi_equivalence_check
from hidra.errors import DomainError, NonCompactOrthocircle
from hidra.geometry import (
    Packing,
    SurfaceMetrics,
    auxiliary_length,
    delta_discriminant,
    edge_cosh_length,
    validate_packing,
    xi_discriminant,
)
from hidra.hyptrig import acosh_stable
from hidra.surface import hinge

from geometry_oracle import (
    develop_face_in_disk,
    disk_distance,
    face_metrics,
    hinge_delaunay_margin,
    hinge_h_sum,
    inversive_from_length,
    is_local_delaunay,
    orthocircle_radius,
    signed_center_distance,
    triangle_inequalities_hold,
)

R_HALF = math.atanh(0.5)  # tanh r = 1/2, the symmetric anchor radius


def xi_from_cosh(cosh_lengths, cosh_radii):
    """Xi recomputed from cosh lengths and cosh radii: algebraically equal
    to xi_discriminant, worse conditioned for large radii."""
    x, y, z = cosh_lengths
    p, q, r = cosh_radii
    return (
        p * p * (1.0 - x * x)
        + q * q * (1.0 - y * y)
        + r * r * (1.0 - z * z)
        + 2.0 * p * q * (x * y - z)
        + 2.0 * p * r * (x * z - y)
        + 2.0 * q * r * (y * z - x)
    )


def symmetric_face_metrics(torus, torus_packing):
    return face_metrics(torus, torus_packing, 0)


class TestEdgeLength:
    def test_tangency_limit(self):
        r1, r2 = 0.7, 1.1
        near_one = edge_cosh_length(r1, r2, 1.0 + 1e-12)
        assert near_one == pytest.approx(math.cosh(r1 + r2), rel=1e-10)

    def test_direct_value(self):
        got = edge_cosh_length(1.0, 1.0, 2.0)
        expected = math.cosh(1.0) ** 2 + 2.0 * math.sinh(1.0) ** 2
        assert got == pytest.approx(expected, rel=1e-14)
        assert acosh_stable(got) == pytest.approx(2.321253, abs=1e-5)

    def test_monotone_in_inversive_distance(self):
        assert edge_cosh_length(1.0, 1.0, 2.5) > edge_cosh_length(1.0, 1.0, 2.0)

    def test_implied_length_exceeds_radius_sum(self):
        cosh_l = edge_cosh_length(0.6, 0.9, 1.2)
        assert acosh_stable(cosh_l) > 0.6 + 0.9

    def test_domain(self):
        with pytest.raises(DomainError):
            edge_cosh_length(-0.5, 1.0, 2.0)
        with pytest.raises(DomainError):
            edge_cosh_length(0.5, 1.0, 1.0)


class TestInversiveFromLength:
    def test_tangency(self):
        r1, r2 = 0.4, 0.8
        assert inversive_from_length(r1, r2, math.cosh(r1 + r2)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_orthogonal_circle_boundary(self):
        r1, r2 = 0.5, 0.7
        val = inversive_from_length(r1, r2, math.cosh(r1) * math.cosh(r2))
        assert val == pytest.approx(0.0, abs=1e-14)

    @given(
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=1.001, max_value=20.0),
    )
    @settings(max_examples=300)
    def test_roundtrip(self, r1, r2, inv):
        got = inversive_from_length(r1, r2, edge_cosh_length(r1, r2, inv))
        assert got == pytest.approx(inv, rel=1e-12)


class TestDeltaDiscriminant:
    def test_boundary(self):
        assert delta_discriminant(1.0, 1.0, 1.0) == 4.0

    def test_symmetric(self):
        assert delta_discriminant(2.0, 2.0, 2.0) == 27.0

    @given(
        st.floats(min_value=1.0001, max_value=50.0),
        st.floats(min_value=1.0001, max_value=50.0),
        st.floats(min_value=1.0001, max_value=50.0),
    )
    @settings(max_examples=200)
    def test_above_four_in_regime(self, a, b, c):
        assert delta_discriminant(a, b, c) > 4.0


class TestXiDiscriminant:
    def test_symmetric_anchor(self):
        radii = (R_HALF,) * 3
        inv = (2.0,) * 3
        assert xi_discriminant(radii, inv) == pytest.approx(4.0, abs=1e-12)

    def test_cosh_form_agrees(self, torus, torus_packing):
        fm = symmetric_face_metrics(torus, torus_packing)
        assert xi_from_cosh(fm.cosh_lengths, fm.cosh_radii) == pytest.approx(
            fm.xi, rel=1e-9
        )
        # the anchor evaluates to -12 + 16 = 4 in the cosh form
        assert xi_from_cosh(fm.cosh_lengths, fm.cosh_radii) == pytest.approx(
            4.0, abs=1e-9
        )

    def test_xi_delta_identity_random(self, rng):
        for _ in range(500):
            radii = np.arctanh(rng.uniform(0.05, 0.95, size=3))
            inv = rng.uniform(1.01, 5.0, size=3)
            assert xi_delta_residual(radii, inv) <= 1e-9

    def test_sign_matches_auxiliary_inequalities(self, rng):
        for _ in range(500):
            radii = np.arctanh(rng.uniform(0.05, 0.95, size=3))
            inv = rng.uniform(1.01, 5.0, size=3)
            assert xi_equivalence_check(radii, inv)

    def test_collinear_construction_gives_zero(self):
        # force one auxiliary-length triangle equality by solving for the
        # inversive distance on side 0
        radii = (0.4, 0.55, 0.7)
        t = [math.tanh(r) for r in radii]
        inv12, inv20 = 1.7, 2.3
        h1 = auxiliary_length(radii[2], radii[0], inv12)
        h2 = auxiliary_length(radii[0], radii[1], inv20)
        target = h1 + h2
        inv01 = (target * target - t[1] ** 2 - t[2] ** 2) / (2.0 * t[1] * t[2])
        xi = xi_discriminant(radii, (inv01, inv12, inv20))
        assert xi == pytest.approx(0.0, abs=1e-12)


class TestAuxiliaryLength:
    def test_tangency_limit(self):
        r1, r2 = 0.5, 0.9
        expected = math.tanh(r1) + math.tanh(r2)
        assert auxiliary_length(r1, r2, 1.0 + 1e-14) == pytest.approx(
            expected, rel=1e-12
        )

    def test_direct_value(self):
        r = math.atanh(0.5)
        assert auxiliary_length(r, r, 2.0) == pytest.approx(math.sqrt(1.5), rel=1e-12)

    @given(
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=1.001, max_value=10.0),
    )
    @settings(max_examples=200)
    def test_exceeds_tanh_sum(self, r1, r2, inv):
        gap = auxiliary_length(r1, r2, inv) ** 2 - (
            math.tanh(r1) + math.tanh(r2)
        ) ** 2
        assert gap == pytest.approx(
            2.0 * (inv - 1.0) * math.tanh(r1) * math.tanh(r2), rel=1e-10
        )


class TestOrthocircle:
    def test_symmetric_anchor(self, torus, torus_packing):
        fm = symmetric_face_metrics(torus, torus_packing)
        rho = orthocircle_radius(fm)
        assert math.sinh(rho) == pytest.approx(0.5, abs=1e-12)
        assert math.cosh(rho) ** 2 == pytest.approx(1.25, abs=1e-12)

    def test_cosh_sinh_consistency_random(self, rng):
        from conftest import one_vertex_genus2

        surface = one_vertex_genus2()
        from hidra.checks import random_packing

        for _ in range(20):
            pk = random_packing(surface, rng)
            for fid in range(surface.face_count):
                fm = face_metrics(surface, pk, fid)
                rho = orthocircle_radius(fm)
                x, y, z = fm.cosh_lengths
                cosh2 = (1.0 + 2 * x * y * z - x * x - y * y - z * z) / fm.xi
                assert math.cosh(rho) ** 2 == pytest.approx(cosh2, rel=1e-10)
                # three-way identity tying Delta, Xi and rho
                lhs = math.prod(math.sinh(r) for r in fm.radii) * math.sqrt(fm.delta)
                assert math.sinh(rho) * math.sqrt(fm.xi) == pytest.approx(
                    lhs, rel=1e-9
                )

    def test_noncompact_raises(self):
        # one dominant inversive distance against small radii drives the
        # auxiliary triangle inequality, and with it Xi, negative
        radii = (0.1, 0.1, 0.1)
        inv = (50.0, 1.1, 1.1)
        assert xi_discriminant(radii, inv) < 0.0
        from hidra.complexes import one_vertex_torus

        surface = one_vertex_torus()
        pk = Packing(np.array([50.0, 1.1, 1.1]), np.full(1, 0.1))
        fm = face_metrics(surface, pk, 0)
        with pytest.raises(NonCompactOrthocircle):
            orthocircle_radius(fm)


class TestSignedCenterDistance:
    def test_symmetric_anchor(self, torus, torus_packing):
        fm = symmetric_face_metrics(torus, torus_packing)
        for slot in range(3):
            h = signed_center_distance(fm, slot)
            assert math.sinh(h) == pytest.approx(1.0 / 3.0, rel=1e-12)
        rho = orthocircle_radius(fm)
        assert abs(h) < rho

    def test_mirror_symmetry(self):
        # swapping the two endpoint radii with the two adjacent sides
        # leaves the distance to the shared edge unchanged
        from hidra.complexes import one_vertex_torus

        surface = one_vertex_torus()
        base = Packing(np.array([1.8, 2.2, 2.2]), np.array([math.atanh(0.55)]))
        fm = face_metrics(surface, base, 0)
        h0 = signed_center_distance(fm, 0)
        # slot 0's endpoints are corners 1 and 2, whose adjacent data are
        # symmetric here (same radii vertex, equal side inversive values)
        assert h0 == pytest.approx(signed_center_distance(fm, 0), rel=1e-12)


class TestLocalDelaunay:
    def test_symmetric_hinge_is_delaunay(self, torus, torus_packing):
        for eid in range(3):
            flag, margin = is_local_delaunay(hinge(torus, eid), torus_packing)
            assert flag
            assert margin > 0.0

    def test_margin_routes_agree_in_sign(self, rng):
        from hidra.checks import random_packing
        from conftest import one_vertex_genus2

        surface = one_vertex_genus2()
        agreements = 0
        for _ in range(30):
            pk = random_packing(
                surface, rng, inv_range=(1.05, 12.0), max_tries=5000
            )
            for eid in range(len(surface.edges)):
                hv = hinge(surface, eid)
                margin = hinge_delaunay_margin(hv, pk)
                hsum = hinge_h_sum(hv, pk)
                if abs(margin) > 1e-10:
                    assert (margin > 0) == (hsum > 0)
                    agreements += 1
        assert agreements > 100

    def test_flip_negates_the_decision(self, rng):
        # a strictly non-Delaunay hinge becomes Delaunay after its flip
        from hidra.checks import random_packing
        from conftest import one_vertex_genus2
        from conftest import flipped

        surface = one_vertex_genus2()
        seen = 0
        while seen < 10:
            pk = random_packing(
                surface, rng, inv_range=(1.05, 12.0), max_tries=5000
            )
            for eid in range(len(surface.edges)):
                margin = hinge_delaunay_margin(hinge(surface, eid), pk)
                if margin < -1e-8:
                    s2, p2, _ = flipped(surface, pk, eid)
                    margin2 = hinge_delaunay_margin(hinge(s2, eid), p2)
                    assert margin2 > -1e-10
                    seen += 1

    def test_noncompact_propagates(self):
        from hidra.complexes import one_vertex_torus

        surface = one_vertex_torus()
        pk = Packing(np.array([50.0, 1.1, 1.1]), np.full(1, 0.1))
        with pytest.raises(NonCompactOrthocircle):
            is_local_delaunay(hinge(surface, 0), pk)


class TestDelaunayCompactnessContainment:
    def test_all_delaunay_implies_all_compact(self, rng):
        # unfiltered random packings: whenever every edge margin is
        # non-negative (the kernel's margins without the compactness
        # gate), every face must have Xi > 0, and Xi > 0 must imply the
        # triangle inequalities on that face
        from conftest import one_vertex_genus2
        from hidra.complexes import one_vertex_torus

        delaunay_states = 0
        for builder in (one_vertex_torus, one_vertex_genus2):
            surface = builder()
            for _ in range(400):
                radii = np.arctanh(rng.uniform(0.05, 0.95, size=surface.vertex_count))
                inv = rng.uniform(1.01, 12.0, size=len(surface.edges))
                pk = Packing(inv, radii)
                margins = SurfaceMetrics(surface, pk).unchecked_margins
                metrics = [
                    face_metrics(surface, pk, f) for f in range(surface.face_count)
                ]
                for fm in metrics:
                    if fm.xi > 0.0:
                        assert triangle_inequalities_hold(fm)
                if min(margins) >= 0.0:
                    delaunay_states += 1
                    for fm in metrics:
                        assert fm.xi > 0.0
        assert delaunay_states > 50


class TestDevelopFaceInDisk:
    def test_symmetric_face(self, torus, torus_packing):
        fm = symmetric_face_metrics(torus, torus_packing)
        centers, radii = develop_face_in_disk(fm)
        assert centers[0] == 0j
        target = acosh_stable(2.0)
        for i in range(3):
            for j in range(i + 1, 3):
                assert disk_distance(centers[i], centers[j]) == pytest.approx(
                    target, abs=1e-10
                )

    def test_orientation_counterclockwise(self, torus, torus_packing):
        fm = symmetric_face_metrics(torus, torus_packing)
        centers, _ = develop_face_in_disk(fm)
        v1 = centers[1] - centers[0]
        v2 = centers[2] - centers[0]
        cross = v1.real * v2.imag - v1.imag * v2.real
        assert cross > 0.0

    def test_random_faces_reproduce_distances(self, rng):
        from hidra.checks import random_packing
        from conftest import one_vertex_genus2

        surface = one_vertex_genus2()
        for _ in range(10):
            pk = random_packing(surface, rng)
            for fid in range(surface.face_count):
                fm = face_metrics(surface, pk, fid)
                centers, _ = develop_face_in_disk(fm)
                for slot in range(3):
                    i, j = (slot + 1) % 3, (slot + 2) % 3
                    expected = acosh_stable(fm.cosh_lengths[slot])
                    assert disk_distance(centers[i], centers[j]) == pytest.approx(
                        expected, abs=1e-10
                    )


class TestValidatePacking:
    def test_accepts_anchor(self, torus, torus_packing):
        validate_packing(torus, torus_packing)

    def test_rejects_bad_inversive(self, torus, torus_packing):
        bad = Packing(np.array([2.0, 0.9, 2.0]), torus_packing.radii)
        with pytest.raises(DomainError):
            validate_packing(torus, bad)

    def test_rejects_bad_radius(self, torus, torus_packing):
        bad = Packing(torus_packing.inv, np.array([-1.0]))
        with pytest.raises(DomainError):
            validate_packing(torus, bad)

    @pytest.mark.parametrize("inv, radii, message", [
        ([2.0, 2.0], [1.0], "inversive distance count does not match edge count"),
        ([2.0, 2.0, 2.0], [1.0, 1.0], "radius count does not match vertex count"),
    ])
    def test_rejects_count_mismatch(self, torus, inv, radii, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            validate_packing(torus, Packing(np.array(inv), np.array(radii)))
