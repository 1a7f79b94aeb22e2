"""Acceptance suite: eight criteria, each printed as one pass/fail line.

Every tolerance is pinned here exactly as stated; nothing is deferred to
runtime calibration.  Run with ``pytest tests/test_acceptance.py -s`` to
see the lines as they complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hidra.checks import (
    PARAMETER_NAMES,
    conformal_roundtrip_check,
    dF_df_discrepancy,
    random_degenerate_hinge,
    random_flip_sequence,
    face_kernel,
    random_packing,
    xi_delta_residual,
    xi_equivalence_check,
)
from hidra.complexes import (
    octahedron_sphere,
    one_vertex_torus,
)
from hidra.flips import make_weighted_delaunay, surface_delaunay_margins
from hidra.geometry import Packing, gauss_bonnet_residual
from hidra.ptolemy import (
    delta_identity_residuals,
    ptolemy_flip_value,
    ptolemy_residual,
    ptolemy_residual_scale,
)
from hidra.solver import (
    curvatures,
    hessian,
    hessian_spectrum_sign,
    newton_solve,
    ricci_flow,
)
from conftest import (
    coo_hessian, face_draws, flipped, hessian_fd, one_vertex_genus2, replay_flips_reversed,
    surfaces_isomorphic,
)
from geometry_oracle import face_metrics, orthocircle_radius


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL "
              f"({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"budget {budget_seconds}s exceeded: {elapsed:.2f}s"


def test_criterion_1_identity_suite():
    with criterion(1, "identity suite", 5.0):
        rng = np.random.default_rng(101)
        for _ in range(10_000):
            a, b, c, d, e = rng.uniform(1.05, 4.0, size=5)
            f = ptolemy_flip_value(a, b, c, d, e)
            rel = abs(ptolemy_residual(a, b, c, d, e, f)) / ptolemy_residual_scale(
                a, b, c, d, e, f
            )
            assert rel <= 1e-9
            r1, r2 = delta_identity_residuals(a, b, c, d, e, f)
            assert r1 <= 1e-9 and r2 <= 1e-9
        assert abs(ptolemy_flip_value(2, 2, 2, 2, 2) - 17.0) <= 1e-12


def test_criterion_2_discriminant_suite():
    with criterion(2, "discriminant suite", 5.0):
        rng = np.random.default_rng(102)
        metrics = face_draws(rng, 10_000, 5.0)
        assert np.all(xi_delta_residual(metrics) <= 1e-9)
        assert np.all(xi_equivalence_check(metrics))
        anchor = face_kernel(np.full((1, 3), math.atanh(0.5)), np.full((1, 3), 2.0))
        assert anchor.xi[0] == pytest.approx(4.0, abs=1e-12)
        surface = one_vertex_torus()
        pk = Packing(np.full(3, 2.0), np.full(1, math.atanh(0.5)))
        rho = orthocircle_radius(face_metrics(surface, pk, 0))
        assert math.sinh(rho) == pytest.approx(0.5, abs=1e-12)


def test_criterion_3_delaunay_suite():
    with criterion(3, "delaunay suite", 30.0):
        rng = np.random.default_rng(103)
        flips_total = 0
        for builder in (one_vertex_torus, one_vertex_genus2):
            surface = builder()
            for _ in range(100):
                pk = random_packing(
                    surface, rng, inv_range=(1.05, 12.0), max_tries=5000
                )
                s2, p2, events = make_weighted_delaunay(surface, pk)
                flips_total += len(events)
                assert min(surface_delaunay_margins(s2, p2)) >= -1e-10
                for fid in range(s2.face_count):
                    assert face_metrics(s2, p2, fid).xi > 0.0
                eid = int(rng.integers(len(s2.edges)))
                s3, p3, _ = flipped(s2, p2, eid)
                _, p4, _ = flipped(s3, p3, eid)
                assert abs(p4.inv[eid] - p2.inv[eid]) / p2.inv[eid] <= 1e-8
        assert flips_total > 0  # the sweep exercised actual surgery


def test_criterion_4_curvature_suite():
    with criterion(4, "curvature suite", 5.0):
        rng = np.random.default_rng(104)
        surface = one_vertex_torus()
        pk = Packing(np.full(3, 2.0), np.full(1, math.atanh(0.5)))
        K, _ = curvatures(surface, pk)
        assert K[0] == pytest.approx(
            2.0 * math.pi - 6.0 * math.acos(2.0 / 3.0), abs=1e-10
        )
        for builder in (one_vertex_torus, one_vertex_genus2, octahedron_sphere):
            s = builder()
            for _ in range(40):
                p = random_packing(s, rng, inv_range=(1.05, 8.0), max_tries=5000)
                assert abs(gauss_bonnet_residual(s, p)) <= 1e-9


def test_criterion_5_hessian_suite():
    with criterion(5, "hessian suite", 60.0):
        rng = np.random.default_rng(105)
        signs = []
        states = []
        for builder in (one_vertex_torus, one_vertex_genus2, octahedron_sphere):
            surface = builder()
            for _ in range(15):
                pk = random_packing(
                    surface, rng, inv_range=(1.05, 10.0), max_tries=5000
                )
                states.append(make_weighted_delaunay(surface, pk)[:2])
        # five states one flip away from a cell wall
        for _ in range(5):
            dh = random_degenerate_hinge(rng)
            radii = np.array(dh.radii)
            radii[0] += 0.01
            pk = Packing(dh.packing.inv.copy(), radii)
            states.append(make_weighted_delaunay(dh.surface, pk)[:2])
        assert len(states) >= 50
        for surface, pk in states:
            H_raw = coo_hessian(surface, pk, symmetrize=False)
            assert np.max(np.abs(H_raw - H_raw.T)) <= 1e-9
            H = hessian(surface, pk)
            F = hessian_fd(surface, pk)
            assert np.all(np.abs(H - F) <= 1e-5 * np.abs(F) + 1e-8)
            signs.append(hessian_spectrum_sign(H))
        assert all(s != 0 for s in signs)
        assert len(set(signs)) == 1  # recorded and constant across the suite
        print(f"  hessian spectrum sign across suite: {signs[0]:+d}")


def test_criterion_6_solver_suite():
    with criterion(6, "solver suite", 120.0):
        torus = one_vertex_torus()
        pk = Packing(np.full(3, 2.0), np.full(1, math.atanh(0.5)))
        target = np.array([1.0])

        newton = newton_solve(torus, pk, target, tol=1e-10)
        assert newton.max_error <= 1e-10

        def curvature_of_radius(r):
            return curvatures(torus, Packing(pk.inv, np.array([r])))[0][0]

        lo, hi = 1e-3, 6.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if curvature_of_radius(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        assert abs(newton.packing.radii[0] - 0.5 * (lo + hi)) <= 1e-8

        flow = ricci_flow(torus, pk, target, dt=0.5, t_max=500.0, tol=1e-9)
        assert flow.status == "converged"
        assert np.max(np.abs(flow.u - newton.u)) <= 1e-6
        pots = [row["potential"] for row in flow.trace]
        assert all(b <= a + 1e-12 for a, b in zip(pots, pots[1:]))

        genus2 = one_vertex_genus2()
        rng = np.random.default_rng(106)
        base = random_packing(genus2, rng)
        finals = []
        for factor in (0.5, 0.75, 1.0, 1.5, 2.0):
            scaled = Packing(base.inv.copy(), base.radii * factor)
            state = newton_solve(genus2, scaled, np.array([-2.0]), tol=1e-12)
            assert state.status == "converged"
            finals.append(state.u.copy())
        for u in finals[1:]:
            assert np.max(np.abs(u - finals[0])) <= 2e-10


def test_criterion_7_flip_boundary_c1_suite():
    with criterion(7, "flip-boundary C1 suite", 30.0):
        rng = np.random.default_rng(107)
        for _ in range(20):
            dh = random_degenerate_hinge(rng)
            params = dh.parameters()
            for name in PARAMETER_NAMES:
                d1 = dF_df_discrepancy(params, name, 1e-4)
                d2 = dF_df_discrepancy(params, name, 5e-5)
                assert d2 <= max(0.75 * d1, 5e-9), (name, d1, d2)
            perturbed = params.copy()
            perturbed[4] += 0.05
            for name in ("p", "q", "r", "s"):
                c1 = dF_df_discrepancy(perturbed, name, 1e-4)
                c2 = dF_df_discrepancy(perturbed, name, 5e-5)
                assert c2 >= 1e-3 and c2 >= 0.5 * c1, (name, c1, c2)


def test_criterion_8_conformal_class_suite():
    with criterion(8, "conformal-class suite", 30.0):
        rng = np.random.default_rng(108)
        for builder in (one_vertex_torus, one_vertex_genus2):
            surface = builder()
            pk = random_packing(surface, rng)
            seq = random_flip_sequence(surface, pk, rng, 50)
            assert len(seq) == 50
            assert conformal_roundtrip_check(surface, pk, seq) <= 1e-8

        genus2 = one_vertex_genus2()
        solved_with_flips = 0
        for _ in range(20):
            pk = random_packing(genus2, rng, inv_range=(1.05, 12.0), max_tries=5000)
            state = newton_solve(genus2, pk, np.array([-2.0]))
            s0, p0 = replay_flips_reversed(
                state.surface, state.packing, state.flip_log
            )
            assert surfaces_isomorphic(s0, genus2)
            assert np.max(np.abs(p0.inv - pk.inv) / pk.inv) <= 1e-8
            if state.flip_log:
                solved_with_flips += 1
        assert solved_with_flips > 0  # reverse replay exercised real flips
