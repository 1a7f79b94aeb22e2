"""Curvature, Hessian, potential, Newton descent and Ricci flow."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse.linalg
from scipy.sparse import csc_array, csr_array
from scipy.sparse.linalg import splu

import hidra
from conftest import (
    checkerboard_packing,
    coo_hessian,
    explicit_flow,
    held_bare,
    hessian_fd,
    one_vertex_genus2,
    replay_flips_reversed,
    ricci_potential,
    surfaces_isomorphic,
    torus_grid,
    two_triangle_sphere,
    unchecked_packing,
)
from hidra import flips, solver
from hidra.checks import random_packing
from hidra.complexes import (
    octahedron_sphere,
    one_vertex_torus,
    tetrahedron_sphere,
)
from hidra.errors import (
    DomainError,
    FlipIllegal,
    FlowStalled,
    MaxIterationsExceeded,
    NonCompactOrthocircle,
    SolverStalled,
    SurgeryDiverged,
    TargetOutOfRange,
)
from hidra.flips import flip_edge, make_weighted_delaunay, surface_delaunay_margins
from hidra.geometry import (
    TOL_DELAUNAY, Packing, SolveState, SurfaceMetrics, _cosh_forms, _domain_bound, _scan_bounds,
    _x_range, r_from_u, u_from_r, validate_packing,
)
from hidra.meshio import load_mesh
from hidra.solver import (
    _factor,
    _hessian_values,
    _integrate,
    curvatures,
    gauss_bonnet_residual,
    hessian,
    hessian_spectrum_sign,
    newton_solve,
    ricci_flow,
    segment_potential,
    validate_target,
)

TORUS_ANCHOR_K = 2.0 * math.pi - 6.0 * math.acos(2.0 / 3.0)


class TestUCoordinates:
    def test_definition_anchor(self):
        r = 2.0 * math.atanh(math.exp(-1.0))
        assert u_from_r([r])[0] == pytest.approx(-1.0, abs=1e-14)

    def test_limits(self):
        assert r_from_u([-20.0])[0] == pytest.approx(0.0, abs=1e-7)
        assert r_from_u([-1e-8])[0] > 9.0  # u -> 0 blows the radius up

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            r_from_u([0.0])
        with pytest.raises(DomainError):
            u_from_r([-0.1])

    @given(st.floats(min_value=-12.0, max_value=-1e-6))
    @settings(max_examples=300)
    def test_companion_identity(self, u):
        # tanh(r(u)) * cosh(u) = 1
        r = r_from_u([u])[0]
        assert math.tanh(r) * math.cosh(u) == pytest.approx(1.0, rel=1e-12)

    @given(st.floats(min_value=1e-4, max_value=12.0))
    @settings(max_examples=300)
    def test_roundtrip(self, r):
        assert r_from_u(u_from_r([r]))[0] == pytest.approx(r, rel=1e-12)

    def test_surgery_state_takes_the_chart_of_its_radii(self, torus, torus_packing):
        # A SolveState given no u takes u_from_r of its radii, bit for
        # bit, and no target, curvature or area; a given u is kept.  The
        # solver binds the names geometry defines.
        state = SolveState(torus, torus_packing)
        assert state.u.tobytes() == u_from_r(torus_packing.radii).tobytes()
        assert (state.target, state.curvature, state.total_area) == (None, None, None)
        assert (state.status, state.iterations, state.flip_log, state.trace) == ("converged", 0, [], [])
        u = np.array([-0.5])
        assert SolveState(torus, torus_packing, u).u is u
        assert (solver.SolveState, solver.u_from_r, solver.r_from_u) == (SolveState, u_from_r, r_from_u)


class TestCurvatures:
    def test_torus_anchor(self, torus, torus_packing):
        K, area = curvatures(torus, torus_packing)
        assert K[0] == pytest.approx(TORUS_ANCHOR_K, abs=1e-10)
        assert area == pytest.approx(TORUS_ANCHOR_K, abs=1e-10)
        assert gauss_bonnet_residual(torus, torus_packing) == pytest.approx(
            0.0, abs=1e-12
        )

    @pytest.mark.parametrize(
        "builder", [one_vertex_torus, one_vertex_genus2, octahedron_sphere]
    )
    def test_gauss_bonnet_random(self, builder, rng):
        surface = builder()
        for _ in range(25):
            pk = random_packing(surface, rng, inv_range=(1.05, 8.0), max_tries=5000)
            assert abs(gauss_bonnet_residual(surface, pk)) <= 1e-9
            K, _ = curvatures(surface, pk)
            assert np.all(K < 2.0 * math.pi)


def curvature_gradient(surface, packing, target):
    """Gradient K(u) - Kbar of the normalized Ricci potential."""
    K, _ = curvatures(surface, packing)
    return K - np.asarray(target, dtype=float)


class TestGradient:
    def test_zero_at_target(self, torus, torus_packing):
        K, _ = curvatures(torus, torus_packing)
        assert np.allclose(curvature_gradient(torus, torus_packing, K), 0.0)

    def test_torus_fixture_value(self, torus, torus_packing):
        g = curvature_gradient(torus, torus_packing, np.array([1.0]))
        assert g[0] == pytest.approx(TORUS_ANCHOR_K - 1.0, abs=1e-12)

    def test_matches_potential_finite_differences(self, octahedron, rng):
        pk = random_packing(octahedron, rng)
        target = np.full(6, 2.4)
        u0 = u_from_r(pk.radii)
        g = curvature_gradient(octahedron, pk, target)
        h = 1e-5
        for i in (0, 3):
            up = u0.copy()
            dn = u0.copy()
            up[i] += h
            dn[i] -= h
            ep = ricci_potential(
                octahedron, Packing(pk.inv, r_from_u(up)), target, u0
            )
            en = ricci_potential(
                octahedron, Packing(pk.inv, r_from_u(dn)), target, u0
            )
            assert (ep - en) / (2 * h) == pytest.approx(g[i], abs=1e-6)


class TestHessian:
    def test_symmetry_before_averaging(self, octahedron, rng):
        for _ in range(10):
            pk = random_packing(octahedron, rng)
            H = coo_hessian(octahedron, pk, symmetrize=False)
            assert np.max(np.abs(H - H.T)) <= 1e-9

    def test_matches_finite_differences(self, rng):
        for builder in (one_vertex_torus, one_vertex_genus2, octahedron_sphere):
            surface = builder()
            for _ in range(5):
                pk = random_packing(surface, rng, inv_range=(1.05, 8.0), max_tries=5000)
                surface2, pk2, _ = make_weighted_delaunay(surface, pk)
                H = hessian(surface2, pk2)
                F = hessian_fd(surface2, pk2)
                assert np.max(np.abs(H - F)) <= 1e-5 * max(1.0, np.max(np.abs(F)))

    def test_torus_scalar_positive(self, torus, torus_packing):
        H = hessian(torus, torus_packing)
        assert H.shape == (1, 1)
        assert H[0, 0] > 0.0

    def test_sparsity_on_octahedron(self, octahedron, rng):
        pk = random_packing(octahedron, rng)
        H = hessian(octahedron, pk)
        for i, j in ((0, 5), (1, 3), (2, 4)):
            assert H[i, j] == 0.0
            assert H[j, i] == 0.0

    def test_single_signed_spectrum(self, octahedron, rng):
        signs = set()
        for _ in range(10):
            pk = random_packing(octahedron, rng)
            signs.add(hessian_spectrum_sign(hessian(octahedron, pk)))
        assert signs == {1}


PATTERN_SURFACES = {
    "torus1": one_vertex_torus,
    "genus2": one_vertex_genus2,
    "octahedron": octahedron_sphere,
    "tetrahedron": tetrahedron_sphere,
    "sphere2": two_triangle_sphere,
    "grid4": lambda: torus_grid(4),
    "grid6": lambda: torus_grid(6),
}


@given(
    name=st.sampled_from(sorted(PATTERN_SURFACES)),
    seed=st.integers(0, 2**32 - 1),
    flips=st.sampled_from([0, 1, 5, 20]),
)
@settings(max_examples=120, deadline=None)
def test_cached_pattern_matches_coo_oracle(name, seed, flips):
    """The Hessian summed into the surface's cached pattern against the
    COO assembly, after a random chain of flips: the oracle's canonical
    indptr and indices, and its values to 1e-14 of the matrix scale."""
    rng = np.random.default_rng(seed)
    surface = PATTERN_SURFACES[name]()
    for _ in range(flips):
        held = held_bare(surface)
        try:
            flip_edge(held, int(rng.integers(surface.edge_count)))
        except FlipIllegal:
            continue
        surface = held.freeze()[0]
    packing = unchecked_packing(surface, rng, (0.5, 0.8), (1.05, 1.5))
    try:
        oracle = coo_hessian(surface, packing)
    except DomainError as exc:
        with pytest.raises(type(exc)):
            hessian(surface, packing)
        return
    H = hessian(surface, packing)
    assert oracle.has_canonical_format
    assert np.array_equal(H.indptr, oracle.indptr)
    assert np.array_equal(H.indices, oracle.indices)
    scale = np.max(np.abs(oracle.data))
    assert np.max(np.abs(H.data - oracle.data)) <= 1e-14 * scale


def dense_spectrum_sign(H):
    """The dense oracle: +1 / -1 when every eigenvalue by eigvalsh has
    that sign, else 0."""
    eigs = np.linalg.eigvalsh(np.asarray(H))
    return 1 if np.all(eigs > 0.0) else -1 if np.all(eigs < 0.0) else 0


SIGN_SURFACES = {
    "torus1": one_vertex_torus,
    "genus2": one_vertex_genus2,
    "octahedron": octahedron_sphere,
    "grid6": lambda: torus_grid(6),
}


class TestSpectrumSign:
    """The sign read from the symmetric factor's pivots against the
    dense oracle, on Hessians of random packings and on indefinite and
    singular matrices built from them."""

    @given(st.sampled_from(sorted(SIGN_SURFACES)), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_matches_dense_oracle(self, name, seed):
        surface = SIGN_SURFACES[name]()
        rng = np.random.default_rng(seed)
        H = hessian(surface, random_packing(surface, rng, max_tries=5000)).toarray()
        n = len(H)
        eigs = np.linalg.eigvalsh(H)
        zero = np.zeros_like(H)
        cases = [H, -H, np.block([[zero, H], [H, zero]])]  # the last: zero diagonal
        if n > 1:  # shift between two adjacent eigenvalues: indefinite
            k = int(rng.integers(1, n))
            cases.append(H - 0.5 * (eigs[k - 1] + eigs[k]) * np.eye(n))
        for M in cases:
            lam = np.abs(np.linalg.eigvalsh(M))
            if lam.min() >= 1e-8 * lam.max():
                expected = dense_spectrum_sign(M)
                assert hessian_spectrum_sign(csr_array(M)) == expected
                assert hessian_spectrum_sign(M) == expected  # dense input
        singular = H.copy()
        j = int(rng.integers(n))
        singular[j, :] = singular[:, j] = 0.0
        assert hessian_spectrum_sign(csr_array(singular)) == 0
        assert hessian_spectrum_sign(singular) == 0

    @pytest.mark.parametrize("name", sorted(SIGN_SURFACES))
    def test_newton_step_from_the_symmetric_factor(self, name, rng):
        surface = SIGN_SURFACES[name]()
        for _ in range(5):
            pk = random_packing(surface, rng, max_tries=5000)
            H = hessian(surface, pk)
            K, _ = curvatures(surface, pk)
            rhs = K - rng.uniform(-1.0, 1.0, len(K))
            delta = _factor(H).solve(-rhs)
            assert np.linalg.norm(H @ delta + rhs) <= 1e-12 * np.linalg.norm(rhs)


class TestFactorPlan:
    """A _Plan's numeric-only factor against a fresh minimum-degree
    analysis, on matrices that share a Hessian's pattern: the plan is
    made by the Hessian of one packing and refactors matrices built from
    another's."""

    @staticmethod
    def cases(surface, rng):
        """(first, matrices): the matrix that makes the plan and those it
        refactors, for the Hessian pattern and for the zero-diagonal block
        pattern [[0, H], [H, 0]]; the last on the Hessian pattern is
        exactly singular."""
        H0, H1 = (hessian(surface, random_packing(surface, rng, max_tries=5000)) for _ in range(2))
        n = H1.shape[0]
        diagonal = H1.indices == np.repeat(np.arange(n), np.diff(H1.indptr))
        values = [H1.data, -H1.data]
        if n > 1:  # shift between two adjacent eigenvalues: indefinite
            eigs = np.linalg.eigvalsh(H1.toarray())
            k = int(rng.integers(1, n))
            values.append(H1.data - 0.5 * (eigs[k - 1] + eigs[k]) * diagonal)
        j = int(rng.integers(n))
        column = np.repeat(np.arange(n), np.diff(H1.indptr))
        values.append(np.where((H1.indices == j) | (column == j), 0.0, H1.data))  # the pattern kept
        on_pattern = [csc_array((data, H1.indices, H1.indptr), shape=H1.shape) for data in values]
        block = [scipy.sparse.block_array([[None, H], [H, None]], format="csc") for H in (H0, H1)]
        return [(H0, on_pattern[:-1], on_pattern[-1]), (block[0], block[1:], None)]

    @given(st.sampled_from(["genus2", "octahedron", "grid6"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_a_fresh_analysis(self, name, seed):
        surface = SIGN_SURFACES[name]()
        rng = np.random.default_rng(seed)
        for first, matrices, singular in self.cases(surface, rng):
            plan = solver._Plan()
            _factor(first, plan)
            if singular is not None:
                assert _factor(singular, plan) is None and _factor(singular) is None
                assert hessian_spectrum_sign(singular, plan) == hessian_spectrum_sign(singular) == 0
            for M in matrices:
                sign = hessian_spectrum_sign(M, plan)
                assert sign == hessian_spectrum_sign(M)  # a fresh analysis
                lam = np.abs(np.linalg.eigvalsh(M.toarray()))
                if lam.min() >= 1e-8 * lam.max():
                    assert sign == dense_spectrum_sign(M.toarray())
                b = rng.standard_normal(M.shape[0])
                x = _factor(M, plan).solve(b)
                assert np.linalg.norm(M @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_a_factor_outlives_the_next(self, rng):
        # A factor holds its own L and U: the next factorization on the
        # plan overwrites the plan's matrix, not an earlier solve.
        surface = torus_grid(6)
        H0, H1, H2 = (hessian(surface, random_packing(surface, rng, max_tries=5000)) for _ in range(3))
        plan = solver._Plan()
        _factor(H0, plan)
        factor = _factor(H1, plan)
        b = rng.standard_normal(36)
        x = factor.solve(b)
        values = plan.matrix.data.copy()
        _factor(H2, plan)
        assert not np.array_equal(plan.matrix.data, values)
        assert factor.solve(b).tobytes() == x.tobytes()
        assert np.linalg.norm(H1 @ x - b) <= 1e-12 * np.linalg.norm(b)


class TestPotential:
    def test_zero_at_reference(self, torus, torus_packing):
        u0 = u_from_r(torus_packing.radii)
        assert ricci_potential(torus, torus_packing, np.array([1.0]), u0) == 0.0

    def test_path_independence(self, genus2, rng):
        pk = random_packing(genus2, rng)
        target = np.array([0.0])
        u0 = u_from_r(pk.radii)
        u1 = u0 - 0.3
        um = u0 - np.array([0.45])  # bent two-leg path via an overshoot
        direct, *_ = segment_potential(genus2, pk, target, u0, u1)
        leg1, surf_m, pk_m, *_ = segment_potential(genus2, pk, target, u0, um)
        leg2, *_ = segment_potential(surf_m, pk_m, target, um, u1)
        assert leg1 + leg2 == pytest.approx(direct, abs=1e-7)

    def test_midpoint_convexity(self, torus, torus_packing, rng):
        target = np.array([1.0])
        u0 = u_from_r(torus_packing.radii)
        for _ in range(5):
            d = rng.uniform(0.2, 0.8)
            ua, ub = u0 - d, u0 + d * 0.5
            um = 0.5 * (ua + ub)
            def value(u):
                return ricci_potential(
                    torus, Packing(torus_packing.inv, r_from_u(u)), target, u0
                )
            assert value(um) < 0.5 * (value(ua) + value(ub))


class TestValidateTarget:
    def test_torus_accepts_one(self, torus):
        validate_target(torus, np.array([1.0]))

    def test_torus_rejects_zero_sum(self, torus):
        with pytest.raises(TargetOutOfRange):
            validate_target(torus, np.array([0.0]))

    def test_rejects_component_at_two_pi(self, torus):
        with pytest.raises(TargetOutOfRange):
            validate_target(torus, np.array([2.0 * math.pi]))

    @pytest.mark.parametrize("target, message", [
        ([1.0, 1.0], "target length does not match vertex count"),
        ([math.nan], "target curvature must be finite"),
        ([-math.inf], "target curvature must be finite"),
    ])
    def test_rejects_malformed_target(self, torus, target, message):
        with pytest.raises(TargetOutOfRange, match=f"^{message}$"):
            validate_target(torus, np.array(target))

    def test_genus2_near_lower_bound(self, genus2):
        validate_target(genus2, np.array([-4.0 * math.pi + 1e-6]))
        with pytest.raises(TargetOutOfRange):
            validate_target(genus2, np.array([-4.0 * math.pi]))


class TestNewtonSolve:
    def test_torus_anchor_vs_bisection(self, torus, torus_packing):
        state = newton_solve(torus, torus_packing, np.array([1.0]))
        assert state.status == "converged"
        assert state.max_error <= 1e-10

        def curvature_of_radius(r):
            return curvatures(torus, Packing(torus_packing.inv, np.array([r])))[0][0]

        lo, hi = 1e-3, 6.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if curvature_of_radius(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        assert state.packing.radii[0] == pytest.approx(0.5 * (lo + hi), abs=1e-8)

    def test_fixed_point_needs_no_iterations(self, torus, torus_packing):
        K, _ = curvatures(torus, torus_packing)
        state = newton_solve(torus, torus_packing, K)
        assert state.status == "converged"
        assert state.iterations == 0
        capped = newton_solve(torus, torus_packing, K, max_iterations=0)
        assert (capped.status, capped.iterations) == ("converged", 0)

    def test_negative_max_iterations_is_a_domain_error(self, torus, torus_packing):
        with pytest.raises(DomainError, match="max_iterations = -2"):
            newton_solve(torus, torus_packing, np.array([1.0]), max_iterations=-2)

    @pytest.mark.parametrize("run", [newton_solve, ricci_flow])
    @pytest.mark.parametrize("setting", [
        dict(tol=-1.0), dict(tol=math.nan), dict(tol_delaunay=math.nan), dict(flip_budget=-1),
        dict(max_iterations=math.nan),
    ], ids=["tol-negative", "tol-nan", "tol_delaunay-nan", "flip_budget-negative", "max_iterations-nan"])
    def test_bad_settings_are_domain_errors(self, torus, torus_packing, run, setting):
        # Before these were rejected, a NaN or negative tol ran to a
        # line-search underflow or to the step cap, a NaN Delaunay
        # tolerance to a flip-budget overrun, and a negative flip budget
        # was never read on a flip-free run; a NaN max_iterations ran as
        # if there were no cap.
        (key, value), = setting.items()
        with pytest.raises(DomainError, match=f"^{key} = {value} "):
            run(torus, torus_packing, np.array([1.0]), **setting)

    @pytest.mark.parametrize("run", [newton_solve, ricci_flow])
    def test_radius_the_u_chart_cannot_hold_is_a_domain_error(self, torus, run):
        # At r = 38, tanh(r/2) rounds to 1 and u = log tanh(r/2) to 0: the
        # packing is valid, but the run's own start has no radius.  The
        # error names the vertex and its radius, not a face of the walk.
        packing = Packing(np.full(3, 2.0), np.array([38.0]))
        validate_packing(torus, packing)
        with pytest.raises(DomainError, match=r"^vertex 0 has radius 38\.0, where u = "):
            run(torus, packing, np.array([1.0]))

    def test_last_iterate_is_tested_before_max_iterations(self):
        # The genus-2 fixture converges at its fifth step: a cap of five
        # steps takes them all and tests the point the fifth step reached.
        surface, packing, target, _ = load_mesh(
            str(Path(hidra.__file__).parent / "fixtures" / "genus2.json")
        )
        free = newton_solve(surface, packing, target)
        assert (free.status, free.iterations) == ("converged", 5)
        capped = newton_solve(surface, packing, target, max_iterations=5)
        assert (capped.status, capped.iterations) == ("converged", 5)
        assert capped.u.tobytes() == free.u.tobytes()
        assert capped.trace == free.trace and capped.hessian_sign == 1
        with pytest.raises(MaxIterationsExceeded, match="within 4 Newton") as info:
            newton_solve(surface, packing, target, max_iterations=4)
        state = info.value.state
        assert (state.status, state.iterations, len(state.trace)) == ("max_iterations", 4, 4)
        assert state.trace == free.trace[:4] and state.hessian_sign == 1
        assert state.max_error > 1e-10

    def test_rejected_trials_halve_until_the_line_search_underflows(self, octahedron):
        # With walls left unflipped (a Delaunay tolerance beyond every
        # margin), the seed-16 octahedron's first full step meets a face
        # with Xi <= 0, so the trial is rejected and halved; later steps
        # shrink until the step falls below MIN_LINE_SEARCH_STEP.
        packing = random_packing(
            octahedron, np.random.default_rng(16), inv_range=(1.05, 12.0), max_tries=5000
        )
        surface, packing, _ = make_weighted_delaunay(octahedron, packing)
        with pytest.raises(SolverStalled, match="line search step underflow") as info:
            newton_solve(surface, packing, np.full(6, 5.0), tol_delaunay=100.0)
        state = info.value.state
        assert (state.status, state.iterations, len(state.trace)) == ("stalled", 25, 24)
        assert state.trace[0]["step"] == 0.5 and state.flip_log == []
        steps = [row["step"] for row in state.trace]
        assert all(step == 2.0 ** round(math.log2(step)) < 1.0 for step in steps)
        assert state.max_error == state.trace[-1]["max_error"] and state.hessian_sign == 1

    @pytest.mark.parametrize("exit", ["converged", "max_iterations", "stalled", "flipped"])
    def test_every_exit_sign_comes_from_the_public_reader(self, octahedron, monkeypatch, exit):
        # Each exit reads its Hessian's spectrum sign through one
        # hessian_spectrum_sign call.  Each point factors its H once, for
        # a step or for the exit's sign, and a line-search stall factors
        # its H once more for the sign: iterations + 1 factorizations.
        # Of these, the first on each triangulation is its one
        # minimum-degree analysis, the rest refactor on its plan: the
        # seed-6 octahedron flips in its first step, and the new
        # triangulation is analysed afresh.
        if exit in ("stalled", "flipped"):  # the seed-16 octahedron of the test above
            seed = 16 if exit == "stalled" else 6
            packing = random_packing(
                octahedron, np.random.default_rng(seed), inv_range=(1.05, 12.0), max_tries=5000
            )
            surface, packing, _ = make_weighted_delaunay(octahedron, packing)
            args = (surface, packing, np.full(6, 5.0))
            settings = dict(tol_delaunay=100.0) if exit == "stalled" else {}
        else:
            args = load_mesh(str(Path(hidra.__file__).parent / "fixtures" / "genus2.json"))[:3]
            settings = dict(max_iterations=4) if exit == "max_iterations" else {}
        calls = {"sign": 0, "factor": 0, "MMD_AT_PLUS_A": 0, "NATURAL": 0}

        def counted(name, func):
            def wrapper(H, plan=None):
                calls[name] += 1
                return func(H, plan)
            return wrapper

        def counted_splu(A, permc_spec, **options):
            calls[permc_spec] += 1
            return splu(A, permc_spec, **options)

        monkeypatch.setattr(solver, "hessian_spectrum_sign", counted("sign", hessian_spectrum_sign))
        monkeypatch.setattr(solver, "_factor", counted("factor", _factor))
        monkeypatch.setattr(scipy.sparse.linalg, "splu", counted_splu)
        try:
            state = newton_solve(*args, **settings)
        except (MaxIterationsExceeded, SolverStalled) as exc:
            state = exc.state
        monkeypatch.undo()
        assert state.status == ("converged" if exit == "flipped" else exit)
        triangulations = 1 + sum(row["flips"] > 0 for row in state.trace)
        assert triangulations == (2 if exit == "flipped" else 1)
        assert calls == {
            "sign": 1, "factor": state.iterations + 1, "MMD_AT_PLUS_A": triangulations,
            "NATURAL": state.iterations + 1 - triangulations,
        }
        assert state.hessian_sign == hessian_spectrum_sign(hessian(state.surface, state.packing)) == 1

    def test_genus2_uniqueness_under_radius_scaling(self, genus2, rng):
        base = random_packing(genus2, rng)
        target = np.array([-2.0])
        finals = []
        for factor in (0.5, 0.75, 1.0, 1.5, 2.0):
            pk = Packing(base.inv.copy(), base.radii * factor)
            state = newton_solve(genus2, pk, target, tol=1e-12)
            assert state.status == "converged"
            finals.append(state.u.copy())
        for u in finals[1:]:
            assert np.max(np.abs(u - finals[0])) <= 2e-10

    def test_near_admissibility_boundaries(self, genus2, rng):
        # targets just inside the allowed range still converge; the
        # radii run toward 0 (near the sum bound) or infinity (near 2pi)
        pk = random_packing(genus2, rng)
        low = newton_solve(genus2, pk, np.array([-12.56]), max_iterations=200)
        assert low.status == "converged"
        assert low.packing.radii[0] < 0.05
        high = newton_solve(genus2, pk, np.array([6.283]), max_iterations=200)
        assert high.status == "converged"
        assert high.packing.radii[0] > 10.0

    def test_octahedron_mixed_target(self, octahedron, rng):
        pk = random_packing(octahedron, rng)
        target = np.array([2.8, 2.2, 2.4, 2.6, 2.0, 3.0])
        state = newton_solve(octahedron, pk, target)
        assert state.status == "converged"
        assert state.max_error <= 1e-10
        assert state.hessian_sign == 1

    def test_singular_hessian_stalls_with_state(self, octahedron, rng, monkeypatch):
        pk = random_packing(octahedron, rng)
        monkeypatch.setattr(solver, "_hessian_values", singular_hessian_values)
        with pytest.raises(SolverStalled) as info:
            newton_solve(octahedron, pk, np.full(6, 2.5))
        state = info.value.state
        assert state.status == "stalled"
        assert state.iterations == 1
        assert state.hessian_sign == 0
        assert np.array_equal(state.packing.radii, pk.radii)


    def test_one_kernel_per_point(self, monkeypatch):
        """An untracked, flip-free solve evaluates the array kernel once
        per point: the start, then each line-search trial, which also
        serves the accepted curvature, the margin scan and the next
        Hessian.  Tracked, every kernel after the start is a quadrature
        batch, and the first batch of each trial's segment carries the
        trial point as one more row: no trial builds a kernel of its own."""
        surface = torus_grid(4)
        packing = random_packing(
            surface, np.random.default_rng(5), (0.5, 0.8), (1.05, 1.5), max_tries=5000
        )
        built = []
        init = SurfaceMetrics.__init__

        def counted(self, *args, **kwargs):
            built.append(args[1])
            init(self, *args, **kwargs)

        monkeypatch.setattr(SurfaceMetrics, "__init__", counted)
        state = newton_solve(
            surface, packing, np.full(16, 0.5), tol=1e-13, track_potential=False
        )
        assert state.status == "converged" and state.iterations >= 4
        assert state.flip_log == []
        trials = sum(1 + round(-math.log2(row["step"])) for row in state.trace)
        assert len(built) == 1 + trials
        assert built[0] is packing

        built.clear()
        tracked = newton_solve(surface, packing, np.full(16, 0.5), tol=1e-13)
        assert tracked.status == "converged" and tracked.iterations >= 4
        assert tracked.flip_log == []
        trials = sum(1 + round(-math.log2(row["step"])) for row in tracked.trace)
        batches = [len(pk.radii) for pk in built[1:] if pk.radii.ndim == 2]
        assert built[0] is packing and len(batches) == len(built) - 1
        assert [rows % len(solver.KRONROD_NODES) for rows in batches].count(1) == trials
        assert all(rows % len(solver.KRONROD_NODES) in (0, 1) for rows in batches)

    def test_every_step_walks_its_segment(self, monkeypatch):
        """The start and each step of an untracked solve go through
        ``segment_potential``, the one walk, with no target to integrate."""
        surface = torus_grid(4)
        packing = random_packing(
            surface, np.random.default_rng(5), (0.5, 0.8), (1.05, 1.5), max_tries=5000
        )
        targets = []
        walk = solver.segment_potential

        def counted(*args, **kwargs):
            targets.append(args[2])
            return walk(*args, **kwargs)

        monkeypatch.setattr(solver, "segment_potential", counted)
        state = newton_solve(
            surface, packing, np.full(16, 0.5), tol=1e-13, track_potential=False
        )
        assert state.status == "converged" and state.iterations >= 4
        assert len(targets) == 1 + state.iterations
        assert all(target is None for target in targets)

    def test_non_compact_start_raises_with_the_input(self, octahedron):
        packing = unchecked_packing(
            octahedron, np.random.default_rng(0), inv_range=(1.05, 12.0)
        )
        K, area = curvatures(octahedron, packing)
        for run in (newton_solve, ricci_flow):
            with pytest.raises(SurgeryDiverged, match="face 5 has Xi") as info:
                run(octahedron, packing, np.full(6, 5.0))
            state = info.value.state
            assert state.surface is octahedron and state.packing is packing
            assert np.array_equal(state.u, u_from_r(packing.radii))
            assert np.array_equal(state.curvature, K) and state.total_area == area
            assert (state.status, state.iterations) == ("surgery_diverged", 0)
            assert state.flip_log == [] and state.trace == []


def singular_hessian_values(surface, metrics):
    """The Hessian's values with the first vertex's row and column zeroed."""
    indptr, indices, _ = surface.hessian_pattern
    column = np.repeat(np.arange(surface.vertex_count), np.diff(indptr))
    return np.where((indices == 0) | (column == 0), 0.0, _hessian_values(surface, metrics))


def tetra_wall():
    """A tetrahedron packing next to a degenerate hinge, and a target
    whose solution lies across that wall."""
    from hidra.checks import degenerate_hinge

    dh = degenerate_hinge(0.6, [0.35, 0.5, 0.45, 0.4], (0.2, 1.5, 3.2, 4.8))
    r = np.array(dh.radii)
    start = Packing(dh.packing.inv.copy(), r + np.array([-0.02, 0, 0, 0]))
    other = Packing(dh.packing.inv.copy(), r + np.array([+0.04, 0, 0, 0]))
    target, _ = curvatures(dh.surface, other)
    return dh.surface, start, target


def flow_case(name):
    """(surface, packing, target): a fixture, the tetrahedron across a
    wall, or the seed-6 octahedron, which crosses walls mid-flow."""
    if name == "tetra_wall":
        return tetra_wall()
    if name == "octahedron6":
        surface = octahedron_sphere()
        packing = random_packing(
            surface, np.random.default_rng(6), inv_range=(1.05, 12.0), max_tries=5000
        )
        return surface, packing, np.full(6, 5.0)
    surface, packing, target, _ = load_mesh(
        str(Path(hidra.__file__).parent / "fixtures" / f"{name}.json")
    )
    return surface, packing, np.ones(1) if target is None else target


class TestRicciFlow:
    def test_start_at_solution_is_stationary(self, torus, torus_packing):
        solved = newton_solve(torus, torus_packing, np.array([1.0]))
        state = ricci_flow(
            solved.surface, solved.packing, np.array([1.0]), dt=0.5, t_max=50.0
        )
        assert state.status == "converged"
        assert state.iterations == 0

    def test_agrees_with_newton(self, torus, torus_packing):
        target = np.array([1.0])
        newton = newton_solve(torus, torus_packing, target)
        flow = ricci_flow(
            torus, torus_packing, target, dt=0.5, t_max=500.0, tol=1e-9
        )
        assert flow.status == "converged"
        assert np.max(np.abs(flow.u - newton.u)) <= 1e-6

    @pytest.mark.parametrize("t_max", [math.nan, -1.0])
    def test_bad_time_bound_is_a_domain_error(self, torus, torus_packing, t_max):
        # A NaN bound never stopped the flow and a negative one stopped it
        # after 0 steps, both reported as max_iterations.
        with pytest.raises(DomainError, match=f"^t_max = {t_max} "):
            ricci_flow(torus, torus_packing, np.array([1.0]), t_max=t_max, max_iterations=3)

    def test_potential_nonincreasing(self, genus2, rng):
        pk = random_packing(genus2, rng)
        state = ricci_flow(genus2, pk, np.array([0.0]), dt=0.4, t_max=300.0, tol=1e-8)
        assert state.status == "converged"
        pots = [row["potential"] for row in state.trace]
        assert all(b <= a + 1e-12 for a, b in zip(pots, pots[1:]))

    def test_step_that_raises_halves_dt(self):
        # The implicit first trial raised in none of a seeded search's
        # 2,600 starts (each at up to eight dt) at the default Delaunay
        # tolerance.  With walls left
        # unflipped (a tolerance beyond every margin), 3x3 torus grids
        # (seeds 0-39, targets uniform in (-3, 6), dt 0.2-10) give this
        # one: the first trial at dt = 1 meets a face with Xi <= 0, so the
        # flow halves dt and goes on exactly as a flow started at dt = 0.5.
        rng = np.random.default_rng(1)
        grid = torus_grid(3)
        packing = random_packing(grid, rng, inv_range=(1.05, 12.0), max_tries=5000)
        target = rng.uniform(-3.0, 6.0, 9)
        surface, start, _ = make_weighted_delaunay(grid, packing)
        u = u_from_r(start.radii)
        K, _ = curvatures(surface, start)
        H = hessian(surface, start)
        H.setdiag(H.diagonal() + 1.0)
        u_try = solver._clamped_step(u, _factor(H).solve(target - K))
        with pytest.raises(NonCompactOrthocircle):
            segment_potential(surface, start, target, u, u_try, tol_delaunay=100.0)
        flow = ricci_flow(surface, start, target, dt=1.0, tol_delaunay=100.0)
        half = ricci_flow(surface, start, target, dt=0.5, tol_delaunay=100.0)
        assert flow.status == "converged"
        assert flow.trace == half.trace and flow.trace[0]["dt"] < 1.0
        assert flow.u.tobytes() == half.u.tobytes()

    def test_stall_carries_the_flow_so_far(self):
        # At tol = 0 the flow runs on into rounding noise, where its steps
        # stop moving u or lowering the potential, so dt halves below
        # MIN_FLOW_DT.  This grid flips at the start and in step 1.
        grid = torus_grid(4)
        packing = checkerboard_packing(grid, 4, np.random.default_rng(2))
        _, _, entry = make_weighted_delaunay(grid, packing)
        with pytest.raises(FlowStalled, match="^flow step size underflow$") as raised:
            ricci_flow(grid, packing, np.full(16, 0.5), tol=0.0)
        state = raised.value.state
        assert state.status == "stalled" and state.max_error <= 1e-12
        assert state.iterations == len(state.trace) > 1
        assert [row["step"] for row in state.trace] == list(range(1, state.iterations + 1))
        assert state.flip_log[:len(entry)] == entry and len(state.flip_log) > len(entry)
        steps, flips = [ev.iteration for ev in state.flip_log[len(entry):]], [
            row["flips"] for row in state.trace]
        assert flips == [steps.count(row["step"]) for row in state.trace] and sum(flips) == len(steps)
        pots = [row["potential"] for row in state.trace]
        assert pots[-1] == state.potential and all(b <= a for a, b in zip(pots, pots[1:]))

    def test_singular_shifted_matrix_halves_dt(self, monkeypatch):
        # An exactly singular I/dt + H fails its trial like a step that
        # does not lower the potential: once at dt = 0.5, the flow is the
        # one started at dt = 0.25, whose first factorization still
        # analyses the pattern.
        surface, packing, target = flow_case("octahedron6")
        want = ricci_flow(surface, packing, target, dt=0.25)
        calls = []

        def singular_once(H, plan=None):
            calls.append(H.shape)
            return None if len(calls) == 1 else _factor(H, plan)

        monkeypatch.setattr(solver, "_factor", singular_once)
        got = ricci_flow(surface, packing, target, dt=0.5)
        assert got.status == want.status == "converged" and got.trace[0]["dt"] == 0.25
        assert got.trace == want.trace and got.flip_log == want.flip_log
        assert got.u.tobytes() == want.u.tobytes() and got.hessian_sign == want.hessian_sign == 1

    def test_singular_shifted_matrices_stall_with_state(self, monkeypatch):
        surface, packing, target = flow_case("genus2")
        factored = []
        monkeypatch.setattr(solver, "_factor", lambda H, plan=None: factored.append(1))
        with pytest.raises(FlowStalled, match="^flow step size underflow$") as raised:
            ricci_flow(surface, packing, target)
        state = raised.value.state
        assert (state.status, state.iterations, state.hessian_sign) == ("stalled", 0, 0)
        assert state.trace == [] and np.array_equal(state.packing.radii, packing.radii)
        # dt halves from its default until it falls below MIN_FLOW_DT.
        assert len(factored) == math.ceil(math.log2(solver.DEFAULT_FLOW_DT / solver.MIN_FLOW_DT))

    @pytest.mark.parametrize("name", ["torus1", "genus2", "tetra_wall", "octahedron6"])
    def test_ends_where_the_explicit_flow_ends(self, name):
        """The linearly implicit flow reaches the explicit reference's end
        in fewer steps, and its flip log replays to the input."""
        surface, packing, target = flow_case(name)
        state = ricci_flow(surface, packing, target)
        reference = explicit_flow(surface, packing, target)
        assert state.status == reference.status == "converged"
        assert state.iterations < reference.iterations
        assert np.max(np.abs(state.u - reference.u)) <= 1e-6
        assert abs(state.potential - reference.potential) <= 1e-9
        s0, p0 = replay_flips_reversed(state.surface, state.packing, state.flip_log)
        assert surfaces_isomorphic(s0, surface)
        assert np.max(np.abs(p0.inv - packing.inv) / packing.inv) <= 1e-8

    def test_each_triangulation_is_analysed_once(self, octahedron, monkeypatch):
        # The seed-6 octahedron's flow flips in steps 1 and 2.  Every
        # factorization, of each trial's H + I/dt and of the exit's H, on
        # one triangulation shares its one minimum-degree analysis; each
        # step that flips starts a new one.
        packing = random_packing(
            octahedron, np.random.default_rng(6), inv_range=(1.05, 12.0), max_tries=5000
        )
        calls = {"MMD_AT_PLUS_A": 0, "NATURAL": 0}

        def counted_splu(A, permc_spec, **options):
            calls[permc_spec] += 1
            return splu(A, permc_spec, **options)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counted_splu)
        state = ricci_flow(octahedron, packing, np.full(6, 5.0))
        monkeypatch.undo()
        assert state.status == "converged" and state.hessian_sign == 1
        assert [row["flips"] > 0 for row in state.trace][:3] == [True, True, False]
        assert calls["MMD_AT_PLUS_A"] == 1 + sum(row["flips"] > 0 for row in state.trace) == 3
        assert calls["NATURAL"] >= state.iterations + 1 - 3

    def test_time_budget_reports_max_iterations(self, torus, torus_packing):
        state = ricci_flow(
            torus, torus_packing, np.array([1.0]), dt=0.01, t_max=0.05, tol=1e-14
        )
        assert state.status == "max_iterations"


class TestRunOverruns:
    """A flip-budget overrun, at the start or in a step, reports the
    run's target and the curvature where the flips stopped."""

    # Octahedra that flip once at the start and at least twice in one
    # step: seed 6 in Newton's first step; seed 359, found by a seeded
    # search over seeds 0-399, in the flow's first (the flow's steps from
    # seed 6 flip once each).
    SEEDS = {newton_solve: 6, ricci_flow: 359}

    @pytest.mark.parametrize("run", [newton_solve, ricci_flow])
    @pytest.mark.parametrize("budget, iterations", [(0, []), (1, [0, 1])])
    def test_overrun_state(self, octahedron, run, budget, iterations):
        # A budget of 0 overruns at the start, 1 in step 1.
        packing = random_packing(
            octahedron, np.random.default_rng(self.SEEDS[run]), inv_range=(1.05, 12.0),
            max_tries=5000,
        )
        target = np.full(6, 5.0)
        with pytest.raises(SurgeryDiverged, match="flip budget") as info:
            run(octahedron, packing, target, flip_budget=budget)
        state = info.value.state
        assert state.target is target and state.status == "surgery_diverged"
        assert [event.iteration for event in state.flip_log] == iterations
        K, area = curvatures(state.surface, state.packing)
        assert np.array_equal(state.curvature, K) and state.total_area == area
        assert isinstance(state.max_error, float) and math.isfinite(state.max_error)

    @pytest.mark.parametrize("run", [newton_solve, ricci_flow])
    def test_overrun_names_the_budget_set(self, octahedron, run):
        # The budget of one covers the start's flip, and step 1's segment
        # overruns it at its second flip: the message names the one.
        packing = random_packing(
            octahedron, np.random.default_rng(self.SEEDS[run]), inv_range=(1.05, 12.0),
            max_tries=5000,
        )
        with pytest.raises(SurgeryDiverged) as info:
            run(octahedron, packing, np.full(6, 5.0), flip_budget=1)
        assert str(info.value) == "exceeded flip budget of 1 flips"


    def test_default_budget_bounds_each_step(self, octahedron, monkeypatch):
        # With the flip loop's default factor shrunk to one flip on the
        # octahedron's 12 edges, the default budget acts as an explicit
        # budget of one: the start flips once, and step 1's segment overruns
        # it at its second wall.  The loop holds the one default; a walk
        # that read its own copy would converge with 3 flips.
        monkeypatch.setattr(flips, "DEFAULT_FLIP_BUDGET_FACTOR", 1 / len(octahedron.edges))
        packing = random_packing(
            octahedron, np.random.default_rng(self.SEEDS[newton_solve]), inv_range=(1.05, 12.0),
            max_tries=5000,
        )
        with pytest.raises(SurgeryDiverged, match="flip budget") as info:
            newton_solve(octahedron, packing, np.full(6, 5.0))
        assert [event.iteration for event in info.value.state.flip_log] == [0, 1]


class TestWallCrossingSolves:
    """Solves whose trajectory leaves the starting Delaunay cell, so the
    flip surgery must fire mid-descent, not just at initialization."""

    @pytest.fixture
    def tetra_wall_setup(self):
        return tetra_wall()

    def test_newton_crosses_wall(self, tetra_wall_setup):
        surface, start, target = tetra_wall_setup
        state = newton_solve(surface, start, target)
        assert state.status == "converged"
        assert state.max_error <= 1e-10
        assert any(ev.iteration >= 1 for ev in state.flip_log)

    def test_flip_log_reversal_after_wall_crossing(self, tetra_wall_setup):
        surface, start, target = tetra_wall_setup
        state = newton_solve(surface, start, target)
        s0, p0 = replay_flips_reversed(state.surface, state.packing, state.flip_log)
        assert surfaces_isomorphic(s0, surface)
        assert np.max(np.abs(p0.inv - start.inv) / start.inv) <= 1e-8

    def test_flow_crosses_wall_and_agrees(self, tetra_wall_setup):
        surface, start, target = tetra_wall_setup
        newton = newton_solve(surface, start, target)
        flow = ricci_flow(surface, start, target, dt=0.3, t_max=400.0, tol=1e-9)
        assert flow.status == "converged"
        assert len(flow.flip_log) >= 1
        assert np.max(np.abs(flow.u - newton.u)) <= 1e-6
        pots = [row["potential"] for row in flow.trace]
        assert all(b <= a + 1e-12 for a, b in zip(pots, pots[1:]))

    def test_flow_overrun_carries_the_flow_so_far(self, tetra_wall_setup):
        surface, start, target = tetra_wall_setup
        surface, start, _ = make_weighted_delaunay(surface, start)
        # From dt = 0.002, doubling, six steps pass before the wall.
        with pytest.raises(SurgeryDiverged) as info:  # the wall flip overruns
            ricci_flow(surface, start, target, dt=0.002, tol=1e-9, flip_budget=0)
        state = info.value.state
        assert isinstance(info.value.__cause__, SurgeryDiverged)
        assert state.status == "surgery_diverged"
        assert state.iterations == len(state.trace) == 6
        assert state.target is target and state.flip_log == []

    @pytest.mark.parametrize("name, seed", [("octahedron", 3), ("tetrahedron", 56), ("grid3", 2)])
    def test_untracked_steps_flip_along_their_segment(self, name, seed):
        # Found by a seeded search (seeds 0-59, tanh r in (0.05, 0.98),
        # I in (1.01, 20), targets uniform in (-3, 6)): a step crosses a
        # wall past which the old triangulation has a face with Xi <= 0,
        # so an untracked step must flip at its walls as a tracked one does.
        surface = {"octahedron": octahedron_sphere, "tetrahedron": tetrahedron_sphere,
                   "grid3": lambda: torus_grid(3)}[name]()
        rng = np.random.default_rng(seed)
        packing = random_packing(surface, rng, (0.05, 0.98), (1.01, 20.0), max_tries=5000)
        target = rng.uniform(-3.0, 6.0, surface.vertex_count)
        tracked = newton_solve(surface, packing, target)
        state = newton_solve(surface, packing, target, track_potential=False)
        assert state.status == "converged" and state.max_error <= 1e-10
        assert any(event.iteration >= 1 for event in state.flip_log)
        assert np.max(np.abs(state.u - tracked.u)) <= 1e-10

    def test_octahedron_spread_targets_flip_mid_solve(self, octahedron, rng):
        hits = 0
        for _ in range(12):
            pk = random_packing(octahedron, rng, inv_range=(1.05, 10.0), max_tries=5000)
            target = rng.uniform(1.0, 3.0, size=6)
            if target.sum() <= 4.0 * math.pi:
                continue
            state = newton_solve(octahedron, pk, target)
            assert state.max_error <= 1e-10
            if any(ev.iteration >= 1 for ev in state.flip_log):
                hits += 1
        assert hits >= 1


def sequential_segment(surface, packing, target, u_start, u_end, tol=1e-10):
    """The per-checkpoint march with scipy's adaptive quad: the reference
    for segment_potential.  Returns (value, wall_flip_events)."""
    from scipy.integrate import quad

    du = u_end - u_start
    inv, surf = packing.inv, surface

    def packing_at(s):
        return Packing(inv, r_from_u(u_start + s * du))

    def min_margin(s):
        return surface_delaunay_margins(surf, packing_at(s)).min()

    def integrand(s):
        K, _ = curvatures(surf, packing_at(s))
        return float((K - target) @ du)

    def piece(a, b):
        return quad(integrand, a, b, epsabs=1e-10, epsrel=1e-11, limit=100)[0]

    surf, pk, events = make_weighted_delaunay(surf, packing_at(0.0), tol=tol)
    inv = pk.inv
    total = piece_start = s_pos = 0.0
    while s_pos < 1.0:
        s_next = min(1.0, s_pos + 1.0 / 64)
        if min_margin(s_next) >= -tol:
            s_pos = s_next
            continue
        lo, hi = s_pos, s_next
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if min_margin(mid) >= -tol:
                lo = mid
            else:
                hi = mid
        total += piece(piece_start, lo)
        surf, pk, ev = make_weighted_delaunay(surf, packing_at(hi), tol=tol)
        inv = pk.inv
        events += ev
        piece_start, s_pos = lo, hi
    return total + piece(piece_start, 1.0), events


class TestSegmentAcrossWalls:
    def test_matches_sequential_march_and_quad(self, octahedron):
        rng = np.random.default_rng(5)
        target = np.full(6, 0.5)
        walls = 0
        for _ in range(24):
            pk = random_packing(octahedron, rng, inv_range=(1.05, 4.0), max_tries=5000)
            surface, pk, _ = make_weighted_delaunay(octahedron, pk)
            u0 = u_from_r(pk.radii)
            u1 = np.minimum(u0 + rng.uniform(-0.6, 0.3, size=6), -0.05)
            try:
                ref, ref_events = sequential_segment(surface, pk, target, u0, u1)
            except (DomainError, NonCompactOrthocircle) as exc:
                with pytest.raises(type(exc)):
                    segment_potential(surface, pk, target, u0, u1)
                continue
            value, end_surface, end_pk, events, *_ = segment_potential(
                surface, pk, target, u0, u1
            )
            assert events == ref_events
            # Inside the cell at the end: no surgery is needed after it.
            assert surface_delaunay_margins(end_surface, end_pk).min() >= -TOL_DELAUNAY
            assert value == pytest.approx(ref, abs=1e-9)
            walls += len(events)
        assert walls >= 5  # one segment crosses two walls


class TestCoshForms:
    """The certified wall scan's closed forms and bounds in x = cosh u
    against the kernel, on random packings: each form's value to 1e-13
    of the size of its terms, each bound below every sampled value."""

    @given(st.sampled_from(sorted(SIGN_SURFACES)), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_forms_match_the_kernel(self, name, seed):
        surface = SIGN_SURFACES[name]()
        pk = random_packing(surface, np.random.default_rng(seed), max_tries=5000)
        u = u_from_r(pk.radii)
        forms = _cosh_forms(surface, pk.inv)
        m, m_size, q, _ = _scan_bounds(forms, *_x_range(u, 0.0 * u, 0.0, 0.0)[2:])  # at one point
        kernel = SurfaceMetrics(surface, pk)
        assert np.all(np.abs(m - kernel.margins) <= 1e-13 * m_size)
        assert np.array_equal(np.sign(q), np.sign(kernel.xi))

    @given(st.sampled_from(sorted(SIGN_SURFACES)), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_bounds_hold_on_sub_intervals(self, name, seed):
        surface = SIGN_SURFACES[name]()
        rng = np.random.default_rng(seed)
        pk = random_packing(surface, rng, max_tries=5000)
        u0 = u_from_r(pk.radii)
        du = np.minimum(u0 + rng.uniform(-0.6, 0.6, len(u0)), -0.05) - u0
        lo, hi = np.sort(rng.uniform(0.0, 1.0, (2, 6)), axis=0)
        lo[0], hi[0] = 0.0, 1.0
        forms = _cosh_forms(surface, pk.inv)
        m, m_size, q, q_size = _scan_bounds(forms, *_x_range(u0, du, lo, hi)[2:])
        for b in range(len(lo)):
            s = np.linspace(lo[b], hi[b], 20)
            radii = r_from_u(u0 + np.multiply.outer(s, du))
            metrics = SurfaceMetrics(surface, Packing(pk.inv, radii))
            # Xi / prod(sinh^2 r) is the Xi form's value.
            sinh_r = np.sinh(radii)[:, surface.corners]
            q_at = metrics.xi / np.prod(sinh_r, axis=-1) ** 2
            assert np.all(m[b] <= metrics.unchecked_margins + 1e-13 * m_size[b])
            assert np.all(q[b] <= q_at + 1e-13 * q_size[b])

    @pytest.mark.parametrize("u_a, u_b, inside", [
        (-1.0, -0.5, True),
        (-1.0, -1e-17, False),  # exp(u) rounds to 1: r is inf, so is each length
        (-746.0, -1.0, False),  # exp(u) underflows: r is 0
        (-700.0, -1e-16, True),  # r from 2e-304 to 37.4: both ends finite and positive
    ])
    def test_domain_bound_at_both_edges_of_the_domain(self, torus, torus_packing, u_a, u_b, inside):
        u_a, u_b = np.array([[u_a]]), np.array([[u_b]])
        with np.errstate(divide="ignore"):  # r = inf at u = -1e-17
            ends = [SurfaceMetrics(torus, Packing(torus_packing.inv, r_from_u(u))) for u in (u_a, u_b)]
        assert all(m.domain_ok.all() for m in ends) == inside
        assert _domain_bound(torus, torus_packing.inv, u_a, u_b).tolist() == [inside]
        assert _domain_bound(torus, torus_packing.inv, u_b, u_a).tolist() == [inside]

    @given(st.sampled_from(sorted(SIGN_SURFACES)), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_domain_bound_is_the_kernel_at_the_corners(self, name, seed):
        # True exactly where the kernel's domain test passes at the
        # smallest radii and at the largest: every u from -800 (r = 0) to
        # -1e-17 (r = inf), and inversive distances up to 1e300, whose
        # lengths overflow at moderate radii.
        surface, rng = SIGN_SURFACES[name](), np.random.default_rng(seed)
        n = surface.vertex_count
        u_a, u_b = -(10.0 ** rng.uniform(-17.0, np.log10(800.0), (2, 8, n)))
        inv = 1.0 + 10.0 ** rng.uniform(-2.0, rng.choice([1.0, 300.0]), len(surface.edges))
        with np.errstate(divide="ignore"):
            at = [SurfaceMetrics(surface, Packing(inv, r_from_u(f(u_a, u_b)))).domain_ok.all(axis=-1)
                  for f in (np.minimum, np.maximum)]
        assert np.array_equal(_domain_bound(surface, inv, u_a, u_b), at[0] & at[1])


def planted_wall(k, depth):
    """A segment on a Delaunay octahedron packing along which one edge's
    margin dips to about -(1 + depth) TOL_DELAUNAY at the middle of the
    k-th interval of the old march's 1/64 grid, and is about
    (depth - 1) TOL_DELAUNAY at the two checkpoints around it.  Built in
    x = cosh u: u is put on the edge's wall by Newton steps along the
    gradient g, moved (1 + depth) TOL_DELAUNAY below it, and the segment
    runs along a direction d orthogonal to g in which the margin is
    convex.

    Returns (surface, packing at u_start, u_start, u_end, edge)."""
    octahedron = octahedron_sphere()
    pk = random_packing(octahedron, np.random.default_rng(3), (0.35, 0.9), (1.05, 4.0))
    surface, pk, _ = make_weighted_delaunay(octahedron, pk)
    edge = int(np.argmin(surface_delaunay_margins(surface, pk)))
    (c, p, _), _ = _cosh_forms(surface, pk.inv)
    c, p = c[:, edge], p[:, edge]

    def margin(u):
        return c @ np.cosh(u[p])

    def grad(u):
        return np.bincount(p, c * np.sinh(u[p]), len(u))

    u = u_from_r(pk.radii)
    for _ in range(50):
        g = grad(u)
        u = u - margin(u) * g / (g @ g)
    g = grad(u)
    d = -(g[p[np.argmax(c)]] / (g @ g)) * g
    d[p[np.argmax(c)]] += 1.0
    curvature = c @ (np.cosh(u[p]) * d[p] ** 2)
    u = u - TOL_DELAUNAY * (1.0 + depth) * g / (g @ g)
    u = u - (grad(u) @ d) / curvature * d  # to the bottom of the dip
    half = np.sqrt(4.0 * depth * TOL_DELAUNAY / curvature)  # bottom to checkpoint
    u_start = u - (2 * k + 1) * half * d
    u_end = u_start + 128 * half * d
    return surface, Packing(pk.inv, r_from_u(u_start)), u_start, u_end, edge


class TestPlantedWall:
    @given(st.integers(0, 63), st.floats(0.5, 20.0))
    @settings(max_examples=6)
    def test_wall_between_checkpoints_is_flipped(self, k, depth):
        surface, pk, u0, u1, edge = planted_wall(k, depth)
        target = np.full(6, 0.5)
        ref, ref_events = sequential_segment(surface, pk, target, u0, u1)
        assert ref_events == []  # the old march steps over the dip
        value, end_surface, end_pk, events, *_ = segment_potential(surface, pk, target, u0, u1)
        assert [ev.edge for ev in events] == [edge, edge]  # into the dip and out
        assert surface_delaunay_margins(end_surface, end_pk).min() >= -TOL_DELAUNAY
        assert all(ev.margin_before < -TOL_DELAUNAY for ev in events)
        assert surfaces_isomorphic(end_surface, surface)
        assert value == pytest.approx(ref, abs=1e-9)


def planted_exit(seed):
    """A segment of a Delaunay octahedron packing along a seeded ray in
    u, on which a face's Xi reaches 0 near the middle of the last
    interval of the 1/64 grid, and the tolerance at which the worst
    margin crosses -tol a quarter of that interval earlier.  At the default
    tolerance a margin wall comes long before any Xi zero (the cell's
    faces stay compact), so the raised tolerance is what puts a wall
    and a non-compact point in one grid interval.

    Returns (surface, packing at u_start, u_start, u_end, face, edge, tol)."""
    octahedron = octahedron_sphere()
    rng = np.random.default_rng(seed)
    pk = random_packing(octahedron, rng, (0.35, 0.9), (1.05, 4.0))
    surface, pk, _ = make_weighted_delaunay(octahedron, pk)
    u0, d = u_from_r(pk.radii), rng.normal(size=6)

    def metrics(t):
        return SurfaceMetrics(surface, Packing(pk.inv, r_from_u(u0 + np.multiply.outer(t, d))))

    def compact(t):
        m = metrics(t)
        return (m.domain_ok & (m.xi > 0.0)).all(axis=-1)

    t = np.linspace(0.0, np.min(-u0[d > 0] / d[d > 0]), 1001)[1:-1]
    k = int(np.argmin(compact(t)))
    lo, hi = t[k - 1], t[k]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if compact(mid) else (lo, mid)
    face = int(np.argmin(metrics(hi).xi > 0.0))
    length = hi * 64 / 63.45  # between two probe points
    margins = metrics(hi - length / 256).unchecked_margins
    edge = int(np.argmin(margins))
    return surface, pk, u0, u0 + length * d, face, edge, -float(margins[edge])


class TestBatchOrder:
    """The kernel batch of a grid interval decides at its first point
    outside the cell or undefined, whatever its later rows hold."""

    @pytest.fixture
    def exits(self, monkeypatch):
        """(defined, inside) rows of every wall-search batch that leaves
        the cell, for the tolerance the test sets."""
        batches, kernel = [], solver.SurfaceMetrics

        def recorded(surface, packing, *args):
            metrics = kernel(surface, packing, *args)
            if packing.radii.shape[:-1] == (solver.SCAN_POINTS,):
                batches.append(metrics)
            return metrics

        monkeypatch.setattr(solver, "SurfaceMetrics", recorded)

        def rows(tol):
            out = []
            for m in batches:
                defined = (m.domain_ok & (m.xi > 0.0)).all(axis=-1)
                inside = defined & (m.unchecked_margins >= -tol).all(axis=-1)
                if not inside.all():
                    out.append((m, defined, inside))
            return out

        return rows

    @pytest.mark.parametrize("seed", [0, 4, 7])
    def test_margin_exit_before_a_non_compact_row_flips(self, seed, exits):
        surface, pk, u0, u1, face, edge, tol = planted_exit(seed)
        value, end_surface, end_pk, events, *_ = segment_potential(
            surface, pk, np.full(6, 0.5), u0, u1, tol_delaunay=tol
        )
        [(_, defined, inside)] = exits(tol)
        k = int(np.argmin(inside))
        assert defined[k] and not defined[k + 1:].all()  # Xi <= 0 later on
        assert [ev.edge for ev in events] == [edge] and edge in surface.sides[face]
        assert surface_delaunay_margins(end_surface, end_pk).min() >= -tol
        assert math.isfinite(value)

    @pytest.mark.parametrize("seed", [0, 4, 7])
    def test_non_compact_first_exit_raises_the_kernels_error(self, seed, exits):
        surface, pk, u0, u1, face, _, tol = planted_exit(seed)
        with pytest.raises(NonCompactOrthocircle) as raised:
            segment_potential(surface, pk, np.full(6, 0.5), u0, u1, tol_delaunay=100 * tol)
        [(batch, defined, inside)] = exits(100 * tol)
        k = int(np.argmin(inside))
        assert not defined[k]
        with pytest.raises(NonCompactOrthocircle) as single:
            SurfaceMetrics(surface, Packing(pk.inv, batch.packing.radii[k])).margins
        assert raised.value.face == single.value.face == face
        assert str(raised.value) == str(single.value)


def test_gauss_kronrod_bisection():
    calls = []

    def f(x):
        assert np.all(np.diff(x) >= 0.0)  # one ascending batch per call
        calls.append(len(x))
        return 1.0 / (x + 1e-3)

    assert _integrate(f, 0.0, 1.0) == pytest.approx(math.log(1001.0), abs=1e-10)
    assert calls[0] == 15 and len(calls) > 1  # the rule on the whole, then bisections
    assert all(n % 15 == 0 for n in calls)


@given(st.integers(0, 13), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_gauss_kronrod_exact_to_degree_13(degree, seed):
    """G7 is exact to degree 13 and K15 beyond, so their gap is roundoff
    and the first 15-row call is accepted."""
    rng = np.random.default_rng(seed)
    poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, degree + 1))
    a, b = np.sort(rng.uniform(0.0, 1.0, 2))
    calls = []

    def f(x):
        calls.append(len(x))
        return poly(x)

    exact = poly.integ()(b) - poly.integ()(a)
    assert _integrate(f, a, b) == pytest.approx(exact, abs=1e-14)
    assert calls == [15]


@given(st.sampled_from([1 / 3, 2 / 5, 4 / 7, 8 / 9, 6 / 11, 12 / 13]), st.floats(0.5, 4.0))
@settings(max_examples=30)
def test_gauss_kronrod_on_a_kink(kink, slope):
    """A kink inside [0, 1] defeats the rule on the whole piece: the
    bisection closes in on it, each level in one ascending batch, and the
    value matches scipy's adaptive quad told where the kink is.  The
    stop rests on the estimate |K15 - G7|, so the bound is ten times
    QUAD_EPSABS.  The kink is p/q with q odd, so at least 1/q of a
    piece's width from its ends at every level: a kink closer to an end
    than the outermost node hides from both rules, as from any
    fixed-node rule, which is why a potential segment's pieces end at
    its walls."""
    from scipy.integrate import quad

    calls = []

    def f(x):
        assert np.all(np.diff(x) > 0.0)
        calls.append(len(x))
        return np.exp(x) + slope * np.abs(x - kink)

    ref, _ = quad(lambda x: math.exp(x) + slope * abs(x - kink), 0.0, 1.0,
                  points=[kink], epsabs=1e-13, epsrel=1e-13)
    assert _integrate(f, 0.0, 1.0) == pytest.approx(ref, abs=10 * solver.QUAD_EPSABS)
    assert calls[0] == 15 and len(calls) > 2
    assert all(n % 15 == 0 for n in calls) and sum(calls) <= 15 * solver.QUAD_LIMIT


class TestHeldForms:
    """A run builds the cosh forms of its triangulation at its start; a
    segment builds them at its own wall surgery and hands the end
    triangulation's forms back to the run."""

    @pytest.fixture
    def built(self, monkeypatch):
        built, forms = [], solver._cosh_forms

        def counted(surface, inv):
            built.append(surface)
            return forms(surface, inv)

        monkeypatch.setattr(solver, "_cosh_forms", counted)
        return built

    @pytest.fixture
    def grid(self):
        surface = torus_grid(4)
        packing = random_packing(
            surface, np.random.default_rng(5), (0.5, 0.8), (1.05, 1.5), max_tries=5000
        )
        return surface, packing, np.full(16, 0.5)

    def test_flip_free_solve_and_flow_build_once(self, grid, built):
        for run in (newton_solve, ricci_flow):
            built.clear()
            state = run(*grid)
            assert state.status == "converged" and state.flip_log == []
            assert state.iterations >= 3 and built == [grid[0]]

    def test_untracked_solve_builds_none(self, grid, built):
        """None past its start's: an untracked step walks its segment on
        the run's forms, as a tracked one does, and builds none itself."""
        state = newton_solve(*grid, track_potential=False)
        assert state.status == "converged" and state.flip_log == []
        assert state.iterations >= 3 and built == [grid[0]]

    def test_wall_crossing_solve(self, built, monkeypatch):
        """The octahedron of seed 6 flips once at the start and crosses
        two walls in its first step: each triangulation's forms are built
        once, the step's end triangulation's by its segment alone."""
        surgeries, flip = [], solver.make_weighted_delaunay

        def counted(surface, packing, **kwargs):
            out = flip(surface, packing, **kwargs)
            surgeries.append(out[0])
            return out

        monkeypatch.setattr(solver, "make_weighted_delaunay", counted)
        octahedron = octahedron_sphere()
        packing = random_packing(
            octahedron, np.random.default_rng(6), inv_range=(1.05, 12.0), max_tries=5000
        )
        state = newton_solve(octahedron, packing, np.full(6, 5.0))
        assert state.status == "converged"
        assert len(surgeries) >= 2 and state.iterations >= 2
        visited = {id(s) for s in built}
        assert visited == {id(built[0])} | {id(s) for s in surgeries}
        assert any(row["flips"] > 0 for row in state.trace[:-1])
        assert len(built) == len(visited)


def test_cli_import_leaves_out_scipy_integrate():
    """Neither scipy's quadrature nor its sparse package loads with the
    CLI: only the Hessian and its factorization import them."""
    code = (
        "import sys, hidra.cli; "
        "print(any(m in sys.modules for m in ('scipy.integrate', 'scipy.sparse')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hidra.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
