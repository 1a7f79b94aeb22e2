"""Constructive oracles: degenerate hinges, first-order flip matching,
discriminant equivalence, conformal-class round trips."""

import math

import numpy as np
import pytest

from hidra.checks import (
    PARAMETER_NAMES,
    conformal_roundtrip_check,
    dF_df_discrepancy,
    degenerate_hinge,
    geometric_diagonal_value,
    random_degenerate_hinge,
    random_flip_sequence,
    random_packing,
    run_verification_suite,
    xi_equivalence_check,
)
from hidra.errors import ConstructionInvalid
from hidra.flips import ptolemy_flip_value
from hidra.surface import hinge

from conftest import replay_flips_reversed, surfaces_isomorphic
from geometry_oracle import dF_df_check, face_metrics, hinge_delaunay_margin, orthocircle_radius

SYM_ANGLES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)


class TestDegenerateHinge:
    def test_symmetric_construction(self):
        dh = degenerate_hinge(0.5, [0.4] * 4, SYM_ANGLES)
        # the two hinge labels across the symmetry axis coincide
        a, b, c, d, e, F = dh.sextuple
        assert a == pytest.approx(c, rel=1e-12)
        assert b == pytest.approx(d, rel=1e-12)
        assert F == pytest.approx(e, rel=1e-12)  # fourfold symmetry

    def test_orthogonality_relation(self):
        dh = degenerate_hinge(0.6, [0.3, 0.5, 0.45, 0.35], (0.1, 1.3, 3.0, 4.9))
        for r, d in zip(dh.radii, dh.center_distances):
            assert math.cosh(d) == pytest.approx(
                math.cosh(r) * math.cosh(dh.orthoradius), rel=1e-12
            )

    def test_diagonal_margin_vanishes(self):
        dh = degenerate_hinge(0.6, [0.3, 0.5, 0.45, 0.35], (0.1, 1.3, 3.0, 4.9))
        margin = hinge_delaunay_margin(hinge(dh.surface, dh.diagonal_edge), dh.packing)
        assert abs(margin) <= 1e-9

    def test_geometric_diagonal_equals_flip_value(self):
        dh = degenerate_hinge(0.6, [0.3, 0.5, 0.45, 0.35], (0.1, 1.3, 3.0, 4.9))
        assert dh.sextuple[5] == pytest.approx(
            ptolemy_flip_value(*dh.sextuple[:5]), rel=1e-9
        )

    def test_every_face_has_compact_orthocircle(self):
        dh = degenerate_hinge(0.6, [0.3, 0.5, 0.45, 0.35], (0.1, 1.3, 3.0, 4.9))
        for fid in range(4):
            fm = face_metrics(dh.surface, dh.packing, fid)
            assert fm.xi > 0.0
            orthocircle_radius(fm)

    def test_overlapping_circles_rejected(self):
        with pytest.raises(ConstructionInvalid):
            degenerate_hinge(0.5, [1.5] * 4, (0.0, 0.05, 0.1, 0.15))

    def test_unordered_angles_rejected(self):
        with pytest.raises(ConstructionInvalid):
            degenerate_hinge(0.5, [0.4] * 4, (0.0, 3.0, 1.0, 4.0))

    def test_random_hinges_are_reproducible(self):
        a = random_degenerate_hinge(np.random.default_rng(11))
        b = random_degenerate_hinge(np.random.default_rng(11))
        assert a.sextuple == b.sextuple


class TestFirstOrderMatching:
    def test_equality_of_values_at_wall(self):
        dh = degenerate_hinge(0.6, [0.3, 0.5, 0.45, 0.35], (0.1, 1.3, 3.0, 4.9))
        params = dh.parameters()
        assert geometric_diagonal_value(params) == pytest.approx(
            ptolemy_flip_value(*params[4:]), rel=1e-12
        )

    def test_discrepancy_decays_for_all_nine_parameters(self):
        dh = degenerate_hinge(0.6, [0.3, 0.5, 0.45, 0.35], (0.1, 1.3, 3.0, 4.9))
        for name in PARAMETER_NAMES:
            d1 = dF_df_check(dh, name, 1e-4)
            d2 = dF_df_check(dh, name, 5e-5)
            assert d2 <= max(0.75 * d1, 5e-9), (name, d1, d2)

    def test_radial_derivatives_vanish_at_wall(self):
        # both diagonal values are radius-stationary on the wall
        dh = degenerate_hinge(0.6, [0.3, 0.5, 0.45, 0.35], (0.1, 1.3, 3.0, 4.9))
        params = dh.parameters()
        for idx, name in enumerate(("p", "q", "r", "s")):
            h = 1e-5
            up = params.copy()
            dn = params.copy()
            up[idx] += h
            dn[idx] -= h
            dF = (geometric_diagonal_value(up) - geometric_diagonal_value(dn)) / (2 * h)
            assert abs(dF) <= 1e-3  # O(h) around a stationary point
            d_small = dF_df_discrepancy(params, name, 1e-5)
            assert d_small <= 1e-5

    def test_perturbed_hinge_keeps_discrepancy(self):
        dh = degenerate_hinge(0.6, [0.3, 0.5, 0.45, 0.35], (0.1, 1.3, 3.0, 4.9))
        params = dh.parameters()
        params[4] += 0.05  # push the label a off the wall
        for name in ("p", "q", "r", "s"):
            d1 = dF_df_discrepancy(params, name, 1e-4)
            d2 = dF_df_discrepancy(params, name, 5e-5)
            assert d2 >= 1e-3
            assert d2 >= 0.5 * d1


class TestXiEquivalence:
    def test_symmetric_anchor_face(self):
        assert xi_equivalence_check((math.atanh(0.5),) * 3, (2.0,) * 3)

    def test_sweep_agrees(self, rng):
        for _ in range(2000):
            radii = np.arctanh(rng.uniform(0.05, 0.95, size=3))
            inv = rng.uniform(1.01, 6.0, size=3)
            assert xi_equivalence_check(radii, inv)


class TestConformalRoundtrip:
    def test_empty_sequence(self, torus, torus_packing):
        assert conformal_roundtrip_check(torus, torus_packing, []) == 0.0

    def test_single_flip_on_symmetric_hinge(self, torus, torus_packing):
        assert conformal_roundtrip_check(torus, torus_packing, [0]) <= 1e-12

    def test_long_random_chain_on_genus2(self, genus2, rng):
        pk = random_packing(genus2, rng)
        seq = random_flip_sequence(genus2, pk, rng, 50)
        assert len(seq) == 50
        assert conformal_roundtrip_check(genus2, pk, seq) <= 1e-8

    def test_solver_log_replay(self, genus2, rng):
        from hidra.solver import newton_solve

        pk = random_packing(genus2, rng, inv_range=(1.05, 12.0), max_tries=5000)
        state = newton_solve(genus2, pk, np.array([-2.0]))
        s0, p0 = replay_flips_reversed(state.surface, state.packing, state.flip_log)
        assert surfaces_isomorphic(s0, genus2)
        rel = np.max(np.abs(p0.inv - pk.inv) / pk.inv)
        assert rel <= 1e-8


class TestVerificationSuite:
    def test_runs_and_passes(self):
        report = run_verification_suite(seed=42, samples=1500, hinges=6, flip_chain=25)
        assert report["passed"]
        assert report["seed"] == 42
        names = [s["name"] for s in report["sections"]]
        assert names == [
            "ptolemy_identities",
            "compactness_discriminant",
            "degenerate_hinges",
            "conformal_roundtrip",
        ]

    def test_seed_replay_is_deterministic(self):
        a = run_verification_suite(seed=9, samples=300, hinges=3, flip_chain=10)
        b = run_verification_suite(seed=9, samples=300, hinges=3, flip_chain=10)
        assert a == b
