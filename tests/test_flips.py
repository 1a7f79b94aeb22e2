"""Ptolemy algebra and the flip-to-Delaunay loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    checkerboard_packing,
    flipped,
    one_vertex_genus2,
    ptolemy_residual_relative,
    surfaces_isomorphic,
    torus_grid,
)
from hidra import complexes, flips
from hidra.checks import degenerate_hinge, random_flip_sequence, random_packing
from hidra.complexes import octahedron_sphere, one_vertex_torus
from hidra.errors import DomainError, FlipIllegal, NonCompactOrthocircle, SurgeryDiverged
from hidra.flips import (
    HeldTriangulation,
    flip_edge,
    make_weighted_delaunay,
    surface_delaunay_margins,
)
from hidra.geometry import TOL_DELAUNAY, Packing, SolveState, SurfaceMetrics
from hidra.ptolemy import (
    delta_discriminant,
    delta_identity_residuals,
    ptolemy_flip_value,
    ptolemy_residual,
    ptolemy_residual_scale,
)
from hidra.surface import build_surface, hinge

from geometry_oracle import face_metrics, hinge_delaunay_margin

INV_FIVE = st.floats(min_value=1.05, max_value=6.0)


class TestPtolemyFlipValue:
    def test_all_twos(self):
        assert ptolemy_flip_value(2, 2, 2, 2, 2) == pytest.approx(17.0, abs=1e-12)

    def test_symmetric_closed_form(self):
        # equal labels a give f = (4a^2 + a - 1) / (a - 1)
        for a in (1.5, 2.0, 3.0, 5.0):
            expected = (4 * a * a + a - 1.0) / (a - 1.0)
            assert ptolemy_flip_value(a, a, a, a, a) == pytest.approx(
                expected, rel=1e-12
            )
        assert ptolemy_flip_value(3, 3, 3, 3, 3) == pytest.approx(19.0, abs=1e-12)

    def test_rejects_degenerate_diagonal(self):
        with pytest.raises(DomainError):
            ptolemy_flip_value(2.0, 2.0, 2.0, 2.0, 1.0)

    @pytest.mark.parametrize("labels, match", [
        ((2.0, 2.0, 2.0, 2.0, 1.0), "diagonal inversive distance must exceed 1"),
        ((2.0, 2.0, 2.0, 2.0, math.nan), None),
        # D_ade = (a + d e)^2 - (d^2 - 1)(e^2 - 1) = -9 at a = -d e = -4.
        ((-4.0, 2.0, 2.0, 2.0, 2.0), "negative discriminant in flip value"),
        ((2.0, 2.0, -4.0, 2.0, 2.0), "negative discriminant in flip value"),
    ], ids=["diagonal-1", "diagonal-nan", "d_ade", "d_bce"])
    def test_domain_errors_on_scalars_and_arrays(self, labels, match):
        # The same message whether the labels are Python floats, numpy
        # scalars or arrays whose second hinge is the bad one; a NaN
        # diagonal passes the checks, as np.less_equal let it.
        good = (2.0, 2.0, 2.0, 2.0, 2.0)
        inputs = [labels, tuple(map(np.float64, labels)),
                  tuple(np.array([g, x]) for g, x in zip(good, labels))]
        for args in inputs:
            if match is None:
                assert np.isnan(ptolemy_flip_value(*args)).any()
            else:
                with pytest.raises(DomainError, match=f"^{match}$"):
                    ptolemy_flip_value(*args)

    def test_scalar_values_are_the_array_values_bit_for_bit(self):
        # The flip loop scores hinges on Python floats and must match the
        # array kernel exactly; both must also keep the closed form.
        rng = np.random.default_rng(19)
        labels = rng.uniform(1.0 + 1e-9, 12.0, size=(5, 2000))
        a, b, c, d, e = labels
        closed_form = (
            a * b + c * d + a * c * e + b * d * e
            + np.sqrt(delta_discriminant(a, d, e)) * np.sqrt(delta_discriminant(b, c, e))
        ) / (e * e - 1.0)
        array = ptolemy_flip_value(*labels)
        scalar = [ptolemy_flip_value(*column) for column in labels.T.tolist()]
        assert array.tobytes() == closed_form.tobytes()
        assert np.array(scalar).tobytes() == array.tobytes()

    @given(INV_FIVE, INV_FIVE, INV_FIVE, INV_FIVE, INV_FIVE)
    @settings(max_examples=500)
    def test_flip_value_exceeds_one_and_solves_quadratic(self, a, b, c, d, e):
        f = ptolemy_flip_value(a, b, c, d, e)
        assert f > 1.0
        rel = ptolemy_residual(a, b, c, d, e, f) / ptolemy_residual_scale(
            a, b, c, d, e, f
        )
        assert abs(rel) <= 1e-10


class TestPtolemyResidual:
    def test_anchor_root(self):
        scale = ptolemy_residual_scale(2, 2, 2, 2, 2, 17.0)
        assert abs(ptolemy_residual(2, 2, 2, 2, 2, 17.0)) / scale <= 1e-9

    def test_perturbed_root_nonzero(self):
        assert abs(ptolemy_residual(2, 2, 2, 2, 2, 16.0)) > 1.0

    @given(INV_FIVE, INV_FIVE, INV_FIVE, INV_FIVE, INV_FIVE, INV_FIVE)
    @settings(max_examples=300)
    def test_pair_swap_symmetry(self, a, b, c, d, e, f):
        assert ptolemy_residual(a, b, c, d, e, f) == pytest.approx(
            ptolemy_residual(b, a, d, c, e, f), rel=1e-12, abs=1e-9
        )


class TestDeltaIdentities:
    def test_symmetric_sextuple_exact(self):
        # sqrt(D_{2,2,17}) = 4 sqrt(27), i.e. D = 432, checked directly
        assert delta_discriminant(2.0, 2.0, 17.0) == pytest.approx(432.0, abs=1e-9)
        r1, r2 = delta_identity_residuals(2, 2, 2, 2, 2, 17.0)
        assert r1 <= 1e-12 and r2 <= 1e-12

    @given(INV_FIVE, INV_FIVE, INV_FIVE, INV_FIVE, INV_FIVE)
    @settings(max_examples=500)
    def test_residuals_vanish_at_the_flip_value(self, a, b, c, d, e):
        f = ptolemy_flip_value(a, b, c, d, e)
        r1, r2 = delta_identity_residuals(a, b, c, d, e, f)
        assert r1 <= 1e-9 and r2 <= 1e-9

    def test_fail_for_wrong_root(self):
        r1, r2 = delta_identity_residuals(2, 2, 2, 2, 2, 5.0)
        assert r1 > 1e-3 and r2 > 1e-3


class TestFlipEdge:
    def test_symmetric_hinge_diagonal_becomes_17(self, torus, torus_packing):
        s2, p2, event = flipped(torus, torus_packing, 0)
        assert p2.inv[0] == pytest.approx(17.0, abs=1e-12)
        assert event.new_value == pytest.approx(17.0, abs=1e-12)
        assert event.labels == (2.0,) * 5

    def test_radii_unchanged_exactly(self, torus, torus_packing):
        _, p2, _ = flipped(torus, torus_packing, 0)
        assert np.array_equal(p2.radii, torus_packing.radii)

    def test_flip_back_restores_inversive_distance(self, rng):
        surface = one_vertex_genus2()
        for _ in range(20):
            pk = random_packing(surface, rng, inv_range=(1.05, 8.0), max_tries=5000)
            eid = int(rng.integers(9))
            s2, p2, _ = flipped(surface, pk, eid)
            s3, p3, _ = flipped(s2, p2, eid)
            assert p3.inv[eid] == pytest.approx(pk.inv[eid], rel=1e-9)
            assert surfaces_isomorphic(s3, surface)
            others = [e for e in range(9) if e != eid]
            assert np.allclose(p3.inv[others], pk.inv[others], rtol=0, atol=0)

    def test_event_invariants(self, rng):
        surface = one_vertex_genus2()
        for _ in range(20):
            pk = random_packing(surface, rng, inv_range=(1.05, 8.0), max_tries=5000)
            eid = int(rng.integers(9))
            _, _, event = flipped(surface, pk, eid, iteration=7)
            assert event.new_value > 1.0
            assert abs(ptolemy_residual_relative(event)) <= 1e-9
            assert event.iteration == 7
            r1, r2 = delta_identity_residuals(*event.labels, event.new_value)
            assert r1 <= 1e-9 and r2 <= 1e-9

    def test_illegal_flip_leaves_the_held_state(self):
        # Edges 0 and 2 each lie twice on one face.
        surface = build_surface(
            1, [(0, 0)] * 3, [((0, 0, 0), (0, 0, 1)), ((0, 0, 0), (2, 2, 1))])
        held = HeldTriangulation(surface, Packing(np.full(3, 2.0), np.full(1, 0.5)))
        slots = [list(pair) for pair in held.slots]
        for edge in (0, 2):
            with pytest.raises(FlipIllegal):
                flip_edge(held, edge)
        assert (held.slots, held.inv) == (slots, [2.0] * 3)
        assert held.freeze()[0] == surface


class TestMakeWeightedDelaunay:
    def test_already_delaunay_means_zero_flips(self, torus, torus_packing):
        s2, p2, events = make_weighted_delaunay(torus, torus_packing)
        assert events == []
        assert np.array_equal(p2.inv, torus_packing.inv)

    def test_one_flip_past_degeneracy(self):
        dh = degenerate_hinge(0.5, [0.4] * 4, [0.0, 1.5, 3.1, 4.7])
        radii = np.array(dh.radii)
        radii[0] += 0.02  # inflate a diagonal endpoint past the wall
        pk = Packing(dh.packing.inv.copy(), radii)
        assert hinge_delaunay_margin(hinge(dh.surface, 4), pk) < 0.0
        s2, p2, events = make_weighted_delaunay(dh.surface, pk)
        assert [ev.edge for ev in events] == [4]
        assert min(surface_delaunay_margins(s2, p2)) >= -1e-10

    @pytest.mark.parametrize("builder", [one_vertex_torus, one_vertex_genus2])
    def test_random_packings_terminate_and_audit(self, builder, rng):
        surface = builder()
        flips_seen = 0
        for _ in range(40):
            pk = random_packing(
                surface, rng, inv_range=(1.05, 12.0), max_tries=5000
            )
            s2, p2, events = make_weighted_delaunay(surface, pk)
            flips_seen += len(events)
            margins = surface_delaunay_margins(s2, p2)
            assert min(margins) >= -1e-10
            for fid in range(s2.face_count):
                assert face_metrics(s2, p2, fid).xi > 0.0
            assert np.array_equal(p2.radii, pk.radii)
        assert flips_seen > 0

    def test_budget_exceeded_reports_divergence(self, rng):
        surface = one_vertex_genus2()
        # find a packing that needs at least one flip, then starve it
        while True:
            pk = random_packing(
                surface, rng, inv_range=(1.05, 12.0), max_tries=5000
            )
            if min(surface_delaunay_margins(surface, pk)) < -1e-6:
                break
        with pytest.raises(SurgeryDiverged):
            make_weighted_delaunay(surface, pk, flip_budget=0)

    @pytest.mark.parametrize("setting, match", [
        (dict(tol=math.nan), "tol_delaunay = nan"), (dict(flip_budget=-1), "flip_budget = -1"),
        (dict(flip_budget=math.nan), "flip_budget = nan"),
    ], ids=["tol-nan", "flip_budget-negative", "flip_budget-nan"])
    def test_bad_settings_are_domain_errors(self, torus, torus_packing, setting, match):
        # A NaN tolerance flipped until the budget ran out, a negative
        # budget overran at its first flip or went unnoticed without one,
        # and a NaN budget left the loop without any budget.
        with pytest.raises(DomainError, match=match):
            make_weighted_delaunay(torus, torus_packing, **setting)

    def test_flip_log_iteration_tag(self, rng):
        surface = one_vertex_genus2()
        while True:
            pk = random_packing(
                surface, rng, inv_range=(1.05, 12.0), max_tries=5000
            )
            if min(surface_delaunay_margins(surface, pk)) < -1e-6:
                break
        _, _, events = make_weighted_delaunay(surface, pk, iteration=3)
        assert events and all(ev.iteration == 3 for ev in events)
        assert all(ev.margin_before < 0 for ev in events)


def rescan_weighted_delaunay(
    surface, packing, tol=TOL_DELAUNAY, flip_budget=None, iteration=0
):
    """The flip loop with a full margin scan before every flip: the
    reference the incremental ``make_weighted_delaunay`` must match."""
    if flip_budget is None:
        flip_budget = 100 * len(surface.edges)
    events = []
    while True:
        margins = surface_delaunay_margins(surface, packing)
        worst = int(np.argmin(margins))
        if margins[worst] >= -tol:
            return surface, packing, events
        if len(events) >= flip_budget:
            raise SurgeryDiverged(
                f"exceeded flip budget of {flip_budget} flips",
                state=SolveState(surface, packing, status="surgery_diverged", flip_log=events),
            )
        surface, packing, event = flipped(
            surface, packing, worst, iteration, margins[worst]
        )
        events.append(event)


def loop_outcome(loop, surface, packing, **kwargs):
    """What a flip loop hands back, comparable with ==: the end (or
    partial) surface, packing bytes and flip log, or the fault raised.
    The log goes through repr so NaN margins compare equal."""
    try:
        end, packing, events = loop(surface, packing, **kwargs)
        kind = "done"
    except SurgeryDiverged as exc:
        state, kind = exc.state, "diverged"
        end, packing, events = state.surface, state.packing, state.flip_log
    except (DomainError, NonCompactOrthocircle) as exc:
        return type(exc), exc.face, str(exc)
    return kind, end, packing.inv.tobytes(), packing.radii.tobytes(), repr(events)


def assert_frozen_surface(surface):
    """The surface is what ``build_surface`` makes of its own arrays:
    equal rows, read-only."""
    rebuilt = build_surface(surface.vertex_count, surface.edges.tolist(),
                            list(zip(surface.corners.tolist(), surface.sides.tolist())))
    assert surface == rebuilt
    assert not any(rows.flags.writeable
                   for rows in (surface.edges, surface.corners, surface.sides))


GRID_PACKINGS = {
    "checkerboard": checkerboard_packing,
    "random": lambda surface, n, rng: random_packing(
        surface, rng, tanh_range=(0.2, 0.95), inv_range=(1.05, 6.0), max_tries=5000
    ),
}


class TestIncrementalAgainstRescan:
    def assert_same(self, surface, packing, **kwargs):
        got = loop_outcome(make_weighted_delaunay, surface, packing, **kwargs)
        assert got == loop_outcome(rescan_weighted_delaunay, surface, packing, **kwargs)
        if got[0] in ("done", "diverged"):
            assert_frozen_surface(got[1])
        return got

    @given(n=st.integers(3, 8), kind=st.sampled_from(sorted(GRID_PACKINGS)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_grids(self, n, kind, seed):
        surface = torus_grid(n)
        packing = GRID_PACKINGS[kind](surface, n, np.random.default_rng(seed))
        assert self.assert_same(surface, packing, iteration=n)[0] == "done"

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_one_vertex_genus2(self, seed):
        # Every edge is a loop and faces share several edges, so one
        # flip re-files slots of edges that repeat on its two faces.
        surface = one_vertex_genus2()
        packing = random_packing(
            surface, np.random.default_rng(seed), inv_range=(1.05, 12.0), max_tries=5000
        )
        assert self.assert_same(surface, packing)[0] == "done"

    def test_one_kernel_per_loop(self, monkeypatch):
        # The loop builds the entry kernel and none per flip.
        built = []

        class CountedMetrics(SurfaceMetrics):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(flips, "SurfaceMetrics", CountedMetrics)
        surface = torus_grid(8)
        packing = checkerboard_packing(surface, 8, np.random.default_rng(0))
        _, _, events = make_weighted_delaunay(surface, packing)
        assert (len(events), len(built)) == (32, 1)

    def test_one_flip_edge_call_per_flip(self, monkeypatch):
        # Each flip of the loop is one call of the public flip_edge, so
        # a wrapper of it counts the loop's flips.
        calls = []

        def counted(held, edge, *args):
            calls.append(edge)
            return flip_edge(held, edge, *args)

        monkeypatch.setattr(flips, "flip_edge", counted)
        surface = torus_grid(8)
        packing = checkerboard_packing(surface, 8, np.random.default_rng(0))
        _, _, events = make_weighted_delaunay(surface, packing)
        assert calls == [ev.edge for ev in events] and len(calls) == 32

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_checkerboards(self, n):
        surface = torus_grid(n)
        for seed in range(3):
            packing = checkerboard_packing(surface, n, np.random.default_rng(seed))
            kind, *_, log = self.assert_same(surface, packing, iteration=seed)
            assert kind == "done" and log.count("FlipEvent") >= n * n // 2

    def test_random_grid_packings(self, rng):
        # Spread radii and inversive distances make flips cascade: a flip
        # can turn a boundary edge of its hinge non-Delaunay or back.
        surface, flips = torus_grid(6), 0
        for _ in range(40):
            packing = random_packing(
                surface, rng, tanh_range=(0.2, 0.95), inv_range=(1.05, 6.0)
            )
            kind, *_, log = self.assert_same(surface, packing)
            assert kind == "done"
            flips += log.count("FlipEvent")
        assert flips > 40

    def test_random_genus2_packings(self, rng):
        surface, flips = one_vertex_genus2(), 0
        for _ in range(40):
            packing = random_packing(surface, rng, inv_range=(1.05, 12.0), max_tries=5000)
            kind, *_, log = self.assert_same(surface, packing)
            assert kind == "done"
            flips += log.count("FlipEvent")
        assert flips > 0

    @pytest.mark.parametrize("budget", [0, 1, 7])
    def test_budget_overrun_keeps_the_same_partial_state(self, budget):
        surface = torus_grid(6)
        packing = checkerboard_packing(surface, 6, np.random.default_rng(0))
        kind, *_, log = self.assert_same(surface, packing, flip_budget=budget)
        assert kind == "diverged" and log.count("FlipEvent") == budget

    @pytest.mark.parametrize(
        "builder, seed, face",
        [(one_vertex_torus, 6, 0), (one_vertex_genus2, 74, 2), (octahedron_sphere, 40, 2)],
    )
    def test_fault_after_a_flip(self, builder, seed, face):
        # A tolerance below every margin flips Delaunay edges too; on
        # these packings the first flip leaves a non-compact face (on
        # the torus both rewritten faces, so the lower one is named).
        surface = builder()
        packing = random_packing(
            surface, np.random.default_rng(seed), inv_range=(1.05, 12.0), max_tries=5000
        )
        got = self.assert_same(surface, packing, tol=-1e9)
        assert got[:2] == (NonCompactOrthocircle, face)

    @pytest.mark.parametrize("value, fault", [
        (1.0, DomainError), (0.5, DomainError), (1.7e308, DomainError), (1e6, NonCompactOrthocircle),
    ], ids=["f-one", "f-below-one", "overflowing-length", "non-compact"])
    def test_planted_new_value_raises_the_kernels_fault(self, monkeypatch, value, fault):
        # Each flip's new value is planted: f <= 1, an f whose length
        # overflows, or an f that leaves the new faces non-compact.  The
        # held checks must hand each to the kernel before the float
        # formulas meet it, where math.sqrt and "/" raise on what NumPy
        # returns as NaN or inf.  Flipped, edge 2 joins two large circles
        # (sinh r ~ 1.3), so that 1.7e308 overflows its length.
        surface = torus_grid(4)
        packing = checkerboard_packing(surface, 4, np.random.default_rng(0))
        monkeypatch.setattr(flips, "ptolemy_flip_value", lambda *labels: value)
        with pytest.raises(fault) as want:
            SurfaceMetrics(*flipped(surface, packing, 2)[:2]).margins
        held = HeldTriangulation(surface, packing)
        flip_edge(held, 2)
        with pytest.raises(fault) as got:
            held.check(2)
        h = hinge(surface, 2)
        assert got.value.face == want.value.face == min(h.face_k, h.face_l)
        # The loop's first flip, planted alike, raises as the rescan does.
        got = loop_outcome(make_weighted_delaunay, surface, packing)
        assert got == loop_outcome(rescan_weighted_delaunay, surface, packing)
        assert got[0] in (DomainError, NonCompactOrthocircle)


HELD_CASES = {"one_vertex_torus": one_vertex_torus, "one_vertex_genus2": one_vertex_genus2,
              "octahedron_sphere": octahedron_sphere, "tetrahedron_sphere": complexes.tetrahedron_sphere,
              "grid4": lambda: torus_grid(4), "grid6": lambda: torus_grid(6)}


class TestHeldRowsMatchTheKernel:
    """The held rows are Python lists and floats.  After each flip of a
    random chain, every margin and flip value the held triangulation
    scores is a float equal, bit for bit, to the array kernel's."""

    @given(name=st.sampled_from(list(HELD_CASES)), seed=st.integers(0, 2**32 - 1),
           picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_random_flip_chains(self, name, seed, picks):
        surface = HELD_CASES[name]()
        packing = random_packing(surface, np.random.default_rng(seed), tanh_range=(0.2, 0.95),
                                 inv_range=(1.05, 6.0), max_tries=5000)
        held, edges = HeldTriangulation(surface, packing), range(surface.edge_count)
        for pick in picks:
            edge = pick % surface.edge_count
            labels = held.labels(h := held.hinge(edge))
            if h.face_k == h.face_l or ptolemy_flip_value(*labels) > 1e6:
                continue  # as random_flip_sequence skips past-overflow chains
            event = flip_edge(held, edge)
            assert type(event.new_value) is float
            want = ptolemy_flip_value(*np.array([labels]).T)
            assert np.array([event.new_value]).tobytes() == want.tobytes()
            try:
                held.check(edge)
            except (DomainError, NonCompactOrthocircle):
                return  # the kernel's own fault, raised by the kernel
            metrics = SurfaceMetrics(*held.freeze())
            hs, inv = metrics.surface.hinge_slots, metrics.packing.inv
            values = ptolemy_flip_value(*(inv[ids] for ids in (hs.e_a, hs.e_b, hs.e_c, hs.e_d, hs.edge)))
            got = [ptolemy_flip_value(*held.labels(held.hinge(e))) for e in edges]
            margins = [held.margin(e) for e in edges]
            assert {type(x) for x in got + margins} == {float}
            assert np.array(got).tobytes() == values.tobytes()
            assert np.array(margins).tobytes() == metrics.margins.tobytes()


class TestMarginBeforeFromKernel:
    """Each ``margin_before`` the flip loop logs comes from the array
    kernel and matches the scalar ``hinge_delaunay_margin`` of the
    pre-flip hinge to 1e-12 relative; a flip outside the loop logs NaN."""

    def assert_log_matches_scalar(self, surface, packing, edges, events):
        assert [ev.edge for ev in events] == list(edges)
        nan_seen = 0
        for ev in events:
            try:
                want = hinge_delaunay_margin(hinge(surface, ev.edge), packing)
            except NonCompactOrthocircle:
                assert math.isnan(ev.margin_before)
                nan_seen += 1
            else:
                assert abs(ev.margin_before - want) <= 1e-12 * abs(want)
            surface, packing, _ = flipped(surface, packing, ev.edge)
        return nan_seen

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_checkerboards(self, n):
        surface = torus_grid(n)
        for seed in range(3):
            packing = checkerboard_packing(surface, n, np.random.default_rng(seed))
            _, _, events = make_weighted_delaunay(surface, packing)
            assert len(events) >= n * n // 2
            edges = [ev.edge for ev in events]
            assert self.assert_log_matches_scalar(surface, packing, edges, events) == 0

    def test_standalone_flips_log_nan(self, rng):
        surface = one_vertex_genus2()
        for _ in range(5):
            packing = random_packing(surface, rng, inv_range=(1.05, 8.0), max_tries=5000)
            held = HeldTriangulation(surface, packing)
            for edge in random_flip_sequence(surface, packing, rng, 30):
                assert math.isnan(flip_edge(held, edge).margin_before)
