"""Combinatorial layer: validation, hinges, flips."""

import copy
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GENUS2_FACES, held_bare, one_vertex_genus2, surfaces_isomorphic, torus_grid, two_triangle_sphere,
)
from hidra.complexes import (
    octahedron_sphere,
    one_vertex_genus,
    one_vertex_torus,
    tetrahedron_sphere,
)
from hidra.errors import (
    FlipIllegal,
    InconsistentIncidence,
    MeshError,
    NotClosed,
    NotOrientable,
    NotTriangulable,
)
from hidra.flips import flip_edge
from hidra.geometry import Packing
from hidra.meshio import dumps_report, load_mesh, mesh_document, parse_mesh
from hidra.surface import HingeView, build_surface, euler_characteristic, hinge
from surface_oracle import build_surface_loops

ALL_COMPLEXES = [
    one_vertex_torus,
    one_vertex_genus2,
    two_triangle_sphere,
    tetrahedron_sphere,
    octahedron_sphere,
]
FIXTURES = ["torus1", "genus2", "octahedron"]


def start_surface(name):
    if name in FIXTURES:
        return load_mesh(resources.files("hidra") / "fixtures" / f"{name}.json")[0]
    return next(b for b in ALL_COMPLEXES if b.__name__ == name)()


class TestBuildSurface:
    def test_one_vertex_torus(self, torus):
        assert torus.vertex_count == 1
        assert len(torus.edges) == 3
        assert torus.face_count == 2
        assert euler_characteristic(torus) == 0

    def test_two_triangle_sphere_is_triangulable(self, sphere2):
        # chi(S) = 2 but chi(S minus V) = -1 < 0
        assert euler_characteristic(sphere2) == 2

    def test_edge_in_three_slots_rejected(self):
        with pytest.raises(NotClosed):
            build_surface(
                1,
                [(0, 0)] * 3,
                [((0, 0, 0), (0, 1, 2)), ((0, 0, 0), (0, 1, 1))],
            )

    def test_empty_complex_not_triangulable(self):
        # chi(S minus V) = F - E = -F/2, so the punctured-characteristic
        # guard can only fire when there are no cells at all
        with pytest.raises(NotTriangulable):
            build_surface(1, [], [])

    def test_punctured_characteristic_negative_on_all_fixtures(self):
        for builder in ALL_COMPLEXES:
            s = builder()
            assert euler_characteristic(s) - s.vertex_count < 0

    def test_inconsistent_incidence_rejected(self):
        # side 0 of face 0 claims edge 1 but edge 1 joins the wrong pair
        with pytest.raises(InconsistentIncidence):
            build_surface(
                3,
                [(1, 2), (2, 0), (0, 1)],
                [((0, 1, 2), (0, 2, 1)), ((2, 1, 0), (2, 1, 0))],
            )

    def test_orientation_violation_rejected(self):
        # both faces traverse every edge in the same direction
        with pytest.raises(NotOrientable):
            build_surface(
                3,
                [(1, 2), (2, 0), (0, 1)],
                [((0, 1, 2), (0, 1, 2)), ((0, 1, 2), (0, 1, 2))],
            )

    def test_dangling_edge_reference_rejected(self):
        with pytest.raises(InconsistentIncidence):
            build_surface(1, [(0, 0)], [((0, 0, 0), (0, 1, 2))] * 2)

    @pytest.mark.parametrize("builder", ALL_COMPLEXES)
    def test_slot_double_counting(self, builder):
        s = builder()
        assert 3 * s.face_count == 2 * len(s.edges)


class TestEulerCharacteristic:
    def test_torus(self, torus):
        assert euler_characteristic(torus) == 0

    def test_genus2(self, genus2):
        assert euler_characteristic(genus2) == -2

    def test_sphere(self, sphere2):
        assert euler_characteristic(sphere2) == 2


class TestOneVertexGenus:
    def test_genus2_equals_the_hand_table(self):
        table, surface = build_surface(1, [(0, 0)] * 9, GENUS2_FACES), one_vertex_genus(2)
        for name in ("edges", "corners", "sides"):
            np.testing.assert_array_equal(getattr(surface, name), getattr(table, name))

    @pytest.mark.parametrize("g", range(1, 8))
    def test_counts_and_euler_characteristic(self, g):
        surface = one_vertex_genus(g)
        assert (surface.vertex_count, surface.edge_count, surface.face_count) == (1, 6 * g - 3, 4 * g - 2)
        assert euler_characteristic(surface) == 2 - 2 * g

    def test_genus3_round_trips_through_the_mesh_document(self):
        surface = one_vertex_genus(3)
        packing = Packing(np.full(surface.edge_count, 1.5), np.full(1, 0.6))
        back, _, _ = parse_mesh(dumps_report(mesh_document(surface, packing)))
        for name in ("edges", "corners", "sides"):
            np.testing.assert_array_equal(getattr(back, name), getattr(surface, name))


class TestHinge:
    def test_torus_all_slots_name_vertex_zero(self, torus):
        for eid in range(3):
            hv = hinge(torus, eid)
            assert (hv.v_i, hv.v_j, hv.v_k, hv.v_l) == (0, 0, 0, 0)
            assert hv.edge == eid

    def test_tetrahedron_distinct_slots(self, tetrahedron):
        hv = hinge(tetrahedron, 4)
        assert sorted((hv.v_i, hv.v_j)) == [0, 2]
        assert sorted((hv.v_k, hv.v_l)) == [1, 3]
        assert len({hv.e_a, hv.e_b, hv.e_c, hv.e_d, hv.edge}) == 5

    def test_boundary_edges_join_the_right_slots(self, octahedron):
        for eid in range(len(octahedron.edges)):
            hv = hinge(octahedron, eid)
            assert sorted(octahedron.edges[hv.e_a]) == sorted((hv.v_k, hv.v_i))
            assert sorted(octahedron.edges[hv.e_b]) == sorted((hv.v_i, hv.v_l))
            assert sorted(octahedron.edges[hv.e_c]) == sorted((hv.v_l, hv.v_j))
            assert sorted(octahedron.edges[hv.e_d]) == sorted((hv.v_j, hv.v_k))

    def test_labels_stable_under_face_rotation(self, octahedron):
        # representing each face by a rotated (corners, sides) tuple is an
        # isomorphic complex; hinge labels must not depend on the rotation
        rotated = build_surface(
            octahedron.vertex_count,
            octahedron.edges,
            [
                (np.roll(corners, -1), np.roll(sides, -1))
                for corners, sides in zip(octahedron.corners, octahedron.sides)
            ],
        )
        for eid in range(len(octahedron.edges)):
            a, b = hinge(octahedron, eid), hinge(rotated, eid)
            assert (a.v_i, a.v_j, a.v_k, a.v_l) == (b.v_i, b.v_j, b.v_k, b.v_l)
            assert a.boundary_edges == b.boundary_edges

    def test_flipped_hinge_relabels_cyclically(self, octahedron):
        hv, held = hinge(octahedron, 4), held_bare(octahedron)
        flip_edge(held, 4)
        hv2 = hinge(held.freeze()[0], 4)
        before = (hv.e_a, hv.e_b, hv.e_c, hv.e_d)
        after = (hv2.e_a, hv2.e_b, hv2.e_c, hv2.e_d)
        assert after == (before[1], before[2], before[3], before[0])


class TestFlipCombinatorial:
    """What ``flip_edge`` does to the rows of a held triangulation."""

    @pytest.mark.parametrize("builder", [one_vertex_torus, one_vertex_genus2])
    def test_counts_invariant(self, builder):
        s = builder()
        for eid in range(len(s.edges)):
            held = held_bare(s)
            flip_edge(held, eid)
            s2 = held.freeze()[0]
            assert s2.vertex_count == s.vertex_count
            assert len(s2.edges) == len(s.edges)
            assert s2.face_count == s.face_count
            assert euler_characteristic(s2) == euler_characteristic(s)

    def test_new_edge_joins_the_apexes(self, tetrahedron):
        hv, held = hinge(tetrahedron, 4), held_bare(tetrahedron)
        flip_edge(held, 4)
        s2 = held.freeze()[0]
        assert sorted(s2.edges[4]) == sorted((hv.v_k, hv.v_l))

    def test_double_flip_is_isomorphic(self, octahedron):
        for eid in range(len(octahedron.edges)):
            held = held_bare(octahedron)
            flip_edge(held, eid)
            flip_edge(held, eid)
            assert surfaces_isomorphic(octahedron, held.freeze()[0])

    def test_double_flip_on_torus(self, torus):
        for eid in range(3):
            held = held_bare(torus)
            flip_edge(held, eid)
            flip_edge(held, eid)
            assert surfaces_isomorphic(torus, held.freeze()[0])

    def test_self_hinged_edge_is_not_flippable(self):
        # two self-folded triangles glued along their outer edge: edges 0
        # and 2 each appear twice within one face, so their hinges are
        # degenerate and flipping them cannot produce two distinct faces
        s = build_surface(
            1,
            [(0, 0)] * 3,
            [((0, 0, 0), (0, 0, 1)), ((0, 0, 0), (2, 2, 1))],
        )
        with pytest.raises(FlipIllegal):
            flip_edge(held_bare(s), 0)
        with pytest.raises(FlipIllegal):
            flip_edge(held_bare(s), 2)

    @pytest.mark.parametrize("name", [b.__name__ for b in ALL_COMPLEXES] + FIXTURES)
    @given(picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=25))
    @settings(max_examples=40)
    def test_local_flip_equals_full_rebuild(self, name, picks):
        surface = start_surface(name)
        for pick in picks:
            edge, held = pick % len(surface.edges), held_bare(surface)
            try:
                flip_edge(held, edge)
            except FlipIllegal:
                hv = hinge(surface, edge)
                assert hv.face_k == hv.face_l
                continue
            edges, corners, sides = held.rows  # flat corners and sides, slot 3 * face + m
            rebuilt = build_surface(held.vertex_count, edges, [
                (corners[k:k + 3], sides[k:k + 3]) for k in range(0, len(corners), 3)])
            # the slots re-filed in place label every hinge as a rebuild does
            assert [held.hinge(e) for e in range(len(surface.edges))] == [
                hinge(rebuilt, e) for e in range(len(surface.edges))
            ]
            surface = held.freeze()[0]
            assert surface == rebuilt
            assert np.array_equal(surface.corners, rebuilt.corners)
            assert np.array_equal(surface.sides, rebuilt.sides)
            for field in HingeView._fields:
                assert np.array_equal(
                    getattr(surface.hinge_slots, field),
                    getattr(rebuilt.hinge_slots, field),
                ), field

    def test_orientation_preserved_after_flip(self, octahedron):
        # the flip rewrites two faces without validating the result, so
        # spot-check that every edge is still traversed both ways.
        held = held_bare(octahedron)
        flip_edge(held, 0)
        s2 = held.freeze()[0]
        h = s2.hinge_slots
        slots = zip(h.face_k, h.side_in_k, h.face_l, h.side_in_l)
        for eid, (f1, s1, f2, s2_) in enumerate(slots):
            a, b = s2.edges[eid]
            if a == b:
                continue
            d1 = (s2.corners[f1][(s1 + 1) % 3], s2.corners[f1][(s1 + 2) % 3])
            d2 = (s2.corners[f2][(s2_ + 1) % 3], s2.corners[f2][(s2_ + 2) % 3])
            assert d1 == tuple(reversed(d2))


def raw_complex(surface):
    """(vertex_count, edges, faces) lists that rebuild ``surface``."""
    faces = [list(cell) for cell in zip(surface.corners.tolist(), surface.sides.tolist())]
    return surface.vertex_count, surface.edges.tolist(), faces


def out_of_range(draw, size):
    return draw(st.sampled_from([-1, -2, size, size + 3, 2**64, -(2**70)]))


def corrupt(kind, raw, draw):
    """Apply one named corruption to a raw complex, positions drawn."""
    n_v, edges, faces = raw
    if kind == "no_cells":  # F - E = 0: nothing left to triangulate
        return n_v, [], []
    if kind == "edge_end_out_of_range":
        edge = draw(st.integers(0, len(edges) - 1))
        edges[edge][draw(st.integers(0, 1))] = out_of_range(draw, n_v)
        return raw
    fid = draw(st.integers(0, len(faces) - 1))
    corners, sides = faces[fid]
    j, k = draw(st.permutations(range(3)))[:2]
    if kind == "drop_face":
        del faces[fid]
    elif kind == "swap_sides":
        sides[j], sides[k] = sides[k], sides[j]
    elif kind == "reverse_face":
        faces[fid] = [corners[::-1], sides[::-1]]
    elif kind == "same_direction":  # mirror: every side traversed backwards
        faces[fid] = [[corners[0], corners[2], corners[1]], [sides[0], sides[2], sides[1]]]
    elif kind == "vertex_out_of_range":
        corners[j] = out_of_range(draw, n_v)
    elif kind == "edge_out_of_range":
        sides[j] = out_of_range(draw, len(edges))
    elif kind == "one_slot":  # the replaced edge keeps a single slot
        sides[j] = draw(st.sampled_from([e for e in range(len(edges)) if e != sides[j]]))
    return raw


CORRUPTIONS = [
    "drop_face", "swap_sides", "reverse_face", "same_direction", "vertex_out_of_range",
    "edge_end_out_of_range", "edge_out_of_range", "one_slot", "no_cells",
]
ORACLE_COMPLEXES = [b.__name__ for b in ALL_COMPLEXES] + FIXTURES + ["grid3", "grid4"]


def oracle_start(name):
    return torus_grid(int(name[4:])) if name.startswith("grid") else start_surface(name)


def build_outcome(builder, raw):
    try:
        return builder(*raw)
    except MeshError as exc:
        return type(exc), str(exc)


class TestBuilderAgainstLoopOracle:
    """The array builder raises what the loop builder raises: the same
    class and message, naming the same lowest id."""

    def assert_agrees(self, raw):
        want = build_outcome(build_surface_loops, copy.deepcopy(raw))
        got = build_outcome(build_surface, raw)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
            return
        edges, faces, edge_slots = want
        assert got.edges.tolist() == [list(e) for e in edges]
        assert got.corners.tolist() == [list(c) for c, _ in faces]
        assert got.sides.tolist() == [list(s) for _, s in faces]
        h = got.hinge_slots
        assert list(zip(zip(h.face_k, h.side_in_k), zip(h.face_l, h.side_in_l))) == list(
            edge_slots
        )

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    @given(name=st.sampled_from(ORACLE_COMPLEXES), data=st.data())
    @settings(max_examples=40)
    def test_one_corruption(self, kind, name, data):
        raw = raw_complex(oracle_start(name))
        self.assert_agrees(corrupt(kind, raw, data.draw))

    @given(
        name=st.sampled_from(ORACLE_COMPLEXES),
        kinds=st.lists(st.sampled_from(CORRUPTIONS[:-1]), min_size=2, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_several_corruptions(self, name, kinds, data):
        # Several faults at once: the first check in order, at its lowest id.
        raw = raw_complex(oracle_start(name))
        for kind in kinds:
            if raw[2]:
                raw = corrupt(kind, raw, data.draw)
        self.assert_agrees(raw)

    @pytest.mark.parametrize("name", ORACLE_COMPLEXES)
    def test_intact_complexes(self, name):
        self.assert_agrees(raw_complex(oracle_start(name)))

    def test_non_triangle_and_empty_vertex_set(self):
        raw = raw_complex(one_vertex_torus())
        raw[2][1][0] = [0, 0]
        self.assert_agrees(raw)
        self.assert_agrees((0, [], []))

    def test_ids_past_the_index_range(self):
        # An id no intp holds is an unknown id, not an OverflowError.
        raw = (1, [(2**64, 0)], [])
        self.assert_agrees(raw)
        with pytest.raises(InconsistentIncidence, match="^edge 0 references unknown vertex$"):
            build_surface(*raw)
        raw = raw_complex(one_vertex_torus())
        raw[2][1][1][2] = 2**70
        self.assert_agrees(raw)
        with pytest.raises(InconsistentIncidence, match="^face 1 references unknown edge$"):
            build_surface(*raw)
