"""Combinatorial triangulations of closed oriented marked surfaces.

Cells are allowed to glue to themselves: edges may be loops, two faces may
share two or three edges, and a face may use one edge twice.  Because of
this, faces store both their corner vertex ids and their side edge ids
explicitly; neither can be derived from the other.  Side k of a face is
opposite corner k and connects corners k+1 and k+2 (mod 3), traversed in
that order, which fixes the face orientation.

Surfaces are immutable; a flip returns a new surface.
"""

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import (
    FlipIllegal,
    InconsistentIncidence,
    NotClosed,
    NotOrientable,
    NotTriangulable,
)


@dataclass(frozen=True)
class Face:
    corners: tuple  # (v0, v1, v2) vertex ids, possibly repeated
    sides: tuple    # (e0, e1, e2) edge ids, side k opposite corner k


@dataclass(frozen=True)
class HingeView:
    """An edge together with its two incident face slots.

    Vertex slots are labelled so the hinge reads: the edge runs from
    ``v_i`` to ``v_j``, with apex ``v_k`` on the first face and apex
    ``v_l`` on the second.  Edge slots follow the quadrilateral boundary
    plus diagonal: ``e_a`` joins k-i, ``e_b`` joins i-l, ``e_c`` joins
    l-j, ``e_d`` joins j-k and ``edge`` itself is the i-j diagonal.
    Slot labels are always distinct even when the underlying ids repeat.
    ``TriSurface.hinge_slots`` holds the same labels for every edge at
    once, each field an (E,) index array.
    """

    edge: int
    face_k: int
    face_l: int
    side_in_k: int
    side_in_l: int
    v_k: int
    v_i: int
    v_l: int
    v_j: int
    e_a: int
    e_b: int
    e_c: int
    e_d: int

    @property
    def boundary_edges(self):
        """Edge ids (e_a, e_b, e_c, e_d) around the quadrilateral."""
        return (self.e_a, self.e_b, self.e_c, self.e_d)


@dataclass(frozen=True)
class TriSurface:
    vertex_count: int
    edges: tuple          # edge id -> (end_a, end_b); ends may coincide
    faces: tuple          # Face records
    edge_slots: tuple     # edge id -> ((face, side), (face, side))

    @property
    def edge_count(self):
        return len(self.edges)

    @property
    def face_count(self):
        return len(self.faces)

    @cached_property
    def corners(self):
        """(F, 3) vertex ids, row f holding ``faces[f].corners``."""
        return _frozen([f.corners for f in self.faces])

    @cached_property
    def sides(self):
        """(F, 3) edge ids, row f holding ``faces[f].sides``."""
        return _frozen([f.sides for f in self.faces])

    @cached_property
    def hinge_slots(self):
        """HingeView of (E,) index arrays, entry e labelling the hinge of
        edge e (see ``hinge``)."""
        return _hinge_rows(self, np.arange(len(self.edges)))


def _hinge_rows(surface, edges):
    """HingeView of index arrays labelling the hinges of ``edges``."""
    f1, s1, f2, s2 = _frozen([surface.edge_slots[e] for e in edges]).reshape(-1, 4).T
    k1, k2, l1, l2 = (s1 + 1) % 3, (s1 + 2) % 3, (s2 + 1) % 3, (s2 + 2) % 3
    c, s = surface.corners, surface.sides
    return HingeView(
        edge=edges, face_k=f1, face_l=f2, side_in_k=s1, side_in_l=s2,
        v_k=c[f1, s1], v_i=c[f1, k1], v_j=c[f1, k2], v_l=c[f2, s2],
        e_a=s[f1, k2], e_d=s[f1, k1], e_b=s[f2, l1], e_c=s[f2, l2],
    )


def _frozen(rows):
    out = np.array(rows, dtype=np.intp)
    out.flags.writeable = False
    return out


def _patched(array, index, values):
    """Copy of ``array`` with ``[index] = values``, as writeable as ``array``."""
    out = array.copy()
    out[index] = values
    out.flags.writeable = array.flags.writeable
    return out


def build_surface(vertex_count, edges, faces):
    """Validate a raw mesh description and freeze it into a TriSurface.

    ``edges`` is a sequence of (end_a, end_b) vertex pairs, ``faces`` a
    sequence of (corners, sides) triple pairs.  Raises the specific
    MeshError subclass naming the first violated invariant.
    """
    if vertex_count <= 0:
        raise InconsistentIncidence("vertex_count must be positive")
    edges = tuple((int(a), int(b)) for a, b in edges)
    for eid, (a, b) in enumerate(edges):
        if not (0 <= a < vertex_count and 0 <= b < vertex_count):
            raise InconsistentIncidence(f"edge {eid} references unknown vertex")

    face_records = []
    for fid, (corners, sides) in enumerate(faces):
        corners = tuple(int(v) for v in corners)
        sides = tuple(int(e) for e in sides)
        if len(corners) != 3 or len(sides) != 3:
            raise InconsistentIncidence(f"face {fid} is not a triangle")
        for v in corners:
            if not 0 <= v < vertex_count:
                raise InconsistentIncidence(f"face {fid} references unknown vertex")
        for e in sides:
            if not 0 <= e < len(edges):
                raise InconsistentIncidence(f"face {fid} references unknown edge")
        face_records.append(Face(corners, sides))
    face_records = tuple(face_records)

    # Closed surface: every edge is used by exactly two face sides.
    slots = [[] for _ in edges]
    for fid, face in enumerate(face_records):
        for k, eid in enumerate(face.sides):
            slots[eid].append((fid, k))
    for eid, sl in enumerate(slots):
        if len(sl) != 2:
            raise NotClosed(f"edge {eid} has {len(sl)} face slots, expected 2")
    edge_slots = tuple((sl[0], sl[1]) for sl in slots)

    # Side k must connect corners k+1 and k+2 as an unordered pair.
    for fid, face in enumerate(face_records):
        for k in range(3):
            pair = sorted((face.corners[(k + 1) % 3], face.corners[(k + 2) % 3]))
            ends = sorted(edges[face.sides[k]])
            if pair != ends:
                raise InconsistentIncidence(
                    f"face {fid} side {k} (edge {face.sides[k]}) joins {ends}, "
                    f"corners give {pair}"
                )

    # Orientation: the two slots of an edge must traverse it in opposite
    # directions.  Loop edges carry no usable direction from vertex ids,
    # so the check applies to edges with distinct endpoints only.
    for eid, ((f1, s1), (f2, s2)) in enumerate(edge_slots):
        a, b = edges[eid]
        if a == b:
            continue
        d1 = _traversal(face_records[f1], s1, (a, b))
        d2 = _traversal(face_records[f2], s2, (a, b))
        if d1 == d2:
            raise NotOrientable(f"edge {eid} traversed twice in the same direction")

    surface = TriSurface(vertex_count, edges, face_records, edge_slots)
    if euler_characteristic(surface) - vertex_count >= 0:
        raise NotTriangulable(
            "punctured surface must have negative Euler characteristic"
        )
    return surface


def _traversal(face, k, ends):
    frm = face.corners[(k + 1) % 3]
    to = face.corners[(k + 2) % 3]
    return +1 if (frm, to) == ends else -1


def euler_characteristic(surface):
    """V - E + F of the closed surface."""
    return surface.vertex_count - len(surface.edges) + len(surface.faces)


def hinge(surface, edge):
    """The labelled local picture of ``edge`` and its two faces: entry
    ``edge`` of ``surface.hinge_slots``."""
    slots = surface.hinge_slots
    return HingeView(*(int(getattr(slots, f.name)[edge]) for f in fields(HingeView)))


def flip_combinatorial(surface, edge):
    """Replace the diagonal of the hinge at ``edge`` by the other one.

    The edge keeps its id but now joins the two apexes; V, E, F are
    unchanged and the global orientation is preserved.  Only the two
    faces, the slots of their edges and those cached index array entries
    are rewritten, giving what ``build_surface`` would.  Raises
    FlipIllegal only when both slots of ``edge`` lie on one face.
    """
    h = hinge(surface, edge)
    if h.face_k == h.face_l:
        raise FlipIllegal(f"edge {edge} has both sides on face {h.face_k}")
    rows = [h.face_k, h.face_l]
    new = [Face((h.v_k, h.v_i, h.v_l), (h.e_b, edge, h.e_a)),
           Face((h.v_l, h.v_j, h.v_k), (h.e_d, edge, h.e_c))]
    faces = list(surface.faces)
    faces[h.face_k], faces[h.face_l] = new
    # Slot pairs sorted by (face, side), the order build_surface lists them in.
    touched = sorted({edge, *h.boundary_edges})
    edge_slots = list(surface.edge_slots)
    for e in touched:
        kept = [slot for slot in edge_slots[e] if slot[0] not in rows]
        added = [(f, k) for f in rows for k, side in enumerate(faces[f].sides) if side == e]
        edge_slots[e] = tuple(sorted(kept + added))
    edges = surface.edges[:edge] + ((h.v_k, h.v_l),) + surface.edges[edge + 1:]
    flipped = TriSurface(surface.vertex_count, edges, tuple(faces), tuple(edge_slots))
    vars(flipped).update(corners=_patched(surface.corners, rows, [f.corners for f in new]),
                         sides=_patched(surface.sides, rows, [f.sides for f in new]))
    old, fresh = surface.hinge_slots, _hinge_rows(flipped, np.array(touched))
    vars(flipped)["hinge_slots"] = HingeView(*(
        _patched(getattr(old, f.name), touched, getattr(fresh, f.name))
        for f in fields(HingeView)
    ))
    return flipped


def _canonical_face(face):
    rotations = (
        tuple(zip(face.corners, face.sides)),
        tuple(zip(face.corners[1:] + face.corners[:1], face.sides[1:] + face.sides[:1])),
        tuple(zip(face.corners[2:] + face.corners[:2], face.sides[2:] + face.sides[:2])),
    )
    return min(rotations)


def surfaces_isomorphic(s1, s2):
    """Equality of labelled complexes up to face rotation and order.

    Vertex and edge ids must match; faces may be listed in any order and
    each may be rotated (orientation-preserving relabelling only).
    """
    if s1.vertex_count != s2.vertex_count:
        return False
    if tuple(sorted(tuple(sorted(e)) for e in s1.edges)) != tuple(
        sorted(tuple(sorted(e)) for e in s2.edges)
    ):
        return False
    c1 = sorted(_canonical_face(f) for f in s1.faces)
    c2 = sorted(_canonical_face(f) for f in s2.faces)
    return c1 == c2
