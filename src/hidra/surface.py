"""Combinatorial triangulations of closed oriented marked surfaces.

Cells are allowed to glue to themselves: edges may be loops, two faces may
share two or three edges, and a face may use one edge twice.  Because of
this, faces store both their corner vertex ids and their side edge ids
explicitly; neither can be derived from the other.  Side k of a face is
opposite corner k and connects corners k+1 and k+2 (mod 3), traversed in
that order, which fixes the face orientation.

The complex is stored as three read-only int arrays and nothing else:
``edges`` (E, 2), ``corners`` (F, 3) and ``sides`` (F, 3), flat index
arrays as in intrinsic-triangulation codes (Sharp, Soliman and Crane,
"Navigating intrinsic triangulations", 2019).  The two face slots of
each edge are derived from ``sides`` by one stable argsort.  Surfaces
are immutable, and no flip returns a new one: ``flips.flip_edge``
rewrites the Python list rows a ``HeldTriangulation`` holds, through
``rewrite_hinge``, and the held rows become arrays once, when frozen.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    FlipIllegal,
    InconsistentIncidence,
    NotClosed,
    NotOrientable,
    NotTriangulable,
)


class HingeView(namedtuple(
    "HingeView", "edge face_k face_l side_in_k side_in_l v_k v_i v_l v_j e_a e_b e_c e_d"
)):
    """An edge together with its two incident face slots.

    Vertex slots are labelled so the hinge reads: the edge runs from
    ``v_i`` to ``v_j``, with apex ``v_k`` on the first face and apex
    ``v_l`` on the second.  Edge slots follow the quadrilateral boundary
    plus diagonal: ``e_a`` joins k-i, ``e_b`` joins i-l, ``e_c`` joins
    l-j, ``e_d`` joins j-k and ``edge`` itself is the i-j diagonal.
    Slot labels are always distinct even when the underlying ids repeat.
    The first face slot of an edge is the one that comes first in
    (face, side) order.  ``TriSurface.hinge_slots`` holds the same
    labels for every edge at once, each field an (E,) index array.
    """

    __slots__ = ()

    @property
    def boundary_edges(self):
        """Edge ids (e_a, e_b, e_c, e_d) around the quadrilateral."""
        return (self.e_a, self.e_b, self.e_c, self.e_d)


@dataclass(frozen=True, eq=False)
class TriSurface:
    """A closed triangulated surface as read-only int arrays.

    Row e of ``edges`` holds the two end vertices of edge e (they may
    coincide); row f of ``corners`` and of ``sides`` holds the corner
    vertex ids and side edge ids of face f, side k opposite corner k.
    The arrays are made read-only here.  Build one with
    ``build_surface``, which validates.
    """

    vertex_count: int
    edges: np.ndarray    # (E, 2)
    corners: np.ndarray  # (F, 3)
    sides: np.ndarray    # (F, 3)

    def __post_init__(self):
        for array in (self.edges, self.corners, self.sides):
            array.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, TriSurface):
            return NotImplemented
        return self.vertex_count == other.vertex_count and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("edges", "corners", "sides")
        )

    @property
    def edge_count(self):
        return len(self.edges)

    @property
    def face_count(self):
        return len(self.corners)

    @cached_property
    def hinge_slots(self):
        """HingeView of (E,) index arrays, entry e labelling the hinge of
        edge e (see ``hinge``).  A stable argsort of the flat side ids
        lists each edge's two slots (flat indices 3 * face + side) in
        (face, side) order."""
        slot = np.argsort(self.sides.ravel(), kind="stable").reshape(-1, 2).T
        return hinge_from_slots(
            np.arange(len(self.edges)), *slot, self.corners.ravel(), self.sides.ravel()
        )

    @cached_property
    def hessian_pattern(self):
        """(indptr, indices, slot): the compressed columns of the curvature
        Jacobian's entries (corners[f, m], corners[f, n]), a symmetric
        pattern, and the data index of each entry, in (f, m, n) order."""
        n, c = self.vertex_count, self.corners
        keys, slot = np.unique((c[:, None, :] * n + c[:, :, None]).ravel(),
                               return_inverse=True)
        return np.searchsorted(keys, np.arange(n + 1) * n), keys % n, slot


def build_surface(vertex_count, edges, faces):
    """Validate a raw mesh description and freeze it into a TriSurface.

    ``edges`` is a sequence of (end_a, end_b) vertex pairs, ``faces`` a
    sequence of (corners, sides) triple pairs, such as an (F, 2, 3)
    array, walked in Python only to name a face that is not.  Raises the specific
    MeshError subclass naming the first violated invariant, at the
    lowest id that violates it.
    """
    if vertex_count <= 0:
        raise InconsistentIncidence("vertex_count must be positive")
    edges = _id_array(edges, 2)
    bad = ((edges < 0) | (edges >= vertex_count)).any(axis=1)
    if bad.any():
        raise InconsistentIncidence(f"edge {bad.argmax()} references unknown vertex")

    try:
        cells = _id_array(faces, 2, 3)
        triangle = np.ones(len(cells), dtype=bool)
    except ValueError:  # some face is not a pair of triples: padded, and named below
        triangle = np.array([len(c) == len(s) == 3 for c, s in faces], dtype=bool)
        cells = _id_array([(c, s) if ok else [(0,) * 3] * 2 for (c, s), ok in zip(faces, triangle)], 2, 3)
    corners, sides = cells[:, 0].copy(), cells[:, 1].copy()
    bad = np.stack([
        ~triangle,
        ((corners < 0) | (corners >= vertex_count)).any(axis=1),
        ((sides < 0) | (sides >= len(edges))).any(axis=1),
    ])
    if bad.any():
        fid = bad.any(axis=0).argmax()
        what = ("is not a triangle", "references unknown vertex",
                "references unknown edge")[bad[:, fid].argmax()]
        raise InconsistentIncidence(f"face {fid} {what}")

    # Closed surface: every edge is used by exactly two face sides.
    slot_counts = np.bincount(sides.ravel(), minlength=len(edges))
    bad = slot_counts != 2
    if bad.any():
        eid = bad.argmax()
        raise NotClosed(f"edge {eid} has {slot_counts[eid]} face slots, expected 2")
    surface = TriSurface(vertex_count, edges, corners, sides)

    # Side k must connect corners k+1 and k+2 as an unordered pair.
    pairs = np.sort(np.stack([corners[:, [1, 2, 0]], corners[:, [2, 0, 1]]], axis=-1))
    ends = np.sort(edges[sides])
    bad = (pairs != ends).any(axis=-1).ravel()
    if bad.any():
        fid, k = divmod(int(bad.argmax()), 3)
        raise InconsistentIncidence(
            f"face {fid} side {k} (edge {sides[fid, k]}) joins "
            f"{ends[fid, k].tolist()}, corners give {pairs[fid, k].tolist()}"
        )

    # Orientation: the two slots of an edge must traverse it in opposite
    # directions, so (sides being incident) start from different ends.
    # Loop edges carry no usable direction from vertex ids, so the check
    # applies to edges with distinct endpoints only.
    h = surface.hinge_slots
    start_l = corners[h.face_l, (h.side_in_l + 1) % 3]
    bad = (edges[:, 0] != edges[:, 1]) & (h.v_i == start_l)
    if bad.any():
        raise NotOrientable(f"edge {bad.argmax()} traversed twice in the same direction")

    if euler_characteristic(surface) - vertex_count >= 0:
        raise NotTriangulable(
            "punctured surface must have negative Euler characteristic"
        )
    return surface


def _id_array(rows, *shape):
    """``rows`` as an (n, *shape) intp array.  An id no intp can hold is
    read as -1, which the range checks reject like any unknown id; only
    then are the ids held as Python ints."""
    try:
        return np.array(rows, dtype=np.intp).reshape(len(rows), *shape)
    except OverflowError:
        ids = np.array(rows, dtype=object).reshape(len(rows), *shape)
        lo, hi = np.iinfo(np.intp).min, np.iinfo(np.intp).max
        return np.where((ids >= lo) & (ids <= hi), ids, -1).astype(np.intp)


def euler_characteristic(surface):
    """V - E + F of the closed surface."""
    return surface.vertex_count - surface.edge_count + surface.face_count


def hinge(surface, edge):
    """The labelled local picture of ``edge`` and its two faces: entry
    ``edge`` of ``surface.hinge_slots``."""
    return HingeView(*(int(ids[edge]) for ids in surface.hinge_slots))


def hinge_from_slots(edge, slot_k, slot_l, corners, sides):
    """HingeView of ``edge`` from its two face slots: the flat indices
    slot_k < slot_l into the flattened ``corners`` and ``sides``.
    Elementwise on arrays of edges and slots."""
    (face_k, side_k), (face_l, side_l) = divmod(slot_k, 3), divmod(slot_l, 3)
    nxt_k, prv_k = slot_k - side_k + (side_k + 1) % 3, slot_k - side_k + (side_k + 2) % 3
    nxt_l, prv_l = slot_l - side_l + (side_l + 1) % 3, slot_l - side_l + (side_l + 2) % 3
    # By position, in field order (v_k, v_i, v_l, v_j, then e_a to e_d): a third the cost of keywords.
    return HingeView(edge, face_k, face_l, side_k, side_l,
                     corners[slot_k], corners[nxt_k], corners[slot_l], corners[prv_k],
                     sides[prv_k], sides[nxt_l], sides[prv_l], sides[nxt_k])


def rewrite_hinge(h, edges, corners, sides):
    """Write the flip of the hinge ``h`` into the writable rows held for
    flips: the list of edge end pairs, and the flat ``corners`` and
    ``sides`` (slot 3 * face + m).  The edge now joins the two apexes.
    Raises FlipIllegal only when both slots of the edge lie on one face."""
    if h.face_k == h.face_l:
        raise FlipIllegal(f"edge {h.edge} has both sides on face {h.face_k}")
    k, l = 3 * h.face_k, 3 * h.face_l
    edges[h.edge] = [h.v_k, h.v_l]
    corners[k:k + 3], corners[l:l + 3] = (h.v_k, h.v_i, h.v_l), (h.v_l, h.v_j, h.v_k)
    sides[k:k + 3], sides[l:l + 3] = (h.e_b, h.edge, h.e_a), (h.e_d, h.edge, h.e_c)
