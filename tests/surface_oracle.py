"""The loop-based surface builder, kept as the oracle for the array one.

``build_surface_loops`` validates record by record in plain Python, in
the order ``hidra.surface.build_surface`` must follow: vertex count,
edge ends, each face (triangle, corner ids, side ids), closedness,
incidence, orientation, then the punctured Euler characteristic.  It
raises the same MeshError class and message, and on success returns the
edges, the faces as (corners, sides) tuples and each edge's two face
slots as ((face, side), (face, side)) in (face, side) order.
"""

from hidra.errors import (
    InconsistentIncidence,
    NotClosed,
    NotOrientable,
    NotTriangulable,
)


def build_surface_loops(vertex_count, edges, faces):
    if vertex_count <= 0:
        raise InconsistentIncidence("vertex_count must be positive")
    edges = tuple((int(a), int(b)) for a, b in edges)
    for eid, (a, b) in enumerate(edges):
        if not (0 <= a < vertex_count and 0 <= b < vertex_count):
            raise InconsistentIncidence(f"edge {eid} references unknown vertex")

    records = []
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
        records.append((corners, sides))

    # Closed surface: every edge is used by exactly two face sides.
    slots = [[] for _ in edges]
    for fid, (_, sides) in enumerate(records):
        for k, eid in enumerate(sides):
            slots[eid].append((fid, k))
    for eid, sl in enumerate(slots):
        if len(sl) != 2:
            raise NotClosed(f"edge {eid} has {len(sl)} face slots, expected 2")
    edge_slots = tuple((sl[0], sl[1]) for sl in slots)

    # Side k must connect corners k+1 and k+2 as an unordered pair.
    for fid, (corners, sides) in enumerate(records):
        for k in range(3):
            pair = sorted((corners[(k + 1) % 3], corners[(k + 2) % 3]))
            ends = sorted(edges[sides[k]])
            if pair != ends:
                raise InconsistentIncidence(
                    f"face {fid} side {k} (edge {sides[k]}) joins {ends}, "
                    f"corners give {pair}"
                )

    # Orientation: the two slots of an edge must traverse it in opposite
    # directions; loop edges are skipped.
    for eid, ((f1, s1), (f2, s2)) in enumerate(edge_slots):
        a, b = edges[eid]
        if a == b:
            continue
        if _traversal(records[f1][0], s1, (a, b)) == _traversal(records[f2][0], s2, (a, b)):
            raise NotOrientable(f"edge {eid} traversed twice in the same direction")

    if len(records) - len(edges) >= 0:
        raise NotTriangulable(
            "punctured surface must have negative Euler characteristic"
        )
    return edges, tuple(records), edge_slots


def _traversal(corners, k, ends):
    frm = corners[(k + 1) % 3]
    to = corners[(k + 2) % 3]
    return +1 if (frm, to) == ends else -1
