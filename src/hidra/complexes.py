"""Canonical small complexes used by fixtures, tests and sweeps."""

from .surface import build_surface


def one_vertex_torus():
    """Torus as two triangles on one vertex and three loop edges."""
    return build_surface(
        1,
        [(0, 0), (0, 0), (0, 0)],
        [((0, 0, 0), (0, 1, 2)), ((0, 0, 0), (0, 1, 2))],
    )


def one_vertex_genus2():
    """Genus-2 surface from the standard octagon gluing, fan-triangulated.

    One vertex, nine edges (four octagon side classes plus five
    diagonals), six faces; Euler characteristic -2.
    """
    faces = [
        ((0, 0, 0), (1, 4, 0)),
        ((0, 0, 0), (0, 5, 4)),
        ((0, 0, 0), (1, 6, 5)),
        ((0, 0, 0), (2, 7, 6)),
        ((0, 0, 0), (3, 8, 7)),
        ((0, 0, 0), (2, 3, 8)),
    ]
    return build_surface(1, [(0, 0)] * 9, faces)


def tetrahedron_sphere():
    """Boundary of a tetrahedron: four vertices, six edges, four faces."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)]
    faces = [
        ((0, 1, 2), (1, 4, 0)),
        ((0, 2, 3), (2, 3, 4)),
        ((0, 3, 1), (5, 0, 3)),
        ((3, 2, 1), (1, 5, 2)),
    ]
    return build_surface(4, edges, faces)


def octahedron_sphere():
    """Octahedron: six vertices with two non-adjacent antipodal pairs.

    Handy for sparsity checks, since vertices 0/5, 1/3 and 2/4 share no
    edge.  Vertex 0 is the north pole, 5 the south, 1-4 the equator.
    """
    edges = [
        (0, 1), (0, 2), (0, 3), (0, 4),      # 0-3: north meridians
        (1, 2), (2, 3), (3, 4), (4, 1),      # 4-7: equator
        (5, 1), (5, 2), (5, 3), (5, 4),      # 8-11: south meridians
    ]
    faces = [
        ((0, 1, 2), (4, 1, 0)),
        ((0, 2, 3), (5, 2, 1)),
        ((0, 3, 4), (6, 3, 2)),
        ((0, 4, 1), (7, 0, 3)),
        ((5, 2, 1), (4, 8, 9)),
        ((5, 3, 2), (5, 9, 10)),
        ((5, 4, 3), (6, 10, 11)),
        ((5, 1, 4), (7, 11, 8)),
    ]
    return build_surface(6, edges, faces)
