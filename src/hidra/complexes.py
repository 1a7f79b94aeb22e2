"""Canonical small complexes used by fixtures, tests and sweeps."""

from .surface import build_surface


def one_vertex_torus():
    """Torus as two triangles on one vertex and three loop edges."""
    return build_surface(
        1,
        [(0, 0), (0, 0), (0, 0)],
        [((0, 0, 0), (0, 1, 2)), ((0, 0, 0), (0, 1, 2))],
    )


def one_vertex_genus(g):
    """Genus-g surface on one vertex: the 4g-gon a1 b1 a1^-1 b1^-1 ... with
    side i the edge w[i] (a_k is 2k, b_k is 2k + 1), fan-triangulated from a
    corner.  Face j has sides w[j+1], 2g + j and 2g - 1 + j, with w[-1] and
    w[0] for the missing last and first diagonals; E = 6g - 3, F = 4g - 2."""
    w = [2 * i + k for i in range(g) for k in (0, 1, 0, 1)]
    diagonals = [w[0], *range(2 * g, 6 * g - 3), w[-1]]
    faces = [((0, 0, 0), (w[j + 1], diagonals[j + 1], diagonals[j])) for j in range(4 * g - 2)]
    return build_surface(1, [(0, 0)] * (6 * g - 3), faces)


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
