import numpy as np
import pytest
from hypothesis import settings
from scipy.sparse import coo_array

settings.register_profile("repeatable", settings(derandomize=True, deadline=None))
settings.load_profile("repeatable")

from hidra import solver
from hidra.checks import face_kernel
from hidra.complexes import (
    octahedron_sphere,
    one_vertex_genus,
    one_vertex_torus,
    tetrahedron_sphere,
)
from hidra.flips import HeldTriangulation, flip_edge
from hidra.geometry import TOL_DELAUNAY, Packing, SurfaceMetrics
from hidra.meshio import dumps_report, mesh_document
from hidra.ptolemy import ptolemy_residual, ptolemy_residual_scale
from hidra.solver import curvatures, r_from_u, segment_potential, u_from_r
from hidra.surface import build_surface


@pytest.fixture
def torus():
    return one_vertex_torus()


@pytest.fixture
def genus2():
    return one_vertex_genus2()


@pytest.fixture
def octahedron():
    return octahedron_sphere()


@pytest.fixture
def tetrahedron():
    return tetrahedron_sphere()


@pytest.fixture
def sphere2():
    return two_triangle_sphere()


@pytest.fixture
def torus_packing(torus):
    """The symmetric anchor packing: I = 2, tanh r = 1/2, cosh lengths 2."""
    return Packing(np.full(3, 2.0), np.full(1, np.arctanh(0.5)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


# The genus-2 fan triangulation as it was once written out by hand,
# (corners, sides) face by face; one_vertex_genus(2) must equal it.
GENUS2_FACES = [
    ((0, 0, 0), (1, 4, 0)),
    ((0, 0, 0), (0, 5, 4)),
    ((0, 0, 0), (1, 6, 5)),
    ((0, 0, 0), (2, 7, 6)),
    ((0, 0, 0), (3, 8, 7)),
    ((0, 0, 0), (2, 3, 8)),
]


def one_vertex_genus2():
    """The one-vertex genus-2 surface: nine loop edges, six faces."""
    return one_vertex_genus(2)


def two_triangle_sphere():
    """Sphere from two triangles glued along their common boundary."""
    return build_surface(
        3,
        [(1, 2), (2, 0), (0, 1)],
        [((0, 1, 2), (0, 1, 2)), ((2, 1, 0), (2, 1, 0))],
    )


def _canonical_cells(surface):
    """Sorted edge end pairs, and faces as (corner, side) pair triples
    each in its least rotation, sorted."""
    edges = sorted(map(sorted, surface.edges.tolist()))
    faces = map(tuple, np.stack([surface.corners, surface.sides], axis=-1).tolist())
    return edges, sorted(min(f[r:] + f[:r] for r in range(3)) for f in faces)


def surfaces_isomorphic(s1, s2):
    """Equality of labelled complexes up to face rotation and order.

    Vertex and edge ids must match; faces may be listed in any order and
    each may be rotated (orientation-preserving relabelling only).
    """
    return s1.vertex_count == s2.vertex_count and (
        _canonical_cells(s1) == _canonical_cells(s2)
    )


def replay_flips_reversed(surface, packing, flip_log):
    """Undo a solve's flip log on its final state (radii untouched)."""
    held = HeldTriangulation(surface, packing)
    for event in reversed(flip_log):
        flip_edge(held, event.edge)
    return held.freeze()


def flipped(surface, packing, *args, **kwargs):
    """(surface', packing', FlipEvent) of one ``flip_edge`` on a held copy
    of (surface, packing), which stay as they are."""
    held = HeldTriangulation(surface, packing)
    event = flip_edge(held, *args, **kwargs)
    return (*held.freeze(), event)


def held_bare(surface):
    """A HeldTriangulation of ``surface`` under uniform labels (inversive
    distance 2, radius 0.5), for tests of the rows a flip rewrites,
    which no label changes.  Hold each surface afresh: the labels of a
    long flip chain grow past overflow."""
    return HeldTriangulation(
        surface, Packing(np.full(surface.edge_count, 2.0), np.full(surface.vertex_count, 0.5))
    )


def ptolemy_residual_relative(event):
    """The Ptolemy residual of a FlipEvent's labels and new value,
    relative to the size of its terms."""
    sextuple = (*event.labels, event.new_value)
    return ptolemy_residual(*sextuple) / ptolemy_residual_scale(*sextuple)


def coo_hessian(surface, packing, symmetrize=True):
    """The oracle of ``hessian``'s cached pattern: the same per-face
    entries as COO triplets, summed and ordered by scipy's ``tocsc``;
    without ``symmetrize``, the raw analytic Jacobian."""
    metrics = SurfaceMetrics(surface, packing)
    corners = surface.corners
    data = -metrics.angle_radius_jacobian() * metrics.sinh_r[corners][:, None, :]
    rows = np.broadcast_to(corners[:, :, None], data.shape)
    cols = np.broadcast_to(corners[:, None, :], data.shape)
    if symmetrize:
        data = 0.5 * np.concatenate([data, data])
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    n = surface.vertex_count
    return coo_array(
        (data.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)
    ).tocsc()


def explicit_flow(surface, packing, target, dt=0.2, tol=1e-8, t_max=200.0):
    """The explicit Euler flow u += dt (Kbar - K) with flip surgery, its
    trials judged by ``ricci_flow``'s rule (the run's trial point, whose
    walk meets no undefined point, and a potential that does not rise),
    dt halving on a rejected one and never growing: the reference
    trajectory for ``ricci_flow``'s linearly implicit steps.  Returns
    the SolveState where it stops."""
    run = solver._Run(
        surface, packing, target, tol, TOL_DELAUNAY, None, solver.DEFAULT_MAX_ITERATIONS
    )
    t = 0.0
    while not (run.error <= tol or t >= t_max):
        while True:
            u_try = solver._clamped_step(run.u, dt * (run.target - run.curvature))
            if not np.array_equal(u_try, run.u):
                trial = run.trial(u_try, True, run.steps)
                if trial is not None and trial.d_pot <= 0.0:
                    break
            dt *= 0.5
            assert dt >= solver.MIN_FLOW_DT, "the explicit flow stalled"
        t += dt
        run.accept(trial, dict(step=run.steps + 1, t=t, dt=dt))
    return run.state("converged" if run.error <= tol else "max_iterations", run.steps)


def ricci_potential(surface, packing, target, u_reference):
    """Normalized Ricci potential of the state relative to u_reference,
    by ``segment_potential`` on the straight segment: the potential is
    defined up to a constant, and path independence makes that segment
    as good as any path."""
    start = Packing(packing.inv, r_from_u(np.asarray(u_reference, float)))
    value, *_ = segment_potential(surface, start, target, u_reference, u_from_r(packing.radii))
    return value


def dumps_mesh(surface, packing, target=None):
    """A mesh file's text, as ``hidra delaunay --mesh-out`` writes it."""
    return dumps_report(mesh_document(surface, packing, target))


def hessian_fd(surface, packing, h=1e-6):
    """Central-difference Jacobian of K with respect to u (the oracle the
    analytic Hessian is validated against)."""
    u0 = u_from_r(packing.radii)
    n = len(u0)
    H = np.zeros((n, n))
    for j in range(n):
        up = u0.copy()
        dn = u0.copy()
        up[j] += h
        dn[j] -= h
        Kp, _ = curvatures(surface, Packing(packing.inv, r_from_u(up)))
        Kn, _ = curvatures(surface, Packing(packing.inv, r_from_u(dn)))
        H[:, j] = (Kp - Kn) / (2.0 * h)
    return H


def unchecked_packing(surface, rng, tanh_range=(0.35, 0.9), inv_range=(1.05, 3.0)):
    """One draw of ``hidra.checks.random_packing``'s sampler, from the
    same random numbers, kept whether or not its faces are compact."""
    radii = np.arctanh(rng.uniform(*tanh_range, size=surface.vertex_count))
    return Packing(rng.uniform(*inv_range, size=len(surface.edges)), radii)


def face_draws(rng, count, inv_high):
    """The kernel of ``count`` faces drawn one at a time, as the
    compactness sweeps draw them: three radii uniform in tanh on
    [0.05, 0.95], then three inversive distances on [1.01, inv_high]."""
    faces = [(np.arctanh(rng.uniform(0.05, 0.95, size=3)), rng.uniform(1.01, inv_high, size=3))
             for _ in range(count)]
    return face_kernel(*(np.array(column) for column in zip(*faces)))


def torus_grid(n):
    """The n x n torus grid: V = n^2, E = 3n^2, F = 2n^2, chi = 0.

    Vertex (i, j) has id i*n + j (indices mod n) and owns edges 3*id to
    (i, j+1), 3*id + 1 to (i+1, j) and the diagonal 3*id + 2 to
    (i+1, j+1); each grid square is split along its diagonal into two
    counter-clockwise faces.
    """

    def vid(i, j):
        return (i % n) * n + j % n

    steps = ((0, 1), (1, 0), (1, 1))
    edges = [
        (vid(i, j), vid(i + di, j + dj))
        for i in range(n) for j in range(n) for di, dj in steps
    ]
    faces = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = vid(i, j), vid(i, j + 1), vid(i + 1, j + 1), vid(i + 1, j)
            faces.append(((a, b, c), (3 * b + 1, 3 * a + 2, 3 * a)))
            faces.append(((a, c, d), (3 * d, 3 * a + 1, 3 * a + 2)))
    return build_surface(n * n, edges, faces)


def checkerboard_packing(surface, n, rng, jitter=0.03):
    """Small circles (tanh r ~ 0.4) on even i + j and large (~ 0.8) on
    odd, inversive distance ~ 3 on the diagonals and ~ 1.5 on the sides,
    each jittered by up to ``jitter``; redrawn until every face is
    compact.  The diagonals between small circles are not weighted
    Delaunay, so about half the diagonals flip (n must be even)."""
    v, e = np.arange(n * n), np.arange(3 * n * n)
    tanh_r = np.where((v // n + v % n) % 2, 0.8, 0.4)
    inv = np.where(e % 3 == 2, 3.0, 1.5)
    for _ in range(1000):
        packing = Packing(
            inv * rng.uniform(1.0 - jitter, 1.0 + jitter, e.size),
            np.arctanh(tanh_r * rng.uniform(1.0 - jitter, 1.0 + jitter, v.size)),
        )
        if (SurfaceMetrics(surface, packing).xi > 0.0).all():
            return packing
    raise RuntimeError("no compact checkerboard packing in 1000 draws")
