"""The array metric kernel against the scalar per-face reference.

The references below evaluate one face or hinge at a time with
``face_metrics`` and ``hinge_delaunay_margin`` of ``geometry_oracle``,
the way the library did before the kernel existed.  Each one records the face at which it
raises, so failures are compared by exception class and face as well.
A batch of radii rows is checked against the kernel on each row alone.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import one_vertex_genus2, two_triangle_sphere, unchecked_packing
from hidra.checks import random_packing
from hidra.complexes import octahedron_sphere, one_vertex_torus
from hidra.errors import DegenerateTriangle, DomainError, NonCompactOrthocircle
from hidra.flips import surface_delaunay_margins
from hidra import geometry
from hidra.geometry import Packing, SurfaceMetrics
from hidra.solver import curvatures, hessian
from hidra.surface import hinge

from geometry_oracle import face_angles, face_metrics, hinge_delaunay_margin, sinh_from_cosh

REL_TOL = 1e-12


class Raised(Exception):
    def __init__(self, error, face):
        super().__init__(f"{type(error).__name__} at face {face}")
        self.error = error
        self.face = face


def scalar_faces(surface, packing):
    """FaceMetrics and corner angles of every face, in face order."""
    out = []
    for fid in range(surface.face_count):
        try:
            fm = face_metrics(surface, packing, fid)
            out.append((fm, face_angles(fm)))
        except DomainError as exc:
            raise Raised(exc, fid) from exc
    return out


def scalar_curvatures(surface, packing):
    angle_sum = np.zeros(surface.vertex_count)
    total_area = 0.0
    for fm, angles in scalar_faces(surface, packing):
        for m in range(3):
            angle_sum[fm.corners[m]] += angles[m]
        total_area += math.pi - math.fsum(angles)
    return 2.0 * math.pi - angle_sum, total_area


def scalar_angle_radius_jacobian(fm, angles):
    """3x3 derivatives of corner angle m by corner radius n."""
    C = fm.cosh_lengths
    S = tuple(sinh_from_cosh(c) for c in C)
    R = fm.radii
    dC = [[0.0] * 3 for _ in range(3)]
    for s in range(3):
        n1, n2 = (s + 1) % 3, (s + 2) % 3
        dC[s][n1] = math.sinh(R[n1]) * math.cosh(R[n2]) + fm.inv[s] * math.cosh(
            R[n1]
        ) * math.sinh(R[n2])
        dC[s][n2] = math.sinh(R[n2]) * math.cosh(R[n1]) + fm.inv[s] * math.cosh(
            R[n2]
        ) * math.sinh(R[n1])
    J = [[0.0] * 3 for _ in range(3)]
    for m in range(3):
        m1, m2 = (m + 1) % 3, (m + 2) % 3
        sin_t = math.sin(angles[m])
        dT = [0.0] * 3
        dT[m] = 1.0 / (S[m1] * S[m2] * sin_t)
        dT[m1] = (C[m2] - C[m] * C[m1]) / (S[m1] ** 3 * S[m2] * sin_t)
        dT[m2] = (C[m1] - C[m] * C[m2]) / (S[m2] ** 3 * S[m1] * sin_t)
        for n in range(3):
            J[m][n] = math.fsum(dT[s] * dC[s][n] for s in range(3))
    return J


def scalar_hessian(surface, packing):
    H = np.zeros((surface.vertex_count, surface.vertex_count))
    sinh_r = np.sinh(packing.radii)
    for fm, angles in scalar_faces(surface, packing):
        J = scalar_angle_radius_jacobian(fm, angles)
        for m in range(3):
            for n in range(3):
                H[fm.corners[m], fm.corners[n]] -= J[m][n] * sinh_r[fm.corners[n]]
    return 0.5 * (H + H.T)


def scalar_margins(surface, packing):
    for fid in range(surface.face_count):
        try:
            xi = face_metrics(surface, packing, fid).xi
        except DomainError as exc:
            raise Raised(exc, fid) from exc
        if xi <= 0.0:
            raise Raised(NonCompactOrthocircle("", face=fid, xi=xi), fid)
    edges = range(len(surface.edges))
    return np.array([hinge_delaunay_margin(hinge(surface, e), packing) for e in edges])


def outcome(func, *args):
    """(value, None) or (None, Raised) for a scalar reference."""
    try:
        return func(*args), None
    except Raised as exc:
        return None, exc


def assert_same_failure(kernel_call, raised):
    with pytest.raises(type(raised.error)) as info:
        kernel_call()
    assert type(info.value) is type(raised.error)
    assert info.value.face == raised.face


def close(kernel, reference):
    scale = max(1.0, float(np.max(np.abs(reference))))
    return float(np.max(np.abs(np.asarray(kernel) - reference))) <= REL_TOL * scale


BUILDERS = {
    "torus1": one_vertex_torus,
    "genus2": one_vertex_genus2,
    "octahedron": octahedron_sphere,
}


@given(
    name=st.sampled_from(sorted(BUILDERS)),
    seed=st.integers(0, 2**32 - 1),
    compact=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_scalar_reference(name, seed, compact):
    surface = BUILDERS[name]()
    rng = np.random.default_rng(seed)
    if compact:
        packing = random_packing(surface, rng, inv_range=(1.05, 12.0), max_tries=5000)
    else:
        packing = unchecked_packing(surface, rng, inv_range=(1.05, 12.0))

    ref, raised = outcome(scalar_curvatures, surface, packing)
    if raised is None:
        K, area = curvatures(surface, packing)
        assert close(K, ref[0]) and close(area, ref[1])
        H = hessian(surface, packing).toarray()
        assert close(H, scalar_hessian(surface, packing))
    else:
        assert_same_failure(lambda: curvatures(surface, packing), raised)
        assert_same_failure(lambda: hessian(surface, packing), raised)

    ref, raised = outcome(scalar_margins, surface, packing)
    if raised is None:
        assert close(surface_delaunay_margins(surface, packing), ref)
    else:
        assert_same_failure(lambda: surface_delaunay_margins(surface, packing), raised)


def test_single_face_and_edge_reads_of_the_kernel():
    """``hidra.geometry.face_metrics`` and ``hinge_delaunay_margin`` read
    one face's Xi and cosh lengths and one edge's margin of the kernel."""
    surface = one_vertex_genus2()
    packing = random_packing(surface, np.random.default_rng(3), inv_range=(1.05, 12.0),
                             max_tries=5000)
    for fid in range(surface.face_count):
        got, want = geometry.face_metrics(surface, packing, fid), face_metrics(surface, packing, fid)
        assert close(got.xi, want.xi) and close(got.cosh_lengths, want.cosh_lengths)
    got = [geometry.hinge_delaunay_margin(surface, packing, e) for e in range(len(surface.edges))]
    assert close(got, scalar_margins(surface, packing))


def test_reference_failures_are_exercised():
    """The sweep above meets both kinds of failing face."""
    kinds = set()
    for name, builder in BUILDERS.items():
        surface = builder()
        rng = np.random.default_rng(7)
        for _ in range(60):
            packing = unchecked_packing(surface, rng, inv_range=(1.05, 12.0))
            for func in (scalar_curvatures, scalar_margins):
                _, raised = outcome(func, surface, packing)
                if raised is not None:
                    kinds.add(type(raised.error))
    assert kinds == {DegenerateTriangle, NonCompactOrthocircle}


def test_domain_fault_named_by_face(torus):
    packing = Packing(np.array([2.0, 2.0, 2.0]), np.array([math.inf]))
    for func in (curvatures, hessian, surface_delaunay_margins):
        with pytest.raises(DomainError) as info:
            func(torus, packing)
        assert info.value.face == 0


def first_failure(call):
    """The exception a kernel call raises, or None."""
    try:
        call()
    except (DomainError, NonCompactOrthocircle) as exc:
        return exc
    return None


@given(
    name=st.sampled_from(sorted(BUILDERS)),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 6),
    fault=st.sampled_from([None, 0.0, math.inf]),
)
@settings(max_examples=150, deadline=None)
def test_batched_kernel_matches_single_packings(name, seed, rows, fault):
    """Every row of a (B, V) batch against SurfaceMetrics of that row
    alone: the values of the rows valid alone, and the first faulting
    row's error."""
    surface = BUILDERS[name]()
    rng = np.random.default_rng(seed)
    inv = unchecked_packing(surface, rng, inv_range=(1.05, 12.0)).inv
    radii = np.arctanh(rng.uniform(0.35, 0.9, size=(rows, surface.vertex_count)))
    if fault is not None:
        radii[rng.integers(rows), rng.integers(surface.vertex_count)] = fault
    batch = SurfaceMetrics(surface, Packing(inv, radii))
    singles = [SurfaceMetrics(surface, Packing(inv, r)) for r in radii]

    valid = {}
    for prop in ("angles", "margins"):
        errors = [first_failure(lambda m=m: getattr(m, prop)) for m in singles]
        valid[prop] = defined = np.array([e is None for e in errors])
        if defined.any():
            sub = SurfaceMetrics(surface, Packing(inv, radii[defined]))
            good = [m for m, ok in zip(singles, defined) if ok]
            for value, single in zip(getattr(sub, prop), good):
                assert close(value, getattr(single, prop))
        faults = [e for e in errors if e is not None]
        if faults:
            raised = Raised(faults[0], faults[0].face)
            assert_same_failure(lambda: getattr(batch, prop), raised)

    fine = valid["angles"]
    if fine.any():
        K, area = curvatures(surface, Packing(inv, radii[fine]))
        for k, a, r in zip(K, area, radii[fine]):
            K1, a1 = curvatures(surface, Packing(inv, r))
            assert close(k, K1) and close(a, a1)
        sub = SurfaceMetrics(surface, Packing(inv, radii[fine]))
        if first_failure(sub.angle_radius_jacobian) is None:  # no flat corner
            for J, r in zip(sub.angle_radius_jacobian(), radii[fine]):
                single = SurfaceMetrics(surface, Packing(inv, r))
                assert close(J, single.angle_radius_jacobian())
    if not fine.all():
        first = first_failure(lambda: singles[int(fine.argmin())].angles)
        raised = Raised(first, first.face)
        assert_same_failure(lambda: curvatures(surface, Packing(inv, radii)), raised)


def same_bits(row, single):
    """Arrays equal bit for bit, or the same failure from both calls."""
    got, want = (first_failure(call) for call in (row, single))
    if want is not None:
        assert type(got) is type(want) and got.face == want.face
    else:
        assert got is None and np.array_equal(row(), single())


@given(
    name=st.sampled_from(sorted(BUILDERS)),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 6),
)
@settings(max_examples=150, deadline=None)
def test_batch_row_is_the_single_kernel_bit_for_bit(name, seed, rows):
    """``row(b)`` of a batch whose curvatures were taken, as the walk's
    quadrature takes them, against SurfaceMetrics of row b's radii alone:
    every array it copied out and every later evaluation on it equal bit
    for bit, and so are the batch's curvature and area rows and the
    batch's radii from a batch of u (the walk's end kernel is such a row)."""
    surface = BUILDERS[name]()
    rng = np.random.default_rng(seed)
    inv = unchecked_packing(surface, rng, inv_range=(1.05, 12.0)).inv
    u = np.log(rng.uniform(0.35, 0.9, size=(rows, surface.vertex_count)))
    radii = geometry.r_from_u(u)
    fine = [first_failure(lambda r=r: SurfaceMetrics(surface, Packing(inv, r)).angles) is None
            for r in radii]
    assume(any(fine))
    radii = radii[fine]
    batch = SurfaceMetrics(surface, Packing(inv, radii))
    K, area = curvatures(surface, batch.packing, batch)
    for b, r in enumerate(radii):
        row, single = batch.row(b), SurfaceMetrics(surface, Packing(inv, r))
        assert np.array_equal(r, geometry.r_from_u(u[fine][b]))
        assert np.array_equal(row.packing.radii, r) and row.packing.inv is inv
        copied = [k for k, v in vars(row).items() if isinstance(v, np.ndarray)]
        assert {"cos_angles", "angles", "face_areas"} <= set(copied)
        assert row.angles is row.unchecked_angles  # one copy of the batch's one array
        for key in copied + ["xi", "margins"]:
            same_bits(lambda: getattr(row, key), lambda: getattr(single, key))
        same_bits(row.angle_radius_jacobian, single.angle_radius_jacobian)
        K1, area1 = curvatures(surface, single.packing, single)
        assert np.array_equal(K[b], K1) and area[b] == area1
        assert np.array_equal(curvatures(surface, row.packing, row)[0], K1)


def mp_cosines(radii, inv):
    """Corner cosines of one face by the hyperbolic law of cosines, in
    the working precision of mpmath (slot m opposite corner m)."""
    import mpmath as mp

    ch, sh = [mp.cosh(r) for r in radii], [mp.sinh(r) for r in radii]
    C = [ch[(m + 1) % 3] * ch[(m + 2) % 3] + inv[m] * sh[(m + 1) % 3] * sh[(m + 2) % 3]
         for m in range(3)]
    S = [mp.sqrt(c * c - 1) for c in C]
    return [(C[(m + 1) % 3] * C[(m + 2) % 3] - C[m]) / (S[(m + 1) % 3] * S[(m + 2) % 3])
            for m in range(3)]


@given(
    tanh_r=st.lists(st.floats(1e-3, 0.99), min_size=3, max_size=3),
    inv=st.lists(st.floats(1.0 + 1e-4, 30.0), min_size=3, max_size=3),
)
@settings(max_examples=200)
def test_cosines_and_jacobian_against_mpmath(tanh_r, inv):
    """``cos_angles`` and ``angle_radius_jacobian`` of one face against
    40 digits: the law of cosines and mpmath's numerical derivative of
    the angles, at the kernel's own float radii and inversive distances.

    The float cosines lose about eps / r^2 to cancellation in cosh
    lengths 1 + O(r^2), and the Jacobian that much more again near a
    flat corner, by 1 / sin^2 of the smallest angle.  Relative to the
    face's largest entry, 6000 random faces in this range and flat faces
    approached to sin = 1e-4 gave at most 1.3 eps / t^2 for the cosines
    and 0.84 eps / (t^2 sin^2) for the Jacobian, with t the smallest
    tanh r; the bound below is 4 of those units.
    """
    import mpmath as mp

    surface, radii = two_triangle_sphere(), np.arctanh(tanh_r)
    metrics = SurfaceMetrics(surface, Packing(inv, radii))
    assume((np.abs(metrics.cos_angles) < 1.0).all())
    with mp.workdps(40):
        r, I = [mp.mpf(x) for x in radii], [mp.mpf(x) for x in inv]
        cos = mp_cosines(r, I)
        assume(all(abs(c) < 1 for c in cos))
        jac = [[mp.diff(lambda x: mp.acos(mp_cosines(r[:n] + [x] + r[n + 1:], I)[m]), r[n])
                for n in range(3)] for m in range(3)]
        sin2 = float(min(1 - c * c for c in cos))
        cos, jac = (np.array(v, dtype=float) for v in (cos, jac))
    unit = np.finfo(float).eps / min(tanh_r) ** 2
    for got, want, bound in ((metrics.cos_angles[0], cos, 4.0 * unit),
                             (metrics.angle_radius_jacobian()[0], jac, 4.0 * unit / sin2)):
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))
