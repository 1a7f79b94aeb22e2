"""The scalar reference route of the array kernel, and the geometric
route to the Delaunay predicate, kept as oracles.

``face_metrics`` and ``hinge_delaunay_margin`` evaluate one face or one
hinge in Python floats, with corner angles and orthocircle radii on
top; the array kernel ``hidra.geometry.SurfaceMetrics`` must agree
with them.  The face route has its own laws: the textbook length law
``cosh_length`` and the tanh-radius form of Xi, ``xi_tanh_form``; it
takes no length law from the library.  ``hinge_h_sum`` adds the signed
distances from the two orthocircle centers of a hinge to its shared
edge; its sign must agree with ``hinge_delaunay_margin``.
``develop_face_in_disk`` places a face's circles in the Poincare disk,
where the developed distances must reproduce the cosh lengths of
``face_metrics``.  The remaining helpers are stable hyperbolic
trigonometry (``acosh_stable``, ``sinh_from_cosh``, ``hinge_diagonal``)
and round-trip and identity oracles of the length, hinge-diagonal and
first-order matching formulas.
"""

import cmath
import math
from dataclasses import dataclass

from hidra.checks import dF_df_discrepancy
from hidra.errors import DegenerateTriangle, DomainError
from hidra.geometry import TOL_DELAUNAY, TOL_DOMAIN, _delaunay_margin, _non_compact
from hidra.ptolemy import delta_discriminant


def acosh_stable(x):
    """Inverse hyperbolic cosine, accurate down to x = 1.

    Uses log1p on x - 1 so that the relative error stays ~1 ulp even for
    x - 1 of order 1e-14, where the naive log(x + sqrt(x^2-1)) loses
    half its digits.  Inputs within TOL_DOMAIN below 1 are clamped to 1.
    """
    if x < 1.0 - TOL_DOMAIN:
        raise DomainError(f"acosh argument {x} below 1")
    t = x - 1.0
    if t <= 0.0:
        return 0.0
    return math.log1p(t + math.sqrt(t * (t + 2.0)))


def sinh_from_cosh(c):
    """sinh of the length whose cosh is c, via sqrt((c-1)(c+1)).

    The factored form keeps full precision for c near 1; values within
    roundoff below 1 are treated as sinh = 0.
    """
    return math.sqrt(max(c - 1.0, 0.0) * (c + 1.0))


def _acos_clamped(t):
    if t > 1.0:
        if t > 1.0 + TOL_DOMAIN:
            raise DegenerateTriangle(f"cosine {t} exceeds 1")
        return 0.0
    if t < -1.0:
        if t < -1.0 - TOL_DOMAIN:
            raise DegenerateTriangle(f"cosine {t} below -1")
        return math.pi
    return math.acos(t)


def hinge_diagonal(u, v, w, x, y):
    """cosh distance between the far vertices of a developed hinge.

    The hinge is two triangles glued along the side of cosh-length y:
    (u, x, y) and (v, w, y), with u and v adjacent to the common vertex.
    Developing both into the plane and adding the two angles at that
    vertex gives the diagonal z:

        z = u v - cos(alpha + beta) sinh(acosh u) sinh(acosh v)
    """
    su = sinh_from_cosh(u)
    sv = sinh_from_cosh(v)
    sy = sinh_from_cosh(y)
    if su == 0.0 or sv == 0.0 or sy == 0.0:
        raise DegenerateTriangle("hinge side has zero length")
    alpha = _acos_clamped((u * y - x) / (su * sy))
    beta = _acos_clamped((v * y - w) / (sv * sy))
    return u * v - math.cos(alpha + beta) * su * sv


def cosh_length(r_i, r_j, inv):
    """cosh of the geodesic length induced by two radii and an inversive
    distance: cosh l = cosh r_i cosh r_j + I sinh r_i sinh r_j."""
    if r_i <= 0.0 or r_j <= 0.0:
        raise DomainError("radii must be positive")
    if inv <= 1.0:
        raise DomainError("inversive distance must exceed 1")
    return math.cosh(r_i) * math.cosh(r_j) + inv * math.sinh(r_i) * math.sinh(r_j)


def xi_tanh_form(radii, inv):
    """Compactness discriminant Xi of one face in the tanh-radius form,
    ``inv[m]`` on the side opposite corner m:

        Xi prod(1 - t^2) = sum_m (1 - I_m^2) t_n^2 t_p^2
                           + 2 t_0 t_1 t_2 sum_m (I_m + I_n I_p) t_m

    with t = tanh r and (n, p) the other two slots of m.
    """
    t = [math.tanh(r) for r in radii]
    total = 0.0
    for m in range(3):
        n, p = (m + 1) % 3, (m + 2) % 3
        total += (1.0 - inv[m] ** 2) * t[n] ** 2 * t[p] ** 2
        total += 2.0 * (inv[m] + inv[n] * inv[p]) * t[m] * t[0] * t[1] * t[2]
    return total / math.prod(1.0 - s * s for s in t)


@dataclass(frozen=True)
class FaceMetrics:
    """All metric quantities of one face, slot-ordered by corner.

    ``cosh_lengths[m]`` is the cosh length of the side opposite corner m,
    ``inv[m]`` its inversive distance; radii follow the corners.
    """

    face: int
    corners: tuple
    sides: tuple
    radii: tuple
    cosh_radii: tuple
    cosh_lengths: tuple
    inv: tuple
    xi: float
    delta: float


def face_metrics(surface, packing, face):
    """Evaluate FaceMetrics for one face of the surface (scalar
    reference of SurfaceMetrics)."""
    corners, sides = surface.corners[face].tolist(), surface.sides[face].tolist()
    return _face_metrics(packing, face, tuple(corners), tuple(sides))


def _face_metrics(packing, face, corners, sides):
    radii = tuple(float(packing.radii[v]) for v in corners)
    inv = tuple(float(packing.inv[e]) for e in sides)
    cosh_lengths = tuple(
        cosh_length(radii[(m + 1) % 3], radii[(m + 2) % 3], inv[m])
        for m in range(3)
    )
    return FaceMetrics(
        face=face,
        corners=corners,
        sides=sides,
        radii=radii,
        cosh_radii=tuple(math.cosh(r) for r in radii),
        cosh_lengths=cosh_lengths,
        inv=inv,
        xi=xi_tanh_form(radii, inv),
        delta=delta_discriminant(*inv),
    )


def _hinge_faces_metrics(hv, packing):
    """FaceMetrics of the two hinge faces, hinge-labelled.

    Both are built with corner order (i, j, apex), so slot 2 is the
    shared edge in each.
    """
    return (
        _face_metrics(
            packing, hv.face_k, (hv.v_i, hv.v_j, hv.v_k), (hv.e_d, hv.e_a, hv.edge)
        ),
        _face_metrics(
            packing, hv.face_l, (hv.v_i, hv.v_j, hv.v_l), (hv.e_c, hv.e_b, hv.edge)
        ),
    )


def hinge_delaunay_margin(hv, packing):
    """Algebraic local Delaunay margin of a hinge (RHS minus LHS of the
    flip inequality).

    With hinge labels (a, b, c, d, e), f the flip value of the diagonal,
    and hatted tanh radii, the edge is local weighted Delaunay iff

        sqrt(D_bce)/p^ + sqrt(D_ade)/r^ <= sqrt(D_cdf)/q^ + sqrt(D_abf)/s^

    Both faces must have compact orthocircles (Xi > 0).
    """
    for fm in _hinge_faces_metrics(hv, packing):
        if fm.xi <= 0.0:
            raise _non_compact(fm.face, fm.xi)
    labels = tuple(float(packing.inv[eid]) for eid in (*hv.boundary_edges, hv.edge))
    t = (math.tanh(float(packing.radii[v])) for v in (hv.v_i, hv.v_j, hv.v_k, hv.v_l))
    return float(_delaunay_margin(labels, *t))


def angle_from_sides(x, y, z):
    """Angle opposite the side of cosh-length x, given all three sides.

    cos A = (cosh y cosh z - cosh x) / (sinh y sinh z)
    """
    sy = sinh_from_cosh(y)
    sz = sinh_from_cosh(z)
    if sy == 0.0 or sz == 0.0:
        raise DegenerateTriangle("adjacent side has zero length")
    return _acos_clamped((y * z - x) / (sy * sz))


def face_angles(fm):
    """Corner angles of FaceMetrics ``fm`` (angle m at corner m)."""
    x, y, z = fm.cosh_lengths
    return angle_from_sides(x, y, z), angle_from_sides(y, z, x), angle_from_sides(z, x, y)


def orthocircle_radius(fm):
    """Radius of the face's orthogonal circle.

    sinh rho = sinh r_i sinh r_j sinh r_k sqrt(Delta / Xi); defined only
    while the circle is compact (Xi > 0).
    """
    if fm.xi <= 0.0:
        raise _non_compact(fm.face, fm.xi)
    sinh_rho = (
        math.prod(math.sinh(r) for r in fm.radii)
        * math.sqrt(fm.delta)
        / math.sqrt(fm.xi)
    )
    return math.asinh(sinh_rho)


def inversive_from_length(r_i, r_j, cosh_l):
    """Exact inverse of cosh_length:
    I = (cosh l - cosh r_i cosh r_j) / (sinh r_i sinh r_j)."""
    if r_i <= 0.0 or r_j <= 0.0:
        raise DomainError("radii must be positive")
    return (cosh_l - math.cosh(r_i) * math.cosh(r_j)) / (
        math.sinh(r_i) * math.sinh(r_j)
    )


def triangle_inequalities_hold(fm):
    """Whether the cosh lengths of FaceMetrics ``fm`` bound a triangle."""
    x, y, z = fm.cosh_lengths
    sx, sy, sz = (sinh_from_cosh(c) for c in fm.cosh_lengths)
    return x < y * z + sy * sz and y < x * z + sx * sz and z < x * y + sx * sy


def signed_center_distance(fm, slot):
    """Signed distance from the orthocircle center to the side ``slot``.

    Positive when the center lies on the same side of the edge as the
    opposite corner.  Solved from the linear relation

        sinh h * sqrt((Y^2-1) Xi) = (B Y - A) p_i + (A Y - B) p_j - (Y^2-1) p_k

    with Y the cosh length of the edge, A and B the cosh lengths of the
    sides at its two endpoints, and p the cosh radii; the linear form
    (rather than its square) preserves the sign.
    """
    if fm.xi <= 0.0:
        raise _non_compact(fm.face, fm.xi)
    yy = fm.cosh_lengths[slot]
    aa = fm.cosh_lengths[(slot + 2) % 3]  # side joining corner slot+1 to the apex
    bb = fm.cosh_lengths[(slot + 1) % 3]  # side joining corner slot+2 to the apex
    p_i = fm.cosh_radii[(slot + 1) % 3]
    p_j = fm.cosh_radii[(slot + 2) % 3]
    p_k = fm.cosh_radii[slot]
    num = (bb * yy - aa) * p_i + (aa * yy - bb) * p_j - (yy * yy - 1.0) * p_k
    sinh_h = num / math.sqrt((yy * yy - 1.0) * fm.xi)
    return math.asinh(sinh_h)


def hinge_h_sum(hv, packing):
    """sinh h_k / sinh rho_k + sinh h_l / sinh rho_l across the hinge.

    This is the geometric route to the Delaunay predicate: the sum is
    non-negative exactly when the two signed center distances add to a
    non-negative total.
    """
    total = 0.0
    for fm in _hinge_faces_metrics(hv, packing):
        h = signed_center_distance(fm, 2)
        rho = orthocircle_radius(fm)
        total += math.sinh(h) / math.sinh(rho)
    return total


def is_local_delaunay(hv, packing, tol=TOL_DELAUNAY):
    """(flag, margin) for the hinge: Delaunay iff margin >= -tol."""
    margin = hinge_delaunay_margin(hv, packing)
    return margin >= -tol, margin


def disk_point(distance, angle):
    """Poincare-disk coordinates of the point at a given hyperbolic
    distance from the origin along a direction angle."""
    return cmath.rect(math.tanh(0.5 * distance), angle)


def disk_distance(z1, z2):
    """Hyperbolic distance between two Poincare-disk points."""
    num = 2.0 * abs(z1 - z2) ** 2
    den = (1.0 - abs(z1) ** 2) * (1.0 - abs(z2) ** 2)
    return acosh_stable(1.0 + num / den)


def develop_face_in_disk(fm):
    """Isometric placement of a face's vertex circles in the Poincare disk.

    Corner 0 sits at the origin, corner 1 on the positive real axis, and
    corner 2 in the upper half (counterclockwise orientation).  Returns
    (centers, radii) with centers as complex disk coordinates.
    """
    if not triangle_inequalities_hold(fm):
        raise DegenerateTriangle(f"face {fm.face} cannot be developed")
    l01 = acosh_stable(fm.cosh_lengths[2])
    l02 = acosh_stable(fm.cosh_lengths[1])
    theta = angle_from_sides(*fm.cosh_lengths)
    centers = (0j, disk_point(l01, 0.0), disk_point(l02, theta))
    return centers, fm.radii


def hinge_poly_residual(u, v, w, x, y, z):
    """Relative residual of the algebraic identity tying z to (u,v,w,x,y).

    A developed hinge's six cosh values satisfy

        u^2 w^2 + v^2 x^2 + y^2 z^2 - u^2 - v^2 - w^2 - x^2 - y^2 - z^2 + 1
        - 2 (u v w x + u w y z + v x y z - v w y - u x y - u v z - w x z) = 0.

    Returns the left side divided by the largest monomial magnitude.
    """
    terms = (
        u * u * w * w,
        v * v * x * x,
        y * y * z * z,
        -u * u,
        -v * v,
        -w * w,
        -x * x,
        -y * y,
        -z * z,
        1.0,
        -2.0 * u * v * w * x,
        -2.0 * u * w * y * z,
        -2.0 * v * x * y * z,
        2.0 * v * w * y,
        2.0 * u * x * y,
        2.0 * u * v * z,
        2.0 * w * x * z,
    )
    scale = max(abs(t) for t in terms)
    return math.fsum(terms) / scale


def dF_df_check(deghinge, parameter, step):
    """Discrepancy |dF - df| at a constructed degenerate hinge."""
    return dF_df_discrepancy(deghinge.parameters(), parameter, step)
