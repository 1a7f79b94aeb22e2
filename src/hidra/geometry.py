"""Metric layer of an inversive-distance circle packing.

A packing assigns a radius to every vertex and an inversive distance
greater than 1 to every edge (disjoint-circle regime).  Everything here
is a pure function of (surface, packing): edge lengths, per-face
discriminants, orthogonal circles, curvatures and area, and the local
weighted Delaunay margin.  The u chart and SolveState are here too.

Solvers, flip loop, reports and ``verify`` take every metric quantity
from one array kernel, ``SurfaceMetrics``, whose formulas also serve the
flip loop's held rows and the walk's certificate (``_cosh_forms``).
``face_metrics`` and ``hinge_delaunay_margin`` read one face's or one
edge's values from it; nothing in the library calls them.  The scalar
reference route the kernel is tested against is in
``tests/geometry_oracle.py``.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .errors import DegenerateTriangle, DomainError, NonCompactOrthocircle
from .hyptrig import TOL_DOMAIN
from .ptolemy import _sqrt, delta_discriminant, ptolemy_flip_value
from .surface import euler_characteristic

# Margin band within which a hinge counts as Delaunay and is never
# flipped; the transition is C1 there, so either choice is consistent,
# and not flipping prevents cycling at degenerate hinges.
TOL_DELAUNAY = 1e-10

# Face slot m is corner m and the side opposite it, which joins corners
# NEXT[m] and PREV[m]; the angle at corner m lies between those sides.
NEXT = np.array([1, 2, 0])
PREV = np.array([2, 0, 1])


@dataclass(frozen=True)
class Packing:
    """Per-edge inversive distances (> 1) and per-vertex radii (> 0)."""

    inv: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inv", np.asarray(self.inv, dtype=float))
        object.__setattr__(self, "radii", np.asarray(self.radii, dtype=float))


STATUS_CONVERGED = "converged"


def u_from_r(radii):
    """u = log tanh(r/2) componentwise; the image is (-inf, 0)."""
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0.0):
        raise DomainError("radii must be positive")
    return np.log(np.tanh(0.5 * radii))


def r_from_u(u):
    """r = 2 artanh(exp(u)); inverse of u_from_r."""
    u = np.asarray(u, dtype=float)
    if np.any(u >= 0.0):
        raise DomainError("u-coordinates must be negative")
    return 2.0 * np.arctanh(np.exp(u))


@dataclass
class SolveState:
    """Result of a curvature-prescription run or of flip surgery alone.
    Omitted, ``u`` is u_from_r of the radii; surgery alone has no target, curvature,
    area, potential or spectrum sign, 0 iterations and, by default, status converged.
    ``metrics``, if given, is the array kernel of the state's surface and packing."""

    surface: object
    packing: Packing
    u: np.ndarray = None
    target: np.ndarray = None
    curvature: np.ndarray = None
    total_area: float = None
    status: str = STATUS_CONVERGED
    iterations: int = 0
    flip_log: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    potential: float = None
    hessian_sign: int = None
    metrics: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.u is None:
            self.u = u_from_r(self.packing.radii)

    @property
    def max_error(self):
        return float(np.max(np.abs(self.curvature - self.target)))


def validate_packing(surface, packing):
    """Operational validity check for a packing on a surface.

    Requires I > 1 on every edge, r > 0 finite on every vertex, and
    that every face satisfies the triangle inequalities under the
    induced edge lengths, with every corner cosine in [-1, 1] as
    ``angles`` checks it.  This proxy is weaker than bounding radii by
    injectivity radii, which is not computable from (I, r) alone; all
    downstream formulas depend only on the proxy.  Returns the array
    kernel of (surface, packing) it checked with.
    """
    if len(packing.inv) != len(surface.edges):
        raise DomainError("inversive distance count does not match edge count")
    if len(packing.radii) != surface.vertex_count:
        raise DomainError("radius count does not match vertex count")
    if not np.all(np.isfinite(packing.radii)) or np.any(packing.radii <= 0.0):
        raise DomainError("radii must be positive and finite")
    if not np.all(np.isfinite(packing.inv)) or np.any(packing.inv <= 1.0):
        raise DomainError("inversive distances must exceed 1")
    m = SurfaceMetrics(surface, packing)
    C, S = m.cosh_lengths, m.sinh_lengths
    with np.errstate(over="ignore"):  # a length past the float range fails ``angles``
        triangle = (C < C[:, NEXT] * C[:, PREV] + S[:, NEXT] * S[:, PREV]).all(axis=1)
    m.check(triangle, lambda face, at: _degenerate(face, "violates the triangle inequalities"))
    m.angles  # raises as ``curvatures`` does on this kernel
    return m


def edge_cosh_length(r_i, r_j, inv):
    """cosh of the geodesic length induced by two radii and an inversive
    distance: cosh l = cosh r_i cosh r_j + I sinh r_i sinh r_j."""
    if r_i <= 0.0 or r_j <= 0.0:
        raise DomainError("radii must be positive")
    if inv <= 1.0:
        raise DomainError("inversive distance must exceed 1")
    return _cosh_length(math.cosh(r_i), math.sinh(r_i), math.cosh(r_j), math.sinh(r_j), inv)


def _cosh_length(c_i, s_i, c_j, s_j, inv):
    """The length law, from the cosh and sinh of the end radii; elementwise."""
    return c_i * c_j + inv * s_i * s_j


def _radius_functions(radii):
    """tanh, cosh and sinh of the radii; cosh and sinh overflow to inf."""
    with np.errstate(over="ignore"):
        return np.tanh(radii), np.cosh(radii), np.sinh(radii)


def auxiliary_length(r_i, r_j, inv):
    """sqrt(tanh^2 r_i + tanh^2 r_j + 2 I tanh r_i tanh r_j).

    The triangle inequalities of these per-edge quantities characterise
    the sign of the compactness discriminant Xi.
    """
    if r_i <= 0.0 or r_j <= 0.0:
        raise DomainError("radii must be positive")
    ti = math.tanh(r_i)
    tj = math.tanh(r_j)
    return math.sqrt(ti * ti + tj * tj + 2.0 * inv * ti * tj)


def xi_discriminant(radii, inv):
    """Compactness discriminant Xi of one face, in the tanh-radius form.

    ``radii`` are the three corner radii, ``inv`` the inversive
    distances of the opposite sides (slot m opposite corner m).  The
    orthogonal circle of the face is a compact circle iff Xi > 0.
    """
    tp, tq, tr = (math.tanh(r) for r in radii)
    return _xi_numerator(tp, tq, tr, *inv) / (
        (1.0 - tp * tp) * (1.0 - tq * tq) * (1.0 - tr * tr)
    )


def _xi_numerator(tp, tq, tr, a, b, c):
    """Xi times prod(1 - tanh^2 r); elementwise on arrays."""
    return (
        (1.0 - c * c) * tp * tp * tq * tq
        + (1.0 - b * b) * tp * tp * tr * tr
        + (1.0 - a * a) * tq * tq * tr * tr
        + 2.0
        * ((a + b * c) * tp + (b + a * c) * tq + (c + a * b) * tr)
        * tp
        * tq
        * tr
    )


def _non_compact(face, xi):
    return NonCompactOrthocircle(
        f"face {face} has Xi = {xi:.3e} <= 0", face=face, xi=float(xi)
    )


def _degenerate(face, what):
    return DegenerateTriangle(f"face {face} {what}", face=face)


class SurfaceMetrics:
    """The array kernel: metric quantities of all faces and hinges.

    Radii are (V,), or (B, V) for a batch of packings that differ only
    in their radii; arrays then gain the leading batch axis.  Face
    arrays are (..., F, 3), slot m for corner m and the side opposite
    it, and computed on first access.  Preconditions are checked on
    every face first; the exception raised names the lowest face at
    fault, of the first row at fault: DomainError (radius not positive and finite,
    inversive distance not above 1, or overflowing length), then
    DegenerateTriangle from ``angles`` or NonCompactOrthocircle from
    ``margins``; checked values hold no NaN.
    """

    def __init__(self, surface, packing):
        self.surface, self.packing = surface, packing
        self.corners = corners = surface.corners
        radii = packing.radii
        self.inv = packing.inv[surface.sides]
        self.tanh_r, self.cosh_r, self.sinh_r = _radius_functions(radii)
        cr, sr = self.cosh_r[..., corners], self.sinh_r[..., corners]
        with np.errstate(over="ignore", invalid="ignore"):
            C = _cosh_length(cr[..., NEXT], sr[..., NEXT], cr[..., PREV], sr[..., PREV], self.inv)
            self.sinh_lengths = np.sqrt(np.maximum(C - 1.0, 0.0) * (C + 1.0))
        self.domain_ok = (
            (radii[..., corners] > 0.0).all(axis=-1)
            & (self.inv > 1.0).all(axis=-1)
            & np.isfinite(C).all(axis=-1)
        )
        self.cosh_lengths = C

    def row(self, b):
        """Row ``b`` of a batch as the kernel of its packing alone, the arrays
        evaluated so far copied out, so that the batch can be freed."""
        shared, rows = ("surface", "corners", "inv", "delta"), {}  # no batch axis; one copy per array
        out = object.__new__(SurfaceMetrics)
        out.__dict__ = {k: v if k in shared else rows.setdefault(id(v), v[b].copy())
                        for k, v in vars(self).items() if k != "packing"}
        out.packing = Packing(self.packing.inv, self.packing.radii[b].copy())
        return out

    def check(self, ok, error):
        """Raise for the lowest face failing the domain test (DomainError)
        or the (..., F) mask ``ok`` (``error(face, at)``, with ``at`` the
        index of that face in ``ok``), in the first row that has one."""
        bad = ~(self.domain_ok & ok)
        if bad.any():
            at = np.unravel_index(bad.argmax(), bad.shape)
            face = int(at[-1])
            if not self.domain_ok[at]:
                raise DomainError(f"face {face} is outside the domain", face=face)
            raise error(face, at)

    @cached_property
    def cos_angles(self):
        """(..., F, 3) corner cosines before clamping (law of cosines)."""
        C, S = self.cosh_lengths, self.sinh_lengths
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return (C[..., NEXT] * C[..., PREV] - C) / (S[..., NEXT] * S[..., PREV])

    @cached_property
    def angle_ok(self):
        """(..., F) whether all corner cosines are TOL_DOMAIN-near [-1, 1]."""
        return (np.abs(self.cos_angles) <= 1.0 + TOL_DOMAIN).all(axis=-1)

    @cached_property
    def unchecked_angles(self):
        """(..., F, 3) corner angles, cosines clamped into [-1, 1]; unchecked."""
        return np.arccos(np.clip(self.cos_angles, -1.0, 1.0))

    @cached_property
    def angles(self):
        """``unchecked_angles``, every face checked."""
        self.check(
            self.angle_ok,
            lambda face, at: _degenerate(face, "has a corner cosine outside [-1, 1]"),
        )
        return self.unchecked_angles

    @cached_property
    def face_areas(self):
        """(..., F) areas pi minus the angle sum, of ``unchecked_angles``."""
        return math.pi - self.unchecked_angles.sum(axis=-1)

    @cached_property
    def delta(self):
        """(..., F) Delta discriminant of each face's three inversive distances."""
        with np.errstate(over="ignore", invalid="ignore"):
            return delta_discriminant(*self.inv.T)

    @cached_property
    def sinh_rho(self):
        """(..., F) sinh of the orthocircle radius, prod sinh r sqrt(Delta / Xi)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return np.prod(self.sinh_r[..., self.corners], axis=-1) * np.sqrt(self.delta) / np.sqrt(self.xi)

    @cached_property
    def xi(self):
        """(..., F) compactness discriminant Xi, as in ``xi_discriminant``
        but with 1 / (1 - tanh^2 r) evaluated as cosh^2 r, which stays
        finite as tanh r rounds to 1."""
        corners = self.corners
        t = np.moveaxis(self.tanh_r[..., corners], -1, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            num = _xi_numerator(*t, *self.inv.T)
            return num * np.prod(self.cosh_r[..., corners], axis=-1) ** 2

    @cached_property
    def margins(self):
        """(..., E) local Delaunay margin of every edge (see
        ``_delaunay_margin``); every face must be compact."""
        self.check(self.xi > 0.0, lambda face, at: _non_compact(face, self.xi[at]))
        return self.unchecked_margins

    @cached_property
    def unchecked_margins(self):
        """``margins`` without the checks: rows failing the domain test
        or holding a face with Xi <= 0 hold meaningless values, possibly
        NaN."""
        h, inv, t = self.surface.hinge_slots, self.packing.inv, self.tanh_r
        labels = [inv[ids] for ids in (h.e_a, h.e_b, h.e_c, h.e_d, h.edge)]
        with np.errstate(divide="ignore", invalid="ignore"):
            return _delaunay_margin(labels, *(t[..., ids] for ids in (h.v_i, h.v_j, h.v_k, h.v_l)))

    def angle_radius_jacobian(self):
        """(..., F, 3, 3) derivatives of corner angle m by corner radius n."""
        sin_a = np.sin(self.angles)
        self.check(
            (sin_a > 0.0).all(axis=-1),
            lambda face, at: _degenerate(face, "has a flat corner"),
        )
        corners, inv, slots = self.corners, self.inv, np.arange(3)
        cr, sr = self.cosh_r[..., corners], self.sinh_r[..., corners]
        crn, crp, srn, srp = cr[..., NEXT], cr[..., PREV], sr[..., NEXT], sr[..., PREV]
        S, cos = self.sinh_lengths, self.cos_angles
        Sn, Sp = S[..., NEXT], S[..., PREV]
        # dC[..., f, s, n]: derivative of cosh length s by radius n (0 at n = s).
        dC = np.zeros(S.shape + (3,))
        dC[..., slots, NEXT] = srn * crp + inv * crn * srp
        dC[..., slots, PREV] = srp * crn + inv * crp * srn
        # dT[..., f, m, s]: derivative of angle m by cosh length s; off the
        # diagonal, the law of cosines enters through the cosines of the
        # corners NEXT[m] and PREV[m].
        base = Sn * Sp * sin_a
        dT = np.empty_like(dC)
        dT[..., slots, slots] = 1.0 / base
        dT[..., slots, NEXT] = -cos[..., PREV] * S / (Sn * base)
        dT[..., slots, PREV] = -cos[..., NEXT] * S / (Sp * base)
        return dT @ dC


def curvatures(surface, packing, metrics=None):
    """Vertex curvatures 2*pi minus cone angle, and the total area.

    Corner angles come from the array kernel (``metrics`` if given);
    those at self-glued faces count with multiplicity.  The returned
    pair satisfies sum(K) = 2*pi*chi + area by construction.  A batch of
    (B, V) radii rows gives (B, V) curvatures and (B,) areas, each row bit
    for bit its packing's alone, and raises as the kernel does for its first row at fault.
    """
    metrics = metrics or SurfaceMetrics(surface, packing)
    angles = metrics.angles
    n, rows = surface.vertex_count, angles.shape[:-2]
    # One bincount for all rows: row b's vertex ids are offset by b * n.
    index = surface.corners.ravel() + n * np.arange(math.prod(rows))[:, None]
    angle_sum = np.bincount(index.ravel(), angles.ravel(), n * len(index))
    area = np.sum(np.ascontiguousarray(metrics.face_areas), axis=-1)
    return 2.0 * math.pi - angle_sum.reshape(rows + (n,)), area if rows else float(area)


def gauss_bonnet_residual(surface, packing):
    """sum(K) - 2 pi chi - area; zero up to roundoff on any valid state."""
    return _gauss_bonnet_residual(surface, *curvatures(surface, packing))


def _gauss_bonnet_residual(surface, K, area):
    return float(K.sum() - 2.0 * math.pi * euler_characteristic(surface) - area)


def face_metrics(surface, packing, face):
    """Face ``face``'s row of the array kernel: its Xi and the cosh
    lengths of its sides (slot m opposite corner m), as floats."""
    m = SurfaceMetrics(surface, packing)
    return SimpleNamespace(face=face, xi=float(m.xi[face]),
                           cosh_lengths=tuple(m.cosh_lengths[face].tolist()))


def hinge_delaunay_margin(surface, packing, edge):
    """Delaunay margin of ``edge``, read from the array kernel."""
    return float(SurfaceMetrics(surface, packing).margins[edge])


def _margin_roots(a, b, c, d, e):
    """sqrt(D_cdf), sqrt(D_abf), sqrt(D_bce) and sqrt(D_ade), f the flip
    value: the margin's coefficients of 1 / tanh r at the hinge vertices
    i, j, k and l.  On Python floats (checked labels only: ``math.sqrt``
    raises) as on arrays."""
    f = ptolemy_flip_value(a, b, c, d, e)
    return (_sqrt(delta_discriminant(c, d, f)), _sqrt(delta_discriminant(a, b, f)),
            _sqrt(delta_discriminant(b, c, e)), _sqrt(delta_discriminant(a, d, e)))


def _delaunay_margin(labels, t_i, t_j, t_k, t_l):
    """Algebraic local Delaunay margin of a hinge: RHS minus LHS of the
    flip inequality, on floats as on arrays (see ``_margin_roots``).

    With hinge labels (a, b, c, d, e), f the flip value of the diagonal,
    and hatted tanh radii, the edge is local weighted Delaunay iff

        sqrt(D_bce)/p^ + sqrt(D_ade)/r^ <= sqrt(D_cdf)/q^ + sqrt(D_abf)/s^

    Both faces must have compact orthocircles (Xi > 0).
    """
    r_i, r_j, r_k, r_l = _margin_roots(*labels)
    return (r_i / t_i + r_j / t_j) - (r_k / t_k + r_l / t_l)


# The monomials of the Xi form: the squares, then the products of the
# corners NEXT[o] and PREV[o] for each slot o.
XI_P = np.array([0, 1, 2, 1, 2, 0])
XI_Q = np.array([0, 1, 2, 2, 0, 1])


def _cosh_forms(surface, inv):
    """Every Delaunay margin and every face's Xi as forms in x = cosh u.

    Since 1 / tanh r = cosh u, the margin of an edge is
    sqrt(D_cdf) x_i + sqrt(D_abf) x_j - sqrt(D_bce) x_k - sqrt(D_ade) x_l,
    and Xi / prod(tanh^2 r) is the quadratic form
    sum_m (1 - I_m^2) x_m^2 + 2 sum_{m<n} (I_o + I_m I_n) x_m x_n over the
    corners (o the third slot); neither involves the radii otherwise.
    A form is (c, p, q), (K, N) arrays with row n the sum over k of
    c x[p] x[q], or of c x[p] when q is None (the margins).  Terms on
    one monomial are merged, so a form on a single vertex (every form of
    a one-vertex surface) is bounded exactly.
    """
    h = surface.hinge_slots
    roots = np.stack(_margin_roots(*(inv[ids] for ids in (h.e_a, h.e_b, h.e_c, h.e_d, h.edge))))
    roots[2:] *= -1.0
    margin = _merged(roots, np.stack([h.v_i, h.v_j, h.v_k, h.v_l]), None)
    I, corners = inv[surface.sides].T, surface.corners.T
    xi = _merged(
        np.concatenate([1.0 - I**2, 2.0 * (I + I[NEXT] * I[PREV])]),
        corners[XI_P], corners[XI_Q],
    )
    return margin, xi


def _merged(c, p, q):
    """The form (c, p, q) with the coefficients of equal monomials
    summed onto their first term and zeroed elsewhere."""
    if q is not None:
        p, q = np.minimum(p, q), np.maximum(p, q)
    key = p if q is None else p * (q.max() + 1) + q
    ordered = np.sort(key, axis=0)
    rows = np.flatnonzero((ordered[1:] == ordered[:-1]).any(axis=0))
    if len(rows):
        k = key[:, rows]
        same = k[:, None, :] == k[None, :, :]
        first = ~(same & np.tri(len(k), k=-1, dtype=bool)[:, :, None]).any(axis=1)
        c = c.copy()
        c[:, rows] = np.where(first, np.einsum("jkn,kn->jn", same, c[:, rows]), 0.0)
    return c, p, q


def _monomials(x, p, q):
    """x[p] x[q] (x[p] when q is None), gathered along the last axis."""
    v = np.take(x, p, axis=-1)
    return v if q is None else v * np.take(x, q, axis=-1)


def _x_range(u_start, du, lo, hi):
    """u at the ends of each s-interval [lo_b, hi_b] of u_start + s du,
    and the range of x = cosh u on it: u stays negative, so x falls as u
    grows, monotone in s."""
    u_a, u_b = (u_start + np.multiply.outer(np.asarray(s, dtype=float), du)
                for s in (lo, hi))
    return u_a, u_b, np.cosh(np.maximum(u_a, u_b)), np.cosh(np.minimum(u_a, u_b))


def _scan_bounds(forms, x_lo, x_hi):
    """Lower bounds over each s-interval whose x ranges ``_x_range`` gives
    of every margin and every Xi form of ``_cosh_forms``, each with the
    size of its terms, which scales its rounding: (margins, their sizes,
    Xi forms, their sizes), arrays (B, E) and (B, F).  Each monomial
    grows with every x > 0, so a term is smallest at the low end of the
    x ranges when its coefficient is positive and at the high end else."""
    bounds = []
    for c, p, q in forms:
        low, high = _monomials(x_lo, p, q), _monomials(x_hi, p, q)
        bounds += [(c * np.where(c > 0.0, low, high)).sum(axis=-2),
                   (np.abs(c) * high).sum(axis=-2)]
    return bounds


def _domain_bound(surface, inv, u_a, u_b):
    """Per s-interval with ends u_a and u_b (of ``_x_range``): whether
    every radius on it is positive and every length finite.  r rises with
    u, so this holds where it holds for the smallest and largest radii."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r_lo, r_hi = (2.0 * np.arctanh(np.exp(f(u_a, u_b))) for f in (np.minimum, np.maximum))
        (i, j), (_, ch, sh) = surface.edges.T, _radius_functions(r_hi)
        cosh_length = _cosh_length(ch[..., i], sh[..., i], ch[..., j], sh[..., j], inv)
    return (r_lo > 0.0).all(axis=-1) & np.isfinite(cosh_length).all(axis=-1)
