"""Metric layer of an inversive-distance circle packing.

A packing assigns a radius to every vertex and an inversive distance
greater than 1 to every edge (disjoint-circle regime).  Everything here
is a pure function of (surface, packing): edge lengths, per-face
discriminants, orthogonal circles and the local weighted Delaunay
margin.  The u chart and SolveState, a run's record, are here too.

Solvers, flip loop, reports and ``verify`` take every metric quantity
from one array kernel, ``SurfaceMetrics``.  ``face_metrics`` and
``hinge_delaunay_margin`` read one face's or one edge's values from it;
nothing in the library calls them.  The scalar reference route the
kernel is tested against is in ``tests/geometry_oracle.py``.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .errors import DegenerateTriangle, DomainError, NonCompactOrthocircle
from .hyptrig import TOL_DOMAIN
from .ptolemy import _sqrt, delta_discriminant, ptolemy_flip_value

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
    Omitted, ``u`` is u_from_r of the radii; surgery alone has no target,
    curvature or area, 0 iterations and, by default, status converged."""

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
    potential: float = 0.0
    hessian_sign: int = 0

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
    return math.cosh(r_i) * math.cosh(r_j) + inv * math.sinh(r_i) * math.sinh(r_j)


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
        with np.errstate(over="ignore", invalid="ignore"):
            self.cosh_r = np.cosh(radii)
            self.sinh_r = np.sinh(radii)
            cr, sr = self.cosh_r[..., corners], self.sinh_r[..., corners]
            C = cr[..., NEXT] * cr[..., PREV] + self.inv * sr[..., NEXT] * sr[..., PREV]
            self.sinh_lengths = np.sqrt(np.maximum(C - 1.0, 0.0) * (C + 1.0))
        self.tanh_r = np.tanh(radii)
        self.domain_ok = (
            (radii[..., corners] > 0.0).all(axis=-1)
            & (self.inv > 1.0).all(axis=-1)
            & np.isfinite(C).all(axis=-1)
        )
        self.cosh_lengths = C

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
    def angles(self):
        """(..., F, 3) corner angles, cosines clamped into [-1, 1]."""
        self.check(
            self.angle_ok,
            lambda face, at: _degenerate(face, "has a corner cosine outside [-1, 1]"),
        )
        return np.arccos(np.clip(self.cos_angles, -1.0, 1.0))

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
            return _delaunay_margin(labels, *(t[..., ids] for ids in (h.v_k, h.v_i, h.v_l, h.v_j)))

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


def face_metrics(surface, packing, face):
    """Face ``face``'s row of the array kernel: its Xi and the cosh
    lengths of its sides (slot m opposite corner m), as floats."""
    m = SurfaceMetrics(surface, packing)
    return SimpleNamespace(face=face, xi=float(m.xi[face]),
                           cosh_lengths=tuple(m.cosh_lengths[face].tolist()))


def hinge_delaunay_margin(surface, packing, edge):
    """Delaunay margin of ``edge``, read from the array kernel."""
    return float(SurfaceMetrics(surface, packing).margins[edge])


def _delaunay_margin(labels, t_k, t_i, t_l, t_j):
    """Algebraic local Delaunay margin of a hinge: RHS minus LHS of the
    flip inequality; elementwise on arrays.

    With hinge labels (a, b, c, d, e), f the flip value of the diagonal,
    and hatted tanh radii, the edge is local weighted Delaunay iff

        sqrt(D_bce)/p^ + sqrt(D_ade)/r^ <= sqrt(D_cdf)/q^ + sqrt(D_abf)/s^

    Both faces must have compact orthocircles (Xi > 0).  On Python floats
    (checked labels only: ``math.sqrt`` and ``/`` raise) as on arrays.
    """
    a, b, c, d, e = labels
    f = ptolemy_flip_value(a, b, c, d, e)
    lhs = _sqrt(delta_discriminant(b, c, e)) / t_k + _sqrt(delta_discriminant(a, d, e)) / t_l
    rhs = _sqrt(delta_discriminant(c, d, f)) / t_i + _sqrt(delta_discriminant(a, b, f)) / t_j
    return rhs - lhs
