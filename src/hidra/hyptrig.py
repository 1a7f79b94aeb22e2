"""Stable hyperbolic trigonometry primitives.

Lengths are carried as hyperbolic cosines throughout: every law used here
is polynomial in cosh/sinh, so storing cosh values avoids repeated
transcendental calls and cancellation near degenerate configurations.
Raw lengths appear only at API boundaries (acosh_stable / math.cosh).
"""

import math

from .errors import DegenerateTriangle, DomainError

# Clamping width applied before acos/acosh: flip-boundary configurations
# sit exactly on the domain edge and may land epsilon outside it.
TOL_DOMAIN = 1e-12


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
