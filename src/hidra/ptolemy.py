"""Generalized Ptolemy algebra for inversive distances on a hinge.

A hinge carries five inversive distances (a, b, c, d, e): four around
the quadrilateral boundary and e on the diagonal.  Exchanging the
diagonal assigns the new one the value f below; the sextuple then
satisfies a quadratic identity whose residual is the consistency check
used throughout.
"""

import math

import numpy as np

from .errors import DomainError


def delta_discriminant(a, b, c):
    """a^2 + b^2 + c^2 + 2abc - 1 for a triple of inversive distances."""
    return a * a + b * b + c * c + 2.0 * a * b * c - 1.0


def ptolemy_flip_value(a, b, c, d, e):
    """Inversive distance of the exchanged diagonal:

    f = (ab + cd + ace + bde + sqrt(D_ade) sqrt(D_bce)) / (e^2 - 1)

    Elementwise on arrays of hinge labels; on Python scalars the domain
    checks cost two comparisons and the roots are ``math.sqrt``'s.
    """
    if _anywhere(e <= 1.0):
        raise DomainError("diagonal inversive distance must exceed 1")
    d_ade = delta_discriminant(a, d, e)
    d_bce = delta_discriminant(b, c, e)
    if _anywhere(d_ade < 0.0) or _anywhere(d_bce < 0.0):
        raise DomainError("negative discriminant in flip value")
    return (a * b + c * d + a * c * e + b * d * e + _sqrt(d_ade) * _sqrt(d_bce)) / (e * e - 1.0)


def _sqrt(x):
    """``np.sqrt``'s IEEE result, by ``math.sqrt`` on a Python float (which
    raises where np.sqrt returns NaN, so only checked values may reach it)."""
    return math.sqrt(x) if type(x) is float else np.sqrt(x)


def _anywhere(mask):
    """Whether a comparison (a bool on Python scalars) holds anywhere."""
    return mask if type(mask) is bool else bool(mask.any())


def _ptolemy_terms(a, b, c, d, e, f):
    return (
        a * a,
        b * b,
        c * c,
        d * d,
        e * e,
        f * f,
        2.0 * a * d * e,
        2.0 * b * c * e,
        2.0 * a * b * f,
        2.0 * c * d * f,
        2.0 * a * b * c * d,
        2.0 * a * c * e * f,
        2.0 * b * d * e * f,
        -(a * a) * (c * c),
        -(b * b) * (d * d),
        -(e * e) * (f * f),
        -1.0,
    )


def ptolemy_residual(a, b, c, d, e, f):
    """Left side of the quadratic sextuple identity; zero iff consistent."""
    return math.fsum(_ptolemy_terms(a, b, c, d, e, f))


def ptolemy_residual_scale(a, b, c, d, e, f):
    """Largest monomial magnitude, for relative residual comparisons."""
    return max(abs(t) for t in _ptolemy_terms(a, b, c, d, e, f))


def delta_identity_residuals(a, b, c, d, e, f):
    """Relative residuals of the two square-root addition identities

        sqrt(D_abf) = ((d + ae) sqrt(D_bce) + (c + be) sqrt(D_ade)) / (e^2 - 1)
        sqrt(D_cdf) = ((a + de) sqrt(D_bce) + (b + ce) sqrt(D_ade)) / (e^2 - 1)

    which hold exactly when f is the flip value of (a, b, c, d, e).
    """
    s_ade = math.sqrt(delta_discriminant(a, d, e))
    s_bce = math.sqrt(delta_discriminant(b, c, e))
    lhs1 = math.sqrt(delta_discriminant(a, b, f))
    lhs2 = math.sqrt(delta_discriminant(c, d, f))
    rhs1 = ((d + a * e) * s_bce + (c + b * e) * s_ade) / (e * e - 1.0)
    rhs2 = ((a + d * e) * s_bce + (b + c * e) * s_ade) / (e * e - 1.0)
    return abs(lhs1 - rhs1) / abs(lhs1), abs(lhs2 - rhs2) / abs(lhs2)
