"""Constructive oracles and identity sweeps.

The centerpiece is the degenerate-hinge constructor: four circles all
orthogonal to one common circle form a hinge sitting exactly on the
flip boundary, where the geometric diagonal agrees with the algebraic
flip value and the local Delaunay inequality holds with equality.  That
configuration anchors the first-order matching check (dF = df) of the
two diagonal values across a flip wall.

All randomized sweeps take an explicit seed and report it for replay.
"""

import math
from dataclasses import dataclass

import numpy as np

from .complexes import one_vertex_genus, one_vertex_torus, tetrahedron_sphere
from .errors import ConstructionInvalid
from .flips import HeldTriangulation, flip_edge
from .geometry import (
    Packing,
    SurfaceMetrics,
    auxiliary_length,
    edge_cosh_length,
    xi_discriminant,
)
from .hyptrig import acosh_stable, hinge_diagonal, sinh_from_cosh
from .ptolemy import (
    delta_discriminant,
    delta_identity_residuals,
    ptolemy_flip_value,
    ptolemy_residual,
    ptolemy_residual_scale,
)
from .surface import hinge

PARAMETER_NAMES = ("p", "q", "r", "s", "a", "b", "c", "d", "e")


@dataclass(frozen=True)
class DegenerateHinge:
    """A hinge of four circles sharing one compact orthogonal circle.

    Circle m sits at hyperbolic distance ``center_distances[m]`` from
    the origin along ``angles[m]``; all four are orthogonal to the
    circle of radius ``orthoradius`` centered there.  The hinge takes
    circles (0,1,2) and (0,2,3) with diagonal (0,2); ``sextuple`` holds
    its labels (a,b,c,d,e) plus the geometric diagonal value F.
    """

    orthoradius: float
    radii: tuple
    angles: tuple
    center_distances: tuple
    inversive: dict       # unordered pair -> inversive distance
    sextuple: tuple       # (a, b, c, d, e, F)
    surface: object       # tetrahedron closure carrying the hinge
    packing: Packing
    diagonal_edge: int

    def parameters(self):
        """The nine flip-boundary coordinates (p, q, r, s, a, b, c, d, e):
        cosh radii of the hinge slots (k, i, l, j) then the five labels."""
        hv = hinge(self.surface, self.diagonal_edge)
        coshs = tuple(
            math.cosh(self.radii[v]) for v in (hv.v_k, hv.v_i, hv.v_l, hv.v_j)
        )
        return np.array(coshs + self.sextuple[:5])


def degenerate_hinge(orthoradius, radii, angles):
    """Place four circles orthogonal to a common circle at the origin.

    Center distances follow from orthogonality,
    cosh d_m = cosh r_m cosh(orthoradius); pairwise center distances
    come from the hyperbolic law of cosines at the origin, and pairwise
    inversive distances from the length formula.  Raises
    ConstructionInvalid unless the angles are strictly ordered within
    one turn and all six pairwise inversive distances exceed 1.
    """
    if orthoradius <= 0.0:
        raise ConstructionInvalid("orthoradius must be positive")
    radii = tuple(float(r) for r in radii)
    angles = tuple(float(t) for t in angles)
    if len(radii) != 4 or len(angles) != 4:
        raise ConstructionInvalid("need four radii and four angles")
    if any(r <= 0.0 for r in radii):
        raise ConstructionInvalid("radii must be positive")
    if any(angles[m + 1] <= angles[m] for m in range(3)) or (
        angles[3] - angles[0] >= 2.0 * math.pi
    ):
        raise ConstructionInvalid("angles must be strictly ordered within one turn")

    dists = tuple(
        acosh_stable(math.cosh(r) * math.cosh(orthoradius)) for r in radii
    )

    def pair_inversive(m, n):
        cl = math.cosh(dists[m]) * math.cosh(dists[n]) - math.sinh(
            dists[m]
        ) * math.sinh(dists[n]) * math.cos(angles[m] - angles[n])
        return (cl - math.cosh(radii[m]) * math.cosh(radii[n])) / (
            math.sinh(radii[m]) * math.sinh(radii[n])
        )

    inversive = {}
    for m in range(4):
        for n in range(m + 1, 4):
            val = pair_inversive(m, n)
            if val <= 1.0:
                raise ConstructionInvalid(
                    f"circles {m} and {n} are not disjoint (I = {val:.4f})"
                )
            inversive[(m, n)] = val

    surface = tetrahedron_sphere()
    inv = np.array([inversive[m, n] for m, n in surface.edges.tolist()])
    packing = Packing(inv, np.array(radii))

    hv = hinge(surface, 4)
    labels = tuple(float(inv[e]) for e in hv.boundary_edges) + (float(inv[4]),)
    sextuple = labels + (inversive[(1, 3)],)
    return DegenerateHinge(
        orthoradius=float(orthoradius),
        radii=radii,
        angles=angles,
        center_distances=dists,
        inversive=inversive,
        sextuple=sextuple,
        surface=surface,
        packing=packing,
        diagonal_edge=4,
    )


def geometric_diagonal_value(params):
    """Diagonal inversive distance F of a developed hinge, as a function
    of the nine coordinates (p, q, r, s, a, b, c, d, e).

    The five cosh edge lengths follow from the length formula, the
    developed diagonal from angle addition, and F is the normalized
    diagonal (z - p r) / (sqrt(p^2-1) sqrt(r^2-1)).
    """
    p, q, r, s, a, b, c, d, e = params
    sp, sq, sr, ss = (sinh_from_cosh(t) for t in (p, q, r, s))
    u = p * q + a * sp * sq
    v = q * r + b * sq * sr
    w = r * s + c * sr * ss
    x = s * p + d * ss * sp
    y = q * s + e * sq * ss
    z = hinge_diagonal(u, v, w, x, y)
    return (z - p * r) / (sp * sr)


def dF_df_discrepancy(params, parameter, step):
    """|dF - df| by central differences in one of the nine coordinates.

    On the flip boundary the two diagonal values match to first order,
    so the discrepancy vanishes with the step size; away from it the
    derivatives differ and the discrepancy stays put.
    """
    idx = PARAMETER_NAMES.index(parameter)
    up = np.array(params, dtype=float)
    dn = up.copy()
    up[idx] += step
    dn[idx] -= step
    dF = (geometric_diagonal_value(up) - geometric_diagonal_value(dn)) / (2.0 * step)
    df = (ptolemy_flip_value(*up[4:]) - ptolemy_flip_value(*dn[4:])) / (2.0 * step)
    return abs(dF - df)


def xi_delta_residual(radii, inv):
    """Relative residual of the identity linking the two discriminants:

    1 + 2xyz - x^2 - y^2 - z^2 - Xi = (p^2-1)(q^2-1)(r^2-1) Delta

    with x, y, z the cosh lengths and p, q, r the cosh radii of a face.
    """
    x, y, z = (
        edge_cosh_length(radii[(m + 1) % 3], radii[(m + 2) % 3], inv[m])
        for m in range(3)
    )
    p, q, r = (math.cosh(t) for t in radii)
    lhs_terms = (
        1.0,
        2.0 * x * y * z,
        -x * x,
        -y * y,
        -z * z,
        -xi_discriminant(radii, inv),
    )
    rhs = (
        (p * p - 1.0)
        * (q * q - 1.0)
        * (r * r - 1.0)
        * delta_discriminant(*inv)
    )
    scale = max(max(abs(t) for t in lhs_terms), abs(rhs))
    return abs(math.fsum(lhs_terms) - rhs) / scale


def xi_equivalence_check(radii, inv):
    """sign(Xi) must match the conjunction of the three auxiliary-length
    triangle inequalities; faces within 1e-12 of Xi = 0 pass."""
    xi = xi_discriminant(radii, inv)
    if abs(xi) <= 1e-12:
        return True
    hats = tuple(
        auxiliary_length(radii[(m + 1) % 3], radii[(m + 2) % 3], inv[m])
        for m in range(3)
    )
    inequalities = all(
        hats[m] < hats[(m + 1) % 3] + hats[(m + 2) % 3] for m in range(3)
    )
    return (xi > 0.0) == inequalities


def conformal_roundtrip_check(surface, packing, flip_sequence):
    """Apply the flips forward then in reverse; the inversive distances
    must return to their originals.  Returns the max relative error."""
    held, original = HeldTriangulation(surface, packing), packing.inv
    for eid in (*flip_sequence, *reversed(flip_sequence)):
        flip_edge(held, eid)
    return float(np.max(np.abs(np.array(held.inv) - original) / np.abs(original)))


def random_packing(
    surface,
    rng,
    tanh_range=(0.35, 0.9),
    inv_range=(1.05, 3.0),
    max_tries=2000,
):
    """Sample a valid packing by rejection.

    Radii are drawn uniformly in tanh, inversive distances uniformly;
    the sample is kept only if every face has a compact orthogonal
    circle (Xi > 0), which also implies the triangle inequalities.
    """
    n_e = len(surface.edges)
    for _ in range(max_tries):
        radii = np.arctanh(rng.uniform(*tanh_range, size=surface.vertex_count))
        inv = rng.uniform(*inv_range, size=n_e)
        pk = Packing(inv, radii)
        if np.all(SurfaceMetrics(surface, pk).xi > 0.0):
            return pk
    raise ConstructionInvalid(f"no valid packing found in {max_tries} draws")


def random_flip_sequence(surface, packing, rng, count):
    """A sequence of legal flips, applied as drawn (later flips see the
    surface produced by earlier ones), each from at most 50 draws.

    Candidates whose new diagonal would exceed 1e6 are skipped: on
    small complexes repeated stretching flips grow inversive distances
    double-exponentially and would leave double range within a few dozen
    flips.  Undoing flips always stays below the cap, so a sequence of
    the requested length exists.
    """
    sequence, held = [], HeldTriangulation(surface, packing)
    for _ in range(count):
        for _ in range(50):
            eid = int(rng.integers(len(held.inv)))
            h = held.hinge(eid)  # both sides on one face: an illegal flip
            if h.face_k == h.face_l or ptolemy_flip_value(*held.labels(h)) > 1e6:
                continue
            flip_edge(held, eid)
            sequence.append(eid)
            break
        else:
            break
    return sequence


def random_degenerate_hinge(rng):
    """Draw a degenerate hinge with disjoint circles, by up to 200 rejections."""
    for _ in range(200):
        rho = rng.uniform(0.3, 0.9)
        radii = rng.uniform(0.2, 0.7, size=4)
        gaps = rng.uniform(0.6, 1.0, size=4)
        angles = rng.uniform(0.0, 2.0 * math.pi) + np.cumsum(
            gaps / gaps.sum() * 2.0 * math.pi
        )
        angles -= angles[0]
        try:
            return degenerate_hinge(rho, radii, angles[:4])
        except ConstructionInvalid:
            continue
    raise ConstructionInvalid("no degenerate hinge found in 200 draws")


def run_verification_suite(seed=0, samples=10_000, hinges=20, flip_chain=50):
    """Run every oracle sweep and collect a pass/fail report.

    Returns a JSON-ready dict with one section per family of checks,
    each carrying residual statistics and the seed for replay.
    """
    rng = np.random.default_rng(seed)
    report = {"seed": int(seed), "sections": [], "passed": True}

    def check(name, value, tolerance, passed=None):
        """A check's row: it passes with ``value`` at or below ``tolerance``, or as ``passed`` says."""
        passed = value <= tolerance if passed is None else passed
        return {"name": name, "passed": bool(passed), "value": float(value), "tolerance": tolerance}

    def section(name, *checks):
        report["sections"].append({"name": name, "passed": all(c["passed"] for c in checks), "checks": list(checks)})
        report["passed"] = report["passed"] and report["sections"][-1]["passed"]

    # Generalized Ptolemy identities.
    worst_q = worst_d = 0.0
    for _ in range(samples):
        a, b, c, d, e = rng.uniform(1.05, 4.0, size=5)
        f = ptolemy_flip_value(a, b, c, d, e)
        worst_q = max(
            worst_q,
            abs(ptolemy_residual(a, b, c, d, e, f))
            / ptolemy_residual_scale(a, b, c, d, e, f),
        )
        worst_d = max(worst_d, *delta_identity_residuals(a, b, c, d, e, f))
    anchor = abs(ptolemy_flip_value(2, 2, 2, 2, 2) - 17.0)
    section("ptolemy_identities", check("quadratic_residual", worst_q, 1e-9),
            check("delta_identities", worst_d, 1e-9), check("symmetric_anchor_17", anchor, 1e-12))

    # Compactness discriminant.
    worst_xi = 0.0
    agree = True
    for _ in range(samples):
        radii = np.arctanh(rng.uniform(0.05, 0.95, size=3))
        inv = rng.uniform(1.01, 5.0, size=3)
        worst_xi = max(worst_xi, xi_delta_residual(radii, inv))
        agree = agree and xi_equivalence_check(radii, inv)
    section("compactness_discriminant", check("xi_delta_identity", worst_xi, 1e-9),
            check("sign_equivalence", agree, 1.0, agree))

    # Degenerate hinges: equality locus, F = f, first-order matching.
    worst_margin = worst_fF = 0.0
    decay_ok = True
    control_ok = True
    for _ in range(hinges):
        dh = random_degenerate_hinge(rng)
        margin = SurfaceMetrics(dh.surface, dh.packing).margins[dh.diagonal_edge]
        worst_margin = max(worst_margin, abs(margin))
        worst_fF = max(
            worst_fF,
            abs(dh.sextuple[5] - ptolemy_flip_value(*dh.sextuple[:5]))
            / dh.sextuple[5],
        )
        params = dh.parameters()
        for name in PARAMETER_NAMES:
            d1 = dF_df_discrepancy(params, name, 1e-4)
            d2 = dF_df_discrepancy(params, name, 5e-5)
            # Halving the step must at least halve the discrepancy (within
            # a factor 1.5), except below the roundoff floor.
            decay_ok = decay_ok and d2 <= max(0.75 * d1, 5e-9)
        perturbed = params.copy()
        perturbed[4] += 0.05
        for name in ("p", "q", "r", "s"):
            c1 = dF_df_discrepancy(perturbed, name, 1e-4)
            c2 = dF_df_discrepancy(perturbed, name, 5e-5)
            control_ok = control_ok and c2 >= 1e-3 and c2 >= 0.5 * c1
    section("degenerate_hinges", check("margin_at_equality", worst_margin, 1e-9),
            check("geometric_vs_flip_value", worst_fF, 1e-9),
            check("first_order_matching", decay_ok, 1.0, decay_ok), check("negative_control", control_ok, 1.0, control_ok))

    # Conformal class preserved along flip chains.
    worst_rt = 0.0
    for surface in (one_vertex_torus(), one_vertex_genus(2)):
        packing = random_packing(surface, rng)
        seq = random_flip_sequence(surface, packing, rng, flip_chain)
        worst_rt = max(worst_rt, conformal_roundtrip_check(surface, packing, seq))
    section("conformal_roundtrip", check("flip_chain_roundtrip", worst_rt, 1e-8))
    return report
