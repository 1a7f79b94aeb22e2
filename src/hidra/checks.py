"""Constructive oracles and identity sweeps.

The centerpiece is the degenerate-hinge constructor: four circles all
orthogonal to one common circle form a hinge sitting exactly on the
flip boundary, where the geometric diagonal agrees with the algebraic
flip value and the local Delaunay inequality holds with equality.  That
configuration anchors the first-order matching check (dF = df) of the
two diagonal values across a flip wall.

All randomized sweeps take an explicit seed and report it for replay.
The metric sweeps run on the array kernel the solvers use,
``SurfaceMetrics``, never on a scalar copy of its formulas.
"""

import math
from dataclasses import dataclass

import numpy as np

from .complexes import one_vertex_genus, one_vertex_torus, tetrahedron_sphere
from .errors import ConstructionInvalid
from .flips import HeldTriangulation, flip_edge
from .geometry import NEXT, PREV, Packing, SurfaceMetrics
from .ptolemy import (
    delta_identity_residuals,
    ptolemy_flip_value,
    ptolemy_residual,
    ptolemy_residual_scale,
)
from .surface import TriSurface, hinge

PARAMETER_NAMES = ("p", "q", "r", "s", "a", "b", "c", "d", "e")

# The compactness sweep draws and checks its samples this many at a time,
# on one kernel of that many faces.
SWEEP_CHUNK = 1000


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

    dists = tuple(math.acosh(math.cosh(r) * math.cosh(orthoradius)) for r in radii)

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


def face_kernel(radii, inv):
    """The array kernel on disjoint faces: face f has the corner radii
    ``radii[f]`` and the inversive distances ``inv[f]`` of the sides
    opposite them, (F, 3) arrays; no two faces share a vertex or an edge."""
    ids = np.arange(radii.size).reshape(-1, 3)
    edges = np.stack([ids[:, NEXT], ids[:, PREV]], axis=-1).reshape(-1, 2)
    return SurfaceMetrics(TriSurface(radii.size, edges, ids, ids), Packing(inv.ravel(), radii.ravel()))


def geometric_diagonal_value(params):
    """Diagonal inversive distance F of a developed hinge, as a function
    of the nine coordinates (p, q, r, s, a, b, c, d, e), on (..., 9).

    The kernel lays out the hinge's faces (i, j, k) and (i, j, l), whose
    angles alpha and beta at i add across the shared edge: the developed
    diagonal is cosh kl = u v - cos(alpha + beta) sinh u sinh v, with u
    and v the lengths ki and il, and F is the normalized diagonal
    (cosh kl - p r) / (sinh r_k sinh r_l).
    """
    p, q, r, s, a, b, c, d, e = np.moveaxis(np.asarray(params, dtype=float), -1, 0)
    radii = np.arccosh(np.stack([q, s, p, q, s, r], axis=-1))
    m = face_kernel(radii.reshape(-1, 3), np.stack([d, a, e, c, b, e], axis=-1).reshape(-1, 3))

    def pair(v):  # the values of the faces (i, j, k) and (i, j, l)
        return np.moveaxis(v.reshape(p.shape + (2,)), -1, 0)

    # The cosines at i, X and sinh of the sides ki and il (opposite j), and
    # cosh and sinh of the radii at k and l (corner 2).
    (ca, cb), (xu, xv), (su, sv), (ck, cl), (sk, sl) = (pair(v) for v in (
        m.cos_angles[:, 0], m.coshm1_lengths[:, 1], m.sinh_lengths[:, 1], m.cosh_r[2::3], m.sinh_r[2::3]))
    cosh_kl = (1.0 + xu) * (1.0 + xv) - (ca * cb - np.sqrt((1.0 - ca * ca) * (1.0 - cb * cb))) * su * sv
    return ((cosh_kl - ck * cl) / (sk * sl))[()]


def dF_df_discrepancy(params, parameter, step):
    """|dF - df| by central differences in one of the nine coordinates,
    on (..., 9).

    On the flip boundary the two diagonal values match to first order,
    so the discrepancy vanishes with the step size; away from it the
    derivatives differ and the discrepancy stays put.
    """
    idx = PARAMETER_NAMES.index(parameter)
    both = np.stack([np.array(params, dtype=float)] * 2)  # up, then down
    both[0, ..., idx] += step
    both[1, ..., idx] -= step
    F, f = geometric_diagonal_value(both), ptolemy_flip_value(*np.moveaxis(both[..., 4:], -1, 0))
    dF, df = (F[0] - F[1]) / (2.0 * step), (f[0] - f[1]) / (2.0 * step)
    return np.abs(dF - df)[()]


def xi_delta_residual(metrics):
    """Per face of the kernel ``metrics``, the relative residual of the
    identity linking the two discriminants, written in X = cosh l - 1:

    2(XY + YZ + ZX) + 2XYZ - X^2 - Y^2 - Z^2 - Xi = prod(sinh^2 r) Delta

    (which is 1 + 2xyz - x^2 - y^2 - z^2 - Xi in the cosh lengths x, y, z).
    """
    X, Y, Z = np.moveaxis(metrics.coshm1_lengths, -1, 0)
    terms = np.stack([2.0 * X * Y, 2.0 * Y * Z, 2.0 * Z * X, 2.0 * X * Y * Z,
                      -X * X, -Y * Y, -Z * Z, -metrics.xi])
    rhs = np.prod(metrics.sinh_r[metrics.corners] ** 2, axis=-1) * metrics.delta
    scale = np.maximum(np.abs(terms).max(axis=0), np.abs(rhs))
    return np.abs(terms.sum(axis=0) - rhs) / scale


def auxiliary_lengths(metrics):
    """(F, 3) auxiliary lengths sqrt(tanh^2 r_i + tanh^2 r_j + 2 I tanh r_i
    tanh r_j) of the sides of the kernel's faces, slot m opposite corner m."""
    t = metrics.tanh_r[metrics.corners]
    tn, tp = t[:, NEXT], t[:, PREV]
    return np.sqrt(tn * tn + tp * tp + 2.0 * metrics.inv * tn * tp)


def xi_equivalence_check(metrics):
    """Per face of the kernel ``metrics``: whether sign(Xi) matches the
    conjunction of the triangle inequalities of its auxiliary lengths;
    faces within 1e-12 of Xi = 0 pass."""
    hats = auxiliary_lengths(metrics)
    inequalities = (hats < hats[:, NEXT] + hats[:, PREV]).all(axis=-1)
    return (np.abs(metrics.xi) <= 1e-12) | ((metrics.xi > 0.0) == inequalities)


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

    # Compactness discriminant, on the kernel of one face per sample, drawn
    # SWEEP_CHUNK samples at a time: a row is three tanh radii then three
    # inversive distances, so the draws do not depend on the chunk size.
    worst_xi = 0.0
    agree = True
    for start in range(0, samples, SWEEP_CHUNK):
        draw = rng.uniform([0.05] * 3 + [1.01] * 3, [0.95] * 3 + [5.0] * 3,
                           size=(min(SWEEP_CHUNK, samples - start), 6))
        metrics = face_kernel(np.arctanh(draw[:, :3]), draw[:, 3:])
        worst_xi = np.maximum(worst_xi, xi_delta_residual(metrics).max())  # NaN stays
        agree = agree and bool(xi_equivalence_check(metrics).all())
    section("compactness_discriminant", check("xi_delta_identity", worst_xi, 1e-9),
            check("sign_equivalence", agree, 1.0, agree))

    # Degenerate hinges: equality locus, F = f, first-order matching, with
    # F developed from the kernel's corner cosines and lengths.
    drawn = [random_degenerate_hinge(rng) for _ in range(hinges)]
    worst_margin = np.max([abs(SurfaceMetrics(dh.surface, dh.packing).margins[dh.diagonal_edge]) for dh in drawn])
    params = np.array([dh.parameters() for dh in drawn])
    F = geometric_diagonal_value(params)
    worst_fF = np.max(np.abs(F - ptolemy_flip_value(*params[:, 4:].T)) / F)
    # Halving the step must at least halve the discrepancy (within a
    # factor 1.5), except below the roundoff floor.
    decay_ok = all(np.all(dF_df_discrepancy(params, name, 5e-5)
                          <= np.maximum(0.75 * dF_df_discrepancy(params, name, 1e-4), 5e-9))
                   for name in PARAMETER_NAMES)
    perturbed = params.copy()
    perturbed[:, 4] += 0.05
    control_ok = True
    for name in ("p", "q", "r", "s"):
        c1, c2 = (dF_df_discrepancy(perturbed, name, step) for step in (1e-4, 5e-5))
        control_ok = control_ok and bool(np.all((c2 >= 1e-3) & (c2 >= 0.5 * c1)))
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
