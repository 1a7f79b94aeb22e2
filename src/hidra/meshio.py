"""Mesh and report documents.

The mesh format is edge-centric JSON: loop edges and doubled edges
cannot be encoded as vertex pairs, so edges are first-class records and
faces reference them by id.  Numbers round-trip at full precision
(shortest-repr serialization), keeping fixtures auditable by hand.
"""

import hashlib
import json
import math

import numpy as np

from .errors import (
    DomainError,
    MeshError,
    NonCompactOrthocircle,
    ParseError,
    ValidationError,
)
from .geometry import Packing, SurfaceMetrics
from .hyptrig import acosh_stable
from .ptolemy import delta_discriminant
from .surface import build_surface, euler_characteristic

FORMAT_VERSION = "1.0"

REPORT_STATUSES = (
    "converged",
    "stalled",
    "max_iterations",
    "surgery_diverged",
    "invalid_input",
)


def _require(condition, message):
    if not condition:
        raise ValidationError(message)


def _number(value, message):
    """``value`` as a float; anything but a JSON number (a bool, string,
    null, list or object) raises ValidationError(message)."""
    _require(type(value) in (int, float), message)
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        return math.inf


def _is_id(value, count):
    """Whether ``value`` is a JSON integer in [0, count); a JSON boolean,
    which Python counts as an int, is not."""
    return type(value) is int and 0 <= value < count


def parse_mesh(data):
    """Parse mesh bytes/str/dict into (TriSurface, Packing, target).

    ``target`` is a per-vertex numpy array or None when the document
    carries no target curvature.  Raises ParseError for malformed JSON
    and ValidationError naming the first violated invariant.
    """
    if isinstance(data, (bytes, bytearray, str)):
        try:
            doc = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc}") from exc
    else:
        doc = data
    _require(isinstance(doc, dict), "top level must be an object")
    _require("format_version" in doc, "missing format_version")
    _require(
        str(doc["format_version"]).split(".")[0] == FORMAT_VERSION.split(".")[0],
        f"unsupported format_version {doc['format_version']!r}",
    )
    for key in ("vertices", "edges", "faces"):
        _require(key in doc and isinstance(doc[key], list), f"missing list {key!r}")

    vertices = doc["vertices"]
    n_v = len(vertices)
    _require(n_v > 0, "mesh has no vertices")
    radii = np.zeros(n_v)
    seen = set()
    for rec in vertices:
        _require(isinstance(rec, dict), "vertex records must be objects")
        _require("id" in rec and "radius" in rec, "vertex needs id and radius")
        vid = rec["id"]
        _require(_is_id(vid, n_v), f"vertex id {vid} out of range")
        _require(vid not in seen, f"duplicate vertex id {vid}")
        seen.add(vid)
        radius = _number(rec["radius"], f"vertex {vid}: radius must be a number")
        _require(
            math.isfinite(radius) and radius > 0.0,
            f"vertex {vid}: radius must be positive",
        )
        radii[vid] = radius

    edge_docs = doc["edges"]
    n_e = len(edge_docs)
    ends = [None] * n_e
    inv = np.zeros(n_e)
    seen = set()
    for rec in edge_docs:
        _require(isinstance(rec, dict), "edge records must be objects")
        _require(
            "id" in rec and "ends" in rec and "inversive_distance" in rec,
            "edge needs id, ends and inversive_distance",
        )
        eid = rec["id"]
        _require(_is_id(eid, n_e), f"edge id {eid} out of range")
        _require(eid not in seen, f"duplicate edge id {eid}")
        seen.add(eid)
        pair = rec["ends"]
        _require(
            isinstance(pair, list) and len(pair) == 2,
            f"edge {eid}: ends must be a pair",
        )
        for v in pair:
            _require(
                _is_id(v, n_v),
                f"edge {eid}: unknown vertex {v}",
            )
        value = _number(
            rec["inversive_distance"], f"edge {eid}: inversive_distance must be a number"
        )
        _require(
            math.isfinite(value) and value > 1.0,
            "inversive_distance must exceed 1",
        )
        ends[eid] = (pair[0], pair[1])
        inv[eid] = value

    face_specs = []
    for idx, rec in enumerate(doc["faces"]):
        _require(isinstance(rec, dict), "face records must be objects")
        _require(
            "corners" in rec and "sides" in rec,
            f"face {idx} needs corners and sides",
        )
        corners = rec["corners"]
        sides = rec["sides"]
        _require(
            isinstance(corners, list) and len(corners) == 3,
            f"face {idx}: corners must be a triple",
        )
        _require(
            isinstance(sides, list) and len(sides) == 3,
            f"face {idx}: sides must be a triple",
        )
        for v in corners:
            _require(
                _is_id(v, n_v),
                f"face {idx}: unknown vertex {v}",
            )
        for e in sides:
            _require(
                _is_id(e, n_e),
                f"face {idx}: unknown edge {e}",
            )
        face_specs.append((tuple(corners), tuple(sides)))

    try:
        surface = build_surface(n_v, ends, face_specs)
    except MeshError as exc:
        raise ValidationError(str(exc)) from exc

    target = None
    if doc.get("target_curvature") is not None:
        rows = doc["target_curvature"]
        _require(isinstance(rows, list), "target_curvature must be a list")
        target = np.full(n_v, np.nan)
        for rec in rows:
            _require(
                isinstance(rec, dict) and "vid" in rec and "kbar" in rec,
                "target rows need vid and kbar",
            )
            vid = rec["vid"]
            _require(
                _is_id(vid, n_v),
                f"target references unknown vertex {vid}",
            )
            target[vid] = _number(
                rec["kbar"], f"target row of vertex {vid}: kbar must be a number"
            )
        _require(
            bool(np.all(np.isfinite(target))),
            "target_curvature must cover every vertex",
        )

    return surface, Packing(inv, radii), target


def mesh_document(surface, packing, target=None):
    """JSON-ready dict for a surface + packing (inverse of parse_mesh)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "vertices": [
            {"id": v, "radius": float(packing.radii[v])}
            for v in range(surface.vertex_count)
        ],
        "edges": [
            {"id": e, "ends": ends, "inversive_distance": float(packing.inv[e])}
            for e, ends in enumerate(surface.edges.tolist())
        ],
        "faces": [
            {"corners": corners, "sides": sides}
            for corners, sides in zip(surface.corners.tolist(), surface.sides.tolist())
        ],
    }
    if target is not None:
        doc["target_curvature"] = [
            {"vid": v, "kbar": float(target[v])}
            for v in range(surface.vertex_count)
        ]
    return doc


def dumps_mesh(surface, packing, target=None):
    return json.dumps(mesh_document(surface, packing, target), indent=2) + "\n"


def load_mesh(path):
    """Read a mesh file; returns (surface, packing, target, sha256 digest)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    surface, packing, target = parse_mesh(raw)
    return surface, packing, target, hashlib.sha256(raw).hexdigest()


def _finite_or_none(x):
    x = float(x)
    return x if math.isfinite(x) else None


def build_report(
    status,
    digest=None,
    surface=None,
    packing=None,
    target=None,
    state=None,
    error=None,
):
    """Assemble the full diagnostics document.

    Always schema-valid, even for failed runs: geometric sections are
    filled only as far as the state allows, and the status field is
    always populated.  All geometry comes from the array kernel; the
    Hessian spectrum sign is the one recorded on ``state``, taken at the
    solver's exit state.
    """
    from .flips import surface_delaunay_margins
    from .solver import _gauss_bonnet_residual, curvatures, u_from_r

    report = {
        "format_version": FORMAT_VERSION,
        "status": status,
        "input_digest": digest,
        "error": error,
        "global": None,
        "vertices": None,
        "edges": None,
        "faces": None,
        "flip_log": None,
        "iteration_trace": None,
    }
    if state is not None:
        surface = state.surface
        packing = state.packing
        target = state.target
        report["iteration_trace"] = state.trace
        report["flip_log"] = [
            {
                "edge": ev.edge,
                "labels": dict(zip("abcde", ev.labels)),
                "new_inversive_distance": ev.new_value,
                "iteration": ev.iteration,
                "margin_before": _finite_or_none(ev.margin_before),
            }
            for ev in state.flip_log
        ]
    if surface is None or packing is None:
        return report

    try:
        K, area = curvatures(surface, packing)
        gb = _gauss_bonnet_residual(surface, K, area)
    except DomainError:
        K = area = gb = None
    try:
        margins = surface_delaunay_margins(surface, packing)
    except (DomainError, NonCompactOrthocircle):
        margins = None
    u = u_from_r(packing.radii)
    metrics = SurfaceMetrics(surface, packing)
    slots = surface.hinge_slots
    lengths = metrics.cosh_lengths[slots.face_k, slots.side_in_k]

    report["global"] = {
        "chi": euler_characteristic(surface),
        "vertex_count": surface.vertex_count,
        "edge_count": surface.edge_count,
        "face_count": surface.face_count,
        "total_area": _finite_or_none(area) if area is not None else None,
        "gauss_bonnet_residual": _finite_or_none(gb) if gb is not None else None,
        "solver_status": status,
        "hessian_spectrum_sign": getattr(state, "hessian_sign", None),
        "potential": _finite_or_none(getattr(state, "potential", math.nan)),
        # validity is the operational proxy (I > 1, triangle
        # inequalities), weaker than an injectivity-radius bound
        "weight_domain": "proxy",
    }
    report["vertices"] = [
        {
            "id": v,
            "radius": float(packing.radii[v]),
            "u": float(u[v]),
            "K": _finite_or_none(K[v]) if K is not None else None,
            "Kbar": float(target[v]) if target is not None else None,
        }
        for v in range(surface.vertex_count)
    ]
    report["edges"] = [
        {
            "id": e,
            "ends": ends,
            "inversive_distance": float(packing.inv[e]),
            "length": _finite_or_none(acosh_stable(lengths[e])),
            "delaunay_margin": _finite_or_none(margins[e])
            if margins is not None
            else None,
        }
        for e, ends in enumerate(surface.edges.tolist())
    ]
    has_angles = metrics.domain_ok & metrics.angle_ok
    angles = np.arccos(np.clip(metrics.cos_angles, -1.0, 1.0))
    compact = metrics.domain_ok & (metrics.xi > 0.0)
    delta = delta_discriminant(*metrics.inv.T)
    with np.errstate(invalid="ignore"):
        sinh_rho = (
            np.prod(metrics.sinh_r[surface.corners], axis=1)
            * np.sqrt(delta)
            / np.sqrt(metrics.xi)
        )
    report["faces"] = [
        {
            "id": fid,
            "corners": corners,
            "sides": sides,
            "xi": _finite_or_none(metrics.xi[fid]),
            "delta": _finite_or_none(delta[fid]),
            "rho": math.asinh(sinh_rho[fid]) if compact[fid] else None,
            "area": math.pi - math.fsum(angles[fid]) if has_angles[fid] else None,
            "angles": angles[fid].tolist() if has_angles[fid] else None,
        }
        for fid, (corners, sides) in enumerate(
            zip(surface.corners.tolist(), surface.sides.tolist())
        )
    ]
    return report


def dumps_report(report):
    """A report, or any document in it such as its mesh, as JSON text."""
    return json.dumps(report, indent=2) + "\n"
