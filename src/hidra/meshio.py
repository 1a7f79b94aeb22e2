"""Mesh and report documents.

The mesh format is edge-centric JSON: loop edges and doubled edges
cannot be encoded as vertex pairs, so edges are first-class records and
faces reference them by id.  Numbers round-trip at full precision
(shortest-repr serialization), keeping fixtures auditable by hand.
"""

import hashlib
import json
import math
from itertools import chain
from operator import itemgetter

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

_INTP_RANGE = range(np.iinfo(np.intp).min, np.iinfo(np.intp).max + 1)  # ids an array holds


def _require(condition, message):
    if not condition:
        raise ValidationError(message)


def _each(ok, owners, message):
    """Raise ValidationError(message.format(owners[i])) at the first i where ``ok`` is false."""
    if not all(ok):
        raise ValidationError(message.format(owners[list(ok).index(False)]))


def _fields(records, keys, not_object, missing):
    """The ``keys`` fields of every record, one tuple per key.  The first
    record that is not an object raises ValidationError(not_object), the
    first that lacks a key ValidationError(missing.format(its index))."""
    try:
        return tuple(zip(*map(itemgetter(*keys), records))) or ((),) * len(keys)
    except (KeyError, TypeError):
        _each([isinstance(rec, dict) for rec in records], records, not_object)
        _each([set(keys) <= rec.keys() for rec in records], range(len(records)), missing)
        raise


def _ids(lists, owners, message, valid=_INTP_RANGE):
    """Check that the id ``lists`` hold JSON integers, not booleans, in
    ``valid``; the first other value v, in the list of ``owner``, raises
    ValidationError(message.format(owner, v))."""
    flat = list(chain.from_iterable(lists))
    if set(map(type, flat)) <= {int} and (
        not flat or min(flat) in valid and max(flat) in valid
    ):
        return
    ok = [type(v) is int and v in valid for v in flat]
    owner, v = [(o, v) for o, ids in zip(owners, lists) for v in ids][ok.index(False)]
    raise ValidationError(message.format(owner, v))


def _permutation(ids, kind):
    """Check that the record ids ``ids`` list each of 0 .. len(ids) - 1 once."""
    _ids([ids], [kind], "{} id {} out of range", range(len(ids)))
    first = {}  # id -> index of the first record that holds it
    _each([first.setdefault(i, k) == k for k, i in enumerate(ids)], ids, f"duplicate {kind} id {{}}")


def _float(value):
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        return math.inf


def _numbers(values, ids, message):
    """``values`` as floats, an integer past the float range as inf; the first
    that is not a JSON number raises ValidationError(message.format(its id))."""
    _each([type(v) in (int, float) for v in values], ids, message)
    return np.array(list(map(_float, values)), dtype=float)


def parse_mesh(data):
    """Parse mesh bytes/str/dict into (TriSurface, Packing, target).

    ``target`` is a per-vertex numpy array or None when the document
    carries no target curvature.  Raises ParseError for malformed JSON
    and ValidationError naming the first violated invariant; the ranges of
    corner, side and edge-end ids are ``build_surface``'s to check.
    """
    doc = data
    if isinstance(data, (bytes, bytearray, str)):
        try:
            doc = json.loads(data)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise ParseError(f"not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "top level must be an object")
    _require("format_version" in doc, "missing format_version")
    version = doc["format_version"]
    _require(
        isinstance(version, str) and version.startswith(FORMAT_VERSION.split(".")[0] + "."),
        f"unsupported format_version {version!r}",
    )
    for key in ("vertices", "edges", "faces"):
        _require(isinstance(doc.get(key), list), f"missing list {key!r}")
    _require(doc["vertices"], "mesh has no vertices")

    vids, radii = _fields(
        doc["vertices"], ("id", "radius"),
        "vertex records must be objects", "vertex needs id and radius",
    )
    _permutation(vids, "vertex")
    radii = _numbers(radii, vids, "vertex {}: radius must be a number")
    _each(np.isfinite(radii) & (radii > 0.0), vids, "vertex {}: radius must be positive")

    eids, ends, inv = _fields(
        doc["edges"], ("id", "ends", "inversive_distance"),
        "edge records must be objects", "edge needs id, ends and inversive_distance",
    )
    _permutation(eids, "edge")
    _each([isinstance(p, list) and len(p) == 2 for p in ends], eids, "edge {}: ends must be a pair")
    _ids(ends, eids, "edge {}: unknown vertex {}")
    inv = _numbers(inv, eids, "edge {}: inversive_distance must be a number")
    _require(np.all(np.isfinite(inv) & (inv > 1.0)), "inversive_distance must exceed 1")

    corners, sides = _fields(
        doc["faces"], ("corners", "sides"),
        "face records must be objects", "face {} needs corners and sides",
    )
    faces = range(len(corners))
    for name, kind, lists in (("corners", "vertex", corners), ("sides", "edge", sides)):
        _each([isinstance(ids, list) for ids in lists], faces, f"face {{}}: {name} must be a triple")
        _ids(lists, faces, f"face {{}}: unknown {kind} {{}}")

    edge_order = np.argsort(eids)
    edges = np.array(ends, dtype=np.intp).reshape(-1, 2)[edge_order]
    try:
        surface = build_surface(len(vids), edges, list(zip(corners, sides)))
    except MeshError as exc:
        raise ValidationError(str(exc)) from exc

    target = None
    if doc.get("target_curvature") is not None:
        rows = doc["target_curvature"]
        _require(isinstance(rows, list), "target_curvature must be a list")
        need = "target rows need vid and kbar"
        rvids, kbars = _fields(rows, ("vid", "kbar"), need, need)
        _ids([rvids], ["target"], "{} references unknown vertex {}", range(len(vids)))
        kbars = _numbers(kbars, rvids, "target row of vertex {}: kbar must be a number")
        last = dict(zip(rvids, kbars))  # a repeated vid: its last row counts
        target = np.full(len(vids), np.nan)
        target[list(last)] = list(last.values())
        _require(np.isfinite(target).all(), "target_curvature must cover every vertex")

    return surface, Packing(inv[edge_order], radii[np.argsort(vids)]), target


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


def load_mesh(path):
    """Read a mesh file; returns (surface, packing, target, sha256 digest)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    surface, packing, target = parse_mesh(raw)
    return surface, packing, target, hashlib.sha256(raw).hexdigest()


def _finite_or_none(x):
    return None if x is None or not math.isfinite(x) else float(x)


def build_report(
    status,
    digest=None,
    surface=None,
    packing=None,
    target=None,
    state=None,
    error=None,
    metrics=None,
):
    """Assemble the full diagnostics document.

    Always schema-valid, even for failed runs: geometric sections are
    filled only as far as the state allows, and the status field is
    always populated.  All geometry comes from one evaluation of the
    array kernel (``metrics``, the caller's kernel of the same surface and
    packing, if given); the Hessian spectrum sign is the one recorded on
    ``state``, taken at the solver's exit state.
    """
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

    metrics = metrics or SurfaceMetrics(surface, packing)
    try:
        K, area = curvatures(surface, packing, metrics=metrics)
        gb = _gauss_bonnet_residual(surface, K, area)
    except DomainError:
        K = area = gb = None
    try:
        margins = metrics.margins
    except (DomainError, NonCompactOrthocircle):
        margins = None
    u = u_from_r(packing.radii)
    slots = surface.hinge_slots
    lengths = metrics.cosh_lengths[slots.face_k, slots.side_in_k]

    report["global"] = {
        "chi": euler_characteristic(surface),
        "vertex_count": surface.vertex_count,
        "edge_count": surface.edge_count,
        "face_count": surface.face_count,
        "total_area": _finite_or_none(area),
        "gauss_bonnet_residual": _finite_or_none(gb),
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


# Control-character separators, never raw inside a string; documents are trees: no cycle check.
_ENCODER = json.JSONEncoder(separators=("\x1e", "\x1f"), check_circular=False)


def _records(rows, pad):
    """Non-empty flat records (values numbers, null, booleans or non-empty
    lists of those) by one C pass and a fixed chain of replacements, else
    None.  Counts prove the shape: two quotes per key, one "{" per row (all
    but the first after "}\x1e"), one "[" and "]" per record value besides
    the outer pair; so no other string, dict or list, and no key holds one."""
    text = _ENCODER.encode(rows)
    if (text.count('"') != 2 * text.count("\x1f") or "[]" in text or "{}" in text
            or not text.count("{") == text.count("}\x1e{") + 1 == len(rows)
            or not text.count("[") == text.count("]") == text.count("\x1f[") + 1):
        return None
    row, key, item = pad + "  ", pad + "    ", pad + "      "
    body = text[2:-2].replace("}\x1e{", row + "}," + row + "{" + key)
    body = body.replace('\x1e"', "," + key + '"').replace("\x1f", ": ")
    body = body.replace("[", "[" + item).replace("]", key + "]").replace("\x1e", "," + item)
    return "[" + row + "{" + key + body + row + "}" + pad + "]"


def _nested_records(rows, pad):
    """Records that each nest one flat dict (a flip log's labels) by two
    ``_records`` passes, else None: the rows with that dict marked -inf (one
    count a row proves no other "-Infinity" text), and the dicts one level in,
    split at "}," + row pad + "{" (no deeper separator) and spliced at the marks."""
    keys = [[k for k, v in row.items() if isinstance(v, dict)] if type(row) is dict else [] for row in rows]
    if any(len(k) != 1 for k in keys):
        return None
    text = _records([{**row, k: -math.inf} for row, [k] in zip(rows, keys)], pad)
    inner = _records([row[k] for row, [k] in zip(rows, keys)], pad + "  ")
    if text is None or inner is None or text.count("-Infinity") != len(rows):
        return None
    parts, dicts = text.split("-Infinity"), inner[len(pad) + 6:-len(pad) - 4].split("}," + pad + "    {")
    return "".join(part + "{" + d + "}" for part, d in zip(parts, dicts)) + parts[-1]


def _indented(doc, pad):
    """``doc`` as ``json.dumps`` writes it at indent 2, on a line ``pad`` starts."""
    if not doc or not isinstance(doc, (dict, list, tuple)):
        return _ENCODER.encode(doc)  # a scalar, [] or {}
    inner = pad + "  "
    if isinstance(doc, dict):
        # The keys as the encoder writes them, non-strings converted.
        keys = _ENCODER.encode(dict.fromkeys(doc, 0))[1:-3].split("\x1f0\x1e")
        items = [k + ": " + _indented(v, inner) for k, v in zip(keys, doc.values())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return _records(doc, pad) or _nested_records(doc, pad) or "[" + inner + ("," + inner).join(
        [_indented(v, inner) for v in doc]) + pad + "]"


def dumps_report(report):
    """A report or any document in it, as ``json.dumps`` writes it at indent 2, and a newline."""
    return _indented(report, "\n") + "\n"
