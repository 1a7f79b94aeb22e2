"""The record-by-record mesh parser, kept as the oracle for the array one.

``parse_mesh_loops`` checks each record of a mesh document in plain
Python, including the id ranges and the triangle shape that
``hidra.meshio.parse_mesh`` leaves to ``build_surface``.  It differs
from the parser it was taken from in two rules only, both of which the
array parser follows too: ``format_version`` must be a string matching
``^1\\.`` as in ``mesh.schema.json``, and bytes that are not UTF-8 raise
ParseError like any other input that is not JSON.
"""

import json
import math

import numpy as np

from hidra.errors import MeshError, ParseError, ValidationError
from hidra.geometry import Packing
from hidra.surface import build_surface


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


def parse_mesh_loops(data):
    if isinstance(data, (bytes, bytearray, str)):
        try:
            doc = json.loads(data)
        except ValueError as exc:
            raise ParseError(f"not valid JSON: {exc}") from exc
    else:
        doc = data
    _require(isinstance(doc, dict), "top level must be an object")
    _require("format_version" in doc, "missing format_version")
    _require(
        isinstance(doc["format_version"], str)
        and doc["format_version"].startswith("1."),
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
