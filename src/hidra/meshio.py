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
from operator import attrgetter, itemgetter

import numpy as np

from .errors import DomainError, MeshError, NonCompactOrthocircle, ParseError, ValidationError
from .geometry import Packing, SurfaceMetrics, _gauss_bonnet_residual, curvatures, u_from_r
from .hyptrig import acosh_stable
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
    """The ids of ``lists`` as one flat intp array, once checked to be
    JSON integers, not booleans, in ``valid``; the first other value v,
    in the list of ``owner``, raises ValidationError(message.format(owner, v))."""
    flat = list(chain.from_iterable(lists))
    if set(map(type, flat)) <= {int} and (
        not flat or min(flat) in valid and max(flat) in valid
    ):
        return np.array(flat, dtype=np.intp)
    ok = [type(v) is int and v in valid for v in flat]
    owner, v = [(o, v) for o, ids in zip(owners, lists) for v in ids][ok.index(False)]
    raise ValidationError(message.format(owner, v))


def _permutation(ids, kind):
    """The record ids ``ids`` as an array, checked to list each of 0 .. len(ids) - 1 once."""
    array = _ids([ids], [kind], "{} id {} out of range", range(len(ids)))
    if (np.bincount(array, minlength=len(ids)) > 1).any():
        first = {}  # id -> index of the first record that holds it
        _each([first.setdefault(i, k) == k for k, i in enumerate(ids)], ids, f"duplicate {kind} id {{}}")
    return array


def _float(value):
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        return math.inf


def _numbers(values, ids, message):
    """``values`` as floats, an integer past the float range as inf; the first
    that is not a JSON number raises ValidationError(message.format(its id))."""
    if not set(map(type, values)) <= {int, float}:
        _each([type(v) in (int, float) for v in values], ids, message)
    try:
        return np.array(values, dtype=float)
    except OverflowError:
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
    vids = _permutation(vids, "vertex")
    radii = _numbers(radii, vids, "vertex {}: radius must be a number")
    _each(np.isfinite(radii) & (radii > 0.0), vids, "vertex {}: radius must be positive")

    eids, ends, inv = _fields(
        doc["edges"], ("id", "ends", "inversive_distance"),
        "edge records must be objects", "edge needs id, ends and inversive_distance",
    )
    eids = _permutation(eids, "edge")
    if not (set(map(type, ends)) <= {list} and set(map(len, ends)) <= {2}):
        _each([isinstance(p, list) and len(p) == 2 for p in ends], eids, "edge {}: ends must be a pair")
    ends = _ids(ends, eids, "edge {}: unknown vertex {}")
    inv = _numbers(inv, eids, "edge {}: inversive_distance must be a number")
    _require(np.all(np.isfinite(inv) & (inv > 1.0)), "inversive_distance must exceed 1")

    corners, sides = _fields(
        doc["faces"], ("corners", "sides"),
        "face records must be objects", "face {} needs corners and sides",
    )
    faces, flat = range(len(corners)), []
    for name, kind, lists in (("corners", "vertex", corners), ("sides", "edge", sides)):
        if not set(map(type, lists)) <= {list}:
            _each([isinstance(ids, list) for ids in lists], faces, f"face {{}}: {name} must be a triple")
        flat.append(_ids(lists, faces, f"face {{}}: unknown {kind} {{}}"))
    # (F, 2, 3) ids when every face is a pair of triples; else build_surface names the first that is not.
    cells = (np.stack([ids.reshape(-1, 3) for ids in flat], axis=1)
             if set(map(len, corners)) | set(map(len, sides)) <= {3} else list(zip(corners, sides)))

    edge_order = np.argsort(eids)
    try:
        surface = build_surface(len(vids), ends.reshape(-1, 2)[edge_order], cells)
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


def _scalar(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


class Records:
    """A record section held by column, as the array kernel computes it.

    Row i is the dict of each key's i-th value.  ``columns`` maps each key
    to a list of ``n`` JSON scalars; to a tuple of such lists, whose row
    value is the list of their i-th items (an edge's ``ends``); or to a
    dict of them, whose row value is the dict of their i-th items (a
    flip's ``labels``).  A non-finite number reads as None, and so does
    a key's row value wherever ``missing[key]`` is true (a degenerate
    face's ``angles``).  Indexing and iteration give the dict rows;
    ``dumps_report`` writes the section from the columns.
    """

    def __init__(self, n, columns, missing=None):
        self.n, self.columns, self.missing = n, columns, missing or {}

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        i = range(self.n)[i]
        return {
            key: None if key in self.missing and self.missing[key][i]
            else _scalar(column[i]) if type(column) is list
            else {name: _scalar(part[i]) for name, part in column.items()} if type(column) is dict
            else [_scalar(part[i]) for part in column]
            for key, column in self.columns.items()
        }

    def __iter__(self):
        return map(self.__getitem__, range(self.n))

    def __eq__(self, other):
        return list(self) == other


def mesh_document(surface, packing, target=None):
    """The mesh document of a surface + packing, its record lists Records;
    ``dumps_report`` writes it as the text ``parse_mesh`` reads back."""
    ids = list(range(surface.vertex_count))
    doc = {
        "format_version": FORMAT_VERSION,
        "vertices": Records(len(ids), {"id": ids, "radius": packing.radii.tolist()}),
        "edges": Records(surface.edge_count, {
            "id": list(range(surface.edge_count)), "ends": tuple(surface.edges.T.tolist()),
            "inversive_distance": packing.inv.tolist(),
        }),
        "faces": Records(surface.face_count, {
            "corners": tuple(surface.corners.T.tolist()), "sides": tuple(surface.sides.T.tolist()),
        }),
    }
    if target is not None:
        kbar = np.asarray(target, dtype=float).tolist()
        doc["target_curvature"] = Records(len(ids), {"vid": ids, "kbar": kbar})
    return doc


def load_mesh(path):
    """Read a mesh file; returns (surface, packing, target, sha256 digest)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    surface, packing, target = parse_mesh(raw)
    return surface, packing, target, hashlib.sha256(raw).hexdigest()


_FLIP_FIELDS = attrgetter("edge", "labels", "new_value", "iteration", "margin_before")


def build_report(status, digest=None, surface=None, packing=None, target=None, state=None,
                 error=None, metrics=None):
    """Assemble the full diagnostics document.

    Always schema-valid, even for failed runs: geometric sections are
    filled only as far as the state allows, and the status field is
    always populated.  Record sections are Records, their columns taken
    from one evaluation of the array kernel (``metrics``, the caller's or
    the state's kernel of the same surface and packing, if any); the Hessian
    spectrum sign is the one recorded on ``state``, taken at the
    solver's exit state.
    """
    report = {"format_version": FORMAT_VERSION, "status": status, "input_digest": digest, "error": error}
    report.update(dict.fromkeys(("global", "vertices", "edges", "faces", "flip_log", "iteration_trace")))
    if state is not None:
        surface, packing, target, trace = state.surface, state.packing, state.target, state.trace
        metrics = metrics or state.metrics
        report["iteration_trace"] = Records(
            len(trace), {key: [row[key] for row in trace] for key in trace[:1] and trace[0]}
        )
        edge, labels, value, iteration, before = (
            [list(c) for c in zip(*map(_FLIP_FIELDS, state.flip_log))] or [[]] * 5
        )
        report["flip_log"] = Records(len(edge), {
            "edge": edge, "labels": dict(zip("abcde", zip(*labels))),
            "new_inversive_distance": value, "iteration": iteration, "margin_before": before,
        })
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
    slots = surface.hinge_slots
    lengths = metrics.cosh_lengths[slots.face_k, slots.side_in_k]

    report["global"] = {
        "chi": euler_characteristic(surface),
        "vertex_count": surface.vertex_count,
        "edge_count": surface.edge_count,
        "face_count": surface.face_count,
        "total_area": _scalar(area),
        "gauss_bonnet_residual": _scalar(gb),
        "solver_status": status,
        "hessian_spectrum_sign": getattr(state, "hessian_sign", None),
        "potential": _scalar(getattr(state, "potential", None)),
        # validity is the operational proxy (I > 1, triangle
        # inequalities), weaker than an injectivity-radius bound
        "weight_domain": "proxy",
    }
    # The mesh's sections start the report's.  length and rho stay scalar
    # acosh_stable and math.asinh: NumPy's log1p and arcsinh differ in last bits.
    mesh, none = mesh_document(surface, packing, target), [None] * surface.vertex_count
    report["vertices"] = Records(surface.vertex_count, {
        **mesh["vertices"].columns,
        "u": u_from_r(packing.radii).tolist(),
        "K": none if K is None else K.tolist(),
        "Kbar": none if target is None else mesh["target_curvature"].columns["kbar"],
    })
    report["edges"] = Records(surface.edge_count, {
        **mesh["edges"].columns,
        "length": [acosh_stable(c) for c in lengths.tolist()],
        "delaunay_margin": [None] * surface.edge_count if margins is None else margins.tolist(),
    })
    has_angles = metrics.domain_ok & metrics.angle_ok
    compact = metrics.domain_ok & (metrics.xi > 0.0)
    report["faces"] = Records(surface.face_count, {
        "id": list(range(surface.face_count)),
        **mesh["faces"].columns,
        "xi": metrics.xi.tolist(),
        "delta": metrics.delta.tolist(),
        "rho": [math.asinh(s) if c else None for s, c in zip(metrics.sinh_rho.tolist(), compact.tolist())],
        "area": metrics.face_areas.tolist(),
        "angles": tuple(metrics.unchecked_angles.T.tolist()),
    }, missing=dict.fromkeys(("area", "angles"), (~has_angles).tolist()))
    return report


# Control-character separators, never raw inside a string; documents are trees: no cycle check.
_ENCODER = json.JSONEncoder(separators=("\x1e", "\x1f"), check_circular=False)
_NON_FINITE = {"NaN": "null", "Infinity": "null", "-Infinity": "null"}


def _cells(values):
    """JSON scalars as the C encoder writes each, in one pass; a
    non-finite number as null (a string's text is quoted)."""
    text = _ENCODER.encode(values)
    cells = text[1:-1].split("\x1e")
    return [_NON_FINITE.get(c, c) for c in cells] if "NaN" in text or "Infinity" in text else cells


def _rows(template, cells, n):
    return [template % row for row in (zip(*cells) if cells else [()] * n)]


def _key(name):
    return _ENCODER.encode(name).replace("%", "%%") + ": "


def _section(records, pad):
    """A Records section as ``json.dumps`` writes its rows at indent 2,
    on a line ``pad`` starts: each column encoded once, each row by one
    ``%`` template.  A tuple or dict column's items fill slots of their
    own, unless a row of it is missing: then its row values fill one."""
    if not records.n:
        return "[]"
    row, key, item = pad + "  ", pad + "    ", pad + "      "
    slots, cells = [], []
    for name, column in records.columns.items():
        slot, parts = "%s", [column]
        if type(column) is not list:
            keys = [_key(k) for k in column] if type(column) is dict else [""] * len(column)
            parts = list(column.values()) if type(column) is dict else column
            start, end = "{}" if type(column) is dict else "[]"
            slot = start + item + ("," + item).join(k + "%s" for k in keys) + key + end if keys else start + end
        parts = [_cells(part) for part in parts]
        missing = records.missing.get(name)
        if missing is not None and any(missing):
            rows = _rows(slot, parts, records.n)
            slot, parts = "%s", [["null" if gone else text for gone, text in zip(missing, rows)]]
        slots.append(_key(name) + slot)
        cells += parts
    template = "{" + key + ("," + key).join(slots) + row + "}" if slots else "{}"
    return "[" + row + ("," + row).join(_rows(template, cells, records.n)) + pad + "]"


def _indented(doc, pad):
    """``doc`` as ``json.dumps`` writes it at indent 2, on a line ``pad`` starts."""
    if isinstance(doc, Records):
        return _section(doc, pad)
    if not doc or not isinstance(doc, (dict, list, tuple)):
        return _ENCODER.encode(doc)  # a scalar, [] or {}
    inner = pad + "  "
    if isinstance(doc, dict):
        # The keys as the encoder writes them, non-strings converted.
        keys = _ENCODER.encode(dict.fromkeys(doc, 0))[1:-3].split("\x1f0\x1e")
        items = [k + ": " + _indented(v, inner) for k, v in zip(keys, doc.values())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return "[" + inner + ("," + inner).join([_indented(v, inner) for v in doc]) + pad + "]"


def dumps_report(report):
    """A report or any document in it, as ``json.dumps`` writes it at
    indent 2 (a Records section as its rows), and a newline."""
    return _indented(report, "\n") + "\n"
