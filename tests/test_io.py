"""Mesh/report documents, schemas, and the command-line interface."""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import dataclass, replace
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    checkerboard_packing, dumps_mesh, one_vertex_genus2, torus_grid, unchecked_packing,
)
from mesh_oracle import parse_mesh_loops
import hidra
from hidra import errors
from hidra.cli import main
from hidra.complexes import octahedron_sphere, one_vertex_torus
from hidra.errors import HidraError, ParseError, ValidationError
from hidra.geometry import Packing
from hidra.meshio import (
    Records,
    build_report,
    dumps_report,
    parse_mesh,
)
from hidra.solver import newton_solve
from hidra.surface import euler_characteristic


def fixture_path(name):
    return str(resources.files("hidra") / "fixtures" / name)


def schema(name):
    with (resources.files("hidra") / "schemas" / name).open() as fh:
        return json.load(fh)


@pytest.fixture
def torus_doc():
    with open(fixture_path("torus1.json")) as fh:
        return json.load(fh)


class TestParseMesh:
    def test_bundled_torus(self, torus_doc):
        surface, packing, target = parse_mesh(torus_doc)
        assert euler_characteristic(surface) == 0
        assert target is None
        assert packing.inv.tolist() == [2.0, 2.0, 2.0]
        assert packing.radii[0] == pytest.approx(math.atanh(0.5), rel=1e-15)

    def test_bundled_fixtures_satisfy_mesh_schema(self):
        mesh_schema = schema("mesh.schema.json")
        for name in ("torus1.json", "genus2.json", "octahedron.json"):
            with open(fixture_path(name)) as fh:
                jsonschema.validate(json.load(fh), mesh_schema)

    def test_malformed_json_is_parse_error(self):
        for data in (b"{not json", b"\x80\x81"):  # the second is not UTF-8
            with pytest.raises(ParseError):
                parse_mesh(data)

    def test_low_inversive_distance_rejected(self, torus_doc):
        torus_doc["edges"][0]["inversive_distance"] = 0.9
        with pytest.raises(ValidationError, match="inversive_distance must exceed 1"):
            parse_mesh(torus_doc)

    def test_dangling_edge_reference_rejected(self, torus_doc):
        torus_doc["faces"][0]["sides"] = [0, 1, 7]
        with pytest.raises(ValidationError, match="unknown edge"):
            parse_mesh(torus_doc)

    def test_nonpositive_radius_rejected(self, torus_doc):
        torus_doc["vertices"][0]["radius"] = 0.0
        with pytest.raises(ValidationError, match="radius must be positive"):
            parse_mesh(torus_doc)

    def test_open_surface_rejected(self, torus_doc):
        torus_doc["faces"] = torus_doc["faces"][:1]
        with pytest.raises(ValidationError, match="slots"):
            parse_mesh(torus_doc)

    def test_roundtrip_identity(self, torus_doc):
        surface, packing, target = parse_mesh(torus_doc)
        text = dumps_mesh(surface, packing, target)
        surface2, packing2, target2 = parse_mesh(text)
        assert surface2 == surface
        assert np.array_equal(packing2.inv, packing.inv)
        assert np.array_equal(packing2.radii, packing.radii)
        # serialization is byte-stable once canonicalized
        assert dumps_mesh(surface2, packing2, target2) == text

    def test_full_precision_roundtrip(self, torus):
        packing = Packing(
            np.array([1.0 + 1e-15, 2.0 / 3.0 * 3.1, math.pi]),
            np.array([math.atanh(0.5)]),
        )
        surface2, packing2, _ = parse_mesh(dumps_mesh(torus, packing))
        assert np.array_equal(packing2.inv, packing.inv)
        assert np.array_equal(packing2.radii, packing.radii)


MISSING = object()  # a planted value that deletes its key or list entry


@dataclass(frozen=True)
class IdOf:
    """A planted id computed from the document: the count of its ``key``
    records plus ``offset``, or a drawn id in range when ``offset`` is
    None."""

    key: str
    offset: object = None


ID_VALUES = [True, False, 1.0, "1", None, [0], -1, 2**63 - 1, 2**63, -(2**70)]
NUMBER_VALUES = [
    "abc", None, True, [1.5], {"value": 1.5}, 10**400, -(10**400), math.nan, math.inf,
    -math.inf,
]
RECORDS = ("vertices", "edges", "faces", "target_curvature")
FIELDS = {
    "vertices": ("id", "radius"), "edges": ("id", "ends", "inversive_distance"),
    "faces": ("corners", "sides"), "target_curvature": ("vid", "kbar"),
}
ID_LISTS = (("edges", "ends", "vertices"), ("faces", "corners", "vertices"),
            ("faces", "sides", "edges"))
# (path, value): set the entry at path to value, each "*" a drawn index;
# "+" inserts a target row of a drawn vertex with kbar = value.
PLANTS = (
    [((), v) for v in (b"{not json", b"\x80\x81", b"", b"[1, 2", [], "mesh", 3, None)]
    + [(("format_version",), v)
       for v in (MISSING, 1, 1.5, "1", "2.0", None, ["1.0"], "1.", "1.5")]
    + [((key,), v) for key in RECORDS for v in (MISSING, {}, "list", None, 7, [])]
    + [((key, "*"), v) for key in RECORDS for v in (MISSING, [1, 2], "record", 3, None)]
    + [((key, "*", field), MISSING) for key in RECORDS for field in FIELDS[key]]
    + [((key, "*", "id"), v) for key in ("vertices", "edges")
       for v in ID_VALUES + [IdOf(key, 0), IdOf(key)]]
    + [(("target_curvature", "*", "vid"), v)
       for v in ID_VALUES + [IdOf("vertices", 0), IdOf("vertices")]]
    + [(("vertices", "*", "radius"), v) for v in NUMBER_VALUES + [0, 0.0, -0.5, 2, 1e-300]]
    + [(("edges", "*", "inversive_distance"), v)
       for v in NUMBER_VALUES + [1, 1.0, 0.5, 3, 10**20]]
    + [(("target_curvature", "*", "kbar"), v) for v in NUMBER_VALUES + [0, -2.5]]
    + [(("target_curvature", "+"), v) for v in (math.nan, 10**400, 0, 1.25)]
    + [((key, "*", field), v) for key, field, _ in ID_LISTS
       for v in ("ab", 3, None, {}, [], [0], [0, 0, 0, 0])]
    + [((key, "*", field, "*"), v) for key, field, ids in ID_LISTS
       for v in ID_VALUES + [IdOf(ids, 0), IdOf(ids, 3), IdOf(ids)]]
)
# Every check of the loop parser, and two of build_surface's.
ORACLE_CHECKS = [
    "not valid JSON: .*", "top level must be an object", "missing format_version",
    "unsupported format_version .*", "missing list '(vertices|edges|faces)'",
    "mesh has no vertices", "vertex records must be objects", "vertex needs id and radius",
    "vertex id .* out of range", r"duplicate vertex id \d+",
    r"vertex \d+: radius must be a number", r"vertex \d+: radius must be positive",
    "edge records must be objects", "edge needs id, ends and inversive_distance",
    "edge id .* out of range", r"duplicate edge id \d+", r"edge \d+: ends must be a pair",
    r"edge \d+: unknown vertex .*", r"edge \d+: inversive_distance must be a number",
    "inversive_distance must exceed 1", "face records must be objects",
    r"face \d+ needs corners and sides", r"face \d+: corners must be a triple",
    r"face \d+: sides must be a triple", r"face \d+: unknown vertex .*",
    r"face \d+: unknown edge .*", "target_curvature must be a list",
    "target rows need vid and kbar", "target references unknown vertex .*",
    r"target row of vertex \d+: kbar must be a number",
    "target_curvature must cover every vertex", r"edge \d+ has \d+ face slots, expected 2",
    r"face \d+ side \d \(edge \d+\) joins .*",
]
# The checks parse_mesh leaves to build_surface: the loop parser's
# message, and the one build_surface gives for the same edge or face.
MOVED = [
    (r"(edge \d+): unknown vertex -?\d+", r"\1 references unknown vertex"),
    (r"(face \d+): unknown vertex -?\d+", r"\1 references unknown vertex"),
    (r"(face \d+): unknown edge -?\d+", r"\1 references unknown edge"),
    (r"(face \d+): (corners|sides) must be a triple", r"\1 is not a triangle"),
]
START_DOCS = ["torus1.json", "genus2.json", "octahedron.json", "grid3", "grid4"]


def start_doc(name):
    """A valid mesh document with a target row per vertex: a bundled
    fixture, or an n x n torus grid ("gridN") with a random packing."""
    if name.startswith("grid"):
        n = int(name[4:])
        rng = np.random.default_rng(n)
        packing = Packing(rng.uniform(1.05, 3.0, 3 * n * n), rng.uniform(0.1, 1.0, n * n))
        return json.loads(dumps_mesh(torus_grid(n), packing, rng.uniform(-1.0, 1.0, n * n)))
    with open(fixture_path(name)) as fh:
        doc = json.load(fh)
    doc.setdefault("target_curvature", [{"vid": 0, "kbar": 1.0}])
    return doc


def plant(doc, path, value, pick):
    """Mesh bytes of ``doc`` with ``value`` planted at ``path``; ``pick(n)``
    draws an index in [0, n)."""
    if not path:
        return value if isinstance(value, bytes) else json.dumps(value).encode()
    counts = {key: len(doc[key]) for key in ("vertices", "edges")}
    if isinstance(value, IdOf):
        count = counts[value.key]
        value = pick(count) if value.offset is None else count + value.offset
    node = doc
    for step in path[:-1]:
        node = node[pick(len(node)) if step == "*" else step]
    last = pick(len(node)) if path[-1] == "*" else path[-1]
    if last == "+":
        node.insert(pick(len(node) + 1), {"vid": pick(counts["vertices"]), "kbar": value})
    elif value is MISSING:
        del node[last]
    else:
        node[last] = value
    return json.dumps(doc).encode()


def parse_outcome(parser, data):
    """(exception class, message), or (None, the arrays and bytes parsed)."""
    try:
        surface, packing, target = parser(data)
    except HidraError as exc:
        return type(exc), str(exc)
    arrays = (surface.edges, surface.corners, surface.sides, packing.inv, packing.radii)
    target = None if target is None else target.tobytes()
    return None, (surface.vertex_count, *(a.tobytes() for a in arrays), target)


class TestParserAgainstLoopOracle:
    """parse_mesh agrees with the record-by-record parser of
    tests/mesh_oracle.py on documents with one planted defect: the same
    exception class; the same message where the check stayed in the
    parser, the same edge or face where it moved to build_surface; equal
    arrays and bytes where both accept."""

    @staticmethod
    def assert_agrees(data):
        want = parse_outcome(parse_mesh_loops, data)
        got = parse_outcome(parse_mesh, data)
        assert got[0] is want[0], (want, got)
        if got != want:
            assert want[0] is not None and any(
                re.fullmatch(pattern, want[1]) and re.sub(pattern, moved, want[1]) == got[1]
                for pattern, moved in MOVED
            ), (want, got)

    @pytest.mark.parametrize("path, value", PLANTS)
    @given(name=st.sampled_from(START_DOCS), data=st.data())
    @settings(max_examples=6)
    def test_one_planted_defect(self, path, value, name, data):
        doc = start_doc(name)
        for key in ("vertices", "edges"):  # ids need not follow record order
            doc[key] = data.draw(st.permutations(doc[key]))
        self.assert_agrees(plant(doc, path, value, lambda n: data.draw(st.integers(0, n - 1))))

    def test_plants_cover_every_check(self):
        pick = random.Random(0).randrange
        messages = set()
        for path, value in PLANTS:
            for name in START_DOCS:
                error, message = parse_outcome(parse_mesh_loops, plant(start_doc(name), path, value, pick))
                if error is not None:
                    messages.add(message)
        missed = [c for c in ORACLE_CHECKS if not any(re.fullmatch(c, m) for m in messages)]
        assert missed == []


class TestReports:
    def test_solve_report_matches_schema(self, torus, torus_packing):
        state = newton_solve(torus, torus_packing, np.array([1.0]))
        report = build_report(status=state.status, digest="0" * 64, state=state)
        jsonschema.validate(json.loads(dumps_report(report)), schema("report.schema.json"))
        assert report["global"]["hessian_spectrum_sign"] == 1
        assert report["global"]["gauss_bonnet_residual"] == pytest.approx(0.0, abs=1e-9)
        assert report["vertices"][0]["K"] == pytest.approx(1.0, abs=1e-10)

    def test_failure_report_still_valid(self):
        report = build_report(status="invalid_input", error="boom")
        jsonschema.validate(json.loads(dumps_report(report)), schema("report.schema.json"))
        assert report["status"] == "invalid_input"
        assert report["vertices"] is None

    def test_degenerate_face_report_still_valid(self, torus):
        # side 0 is longer than the other two together: no triangle
        packing = Packing(np.array([30.0, 2.0, 2.0]), np.array([math.atanh(0.5)]))
        report = build_report(status="invalid_input", surface=torus, packing=packing)
        jsonschema.validate(json.loads(dumps_report(report)), schema("report.schema.json"))
        assert [v["K"] for v in report["vertices"]] == [None]
        assert [e["delaunay_margin"] for e in report["edges"]] == [None] * 3
        assert all(e["length"] > 0.0 for e in report["edges"])
        assert [f["angles"] for f in report["faces"]] == [None, None]
        assert [f["rho"] for f in report["faces"]] == [None, None]

    def test_one_kernel_per_report(self, monkeypatch):
        """Curvatures, margins and the per-face sections of a report all
        come from one evaluation of the array kernel: the report's own for
        a state without one, else the state's, byte for byte alike."""
        from hidra.checks import random_packing
        from hidra.geometry import SurfaceMetrics

        surface = torus_grid(24)
        packing = random_packing(surface, np.random.default_rng(0), (0.5, 0.8), (1.05, 1.5))
        state = newton_solve(surface, packing, np.full(576, 0.5), track_potential=False)
        built = []
        init = SurfaceMetrics.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SurfaceMetrics, "__init__", counted)
        report = build_report(status=state.status, digest="0" * 64, state=replace(state, metrics=None))
        assert len(built) == 1
        assert None not in [e["delaunay_margin"] for e in report["edges"]]
        assert None not in [v["K"] for v in report["vertices"]]
        carried = build_report(status=state.status, digest="0" * 64, state=state)
        assert len(built) == 1 and dumps_report(carried) == dumps_report(report)


    @pytest.mark.parametrize("case", [
        "torus1", "genus2", "octahedron", "grid4",
        "degenerate", "torus1:r180", "torus1:i1e300", "non_compact",
    ])
    def test_report_columns_are_the_kernel_arrays(self, case):
        """Each vertex and face column is the array kernel's, null where a
        face fails its check; summed as the kernel sums them, the face
        areas are the total area, bit for bit."""
        from hidra.geometry import SurfaceMetrics, curvatures

        surface, packing = report_case(case)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = build_report(status="converged", surface=surface, packing=packing)
        m, everywhere = SurfaceMetrics(surface, packing), [True] * surface.face_count
        has_angles = (m.domain_ok & m.angle_ok).tolist()
        try:
            K, area = curvatures(surface, packing, m)
        except errors.DomainError:
            K, area = np.full(surface.vertex_count, np.nan), None
        faces, vertices = report["faces"], report["vertices"]
        assert [f["xi"] for f in faces] == masked(m.xi.tolist(), everywhere)
        assert [f["delta"] for f in faces] == masked(m.delta.tolist(), everywhere)
        assert [f["area"] for f in faces] == masked(m.face_areas.tolist(), has_angles)
        assert [f["angles"] for f in faces] == masked(m.unchecked_angles.tolist(), has_angles)
        compact = (m.domain_ok & (m.xi > 0.0)).tolist()
        assert [f["rho"] for f in faces] == masked([math.asinh(v) for v in m.sinh_rho.tolist()], compact)
        assert [f["corners"] for f in faces] == surface.corners.tolist()
        assert [f["sides"] for f in faces] == surface.sides.tolist()
        assert [v["K"] for v in vertices] == masked(K.tolist(), [True] * len(K))
        assert [v["radius"] for v in vertices] == packing.radii.tolist()
        assert report["global"]["total_area"] == area
        if area is not None:
            assert np.sum(np.array([f["area"] for f in faces])) == area


def report_case(name):
    """(surface, packing) of a valid packing (a fixture, a checkerboard
    grid) or of an invalid one: a degenerate face, an overflowing length
    or Xi, a non-compact face."""
    if name == "grid4":
        surface = torus_grid(4)
        return surface, checkerboard_packing(surface, 4, np.random.default_rng(0))
    if name == "non_compact":
        surface = octahedron_sphere()
        return surface, unchecked_packing(surface, np.random.default_rng(0), inv_range=(1.05, 12.0))
    if name == "degenerate":
        return one_vertex_torus(), Packing(np.array([30.0, 2.0, 2.0]), np.array([math.atanh(0.5)]))
    surface, packing, _ = parse_mesh(open(fixture_path(name.split(":")[0] + ".json"), "rb").read())
    if name.endswith(":r180"):
        return surface, Packing(packing.inv, np.full(1, 180.0))
    if name.endswith(":i1e300"):
        return surface, Packing(np.r_[1e300, packing.inv[1:]], packing.radii)
    return surface, packing


def masked(values, ok):
    """Report cells: None where ``ok`` is false or a number is not finite."""
    return [v if k and not (isinstance(v, float) and not math.isfinite(v)) else None
            for v, k in zip(values, ok)]


def indent2(doc):
    return json.dumps(doc, indent=2) + "\n"


# Scalars as the writer meets them: ints past 2**63, every float class
# (signed zero, exponent forms, subnormals, nan, infinities), strings with
# JSON's structural characters, its escapes, control characters and
# non-ASCII text.
TEXT = st.text(st.sampled_from('ab[]{},:%"\\\x00\x1e\x1f\n\té☃\U0001f600'), max_size=4)
NUMBERS = (
    st.integers(-(2**70), 2**70)
    | st.sampled_from([2**63, -(2**63) - 1, 2**64])
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([-0.0, 1e-05, 1e16, 5e-324, math.nan, math.inf, -math.inf])
)
FLAT = NUMBERS | st.none() | st.booleans()


def records(keys, values):
    """Lists of records whose keys and value types differ from row to row."""
    return st.lists(st.dictionaries(keys, values, max_size=4), min_size=1, max_size=4)


# Record lists held as lists of dicts, which the recursive route writes:
# flat records with plain keys, and records that mix in strings, as keys
# or values.
RECORDS = records(
    st.sampled_from(["id", "ends", "K"]), FLAT | st.lists(FLAT, max_size=3)
) | records(
    st.sampled_from(["id", "ends"]) | TEXT, FLAT | st.lists(FLAT | TEXT, max_size=3) | TEXT
)
# Records that nest flat records, as a flip log's rows nest their labels.
FLAT_VALUES = FLAT | st.lists(FLAT, max_size=3)
LABELS = st.dictionaries(st.sampled_from(["a", "b", "-Infinity"]) | TEXT, FLAT_VALUES, max_size=3)
NESTED = st.lists(st.builds(
    lambda row, key, labels: {**row, key: labels},
    st.dictionaries(st.sampled_from(["edge", "f", "-Infinity"]), FLAT_VALUES | LABELS, max_size=3),
    st.sampled_from(["labels", "edge"]), LABELS,
), min_size=1, max_size=4)
DOCS = st.recursive(
    FLAT | TEXT | RECORDS | NESTED,
    # Keys that are numbers, null or booleans are written as strings.
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT | FLAT, inner, max_size=3),
    max_leaves=12,
)


# Values a record section holds: every number class above, the float
# range's ends and edges, null, booleans and strings that need escapes.
SCALARS = NUMBERS | st.sampled_from([1e308, -1.7976931348623157e308, 2.2250738585072014e-308]) | (
    st.none() | st.booleans() | TEXT
)
SECTION_KEYS = st.sampled_from(["id", "ends", "angles", "labels", "rho", "%s", "%%"]) | TEXT


@st.composite
def record_sections(draw):
    """A Records of 0-4 rows: scalar columns, and tuple and dict columns
    of width 0-3, some with missing rows (a degenerate face's angles)."""
    n = draw(st.integers(0, 4))

    def column():
        return draw(st.lists(SCALARS, min_size=n, max_size=n))

    columns, missing = {}, {}
    for key in draw(st.lists(SECTION_KEYS, unique=True, max_size=4)):
        kind = draw(st.sampled_from(["list", "tuple", "dict"]))
        if kind == "list":
            columns[key] = column()
            continue
        names = draw(st.lists(SECTION_KEYS, unique=True, max_size=3))
        columns[key] = tuple(column() for _ in names) if kind == "tuple" else {
            name: column() for name in names}
        if draw(st.booleans()):
            missing[key] = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return Records(n, columns, missing)


SECTION_DOCS = st.recursive(
    FLAT | TEXT | record_sections(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)


def rows_as_lists(doc):
    """``doc`` with each Records section as the list of its dict rows."""
    if isinstance(doc, Records):
        return list(doc)
    if isinstance(doc, dict):
        return {key: rows_as_lists(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [rows_as_lists(value) for value in doc]
    return doc


class TestWriter:
    """``dumps_report`` writes what ``json.dumps(doc, indent=2)`` writes."""

    @given(DOCS)
    @settings(max_examples=300)
    def test_matches_json_dumps(self, doc):
        assert dumps_report(doc) == indent2(doc)

    @pytest.mark.parametrize("doc", [
        [{"id": 0, "radius": 0.5}],
        [{"id": 0, "angles": []}, {"id": 1, "angles": [1.0, 2.0, 3.0]}],
        # Each defeats one shape test of the one-pass path: a string in a
        # record's list, a key holding "]", "{" or a quote, a nested list,
        # a dict in a list beside the rows, a nested dict, an empty record.
        [{"a": ["x", "y"]}],
        [{"a]": 1}],
        [{"a{": 1}, {"b": 2}],
        [{'a"': 1}],
        [{"a": [[1], 2]}],
        [{"a": [0, {"b": 1}]}, 5, {"c": 1}],
        [{"a": {"b": 1}}],
        [{}, {"a": 1}],
        # Keys the one-pass path writes as they are.
        [{"a}": 1, "b,:": [1, 2], "\n\u00e9": None}, {"a}": 2}],
        # Each defeats one test of the nested one-pass path: two nested
        # dicts in a row, a row without one, a -inf or a "-Infinity" key
        # beside one, a list or a "}," + newline in a nested key.
        [{"a": {"b": 1}, "c": {"d": 2}}],
        [{"a": {"b": 1}}, {"a": 2}],
        [{"a": {"b": 1}, "c": -math.inf}],
        [{"-Infinity": 1, "a": {"b": 1}}],
        [{"a": {"b": [1, 2], "c": 3}}, {"a": {"b]": 1}}],
        [{"a": {"},\n  {": 1}}, {"a": {"b": -math.inf}}],
        {"flip_log": [{
            "edge": 7,
            "labels": {"a": 1.5, "b": 1.25, "c": 2.0, "d": 1.75, "e": 3.0},
            "new_inversive_distance": 5.5,
            "iteration": 0,
            "margin_before": -0.25,
        }]},
    ])
    def test_explicit_cases(self, doc):
        assert dumps_report(doc) == indent2(doc)

    @given(SECTION_DOCS)
    @settings(max_examples=300)
    def test_sections_match_json_dumps_of_their_rows(self, doc):
        """A Records section is written as ``json.dumps`` writes its rows,
        which read each non-finite number and each missing row as null."""
        assert dumps_report(doc) == indent2(rows_as_lists(doc))

    def test_rows_read_as_the_columns_say(self):
        rows = Records(2, {
            "id": [0, 1],
            "ends": ([3, 4], [5, 6]),
            "labels": {"a": [1.5, math.nan]},
            "angles": ([0.5, math.inf], [1.0, 2.0]),
        }, missing={"angles": [False, True]})
        assert rows[-1] == {"id": 1, "ends": [4, 6], "labels": {"a": None}, "angles": None}
        assert rows == [
            {"id": 0, "ends": [3, 5], "labels": {"a": 1.5}, "angles": [0.5, 1.0]}, rows[1],
        ]
        assert len(rows) == 2 and Records(0, {}) == []
        with pytest.raises(IndexError):
            rows[2]

    def test_degenerate_face_sections(self, torus):
        # Side 0 is longer than the other two together: faces without
        # angles or rho, edges without margins, a vertex without K.
        packing = Packing(np.array([30.0, 2.0, 2.0]), np.array([math.atanh(0.5)]))
        report = build_report(status="invalid_input", surface=torus, packing=packing)
        assert dumps_report(report) == indent2(rows_as_lists(report))
        assert '"angles": null' in dumps_report(report)

    def test_report_records_take_one_pass(self, monkeypatch):
        """Every record section of a delaunay report and its mesh is a
        Records, written from its columns by one row template: no row goes
        through the recursive route, which writes the rest."""
        import hidra.meshio as meshio

        surface = torus_grid(4)
        packing = checkerboard_packing(surface, 4, np.random.default_rng(0))
        surface2, packing2, events = hidra.make_weighted_delaunay(surface, packing)
        state = newton_solve(surface2, packing2, np.full(16, 0.5), track_potential=False)
        report = build_report(status=state.status, digest="0" * 64,
                              state=replace(state, flip_log=events))
        report["mesh"] = hidra.mesh_document(surface2, packing2, np.full(16, 0.5))
        sections = [report[key] for key in ("vertices", "edges", "faces", "flip_log", "iteration_trace")]
        sections += list(report["mesh"].values())[1:]
        assert all(isinstance(rows, Records) for rows in sections)
        assert len(report["flip_log"]) == len(events) >= 8 and len(report["iteration_trace"]) >= 1
        assert report["flip_log"][0]["labels"] == dict(zip("abcde", events[0].labels))
        written, indented = [], meshio._indented
        monkeypatch.setattr(meshio, "_indented", lambda doc, pad: written.append(doc) or indented(doc, pad))
        assert dumps_report(report) == indent2(rows_as_lists(report))
        assert [doc for doc in written if isinstance(doc, Records)] == sections
        assert [doc for doc in written if isinstance(doc, dict)] == [report, report["global"], report["mesh"]]


NON_NUMBERS = ["abc", None, True, [1.5], {"value": 1.5}]
MALFORMED = (
    [("vertices", "radius", v, None) for v in NON_NUMBERS + [10**400]]
    + [("edges", "inversive_distance", v, None) for v in NON_NUMBERS]
    + [("target_curvature", "kbar", v, None) for v in NON_NUMBERS]
    # A JSON boolean is not an id, though Python counts it as 0 or 1.
    + [("edges", "ends", [False, 0], None), ("faces", "corners", [0, False, 0], None),
       ("faces", "sides", [0, True, 2], None)]
    + [(None, None, None, text) for text in (
        "{not json", "[1, 2]", '{"bogus": 1}', '{"tol": "abc"}', '{"tol": null}',
        '{"max_iters": true}', b"\xff\xfe",
        # json.loads reads NaN and Infinity; the integer settings take
        # JSON integers only, as their flags do.
        '{"max_iters": NaN}', '{"max_iters": Infinity}', '{"max_iters": 2.7}',
        '{"seed": NaN}', '{"flip_budget": NaN}', '{"flip_budget": 2.5}',
    )]
    # mesh.schema.json: format_version is a string matching ^1\.
    + [(None, "format_version", v, None) for v in (1, 1.5, "1")]
)


class TestCLI:
    def run(self, *argv):
        return main(list(argv))

    @pytest.mark.parametrize("records, key, value, config", MALFORMED)
    def test_malformed_input_is_an_invalid_input_report(
        self, tmp_path, records, key, value, config
    ):
        doc = json.loads(open(fixture_path("torus1.json")).read())
        doc["target_curvature"] = [{"vid": 0, "kbar": 1.0}]
        if records is not None:
            doc[records][0][key] = value
        elif key is not None:
            doc[key] = value
        mesh, out = tmp_path / "mesh.json", tmp_path / "report.json"
        mesh.write_text(json.dumps(doc))
        argv = ["delaunay", str(mesh), "--out", str(out)]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_bytes(config if isinstance(config, bytes) else config.encode())
            argv += ["--config", str(path)]
        assert self.run(*argv) == 2
        report = json.loads(out.read_text())
        assert report["status"] == "invalid_input"
        assert report["input_digest"] == hashlib.sha256(mesh.read_bytes()).hexdigest()
        jsonschema.validate(report, schema("report.schema.json"))

    @pytest.mark.parametrize("records", ["vertices", "edges", "target_curvature"])
    def test_boolean_id_is_an_invalid_input_report(self, tmp_path, records):
        # Record 1 of each list has id 1; the boolean true stands for it.
        doc = json.loads(open(fixture_path("octahedron.json")).read())
        key = "vid" if records == "target_curvature" else "id"
        doc[records][1][key] = True
        mesh, out = tmp_path / "mesh.json", tmp_path / "report.json"
        mesh.write_text(json.dumps(doc))
        assert self.run("delaunay", str(mesh), "--out", str(out)) == 2
        report = json.loads(out.read_text())
        assert report["status"] == "invalid_input"
        assert report["input_digest"] == hashlib.sha256(mesh.read_bytes()).hexdigest()
        jsonschema.validate(report, schema("report.schema.json"))

    def test_solve_torus(self, tmp_path):
        out = tmp_path / "report.json"
        code = self.run(
            "solve", fixture_path("torus1.json"),
            "--target-uniform", "1.0", "--tol", "1e-10", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "converged"
        assert abs(report["vertices"][0]["K"] - 1.0) <= 1e-10
        jsonschema.validate(report, schema("report.schema.json"))

    def test_delaunay_already_delaunay(self, tmp_path):
        out = tmp_path / "report.json"
        code = self.run("delaunay", fixture_path("torus1.json"), "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["flip_log"] == []
        assert report["mesh"]["edges"][0]["inversive_distance"] == 2.0

    def test_delaunay_writes_flipped_mesh(self, tmp_path):
        # perturb the torus so one edge needs a flip (Xi stays positive)
        doc = json.loads(open(fixture_path("torus1.json")).read())
        doc["edges"][0]["inversive_distance"] = 8.0
        mesh = tmp_path / "in.json"
        mesh.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        mesh_out = tmp_path / "flipped.json"
        code = self.run(
            "delaunay", str(mesh), "--out", str(out), "--mesh-out", str(mesh_out)
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["flip_log"]) >= 1
        surface, packing, _ = parse_mesh(mesh_out.read_text())
        from hidra.flips import surface_delaunay_margins

        assert min(surface_delaunay_margins(surface, packing)) >= -1e-10

    def test_delaunay_outputs_on_a_flipped_mesh(self, tmp_path, capsys):
        # The --mesh-out file, the report and the summary line are what
        # the library gives for the flipped state, byte for byte.
        from hidra.flips import make_weighted_delaunay, surface_delaunay_margins
        from hidra.geometry import SolveState
        from hidra.meshio import mesh_document

        surface = torus_grid(4)
        packing = checkerboard_packing(surface, 4, np.random.default_rng(0))
        mesh, out, mesh_out = tmp_path / "in.json", tmp_path / "r.json", tmp_path / "m.json"
        mesh.write_text(dumps_mesh(surface, packing))
        code = self.run(
            "delaunay", str(mesh), "--out", str(out), "--mesh-out", str(mesh_out)
        )
        assert code == 0
        surface2, packing2, events = make_weighted_delaunay(surface, packing)
        assert len(events) == 8
        assert mesh_out.read_text() == dumps_mesh(surface2, packing2)
        state = SolveState(surface2, packing2, flip_log=events)
        digest = hashlib.sha256(mesh.read_bytes()).hexdigest()
        report = build_report(status="converged", digest=digest, state=state)
        report["mesh"] = mesh_document(surface2, packing2)
        assert out.read_text() == dumps_report(report)
        margin = min(surface_delaunay_margins(surface2, packing2))
        assert capsys.readouterr().out == f"flips: 8  min margin: {margin:.3e}\n"

    @pytest.mark.parametrize("command, kernels", [
        ("validate", 1), ("curvature", 1), ("delaunay", 2),
    ])
    def test_one_kernel_per_cli_report(self, tmp_path, monkeypatch, command, kernels):
        """validate and curvature evaluate the array kernel once, for
        their checks and the report; delaunay twice, for its entry margin
        scan and the flipped state, and none per flip.  Each evaluates
        the curvatures once, for the report.  The report is the one
        build_report makes with its own kernel, byte for byte."""
        from hidra.flips import make_weighted_delaunay
        from hidra.geometry import SolveState, SurfaceMetrics
        from hidra.meshio import mesh_document

        surface = torus_grid(4)
        packing = checkerboard_packing(surface, 4, np.random.default_rng(0))
        mesh, out = tmp_path / "in.json", tmp_path / "r.json"
        mesh.write_text(dumps_mesh(surface, packing))
        digest = hashlib.sha256(mesh.read_bytes()).hexdigest()
        if command == "delaunay":
            surface2, packing2, events = make_weighted_delaunay(surface, packing)
            assert events
            state = SolveState(surface2, packing2, flip_log=events)
            expected = build_report(status="converged", digest=digest, state=state)
            expected["mesh"] = mesh_document(surface2, packing2)
        else:
            expected = build_report(
                status="converged", digest=digest, surface=surface, packing=packing
            )
        built, init = [], SurfaceMetrics.__init__

        def counted(self, surface, packing):
            built.append(surface)
            init(self, surface, packing)

        monkeypatch.setattr(SurfaceMetrics, "__init__", counted)
        evaluated, curvatures = [], hidra.curvatures
        for module in [m for name, m in sys.modules.items() if name.startswith("hidra")]:
            for attr, value in list(vars(module).items()):
                if value is curvatures:
                    monkeypatch.setattr(module, attr, lambda *a, **k: evaluated.append(1) or curvatures(*a, **k))
        assert self.run(command, str(mesh), "--out", str(out)) == 0
        assert len(built) == kernels
        assert len(evaluated) == 1
        assert out.read_text() == dumps_report(expected)

    @pytest.mark.parametrize("command, solver_name", [("solve", "newton_solve"), ("flow", "ricci_flow")])
    def test_no_kernel_after_the_run(self, tmp_path, monkeypatch, command, solver_name):
        """solve and flow report their exit state from the run's own
        kernel: none is built once the solver returns, and the report is
        the one build_report makes with a kernel of its own, byte for byte."""
        from hidra import cli
        from hidra.geometry import SurfaceMetrics

        events, states, init, run = [], [], SurfaceMetrics.__init__, getattr(cli, solver_name)

        def counted(self, surface, packing):
            events.append("kernel")
            init(self, surface, packing)

        def recorded(*args, **kwargs):
            states.append(run(*args, **kwargs))
            events.append("returned")
            return states[-1]

        monkeypatch.setattr(SurfaceMetrics, "__init__", counted)
        monkeypatch.setattr(cli, solver_name, recorded)
        mesh, out = fixture_path("genus2.json"), tmp_path / "r.json"
        assert self.run(command, mesh, "--out", str(out)) == 0
        monkeypatch.undo()
        assert events.count("returned") == 1 and events[-1] == "returned" and "kernel" in events
        (state,) = states
        assert state.metrics is not None
        with open(mesh, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        expected = build_report(status=state.status, digest=digest, state=replace(state, metrics=None))
        assert out.read_text() == dumps_report(expected)

    @pytest.mark.parametrize("fixture", ["torus1.json", "genus2.json", "octahedron.json"])
    def test_delaunay_reports_as_validate_does(self, tmp_path, fixture):
        """On a mesh that needs no flip, delaunay's sections are validate's:
        the mesh's target as Kbar, and no spectrum sign or potential,
        since no Hessian or potential was taken."""
        reports = {}
        for command in ("validate", "delaunay"):
            out = tmp_path / f"{command}.json"
            assert self.run(command, fixture_path(fixture), "--out", str(out)) == 0
            reports[command] = json.loads(out.read_text())
        delaunay = reports["delaunay"]
        assert delaunay.pop("mesh") and delaunay["flip_log"] == []
        for key in ("global", "vertices", "edges", "faces"):
            assert delaunay[key] == reports["validate"][key]
        assert delaunay["global"]["hessian_spectrum_sign"] is None and delaunay["global"]["potential"] is None

    def test_delaunay_budget_overrun_keeps_flip_log_and_digest(self, tmp_path):
        from hidra.checks import random_packing
        from hidra.flips import make_weighted_delaunay

        surface, rng = one_vertex_genus2(), np.random.default_rng(0)
        while True:  # a packing that needs more flips than the budget
            packing = random_packing(surface, rng, inv_range=(1.05, 12.0), max_tries=5000)
            if len(make_weighted_delaunay(surface, packing)[2]) >= 3:
                break
        mesh = tmp_path / "in.json"
        mesh.write_text(dumps_mesh(surface, packing, target=[-0.5]))
        out = tmp_path / "report.json"
        code = self.run("delaunay", str(mesh), "--flip-budget", "2", "--out", str(out))
        assert code == 4
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("report.schema.json"))
        assert report["status"] == "surgery_diverged"
        assert len(report["flip_log"]) == 2
        assert report["input_digest"] == hashlib.sha256(mesh.read_bytes()).hexdigest()
        assert report["global"]["edge_count"] == 9
        # The mesh's target, and no spectrum sign or potential: none was taken.
        assert [v["Kbar"] for v in report["vertices"]] == [-0.5]
        assert report["global"]["hessian_spectrum_sign"] is None and report["global"]["potential"] is None

    @staticmethod
    def octahedron_mesh(tmp_path, seed):
        from hidra.checks import random_packing
        from hidra.complexes import octahedron_sphere

        packing = random_packing(
            octahedron_sphere(), np.random.default_rng(seed),
            inv_range=(1.05, 12.0), max_tries=5000,
        )
        mesh = tmp_path / "in.json"
        mesh.write_text(dumps_mesh(octahedron_sphere(), packing))
        return mesh

    def test_solve_budget_overrun_keeps_earlier_flips(self, tmp_path):
        # One flip makes the start Delaunay; the first Newton step's
        # segment crosses two walls, one flip each, and the budget bounds
        # a step's flips together, so a budget of one runs out mid-solve.
        self.check_solve_overrun(
            self.octahedron_mesh(tmp_path, 6), tmp_path / "report.json", "5.0"
        )

    def test_solve_budget_overrun_at_one_wall(self, tmp_path):
        # A 2x2 checkerboard torus, symmetric under the diagonal shift
        # but for edge 5: one flip makes the start Delaunay, and the
        # first Newton step meets a wall that two shifted edges cross at
        # the same point, so a budget of one runs out mid-solve.
        surface = torus_grid(2)
        e = np.arange(12)
        inv = np.where(e % 3 == 2, 5.0, 1.5)
        inv[5] = 1.1
        packing = Packing(inv, np.arctanh([0.4, 0.6, 0.6, 0.4]))
        mesh = tmp_path / "in.json"
        mesh.write_text(dumps_mesh(surface, packing))
        self.check_solve_overrun(mesh, tmp_path / "report.json", "0.5")

    @pytest.mark.parametrize("command", ["solve", "flow"])
    def test_start_overrun_report_carries_the_target(self, tmp_path, command):
        # The seed-6 octahedron needs one flip at the start: a budget of 0
        # overruns there, and the report still holds the run's target.
        mesh, out = self.octahedron_mesh(tmp_path, 6), tmp_path / "report.json"
        code = self.run(
            command, str(mesh), "--target-uniform", "5.0", "--flip-budget", "0",
            "--out", str(out),
        )
        assert code == 4
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("report.schema.json"))
        assert report["status"] == "surgery_diverged"
        assert report["flip_log"] == [] and report["iteration_trace"] == []
        assert [v["Kbar"] for v in report["vertices"]] == [5.0] * 6

    def test_max_iters_allows_that_many_steps(self, tmp_path):
        # genus2.json converges at its fifth Newton step.
        out = tmp_path / "report.json"
        code = self.run(
            "solve", fixture_path("genus2.json"), "--max-iters", "5", "--out", str(out)
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "converged"
        assert len(report["iteration_trace"]) == 5

    def test_max_iters_must_not_be_negative(self, tmp_path, capsys):
        for command in ("solve", "flow"):
            out = tmp_path / f"{command}.json"
            code = self.run(
                command, fixture_path("genus2.json"), "--max-iters", "-2", "--out", str(out)
            )
            assert code == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            report = json.loads(out.read_text())
            jsonschema.validate(report, schema("report.schema.json"))
            assert report["status"] == "invalid_input"

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, key, value", [
        ("solve", "tol", -1.0), ("solve", "tol", math.nan), ("flow", "tol", -1.0),
        ("solve", "tol_delaunay", math.nan), ("delaunay", "tol_delaunay", math.nan),
        ("flow", "flip_budget", -1), ("delaunay", "flip_budget", -1),
        ("flow", "t_max", math.nan), ("flow", "t_max", -1.0),
    ])
    def test_bad_setting_is_invalid_input(self, tmp_path, capsys, source, command, key, value):
        # Before these were rejected, a NaN or negative tol ran to a
        # line-search underflow, a NaN Delaunay tolerance or a negative
        # flip budget to a flip-budget overrun, and a NaN t_max to the
        # step cap or a negative one to a stop after 0 steps (exit 3).
        out = tmp_path / "report.json"
        argv = [command, fixture_path("genus2.json"), "--out", str(out)]
        if source == "flag":
            argv.append(f"--{key.replace('_', '-')}={value}")
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: value}))
            argv += ["--config", str(config)]
        assert self.run(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key} = ")
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("report.schema.json"))
        assert report["status"] == "invalid_input"

    @pytest.mark.parametrize("command", ["solve", "flow"])
    @pytest.mark.parametrize("flags, message", [
        ([], "no target curvature: none in the mesh file and no --target-uniform"),
        (["--target-uniform", "1.0", "--config", "{tmp_path}"], "config {tmp_path}: cannot be read: "),
    ], ids=["no-target", "config-directory"])
    def test_no_target_or_unreadable_config_is_invalid_input(self, tmp_path, capsys, command, flags,
                                                              message):
        # torus1.json carries no target curvature, and a config path that
        # is a directory cannot be read.
        mesh, out = fixture_path("torus1.json"), tmp_path / "report.json"
        flags = [flag.format(tmp_path=tmp_path) for flag in flags]
        assert self.run(command, mesh, *flags, "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message.format(tmp_path=tmp_path)}")
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("report.schema.json"))
        assert report["status"] == "invalid_input"
        with open(mesh, "rb") as fh:
            assert report["input_digest"] == hashlib.sha256(fh.read()).hexdigest()

    @pytest.mark.parametrize("flags", [
        ["--max-iters", "3"],
        ["--dt", "0.01", "--t-max", "0.05"],  # t = 0.01, 0.03, 0.07
    ])
    def test_flow_budget_stops_after_three_steps(self, tmp_path, flags):
        # genus2.json's flow converges at its seventh step.
        out = tmp_path / "report.json"
        code = self.run("flow", fixture_path("genus2.json"), *flags, "--out", str(out))
        assert code == 3
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("report.schema.json"))
        assert report["status"] == "max_iterations"
        assert len(report["iteration_trace"]) == 3

    @pytest.mark.parametrize("name", ["torus1", "genus2", "octahedron", "grid8"])
    def test_default_flow_converges(self, tmp_path, name):
        # The flow's dt doubles, so its time passes any fixed bound
        # within a few steps: a default run is bounded by steps alone.
        if name == "grid8":
            from hidra.checks import random_packing

            mesh = tmp_path / "grid8.json"
            grid = torus_grid(8)
            packing = random_packing(
                grid, np.random.default_rng(5), (0.5, 0.8), (1.05, 1.5), max_tries=5000
            )
            mesh.write_text(dumps_mesh(grid, packing))
            argv = [str(mesh), "--target-uniform", "0.5"]
        else:
            argv = [fixture_path(f"{name}.json")]
            argv += ["--target-uniform", "1.0"] if name == "torus1" else []
        out = tmp_path / "report.json"
        assert self.run("flow", *argv, "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["status"] == "converged"
        assert max(abs(v["K"] - v["Kbar"]) for v in report["vertices"]) <= 1e-10

    def test_solve_overrun_names_the_budget_set(self, tmp_path, capsys):
        # The seed-6 octahedron spends its budget of one at the start, and
        # its first step's segment overruns it with none left.
        mesh, out = self.octahedron_mesh(tmp_path, 6), tmp_path / "report.json"
        code = self.run(
            "solve", str(mesh), "--target-uniform", "5.0", "--flip-budget", "1",
            "--out", str(out),
        )
        assert code == 4
        message = "exceeded flip budget of 1 flips"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert json.loads(out.read_text())["error"] == message

    def check_solve_overrun(self, mesh, out, target):
        code = self.run(
            "solve", str(mesh), "--target-uniform", target, "--flip-budget", "1",
            "--out", str(out),
        )
        assert code == 4
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("report.schema.json"))
        assert report["status"] == "surgery_diverged"
        assert report["input_digest"] == hashlib.sha256(mesh.read_bytes()).hexdigest()
        iterations = [f["iteration"] for f in report["flip_log"]]
        assert iterations == [0, 1]  # the start's flip, then one at the budget
        assert report["iteration_trace"] == []
        assert report["global"]["edge_count"] == 12

    def test_solve_non_compact_face_mid_solve_keeps_state(self, tmp_path):
        # Flips along a segment keep every orthocircle compact, so the
        # step must cross walls unflipped: from a Delaunay start (the
        # seed-16 octahedron after its three start flips), a Delaunay
        # tolerance beyond every margin here lets the first Newton step's
        # segment reach a face with Xi <= 0.  Each such trial is halved,
        # and the line search underflows at iteration 25.
        from hidra.checks import random_packing
        from hidra.complexes import octahedron_sphere
        from hidra.flips import make_weighted_delaunay

        packing = random_packing(
            octahedron_sphere(), np.random.default_rng(16),
            inv_range=(1.05, 12.0), max_tries=5000,
        )
        surface, packing, events = make_weighted_delaunay(octahedron_sphere(), packing)
        assert len(events) == 3
        mesh, out = tmp_path / "in.json", tmp_path / "report.json"
        mesh.write_text(dumps_mesh(surface, packing))
        code = self.run(
            "solve", str(mesh), "--target-uniform", "5.0", "--tol-delaunay", "100",
            "--out", str(out),
        )
        assert code == 3
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("report.schema.json"))
        assert report["status"] == "stalled"
        assert report["error"] == "line search step underflow"
        assert report["input_digest"] == hashlib.sha256(mesh.read_bytes()).hexdigest()
        assert report["flip_log"] == [] and len(report["iteration_trace"]) == 24
        assert report["iteration_trace"][0]["step"] == 0.5
        assert len(report["vertices"]) == 6
        assert min(e["delaunay_margin"] for e in report["edges"]) >= -100.0

    @pytest.mark.parametrize("name", ["torus1", "genus2", "octahedron"])
    def test_every_output_is_indented_json(self, tmp_path, name):
        """Each report, the flipped mesh and a failure report read as
        ``json.dumps(doc, indent=2)`` writes them."""
        mesh = fixture_path(f"{name}.json")
        target = ["--target-uniform", "1.0"] if name == "torus1" else []
        outputs = []
        for command in ("validate", "curvature", "delaunay", "solve", "flow"):
            out = tmp_path / f"{command}.json"
            argv = [command, mesh, "--out", str(out)]
            if command == "delaunay":
                argv += ["--mesh-out", str(tmp_path / "mesh.json")]
                outputs.append(tmp_path / "mesh.json")
            elif command in ("solve", "flow"):
                argv += target
            assert self.run(*argv) == 0
            outputs.append(out)
        bad = tmp_path / "bad.json"
        bad.write_text(open(mesh).read().replace('"radius": ', '"radius": -', 1))
        assert self.run("validate", str(bad), "--out", str(tmp_path / "failed.json")) == 2
        outputs.append(tmp_path / "failed.json")
        for path in outputs:
            text = path.read_text()
            assert text == indent2(json.loads(text)), path.name
        assert json.loads(outputs[-1].read_text())["status"] == "invalid_input"

    @pytest.mark.parametrize("records, key, value, command, code, message", [
        # At radius 180 the cosh of each length is about 1e156: finite, but
        # its square is not, and the law of cosines gives inf / inf.
        # validate accepted the packing (exit 0).
        *[("vertices", "radius", 180.0, command, 2, "face 0 has a corner cosine outside [-1, 1]")
          for command in ("validate", "curvature", "delaunay")],
        # At I = 1e300 the margin scan's Xi overflows: delaunay checks the
        # packing once the scan fails, and reports it as validate does.
        ("edges", "inversive_distance", 1e300, "validate", 2, "face 0 violates the triangle inequalities"),
        ("edges", "inversive_distance", 1e300, "curvature", 2, "face 0 has a corner cosine outside [-1, 1]"),
        ("edges", "inversive_distance", 1e300, "delaunay", 2, "face 0 violates the triangle inequalities"),
    ])
    def test_overflow_is_one_error_line(self, tmp_path, capsys, records, key, value, command, code,
                                        message):
        """A value whose lengths or forms overflow ends in one error line
        and a schema-valid report; NumPy overflow warnings reached stderr."""
        doc = json.loads(open(fixture_path("torus1.json")).read())
        doc[records][0][key] = value
        mesh, out = tmp_path / "overflow.json", tmp_path / "report.json"
        mesh.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert self.run(command, str(mesh), "--out", str(out)) == code
        assert capsys.readouterr().err == f"error: {message}\n"
        jsonschema.validate(json.loads(out.read_text()), schema("report.schema.json"))

    @pytest.mark.parametrize("command", ["solve", "flow", "delaunay"])
    def test_non_compact_start_keeps_the_input_state(self, tmp_path, command):
        # Face 5 of this octahedron packing has Xi < 0 before any flip:
        # the report holds the input, its curvature and no flips.
        from hidra.complexes import octahedron_sphere

        surface = octahedron_sphere()
        packing = unchecked_packing(
            surface, np.random.default_rng(0), inv_range=(1.05, 12.0)
        )
        mesh, out = tmp_path / "in.json", tmp_path / "report.json"
        mesh.write_text(dumps_mesh(surface, packing))
        target = [] if command == "delaunay" else ["--target-uniform", "5.0"]
        code = self.run(command, str(mesh), *target, "--out", str(out))
        assert code == 4
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("report.schema.json"))
        assert report["status"] == "surgery_diverged"
        assert report["error"] == "face 5 has Xi = -1.173e+01 <= 0"
        assert report["input_digest"] == hashlib.sha256(mesh.read_bytes()).hexdigest()
        assert report["flip_log"] == [] and report["iteration_trace"] == []
        assert [v["radius"] for v in report["vertices"]] == packing.radii.tolist()
        assert all(v["K"] is not None for v in report["vertices"])
        assert [e["inversive_distance"] for e in report["edges"]] == packing.inv.tolist()
        assert report["faces"][5]["xi"] < 0.0

    def test_solve_singular_hessian_is_reported(self, tmp_path, monkeypatch):
        from hidra import solver

        def singular_hessian_values(surface, metrics):
            # torus1 has one vertex: its zeroed row and column
            return np.zeros(len(surface.hessian_pattern[1]))

        monkeypatch.setattr(solver, "_hessian_values", singular_hessian_values)
        mesh, out = fixture_path("torus1.json"), tmp_path / "report.json"
        code = self.run(
            "solve", mesh, "--target-uniform", "1.0", "--out", str(out)
        )
        assert code == 3
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("report.schema.json"))
        assert report["status"] == "stalled"
        assert "singular" in report["error"]
        assert report["global"]["hessian_spectrum_sign"] == 0
        with open(mesh, "rb") as fh:
            assert report["input_digest"] == hashlib.sha256(fh.read()).hexdigest()

    @pytest.mark.parametrize("command", ["solve", "flow"])
    @pytest.mark.parametrize("error", sorted(
        (cls for cls in vars(errors).values()
         if isinstance(cls, type) and issubclass(cls, HidraError)
         and cls not in (HidraError, errors.SolverFailure)),  # bases the library never raises
        key=lambda cls: cls.__name__,
    ) + [OSError], ids=lambda cls: cls.__name__)
    def test_every_library_failure_meets_one_handler(self, tmp_path, monkeypatch, capsys,
                                                     command, error):
        """Each SolverFailure reports its state's status and flip log (exit
        4 for SurgeryDiverged, 3 for the others); every other library
        error, and an OSError, is invalid_input (exit 2); each with one
        error line."""
        import hidra.cli as cli

        mesh, out = self.octahedron_mesh(tmp_path, 6), tmp_path / "report.json"
        target = np.full(6, 5.0)
        state = newton_solve(*parse_mesh(mesh.read_bytes())[:2], target)
        assert len(state.flip_log) == 3
        statuses = {errors.SurgeryDiverged: "surgery_diverged", errors.SolverStalled: "stalled",
                    errors.MaxIterationsExceeded: "max_iterations", errors.FlowStalled: "stalled"}
        if issubclass(error, errors.SolverFailure):
            state.status = statuses[error]
            failure = error("planted", state=state)
            status, code = state.status, 4 if error is errors.SurgeryDiverged else 3
        else:
            failure, status, code = error("planted"), "invalid_input", 2

        def run(*args, **kwargs):
            raise failure

        monkeypatch.setattr(cli, {"solve": "newton_solve", "flow": "ricci_flow"}[command], run)
        assert self.run(command, str(mesh), "--target-uniform", "5.0", "--out", str(out)) == code
        assert capsys.readouterr().err == "error: planted\n"
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("report.schema.json"))
        assert (report["status"], report["error"]) == (status, "planted")
        assert report["input_digest"] == hashlib.sha256(mesh.read_bytes()).hexdigest()
        if code == 2:
            assert report["flip_log"] is None and report["vertices"] is None
        else:
            assert [f["edge"] for f in report["flip_log"]] == [e.edge for e in state.flip_log]
            assert [v["Kbar"] for v in report["vertices"]] == target.tolist()

    def test_solve_rejects_inadmissible_target(self, tmp_path):
        out = tmp_path / "report.json"
        code = self.run(
            "solve", fixture_path("torus1.json"),
            "--target-uniform", "0.0", "--out", str(out),
        )
        assert code == 2
        report = json.loads(out.read_text())
        assert report["status"] == "invalid_input"
        jsonschema.validate(report, schema("report.schema.json"))

    def test_validation_failure_exit_code(self, tmp_path):
        doc = json.loads(open(fixture_path("torus1.json")).read())
        doc["edges"][0]["inversive_distance"] = 0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert self.run("validate", str(bad), "--out", str(out)) == 2
        report = json.loads(out.read_text())
        assert report["status"] == "invalid_input"
        assert "inversive_distance" in report["error"]

    def test_flow_subcommand(self, tmp_path):
        out = tmp_path / "report.json"
        code = self.run(
            "flow", fixture_path("torus1.json"),
            "--target-uniform", "1.0", "--dt", "0.5", "--t-max", "200",
            "--tol", "1e-8", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "converged"
        pots = [row["potential"] for row in report["iteration_trace"]]
        assert all(b <= a + 1e-12 for a, b in zip(pots, pots[1:]))

    def test_verify_subcommand(self, tmp_path):
        out = tmp_path / "verify.json"
        code = self.run("verify", "--seed", "3", "--samples", "400", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["seed"] == 3

    @pytest.mark.parametrize("command, config", [
        ("solve", '{"max_iters": NaN}'), ("flow", '{"max_iters": NaN}'),
        ("solve", '{"max_iters": Infinity}'), ("solve", '{"max_iters": 2.7}'),
        ("verify", '{"seed": NaN}'),
    ])
    def test_non_integer_config_setting_is_invalid_input(
        self, tmp_path, capsys, command, config
    ):
        # Unchecked, NaN and Infinity ended in a ValueError or
        # OverflowError traceback, and 2.7 ran 2 Newton iterations.
        path, out = tmp_path / "config.json", tmp_path / "report.json"
        path.write_text(config)
        argv = [command, "--config", str(path), "--out", str(out)]
        argv += ["--samples", "50"] if command == "verify" else [fixture_path("genus2.json")]
        assert self.run(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config ")
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("report.schema.json"))
        assert report["status"] == "invalid_input"

    @pytest.mark.parametrize("flags, config, env", [
        (["--seed", "-1"], None, None), ([], '{"seed": -1}', None),
        ([], None, "abc"), (["--seed", "3"], None, "-1"), ([], None, "1e3"),
    ], ids=["flag", "config", "env-text", "env-negative", "env-float"])
    def test_bad_verify_seed_is_invalid_input(
        self, tmp_path, capsys, monkeypatch, flags, config, env
    ):
        # A negative seed ended in numpy's ValueError traceback and a
        # HIDRA_SEED that int() cannot read in its own (exit 1).
        out = tmp_path / "report.json"
        if config is not None:
            (tmp_path / "config.json").write_text(config)
            flags = [*flags, "--config", str(tmp_path / "config.json")]
        if env is not None:
            monkeypatch.setenv("HIDRA_SEED", env)
        assert self.run("verify", *flags, "--samples", "50", "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("report.schema.json"))
        assert report["status"] == "invalid_input"

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_verify_without_samples_is_invalid_input(self, tmp_path, capsys, samples):
        # With no sample drawn, the Ptolemy and compactness sections
        # passed with residual 0.000e+00 and verify exited 0.
        out = tmp_path / "report.json"
        assert self.run("verify", "--samples", samples, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: samples = {samples} must be positive\n"
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("report.schema.json"))
        assert report["status"] == "invalid_input"

    def test_verify_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        out = tmp_path / "verify.json"
        monkeypatch.setenv("HIDRA_SEED", "77")
        self.run("verify", "--seed", "3", "--samples", "200", "--out", str(out))
        assert json.loads(out.read_text())["seed"] == 77

    def test_config_file_and_flag_precedence(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tol": 1e-3, "max_iters": 50}))
        out = tmp_path / "report.json"
        # config loosens the tolerance; the flag tightens it again
        code = self.run(
            "solve", fixture_path("torus1.json"),
            "--target-uniform", "1.0", "--config", str(config),
            "--tol", "1e-12", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["vertices"][0]["K"] - 1.0) <= 1e-11

    def test_config_file_alone_applies(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_iters": 1}))
        code = self.run(
            "solve", fixture_path("torus1.json"),
            "--target-uniform", "1.0", "--config", str(config),
        )
        assert code == 3  # one Newton step cannot reach 1e-10

    def test_multiple_meshes_fan_out(self, tmp_path):
        out_dir = tmp_path / "reports"
        code = self.run(
            "curvature", fixture_path("torus1.json"), fixture_path("genus2.json"),
            "--out", str(out_dir),
        )
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["genus2.report.json", "torus1.report.json"]

    def test_fan_out_into_a_file_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "reports"
        out.write_text("")
        code = self.run(
            "curvature", fixture_path("torus1.json"), fixture_path("genus2.json"),
            "--out", str(out),
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and out.read_text() == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_fan_out_refuses_meshes_that_share_a_report(self, tmp_path, capsys):
        # a/x.json and b/x.json would both write x.report.json: the run
        # stops before any job, naming both meshes.
        meshes = []
        for folder, fixture in (("a", "torus1.json"), ("b", "genus2.json")):
            (tmp_path / folder).mkdir()
            meshes.append(tmp_path / folder / "x.json")
            shutil.copyfile(fixture_path(fixture), meshes[-1])
        out = tmp_path / "reports"
        code = self.run("curvature", *map(str, meshes), "--out", str(out))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert all(str(mesh) in captured.err for mesh in meshes)

    def test_fan_out_refuses_one_mesh_out_for_several_meshes(self, tmp_path, capsys):
        # Each job would write its flipped mesh to the one --mesh-out path.
        out, mesh_out = tmp_path / "reports", tmp_path / "m.json"
        code = self.run(
            "delaunay", fixture_path("torus1.json"), fixture_path("genus2.json"),
            "--out", str(out), "--mesh-out", str(mesh_out),
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists() and not mesh_out.exists()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_parallel_jobs(self, tmp_path):
        out_dir = tmp_path / "reports"
        code = self.run(
            "solve", fixture_path("genus2.json"), fixture_path("octahedron.json"),
            "--jobs", "2", "--out", str(out_dir),
        )
        assert code == 0
        for name in ("genus2.report.json", "octahedron.report.json"):
            report = json.loads((out_dir / name).read_text())
            assert report["status"] == "converged"

    @pytest.mark.parametrize("jobs, meshes, workers", [(8, 2, 2), (2, 3, 2), (1, 2, None)])
    def test_pool_has_no_more_workers_than_jobs(self, monkeypatch, capsys, jobs, meshes, workers):
        # The pool starts all max_workers at its first job: --jobs 8 on two
        # meshes must not fork eight workers.  A recording fake stands in.
        import concurrent.futures

        made = []

        class Pool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        fixtures = [fixture_path(f"{name}.json") for name in ("torus1", "genus2", "octahedron")]
        assert self.run("curvature", *fixtures[:meshes], "--jobs", str(jobs)) == 0
        assert made == ([] if workers is None else [workers])
        assert capsys.readouterr().out.count("gauss_bonnet_residual") == meshes

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_invalid_input(self, tmp_path, capsys, jobs):
        for meshes in (["torus1.json"], ["torus1.json", "genus2.json"]):
            out = tmp_path / "out"
            code = self.run("curvature", *map(fixture_path, meshes), "--jobs", jobs, "--out", str(out))
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: --jobs {jobs} must be at least 1\n"
            assert not out.exists()

    @pytest.mark.parametrize("case, code, status", [
        ("--dt=0", 2, "invalid_input"),
        ("--dt=-1", 2, "invalid_input"),
        ("--dt=nan", 2, "invalid_input"),
        ("--dt=inf", 2, "invalid_input"),
        ("--dt=1e-300", 3, "stalled"),  # the step leaves u where it is
        ("mesh", 2, "invalid_input"),
        ("config", 2, "invalid_input"),
        ("out", 2, None),
    ])
    def test_console_script_bad_dt_or_directory_path(self, tmp_path, case, code, status):
        # A flow step that cannot move u must end, and a path that is a
        # directory must give one error line, not a traceback; the
        # timeout turns a run that never returns into a failure.
        mesh, out = fixture_path("torus1.json"), tmp_path / "report.json"
        argv = ["flow", mesh, "--target-uniform", "1.0"]
        if case.startswith("--dt"):
            argv.append(case)
        elif case == "mesh":
            argv[1] = str(tmp_path)
        elif case == "config":
            argv += ["--config", str(tmp_path)]
        else:
            out = tmp_path
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hidra.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "hidra.cli", *argv, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == code
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")
        if status is not None:
            report = json.loads(out.read_text())
            jsonschema.validate(report, schema("report.schema.json"))
            assert report["status"] == status

    @pytest.mark.parametrize("command", ["solve", "flow"])
    def test_console_script_radius_past_the_u_chart_exits_2(self, tmp_path, command):
        # torus1 passes validate at radius 38, where u = log tanh(r/2)
        # rounds to 0; solve and flow named a face of the walk.
        doc = json.loads(open(fixture_path("torus1.json")).read())
        doc["vertices"][0]["radius"] = 38.0
        mesh, out = tmp_path / "mesh.json", tmp_path / "report.json"
        mesh.write_text(json.dumps(doc))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hidra.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "hidra.cli", command, str(mesh), "--target-uniform", "1.0",
             "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        message = "vertex 0 has radius 38.0, where u = log tanh(r/2) rounds to 0"
        assert (proc.returncode, proc.stderr) == (2, f"error: {message}\n")
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("report.schema.json"))
        assert (report["status"], report["error"]) == ("invalid_input", message)

    def test_console_script_tiny_dt_flow_ends(self, tmp_path):
        # dt doubles from 1e-11 after each accepted step, so the flow
        # reaches Newton-sized steps within about 40; at a dt that never
        # grows it would take t_max / dt steps.
        out = tmp_path / "report.json"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hidra.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "hidra.cli", "flow", fixture_path("torus1.json"),
             "--target-uniform", "1.0", "--dt", "1e-11", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["status"] == "converged"

    def test_parser_is_built_once_on_first_use(self):
        import hidra.cli as cli

        code = "import hidra.cli; print(hidra.cli.build_parser.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hidra.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout.strip() == "0"  # not built by the import
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        # Subcommands parsed one after another share no state.
        first = parser.parse_args(
            ["delaunay", "a.json", "--mesh-out", "m.json", "--flip-budget", "3"]
        )
        second = parser.parse_args(["flow", "b.json", "--max-iters", "2"])
        third = parser.parse_args(["delaunay", "c.json"])
        assert (first.handler, first.mesh, first.mesh_out, first.flip_budget) == (
            cli.cmd_delaunay, ["a.json"], "m.json", 3)
        assert (second.handler, second.mesh, second.max_iters, second.flip_budget) == (
            cli.cmd_flow, ["b.json"], 2, None)
        assert not hasattr(second, "mesh_out") and not hasattr(third, "max_iters")
        assert (third.mesh, third.mesh_out, third.flip_budget) == (["c.json"], None, None)

    def test_delaunay_encodes_the_mesh_once(self, tmp_path, monkeypatch):
        """The report nests the flipped mesh that --mesh-out writes; its
        text is encoded once and both files keep json.dumps's bytes."""
        import hidra.cli as cli

        meshes, encoded = [], []
        document, dumps = cli.mesh_document, cli.dumps_report
        monkeypatch.setattr(
            cli, "mesh_document", lambda *a: meshes.append(document(*a)) or meshes[-1]
        )
        monkeypatch.setattr(cli, "dumps_report", lambda doc: encoded.append(doc) or dumps(doc))
        mesh, grid = tmp_path / "in.json", torus_grid(4)
        mesh.write_text(dumps_mesh(grid, checkerboard_packing(grid, 4, np.random.default_rng(0))))
        out, mesh_out = tmp_path / "report.json", tmp_path / "mesh.json"
        assert self.run("delaunay", str(mesh), "--out", str(out), "--mesh-out", str(mesh_out)) == 0
        [flipped] = meshes
        assert sum(doc is flipped or flipped in doc.values() for doc in encoded) == 1
        report = json.loads(out.read_text())
        assert report["flip_log"] and report["mesh"] == json.loads(mesh_out.read_text())
        for path in (out, mesh_out):
            assert path.read_text() == indent2(json.loads(path.read_text()))

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hidra.cli", "verify", "--samples", "100"],
            capture_output=True,
            text=True,
            env={**os.environ, "HIDRA_SEED": "1"},
        )
        assert proc.returncode == 0
        assert "[pass]" in proc.stdout


FUZZ_SURFACES = [one_vertex_torus(), one_vertex_genus2(), octahedron_sphere(), torus_grid(2)]
REPORT_VALIDATOR = jsonschema.Draft7Validator(schema("report.schema.json"))
DOCUMENTED_EXITS = {0, 2, 3, 4}


@st.composite
def fuzz_meshes(draw):
    """A mesh document on a bundled complex or the 2x2 torus grid: each
    radius from tanh r in [1e-6, 0.999] or up to 200, each inversive
    distance in [1 + 1e-9, 1e3], mostly below 3."""
    surface = draw(st.sampled_from(FUZZ_SURFACES))
    radius = st.floats(1e-6, 0.999).map(math.atanh) | st.floats(1e-3, 200.0)
    inv = st.floats(1.0 + 1e-9, 3.0) | st.floats(1.0 + 1e-9, 1e3)
    radii = draw(st.lists(radius, min_size=surface.vertex_count, max_size=surface.vertex_count))
    invs = draw(st.lists(inv, min_size=surface.edge_count, max_size=surface.edge_count))
    return dumps_mesh(surface, Packing(np.array(invs), np.array(radii)))


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v!r}"]))


FUZZ_FLAGS = st.tuples(
    _flag("--tol-delaunay", st.floats(-1e-3, 1e-3)),
    _flag("--flip-budget", st.integers(0, 6)),
    _flag("--max-iters", st.integers(0, 4)),
    _flag("--tol", st.floats(1e-12, 1e-3)),
    _flag("--dt", st.floats(1e-3, 4.0)),
    st.floats(-1.0, 6.0).map(lambda k: [f"--target-uniform={k!r}"]),
).map(lambda flags: [flag for one in flags for flag in one])
COMMAND_FLAGS = {
    "validate": (),
    "curvature": (),
    "delaunay": ("--tol-delaunay", "--flip-budget"),
    "solve": ("--tol-delaunay", "--flip-budget", "--max-iters", "--tol", "--target-uniform"),
    "flow": ("--tol-delaunay", "--flip-budget", "--max-iters", "--tol", "--target-uniform", "--dt"),
}


class TestCLIFuzz:
    @given(fuzz_meshes(), FUZZ_FLAGS)
    @settings(max_examples=100)
    def test_every_command_exits_documented(self, tmp_path_factory, mesh_text, flags):
        """Each command exits 0, 2, 3 or 4, leaves at most one stderr line,
        an ``error:`` line, and writes a schema-valid report in
        ``json.dumps(doc, indent=2)``'s bytes; no NumPy warning escapes."""
        tmp = tmp_path_factory.mktemp("fuzz")
        mesh, out = tmp / "in.json", tmp / "report.json"
        mesh.write_text(mesh_text)
        for command, names in COMMAND_FLAGS.items():
            argv = [command, str(mesh), "--out", str(out)]
            argv += [flag for flag in flags if flag.split("=")[0] in names]
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv)
            assert code in DOCUMENTED_EXITS, argv
            lines = err.getvalue().splitlines()
            assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines), argv
            text = out.read_text()
            report = json.loads(text)
            assert text == indent2(report), argv
            assert next(REPORT_VALIDATOR.iter_errors(report), None) is None, argv
            out.unlink()
