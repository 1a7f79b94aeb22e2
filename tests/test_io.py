"""Mesh/report documents, schemas, and the command-line interface."""

import hashlib
import json
import math
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from conftest import checkerboard_packing, torus_grid
import hidra
from hidra.cli import main
from hidra.errors import ParseError, ValidationError
from hidra.geometry import Packing
from hidra.meshio import (
    build_report,
    dumps_mesh,
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
        with pytest.raises(ParseError):
            parse_mesh(b"{not json")

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
    )]
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
        from hidra.meshio import mesh_document
        from hidra.solver import SolveState, curvatures, u_from_r

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
        state = SolveState(
            surface2, packing2, u_from_r(packing2.radii), None,
            *curvatures(surface2, packing2), "converged", 0, events, [],
        )
        digest = hashlib.sha256(mesh.read_bytes()).hexdigest()
        report = build_report(status="converged", digest=digest, state=state)
        report["mesh"] = mesh_document(surface2, packing2)
        assert out.read_text() == dumps_report(report)
        margin = min(surface_delaunay_margins(surface2, packing2))
        assert capsys.readouterr().out == f"flips: 8  min margin: {margin:.3e}\n"

    def test_delaunay_budget_overrun_keeps_flip_log_and_digest(self, tmp_path):
        from hidra.checks import random_packing
        from hidra.complexes import one_vertex_genus2
        from hidra.flips import make_weighted_delaunay

        surface, rng = one_vertex_genus2(), np.random.default_rng(0)
        while True:  # a packing that needs more flips than the budget
            packing = random_packing(surface, rng, inv_range=(1.05, 12.0), max_tries=5000)
            if len(make_weighted_delaunay(surface, packing)[2]) >= 3:
                break
        mesh = tmp_path / "in.json"
        mesh.write_text(dumps_mesh(surface, packing))
        out = tmp_path / "report.json"
        code = self.run("delaunay", str(mesh), "--flip-budget", "2", "--out", str(out))
        assert code == 4
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("report.schema.json"))
        assert report["status"] == "surgery_diverged"
        assert len(report["flip_log"]) == 2
        assert report["input_digest"] == hashlib.sha256(mesh.read_bytes()).hexdigest()
        assert report["global"]["edge_count"] == 9

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
        # segment reach a face with Xi <= 0 in the carried triangulation.
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
        assert code == 4
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema("report.schema.json"))
        assert report["status"] == "surgery_diverged"
        assert "Xi" in report["error"]
        assert report["input_digest"] == hashlib.sha256(mesh.read_bytes()).hexdigest()
        assert report["flip_log"] == [] and report["iteration_trace"] == []
        assert len(report["vertices"]) == 6
        assert min(e["delaunay_margin"] for e in report["edges"]) >= -1e-10

    def test_solve_singular_hessian_is_reported(self, tmp_path, monkeypatch):
        from hidra import solver
        from scipy.sparse import csr_array

        def singular_hessian(surface, packing, symmetrize=True):
            # torus1 has one vertex: its zeroed row and column
            return csr_array((surface.vertex_count, surface.vertex_count))

        monkeypatch.setattr(solver, "hessian", singular_hessian)
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

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hidra.cli", "verify", "--samples", "100"],
            capture_output=True,
            text=True,
            env={**os.environ, "HIDRA_SEED": "1"},
        )
        assert proc.returncode == 0
        assert "[pass]" in proc.stdout
