"""Workloads, job batches and the per-job correctness gate.

A job is one hidra invocation: ``hidra.cli.main(argv)`` in-process, or
a library call of ``hidra.newton_solve`` for the V=1600 Newton job.  Every
job includes loading its mesh; CLI jobs also write their report.  Jobs
of a batch run one after another in this process (closed loop, one
client).
"""

import contextlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
INPUTS = BENCH / "inputs"
REPORT_SCHEMA = SRC / "hidra" / "schemas" / "report.schema.json"

# Curvature tolerances asked of the solvers and checked by the gate.
# Newton's fifth iterate lands between 2e-12 and 3e-10 on these inputs
# and its sixth at the 1e-14 roundoff floor, so 1e-13 makes every seed
# take six iterations; at 1e-10 some seeds stop after five, a seed-driven
# jump in work.  The genus-2 flow uses ricci_flow's own default; the
# grid flow stops at 3e-2 and starts from dt = 2, which the controller
# halves three times: 12 steps on almost every seed, so that one run
# times it several times.
SOLVE_TOL = 1e-13
FLOW_TOL = 1e-8
GRID_FLOW_TOL = 3e-2
GRID_FLOW_DT = ("--dt", "2.0")
# The acceptance suite's tolerances.
GAUSS_BONNET_TOL = 1e-9
MARGIN_FLOOR = -1e-10


def import_hidra():
    """Import ``hidra.cli`` from this checkout's ``src/``; returns the
    seconds the import took.  Raises ImportError when the sources are
    missing or another hidra shadows them."""
    if not (SRC / "hidra" / "__init__.py").is_file():
        raise ImportError(f"no hidra sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import hidra.cli
    elapsed = time.perf_counter() - start
    if Path(hidra.__file__).resolve().parent != SRC / "hidra":
        raise ImportError(f"imported hidra from {hidra.__file__}, not {SRC}")
    return elapsed


@dataclass
class Job:
    name: str
    mesh: Path
    argv: list = None         # hidra CLI arguments; None: library Newton
    tol: float = None         # max |K - Kbar| allowed; None: no target
    report: Path = None
    mesh_out: Path = None


@dataclass
class Input:
    label: str
    path: Path
    sha256: str


def grid_input(workdir, seed, label, n, packing):
    data = gen.mesh_bytes(n, *packing(gen.seeded_rng(seed, label), n))
    path = workdir / f"{label}.json"
    path.write_bytes(data)
    return Input(label, path, gen.sha256(data))


def _fixture_input(name):
    path = INPUTS / f"{name}.json"
    return Input(name, path, gen.sha256(path.read_bytes()))


def cli_job(workdir, command, inp, tol, extra=()):
    report = workdir / f"{command}-{inp.label}.report.json"
    argv = [command, str(inp.path), *extra, "--out", str(report)]
    if tol is not None:
        argv += ["--tol", repr(tol)]
    return Job(f"{command}/{inp.label}", inp.path, argv, tol, report)


UNIFORM_TARGET = ("--target-uniform", "0.5")
# Grid sizes.  Every job takes a second or two, so that a run times each
# job many times and its median survives the host's speed changes.
NEWTON_N = 24
CHECKER_N = 8
SOLVE_NS = (4,)


def newton_large(workdir, seed):
    """Library Newton at V=576 without the potential; no flips."""
    label = f"torus{NEWTON_N}"
    grid = grid_input(workdir, seed, label, NEWTON_N, gen.uniform_packing)
    return [Job(f"newton/{label}", grid.path, None, SOLVE_TOL)], [grid]


def flip_heavy(workdir, seed):
    """``hidra delaunay`` on two 8x8 checkerboard tori, 32 flips each;
    no solver, no potential."""
    inputs = [grid_input(workdir, seed, f"checker{CHECKER_N}-{k}", CHECKER_N,
                         gen.checkerboard_packing)
              for k in range(2)]
    jobs = []
    for inp in inputs:
        job = cli_job(workdir, "delaunay", inp, None)
        job.mesh_out = workdir / f"{inp.label}.flipped.json"
        job.argv += ["--mesh-out", str(job.mesh_out)]
        jobs.append(job)
    return jobs, inputs


def solve_small(workdir, seed):
    """``hidra solve`` with the potential tracked on the three fixtures
    and the 4x4 grid."""
    fixtures = [_fixture_input(name) for name in ("torus1", "genus2", "octahedron")]
    grids = [grid_input(workdir, seed, f"torus{n}", n, gen.uniform_packing)
             for n in SOLVE_NS]
    # torus1 carries no target curvature; genus2 and octahedron do.
    jobs = [cli_job(workdir, "solve", fixtures[0], SOLVE_TOL, ("--target-uniform", "1.0"))]
    jobs += [cli_job(workdir, "solve", inp, SOLVE_TOL) for inp in fixtures[1:]]
    jobs += [cli_job(workdir, "solve", inp, SOLVE_TOL, UNIFORM_TARGET) for inp in grids]
    return jobs, fixtures + grids


def flow_small(workdir, seed):
    """``hidra flow`` on genus 2 and a near-regular 4x4 grid."""
    genus2 = _fixture_input("genus2")
    grid = grid_input(workdir, seed, "regular4", 4, gen.near_regular_packing)
    jobs = [cli_job(workdir, "flow", genus2, FLOW_TOL),
            cli_job(workdir, "flow", grid, GRID_FLOW_TOL, UNIFORM_TARGET + GRID_FLOW_DT)]
    return jobs, [genus2, grid]


WORKLOADS = {
    "newton-large": newton_large,
    "flip-heavy": flip_heavy,
    "solve-small": solve_small,
    "flow-small": flow_small,
}


def run_job(job):
    """Run one job; returns the CLI exit code or the library SolveState."""
    import hidra

    if job.argv is not None:
        return hidra.cli.main(job.argv)
    surface, packing, _, _ = hidra.load_mesh(job.mesh)
    target = [0.5] * surface.vertex_count
    return hidra.newton_solve(surface, packing, target, tol=job.tol,
                              track_potential=False)


def run_batch(jobs, tracer=None):
    """Run the jobs one after another.

    Returns (wall seconds, outcomes); an outcome is the job's return
    value or the exception it raised.  Output files of an earlier batch
    are removed first, so the gate never reads a stale report.  The CLI's stdout summary lines
    are swallowed so that this program's own stdout stays parseable.
    """
    for job in jobs:
        for path in (job.report, job.mesh_out):
            if path is not None:
                path.unlink(missing_ok=True)
    outcomes = []
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            for job in jobs:
                if tracer is not None:
                    tracer.job = job.name
                try:
                    outcomes.append(run_job(job))
                except Exception as exc:  # a crash is a failed job
                    outcomes.append(exc)
            wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, outcomes


class Gate:
    """Per-job correctness checks.

    A job fails when it crashed, its exit code is not 0, its status is
    not converged, its report does not validate against the program's
    report.schema.json, max|K - Kbar| > tol, |Gauss-Bonnet residual| >
    1e-9, or any edge's Delaunay margin < -1e-10.  Library jobs get the
    same checks on the returned SolveState.
    """

    def __init__(self):
        import jsonschema

        schema = json.loads(REPORT_SCHEMA.read_text())
        self.validator = jsonschema.Draft7Validator(schema)

    def check(self, job, outcome):
        """Returns (summary, reasons): the job's status, iteration and
        flip counts, and the list of failed checks (empty when it
        passed)."""
        if isinstance(outcome, Exception):
            return None, [f"crashed: {type(outcome).__name__}: {outcome}"]
        if job.argv is None:
            return self._check_state(job, outcome)
        return self._check_report(job, outcome)

    @staticmethod
    def _check_state(job, state):
        import hidra

        summary = {"status": state.status, "iterations": state.iterations,
                   "flips": len(state.flip_log)}
        reasons = []
        if state.status != "converged":
            reasons.append(f"status {state.status}")
        if not state.max_error <= job.tol:
            reasons.append(f"max|K-Kbar| = {state.max_error:.3e} > {job.tol:.0e}")
        residual = hidra.gauss_bonnet_residual(state.surface, state.packing)
        if not abs(residual) <= GAUSS_BONNET_TOL:
            reasons.append(f"Gauss-Bonnet residual {residual:.3e}")
        margins = hidra.flips.surface_delaunay_margins(state.surface, state.packing)
        if not min(margins) >= MARGIN_FLOOR:
            reasons.append(f"Delaunay margin {min(margins):.3e}")
        return summary, reasons

    def _check_report(self, job, code):
        import hidra

        reasons = [] if code == 0 else [f"exit code {code}"]
        try:
            report = json.loads(job.report.read_text())
        except (OSError, ValueError) as exc:
            return None, reasons + [f"no readable report: {exc}"]
        schema_error = next(iter(self.validator.iter_errors(report)), None)
        if schema_error is not None:
            return None, reasons + [f"report.schema.json: {schema_error.message}"]
        summary = {"status": report["status"],
                   "iterations": len(report.get("iteration_trace") or []),
                   "flips": len(report.get("flip_log") or [])}
        if report["status"] != "converged":
            reasons.append(f"status {report['status']}")
        residual = (report.get("global") or {}).get("gauss_bonnet_residual")
        if residual is None or not abs(residual) <= GAUSS_BONNET_TOL:
            reasons.append(f"Gauss-Bonnet residual {residual}")
        margins = [e.get("delaunay_margin") for e in report.get("edges") or []]
        if not margins or None in margins or not min(margins) >= MARGIN_FLOOR:
            reasons.append("Delaunay margin missing or below -1e-10")
        if job.tol is not None:
            errors = [
                abs(v["K"] - v["Kbar"]) if v.get("K") is not None
                and v.get("Kbar") is not None else math.inf
                for v in report.get("vertices") or [{}]
            ]
            if not max(errors) <= job.tol:
                reasons.append(f"max|K-Kbar| = {max(errors):.3e} > {job.tol:.0e}")
        if job.mesh_out is not None:
            try:
                surface, _, _ = hidra.parse_mesh(job.mesh_out.read_bytes())
            except (OSError, hidra.errors.HidraError) as exc:
                reasons.append(f"--mesh-out unreadable: {exc}")
            else:
                counts = (surface.vertex_count, surface.edge_count, surface.face_count)
                glob = report["global"]
                if counts != (glob["vertex_count"], glob["edge_count"], glob["face_count"]):
                    reasons.append(f"--mesh-out has V, E, F = {counts}")
        return summary, reasons
