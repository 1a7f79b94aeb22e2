"""Command-line entry points.

Subcommands: validate, curvature, delaunay, solve, flow, verify.  Human
readable diagnostics go to stderr, a short summary to stdout, and the
full JSON report to the --out path when given.  Exit codes: 0 converged
or passed, 2 invalid input, 3 solver non-convergence, 4 internal
divergence.
"""

import argparse
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .checks import run_verification_suite
from .errors import (
    HidraError, NonCompactOrthocircle, SolverFailure, SurgeryDiverged, TargetOutOfRange,
    ValidationError,
)
from .flips import make_weighted_delaunay
from .geometry import STATUS_CONVERGED, TOL_DELAUNAY, SolveState, SurfaceMetrics, validate_packing
from .meshio import build_report, dumps_report, mesh_document, parse_mesh
from .solver import (
    DEFAULT_FLOW_DT, DEFAULT_FLOW_T_MAX, DEFAULT_MAX_ITERATIONS, DEFAULT_TOL_K,
    newton_solve, ricci_flow, validate_target,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
EXIT_DIVERGED = 4

DEFAULTS = {
    "tol": DEFAULT_TOL_K,
    "tol_delaunay": TOL_DELAUNAY,
    "flip_budget": None,   # 100 * edge count unless overridden
    "max_iters": DEFAULT_MAX_ITERATIONS,
    "dt": DEFAULT_FLOW_DT,
    "t_max": DEFAULT_FLOW_T_MAX,
    "seed": 0,
}
INTEGER_SETTINGS = ("flip_budget", "max_iters", "seed")  # their flags are type=int


def _say(msg):
    print(msg, file=sys.stderr)


def _settings(args):
    """Effective options: CLI flags override the config file, which
    overrides the built-in defaults.  The config file must be a JSON
    object of numbers keyed by DEFAULTS names, where ``max_iters``,
    ``seed`` and ``flip_budget`` are integers, as their flags are
    (``flip_budget`` may be null); anything else raises ValidationError."""
    merged = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            config = json.loads(Path(config_path).read_bytes())
        except OSError as exc:
            raise ValidationError(f"config {config_path}: cannot be read: {exc.strerror}") from exc
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise ValidationError(f"config {config_path}: not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ValidationError(f"config {config_path}: must be a JSON object")
        for key, value in config.items():
            if key not in DEFAULTS:
                raise ValidationError(f"config {config_path}: unknown key {key!r}")
            kinds, what = ((int,), "an integer") if key in INTEGER_SETTINGS else ((int, float), "a number")
            if type(value) not in kinds and (key, value) != ("flip_budget", None):
                raise ValidationError(f"config {config_path}: {key} must be {what}")
        merged.update(config)
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _write_report(args, report):
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(dumps_report(report))


def _solver_target(args, surface, target_from_file):
    uniform = getattr(args, "target_uniform", None)
    if uniform is not None:
        return np.full(surface.vertex_count, float(uniform))
    if target_from_file is None:
        raise TargetOutOfRange(
            "no target curvature: none in the mesh file and no --target-uniform"
        )
    return target_from_file


def cmd_validate(args, surface, packing, target, digest):
    metrics = validate_packing(surface, packing)
    if target is not None:
        validate_target(surface, target)
    report = build_report(
        status="converged", digest=digest, surface=surface, packing=packing,
        target=target, metrics=metrics,
    )
    _write_report(args, report)
    print(
        f"valid: {surface.vertex_count} vertices, {surface.edge_count} edges, "
        f"{surface.face_count} faces, chi = {report['global']['chi']}"
    )
    return EXIT_OK


def cmd_curvature(args, surface, packing, target, digest):
    metrics = SurfaceMetrics(surface, packing)
    metrics.angles  # raises as ``curvatures`` does; the report takes K from this kernel
    report = build_report(
        status="converged", digest=digest, surface=surface, packing=packing,
        target=target, metrics=metrics,
    )
    _write_report(args, report)
    K, summary = np.array(report["vertices"].columns["K"]), report["global"]
    print(
        f"K = {np.array2string(K, precision=12)}  area = {summary['total_area']:.12g}  "
        f"gauss_bonnet_residual = {summary['gauss_bonnet_residual']:.3e}"
    )
    return EXIT_OK


def cmd_delaunay(args, surface, packing, target, digest):
    settings = _settings(args)
    try:
        surface2, packing2, events = make_weighted_delaunay(
            surface, packing, tol=settings["tol_delaunay"], flip_budget=settings["flip_budget"]
        )
    except NonCompactOrthocircle as exc:  # surgery failed, unless the input is invalid
        validate_packing(surface, packing)
        state = SolveState(surface, packing, target=target, status="surgery_diverged")
        raise SurgeryDiverged(str(exc), state=state) from exc
    except SurgeryDiverged as exc:  # a budget overrun, reported at the mesh's target
        exc.state.target = target
        raise
    metrics = SurfaceMetrics(surface2, packing2)
    metrics.angles  # raises as ``curvatures`` does; the report takes K from this kernel
    state = SolveState(surface2, packing2, target=target, flip_log=events)
    report = build_report(status=STATUS_CONVERGED, digest=digest, state=state, metrics=metrics)
    mesh = (args.out or args.mesh_out) and dumps_report(mesh_document(surface2, packing2, target))
    if args.out:  # the mesh, last in the report, is its text one level in (no raw "\n" in JSON)
        nested = mesh[:-1].replace("\n", "\n  ")
        Path(args.out).write_text(dumps_report(report)[:-3] + f',\n  "mesh": {nested}\n}}\n')
    if args.mesh_out:
        Path(args.mesh_out).write_text(mesh)
    print(f"flips: {len(events)}  min margin: {metrics.margins.min():.3e}")
    return EXIT_OK


def _solve(args, surface, packing, target_doc, digest, run, counted, *flow_settings):
    """Run ``run`` (newton_solve or ricci_flow, with the float settings
    named in ``flow_settings``), write its report and a summary line
    counting its ``counted``; exit 0 only if it converged."""
    settings = _settings(args)
    state = run(
        surface,
        packing,
        _solver_target(args, surface, target_doc),
        tol=settings["tol"],
        max_iterations=settings["max_iters"],
        tol_delaunay=settings["tol_delaunay"],
        flip_budget=settings["flip_budget"],
        **{key: float(settings[key]) for key in flow_settings},
    )
    _write_report(args, build_report(status=state.status, digest=digest, state=state))
    print(
        f"status: {state.status}  {counted}: {state.iterations}  "
        f"max|K-Kbar| = {state.max_error:.3e}  flips: {len(state.flip_log)}"
    )
    return EXIT_OK if state.status == STATUS_CONVERGED else EXIT_NO_CONVERGENCE


def cmd_solve(args, *loaded):
    return _solve(args, *loaded, newton_solve, "iterations")


def cmd_flow(args, *loaded):
    return _solve(args, *loaded, ricci_flow, "steps", "dt", "t_max")


def cmd_verify(args):
    seed = os.environ.get("HIDRA_SEED")
    if seed is None:
        seed = _settings(args)["seed"]
    else:
        try:
            seed = int(seed)
        except ValueError:
            raise ValidationError(f"HIDRA_SEED = {seed!r} must be an integer") from None
    if seed < 0:  # numpy's seeding takes none
        raise ValidationError(f"seed = {seed} must be non-negative")
    if args.samples < 1:  # no sample drawn, no identity checked
        raise ValidationError(f"samples = {args.samples} must be positive")
    report = run_verification_suite(seed=seed, samples=args.samples)
    _write_report(args, report)
    for section in report["sections"]:
        mark = "pass" if section["passed"] else "FAIL"
        print(f"[{mark}] {section['name']}")
        for check in section["checks"]:
            mark = "pass" if check["passed"] else "FAIL"
            print(
                f"    [{mark}] {check['name']}: {check['value']:.3e} "
                f"(tolerance {check['tolerance']:.0e})"
            )
    return EXIT_OK if report["passed"] else EXIT_DIVERGED


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="hidra",
        description="Inversive-distance circle packings on hyperbolic surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_mesh=True):
        if with_mesh:
            p.add_argument("mesh", nargs="+")
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--config", help="JSON config file (flags take precedence)")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers when several meshes are given")

    def add_flip_flags(p):
        p.add_argument("--tol-delaunay", dest="tol_delaunay", type=float)
        p.add_argument("--flip-budget", dest="flip_budget", type=int)

    def add_solver_flags(p):
        p.add_argument("--tol", type=float, help="curvature tolerance")
        add_flip_flags(p)
        p.add_argument("--max-iters", dest="max_iters", type=int)
        p.add_argument("--target-uniform", dest="target_uniform", type=float,
                       help="uniform target curvature (overrides the mesh file)")

    p = sub.add_parser("validate", help="schema and geometry audit")
    add_common(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("curvature", help="curvatures, areas, Gauss-Bonnet")
    add_common(p)
    p.set_defaults(handler=cmd_curvature)

    p = sub.add_parser("delaunay", help="flip to weighted Delaunay")
    add_common(p)
    p.add_argument("--mesh-out", dest="mesh_out", help="write the flipped mesh here")
    add_flip_flags(p)
    p.set_defaults(handler=cmd_delaunay)

    p = sub.add_parser("solve", help="Newton curvature prescription")
    add_common(p)
    add_solver_flags(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("flow", help="discrete Ricci flow")
    add_common(p)
    add_solver_flags(p)
    p.add_argument("--dt", type=float, help="initial flow step")
    p.add_argument("--t-max", dest="t_max", type=float, help="flow time bound; none by default")
    p.set_defaults(handler=cmd_flow)

    p = sub.add_parser("verify", help="run the oracle suite")
    add_common(p, with_mesh=False)
    p.add_argument("--seed", type=int, help="sweep RNG seed (HIDRA_SEED overrides)")
    p.add_argument("--samples", type=int, default=10_000)
    p.set_defaults(handler=cmd_verify)

    return parser


def _run(args):
    """Run one parsed command on its loaded mesh, if it takes one.  A
    library failure becomes a report that carries the input digest and
    any partial state, with one error line: a SolverFailure its state's
    status, exit 4 for SurgeryDiverged and 3 for the others, and any
    other failure invalid_input, exit 2; so does an --out path that
    cannot be written."""
    digest = state = None
    try:
        if getattr(args, "mesh", None) is None:
            return args.handler(args)
        raw = Path(args.mesh).read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        return args.handler(args, *parse_mesh(raw), digest)
    except SolverFailure as exc:
        error, state, status = exc, exc.state, exc.state.status
        code = EXIT_DIVERGED if isinstance(exc, SurgeryDiverged) else EXIT_NO_CONVERGENCE
    except (HidraError, OSError) as exc:
        error, status, code = exc, "invalid_input", EXIT_INVALID
    try:
        _write_report(args, build_report(status=status, digest=digest, state=state, error=str(error)))
    except OSError as exc:
        error, code = exc, EXIT_INVALID
    _say(f"error: {error}")
    return code


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        _say(f"error: --jobs {args.jobs} must be at least 1")
        return EXIT_INVALID
    meshes = getattr(args, "mesh", None)
    if meshes is None or len(meshes) == 1:
        if meshes is not None:
            args.mesh = meshes[0]
        return _run(args)

    # Fan out over input files with independent solver instances;
    # --out names a directory that gets one <stem>.report.json each.
    if getattr(args, "mesh_out", None):
        _say(f"error: --mesh-out takes one mesh, got {len(meshes)}")
        return EXIT_INVALID
    jobs = []
    writers = {}
    for mesh in meshes:
        out = None
        if args.out is not None:
            out = str(Path(args.out) / f"{Path(mesh).stem}.report.json")
            if out in writers:
                _say(f"error: {writers[out]} and {mesh} would both write {out}")
                return EXIT_INVALID
            writers[out] = mesh
        jobs.append(argparse.Namespace(**{**vars(args), "mesh": mesh, "out": out}))
    if args.out is not None:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:  # --out is a file, say
            _say(f"error: {exc}")
            return EXIT_INVALID
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported on use: the CLI loads without it

        # The pool starts all its workers at the first job: no more than there are jobs.
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(jobs))) as pool:
            return max(pool.map(_run, jobs))
    return max(map(_run, jobs))


if __name__ == "__main__":
    sys.exit(main())
