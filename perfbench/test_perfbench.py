"""Tests of the benchmark itself: inputs, correctness gate and tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import hostspeed
import tracer as tracing
import workloads

import hidra
from hidra.flips import surface_delaunay_margins
from hidra.geometry import face_metrics
from hidra.surface import euler_characteristic

# Seed-0 digests: the generator must give the same bytes on every commit.
SEED0_SHA256 = {
    "torus4": "5acb91ecd3fb3fdce7186460758d8b97e073f443e13c9750fa6d9f9582cd624f",
    "torus24": "7f774929d86f8d38d9bb9c2e50becd13fbac470e6de26c876c39ae35bb929043",
    "checker8-0": "abc03ed27d7d45ec5f83b95be9c998f05411e6ff016f560c9fcc61b5e529f2aa",
    "checker8-1": "f711efa6e2504837b3f3f85a90c4a1fbbc7b655c923382e830c9b87c03259afb",
    "regular4": "ab7f9029897925e4f5b78c8bda81ecd8435f9d77593244d8ae21b05e452e59f6",
    "torus1": "22ba7563eac9bf513458c3fc1630d14329853c81381abd809c359ebfa14c48d7",
    "genus2": "5a45095ffb826ecdbcb16620f95615d88a69a232880f245d7e6a995e2bb16b28",
    "octahedron": "b53f38ee9eba5a14cdc2e24d69afc74f216a47072a4ba39a54231fad6316ea07",
}


def workload_inputs(seed, tmp_path):
    inputs = {}
    for name, build in workloads.WORKLOADS.items():
        workdir = tmp_path / f"{name}-{seed}"
        workdir.mkdir()
        inputs.update((inp.label, inp) for inp in build(workdir, seed)[1])
    return inputs


def test_seed0_digests_are_pinned(tmp_path):
    digests = {label: inp.sha256 for label, inp in workload_inputs(0, tmp_path).items()}
    assert digests == SEED0_SHA256


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_generated_meshes_parse_closed_torus_compact(seed, tmp_path):
    for label, inp in workload_inputs(seed, tmp_path).items():
        if label in ("torus1", "genus2", "octahedron"):
            continue
        surface, packing, _ = hidra.parse_mesh(inp.path.read_bytes())
        n2 = surface.vertex_count
        assert (surface.edge_count, surface.face_count) == (3 * n2, 2 * n2)
        assert euler_characteristic(surface) == 0
        for fid in range(surface.face_count):
            assert face_metrics(surface, packing, fid).xi > 0.0, (label, fid)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_checkerboard_starts_non_delaunay(seed, tmp_path):
    for checker in workloads.flip_heavy(tmp_path, seed)[1]:
        surface, packing, _ = hidra.parse_mesh(checker.path.read_bytes())
        assert min(surface_delaunay_margins(surface, packing)) < -1e-10


def test_same_seed_same_bytes_other_seed_differs():
    def draw(seed):
        return gen.mesh_bytes(6, *gen.uniform_packing(gen.seeded_rng(seed, "x"), 6))

    assert draw(3) == draw(3)
    assert draw(3) != draw(4)


def small_jobs(tmp_path):
    """Fast jobs covering solve, flow, delaunay (with flips) and the
    library Newton path."""
    solve, _ = workloads.solve_small(tmp_path, 0)
    flow, _ = workloads.flow_small(tmp_path, 0)
    inp = workloads.grid_input(tmp_path, 0, "checker6", 6, gen.checkerboard_packing)
    delaunay = workloads.cli_job(tmp_path, "delaunay", inp, None)
    delaunay.mesh_out = tmp_path / "checker6.flipped.json"
    delaunay.argv += ["--mesh-out", str(delaunay.mesh_out)]
    grid = workloads.grid_input(tmp_path, 0, "torus5", 5, gen.uniform_packing)
    newton = workloads.Job("newton/torus5", grid.path, None, workloads.SOLVE_TOL)
    return solve[:4] + flow[:1] + [delaunay, newton]


def summaries(jobs, tracer=None):
    gate = workloads.Gate()
    _, outcomes = workloads.run_batch(jobs, tracer)
    out = []
    for job, outcome in zip(jobs, outcomes):
        summary, reasons = gate.check(job, outcome)
        assert reasons == [], (job.name, reasons)
        out.append(summary)
    return out


def test_traced_run_matches_untraced(tmp_path):
    jobs = small_jobs(tmp_path)
    tracer = tracing.Tracer()
    plain = summaries(jobs)
    traced = summaries(jobs, tracer)
    assert traced == plain
    assert any(s["flips"] > 0 for s in plain)
    assert tracer.missing == []
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["flips.flip_edge.calls"][0] == sum(s["flips"] for s in plain)
    assert metrics["solver.newton_solve.iterations"][0] == sum(
        s["iterations"] for j, s in zip(jobs, plain) if j.argv is None or j.argv[0] == "solve")
    assert metrics["solver.segment_potential.calls"][0] > 0
    assert {job for *_, job in tracer.spans} == {j.name for j in jobs}


def test_tracer_restores_every_binding():
    originals = {
        (m, a): getattr(sys.modules[m], a)
        for m, a in [("hidra.flips", "make_weighted_delaunay"),
                     ("hidra.solver", "make_weighted_delaunay"),
                     ("hidra.cli", "make_weighted_delaunay"),
                     ("hidra", "newton_solve"),
                     ("hidra.solver", "curvatures"),
                     ("hidra.cli", "main")]
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = getattr(sys.modules["hidra.solver"], "make_weighted_delaunay")
        assert wrapped is not originals[("hidra.flips", "make_weighted_delaunay")]
        assert wrapped is sys.modules["hidra.cli"].make_weighted_delaunay
    finally:
        tracer.uninstall()
    for (m, a), original in originals.items():
        assert getattr(sys.modules[m], a) is original


def test_gate_counts_crash_and_failed_solve(tmp_path):
    gate = workloads.Gate()
    job = workloads.solve_small(tmp_path, 0)[0][0]
    _, reasons = gate.check(job, RuntimeError("boom"))
    assert reasons and "crashed" in reasons[0]
    job.argv += ["--max-iters", "1"]
    _, outcomes = workloads.run_batch([job])
    _, reasons = gate.check(job, outcomes[0])
    assert "exit code 3" in reasons


def test_run_without_sources_exits_nonzero(tmp_path):
    bench = Path(workloads.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "solve-small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    traced = tracing.layer_metrics(tracing.Tracer(), 1)
    assert {m["name"] for m in spec["per_layer"]} == set(traced) | {"trace_overhead"}
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_scaled_time_follows_host_speed():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scaled(1.5, ref, ref) == pytest.approx(1.5)
    # On a host half as fast the loop and the job both take twice as long.
    assert hostspeed.scaled(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert hostspeed.sample() > 0.0


def test_matrix_nbytes_dense_and_sparse():
    import numpy as np
    from scipy import sparse

    dense = np.eye(5)
    assert tracing.matrix_nbytes(dense) == dense.nbytes
    coo = sparse.coo_matrix(dense)
    expected = coo.data.nbytes + coo.row.nbytes + coo.col.nbytes
    assert tracing.matrix_nbytes(coo) == expected
    csr = coo.tocsr()
    expected = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    assert tracing.matrix_nbytes(csr) == expected
