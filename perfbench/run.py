"""hidra benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload newton-large --seed 0 --seconds 20 --trace 0

Generates the workload's inputs from the seed, runs its job batch
against ``src/hidra`` repeatedly for about ``--seconds``,
checks every job, and prints human-readable lines followed by one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": jobs, "failed": jobs, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  Times are
scaled to a reference host speed (see ``hostspeed``): every job and
every import is bracketed by samples of a fixed loop, and its time is
reported as seconds on a host where that loop takes a fixed time, so
that the shared host's changing speed does not show as a change of the
program.  Raw times are printed beside them.

- wall_s: the batch's time, the sum over its jobs of each job's median
  scaled time over the batches run;
- setup_s: the median scaled time to ``import hidra.cli`` in a fresh
  interpreter, over several interpreters;
- peak_rss_mb: peak resident memory of this process.

failed_frac is printed as a line and carried by the ``failed`` /
``attempted`` fields.  With ``--trace 1`` untraced and traced batches
alternate and the metrics are the per-layer ones from the tracer, plus
trace_overhead.  Spans go to
``.perfbench_work/trace-<workload>-seed<seed>.jsonl``.

BLAS and OpenMP are pinned to one thread before numpy loads.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import hostspeed; "
    "before = hostspeed.sample(); t = time.perf_counter(); import hidra.cli; "
    "wall = time.perf_counter() - t; print(wall, before, hostspeed.sample())"
)
WORK = workloads.ROOT / ".perfbench_work"


def setup_samples():
    """Seconds to import hidra.cli, each in a fresh interpreter, as
    (raw, scaled) lists."""
    path = [str(workloads.SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(workloads.BENCH)], env=env,
            cwd=workloads.ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        wall, before, after = map(float, out.stdout.split()[-3:])
        raw.append(wall)
        scaled.append(hostspeed.scaled(wall, before, after))
    return raw, scaled


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    pins = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas={blas} threads={pins}")


class Tally:
    """Jobs attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.gate = workloads.Gate()
        self.attempted = 0
        self.failures = []

    def add(self, jobs, outcomes):
        for job, outcome in zip(jobs, outcomes):
            self.attempted += 1
            _, reasons = self.gate.check(job, outcome)
            if reasons:
                self.failures.append((job.name, "; ".join(reasons)))


def window_open(spent, seconds):
    """Whether to run another batch: yes while the next one, if it takes
    as long as the mean so far, ends no more than half of it past the
    window.  ``spent`` holds the elapsed time of each batch so far,
    checks and host-speed samples included, so a run measures for about
    ``seconds``."""
    return not spent or sum(spent) + 0.5 * statistics.mean(spent) < seconds


def measure(jobs, seconds, tally):
    """Run batches until the window closes, timing each job on its own
    between two host-speed samples.  Returns the raw batch walls and,
    per job, the list of its scaled times."""
    walls, spent, scaled = [], [], {job.name: [] for job in jobs}
    before = hostspeed.sample()
    while window_open(spent, seconds):
        start = time.perf_counter()
        walls.append(0.0)
        for job in jobs:
            gc.collect()
            wall, outcomes = workloads.run_batch([job])
            after = hostspeed.sample()
            walls[-1] += wall
            scaled[job.name].append(hostspeed.scaled(wall, before, after))
            tally.add([job], outcomes)
            before = after
        spent.append(time.perf_counter() - start)
    return walls, scaled


def measure_traced(jobs, seconds, tally, tracer):
    """Alternate untraced and traced batches, each between two host-speed
    samples; returns both lists of scaled batch times."""
    plain, traced, spent = [], [], []
    before = hostspeed.sample()
    while window_open(spent, seconds):
        start = time.perf_counter()
        for scaled, active in ((plain, None), (traced, tracer)):
            gc.collect()
            wall, outcomes = workloads.run_batch(jobs, active)
            after = hostspeed.sample()
            scaled.append(hostspeed.scaled(wall, before, after))
            tally.add(jobs, outcomes)
            before = after
        spent.append(time.perf_counter() - start)
    return plain, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        in_process_import = workloads.import_hidra()
    except ImportError as exc:
        print(f"perfbench: cannot import hidra: {exc}", file=sys.stderr)
        return 2

    print(f"env {environment()}")
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs, inputs = workloads.WORKLOADS[args.workload](workdir, args.seed)
        for inp in inputs:
            print(f"input {inp.label} sha256={inp.sha256}")
        tally = Tally()
        if args.trace:
            tracer = tracing.Tracer()
            plain, traced = measure_traced(jobs, args.seconds, tally, tracer)
            metrics = tracing.layer_metrics(tracer, len(traced))
            base = statistics.median(plain)
            metrics["trace_overhead"] = ((statistics.median(traced) - base) / base, "ratio")
            for name in tracer.missing:
                print(f"trace: hidra.{name} not found; its metrics read 0")
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            print(f"spans {len(tracer.spans)} written to {trace_path}")
            print(f"batches untraced={len(plain)} traced={len(traced)}")
        else:
            setup_raw, setup = setup_samples()
            walls, scaled = measure(jobs, args.seconds, tally)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "wall_s": (sum(statistics.median(t) for t in scaled.values()), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            print(f"setup raw s: {' '.join(f'{s:.4f}' for s in setup_raw)} "
                  f"(in-process import {in_process_import:.4f})")
            print(f"setup scaled s: {' '.join(f'{s:.4f}' for s in setup)}")
            print(f"batch raw walls s: {' '.join(f'{w:.4f}' for w in walls)} "
                  f"({len(jobs)} jobs per batch, closed loop, 1 client)")
            for name, times in scaled.items():
                print(f"job {name} scaled s: {' '.join(f'{t:.4f}' for t in times)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, reason in tally.failures:
        print(f"FAIL {args.workload} {name}: {reason}")
    failed = len(tally.failures)
    print(f"metric failed_frac {failed / tally.attempted:.6g} ratio "
          f"({failed} of {tally.attempted} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
