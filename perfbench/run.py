#!/usr/bin/env python3
"""qwalk benchmark: three workloads, end-to-end metrics and per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload walk-2d-static --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The benchmark imports `qwalk` from `src/` next to this directory and drives
it as a single closed-loop client: each call starts after the previous one
returns.  `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer ones (see NOTES.md).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
`--smoke` runs every workload at a small size and checks the metric names
and units against BENCHMARK.json; it is the benchmark's own test.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
MIN_PASSES = 3
CALIBRATE_EVERY_S = 0.05
PROBE_TIMEOUT_S = 170


# ---------------------------------------------------------------------------
# bookkeeping


class Ledger:
    """Every correctness check of a run: attempted, failed, and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def extend(self, checks):
        for name, ok in checks:
            self.add(name, ok)


class PassRecord:
    def __init__(self, wall, evolve, scale, outputs, spans, iterations):
        self.wall = wall  # seconds inside the phases, as measured
        self.evolve = evolve  # seconds inside the evolve phases
        self.scale = scale  # turns this pass's seconds into nominal seconds
        self.outputs = outputs
        self.spans = spans  # (phase, spans) pairs when traced
        self.iterations = iterations


def run_pass(workload, inputs, cal, tracer=None):
    """One pass; a calibration chunk runs before it and after every 50 ms of it."""
    phases = workload.prepare(inputs)
    gc.collect()
    if tracer is not None:
        tracer.take()
    chunks = [cal.chunk()]
    outputs, spans, wall, evolve, since, iterations = {}, [], 0.0, 0.0, 0.0, 0
    for phase in phases:
        t0 = perf_counter()
        outputs[phase.name] = phase.run()
        elapsed = perf_counter() - t0
        wall += elapsed
        since += elapsed
        if phase.evolve:
            evolve += elapsed
        if tracer is not None:
            group, count = tracer.take()
            spans.append((phase, group))
            iterations += count
        if since >= CALIBRATE_EVERY_S:
            chunks.append(cal.chunk())
            since = 0.0
    if since:
        chunks.append(cal.chunk())
    if tracer is not None:
        tracer.take()
    return PassRecord(wall, evolve, cal.scale(chunks), outputs, spans, iterations)


def measure(workload, inputs, cal, seconds, ledger, reference, tracer=None, aggregate=None,
            min_passes=MIN_PASSES):
    """Closed-loop passes for `seconds` (at least `min_passes`), each checked after it ends."""
    passes = []
    deadline = perf_counter() + seconds
    while len(passes) < min_passes or perf_counter() < deadline:
        record = run_pass(workload, inputs, cal, tracer)
        verify(workload, inputs, record, ledger, reference)
        if tracer is not None:
            tracer.take()  # drop spans of the checks
        if aggregate is not None:
            aggregate.add_pass(record.wall, [s for _, group in record.spans for s in group],
                               record.iterations)
        record.outputs = record.spans = None
        passes.append(record)
    return passes


def verify(workload, inputs, record, ledger, reference):
    checks, digests = workload.verify(inputs, record.outputs)
    ledger.extend(checks)
    if reference is not None:
        for i, (got, want) in enumerate(zip(digests, reference)):
            ledger.add(f"identical_to_first_pass.{i}", got == want)
    return digests


def setup_probe(workload, seed, small):
    """Set-up time of a fresh interpreter: import qwalk, build the inputs."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", workload, "--seed", str(seed)] + (["--small"] if small else [])
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed: {done.stderr.strip()}")
    nominal, seconds = done.stdout.split()[-2:]
    return float(nominal), float(seconds)


# ---------------------------------------------------------------------------
# environment


def _cache_bytes():
    """L2 and L3 sizes from glibc's sysconf (cpuid; no file is read)."""
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        l2, l3 = libc.sysconf(191), libc.sysconf(194)  # _SC_LEVEL2/3_CACHE_SIZE
    except (OSError, AttributeError):
        return None, None
    return (l2 if l2 > 0 else None), (l3 if l3 > 0 else None)


def environment(inputs_bytes, largest_call_bytes):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    l2, l3 = _cache_bytes()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "qwalk_threads": os.environ.get("QWALK_THREADS"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "l2_bytes": l2,
        "l3_bytes": l3,
        "input_bytes_computed": inputs_bytes,
        "largest_call_state_bytes_computed": largest_call_bytes,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced_run(args, workloads, tracer_mod, workload, cal, ledger):
    setups = [setup_probe(args.workload, args.seed, args.small) for _ in range(SETUP_REPEATS)]
    inputs = workload.build(args.seed, args.small)

    # the first pass is traced: it counts site updates and fills lazy imports
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        first = run_pass(workload, inputs, cal, tracer)
    finally:
        tracer.uninstall()
    reference = verify(workload, inputs, first, ledger, None)
    site_steps = sum(tracer_mod.walk_site_steps(group)
                     for phase, group in first.spans if phase.evolve)
    largest = max((s.nbytes for _, group in first.spans for s in group), default=0)
    ledger.add("walk_site_steps_counted", site_steps > 0)

    passes = measure(workload, inputs, cal, args.seconds, ledger, reference)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(nominal for nominal, _ in setups), "s"),
        "wall_s": (statistics.median(p.wall * p.scale for p in passes), "s"),
        "site_steps_per_s": (statistics.median(site_steps / (p.evolve * p.scale) for p in passes),
                             "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    walls = sorted(p.wall for p in passes)
    print(f"perfbench passes {len(passes)}, as measured: pass min/median/max "
          f"{walls[0]:.6g}/{statistics.median(walls):.6g}/{walls[-1]:.6g} s, "
          f"set-ups {' '.join(f'{raw:.4g}' for _, raw in setups)} s; "
          f"median speed scale {statistics.median(p.scale for p in passes):.4f}; "
          f"site-steps per pass {site_steps}")
    return metrics, environment(workloads.nbytes(inputs), largest)


def traced_run(args, workloads, tracer_mod, workload, cal, tmp, ledger):
    import layers

    tracer = tracer_mod.Tracer()

    def traced(call):
        tracer.install()
        try:
            return call()
        finally:
            tracer.uninstall()

    def traced_setup(wl):
        inputs = traced(lambda: wl.build(args.seed, args.small))
        return inputs, tracer.take()[0]

    inputs, setup_spans = traced_setup(workload)
    first = traced(lambda: run_pass(workload, inputs, cal, tracer))
    reference = verify(workload, inputs, first, ledger, None)
    tracer.take()
    largest = max((s.nbytes for _, group in first.spans for s in group), default=0)

    half = args.seconds / 2.0
    plain = measure(workload, inputs, cal, half, ledger, reference)
    own = tracer_mod.PassAggregate()
    traced_passes = traced(lambda: measure(workload, inputs, cal, half, ledger, reference,
                                           tracer, own))
    sources = [(workload.name, own, setup_spans)]
    ledger.add("trace_counts_repeat", own.counts_repeat())

    # layers this workload does not reach are measured on the workload that does
    for name in workloads.NAMES:
        if name == workload.name:
            continue
        other = workloads.make(name, tmp)
        other_inputs, other_setup = traced_setup(other)
        other_first = run_pass(other, other_inputs, cal)
        other_ref = verify(other, other_inputs, other_first, ledger, None)
        agg = tracer_mod.PassAggregate()
        traced(lambda: measure(other, other_inputs, cal, 0.0, ledger, other_ref, tracer, agg,
                               min_passes=1))
        sources.append((name, agg, other_setup))

    overhead = (statistics.median(p.wall * p.scale for p in traced_passes)
                / statistics.median(p.wall * p.scale for p in plain))
    sizes = workloads.SMALL_SIZES if args.small else None
    metrics, report = layers.per_layer(sources, overhead, ledger, sizes)
    for line in report:
        print(line)
    print(f"perfbench passes untraced {len(plain)} traced {len(traced_passes)}")
    return metrics, environment(workloads.nbytes(inputs), largest)


# ---------------------------------------------------------------------------
# entry points


def _import_qwalk():
    if not (SRC / "qwalk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qwalk sources under {SRC}; run from a full checkout")
    os.environ["QWALK_THREADS"] = str(len(os.sched_getaffinity(0)))
    sys.path.insert(0, str(SRC))
    import qwalk

    if not Path(qwalk.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported qwalk from {qwalk.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="smoke-test sizes")
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's own test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    t0 = perf_counter()
    _import_qwalk()
    if args.smoke:
        import smoke

        return smoke.main(ROOT, HERE / "run.py")
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    import calibrate

    if args.setup_probe:
        workloads.make(args.workload, str(ROOT)).build(args.seed, args.small)
        seconds = perf_counter() - t0
        cal = calibrate.Calibrator()
        print(seconds * cal.scale([cal.chunk() for _ in range(3)]), seconds)
        return 0

    import tracer as tracer_mod

    ledger = Ledger()
    cal = calibrate.Calibrator()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload = workloads.make(args.workload, tmp)
        if args.trace:
            metrics, env = traced_run(args, workloads, tracer_mod, workload, cal, tmp, ledger)
        else:
            metrics, env = untraced_run(args, workloads, tracer_mod, workload, cal, ledger)

    if ledger.failures:
        print(f"perfbench failed checks: {', '.join(ledger.failures[:20])}")
    print("perfbench env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
