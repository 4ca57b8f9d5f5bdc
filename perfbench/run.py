#!/usr/bin/env python3
"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics and writes the run's spans
to ``.bench_build/perfbench/trace/``.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the resolved configuration and the host.
Everything the run writes (the compiled kernels, checkpoints, traces)
stays under ``.bench_build/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: end-to-end metrics (tracing off) and their units
END_TO_END = {
    "setup_s": "s",
    "solve_s_p50": "s",
    "latency_s_p50": "s",
    "latency_s_p90": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced run) and their units; a layer that does
#: nothing on a workload reports 0
PER_LAYER = {
    "import_s": "s",
    "physics.build_s": "s",
    "scaling.bounds_s": "s",
    "stochastic.start_block_s": "s",
    "core.moment_loop_s": "s",
    "core.dispatch_s": "s",
    "core.dispatch_us_per_iter": "us",
    "core.reconstruct_s": "s",
    "kernel.time_s": "s",
    "kernel.calls": "count",
    "kernel.flops": "flop",
    "kernel.bytes_computed": "B",
    "kernel.gflops": "Gflop/s",
    "kernel.gbs_computed": "GB/s",
    "kernel.bytes_per_flop": "B/flop",
    "dist.rank_busy_s_max": "s",
    "dist.imbalance": "ratio",
    "dist.halo_pack_s": "s",
    "dist.halo_wait_s": "s",
    "dist.messages": "count",
    "dist.halo_bytes": "B",
    "ckpt.saves": "count",
    "ckpt.save_s": "s",
    "ckpt.bytes": "B",
    "ckpt.save_mbs": "MB/s",
    "resil.resumes": "count",
    "serve.capacity_rps": "1/s",
    "serve.bookkeeping_s": "s",
    "serve.submit_s_p50": "s",
    "serve.batches": "count",
    "serve.batch_s": "s",
    "serve.batch_width_mean": "columns",
    "serve.requests_per_batch_mean": "count",
    "serve.bytes_per_request": "B",
    "serve.cache_hit_share": "ratio",
    "serve.spectra_hit_share": "ratio",
    "serve.dedup_share": "ratio",
    "serve.gen_late_s_p90": "s",
    "obs.overhead_share": "ratio",
    "obs.coverage_share": "ratio",
}

WORKLOAD_NAMES = ("serve-mix", "dos-mp2-ckpt")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="problem sizes; 'toy' is for the smoke test")
    return ap.parse_args(argv)


def host_fingerprint() -> dict:
    try:
        gcc = subprocess.run(["gcc", "-dumpfullversion"], capture_output=True,
                             text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        gcc = None
    import numpy as np
    from repro.sparse.backend.native import cpu_features

    isa = sorted(cpu_features() & {"avx2", "fma", "f16c", "avx512f"})
    return {"nproc": os.cpu_count(), "isa": isa,
            "gcc": gcc, "numpy": np.__version__,
            "python": platform.python_version()}


def warm_up(workload: str) -> dict:
    """Compile and load the native kernels and touch every code path the
    workload uses, on a tiny problem; return the resolved configuration."""
    from repro import KPMSolver, build_topological_insulator
    from repro.dist.overlap import resolve_overlap
    from repro.serve import HamiltonianSpec, KPMServer, Request
    from repro.sparse.backend import get_backend
    from repro.sparse.backend.native import simd_available

    H, _ = build_topological_insulator(4, 4, 2)
    KPMSolver(H, 16, 2, seed=0).dos()
    config = {"backend": get_backend("auto").name,
              "simd": "avx2-fma" if simd_available() else "scalar",
              "threads": 1}
    if workload == "dos-mp2-ckpt":
        KPMSolver(H, 16, 2, seed=0, dist_engine="mp", workers=2).dos()
        config["workers"] = 2
        config["overlap"] = "on" if resolve_overlap("auto", 2) else "off"
    if workload == "serve-mix":
        spec = HamiltonianSpec("topological_insulator",
                               {"nx": 4, "ny": 4, "nz": 2})
        with KPMServer() as srv:
            srv.submit(Request(spec, n_moments=16)).result(timeout=60)
    config["host"] = host_fingerprint()
    return config


def native_health() -> dict:
    from repro.obs import GLOBAL_METRICS

    c = GLOBAL_METRICS.counters
    return {k: c.get(f"backend.native.{k}", 0)
            for k in ("compile_failures", "simd_fallbacks")}


def child_pids() -> list[int]:
    """Processes whose parent is this one."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # ended meanwhile
            continue
        # the fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    The mp engine joins its workers, but creating shared memory starts
    multiprocessing's resource tracker, which would outlive the run;
    closing its pipe stops it.  Anything else still running is killed.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    for sub in ("native", "tmp", "ckpt", "trace"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    os.environ["TMPDIR"] = str(WORK / "tmp")
    tempfile.tempdir = None
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import workloads  # imports numpy and every repro layer it drives
    import_s = time.perf_counter() - t0

    config = warm_up(args.workload)
    run = workloads.Run(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.size, WORK)
    if args.trace:
        run.tracer = workloads.Tracer()
    out = workloads.WORKLOADS[args.workload](run)
    health = native_health()
    config["native_health"] = health
    out.op(not any(health.values()),
           f"native kernels degraded: {health}")

    if args.trace:
        out.metrics["import_s"] = import_s
        run.tracer.write(WORK / "trace" / f"{args.workload}-seed{args.seed}.jsonl")
        units = PER_LAYER
        unknown = set(out.metrics) - set(units)
        if unknown:
            raise RuntimeError(f"unlisted per-layer metrics: {unknown}")
    else:
        units = END_TO_END
    missing = set(units) - set(out.metrics)
    if missing and not args.trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    metrics = {name: {"value": float(out.metrics.get(name, 0.0)),
                      "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"config": config}))
    print(json.dumps({"correct": out.failed == 0 and out.attempted > 0,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
