"""The benchmark's workloads, untraced and traced.

Each workload function takes a :class:`Run` and returns a
:class:`Outcome`: the metrics it measured, plus how many operations it
attempted and how many failed.  Untraced runs measure the end-to-end
metrics through the library's public entry points (``KPMSolver.dos()``,
``KPMServer``).  Traced runs measure the per-layer metrics: they time
the same work as calls into the public functions of each layer, pass a
``MetricsRegistry`` and ``PerfCounters`` in through ``metrics=`` and
``counters=``, and alternate with untraced operations so the tracing
overhead is measured too.  Every result is checked outside the timed
region; a mismatch or an exception is a failed operation.
"""

from __future__ import annotations

import gc
import itertools
import math
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro import KPMSolver, build_topological_insulator
from repro.core.moments import eta_to_moments
from repro.core.reconstruct import reconstruct_dos
from repro.core.scaling import lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.obs import MetricsRegistry
from repro.resil import Resilience, Supervisor
from repro.serve import HamiltonianSpec, KPMServer, Request, coalescer
from repro.serve import server as server_module
from repro.serve.queue import Ticket
from repro.util.counters import PerfCounters

from spans import NullTracer, Tracer, clock

#: Moment agreement between engines or kernel variants that reduce in
#: different orders, relative to the largest moment (mu_0 = N).
REDUCTION_RTOL = 1e-10

#: dos-mp2-ckpt runs at least this many jobs, however short the window.
MIN_JOBS = 3

#: set-ups per dos-mp2-ckpt job, the last one solved
JOB_SETUPS = 3

#: setup_s is the mean of a run's set-ups with this share cut from each
#: end.  Back-to-back set-ups on the reference host fall in two modes
#: (about 23 and 34 ms on serve-mix) as the host's speed switches, so
#: their median jumps between the modes from run to run; the trimmed
#: mean moves smoothly with the share of slow set-ups.
SETUP_TRIM = 0.1

#: Share of a traced operation's wall time that layer spans must cover;
#: an operation below it is a failed one.
MIN_COVERAGE = 0.9

#: serve-mix runs in this many rounds of (set-ups, open loop, checks),
#: so every metric samples the whole run: the host's speed drifts by
#: tens of percent over tens of seconds.
SERVE_ROUNDS = 10

#: server set-ups per serve-mix round
SERVE_SETUPS = 5

#: The closed loop's capacity is the median completion rate over
#: windows of this many seconds.
CLOSED_WINDOW_S = 0.5

#: A request not complete this long after its loop ended has failed.
DRAIN_TIMEOUT_S = 60.0

#: Fresh requests a repeat may copy (the newest ones, so repeats find
#: their moments still in the server's LRU moment cache).
REPEAT_POOL = 64

KERNELS = frozenset({
    "spmv", "spmmv", "aug_spmv", "aug_spmmv", "aug_spmv_int",
    "aug_spmv_bnd", "aug_spmmv_int", "aug_spmmv_bnd", "naive_step",
})

SIZES = {
    "full": {
        "dos-mp2-ckpt": {"lattice": (32, 32, 8), "moments": 512,
                         "vectors": 8, "checkpoint_every": 64},
        "serve-mix": {
            "specs": [
                HamiltonianSpec("topological_insulator",
                                {"nx": 8, "ny": 8, "nz": 4}),
                HamiltonianSpec("topological_insulator",
                                {"nx": 16, "ny": 16, "nz": 4}),
                HamiltonianSpec("graphene_dot", {"ncx": 24, "ncy": 24}),
            ],
            "moments": 128, "rate": 20.0, "depth": 16,
        },
    },
    "toy": {
        "dos-mp2-ckpt": {"lattice": (6, 6, 4), "moments": 64,
                         "vectors": 2, "checkpoint_every": 8},
        "serve-mix": {
            "specs": [
                HamiltonianSpec("topological_insulator",
                                {"nx": 8, "ny": 8, "nz": 4}),
                HamiltonianSpec("graphene_dot", {"ncx": 8, "ncy": 8}),
            ],
            "moments": 128, "rate": 20.0, "depth": 16,
        },
    },
}


@dataclass
class Run:
    """One benchmark invocation."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    size: str
    work: Path  # scratch directory inside the checkout
    tracer: Tracer = field(default_factory=NullTracer)
    #: per traced op: what its own registry and world recorded
    ledgers: dict = field(default_factory=dict)

    @property
    def params(self) -> dict:
        return SIZES[self.size][self.workload]


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)  # name -> value
    attempted: int = 0
    failed: int = 0

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    def crashed(self, what: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.op(False, what)


# ---------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``inf`` entries allowed)."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q / 100 * len(xs)) - 1)]


def median(values) -> float:
    return percentile(values, 50)


def trimmed_mean(values, share: float = SETUP_TRIM) -> float:
    xs = sorted(values)
    cut = int(share * len(xs))
    return statistics.fmean(xs[cut:len(xs) - cut])


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and any child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def same_moments(mu, ref) -> bool:
    mu, ref = np.asarray(mu), np.asarray(ref)
    return mu.shape == ref.shape and bool(np.all(
        np.abs(mu - ref) <= REDUCTION_RTOL * np.abs(ref).max()))


def seed_stream(seed: int):
    """Per-job start-vector seeds drawn from the run's seed."""
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(2**31 - 1))


# ---------------------------------------------------------------------
# trace folding
# ---------------------------------------------------------------------

def kernel_ledger(reg: MetricsRegistry, rank: str = "") -> dict:
    """Kernel time/calls/bytes/flops in a registry: every rank's, or
    only those of timers prefixed ``rank`` (e.g. ``"rank0."``)."""
    led = {"time": 0.0, "calls": 0, "bytes": 0, "flops": 0}
    for name, stat in reg.timers.items():
        base = name.split(".", 1)[1] if name.startswith("rank") else name
        if base in KERNELS and name.startswith(rank):
            led["time"] += stat.total
            led["calls"] += stat.count
            prefix = name[: len(name) - len(base)]
            led["bytes"] += reg.counters.get(f"{prefix}bytes.{base}", 0)
            led["flops"] += reg.counters.get(f"{prefix}flops.{base}", 0)
    return led


def ops_with_root(tracer: Tracer, root: str) -> dict[int, list]:
    """Spans of every op that has a root span named ``root``."""
    ops: dict[int, list] = {}
    for s in tracer.spans:
        if s.parent is None and s.name == root:
            ops[s.op] = []
    for s in tracer.spans:
        if s.op in ops:
            ops[s.op].append(s)
    return ops


def span_sum(spans, name: str) -> float:
    return sum(s.dur for s in spans if s.name == name)


def covered(spans, root: str) -> tuple[float, float]:
    """``(layer time, wall time)`` of the op's ``root`` span.

    Layer time is the self time of every library span, and of every
    benchmark span around a call that the library does not instrument
    (a span without children).  The self time of a benchmark span with
    children, the root included, is glue between calls or code the trace
    does not see, so it is not counted.
    """
    r = next(s for s in spans if s.parent is None and s.name == root)
    inside = [s for s in spans if s.thread == r.thread
              and r.start <= s.start and s.end <= r.end and s is not r]
    return sum(s.self_s for s in inside
               if s.library or not s.children), r.dur


def kernel_metrics(led: dict, n_ops: int) -> dict:
    t, b, f = led["time"], led["bytes"], led["flops"]
    return {
        "kernel.time_s": t / n_ops,
        "kernel.calls": led["calls"] / n_ops,
        "kernel.flops": f / n_ops,
        "kernel.bytes_computed": b / n_ops,
        "kernel.gflops": f / t / 1e9 if t else 0.0,
        "kernel.gbs_computed": b / t / 1e9 if t else 0.0,
        "kernel.bytes_per_flop": b / f if f else 0.0,
    }


def check_coverage(out: Outcome, layer_s: float, wall_s: float,
                   what: str) -> float:
    share = layer_s / wall_s
    out.op(share >= MIN_COVERAGE,
           f"{what}: layer spans cover {share:.3f} of the wall time, "
           f"under {MIN_COVERAGE}")
    return share


# ---------------------------------------------------------------------
# dos-mp2-ckpt: 2-worker mp solve with checkpoints
# ---------------------------------------------------------------------

@contextmanager
def fresh_dir(path: Path):
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _resilience(p: dict, scratch: Path) -> Resilience:
    # a fresh checkpoint directory per solve, as a new job would have:
    # a reused path is resumed even across seeds (see README)
    return Resilience(checkpoint_every=p["checkpoint_every"],
                      checkpoint_path=str(scratch / "state"))


def _mp_setup(run: Run, s: int, scratch: Path) -> KPMSolver:
    p = run.params
    return KPMSolver(build_topological_insulator(*p["lattice"])[0],
                     p["moments"], p["vectors"], seed=s,
                     dist_engine="mp", workers=2,
                     resilience=_resilience(p, scratch))


def _mp_check(solver: KPMSolver, res, s: int):
    """Moments against a serial solve of the same seed and spectral map
    (another reduction order), and no resume."""
    ref = KPMSolver(solver.H, solver.n_moments, solver.n_vectors,
                    seed=s, scale=solver.scale).moments()
    resumes = solver.resilience_report.resumes
    return same_moments(res.moments, ref) and resumes == 0, \
        f"moments differ from the serial reference, or {resumes} resumes"


def dos_mp2_ckpt(run: Run) -> Outcome:
    """Jobs back to back, each with a fresh seed and scratch directory:
    ``JOB_SETUPS`` timed set-ups, then ``dos()`` on the last one, timed
    alone, then the checks, untimed.  In traced runs each job is
    repeated as calls into each layer (``_mp_traced``)."""
    out = Outcome()
    setups, solves, jobs, pairs, timed = [], [], [], [], 0.0
    seeds = seed_stream(run.seed)
    for job in itertools.count(1):
        if timed >= run.seconds and len(solves) >= MIN_JOBS:
            break
        s = next(seeds)
        scratch = run.work / "ckpt" / f"job{job}"
        gc.collect()  # start every job from the same heap state
        try:
            with fresh_dir(scratch):
                for _ in range(JOB_SETUPS):
                    t0 = clock()
                    solver = _mp_setup(run, s, scratch)
                    t1 = clock()
                    setups.append(t1 - t0)
                res = solver.dos()
                t2 = clock()
        except Exception:  # noqa: BLE001 - count it, keep measuring
            out.crashed(f"{run.workload} job seed={s}")
            continue
        solves.append(t2 - t1)
        jobs.append(t2 - t0)
        timed += t2 - t0
        ok, what = _mp_check(solver, res, s)
        out.op(ok, f"{run.workload} seed={s}: {what}")
        if not run.traced:
            continue
        try:
            with fresh_dir(scratch):
                mu, dt = _mp_traced(run, s, job, scratch)
        except Exception:  # noqa: BLE001
            out.crashed(f"traced {run.workload} job seed={s}")
            continue
        timed += dt
        out.op(np.array_equal(mu, res.moments),
               f"{run.workload} seed={s}: the traced calls did not "
               f"reproduce KPMSolver.dos() bitwise")
        pairs.append((t2 - t1, dt))
    if run.traced:
        out.metrics.update(_mp_layers(run, out, pairs))
    else:
        # a job is one fresh set-up plus one dos(), run by one client
        out.metrics.update({
            "setup_s": trimmed_mean(setups),
            "solve_s_p50": median(solves),
            "latency_s_p50": median(jobs),
            "latency_s_p90": percentile(jobs, 90),
            "peak_rss_mb": peak_rss_mb(),
        })
    return out


def _mp_traced(run: Run, s: int, op: int, scratch: Path):
    """One mp job as calls into each layer (mirrors ``KPMSolver.dos()``
    with ``dist_engine='mp'`` and a ``resilience`` config)."""
    tr, p = run.tracer, run.params
    reg, ctr = MetricsRegistry(trace=tr), PerfCounters()
    M, R = p["moments"], p["vectors"]
    resil = _resilience(p, scratch)
    with tr.span("setup", op):
        with tr.span("physics.build"):
            H = build_topological_insulator(*p["lattice"])[0]
        with tr.span("scaling.bounds"):
            scale = lanczos_scale(H, seed=s)
        with tr.span("core.solver_init"):
            solver = KPMSolver(H, M, R, seed=s, scale=scale,
                               dist_engine="mp", workers=2,
                               resilience=resil)
    t0 = clock()
    with tr.span("solve", op):
        with tr.span("stochastic.start_block"):
            block = make_block_vector(H.n_rows, R, solver.vector_kind, s)
        with tr.span("resil.run_eta"):
            sup = Supervisor.from_config(resil, metrics=reg, counters=ctr,
                                         seed=s)
            eta = sup.run_eta(
                H, scale, M, block, engine="mp", workers=solver.workers,
                weights=None, backend=solver.backend,
                overlap=solver.overlap, precision=solver.precision,
                threads=solver.threads, simd=solver.simd,
            )
        with tr.span("core.moments"):
            mu = eta_to_moments(eta).mean(axis=0).real
        with tr.span("core.reconstruct"):
            reconstruct_dos(mu, scale, n_points=max(2 * M, 256),
                            kernel=solver.kernel)
    dt = clock() - t0
    ckfile = scratch / "state.npz"
    saves = reg.timer("checkpoint_save")
    size = ckfile.stat().st_size if ckfile.exists() else 0
    ranks = [f"rank{r}." for r in range(solver.workers)]
    busy = [reg.timer(r + "rank_busy").total for r in ranks]
    log = sup.last_world.log
    run.ledgers[op] = {
        "kernel": kernel_ledger(reg),
        "rank_kernel_s_max": max(kernel_ledger(reg, r)["time"]
                                 for r in ranks),
        "dist": {
            "dist.rank_busy_s_max": max(busy),
            "dist.imbalance": (max(busy) - min(busy)) / statistics.fmean(busy),
            "dist.halo_pack_s": sum(reg.timer(r + "halo_pack").total
                                    for r in ranks),
            "dist.halo_wait_s": sum(reg.timer(r + "halo_wait").total
                                    for r in ranks),
            "dist.messages": log.n_messages,
            "dist.halo_bytes": log.bytes_by_phase().get("halo", 0),
        },
        "ckpt": {
            "ckpt.saves": saves.count,
            "ckpt.save_s": saves.total,
            "ckpt.bytes": saves.count * size,
            "ckpt.save_mbs": saves.count * size / saves.total / 1e6
            if saves.total else 0.0,
            "resil.resumes": sup.report.resumes,
        },
    }
    return mu, dt


def _mp_layers(run: Run, out: Outcome, pairs: list) -> dict:
    """Per-layer metrics of dos-mp2-ckpt (means per job)."""
    tr = run.tracer
    tr.finish()
    jobs = ops_with_root(tr, "solve")  # set-up and solve share an op
    iters = run.params["moments"] // 2
    rows = []
    for op, led in sorted(run.ledgers.items()):
        sp = jobs[op]
        # the loop runs in the workers while the parent waits and writes
        # checkpoints; the slowest rank's kernels are what the parent's
        # wait is made of, at best
        loop = span_sum(sp, "resil.attempt")
        dispatch = loop - led["rank_kernel_s_max"]
        rows.append({
            "physics.build_s": span_sum(sp, "physics.build"),
            "scaling.bounds_s": span_sum(sp, "scaling.bounds"),
            "stochastic.start_block_s": span_sum(sp, "stochastic.start_block"),
            "core.moment_loop_s": loop,
            "core.dispatch_s": dispatch,
            "core.dispatch_us_per_iter": 1e6 * dispatch / iters,
            "core.reconstruct_s": span_sum(sp, "core.reconstruct"),
            "obs.coverage_share": check_coverage(
                out, *covered(sp, "solve"), f"traced job {op}"),
            **led["dist"], **led["ckpt"],
        })
    metrics = {k: statistics.fmean(r[k] for r in rows) for k in rows[0]}
    total = {f: sum(led["kernel"][f] for led in run.ledgers.values())
             for f in ("time", "calls", "bytes", "flops")}
    metrics.update(kernel_metrics(total, len(rows)))
    plain = median(a for a, _ in pairs)
    metrics["obs.overhead_share"] = median(b for _, b in pairs) / plain - 1.0
    return metrics


# ---------------------------------------------------------------------
# serve-mix: a KPMServer under an open and a closed loop
# ---------------------------------------------------------------------

class Mix:
    """Seeded request stream in shuffled blocks of 40 requests.

    Each block holds, per operator, two DOS requests at each R in
    (1, 2, 4, 8) and two LDOS requests on 2 rows (30 fresh requests:
    80% DOS, 20% LDOS), plus 10 repeats of a recent fresh request (25%),
    half of them with another damping kernel.  Fixing the proportions
    per block keeps the load the same from seed to seed; the seed picks
    the order, the start-vector seeds, the rows and what is repeated.
    """

    def __init__(self, seed: int, p: dict, sizes: dict) -> None:
        self.rng = np.random.default_rng(seed)
        self.sizes = sizes  # spec digest -> row count
        self.M = p["moments"]
        self.slots = [(spec, r) for spec in p["specs"]
                      for r in (1, 1, 2, 2, 4, 4, 8, 8, "ldos", "ldos")]
        self.slots += ["same"] * 5 + ["lorentz"] * 5
        self.block: list = []
        self.fresh: list[Request] = []

    def next(self) -> Request:
        if not self.block:
            self.block = [self.slots[i]
                          for i in self.rng.permutation(len(self.slots))]
        slot = self.block.pop()
        if isinstance(slot, str):
            if not self.fresh:  # nothing to repeat yet
                self.block.insert(0, slot)
                return self.next()
            pool = self.fresh[-REPEAT_POOL:]
            base = pool[int(self.rng.integers(len(pool)))]
            return base if slot == "same" else replace(base, kernel="lorentz")
        spec, r = slot
        if r == "ldos":
            rows = self.rng.choice(self.sizes[spec.digest], size=2,
                                   replace=False)
            req = Request(spec, kind="ldos", n_moments=self.M,
                          rows=tuple(sorted(int(i) for i in rows)))
        else:
            req = Request(spec, n_moments=self.M, n_vectors=r,
                          seed=int(self.rng.integers(2**31 - 1)))
        self.fresh.append(req)
        return req


#: guards the hand-over between a ticket's completion (server thread)
#: and a sender attaching its completion callback (generator thread)
_DONE_LOCK = threading.Lock()


@contextmanager
def stamped_tickets(tr: Tracer):
    """Patch ``Ticket.fulfill``/``fail`` for the duration, so each
    ticket records when the server completed it (``perfbench_done_at``,
    on the server's thread, so the stamp does not wait for the generator
    to be scheduled) and runs the callback a sender attached to it.  The
    patch is in place before any ticket exists: no completion is missed.
    """
    originals = {name: getattr(Ticket, name) for name in ("fulfill", "fail")}

    def hooked(name, original):
        def completes(self, value) -> None:
            with _DONE_LOCK:
                if not hasattr(self, "perfbench_done_at"):
                    self.perfbench_done_at = clock()
                on_done = self.__dict__.pop("perfbench_on_done", None)
            with tr.span(f"serve.ticket.{name}"):
                original(self, value)
            if on_done is not None:
                on_done()
        return completes

    for name, original in originals.items():
        setattr(Ticket, name, hooked(name, original))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(Ticket, name, original)


def when_done(ticket: Ticket, on_done) -> None:
    """Call ``on_done`` once ``ticket`` completes (now, if it has)."""
    with _DONE_LOCK:
        if not hasattr(ticket, "perfbench_done_at"):
            ticket.perfbench_on_done = on_done
            return
    on_done()


@dataclass
class Sent:
    req: Request
    due: float     # scheduled send time (closed loop: the send time)
    late: float    # how late the generator sent it
    ticket: object = None

    @property
    def sent_at(self) -> float:
        return self.due + self.late

    @property
    def ok(self) -> bool:
        return self.ticket is not None and self.ticket.done \
            and not self.ticket.failed

    @property
    def done_at(self) -> float:
        return getattr(self.ticket, "perfbench_done_at", math.inf)

    @property
    def latency(self) -> float:
        return self.done_at - self.due if self.ok else math.inf


def _send(srv: KPMServer, req: Request, due: float, tr: Tracer) -> Sent:
    """Submit one request (inside :func:`stamped_tickets`)."""
    sent = Sent(req, due, clock() - due)
    try:
        with tr.span("serve.submit"):
            sent.ticket = srv.submit(req)
    except Exception:  # noqa: BLE001 - a refused request is a failure
        traceback.print_exc(file=sys.stderr)
    return sent


def _drain(sent: list[Sent]) -> None:
    limit = clock() + DRAIN_TIMEOUT_S
    for s in sent:
        if s.ticket is not None:
            try:
                s.ticket.result(timeout=max(0.0, limit - clock()))
            except Exception:  # noqa: BLE001 - counted by the checks
                pass


def open_loop(srv, mix: Mix, rate: float, duration: float,
              tr: Tracer) -> list[Sent]:
    """Send at ``rate`` on average, whatever the server does.

    Sends follow a seeded Poisson process, as independent users would;
    a fixed period can phase-lock with the server's batching cycle.
    """
    sent = []
    t0 = due = clock()
    while True:
        due += mix.rng.exponential(1.0 / rate)
        if due - t0 >= duration:
            break
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        sent.append(_send(srv, mix.next(), due, tr))
    _drain(sent)
    return sent


def closed_loop(srv, mix: Mix, depth: int, duration: float,
                tr: Tracer) -> tuple[list[Sent], list[float]]:
    """Keep ``depth`` requests outstanding; return the requests sent and
    the completion rate in each of the loop's windows."""
    sent = []
    slots = threading.Semaphore(depth)
    t0 = clock()
    t_end = t0 + duration
    while clock() < t_end:
        if not slots.acquire(timeout=max(0.0, t_end - clock())):
            break
        s = _send(srv, mix.next(), clock(), tr)
        sent.append(s)
        if s.ticket is None:
            slots.release()
        else:
            when_done(s.ticket, slots.release)
    _drain(sent)
    n_win = max(1, int(duration / CLOSED_WINDOW_S))
    width = duration / n_win
    done = [0] * n_win
    for s in sent:
        if s.ok and s.done_at < t_end:
            done[int((s.done_at - t0) / width)] += 1
    return sent, [d / width for d in done]


def _start_server(specs, tr: Tracer, op: int, **kw) -> KPMServer:
    with tr.span("setup", op):
        srv = KPMServer(**kw).start()
        for spec in specs:
            with tr.span("serve.pin"):
                srv.operator(spec)
    return srv


@contextmanager
def traced_calls(tr: Tracer, obj, **spans: str):
    """Time calls to public functions of one library module or object:
    for the duration, each attribute named in ``spans`` is replaced on
    ``obj`` by a wrapper that opens the span named by its value, so the
    library's own calls to it are timed."""
    originals = {name: (getattr(obj, name), name in vars(obj))
                 for name in spans}
    for name, (call, _) in originals.items():
        def traced(*args, _call=call, _span=spans[name], **kw):
            with tr.span(_span):
                return _call(*args, **kw)
        setattr(obj, name, traced)
    try:
        yield
    finally:
        for name, (call, own) in originals.items():
            if own:
                setattr(obj, name, call)
            else:
                delattr(obj, name)


class SoloReference:
    """Each request solved alone with ``KPMSolver``, memoized per key.

    The operator and its pinned spectral map come from one
    ``KPMSolver.from_spec`` per spec (``scale_seed=0``, the server's
    default), so every reference is the ``from_spec`` solve of the
    request.
    """

    def __init__(self, specs, M: int) -> None:
        self.ops = {}
        for spec in specs:
            base = KPMSolver.from_spec(spec, M, 1, scale_seed=0)
            self.ops[spec.digest] = (base.H, base.scale)
        self.results: dict[str, object] = {}

    def __call__(self, req: Request):
        key = req.request_key(0)
        if key not in self.results:
            H, scale = self.ops[req.spec.digest]
            solver = KPMSolver(H, req.n_moments, req.n_vectors, scale=scale,
                               seed=req.seed, kernel=req.kernel,
                               vector_kind=req.vector_kind)
            if req.kind == "dos":
                self.results[key] = solver.dos()
            else:
                self.results[key] = solver.ldos(np.asarray(req.rows),
                                                exact=True)
        return self.results[key]


def check_served(sent: Sent, ref: SoloReference) -> bool:
    """DOS: bitwise the solo solve (the server's determinism contract).
    LDOS: the solo ``ldos(exact=True)`` runs its own recurrence, so the
    two agree to reduction order."""
    got, want = sent.ticket.result(), ref(sent.req)
    if sent.req.kind == "dos":
        return (np.array_equal(got.moments, want.moments)
                and np.array_equal(got.rho, want.rho)
                and np.array_equal(got.energies, want.energies))
    return np.array_equal(got.energies, want.energies) \
        and same_moments(got.rho, want.rho)


def _row_counts(specs) -> dict:
    return {s.digest: s.build()[0].n_rows for s in specs}


def serve_mix(run: Run) -> Outcome:
    p, out = run.params, Outcome()
    specs = p["specs"]
    mix = Mix(run.seed, p, _row_counts(specs))
    if run.traced:
        return _serve_traced(run, p, mix, out)
    ref = SoloReference(specs, p["moments"])
    setups, lat, solves, serving = [], [], [], None
    with stamped_tickets(run.tracer), ExitStack() as stack:
        for _ in range(SERVE_ROUNDS):
            gc.collect()  # start every round from the same heap state
            for i in range(SERVE_SETUPS):
                t0 = clock()
                srv = _start_server(specs, run.tracer, i)
                setups.append(clock() - t0)
                if serving is None:  # the first one serves every round
                    serving = stack.enter_context(srv)
                else:
                    srv.close()
            sent = open_loop(serving, mix, p["rate"],
                             run.seconds / SERVE_ROUNDS, run.tracer)
            lat += [s.latency for s in sent]
            # requests a batch solved (not a cache hit, not a join onto
            # a solve in flight), from the moment they were submitted
            solves += [s.done_at - s.sent_at for s in sent
                       if s.ok and isinstance(s.ticket.via, int)]
            _check_all(out, sent, ref)
    out.metrics.update({
        "setup_s": trimmed_mean(setups),
        "solve_s_p50": median(solves),
        "latency_s_p50": median(lat),
        "latency_s_p90": percentile(lat, 90),
        "peak_rss_mb": peak_rss_mb(),
    })
    return out


def _check_all(out: Outcome, sent: list[Sent], ref: SoloReference) -> None:
    for s in sent:
        try:
            out.op(s.ok and check_served(s, ref),
                   f"serve-mix {s.req.kind} request: "
                   f"{'differs from the solo solve' if s.ok else 'failed'}")
        except Exception:  # noqa: BLE001
            out.crashed(f"serve-mix {s.req.kind} request check")


def _serve_traced(run: Run, p: dict, mix: Mix, out: Outcome) -> Outcome:
    """Closed loop untraced (it gives ``serve.capacity_rps`` and the
    baseline of the tracing overhead), then set-up, open and closed loop
    traced."""
    tr, specs, share = run.tracer, p["specs"], run.seconds / 4
    with stamped_tickets(NullTracer()), \
            _start_server(specs, NullTracer(), 0) as srv:
        plain, plain_rates = closed_loop(srv, mix, p["depth"], share,
                                         NullTracer())
    reg, ctr = MetricsRegistry(trace=tr), PerfCounters()
    with tr.span("setup", 1):
        for spec in specs:
            with tr.span("physics.build"):
                H = spec.build()[0]
            with tr.span("scaling.bounds"):
                lanczos_scale(H, seed=0)
    with stamped_tickets(tr), ExitStack() as stack:
        srv = stack.enter_context(
            _start_server(specs, tr, 2, metrics=reg, counters=ctr))
        # the worker loop calls srv.step(); inside it, the calls below
        for obj, spans in (
            (srv, {"step": "serve.step", "operator": "serve.operator"}),
            (srv.queue, {"drain": "serve.queue.drain"}),
            (srv.cache, {"put": "serve.cache.put"}),
            (srv.spectra, {"get": "serve.spectra.get",
                           "put": "serve.spectra.put"}),
            (coalescer, {"stack_start_block": "stochastic.start_block"}),
            (server_module, {"plan_batches": "serve.plan_batches",
                             "execute_batch": "serve.execute_batch",
                             "slice_moments": "serve.slice_moments"}),
        ):
            stack.enter_context(traced_calls(tr, obj, **spans))
        opened = open_loop(srv, mix, p["rate"], share, tr)
        closed, rates = closed_loop(srv, mix, p["depth"], share, tr)
    ref = SoloReference(specs, p["moments"])
    _check_all(out, plain + opened + closed, ref)

    tr.finish()
    steps = [ss for ss in ops_with_root(tr, "serve.step").values()
             if any(s.name == "serve.batch" for s in ss)]
    step_spans = [s for ss in steps for s in ss]
    batches = [s for s in step_spans if s.name == "serve.batch"]
    kspans = [s for s in step_spans if s.name in KERNELS]
    led = {"time": sum(s.dur for s in kspans), "calls": len(kspans),
           "bytes": sum(s.bytes or 0 for s in kspans),
           "flops": sum(s.flops or 0 for s in kspans)}
    nb = max(1, len(batches))
    loop = sum(s.dur for s in batches)
    dispatch = sum(s.self_s for s in batches)
    layer_s, wall_s = (sum(x) for x in zip(
        *(covered(ss, "serve.step") for ss in steps)))
    c = reg.counters
    n_req = c.get("serve.requests", 0) or 1
    spectra = c.get("serve.spectra.hits", 0) + c.get("serve.spectra.misses", 0)
    setup = ops_with_root(tr, "setup")[1]
    submits = [s.dur for s in tr.spans if s.name == "serve.submit"]
    m = {
        "physics.build_s": span_sum(setup, "physics.build"),
        "scaling.bounds_s": span_sum(setup, "scaling.bounds"),
        "stochastic.start_block_s": span_sum(
            step_spans, "stochastic.start_block") / nb,
        "core.moment_loop_s": loop / nb,
        "core.dispatch_s": dispatch / nb,
        "core.dispatch_us_per_iter": 1e6 * dispatch / max(1, len(kspans)),
        "core.reconstruct_s": span_sum(step_spans, "serve.reconstruct") / nb,
        "serve.bookkeeping_s": (wall_s - layer_s) / nb,
        "serve.capacity_rps": median(plain_rates),
        "serve.submit_s_p50": median(submits),
        "serve.batches": len(batches),
        "serve.batch_s": median(s.dur for s in batches) if batches else 0.0,
        "serve.batch_width_mean": statistics.fmean(
            s.meta["width"] for s in batches) if batches else 0.0,
        "serve.requests_per_batch_mean": statistics.fmean(
            s.meta["requests"] for s in batches) if batches else 0.0,
        "serve.bytes_per_request": reg.distribution(
            "serve.bytes_per_request").mean,
        "serve.cache_hit_share": c.get("serve.cache.hits", 0) / n_req,
        "serve.spectra_hit_share": c.get("serve.spectra.hits", 0)
        / max(1, spectra),
        "serve.dedup_share": c.get("serve.dedup.hits", 0) / n_req,
        "serve.gen_late_s_p90": percentile([s.late for s in opened], 90),
        "obs.coverage_share": check_coverage(
            out, layer_s, wall_s, "serve-mix worker steps"),
        "obs.overhead_share": median(plain_rates) / median(rates) - 1.0,
    }
    m.update(kernel_metrics(led, nb))
    out.metrics.update(m)
    return out


WORKLOADS = {
    "dos-mp2-ckpt": dos_mp2_ckpt,
    "serve-mix": serve_mix,
}
