"""True multiprocess shared-memory KPM execution engine.

Where :class:`repro.dist.comm.SimWorld` *simulates* the paper's
data-parallel scheme sequentially in one process, this module runs the
identical rank loop of :mod:`repro.dist.kpm_parallel` in real OS
processes: every rank is a worker (``multiprocessing.Process``) that
owns a contiguous weighted row block (:mod:`repro.dist.partition`),
iterates the fused ``aug_spmmv`` kernel on it with its own kernel
backend, and meets its neighbours at per-iteration barriers.

Communication structure (paper Section VI-A, mapped onto one node):

* the start block is published once in a POSIX shared-memory segment —
  workers slice their rows zero-copy instead of receiving pickles;
* each directed halo edge (p → q) owns a shared *window* sized to its
  transfer list; one halo exchange is: every rank packs its send
  windows, a barrier, every rank gathers its ``[local | halo]`` kernel
  input from the windows it receives from, a barrier ("the assembly of
  communication buffers ... only the elements which need to be
  transferred are copied");
* with ``overlap=True`` the exchange is *asynchronous* (task mode,
  paper Section VII's pipelining outlook): the windows are
  double-buffered (slot ``m % 2``) and signalled per directed edge with
  ready/free event pairs instead of the global barrier; each worker
  posts its outgoing halo, computes the **interior** rows (the
  contiguous halo-free range of :func:`repro.dist.overlap.task_split`)
  with the split kernels while the exchange is in flight, then waits
  for its incoming windows and finishes the **boundary** rows.  The
  per-phase eta partials are combined in the fixed order interior +
  boundary, so the overlapped moments are bitwise equal to the
  simulator running the same task-mode schedule;
* per-rank eta contributions accumulate in a shared ``(P, M, R)`` array
  and are reduced **once** after the workers join — the single deferred
  global reduction of Section II.  ``reduction='every'`` instead
  synchronizes and sums after every iteration (the Table III
  ``aug_spmmv()*`` ablation).

Accounting: the engine charges :class:`~repro.dist.comm.MessageLog`
records equivalent to what :class:`SimWorld` logs for the same run
(halo volumes from the communication pattern, reductions priced as
recursive doubling via :func:`~repro.dist.comm.log_allreduce`), and
cross-checks the halo volume against byte counters the workers maintain
while actually copying the windows — so the network cost model keeps
working on real runs, and a worker that skipped communication is caught.

Failure model: any worker exception (or hard death) aborts the shared
barrier, which unblocks every peer; the parent terminates the world,
unlinks all shared memory, and raises a structured
:class:`~repro.util.errors.WorkerFailure` (a ``SimulationError``) — no
hang, no leaked ``/dev/shm`` segments (asserted by the test suite).
Liveness is supervised by a shared *heartbeat* array each worker bumps
every iteration: the parent declares the world wedged when no heartbeat
advances within :attr:`MpTimeouts.stall`, instead of capping the whole
run with one fixed deadline.

Checkpoint/restart: with ``checkpoint_every > 0`` the workers
double-buffer their recurrence state into shared *checkpoint slots*
after every k-th iteration; rank 0 publishes the slot with a single
atomic state word after a barrier, and the **parent** — which survives
worker crashes — autosaves the published state to ``checkpoint_path``
via the atomic :class:`~repro.core.checkpoint.KpmCheckpoint` writer, and
salvages the latest published state even when the run fails.  Passing
``resume_from`` re-enters the loop at the checkpointed iteration;
resumed runs are bitwise equal to uninterrupted ones on the same
partition (asserted by ``tests/resil/``).
"""

from __future__ import annotations

import json
import multiprocessing
import struct
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from threading import BrokenBarrierError

import numpy as np

from repro.core.checkpoint import KpmCheckpoint
from repro.core.scaling import SpectralScale
from repro.dist.comm import MessageLog, log_allreduce
from repro.dist.halo import DistributedMatrix, RankBlock
from repro.dist.kpm_parallel import _prepare_run, resolve_threads
from repro.dist.partition import RowPartition, grid_blocks
from repro.dist.shm import ShmArena, ShmAttachment
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.resil.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sparse.backend import KernelBackend, resolve_simd
from repro.sparse.backend.native import fork_safe as native_fork_safe
from repro.sparse.csr import CSRMatrix
from repro.sparse.fused import _col_dots, charge_col_dots
from repro.util.constants import DTYPE
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.errors import SimulationError, WorkerFailure, WorkerFault
from repro.util.precision import Precision, get_precision
from repro.util.validation import check_positive

#: acct columns maintained by each worker (its row; no locking needed):
#: actual halo messages/bytes it packed, actual reduction events/bytes.
_ACCT_COLS = 4

#: Per-rank capacity of the observability return channel: one row of the
#: ``obs`` shared segment holds an 8-byte length prefix plus a JSON blob
#: of the worker's PerfCounters dump and MetricsRegistry snapshot (a few
#: KB in practice — the metric namespace is the fixed kernel vocabulary).
_OBS_BLOB_SIZE = 1 << 16


@dataclass(frozen=True)
class MpTimeouts:
    """The engine's liveness knobs, gathered in one declarative object.

    Parameters
    ----------
    barrier:
        Seconds any worker may wait at a barrier before declaring its
        peers gone (``BrokenBarrierError`` → clean exit code 2).
    join:
        Seconds the parent waits for each worker to join after the run
        (or an abort) before escalating to ``terminate()``.
    stall:
        Heartbeat window: the parent tears the world down when *no*
        worker's per-iteration heartbeat advances for this long.  This
        replaces the old whole-run deadline — a long healthy run is
        fine, a wedged one is caught within one window.
    run:
        Optional whole-run wall-clock budget (None: unlimited).  Kept
        for callers that genuinely want a hard cap, e.g. a
        :class:`~repro.resil.RetryPolicy` per-attempt deadline.
    """

    barrier: float = 120.0
    join: float = 5.0
    stall: float = 120.0
    run: float | None = None

    def __post_init__(self) -> None:
        for name in ("barrier", "join", "stall"):
            if getattr(self, name) <= 0:
                raise ValueError(f"MpTimeouts.{name} must be positive")
        if self.run is not None and self.run <= 0:
            raise ValueError("MpTimeouts.run must be positive (or None)")

    @classmethod
    def from_legacy(cls, timeout: float) -> "MpTimeouts":
        """The semantics of the old single ``timeout=X`` knob."""
        return cls(barrier=float(timeout), stall=float(timeout),
                   run=float(timeout))


def _default_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _pack_obs_blob(row: np.ndarray, payload: dict) -> None:
    """Serialize ``payload`` into one length-prefixed ``obs`` row."""
    blob = json.dumps(payload, separators=(",", ":")).encode()
    if len(blob) > row.size - 8:
        raise RuntimeError(
            f"observability blob ({len(blob)} B) exceeds the shared "
            f"channel capacity ({row.size - 8} B)"
        )
    row[:8] = np.frombuffer(struct.pack("<q", len(blob)), dtype=np.uint8)
    row[8 : 8 + len(blob)] = np.frombuffer(blob, dtype=np.uint8)


def _unpack_obs_blob(row: np.ndarray) -> dict | None:
    """Parse one worker's length-prefixed JSON blob (None when empty)."""
    (length,) = struct.unpack("<q", row[:8].tobytes())
    if length <= 0:
        return None
    return json.loads(row[8 : 8 + length].tobytes().decode())


class MpWorld:
    """A communicator of ``n_workers`` real OS processes.

    Drop-in peer of :class:`~repro.dist.comm.SimWorld` for the
    distributed drivers: :func:`repro.dist.kpm_parallel.distributed_eta`
    (and everything built on it) dispatches on the world type, so
    ``distributed_dos(..., world=MpWorld(4))`` runs the rank loop in
    parallel while ``SimWorld(4)`` simulates it sequentially.

    Parameters
    ----------
    n_workers:
        Number of worker processes (one per partition rank).
    devices:
        Optional ``'cpu'``/``'gpu'`` label per rank, as in ``SimWorld``
        (feeds the network cost model's PCIe staging surcharge).
    backend:
        Kernel backend override: ``None`` (use the driver's ``backend=``
        argument for every rank), a single name, or one name per rank —
        heterogeneous worlds can run native kernels on "fast" ranks and
        numpy on others.
    timeouts:
        An :class:`MpTimeouts`; None uses the defaults.
    timeout:
        Legacy single knob: ``timeout=X`` is ``MpTimeouts(barrier=X,
        stall=X, run=X)`` — the old behaviour of one number governing
        both the barriers and the whole run.  Mutually exclusive with
        ``timeouts``.
    start_method:
        ``'fork'``/``'spawn'``/``'forkserver'``; default prefers fork
        (zero-copy matrix inheritance) where the platform offers it.
    """

    def __init__(
        self,
        n_workers: int,
        devices: list[str] | None = None,
        *,
        backend=None,
        timeout: float | None = None,
        timeouts: MpTimeouts | None = None,
        start_method: str | None = None,
    ) -> None:
        check_positive("n_workers", n_workers)
        self.n_ranks = int(n_workers)
        if devices is None:
            devices = ["cpu"] * self.n_ranks
        if len(devices) != self.n_ranks:
            raise SimulationError(
                f"need one device label per rank ({self.n_ranks}), "
                f"got {len(devices)}"
            )
        for d in devices:
            if d not in ("cpu", "gpu"):
                raise SimulationError(f"unknown device label {d!r}")
        self.devices = list(devices)
        self.backend = backend
        if timeouts is not None and timeout is not None:
            raise ValueError("pass either timeouts= or the legacy timeout=")
        if timeouts is not None:
            self.timeouts = timeouts
        elif timeout is not None:
            self.timeouts = MpTimeouts.from_legacy(timeout)
        else:
            self.timeouts = MpTimeouts()
        self.start_method = start_method or _default_start_method()
        self.log = MessageLog()
        #: OS segment names of the most recent run (leak checks in tests).
        self.last_segment_names: list[str] = []
        #: per-rank (halo_msgs, halo_bytes, reduce_events, reduce_bytes)
        #: actually performed by the workers in the most recent run.
        self.last_acct: np.ndarray | None = None
        #: per-rank observability snapshots of the most recent run
        #: (``{"counters": ..., "metrics": ...}`` dicts); None until a
        #: run with live counters/metrics completes.
        self.last_obs: list[dict | None] | None = None
        #: latest checkpoint state the parent captured from shared memory
        #: in the most recent run (autosaved or salvaged); None when the
        #: run did not checkpoint.
        self.last_checkpoint: KpmCheckpoint | None = None

    @property
    def timeout(self) -> float:
        """Back-compat view of the barrier timeout (the old single knob)."""
        return self.timeouts.barrier

    def __repr__(self) -> str:
        return (
            f"MpWorld(n_workers={self.n_ranks}, devices={self.devices}, "
            f"start_method={self.start_method!r})"
        )


def _backend_names(world: MpWorld, backend) -> list[str]:
    """One backend *name* per rank (workers resolve instances themselves)."""
    spec = world.backend if world.backend is not None else backend
    if isinstance(spec, KernelBackend):
        spec = spec.name
    if spec is None or isinstance(spec, str):
        return [spec or "auto"] * world.n_ranks
    names = [s.name if isinstance(s, KernelBackend) else str(s) for s in spec]
    if len(names) != world.n_ranks:
        raise SimulationError(
            f"need one backend per rank ({world.n_ranks}), got {len(names)}"
        )
    return names


@dataclass(frozen=True)
class _RunConfig:
    """Picklable per-run parameters shared by every worker."""

    a: float
    b: float
    n_moments: int
    r: int
    reduction: str
    timeouts: MpTimeouts
    fault_plan: FaultPlan | None
    attempt: int
    want_obs: bool
    first_m: int  # 1 for a fresh run, checkpoint.next_m when resuming
    checkpoint_every: int
    overlap: bool = False
    precision: str = "fp64"  # storage profile name (picklable)
    threads: int | None = None  # intra-rank kernel threads (None = serial)
    simd: str | None = None  # native vectorized-kernel selector
    eta_grid: int = 0  # B > 0: per-global-block eta partials (elastic)
    stop_m: int = 0  # 0 = run to M/2; else exclusive segment bound


# ---------------------------------------------------------------------
# worker
# ---------------------------------------------------------------------

def _pack_halo(vec: np.ndarray, rows: np.ndarray, win: np.ndarray) -> int:
    """Assemble one edge's send window, allocation-free.

    The gather writes straight into the (shared-memory) window — no
    temporary is materialized, so the steady-state iteration loop does
    not allocate per exchange (tested with tracemalloc).  ``mode='clip'``
    is what makes ``np.take`` buffer-free; it is safe because the row
    lists come from the communication pattern, validated in range at
    construction.  Returns the window byte count for the traffic
    accounting.
    """
    np.take(vec, rows, axis=0, out=win, mode="clip")
    return win.nbytes


def _worker(
    rank: int,
    blk: RankBlock,
    send_edges: list[tuple[int, np.ndarray]],
    specs: dict,
    barrier,
    events,
    errq,
    backend_name: str,
    cfg: _RunConfig,
) -> None:
    """One rank's full KPM loop (module-level: spawn-picklable)."""
    att = None
    abort = None
    code = 0
    try:
        from repro.sparse.backend import get_backend

        bk = get_backend(backend_name)
        att = ShmAttachment(specs)
        start, eta, acct = att["start"], att["eta"], att["acct"]
        hb = att["hb"]
        abort = att["abort"]
        lo, hi = blk.row_start, blk.row_stop
        n_local = hi - lo
        a, b, r = cfg.a, cfg.b, cfg.r
        prec = get_precision(cfg.precision)
        bt = cfg.timeouts.barrier
        inj = None
        if cfg.fault_plan is not None:
            inj = FaultInjector(cfg.fault_plan, rank=rank, attempt=cfg.attempt)

        # Local observability state: the parent cannot share its own
        # counters/metrics across the process boundary, so each worker
        # accumulates privately and ships a snapshot back through the
        # ``obs`` shared segment after its loop completes.
        if cfg.want_obs:
            w_counters: PerfCounters = PerfCounters()
            w_metrics: MetricsRegistry = MetricsRegistry()
        else:
            w_counters = NULL_COUNTERS
            w_metrics = NULL_METRICS

        xbuf = np.empty(prec.vec_shape(blk.matrix.n_cols, r),
                        dtype=prec.vector_dtype)
        plan = bk.plan(blk.matrix, r, precision=prec, threads=cfg.threads,
                       simd=cfg.simd)
        splan = None
        if cfg.overlap:
            from repro.dist.overlap import task_split

            splan = bk.split_plan(blk.matrix, task_split(blk), r,
                                  precision=prec, threads=cfg.threads,
                                  simd=cfg.simd)
        # Grid mode: this rank's fixed global eta blocks (each block has
        # exactly one writer, so the shared (K, M, R) array needs no
        # locking either).
        gblocks = (
            grid_blocks(lo, hi, cfg.eta_grid) if cfg.eta_grid else None
        )
        half = cfg.stop_m if cfg.stop_m else cfg.n_moments // 2
        wins_out = [(q, rows, att[f"w{rank}_{q}"]) for q, rows in send_edges]
        wins_in = [
            (src, int(cnt), att[f"w{src}_{rank}"])
            for src, cnt in zip(
                blk.halo_sources.tolist(), blk.halo_counts.tolist()
            )
        ]
        ck_on = cfg.checkpoint_every > 0
        if ck_on:
            ckv, ckw, ckst = att["ckv"], att["ckw"], att["ckst"]

        def ev_wait(ev) -> None:
            # Poll so a dead peer (parent sets the shared abort flag and
            # breaks the barrier) unblocks this wait too — events have no
            # abort() of their own.
            deadline = time.monotonic() + bt
            while not ev.wait(0.05):
                if abort[0]:
                    raise BrokenBarrierError
                if time.monotonic() > deadline:
                    raise BrokenBarrierError

        def exchange(m: int, vec: np.ndarray) -> None:
            with w_metrics.span("halo_exchange", phase="dist"):
                for _q, rows, win in wins_out:
                    # buffer assembly at the source, allocation-free
                    nbytes = _pack_halo(vec, rows, win)
                    if inj is not None:
                        inj.corrupt_window(m, win)
                    acct[rank, 0] += 1
                    acct[rank, 1] += nbytes
                barrier.wait(bt)  # all windows packed
                xbuf[:n_local] = vec
                pos = n_local
                for _src, cnt, win in wins_in:
                    xbuf[pos : pos + cnt] = win
                    pos += cnt
                barrier.wait(bt)  # all windows consumed, reusable

        def post_exchange(m: int, vec: np.ndarray) -> None:
            # Task mode, send side: claim this iteration's window slot
            # (free once the receiver has drained its previous use),
            # pack, and signal readiness — no global synchronization.
            slot = m % 2
            with w_metrics.span("halo_pack", phase="dist"):
                for q, rows, win in wins_out:
                    ready, free = events[(rank, q)][slot]
                    ev_wait(free)
                    free.clear()
                    nbytes = _pack_halo(vec, rows, win[slot])
                    if inj is not None:
                        inj.corrupt_window(m, win[slot])
                    acct[rank, 0] += 1
                    acct[rank, 1] += nbytes
                    ready.set()
                xbuf[:n_local] = vec

        def complete_exchange(m: int) -> None:
            # Task mode, receive side: runs *after* the interior phase;
            # any time still spent blocking here is exposed (un-hidden)
            # communication — the ``halo_wait`` span measures exactly it.
            slot = m % 2
            with w_metrics.span("halo_wait", phase="dist"):
                pos = n_local
                for src, cnt, win in wins_in:
                    ready, free = events[(src, rank)][slot]
                    ev_wait(ready)
                    xbuf[pos : pos + cnt] = win[slot]
                    ready.clear()
                    free.set()
                    pos += cnt

        def reduce_now(m: int) -> None:
            # The contributions already sit in the shared eta array; a
            # barrier makes every rank's slice visible, then each rank
            # forms the global sum locally (allreduce semantics).
            with w_metrics.span("allreduce", phase="dist"):
                acct[rank, 2] += 2
                acct[rank, 3] += 2 * eta[rank, 2 * m].nbytes
                barrier.wait(bt)
                eta[:, 2 * m].sum(axis=0)
                eta[:, 2 * m + 1].sum(axis=0)

        def publish_checkpoint(m: int, v: np.ndarray, w: np.ndarray) -> None:
            # Double-buffered: the k-th checkpoint of this run writes
            # slot k % 2, so the previously *published* slot stays
            # intact while this one is being filled — a crash mid-write
            # can never damage a state the parent might be saving.
            slot = ((m - cfg.first_m + 1) // cfg.checkpoint_every) % 2
            ckv[slot, lo:hi] = v
            ckw[slot, lo:hi] = w
            barrier.wait(bt)  # every rank's slice is in the slot
            if rank == 0:
                # One aligned int64 store publishes (next_m, slot).
                ckst[0] = (m + 1) * 2 + slot

        if cfg.first_m == 1:
            v = np.ascontiguousarray(start[lo:hi], dtype=prec.vector_dtype)
            # ``rank_busy`` spans time this rank's own work — the fault
            # probe (so an injected straggler's sleeps are measured) and
            # the kernel compute, but *not* the exchange barriers where
            # fast ranks absorb a slow peer's skew.  Their per-rank
            # totals are the elastic rebalancer's skew signal.
            with w_metrics.span("rank_busy"):
                if inj is not None:
                    inj.at_iteration(0)
            hb[rank] += 1
            if cfg.overlap:
                # Bootstrap has no prior compute to hide the exchange
                # behind: post and complete back to back.
                post_exchange(0, v)
                complete_exchange(0)
            else:
                exchange(0, v)
            # nu_1 = a (H nu_0 - b nu_0) on the local rows
            with w_metrics.span("rank_busy"):
                w = bk.spmmv(
                    blk.matrix, xbuf, counters=w_counters, metrics=w_metrics
                )
                if prec.half_vectors:
                    # one-off fp32 recombination through the plan's decode
                    # scratch (dots read the pre-rounding values, like the
                    # kernels' in-register accumulation), rounded back
                    vn = plan.vc[:n_local]
                    prec.decode(v, out=vn)
                    wn = plan.wc
                    prec.decode(w, out=wn)
                    np.multiply(vn, b, out=plan.work_block)
                    wn -= plan.work_block
                    wn *= a
                    eta[rank, 0], eta[rank, 1] = _col_dots(vn, wn)
                    prec.encode(wn, out=w)
                else:
                    np.multiply(v, b, out=plan.work_block)
                    w -= plan.work_block
                    w *= a
                    if gblocks is not None:
                        for k, sl in gblocks:
                            eta[k, 0], eta[k, 1] = _col_dots(v[sl], w[sl])
                    else:
                        eta[rank, 0], eta[rank, 1] = _col_dots(v, w)
            if cfg.reduction == "every":
                reduce_now(0)
        else:
            # Resume: the parent seeded the checkpointed (v, w) blocks
            # into the ``start`` / ``rw`` segments; no bootstrap.
            v = np.ascontiguousarray(start[lo:hi], dtype=prec.vector_dtype)
            w = np.ascontiguousarray(att["rw"][lo:hi], dtype=prec.vector_dtype)

        for m in range(cfg.first_m, half):
            with w_metrics.span("rank_busy"):
                if inj is not None:
                    inj.at_iteration(m)
            hb[rank] += 1
            v, w = w, v
            if cfg.overlap:
                # Task mode: publish the outgoing halo, update the
                # interior rows while the exchange is in flight (they
                # reference local columns only), then finish the
                # boundary rows once the halo has landed.  The fixed
                # interior + boundary combine keeps the moments
                # schedule-independent.
                post_exchange(m, v)
                with w_metrics.span("rank_busy"):
                    ee_i, eo_i = bk.aug_spmmv_interior(
                        blk.matrix, xbuf, w, a, b, plan=splan,
                        counters=w_counters, metrics=w_metrics,
                    )
                complete_exchange(m)
                with w_metrics.span("rank_busy"):
                    ee_b, eo_b = bk.aug_spmmv_boundary(
                        blk.matrix, xbuf, w, a, b, plan=splan,
                        counters=w_counters, metrics=w_metrics,
                    )
                ee, eo = ee_i + ee_b, eo_i + eo_b
            else:
                exchange(m, v)
                with w_metrics.span("rank_busy"):
                    ee, eo = bk.aug_spmmv_step(
                        blk.matrix, xbuf, w, a, b, plan=plan,
                        counters=w_counters, metrics=w_metrics,
                    )
            if gblocks is not None:
                # Grid mode: the kernel's fused per-rank dots are
                # discarded; recompute per fixed global block so the eta
                # reduction order never depends on this partition.  The
                # extra pass is charged explicitly (linear in rows —
                # the total stays partition independent).
                with w_metrics.span("rank_busy"):
                    for k, sl in gblocks:
                        eta[k, 2 * m], eta[k, 2 * m + 1] = _col_dots(
                            v[sl], w[sl]
                        )
                    charge_col_dots(n_local, r, w_counters, prec=prec)
            else:
                eta[rank, 2 * m] = ee
                eta[rank, 2 * m + 1] = eo
            if cfg.reduction == "every":
                reduce_now(m)
            if ck_on and (m - cfg.first_m + 1) % cfg.checkpoint_every == 0:
                publish_checkpoint(m, v, w)

        if cfg.want_obs:
            _pack_obs_blob(
                att["obs"][rank],
                {
                    "counters": w_counters.to_dict(),
                    "metrics": w_metrics.snapshot(),
                },
            )
    except BrokenBarrierError:
        code = 2  # a peer died; the parent reports the root cause
    except Exception as exc:  # noqa: BLE001 - forwarded to the parent
        kind = getattr(exc, "kind", None) or "exception"
        try:
            errq.put((rank, kind, f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - queue already torn down
            pass
        if abort is not None:
            abort[0] = 1  # unblock peers parked on halo events
        try:
            barrier.abort()  # unblock every waiting peer immediately
        except Exception:  # pragma: no cover
            pass
        code = 1
    finally:
        if att is not None:
            att.close()
    sys.exit(code)


# ---------------------------------------------------------------------
# parent driver
# ---------------------------------------------------------------------

def _charge_log(
    log: MessageLog, dist: DistributedMatrix, r: int, n_moments: int,
    reduction: str, first_m: int = 1, s_vector: int | None = None,
    stop_m: int | None = None,
) -> None:
    """Charge the run to ``log`` exactly as :class:`SimWorld` would.

    Record-for-record equivalent to the simulator executing the same
    partition/reduction (and, with ``first_m > 1``, the same *resumed*
    iteration range) — asserted by the differential tests, and the
    contract that keeps :mod:`repro.dist.network` pricing mp runs.
    ``s_vector`` is the bytes per exchanged vector element (the
    precision profile's storage width; default fp64).  Reductions always
    move fp64 eta scalars regardless of profile.

    With ``stop_m`` set (an elastic segment) the final allreduce is
    charged for the columns this segment computed — ``2·stop_m`` fresh,
    ``2·(stop_m − first_m)`` resumed — so the per-segment charges of a
    segmented run sum exactly to the single uninterrupted-run charge.
    """
    itemsize = np.dtype(DTYPE).itemsize
    s_vec = itemsize if s_vector is None else int(s_vector)
    half = n_moments // 2 if stop_m is None else int(stop_m)

    def halo(phase: str) -> None:
        for block in dist.blocks:
            for src, cnt in zip(
                block.halo_sources.tolist(), block.halo_counts.tolist()
            ):
                log.add(src, block.rank, cnt * r * s_vec, phase)

    if first_m == 1:
        halo("halo_init")
        if reduction == "every":
            for _ in range(2):
                log_allreduce(log, dist.n_ranks, r * itemsize, "allreduce_iter")
    for _m in range(first_m, half):
        halo("halo")
        if reduction == "every":
            for _ in range(2):
                log_allreduce(log, dist.n_ranks, r * itemsize, "allreduce_iter")
    final_cols = (
        n_moments if stop_m is None
        else (2 * half if first_m == 1 else 2 * (half - first_m))
    )
    if final_cols:
        log_allreduce(
            log, dist.n_ranks, final_cols * r * itemsize, "allreduce_final"
        )


def _expected_halo_acct(
    dist: DistributedMatrix, r: int, n_moments: int, first_m: int = 1,
    s_vector: int | None = None, stop_m: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(messages, bytes) per source rank over the run's halo exchanges.

    A fresh run exchanges M/2 times (one bootstrap + M/2 − 1 loop
    iterations); a run resumed at ``first_m`` skips the bootstrap and
    the first ``first_m − 1`` loop exchanges; a segment bounded by
    ``stop_m`` stops its loop exchanges there.  ``s_vector`` is the
    profile's bytes per exchanged vector element (default fp64).
    """
    s_vec = np.dtype(DTYPE).itemsize if s_vector is None else int(s_vector)
    msgs = np.zeros(dist.n_ranks, dtype=np.int64)
    nbytes = np.zeros(dist.n_ranks, dtype=np.int64)
    for (p, _q), rows in dist.pattern.send_rows.items():
        if rows.size:
            msgs[p] += 1
            nbytes[p] += rows.size * r * s_vec
    half = n_moments // 2 if stop_m is None else int(stop_m)
    n_exchanges = half - first_m + (1 if first_m == 1 else 0)
    return msgs * n_exchanges, nbytes * n_exchanges


def _legacy_fault_plan(_fault: tuple | None) -> FaultPlan | None:
    """The old test-only ``(rank, m, 'raise'|'exit')`` tuple as a plan."""
    if _fault is None:
        return None
    rank, m, mode = _fault
    kind = "crash" if mode == "exit" else "raise"
    return FaultPlan((FaultSpec(kind, rank=int(rank), m=int(m)),))


class _CheckpointChannel:
    """Parent-side reader of the shared double-buffered checkpoint slots.

    ``capture()`` performs a stable read: the state word is sampled
    before and after copying the slot, and the copy is discarded when it
    changed in between (the workers published a newer checkpoint while
    we were reading — the next poll picks it up).  The eta prefix
    ``[:, :2·next_m]`` is final once the state is published (every rank
    passed the checkpoint barrier after writing it), so summing it while
    workers fill later columns is safe.
    """

    def __init__(
        self, eta_shared, ckv, ckw, ckst, base_eta, first_m: int,
        n_moments: int, r: int, a: float, b: float,
        precision: str = "fp64", eta_grid: int = 0,
    ) -> None:
        self._eta = eta_shared
        self._ckv, self._ckw, self._ckst = ckv, ckw, ckst
        self._base = base_eta  # (R, 2·first_m) resumed prefix, or None
        self._first_m = first_m
        self._m_tot = n_moments
        self._r = r
        self._a, self._b = a, b
        self._precision = precision
        self._grid = int(eta_grid)
        self.saved_state = 0

    def capture(self) -> KpmCheckpoint | None:
        s1 = int(self._ckst[0])
        if s1 <= self.saved_state:
            return None
        next_m, slot = s1 // 2, s1 % 2
        # Fresh runs reduce every filled column; resumed runs only the
        # columns computed this run — the inherited prefix is spliced in
        # verbatim (never re-reduced, preserving bitwise equality).
        col0 = 2 * self._first_m if self._base is not None else 0
        v = self._ckv[slot].copy()
        w = self._ckw[slot].copy()
        prefix = self._eta[:, col0 : 2 * next_m].sum(axis=0)
        if int(self._ckst[0]) != s1:
            return None  # torn read: a newer state landed mid-copy
        eta = np.zeros((self._r, self._m_tot), dtype=DTYPE)
        if self._base is not None:
            eta[:, :col0] = self._base
        eta[:, col0 : 2 * next_m] = prefix.T
        self.saved_state = s1
        return KpmCheckpoint(
            v=v, w=w, eta=eta, next_m=next_m,
            n_moments=self._m_tot, a=self._a, b=self._b,
            precision=self._precision, eta_grid=self._grid,
        )


def mp_eta(
    A: CSRMatrix | DistributedMatrix,
    partition: RowPartition | None,
    scale: SpectralScale,
    n_moments: int,
    start_block: np.ndarray | None,
    world: MpWorld,
    *,
    reduction: str = "end",
    backend: KernelBackend | str = "auto",
    counters: PerfCounters = NULL_COUNTERS,
    metrics: MetricsRegistry = NULL_METRICS,
    overlap: bool | str | None = False,
    checkpoint_every: int = 0,
    checkpoint_path: str | Path | None = None,
    resume_from: KpmCheckpoint | str | Path | None = None,
    fault_plan: FaultPlan | None = None,
    attempt: int = 1,
    _fault: tuple | None = None,
    precision: Precision | str | None = None,
    progress=None,
    progress_every: int = 0,
    threads: int | str | None = None,
    simd: str | None = None,
    eta_grid: int = 0,
    stop_m: int | None = None,
) -> np.ndarray:
    """Multiprocess equivalent of :func:`repro.dist.kpm_parallel.distributed_eta`.

    Same signature, inputs validated by the same code, and the same
    result: bitwise on one rank, and per overlap schedule bitwise the
    simulator's on any rank count (``overlap``, ``threads``, ``simd``,
    ``eta_grid`` and ``stop_m`` mean exactly what they mean there).  The
    fault-tolerance surface: ``checkpoint_every``/``checkpoint_path``
    enable the parent-side autosave described in the module docstring,
    ``resume_from`` continues an interrupted run (``start_block`` is then
    ignored and may be None), and ``fault_plan``/``attempt`` inject
    planned faults into the workers (``_fault`` is the legacy test-only
    ``(rank, iteration, mode)`` form of the same thing).

    With a live ``counters`` or ``metrics``, every worker accumulates its
    own :class:`PerfCounters` / :class:`MetricsRegistry` and ships a JSON
    snapshot back through the ``obs`` shared segment; the parent merges
    worker counters into ``counters`` (numeric totals then equal a serial
    run of the same problem) and worker metrics into ``metrics`` under a
    ``rank<p>.`` prefix.  The raw per-rank snapshots stay available as
    ``world.last_obs``.

    ``progress``/``progress_every`` stream partial eta prefixes from the
    parent's checkpoint autosave: the callback fires with
    ``(n_eta, eta_prefix)`` whenever a capture publishes new state, so it
    requires ``checkpoint_every > 0`` (``progress_every`` only gates
    whether the hook is armed here — the cadence is the workers'
    checkpoint cadence).

    Workers start with the world's ``start_method`` — except that a
    ``fork`` world whose workers would run threaded native kernels
    after this process has run one itself forks them from a clean
    ``forkserver`` instead (libgomp does not survive a fork).  Like
    ``spawn``, that re-imports an unguarded ``__main__`` script in the
    workers.
    """
    if fault_plan is None:
        fault_plan = _legacy_fault_plan(_fault)
    dist, prec, overlap, grid, half, r, first_m, ck, base_eta, start_block = \
        _prepare_run(A, partition, scale, n_moments, start_block, world,
                     reduction, overlap, checkpoint_every, checkpoint_path,
                     resume_from, precision, eta_grid, stop_m, metrics)
    n = dist.n_global
    timeouts = world.timeouts

    names = _backend_names(world, backend)

    send_edges: list[list[tuple[int, np.ndarray]]] = [
        [] for _ in range(dist.n_ranks)
    ]
    for (p, q), rows in sorted(dist.pattern.send_rows.items()):
        if rows.size:
            send_edges[p].append((q, rows))

    resolved_threads = resolve_threads(threads, world.n_ranks)
    ctx = multiprocessing.get_context(world.start_method)
    if world.start_method == "fork" and (resolved_threads or 1) > 1 \
            and not native_fork_safe():
        # libgomp is not fork-safe: a forked child that opens a parallel
        # region waits forever for the parent's OpenMP team threads,
        # which did not survive the fork.  Fork the workers from a clean
        # server process instead (started once, with this module loaded).
        ctx = multiprocessing.get_context("forkserver")
        ctx.set_forkserver_preload([__name__])
        metrics.count("mp.forkserver_after_openmp")

    want_obs = bool(counters.enabled or metrics.enabled)
    cfg = _RunConfig(
        a=scale.a, b=scale.b, n_moments=n_moments, r=r, reduction=reduction,
        timeouts=timeouts, fault_plan=fault_plan, attempt=int(attempt),
        want_obs=want_obs, first_m=first_m,
        checkpoint_every=int(checkpoint_every), overlap=overlap,
        precision=prec.name, threads=resolved_threads,
        simd=resolve_simd(simd),
        eta_grid=grid, stop_m=int(stop_m or 0),
    )
    errors: list[tuple[int, str, str]] = []
    procs: list = []
    world.last_checkpoint = None
    with ShmArena() as arena:
        vec_dt = np.dtype(prec.vector_dtype).str
        start = arena.create("start", prec.vec_shape(n, r), dtype=vec_dt)
        if ck is not None:
            start[...] = ck.v
            arena.create("rw", prec.vec_shape(n, r), dtype=vec_dt)[...] = ck.w
        elif start_block.dtype == np.float16 or prec.is_fp64:
            start[...] = start_block
        elif prec.half_vectors:
            prec.encode(start_block, out=start)
        else:
            start[...] = start_block.astype(prec.vector_dtype)
        n_slots = -(-n // grid) if grid else world.n_ranks
        eta_shared = arena.create("eta", (n_slots, n_moments, r))
        acct = arena.create("acct", (world.n_ranks, _ACCT_COLS), dtype="int64")
        hb = arena.create("hb", (world.n_ranks,), dtype="int64")
        abort_flag = arena.create("abort", (1,), dtype="int64")
        obs = None
        if want_obs:
            obs = arena.create(
                "obs", (world.n_ranks, _OBS_BLOB_SIZE), dtype="uint8"
            )
        channel = None
        if checkpoint_every > 0:
            ckv = arena.create("ckv", (2, *prec.vec_shape(n, r)), dtype=vec_dt)
            ckw = arena.create("ckw", (2, *prec.vec_shape(n, r)), dtype=vec_dt)
            ckst = arena.create("ckst", (1,), dtype="int64")
            channel = _CheckpointChannel(
                eta_shared, ckv, ckw, ckst, base_eta, first_m,
                n_moments, r, scale.a, scale.b, prec.name, grid,
            )
        # Halo windows: task mode double-buffers each directed edge (slot
        # m % 2) and pairs every (edge, slot) with ready/free events —
        # free initially set (both slots start drained).
        events: dict[tuple[int, int], list] = {}
        for p, edges in enumerate(send_edges):
            for q, rows in edges:
                wshape = prec.vec_shape(rows.size, r)
                shape = (2, *wshape) if overlap else wshape
                arena.create(f"w{p}_{q}", shape, dtype=vec_dt)
                if overlap:
                    slots = []
                    for _slot in range(2):
                        ready, free = ctx.Event(), ctx.Event()
                        free.set()
                        slots.append((ready, free))
                    events[(p, q)] = slots
        world.last_segment_names = list(arena.names)

        barrier = ctx.Barrier(world.n_ranks)
        errq = ctx.SimpleQueue()
        for rank in range(world.n_ranks):
            procs.append(
                ctx.Process(
                    target=_worker,
                    args=(
                        rank, dist.blocks[rank], send_edges[rank],
                        arena.specs, barrier, events, errq, names[rank], cfg,
                    ),
                    daemon=True,
                )
            )
        for p in procs:
            p.start()

        def abort_world() -> None:
            # Both wake-up channels: the shared flag unblocks event
            # waits (task mode), barrier.abort() unblocks barrier waits.
            abort_flag[0] = 1
            barrier.abort()

        def autosave() -> None:
            if channel is None:
                return
            saved = channel.capture()
            if saved is not None:
                world.last_checkpoint = saved
                with metrics.span("checkpoint_save", phase="ckpt") as sp:
                    out = saved.save(checkpoint_path)
                    sp.note(file_bytes=out.stat().st_size, next_m=saved.next_m)
                if progress is not None and progress_every > 0:
                    # capture() dedupes repeats, so every firing carries a
                    # strictly longer globally-reduced prefix
                    progress(2 * saved.next_m, saved.eta[:, : 2 * saved.next_m])

        # Monitor: a worker death aborts the barrier so peers unblock
        # instead of waiting out their timeout; liveness is judged by the
        # heartbeat array (stall window), optionally capped by a whole-run
        # deadline; published checkpoints are autosaved as they appear.
        t0 = time.monotonic()
        deadline = None if timeouts.run is None else t0 + timeouts.run
        hb_last = hb.copy()
        hb_t = t0
        stalled = timed_out = False
        while any(p.is_alive() for p in procs):
            if any(p.exitcode not in (None, 0) for p in procs):
                abort_world()
                break
            now = time.monotonic()
            hb_now = hb.copy()
            if not np.array_equal(hb_now, hb_last):
                hb_last = hb_now
                hb_t = now
            elif now - hb_t >= timeouts.stall:
                stalled = True
                abort_world()
                break
            if deadline is not None and now >= deadline:
                timed_out = True
                abort_world()
                break
            autosave()
            time.sleep(0.005)
        for p in procs:
            p.join(timeout=timeouts.join)
            if p.is_alive():
                p.terminate()
                p.join(timeout=timeouts.join)
        while not errq.empty():
            errors.append(errq.get())

        # Workers are gone: one last capture salvages any checkpoint
        # published after the monitor's final poll (or, on failure, the
        # state the supervisor will resume from).
        autosave()

        exit_codes = [p.exitcode for p in procs]
        failed = (
            stalled or timed_out or errors
            or any(c != 0 for c in exit_codes)
        )
        if failed:
            raise _worker_failure(
                errors, exit_codes, stalled, timed_out, hb_last,
                timeouts, world.last_checkpoint,
            )

        # Pull results out of shared memory before the arena unlinks.
        world.last_acct = acct.copy()
        obs_snaps: list[dict | None] = []
        if want_obs:
            obs_snaps = [
                _unpack_obs_blob(obs[p]) for p in range(world.n_ranks)
            ]
        if first_m > 1:
            # Splice: checkpointed prefix verbatim (never re-reduced, so
            # resumed == uninterrupted bitwise), freshly computed suffix.
            eta_global = np.empty((n_moments, r), dtype=DTYPE)
            eta_global[: 2 * first_m] = base_eta.T
            eta_global[2 * first_m :] = eta_shared[:, 2 * first_m :].sum(axis=0)
        else:
            eta_global = eta_shared.sum(axis=0)  # the single deferred reduction

        exp_msgs, exp_bytes = _expected_halo_acct(
            dist, r, n_moments, first_m, prec.s_vector, stop_m
        )
        if not (
            np.array_equal(world.last_acct[:, 0], exp_msgs)
            and np.array_equal(world.last_acct[:, 1], exp_bytes)
        ):
            raise SimulationError(
                "halo accounting mismatch: workers moved "
                f"{world.last_acct[:, 1].tolist()} bytes, pattern predicts "
                f"{exp_bytes.tolist()}"
            )

    if want_obs:
        world.last_obs = obs_snaps
        for p, snap in enumerate(obs_snaps):
            if snap is None:
                raise SimulationError(
                    f"rank {p} finished without shipping its observability "
                    "snapshot"
                )
            counters.merge(PerfCounters.from_dict(snap["counters"]))
            metrics.merge_snapshot(snap["metrics"], prefix=f"rank{p}.")

    _charge_log(world.log, dist, r, n_moments, reduction, first_m,
                prec.s_vector, stop_m)
    return eta_global.T.copy()  # (R, M), as the serial/sim engines


def _worker_failure(
    errors: list[tuple[int, str, str]],
    exit_codes: list[int | None],
    stalled: bool,
    timed_out: bool,
    heartbeats: np.ndarray,
    timeouts: MpTimeouts,
    salvaged: KpmCheckpoint | None,
) -> WorkerFailure:
    """Assemble the structured failure for a dead/wedged world."""
    faults: list[WorkerFault] = []
    details: list[str] = []
    errored = set()
    for rank, kind, msg in errors:
        errored.add(rank)
        faults.append(WorkerFault(
            rank=rank, kind="stall" if kind == "stall" else "exception",
            detail=msg,
        ))
        details.append(f"rank {rank}: {msg}")
    dead = [
        i for i, c in enumerate(exit_codes)
        if c not in (0, 2) and i not in errored
    ]
    if dead:
        for i in dead:
            faults.append(WorkerFault(
                rank=i, kind="death", exit_code=exit_codes[i],
                detail=f"died with exit code {exit_codes[i]}",
            ))
        details.append(
            f"worker(s) {dead} died with exit codes "
            + str([exit_codes[i] for i in dead])
        )
    if stalled:
        suspect = int(np.argmin(heartbeats))
        faults.append(WorkerFault(
            rank=suspect, kind="stall",
            detail=f"no heartbeat progress within {timeouts.stall:.1f}s",
        ))
        details.append(
            f"no heartbeat progress within {timeouts.stall:.1f}s "
            f"(slowest: rank {suspect})"
        )
    if timed_out:
        faults.append(WorkerFault(
            rank=int(np.argmin(heartbeats)), kind="timeout",
            detail=f"run deadline of {timeouts.run:.1f}s expired",
        ))
        details.append(f"no progress within {timeouts.run:.0f}s")
    if not details:  # pragma: no cover - defensive
        details.append("unknown worker failure")
    return WorkerFailure(
        "multiprocess KPM run failed: " + "; ".join(details),
        failures=faults,
        resume_m=salvaged.next_m if salvaged is not None else None,
    )
