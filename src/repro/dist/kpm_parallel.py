"""Distributed KPM driver on the simulated SPMD world.

Executes the blocked (stage-2) KPM iteration over a row-partitioned
matrix exactly as the paper's heterogeneous production code does:

1. each rank assembles its send buffers ("the assembly of communication
   buffers ... only the elements which need to be transferred are
   copied", Section VI-A) and halo-exchanges the current block vector;
2. each rank runs the augmented SpMMV on its local rows (local + halo
   column layout), computing its partial dot products on the fly;
3. the per-iteration eta contributions are either reduced globally every
   iteration (the ``aug_spmmv()*`` variant of Table III) or accumulated
   locally and reduced **once at the very end** — "a careful
   implementation reduces the amount of global reductions in the dot
   products to a single one at the end of the inner loop" (Section II).

This is the only in-process blocked recurrence: a serial solve is the
same loop on a one-rank :class:`SimWorld` (no halo, no exchange, the
rank's block goes straight to the kernel), so its moments are *bitwise*
those of a one-rank :class:`~repro.dist.mp.MpWorld` and of the serial
entry points :func:`~repro.core.moments.compute_eta` and
:func:`~repro.core.checkpoint.checkpointed_eta`, which delegate here.
With more than one rank the moments equal the serial ones up to
floating-point reduction order, for any rank count and any weighting.

:func:`solve_eta` is the one dispatch every caller goes through: it
picks the engine (serial, sim, mp or elastic), builds the partition and
the world, and resolves ``threads='auto'`` (:func:`resolve_threads`).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.core.checkpoint import KpmCheckpoint, resolve_resume
from repro.core.moments import _check_moments, _check_start_storage
from repro.core.scaling import SpectralScale
from repro.dist.comm import SimWorld, log_allreduce
from repro.dist.halo import DistributedMatrix, partition_matrix
from repro.dist.partition import RowPartition, grid_blocks
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.resil.faults import FaultInjector, FaultPlan
from repro.sparse.backend import KernelBackend, get_backend
from repro.sparse.csr import CSRMatrix
from repro.sparse.fused import _col_dots, charge_col_dots
from repro.util.constants import DTYPE
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.errors import SimulationError
from repro.util.precision import Precision, get_precision
from repro.util.validation import check_block_vector


def _halo_exchange_into(
    world: SimWorld,
    dist: DistributedMatrix,
    local_vs: list[np.ndarray],
    xbufs: list[np.ndarray],
    phase: str,
) -> None:
    """Halo-exchange into each rank's preallocated ``x = [v_loc; halo]``.

    The first ``n_local`` rows of ``xbufs[rank]`` receive that rank's own
    block, the tail the halo rows from its neighbours, logging every
    message — no per-iteration buffer allocation.
    """
    for block in dist.blocks:
        xbuf = xbufs[block.rank]
        n_local = local_vs[block.rank].shape[0]
        xbuf[:n_local] = local_vs[block.rank]
        pos = n_local
        for src, cnt in zip(block.halo_sources.tolist(), block.halo_counts.tolist()):
            send_rows = dist.pattern.send_rows[(src, block.rank)]
            if send_rows.size != cnt:
                raise SimulationError("inconsistent halo pattern")
            buf = local_vs[src][send_rows, :]  # buffer assembly at the source
            xbuf[pos : pos + cnt] = world.send(src, block.rank, buf, phase)
            pos += cnt


def _prepare_run(
    A, partition, scale, n_moments, start_block, world, reduction, overlap,
    checkpoint_every, checkpoint_path, resume_from, precision, eta_grid,
    stop_m, metrics,
) -> tuple:
    """Validate a run and resolve its partition and resume state.

    Shared by the in-process rank loop and the mp engine, so both reject
    the same inputs with the same errors.  Returns ``(dist, prec,
    overlap, grid, half, r, first_m, ck, base_eta, start_block)``: the
    eta grid (0 = per-rank partials), the exclusive end of the
    inner-iteration range, and on resume the checkpoint and its eta
    prefix (spliced into the result verbatim).
    """
    from repro.dist.overlap import resolve_overlap

    _check_moments(n_moments)
    prec = get_precision(precision)
    overlap = resolve_overlap(overlap, world.n_ranks)
    if reduction not in ("end", "every"):
        raise ValueError(f"reduction must be 'end' or 'every', got {reduction!r}")
    if checkpoint_every and checkpoint_path is None:
        raise ValueError("checkpoint_every requires checkpoint_path")
    if isinstance(A, DistributedMatrix):
        dist = A
    else:
        if partition is None:
            raise ValueError("partition is required with a global matrix")
        dist = partition_matrix(A, partition)
    if world.n_ranks != dist.n_ranks:
        raise SimulationError(
            f"world has {world.n_ranks} ranks, partition has {dist.n_ranks}"
        )
    n = dist.n_global
    grid = int(eta_grid or 0)
    half = n_moments // 2 if stop_m is None else int(stop_m)
    if stop_m is not None and not 1 <= half <= n_moments // 2:
        raise ValueError(
            f"stop_m must be in [1, {n_moments // 2}], got {stop_m}"
        )
    if grid:
        if grid < 1:
            raise ValueError(f"eta_grid must be positive, got {eta_grid}")
        if reduction != "end":
            raise ValueError("eta_grid requires reduction='end'")
        if prec.half_vectors:
            raise ValueError(
                "eta_grid requires full-width vector storage (fp64/fp32); "
                f"got precision {prec.name!r}"
            )
        for blk in dist.blocks:
            if blk.row_start % grid:
                raise SimulationError(
                    f"rank {blk.rank} starts at row {blk.row_start}, not "
                    f"aligned to the eta grid of {grid} rows — build the "
                    f"partition with align={grid}"
                )
    if resume_from is None:
        start_block = check_block_vector("start_block", start_block, n)
        _check_start_storage(start_block, prec)
        return (dist, prec, overlap, grid, half, start_block.shape[1], 1,
                None, None, start_block)
    ck = resolve_resume(resume_from, n_moments, scale.a, scale.b, metrics,
                        prec, eta_grid=grid)
    if ck.v.shape[0] != n:
        raise SimulationError(
            f"checkpoint holds {ck.v.shape[0]} rows, matrix has {n}"
        )
    if ck.next_m > half:
        raise SimulationError(
            f"checkpoint resumes at m={ck.next_m}, beyond stop_m={half}"
        )
    base_eta = ck.eta[:, : 2 * ck.next_m].astype(DTYPE, copy=True)
    return (dist, prec, overlap, grid, half, ck.v.shape[1], ck.next_m, ck,
            base_eta, None)


def distributed_eta(
    A: CSRMatrix | DistributedMatrix,
    partition: RowPartition | None,
    scale: SpectralScale,
    n_moments: int,
    start_block: np.ndarray,
    world,
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
    precision: Precision | str | None = None,
    progress=None,
    progress_every: int = 0,
    threads: int | str | None = None,
    simd: str | None = None,
    eta_grid: int = 0,
    stop_m: int | None = None,
) -> np.ndarray:
    """The blocked (stage-2) eta recurrence on a row-partitioned world.

    The one in-process implementation: :func:`repro.core.moments.compute_eta`
    and :func:`repro.core.checkpoint.checkpointed_eta` run it as a
    one-rank :class:`SimWorld`, so on one rank it returns their bytes.

    Parameters
    ----------
    A:
        Global matrix (partitioned on the fly) or a pre-partitioned
        :class:`DistributedMatrix`.
    partition:
        Required when ``A`` is a global matrix; ignored otherwise.
    start_block:
        Global (N, R) start block; each rank gets its row slice.
    world:
        The communicator: a :class:`SimWorld` executes the rank loop
        sequentially in-process, a :class:`~repro.dist.mp.MpWorld` runs
        it in real worker processes over shared memory (same message
        accounting; same bytes per overlap schedule).  Must match the
        partition's rank count.  Against the serial engines the moments
        are bitwise equal on one rank and equal to reduction-order
        tolerance on more (the rank partials are summed at the end).
    reduction:
        ``'end'`` — one global reduction after the loop (the optimal
        scheme); ``'every'`` — reduce each iteration's dots immediately
        (the Table III ``aug_spmmv()*`` ablation).
    backend:
        Kernel backend for each rank's local augmented SpMMV (the fused
        block kernels accept the rectangular local+halo column layout,
        so native and numpy run the identical distributed algorithm).
    counters:
        Traffic/flop sink.  Every rank's kernel charges accumulate here
        (the mp engine merges per-worker counters in), so the numeric
        totals equal the serial run on the same problem — only the
        per-kernel ``calls`` tallies are rank-multiplied.
    metrics:
        Span registry.  The sim world records kernel spans inline plus,
        with more than one rank, ``halo_exchange``/``allreduce`` phase
        spans; the mp engine ships per-worker snapshots back and merges
        them ``rank<p>.``-prefixed.
    overlap:
        Task-mode pipelined schedule: ``True``/``'on'``, ``False``/
        ``'off'``, or ``'auto'``/None (on when the world has more than
        one rank).  Each rank updates its interior (halo-free) rows with
        the split kernels while the halo exchange is in flight, then
        finishes the boundary rows — in the mp engine the exchange is
        genuinely asynchronous (per-edge events, double-buffered
        windows); the sim world executes the same task-mode schedule
        sequentially, with *bitwise identical* moments (the per-phase
        eta partials are combined in the fixed order interior +
        boundary, making the result schedule-independent).
    checkpoint_every / checkpoint_path:
        With ``checkpoint_every = k > 0`` the global recurrence state is
        saved atomically to ``checkpoint_path`` after every k inner
        iterations (in the mp engine by the *parent*, which survives
        worker crashes).
    resume_from:
        A :class:`KpmCheckpoint` (or path) to continue from;
        ``start_block`` is then ignored (and may be None).  A resumed
        run is bitwise equal to an uninterrupted one on the same world
        type and partition.
    fault_plan / attempt:
        Optional :class:`~repro.resil.FaultPlan` injected at the same
        probe points in both engines (the sim world surfaces
        process-level faults as
        :class:`~repro.util.errors.FaultInjected`); ``attempt`` selects
        which of the plan's faults are armed.
    precision:
        Storage profile (:mod:`repro.util.precision`).  The halo
        exchange ships the profile's narrow vector storage — the wire
        bytes per exchanged row drop with ``s_vector`` exactly as the
        kernels' memory traffic does — and checkpoints record the
        profile (cross-precision resume is refused).
    progress / progress_every:
        Optional streaming callback ``progress(n_eta, eta_prefix)``
        fired after every ``progress_every`` iterations with the
        globally-reduced eta prefix of every column (the serve layer's
        partial-spectrum stream).  The sim world fires it inline; the
        mp engine fires it from the parent's checkpoint autosave, so it
        needs ``checkpoint_every > 0`` there.
    threads:
        Intra-rank thread count for the native threaded kernels (None =
        sequential kernels), resolved by :func:`resolve_threads`:
        ``'auto'`` budgets the host's cores across the ranks.  fp64
        results stay bitwise identical at every thread count, so
        mp == sim holds threaded or not.
    simd:
        Vectorized-kernel selector for the native backend
        (``None``/``'auto'``/``'on'``/``'off'``), applied uniformly on
        every rank.  fp64 results are bitwise identical either way, so
        the knob is invisible to the distributed contracts.
    eta_grid:
        ``B > 0`` switches the eta reduction to *grid mode*
        (:mod:`repro.dist.elastic`): the per-iteration dot products are
        recomputed per fixed global block of ``B`` rows (the kernels'
        fused per-rank dots are discarded) and the final reduction sums
        the ``ceil(N / B)`` block partials in block order.  The
        reduction order then depends only on ``(N, B)`` — never on the
        partition, rank count, schedule, or engine — which is what makes
        a mid-run repartition bitwise invisible.  Requires a
        ``B``-aligned partition, ``reduction='end'``, and a full-width
        storage profile (fp64/fp32).
    stop_m:
        Optional exclusive upper bound on the inner-iteration range: the
        run executes ``[first_m, stop_m)`` instead of ``[first_m, M/2)``
        and returns eta with only the columns ``[0, 2·stop_m)``
        meaningful.  The elastic driver runs a sequence of such segments
        — chained through boundary checkpoints — whose concatenation is
        bitwise equal to one uninterrupted run under grid mode.

    Returns
    -------
    eta:
        (R, M) complex, matching the serial engines.
    """
    from repro.dist.mp import MpWorld, mp_eta

    if isinstance(world, MpWorld):
        return mp_eta(
            A, partition, scale, n_moments, start_block, world,
            reduction=reduction, backend=backend, counters=counters,
            metrics=metrics, overlap=overlap,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path, resume_from=resume_from,
            fault_plan=fault_plan, attempt=attempt, precision=precision,
            progress=progress, progress_every=progress_every,
            threads=threads, simd=simd, eta_grid=eta_grid, stop_m=stop_m,
        )
    from repro.dist.overlap import task_split

    dist, prec, overlap, grid, half, r, first_m, ck, base_eta, start_block = \
        _prepare_run(A, partition, scale, n_moments, start_block, world,
                     reduction, overlap, checkpoint_every, checkpoint_path,
                     resume_from, precision, eta_grid, stop_m, metrics)
    threads = resolve_threads(threads, world.n_ranks)
    n = dist.n_global
    a, b = scale.a, scale.b
    bk = get_backend(backend)
    # One rank has no halo: its block goes straight to the kernel, with
    # no x = [v_loc; halo] copy and no exchange or reduction spans.
    comm = world.n_ranks > 1
    comm_metrics = metrics if comm else NULL_METRICS

    injectors = None
    if fault_plan is not None and fault_plan:
        injectors = [
            FaultInjector(fault_plan, rank=rank, attempt=attempt,
                          in_process=True)
            for rank in range(world.n_ranks)
        ]

    def probe_faults(m: int) -> None:
        if injectors is not None:
            for inj in injectors:
                inj.at_iteration(m)

    # Per-rank persistent state, sized once: the local block of the
    # current vector, the rectangular x = [v_loc; halo] kernel input, and
    # each rank's workspace plan for the fused kernel.
    def _to_storage(sl: np.ndarray) -> np.ndarray:
        """Private storage-dtype copy of a global-array row slice."""
        if sl.dtype == np.float16:
            return np.array(sl, copy=True, order="C")
        if prec.half_vectors:
            return prec.encode(sl)
        return sl.astype(prec.vector_dtype)

    if ck is not None:
        v_loc, w_loc = (
            [state[blk.row_start : blk.row_stop].astype(prec.vector_dtype)
             for blk in dist.blocks]
            for state in (ck.v, ck.w)
        )
    else:
        v_loc = [
            _to_storage(start_block[blk.row_start : blk.row_stop, :])
            for blk in dist.blocks
        ]
    xbufs = [
        np.empty(prec.vec_shape(blk.matrix.n_cols, r),
                 dtype=prec.vector_dtype)
        for blk in dist.blocks
    ] if comm else None

    def kernel_inputs(phase: str) -> list[np.ndarray]:
        """Each rank's kernel input for the current ``v_loc``."""
        if not comm:
            return v_loc
        with metrics.span("halo_exchange", phase="dist"):
            _halo_exchange_into(world, dist, v_loc, xbufs, phase=phase)
        return xbufs

    plans = [
        bk.plan(blk.matrix, r, precision=prec, threads=threads,
                simd=simd)
        for blk in dist.blocks
    ]
    # Task mode runs the same update as interior + boundary split phases:
    # the interior rows reference local columns only, so the values are
    # independent of when the halo tail of x landed — bitwise what the mp
    # engine's genuinely overlapped schedule computes.
    step, step_plans = bk.aug_spmmv_step, plans
    if overlap:
        step = bk.aug_spmmv_split_step
        step_plans = [
            bk.split_plan(blk.matrix, task_split(blk), r, precision=prec,
                          threads=threads, simd=simd)
            for blk in dist.blocks
        ]
    # Grid mode accumulates one eta partial per global row block instead
    # of one per rank — ceil(N / B) slots whose axis-0 sum is the fixed
    # partition-independent reduction order.
    n_slots = -(-n // grid) if grid else world.n_ranks
    gblocks = (
        [grid_blocks(blk.row_start, blk.row_stop, grid)
         for blk in dist.blocks]
        if grid else None
    )
    eta_acc = np.zeros((n_slots, n_moments, r), dtype=DTYPE)

    def reduced_prefix(m: int, width: int) -> np.ndarray:
        """(r, width) eta whose first 2(m+1) columns are the globally
        reduced prefix after iteration m, the resumed part verbatim."""
        out = np.zeros((r, width), dtype=DTYPE)
        col0 = 0 if base_eta is None else 2 * first_m
        if base_eta is not None:
            out[:, :col0] = base_eta
        out[:, col0 : 2 * m + 2] = eta_acc[:, col0 : 2 * m + 2].sum(axis=0).T
        return out

    def reduce_iteration(m: int) -> None:
        """The ``reduction='every'`` ablation: allreduce m's two columns."""
        if reduction == "every":
            with comm_metrics.span("allreduce", phase="dist"):
                for col in (2 * m, 2 * m + 1):
                    world.allreduce_sum(list(eta_acc[:, col]),
                                        phase="allreduce_iter")

    def save_checkpoint(m: int) -> None:
        # State after iteration m: (v, w) post-step, eta prefix reduced.
        eta_full = reduced_prefix(m, n_moments)
        with metrics.span("checkpoint_save", phase="ckpt") as sp:
            saved = KpmCheckpoint(
                v=np.concatenate(v_loc, axis=0),
                w=np.concatenate(w_loc, axis=0),
                eta=eta_full, next_m=m + 1, n_moments=n_moments, a=a, b=b,
                precision=prec.name, eta_grid=grid,
            ).save(checkpoint_path)
            sp.note(file_bytes=saved.stat().st_size, next_m=m + 1)

    if ck is None:
        # nu_1 = a (H nu_0 - b nu_0), distributed
        probe_faults(0)
        xs = kernel_inputs("halo_init")
        w_loc = []
        for rank, (blk, v, x, plan) in enumerate(
            zip(dist.blocks, v_loc, xs, plans)
        ):
            w_loc.append(bk.spmmv(blk.matrix, x, counters=counters,
                                  metrics=metrics))
            u = w_loc[rank]
            if prec.half_vectors:
                # one-off fp32 recombination through the plan's decode
                # scratch, rounded back to half storage below; the
                # bootstrap dots read the pre-rounding fp32 values,
                # exactly as the per-step kernels accumulate theirs in
                # registers
                v = prec.decode(v, out=plan.vc[: blk.n_local])
                u = prec.decode(u, out=plan.wc)
            np.multiply(v, b, out=plan.work_block)
            u -= plan.work_block
            u *= a
            # grid mode: the same _col_dots kernel on each contiguous
            # block slice, so the values depend only on the block's rows
            for k, sl in gblocks[rank] if grid else ((rank, slice(None)),):
                eta_acc[k, 0], eta_acc[k, 1] = _col_dots(v[sl], u[sl])
            if prec.half_vectors:
                prec.encode(u, out=w_loc[rank])
        reduce_iteration(0)

    for m in range(first_m, half):
        probe_faults(m)
        v_loc, w_loc = w_loc, v_loc
        xs = kernel_inputs("halo")
        for rank, blk in enumerate(dist.blocks):
            # The rectangular fused kernel runs the update and the dots
            # over the first n_local rows of x — the rank's partial etas.
            ee, eo = step(
                blk.matrix, xs[rank], w_loc[rank], a, b,
                plan=step_plans[rank], counters=counters, metrics=metrics,
            )
            if grid:
                # Discard the kernel's fused per-rank dots and recompute
                # per global block: the extra pass is charged explicitly
                # (linear in rows, so the total is partition independent)
                # and the block partials make eta order-invariant under
                # repartitioning.
                vv, ww = v_loc[rank], w_loc[rank]
                for k, sl in gblocks[rank]:
                    eta_acc[k, 2 * m], eta_acc[k, 2 * m + 1] = _col_dots(
                        vv[sl], ww[sl]
                    )
                charge_col_dots(vv.shape[0], r, counters, prec=prec)
            else:
                eta_acc[rank, 2 * m] = ee
                eta_acc[rank, 2 * m + 1] = eo
        reduce_iteration(m)
        if progress is not None and progress_every > 0 \
                and (m - first_m + 1) % progress_every == 0:
            progress(2 * (m + 1), reduced_prefix(m, 2 * (m + 1)))
        if checkpoint_every and (m - first_m + 1) % checkpoint_every == 0:
            save_checkpoint(m)

    # final reduction over ranks: one collective for the whole eta array
    with comm_metrics.span("allreduce", phase="dist"):
        if grid or stop_m is not None:
            # Grid mode: the K block partials are summed in block order
            # (NumPy's axis-0 reduce is sequential in k per element) —
            # the canonical reduction whose order depends only on (N, B).
            # The wire cost is still one P-rank allreduce of the columns
            # this run computed, logged explicitly because the slot axis
            # no longer matches the rank count.
            eta_global = eta_acc.sum(axis=0)
            itemsize = np.dtype(DTYPE).itemsize
            cols = (
                n_moments if stop_m is None
                else (2 * half if first_m == 1 else 2 * (half - first_m))
            )
            if cols:
                log_allreduce(world.log, world.n_ranks, cols * r * itemsize,
                              "allreduce_final")
        else:
            eta_global = world.allreduce_sum(
                [eta_acc[rank] for rank in range(world.n_ranks)],
                phase="allreduce_final",
            )
    if first_m > 1:
        # Splice the checkpointed prefix in verbatim (never re-reduced),
        # matching the mp engine's resumed composition bitwise.
        eta_global[: 2 * first_m] = base_eta.T
    return eta_global.T.copy()  # (R, M)


def resolve_threads(threads: int | str | None, n_ranks: int) -> int | None:
    """The one intra-rank thread rule.

    ``None`` keeps the sequential kernels, an int is used as given (at
    least 1), and ``'auto'`` budgets the host's cores across the ranks,
    ``max(1, cores // n_ranks)`` — the paper's one-process-per-socket
    hybrid.  A serial solve is one rank, so it gets the whole machine.
    """
    if threads is None:
        return None
    if threads == "auto":
        return max(1, (os.cpu_count() or 1) // n_ranks)
    return max(1, int(threads))


def rank_partition(
    n_rows: int, workers: int = 1, weights=None, align: int = 4
) -> RowPartition:
    """The row partition of a solve, aligned to ``align`` rows.

    With ``weights`` there is one rank per weight, whatever ``workers``
    says — the world is always sized from the partition — otherwise
    ``workers`` equal blocks.
    """
    if weights is not None:
        return RowPartition.from_weights(n_rows, list(weights), align=align)
    return RowPartition.equal(n_rows, workers, align=align)


def solve_eta(
    H,
    scale: SpectralScale,
    n_moments: int,
    start_block: np.ndarray | None,
    *,
    engine: str | None = "serial",
    workers: int = 1,
    weights=None,
    rebalance=None,
    membership=None,
    mp_timeouts=None,
    attempt_deadline: float | None = None,
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
    precision: Precision | str | None = None,
    progress=None,
    progress_every: int = 0,
    threads: int | str | None = None,
    simd: str | None = None,
):
    """Run one blocked eta solve on the chosen engine.

    The single place that decides how a solve executes:

    * **engine** — ``'serial'``/None is a one-rank :class:`SimWorld`
      (``workers``, ``weights`` and ``overlap`` do not apply), ``'sim'``
      the in-process rank loop, ``'mp'`` real worker processes, and
      ``'mp'`` with a ``rebalance`` policy the elastic driver
      (:func:`repro.dist.elastic.elastic_eta`);
    * **partition** — :func:`rank_partition`, aligned to 4 rows (the TI
      spinor blocks) or to the policy's eta grid under ``rebalance``,
      which also switches on grid-eta reduction so every engine returns
      the same fp64 bits;
    * **world** — sized from the partition; an mp world gets
      ``mp_timeouts``, or a whole-run budget of ``attempt_deadline``
      seconds when only that is given;
    * **threads** — :func:`resolve_threads` for the world's rank count
      (applied by the engine that runs the world).

    ``H`` is a CSR or SELL operator (SELL runs serially only) or, for
    the distributed engines, a pre-partitioned :class:`DistributedMatrix`.
    The other keywords are :func:`distributed_eta`'s.  Returns
    ``(eta, world, elastic_report)``; ``world`` is None after an elastic
    run (each segment had its own) and ``elastic_report`` is None
    otherwise.
    """
    engine = engine or "serial"
    if engine not in ("serial", "sim", "mp"):
        raise ValueError(
            f"engine must be 'serial', 'sim' or 'mp', got {engine!r}"
        )
    if engine == "mp" and rebalance is not None:
        from repro.dist.elastic import elastic_eta

        eta, report = elastic_eta(
            H, scale, n_moments, start_block,
            n_workers=len(weights) if weights is not None else workers,
            weights=weights, policy=rebalance, membership=membership,
            engine="mp", backend=backend, counters=counters,
            metrics=metrics, overlap=overlap, fault_plan=fault_plan,
            attempt=attempt, precision=precision, threads=threads,
            simd=simd, checkpoint_path=checkpoint_path,
            resume_from=resume_from,
        )
        return eta, None, report
    grid = 0 if rebalance is None else rebalance.grid
    if isinstance(H, DistributedMatrix):
        part = H.partition
    elif engine == "serial":
        part, overlap = rank_partition(H.n_rows), False
    else:
        part = rank_partition(H.n_rows, workers, weights, align=grid or 4)
    if engine == "mp":
        from repro.dist.mp import MpTimeouts, MpWorld

        if mp_timeouts is None and attempt_deadline is not None:
            mp_timeouts = MpTimeouts(run=attempt_deadline)
        world = MpWorld(part.n_ranks, timeouts=mp_timeouts)
    else:
        world = SimWorld(part.n_ranks)
    eta = distributed_eta(
        H, part, scale, n_moments, start_block, world,
        reduction=reduction, backend=backend, counters=counters,
        metrics=metrics, overlap=overlap,
        checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
        resume_from=resume_from, fault_plan=fault_plan, attempt=attempt,
        precision=precision, progress=progress,
        progress_every=progress_every, threads=threads, simd=simd,
        eta_grid=grid,
    )
    return eta, world, None


def distributed_dos(
    A: CSRMatrix | DistributedMatrix,
    partition: RowPartition | None,
    n_moments: int,
    n_vectors: int,
    world,
    *,
    scale: SpectralScale | None = None,
    seed: int | None = None,
    kernel: str = "jackson",
    n_points: int | None = None,
    reduction: str = "end",
    backend: KernelBackend | str = "auto",
    counters: PerfCounters = NULL_COUNTERS,
    metrics: MetricsRegistry = NULL_METRICS,
    overlap: bool | str | None = False,
    precision: Precision | str | None = None,
    threads: int | str | None = None,
    simd: str | None = None,
):
    """Full distributed KPM-DOS application: the paper's production code.

    Estimates the spectral map (Lanczos on the global operator), draws
    the stochastic block, runs the distributed blocked solver on the
    world's ranks, and reconstructs rho(E). Returns a
    :class:`repro.core.solver.DOSResult` whose moments are those of the
    serial :class:`~repro.core.solver.KPMSolver` with the same seed and
    scale: bit for bit on one rank, to reduction-order tolerance on more
    (the per-rank eta partials are summed in a different order).
    """
    from repro.core.scaling import lanczos_scale
    from repro.core.solver import dos_result_from_moments
    from repro.core.stochastic import make_block_vector

    split = isinstance(A, DistributedMatrix)
    if scale is None:
        if split:
            raise ValueError(
                "pass an explicit scale when starting from a "
                "DistributedMatrix (the global operator is unavailable)"
            )
        scale = lanczos_scale(A, seed=seed)
    block = make_block_vector(A.n_global if split else A.n_rows, n_vectors,
                              seed=seed)
    mu = distributed_dos_moments(
        A, partition, scale, n_moments, block, world, reduction=reduction,
        backend=backend, counters=counters, metrics=metrics, overlap=overlap,
        precision=precision, threads=threads, simd=simd,
    )
    return dos_result_from_moments(mu, scale, kernel=kernel,
                                   n_vectors=n_vectors, n_points=n_points)


def distributed_dos_moments(
    A: CSRMatrix | DistributedMatrix,
    partition: RowPartition | None,
    scale: SpectralScale,
    n_moments: int,
    start_block: np.ndarray,
    world,
    *,
    reduction: str = "end",
    backend: KernelBackend | str = "auto",
    counters: PerfCounters = NULL_COUNTERS,
    metrics: MetricsRegistry = NULL_METRICS,
    overlap: bool | str | None = False,
    precision: Precision | str | None = None,
    threads: int | str | None = None,
    simd: str | None = None,
) -> np.ndarray:
    """Distributed stochastic-trace moments (mean over the R vectors)."""
    from repro.core.moments import eta_to_moments

    eta = distributed_eta(
        A, partition, scale, n_moments, start_block, world, reduction=reduction,
        backend=backend, counters=counters, metrics=metrics, overlap=overlap,
        precision=precision, threads=threads, simd=simd,
    )
    return eta_to_moments(eta).mean(axis=0).real
