"""Request coalescing: stack concurrent solves into one wide block.

This is the serving-layer application of the paper's central
optimization.  Eq. 5-7 show that the blocked ``aug_spmmv`` kernel pays
the matrix stream (values + indices, the dominant traffic at KPM's
code balance) *once per iteration regardless of the block width*; only
the thin vector streams scale with the width.  Inside one solve that
amortization is the R-loop blocking of Sec. IV; across *users* it means
k concurrent requests against the same operator should never run k
separate recurrences — the coalescer concatenates their start columns
into one block, runs one wide solve, and slices each requester's
columns back out.

Correctness rests on a property the kernels guarantee (enforced by the
``REPRO_NOVEC`` pragmas in ``_kernels.c`` and the width-stable fp64
dot path, tested in ``tests/serve/test_coalesce_parity.py``): every
column of a block solve is computed independently and rounds
identically to a solo run of that column.  Under fp64 the coalesced
moments are *bitwise* the solo moments; the narrow profiles agree to
accumulation tolerance.

Batches are planned over the compatibility ``group_key`` (operator +
M + precision + spectral map) up to ``max_width`` columns, executed on
the configured engine (serial / sim / mp, optionally under a fresh
batch-scoped :class:`~repro.resil.Supervisor`), accounted with a
per-batch :class:`~repro.util.counters.PerfCounters` (whose totals
match :func:`~repro.perf.report.expected_counters` exactly), and
streamed: each progress firing publishes every member request's moment
prefix to its ticket and the moment cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.moments import eta_to_moments
from repro.core.stochastic import make_block_vector, unit_block_vector
from repro.obs import NULL_METRICS
from repro.serve.queue import Ticket
from repro.util.counters import PerfCounters

__all__ = ["Batch", "BatchItem", "execute_batch", "plan_batches"]


@dataclass
class BatchItem:
    """One request's slot in a coalesced batch: its column range."""

    ticket: Ticket
    col0: int
    col1: int

    @property
    def width(self) -> int:
        return self.col1 - self.col0


@dataclass
class Batch:
    """A set of compatible requests solved as one wide block."""

    group_key: str
    items: list[BatchItem] = field(default_factory=list)
    #: the communicator of the batch's solve (leak checks, per-rank
    #: accounting; a one-rank SimWorld for serial batches); None after
    #: an elastic solve
    world: object = None
    #: the :class:`~repro.dist.elastic.ElasticReport` of an elastic
    #: batch solve (rebalance enabled); None otherwise
    elastic_report: object = None

    @property
    def width(self) -> int:
        return sum(i.width for i in self.items)

    @property
    def n_requests(self) -> int:
        return len(self.items)


def plan_batches(tickets: list[Ticket], max_width: int = 8) -> list[Batch]:
    """Group urgency-ordered tickets into batches of compatible requests.

    Greedy fill per ``group_key`` up to ``max_width`` total columns; a
    single request wider than ``max_width`` gets a batch of its own
    (never split — its columns must stay one contiguous solve).  Batch
    execution order follows the most urgent member of each group, so
    coalescing never starves a high-priority tenant behind an unrelated
    group.
    """
    if max_width < 1:
        raise ValueError(f"max_width must be >= 1, got {max_width}")
    open_by_group: dict[str, Batch] = {}
    batches: list[Batch] = []
    for t in tickets:
        w = t.request.width
        batch = open_by_group.get(t.group_key)
        if batch is not None and batch.width + w > max_width:
            batch = None  # full: start a fresh batch for this group
            open_by_group.pop(t.group_key, None)
        if batch is None:
            batch = Batch(group_key=t.group_key)
            batches.append(batch)
            if w < max_width:
                open_by_group[t.group_key] = batch
        col0 = batch.width
        batch.items.append(BatchItem(t, col0, col0 + w))
        if batch.width >= max_width:
            open_by_group.pop(t.group_key, None)
    return batches


def _start_columns(request, n: int) -> np.ndarray:
    """The request's deterministic (n, width) start columns."""
    if request.kind == "ldos":
        return unit_block_vector(n, np.asarray(request.rows, dtype=np.int64))
    return make_block_vector(
        n, request.n_vectors, request.vector_kind, request.seed
    )


def stack_start_block(batch: Batch, n: int) -> np.ndarray:
    """Concatenate every item's start columns into one C-contiguous
    (n, batch.width) block, in item (column-slot) order."""
    cols = [_start_columns(i.ticket.request, n) for i in batch.items]
    return np.ascontiguousarray(np.concatenate(cols, axis=1))


def slice_moments(batch: Batch, eta_prefix: np.ndarray):
    """Per-item moment prefixes of a (width, n_eta) eta slab.

    Yields ``(item, mu)`` where ``mu`` is the request's own view of the
    doubled moments: the column-mean real trace for DOS, the per-row
    real diagonal moments for LDOS.  Slicing first keeps each request's
    values bitwise independent of its neighbours' columns.
    """
    for item in batch.items:
        rows = eta_to_moments(eta_prefix[item.col0:item.col1])
        if item.ticket.request.kind == "dos":
            yield item, rows.mean(axis=0).real
        else:
            yield item, rows.real


def _run_eta(H, scale, n_moments, block, *, engine, backend, workers,
             weights, overlap, precision, threads, simd, resilience,
             counters, metrics, seed, progress, progress_every,
             rebalance=None, membership=None):
    """One batch eta solve on the configured engine.

    Returns ``(eta, resilience_report, world, elastic_report)`` — the
    last two are None on paths that do not produce them.
    """
    run = dict(
        engine=engine or "serial", workers=workers, weights=weights,
        backend=backend, overlap=overlap, precision=precision,
        threads=threads, simd=simd, progress=progress,
        progress_every=progress_every,
    )
    if resilience is not None:
        from repro.resil import Supervisor

        # A fresh Supervisor per batch scopes retries, checkpoints and
        # degradation to this batch alone: a crash mid-batch replays or
        # degrades *these* columns and never touches other batches'
        # already-delivered results.
        sup = Supervisor.from_config(
            resilience, metrics=metrics, counters=counters, seed=seed
        )
        if rebalance is not None:
            sup.rebalance = rebalance
            sup.membership = membership or sup.membership
        eta = sup.run_eta(H, scale, n_moments, block, **run)
        return eta, sup.report, sup.last_world, sup.last_elastic_report
    from repro.dist.kpm_parallel import solve_eta

    # An elastic server runs its sim and serial batches in grid-eta mode
    # too, so a later switch to mp (or an elastic mp batch of the same
    # problem) returns byte-identical moments.
    eta, world, erep = solve_eta(
        H, scale, n_moments, block, rebalance=rebalance,
        membership=membership, counters=counters, metrics=metrics, **run,
    )
    return eta, None, world, erep


def execute_batch(
    batch: Batch,
    H,
    scale,
    *,
    engine: str | None = None,
    backend="auto",
    workers: int = 2,
    weights=None,
    overlap: bool | str | None = "auto",
    precision=None,
    threads: int | str | None = None,
    simd: str | None = None,
    resilience=None,
    metrics=NULL_METRICS,
    seed: int | None = None,
    stream_every: int = 0,
    on_partial=None,
    rebalance=None,
    membership=None,
) -> tuple[np.ndarray, PerfCounters]:
    """Run one coalesced batch; return ``(eta, batch_counters)``.

    The batch's traffic is accounted in a fresh per-batch
    :class:`PerfCounters` so the amortization is measurable request by
    request: for a serial width-w batch the totals equal
    ``expected_counters(H, M, w)`` *exactly*, and
    ``bytes_total / n_requests`` is the per-request traffic that
    Eq. 5-7 predict falls with the width.  Recorded distributions:
    ``serve.batch.width`` (columns), ``serve.batch.requests``,
    ``serve.bytes_per_request`` and ``serve.bytes_per_column``.

    ``on_partial(item, n_done, mu_prefix)`` fires for every member at
    every streamed prefix (requires ``stream_every > 0``; the mp engine
    additionally needs checkpointing in ``resilience`` to stream).

    ``threads`` is forwarded to every execution path unchanged; because
    the threaded fp64 kernels are bitwise invariant across thread
    counts, a threaded batch returns the exact bytes a sequential one
    would — coalescing stays invisible at any thread count.  ``simd``
    rides the same rail with the same guarantee: the vectorized fp64
    kernels are bitwise equal to the scalar ones.

    ``rebalance`` (a resolved :class:`~repro.dist.elastic.RebalancePolicy`
    or None) turns mp batches into elastic solves and sim batches into
    grid-eta solves; the resulting :class:`ElasticReport` lands on
    ``batch.elastic_report`` so the server can carry learned weights
    into the next batch.  ``membership`` is a
    :class:`~repro.dist.elastic.MembershipPlan` applied per batch.
    """
    n_moments = batch.items[0].ticket.request.n_moments
    block = stack_start_block(batch, H.n_rows)
    counters = PerfCounters()

    progress = None
    if on_partial is not None and stream_every > 0:
        def progress(n_eta: int, eta_prefix: np.ndarray) -> None:
            for item, mu in slice_moments(batch, eta_prefix):
                on_partial(item, n_eta, mu)

    with metrics.span("serve.batch", phase="serve", counters=counters,
                      width=batch.width, requests=batch.n_requests):
        eta, report, batch.world, batch.elastic_report = _run_eta(
            H, scale, n_moments, block, engine=engine, backend=backend,
            workers=workers, weights=weights, overlap=overlap,
            precision=precision, threads=threads, simd=simd,
            resilience=resilience,
            counters=counters, metrics=metrics, seed=seed,
            progress=progress, progress_every=stream_every,
            rebalance=rebalance, membership=membership,
        )
    metrics.observe("serve.batch.width", batch.width)
    metrics.observe("serve.batch.requests", batch.n_requests)
    if counters.enabled and counters.bytes_total:
        metrics.observe(
            "serve.bytes_per_request", counters.bytes_total / batch.n_requests
        )
        metrics.observe(
            "serve.bytes_per_column", counters.bytes_total / batch.width
        )
    if report is not None:
        metrics.count("serve.batch.retries", report.retries)
        metrics.count("serve.batch.degradations", report.engine_degradations)
    if batch.elastic_report is not None:
        metrics.count("serve.batch.rebalances", batch.elastic_report.rebalances)
    return eta, counters
