"""The resilience supervisor: retries, recovery, graceful degradation.

At the paper's headline scale (1024 nodes, Section VII) component
failure is the expected case; the KPM's structure makes it cheap to
survive, because the stochastic trace is a sum of independent Chebyshev
recurrences whose state (two block vectors + the eta prefix) checkpoints
in O(N·R) bytes.  The :class:`Supervisor` wraps every execution engine
with that observation:

1. run an attempt (mp / sim / serial engine, any kernel backend);
2. on failure, *classify* it — worker death, stall, corrupt checkpoint,
   backend failure — and record it through the observability layer;
3. retry under a declarative :class:`~repro.resil.policy.RetryPolicy`,
   resuming from the latest atomic :class:`KpmCheckpoint` instead of
   restarting from m=0;
4. when an engine keeps failing, degrade along ``mp → sim → serial``
   (and ``native → numpy`` for backend-classified failures) rather than
   give up.

Invariant (asserted by ``tests/resil/``): recovery never changes
numerics — a resumed run is bitwise equal to an uninterrupted one on the
same engine, because the checkpoint is an exact snapshot of the
recurrence state and the moment prefix.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.checkpoint import KpmCheckpoint, _npz_path
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.resil.faults import (
    FaultPlan,
    as_fault_plan,
    corrupt_checkpoint_file,
)
from repro.resil.policy import RetryPolicy
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.errors import (
    BackendError,
    CheckpointError,
    FaultInjected,
    ReproError,
    RetryExhaustedError,
    WorkerFailure,
)

#: Degradation ladders: the engines tried, in order, starting from the
#: one the caller asked for.  ``sim`` replays the identical data-parallel
#: schedule sequentially (no processes to die), ``serial`` runs the same
#: loop on a one-rank world.
ENGINE_LADDERS = {
    "mp": ("mp", "sim", "serial"),
    "sim": ("sim", "serial"),
    "serial": ("serial",),
}

#: Error classes the supervisor distinguishes (reported per class).
ERROR_CLASSES = (
    "worker_death", "stall", "worker_exception", "checkpoint", "backend",
    "engine", "unknown",
)


def classify_error(exc: BaseException) -> str:
    """Map an attempt's exception onto one of :data:`ERROR_CLASSES`."""
    if isinstance(exc, CheckpointError):
        return "checkpoint"
    if isinstance(exc, BackendError):
        return "backend"
    if isinstance(exc, WorkerFailure):
        kinds = exc.kinds
        if "stall" in kinds or "timeout" in kinds:
            return "stall"
        if "death" in kinds:
            return "worker_death"
        if "exception" in kinds:
            return "worker_exception"
        return "engine"
    if isinstance(exc, FaultInjected):
        return "stall" if exc.kind == "stall" else "worker_exception"
    if isinstance(exc, ReproError):
        return "engine"
    return "unknown"


@dataclass
class AttemptRecord:
    """One failed attempt, as recorded in the resilience report."""

    attempt: int
    engine: str
    backend: str
    error_class: str
    detail: str
    resumed_from: int | None = None


@dataclass
class ResilienceReport:
    """What faulted, what retried, and what the recovery cost."""

    attempts: list[AttemptRecord] = field(default_factory=list)
    faults: int = 0
    retries: int = 0
    resumes: int = 0
    resume_m: int | None = None
    engine_degradations: int = 0
    backend_degradations: int = 0
    checkpoint_discards: int = 0
    final_engine: str | None = None
    final_backend: str | None = None
    # elastic execution (populated when a RebalancePolicy is active)
    elastic_segments: int = 0
    rebalances: int = 0
    membership_joins: int = 0
    membership_leaves: int = 0

    def summary(self) -> str:
        """One human-readable line for CLI output."""
        elastic = ""
        if self.elastic_segments:
            elastic = (
                f"; elastic: {self.elastic_segments} segment(s), "
                f"{self.rebalances} rebalance(s), "
                f"{self.membership_joins} join(s), "
                f"{self.membership_leaves} leave(s)"
            )
        if not self.faults:
            return (
                f"resilience: clean first attempt "
                f"(engine={self.final_engine}, backend={self.final_backend})"
                + elastic
            )
        classes = ", ".join(
            sorted({a.error_class for a in self.attempts})
        )
        bits = [
            f"resilience: {self.faults} fault(s) [{classes}]",
            f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}",
        ]
        if self.resumes:
            bits.append(f"resumed from checkpoint at m={self.resume_m}")
        if self.engine_degradations:
            bits.append(f"degraded engine {self.engine_degradations}x")
        if self.backend_degradations:
            bits.append("degraded backend native->numpy")
        bits.append(
            f"finished on engine={self.final_engine} backend={self.final_backend}"
        )
        return ", ".join(bits) + elastic


@dataclass
class Resilience:
    """Declarative resilience configuration for :class:`KPMSolver`.

    Handed to ``KPMSolver(resilience=...)`` (or built by the CLI from
    ``--retries/--fault-plan/--checkpoint-every/--degrade``); the solver
    constructs a :class:`Supervisor` from it per run.
    """

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    checkpoint_every: int = 0
    checkpoint_path: str | Path | None = None
    degrade: bool = True
    fault_plan: FaultPlan | str | None = None
    mp_timeouts: object | None = None  # repro.dist.mp.MpTimeouts
    #: elastic execution: 'off'/None, 'auto'/True, a threshold, or a
    #: repro.dist.elastic.RebalancePolicy (see resolve_rebalance)
    rebalance: object = None
    #: planned membership events, e.g. 'join:m=8;leave:m=16,rank=0'
    membership: object = None


class Supervisor:
    """Runs one eta computation to completion despite faults.

    Parameters mirror :class:`Resilience`; ``metrics``/``counters`` are
    the run's observability sinks (every fault, retry, resume, and
    degradation lands there), ``seed`` keys the deterministic backoff
    jitter, and ``sleep`` is injectable for tests.
    """

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        *,
        degrade: bool = True,
        checkpoint_every: int = 0,
        checkpoint_path: str | Path | None = None,
        fault_plan: FaultPlan | str | None = None,
        mp_timeouts=None,
        rebalance=None,
        membership=None,
        metrics: MetricsRegistry = NULL_METRICS,
        counters: PerfCounters = NULL_COUNTERS,
        seed: int | None = None,
        sleep=time.sleep,
    ) -> None:
        from repro.dist.elastic import resolve_rebalance

        self.policy = policy or RetryPolicy()
        self.degrade = bool(degrade)
        self.checkpoint_every = int(checkpoint_every)
        self.checkpoint_path = checkpoint_path
        self.fault_plan = as_fault_plan(fault_plan, seed=seed or 0)
        self.mp_timeouts = mp_timeouts
        self.rebalance = resolve_rebalance(rebalance)
        self.membership = membership
        #: ElasticReport of the most recent elastic mp attempt (or None)
        self.last_elastic_report = None
        self.metrics = metrics
        self.counters = counters
        self.seed = 0 if seed is None else int(seed)
        self._sleep = sleep
        self.report = ResilienceReport()
        #: communicator of the most recent distributed attempt (or None)
        self.last_world = None

    @classmethod
    def from_config(
        cls,
        config: Resilience,
        *,
        metrics: MetricsRegistry = NULL_METRICS,
        counters: PerfCounters = NULL_COUNTERS,
        seed: int | None = None,
    ) -> "Supervisor":
        return cls(
            config.policy,
            degrade=config.degrade,
            checkpoint_every=config.checkpoint_every,
            checkpoint_path=config.checkpoint_path,
            fault_plan=config.fault_plan,
            mp_timeouts=config.mp_timeouts,
            rebalance=config.rebalance,
            membership=config.membership,
            metrics=metrics,
            counters=counters,
            seed=seed,
        )

    # ------------------------------------------------------------------
    def run_eta(
        self,
        H,
        scale,
        n_moments: int,
        start_block: np.ndarray,
        *,
        engine: str | None = "serial",
        workers: int = 2,
        weights: list[float] | None = None,
        backend="auto",
        reduction: str = "end",
        overlap: bool | str | None = False,
        precision=None,
        threads: int | str | None = None,
        simd: str | None = None,
        progress=None,
        progress_every: int = 0,
    ) -> np.ndarray:
        """Compute eta under supervision; the engine's usual return value.

        ``precision`` selects the storage profile and is threaded through
        every rung of the degradation ladder unchanged — a retry or an
        engine fallback never silently widens (or narrows) the run.
        ``threads`` rides the same rail: the intra-rank kernel thread
        count survives retries and engine fallbacks, and fp64 results are
        bitwise identical at every setting, so a mid-run degradation
        never perturbs the moments.  ``simd`` (the native backend's
        vectorized-kernel selector) rides the very same rail with the
        very same bitwise guarantee.

        ``progress``/``progress_every`` stream partial eta prefixes as
        each engine exposes them (see :func:`checkpointed_eta` and
        :func:`distributed_eta`); a retry simply re-streams from wherever
        the resumed attempt picks up.

        Raises :class:`~repro.util.errors.RetryExhaustedError` only after
        every attempt on every remaining ladder rung has failed.
        """
        engine = engine or "serial"
        if engine not in ENGINE_LADDERS:
            raise ValueError(
                f"engine must be one of {sorted(ENGINE_LADDERS)}, got {engine!r}"
            )
        ladder = ENGINE_LADDERS[engine] if self.degrade else (engine,)
        from repro.dist.kpm_parallel import solve_eta

        every = self.checkpoint_every
        ckpt_path = self.checkpoint_path
        own_dir: Path | None = None
        if every > 0 and ckpt_path is None:
            own_dir = Path(tempfile.mkdtemp(prefix="repro-resil-"))
            ckpt_path = own_dir / "attempt.npz"

        backend_cur = backend
        history: list[tuple] = []
        attempt = 0
        last_exc: Exception | None = None
        try:
            for rung, eng in enumerate(ladder):
                if rung > 0:
                    self.report.engine_degradations += 1
                    self.metrics.count("resil.engine_degraded")
                for _ in range(self.policy.max_attempts):
                    attempt += 1
                    if attempt > 1:
                        self.report.retries += 1
                        self.metrics.count("resil.retries")
                        delay = self.policy.backoff(attempt - 1, seed=self.seed)
                        if delay > 0:
                            self._sleep(delay)
                    resume = self._prepare_resume(ckpt_path, attempt)
                    try:
                        with self.metrics.span(
                            "resil.attempt", phase="resil", engine=eng,
                            attempt=attempt,
                            resumed_from=(resume.next_m if resume else None),
                        ):
                            # Under a rebalance policy the mp rung is the
                            # elastic driver (worker deaths re-partition
                            # inside the attempt) and the sim and serial
                            # rungs replay its grid-eta reduction, so a
                            # degradation keeps the fp64 moments bitwise.
                            eta, self.last_world, elastic = solve_eta(
                                H, scale, n_moments, start_block, engine=eng,
                                workers=workers, weights=weights,
                                rebalance=self.rebalance,
                                membership=self.membership,
                                mp_timeouts=self.mp_timeouts,
                                attempt_deadline=self.policy.attempt_deadline,
                                reduction=reduction, backend=backend_cur,
                                counters=self.counters, metrics=self.metrics,
                                overlap=overlap, checkpoint_every=every,
                                checkpoint_path=ckpt_path if every else None,
                                resume_from=resume,
                                fault_plan=self.fault_plan, attempt=attempt,
                                precision=precision, threads=threads,
                                simd=simd, progress=progress,
                                progress_every=progress_every,
                            )
                    except Exception as exc:  # noqa: BLE001 - classified below
                        last_exc = exc
                        cls_name = classify_error(exc)
                        detail = f"{type(exc).__name__}: {exc}"
                        self.report.faults += 1
                        self.report.attempts.append(AttemptRecord(
                            attempt, eng, self._backend_name(backend_cur),
                            cls_name, detail[:300],
                            resume.next_m if resume else None,
                        ))
                        history.append((eng, attempt, cls_name, detail[:300]))
                        self.metrics.count("resil.faults")
                        self.metrics.count(f"resil.faults.{cls_name}")
                        with self.metrics.span(
                            "resil.fault", phase="resil", engine=eng,
                            attempt=attempt, error_class=cls_name,
                        ):
                            pass  # zero-length span: one trace record per fault
                        backend_cur = self._maybe_degrade_backend(
                            cls_name, backend_cur, detail
                        )
                        continue
                    if elastic is not None:
                        self.last_elastic_report = elastic
                        rep = self.report
                        rep.elastic_segments += len(elastic.segments)
                        rep.rebalances += elastic.rebalances
                        rep.membership_joins += elastic.joins
                        rep.membership_leaves += elastic.leaves
                    self.report.final_engine = eng
                    self.report.final_backend = self._backend_name(backend_cur)
                    return eta
        finally:
            if own_dir is not None:
                shutil.rmtree(own_dir, ignore_errors=True)
        raise RetryExhaustedError(
            f"KPM run failed after {attempt} attempt(s) across engines "
            f"{list(ladder)}: {last_exc}",
            history=history,
        ) from last_exc

    # ------------------------------------------------------------------
    @staticmethod
    def _backend_name(backend) -> str:
        return backend if isinstance(backend, str) else getattr(
            backend, "name", str(backend)
        )

    def _maybe_degrade_backend(self, cls_name: str, backend_cur, detail: str):
        """``native → numpy`` when the failure is backend-classified."""
        name = self._backend_name(backend_cur)
        if cls_name != "backend" or name not in ("auto", "native"):
            return backend_cur
        from repro.sparse.backend import report_backend_failure

        report_backend_failure("native", detail)
        self.report.backend_degradations += 1
        self.metrics.count("resil.backend_degraded")
        return "numpy"

    def _prepare_resume(
        self, ckpt_path: str | Path | None, attempt: int
    ) -> KpmCheckpoint | None:
        """Load the latest checkpoint (after any planned corruption drill).

        A corrupt checkpoint is counted, discarded, and the attempt falls
        back to a fresh start — never a crash of the supervisor itself.
        """
        if ckpt_path is None:
            return None
        if self.fault_plan:
            for spec in self.fault_plan.checkpoint_faults(attempt):
                corrupt_checkpoint_file(ckpt_path, seed=self.fault_plan.seed)
        on_disk = _npz_path(ckpt_path)
        if not on_disk.exists():
            return None
        try:
            ck = KpmCheckpoint.load(on_disk)
        except CheckpointError as exc:
            self.report.checkpoint_discards += 1
            self.metrics.count("resil.checkpoint_discarded")
            with self.metrics.span(
                "resil.fault", phase="resil", attempt=attempt,
                error_class="checkpoint", detail=str(exc)[:200],
            ):
                pass
            on_disk.unlink(missing_ok=True)
            return None
        self.report.resumes += 1
        self.report.resume_m = ck.next_m
        self.metrics.count("resil.resumes")
        self.metrics.gauge("resil.resume_m", ck.next_m)
        return ck
