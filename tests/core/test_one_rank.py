"""Serial is a one-rank world.

The serial entry points (``compute_eta``, ``checkpointed_eta``) run the
distributed driver on one rank, so a serial solve, a one-rank
:class:`SimWorld` and a one-rank :class:`MpWorld` must return the same
bytes — for every backend, precision profile, thread count, block width
and operator format.  With more than one rank only reduction-order
tolerance holds (tested elsewhere).
"""

import time

import numpy as np
import pytest

from repro import KPMSolver
from repro.core.checkpoint import checkpointed_eta
from repro.core.moments import compute_eta
from repro.core.scaling import lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.dist.comm import SimWorld
from repro.dist.kpm_parallel import distributed_eta, resolve_threads
from repro.dist.mp import MpTimeouts, MpWorld
from repro.dist.partition import RowPartition
from repro.physics import build_topological_insulator
from repro.resil import Resilience, RetryPolicy, Supervisor
from repro.resil.faults import FaultInjector, FaultPlan
from repro.sparse.backend.native import native_available
from repro.sparse.sell import SellMatrix
from repro.util.errors import FaultInjected, WorkerFailure

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernels"
)
BACKENDS = ["numpy", pytest.param("native", marks=needs_native)]

M = 16
#: short liveness windows: a wedged one-rank world fails in seconds
TIMEOUTS = MpTimeouts(barrier=30.0, join=5.0, stall=30.0)


@pytest.fixture(scope="module")
def ti():
    h, _ = build_topological_insulator(4, 4, 2)
    return h, lanczos_scale(h, seed=0)


def one_rank(A):
    return RowPartition.equal(A.n_rows, 1)


@pytest.mark.parametrize("fmt", ["csr", "sell"])
@pytest.mark.parametrize("r", [1, 3, 8])
@pytest.mark.parametrize("threads", [None, 2])
@pytest.mark.parametrize("precision", ["fp64", "fp32", "fp16v"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_serial_sim_mp_one_rank_bitwise(ti, backend, precision, threads, r,
                                        fmt):
    h, scale = ti
    A = h if fmt == "csr" else SellMatrix(h, chunk_height=4, sigma=8)
    blk = make_block_vector(h.n_rows, r, seed=r)
    kw = dict(backend=backend, precision=precision, threads=threads)
    ref = compute_eta(A, scale, M, blk, **kw)
    assert np.array_equal(checkpointed_eta(A, scale, M, blk, **kw), ref)
    sim = distributed_eta(A, one_rank(A), scale, M, blk, SimWorld(1), **kw)
    assert np.array_equal(sim, ref)
    mp = distributed_eta(A, one_rank(A), scale, M, blk,
                         MpWorld(1, timeouts=TIMEOUTS), **kw)
    assert np.array_equal(mp, ref)


@pytest.mark.parametrize("backend", BACKENDS)
def test_resume_through_the_one_driver(ti, backend, tmp_path):
    """Interrupt a serial run, resume it serially and on SimWorld(1):
    both are bitwise the uninterrupted run."""
    h, scale = ti
    blk = make_block_vector(h.n_rows, 3, seed=5)
    ref = compute_eta(h, scale, M, blk, backend=backend)
    path = tmp_path / "ck.npz"
    inj = FaultInjector(FaultPlan.parse("raise:m=6"), in_process=True)
    with pytest.raises(FaultInjected):
        checkpointed_eta(h, scale, M, blk, backend=backend,
                         checkpoint_every=2, checkpoint_path=path, fault=inj)
    resumed = checkpointed_eta(h, scale, M, None, backend=backend,
                               resume_from=path)
    assert np.array_equal(resumed, ref)
    sim = distributed_eta(h, one_rank(h), scale, M, None, SimWorld(1),
                          backend=backend, resume_from=path)
    assert np.array_equal(sim, ref)


def test_progress_stream_is_the_final_prefix(ti):
    h, scale = ti
    blk = make_block_vector(h.n_rows, 2, seed=3)
    seen, seen_sim = [], []
    eta = checkpointed_eta(
        h, scale, M, blk, progress_every=2,
        progress=lambda n, pre: seen.append((n, pre.copy())),
    )
    distributed_eta(
        h, one_rank(h), scale, M, blk, SimWorld(1), progress_every=2,
        progress=lambda n, pre: seen_sim.append((n, pre.copy())),
    )
    assert [n for n, _ in seen] == [6, 10, 14]
    for (n, pre), (n_sim, pre_sim) in zip(seen, seen_sim, strict=True):
        assert n == n_sim
        assert np.array_equal(pre, eta[:, :n])
        assert np.array_equal(pre_sim, pre)


def test_one_rank_world_has_no_halo_traffic_or_spans(ti):
    from repro.obs import MetricsRegistry

    h, scale = ti
    blk = make_block_vector(h.n_rows, 2, seed=4)
    reg, world = MetricsRegistry(), SimWorld(1)
    distributed_eta(h, one_rank(h), scale, M, blk, world, metrics=reg)
    assert world.log.n_messages == 0
    assert reg.timer("halo_exchange").count == 0
    assert reg.timer("allreduce").count == 0
    assert reg.timer("aug_spmmv").count == M // 2 - 1


@pytest.mark.parametrize("engine", ["serial", "sim", "mp"])
def test_fault_plan_at_m0_fires_on_every_engine(ti, engine):
    """``raise:m=0`` is probed before the bootstrap on every engine: one
    fault, one retry from m=0, and the serial moments."""
    h, scale = ti
    blk = make_block_vector(h.n_rows, 2, seed=6)
    ref = compute_eta(h, scale, M, blk)
    sup = Supervisor(RetryPolicy(max_attempts=2),
                     degrade=False, fault_plan="raise:m=0",
                     mp_timeouts=TIMEOUTS)
    eta = sup.run_eta(h, scale, M, blk, engine=engine, workers=1)
    assert sup.report.faults == 1 and sup.report.retries == 1
    assert sup.report.final_engine == engine
    assert np.array_equal(eta, ref)


def test_weights_size_the_world_supervised_or_not():
    """Three weights mean three ranks, with or without a supervisor."""
    h, _ = build_topological_insulator(4, 4, 2)
    kw = dict(workers=2, weights=[1, 1, 2], dist_engine="sim", seed=1)
    plain = KPMSolver(h, 32, 2, **kw)
    supervised = KPMSolver(h, 32, 2, resilience=Resilience(), **kw)
    assert np.array_equal(plain.moments(), supervised.moments())
    assert plain.world.n_ranks == supervised.world.n_ranks == 3


def test_resolve_threads_rule():
    import os

    cores = os.cpu_count() or 1
    assert resolve_threads(None, 4) is None
    assert resolve_threads(3, 2) == 3
    assert resolve_threads("auto", 1) == cores
    assert resolve_threads("auto", 2 * cores) == 1


@needs_native
def test_mp_after_threaded_serial_does_not_deadlock(ti):
    """libgomp is not fork-safe: once this process has run a threaded
    kernel, forked workers that open their own parallel region hang.
    The mp engine must start such workers another way."""
    h, scale = ti
    blk = make_block_vector(h.n_rows, 4, seed=7)
    ref = compute_eta(h, scale, M, blk, backend="native", threads=2)
    t0 = time.monotonic()
    for n in (1, 2):
        world = MpWorld(n, timeouts=MpTimeouts(barrier=8, join=2, stall=8))
        try:
            eta = distributed_eta(
                h, RowPartition.equal(h.n_rows, n, align=4), scale, M, blk,
                world, backend="native", threads=2,
            )
        except WorkerFailure as exc:  # the hang, caught by the stall timer
            pytest.fail(f"MpWorld({n}) after a threaded solve: {exc}")
        assert np.allclose(eta, ref, rtol=0, atol=1e-10)
    assert time.monotonic() - t0 < 30
