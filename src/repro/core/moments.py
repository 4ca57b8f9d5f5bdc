"""Chebyshev moment computation — the paper's three optimization stages.

All engines compute the same mathematical object: for each stochastic
start vector |v_r> the sequence

    eta_0 = <nu_0|nu_0>,  eta_1 = <nu_1|nu_0>,
    eta_2m = <nu_m|nu_m>,  eta_2m+1 = <nu_{m+1}|nu_m>,   m = 1 .. M/2-1,

where |nu_m> = T_m(H~)|nu_0> via the two-term recurrence Eq. (3). The
doubling identities 2 T_m^2 = T_0 + T_2m and 2 T_m T_{m+1} = T_1 + T_{2m+1}
then yield the full set of M Chebyshev moments from M/2 matrix
applications (:func:`eta_to_moments`).

The engines differ only in *implementation* — exactly the paper's point:

* ``NAIVE``     — paper Fig. 3: spmv + axpy + scal + axpy + nrm2 + dot.
* ``AUG_SPMV``  — paper Fig. 4 (stage 1): one fused kernel per iteration.
* ``AUG_SPMMV`` — paper Fig. 5 (stage 2): all R vectors blocked, one
  matrix traversal per iteration.

Orthogonally, ``backend`` selects *who executes* the kernels — the
NumPy reference or the compiled native kernels — through
:mod:`repro.sparse.backend`. All workspaces are hoisted into a
per-(matrix, R) plan before the M/2-iteration loop, which then runs
allocation-free: the nu_m / nu_{m+1} buffers swap by reference and every
kernel writes into preallocated storage.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.core.scaling import SpectralScale
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.sparse.backend import KernelBackend, get_backend
from repro.sparse.csr import CSRMatrix
from repro.sparse.fused import vec_dots
from repro.sparse.sell import SellMatrix
from repro.util.constants import DTYPE
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.precision import FP64, Precision, get_precision
from repro.util.validation import check_block_vector, check_positive


class MomentEngine(str, Enum):
    """Which implementation computes the moments (identical results)."""

    NAIVE = "naive"
    AUG_SPMV = "aug_spmv"
    AUG_SPMMV = "aug_spmmv"


def _check_moments(n_moments: int) -> None:
    check_positive("n_moments", n_moments)
    if n_moments % 2 != 0 or n_moments < 2:
        raise ValueError(
            f"n_moments must be an even integer >= 2 (the recurrence yields "
            f"two moments per iteration), got {n_moments}"
        )


def _check_start_storage(start_block: np.ndarray, prec: Precision) -> None:
    """float16 pair storage is only meaningful under the fp16v profile."""
    if start_block.dtype == np.float16 and not prec.half_vectors:
        raise TypeError(
            "start_block uses float16 pair storage but precision is "
            f"{prec.name!r}; pass precision='fp16v'"
        )


def _eta_single(
    H: CSRMatrix | SellMatrix,
    scale: SpectralScale,
    n_moments: int,
    start: np.ndarray,
    bk: KernelBackend,
    step_fn,
    plan,
    counters: PerfCounters,
    metrics: MetricsRegistry = NULL_METRICS,
    prec: Precision = FP64,
) -> np.ndarray:
    """Shared single-vector driver for the NAIVE and AUG_SPMV engines.

    ``step_fn`` is a bound backend step (naive/aug_spmv); ``plan`` holds
    its workspaces, so the loop allocates nothing per iteration.
    """
    a, b = scale.a, scale.b
    eta = np.empty(n_moments, dtype=DTYPE)
    if prec.half_vectors:
        # nu_0/nu_1 live in half pair storage; the bootstrap recombination
        # runs once in fp32 through the plan's decode scratch, then the
        # result is rounded back — exactly the per-step kernel contract.
        if start.dtype == np.float16:
            v = np.ascontiguousarray(start)
        else:
            v = prec.encode(start)
        w = bk.spmv(H, v, counters=counters, metrics=metrics)
        vc, wc = plan.vc[:, 0], plan.wc[:, 0]
        prec.decode(v, out=vc)
        prec.decode(w, out=wc)
        np.multiply(vc, b, out=plan.work)
        wc -= plan.work
        wc *= a
        prec.encode(wc, out=w)
        eta[0], eta[1] = vec_dots(vc, wc)
    else:
        v = start.astype(prec.vector_dtype, copy=True)  # nu_0
        # nu_1 = a (H nu_0 - b nu_0)
        w = np.empty_like(v)
        bk.spmv(H, v, out=w, counters=counters, metrics=metrics)
        np.multiply(v, b, out=plan.work)
        w -= plan.work
        w *= a
        # fp64-accumulated dots; bitwise np.vdot for the fp64 profile
        eta[0], eta[1] = vec_dots(v, w)
    for m in range(1, n_moments // 2):
        v, w = w, v  # v = nu_m, w = nu_{m-1}
        eta_even, eta_odd = step_fn(
            H, v, w, a, b, plan=plan, counters=counters, metrics=metrics
        )
        eta[2 * m] = eta_even
        eta[2 * m + 1] = eta_odd
    return eta


def compute_eta(
    H: CSRMatrix | SellMatrix,
    scale: SpectralScale,
    n_moments: int,
    start_block: np.ndarray,
    engine: MomentEngine | str = MomentEngine.AUG_SPMMV,
    counters: PerfCounters = NULL_COUNTERS,
    backend: KernelBackend | str = "auto",
    metrics: MetricsRegistry = NULL_METRICS,
    precision: Precision | str | None = None,
    threads: int | str | None = None,
    simd: str | None = None,
) -> np.ndarray:
    """Compute the raw scalar products eta for every start vector.

    Parameters
    ----------
    H:
        The (unscaled) sparse Hermitian operator.
    scale:
        Spectral map; the kernels apply ``H~ = a (H - b 1)`` on the fly —
        the rescaled matrix is never materialized (paper Figs. 4, 5).
    n_moments:
        Number of moments M (even); M/2 matrix applications per vector.
    start_block:
        (N, R) C-contiguous block of start vectors.
    engine:
        Which optimization stage to execute.
    backend:
        Kernel backend: ``'auto'`` (native when compilable, else numpy),
        ``'numpy'``, ``'native'``, or a :class:`KernelBackend` instance.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; when live, every
        kernel invocation records a wall-time span with the counters'
        traffic/flop delta attached (free with the null default).
    precision:
        Storage profile (:mod:`repro.util.precision`): ``'fp64'``
        (default, bitwise the historical path), ``'fp32'``, or
        ``'fp16v'``.  The eta accumulation is fp64 in every profile;
        the naive engine runs fp16v through the backends' decode pass
        (half-storage SpMV + fp32 BLAS-1).
    threads:
        Intra-rank thread count for the native threaded kernels.
        ``None`` (default) keeps the sequential kernels; any explicit
        count routes the augmented steps through the block-grid threaded
        variants, whose fp64 results are bitwise identical at every
        thread count; ``'auto'`` uses every core (a serial solve is one
        rank, see :func:`repro.dist.kpm_parallel.resolve_threads`).  The
        NumPy backend accepts and ignores the knob.
    simd:
        Vectorized-kernel selector for the native backend
        (``None``/``'auto'``/``'on'``/``'off'``); fp64 results are
        bitwise identical either way, so this is purely a performance
        knob.  The NumPy backend accepts and ignores it.

    Returns
    -------
    eta:
        Complex array (R, M); ``eta[r, 2m]`` is real (stored complex).
        The blocked engine runs on the distributed driver as a one-rank
        world (:func:`repro.dist.kpm_parallel.solve_eta`), bitwise equal
        to a one-rank sim or mp run.
    """
    _check_moments(n_moments)
    engine = MomentEngine(engine)
    prec = get_precision(precision)
    if engine is MomentEngine.AUG_SPMMV:
        # stage 2 runs on the one blocked driver, as a one-rank world
        from repro.dist.kpm_parallel import solve_eta

        return solve_eta(
            H, scale, n_moments, start_block, backend=backend,
            counters=counters, metrics=metrics, precision=prec,
            threads=threads, simd=simd,
        )[0]
    from repro.dist.kpm_parallel import resolve_threads

    bk = get_backend(backend)
    start_block = check_block_vector("start_block", start_block, H.n_rows)
    _check_start_storage(start_block, prec)
    # (n, r) complex or (n, r, 2) f16 pair storage: r is axis 1 either way
    r = start_block.shape[1]
    eta = np.empty((r, n_moments), dtype=DTYPE)
    step_fn = bk.naive_step if engine is MomentEngine.NAIVE else bk.aug_spmv_step
    plan = bk.plan(H, 1, precision=prec, threads=resolve_threads(threads, 1),
                   simd=simd)
    for i in range(r):
        eta[i] = _eta_single(
            H, scale, n_moments, start_block[:, i], bk, step_fn, plan,
            counters, metrics, prec,
        )
    return eta


def eta_to_moments(eta: np.ndarray) -> np.ndarray:
    """Convert raw scalar products into Chebyshev moments.

    mu_0 = eta_0, mu_1 = eta_1,
    mu_2m   = 2 eta_2m   - mu_0,
    mu_2m+1 = 2 eta_2m+1 - mu_1        (m >= 1).

    Works on a single (M,) sequence or a stacked (R, M) array.
    """
    eta = np.asarray(eta)
    mu = 2.0 * eta
    mu[..., 0] = eta[..., 0]
    mu[..., 1] = eta[..., 1]
    mu[..., 2::2] -= eta[..., 0:1]
    mu[..., 3::2] -= eta[..., 1:2]
    return mu


def compute_dos_moments(
    H: CSRMatrix | SellMatrix,
    scale: SpectralScale,
    n_moments: int,
    start_block: np.ndarray,
    engine: MomentEngine | str = MomentEngine.AUG_SPMMV,
    counters: PerfCounters = NULL_COUNTERS,
    backend: KernelBackend | str = "auto",
    metrics: MetricsRegistry = NULL_METRICS,
    precision: Precision | str | None = None,
    threads: int | None = None,
    simd: str | None = None,
) -> np.ndarray:
    """Stochastic-trace DOS moments mu_m ~= tr[T_m(H~)].

    Averages the per-vector moments over the R start vectors:
    tr[A] ~= (1/R) sum_r <v_r|A|v_r> for iid random vectors with
    E[v v^H] = Identity (paper Section II). Returns a real (M,) array.
    """
    eta = compute_eta(
        H, scale, n_moments, start_block, engine, counters, backend=backend,
        metrics=metrics, precision=precision, threads=threads, simd=simd,
    )
    mu = eta_to_moments(eta)
    return mu.mean(axis=0).real
