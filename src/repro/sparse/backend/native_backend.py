"""The native kernel backend: compiled single-pass C kernels.

Marshals the CSR / SELL-C-sigma containers into the ctypes entry points
of ``_kernels.c`` (see :mod:`repro.sparse.backend.native`).  Unlike the
NumPy backend, the augmented kernels here really are one traversal of
the matrix stream per iteration with the recurrence update and both
scalar products computed inside the row loop — the kernel structure of
paper Figs. 4 and 5.

Precision dispatch: every kernel exists in the typed expansions of
``_kernels.c`` (see :data:`repro.sparse.backend.native.KERNEL_SUFFIXES`)
and the profile is inferred from the vector operands — complex128,
complex64 and float16 pair storage map one-to-one onto the fp64 / fp32 /
fp16v profiles of :mod:`repro.util.precision`.  The matrix side streams
the profile's typed kernel pack (:func:`repro.sparse.compress.kernel_pack`):
narrowed values plus uint16-compressed column indices when the operator
is narrow enough, int32 fallback otherwise.

Accounting is charged through the exact same helpers as the NumPy
backend, so :class:`~repro.util.counters.PerfCounters` totals and every
Table-I-derived model are backend-independent.
"""

from __future__ import annotations

import numpy as np

from repro.obs import NULL_METRICS, MetricsRegistry
from repro.sparse.backend import KernelBackend, KernelPlan, SplitKernelPlan
from repro.sparse.backend.native import (
    _pc,
    _pi32,
    _pi64,
    _pidx,
    _pvec,
    load_library,
    note_threads,
    simd_available,
    simd_f16c_available,
)
from repro.sparse.compress import kernel_pack
from repro.sparse.csr import CSRMatrix
from repro.sparse.fused import (
    charge_aug_spmmv,
    charge_aug_spmmv_part,
    charge_aug_spmv,
    charge_aug_spmv_part,
)
from repro.sparse.sell import SellMatrix
from repro.sparse.spmv import _charge_spmv
from repro.util.constants import DTYPE
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.errors import BackendError, ShapeError
from repro.util.precision import Precision, precision_of
from repro.util.validation import check_block_vector, check_vector

_KERNEL_DTYPES = (
    np.dtype(np.complex128),
    np.dtype(np.complex64),
    np.dtype(np.float16),
)


def _kernel_suffix(prec: Precision, indices: np.ndarray) -> str:
    """Exported-name suffix for this profile and realized index width."""
    if prec.is_fp64:
        return ""
    base = "_f16v" if prec.half_vectors else "_f32"
    if indices.dtype == np.uint16:
        base += "u16"
    return base


def _simd_suffix(simd: str | None, prec: Precision) -> str:
    """``"_simd"`` when the vectorized kernel family should run.

    ``simd`` is the plan's normalized knob (``None`` for plan-less calls
    ≡ ``"auto"``).  The scalar and ``_simd`` expansions are bitwise
    identical in fp64 results, so ``"auto"`` simply takes the fast family
    whenever the build has it; the half-storage profiles additionally
    need the F16C converters compiled in.  An explicit ``"on"`` on a host
    without the vectorized build falls back to scalar *cleanly* — same
    numbers, plus a ``backend.native.simd_fallbacks`` health counter so
    the degradation is observable instead of silent.
    """
    if simd == "off":
        return ""
    if simd_f16c_available() if prec.half_vectors else simd_available():
        return "_simd"
    if simd == "on":
        from repro.obs import GLOBAL_METRICS

        GLOBAL_METRICS.count("backend.native.simd_fallbacks")
    return ""


def _as_kernel_block(name: str, X: np.ndarray, n: int) -> np.ndarray:
    """Validate an (n, R) block for the C kernels: contiguous storage."""
    X = check_block_vector(name, X, n)
    if X.dtype not in _KERNEL_DTYPES or not X.flags.c_contiguous:
        raise ShapeError(
            f"{name} must be C-contiguous complex128/complex64 (or float16 "
            "pair storage) for the native backend"
        )
    return X


def _as_kernel_vector(name: str, x: np.ndarray, n: int) -> np.ndarray:
    x = check_vector(name, x, n)
    if x.dtype not in _KERNEL_DTYPES or not x.flags.c_contiguous:
        raise ShapeError(
            f"{name} must be contiguous complex128/complex64 (or float16 "
            "pair storage) for the native backend"
        )
    return x


def _check_same_storage(av: np.ndarray, aw: np.ndarray) -> None:
    if av.dtype != aw.dtype:
        raise ShapeError(
            "v and w must share one precision profile's storage dtype, got "
            f"{av.dtype} and {aw.dtype}"
        )


class NativeBackend(KernelBackend):
    """Compiled C kernels (CSR + SELL-C-sigma), single pass per iteration."""

    name = "native"

    def available(self) -> bool:
        return load_library() is not None

    def _lib(self):
        lib = load_library()
        if lib is None:
            from repro.sparse.backend.native import native_error

            raise BackendError(
                f"native kernel backend unavailable: {native_error()}"
            )
        return lib

    # -- marshalling ---------------------------------------------------
    # The matrix-side pointers are cached on the matrix object (the
    # containers are immutable, same pattern as the ``_scipy_cache``
    # handle): ``data_as`` builds fresh ctypes wrappers per call, which
    # is measurable overhead when the distributed driver calls into the
    # kernels once per rank per iteration on small row blocks.  Narrow
    # profiles cache one pointer tuple per kernel suffix; the arrays
    # they point into live in the matrix's kernel-pack cache.
    @staticmethod
    def _csr_args(A: CSRMatrix, prec: Precision):
        if prec.is_fp64:
            args = getattr(A, "_native_arg_cache", None)
            if args is None:
                args = (_pi64(A.indptr), _pi32(A.indices), _pc(A.data))
                A._native_arg_cache = args
            return "", args
        values, indices = kernel_pack(A, prec)
        suffix = _kernel_suffix(prec, indices)
        cache = getattr(A, "_native_typed_args", None)
        if cache is None:
            cache = {}
            A._native_typed_args = cache
        args = cache.get(suffix)
        if args is None:
            args = (_pi64(A.indptr), _pidx(indices), _pvec(values))
            cache[suffix] = args
        return suffix, args

    @staticmethod
    def _sell_args(A: SellMatrix, prec: Precision):
        if prec.is_fp64:
            args = getattr(A, "_native_arg_cache", None)
            if args is None:
                args = (
                    A.n_chunks,
                    A.chunk_height,
                    _pi64(A.chunk_ptr),
                    _pi64(A.chunk_len),
                    _pi64(A.perm),
                    _pi32(A.indices),
                    _pc(A.data),
                )
                A._native_arg_cache = args
            return "", args
        values, indices = kernel_pack(A, prec)
        suffix = _kernel_suffix(prec, indices)
        cache = getattr(A, "_native_typed_args", None)
        if cache is None:
            cache = {}
            A._native_typed_args = cache
        args = cache.get(suffix)
        if args is None:
            args = (
                A.n_chunks,
                A.chunk_height,
                _pi64(A.chunk_ptr),
                _pi64(A.chunk_len),
                _pi64(A.perm),
                _pidx(indices),
                _pvec(values),
            )
            cache[suffix] = args
        return suffix, args

    # -- kernels -------------------------------------------------------
    def spmv(self, A, x, out=None, counters: PerfCounters = NULL_COUNTERS,
             metrics: MetricsRegistry = NULL_METRICS):
        lib = self._lib()
        x = _as_kernel_vector("x", x, A.n_cols)
        prec = precision_of(x)
        shape = prec.vec_shape(A.n_rows)
        if out is None:
            out = np.empty(shape, dtype=x.dtype)
        elif out.shape != shape or out.dtype != x.dtype:
            raise ShapeError(
                f"out must have shape {shape} and dtype {x.dtype}, got "
                f"{out.shape} / {out.dtype}"
            )
        vs = _simd_suffix(None, prec)
        with metrics.span("spmv", counters=counters):
            if isinstance(A, CSRMatrix):
                suf, args = self._csr_args(A, prec)
                getattr(lib, "repro_csr_spmv" + suf + vs)(
                    A.n_rows, *args, _pvec(x), _pvec(out)
                )
            elif isinstance(A, SellMatrix):
                suf, args = self._sell_args(A, prec)
                getattr(lib, "repro_sell_spmv" + suf + vs)(
                    A.n_rows, *args, _pvec(x), _pvec(out)
                )
            else:
                raise TypeError(f"unsupported matrix type {type(A).__name__}")
            _charge_spmv(A, 1, counters, "spmv", prec)
        return out

    def spmmv(self, A, X, out=None, counters: PerfCounters = NULL_COUNTERS,
              metrics: MetricsRegistry = NULL_METRICS):
        lib = self._lib()
        X = _as_kernel_block("X", X, A.n_cols)
        prec = precision_of(X)
        r = X.shape[1]
        shape = prec.vec_shape(A.n_rows, r)
        if out is None:
            out = np.empty(shape, dtype=X.dtype)
        elif out.shape != shape or out.dtype != X.dtype:
            raise ShapeError(
                f"out must have shape {shape} and dtype {X.dtype}, got "
                f"{out.shape} / {out.dtype}"
            )
        vs = _simd_suffix(None, prec)
        with metrics.span("spmmv", counters=counters):
            if isinstance(A, CSRMatrix):
                suf, args = self._csr_args(A, prec)
                getattr(lib, "repro_csr_spmmv" + suf + vs)(
                    A.n_rows, r, *args, _pvec(X), _pvec(out)
                )
            elif isinstance(A, SellMatrix):
                suf, (nc, c, *rest) = self._sell_args(A, prec)
                getattr(lib, "repro_sell_spmmv" + suf + vs)(
                    A.n_rows, nc, c, r, *rest, _pvec(X), _pvec(out)
                )
            else:
                raise TypeError(f"unsupported matrix type {type(A).__name__}")
            _charge_spmv(A, r, counters, "spmmv", prec)
        return out

    def naive_step(
        self, A, v, w, a, b, plan: KernelPlan | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        # The naive algorithm *is* the library-call structure of paper
        # Fig. 3 — an optimized SpMV plus separate BLAS-1 passes. Only
        # the SpMV is native; fusing more would make it stage 1.
        from repro.sparse.blas1 import axpy, dot, nrm2_sq, scal

        n = A.n_rows
        v = _as_kernel_vector("v", v, n)
        w = _as_kernel_vector("w", w, n)
        _check_same_storage(v, w)
        if v.dtype == np.float16:
            # decode pass: half-storage SpMV + fp32 BLAS-1 (shared base
            # implementation; the spmv below streams the native kernels)
            return self._naive_step_half(
                A, v, w, a, b, plan, counters, metrics
            )
        if plan is not None and plan.u.dtype == v.dtype:
            u, work = plan.u, plan.work
        else:
            u, work = np.empty(n, dtype=v.dtype), None
        # one span for the whole library-call chain (same shape as the
        # NumPy fused.naive_kpm_step span); the inner spmv stays unspanned
        with metrics.span("naive_step", counters=counters):
            self.spmv(A, v, out=u, counters=counters)
            axpy(u, -b, v, counters=counters, work=work)
            scal(-1.0, w, counters=counters)
            axpy(w, 2.0 * a, u, counters=counters, work=work)
            eta_even = nrm2_sq(v, counters=counters)
            eta_odd = dot(w, v, counters=counters)
        return eta_even, eta_odd

    def aug_spmv_step(
        self, A, v, w, a, b, plan: KernelPlan | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        lib = self._lib()
        v = _as_kernel_vector("v", v, A.n_cols)
        w = _as_kernel_vector("w", w, A.n_rows)
        _check_same_storage(v, w)
        prec = precision_of(v)
        if plan is not None:
            ee, eo = plan.eta_even[:1], plan.eta_odd[:1]
        else:
            ee = np.empty(1, dtype=np.float64)
            eo = np.empty(1, dtype=DTYPE)
        threads = note_threads(plan.threads if plan is not None else None)
        vs = _simd_suffix(plan.simd if plan is not None else None, prec)
        meta = {} if threads is None else {"threads": threads}
        with metrics.span("aug_spmv", counters=counters, **meta):
            if isinstance(A, CSRMatrix):
                suf, args = self._csr_args(A, prec)
                if threads is not None:
                    # an (n,) interleaved complex vector is memory-
                    # identical to an (n, 1) row-major block, so the
                    # threaded path reuses the blocked mt kernel at r=1
                    getattr(lib, "repro_csr_aug_spmmv_mt" + suf + vs)(
                        A.n_rows, 1, threads, *args, _pvec(v), _pvec(w),
                        a, b, _pc(ee), _pc(eo),
                    )
                else:
                    getattr(lib, "repro_csr_aug_spmv" + suf + vs)(
                        A.n_rows, *args, _pvec(v), _pvec(w), a, b,
                        _pc(ee), _pc(eo),
                    )
            elif isinstance(A, SellMatrix):
                if threads is not None:
                    suf, (nc, c, *rest) = self._sell_args(A, prec)
                    getattr(lib, "repro_sell_aug_spmmv_mt" + suf + vs)(
                        A.n_rows, nc, c, 1, threads, *rest,
                        _pvec(v), _pvec(w), a, b, _pc(ee), _pc(eo),
                    )
                else:
                    suf, args = self._sell_args(A, prec)
                    getattr(lib, "repro_sell_aug_spmv" + suf + vs)(
                        A.n_rows, *args, _pvec(v), _pvec(w), a, b,
                        _pc(ee), _pc(eo),
                    )
            else:
                raise TypeError(f"unsupported matrix type {type(A).__name__}")
            charge_aug_spmv(A, counters, prec)
        return float(ee[0]), complex(eo[0])

    def aug_spmmv_step(
        self, A, V, W, a, b, plan: KernelPlan | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        lib = self._lib()
        V = _as_kernel_block("V", V, A.n_cols)
        W = _as_kernel_block("W", W, A.n_rows)
        _check_same_storage(V, W)
        prec = precision_of(V)
        r = V.shape[1]
        if W.shape[1] != r:
            raise ShapeError(
                f"V and W must share a block width, got {r} and {W.shape[1]}"
            )
        if plan is not None and plan.r == r:
            ee, eo = plan.eta_even, plan.eta_odd
        else:
            ee = np.empty(r, dtype=np.float64)
            eo = np.empty(r, dtype=DTYPE)
        threads = note_threads(plan.threads if plan is not None else None)
        vs = _simd_suffix(plan.simd if plan is not None else None, prec)
        meta = {} if threads is None else {"threads": threads}
        with metrics.span("aug_spmmv", counters=counters, **meta):
            if isinstance(A, CSRMatrix):
                suf, args = self._csr_args(A, prec)
                if threads is not None:
                    getattr(lib, "repro_csr_aug_spmmv_mt" + suf + vs)(
                        A.n_rows, r, threads, *args, _pvec(V), _pvec(W),
                        a, b, _pc(ee), _pc(eo),
                    )
                else:
                    getattr(lib, "repro_csr_aug_spmmv" + suf + vs)(
                        A.n_rows, r, *args, _pvec(V), _pvec(W), a, b,
                        _pc(ee), _pc(eo),
                    )
            elif isinstance(A, SellMatrix):
                suf, (nc, c, *rest) = self._sell_args(A, prec)
                if threads is not None:
                    getattr(lib, "repro_sell_aug_spmmv_mt" + suf + vs)(
                        A.n_rows, nc, c, r, threads, *rest,
                        _pvec(V), _pvec(W), a, b, _pc(ee), _pc(eo),
                    )
                else:
                    getattr(lib, "repro_sell_aug_spmmv" + suf + vs)(
                        A.n_rows, nc, c, r, *rest, _pvec(V), _pvec(W), a, b,
                        _pc(ee), _pc(eo),
                    )
            else:
                raise TypeError(f"unsupported matrix type {type(A).__name__}")
            charge_aug_spmmv(A, r, counters, prec)
        return ee.copy(), eo.copy()

    # -- split (task-mode) kernels -------------------------------------
    # The range/rows C kernels traverse the ORIGINAL local CSR arrays
    # with absolute row indexing (no extraction), write the phase's
    # rows of W with byte-for-byte the plain kernel's per-row
    # arithmetic, and return the phase's own eta partials.  CSR only:
    # SplitKernelPlan already rejects SELL at plan time.  The index-
    # width charge uses the WHOLE local operator's width so interior +
    # boundary partial charges still sum exactly to the unsplit charge.

    def _require_csr(self, A) -> None:
        if not isinstance(A, CSRMatrix):
            raise BackendError(
                "split (task-mode) kernels support CSR matrices only, got "
                f"{type(A).__name__}"
            )

    def aug_spmv_interior(
        self, A, v, w, a, b, plan: SplitKernelPlan,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        lib = self._lib()
        self._require_csr(A)
        v = _as_kernel_vector("v", v, A.n_cols)
        w = _as_kernel_vector("w", w, A.n_rows)
        _check_same_storage(v, w)
        prec = precision_of(v)
        ee, eo = plan.ee_interior[:1], plan.eo_interior[:1]
        threads = note_threads(plan.threads)
        vs = _simd_suffix(plan.simd, prec)
        meta = {} if threads is None else {"threads": threads}
        with metrics.span("aug_spmv_int", counters=counters, **meta):
            suf, args = self._csr_args(A, prec)
            if threads is not None:
                getattr(lib, "repro_csr_aug_spmmv_range_mt" + suf + vs)(
                    plan.row0, plan.row1, 1, threads, *args,
                    _pvec(v), _pvec(w), a, b, _pc(ee), _pc(eo),
                )
            else:
                getattr(lib, "repro_csr_aug_spmv_range" + suf + vs)(
                    plan.row0, plan.row1, *args, _pvec(v), _pvec(w),
                    a, b, _pc(ee), _pc(eo),
                )
            charge_aug_spmv_part(
                plan.n_interior, plan.nnz_interior, counters, "aug_spmv_int",
                prec, s_index=prec.index_bytes(A.n_cols),
            )
        return float(ee[0]), complex(eo[0])

    def aug_spmv_boundary(
        self, A, v, w, a, b, plan: SplitKernelPlan,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        lib = self._lib()
        self._require_csr(A)
        v = _as_kernel_vector("v", v, A.n_cols)
        w = _as_kernel_vector("w", w, A.n_rows)
        _check_same_storage(v, w)
        prec = precision_of(v)
        ee, eo = plan.ee_boundary[:1], plan.eo_boundary[:1]
        threads = note_threads(plan.threads)
        vs = _simd_suffix(plan.simd, prec)
        meta = {} if threads is None else {"threads": threads}
        with metrics.span("aug_spmv_bnd", counters=counters, **meta):
            suf, args = self._csr_args(A, prec)
            if threads is not None:
                getattr(lib, "repro_csr_aug_spmmv_rows_mt" + suf + vs)(
                    plan.n_boundary, _pi64(plan.rows), 1, threads, *args,
                    _pvec(v), _pvec(w), a, b, _pc(ee), _pc(eo),
                )
            else:
                getattr(lib, "repro_csr_aug_spmv_rows" + suf + vs)(
                    plan.n_boundary, _pi64(plan.rows), *args,
                    _pvec(v), _pvec(w), a, b, _pc(ee), _pc(eo),
                )
            charge_aug_spmv_part(
                plan.n_boundary, plan.nnz_boundary, counters, "aug_spmv_bnd",
                prec, s_index=prec.index_bytes(A.n_cols),
            )
        return float(ee[0]), complex(eo[0])

    def aug_spmmv_interior(
        self, A, V, W, a, b, plan: SplitKernelPlan,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        lib = self._lib()
        self._require_csr(A)
        V = _as_kernel_block("V", V, A.n_cols)
        W = _as_kernel_block("W", W, A.n_rows)
        _check_same_storage(V, W)
        prec = precision_of(V)
        r = V.shape[1]
        ee, eo = plan.ee_interior, plan.eo_interior
        threads = note_threads(plan.threads)
        vs = _simd_suffix(plan.simd, prec)
        meta = {} if threads is None else {"threads": threads}
        with metrics.span("aug_spmmv_int", counters=counters, **meta):
            suf, args = self._csr_args(A, prec)
            if threads is not None:
                getattr(lib, "repro_csr_aug_spmmv_range_mt" + suf + vs)(
                    plan.row0, plan.row1, r, threads, *args,
                    _pvec(V), _pvec(W), a, b, _pc(ee), _pc(eo),
                )
            else:
                getattr(lib, "repro_csr_aug_spmmv_range" + suf + vs)(
                    plan.row0, plan.row1, r, *args, _pvec(V), _pvec(W),
                    a, b, _pc(ee), _pc(eo),
                )
            charge_aug_spmmv_part(
                plan.n_interior, plan.nnz_interior, r, counters,
                "aug_spmmv_int", prec, s_index=prec.index_bytes(A.n_cols),
            )
        return ee.copy(), eo.copy()

    def aug_spmmv_boundary(
        self, A, V, W, a, b, plan: SplitKernelPlan,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        lib = self._lib()
        self._require_csr(A)
        V = _as_kernel_block("V", V, A.n_cols)
        W = _as_kernel_block("W", W, A.n_rows)
        _check_same_storage(V, W)
        prec = precision_of(V)
        r = V.shape[1]
        ee, eo = plan.ee_boundary, plan.eo_boundary
        threads = note_threads(plan.threads)
        vs = _simd_suffix(plan.simd, prec)
        meta = {} if threads is None else {"threads": threads}
        with metrics.span("aug_spmmv_bnd", counters=counters, **meta):
            suf, args = self._csr_args(A, prec)
            if threads is not None:
                getattr(lib, "repro_csr_aug_spmmv_rows_mt" + suf + vs)(
                    plan.n_boundary, _pi64(plan.rows), r, threads, *args,
                    _pvec(V), _pvec(W), a, b, _pc(ee), _pc(eo),
                )
            else:
                getattr(lib, "repro_csr_aug_spmmv_rows" + suf + vs)(
                    plan.n_boundary, _pi64(plan.rows), r, *args,
                    _pvec(V), _pvec(W), a, b, _pc(ee), _pc(eo),
                )
            charge_aug_spmmv_part(
                plan.n_boundary, plan.nnz_boundary, r, counters,
                "aug_spmmv_bnd", prec, s_index=prec.index_bytes(A.n_cols),
            )
        return ee.copy(), eo.copy()
