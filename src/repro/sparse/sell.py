"""SELL-C-sigma: the unified sparse format for wide-SIMD CPUs and GPUs.

Reference: Kreutzer, Hager, Wellein, Fehske, Bishop, "A unified sparse
matrix data format for efficient general sparse matrix-vector
multiplication on modern processors with wide SIMD units", SIAM J. Sci.
Comput. 36(5):C401-C423 (2014) — the paper's Ref. [13].

Layout
------
Rows are grouped into *chunks* of height ``C``. Within a *sorting scope* of
``sigma`` consecutive rows, rows are sorted by descending nonzero count so
rows sharing a chunk have similar lengths. Every row in a chunk is padded
to the chunk's maximum length; padded slots hold ``value 0`` at ``column
row`` (self-referencing zero fill-in), so they are numerically inert yet
execute real flops — exactly as on hardware. The chunk stores its entries
column-major (SIMD lanes run down the chunk), concatenated chunk after
chunk in one flat array.

``C = 1`` degenerates to CRS (the paper calls CRS "similar to SELL-1");
``C = n_rows, sigma = 1`` degenerates to ELLPACK.

The *padding efficiency* ``beta = nnz / stored_slots`` quantifies the
zero-fill overhead; ``beta = 1`` means no padding.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.util.constants import DTYPE, IDTYPE
from repro.util.errors import FormatError
from repro.util.validation import check_positive


class SellMatrix:
    """A sparse matrix in SELL-C-sigma storage.

    Attributes
    ----------
    chunk_height:
        C — number of rows per chunk (SIMD/warp granularity).
    sigma:
        Sorting scope in rows (multiple of C recommended; 1 = no sorting).
    perm:
        ``perm[sorted_pos] = original_row``; kernels compute in sorted
        order and scatter results back through this permutation.
    chunk_len:
        Length (padded row width) of each chunk.
    chunk_ptr:
        Offset of each chunk's first slot in ``data``/``indices``.
    data, indices:
        Flat chunk-major, column-major-within-chunk value/column arrays.
    """

    def __init__(self, csr: CSRMatrix, chunk_height: int = 32, sigma: int = 1) -> None:
        check_positive("chunk_height", chunk_height)
        check_positive("sigma", sigma)
        if sigma != 1 and sigma % chunk_height != 0:
            raise FormatError(
                f"sigma ({sigma}) must be 1 or a multiple of chunk_height "
                f"({chunk_height})"
            )
        self.chunk_height = int(chunk_height)
        self.sigma = int(sigma)
        self.shape = csr.shape
        self.nnz = csr.nnz

        n = csr.n_rows
        c = self.chunk_height
        n_chunks = (n + c - 1) // c
        self.n_chunks = n_chunks
        n_padded = n_chunks * c

        lengths = np.zeros(n_padded, dtype=np.int64)
        lengths[:n] = csr.nnz_per_row

        # sigma-scope sorting: descending row length inside each scope.
        perm = np.arange(n_padded)
        if self.sigma > 1:
            for lo in range(0, n_padded, self.sigma):
                hi = min(lo + self.sigma, n_padded)
                local = np.argsort(-lengths[lo:hi], kind="stable")
                perm[lo:hi] = lo + local
        self.perm = perm  # perm[sorted_pos] -> original row (or padding row >= n)
        sorted_lengths = lengths[perm]

        self.chunk_len = sorted_lengths.reshape(n_chunks, c).max(axis=1)
        slots_per_chunk = self.chunk_len * c
        self.chunk_ptr = np.zeros(n_chunks + 1, dtype=np.int64)
        np.cumsum(slots_per_chunk, out=self.chunk_ptr[1:])
        total_slots = int(self.chunk_ptr[-1])

        data = np.zeros(total_slots, dtype=DTYPE)
        # Self-referencing padding: column = the row's own (original) index,
        # clipped into the *column* range (rectangular matrices may have
        # fewer columns than rows; any valid column works since the value
        # is zero).
        pad_col_per_sorted = np.minimum(perm, csr.n_cols - 1).astype(IDTYPE)
        indices = np.empty(total_slots, dtype=IDTYPE)

        # Fill chunk by chunk (vectorized within each chunk).
        for ci in range(n_chunks):
            L = int(self.chunk_len[ci])
            if L == 0:
                continue
            base = int(self.chunk_ptr[ci])
            block_vals = np.zeros((c, L), dtype=DTYPE)
            block_idx = np.repeat(
                pad_col_per_sorted[ci * c : (ci + 1) * c, None], L, axis=1
            )
            for rlocal in range(c):
                row = perm[ci * c + rlocal]
                if row >= n:
                    continue
                lo, hi = csr.indptr[row], csr.indptr[row + 1]
                k = hi - lo
                block_vals[rlocal, :k] = csr.data[lo:hi]
                block_idx[rlocal, :k] = csr.indices[lo:hi]
            # column-major within the chunk: slot (j, rlocal) at base + j*c + rlocal
            data[base : base + L * c] = block_vals.T.reshape(-1)
            indices[base : base + L * c] = block_idx.T.reshape(-1)

        self.data = data
        self.indices = indices
        self._n_padded = n_padded

        # ELLPACK compute view (global max width, zero/self padding) used by
        # the vectorized NumPy kernels. The *accounting* (stored_slots, beta,
        # flops) always refers to the true SELL layout above.
        lmax = int(self.chunk_len.max()) if n_chunks else 0
        self._ell_data = np.zeros((n_padded, lmax), dtype=DTYPE)
        self._ell_idx = np.repeat(pad_col_per_sorted[:, None], max(lmax, 1), axis=1)[
            :, :lmax
        ]
        for ci in range(n_chunks):
            L = int(self.chunk_len[ci])
            if L == 0:
                continue
            base = int(self.chunk_ptr[ci])
            vals = self.data[base : base + L * c].reshape(L, c).T
            idx = self.indices[base : base + L * c].reshape(L, c).T
            self._ell_data[ci * c : (ci + 1) * c, :L] = vals
            self._ell_idx[ci * c : (ci + 1) * c, :L] = idx

        # inverse permutation restricted to real rows
        self.inv_perm = np.empty(n_padded, dtype=np.int64)
        self.inv_perm[perm] = np.arange(n_padded)

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # The native backend caches ctypes pointers into this object's
        # arrays; they are meaningless in another process (and cannot be
        # pickled), so a pickled copy — e.g. an mp worker's operator
        # under a non-fork start method — rebuilds them on first use.
        return {k: v for k, v in self.__dict__.items()
                if not k.startswith("_native")}

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def nnzr(self) -> float:
        """Average nonzeros per (real) row."""
        return self.nnz / self.n_rows if self.n_rows else 0.0

    @property
    def stored_slots(self) -> int:
        """Total slots including zero fill-in (what the kernel streams)."""
        return int(self.chunk_ptr[-1])

    @property
    def beta(self) -> float:
        """Padding efficiency nnz / stored_slots in (0, 1]."""
        slots = self.stored_slots
        return self.nnz / slots if slots else 1.0

    def memory_bytes(self, s_d: int = 16, s_i: int = 4) -> int:
        """Streamed bytes per full matrix traversal (includes padding)."""
        return self.stored_slots * (s_d + s_i)

    # ------------------------------------------------------------------
    def to_csr(self) -> CSRMatrix:
        """Convert back to CSR, dropping the zero fill-in."""
        n = self.n_rows
        rows_sorted = np.repeat(np.arange(self._n_padded), self._ell_data.shape[1])
        vals = self._ell_data.reshape(-1)
        cols = self._ell_idx.reshape(-1).astype(np.int64)
        orig_rows = self.perm[rows_sorted]
        keep = (vals != 0) & (orig_rows < n)
        return CSRMatrix.from_coo(
            orig_rows[keep], cols[keep], vals[keep], self.shape,
            sum_duplicates=True,
        )

    def to_dense(self) -> np.ndarray:
        """Materialize as dense (tests only)."""
        return self.to_csr().to_dense()

    def __repr__(self) -> str:
        return (
            f"SellMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"C={self.chunk_height}, sigma={self.sigma}, beta={self.beta:.3f})"
        )
