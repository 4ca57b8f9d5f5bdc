"""Checkpoint/restart for long KPM moment computations.

The paper's production runs burn hundreds of node-hours (Table III);
any real deployment checkpoints the Chebyshev recurrence. The state is
tiny relative to the computation: the two current block vectors, the eta
scalars accumulated so far, and the loop position — saved as a
compressed ``.npz``. Restarting is bit-exact: the recurrence is
deterministic given (v, w).
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.scaling import SpectralScale
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.sparse.backend import KernelBackend
from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import SellMatrix
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.errors import CheckpointError, FormatError
from repro.util.precision import Precision, get_precision

_FORMAT_VERSION = 1


def _npz_path(path: str | Path) -> Path:
    """The on-disk path of a checkpoint: always carries the .npz suffix.

    ``np.savez_compressed`` silently appends ``.npz`` to any other
    suffix, so both :meth:`KpmCheckpoint.save` and
    :meth:`KpmCheckpoint.load` must normalize the same way or a
    ``save("state.ckpt")`` / ``load("state.ckpt")`` round trip fails.
    """
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_name(path.name + ".npz")


@dataclass
class KpmCheckpoint:
    """Complete state of an interrupted stage-2 moment computation.

    ``v``/``w`` are stored in the active precision profile's vector
    *storage* dtype (complex128 / complex64 / float16 pairs), so a
    checkpoint ships exactly the bytes the kernels would stream — a
    resume under the same profile is bit-exact, and a narrow-profile
    checkpoint is 2x (fp32) or 4x (fp16v) smaller on disk before
    compression.  ``eta`` is always complex128 (the accumulation is fp64
    in every profile).
    """

    v: np.ndarray  # nu_m block
    w: np.ndarray  # nu_{m+1} block (post-update storage)
    eta: np.ndarray  # (R, M) with entries [0 : 2*next_m) filled
    next_m: int  # next inner-iteration index
    n_moments: int
    a: float
    b: float
    precision: str = "fp64"
    #: eta reduction grid of the run that saved this state: 0 = classic
    #: per-rank partials, B > 0 = fixed global row blocks of B rows
    #: (:mod:`repro.dist.elastic`).  The spliced eta prefix is only
    #: bitwise-composable with a run using the *same* reduction order,
    #: so a cross-grid resume is refused like a cross-precision one.
    eta_grid: int = 0

    def _digest(self) -> str:
        """Integrity digest over the state that resuming actually reads.

        Only the filled eta prefix is hashed — the tail of the array is
        scratch whose bytes legitimately differ between a serial run
        (``np.empty``) and the distributed engines (zero-filled shared
        memory).  The precision and eta-grid tags enter the digest only
        when not the baseline (fp64 / per-rank reduction), so digests of
        older checkpoints keep verifying unchanged.
        """
        h = hashlib.sha256()
        h.update(f"{self.next_m}:{self.n_moments}:{self.a!r}:{self.b!r}:".encode())
        if self.precision != "fp64":
            h.update(f"{self.precision}:".encode())
        if self.eta_grid:
            h.update(f"grid{self.eta_grid}:".encode())
        for arr in (self.v, self.w, self.eta[:, : 2 * self.next_m]):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def save(self, path: str | Path) -> Path:
        """Atomically write the state; returns the suffix-normalized path.

        The archive is written to a ``*.tmp.npz`` sibling and moved into
        place with ``os.replace``, so a crash mid-write (or a concurrent
        reader) never observes a truncated checkpoint — the previous one
        stays intact until the new one is durable.
        """
        path = _npz_path(path)
        tmp = path.with_name(path.stem + f".tmp.{os.getpid()}.npz")
        try:
            np.savez_compressed(
                tmp,
                version=_FORMAT_VERSION,
                v=self.v, w=self.w, eta=self.eta,
                next_m=self.next_m, n_moments=self.n_moments,
                a=self.a, b=self.b,
                precision=self.precision,
                eta_grid=self.eta_grid,
                digest=self._digest(),
            )
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "KpmCheckpoint":
        """Load a checkpoint, verifying its integrity digest.

        Raises :class:`~repro.util.errors.CheckpointError` on a missing,
        truncated, or corrupt file (never the raw ``zipfile`` /
        ``KeyError`` NumPy produces) and :class:`FormatError` on a valid
        file of an unsupported version.
        """
        orig = Path(path)
        path = orig if orig.exists() else _npz_path(orig)
        if not path.exists():
            raise CheckpointError(f"checkpoint file not found: {orig}")
        try:
            with np.load(path) as data:
                if int(data["version"]) != _FORMAT_VERSION:
                    raise FormatError(
                        f"checkpoint version {int(data['version'])} not supported"
                    )
                ck = cls(
                    v=data["v"], w=data["w"], eta=data["eta"],
                    next_m=int(data["next_m"]),
                    n_moments=int(data["n_moments"]),
                    a=float(data["a"]), b=float(data["b"]),
                    # pre-precision checkpoints carry no tag: fp64
                    precision=(
                        str(data["precision"])
                        if "precision" in data.files else "fp64"
                    ),
                    # pre-elastic checkpoints carry no tag: per-rank
                    eta_grid=(
                        int(data["eta_grid"])
                        if "eta_grid" in data.files else 0
                    ),
                )
                stored = str(data["digest"]) if "digest" in data.files else None
        except FormatError:
            raise
        except (zipfile.BadZipFile, KeyError, OSError, ValueError, EOFError) as exc:
            raise CheckpointError(
                f"checkpoint {path} is truncated or corrupt: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if stored is not None and stored != ck._digest():
            raise CheckpointError(
                f"checkpoint {path} failed its integrity check "
                "(stored digest does not match the state)"
            )
        return ck


def resolve_resume(
    resume_from: "KpmCheckpoint | str | Path",
    n_moments: int,
    a: float,
    b: float,
    metrics: MetricsRegistry = NULL_METRICS,
    precision: Precision | str | None = None,
    eta_grid: int = 0,
) -> KpmCheckpoint:
    """Load (if needed) and validate a resume checkpoint against the run.

    Shared by the serial, simulated, and multiprocess engines so every
    entry point enforces the same compatibility rules: matching moment
    count, matching spectral map, matching precision profile, and
    matching eta reduction grid — a cross-precision resume would
    silently re-round (or worse, re-expand) the recurrence state, and a
    cross-grid resume would splice an eta prefix reduced in a different
    order, so both are refused outright.
    """
    if isinstance(resume_from, KpmCheckpoint):
        ck = resume_from
    else:
        with metrics.span("checkpoint_load", phase="ckpt"):
            ck = KpmCheckpoint.load(resume_from)
    if ck.n_moments != n_moments:
        raise FormatError(
            f"checkpoint was taken for M={ck.n_moments}, "
            f"requested M={n_moments}"
        )
    if not (np.isclose(ck.a, a) and np.isclose(ck.b, b)):
        raise FormatError("checkpoint spectral map mismatch")
    prec = get_precision(precision)
    if ck.precision != prec.name:
        raise CheckpointError(
            f"checkpoint was taken under precision {ck.precision!r} but "
            f"this run uses {prec.name!r}; resume with "
            f"precision={ck.precision!r} (the recurrence state cannot be "
            "converted across storage profiles without silently changing "
            "the results)"
        )
    if ck.eta_grid != int(eta_grid):
        raise CheckpointError(
            f"checkpoint was taken with eta_grid={ck.eta_grid} but this "
            f"run uses eta_grid={int(eta_grid)}; the spliced eta prefix "
            "is only bitwise-composable under the same reduction order"
        )
    return ck


def checkpointed_eta(
    H: CSRMatrix | SellMatrix,
    scale: SpectralScale,
    n_moments: int,
    start_block: np.ndarray,
    *,
    checkpoint_every: int = 0,
    checkpoint_path: str | Path | None = None,
    resume_from: KpmCheckpoint | str | Path | None = None,
    counters: PerfCounters = NULL_COUNTERS,
    backend: KernelBackend | str = "auto",
    metrics: MetricsRegistry = NULL_METRICS,
    fault=None,
    precision: Precision | str | None = None,
    progress=None,
    progress_every: int = 0,
    threads: int | str | None = None,
    simd: str | None = None,
) -> np.ndarray:
    """Stage-2 eta computation with optional checkpoint/restart.

    Runs the one blocked driver as a one-rank world
    (:func:`repro.dist.kpm_parallel.solve_eta`), so the results are
    bitwise those of :func:`repro.core.moments.compute_eta` with the
    ``aug_spmmv`` engine and of a one-rank sim or mp run. With
    ``checkpoint_every = k > 0`` the state is saved to
    ``checkpoint_path`` after every k inner iterations; pass
    ``resume_from`` (a checkpoint object or path) to continue an
    interrupted run — ``start_block`` is then ignored.  The resume is
    bit-exact under any one ``backend``; checkpoints themselves are
    backend-agnostic (plain recurrence state), so a run interrupted on
    one backend can resume on another, matching to floating-point
    reduction-order tolerance.  ``metrics`` records per-kernel spans
    plus ``checkpoint_save`` / ``checkpoint_load`` I/O spans.
    ``fault`` is an optional rank-0 :class:`~repro.resil.FaultInjector`
    whose plan is probed before the bootstrap (m=0) and at the top of
    every inner iteration, exactly where the distributed engines probe
    it.  ``precision`` selects the storage profile; checkpoints record
    it and a resume under a different profile raises
    :class:`CheckpointError`.

    ``progress`` is an optional streaming callback fired as
    ``progress(n_eta, eta_prefix)`` after every ``progress_every`` inner
    iterations, where ``eta_prefix`` holds the first ``n_eta`` scalar
    products of every column — the serve layer's partial-spectrum
    stream.  The callback runs on the compute path: keep it cheap and
    never let it raise.
    """
    from repro.dist.kpm_parallel import solve_eta

    return solve_eta(
        H, scale, n_moments, start_block,
        checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
        resume_from=resume_from, counters=counters, backend=backend,
        metrics=metrics,
        fault_plan=None if fault is None else fault.plan,
        attempt=1 if fault is None else fault.attempt,
        precision=precision, progress=progress,
        progress_every=progress_every, threads=threads, simd=simd,
    )[0]
