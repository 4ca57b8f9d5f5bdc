"""High-level KPM solver facade.

:class:`KPMSolver` wires the full pipeline together — spectral scaling,
stochastic start vectors, a moment engine (any of the paper's three
optimization stages), kernel damping, and reconstruction — behind the
three physics-facing queries of the paper's application section:

* :meth:`KPMSolver.dos` — density of states (paper Fig. 1),
* :meth:`KPMSolver.ldos` — site-resolved local DOS (paper Fig. 2, left),
* :meth:`KPMSolver.spectral_function` — momentum-resolved A(k, E)
  (paper Fig. 2, right),

plus :meth:`KPMSolver.eigencount` for the eigenvalue-counting use case of
the paper's Refs. [8], [22].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.moments import MomentEngine, compute_eta, eta_to_moments
from repro.core.reconstruct import integrate_density, reconstruct_dos
from repro.core.scaling import SpectralScale, gershgorin_scale, lanczos_scale
from repro.core.stochastic import ldos_moments, make_block_vector, unit_block_vector
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.physics.hamiltonian import plane_wave_vector
from repro.physics.lattice import Lattice3D
from repro.sparse.backend import KernelBackend
from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import SellMatrix
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.precision import Precision, get_precision
from repro.util.validation import check_positive


@dataclass
class DOSResult:
    """Reconstructed density of states.

    ``rho`` integrates to (approximately) the matrix dimension N —
    it counts eigenvalues per unit energy, like paper Eq. (2).
    """

    energies: np.ndarray
    rho: np.ndarray
    moments: np.ndarray
    scale: SpectralScale
    n_vectors: int
    kernel: str

    def normalized(self) -> "DOSResult":
        """Return a copy whose density integrates to 1."""
        n = self.moments[0]
        return DOSResult(
            self.energies, self.rho / n, self.moments / n,
            self.scale, self.n_vectors, self.kernel,
        )


@dataclass
class LDOSResult:
    """Site-resolved local density of states rho_i(E)."""

    energies: np.ndarray
    rho: np.ndarray  # (n_sites_queried, n_energies)
    rows: np.ndarray
    scale: SpectralScale
    kernel: str

    def at_energy(self, energy: float) -> np.ndarray:
        """LDOS of every queried row at the grid point nearest ``energy``."""
        idx = int(np.argmin(np.abs(self.energies - energy)))
        return self.rho[:, idx]


def dos_result_from_moments(
    mu: np.ndarray,
    scale: SpectralScale,
    *,
    kernel: str = "jackson",
    n_vectors: int = 1,
    energies: np.ndarray | None = None,
    n_points: int | None = None,
) -> DOSResult:
    """Reconstruct a :class:`DOSResult` from precomputed trace moments.

    Moments are kernel-free: damping happens here, at reconstruction.
    This is the path the serving layer takes on a moment-cache hit — a
    repeat query with a different kernel re-damps the stored ``mu``
    instead of re-running M/2 operator applications — and it produces
    exactly what :meth:`KPMSolver.dos` would for the same moments.
    """
    mu = np.asarray(mu)
    n_moments = mu.shape[-1]
    pts = n_points if n_points is not None else max(2 * n_moments, 256)
    e_grid, rho = reconstruct_dos(
        mu, scale, energies=energies, n_points=pts, kernel=kernel
    )
    return DOSResult(e_grid, rho, mu, scale, n_vectors, kernel)


@dataclass
class SpectralFunctionResult:
    """Momentum-resolved spectral function A(k, E)."""

    energies: np.ndarray
    a_ke: np.ndarray  # (n_k, n_energies)
    k_points: list = field(default_factory=list)

    def band_maximum(self) -> np.ndarray:
        """E position of the strongest spectral weight for each k."""
        return self.energies[np.argmax(self.a_ke, axis=1)]


class KPMSolver:
    """Kernel Polynomial Method solver for a sparse Hermitian operator.

    Parameters
    ----------
    H:
        Operator in CSR or SELL-C-sigma storage.
    n_moments:
        Chebyshev moments M (even). Energy resolution ~ spectral width / M.
    n_vectors:
        Stochastic vectors R (the paper's block width).
    scale:
        Explicit spectral map; default: estimated via ``bounds``.
    bounds:
        ``'lanczos'`` (tight, default) or ``'gershgorin'`` (rigorous).
    engine:
        Moment engine — ``'naive'``, ``'aug_spmv'`` or ``'aug_spmmv'``
        (paper optimization stages 0/1/2). Identical results, different
        kernel structure and speed.
    kernel:
        Damping kernel for reconstruction ('jackson' by default).
    seed:
        RNG seed for the stochastic vectors.
    counters:
        Optional traffic/flop accounting sink.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` recording per-kernel
        wall-time spans (with the counters' traffic attributed span by
        span) and, when built with a :class:`~repro.obs.Trace`, a JSONL
        trace of every span.  Free with the null default.
    backend:
        Kernel backend executing the inner iterations — ``'auto'``
        (native C kernels when compilable, else numpy), ``'numpy'``,
        ``'native'``, or a :class:`~repro.sparse.backend.KernelBackend`.
    dist_engine:
        ``None`` (serial, default), ``'sim'`` (sequential SPMD
        simulator) or ``'mp'`` (real worker processes over shared
        memory).  Both run the paper's data-parallel scheme: weighted
        row partition, halo exchange, one deferred global reduction —
        and produce the serial moments: bit for bit on one rank (a
        serial solve is that one-rank world), to reduction-order
        tolerance on more.
    workers:
        Rank count for the distributed engines (ignored when
        ``dist_engine`` is None, and when ``weights`` are given).
    weights:
        Optional per-rank partition weights (heterogeneous nodes,
        paper Section VI-B); equal split by default.  The world has one
        rank per weight, supervised or not.
    overlap:
        Communication/computation overlap for the distributed engines
        (task-mode pipelining): ``'on'``/``True``, ``'off'``/``False``,
        or ``'auto'`` (the default — on whenever more than one rank
        runs).  Ignored in serial solves.  Overlapped and synchronous
        schedules agree to reduction-order tolerance; the two engines
        agree *bitwise* with each other per schedule.
    resilience:
        Optional :class:`~repro.resil.Resilience` configuration.  When
        set, every moment computation runs under a
        :class:`~repro.resil.Supervisor`: failed attempts are retried
        under its policy, resumed from the latest checkpoint, and
        degraded ``mp → sim → serial`` (and ``native → numpy``) instead
        of failing the solve.  The last run's
        :class:`~repro.resil.ResilienceReport` is exposed as
        ``solver.resilience_report``.
    precision:
        Storage profile (:mod:`repro.util.precision`): ``'fp64'``
        (default — bitwise the historical path), ``'fp32'`` (complex64
        values and vectors, fp64 dot accumulation, compressed column
        indices), or ``'fp16v'`` (float16 pair vectors, fp32 compute).
        Threaded through every engine — serial, distributed, supervised
        — and recorded in checkpoints.  LDOS and the naive engine run
        ``fp16v`` through the backends' decode pass (half-storage
        SpM(M)V, fp32 BLAS-1).
    threads:
        Intra-rank kernel thread count for the native backend: ``None``
        (default) keeps the sequential kernels, an int routes the
        augmented steps through the block-grid threaded variants, and
        ``'auto'`` budgets the host's cores (whole machine serially,
        ``cores // workers`` per rank distributed).  fp64 moments are
        bitwise identical at every setting.
    simd:
        Native backend vectorized-kernel selector: ``None``/``'auto'``
        (use the AVX2/FMA kernels when the compiled library has them),
        ``'on'`` (request them; falls back to scalar with a metrics
        counter when unavailable), or ``'off'`` (scalar kernels).  fp64
        moments are bitwise identical either way — a pure performance
        knob, threaded through every engine like ``threads``.
    rebalance:
        Elastic execution (:mod:`repro.dist.elastic`): ``'off'``/None
        (default), ``'auto'``/True (default policy), a skew threshold,
        or a :class:`~repro.dist.elastic.RebalancePolicy`.  With
        ``dist_engine='mp'`` the moments run segmented under the elastic
        driver — live skew rebalancing, worker-death recovery onto the
        survivors — and with ``dist_engine='sim'`` (or a degraded rung)
        the same grid-eta reduction runs on a fixed world, so fp64
        moments are bitwise identical across all of it.  The last run's
        :class:`~repro.dist.elastic.ElasticReport` is exposed as
        ``solver.elastic_report``.
    membership:
        Planned membership events for elastic runs
        (:class:`~repro.dist.elastic.MembershipPlan` or its string form,
        e.g. ``'join:m=8;leave:m=16,rank=0'``).
    """

    def __init__(
        self,
        H: CSRMatrix | SellMatrix,
        n_moments: int = 512,
        n_vectors: int = 8,
        *,
        scale: SpectralScale | None = None,
        bounds: str = "lanczos",
        engine: MomentEngine | str = MomentEngine.AUG_SPMMV,
        kernel: str = "jackson",
        vector_kind: str = "phase",
        seed: int | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
        backend: KernelBackend | str = "auto",
        dist_engine: str | None = None,
        workers: int = 2,
        weights: list[float] | None = None,
        overlap: bool | str | None = "auto",
        resilience=None,
        precision: Precision | str | None = None,
        threads: int | str | None = None,
        simd: str | None = None,
        rebalance=None,
        membership=None,
    ) -> None:
        check_positive("n_moments", n_moments)
        check_positive("n_vectors", n_vectors)
        self.precision = get_precision(precision)
        self.H = H
        self.n_moments = int(n_moments)
        self.n_vectors = int(n_vectors)
        self.engine = MomentEngine(engine)
        self.kernel = kernel
        self.backend = backend
        self.vector_kind = vector_kind
        self.seed = seed
        self.counters = counters
        self.metrics = metrics
        if dist_engine not in (None, "sim", "mp"):
            raise ValueError(
                f"dist_engine must be None, 'sim' or 'mp', got {dist_engine!r}"
            )
        if dist_engine is not None:
            check_positive("workers", workers)
            if not isinstance(H, CSRMatrix):
                raise ValueError(
                    "distributed engines partition CSR operators; convert "
                    "SELL-C-sigma back with to_csr() first"
                )
        self.dist_engine = dist_engine
        self.workers = int(workers)
        self.weights = list(weights) if weights is not None else None
        # validate eagerly: a typo'd overlap= fails at construction, not
        # deep inside a worker process
        from repro.dist.overlap import resolve_overlap

        resolve_overlap(overlap, self.workers)
        self.overlap = overlap
        if threads is not None and threads != "auto":
            check_positive("threads", int(threads))
            threads = int(threads)
        self.threads = threads
        # validate eagerly, like overlap/rebalance: a typo'd simd= fails
        # at construction, not deep inside an engine or worker process
        from repro.sparse.backend import resolve_simd

        self.simd = None if simd is None else resolve_simd(simd)
        self.resilience = resilience
        # validate eagerly, like overlap: a typo'd rebalance= fails here
        from repro.dist.elastic import resolve_rebalance

        self.rebalance = resolve_rebalance(rebalance)
        self.membership = membership
        if self.rebalance is not None and dist_engine is None \
                and resilience is None:
            raise ValueError(
                "rebalance requires a distributed engine "
                "(dist_engine='mp'/'sim') or a resilience config"
            )
        #: the ElasticReport of the most recent elastic solve; None
        #: until one runs (or when rebalance is off).
        self.elastic_report = None
        #: the communicator of the most recent blocked solve (message
        #: log, per-rank accounting; a one-rank SimWorld for a serial
        #: solve); None until one runs.
        self.world = None
        #: the ResilienceReport of the most recent supervised solve;
        #: None until one runs (or when resilience is not configured).
        self.resilience_report = None
        if scale is not None:
            self.scale = scale
        elif bounds == "gershgorin":
            if not isinstance(H, CSRMatrix):
                raise ValueError("gershgorin bounds require a CSRMatrix")
            self.scale = gershgorin_scale(H)
        elif bounds == "lanczos":
            self.scale = lanczos_scale(H, seed=seed)
        else:
            raise ValueError(
                f"bounds must be 'lanczos' or 'gershgorin', got {bounds!r}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        spec,
        n_moments: int = 512,
        n_vectors: int = 8,
        *,
        scale_seed: int | None = 0,
        **kwargs,
    ) -> "KPMSolver":
        """Build a solver from a canonical operator spec.

        ``spec`` is a :class:`~repro.serve.spec.HamiltonianSpec` (or its
        ``to_dict()`` form).  The spectral map is pinned with
        ``scale_seed`` — the same convention the serving layer uses to
        make a request's moments a pure function of its content key —
        so a solo ``from_spec`` solve is the bitwise reference for a
        coalesced server solve of the same spec.  The built model stays
        available as ``solver.model`` (site geometry for LDOS row
        selection etc.).
        """
        from repro.serve.spec import HamiltonianSpec

        if isinstance(spec, dict):
            spec = HamiltonianSpec.from_dict(spec)
        H, model = spec.build()
        if "scale" not in kwargs:
            kwargs["scale"] = lanczos_scale(H, seed=scale_seed)
        solver = cls(H, n_moments, n_vectors, **kwargs)
        solver.model = model
        return solver

    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return self.H.n_rows

    def _start_block(self) -> np.ndarray:
        return make_block_vector(
            self.dimension, self.n_vectors, self.vector_kind, self.seed
        )

    # ------------------------------------------------------------------
    def moments(self) -> np.ndarray:
        """Raw stochastic-trace Chebyshev moments mu_m ~= tr[T_m(H~)].

        The blocked engine runs through the one engine dispatch
        (:func:`repro.dist.kpm_parallel.solve_eta`): serially as a
        one-rank world, or on ``dist_engine``'s simulated or real ranks.
        One rank returns the serial moments bit for bit, more ranks to
        reduction-order tolerance.  With ``resilience`` configured the
        computation runs under the fault-tolerance supervisor (retries,
        checkpoint recovery, engine degradation).
        """
        block = self._start_block()
        if self.resilience is None and self.dist_engine is None \
                and self.engine is not MomentEngine.AUG_SPMMV:
            # the per-vector ablation engines (paper stages 0 and 1)
            eta = compute_eta(
                self.H, self.scale, self.n_moments, block, self.engine,
                self.counters, backend=self.backend, metrics=self.metrics,
                precision=self.precision, threads=self.threads,
                simd=self.simd,
            )
            return eta_to_moments(eta).mean(axis=0).real
        run = dict(
            engine=self.dist_engine or "serial", workers=self.workers,
            weights=self.weights, backend=self.backend, overlap=self.overlap,
            precision=self.precision, threads=self.threads, simd=self.simd,
        )
        if self.resilience is not None:
            from repro.resil import Supervisor

            sup = Supervisor.from_config(
                self.resilience, metrics=self.metrics,
                counters=self.counters, seed=self.seed,
            )
            if self.rebalance is not None:
                # solver-level elastic knobs override the Resilience config
                sup.rebalance = self.rebalance
                sup.membership = self.membership or sup.membership
            eta = sup.run_eta(self.H, self.scale, self.n_moments, block, **run)
            self.world, elastic = sup.last_world, sup.last_elastic_report
            self.resilience_report = sup.report
        else:
            from repro.dist.kpm_parallel import solve_eta

            eta, self.world, elastic = solve_eta(
                self.H, self.scale, self.n_moments, block,
                rebalance=self.rebalance, membership=self.membership,
                counters=self.counters, metrics=self.metrics, **run,
            )
        if elastic is not None:
            self.elastic_report = elastic
        return eta_to_moments(eta).mean(axis=0).real

    def dos(
        self,
        energies: np.ndarray | None = None,
        n_points: int | None = None,
    ) -> DOSResult:
        """Density of states (eigenvalues per unit energy).

        With ``energies=None`` the density is evaluated on the Chebyshev
        grid (fast DCT path); pass explicit energies to probe arbitrary
        windows, e.g. the narrow zoom of paper Fig. 1 (right panel).
        """
        mu = self.moments()
        pts = n_points if n_points is not None else max(2 * self.n_moments, 256)
        with self.metrics.span("reconstruct", phase="solver"):
            e_grid, rho = reconstruct_dos(
                mu, self.scale, energies=energies, n_points=pts,
                kernel=self.kernel,
            )
        return DOSResult(e_grid, rho, mu, self.scale, self.n_vectors, self.kernel)

    def ldos(
        self,
        rows: np.ndarray,
        energies: np.ndarray | None = None,
        n_points: int | None = None,
        *,
        exact: bool = False,
    ) -> LDOSResult:
        """Local DOS for the given matrix rows.

        ``exact=True`` uses one unit start vector per row (cost scales
        with ``len(rows)``; fine for small row sets / small systems),
        otherwise the stochastic diagonal estimator with ``n_vectors``
        random vectors covers *all* requested rows at once.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if exact:
            block = unit_block_vector(self.dimension, rows)
        else:
            block = self._start_block()
        mu = ldos_moments(
            self.H, self.scale, self.n_moments, block, rows, self.counters,
            backend=self.backend, precision=self.precision, simd=self.simd,
        )
        pts = n_points if n_points is not None else max(2 * self.n_moments, 256)
        e_grid, rho = reconstruct_dos(
            mu, self.scale, energies=energies, n_points=pts, kernel=self.kernel
        )
        return LDOSResult(e_grid, rho, rows, self.scale, self.kernel)

    def spectral_function(
        self,
        lattice: Lattice3D,
        k_points: list,
        energies: np.ndarray | None = None,
        n_points: int | None = None,
        orbitals: list[int] | None = None,
    ) -> SpectralFunctionResult:
        """Momentum-resolved spectral function A(k, E) (paper Fig. 2, right).

        For each k, sums ``<k,o| delta(E - H) |k,o>`` over the requested
        orbitals using exact plane-wave probe states — one KPM run of
        block width ``len(orbitals)`` per k-point.
        """
        orbitals = list(range(4)) if orbitals is None else list(orbitals)
        pts = n_points if n_points is not None else max(2 * self.n_moments, 256)
        all_rho = []
        e_grid = None
        for k in k_points:
            block = np.ascontiguousarray(
                np.stack(
                    [plane_wave_vector(lattice, k, o) for o in orbitals], axis=1
                )
            )
            eta = compute_eta(
                self.H, self.scale, self.n_moments, block,
                self.engine, self.counters, backend=self.backend,
                precision=self.precision, threads=self.threads,
                simd=self.simd,
            )
            mu = eta_to_moments(eta).sum(axis=0).real  # sum over orbitals
            e_grid, rho = reconstruct_dos(
                mu, self.scale, energies=energies, n_points=pts,
                kernel=self.kernel,
            )
            all_rho.append(rho)
        return SpectralFunctionResult(e_grid, np.array(all_rho), list(k_points))

    def eigencount(self, e_lo: float, e_hi: float) -> float:
        """Estimated number of eigenvalues in [e_lo, e_hi].

        Integrates the reconstructed DOS — the eigenvalue-counting
        application of the paper's Refs. [8], [22] (sub-space sizing for
        projection eigensolvers).
        """
        result = self.dos()
        return integrate_density(result.energies, result.rho, e_lo, e_hi)
