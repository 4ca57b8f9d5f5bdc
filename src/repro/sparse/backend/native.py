"""Compile-on-first-use loader for the native C kernels.

The shared library is built from ``_kernels.c`` with whatever C compiler
the host offers (``$CC``, else ``gcc``, else ``cc``) at ``-O3``; the
resulting ``.so`` is cached under a per-user directory keyed by a hash of
the source text, so recompilation only happens when the kernels change.
Everything degrades gracefully: if no compiler is present, compilation
fails, or ``REPRO_NATIVE_DISABLE`` is set in the environment, the loader
reports the native backend as unavailable and callers fall back to the
NumPy backend (see :mod:`repro.sparse.backend`).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernels.c")

#: Compiler flags: -march=native lets the preprocessor see AVX2/F16C so
#: the explicitly vectorized ``_simd`` kernels are compiled in;
#: -funroll-loops measurably helps the short fixed-trip k loops over the
#: block width.  No -ffast-math — fp semantics must match NumPy's.
#:
#: ``-ffp-contract=off -fno-tree-vectorize`` pin the *scalar* kernels to
#: the literal source DAG.  This is what makes ``simd=on|off`` bitwise
#: reproducible: the hand-written intrinsic kernels replay exactly that
#: DAG lane-by-lane, but GCC's autovectorizer does not — e.g. GCC 12's
#: SLP pass contracts the interleaved complex multiply pattern into
#: ``vfmaddsub231pd`` even under ``-ffp-contract=off``, silently fusing
#: the rounding the flag was supposed to forbid.  With autovectorization
#: off the scalar build computes what the C says, the SIMD build matches
#: it bitwise by construction, and the old shape-dependent ``novector``
#: pragmas become redundant belt-and-suspenders.
#:
#: ``-fopenmp`` is appended by :func:`_cflags` when the compiler accepts
#: it (probed once, cached); without it the ``_mt`` kernels run their
#: block loop serially with bitwise-identical results.
_CFLAGS = [
    "-O3",
    "-march=native",
    "-funroll-loops",
    "-std=c11",
    "-ffp-contract=off",
    "-fno-tree-vectorize",
    "-fPIC",
    "-shared",
]

_openmp_supported: bool | None = None


def _probe_openmp(cc: str) -> bool:
    """Whether ``cc`` accepts ``-fopenmp`` (tiny probe compile, cached).

    The verdict is memoized in-process and persisted as a marker file in
    the cache directory so mp worker processes skip the probe.
    """
    global _openmp_supported
    if _openmp_supported is not None:
        return _openmp_supported
    marker = _cache_dir() / "omp.flag"
    try:
        cached = marker.read_text().strip()
        if cached in ("1", "0"):
            _openmp_supported = cached == "1"
            return _openmp_supported
    except OSError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "probe.c"
        src.write_text(
            "#ifdef _OPENMP\n#include <omp.h>\n#endif\n"
            "int main(void) { return 0; }\n"
        )
        try:
            proc = subprocess.run(
                [cc, "-fopenmp", "-o", str(Path(tmp) / "probe"), str(src)],
                capture_output=True, timeout=30,
            )
            ok = proc.returncode == 0
        except (OSError, subprocess.TimeoutExpired):
            ok = False
    _openmp_supported = ok
    try:
        marker.parent.mkdir(parents=True, exist_ok=True)
        marker.write_text("1" if ok else "0")
    except OSError:
        pass
    return ok


def _cflags(cc: str | None = None) -> list[str]:
    """The effective compiler flags, including ``-fopenmp`` if usable."""
    cc = cc or _find_compiler()
    if cc is not None and _probe_openmp(cc):
        return [*_CFLAGS, "-fopenmp"]
    return list(_CFLAGS)


# ---------------------------------------------------------------------
# CPU-feature detection and the SIMD compile probe
# ---------------------------------------------------------------------

#: Feature flags that change which kernels end up in the ``.so`` (and
#: whether a cached one is safe to execute here); everything else the
#: CPU advertises is irrelevant to the cache key.
_SIMD_FEATURES = ("avx2", "f16c", "fma")

_HW_FEATURES: frozenset[str] | None = None
_SIMD_PROBE: dict[str, int] = {}


def cpu_features() -> frozenset[str]:
    """The host CPU's feature flags (cpuid, via ``/proc/cpuinfo``).

    Lower-cased; empty on platforms without ``/proc`` — the compile
    probe then stands in, since ``-march=native`` only enables what the
    compiler itself detected on this machine.
    """
    global _HW_FEATURES
    if _HW_FEATURES is None:
        feats: set[str] = set()
        try:
            with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
                for line in fh:
                    if line.lower().startswith(("flags", "features")):
                        feats.update(line.split(":", 1)[1].lower().split())
                        break
        except OSError:
            pass
        _HW_FEATURES = frozenset(feats)
    return _HW_FEATURES


def _probe_simd_mask(cc: str) -> int:
    """What ``cc -march=native`` will vectorize: bit0 AVX2, bit1 F16C.

    A preprocessor-only probe (``-dM -E``) — fast, no binary, and it
    answers the exact question the ``#if`` gates in ``_kernels.c`` ask,
    so its verdict always matches what :func:`compile_library` builds.
    """
    cached = _SIMD_PROBE.get(cc)
    if cached is not None:
        return cached
    mask = 0
    try:
        proc = subprocess.run(
            [cc, *(f for f in _CFLAGS if f.startswith("-march")), "-dM", "-E", "-"],
            input="", capture_output=True, text=True, timeout=30,
        )
        if proc.returncode == 0:
            macros = proc.stdout
            if "__AVX2__" in macros:
                mask |= 1
                if "__F16C__" in macros:
                    mask |= 2
    except (OSError, subprocess.TimeoutExpired):
        mask = 0
    _SIMD_PROBE[cc] = mask
    return mask


def _feature_fingerprint(cc: str | None) -> str:
    """Cache-key component tying a built ``.so`` to this host's ISA.

    ``-march=native`` bakes host-specific instruction selection into the
    binary while leaving the source+flags hash unchanged, so a container
    migrated from an AVX2 host to one without it would happily dlopen a
    library it cannot execute.  Folding the cpuid flags and the compile
    probe's verdict into the key forces a rebuild the moment either
    changes.
    """
    hw = ",".join(f for f in _SIMD_FEATURES if f in cpu_features())
    probe = _probe_simd_mask(cc) if cc is not None else 0
    return f"hw={hw};probe={probe}"


def simd_compiled_mask() -> int:
    """SIMD kernel families present in the loaded library.

    Bit 0: AVX2/FMA-lane kernels; bit 1: F16C half-precision kernels.
    0 when the native library is unavailable or was built scalar-only.
    """
    lib = load_library()
    if lib is None:
        return 0
    return int(lib.repro_simd_compiled())


def simd_available() -> bool:
    """True when the ``_simd`` kernels exist and are not disabled.

    ``REPRO_SIMD_DISABLE`` is consulted per call so the forced-scalar
    drill can flip it without reloading the library.
    """
    if os.environ.get("REPRO_SIMD_DISABLE"):
        return False
    return bool(simd_compiled_mask() & 1)


def simd_f16c_available() -> bool:
    """True when the F16C half-precision SIMD kernels are usable."""
    if os.environ.get("REPRO_SIMD_DISABLE"):
        return False
    return bool(simd_compiled_mask() & 2)


def _compile_timeout() -> float:
    """Seconds the compiler subprocess may run before we give up.

    ``REPRO_NATIVE_COMPILE_TIMEOUT`` overrides the default; a malformed
    or non-positive value falls back to the default rather than crashing
    (or, for values ``<= 0``, instantly "timing out" every compile and
    silently quarantining the native backend) — the whole point of this
    knob is that a compile problem must never take the run down with it.
    """
    raw = os.environ.get("REPRO_NATIVE_COMPILE_TIMEOUT")
    if raw:
        try:
            value = float(raw)
        except ValueError:
            return COMPILE_TIMEOUT
        if value > 0:
            return value
    return COMPILE_TIMEOUT


#: Default compiler-subprocess timeout (seconds); see
#: :envvar:`REPRO_NATIVE_COMPILE_TIMEOUT`.
COMPILE_TIMEOUT = 120.0

_lib: ctypes.CDLL | None = None
_load_attempted = False
_load_error: str | None = None

_P_F64 = ctypes.POINTER(ctypes.c_double)
_P_F32 = ctypes.POINTER(ctypes.c_float)
_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_I32 = ctypes.POINTER(ctypes.c_int32)
_P_U16 = ctypes.POINTER(ctypes.c_uint16)

#: Exported kernel-name suffix per precision profile, mapped to the
#: (matrix values, vector storage, column indices) pointer types that
#: profile streams.  Mirrors the macro expansions in ``_kernels.c``:
#: float16 vectors travel as their raw uint16 bit patterns.
KERNEL_SUFFIXES = {
    "": (_P_F64, _P_F64, _P_I32),
    "_f32": (_P_F32, _P_F32, _P_I32),
    "_f32u16": (_P_F32, _P_F32, _P_U16),
    "_f16v": (_P_F32, _P_U16, _P_I32),
    "_f16vu16": (_P_F32, _P_U16, _P_U16),
}

#: Argtype templates shared by every typed expansion of a kernel:
#: ``n`` int64 scalar, ``s`` double scalar, ``L`` int64* (indptr /
#: chunk arrays / row lists), ``I`` column indices*, ``V`` matrix
#: values*, ``X`` vector storage*, ``E`` double* (eta outputs — always
#: fp64, the kernels accumulate the dots in double in every profile).
_SIGNATURES = {
    "repro_csr_spmv": "nLIVXX",
    "repro_csr_spmmv": "nnLIVXX",
    "repro_csr_aug_spmv": "nLIVXXssEE",
    "repro_csr_aug_spmmv": "nnLIVXXssEE",
    # split (task-mode) variants: a contiguous [row0, row1) range and a
    # gathered row list, both absolute on the original CSR arrays
    "repro_csr_aug_spmv_range": "nnLIVXXssEE",
    "repro_csr_aug_spmv_rows": "nLLIVXXssEE",
    "repro_csr_aug_spmmv_range": "nnnLIVXXssEE",
    "repro_csr_aug_spmmv_rows": "nLnLIVXXssEE",
    "repro_sell_spmv": "nnnLLLIVXX",
    "repro_sell_spmmv": "nnnnLLLIVXX",
    "repro_sell_aug_spmv": "nnnLLLIVXXssEE",
    "repro_sell_aug_spmmv": "nnnnLLLIVXXssEE",
    # threaded (_mt) variants: an extra n_threads scalar after r; the
    # block-grid reduction keeps fp64 bitwise across thread counts
    "repro_csr_aug_spmmv_mt": "nnnLIVXXssEE",
    "repro_csr_aug_spmmv_range_mt": "nnnnLIVXXssEE",
    "repro_csr_aug_spmmv_rows_mt": "nLnnLIVXXssEE",
    "repro_sell_aug_spmmv_mt": "nnnnnLLLIVXXssEE",
}


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    home = Path.home()
    if os.access(home, os.W_OK):
        return home / ".cache" / "repro-native"
    return Path(tempfile.gettempdir()) / "repro-native"


def _find_compiler() -> str | None:
    for cand in (os.environ.get("CC"), "gcc", "cc"):
        if cand and shutil.which(cand):
            return cand
    return None


def _lib_path() -> Path:
    # Key on the flags too: a flag change alters codegen (and can alter
    # rounding), so it must miss the cache just like a source change.
    # The feature fingerprint keys the host ISA in as well — see
    # _feature_fingerprint for why -march=native makes that mandatory.
    cc = _find_compiler()
    recipe = (
        _SOURCE.read_bytes()
        + "\0".join(_cflags(cc)).encode()
        + b"\0" + _feature_fingerprint(cc).encode()
    )
    tag = hashlib.sha256(recipe).hexdigest()[:16]
    suffix = sysconfig.get_config_var("SHLIB_SUFFIX") or ".so"
    return _cache_dir() / f"repro_kernels-{tag}{suffix}"


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    for suffix, (vp, xp, ip) in KERNEL_SUFFIXES.items():
        codes = {
            "n": ctypes.c_int64,
            "s": ctypes.c_double,
            "L": _P_I64,
            "I": ip,
            "V": vp,
            "X": xp,
            "E": _P_F64,
        }
        for base, sig in _SIGNATURES.items():
            fn = getattr(lib, base + suffix)
            fn.argtypes = [codes[ch] for ch in sig]
            fn.restype = None
            # The vectorized twins share the scalar signature; they only
            # exist when the build host's compiler saw AVX2 (F16C for the
            # half-precision profiles), so probe instead of assuming.
            try:
                simd_fn = getattr(lib, base + suffix + "_simd")
            except AttributeError:
                continue
            simd_fn.argtypes = [codes[ch] for ch in sig]
            simd_fn.restype = None
    lib.repro_simd_compiled.argtypes = []
    lib.repro_simd_compiled.restype = ctypes.c_int32
    return lib


def compile_library(verbose: bool = False) -> Path:
    """Compile ``_kernels.c`` into the cache and return the .so path.

    Raises ``RuntimeError`` when no compiler is available or the compile
    fails; callers wanting the graceful path use :func:`load_library`.
    """
    path = _lib_path()
    if path.exists():
        return path
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler found ($CC, gcc, cc)")
    path.parent.mkdir(parents=True, exist_ok=True)
    # build into a temp name, then atomic-rename: concurrent processes
    # compiling the same hash never observe a half-written library
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    cmd = [cc, *_cflags(cc), "-o", str(tmp), str(_SOURCE), "-lm"]
    if verbose:
        print("$ " + " ".join(cmd))
    timeout = _compile_timeout()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        tmp.unlink(missing_ok=True)
        raise RuntimeError(
            f"native kernel compilation timed out after {timeout:.0f}s ({cc})"
        ) from None
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise RuntimeError(
            f"native kernel compilation failed ({cc}):\n{proc.stderr.strip()}"
        )
    os.replace(tmp, path)
    return path


def load_library(force_reload: bool = False) -> ctypes.CDLL | None:
    """Return the compiled kernel library, or None when unavailable."""
    global _lib, _load_attempted, _load_error
    if force_reload:
        _lib, _load_attempted, _load_error = None, False, None
    if _lib is not None:
        return _lib
    if _load_attempted:
        return None
    _load_attempted = True
    if os.environ.get("REPRO_NATIVE_DISABLE"):
        _load_error = "disabled via REPRO_NATIVE_DISABLE"
        return None
    try:
        _lib = _declare(ctypes.CDLL(str(compile_library())))
    except (RuntimeError, OSError) as exc:
        _load_error = str(exc)
        if _load_error.startswith("native kernel compilation"):
            # A compiler exists but failed (or timed out): this is worth
            # one loud warning and a health counter — unlike the silent
            # no-compiler / disabled cases, something on this host is
            # broken, yet the run must proceed on the numpy kernels.
            import warnings

            from repro.obs import GLOBAL_METRICS

            GLOBAL_METRICS.count("backend.native.compile_failures")
            warnings.warn(
                f"falling back to the numpy kernels: {_load_error}",
                RuntimeWarning,
                stacklevel=2,
            )
        return None
    return _lib


def native_available() -> bool:
    """True when the compiled kernels can be (or have been) loaded."""
    return load_library() is not None


def native_error() -> str | None:
    """Why the native backend is unavailable (None when it is fine)."""
    load_library()
    return _load_error


#: Set once this process has run a native kernel on more than one
#: thread.  libgomp keeps that OpenMP team alive and is not fork-safe: a
#: forked child that opens a parallel region of its own waits forever
#: for team threads that did not survive the fork.
_threaded = False


def note_threads(threads: int | None) -> int | None:
    """Pass a kernel call's thread count through, remembering whether
    it opens a multi-thread region (see :func:`fork_safe`)."""
    global _threaded
    if threads is not None and threads > 1:
        _threaded = True
    return threads


def fork_safe() -> bool:
    """Whether a forked child of this process may run threaded kernels:
    False once the process itself has run one on more than one thread."""
    return not _threaded


# ---------------------------------------------------------------------
# array marshalling
# ---------------------------------------------------------------------

def _pc(arr: np.ndarray):
    """Complex128 C-contiguous array as a double* (interleaved re, im)."""
    return arr.ctypes.data_as(_P_F64)


def _pf32(arr: np.ndarray):
    """Complex64 C-contiguous array as a float* (interleaved re, im)."""
    return arr.ctypes.data_as(_P_F32)


def _pu16(arr: np.ndarray):
    """uint16 indices — or float16 pair storage as raw uint16 bits."""
    return arr.ctypes.data_as(_P_U16)


def _pvec(arr: np.ndarray):
    """Value/vector storage pointer for any precision profile's dtype."""
    dt = arr.dtype
    if dt == np.complex128:
        return arr.ctypes.data_as(_P_F64)
    if dt == np.complex64:
        return arr.ctypes.data_as(_P_F32)
    if dt == np.float16:
        return arr.ctypes.data_as(_P_U16)
    raise TypeError(f"no native storage marshalling for dtype {dt}")


def _pidx(arr: np.ndarray):
    """Column-index pointer: int32 (wide) or uint16 (compressed)."""
    dt = arr.dtype
    if dt == np.int32:
        return arr.ctypes.data_as(_P_I32)
    if dt == np.uint16:
        return arr.ctypes.data_as(_P_U16)
    raise TypeError(f"no native index marshalling for dtype {dt}")


def _pi64(arr: np.ndarray):
    return arr.ctypes.data_as(_P_I64)


def _pi32(arr: np.ndarray):
    return arr.ctypes.data_as(_P_I32)
