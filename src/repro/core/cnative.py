"""Optional native (C) kernel for the float32 screening pre-pass.

The fast-path candidate screen (:mod:`repro.experiments.fastscreen`)
spends most of its time powering two transition chains per candidate
-- ``window_steps`` sparse matvecs against the full and
target-excluded matrices.  scipy's float64 matvec is the exact
reference; the matrices fit in L2, so a float32 matvec is bound by
index gathers and per-row overhead, not by memory.  This module is a
small C kernel, compiled on demand with the system ``gcc``, that fuses
the whole ``steps``-long pair of chains into one call over one
sliced-ELLPACK layout (SELL-C-sigma, Kreutzer et al. 2014) shared by
both chains:

* rows are sorted by descending length (a symmetric permutation) and
  cut into 16-row slices, each stored column-major as wide as its
  longest row, with ``uint16`` column indices;
* the two chains are interleaved in the state vector and in the data
  (``x[2j]`` full, ``x[2j+1]`` excluded), so on AVX-512 one 8-lane
  64-bit gather fetches both chains' values for 8 rows and one 16-lane
  FMA advances them: the accumulators are the output rows, with no
  horizontal reduction and no masked row tail;
* a portable scalar step runs on the same layout where the CPU lacks
  AVX-512 (``__builtin_cpu_supports``, checked at run time).

The kernel is *approximate by construction* (float32); it is only ever
used behind the certified screen, which falls back to the exact float64
path whenever the float32 error bounds cannot certify a verdict.  When
``gcc`` (or a writable cache directory) is unavailable the module
degrades to ``available() == False`` and the screen runs exact-only --
behaviour stays correct, only slower.

Shared objects are cached under :func:`cache_dir`, named by a digest of
the C source together with the compile command, so the one-time compile
(~1 s) is paid per machine and per set of flags, not per run.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from typing import Optional, Tuple

import numpy as np

from repro.obs import sanitize

#: Environment override for the shared-object cache directory.
CACHE_ENV_VAR = "REPRO_CKERNEL_CACHE"

#: Environment kill switch: set to "1" to refuse the native kernel even
#: when it would compile (forces the exact screening path; used by the
#: differential tests to exercise the fallback).
DISABLE_ENV_VAR = "REPRO_NO_CKERNEL"

#: uint16 column indices bound the state-space size the kernel accepts.
MAX_STATES = 65536

#: Rows per slice of the kernel layout: two 8-row halves, one AVX-512
#: gather+FMA each per column.  The C steps are written for 16.
SLICE_ROWS = 16

_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <immintrin.h>

/* Both chains advance one step over the shared sliced-ELLPACK layout.
   Slice s covers permuted rows 16s..16s+15 and holds its entries
   column-major between slice_ptr[s] and slice_ptr[s+1]: each column is
   16 row slots (two 8-row halves), idx[e] the permuted source state of
   slot e and data[2e], data[2e+1] its full and excluded probabilities.
   x and y interleave the chains the same way: x[2j] full, x[2j+1]
   excluded.  Padding slots carry index 0 and zero data. */
static void step_scalar(int64_t n_slices, const int64_t *slice_ptr,
                        const uint16_t *idx, const float *data,
                        const float *x, float *y) {
    for (int64_t s = 0; s < n_slices; s++) {
        /* One half at a time: 16 accumulators stay in registers. */
        for (int h = 0; h < 16; h += 8) {
            float acc[16] = {0.0f};
            for (int64_t e = slice_ptr[s] + h; e < slice_ptr[s + 1];
                 e += 16) {
                const uint16_t *col = idx + e;
                const float *d = data + 2 * e;
                for (int r = 0; r < 8; r++) {
                    const float *xs = x + 2 * (int64_t)col[r];
                    acc[2 * r] += d[2 * r] * xs[0];
                    acc[2 * r + 1] += d[2 * r + 1] * xs[1];
                }
            }
            memcpy(y + 32 * s + 2 * h, acc, sizeof acc);
        }
    }
}

/* AVX-512: per half, one 8-lane 64-bit gather fetches both chains'
   values for 8 rows and one 16-lane FMA advances them; the
   accumulators are the output rows, so nothing is reduced. */
__attribute__((target("avx512f")))
static void step_avx512(int64_t n_slices, const int64_t *slice_ptr,
                        const uint16_t *idx, const float *data,
                        const float *x, float *y) {
    for (int64_t s = 0; s < n_slices; s++) {
        __m512 acc0 = _mm512_setzero_ps(), acc1 = _mm512_setzero_ps();
        for (int64_t e = slice_ptr[s]; e < slice_ptr[s + 1]; e += 16) {
            __m256i lo = _mm256_cvtepu16_epi32(
                _mm_loadu_si128((const __m128i *)(idx + e)));
            __m256i hi = _mm256_cvtepu16_epi32(
                _mm_loadu_si128((const __m128i *)(idx + e + 8)));
            __m512d x0 = _mm512_i32gather_pd(lo, (const void *)x, 8);
            __m512d x1 = _mm512_i32gather_pd(hi, (const void *)x, 8);
            acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(data + 2 * e),
                                   _mm512_castpd_ps(x0), acc0);
            acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(data + 2 * e + 16),
                                   _mm512_castpd_ps(x1), acc1);
        }
        _mm512_storeu_ps(y + 32 * s, acc0);
        _mm512_storeu_ps(y + 32 * s + 16, acc1);
    }
}

static int avx512_supported(void) {
    static int cached = -1;
    if (cached < 0) {
        __builtin_cpu_init();
        cached = __builtin_cpu_supports("avx512f");
    }
    return cached;
}

int repro_simd_level(void) { return avx512_supported() ? 1 : 0; }

/* Power both chains `steps` times.  x holds the interleaved initial
   pair on entry and the final pair on return; t is scratch of the same
   size (32 floats per slice).  simd selects the AVX-512 step where the
   CPU has it, the scalar step otherwise. */
void repro_pair_chain_sell(int64_t n_slices, int64_t steps,
                           const int64_t *slice_ptr, const uint16_t *idx,
                           const float *data, float *x, float *t,
                           int simd) {
    void (*step)(int64_t, const int64_t *, const uint16_t *,
                 const float *, const float *, float *) =
        (simd && avx512_supported()) ? step_avx512 : step_scalar;
    float *out = x;
    for (int64_t s = 0; s < steps; s++) {
        step(n_slices, slice_ptr, idx, data, x, t);
        float *tmp = x; x = t; t = tmp;
    }
    if (x != out)  /* odd step count: the result sits in the scratch */
        memcpy(out, x, (size_t)n_slices * 32 * sizeof(float));
}
"""

#: The compile command; ``{source}`` and ``{output}`` are filled per build.
_COMPILE_ARGV: Tuple[str, ...] = (
    "gcc", "-O3", "-shared", "-fPIC", "{source}", "-o", "{output}",
)

_lock = threading.Lock()
_library: Optional[ctypes.CDLL] = None
_load_attempted = False
_load_error: Optional[str] = None


def cache_dir() -> str:
    """Directory holding compiled kernels (override: ``REPRO_CKERNEL_CACHE``)."""
    override = os.environ.get(CACHE_ENV_VAR, "").strip()
    if override:
        return override
    return os.path.join(
        tempfile.gettempdir(), f"repro-ckernels-{os.getuid()}"
    )


def _kernel_filename(compile_argv: Tuple[str, ...] = _COMPILE_ARGV) -> str:
    """Cache file name: a digest of the C source and the compile command."""
    digest = hashlib.sha256(_SOURCE.encode("utf-8"))
    digest.update("\0".join(compile_argv).encode("utf-8"))
    return f"screenkernel-{digest.hexdigest()[:16]}.so"


def _compile(target: str) -> None:
    """Compile the kernel to ``target`` (atomic rename, race-safe)."""
    directory = os.path.dirname(target)
    os.makedirs(directory, exist_ok=True)
    source_path = None
    object_path = None
    try:
        fd, source_path = tempfile.mkstemp(suffix=".c", dir=directory)
        with os.fdopen(fd, "w") as handle:
            handle.write(_SOURCE)
        object_path = source_path[:-2] + ".so"
        subprocess.run(
            [
                arg.format(source=source_path, output=object_path)
                for arg in _COMPILE_ARGV
            ],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(object_path, target)  # atomic: concurrent builds race safely
        object_path = None
    finally:
        for path in (source_path, object_path):
            if path is not None:
                try:
                    os.unlink(path)
                except OSError:
                    pass


def _bind(library: ctypes.CDLL) -> ctypes.CDLL:
    i64p = ctypes.POINTER(ctypes.c_int64)
    u16p = ctypes.POINTER(ctypes.c_uint16)
    f32p = ctypes.POINTER(ctypes.c_float)
    library.repro_simd_level.restype = ctypes.c_int
    library.repro_simd_level.argtypes = []
    library.repro_pair_chain_sell.restype = None
    library.repro_pair_chain_sell.argtypes = [
        ctypes.c_int64, ctypes.c_int64,
        i64p, u16p, f32p,
        f32p, f32p, ctypes.c_int,
    ]
    return library


def _load() -> Optional[ctypes.CDLL]:
    global _library, _load_attempted, _load_error
    if _load_attempted:
        return _library
    with _lock:
        if _load_attempted:
            return _library
        if os.environ.get(DISABLE_ENV_VAR, "").strip() == "1":
            _load_error = f"disabled via {DISABLE_ENV_VAR}=1"
            _load_attempted = True
            return None
        target = os.path.join(cache_dir(), _kernel_filename())
        try:
            if not os.path.exists(target):
                _compile(target)
            _library = _bind(ctypes.CDLL(target))
        except Exception as exc:  # gcc missing, unwritable cache, ...
            _load_error = f"{type(exc).__name__}: {exc}"
            _library = None
        _load_attempted = True
        return _library


def available() -> bool:
    """Whether the compiled kernel loaded (compiling it if needed)."""
    return _load() is not None


def load_error() -> Optional[str]:
    """Why the kernel is unavailable, or ``None`` when it loaded."""
    _load()
    return _load_error


def simd_level() -> str:
    """``"avx512"``, ``"scalar"``, or ``"none"`` (no native kernel)."""
    library = _load()
    if library is None:
        return "none"
    return "avx512" if library.repro_simd_level() else "scalar"


def _reset_for_tests() -> None:
    """Forget the loaded library so env overrides take effect (tests)."""
    global _library, _load_attempted, _load_error
    with _lock:
        _library = None
        _load_attempted = False
        _load_error = None


def _as_ptr(array: np.ndarray, ctype) -> "ctypes._Pointer":
    return array.ctypes.data_as(ctypes.POINTER(ctype))


def _union_pattern(
    n: int,
    a: Tuple[np.ndarray, np.ndarray, np.ndarray],
    b: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both matrices' values on the union of their CSR patterns.

    Each union entry carries ``a``'s value (or zero) and ``b``'s value
    (or zero); an explicit zero adds exactly 0 in the kernel, so the
    chains are those of the two original matrices.
    """
    keys = [
        np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * MAX_STATES
        + indices
        for indptr, indices, _ in (a, b)
    ]
    union, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    data_a, data_b = (
        np.bincount(part, weights=data, minlength=len(union)).astype(
            np.float32
        )
        for part, (_, _, data) in zip(
            np.split(inverse, [len(keys[0])]), (a, b)
        )
    )
    indptr = np.searchsorted(union, np.arange(n + 1) * MAX_STATES)
    return indptr, (union % MAX_STATES).astype(np.uint16), data_a, data_b


def _sell_layout(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    data_a: np.ndarray,
    data_b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's shared-pattern sliced-ELLPACK layout.

    Rows are permuted by descending length (the same relabelling is
    applied to the column indices, so the operator is permuted
    symmetrically) and cut into slices of :data:`SLICE_ROWS`.  A slice
    is as wide as its longest row (its first: rows are sorted) and is
    stored column-major, both chains' values interleaved per slot.
    Returns ``(position, slice_ptr, idx, data)``: ``position[i]`` is
    row ``i``'s place in the permuted order.
    """
    lengths = np.diff(indptr).astype(np.int64)
    perm = np.argsort(-lengths, kind="stable")
    position = np.empty(n, dtype=np.int64)
    position[perm] = np.arange(n)
    widths = lengths[perm[::SLICE_ROWS]]  # each slice's first row
    slice_ptr = np.zeros(len(widths) + 1, dtype=np.int64)
    np.cumsum(widths * SLICE_ROWS, out=slice_ptr[1:])
    # Entry j of row i lands in slot (column j, lane position % 16) of
    # the row's slice.
    row_base = (
        slice_ptr[position // SLICE_ROWS]
        + position % SLICE_ROWS
        - SLICE_ROWS * indptr[:-1].astype(np.int64)
    )
    slots = np.repeat(row_base, lengths) + SLICE_ROWS * np.arange(
        len(indices), dtype=np.int64
    )
    idx = np.zeros(slice_ptr[-1], dtype=np.uint16)
    idx[slots] = position[indices]
    data = np.zeros((slice_ptr[-1], 2), dtype=np.float32)
    data[slots, 0] = data_a
    data[slots, 1] = data_b
    if sanitize.is_active():
        for buffer in (slice_ptr, idx, data):
            buffer.setflags(write=False)
        sanitize.guard_array("cnative.sell.idx", idx)
        sanitize.guard_array("cnative.sell.data", data)
    return position, slice_ptr, idx, data


def pair_chain_f32(
    indptr_a: np.ndarray,
    indices_a: np.ndarray,
    data_a: np.ndarray,
    indptr_b: np.ndarray,
    indices_b: np.ndarray,
    data_b: np.ndarray,
    x0: np.ndarray,
    steps: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Power two float32 chains ``steps`` times; returns the final pair.

    The matrices arrive pre-transposed in CSR pieces (integer indptr,
    ``uint16`` indices, ``float32`` data) so ``y = M x`` walks rows of
    the transposed operator -- the same orientation scipy's reference
    chains use.  ``x0`` is the shared float32 initial distribution.
    Passing the same ``indptr``/``indices`` objects for both matrices
    (the screen's case) skips the pattern union.
    """
    library = _load()
    simd = library is not None and bool(library.repro_simd_level())
    return _pair_chain_f32(
        indptr_a, indices_a, data_a, indptr_b, indices_b, data_b,
        x0, steps, simd=simd,
    )


def _pair_chain_f32(
    indptr_a: np.ndarray,
    indices_a: np.ndarray,
    data_a: np.ndarray,
    indptr_b: np.ndarray,
    indices_b: np.ndarray,
    data_b: np.ndarray,
    x0: np.ndarray,
    steps: int,
    *,
    simd: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`pair_chain_f32` on the AVX-512 (``simd``) or scalar step."""
    library = _load()
    if library is None:
        raise RuntimeError(f"native kernel unavailable: {_load_error}")
    if simd and not library.repro_simd_level():
        raise ValueError("the AVX-512 step needs a CPU with avx512f")
    n = x0.shape[0]
    if n > MAX_STATES:
        raise ValueError(f"state space too large for uint16 indices: {n}")
    if indptr_a is indptr_b and indices_a is indices_b:
        indptr, indices = indptr_a, indices_a
    else:
        indptr, indices, data_a, data_b = _union_pattern(
            n, (indptr_a, indices_a, data_a), (indptr_b, indices_b, data_b)
        )
    position, slice_ptr, idx, data = _sell_layout(
        n, indptr, indices, data_a, data_b
    )
    x = np.zeros((len(slice_ptr) - 1) * SLICE_ROWS * 2, dtype=np.float32)
    pairs = x[: 2 * n].reshape(n, 2)  # a view, in permuted order
    pairs[position] = np.asarray(x0, dtype=np.float32)[:, None]
    scratch = np.empty_like(x)
    library.repro_pair_chain_sell(
        ctypes.c_int64(len(slice_ptr) - 1),
        ctypes.c_int64(int(steps)),
        _as_ptr(slice_ptr, ctypes.c_int64),
        _as_ptr(idx, ctypes.c_uint16),
        _as_ptr(data, ctypes.c_float),
        _as_ptr(x, ctypes.c_float),
        _as_ptr(scratch, ctypes.c_float),
        ctypes.c_int(int(simd)),
    )
    full, excluded = np.ascontiguousarray(pairs[position].T)
    return full, excluded
