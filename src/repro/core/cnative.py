"""Native (C) kernels: the exact float64 chain and the float32 screen.

The exact chain (:func:`power_f64`) powers ``x <- A^T x`` for
:class:`repro.core.chain.TransitionOperator`: a whole ``steps``-long
power in one call, over a sliced-ELLPACK layout of ``A^T``
(:func:`chain_layout_f64`, built from ``A``'s own CSR buffers by a
stable counting sort by column).  Each SIMD lane is one output row and
adds ``data * x`` with a separate multiply and add, in ascending source
order -- the order of scipy's ``csr_matvec`` on ``A^T`` -- so the
result is bit-identical to the scipy loop the operator runs where this
module is unavailable.

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

The chains' operators come from the same source: a second C entry
(:func:`screen_operator_f32`) builds them straight from a model's
memoised arrival events (:func:`repro.core.transition_build.build_events`).
It splits each event into its at-most-one-expiry branches with the
exact expansion's multiply and add order, sums each source row's
branches per successor column in float64 -- once in full, once without
the target flow -- and counting-sorts the runs by column into the
transposed float32 CSR pieces :func:`pair_chain_f32` takes.  So the
screen never materialises, sorts or reduces the exact COO entries
(~300k per fig6 candidate); only candidates that fall back to the
exact path build them.

The float32 kernel is *approximate by construction*; it is only ever
used behind the certified screen, which falls back to the exact float64
path whenever the float32 error bounds cannot certify a verdict.  When
``gcc`` (or a writable cache directory) is unavailable the module
degrades to ``available() == False``: the screen runs exact-only and
the exact chain runs scipy's loop -- behaviour stays correct and the
numbers identical, only slower.

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
from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs import sanitize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transition_build import ArrivalEvents

#: Environment override for the shared-object cache directory.
CACHE_ENV_VAR = "REPRO_CKERNEL_CACHE"

#: Environment kill switch: set to "1" to refuse the native kernels even
#: when they would compile (forces the exact screening path and the
#: scipy chain loop; used by the differential tests and a CI leg to
#: exercise the fallbacks).
DISABLE_ENV_VAR = "REPRO_NO_CKERNEL"

#: uint16 column indices bound the state-space size the kernel accepts.
MAX_STATES = 65536

#: Rows per slice of the kernel layouts: two 8-row halves, one AVX-512
#: gather each per column.  The C steps are written for 16.
SLICE_ROWS = 16

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
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

/* The exact float64 chain, one step of y = M x over its own sliced
   layout: the same 16-row slices of two 8-row halves, one value per
   slot.  Each lane is one output row and adds data*x with a separate
   multiply and add (no FMA: -ffp-contract=off) in the row's column
   order, which is the order of scipy's csr_matvec, so every step is
   bit-identical to it.  Padding slots add +0.0. */
static void step_scalar_f64(int64_t n_slices, const int64_t *slice_ptr,
                            const uint16_t *idx, const double *data,
                            const double *x, double *y) {
    for (int64_t s = 0; s < n_slices; s++) {
        for (int h = 0; h < 16; h += 8) {
            double acc[8] = {0.0};
            for (int64_t e = slice_ptr[s] + h; e < slice_ptr[s + 1];
                 e += 16)
                for (int r = 0; r < 8; r++)
                    acc[r] += data[e + r] * x[idx[e + r]];
            memcpy(y + 16 * s + h, acc, sizeof acc);
        }
    }
}

/* AVX-512: per half, one 8-lane gather, one multiply, one add. */
__attribute__((target("avx512f")))
static void step_avx512_f64(int64_t n_slices, const int64_t *slice_ptr,
                            const uint16_t *idx, const double *data,
                            const double *x, double *y) {
    for (int64_t s = 0; s < n_slices; s++) {
        __m512d acc0 = _mm512_setzero_pd(), acc1 = _mm512_setzero_pd();
        for (int64_t e = slice_ptr[s]; e < slice_ptr[s + 1]; e += 16) {
            __m256i lo = _mm256_cvtepu16_epi32(
                _mm_loadu_si128((const __m128i *)(idx + e)));
            __m256i hi = _mm256_cvtepu16_epi32(
                _mm_loadu_si128((const __m128i *)(idx + e + 8)));
            acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(
                _mm512_loadu_pd(data + e),
                _mm512_i32gather_pd(lo, (const void *)x, 8)));
            acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(
                _mm512_loadu_pd(data + e + 8),
                _mm512_i32gather_pd(hi, (const void *)x, 8)));
        }
        _mm512_storeu_pd(y + 16 * s, acc0);
        _mm512_storeu_pd(y + 16 * s + 8, acc1);
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

/* The screen's full and target-excluded operators, transposed, built
   from row-sorted arrival events (transition_build.ArrivalEvents).  Each
   event splits into its keep-all branch and one expiry branch per live
   rule, with the fractions of transition_build._expand_expiries: the
   same multiplies and adds in the same ascending-rule order, in
   float64.  A source row's positive branches are summed per successor
   column, once in full and once without the target flow's events; a
   stable counting sort by column then writes the transposed CSR pieces
   (source rows ascending within a column), rounded to float32.  cap
   bounds the branches (one keep plus one per live rule per event), so
   it bounds the (row, column) runs.  Returns the run count, or -1 when
   scratch cannot be allocated or cap is too small. */
int64_t repro_screen_operator(
        int64_t n_states, int64_t n_rules, int64_t n_events, int64_t cap,
        const int64_t *rows, const int64_t *interim, const int64_t *live,
        const double *base, const int64_t *tag, int64_t target,
        const double *hazard, const int64_t *lookup,
        int32_t *indptr, uint16_t *indices, float *full, float *excluded) {
    double *acc = malloc((size_t)n_states * 2 * sizeof(double));
    int64_t *seen = malloc((size_t)n_states * sizeof(int64_t));
    int32_t *touched = malloc((size_t)n_states * sizeof(int32_t));
    /* + 1: a zero-size request may return NULL */
    uint16_t *run_col = malloc((size_t)cap * sizeof(uint16_t) + 1);
    uint16_t *run_row = malloc((size_t)cap * sizeof(uint16_t) + 1);
    float *run_val = malloc((size_t)cap * 2 * sizeof(float) + 1);
    int64_t n_runs = -1;
    if (!acc || !seen || !touched || !run_col || !run_row || !run_val)
        goto done;
    for (int64_t i = 0; i < n_states; i++) seen[i] = -1;
    memset(indptr, 0, (size_t)(n_states + 1) * sizeof(int32_t));
    n_runs = 0;
    for (int64_t e = 0; e < n_events;) {
        const int64_t row = rows[e];
        const double *h = hazard + row * n_rules;
        int64_t n_touched = 0;
        for (; e < n_events && rows[e] == row; e++) {
            /* The live rules ascending; the leave-one-out weights and
               the normaliser accumulate over them in that order. */
            int lr[64], n_live = 0;
            for (uint64_t m = (uint64_t)live[e]; m; m &= m - 1)
                lr[n_live++] = __builtin_ctzll(m);
            double keep = 1.0, w[64], total;
            for (int a = 0; a < n_live; a++) w[a] = h[lr[a]];
            for (int a = 0; a < n_live; a++) {
                const double f = 1.0 - h[lr[a]];
                keep *= f;
                for (int b = 0; b < n_live; b++)
                    if (b != a) w[b] *= f;
            }
            total = keep;
            for (int a = 0; a < n_live; a++) total += w[a];
            /* The keep-all branch, then one per live rule. */
            int64_t col[65];
            double p[65];
            col[0] = lookup[interim[e]];
            p[0] = base[e] * (keep / total);
            for (int a = 0; a < n_live; a++) {
                col[a + 1] = lookup[interim[e] & ~((int64_t)1 << lr[a])];
                p[a + 1] = base[e] * (w[a] / total);
            }
            const int n_branches = n_live + 1;
            for (int b = 0; b < n_branches; b++) {
                const int64_t c = col[b];
                if (!(p[b] > 0.0)) continue;
                if (seen[c] != row) {
                    seen[c] = row;
                    touched[n_touched++] = (int32_t)c;
                    acc[2 * c] = 0.0;
                    acc[2 * c + 1] = 0.0;
                }
                acc[2 * c] += p[b];
                if (tag[e] != target) acc[2 * c + 1] += p[b];
            }
        }
        if (n_runs + n_touched > cap) {  /* cap too small: refuse */
            n_runs = -1;
            goto done;
        }
        for (int64_t k = 0; k < n_touched; k++, n_runs++) {
            const int32_t col = touched[k];
            run_col[n_runs] = (uint16_t)col;
            run_row[n_runs] = (uint16_t)row;
            run_val[2 * n_runs] = (float)acc[2 * col];
            run_val[2 * n_runs + 1] = (float)acc[2 * col + 1];
            indptr[col + 1]++;
        }
    }
    for (int64_t c = 0; c < n_states; c++) {
        indptr[c + 1] += indptr[c];
        seen[c] = indptr[c];  /* now each column's write cursor */
    }
    for (int64_t k = 0; k < n_runs; k++) {
        const int64_t at = seen[run_col[k]]++;
        indices[at] = run_row[k];
        full[at] = run_val[2 * k];
        excluded[at] = run_val[2 * k + 1];
    }
done:
    free(acc); free(seen); free(touched);
    free(run_col); free(run_row); free(run_val);
    return n_runs;
}

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

/* Power the exact float64 chain `steps` times, as above: x holds the
   initial distribution on entry and the final one on return (16
   doubles per slice), t is scratch of the same size. */
void repro_power_f64(int64_t n_slices, int64_t steps,
                     const int64_t *slice_ptr, const uint16_t *idx,
                     const double *data, double *x, double *t, int simd) {
    void (*step)(int64_t, const int64_t *, const uint16_t *,
                 const double *, const double *, double *) =
        (simd && avx512_supported()) ? step_avx512_f64 : step_scalar_f64;
    double *out = x;
    for (int64_t s = 0; s < steps; s++) {
        step(n_slices, slice_ptr, idx, data, x, t);
        double *tmp = x; x = t; t = tmp;
    }
    if (x != out)
        memcpy(out, x, (size_t)n_slices * 16 * sizeof(double));
}
"""

#: The compile command; ``{source}`` and ``{output}`` are filled per build.
#: ``-ffp-contract=off`` keeps every float64 product of the operator
#: build rounded on its own, as numpy rounds it.
_COMPILE_ARGV: Tuple[str, ...] = (
    "gcc", "-O3", "-ffp-contract=off", "-shared", "-fPIC", "{source}",
    "-o", "{output}",
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
    f64p = ctypes.POINTER(ctypes.c_double)
    i32p = ctypes.POINTER(ctypes.c_int32)
    library.repro_screen_operator.restype = ctypes.c_int64
    library.repro_screen_operator.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        i64p, i64p, i64p, f64p, i64p, ctypes.c_int64, f64p, i64p,
        i32p, u16p, f32p, f32p,
    ]
    library.repro_pair_chain_sell.restype = None
    library.repro_pair_chain_sell.argtypes = [
        ctypes.c_int64, ctypes.c_int64,
        i64p, u16p, f32p,
        f32p, f32p, ctypes.c_int,
    ]
    library.repro_power_f64.restype = None
    library.repro_power_f64.argtypes = [
        ctypes.c_int64, ctypes.c_int64,
        i64p, u16p, f64p,
        f64p, f64p, ctypes.c_int,
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


def _sell_slots(
    n: int, indptr: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each entry of a CSR operator lands in the sliced layout.

    Rows are permuted by descending length (the same relabelling is
    applied to the column indices, so the operator is permuted
    symmetrically) and cut into slices of :data:`SLICE_ROWS`.  A slice
    is as wide as its longest row (its first: rows are sorted) and is
    stored column-major.  Returns ``(position, slice_ptr, slots)``:
    ``position[i]`` is row ``i``'s place in the permuted order and
    ``slots[k]`` the slot of CSR entry ``k``.
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
        int(indptr[-1]), dtype=np.int64
    )
    return position, slice_ptr, slots


def _sell_layout(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    data_a: np.ndarray,
    data_b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pair kernel's shared-pattern sliced-ELLPACK layout.

    The slots of :func:`_sell_slots`, both chains' values interleaved
    per slot.  Returns ``(position, slice_ptr, idx, data)``.
    """
    position, slice_ptr, slots = _sell_slots(n, indptr)
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


def screen_operator_f32(
    events: "ArrivalEvents", target: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The float32 screen's operators, built straight from arrival events.

    ``events`` is a model's memoised event stage
    (``CompactModel._arrival_events``).  Returns the transposed CSR
    pieces ``(indptr, indices, full, excluded)`` of the full and the
    ``target``-excluded transition matrices on one shared pattern, in
    the dtypes :func:`pair_chain_f32` takes (int32, uint16, float32,
    float32): the pattern is exactly the exact matrix's, and each value
    is its float64 sum rounded to float32 (summed in emission order, so
    within one float32 ulp of the exact matrix's entry).  The pieces
    are read-only.
    """
    library = _load()
    if library is None:
        raise RuntimeError(f"native kernel unavailable: {_load_error}")
    n_states, n_rules = events.hazard.shape
    if n_states > MAX_STATES:
        raise ValueError(
            f"state space too large for uint16 indices: {n_states}"
        )
    # An event emits its keep-all branch plus one per live rule: sized
    # by the events, the outputs hold every (row, column) run.
    popcount = np.zeros(1, dtype=np.uint8)
    for _ in range(n_rules):
        popcount = np.concatenate([popcount, popcount + 1])
    cap = len(events.rows) + int(popcount[events.live].sum())
    indptr = np.empty(n_states + 1, dtype=np.int32)
    indices = np.empty(cap, dtype=np.uint16)
    full = np.empty(cap, dtype=np.float32)
    excluded = np.empty(cap, dtype=np.float32)
    i64 = ctypes.c_int64
    n_runs = library.repro_screen_operator(
        i64(n_states), i64(n_rules), i64(len(events.rows)), i64(cap),
        *(
            _as_ptr(np.ascontiguousarray(column, dtype=np.int64), i64)
            for column in (events.rows, events.interim, events.live)
        ),
        _as_ptr(np.ascontiguousarray(events.base), ctypes.c_double),
        _as_ptr(np.ascontiguousarray(events.tag, dtype=np.int64), i64),
        i64(int(target)),
        _as_ptr(np.ascontiguousarray(events.hazard), ctypes.c_double),
        _as_ptr(np.ascontiguousarray(events.lookup, dtype=np.int64), i64),
        _as_ptr(indptr, ctypes.c_int32),
        _as_ptr(indices, ctypes.c_uint16),
        _as_ptr(full, ctypes.c_float),
        _as_ptr(excluded, ctypes.c_float),
    )
    if n_runs < 0:
        raise MemoryError(
            "native operator build failed: scratch allocation or run bound"
        )
    pieces = (indptr, indices[:n_runs], full[:n_runs], excluded[:n_runs])
    for piece in pieces:
        piece.setflags(write=False)
    if sanitize.is_active():
        sanitize.guard_array("cnative.operator.full", pieces[2])
        sanitize.guard_array("cnative.operator.excluded", pieces[3])
    return pieces


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


class ChainLayout(NamedTuple):
    """The exact float64 chain's layout of ``A^T`` (read-only buffers)."""

    #: ``position[i]``: state ``i``'s place in the permuted order.
    position: np.ndarray
    #: Slice ``s`` holds slots ``slice_ptr[s]:slice_ptr[s + 1]``.
    slice_ptr: np.ndarray
    #: Permuted source state per slot (``uint16``; padding: 0).
    idx: np.ndarray
    #: ``A``'s float64 value per slot (padding: 0.0).
    data: np.ndarray


def chain_layout_f64(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray
) -> ChainLayout:
    """:func:`power_f64`'s layout of ``A^T``, from ``A``'s CSR pieces.

    A stable counting sort of ``A``'s entries by column gives each row
    of ``A^T`` its entries in ascending source order -- the order of
    ``csr_matrix(A.T)`` -- without materialising the transpose; the
    entries are then scattered into the sliced layout of
    :func:`_sell_slots`.  The buffers are frozen.
    """
    n = len(indptr) - 1
    if n > MAX_STATES:
        raise ValueError(f"state space too large for uint16 indices: {n}")
    nnz = int(indptr[-1])
    # uint16 keys: numpy's stable sort is a radix (counting) sort.
    columns = np.asarray(indices[:nnz]).astype(np.uint16)
    order = np.argsort(columns, kind="stable")
    indptr_t = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(columns, minlength=n), out=indptr_t[1:])
    position, slice_ptr, slots = _sell_slots(n, indptr_t)
    sources = np.repeat(
        position.astype(np.uint16), np.diff(indptr).astype(np.int64)
    )
    idx = np.zeros(slice_ptr[-1], dtype=np.uint16)
    idx[slots] = sources[order]
    values = np.zeros(slice_ptr[-1], dtype=np.float64)
    values[slots] = np.asarray(data[:nnz])[order]
    layout = ChainLayout(position, slice_ptr, idx, values)
    for buffer in layout:
        buffer.setflags(write=False)
    sanitize.guard_array("cnative.chain.idx", idx)
    sanitize.guard_array("cnative.chain.data", values)
    return layout


def power_f64(layout: ChainLayout, x0: np.ndarray, steps: int) -> np.ndarray:
    """``x0 @ A^steps`` in float64, bit-identical to scipy's matvec loop.

    ``layout`` is :func:`chain_layout_f64` of ``A``; ``x0`` a 1-D
    distribution, left unmutated.  Each step adds every row's products
    in the order of scipy's ``csr_matvec`` on ``A^T``, so for finite
    inputs the result equals the scipy loop's bit for bit.
    """
    library = _load()
    simd = library is not None and bool(library.repro_simd_level())
    return _power_f64(layout, x0, steps, simd=simd)


def _power_f64(
    layout: ChainLayout, x0: np.ndarray, steps: int, *, simd: bool
) -> np.ndarray:
    """:func:`power_f64` on the AVX-512 (``simd``) or scalar step."""
    library = _load()
    if library is None:
        raise RuntimeError(f"native kernel unavailable: {_load_error}")
    if simd and not library.repro_simd_level():
        raise ValueError("the AVX-512 step needs a CPU with avx512f")
    if np.shape(x0) != layout.position.shape:
        raise ValueError(
            f"distribution of shape {np.shape(x0)} for "
            f"{len(layout.position)} states"
        )
    n_slices = len(layout.slice_ptr) - 1
    x = np.zeros(n_slices * SLICE_ROWS, dtype=np.float64)
    x[layout.position] = x0
    scratch = np.empty_like(x)
    library.repro_power_f64(
        ctypes.c_int64(n_slices),
        ctypes.c_int64(int(steps)),
        _as_ptr(layout.slice_ptr, ctypes.c_int64),
        _as_ptr(layout.idx, ctypes.c_uint16),
        _as_ptr(layout.data, ctypes.c_double),
        _as_ptr(x, ctypes.c_double),
        _as_ptr(scratch, ctypes.c_double),
        ctypes.c_int(int(simd)),
    )
    return x[layout.position]
