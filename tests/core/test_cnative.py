"""Tests for the native float32 pair-chain screening kernel."""

import numpy as np
import pytest
from scipy import sparse

from repro.core import cnative


@pytest.fixture
def reset_kernel():
    """Reload the kernel around a test so env overrides take effect."""
    cnative._reset_for_tests()
    yield
    cnative._reset_for_tests()


def _transposed_pieces(matrix: np.ndarray):
    """CSR pieces of ``matrix.T`` in the kernel's dtypes."""
    csr = sparse.csr_matrix(matrix.T.astype(np.float32))
    return (
        np.ascontiguousarray(csr.indptr, dtype=np.int32),
        np.ascontiguousarray(csr.indices, dtype=np.uint16),
        np.ascontiguousarray(csr.data, dtype=np.float32),
    )


def _random_stochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    matrix = rng.random((n, n))
    matrix[rng.random((n, n)) < 0.6] = 0.0
    matrix += np.eye(n)  # no all-zero rows
    return matrix / matrix.sum(axis=1, keepdims=True)


def _powered(matrix: np.ndarray, x0: np.ndarray, steps: int) -> np.ndarray:
    """``x0`` pushed ``steps`` times through ``matrix`` in float64."""
    want = x0.astype(np.float64)
    for _ in range(steps):
        want = want @ matrix
    return want


def _initial(rng: np.random.Generator, n: int) -> np.ndarray:
    x0 = rng.random(n)
    return (x0 / x0.sum()).astype(np.float32)


#: Both kernel steps, driven through the private test seam; the
#: AVX-512 step skips where the CPU lacks it.
STEPS = [
    pytest.param(False, id="scalar"),
    pytest.param(True, id="avx512"),
]


class TestCacheKey:
    def test_compile_flags_change_the_cache_filename(self):
        default = cnative._kernel_filename()
        assert default == cnative._kernel_filename(cnative._COMPILE_ARGV)
        flags = tuple(
            "-O2" if arg == "-O3" else arg for arg in cnative._COMPILE_ARGV
        )
        assert flags != cnative._COMPILE_ARGV
        assert cnative._kernel_filename(flags) != default


class TestDisabled:
    def test_kill_switch_forces_the_fallback(self, monkeypatch, reset_kernel):
        monkeypatch.setenv(cnative.DISABLE_ENV_VAR, "1")
        assert not cnative.available()
        assert cnative.DISABLE_ENV_VAR in (cnative.load_error() or "")
        assert cnative.simd_level() == "none"

    def test_pair_chain_raises_when_unavailable(
        self, monkeypatch, reset_kernel
    ):
        monkeypatch.setenv(cnative.DISABLE_ENV_VAR, "1")
        n = 4
        pieces = _transposed_pieces(np.eye(n))
        x0 = np.full(n, 1.0 / n, dtype=np.float32)
        with pytest.raises(RuntimeError, match="native kernel unavailable"):
            cnative.pair_chain_f32(*pieces, *pieces, x0, 3)


class TestKernel:
    @pytest.fixture(autouse=True)
    def _require_kernel(self, monkeypatch, reset_kernel):
        monkeypatch.delenv(cnative.DISABLE_ENV_VAR, raising=False)
        if not cnative.available():
            pytest.skip(f"native kernel unavailable: {cnative.load_error()}")

    def test_simd_level_reported(self):
        assert cnative.simd_level() in ("avx512", "scalar")

    @pytest.mark.parametrize("steps", [1, 2, 3, 8])
    def test_matches_float64_powering(self, steps):
        # Odd and even step counts exercise the kernel's buffer-swap
        # copy-back branch.
        rng = np.random.default_rng(7)
        n = 37
        a = _random_stochastic(rng, n)
        b = _random_stochastic(rng, n)
        x0 = rng.random(n)
        x0 = (x0 / x0.sum()).astype(np.float32)

        y1, y2 = cnative.pair_chain_f32(
            *_transposed_pieces(a), *_transposed_pieces(b), x0, steps
        )

        want1 = x0.astype(np.float64)
        want2 = x0.astype(np.float64)
        for _ in range(steps):
            want1 = want1 @ a
            want2 = want2 @ b
        np.testing.assert_allclose(y1, want1, rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(y2, want2, rtol=1e-4, atol=1e-6)

    def test_input_distribution_not_mutated(self):
        rng = np.random.default_rng(11)
        n = 9
        pieces = _transposed_pieces(_random_stochastic(rng, n))
        x0 = np.full(n, 1.0 / n, dtype=np.float32)
        before = x0.copy()
        cnative.pair_chain_f32(*pieces, *pieces, x0, 5)
        np.testing.assert_array_equal(x0, before)

    def test_state_space_bound_enforced(self):
        pieces = _transposed_pieces(np.eye(2))
        x0 = np.zeros(cnative.MAX_STATES + 1, dtype=np.float32)
        with pytest.raises(ValueError, match="state space too large"):
            cnative.pair_chain_f32(*pieces, *pieces, x0, 1)


class TestSteps:
    """Both steps of the sliced layout against float64 powering."""

    @pytest.fixture(autouse=True)
    def _require_kernel(self, monkeypatch, reset_kernel):
        monkeypatch.delenv(cnative.DISABLE_ENV_VAR, raising=False)
        if not cnative.available():
            pytest.skip(f"native kernel unavailable: {cnative.load_error()}")

    @pytest.fixture(params=STEPS)
    def simd(self, request):
        if request.param and cnative.simd_level() != "avx512":
            pytest.skip("CPU lacks AVX-512 (avx512f)")
        return request.param

    @staticmethod
    def _shared(rng, a):
        """Shared-pattern pieces of ``a`` and of ``b`` (``a`` with some
        entries turned into explicit zeros, like the screen's excluded
        matrix), and ``b`` as a dense array."""
        indptr, indices, data_a = _transposed_pieces(a)
        data_b = data_a * (rng.random(len(data_a)) < 0.5)
        n = len(indptr) - 1
        b = sparse.csr_matrix((data_b, indices, indptr), shape=(n, n)).T
        return (indptr, indices, data_a, data_b), b.toarray()

    @staticmethod
    def _assert_powered(result, a, b, x0, steps):
        y1, y2 = result
        assert y1.dtype == y2.dtype == np.float32
        for got, matrix in ((y1, a), (y2, b)):
            np.testing.assert_allclose(
                got, _powered(matrix, x0, steps), rtol=1e-4, atol=1e-6
            )

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 37])
    @pytest.mark.parametrize("steps", [0, 1, 2, 3])
    def test_matches_float64_powering(self, simd, n, steps):
        # n straddles the 16-row slice; steps 0-3 cover the identity
        # and the copy-back of odd step counts.
        rng = np.random.default_rng(n * 10 + steps)
        a = _random_stochastic(rng, n)
        (indptr, indices, data_a, data_b), b = self._shared(rng, a)
        x0 = _initial(rng, n)
        result = cnative._pair_chain_f32(
            indptr, indices, data_a, indptr, indices, data_b, x0, steps,
            simd=simd,
        )
        self._assert_powered(result, a, b, x0, steps)

    def test_empty_rows_and_a_long_row(self, simd):
        rng = np.random.default_rng(3)
        n = 40
        a = _random_stochastic(rng, n) * (rng.random((n, n)) < 0.15)
        a[:, [4, 9, 31]] = 0.0  # empty rows of the transposed operator
        a[:, 22] = rng.random(n) + 0.1  # one row far above the mean
        a /= a.sum(axis=1, keepdims=True)
        lengths = np.diff(_transposed_pieces(a)[0])
        assert (lengths[[4, 9, 31]] == 0).all()
        assert lengths.max() > 8 * lengths.mean()
        pieces, b = self._shared(rng, a)
        x0 = _initial(rng, n)
        result = cnative._pair_chain_f32(
            *pieces[:3], *pieces[:2], pieces[3], x0, 5, simd=simd
        )
        self._assert_powered(result, a, b, x0, 5)

    def test_pattern_of_b_outside_a(self, simd):
        rng = np.random.default_rng(5)
        n = 23
        a = _random_stochastic(rng, n)
        a[a < 0.05] = 0.0
        b = _random_stochastic(rng, n)
        b[:, 0] += 1.0  # entries where a has none
        b /= b.sum(axis=1, keepdims=True)
        pa, pb = _transposed_pieces(a), _transposed_pieces(b)
        assert not np.array_equal(pa[1], pb[1])
        x0 = _initial(rng, n)
        result = cnative._pair_chain_f32(*pa, *pb, x0, 4, simd=simd)
        self._assert_powered(result, a, b, x0, 4)

    def test_shared_and_distinct_arrays_agree_bitwise(self, simd):
        rng = np.random.default_rng(13)
        n = 37
        (indptr, indices, data_a, data_b), _ = self._shared(
            rng, _random_stochastic(rng, n)
        )
        x0 = _initial(rng, n)
        inputs = (indptr, indices, data_a, indptr, indices, data_b, x0)
        before = [array.copy() for array in inputs]
        shared = cnative._pair_chain_f32(*inputs, 9, simd=simd)
        again = cnative._pair_chain_f32(*inputs, 9, simd=simd)
        distinct = cnative._pair_chain_f32(
            indptr, indices, data_a, indptr.copy(), indices.copy(), data_b,
            x0, 9, simd=simd,
        )
        for got in (again, distinct):
            for want, other in zip(shared, got):
                assert want.tobytes() == other.tobytes()
        for array, copy in zip(inputs, before):
            np.testing.assert_array_equal(array, copy)
