"""Tests for the native kernels: exact float64 chain, float32 screen."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core import cnative
from repro.core.compact_model import CompactModel
from repro.flows.flowid import FlowId
from repro.flows.policy import ModelRule, Policy
from repro.flows.universe import FlowUniverse


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


@pytest.fixture(params=STEPS)
def simd(request):
    """The ``simd=`` seam's value (request only after the kernel loaded)."""
    if request.param and cnative.simd_level() != "avx512":
        pytest.skip("CPU lacks AVX-512 (avx512f)")
    return request.param


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


#: Flows of the operator-builder models; the last is never covered.
N_FLOWS = 5


@st.composite
def operator_models(draw):
    """A tiny compact model and a target flow for the operator builder.

    Covers hard-timeout and timeout-1 rules (hazard 1: the certain
    expiries), an always-uncovered flow, zero-rate flows, capacity 1
    and capacities below the rule count (full states that evict), and
    flows covered by several rules.
    """
    n_rules = draw(st.integers(1, 4))
    rules = [
        ModelRule(
            index=rank,
            name=f"r{rank}",
            flows=frozenset(draw(st.sets(
                st.integers(0, N_FLOWS - 2), min_size=1, max_size=N_FLOWS - 1
            ))),
            timeout_steps=draw(st.integers(1, 5)),
            priority=100 - rank,
            hard=draw(st.booleans()),
        )
        for rank in range(n_rules)
    ]
    rates = tuple(
        draw(st.one_of(st.just(0.0), st.floats(0.05, 1.5)))
        for _ in range(N_FLOWS)
    )
    universe = FlowUniverse(
        tuple(FlowId(src=i, dst=99) for i in range(N_FLOWS)), rates
    )
    cache_size = draw(st.integers(1, n_rules))
    model = CompactModel(
        Policy(rules), universe, 0.25, cache_size, kernel="sparse"
    )
    return model, draw(st.integers(0, N_FLOWS - 1))


def _ulps(got: np.ndarray, want: np.ndarray) -> int:
    """Largest distance in float32 ulps (both arrays non-negative)."""
    if len(got) == 0:
        return 0
    return int(np.abs(
        got.view(np.int32).astype(np.int64)
        - want.view(np.int32).astype(np.int64)
    ).max())


def _assert_operator_matches(model: CompactModel, target: int, ulps: int):
    """The native operator against the exact matrices, transposed."""
    indptr, indices, full, excluded = cnative.screen_operator_f32(
        model._arrival_events(), target
    )
    exact = model.transition_matrix().T.tocsr()
    exact.sort_indices()
    np.testing.assert_array_equal(indptr, exact.indptr)
    np.testing.assert_array_equal(indices, exact.indices)
    assert _ulps(full, exact.data.astype(np.float32)) <= ulps
    # The excluded operator sits on the full pattern, zeros included.
    n = model.n_states
    ours = sparse.csr_matrix((excluded, indices, indptr), shape=(n, n))
    want = model.transition_matrix([target]).T.toarray().astype(np.float32)
    assert _ulps(ours.toarray().ravel(), want.ravel()) <= ulps
    for piece in (indptr, indices, full, excluded):
        assert not piece.flags.writeable


class TestScreenOperator:
    """The events-fed operator builder against the exact matrices."""

    @pytest.fixture(autouse=True)
    def _require_kernel(self, monkeypatch, reset_kernel):
        monkeypatch.delenv(cnative.DISABLE_ENV_VAR, raising=False)
        if not cnative.available():
            pytest.skip(f"native kernel unavailable: {cnative.load_error()}")

    @settings(max_examples=60, deadline=None)
    @given(case=operator_models())
    def test_pattern_equal_and_values_within_one_ulp(self, case):
        model, target = case
        _assert_operator_matches(model, target, ulps=1)

    @settings(max_examples=20, deadline=None)
    @given(case=operator_models())
    def test_target_without_entries_excludes_nothing(self, case):
        # A zero-rate flow never arrives, so it tags no entry.
        model, _ = case
        silent = [
            flow for flow in range(N_FLOWS)
            if model.context.universe.rates[flow] == 0.0
        ]
        if not silent:
            return
        _, _, full, excluded = cnative.screen_operator_f32(
            model._arrival_events(), silent[0]
        )
        assert full.tobytes() == excluded.tobytes()

    def test_bit_equal_on_the_seed_2017_stream(self):
        from repro.apispec import JobSpec
        from repro.flows.config import ConfigGenerator

        params = JobSpec(experiment="fig6", seed=2017).to_params()
        generator = ConfigGenerator(params.config, seed=2017)
        for _ in range(3):
            config = generator.sample()
            model = CompactModel(
                config.policy, config.universe, config.delta,
                config.cache_size, kernel="sparse",
            )
            _assert_operator_matches(model, config.target_flow, ulps=0)


def _scipy_loop(matrix: sparse.csr_matrix, x0: np.ndarray, steps: int):
    """The reference exact chain: a transposed CSR copy, one scipy
    ``csr_matvec`` per step (the loop the native kernel replaces)."""
    from scipy.sparse import _sparsetools

    transposed = sparse.csr_matrix(matrix.T)
    current = np.array(x0, dtype=np.float64)
    scratch = np.zeros_like(current)
    for _ in range(steps):
        scratch.fill(0.0)
        _sparsetools.csr_matvec(
            *transposed.shape, transposed.indptr, transposed.indices,
            transposed.data, current, scratch,
        )
        current, scratch = scratch, current
    return current


def _random_csr(rng: np.random.Generator, n: int) -> sparse.csr_matrix:
    return sparse.csr_matrix(_random_stochastic(rng, n))


def _assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestExactChain:
    """The native float64 power kernel is bit-identical to scipy's loop."""

    @pytest.fixture(autouse=True)
    def _require_kernel(self, monkeypatch, reset_kernel):
        monkeypatch.delenv(cnative.DISABLE_ENV_VAR, raising=False)
        if not cnative.available():
            pytest.skip(f"native kernel unavailable: {cnative.load_error()}")

    @staticmethod
    def _native(matrix, x0, steps, simd):
        layout = cnative.chain_layout_f64(
            matrix.indptr, matrix.indices, matrix.data
        )
        return cnative._power_f64(layout, x0, steps, simd=simd)

    @settings(max_examples=40, deadline=None)
    @given(case=operator_models(), steps=st.integers(0, 40))
    def test_models_full_and_target_excluded(self, case, steps):
        from repro.core.chain import TransitionOperator

        model, target = case
        start = model.initial_distribution()
        for matrix in (
            model.transition_matrix(), model.transition_matrix([target])
        ):
            want = _scipy_loop(matrix, start, steps)
            _assert_bitwise(
                TransitionOperator(matrix).power(start, steps), want
            )
            for simd in (False, cnative.simd_level() == "avx512"):
                _assert_bitwise(self._native(matrix, start, steps, simd), want)

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 37])
    @pytest.mark.parametrize("steps", [0, 1, 2, 3, 40])
    def test_slice_boundaries_and_step_counts(self, simd, n, steps):
        # n straddles the 16-row slice; odd step counts take the
        # kernel's copy-back branch.
        rng = np.random.default_rng(n * 100 + steps)
        matrix = _random_csr(rng, n)
        x0 = rng.random(n)
        _assert_bitwise(
            self._native(matrix, x0, steps, simd),
            _scipy_loop(matrix, x0, steps),
        )

    def test_empty_rows_and_columns_and_a_long_row(self, simd):
        rng = np.random.default_rng(3)
        n = 40
        dense = _random_stochastic(rng, n) * (rng.random((n, n)) < 0.15)
        dense[:, [4, 9, 31]] = 0.0  # empty rows of A^T
        dense[[2, 17], :] = 0.0  # empty rows of A (substochastic)
        dense[:, 22] = rng.random(n) + 0.1  # one row of A^T far above the mean
        matrix = sparse.csr_matrix(dense)
        lengths = np.bincount(matrix.indices, minlength=n)
        assert (lengths[[4, 9, 31]] == 0).all()
        assert lengths.max() > 8 * lengths.mean()
        x0 = _initial(rng, n).astype(np.float64)
        _assert_bitwise(
            self._native(matrix, x0, 7, simd), _scipy_loop(matrix, x0, 7)
        )

    def test_scipy_fallback_matches_the_reference_loop(self):
        from repro.core.chain import TransitionOperator, _power_scipy

        rng = np.random.default_rng(17)
        matrix = _random_csr(rng, 37)
        x0 = rng.random(37)
        operator = TransitionOperator(matrix)
        _assert_bitwise(
            _power_scipy(operator._csr_t, x0.copy(), 11),
            _scipy_loop(matrix, x0, 11),
        )

    def test_row_stacks_match_rows_and_the_transposed_copy(self):
        from repro.core.chain import TransitionOperator

        rng = np.random.default_rng(19)
        n = 37
        matrix = _random_csr(rng, n)
        stack = rng.random((5, n))
        got = TransitionOperator(matrix).power(stack, 6)
        want = stack.copy()
        transposed = sparse.csr_matrix(matrix.T)
        for _ in range(6):
            want = np.ascontiguousarray((transposed @ want.T).T)
        _assert_bitwise(got, want)
        for row in range(len(stack)):
            _assert_bitwise(
                got[row], TransitionOperator(matrix).power(stack[row], 6)
            )

    def test_power_chain_resume_is_bit_identical(self):
        from repro.core.chain import PowerChain, TransitionOperator

        rng = np.random.default_rng(23)
        matrix = _random_csr(rng, 37)
        start = _initial(rng, 37).astype(np.float64)
        chain = PowerChain(TransitionOperator(matrix), start)
        for steps in (3, 1, 40, 7, 41):
            _assert_bitwise(
                chain.advance(steps), _scipy_loop(matrix, start, steps)
            )

    def test_inputs_left_unmutated(self):
        from repro.core.chain import TransitionOperator

        rng = np.random.default_rng(29)
        matrix = _random_csr(rng, 37)
        x0 = rng.random(37)
        x0.setflags(write=False)
        buffers = [
            array.copy()
            for array in (matrix.indptr, matrix.indices, matrix.data, x0)
        ]
        operator = TransitionOperator(matrix)
        out = operator.power(x0, 9)
        assert out.flags.writeable and not np.shares_memory(out, x0)
        operator.power(np.stack([x0, x0]), 9)
        for array, copy in zip(
            (matrix.indptr, matrix.indices, matrix.data, x0), buffers
        ):
            np.testing.assert_array_equal(array, copy)

    def test_layout_is_frozen_and_guarded(self):
        from repro.obs import sanitize

        rng = np.random.default_rng(31)
        matrix = _random_csr(rng, 37)
        with sanitize.sanitized() as sanitizer:
            layout = cnative.chain_layout_f64(
                matrix.indptr, matrix.indices, matrix.data
            )
            guarded = {
                name: array for name, (array, _) in sanitizer._arrays.items()
            }
        assert guarded["cnative.chain.idx"] is layout.idx
        assert guarded["cnative.chain.data"] is layout.data
        for buffer in layout:
            assert not buffer.flags.writeable

    def test_distribution_shape_checked(self):
        matrix = _random_csr(np.random.default_rng(41), 5)
        layout = cnative.chain_layout_f64(
            matrix.indptr, matrix.indices, matrix.data
        )
        for bad in (np.ones(1), np.ones(6), np.ones((2, 5))):
            with pytest.raises(ValueError, match="distribution of shape"):
                cnative.power_f64(layout, bad, 1)

    def test_state_space_bound_enforced(self):
        from repro.core.chain import TransitionOperator

        n = cnative.MAX_STATES + 1
        identity = sparse.identity(n, format="csr")
        with pytest.raises(ValueError, match="state space too large"):
            cnative.chain_layout_f64(
                identity.indptr, identity.indices, identity.data
            )
        # The operator falls back to the scipy loop instead.
        x0 = np.full(n, 1.0 / n)
        operator = TransitionOperator(identity)
        _assert_bitwise(operator.power(x0, 2), x0)
        assert operator._layout is False


class TestOperatorStorage:
    """``TransitionOperator`` holds one copy of ``A``."""

    def test_shares_buffers_and_allocates_no_transposed_copy(self):
        import tracemalloc

        from repro.core.chain import TransitionOperator

        rng = np.random.default_rng(37)
        matrix = sparse.csr_matrix(
            _random_stochastic(rng, 400) * (rng.random((400, 400)) < 0.2)
        )
        tracemalloc.start()
        try:
            operator = TransitionOperator(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A transposed copy would allocate 12 bytes per non-zero.
        assert peak < matrix.nnz
        view = operator._csr_t
        assert view.nnz == matrix.nnz
        for mine, theirs in (
            (view.indptr, matrix.indptr),
            (view.indices, matrix.indices),
            (view.data, matrix.data),
        ):
            assert np.shares_memory(mine, theirs)

    def test_matvec_counter_unchanged_with_and_without_the_kernel(
        self, monkeypatch, reset_kernel
    ):
        from repro.core.engine import ProbeScoringEngine
        from repro.core.inference import ReconInference
        from repro.experiments.params import ExperimentParams
        from repro.flows.config import ConfigGenerator
        from repro.obs import Instrumentation, use_instrumentation

        params = ExperimentParams()
        config = ConfigGenerator(params.config, seed=2017).sample()
        outcomes = []
        for disabled in ("", "1"):
            monkeypatch.setenv(cnative.DISABLE_ENV_VAR, disabled)
            cnative._reset_for_tests()
            backend = Instrumentation()
            with use_instrumentation(backend):
                model = CompactModel(
                    config.policy, config.universe, config.delta,
                    config.cache_size, kernel=params.kernel,
                )
                inference = ReconInference(
                    model, config.target_flow, config.window_steps
                )
                probes, gain = ProbeScoringEngine(inference).best_set(3)
            outcomes.append((
                probes, gain,
                backend.metrics.counter("kernel.sparse.matvecs").value,
            ))
        # One count per step per stacked row, as before the kernel.
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] == 3896
