"""Compiled flat-kernel engine: bit-identity, routing, no-Numba fallback.

The bit-identity contract is pinned with ``jit=False`` (same kernel source,
pure Python) so it holds on Numba-free hosts; a separate leg re-runs the
core equivalence under the real njit kernels when Numba is importable.
"""

import sys
import warnings

import numpy as np
import pytest

from repro import ALGORITHMS, sat_reference
from repro.errors import ConfigurationError
from repro.hostexec import compiled as compiled_mod
from repro.hostexec.plan import CACHE_ENTRIES
from repro.hostexec.compiled import (FLAT_KERNELS, NON_TILE_ALGORITHMS,
                                     CompiledEngine, _canonical_algorithm,
                                     _flat_double_scan, _pairwise,
                                     compiled_sat, flat_kernel_for,
                                     host_compiled_sat, is_compiled_engine,
                                     numba_available)
from repro.sat.registry import compute_sat, get_algorithm, host_sat

DTYPES = ("uint8", "int32", "float32", "float64")
#: Aligned, ragged-both-edges, and ragged-one-edge rectangles (W=16).
SHAPES = ((48, 48), (33, 65), (70, 48))


def _matrix(shape, dtype, seed=0):
    """Random values; floats get fractional parts so FP order matters."""
    rng = np.random.default_rng(seed)
    if np.issubdtype(np.dtype(dtype), np.integer):
        info = np.iinfo(dtype)
        return rng.integers(0, min(100, info.max),
                            size=shape).astype(dtype)
    return ((rng.random(shape) - 0.25) * 100).astype(dtype)


@pytest.fixture(scope="module")
def pure_engine():
    with CompiledEngine(jit=False) as engine:
        yield engine


class TestBitIdentity:
    """The hard gate: all 7 algorithms x 4 dtypes x ragged shapes."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matches_serial_host_path(self, pure_engine, algorithm, dtype):
        alg = get_algorithm(algorithm, tile_width=16)
        for shape in SHAPES:
            a = _matrix(shape, dtype)
            want = alg.run_host(a)
            got = pure_engine.compute(a, algorithm=algorithm, tile_width=16)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (algorithm, dtype, shape)

    def test_plain_scan_is_unpadded_reference(self, pure_engine):
        a = _matrix((37, 53), "float32", seed=3)
        got = pure_engine.compute(a, algorithm="2R2W")
        assert np.array_equal(got, sat_reference(a))

    def test_algorithm_none_means_reference_scan(self, pure_engine):
        a = _matrix((20, 31), "float64", seed=4)
        got = pure_engine.compute(a, algorithm=None)
        assert np.array_equal(got, sat_reference(a))

    def test_negative_floats_and_large_scale(self, pure_engine):
        rng = np.random.default_rng(9)
        a = ((rng.random((50, 34)) - 0.5) * 1e6).astype(np.float32)
        want = get_algorithm("1R1W-SKSS-LB", tile_width=16).run_host(a)
        got = pure_engine.compute(a, algorithm="1R1W-SKSS-LB", tile_width=16)
        assert np.array_equal(got, want)


class TestPairwise:
    """The replicated NumPy pairwise reduction, across its regime boundaries."""

    @pytest.mark.parametrize("n", [1, 3, 7, 8, 9, 15, 16, 100, 127, 128,
                                   129, 255, 256, 1000])
    def test_matches_numpy_sum(self, n):
        rng = np.random.default_rng(n)
        a = (rng.random(n).astype(np.float32) - 0.25) * 3.0
        assert _pairwise(a) == a.sum()

    def test_double_scan_matches_cumsum(self):
        a = (np.random.default_rng(1).random((45, 61)) - 0.5).astype(
            np.float32)
        out = np.empty_like(a)
        _flat_double_scan(a, out)
        assert np.array_equal(out, a.cumsum(axis=0).cumsum(axis=1))


class TestComputeSemantics:
    def test_out_buffer_aligned(self, pure_engine):
        a = _matrix((32, 32), "float64")
        out = np.empty((32, 32), dtype=np.float64)
        res = pure_engine.compute(a, algorithm="1R1W", tile_width=16, out=out)
        assert res is out
        assert np.array_equal(
            out, get_algorithm("1R1W", tile_width=16).run_host(a))

    def test_out_buffer_ragged(self, pure_engine):
        a = _matrix((33, 40), "int32")
        out = np.empty((33, 40), dtype=np.int64)
        res = pure_engine.compute(a, algorithm="1R1W-SKSS", tile_width=16,
                                  out=out)
        assert res is out
        assert np.array_equal(out, sat_reference(a).astype(np.int64))

    def test_bad_out_rejected(self, pure_engine):
        a = _matrix((16, 16), "float64")
        with pytest.raises(ConfigurationError):
            pure_engine.compute(a, tile_width=16,
                                out=np.empty((16, 16), dtype=np.float32))

    def test_non_2d_rejected(self, pure_engine):
        with pytest.raises(ConfigurationError):
            pure_engine.compute(np.zeros(8))

    def test_closed_engine_rejected(self):
        engine = CompiledEngine(jit=False)
        engine.close()
        with pytest.raises(ConfigurationError):
            engine.compute(np.zeros((4, 4)), tile_width=4)

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            CompiledEngine(workers=0, jit=False)

    def test_carry_and_diagonal_caches_are_reused(self, pure_engine):
        a = _matrix((32, 48), "float64", seed=7)
        first = pure_engine.compute(a, algorithm="2R1W", tile_width=16)
        n_carries = len(pure_engine._carries)
        n_diags = len(pure_engine._diags)
        second = pure_engine.compute(a, algorithm="2R1W", tile_width=16)
        assert np.array_equal(first, second)
        assert len(pure_engine._carries) == n_carries
        assert len(pure_engine._diags) == n_diags


    def test_carry_and_diagonal_caches_stay_bounded(self, pure_engine):
        for k in range(1, CACHE_ENTRIES + 3):
            a = _matrix((8 * k, 8), "int32", seed=k)
            got = pure_engine.compute(a, algorithm="2R1W", tile_width=8)
            assert np.array_equal(got, sat_reference(a))
            assert len(pure_engine._carries) <= CACHE_ENTRIES
            assert len(pure_engine._diags) <= CACHE_ENTRIES


class TestFlatKernelRegistry:
    def test_tile_five_have_flat_kernels(self):
        assert set(FLAT_KERNELS) == set(ALGORITHMS) - set(NON_TILE_ALGORITHMS)

    def test_alias_resolution(self):
        assert flat_kernel_for("skss-lb").name == "1R1W-SKSS-LB"
        assert flat_kernel_for("nehab").name == "2R1W"

    def test_plain_scan_has_no_flat_kernel(self):
        with pytest.raises(ConfigurationError):
            flat_kernel_for("2R2W")

    def test_canonical_none_is_reference(self):
        assert _canonical_algorithm(None) == "2R2W"

    def test_is_compiled_engine(self):
        assert is_compiled_engine("compiled")
        assert is_compiled_engine(CompiledEngine(jit=False))
        assert not is_compiled_engine("wavefront")
        assert not is_compiled_engine(None)


@pytest.fixture
def no_numba(monkeypatch):
    """Simulate an uninstalled numba (find_spec fails on a None entry)."""
    monkeypatch.setitem(sys.modules, "numba", None)
    compiled_mod._reset_numba_probe()
    yield
    compiled_mod._reset_numba_probe()


class TestNoNumbaFallback:
    def test_jit_engine_requires_numba(self, no_numba):
        with pytest.raises(ConfigurationError, match="requires numba"):
            CompiledEngine()

    def test_compiled_sat_requires_numba(self, no_numba):
        with pytest.raises(ConfigurationError):
            compiled_sat(np.zeros((4, 4)))

    def test_string_routing_degrades_to_wavefront(self, no_numba):
        a = _matrix((33, 65), "float32")
        want = get_algorithm("1R1W-SKSS-LB", tile_width=16).run_host(a)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = host_sat(a, algorithm="1R1W-SKSS-LB", tile_width=16,
                           engine="compiled")
        assert np.array_equal(got, want)
        ours = [w for w in caught if issubclass(w.category, RuntimeWarning)
                and "falls back" in str(w.message)]
        assert len(ours) == 1

    def test_warning_fires_exactly_once_per_process(self, no_numba):
        a = _matrix((32, 32), "int32")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                host_sat(a, algorithm="1R1W", tile_width=16,
                         engine="compiled")
        ours = [w for w in caught if "falls back" in str(w.message)]
        assert len(ours) == 1

    def test_plain_scan_degrades_to_serial(self, no_numba):
        a = _matrix((19, 27), "float64")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = host_sat(a, algorithm="2R2W", engine="compiled")
            got_none = host_sat(a, engine="compiled")
        assert np.array_equal(got, sat_reference(a))
        assert np.array_equal(got_none, sat_reference(a))

    def test_numba_available_is_false_and_cached(self, no_numba):
        assert not numba_available()
        assert compiled_mod._numba_ok is False

    def test_explicit_pure_engine_still_works(self, no_numba):
        a = _matrix((33, 40), "uint8")
        with CompiledEngine(jit=False) as engine:
            got = engine.compute(a, algorithm="2R1W", tile_width=16)
        assert np.array_equal(got, sat_reference(a).astype(np.int64))


class TestRouting:
    """engine='compiled' through every public entry point (works with or
    without Numba — the fallback keeps results bit-identical)."""

    @staticmethod
    def _quiet():
        import contextlib

        @contextlib.contextmanager
        def quiet():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                yield
        return quiet()

    def test_run_host_with_engine_instance(self):
        a = _matrix((40, 33), "float32", seed=2)
        alg = get_algorithm("1R1W-SKSS", tile_width=16)
        got = alg.run_host(a, engine=CompiledEngine(jit=False))
        assert np.array_equal(got, alg.run_host(a))

    def test_host_sat_with_engine_instance(self):
        a = _matrix((33, 48), "float64", seed=5)
        got = host_sat(a, algorithm="2R1W", tile_width=16,
                       engine=CompiledEngine(jit=False))
        want = get_algorithm("2R1W", tile_width=16).run_host(a)
        assert np.array_equal(got, want)

    def test_host_compiled_sat_none_algorithm(self):
        a = _matrix((21, 34), "int32", seed=6)
        with self._quiet():
            got = host_compiled_sat(a)
        assert np.array_equal(got, sat_reference(a))

    def test_compute_sat_records_compiled_engine(self):
        a = _matrix((48, 48), "float64", seed=8)
        with self._quiet():
            res = compute_sat(a, simulate=False, engine="compiled",
                              tile_width=16)
        assert res.params["engine"] == "compiled"
        want = get_algorithm("1R1W-SKSS-LB", tile_width=16).run_host(a)
        assert np.array_equal(res.sat, want)

    def test_out_of_core_band_routing(self):
        from repro.sat.outofcore import out_of_core_sat
        a = _matrix((70, 41), "float32", seed=11)
        with self._quiet():
            got = out_of_core_sat(a, band_rows=24, algorithm="1R1W-SKSS-LB",
                                  tile_width=16, engine="compiled")
        want = out_of_core_sat(a, band_rows=24, algorithm="1R1W-SKSS-LB",
                               tile_width=16)
        assert np.array_equal(got, want)


class TestJittedLeg:
    """Real-Numba equivalence (skipped wherever numba is not installed)."""

    @pytest.fixture(scope="class")
    def jit_engine(self):
        pytest.importorskip("numba")
        with CompiledEngine() as engine:
            yield engine

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_jitted_matches_serial(self, jit_engine, algorithm):
        alg = get_algorithm(algorithm, tile_width=16)
        for dtype in ("int32", "float32"):
            a = _matrix((33, 65), dtype, seed=13)
            got = jit_engine.compute(a, algorithm=algorithm, tile_width=16)
            assert np.array_equal(got, alg.run_host(a)), (algorithm, dtype)

    def test_parallel_variant_bit_identical(self):
        pytest.importorskip("numba")
        a = _matrix((96, 70), "float64", seed=17)
        want = get_algorithm("1R1W-SKSS-LB", tile_width=16).run_host(a)
        with CompiledEngine(workers=2) as engine:
            got = engine.compute(a, algorithm="1R1W-SKSS-LB", tile_width=16)
        assert np.array_equal(got, want)

    def test_compiled_sat_one_shot(self):
        pytest.importorskip("numba")
        a = _matrix((40, 40), "float32", seed=19)
        want = get_algorithm("1R1W-SKSS-LB", tile_width=16).run_host(a)
        assert np.array_equal(compiled_sat(a, tile_width=16), want)
