"""Equivalence, bit-identity, determinism and API tests for the wavefront
host engine.

The central claims under test (see ``docs/ARCHITECTURE.md``):

* every tile-based algorithm's wavefront execution equals the NumPy
  reference SAT (exact, on integer-valued inputs);
* wavefront results are **bit-identical** to the algorithm's own serial
  ``run_host`` loop, for any worker count — batching a chunk of tiles into
  one ``(k, W, W)`` NumPy call sequence does not change a single bit;
* two runs of the same engine are bit-identical (scheduling order does not
  leak into results).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hostexec import (WavefrontEngine, default_workers, resolve_engine,
                            shared_engine, wavefront_sat)
from repro.hostexec.plan import CACHE_ENTRIES
from repro.sat.reference import sat_reference
from repro.sat.registry import get_algorithm

TILE_ALGORITHMS = ["2R1W", "1R1W", "(1+r)R1W", "1R1W-SKSS", "1R1W-SKSS-LB"]


def matrix(n, seed=7, integer=True):
    rng = np.random.default_rng(seed)
    if integer:
        return rng.integers(0, 100, size=(n, n)).astype(np.float64)
    return rng.standard_normal((n, n))


@pytest.mark.parametrize("algorithm", TILE_ALGORITHMS)
@pytest.mark.parametrize("tile_width", [8, 16, 32])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_matches_reference(algorithm, tile_width, workers):
    a = matrix(96)
    with WavefrontEngine(workers=workers) as eng:
        sat = eng.compute(a, algorithm=algorithm, tile_width=tile_width)
    assert np.array_equal(sat, sat_reference(a))


@pytest.mark.parametrize("algorithm", TILE_ALGORITHMS)
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_bit_identical_to_serial_host(algorithm, workers):
    # Float inputs: round-off patterns must match the serial loop exactly.
    a = matrix(128, integer=False)
    serial = get_algorithm(algorithm).run_host(a)
    with WavefrontEngine(workers=workers) as eng:
        assert np.array_equal(eng.compute(a, algorithm=algorithm), serial)


def test_two_runs_bit_identical():
    a = matrix(256, integer=False)
    with WavefrontEngine(workers=4) as eng:
        first = eng.compute(a)
        second = eng.compute(a)
    assert np.array_equal(first, second)


def test_run_host_engine_parameter():
    a = matrix(96)
    alg = get_algorithm("1R1W-SKSS-LB")
    with WavefrontEngine(workers=2) as eng:
        assert np.array_equal(alg.run_host(a, engine=eng), alg.run_host(a))


def test_run_host_rejects_non_tile_algorithm():
    a = matrix(96)
    with pytest.raises(ConfigurationError,
                       match="does not support algorithm '2R2W'"):
        get_algorithm("2R2W").run_host(a, engine="wavefront")


def test_algorithm_aliases_resolve():
    a = matrix(64)
    with WavefrontEngine(workers=1) as eng:
        sat = eng.compute(a, algorithm="skss-lb")
    assert np.array_equal(sat, sat_reference(a))


class TestBatchedAPI:
    def test_compute_many_equals_one_shot(self):
        arrays = [matrix(96, seed=s, integer=False) for s in range(4)]
        with WavefrontEngine(workers=2) as eng:
            batched = eng.compute_many(arrays)
        for a, sat in zip(arrays, batched):
            assert np.array_equal(sat, wavefront_sat(a, workers=2))

    def test_compute_many_mixed_algorithms_independent(self):
        a = matrix(96)
        with WavefrontEngine(workers=2) as eng:
            for algorithm in TILE_ALGORITHMS:
                sat = eng.compute(a, algorithm=algorithm)
                assert np.array_equal(sat, sat_reference(a))

    def test_stream_yields_in_order(self):
        arrays = [matrix(64, seed=s) for s in range(3)]
        with WavefrontEngine(workers=2) as eng:
            sats = list(eng.stream(iter(arrays)))
        assert len(sats) == 3
        for a, sat in zip(arrays, sats):
            assert np.array_equal(sat, sat_reference(a))

    def test_stream_fresh_buffers_by_default(self):
        arrays = [matrix(64, seed=s) for s in range(2)]
        with WavefrontEngine(workers=1) as eng:
            first, second = list(eng.stream(arrays))
        assert first is not second
        assert np.array_equal(first, sat_reference(arrays[0]))

    def test_stream_reuse_output_recycles_buffer(self):
        arrays = [matrix(64, seed=s) for s in range(3)]
        with WavefrontEngine(workers=1) as eng:
            buffers = []
            for a, sat in zip(arrays, eng.stream(arrays, reuse_output=True)):
                buffers.append(sat)
                assert np.array_equal(sat, sat_reference(a))
        assert buffers[0] is buffers[1] is buffers[2]

    def test_plan_and_carry_caches_stay_bounded(self):
        sizes = [32 * k for k in range(1, CACHE_ENTRIES + 3)]
        with WavefrontEngine(workers=1) as eng:
            for n in sizes:
                a = matrix(n, seed=n)
                assert np.array_equal(eng.compute(a), sat_reference(a))
                assert len(eng._plans) <= CACHE_ENTRIES
                assert len(eng._carries) <= CACHE_ENTRIES
            # The most recent geometries are the ones kept.
            assert [k[0] for k in eng._carries] == \
                [n // 32 for n in sizes[-CACHE_ENTRIES:]]

    def test_plan_and_carry_caches_are_reused(self):
        with WavefrontEngine(workers=2) as eng:
            eng.compute(matrix(96))
            plans = {k: id(v) for k, v in eng._plans.items()}
            carries = {k: id(v) for k, v in eng._carries.items()}
            eng.compute(matrix(96, seed=9))
            assert {k: id(v) for k, v in eng._plans.items()} == plans
            assert {k: id(v) for k, v in eng._carries.items()} == carries


class TestOutParameter:
    def test_out_receives_result(self):
        a = matrix(64)
        out = np.empty_like(a)
        with WavefrontEngine(workers=1) as eng:
            result = eng.compute(a, out=out)
        assert result is out
        assert np.array_equal(out, sat_reference(a))

    def test_out_wrong_shape_rejected(self):
        with WavefrontEngine(workers=1) as eng:
            with pytest.raises(ConfigurationError, match="out"):
                eng.compute(matrix(64), out=np.empty((32, 32)))

    def test_out_wrong_dtype_rejected(self):
        with WavefrontEngine(workers=1) as eng:
            with pytest.raises(ConfigurationError, match="out"):
                eng.compute(matrix(64),
                            out=np.empty((64, 64), dtype=np.float32))

    def test_out_non_contiguous_rejected(self):
        backing = np.empty((64, 128))
        with WavefrontEngine(workers=1) as eng:
            with pytest.raises(ConfigurationError, match="out"):
                eng.compute(matrix(64), out=backing[:, ::2])

    def test_input_not_modified(self):
        a = matrix(64)
        snapshot = a.copy()
        with WavefrontEngine(workers=2) as eng:
            sat = eng.compute(a)
        assert np.array_equal(a, snapshot)
        assert sat is not a


class TestValidation:
    def test_non_square_supported(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 9, size=(64, 32)).astype(float)
        with WavefrontEngine(workers=1) as eng:
            sat = eng.compute(a)
        assert sat.shape == a.shape
        assert np.array_equal(sat, a.cumsum(axis=0).cumsum(axis=1))

    def test_unaligned_size_supported(self):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 9, size=(40, 40)).astype(float)
        with WavefrontEngine(workers=1) as eng:
            sat = eng.compute(a, tile_width=32)
        assert sat.shape == a.shape
        assert np.array_equal(sat, a.cumsum(axis=0).cumsum(axis=1))

    def test_non_tile_algorithm_rejected(self):
        with WavefrontEngine(workers=1) as eng:
            with pytest.raises(ConfigurationError):
                eng.compute(matrix(64), algorithm="2R2W")

    def test_unknown_algorithm_rejected(self):
        with WavefrontEngine(workers=1) as eng:
            with pytest.raises(ConfigurationError):
                eng.compute(matrix(64), algorithm="no-such-algorithm")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            WavefrontEngine(workers=0)
        with pytest.raises(ConfigurationError):
            WavefrontEngine(workers=-2)

    def test_closed_engine_refuses_parallel_compute(self):
        eng = WavefrontEngine(workers=2)
        eng.compute(matrix(128, seed=1), tile_width=8)  # warm
        eng.close()
        with pytest.raises(ConfigurationError, match="closed"):
            # Large enough to need the pool (many chunks).
            eng.compute(matrix(512), tile_width=16)


class TestWorkers:
    def test_default_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_default_workers_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigurationError):
            default_workers()

    def test_default_workers_env_nonpositive(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ConfigurationError):
            default_workers()

    def test_default_workers_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() >= 1

    def test_engine_uses_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert WavefrontEngine().workers == 2


class TestResolution:
    def test_resolve_instance_passthrough(self):
        with WavefrontEngine(workers=1) as eng:
            assert resolve_engine(eng) is eng

    def test_resolve_wavefront_returns_shared(self):
        assert resolve_engine("wavefront") is shared_engine()

    def test_shared_engine_recreated_after_close(self):
        first = shared_engine()
        first.close()
        second = shared_engine()
        assert second is not first
        assert not second._closed

    def test_resolve_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_engine("gpu")

    def test_shared_engine_per_worker_count(self):
        assert shared_engine(2) is shared_engine(2)
        assert shared_engine(2).workers == 2
        assert shared_engine(1) is not shared_engine(2)
        with pytest.raises(ConfigurationError):
            shared_engine(0)

    def test_shared_engines_stay_bounded(self):
        import gc
        import weakref

        from repro.hostexec import engine as engine_mod
        first = weakref.ref(shared_engine(1))
        for w in range(2, CACHE_ENTRIES + 3):
            shared_engine(w)
        assert len(engine_mod._shared) == CACHE_ENTRIES
        gc.collect()
        assert first() is None
        assert shared_engine(1).workers == 1

    def test_workers_calls_build_no_engine(self, monkeypatch):
        """``workers=`` calls reuse the shared engine for that count: no
        pool, plan or carry planes are built again."""
        from repro.sat.registry import compute_sat
        a = matrix(96)
        wavefront_sat(a, workers=2)
        built = []
        original = WavefrontEngine.__init__

        def counting_init(self, **kwargs):
            built.append(kwargs)
            original(self, **kwargs)
        monkeypatch.setattr(WavefrontEngine, "__init__", counting_init)
        assert np.array_equal(wavefront_sat(a, workers=2), sat_reference(a))
        result = compute_sat(a, engine="wavefront", workers=2)
        assert np.array_equal(result.sat, sat_reference(a))
        assert built == []


def test_wavefront_sat_one_shot():
    a = matrix(96)
    assert np.array_equal(wavefront_sat(a, workers=2), sat_reference(a))
    assert np.array_equal(wavefront_sat(a), sat_reference(a))
