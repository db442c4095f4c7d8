"""The parallel host SAT (the one-pass native kernel) and its engine handle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sat import sat_reference
from repro.sat.parallel_host import ParallelSATEngine, parallel_sat


class TestParallelSat:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_matches_reference(self, workers, rng):
        a = rng.integers(-9, 9, size=(97, 61)).astype(float)
        assert np.array_equal(parallel_sat(a, workers=workers),
                              sat_reference(a))

    def test_input_not_mutated(self, rng):
        a = rng.random((16, 16))
        before = a.copy()
        parallel_sat(a, workers=2)
        assert np.array_equal(a, before)

    def test_default_workers(self, rng):
        a = rng.integers(0, 9, size=(40, 40)).astype(float)
        assert np.array_equal(parallel_sat(a), sat_reference(a))

    def test_tiny_matrices(self):
        for shape in ((1, 1), (1, 7), (5, 1), (2, 2)):
            a = np.arange(np.prod(shape), dtype=float).reshape(shape)
            assert np.array_equal(parallel_sat(a, workers=4),
                                  sat_reference(a))

    def test_more_workers_than_rows(self, rng):
        a = rng.integers(0, 9, size=(3, 50)).astype(float)
        assert np.array_equal(parallel_sat(a, workers=8), sat_reference(a))

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            parallel_sat(np.zeros(4))
        with pytest.raises(ConfigurationError):
            parallel_sat(np.zeros((4, 4)), workers=0)

    @settings(deadline=None, max_examples=25)
    @given(rows=st.integers(1, 60), cols=st.integers(1, 60),
           workers=st.integers(1, 6), seed=st.integers(0, 10_000))
    def test_property_any_shape_and_pool(self, rows, cols, workers, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-20, 20, size=(rows, cols)).astype(float)
        assert np.array_equal(parallel_sat(a, workers=workers),
                              sat_reference(a))


class TestEngine:
    def test_reusable(self, rng):
        with ParallelSATEngine(workers=3) as engine:
            for _ in range(3):
                a = rng.integers(0, 9, size=(48, 32)).astype(float)
                assert np.array_equal(engine.compute(a), sat_reference(a))

    def test_shape_change_reallocates(self, rng):
        with ParallelSATEngine(workers=2) as engine:
            a = rng.integers(-9, 9, size=(20, 30)).astype(float)
            b = rng.integers(-9, 9, size=(30, 20)).astype(float)
            assert np.array_equal(engine.compute(a), sat_reference(a))
            assert np.array_equal(engine.compute(b), sat_reference(b))

    def test_result_survives_next_compute(self, rng):
        """Returned arrays must not alias the engine's scratch."""
        with ParallelSATEngine(workers=2) as engine:
            a = rng.integers(0, 9, size=(16, 16)).astype(float)
            b = rng.integers(0, 9, size=(16, 16)).astype(float)
            ra = engine.compute(a)
            engine.compute(b)
            assert np.array_equal(ra, sat_reference(a))

    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError):
            ParallelSATEngine(workers=0)

    def test_close_idempotent(self):
        engine = ParallelSATEngine(workers=1)
        engine.close()
        engine.close()
