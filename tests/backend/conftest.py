"""Fixtures for the backend conformance suite.

Every test parameterized over the ``backend`` fixture runs against the FULL
unified registry (:func:`repro.backend.registry.known_backends`), so
registering a new backend automatically puts it under conformance — there is
no second list to keep in sync.

The helpers encode the two per-backend knobs the suite needs:

* tile width — the simulator's warp collectives need whole 32-lane warps,
  every host backend is exercised at the smaller W=16 (more ragged edges per
  matrix);
* shape — the simulator pays per executed instruction, so its matrices stay
  small (still ragged: partial edge tiles on both axes).
"""

import numpy as np
import pytest

from repro.backend.registry import get_backend, known_backends


@pytest.fixture(params=known_backends())
def backend_name(request):
    return request.param


@pytest.fixture
def backend(backend_name):
    return get_backend(backend_name)


@pytest.fixture
def spec(backend):
    return backend.spec


@pytest.fixture
def W(spec):
    """Smallest legal tile width for this backend."""
    return 32 if spec.kind == "device" else 16


@pytest.fixture
def shape(spec, W):
    """A ragged rectangle (partial edge tiles on both axes)."""
    return (W + 5, W - 9) if spec.kind == "device" else (3 * W + 5, 2 * W + 6)


@pytest.fixture
def make_matrix():
    """Deterministic random test matrices in any dtype."""
    def make(shape, dtype, seed=7):
        rng = np.random.default_rng(seed)
        dt = np.dtype(dtype)
        if np.issubdtype(dt, np.floating):
            return (rng.random(shape) * 100).astype(dt)
        return rng.integers(0, 100, size=shape).astype(dt)
    return make


@pytest.fixture
def assert_matches():
    """Spec-driven result comparison, same contract as the fuzzer's.

    ``bit_identical`` backends, ``algorithm_agnostic`` ones (against the
    plain double-cumsum oracle) and every backend on integer accumulators
    must match exactly; float results from reduction-reordering backends are
    held to the statically proven rounding budget
    (:func:`repro.analysis.tolerances.derived_tolerance`, worst case over
    the Table I algorithms — both legs of the comparison accumulate, hence
    ``oracle="host"``).
    """
    from repro.analysis.tolerances import assert_sat_close, derived_tolerance

    def check(spec, got, want):
        assert got.shape == want.shape
        assert got.dtype == want.dtype
        if spec.bit_identical or spec.algorithm_agnostic \
                or np.issubdtype(got.dtype, np.integer):
            np.testing.assert_array_equal(got, want)
        else:
            tol = derived_tolerance(None, got.shape, got.dtype,
                                    tile_width=16, oracle="host")
            assert_sat_close(got, want, tol,
                             context=f"backend '{spec.name}'")
    return check
