"""The six registered backends: every executor in the repo, one protocol.

Each class here is a thin adapter from the :class:`~repro.backend.Backend`
plan/execute/carry contract onto an existing executor — the algorithms' own
serial host loops, the wavefront engine, the Numba-compiled flat kernels,
the native one-pass kernel, the out-of-core band streamer and the functional
GPU simulator.  The adapters contain *no* tile-layout or dtype glue of their
own: all of that lives in the shared plan layer
(:mod:`repro.backend.plan`) and in the engines themselves.

This module is imported lazily by the registry (``get_backend``), so the
CLI and other registry consumers never pay for engine imports they don't
use.
"""

from __future__ import annotations

import numpy as np

from repro.backend.carries import BandCarrySet, CarrySet, TileCarrySet
from repro.backend.core import Backend
from repro.backend.plan import ExecutionPlan


class SerialBackend(Backend):
    """The oracle: each algorithm's own per-tile serial host loop."""

    def __init__(self) -> None:
        from repro.backend.registry import get_spec
        self.spec = get_spec("serial")

    def _execute(self, plan: ExecutionPlan, a: np.ndarray,
                 out: np.ndarray | None) -> np.ndarray:
        if plan.algorithm is None:
            return a.astype(plan.acc_dtype, copy=False) \
                .cumsum(axis=0).cumsum(axis=1)
        from repro.sat.registry import get_algorithm
        alg = get_algorithm(plan.algorithm, tile_width=plan.tile_width)
        return alg.run_host(a, dtype_policy=plan.acc_dtype)


class WavefrontBackend(Backend):
    """Dependency-driven tile chunks on a thread pool (bit-identical)."""

    def __init__(self, engine=None) -> None:
        from repro.backend.registry import get_spec
        self.spec = get_spec("wavefront")
        self._engine = engine

    def _engine_compute(self, eng, plan: ExecutionPlan, a: np.ndarray,
                        out: np.ndarray | None) -> np.ndarray:
        return eng.compute(a, algorithm=plan.algorithm,
                           tile_width=plan.tile_width,
                           dtype_policy=plan.acc_dtype, out=out)

    def _execute(self, plan: ExecutionPlan, a: np.ndarray,
                 out: np.ndarray | None) -> np.ndarray:
        from repro.hostexec.engine import shared_engine
        eng = self._engine if self._engine is not None \
            else shared_engine(plan.workers)
        return self._engine_compute(eng, plan, a, out)

    def _execute_with_carries(self, plan: ExecutionPlan,
                              a: np.ndarray) -> tuple[np.ndarray, CarrySet]:
        from repro.hostexec.engine import WavefrontEngine
        eng = self._engine
        owned = eng is None
        if owned:
            eng = WavefrontEngine(workers=plan.workers)
        try:
            sat = eng.compute(a, algorithm=plan.algorithm,
                              tile_width=plan.tile_width,
                              dtype_policy=plan.acc_dtype, retain_state=True)
            state = eng.retained_state()
            carry = TileCarrySet(tile_rows=state.grid.tile_rows,
                                 tile_cols=state.grid.tile_cols,
                                 tile_width=state.grid.W,
                                 _planes=state.planes())
        finally:
            if owned:
                eng.close()
        return sat, carry


class ParallelBackend(Backend):
    """The native one-pass 1R1W kernel — computes the same SAT whatever the
    ``algorithm=`` says (``spec.algorithm_agnostic``)."""

    def __init__(self) -> None:
        from repro.backend.registry import get_spec
        self.spec = get_spec("parallel")

    def _execute(self, plan: ExecutionPlan, a: np.ndarray,
                 out: np.ndarray | None) -> np.ndarray:
        from repro.sat.parallel_host import parallel_sat
        return parallel_sat(a, workers=plan.workers,
                            dtype_policy=plan.acc_dtype)


class CompiledBackend(Backend):
    """Numba-jitted flat tile kernels; degrades to wavefront/serial (with a
    single warning) when Numba is missing."""

    def __init__(self, engine=None) -> None:
        from repro.backend.registry import get_spec
        self.spec = get_spec("compiled")
        self._engine = engine

    def _execute(self, plan: ExecutionPlan, a: np.ndarray,
                 out: np.ndarray | None) -> np.ndarray:
        from repro.hostexec.compiled import (_warn_fallback, numba_available,
                                             shared_compiled_engine)
        if self._engine is not None:
            return self._engine.compute(a, algorithm=plan.algorithm,
                                        tile_width=plan.tile_width,
                                        dtype_policy=plan.acc_dtype, out=out)
        if numba_available():
            return shared_compiled_engine(plan.workers).compute(
                a, algorithm=plan.algorithm, tile_width=plan.tile_width,
                dtype_policy=plan.acc_dtype, out=out)
        _warn_fallback()
        if plan.algorithm is None:
            return a.astype(plan.acc_dtype, copy=False) \
                .cumsum(axis=0).cumsum(axis=1)
        if plan.grid is not None:   # tile dataflow: degrade to wavefront
            from repro.hostexec.engine import shared_engine
            return shared_engine().compute(a, algorithm=plan.algorithm,
                                           tile_width=plan.tile_width,
                                           dtype_policy=plan.acc_dtype,
                                           out=out)
        from repro.sat.registry import get_algorithm
        alg = get_algorithm(plan.algorithm, tile_width=plan.tile_width)
        return alg.run_host(a, dtype_policy=plan.acc_dtype)


class GpusimBackend(Backend):
    """The functional GPU simulator: device kernels behind the same seams.

    The simulator accumulates in float64 internally and casts to the plan's
    accumulator dtype on read-back — exact for integer inputs below 2**53,
    within the proven rounding budget for floats (``bit_identical=False``).
    """

    def __init__(self) -> None:
        from repro.backend.registry import get_spec
        self.spec = get_spec("gpusim")

    def _validate_plan(self, plan: ExecutionPlan) -> None:
        # The simulator's warp collectives reduce over W lanes, so tile-based
        # dataflows need whole 32-lane warps per tile row (the default
        # DeviceSpec's warp size).
        from repro.errors import ConfigurationError
        from repro.gpusim.device import WARP_SIZE
        if plan.tile_based and plan.tile_width % WARP_SIZE:
            raise ConfigurationError(
                f"the gpusim backend needs tile_width to be a multiple of "
                f"the {WARP_SIZE}-lane warp size, got {plan.tile_width}")

    def _execute(self, plan: ExecutionPlan, a: np.ndarray,
                 out: np.ndarray | None) -> np.ndarray:
        from repro.gpusim.kernel import GPU
        from repro.sat.registry import get_algorithm
        alg = get_algorithm(plan.algorithm, tile_width=plan.tile_width)
        return alg.run(a, GPU(), dtype_policy=plan.acc_dtype).sat


class OutOfCoreBackend(Backend):
    """Banded streaming SAT: the tile carry algebra one level up.

    Each band's SAT is stitched to the global one through a vector of
    accumulated column sums (the GCP identity at band granularity) —
    exposed as the :class:`~repro.backend.carries.BandCarrySet`.
    """

    def __init__(self) -> None:
        from repro.backend.registry import get_spec
        self.spec = get_spec("outofcore")

    def _check_band_rows(self, band_rows: int | None, rows: int,
                         tile_width: int) -> int | None:
        if band_rows is None:
            return min(rows, tile_width)
        if not isinstance(band_rows, (int, np.integer)) \
                or isinstance(band_rows, bool) or band_rows <= 0:
            from repro.errors import ConfigurationError
            raise ConfigurationError("band_rows must be positive")
        return int(band_rows)

    def _execute(self, plan: ExecutionPlan, a: np.ndarray,
                 out: np.ndarray | None) -> np.ndarray:
        from repro.sat.outofcore import out_of_core_sat
        return out_of_core_sat(a, band_rows=plan.band_rows,
                               algorithm=plan.algorithm,
                               tile_width=plan.tile_width,
                               dtype_policy=plan.acc_dtype)

    def _execute_with_carries(self, plan: ExecutionPlan,
                              a: np.ndarray) -> tuple[np.ndarray, CarrySet]:
        from repro.sat.outofcore import _band_engine, band_bounds
        acc = plan.acc_dtype
        sat = np.empty((plan.rows, plan.cols), dtype=acc)
        carry_cols = np.zeros(plan.cols, dtype=acc)
        for lo, hi in band_bounds(plan.rows, plan.band_rows):
            band = a[lo:hi]
            band_sat = _band_engine(band, plan.algorithm, plan.tile_width,
                                    None, None, acc)
            sat[lo:hi] = band_sat + np.cumsum(carry_cols)[None, :]
            carry_cols = carry_cols + band.sum(axis=0, dtype=acc)
        return sat, BandCarrySet(column_sums=carry_cols)


class DistributedBackend(Backend):
    """Sharded band workers behind the work-queue protocol.

    The image is split into ``shards`` contiguous band shards, fanned out
    to a pool (in-process by default; real worker processes when the plan
    asks for ``workers > 1``) and stitched with persisted
    :class:`~repro.backend.carries.BandCarrySet` column sums — see
    :mod:`repro.distsat`.  ``band_rows`` bounds each worker's chunk size
    within its shard.
    """

    def __init__(self) -> None:
        from repro.backend.registry import get_spec
        self.spec = get_spec("distributed")

    def _check_band_rows(self, band_rows: int | None, rows: int,
                         tile_width: int) -> int | None:
        if band_rows is None:
            return min(rows, tile_width)
        if not isinstance(band_rows, (int, np.integer)) \
                or isinstance(band_rows, bool) or band_rows <= 0:
            from repro.errors import ConfigurationError
            raise ConfigurationError("band_rows must be positive")
        return int(band_rows)

    def _check_shards(self, shards: int | None, rows: int) -> int | None:
        if shards is None:
            return min(rows, 2)
        if not isinstance(shards, (int, np.integer)) \
                or isinstance(shards, bool) or shards <= 0:
            from repro.errors import ConfigurationError
            raise ConfigurationError(
                f"shards must be a positive integer, got {shards!r}")
        return int(shards)

    def _run(self, plan: ExecutionPlan, a: np.ndarray):
        from repro.distsat import distributed_sat
        transport = "process" if plan.workers is not None \
            and plan.workers > 1 else "inline"
        return distributed_sat(a, shards=plan.shards or 2,
                               algorithm=plan.algorithm,
                               tile_width=plan.tile_width,
                               dtype_policy=plan.acc_dtype,
                               chunk_rows=plan.band_rows,
                               transport=transport, workers=plan.workers)

    def _execute(self, plan: ExecutionPlan, a: np.ndarray,
                 out: np.ndarray | None) -> np.ndarray:
        return self._run(plan, a).sat

    def _execute_with_carries(self, plan: ExecutionPlan,
                              a: np.ndarray) -> tuple[np.ndarray, CarrySet]:
        result = self._run(plan, a)
        return result.sat, result.carries


#: Concrete class behind each registered backend name.
BACKEND_CLASSES: dict[str, type[Backend]] = {
    "serial": SerialBackend,
    "wavefront": WavefrontBackend,
    "parallel": ParallelBackend,
    "compiled": CompiledBackend,
    "gpusim": GpusimBackend,
    "outofcore": OutOfCoreBackend,
    "distributed": DistributedBackend,
}


def backend_for_instance(engine) -> Backend:
    """Wrap a caller-managed engine instance in its backend adapter.

    The classic ``engine=`` routing accepts :class:`WavefrontEngine` /
    :class:`CompiledEngine` instances; anything else raises the canonical
    unknown-engine error.
    """
    from repro.backend.registry import unknown_engine_error
    from repro.hostexec.compiled import CompiledEngine
    from repro.hostexec.engine import WavefrontEngine
    if isinstance(engine, WavefrontEngine):
        return WavefrontBackend(engine=engine)
    if isinstance(engine, CompiledEngine):
        return CompiledBackend(engine=engine)
    raise unknown_engine_error(engine)
