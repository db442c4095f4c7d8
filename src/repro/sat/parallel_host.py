"""The ``parallel`` host engine: the one-pass 1R1W summed area table.

The paper's bound for a SAT is one read and one write per element, and its
Table III measures every algorithm against a copy of the same matrix.
:func:`parallel_sat` is the host form of that bound: the native kernel of
:mod:`repro.hostexec.native` makes one pass over the matrix, keeping the
running column sums in a scratch vector, and writes each SAT element once.
Its association is that of ``a.cumsum(0).cumsum(1)``, so results are
bit-identical to :func:`repro.sat.sat_reference` in the accumulator dtype
(integer wraparound, NaN/Inf propagation and signed zeros included).

Memory: a C-order input the kernel reads directly (its accumulator dtype,
or a narrow integer the exact policy widens to ``int64``; see
:data:`repro.hostexec.native.PAIRS`) is read in place and the SAT written
to a fresh buffer.  Any other input is cast once by the shared plan glue
(:func:`repro.backend.plan.prepare_input`) and the pass runs in place on
that copy, so a call holds one accumulator-sized buffer either way.

Accumulator dtypes the kernel is not instantiated for (fixed policies such
as ``int32``), and hosts where it cannot be built (no C compiler; one
``RuntimeWarning``), take NumPy's double cumsum instead
(:func:`repro.hostexec.native.sat_into`), which gives the same bits.

``workers`` is validated and otherwise unused: a two-band threaded split of
the same kernel measured slower than the single pass at 768², 2048² and
4096² on a 2-core host, so there is no thread split.  The pass releases the
GIL, so callers may run independent SATs on their own threads.

The engine is registered as ``"parallel"`` with ``algorithm_agnostic=True``:
it computes the plain double-scan SAT whatever ``algorithm=`` says, and the
conformance suite and fuzzer hold it to ``np.array_equal`` against that
oracle.
"""

from __future__ import annotations

import numpy as np

from repro.backend.plan import prepare_input
from repro.errors import ConfigurationError
from repro.hostexec import native
from repro.sat.dtypes import resolve_policy


def parallel_sat(a: np.ndarray, *, workers: int | None = None,
                 dtype_policy=None) -> np.ndarray:
    """Compute the SAT of ``a`` in one read and one write per element.

    The result is in the accumulator dtype ``dtype_policy`` resolves for
    the input (:mod:`repro.sat.dtypes`).
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ConfigurationError("parallel_sat expects a 2-D matrix")
    if workers is not None and workers <= 0:
        raise ConfigurationError("workers must be positive")
    acc = resolve_policy(dtype_policy).accumulator(a.dtype)
    if (a.dtype, acc) in native.PAIRS and a.flags.c_contiguous:
        work, copied = a, False
    else:
        work, copied = prepare_input(a, acc_dtype=acc)
    return native.sat_into(work, work if copied else
                           np.empty(work.shape, dtype=acc))


class ParallelSATEngine:
    """Reusable handle over :func:`parallel_sat`.

    The one-pass kernel keeps no state between calls, so the handle holds
    nothing to release; it stays for callers written against the pooled
    engine it replaced.  Each call returns a fresh array.
    """

    def __init__(self, *, workers: int | None = None) -> None:
        if workers is not None and workers <= 0:
            raise ConfigurationError("workers must be positive")
        self.workers = workers

    def compute(self, a: np.ndarray, *, dtype_policy=None) -> np.ndarray:
        return parallel_sat(a, workers=self.workers,
                            dtype_policy=dtype_policy)

    def close(self) -> None:
        """Nothing to release (kept for the context-manager protocol)."""

    def __enter__(self) -> "ParallelSATEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
