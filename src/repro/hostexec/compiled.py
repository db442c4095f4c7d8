"""Compiled host backend: Numba-jitted flat tile kernels (``engine="compiled"``).

The wavefront engine already removed the per-tile interpreter trips by
batching each anti-diagonal chunk into a handful of NumPy calls, but it still
pays for what those calls *are*: an advanced-indexing gather that copies the
chunk into a ``(k, W, W)`` stack, several full-stack temporaries for the
local sums, and a symmetric scatter back.  This module removes that layer
too.  Each tile algorithm gets a *flat kernel* — a single compiled pass that
walks the padded input and output matrices in place, doing gather, tile
algebra, carry update and scatter per tile with no stack copies and no
temporaries beyond two ``W``-element scratch vectors.  The kernels are plain
Python functions compiled on demand with ``numba.njit(cache=True)`` (and a
``parallel=True`` + ``prange`` variant for multi-threaded diagonals, which is
safe because tiles on one anti-diagonal are mutually independent).

Bit-identity — the same ``np.array_equal`` contract the wavefront engine
satisfies — is preserved by replicating NumPy's reduction orders exactly:

* ``stack.sum(axis=2)`` / ``(k, W).sum(axis=1)`` reduce a contiguous last
  axis, which NumPy computes with its pairwise (blocked, 8-way unrolled)
  summation tree.  :func:`_pairwise` is a faithful reimplementation of that
  tree (same block size, same unroll, same combination order), so flat row
  sums produce the identical float, not merely a close one.
* ``stack.sum(axis=1)`` reduces a strided axis, which NumPy computes as a
  strictly sequential per-lane recurrence — the flat kernels accumulate
  column sums row by row with the accumulator on the left operand.
* ``np.cumsum`` is the sequential recurrence ``out[i] = out[i-1] + a[i]``;
  the flat scans keep the accumulator on the left operand likewise.

Because the wavefront chunk kernels are themselves bit-identical to the
serial ``_run_host`` loops, matching them makes the compiled engine
transitively bit-identical to the serial reference for every algorithm and
dtype — the equivalence tests assert exact equality, never ``allclose``.

Numba is an *optional* dependency (install extra ``repro[compiled]``).  The
module imports without it: :class:`CompiledEngine` can run its kernels as
pure Python (``jit=False``, used by the equivalence tests so the contract is
checked even on Numba-free hosts), and the ``engine="compiled"`` routing
degrades gracefully — tile-based algorithms fall back to the wavefront
engine, the plain-scan algorithms to the serial host path, with a single
process-wide warning (see :func:`compiled_engine_for`).
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.backend.plan import check_out, finalize_output, prepare_input
from repro.errors import ConfigurationError
from repro.hostexec.kernels import (KERNELS, CarrySet, _gather_scal,
                                    gather_left_up, gather_left_up_corner)
from repro.hostexec.plan import LRUCache
from repro.hostexec.registry import _module_available
from repro.primitives.tile import TileGrid
from repro.sat.dtypes import resolve_policy

#: Algorithms with no tile dataflow: the compiled engine runs them as one
#: fused flat double scan over the whole (unpadded) matrix instead.
NON_TILE_ALGORITHMS = ("2R2W", "2R2W-optimal")

# --------------------------------------------------------------------------
# Numba availability and lazy compilation
# --------------------------------------------------------------------------

#: Rebound to ``numba.prange`` before kernels are jitted; as plain ``range``
#: the same source runs pure-Python (and ``numba.prange`` called from the
#: interpreter *returns* a range, so already-rebound kernels still run pure).
prange = range

_numba_ok: bool | None = None
_helpers_jitted = False
_warned_fallback = False
_jitted: dict[tuple[str, bool], Callable] = {}
_compile_lock = threading.Lock()


def numba_available() -> bool:
    """Whether the optional ``numba`` dependency is importable (cached)."""
    global _numba_ok
    if _numba_ok is None:
        _numba_ok = _module_available("numba")
    return _numba_ok


def _reset_numba_probe() -> None:
    """Test hook: forget the cached availability probe and warning state."""
    global _numba_ok, _warned_fallback
    _numba_ok = None
    _warned_fallback = False


def _warn_fallback() -> None:
    """Warn (once per process) that ``engine="compiled"`` is degrading."""
    global _warned_fallback
    if not _warned_fallback:
        _warned_fallback = True
        warnings.warn(
            "numba is not installed; engine='compiled' falls back to the "
            "wavefront engine (serial host path for the plain-scan "
            "algorithms). Install the extra: pip install repro[compiled]",
            RuntimeWarning, stacklevel=3)


def _jit_helpers(numba) -> None:
    """Jit the shared helpers and swap ``prange`` in, exactly once."""
    global _helpers_jitted, prange, _pairwise, _assemble_flat
    if not _helpers_jitted:
        prange = numba.prange
        _pairwise = numba.njit(cache=True)(_pairwise)
        _assemble_flat = numba.njit(cache=True)(_assemble_flat)
        _helpers_jitted = True


def _get_kernel(name: str, py_fn: Callable, *, parallel: bool,
                jit: bool) -> Callable:
    """The executable form of flat kernel ``name``: the pure-Python function
    itself (``jit=False``) or its cached njit-compiled variant."""
    if not jit:
        return py_fn
    key = (name, parallel)
    fn = _jitted.get(key)
    if fn is None:
        with _compile_lock:
            fn = _jitted.get(key)
            if fn is None:
                import numba
                _jit_helpers(numba)
                fn = numba.njit(cache=True, parallel=parallel)(py_fn)
                _jitted[key] = fn
    return fn


# --------------------------------------------------------------------------
# Flat scan primitives (single source: pure Python and njit target alike)
# --------------------------------------------------------------------------


def _pairwise(a):
    """NumPy's pairwise summation of a contiguous 1-D array, bit-for-bit.

    Replicates the C implementation behind ``ndarray.sum`` on a contiguous
    last axis: sequential below 8 elements; an 8-accumulator unrolled block
    loop with the fixed combination tree ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``
    up to 128 elements; above that, recursive halving to a multiple of 8.
    """
    n = a.shape[0]
    if n < 8:
        res = a[0]
        for i in range(1, n):
            res = res + a[i]
        return res
    if n <= 128:
        r0 = a[0]
        r1 = a[1]
        r2 = a[2]
        r3 = a[3]
        r4 = a[4]
        r5 = a[5]
        r6 = a[6]
        r7 = a[7]
        i = 8
        stop = n - (n % 8)
        while i < stop:
            r0 = r0 + a[i]
            r1 = r1 + a[i + 1]
            r2 = r2 + a[i + 2]
            r3 = r3 + a[i + 3]
            r4 = r4 + a[i + 4]
            r5 = r5 + a[i + 5]
            r6 = r6 + a[i + 6]
            r7 = r7 + a[i + 7]
            i += 8
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        while i < n:
            res = res + a[i]
            i += 1
        return res
    n2 = n // 2
    n2 = n2 - (n2 % 8)
    return _pairwise(a[:n2]) + _pairwise(a[n2:])


def _assemble_flat(work, out, r0, c0, W, grs_left, gcs_above, gs_corner):
    """Flat ``assemble_gsat_tile``: carry injection fused into the row scan,
    then the column scan — the exact operation order of the stacked
    ``stack[:, :, 0] += grs_left; stack[:, 0, :] += gcs_above;
    stack[0, 0] += gs; cumsum(axis=2); cumsum(axis=1)`` sequence."""
    v = work[r0, c0] + grs_left[0]
    v = v + gcs_above[0]
    v = v + gs_corner
    out[r0, c0] = v
    acc = v
    for c in range(1, W):
        acc = acc + (work[r0, c0 + c] + gcs_above[c])
        out[r0, c0 + c] = acc
    for r in range(1, W):
        acc = work[r0 + r, c0] + grs_left[r]
        out[r0 + r, c0] = acc
        for c in range(1, W):
            acc = acc + work[r0 + r, c0 + c]
            out[r0 + r, c0 + c] = acc
    for r in range(1, W):
        for c in range(W):
            out[r0 + r, c0 + c] = out[r0 + r - 1, c0 + c] + out[r0 + r, c0 + c]


# --------------------------------------------------------------------------
# Flat tile kernels (one compiled pass per anti-diagonal)
# --------------------------------------------------------------------------


def _flat_skss_lb(work, out, grs, gcs, gs, grs_left, gcs_above, gs_corner,
                  Is, Js, W):
    """1R1W-SKSS-LB: GS built from the corner plus the gnomon GLS."""
    for idx in prange(Is.shape[0]):
        I = Is[idx]
        J = Js[idx]
        r0 = I * W
        c0 = J * W
        lrs = np.empty_like(work[r0, c0:c0 + W])
        lcs = np.empty_like(lrs)
        for c in range(W):
            lcs[c] = work[r0, c0 + c]
        for r in range(W):
            lrs[r] = _pairwise(work[r0 + r, c0:c0 + W])
            if r > 0:
                for c in range(W):
                    lcs[c] = lcs[c] + work[r0 + r, c0 + c]
        for r in range(W):
            grs[I, J, r] = grs_left[idx, r] + lrs[r]
        for c in range(W):
            gcs[I, J, c] = gcs_above[idx, c] + lcs[c]
        gls = (_pairwise(grs_left[idx]) + _pairwise(gcs_above[idx])) \
            + _pairwise(lrs)
        gs[I, J] = gs_corner[idx] + gls
        _assemble_flat(work, out, r0, c0, W, grs_left[idx], gcs_above[idx],
                       gs_corner[idx])


def _flat_corner(work, out, grs, gcs, gs, grs_left, gcs_above, gs_corner,
                 Is, Js, W):
    """1R1W / (1+r)R1W: GS read off the assembled GSAT corner."""
    for idx in prange(Is.shape[0]):
        I = Is[idx]
        J = Js[idx]
        r0 = I * W
        c0 = J * W
        lrs = np.empty_like(work[r0, c0:c0 + W])
        lcs = np.empty_like(lrs)
        for c in range(W):
            lcs[c] = work[r0, c0 + c]
        for r in range(W):
            lrs[r] = _pairwise(work[r0 + r, c0:c0 + W])
            if r > 0:
                for c in range(W):
                    lcs[c] = lcs[c] + work[r0 + r, c0 + c]
        for r in range(W):
            grs[I, J, r] = grs_left[idx, r] + lrs[r]
        for c in range(W):
            gcs[I, J, c] = gcs_above[idx, c] + lcs[c]
        _assemble_flat(work, out, r0, c0, W, grs_left[idx], gcs_above[idx],
                       gs_corner[idx])
        gs[I, J] = out[r0 + W - 1, c0 + W - 1]


def _flat_skss(work, out, grs, gcp, grs_left, gcp_above, Is, Js, W):
    """1R1W-SKSS: GRS hand-off left, GCP (GSAT bottom row) down.  The GCP row
    is injected *after* the row scan, matching the serial dataflow."""
    for idx in prange(Is.shape[0]):
        I = Is[idx]
        J = Js[idx]
        r0 = I * W
        c0 = J * W
        for r in range(W):
            acc = work[r0 + r, c0] + grs_left[idx, r]
            out[r0 + r, c0] = acc
            for c in range(1, W):
                acc = acc + work[r0 + r, c0 + c]
                out[r0 + r, c0 + c] = acc
        for c in range(W):
            out[r0, c0 + c] = out[r0, c0 + c] + gcp_above[idx, c]
        for r in range(1, W):
            for c in range(W):
                out[r0 + r, c0 + c] = out[r0 + r - 1, c0 + c] \
                    + out[r0 + r, c0 + c]
        for r in range(W):
            grs[I, J, r] = grs_left[idx, r] \
                + _pairwise(work[r0 + r, c0:c0 + W])
        for c in range(W):
            gcp[I, J, c] = out[r0 + W - 1, c0 + c]


def _flat_nehab(work, out, grs, gcs, gs, gs_col, grs_left, gcs_above,
                gs_corner, col_above, gs_left, Is, Js, W):
    """2R1W, cumsum-faithful: the serial path builds the carry chains with
    whole-array ``cumsum`` calls whose first element is a *copy* (no ``0 + x``
    add), so border tiles store their local sums verbatim here too."""
    for idx in prange(Is.shape[0]):
        I = Is[idx]
        J = Js[idx]
        r0 = I * W
        c0 = J * W
        lrs = np.empty_like(work[r0, c0:c0 + W])
        lcs = np.empty_like(lrs)
        for c in range(W):
            lcs[c] = work[r0, c0 + c]
        for r in range(W):
            lrs[r] = _pairwise(work[r0 + r, c0:c0 + W])
            if r > 0:
                for c in range(W):
                    lcs[c] = lcs[c] + work[r0 + r, c0 + c]
        ls = _pairwise(lcs)
        if J == 0:
            for r in range(W):
                grs[I, J, r] = lrs[r]
        else:
            for r in range(W):
                grs[I, J, r] = grs_left[idx, r] + lrs[r]
        if I == 0:
            for c in range(W):
                gcs[I, J, c] = lcs[c]
        else:
            for c in range(W):
                gcs[I, J, c] = gcs_above[idx, c] + lcs[c]
        col = ls if I == 0 else col_above[idx] + ls
        gs_col[I, J] = col
        gs[I, J] = col if J == 0 else gs_left[idx] + col
        _assemble_flat(work, out, r0, c0, W, grs_left[idx], gcs_above[idx],
                       gs_corner[idx])


def _flat_double_scan(work, out):
    """Fused flat ``cumsum(axis=0).cumsum(axis=1)`` (the 2R2W host path and
    the NumPy reference), with a rolling column-sum row buffer.  Strictly
    sequential — banding the row loop would change float reduction order."""
    R = work.shape[0]
    C = work.shape[1]
    if R == 0 or C == 0:
        return
    col = np.empty_like(work[0])
    for c in range(C):
        col[c] = work[0, c]
    acc = col[0]
    out[0, 0] = acc
    for c in range(1, C):
        acc = acc + col[c]
        out[0, c] = acc
    for r in range(1, R):
        for c in range(C):
            col[c] = col[c] + work[r, c]
        acc = col[0]
        out[r, 0] = acc
        for c in range(1, C):
            acc = acc + col[c]
            out[r, c] = acc


# --------------------------------------------------------------------------
# Kernel table and carry-gather wrappers
# --------------------------------------------------------------------------


def _run_left_up_corner(kern, work, out, carry, Is, Js, W):
    grs_left, gcs_above, gs_corner = gather_left_up_corner(carry, Is, Js, W)
    kern(work, out, carry.vec_row, carry.vec_col, carry.scal,
         grs_left, gcs_above, gs_corner, Is, Js, W)


def _run_skss(kern, work, out, carry, Is, Js, W):
    grs_left, gcp_above = gather_left_up(carry, Is, Js, W)
    kern(work, out, carry.vec_row, carry.vec_col, grs_left, gcp_above,
         Is, Js, W)


def _run_nehab(kern, work, out, carry, Is, Js, W):
    grs_left, gcs_above, gs_corner = gather_left_up_corner(carry, Is, Js, W)
    col_above = _gather_scal(carry.scal2, Is - 1, Js)
    gs_left = _gather_scal(carry.scal, Is, Js - 1)
    kern(work, out, carry.vec_row, carry.vec_col, carry.scal, carry.scal2,
         grs_left, gcs_above, gs_corner, col_above, gs_left, Is, Js, W)


@dataclass(frozen=True)
class FlatKernel:
    """A flat tile kernel plus the wrapper that feeds it gathered carries.

    ``kernel`` is the single-source loop function (pure Python, njit-able);
    ``run`` gathers the chunk's carry inputs with the same
    :func:`~repro.hostexec.kernels.gather_left_up_corner` /
    :func:`~repro.hostexec.kernels.gather_left_up` primitives the batched
    NumPy kernels use, then hands everything to the (possibly compiled)
    kernel in one call.
    """

    name: str
    kernel: Callable
    run: Callable


#: Flat kernels by canonical algorithm name (the tile-based five — the
#: plain-scan algorithms run through :func:`_flat_double_scan` instead).
FLAT_KERNELS: dict[str, FlatKernel] = {
    "2R1W": FlatKernel("2R1W", _flat_nehab, _run_nehab),
    "1R1W": FlatKernel("1R1W", _flat_corner, _run_left_up_corner),
    "(1+r)R1W": FlatKernel("(1+r)R1W", _flat_corner, _run_left_up_corner),
    "1R1W-SKSS": FlatKernel("1R1W-SKSS", _flat_skss, _run_skss),
    "1R1W-SKSS-LB": FlatKernel("1R1W-SKSS-LB", _flat_skss_lb,
                               _run_left_up_corner),
}


def _canonical_algorithm(algorithm) -> str:
    """Canonical algorithm name; ``None`` means the plain reference scan."""
    if algorithm is None:
        return "2R2W"
    if algorithm in FLAT_KERNELS or algorithm in NON_TILE_ALGORITHMS:
        return algorithm
    from repro.sat.registry import get_algorithm
    return get_algorithm(algorithm).name


def flat_kernel_for(algorithm: str) -> FlatKernel:
    """Resolve an algorithm name (or registry alias) to its flat kernel."""
    name = _canonical_algorithm(algorithm)
    spec = FLAT_KERNELS.get(name)
    if spec is None:
        raise ConfigurationError(
            f"algorithm '{algorithm}' has no tile dataflow; the compiled "
            f"engine runs it as a flat double scan")
    return spec


# --------------------------------------------------------------------------
# The engine
# --------------------------------------------------------------------------


class CompiledEngine:
    """Compiled flat-kernel executor for every SAT algorithm.

    Parameters
    ----------
    workers:
        ``1`` (the default) runs the serial njit variant of each kernel;
        ``> 1`` compiles the ``parallel=True`` / ``prange`` variant and asks
        Numba for that many threads.  Either way results are bit-identical:
        tiles on one anti-diagonal are independent, so the thread split
        never reorders a floating-point reduction.
    jit:
        ``False`` executes the same kernel source as pure Python — orders of
        magnitude slower, but dependency-free; the equivalence tests use it
        to pin the bit-identity contract on Numba-free hosts.  ``True``
        (default) requires Numba and raises :class:`ConfigurationError`
        without it (the string routing ``engine="compiled"`` degrades
        gracefully instead; see :func:`compiled_engine_for`).
    """

    def __init__(self, *, workers: int | None = None,
                 jit: bool = True) -> None:
        if workers is not None and workers <= 0:
            raise ConfigurationError("workers must be positive")
        if jit and not numba_available():
            raise ConfigurationError(
                "CompiledEngine(jit=True) requires numba; install the "
                "extra (pip install repro[compiled]), pass jit=False for "
                "the pure-Python kernels, or route through "
                "engine='compiled', which falls back to the wavefront "
                "engine automatically")
        self.workers = workers or 1
        self.jit = jit
        self._carries: LRUCache = LRUCache()   # CarrySet per geometry
        self._diags: LRUCache = LRUCache()     # (Is, Js) lists per grid
        self._lock = threading.Lock()   # one compute at a time per engine
        self._closed = False

    # -- resource management ------------------------------------------------

    def close(self) -> None:
        """Release cached carry planes and diagonal index arrays."""
        self._closed = True
        self._carries.clear()
        self._diags.clear()

    def __enter__(self) -> "CompiledEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _carry(self, grid: TileGrid, dtype: np.dtype) -> CarrySet:
        key = (grid.tile_rows, grid.tile_cols, grid.W, dtype)
        return self._carries.get_or_build(key, lambda: CarrySet(
            tr=grid.tile_rows, tc=grid.tile_cols, W=grid.W, dtype=dtype))

    def _diagonals(self, grid: TileGrid) -> list:
        """Cached ``(Is, Js)`` index arrays for each anti-diagonal."""
        def build() -> list:
            diags = []
            for K in range(grid.num_diagonals):
                tiles = grid.tiles_on_diagonal(K)
                Is = np.fromiter((I for I, _ in tiles), dtype=np.intp)
                Js = np.fromiter((J for _, J in tiles), dtype=np.intp)
                diags.append((Is, Js))
            return diags
        return self._diags.get_or_build((grid.tile_rows, grid.tile_cols),
                                        build)

    def _threads(self) -> None:
        if self.workers > 1 and self.jit:
            import numba
            try:
                numba.set_num_threads(
                    min(self.workers, numba.config.NUMBA_NUM_THREADS))
            except ValueError:  # pragma: no cover - host-dependent limits
                pass

    # -- execution -----------------------------------------------------------

    def compute(self, a: np.ndarray, *, algorithm: str = "1R1W-SKSS-LB",
                tile_width: int = 32, out: np.ndarray | None = None,
                dtype_policy=None) -> np.ndarray:
        """Compute one SAT through the compiled flat kernels.

        Mirrors :meth:`WavefrontEngine.compute`: any 2-D matrix, ragged
        edges zero-padded to tile multiples internally and cropped on
        output, ``dtype_policy`` resolving the accumulator dtype the same
        way, optional ``out`` buffer recycling.  Additionally accepts the
        plain-scan algorithms (``2R2W`` / ``2R2W-optimal`` / ``None``),
        which run as one fused flat double scan with no padding at all.
        """
        if self._closed:
            raise ConfigurationError("engine is closed")
        a = np.asarray(a)
        if a.ndim != 2:
            raise ConfigurationError(
                f"compiled engine expects a 2-D matrix, got shape {a.shape}")
        name = _canonical_algorithm(algorithm)
        rows, cols = a.shape
        acc = resolve_policy(dtype_policy).accumulator(a.dtype)
        check_out(out, rows, cols, acc)
        if name in NON_TILE_ALGORITHMS:
            work, _ = prepare_input(a, acc_dtype=acc)
            res = out if out is not None else np.empty_like(work)
            kern = _get_kernel("double-scan", _flat_double_scan,
                               parallel=False, jit=self.jit)
            kern(work, res)
            return res
        spec = flat_kernel_for(name)
        grid = TileGrid(rows=rows, cols=cols, W=tile_width)
        W = grid.W
        work, _ = prepare_input(a, acc_dtype=acc, grid=grid)
        res = out if (out is not None and grid.aligned) \
            else np.empty_like(work)
        kern = _get_kernel(spec.name, spec.kernel,
                           parallel=self.workers > 1, jit=self.jit)
        with self._lock:
            self._threads()
            carry = self._carry(grid, work.dtype)
            for Is, Js in self._diagonals(grid):
                spec.run(kern, work, res, carry, Is, Js, W)
        return finalize_output(res, rows, cols, out)


#: Lazily-created process-wide engines, one per recently used worker count,
#: used by the ``engine="compiled"`` call sites that do not manage their own
#: instance.
_shared: LRUCache = LRUCache()
_shared_lock = threading.Lock()


def shared_compiled_engine(workers: int | None = None) -> CompiledEngine:
    """The process-wide :class:`CompiledEngine` for ``workers`` (default 1),
    created on first use (requires Numba — callers wanting graceful
    degradation go through :func:`compiled_engine_for` instead).

    As with :func:`~repro.hostexec.engine.shared_engine`, what is kept is
    bounded by :data:`~repro.hostexec.plan.CACHE_ENTRIES`, and concurrent
    callers passing the same ``workers`` wait for one another."""
    if workers is not None and workers <= 0:
        raise ConfigurationError("workers must be positive")
    workers = workers or 1
    with _shared_lock:
        engine = _shared.get(workers)
        if engine is not None and engine._closed:
            del _shared[workers]
        return _shared.get_or_build(
            workers, lambda: CompiledEngine(workers=workers))


def is_compiled_engine(engine) -> bool:
    """Whether an ``engine=`` argument selects the compiled backend."""
    return isinstance(engine, CompiledEngine) or engine == "compiled"


def compiled_engine_for(algorithm: str | None):
    """The executor behind ``engine="compiled"`` for one algorithm.

    Returns the shared :class:`CompiledEngine` when Numba is importable.
    Otherwise warns once and returns the degradation target recorded in the
    engine registry: the shared wavefront engine for tile-based algorithms,
    or ``None`` — meaning "use the serial host path" — for the plain-scan
    algorithms the wavefront engine cannot run.
    """
    if numba_available():
        return shared_compiled_engine()
    _warn_fallback()
    if algorithm is not None and _canonical_algorithm(algorithm) in KERNELS:
        from repro.hostexec.engine import shared_engine
        return shared_engine()
    return None


def host_compiled_sat(a: np.ndarray, *, algorithm: str | None = None,
                      tile_width: int = 32, workers: int | None = None,
                      dtype_policy=None, engine=None) -> np.ndarray:
    """``host_sat`` / ``out_of_core_sat`` entry for ``engine="compiled"``.

    ``algorithm=None`` keeps ``host_sat``'s reference-scan contract: the
    fused flat double scan, bit-identical to
    ``cumsum(axis=0).cumsum(axis=1)`` — so out-of-core bands and apps can
    route their default scans through the compiled backend too.  Degrades
    exactly like :func:`compiled_engine_for` when Numba is missing.
    """
    a = np.asarray(a)
    if isinstance(engine, CompiledEngine):
        return engine.compute(a, algorithm=algorithm, tile_width=tile_width,
                              dtype_policy=dtype_policy)
    if algorithm is None:
        if numba_available():
            return shared_compiled_engine(workers).compute(
                a, algorithm=None, dtype_policy=dtype_policy)
        _warn_fallback()
        acc = resolve_policy(dtype_policy).accumulator(a.dtype)
        return a.astype(acc, copy=False).cumsum(axis=0).cumsum(axis=1)
    from repro.sat.registry import get_algorithm
    alg = get_algorithm(algorithm, tile_width=tile_width)
    if numba_available() and workers and workers > 1:
        return alg.run_host(a, engine=shared_compiled_engine(workers),
                            dtype_policy=dtype_policy)
    return alg.run_host(a, engine="compiled", dtype_policy=dtype_policy)


def compiled_sat(a: np.ndarray, *, algorithm: str = "1R1W-SKSS-LB",
                 tile_width: int = 32, workers: int | None = None,
                 dtype_policy=None) -> np.ndarray:
    """One-shot compiled SAT on the shared engine for ``workers``.

    Requires Numba (use ``host_sat(..., engine="compiled")`` for the
    gracefully-degrading form).
    """
    return shared_compiled_engine(workers).compute(
        a, algorithm=algorithm, tile_width=tile_width,
        dtype_policy=dtype_policy)
