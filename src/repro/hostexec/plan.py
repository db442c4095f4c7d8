"""Wavefront tile plans: the reusable scheduling structure of the host engine.

The tile-based SAT algorithms all share the same dependency skeleton: tile
``T(I, J)`` consumes values published by its *left* (``T(I, J-1)``), *up*
(``T(I-1, J)``) and (for the corner term) *up-left* (``T(I-1, J-1)``)
neighbours — every producer lies on an anti-diagonal with a smaller index,
which is exactly why the paper's diagonal-major serials are deadlock-free.
On the CPU the same structure means an entire anti-diagonal of tiles can run
concurrently, and a tile of diagonal ``K+1`` may start as soon as its own
producers retire, without waiting for the rest of diagonal ``K``.

A :class:`WavefrontPlan` captures everything about that dataflow that does
not depend on the matrix *values*, so repeated same-shape SATs (video
pipelines) pay for it once:

* the anti-diagonals, each split into up to ``workers`` contiguous *chunks*
  (a chunk is the unit of dispatch; within a chunk the tile algebra is
  executed batched over a ``(k, W, W)`` tile stack);
* per-tile dependency counts and the per-tile **status words** the scheduler
  advances (``PENDING -> READY -> DONE`` — the CPU analogue of the SKSS-LB
  ``R``/``C`` protocol bytes);
* per-chunk consumer index arrays, so retiring a chunk decrements its
  dependents' counters with vectorised scatter updates.

Plans are immutable after construction; all mutable run state lives in the
engine (one fresh copy of the counters per call), so a cached plan can be
reused across calls and engines.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.primitives.tile import TileGrid

#: Per-tile status words (the host analogue of the SKSS-LB protocol bytes).
TILE_PENDING = 0   #: producers not yet retired
TILE_READY = 1     #: all producers retired; tile may execute
TILE_DONE = 2      #: tile's published values committed

#: Producer offsets ``(dI, dJ)`` relative to the consuming tile.
DEPS_LEFT_UP = ((0, -1), (-1, 0))                 # 1R1W-SKSS (GRS + GCP chain)
DEPS_LEFT_UP_CORNER = ((0, -1), (-1, 0), (-1, -1))  # the GRS/GCS/GS family

#: Minimum tiles per chunk when splitting a diagonal for dispatch.  Shredding
#: short diagonals into one-tile chunks costs more in pool dispatch and
#: un-batched NumPy calls than the extra concurrency recovers, so a diagonal
#: is split into at most ``len(tiles) // MIN_CHUNK_TILES`` parts (capped at
#: the worker count, and never zero).  Cross-diagonal overlap — a chunk of
#: diagonal ``K+1`` starting while ``K`` still runs — keeps the pool busy
#: even when short diagonals stay whole.
MIN_CHUNK_TILES = 16


@dataclass(frozen=True)
class Chunk:
    """A contiguous run of tiles on one anti-diagonal (the dispatch unit)."""

    index: int
    diagonal: int
    #: Tile coordinates, parallel arrays (diagonal order: ``I`` ascending).
    Is: np.ndarray
    Js: np.ndarray
    #: Chunks holding consumer tiles of this chunk (always later diagonals:
    #: retiring this chunk decrements each successor's predecessor counter).
    successors: tuple[int, ...] = ()
    #: Number of distinct chunks holding producer tiles of this chunk.
    num_predecessors: int = 0

    @property
    def num_tiles(self) -> int:
        return len(self.Is)


@dataclass(frozen=True)
class WavefrontPlan:
    """Immutable chunked-wavefront schedule for one tile-grid geometry."""

    grid: TileGrid
    deps: tuple[tuple[int, int], ...]
    workers: int
    chunks: tuple[Chunk, ...]
    #: ``(tr, tc)`` chunk index owning each tile.
    chunk_id: np.ndarray
    #: ``(tr, tc)`` number of in-bounds producers per tile.
    deps_init: np.ndarray
    #: Per-chunk count of predecessor chunks (0 = dispatchable at once).
    #: Because chunks retire atomically, chunk readiness reduces to this
    #: chunk-level DAG — the scheduler's hot path decrements plain integers
    #: while the per-tile status words track the fine-grained protocol state.
    pending_init: np.ndarray

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    def initial_status(self) -> np.ndarray:
        """Fresh per-tile status words for one execution."""
        status = np.full((self.grid.tile_rows, self.grid.tile_cols),
                         TILE_PENDING, dtype=np.int8)
        status[self.deps_init == 0] = TILE_READY
        return status

    def roots(self) -> list[int]:
        """Chunks dispatchable before any tile has retired."""
        return [c.index for c in self.chunks if c.num_predecessors == 0]


def split_diagonal(tiles: list[tuple[int, int]], parts: int,
                   min_tiles: int = 1) -> list[list[tuple[int, int]]]:
    """Split one diagonal's tiles into at most ``parts`` contiguous chunks,
    each at least ``min_tiles`` long (except when the diagonal itself is
    shorter)."""
    if parts <= 0:
        raise ConfigurationError("chunk count must be positive")
    if min_tiles > 1:
        parts = min(parts, max(1, len(tiles) // min_tiles))
    parts = min(parts, len(tiles))
    size, extra = divmod(len(tiles), parts)
    out, lo = [], 0
    for p in range(parts):
        hi = lo + size + (1 if p < extra else 0)
        out.append(tiles[lo:hi])
        lo = hi
    return out


def build_plan(grid: TileGrid, deps: tuple[tuple[int, int], ...],
               workers: int) -> WavefrontPlan:
    """Construct the chunked wavefront plan for one tile grid."""
    if workers <= 0:
        raise ConfigurationError("workers must be positive")
    tr, tc = grid.tile_rows, grid.tile_cols
    chunk_id = np.full((tr, tc), -1, dtype=np.int32)
    chunks: list[Chunk] = []
    for K in range(grid.num_diagonals):
        for part in split_diagonal(grid.tiles_on_diagonal(K), workers,
                                   MIN_CHUNK_TILES):
            Is = np.fromiter((I for I, _ in part), dtype=np.intp)
            Js = np.fromiter((J for _, J in part), dtype=np.intp)
            chunk_id[Is, Js] = len(chunks)
            chunks.append(Chunk(index=len(chunks), diagonal=K, Is=Is, Js=Js))

    deps_init = np.zeros((tr, tc), dtype=np.int8)
    for dI, dJ in deps:
        # Tiles whose producer (I+dI, J+dJ) is in bounds gain one dependency.
        lo_i, lo_j = max(0, -dI), max(0, -dJ)
        deps_init[lo_i:, lo_j:] += 1

    # Collapse the tile dependencies onto the chunk DAG: chunk ``c`` precedes
    # chunk ``s`` when some tile of ``s`` consumes a tile of ``c``.  Producers
    # always lie on earlier diagonals, hence in other chunks — no self-edges.
    predecessors: list[set[int]] = [set() for _ in chunks]
    for c in chunks:
        for dI, dJ in deps:
            pIs, pJs = c.Is + dI, c.Js + dJ
            m = (pIs >= 0) & (pJs >= 0)
            if m.any():
                predecessors[c.index].update(
                    int(p) for p in chunk_id[pIs[m], pJs[m]])
    successors: list[set[int]] = [set() for _ in chunks]
    for c in chunks:
        for p in predecessors[c.index]:
            successors[p].add(c.index)

    finished = [Chunk(index=c.index, diagonal=c.diagonal, Is=c.Is, Js=c.Js,
                      successors=tuple(sorted(successors[c.index])),
                      num_predecessors=len(predecessors[c.index]))
                for c in chunks]
    pending_init = np.array([c.num_predecessors for c in finished],
                            dtype=np.int64)
    return WavefrontPlan(grid=grid, deps=tuple(deps), workers=workers,
                         chunks=tuple(finished), chunk_id=chunk_id,
                         deps_init=deps_init, pending_init=pending_init)


#: How many geometries an engine keeps plans and carry planes for, and how
#: many worker counts keep a shared engine.  Older entries are dropped, so a
#: caller cycling through frame sizes or worker counts does not grow memory.
CACHE_ENTRIES = 4


class LRUCache(OrderedDict):
    """A mapping that keeps only its ``maxsize`` most recently used entries."""

    def __init__(self, maxsize: int = CACHE_ENTRIES) -> None:
        super().__init__()
        self.maxsize = maxsize

    def get_or_build(self, key, build: Callable[[], Any]):
        """The entry for ``key``, made by ``build()`` when it is absent."""
        if key in self:
            self.move_to_end(key)
            return self[key]
        value = self[key] = build()
        if len(self) > self.maxsize:
            self.popitem(last=False)
        return value
