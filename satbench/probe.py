"""A host-speed probe that needs nothing beyond the standard library.

On the shared VMs this benchmark runs on, the host alternates between
phases in which compute-bound code (the GPU simulator, base64, JSON, CRC32)
runs about 1.5x slower and phases in which it does not, while streaming
NumPy code barely changes (1.06-1.08x).  A phase lasts from one to tens of
seconds.  :class:`HostProbe` times a fixed piece of compute-bound work that
does not involve ``repro``, so a run can tell which phase each cycle ran in
(see ``core.quiet``).  It needs nothing beyond the standard library, so a
set-up process can probe before and after its clock without importing
anything the clock should see.
"""

from __future__ import annotations

import random
import time
import zlib


class HostProbe:
    """Best of three CRC32 passes over a fixed 1 MiB buffer, in seconds."""

    def __init__(self) -> None:
        self.buffer = random.Random(0).randbytes(1 << 20)

    def __call__(self) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            zlib.crc32(self.buffer)
            best = min(best, time.perf_counter() - t0)
        return best
