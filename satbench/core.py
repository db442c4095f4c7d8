"""The measuring loop and the end-to-end metric arithmetic.

Everything here is independent of ``repro``: the copy floor, the resident
memory probe, the closed-loop request cycle and the statistics that turn
per-request records into the seven end-to-end metrics.  ``METRICS.md`` in
this directory defines each metric; the functions below are those
definitions in code.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: Size of each of the two copy-floor buffers.  The pair (512 MiB) is larger
#: than the 300 MiB shared L3 of the reference machine, so every measured
#: copy streams from and to DRAM; smaller copies partly hit cache and their
#: bandwidth spreads by tens of percent run to run.
FLOOR_BUFFER_BYTES = 256 << 20

#: Fewest requests of each kind a run measures.  With 110 samples the p90
#: of :func:`statistics.quantiles` has at least ten samples above it.
MIN_PER_KIND = 110

#: Samples a kind must have above its p90 for that percentile to count.
MIN_ABOVE_P90 = 10

#: The floor copy runs on every FLOOR_EVERY-th cycle, about four times a
#: second; the requests in between use the latest bandwidth.
FLOOR_EVERY = 4

#: Hard stop of the measuring loop, whatever the sample counts.  It keeps a
#: run within about 35 s, set-up included.
MAX_SECONDS = 30.0

#: A cycle is quiet when its host probe is within this factor of the run's
#: 5th-percentile probe.  The slow host phase raises the probe by about
#: 1.8x; probe jitter within one phase stays under 1.2x.
QUIET_FACTOR = 1.25


class CopyFloor:
    """Copy bandwidth of one fixed, pre-touched, cache-exceeding buffer pair.

    Bandwidth counts both directions (bytes read plus bytes written), the
    same way a request's computed minimum bytes count its input read once
    and its output written once.
    """

    def __init__(self, nbytes: int = FLOOR_BUFFER_BYTES) -> None:
        self.src = np.ones(nbytes // 8, dtype=np.float64)
        self.dst = np.zeros_like(self.src)
        for _ in range(2):
            np.copyto(self.dst, self.src)

    @property
    def nbytes(self) -> int:
        """Resident bytes owned by the floor (both buffers)."""
        return self.src.nbytes + self.dst.nbytes

    def measure(self) -> float:
        """One copy of the buffer; returns bytes per second."""
        t0 = time.perf_counter()
        np.copyto(self.dst, self.src)
        return 2 * self.src.nbytes / (time.perf_counter() - t0)


def floor_seconds(bytes_computed: int, bandwidth: float) -> float:
    """The 1R1W floor of one request: its minimum bytes at copy speed."""
    return bytes_computed / bandwidth


class PeakRSS:
    """Peak resident set size of one call, through the kernel's HWM counter.

    Writing ``5`` to ``/proc/self/clear_refs`` resets ``VmHWM`` to the
    current RSS, so the HWM read after a call is the peak during that call.
    Where the reset is unavailable the lifetime peak is reported instead.
    """

    def __init__(self) -> None:
        self.resettable = True
        try:
            self.reset()
        except OSError:
            self.resettable = False

    @staticmethod
    def reset() -> None:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")

    def start(self) -> None:
        if self.resettable:
            self.reset()

    @staticmethod
    def peak_bytes() -> int:
        try:
            with open("/proc/self/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) * 1024
        except OSError:
            pass
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@dataclass
class Record:
    """One request: what ran, how long it took and whether it verified."""

    cycle: int
    kind: str
    seconds: float
    verified: bool
    pixels: int
    bytes_computed: int
    bandwidth: float          #: copy bandwidth measured next to the request
    peak_bytes: int           #: process HWM during the call minus owned bytes
    probe: float = 0.0        #: host probe seconds at the start of the cycle
    probe_after: float = float("inf")   #: the next cycle's probe
    traced: bool = False
    request: int | None = None    #: tracer request id of a traced request
    error: str = ""


@dataclass
class RunResult:
    records: list[Record] = field(default_factory=list)

    def select(self, traced: bool) -> list[Record]:
        return [r for r in self.records if r.traced == traced]


def run_cycles(workload, floor: CopyFloor, probe, *, seconds: float,
               min_per_kind: int = MIN_PER_KIND, tracer=None,
               after_block=None) -> RunResult:
    """Closed loop, one client: each request starts when the last returned.

    A cycle is one host probe (``probe()``, seconds), preceded on every
    :data:`FLOOR_EVERY`-th cycle by a copy-floor measurement, then one
    request of each of ``workload.kinds`` in order.  The loop runs for
    ``seconds`` and then on until ``min_per_kind`` untraced cycles are
    quiet (see :func:`quiet`), but never past :data:`MAX_SECONDS`.  With a
    ``tracer``, blocks of :data:`FLOOR_EVERY` cycles alternate between
    untraced and traced, so both halves see the same inputs and the same
    cache state after the floor copy.
    ``after_block(cycle)`` runs after the last cycle of every block, just
    before the next floor copy resets the cache, so it changes the
    conditions of no request; its time does not count against ``seconds``
    or :data:`MAX_SECONDS`.
    """
    memory = PeakRSS()
    owned = floor.nbytes + workload.owned_bytes()
    result = RunResult()
    probes: list[float] = []
    untraced: list[int] = []
    last: list[Record] = []
    t_start = time.perf_counter()
    cycle = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if elapsed >= MAX_SECONDS:
            break
        if elapsed >= seconds:
            cut = QUIET_FACTOR * low_probe(probes)
            if sum(probes[c] <= cut and probes[c + 1] <= cut
                   for c in untraced if c + 1 < len(probes)) \
                    >= min_per_kind:
                break
        traced = tracer is not None and (cycle // FLOOR_EVERY) % 2 == 1
        if cycle % FLOOR_EVERY == 0:
            gc.collect()
            bandwidth = floor.measure()
        host = probe()
        probes.append(host)
        for rec in last:
            rec.probe_after = host
        last = []
        if not traced:
            untraced.append(cycle)
        if traced:
            tracer.install()
        try:
            for kind in workload.kinds:
                rec = _one_request(workload, kind, cycle, bandwidth, memory,
                                   owned, tracer if traced else None)
                rec.probe, rec.traced = host, traced
                result.records.append(rec)
                last.append(rec)
        finally:
            if traced:
                tracer.uninstall()
        block_end = cycle % FLOOR_EVERY == FLOOR_EVERY - 1
        if after_block is not None and block_end:
            t_paused = time.perf_counter()
            after_block(cycle)
            t_start += time.perf_counter() - t_paused
        cycle += 1
    return result


def _one_request(workload, kind: str, cycle: int, bandwidth: float,
                 memory: PeakRSS, owned: int, tracer) -> Record:
    error = ""
    out = None
    request = None
    if tracer is not None:
        request = tracer.begin_request(kind)
    memory.start()
    t0 = time.perf_counter()
    try:
        out = workload.call(kind, cycle)
    except Exception as exc:  # a raise counts as attempted, not verified
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    peak = memory.peak_bytes() - owned
    if tracer is not None:
        tracer.end_request()
    verified = False
    if not error:
        try:
            verified = bool(workload.check(kind, cycle, out))
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    del out
    workload.after_request(kind, cycle)
    return Record(cycle=cycle, kind=kind, seconds=seconds, verified=verified,
                  pixels=workload.pixels(kind),
                  bytes_computed=workload.floor_bytes(kind),
                  bandwidth=bandwidth, peak_bytes=peak, request=request,
                  error=error)


# -- statistics ----------------------------------------------------------------


def low_probe(probes) -> float:
    """The run's 5th-percentile probe: its speed in the fast host phase."""
    ordered = sorted(probes)
    return ordered[len(ordered) // 20] if ordered else 0.0


def quiet(records: list[Record],
          min_cycles: int = MIN_PER_KIND) -> tuple[list[Record], bool]:
    """The records of cycles that ran in the run's fast host phase, and
    whether the run is steady.

    A cycle is quiet when its own probe and the next cycle's probe are both
    within :data:`QUIET_FACTOR` times the run's 5th-percentile probe; the
    second probe catches a slow phase that began during the cycle.  Other
    cycles ran while the host slowed compute-bound code, and their timings
    are left out.  A run aims for ``min_cycles`` quiet cycles and is steady
    with at least half that many.  With fewer, every record is returned,
    both host phases mixed, and the run is not steady.
    """
    cut = QUIET_FACTOR * low_probe({r.cycle: r.probe for r in records}
                                   .values())
    kept = [r for r in records if max(r.probe, r.probe_after) <= cut]
    if 2 * len({r.cycle for r in kept}) < min_cycles:
        return records, False
    return kept, True


def p90(values) -> float:
    """The 90th percentile as ``statistics.quantiles(n=10)`` gives it."""
    return statistics.quantiles(values, n=10)[-1]


def samples_above_p90(values) -> int:
    cut = p90(values)
    return sum(1 for v in values if v > cut)


def by_kind(records: list[Record], kinds) -> dict[str, list[Record]]:
    return {k: [r for r in records if r.kind == k] for k in kinds}


def kind_averaged(records: list[Record], kinds, stat) -> float:
    """``stat`` computed inside each kind, then averaged over the kinds.

    A percentile pooled over kinds of different cost can fall on the gap
    between two kinds, where it jumps from one kind's values to the
    other's with every small change in the sample counts; inside one
    kind it cannot.
    """
    groups = by_kind(records, kinds)
    return statistics.fmean(stat(group) for group in groups.values())


def end_to_end(records: list[Record], kinds, setup_seconds: float) -> dict:
    """The seven end-to-end metrics of one run's untraced records.

    Timings come from the quiet cycles; memory and verification count
    every request.
    """
    timed, _ = quiet(records)

    def median_ms(group):
        return 1e3 * statistics.median(r.seconds for r in group)

    def p90_ms(group):
        return 1e3 * p90([r.seconds for r in group])

    def floor_multiple(group):
        return statistics.median(
            r.seconds / floor_seconds(r.bytes_computed, r.bandwidth)
            for r in group)

    return {
        "throughput_mps": (cycle_throughput(timed, kinds), "Mpx/s"),
        "latency_p50_ms": (kind_averaged(timed, kinds, median_ms), "ms"),
        "latency_p90_ms": (kind_averaged(timed, kinds, p90_ms), "ms"),
        "floor_multiple": (kind_averaged(timed, kinds, floor_multiple),
                           "x"),
        "setup_s": (setup_seconds, "s"),
        "peak_rss_mb": (max(r.peak_bytes for r in records) / 1e6, "MB"),
        "verified_frac": (sum(r.verified for r in records) / len(records),
                          "fraction"),
    }


def cycle_throughput(records: list[Record], kinds) -> float:
    """Median over whole cycles of verified megapixels per call second."""
    cycles: dict[int, list[Record]] = {}
    for r in records:
        cycles.setdefault(r.cycle, []).append(r)
    rates = []
    for group in cycles.values():
        if len(group) != len(kinds):
            continue
        pixels = sum(r.pixels for r in group if r.verified)
        rates.append(pixels / 1e6 / sum(r.seconds for r in group))
    return statistics.median(rates)


def sample_counts(records: list[Record], kinds) -> dict[str, dict[str, int]]:
    """Per kind: samples and samples above that kind's p90."""
    out = {}
    for kind, group in by_kind(records, kinds).items():
        secs = [r.seconds for r in group]
        out[kind] = {"samples": len(secs),
                     "above_p90": samples_above_p90(secs)
                     if len(secs) >= 2 else 0}
    return out


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
