"""Layer spans for the traced run, recorded from the benchmark's own files.

:class:`Tracer` wraps the public functions of each ``repro`` layer at the
module or class attribute their callers look up.  Functions that other
modules import by name (``checksum``, ``prepare_input``, ...) are replaced
in every ``repro`` module that holds them, so no call slips past.  Spans
stay in memory (name, start, end, parent span, request) and are turned into
the per-layer metrics and a Chrome trace-event file at the end of the run.
Nothing in ``src/`` is edited; :meth:`Tracer.uninstall` restores every
attribute, so untraced cycles run the original code.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    thread: int


# -- counters taken from a wrapped call's arguments and result -----------------


def _count_prepare(counts, args, kwargs, result):
    work, copied = result
    if copied:
        counts["backend.copy_bytes"] += args[0].nbytes + work.nbytes


def _count_finalize(counts, args, kwargs, result):
    if result is not args[0]:
        counts["backend.copy_bytes"] += 2 * result.nbytes


def _count_encode(counts, args, kwargs, result):
    counts["distsat.protocol_bytes"] += len(result)


def _count_checksum(counts, args, kwargs, result):
    counts["distsat.checksum_bytes"] += np.asarray(args[0]).nbytes


def _count_job(counts, args, kwargs, result):
    attempts = sum(n for phase in result.stats["attempts"].values()
                   for n in phase.values())
    counts["distsat.attempts"] += attempts
    counts["distsat.retries"] += attempts - 2 * result.stats["shards"]
    counts["distsat.peak_worker_bytes"] = max(
        counts["distsat.peak_worker_bytes"],
        result.stats["peak_worker_bytes"])


def _count_manifest(counts, args, kwargs, result):
    if args[0].directory is not None:
        counts["distsat.manifest_writes"] += 1


def _count_advance(counts, args, kwargs, result):
    # A scene cut is repaired as a whole-frame delta, never by
    # IncrementalSAT.rebuild, so a full rebuild is an advance whose input
    # changed in every tile.
    stats = args[0].stats
    counts["hostexec.dirty_tiles"] += stats.dirty_tiles
    counts["hostexec.repaired_tiles"] += stats.repaired_tiles
    if stats.total_tiles and stats.dirty_tiles == stats.total_tiles:
        counts["hostexec.full_rebuilds"] += 1


def _count_launch(counts, args, kwargs, result):
    traffic = result.traffic
    counts["gpusim.scheduler_steps"] += result.scheduler_steps
    counts["gpusim.global_bytes_read"] += traffic.global_bytes_read
    counts["gpusim.global_bytes_written"] += traffic.global_bytes_written
    counts["gpusim.atomic_ops"] += traffic.atomic_ops
    counts["gpusim.spin_iterations"] += traffic.spin_iterations


#: (module, function, span name, counter) — replaced wherever imported.
FUNCTIONS = (
    ("repro.sat.registry", "compute_sat", "sat.compute_sat", None),
    ("repro.sat.parallel_host", "parallel_sat", "sat.parallel_sat", None),
    ("repro.backend.plan", "prepare_input", "backend.prepare_input",
     _count_prepare),
    ("repro.backend.plan", "finalize_output", "backend.finalize_output",
     _count_finalize),
    ("repro.hostexec.plan", "build_plan", "hostexec.engine_setup", None),
    ("repro.distsat.protocol", "encode_message", "distsat.encode",
     _count_encode),
    ("repro.distsat.protocol", "decode_message", "distsat.decode", None),
    ("repro.distsat.protocol", "checksum", "distsat.checksum",
     _count_checksum),
    ("repro.distsat.worker", "compute_band_sat", "distsat.band_sat", None),
    ("repro.distsat.coordinator", "distributed_sat", "distsat.job",
     _count_job),
)

_CHECKPOINT = ("open_run", "record_attempt", "commit_carry", "mark_applied",
               "load_carry_before", "_read_manifest", "_load_carry")

#: (module, class, method, span name, counter) — replaced on the class.
METHODS = (
    ("repro.backend.core", "Backend", "plan", "backend.plan", None),
    ("repro.backend.core", "Backend", "execute", "backend.execute", None),
    ("repro.hostexec.engine", "WavefrontEngine", "__init__",
     "hostexec.engine_setup", None),
    ("repro.hostexec.engine", "WavefrontEngine", "compute",
     "hostexec.wavefront_compute", None),
    ("repro.hostexec.incremental", "IncrementalSAT", "advance",
     "hostexec.advance", _count_advance),
    ("repro.apps.video", "VideoSAT", "process", "apps.process", None),
    ("repro.apps.video", "VideoSAT", "box_filter", "apps.box_filter", None),
    ("repro.distsat.sources", "SyntheticSource", "band", "distsat.source",
     None),
    ("repro.distsat.sources", "SyntheticSource", "rect", "distsat.source",
     None),
    ("repro.distsat.sources", "MatrixSource", "band", "distsat.source",
     None),
    *(("repro.distsat.checkpoint", "CheckpointStore", m, "distsat.checkpoint",
       None) for m in _CHECKPOINT),
    ("repro.distsat.checkpoint", "CheckpointStore", "_write_manifest",
     "distsat.checkpoint", _count_manifest),
    ("repro.gpusim.kernel", "GPU", "launch", "gpusim.launch", _count_launch),
    *(("repro.gpusim.kernel", "GPU", m, "gpusim.host_copy", None)
      for m in ("alloc", "read", "write")),
)

#: Time metrics: name -> (span name, "covered" or "self").  A request's
#: covered time is the union of its spans of that name (nested spans of
#: one layer are not counted twice); self time is each span minus the part
#: its child spans cover.  The metric is the median over the requests that
#: entered the layer, in ms.
TIME_METRICS = {
    "sat.compute_sat_self_ms": ("sat.compute_sat", "self"),
    "sat.parallel_sat_ms": ("sat.parallel_sat", "covered"),
    "backend.plan_ms": ("backend.plan", "covered"),
    "backend.execute_ms": ("backend.execute", "covered"),
    "backend.prepare_input_ms": ("backend.prepare_input", "covered"),
    "backend.finalize_output_ms": ("backend.finalize_output", "covered"),
    "hostexec.wavefront_compute_ms": ("hostexec.wavefront_compute",
                                      "covered"),
    "hostexec.engine_setup_ms": ("hostexec.engine_setup", "covered"),
    "hostexec.advance_ms": ("hostexec.advance", "covered"),
    "apps.process_self_ms": ("apps.process", "self"),
    "apps.box_filter_ms": ("apps.box_filter", "covered"),
    "distsat.encode_ms": ("distsat.encode", "covered"),
    "distsat.decode_ms": ("distsat.decode", "covered"),
    "distsat.source_ms": ("distsat.source", "covered"),
    "distsat.checksum_ms": ("distsat.checksum", "covered"),
    "distsat.band_sat_ms": ("distsat.band_sat", "covered"),
    "distsat.checkpoint_ms": ("distsat.checkpoint", "covered"),
    "distsat.job_ms": ("distsat.job", "covered"),
    "distsat.coordinator_self_ms": ("distsat.job", "self"),
    "gpusim.launch_ms": ("gpusim.launch", "covered"),
    "gpusim.host_copy_ms": ("gpusim.host_copy", "covered"),
}

#: Counter metrics: name -> the span that marks a request as having entered
#: the counter's layer.  The metric is the mean over those requests.
MEAN_COUNTERS = {
    "backend.copy_bytes": "backend.execute",
    "hostexec.dirty_tiles": "hostexec.advance",
    "hostexec.repaired_tiles": "hostexec.advance",
    "hostexec.full_rebuilds": "hostexec.advance",
    "distsat.protocol_bytes": "distsat.job",
    "distsat.checksum_bytes": "distsat.job",
    "distsat.manifest_writes": "distsat.job",
    "distsat.attempts": "distsat.job",
    "gpusim.scheduler_steps": "gpusim.launch",
    "gpusim.global_bytes_read": "gpusim.launch",
    "gpusim.global_bytes_written": "gpusim.launch",
    "gpusim.atomic_ops": "gpusim.launch",
    "gpusim.spin_iterations": "gpusim.launch",
}

#: Units of every metric :meth:`Tracer.layer_metrics` returns.
LAYER_UNITS = {
    **{name: "ms" for name in TIME_METRICS},
    **{name: "count" for name in MEAN_COUNTERS},
    "backend.copy_bytes": "bytes",
    "distsat.protocol_bytes": "bytes",
    "distsat.checksum_bytes": "bytes",
    "distsat.peak_worker_bytes": "bytes",
    "distsat.retry_ratio": "ratio",
    "hostexec.repair_useful_ratio": "ratio",
    "gpusim.us_per_step": "us",
    "gpusim.global_bytes_read": "bytes",
    "gpusim.global_bytes_written": "bytes",
    "trace.unattributed_frac": "fraction",
}


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(p.id, []).append(
                (max(s.start, p.start), min(s.end, p.end)))
    return {s.id: (s.end - s.start)
            - union_length(iv for iv in children.get(s.id, ())
                           if iv[1] > iv[0])
            for s in spans}


class _Counts(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Records spans at layer boundaries while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, _Counts] = {}
        self.requests: dict[int, str] = {}     #: request id -> kind
        self._local = threading.local()
        self._request: int | None = None
        self._root: Span | None = None
        self._next = 0
        self._patches = self._find_patches()

    # -- installation ------------------------------------------------------------

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        patches = []
        for module, func, span, counter in FUNCTIONS:
            original = getattr(importlib.import_module(module), func)
            wrapper = self._wrap(original, span, counter)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "repro"
                                       or name.startswith("repro.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original, wrapper))
        for module, cls_name, method, span, counter in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[method]
            patches.append((cls, method, original,
                            self._wrap(original, span, counter)))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None and span.request is not None:
                counter(tracer.counts[span.request], args, kwargs, result)
            return result
        return wrapper

    # -- spans -------------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            parent = self._root.id if self._root is not None else None
        span = Span(id=self._next, name=name, start=time.perf_counter(),
                    end=0.0, parent=parent, request=self._request,
                    thread=threading.get_ident())
        self._next += 1
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def begin_request(self, kind: str) -> int:
        """Open the root span of a request; returns the request id."""
        self._request = len(self.requests)
        self.requests[self._request] = kind
        self.counts[self._request] = _Counts()
        self._root = self._open(f"request.{kind}")
        return self._request

    def end_request(self) -> None:
        self._close(self._root)
        self._root = None
        self._request = None

    # -- metrics -----------------------------------------------------------------

    def layer_metrics(self, requests=None) -> dict[str, float]:
        """Every per-layer metric, over ``requests`` (ids) or all of them.

        A layer the workload never entered reports 0.
        """
        per_request: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.request is not None and (requests is None
                                          or s.request in requests):
                per_request.setdefault(s.request, []).append(s)
        counts = {rid: self.counts[rid] for rid in per_request}
        selfs = self_times(self.spans)
        out: dict[str, float] = {}
        for metric, (span_name, mode) in TIME_METRICS.items():
            values = []
            for spans in per_request.values():
                hits = [s for s in spans if s.name == span_name]
                if not hits:
                    continue
                if mode == "self":
                    values.append(sum(selfs[s.id] for s in hits))
                else:
                    values.append(union_length((s.start, s.end)
                                               for s in hits))
            out[metric] = 1e3 * statistics.median(values) if values else 0.0
        for name, span_name in MEAN_COUNTERS.items():
            values = [self.counts[rid][name]
                      for rid, spans in per_request.items()
                      if any(s.name == span_name for s in spans)]
            out[name] = statistics.fmean(values) if values else 0.0

        def total(name):
            return sum(c[name] for c in counts.values())

        out["distsat.peak_worker_bytes"] = max(
            (c["distsat.peak_worker_bytes"] for c in counts.values()),
            default=0)
        attempts = total("distsat.attempts")
        out["distsat.retry_ratio"] = \
            total("distsat.retries") / attempts if attempts else 0.0
        repaired = total("hostexec.repaired_tiles")
        out["hostexec.repair_useful_ratio"] = \
            total("hostexec.dirty_tiles") / repaired if repaired else 0.0
        steps = total("gpusim.scheduler_steps")
        launch_us = 1e6 * sum(union_length((s.start, s.end) for s in spans
                                           if s.name == "gpusim.launch")
                              for spans in per_request.values())
        out["gpusim.us_per_step"] = launch_us / steps if steps else 0.0
        out["trace.unattributed_frac"] = self.unattributed_frac(per_request)
        return out

    @staticmethod
    def unattributed_frac(per_request) -> float:
        """Share of request time that no layer span covers."""
        covered = total = 0.0
        for spans in per_request.values():
            root = next(s for s in spans if s.name.startswith("request."))
            total += root.end - root.start
            covered += union_length((s.start, s.end) for s in spans
                                    if s.parent == root.id)
        return (total - covered) / total if total else 0.0

    # -- export ------------------------------------------------------------------

    def write_chrome_trace(self, path: str) -> None:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        tids: dict[int, int] = {}
        events = []
        for s in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(s.thread, len(tids) + 1)
            events.append({
                "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
                "ts": (s.start - t0) * 1e6, "dur": (s.end - s.start) * 1e6,
                "pid": 1, "tid": tid,
                "args": {"request": s.request, "span": s.id,
                         "parent": s.parent},
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
