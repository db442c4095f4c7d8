"""Run one workload of the SAT benchmark and print its metrics.

    python3 satbench/run.py --workload oneshot --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; ``repro`` is imported from its
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the seven
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it give the machine fingerprint, the sample
counts per request kind and, when traced, the trace-event file.  Work files
go to ``.satbench/`` in the checkout.  ``METRICS.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import HostProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".satbench"
WORKLOADS = ("oneshot", "video", "shards", "simulate")

#: Fresh processes whose set-up times give ``setup_s``.
SETUP_RUNS = 9

#: A set-up process runs after every SETUP_EVERY-th block of the measuring
#: loop, so the processes spread over the run and its host phases.
SETUP_EVERY = 3

#: Quiet cycles a traced run needs before it leaves out the others.
TRACED_MIN_QUIET = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def workers() -> int:
    return len(os.sched_getaffinity(0))


def setup_child(args) -> None:
    """Time import, build and warm calls in this fresh process.

    NumPy is imported before the clock starts.  Its import is not work of
    ``repro``, no change to ``repro`` moves it, and it is what a fresh
    process on a shared host times least steadily (see ``METRICS.md``).
    Prints the seconds and the larger of the host probes taken just before
    the clock started and just after it stopped.
    """
    import numpy  # noqa: F401
    probe = HostProbe()
    before = probe()
    t0 = time.perf_counter()
    import workloads
    t_gen = time.perf_counter()
    wl = workloads.make(args.workload, args.seed, workers=workers(),
                        workdir=str(WORKDIR / f"setup-{os.getpid()}"))
    gen = time.perf_counter() - t_gen
    wl.setup()
    wl.warm()
    seconds = time.perf_counter() - t0 - gen
    host = max(before, probe())
    wl.close()
    shutil.rmtree(wl.workdir, ignore_errors=True)
    print(repr(seconds), repr(host))


def setup_once(args) -> tuple[float, float]:
    """(seconds, host probe) of one fresh set-up process.

    Every process imports from the same bytecode cache under ``.satbench/``,
    whether or not the environment lets Python write ``__pycache__``, so
    ``setup_s`` never includes compiling ``repro``.
    """
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(WORKDIR / "pycache")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    seconds, host = proc.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(host)


def setup_seconds(setup_runs, records) -> float:
    """Median set-up time over the processes that ran in a quiet phase
    (by the main loop's probe cut), or over all of them if none did."""
    import core
    cut = core.QUIET_FACTOR * core.low_probe([r.probe for r in records])
    quiet = [s for s, host in setup_runs if host <= cut]
    return statistics.median(quiet or [s for s, _ in setup_runs])


def cache_sizes() -> dict[str, int]:
    """Cache sizes of CPU 0 from sysfs, in bytes (``L1d``, ``L2``, ...)."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        name = f"L{level}" + ("d" if kind == "Data" else "")
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        out[name] = int(size[:-1]) * units[size[-1]] if size[-1] in units \
            else int(size)
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor()


def fingerprint(args, wl, bandwidths, floor_bytes) -> dict:
    import platform

    import numpy as np
    caches = cache_sizes()
    mib = 1 << 20
    fp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cpu": cpu_model(), "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)), "workers": workers(),
        "caches_kib": {k: v >> 10 for k, v in caches.items()},
        "python": platform.python_version(), "numpy": np.__version__,
        "copy_gbps": statistics.median(bandwidths) / 1e9,
        "floor_buffer_mib": floor_bytes / mib,
        "floor_pair_mib": 2 * floor_bytes / mib,
    }
    for level in ("L2", "L3"):
        if level in caches:
            fp[f"floor_pair_over_{level}"] = 2 * floor_bytes / caches[level]
    fp["working_set_mib"] = {
        kind: {"in": wl.io_bytes(kind)[0] / mib,
               "out": wl.io_bytes(kind)[1] / mib} for kind in wl.kinds}
    return fp


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"satbench: no repro package under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(exist_ok=True)
    if args.setup_child:
        setup_child(args)
        return 0

    import core
    import workloads
    setup_times: list[tuple[float, float]] = []
    if not args.trace:
        setup_once(args)    # untimed: fills the bytecode and page caches

    def between_blocks(cycle: int) -> None:
        if len(setup_times) < SETUP_RUNS and \
                (cycle // core.FLOOR_EVERY) % SETUP_EVERY == 0:
            setup_times.append(setup_once(args))

    wl = workloads.make(args.workload, args.seed, workers=workers(),
                        workdir=str(WORKDIR / f"run-{os.getpid()}"))
    try:
        wl.prepare_checks()
        wl.setup()
        wl.warm()
        floor = core.CopyFloor()
        probe = HostProbe()
        if args.trace:
            metrics, result, trace_path = traced_run(args, wl, floor, probe)
        else:
            result = core.run_cycles(wl, floor, probe, seconds=args.seconds,
                                     after_block=between_blocks)
            while len(setup_times) < SETUP_RUNS:
                setup_times.append(setup_once(args))
            records = result.select(traced=False)
            e2e = core.end_to_end(records, wl.kinds,
                                  setup_seconds(setup_times, records))
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in e2e.items()}
            trace_path = None
    finally:
        wl.close()
        shutil.rmtree(wl.workdir, ignore_errors=True)

    records = result.records
    fp = fingerprint(args, wl, [r.bandwidth for r in records],
                     floor.src.nbytes)
    fp["host_probe_us"] = {
        "low": 1e6 * core.low_probe([r.probe for r in records]),
        "median": 1e6 * statistics.median(r.probe for r in records)}
    if setup_times:
        fp["setup_runs"] = [{"s": s, "probe_us": 1e6 * host}
                            for s, host in setup_times]
    print("fingerprint " + json.dumps(fp))
    untraced = result.select(traced=False)
    timed, steady = core.quiet(untraced)
    print("samples " + json.dumps({
        "cycles": len({r.cycle for r in untraced}),
        "timed_cycles": len({r.cycle for r in timed}),
        "steady": steady,
        "per_kind": core.sample_counts(timed, wl.kinds)}))
    errors = sorted({r.error for r in records if r.error})
    if errors:
        print("errors " + json.dumps(errors[:5]))
    if trace_path:
        print(f"trace {trace_path}")
    failed = sum(not r.verified for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


def traced_run(args, wl, floor, probe):
    """Alternate untraced and traced cycles; return the per-layer metrics."""
    import numpy as np

    import core
    import repro
    import tracing
    tracer = tracing.Tracer()
    reference_s: list[float] = []
    speedups: list[float] = []

    def after_block(cycle: int) -> None:
        a = wl.reference_image(cycle)
        t0 = time.perf_counter()
        repro.sat_reference(a)
        reference_s.append(time.perf_counter() - t0)
        if "parallel" in wl.kinds:
            pair = []
            for w in (1, workers()):
                t0 = time.perf_counter()
                repro.compute_sat(a, engine="parallel", workers=w)
                pair.append(time.perf_counter() - t0)
            speedups.append(pair[0] / pair[1])

    result = core.run_cycles(wl, floor, probe, seconds=args.seconds,
                             min_per_kind=1, tracer=tracer,
                             after_block=after_block)
    records = result.records
    timed, _ = core.quiet(records, min_cycles=TRACED_MIN_QUIET)
    metrics = tracer.layer_metrics({r.request for r in timed if r.traced})
    units = dict(tracing.LAYER_UNITS)
    metrics["floor.copy_gbps"] = \
        statistics.median(r.bandwidth for r in records) / 1e9
    metrics["floor.bytes_computed"] = sum(wl.floor_bytes(k)
                                          for k in wl.kinds)
    metrics["baseline.reference_ms"] = 1e3 * statistics.median(reference_s)
    metrics["sat.parallel_speedup"] = \
        statistics.median(speedups) if speedups else 0.0
    ratios = []
    for kind in wl.kinds:
        on = [r.seconds for r in timed if r.kind == kind and r.traced]
        off = [r.seconds for r in timed if r.kind == kind and not r.traced]
        ratios.append(statistics.median(on) / statistics.median(off))
    metrics["trace.overhead_frac"] = float(np.mean(ratios)) - 1.0
    units.update({"floor.copy_gbps": "GB/s", "floor.bytes_computed": "bytes",
                  "baseline.reference_ms": "ms", "sat.parallel_speedup": "x",
                  "trace.overhead_frac": "fraction"})
    trace_dir = WORKDIR / "traces"
    trace_dir.mkdir(exist_ok=True)
    path = trace_dir / f"{args.workload}-seed{args.seed}.json"
    tracer.write_chrome_trace(str(path))
    out = {name: {"value": value, "unit": units[name]}
           for name, value in sorted(metrics.items())}
    return out, result, path.relative_to(ROOT)


if __name__ == "__main__":
    sys.exit(main())
