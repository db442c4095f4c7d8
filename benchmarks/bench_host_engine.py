#!/usr/bin/env python3
"""Benchmark the host execution engines (serial / wavefront / parallel).

Times the serial per-algorithm tile loop against the multi-core wavefront
tile engine (:mod:`repro.hostexec`) and the one-pass native kernel
(:func:`repro.sat.parallel_host.parallel_sat`) over a size and worker sweep,
quantifies the batched-execution amortization (``compute_many`` on a warm
engine vs one-shot calls that pay pool spin-up and plan construction every
time), and measures the native pass against the floor the paper's Table III
uses: a memcpy of the same matrix (``NATIVE_N``², float32 and uint8).

Run modes:

    python benchmarks/bench_host_engine.py            # full sweep, writes
                                                      # BENCH_host_engine.json
    python benchmarks/bench_host_engine.py --smoke    # fast correctness +
                                                      # sanity gate (CI)

The smoke mode is wired into ``make test`` (target ``bench-smoke``): it
asserts the wavefront engine is bit-identical to the serial host path and not
slower than serial beyond a generous tolerance, and that ``parallel_sat`` is
bit-identical to the double cumsum, exiting non-zero on failure.  The full
run also fails when the native float32 pass takes more than 2x the memcpy.
Unlike the ``bench_*`` pytest-benchmark modules, this file is a plain script
(it defines no test functions) so it can emit a committed JSON artefact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:  # allow running without install
    sys.path.insert(0, str(REPO / "src"))

from repro.hostexec import WavefrontEngine, native  # noqa: E402
from repro.sat.parallel_host import parallel_sat  # noqa: E402
from repro.sat.registry import get_algorithm  # noqa: E402

ALGORITHM = "1R1W-SKSS-LB"
TILE_WIDTH = 32
#: Matrix size of the native-pass vs memcpy run; its float32 ratio is
#: gated at <= 2x (``native_within_2x_copy``).
NATIVE_N = 4096


def _matrix(n: int, seed: int = 2018) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 100, size=(n, n)).astype(np.float64)


def _best(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time (seconds) of ``fn()``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def bench_size(n: int, workers_list: list[int], repeats: int) -> dict:
    """Serial vs wavefront (cold + warm) vs parallel at one matrix size."""
    a = _matrix(n)
    alg = get_algorithm(ALGORITHM, tile_width=TILE_WIDTH)
    serial_sat = alg.run_host(a)
    serial = _best(lambda: alg.run_host(a), repeats)

    row = {"n": n, "tile_width": TILE_WIDTH, "algorithm": ALGORITHM,
           "serial_s": serial, "wavefront": [], "parallel": []}
    for w in workers_list:
        with WavefrontEngine(workers=w) as eng:
            wf_sat = eng.compute(a, algorithm=ALGORITHM,
                                 tile_width=TILE_WIDTH)  # warms plan + pool
            if not np.array_equal(wf_sat, serial_sat):
                raise AssertionError(
                    f"wavefront (workers={w}) not bit-identical at n={n}")
            warm = _best(lambda: eng.compute(a, algorithm=ALGORITHM,
                                             tile_width=TILE_WIDTH), repeats)

        def cold():
            with WavefrontEngine(workers=w) as fresh:
                fresh.compute(a, algorithm=ALGORITHM, tile_width=TILE_WIDTH)
        row["wavefront"].append({
            "workers": w, "warm_s": warm, "cold_s": _best(cold, repeats),
            "speedup_vs_serial": serial / warm})

        par = _best(lambda: parallel_sat(a, workers=w), repeats)
        row["parallel"].append({"workers": w, "s": par,
                                "speedup_vs_serial": serial / par})
    return row


def bench_native(n: int, repeats: int) -> dict:
    """The native one-pass kernel against a memcpy of the same matrix.

    ``pass_s`` is the kernel reading the input and writing the SAT into a
    preallocated buffer; ``copy_s`` is ``np.copyto`` of the input into a
    preallocated buffer of its dtype.  For float32 the two move the same
    bytes; for uint8 the pass reads the 1-byte input and writes the 8-byte
    int64 SAT, so it moves 4.5x the bytes of the copy.
    ``parallel_sat_s`` is the whole call, output allocation included.
    """
    kernel = native.kernel()
    rng = np.random.default_rng(2018)
    row = {"n": n,
           "kernel": os.path.basename(kernel.path) if kernel else None,
           "cflags": list(native.CFLAGS), "dtypes": {}}
    inputs = {"float32": rng.random((n, n), dtype=np.float32),
              "uint8": rng.integers(0, 256, size=(n, n), dtype=np.uint8)}
    for name, a in inputs.items():
        want = parallel_sat(a)
        acc = want.dtype
        if not np.array_equal(want, a.astype(acc).cumsum(0).cumsum(1)):
            raise AssertionError(f"parallel_sat not bit-identical ({name})")
        dst = np.empty_like(a)
        copy = _best(lambda: np.copyto(dst, a), repeats)
        entry = {"acc_dtype": acc.name, "copy_s": copy,
                 "parallel_sat_s": _best(lambda: parallel_sat(a), repeats)}
        if kernel is not None and (a.dtype, acc) in native.PAIRS:
            out = np.empty(a.shape, dtype=acc)
            entry["pass_s"] = _best(lambda: kernel.sat(a, out), repeats)
            entry["pass_over_copy"] = entry["pass_s"] / copy
        entry["parallel_sat_over_copy"] = entry["parallel_sat_s"] / copy
        row["dtypes"][name] = entry
    return row


def bench_batched(n: int, batch: int, workers: int, repeats: int) -> dict:
    """Amortization of ``compute_many`` over one-shot per-call engines."""
    arrays = [_matrix(n, seed=100 + i) for i in range(batch)]

    with WavefrontEngine(workers=workers) as eng:
        eng.compute(arrays[0], algorithm=ALGORITHM, tile_width=TILE_WIDTH)
        batched = _best(lambda: eng.compute_many(
            arrays, algorithm=ALGORITHM, tile_width=TILE_WIDTH), repeats)

    def one_shot_all():
        for a in arrays:  # pays pool spin-up + plan build per call
            with WavefrontEngine(workers=workers) as fresh:
                fresh.compute(a, algorithm=ALGORITHM, tile_width=TILE_WIDTH)
    one_shot = _best(one_shot_all, repeats)
    return {"n": n, "batch": batch, "workers": workers,
            "batched_per_call_s": batched / batch,
            "one_shot_per_call_s": one_shot / batch,
            "amortization_speedup": one_shot / batched}


def run_full(args) -> int:
    results = {
        "benchmark": "host_engine",
        "algorithm": ALGORITHM,
        "tile_width": TILE_WIDTH,
        "cpu_count": os.cpu_count(),
        "repro_workers_env": os.environ.get("REPRO_WORKERS"),
        "repeats": args.repeats,
        "sizes": [],
        "batched": None,
        "native": None,
        "acceptance": None,
    }
    for n in args.sizes:
        print(f"n={n} ...", flush=True)
        row = bench_size(n, args.workers, args.repeats)
        results["sizes"].append(row)
        wf = ", ".join(f"w={e['workers']}: {e['warm_s']:.3f}s "
                       f"({e['speedup_vs_serial']:.2f}x)"
                       for e in row["wavefront"])
        print(f"  serial {row['serial_s']:.3f}s | wavefront {wf}")

    print(f"batched n={args.batch_n} x{args.batch} ...", flush=True)
    results["batched"] = bench_batched(args.batch_n, args.batch,
                                       max(args.workers), args.repeats)
    b = results["batched"]
    print(f"  per-call batched {b['batched_per_call_s']:.3f}s vs one-shot "
          f"{b['one_shot_per_call_s']:.3f}s "
          f"({b['amortization_speedup']:.2f}x)")

    print(f"native n={NATIVE_N} ...", flush=True)
    results["native"] = bench_native(NATIVE_N, args.repeats)
    for name, e in results["native"]["dtypes"].items():
        kernel = f"pass {e['pass_s'] * 1e3:.1f}ms, " if "pass_s" in e else ""
        print(f"  {name}: copy {e['copy_s'] * 1e3:.1f}ms, {kernel}"
              f"parallel_sat {e['parallel_sat_s'] * 1e3:.1f}ms "
              f"({e['parallel_sat_over_copy']:.2f}x copy)")
    native_ratio = results["native"]["dtypes"]["float32"].get(
        "pass_over_copy")

    # Acceptance: >=2x over serial at n=2048, W=32 with >=4 workers.
    gate = None
    for row in results["sizes"]:
        if row["n"] == 2048:
            cands = [e for e in row["wavefront"] if e["workers"] >= 4]
            if cands:
                gate = max(e["speedup_vs_serial"] for e in cands)
    results["acceptance"] = {
        "wavefront_2x_at_2048": None if gate is None else gate >= 2.0,
        "best_speedup_at_2048": gate,
        "batched_amortization": b["amortization_speedup"],
        "native_float32_pass_over_copy": native_ratio,
        "native_within_2x_copy": None if native_ratio is None
        else native_ratio <= 2.0,
    }
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    status = 0
    if gate is not None and gate < 2.0:
        print(f"ACCEPTANCE FAIL: best wavefront speedup at n=2048 is "
              f"{gate:.2f}x (< 2x)", file=sys.stderr)
        status = 1
    if native_ratio is None:
        print("ACCEPTANCE FAIL: the native kernel is unavailable",
              file=sys.stderr)
        status = 1
    elif native_ratio > 2.0:
        print(f"ACCEPTANCE FAIL: native float32 pass at n={NATIVE_N} "
              f"is {native_ratio:.2f}x the memcpy (> 2x)", file=sys.stderr)
        status = 1
    return status


def run_smoke(args) -> int:
    """Fast gate for ``make test``: correctness plus a loose perf sanity.

    Bit-identity is checked on the *threaded* scheduler (workers=4, real
    dependency races); the perf gate uses the deterministic workers=1 fast
    path, whose batched chunk kernels must beat the serial per-tile loop —
    thread timings on shared CI boxes are too noisy to gate on.
    """
    n = 512
    a = _matrix(n)
    alg = get_algorithm(ALGORITHM, tile_width=TILE_WIDTH)
    serial_sat = alg.run_host(a)
    serial = _best(lambda: alg.run_host(a), 3)

    with WavefrontEngine(workers=4) as eng:
        ok_bits = np.array_equal(
            eng.compute(a, algorithm=ALGORITHM, tile_width=TILE_WIDTH),
            serial_sat)
    with WavefrontEngine(workers=1) as eng:
        eng.compute(a, algorithm=ALGORITHM, tile_width=TILE_WIDTH)
        warm = _best(lambda: eng.compute(a, algorithm=ALGORITHM,
                                         tile_width=TILE_WIDTH), 3)
    ok_par = np.array_equal(parallel_sat(a, workers=4),
                            a.cumsum(axis=0).cumsum(axis=1))

    print(f"smoke n={n}: serial {serial * 1e3:.1f}ms, "
          f"wavefront(warm, 1w) {warm * 1e3:.1f}ms, "
          f"bit-identical(4w)={ok_bits}, parallel-ok={ok_par}")
    if not ok_bits:
        print("SMOKE FAIL: wavefront result differs from serial host path",
              file=sys.stderr)
        return 1
    if not ok_par:
        print("SMOKE FAIL: parallel_sat differs from the double cumsum",
              file=sys.stderr)
        return 1
    if warm > serial * 1.5:
        print(f"SMOKE FAIL: warm wavefront {warm:.3f}s > 1.5x serial "
              f"{serial:.3f}s", file=sys.stderr)
        return 1
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="fast correctness/sanity gate; writes no JSON")
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[512, 1024, 2048, 4096])
    ap.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4, 8])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--batch", type=int, default=10,
                    help="batch size for the compute_many amortization run")
    ap.add_argument("--batch-n", type=int, default=256,
                    help="matrix size for the batched run (small enough that "
                         "per-call pool/plan setup is visible)")
    ap.add_argument("--out", default=str(REPO / "BENCH_host_engine.json"))
    args = ap.parse_args(argv)
    return run_smoke(args) if args.smoke else run_full(args)


if __name__ == "__main__":
    sys.exit(main())
