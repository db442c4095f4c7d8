"""Tests of the benchmark's own logic.

    PYTHONPATH=src python -m pytest satbench -q

Covers the floor arithmetic, the percentile-inside-one-kind rule, self time
on a synthetic span tree, the tracer's install/uninstall, the compare
helper, and for every workload a planted wrong output (and a raise) that
must count as failed rather than verified.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import core  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from probe import HostProbe  # noqa: E402


def record(kind, seconds, *, cycle=0, pixels=1_000_000, nbytes=8_000_000,
           bandwidth=16e9, verified=True, probe=0.0):
    return core.Record(cycle=cycle, kind=kind, seconds=seconds,
                       verified=verified, pixels=pixels,
                       bytes_computed=nbytes, bandwidth=bandwidth,
                       peak_bytes=50_000_000, probe=probe, probe_after=probe)


# -- floor arithmetic -----------------------------------------------------------


def test_floor_is_computed_bytes_at_copy_bandwidth():
    # 8 MB at 16 GB/s (read + write counted) is half a millisecond.
    assert core.floor_seconds(8_000_000, 16e9) == pytest.approx(5e-4)


def test_floor_multiple_uses_the_bandwidth_measured_next_to_each_request():
    # Same call time, the machine's copy speed halves: the multiple halves
    # with it, which is what keeps it steady as the machine drifts.
    fast = [record("k", 5e-3, cycle=i, bandwidth=16e9) for i in range(3)]
    slow = [record("k", 5e-3, cycle=i, bandwidth=8e9) for i in range(3)]
    m_fast = core.end_to_end(fast, ("k",), 1.0)["floor_multiple"][0]
    m_slow = core.end_to_end(slow, ("k",), 1.0)["floor_multiple"][0]
    assert m_fast == pytest.approx(10.0)
    assert m_slow == pytest.approx(5.0)


def test_copy_floor_counts_read_and_write_bytes():
    floor = core.CopyFloor(nbytes=1 << 20)
    assert floor.nbytes == 2 << 20
    assert floor.measure() > 0


# -- percentiles inside one kind -------------------------------------------------


def test_percentiles_are_taken_inside_each_kind():
    fast = [record("fast", 0.001 + i * 1e-6, cycle=i) for i in range(110)]
    slow = [record("slow", 0.100 + i * 1e-6, cycle=i) for i in range(110)]
    recs = fast + slow
    kinds = ("fast", "slow")
    p50 = core.end_to_end(recs, kinds, 1.0)["latency_p50_ms"][0]
    want = (statistics.median(r.seconds for r in fast)
            + statistics.median(r.seconds for r in slow)) / 2 * 1e3
    assert p50 == pytest.approx(want)
    # One extra fast sample moves a pooled median from the middle of the
    # gap onto the fast kind; the kind-averaged median barely moves.
    extra = recs + [record("fast", 0.0011, cycle=110)]
    pooled = statistics.median(r.seconds for r in extra) * 1e3
    assert pooled < 2.0
    again = core.end_to_end(extra, kinds, 1.0)["latency_p50_ms"][0]
    assert again == pytest.approx(p50, rel=1e-3)


def test_p90_has_ten_samples_above_it_at_the_minimum_count():
    values = [float(i) for i in range(core.MIN_PER_KIND)]
    assert core.samples_above_p90(values) >= core.MIN_ABOVE_P90
    counts = core.sample_counts(
        [record("k", v) for v in values], ("k",))
    assert counts["k"]["samples"] == core.MIN_PER_KIND
    assert counts["k"]["above_p90"] >= core.MIN_ABOVE_P90


def test_throughput_is_per_whole_cycle_and_counts_only_verified_pixels():
    recs = [record("a", 0.5, cycle=0), record("b", 0.5, cycle=0),
            record("a", 0.5, cycle=1), record("b", 0.5, cycle=1,
                                                  verified=False),
            record("a", 0.5, cycle=2)]            # incomplete cycle: skipped
    # cycle 0: 2 Mpx / 1 s; cycle 1: 1 Mpx / 1 s.
    assert core.cycle_throughput(recs, ("a", "b")) == pytest.approx(1.5)


# -- host phases ----------------------------------------------------------------


def test_timings_come_from_cycles_in_the_fast_host_phase():
    # 150 cycles in the fast phase, 100 in a phase where the probe and the
    # calls both run 1.5x slower: the slow cycles leave the median alone.
    recs = [record("k", 0.050 + i * 1e-6, cycle=i, probe=1e-3)
            for i in range(150)]
    recs += [record("k", 0.075 + i * 1e-6, cycle=150 + i, probe=1.8e-3)
             for i in range(100)]
    e2e = core.end_to_end(recs, ("k",), 1.0)
    assert e2e["latency_p50_ms"][0] == pytest.approx(50.07, abs=0.01)
    assert e2e["latency_p90_ms"][0] < 51
    # Memory and verification still count every request.
    recs[-1].verified = False
    assert core.end_to_end(recs, ("k",), 1.0)["verified_frac"][0] \
        == pytest.approx(249 / 250)


def test_too_few_quiet_cycles_keep_every_cycle_and_mark_the_run():
    recs = [record("k", 0.05, cycle=i, probe=1e-3) for i in range(54)]
    recs += [record("k", 0.075, cycle=54 + i, probe=1.8e-3)
             for i in range(200)]
    assert core.quiet(recs) == (recs, False)
    # Half the target number of quiet cycles is still enough.
    recs.append(record("k", 0.05, cycle=254, probe=1e-3))
    timed, steady = core.quiet(recs)
    assert len(timed) == 55 and steady
    # A slow phase that starts during a cycle shows in the next probe.
    recs[0].probe_after = 1.8e-3
    assert core.quiet(recs) == (recs, False)
    assert core.low_probe([3.0, 1.0, 2.0]) == 1.0


class Stub(workloads.Workload):
    kinds = ("k",)

    def call(self, kind, cycle):
        time.sleep(0.005)
        return cycle

    def check(self, kind, cycle, out):
        return out == cycle

    def pixels(self, kind):
        return 1

    def io_bytes(self, kind):
        return 1, 1


def test_block_work_runs_only_before_a_floor_copy(tmp_path):
    blocks, floors = [], []

    class CountingFloor(core.CopyFloor):
        def measure(self):
            floors.append(len(blocks))
            return super().measure()

    def after_block(cycle):
        blocks.append(cycle)
        time.sleep(0.1)

    wl = Stub(workers=1, workdir=str(tmp_path))
    t0 = time.perf_counter()
    recs = core.run_cycles(wl, CountingFloor(nbytes=1 << 20), HostProbe(),
                           seconds=0.1, min_per_kind=1,
                           after_block=after_block).records
    wall = time.perf_counter() - t0
    every = core.FLOOR_EVERY
    assert blocks == [c for c in range(recs[-1].cycle + 1)
                      if c % every == every - 1]
    # Each block's work is followed by the next block's floor copy.
    assert floors == list(range(len(floors)))
    assert len(floors) - len(blocks) in (0, 1)
    # The block work is not charged to the run's seconds.
    assert wall - 0.1 * len(blocks) >= 0.1


def test_host_probe_times_real_work():
    probe = HostProbe()
    assert 0 < probe() < 1


# -- spans and self time ---------------------------------------------------------


def span(i, start, end, parent=None):
    return tracing.Span(id=i, name=f"s{i}", start=start, end=end,
                        parent=parent, request=0, thread=0)


def test_union_length_merges_overlaps():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert tracing.union_length([]) == 0


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 3.0, 6.0, parent=0),    # overlaps its sibling
        span(3, 2.0, 3.0, parent=1),    # grandchild: not the root's child
        span(4, 8.0, 12.0, parent=0),   # runs past its parent: clipped
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10 - (5 + 2))   # children cover 1-6, 8-10
    assert selfs[1] == pytest.approx(3 - 1)
    assert selfs[2] == pytest.approx(3)
    assert selfs[3] == pytest.approx(1)
    assert selfs[4] == pytest.approx(4)


def test_tracer_wraps_by_name_imports_and_restores_them():
    import repro
    import repro.backend.plan
    import repro.hostexec.engine
    original = repro.compute_sat
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert repro.hostexec.engine.prepare_input is \
            repro.backend.plan.prepare_input
        assert repro.hostexec.engine.prepare_input.__wrapped__ is not None
        tracer.begin_request("k")
        repro.compute_sat(np.ones((64, 64), np.float32), engine="wavefront",
                          workers=1)
        tracer.end_request()
    finally:
        tracer.uninstall()
    assert repro.compute_sat is original
    names = {s.name for s in tracer.spans}
    assert {"request.k", "sat.compute_sat", "backend.plan",
            "backend.execute", "backend.prepare_input",
            "hostexec.wavefront_compute"} <= names
    metrics = tracer.layer_metrics()
    assert metrics["hostexec.wavefront_compute_ms"] > 0
    assert 0 <= metrics["trace.unattributed_frac"] < 1
    assert set(metrics) <= set(tracing.LAYER_UNITS)


# -- planted wrong outputs --------------------------------------------------------

def corrupt_sat(out):
    out.sat[1, 1] += 1
    return out


def corrupt_roi(out):
    return dataclasses.replace(
        out, roi_sums=(out.roi_sums[0] + 1,) + tuple(out.roi_sums[1:]))


def corrupt_box(out):
    out = out.copy()
    out[-1, 3] += 0.5
    return out


def corrupt_digest(out):
    out.digests[1] ^= 1
    return out


def corrupt_ledger(out):
    out.stats["attempts"]["reduce"][0] += 1
    return out


#: One planted wrong output per kind of every workload.
PLANTS = [
    ("oneshot", "parallel", corrupt_sat),
    ("oneshot", "wavefront", corrupt_sat),
    ("video", "cut", corrupt_roi),
    ("video", "repair", corrupt_roi),
    ("video", "box", corrupt_box),
    ("shards", "collect", corrupt_sat),
    ("shards", "digest", corrupt_digest),
    ("shards", "faulted", corrupt_ledger),
    ("simulate", "simulate", corrupt_sat),
]


@pytest.fixture(scope="module")
def floor():
    return core.CopyFloor(nbytes=1 << 20)


def ready_workload(name, tmp_path):
    wl = workloads.make(name, 7, workers=2, workdir=str(tmp_path))
    wl.prepare_checks()
    wl.setup()
    wl.warm()
    return wl


def few_cycles(wl, floor):
    return core.run_cycles(wl, floor, HostProbe(), seconds=0,
                           min_per_kind=2).records


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_honest_outputs_verify(name, tmp_path, floor):
    wl = ready_workload(name, tmp_path)
    try:
        recs = few_cycles(wl, floor)
    finally:
        wl.close()
    assert [r.error for r in recs if r.error] == []
    assert all(r.verified for r in recs)


@pytest.mark.parametrize("name,kind,plant", PLANTS)
def test_planted_wrong_output_counts_as_failed(name, kind, plant, tmp_path,
                                               floor):
    wl = ready_workload(name, tmp_path)
    honest = wl.call

    def planted(k, cycle):
        out = honest(k, cycle)
        return plant(out) if k == kind else out

    wl.call = planted
    try:
        recs = few_cycles(wl, floor)
    finally:
        wl.close()
    failed = [r.kind for r in recs if not r.verified]
    assert failed == [kind] * len({r.cycle for r in recs})
    e2e = core.end_to_end(recs, wl.kinds, 1.0)
    assert e2e["verified_frac"][0] == pytest.approx(1 - 1 / len(wl.kinds))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_raise_counts_as_attempted_and_not_verified(name, tmp_path, floor):
    wl = ready_workload(name, tmp_path)

    def boom(kind, cycle):
        raise RuntimeError("planted")

    wl.call = boom
    try:
        recs = few_cycles(wl, floor)
    finally:
        wl.close()
    assert len(recs) == len({r.cycle for r in recs}) * len(wl.kinds)
    assert not any(r.verified for r in recs)
    assert all("planted" in r.error for r in recs)


# -- compare helper ---------------------------------------------------------------


def write_run(path, workload, metrics, *, low_probe=250.0, steady=True):
    fp = {"workload": workload, "trace": 0,
          "host_probe_us": {"low": low_probe, "median": low_probe}}
    samples = {"steady": steady}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {k: {"value": v, "unit": "ms"}
                          for k, v in metrics.items()}}
    path.write_text(f"fingerprint {json.dumps(fp)}\n"
                    f"samples {json.dumps(samples)}\n{json.dumps(result)}\n")


def test_compare_flags_only_gaps_beyond_the_bound(tmp_path):
    spec = {"end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.1},
        {"name": "throughput_mps", "unit": "Mpx/s", "better": "higher",
         "bound": 0.1}], "per_layer": []}
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    for i in range(5):
        write_run(base / f"{i}.txt", "oneshot",
                  {"latency_p50_ms": 10 + i * 0.01, "throughput_mps": 100.0})
        write_run(new / f"{i}.txt", "oneshot",
                  {"latency_p50_ms": 12 + i * 0.01, "throughput_mps": 95.0})
    b, n, dropped = compare.screen(compare.load_runs(base),
                                   compare.load_runs(new))
    assert dropped == {("oneshot", 0): (0, 0)}
    rows = {r["metric"]: r for r in compare.compare(b, n, spec)}
    assert rows["latency_p50_ms"]["regressed"]           # 20% slower
    assert not rows["throughput_mps"]["regressed"]       # 5% lower
    assert rows["latency_p50_ms"]["base"][1] == pytest.approx(10.02)


def test_compare_sets_aside_unsteady_and_slow_phase_runs(tmp_path):
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    for i in range(4):
        write_run(base / f"{i}.txt", "video", {"latency_p50_ms": 10.0})
        write_run(new / f"{i}.txt", "video", {"latency_p50_ms": 10.0})
    # A run wholly in the slow phase: its probe floor sits 1.8x higher.
    write_run(new / "slow.txt", "video", {"latency_p50_ms": 15.0},
              low_probe=450.0)
    write_run(base / "mixed.txt", "video", {"latency_p50_ms": 13.0},
              steady=False)
    b, n, dropped = compare.screen(compare.load_runs(base),
                                   compare.load_runs(new))
    assert dropped == {("video", 0): (1, 1)}
    assert b[("video", 0)]["latency_p50_ms"] == [10.0] * 4
    assert n[("video", 0)]["latency_p50_ms"] == [10.0] * 4
