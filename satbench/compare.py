"""Compare two sets of benchmark runs, metric by metric.

    python3 satbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories holding the captured standard output
of ``run.py``, one file per run (any file name).  Runs are grouped by the
workload and trace flag their ``fingerprint`` line names.  For every
workload and metric the table gives each side's first quartile, median and
third quartile, the change of the median, and whether that change is worse
than the bound ``BENCHMARK.json`` fixes for the metric.  Per-layer metrics
have no bound and are listed for explanation only.  The exit code is 1 when
any end-to-end metric regressed beyond its bound.

Runs that cannot be compared are set aside and counted: runs that are not
steady (too few quiet cycles, so both host phases are mixed) and runs whose
fast-phase probe (``host_probe_us.low``) is more than ``QUIET_FACTOR`` above
the lowest of that workload on either side, which ran wholly in the slow
host phase.  Their timings would read as a regression or a gain that the
code did not make.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from core import QUIET_FACTOR, quartiles

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def parse_run(text: str) -> dict | None:
    """The fields of one captured run that compare uses, or None if the
    run failed."""
    lines = text.strip().splitlines()
    tagged = {}
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag in ("fingerprint", "samples"):
            tagged[tag] = json.loads(rest)
    if set(tagged) != {"fingerprint", "samples"}:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    fp = tagged["fingerprint"]
    return {"key": (fp["workload"], fp["trace"]),
            "low_probe": fp["host_probe_us"]["low"],
            "steady": tagged["samples"]["steady"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def load_runs(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """(workload, trace) -> the runs found, as :func:`parse_run` gives."""
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        run = parse_run(path.read_text(errors="replace"))
        if run is not None:
            runs.setdefault(run["key"], []).append(run)
    return runs


def screen(base, new):
    """Set aside the runs that cannot be compared (see the module doc).

    Returns the kept runs of each side as (workload, trace) -> metric ->
    values, and per key the number of runs set aside on each side.
    """
    kept: tuple[dict, dict] = ({}, {})
    dropped = {}
    for key in set(base) | set(new):
        sides = (base.get(key, []), new.get(key, []))
        lowest = min(r["low_probe"] for side in sides for r in side)
        counts = []
        for side, out in zip(sides, kept):
            good = [r for r in side if r["steady"]
                    and r["low_probe"] <= QUIET_FACTOR * lowest]
            counts.append(len(side) - len(good))
            for r in good:
                for name, value in r["metrics"].items():
                    out.setdefault(key, {}).setdefault(name, []).append(value)
        dropped[key] = tuple(counts)
    return kept[0], kept[1], dropped


def compare(base, new, spec: dict) -> list[dict]:
    """One row per (workload, trace, metric) present on both sides."""
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    rows = []
    for key in sorted(set(base) & set(new)):
        for name in sorted(set(base[key]) & set(new[key])):
            meta = e2e.get(name) or layer.get(name) or {}
            b, n = quartiles(base[key][name]), quartiles(new[key][name])
            change = (n[1] - b[1]) / b[1] if b[1] else 0.0
            worse = -change if meta.get("better") == "higher" else change
            bound = meta.get("bound")
            rows.append({
                "workload": key[0], "trace": key[1], "metric": name,
                "unit": meta.get("unit", ""), "base": b, "new": n,
                "runs": (len(base[key][name]), len(new[key][name])),
                "change": change, "bound": bound,
                "regressed": bound is not None and worse > bound,
            })
    return rows


def format_rows(rows: list[dict]) -> str:
    def q(v):
        return f"{v[0]:.4g} / {v[1]:.4g} / {v[2]:.4g}"

    lines = [f"{'workload':9} {'metric':30} {'base q1/med/q3':28} "
             f"{'new q1/med/q3':28} {'change':>8} {'bound':>6}  verdict"]
    for r in rows:
        bound = f"{r['bound']:.0%}" if r["bound"] is not None else "-"
        verdict = "REGRESSED" if r["regressed"] else \
            ("ok" if r["bound"] is not None else "")
        lines.append(
            f"{r['workload']:9} {r['metric']:30} {q(r['base']):28} "
            f"{q(r['new']):28} {r['change']:>+8.1%} {bound:>6}  {verdict}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    args = p.parse_args(argv)
    spec = json.loads(BENCHMARK_JSON.read_text())
    base, new, dropped = screen(load_runs(args.base), load_runs(args.new))
    for (workload, trace), (b, n) in sorted(dropped.items()):
        if b or n:
            print(f"{workload} (trace {trace}): set aside {b} base and {n} "
                  "new runs (not steady, or wholly in the slow host phase)")
    rows = compare(base, new, spec)
    if not rows:
        print("no workload has comparable runs on both sides",
              file=sys.stderr)
        return 2
    print(format_rows(rows))
    return 1 if any(r["regressed"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
