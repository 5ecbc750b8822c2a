"""Median, quartiles and spread of every metric across recorded runs.

Usage (from the repository root)::

    python3 perfbench/summarize.py [--since 20261017T020000] [--write-baseline]

Reads ``perfbench/runs/*/summary.json`` (the record each run leaves),
groups the runs by workload and trace mode, and prints per metric the
median, first and third quartile (``statistics.quantiles(n=4)``) and the
spread, i.e. the distance between the quartiles over the median.
It also prints, per workload, the host slowness sampled during the
``alt_ops_per_s`` arm over that during the ``ops_per_s`` arm: if the
program's own state moved the reference kernel, two different arms of
one run would read systematically different slowness.
``--write-baseline`` stores the same table, with the runs' environment,
in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def collect(since: str) -> tuple[dict, dict]:
    groups: dict[tuple[str, int], dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    info: dict[tuple[str, int], dict] = defaultdict(
        lambda: {"runs": 0, "seeds": [], "all_correct": True, "environment": set(),
                 "arm_slowness_ratio": []}
    )
    for summary_path in sorted((HERE / "runs").glob("*/summary.json")):
        if summary_path.parent.name < since:
            continue
        summary = json.loads(summary_path.read_text())
        manifest = json.loads((summary_path.parent / "manifest.json").read_text())
        key = (summary["workload"], summary["trace"])
        for name, metric in summary["metrics"].items():
            groups[key][name].append(metric["value"])
        entry = info[key]
        entry["runs"] += 1
        entry["seeds"].append(summary["seed"])
        entry["all_correct"] &= summary["correct"]
        arms = summary.get("arm_slowness", {})
        if "ops_per_s" in arms and "alt_ops_per_s" in arms:
            entry["arm_slowness_ratio"].append(
                arms["alt_ops_per_s"] / arms["ops_per_s"]
            )
        entry["environment"].add(json.dumps({
            k: manifest.get(k)
            for k in ("git_sha", "python", "numpy", "cores", "machine", "seconds")
        }, sort_keys=True))
    return groups, info


def table(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--since", default="",
                        help="only runs whose directory name sorts at or after this")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)

    groups, info = collect(args.since)
    baseline = []
    for (workload, trace), metrics in sorted(groups.items()):
        entry = info[(workload, trace)]
        print(f"{workload} trace={trace} runs={entry['runs']} "
              f"all_correct={entry['all_correct']}")
        rows = {}
        for name, values in metrics.items():
            rows[name] = table(values)
            row = rows[name]
            print(f"  {name:34s} median {row['median']:12.6g}  "
                  f"q1 {row['q1']:12.6g}  q3 {row['q3']:12.6g}  "
                  f"spread {row['spread']:.3f}")
        ratios = entry["arm_slowness_ratio"]
        if ratios:
            print(f"  host slowness, alt arm over ops arm: median "
                  f"{statistics.median(ratios):.3f}, range {min(ratios):.3f}-"
                  f"{max(ratios):.3f}")
        baseline.append({
            "workload": workload,
            "trace": trace,
            "runs": entry["runs"],
            "seeds": sorted(entry["seeds"]),
            "all_correct": entry["all_correct"],
            "environment": [json.loads(e) for e in sorted(entry["environment"])],
            "metrics": rows,
            "arm_slowness_ratio": table(ratios) if ratios else None,
        })
    if args.write_baseline:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
