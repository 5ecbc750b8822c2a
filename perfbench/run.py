"""The repository benchmark: one workload per run, seeded, checked, timed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload supervised-n64 --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same work twice, each pass sized for half the
budget, untraced and then with every layer entry point wrapped
(``layers.py``), and reports the per-layer metrics plus the tracing
overhead.  Either way every correctness check runs; any failed check or
raised operation makes the run exit 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
leaves a record under ``perfbench/runs/<run>/``: ``manifest.json``
(environment, seed, sizes), ``metrics.jsonl`` (raw samples),
``summary.json`` (median and quartiles per metric) and, when traced,
``spans.tsv``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

#: The gated end-to-end metrics (times normalised to nominal host speed).
#: ``op_ms_p95`` is measured and printed but not gated: over ten seeds
#: it spread by up to 40% on this host, where I/O stalls and bursts the
#: host-speed samples miss land in the tail (NOTES.md).
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "alt_ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_program() -> float:
    """Import the program from this checkout's ``src``; return the seconds."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src}/repro")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import repro  # noqa: F401
    import repro.distributed.service  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.parallel  # noqa: F401
    import repro.remediation  # noqa: F401
    import repro.resilience  # noqa: F401
    seconds = time.perf_counter() - start
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")
    return seconds


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        value = values[0]
        return {"median": value, "q1": value, "q3": value, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _passes(workload, size: dict, seed: int, scratch: Path, traced: bool,
            speed) -> tuple:
    """Set up repeatedly, run the untraced pass and, if asked, the traced one.

    Only the set-ups a pass will use are kept, and each is dropped once
    its pass has run, so the peak RSS counts no idle state.
    """
    import layers
    from spans import Tracer

    keep = 2 if traced else 1
    states, setup_seconds = [], []
    for repeat in range(SETUP_REPEATS):
        stolen, start = speed.stolen, time.perf_counter()
        state = workload.setup(size, seed, scratch)
        setup_seconds.append(time.perf_counter() - start - (speed.stolen - stolen))
        if repeat >= SETUP_REPEATS - keep:
            states.append(state)
        del state
        gc.collect()
    spans = {"setup": setup_seconds}
    start = time.perf_counter()
    plain = workload.run(states.pop(), size, None, speed)
    spans["plain"] = (start, time.perf_counter())
    gc.collect()
    if not traced:
        return plain, plain, None, spans
    tracer = Tracer()
    points = layers.wrap_points()
    start = time.perf_counter()
    with tracer.installed(points):
        result = workload.run(states.pop(), size, tracer, speed)
    spans["traced"] = (start, time.perf_counter())
    return result, plain, tracer, spans


def measure(workload_name: str, seed: int, seconds: float, traced: bool,
            mode: str, run_dir: Path, import_s: float = 0.0) -> dict:
    """Run one workload; return the result line plus the run record parts."""
    import layers
    from hostspeed import HostSpeed
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    size = workload.sizes(seconds, mode)
    scratch = run_dir / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    speed = HostSpeed()
    with speed:
        result, plain, tracer, spans = _passes(workload, size, seed, scratch,
                                               traced, speed)
    setup_seconds = spans.pop("setup")
    values: dict[str, float] = {}
    units: dict[str, str] = {}
    if traced:
        traced_wall = spans["traced"][1] - spans["traced"][0]
        values = layers.layer_values(tracer, result.rounds)
        residual_ns = int(traced_wall * 1e9) - tracer.top_level_ns()
        values["trace.wall_s"] = traced_wall
        values["trace.residual_s"] = residual_ns * 1e-9
        # Both passes do the same work; compare them at nominal host speed.
        plain_s, traced_s = (
            (spans[k][1] - spans[k][0]) / speed.mean_slowness(*spans[k])
            for k in ("plain", "traced")
        )
        values["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
        units = {metric.name: metric.unit for metric in layers.LAYER_METRICS}
        result.attempted += plain.attempted
        result.failed += plain.failed
        result.failures.extend(plain.failures)
        result.checks.update(plain.checks)
    else:
        values = dict(result.metrics)
        values["peak_rss_mb"] = peak_rss_mb()
        units = dict(END_TO_END_UNITS)
    # Set-up is too short to sample well; normalise it by the run's mean.
    slowness = speed.mean_slowness(speed.times[0], speed.times[-1])
    setup_samples = [(import_s + s) / slowness for s in setup_seconds]
    if not traced:
        values["setup_s"] = statistics.median(setup_samples)

    line = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
            if name in values
        },
    }
    samples = dict(result.samples)
    samples["setup_s"] = setup_samples
    samples["host_slowness"] = list(speed.slowness)
    wall = dict(plain.raw)
    wall["setup_s"] = import_s + statistics.median(setup_seconds)
    return {
        "line": line,
        "size": size,
        "samples": samples,
        "counts": result.counts,
        "checks": dict(result.checks),
        "failures": result.failures,
        "aliases": result.aliases,
        "arm_slowness": plain.arm_slowness,
        "ungated": {} if traced else {
            k: v for k, v in values.items() if k not in units
        },
        "wall": wall,
        "tracer": tracer,
        "layers": layers.layer_self_times(tracer) if tracer else {},
    }


def write_record(run_dir: Path, manifest: dict, outcome: dict) -> None:
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    with open(run_dir / "metrics.jsonl", "w", encoding="utf-8") as handle:
        for metric, values in outcome["samples"].items():
            for index, value in enumerate(values):
                handle.write(json.dumps(
                    {"metric": metric, "sample": index, "value": value}
                ) + "\n")
    summary = {
        "workload": manifest["workload"],
        "seed": manifest["seed"],
        "trace": manifest["trace"],
        "correct": outcome["line"]["correct"],
        "attempted": outcome["line"]["attempted"],
        "failed": outcome["line"]["failed"],
        "checks": outcome["checks"],
        "failures": outcome["failures"],
        "metrics": outcome["line"]["metrics"],
        "samples": {
            metric: quartiles(values)
            for metric, values in outcome["samples"].items()
            if values
        },
        "wall_clock": outcome["wall"],
        "arm_slowness": outcome["arm_slowness"],
        "layer_self_s": outcome["layers"],
    }
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    if outcome["tracer"] is not None:
        outcome["tracer"].write_spans(run_dir / "spans.tsv")


def report(outcome: dict) -> None:
    """Human-readable lines before the result line."""
    line = outcome["line"]
    for name, metric in line["metrics"].items():
        count = outcome["counts"].get(name)
        alias = outcome["aliases"].get(name)
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']:6s}"
              + (f" n={count}" if count is not None else "")
              + (f"  [{alias}]" if alias else ""))
    for name, value in outcome["ungated"].items():
        alias = outcome["aliases"].get(name)
        unit = "1/s" if name.endswith("_per_s") else "ms"
        print(f"  {name:34s} {value:14.6g} {unit:6s} n={outcome['counts'][name]}"
              f"  [{alias}; not gated]")
    slowness = outcome["samples"]["host_slowness"]
    print(f"  host slowness (kernel time / nominal) median "
          f"{statistics.median(slowness):.3f}, range {min(slowness):.3f}-"
          f"{max(slowness):.3f}, n={len(slowness)}; wall-clock figures: "
          + ", ".join(f"{k} {v:.6g}" for k, v in outcome["wall"].items()))
    print("  mean host slowness per arm: " + ", ".join(
        f"{k} {v:.3f}" for k, v in outcome["arm_slowness"].items()
    ))
    attempted, failed = line["attempted"], line["failed"]
    print(f"  {'failed_frac':34s} {failed / attempted:14.6g} ratio "
          f" n={attempted}")
    print("  checks: " + ", ".join(
        f"{name} x{count}" for name, count in sorted(outcome["checks"].items())
    ))
    if outcome["layers"]:
        wall = line["metrics"]["trace.wall_s"]["value"]
        residual = line["metrics"]["trace.residual_s"]["value"]
        print("  self time by layer (s, share of traced wall-clock):")
        for layer, own in sorted(outcome["layers"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:26s} {own:10.4f} {100 * own / wall:6.1f}%")
        print(f"    {'(outside every layer)':26s} {residual:10.4f} "
              f"{100 * residual / wall:6.1f}%")
    for failure in outcome["failures"][:10]:
        print(f"  FAIL {failure}")


def main(argv: list[str] | None = None) -> int:
    # Timed first, before this benchmark's own modules import NumPy.
    import_s = import_program()
    import numpy
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    run_dir = HERE / "runs" / (
        f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    )
    run_dir.mkdir(parents=True)
    import repro

    manifest = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv,
        "started": stamp,
        "git_sha": git_sha(),
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }
    try:
        outcome = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace), "traced" if args.trace else "full",
                          run_dir, import_s)
    finally:
        shutil.rmtree(run_dir / "scratch", ignore_errors=True)
    manifest["size"] = outcome["size"]
    write_record(run_dir, manifest, outcome)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds:g} record {run_dir.relative_to(ROOT)}")
    report(outcome)
    print(json.dumps(outcome["line"]))
    return 0 if outcome["line"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
