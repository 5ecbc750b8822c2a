"""Check that host-speed normalisation keeps the cost of a program change.

Usage (from the repository root)::

    python3 perfbench/calibrate.py --seed 1

Every gated time is a wall-clock time divided by the host's slowness,
which a reference kernel samples inside the program's own process
(``hostspeed.py``).  If a change to the program also moved that kernel,
through the heap, the allocator or the caches it leaves behind, part of
the change's cost would be divided away.

This script adds a known extra cost to every sequential round of the
``supervised-n64`` workload and reads it both ways.  Rounds run in
blocks of ``BLOCK`` rounds, plain (A) and with the extra cost (B), in
the order ABBA so that a steady drift of the host cancels.  For each
kind of extra cost it prints:

* ``wall``: the wall-clock time of B rounds over that of A rounds, which
  is the cost the change really added;
* ``nominal``: the same ratio at nominal host speed, as the benchmark
  reports it;
* ``slowness``: the host slowness sampled in B blocks over that in A
  blocks.

Normalisation keeps the cost when ``nominal`` equals ``wall``, that is
when ``slowness`` is 1.  The script exits 1 if any kind of extra cost
makes them differ by more than ``TOLERANCE``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

import run
from hostspeed import Arm, HostSpeed

BLOCK = 60  # rounds per block, about 3 s: longer than the 1 s window
GROUPS = 4  # ABBA groups per kind of extra cost
#: On the 2-vCPU host this was built on, chance alone moved
#: ``nominal / wall`` by up to 5% per kind (see NOTES.md), so the
#: check catches a kernel shift of 10% or more.
TOLERANCE = 0.10

_DOC = {f"C{i}": [i * 0.37, {"bid": i * 1.1, "load": i * 0.2}, "x" * 8]
        for i in range(64)}


def _encode() -> None:
    """Pure-Python work like the checkpoint's: JSON-encode a round's state."""
    for _ in range(120):
        json.dumps(_DOC)


def _memory() -> None:
    """Memory traffic: fill and read 48 MB twice (page faults, cache misses)."""
    for _ in range(2):
        block = np.ones(6_000_000)
        block.sum()
        del block


_kept: list = []


def _heap() -> None:
    """Allocator churn: 40 000 small dicts, kept until the next round."""
    _kept[:] = [{"i": i, "v": i * 0.5} for i in range(40_000)]


EXTRA_COSTS = {"encode": _encode, "memory": _memory, "heap": _heap}


def calibrate(extra, seed: int) -> dict[str, float]:
    """Run ``GROUPS`` ABBA groups of rounds; return the three ratios."""
    from workloads import WORKLOADS

    workload = WORKLOADS["supervised-n64"]
    size = workload.sizes(15.0, "full")
    supervisor = workload.setup(size, seed, None)["sequential"]

    def plain() -> None:
        supervisor.run_round()

    def dearer() -> None:
        supervisor.run_round()
        extra()

    speed = HostSpeed()
    arms = {"A": Arm(speed), "B": Arm(speed)}
    spans: dict[str, list[tuple[float, float]]] = {"A": [], "B": []}
    with speed:
        for letter in "ABBA" * GROUPS:
            arm, op = arms[letter], plain if letter == "A" else dearer
            first = len(arm)
            for _ in range(BLOCK):
                arm.timed(op)
            spans[letter].append((arm.starts[first],
                                  arm.starts[-1] + arm.durations[-1]))
    _kept.clear()
    times, slowness = np.asarray(speed.times), np.asarray(speed.slowness)

    def block_slowness(letter: str) -> float:
        inside = np.zeros(len(times), dtype=bool)
        for start, end in spans[letter]:
            inside |= (times >= start) & (times <= end)
        return float(slowness[inside].mean())

    wall = arms["B"].seconds().sum() / arms["A"].seconds().sum()
    nominal = (arms["B"].normalised_seconds().sum()
               / arms["A"].normalised_seconds().sum())
    return {"wall": float(wall), "nominal": float(nominal),
            "slowness": block_slowness("B") / block_slowness("A")}


def main(argv: list[str] | None = None) -> int:
    run.import_program()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    failed = []
    for name, extra in EXTRA_COSTS.items():
        ratios = calibrate(extra, args.seed)
        gap = ratios["nominal"] / ratios["wall"] - 1.0
        print(f"{name:8s} wall {ratios['wall']:.4f}  nominal "
              f"{ratios['nominal']:.4f}  slowness {ratios['slowness']:.4f}  "
              f"nominal/wall - 1 {gap:+.4f}")
        if abs(gap) > TOLERANCE:
            failed.append(name)
    if failed:
        print(f"normalisation lost more than {TOLERANCE:.0%} of the added "
              f"cost for: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
