"""Ablation A13 — vectorising the outer loop.

The audits and scans evaluate the closed-form mechanism at thousands of
profiles.  This bench measures the payoff of batching those
evaluations into ``(K, n)`` array operations versus looping the scalar
mechanism — the optimisation pattern the scientific-Python performance
literature prescribes (vectorise the outer loop, not just the inner
math).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import render_table
from repro.mechanism import VerificationMechanism
from repro.mechanism.batch import batch_run

K = 2_000
N = 16


def _profiles():
    rng = np.random.default_rng(0)
    t = rng.uniform(1.0, 10.0, size=N)
    bids = t * rng.uniform(0.5, 2.0, size=(K, N))
    execs = bids * rng.uniform(1.0, 1.5, size=(K, N))
    return bids, execs


def test_batch_path(benchmark):
    bids, execs = _profiles()
    outcome = benchmark(batch_run, bids, 20.0, execs)
    assert outcome.n_profiles == K


def test_scalar_loop_path(benchmark, record_result):
    bids, execs = _profiles()
    mechanism = VerificationMechanism()

    def loop():
        return [
            mechanism.run(bids[k], 20.0, execs[k]).payments.total_payment
            for k in range(K)
        ]

    totals = benchmark.pedantic(loop, rounds=3, iterations=1)
    batch = batch_run(bids, 20.0, execs)
    np.testing.assert_array_equal(totals, batch.payment.sum(axis=1))

    # Record the measured speedup for EXPERIMENTS.md (timed crudely
    # here; the benchmark table holds the precise numbers).
    import time

    start = time.perf_counter()
    loop()
    loop_s = time.perf_counter() - start
    start = time.perf_counter()
    batch_run(bids, 20.0, execs)
    batch_s = time.perf_counter() - start
    speedup = loop_s / batch_s
    assert speedup > 5.0  # the vectorised path must be decisively faster

    record_result(
        "ablation_batch",
        render_table(
            ["path", "seconds for 2000 profiles (n=16)"],
            [
                ["scalar loop", f"{loop_s:.4f}"],
                ["vectorised batch", f"{batch_s:.4f}"],
                ["speedup", f"{speedup:.0f}x"],
            ],
            title="A13. Vectorising the profile loop.",
        ),
    )
