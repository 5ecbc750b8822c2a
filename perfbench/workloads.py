"""The benchmark's four workloads: inputs from a seed, timed work, checks.

Every workload runs the program through its public API in this process
and reports the same end-to-end metrics, each read on that workload's
own paths:

=====================  =====================  ======================  ==================
workload               ``ops_per_s``          ``alt_ops_per_s``       ``op_ms_*``
=====================  =====================  ======================  ==================
supervised-n64         sequential rounds/s    fused rounds/s          sequential round
supervised-chaos-n64   sequential rounds/s,   same plan, remediation  sequential round
                       remediation on         off
supervised-n10k        sharded rounds/s       fused rounds/s          sharded round
campaign-mixed         cold units/s, no       warm units/s            reproduce_all call
                       cache
=====================  =====================  ======================  ==================

A workload is sized from the run's time budget (``seconds``): the op
counts are fixed numbers derived from it, calibrated so the seed commit
spends about that long measuring, so every commit does the same work
for the same seed and budget.

A throughput is the median over chunks of an arm (ten rounds, a plan
block, a horizon call, a campaign pass) of work per second; latencies
are percentiles of its op times.  Every op time is normalised to the
nominal host speed (``hostspeed.py``); the raw wall-clock figures are
printed and recorded beside them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from hostspeed import Arm, HostSpeed

#: Relative tolerance of the closed-form checks (R²/Σ1/t, Σ loads = R).
RTOL = 1e-9

# ------------------------------------------------------------------ results


@dataclass
class Pass:
    """What one pass of a workload measured and checked."""

    speed: HostSpeed
    samples: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)  # sample count per metric
    metrics: dict[str, float] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)  # wall-clock twins
    attempted: int = 0
    failed: int = 0
    checks: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)
    rounds: list = field(default_factory=list)
    aliases: dict[str, str] = field(default_factory=dict)
    #: Mean host slowness over each throughput's arm (see hostspeed.py).
    arm_slowness: dict[str, float] = field(default_factory=dict)

    def arm(self) -> Arm:
        return Arm(self.speed)

    def op(self, problems: list[str], check: str) -> None:
        """Count one operation and the outcome of the check it passed through."""
        self.attempted += 1
        self.checks[check] += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.extend(problems[:3])

    def crashed(self, what: str, error: BaseException) -> None:
        """An operation raised: it counts as attempted and failed."""
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"{what} raised {type(error).__name__}: {error}\n"
                             + traceback.format_exc())

    def throughput(self, name: str, arm: Arm, work_per_op: int = 1,
                   per_chunk: int = 1) -> None:
        """Median over chunks of ``per_chunk`` ops of work per second, at
        nominal host speed (a burst the host-speed samples missed moves
        a few chunks, not the median)."""
        if not len(arm):
            return
        rates = _chunk_rates(arm.normalised_seconds(), per_chunk, work_per_op)
        self.samples[name] = rates
        self.counts[name] = len(rates)
        self.metrics[name] = float(np.median(rates))
        self.raw[name] = float(np.median(
            _chunk_rates(arm.seconds(), per_chunk, work_per_op)
        ))
        self.arm_slowness[name] = arm.mean_slowness()

    def latency(self, arm: Arm) -> None:
        """Percentiles of the op times, at nominal host speed."""
        if not len(arm):
            return
        op_ms = arm.normalised_seconds() * 1e3
        raw_ms = arm.seconds() * 1e3
        self.samples["op_ms"] = op_ms.tolist()
        self.samples["op_ms_wall"] = raw_ms.tolist()
        for name, q in (("op_ms_p50", 50), ("op_ms_p95", 95)):
            self.counts[name] = len(op_ms)
            self.metrics[name] = float(np.percentile(op_ms, q))
            self.raw[name] = float(np.percentile(raw_ms, q))


def _chunk_rates(seconds: np.ndarray, per_chunk: int, work_per_op: int) -> list[float]:
    """Work per second of each run of ``per_chunk`` consecutive ops."""
    per_chunk = min(per_chunk, len(seconds))
    whole = len(seconds) // per_chunk * per_chunk
    chunks = np.asarray(seconds[:whole]).reshape(-1, per_chunk).sum(axis=1)
    return (per_chunk * work_per_op / chunks).tolist()


# ------------------------------------------------------------------- inputs


def table1_values() -> np.ndarray:
    from repro.system.cluster import paper_cluster

    return np.asarray(paper_cluster().true_values, dtype=float)


def tiled_fleet(n: int, seed: int) -> np.ndarray:
    """Table 1 tiled to ``n`` machines, in a seed-chosen order."""
    base = table1_values()
    values = np.tile(base, -(-n // base.size))[:n]
    return np.random.default_rng([seed, n]).permutation(values)


def anchor_latency(values: np.ndarray, rate: float) -> float:
    """The paper's optimum L* = R²/Σ1/t for truthful machines."""
    return rate * rate / float(np.sum(1.0 / values))


def truthful_agents(values: np.ndarray) -> list:
    from repro.agents import TruthfulAgent

    return [TruthfulAgent(float(t)) for t in values]


_KINDS = ("crash", "withhold_bid", "withhold_report", "slow_execution")
_COORDINATOR_CRASHES = ("during_bidding", "after_allocation", "mid_payment")
PLAN_BLOCK = 20  # rounds per stratum of the chaos plan
P_MACHINE = 0.01  # fault probability per machine and round
P_CRASH = 0.05  # share of rounds with a coordinator crash
P_LOSSY = 0.1  # share of rounds with a lossy network
FAULT_ROUNDS = 8  # rounds per block that carry the machine faults


def chaos_plan(names: list[str], rounds: int, seed: int):
    """A sparse seeded fault plan, stratified in blocks of 20 rounds.

    Every block holds exactly round(P_MACHINE × slots) machine faults
    (kinds in rotation) spread over ``FAULT_ROUNDS`` rounds, plus
    round(P_CRASH × 20) coordinator-crash rounds and round(P_LOSSY × 20)
    lossy rounds, all in distinct rounds, so each block has the same
    number of clean rounds.  The seed picks which rounds and machines,
    crash points, drop rates, slowdowns and withhold counts.

    Independent draws per round (``FaultPlan.generate``) vary the
    amount of remediation work, and the share of rounds the horizon
    engine can fuse, between seeds by more than the benchmark's bounds;
    stratifying keeps the rates and removes most of that variance.
    """
    from repro.resilience import FaultPlan, MachineFault, RoundFaults

    rng = np.random.default_rng([seed, 0xC4A05])
    n = len(names)
    out = []
    kind_cursor = 0
    for block_start in range(0, rounds, PLAN_BLOCK):
        size = min(PLAN_BLOCK, rounds - block_start)
        n_crash = int(round(P_CRASH * size))
        n_lossy = int(round(P_LOSSY * size))
        n_faulty = min(FAULT_ROUNDS, size - n_crash - n_lossy)
        n_faults = max(n_faulty, int(round(P_MACHINE * n * size)))
        order = [int(i) for i in rng.permutation(size)]
        crashes = set(order[:n_crash])
        lossy = set(order[n_crash:n_crash + n_lossy])
        faulty = order[n_crash + n_lossy:n_crash + n_lossy + n_faulty]
        faults: dict[int, dict] = {index: {} for index in faulty}
        # One fault per faulty round, the rest on distinct (round, machine)
        # slots among those rounds.
        slots = [(index, int(rng.integers(n))) for index in faulty]
        taken = set(slots)
        while len(slots) < n_faults:
            slot = (faulty[int(rng.integers(n_faulty))], int(rng.integers(n)))
            if slot not in taken:
                taken.add(slot)
                slots.append(slot)
        for index, machine in slots:
            kind = _KINDS[kind_cursor % len(_KINDS)]
            kind_cursor += 1
            if kind == "crash":
                fault = MachineFault(
                    kind, point=("immediately", "after_bid")[int(rng.integers(2))]
                )
            elif kind == "slow_execution":
                fault = MachineFault(kind, slowdown=float(rng.uniform(2.0, 4.0)))
            else:
                fault = MachineFault(kind, count=int(rng.integers(1, 3)))
            faults[index][names[machine]] = fault
        for index in range(size):
            crash = (
                _COORDINATOR_CRASHES[int(rng.integers(3))]
                if index in crashes else None
            )
            out.append(RoundFaults(
                drop_probability=(
                    float(rng.uniform(0.05, 0.3)) if index in lossy else 0.0
                ),
                machine_faults=faults.get(index, {}),
                coordinator_crash=crash,
                crash_after_payments=(
                    int(rng.integers(1, n)) if crash == "mid_payment" else 1
                ),
            ))
    return FaultPlan(out)


# ------------------------------------------------------------------- checks


def check_clean_round(result, rate: float, anchor: float) -> list[str]:
    """A truthful fault-free round: L* anchor, feasibility, Theorem 3.2."""
    where = f"round {result.index}"
    if result.voided or result.outcome is None:
        return [f"{where}: voided in a fault-free run"]
    problems = []
    realised = float(result.outcome.realised_latency)
    if not math.isclose(realised, anchor, rel_tol=RTOL):
        problems.append(f"{where}: realised latency {realised!r} != L* {anchor!r}")
    total = sum(result.loads.values())
    if not math.isclose(total, rate, rel_tol=RTOL):
        problems.append(f"{where}: loads sum to {total!r}, not R={rate!r}")
    worst = min(result.utilities.values())
    if worst < -RTOL * max(1.0, anchor):
        problems.append(f"{where}: truthful utility {worst!r} < 0")
    return problems


def _round_fields(result) -> list[tuple[str, str]]:
    """Every field of a RoundResult, floats and arrays bit for bit."""
    out = [
        (f.name, repr(getattr(result, f.name)))
        for f in dataclasses.fields(result)
        if f.name != "outcome"
    ]
    outcome = result.outcome
    if outcome is None:
        return out + [("outcome", "None")]
    arrays = {
        "loads": outcome.allocation.loads,
        "bids": outcome.allocation.bids,
        "execution_values": outcome.execution_values,
        "compensation": outcome.payments.compensation,
        "bonus": outcome.payments.bonus,
        "valuation": outcome.payments.valuation,
    }
    for name, array in arrays.items():
        array = np.asarray(array)
        out.append((f"outcome.{name}", f"{array.shape}{array.tobytes().hex()}"))
    out.append(("outcome.total_latency", repr(float(outcome.allocation.total_latency))))
    return out


def parity_problems(sequential, fused) -> list[str]:
    """Field-exact mismatches between two rounds ([] = identical)."""
    left, right = _round_fields(sequential), _round_fields(fused)
    return [
        f"round {sequential.index}: fused {name} differs from sequential"
        for (name, a), (_, b) in zip(left, right)
        if a != b
    ]


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


# ----------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: Callable[[float, str], dict]
    setup: Callable[[dict, int, Path], object]
    run: Callable[[object, dict, object, HostSpeed], Pass]


def _timed_rounds(supervisor, count: int, faults_for, done: Pass, check,
                  check_name: str, tracer=None, op_base: int = 0) -> Arm:
    """Run ``count`` sequential rounds, timing each; check every result."""
    arm = done.arm()
    for k in range(count):
        faults = faults_for(k)
        if tracer is not None:
            tracer.op = op_base + k
        try:
            result = arm.timed(lambda: supervisor.run_round(faults))
        except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
            done.crashed(f"round {k}", error)
            break
        done.rounds.append(result)
        done.op(check(result), check_name)
    return arm


def _fused_chunks(supervisor, total: int, per_chunk: int, done: Pass,
                  tracer=None) -> tuple[list, Arm]:
    """Run ``total`` rounds as horizon calls of ``per_chunk`` rounds each."""
    rounds: list = []
    arm = done.arm()
    for chunk in range(total // per_chunk):
        if tracer is not None:
            tracer.op = 1_000_000 + chunk
        try:
            report = arm.timed(lambda: supervisor.run(per_chunk))
        except Exception as error:  # noqa: BLE001
            done.crashed(f"fused chunk {chunk}", error)
            break
        rounds.extend(report.rounds)
    return rounds, arm


def _supervisor(agents, size: dict, seed: int, **kwargs):
    from repro.resilience import RoundSupervisor

    return RoundSupervisor(
        agents, size["rate"], duration=size["window"],
        rng=np.random.default_rng(seed), **kwargs,
    )


def _share(seconds: float, mode: str) -> float:
    """Measuring seconds per pass: a traced run makes two passes."""
    return seconds if mode == "full" else seconds / 2


# ---- supervised-n64 --------------------------------------------------------


def _n64_sizes(seconds: float, mode: str) -> dict:
    if mode == "smoke":
        return dict(n=16, rate=20.0, window=40.0, seq_rounds=4,
                    fused_rounds=8, fused_chunk=4)
    seq = int(0.95 * _share(seconds, mode) * 20)
    if mode == "full":
        seq = max(seq, 200)  # >= 10 rounds beyond p95
    return dict(n=64, rate=80.0, window=40.0, seq_rounds=seq,
                fused_rounds=200 * max(5, int(0.5 * _share(seconds, mode))),
                fused_chunk=200)


def _n64_setup(size: dict, seed: int, _scratch: Path):
    values = tiled_fleet(size["n"], seed)
    return dict(
        values=values,
        sequential=_supervisor(truthful_agents(values), size, seed),
        fused=_supervisor(truthful_agents(values), size, seed, horizon=True),
    )


def _n64_run(state, size: dict, tracer, speed: HostSpeed) -> Pass:
    done = Pass(speed, aliases={
        "ops_per_s": "rounds_per_s", "alt_ops_per_s": "fused_rounds_per_s",
        "op_ms_p50": "round_ms_p50", "op_ms_p95": "round_ms_p95",
    })
    rate, anchor = size["rate"], anchor_latency(state["values"], size["rate"])
    sequential_arm = _timed_rounds(
        state["sequential"], size["seq_rounds"], lambda _k: None, done,
        lambda r: check_clean_round(r, rate, anchor), "anchor+feasible+vp",
        tracer,
    )
    sequential = list(done.rounds)
    fused, fused_arm = _fused_chunks(
        state["fused"], size["fused_rounds"], size["fused_chunk"], done, tracer
    )
    done.rounds.extend(fused)
    for k, result in enumerate(fused):
        problems = check_clean_round(result, rate, anchor)
        if k < len(sequential):
            done.checks["fused==sequential"] += 1
            problems += parity_problems(sequential[k], result)
        done.op(problems, "anchor+feasible+vp")
    done.throughput("ops_per_s", sequential_arm, per_chunk=10)
    done.latency(sequential_arm)
    done.throughput("alt_ops_per_s", fused_arm, size["fused_chunk"])
    return done


# ---- supervised-chaos-n64 ---------------------------------------------------


def _chaos_sizes(seconds: float, mode: str) -> dict:
    if mode == "smoke":
        return dict(n=16, rate=20.0, window=40.0, rounds=20, alt_rounds=20)
    rounds = int(20 * _share(seconds, mode))
    if mode == "full":
        rounds = max(rounds, 200)  # >= 10 rounds beyond p95
    rounds = -(-rounds // PLAN_BLOCK) * PLAN_BLOCK
    alt = PLAN_BLOCK * max(5, int(5 * _share(seconds, mode)) // PLAN_BLOCK)
    return dict(n=64, rate=80.0, window=40.0, rounds=rounds,
                alt_rounds=min(alt, rounds))


def _chaos_setup(size: dict, seed: int, _scratch: Path):
    from repro.remediation import RemediationPipeline

    values = tiled_fleet(size["n"], seed)
    remediated = _supervisor(
        truthful_agents(values), size, seed, remediation=RemediationPipeline()
    )
    return dict(
        values=values,
        remediated=remediated,
        supervised=_supervisor(truthful_agents(values), size, seed),
        plan=chaos_plan(remediated.machine_names, size["rounds"], seed),
        honest=remediated.honest_names(),
    )


def _chaos_run(state, size: dict, tracer, speed: HostSpeed) -> Pass:
    from repro.resilience import check_round_invariants

    done = Pass(speed, aliases={
        "ops_per_s": "rounds_per_s", "op_ms_p50": "round_ms_p50",
        "op_ms_p95": "round_ms_p95",
        "alt_ops_per_s": "rounds_per_s with remediation off",
    })
    honest, plan = state["honest"], state["plan"]

    def invariants(result) -> list[str]:
        return [str(v) for v in check_round_invariants(result, honest_names=honest)]

    remediated = _timed_rounds(
        state["remediated"], size["rounds"], lambda k: plan[k], done,
        invariants, "check_round_invariants", tracer,
    )
    supervised = _timed_rounds(
        state["supervised"], size["alt_rounds"], lambda k: plan[k], done,
        invariants, "check_round_invariants", tracer, op_base=1_000_000,
    )
    # Remediation makes some plan blocks several times dearer than others,
    # so the median over blocks moves between seeds more than the total
    # rate does: the remediated arm is one chunk.
    done.throughput("ops_per_s", remediated, per_chunk=len(remediated))
    done.latency(remediated)
    # One chunk per plan block: every block holds the same fault mix.
    done.throughput("alt_ops_per_s", supervised, per_chunk=PLAN_BLOCK)
    return done


# ---- supervised-n10k --------------------------------------------------------


def _n10k_sizes(seconds: float, mode: str) -> dict:
    if mode == "smoke":
        return dict(n=64, rate=64.0, window=10.0, sharded_rounds=2,
                    fused_rounds=2, fused_chunk=1, shards=4)
    least = 4 if mode == "full" else 2
    return dict(n=10_000, rate=64.0, window=10.0,
                sharded_rounds=max(least, int(0.3 * _share(seconds, mode))),
                fused_rounds=2 * max(least // 2, int(0.1 * _share(seconds, mode))),
                fused_chunk=2, shards=4)


def _n10k_setup(size: dict, seed: int, _scratch: Path):
    values = tiled_fleet(size["n"], seed)
    return dict(
        values=values,
        sharded=_supervisor(
            truthful_agents(values), size, seed,
            shards=size["shards"], shard_executor="serial",
        ),
        fused=_supervisor(truthful_agents(values), size, seed, horizon=True),
    )


def _n10k_run(state, size: dict, tracer, speed: HostSpeed) -> Pass:
    done = Pass(speed, aliases={
        "ops_per_s": "sharded_rounds_per_s",
        "alt_ops_per_s": "fused_rounds_per_s",
        "op_ms_p50": "sharded round ms p50",
        "op_ms_p95": "sharded round ms p95",
    })
    rate, anchor = size["rate"], anchor_latency(state["values"], size["rate"])
    check = lambda r: check_clean_round(r, rate, anchor)  # noqa: E731
    # One untimed round per arm first: it builds the allocator's state
    # (about 60% of a later round), which a long-lived supervisor pays once.
    for warm_up in (state["sharded"].run_round(), *state["fused"].run(1).rounds):
        done.op(check(warm_up), "anchor+feasible+vp")
    sharded = _timed_rounds(
        state["sharded"], size["sharded_rounds"], lambda _k: None, done,
        check, "anchor+feasible+vp", tracer,
    )
    fused, fused_arm = _fused_chunks(
        state["fused"], size["fused_rounds"], size["fused_chunk"], done, tracer
    )
    done.rounds.extend(fused)
    for result in fused:
        done.op(check(result), "anchor+feasible+vp")
    done.throughput("ops_per_s", sharded)
    done.latency(sharded)
    done.throughput("alt_ops_per_s", fused_arm, size["fused_chunk"])
    return done


# ---- campaign-mixed ---------------------------------------------------------


def _campaign_sizes(seconds: float, mode: str) -> dict:
    if mode == "smoke":
        return dict(passes=2, reproductions=2, grid=2, replications=1)
    reproductions = int(0.75 * _share(seconds, mode) / 0.07)
    if mode == "full":
        reproductions = max(reproductions, 200)  # >= 10 calls beyond p95
    return dict(passes=max(10, int(0.15 * _share(seconds, mode) / 0.12)),
                reproductions=reproductions, grid=16, replications=2)


def campaign_units(size: dict, seed: int) -> list:
    """Tournament, a 4-rule closed-form grid, dynamics, drift, figures."""
    from repro.experiments import table1_configuration
    from repro.experiments.tournament import tournament_units
    from repro.parallel import ExperimentUnit, figures_campaign_units

    rng = np.random.default_rng([seed, 0xCA4])
    config = table1_configuration()
    values = tuple(config.cluster.true_values.tolist())
    rate = config.arrival_rate

    def scenario(variant: str, bid: float, execution: float, **extra):
        return ExperimentUnit(
            kind="scenario", scenario=variant, bid_factor=bid,
            execution_factor=execution, true_values=values,
            arrival_rate=rate, variant=variant, **extra,
        )

    units = list(tournament_units(config))
    for variant in ("observed", "declared", "vcg", "archer-tardos"):
        for bid in rng.uniform(0.5, 2.0, size=size["grid"]):
            for execution in (1.0, 1.5, 2.0):
                units.append(scenario(variant, float(bid), execution,
                                      manipulator=int(rng.integers(len(values)))))
    for bid in rng.uniform(0.6, 1.8, size=2):
        units.append(scenario("dynamics", float(bid), 1.0))
    for drift_seed in rng.integers(0, 2**31, size=4):
        units.append(scenario("drift", 1.0, 1.0, seed=int(drift_seed)))
    replication_seeds = tuple(
        int(s) for s in rng.integers(0, 2**31, size=size["replications"])
    )
    units += figures_campaign_units(config, seeds=replication_seeds)
    return units


def _campaign_setup(size: dict, seed: int, scratch: Path):
    from repro.experiments import table1_configuration

    config = table1_configuration()
    return dict(
        units=campaign_units(size, seed),
        scratch=scratch,
        anchor=anchor_latency(
            np.asarray(config.cluster.true_values), config.arrival_rate
        ),
    )


def _campaign_run(state, size: dict, tracer, speed: HostSpeed) -> Pass:
    import repro.experiments.runner as runner
    from repro.parallel import CampaignEngine, ResultCache

    done = Pass(speed, aliases={
        "ops_per_s": "campaign_cold_units_per_s (no cache)",
        "alt_ops_per_s": "campaign_warm_units_per_s",
        "op_ms_p50": "reproduce_s x 1000",
        "op_ms_p95": "reproduce ms p95",
        "write_units_per_s": "cold units/s into a fresh on-disk cache",
    })
    units, anchor = state["units"], state["anchor"]
    truthful = {
        index for index, unit in enumerate(units)
        if unit.kind == "scenario" and unit.scenario == "True1"
    }

    def anchor_problems(payloads, index: int) -> list[str]:
        realised = payloads[index]["realised_latency"]
        if math.isclose(realised, anchor, rel_tol=RTOL):
            return []
        return [f"unit {index}: True1 latency {realised!r} != {anchor!r}"]

    cold_arm, write_arm = done.arm(), done.arm()
    warm_arm, reproduce_arm = done.arm(), done.arm()
    with tempfile.TemporaryDirectory(dir=state["scratch"]) as scratch:
        # One pass into a fresh on-disk cache, then cold passes without a
        # cache and warm passes from it.  Creating files costs 0.5 ms each
        # on the host this was built on and varies threefold over tens of
        # seconds, so the write pass is timed but not gated (NOTES.md).
        try:
            engine = CampaignEngine(cache=ResultCache(Path(scratch) / "cache"))
            written = write_arm.timed(lambda: engine.run(units))
        except Exception as error:  # noqa: BLE001
            done.crashed("campaign write pass", error)
            return done
        for index in truthful:
            done.op(anchor_problems(written.payloads, index), "True1 anchor")
        reference = [_canonical(p) for p in written.payloads]
        uncached = CampaignEngine()
        for k in range(size["passes"]):
            if tracer is not None:
                tracer.op = k
            try:
                cold = cold_arm.timed(lambda: uncached.run(units))
                warm = warm_arm.timed(lambda: engine.run(units))
            except Exception as error:  # noqa: BLE001
                done.crashed(f"campaign pass {k}", error)
                break
            # Every cold unit is recomputed and must match the first pass;
            # every warm unit must come from the cache and match too.
            cold_text = [_canonical(p) for p in cold.payloads]
            for index, text in enumerate(cold_text):
                problems = [] if text == reference[index] else [
                    f"pass {k}: cold payload {index} differs from the first pass"
                ]
                if index in truthful:
                    problems += anchor_problems(cold.payloads, index)
                done.op(problems, "cold==first pass")
            all_hits = warm.stats.cache_hits == len(units)
            for index, payload in enumerate(warm.payloads):
                problems = [] if all_hits else [f"pass {k}: warm pass missed the cache"]
                if _canonical(payload) != cold_text[index]:
                    problems.append(f"pass {k}: warm payload {index} differs from cold")
                done.op(problems, "warm==cold at 100% hits")
        for k in range(size["reproductions"]):
            if tracer is not None:
                tracer.op = 10_000 + k
            bundle_dir = Path(scratch) / f"bundle{k % 2}"
            try:
                bundle = reproduce_arm.timed(lambda: runner.reproduce_all(bundle_dir))
            except Exception as error:  # noqa: BLE001
                done.crashed(f"reproduce_all {k}", error)
                break
            done.op(
                [] if bundle.all_claims_pass else [f"reproduce {k}: a claim failed"],
                "reproduce_all.all_claims_pass",
            )
    done.throughput("ops_per_s", cold_arm, len(units))
    done.throughput("alt_ops_per_s", warm_arm, len(units))
    done.throughput("write_units_per_s", write_arm, len(units))
    done.latency(reproduce_arm)
    return done


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "supervised-n64",
            "the paper's protocol at n=64, R=80: sequential rounds pay "
            "checkpoint JSON, the fused horizon arm skips it",
            _n64_sizes, _n64_setup, _n64_run,
        ),
        Workload(
            "supervised-chaos-n64",
            "the same fleet under a sparse fault plan with remediation: "
            "checkpoint loads, retries, drops, quarantine churn, shadow runs",
            _chaos_sizes, _chaos_setup, _chaos_run,
        ),
        Workload(
            "supervised-n10k",
            "n=10^4: the incremental allocator and the shard stages dominate",
            _n10k_sizes, _n10k_setup, _n10k_run,
        ),
        Workload(
            "campaign-mixed",
            "cache keys, cache writes and reads, cohort fusion and the "
            "per-unit fallback; no supervisor code",
            _campaign_sizes, _campaign_setup, _campaign_run,
        ),
    )
}

#: Every correctness check a workload must run at least once.
REQUIRED_CHECKS = {
    "supervised-n64": ("anchor+feasible+vp", "fused==sequential"),
    "supervised-chaos-n64": ("check_round_invariants",),
    "supervised-n10k": ("anchor+feasible+vp",),
    "campaign-mixed": ("True1 anchor", "cold==first pass",
                       "warm==cold at 100% hits", "reproduce_all.all_claims_pass"),
}
