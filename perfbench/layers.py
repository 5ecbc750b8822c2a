"""Where the traced run wraps the program, and the per-layer metrics.

Layers are named after the program's modules.  Every span is wrapped at
the name its caller looks up: a method on its class (looked up through
the instance) or a function in the namespace of the module that calls
it.  A stage with no entry point of its own, such as the stacked
pricing inside ``protocol.horizon``, lands in the self time of the
enclosing span.

:data:`LAYER_METRICS` is the single list of per-layer metrics: name,
unit, direction, the layer it measures, and the end-to-end metric and
workload it should move.  ``BENCHMARK.json`` repeats the names, units
and directions, and the smoke test checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from spans import Tracer, WrapPoint

# ------------------------------------------------------------- wrap points


def _checkpoint_bytes(tracer: Tracer, args: tuple, _result, _token) -> None:
    # Read the stored payload after the timed interval; re-encoding it
    # here would charge a second JSON encode to the enclosing span.
    payload = getattr(args[0], "_payload", None)
    tracer.count("checkpoint.save.bytes", len(payload) if payload else 0)


def _des_before(args: tuple) -> int:
    return args[0].events_processed


def _des_after(tracer: Tracer, args: tuple, _result, before: int) -> None:
    tracer.count("des.events", args[0].events_processed - before)


def _split_jobs(tracer: Tracer, args: tuple, _result, _token) -> None:
    tracer.count("execute.jobs", int(args[0]))


def _detect_alert(tracer: Tracer, _args, result, _token) -> None:
    if result is not None:
        tracer.count("detect.alerts")


def _horizon_rounds(tracer: Tracer, args: tuple, _result, _token) -> None:
    tracer.count("horizon.rounds", int(args[1]))


def _remediation_applied(tracer: Tracer, _args, result, _token) -> None:
    tracer.count("remediate.actions_applied", len(result.applied))


def _shadow_verdicts(tracer: Tracer, _args, result, _token) -> None:
    tracer.count("remediate.shadow.verdicts", len(result))
    tracer.count(
        "remediate.shadow.accepted", sum(1 for v in result if v.accepted)
    )


def _cache_hit(tracer: Tracer, _args, result, _token) -> None:
    if result is not None:
        tracer.count("cache.hits")


def _cohort_units(tracer: Tracer, args: tuple, _result, _token) -> None:
    tracer.count("fusion.units", len(args[0]))


_QUARANTINE_METHODS = (
    "admit", "health_of", "state_of", "reputation_of", "begin_round",
    "probes", "quarantined", "record_success", "record_failure",
    "force_open", "force_probe", "reset", "snapshot_health",
    "restore_health",
)


def wrap_points() -> list[WrapPoint]:
    """Every entry point the traced run wraps (imports the program)."""
    import repro.distributed.service as service
    import repro.distributed.shard as shard
    import repro.experiments.runner as runner
    import repro.mechanism.archer_tardos as archer_tardos
    import repro.mechanism.compensation_bonus as compensation_bonus
    import repro.mechanism.vcg as vcg
    import repro.parallel.campaigns as campaigns
    import repro.parallel.engine as engine
    import repro.protocol.horizon as horizon
    import repro.protocol.runtime as runtime
    import repro.resilience.supervisor as supervisor
    import repro.system.workload as workload
    from repro.mechanism.mm1_mechanism import MM1TruthfulMechanism
    from repro.parallel.cache import ResultCache
    from repro.protocol.coordinator import MechanismCoordinator
    from repro.protocol.monitoring import CusumSlowdownDetector
    from repro.protocol.network import SimulatedNetwork
    from repro.remediation.pipeline import RemediationPipeline
    from repro.remediation.shadow import ShadowVerifier
    from repro.resilience.checkpoint import CheckpointStore
    from repro.resilience.quarantine import QuarantinePolicy
    from repro.system.des import Simulator

    points = [
        # resilience.checkpoint
        WrapPoint(CheckpointStore, "save", "checkpoint.save",
                  after=_checkpoint_bytes),
        WrapPoint(CheckpointStore, "load", "checkpoint.load"),
        WrapPoint(CheckpointStore, "append_payment",
                  "checkpoint.append_payment"),
        # resilience.supervisor and resilience.quarantine
        WrapPoint(supervisor.RoundSupervisor, "run_round", "supervisor.round"),
        *(WrapPoint(QuarantinePolicy, name, "quarantine")
          for name in _QUARANTINE_METHODS),
        # protocol.coordinator, protocol.network, system.des
        WrapPoint(MechanismCoordinator, "handle", "coordinator.handle"),
        WrapPoint(SimulatedNetwork, "send", "network.send"),
        WrapPoint(Simulator, "run", "des.run",
                  before=_des_before, after=_des_after),
        # allocation: the supervisor's allocator and the mechanisms' PR solve
        WrapPoint(supervisor._IncrementalAllocator, "allocate", "allocate"),
        WrapPoint(compensation_bonus, "pr_allocation", "allocate"),
        WrapPoint(vcg, "pr_allocation", "allocate"),
        WrapPoint(archer_tardos, "pr_allocation", "allocate"),
        # protocol.execution and system.workload
        WrapPoint(supervisor, "dispatch_batched", "execute.dispatch"),
        WrapPoint(shard, "dispatch_batched", "execute.dispatch"),
        WrapPoint(runtime, "dispatch_batched", "execute.dispatch"),
        WrapPoint(workload.PoissonWorkload, "generate_times",
                  "workload.generate"),
        *(WrapPoint(module, "split_assignments", "workload.split",
                    after=_split_jobs)
          for module in (workload, supervisor, horizon, service, runtime)),
        # mechanism: every pricing rule's payments()
        *(WrapPoint(cls, "payments", "price")
          for cls in (compensation_bonus.VerificationMechanism,
                      vcg.VCGMechanism, archer_tardos.ArcherTardosMechanism,
                      MM1TruthfulMechanism)),
        # protocol.monitoring
        WrapPoint(CusumSlowdownDetector, "observe_many", "detect",
                  after=_detect_alert),
        # protocol.horizon
        WrapPoint(horizon, "run_horizon", "horizon.run",
                  after=_horizon_rounds),
        # distributed
        WrapPoint(service.ShardedRound, "collect_bids", "shard.bid"),
        WrapPoint(service.ShardedRound, "allocate", "shard.allocate"),
        WrapPoint(service.ShardedRound, "execute", "shard.execute"),
        WrapPoint(service.ShardedRound, "settle", "shard.settle"),
        WrapPoint(service.ShardedCoordinatorService, "__init__",
                  "shard.service_setup"),
        WrapPoint(service, "aggregate_shards", "gather.aggregate"),
        # remediation
        WrapPoint(RemediationPipeline, "process_round",
                  "remediate.process_round", after=_remediation_applied),
        WrapPoint(ShadowVerifier, "verify", "remediate.shadow.verify",
                  after=_shadow_verdicts),
        # parallel
        WrapPoint(engine, "unit_cache_key", "campaign.key"),
        WrapPoint(ResultCache, "get", "cache.get", after=_cache_hit),
        WrapPoint(ResultCache, "put", "cache.put"),
        WrapPoint(engine, "execute_cohort", "fusion.cohort",
                  after=_cohort_units),
        WrapPoint(engine, "execute_unit", "unit.execute"),
        # experiments
        WrapPoint(runner, "reproduce_all", "reproduce"),
        WrapPoint(campaigns, "run_figures_campaign", "reproduce.campaign"),
        WrapPoint(runner, "verify_reproduction", "reproduce.verify"),
    ]
    return points


#: Span name -> the program layer (module) it times.
SPAN_LAYER = {
    "checkpoint.save": "resilience.checkpoint",
    "checkpoint.load": "resilience.checkpoint",
    "checkpoint.append_payment": "resilience.checkpoint",
    "supervisor.round": "resilience.supervisor",
    "quarantine": "resilience.quarantine",
    "coordinator.handle": "protocol.coordinator",
    "network.send": "protocol.network",
    "des.run": "system.des",
    "allocate": "allocation",
    "execute.dispatch": "protocol.execution",
    "workload.generate": "system.workload",
    "workload.split": "system.workload",
    "price": "mechanism",
    "detect": "protocol.monitoring",
    "horizon.run": "protocol.horizon",
    "shard.bid": "distributed",
    "shard.allocate": "distributed",
    "shard.execute": "distributed",
    "shard.settle": "distributed",
    "shard.service_setup": "distributed",
    "gather.aggregate": "distributed",
    "remediate.process_round": "remediation",
    "remediate.shadow.verify": "remediation",
    "campaign.key": "parallel",
    "cache.get": "parallel",
    "cache.put": "parallel",
    "fusion.cohort": "parallel",
    "unit.execute": "parallel",
    "reproduce": "experiments",
    "reproduce.campaign": "experiments",
    "reproduce.verify": "experiments",
}


# --------------------------------------------------------------- metrics


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    layer: str
    moves: str  # end-to-end metric(s) it should move
    where: str  # workload(s) where that should show


_N64 = "supervised-n64"
_CHAOS = "supervised-chaos-n64"
_N10K = "supervised-n10k"
_CAMPAIGN = "campaign-mixed"

LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("checkpoint.save.calls", "count", "lower", "resilience.checkpoint",
                "ops_per_s, op_ms_p50", f"{_N64}, {_CHAOS}"),
    LayerMetric("checkpoint.save.s", "s", "lower", "resilience.checkpoint",
                "ops_per_s, op_ms_p50", f"{_N64}, {_CHAOS}"),
    LayerMetric("checkpoint.save.bytes", "bytes", "lower", "resilience.checkpoint",
                "ops_per_s, op_ms_p50", f"{_N64}, {_CHAOS}"),
    LayerMetric("checkpoint.load.calls", "count", "lower", "resilience.checkpoint",
                "op_ms_p95 (printed), ops_per_s", _CHAOS),
    LayerMetric("checkpoint.load.s", "s", "lower", "resilience.checkpoint",
                "op_ms_p95 (printed), ops_per_s", _CHAOS),
    LayerMetric("checkpoint.append_payment.calls", "count", "lower",
                "resilience.checkpoint", "op_ms_p95 (printed), ops_per_s", _CHAOS),
    LayerMetric("checkpoint.append_payment.s", "s", "lower",
                "resilience.checkpoint", "op_ms_p95 (printed), ops_per_s", _CHAOS),
    LayerMetric("supervisor.round.self_s", "s", "lower", "resilience.supervisor",
                "ops_per_s", _N64),
    LayerMetric("quarantine.s", "s", "lower", "resilience.quarantine",
                "ops_per_s", _N64),
    LayerMetric("retry.bid", "count", "lower", "resilience.supervisor",
                "ops_per_s", _CHAOS),
    LayerMetric("retry.report", "count", "lower", "resilience.supervisor",
                "ops_per_s", _CHAOS),
    LayerMetric("coordinator.restarts", "count", "lower", "resilience.supervisor",
                "op_ms_p95 (printed), ops_per_s", _CHAOS),
    LayerMetric("rounds.voided_ratio", "ratio", "lower", "resilience.supervisor",
                "ops_per_s", _CHAOS),
    LayerMetric("coordinator.handle.calls", "count", "lower",
                "protocol.coordinator", "ops_per_s", _N64),
    LayerMetric("coordinator.handle.self_s", "s", "lower",
                "protocol.coordinator", "ops_per_s", _N64),
    LayerMetric("network.messages", "count", "lower", "protocol.network",
                "ops_per_s", _N64),
    LayerMetric("des.run.self_s", "s", "lower", "system.des", "ops_per_s", _N64),
    LayerMetric("des.events", "count", "lower", "system.des", "ops_per_s", _N64),
    LayerMetric("allocate.calls", "count", "lower", "allocation",
                "ops_per_s, alt_ops_per_s", _N10K),
    LayerMetric("allocate.s", "s", "lower", "allocation",
                "ops_per_s, alt_ops_per_s", _N10K),
    LayerMetric("execute.dispatch.s", "s", "lower", "protocol.execution",
                "ops_per_s", _N64),
    LayerMetric("execute.jobs", "count", "higher", "protocol.execution",
                "ops_per_s, alt_ops_per_s", _N64),
    LayerMetric("workload.generate.s", "s", "lower", "system.workload",
                "ops_per_s, alt_ops_per_s", _N64),
    LayerMetric("workload.split.s", "s", "lower", "system.workload",
                "ops_per_s, alt_ops_per_s", _N64),
    LayerMetric("price.calls", "count", "lower", "mechanism",
                "ops_per_s", _CAMPAIGN),
    LayerMetric("price.s", "s", "lower", "mechanism", "ops_per_s", _CAMPAIGN),
    LayerMetric("detect.calls", "count", "lower", "protocol.monitoring",
                "op_ms_p50", _N64),
    LayerMetric("detect.s", "s", "lower", "protocol.monitoring",
                "op_ms_p50", _N64),
    LayerMetric("detect.alerts", "count", "lower", "protocol.monitoring",
                "op_ms_p95 (printed), ops_per_s", _CHAOS),
    LayerMetric("horizon.run.self_s", "s", "lower", "protocol.horizon",
                "alt_ops_per_s", _N64),
    LayerMetric("horizon.fused_rounds", "count", "higher", "protocol.horizon",
                "alt_ops_per_s", _N64),
    # 0 on every workload: n64's fused arm is fault-free.  It rises if
    # the engine starts handing clean rounds back to run_round.
    LayerMetric("horizon.defused_rounds", "count", "lower", "protocol.horizon",
                "alt_ops_per_s", _N64),
    LayerMetric("shard.bid.s", "s", "lower", "distributed", "ops_per_s", _N10K),
    LayerMetric("shard.allocate.s", "s", "lower", "distributed",
                "ops_per_s", _N10K),
    LayerMetric("shard.execute.s", "s", "lower", "distributed",
                "ops_per_s", _N10K),
    LayerMetric("shard.settle.s", "s", "lower", "distributed",
                "ops_per_s", _N10K),
    LayerMetric("shard.service_setup.s", "s", "lower", "distributed",
                "ops_per_s", _N10K),
    LayerMetric("gather.aggregate.s", "s", "lower", "distributed",
                "ops_per_s", _N10K),
    LayerMetric("remediate.process_round.calls", "count", "lower",
                "remediation", "ops_per_s, op_ms_p95 (printed)", _CHAOS),
    LayerMetric("remediate.process_round.s", "s", "lower", "remediation",
                "ops_per_s, op_ms_p95 (printed)", _CHAOS),
    LayerMetric("remediate.shadow.verify.calls", "count", "lower",
                "remediation", "op_ms_p95 (printed), ops_per_s", _CHAOS),
    LayerMetric("remediate.shadow.verify.s", "s", "lower", "remediation",
                "op_ms_p95 (printed), ops_per_s", _CHAOS),
    LayerMetric("remediate.shadow.accept_ratio", "ratio", "higher",
                "remediation", "op_ms_p95 (printed), ops_per_s", _CHAOS),
    LayerMetric("remediate.actions_applied", "count", "lower", "remediation",
                "ops_per_s", _CHAOS),
    LayerMetric("campaign.key.calls", "count", "lower", "parallel",
                "alt_ops_per_s", _CAMPAIGN),
    LayerMetric("campaign.key.s", "s", "lower", "parallel",
                "alt_ops_per_s", _CAMPAIGN),
    LayerMetric("cache.get.calls", "count", "lower", "parallel",
                "alt_ops_per_s", _CAMPAIGN),
    LayerMetric("cache.get.s", "s", "lower", "parallel",
                "alt_ops_per_s", _CAMPAIGN),
    LayerMetric("cache.put.calls", "count", "lower", "parallel",
                "write_units_per_s (printed, not gated)", _CAMPAIGN),
    LayerMetric("cache.put.s", "s", "lower", "parallel",
                "write_units_per_s (printed, not gated)", _CAMPAIGN),
    LayerMetric("fusion.cohort.calls", "count", "lower", "parallel",
                "ops_per_s", _CAMPAIGN),
    LayerMetric("fusion.cohort.s", "s", "lower", "parallel",
                "ops_per_s", _CAMPAIGN),
    LayerMetric("fusion.units", "count", "higher", "parallel",
                "ops_per_s", _CAMPAIGN),
    LayerMetric("unit.execute.calls", "count", "lower", "parallel",
                "ops_per_s", _CAMPAIGN),
    LayerMetric("unit.execute.s", "s", "lower", "parallel",
                "ops_per_s", _CAMPAIGN),
    LayerMetric("cache.hit_ratio", "ratio", "higher", "parallel",
                "ops_per_s", _CAMPAIGN),
    LayerMetric("reproduce.campaign.s", "s", "lower", "experiments",
                "op_ms_p50", _CAMPAIGN),
    LayerMetric("reproduce.verify.s", "s", "lower", "experiments",
                "op_ms_p50", _CAMPAIGN),
    LayerMetric("reproduce.write.self_s", "s", "lower", "experiments",
                "op_ms_p50", _CAMPAIGN),
    LayerMetric("trace.wall_s", "s", "lower", "benchmark",
                "all", "all"),
    LayerMetric("trace.residual_s", "s", "lower", "benchmark",
                "none (time outside every wrapped layer)", "all"),
    LayerMetric("trace.overhead_pct", "%", "lower", "benchmark",
                "none (traced vs untraced wall-clock)", "all"),
)


#: Metric prefixes named differently from the span they read.
_SPAN_ALIASES = {"reproduce.write": "reproduce"}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(tracer: Tracer, rounds: list) -> dict[str, float]:
    """Every span/counter-derived per-layer metric of one traced pass.

    ``rounds`` are the supervised ``RoundResult`` objects the pass
    produced (empty for the campaign workload); the retry, restart and
    void counts come from them.
    """
    totals = tracer.totals()
    counters = tracer.counters

    def total(span: str, field: str) -> float:
        return float(totals.get(span, {}).get(field, 0.0))

    # Rounds the horizon engine handed back to run_round: supervisor
    # rounds with a horizon.run span among their ancestors.
    inside_horizon = [False] * len(tracer.names)
    defused = 0
    for index, (name, parent) in enumerate(zip(tracer.names, tracer.parents)):
        inside_horizon[index] = parent >= 0 and (
            tracer.names[parent] == "horizon.run" or inside_horizon[parent]
        )
        if name == "supervisor.round" and inside_horizon[index]:
            defused += 1
    n_rounds = len(rounds)
    verdicts = counters.get("remediate.shadow.verdicts", 0.0)
    gets = total("cache.get", "calls")
    values = {
        "retry.bid": float(sum(r.bid_retries for r in rounds)),
        "retry.report": float(sum(r.report_retries for r in rounds)),
        "coordinator.restarts": float(
            sum(r.coordinator_restarts for r in rounds)
        ),
        "rounds.voided_ratio": _ratio(sum(r.voided for r in rounds), n_rounds),
        "horizon.defused_rounds": float(defused),
        "horizon.fused_rounds": counters.get("horizon.rounds", 0.0) - defused,
        "remediate.shadow.accept_ratio": _ratio(
            counters.get("remediate.shadow.accepted", 0.0), verdicts
        ),
        "cache.hit_ratio": _ratio(counters.get("cache.hits", 0.0), gets),
        "network.messages": total("network.send", "calls"),
    }
    for counter in ("checkpoint.save.bytes", "des.events", "execute.jobs",
                    "detect.alerts", "remediate.actions_applied",
                    "fusion.units"):
        values[counter] = float(counters.get(counter, 0.0))
    for metric in LAYER_METRICS:
        if metric.name in values or metric.name.startswith("trace."):
            continue
        span, _, field = metric.name.rpartition(".")
        values[metric.name] = total(_SPAN_ALIASES.get(span, span), field)
    return values


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Self seconds per program layer (module) over all spans."""
    self_ns = tracer.self_times_ns()
    layers: dict[str, float] = {}
    for name, own in zip(tracer.names, self_ns):
        layer = SPAN_LAYER[name]
        layers[layer] = layers.get(layer, 0.0) + own * 1e-9
    return layers
