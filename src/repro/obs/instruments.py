"""Pre-bound instrument bundles for the engine, service and runtime layers.

Each bundle declares its metric families against a registry once, at
component construction, and keeps direct references to the labelled
children so the hot paths do a single attribute lookup and a no-lock
branch on ``enabled`` before touching a clock.  Against
:data:`~repro.obs.registry.NULL_REGISTRY` every child is the shared
no-op instrument, which is what makes instrumentation free when
observability is disabled.

The metric catalogue these bundles implement is documented in
``docs/observability.md``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List

from .registry import MetricsRegistry

__all__ = [
    "ClusterInstruments",
    "EngineInstruments",
    "OpsInstruments",
    "RuntimeInstruments",
    "ServiceInstruments",
    "StoreInstruments",
]

#: Degraded-round reason labels shared by the per-round and batch paths.
DEGRADED_REASONS = ("majority_missing", "quorum", "conflict", "empty")

#: Why a ``process_batch`` call ran the per-round loop instead of a
#: kernel: the voter has none, an exclusion rule is set, the module
#: names are duplicated or empty, or the matrix holds one round.
FALLBACK_REASONS = ("voter", "exclusion", "modules", "single_round")


def _history_summary(
    history: Any, reduce: Callable[[List[float]], float]
) -> Callable[[], float]:
    def read() -> float:
        records = list(history.snapshot().values())
        return reduce(records) if records else 0.0

    return read


class EngineInstruments:
    """Fusion-engine metrics: round counters, latency, history summaries."""

    __slots__ = (
        "enabled",
        "rounds",
        "degraded",
        "quorum_failures",
        "round_seconds",
        "batch_seconds",
        "batch_rounds",
        "fallback_rounds",
    )

    def __init__(
        self, registry: MetricsRegistry, algorithm: str, voter: Any = None
    ):
        self.enabled = registry.enabled
        self.rounds = registry.counter(
            "fusion_rounds_total",
            "Rounds processed by the fusion engine.",
            labels=("algorithm",),
        ).labels(algorithm)
        degraded = registry.counter(
            "fusion_rounds_degraded_total",
            "Rounds that did not produce a regular vote, by reason.",
            labels=("algorithm", "reason"),
        )
        self.degraded = {
            reason: degraded.labels(algorithm, reason)
            for reason in DEGRADED_REASONS
        }
        self.quorum_failures = registry.counter(
            "fusion_quorum_failures_total",
            "Rounds rejected because the quorum rule was not satisfied.",
            labels=("algorithm",),
        ).labels(algorithm)
        self.round_seconds = registry.histogram(
            "fusion_round_seconds",
            "Wall time of one FusionEngine.process call.",
            labels=("algorithm",),
        ).labels(algorithm)
        self.batch_seconds = registry.histogram(
            "fusion_batch_seconds",
            "Wall time of one FusionEngine.process_batch call.",
            labels=("algorithm",),
        ).labels(algorithm)
        self.batch_rounds = registry.counter(
            "fusion_batch_rounds_total",
            "Rounds fused through the vectorized batch kernels.",
            labels=("algorithm",),
        ).labels(algorithm)
        fallback = registry.counter(
            "fusion_fallback_rounds_total",
            "Batch rounds sent down the per-round loop, by reason.",
            labels=("algorithm", "reason"),
        )
        self.fallback_rounds = {
            reason: fallback.labels(algorithm, reason)
            for reason in FALLBACK_REASONS
        }
        history = getattr(voter, "history", None)
        if history is not None and hasattr(history, "snapshot"):
            summary = registry.gauge(
                "fusion_history_record",
                "Summary of the voter's per-module history records.",
                labels=("algorithm", "stat"),
            )
            # Render-time callbacks: the voting hot path never pays for
            # these, and the last engine constructed per algorithm wins.
            summary.labels(algorithm, "min").set_function(
                _history_summary(history, min)
            )
            summary.labels(algorithm, "max").set_function(
                _history_summary(history, max)
            )
            summary.labels(algorithm, "mean").set_function(
                _history_summary(history, lambda r: sum(r) / len(r))
            )


class ServiceInstruments:
    """Voter-service metrics: per-op request counters, latency, errors."""

    __slots__ = ("enabled", "requests", "errors", "request_seconds")

    def __init__(self, registry: MetricsRegistry, operations: Iterable[str]):
        self.enabled = registry.enabled
        requests = registry.counter(
            "service_requests_total",
            "Requests dispatched by the voter service, by operation.",
            labels=("op",),
        )
        errors = registry.counter(
            "service_errors_total",
            "Requests that raised a handled error, by operation.",
            labels=("op",),
        )
        seconds = registry.histogram(
            "service_request_seconds",
            "Wall time spent dispatching one request, by operation.",
            labels=("op",),
        )
        ops = list(operations)
        self.requests: Dict[str, Any] = {op: requests.labels(op) for op in ops}
        self.errors: Dict[str, Any] = {op: errors.labels(op) for op in ops}
        self.request_seconds: Dict[str, Any] = {
            op: seconds.labels(op) for op in ops
        }


class ClusterInstruments:
    """Cluster metrics: per-shard traffic, rebalances, failover latency.

    Backend ids are dynamic (shards join and leave), so the per-shard
    counters are resolved through ``labels()`` per call rather than
    pre-bound; every call site sits behind a network round-trip, so the
    dict lookup is noise there.
    """

    __slots__ = (
        "enabled",
        "_shard_requests",
        "_shard_errors",
        "requests",
        "rebalances",
        "rebalanced_series",
        "replica_disagreements",
        "failover_seconds",
        "backends_alive",
    )

    def __init__(self, registry: MetricsRegistry):
        self.enabled = registry.enabled
        self._shard_requests = registry.counter(
            "cluster_shard_requests_total",
            "Requests the gateway dispatched to each backend shard.",
            labels=("backend",),
        )
        self._shard_errors = registry.counter(
            "cluster_shard_errors_total",
            "Gateway->shard calls that ultimately failed, by backend.",
            labels=("backend",),
        )
        self.requests = registry.counter(
            "cluster_gateway_requests_total",
            "Requests dispatched by the cluster gateway, by operation.",
            labels=("op",),
        )
        self.rebalances = registry.counter(
            "cluster_rebalance_total",
            "Ring rebalances triggered by backend join/leave.",
        )
        self.rebalanced_series = registry.counter(
            "cluster_rebalanced_series_total",
            "Series handed off to a new replica set during rebalances.",
        )
        self.replica_disagreements = registry.counter(
            "cluster_replica_disagreements_total",
            "Rounds where the replica set answered with conflicting results.",
        )
        self.failover_seconds = registry.histogram(
            "cluster_failover_seconds",
            "Time from detecting a dead backend to its replacement "
            "answering a ping.",
        )
        self.backends_alive = registry.gauge(
            "cluster_backends_alive",
            "Backends currently believed alive by the gateway.",
        )

    def shard_request(self, backend: str) -> None:
        self._shard_requests.labels(backend).inc()

    def shard_error(self, backend: str) -> None:
        self._shard_errors.labels(backend).inc()


class IngestInstruments:
    """Async ingest-tier metrics: fan-in load, backpressure, framings.

    The frame counter is pre-bound per wire framing (the two framings
    are static), everything else is a plain gauge/counter — the async
    loop touches these on every message, so lookups stay out of the
    hot path.
    """

    __slots__ = (
        "enabled",
        "open_connections",
        "queued_votes",
        "backpressure_drops",
        "slow_consumer_disconnects",
        "coalesced_rounds",
        "frames_v2_json",
        "frames_v3_binary",
    )

    def __init__(self, registry: MetricsRegistry):
        self.enabled = registry.enabled
        self.open_connections = registry.gauge(
            "ingest_open_connections",
            "Sensor connections currently held by the async ingest tier.",
        )
        self.queued_votes = registry.gauge(
            "ingest_queued_votes",
            "Votes buffered in the ingest coalescer, not yet flushed.",
        )
        self.backpressure_drops = registry.counter(
            "ingest_backpressure_drops_total",
            "Votes refused because a per-connection or global queue "
            "bound was hit.",
        )
        self.slow_consumer_disconnects = registry.counter(
            "ingest_slow_consumer_disconnects_total",
            "Connections dropped because the peer did not drain "
            "responses within the grace period.",
        )
        self.coalesced_rounds = registry.histogram(
            "ingest_coalesced_rounds",
            "Rounds per coalesced vote_batch flush to the fusion sink.",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, float("inf")),
        )
        frames = registry.counter(
            "ingest_frames_total",
            "Messages decoded by the ingest tier, by wire framing.",
            labels=("version",),
        )
        self.frames_v2_json = frames.labels("2-json")
        self.frames_v3_binary = frames.labels("3-binary")


class StoreInstruments:
    """Tiered-history-store metrics: residency, churn, compaction cost.

    The hot-set gauge and the segment-byte gauges are render-time
    callbacks reading the store directly, so the per-round store path
    never pays for them; the churn counters are bumped by the store on
    eviction/rehydration/write-back, which are already off the
    per-round fast path.
    """

    __slots__ = (
        "enabled",
        "evictions",
        "rehydrations",
        "writebacks",
        "compaction_seconds",
    )

    def __init__(self, registry: MetricsRegistry, store: Any = None):
        self.enabled = registry.enabled
        self.evictions = registry.counter(
            "store_evictions_total",
            "Series evicted from the tiered history store's hot set.",
        )
        self.rehydrations = registry.counter(
            "store_rehydrations_total",
            "Series rehydrated from the backing store into the hot set.",
        )
        self.writebacks = registry.counter(
            "store_writebacks_total",
            "Dirty series states written back to the backing store.",
        )
        self.compaction_seconds = registry.histogram(
            "store_compaction_seconds",
            "Wall time of one backing-store compaction pass.",
        )
        if store is not None:
            # Last store constructed against a registry wins, matching
            # the fusion_history_record precedent in EngineInstruments.
            registry.gauge(
                "store_hot_series",
                "Series resident in the tiered store's hot set.",
            ).set_function(lambda: float(store.hot_size))
            segment_bytes = registry.gauge(
                "store_segment_bytes",
                "Bytes held by the backing store's segment files.",
                labels=("state",),
            )
            backing = getattr(store, "backing", None)
            segment_bytes.labels("live").set_function(
                lambda: float(getattr(backing, "live_bytes", 0))
            )
            segment_bytes.labels("dead").set_function(
                lambda: float(getattr(backing, "dead_bytes", 0))
            )


class OpsInstruments:
    """Operations-subsystem metrics: dashboard traffic, alerts, tuning.

    The alert gauge is resolved through ``labels()`` per severity at
    evaluation time (severities are user-declared, not static), the
    dashboard counter per request path; both sit behind an HTTP
    round-trip or a snapshot tick, so nothing here is hot.
    """

    __slots__ = (
        "enabled",
        "alerts_firing",
        "dashboard_requests",
        "snapshot_seconds",
        "tuning_trials",
        "tuning_cache_hits",
    )

    def __init__(self, registry: MetricsRegistry):
        self.enabled = registry.enabled
        self.alerts_firing = registry.gauge(
            "ops_alerts_firing",
            "Alert rules currently in the firing state, by severity.",
            labels=("severity",),
        )
        self.dashboard_requests = registry.counter(
            "ops_dashboard_requests_total",
            "HTTP requests served by the operations dashboard, by path.",
            labels=("path",),
        )
        self.snapshot_seconds = registry.histogram(
            "ops_snapshot_seconds",
            "Wall time of one dashboard snapshot collection tick.",
        )
        self.tuning_trials = registry.counter(
            "ops_tuning_trials_total",
            "Trials evaluated against a live cluster by tuning.live.",
        )
        self.tuning_cache_hits = registry.counter(
            "ops_tuning_cache_hits_total",
            "Live-tuning trials answered from the memoization cache.",
        )


class RuntimeInstruments:
    """Worker-pool metrics: dispatch volume, crashes, wall vs worker time."""

    __slots__ = (
        "enabled",
        "chunks",
        "crashes",
        "series",
        "wall_seconds",
        "worker_seconds",
    )

    def __init__(self, registry: MetricsRegistry):
        self.enabled = registry.enabled
        self.chunks = registry.counter(
            "runtime_pool_chunks_total",
            "Work chunks dispatched by WorkerPool.map (in-process runs "
            "count as one chunk).",
        )
        self.crashes = registry.counter(
            "runtime_pool_worker_crashes_total",
            "WorkerPool.map calls aborted by a task exception or a "
            "killed worker.",
        )
        self.series = registry.counter(
            "runtime_fuse_many_series_total",
            "Series fused through repro.fuse_many.",
        )
        self.wall_seconds = registry.gauge(
            "runtime_pool_wall_seconds",
            "Wall time of the most recent WorkerPool.map call.",
        )
        self.worker_seconds = registry.gauge(
            "runtime_pool_worker_seconds",
            "Aggregate in-task time of the most recent WorkerPool.map "
            "call (ratio to wall time = effective parallelism).",
        )
