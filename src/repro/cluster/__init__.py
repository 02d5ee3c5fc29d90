"""repro.cluster — sharded fusion cluster over the voter service.

Scales :mod:`repro.service` horizontally:

* :class:`~repro.cluster.ring.HashRing` — consistent-hash ring
  (virtual nodes, deterministic seed) mapping series keys to N backend
  shards with R-way replica sets.
* :class:`~repro.cluster.backend.ShardServer` /
  :class:`~repro.cluster.backend.ManagedBackend` — a multi-series
  voter server, run in a supervised subprocess with liveness probes
  and restart-on-crash.
* :class:`~repro.cluster.gateway.ClusterGateway` — the failover-aware
  front door: hashes the series key, fans writes to the replica set,
  reads with majority semantics; each shard link sends one request
  per job, in FIFO order, so replicas apply a series' rounds in the
  order they were routed.
* :mod:`~repro.cluster.retry` — bounded exponential backoff plus a
  circuit breaker, shared by gateway→backend calls (and opt-in by
  :class:`~repro.service.client.VoterClient`).
* :class:`~repro.cluster.supervisor.FusionCluster` — wires it all up:
  spawn/monitor/restart backends, rebalance on join/leave with
  history-store handoff.

Everything is exported lazily (PEP 562): :mod:`repro.service.client`
imports :mod:`repro.cluster.retry`, while the heavier cluster modules
import the service layer — eager re-exports here would close that loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "ClusterGateway",
    "FusionCluster",
    "HashRing",
    "ManagedBackend",
    "RetryPolicy",
    "ShardServer",
    "call_with_retry",
]

_EXPORTS = {
    "HashRing": ("ring", "HashRing"),
    "RetryPolicy": ("retry", "RetryPolicy"),
    "CircuitBreaker": ("retry", "CircuitBreaker"),
    "CircuitOpenError": ("retry", "CircuitOpenError"),
    "call_with_retry": ("retry", "call_with_retry"),
    "ShardServer": ("backend", "ShardServer"),
    "ManagedBackend": ("backend", "ManagedBackend"),
    "ClusterGateway": ("gateway", "ClusterGateway"),
    "FusionCluster": ("supervisor", "FusionCluster"),
}

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .backend import ManagedBackend, ShardServer
    from .gateway import ClusterGateway
    from .retry import CircuitBreaker, CircuitOpenError, RetryPolicy, call_with_retry
    from .ring import HashRing
    from .supervisor import FusionCluster


def __getattr__(name: str):
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, attribute)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
