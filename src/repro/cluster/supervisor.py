"""The cluster supervisor: spawn, monitor, restart, rebalance.

:class:`FusionCluster` assembles the whole sharded deployment from one
constructor call: it spawns ``n_shards`` :class:`ManagedBackend`
processes, places them on a :class:`~repro.cluster.ring.HashRing` with
``replicas``-way replica sets, fronts them with a
:class:`~repro.cluster.gateway.ClusterGateway`, and runs a monitor
thread that restarts any backend that stops answering — resuming it
over the same history directory so its reliability records survive the
crash.

Membership changes rebalance with a **history handoff**: when a
backend joins or leaves, only the series whose replica set actually
changed (see :meth:`HashRing.moved_keys`) are touched, and each new
owner is seeded with the voter history read from a surviving old
owner.  Replicated reads mask the window while a handoff is in
flight — the majority still comes from the old owners.
"""

from __future__ import annotations

import queue
import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..exceptions import ReproError
from ..history import DEFAULT_HOT_SERIES
from ..obs import ClusterInstruments, MetricsRegistry, get_default_registry
from ..service.client import VoterClient
from ..vdx.spec import VotingSpec
from .backend import ManagedBackend
from .gateway import ClusterGateway
from .ring import DEFAULT_VNODES, HashRing

__all__ = ["FusionCluster"]


class FusionCluster:
    """A supervised, sharded fusion cluster behind one gateway address.

    Args:
        spec: the voting scheme every shard hosts.
        n_shards: number of backend shards to spawn.
        replicas: replica-set size per series (clamped to ``n_shards``).
        host / port: gateway bind address (port 0 picks a free port).
        history_root: directory for per-backend history logs; a
            temporary directory (cleaned up on :meth:`stop`) when None.
        mode: backend mode — ``"process"`` (default where ``fork``
            exists) or ``"thread"``.
        store: per-shard history storage tier — ``"packed"``
            (default), ``"sqlite"`` or ``"memory"``.
        max_resident_series: per-shard LRU bound on live engines / hot
            history states; ``None`` keeps everything resident.
        maintenance_interval: when set, each shard runs a background
            thread compacting its store (dead packed-segment space,
            watermark log) every this many seconds.
        probe_interval: seconds between monitor liveness sweeps.
        auto_restart: restart backends that die; turn off to observe
            raw failover behaviour (e.g. the bit-identity benchmark).
        vnodes / seed: ring geometry (see :class:`HashRing`).
        registry: metrics registry shared by gateway and supervisor.
    """

    def __init__(
        self,
        spec: VotingSpec,
        n_shards: int = 3,
        replicas: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        history_root=None,
        mode: Optional[str] = None,
        store: Optional[str] = None,
        max_resident_series: Optional[int] = DEFAULT_HOT_SERIES,
        maintenance_interval: Optional[float] = None,
        probe_interval: float = 0.25,
        auto_restart: bool = True,
        vnodes: int = DEFAULT_VNODES,
        seed: str = "avoc",
        registry: Optional[MetricsRegistry] = None,
    ):
        if n_shards < 1:
            raise ReproError(f"n_shards must be >= 1, got {n_shards}")
        self.spec = spec
        self.n_shards = n_shards
        self.host = host
        self.port = port
        self.mode = mode
        self.store = store
        self.max_resident_series = max_resident_series
        self.maintenance_interval = maintenance_interval
        self.probe_interval = probe_interval
        self.auto_restart = auto_restart
        self.registry = registry if registry is not None else get_default_registry()
        self._obs = ClusterInstruments(self.registry)
        self.ring = HashRing(
            replicas=min(replicas, n_shards), vnodes=vnodes, seed=seed
        )
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if history_root is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="avoc-cluster-")
            history_root = self._tmpdir.name
        self.history_root = Path(history_root)
        self.gateway: Optional[ClusterGateway] = None
        self._backends: Dict[str, ManagedBackend] = {}
        self._next_backend = 0
        self._lock = threading.RLock()
        self._failures: "queue.Queue[str]" = queue.Queue()
        self._stop_event = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The gateway's (host, port)."""
        if self.gateway is None:
            raise ReproError("cluster is not started")
        return self.gateway.address

    @property
    def backends(self) -> Dict[str, ManagedBackend]:
        """Backend id → managed backend (live view; treat as read-only)."""
        return dict(self._backends)

    def start(self) -> "FusionCluster":
        if self._started:
            raise ReproError("cluster already started")
        self._started = True
        self.gateway = ClusterGateway(
            self.spec,
            self.ring,
            host=self.host,
            port=self.port,
            registry=self.registry,
        )
        self.gateway.set_failure_callback(self._failures.put)
        for _ in range(self.n_shards):
            self._spawn_backend()
        self.gateway.start()
        if self.auto_restart:
            self._monitor = threading.Thread(
                target=self._monitor_loop, daemon=True, name="cluster-monitor"
            )
            self._monitor.start()
        return self

    def stop(self) -> None:
        self._stop_event.set()
        monitor, self._monitor = self._monitor, None
        if monitor is not None:
            monitor.join(timeout=5.0)
        gateway, self.gateway = self.gateway, None
        if gateway is not None:
            gateway.stop()
        with self._lock:
            backends, self._backends = dict(self._backends), {}
        for backend in backends.values():
            backend.stop()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "FusionCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def client(self, **kwargs) -> VoterClient:
        """A client connected to the gateway (caller closes it)."""
        host, port = self.address
        client = VoterClient(host, port, **kwargs)
        client.connect()
        return client

    # -- membership ---------------------------------------------------------

    def _spawn_backend(self) -> str:
        """Start one backend, attach it to the gateway and the ring."""
        backend_id = f"b{self._next_backend}"
        self._next_backend += 1
        # The gateway's spec is authoritative once running: a backend
        # spawned after a `configure` must host the current scheme.
        spec = self.gateway.spec if self.gateway is not None else self.spec
        backend = ManagedBackend(
            backend_id,
            spec,
            history_dir=self.history_root / backend_id,
            host=self.host,
            mode=self.mode,
            store=self.store,
            max_resident_series=self.max_resident_series,
            maintenance_interval=self.maintenance_interval,
        )
        address = backend.start()
        with self._lock:
            self._backends[backend_id] = backend
        assert self.gateway is not None
        self.gateway.add_backend(backend_id, address)
        with self.gateway.membership() as ring:
            ring.add_node(backend_id)
        return backend_id

    def add_backend(self) -> str:
        """Scale out by one shard, handing off the series that moved."""
        if self.gateway is None:
            raise ReproError("cluster is not started")
        keys = self.gateway.known_series()
        with self._lock:
            before = {key: self.ring.replica_set(key) for key in keys}
        backend_id = self._spawn_backend()
        moved = self.ring.moved_keys(list(keys), before)
        self._hand_off(moved)
        return backend_id

    def remove_backend(self, backend_id: str) -> None:
        """Scale in: drain ``backend_id``'s series to their new owners."""
        if self.gateway is None:
            raise ReproError("cluster is not started")
        with self._lock:
            backend = self._backends.get(backend_id)
        if backend is None:
            raise ReproError(f"no backend {backend_id!r} in this cluster")
        if len(self._backends) <= 1:
            raise ReproError("cannot remove the last backend")
        keys = self.gateway.known_series()
        before = {key: self.ring.replica_set(key) for key in keys}
        with self.gateway.membership() as ring:
            ring.remove_node(backend_id)
        moved = self.ring.moved_keys(list(keys), before)
        # Hand off while the leaving backend is still answering — it may
        # be the only holder of a series' history.
        self._hand_off(moved)
        self.gateway.remove_backend(backend_id)
        with self._lock:
            self._backends.pop(backend_id, None)
        backend.stop()

    def _hand_off(self, moved: Dict[str, Tuple[List[str], List[str]]]) -> None:
        """Seed each new owner of a moved series with its voter history."""
        if not moved:
            return
        self._obs.rebalances.inc()
        for series, (old_set, new_set) in moved.items():
            snapshot = self._read_history(series, old_set)
            if not snapshot:
                continue
            for target in new_set:
                if target in old_set:
                    continue
                self._sync_history(target, series, snapshot)
            self._obs.rebalanced_series.inc()

    def _read_history(
        self, series: str, owners: List[str]
    ) -> Optional[Dict[str, object]]:
        """The series' full history response (records, update counter,
        voted watermark) from the first owner that answers with data."""
        for backend_id in owners:
            with self._lock:
                backend = self._backends.get(backend_id)
            if backend is None:
                continue
            try:
                with VoterClient(*backend.address, retries=1) as client:
                    response = client.request(
                        {"op": "history", "series": series}
                    )
            except (OSError, ReproError):
                continue  # unknown series here, or the owner just died
            if response.get("records"):
                return response
        return None

    def _sync_history(
        self, backend_id: str, series: str, snapshot: Dict[str, object]
    ) -> None:
        with self._lock:
            backend = self._backends.get(backend_id)
        if backend is None:
            return
        message: Dict[str, object] = {
            "op": "sync_history",
            "series": series,
            "records": snapshot["records"],
        }
        # Version the seed so a stale snapshot cannot rewind the target.
        if snapshot.get("updates") is not None:
            message["updates"] = int(snapshot["updates"])  # type: ignore[arg-type]
        if snapshot.get("watermark") is not None:
            message["watermark"] = int(snapshot["watermark"])  # type: ignore[arg-type]
        try:
            with VoterClient(*backend.address, retries=1) as client:
                client.request(message)
        except (OSError, ReproError):
            pass  # the monitor will restart it; history reloads from disk

    # -- failure handling ----------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stop_event.wait(self.probe_interval):
            suspects = set()
            while True:
                try:
                    suspects.add(self._failures.get_nowait())
                except queue.Empty:
                    break
            gateway = self.gateway
            fenced = gateway.fenced_backends() if gateway is not None else ()
            suspects.update(fenced)
            with self._lock:
                backends = dict(self._backends)
            for backend_id, backend in backends.items():
                if not backend.is_alive():
                    suspects.add(backend_id)
            for backend_id in suspects:
                backend = backends.get(backend_id)
                if backend is None:
                    continue
                if (
                    backend_id not in fenced
                    and backend.is_alive()
                    and backend.ping()
                ):
                    continue  # transient: the link's retries handled it
                self._failover(backend_id, backend)

    def _failover(self, backend_id: str, backend: ManagedBackend) -> None:
        """Restart a dead (or fenced) backend, catch it up, re-enable it.

        The restart sequence is divergence-safe: the backend is marked
        *stale* before the gateway is re-pointed at it, so it serves no
        reads and wins no majority ties until
        :meth:`ClusterGateway.resync_backend` has seeded it with the
        history (records + update counter + voted watermark) of a fresh
        surviving replica — covering every round voted during the
        outage.
        """
        started = time.monotonic()
        gateway = self.gateway
        if gateway is not None and backend.spec is not gateway.spec:
            # The cluster was reconfigured while this backend was out
            # (fenced partial `configure`): its on-disk state belongs to
            # the old scheme and must not leak into the new one.
            backend.spec = gateway.spec
            if backend.history_dir is not None:
                shutil.rmtree(backend.history_dir, ignore_errors=True)
        if gateway is not None:
            gateway.mark_stale(backend_id)
        try:
            address = backend.restart()
        except ReproError:
            if gateway is not None:
                gateway.clear_stale(backend_id)
            return  # spawn failed; the next sweep tries again
        if gateway is not None:
            try:
                gateway.update_backend(backend_id, address)
            except ReproError:
                gateway.clear_stale(backend_id)
                return  # detached while restarting (remove_backend race)
        # Wait for the replacement to answer before seeding it.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if backend.ping():
                break
            time.sleep(0.02)
        if gateway is not None:
            try:
                gateway.resync_backend(backend_id)
            except ReproError:
                gateway.clear_stale(backend_id)  # detached mid-resync
        # Failover = detect -> replacement caught up and serving again.
        self._obs.failover_seconds.observe(time.monotonic() - started)

    # -- convenience ----------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """A JSON-safe summary of cluster topology and health."""
        with self._lock:
            backends = dict(self._backends)
        return {
            "gateway": list(self.address),
            "ring": {
                "backends": list(self.ring.nodes),
                "replicas": self.ring.replicas,
                "vnodes": self.ring.vnodes,
            },
            "backends": {
                backend_id: {
                    "address": list(backend.address),
                    "mode": backend.mode,
                    "pid": backend.pid,
                    "restarts": backend.restarts,
                    "alive": backend.is_alive(),
                }
                for backend_id, backend in sorted(backends.items())
            },
        }
