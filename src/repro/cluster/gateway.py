"""The cluster gateway: one front door over many shard backends.

The gateway speaks the same protocol as the plain voter service (plus
``route`` and ``cluster_stats``), hashes every series key onto the
consistent-hash ring, fans writes to the full replica set and reads the
majority answer back.  Each backend is served by a dedicated link
thread that sends **one request per job, in FIFO order**: rounds of a
series reach every replica in the order the gateway routed them, which
the order-sensitive history-aware voters require.  Coalescing happens
once, upstream, in the ingest tier's ``vote_batch`` flushes.

Failover is a property of the link, not the caller: every
gateway→backend exchange runs under the shared
:class:`~repro.cluster.retry.RetryPolicy` and a per-backend
:class:`~repro.cluster.retry.CircuitBreaker`, so a dead shard fails
fast after its first timeout and the majority read carries on with the
surviving replicas.  A supervisor callback hears about the failure and
can restart the shard (see :mod:`repro.cluster.supervisor`).  A shard
that *answers* with an error is healthy: its error passes through to
the caller.
"""

from __future__ import annotations

import json
import marshal
import queue
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import ReproError
from ..obs import ClusterInstruments, MetricsRegistry, get_default_registry
from ..service.client import ServiceError, VoterClient
from ..service.protocol import (
    ConnectionClosedError,
    ErrorCode,
    ProtocolError,
    ok_response,
    validate_request,
)
from ..service.server import ServerCore, _numeric
from ..vdx.spec import VotingSpec
from .retry import CircuitBreaker, RetryPolicy, call_with_retry
from .ring import HashRing

__all__ = ["ClusterGateway"]

_STOP = object()

#: Disagreeing rounds the gateway remembers for ``cluster_stats``.
DISAGREEMENT_LOG_SIZE = 64


def _plurality(answers: List[Tuple[str, Any]]) -> Tuple[Any, bool]:
    """The most common payload among replica answers, and whether they
    differ at all.  Payloads group by their canonical JSON; ties go to
    replica order."""
    counts: Dict[str, List[Any]] = {}
    for _, payload in answers:
        key = json.dumps(payload, sort_keys=True, default=str)
        counts.setdefault(key, [0, payload])[0] += 1
    best_count = -1
    best_payload = None
    for count, payload in counts.values():
        if count > best_count:
            best_count, best_payload = count, payload
    return best_payload, len(counts) > 1


def _image(payload: Any) -> Optional[bytes]:
    """A type-exact byte image of a decoded payload (None: not imageable).

    ``marshal`` format 2 writes no back-references and tags ints, floats
    and bools apart, with floats as their IEEE bytes, so equal images
    mean equal canonical JSON.  ``==`` is looser: it calls ``-0.0`` and
    ``0.0``, or ``1`` and ``1.0``, equal.  Unequal images may still be
    equal JSON (dict keys in another order, say); :func:`_plurality`
    settles those.
    """
    try:
        return marshal.dumps(payload, 2)
    except ValueError:
        return None


class _Job:
    """One request to a backend that a client handler thread waits on."""

    __slots__ = ("payload", "event", "result", "error")

    def __init__(self, payload: Dict[str, Any]):
        self.payload = payload
        self.event = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None

    def finish(self, result: Any) -> None:
        self.result = result
        self.event.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.event.set()


class _BackendLink:
    """One backend's connection, FIFO queue, and worker thread."""

    def __init__(
        self,
        backend_id: str,
        address: Tuple[str, int],
        policy: RetryPolicy,
        breaker: CircuitBreaker,
        obs: ClusterInstruments,
        on_failure: Callable[[str], None],
        timeout: float = 30.0,
    ):
        self.backend_id = backend_id
        self.address = tuple(address)
        self.policy = policy
        self.breaker = breaker
        self.obs = obs
        self.on_failure = on_failure
        self.timeout = timeout
        self.alive = True
        #: A fenced link is excluded from all routing (it missed a
        #: cluster-wide state change, e.g. a partial ``configure``) until
        #: the supervisor reconfigures or restarts its backend.
        self.fenced = False
        self.requests_sent = 0
        self.failures = 0
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._client: Optional[VoterClient] = None
        self._reconnect = False
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=f"link-{backend_id}"
        )
        self._thread.start()

    # -- control (gateway thread) -----------------------------------------

    def enqueue(self, job: _Job) -> None:
        self._queue.put(job)

    def update_address(self, address: Tuple[str, int]) -> None:
        """Point the link at a restarted backend and close the breaker."""
        self.address = tuple(address)
        self._reconnect = True
        self.alive = True
        self.fenced = False
        self.breaker.record_success()

    def stop(self) -> None:
        self._queue.put(_STOP)
        self._thread.join(timeout=5.0)

    # -- worker ------------------------------------------------------------

    def _run(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                if self._client is not None:
                    self._client.close()
                return
            try:
                job.finish(self._request(job.payload))
            except Exception as exc:  # noqa: BLE001 - delivered to the waiter
                job.fail(exc)

    def _request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        def attempt() -> Dict[str, Any]:
            if self._reconnect and self._client is not None:
                self._client.close()
                self._client = None
                self._reconnect = False
            if self._client is None:
                client = VoterClient(*self.address, timeout=self.timeout)
                client.connect()
                # Reject mismatched peers up front; upgrades the link
                # to v3 binary framing when the shard supports it.
                client.negotiate("auto")
                self._client = client
            try:
                return self._client.request(message)
            except (ConnectionClosedError, OSError):
                self._client.close()
                self._client = None
                raise

        self.requests_sent += 1
        self.obs.shard_request(self.backend_id)
        try:
            response = call_with_retry(
                attempt,
                self.policy,
                retry_on=(ConnectionClosedError, OSError),
                breaker=self.breaker,
            )
        except ServiceError:
            raise  # the shard answered: it is healthy, the request was not
        except Exception:
            self.failures += 1
            self.alive = False
            self.obs.shard_error(self.backend_id)
            self.on_failure(self.backend_id)
            raise
        self.alive = True
        return response


class ClusterGateway(ServerCore):
    """Failover-aware front door for a sharded fusion cluster.

    Args:
        spec: the voting scheme every shard hosts.
        ring: consistent-hash ring over backend ids (owned by the
            caller; a supervisor mutates it on join/leave).
        host / port: bind address (port 0 picks a free port).
        retry: backoff policy for gateway→backend calls.
        breaker_threshold / breaker_reset: per-backend circuit breaker.
        replica_timeout: how long a request waits for its replica set.
        default_series: series key used when a request carries none, so
            a plain :class:`~repro.service.client.VoterClient` works
            against the gateway unchanged.
        registry: metrics registry (default: the process-global one).
    """

    #: The gateway replays safely: routed votes are deduplicated by the
    #: shard replay caches, so clients may re-send after a drop.
    _replays_votes = True
    _unsupported_by = "the gateway"

    def __init__(
        self,
        spec: VotingSpec,
        ring: HashRing,
        host: str = "127.0.0.1",
        port: int = 0,
        retry: Optional[RetryPolicy] = None,
        breaker_threshold: int = 3,
        breaker_reset: float = 1.0,
        replica_timeout: float = 30.0,
        default_series: str = "default",
        registry: Optional[MetricsRegistry] = None,
    ):
        self.spec = spec
        self.ring = ring
        self.retry = retry if retry is not None else RetryPolicy(
            max_retries=2, base_delay=0.05, max_delay=0.5
        )
        self.breaker_threshold = breaker_threshold
        self.breaker_reset = breaker_reset
        self.replica_timeout = replica_timeout
        self.default_series = default_series
        self.registry = registry if registry is not None else get_default_registry()
        self._obs = ClusterInstruments(self.registry)
        self._links: Dict[str, _BackendLink] = {}
        self._series: set = set()
        #: Backends mid-resync after a restart: their history may lag
        #: the surviving replicas, so they are excluded from routing
        #: (unless no fresh replica remains) until the catch-up lands.
        self._stale: set = set()
        self._lock = threading.Lock()
        self._failure_callback: Optional[Callable[[str], None]] = None
        self.requests_served = 0
        #: The latest disagreeing rounds: series, round and every
        #: answering backend's payload, oldest first.
        self._disagreements: "deque[Dict[str, Any]]" = deque(
            maxlen=DISAGREEMENT_LOG_SIZE
        )
        self._obs.backends_alive.set_function(
            lambda: float(sum(1 for link in self._links.values() if link.alive))
        )
        super().__init__(host, port)

    def stop(self) -> None:
        super().stop()
        with self._lock:
            links, self._links = dict(self._links), {}
        for link in links.values():
            link.stop()

    # -- backend membership --------------------------------------------------

    def set_failure_callback(self, callback: Callable[[str], None]) -> None:
        """Called (from a link thread) when a backend stops answering."""
        self._failure_callback = callback

    def _on_link_failure(self, backend_id: str) -> None:
        callback = self._failure_callback
        if callback is not None:
            callback(backend_id)

    def add_backend(self, backend_id: str, address: Tuple[str, int]) -> None:
        with self._lock:
            if backend_id in self._links:
                raise ReproError(f"backend {backend_id!r} already attached")
            self._links[backend_id] = _BackendLink(
                backend_id,
                address,
                self.retry,
                CircuitBreaker(self.breaker_threshold, self.breaker_reset),
                self._obs,
                self._on_link_failure,
                timeout=self.replica_timeout,
            )

    def remove_backend(self, backend_id: str) -> None:
        with self._lock:
            link = self._links.pop(backend_id, None)
            self._stale.discard(backend_id)
        if link is not None:
            link.stop()

    def update_backend(self, backend_id: str, address: Tuple[str, int]) -> None:
        """Re-point a link after its backend restarted on a new port."""
        with self._lock:
            link = self._links.get(backend_id)
        if link is None:
            raise ReproError(f"no backend {backend_id!r} attached")
        link.update_address(address)

    def mark_stale(self, backend_id: str) -> None:
        """Exclude a backend from routing until :meth:`resync_backend`.

        Called by the supervisor *before* re-pointing the gateway at a
        restarted backend, so a shard whose history lags the surviving
        replicas never answers (and never wins a majority tie) while it
        is catching up.
        """
        with self._lock:
            self._stale.add(backend_id)

    def clear_stale(self, backend_id: str) -> None:
        with self._lock:
            self._stale.discard(backend_id)

    def _fence(self, backend_id: str) -> None:
        link = self._link(backend_id)
        if link is not None:
            link.fenced = True

    def fenced_backends(self) -> Tuple[str, ...]:
        """Backends excluded from routing pending supervisor repair."""
        with self._lock:
            return tuple(
                sorted(bid for bid, link in self._links.items() if link.fenced)
            )

    def resync_backend(self, backend_id: str) -> Dict[str, Any]:
        """Catch a restarted (stale) backend up and re-enable it.

        For every series the backend replicates, reads the history of a
        fresh surviving replica and pushes it to the backend as a
        *versioned* ``sync_history`` (records + update counter + voted
        watermark), then clears the stale mark.  Runs under the routing
        lock: no vote can be routed while the seed is in flight, and
        link queues are FIFO, so the donor's snapshot observes every
        vote routed before the lock was taken and the seed lands on the
        victim before any vote routed after it — which is what makes
        post-failover fused values bit-identical.

        Series with no fresh survivor are skipped: nothing could have
        been voted during the outage, so the backend's own on-disk
        history is already canonical.
        """
        with self._lock:
            victim = self._links.get(backend_id)
            if victim is None:
                raise ReproError(f"no backend {backend_id!r} attached")
            plan: List[Tuple[str, List[_BackendLink]]] = []
            for series in sorted(self._series):
                replicas = self.ring.replica_set(series)
                if backend_id not in replicas:
                    continue
                donors = [
                    self._links[peer]
                    for peer in replicas
                    if peer != backend_id
                    and peer not in self._stale
                    and peer in self._links
                    and not self._links[peer].fenced
                ]
                plan.append((series, donors))
            synced, skipped = 0, 0
            for series, donors in plan:
                snapshot: Optional[Dict[str, Any]] = None
                for donor in donors:
                    job = _Job({"op": "history", "series": series})
                    donor.enqueue(job)
                    if not job.event.wait(self.replica_timeout):
                        continue
                    if job.error is not None or not job.result.get("records"):
                        continue  # donor never hosted the series: next
                    snapshot = job.result
                    break
                if snapshot is None:
                    skipped += 1
                    continue
                message: Dict[str, Any] = {
                    "op": "sync_history",
                    "series": series,
                    "records": snapshot["records"],
                }
                if snapshot.get("updates") is not None:
                    message["updates"] = int(snapshot["updates"])
                if snapshot.get("watermark") is not None:
                    message["watermark"] = int(snapshot["watermark"])
                job = _Job(message)
                victim.enqueue(job)
                if job.event.wait(self.replica_timeout) and job.error is None:
                    synced += 1
                else:
                    skipped += 1
            self._stale.discard(backend_id)
        return {"backend": backend_id, "synced": synced, "skipped": skipped}

    @contextmanager
    def membership(self):
        """Hold the routing lock while mutating the shared ring.

        The supervisor rebalances by changing ring membership; routing
        reads the ring under the same lock, so mutations inside this
        window are atomic with respect to in-flight requests.
        """
        with self._lock:
            yield self.ring

    def known_series(self) -> Tuple[str, ...]:
        """Every series key the gateway has routed so far."""
        with self._lock:
            return tuple(sorted(self._series))

    def _register_series(self, series: str) -> None:
        with self._lock:
            self._series.add(series)

    def _replicas(self, series: str) -> List[str]:
        with self._lock:
            return self.ring.replica_set(series)

    def _link(self, backend_id: str) -> Optional[_BackendLink]:
        with self._lock:
            return self._links.get(backend_id)

    def _route(self, series: str) -> List[Tuple[str, _BackendLink]]:
        """The replica links eligible to serve a series, ring order.

        Fenced links never serve.  Stale (mid-resync) links are skipped
        while any fresh replica remains; when none does (replicas=1, or
        every replica restarting at once) the stale set is the best
        available answer and is used as a fallback.
        """
        with self._lock:
            replicas = self.ring.replica_set(series)
            fresh: List[Tuple[str, _BackendLink]] = []
            stale: List[Tuple[str, _BackendLink]] = []
            for backend_id in replicas:
                link = self._links.get(backend_id)
                if link is None or link.fenced:
                    continue
                bucket = stale if backend_id in self._stale else fresh
                bucket.append((backend_id, link))
            return fresh if fresh else stale

    # -- fan-out machinery ---------------------------------------------------

    def _await_jobs(
        self, jobs: List[Tuple[str, _Job]]
    ) -> List[Tuple[str, Any]]:
        """Wait for enqueued jobs; returns (backend_id, result) successes."""
        deadline = time.monotonic() + self.replica_timeout
        successes: List[Tuple[str, Any]] = []
        for backend_id, job in jobs:
            remaining = max(0.0, deadline - time.monotonic())
            if not job.event.wait(remaining):
                job.fail(ProtocolError(f"backend {backend_id!r} timed out"))
                continue
            if job.error is None:
                successes.append((backend_id, job.result))
        return successes

    def _no_answer(
        self, series: str, errors: Sequence[Optional[BaseException]]
    ) -> ProtocolError:
        """The error for a series no replica answered.

        When every replica answered with an error of one code (say
        ``already_voted``), that is the answer, not a missing replica.
        """
        codes = {e.code if isinstance(e, ServiceError) else None for e in errors}
        if len(codes) == 1 and None not in codes:
            try:
                return ProtocolError(str(errors[0]), code=ErrorCode(codes.pop()))
            except ValueError:
                pass  # a code this gateway does not know
        return ProtocolError(
            f"no replica answered for series {series!r} "
            f"(replica set: {self._replicas(series)})",
            code=ErrorCode.NO_REPLICA,
        )

    def _fan_out(self, series: str, request: Dict[str, Any]) -> List[Tuple[str, Any]]:
        """Enqueue one job per eligible replica of ``series`` and await."""
        routed = self._route(series)
        jobs: List[Tuple[str, _Job]] = []
        for backend_id, link in routed:
            job = _Job(request)
            link.enqueue(job)
            jobs.append((backend_id, job))
        if not jobs:
            raise ProtocolError(
                f"no backends attached for series {series!r}",
                code=ErrorCode.NO_REPLICA,
            )
        successes = self._await_jobs(jobs)
        if not successes:
            raise self._no_answer(series, [job.error for _, job in jobs])
        return successes

    def _majority(self, answers: List[Tuple[str, Any]]) -> Any:
        """Majority value among replica answers (ties: replica order)."""
        payload, disagreed = _plurality(answers)
        if disagreed:
            self._obs.replica_disagreements.inc()
        return payload

    def _merge_rounds(
        self,
        series: str,
        rounds: Sequence[int],
        answers: List[Tuple[str, List[Any]]],
    ) -> List[Any]:
        """One batch's round answers, merged over its replicas.

        ``answers`` holds each answering replica's list of round answers,
        primary first.  Healthy replicas agree bit for bit, so one
        comparison settles the batch: when every list has the primary's
        :func:`_image`, the primary's list is the answer.  Otherwise each
        round is merged as :meth:`_majority` merges a reply, and each
        disagreeing round is counted and logged.
        """
        primary = answers[0][1]
        if len(primary) == len(rounds):
            if len(answers) == 1:
                return primary
            image = _image(primary)
            if image is not None and all(
                _image(rows) == image for _, rows in answers[1:]
            ):
                return primary
        merged = []
        for k, number in enumerate(rounds):
            replies = [(bid, rows[k]) for bid, rows in answers]
            payload, disagreed = _plurality(replies)
            if disagreed:
                self._obs.replica_disagreements.inc()
                self._disagreements.append(
                    {"series": series, "round": number, "answers": dict(replies)}
                )
            merged.append(payload)
        return merged

    def _forward_first(self, series: str, request: Dict[str, Any]) -> Dict[str, Any]:
        """Send a read to the first eligible replica that answers
        (primary first; stale replicas only as a last resort)."""
        last_error: Optional[BaseException] = None
        for backend_id, link in self._route(series):
            job = _Job(request)
            link.enqueue(job)
            successes = self._await_jobs([(backend_id, job)])
            if successes:
                return successes[0][1]
            last_error = job.error
        if isinstance(last_error, ReproError):
            raise last_error
        raise ProtocolError(
            f"no replica answered for series {series!r}",
            code=ErrorCode.NO_REPLICA,
        )

    def _broadcast_collect(
        self, request: Dict[str, Any]
    ) -> Tuple[List[Tuple[str, Any]], List[str]]:
        """Send a request to every unfenced backend; collect results.

        Returns ``(successes, failed)`` where ``successes`` is the list
        of ``(backend_id, response)`` pairs that answered in time and
        ``failed`` the sorted ids that did not.
        """
        with self._lock:
            targets = [
                (bid, link) for bid, link in self._links.items()
                if not link.fenced
            ]
        jobs = []
        for backend_id, link in targets:
            job = _Job(request)
            link.enqueue(job)
            jobs.append((backend_id, job))
        successes = self._await_jobs(jobs)
        acked = {backend_id for backend_id, _ in successes}
        failed = sorted(bid for bid, _ in jobs if bid not in acked)
        return successes, failed

    def _broadcast(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Send a request to every unfenced backend; report per-id acks."""
        successes, failed = self._broadcast_collect(request)
        return {
            "sent": len(successes) + len(failed),
            "acknowledged": len(successes),
            "failed": failed,
        }

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Handle one validated request.  There is no global lock:
        requests from different client connections proceed in parallel,
        and each link keeps its backend's requests in FIFO order."""
        op = validate_request(request)
        self.requests_served += 1
        self._obs.requests.labels(op).inc()
        return self._handler(op)(request)

    # -- local operations ----------------------------------------------------

    def _op_ping(self, request) -> Dict[str, Any]:
        return ok_response(pong=True, role="gateway")

    def _op_metrics(self, request) -> Dict[str, Any]:
        """Local Prometheus text; per-shard text on ``"shards": true``."""
        response = ok_response(metrics=self.registry.render())
        if request.get("shards"):
            successes, failed = self._broadcast_collect({"op": "metrics"})
            response["shard_metrics"] = {
                backend_id: payload.get("metrics", "")
                for backend_id, payload in sorted(successes)
            }
            response["shard_failures"] = failed
        return response

    def _op_obs(self, request) -> Dict[str, Any]:
        """Aggregated registry snapshots: the gateway's own plus every
        answering backend's (the dashboard/scrape aggregation op)."""
        successes, failed = self._broadcast_collect({"op": "obs"})
        return ok_response(
            snapshot=self.registry.snapshot(),
            shards={
                backend_id: payload.get("snapshot", {})
                for backend_id, payload in sorted(successes)
            },
            shard_failures=failed,
        )

    def _op_route(self, request) -> Dict[str, Any]:
        series = request["series"]
        replicas = self._replicas(series)
        addresses = []
        for backend_id in replicas:
            link = self._link(backend_id)
            addresses.append(list(link.address) if link is not None else None)
        return ok_response(series=series, replicas=replicas, addresses=addresses)

    @staticmethod
    def _backend_status(link: "_BackendLink", stale: bool) -> str:
        """One word a caller can branch (or color a dashboard) on.

        Priority order matters: a fenced backend must never read as
        healthy even if its link still answers pings, and a stale one
        is excluded from routing even though it is alive.
        """
        if link.fenced:
            return "fenced"
        if stale:
            return "stale"
        if not link.alive:
            return "dead"
        return "alive"

    def _op_cluster_stats(self, request) -> Dict[str, Any]:
        with self._lock:
            links = dict(self._links)
            stale = set(self._stale)
            ring_nodes = list(self.ring.nodes)
            series_count = len(self._series)
        backends = {
            backend_id: {
                "address": list(link.address),
                "alive": link.alive,
                "fenced": link.fenced,
                "stale": backend_id in stale,
                "status": self._backend_status(link, backend_id in stale),
                "breaker": link.breaker.state,
                "requests": link.requests_sent,
                "failures": link.failures,
            }
            for backend_id, link in sorted(links.items())
        }
        by_status: Dict[str, int] = {}
        for info in backends.values():
            by_status[info["status"]] = by_status.get(info["status"], 0) + 1
        return ok_response(
            ring={
                "backends": ring_nodes,
                "replicas": self.ring.replicas,
                "vnodes": self.ring.vnodes,
            },
            backends=backends,
            backends_by_status=by_status,
            series_routed=series_count,
            requests_served=self.requests_served,
            recent_disagreements=list(self._disagreements),
        )

    # -- routed operations ---------------------------------------------------

    def _op_vote(self, request) -> Dict[str, Any]:
        series = request.get("series", self.default_series)
        self._register_series(series)
        values = {str(m): _numeric(m, v) for m, v in request["values"].items()}
        batch = {
            "series": series,
            "rounds": [request["round"]],
            "modules": list(values),
            "rows": [list(values.values())],
        }
        answers = self._fan_out(series, {"op": "vote_batch", "batches": [batch]})
        merged = self._merge_rounds(
            series,
            batch["rounds"],
            [(bid, r["results"][0]["results"]) for bid, r in answers],
        )
        return ok_response(result=merged[0], replicas_answered=len(answers))

    def _op_vote_batch(self, request) -> Dict[str, Any]:
        batches = request["batches"]
        replica_map: List[List[str]] = []
        per_backend: Dict[str, List[int]] = {}
        links: Dict[str, _BackendLink] = {}
        for index, batch in enumerate(batches):
            series = batch["series"]
            self._register_series(series)
            routed = self._route(series)
            replica_map.append([backend_id for backend_id, _ in routed])
            for backend_id, link in routed:
                links[backend_id] = link
                per_backend.setdefault(backend_id, []).append(index)
        jobs: Dict[str, Tuple[_Job, List[int]]] = {}
        for backend_id, indices in per_backend.items():
            job = _Job(
                {"op": "vote_batch", "batches": [batches[i] for i in indices]}
            )
            links[backend_id].enqueue(job)
            jobs[backend_id] = (job, indices)
        if not jobs:
            raise ProtocolError(
                "no backends attached", code=ErrorCode.NO_REPLICA
            )
        self._await_jobs([(bid, job) for bid, (job, _) in jobs.items()])
        collected: Dict[int, Dict[str, Any]] = {}
        for backend_id, (job, indices) in jobs.items():
            if job.error is not None:
                continue
            for slot, index in enumerate(indices):
                collected.setdefault(index, {})[backend_id] = (
                    job.result["results"][slot]["results"]
                )
        results = []
        for index, batch in enumerate(batches):
            answers_by_backend = collected.get(index)
            if not answers_by_backend:
                raise self._no_answer(
                    batch["series"],
                    [job.error for bid, (job, indices) in jobs.items()
                     if index in indices],
                )
            # Order answers primary-first so majority ties resolve the
            # same way every time.
            ordered = [
                (bid, answers_by_backend[bid])
                for bid in replica_map[index]
                if bid in answers_by_backend
            ]
            merged = self._merge_rounds(batch["series"], batch["rounds"], ordered)
            results.append({"series": batch["series"], "results": merged})
        return ok_response(results=results)

    def _op_submit(self, request) -> Dict[str, Any]:
        series = request.get("series", self.default_series)
        self._register_series(series)
        forwarded = dict(request)
        forwarded["series"] = series
        answers = self._fan_out(series, forwarded)
        return self._majority(answers)

    def _op_close_round(self, request) -> Dict[str, Any]:
        series = request.get("series", self.default_series)
        forwarded = dict(request)
        forwarded["series"] = series
        answers = self._fan_out(series, forwarded)
        return self._majority(answers)

    def _op_history(self, request) -> Dict[str, Any]:
        series = request.get("series", self.default_series)
        forwarded = dict(request)
        forwarded["series"] = series
        return self._forward_first(series, forwarded)

    def _op_stats(self, request) -> Dict[str, Any]:
        series = request.get("series", self.default_series)
        forwarded = dict(request)
        forwarded["series"] = series
        return self._forward_first(series, forwarded)

    def _op_reset(self, request) -> Dict[str, Any]:
        series = request.get("series")
        if series is not None:
            forwarded = dict(request)
            answers = self._fan_out(series, forwarded)
            return self._majority(answers)
        summary = self._broadcast({"op": "reset"})
        with self._lock:
            self._series.clear()
        return ok_response(reset=True, **summary)

    def _op_configure(self, request) -> Dict[str, Any]:
        """Two-phase scheme swap: probe all backends, then commit.

        Phase 1 pings every unfenced backend; any miss aborts *before*
        a single backend is reconfigured, so the cluster stays uniform
        on the old spec.  Phase 2 commits; a backend that crashes in
        the window between the phases is **fenced** — excluded from all
        routing until the supervisor restarts it on the new spec — so
        the cluster never serves mixed-spec majorities.
        """
        spec = VotingSpec.from_dict(request["spec"])
        probe = self._broadcast({"op": "ping"})
        if probe["failed"]:
            raise ProtocolError(
                "configure aborted: backends "
                f"{probe['failed']} unreachable; no backend was "
                "reconfigured — cluster keeps the current spec"
            )
        summary = self._broadcast(dict(request))
        for backend_id in summary["failed"]:
            self._fence(backend_id)
        self.spec = spec
        with self._lock:
            self._series.clear()
        return ok_response(
            configured=True,
            algorithm_name=spec.algorithm_name,
            fenced=summary["failed"],
            **summary,
        )
