"""The async ingestion gateway: massive sensor fan-in over asyncio.

One :class:`AsyncIngestServer` holds tens of thousands of concurrent
sensor connections on a single event loop and funnels their votes into
a synchronous fusion sink — a
:class:`~repro.service.server.VoterServer`, a
:class:`~repro.cluster.backend.ShardServer` or (the intended
deployment) a :class:`~repro.cluster.gateway.ClusterGateway` — through
a :class:`~repro.ingest.bridge.ThreadBridge`.

Three mechanisms keep the tier stable under overload:

* **Vote coalescing** — ``vote`` requests buffer briefly
  (``coalesce_window``) and flush as one ``vote_batch`` through the
  sink's vectorised ``process_batch`` path.  Exactly one flush is in
  flight at a time, so per-series round order is preserved end to end
  (history-aware voters are order-sensitive); the cluster gateway still
  fans each batch across shards internally, so parallelism is not lost.
* **Backpressure** — bounded vote queues, per connection and global.
  A vote over either bound is refused immediately with an
  ``ErrorCode.BACKPRESSURE`` envelope instead of buffering without
  limit; refusals are counted (``ingest_backpressure_drops_total``).
* **Slow-consumer disconnect** — a peer that stops draining responses
  is given ``drain_grace`` seconds, then dropped, so one dead sensor
  cannot pin response buffers forever.

The wire protocol is the same dual-framed protocol the sync servers
speak (JSON lines *and* v3 binary frames, detected per message by
first byte), so any :class:`~repro.service.client.VoterClient` or
:func:`repro.connect` facade works unchanged against this tier.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Dict, List, Optional, Set, Tuple

from ..obs import IngestInstruments, MetricsRegistry, get_default_registry
from ..service.protocol import (
    FRAME_HEADER,
    FRAME_MAGIC,
    MAX_LINE_BYTES,
    ErrorCode,
    ProtocolError,
    decode_frame_header,
    decode_frame_payload,
    decode_message,
    encode_frame,
    encode_message,
    error_response,
    error_response_for,
    ok_response,
    validate_request,
)
from .bridge import ThreadBridge

__all__ = ["AsyncIngestServer"]

#: Sentinel closing a connection's response queue.
_CLOSE = object()


class _PendingVote:
    """One coalesced vote waiting for the next batch flush."""

    __slots__ = ("conn", "request", "series", "modules", "row", "future")

    def __init__(
        self,
        conn: "_Connection",
        request: Dict[str, Any],
        series: str,
        modules: Tuple[str, ...],
        row: List[Optional[float]],
        future: "asyncio.Future[Dict[str, Any]]",
    ):
        self.conn = conn
        self.request = request
        self.series = series
        self.modules = modules
        self.row = row
        self.future = future


class _Connection:
    """Per-connection state: response FIFO and backpressure accounting."""

    __slots__ = ("writer", "responses", "queued_votes", "closed")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        #: FIFO of ``(future_or_response, binary, fatal)`` — responses
        #: are written strictly in request-arrival order.
        self.responses: "asyncio.Queue[Any]" = asyncio.Queue()
        self.queued_votes = 0
        self.closed = False


class AsyncIngestServer:
    """Async fan-in tier in front of a synchronous fusion sink.

    Args:
        sink: any object with a blocking ``dispatch(request) -> dict``
            (``VoterServer``, ``ShardServer``, ``ClusterGateway``).
        host: bind address (default loopback).
        port: bind port; 0 picks a free port (see :attr:`address`).
        max_connections: connections beyond this are refused with a
            ``BACKPRESSURE`` envelope.
        max_queued_votes: global bound on buffered, unflushed votes.
        max_queued_per_connection: per-connection bound on buffered
            votes (a single runaway sensor cannot exhaust the global
            budget).
        coalesce_window: seconds to linger after the first buffered
            vote before flushing, letting a burst coalesce into one
            ``vote_batch`` (0 flushes as fast as the flush loop spins).
        drain_grace: seconds a peer may take to drain a response
            before it is disconnected as a slow consumer.
        bridge_workers: thread-pool size for the sync sink bridge.
        write_buffer_high: transport write high-water mark in bytes
            (``None`` keeps the asyncio default); lower it in tests to
            exercise the slow-consumer path without megabytes of data.
        registry: metrics registry (default: the process-global one).
    """

    def __init__(
        self,
        sink: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 10_000,
        max_queued_votes: int = 4096,
        max_queued_per_connection: int = 64,
        coalesce_window: float = 0.002,
        drain_grace: float = 5.0,
        bridge_workers: int = 4,
        write_buffer_high: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.sink = sink
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.max_queued_votes = max_queued_votes
        self.max_queued_per_connection = max_queued_per_connection
        self.coalesce_window = coalesce_window
        self.drain_grace = drain_grace
        #: Transport write high-water mark; ``drain()`` blocks beyond
        #: it, which is what arms the slow-consumer timeout.  ``None``
        #: keeps the asyncio default (64 KiB).
        self.write_buffer_high = write_buffer_high
        self.registry = registry if registry is not None else get_default_registry()
        self.obs = IngestInstruments(self.registry)
        self.address: Optional[Tuple[str, int]] = None

        self._bridge = ThreadBridge(sink, workers=bridge_workers)
        self._batch_capable = hasattr(sink, "_op_vote_batch")
        self._default_series = getattr(sink, "default_series", None)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._startup_error: Optional[BaseException] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._closing = False
        self._connections: Set[_Connection] = set()
        self._conn_tasks: Set["asyncio.Task[Any]"] = set()
        self._pending: List[_PendingVote] = []
        self._queued_total = 0
        self._votes_available: Optional[asyncio.Event] = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "AsyncIngestServer":
        """Start the loop thread; returns once :attr:`address` is bound."""
        if self._thread is not None:
            return self
        self._bridge.start()
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop, args=(ready,), name="ingest-loop", daemon=True
        )
        self._thread.start()
        ready.wait()
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            self._bridge.stop()
            raise self._startup_error
        return self

    def stop(self) -> None:
        """Stop serving: close connections, drain the loop, stop the bridge."""
        if self._thread is None:
            return
        loop, thread = self._loop, self._thread
        assert loop is not None
        def _signal() -> None:
            assert self._stop_event is not None
            self._stop_event.set()
        loop.call_soon_threadsafe(_signal)
        thread.join(timeout=10.0)
        # Stop the bridge while the loop is still open: a worker that is
        # finishing a request hands its answer to the loop on the way out.
        self._bridge.stop()
        loop.close()
        self._thread = None
        self._loop = None

    def __enter__(self) -> "AsyncIngestServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- event loop bootstrap ---------------------------------------------

    def _run_loop(self, ready: threading.Event) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        try:
            self._stop_event = asyncio.Event()
            self._votes_available = asyncio.Event()
            server = self._loop.run_until_complete(
                asyncio.start_server(
                    self._serve_connection,
                    self.host,
                    self.port,
                    limit=MAX_LINE_BYTES + 1024,
                )
            )
            self._server = server
            sockname = server.sockets[0].getsockname()
            self.address = (sockname[0], sockname[1])
        except BaseException as exc:
            self._startup_error = exc
            ready.set()
            return
        ready.set()
        try:
            self._loop.run_until_complete(self._main())
        finally:
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )

    async def _main(self) -> None:
        flush_task = asyncio.ensure_future(self._coalesce_loop())
        assert self._stop_event is not None
        await self._stop_event.wait()
        self._closing = True
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        assert self._votes_available is not None
        self._votes_available.set()  # wake the flush loop so it can exit
        await flush_task
        for conn in list(self._connections):
            self._close_connection(conn)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    # -- connection handling ----------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        if self._closing or len(self._connections) >= self.max_connections:
            try:
                writer.write(
                    encode_message(
                        error_response(
                            "ingest tier at connection capacity",
                            code=ErrorCode.BACKPRESSURE,
                        )
                    )
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            finally:
                writer.close()
            return
        if self.write_buffer_high is not None:
            writer.transport.set_write_buffer_limits(high=self.write_buffer_high)
        conn = _Connection(writer)
        self._connections.add(conn)
        self.obs.open_connections.inc()
        responder = asyncio.ensure_future(self._responder(conn))
        try:
            await self._read_loop(reader, conn)
        finally:
            conn.responses.put_nowait(_CLOSE)
            try:
                await responder
            except asyncio.CancelledError:
                pass
            self._connections.discard(conn)
            self.obs.open_connections.inc(-1.0)
            conn.closed = True
            writer.close()

    async def _read_loop(
        self, reader: asyncio.StreamReader, conn: _Connection
    ) -> None:
        while True:
            try:
                request, binary = await self._read_message(reader)
            except asyncio.IncompleteReadError:
                return  # clean EOF
            except (ConnectionError, OSError):
                return
            except ProtocolError as exc:
                # A bad frame header or an oversized message poisons the
                # stream — the next byte is not a message boundary.
                # Answer, then hang up.
                conn.responses.put_nowait((error_response_for(exc), False, True))
                return
            if request is None:
                continue  # blank line between JSON messages
            self._route_request(conn, request, binary)

    async def _read_message(
        self, reader: asyncio.StreamReader
    ) -> Tuple[Optional[Dict[str, Any]], bool]:
        """Read one message; returns ``(message, was_binary)``."""
        first = await reader.readexactly(1)
        if first[0] == FRAME_MAGIC:
            header = first + await reader.readexactly(FRAME_HEADER.size - 1)
            length = decode_frame_header(header)  # may raise ProtocolError
            payload = await reader.readexactly(length)
            self.obs.frames_v3_binary.inc()
            return decode_frame_payload(payload), True
        try:
            rest = await reader.readline()
        except ValueError:
            raise ProtocolError(
                "message line exceeds protocol maximum",
                code=ErrorCode.FRAME_TOO_LARGE,
            )
        line = (first + rest).strip()
        if not line:
            return None, False
        self.obs.frames_v2_json.inc()
        return decode_message(line), False

    def _route_request(
        self, conn: _Connection, request: Dict[str, Any], binary: bool
    ) -> None:
        """Classify one request: coalesce votes, bridge everything else."""
        if request.get("op") == "vote":
            try:
                validate_request(request)
            except ProtocolError as exc:
                conn.responses.put_nowait((error_response_for(exc), binary, False))
                return
            series = request.get("series", self._default_series)
            if self._batch_capable and isinstance(series, str):
                if (
                    self._queued_total >= self.max_queued_votes
                    or conn.queued_votes >= self.max_queued_per_connection
                ):
                    self.obs.backpressure_drops.inc()
                    conn.responses.put_nowait(
                        (
                            error_response(
                                "ingest vote queue is full, retry later",
                                code=ErrorCode.BACKPRESSURE,
                            ),
                            binary,
                            False,
                        )
                    )
                    return
                conn.responses.put_nowait(
                    (self._enqueue_vote(conn, request, series), binary, False)
                )
                return
        conn.responses.put_nowait((self._dispatch(request), binary, False))

    async def _responder(self, conn: _Connection) -> None:
        """Write responses in request order; drop slow consumers."""
        try:
            while True:
                item = await conn.responses.get()
                if item is _CLOSE:
                    return
                pending, binary, fatal = item
                if isinstance(pending, dict):
                    response = pending
                else:
                    try:
                        response = await pending
                    except (ProtocolError, Exception) as exc:
                        response = error_response_for(exc)
                try:
                    conn.writer.write(
                        encode_frame(response) if binary else encode_message(response)
                    )
                    await asyncio.wait_for(conn.writer.drain(), self.drain_grace)
                except asyncio.TimeoutError:
                    self.obs.slow_consumer_disconnects.inc()
                    conn.writer.close()
                    return
                except (ConnectionError, OSError):
                    return
                if fatal:
                    return
        finally:
            self._drain_responses(conn)

    def _drain_responses(self, conn: _Connection) -> None:
        """Consume leftover queued responses so futures don't warn."""
        while True:
            try:
                item = conn.responses.get_nowait()
            except asyncio.QueueEmpty:
                return
            if item is _CLOSE:
                continue
            pending = item[0]
            if isinstance(pending, asyncio.Future):
                pending.add_done_callback(_consume_result)

    def _close_connection(self, conn: _Connection) -> None:
        if not conn.closed:
            conn.closed = True
            conn.responses.put_nowait(_CLOSE)
            conn.writer.close()

    # -- sink dispatch -----------------------------------------------------

    def _dispatch(self, request: Dict[str, Any]) -> "asyncio.Future[Dict[str, Any]]":
        """Run one request on the sync sink; resolves on the loop."""
        assert self._loop is not None
        loop = self._loop
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()

        def on_done(
            result: Optional[Dict[str, Any]], exc: Optional[BaseException]
        ) -> None:
            def resolve() -> None:
                if future.done():
                    return
                if exc is not None:
                    future.set_exception(exc)
                else:
                    assert result is not None
                    future.set_result(result)

            loop.call_soon_threadsafe(resolve)

        self._bridge.submit(request, on_done)
        return future

    # -- vote coalescing ---------------------------------------------------

    def _enqueue_vote(
        self, conn: _Connection, request: Dict[str, Any], series: str
    ) -> "asyncio.Future[Dict[str, Any]]":
        assert self._loop is not None and self._votes_available is not None
        values = request["values"]
        modules = tuple(str(m) for m in values)
        row = [values[m] for m in values]
        future: "asyncio.Future[Dict[str, Any]]" = self._loop.create_future()
        self._pending.append(
            _PendingVote(conn, request, series, modules, row, future)
        )
        conn.queued_votes += 1
        self._queued_total += 1
        self.obs.queued_votes.set(float(self._queued_total))
        self._votes_available.set()
        return future

    async def _coalesce_loop(self) -> None:
        assert self._votes_available is not None
        while True:
            await self._votes_available.wait()
            self._votes_available.clear()
            if self._closing:
                self._fail_pending()
                return
            if self.coalesce_window > 0:
                await asyncio.sleep(self.coalesce_window)
            pending, self._pending = self._pending, []
            if pending:
                await self._flush(pending)

    def _settle(self, vote: _PendingVote, response: Dict[str, Any]) -> None:
        vote.conn.queued_votes -= 1
        self._queued_total -= 1
        self.obs.queued_votes.set(float(self._queued_total))
        if not vote.future.done():
            vote.future.set_result(response)

    def _fail_pending(self) -> None:
        pending, self._pending = self._pending, []
        for vote in pending:
            self._settle(
                vote,
                error_response(
                    "ingest tier is shutting down", code=ErrorCode.INTERNAL
                ),
            )

    async def _flush(self, pending: List[_PendingVote]) -> None:
        """Flush buffered votes as one ``vote_batch`` (singly on error).

        Exactly one flush runs at a time (awaited from the coalesce
        loop), which is what guarantees per-series round ordering.
        """
        groups: Dict[Tuple[str, Tuple[str, ...]], List[_PendingVote]] = {}
        for vote in pending:
            groups.setdefault((vote.series, vote.modules), []).append(vote)
        batches = []
        ordered = list(groups.items())
        for (series, modules), votes in ordered:
            batches.append(
                {
                    "series": series,
                    "rounds": [v.request["round"] for v in votes],
                    "modules": list(modules),
                    "rows": [v.row for v in votes],
                }
            )
        self.obs.coalesced_rounds.observe(float(len(pending)))
        try:
            response = await self._dispatch(
                {"op": "vote_batch", "batches": batches}
            )
        except Exception:
            # One bad vote (already-voted round, non-numeric value)
            # fails a whole batch at the sink; retry singly so only the
            # offending vote answers with an error.
            await self._flush_singly(pending)
            return
        results = response["results"]
        for (key, votes), batch_result in zip(ordered, results):
            per_round = batch_result["results"]
            for vote, entry in zip(votes, per_round):
                self._settle(vote, ok_response(result=entry))

    async def _flush_singly(self, pending: List[_PendingVote]) -> None:
        self.obs.single_retries.inc(len(pending))
        for vote in pending:
            try:
                response = await self._dispatch(vote.request)
            except Exception as exc:
                self._settle(vote, error_response_for(exc))
            else:
                self._settle(vote, response)


def _consume_result(future: "asyncio.Future[Any]") -> None:
    """Retrieve a discarded future's outcome so asyncio doesn't warn."""
    if not future.cancelled():
        future.exception()
