"""The voter service: a threaded TCP server around a fusion engine.

One server hosts one voting scheme (a VDX document).  Concurrent client
connections are served by threads; all engine access is serialised by a
lock, so rounds are voted in arrival order regardless of which
connection closes them.

:class:`ServerCore` is the TCP front shared by every request/response
tier — this server, the shard backends and the cluster gateway: one
socket lifecycle, one ``hello``/``spec`` handshake and one operation
lookup.
"""

from __future__ import annotations

import math
import socket
import socketserver
import threading
import time
from typing import Any, Callable, Dict, Optional

from ..exceptions import ReproError
from ..fusion.engine import FusionEngine, FusionResult
from ..obs import MetricsRegistry, ServiceInstruments, get_default_registry
from ..types import Round
from ..vdx.factory import build_engine
from ..vdx.spec import VotingSpec
from .protocol import (
    FRAME_HEADER,
    FRAME_MAGIC,
    MAX_LINE_BYTES,
    OPERATIONS,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    ErrorCode,
    ProtocolError,
    VersionMismatchError,
    decode_frame_header,
    decode_frame_payload,
    decode_message,
    encode_frame,
    encode_message,
    error_response_for,
    ok_response,
    validate_request,
)


def _numeric(module: Any, value: Any) -> Optional[float]:
    """Coerce one submitted value to a finite float (or None).

    Raises ProtocolError instead of letting ValueError/TypeError escape
    and kill the connection handler; also rejects non-finite floats,
    which the JSON encoder (``allow_nan=False``) could not serialise
    back to the client anyway.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise ProtocolError(
            f"value for module {module!r} must be numeric or null",
            code=ErrorCode.INVALID_VALUE,
        )
    try:
        result = float(value)
    except (TypeError, ValueError):
        raise ProtocolError(
            f"value for module {module!r} must be numeric or null",
            code=ErrorCode.INVALID_VALUE,
        )
    if not math.isfinite(result):
        raise ProtocolError(
            f"value for module {module!r} must be finite",
            code=ErrorCode.INVALID_VALUE,
        )
    return result


def _result_payload(result: FusionResult) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "round": result.round_number,
        "value": result.value,
        "status": result.status,
        "excluded": list(result.excluded),
    }
    if result.outcome is not None:
        payload["eliminated"] = list(result.outcome.eliminated)
        payload["used_bootstrap"] = result.outcome.used_bootstrap
        payload["weights"] = dict(result.outcome.weights)
    return payload


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read messages (JSON lines *or* binary frames),
    dispatch, answer each in the framing it arrived in."""

    #: Framing of the message currently being read; responses (error
    #: envelopes included) mirror it.
    _binary = False

    def _read_request(self):
        """Read one message (None at EOF), detecting its framing."""
        while True:
            first = self.rfile.read(1)
            if not first:
                return None
            if first[0] == FRAME_MAGIC:
                self._binary = True
                header = first + self.rfile.read(FRAME_HEADER.size - 1)
                length = decode_frame_header(header)  # may raise ProtocolError
                payload = self.rfile.read(length)
                if len(payload) < length:
                    raise ProtocolError(
                        "connection closed mid-frame",
                        code=ErrorCode.MALFORMED_FRAME,
                    )
                return decode_frame_payload(payload)
            self._binary = False
            line = first + self.rfile.readline(MAX_LINE_BYTES + 1)
            stripped = line.strip()
            if stripped:
                return decode_message(stripped)

    def handle(self) -> None:
        while True:
            fatal = False
            try:
                try:
                    request = self._read_request()
                    if request is None:
                        return
                    service = self.server.service  # type: ignore[attr-defined]
                    response = service.dispatch(request)
                except ProtocolError as exc:
                    # A framing-level failure poisons the stream: after a
                    # bad header or an oversized frame the next byte is
                    # not a message boundary, so answer and hang up.
                    fatal = exc.code in (
                        ErrorCode.MALFORMED_FRAME, ErrorCode.FRAME_TOO_LARGE
                    )
                    response = error_response_for(exc)
                except ReproError as exc:
                    response = error_response_for(exc)
                except (TypeError, ValueError) as exc:
                    # Last-resort guard: a malformed payload must produce
                    # an error response, never a dead connection.
                    response = error_response_for(
                        ProtocolError(f"invalid request: {exc}")
                    )
            except (ConnectionResetError, BrokenPipeError):
                return
            try:
                encoded = (
                    encode_frame(response)
                    if self._binary
                    else encode_message(response)
                )
                self.wfile.write(encoded)
            except (BrokenPipeError, ConnectionResetError):
                return
            if fatal:
                return


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._open_requests: set = set()
        self._open_requests_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._open_requests_lock:
            self._open_requests.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_requests_lock:
            self._open_requests.discard(request)
        super().shutdown_request(request)

    def close_all_connections(self) -> None:
        """Sever established connections (abrupt-death fault injection).

        A graceful :meth:`VoterServer.stop` leaves open connections to
        drain naturally; killing a thread-mode shard must instead look
        like a process death, where every peer sees its socket die.
        """
        with self._open_requests_lock:
            requests = list(self._open_requests)
        for request in requests:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                request.close()
            except OSError:
                pass


class ServerCore:
    """The TCP front every request/response service shares.

    Owns the listening socket and its serving thread, the ``hello``
    handshake, the ``spec`` read and the ``_op_<name>`` lookup behind
    each subclass's ``dispatch``.  Subclasses set ``spec`` and
    implement ``dispatch(request) -> response`` plus their ``_op_*``
    handlers.

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    """

    #: Advertised in the ``hello`` handshake: does this server answer a
    #: re-sent ``vote`` with the original result (replay cache) instead
    #: of an ``already voted`` error?  The plain single-engine server is
    #: strict; shard/cluster servers override this.
    _replays_votes = False

    #: Who refuses an unknown operation, in the ``unsupported_op`` error.
    _unsupported_by = "this server"

    spec: VotingSpec

    def __init__(self, host: str, port: int):
        self._tcp: Optional[_ThreadingServer] = _ThreadingServer(
            (host, port), _Handler
        )
        self._tcp.service = self  # type: ignore[attr-defined]
        self._address = self._tcp.server_address
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle --------------------------------------------------------

    @property
    def address(self):
        """(host, port) the server is (or was) bound to."""
        return self._address

    def start(self):
        if self._tcp is None:
            raise ReproError("server already stopped")
        if self._thread is not None:
            raise ReproError("server already started")
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down and release the socket (idempotent).

        Safe to call whether or not :meth:`start` ever ran — ``__exit__``
        after a failed start must still close the bound socket — and
        safe to call repeatedly: the first call nulls out ``_tcp``, so a
        second one can never touch a closed socket.
        """
        thread, self._thread = self._thread, None
        tcp, self._tcp = self._tcp, None
        if tcp is not None:
            if thread is not None:
                tcp.shutdown()
            tcp.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- shared operations ------------------------------------------------

    def _handler(self, op: str) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
        """The ``_op_<op>`` method; an unknown operation is answered
        with an error, never a dead handler thread."""
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ProtocolError(
                f"operation {op!r} is not supported by {self._unsupported_by}",
                code=ErrorCode.UNSUPPORTED_OP,
            )
        return handler

    def _op_hello(self, request) -> Dict[str, Any]:
        """Version handshake: reject mismatched peers with a clear error.

        Every version in :data:`SUPPORTED_VERSIONS` is accepted and
        echoed back, so a v2-era peer keeps its familiar reply while a
        v3 peer additionally learns the capabilities it may use
        (``binary_framing``, ``replays_votes``, ``max_version``).
        """
        version = request["version"]
        if version not in SUPPORTED_VERSIONS:
            raise VersionMismatchError(
                f"protocol version mismatch: peer speaks {version}, "
                f"this server speaks {PROTOCOL_VERSION}"
            )
        return ok_response(
            version=version,
            server=type(self).__name__,
            replays_votes=self._replays_votes,
            binary_framing=True,
            max_version=PROTOCOL_VERSION,
        )

    def _op_spec(self, request) -> Dict[str, Any]:
        return ok_response(spec=self.spec.to_dict())


class VoterServer(ServerCore):
    """A VDX-configured voter reachable over TCP.

    Args:
        spec: the voting scheme this service hosts.
        host: bind address (default loopback).
        port: bind port; 0 picks a free port (see :attr:`address`).
        history_store: optional per-series store view
            (:meth:`~repro.history.TieredHistoryStore.store_for`).
        registry: metrics registry for the service *and* its engine
            (default: the process-global registry from :mod:`repro.obs`).

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self,
        spec: VotingSpec,
        host: str = "127.0.0.1",
        port: int = 0,
        history_store=None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.spec = spec
        self._history_store = history_store
        self.registry = registry if registry is not None else get_default_registry()
        self._obs = ServiceInstruments(self.registry, OPERATIONS)
        self.engine: FusionEngine = build_engine(
            spec, history_store=history_store, registry=self.registry
        )
        self._lock = threading.Lock()
        self._pending: Dict[int, Dict[str, Optional[float]]] = {}
        self._voted = set()
        self._last_result: Optional[FusionResult] = None
        self.requests_served = 0
        super().__init__(host, port)

    # -- request dispatch ---------------------------------------------------

    def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Handle one validated request (thread-safe)."""
        op = validate_request(request)
        obs = self._obs
        start = time.perf_counter() if obs.enabled else 0.0
        try:
            with self._lock:
                self.requests_served += 1
                return self._handler(op)(request)
        except Exception:
            obs.errors[op].inc()
            raise
        finally:
            obs.requests[op].inc()
            if obs.enabled:
                obs.request_seconds[op].observe(time.perf_counter() - start)

    # -- operations ---------------------------------------------------------

    def _op_ping(self, request) -> Dict[str, Any]:
        return ok_response(pong=True)

    def _vote_round(self, number: int, values: Dict[str, Optional[float]]):
        if number in self._voted:
            raise ProtocolError(
                f"round {number} was already voted",
                code=ErrorCode.ALREADY_VOTED,
            )
        self._voted.add(number)
        voting_round = Round.from_mapping(number, values)
        result = self.engine.process(voting_round)
        self._last_result = result
        return result

    def _op_vote(self, request) -> Dict[str, Any]:
        values = {
            str(m): _numeric(m, v) for m, v in request["values"].items()
        }
        result = self._vote_round(request["round"], values)
        return ok_response(result=_result_payload(result))

    def _op_submit(self, request) -> Dict[str, Any]:
        number = request["round"]
        if number in self._voted:
            raise ProtocolError(
                f"round {number} was already voted",
                code=ErrorCode.ALREADY_VOTED,
            )
        value = _numeric(request["module"], request["value"])
        bucket = self._pending.setdefault(number, {})
        bucket[request["module"]] = value
        roster = self.engine.roster
        complete = bool(roster) and set(bucket) >= set(roster)
        if complete:
            result = self._vote_round(number, self._pending.pop(number))
            return ok_response(
                accepted=True, voted=True, result=_result_payload(result)
            )
        return ok_response(accepted=True, voted=False, pending=len(bucket))

    def _op_close_round(self, request) -> Dict[str, Any]:
        number = request["round"]
        bucket = self._pending.pop(number, None)
        if bucket is None:
            raise ProtocolError(f"no pending submissions for round {number}")
        result = self._vote_round(number, bucket)
        return ok_response(result=_result_payload(result))

    def _op_history(self, request) -> Dict[str, Any]:
        history = getattr(self.engine.voter, "history", None)
        records = history.snapshot() if history is not None else {}
        return ok_response(records=records)

    def _op_stats(self, request) -> Dict[str, Any]:
        processed = self.engine.rounds_processed
        degraded = self.engine.rounds_degraded
        snapshot = {
            "engine": {
                "rounds_processed": processed,
                "rounds_degraded": degraded,
                "availability": (
                    (processed - degraded) / processed if processed else 0.0
                ),
                "roster_size": len(self.engine.roster),
                "algorithm": self.spec.algorithm_name,
            },
            "service": {
                "requests": {
                    op: child.value
                    for op, child in self._obs.requests.items()
                },
                "errors": {
                    op: child.value for op, child in self._obs.errors.items()
                },
            },
        }
        return ok_response(
            rounds_processed=processed,
            rounds_degraded=degraded,
            pending_rounds=sorted(self._pending),
            requests_served=self.requests_served,
            last_value=self._last_result.value if self._last_result else None,
            algorithm=self.spec.algorithm_name,
            snapshot=snapshot,
        )

    def _op_metrics(self, request) -> Dict[str, Any]:
        """Prometheus text exposition of the service's registry."""
        return ok_response(metrics=self.registry.render())

    def _op_obs(self, request) -> Dict[str, Any]:
        """Structured JSON snapshot of the service's registry.

        The machine-readable sibling of ``metrics``: the gateway's
        aggregation op and the dashboard consume this instead of
        re-parsing Prometheus text.
        """
        return ok_response(snapshot=self.registry.snapshot())

    def _op_reset(self, request) -> Dict[str, Any]:
        self.engine.reset()
        self._pending.clear()
        self._voted.clear()
        self._last_result = None
        return ok_response(reset=True)

    def _op_configure(self, request) -> Dict[str, Any]:
        """Hot-swap the voting scheme (the VDX promise made live).

        The new document is validated before anything changes; an
        invalid document leaves the running scheme untouched.  A swap
        discards all voting state — records earned under one scheme
        mean nothing under another — but keeps the history store
        attached so the new scheme persists its records too.
        """
        spec = VotingSpec.from_dict(request["spec"])
        self.spec = spec
        if self._history_store is not None:
            # Stale records from the old scheme must not leak into the
            # rebuilt engine via the store's load-on-attach.
            self._history_store.clear()
        self.engine = build_engine(
            spec, history_store=self._history_store, registry=self.registry
        )
        self._pending.clear()
        self._voted.clear()
        self._last_result = None
        return ok_response(configured=True, algorithm_name=spec.algorithm_name)
