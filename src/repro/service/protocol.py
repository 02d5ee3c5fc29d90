"""Wire protocol for the voter service: JSON lines and binary frames.

Every request and response is one *message* (a dict with an ``op``
field on requests; ``ok`` plus either the operation's payload or an
``error`` string and machine-readable ``code`` on responses).  A
message travels in one of two framings, and every server speaks both
on the same port, per message:

* **v2 — JSON lines**: one JSON object on one line (UTF-8,
  ``\\n``-terminated).  The compatibility framing; any peer from the
  protocol-v2 era keeps working unchanged.
* **v3 — binary frames**: a fixed 8-byte header (magic, version,
  flags, payload length) followed by a compact type-tagged binary
  payload (``struct``-packed, stdlib-only).  Rows of float readings
  travel as packed IEEE-754 doubles — the serialization hot path of
  the batched ``vote_batch`` traffic.  See ``docs/protocol.md``
  for the byte-by-byte layout.

Framing is detected from the first byte of each message (``0xF3``
opens a binary frame; anything else is a JSON line) and responses
mirror the framing of their request, so a connection may even mix
framings.  Clients discover the capability through the ``hello``
handshake (the reply advertises ``binary_framing``) and upgrade with
:meth:`~repro.service.client.VoterClient.negotiate`.

Operations:

====================  =====================================================
``ping``              liveness check; echoes ``{"ok": true, "pong": true}``
``spec``              the service's active VDX document
``vote``              vote a complete round: ``{"op": "vote", "round": 3,
                      "values": {"E1": 18.0, "E2": null}}``
``submit``            incremental submission of one module's reading:
                      ``{"op": "submit", "round": 3, "module": "E1",
                      "value": 18.0}``
``close_round``       vote whatever has been submitted for a round
``history``           current per-module history records
``stats``             rounds processed/degraded, last output, plus a
                      structured ``snapshot`` of engine/service metrics
``metrics``           Prometheus text exposition of the service's
                      metrics registry (see :mod:`repro.obs`)
``obs``               structured JSON ``snapshot()`` of the metrics
                      registry; on a gateway the reply also carries a
                      ``shards`` map aggregating every live backend's
                      snapshot (the dashboard/scrape aggregation op)
``reset``             reset voter history and engine state
``hello``             version handshake: ``{"op": "hello", "version": 3}``;
                      every version in :data:`SUPPORTED_VERSIONS` is
                      accepted and echoed back, a mismatched peer gets
                      a clear error instead of a decode failure deeper
                      in the exchange.  The reply advertises
                      capabilities (``replays_votes``,
                      ``binary_framing``, ``max_version``)
``vote_batch``        vote many rounds across many series in one
                      round-trip (the cluster's batched hot path):
                      ``{"op": "vote_batch", "batches": [{"series": "s",
                      "rounds": [0, 1], "modules": ["E1"],
                      "rows": [[18.0], [18.1]]}]}``
``route``             (gateway) replica set for a series key
``cluster_stats``     (gateway) ring membership, backend liveness and
                      per-shard counters
``sync_history``      (shard backend) install history records for one
                      series — the rebalance/failover seeding write;
                      optional ``updates`` (history update counter) and
                      ``watermark`` (highest voted round) version the
                      seed so a stale snapshot cannot rewind a shard
====================  =====================================================

Sharded servers accept an optional ``series`` string on ``vote``,
``submit``, ``close_round``, ``history``, ``stats`` and ``reset`` to
select one of their hosted series; the plain single-engine
:class:`~repro.service.server.VoterServer` ignores it.
"""

from __future__ import annotations

import enum
import json
import math
import struct
from typing import Any, Dict, List, Tuple

from ..exceptions import ReproError

#: Wire-protocol version.  Bumped to 2 when the cluster operations
#: (``hello``/``vote_batch``/``route``/``cluster_stats``/``sync_history``)
#: and the optional ``series`` field were added; bumped to 3 when the
#: binary framing and the structured error envelope (``code``) landed.
PROTOCOL_VERSION = 3

#: Versions this build can speak.  Protocol v2 (JSON lines, string-only
#: errors) stays fully supported so v2-era peers keep working; a
#: ``hello`` carrying any of these versions is accepted and echoed.
SUPPORTED_VERSIONS = (2, 3)

#: All operations the server understands.
OPERATIONS = (
    "ping",
    "spec",
    "vote",
    "submit",
    "close_round",
    "history",
    "stats",
    "metrics",
    "obs",
    "reset",
    "configure",
    "hello",
    "vote_batch",
    "route",
    "cluster_stats",
    "sync_history",
)

#: Cap on a single protocol line; longer lines are rejected (guards the
#: server against unbounded buffering from a misbehaving client).
MAX_LINE_BYTES = 1_048_576

#: Cap on a whole binary frame (header + payload).  Kept equal to the
#: line cap so a message rejected in one framing cannot sneak through
#: the other.
MAX_FRAME_BYTES = MAX_LINE_BYTES


class ErrorCode(str, enum.Enum):
    """Machine-readable error categories shared by every server tier.

    Each error response carries ``{"ok": false, "error": <message>,
    "code": <one of these>}``; the code is the stable contract
    (messages are for humans and may change between releases).  The
    same enum is used by the plain voter service, the shard backends,
    the cluster gateway and the async ingest tier, so clients can
    branch on a failure class without parsing prose.
    """

    #: Malformed request or wire-level violation.
    PROTOCOL = "protocol"
    #: ``hello`` carried a version outside :data:`SUPPORTED_VERSIONS`.
    VERSION_MISMATCH = "version_mismatch"
    #: A binary frame (or JSON line) exceeded the size cap.
    FRAME_TOO_LARGE = "frame_too_large"
    #: A binary frame failed to decode (bad magic/tag/truncation).
    MALFORMED_FRAME = "malformed_frame"
    #: A submitted value was non-numeric or non-finite.
    INVALID_VALUE = "invalid_value"
    #: The round was voted before and cannot be replayed.
    ALREADY_VOTED = "already_voted"
    #: The request named a series this server does not host.
    UNKNOWN_SERIES = "unknown_series"
    #: The operation exists but this server tier does not serve it.
    UNSUPPORTED_OP = "unsupported_op"
    #: No replica answered for the routed series.
    NO_REPLICA = "no_replica"
    #: The ingest tier shed this request (queues full).
    BACKPRESSURE = "backpressure"
    #: An invalid VDX document was submitted via ``configure``.
    SPEC = "spec"
    #: Anything else a handler raised.
    INTERNAL = "internal"


class ProtocolError(ReproError):
    """A message violated the wire protocol.

    Carries a machine-readable :class:`ErrorCode` (default
    :attr:`ErrorCode.PROTOCOL`) that the server echoes in the error
    envelope.
    """

    code: ErrorCode = ErrorCode.PROTOCOL

    def __init__(self, message: str, code: "ErrorCode | None" = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ConnectionClosedError(ProtocolError):
    """The peer closed the connection mid-exchange (retryable)."""


class VersionMismatchError(ProtocolError):
    """The peers speak different protocol versions."""

    code = ErrorCode.VERSION_MISMATCH


def _jsonable(value: Any) -> Any:
    """Make a value JSON-encodable (NaN becomes null)."""
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def encode_message(message: Dict[str, Any]) -> bytes:
    """Encode one protocol message as a JSON line."""
    text = json.dumps(
        {k: _jsonable(v) for k, v in message.items()}, allow_nan=False
    )
    data = text.encode("utf-8") + b"\n"
    if len(data) > MAX_LINE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_LINE_BYTES} bytes")
    return data


def decode_message(line: bytes) -> Dict[str, Any]:
    """Decode one JSON line into a message dict."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"line exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid JSON line: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


# -- protocol v3: binary framing ------------------------------------------
#
# Frame layout (all integers big-endian):
#
#   offset  size  field
#   0       1     magic  (0xF3 — never a valid first byte of a JSON line)
#   1       1     frame version (FRAME_VERSION = 1)
#   2       2     flags (reserved, must be 0)
#   4       4     payload length in bytes
#   8       n     payload: one type-tagged value (top level must be a map)
#
# Payload value encoding, first byte is a type tag:
#
#   0x00 null | 0x01 false | 0x02 true
#   0x03 int     : i64
#   0x04 float   : f64
#   0x05 str     : u32 byte length + UTF-8 bytes
#   0x06 list    : u32 count + that many values
#   0x07 map     : u32 count + (u16 key length + UTF-8 key, value) pairs
#   0x08 f64 row : u32 count + count packed f64 (NaN encodes a null cell)
#
# The f64-row tag is the hot path: a ``vote_batch`` row of readings is
# one struct pack/unpack instead of per-cell tags, and decodes back to
# the same ``float | None`` cells the JSON framing carries.

FRAME_MAGIC = 0xF3
FRAME_VERSION = 1
FRAME_HEADER = struct.Struct("!BBHI")

_TAG_NULL = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_LIST = 0x06
_TAG_MAP = 0x07
_TAG_F64ROW = 0x08
_TAG_I64ROW = 0x09
_TAG_F64MATRIX = 0x0A
_TAG_RECORDS = 0x0B

_I64_RANGE = (-(2 ** 63), 2 ** 63 - 1)

_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")

#: Maximum container nesting a frame may carry (guards the recursive
#: decoder against stack exhaustion from a hostile peer).
MAX_FRAME_DEPTH = 32


def _pack_matrix(value: Any, n: int) -> Optional[bytes]:
    """Pack a rectangular float/None matrix (the ``rows`` hot path).

    Returns None unless ``value`` is >= 2 equal-width rows (width >= 2)
    holding only floats and Nones — anything else falls back to the
    generic list encoding, so type fidelity is never lost.
    """
    if n < 2 or type(value[0]) not in (list, tuple):
        return None
    m = len(value[0])
    if m < 2 or not all(
        type(row) in (list, tuple) and len(row) == m for row in value
    ):
        return None
    flat = [cell for row in value for cell in row]
    if not all(cell is None or type(cell) is float for cell in flat):
        return None
    packed = struct.pack(
        f"!{n * m}d",
        *(float("nan") if cell is None else cell for cell in flat),
    )
    return b"\x0a" + _U32.pack(n) + _U32.pack(m) + packed


def _pack_records(value: Any, n: int, depth: int) -> Optional[bytes]:
    """Pack a list of same-keyed dicts column-wise, keys written once.

    ``vote_batch`` responses are long lists of small uniform records
    (``{"round", "value", "status"}`` per round); per-record key and
    tag overhead is what makes generic map encoding the hot spot.
    Uniform record lists are transposed into one value per column, so
    an all-int column (round numbers) or an all-float column (fused
    values) collapses into a single packed row and decoding rebuilds
    the dicts with ``dict(zip(...))`` instead of per-pair work.
    """
    if n < 2 or type(value[0]) is not dict:
        return None
    keys = tuple(value[0])
    if not keys or len(keys) > 255:
        return None
    for record in value:
        if type(record) is not dict or tuple(record) != keys:
            return None
    parts: List[bytes] = [b"\x0b", _U32.pack(n), bytes([len(keys)])]
    for key in keys:
        if not isinstance(key, str):
            return None
        data = key.encode("utf-8")
        parts.append(_U16.pack(len(data)) + data)
    for key in keys:
        _encode_value([record[key] for record in value], parts, depth + 1)
    return b"".join(parts)


def _encode_value(value: Any, parts: List[bytes], depth: int = 0) -> None:
    if depth > MAX_FRAME_DEPTH:
        raise ProtocolError(
            f"frame nesting exceeds {MAX_FRAME_DEPTH} levels",
            code=ErrorCode.MALFORMED_FRAME,
        )
    if value is None:
        parts.append(b"\x00")
    elif value is True:
        parts.append(b"\x02")
    elif value is False:
        parts.append(b"\x01")
    elif isinstance(value, int):
        parts.append(b"\x03" + _I64.pack(value))
    elif isinstance(value, float):
        if math.isnan(value):
            parts.append(b"\x00")  # mirror the JSON framing: NaN -> null
        else:
            parts.append(b"\x04" + _F64.pack(value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        parts.append(b"\x05" + _U32.pack(len(data)) + data)
    elif isinstance(value, (list, tuple)):
        n = len(value)
        if n >= 2 and all(v is None or type(v) is float for v in value):
            packed = struct.pack(
                f"!{n}d", *(float("nan") if v is None else v for v in value)
            )
            parts.append(b"\x08" + _U32.pack(n) + packed)
        elif n >= 2 and all(
            type(v) is int and _I64_RANGE[0] <= v <= _I64_RANGE[1]
            for v in value
        ):
            parts.append(b"\x09" + _U32.pack(n) + struct.pack(f"!{n}q", *value))
        elif (matrix := _pack_matrix(value, n)) is not None:
            parts.append(matrix)
        elif (records := _pack_records(value, n, depth)) is not None:
            parts.append(records)
        else:
            parts.append(b"\x06" + _U32.pack(n))
            for item in value:
                _encode_value(item, parts, depth + 1)
    elif isinstance(value, dict):
        parts.append(b"\x07" + _U32.pack(len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise ProtocolError(
                    f"frame map keys must be strings, got {type(key).__name__}"
                )
            data = key.encode("utf-8")
            parts.append(_U16.pack(len(data)) + data)
            _encode_value(item, parts, depth + 1)
    else:
        raise ProtocolError(
            f"value of type {type(value).__name__} is not frame-encodable"
        )


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Encode one protocol message as a v3 binary frame."""
    if not isinstance(message, dict):
        raise ProtocolError("frame payload must be a message object")
    parts: List[bytes] = []
    _encode_value(message, parts)
    payload = b"".join(parts)
    if FRAME_HEADER.size + len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame exceeds {MAX_FRAME_BYTES} bytes",
            code=ErrorCode.FRAME_TOO_LARGE,
        )
    return FRAME_HEADER.pack(FRAME_MAGIC, FRAME_VERSION, 0, len(payload)) + payload


def decode_frame_header(header: bytes) -> int:
    """Validate an 8-byte frame header; returns the payload length."""
    if len(header) < FRAME_HEADER.size:
        raise ProtocolError(
            "truncated frame header", code=ErrorCode.MALFORMED_FRAME
        )
    magic, version, flags, length = FRAME_HEADER.unpack(header[: FRAME_HEADER.size])
    if magic != FRAME_MAGIC:
        raise ProtocolError(
            f"bad frame magic 0x{magic:02x}", code=ErrorCode.MALFORMED_FRAME
        )
    if version != FRAME_VERSION:
        raise ProtocolError(
            f"unsupported frame version {version}",
            code=ErrorCode.MALFORMED_FRAME,
        )
    if flags != 0:
        raise ProtocolError(
            f"reserved frame flags 0x{flags:04x} set",
            code=ErrorCode.MALFORMED_FRAME,
        )
    if FRAME_HEADER.size + length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} payload bytes exceeds {MAX_FRAME_BYTES}",
            code=ErrorCode.FRAME_TOO_LARGE,
        )
    return length


def _decode_value(buf: memoryview, pos: int, depth: int) -> Tuple[Any, int]:
    if pos >= len(buf):
        raise ProtocolError("truncated frame value", code=ErrorCode.MALFORMED_FRAME)
    tag = buf[pos]
    pos += 1
    try:
        if tag == _TAG_NULL:
            return None, pos
        if tag == _TAG_FALSE:
            return False, pos
        if tag == _TAG_TRUE:
            return True, pos
        if tag == _TAG_INT:
            return _I64.unpack_from(buf, pos)[0], pos + 8
        if tag == _TAG_FLOAT:
            return _F64.unpack_from(buf, pos)[0], pos + 8
        if tag == _TAG_STR:
            (n,) = _U32.unpack_from(buf, pos)
            pos += 4
            if pos + n > len(buf):
                raise ProtocolError(
                    "truncated frame string", code=ErrorCode.MALFORMED_FRAME
                )
            return str(buf[pos:pos + n], "utf-8"), pos + n
        if tag == _TAG_F64ROW:
            (n,) = _U32.unpack_from(buf, pos)
            pos += 4
            if pos + 8 * n > len(buf):
                raise ProtocolError(
                    "truncated frame row", code=ErrorCode.MALFORMED_FRAME
                )
            cells = struct.unpack_from(f"!{n}d", buf, pos)
            return [None if v != v else v for v in cells], pos + 8 * n
        if tag == _TAG_I64ROW:
            (n,) = _U32.unpack_from(buf, pos)
            pos += 4
            if pos + 8 * n > len(buf):
                raise ProtocolError(
                    "truncated frame row", code=ErrorCode.MALFORMED_FRAME
                )
            return list(struct.unpack_from(f"!{n}q", buf, pos)), pos + 8 * n
        if tag == _TAG_RECORDS:
            if depth >= MAX_FRAME_DEPTH:
                raise ProtocolError(
                    "frame nesting exceeds the depth cap",
                    code=ErrorCode.MALFORMED_FRAME,
                )
            (n,) = _U32.unpack_from(buf, pos)
            width = buf[pos + 4]
            pos += 5
            keys = []
            for _ in range(width):
                (k,) = _U16.unpack_from(buf, pos)
                pos += 2
                if pos + k > len(buf):
                    raise ProtocolError(
                        "truncated frame key", code=ErrorCode.MALFORMED_FRAME
                    )
                keys.append(str(buf[pos:pos + k], "utf-8"))
                pos += k
            columns = []
            for _ in range(width):
                column, pos = _decode_value(buf, pos, depth + 1)
                if type(column) is not list or len(column) != n:
                    raise ProtocolError(
                        "malformed record column",
                        code=ErrorCode.MALFORMED_FRAME,
                    )
                columns.append(column)
            return [dict(zip(keys, cells)) for cells in zip(*columns)], pos
        if tag == _TAG_F64MATRIX:
            (n,) = _U32.unpack_from(buf, pos)
            (m,) = _U32.unpack_from(buf, pos + 4)
            pos += 8
            total = n * m
            if pos + 8 * total > len(buf):
                raise ProtocolError(
                    "truncated frame matrix", code=ErrorCode.MALFORMED_FRAME
                )
            cells = struct.unpack_from(f"!{total}d", buf, pos)
            if any(cell != cell for cell in cells):
                rows = [
                    [None if cell != cell else cell for cell in
                     cells[i * m:(i + 1) * m]]
                    for i in range(n)
                ]
            else:
                rows = [list(cells[i * m:(i + 1) * m]) for i in range(n)]
            return rows, pos + 8 * total
        if tag in (_TAG_LIST, _TAG_MAP):
            if depth >= MAX_FRAME_DEPTH:
                raise ProtocolError(
                    "frame nesting exceeds the depth cap",
                    code=ErrorCode.MALFORMED_FRAME,
                )
            (n,) = _U32.unpack_from(buf, pos)
            pos += 4
            if tag == _TAG_LIST:
                # Strings are the common non-packable item (status
                # columns, module names); decoding them inline skips a
                # recursive call per element.
                items = []
                append = items.append
                unpack_u32 = _U32.unpack_from
                for _ in range(n):
                    if buf[pos] == _TAG_STR:
                        (k,) = unpack_u32(buf, pos + 1)
                        pos += 5
                        if pos + k > len(buf):
                            raise ProtocolError(
                                "truncated frame string",
                                code=ErrorCode.MALFORMED_FRAME,
                            )
                        append(str(buf[pos:pos + k], "utf-8"))
                        pos += k
                    else:
                        item, pos = _decode_value(buf, pos, depth + 1)
                        append(item)
                return items, pos
            mapping: Dict[str, Any] = {}
            for _ in range(n):
                (k,) = _U16.unpack_from(buf, pos)
                pos += 2
                if pos + k > len(buf):
                    raise ProtocolError(
                        "truncated frame key", code=ErrorCode.MALFORMED_FRAME
                    )
                key = str(buf[pos:pos + k], "utf-8")
                pos += k
                mapping[key], pos = _decode_value(buf, pos, depth + 1)
            return mapping, pos
    except (struct.error, IndexError):
        raise ProtocolError(
            "truncated frame value", code=ErrorCode.MALFORMED_FRAME
        )
    except UnicodeDecodeError:
        raise ProtocolError(
            "frame string is not valid UTF-8", code=ErrorCode.MALFORMED_FRAME
        )
    raise ProtocolError(
        f"unknown frame tag 0x{tag:02x}", code=ErrorCode.MALFORMED_FRAME
    )


def decode_frame_payload(payload: bytes) -> Dict[str, Any]:
    """Decode a v3 frame payload into a message dict."""
    message, end = _decode_value(memoryview(payload), 0, 0)
    if end != len(payload):
        raise ProtocolError(
            f"{len(payload) - end} trailing bytes after the frame value",
            code=ErrorCode.MALFORMED_FRAME,
        )
    if not isinstance(message, dict):
        raise ProtocolError(
            "frame payload must be a message object",
            code=ErrorCode.MALFORMED_FRAME,
        )
    return message


def decode_frame(frame: bytes) -> Dict[str, Any]:
    """Decode one complete binary frame (header + payload)."""
    length = decode_frame_header(frame)
    payload = frame[FRAME_HEADER.size:]
    if len(payload) != length:
        raise ProtocolError(
            f"frame payload is {len(payload)} bytes, header declared {length}",
            code=ErrorCode.MALFORMED_FRAME,
        )
    return decode_frame_payload(payload)


def _check_value(value: Any, label: str) -> None:
    """Reject anything but null or a finite non-bool number.

    Booleans pass ``isinstance(value, int)`` and JSON ``Infinity`` /
    ``NaN`` literals parse as floats — both would survive a naive
    numeric check only to blow up (or be unserialisable,
    ``allow_nan=False``) deeper in the server.
    """
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            f"{label} must be numeric or null", code=ErrorCode.INVALID_VALUE
        )
    if not math.isfinite(value):
        raise ProtocolError(
            f"{label} must be finite", code=ErrorCode.INVALID_VALUE
        )


def _check_series(message: Dict[str, Any], op: str) -> None:
    """An optional ``series`` field must be a non-empty string."""
    series = message.get("series")
    if series is not None and (not isinstance(series, str) or not series):
        raise ProtocolError(f"{op} 'series' must be a non-empty string")


def _check_batches(batches: Any) -> None:
    """Shape-check a ``vote_batch`` payload.

    Row *values* are validated vectorially by the server (a single
    ``isfinite`` sweep over the assembled matrix), not per cell here —
    this is the batched hot path.
    """
    if not isinstance(batches, list) or not batches:
        raise ProtocolError("vote_batch requires a non-empty 'batches' list")
    for batch in batches:
        if not isinstance(batch, dict):
            raise ProtocolError("each vote_batch batch must be an object")
        series = batch.get("series")
        if not isinstance(series, str) or not series:
            raise ProtocolError("each batch requires a non-empty string 'series'")
        rounds = batch.get("rounds")
        rows = batch.get("rows")
        modules = batch.get("modules")
        if not isinstance(rounds, list) or not rounds or not all(
            isinstance(r, int) and not isinstance(r, bool) for r in rounds
        ):
            raise ProtocolError(
                f"batch for series {series!r} requires a list of integer 'rounds'"
            )
        if not isinstance(modules, list) or not modules or not all(
            isinstance(m, str) for m in modules
        ):
            raise ProtocolError(
                f"batch for series {series!r} requires a list of string 'modules'"
            )
        if not isinstance(rows, list) or len(rows) != len(rounds):
            raise ProtocolError(
                f"batch for series {series!r} requires one row per round"
            )
        for row in rows:
            if not isinstance(row, list) or len(row) != len(modules):
                raise ProtocolError(
                    f"batch for series {series!r} has a row that does not "
                    f"match its module list"
                )


def validate_request(message: Dict[str, Any]) -> str:
    """Check a request's shape; returns the operation name."""
    op = message.get("op")
    if not isinstance(op, str) or op not in OPERATIONS:
        raise ProtocolError(f"unknown or missing op {op!r}")
    if op in ("vote", "submit", "close_round", "history", "stats", "reset"):
        _check_series(message, op)
    if op == "vote":
        if not isinstance(message.get("round"), int):
            raise ProtocolError("vote requires an integer 'round'")
        values = message.get("values")
        if not isinstance(values, dict) or not values:
            raise ProtocolError("vote requires a non-empty 'values' object")
        for module, value in values.items():
            _check_value(value, f"value for module {module!r}")
    elif op == "submit":
        if not isinstance(message.get("round"), int):
            raise ProtocolError("submit requires an integer 'round'")
        if not isinstance(message.get("module"), str):
            raise ProtocolError("submit requires a string 'module'")
        _check_value(message.get("value"), "submit 'value'")
    elif op == "close_round":
        if not isinstance(message.get("round"), int):
            raise ProtocolError("close_round requires an integer 'round'")
    elif op == "configure":
        if not isinstance(message.get("spec"), dict):
            raise ProtocolError("configure requires a 'spec' object")
    elif op == "hello":
        version = message.get("version")
        if not isinstance(version, int) or isinstance(version, bool):
            raise ProtocolError("hello requires an integer 'version'")
    elif op == "vote_batch":
        _check_batches(message.get("batches"))
    elif op == "route":
        series = message.get("series")
        if not isinstance(series, str) or not series:
            raise ProtocolError("route requires a non-empty string 'series'")
    elif op == "sync_history":
        series = message.get("series")
        if not isinstance(series, str) or not series:
            raise ProtocolError("sync_history requires a non-empty string 'series'")
        records = message.get("records")
        if not isinstance(records, dict):
            raise ProtocolError("sync_history requires a 'records' object")
        for module, value in records.items():
            _check_value(value, f"record for module {module!r}")
            if value is None:
                raise ProtocolError(f"record for module {module!r} must be numeric")
        for field in ("updates", "watermark"):
            value = message.get(field)
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise ProtocolError(
                    f"sync_history {field!r} must be an integer when present"
                )
    return op


def error_response(
    message: str, code: ErrorCode = ErrorCode.PROTOCOL
) -> Dict[str, Any]:
    """The uniform error envelope: ``{ok, error, code}``.

    Every handler error — whatever the tier — is reported through this
    shape; ``code`` is the machine-readable :class:`ErrorCode` value.
    """
    return {"ok": False, "error": message, "code": str(getattr(code, "value", code))}


def error_response_for(exc: BaseException) -> Dict[str, Any]:
    """The error envelope for a raised exception, honouring its code."""
    from ..exceptions import SpecificationError

    code = getattr(exc, "code", None)
    if not isinstance(code, ErrorCode):
        code = (
            ErrorCode.SPEC
            if isinstance(exc, SpecificationError)
            else ErrorCode.INTERNAL
        )
    if isinstance(exc, ProtocolError):
        return error_response(str(exc), code)
    return error_response(f"{type(exc).__name__}: {exc}", code)


def ok_response(**payload: Any) -> Dict[str, Any]:
    response = {"ok": True}
    response.update(payload)
    return response
